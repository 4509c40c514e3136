"""Multi-index search (ES GET /idx1,idx2/_search): per-index statistics,
exact hit/agg merge, _index labels — state/pool.MultiIndexSearchPool."""
import glob

import pyarrow.parquet as pq
import pytest

from astrologer_ray.pipelines.build import build_index
from astrologer_ray.state.dsl import execute_dsl
from astrologer_ray.state.pool import MultiIndexSearchPool
from astrologer_ray.state.searcher import Searcher


@pytest.fixture(scope="module")
def two_indexes(ray_session, small_corpus_dir, tmp_path_factory):
    """The corpus split into two halves, indexed separately — the
    time-partitioned-indices topology."""
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("midx")
    files = sorted(glob.glob(small_corpus_dir + "/*.parquet"))
    assert len(files) >= 2
    half = len(files) // 2
    for name, part in (("idx_a", files[:half]), ("idx_b", files[half:])):
        cdir = root / f"corpus_{name}"
        cdir.mkdir()
        for f in part:
            (cdir / f.split("/")[-1]).symlink_to(f)
        build_index(str(cdir), str(root / name), partition_rows=64,
                    positions=True)
    return str(root / "idx_a"), str(root / "idx_b")


def test_multi_index_dsl_merges_per_index_responses(two_indexes):
    """Hits = per-index responses merged by (score desc, id asc), each
    labeled with its index; totals sum; per-index scores are the
    single-index scores unchanged (query_then_fetch)."""
    da, db = two_indexes
    body = {"query": {"match": {"content": "merge index"}}, "size": 8}
    pool = MultiIndexSearchPool([da, db], load_docs=True)
    try:
        got = pool.execute_dsl(body)
    finally:
        pool.shutdown()
    ra = execute_dsl(Searcher(da, load_docs=True), body)
    rb = execute_dsl(Searcher(db, load_docs=True), body)
    assert got["hits"]["total"]["value"] == (
        ra["hits"]["total"]["value"] + rb["hits"]["total"]["value"])
    want = ([dict(h, _index="idx_a") for h in ra["hits"]["hits"]]
            + [dict(h, _index="idx_b") for h in rb["hits"]["hits"]])
    want.sort(key=lambda h: (-(h["_score"] or 0.0), h["_id"]))
    want = want[:8]
    assert [(h["_index"], h["_id"], h["_score"])
            for h in got["hits"]["hits"]] == [
        (h["_index"], h["_id"], h["_score"]) for h in want]


def test_multi_index_terms_agg_sums_counts(two_indexes):
    """A terms agg across two indexes equals per-index counts summed by
    key — the exact merge contract."""
    da, db = two_indexes
    body = {"size": 0, "aggs": {"langs": {"terms": {
        "field": "lang", "size": 20}}}}
    pool = MultiIndexSearchPool([da, db], load_docs=True)
    try:
        got = pool.execute_dsl(body)
    finally:
        pool.shutdown()
    cnt: dict = {}
    for d in (da, db):
        r = execute_dsl(Searcher(d, load_docs=True), body)
        for b in r["aggregations"]["langs"]["buckets"]:
            cnt[b["key"]] = cnt.get(b["key"], 0) + b["doc_count"]
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [(b["key"], b["doc_count"])
            for b in got["aggregations"]["langs"]["buckets"]] == want


def test_multi_index_plain_search_and_msearch(two_indexes):
    """Plain top-k carries _index and merges exactly; msearch returns
    per-body merged responses in request order."""
    da, db = two_indexes
    sa, sb = Searcher(da), Searcher(db)
    terms = ["merge", "index"]
    pool = MultiIndexSearchPool([da, db])
    try:
        hits = pool.search(terms, k=6)
        la = [dict(h, _index="idx_a") for h in sa.search(terms, k=6)]
        lb = [dict(h, _index="idx_b") for h in sb.search(terms, k=6)]
        allh = sorted(la + lb,
                      key=lambda h: (-h["score"], h["doc_id"]))[:6]
        assert [(h["_index"], h["doc_id"], h["score"]) for h in hits] == [
            (h["_index"], h["doc_id"], h["score"]) for h in allh]
        bodies = [{"query": {"match": {"content": "merge"}}, "size": 3},
                  {"query": {"match_all": {}}, "size": 2}]
        resps = pool.msearch(bodies)
        assert len(resps) == 2
        assert resps[1]["hits"]["total"]["value"] == sa.n_local + sb.n_local
        assert all("_index" in h for r in resps
                   for h in r["hits"]["hits"])
    finally:
        pool.shutdown()


def test_multi_index_pool_names_a_lost_index(two_indexes):
    """``warm()`` opens every index's connection; an index actor lost
    afterwards fails the request with an error naming that index."""
    import time

    import ray

    da, db = two_indexes
    pool = MultiIndexSearchPool([da, db])
    try:
        pool.warm()
        assert len(pool._links) == 2
        ray.kill(pool.actors[1])
        deadline = time.monotonic() + 60
        with pytest.raises(ConnectionError, match="index 'idx_b'"):
            while time.monotonic() < deadline:  # ray.kill is asynchronous
                pool.search(["merge"], k=3)
    finally:
        pool.shutdown()


def test_aliases_atomic_actions(tmp_path, two_indexes):
    """_aliases actions validate fully before the atomic publish: a body
    with one bad action changes nothing; a swap (remove+add) lands as
    one update."""
    from astrologer_ray.state.aliases import (apply_actions, load_aliases,
                                              resolve)

    da, db = two_indexes
    reg_path = str(tmp_path / "aliases.json")
    apply_actions(reg_path, [{"add": {"index": da, "alias": "live"}}])
    assert resolve(reg_path, "live") == ([da], None)
    # invalid second action -> NOTHING applies (validate-then-publish)
    with pytest.raises(ValueError):
        apply_actions(reg_path, [
            {"add": {"index": db, "alias": "live"}},
            {"add": {"index": str(tmp_path / "missing"), "alias": "x"}}])
    assert resolve(reg_path, "live") == ([da], None)
    # the swap primitive: remove old + add new in ONE call
    apply_actions(reg_path, [
        {"remove": {"index": da, "alias": "live"}},
        {"add": {"index": db, "alias": "live",
                 "filter": {"term": {"lang": "py"}}}}])
    dirs, filt = resolve(reg_path, "live")
    assert dirs == [db] and filt == {"term": {"lang": "py"}}
    # removing the last index drops the alias; unknown names resolve
    # to themselves (literal dirs)
    apply_actions(reg_path, [{"remove": {"alias": "live"}}])
    assert "live" not in load_aliases(reg_path)["aliases"]
    assert resolve(reg_path, da) == ([da], None)


def test_cli_search_through_alias(tmp_path, two_indexes, capsys):
    """`cli search ALIAS --aliases FILE` equals the direct multi-index
    search; an alias filter narrows every hit to matching docs."""
    import json

    from astrologer_ray.cli import main
    from astrologer_ray.state.aliases import apply_actions

    da, db = two_indexes
    reg = str(tmp_path / "reg.json")
    apply_actions(reg, [{"add": {"index": da, "alias": "all"}},
                        {"add": {"index": db, "alias": "all"}}])
    body = '{"query": {"match": {"content": "merge index"}}, "size": 5}'
    assert main(["search", "all", body, "--dsl", "--aliases", reg]) == 0
    via_alias = json.loads(capsys.readouterr().out.strip())
    assert main(["search", f"{da},{db}", body, "--dsl"]) == 0
    direct = json.loads(capsys.readouterr().out.strip())
    assert via_alias == direct
    # filtered alias: every surviving hit satisfies the filter
    s = Searcher(da, load_docs=True)
    lang = str(s.doc_lang[0])
    apply_actions(reg, [{"add": {"index": da, "alias": "one",
                                 "filter": {"term": {"lang": lang}}}}])
    assert main(["search", "one", body, "--dsl", "--aliases", reg]) == 0
    filtered = json.loads(capsys.readouterr().out.strip())
    hits = filtered["hits"]["hits"]
    assert hits and all(
        str(s.doc_lang[h["_id"]]) == lang for h in hits)


def test_cli_rollover(tmp_path, two_indexes, capsys):
    """_rollover: condition check against combined stats, ES-style
    generation naming, atomic alias repoint; dry-run mutates nothing."""
    import json
    import os

    from astrologer_ray.cli import main
    from astrologer_ray.state.aliases import apply_actions, resolve

    da, _db = two_indexes
    reg = str(tmp_path / "roll.json")
    apply_actions(reg, [{"add": {"index": da, "alias": "logs"}}])
    # condition not met
    assert main(["rollover", "logs", "--aliases", reg,
                 "--max-docs", "999999999"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["rolled_over"] is False and resolve(reg, "logs")[0] == [da]
    # dry run: condition met, nothing mutates
    assert main(["rollover", "logs", "--aliases", reg,
                 "--max-docs", "1", "--dry-run"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["rolled_over"] is True and resolve(reg, "logs")[0] == [da]
    # real rollover: new generation dir, alias gains the write index
    assert main(["rollover", "logs", "--aliases", reg,
                 "--max-docs", "1"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["rolled_over"] is True
    new = out["new_index"]
    assert new == da + "-000002" and os.path.isdir(new)
    assert resolve(reg, "logs")[0] == [da, new]
    # next rollover increments the ES-style suffix; the new write index
    # is empty, so the doc condition is checked against IT (0 docs)
    assert main(["rollover", "logs", "--aliases", reg,
                 "--max-docs", "1"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["rolled_over"] is False and out["docs"] == 0


def test_cli_search_through_alias_skips_unbuilt_generation(
        tmp_path, two_indexes, capsys):
    """After a rollover the alias also lists the new, not yet built
    generation; searching through the alias reads the built generations
    only, so it returns the old generation's hits instead of crashing."""
    import json

    from astrologer_ray.cli import main
    from astrologer_ray.state.aliases import apply_actions, resolve

    da, _db = two_indexes
    reg = str(tmp_path / "roll.json")
    apply_actions(reg, [{"add": {"index": da, "alias": "logs"}}])
    new = str(tmp_path / "logs-000002")
    assert main(["rollover", "logs", "--aliases", reg, "--max-docs", "1",
                 "--new-index", new]) == 0
    capsys.readouterr()
    assert resolve(reg, "logs")[0] == [da, new]
    body = '{"query": {"match": {"content": "merge index"}}, "size": 5}'
    assert main(["search", "logs", body, "--dsl", "--aliases", reg]) == 0
    via_alias = json.loads(capsys.readouterr().out.strip())
    assert main(["search", da, body, "--dsl"]) == 0
    direct = json.loads(capsys.readouterr().out.strip())
    assert via_alias["hits"]["hits"] and via_alias == direct


def test_multi_index_rejects_single_index_modes(two_indexes, capsys):
    """Flags whose semantics the multi-index pool does not implement
    (--phrase, --lang, --should, ...) must refuse, not silently fall
    back to plain BM25."""
    from astrologer_ray.cli import main

    da, db = two_indexes
    assert main(["search", f"{da},{db}", "merge index", "--phrase"]) == 2
    assert main(["search", f"{da},{db}", "merge", "--lang", "py"]) == 2
    capsys.readouterr()
