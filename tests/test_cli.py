import json
import os

from astrologer_ray.cli import main


def test_cli_full_flow(ray_session, small_corpus_dir, tmp_path, capsys):
    idx = str(tmp_path / "cliidx")

    assert main(["create-index", idx]) == 0
    assert os.path.isdir(idx + "/partials")

    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["n_docs"] > 0

    assert main(["stats", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["missing"] == []
    assert stats["index_meta"]["n_docs"] == meta["n_docs"]

    assert main(["ingest", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out.get("up_to_date") is True

    assert main(["search", idx, "mergeSort index", "-k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(lines) <= 3
    hit = json.loads(lines[0])
    assert {"rank", "doc_id", "score", "repo"} <= set(hit)

    # filter DSL + explicit strategy + should clause through the CLI
    filt = json.dumps({"bool": {"must": [{"exists": "repo"},
                                         {"range": {"dl": {"gte": 1}}}]}})
    assert main(["search", idx, "mergeSort index", "-k", "3",
                 "--filter", filt, "--strategy", "wand",
                 "--should", "quick"]) == 0
    flines = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(flines) <= 3
    assert json.loads(flines[0])["score"] > 0


def test_cli_ingest_rebuilds_missing(ray_session, small_corpus_dir, tmp_path, capsys):
    import glob

    idx = str(tmp_path / "cliidx2")
    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    capsys.readouterr()
    for f in glob.glob(idx + "/partials/*-000001.*"):
        os.remove(f)
    assert main(["stats", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    assert json.loads(capsys.readouterr().out)["missing"] == [1]
    assert main(["ingest", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rebuilt_partitions"] == [1]


def test_cli_ingest_follow_picks_up_new_file(ray_session, small_corpus_dir, tmp_path, capsys):
    """--follow: a parquet file that appears between polls is built on the
    next poll (the reference's tail-follow daemon, commands/ingest.go:46-52)."""
    import glob
    import shutil
    import threading
    import time

    corpus = str(tmp_path / "grow_corpus")
    os.makedirs(corpus)
    src = sorted(glob.glob(small_corpus_dir + "/*.parquet"))
    shutil.copy(src[0], corpus + "/part-a.parquet")
    idx = str(tmp_path / "fidx")

    def drop_file_later():
        time.sleep(1.0)
        shutil.copy(src[1], corpus + "/part-b.parquet")

    t = threading.Thread(target=drop_file_later)
    t.start()
    assert main(["ingest", corpus, idx, "--partition-rows", "64",
                 "--follow", "--poll-seconds", "1.5", "--max-polls", "4"]) == 0
    t.join()
    lines = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    # first poll built part-a, a later poll built the partitions of part-b,
    # and the final poll reports up-to-date
    assert "rebuilt_partitions" in lines[0]
    assert any("rebuilt_partitions" in ln and ln != lines[0] for ln in lines[1:])
    assert lines[-1].get("up_to_date") is True

    from astrologer_ray.pipelines.build import load_meta
    import pyarrow.parquet as pq

    n_src = sum(pq.read_metadata(f).num_rows for f in glob.glob(corpus + "/*.parquet"))
    assert load_meta(idx)["n_docs"] == n_src


def test_cli_build_keyword_field(ray_session, small_corpus_dir, tmp_path, capsys):
    idx = str(tmp_path / "kwidx")
    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64",
                 "--keyword-field", "lang=lang"]) == 0
    capsys.readouterr()
    from astrologer_ray.state.searcher import Searcher

    s = Searcher(idx)
    langs = sorted({v for v in s.doc_attrs["lang"]})
    n = len(s.field_lookup({"field_term": {"lang": langs[0]}}))
    assert n == int((s.doc_attrs["lang"] == langs[0]).sum()) and n > 0


def test_cli_ingest_preserves_build_config(ray_session, small_corpus_dir,
                                           tmp_path, capsys):
    """ADVICE r2: a plain ``ingest`` (no flags) on an index built with
    --keyword-field/--positions must adopt the index's own meta config —
    up-to-date, zero retokenize — not silently rebuild without keywords."""
    import json as _json

    idx = str(tmp_path / "kwidx2")
    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64",
                 "--keyword-field", "lang=lang", "--positions"]) == 0
    capsys.readouterr()
    assert main(["ingest", small_corpus_dir, idx,
                 "--partition-rows", "64"]) == 0
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out.get("up_to_date") is True, out
    from astrologer_ray.state.searcher import Searcher

    s = Searcher(idx)  # keyword postings survived the ingest
    langs = sorted({v for v in s.doc_attrs["lang"]})
    assert len(s.field_lookup({"field_term": {"lang": langs[0]}})) > 0


def test_cli_query_surface_flags(ray_session, small_corpus_dir, tmp_path, capsys):
    """fuzzy / wildcard / suggest / sort-by / rescore through the CLI."""
    idx = str(tmp_path / "cliidx4")
    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64",
                 "--positions"]) == 0
    capsys.readouterr()

    assert main(["search", idx, "index", "--fuzzy", "--max-edits", "1",
                 "-k", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all("doc_id" in json.loads(x) for x in lines)

    assert main(["search", idx, "ind*", "--wildcard", "-k", "5"]) == 0
    wlines = capsys.readouterr().out.strip().splitlines()
    assert wlines

    assert main(["search", idx, "indx", "--suggest", "--max-edits", "2"]) == 0
    slines = capsys.readouterr().out.strip().splitlines()
    assert slines and {"term", "distance", "df"} <= set(json.loads(slines[0]))

    assert main(["search", idx, "ignored", "--sort-by", "dl", "-k", "3"]) == 0
    dls = [json.loads(x)["value"]
           for x in capsys.readouterr().out.strip().splitlines()]
    assert dls == sorted(dls, reverse=True) and len(dls) == 3

    assert main(["search", idx, "mergeSort index", "--rescore",
                 "merge sort", "-k", "3"]) == 0
    rlines = capsys.readouterr().out.strip().splitlines()
    assert rlines and json.loads(rlines[0])["score"] > 0

    assert main(["search", idx, "ind[a-z]+", "--regexp", "-k", "5"]) == 0
    xlines = capsys.readouterr().out.strip().splitlines()
    assert xlines and all("doc_id" in json.loads(x) for x in xlines)
    # regexp is anchored: same docs as the wildcard 'ind*' listing prefix
    assert {json.loads(x)["doc_id"] for x in xlines} <= {
        json.loads(x)["doc_id"] for x in wlines}

    # phrase-prefix query drawn from a real document's emitted stream
    import glob

    import pyarrow.parquet as pq

    from astrologer_ray.functions.tokenizer import tokenize

    src = pq.read_table(sorted(glob.glob(small_corpus_dir + "/*.parquet"))[0])

    def _simple_bigram():
        # adjacent emitted tokens whose raws do not decompose, so the CLI's
        # re-tokenization of the query reproduces the same stream slice
        for c in src.column("content").to_pylist():
            tk = tokenize(c or "")
            for i in range(len(tk) - 1):
                if (tokenize(tk[i]) == [tk[i]]
                        and tokenize(tk[i + 1]) == [tk[i + 1]]
                        and tokenize(tk[i + 1][:2]) == [tk[i + 1][:2]]):
                    return tk[i], tk[i + 1]
        raise AssertionError("no simple bigram in corpus")

    w1, w2 = _simple_bigram()
    q = f"{w1} {w2[:2]}"
    assert main(["search", idx, q, "--phrase-prefix", "-k", "5"]) == 0
    plines = capsys.readouterr().out.strip().splitlines()
    assert plines and json.loads(plines[0])["score"] > 0


def test_cli_delete_by_query(ray_session, small_corpus_dir, tmp_path, capsys):
    idx = str(tmp_path / "cliidx5")
    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    capsys.readouterr()
    assert main(["search", idx, "index", "-k", "2000"]) == 0
    pre = len(capsys.readouterr().out.strip().splitlines())
    assert main(["delete", idx, "--filter",
                 json.dumps({"match": "index"})]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["deleted"] == pre > 0
    assert main(["search", idx, "index", "-k", "2000"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_cli_info(ray_session, small_corpus_dir, tmp_path, capsys):
    idx = str(tmp_path / "cliidx6")
    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    capsys.readouterr()
    assert main(["delete", idx, "--filter", json.dumps({"exists": "repo"})]) == 0
    n_del = json.loads(capsys.readouterr().out)["deleted"]
    assert main(["info", idx]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["combined"]["n_docs"] > 0
    assert info["tombstones"] == n_del == info["combined"]["n_docs"]
    assert info["segments"] == 0
    assert info["bytes"]["postings"] > 0 and info["bytes"]["dict"] > 0


def test_cli_phrase_slop(ray_session, small_corpus_dir, tmp_path, capsys):
    idx = str(tmp_path / "cliidx7")
    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64",
                 "--positions"]) == 0
    capsys.readouterr()
    assert main(["search", idx, "merge sort", "--phrase", "-k", "50"]) == 0
    exact = capsys.readouterr().out.strip().splitlines()
    assert main(["search", idx, "merge sort", "--phrase", "--slop", "4",
                 "-k", "50"]) == 0
    sloppy = capsys.readouterr().out.strip().splitlines()
    # sloppy span is a superset of the exact phrase
    eids = {json.loads(x)["doc_id"] for x in exact}
    sids = {json.loads(x)["doc_id"] for x in sloppy}
    assert eids <= sids


def test_cli_terms(ray_session, small_corpus_dir, tmp_path, capsys):
    idx = str(tmp_path / "tidx")
    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    capsys.readouterr()

    assert main(["terms", idx, "-k", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    rows = [json.loads(ln) for ln in lines]
    dfs = [r["df"] for r in rows]
    assert dfs == sorted(dfs, reverse=True)  # df desc
    assert all(r["cf"] >= r["df"] > 0 for r in rows)

    prefix = rows[0]["term"][:2]
    assert main(["terms", idx, "--prefix", prefix, "-k", "50"]) == 0
    plines = capsys.readouterr().out.strip().splitlines()
    assert plines and all(
        json.loads(ln)["term"].startswith(prefix) for ln in plines)

    assert main(["terms", idx, "--wildcard", f"{prefix}*", "-k", "50"]) == 0
    wlines = capsys.readouterr().out.strip().splitlines()
    assert {json.loads(ln)["term"] for ln in wlines} == {
        json.loads(ln)["term"] for ln in plines}


def test_cli_convert_jsonl_to_corpus_and_build(ray_session, tmp_path, capsys):
    """JSONL shards -> corpus parquet -> index -> search, end to end;
    conversion is resumable (skip-if-done) and column-mappable."""
    import pyarrow.parquet as pq

    src = tmp_path / "jsonl"
    src.mkdir()
    shard0 = [
        {"repository": "org/alpha", "file": "a.py", "language": "python",
         "body": "merge sort routine for the index"},
        {"repository": "org/alpha", "file": "b.py",
         "body": "hash join probe build side"},       # no language -> default
        {"file": "c.py", "body": "bloom filter bits"},  # no repo -> ""
    ]
    (src / "s0.jsonl").write_text(
        "\n".join(json.dumps(r) for r in shard0) + "\nnot json at all\n")
    (src / "s1.jsonl").write_text(json.dumps(
        {"repository": "org/beta", "file": "d.py",
         "body": "vectorized scan kernel"}) + "\n" +
        json.dumps({"repository": "org/beta"}) + "\n")   # no content -> drop

    out = str(tmp_path / "corpus")
    mp = ["--map", "repo=repository", "--map", "path=file",
          "--map", "lang=language", "--map", "content=body"]
    assert main(["convert", str(src), out] + mp) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"shards": 2, "rows": 4, "skipped_rows": 2,
                   "resumed_shards": 0, "out": out}

    t = pq.read_table(os.path.join(out, "s0.parquet"))
    assert t.column_names == ["repo", "path", "commit", "lang", "content"]
    assert t["lang"].to_pylist() == ["python", "unknown", "unknown"]
    assert t["repo"].to_pylist() == ["org/alpha", "org/alpha", ""]
    assert all(len(c) == 40 for c in t["commit"].to_pylist())

    # resumable: second run converts nothing, reports same totals
    assert main(["convert", str(src), out] + mp) == 0
    rep2 = json.loads(capsys.readouterr().out)
    assert rep2["resumed_shards"] == 2 and rep2["rows"] == 4

    # the converted corpus is a first-class build input
    idx = str(tmp_path / "jidx")
    assert main(["build", out, idx, "--partition-rows", "8"]) == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["n_docs"] == 4
    assert main(["search", idx, "merge sort", "-k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["repo"] == "org/alpha"


def test_cli_snapshot_restore_round_trip(ray_session, small_corpus_dir,
                                         tmp_path, capsys):
    import json as _json
    import os
    import shutil

    from astrologer_ray.cli import main
    from astrologer_ray.pipelines.snapshot import verify_snapshot
    from astrologer_ray.state.searcher import Searcher

    idx = str(tmp_path / "idx")
    snap = str(tmp_path / "snap")
    back = str(tmp_path / "restored")
    assert main(["build", small_corpus_dir, idx, "--partition-rows", "64"]) == 0
    s = Searcher(idx)
    terms = [max(s.df, key=lambda t: s.df[t])]
    want = [(h["doc_id"], h["score"]) for h in s.search(terms, k=10)]

    assert main(["snapshot", idx, snap]) == 0
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["n_files"] > 0 and out["bytes"] > 0
    assert verify_snapshot(snap)["ok"]

    assert main(["restore", snap, back]) == 0
    got = [(h["doc_id"], h["score"])
           for h in Searcher(back).search(terms, k=10)]
    assert got == want

    # restore refuses to clobber without --force, replaces with it
    assert os.path.exists(back)
    import pytest as _pytest
    with _pytest.raises(RuntimeError, match="force"):
        main(["restore", snap, back])
    assert main(["restore", snap, back, "--force"]) == 0

    # a truncated snapshot file fails verification and blocks restore
    victim = next(
        os.path.join(r, f) for r, _d, fs in os.walk(snap) for f in fs
        if f.endswith(".parquet")
    )
    with open(victim, "ab") as fh:
        fh.truncate(os.path.getsize(victim) - 1)
    assert not verify_snapshot(snap)["ok"]
    with _pytest.raises(RuntimeError, match="verification"):
        main(["restore", snap, str(tmp_path / "x"), "--force"])

    # snapshot refuses a mid-build (_SUCCESS-less) index
    shutil.rmtree(snap)
    os.remove(os.path.join(idx, "_SUCCESS"))
    with _pytest.raises(RuntimeError, match="_SUCCESS"):
        main(["snapshot", idx, snap])


def test_cli_buckets_matches_reference_semantics(ray_session, tmp_path,
                                                 capsys):
    """`cli buckets` == the reference es-stats command: min-anchored
    fixed-step ranges, last `to` capped at max, each bucket counting
    from <= v < to (v == max outside every bucket, like ES range aggs
    over the reference's capped range list)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(9)
    seq = np.sort(rng.integers(1000, 4251, size=500)).astype(np.int64)
    seq[0], seq[-1] = 1000, 4250  # pin min/max
    p = str(tmp_path / "ledger.parquet")
    pq.write_table(pa.table({"seq": seq}), p)

    assert main(["buckets", p, "--col", "seq", "--step", "1000"]) == 0
    rows = [json.loads(ln) for ln in
            capsys.readouterr().out.strip().splitlines()]
    # reference range list: from=min; from<max; from+=step, to capped
    assert [(r["from"], r["to"]) for r in rows] == [
        (1000, 2000), (2000, 3000), (3000, 4000), (4000, 4250)]
    for r in rows:
        want = int(((seq >= r["from"]) & (seq < r["to"])).sum())
        assert r["doc_count"] == want
    # total check: every row except the max rows is counted exactly once
    assert sum(r["doc_count"] for r in rows) == int((seq < 4250).sum())

    # exact multiple of step: max row still excluded (reference loop
    # generates its last range as [max-step, max))
    seq2 = np.arange(0, 3001, dtype=np.int64)
    p2 = str(tmp_path / "ledger2.parquet")
    pq.write_table(pa.table({"seq": seq2}), p2)
    assert main(["buckets", p2, "--col", "seq", "--step", "1000"]) == 0
    rows = [json.loads(ln) for ln in
            capsys.readouterr().out.strip().splitlines()]
    assert [(r["from"], r["to"], r["doc_count"]) for r in rows] == [
        (0, 1000, 1000), (1000, 2000, 1000), (2000, 3000, 1000)]


def test_cli_msearch(ray_session, small_corpus_dir, tmp_path, capsys):
    import json

    from astrologer_ray.cli import main

    idx = str(tmp_path / "msidx")
    assert main(["build", small_corpus_dir, idx, "--partition-rows",
                 "64"]) == 0
    capsys.readouterr()
    nd = tmp_path / "bodies.ndjson"
    nd.write_text(
        json.dumps({"query": {"match": {"content": "index merge"}},
                    "size": 3}) + "\n" +
        json.dumps({"size": 0, "aggs": {"langs": {
            "terms": {"field": "lang", "size": 2}}}}) + "\n")
    assert main(["msearch", idx, str(nd), "--replicas", "2"]) == 0
    lines = [json.loads(ln) for ln in
             capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 2
    assert lines[0]["hits"]["hits"]  # body 1: real ranked hits
    assert lines[1]["aggregations"]["langs"]["buckets"]  # body 2: aggs
    # responses come back in request order: body 2 carried size 0
    assert lines[1]["hits"]["hits"] == []


def test_cli_count(ray_session, small_corpus_dir, tmp_path, capsys):
    import json

    from astrologer_ray.cli import main

    idx = str(tmp_path / "cntidx")
    assert main(["build", small_corpus_dir, idx, "--partition-rows",
                 "64"]) == 0
    capsys.readouterr()
    assert main(["count", idx]) == 0
    all_docs = json.loads(capsys.readouterr().out.strip())["count"]
    assert all_docs > 0
    assert main(["count", idx,
                 '{"query": {"match": {"content": "index"}}}']) == 0
    some = json.loads(capsys.readouterr().out.strip())["count"]
    assert 0 < some <= all_docs


def test_cli_msearch_sharded(ray_session, small_corpus_dir, tmp_path,
                             capsys):
    import json

    from astrologer_ray.cli import main
    from astrologer_ray.pipelines.build import build_index

    idx = str(tmp_path / "msidx2")
    # 64-doc chunks: the default 2**20-doc chunk would put the whole
    # corpus in one shard, and one shard's answer is not merged
    build_index(small_corpus_dir, idx, partition_rows=64, chunk_bits=6)
    nd = tmp_path / "bodies.ndjson"
    nd.write_text(json.dumps(
        {"query": {"match": {"content": "index merge"}}, "size": 3,
         "aggs": {"langs": {"terms": {"field": "lang", "size": 3}}}})
        + "\n")
    assert main(["msearch", idx, str(nd), "--replicas", "2",
                 "--sharded"]) == 0
    sharded = json.loads(capsys.readouterr().out.strip())
    assert main(["msearch", idx, str(nd), "--replicas", "2"]) == 0
    replicated = json.loads(capsys.readouterr().out.strip())
    # the sharded merge reproduces the full-searcher response (modulo
    # the terms truncation bound, absent on the replicated path)
    sharded["aggregations"]["langs"].pop("doc_count_error_upper_bound")
    assert sharded == replicated


def test_cli_analyze(capsys):
    # no index and no Ray session required
    assert main(["analyze", "getUserName from HTTP_server2"]) == 0
    out = json.loads(capsys.readouterr().out)
    toks = [t["token"] for t in out["tokens"]]
    from astrologer_ray.functions.tokenizer import tokenize
    assert toks == tokenize("getUserName from HTTP_server2", mode="code")
    assert [t["position"] for t in out["tokens"]] == list(range(len(toks)))

    assert main(["analyze", "Hello, World 42!", "--mode", "simple"]) == 0
    out = json.loads(capsys.readouterr().out)
    # simple mode carries exact offsets into the original text
    for t in out["tokens"]:
        assert ("Hello, World 42!".lower()
                [t["start_offset"]:t["end_offset"]] == t["token"])
    assert [t["token"] for t in out["tokens"]] == ["hello", "world", "42"]


def test_cli_search_template_and_rank_eval(ray_session, small_corpus_dir,
                                           tmp_path, capsys):
    import json

    from astrologer_ray.cli import main

    idx = str(tmp_path / "tplidx")
    assert main(["build", small_corpus_dir, idx, "--partition-rows",
                 "64"]) == 0
    capsys.readouterr()
    tpl = json.dumps({
        "source": {"query": {"match": {"content": "{{q}}"}},
                   "size": "{{k}}"},
        "params": {"q": "index merge", "k": 4},
    })
    assert main(["search", idx, tpl, "--template"]) == 0
    tout = json.loads(capsys.readouterr().out.strip())
    assert main(["search", idx,
                 '{"query": {"match": {"content": "index merge"}},'
                 ' "size": 4}', "--dsl"]) == 0
    dout = json.loads(capsys.readouterr().out.strip())
    assert tout["hits"] == dout["hits"]

    hits = [h["_id"] for h in dout["hits"]["hits"]]
    body = {
        "requests": [{
            "id": "q1",
            "request": {"query": {"match": {"content": "index merge"}}},
            "ratings": [{"_id": hits[0], "rating": 2}],
        }],
        "metric": {"precision": {"k": 4}},
    }
    f = str(tmp_path / "rank_eval.json")
    with open(f, "w") as fh:
        json.dump(body, fh)
    assert main(["rank-eval", idx, f]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["details"]["q1"]["metric_score"] == 1 / len(hits)
    assert out["metric_score"] == out["details"]["q1"]["metric_score"]


def test_cli_field_caps_mapping_validate(ray_session, small_corpus_dir,
                                         tmp_path, capsys):
    import json

    from astrologer_ray.cli import main

    idx = str(tmp_path / "fcidx")
    assert main(["build", small_corpus_dir, idx, "--partition-rows",
                 "64"]) == 0
    capsys.readouterr()
    assert main(["field-caps", idx, "--fields", "content,d*"]) == 0
    caps = json.loads(capsys.readouterr().out.strip())["fields"]
    assert "content" in caps and "dl" in caps
    assert main(["mapping", idx]) == 0
    props = json.loads(capsys.readouterr().out.strip())["mappings"][
        "properties"]
    assert props["content"]["index_options"] == "freqs"  # no positions
    assert main(["validate", idx,
                 '{"query": {"match": {"content": "x"}}}',
                 "--explain"]) == 0
    assert json.loads(capsys.readouterr().out.strip())["valid"] is True


def test_cli_termvectors(ray_session, small_corpus_dir, tmp_path, capsys):
    import json

    from astrologer_ray.cli import main
    from astrologer_ray.functions.tokenizer import tokenize

    idx = str(tmp_path / "tvidx")
    assert main(["build", small_corpus_dir, idx, "--partition-rows",
                 "64"]) == 0
    capsys.readouterr()
    # artificial doc: tf/positions are the analyzer's stream
    assert main(["termvectors", idx, "--doc", "merge index merge"]) == 0
    tv = json.loads(capsys.readouterr().out.strip())
    terms = tv["term_vectors"]["content"]["terms"]
    assert terms["merge"]["term_freq"] == 2
    assert [p["position"] for p in terms["merge"]["tokens"]] == [0, 2]
    assert tv["term_vectors"]["content"]["field_statistics"]["doc_count"] > 0
    # stored doc re-analyzed from the corpus (_source store), with stats
    assert main(["termvectors", idx, "0", "--corpus", small_corpus_dir,
                 "--term-statistics"]) == 0
    tv0 = json.loads(capsys.readouterr().out.strip())
    assert tv0["found"] and tv0["_id"] == 0
    for t, e in tv0["term_vectors"]["content"]["terms"].items():
        assert e["doc_freq"] >= 1 and e["ttf"] >= e["term_freq"]
    # missing both sources is a usage error
    assert main(["termvectors", idx]) == 2
