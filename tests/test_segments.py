"""Delta-segment append/compact (pipelines/segments.py): exactness vs a
full rebuild, the monotone gate, crash resume, and multi-generation serving.

The reference's ingest appends ledgers in increasing sequence order onto a
live index (/root/reference/commands/ingest.go:31-52); the exactness bar
here is stronger than ES refresh semantics: rank- AND score-identical BM25
against a single-shot build of the full corpus.
"""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

VOCAB = [f"w{i}" for i in range(60)] + ["mergeSort", "buildIndex", "fooBar"]


def _write_part(path: str, lo: int, hi: int, seed: int = 7) -> None:
    rng = np.random.default_rng(seed + lo)
    rows = []
    for i in range(lo, hi):
        n = int(rng.integers(3, 40))
        rows.append({
            "repo": f"r{i:06d}", "path": f"src/f{i}.py", "commit": "c0",
            "lang": ["py", "go", "rs"][i % 3],
            "content": " ".join(rng.choice(VOCAB, size=n)),
        })
    pq.write_table(pa.Table.from_pylist(rows), path, row_group_size=100)


QUERIES = [["w1"], ["w1", "w2"], ["mergesort", "buildindex"],
           ["merge", "sort", "w5"], ["foo", "bar", "w10", "w11"]]


def _hits(searcher, q, **kw):
    return [(h["doc_id"], round(h["score"], 10))
            for h in searcher.search(q, k=12, **kw)]


@pytest.fixture(scope="module")
def seg_env(ray_session, tmp_path_factory):
    """Base index over part-000, one appended segment over part-001, and a
    single-shot full build for comparison."""
    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import append_segment

    d = tmp_path_factory.mktemp("segcorpus")
    f0, f1 = str(d / "part-000.parquet"), str(d / "part-001.parquet")
    _write_part(f0, 0, 400)
    _write_part(f1, 400, 600)
    idx = str(d / "idx")
    idx_full = str(d / "idx_full")
    kw = dict(mode="code", chunk_bits=8, partition_rows=100,
              keyword_fields={"lang": "lang"})
    build_index([f0], idx, **kw)
    out = append_segment([f0, f1], idx, partition_rows=100)
    build_index([f0, f1], idx_full, **kw)
    return {"f0": f0, "f1": f1, "idx": idx, "idx_full": idx_full,
            "append_out": out, "kw": kw}


def test_append_reports_segment(seg_env):
    out = seg_env["append_out"]
    assert out["appended"] == 200
    assert out["n_docs"] == 600
    assert out["n_segments"] == 1
    assert out["segment"] == "seg-000001"


def test_append_rank_and_score_identical(seg_env):
    from astrologer_ray.state.searcher import Searcher

    sa = Searcher(seg_env["idx"])
    sf = Searcher(seg_env["idx_full"])
    assert sa.N == sf.N == 600
    assert sa.avgdl == pytest.approx(sf.avgdl, abs=1e-12)
    assert sa.df == sf.df  # dictionary sums across generations
    for q in QUERIES:
        # taat is dense; wand runs the pruned MaxScore path, whose term
        # bounds come from weights decoded under the combined stats
        assert _hits(sa, q, strategy="taat") == _hits(sf, q, strategy="taat")
        assert _hits(sa, q, strategy="wand") == _hits(sf, q, strategy="wand")


def test_append_filters_and_counts(seg_env):
    from astrologer_ray.state.searcher import Searcher

    sa = Searcher(seg_env["idx"])
    sf = Searcher(seg_env["idx_full"])
    f = {"term": {"lang": "go"}}
    assert sa.count(f) == sf.count(f) == 200
    kf = {"field_term": {"lang": "go"}}  # keyword-field postings span segs
    assert sa.count(kf) == sf.count(kf) == 200
    assert _hits(sa, ["w3", "w4"], filter=f) == _hits(sf, ["w3", "w4"], filter=f)


def test_second_append_is_noop(seg_env):
    from astrologer_ray.pipelines.segments import append_segment

    out = append_segment([seg_env["f0"], seg_env["f1"]], seg_env["idx"],
                         partition_rows=100)
    assert out["appended"] == 0
    assert out["n_segments"] == 1


def test_sharded_pool_spans_segments(seg_env):
    from astrologer_ray.state.pool import ShardedSearchPool

    pool = ShardedSearchPool(seg_env["idx"], n_actors=3)
    from astrologer_ray.state.searcher import Searcher

    sf = Searcher(seg_env["idx_full"])
    for q in QUERIES[:3]:
        got = [(h["doc_id"], round(h["score"], 10)) for h in pool.search(q, k=12)]
        assert got == _hits(sf, q)


def test_multi_generation_chain(ray_session, tmp_path):
    """Two successive appends: three generations, chained avgdl rescaling."""
    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import append_segment, combined_stats
    from astrologer_ray.state.searcher import Searcher

    files = []
    for j, (lo, hi) in enumerate([(0, 150), (150, 260), (260, 420)]):
        p = str(tmp_path / f"part-{j:03d}.parquet")
        _write_part(p, lo, hi, seed=11)
        files.append(p)
    idx, idx_full = str(tmp_path / "idx"), str(tmp_path / "full")
    build_index(files[:1], idx, mode="code", chunk_bits=8, partition_rows=100)
    append_segment(files[:2], idx, partition_rows=100)
    append_segment(files, idx, partition_rows=100)
    assert combined_stats(idx)["n_segments"] == 2
    build_index(files, idx_full, mode="code", chunk_bits=8, partition_rows=100)
    sa, sf = Searcher(idx), Searcher(idx_full)
    for q in QUERIES:
        assert _hits(sa, q, strategy="wand") == _hits(sf, q, strategy="wand")


def test_non_monotone_append_rejected(ray_session, tmp_path):
    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import (
        NonMonotoneAppendError,
        append_segment,
        segment_dirs,
    )

    hi = str(tmp_path / "part-000.parquet")  # later keys FIRST
    lo = str(tmp_path / "part-001.parquet")
    _write_part(hi, 300, 400)
    _write_part(lo, 0, 100)
    idx = str(tmp_path / "idx")
    build_index([hi], idx, mode="code", chunk_bits=8, partition_rows=100)
    with pytest.raises(NonMonotoneAppendError):
        append_segment([hi, lo], idx, partition_rows=100)
    # the aborted segment must not be left behind
    assert segment_dirs(idx) == []


def test_crashed_append_is_adopted(ray_session, tmp_path):
    """Partitions tokenized by a crashed append (no _SUCCESS, no claim) are
    adopted into the next append; a pending segment dir is wiped."""
    from astrologer_ray.pipelines.build import _tokenize_stage, build_index
    from astrologer_ray.pipelines.segments import append_segment
    from astrologer_ray.stages.spimi import plan_partitions
    from astrologer_ray.state.searcher import Searcher

    f0, f1 = str(tmp_path / "part-000.parquet"), str(tmp_path / "part-001.parquet")
    _write_part(f0, 0, 200)
    _write_part(f1, 200, 300)
    idx = str(tmp_path / "idx")
    build_index([f0], idx, mode="code", chunk_bits=8, partition_rows=100)
    # a no-op append persists the base claims — as any real first append
    # does BEFORE tokenizing (crash safety depends on this ordering)
    assert append_segment([f0], idx, partition_rows=100)["appended"] == 0
    assert os.path.exists(os.path.join(idx, "segments", "claims.json"))

    # simulate the crash: stage 1 of the append ran, nothing else — the
    # partials exist but no claim and no _SUCCESS-ed segment covers them
    meta = json.load(open(os.path.join(idx, "stats", "meta.json")))
    units = plan_partitions([f0, f1], target_rows=100)
    new_units = [u for u in units if u["file"] == f1]
    _tokenize_stage(new_units, os.path.join(idx, "partials"), mode="code",
                    column_map=None, key_cols=None,
                    n_buckets=int(meta["n_buckets"]), keyword_fields=None,
                    positions=False, retries=1)
    os.makedirs(os.path.join(idx, "segments", "seg-000001"), exist_ok=True)

    out = append_segment([f0, f1], idx, partition_rows=100)
    assert out["appended"] == 100
    assert os.path.exists(
        os.path.join(idx, "segments", "seg-000001", "_SUCCESS"))
    s = Searcher(idx)
    assert s.N == 300


def test_compact_folds_segments(seg_env, tmp_path):
    import shutil

    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import (
        append_segment,
        compact_index,
        segment_dirs,
    )
    from astrologer_ray.state.searcher import Searcher

    # private copy — compaction mutates the index
    idx = str(tmp_path / "idx")
    shutil.copytree(seg_env["idx"], idx)
    assert len(segment_dirs(idx)) == 1
    compact_index([seg_env["f0"], seg_env["f1"]], idx, partition_rows=100)
    assert segment_dirs(idx) == []
    sa, sf = Searcher(idx), Searcher(seg_env["idx_full"])
    for q in QUERIES:
        assert _hits(sa, q) == _hits(sf, q)
    # appending after compaction still works (claims were reset)
    out = append_segment([seg_env["f0"], seg_env["f1"]], idx,
                         partition_rows=100)
    assert out["appended"] == 0


def test_cli_ingest_append(seg_env, tmp_path, capsys):
    import shutil

    from astrologer_ray.cli import main

    d = str(tmp_path / "corpus")
    os.makedirs(d)
    shutil.copy(seg_env["f0"], os.path.join(d, "part-000.parquet"))
    idx = str(tmp_path / "idx")
    rc = main(["build", d, idx, "--partition-rows", "100"])
    assert rc == 0
    shutil.copy(seg_env["f1"], os.path.join(d, "part-001.parquet"))
    rc = main(["ingest", d, idx, "--partition-rows", "100", "--append"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["appended"] == 200 and out["n_segments"] == 1


def test_plain_rebuild_folds_segments(ray_session, tmp_path):
    """A global rebuild (build_index resume=True, what plain `ingest` runs)
    derives the base from ALL partials — segments must be wiped with the
    other derived artifacts or their docs would double-count."""
    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import append_segment, segment_dirs
    from astrologer_ray.state.searcher import Searcher

    f0, f1 = str(tmp_path / "part-000.parquet"), str(tmp_path / "part-001.parquet")
    _write_part(f0, 0, 200)
    _write_part(f1, 200, 300)
    idx = str(tmp_path / "idx")
    build_index([f0], idx, mode="code", chunk_bits=8, partition_rows=100)
    append_segment([f0, f1], idx, partition_rows=100)
    assert len(segment_dirs(idx)) == 1
    build_index([f0, f1], idx, mode="code", chunk_bits=8, partition_rows=100,
                resume=True)
    assert segment_dirs(idx) == []
    assert Searcher(idx).N == 300


def test_cli_ingest_auto_compact(ray_session, tmp_path, capsys):
    """--append --auto-compact N folds segments once N exist; search
    results stay identical to a single-shot full build."""
    import json

    from astrologer_ray.cli import main
    from astrologer_ray.pipelines.segments import segment_dirs
    from astrologer_ray.state.searcher import Searcher

    d = tmp_path
    f0, f1, f2 = (str(d / f"part-{i:03d}.parquet") for i in range(3))
    _write_part(f0, 0, 300)
    idx = str(d / "idx")
    assert main(["build", f0, idx, "--partition-rows", "100"]) == 0
    capsys.readouterr()

    _write_part(f1, 300, 450)
    assert main(["ingest", d.as_posix(), idx, "--partition-rows", "100",
                 "--append", "--auto-compact", "2"]) == 0
    out1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out1["appended"] == 150 and "auto_compacted" not in out1
    assert len(segment_dirs(idx)) == 1

    _write_part(f2, 450, 600)
    assert main(["ingest", d.as_posix(), idx, "--partition-rows", "100",
                 "--append", "--auto-compact", "2"]) == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2["appended"] == 150 and out2.get("auto_compacted") is True
    assert segment_dirs(idx) == []

    idx_full = str(d / "idx_full")
    assert main(["build", d.as_posix(), idx_full,
                 "--partition-rows", "100"]) == 0
    capsys.readouterr()
    a, b = Searcher(idx), Searcher(idx_full)
    assert a.N == b.N == 600
    for q in QUERIES:
        assert _hits(a, q) == _hits(b, q)


def test_crash_between_success_and_claims_recovers(ray_session, tmp_path):
    """A crash AFTER a segment's _SUCCESS but BEFORE its claims row leaves
    a live segment whose pids look unclaimed. The next append must
    re-derive the row from the segment's own meta (``pids``) instead of
    re-adopting the pids into a new segment and wedging on the monotone
    gate."""
    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import (
        _claims_path,
        append_segment,
        segment_dirs,
    )
    from astrologer_ray.state.searcher import Searcher

    f0, f1, f2 = (str(tmp_path / f"part-{i:03d}.parquet") for i in range(3))
    _write_part(f0, 0, 200)
    _write_part(f1, 200, 300)
    idx = str(tmp_path / "idx")
    build_index([f0], idx, mode="code", chunk_bits=8, partition_rows=100)
    append_segment([f0, f1], idx, partition_rows=100)

    # simulate the crash window: drop the segment's claims row
    cp = _claims_path(idx)
    claims = json.load(open(cp))
    assert claims["segments"].pop("seg-000001") is not None
    json.dump(claims, open(cp, "w"))

    # next append (with genuinely new data) must reconcile and proceed
    _write_part(f2, 300, 400)
    out = append_segment([f0, f1, f2], idx, partition_rows=100)
    assert out["appended"] == 100
    assert len(segment_dirs(idx)) == 2
    claims = json.load(open(cp))
    assert set(claims["segments"]) == {"seg-000001", "seg-000002"}
    assert Searcher(idx).N == 400


def test_cli_ingest_inherits_mode(ray_session, tmp_path, capsys):
    """`ingest` without --mode on a --mode simple index must inherit
    'simple' from meta.json — not silently rebuild with the default code
    analyzer."""
    from astrologer_ray.cli import main
    from astrologer_ray.pipelines.build import load_meta

    d = str(tmp_path / "corpus")
    os.makedirs(d)
    _write_part(os.path.join(d, "part-000.parquet"), 0, 200)
    idx = str(tmp_path / "idx")
    assert main(["build", d, idx, "--mode", "simple",
                 "--partition-rows", "100"]) == 0
    assert load_meta(idx)["mode"] == "simple"
    _write_part(os.path.join(d, "part-001.parquet"), 200, 300)
    assert main(["ingest", d, idx, "--partition-rows", "100"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # only the new partition was rebuilt — a mode mismatch would have
    # invalidated every manifest and re-run all of them
    assert out["n_docs"] == 300
    assert len(out["rebuilt_partitions"]) == 1
    assert load_meta(idx)["mode"] == "simple"


def test_compact_drops_tombstones_when_ids_shift(ray_session, tmp_path):
    """If the corpus gained OUT-OF-ORDER docs since tombstones were written
    (append would reject them; compact rebuilds over everything), doc_ids
    reassign — compact must detect the shift and DROP the stash rather than
    mask the wrong documents."""
    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import (
        compact_index,
        delete_by_query,
    )
    from astrologer_ray.state.searcher import Searcher

    hi = str(tmp_path / "part-000.parquet")
    lo = str(tmp_path / "part-001.parquet")
    _write_part(hi, 300, 500)
    idx = str(tmp_path / "idx")
    build_index([hi], idx, mode="code", partition_rows=100)
    s0 = Searcher(idx)
    victim = sorted(s0.df.items(), key=lambda kv: -kv[1])[1][0]
    assert delete_by_query(idx, {"match": victim})["deleted"] > 0

    _write_part(lo, 0, 100)  # keys sort BEFORE the indexed range
    with pytest.warns(UserWarning, match="doc_ids may have shifted"):
        compact_index([hi, lo], idx, partition_rows=100)
    s1 = Searcher(idx)
    assert s1.N == 300
    assert s1.deleted is None  # stale tombstones dropped, none mis-applied


def test_compact_preserves_tombstones(ray_session, tmp_path):
    """delete_by_query then append + compact: monotone appends keep
    doc_ids stable, so tombstones must SURVIVE compaction (an ES merge
    never resurrects deleted docs)."""
    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import (
        append_segment,
        compact_index,
        delete_by_query,
        segment_dirs,
    )
    from astrologer_ray.state.searcher import Searcher

    d = tmp_path
    f0, f1 = str(d / "part-000.parquet"), str(d / "part-001.parquet")
    _write_part(f0, 0, 300)
    idx = str(d / "idx")
    build_index([f0], idx, mode="code", partition_rows=100)
    s0 = Searcher(idx)
    victim = sorted(s0.df.items(), key=lambda kv: -kv[1])[1][0]
    out = delete_by_query(idx, {"match": victim})
    assert out["deleted"] > 0

    _write_part(f1, 300, 450)
    append_segment([f0, f1], idx, partition_rows=100)
    s1 = Searcher(idx)
    # deletes still masked after append (doc ids of base unchanged)
    base_victims = {h["doc_id"] for h in s0.search([victim], k=300)}
    assert not base_victims & {h["doc_id"] for h in s1.search([victim], k=450)}

    compact_index([f0, f1], idx, partition_rows=100)
    assert segment_dirs(idx) == []
    s2 = Searcher(idx)
    assert s2.deleted is not None
    assert not base_victims & {h["doc_id"] for h in s2.search([victim], k=450)}
    assert s2.count() == s2.N - len(s2.deleted)


# ---- small appends run in process; larger ones on Ray Data ---------------
# The two executors must write the same segment. A path is chosen by size
# alone (adopted rows <= partition_rows), so each path's reference is the
# same append on a base built with another partition_rows: doc ids, chunk
# ids and buckets do not depend on the partition plan.

TAIL_RANGES = [(0, 200), (200, 300), (300, 600)]


def _segment_tables(seg_dir: str) -> dict:
    """A segment's decoded postings, dict and docs tables in a canonical
    order. Docs drop ``lrow``: it names the stage-1 partition row, which
    the partition plan decides."""
    from astrologer_ray.functions.codec import decode_chunk

    def read(sub: str) -> pa.Table:
        files = sorted(
            os.path.join(seg_dir, sub, f)
            for f in os.listdir(os.path.join(seg_dir, sub))
            if f.endswith(".parquet")
        )
        return pa.concat_tables(pq.read_table(f) for f in files)

    post = read("postings").sort_by([("term", "ascending"),
                                     ("chunk_id", "ascending")])
    decoded = [
        (r["term"], r["chunk_id"], *(a.tolist() for a in decode_chunk(r)))
        for r in post.to_pylist()
    ]
    docs = read("docs")
    return {
        "postings": post,
        "decoded": decoded,
        "dict": read("dict").sort_by("term"),
        "docs": docs.drop_columns(["lrow"]).sort_by("doc_id"),
        "in_process": json.load(
            open(os.path.join(seg_dir, "stats", "meta.json"))).get("in_process"),
    }


def _assert_same_segment(a: dict, b: dict) -> None:
    for name in ("decoded", "postings", "dict", "docs"):
        assert a[name] == b[name], name


@pytest.fixture(scope="module")
def tail_env(ray_session, tmp_path_factory):
    """Base over part-000 (200 rows), then two tail appends: part-001
    (100 rows) and part-002 (300 rows), 50-row row groups. Per
    ``partition_rows``: 100 -> in process, then Ray Data (3 units);
    50 -> Ray Data (2 units); 300 -> in process twice."""
    import shutil

    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import append_segment

    d = tmp_path_factory.mktemp("tailcorpus")
    files = []
    for j, (lo, hi) in enumerate(TAIL_RANGES):
        p = str(d / f"part-{j:03d}.parquet")
        _write_part(p, lo, hi, seed=23)
        pq.write_table(pq.read_table(p), p, row_group_size=50)
        files.append(p)
    env = {"files": files, "dir": d}
    for rows in (100, 50, 300):
        idx = str(d / f"idx{rows}")
        build_index(files[:1], idx, mode="code", chunk_bits=8,
                    partition_rows=rows)
        if rows == 100:
            env["base100"] = str(d / "base100")
            shutil.copytree(idx, env["base100"])
        env[f"out{rows}"] = [append_segment(files[:2], idx, partition_rows=rows)]
        if rows != 50:
            env[f"out{rows}"].append(
                append_segment(files, idx, partition_rows=rows))
        env[f"idx{rows}"] = idx
    env["full"] = str(d / "full")
    build_index(files, env["full"], mode="code", chunk_bits=8,
                partition_rows=100)
    return env


def _seg(idx: str, n: int) -> dict:
    return _segment_tables(os.path.join(idx, "segments", f"seg-{n:06d}"))


def test_in_process_append_matches_ray_data_append(tail_env):
    """Each path's segment equals the other path's segment of the same
    rows: decoded postings, encoded chunks, dictionary and docs."""
    e = tail_env
    assert [o["appended"] for o in e["out100"]] == [100, 300]
    assert [o["segment_meta"]["in_process"] for o in e["out100"]] == [True, False]
    assert [o["segment_meta"]["in_process"] for o in e["out50"]] == [False]
    assert [o["segment_meta"]["in_process"] for o in e["out300"]] == [True, True]

    small_in, small_ray = _seg(e["idx100"], 1), _seg(e["idx50"], 1)
    assert (small_in["in_process"], small_ray["in_process"]) == (True, False)
    _assert_same_segment(small_in, small_ray)
    assert len(small_in["decoded"]) > 0

    big_ray, big_in = _seg(e["idx100"], 2), _seg(e["idx300"], 2)
    assert (big_ray["in_process"], big_in["in_process"]) == (False, True)
    _assert_same_segment(big_ray, big_in)


def test_in_process_appends_match_oracle_and_full_build(tail_env):
    """Search over base + segments equals brute-force BM25 on the combined
    contents, and a chain of two in-process appends equals one full
    build of the same files."""
    from astrologer_ray.state.bm25 import oracle_topk
    from astrologer_ray.state.searcher import Searcher

    e = tail_env
    contents = []
    for f in e["files"]:
        contents += pq.read_table(f, columns=["content"]).column(
            "content").to_pylist()
    full = Searcher(e["full"])
    for name in ("idx100", "idx300"):
        s = Searcher(e[name])
        assert s.N == len(contents) == 600
        for q in QUERIES:
            want = oracle_topk(contents, q, k=12)
            got = [(h["doc_id"], h["score"]) for h in s.search(q, k=12)]
            assert got == want, (name, q)
    chain = Searcher(e["idx300"])
    assert chain.df == full.df
    for q in QUERIES:
        for strategy in ("taat", "wand"):
            assert (_hits(chain, q, strategy=strategy)
                    == _hits(full, q, strategy=strategy))


def _postings_files(seg_dir: str) -> list[str]:
    return sorted(f for f in os.listdir(os.path.join(seg_dir, "postings"))
                  if f.endswith(".parquet"))


def test_in_process_segment_is_one_sorted_postings_file(tail_env):
    """An in-process append writes its segment's postings as one
    (term, last_doc_id)-sorted file with one merge manifest; a Ray Data
    append writes one file per bucket; check_index passes on both."""
    from astrologer_ray.pipelines.integrity import check_index

    e = tail_env
    segs = {(name, n): os.path.join(e[name], "segments", f"seg-{n:06d}")
            for name, n in (("idx100", 1), ("idx100", 2), ("idx300", 1),
                            ("idx300", 2))}
    for (name, n), seg in segs.items():
        if _seg(e[name], n)["in_process"]:
            assert _postings_files(seg) == ["post-all.parquet"]
            assert sorted(f for f in os.listdir(os.path.join(seg, "postings"))
                          if f.endswith(".json")) == ["merge-manifest-all.json"]
            t = pq.read_table(os.path.join(seg, "postings", "post-all.parquet"))
            assert t.num_rows > 0
            assert t.equals(t.sort_by([("term", "ascending"),
                                       ("last_doc_id", "ascending")]))
        else:
            assert len(_postings_files(seg)) > 1
            assert all(f.startswith("post-bucket-") for f in _postings_files(seg))
    for name in ("idx100", "idx300"):
        res = check_index(e[name])
        assert res["ok"], res["errors"]


def test_compact_after_in_process_appends_equals_full_build(tail_env, tmp_path):
    """Compacting a base plus two in-process segments gives the tables of
    a full build of the same files."""
    import shutil

    from astrologer_ray.pipelines.segments import compact_index, segment_dirs

    e = tail_env
    idx = str(tmp_path / "idx")
    shutil.copytree(e["idx300"], idx)
    compact_index(e["files"], idx, partition_rows=300)
    assert segment_dirs(idx) == []
    _assert_same_segment(_segment_tables(idx), _segment_tables(e["full"]))


def test_in_process_append_failure_is_atomic(tail_env, tmp_path, monkeypatch):
    """A merge that raises inside an in-process append reaches the caller
    and commits nothing (no _SUCCESS, claims unchanged); the next call
    wipes the pending segment and writes the same segment as a clean
    append."""
    import shutil

    from astrologer_ray.pipelines import build
    from astrologer_ray.pipelines.segments import (
        _claims_path,
        append_segment,
        segment_dirs,
    )

    e = tail_env
    idx = str(tmp_path / "idx")
    shutil.copytree(e["base100"], idx)
    files = e["files"][:2]
    assert append_segment(files[:1], idx, partition_rows=100)["appended"] == 0
    claims_before = open(_claims_path(idx)).read()

    real = build.merge_bucket_table
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected merge failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(build, "merge_bucket_table", fail_once)
    with pytest.raises(RuntimeError, match="injected merge failure"):
        append_segment(files, idx, partition_rows=100)
    assert segment_dirs(idx) == []
    assert not os.path.exists(
        os.path.join(idx, "segments", "seg-000001", "_SUCCESS"))
    assert open(_claims_path(idx)).read() == claims_before

    out = append_segment(files, idx, partition_rows=100)
    assert out["appended"] == 100
    assert out["segment_meta"]["in_process"] is True
    _assert_same_segment(_seg(idx, 1), _seg(e["idx100"], 1))


def test_small_append_needs_no_ray(tail_env, tmp_path):
    """An in-process append makes no Ray call: run in a fresh interpreter
    that never initializes Ray, it appends the batch and leaves Ray
    uninitialized (ray.put, ray.data and cluster_resources would each
    start or require a session)."""
    import shutil
    import subprocess
    import sys

    e = tail_env
    idx = str(tmp_path / "idx")
    shutil.copytree(e["base100"], idx)
    code = (
        "import json, sys, ray\n"
        "from astrologer_ray.pipelines.segments import append_segment\n"
        "out = append_segment(json.loads(sys.argv[1]), sys.argv[2],"
        " partition_rows=100)\n"
        "print(json.dumps([out['appended'], ray.is_initialized()]))\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    res = subprocess.run(
        [sys.executable, "-c", code, json.dumps(e["files"][:2]), idx],
        capture_output=True, text=True, timeout=300, env=env, cwd=repo,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert json.loads(res.stdout.strip().splitlines()[-1]) == [100, False]
    _assert_same_segment(_seg(idx, 1), _seg(e["idx100"], 1))
