import glob
import hashlib
import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from astrologer_ray.pipelines.build import build_index, load_meta
from astrologer_ray.stages.spimi import KEY_SEP, plan_partitions


@pytest.fixture(scope="module")
def built_index(ray_session, small_corpus_dir, tmp_path_factory):
    index_dir = str(tmp_path_factory.mktemp("index"))
    meta = build_index(small_corpus_dir, index_dir, partition_rows=64, n_shards=4)
    return index_dir, meta, small_corpus_dir


def _read_source(corpus_dir):
    t = pq.read_table(sorted(glob.glob(corpus_dir + "/*.parquet")))
    return t


def test_plan_partitions_deterministic(small_corpus_dir):
    paths = sorted(glob.glob(small_corpus_dir + "/*.parquet"))
    u1 = plan_partitions(paths, target_rows=64)
    u2 = plan_partitions(paths, target_rows=64)
    assert u1 == u2
    assert sum(u["n_rows"] for u in u1) == _read_source(small_corpus_dir).num_rows


def test_docs_table_complete_and_sorted(built_index):
    index_dir, meta, corpus_dir = built_index
    src = _read_source(corpus_dir)
    docs = pq.read_table(glob.glob(index_dir + "/docs/*.parquet")).sort_by("doc_id")
    assert docs.num_rows == src.num_rows == meta["n_docs"]
    ids = docs.column("doc_id").to_numpy()
    np.testing.assert_array_equal(ids, np.arange(len(ids)))  # dense 0..N-1
    keys = docs.column("doc_key").to_pylist()
    assert keys == sorted(keys)  # doc_id order == doc_key order


def test_sha256_invariant(built_index):
    """BASELINE.json input_hint: per-row content sha256 equality vs source."""
    index_dir, _, corpus_dir = built_index
    src = _read_source(corpus_dir)
    want = {
        f"{r}{KEY_SEP}{p}{KEY_SEP}{c}": hashlib.sha256(t.encode()).hexdigest()
        for r, p, c, t in zip(
            src.column("repo").to_pylist(), src.column("path").to_pylist(),
            src.column("commit").to_pylist(), src.column("content").to_pylist(),
        )
    }
    docs = pq.read_table(glob.glob(index_dir + "/docs/*.parquet"))
    got = dict(zip(docs.column("doc_key").to_pylist(), docs.column("sha256").to_pylist()))
    assert got == want


def test_df_equals_posting_lengths(built_index):
    """dict df == total postings per term == sum over chunks (A8 invariant)."""
    index_dir, _, _ = built_index
    post = pq.read_table(glob.glob(index_dir + "/postings/*.parquet"),
                         columns=["term", "n", "chunk_id"])
    d = pq.read_table(glob.glob(index_dir + "/dict/*.parquet"))
    df_from_chunks = {}
    for t, n in zip(post.column("term").to_pylist(), post.column("n").to_pylist()):
        df_from_chunks[t] = df_from_chunks.get(t, 0) + n
    df_dict = dict(zip(d.column("term").to_pylist(), d.column("df").to_pylist()))
    assert df_dict == df_from_chunks


def test_postings_match_brute_force(built_index):
    """Decode every posting chunk; tf must equal the tokenizer's counts,
    and each doc's sidecar dl its token count."""
    from collections import Counter

    from astrologer_ray.functions.codec import decode_chunk
    from astrologer_ray.functions.tokenizer import token_counts

    index_dir, meta, corpus_dir = built_index
    docs = pq.read_table(glob.glob(index_dir + "/docs/*.parquet")).sort_by("doc_id")
    src = _read_source(corpus_dir)
    content_by_key = {
        f"{r}{KEY_SEP}{p}{KEY_SEP}{c}": t
        for r, p, c, t in zip(
            src.column("repo").to_pylist(), src.column("path").to_pylist(),
            src.column("commit").to_pylist(), src.column("content").to_pylist(),
        )
    }
    want: dict[tuple[str, int], int] = {}
    dls = {}
    for doc_id, key in zip(docs.column("doc_id").to_pylist(), docs.column("doc_key").to_pylist()):
        cnt = token_counts(content_by_key[key])
        dls[doc_id] = sum(cnt.values())
        for t, f in cnt.items():
            want[(t, doc_id)] = f

    got: dict[tuple[str, int], int] = {}
    post = pq.read_table(glob.glob(index_dir + "/postings/*.parquet"))
    for row in post.to_pylist():
        ids, tfs = decode_chunk(row)
        for i, tf in zip(ids, tfs):
            got[(row["term"], int(i))] = int(tf)
    assert got == want
    assert dict(zip(docs.column("doc_id").to_pylist(),
                    docs.column("dl").to_pylist())) == dls
    assert meta["n_postings"] == len(want)


def test_dl_stored_matches_docs(built_index):
    index_dir, meta, _ = built_index
    docs = pq.read_table(glob.glob(index_dir + "/docs/*.parquet"))
    assert meta["sum_dl"] == sum(docs.column("dl").to_pylist())
    assert meta["avgdl"] == meta["sum_dl"] / meta["n_docs"]
    # the sidecar is the one place doc lengths live: the keymap joins
    # postings to doc ids only, and nothing is encoded against avgdl
    for f in glob.glob(index_dir + "/keymap/*.parquet"):
        assert pq.read_schema(f).names == ["lrow", "doc_id"]
    assert "encode_avgdl" not in meta


def test_doc_id_assignment_parallelism_invariant(ray_session, small_corpus_dir, tmp_path):
    """doc_id = rank of doc_key, regardless of partitioning (FIXTURES F4)."""
    i1 = str(tmp_path / "i1")
    i2 = str(tmp_path / "i2")
    build_index(small_corpus_dir, i1, partition_rows=64, parallelism=2)
    build_index(small_corpus_dir, i2, partition_rows=200, parallelism=4)
    d1 = pq.read_table(glob.glob(i1 + "/docs/*.parquet"),
                       columns=["doc_id", "doc_key"]).sort_by("doc_id")
    d2 = pq.read_table(glob.glob(i2 + "/docs/*.parquet"),
                       columns=["doc_id", "doc_key"]).sort_by("doc_id")
    assert d1.equals(d2)


def test_resume_skips_completed_and_matches(ray_session, small_corpus_dir, tmp_path):
    """Delete one partition's partials; re-run rebuilds only it; final index
    logically identical to an unbroken build (FIXTURES F5)."""
    i1 = str(tmp_path / "full")
    i2 = str(tmp_path / "broken")
    build_index(small_corpus_dir, i1, partition_rows=64)
    build_index(small_corpus_dir, i2, partition_rows=64)

    # break partition 2 and resume
    for f in glob.glob(i2 + "/partials/*-000002.*"):
        os.remove(f)
    manifests_before = {
        f: os.path.getmtime(f)
        for f in glob.glob(i2 + "/partials/manifest-*.json")
    }
    build_index(small_corpus_dir, i2, partition_rows=64, resume=True)
    for f, mt in manifests_before.items():
        assert os.path.getmtime(f) == mt, f"{f} was rebuilt but should be skipped"

    sort_keys = {"docs": ["doc_id"], "postings": ["term", "chunk_id"], "dict": ["term"]}
    for sub, keys in sort_keys.items():
        t1 = pq.read_table(glob.glob(f"{i1}/{sub}/*.parquet"))
        t2 = pq.read_table(glob.glob(f"{i2}/{sub}/*.parquet"))
        cols = sorted(t1.column_names)
        s1 = t1.select(cols).sort_by([(k, "ascending") for k in keys])
        s2 = t2.select(cols).sort_by([(k, "ascending") for k in keys])
        assert s1.equals(s2), f"{sub} differs after resume"
    assert load_meta(i1)["n_postings"] == load_meta(i2)["n_postings"]


def test_partition_metrics_lineage(built_index):
    index_dir, meta, _ = built_index
    m = pq.read_table(index_dir + "/stats/partition_metrics.parquet")
    assert m.num_rows == meta["n_partitions"]
    assert sum(m.column("n_docs").to_pylist()) == meta["n_docs"]
    assert sum(m.column("n_postings").to_pylist()) == meta["n_postings"]
    assert os.path.exists(index_dir + "/_SUCCESS")
    assert json.load(open(index_dir + "/stats/meta.json"))["n_docs"] == meta["n_docs"]


def test_distributed_paths_equal_driver_paths(ray_session, small_corpus_dir, tmp_path):
    """driver_small_threshold=0 forces the distributed doc_id sort, keymap
    shuffle and dict groupby; results must equal the driver fast paths."""
    import glob as g

    i_small = str(tmp_path / "small")
    i_dist = str(tmp_path / "dist")
    build_index(small_corpus_dir, i_small, partition_rows=64)
    build_index(small_corpus_dir, i_dist, partition_rows=64,
                driver_small_threshold=0)
    for sub, keys in {"docs": ["doc_id"], "postings": ["term", "chunk_id"],
                      "dict": ["term"]}.items():
        t1 = pq.read_table(g.glob(f"{i_small}/{sub}/*.parquet"))
        t2 = pq.read_table(g.glob(f"{i_dist}/{sub}/*.parquet"))
        cols = sorted(t1.column_names)
        s1 = t1.select(cols).sort_by([(k, "ascending") for k in keys])
        s2 = t2.select(cols).sort_by([(k, "ascending") for k in keys])
        assert s1.equals(s2), f"{sub} differs between driver and distributed paths"


def test_resume_rebuilds_when_corpus_changes(ray_session, tmp_path):
    """A new corpus file that sorts mid-list shifts ordinal part_ids; stale
    manifests must NOT be trusted for the wrong units (incremental ingest
    correctness)."""
    from astrologer_ray.sources.corpus import generate_corpus

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, n_files=200, seed=3, rows_per_file=64,
                    include_edge_rows=False)
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, partition_rows=64)

    # inject a new file that sorts BEFORE the existing ones
    import pyarrow.parquet as pqq

    src = sorted(glob.glob(corpus + "/*.parquet"))[0]
    t = pqq.read_table(src).slice(0, 10)
    t = t.set_column(1, "path", [[f"aaa/new{i}.py" for i in range(10)]])
    pqq.write_table(t, corpus + "/corpus-00000-aaa.parquet")

    meta2 = build_index(corpus, idx, partition_rows=64, resume=True)

    # fresh build must equal the resumed build
    idx3 = str(tmp_path / "idx3")
    meta3 = build_index(corpus, idx3, partition_rows=64, resume=False)
    assert meta2["n_docs"] == meta3["n_docs"]
    assert meta2["n_postings"] == meta3["n_postings"]
    d2 = pq.read_table(glob.glob(idx + "/docs/*.parquet")).sort_by("doc_id")
    d3 = pq.read_table(glob.glob(idx3 + "/docs/*.parquet")).sort_by("doc_id")
    assert d2.column("doc_key").equals(d3.column("doc_key"))


def test_resume_rebuilds_on_mode_change(ray_session, tmp_path):
    """Manifests record the build config: rebuilding under a different
    tokenizer mode must NOT reuse partials tokenized under the old mode."""
    from astrologer_ray.sources.corpus import generate_corpus

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, n_files=100, seed=5, rows_per_file=64,
                    include_edge_rows=False)
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, partition_rows=64, mode="code")

    meta2 = build_index(corpus, idx, partition_rows=64, mode="simple", resume=True)
    assert meta2["mode"] == "simple"

    idx_fresh = str(tmp_path / "idx_fresh")
    meta3 = build_index(corpus, idx_fresh, partition_rows=64, mode="simple",
                        resume=False)
    assert meta2["n_postings"] == meta3["n_postings"]
    assert meta2["n_terms"] == meta3["n_terms"]
    p2 = pq.read_table(glob.glob(idx + "/postings/*.parquet")).sort_by(
        [("term", "ascending"), ("chunk_id", "ascending")])
    p3 = pq.read_table(glob.glob(idx_fresh + "/postings/*.parquet")).sort_by(
        [("term", "ascending"), ("chunk_id", "ascending")])
    assert p2.column("term").equals(p3.column("term"))


def test_resume_rebuilds_on_inplace_edit(ray_session, tmp_path):
    """An in-place corpus edit with unchanged row-group row counts must
    invalidate the unit (size/mtime identity in the manifest)."""
    import os
    import time

    from astrologer_ray.sources.corpus import generate_corpus

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, n_files=100, seed=6, rows_per_file=64,
                    include_edge_rows=False)
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, partition_rows=64)

    # rewrite one source file with edited content, same row structure
    src = sorted(glob.glob(corpus + "/*.parquet"))[0]
    t = pq.read_table(src)
    edited = ["EDITEDTOKEN " + (c or "") for c in t.column("content").to_pylist()]
    t = t.set_column(t.schema.get_field_index("content"), "content",
                     [edited])
    time.sleep(0.01)  # ensure mtime advances even on coarse clocks
    pq.write_table(t, src)
    os.utime(src)

    build_index(corpus, idx, partition_rows=64, resume=True)
    from astrologer_ray.state.searcher import Searcher

    s = Searcher(idx, load_docs=False)
    assert "editedtoken" in s.postings  # edited content made it into the index


def test_keymap_fallback_identical_postings(ray_session, small_corpus_dir, tmp_path):
    """Forcing the shared-storage keymap path (broadcast budget 0) must
    produce byte-identical postings to the broadcast path."""
    i1 = str(tmp_path / "bc")
    i2 = str(tmp_path / "fs")
    build_index(small_corpus_dir, i1, partition_rows=64)
    build_index(small_corpus_dir, i2, partition_rows=64, keymap_broadcast_rows=0)
    for sub in ("postings", "dict", "docs"):
        f1 = sorted(glob.glob(f"{i1}/{sub}/*.parquet"))
        f2 = sorted(glob.glob(f"{i2}/{sub}/*.parquet"))
        assert [os.path.basename(f) for f in f1] == [os.path.basename(f) for f in f2]
        t1 = pq.read_table(f1)
        t2 = pq.read_table(f2)
        assert t1.equals(t2), f"{sub} differs between keymap placements"


def test_multi_index_build_matches_separate_builds(ray_session, small_corpus_dir, tmp_path):
    """One-pass fan-out build == N separate builds, byte-identical."""
    from astrologer_ray.pipelines.build import build_multi_index

    specs = {
        "code": {"mode": "code", "n_shards": 4, "chunk_bits": 6},
        "simple_kw": {"mode": "simple", "n_shards": 4, "chunk_bits": 6,
                      "keyword_fields": {"lang": "lang"}},
    }
    root = str(tmp_path / "multi")
    metas = build_multi_index(small_corpus_dir, root, specs, partition_rows=64)
    assert set(metas) == {"code", "simple_kw"}

    for name, spec in specs.items():
        sep = str(tmp_path / f"sep_{name}")
        build_index(small_corpus_dir, sep, partition_rows=64, **spec)
        for sub in ("postings", "dict", "docs"):
            t1 = pq.read_table(sorted(glob.glob(f"{root}/{name}/{sub}/*.parquet")))
            t2 = pq.read_table(sorted(glob.glob(f"{sep}/{sub}/*.parquet")))
            assert t1.equals(t2), f"{name}/{sub} differs from separate build"

    # resume: a second multi build is a no-op for stage 1 (manifests intact)
    import json as _json
    m0 = sorted(glob.glob(f"{root}/code/partials/manifest-*.json"))
    before = [open(f).read() for f in m0]
    build_multi_index(small_corpus_dir, root, specs, partition_rows=64)
    after = [open(f).read() for f in m0]
    assert before == after


def test_write_stage_retries_application_errors(ray_session, small_corpus_dir, tmp_path):
    """A transiently-failing tokenize task must be retried by the write
    stage's retry config and complete idempotently (sink retry knob)."""
    import ray.data as rd

    from astrologer_ray.pipelines.build import _corpus_paths
    from astrologer_ray.stages.spimi import (
        completed_units,
        plan_partitions,
        tokenize_units,
    )

    marker = str(tmp_path / "failed_once")
    partials = str(tmp_path / "partials")
    units = plan_partitions(_corpus_paths(small_corpus_dir), 64)
    rd.from_items(units, override_num_blocks=len(units)).map_batches(
        tokenize_units,
        fn_kwargs={"partials_dir": partials, "fault_once": marker},
        batch_format="pyarrow",
        batch_size=1,
        num_cpus=1,
        max_retries=2,          # the same knob build_index(retries=) sets
        retry_exceptions=True,
    ).materialize()
    assert os.path.exists(marker)          # the failure really happened
    assert completed_units(partials, units) == {u["part_id"] for u in units}


def test_merge_bucket_table_vectorized_and_collision_paths():
    """merge_bucket_table: the vectorized path groups/sorts/salts exactly,
    and a forged 63-bit term_hash collision diverts to the per-term
    fallback producing the same rows as distinct hashes would."""
    import pyarrow as pa

    from astrologer_ray.functions.codec import decode_chunk
    from astrologer_ray.pipelines.build import merge_bucket_table
    from astrologer_ray.stages.spimi import POST_SCHEMA

    km_lrow = np.arange(40, dtype=np.int64)
    km_doc = (np.arange(40, dtype=np.int64) * 7) % 40  # scrambled doc ids

    def partial(term, thash, lrows, tfs):
        return pa.table(
            {"term": [term], "term_hash": [thash],
             "lrows": [list(map(int, lrows))], "tfs": [list(map(int, tfs))]},
            schema=POST_SCHEMA)

    # two partitions contribute rows for term "a"; one for "b"
    parts = [partial("a", 111, [0, 1, 2], [1, 2, 3]),
             partial("a", 111, [10, 11], [4, 5]),
             partial("b", 222, [3, 4, 5], [6, 7, 8])]
    t = pa.concat_tables(parts)
    out = merge_bucket_table(t, km_lrow, km_doc, shard=1, chunk_bits=20)
    assert out.column("shard").to_pylist() == [1] * out.num_rows
    by_term = {}
    for row in out.to_pylist():
        by_term.setdefault(row["term"], []).append(decode_chunk(row))
    a_ids = np.concatenate([x[0] for x in by_term["a"]])
    want_a = np.sort(km_doc[[0, 1, 2, 10, 11]])
    assert np.array_equal(a_ids, want_a)
    order = np.argsort(km_doc[[0, 1, 2, 10, 11]])
    want_tf = np.array([1, 2, 3, 4, 5])[order]
    assert np.array_equal(np.concatenate([x[1] for x in by_term["a"]]), want_tf)

    # forged collision: same hash, DIFFERENT terms -> fallback path; output
    # rows must equal the no-collision build of the same postings
    parts_c = [partial("x", 999, [0, 1], [1, 2]),
               partial("y", 999, [2, 3], [3, 4]),
               partial("x", 999, [10], [5])]
    out_c = merge_bucket_table(pa.concat_tables(parts_c), km_lrow, km_doc,
                               shard=0, chunk_bits=20)
    parts_n = [partial("x", 111, [0, 1], [1, 2]),
               partial("y", 333, [2, 3], [3, 4]),
               partial("x", 111, [10], [5])]
    out_n = merge_bucket_table(pa.concat_tables(parts_n), km_lrow, km_doc,
                               shard=0, chunk_bits=20)
    a = out_c.sort_by([("term", "ascending"), ("chunk_id", "ascending")])
    b = out_n.sort_by([("term", "ascending"), ("chunk_id", "ascending")])
    assert a.equals(b)

    # positional partials: the fallback's position streams match too
    def with_pos(part):
        tfs = part.column("tfs")[0].as_py()
        return part.append_column("poss", pa.array(
            [[p for f in tfs for p in range(1, 2 * f, 2)]],
            pa.list_(pa.int32())))

    out_c, out_n = (
        merge_bucket_table(pa.concat_tables(map(with_pos, ps)), km_lrow,
                           km_doc, shard=0, chunk_bits=20)
        .sort_by([("term", "ascending"), ("chunk_id", "ascending")])
        for ps in (parts_c, parts_n))
    assert "pos_bytes" in out_c.column_names
    assert out_c.equals(out_n)


def test_n_buckets_decoupled_from_n_shards(ray_session, small_corpus_dir, tmp_path):
    """A build with n_buckets = 4 x n_shards yields an identical search
    surface (same postings per term, same BM25 results, correct shard ids)
    and more merge units."""
    import glob as _glob

    from astrologer_ray.functions.codec import term_hash64
    from astrologer_ray.state.searcher import Searcher

    d1 = str(tmp_path / "idx_base")
    d2 = str(tmp_path / "idx_wide")
    m1 = build_index(small_corpus_dir, d1, partition_rows=64, n_shards=4)
    m2 = build_index(small_corpus_dir, d2, partition_rows=64, n_shards=4,
                     n_buckets=16)
    assert m1["n_buckets"] == 4 and m2["n_buckets"] == 16
    assert len(_glob.glob(d2 + "/postings/*.parquet")) > len(
        _glob.glob(d1 + "/postings/*.parquet"))
    s1, s2 = Searcher(d1), Searcher(d2)
    assert s1.N == s2.N and s1.df == s2.df
    # the build still writes term_hash64 % n_shards to the shard column,
    # which no serving path reads
    pt = pq.read_table(sorted(_glob.glob(d2 + "/postings/*.parquet")),
                       columns=["term", "shard"])
    for term, shard in zip(pt.column("term").to_pylist()[:500],
                           pt.column("shard").to_pylist()[:500]):
        assert shard == term_hash64(term) % 4, term
    terms = sorted(s1.df, key=s1.df.get, reverse=True)[:6]
    for i in range(0, len(terms), 2):
        q = terms[i:i + 2]
        h1 = [(h["doc_id"], round(h["score"], 10)) for h in s1.search(q, k=20)]
        h2 = [(h["doc_id"], round(h["score"], 10)) for h in s2.search(q, k=20)]
        assert h1 == h2, q


def test_multi_index_asymmetric_resume(ray_session, small_corpus_dir, tmp_path):
    """One index force-invalidated rebuilds ONLY its own partials: the
    other index's stage-1 files are untouched (content AND mtime), and the
    rebuilt index's final postings equal a fresh separate build."""
    from astrologer_ray.pipelines.build import build_multi_index

    specs = {
        "code": {"mode": "code", "n_shards": 4, "chunk_bits": 6},
        "simple": {"mode": "simple", "n_shards": 4, "chunk_bits": 6},
    }
    root = str(tmp_path / "multi")
    build_multi_index(small_corpus_dir, root, specs, partition_rows=64)

    code_files = sorted(glob.glob(f"{root}/code/partials/*"))
    code_stat = [(f, os.stat(f).st_mtime_ns, open(f, "rb").read()) for f in code_files]

    # force-invalidate 'simple' stage 1: drop two of its manifests
    simple_manifests = sorted(glob.glob(f"{root}/simple/partials/manifest-*.json"))
    assert len(simple_manifests) >= 2
    for f in simple_manifests[:2]:
        os.remove(f)

    build_multi_index(small_corpus_dir, root, specs, partition_rows=64)

    # 'code' partials byte- and mtime-identical (never re-tokenized)
    for f, mt, data in code_stat:
        assert os.stat(f).st_mtime_ns == mt, f"{f} was rewritten"
        assert open(f, "rb").read() == data
    # 'simple' manifests restored
    assert sorted(glob.glob(f"{root}/simple/partials/manifest-*.json")) == simple_manifests

    sep = str(tmp_path / "sep_simple")
    build_index(small_corpus_dir, sep, partition_rows=64, **specs["simple"])
    for sub in ("postings", "dict", "docs"):
        t1 = pq.read_table(sorted(glob.glob(f"{root}/simple/{sub}/*.parquet")))
        t2 = pq.read_table(sorted(glob.glob(f"{sep}/{sub}/*.parquet")))
        assert t1.equals(t2), f"simple/{sub} differs after asymmetric resume"


def test_assign_doc_ids_driver_overlapping_partials(tmp_path):
    """The disjoint-range concat shortcut must fall back to a global sort
    when partial files' key ranges interleave — the assignment (doc_id =
    rank of doc_key) is identical either way."""
    import pyarrow as pa

    from astrologer_ray.pipelines.build import _assign_doc_ids_driver

    pdir = tmp_path / "partials"
    pdir.mkdir()

    def _mk(name, keys, lrow0):
        t = pa.table({
            "doc_key": keys,
            "repo": ["r"] * len(keys),
            "path": keys,
            "commit": ["c"] * len(keys),
            "lang": ["py"] * len(keys),
            "dl": pa.array([1] * len(keys), pa.int64()),
            "sha256": ["x"] * len(keys),
            "lrow": pa.array(range(lrow0, lrow0 + len(keys)), pa.int64()),
        })
        pq.write_table(t, str(pdir / name))

    # interleaved ranges: a holds b,d,f — b holds a,c,e
    _mk("docs-000000.parquet", ["b", "d", "f"], 0)
    _mk("docs-000001.parquet", ["a", "c", "e"], 100)
    out_dir = tmp_path / "docs"
    st = _assign_doc_ids_driver(
        sorted(str(p) for p in pdir.iterdir()), str(out_dir))
    assert st["n_docs"] == 6
    t = pq.read_table(sorted(glob.glob(str(out_dir / "*.parquet"))))
    assert t.column("doc_key").to_pylist() == ["a", "b", "c", "d", "e", "f"]
    assert t.column("doc_id").to_pylist() == [0, 1, 2, 3, 4, 5]

    # duplicate keys across files must still raise through the fallback
    _mk("docs-000002.parquet", ["c"], 200)
    with pytest.raises(ValueError, match="duplicate doc_key"):
        _assign_doc_ids_driver(
            sorted(str(p) for p in pdir.iterdir()), str(tmp_path / "docs2"))
