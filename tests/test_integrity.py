"""Index integrity checker (pipelines/integrity.py + `cli check`)."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from astrologer_ray.cli import main
from astrologer_ray.pipelines.build import build_index
from astrologer_ray.pipelines.integrity import check_index


@pytest.fixture(scope="module")
def built_index(ray_session, small_corpus_dir, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("intidx"))
    build_index(small_corpus_dir, idx, partition_rows=64, n_shards=4,
                chunk_bits=6)
    return idx


def test_clean_index_checks_ok(built_index):
    out = check_index(built_index, sample_chunks=4)
    assert out["ok"], out["errors"]
    assert out["generations"] == 1
    assert out["n_docs"] > 0 and out["n_postings"] > 0


def _write_part(path: str, lo: int, hi: int) -> None:
    import numpy as np

    rng = np.random.default_rng(11 + lo)
    vocab = [f"w{i}" for i in range(50)]
    rows = [{
        "repo": f"r{i:06d}", "path": f"src/f{i}.py", "commit": "c0",
        "lang": "py", "content": " ".join(
            rng.choice(vocab, size=int(rng.integers(3, 30)))),
    } for i in range(lo, hi)]
    pq.write_table(pa.Table.from_pylist(rows), path, row_group_size=100)


def test_multi_generation_checks_ok(ray_session, tmp_path):
    from astrologer_ray.pipelines.segments import append_segment

    d = tmp_path
    f0, f1 = str(d / "part-000.parquet"), str(d / "part-001.parquet")
    _write_part(f0, 0, 300)
    _write_part(f1, 300, 450)  # repo keys sort after f0's: monotone append
    idx = str(d / "segidx")
    build_index([f0], idx, partition_rows=100, n_shards=4, chunk_bits=6)
    append_segment([f0, f1], idx, partition_rows=100)
    out = check_index(idx, sample_chunks=4)
    assert out["ok"], out["errors"]
    assert out["generations"] == 2


def test_corruptions_are_detected(ray_session, small_corpus_dir, tmp_path):
    idx = str(tmp_path / "cidx")
    build_index(small_corpus_dir, idx, partition_rows=64, n_shards=4,
                chunk_bits=6)

    # 1) reverse one bucket's rows: breaks the sorted-flag contract (and,
    #    with >1 term in the bucket, term contiguity)
    bucket = sorted(glob.glob(os.path.join(idx, "postings", "*.parquet")))[0]
    t = pq.read_table(bucket)
    rev = t.take(pa.array(list(range(t.num_rows - 1, -1, -1))))
    pq.write_table(rev, bucket, compression="zstd")
    out = check_index(idx, sample_chunks=2)
    assert not out["ok"]
    assert any("sorted" in e for e in out["errors"])
    pq.write_table(t, bucket, compression="zstd")  # restore

    # 2) inflate one dictionary df: dictionary<->postings cross-check
    dfile = sorted(glob.glob(os.path.join(idx, "dict", "*.parquet")))[0]
    dt = pq.read_table(dfile)
    df_col = dt.column("df").to_pylist()
    df_col[0] += 1
    cols = {c: dt.column(c) for c in dt.column_names}
    cols["df"] = pa.array(df_col, type=dt.schema.field("df").type)
    pq.write_table(pa.table(cols), dfile)
    out = check_index(idx, sample_chunks=2)
    assert not out["ok"]
    assert any("df mismatch" in e for e in out["errors"])
    pq.write_table(dt, dfile)  # restore

    # 3) truncate the docs sidecar: dense-id + row-count violations
    docf = sorted(glob.glob(os.path.join(idx, "docs", "*.parquet")))[0]
    dd = pq.read_table(docf)
    pq.write_table(dd.slice(1), docf)
    out = check_index(idx, sample_chunks=2)
    assert not out["ok"]
    assert any("dense" in e or "n_docs" in e for e in out["errors"])
    pq.write_table(dd, docf)  # restore

    # 4) a negative or a null doc length: BM25 reads dl only from the
    #    sidecar, so each is flagged on its own
    dl = dd.column("dl").to_pylist()
    for bad in (-1 - dl[0], None):
        cols = {c: dd.column(c) for c in dd.column_names}
        cols["dl"] = pa.array([bad] + dl[1:], type=dd.schema.field("dl").type)
        pq.write_table(pa.table(cols), docf)
        out = check_index(idx, sample_chunks=2)
        assert not out["ok"]
        assert any("null or negative dl" in e for e in out["errors"]), bad
    pq.write_table(dd, docf)  # restore

    out = check_index(idx, sample_chunks=2)
    assert out["ok"], out["errors"]


def test_cli_check(built_index, capsys):
    assert main(["check", built_index, "--sample-chunks", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_corpus_reconciliation_ok_and_detects_drift(
        ray_session, small_corpus_dir, tmp_path, capsys):
    import shutil

    from astrologer_ray.pipelines.integrity import check_corpus

    # private corpus copy so the shared fixture is never mutated
    corpus = str(tmp_path / "corpus")
    shutil.copytree(small_corpus_dir, corpus)
    idx = str(tmp_path / "ridx")
    build_index(corpus, idx, partition_rows=64, n_shards=4, chunk_bits=6)

    out = check_corpus(idx, corpus, sample=64)
    assert out["ok"], out["errors"]
    assert out["sampled"] > 0 and out["found"] == out["sampled"]

    # CLI composition
    assert main(["check", idx, "--corpus", corpus,
                 "--corpus-sample", "64", "--sample-chunks", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["corpus"]["ok"] is True

    # drift: rewrite every content in one source file AFTER indexing
    f = sorted(glob.glob(os.path.join(corpus, "*.parquet")))[0]
    t = pq.read_table(f)
    cols = {c: t.column(c) for c in t.column_names}
    cols["content"] = pa.array(
        ["drifted " + (v or "") for v in t.column("content").to_pylist()])
    pq.write_table(pa.table(cols), f)
    out = check_corpus(idx, corpus, sample=2048)  # sample all: hit the file
    assert not out["ok"]
    assert any("sha256 mismatch" in e for e in out["errors"])

    # a deleted source file => sampled docs missing from the corpus
    os.remove(f)
    out = check_corpus(idx, corpus, sample=2048)
    assert not out["ok"]
    assert any("not found in corpus" in e for e in out["errors"])
