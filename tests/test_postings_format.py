"""Postings format: a chunk row holds doc ids and tfs only; each doc's
length lives once, in the docs sidecar.

An index written in the earlier format carries, in every postings file, a
per-posting dl stream (``dl_bytes``) and five per-block list columns. It
must still serve through the same reader, alone and as the base under a
new-format segment, with answers bit-identical to the lean build and to
the brute-force oracle.
"""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from astrologer_ray.functions.codec import BLOCK, decode_chunk, varbyte_encode
from astrologer_ray.state.bm25 import oracle_topk

VOCAB = [f"w{i}" for i in range(40)] + ["mergeSort", "buildIndex"]
QUERIES = [["w0"], ["w0", "w1"], ["merge", "sort", "w7"],
           ["build", "index", "w3", "w30"]]
# the earlier format's columns beside the lean ones
OLD_LISTS = [("block_last", pa.int64()), ("block_ids_off", pa.int64()),
             ("block_tf_off", pa.int64()), ("block_dl_off", pa.int64()),
             ("block_max_tfn", pa.float64())]


def _rows(lo: int, hi: int) -> list[dict]:
    rng = np.random.default_rng(5 + lo)
    return [{
        "repo": f"r{i:06d}", "path": f"src/f{i}.py", "commit": "c0",
        "lang": "py",
        "content": " ".join(rng.choice(VOCAB, size=int(rng.integers(3, 60)))),
    } for i in range(lo, hi)]


def _nbytes(v: np.ndarray) -> np.ndarray:
    """LEB128 bytes per value."""
    v = np.asarray(v, dtype=np.uint64)
    return 1 + sum((v >= np.uint64(1 << (7 * k))).astype(np.int64)
                   for k in range(1, 10))


def _block_offsets(v: np.ndarray) -> list[int]:
    """Byte offset, in ``v``'s varbyte stream, of each block's first value."""
    c = np.concatenate(([0], np.cumsum(_nbytes(v))))
    return c[np.arange(0, len(v), BLOCK)].tolist()


def _to_old_format(index_dir: str) -> None:
    """Rewrite a lean index's postings as the earlier format wrote them:
    a dl stream and the per-block lists (skip ids, byte offsets and exact
    BM25 tf-norm maxima under the build's avgdl), and ``encode_avgdl``."""
    meta_p = os.path.join(index_dir, "stats", "meta.json")
    with open(meta_p) as f:
        meta = json.load(f)
    avgdl, k1, b = meta["avgdl"], meta["k1"], meta["b"]
    docs = pq.read_table(os.path.join(index_dir, "docs"),
                         columns=["doc_id", "dl"]).sort_by("doc_id")
    assert docs.column("doc_id").to_pylist() == list(range(docs.num_rows))
    dl_of = docs.column("dl").to_numpy()
    for p in glob.glob(os.path.join(index_dir, "postings", "*.parquet")):
        t = pq.read_table(p)
        extra = {name: [] for name in ["dl_bytes"] + [n for n, _ in OLD_LISTS]}
        for r in t.to_pylist():
            ids, tfs = decode_chunk(r)
            dls = dl_of[ids]
            starts = np.arange(0, len(ids), BLOCK)
            deltas = np.where(np.arange(len(ids)) % BLOCK == 0, ids,
                              np.diff(ids, prepend=0))
            tfn = tfs / (tfs + k1 * (1.0 - b + b * dls / avgdl))
            extra["dl_bytes"].append(varbyte_encode(dls))
            extra["block_last"].append(
                ids[np.minimum(starts + BLOCK, len(ids)) - 1].tolist())
            extra["block_ids_off"].append(_block_offsets(deltas))
            extra["block_tf_off"].append(_block_offsets(tfs))
            extra["block_dl_off"].append(_block_offsets(dls))
            extra["block_max_tfn"].append(
                np.maximum.reduceat(tfn, starts).tolist())
        at = t.schema.get_field_index("tf_bytes") + 1
        t = t.add_column(at, "dl_bytes", pa.array(extra["dl_bytes"], pa.binary()))
        for i, (name, typ) in enumerate(OLD_LISTS):
            t = t.add_column(at + 1 + i, name,
                             pa.array(extra[name], pa.list_(typ)))
        pq.write_table(t, p, compression="zstd")
    meta["encode_avgdl"] = avgdl
    with open(meta_p, "w") as f:
        json.dump(meta, f, indent=1)


@pytest.fixture(scope="module")
def formats(ray_session, tmp_path_factory):
    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import append_segment

    d = tmp_path_factory.mktemp("fmt")
    rows0, rows1 = _rows(0, 300), _rows(300, 420)
    f0, f1 = str(d / "part-000.parquet"), str(d / "part-001.parquet")
    pq.write_table(pa.Table.from_pylist(rows0), f0)
    pq.write_table(pa.Table.from_pylist(rows1), f1)
    lean = str(d / "lean")
    build_index([f0], lean, chunk_bits=6, partition_rows=100)
    old = str(d / "old")
    shutil.copytree(lean, old)
    _to_old_format(old)
    out = {"lean": lean, "old": old,
           "contents": [r["content"] for r in rows0],
           "contents_all": [r["content"] for r in rows0 + rows1]}
    for name in ("lean", "old"):
        seg = str(d / f"{name}_seg")
        shutil.copytree(out[name], seg)
        append_segment([f0, f1], seg, partition_rows=200)
        out[f"{name}_seg"] = seg
    return out


def _hits(s, terms, k=10, **kw):
    return [(h["doc_id"], h["score"]) for h in s.search(terms, k=k, **kw)]


def test_old_format_has_the_extra_columns(formats):
    p = sorted(glob.glob(os.path.join(formats["old"], "postings", "*.parquet")))[0]
    names = pq.read_schema(p).names
    assert "dl_bytes" in names and all(n in names for n, _ in OLD_LISTS)
    lean_p = p.replace(formats["old"], formats["lean"])
    assert "dl_bytes" not in pq.read_schema(lean_p).names
    assert os.path.getsize(lean_p) < os.path.getsize(p)


@pytest.mark.parametrize("base", ["", "_seg"])
def test_old_format_serves_bit_identical(formats, base):
    """Alone, and as the base under a new-format segment: the same hits
    and float scores as the lean build, and as the oracle."""
    from astrologer_ray.state.searcher import Searcher

    contents = formats["contents_all" if base else "contents"]
    old = Searcher(formats["old" + base])
    lean = Searcher(formats["lean" + base])
    assert old.N == lean.N == len(contents)
    np.testing.assert_array_equal(old.dl, lean.dl)
    # the old columns are skipped at read time, not loaded and ignored
    assert sorted(old.postings._blob) == sorted(lean.postings._blob) == [
        "ids_bytes", "tf_bytes"]
    # a doc-range shard reads only its slice of the sidecar's dl
    half = Searcher(formats["old" + base], load_docs=False,
                    chunk_range=(1, 1 << 20))
    assert half.doc_lo == 64 and len(half.dl) == half.n_local
    for terms in QUERIES:
        want = oracle_topk(contents, terms, k=10)
        assert _hits(old, terms) == _hits(lean, terms) == want, terms
        assert _hits(half, terms, k=len(contents)) == [
            h for h in oracle_topk(contents, terms, k=len(contents))
            if h[0] >= half.doc_lo]


def test_load_docs_shares_the_dl_array(formats):
    from astrologer_ray.state.searcher import Searcher

    s = Searcher(formats["lean_seg"], load_docs=True)
    assert s.doc_attrs["dl"] is s.dl


def test_old_format_checks_ok(formats):
    from astrologer_ray.pipelines.integrity import check_index

    for name in ("old", "old_seg"):
        out = check_index(formats[name], sample_chunks=4)
        assert out["ok"], out["errors"]
