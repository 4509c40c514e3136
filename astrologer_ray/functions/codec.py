"""Delta + varbyte posting-list codec with block-max metadata.

This is the index-storage half the reference delegated to Elasticsearch /
Lucene (the reference only ships NDJSON to ``_bulk``,
/root/reference/es/adapter.go:109-117); here it is built from scratch:

- **varbyte**: LEB128-style 7-bits-per-byte little-endian, continuation bit
  0x80. Encode and decode are pure numpy (no per-value Python loop).
- **chunk**: one (term, doc_id-range) slice of a posting list. Postings are
  doc_id-sorted; ids are delta-encoded with an *absolute restart at every
  block boundary* (block = 128 postings), so any block decodes independently.
  Three parallel varbyte streams per chunk: ids (delta), tf, dl. Per-block
  metadata: last doc_id (skip pointer), byte offsets into each stream, and
  the exact max BM25 tf-norm ``tf/(tf+k1*(1-b+b*dl/avgdl))`` (float64), so
  the block's score upper bound is ``idf*(k1+1)*block_max_tfn``. The
  searcher does not skip blocks: it decodes whole chunks and bounds a term
  by the max of its decoded weights (state/searcher.py).

Chunks are keyed by ``chunk_id = doc_id >> CHUNK_BITS`` (a doc_id *range*,
not a count), so the skew-salted shuffle ``groupby(term, chunk_id)`` produces
chunks that concatenate into the final posting list with no re-merge
(SURVEY §4 "salt hot terms"; here every term is range-salted uniformly).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

BLOCK = 128
CHUNK_BITS = 20  # doc_id range per chunk = 2^20


def term_hash64(term: str) -> int:
    """Stable 63-bit term hash (blake2b) — the shuffle/shard key everywhere.

    python's ``hash()`` is per-process salted; crc32 is too collision-prone
    at large vocabularies. 63 bits so it fits arrow/parquet int64."""
    import hashlib

    return int.from_bytes(
        hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest(), "big"
    ) >> 1


def _varbyte_core(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode ``v`` (uint64). Returns (byte array, per-value sizes).

    Builds an (n, kmax) byte matrix by byte POSITION — each column one
    full-width vector op, no gathers — then compresses valid bytes out with
    a single boolean mask (row-major ravel == little-endian byte order).
    Streams where every value fits 7 bits (typical tf) take the one-pass
    ``astype(uint8)`` fast path; typical posting streams have kmax <= 3 so
    the matrix temporary stays small.
    """
    n = len(v)
    nb = np.ones(n, dtype=np.int64)
    for k in range(1, 10):
        hi = v >= (np.uint64(1) << np.uint64(7 * k))
        if not hi.any():
            break
        nb += hi
    kmax = int(nb.max()) if n else 0
    if kmax <= 1:
        # every value < 128: the encoding is the value itself, no
        # continuation bits — one cast, no temporaries
        return v.astype(np.uint8), nb
    mat = np.empty((n, kmax), dtype=np.uint8)
    for k in range(kmax):
        col = ((v >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        col |= np.where(nb - 1 > k, np.uint8(0x80), np.uint8(0))
        mat[:, k] = col
    mask = np.arange(kmax) < nb[:, None]
    return mat[mask], nb


def varbyte_encode(values: np.ndarray) -> bytes:
    """Vectorized LEB128 encode of a non-negative int64/uint64 array."""
    v = np.asarray(values, dtype=np.uint64)
    if len(v) == 0:
        return b""
    out, _ = _varbyte_core(v)
    return out.tobytes()


def varbyte_decode(buf: bytes | np.ndarray, count: int | None = None) -> np.ndarray:
    """Vectorized LEB128 decode -> uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if len(b) == 0:
        return np.empty(0, dtype=np.uint64)
    is_end = (b & 0x80) == 0
    # group id per byte: 0-based index of the value this byte belongs to
    gid = np.concatenate(([0], np.cumsum(is_end)[:-1]))
    group_starts = np.concatenate(([0], np.flatnonzero(is_end)[:-1] + 1))
    within = np.arange(len(b), dtype=np.int64) - group_starts[gid]
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << (
        np.uint64(7) * within.astype(np.uint64)
    )
    vals = np.add.reduceat(contrib, group_starts)
    if count is not None:
        assert len(vals) == count, f"varbyte_decode: {len(vals)} != {count}"
    return vals


def _delta_with_block_restarts(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ids (sorted int64) -> (vals to varbyte-encode, block start indices)."""
    n = len(ids)
    block_starts = np.arange(0, n, BLOCK, dtype=np.int64)
    vals = np.empty(n, dtype=np.uint64)
    if n:
        vals[0] = ids[0]
        vals[1:] = np.diff(ids).astype(np.uint64)
        vals[block_starts] = ids[block_starts].astype(np.uint64)
    return vals, block_starts


def _per_value_nbytes(v: np.ndarray) -> np.ndarray:
    nb = np.ones(len(v), dtype=np.int64)
    for k in range(1, 10):
        nb += (v >= np.uint64(1) << np.uint64(7 * k)).astype(np.int64)
    return nb


def encode_chunk(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    avgdl: float,
    k1: float = 1.2,
    b: float = 0.75,
) -> dict:
    """Encode one doc_id-sorted posting chunk -> a dict of parquet cell values."""
    n = len(doc_ids)
    assert n > 0
    ids = np.asarray(doc_ids, dtype=np.int64)
    assert bool(np.all(np.diff(ids) > 0)), "doc_ids must be strictly increasing"
    tfs = np.asarray(tfs, dtype=np.uint64)
    dls = np.asarray(dls, dtype=np.uint64)

    vals, block_starts = _delta_with_block_restarts(ids)
    id_nb = _per_value_nbytes(vals)
    tf_nb = _per_value_nbytes(tfs)
    dl_nb = _per_value_nbytes(dls)
    id_off = np.concatenate(([0], np.cumsum(id_nb)))[block_starts]
    tf_off = np.concatenate(([0], np.cumsum(tf_nb)))[block_starts]
    dl_off = np.concatenate(([0], np.cumsum(dl_nb)))[block_starts]

    block_ends = np.minimum(block_starts + BLOCK, n)
    block_last = ids[block_ends - 1]

    # exact BM25 tf-norm upper bound per block (float64, same formula as scoring)
    tf_f = tfs.astype(np.float64)
    dl_f = dls.astype(np.float64)
    tfn = tf_f / (tf_f + k1 * (1.0 - b + b * dl_f / avgdl))
    block_max_tfn = np.maximum.reduceat(tfn, block_starts)

    return {
        "n": n,
        "first_doc_id": int(ids[0]),
        "last_doc_id": int(ids[-1]),
        "ids_bytes": varbyte_encode(vals),
        "tf_bytes": varbyte_encode(tfs),
        "dl_bytes": varbyte_encode(dls),
        "block_last": block_last.tolist(),
        "block_ids_off": id_off.astype(np.int64).tolist(),
        "block_tf_off": tf_off.astype(np.int64).tolist(),
        "block_dl_off": dl_off.astype(np.int64).tolist(),
        "block_max_tfn": block_max_tfn.tolist(),
        "sum_tf": int(tfs.sum()),
    }


def _varbyte_encode_with_sizes(v: np.ndarray) -> tuple[bytes, np.ndarray]:
    """varbyte_encode + per-value byte counts (for slicing a shared stream)."""
    v = np.asarray(v, dtype=np.uint64)
    if len(v) == 0:
        return b"", np.zeros(0, dtype=np.int64)
    out, nb = _varbyte_core(v)
    return out.tobytes(), nb


def _encode_runs_core(
    vals_doc: np.ndarray,
    vals_tf: np.ndarray,
    vals_dl: np.ndarray,
    run_starts: np.ndarray,
    run_ends: np.ndarray,
    avgdl: float,
    k1: float,
    b: float,
) -> dict:
    """Shared vectorized core for the run-batch encoders: ONE delta+varbyte
    pass over the concatenated values plus all per-block metadata. Returns
    the flat arrays both assembly styles (row dicts / Arrow columns) slice."""
    total = len(vals_doc)
    ids = np.asarray(vals_doc, dtype=np.int64)
    tfs = np.asarray(vals_tf, dtype=np.uint64)
    dls = np.asarray(vals_dl, dtype=np.uint64)
    run_starts = np.asarray(run_starts, dtype=np.int64)
    run_ends = np.asarray(run_ends, dtype=np.int64)
    run_lens = run_ends - run_starts

    # global block starts: every run restarts; blocks of BLOCK within runs
    blocks_per_run = (run_lens + BLOCK - 1) // BLOCK
    nblocks = int(blocks_per_run.sum())
    # block index within its run:
    bwr = np.arange(nblocks, dtype=np.int64) - np.repeat(
        np.cumsum(blocks_per_run) - blocks_per_run, blocks_per_run
    )
    block_starts = np.repeat(run_starts, blocks_per_run) + bwr * BLOCK
    block_ends = np.minimum(block_starts + BLOCK, np.repeat(run_ends, blocks_per_run))

    vals_delta = np.empty(total, dtype=np.uint64)
    vals_delta[1:] = np.diff(ids).astype(np.uint64)
    vals_delta[0] = ids[0]
    vals_delta[block_starts] = ids[block_starts].astype(np.uint64)
    # correctness: within a block, doc_ids must be strictly increasing
    chk = np.ones(total, dtype=bool)
    chk[block_starts] = False
    assert bool(np.all(vals_delta[chk] >= 1)), "doc_ids not strictly increasing"

    id_bytes, id_nb = _varbyte_encode_with_sizes(vals_delta)
    tf_bytes, tf_nb = _varbyte_encode_with_sizes(tfs)
    dl_bytes, dl_nb = _varbyte_encode_with_sizes(dls)
    id_off = np.concatenate(([0], np.cumsum(id_nb)))
    tf_off = np.concatenate(([0], np.cumsum(tf_nb)))
    dl_off = np.concatenate(([0], np.cumsum(dl_nb)))

    tf_f = tfs.astype(np.float64)
    dl_f = dls.astype(np.float64)
    tfn = tf_f / (tf_f + k1 * (1.0 - b + b * dl_f / avgdl))
    block_max_tfn = np.maximum.reduceat(tfn, block_starts)
    block_last = ids[block_ends - 1]

    # per-run cumulative tf for sum_tf: one cumsum + slicing
    ctf = np.concatenate(([0], np.cumsum(tfs.astype(np.int64))))
    return {
        "ids": ids, "run_starts": run_starts, "run_ends": run_ends,
        "run_lens": run_lens, "blocks_per_run": blocks_per_run,
        "block_starts": block_starts, "id_bytes": id_bytes,
        "tf_bytes": tf_bytes, "dl_bytes": dl_bytes, "id_off": id_off,
        "tf_off": tf_off, "dl_off": dl_off, "block_max_tfn": block_max_tfn,
        "block_last": block_last, "ctf": ctf,
    }


def encode_chunks_batch(
    vals_doc: np.ndarray,
    vals_tf: np.ndarray,
    vals_dl: np.ndarray,
    run_starts: np.ndarray,
    run_ends: np.ndarray,
    avgdl: float,
    k1: float = 1.2,
    b: float = 0.75,
) -> list[dict]:
    """Encode MANY doc_id-sorted posting runs sharing flat value arrays.

    Equivalent to ``[encode_chunk(vals[s:e]...) for s, e in runs]`` but with
    ONE varbyte pass over the concatenated values — per-run numpy-kernel
    launch overhead (~0.5 ms each) dominates when a shuffle block holds
    thousands of (term, chunk) runs. The final assembly per run is pure
    slicing of precomputed arrays/bytes.
    """
    total = len(vals_doc)
    if total == 0:
        return []
    c = _encode_runs_core(vals_doc, vals_tf, vals_dl, run_starts, run_ends,
                          avgdl, k1, b)
    ids, run_starts, run_ends = c["ids"], c["run_starts"], c["run_ends"]
    blocks_per_run, block_starts = c["blocks_per_run"], c["block_starts"]
    id_bytes, tf_bytes, dl_bytes = c["id_bytes"], c["tf_bytes"], c["dl_bytes"]
    id_off, tf_off, dl_off = c["id_off"], c["tf_off"], c["dl_off"]
    block_max_tfn, block_last, ctf = c["block_max_tfn"], c["block_last"], c["ctf"]
    n_runs = len(run_starts)

    rows: list[dict] = []
    bpos = 0
    for r in range(n_runs):
        s, e = int(run_starts[r]), int(run_ends[r])
        nb_r = int(blocks_per_run[r])
        bs, be = bpos, bpos + nb_r
        rows.append(
            {
                "n": e - s,
                "first_doc_id": int(ids[s]),
                "last_doc_id": int(ids[e - 1]),
                "ids_bytes": id_bytes[id_off[s]:id_off[e]],
                "tf_bytes": tf_bytes[tf_off[s]:tf_off[e]],
                "dl_bytes": dl_bytes[dl_off[s]:dl_off[e]],
                "block_last": block_last[bs:be].tolist(),
                "block_ids_off": (id_off[block_starts[bs:be]] - id_off[s]).tolist(),
                "block_tf_off": (tf_off[block_starts[bs:be]] - tf_off[s]).tolist(),
                "block_dl_off": (dl_off[block_starts[bs:be]] - dl_off[s]).tolist(),
                "block_max_tfn": block_max_tfn[bs:be].tolist(),
                "sum_tf": int(ctf[e] - ctf[s]),
            }
        )
        bpos = be
    return rows


def _bin_from_stream(data: bytes, bounds: np.ndarray) -> pa.Array:
    """Zero-copy ``binary`` array over one shared byte stream: element *i*
    is ``data[bounds[i]:bounds[i+1]]`` (bounds int64, len n+1, ascending)."""
    n = len(bounds) - 1
    off = bounds.astype(np.int32)
    return pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(off.tobytes()), pa.py_buffer(data)]
    )


def encode_chunks_table(
    vals_doc: np.ndarray,
    vals_tf: np.ndarray,
    vals_dl: np.ndarray,
    run_starts: np.ndarray,
    run_ends: np.ndarray,
    avgdl: float,
    k1: float = 1.2,
    b: float = 0.75,
    *,
    terms: pa.Array,
    chunk_ids: np.ndarray,
    shard: int,
    pos_vals: np.ndarray | None = None,
) -> pa.Table:
    """Columnar twin of :func:`encode_chunks_batch`: same cell values, but
    the output is assembled directly as Arrow arrays — binary columns as
    offset views over the three shared varbyte streams, list columns from
    the flat per-block arrays — with no per-run Python loop and no
    ``from_pylist``. Runs must tile the flat value arrays contiguously
    (``run_starts[0]==0``, ``run_ends[-1]==len``, adjacent), which is how
    the postings merge produces them. Returns a POSTINGS_SCHEMA table.

    Falls back to the row-dict path if a byte stream exceeds int32 offsets
    (>2 GiB per merge bucket — split the bucket instead of hitting this).
    """
    total = len(vals_doc)
    run_starts = np.asarray(run_starts, dtype=np.int64)
    run_ends = np.asarray(run_ends, dtype=np.int64)
    n_runs = len(run_starts)
    out_schema = POSTINGS_SCHEMA if pos_vals is None else POSTINGS_SCHEMA_POS
    if total == 0 or n_runs == 0:
        return out_schema.empty_table()
    assert run_starts[0] == 0 and run_ends[-1] == total
    assert bool(np.all(run_starts[1:] == run_ends[:-1])), "runs must tile"

    c = _encode_runs_core(vals_doc, vals_tf, vals_dl, run_starts, run_ends,
                          avgdl, k1, b)
    if pos_vals is not None:
        # 4th stream: each posting's ascending token positions, varbyte,
        # posting i's occurrence slice = ctf[i]:ctf[i+1] (counts == tf) —
        # chunk boundaries follow from the same cumulative-tf array
        assert len(pos_vals) == int(c["ctf"][-1]), "positions != sum(tf)"
        pos_bytes, pos_nb = _varbyte_encode_with_sizes(pos_vals)
        pos_off = np.concatenate(([0], np.cumsum(pos_nb)))
    if max(len(c["id_bytes"]), len(c["tf_bytes"]), len(c["dl_bytes"]),
           0 if pos_vals is None else len(pos_bytes)) >= 2**31:
        rows = encode_chunks_batch(vals_doc, vals_tf, vals_dl, run_starts,
                                   run_ends, avgdl, k1, b)
        tl = terms.to_pylist()
        for i, row in enumerate(rows):
            row["term"] = tl[i]
            row["chunk_id"] = int(chunk_ids[i])
            row["shard"] = shard
            if pos_vals is not None:
                os_, oe = int(c["ctf"][run_starts[i]]), int(c["ctf"][run_ends[i]])
                row["pos_bytes"] = pos_bytes[pos_off[os_]:pos_off[oe]]
        return pa.Table.from_pylist(rows, schema=out_schema)

    ids = c["ids"]
    bpr = c["blocks_per_run"]
    bs = c["block_starts"]
    id_off, tf_off, dl_off = c["id_off"], c["tf_off"], c["dl_off"]
    run_bounds = np.concatenate((run_starts, run_ends[-1:]))
    # per-run-relative block offsets: block offset minus its run's start
    rep_rs = np.repeat(run_starts, bpr)
    list_off = np.concatenate(([0], np.cumsum(bpr))).astype(np.int32)

    def _list(vals: np.ndarray, typ) -> pa.ListArray:
        return pa.ListArray.from_arrays(pa.array(list_off, pa.int32()),
                                        pa.array(vals, typ))

    cols = [
        terms,
        pa.array(np.asarray(chunk_ids, dtype=np.int64)),
        pa.array(np.full(n_runs, shard, dtype=np.int32)),
        pa.array(c["run_lens"]),
        pa.array(ids[run_starts]),
        pa.array(ids[run_ends - 1]),
        _bin_from_stream(c["id_bytes"], id_off[run_bounds]),
        _bin_from_stream(c["tf_bytes"], tf_off[run_bounds]),
        _bin_from_stream(c["dl_bytes"], dl_off[run_bounds]),
        _list(c["block_last"], pa.int64()),
        _list(id_off[bs] - id_off[rep_rs], pa.int64()),
        _list(tf_off[bs] - tf_off[rep_rs], pa.int64()),
        _list(dl_off[bs] - dl_off[rep_rs], pa.int64()),
        _list(c["block_max_tfn"], pa.float64()),
        pa.array(c["ctf"][run_ends] - c["ctf"][run_starts]),
    ]
    if pos_vals is not None:
        cols.append(_bin_from_stream(pos_bytes, pos_off[c["ctf"][run_bounds]]))
    return pa.Table.from_arrays(cols, schema=out_schema)


def decode_chunk(row: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full decode of one chunk row -> (doc_ids int64, tfs int64, dls int64)."""
    n = int(row["n"])
    vals = varbyte_decode(row["ids_bytes"], n).astype(np.int64)
    # cumsum with a reset at every absolute-restart block boundary: subtract,
    # from each block onward, the running total accumulated before its
    # restart (vectorized: one cumsum + one repeat).
    c = np.cumsum(vals)
    block_starts = np.arange(0, n, BLOCK, dtype=np.int64)
    bases = np.concatenate(([0], c[block_starts[1:] - 1]))
    sizes = np.diff(np.concatenate((block_starts, [n])))
    ids = c - np.repeat(bases, sizes)
    tfs = varbyte_decode(row["tf_bytes"], n).astype(np.int64)
    dls = varbyte_decode(row["dl_bytes"], n).astype(np.int64)
    return ids, tfs, dls


def decode_block(row: dict, bi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a single 128-posting block of a chunk (independent restart)."""
    n = int(row["n"])
    nblocks = (n + BLOCK - 1) // BLOCK
    s = bi * BLOCK
    cnt = min(BLOCK, n - s)
    id_off = row["block_ids_off"]
    tf_off = row["block_tf_off"]
    dl_off = row["block_dl_off"]
    id_end = id_off[bi + 1] if bi + 1 < nblocks else len(row["ids_bytes"])
    tf_end = tf_off[bi + 1] if bi + 1 < nblocks else len(row["tf_bytes"])
    dl_end = dl_off[bi + 1] if bi + 1 < nblocks else len(row["dl_bytes"])
    vals = varbyte_decode(row["ids_bytes"][id_off[bi]:id_end], cnt)
    ids = np.cumsum(vals).astype(np.int64)
    tfs = varbyte_decode(row["tf_bytes"][tf_off[bi]:tf_end], cnt).astype(np.int64)
    dls = varbyte_decode(row["dl_bytes"][dl_off[bi]:dl_end], cnt).astype(np.int64)
    return ids, tfs, dls


POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("chunk_id", pa.int64()),
        ("shard", pa.int32()),
        ("n", pa.int64()),
        ("first_doc_id", pa.int64()),
        ("last_doc_id", pa.int64()),
        ("ids_bytes", pa.binary()),
        ("tf_bytes", pa.binary()),
        ("dl_bytes", pa.binary()),
        ("block_last", pa.list_(pa.int64())),
        ("block_ids_off", pa.list_(pa.int64())),
        ("block_tf_off", pa.list_(pa.int64())),
        ("block_dl_off", pa.list_(pa.int64())),
        ("block_max_tfn", pa.list_(pa.float64())),
        ("sum_tf", pa.int64()),
    ]
)
# positional index variant: one extra varbyte stream per chunk holding every
# posting's ascending token positions (posting i's slice has tf_i values —
# the tf stream is the split key, so no extra offsets are stored)
POSTINGS_SCHEMA_POS = POSTINGS_SCHEMA.append(pa.field("pos_bytes", pa.binary()))


def decode_chunk_positions(row: dict) -> tuple[np.ndarray, np.ndarray]:
    """Decode a positional chunk's positions -> (pos int64 flat, occ_offsets)
    with posting ``i``'s ascending positions at
    ``pos[occ_offsets[i]:occ_offsets[i+1]]`` (lengths == decoded tfs)."""
    n = int(row["n"])
    tfs = varbyte_decode(row["tf_bytes"], n).astype(np.int64)
    occ = np.concatenate(([0], np.cumsum(tfs)))
    pos = varbyte_decode(row["pos_bytes"], int(occ[-1])).astype(np.int64)
    return pos, occ
