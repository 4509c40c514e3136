"""Delta + varbyte posting-list codec.

This is the index-storage half the reference delegated to Elasticsearch /
Lucene (the reference only ships NDJSON to ``_bulk``,
/root/reference/es/adapter.go:109-117); here it is built from scratch:

- **varbyte**: LEB128-style 7-bits-per-byte little-endian, continuation bit
  0x80. Encode and decode are pure numpy (no per-value Python loop).
- **chunk**: one (term, doc_id-range) slice of a posting list. Postings are
  doc_id-sorted; ids are delta-encoded with an absolute restart every
  ``BLOCK`` (128) postings. Two parallel varbyte streams per chunk: ids
  (delta) and tf, plus a token-position stream on a positional build. A
  chunk stores no doc lengths and no per-block metadata: BM25 reads each
  doc's length once from the docs sidecar's ``dl`` column (how Lucene
  stores norms), and the searcher decodes whole chunks and bounds a term
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


def _varbyte_stream(v: np.ndarray) -> tuple[bytes, np.ndarray]:
    """varbyte_encode + the byte bounds of every value (int64, len n+1:
    value ``i`` is ``out[bounds[i]:bounds[i+1]]``), for slicing one shared
    stream into per-chunk cells."""
    v = np.asarray(v, dtype=np.uint64)
    if len(v) == 0:
        return b"", np.zeros(1, dtype=np.int64)
    out, nb = _varbyte_core(v)
    return out.tobytes(), np.concatenate(([0], np.cumsum(nb)))


def _encode_runs_core(vals_doc: np.ndarray, vals_tf: np.ndarray,
                      run_starts: np.ndarray, run_ends: np.ndarray) -> dict:
    """Shared vectorized core of the run encoders: ONE delta+varbyte pass
    over the concatenated values of runs that tile them
    (``run_starts[0] == 0``, ``run_ends[-1] == len``, adjacent). Returns
    the flat streams and bounds both assembly styles (row dicts / Arrow
    columns) slice."""
    ids = np.asarray(vals_doc, dtype=np.int64)
    tfs = np.asarray(vals_tf, dtype=np.uint64)
    run_starts = np.asarray(run_starts, dtype=np.int64)
    run_ends = np.asarray(run_ends, dtype=np.int64)
    assert run_starts[0] == 0 and run_ends[-1] == len(ids)
    assert bool(np.all(run_starts[1:] == run_ends[:-1])), "runs must tile"
    # position of every posting inside its run: restart at each run start
    # and every BLOCK postings after it
    within = np.arange(len(ids), dtype=np.int64) - np.repeat(
        run_starts, run_ends - run_starts)
    gaps = np.diff(ids, prepend=ids[:1])
    assert bool(np.all(gaps[within > 0] > 0)), \
        "doc_ids must be strictly increasing within a run"
    vals = np.where(within % BLOCK == 0, ids, gaps).astype(np.uint64)
    id_bytes, id_off = _varbyte_stream(vals)
    tf_bytes, tf_off = _varbyte_stream(tfs)
    return {
        "ids": ids, "run_starts": run_starts, "run_ends": run_ends,
        "id_bytes": id_bytes, "id_off": id_off,
        "tf_bytes": tf_bytes, "tf_off": tf_off,
        # cumulative tf: per-run sum_tf, and the position-stream split key
        "ctf": np.concatenate(([0], np.cumsum(tfs.astype(np.int64)))),
    }


def _core_rows(c: dict) -> list[dict]:
    """One cell dict per run of an :func:`_encode_runs_core` result."""
    ids, id_off, tf_off, ctf = c["ids"], c["id_off"], c["tf_off"], c["ctf"]
    return [
        {
            "n": e - s,
            "first_doc_id": int(ids[s]),
            "last_doc_id": int(ids[e - 1]),
            "ids_bytes": c["id_bytes"][id_off[s]:id_off[e]],
            "tf_bytes": c["tf_bytes"][tf_off[s]:tf_off[e]],
            "sum_tf": int(ctf[e] - ctf[s]),
        }
        for s, e in zip(c["run_starts"].tolist(), c["run_ends"].tolist())
    ]


def encode_chunk(doc_ids: np.ndarray, tfs: np.ndarray) -> dict:
    """Encode one doc_id-sorted posting chunk -> a dict of parquet cell values."""
    assert len(doc_ids) > 0
    return encode_chunks_batch(doc_ids, tfs, [0], [len(doc_ids)])[0]


def encode_chunks_batch(
    vals_doc: np.ndarray,
    vals_tf: np.ndarray,
    run_starts: np.ndarray,
    run_ends: np.ndarray,
) -> list[dict]:
    """Encode MANY doc_id-sorted posting runs that tile flat value arrays.

    Equivalent to ``[encode_chunk(vals[s:e]...) for s, e in runs]`` but with
    ONE varbyte pass over the concatenated values — per-run numpy-kernel
    launch overhead (~0.5 ms each) dominates when a shuffle block holds
    thousands of (term, chunk) runs. The final assembly per run is pure
    slicing of precomputed arrays/bytes.
    """
    if len(vals_doc) == 0:
        return []
    return _core_rows(_encode_runs_core(vals_doc, vals_tf, run_starts, run_ends))


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
    run_starts: np.ndarray,
    run_ends: np.ndarray,
    *,
    terms: pa.Array,
    chunk_ids: np.ndarray,
    shard: int,
    pos_vals: np.ndarray | None = None,
) -> pa.Table:
    """Columnar twin of :func:`encode_chunks_batch`: same cell values, but
    the output is assembled directly as Arrow arrays — binary columns as
    offset views over the shared varbyte streams — with no per-run Python
    loop and no ``from_pylist``. ``pos_vals`` (a positional build) are
    every posting's ascending token positions, ``tf`` of them per posting
    in posting order. Returns a POSTINGS_SCHEMA(_POS) table.

    Falls back to row dicts if a byte stream exceeds int32 offsets
    (>2 GiB per merge bucket — split the bucket instead of hitting this).
    """
    out_schema = POSTINGS_SCHEMA if pos_vals is None else POSTINGS_SCHEMA_POS
    if len(vals_doc) == 0 or len(run_starts) == 0:
        return out_schema.empty_table()
    c = _encode_runs_core(vals_doc, vals_tf, run_starts, run_ends)
    run_starts, run_ends, ctf = c["run_starts"], c["run_ends"], c["ctf"]
    run_bounds = np.concatenate((run_starts, run_ends[-1:]))
    streams = [(c["id_bytes"], c["id_off"][run_bounds]),
               (c["tf_bytes"], c["tf_off"][run_bounds])]
    if pos_vals is not None:
        # posting i's occurrence slice is ctf[i]:ctf[i+1] (counts == tf),
        # so chunk boundaries follow from the same cumulative-tf array
        assert len(pos_vals) == int(ctf[-1]), "positions != sum(tf)"
        pos_bytes, pos_off = _varbyte_stream(pos_vals)
        streams.append((pos_bytes, pos_off[ctf[run_bounds]]))
    if max(len(data) for data, _ in streams) >= 2**31:
        rows = _core_rows(c)
        tl = terms.to_pylist()
        for i, row in enumerate(rows):
            row.update(term=tl[i], chunk_id=int(chunk_ids[i]), shard=shard)
            if pos_vals is not None:
                data, bounds = streams[2]
                row["pos_bytes"] = data[bounds[i]:bounds[i + 1]]
        return pa.Table.from_pylist(rows, schema=out_schema)

    ids = c["ids"]
    cols = [
        terms,
        pa.array(np.asarray(chunk_ids, dtype=np.int64)),
        pa.array(np.full(len(run_starts), shard, dtype=np.int32)),
        pa.array(run_ends - run_starts),
        pa.array(ids[run_starts]),
        pa.array(ids[run_ends - 1]),
        _bin_from_stream(*streams[0]),
        _bin_from_stream(*streams[1]),
        pa.array(ctf[run_ends] - ctf[run_starts]),
    ]
    if pos_vals is not None:
        cols.append(_bin_from_stream(*streams[2]))
    return pa.Table.from_arrays(cols, schema=out_schema)


def decode_chunk(row: dict) -> tuple[np.ndarray, np.ndarray]:
    """Full decode of one chunk row -> (doc_ids int64, tfs int64)."""
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
    return ids, tfs


def decode_block(row: dict, bi: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``bi``-th 128-posting block of a chunk: a slice of
    :func:`decode_chunk` (chunks keep no per-block byte offsets)."""
    ids, tfs = decode_chunk(row)
    s = bi * BLOCK
    return ids[s:s + BLOCK], tfs[s:s + BLOCK]


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
