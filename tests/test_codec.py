import numpy as np
import pytest

from astrologer_ray.functions.codec import (
    BLOCK,
    decode_block,
    decode_chunk,
    encode_chunk,
    varbyte_decode,
    varbyte_encode,
)


@pytest.mark.parametrize(
    "vals",
    [
        [],
        [0],
        [1],
        [127],
        [128],
        [16383],
        [16384],
        [2**62],
        [0, 1, 127, 128, 255, 300, 2**20, 2**40, 2**62],
    ],
)
def test_varbyte_roundtrip_fixed(vals):
    v = np.array(vals, dtype=np.uint64)
    assert list(varbyte_decode(varbyte_encode(v))) == vals


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 2, 10, 1000, 100_000])
def test_varbyte_roundtrip_random(seed, n):
    rng = np.random.default_rng(seed)
    # mix of small and huge magnitudes (adversarial gaps, FIXTURES.md F3)
    exp = rng.integers(0, 62, size=n)
    v = rng.integers(0, 2**53, size=n).astype(np.uint64) >> (53 - exp // 2).astype(np.uint64)
    out = varbyte_decode(varbyte_encode(v), n)
    np.testing.assert_array_equal(out, v)


def _random_postings(rng, n, max_gap=1000):
    gaps = rng.integers(1, max_gap, size=n)
    ids = np.cumsum(gaps).astype(np.int64)
    tfs = rng.integers(1, 50, size=n).astype(np.int64)
    return ids, tfs


def _random_runs(rng, lens):
    """Flat (ids, tfs) of doc_id-sorted runs with the given lengths, and
    the run bounds that tile them."""
    parts = [_random_postings(rng, n) for n in lens]
    bounds = np.concatenate(([0], np.cumsum(lens)))
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]), bounds[:-1], bounds[1:])


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 17, 10_000])
def test_chunk_roundtrip(n):
    rng = np.random.default_rng(n)
    ids, tfs = _random_postings(rng, n)
    row = encode_chunk(ids, tfs)
    assert sorted(row) == ["first_doc_id", "ids_bytes", "last_doc_id", "n",
                           "sum_tf", "tf_bytes"]
    rid, rtf = decode_chunk(row)
    np.testing.assert_array_equal(rid, ids)
    np.testing.assert_array_equal(rtf, tfs)
    assert row["first_doc_id"] == ids[0]
    assert row["last_doc_id"] == ids[-1]
    assert row["sum_tf"] == tfs.sum()


def test_block_decode_matches_full():
    rng = np.random.default_rng(3)
    n = 4 * BLOCK + 31
    ids, tfs = _random_postings(rng, n)
    row = encode_chunk(ids, tfs)
    nblocks = (n + BLOCK - 1) // BLOCK
    blocks = [decode_block(row, bi) for bi in range(nblocks)]
    assert [len(b[0]) for b in blocks] == [BLOCK] * (nblocks - 1) + [31]
    np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), ids)
    np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), tfs)


def test_ids_restart_absolutely_every_block():
    """The ids stream is the one every index so far was written with:
    deltas, with the absolute id at each run start and every BLOCK
    postings after it."""
    ids = np.arange(1, 2 * BLOCK + 2, dtype=np.int64) * 3
    vals = np.full(len(ids), 3, dtype=np.uint64)
    vals[[0, BLOCK, 2 * BLOCK]] = ids[[0, BLOCK, 2 * BLOCK]]
    row = encode_chunk(ids, np.ones(len(ids), dtype=np.int64))
    assert row["ids_bytes"] == varbyte_encode(vals)


def test_encode_rejects_unsorted():
    for ids in ([5, 3], [4, 4], [1, 2, 9, 7]):
        with pytest.raises(AssertionError):
            encode_chunk(np.array(ids), np.ones(len(ids), dtype=np.int64))


def test_encode_chunks_batch_equals_per_run():
    from astrologer_ray.functions.codec import encode_chunks_batch

    rng = np.random.default_rng(11)
    vd, vt, starts, ends = _random_runs(
        rng, [1, 2, BLOCK, BLOCK + 1, 700, 5, 3 * BLOCK + 9])
    # runs are independent (each draws its ids afresh): only ids inside a
    # run must ascend
    batch = encode_chunks_batch(vd, vt, starts, ends)
    for i, (s, e) in enumerate(zip(starts, ends)):
        assert batch[i] == encode_chunk(vd[s:e], vt[s:e]), f"run {i} differs"


def test_encode_chunks_table_equals_batch():
    """Columnar assembly == row-dict assembly, cell for cell."""
    import pyarrow as pa

    from astrologer_ray.functions.codec import (
        POSTINGS_SCHEMA,
        encode_chunks_batch,
        encode_chunks_table,
    )

    rng = np.random.default_rng(23)
    vd, vt, starts, ends = _random_runs(
        rng, [1, 2, BLOCK, BLOCK + 1, 700, 5, 3 * BLOCK + 9, 64])
    rows = encode_chunks_batch(vd, vt, starts, ends)
    cids = rng.integers(0, 3, len(rows)).astype(np.int64)
    for i, r in enumerate(rows):
        r["term"] = f"term{i}"
        r["chunk_id"] = int(cids[i])
        r["shard"] = 5
    want = pa.Table.from_pylist(rows, schema=POSTINGS_SCHEMA)
    got = encode_chunks_table(
        vd, vt, starts, ends,
        terms=pa.array([f"term{i}" for i in range(len(rows))]),
        chunk_ids=cids, shard=5,
    )
    assert got.schema.equals(want.schema)
    assert got.equals(want)
    # decode round-trip through the columnar cells too
    for i, (s, e) in enumerate(zip(starts, ends)):
        ids2, tfs2 = decode_chunk(got.slice(i, 1).to_pylist()[0])
        assert np.array_equal(ids2, vd[s:e])
        assert np.array_equal(tfs2, vt[s:e])


def test_postings_schema_columns():
    """A chunk row holds ids and tfs and their summaries: no per-posting
    doc length and no per-block lists (serving reads neither)."""
    from astrologer_ray.functions.codec import POSTINGS_SCHEMA, POSTINGS_SCHEMA_POS

    assert POSTINGS_SCHEMA.names == [
        "term", "chunk_id", "shard", "n", "first_doc_id", "last_doc_id",
        "ids_bytes", "tf_bytes", "sum_tf"]
    assert POSTINGS_SCHEMA_POS.names == POSTINGS_SCHEMA.names + ["pos_bytes"]


def test_encode_chunks_table_positions_roundtrip():
    """Positional encode: pos_bytes decodes back to each posting's ascending
    position run (lengths == tf) and every non-positional column is
    byte-identical to the plain encode."""
    import pyarrow as pa

    from astrologer_ray.functions.codec import (
        POSTINGS_SCHEMA_POS,
        decode_chunk_positions,
        encode_chunks_table,
    )

    rng = np.random.default_rng(41)
    vd, vt, starts, ends = _random_runs(rng, [1, 5, BLOCK, BLOCK + 1, 300, 2])
    # per-posting ascending positions, run length == tf
    pos_vals = np.concatenate(
        [np.cumsum(rng.integers(1, 9, int(f))) for f in vt]
    ).astype(np.int64)
    terms = pa.array([f"t{i}" for i in range(len(starts))])
    cids = rng.integers(0, 3, len(starts)).astype(np.int64)
    plain = encode_chunks_table(vd, vt, starts, ends,
                                terms=terms, chunk_ids=cids, shard=1)
    got = encode_chunks_table(vd, vt, starts, ends,
                              terms=terms, chunk_ids=cids, shard=1,
                              pos_vals=pos_vals)
    assert got.schema.equals(POSTINGS_SCHEMA_POS)
    assert got.drop_columns(["pos_bytes"]).equals(plain)
    occ_bounds = np.concatenate(([0], np.cumsum(vt)))
    for i, (s, e) in enumerate(zip(starts, ends)):
        row = got.slice(i, 1).to_pylist()[0]
        p, occ = decode_chunk_positions(row)
        lo, hi = occ_bounds[s], occ_bounds[e]
        assert np.array_equal(p, pos_vals[lo:hi]), f"run {i}"
        assert np.array_equal(np.diff(occ), vt[s:e])
