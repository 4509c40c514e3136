"""Deduplication operators for training-data pipelines.

Exact dedup mirrors the reference's idempotent ``_id`` semantics (dedup by
paging token, SURVEY §2.7 D1); the near-dup family (MinHash+LSH, SimHash,
n-gram Jaccard, embedding cosine) is the standard large-corpus toolkit.

Shuffle shape: exact dedup is ONE ``groupby(hash)``; MinHash-LSH is
fully distributed: vectorized CSR signature computation in ``map_batches``
→ explode to (band, band_hash, doc_id) rows → ``groupby(band, band_hash)``
→ candidate pairs → hash-join the candidate texts in → exact shingle
Jaccard verification inside ``map_batches`` → connected components by
min-label propagation (distributed Dataset iterations above a configurable
edge budget; below it the id-only verified edge list — 16 B/edge, never
any text — collapses driver-side). Embedding near-dup defaults to
random-hyperplane LSH bucketing (multiple tables) with within-bucket exact
cosine; the O(N^2) broadcast brute force remains as the small-N oracle.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from astrologer_ray.functions.tokenizer import _SIMPLE_RE
from astrologer_ray.stages.spimi import _sha256_per_row

logger = logging.getLogger(__name__)

# ---------------------------------------------------------------- exact dedup


def _digest(t: pa.Table, text_col: str):
    """sha256 hex of every ``text_col`` value (null hashes as empty). A
    table that carries a ``sha256`` column — the index build's docs
    sidecar stores exactly this digest of ``content`` — is trusted as is
    instead of re-hashing every row."""
    if "sha256" in t.column_names:
        return t["sha256"]
    col = t[text_col]
    if pa.types.is_null(col.type):  # a block whose texts are all None
        col = col.cast(pa.string())
    return pa.array(_sha256_per_row(col), pa.string())


def dedup_exact(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """Groups of identical ``text_col``: keep the min-id row per group.

    Returns (keep_id, n_dups) per distinct text — the survivor row id and
    the group size. One hash-groupby; text itself never shuffles (only its
    sha256 + id, see :func:`_digest`).
    """

    def hash_project(t: pa.Table) -> pa.Table:
        return pa.table({"h": _digest(t, text_col), id_col: t[id_col]})

    def keep_first(g: pa.Table) -> pa.Table:
        ids = np.asarray(g[id_col]).astype(np.int64)
        return pa.table(
            {
                "keep_id": pa.array([int(ids.min())], pa.int64()),
                "n_dups": pa.array([len(ids)], pa.int64()),
            }
        )

    return (
        ds.map_batches(hash_project, batch_format="pyarrow")
        .groupby("h")
        .map_groups(keep_first, batch_format="pyarrow")
    )


def dedup_incremental(new_ds: Dataset, prior_ds: Dataset,
                      text_col: str = "text", id_col: str = "doc_id",
                      num_partitions: int = 8) -> Dataset:
    """Cross-corpus exact dedup: survivors of ``new_ds`` after removing
    (a) duplicates WITHIN the new batch (keep min id per distinct text)
    and (b) anything whose text already exists in ``prior_ds`` — the
    daily-crawl-vs-history operation of a training-data pipeline.

    Scale shape: both sides reduce to (sha256, id) projections before
    any exchange (text never shuffles); the within-batch dedup is one
    hash-groupby and the history check is a DISTRIBUTED ``left_anti``
    hash join on the digest — no broadcast of the (at scale, enormous)
    history hash set, unlike the broadcast-side
    :func:`~astrologer_ray.pipelines.aggs.anti_join_keys` which is the
    right tool only when the present-set is small. Either side may be
    the build's docs sidecar: its stored ``sha256`` column is reused
    (:func:`_digest`)."""

    def hash_project(col_id: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"h": _digest(t, text_col), col_id: t[col_id]})
        return fn

    def keep_first(g: pa.Table) -> pa.Table:
        ids = np.asarray(g[id_col]).astype(np.int64)
        return pa.table({
            "keep_id": pa.array([int(ids.min())], pa.int64()),
            "n_dups": pa.array([len(ids)], pa.int64()),
            "h": g["h"].slice(0, 1),
        })

    new_groups = (new_ds.map_batches(hash_project(id_col),
                                     batch_format="pyarrow")
                  .groupby("h")
                  .map_groups(keep_first, batch_format="pyarrow"))
    # no distinct on the prior side: anti-join semantics ignore right
    # duplicates, and a pre-dedup would cost the same shuffle volume
    prior_h = (prior_ds.map_batches(hash_project(id_col),
                                    batch_format="pyarrow")
               .map_batches(lambda t: pa.table({"ph": t["h"]}),
                            batch_format="pyarrow"))
    return new_groups.join(prior_h, join_type="left_anti",
                           num_partitions=num_partitions,
                           on=("h",), right_on=("ph",))


# ------------------------------------------------------------ minhash + LSH


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """uint64 hashes of k-token shingles (blake2b — stable across runs)."""
    toks = _SIMPLE_RE.findall((text or "").lower())
    if len(toks) < k:
        shingles = [" ".join(toks)] if toks else []
    else:
        shingles = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
    out = np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")
            for s in set(shingles)
        ),
        dtype=np.uint64,
        count=len(set(shingles)),
    )
    return out


_MERSENNE = np.uint64((1 << 61) - 1)


class MinHasher:
    """num_perm seeded universal-hash permutations; vectorized per doc."""

    def __init__(self, num_perm: int = 128, seed: int = 7, shingle_k: int = 3):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_k = shingle_k

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.shingle_k)
        if len(sh) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        # (P, S) universal hashing mod a Mersenne prime, min over shingles
        v = (self.a[:, None] * (sh[None, :] & _MERSENNE) + self.b[:, None]) % _MERSENNE
        return v.min(axis=1)

    def signatures_csr(self, flat_sh: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """(ndocs, num_perm) signatures for a whole batch in one pass.

        ``flat_sh`` concatenates every doc's shingle hashes; ``offsets`` is
        the CSR boundary array (len ndocs+1). Identical arithmetic to
        :meth:`signature` (property-tested); perms are processed in chunks
        so peak memory stays ~CH * len(flat_sh) * 8 bytes. Empty docs get
        the all-max sentinel signature.
        """
        ndocs = len(offsets) - 1
        out = np.full((ndocs, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(flat_sh) == 0:
            return out
        nonempty = np.flatnonzero(np.diff(offsets) > 0)
        starts = offsets[nonempty]
        shm = flat_sh & _MERSENNE
        CH = 16
        for p0 in range(0, self.num_perm, CH):
            a = self.a[p0 : p0 + CH]
            b = self.b[p0 : p0 + CH]
            v = (a[:, None] * shm[None, :] + b[:, None]) % _MERSENNE
            mins = np.minimum.reduceat(v, starts, axis=1)
            out[nonempty, p0 : p0 + CH] = mins.T
        return out


class MinHashBands:
    """map_batches stage: text -> (band, band_hash, id) rows for LSH.

    Signatures are computed for the whole batch in one vectorized CSR pass;
    band keys are a seeded polynomial mix of the band's signature rows
    (identical rows always collide; cross-band collisions are verified away
    downstream, so wraparound mixing is sufficient).
    """

    def __init__(self, text_col="text", id_col="doc_id",
                 num_perm=128, bands=32, seed=7, shingle_k=3):
        assert num_perm % bands == 0
        self.mh = MinHasher(num_perm=num_perm, seed=seed, shingle_k=shingle_k)
        self.bands = bands
        self.rows = num_perm // bands
        self.text_col, self.id_col = text_col, id_col
        rngb = np.random.default_rng(seed + 1)
        self._bh_coef = rngb.integers(1, (1 << 61) - 1, size=self.rows, dtype=np.uint64)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = np.asarray(t[self.id_col]).astype(np.int64)
        texts = t[self.text_col].to_pylist()
        sh_list = [_shingle_hashes(s, self.mh.shingle_k) for s in texts]
        counts = np.fromiter((len(x) for x in sh_list), dtype=np.int64, count=len(sh_list))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        flat = (
            np.concatenate(sh_list) if offsets[-1] else np.empty(0, dtype=np.uint64)
        )
        sigs = self.mh.signatures_csr(flat, offsets)  # (ndocs, P)
        S = sigs.reshape(len(ids), self.bands, self.rows)
        bh = (((S & _MERSENNE) * self._bh_coef[None, None, :]).sum(axis=2)
              % _MERSENNE).astype(np.int64)
        return pa.table(
            {
                "band": pa.array(
                    np.tile(np.arange(self.bands, dtype=np.int32), len(ids))
                ),
                "band_hash": pa.array(bh.reshape(-1)),
                self.id_col: pa.array(np.repeat(ids, self.bands)),
            }
        )


def jaccard(text_a: str, text_b: str, shingle_k: int = 3) -> float:
    a = set(_shingle_hashes(text_a, shingle_k).tolist())
    b = set(_shingle_hashes(text_b, shingle_k).tolist())
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def _first_row(g: pa.Table) -> pa.Table:
    return g.slice(0, 1)


def _project(t: pa.Table, mapping: dict, types: dict) -> pa.Table:
    """Rename/select with a FIXED output schema.

    Ray groupby/map_groups/aggregate stages can emit zero-row blocks with an
    empty schema (no columns at all); a downstream join or column access
    then sees heterogeneous block schemas and fails non-deterministically.
    Routing every rename through a declared schema keeps blocks uniform.
    """
    if t.num_rows == 0 or any(src not in t.column_names for src in mapping.values()):
        return pa.schema(list(types.items())).empty_table()
    return pa.table(
        {o: t[src].combine_chunks().cast(types[o]) for o, src in mapping.items()}
    )


_PAIR_TYPES = {"id_a": pa.int64(), "id_b": pa.int64()}
_LABEL_TYPES = {"node": pa.int64(), "label": pa.int64()}


def _grouped_join(
    left: Dataset,
    right: Dataset,
    left_key: str,
    right_key: str,
    left_cols: dict,
    right_cols: dict,
    dedup_left: bool = False,
) -> Dataset:
    """Distributed inner join via union + ONE hash groupby exchange.

    Same shuffle shape as a hash join, but built on groupby/map_groups:
    Ray 2.49's JoinOperator aggregator crashes on partitions that receive
    zero blocks for one side (it builds a schema-less empty table and
    pyarrow rejects the key FieldRef), which any skewed small input can
    trigger. Groupby partitions are schema-stable.

    ``right`` must be unique on ``right_key`` (first row wins otherwise).
    Output columns: ``left_cols`` then ``right_cols`` (no overlap allowed;
    include the key itself in left_cols to keep it).
    """
    assert not set(left_cols) & set(right_cols)
    lc = list(left_cols.items())
    rc = list(right_cols.items())
    union_schema = pa.schema(
        [("k", pa.int64()), ("side", pa.int8()), *lc, *rc]
    )
    out_schema = pa.schema([*lc, *rc])

    def tag(key: str, cols: dict, side: int):
        def fn(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or key not in t.column_names:
                return union_schema.empty_table()
            n = t.num_rows
            arrs = [
                t[key].combine_chunks().cast(pa.int64()),
                pa.array(np.full(n, side, dtype=np.int8)),
            ]
            for name, ty in lc + rc:
                if name in cols and name in t.column_names:
                    arrs.append(t[name].combine_chunks().cast(ty))
                else:
                    arrs.append(pa.nulls(n, ty))
            return pa.Table.from_arrays(arrs, schema=union_schema)

        return fn

    def join_group(g: pa.Table) -> pa.Table:
        side = np.asarray(g["side"])
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        if len(li) == 0 or len(ri) == 0:
            return out_schema.empty_table()
        lt = g.take(pa.array(li)).select([n for n, _ in lc])
        if dedup_left:
            # distinct left rows: lets callers skip a dedicated dedup
            # exchange upstream (duplicates collapse here for free)
            lt = lt.group_by([n for n, _ in lc]).aggregate([])
            lt = lt.sort_by([(n, "ascending") for n, _ in lc])
        arrs = [lt[n].combine_chunks() for n, _ in lc]
        r0 = int(ri[0])
        for name, ty in rc:
            v = g[name][r0].as_py()
            arrs.append(pa.array([v] * lt.num_rows, ty))
        return pa.Table.from_arrays(arrs, schema=out_schema)

    return (
        left.map_batches(tag(left_key, left_cols, 0), batch_format="pyarrow")
        .union(right.map_batches(tag(right_key, right_cols, 1), batch_format="pyarrow"))
        .groupby("k")
        .map_groups(join_group, batch_format="pyarrow")
        .map_batches(
            lambda t: _project(t, {n: n for n, _ in lc + rc},
                               dict(lc + rc)),
            batch_format="pyarrow",
        )
    )


def _cc_min_label_driver(id_a: np.ndarray, id_b: np.ndarray) -> pa.Table:
    """Connected components of the (small, id-only) verified edge list:
    numpy union-find; label = min doc_id of the component."""
    nodes = np.unique(np.concatenate([id_a, id_b]))
    a = np.searchsorted(nodes, id_a)
    b = np.searchsorted(nodes, id_b)
    parent = np.arange(len(nodes))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return int(i)

    for x, y in zip(a, b):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    labels = nodes[np.fromiter((find(i) for i in range(len(nodes))),
                               dtype=np.int64, count=len(nodes))]
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "label": pa.array(labels, pa.int64())})


def _cc_min_label_ds(edges: Dataset, num_partitions: int = 8,
                     max_iters: int = 50) -> Dataset:
    """Distributed connected components by iterative min-label propagation.

    Each round: join labels onto the symmetric edge list (neighbor labels),
    union with the nodes' own labels, take the per-node min. Labels are
    monotonically non-increasing, so an unchanged global label sum is an
    exact convergence certificate. O(component diameter) rounds; the
    member→group-min pair construction upstream keeps diameters small.

    ``num_partitions`` caps the hash-exchange fan-out of the per-round
    groupbys. Raises ``RuntimeError`` if the label sum is still changing
    after ``max_iters`` rounds — silent non-convergence would return
    incorrect cluster labels.
    """
    from astrologer_ray import ensure_hash_shuffle
    from ray.data.aggregate import Min, Sum

    ensure_hash_shuffle(max(8, num_partitions))

    _DL = {"dst": pa.int64(), "label": pa.int64()}
    _SL = {"src": pa.int64(), "label": pa.int64()}

    def sym(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "id_a" not in t.column_names:
            return pa.schema([("dst", pa.int64()), ("src", pa.int64())]).empty_table()
        a = t["id_a"].combine_chunks().cast(pa.int64())
        b = t["id_b"].combine_chunks().cast(pa.int64())
        return pa.table({"dst": pa.concat_arrays([a, b]),
                         "src": pa.concat_arrays([b, a])})

    sym_edges = edges.map_batches(sym, batch_format="pyarrow").materialize()

    labels = (
        sym_edges.map_batches(
            lambda t: _project(t, {"node": "dst", "label": "dst"}, _LABEL_TYPES),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
        .map_batches(
            lambda t: _project(t, {"node": "node", "label": "label"}, _LABEL_TYPES),
            batch_format="pyarrow",
        )
        .materialize()
    )
    prev_sum = None
    converged = False
    for _ in range(max_iters):
        neigh = _grouped_join(
            sym_edges,
            labels.map_batches(
                lambda t: _project(t, {"src": "node", "label": "label"}, _SL),
                batch_format="pyarrow",
            ),
            left_key="src", right_key="src",
            left_cols={"dst": pa.int64()}, right_cols={"label": pa.int64()},
        )
        own = labels.map_batches(
            lambda t: _project(t, {"dst": "node", "label": "label"}, _DL),
            batch_format="pyarrow",
        )
        labels = (
            neigh.union(own)
            .groupby("dst")
            .aggregate(Min("label", alias_name="label"))
            .map_batches(
                lambda t: _project(t, {"node": "dst", "label": "label"}, _LABEL_TYPES),
                batch_format="pyarrow",
            )
            .materialize()
        )
        cur_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        raise RuntimeError(
            f"min-label propagation did not converge in {max_iters} rounds "
            "(component diameter exceeds max_iters); raise max_iters"
        )
    return labels


def minhash_dedup_ds(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 3,
    threshold: float = 0.8,
    seed: int = 7,
    cc: str = "auto",
    driver_edge_budget: int = 1_000_000,
    num_partitions: int = 4,
    endpoint_broadcast_budget: int = 20_000_000,
) -> Dataset:
    """Near-duplicate clusters via MinHash-LSH — fully distributed.

    Returns a Dataset of (``id_col``, cluster_id = min doc_id of the
    verified cluster), one row per doc in a cluster of size >= 2. Nothing
    corpus-sized touches the driver at any stage:

      1. signatures+banding : vectorized CSR minhash in ``map_batches``;
                              candidate pairs from ``groupby(band, band_hash)``
                              (member ↔ group-min) — slim id rows only
      2. set attach         : ONE corpus-sized exchange — shingle-hash SETS
                              (not raw text) union'd with pair-halves keyed
                              by endpoint id; each pair picks up both
                              endpoints' sets (duplicates from band
                              collisions collapse here)
      3. verify             : ``groupby(id_a, id_b)`` — the two halves meet;
                              exact set Jaccard >= threshold in-group
      4. components         : min-label propagation — distributed Dataset
                              iterations when the verified edge count exceeds
                              ``driver_edge_budget`` (or ``cc="distributed"``);
                              below it the id-only edge list (16 B/edge, no
                              text) collapses to a driver union-find.

    Raw text never shuffles; the only corpus-sized exchange carries each
    doc's shingle sketch exactly once.

    At 100-TB scale consume this Dataset with ``write_parquet``; the
    :func:`minhash_dedup` wrapper collects it for the small-result contract.
    """
    from astrologer_ray import ensure_hash_shuffle

    # shuffle fan-out follows the requested partition count: exchange fixed
    # cost scales with aggregator count, so partitions must follow data
    # volume (~64 MiB each at scale), not CPU count
    ensure_hash_shuffle(max(8, num_partitions))
    import ray.data as rd

    if cc not in ("auto", "driver", "distributed"):
        raise ValueError(f"unknown cc {cc!r}: auto|driver|distributed")


    banded = ds.map_batches(
        MinHashBands,
        fn_constructor_kwargs=dict(
            text_col=text_col, id_col=id_col, num_perm=num_perm,
            bands=bands, seed=seed, shingle_k=shingle_k,
        ),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )

    def collect_pairs(g: pa.Table) -> pa.Table:
        ids = np.unique(np.asarray(g[id_col]).astype(np.int64))
        if len(ids) < 2:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        # pair every member with the group min — enough for connectivity
        lo = int(ids.min())
        others = ids[ids != lo]
        return pa.table(
            {"id_a": pa.array(np.full(len(others), lo)), "id_b": pa.array(others)}
        )

    pairs = (
        banded.groupby(["band", "band_hash"])
        .map_groups(collect_pairs, batch_format="pyarrow")
        .map_batches(
            lambda t: _project(t, {"id_a": "id_a", "id_b": "id_b"}, _PAIR_TYPES),
            batch_format="pyarrow",
        )
        .materialize()
    )  # duplicate (id_a, id_b) across bands collapse inside the attach join
    n_pairs = pairs.count()
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "cluster_id": pa.array([], pa.int64())})
    if n_pairs == 0:
        return rd.from_arrow(empty)

    HALF_SCHEMA = pa.schema([
        ("k", pa.int64()), ("kind", pa.int8()),
        ("id_a", pa.int64()), ("id_b", pa.int64()),
        ("sh", pa.list_(pa.uint64())),
    ])
    PAIR_SET_SCHEMA = pa.schema([
        ("id_a", pa.int64()), ("id_b", pa.int64()), ("sh", pa.list_(pa.uint64())),
    ])

    def doc_sets(t: pa.Table) -> pa.Table:
        """kind=1 rows: (k=doc id, shingle-hash set). The only corpus-sized
        payload in the whole pipeline — a numeric sketch, never raw text."""
        ids = np.asarray(t[id_col]).astype(np.int64)
        sh_list = [_shingle_hashes(s, shingle_k) for s in t[text_col].to_pylist()]
        counts = np.fromiter((len(x) for x in sh_list), dtype=np.int32,
                             count=len(sh_list))
        flat = (np.concatenate(sh_list) if counts.sum()
                else np.empty(0, dtype=np.uint64))
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        n = len(ids)
        return pa.Table.from_arrays(
            [pa.array(ids), pa.array(np.ones(n, dtype=np.int8)),
             pa.array(ids), pa.array(np.full(n, -1, dtype=np.int64)),
             pa.ListArray.from_arrays(offsets, pa.array(flat, pa.uint64()))],
            schema=HALF_SCHEMA,
        )

    def pair_halves(t: pa.Table) -> pa.Table:
        """kind=0 rows: each candidate pair keyed by each endpoint."""
        if t.num_rows == 0 or "id_a" not in t.column_names:
            return HALF_SCHEMA.empty_table()
        a = np.asarray(t["id_a"]).astype(np.int64)
        b = np.asarray(t["id_b"]).astype(np.int64)
        k = np.concatenate([a, b])
        n = len(k)
        return pa.Table.from_arrays(
            [pa.array(k), pa.array(np.zeros(n, dtype=np.int8)),
             pa.array(np.concatenate([a, a])), pa.array(np.concatenate([b, b])),
             pa.ListArray.from_arrays(
                 np.zeros(n + 1, dtype=np.int32), pa.array([], pa.uint64())
             )],
            schema=HALF_SCHEMA,
        )

    def attach_sets(g: pa.Table) -> pa.Table:
        kind = np.asarray(g["kind"])
        di = np.flatnonzero(kind == 1)
        pi = np.flatnonzero(kind == 0)
        if len(di) == 0 or len(pi) == 0:
            return PAIR_SET_SCHEMA.empty_table()
        # dedupe duplicate band-collision halves, then attach this doc's set
        ab = np.stack([np.asarray(g["id_a"])[pi], np.asarray(g["id_b"])[pi]], axis=1)
        ab = np.unique(ab, axis=0)
        sh = g["sh"][int(di[0])]
        return pa.table(
            {"id_a": pa.array(ab[:, 0]), "id_b": pa.array(ab[:, 1]),
             "sh": pa.array([sh.as_py()] * len(ab), pa.list_(pa.uint64()))},
        ).cast(PAIR_SET_SCHEMA)

    def verify_group(g: pa.Table) -> pa.Table:
        if g.num_rows < 2 or "sh" not in g.column_names:
            return pa.schema(list(_PAIR_TYPES.items())).empty_table()
        a = set(g["sh"][0].as_py())
        b = set(g["sh"][1].as_py())
        jac = 1.0 if (not a and not b) else (
            0.0 if (not a or not b) else len(a & b) / len(a | b)
        )
        if jac < threshold:
            return pa.schema(list(_PAIR_TYPES.items())).empty_table()
        return pa.table({"id_a": g["id_a"].slice(0, 1), "id_b": g["id_b"].slice(0, 1)}
                        ).cast(pa.schema(list(_PAIR_TYPES.items())))

    halves = pairs.map_batches(pair_halves, batch_format="pyarrow")

    # Semi-join the sketch exchange: only docs that are an endpoint of some
    # candidate pair need their shingle set shipped — at typical near-dup
    # rates that's a small fraction of the corpus, so filtering the corpus
    # against a broadcast endpoint-id set shrinks the one big exchange from
    # corpus-sized to candidate-sized. The endpoint list is ids only
    # (8 B each); when candidates exceed the broadcast budget the near-dup
    # fraction is so large that shipping every set is the right plan anyway.
    candidates = ds.select_columns([id_col, text_col])
    if n_pairs * 2 <= endpoint_broadcast_budget:
        import ray

        def flat_ids(t: pa.Table) -> pa.Table:
            a = np.asarray(t["id_a"]).astype(np.int64)
            b = np.asarray(t["id_b"]).astype(np.int64)
            return pa.table({"k": pa.array(
                np.unique(np.concatenate([a, b])), pa.int64())})

        ep = np.unique(np.asarray(
            pairs.map_batches(flat_ids, batch_format="pyarrow")
            .to_pandas()["k"], dtype=np.int64))
        ep_ref = ray.put(ep)

        def is_endpoint(t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col]).astype(np.int64)
            eps = ray.get(ep_ref)
            pos = np.searchsorted(eps, ids)
            pos[pos >= len(eps)] = 0
            return t.filter(pa.array(eps[pos] == ids))

        candidates = candidates.map_batches(is_endpoint, batch_format="pyarrow")
    else:
        logger.info(
            "minhash: %d candidate pairs exceed endpoint broadcast budget "
            "%d; shipping every doc's shingle set", n_pairs,
            endpoint_broadcast_budget)

    # shingles are recomputed here for candidate docs only (banding already
    # hashed them once for every doc): caching them instead would mean
    # materializing a corpus-sized sketch column to serve a candidate-sized
    # read — recompute on the filtered subset is strictly cheaper.
    sets = candidates.map_batches(doc_sets, batch_format="pyarrow")
    verified = (
        sets.union(halves)
        .groupby("k")
        .map_groups(attach_sets, batch_format="pyarrow")
        .groupby(["id_a", "id_b"])
        .map_groups(verify_group, batch_format="pyarrow")
        .map_batches(
            lambda t: _project(t, {"id_a": "id_a", "id_b": "id_b"}, _PAIR_TYPES),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_edges = verified.count()
    logger.debug("minhash: %d verified edges", n_edges)
    if n_edges == 0:
        return rd.from_arrow(empty)

    use_driver = cc == "driver" or (cc == "auto" and n_edges <= driver_edge_budget)
    if use_driver:
        ep = verified.to_pandas()  # ids only; bounded by driver_edge_budget
        labels_t = _cc_min_label_driver(
            ep["id_a"].to_numpy(np.int64), ep["id_b"].to_numpy(np.int64)
        )
        labels = rd.from_arrow(labels_t)
    else:
        labels = _cc_min_label_ds(verified, num_partitions=num_partitions)
    return labels.map_batches(
        lambda t: _project(t, {id_col: "node", "cluster_id": "label"},
                           {id_col: pa.int64(), "cluster_id": pa.int64()}),
        batch_format="pyarrow",
    )


def minhash_dedup(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    **kwargs,
) -> pa.Table:
    """Small-result wrapper over :func:`minhash_dedup_ds`: collects the
    (doc_id, cluster_id) table sorted by (cluster_id, doc_id). Every doc in
    a verified cluster has a partner, so all rows are real near-dups."""
    out = minhash_dedup_ds(ds, text_col, id_col, **kwargs).to_pandas()
    if len(out) == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "cluster_id": pa.array([], pa.int64())})
    out = out.sort_values(["cluster_id", id_col]).reset_index(drop=True)
    return pa.Table.from_pandas(out[[id_col, "cluster_id"]], preserve_index=False)


# ------------------------------------------------------------------- simhash


def simhash64(text: str) -> int:
    """64-bit SimHash over simple tokens weighted by tf."""
    toks = _SIMPLE_RE.findall((text or "").lower())
    if not toks:
        return 0
    uniq, counts = np.unique(np.array(toks, dtype=object), return_counts=True)
    hs = np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(u.encode(), digest_size=8).digest(), "big")
            for u in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    acc = ((bits * 2 - 1) * counts[:, None].astype(np.int64)).sum(axis=0)
    out = np.uint64(0)
    for j in range(64):
        if acc[j] > 0:
            out |= np.uint64(1) << np.uint64(j)
    return int(out)


def simhash_stage(ds: Dataset, text_col: str = "text", keep: list[str] | None = None) -> Dataset:
    keep = keep or []

    def fn(t: pa.Table) -> pa.Table:
        out = {n: t[n] for n in (keep or [c for c in t.column_names if c != text_col])}
        out["simhash"] = pa.array(
            [simhash64(s) >> 1 for s in t[text_col].to_pylist()], pa.int64()
        )  # >>1 keeps it in int64 range for parquet/SQL friendliness
        return pa.table(out)

    return ds.map_batches(fn, batch_format="pyarrow")


# ------------------------------------------------- embedding cosine near-dup


def embedding_near_dup_pairs(
    ds: Dataset, vec_col: str = "embedding", id_col: str = "vec_id",
    threshold: float = 0.95, *, method: str = "lsh",
    n_planes: int = 10, n_tables: int = 8, seed: int = 13,
    num_partitions: int = 8, endpoint_broadcast_budget: int = 2_000_000,
) -> pa.Table:
    """Cosine near-dup pairs (id_a < id_b, cosine >= threshold).

    ``method="lsh"`` (default, the scale path), in the same two-phase
    semi-join shape as :func:`minhash_dedup_ds`: (1) candidate generation
    shuffles ID-ONLY ``(table, bucket, id)`` rows for ``n_tables``
    independent sign-random-projection tables — the vectors themselves
    never ride the wide exchange; (2) candidates are verified with exact
    cosine, either against a ``ray.put`` broadcast of just the candidate
    ENDPOINTS' normalized vectors (zero further exchanges; when
    ``2*n_pairs <= endpoint_broadcast_budget``) or via a grouped-join
    attach whose volume is candidate-sized, not corpus-sized. Every
    reported pair is exact; recall < 1 only for pairs no table co-buckets
    (measured against brute force in tests). ``method="brute"`` is the
    exact O(N^2) oracle: it broadcasts the full normalized matrix
    (small-N / test use only).
    """
    if method == "brute":
        return _embedding_near_dup_brute(ds, vec_col, id_col, threshold)
    if method != "lsh":
        raise ValueError(f"unknown method {method!r}: lsh|brute")
    import ray

    from astrologer_ray import ensure_hash_shuffle

    ensure_hash_shuffle()

    class BucketEmitIds:
        """One ID-ONLY row per (table, vector): the bucket exchange carries
        (table:int32, bucket:int64, id:int64) — ~20 B/row — instead of the
        full normalized vector, cutting the candidate-generation shuffle by
        ~dim*8/20 per table (the round-2 design shipped every vector
        n_tables times). Vectors are read here only to compute the sign
        projections; they never ride this exchange."""

        def __init__(self):
            self.planes = None  # built on first batch (needs dim); seeded

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col]).astype(np.int64)
            M = np.stack(t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
            if self.planes is None:
                rng = np.random.default_rng(seed)
                self.planes = rng.standard_normal((n_tables, n_planes, M.shape[1]))
            Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
            shifts = np.arange(n_planes, dtype=np.uint64)
            tabs, bucks = [], []
            for ti in range(n_tables):
                bits = (Mn @ self.planes[ti].T) > 0
                bk = (bits.astype(np.uint64) << shifts).sum(axis=1).astype(np.int64)
                tabs.append(np.full(len(ids), ti, dtype=np.int32))
                bucks.append(bk)
            return pa.table(
                {
                    "table": pa.array(np.concatenate(tabs)),
                    "bucket": pa.array(np.concatenate(bucks)),
                    id_col: pa.array(np.tile(ids, n_tables)),
                }
            )

    _CAND_TYPES = {"id_a": pa.int64(), "id_b": pa.int64()}

    def bucket_candidates(g: pa.Table) -> pa.Table:
        """All within-bucket id pairs (a < b) — candidates, not yet scored.
        Buckets are ~N/2^n_planes docs, so the m^2 blowup is bounded by the
        plane count; pairs are 16 B each."""
        ids = np.unique(np.asarray(g[id_col]).astype(np.int64))
        if len(ids) < 2:
            return pa.schema(list(_CAND_TYPES.items())).empty_table()
        ii, jj = np.triu_indices(len(ids), k=1)
        return pa.table({"id_a": pa.array(ids[ii]), "id_b": pa.array(ids[jj])})

    pairs = (
        ds.select_columns([id_col, vec_col])
        .map_batches(BucketEmitIds, batch_format="pyarrow", concurrency=(1, 8))
        .groupby(["table", "bucket"])
        .map_groups(bucket_candidates, batch_format="pyarrow")
        .groupby(["id_a", "id_b"])            # dedup across tables
        .map_groups(_first_row, batch_format="pyarrow")
        .map_batches(
            lambda t: _project(t, {"id_a": "id_a", "id_b": "id_b"}, _CAND_TYPES),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_pairs = pairs.count()
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})
    if n_pairs == 0:
        return empty

    # ---- exact-cosine verification of the candidates. Semi-join shape as
    # minhash: only candidate ENDPOINTS need their vector shipped anywhere.
    if n_pairs * 2 <= endpoint_broadcast_budget:
        # endpoints fit a broadcast: collect their normalized vectors once
        # (ray.put), verify pairs with zero further exchanges
        pt = pairs.to_arrow_refs()
        # drop Ray's schema-less empty blocks before concat (2.49 quirk)
        cand = pa.concat_tables(
            [b for b in ray.get(pt) if b.num_columns]
        )
        ep = np.unique(np.concatenate(
            [np.asarray(cand["id_a"]), np.asarray(cand["id_b"])]
        ).astype(np.int64))
        ep_ref = ray.put(ep)

        def endpoint_vecs(t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col]).astype(np.int64)
            keep = np.isin(ids, ray.get(ep_ref))
            return t.filter(pa.array(keep))

        evt = (
            ds.select_columns([id_col, vec_col])
            .map_batches(endpoint_vecs, batch_format="pyarrow")
            .to_arrow_refs()
        )
        ev = pa.concat_tables(ray.get(evt))
        eids = np.asarray(ev[id_col]).astype(np.int64)
        M = np.stack(ev[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        o = np.argsort(eids)
        vec_ref = ray.put((eids[o], M[o]))

        class VerifyPairs:
            def __init__(self):
                self.ids, self.M = ray.get(vec_ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                a = np.asarray(t["id_a"]).astype(np.int64)
                b = np.asarray(t["id_b"]).astype(np.int64)
                ia = np.searchsorted(self.ids, a)
                ib = np.searchsorted(self.ids, b)
                cos = np.einsum("ij,ij->i", self.M[ia], self.M[ib])
                keep = cos >= threshold
                return pa.table(
                    {"id_a": pa.array(a[keep]), "id_b": pa.array(b[keep]),
                     "cosine": pa.array(cos[keep], pa.float64())}
                )

        out = (
            pairs.map_batches(VerifyPairs, batch_format="pyarrow",
                              concurrency=(1, 8))
            .to_pandas()
        )
    else:
        # candidate fraction too large to broadcast: grouped-join attach —
        # each pair keyed by each endpoint meets that endpoint's vector in
        # ONE groupby(k), then the halves meet in groupby(id_a, id_b).
        half_types = {"k": pa.int64(), "kind": pa.int8(), "id_a": pa.int64(),
                      "id_b": pa.int64(), "nvec": pa.list_(pa.float64())}
        half_schema = pa.schema(list(half_types.items()))

        def pair_halves(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "id_a" not in t.column_names:
                return half_schema.empty_table()
            a = np.asarray(t["id_a"]).astype(np.int64)
            b = np.asarray(t["id_b"]).astype(np.int64)
            n = 2 * len(a)
            return pa.Table.from_arrays(
                [pa.array(np.concatenate([a, b])),
                 pa.array(np.zeros(n, dtype=np.int8)),
                 pa.array(np.concatenate([a, a])),
                 pa.array(np.concatenate([b, b])),
                 pa.ListArray.from_arrays(np.zeros(n + 1, dtype=np.int32),
                                          pa.array([], pa.float64()))],
                schema=half_schema,
            )

        def vec_rows(t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col]).astype(np.int64)
            M = np.stack(t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
            M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
            n, dim = M.shape
            return pa.Table.from_arrays(
                [pa.array(ids), pa.array(np.ones(n, dtype=np.int8)),
                 pa.array(np.zeros(n, dtype=np.int64)),
                 pa.array(np.zeros(n, dtype=np.int64)),
                 pa.ListArray.from_arrays(
                     (np.arange(n + 1) * dim).astype(np.int32),
                     pa.array(M.reshape(-1), pa.float64()))],
                schema=half_schema,
            )

        attached_types = {"id_a": pa.int64(), "id_b": pa.int64(),
                          "nvec": pa.list_(pa.float64())}

        def attach_vec(g: pa.Table) -> pa.Table:
            kind = np.asarray(g["kind"])
            di = np.flatnonzero(kind == 1)
            pi = np.flatnonzero(kind == 0)
            if len(di) == 0 or len(pi) == 0:
                return pa.schema(list(attached_types.items())).empty_table()
            ab = np.stack([np.asarray(g["id_a"])[pi],
                           np.asarray(g["id_b"])[pi]], axis=1)
            ab = np.unique(ab, axis=0)
            v = g["nvec"][int(di[0])].as_py()
            return pa.table(
                {"id_a": pa.array(ab[:, 0]), "id_b": pa.array(ab[:, 1]),
                 "nvec": pa.array([v] * len(ab), pa.list_(pa.float64()))}
            ).cast(pa.schema(list(attached_types.items())))

        def verify_pair(g: pa.Table) -> pa.Table:
            if g.num_rows < 2 or "nvec" not in g.column_names:
                return empty.schema.empty_table()
            va = np.asarray(g["nvec"][0].as_py())
            vb = np.asarray(g["nvec"][1].as_py())
            cos = float(va @ vb)
            if cos < threshold:
                return empty.schema.empty_table()
            return pa.table({"id_a": g["id_a"].slice(0, 1),
                             "id_b": g["id_b"].slice(0, 1),
                             "cosine": pa.array([cos], pa.float64())}
                            ).cast(empty.schema)

        halves = pairs.map_batches(pair_halves, batch_format="pyarrow")
        vecs = ds.select_columns([id_col, vec_col]).map_batches(
            vec_rows, batch_format="pyarrow"
        )
        out = (
            halves.union(vecs)
            .groupby("k")
            .map_groups(attach_vec, batch_format="pyarrow")
            .groupby(["id_a", "id_b"])
            .map_groups(verify_pair, batch_format="pyarrow")
            .map_batches(
                lambda t: _project(
                    t, {c: c for c in ("id_a", "id_b", "cosine")},
                    {"id_a": pa.int64(), "id_b": pa.int64(),
                     "cosine": pa.float64()},
                ),
                batch_format="pyarrow",
            )
            .to_pandas()
        )
    if len(out) == 0:
        return empty
    out = out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out[["id_a", "id_b", "cosine"]], preserve_index=False)


def _embedding_near_dup_brute(
    ds: Dataset, vec_col: str = "embedding", id_col: str = "vec_id",
    threshold: float = 0.95,
) -> pa.Table:
    """Exact all-pairs oracle: broadcasts the full normalized matrix
    (``ray.put`` once) and matmuls every batch against it. O(N^2) compute,
    full-matrix driver materialization — small-N / test-oracle use only;
    the LSH path is the default at scale.
    """
    import ray

    full = ds.select_columns([id_col, vec_col]).to_pandas()
    ids = full[id_col].to_numpy().astype(np.int64)
    M = np.stack(full[vec_col].to_numpy())
    M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids, M.astype(np.float64)))

    class PairFinder:
        def __init__(self):
            self.ids, self.M = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            bids = np.asarray(t[id_col]).astype(np.int64)
            B = np.stack(t[vec_col].to_numpy(zero_copy_only=False))
            B = B / np.maximum(np.linalg.norm(B, axis=1, keepdims=True), 1e-12)
            sims = B.astype(np.float64) @ self.M.T
            ii, jj = np.nonzero(sims >= threshold)
            keep = bids[ii] < self.ids[jj]
            return pa.table(
                {
                    "id_a": pa.array(bids[ii][keep], pa.int64()),
                    "id_b": pa.array(self.ids[jj][keep], pa.int64()),
                    "cosine": pa.array(sims[ii, jj][keep], pa.float64()),
                }
            )

    out = ds.map_batches(PairFinder, batch_format="pyarrow", concurrency=(1, 8)).to_pandas()
    if len(out) == 0:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    out = out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out[["id_a", "id_b", "cosine"]], preserve_index=False)


# ---------------------------------------------------------- n-gram Jaccard


def ngram_jaccard_pairs(
    ds: Dataset, text_col: str = "text", id_col: str = "doc_id",
    threshold: float = 0.8, n: int = 3,
) -> pa.Table:
    """EXACT word-n-gram Jaccard near-dup pairs (id_a < id_b, jac >= thr).

    The non-probabilistic sibling of :func:`minhash_dedup_ds` (same shingle
    universe the reference-style LSH approximates): Jaccard over each doc's
    DISTINCT set of ``n``-token shingles from the simple ``[a-z0-9]+``
    split — token-for-token the SQL split the DuckDB oracle uses.

    Distributed shape (no all-pairs anywhere):
      1. shingle rows  : ``(h, doc_id)`` per distinct shingle, hashed 63-bit
                         — text never shuffles, only 16 B rows.
      2. sizes         : per-doc distinct-shingle counts, computed INSIDE
                         the emit block (a doc's rows are co-block), no
                         exchange.
      3. intersections : ``groupby(h)`` -> per-shingle co-occurring pairs ->
                         ``groupby(id_a, id_b).count()`` = |A ∩ B|. Only
                         docs sharing a shingle ever pair.
      4. jaccard       : two grouped joins attach |A| and |B|;
                         ``jac = c / (na + nb - c)``; filter + sort.

    Skew note: a shingle shared by *m* docs emits m(m-1)/2 id pairs — at
    corpus scale, strip boilerplate first or raise ``n``; the pair rows are
    16 B so the exchange tolerates substantial overlap before it binds.

    Docs with fewer than ``n`` tokens have no shingles and never pair
    (matches the SQL oracle).
    """
    import hashlib as _hl

    from ray.data.aggregate import Count

    from astrologer_ray import ensure_hash_shuffle

    ensure_hash_shuffle()

    sh_schema = pa.schema([("h", pa.int64()), (id_col, pa.int64()),
                           ("nsh", pa.int64())])
    size_schema = pa.schema([(id_col, pa.int64()), ("nsh", pa.int64())])

    def shingle_rows(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col]).astype(np.int64)
        texts = t[text_col].to_pylist()
        hs_all, id_all, nsh_all = [], [], []
        for d, tx in zip(ids, texts):
            toks = _SIMPLE_RE.findall((tx or "").lower())
            if len(toks) < n:
                continue
            uniq = {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}
            hs = np.fromiter(
                (int.from_bytes(
                    _hl.blake2b(s.encode(), digest_size=8).digest(), "big"
                ) >> 1 for s in uniq),
                dtype=np.int64, count=len(uniq),
            )
            hs_all.append(hs)
            id_all.append(np.full(len(hs), d, dtype=np.int64))
            # |A| computed HERE, per doc, where all of a doc's rows are in
            # hand by construction — never re-derived from per-block row
            # counts downstream, which dynamic block splitting can shear
            nsh_all.append(np.full(len(hs), len(uniq), dtype=np.int64))
        if not hs_all:
            return sh_schema.empty_table()
        return pa.table({"h": np.concatenate(hs_all),
                         id_col: np.concatenate(id_all),
                         "nsh": np.concatenate(nsh_all)}, schema=sh_schema)

    shingles = ds.select_columns([id_col, text_col]).map_batches(
        shingle_rows, batch_format="pyarrow"
    ).materialize()

    def block_sizes(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or id_col not in t.column_names:
            return size_schema.empty_table()
        ids = np.asarray(t[id_col])
        first = np.unique(ids, return_index=True)[1]
        return pa.table({id_col: ids[first],
                         "nsh": np.asarray(t["nsh"])[first].astype(np.int64)},
                        schema=size_schema)

    # per-doc sizes broadcast (16 B/doc) — at 10^9 docs that is ~16 GB
    # plasma, the documented ceiling; shard the corpus above it. A doc whose
    # rows span a block boundary yields duplicate (id, nsh) rows that AGREE
    # (nsh is carried on the row), so the unique-by-id below is exact.
    import ray

    sref = shingles.select_columns([id_col, "nsh"]).map_batches(
        block_sizes, batch_format="pyarrow").to_arrow_refs()
    st = pa.concat_tables([b for b in ray.get(sref) if b.num_columns])
    sid = np.asarray(st[id_col]).astype(np.int64)
    scount = np.asarray(st["nsh"]).astype(np.int64)
    o = np.argsort(sid)
    sid, scount = sid[o], scount[o]
    first = np.unique(sid, return_index=True)[1]
    sizes_ref = ray.put((sid[first], scount[first]))

    _CT = {"id_a": pa.int64(), "id_b": pa.int64()}
    ct_schema = pa.schema(list(_CT.items()))

    # hash-partition by h; materialize so the interior and boundary passes
    # below observe the SAME block boundaries
    part = (
        shingles.select_columns(["h", id_col])
        .repartition(8, keys=["h"], sort=True)
        .materialize()
    )

    def _runs(t: pa.Table):
        h = np.asarray(t["h"]).astype(np.int64)
        ids = np.asarray(t[id_col]).astype(np.int64)
        o2 = np.lexsort((ids, h))
        h, ids = h[o2], ids[o2]
        starts = np.concatenate(([0], np.flatnonzero(h[1:] != h[:-1]) + 1,
                                 [len(h)]))
        return h, ids, starts

    def _triu_pairs(run_starts, run_ids):
        aa, bb = [], []
        for s, e in run_starts:
            grp = np.unique(run_ids[s:e])
            if len(grp) < 2:
                continue
            ii, jj = np.triu_indices(len(grp), k=1)
            aa.append(grp[ii])
            bb.append(grp[jj])
        if not aa:
            return ct_schema.empty_table()
        return pa.table({"id_a": np.concatenate(aa), "id_b": np.concatenate(bb)},
                        schema=ct_schema)

    def interior_pairs(t: pa.Table) -> pa.Table:
        """Co-shingle id pairs for runs that are provably whole: dynamic
        block splitting can shear a reduce task's sorted output mid-run,
        but only at block edges — every h except a block's min and max h
        has ALL its rows in this block. Vectorized run detection + per-run
        triu touch only shingles with >= 2 docs."""
        if t.num_rows == 0 or "h" not in t.column_names:
            return ct_schema.empty_table()
        h, ids, starts = _runs(t)
        spans = [(starts[i], starts[i + 1])
                 for i in range(1, len(starts) - 2)
                 if starts[i + 1] - starts[i] >= 2]
        return _triu_pairs(spans, ids)

    def edge_rows(t: pa.Table) -> pa.Table:
        """The possibly-split runs: each block's first and last h. Tiny
        (<= 2 runs per block); merged globally on the driver."""
        if t.num_rows == 0 or "h" not in t.column_names:
            return pa.schema([("h", pa.int64()), (id_col, pa.int64())]
                             ).empty_table()
        h, ids, starts = _runs(t)
        lo = slice(starts[0], starts[1])
        hi = slice(starts[-2], starts[-1])
        keep_h = np.concatenate([h[lo], h[hi]] if len(starts) > 2 else [h[lo]])
        keep_i = np.concatenate([ids[lo], ids[hi]] if len(starts) > 2
                                else [ids[lo]])
        return pa.table({"h": keep_h, id_col: keep_i})

    eref = part.map_batches(edge_rows, batch_format="pyarrow",
                            batch_size=None).to_arrow_refs()
    et = pa.concat_tables([b for b in ray.get(eref) if b.num_columns])
    if et.num_rows:
        eh, eids, estarts = _runs(et)
        spans = [(estarts[i], estarts[i + 1]) for i in range(len(estarts) - 1)
                 if estarts[i + 1] - estarts[i] >= 2]
        edge_pairs = _triu_pairs(spans, eids)
    else:
        edge_pairs = ct_schema.empty_table()

    import ray.data as _rd

    pair_ds = part.map_batches(interior_pairs, batch_format="pyarrow",
                               batch_size=None)
    if edge_pairs.num_rows:
        pair_ds = pair_ds.union(_rd.from_arrow(edge_pairs))
    inter = pair_ds.groupby(["id_a", "id_b"]).aggregate(Count(alias_name="c"))

    def score(t: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64()),
                          "jac": pa.array([], pa.float64())})
        if t.num_rows == 0 or "c" not in t.column_names:
            return empty
        kid, kn = ray.get(sizes_ref)
        a = np.asarray(t["id_a"]).astype(np.int64)
        b = np.asarray(t["id_b"]).astype(np.int64)
        c = np.asarray(t["c"]).astype(np.float64)
        na = kn[np.searchsorted(kid, a)].astype(np.float64)
        nb = kn[np.searchsorted(kid, b)].astype(np.float64)
        jac = c / (na + nb - c)
        keep = jac >= threshold
        return pa.table({"id_a": pa.array(a[keep]), "id_b": pa.array(b[keep]),
                         "jac": pa.array(jac[keep], pa.float64())})

    out = inter.map_batches(score, batch_format="pyarrow").to_pandas()
    if len(out) == 0:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "jac": pa.array([], pa.float64())})
    out = out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out[["id_a", "id_b", "jac"]], preserve_index=False)


# ------------------------------------------------------- duplicate substrings


_ROLL_A1 = np.uint64(0x9E3779B97F4A7C15)  # odd -> invertible mod 2^64
_ROLL_A2 = np.uint64(0xC2B2AE3D27D4EB4F)
_ROLL_A1_INV = np.uint64(pow(int(_ROLL_A1), -1, 1 << 64))
_ROLL_A2_INV = np.uint64(pow(int(_ROLL_A2), -1, 1 << 64))


def _pow_series(a: np.uint64, n: int) -> np.ndarray:
    """[a^0, a^1, ..., a^(n-1)] mod 2^64 (uint64 wraparound cumprod)."""
    p = np.empty(n, dtype=np.uint64)
    p[0] = 1
    if n > 1:
        np.multiply.accumulate(np.full(n - 1, a, dtype=np.uint64),
                               out=p[1:])
    return p


def _poly_window_hash(tok_h: np.ndarray, a: np.uint64, a_inv: np.uint64,
                      w: int) -> np.ndarray:
    """Rolling polynomial hash of every length-``w`` window of the
    uint64 stream ``tok_h``: W(i) = sum_j tok_h[i+j] * a^j mod 2^64,
    computed for ALL windows with two cumulative passes —
    W(i) = (P(i+w) - P(i)) * a^(-i) where P is the prefix sum of
    tok_h[j] * a^j. Equal windows hash equal exactly; two independent
    multipliers give 128 collision-resistant bits overall."""
    L = len(tok_h)
    nw = L - w + 1
    pw = _pow_series(a, L)
    pref = np.zeros(L + 1, dtype=np.uint64)
    np.cumsum(tok_h * pw, out=pref[1:])
    return (pref[w:] - pref[:-w]) * _pow_series(a_inv, nw)


def _window_hashes(
    col, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-window 128-bit content hashes for :func:`duplicate_spans`,
    fully vectorized (the r4 advice replaced a per-window-position
    Python ``hashlib.blake2b`` loop): tokenize the whole batch in C
    kernels (lower + split + flatten + dictionary_encode — the simple
    ``[a-z0-9]+`` split, token-for-token the SQL oracle's), blake2b
    only the batch's DISTINCT tokens into two uint64 halves, then
    combine token hashes into window hashes with a vectorized rolling
    polynomial (two independent odd multipliers mod 2^64).

    Window equality: tokens contain no separators, so a window's token
    tuple determines its content; equal tuples give equal (h1, h2) and
    unequal tuples collide with probability ~2^-128 per pair — the same
    exactness contract the joined-string blake2b had.

    Returns ``(h1, h2, row_of_win, pos)`` — uint64 hash halves, the
    batch row each window belongs to, and the window's 0-based token
    offset within its row. Windows never cross rows; rows with fewer
    than ``window`` tokens contribute none."""
    from astrologer_ray.functions.tokenizer import flat_simple_tokens

    inv, uniq, doc_of_tok = flat_simple_tokens(col)
    L = len(inv)
    if L < window:
        z = np.empty(0, np.uint64)
        return z, z, np.empty(0, np.int64), np.empty(0, np.int64)
    th1 = np.empty(len(uniq), dtype=np.uint64)
    th2 = np.empty(len(uniq), dtype=np.uint64)
    for u, tok in enumerate(uniq.to_pylist()):  # DISTINCT only
        dg = hashlib.blake2b(tok.encode("utf-8"), digest_size=16).digest()
        th1[u] = int.from_bytes(dg[:8], "big")
        th2[u] = int.from_bytes(dg[8:], "big")
    with np.errstate(over="ignore"):
        h1 = _poly_window_hash(th1[inv], _ROLL_A1, _ROLL_A1_INV, window)
        h2 = _poly_window_hash(th2[inv], _ROLL_A2, _ROLL_A2_INV, window)
    nw = L - window + 1
    valid = doc_of_tok[:nw] == doc_of_tok[window - 1:]
    # token offset within the row: stream index minus the row's first
    # stream index (doc_of_tok is non-decreasing, so searchsorted works)
    first_idx = np.searchsorted(doc_of_tok, doc_of_tok[:nw], side="left")
    pos = np.arange(nw, dtype=np.int64) - first_idx
    return h1[valid], h2[valid], doc_of_tok[:nw][valid], pos[valid]


def duplicate_spans(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 6,
    min_count: int = 2,
    num_partitions: int = 8,
    driver_span_budget: int = 50_000_000,
) -> pa.Table:
    """EXACT cross-corpus duplicate-substring spans (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better"-style).

    A ``window``-token sequence (simple ``[a-z0-9]+`` split — token-for-token
    the SQL split the DuckDB oracle uses) is *duplicated* when the identical
    sequence occurs at least ``min_count`` times anywhere in the corpus
    (other docs or the same doc). Per document, duplicated window positions
    are merged into maximal spans: windows at positions p, q (p < q) join one
    span when ``q - p <= window`` (their token ranges overlap or touch).

    Returns ``(doc_id, start_tok, end_tok, n_windows)`` — inclusive 0-based
    token offsets of each span and the number of duplicated windows merged
    into it — sorted by (doc_id, start_tok). Feed the spans to a cut stage to
    reproduce the paper's substring-removal dedup.

    Distributed shape (text never shuffles):
      1. window rows  : ``(h, h2, doc_id, pos)`` per window — h/h2 are two
                        independent 64-bit rolling polynomial hashes over
                        per-token blake2b values (see
                        :func:`_window_hashes`), so "equal hash" is exact
                        for any real corpus and the kernel is vectorized.
      2. duplicate    : hash-repartition by ``h`` sorted; vectorized run scan
         marking         marks rows whose (h, h2) run length >= min_count.
                        Each block's first and last h-run can be sheared by
                        dynamic block splitting (the ADVICE r3 lesson), so
                        edge runs are deferred and stitched on the driver —
                        same discipline as :func:`ngram_jaccard_pairs`.
      3. span merge   : marked rows are ~the duplicated fraction of the
                        corpus (24 B each). Under ``driver_span_budget`` they
                        collapse driver-side with one vectorized lexsort +
                        island scan; above it the op falls back to a
                        distributed ``groupby(doc_id).map_groups`` merge
                        (a doc's marked windows always fit one task).

    Docs with fewer than ``window`` tokens contribute no windows (matches
    the SQL oracle).
    """
    import ray
    import ray.data as _rd

    from astrologer_ray import ensure_hash_shuffle

    ensure_hash_shuffle()

    win_schema = pa.schema([("h", pa.int64()), ("h2", pa.int64()),
                            (id_col, pa.int64()), ("pos", pa.int64())])
    marked_schema = pa.schema([(id_col, pa.int64()), ("pos", pa.int64())])
    out_schema = pa.schema([(id_col, pa.int64()), ("start_tok", pa.int64()),
                            ("end_tok", pa.int64()), ("n_windows", pa.int64())])

    def win_rows(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col]).astype(np.int64)
        h1, h2, row_of_win, pos = _window_hashes(t[text_col], window)
        if len(h1) == 0:
            return win_schema.empty_table()
        return pa.table({"h": h1.view(np.int64),
                         "h2": h2.view(np.int64),
                         id_col: ids[row_of_win],
                         "pos": pos}, schema=win_schema)

    # materialize BEFORE the keyed repartition: a Dataset captures its
    # DataContext at creation, so the hash-shuffle strategy set above only
    # reaches the repartition through a re-created (materialized) dataset
    wins = ds.select_columns([id_col, text_col]).map_batches(
        win_rows, batch_format="pyarrow").materialize()
    part = wins.repartition(num_partitions, keys=["h"], sort=True).materialize()

    def _sorted_cols(t: pa.Table):
        h = np.asarray(t["h"]).astype(np.int64)
        h2 = np.asarray(t["h2"]).astype(np.int64)
        ids = np.asarray(t[id_col]).astype(np.int64)
        pos = np.asarray(t["pos"]).astype(np.int64)
        o = np.lexsort((pos, ids, h2, h))
        return h[o], h2[o], ids[o], pos[o]

    def _h_run_starts(h: np.ndarray) -> np.ndarray:
        return np.concatenate(([0], np.flatnonzero(h[1:] != h[:-1]) + 1,
                               [len(h)]))

    def _mark_pairs(h, h2, ids, pos, lo: int, hi: int) -> pa.Table:
        """Rows in [lo, hi) whose exact (h, h2) run has >= min_count rows."""
        if hi <= lo:
            return marked_schema.empty_table()
        hh, hh2 = h[lo:hi], h2[lo:hi]
        brk = np.flatnonzero((hh[1:] != hh[:-1]) | (hh2[1:] != hh2[:-1])) + 1
        starts = np.concatenate(([0], brk))
        ends = np.concatenate((brk, [len(hh)]))
        lens = ends - starts
        keep = np.repeat(lens >= min_count, lens)
        if not keep.any():
            return marked_schema.empty_table()
        return pa.table({id_col: ids[lo:hi][keep], "pos": pos[lo:hi][keep]},
                        schema=marked_schema)

    def interior_marked(t: pa.Table) -> pa.Table:
        # every h except the block's min and max has ALL its rows here;
        # edge h-runs are deferred to the driver stitch below
        if t.num_rows == 0 or "h" not in t.column_names:
            return marked_schema.empty_table()
        h, h2, ids, pos = _sorted_cols(t)
        s = _h_run_starts(h)
        return _mark_pairs(h, h2, ids, pos, s[1], s[-2])

    def edge_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return win_schema.empty_table()
        h, h2, ids, pos = _sorted_cols(t)
        s = _h_run_starts(h)
        sel = np.zeros(len(h), dtype=bool)
        sel[s[0]:s[1]] = True
        sel[s[-2]:s[-1]] = True
        return pa.table({"h": h[sel], "h2": h2[sel], id_col: ids[sel],
                         "pos": pos[sel]}, schema=win_schema)

    eref = part.map_batches(edge_rows, batch_format="pyarrow",
                            batch_size=None).to_arrow_refs()
    et = pa.concat_tables([b for b in ray.get(eref) if b.num_columns])
    if et.num_rows:
        h, h2, ids, pos = _sorted_cols(et)
        edge_marked = _mark_pairs(h, h2, ids, pos, 0, len(h))
    else:
        edge_marked = marked_schema.empty_table()

    marked = part.map_batches(interior_marked, batch_format="pyarrow",
                              batch_size=None)
    if edge_marked.num_rows:
        marked = marked.union(_rd.from_arrow(edge_marked))

    def _merge_islands(ids: np.ndarray, pos: np.ndarray) -> pa.Table:
        """Vectorized island merge over (doc-major, pos-minor) sorted rows."""
        if len(ids) == 0:
            return out_schema.empty_table()
        o = np.lexsort((pos, ids))
        ids, pos = ids[o], pos[o]
        brk = (ids[1:] != ids[:-1]) | (pos[1:] - pos[:-1] > window)
        starts = np.concatenate(([0], np.flatnonzero(brk) + 1))
        ends = np.concatenate((np.flatnonzero(brk) + 1, [len(ids)]))
        return pa.table({id_col: ids[starts],
                         "start_tok": pos[starts],
                         "end_tok": pos[ends - 1] + window - 1,
                         "n_windows": (ends - starts).astype(np.int64)},
                        schema=out_schema)

    mref = marked.to_arrow_refs()
    mts = [b for b in ray.get(mref) if b.num_columns and b.num_rows]
    n_marked = sum(b.num_rows for b in mts)
    if n_marked <= driver_span_budget:
        if not mts:
            return out_schema.empty_table()
        mt = pa.concat_tables(mts)
        return _merge_islands(np.asarray(mt[id_col]).astype(np.int64),
                              np.asarray(mt["pos"]).astype(np.int64))

    def merge_doc(g: pa.Table) -> pa.Table:  # pragma: no cover - scale path
        return _merge_islands(np.asarray(g[id_col]).astype(np.int64),
                              np.asarray(g["pos"]).astype(np.int64))

    out = (marked.groupby(id_col)
           .map_groups(merge_doc, batch_format="pyarrow")
           .to_pandas().sort_values([id_col, "start_tok"])
           .reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False, schema=out_schema)


# ------------------------------------------------------------------ semdedup


def semdedup(
    ds: Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
    iters: int = 4,
    threshold: float = 0.9,
    seed: int = 29,
) -> pa.Table:
    """SemDedup (Abbas et al. 2023): embedding-space semantic dedup that
    scales by clustering first — k-means partitions the corpus, then
    near-duplicate pruning runs only WITHIN each cluster, so the pairwise
    work is O(sum m_i^2) instead of O(N^2).

    Pruning rule (deterministic): within a cluster, visit vectors in
    ascending id; drop a vector when its cosine similarity to an
    already-KEPT earlier vector exceeds ``threshold`` (recording that
    survivor as ``dup_of``), else keep it. Greedy-by-id makes the survivor
    set independent of parallelism and of the visit order k-means produced.

    Returns ``(vec_id, cid, keep, dup_of)`` sorted by id (``dup_of`` = -1
    for survivors). Clustering is the deterministic distributed
    :func:`~astrologer_ray.pipelines.ann.kmeans_fit` (per-batch partial
    sums; driver reduce O(blocks*k)); assignment broadcasts the k
    centroids once; pruning is ``groupby(cid).map_groups`` — one cluster
    per task, so size ``k`` to the corpus (m_i ~ N/k rows and an m_i^2
    float block must fit a worker). Cross-cluster near-dups are missed by
    construction — the documented SemDedup recall trade-off.
    """
    import ray

    from astrologer_ray.pipelines.ann import kmeans_fit

    C = kmeans_fit(ds, k=k, iters=iters, vec_col=vec_col, id_col=id_col,
                   seed=seed)

    # assignment is fused with the vector carry: one stateless pass tags
    # each row with its nearest centroid so the groupby ships (id, vec,
    # cid) straight to the per-cluster prune task
    ref = ray.put(np.asarray(C, dtype=np.float64))

    class Tag:
        def __init__(self):
            self.C = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            M = np.stack(t[vec_col].to_numpy(zero_copy_only=False)
                         ).astype(np.float64)
            d2 = ((M * M).sum(axis=1)[:, None] - 2.0 * (M @ self.C.T)
                  + (self.C * self.C).sum(axis=1))
            cid = np.argmin(d2, axis=1).astype(np.int64)
            return pa.table({id_col: t[id_col], vec_col: t[vec_col],
                             "cid": pa.array(cid)})

    out_schema = pa.schema([(id_col, pa.int64()), ("cid", pa.int64()),
                            ("keep", pa.bool_()), ("dup_of", pa.int64())])

    def prune(g: pa.Table) -> pa.Table:
        ids = np.asarray(g[id_col]).astype(np.int64)
        M = np.stack(g[vec_col].to_numpy(zero_copy_only=False)
                     ).astype(np.float64)
        o = np.argsort(ids, kind="mergesort")
        ids, M = ids[o], M[o]
        M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        sims = M @ M.T
        m = len(ids)
        keep = np.zeros(m, dtype=bool)
        dup_of = np.full(m, -1, dtype=np.int64)
        kept_idx: list[int] = []
        for i in range(m):
            if kept_idx:
                s = sims[i, kept_idx]
                j = int(np.argmax(s))
                if s[j] > threshold:
                    dup_of[i] = ids[kept_idx[j]]
                    continue
            keep[i] = True
            kept_idx.append(i)
        cid = int(g["cid"][0].as_py())
        return pa.table({id_col: ids, "cid": np.full(m, cid, np.int64),
                         "keep": keep, "dup_of": dup_of}, schema=out_schema)

    out = (
        ds.select_columns([id_col, vec_col])
        .map_batches(Tag, batch_format="pyarrow", concurrency=(1, 8))
        .groupby("cid")
        .map_groups(prune, batch_format="pyarrow")
        .to_pandas()
        .sort_values(id_col)
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(out, preserve_index=False, schema=out_schema)


# ---------------------------------------------- substring-removal cut

class SpanCutStage:
    """Actor-pool cut stage for :func:`remove_spans`: the span table
    compiles once per actor into ``doc_id -> (starts, ends)`` arrays
    (object-store constructor arg — shipped once, not per batch)."""

    def __init__(self, spans: pa.Table, text_col: str = "text",
                 id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.by_doc: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        ids = spans[id_col].to_numpy()
        st = spans["start_tok"].to_numpy()
        en = spans["end_tok"].to_numpy()
        order = np.lexsort((st, ids))
        ids, st, en = ids[order], st[order], en[order]
        if not len(ids):  # duplicate-free corpus: np.r_[True, empty]
            return      # would fabricate boundary index 0 on empty ids
        for lo in np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]]):
            hi = lo
            while hi < len(ids) and ids[hi] == ids[lo]:
                hi += 1
            self.by_doc[int(ids[lo])] = (st[lo:hi], en[lo:hi])

    def __call__(self, t: pa.Table) -> pa.Table:
        texts, removed = [], []
        for did, tx in zip(t[self.id_col].to_pylist(),
                           t[self.text_col].to_pylist()):
            toks = _SIMPLE_RE.findall((tx or "").lower())
            se = self.by_doc.get(int(did))
            if se is None:
                texts.append(" ".join(toks))
                removed.append(0)
                continue
            keep = np.ones(len(toks), dtype=bool)
            for s, e in zip(*se):
                keep[s:e + 1] = False
            texts.append(" ".join(tok for tok, k in zip(toks, keep) if k))
            removed.append(int((~keep).sum()))
        out = {c: t[c] for c in t.column_names if c != self.text_col}
        out["clean_text"] = pa.array(texts, pa.string())
        out["n_removed_tokens"] = pa.array(removed, pa.int64())
        return pa.table(out)


def remove_spans(
    ds: Dataset,
    spans: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    broadcast_budget: int = 50_000_000,
    concurrency=(1, 8),
    batch_size: int = 512,
) -> Dataset:
    """Apply a :func:`duplicate_spans` cut list — the substring-REMOVAL
    half of Lee et al. 2021: every token inside a span is dropped and
    the survivors re-join with single spaces (canonical whitespace: the
    output is the simple-split token stream minus the cuts, so the op
    stays SQL-oracle-checkable token-for-token).

    Scale shape: documents stream and never shuffle; the span table (two
    int64s per span, only the duplicated fraction of the corpus) ships
    once per actor, guarded by ``broadcast_budget`` — beyond it, cut
    co-partitioned by doc_id instead of broadcasting (raise for now, the
    explicit-budget contract of this module)."""
    if spans.num_rows > broadcast_budget:
        raise RuntimeError(
            f"{spans.num_rows} spans > broadcast_budget={broadcast_budget}; "
            "partition the cut by doc_id or raise the budget"
        )
    return ds.map_batches(
        SpanCutStage,
        fn_constructor_kwargs={
            "spans": spans, "text_col": text_col, "id_col": id_col,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=batch_size,
    )
