"""Similarity search over an embedding column (list<float>).

Brute-force cosine top-k is the exact baseline: the (small) query matrix is
broadcast once via ``ray.put``; every batch does one numpy matmul against it
and emits its local top-k — the global top-k is the merge of per-batch
candidates (exact, since per-batch top-k supersets the global winners that
live in that batch). Zero shuffle; O(N·Q·D) compute streamed per batch.

The scale path is ``ann_lsh_topk``: seeded random-hyperplane LSH buckets
vectors; a query probes only its bucket and Hamming-distance-1 neighbor
buckets — approximate, with recall measured against brute force in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset


def _normalize(M: np.ndarray) -> np.ndarray:
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)


def _topk_ids(s: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k by (score desc, id asc), exact under float ties.

    argpartition alone picks an arbitrary subset among rows tying at the
    k-th score, which can evict a smaller-id row the global (score desc,
    id asc) order would keep; widen the kept set to every row scoring >=
    the k-th value before the exact cut.
    """
    k = min(k, len(s))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if len(s) > 4 * k:
        kth = s[np.argpartition(-s, k - 1)[k - 1]]
        cand = np.flatnonzero(s >= kth)
    else:
        cand = np.arange(len(s))
    return cand[np.lexsort((ids[cand], -s[cand]))[:k]]


def ann_brute_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    qids: np.ndarray | None = None,
    filter_expr: str | None = None,
) -> pa.Table:
    """Exact cosine top-k: (qid, vec_id, cosine), ties (cosine desc, id asc).

    ``filter_expr`` is ES ``knn.filter``: a Ray Data / Arrow dataset
    expression (e.g. ``"label == 3"``) applied BEFORE scoring — a
    pre-filter, so the top-k always holds k matching vectors (ES knn
    semantics), never a post-filtered shortfall — and pushed into the
    scan so non-matching blocks never reach the matmul."""
    import ray

    if filter_expr is not None:
        ds = ds.filter(expr=filter_expr)
    Q = _normalize(np.asarray(queries, dtype=np.float64))
    if qids is None:
        qids = np.arange(len(Q), dtype=np.int64)
    ref = ray.put(Q)

    class BatchTopK:
        def __init__(self):
            self.Q = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col]).astype(np.int64)
            M = _normalize(
                np.stack(t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
            )
            sims = self.Q @ M.T  # (nq, nb)
            kk = min(k, sims.shape[1])
            out_q, out_i, out_s = [], [], []
            for qi in range(sims.shape[0]):
                s = sims[qi]
                order = _topk_ids(s, ids, kk)
                out_q.append(np.full(len(order), qi, dtype=np.int64))
                out_i.append(ids[order])
                out_s.append(s[order])
            return pa.table(
                {
                    "q": pa.array(np.concatenate(out_q)),
                    id_col: pa.array(np.concatenate(out_i)),
                    "cosine": pa.array(np.concatenate(out_s), pa.float64()),
                }
            )

    cand = ds.map_batches(BatchTopK, batch_format="pyarrow", concurrency=(1, 8)).to_pandas()
    if len(cand) == 0:
        cand = pd.DataFrame({"q": [], id_col: [], "cosine": []})
    return _merge_query_topk(
        cand["q"].to_numpy(np.int64), cand[id_col].to_numpy(np.int64),
        cand["cosine"].to_numpy(np.float64), len(Q), k, qids, id_col,
    )


def _merge_query_topk(q, ids, sims, nq, k, qids, id_col) -> pa.Table:
    """Vectorized driver merge of per-batch candidate lists: exact per-query
    top-k by (cosine desc, id asc). Input size is bounded by batches*nq*k."""
    if len(q) == 0:
        return pa.table({"qid": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    out_q, out_i, out_s = [], [], []
    order = np.lexsort((ids, -sims, q))  # group by q, then score desc, id asc
    q, ids, sims = q[order], ids[order], sims[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(q)) + 1, [len(q)]))
    for s_, e_ in zip(starts[:-1], starts[1:]):
        n = min(k, e_ - s_)
        out_q.append(np.full(n, qids[q[s_]], dtype=np.int64))
        out_i.append(ids[s_ : s_ + n])
        out_s.append(sims[s_ : s_ + n])
    if not out_q:
        return pa.table({"qid": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    return pa.table(
        {
            "qid": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_i)),
            "cosine": pa.array(np.concatenate(out_s), pa.float64()),
        }
    )


def ann_lsh_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_planes: int = 12,
    seed: int = 13,
    probe_hamming: int = 1,
) -> pa.Table:
    """Approximate cosine top-k via random-hyperplane LSH bucketing.

    Each vector maps to a ``n_planes``-bit bucket (sign of projection on
    seeded Gaussian hyperplanes). A query scores only vectors in buckets
    within Hamming distance ``probe_hamming`` of its own bucket — at scale
    this is the partition key for the candidate fetch (documented
    partitioning assumption: bucket cardinality 2^n_planes >> #workers).
    """
    import ray

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    dim = Q.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_planes, dim))
    qbits = (Q @ planes.T) > 0
    qbuckets = (qbits.astype(np.uint64) << np.arange(n_planes, dtype=np.uint64)).sum(axis=1)

    # probe set per query: own bucket + hamming-1 neighbors
    probe: list[set[int]] = []
    for qb in qbuckets:
        s = {int(qb)}
        if probe_hamming >= 1:
            for j in range(n_planes):
                s.add(int(qb) ^ (1 << j))
        probe.append(s)
    all_probes = set().union(*probe) if probe else set()

    # per-query probe arrays, broadcast once; each task emits only its local
    # per-query top-k so the driver merges k-sized lists, not raw collisions
    probe_arrs = [np.fromiter(s, dtype=np.uint64) for s in probe]
    all_probe_arr = (
        np.unique(np.concatenate(probe_arrs)) if probe_arrs
        else np.empty(0, dtype=np.uint64)
    )
    ref = ray.put((Q, planes, probe_arrs, all_probe_arr))

    class BucketTopK:
        def __init__(self):
            self.Q, self.planes, self.probe_arrs, self.all_probes = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col]).astype(np.int64)
            M = _normalize(
                np.stack(t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
            )
            bits = (M @ self.planes.T) > 0
            buckets = (bits.astype(np.uint64) << np.arange(bits.shape[1], dtype=np.uint64)).sum(axis=1)
            mask = np.isin(buckets, self.all_probes)
            out_q, out_i, out_s = [], [], []
            if mask.any():
                sub_ids, sub_buckets = ids[mask], buckets[mask]
                sims = self.Q @ M[mask].T  # (nq, ncand)
                for qi, parr in enumerate(self.probe_arrs):
                    m = np.isin(sub_buckets, parr)
                    if not m.any():
                        continue
                    s, cids = sims[qi][m], sub_ids[m]
                    order = _topk_ids(s, cids, k)
                    out_q.append(np.full(len(order), qi, dtype=np.int64))
                    out_i.append(cids[order])
                    out_s.append(s[order])
            if not out_q:
                return pa.table({"q": pa.array([], pa.int64()),
                                 id_col: pa.array([], pa.int64()),
                                 "cosine": pa.array([], pa.float64())})
            return pa.table(
                {
                    "q": pa.array(np.concatenate(out_q)),
                    id_col: pa.array(np.concatenate(out_i)),
                    "cosine": pa.array(np.concatenate(out_s), pa.float64()),
                }
            )

    cand = ds.map_batches(BucketTopK, batch_format="pyarrow", concurrency=(1, 8)).to_pandas()
    if len(cand) == 0:
        cand = pd.DataFrame({"q": [], id_col: [], "cosine": []})
    return _merge_query_topk(
        cand["q"].to_numpy(np.int64), cand[id_col].to_numpy(np.int64),
        cand["cosine"].to_numpy(np.float64), len(Q), k,
        np.arange(len(Q), dtype=np.int64), id_col,
    )


def _kmeans_lite(X: np.ndarray, k: int, seed: int, iters: int = 8) -> np.ndarray:
    """Seeded deterministic k-means on normalized vectors (numpy Lloyd's,
    cosine == dot on the unit sphere). Small driver-side training sample
    only; assignment of the full corpus happens distributed."""
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(k, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for ci in range(len(C)):
            members = X[assign == ci]
            if len(members):
                m = members.sum(axis=0)
                C[ci] = m / max(np.linalg.norm(m), 1e-12)
    return C


def ann_ivf_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_centroids: int = 64,
    n_probe: int = 8,
    train_rows: int = 4096,
    seed: int = 17,
) -> pa.Table:
    """Approximate cosine top-k via IVF (inverted-file) coarse quantization.

    A small seeded sample trains k-means centroids driver-side; centroids +
    queries broadcast once. Each batch assigns its vectors to their nearest
    centroid and scores a vector only for queries probing that centroid
    (each query probes its ``n_probe`` nearest centroids). Per-batch
    per-query top-k keeps the driver merge k-sized. At scale the centroid
    id doubles as the partition key for building a materialized IVF index.
    """
    import ray

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    sample = ds.select_columns([vec_col]).limit(train_rows).to_pandas()
    X = _normalize(np.stack(sample[vec_col].to_numpy()).astype(np.float64))
    C = _kmeans_lite(X, n_centroids, seed)
    qprobe = np.argsort(-(Q @ C.T), axis=1)[:, : min(n_probe, len(C))]
    # centroid -> list of query ids probing it
    probe_of: list[np.ndarray] = [
        np.flatnonzero((qprobe == ci).any(axis=1)) for ci in range(len(C))
    ]
    ref = ray.put((Q, C, probe_of))

    class IVFTopK:
        def __init__(self):
            self.Q, self.C, self.probe_of = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col]).astype(np.int64)
            M = _normalize(
                np.stack(t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
            )
            assign = np.argmax(M @ self.C.T, axis=1)
            out_q, out_i, out_s = [], [], []
            for ci in np.unique(assign):
                qids = self.probe_of[int(ci)]
                if len(qids) == 0:
                    continue
                m = assign == ci
                sub_ids = ids[m]
                sims = self.Q[qids] @ M[m].T  # (nq_probe, ncand)
                for row, qi in enumerate(qids):
                    order = _topk_ids(sims[row], sub_ids, k)
                    out_q.append(np.full(len(order), qi, dtype=np.int64))
                    out_i.append(sub_ids[order])
                    out_s.append(sims[row][order])
            if not out_q:
                return pa.table({"q": pa.array([], pa.int64()),
                                 id_col: pa.array([], pa.int64()),
                                 "cosine": pa.array([], pa.float64())})
            return pa.table(
                {
                    "q": pa.array(np.concatenate(out_q)),
                    id_col: pa.array(np.concatenate(out_i)),
                    "cosine": pa.array(np.concatenate(out_s), pa.float64()),
                }
            )

    cand = ds.map_batches(IVFTopK, batch_format="pyarrow", concurrency=(1, 8)).to_pandas()
    if len(cand) == 0:
        cand = pd.DataFrame({"q": [], id_col: [], "cosine": []})
    return _merge_query_topk(
        cand["q"].to_numpy(np.int64), cand[id_col].to_numpy(np.int64),
        cand["cosine"].to_numpy(np.float64), len(Q), k,
        np.arange(len(Q), dtype=np.int64), id_col,
    )


class PQCodebooks:
    """Product-quantization codebooks: ``m`` subspaces x ``n_codes``
    centroids each (L2 k-means per subspace, seeded/deterministic).
    Trained driver-side on a small sample; broadcast to encode/query
    stages. The memory story: a d-dim float32 vector becomes ``m`` uint8
    codes (d*4 -> m bytes; 64-dim -> 32x) — the path to holding a
    10^9-vector index in cluster RAM."""

    def __init__(self, C: np.ndarray):
        self.C = C  # (m, n_codes, dsub)
        self.m, self.n_codes, self.dsub = C.shape

    @property
    def dim(self) -> int:
        return self.m * self.dsub

    def split(self, X: np.ndarray) -> np.ndarray:
        return X.reshape(len(X), self.m, self.dsub)

    def encode(self, X: np.ndarray) -> np.ndarray:
        """(n, d) normalized vectors -> (n, m) uint8 codes (nearest
        centroid per subspace; L2 argmin via the dot/norm identity)."""
        S = self.split(X)
        codes = np.empty((len(X), self.m), dtype=np.uint8)
        for mi in range(self.m):
            Cm = self.C[mi]
            d2 = -2.0 * (S[:, mi, :] @ Cm.T) + (Cm * Cm).sum(axis=1)
            codes[:, mi] = np.argmin(d2, axis=1)
        return codes

    def lut(self, Q: np.ndarray) -> np.ndarray:
        """(nq, d) queries -> (nq, m, n_codes) inner-product lookup
        tables: approx dot(q, x) = sum_m LUT[q, m, code[x, m]]."""
        Sq = self.split(Q)
        return np.einsum("qmd,mcd->qmc", Sq, self.C)


def pq_train(
    ds: Dataset,
    *,
    vec_col: str = "embedding",
    n_subvectors: int = 8,
    n_codes: int = 64,
    train_rows: int = 4096,
    seed: int = 23,
    iters: int = 10,
) -> PQCodebooks:
    """Train PQ codebooks on a seeded driver-side sample (same shape as
    IVF training: the sample is small; everything downstream streams)."""
    sample = ds.select_columns([vec_col]).limit(train_rows).to_pandas()
    X = _normalize(np.stack(sample[vec_col].to_numpy()).astype(np.float64))
    # canonicalize sample order (block arrival order is not guaranteed)
    # so training is deterministic for a given corpus + seed
    X = X[np.lexsort(X.T[::-1])]
    d = X.shape[1]
    if d % n_subvectors:
        raise ValueError(f"dim {d} not divisible by m={n_subvectors}")
    dsub = d // n_subvectors
    rng = np.random.default_rng(seed)
    S = X.reshape(len(X), n_subvectors, dsub)
    C = np.empty((n_subvectors, n_codes, dsub))
    for mi in range(n_subvectors):
        Xm = S[:, mi, :]
        Cm = Xm[rng.choice(len(Xm), size=min(n_codes, len(Xm)),
                           replace=False)].copy()
        for _ in range(iters):
            d2 = -2.0 * (Xm @ Cm.T) + (Cm * Cm).sum(axis=1)
            assign = np.argmin(d2, axis=1)
            for ci in range(len(Cm)):
                members = Xm[assign == ci]
                if len(members):
                    Cm[ci] = members.mean(axis=0)
        C[mi, : len(Cm)] = Cm
        if len(Cm) < n_codes:  # tiny sample: repeat last centroid
            C[mi, len(Cm):] = Cm[-1]
    return PQCodebooks(C)


def pq_encode(
    ds: Dataset,
    books: PQCodebooks,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> Dataset:
    """Encode the corpus to the materialized PQ code index: one row per
    vector, ``codes`` = fixed-size-list<uint8>[m]. Write with
    ``write_parquet`` and serve queries from THIS dataset — the query
    pass reads m bytes/vector instead of 4d."""
    import ray

    ref = ray.put(books)

    class Encode:
        def __init__(self):
            self.books = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            M = _normalize(np.stack(
                t[vec_col].to_numpy(zero_copy_only=False)
            ).astype(np.float64))
            codes = self.books.encode(M)
            return pa.table({
                id_col: t[id_col],
                "codes": pa.FixedSizeListArray.from_arrays(
                    pa.array(codes.reshape(-1), pa.uint8()), self.books.m
                ),
            })

    return ds.map_batches(Encode, batch_format="pyarrow",
                          concurrency=(1, 8))


def ann_pq_topk(
    codes_ds: Dataset,
    full_ds: Dataset,
    queries: np.ndarray,
    books: PQCodebooks,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    refine: int = 4,
) -> pa.Table:
    """PQ asymmetric-distance top-k with exact re-rank.

    Pass 1 streams ONLY the code index: per batch, approx scores are m
    table lookups + a sum (``LUT[q, m, code]``), keeping per-query
    top-``refine*k`` candidates. Pass 2 re-ranks the merged candidate
    union (O(nq*refine*k) ids, broadcast as a set) against the true
    vectors with exact cosine — a selective scan, not a shuffle. Exact
    scores, approximate CANDIDATES: recall is measured in tests, k and
    refine trade recall for I/O."""
    import ray

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    lut = books.lut(Q)  # (nq, m, n_codes)
    ref = ray.put(lut)
    keep = refine * k

    class ADC:
        def __init__(self):
            self.lut = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col]).astype(np.int64)
            codes = np.asarray(
                t["codes"].combine_chunks().values
            ).reshape(len(ids), -1)
            marange = np.arange(codes.shape[1])
            out_q, out_i = [], []
            for qi in range(len(self.lut)):
                approx = self.lut[qi][marange[None, :], codes].sum(axis=1)
                order = _topk_ids(approx, ids, keep)
                out_q.append(np.full(len(order), qi, dtype=np.int64))
                out_i.append(ids[order])
            return pa.table({
                "q": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_i)),
            })

    cand = codes_ds.map_batches(ADC, batch_format="pyarrow",
                                concurrency=(1, 8)).to_pandas()
    # per-query merge of candidate ids (approx scores differ per batch
    # only via the candidate CUT, so the union is the candidate set)
    cand_ids = [
        np.unique(cand[cand["q"] == qi][id_col].to_numpy(np.int64))
        for qi in range(len(Q))
    ]
    union = np.unique(np.concatenate(cand_ids)) if len(cand) else np.empty(0, np.int64)
    uref = ray.put((Q, union, cand_ids))

    class Rerank:
        def __init__(self):
            # sorted id arrays: membership is a vectorized np.isin
            # (assume_unique — np.unique above), not per-row Python sets
            self.Q, self.union, self.per_q = ray.get(uref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col]).astype(np.int64)
            m = np.isin(ids, self.union, assume_unique=False)
            ids = ids[m]
            if not len(ids):
                return pa.table({"q": pa.array([], pa.int64()),
                                 id_col: pa.array([], pa.int64()),
                                 "cosine": pa.array([], pa.float64())})
            M = _normalize(np.stack(
                t[vec_col].to_numpy(zero_copy_only=False)
            ).astype(np.float64)[m])
            sims = self.Q @ M.T
            out_q, out_i, out_s = [], [], []
            for qi in range(len(self.Q)):
                qm = np.isin(ids, self.per_q[qi])
                out_q.append(np.full(int(qm.sum()), qi, dtype=np.int64))
                out_i.append(ids[qm])
                out_s.append(sims[qi][qm])
            return pa.table({
                "q": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_i)),
                "cosine": pa.array(np.concatenate(out_s), pa.float64()),
            })

    exact = full_ds.map_batches(Rerank, batch_format="pyarrow",
                                concurrency=(1, 8)).to_pandas()
    if len(exact) == 0:
        exact = pd.DataFrame({"q": [], id_col: [], "cosine": []})
    return _merge_query_topk(
        exact["q"].to_numpy(np.int64), exact[id_col].to_numpy(np.int64),
        exact["cosine"].to_numpy(np.float64), len(Q), k,
        np.arange(len(Q), dtype=np.int64), id_col,
    )


def kmeans_fit(
    ds: Dataset,
    k: int = 8,
    iters: int = 5,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    seed: int = 29,
    init_rows: int = 4096,
) -> np.ndarray:
    """DISTRIBUTED Lloyd's k-means over the full corpus (unlike the
    IVF/PQ trainers, which fit on a driver-side sample): each iteration is
    one ``map_batches`` pass emitting per-batch partial sums
    ``(cid, count, sum_vec)`` — k rows per batch, so the driver reduce is
    O(#blocks * k), never O(N). Deterministic under parallelism: partials
    carry the batch's min id as a content-derived key and the driver sums
    them in (cid, key) order, so float accumulation order is fixed
    regardless of which worker produced which block.
    """
    import ray

    sample = ds.select_columns([vec_col]).limit(init_rows).to_pandas()
    X = np.stack(sample[vec_col].to_numpy()).astype(np.float64)
    X = X[np.lexsort(X.T[::-1])]  # canonical order -> deterministic init
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(k, len(X)), replace=False)].copy()
    d = C.shape[1]

    for _ in range(iters):
        ref = ray.put(C)

        class Partials:
            def __init__(self):
                self.C = ray.get(ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                ids = np.asarray(t[id_col]).astype(np.int64)
                M = np.stack(
                    t[vec_col].to_numpy(zero_copy_only=False)
                ).astype(np.float64)
                d2 = (
                    (M * M).sum(axis=1)[:, None]
                    - 2.0 * (M @ self.C.T)
                    + (self.C * self.C).sum(axis=1)
                )
                assign = np.argmin(d2, axis=1)
                bkey = int(ids.min()) if len(ids) else 0
                rows_cid, rows_cnt, rows_sum = [], [], []
                for ci in np.unique(assign):
                    m = assign == ci
                    rows_cid.append(int(ci))
                    rows_cnt.append(int(m.sum()))
                    rows_sum.append(M[m].sum(axis=0))
                return pa.table({
                    "bkey": pa.array([bkey] * len(rows_cid), pa.int64()),
                    "cid": pa.array(rows_cid, pa.int64()),
                    "cnt": pa.array(rows_cnt, pa.int64()),
                    "ssum": pa.FixedSizeListArray.from_arrays(
                        pa.array(np.concatenate(rows_sum)
                                 if rows_sum else np.empty(0),
                                 pa.float64()),
                        self.C.shape[1],
                    ),
                })

        pdf = (
            ds.map_batches(Partials, batch_format="pyarrow",
                           concurrency=(1, 8))
            .to_pandas()
            .sort_values(["cid", "bkey"], kind="mergesort")
        )
        newC = C.copy()
        for ci in range(k):
            sub = pdf[pdf["cid"] == ci]
            if len(sub):
                total = np.zeros(d)
                for v in sub["ssum"]:  # fixed (cid, bkey) order
                    total += np.asarray(v, dtype=np.float64)
                newC[ci] = total / sub["cnt"].sum()
        C = newC
    return C


def kmeans_assign(
    ds: Dataset,
    centroids: np.ndarray,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> Dataset:
    """Label every vector with its nearest centroid (one stateless
    ``map_batches`` pass; centroids broadcast once)."""
    import ray

    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    class Assign:
        def __init__(self):
            self.C = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            M = np.stack(
                t[vec_col].to_numpy(zero_copy_only=False)
            ).astype(np.float64)
            d2 = (
                (M * M).sum(axis=1)[:, None]
                - 2.0 * (M @ self.C.T)
                + (self.C * self.C).sum(axis=1)
            )
            assign = np.argmin(d2, axis=1)
            return pa.table({
                id_col: t[id_col],
                "cid": pa.array(assign.astype(np.int64)),
                "dist2": pa.array(d2[np.arange(len(assign)), assign],
                                  pa.float64()),
            })

    return ds.map_batches(Assign, batch_format="pyarrow",
                          concurrency=(1, 8))


def pca_fit(ds: Dataset, out_dim: int, *, vec_col: str = "embedding",
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distributed PCA fit over an embedding column — the standard
    dim-reduction step before ANN at scale (smaller vectors = smaller
    index + faster scans).

    One combiner pass: each batch reduces to ``(n, sum(x), X^T X)``
    partials — d + d^2 floats per BLOCK regardless of row count — and
    the driver folds #blocks partials into the d x d covariance and
    takes its top ``out_dim`` eigenvectors (``np.linalg.eigh`` on a
    d x d matrix: driver work is dimension-, not data-, sized). Returns
    ``(components[d, out_dim], mean[d], explained_variance[out_dim])``.
    Eigenvector sign is fixed (largest-|coeff| entry positive) so the
    fit is deterministic across partitionings. An empty block (e.g. after
    an upstream filter) contributes no partial; a dataset with no rows at
    all raises ``ValueError``."""
    schema = pa.schema([("n", pa.int64()), ("s", pa.binary()),
                        ("xtx", pa.binary()), ("d", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        X = np.stack(
            t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        return pa.table({
            "n": pa.array([X.shape[0]], pa.int64()),
            "s": pa.array([X.sum(axis=0).tobytes()], pa.binary()),
            "xtx": pa.array([(X.T @ X).tobytes()], pa.binary()),
            "d": pa.array([X.shape[1]], pa.int64()),
        }, schema=schema)

    parts = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    if parts.empty:
        raise ValueError(f"pca_fit: no {vec_col!r} rows to fit")
    d = int(parts.d.iloc[0])
    n = int(parts.n.sum())
    s = np.zeros(d)
    xtx = np.zeros((d, d))
    for srow, xrow in zip(parts.s, parts.xtx):
        s += np.frombuffer(srow, dtype=np.float64)
        xtx += np.frombuffer(xrow, dtype=np.float64).reshape(d, d)
    mean = s / n
    cov = xtx / n - np.outer(mean, mean)
    w, v = np.linalg.eigh(cov)          # ascending eigenvalues
    order = np.argsort(-w)[:out_dim]
    comps = v[:, order]
    # deterministic sign: largest-|coeff| entry of each component > 0
    flip = comps[np.abs(comps).argmax(axis=0), np.arange(comps.shape[1])] < 0
    comps[:, flip] *= -1.0
    return comps, mean, np.maximum(w[order], 0.0)


def pca_project(ds: Dataset, components: np.ndarray, mean: np.ndarray,
                *, vec_col: str = "embedding",
                out_col: str = "embedding_pca") -> Dataset:
    """Project every embedding onto the fitted components (one
    vectorized matmul per batch; the (d x out_dim) basis broadcasts in
    the task closure — KBs, shipped once per task like the q14 part
    map). Output keeps all non-vector columns and replaces the
    embedding with its ``out_dim`` projection."""

    def project(t: pa.Table) -> pa.Table:
        X = np.stack(
            t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        P = (X - mean) @ components
        out = {c: t[c] for c in t.column_names if c != vec_col}
        out[out_col] = pa.array(list(P.astype(np.float32)),
                                pa.list_(pa.float32()))
        return pa.table(out)

    return ds.map_batches(project, batch_format="pyarrow")
