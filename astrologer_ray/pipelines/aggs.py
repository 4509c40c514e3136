"""The aggregation/query surface the reference delegates to Elasticsearch.

Each function mirrors one aggregation the reference issues (SURVEY §2.5,
/root/reference/es/adapter.go:68-182 and es.postman_collection.json) and is
implemented as plain Ray Data ops: vectorized ``map_batches`` projections
feeding ``groupby().aggregate``. Results are small (aggregates / top-k), so
callers may materialize them freely.

Scale notes: bucket/terms aggregations pre-aggregate inside ``map_batches``
only implicitly — Ray's hash-shuffle aggregate already combines per-block
partial results before the exchange, so no explicit combiner stage is needed
for Count/Sum/Min/Max/Mean.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset
from ray.data.aggregate import Count, Max, Mean, Min, Sum


def stats_min_max(ds: Dataset, col: str) -> pa.Table:
    """A1 — min+max of a column (/root/reference/es/adapter.go:68-87).

    Global (ungrouped) aggregate: Ray returns a plain row dict; wrapped into
    a one-row table for a uniform result type."""
    row = ds.aggregate(
        Min(col, alias_name=f"min_{col}"), Max(col, alias_name=f"max_{col}")
    )
    return pa.Table.from_pylist([row])


def range_buckets(ds: Dataset, col: str, step: float) -> Dataset:
    """A2 — fixed-step range bucket counts
    (/root/reference/es/adapter.go:90-106, step at commands/es-stats.go:11)."""

    def bucketize(t: pa.Table) -> pa.Table:
        lo = pc.multiply(
            pc.floor(pc.divide(pc.cast(t[col], pa.float64()), step)), float(step)
        )
        return pa.table({"bucket_lo": lo})

    return (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket_lo")
        .aggregate(Count(alias_name="n"))
    )


def filtered_count(ds: Dataset, expr: str) -> int:
    """A3 — count with a filter (/root/reference/es/adapter.go:120-153)."""
    return ds.filter(expr=expr).count()


def date_histogram(
    ds: Dataset,
    ts_col: str,
    unit: str = "day",
    value_col: str | None = None,
) -> Dataset:
    """A4 — date_histogram with min/max/sum/avg sub-aggs
    (es.postman_collection.json:57,96,345)."""

    def truncate(t: pa.Table) -> pa.Table:
        bucket = pc.floor_temporal(t[ts_col], unit=unit)
        cols = {"bucket": pc.cast(bucket, pa.timestamp("us"))}
        if value_col:
            cols[value_col] = t[value_col]
        return pa.table(cols)

    g = ds.map_batches(truncate, batch_format="pyarrow").groupby("bucket")
    aggs = [Count(alias_name="n")]
    if value_col:
        aggs += [
            Min(value_col, alias_name="min_value"),
            Max(value_col, alias_name="max_value"),
            Sum(value_col, alias_name="sum_value"),
            Mean(value_col, alias_name="avg_value"),
        ]
    return g.aggregate(*aggs)


def terms_topk(ds: Dataset, col: str, k: int = 10) -> Dataset:
    """A5 — terms aggregation: top-k values by count
    (es.postman_collection.json:219)."""
    return (
        ds.groupby(col)
        .aggregate(Count(alias_name="n"))
        .sort(["n", col], descending=[True, False])
        .limit(k)
    )


def significant_terms(
    ds: Dataset, col: str, fg_expr: str, k: int = 10
) -> "pa.Table":
    """A6 — significant terms (es.postman_collection.json:180).

    Foreground = rows matching ``fg_expr``; background = all rows. Scored
    with the ES "JLH"-flavored score (fg%−bg%) * (fg%/bg%); deterministic
    ties broken by term. Both grouped counts are small; computed as two
    aggregates and combined driver-side.
    """
    fg = ds.filter(expr=fg_expr).groupby(col).aggregate(Count(alias_name="fg_n"))
    bg = ds.groupby(col).aggregate(Count(alias_name="bg_n"))
    fg_t = fg.to_pandas()
    bg_t = bg.to_pandas()
    fg_total = fg_t["fg_n"].sum()
    bg_total = bg_t["bg_n"].sum()
    m = bg_t.merge(fg_t, on=col, how="left").fillna({"fg_n": 0})
    fg_pct = m["fg_n"] / fg_total
    bg_pct = m["bg_n"] / bg_total
    m["score"] = (fg_pct - bg_pct) * (fg_pct / bg_pct)
    m = m[m["fg_n"] > 0].sort_values(["score", col], ascending=[False, True]).head(k)
    out = m[[col, "score"]].reset_index(drop=True)
    out["fg_n"] = m["fg_n"].astype("int64").values
    out["bg_n"] = m["bg_n"].astype("int64").values
    return pa.Table.from_pandas(out, preserve_index=False)


def range_listing(ds: Dataset, col: str, lo, hi) -> Dataset:
    """A7 — exact sorted listing of values in a range
    (/root/reference/es/adapter.go:156-182)."""
    return ds.filter(expr=f"{col} >= {lo!r} and {col} <= {hi!r}").sort(col)


def detect_gaps(ds: Dataset, col: str) -> pa.Table:
    """S5 — gap detector: missing [start,end] segments in an integer key
    column (/root/reference/db/ledger_header_row.go:111-126, LEAD window).

    Distributed: sort by the column, compute intra-block gaps vectorized,
    then stitch block boundaries driver-side from per-block (first, last)
    — the driver-side piece is O(#blocks), not O(rows).
    """
    sorted_ds = ds.sort(col).materialize()

    def block_gaps(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"gap_start": pa.array([], pa.int64()),
                 "gap_end": pa.array([], pa.int64()),
                 "blk_first": pa.array([], pa.int64()),
                 "blk_last": pa.array([], pa.int64())}
            )
        v = np.unique(np.asarray(t[col]).astype(np.int64))
        d = np.diff(v)
        idx = np.flatnonzero(d > 1)
        return pa.table(
            {
                "gap_start": (v[idx] + 1),
                "gap_end": (v[idx + 1] - 1),
                "blk_first": np.full(len(idx), v[0], dtype=np.int64),
                "blk_last": np.full(len(idx), v[-1], dtype=np.int64),
            }
        )

    def block_bounds(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"first": pa.array([], pa.int64()),
                             "last": pa.array([], pa.int64())})
        v = np.asarray(t[col]).astype(np.int64)
        return pa.table({"first": [int(v.min())], "last": [int(v.max())]})

    gaps = sorted_ds.map_batches(block_gaps, batch_format="pyarrow", batch_size=None)
    bounds = sorted_ds.map_batches(block_bounds, batch_format="pyarrow", batch_size=None)
    g = gaps.to_pandas()
    b = bounds.to_pandas().sort_values("first").reset_index(drop=True) if bounds.count() else None
    out_start = list(g["gap_start"]) if "gap_start" in g.columns else []
    out_end = list(g["gap_end"]) if "gap_end" in g.columns else []
    for i in range(len(b) - 1 if b is not None else 0):
        lo_, hi_ = int(b["last"][i]), int(b["first"][i + 1])
        if hi_ - lo_ > 1:
            out_start.append(lo_ + 1)
            out_end.append(hi_ - 1)
    order = np.argsort(out_start)
    return pa.table(
        {
            "gap_start": pa.array(np.asarray(out_start, dtype=np.int64)[order]),
            "gap_end": pa.array(np.asarray(out_end, dtype=np.int64)[order]),
        }
    )


def anti_join_keys(ds: Dataset, key: str, present_keys) -> Dataset:
    """D3/J4 — rows of ``ds`` whose ``key`` is NOT in ``present_keys``
    (set difference DB−ES, /root/reference/commands/stats.go:36-63).

    ``present_keys`` is the small side: broadcast once via ``ray.put`` and
    filtered vectorized per batch — no shuffle.
    """
    import ray

    ref = ray.put(np.asarray(list(present_keys)))

    class AntiFilter:
        def __init__(self):
            self.keys = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.keys is None:
                self.keys = pa.array(ray.get(ref))
            mask = pc.invert(pc.is_in(t[key], value_set=self.keys))
            return t.filter(mask)

    return ds.map_batches(AntiFilter, batch_format="pyarrow", concurrency=(1, 4))


def distinct_count(ds: Dataset, group_col: str, val_col: str) -> Dataset:
    """Exact per-group distinct count (the ES ``cardinality`` agg, exact
    flavor). Pre-aggregates inside ``map_batches`` (per-batch (group, val)
    dedup) so the shuffle carries unique pairs, not raw rows; the single
    groupby then counts distinct values per group."""

    def batch_dedup(t: pa.Table) -> pa.Table:
        sub = t.select([group_col, val_col])
        return sub.group_by([group_col, val_col]).aggregate([])

    def count_group(g: pa.Table) -> pa.Table:
        import numpy as np

        vals = g[val_col].combine_chunks()
        return pa.table(
            {
                group_col: g[group_col].slice(0, 1),
                "n_distinct": pa.array(
                    [len(np.unique(np.asarray(vals)))], pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(batch_dedup, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(count_group, batch_format="pyarrow")
    )


def percentiles(
    ds: Dataset, group_col: str, val_col: str,
    qs: tuple = (0.5, 0.9, 0.99), round_to: int = 6,
) -> Dataset:
    """Exact per-group percentiles (ES ``percentiles`` agg, exact flavor):
    linear interpolation over the sorted group — the same definition as
    SQL ``quantile_cont`` — rounded so cross-engine float hashes match."""

    def group_q(g: pa.Table) -> pa.Table:
        import numpy as np

        v = np.asarray(g[val_col], dtype=np.float64)
        out = {group_col: g[group_col].slice(0, 1)}
        for q in qs:
            out[f"p{int(q * 100)}"] = pa.array(
                [round(float(np.quantile(v, q)), round_to)], pa.float64()
            )
        return pa.table(out)

    return ds.groupby(group_col).map_groups(group_q, batch_format="pyarrow")


def _bit_length_u64(v: "np.ndarray") -> "np.ndarray":
    """Exact vectorized bit_length for uint64 (shift cascade — float log2
    is imprecise past 2^53)."""
    import numpy as np

    v = v.copy()
    bl = np.zeros(v.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(s))
        bl[big] += s
        v[big] >>= np.uint64(s)
    bl[v > 0] += 1
    return bl


class _HLL:
    """Minimal HyperLogLog register logic (2^p registers).

    Values hash through ``pandas.util.hash_array`` (vectorized 64-bit C
    hashing, deterministic fixed key) — the register update is pure numpy
    (index shift, clz cascade, ``maximum.at`` scatter), no per-value
    Python in the hot path."""

    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p

    def registers(self, values) -> "np.ndarray":
        import numpy as np
        import pandas as pd

        regs = np.zeros(self.m, dtype=np.uint8)
        arr = np.asarray(values)
        if arr.size == 0:
            return regs
        h = pd.util.hash_array(arr)  # uint64, deterministic
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h & np.uint64((1 << (64 - self.p)) - 1)
        rank = ((64 - self.p) - _bit_length_u64(rest) + 1).astype(np.uint8)
        np.maximum.at(regs, idx, rank)
        return regs

    def estimate(self, regs) -> float:
        import numpy as np

        m = float(self.m)
        am = 0.7213 / (1 + 1.079 / m)
        e = am * m * m / np.sum(2.0 ** -regs.astype(np.float64))
        zeros = int((regs == 0).sum())
        if e <= 2.5 * m and zeros:
            e = m * np.log(m / zeros)
        return float(e)


def hll_distinct(ds: Dataset, group_col: str, val_col: str, p: int = 12) -> Dataset:
    """Approximate per-group distinct count (ES ``cardinality`` agg, sketch
    flavor): per-batch HLL registers combine with an elementwise max — the
    shuffle carries 2^p bytes per (batch, group), independent of group
    size. Error ~1.04/sqrt(2^p); accuracy asserted vs exact in tests."""
    hll = _HLL(p)

    def batch_regs(t: pa.Table) -> pa.Table:
        import numpy as np

        groups = np.asarray(t[group_col], dtype=object)
        vals = np.asarray(t[val_col], dtype=object)
        out_g, out_r = [], []
        for gval in np.unique(groups):
            out_g.append(gval)
            out_r.append(hll.registers(vals[groups == gval]).tobytes())
        return pa.table({group_col: pa.array(out_g), "regs": pa.array(out_r, pa.binary())})

    def merge_group(g: pa.Table) -> pa.Table:
        import numpy as np

        regs = np.zeros(hll.m, dtype=np.uint8)
        for b in g["regs"].to_pylist():
            regs = np.maximum(regs, np.frombuffer(b, dtype=np.uint8))
        return pa.table(
            {
                group_col: g[group_col].slice(0, 1),
                "n_distinct_approx": pa.array([hll.estimate(regs)], pa.float64()),
            }
        )

    return (
        ds.map_batches(batch_regs, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(merge_group, batch_format="pyarrow")
    )


def heavy_hitters_mg(ds: Dataset, col: str, k: int = 64) -> pd.DataFrame:
    """Misra-Gries / SpaceSaving heavy hitters: the bounded-memory
    frequent-items sketch — at 10^9 distinct keys an exact terms top-k
    is a full-cardinality exchange, while MG ships <= k (item, count)
    pairs per block regardless of cardinality.

    Per block, exact in-block counts (``np.unique``) compress to an
    MG(k) summary: subtract the (k+1)-th largest count from every item
    and keep the positive remainder (the classic decrement, batched);
    the subtracted amount is the block's error term. Summaries merge by
    summing per item; the merged error is the sum of block errors.

    Guarantees (asserted in tests, standard MG analysis):
    - ``lower <= true_count <= lower + err`` for every returned item
      (``err`` = total subtracted mass <= n/(k+1));
    - every item with ``true_count > n/(k+1)`` is present — choose
      ``k >= 1/phi`` to catch all phi-frequent items.

    The driver merge handles <= k x #blocks partial rows (bounded by
    the sketch, not the data); returns items sorted by lower bound with
    per-item (lower, upper) and the global error bound. Items keep the
    key column's Arrow type (an int64 key comes back as int64); null keys
    are not counted."""
    import pandas as pd
    import ray

    def block_summary(t: pa.Table) -> pa.Table:
        typ = t.schema.field(col).type
        vals = pc.drop_null(t[col]).to_numpy(zero_copy_only=False)
        u, c = np.unique(vals, return_counts=True)
        err = 0
        if len(u) > k:
            order = np.argsort(-c, kind="stable")
            thresh = int(c[order[k]])  # the (k+1)-th largest count
            keep = c > thresh          # may drop EVERYTHING (all-equal counts)
            u, c = u[keep], c[keep] - thresh
            err = thresh               # this block's decrement
        # the block's error rides in a null-item carrier row so the
        # summary stays well-formed even when truncation empties it
        return pa.table({
            "item": pa.array(u.tolist() + [None], typ),
            "cnt": pa.array(np.r_[c.astype(np.int64), 0], pa.int64()),
            "blk": pa.array(np.r_[np.zeros(len(u), np.int64), err], pa.int64()),
        })

    # bounded: <= k items + 1 error-carrier row per block; gathered as
    # Arrow (pandas would turn an int key column holding the carrier's
    # null into float64)
    blocks = ray.get(ds.map_batches(
        block_summary, batch_format="pyarrow").to_arrow_refs())
    blocks = [b for b in blocks if b.num_rows]
    if not blocks:
        return pd.DataFrame({"item": pd.Series([], dtype="object"),
                             "lower": pd.Series([], dtype="int64"),
                             "upper": pd.Series([], dtype="int64")})
    parts = pa.concat_tables(blocks, promote_options="default")
    total_err = int(pc.sum(parts["blk"]).as_py())
    agg = (parts.filter(pc.is_valid(parts["item"]))
           .group_by("item").aggregate([("cnt", "sum")])
           .to_pandas().rename(columns={"cnt_sum": "lower"}))
    agg["upper"] = agg.lower + total_err
    return agg.sort_values(["lower", "item"],
                           ascending=[False, True]).reset_index(drop=True)


def extended_stats(
    ds: Dataset, group_col: str, val_col: str, round_to: int = 6,
) -> pa.Table:
    """ES ``extended_stats``: per-group count/min/max/sum/avg/variance/std,
    EXACT via integer-cent moments (the repo's money policy): each batch
    pre-aggregates (n, Σc, Σc², min, max) on int64 cents inside
    ``map_batches``, ONE small groupby combines the partials, and the
    driver finalizes variance from the exact integer moments with Python
    bignum arithmetic — order-independent, so parallelism-invariant and
    SQL-hash-comparable. int64 bound: needs ``n·c² < 2^63`` per group
    (cents ≤ 56k allows ~3e9 rows/group; larger scales would widen the
    Σc² partial to decimal128).
    """
    from ray.data.aggregate import Count, Max, Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.floor(pc.add(pc.multiply(
                pc.cast(t.column(val_col), pa.float64()), 100.0), 0.5)),
            pa.int64(),
        )
        sub = pa.table({group_col: t.column(group_col), "c": c,
                        "c2": pc.multiply(c, c)})
        return sub.group_by(group_col).aggregate(
            [("c", "count"), ("c", "sum"), ("c2", "sum"),
             ("c", "min"), ("c", "max")]
        ).rename_columns([group_col, "n", "s", "s2", "mn", "mx"])

    combined = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            Sum("n", alias_name="n"), Sum("s", alias_name="s"),
            Sum("s2", alias_name="s2"), Min("mn", alias_name="mn"),
            Max("mx", alias_name="mx"),
        )
        .take_all()  # one row per group — small by contract
    )
    rows = []
    for r in sorted(combined, key=lambda r: r[group_col]):
        n, s, s2 = int(r["n"]), int(r["s"]), int(r["s2"])
        # same float expression as the SQL twin (s*s exact in int64, cast
        # to double, then divide) — mirrors DuckDB's cast-then-divide
        # rounding so the result is bit-identical across engines
        var_c = (s2 - float(s * s) / n) / n
        rows.append({
            group_col: r[group_col],
            "n": n,
            "min_value": int(r["mn"]) / 100.0,
            "max_value": int(r["mx"]) / 100.0,
            "sum_value": s / 100.0,
            "avg_value": round(s / n / 100.0, round_to),
            "var_pop": round(var_c / 10_000.0, round_to),
            "std_pop": round((var_c / 10_000.0) ** 0.5 if var_c > 0 else 0.0,
                             round_to),
        })
    return pa.Table.from_pylist(rows)


def matrix_stats(
    ds: Dataset, x_col: str, y_col: str,
    x_scale: int = 100, y_scale: int = 1, round_to: int = 6,
) -> pa.Table:
    """ES ``matrix_stats`` over a numeric field pair: count, per-field
    mean/variance, covariance and Pearson correlation — EXACT via scaled
    integer moments (the repo's money policy): each batch pre-aggregates
    ``(n, Σx, Σy, Σx², Σy², Σxy)`` on int64 inside ``map_batches``, one
    tiny global sum combines the partials, and the driver finalizes with
    the same cast-then-divide float expressions as the SQL twin — the
    moments are order-independent integers, so the result is
    parallelism-invariant and SQL-hash-comparable.

    The raw integer moments are returned alongside the derived doubles:
    they are the bit-exact core of the contract. ES's skewness/kurtosis
    are omitted — their 3rd/4th integer moments overflow int64 at corpus
    scale (the same ``n·x² < 2^63`` bound as :func:`extended_stats`
    applies here per second-order moment).
    """
    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t.column(x_col), pa.float64()), float(x_scale)), 0.5)),
            pa.int64())
        y = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t.column(y_col), pa.float64()), float(y_scale)), 0.5)),
            pa.int64())
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "sx": pa.array([pc.sum(x).as_py() or 0], pa.int64()),
            "sy": pa.array([pc.sum(y).as_py() or 0], pa.int64()),
            "sxx": pa.array([pc.sum(pc.multiply(x, x)).as_py() or 0],
                            pa.int64()),
            "syy": pa.array([pc.sum(pc.multiply(y, y)).as_py() or 0],
                            pa.int64()),
            "sxy": pa.array([pc.sum(pc.multiply(x, y)).as_py() or 0],
                            pa.int64()),
        })

    from ray.data.aggregate import Sum

    r = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
        Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
        Sum("syy", alias_name="syy"), Sum("sxy", alias_name="sxy"),
    )
    if not r or not r.get("n"):  # empty input: aggregate() returns None
        return pa.Table.from_pylist([])
    n = int(r["n"])
    sx, sy = int(r["sx"]), int(r["sy"])
    sxx, syy, sxy = int(r["sxx"]), int(r["syy"]), int(r["sxy"])
    # scaled-unit population moments, cast-then-divide exactly as the SQL
    # twin writes them (s*s exact in int64 range, then float division)
    var_x_c = (sxx - float(sx * sx) / n) / n
    var_y_c = (syy - float(sy * sy) / n) / n
    cov_c = (sxy - float(sx * sy) / n) / n
    xs2, ys2 = float(x_scale * x_scale), float(y_scale * y_scale)
    corr = (
        cov_c / (var_x_c * var_y_c) ** 0.5
        if var_x_c > 0 and var_y_c > 0 else 0.0
    )
    return pa.Table.from_pylist([{
        "n": n, "sx": sx, "sy": sy, "sxx": sxx, "syy": syy, "sxy": sxy,
        "mean_x": round(sx / n / float(x_scale), round_to),
        "mean_y": round(sy / n / float(y_scale), round_to),
        "var_x": round(var_x_c / xs2, round_to),
        "var_y": round(var_y_c / ys2, round_to),
        "covariance": round(cov_c / float(x_scale * y_scale), round_to),
        "correlation": round(corr, round_to),
    }])


def sample_hash(ds: Dataset, id_col: str, frac: float) -> Dataset:
    """Deterministic hash sampling (§2.6 O4): keep rows whose Knuth
    multiplicative hash of ``id_col`` falls under ``frac``. Stable across
    runs/parallelism and exactly SQL-expressible; the id is masked to 32
    bits BEFORE the multiply so the arithmetic never overflows (uint64 here;
    HUGEINT in SQL) — matching oracle expression:
    ``(CAST(id & 4294967295 AS HUGEINT) * 2654435761) % 4294967296
    < frac * 4294967296``. Unlike seeded random sampling, the row set is
    engine- and parallelism-independent."""
    threshold = int(frac * 4294967296)

    def filt(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col]).astype(np.uint64) & np.uint64(0xFFFFFFFF)
        h = (ids * np.uint64(2654435761)) % np.uint64(4294967296)
        return t.filter(pa.array(h < np.uint64(threshold)))

    return ds.map_batches(filt, batch_format="pyarrow")


def stratified_sample(
    ds: Dataset, id_col: str, group_col: str, rates: dict[str, float],
    default_rate: float = 0.0,
) -> Dataset:
    """Per-group deterministic hash sampling — the data-MIXING op of a
    training pipeline (keep 50% of source A, 10% of source B, drop the
    rest). Same Knuth multiplicative hash as :func:`sample_hash`, so the
    row set is engine- and parallelism-independent and exactly
    SQL-expressible; the per-row rate lookup is one Arrow ``index_in``
    against the configured group list (no Python loop)."""
    groups = list(rates)
    thresholds = np.array(
        [int(rates[g] * 4294967296) for g in groups] +
        [int(default_rate * 4294967296)],
        dtype=np.uint64,
    )

    def filt(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col]).astype(np.uint64) & np.uint64(0xFFFFFFFF)
        h = (ids * np.uint64(2654435761)) % np.uint64(4294967296)
        gi = pc.index_in(t[group_col], value_set=pa.array(groups))
        gi = np.asarray(pc.fill_null(gi, len(groups)), dtype=np.int64)
        return t.filter(pa.array(h < thresholds[gi]))

    return ds.map_batches(filt, batch_format="pyarrow")


def upsample_hash(
    ds: Dataset, id_col: str, group_col: str, rates: dict[str, float],
    default_rate: float = 1.0,
) -> Dataset:
    """Per-group deterministic UP-sampling with epoch indices — the
    other half of the data-mixing op (:func:`stratified_sample` handles
    rates <= 1): a rate of 2.5 repeats every row twice and keeps a
    deterministic extra half, so high-quality sources can be weighted
    above 1.0 in the training mixture (the standard LLM data-recipe
    knob). Each emitted copy carries an ``epoch`` column (0..k-1) so
    downstream exact-dedup stays copy-aware.

    Copy count per row: ``floor(rate)`` always, plus one more iff the
    row's Knuth hash (same as :func:`sample_hash`) falls under the
    fractional part — engine- and parallelism-independent and exactly
    SQL-expressible::

        FROM r, range(0, CEIL_MAX_RATE) t(e)
        WHERE e < floor(rate)
           OR (e = floor(rate) AND h < (rate - floor(rate)) * 4294967296)

    The 1->N explosion is a vectorized ``np.repeat`` + CSR offset trick
    per batch (no Python loop); blocks grow by at most ``max(rate)``x,
    so batch sizing bounds memory the same way chunking does."""
    groups = list(rates)
    all_rates = np.array([float(rates[g]) for g in groups]
                         + [float(default_rate)])
    base = np.floor(all_rates).astype(np.int64)
    frac_thresh = (all_rates - base) * 4294967296.0

    def explode(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col]).astype(np.uint64) & np.uint64(0xFFFFFFFF)
        h = (ids * np.uint64(2654435761)) % np.uint64(4294967296)
        gi = pc.index_in(t[group_col], value_set=pa.array(groups))
        gi = np.asarray(pc.fill_null(gi, len(groups)), dtype=np.int64)
        k = base[gi] + (h.astype(np.float64) < frac_thresh[gi])
        idx = np.repeat(np.arange(len(k)), k)
        # epoch = position within each row's run of copies (CSR offsets)
        starts = np.r_[0, np.cumsum(k)[:-1]]
        epoch = np.arange(len(idx), dtype=np.int64) - np.repeat(starts, k)
        out = t.take(pa.array(idx))
        return out.append_column("epoch", pa.array(epoch, pa.int64()))

    return ds.map_batches(explode, batch_format="pyarrow")


def top_n_per_group(
    ds: Dataset, group_col: str, order_col: str, n: int,
    descending: bool = True,
) -> Dataset:
    """Per-group top-N by ``order_col`` (ties broken by the order column
    then input order is NOT stable — so ties break by value only; callers
    wanting total determinism should order by a unique column). Equivalent
    to SQL ``row_number() OVER (PARTITION BY g ORDER BY v ...) <= n``
    when the order column is unique within groups."""

    def take_top(g: pa.Table) -> pa.Table:
        v = np.asarray(g[order_col])
        order = np.argsort(-v if descending else v, kind="stable")[:n]
        return g.take(pa.array(np.sort(order)))

    return ds.groupby(group_col).map_groups(take_top, batch_format="pyarrow")


def pipeline_aggs(
    buckets: pa.Table,
    order_col: str,
    cum_cols: list[str] = (),
    diff_cols: list[str] = (),
    mavg_cols: list[str] = (),
    window: int = 3,
) -> pa.Table:
    """ES *pipeline aggregations* (cumulative_sum / derivative /
    moving_avg) over an already-reduced parent-bucket table.

    ES's model exactly: pipeline aggs post-process the OUTPUT of a parent
    aggregation, so this runs driver-side in O(#buckets) — the distributed
    work is the parent histogram/terms agg that produced ``buckets``.

    - ``cum_<c>``: running sum in ``order_col`` order (int-exact for int
      inputs — SQL ``sum(c) OVER (ORDER BY ...)``)
    - ``diff_<c>``: lag-1 difference, null for the first bucket (SQL
      ``c - lag(c) OVER (ORDER BY ...)``)
    - ``mavg_<c>``: trailing moving average over ``min(window, i+1)``
      values incl. the current bucket, as float64 ``sum/len`` (SQL ``avg(c)
      OVER (ORDER BY ... ROWS BETWEEN window-1 PRECEDING AND CURRENT
      ROW)``)
    """
    t = buckets.sort_by(order_col)
    out = {c: t[c] for c in t.column_names}
    for c in cum_cols:
        out[f"cum_{c}"] = pa.array(
            np.cumsum(np.asarray(t[c], dtype=np.int64)), pa.int64()
        )
    for c in diff_cols:
        v = np.asarray(t[c], dtype=np.int64)
        d = np.empty(len(v), dtype=np.int64)
        d[1:] = v[1:] - v[:-1]
        mask = np.zeros(len(v), dtype=bool)  # True = null (first bucket)
        if len(v):
            mask[0] = True
        out[f"diff_{c}"] = pa.array(d, pa.int64(), mask=mask)
    for c in mavg_cols:
        v = np.asarray(t[c], dtype=np.float64)
        cs = np.r_[0.0, np.cumsum(v)]
        n = len(v)
        lo = np.maximum(np.arange(n) - window + 1, 0)
        sums = cs[np.arange(n) + 1] - cs[lo]
        out[f"mavg_{c}"] = pa.array(sums / (np.arange(n) + 1 - lo),
                                    pa.float64())
    return pa.table(out)


def percentile_ranks(ds: Dataset, col: str, thresholds: list[float]) -> pa.Table:
    """ES ``percentile_ranks``: for each threshold, the percentage of rows
    with ``col <= t`` — one distributed pass of per-batch counts (partial
    aggregation), exact. Percentage = ``100.0 * count / total`` (the same
    expression an SQL oracle uses, so floats match bit-for-bit)."""
    th = sorted(float(x) for x in thresholds)

    def partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        return pa.table({
            "total": pa.array([len(v)], pa.int64()),
            **{f"c{i}": pa.array([int((v <= x).sum())], pa.int64())
               for i, x in enumerate(th)},
        })

    from ray.data.aggregate import Sum

    parts = ds.map_batches(partial, batch_format="pyarrow")
    sums = parts.aggregate(
        Sum("total", alias_name="total"),
        *[Sum(f"c{i}", alias_name=f"c{i}") for i in range(len(th))],
    )
    total = int(sums["total"] or 0)
    if total == 0:
        # SQL's GROUP BY over zero rows yields zero rows — mirror that
        return pa.table({"threshold": pa.array([], pa.float64()),
                         "pct": pa.array([], pa.float64())})
    return pa.table({
        "threshold": pa.array(th, pa.float64()),
        "pct": pa.array(
            [100.0 * int(sums[f"c{i}"]) / total for i in range(len(th))],
            pa.float64(),
        ),
    })


def weighted_avg(
    ds: Dataset, group_col: str, cents_col: str, weight_col: str
) -> Dataset:
    """ES ``weighted_avg`` per group, exact under the integer-cents policy:
    sums run in int64 (``cents * weight``), the single float division
    happens once per group — ``CAST(sum(cents*w) AS DOUBLE) /
    (100.0 * sum(w))`` in both engines, so results are bit-identical
    regardless of summation order."""
    from ray.data.aggregate import Sum

    def mul(t: pa.Table) -> pa.Table:
        return pa.table({
            group_col: t[group_col],
            "ck": pc.multiply(pc.cast(t[cents_col], pa.int64()),
                              pc.cast(t[weight_col], pa.int64())),
            "w": pc.cast(t[weight_col], pa.int64()),
        })

    g = (
        ds.map_batches(mul, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Sum("ck", alias_name="sum_ck"),
                   Sum("w", alias_name="sum_w"))
    )

    def finish(t: pa.Table) -> pa.Table:
        wavg = np.asarray(t["sum_ck"], dtype=np.float64) / (
            100.0 * np.asarray(t["sum_w"], dtype=np.float64)
        )
        return pa.table({
            group_col: t[group_col],
            "wavg": pa.array(wavg, pa.float64()),
        })

    return g.map_batches(finish, batch_format="pyarrow")


def densify_buckets(
    hist: pa.Table,
    bucket_col: str,
    step_us: int,
    lo,
    hi,
    count_cols: list[str],
) -> pa.Table:
    """ES ``min_doc_count: 0`` + ``extended_bounds``: materialize EVERY
    bucket of the fixed grid [lo, hi] (step ``step_us`` microseconds),
    filling absent buckets' ``count_cols`` with 0. Post-processes the
    already-reduced histogram driver-side, O(#grid) — same execution model
    as :func:`pipeline_aggs`."""
    def _us(v) -> int:
        if isinstance(v, pa.Scalar):
            v = v.as_py()
        return int(np.datetime64(v, "us").astype(np.int64))

    lo_us, hi_us = _us(lo), _us(hi)
    grid = np.arange(lo_us, hi_us + 1, step_us, dtype=np.int64)
    have = pc.cast(hist[bucket_col], pa.timestamp("us")).cast(pa.int64())
    have_np = np.asarray(have, dtype=np.int64)
    order = np.argsort(have_np)
    pos = np.searchsorted(have_np[order], grid)
    hit = (pos < len(have_np)) & (have_np[order][np.minimum(pos, max(len(have_np) - 1, 0))] == grid) if len(have_np) else np.zeros(len(grid), bool)
    out = {bucket_col: pa.array(grid, pa.int64()).cast(pa.timestamp("us"))}
    for c in count_cols:
        src = np.asarray(hist[c], dtype=np.int64)[order]
        vals = np.zeros(len(grid), dtype=np.int64)
        vals[hit] = src[pos[hit]]
        out[c] = pa.array(vals, pa.int64())
    return pa.table(out)


def bucket_script(buckets: pa.Table, out_col: str, fn) -> pa.Table:
    """ES ``bucket_script`` pipeline agg: a computed column over the
    already-reduced parent buckets — ``fn`` receives a dict of numpy
    column arrays and returns the new column (vectorized, driver-side
    O(#buckets), same execution model as :func:`pipeline_aggs`)."""
    cols = {c: np.asarray(buckets[c]) for c in buckets.column_names
            if not pa.types.is_timestamp(buckets.schema.field(c).type)}
    return buckets.append_column(out_col, pa.array(fn(cols)))


def bucket_selector(buckets: pa.Table, pred) -> pa.Table:
    """ES ``bucket_selector``: drop parent buckets failing ``pred`` (a
    vectorized predicate over a dict of numpy column arrays) — the
    HAVING clause of the aggregation DSL."""
    cols = {c: np.asarray(buckets[c]) for c in buckets.column_names
            if not pa.types.is_timestamp(buckets.schema.field(c).type)}
    mask = np.asarray(pred(cols), dtype=bool)
    return buckets.filter(pa.array(mask))


# ES auto_date_histogram fixed-width interval ladder (seconds..days; the
# calendar tail — months/years — needs calendar rounding that the fixed
# ladder deliberately avoids, matching ES's fixed_interval semantics)
AUTO_HIST_LADDER_US = [
    1_000_000, 5_000_000, 10_000_000, 30_000_000,              # 1,5,10,30 s
    60_000_000, 300_000_000, 600_000_000, 1_800_000_000,       # 1,5,10,30 m
    3_600_000_000, 10_800_000_000, 43_200_000_000,             # 1,3,12 h
    86_400_000_000, 604_800_000_000,                           # 1,7 d
    2_592_000_000_000, 31_536_000_000_000,                     # 30,365 d
]


def auto_date_histogram(
    ds: Dataset, ts_col: str, target_buckets: int = 10
) -> tuple[pa.Table, int]:
    """ES ``auto_date_histogram``: pick the smallest ladder interval whose
    bucket count stays <= ``target_buckets``, then histogram on it.

    Distributed in two passes over the SAME lazy dataset: one min/max
    aggregate chooses the interval (driver-side O(1)), one groupby builds
    the buckets — no materialization between. Returns (buckets, width_us)
    so callers can report the chosen interval like ES does."""
    if target_buckets < 1:
        raise ValueError("target_buckets must be >= 1")
    mm = ds.aggregate(Min(ts_col, alias_name="lo"), Max(ts_col, alias_name="hi"))
    lo = int(np.datetime64(mm["lo"], "us").astype(np.int64))
    hi = int(np.datetime64(mm["hi"], "us").astype(np.int64))
    width = next(
        (w for w in AUTO_HIST_LADDER_US
         if (hi // w) - (lo // w) + 1 <= target_buckets),
        AUTO_HIST_LADDER_US[-1],
    )

    def bucketize(t: pa.Table) -> pa.Table:
        # int64 division; Arrow truncates toward zero, which equals floor
        # only for ts >= epoch — pre-1970 timestamps would round the other
        # way than DuckDB's floor `//`, so refuse them rather than drift
        us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        if len(us) and pc.min(us).as_py() < 0:
            raise ValueError("auto_date_histogram requires ts >= 1970-01-01")
        b = pc.multiply(pc.divide(us, width), width)
        return pa.table({"bucket": pc.cast(b, pa.timestamp("us"))})

    out = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Count(alias_name="n"))
        .sort("bucket")
        .take_all()
    )
    return pa.Table.from_pylist(out), width


def shuffle_shards(
    ds: Dataset, id_col: str, n_shards: int, seed: int = 0
) -> Dataset:
    """Deterministic pseudo-random shard assignment + within-shard order —
    the training-data "global shuffle then write N shards" step, without a
    random_shuffle: the permutation is the Knuth multiplicative hash of
    ``id_col`` (seed-offset), so the layout is engine-, run- and
    parallelism-independent and exactly SQL-expressible.

    Returns ``(id_col, shard, pos)``: ``shard = h % n_shards`` and ``pos``
    the row's rank within its shard by ``(h, id)``. One ``groupby(shard)``
    exchange of 24 B rows; a shard's rows rank inside one task — a shard
    is the downstream write unit, so size ``n_shards`` to keep
    corpus/n_shards in task memory (exactly the file-size knob)."""
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")

    def hashed(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col]).astype(np.uint64) & np.uint64(0xFFFFFFFF)
        h = (ids * np.uint64(2654435761) + np.uint64(seed)) \
            % np.uint64(4294967296)
        return pa.table({
            id_col: t[id_col],
            "shard": pa.array((h % np.uint64(n_shards)).astype(np.int64)),
            "h": pa.array(h.astype(np.int64)),
        })

    def rank(g: pa.Table) -> pa.Table:
        ids = np.asarray(g[id_col]).astype(np.int64)
        h = np.asarray(g["h"]).astype(np.int64)
        o = np.lexsort((ids, h))
        pos = np.empty(len(ids), dtype=np.int64)
        pos[o] = np.arange(len(ids), dtype=np.int64)
        return pa.table({
            id_col: g[id_col], "shard": g["shard"],
            "pos": pa.array(pos),
        })

    return (
        ds.map_batches(hashed, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(rank, batch_format="pyarrow")
    )
