"""Index build pipeline: corpus parquet -> inverted index artifacts.

Ray-Data-first re-architecture of the reference's export flagship
(/root/reference/commands/export.go:40-89) PLUS the index-build half the
reference delegated to Elasticsearch. Stages (SURVEY §7 build order):

1. **SPIMI partials** — actor-pool ``map_batches`` over deterministic
   partition units; writes per-partition partial postings + docs sidecars +
   manifest (the checkpoint boundary; resume skips completed units).
2. **Dense doc_ids** — global ``sort("doc_key")`` of the docs sidecar (the
   paging-token order analog, /root/reference/es/indices.go:26-27), then a
   two-pass block-offset prefix sum assigns ``doc_id`` = global rank.
   Content never enters this sort — only key + metadata columns.
3. **Postings merge** — the ONE wide term exchange, materialized through
   shared storage (external shuffle): stage 1 wrote each partition's packed
   postings with one parquet row group per term-hash bucket, so merge task
   *b* selectively reads bucket *b* from every partition, joins ``lrow ->
   doc_id`` against the broadcast keymap, range-salts every term by
   ``chunk_id = doc_id >> chunk_bits`` (a Zipf-head term becomes many
   independently-encoded doc_id-range chunks that concatenate in order —
   SURVEY §4 skew row), and encodes all runs in one vectorized
   delta+varbyte pass (``encode_chunks_table``). Doc lengths stay in the
   docs sidecar, once per doc; postings carry only ids and tfs.
4. **Dictionary** — tiny groupby over chunk summaries: df, cf.
5. **Stats / lineage** — meta.json (N, avgdl, …), per-partition metrics
   parquet, _SUCCESS marker.

Artifacts under ``index_dir``:
  partials/  (stage-1 checkpoint)  docs/  keymap/  postings/  dict/  stats/
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from astrologer_ray import B, K1
from astrologer_ray.functions.codec import (
    POSTINGS_SCHEMA,
    POSTINGS_SCHEMA_POS,
    encode_chunks_table,
)
from astrologer_ray.layout import load_meta  # noqa: F401  (re-exported)
from astrologer_ray.stages.spimi import (
    LROW_BITS,
    completed_partitions,
    manifest_path,
    plan_partitions,
    tokenize_units,
)

DEFAULT_N_SHARDS = 8

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("doc_key", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("dl", pa.int64()),
        ("sha256", pa.string()),
        ("lrow", pa.int64()),
    ]
)


def _corpus_paths(corpus) -> list[str]:
    if isinstance(corpus, (list, tuple)):
        return sorted(corpus)
    if os.path.isdir(corpus):
        return sorted(glob.glob(os.path.join(corpus, "*.parquet")))
    return [corpus]


def _assign_doc_ids_driver(partial_docs: list[str], docs_dir: str,
                           keymap_dir: str | None = None,
                           id_base: int = 0) -> dict:
    """Small-corpus fast path: single-process pyarrow sort + rank.

    Identical assignment to the distributed path (doc_id = rank of unique
    doc_key); used when the key table fits one process comfortably — the
    Ray executions it saves are pure overhead at that size. When
    ``keymap_dir`` is given, the per-source-partition keymap files are
    written here too (the table is already in memory — saves a re-read).
    ``id_base`` offsets the dense ids (segment append: new docs continue
    the existing id space, see pipelines/segments.py).
    """
    from concurrent.futures import ThreadPoolExecutor

    from astrologer_ray.stages.spimi import LROW_BITS

    # parquet read/encode and the Arrow sort kernels release the GIL:
    # thread-pool the per-file read+sort so this driver-side stage shrinks
    # with core count instead of being a constant serial tail (the global
    # single-threaded sort was ~half the stage). When the per-file key
    # ranges are pairwise disjoint (the common case: the corpus ledger is
    # key-ordered), concatenating the per-file sorted tables in range
    # order IS the global order; otherwise fall back to one global sort.
    nworkers = min(24, os.cpu_count() or 8)

    def _read_sorted(p: str) -> pa.Table:
        return pq.read_table(p).sort_by("doc_key")

    with ThreadPoolExecutor(max_workers=nworkers) as ex:
        parts = [p for p in ex.map(_read_sorted, partial_docs) if p.num_rows]
    if parts:
        bounds = [
            (p.column("doc_key")[0].as_py(), p.column("doc_key")[-1].as_py())
            for p in parts
        ]
        order = sorted(range(len(parts)), key=lambda i: bounds[i][0])
        disjoint = all(
            bounds[order[i]][1] < bounds[order[i + 1]][0]
            for i in range(len(order) - 1)
        )
        t = pa.concat_tables([parts[i] for i in order])
        if not disjoint:
            t = t.sort_by("doc_key")
    else:
        t = pa.concat_tables([pq.read_table(p) for p in partial_docs])
    keys = t.column("doc_key").combine_chunks()
    n = len(keys)
    if n > 1 and pc.any(pc.equal(keys.slice(0, n - 1), keys.slice(1, n))).as_py():
        raise ValueError("duplicate doc_key — run dedup_exact on the key first")
    out = t.add_column(0, "doc_id", pa.array(
        np.arange(id_base, id_base + t.num_rows, dtype=np.int64)
    ))
    out = out.select([f.name for f in DOCS_SCHEMA]).cast(DOCS_SCHEMA)
    os.makedirs(docs_dir, exist_ok=True)
    rows_per_file = 250_000

    def _write_docs_slice(i: int) -> None:
        pq.write_table(
            out.slice(i, rows_per_file),
            os.path.join(docs_dir, f"docs-{i:012d}.parquet"),
            compression="zstd",
        )

    with ThreadPoolExecutor(max_workers=nworkers) as ex:
        list(ex.map(_write_docs_slice, range(0, max(out.num_rows, 1), rows_per_file)))
    if keymap_dir is not None:
        os.makedirs(keymap_dir, exist_ok=True)
        lrow = np.asarray(out.column("lrow"))
        doc_id = np.asarray(out.column("doc_id"))
        pid = (lrow >> LROW_BITS).astype(np.int64)
        order = np.lexsort((lrow, pid))
        lrow, doc_id, pid = lrow[order], doc_id[order], pid[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(pid)) + 1, [len(pid)]))

        def _write_km(se: tuple[int, int]) -> None:
            s, e = se
            pq.write_table(
                pa.table({"lrow": lrow[s:e], "doc_id": doc_id[s:e]}),
                os.path.join(keymap_dir, f"keymap-{int(pid[s]):06d}.parquet"),
            )

        with ThreadPoolExecutor(max_workers=nworkers) as ex:
            list(ex.map(_write_km, zip(starts[:-1], starts[1:])))
    return {"n_docs": out.num_rows, "n_blocks": 1,
            "min_doc_key": keys[0].as_py() if n else None,
            "max_doc_key": keys[-1].as_py() if n else None}


def _assign_doc_ids(partials_dir: str, docs_dir: str, parallelism: int,
                    driver_sort_threshold: int = 2_000_000,
                    keymap_dir: str | None = None,
                    id_base: int = 0,
                    pids: set[int] | None = None) -> dict:
    """Stage 2: global doc_key sort -> dense doc_id; writes docs/.

    Distributed path: two passes over the *materialized* sorted key table
    (content-free, the only full materialization in the build — documented
    scale tradeoff: at 10^12 docs this table is ~100 B/row and spills via
    the object store; the wide ``content`` column was dropped in stage 1).
    Small corpora take the driver-side fast path (same assignment).
    """
    partial_docs = sorted(glob.glob(os.path.join(partials_dir, "docs-*.parquet")))
    if pids is not None:
        partial_docs = [
            p for p in partial_docs
            if int(os.path.basename(p).split("-")[1].split(".")[0]) in pids
        ]
    total_rows = sum(pq.read_metadata(p).num_rows for p in partial_docs)
    # env override for measurement: the driver fast path is a CONSTANT
    # cost at every parallelism level (it slightly depresses measured
    # scaling efficiency); GRAFT_DOCID_DRIVER_MAX=0 forces the
    # distributed sort path for an A/B without a code change
    env_thr = os.environ.get("GRAFT_DOCID_DRIVER_MAX")
    if env_thr is not None:
        driver_sort_threshold = int(env_thr)
    if total_rows <= driver_sort_threshold:
        return _assign_doc_ids_driver(partial_docs, docs_dir, keymap_dir,
                                      id_base=id_base)

    import ray.data as rd

    docs = rd.read_parquet(partial_docs)
    sorted_docs = docs.sort("doc_key").materialize()

    def block_summary(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"min_key": pa.array([], pa.string()),
                             "max_key": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        keys = t.column("doc_key")
        return pa.table(
            {"min_key": [keys[0].as_py()], "max_key": [keys[-1].as_py()],
             "n": [t.num_rows]}
        )

    summaries = sorted_docs.map_batches(
        block_summary, batch_format="pyarrow", batch_size=None
    ).take_all()
    summaries.sort(key=lambda r: r["min_key"])
    for a, b_ in zip(summaries, summaries[1:]):
        if not a["max_key"] < b_["min_key"]:
            raise ValueError(
                "duplicate doc_key across partitions — run dedup_exact on "
                f"(repo,path,commit) first: {a['max_key']!r}"
            )
    offsets = {}
    off = id_base
    for s in summaries:
        offsets[s["min_key"]] = off
        off += s["n"]
    total = off - id_base

    os.makedirs(docs_dir, exist_ok=True)

    def assign_and_write(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"first_doc_id": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        keys = np.asarray(t.column("doc_key"))
        if not bool(np.all(keys[1:] > keys[:-1])):
            raise ValueError("duplicate doc_key within a sorted block")
        base = offsets[keys[0]]
        doc_id = np.arange(base, base + t.num_rows, dtype=np.int64)
        out = t.add_column(0, "doc_id", pa.array(doc_id))
        out = out.select([f.name for f in DOCS_SCHEMA])
        pq.write_table(
            out.cast(DOCS_SCHEMA),
            os.path.join(docs_dir, f"docs-{base:012d}.parquet"),
            compression="zstd",
        )
        return pa.table({"first_doc_id": [base], "n": [t.num_rows]})

    written = sorted_docs.map_batches(
        assign_and_write, batch_format="pyarrow", batch_size=None
    ).take_all()
    assert sum(w["n"] for w in written) == total
    return {"n_docs": total, "n_blocks": len(written),
            "min_doc_key": summaries[0]["min_key"] if summaries else None,
            "max_doc_key": summaries[-1]["max_key"] if summaries else None}


def _write_keymap(docs_dir: str, keymap_dir: str, parallelism: int,
                  driver_threshold: int = 2_000_000) -> None:
    """Stage 2.5: re-key (lrow -> doc_id) by source partition id.

    The postings join key ``lrow`` is partition-local by construction
    (lrow >> LROW_BITS == part_id), so instead of hash-joining the BIG
    triples table against the keymap (a full shuffle of every posting), we
    shuffle only the SMALL keymap (16 B/row) back to its source partition
    and join partition-locally in stage 3. This keeps the postings table's
    single wide shuffle the term exchange — the one that matters.
    """
    from astrologer_ray.stages.spimi import LROW_BITS

    if glob.glob(os.path.join(keymap_dir, "keymap-*.parquet")):
        return  # already written by the driver doc_id fast path
    os.makedirs(keymap_dir, exist_ok=True)
    files = sorted(glob.glob(os.path.join(docs_dir, "docs-*.parquet")))
    total = sum(pq.read_metadata(p).num_rows for p in files)

    def write_groups(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"pid": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        lrow = np.asarray(t.column("lrow"))
        doc_id = np.asarray(t.column("doc_id"))
        pid = (lrow >> LROW_BITS).astype(np.int64)
        order = np.lexsort((lrow, pid))
        lrow, doc_id, pid = lrow[order], doc_id[order], pid[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(pid)) + 1, [len(pid)]))
        out = []
        for s, e in zip(starts[:-1], starts[1:]):
            p = int(pid[s])
            pq.write_table(
                pa.table({"lrow": lrow[s:e], "doc_id": doc_id[s:e]}),
                os.path.join(keymap_dir, f"keymap-{p:06d}.parquet"),
            )
            out.append({"pid": p, "n": int(e - s)})
        return pa.Table.from_pylist(out)

    if total <= driver_threshold:
        t = pa.concat_tables(
            pq.read_table(p, columns=["lrow", "doc_id"]) for p in files
        )
        write_groups(t.combine_chunks())
        return

    import ray.data as rd

    km = rd.read_parquet(files, columns=["lrow", "doc_id"])

    def add_pid(t: pa.Table) -> pa.Table:
        pid = (np.asarray(t.column("lrow")) >> LROW_BITS).astype(np.int64)
        return t.append_column("pid", pa.array(pid))

    km = km.map_batches(add_pid, batch_format="pyarrow")
    km = km.repartition(parallelism, keys=["pid"], sort=True)
    km.map_batches(write_groups, batch_format="pyarrow", batch_size=None).materialize()


def _merge_runs_collision(
    terms_at, run_start, run_end, doc_vals, tf_vals, vstart, vend,
    chunk_bits, shard, pos_all=None,
) -> pa.Table:
    """Collision fallback for :func:`merge_bucket_table`: at least one pair
    of DISTINCT terms shares a 63-bit term_hash in this bucket
    (astronomically rare), so runs are split by actual term string in a
    per-run Python loop — correctness over speed on this path."""
    with_pos = pos_all is not None
    if with_pos:
        occ_start = np.cumsum(tf_vals, dtype=np.int64) - tf_vals
    seg_d, seg_f, seg_p = [], [], []
    seg_terms, seg_cids, seg_lens = [], [], []
    for i in range(len(run_start)):
        rs, re_ = int(run_start[i]), int(run_end[i])
        run_terms = terms_at.slice(rs, re_ - rs).to_pylist()
        by_term: dict[str, list[int]] = {}
        for j in range(rs, re_):
            by_term.setdefault(run_terms[j - rs], []).append(j)
        for tstr, rows_j in sorted(by_term.items()):
            dd = np.concatenate([doc_vals[vstart[j]:vend[j]] for j in rows_j])
            ff = np.concatenate([tf_vals[vstart[j]:vend[j]] for j in rows_j])
            # global posting indices of this term's postings, pre-sort
            pidx = np.concatenate(
                [np.arange(vstart[j], vend[j], dtype=np.int64) for j in rows_j]
            )
            oo = np.argsort(dd)
            dd, ff, pidx = dd[oo], ff[oo], pidx[oo]
            cids = dd >> chunk_bits
            cs = np.concatenate(
                ([0], np.flatnonzero(np.diff(cids)) + 1, [len(dd)])
            )
            for s_, e_ in zip(cs[:-1], cs[1:]):
                seg_d.append(dd[s_:e_])
                seg_f.append(ff[s_:e_])
                if with_pos:
                    seg_p.append(
                        np.concatenate(
                            [pos_all[occ_start[p]:occ_start[p] + tf_vals[p]]
                             for p in pidx[s_:e_]]
                        ) if e_ > s_ else np.empty(0, dtype=np.int64)
                    )
                seg_terms.append(tstr)
                seg_cids.append(int(cids[s_]))
                seg_lens.append(e_ - s_)
    if not seg_lens:
        return (POSTINGS_SCHEMA_POS if with_pos else POSTINGS_SCHEMA).empty_table()
    ends = np.cumsum(seg_lens)
    return encode_chunks_table(
        np.concatenate(seg_d), np.concatenate(seg_f), ends - seg_lens, ends,
        terms=pa.array(seg_terms, pa.string()), chunk_ids=np.array(seg_cids),
        shard=shard, pos_vals=np.concatenate(seg_p) if with_pos else None,
    )


def merge_bucket_table(
    t: pa.Table,
    km_lrow: np.ndarray,
    km_doc: np.ndarray,
    *,
    shard: int,
    chunk_bits: int,
) -> pa.Table:
    """Merge ONE bucket's concatenated partial postings into encoded chunks.

    Fully vectorized: one stable sort groups rows into term runs by hash,
    one ``lexsort((doc_id, run))`` orders every posting value, one
    difference pass finds the (term, chunk_id) segment boundaries (every
    term is range-salted at ``doc_id >> chunk_bits`` — SURVEY §4 skew row),
    and :func:`encode_chunks_table` assembles the output columnar. No
    per-term Python loop — O(#values) numpy work regardless of how many
    unique terms the bucket holds. Distinct-term hash collisions divert to
    :func:`_merge_runs_collision`.
    """
    if t.num_rows == 0:
        return (
            POSTINGS_SCHEMA_POS if "poss" in t.column_names else POSTINGS_SCHEMA
        ).empty_table()
    t = t.combine_chunks()
    hashes = np.asarray(t.column("term_hash"))
    order = np.argsort(hashes, kind="stable")
    t = t.take(pa.array(order))
    hashes = hashes[order]
    n_rows = t.num_rows

    lcol = t.column("lrows").combine_chunks()
    lengths = lcol.value_lengths().to_numpy().astype(np.int64)
    lrow_vals = lcol.flatten().to_numpy()
    tf_vals = t.column("tfs").combine_chunks().flatten().to_numpy()
    # positional partials: occurrence-flat positions aligned with the
    # posting flattening order (posting i's slice has tf_vals[i] values)
    pos_all = (
        t.column("poss").combine_chunks().flatten().to_numpy()
        if "poss" in t.column_names else None
    )
    # the keymap holds each partition's local rows 0..n-1 in lrow order, so
    # a posting's keymap row is its partition's first row plus its local
    # row; a partition past the keymap's last one maps past its end
    n_pid = int(km_lrow[-1] >> LROW_BITS) + 1 if len(km_lrow) else 0
    first = np.searchsorted(
        km_lrow, np.arange(n_pid + 1, dtype=np.int64) << LROW_BITS)
    idx = first[np.minimum(lrow_vals >> LROW_BITS, n_pid)]
    idx += lrow_vals & ((1 << LROW_BITS) - 1)
    assert len(km_lrow) and bool(np.all(
        np.take(km_lrow, idx, mode="clip") == lrow_vals)), "keymap miss"
    doc_vals = np.take(km_doc, idx, mode="clip")

    terms_at = t.column("term").combine_chunks()
    new_run = np.empty(n_rows, dtype=bool)
    new_run[0] = True
    np.not_equal(hashes[1:], hashes[:-1], out=new_run[1:])
    run_start = np.flatnonzero(new_run)
    same_hash = ~new_run[1:]
    if bool(same_hash.any()):
        # 63-bit collision guard: same hash, different term string?
        tneq = pc.not_equal(
            terms_at.slice(1), terms_at.slice(0, n_rows - 1)
        ).to_numpy(zero_copy_only=False)
        if bool(np.any(same_hash & tneq)):
            vend = np.cumsum(lengths)
            vstart = vend - lengths
            run_end = np.concatenate((run_start[1:], [n_rows]))
            return _merge_runs_collision(
                terms_at, run_start, run_end, doc_vals, tf_vals,
                vstart, vend, chunk_bits, shard, pos_all=pos_all,
            )

    n_vals = len(doc_vals)
    if n_vals == 0:
        return (
            POSTINGS_SCHEMA_POS if pos_all is not None else POSTINGS_SCHEMA
        ).empty_table()
    run_of_val = np.repeat(np.cumsum(new_run) - 1, lengths)
    n_runs = len(run_start)
    if n_vals // n_runs >= 512:
        # few FAT runs (small vocab / huge corpus): per-run argsorts are
        # cache-resident and beat any global 3M-element sort by ~3x
        vend = np.cumsum(lengths)
        vstart = vend - lengths
        run_end = np.concatenate((run_start[1:], [n_rows]))
        d = np.empty_like(doc_vals)
        f = np.empty_like(tf_vals)
        perm = np.empty(n_vals, dtype=np.int64)
        for rs, re_ in zip(run_start, run_end):
            s, e = int(vstart[rs]), int(vend[re_ - 1])
            o = np.argsort(doc_vals[s:e]) + s
            d[s:e] = doc_vals[o]
            f[s:e] = tf_vals[o]
            perm[s:e] = o
        rv = run_of_val  # within-run sort: run labels unchanged
    else:
        # many SMALL runs (large vocab): ONE composite-key argsort, no
        # Python per-run overhead; lexsort only if the key would overflow
        stride = int(doc_vals.max()) + 1
        if n_runs * stride < 2**62:
            order2 = np.argsort(run_of_val * stride + doc_vals)
        else:
            order2 = np.lexsort((doc_vals, run_of_val))
        d = doc_vals[order2]
        f = tf_vals[order2]
        rv = run_of_val[order2]
        perm = order2
    pos_sorted = None
    if pos_all is not None:
        # CSR gather of variable-length position segments into the sorted
        # posting order (counts == tf per posting)
        occ_start = np.cumsum(tf_vals, dtype=np.int64) - tf_vals
        cnt = f.astype(np.int64)
        ccum = np.cumsum(cnt)
        total_occ = int(ccum[-1]) if len(ccum) else 0
        within = np.arange(total_occ, dtype=np.int64) - np.repeat(ccum - cnt, cnt)
        pos_sorted = pos_all[np.repeat(occ_start[perm], cnt) + within]
    cids = d >> chunk_bits
    brk = np.flatnonzero((rv[1:] != rv[:-1]) | (cids[1:] != cids[:-1])) + 1
    starts = np.concatenate(([0], brk))
    ends = np.concatenate((brk, [len(d)]))
    seg_terms = terms_at.take(pa.array(run_start[rv[starts]]))
    return encode_chunks_table(
        d, f, starts, ends,
        terms=seg_terms, chunk_ids=cids[starts], shard=shard,
        pos_vals=pos_sorted,
    )


def _read_keymap(files: list[str]):
    """``(lrow, doc_id)`` arrays from per-pid keymap files. Their lrow
    ranges are disjoint and ascending in pid (= filename) order, so the
    concatenation is globally lrow-sorted."""
    t = pa.concat_tables(
        pq.read_table(f, columns=["lrow", "doc_id"]) for f in sorted(files)
    ).combine_chunks()
    return np.asarray(t.column("lrow")), np.asarray(t.column("doc_id"))


def _merge_bucket(desc: dict, km, *, keymap_dir: str, n_shards: int,
                  chunk_bits: int) -> pa.Table:
    """One bucket's encoded chunk rows, unsorted: read the bucket's row
    group from every partition file named in ``desc`` (``bucket``,
    ``files``, ``rgs``) and merge them.

    ``km`` is the keymap as ``(lrow, doc_id)`` arrays, or None to read
    only the keymap files of the partitions in this bucket (the
    shared-storage fallback for extreme doc counts).
    """
    bucket = int(desc["bucket"])
    km_lrow, km_doc = km if km is not None else _read_keymap([
        os.path.join(keymap_dir,
                     os.path.basename(f).replace("post-", "keymap-", 1))
        for f in desc["files"]
    ])
    t = pa.concat_tables(
        pq.ParquetFile(f).read_row_group(rg)
        for f, rg in zip(desc["files"], desc["rgs"])
    )
    # shard = bucket mod n_shards = term_hash64 % n_shards, because
    # n_shards divides n_buckets (no serving path reads the column)
    return merge_bucket_table(
        t, km_lrow, km_doc, shard=bucket % n_shards, chunk_bits=chunk_bits,
    )


def _write_postings(out: pa.Table, postings_dir: str, name: str,
                    task0: float, **lineage) -> pa.Table:
    """Write chunk rows ``(term, last_doc_id)``-sorted as
    ``post-{name}.parquet`` with its ``merge-manifest-{name}.json``
    lineage sidecar (task seconds since ``task0``, not globbed by
    Searcher); returns the sorted rows.

    Terms are hash-partitioned, so each lives in ONE bucket, and the
    concatenation of term-sorted bucket files keeps every term's chunk
    run contiguous and doc-ordered: Searcher's load-time global sort
    (paid by every serving actor at cold start) is skipped for a
    single-generation index (meta flag ``postings_term_sorted``).
    """
    out = out.sort_by([("term", "ascending"), ("last_doc_id", "ascending")])
    out_path = os.path.join(postings_dir, f"post-{name}.parquet")
    pq.write_table(out, out_path, compression="zstd")
    with open(os.path.join(postings_dir, f"merge-manifest-{name}.json"),
              "w") as mf:
        json.dump({
            **lineage,
            "n_chunk_rows": out.num_rows,
            "out_bytes": os.path.getsize(out_path),
            "task_sec": round(time.monotonic() - task0, 4),
            "t_end_unix": round(time.time(), 3),
        }, mf)
    return out


def merge_buckets(batch: pa.Table, km, *, postings_dir: str, **merge_kw) -> None:
    """Stage-3 task body: merge, encode and write every bucket named in
    ``batch`` (one row per bucket, see :func:`_merge_bucket`) as its own
    ``post-bucket-NNNNN.parquet``."""
    for desc in batch.to_pylist():
        task0 = time.monotonic()
        out = _merge_bucket(desc, km, **merge_kw)
        if out.num_rows:
            bucket = int(desc["bucket"])
            _write_postings(out, postings_dir, f"bucket-{bucket:05d}", task0,
                            bucket=bucket)


def _encode_postings(
    partials_dir: str,
    docs_dir: str,
    postings_dir: str,
    chunk_bits: int,
    n_shards: int,
    parallelism: int,
    driver_small_threshold: int = 2_000_000,
    keymap_broadcast_rows: int = 50_000_000,
    retries: int = 3,
    pids: set[int] | None = None,
    merge_num_cpus: float | None = None,
    in_process: bool = False,
) -> pa.Table | None:
    """Stage 3: bucket-partitioned EXTERNAL merge of the SPIMI partials.

    ``pids`` restricts the merge to a subset of source partitions (segment
    append encodes ONLY the new partitions' postings, pipelines/segments.py).
    By default one Ray Data task per bucket writes that bucket's
    ``post-bucket-NNNNN.parquet``, and None is returned. ``in_process=True``
    (a one-partition append: there is nothing to spread over tasks) merges
    the buckets one after another in the calling process with no Ray call,
    so memory stays bounded by one bucket's partial postings plus the
    encoded chunks; it sorts the chunks of all buckets once, writes ONE
    ``post-all.parquet`` and returns that table, which the dictionary stage
    then need not read back.

    The wide term exchange is materialized through shared storage instead of
    an in-memory all-to-all: stage 1 already wrote each partition's packed
    postings sorted by term-hash bucket with one parquet ROW GROUP per
    bucket, so merge task *b* reads exactly bucket *b*'s row group from
    every partition file (selective I/O, no aggregator actors, no
    backpressure coupling between map and reduce sides). This is the
    classic external-shuffle design (map-side partitioning + reduce-side
    selective reads); on a multi-node cluster the partials live on shared
    storage and each merge task pulls only its bucket. Determinism and
    resumability come free: bucket outputs have fixed names and depend only
    on the partials + keymap.

    Skew: every term is still range-salted by ``chunk_id = doc_id >>
    chunk_bits`` inside the merge task (a Zipf-head term becomes many
    independently-encoded chunks that concatenate in doc_id order), and
    Zipf head terms hash into different buckets.

    The dictionary stage takes the chunk summaries from the postings'
    ``n`` / ``sum_tf`` columns.
    """
    keymap_dir = os.path.join(os.path.dirname(postings_dir), "keymap")
    _write_keymap(docs_dir, keymap_dir, parallelism,
                  driver_threshold=driver_small_threshold)
    os.makedirs(postings_dir, exist_ok=True)

    # bucket -> (file, row group) map from the stage-1 manifests
    buckets: dict[int, list[tuple[str, int]]] = {}
    src_pids = completed_partitions(partials_dir)
    if pids is not None:
        src_pids &= set(pids)
    for pid in sorted(src_pids):
        with open(manifest_path(partials_dir, pid)) as f:
            m = json.load(f)
        for bstr, rg in json.loads(m.get("bucket_rgs", "{}")).items():
            buckets.setdefault(int(bstr), []).append(
                (os.path.join(partials_dir, f"post-{pid:06d}.parquet"), int(rg))
            )
    units = [
        {"bucket": b_, "files": [f for f, _ in lst], "rgs": [r for _, r in lst]}
        for b_, lst in sorted(buckets.items())
    ]
    merge_kw = dict(keymap_dir=keymap_dir, n_shards=n_shards,
                    chunk_bits=chunk_bits)

    # keymap: per-pid files with disjoint ascending lrow ranges -> concat in
    # filename order is globally lrow-sorted. Placements:
    #  - in process: the arrays themselves;
    #  - broadcast (default): one ray.put, zero-copy plasma on each node;
    #  - shared-storage fallback (keymap rows > keymap_broadcast_rows): at
    #    extreme doc counts (~16 B/doc) the broadcast becomes the binding
    #    constraint, so each merge task instead reads ONLY the keymap files
    #    of the partitions present in its bucket straight from storage.
    km_files = glob.glob(os.path.join(keymap_dir, "keymap-*.parquet"))
    if in_process:
        task0 = time.monotonic()
        km = _read_keymap(km_files)
        outs = [_merge_bucket(u, km, **merge_kw) for u in units]
        out = pa.concat_tables(outs) if outs else None
        if out is None or not out.num_rows:
            return out
        return _write_postings(out, postings_dir, "all", task0,
                               buckets=[u["bucket"] for u in units])

    import ray
    import ray.data as rd

    if merge_num_cpus is None:
        # merge tasks are MEMORY-BANDWIDTH-heavy (one big gather+sort over
        # the bucket's postings): co-scheduling one per core thrashes the
        # bus — measured 55-58 s for 32 concurrent vs 22-30 s for 8
        # concurrent on the same input/host. A merge task therefore
        # reserves a CONSTANT 4 cpus: a per-TASK property (the slice of a
        # node's memory bus one bucket merge consumes, with pyarrow's
        # internal read/compress threads using the reserved cores), NOT a
        # cluster-derived value — so merge concurrency is cores/4 and
        # scales with the cluster (8-core node: 2 tasks; 32-core node: 8
        # tasks; 256-node cluster: 8 per node). Deriving it from
        # cluster_resources() pinned concurrency at ~8 tasks at EVERY
        # cluster size, which flatlined the stage between scaling levels.
        # ncpu-1 (not ncpu//2) below the 4-cpu slice: a merge task on a
        # tiny cluster still takes (almost) a full bus slice — reserving
        # ncpu//2 made merge CONCURRENCY equal at adjacent cluster sizes
        # (2 tasks at both 4 and 8 cpus; measured in SCALING_r05a where
        # 2-cpu and 8-cpu merge walls were identical by construction),
        # which under-reports N->4N scaling for any pair below 16 cpus.
        # The -1 keeps one cpu unreserved so a stray 1-cpu actor can
        # never deadlock a tiny cluster's merge.
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        merge_num_cpus = max(1, min(4, ncpu - 1))

    km_rows = sum(pq.read_metadata(f).num_rows for f in km_files)
    km_ref = (
        ray.put(_read_keymap(km_files)) if km_rows <= keymap_broadcast_rows
        else None
    )

    def merge_task(batch: pa.Table) -> pa.Table:
        km = ray.get(km_ref) if km_ref is not None else None
        merge_buckets(batch, km, postings_dir=postings_dir, **merge_kw)
        return batch.select(["bucket"])  # Ray Data needs a batch back

    (rd.from_items(units, override_num_blocks=max(1, len(units)))
     .map_batches(merge_task, batch_format="pyarrow", batch_size=1,
                  num_cpus=merge_num_cpus, max_retries=retries,
                  retry_exceptions=True)
     .materialize())


def _tokenize_stage(todo: list[dict], partials_dir: str, *, mode: str,
                    column_map: dict | None, key_cols, n_buckets: int,
                    keyword_fields: dict | None, positions: bool,
                    retries: int, in_process: bool = False) -> None:
    """Stage 1 runner: one Ray task per partition unit writing SPIMI
    partials + manifest (checkpointed; shared by build and segment append).
    ``in_process=True`` tokenizes the units in the calling process instead,
    with no Ray call and no retry (a failure raises to the caller).
    """
    kwargs = {
        "partials_dir": partials_dir,
        "mode": mode,
        "column_map": column_map,
        "key_cols": key_cols,
        "n_buckets": n_buckets,
        "keyword_fields": keyword_fields,
        "positions": positions,
    }
    if in_process:
        tokenize_units(pa.Table.from_pylist(todo), **kwargs)
        return

    import ray.data as rd

    # one block per unit => one task per unit (from_items' default block
    # count caps task parallelism otherwise)
    units_ds = rd.from_items(todo, override_num_blocks=len(todo))
    units_ds.map_batches(
        tokenize_units,
        fn_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=1,
        num_cpus=1,
        max_retries=retries,
        retry_exceptions=True,
    ).materialize()


def _write_dictionary(postings_dir: str, dict_dir: str,
                      driver_small_threshold: int = 2_000_000,
                      postings: pa.Table | None = None) -> int:
    """Stage 4: term dictionary (df = sum of chunk posting counts) from the
    encoded postings' summary columns; returns the term count. Shared by the
    full build and the segment append (pipelines/segments.py). ``postings``
    is the chunk table an in-process merge returned; without it the
    summaries are read from ``postings_dir``."""
    if postings is None:
        # name order: the dictionary's row order must not follow the
        # filesystem's directory listing
        post_files = sorted(glob.glob(os.path.join(postings_dir, "*.parquet")))
        n_chunk_rows = sum(pq.read_metadata(p).num_rows for p in post_files)
        if n_chunk_rows > driver_small_threshold:
            import ray.data as rd
            from ray.data.aggregate import Count, Sum

            # explicit file list: the dir also holds merge-manifest sidecars
            chunks_summary = rd.read_parquet(
                post_files, columns=["term", "n", "sum_tf"])
            dictionary = chunks_summary.groupby("term").aggregate(
                Sum("n", alias_name="df"),
                Sum("sum_tf", alias_name="cf"),
                Count(alias_name="n_chunks"),
            )
            dictionary.write_parquet(dict_dir)
            return sum(
                pq.read_metadata(p).num_rows
                for p in glob.glob(os.path.join(dict_dir, "*.parquet"))
            )
        postings = pa.concat_tables(
            pq.read_table(p, columns=["term", "n", "sum_tf"]) for p in post_files
        )
    # chunk summaries are tiny relative to postings: one-process groupby
    dictionary_t = (
        postings.select(["term", "n", "sum_tf"]).group_by("term")
        .aggregate([("n", "sum"), ("sum_tf", "sum"), ("term", "count")])
        .rename_columns(["term", "df", "cf", "n_chunks"])
    )
    os.makedirs(dict_dir, exist_ok=True)
    pq.write_table(
        dictionary_t, os.path.join(dict_dir, "dict-000000.parquet"),
        compression="zstd",
    )
    return dictionary_t.num_rows


def build_index(
    corpus,
    index_dir: str,
    *,
    mode: str = "code",
    k1: float = K1,
    b: float = B,
    chunk_bits: int = 20,
    n_shards: int = DEFAULT_N_SHARDS,
    n_buckets: int | None = None,
    target_merge_bytes: int = 256 << 20,
    partition_rows: int = 50_000,
    parallelism: int | None = None,
    concurrency: int | None = None,
    resume: bool = True,
    force: bool = False,
    column_map: dict | None = None,
    key_cols: tuple[str, ...] | None = None,
    keyword_fields: dict | None = None,
    positions: bool = False,
    driver_small_threshold: int = 2_000_000,
    keymap_broadcast_rows: int = 50_000_000,
    retries: int = 3,
) -> dict:
    """Build the full inverted index; returns the build stats dict.

    ``retries`` is the per-task retry budget for the write stages
    (reference sink retry knob, /root/reference/config/main.go:89-92 and
    es/adapter.go:185-198) — application errors retry too
    (``retry_exceptions``), on top of Ray's default system-failure retries;
    the per-partition manifests make retried writes idempotent.

    Resume semantics (reference analog: idempotent ``_id`` re-export +
    gap detection, SURVEY §2.7 D1 / §2.10): stage-1 partition units whose
    manifest exists are skipped; post-shuffle artifacts are rebuilt from the
    partials. ``force=True`` wipes ``index_dir`` first (the reference's
    ``create-index --force``, /root/reference/commands/create-index.go:22-42).
    """
    import ray
    import ray.data as rd
    from ray.data.context import DataContext, ShuffleStrategy

    # key-based repartition + hash join need the hash-shuffle strategy;
    # cap aggregator fan-out to the session size (defaults assume a large
    # cluster: 200 partitions / 64 aggregator actors)
    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    ctx.default_hash_shuffle_parallelism = min(
        ctx.default_hash_shuffle_parallelism, max(2, ncpu)
    )
    ctx.max_hash_shuffle_aggregators = min(
        ctx.max_hash_shuffle_aggregators, max(2, ncpu)
    )
    # aggregator actors mostly wait on the network; a full-CPU reservation
    # per aggregator starves the producer stages once aggregators ~= cores
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.25
    ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.25

    if force and os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    os.makedirs(index_dir, exist_ok=True)
    partials_dir = os.path.join(index_dir, "partials")
    docs_dir = os.path.join(index_dir, "docs")
    postings_dir = os.path.join(index_dir, "postings")
    dict_dir = os.path.join(index_dir, "dict")
    stats_dir = os.path.join(index_dir, "stats")

    paths = _corpus_paths(corpus)
    units = plan_partitions(paths, target_rows=partition_rows)
    if parallelism is None:
        parallelism = max(2, int(ray.cluster_resources().get("CPU", 4)))
    if concurrency is None:
        # stage 1 runs alone under the streaming executor: use the session
        concurrency = max(2, parallelism - 1)

    from astrologer_ray.stages.spimi import (
        completed_units,
        effective_config,
        existing_bucket_count,
    )

    # Merge bucket count (I/O-parallel merge units) is DECOUPLED from
    # n_shards (the term-hash ``shard`` column of the postings) but must
    # be a multiple of it: hash % n_buckets == b implies hash % n_shards ==
    # b % n_shards. Resolution order: explicit arg > the existing partials'
    # value (resume/ingest MUST keep it) > auto from input volume so each
    # merge task holds ~target_merge_bytes of raw postings instead of a
    # fixed 1/n_shards of ALL postings — the binding memory/parallelism
    # constraint at 100 TB otherwise.
    if n_buckets is None:
        n_buckets = existing_bucket_count(partials_dir) if resume else None
    if n_buckets is None:
        total_input_bytes = sum(os.path.getsize(p) for p in paths)
        m = max(1, min(1024, -(-total_input_bytes // (n_shards * target_merge_bytes))))
        n_buckets = int(m) * n_shards
    n_buckets = max(n_shards, -(-int(n_buckets) // n_shards) * n_shards)

    build_cfg = effective_config(
        mode=mode, column_map=column_map, key_cols=key_cols, n_buckets=n_buckets,
        keyword_fields=keyword_fields, positions=positions,
    )
    done = completed_units(partials_dir, units, config=build_cfg) if resume else set()
    # drop stale partials: manifests whose identity no longer matches the
    # plan (corpus changed -> ordinal part_ids shifted) or orphans beyond it
    for pid in completed_partitions(partials_dir) - done:
        for f in glob.glob(os.path.join(partials_dir, f"*-{pid:06d}.*")):
            os.remove(f)
    todo = [u for u in units if u["part_id"] not in done]
    if not resume:
        for d in (partials_dir, docs_dir, postings_dir, dict_dir, stats_dir):
            if os.path.isdir(d):
                shutil.rmtree(d)

    import time as _time

    timings: dict[str, float] = {}
    _t0 = _time.time()

    # ---- stage 1: SPIMI partials (checkpointed, embarrassingly parallel;
    # stateless tasks reuse warm worker processes — an actor pool would pay
    # process spawn + imports per actor per build)
    if todo:
        _tokenize_stage(todo, partials_dir, mode=mode, column_map=column_map,
                        key_cols=key_cols, n_buckets=n_buckets,
                        keyword_fields=keyword_fields, positions=positions,
                        retries=retries)

    timings["tokenize_partials"] = _time.time() - _t0

    metrics = []
    for pid in sorted(completed_partitions(partials_dir)):
        with open(os.path.join(partials_dir, f"manifest-{pid:06d}.json")) as f:
            metrics.append(json.load(f))
    n_docs_partial = sum(m["n_docs"] for m in metrics)
    sum_dl = sum(m["sum_dl"] for m in metrics)
    n_postings = sum(m["n_postings"] for m in metrics)

    # wipe derived dirs (they are rebuilt from partials below). Delta
    # segments (pipelines/segments.py) are folded in too: the rebuild
    # derives the base from ALL partials, so leaving segments/ alive would
    # double-count their docs at query time. Tombstones (deletes/) are
    # doc_id-based and doc_ids are reassigned here, so stale tombstones
    # would mask the WRONG docs — a rebuild clears them (the documented
    # delete_by_query contract: rebuilds expunge/reset deletes).
    for d in (docs_dir, postings_dir, dict_dir, stats_dir,
              os.path.join(index_dir, "keymap"),
              os.path.join(index_dir, "segments"),
              os.path.join(index_dir, "deletes")):
        if os.path.isdir(d):
            shutil.rmtree(d)

    # ---- stage 2: dense doc_ids in doc_key order
    _t0 = _time.time()
    id_stats = _assign_doc_ids(
        partials_dir, docs_dir, parallelism,
        driver_sort_threshold=driver_small_threshold,
        keymap_dir=os.path.join(index_dir, "keymap"),
    )
    timings["doc_ids"] = _time.time() - _t0
    n_docs = id_stats["n_docs"]
    assert n_docs == n_docs_partial, (n_docs, n_docs_partial)
    avgdl = (sum_dl / n_docs) if n_docs else 0.0

    # ---- stage 3: postings merge + encode
    _t0 = _time.time()
    _encode_postings(
        partials_dir, docs_dir, postings_dir, chunk_bits, n_shards, parallelism,
        driver_small_threshold=driver_small_threshold,
        keymap_broadcast_rows=keymap_broadcast_rows,
        retries=retries,
    )
    timings["postings_encode"] = _time.time() - _t0

    # ---- stage 4: dictionary (df = sum of chunk posting counts)
    _t0 = _time.time()
    n_terms = _write_dictionary(postings_dir, dict_dir, driver_small_threshold)
    timings["dictionary"] = _time.time() - _t0

    # ---- stage 5: stats + lineage
    os.makedirs(stats_dir, exist_ok=True)
    meta = {
        "timings": {k: round(v, 3) for k, v in timings.items()},
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "avgdl": avgdl,
        "n_postings": n_postings,
        "n_terms": n_terms,
        "k1": k1,
        "b": b,
        "mode": mode,
        "keyword_fields": dict(keyword_fields or {}),
        "positions": bool(positions),
        "chunk_bits": chunk_bits,
        "n_shards": n_shards,
        "n_buckets": n_buckets,
        "n_partitions": len(units),
        "source_files": paths,
        # full build config + key range: segment append (pipelines/
        # segments.py) reuses the exact config and gates on key monotony
        "column_map": build_cfg["column_map"],
        "key_cols": build_cfg["key_cols"],
        "min_doc_key": id_stats.get("min_doc_key"),
        "max_doc_key": id_stats.get("max_doc_key"),
        # bucket files are written (term, last_doc_id)-sorted; a
        # single-generation Searcher load skips its global sort on this
        "postings_term_sorted": True,
    }
    with open(os.path.join(stats_dir, "meta.json"), "w") as f:
        json.dump(meta, f, indent=1)
    if metrics:
        pq.write_table(
            pa.Table.from_pylist(metrics),
            os.path.join(stats_dir, "partition_metrics.parquet"),
        )
    with open(os.path.join(index_dir, "_SUCCESS"), "w") as f:
        json.dump({"n_docs": n_docs, "n_postings": n_postings}, f)
    return meta


def build_multi_index(
    corpus,
    root: str,
    specs: dict,
    *,
    partition_rows: int = 50_000,
    resume: bool = True,
    force: bool = False,
) -> dict:
    """One-pass fan-out build: read each corpus partition ONCE and tokenize
    it for EVERY index spec, then finish each index from its own partials.

    The reference serializes one ledger stream into six typed doc outputs
    through a single buffer (/root/reference/es/ledger_serializer.go:35-56);
    here ``specs`` maps index name -> build_index kwargs (mode, column_map,
    key_cols, keyword_fields, n_shards, chunk_bits, ...). N indexes cost ONE
    corpus read instead of N. Returns {name: meta}.

    Stage 2+ (doc ids, merge, dictionary) then runs per index via
    ``build_index(resume=True)``, which finds every stage-1 manifest
    complete and skips straight to the post-tokenize stages.
    """
    import ray
    import ray.data as rd

    from astrologer_ray.stages.spimi import (
        completed_units,
        effective_config,
        tokenize_units_multi,
    )

    if force and os.path.isdir(root):
        shutil.rmtree(root)
    os.makedirs(root, exist_ok=True)
    paths = _corpus_paths(corpus)
    units = plan_partitions(paths, target_rows=partition_rows)

    stage1_specs: dict[str, dict] = {}
    done_sets: dict[str, set[int]] = {}
    for name, spec in specs.items():
        idx_dir = os.path.join(root, name)
        partials = os.path.join(idx_dir, "partials")
        kw = dict(
            partials_dir=partials,
            mode=spec.get("mode", "code"),
            column_map=spec.get("column_map"),
            key_cols=spec.get("key_cols"),
            n_buckets=spec.get("n_shards", DEFAULT_N_SHARDS),
            keyword_fields=spec.get("keyword_fields"),
        )
        stage1_specs[name] = kw
        cfg = effective_config(
            mode=kw["mode"], column_map=kw["column_map"], key_cols=kw["key_cols"],
            n_buckets=kw["n_buckets"], keyword_fields=kw["keyword_fields"],
        )
        done_sets[name] = completed_units(partials, units, config=cfg) if resume else set()

    # Asymmetric resume: a unit re-tokenizes ONLY for the indexes whose
    # partials are missing/stale — one index's staleness (config change,
    # deleted manifest) must not rewrite another's completed partials.
    # Units are grouped by the exact set of indexes needing them so the
    # common all-fresh / all-stale cases stay a single Ray job.
    groups: dict[tuple[str, ...], list[dict]] = {}
    for u in units:
        need = tuple(n for n in specs if u["part_id"] not in done_sets[n])
        if need:
            groups.setdefault(need, []).append(u)
    for need, todo in groups.items():
        rd.from_items(todo, override_num_blocks=len(todo)).map_batches(
            tokenize_units_multi,
            fn_kwargs={"specs": {n: stage1_specs[n] for n in need}},
            batch_format="pyarrow",
            batch_size=1,
            num_cpus=1,
        ).materialize()

    metas = {}
    for name, spec in specs.items():
        metas[name] = build_index(
            corpus, os.path.join(root, name), resume=True,
            partition_rows=partition_rows, **spec,
        )
    return metas

