"""Index integrity verification — the ops `check` behind crash-resume.

The build is resumable (per-partition checkpoints, pipelines/build.py) and
incrementally extended (delta segments, pipelines/segments.py); after any
interrupted run an operator needs a cheap, trustworthy answer to "is this
index internally consistent, and if not, where?" — the analog of the
reference's source-vs-ES reconciliation loop (/root/reference/commands/
stats.go:20-67) extended to the index's own invariants.

Checks per generation (base index + each delta segment):

* layout: ``_SUCCESS`` marker, meta.json readable;
* docs sidecar: row count == meta ``n_docs``; ``doc_id`` dense and
  contiguous in the generation's id range; ``doc_key`` strictly increasing
  (the monotone-append contract segments rely on); every ``dl`` non-null
  and >= 0 (BM25 reads doc lengths only from here); ``sum(dl)`` == meta;
* dictionary: term count == meta ``n_terms``; every ``df > 0``;
* postings buckets (DISTRIBUTED — one Ray task per bucket file): chunk
  rows (term, last_doc_id)-sorted when meta flags ``postings_term_sorted``;
  ``first_doc_id <= last_doc_id`` and both inside the generation's doc-id
  range; per-chunk posting count ``n > 0``; per-term ``sum(n)`` == the
  dictionary's ``df`` (the dictionary is DERIVED from these counts at build
  time, so a mismatch means a file changed after build); total postings ==
  meta ``n_postings``; a per-bucket SAMPLE of chunks is varbyte-decoded and
  the ids verified ascending, in-range, and exactly ``n`` long. Buckets
  are read by column name, so an index written before doc lengths left
  the postings (extra per-posting dl and per-block columns) is checked
  the same way;
* tombstones: ``doc_id`` within the combined corpus range.

Everything scales: per-bucket checks run as a Ray Data ``map_batches`` over
the bucket file list (no bucket is ever shipped to the driver — each task
returns a small summary row), the docs sidecar is scanned file-by-file with
only (doc_id, doc_key, dl) columns, and decode verification is sampled.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def _check_docs(gdir: str, meta: dict, id_base: int,
                errors: list[str]) -> None:
    files = sorted(glob.glob(os.path.join(gdir, "docs", "*.parquet")))
    if not files:
        errors.append(f"{gdir}: no docs sidecar files")
        return
    n_total = 0
    sum_dl = 0
    prev_id = id_base - 1  # delta generations continue the dense id space
    prev_key = None
    for p in files:
        t = pq.read_table(p, columns=["doc_id", "doc_key", "dl"])
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        if len(ids) == 0:
            continue
        # dense + contiguous across file boundaries (files are id-ordered)
        if ids[0] != prev_id + 1 or not np.array_equal(
            ids, np.arange(ids[0], ids[0] + len(ids))
        ):
            errors.append(f"{p}: doc_id not dense/contiguous after {prev_id}")
        prev_id = int(ids[-1])
        keys = t.column("doc_key").to_pylist()
        if prev_key is not None and keys and keys[0] <= prev_key:
            errors.append(f"{p}: doc_key not increasing across file boundary")
        for a, b in zip(keys, keys[1:]):
            if b <= a:
                errors.append(f"{p}: doc_key not strictly increasing ({a!r})")
                break
        if keys:
            prev_key = keys[-1]
        n_total += len(ids)
        dl = t.column("dl")
        if dl.null_count or pc.any(pc.less(dl, 0)).as_py():
            errors.append(f"{p}: null or negative dl")
        sum_dl += int(pc.sum(dl).as_py() or 0)
    if n_total != int(meta["n_docs"]):
        errors.append(
            f"{gdir}: docs rows {n_total} != meta n_docs {meta['n_docs']}"
        )
    if sum_dl != int(meta["sum_dl"]):
        errors.append(f"{gdir}: docs sum(dl) {sum_dl} != meta {meta['sum_dl']}")


def _load_dict(gdir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(gdir, "dict", "*.parquet")))
    return pa.concat_tables(
        [pq.read_table(p, columns=["term", "df"]) for p in files]
    )


def _bucket_summary(batch: pa.Table) -> pa.Table:
    """One Ray task: verify a few bucket files, return small summary rows
    (term->sum(n) stays inside the task; only totals + per-term digests the
    driver needs for the dictionary cross-check leave it)."""
    from astrologer_ray.functions.codec import POSTINGS_SCHEMA, decode_chunk

    out = []
    for row in batch.to_pylist():
        p = row["path"]
        sorted_flag = bool(row["expect_sorted"])
        id_lo, id_hi = int(row["id_lo"]), int(row["id_hi"])
        sample = int(row["sample"])
        errs: list[str] = []
        t = pq.read_table(p, columns=POSTINGS_SCHEMA.names)
        terms = t.column("term").to_pylist()
        first = np.asarray(t.column("first_doc_id"), dtype=np.int64)
        last = np.asarray(t.column("last_doc_id"), dtype=np.int64)
        n = np.asarray(t.column("n"), dtype=np.int64)
        if sorted_flag:
            keys = list(zip(terms, last.tolist()))
            if keys != sorted(keys):
                errs.append(f"{p}: not (term,last_doc_id)-sorted")
        if (n <= 0).any():
            errs.append(f"{p}: chunk with n<=0")
        if (first > last).any():
            errs.append(f"{p}: first_doc_id > last_doc_id")
        if len(first) and (first.min() < id_lo or last.max() >= id_hi):
            errs.append(f"{p}: chunk doc range outside [{id_lo},{id_hi})")
        # sampled decode: ids ascending, in [first,last], exactly n long
        # (seeded by file NAME, not path hash — deterministic across runs)
        rng = np.random.default_rng(
            int.from_bytes(os.path.basename(p).encode()[-8:], "little")
        )
        for i in sorted(
            rng.choice(len(terms), size=min(sample, len(terms)), replace=False)
        ):
            crow = {c: t.column(c)[int(i)].as_py()
                    for c in ("n", "ids_bytes", "tf_bytes")}
            ids, tfs = decode_chunk(crow)
            if len(ids) != int(n[i]):
                errs.append(f"{p}: chunk {i} decoded {len(ids)} != n {n[i]}")
            elif len(ids) and (np.diff(ids) <= 0).any():
                errs.append(f"{p}: chunk {i} ids not strictly ascending")
            elif len(ids) and (ids[0] != first[i] or ids[-1] != last[i]):
                errs.append(f"{p}: chunk {i} id bounds != (first,last)")
            if (tfs <= 0).any():
                errs.append(f"{p}: chunk {i} tf<=0")
        # per-term n sums, digested: the driver cross-checks against the
        # dictionary without shipping whole posting tables
        agg: dict[str, int] = {}
        for tm, cnt in zip(terms, n.tolist()):
            agg[tm] = agg.get(tm, 0) + int(cnt)
        out.append({
            "path": p,
            "n_postings": int(n.sum()),
            "terms_json": json.dumps(agg, sort_keys=True),
            "errors": json.dumps(errs),
        })
    return pa.Table.from_pylist(out)


def check_index(index_dir: str, sample_chunks: int = 8,
                parallelism: int | None = None) -> dict:
    """Verify every generation of ``index_dir``; returns
    ``{"ok": bool, "errors": [...], "generations": n, "n_docs": N, ...}``.
    Postings buckets are checked distributed (one summary row per file)."""
    import ray.data as rd

    from astrologer_ray.pipelines.segments import index_generations

    gens = index_generations(index_dir)
    errors: list[str] = []
    n_docs_total = 0
    n_postings_total = 0
    id_base = 0  # generations are doc_id-ordered; each continues the space
    for gdir, meta in gens:
        if not os.path.exists(os.path.join(gdir, "_SUCCESS")):
            errors.append(f"{gdir}: missing _SUCCESS")
        declared_base = meta.get("id_base")
        if declared_base is not None and int(declared_base) != id_base:
            errors.append(
                f"{gdir}: id_base {declared_base} != cumulative {id_base}"
            )
        gen_lo = id_base
        gen_hi = id_base + int(meta["n_docs"])
        id_base = gen_hi
        _check_docs(gdir, meta, gen_lo, errors)

        dt = _load_dict(gdir)
        df = dict(zip(dt.column("term").to_pylist(),
                      dt.column("df").to_pylist()))
        if len(df) != int(meta["n_terms"]):
            errors.append(
                f"{gdir}: dict terms {len(df)} != meta n_terms {meta['n_terms']}"
            )
        if any(v <= 0 for v in df.values()):
            errors.append(f"{gdir}: dictionary df<=0")

        files = sorted(glob.glob(os.path.join(gdir, "postings", "*.parquet")))
        if not files:
            errors.append(f"{gdir}: no postings files")
            continue
        items = [{
            "path": p,
            "expect_sorted": bool(meta.get("postings_term_sorted")),
            "id_lo": gen_lo,
            "id_hi": gen_hi,
            "sample": sample_chunks,
        } for p in files]
        summaries = rd.from_items(
            items, override_num_blocks=len(items)
        ).map_batches(
            _bucket_summary, batch_format="pyarrow", batch_size=1,
            num_cpus=1, concurrency=parallelism,
        ).take_all()
        seen_df: dict[str, int] = {}
        n_postings = 0
        for s in summaries:
            errors.extend(json.loads(s["errors"]))
            n_postings += int(s["n_postings"])
            for tm, cnt in json.loads(s["terms_json"]).items():
                seen_df[tm] = seen_df.get(tm, 0) + cnt
        if n_postings != int(meta["n_postings"]):
            errors.append(
                f"{gdir}: postings {n_postings} != meta {meta['n_postings']}"
            )
        if seen_df != df:
            bad = [t for t in set(seen_df) | set(df)
                   if seen_df.get(t) != df.get(t)][:5]
            errors.append(f"{gdir}: dictionary df mismatch for terms {bad}")
        n_docs_total += int(meta["n_docs"])
        n_postings_total += n_postings

    # tombstones reference real docs
    for p in sorted(glob.glob(os.path.join(index_dir, "deletes", "*.parquet"))):
        ids = np.asarray(
            pq.read_table(p, columns=["doc_id"]).column("doc_id"),
            dtype=np.int64,
        )
        if len(ids) and (ids.min() < 0 or ids.max() >= id_base):
            errors.append(f"{p}: tombstone doc_id outside [0,{id_base})")

    return {
        "ok": not errors,
        "errors": errors,
        "generations": len(gens),
        "n_docs": n_docs_total,
        "n_postings": n_postings_total,
    }


def check_corpus(index_dir: str, corpus, sample: int = 1024,
                 parallelism: int | None = None) -> dict:
    """Reconcile the index against its SOURCE: a deterministic hash-sample
    of indexed docs is re-looked-up in the corpus and the stored per-row
    ``sha256(content)`` (the BASELINE.json invariant column, stages/
    spimi.py) recomputed from the source rows and compared.

    Distributed end to end: the docs sidecar is hash-filtered in Ray tasks
    (only ~``sample`` rows reach the driver), the expected (key, sha) map is
    ``ray.put``-broadcast once, and one task per corpus file verifies its
    rows — content never leaves a task. Catches silent source drift (a file
    rewritten after indexing), key-construction skew, and corpus rows the
    index believes exist but don't."""
    import pandas as pd
    import ray
    import ray.data as rd

    from astrologer_ray.pipelines.build import _corpus_paths
    from astrologer_ray.pipelines.segments import index_generations
    from astrologer_ray.stages.spimi import KEY_SEP, _sha256_per_row, fmt_key_arr

    gens = index_generations(index_dir)
    meta0 = gens[0][1]
    key_cols = tuple(meta0.get("key_cols") or ("repo", "path", "commit"))
    column_map = meta0.get("column_map") or {
        "repo": "repo", "path": "path", "commit": "commit",
        "lang": "lang", "content": "content",
    }
    content_src = column_map.get("content")
    n_total = sum(int(m["n_docs"]) for _, m in gens)
    if n_total == 0:
        return {"ok": True, "errors": [], "sampled": 0, "found": 0}
    # deterministic hash sample: key selection is a pure function of the
    # doc_key, so reruns check the same docs and failures reproduce
    prob = min(1.0, sample / n_total)
    threshold = (
        np.uint64(2**64 - 1) if prob >= 1.0 else np.uint64(prob * 2**64)
    )

    def _sample_docs(batch: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            np.asarray(batch.column("doc_key").to_pylist(), dtype=object)
        )
        return batch.filter(pa.array(h < threshold))

    doc_files = [
        p for gdir, _ in gens
        for p in sorted(glob.glob(os.path.join(gdir, "docs", "*.parquet")))
    ]
    picked = rd.read_parquet(
        doc_files, columns=["doc_key", "sha256"]
    ).map_batches(_sample_docs, batch_format="pyarrow").take_all()
    expected = {r["doc_key"]: r["sha256"] for r in picked}
    exp_ref = ray.put(expected)

    def _verify_file(batch: pa.Table) -> pa.Table:
        exp = ray.get(exp_ref)
        exp_keys = np.asarray(list(exp.keys()), dtype=object)
        out = []
        for row in batch.to_pylist():
            cols = list(dict.fromkeys(
                [*key_cols] + ([content_src] if content_src else [])
            ))
            t = pq.read_table(row["path"], columns=cols)
            key_arr = (
                fmt_key_arr(t.column(key_cols[0]))
                if len(key_cols) == 1 else
                pc.binary_join_element_wise(
                    *[fmt_key_arr(t.column(c)) for c in key_cols], KEY_SEP
                )
            )
            keys = np.asarray(key_arr.to_pylist(), dtype=object)
            mask = np.isin(keys, exp_keys)
            idx = np.flatnonzero(mask)
            mism = []
            if len(idx):
                if content_src:
                    sub = t.column(content_src).take(pa.array(idx))
                    shas = _sha256_per_row(sub)
                else:
                    import hashlib

                    shas = [hashlib.sha256(b"").hexdigest()] * len(idx)
                for j, sha in zip(idx, shas):
                    if exp[keys[j]] != sha:
                        mism.append(str(keys[j]))
            out.append({
                "path": row["path"],
                "found_keys": json.dumps([str(keys[j]) for j in idx]),
                "mismatched": json.dumps(mism),
            })
        return pa.Table.from_pylist(out)

    paths = _corpus_paths(corpus)
    res = rd.from_items(
        [{"path": p} for p in paths], override_num_blocks=len(paths)
    ).map_batches(
        _verify_file, batch_format="pyarrow", batch_size=1,
        num_cpus=1, concurrency=parallelism,
    ).take_all()

    errors: list[str] = []
    found: dict[str, int] = {}
    for r in res:
        for k in json.loads(r["found_keys"]):
            found[k] = found.get(k, 0) + 1
        for k in json.loads(r["mismatched"]):
            errors.append(f"sha256 mismatch vs source for doc_key {k!r}")
    missing = [k for k in expected if k not in found]
    dupes = [k for k, c in found.items() if c > 1]
    if missing:
        errors.append(
            f"{len(missing)} sampled docs not found in corpus "
            f"(e.g. {sorted(map(str, missing))[:3]})"
        )
    if dupes:
        errors.append(
            f"{len(dupes)} sampled doc_keys appear multiple times in corpus"
        )
    return {
        "ok": not errors,
        "errors": errors,
        "sampled": len(expected),
        "found": len(found),
    }
