"""Delta segments: batch-incremental index growth without re-encoding.

The reference's ingest is append-only in ledger order — new ledgers arrive
with strictly increasing sequence numbers and are bulk-indexed on top of the
existing Elasticsearch index (/root/reference/commands/ingest.go:31-52,
es/adapter.go:155-183); Elasticsearch itself absorbs them as new Lucene
segments. Here the same contract is explicit: :func:`append_segment` takes
the partitions of the corpus that no index generation has claimed yet,
tokenizes ONLY them, assigns doc_ids continuing the existing dense id space,
and encodes ONLY the new postings into ``index_dir/segments/seg-NNNNNN/``
(its own docs/postings/dict tree, same layout as the base). The base index
is never rewritten — at 100 TB, adding 0.1% new docs costs 0.1% of the
build, not a full re-merge.

Size rule: when the partitions an append adopts hold at most
``partition_rows`` rows in total — one tokenize task's worth, e.g. a
near-real-time tail batch — every stage (tokenize, doc ids, merge+encode,
dictionary) runs as plain calls in the caller's process, with no Ray call at
all; larger appends run tokenize and merge as Ray Data tasks, as the build
does. Both paths write the same partials and the same segment tables; the
in-process path writes the segment's postings as ONE term-sorted file where
the Ray path writes one file per bucket, and builds the dictionary from the
postings it holds instead of reading them back. The segment's
``stats/meta.json`` records which path ran (``in_process``). In process,
the tokenizer's split cache is the process's shared one
(``functions/tokenizer.shared_tokenizer``), warm from earlier appends.

Correctness of multi-segment BM25 (state/searcher.py loads base + segments):

* **doc order** — appends are gated monotone: every new doc_key must sort
  strictly after the largest existing key (the reference's ledger-sequence
  order). Dense doc_ids therefore remain globally doc_key-sorted, chunk ids
  remain ascending, and per-term chunk lists from different segments
  concatenate into valid doc_id-ascending posting lists.
* **exact scores** — postings store per-posting tf, and each doc's length
  is stored once, in its generation's docs sidecar; the searcher scores
  with the COMBINED global stats (N, avgdl summed over segments; df
  summed over per-segment dictionaries), so scores are bit-exact
  regardless of segmentation. Nothing a segment stores depends on the
  corpus-wide avgdl, so an append never rewrites what earlier
  generations wrote.

:func:`compact_index` folds all segments back into the base by re-running
the post-tokenize stages over the FULL partials set (stage-1 work is never
repeated — partials are the durable shuffle input), i.e. the Lucene forced
merge.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time as _time

import pyarrow.parquet as pq

SEGMENTS_SUBDIR = "segments"
CLAIMS_FILE = "claims.json"


def _segments_root(index_dir: str) -> str:
    return os.path.join(index_dir, SEGMENTS_SUBDIR)


def segment_dirs(index_dir: str) -> list[str]:
    """Completed (``_SUCCESS``-marked) segment directories, oldest first."""
    root = _segments_root(index_dir)
    if not os.path.isdir(root):
        return []
    return sorted(
        d for d in glob.glob(os.path.join(root, "seg-*"))
        if os.path.exists(os.path.join(d, "_SUCCESS"))
    )


def load_segment_meta(seg_dir: str) -> dict:
    with open(os.path.join(seg_dir, "stats", "meta.json")) as f:
        return json.load(f)


def index_generations(index_dir: str) -> list[tuple[str, dict]]:
    """(dir, meta) for the base index and every completed segment, in doc_id
    order. The searcher's load list: postings/docs/dict live under each."""
    from astrologer_ray.layout import load_meta

    gens = [(index_dir, load_meta(index_dir))]
    for d in segment_dirs(index_dir):
        gens.append((d, load_segment_meta(d)))
    return gens


def combined_stats(index_dir: str) -> dict:
    """Global corpus statistics over base + segments (what BM25 must use)."""
    gens = index_generations(index_dir)
    n_docs = sum(int(m["n_docs"]) for _, m in gens)
    sum_dl = sum(int(m["sum_dl"]) for _, m in gens)
    return {
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
        "n_postings": sum(int(m["n_postings"]) for _, m in gens),
        "n_segments": len(gens) - 1,
    }


def _claims_path(index_dir: str) -> str:
    return os.path.join(_segments_root(index_dir), CLAIMS_FILE)


def _load_claims(index_dir: str) -> dict | None:
    try:
        with open(_claims_path(index_dir)) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def _write_claims(index_dir: str, claims: dict) -> None:
    p = _claims_path(index_dir)
    os.makedirs(os.path.dirname(p), exist_ok=True)
    with open(p + ".tmp", "w") as f:
        json.dump(claims, f, indent=1)
    os.replace(p + ".tmp", p)


def _reconcile_claims(index_dir: str, claims: dict) -> dict:
    """Re-adopt live segments missing from the ledger. Commit order is
    ``_SUCCESS`` then claims, so a crash between the two leaves a completed
    segment whose pids look unclaimed; without repair the next append would
    adopt those pids into a NEW segment and wedge on the monotone-key gate.
    Each segment's ``stats/meta.json`` stores its ``pids`` — the claims row
    is re-derivable, so derive it."""
    changed = False
    for d in segment_dirs(index_dir):
        name = os.path.basename(d)
        if name not in claims["segments"]:
            claims["segments"][name] = list(load_segment_meta(d)["pids"])
            changed = True
    if changed:
        _write_claims(index_dir, claims)
    return claims


def _max_doc_key(index_dir: str) -> str | None:
    """Largest doc_key across base + segments. Metas record it; for a base
    index built before the field existed, fall back to the docs sidecar
    (files are doc_id-ascending by name, rows sorted within)."""
    gens = index_generations(index_dir)
    mx = None
    for d, m in gens:
        k = m.get("max_doc_key")
        if k is None and int(m.get("n_docs", 0)):
            files = sorted(glob.glob(os.path.join(d, "docs", "docs-*.parquet")))
            if files:
                t = pq.read_table(files[-1], columns=["doc_key"])
                k = t.column("doc_key")[t.num_rows - 1].as_py()
        if k is not None and (mx is None or k > mx):
            mx = k
    return mx


class NonMonotoneAppendError(ValueError):
    """New docs' keys do not all sort after the existing index's keys —
    a delta segment would break the global doc_id/doc_key order. Rebuild
    (``build_index(resume=True)``) or :func:`compact_index` instead."""


def append_segment(
    corpus,
    index_dir: str,
    *,
    partition_rows: int = 50_000,
    parallelism: int | None = None,
    retries: int = 3,
    driver_small_threshold: int = 2_000_000,
    keymap_broadcast_rows: int = 50_000_000,
) -> dict:
    """Append the corpus partitions no generation has claimed as ONE new
    delta segment; returns the combined index stats (plus segment detail).

    Build configuration (tokenizer mode, column map, key columns, keyword
    fields, positions, bucket count) is taken from the BASE index meta —
    an append can never fork the analyzer. No-op (returns the current
    combined stats with ``"appended": 0``) when every partition is claimed
    and up to date. A crashed append leaves only an un-``_SUCCESS``-ed
    segment dir, which the next call wipes and redoes — its partitions are
    unclaimed, so they are adopted into the new segment (stage-1 partials
    are checkpointed and survive).

    Size rule: when the adopted partitions hold at most ``partition_rows``
    rows in total, tokenize and merge run in this process with no Ray call
    (so do doc ids and the dictionary, whatever ``driver_small_threshold``
    says) and the segment gets one postings file; otherwise they run as
    Ray Data tasks, one postings file per bucket. ``retries`` and
    ``parallelism`` apply to Ray tasks only: an in-process failure raises
    to the caller, and the next call redoes the append through the same
    un-``_SUCCESS`` wipe.
    """
    from astrologer_ray.pipelines.build import (
        _assign_doc_ids,
        _corpus_paths,
        _encode_postings,
        _tokenize_stage,
        _write_dictionary,
        load_meta,
    )
    from astrologer_ray.stages.spimi import (
        completed_units,
        effective_config,
        plan_partitions,
    )

    if not os.path.exists(os.path.join(index_dir, "_SUCCESS")):
        raise FileNotFoundError(
            f"no completed base index at {index_dir!r} — run build_index first"
        )
    meta0 = load_meta(index_dir)
    mode = meta0["mode"]
    column_map = meta0.get("column_map")
    key_cols = tuple(meta0["key_cols"]) if meta0.get("key_cols") else None
    keyword_fields = meta0.get("keyword_fields") or None
    positions = bool(meta0.get("positions", False))
    n_buckets = int(meta0["n_buckets"])
    n_shards = int(meta0["n_shards"])
    chunk_bits = int(meta0["chunk_bits"])
    k1, b = float(meta0["k1"]), float(meta0["b"])

    partials_dir = os.path.join(index_dir, "partials")
    cfg = effective_config(
        mode=mode, column_map=column_map, key_cols=key_cols,
        n_buckets=n_buckets, keyword_fields=keyword_fields,
        positions=positions,
    )

    paths = _corpus_paths(corpus)
    units = plan_partitions(paths, target_rows=partition_rows)
    done = completed_units(partials_dir, units, config=cfg)

    # claims: which partition ids each generation's postings cover. Init on
    # the first append — everything complete at that moment is the base
    # build's — and persist IMMEDIATELY, before any tokenize: a crash after
    # stage 1 must never let orphan (tokenized-but-unencoded) partitions
    # masquerade as base coverage on the next call.
    claims = _load_claims(index_dir)
    if claims is None:
        claims = {"base": sorted(done), "segments": {}}
        _write_claims(index_dir, claims)
    claims = _reconcile_claims(index_dir, claims)
    claimed: set[int] = set(claims["base"])
    for seg_pids in claims["segments"].values():
        claimed |= set(seg_pids)

    # a claimed partition whose manifest no longer matches the plan means
    # the corpus changed UNDER already-encoded postings (file edited, or a
    # new file shifted the ordinal ids) — a delta append cannot express
    # that; the postings would double- or mis-count docs.
    stale_claimed = sorted(claimed - done)
    if stale_claimed:
        raise ValueError(
            f"claimed partitions changed or vanished "
            f"({stale_claimed[:5]} of {len(stale_claimed)}) — the corpus was "
            "modified in place or replanned (different partition_rows?); "
            "run compact_index() or build_index(resume=True) to rebuild"
        )

    new_pids = sorted(u["part_id"] for u in units if u["part_id"] not in claimed)
    seg_root = _segments_root(index_dir)
    # wipe crashed (pending) segments — their pids are unclaimed and will be
    # re-adopted below
    if os.path.isdir(seg_root):
        for d in glob.glob(os.path.join(seg_root, "seg-*")):
            if not os.path.exists(os.path.join(d, "_SUCCESS")):
                shutil.rmtree(d)
    if not new_pids:
        out = combined_stats(index_dir)
        out["appended"] = 0
        return out

    # size rule: adopted partitions of at most one partition's worth of rows
    # would be a single tokenize task, and one partition's postings leave
    # the merge nothing to spread, so every stage runs in this process
    new_set = set(new_pids)
    in_process = (
        sum(u["n_rows"] for u in units if u["part_id"] in new_set)
        <= partition_rows
    )
    if in_process:
        # doc ids, keymap and dictionary take their driver paths too
        driver_small_threshold = sys.maxsize
    elif parallelism is None:
        import ray

        parallelism = max(2, int(ray.cluster_resources().get("CPU", 4)))

    timings: dict[str, float] = {}
    _t0 = _time.time()
    todo = [u for u in units if u["part_id"] in new_set - done]
    if todo:
        _tokenize_stage(todo, partials_dir, mode=mode, column_map=column_map,
                        key_cols=key_cols, n_buckets=n_buckets,
                        keyword_fields=keyword_fields, positions=positions,
                        retries=retries, in_process=in_process)
    timings["tokenize_partials"] = _time.time() - _t0

    from astrologer_ray.stages.spimi import manifest_path

    seg_metrics = []
    for pid in new_pids:
        with open(manifest_path(partials_dir, pid)) as f:
            seg_metrics.append(json.load(f))
    new_n_docs = sum(m["n_docs"] for m in seg_metrics)
    new_sum_dl = sum(m["sum_dl"] for m in seg_metrics)
    new_n_postings = sum(m["n_postings"] for m in seg_metrics)

    prior = combined_stats(index_dir)
    id_base = prior["n_docs"]
    prev_max_key = _max_doc_key(index_dir)

    seg_name = f"seg-{len(segment_dirs(index_dir)) + 1:06d}"
    seg_dir = os.path.join(seg_root, seg_name)
    os.makedirs(seg_dir, exist_ok=True)

    # ---- stage 2: dense doc ids continuing the existing id space
    _t0 = _time.time()
    id_stats = _assign_doc_ids(
        partials_dir, os.path.join(seg_dir, "docs"), parallelism,
        driver_sort_threshold=driver_small_threshold,
        keymap_dir=os.path.join(seg_dir, "keymap"),
        id_base=id_base, pids=new_set,
    )
    timings["doc_ids"] = _time.time() - _t0
    assert id_stats["n_docs"] == new_n_docs, (id_stats["n_docs"], new_n_docs)
    if (
        prev_max_key is not None
        and id_stats["min_doc_key"] is not None
        and not (id_stats["min_doc_key"] > prev_max_key)
    ):
        shutil.rmtree(seg_dir)
        raise NonMonotoneAppendError(
            f"new min doc_key {id_stats['min_doc_key']!r} does not sort after "
            f"the existing max {prev_max_key!r} — append requires monotone "
            "keys (the reference's ledger-sequence order); run "
            "compact_index()/build_index(resume=True) for out-of-order data"
        )

    # ---- stage 3: encode ONLY the new partitions' postings
    _t0 = _time.time()
    postings = _encode_postings(
        partials_dir, os.path.join(seg_dir, "docs"),
        os.path.join(seg_dir, "postings"), chunk_bits, n_shards, parallelism,
        driver_small_threshold=driver_small_threshold,
        keymap_broadcast_rows=keymap_broadcast_rows,
        retries=retries, pids=new_set, in_process=in_process,
    )
    timings["postings_encode"] = _time.time() - _t0

    # ---- stage 4: per-segment dictionary (searcher sums df across gens)
    _t0 = _time.time()
    n_terms = _write_dictionary(
        os.path.join(seg_dir, "postings"), os.path.join(seg_dir, "dict"),
        driver_small_threshold, postings=postings,
    )
    timings["dictionary"] = _time.time() - _t0

    os.makedirs(os.path.join(seg_dir, "stats"), exist_ok=True)
    seg_meta = {
        "timings": {k: round(v, 3) for k, v in timings.items()},
        # which executor ran tokenize and merge: this process, or Ray Data
        "in_process": in_process,
        "n_docs": new_n_docs,
        "sum_dl": new_sum_dl,
        "n_postings": new_n_postings,
        "n_terms": n_terms,
        "id_base": id_base,
        "min_doc_key": id_stats["min_doc_key"],
        "max_doc_key": id_stats["max_doc_key"],
        "pids": new_pids,
        "k1": k1,
        "b": b,
        "mode": mode,
        "chunk_bits": chunk_bits,
        "n_shards": n_shards,
        "n_buckets": n_buckets,
        # every postings file, one per bucket or the one in-process
        # file, is written (term, last_doc_id)-sorted
        "postings_term_sorted": True,
    }
    with open(os.path.join(seg_dir, "stats", "meta.json"), "w") as f:
        json.dump(seg_meta, f, indent=1)
    # commit order: _SUCCESS marks the segment live, THEN claims record its
    # pids (a crash between the two leaves a live segment whose pids look
    # unclaimed — _reconcile_claims re-derives the row from the segment's
    # own meta on the next load)
    with open(os.path.join(seg_dir, "_SUCCESS"), "w") as f:
        json.dump({"n_docs": new_n_docs, "n_postings": new_n_postings}, f)
    claims["segments"][seg_name] = new_pids
    _write_claims(index_dir, claims)

    out = combined_stats(index_dir)
    out["appended"] = new_n_docs
    out["segment"] = seg_name
    out["segment_meta"] = seg_meta
    return out


def compact_index(corpus, index_dir: str, *,
                  partition_rows: int = 50_000, retries: int = 3) -> dict:
    """Fold all delta segments back into the base index (Lucene forced
    merge). Stage 1 is never repeated — ``build_index(resume=True)`` finds
    every partial manifest complete and re-runs only the post-tokenize
    stages (doc ids, merge+encode, dictionary) over the FULL partition set.
    Appends were monotone, so the reassigned doc_ids are identical —
    which is also why ``deletes/`` tombstones SURVIVE compaction (stashed
    around the rebuild, whose generic wipe would drop them): an ES merge
    never resurrects deleted docs. Only a plain ``build_index`` call on a
    changed corpus — where ids really can move — clears tombstones."""
    import tempfile
    import warnings

    from astrologer_ray.pipelines.build import build_index, load_meta

    meta0 = load_meta(index_dir)
    deletes_dir = os.path.join(index_dir, "deletes")
    updates_dir = os.path.join(index_dir, "updates")
    stash = None
    prior = None
    if os.path.isdir(deletes_dir) or os.path.isdir(updates_dir):
        # tombstones AND attr-update overlays reference doc_ids; they
        # survive compaction ONLY if the rebuild reassigns identical ids.
        # Capture the pre-compact identity (doc count + key extremes
        # across base+segments) to verify after.
        prior = combined_stats(index_dir)
        prior["max_doc_key"] = _max_doc_key(index_dir)
        stash = tempfile.mkdtemp(prefix="deletes-stash-")
        for name, d in (("deletes", deletes_dir), ("updates", updates_dir)):
            if os.path.isdir(d):
                shutil.move(d, os.path.join(stash, name))
    meta = build_index(
        corpus, index_dir,
        mode=meta0["mode"],
        k1=float(meta0["k1"]), b=float(meta0["b"]),
        chunk_bits=int(meta0["chunk_bits"]),
        n_shards=int(meta0["n_shards"]),
        n_buckets=int(meta0["n_buckets"]),
        partition_rows=partition_rows,
        resume=True,
        column_map=meta0.get("column_map"),
        key_cols=tuple(meta0["key_cols"]) if meta0.get("key_cols") else None,
        keyword_fields=meta0.get("keyword_fields") or None,
        positions=bool(meta0.get("positions", False)),
        retries=retries,
    )
    root = _segments_root(index_dir)
    if os.path.isdir(root):
        shutil.rmtree(root)
    if stash is not None:
        # id-stability gate: restore tombstones only when the rebuild
        # provably kept every doc_id. doc_id = rank in the global doc_key
        # sort, so equal doc counts + equal max key (appends were monotone,
        # so no new key can hide inside the old range without changing the
        # count) ⇒ identical assignment. A corpus that gained out-of-order
        # docs since the tombstones were written fails this and the stash
        # is dropped — stale ids silently masking the WRONG documents is
        # strictly worse than resurrecting deleted ones.
        stable = (
            prior is not None
            and int(meta["n_docs"]) == int(prior["n_docs"])
            and meta.get("max_doc_key") == prior.get("max_doc_key")
        )
        if stable:
            for name, d in (("deletes", deletes_dir),
                            ("updates", updates_dir)):
                if os.path.isdir(os.path.join(stash, name)):
                    shutil.move(os.path.join(stash, name), d)
            os.rmdir(stash)
        else:
            warnings.warn(
                "compact_index: corpus changed since tombstones/updates "
                f"were written (docs {prior and prior['n_docs']} -> "
                f"{meta['n_docs']}, max_doc_key "
                f"{prior and prior.get('max_doc_key')!r} -> "
                f"{meta.get('max_doc_key')!r}); doc_ids may have shifted — "
                "dropping stale deletes/updates instead of masking wrong "
                "documents",
                stacklevel=2,
            )
            shutil.rmtree(stash)
    return meta


def delete_by_query(index_dir: str, filter) -> dict:
    """ES ``_delete_by_query`` with tombstones: resolve ``filter`` (the
    Searcher filter DSL — term/match/range/bool/...) against the live
    index and append the matching doc ids to ``deletes/``. Every Searcher
    masks tombstoned docs out of every result path; index statistics
    (N, avgdl, df) intentionally keep counting them — exactly ES semantics
    between segment merges. :func:`compact_index` PRESERVES tombstones
    (monotone appends keep doc_ids stable); only a plain full rebuild
    from the corpus clears them, since its doc_ids may reassign (docs
    reappear unless removed from the corpus; the reference has no delete
    either — its model is reindexing, /root/reference/commands/export.go
    re-export).

    Idempotent: already-tombstoned docs are not re-written. Returns
    ``{"deleted": newly, "total_deleted": all}``.
    """
    import numpy as np
    import pyarrow as pa

    from astrologer_ray.state.searcher import Searcher

    s = Searcher(index_dir, load_docs=True)
    ids = np.flatnonzero(s.filter_mask(filter)).astype(np.int64)
    prior = s.deleted if s.deleted is not None else np.empty(0, np.int64)
    new = np.setdiff1d(ids, prior, assume_unique=False)
    ddir = os.path.join(index_dir, "deletes")
    if len(new):
        os.makedirs(ddir, exist_ok=True)
        n_files = len(glob.glob(os.path.join(ddir, "*.parquet")))
        pq.write_table(
            pa.table({"doc_id": pa.array(new, pa.int64())}),
            os.path.join(ddir, f"deleted-{n_files:05d}.parquet"),
        )
    return {"deleted": int(len(new)),
            "total_deleted": int(len(prior) + len(new))}


_UPDATE_PROTECTED = ("doc_id", "doc_key", "dl")


def update_by_query(index_dir: str, filter, script: str) -> dict:
    """ES ``_update_by_query`` over the docs-sidecar ATTRIBUTES: resolve
    ``filter`` (the Searcher filter DSL) against the live index, apply a
    painless ``ctx._source.<attr> = <expr>`` script (the shared
    functions/painless subset — string literals and arithmetic over other
    attrs) vectorized on the matched rows, and append the result as an
    overlay generation under ``updates/``. Every Searcher folds overlays
    onto ``doc_attrs`` at load (filename order, later wins), so updated
    fields serve through filters / aggs / sorts / rank_feature / script
    queries exactly like stored columns.

    Scope (documented divergence from ES): the ANALYZED text cannot be
    updated — postings are immutable; ES itself reindexes the doc in that
    case, which here is the ``pipelines.reindex`` + rebuild path. The
    scoring-bearing fields (``doc_key``, ``dl``) are protected. Updates
    survive :func:`compact_index` (doc_ids are stable under monotone
    appends, same argument as tombstones); a plain full rebuild clears
    them. Tombstoned docs are skipped (ES semantics: updates apply to
    live docs only).
    """
    import numpy as np
    import pyarrow as pa

    from astrologer_ray.functions import painless
    from astrologer_ray.pipelines.reindex import compile_script
    from astrologer_ray.state.searcher import Searcher

    s = Searcher(index_dir, load_docs=True)
    ids = np.flatnonzero(s.filter_mask(filter)).astype(np.int64)
    if s.deleted is not None and len(s.deleted):
        ids = np.setdiff1d(ids, s.deleted, assume_unique=False)
    stmts = compile_script(script)
    if not stmts:
        raise ValueError("update_by_query needs at least one "
                         "ctx._source.<attr> = <expr> statement")
    cols: dict = {"doc_id": pa.array(ids, pa.int64())}
    # statements see earlier statements' outputs (painless order)
    scratch = {k: v[ids] for k, v in s.doc_attrs.items()}
    for out, expr, src in stmts:
        if out in _UPDATE_PROTECTED:
            raise ValueError(f"attribute {out!r} is immutable "
                             "(rebuild/reindex to change it)")
        vals = painless.evaluate(
            expr, src,
            docs={k: scratch[k] for k in painless.doc_refs(expr)
                  if k in scratch},
            what="update script")
        vals = np.asarray(vals)
        if vals.ndim == 0:  # scalar RHS broadcasts over the matches
            vals = np.full(len(ids), vals.item(),
                           object if vals.dtype.kind in "OUS" else None)
        scratch[out] = vals
        cols[out] = pa.array(
            vals.tolist() if vals.dtype == object or vals.dtype.kind in "US"
            else vals)
    udir = os.path.join(index_dir, "updates")
    os.makedirs(udir, exist_ok=True)
    n_files = len(glob.glob(os.path.join(udir, "*.parquet")))
    path = os.path.join(udir, f"update-{n_files:05d}.parquet")
    tmp = path + ".tmp"
    pq.write_table(pa.table(cols), tmp)
    os.replace(tmp, path)
    return {"updated": int(len(ids)), "generation": n_files,
            "fields": [o for o, _, _ in stmts]}
