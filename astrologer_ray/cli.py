"""CLI — the reference's command surface re-expressed for the Ray engine.

Reference commands (/root/reference/main.go:12-38, commands/):
  create-index  -> ``create-index`` : init the index layout (--force wipes)
  export        -> ``build``        : bulk index build (the flagship)
  ingest        -> ``ingest``       : batch-incremental follow-up build —
                   detect corpus partitions missing from the manifest and
                   build only those (the reference's tail-follow + gap
                   backfill model, commands/ingest.go + stats.go, made
                   batch-incremental per SURVEY §2.10)
  stats         -> ``stats``        : source-vs-index reconciliation table
  (new)         -> ``search``       : top-k BM25 queries from the terminal

Owns its Ray session (guarded init) — library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session(num_cpus: int | None):
    import os
    import ray

    if not ray.is_initialized():
        # RAY_ADDRESS governs the target: "local" (the sandbox default)
        # starts an in-process cluster; under `ray job submit` the job
        # runtime sets RAY_ADDRESS to the cluster address and the same CLI
        # commands drive the multi-node cluster unchanged
        kwargs = {"address": os.environ.get("RAY_ADDRESS", "local"),
                  "include_dashboard": False,
                  "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus and kwargs["address"] == "local":
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_create_index(args) -> int:
    import os
    import shutil

    if args.force and os.path.isdir(args.index):
        shutil.rmtree(args.index)
    for sub in ("partials", "docs", "postings", "dict", "stats"):
        os.makedirs(os.path.join(args.index, sub), exist_ok=True)
    print(json.dumps({"index": args.index, "created": True}))
    return 0


def cmd_convert(args) -> int:
    from astrologer_ray.sources.jsonl import convert_jsonl_corpus

    cmap = {}
    for kv in args.map or []:
        dst, _, src = kv.partition("=")
        if not src:
            print(json.dumps({"error": f"--map wants dst=src, got {kv!r}"}))
            return 2
        cmap[dst] = src
    manifest = convert_jsonl_corpus(args.jsonl, args.out,
                                    column_map=cmap or None,
                                    overwrite=args.overwrite)
    print(json.dumps({
        "shards": len(manifest),
        "rows": int(sum(r["rows"] for r in manifest)),
        "skipped_rows": int(sum(r["skipped_rows"] for r in manifest)),
        "resumed_shards": int(sum(1 for r in manifest if r["resumed"])),
        "out": args.out,
    }))
    return 0


def cmd_build(args) -> int:
    from astrologer_ray.pipelines.build import build_index

    if args.dry_run:
        # K4 analog (/root/reference/commands/export.go:77-87): report the
        # plan without touching the sink
        from astrologer_ray.pipelines.build import _corpus_paths
        from astrologer_ray.stages.spimi import completed_partitions, plan_partitions

        import os

        units = plan_partitions(_corpus_paths(args.corpus), args.partition_rows)
        done = completed_partitions(os.path.join(args.index, "partials"))
        print(json.dumps({
            "dry_run": True,
            "partitions": len(units),
            "rows": sum(u["n_rows"] for u in units),
            "already_complete": sorted(done),
            "would_build": [u["part_id"] for u in units if u["part_id"] not in done],
        }))
        return 0

    _ray_session(args.num_cpus)
    kw = dict(kv.split("=", 1) for kv in (args.keyword_field or []))
    meta = build_index(
        args.corpus, args.index, mode=args.mode or "code", force=args.force,
        partition_rows=args.partition_rows, resume=not args.no_resume,
        retries=args.retries, keyword_fields=kw or None,
        positions=args.positions,
    )
    print(json.dumps(meta, default=str))
    return 0


def cmd_ingest(args) -> int:
    """Incremental: rebuild only partitions absent from the manifest.

    ``--follow`` turns this into the reference's tail-follow daemon
    (/root/reference/commands/ingest.go:46-52): poll the corpus every
    ``--poll-seconds``, building whatever partitions are new or stale.
    ``--max-polls`` bounds the loop (0 = forever) for tests/supervisors.
    """
    from astrologer_ray.pipelines.build import (
        DEFAULT_N_SHARDS,
        _corpus_paths,
        build_index,
    )
    from astrologer_ray.stages.spimi import (
        completed_units,
        effective_config,
        existing_bucket_count,
        plan_partitions,
    )

    import os
    import time

    _ray_session(args.num_cpus)
    partials = os.path.join(args.index, "partials")
    # ingest must preserve the ORIGINAL build configuration: a resume config
    # missing --keyword-field (or with a different merge bucket count) would
    # mismatch every manifest and silently retokenize the whole corpus — so
    # flags not given on the command line default from the index's meta.json.
    kw = dict(kv.split("=", 1) for kv in (args.keyword_field or [])) or None
    positions = args.positions
    try:
        from astrologer_ray.pipelines.build import load_meta

        meta0 = load_meta(args.index)
        if kw is None:
            kw = meta0.get("keyword_fields") or None
        if not positions:
            positions = bool(meta0.get("positions", False))
        if args.mode is None:
            # mode must inherit too: a cfg with the wrong analyzer matches
            # no manifest and silently retokenizes/replaces the whole index
            args.mode = meta0.get("mode", "code")
    except (FileNotFoundError, KeyError, OSError):
        pass  # first build of this index: flags as given
    if args.mode is None:
        args.mode = "code"
    n_buckets = existing_bucket_count(partials) or DEFAULT_N_SHARDS
    cfg = effective_config(mode=args.mode, n_buckets=n_buckets,
                           keyword_fields=kw, positions=positions)

    def one_pass() -> dict:
        units = plan_partitions(_corpus_paths(args.corpus), args.partition_rows)
        done = completed_units(partials, units, config=cfg)
        missing = [u["part_id"] for u in units if u["part_id"] not in done]
        if not missing and os.path.exists(os.path.join(args.index, "_SUCCESS")):
            return {"up_to_date": True, "partitions": len(units)}
        if args.append:
            # delta segment: encode ONLY the new partitions; the base index
            # is never rewritten (pipelines/segments.py)
            from astrologer_ray.pipelines.segments import append_segment

            out = append_segment(args.corpus, args.index,
                                 partition_rows=args.partition_rows,
                                 retries=args.retries)
            out.pop("segment_meta", None)
            if args.auto_compact:
                # ES merge-policy analog: fold segments back into the base
                # once their count reaches the threshold, bounding the
                # per-query generation fan-in (stage 1 is never repeated —
                # compaction reuses the checkpointed partials)
                from astrologer_ray.pipelines.segments import (
                    compact_index,
                    segment_dirs,
                )

                if len(segment_dirs(args.index)) >= args.auto_compact:
                    compact_index(args.corpus, args.index,
                                  partition_rows=args.partition_rows,
                                  retries=args.retries)
                    out["auto_compacted"] = True
            return out
        meta = build_index(
            args.corpus, args.index, mode=args.mode, resume=True,
            partition_rows=args.partition_rows, retries=args.retries,
            keyword_fields=kw, positions=positions,
        )
        return {"rebuilt_partitions": missing,
                **{k: meta[k] for k in ("n_docs", "n_postings", "n_terms")}}

    if not args.follow:
        print(json.dumps(one_pass()))
        return 0
    polls = 0
    while True:
        print(json.dumps(one_pass()), flush=True)
        polls += 1
        if args.max_polls and polls >= args.max_polls:
            return 0
        time.sleep(args.poll_seconds)


def cmd_compact(args) -> int:
    """Fold all delta segments into the base (pipelines/segments.py)."""
    from astrologer_ray.pipelines.segments import compact_index

    _ray_session(args.num_cpus)
    meta = compact_index(args.corpus, args.index,
                         partition_rows=args.partition_rows,
                         retries=args.retries)
    print(json.dumps(meta, default=str))
    return 0


def cmd_stats(args) -> int:
    """Source-vs-index reconciliation (reference commands/stats.go:20-67)."""
    import os

    from astrologer_ray.pipelines.build import _corpus_paths, load_meta
    from astrologer_ray.stages.spimi import completed_units, plan_partitions

    units = plan_partitions(_corpus_paths(args.corpus), args.partition_rows)
    done = completed_units(os.path.join(args.index, "partials"), units)
    rows = []
    for u in units:
        rows.append({
            "part_id": u["part_id"],
            "file": os.path.basename(u["file"]),
            "rows": u["n_rows"],
            "state": "complete" if u["part_id"] in done else "MISSING",
        })
    out = {"partitions": rows,
           "missing": [r["part_id"] for r in rows if r["state"] == "MISSING"]}
    try:
        out["index_meta"] = load_meta(args.index)
    except FileNotFoundError:
        out["index_meta"] = None
    print(json.dumps(out, indent=1))
    return 0


def cmd_info(args) -> int:
    """ES ``_stats`` analog: index metadata, combined generation stats,
    segment/tombstone counts and on-disk sizes — no Ray session needed."""
    import glob as _glob
    import os

    from astrologer_ray.pipelines.build import load_meta
    from astrologer_ray.pipelines.segments import combined_stats, segment_dirs

    meta = load_meta(args.index)
    out = {
        "index": args.index,
        "meta": meta,
        "combined": combined_stats(args.index),
        "segments": len(segment_dirs(args.index)),
    }
    ddir = os.path.join(args.index, "deletes")
    n_del = 0
    for p in _glob.glob(os.path.join(ddir, "*.parquet")):
        import pyarrow.parquet as pq

        n_del += pq.read_metadata(p).num_rows
    out["tombstones"] = n_del
    sizes = {}
    for sub in ("postings", "dict", "docs", "partials", "segments"):
        d = os.path.join(args.index, sub)
        sizes[sub] = sum(
            os.path.getsize(os.path.join(r, f))
            for r, _dirs, files in os.walk(d) for f in files
        ) if os.path.isdir(d) else 0
    out["bytes"] = sizes
    print(json.dumps(out, default=str))
    return 0


def cmd_check(args) -> int:
    """Index integrity verification (pipelines/integrity.py): the ops
    check behind crash-resume — consistency of docs/dict/postings/meta
    across the base index and every delta segment."""
    from astrologer_ray.pipelines.integrity import check_corpus, check_index

    _ray_session(args.num_cpus)
    out = check_index(args.index, sample_chunks=args.sample_chunks)
    if args.corpus:
        out["corpus"] = check_corpus(args.index, args.corpus,
                                     sample=args.corpus_sample)
        out["ok"] = out["ok"] and out["corpus"]["ok"]
    print(json.dumps(out, indent=1))
    return 0 if out["ok"] else 1


def cmd_terms(args) -> int:
    """Dictionary introspection (ES `_cat`-style): top-k terms by df,
    optionally restricted to a prefix or wildcard pattern. Serves from the
    dictionary only — no postings load (load_docs=False, term stats are
    already summed across generations)."""
    from astrologer_ray.state.searcher import Searcher

    s = Searcher(args.index, load_docs=False)
    if args.wildcard:
        terms = s.expand_wildcard(args.wildcard)
    elif args.prefix:
        terms = s.expand_prefix(args.prefix)
    else:
        terms = list(s.df.keys())
    rows = sorted(
        ((t, s.df[t], s.cf.get(t, 0)) for t in terms),
        key=lambda r: (-r[1], r[0]),
    )[: args.k]
    for t, df, cf in rows:
        print(json.dumps({"term": t, "df": int(df), "cf": int(cf)}))
    return 0


def cmd_terms_enum(args) -> int:
    """ES ``_terms_enum`` analog: sorted index terms starting with a
    string, paged by ``--after`` — the autocomplete endpoint. ``field``
    is the analyzed text field or a keyword field."""
    from astrologer_ray.state.dsl import execute_terms_enum
    from astrologer_ray.state.searcher import Searcher

    s = Searcher(args.index, load_docs=False)
    body = {"field": args.field, "string": args.string,
            "size": args.size}
    if args.after is not None:
        body["search_after"] = args.after
    print(json.dumps(execute_terms_enum(s, body)))
    return 0


def cmd_buckets(args) -> int:
    """The reference's ``es-stats`` command
    (/root/reference/commands/es-stats.go:19-57): fixed-step range-bucket
    doc counts over a column, bucket bounds anchored at the column MIN
    and the last bucket's ``to`` capped at the MAX, one
    ``{"from", "to", "doc_count"}`` JSON row per bucket.  ES range-agg
    semantics: each bucket counts ``from <= v < to`` (so, like the
    reference, rows equal to the max fall outside the capped last
    bucket).  One pruned column read; counting is a vectorized
    bucketize map + a bucket-count groupby — no row leaves the cluster."""
    import pyarrow.compute as pc
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import stats_min_max

    _ray_session(args.num_cpus)
    ds = rd.read_parquet(args.parquet, columns=[args.col])
    mm = stats_min_max(ds, args.col)
    lo = mm[f"min_{args.col}"][0].as_py()
    hi = mm[f"max_{args.col}"][0].as_py()
    step = args.step
    if isinstance(lo, int) and float(step).is_integer():
        step = int(step)  # integer column + integral step: integer bounds

    def bucketize(t):
        import pyarrow as _pa

        v = pc.cast(t[args.col], _pa.float64())
        idx = pc.cast(pc.floor(
            pc.divide(pc.subtract(v, float(lo)), float(step))), _pa.int64())
        # v == max falls outside every [from, to) range (the reference
        # caps the last bucket's `to` AT the max) — sentinel it out
        idx = pc.if_else(pc.equal(v, float(hi)), _pa.scalar(-1, _pa.int64()),
                         idx)
        return _pa.table({"idx": idx})

    from ray.data.aggregate import Count

    counts = dict(
        (r["idx"], r["n"])
        for r in ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("idx").aggregate(Count(alias_name="n")).take_all()
    )
    i, frm = 0, lo
    while frm < hi:
        to = min(frm + step, hi)
        print(json.dumps({"from": frm, "to": to,
                          "doc_count": int(counts.get(i, 0))}))
        i, frm = i + 1, frm + step
    return 0


def cmd_delete(args) -> int:
    """ES _delete_by_query: tombstone docs matching the filter DSL."""
    from astrologer_ray.pipelines.segments import delete_by_query

    _ray_session(args.num_cpus)
    out = delete_by_query(args.index, json.loads(args.filter))
    print(json.dumps(out))
    return 0


def cmd_rollup(args) -> int:
    """ES _rollup/job analog: materialize the bucket table once; serve
    aggs from it with `--serve histogram|terms` (pipelines/rollup.py)."""
    import os

    from astrologer_ray.pipelines.rollup import (
        build_rollup,
        rollup_histogram,
        rollup_terms,
    )

    path = os.path.join(args.out, "rollup.parquet")
    if args.serve is None or not os.path.exists(path):
        import ray.data as rd

        _ray_session(args.num_cpus)
        ds = rd.read_parquet(args.src, columns=[args.ts_col, args.group,
                                                args.value_col])
        path = build_rollup(ds, args.out, ts_col=args.ts_col,
                            group_cols=(args.group,),
                            value_col=args.value_col,
                            interval=args.interval)
    if args.serve == "histogram":
        t = rollup_histogram(path, group=args.filter_group)
        print(t.to_pandas().to_json(orient="records"))
    elif args.serve == "terms":
        print(rollup_terms(path, k=args.k).to_pandas()
              .to_json(orient="records"))
    else:
        print(json.dumps({"rollup": path}))
    return 0


def cmd_update(args) -> int:
    """ES _update_by_query: paint attrs of docs matching the filter DSL."""
    from astrologer_ray.pipelines.segments import update_by_query

    _ray_session(args.num_cpus)
    out = update_by_query(args.index, json.loads(args.filter), args.script)
    print(json.dumps(out))
    return 0


def cmd_reindex(args) -> int:
    """ES _reindex: source corpus -> filtered/transformed dest corpus
    (pipelines/reindex.py), optionally building the dest index."""
    import os

    from astrologer_ray.pipelines.reindex import reindex

    _ray_session(args.num_cpus)
    out = reindex(
        args.src, args.dest,
        query=json.loads(args.query) if args.query else None,
        script=args.script,
        fields=args.fields.split(",") if args.fields else None,
        text_col=args.text_col,
    )
    if args.build:
        import glob as _g

        from astrologer_ray.pipelines.build import build_index

        files = sorted(_g.glob(os.path.join(out["corpus_dir"], "*.parquet")))
        stats = build_index(
            files, os.path.join(args.dest, "index"), mode=args.mode,
            column_map={"repo": None, "path": None, "commit": None,
                        "lang": None, "content": args.text_col},
            key_cols=(args.key_col,),
        )
        out["index"] = {"n_docs": stats.get("n_docs")}
    print(json.dumps(out))
    return 0


def cmd_snapshot(args) -> int:
    """ES snapshot-repository parity: consistent, manifest-carrying,
    atomic copy of one index (no Ray session — pure I/O fan-out)."""
    from astrologer_ray.pipelines.snapshot import snapshot_index

    print(json.dumps(snapshot_index(args.index, args.dest,
                                    threads=args.threads)))
    return 0


def cmd_restore(args) -> int:
    from astrologer_ray.pipelines.snapshot import restore_index

    print(json.dumps(restore_index(args.snapshot, args.dest,
                                   force=args.force, threads=args.threads)))
    return 0


def cmd_search(args) -> int:
    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.state.searcher import Searcher

    _ray_session(args.num_cpus)
    alias_filt = None
    if getattr(args, "aliases", None):
        # resolve through the alias registry (ES: an alias in the URL);
        # an alias filter composes into every query below
        import os

        from astrologer_ray.state.aliases import resolve

        dirs, alias_filt = resolve(args.aliases, args.index)
        # a rolled-over generation is created empty and has nothing to
        # read until a build completes it (_SUCCESS)
        dirs = [d for d in dirs
                if os.path.exists(os.path.join(d, "_SUCCESS"))]
        if not dirs:
            print(f"alias {args.index!r} resolves to no indexes",
                  file=sys.stderr)
            return 2
    else:
        dirs = [d for d in args.index.split(",") if d]
    if len(dirs) > 1:
        # ES multi-index search: GET /idx1,idx2/_search — one Searcher
        # actor per index, per-index statistics (query_then_fetch),
        # hits labeled _index (state/pool.MultiIndexSearchPool)
        from astrologer_ray.state.pool import MultiIndexSearchPool

        pool = MultiIndexSearchPool(dirs, load_docs=True)
        try:
            if getattr(args, "dsl", False):
                body = json.loads(args.query)
                if alias_filt is not None:
                    q = body.get("query")
                    body["query"] = {"bool": {
                        "must": [q] if q else [],
                        "filter": [alias_filt]}}
                print(json.dumps(pool.execute_dsl(body)))
            elif not any((args.fuzzy, args.wildcard, args.regexp,
                          args.phrase_prefix, args.sort_by, args.mlt,
                          args.rescore, args.suggest, args.filter,
                          args.phrase, args.should, args.lang,
                          getattr(args, "template", False))):
                from astrologer_ray.pipelines.build import load_meta

                terms = tokenize(args.query,
                                 mode=load_meta(dirs[0])["mode"])
                for h in pool.search(terms, k=args.k,
                                     filter=alias_filt):
                    print(json.dumps(h))
            else:
                print("multi-index search supports plain and --dsl "
                      "queries only", file=sys.stderr)
                return 2
        finally:
            pool.shutdown()
        return 0
    args.index = dirs[0]
    if alias_filt is not None and not getattr(args, "dsl", False):
        # fold the alias filter into the single-index paths' --filter
        own = json.loads(args.filter) if args.filter else None
        args.filter = json.dumps(
            {"bool": {"must": [own, alias_filt]}} if own else alias_filt)
    if getattr(args, "template", False):
        # ES _search/template: render mustache holes, then execute
        from astrologer_ray.state.dsl import execute_search_template

        if alias_filt is not None:
            # the template executes its rendered body directly and never
            # reads --filter — refuse rather than silently drop the
            # alias filter the other paths compose
            print("alias filters are not supported with --template",
                  file=sys.stderr)
            return 2
        s = Searcher(args.index, load_docs=True)
        print(json.dumps(execute_search_template(
            s, json.loads(args.query))))
        return 0
    if getattr(args, "dsl", False):
        # the query operand IS an ES _search request body (the reference's
        # own Postman bodies run verbatim, state/dsl.py)
        from astrologer_ray.state.dsl import execute_dsl

        s = Searcher(args.index, load_docs=True)
        body = json.loads(args.query)
        if alias_filt is not None:
            q = body.get("query")
            body["query"] = {"bool": {"must": [q] if q else [],
                                      "filter": [alias_filt]}}
        print(json.dumps(execute_dsl(s, body)))
        return 0
    s = Searcher(args.index)
    filt = json.loads(args.filter) if args.filter else None
    if args.suggest:
        for r in s.suggest(args.query, k=args.k,
                           max_edits=args.max_edits):
            print(json.dumps(r))
        return 0
    def _with_filt(clause):
        # compose with --filter like every other query path
        return {"bool": {"must": [clause, filt]}} if filt else clause

    if args.fuzzy:
        hits = s.field_lookup(
            _with_filt({"fuzzy": {"value": args.query,
                                  "max_edits": args.max_edits}}),
            decorate=True,
        )[: args.k]
    elif args.wildcard:
        hits = s.field_lookup(_with_filt({"wildcard": args.query}),
                              decorate=True)[: args.k]
    elif args.regexp:
        hits = s.field_lookup(_with_filt({"regexp": args.query}),
                              decorate=True)[: args.k]
    elif args.phrase_prefix:
        hits = s.match_phrase_prefix(
            tokenize(args.query, mode=s.mode), k=args.k, filter=filt,
            decorate=True,
        )
    elif args.sort_by:
        hits = s.sort_by_attr(args.sort_by, k=args.k,
                              descending=not args.asc, filter=filt)
    elif args.mlt:
        hits = s.more_like_this(
            args.query, k=args.k, filter=filt,
            max_query_terms=args.mlt_max_terms, decorate=True,
        )
    elif args.rescore:
        hits = s.rescore(
            tokenize(args.query, mode=s.mode),
            tokenize(args.rescore, mode=s.mode),
            k=args.k, window=args.rescore_window, filter=filt, decorate=True,
        )
    elif args.phrase:
        ph = tokenize(args.query, mode=s.mode)
        if args.slop > 0:
            hits = s.span_near(ph, slop=args.slop, k=args.k, filter=filt,
                               decorate=True)
        else:
            hits = s.phrase_search(ph, k=args.k, filter=filt, decorate=True)
    else:
        hits = s.search(
            tokenize(args.query, mode=s.mode),
            k=args.k,
            lang=args.lang,
            filter=filt,
            strategy=args.strategy,
            should_terms=(
                tokenize(args.should, mode=s.mode) if args.should else None
            ),
            min_should_match=args.min_should_match,
            decorate=True,
        )
    for h in hits:
        print(json.dumps(h))
    return 0


def cmd_field_caps(args) -> int:
    """ES ``_field_caps`` analog (state/dsl.py execute_field_caps)."""
    from astrologer_ray.state.dsl import execute_field_caps
    from astrologer_ray.state.searcher import Searcher

    _ray_session(args.num_cpus)
    s = Searcher(args.index, load_docs=True)
    fields = args.fields.split(",") if args.fields else None
    print(json.dumps(execute_field_caps(s, fields)))
    return 0


def cmd_mapping(args) -> int:
    """ES ``GET /<index>/_mapping`` analog (state/dsl.py)."""
    from astrologer_ray.state.dsl import execute_mapping
    from astrologer_ray.state.searcher import Searcher

    _ray_session(args.num_cpus)
    print(json.dumps(execute_mapping(Searcher(args.index,
                                              load_docs=True))))
    return 0


def cmd_validate(args) -> int:
    """ES ``_validate/query`` analog (state/dsl.py execute_validate)."""
    from astrologer_ray.state.dsl import execute_validate
    from astrologer_ray.state.searcher import Searcher

    _ray_session(args.num_cpus)
    s = Searcher(args.index, load_docs=True)
    body = json.loads(args.query) if args.query else None
    print(json.dumps(execute_validate(s, body, explain=args.explain)))
    return 0


def cmd_rank_eval(args) -> int:
    """ES ``_rank_eval`` analog: grade each request's hits against its
    rated documents, print the ES-shaped response (state/dsl.py
    execute_rank_eval)."""
    import sys

    from astrologer_ray.state.dsl import execute_rank_eval
    from astrologer_ray.state.searcher import Searcher

    _ray_session(args.num_cpus)
    raw = sys.stdin.read() if args.body == "-" else open(args.body).read()
    s = Searcher(args.index, load_docs=True)
    print(json.dumps(execute_rank_eval(s, json.loads(raw))))
    return 0


def cmd_count(args) -> int:
    """ES ``_count`` analog: the matched-doc count for a query body
    (same exact-total semantics as ``_search`` hits.total)."""
    from astrologer_ray.state.dsl import execute_count
    from astrologer_ray.state.searcher import Searcher

    _ray_session(args.num_cpus)
    s = Searcher(args.index, load_docs=True)
    body = json.loads(args.query) if args.query else None
    print(json.dumps(execute_count(s, body)))
    return 0


def cmd_msearch(args) -> int:
    """ES ``_msearch`` analog: one ``_search`` request body per input
    line (NDJSON; ES header lines are unnecessary — the index comes
    from the INDEX operand, a single dir or comma-separated dirs for
    multi-index scatter), served in one scatter over the pool and
    printed one JSON response per line, in request order."""
    import sys

    from astrologer_ray.state.pool import ReplicatedSearchPool

    _ray_session(args.num_cpus)
    raw = (sys.stdin.read() if args.bodies == "-"
           else open(args.bodies).read())
    bodies = [json.loads(ln) for ln in raw.splitlines() if ln.strip()]
    if "," in args.index:
        # ES multi-index _msearch: every body scatters to all indexes
        from astrologer_ray.state.pool import MultiIndexSearchPool

        if getattr(args, "sharded", False):
            print("multi-index msearch does not compose with --sharded",
                  file=sys.stderr)
            return 2
        pool = MultiIndexSearchPool(
            [d for d in args.index.split(",") if d], load_docs=True)
    elif getattr(args, "sharded", False):
        from astrologer_ray.state.pool import ShardedSearchPool

        pool = ShardedSearchPool(args.index, n_actors=args.replicas,
                                 load_docs=True)
    else:
        pool = ReplicatedSearchPool(args.index, n_actors=args.replicas,
                                    load_docs=True)
    try:
        for resp in pool.msearch(bodies):
            print(json.dumps(resp))
    finally:
        pool.shutdown()
    return 0


def cmd_get(args) -> int:
    """ES ``GET /<index>/_doc/<id>`` analog: one doc's sidecar
    attributes as ``_source`` (or ``_mget`` when several ids are
    given)."""
    from astrologer_ray.state.dsl import execute_get, execute_mget
    from astrologer_ray.state.searcher import Searcher

    s = Searcher(args.index, load_docs=True)
    source = args.source.split(",") if args.source else None
    if len(args.doc_ids) == 1:
        print(json.dumps(execute_get(s, args.doc_ids[0], source=source)))
    else:
        print(json.dumps(execute_mget(s, args.doc_ids, source=source)))
    return 0


def cmd_explain(args) -> int:
    """ES ``GET /<index>/_explain/<id>`` analog: whether one doc matches
    a query body, with the BM25 term-by-term breakdown for match
    queries."""
    from astrologer_ray.state.dsl import execute_explain
    from astrologer_ray.state.searcher import Searcher

    _ray_session(args.num_cpus)
    s = Searcher(args.index, load_docs=True)
    print(json.dumps(execute_explain(s, args.doc_id,
                                     json.loads(args.query))))
    return 0


def cmd_aliases(args) -> int:
    """ES ``_aliases`` analog: list the registry, or apply an actions
    body atomically (all add/remove actions publish together — the
    zero-downtime swap primitive that pairs with ``cli reindex``)."""
    from astrologer_ray.state.aliases import apply_actions, load_aliases

    if args.actions is None:
        print(json.dumps(load_aliases(args.file)))
        return 0
    body = json.loads(args.actions)
    reg = apply_actions(args.file, body["actions"])
    print(json.dumps({"acknowledged": True,
                      "aliases": sorted(reg["aliases"])}))
    return 0


def cmd_rollover(args) -> int:
    """ES ``_rollover`` analog: when the alias's write index (its LAST
    entry) meets a condition, create the next generation dir and
    atomically repoint the alias — old generations stay in the alias
    for reads, new writes go to the fresh index (ES rollover keeps the
    rolled-over index searchable behind the alias). Conditions are
    checked against the engine's combined base+segment stats, so docs
    appended via ``cli ingest`` count."""
    import os
    import re as _re

    from astrologer_ray.pipelines.segments import combined_stats
    from astrologer_ray.state.aliases import apply_actions, resolve

    dirs, _filt = resolve(args.aliases, args.alias)
    if not dirs:
        print(f"rollover: alias {args.alias!r} resolves to no indexes",
              file=sys.stderr)
        return 2
    write_idx = dirs[-1]
    try:
        n_docs = combined_stats(write_idx)["n_docs"]
    except FileNotFoundError:
        n_docs = 0  # freshly rolled generation: created, not yet built
    met = {}
    if args.max_docs is not None:
        met["max_docs"] = n_docs >= args.max_docs
    if not met:
        print("rollover: no conditions given (--max-docs)",
              file=sys.stderr)
        return 2
    rolled = all(met.values())
    out = {"rolled_over": rolled, "old_index": write_idx,
           "conditions": met, "docs": n_docs}
    if rolled and not args.dry_run:
        if args.new_index:
            new_idx = args.new_index
        else:
            # ES naming: trailing -NNNNNN increments, else append -000002
            m = _re.search(r"-(\d+)$", write_idx)
            new_idx = (f"{write_idx[: m.start()]}-{int(m.group(1)) + 1:06d}"
                       if m else f"{write_idx}-000002")
        for sub in ("partials", "docs", "postings", "dict", "stats"):
            os.makedirs(os.path.join(new_idx, sub), exist_ok=True)
        apply_actions(args.aliases, [
            {"add": {"index": new_idx, "alias": args.alias}}])
        out["new_index"] = new_idx
    print(json.dumps(out))
    return 0


def cmd_termvectors(args) -> int:
    """ES ``_termvectors`` analog: per-term term_freq (+ positions) for
    one doc — an artificial doc passed as ``--doc TEXT``, or a stored
    doc id re-analyzed from ``--corpus`` (the ``_source`` store)."""
    from astrologer_ray.state.dsl import execute_termvectors
    from astrologer_ray.state.searcher import Searcher

    body = {"positions": not args.no_positions,
            "term_statistics": args.term_statistics}
    if args.doc is not None:
        body["doc"] = {"content": args.doc}
        s = Searcher(args.index, load_docs=False)
        print(json.dumps(execute_termvectors(s, body)))
        return 0
    if args.doc_id is None or args.corpus is None:
        print("termvectors: need --doc TEXT, or DOC_ID with --corpus",
              file=sys.stderr)
        return 2
    s = Searcher(args.index, load_docs=True)
    print(json.dumps(execute_termvectors(
        s, body, doc_id=args.doc_id, corpus_dir=args.corpus)))
    return 0


def cmd_analyze(args) -> int:
    """ES ``_analyze`` analog: print the analyzer's token stream for a
    text (token/position, plus exact offsets in ``simple`` mode). Pure
    driver-side — needs no index and no Ray session."""
    from astrologer_ray.functions.tokenizer import analyze

    print(json.dumps(analyze(args.text, mode=args.mode)))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="astrologer_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    ci = sub.add_parser("create-index")
    ci.add_argument("index")
    ci.add_argument("--force", action="store_true")
    ci.set_defaults(fn=cmd_create_index)

    cv = sub.add_parser("convert", help="JSONL shards -> corpus parquet "
                        "(one output per shard, skip-if-done resumable)")
    cv.add_argument("jsonl", help=".jsonl file or directory of shards")
    cv.add_argument("out", help="corpus parquet output directory")
    cv.add_argument("--map", action="append", metavar="DST=SRC",
                    help="corpus column -> source JSON key (repeatable)")
    cv.add_argument("--overwrite", action="store_true")
    cv.set_defaults(fn=cmd_convert)

    for name, fn in (("build", cmd_build), ("ingest", cmd_ingest)):
        b = sub.add_parser(name)
        b.add_argument("corpus")
        b.add_argument("index")
        # default=None so ingest can tell "flag not given" apart from an
        # explicit --mode code and inherit the index's analyzer (below)
        b.add_argument("--mode", default=None, choices=["code", "simple"])
        b.add_argument("--partition-rows", type=int, default=50_000)
        b.add_argument("--force", action="store_true")
        b.add_argument("--no-resume", action="store_true")
        b.add_argument("--dry-run", action="store_true")
        b.add_argument("--follow", action="store_true",
                       help="ingest only: poll the corpus forever")
        b.add_argument("--append", action="store_true",
                       help="ingest only: add new partitions as a delta "
                            "segment instead of re-running the global "
                            "post-tokenize stages (requires monotone keys)")
        b.add_argument("--auto-compact", type=int, default=0, metavar="N",
                       help="with --append: fold segments into the base "
                            "once N delta segments exist (ES merge-policy "
                            "analog; 0 = never)")
        b.add_argument("--poll-seconds", type=float, default=10.0)
        b.add_argument("--max-polls", type=int, default=0,
                       help="stop --follow after N polls (0 = forever)")
        b.add_argument("--retries", type=int, default=3,
                       help="per-task retry budget for write stages")
        b.add_argument("--keyword-field", action="append", metavar="FIELD=COL",
                       help="index exact keyword field (repeatable), "
                            "e.g. --keyword-field lang=lang")
        b.add_argument("--positions", action="store_true",
                       help="store per-posting token positions "
                            "(enables phrase search; ~2x partial volume)")
        b.set_defaults(fn=fn)

    st = sub.add_parser("stats")
    st.add_argument("corpus")
    st.add_argument("index")
    st.add_argument("--partition-rows", type=int, default=50_000)
    st.set_defaults(fn=cmd_stats)

    co = sub.add_parser("compact",
                        help="fold delta segments back into the base index "
                             "(Lucene forced merge; stage 1 not repeated)")
    co.add_argument("corpus")
    co.add_argument("index")
    co.add_argument("--partition-rows", type=int, default=50_000)
    co.add_argument("--retries", type=int, default=3)
    co.set_defaults(fn=cmd_compact)

    inf = sub.add_parser("info", help="index metadata, stats, segment/"
                                      "tombstone counts, on-disk sizes")
    inf.add_argument("index")
    inf.set_defaults(fn=cmd_info)

    ck = sub.add_parser("check",
                        help="verify index integrity across generations "
                             "(dense ids, monotone keys, dictionary<->"
                             "postings counts, sampled chunk decode); "
                             "exit 1 on any violation")
    ck.add_argument("index")
    ck.add_argument("--sample-chunks", type=int, default=8,
                    help="chunks decode-verified per bucket file")
    ck.add_argument("--corpus", default=None,
                    help="also reconcile a doc sample against this source "
                         "corpus: recompute sha256(content) per sampled row "
                         "and compare to the stored invariant column")
    ck.add_argument("--corpus-sample", type=int, default=1024)
    ck.add_argument("--num-cpus", type=int, default=None)
    ck.set_defaults(fn=cmd_check)

    tm = sub.add_parser("terms", help="top-k dictionary terms by df "
                                      "(--prefix / --wildcard restrict)")
    tm.add_argument("index")
    tm.add_argument("-k", type=int, default=20)
    tm.add_argument("--prefix", default=None)
    tm.add_argument("--wildcard", default=None)
    tm.set_defaults(fn=cmd_terms)

    bu = sub.add_parser("buckets",
                        help="fixed-step range-bucket doc counts over a "
                             "column (the reference es-stats command, "
                             "commands/es-stats.go)")
    bu.add_argument("parquet", help="parquet file/dir/glob to scan")
    bu.add_argument("--col", required=True)
    bu.add_argument("--step", type=float, default=10_000,
                    help="bucket width (reference constant: 10000)")
    bu.add_argument("--num-cpus", type=int, default=None)
    bu.set_defaults(fn=cmd_buckets)

    de = sub.add_parser("delete",
                        help="tombstone docs matching a filter "
                             "(ES _delete_by_query; stats keep counting "
                             "them until a rebuild)")
    de.add_argument("index")
    de.add_argument("--filter", required=True, metavar="JSON",
                    help='Searcher filter DSL, e.g. {"match": "slow"}')
    de.set_defaults(fn=cmd_delete)

    ro = sub.add_parser("rollup",
                        help="ES _rollup job: materialize a (time bucket "
                             "x group) agg table once; --serve histogram|"
                             "terms answers from it in O(buckets)")
    ro.add_argument("src", help="source events parquet path/glob")
    ro.add_argument("out", help="rollup output directory")
    ro.add_argument("--ts-col", default="ts", dest="ts_col")
    ro.add_argument("--group", default="event_type")
    ro.add_argument("--value-col", default="value", dest="value_col")
    ro.add_argument("--interval", default="day")
    ro.add_argument("--serve", choices=["histogram", "terms"], default=None)
    ro.add_argument("--filter-group", default=None, dest="filter_group")
    ro.add_argument("-k", type=int, default=None)
    ro.add_argument("--num-cpus", type=int, default=None, dest="num_cpus")
    ro.set_defaults(fn=cmd_rollup)

    up = sub.add_parser("update",
                        help="ES _update_by_query: apply a painless "
                             "ctx._source script to sidecar attrs of "
                             "matching docs (overlay generation; "
                             "analyzed text needs reindex)")
    up.add_argument("index")
    up.add_argument("--filter", required=True, metavar="JSON",
                    help='Searcher filter DSL, e.g. {"match": "merge"}')
    up.add_argument("--script", required=True,
                    help="ctx._source.<attr> = <expr>; statements")
    up.add_argument("--num-cpus", type=int, default=None, dest="num_cpus")
    up.set_defaults(fn=cmd_update)

    ri = sub.add_parser("reindex",
                        help="ES _reindex: stream a corpus through a "
                             "filter query + painless script into a new "
                             "corpus (and optionally its index)")
    ri.add_argument("src", help="source corpus parquet path/glob")
    ri.add_argument("dest", help="destination directory")
    ri.add_argument("--query", default=None, metavar="JSON",
                    help='filter-context DSL, e.g. {"term": {"lang": "en"}}')
    ri.add_argument("--script", default=None,
                    help="ctx._source.<f> = <arithmetic>; statements")
    ri.add_argument("--fields", default=None,
                    help="comma-separated destination projection")
    ri.add_argument("--text-col", default="text", dest="text_col")
    ri.add_argument("--build", action="store_true",
                    help="also build the destination index")
    ri.add_argument("--mode", default="simple")
    ri.add_argument("--key-col", default="doc_id", dest="key_col")
    ri.add_argument("--num-cpus", type=int, default=None, dest="num_cpus")
    ri.set_defaults(fn=cmd_reindex)

    sn = sub.add_parser("snapshot",
                        help="consistent copy of an index (base + "
                             "segments + tombstones) with a size "
                             "manifest; atomic tmp+rename")
    sn.add_argument("index")
    sn.add_argument("dest")
    sn.add_argument("--threads", type=int, default=8)
    sn.set_defaults(fn=cmd_snapshot)

    rs = sub.add_parser("restore",
                        help="restore a snapshot into an index dir "
                             "(verifies the manifest first)")
    rs.add_argument("snapshot")
    rs.add_argument("dest")
    rs.add_argument("--force", action="store_true",
                    help="replace an existing index at dest")
    rs.add_argument("--threads", type=int, default=8)
    rs.set_defaults(fn=cmd_restore)

    se = sub.add_parser("search")
    se.add_argument("index",
                    help="index dir, comma-separated dirs (multi-index), "
                         "or an alias name with --aliases")
    se.add_argument("query")
    se.add_argument("-k", type=int, default=10)
    se.add_argument("--aliases", default=None, metavar="FILE",
                    help="alias registry; INDEX resolves through it "
                         "(alias filters compose into the query)")
    se.add_argument("--lang", default=None)
    se.add_argument("--filter", default=None, metavar="JSON",
                    help='filter DSL, e.g. \'{"bool": {"must": '
                         '[{"term": {"lang": "go"}}, {"range": '
                         '{"dl": {"gte": 10}}}]}}\'')
    se.add_argument("--strategy", default="auto",
                    choices=["auto", "taat", "wand"],
                    help="MaxScore candidate set: auto = essential "
                         "terms' postings, or every doc once a dense head "
                         "term is essential; wand = always the postings; "
                         "taat = always every doc (all exact)")
    se.add_argument("--should", default=None,
                    help="should-clause text: adds BM25 score to matching "
                         "candidates (ES bool.should in query context)")
    se.add_argument("--min-should-match", type=int, default=0)
    se.add_argument("--slop", type=int, default=0,
                    help="with --phrase: allow this many in-order gaps "
                         "(ES span_near; 0 = exact phrase)")
    se.add_argument("--phrase", action="store_true",
                    help="treat the query as a consecutive phrase "
                         "(requires an index built with --positions)")
    se.add_argument("--fuzzy", action="store_true",
                    help="treat QUERY as one term; list docs with any "
                         "term within --max-edits (ES fuzzy query)")
    se.add_argument("--wildcard", action="store_true",
                    help="treat QUERY as an ES wildcard pattern (*/?)")
    se.add_argument("--regexp", action="store_true",
                    help="treat QUERY as an anchored regex over dictionary "
                         "terms (ES regexp query)")
    se.add_argument("--phrase-prefix", action="store_true",
                    help="match_phrase_prefix: QUERY's last token is a "
                         "prefix (needs an index built with --positions)")
    se.add_argument("--suggest", action="store_true",
                    help="print dictionary corrections for QUERY "
                         "(distance asc, df desc)")
    se.add_argument("--max-edits", type=int, default=1)
    se.add_argument("--dsl", action="store_true",
                    help="treat QUERY as an ES _search JSON request body "
                         "(match/bool/term/range/aggs/... — state/dsl.py)")
    se.add_argument("--template", action="store_true",
                    help="treat QUERY as an ES _search/template body "
                         '({"source": ..., "params": ...}): render the '
                         "mustache holes, then execute like --dsl")
    se.add_argument("--sort-by", default=None, metavar="ATTR",
                    help="ignore QUERY; top-k docs by sidecar attribute "
                         "(ES field sort)")
    se.add_argument("--asc", action="store_true",
                    help="ascending --sort-by order (default descending)")
    se.add_argument("--rescore", default=None, metavar="PHRASE",
                    help="rerank the top window with a consecutive-PHRASE "
                         "bonus (ES rescore; needs positions=True)")
    se.add_argument("--rescore-window", type=int, default=50)
    se.add_argument("--mlt", action="store_true",
                    help="more-like-this: treat the query as document text; "
                         "search with its top tf*idf terms")
    se.add_argument("--mlt-max-terms", type=int, default=25)
    se.set_defaults(fn=cmd_search)

    ms = sub.add_parser(
        "msearch",
        help="ES _msearch analog: one _search JSON body per input line, "
             "served in one scatter over a replicated actor pool (or "
             "across comma-separated indexes)")
    ms.add_argument("index",
                    help="index dir, or comma-separated dirs for "
                         "multi-index scatter")
    ms.add_argument("bodies",
                    help="NDJSON file of request bodies ('-' = stdin)")
    ms.add_argument("--replicas", type=int, default=2,
                    help="actor count (default 2)")
    ms.add_argument("--sharded", action="store_true",
                    help="doc-range shard actors with scatter-gather "
                         "merge instead of whole-body replicas "
                         "(shard-mergeable bodies only)")
    ms.set_defaults(fn=cmd_msearch)

    fc = sub.add_parser(
        "field-caps",
        help="ES _field_caps analog: per-field type/capability map")
    fc.add_argument("index")
    fc.add_argument("--fields", default=None,
                    help="comma-separated names; trailing * wildcards")
    fc.set_defaults(fn=cmd_field_caps)

    mp = sub.add_parser(
        "mapping", help="ES _mapping analog: the index's field layout")
    mp.add_argument("index")
    mp.set_defaults(fn=cmd_mapping)

    va = sub.add_parser(
        "validate",
        help="ES _validate/query analog: can this engine serve the body?")
    va.add_argument("index")
    va.add_argument("query", nargs="?", default=None,
                    help="JSON _search body (omitted = match_all)")
    va.add_argument("--explain", action="store_true",
                    help="include the translation summary / refusal")
    va.set_defaults(fn=cmd_validate)

    re_ = sub.add_parser(
        "rank-eval",
        help="ES _rank_eval analog: grade each request's hits against "
             "its rated docs (precision/recall/MRR/DCG+NDCG)")
    re_.add_argument("index")
    re_.add_argument("body",
                     help="JSON file with {requests, metric} ('-' = stdin)")
    re_.set_defaults(fn=cmd_rank_eval)

    cn = sub.add_parser(
        "count", help="ES _count analog: matched-doc count for a query "
                      "body (omit QUERY to count all live docs)")
    cn.add_argument("index")
    cn.add_argument("query", nargs="?", default=None,
                    help='JSON body, e.g. \'{"query": {"match": '
                         '{"content": "merge"}}}\'')
    cn.set_defaults(fn=cmd_count)

    gt = sub.add_parser(
        "get", help="ES _doc/_mget analog: doc sidecar attributes by id")
    gt.add_argument("index")
    gt.add_argument("doc_ids", type=int, nargs="+")
    gt.add_argument("--source", default=None,
                    help="comma-separated attr projection")
    gt.set_defaults(fn=cmd_get)

    te = sub.add_parser(
        "terms-enum", help="ES _terms_enum analog: sorted terms "
                           "starting with STRING, paged by --after")
    te.add_argument("index")
    te.add_argument("field")
    te.add_argument("string", nargs="?", default="")
    te.add_argument("--size", type=int, default=10)
    te.add_argument("--after", default=None)
    te.set_defaults(fn=cmd_terms_enum)

    ex = sub.add_parser(
        "explain", help="ES _explain/<id> analog: does one doc match a "
                        "query body, with the per-term score breakdown")
    ex.add_argument("index")
    ex.add_argument("doc_id", type=int)
    ex.add_argument("query", help='JSON body, e.g. \'{"query": '
                                  '{"match": {"content": "merge"}}}\'')
    ex.set_defaults(fn=cmd_explain)

    al = sub.add_parser(
        "aliases", help="ES _aliases analog: list the registry FILE, or "
                        "apply an actions body atomically (swap = "
                        "remove old + add new in ONE call)")
    al.add_argument("file")
    al.add_argument("actions", nargs="?", default=None,
                    help='e.g. \'{"actions": [{"remove": {"index": '
                         '"/old", "alias": "live"}}, {"add": {"index": '
                         '"/new", "alias": "live"}}]}\'')
    al.set_defaults(fn=cmd_aliases)

    rv = sub.add_parser(
        "rollover", help="ES _rollover analog: create the next index "
                         "generation and repoint ALIAS atomically when "
                         "the write index meets a condition")
    rv.add_argument("alias")
    rv.add_argument("--aliases", required=True, metavar="FILE")
    rv.add_argument("--max-docs", type=int, default=None,
                    dest="max_docs")
    rv.add_argument("--new-index", default=None, dest="new_index")
    rv.add_argument("--dry-run", action="store_true", dest="dry_run")
    rv.set_defaults(fn=cmd_rollover)

    tv = sub.add_parser(
        "termvectors", help="ES _termvectors analog: per-term tf "
                            "(+ positions, index term stats) for one "
                            "doc — --doc TEXT or DOC_ID with --corpus")
    tv.add_argument("index")
    tv.add_argument("doc_id", type=int, nargs="?", default=None)
    tv.add_argument("--doc", default=None,
                    help="artificial document text (analyzed in place)")
    tv.add_argument("--corpus", default=None,
                    help="corpus parquet dir (the _source store) for "
                         "stored-doc re-analysis")
    tv.add_argument("--term-statistics", action="store_true",
                    dest="term_statistics")
    tv.add_argument("--no-positions", action="store_true",
                    dest="no_positions")
    tv.set_defaults(fn=cmd_termvectors)

    an = sub.add_parser(
        "analyze", help="ES _analyze analog: the token stream the "
                        "engine's analyzer emits for TEXT (no index or "
                        "Ray session needed)")
    an.add_argument("text")
    an.add_argument("--mode", choices=("code", "simple"), default="code")
    an.set_defaults(fn=cmd_analyze)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
