"""Headline benchmark. Prints ONE JSON line.

Usage:
  python bench.py                 # full suite over $GRAFT_SF_DIR at $RAY_GRAFT_CPUS
  python bench.py --only=build    # just the index-build headline
  python bench.py --scaling       # build at num_cpus=8 vs 32 in fresh
                                  # processes; prints throughput + efficiency

Pipelines benched (all over $GRAFT_SF_DIR, default /root/testdata/sf0.1):
  build_code_index   full inverted-index build over the synthesized code
                     corpus (~40k files, cached under /tmp, generation
                     untimed) — the north-star metric (files/s, postings/s)
  query_qps          batch BM25 top-k via the SearchStage actor pool
  q1_pricing_summary / top_orders_by_revenue / events_date_histogram
                     the relational agg surface at sf scale
  minhash_dedup      MinHash-LSH near-dup clustering over documents
  ann_topk           brute-force cosine top-k over embeddings
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

BENCH_CORPUS = os.environ.get("GRAFT_BENCH_CORPUS", "/tmp/bench_corpus_v1")
BENCH_INDEX = os.environ.get("GRAFT_BENCH_INDEX", "/tmp/bench_index")
N_FILES = int(os.environ.get("GRAFT_BENCH_FILES", "1000000"))


def _probe_burn(n):
    t0 = time.time()
    x = 0
    for i in range(n):
        x += i
    return n / (time.time() - t0)


def _probe_stream(_):
    import numpy as np

    a = np.random.rand(15_000_000)  # 120 MB
    t0 = time.time()
    for _ in range(4):
        a = a * 1.000001
    return 15_000_000 * 8 * 2 * 4 / (time.time() - t0) / 1e9


def host_probes(full: bool | None = False) -> dict:
    """Tiny host-state probes embedded in every bench record: the sandbox
    VM is timeshared and its MEMORY bandwidth (not CPU) varies minute to
    minute with neighbors — throughput numbers are only interpretable next
    to the host state they ran under.

    ``full=True`` adds a 32-process aggregate-bandwidth probe: if the
    8-proc and 32-proc aggregates are similar, the box's memory bus is
    saturated below 32 workers and a bandwidth-bound stage CANNOT scale
    8→32 CPUs on this host (real N→4N *nodes* bring 4× the bandwidth)."""
    import multiprocessing as mp

    if full is None:  # quick mode: the 8-proc aggregate only (~3-10 s);
        with mp.Pool(8) as pool:  # it is the window-match signal
            bw8 = sum(pool.map(_probe_stream, range(8)))
        return {"membw_8proc_GBps": round(bw8, 2)}
    cpu1 = _probe_burn(10_000_000) / 1e6
    bw1 = _probe_stream(None)
    with mp.Pool(8) as pool:
        bw8 = sum(pool.map(_probe_stream, range(8)))
    out = {
        "cpu_1proc_Mops": round(cpu1, 1),
        "membw_1proc_GBps": round(bw1, 2),
        "membw_8proc_GBps": round(bw8, 2),
    }
    if full:
        with mp.Pool(32) as pool:
            bw32 = sum(pool.map(_probe_stream, range(32)))
        out["membw_32proc_GBps"] = round(bw32, 2)
    return out


def _ensure_corpus() -> list[str]:
    """Generate (once, untimed) the deterministic bench corpus."""
    import glob

    from astrologer_ray.sources.corpus import generate_corpus

    want = max(1, N_FILES // 5000)
    paths = sorted(glob.glob(os.path.join(BENCH_CORPUS, "*.parquet")))
    if len(paths) < want:
        paths = generate_corpus(
            BENCH_CORPUS, n_files=want * 5000, n_repos=50, vocab_size=5000,
            seed=42, rows_per_file=5000, mean_len=120,
        )  # 5000 rows/file -> bounded merge fan-in; one unit per file
    return paths[:want]


def bench_build() -> dict:
    from astrologer_ray.pipelines.build import build_index

    paths = _ensure_corpus()
    # untimed warm-up build: spawns the worker pool, imports the package AND
    # processes one FULL-SIZE unit per worker, so the timed run measures
    # steady-state throughput (a long-lived cluster's regime), not process
    # cold-start. Unit size matters: with 150-row mini-units the first wave
    # of real 5000-row tasks paid ~20 s/task of per-worker memory-arena
    # growth (vs 2.4 s steady-state; measured via partition_metrics
    # task_sec — 64% of all tokenize task-seconds in one 32-cpu run)
    n_warm_files = min(len(paths), max(2, NUM_CPUS))  # one unit per worker
    build_index(paths[:n_warm_files], BENCH_INDEX + "_warm", force=True,
                partition_rows=5000)
    t0 = time.time()
    meta = build_index(paths, BENCH_INDEX, force=True, partition_rows=5000,
                       n_shards=64)
    dt = time.time() - t0
    return {
        "sec": dt,
        "n_docs": meta["n_docs"],
        "n_postings": meta["n_postings"],
        "files_per_s": meta["n_docs"] / dt,
        "postings_per_s": meta["n_postings"] / dt,
        "stage_timings": meta["timings"],
        "stage_work": _stage_work(meta["timings"]),
    }


def _stage_work(stage_timings: dict) -> dict:
    """Per-stage TASK-second sums from the build's own lineage records
    (partition_metrics.parquet, merge manifests). Wall-clock stage ratios
    are contaminated by host-window drift; task-second sums decompose a
    scaling pair into work conservation (sum_lo / sum_hi, 1.0 = the same
    parallel work at both levels) x scheduling utilization
    (sum / (wall * cpus)) — each diagnosable on its own."""
    import glob as _glob

    import numpy as np
    import pyarrow.parquet as pq

    out: dict = {"cpus": NUM_CPUS}
    try:
        pm = pq.read_table(
            os.path.join(BENCH_INDEX, "stats", "partition_metrics.parquet"),
            columns=["task_sec"],
        )
        tok_sum = float(np.asarray(pm.column("task_sec"), dtype=float).sum())
        wall = float(stage_timings.get("tokenize_partials") or 0.0)
        out["tokenize"] = {
            "task_sum_sec": round(tok_sum, 2),
            "wall_sec": round(wall, 2),
            "util": round(tok_sum / (wall * NUM_CPUS), 3) if wall else None,
        }
    except (OSError, KeyError):
        pass
    try:
        import json as _json

        ms = [
            _json.load(open(p))["task_sec"]
            for p in _glob.glob(
                os.path.join(BENCH_INDEX, "postings", "merge-manifest-*.json")
            )
        ]
        if ms:
            merge_sum = float(sum(ms))
            wall = float(stage_timings.get("postings_encode") or 0.0)
            out["merge"] = {
                "task_sum_sec": round(merge_sum, 2),
                "wall_sec": round(wall, 2),
                "util": round(merge_sum / (wall * NUM_CPUS), 3) if wall else None,
            }
    except (OSError, KeyError, ValueError):
        pass
    return out


def bench_append(full_build_sec: float) -> dict:
    """Incremental-ingest headline: append ~1% new docs to the just-built
    index as a delta segment (pipelines/segments.py) — at 100 TB this is
    the nightly-ingest cost, which must NOT scale with the index size."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from astrologer_ray.pipelines.segments import append_segment

    paths = _ensure_corpus()
    n_tail = max(1000, N_FILES // 100)
    tail_dir = BENCH_CORPUS + "_tail"
    tail = os.path.join(tail_dir, "part-tail.parquet")  # sorts after corpus
    if not os.path.exists(tail):
        os.makedirs(tail_dir, exist_ok=True)
        rng = np.random.default_rng(99)
        vocab = np.array([f"word{i}" for i in range(5000)])
        # repo 'zzz~tail' sorts after every generated 'orgN/repoM' key, so
        # the append is monotone (the ledger-order contract)
        rows = {
            "repo": ["zzz~tail"] * n_tail,
            "path": [f"src/t{i:07d}.py" for i in range(n_tail)],
            "commit": ["c0"] * n_tail,
            "lang": ["py"] * n_tail,
            "content": [" ".join(rng.choice(vocab, size=60)) for _ in range(n_tail)],
        }
        pq.write_table(pa.table(rows), tail, row_group_size=5000)
    t0 = time.time()
    out = append_segment(paths + [tail], BENCH_INDEX, partition_rows=5000)
    dt = time.time() - t0
    return {
        "sec": dt,
        "n_docs": out["appended"],
        "docs_per_s": out["appended"] / dt if dt else 0.0,
        # the point of segments: delta cost vs re-running the full build
        "speedup_vs_full_rebuild": round(full_build_sec / dt, 1) if dt else None,
    }


def bench_query_qps(n_queries: int = 800) -> dict:
    import ray.data as rd

    from astrologer_ray.state.searcher import Searcher, SearchStage

    s = Searcher(BENCH_INDEX, load_docs=False)
    queries = [{"qid": i, "terms": terms, "k": k}
               for i, (terms, k) in enumerate(_sample_queries(n_queries, s))]
    # driver-local steady-state per-query latency on ONE warm Searcher:
    # decomposes pool QPS into per-query compute/bandwidth cost (this
    # number) vs actor-pool scheduling + memory contention (the residual)
    lat = []
    for q in queries[:48]:
        t0 = time.perf_counter()
        s.search(q["terms"], k=10)
        lat.append((time.perf_counter() - t0) * 1e3)
    lat = sorted(lat[8:])  # first few warm the accumulator/LRU
    lat_p50 = lat[len(lat) // 2]
    lat_p95 = lat[int(len(lat) * 0.95)]
    del s
    n_actors = max(2, NUM_CPUS // 4)
    batch = max(8, n_queries // (n_actors * 4))
    # one block per batch — from_items' default block count would funnel
    # all queries through one actor
    qds = rd.from_items(queries, override_num_blocks=max(1, n_queries // batch))
    t0 = time.time()
    n = qds.map_batches(
        SearchStage,
        fn_constructor_kwargs={"index_dir": BENCH_INDEX},
        batch_format="pyarrow",
        batch_size=batch,
        concurrency=n_actors,
        num_cpus=1,
    ).count()
    dt = time.time() - t0
    return {"sec": dt, "n_queries": n_queries, "qps": n_queries / dt, "hits": n,
            "single_lat_ms_p50": round(lat_p50, 2),
            "single_lat_ms_p95": round(lat_p95, 2)}


def _sample_queries(n_queries: int, s=None) -> list[tuple[list[str], int]]:
    """Deterministic head/mid/tail query mix from the real dictionary
    (``s``: an open ``Searcher`` on ``BENCH_INDEX`` to reuse)."""
    import numpy as np

    if s is None:
        from astrologer_ray.state.searcher import Searcher

        s = Searcher(BENCH_INDEX, load_docs=False)
    by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    head = [t for t, _ in by_df[:20]]
    mid = [t for t, _ in by_df[len(by_df) // 2 : len(by_df) // 2 + 200]]
    tail = [t for t, _ in by_df[-200:]]
    rng = np.random.default_rng(3)
    return [
        (
            list(rng.choice(head, size=1))
            + list(rng.choice(mid, size=int(rng.integers(1, 3))))
            + list(rng.choice(tail, size=1)),
            10,
        )
        for _ in range(n_queries)
    ]


def bench_query_qps_sharded(n_queries: int = 800) -> dict:
    """Doc-range-sharded scatter-gather pool (state/pool.ShardedSearchPool):
    every actor holds 1/n of the postings, per-query work fans out to all
    actors and merges exactly. Lower per-actor memory footprint — the
    resilient topology when the host is bandwidth-starved."""
    from astrologer_ray.state.pool import ShardedSearchPool

    queries = _sample_queries(n_queries)
    pool = ShardedSearchPool(BENCH_INDEX, n_actors=max(2, NUM_CPUS // 4))
    pool.warm()
    t0 = time.time()
    res = pool.search_many(queries)
    dt = time.time() - t0
    pool.shutdown()
    return {"sec": dt, "n_queries": n_queries, "qps": n_queries / dt,
            "hits": sum(len(r) for r in res)}


def bench_query_qps_replicated(n_queries: int = 800) -> dict:
    """Warm replicated pool (state/pool.ReplicatedSearchPool): N full-index
    replicas, one actor per query. Timed AFTER warm() so this is the
    steady-state serving number — the Ray-Data ``query_qps`` figure, by
    contrast, deliberately includes per-run actor spin-up + index load
    (the cold batch-scoring-job regime)."""
    from astrologer_ray.state.pool import ReplicatedSearchPool

    queries = _sample_queries(n_queries)
    pool = ReplicatedSearchPool(BENCH_INDEX, n_actors=max(2, NUM_CPUS // 4))
    pool.warm()
    t0 = time.time()
    res = pool.search_many(queries)
    dt = time.time() - t0
    pool.shutdown()
    return {"sec": dt, "n_queries": n_queries, "qps": n_queries / dt,
            "hits": sum(len(r) for r in res)}


def bench_msearch_dsl(n_bodies: int = 120) -> dict:
    """Adapter serving throughput: N ES ``_search`` request bodies —
    alternating plain match, match+terms-agg, and match+histogram+
    cumulative_sum shapes — served via ``ReplicatedSearchPool.msearch``
    (whole bodies round-robined to warm replicas). The r5 DSL surface's
    serving number; compare with query_qps_replicated to read the
    adapter + agg overhead per request."""
    from astrologer_ray.state.pool import ReplicatedSearchPool

    queries = _sample_queries(n_bodies)
    bodies = []
    for i, (terms, k) in enumerate(queries):
        q = {"match": {"content": " ".join(terms)}}
        if i % 3 == 0:
            bodies.append({"query": q, "size": k})
        elif i % 3 == 1:
            bodies.append({"query": q, "size": 0, "aggs": {
                "langs": {"terms": {"field": "lang", "size": 5}}}})
        else:
            bodies.append({"query": q, "size": 0, "aggs": {
                "by_dl": {"histogram": {"field": "dl", "interval": 64},
                          "aggs": {"cum": {"cumulative_sum": {
                              "buckets_path": "_count"}}}}}})
    pool = ReplicatedSearchPool(BENCH_INDEX,
                                n_actors=max(2, NUM_CPUS // 4),
                                load_docs=True)
    pool.warm()
    t0 = time.time()
    res = pool.msearch(bodies)
    dt = time.time() - t0
    pool.shutdown()
    return {"sec": dt, "n_bodies": n_bodies, "qps": n_bodies / dt,
            "hits": sum(len(r["hits"]["hits"]) for r in res)}


def bench_percolate(n_queries: int = 30_000) -> dict:
    """Percolator at ES-typical stored-query scale: 10k deterministic
    term queries built from the documents vocabulary, streamed against
    the documents table twice — candidate-indexed (the production path)
    vs the r4 linear scan (``index_queries=False``) — same results by
    construction, the ratio is the index's pruning win (VERDICT r4 #3)."""
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.pipelines.percolate import percolate

    # the code corpus, not sf documents: the sf table's 31-word vocab
    # puts every term in ~80% of docs, so NO stored-query index can
    # prune there; the bench corpus has the Zipf vocab (5000 terms)
    # that real percolation workloads have
    paths = _ensure_corpus()[:4]  # ~20k docs stream through the stage
    sample = pq.read_table(paths[0], columns=["content"])[:300]
    df: dict[str, int] = {}
    for tx in sample["content"].to_pylist():
        for w in set(tokenize(tx or "", mode="simple")):
            df[w] = df.get(w, 0) + 1
    vocab = sorted(df)
    rare = sorted(w for w, c in df.items() if c <= max(2, len(sample) // 50))
    rng = random.Random(17)
    # ES-realistic alert rules: each has at least one selective term
    # (the candidate index anchors on the rarest must term)
    queries = []
    for qid in range(n_queries):
        q = {"id": qid, "must": rng.sample(rare, 2)
             + rng.sample(vocab, rng.randint(0, 1))}
        if rng.random() < 0.2:
            q["must_not"] = rng.sample(vocab, 1)
        queries.append(q)

    def run(indexed: bool) -> tuple[float, int]:
        def add_ids(t: pa.Table) -> pa.Table:
            return t.append_column(
                "doc_id", pa.array(range(t.num_rows), pa.int64()))

        ds = rd.read_parquet(paths, columns=["content"]).map_batches(
            add_ids, batch_format="pyarrow")
        t0 = time.time()
        n = percolate(ds, queries, text_col="content",
                      index_queries=indexed,
                      concurrency=max(2, NUM_CPUS // 4)).count()
        return time.time() - t0, n

    sec_idx, n_idx = run(True)
    sec_lin, n_lin = run(False)
    assert n_idx == n_lin, (n_idx, n_lin)
    return {"sec": sec_idx, "sec_linear": round(sec_lin, 3),
            "n_queries": n_queries, "n_matches": n_idx,
            "speedup_vs_linear": round(sec_lin / sec_idx, 2)}


def _timed(fn, *args) -> dict:
    t0 = time.time()
    fn(*args)
    return {"sec": time.time() - t0}


def main() -> None:
    import ray

    only = None
    for a in sys.argv[1:]:
        if a.startswith("--only="):
            only = a.split("=", 1)[1]

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import __ray_entry__ as E

    results: dict[str, dict] = {}
    t_all = time.time()

    def _stage(name, fn, *args):
        # stage markers on stderr: lets a log reader attribute any Ray
        # warning in the tail to the stage that emitted it
        print(f"[bench] {time.strftime('%H:%M:%S')} {name} start",
              file=sys.stderr, flush=True)
        results[name] = fn(*args)

    _stage("build_code_index", bench_build)
    if only != "build":
        _stage("query_qps", bench_query_qps)
        _stage("query_qps_sharded", bench_query_qps_sharded)
        _stage("query_qps_replicated", bench_query_qps_replicated)
        _stage("msearch_dsl", bench_msearch_dsl)
        _stage("q1_pricing_summary", _timed, E.q1_pricing_summary, SF_DIR)
        _stage("top_orders_by_revenue", _timed, E.top_orders_by_revenue, SF_DIR)
        _stage("events_date_histogram", _timed, E.events_date_histogram, SF_DIR)
        _stage("minhash_dedup", _timed, E.minhash_dedup_documents, SF_DIR)
        _stage("percolate_10k", bench_percolate)
        _stage("ann_topk", _timed, E.ann_topk_embeddings, SF_DIR)
        # last: mutates BENCH_INDEX (adds a delta segment)
        _stage("append_delta", bench_append,
               results["build_code_index"]["sec"])
    total = time.time() - t_all

    out = {
        "metric": "index-build + query + training-data pipeline wall time",
        "value": round(total, 3),
        "unit": "sec",
        "queries": {k: round(v["sec"], 3) for k, v in results.items()},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "build_files_per_s": round(results["build_code_index"]["files_per_s"], 1),
        "build_postings_per_s": round(results["build_code_index"]["postings_per_s"], 1),
        "build_n_docs": results["build_code_index"]["n_docs"],
        "build_n_postings": results["build_code_index"]["n_postings"],
    }
    if "query_qps" in results:
        out["query_qps"] = round(results["query_qps"]["qps"], 1)
        out["query_qps_sharded"] = round(results["query_qps_sharded"]["qps"], 1)
        out["query_qps_replicated"] = round(results["query_qps_replicated"]["qps"], 1)
        # serving headline = the WARM replicated pool (steady-state QPS);
        # the Ray-Data `query_qps` figure deliberately includes per-run
        # actor spin-up + index load — the cold batch-scoring-job regime,
        # reported separately, not the serving number
        out["query_qps_serving"] = out["query_qps_replicated"]
        out["query_qps_cold_job"] = out["query_qps"]
        out["msearch_dsl_qps"] = round(results["msearch_dsl"]["qps"], 1)
        out["query_single_lat_ms_p50"] = results["query_qps"]["single_lat_ms_p50"]
        out["query_single_lat_ms_p95"] = results["query_qps"]["single_lat_ms_p95"]
        out["percolate_speedup_vs_linear"] = results["percolate_10k"][
            "speedup_vs_linear"]
        out["append_docs_per_s"] = round(results["append_delta"]["docs_per_s"], 1)
        out["append_speedup_vs_full"] = results["append_delta"][
            "speedup_vs_full_rebuild"]
    out["build_stage_timings"] = results["build_code_index"]["stage_timings"]
    out["build_stage_work"] = results["build_code_index"]["stage_work"]
    out["host"] = host_probes()
    # flush BEFORE ray.shutdown(): raylet teardown segfaults intermittently
    # on this host (dmesg: _raylet.so SIGSEGV at exit), and a piped stdout
    # is block-buffered — without the flush a teardown crash silently eats
    # the result line (observed: scaling run w3 died on an inner build
    # whose index had its _SUCCESS written)
    print(json.dumps(out), flush=True)
    ray.shutdown()


def scaling() -> None:
    """Two-parallelism-level evidence for the north_rule scaling criterion.

    Methodology: the sandbox host is timeshared and its memory bandwidth
    drifts 10-20x minute-to-minute with neighbors, so a lo-CPU run from one
    window is not comparable to a hi-CPU run from another. Runs are
    interleaved in adjacent (lo, hi) PAIRS — the two runs of a pair share
    (approximately) one host window, so the pair's efficiency is
    drift-cancelled — with cheap bandwidth probes bracketing each run
    embedded in the record, leg order alternating between pairs, and a
    small re-run budget for pairs whose probes show the window flipped
    mid-pair. The headline efficiency is the median over window-matched
    pairs."""
    lo, hi = 8, NUM_CPUS if NUM_CPUS > 8 else 32
    if os.environ.get("GRAFT_SCALING_CPUS"):
        # "4,16" — alternate N/4N pairs for hosts whose aggregate memory
        # bandwidth saturates below the default hi level (the north rule
        # asks for two parallelism levels, not two specific ones)
        lo, hi = (int(x) for x in os.environ["GRAFT_SCALING_CPUS"].split(","))

    def run(ncpu: int) -> dict:
        # settle: let the host recover from OUR previous run's teardown
        # (raylet/plasma exit + page reclaim depress the probe for ~10 s,
        # which round-4 run w1 showed can mislabel a stable window as
        # mismatched — every probe taken right after a leg read 4-11 GB/s
        # while probes after a cold gap read 39-47 GB/s in the same window)
        time.sleep(10)
        probe = host_probes()
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        cmd = [sys.executable,
               os.path.join(os.path.dirname(__file__) or ".", "bench.py"),
               "--only=build"]
        def _result(p):
            # a leg is good if it PRINTED its result — Ray teardown on this
            # host intermittently segfaults after the work (and the flush)
            # completed, so rc alone would discard a valid measurement
            try:
                return json.loads(p.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return None

        p = subprocess.run(cmd, env=env, capture_output=True, text=True)
        r = _result(p)
        if r is None:
            # surface the child's failure (a watcher-fired suite otherwise
            # dies with an opaque CalledProcessError) and retry once — a
            # transient host hiccup should not kill a 30-minute suite
            sys.stderr.write(
                f"--only=build (cpus={ncpu}) failed rc={p.returncode}:\n"
                + p.stderr[-3000:] + "\n"
            )
            p = subprocess.run(cmd, env=env, capture_output=True, text=True)
            r = _result(p)
            if r is None:
                sys.stderr.write(
                    f"retry failed rc={p.returncode}:\n" + p.stderr[-3000:] + "\n"
                )
                raise RuntimeError(f"--only=build failed twice at cpus={ncpu}")
        r["probe_before"] = probe
        time.sleep(5)
        r["probe_after"] = host_probes(full=None)  # quick: membw_8proc only
        return r

    def matched(a: dict, b: dict) -> bool:
        # a pair is window-matched when the bandwidth probes bracketing
        # both legs sit within a 2.5x band — beyond that the host moved
        # mid-pair and the ratio measures the window, not the engine
        bws = [a["probe_before"]["membw_8proc_GBps"], a["probe_after"]["membw_8proc_GBps"],
               b["probe_before"]["membw_8proc_GBps"], b["probe_after"]["membw_8proc_GBps"]]
        return max(bws) <= 2.5 * max(min(bws), 0.01)

    # full probe (incl. 32-proc aggregate) at suite START: if the 8-proc
    # and 32-proc aggregates match, this host's memory bus saturates below
    # 32 workers and a bandwidth-bound stage CANNOT show 4x speedup here
    # (real N->4N nodes bring 4x the bus); capturing it in the same window
    # the pairs run in makes the ceiling argument per-run, not anecdotal
    host_start = host_probes(full=True)
    n_pairs = int(os.environ.get("GRAFT_SCALING_PAIRS", "4"))
    _ = run(lo)  # warm OS page cache + corpus generation, untimed
    pairs = []
    retries = 2  # re-run budget for mid-pair window flips
    for k in range(n_pairs):
        # alternate leg order (lo,hi / hi,lo): round-4 run w1 showed an
        # order-correlated probe artifact (every probe following a hi leg
        # read ~40 GB/s, every probe following a lo leg ~4-11 GB/s in one
        # window); alternating makes any leg-order aftereffect hit both
        # levels symmetrically so it cancels in the median
        if k % 2 == 0:
            a, b = run(lo), run(hi)
        else:
            b, a = run(hi), run(lo)
        while not matched(a, b) and retries > 0:
            retries -= 1
            if k % 2 == 0:
                a, b = run(lo), run(hi)
            else:
                b, a = run(hi), run(lo)
        pairs.append((a, b))

    def t(r):
        return r["queries"]["build_code_index"]

    pair_effs = [round((t(a) / t(b)) / (hi / lo), 3) for a, b in pairs]
    pair_matched = [matched(a, b) for a, b in pairs]
    # headline = MEDIAN pair efficiency over window-MATCHED pairs (all
    # pairs if fewer than two matched). The old fastest-combined-wall
    # pick was biased LOW: the combined wall is dominated by the lo run, so
    # it selects pairs whose lo hit a lucky bandwidth window — which
    # lowers the ratio — while a lucky hi (which raises it) barely moves
    # the sum. The median is symmetric under window drift; the best pair
    # (least within-pair drift observed) is reported alongside.
    eligible = [i for i in range(len(pairs)) if pair_matched[i]]
    if len(eligible) < 2:
        eligible = list(range(len(pairs)))
    order = sorted(eligible, key=lambda i: pair_effs[i])
    med_i = order[len(order) // 2]
    best_lo, best_hi = pairs[med_i]
    t_lo, t_hi = t(best_lo), t(best_hi)
    eff = (t_lo / t_hi) / (hi / lo)
    # parallel-stage efficiency: tokenize + merge are the stages whose work
    # grows with corpus size (the O(1)/driver-side steps vanish at scale)
    st_lo = best_lo["build_stage_timings"]
    st_hi = best_hi["build_stage_timings"]
    par_lo = st_lo["tokenize_partials"] + st_lo["postings_encode"]
    par_hi = st_hi["tokenize_partials"] + st_hi["postings_encode"]
    par_eff = (par_lo / par_hi) / (hi / lo)
    stage_effs = {
        k: round((st_lo[k] / st_hi[k]) / (hi / lo), 3)
        for k in st_lo
        if st_hi.get(k, 0) > 0
    }
    # work conservation per stage (median pair): task-second sums should be
    # LEVEL-INDEPENDENT if the engine scales — any inflation at hi is either
    # contention (bandwidth ceiling) or a parallelism overhead, and is
    # diagnosable separately from scheduling gaps (util)
    work = {}
    for stage in ("tokenize", "merge"):
        wl = (best_lo.get("build_stage_work") or {}).get(stage)
        wh = (best_hi.get("build_stage_work") or {}).get(stage)
        if wl and wh and wh["task_sum_sec"]:
            work[stage] = {
                "task_sum_lo": wl["task_sum_sec"],
                "task_sum_hi": wh["task_sum_sec"],
                "work_conservation": round(
                    wl["task_sum_sec"] / wh["task_sum_sec"], 3
                ),
                "util_lo": wl["util"],
                "util_hi": wh["util"],
            }
    print(
        json.dumps(
            {
                "metric": "index-build scaling efficiency",
                "cpus_lo": lo,
                "cpus_hi": hi,
                "sec_lo": t_lo,
                "sec_hi": t_hi,
                "files_per_s_lo": best_lo["build_files_per_s"],
                "files_per_s_hi": best_hi["build_files_per_s"],
                "postings_per_s_lo": best_lo["build_postings_per_s"],
                "postings_per_s_hi": best_hi["build_postings_per_s"],
                "scaling_efficiency": round(eff, 3),
                "best_pair_efficiency": max(pair_effs),
                "pair_efficiencies": pair_effs,
                "pair_window_matched": pair_matched,
                "matched_pair_count": sum(pair_matched),
                "parallel_stage_sec_lo": round(par_lo, 2),
                "parallel_stage_sec_hi": round(par_hi, 2),
                "parallel_stage_efficiency": round(par_eff, 3),
                "stage_efficiencies": stage_effs,
                "stage_work": work,
                "stage_timings_lo": st_lo,
                "stage_timings_hi": st_hi,
                "all_sec_lo": [round(t(a), 3) for a, _ in pairs],
                "all_sec_hi": [round(t(b), 3) for _, b in pairs],
                "probes_lo": [a["probe_before"] for a, _ in pairs],
                "probes_hi": [b["probe_before"] for _, b in pairs],
                "probes_lo_after": [a["probe_after"] for a, _ in pairs],
                "probes_hi_after": [b["probe_after"] for _, b in pairs],
                "host_start": host_start,
                "host": host_probes(full=True),
            }
        )
    )


def scaling_qps() -> None:
    """Two-parallelism-level evidence for the QUERY half of the
    north-star metric (top-k query QPS): the same warm replicated
    serving pool at 2 vs 8 one-cpu replicas (both fully below this
    host's measured ~8-worker bus knee), same 800-query workload,
    interleaved (lo, hi) pairs with bracketing bandwidth probes — the
    same drift-cancelling methodology as the build suite. On a real
    cluster replicas land on separate nodes, each with its own bus."""
    import ray

    from astrologer_ray.state.pool import ReplicatedSearchPool

    lo, hi = 2, 8
    if os.environ.get("GRAFT_SCALING_QPS_ACTORS"):
        lo, hi = (int(x) for x in
                  os.environ["GRAFT_SCALING_QPS_ACTORS"].split(","))
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    if not os.path.exists(os.path.join(BENCH_INDEX, "_SUCCESS")):
        bench_build()  # untimed here: this suite measures serving only
    queries = _sample_queries(800)
    host_start = host_probes(full=True)

    def leg(n_actors: int) -> dict:
        probe = host_probes()
        pool = ReplicatedSearchPool(BENCH_INDEX, n_actors=n_actors,
                                    num_cpus=1.0)
        pool.warm()
        t0 = time.time()
        res = pool.search_many(queries)
        dt = time.time() - t0
        pool.shutdown()
        return {"n_actors": n_actors, "sec": round(dt, 3),
                "qps": round(len(queries) / dt, 1),
                "hits": sum(len(r) for r in res), "probe": probe}

    pairs = []
    for i in range(3):
        a, b = (leg(lo), leg(hi)) if i % 2 == 0 else \
            tuple(reversed((leg(hi), leg(lo))))
        pairs.append((a, b))
    effs = [round((p[1]["qps"] / p[0]["qps"]) / (hi / lo), 3)
            for p in pairs]
    best = sorted(effs)[len(effs) // 2]
    print(json.dumps({
        "metric": "serving QPS scaling efficiency (warm replicated pool)",
        "actors_lo": lo, "actors_hi": hi,
        "pair_efficiencies": effs,
        "scaling_efficiency": best,
        "best_pair_efficiency": max(effs),
        "qps_lo": [p[0]["qps"] for p in pairs],
        "qps_hi": [p[1]["qps"] for p in pairs],
        "hits_equal": all(p[0]["hits"] == p[1]["hits"] for p in pairs),
        "probes_lo": [p[0]["probe"] for p in pairs],
        "probes_hi": [p[1]["probe"] for p in pairs],
        "host_start": host_start,
        "host": host_probes(full=True),
    }), flush=True)
    ray.shutdown()


def _exclusive_lock():
    """One bench at a time per (corpus, index) path set: two concurrent
    bench processes share BENCH_INDEX and force=True-wipe each other's
    partials mid-merge (observed when a good-window watcher fired while a
    manual run was active). The inner --only=build children of scaling()
    inherit the parent's lock via GRAFT_BENCH_LOCK_HELD."""
    if os.environ.get("GRAFT_BENCH_LOCK_HELD"):
        return None
    import fcntl

    lockpath = f"/tmp/graft_bench{BENCH_INDEX.replace('/', '_')}.lock"
    fd = open(lockpath, "w")
    fcntl.flock(fd, fcntl.LOCK_EX)  # blocks until the other bench finishes
    os.environ["GRAFT_BENCH_LOCK_HELD"] = "1"  # children skip re-locking
    return fd


if __name__ == "__main__":
    _lock = _exclusive_lock()
    if "--scaling-qps" in sys.argv:
        scaling_qps()
    elif "--scaling" in sys.argv:
        scaling()
    else:
        main()
