"""The two workloads. Every run builds its own index from the run's
generated corpus, measures tail refreshes, then serves one traffic mix
with a single closed-loop client.

Each runner fills ``Run.metrics`` (end-to-end) and ``Run.layers``
(per-layer); ``Run.op`` counts every attempted operation and failure.
"""

from __future__ import annotations

import contextlib
import gc
import glob
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import pyarrow.parquet as pq

from perfbench import gen, measure, spans
from perfbench.recount import TermModel, dsl_mismatch, recount_dsl

N_FILES = 20_000          # base corpus rows (the served index, timed build)
ROWS_PER_FILE = 5_000     # corpus parquet file size
WARM_FILES = 1_000        # rows of the untimed build that starts the Ray workers
BATCH_FILES = 1_000       # rows per tail batch
REFRESHES = 7             # refreshes per run; refresh_ms takes their median
SETUPS = 3                # set-ups per run; setup_s takes their median
BLOCK = 50                # traced runs alternate untraced/traced blocks
CHECKS = 20               # sampled requests re-checked after the window
WARMUP = 200              # untimed requests before the window (topk, dsl)
K = 10


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, work: str):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.report: dict = {}
        self.phases: dict[str, float] = {}
        self.rec = spans.Recorder()
        self.wl: gen.Workload | None = None
        self.corpus_paths: list[str] = []

    # -- bookkeeping --------------------------------------------------------
    @contextlib.contextmanager
    def phase(self, name: str):
        """Accumulate the wall time of one phase of the run (for the report)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def guarded(self, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        try:
            return True, fn(*args)
        except Exception:
            self.attempted += 1
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None

    # -- preparation ---------------------------------------------------------
    def prepare(self) -> None:
        """Untimed: generate the corpus and write it (before Ray starts)."""
        self.wl = gen.Workload(self.seed, N_FILES)
        self.corpus_paths = self.wl.base.write(os.path.join(self.work, "corpus"), ROWS_PER_FILE)
        self.input_bytes = self.wl.base.input_bytes()
        warm = gen.Corpus(self.wl.base.rows.slice(0, WARM_FILES), None, None, [])
        self.warm_paths = warm.write(os.path.join(self.work, "warm"), ROWS_PER_FILE)

    def build(self) -> str:
        """Start and warm the Ray workers with an untimed build of the first
        ``WARM_FILES`` rows, then time the build of the served index from
        the whole corpus (``files_per_s``) and gate on it. The build's layer
        numbers come from the same build."""
        from astrologer_ray.pipelines.build import build_index
        from astrologer_ray.pipelines.integrity import check_corpus, check_index

        warm = os.path.join(self.work, "warm-index")
        meta = build_index(self.warm_paths, warm)
        self.op(meta["n_docs"] == WARM_FILES, f"n_docs {meta['n_docs']} != {WARM_FILES}")
        shutil.rmtree(warm)

        index = os.path.join(self.work, "index")
        t0 = time.perf_counter()
        meta = build_index(self.corpus_paths, index)
        self.metrics["files_per_s"] = N_FILES / (time.perf_counter() - t0)
        self.metrics["disk_bytes_per_input_byte"] = _du(index) / self.input_bytes
        self.layers.update(_build_layers(index, meta))
        self.op(meta["n_docs"] == N_FILES, f"n_docs {meta['n_docs']} != {N_FILES}")
        res = check_index(index)
        self.op(res["ok"], f"check_index: {res.get('errors')}")
        res = check_corpus(index, self.corpus_paths)
        self.op(res["ok"], f"check_corpus: {res.get('errors', res)}")
        return index

    # -- refresh ---------------------------------------------------------------
    def refresh(self, index: str, paths: list[str], batch: int, corpus: gen.Corpus):
        """Append one tail batch and reopen a driver-local Searcher; checks
        that the batch's marker returns exactly the batch's docs. Returns
        (append_s, open_s, searcher) or None when the refresh raised."""
        from astrologer_ray.pipelines.segments import append_segment, combined_stats
        from astrologer_ray.state.searcher import Searcher

        id_base = combined_stats(index)["n_docs"]
        paths.append(corpus.write(os.path.join(self.work, "tail", f"b{batch:05d}"),
                                  BATCH_FILES)[0])
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            append_segment(paths, index)
            t1 = time.perf_counter()
            s = Searcher(index, load_docs=False)
            t2 = time.perf_counter()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        hits = s.search([gen.marker(batch)], k=corpus.n + 1)
        got = sorted(d for d, _ in _pairs(hits))
        self.op(got == list(range(id_base, id_base + corpus.n)),
                f"marker of batch {batch}: {len(got)} hits")
        return t1 - t0, t2 - t1, s

    def refreshes(self, index: str) -> None:
        """``REFRESHES`` tail refreshes, each on a fresh copy of the served
        index (the copy is untimed): every refresh appends one batch to the
        same base, so the samples measure the same work, and serving keeps
        the single-generation index."""
        from astrologer_ray.pipelines.segments import index_generations

        copy = os.path.join(self.work, "refresh-index")
        appends, opens = [], []
        for b in range(REFRESHES):
            shutil.copytree(index, copy)
            out = self.refresh(copy, list(self.corpus_paths), b,
                               self.wl.tail_batch(b, BATCH_FILES))
            if out:
                appends.append(out[0])
                opens.append(out[1])
            generations = len(index_generations(copy))
            shutil.rmtree(copy)
        if not appends:
            raise RuntimeError("every refresh failed")
        self.report["refresh_ms"] = [(a + o) * 1e3 for a, o in zip(appends, opens)]
        self.metrics["refresh_ms"] = statistics.median(self.report["refresh_ms"])
        self.layers["pipelines.segments.append_ms"] = statistics.median(appends) * 1e3
        self.layers["state.searcher.open_s"] = statistics.median(opens)
        self.layers["pipelines.segments.generations"] = generations

    # -- serving -----------------------------------------------------------------
    def open_pool(self, index: str, load_docs: bool):
        """``SETUPS`` pool set-ups (create + warm); keeps the last pool."""
        from astrologer_ray.state.pool import ReplicatedSearchPool

        times, pool = [], None
        for i in range(SETUPS):
            if pool is not None:
                pool.shutdown()
            t0 = time.perf_counter()
            pool = ReplicatedSearchPool(index, 1, load_docs=load_docs)
            pool.warm()
            times.append(time.perf_counter() - t0)
        self.report["setup_s"] = times
        self.layers["state.pool.warm_s"] = statistics.median(times)
        self.metrics["setup_s"] = statistics.median(times)
        return pool

    def closed_loop(self, send, warmup: list, requests: list, actor=None):
        """Send the untimed ``warmup`` requests, then ``requests`` one at a
        time for ``seconds``; returns per-request (sent, latency_s, traced,
        response) in send order, ``sent`` on the ``perf_counter`` clock.
        Traced runs alternate untraced and traced blocks of ``BLOCK``
        requests."""
        import ray

        for req in warmup:
            if self.guarded(send, req)[0]:
                self.attempted += 1
        gc.collect()
        gc.freeze()
        out = []
        t_start = time.perf_counter()
        deadline = time.perf_counter() + self.seconds
        i = 0
        while time.perf_counter() < deadline:
            traced = self.trace and (i // BLOCK) % 2 == 1
            if self.trace and i % BLOCK == 0:
                self.rec.enabled = traced
                if actor is not None:
                    ray.get(actor.__ray_call__.remote(spans.set_worker_tracing, traced))
            req = requests[i % len(requests)]
            t0 = time.perf_counter()
            ok, resp = self.guarded(send, req)
            dt = time.perf_counter() - t0
            out.append((t0, dt, traced, resp if ok else None))
            i += 1
        wall = time.perf_counter() - t_start
        gc.unfreeze()
        self.rec.enabled = False
        if self.trace and actor is not None:
            ray.get(actor.__ray_call__.remote(spans.set_worker_tracing, False))
        self.attempted += sum(1 for r in out if r[3] is not None)
        self.report["window_s"] = wall
        return out

    def latency_metrics(self, results) -> None:
        """p50 and blocked p90 over the untraced requests that succeeded;
        qps from every request of the window, in chunks."""
        lat = [r[1] for r in results if r[3] is not None and not r[2]]
        summary = measure.latency_summary(lat)
        self.report["latency"] = summary
        self.report["lat_ms"] = [round(x * 1e3, 4) for x in lat]
        self.metrics["p50_ms"] = summary["p50_ms"]
        self.metrics["p90_ms"] = summary["p90_ms"]
        self.metrics["qps"] = measure.chunked_rate([r[0] for r in results],
                                                   [r[0] + r[1] for r in results])

    def serving_layers(self, results, worker_spans: list[tuple]) -> None:
        """Per-request means of layer self times over the traced requests."""
        traced = [r[1] for r in results if r[2] and r[3] is not None]
        untraced = [r[1] for r in results if not r[2] and r[3] is not None]
        n = max(1, len(traced))
        mine = self.rec.take()
        st = spans.self_times(mine)
        wst = spans.self_times(worker_spans)
        for k, v in wst.items():
            st[k] = st.get(k, 0.0) + v
        _, _, decoded = spans.totals(mine + worker_spans, "functions.codec.decode")
        actor_s = sum(s[4] - s[3] for s in spans.roots(worker_spans))
        driver_tok = spans.self_times(mine).get("functions.tokenizer.tokenize", 0.0)
        hop = (sum(traced) - actor_s - driver_tok) / n
        self.layers.update({
            "state.searcher.search_ms": st.get("state.searcher.search", 0.0) / n * 1e3,
            "state.searcher.filter_mask_ms": st.get("state.searcher.filter_mask", 0.0) / n * 1e3,
            "state.dsl.self_ms": st.get("state.dsl.execute_dsl", 0.0) / n * 1e3,
            "functions.tokenizer.query_ms": st.get("functions.tokenizer.tokenize", 0.0) / n * 1e3,
            "functions.codec.decode_ms": st.get("functions.codec.decode", 0.0) / n * 1e3,
            "functions.codec.postings_decoded": decoded / n,
            "state.pool.hop_ms": hop * 1e3,
            "bench.traced_requests": len(traced),
            "bench.trace_overhead_pct": (statistics.median(traced) / statistics.median(untraced)
                                         - 1.0) * 100 if traced and untraced else 0.0,
        })


def _build_layers(index: str, meta: dict) -> dict[str, float]:
    """Build-stage numbers of one build, from ``build_index``'s timings and
    the lineage files it writes."""
    t = meta["timings"]
    pm = pq.read_table(os.path.join(index, "stats", "partition_metrics.parquet"))
    task_s = float(sum(pm.column("task_sec").to_pylist()))
    merge_s = 0.0
    for p in glob.glob(os.path.join(index, "postings", "merge-manifest-*.json")):
        with open(p) as f:
            merge_s += json.load(f)["task_sec"]
    post_bytes = sum(os.path.getsize(p)
                     for p in glob.glob(os.path.join(index, "postings", "*.parquet")))
    return {
        "pipelines.build.tokenize_partials_s": t["tokenize_partials"],
        "stages.spimi.task_s": task_s,
        "stages.spimi.util": task_s / t["tokenize_partials"],
        "pipelines.build.doc_ids_s": t["doc_ids"],
        "pipelines.build.postings_encode_s": t["postings_encode"],
        "pipelines.build.merge_task_s": merge_s,
        "pipelines.build.merge_util": merge_s / t["postings_encode"],
        "pipelines.build.dictionary_s": t["dictionary"],
        "stages.spimi.postings": meta["n_postings"],
        "stages.spimi.partial_bytes": float(sum(pm.column("post_bytes").to_pylist())
                                            + sum(pm.column("docs_bytes").to_pylist())),
        "functions.codec.bytes_per_posting": post_bytes / meta["n_postings"],
    }


def _pairs(hits) -> list[tuple[int, float]]:
    return [(int(h["doc_id"]), float(h["score"])) for h in hits]


def _du(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _actor_pid(actor) -> int:
    import ray

    return ray.get(actor.__ray_call__.remote(lambda self: os.getpid()))


def _actor_cpus(actor) -> list[int]:
    """CPUs the actor's threads may run on (recorded to show the pinning held)."""
    import ray

    def cpus(_self):
        return sorted({c for t in os.listdir("/proc/self/task")
                       for c in os.sched_getaffinity(int(t))})

    return ray.get(actor.__ray_call__.remote(cpus))


def _worker_spans(actor) -> list[tuple]:
    import ray

    return ray.get(actor.__ray_call__.remote(spans.take_worker_spans))


# -- workloads -------------------------------------------------------------------

def run_topk(run: Run, index: str) -> None:
    """Text queries (two identifiers from the head / mid / tail bands),
    analyzed with ``tokenize`` and sent with ``pool.search`` to a warm
    one-replica pool."""
    from astrologer_ray.functions.tokenizer import tokenize

    with run.phase("refresh"):
        run.refreshes(index)
    with run.phase("setup"):
        pool = run.open_pool(index, load_docs=False)
    warmup = run.wl.topk_texts(WARMUP)
    texts = run.wl.topk_texts(4_000)

    def send(text):
        return pool.search(tokenize(text), k=K)

    with run.phase("window"):
        results = run.closed_loop(send, warmup, texts, actor=pool.actors[0])
    run.latency_metrics(results)
    actor = pool.actors[0]
    run.metrics["rss_mb"] = measure.vm_hwm_mb(_actor_pid(actor))
    run.report["actor_cpus"] = _actor_cpus(actor)
    if run.trace:
        run.serving_layers(results, _worker_spans(actor))
    pool.shutdown()

    model = TermModel(run.wl.vocab, [run.wl.base])
    for i in _sample(run, len(results)):
        resp = results[i][3]
        if resp is None:
            continue
        want, _ = model.bm25_topk(tokenize(texts[i % len(texts)]), k=K)
        got = _pairs(resp)
        run.op(got == want, f"topk request {i}: {got[:2]} != {want[:2]}")


def run_dsl(run: Run, index: str) -> None:
    """ES bodies, one per ``msearch`` call, on a warm one-replica pool with
    doc attributes loaded."""
    with run.phase("refresh"):
        run.refreshes(index)
    with run.phase("setup"):
        pool = run.open_pool(index, load_docs=True)
    warmup = run.wl.dsl_bodies(WARMUP)
    bodies = run.wl.dsl_bodies(3_000)

    def send(body):
        return pool.msearch([body])[0]

    with run.phase("window"):
        results = run.closed_loop(send, warmup, bodies, actor=pool.actors[0])
    run.latency_metrics(results)
    actor = pool.actors[0]
    run.metrics["rss_mb"] = measure.vm_hwm_mb(_actor_pid(actor))
    run.report["actor_cpus"] = _actor_cpus(actor)
    if run.trace:
        run.serving_layers(results, _worker_spans(actor))
    pool.shutdown()

    model = TermModel(run.wl.vocab, [run.wl.base])
    docs = pq.read_table(os.path.join(index, "docs"), columns=["doc_id", "repo", "lang", "dl"])
    dl_ok = np.array_equal(docs.sort_by("doc_id").column("dl").to_numpy(), model.dl)
    run.op(dl_ok, "docs sidecar dl differs from the generated documents")
    for i in _sample(run, len(results)):
        resp = results[i][3]
        if resp is None:
            continue
        body = bodies[i % len(bodies)]
        err = dsl_mismatch(resp, recount_dsl(model, docs, body))
        run.op(err is None, f"dsl request {i}: {err}")


def _sample(run: Run, n_sent: int) -> list[int]:
    rng = np.random.default_rng(run.seed + 1)
    return sorted(rng.choice(n_sent, size=min(CHECKS, n_sent), replace=False).tolist())


RUNNERS = {"topk": run_topk, "dsl": run_dsl}
