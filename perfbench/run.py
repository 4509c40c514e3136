"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload topk --seed 1 --seconds 15 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` installs span wrappers (driver and Ray workers) and prints the
per-layer metrics. A JSON report with host context, latency sample counts
and every metric goes to ``.perfbench/reports/``. Exits non-zero, without a
result line, when the program cannot be imported or a run cannot finish.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Ray's unix sockets live under the temp dir; AF_UNIX paths stop at 107 bytes
# and the session adds ~64, so longer checkout paths keep Ray's default
MAX_RAY_TEMP = 43
# the load is sized for one core: Ray schedules one task or actor at a time,
# and the driver and every Ray process it starts share one CPU (see _pin)
RAY_CPUS = 1


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    # less background work in Ray's own processes on a small host
    os.environ.update(RAY_USAGE_STATS_ENABLED="0", RAY_enable_metrics_collection="0",
                      RAY_memory_monitor_refresh_ms="0")
    import astrologer_ray  # noqa: F401  (fails fast outside a full checkout)

    from perfbench import measure, spans, workloads

    if args.workload not in workloads.RUNNERS:
        ap.error(f"--workload must be one of {sorted(workloads.RUNNERS)}")
    state_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(state_dir, "tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(state_dir, "tmp")) as work:
        run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        _pin()
        bw_before = measure.bandwidth_gbs()
        with run.phase("prepare"):
            run.prepare()
        try:
            _start_ray(state_dir, run)
            if run.trace:
                spans.install(run.rec)
            with run.phase("build"):
                index = run.build()
            workloads.RUNNERS[args.workload](run, index)
        finally:
            _stop_ray()
        bw_after = measure.bandwidth_gbs()

    values = run.layers if run.trace else run.metrics
    metrics = {k: {"value": float(values[k]), "unit": u}
               for k, u in metric_units("per_layer" if run.trace else "end_to_end").items()}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": {**measure.host_context(), "ray_cpus": RAY_CPUS,
                       "pinned_cpus": sorted(os.sched_getaffinity(0))},
              "bandwidth_gbs": {"before": bw_before, "after": bw_after},
              "ray_init_s": run.ray_s, "phases_s": run.phases, **run.report,
              "end_to_end": run.metrics, "per_layer": run.layers, "result": result}
    os.makedirs(os.path.join(state_dir, "reports"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(state_dir, "reports", name), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _pin() -> None:
    """Pin the driver to one CPU; Ray's processes, started later, inherit
    the mask. A closed-loop request then hands one core between the driver
    and the actor instead of waking an idle one, which on a shared virtual
    machine adds a delay that varies with the host's load."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _start_ray(state_dir: str, run) -> None:
    import ray
    from ray.data import DataContext

    kw = {}
    ray_tmp = os.path.join(state_dir, "ray")
    if len(ray_tmp) <= MAX_RAY_TEMP:
        kw["_temp_dir"] = ray_tmp
    if run.trace:
        kw["runtime_env"] = {"worker_process_setup_hook": "perfbench.spans.install_in_worker"}
    t0 = time.perf_counter()
    # address="local": always a private instance, never a cluster named by RAY_ADDRESS
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, **kw)
    run.ray_s = time.perf_counter() - t0
    DataContext.get_current().enable_progress_bars = False


def _stop_ray(wait_s: float = 20.0) -> None:
    """Shut the session down, wait until every process it started has
    ended (killing those still there after ``wait_s``), and remove its
    directory (Ray keeps session logs after shutdown)."""
    import shutil
    import signal

    import ray

    node = ray._private.worker._global_node
    session = node.get_session_dir_path() if node is not None else None
    pids = _descendants()
    ray.shutdown()
    deadline = time.monotonic() + wait_s
    while (pids := [p for p in pids if _alive(p)]) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(p, signal.SIGKILL)
    if session:
        shutil.rmtree(session, ignore_errors=True)


def _descendants() -> list[int]:
    """Pids of every process below this one (Ray's daemons and workers)."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            with contextlib.suppress(OSError, IndexError, ValueError):
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
                children.setdefault(ppid, []).append(int(d))
    out, todo = [], [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (an unreaped zombie counts as ended)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


if __name__ == "__main__":
    sys.exit(main())
