"""Latency percentiles and host probes."""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

MIN_BEYOND = 10
# the tail percentile reported as an end-to-end metric: on a shared host
# p95 and p99 follow the host's stalls rather than the program (their
# spread between runs of the same code was 2x and 5x that of p90)
TAIL_PCT = 90.0
# requests per qps chunk (about one second of a closed loop)
QPS_CHUNK = 250


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples, in
    integer arithmetic (``p`` to 1/1000 of a percent) so 99.9 % of 10000 is
    exactly rank 9990."""
    return max(1, -(-round(p * 1000) * n // 100_000))


def nearest_rank(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of an ascending list."""
    return sorted_vals[_rank(len(sorted_vals), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


def highest_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 50.0)) -> float | None:
    """The highest candidate percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or None when even the lowest has fewer."""
    for p in candidates:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def block_size(p: float) -> int:
    """The smallest sample count with ``MIN_BEYOND`` samples beyond the
    ``p``-th percentile (100 for p90, 1000 for p99)."""
    n = MIN_BEYOND
    while samples_beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def blocked_percentile(lat_s: list[float], p: float) -> float:
    """Median, over consecutive blocks of ``block_size(p)`` samples in send
    order, of each block's nearest-rank ``p``-th percentile (the remainder
    joins the last block). One slow stretch of a run then moves one block,
    not the result. Fewer samples than one block: the percentile of all."""
    size = block_size(p)
    n_blocks = max(1, len(lat_s) // size)
    bounds = [i * size for i in range(n_blocks)] + [len(lat_s)]
    return statistics.median(nearest_rank(sorted(lat_s[a:b]), p)
                             for a, b in zip(bounds, bounds[1:]))


def chunked_rate(sent: list[float], done: list[float], chunk: int = QPS_CHUNK) -> float:
    """Median, over consecutive chunks of ``chunk`` requests, of the chunk's
    requests per second (first send to last reply); a remainder joins the
    last chunk. ``sent`` and ``done`` are per-request clock readings."""
    n_chunks = max(1, len(sent) // chunk)
    bounds = [i * chunk for i in range(n_chunks)] + [len(sent)]
    return statistics.median((b - a) / (done[b - 1] - sent[a])
                             for a, b in zip(bounds, bounds[1:]))


def latency_summary(lat_s: list[float]) -> dict:
    """p50 over all samples and the blocked tail percentile, in ms; the
    report also states the sample count, the number of tail blocks and the
    whole-run p99 (not a metric: it follows the host's stalls)."""
    return {
        "n": len(lat_s),
        "tail_pct": TAIL_PCT,
        "tail_blocks": max(1, len(lat_s) // block_size(TAIL_PCT)),
        "p50_ms": statistics.median(lat_s) * 1e3,
        "p90_ms": blocked_percentile(lat_s, TAIL_PCT) * 1e3,
        "p99_ms_all": nearest_rank(sorted(lat_s), 99.0) * 1e3,
        "highest_supported_pct": highest_percentile(len(lat_s)),
    }


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def bandwidth_gbs(mb: int = 64, reps: int = 5) -> float:
    """Single-process copy bandwidth: median of ``reps`` copies of an
    ``mb`` MB buffer, counting read plus write bytes."""
    src = np.ones(mb << 17, dtype=np.float64)
    dst = np.empty_like(src)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def host_context() -> dict:
    import ray

    return {"nproc": os.cpu_count(), "sched_cpus": len(os.sched_getaffinity(0)),
            "ray": ray.__version__}
