"""In-memory spans around the program's public functions.

Wrappers are installed from the benchmark only: in the driver with
:func:`install`, and in Ray worker processes through the runtime env's
``worker_process_setup_hook`` (:func:`install_in_worker`). They record
nothing until the process's recorder is enabled, so build tasks that share
the hooked worker processes run unwrapped work at full speed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, span name, count the decoded postings)
LAYERS = (
    ("astrologer_ray.state.searcher", "Searcher.search", "state.searcher.search", False),
    ("astrologer_ray.state.searcher", "Searcher.filter_mask", "state.searcher.filter_mask", False),
    ("astrologer_ray.state.searcher", "Searcher.run_dsl", "state.searcher.run_dsl", False),
    ("astrologer_ray.state.dsl", "execute_dsl", "state.dsl.execute_dsl", False),
    ("astrologer_ray.functions.codec", "decode_chunk", "functions.codec.decode", True),
    ("astrologer_ray.functions.codec", "decode_block", "functions.codec.decode", True),
    ("astrologer_ray.functions.tokenizer", "tokenize", "functions.tokenizer.tokenize", False),
)


class Recorder:
    """Spans of one process: ``(id, parent, name, t0, t1, count)``."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counted: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            count = int(len(out[0])) if counted else 0
            self.spans[sid] = (sid, parent, name, t0, t1, count)
            return out

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def take(self) -> list[tuple]:
        """Return the finished spans and start a new list."""
        out = [s for s in self.spans if s is not None]
        self.spans = []
        return out


def install(rec: Recorder) -> None:
    """Wrap every function in :data:`LAYERS`, at its defining module and at
    every ``astrologer_ray`` module that bound it by name."""
    for mod_name, path, name, counted in LAYERS:
        mod = importlib.import_module(mod_name)
        owner = mod
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        orig = getattr(owner, attr)
        if getattr(orig, "__perfbench_wrapped__", False):
            continue
        wrapped = rec.wrap(orig, name, counted)
        setattr(owner, attr, wrapped)
        if not outer:
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("astrologer_ray")
                        and getattr(other, attr, None) is orig):
                    setattr(other, attr, wrapped)


_WORKER_RECORDER: Recorder | None = None


def install_in_worker() -> None:
    """``worker_process_setup_hook``: one disabled recorder per worker."""
    global _WORKER_RECORDER
    _WORKER_RECORDER = Recorder()
    install(_WORKER_RECORDER)


def _worker_recorder() -> Recorder:
    if _WORKER_RECORDER is None:
        raise RuntimeError("worker was started without the perfbench setup hook")
    return _WORKER_RECORDER


def set_worker_tracing(_actor, enabled: bool) -> None:
    """``actor.__ray_call__`` target: switch the actor's recorder."""
    _worker_recorder().enabled = enabled


def take_worker_spans(_actor) -> list[tuple]:
    """``actor.__ray_call__`` target: the actor's finished spans."""
    return _worker_recorder().take()


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    of its interval covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, t0, t1, _c in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out: dict[str, float] = {}
    for sid, _parent, name, t0, t1, _c in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[name] = out.get(name, 0.0) + (t1 - t0) - covered
    return out


def totals(spans: list[tuple], name: str) -> tuple[int, float, int]:
    """(span count, summed duration, summed count) of spans named ``name``."""
    n = dur = cnt = 0
    for _sid, _parent, nm, t0, t1, c in spans:
        if nm == name:
            n += 1
            dur += t1 - t0
            cnt += c
    return n, dur, cnt


def roots(spans: list[tuple]) -> list[tuple]:
    return [s for s in spans if s[1] is None]
