#!/usr/bin/env python3
"""Write one canonical JSON line per ES ``_search`` body run against an
index, so two versions of the engine can be compared with one ``diff``.

    python scripts/dsl_sweep.py <index> <out.jsonl> [--seed 1] [--calls]

Bodies, in order:
- the ``perfbench`` ``dsl`` workload's 3,000 bodies for ``--seed``, drawn
  from the generator exactly as ``perfbench/workloads.run_dsl`` draws them
  (after the refresh batches and the warm-up bodies);
- ``PER_KIND`` seeded bodies for each scorer node kind (phrase, prefix,
  span, intervals, dis_max, constant_score, pinned, boosting,
  function_score, script_score, rank_feature, distance_feature), for
  field sorts over plain, node and filter-only queries, and for the
  compositions one node cannot serve;
- ``PER_KIND`` seeded bool bodies with should clauses,
  ``minimum_should_match`` >= 2 and aggregations. They come last, so the
  bodies above keep their draws.

Each line holds the body and either its ``execute_dsl`` response or, for a
body that raises, the exception class and message. Keys are sorted and
floats printed with ``repr``, so equal lines mean equal responses.

``--calls`` also prints, per ``perfbench`` body kind, how many top-level
``Searcher.filter_mask`` calls (not its recursion into bool clauses) and
``Searcher.count`` calls the 3,000 ``perfbench`` bodies made.

When ``<index>`` does not exist, the script writes the seed's ``perfbench``
base corpus next to it (``<index>.corpus/``) and builds the index there
with positions, which the positional kinds need. ``perfbench`` is only
imported, never changed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

PER_KIND = 60
LANGS = ("python", "go", "rust", "java", "js", "markdown")
# the perfbench dsl body kinds, in their rotation order (body i is i % 3)
PERFBENCH_KINDS = ("filtered search", "size-0 aggs", "match")


def perfbench_bodies(seed: int):
    """The ``dsl`` workload's timed bodies and its generator's base corpus."""
    from perfbench import gen, workloads

    wl = gen.Workload(seed, workloads.N_FILES)
    for b in range(workloads.REFRESHES):
        wl.tail_batch(b, workloads.BATCH_FILES)
    wl.dsl_bodies(workloads.WARMUP)
    return wl.dsl_bodies(3_000), wl


def build(index: str, wl) -> None:
    import ray

    from astrologer_ray.pipelines.build import build_index
    from perfbench import workloads

    paths = wl.base.write(index + ".corpus", workloads.ROWS_PER_FILE)
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    try:
        build_index(paths, index, positions=True)
    finally:
        ray.shutdown()


class _Draw:
    """Seeded body inputs read from the index and its corpus."""

    def __init__(self, s, contents: list[str], seed: int):
        from astrologer_ray.functions.tokenizer import tokenize

        self.s, self.rng = s, np.random.default_rng(seed)
        n = s.N
        # whole identifiers and mid-frequency terms: short posting lists
        self.mid = sorted(t for t, df in s.df.items()
                          if t.isalnum() and 20 <= df <= n // 20)
        self.head = sorted(t for t, df in s.df.items()
                           if t.isalpha() and df > n // 4)
        self.streams = [tokenize(contents[int(i)], mode=s.mode)
                        for i in self.rng.choice(len(contents), 200,
                                                 replace=False)]

    def pick(self, pool, n=1):
        return [str(pool[int(i)]) for i in self.rng.integers(0, len(pool), n)]

    def window(self, n: int) -> list[str]:
        """``n`` consecutive tokens of a corpus doc (a phrase that matches)."""
        while True:
            toks = self.streams[int(self.rng.integers(len(self.streams)))]
            if len(toks) > n:
                i = int(self.rng.integers(len(toks) - n))
                return toks[i:i + n]

    def mid_chain(self, n: int) -> tuple[list[str], int]:
        """``n`` mid-frequency tokens in doc order and the slop spanning
        them (positional kinds run a per-doc loop: keep lists short)."""
        df = self.s.df
        while True:
            toks = self.streams[int(self.rng.integers(len(self.streams)))]
            pos = [i for i, t in enumerate(toks)
                   if t in df and df[t] <= self.s.N // 20]
            if len(pos) > n:
                i = int(self.rng.integers(len(pos) - n))
                ps = pos[i:i + n]
                if len({toks[p] for p in ps}) == n:
                    return [toks[p] for p in ps], ps[-1] - ps[0] - (n - 1)

    def lang(self):
        return {"term": {"lang": LANGS[int(self.rng.integers(len(LANGS)))]}}

    def filters(self):
        """Zero to two filter clauses."""
        out = []
        if self.rng.random() < 0.5:
            out.append(self.lang())
        if self.rng.random() < 0.3:
            lo = int(self.rng.integers(0, 300))
            out.append({"range": {"dl": {"gte": lo, "lt": lo + 600}}})
        return out

    def match(self, n=None):
        n = n or int(self.rng.integers(1, 4))
        return {"match": {"content": " ".join(self.pick(self.mid, n))}}

    def scored(self):
        """A must-match query, sometimes with filters."""
        fl = self.filters()
        m = self.match()
        return {"bool": {"must": [m], "filter": fl}} if fl else m

    def wrap(self, q, *, aggs=True):
        body = {"size": int(self.rng.choice([0, 3, 10, 25])), "query": q}
        if self.rng.random() < 0.2:
            body["from"] = int(self.rng.integers(1, 5))
        if aggs and self.rng.random() < 0.3:
            body["aggs"] = {"langs": {"terms": {"field": "lang"}},
                            "dl": {"avg": {"field": "dl"}}}
        return body


def node_bodies(d: _Draw) -> list[dict]:
    r = d.rng
    span = lambda ts: [{"span_term": {"content": t}} for t in ts]  # noqa: E731
    kinds = {
        "match_phrase": lambda: (
            {"bool": {"must": [{"match_phrase": {"content": " ".join(
                d.window(int(r.integers(2, 5))))}}], "filter": d.filters()}}),
        "match_phrase_prefix": lambda: {"match_phrase_prefix": {
            "content": (lambda w: " ".join(w[:-1] + [w[-1][:3]]))(
                d.window(int(r.integers(2, 4))))}},
        "match_bool_prefix": lambda: {"match_bool_prefix": {"content": " ".join(
            d.pick(d.mid, int(r.integers(1, 3))) + [d.pick(d.head)[0][:3]])}},
        "span_near": lambda: (lambda ts, slop: {"span_near": {
            "clauses": span(ts), "slop": slop + int(r.integers(0, 3))}})(
            *d.mid_chain(int(r.integers(2, 4)))),
        "span_first": lambda: {"span_first": {
            "match": {"span_term": {"content": d.pick(d.mid)[0]}},
            "end": int(r.integers(1, 60))}},
        "span_not": lambda: {"span_not": {
            "include": {"span_term": {"content": d.pick(d.mid)[0]}},
            "exclude": {"span_term": {"content": d.pick(d.head)[0]}},
            "dist": int(r.integers(0, 4))}},
        "span_containing": lambda: (lambda ts, slop: {
            "span_containing" if r.random() < 0.5 else "span_within": {
                "big": {"span_near": {"clauses": span(ts[:2]),
                                      "slop": slop + 4}},
                "little": {"span_term": {"content": d.pick(d.head)[0]}}}})(
            *d.mid_chain(2)),
        "intervals": lambda: (lambda ts, slop: {"intervals": {"content": {
            "match": {"query": " ".join(ts), "ordered": True,
                      "max_gaps": slop + int(r.integers(0, 3))}}}})(
            *d.mid_chain(int(r.integers(2, 4)))),
        "dis_max": lambda: {"dis_max": {
            "queries": [d.match() for _ in range(int(r.integers(1, 4)))],
            "tie_breaker": float(r.choice([0.0, 0.3, 0.7]))}},
        "constant_score": lambda: {"constant_score": {
            "filter": d.lang(), "boost": float(r.choice([1.0, 2.5]))}},
        "pinned": lambda: {"pinned": {
            "ids": [int(v) for v in r.integers(0, d.s.N, 3)],
            "organic": d.scored()}},
        "boosting": lambda: {"boosting": {
            "positive": d.scored(), "negative": d.lang(),
            "negative_boost": float(r.choice([0.2, 0.5]))}},
        "gauss": lambda: {"function_score": {"query": d.scored(), "functions": [
            {"gauss": {"dl": {"origin": int(r.integers(0, 400)),
                              "scale": int(r.integers(10, 200))}}}]}},
        "function_score": lambda: {"function_score": {
            "query": d.scored(),
            "functions": [
                {"field_value_factor": {"field": "dl", "modifier": "log1p"}},
                {"filter": d.lang(), "weight": float(r.integers(2, 5))}],
            "score_mode": str(r.choice(["sum", "multiply", "max"])),
            "boost_mode": str(r.choice(["multiply", "sum", "replace"]))}},
        "script_score": lambda: {"script_score": {
            "query": d.scored(),
            "script": {"source": "doc['dl'].value * params.f",
                       "params": {"f": float(r.choice([0.01, 0.5]))}}}},
        "rank_feature": lambda: {"bool": {
            "must": [d.match()], "filter": d.filters(), "should": [
                {"rank_feature": {"field": "dl", "saturation": {
                    "pivot": int(r.integers(20, 300))}}}]}},
        "distance_feature": lambda: {"bool": {
            "must": [d.match()], "filter": d.filters(), "should": [
                {"distance_feature": {"field": "dl",
                                      "origin": int(r.integers(0, 400)),
                                      "pivot": int(r.integers(10, 100))}}]}},
        # the compositions one node cannot serve
        "refused": lambda: [
            {"bool": {"must": [{"match_phrase": {"content": " ".join(
                d.window(2))}}, d.match(1)]}},
            {"bool": {"must": [d.match()], "should": [
                {"rank_feature": {"field": "dl"}},
                {"distance_feature": {"field": "dl", "origin": 100,
                                      "pivot": 20}}]}},
            {"function_score": {"query": {"boosting": {
                "positive": d.match(), "negative": d.lang()}},
                "functions": [{"gauss": {"dl": {"origin": 100,
                                                "scale": 50}}}]}},
            {"pinned": {"ids": [1, 2], "organic": {"function_score": {
                "query": d.match(), "functions": [
                    {"gauss": {"dl": {"origin": 100, "scale": 50}}}]}}}},
            {"bool": {"must": [{"match_phrase": {"content": " ".join(
                d.window(2))}}], "should": [
                {"rank_feature": {"field": "dl"}}]}},
        ][int(r.integers(5))],
    }
    out = []
    for _kind, make in kinds.items():
        out.extend(d.wrap(make()) for _ in range(PER_KIND))
    sorts = [[{"dl": {"order": "desc"}}], [{"dl": {"order": "asc"}}],
             [{"lang": {"order": "asc"}}, {"dl": {"order": "desc"}}]]
    queries = [lambda: d.scored(), lambda: kinds["match_phrase"](),
               lambda: {"match_all": {}}, lambda: {"bool": {"filter": [
                   d.lang()]}}]
    for i in range(4 * PER_KIND):
        body = d.wrap(queries[i % 4](), aggs=False)
        body["sort"] = sorts[int(r.integers(len(sorts)))]
        out.append(body)
    for _ in range(PER_KIND):
        n = int(r.integers(3, 5))
        words = d.pick(d.head, 2) + d.pick(d.mid, n - 2)
        q = {"bool": {"should": [{"match": {"content": w}} for w in words],
                      "minimum_should_match": int(r.integers(2, n))}}
        fl = d.filters()
        if fl:
            q["bool"]["filter"] = fl
        body = d.wrap(q, aggs=False)
        body["aggs"] = {"langs": {"terms": {"field": "lang"}},
                        "dl": {"avg": {"field": "dl"}}}
        out.append(body)
    return out


class _Calls:
    """Counts calls of ``Searcher.filter_mask`` (top level only) and
    ``Searcher.count`` by wrapping them on the class."""

    def __init__(self, searcher_cls):
        self.n = {"filter_mask": 0, "count": 0}
        depth = [0]
        filter_mask, count = searcher_cls.filter_mask, searcher_cls.count

        def counted_filter_mask(s, f):
            self.n["filter_mask"] += depth[0] == 0
            depth[0] += 1
            try:
                return filter_mask(s, f)
            finally:
                depth[0] -= 1

        def counted_count(s, *args, **kw):
            self.n["count"] += 1
            return count(s, *args, **kw)

        searcher_cls.filter_mask = counted_filter_mask
        searcher_cls.count = counted_count

    def snapshot(self) -> dict:
        return dict(self.n)


def _print_calls(per_kind: dict) -> None:
    print(f"{'kind':<16} {'bodies':>7} {'filter_mask':>12} {'count':>7}")
    total = {"bodies": 0, "filter_mask": 0, "count": 0}
    for kind in PERFBENCH_KINDS:
        row = per_kind[kind]
        for key in total:
            total[key] += row[key]
        print(f"{kind:<16} {row['bodies']:>7} {row['filter_mask']:>12} "
              f"{row['count']:>7}")
    print(f"{'total':<16} {total['bodies']:>7} {total['filter_mask']:>12} "
          f"{total['count']:>7}")


def _plain(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, (tuple, set)):
        return list(o)
    raise TypeError(f"not JSON-serializable: {type(o).__name__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("index")
    ap.add_argument("out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--calls", action="store_true",
                    help="print filter_mask / count calls per perfbench "
                         "body kind")
    args = ap.parse_args(argv)

    bodies, wl = perfbench_bodies(args.seed)
    if not os.path.exists(args.index):
        build(args.index, wl)
    from astrologer_ray.state.dsl import execute_dsl
    from astrologer_ray.state.searcher import Searcher

    s = Searcher(args.index)
    contents = wl.base.rows.column("content").to_pylist()
    n_perfbench = len(bodies)
    bodies = bodies + node_bodies(_Draw(s, contents, args.seed))
    calls = _Calls(Searcher) if args.calls else None
    per_kind = {k: {"bodies": 0, "filter_mask": 0, "count": 0}
                for k in PERFBENCH_KINDS}
    with open(args.out, "w") as f:
        for i, body in enumerate(bodies):
            before = calls.snapshot() if calls else None
            line = {"i": i, "body": body}
            try:
                line["response"] = execute_dsl(s, json.loads(json.dumps(body)))
            except Exception as exc:  # noqa: BLE001 — a refusal is an answer
                line["error"] = [type(exc).__name__, str(exc)]
            if calls and i < n_perfbench:
                row = per_kind[PERFBENCH_KINDS[i % 3]]
                row["bodies"] += 1
                for key, n in calls.snapshot().items():
                    row[key] += n - before[key]
            f.write(json.dumps(line, sort_keys=True, default=_plain) + "\n")
    print(f"{len(bodies)} bodies -> {args.out}")
    if calls:
        _print_calls(per_kind)
    return 0


if __name__ == "__main__":
    sys.exit(main())
