"""One match evaluation per DSL request. On an index with tombstones and
``update_by_query`` overlays, ``hits.total``, the hits and every bucket
count equal a brute-force recount; a perfbench body evaluates its filter
clauses at most once; and sibling aggregations over the request's one
shared mask count the docs ``execute_count`` counts."""
import glob
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from astrologer_ray.functions.tokenizer import tokenize
from astrologer_ray.pipelines.build import build_index
from astrologer_ray.pipelines.segments import delete_by_query, update_by_query
from astrologer_ray.state.bm25 import oracle_topk
from astrologer_ray.state.dsl import execute_count, execute_dsl
from astrologer_ray.state.searcher import Searcher

DEAD_LANG = "java"
DEAD_IDS = [3, 10, 77, 150, 151, 299]


@pytest.fixture(scope="module")
def env(ray_session, small_corpus_dir, tmp_path_factory):
    """The 300-file corpus with every ``DEAD_LANG`` doc and ``DEAD_IDS``
    tombstoned, a numeric ``tier`` overlay on the ``go`` docs (NaN
    elsewhere) and the ``repo`` of the shortest quarter repainted
    ``"short"``; with the brute-force view of every doc."""
    d = str(tmp_path_factory.mktemp("masks"))
    build_index(small_corpus_dir, d, partition_rows=64)
    s0 = Searcher(d)
    rows = pa.concat_tables(
        [pq.read_table(f) for f in
         sorted(glob.glob(os.path.join(small_corpus_dir, "*.parquet")))])
    keys = zip(*(rows.column(c).to_pylist() for c in ("repo", "path", "commit")))
    by_key = dict(zip(keys, rows.column("content").to_pylist()))
    contents = [by_key[tuple(s0.doc_attrs.value(c, i)
                             for c in ("repo", "path", "commit"))]
                for i in range(s0.n_local)]
    short = float(np.quantile(s0.doc_attrs["dl"], 0.25))
    assert delete_by_query(d, {"bool": {"should": [
        {"term": {"lang": DEAD_LANG}}, {"ids": DEAD_IDS}]}})["deleted"]
    assert update_by_query(d, {"term": {"lang": "go"}},
                           "ctx._source.tier = doc['dl'].value * 2.0")["updated"]
    assert update_by_query(d, {"range": {"dl": {"lt": short}}},
                           "ctx._source.repo = 'short'")["updated"]
    s = Searcher(d)
    n = s.n_local
    live = np.ones(n, dtype=bool)
    live[s.deleted] = False
    docs = {
        "live": live,
        "toks": [set(tokenize(c or "", mode=s.mode)) for c in contents],
        "lang": [s.doc_attrs.value("lang", i) for i in range(n)],
        "repo": [s.doc_attrs.value("repo", i) for i in range(n)],
        "dl": np.asarray(s.doc_attrs["dl"], dtype=np.float64),
        "tier": np.asarray(s.doc_attrs["tier"], dtype=np.float64),
    }
    assert "short" in docs["repo"] and not np.isnan(docs["tier"]).all()
    words = sorted((t for t in s.df if t.isalpha() and 15 <= s.df[t] <= 90),
                   key=lambda t: (-s.df[t], t))
    return {"s": s, "docs": docs, "contents": contents, "words": words}


def _ids(env, pred) -> list[int]:
    """The live docs for which ``pred(doc_id)`` holds, ascending."""
    docs = env["docs"]
    return [d for d in range(len(docs["live"])) if docs["live"][d] and pred(d)]


def _terms(env, ids, field, size=10) -> list[dict]:
    vals = [env["docs"][field][d] for d in ids]
    c = Counter(v for v in vals if v is not None)
    rows = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:size]
    return [{"key": k, "doc_count": n} for k, n in rows]


def _hist_keys(env, ids, interval) -> Counter:
    dl = env["docs"]["dl"]
    return Counter(float(np.floor(dl[d] / interval) * interval) for d in ids)


def _scored(env, words, ids, k) -> list[tuple[int, float]]:
    allowed = np.zeros(len(env["contents"]), dtype=bool)
    allowed[ids] = True
    return oracle_topk(env["contents"], words, k=k, allowed=allowed,
                       mode=env["s"].mode)


def _hits(resp) -> list[tuple[int, float]]:
    return [(h["_id"], h["_score"]) for h in resp["hits"]["hits"]]


def _check(env, body, ids):
    """Run ``body``; its total is ``len(ids)``, and ``execute_count``
    agrees."""
    s = env["s"]
    resp = execute_dsl(s, body)
    assert resp["hits"]["total"]["value"] == len(ids)
    assert execute_count(s, {"query": body["query"]})["count"] == len(ids)
    return resp


def _perfbench_bodies(env):
    """The three perfbench ``dsl`` body kinds, with their recount
    predicates (a filtered search, a size-0 aggregation, a match)."""
    w = env["words"][0]
    docs = env["docs"]
    lo = float(np.quantile(docs["dl"], 0.2))
    return [
        ({"size": 10, "query": {"bool": {
            "must": [{"match": {"content": w}}],
            "filter": [{"term": {"lang": "go"}},
                       {"range": {"dl": {"gte": lo, "lt": lo + 600}}}]}}},
         lambda d: (w in docs["toks"][d] and docs["lang"][d] == "go"
                    and lo <= docs["dl"][d] < lo + 600)),
        ({"size": 0,
          "query": {"bool": {"filter": [{"term": {"lang": "python"}}]}},
          "aggs": {"repos": {"terms": {"field": "repo", "size": 10}},
                   "dl": {"histogram": {"field": "dl", "interval": 100},
                          "aggs": {"cum": {"cumulative_sum": {
                              "buckets_path": "_count"}}}}}},
         lambda d: docs["lang"][d] == "python"),
        ({"size": 10, "query": {"match": {"content": w}}},
         lambda d: w in docs["toks"][d]),
    ]


def test_perfbench_shapes_recount(env):
    w = env["words"][0]
    for body, pred in _perfbench_bodies(env):
        ids = _ids(env, pred)
        assert ids
        resp = _check(env, body, ids)
        if body["size"]:
            assert _hits(resp) == _scored(env, [w], ids, body["size"])
        if "aggs" in body:
            aggs = resp["aggregations"]
            assert aggs["repos"]["buckets"] == _terms(env, ids, "repo")
            hist = sorted(_hist_keys(env, ids, 100).items())
            run, want = 0, []
            for key, n in hist:
                run += n
                want.append({"key": key, "doc_count": n,
                             "cum": {"value": float(run)}})
            assert aggs["dl"]["buckets"] == want


def test_nested_bucket_aggs_recount(env):
    """terms→terms, histogram→terms and range→avg under a match query
    with a filter: every nested bucket counts exactly its docs."""
    docs = env["docs"]
    w = env["words"][1]
    query = {"bool": {"must": [{"match": {"content": w}}],
                      "must_not": [{"term": {"lang": "rust"}}]}}
    ids = _ids(env, lambda d: w in docs["toks"][d] and docs["lang"][d] != "rust")
    assert ids
    mid = float(np.median(docs["dl"]))
    ranges = [{"to": mid}, {"from": mid, "to": 2 * mid}, {"from": 2 * mid}]
    resp = _check(env, {"size": 0, "query": query, "aggs": {
        "langs": {"terms": {"field": "lang"},
                  "aggs": {"repos": {"terms": {"field": "repo", "size": 50}}}},
        "dl": {"histogram": {"field": "dl", "interval": 50},
               "aggs": {"langs": {"terms": {"field": "lang"}}}},
        "r": {"range": {"field": "dl", "ranges": ranges},
              "aggs": {"t": {"avg": {"field": "tier"}}}}}}, ids)
    aggs = resp["aggregations"]
    want = []
    for b in _terms(env, ids, "lang"):
        sub = [d for d in ids if docs["lang"][d] == b["key"]]
        want.append({**b, "repos": {"buckets": _terms(env, sub, "repo", 50)}})
    assert aggs["langs"]["buckets"] == want
    want = []
    for key, n in sorted(_hist_keys(env, ids, 50).items()):
        sub = [d for d in ids
               if float(np.floor(docs["dl"][d] / 50) * 50) == key]
        want.append({"key": key, "doc_count": n,
                     "langs": {"buckets": _terms(env, sub, "lang")}})
    assert aggs["dl"]["buckets"] == want
    for b, r in zip(aggs["r"]["buckets"], ranges):
        sub = [d for d in ids if r.get("from", -np.inf) <= docs["dl"][d]
               < r.get("to", np.inf)]
        assert b["doc_count"] == len(sub)
        tiers = [docs["tier"][d] for d in sub if not np.isnan(docs["tier"][d])]
        if tiers:
            assert b["t"]["value"] == pytest.approx(np.mean(tiers))
        else:
            assert b["t"]["value"] is None


def test_filters_missing_global_sampler_recount(env):
    docs = env["docs"]
    w = env["words"][2]
    mid = float(np.median(docs["dl"]))
    query = {"bool": {"must": [{"match": {"content": w}}],
                      "filter": [{"range": {"dl": {"gte": mid / 4}}}]}}
    ids = _ids(env, lambda d: w in docs["toks"][d] and docs["dl"][d] >= mid / 4)
    assert ids
    langs = {"langs": {"terms": {"field": "lang"}}}
    resp = _check(env, {"size": 0, "query": query, "aggs": {
        "f": {"filters": {"filters": {
            "py": {"term": {"lang": "python"}},
            "long": {"range": {"dl": {"gte": mid}}}}}, "aggs": langs},
        "m": {"missing": {"field": "tier"}, "aggs": langs},
        "g": {"global": {}, "aggs": langs},
        "s": {"sampler": {"shard_size": 7}, "aggs": langs}}}, ids)
    aggs = resp["aggregations"]
    preds = {"py": lambda d: docs["lang"][d] == "python",
             "long": lambda d: docs["dl"][d] >= mid}
    for name, pred in preds.items():
        sub = [d for d in ids if pred(d)]
        assert aggs["f"]["buckets"][name] == {
            "doc_count": len(sub), "langs": {"buckets": _terms(env, sub, "lang")}}
    assert list(aggs["f"]["buckets"]) == ["long", "py"]
    sub = [d for d in ids if np.isnan(docs["tier"][d])]
    assert aggs["m"] == {"doc_count": len(sub),
                         "langs": {"buckets": _terms(env, sub, "lang")}}
    every = _ids(env, lambda d: True)
    assert aggs["g"] == {"doc_count": len(every),
                         "langs": {"buckets": _terms(env, every, "lang")}}
    top = [d for d, _ in _scored(env, [w], ids, 7)]
    assert aggs["s"] == {"doc_count": len(top),
                         "langs": {"buckets": _terms(env, top, "lang")}}


def test_pinned_and_min_should_match_aggs_recount(env):
    docs = env["docs"]
    w1, w2, w3 = env["words"][:3]
    without = [d for d in range(len(docs["live"]))
               if docs["live"][d] and w1 not in docs["toks"][d]]
    # live docs without the word, a tombstoned doc and an id past the index
    pins = [without[0], without[-1], DEAD_IDS[0], len(docs["live"]) + 5]
    aggs = {"langs": {"terms": {"field": "lang"}}}
    ids = _ids(env, lambda d: w1 in docs["toks"][d] or d in pins)
    resp = _check(env, {"size": 5, "aggs": aggs, "query": {"pinned": {
        "ids": pins, "organic": {"match": {"content": w1}}}}}, ids)
    assert resp["aggregations"]["langs"]["buckets"] == _terms(env, ids, "lang")
    assert [h for h, _ in _hits(resp)][:2] == pins[:2]

    query = {"bool": {"should": [{"match": {"content": w}}
                                 for w in (w1, w2, w3)],
                      "minimum_should_match": 2,
                      "filter": [{"term": {"lang": "go"}}]}}
    ids = _ids(env, lambda d: (len(docs["toks"][d] & {w1, w2, w3}) >= 2
                               and docs["lang"][d] == "go"))
    assert ids
    resp = _check(env, {"size": 3, "query": query, "aggs": aggs}, ids)
    assert resp["aggregations"]["langs"]["buckets"] == _terms(env, ids, "lang")
    assert {h for h, _ in _hits(resp)} <= set(ids)


def test_one_filter_evaluation_per_body(env, monkeypatch):
    """Each perfbench body kind evaluates ``Searcher.filter_mask`` at most
    once at the top level (its recursion into bool clauses aside), and
    never calls ``Searcher.count``."""
    s = env["s"]
    calls = {"filter_mask": 0, "count": 0}
    depth = [0]
    filter_mask, count = Searcher.filter_mask, Searcher.count

    def counted_filter_mask(self, f):
        calls["filter_mask"] += depth[0] == 0
        depth[0] += 1
        try:
            return filter_mask(self, f)
        finally:
            depth[0] -= 1

    def counted_count(self, *args, **kw):
        calls["count"] += 1
        return count(self, *args, **kw)

    monkeypatch.setattr(Searcher, "filter_mask", counted_filter_mask)
    monkeypatch.setattr(Searcher, "count", counted_count)
    for body, _pred in _perfbench_bodies(env):
        calls.update(filter_mask=0, count=0)
        execute_dsl(s, body)
        assert calls["filter_mask"] <= 1, body
        assert calls["count"] == 0, body


def test_sibling_aggs_share_one_mask(env):
    """Sibling aggs read the request's one live mask on a tombstoned
    index: none of them folds the tombstones into it again or narrows it
    for the next, so every sibling counts the docs execute_count counts."""
    s = env["s"]
    w = env["words"][0]
    for query in ({"match": {"content": w}},
                  {"bool": {"filter": [{"term": {"lang": "go"}}]}},
                  {"match_all": {}}):
        n = execute_count(s, {"query": query})["count"]
        resp = execute_dsl(s, {"size": 0, "query": query, "aggs": {
            "a": {"terms": {"field": "lang", "size": 50}},
            "m": {"missing": {"field": "tier"}},
            "r": {"range": {"field": "dl", "ranges": [{"to": 30}]}},
            "h": {"histogram": {"field": "dl", "interval": 40}},
            "c": {"value_count": {"field": "dl"}},
            "b": {"terms": {"field": "lang", "size": 50}}}})
        aggs = resp["aggregations"]
        assert resp["hits"]["total"]["value"] == n > 0
        for name in ("a", "b", "h"):
            assert sum(b["doc_count"] for b in aggs[name]["buckets"]) == n
        assert aggs["c"]["value"] == n
        assert aggs["a"] == aggs["b"]
