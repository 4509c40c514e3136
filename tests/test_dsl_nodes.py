"""One scorer node per DSL query: every query kind's body ranks, counts and
scopes exactly like its direct Searcher method on three index shapes, a
field sort orders exactly the docs ``hits.total`` counts, and the
compositions one node cannot serve are refused."""
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from astrologer_ray.functions.tokenizer import tokenize
from astrologer_ray.pipelines.build import build_index
from astrologer_ray.pipelines.segments import append_segment, delete_by_query
from astrologer_ray.state.bm25 import oracle_topk
from astrologer_ray.state.dsl import execute_count, execute_dsl
from astrologer_ray.state.searcher import Searcher

DEAD_LANG = "java"  # tombstoned in the segmented index


def _contents(s: Searcher, by_key: dict) -> list[str]:
    """Corpus contents in ``s``'s doc-id order (``s`` serves every doc)."""
    return [by_key[tuple(s.doc_attrs.value(c, i)
                         for c in ("repo", "path", "commit"))]
            for i in range(s.n_local)]


@pytest.fixture(scope="module")
def node_env(ray_session, small_corpus_dir, tmp_path_factory):
    """The 300-file corpus indexed with positions twice: a single build
    (served whole and as the doc-range shard ``chunk_range=(1, 10)``,
    docs [64, N)), and a base of its first 192 docs in key order plus an
    appended segment of the rest, with every ``DEAD_LANG`` doc
    tombstoned."""
    rows = pa.concat_tables(
        [pq.read_table(f) for f in
         sorted(glob.glob(os.path.join(small_corpus_dir, "*.parquet")))])
    keys = list(zip(*(rows.column(c).to_pylist()
                      for c in ("repo", "path", "commit"))))
    by_key = dict(zip(keys, rows.column("content").to_pylist()))
    # appends need keys that sort after the base's: split in key order
    rows = rows.take(sorted(range(len(keys)), key=lambda i: "\x1f".join(keys[i])))
    d = tmp_path_factory.mktemp("nodes")
    files = [str(d / "part-000.parquet"), str(d / "part-001.parquet")]
    pq.write_table(rows.slice(0, 192), files[0])
    pq.write_table(rows.slice(192), files[1])
    single, seg = str(d / "single"), str(d / "seg")
    kw = dict(partition_rows=64, positions=True, chunk_bits=6)
    build_index(files, single, **kw)
    build_index(files[:1], seg, **kw)
    append_segment(files, seg, partition_rows=64)
    assert delete_by_query(seg, {"term": {"lang": DEAD_LANG}})["deleted"]
    full = {"single": Searcher(single), "seg": Searcher(seg)}
    shard = Searcher(single, chunk_range=(1, 10))
    assert shard.doc_lo == 64 and shard.doc_hi == shard.N
    contents = _contents(full["single"], by_key)
    return {"searchers": {**full, "shard": shard},
            "words": _words(full["single"], contents),
            "contents": {"single": contents, "shard": contents,
                         "seg": _contents(full["seg"], by_key)}}


def _words(s: Searcher, contents: list[str]):
    """Deterministic body inputs: a four-token phrase — the corpus's most
    frequent three-part camelCase identifier, which the analyzer emits
    whole and then as its parts, whose last part is not its largest term,
    so the sorted-term BM25 sum rounds differently from the query-order
    one — and frequent single terms."""
    import collections
    import re

    idents = collections.Counter(
        w for c in contents
        for w in re.findall(r"\b[a-z]+[A-Z][a-z]+[A-Z][a-z]+\b", c))
    toks = next(t for t in (tokenize(w, mode=s.mode)
                            for w, _ in idents.most_common())
                if len(set(t)) == 4 and max(t) != t[-1])
    common = sorted((t for t in s.df if t.isalpha() and 20 <= s.df[t] <= 120),
                    key=lambda t: (-s.df[t], t))
    return toks, common


def _cases(toks, common):
    """(name, body query, direct call, positional scored terms or None,
    the body's filter or None)."""
    ident, a, b, c = toks
    w1, w2, w3 = common[0], common[1], common[2]
    lang = {"term": {"lang": "rust"}}
    phrase = " ".join(toks)
    span_terms = {"clauses": [{"span_term": {"content": t}} for t in toks],
                  "slop": 1, "in_order": True}
    fvf = [{"field_value_factor": {"field": "dl", "modifier": "log1p"}},
           {"filter": lang, "weight": 2.0}]
    script = {"source": "doc['dl'].value * 0.01"}
    m = {"match": {"content": f"{w1} {w2}"}}
    return [
        ("phrase", {"match_phrase": {"content": phrase}},
         lambda s, k: s.phrase_search(toks, k=k), toks, None),
        ("phrase_filtered",
         {"bool": {"must": [{"match_phrase": {"content": phrase}}],
                   "filter": [lang]}},
         lambda s, k: s.phrase_search(toks, k=k, filter=lang), toks, lang),
        ("match_phrase_prefix",
         {"match_phrase_prefix": {"content": f"{ident} {a} {b} {c[:2]}"}},
         lambda s, k: s.match_phrase_prefix([ident, a, b, c[:2]], k=k),
         [ident, a, b], None),
        ("match_bool_prefix",
         {"match_bool_prefix": {"content": f"{w1} {c[:2]}"}},
         lambda s, k: s.match_bool_prefix([w1, c[:2]], k=k), None, None),
        ("span_near", {"span_near": span_terms},
         lambda s, k: s.span_near(toks, slop=1, k=k), toks, None),
        ("span_first",
         {"span_first": {"match": {"span_term": {"content": w1}},
                         "end": 40}},
         lambda s, k: s.span_first(w1, 40, k=k), [w1], None),
        ("span_not",
         {"span_not": {"include": {"span_term": {"content": a}},
                       "exclude": {"span_term": {"content": w2}},
                       "dist": 3}},
         lambda s, k: s.span_not(a, w2, pre=3, post=3, k=k), [a], None),
        ("span_containing",
         {"span_containing": {
             "big": {"span_near": {"clauses": [
                 {"span_term": {"content": ident}},
                 {"span_term": {"content": c}}], "slop": 3}},
             "little": {"span_term": {"content": b}}}},
         lambda s, k: s.span_containing([ident, c], b, slop=3, k=k),
         [ident, c], None),
        ("span_within",
         {"span_within": {
             "big": {"span_near": {"clauses": [
                 {"span_term": {"content": ident}},
                 {"span_term": {"content": c}}], "slop": 3}},
             "little": {"span_term": {"content": b}}}},
         lambda s, k: s.span_containing([ident, c], b, slop=3, k=k,
                                        score="little"),
         [b], None),
        ("intervals",
         {"intervals": {"content": {"match": {
             "query": phrase, "ordered": True, "max_gaps": 1}}}},
         lambda s, k: s.span_near(toks, slop=1, k=k), toks, None),
        ("dis_max",
         {"dis_max": {"queries": [{"match": {"content": w1}},
                                  {"match": {"content": f"{w2} {w3}"}}],
                      "tie_breaker": 0.3}},
         lambda s, k: s.search_dis_max([[w1], [w2, w3]], tie_breaker=0.3,
                                       k=k), None, None),
        ("constant_score",
         {"constant_score": {"filter": lang, "boost": 2.0}},
         lambda s, k: s.search_constant_score(lang, boost=2.0, k=k),
         None, None),
        ("pinned",
         {"pinned": {"ids": [70, 5, 290], "organic": m}},
         lambda s, k: s.search_pinned([w1, w2], [70, 5, 290], k=k),
         None, None),
        ("boosting",
         {"boosting": {"positive": m, "negative": lang,
                       "negative_boost": 0.3}},
         lambda s, k: s.search_boosting([w1, w2], lang, negative_boost=0.3,
                                        k=k), None, None),
        ("gauss",
         {"function_score": {"query": m, "functions": [
             {"gauss": {"dl": {"origin": 100, "scale": 50}}}]}},
         lambda s, k: s.function_score([w1, w2], k=k, decay_attr="dl",
                                       origin=100.0, scale=50.0),
         None, None),
        ("function_score",
         {"function_score": {"query": m, "functions": fvf,
                             "score_mode": "sum"}},
         lambda s, k: s.search_function_score([w1, w2], fvf, k=k,
                                              score_mode="sum"),
         None, None),
        ("script_score",
         {"script_score": {"query": m, "script": script}},
         lambda s, k: s.search_function_score(
             [w1, w2], [{"script_score": {"script": script}}], k=k,
             boost_mode="replace"), None, None),
        ("rank_feature",
         {"bool": {"must": [m], "should": [
             {"rank_feature": {"field": "dl", "saturation": {"pivot": 80}}}]}},
         lambda s, k: s.search_rank_feature([w1, w2], k=k,
                                            feature_attr="dl", pivot=80.0),
         None, None),
        ("distance_feature",
         {"bool": {"must": [m], "should": [
             {"distance_feature": {"field": "dl", "origin": 200,
                                   "pivot": 50}}]}},
         lambda s, k: s.search_distance_feature(
             [w1, w2], k=k, feature_attr="dl", origin=200.0, pivot=50.0),
         None, None),
    ]


def _pairs(hits):
    return [(h["doc_id"], h["score"]) for h in hits]


@pytest.mark.parametrize("shape", ["single", "shard", "seg"])
def test_node_parity_with_direct_searcher(node_env, shape):
    """Each kind's body returns the direct Searcher method's hits and
    counts its total as that method's full match list; a positional
    kind's every hit is a live doc inside the body's filter, scored bit
    for bit like oracle_topk over the unique scored terms."""
    s = node_env["searchers"][shape]
    toks, common = node_env["words"]
    contents = node_env["contents"][shape]
    live = np.ones(s.N, dtype=bool)
    if s.deleted is not None:
        live[s.deleted] = False
    n_positional = 0
    for name, query, direct, sterms, filt in _cases(toks, common):
        body = {"size": 10, "query": query}
        got = execute_dsl(s, body)
        want = direct(s, 10)
        assert [(h["_id"], h["_score"]) for h in got["hits"]["hits"]] == \
            _pairs(want), name
        every = direct(s, s.n_local)
        assert got["hits"]["total"]["value"] == len(every), name
        assert execute_count(s, {"query": query})["count"] == len(every), \
            name
        if sterms is None:
            continue
        n_positional += len(every)
        oracle = dict(oracle_topk(contents, sterms, k=len(contents)))
        allowed = live[s.doc_lo:s.doc_hi].copy()
        if filt is not None:
            allowed &= s.filter_mask(filt)
        for d, sc in _pairs(every):
            assert allowed[d - s.doc_lo], (name, d)
            assert sc == oracle[d], (name, d, sc, oracle[d])
    assert n_positional > 0


def _sorted_ids(s, ids, keys):
    """``ids`` ordered by ``keys`` [(attr, descending)], then doc_id asc
    (stable sorts, last key first)."""
    out = sorted(ids)
    for attr, desc in reversed(keys):
        out.sort(key=lambda d: s.doc_attrs.value(attr, d - s.doc_lo),
                 reverse=desc)
    return out


def test_field_sort_keeps_the_query(node_env):
    """A field sort orders exactly the docs hits.total counts: every hit
    matches the query, in (value, doc_id asc) order, for a single key, a
    multi-key sort, a search_after page and a match_phrase query."""
    s = node_env["searchers"]["single"]
    toks, _ = node_env["words"]
    # a term in a couple dozen docs, so a 20-hit page shows whether the
    # field sort still keeps only the query's matches
    term = min((t for t in s.df if t.isalpha() and 21 <= s.df[t] <= 40),
               key=lambda t: (s.df[t], t))
    match = set((np.flatnonzero(s._any_term_mask([term]))
                 + s.doc_lo).tolist())
    q = {"match": {"content": term}}
    got = execute_dsl(s, {"size": 20, "query": q,
                          "sort": [{"dl": {"order": "desc"}}]})
    ids = [h["_id"] for h in got["hits"]["hits"]]
    assert got["hits"]["total"]["value"] == len(match)
    assert ids == _sorted_ids(s, match, [("dl", True)])[:20]

    keys = [("lang", False), ("dl", True)]
    got = execute_dsl(s, {"size": 20, "query": q, "sort": [
        {"lang": {"order": "asc"}}, {"dl": {"order": "desc"}}]})
    assert [h["_id"] for h in got["hits"]["hits"]] == \
        _sorted_ids(s, match, keys)[:20]

    page1 = execute_dsl(s, {"size": 8, "query": q,
                            "sort": [{"dl": {"order": "asc"}}]})
    last = page1["hits"]["hits"][-1]
    page2 = execute_dsl(s, {"size": 8, "query": q,
                            "sort": [{"dl": {"order": "asc"}}],
                            "search_after": [last["value"], last["_id"]]})
    both = [h["_id"] for h in page1["hits"]["hits"] + page2["hits"]["hits"]]
    assert both == _sorted_ids(s, match, [("dl", False)])[:16]

    phrase = {"match_phrase": {"content": " ".join(toks)}}
    pmatch = {h["doc_id"] for h in s.phrase_search(toks, k=s.n_local)}
    assert pmatch
    got = execute_dsl(s, {"size": 20, "query": phrase,
                          "sort": [{"dl": {"order": "desc"}}]})
    assert got["hits"]["total"]["value"] == len(pmatch)
    assert [h["_id"] for h in got["hits"]["hits"]] == \
        _sorted_ids(s, pmatch, [("dl", True)])[:20]


def test_one_node_compositions_are_refused(node_env):
    """Bodies one scorer node cannot serve — a second scorer, or scored
    terms beside a standalone node, which it would have to drop — refuse
    from both _search and _count."""
    s = node_env["searchers"]["single"]
    toks, common = node_env["words"]
    w1, w2 = common[0], common[1]
    m = {"match": {"content": w1}}
    phrase = {"match_phrase": {"content": " ".join(toks)}}
    rf = {"rank_feature": {"field": "dl", "saturation": {"pivot": 80}}}
    dfeat = {"distance_feature": {"field": "dl", "origin": 200, "pivot": 50}}
    fs = {"function_score": {"query": m, "functions": [
        {"gauss": {"dl": {"origin": 100, "scale": 50}}}]}}
    bodies = [
        {"bool": {"must": [phrase, {"match": {"content": w2}}]}},
        {"bool": {"must": [m], "should": [rf, dfeat]}},
        {"function_score": {"query": {"boosting": {
            "positive": m, "negative": {"term": {"lang": "go"}}}},
            "functions": [{"gauss": {"dl": {"origin": 100, "scale": 50}}}]}},
        {"pinned": {"ids": [1, 2], "organic": fs}},
        {"bool": {"must": [phrase], "should": [rf]}},
    ]
    for q in bodies:
        with pytest.raises(NotImplementedError):
            execute_dsl(s, {"query": q})
        with pytest.raises(NotImplementedError):
            execute_count(s, {"query": q})


def test_node_refuses_the_keys_its_ranking_drops(node_env):
    """A body ranked by a scorer node refuses, naming it, each key that
    node's ranking would drop: a top-level min_score, a top-level
    search_after and a match clause's boost. A plain match still serves
    them, and a field-sorted search_after still pages a node's matches."""
    s = node_env["searchers"]["single"]
    toks, common = node_env["words"]
    w1, w2 = common[0], common[1]
    phrase = {"match_phrase": {"content": " ".join(toks)}}
    boosted = {"match": {"content": {"query": f"{w1} {w2}", "boost": 2.0}}}
    gauss = [{"gauss": {"dl": {"origin": 100, "scale": 50}}}]
    refused = [
        ("min_score", {"query": phrase, "min_score": 1e9}),
        ("search_after", {"query": phrase, "search_after": [1.0, 5]}),
        ("boost", {"query": {"function_score": {"query": boosted,
                                                "functions": gauss}}}),
        ("boost", {"query": {"bool": {"must": [boosted], "should": [
            {"rank_feature": {"field": "dl"}}]}}}),
    ]
    for key, body in refused:
        with pytest.raises(NotImplementedError, match=key):
            execute_dsl(s, body)

    plain = execute_dsl(s, {"query": boosted, "min_score": 1e9})
    assert plain["hits"]["hits"] == []
    pmatch = {h["doc_id"] for h in s.phrase_search(toks, k=s.n_local)}
    page = execute_dsl(s, {"size": 3, "query": phrase,
                           "sort": [{"dl": {"order": "asc"}}],
                           "search_after": [0, -1]})
    assert [h["_id"] for h in page["hits"]["hits"]] == \
        _sorted_ids(s, pmatch, [("dl", False)])[:3]


@pytest.mark.parametrize("shape", ["single", "shard", "seg"])
def test_positional_node_aggs_count_its_matches(node_env, shape):
    """Aggs under a match_phrase count exactly the docs hits.total counts:
    the terms buckets' doc_counts sum to the total, and each equals a
    brute-force count of the live docs holding the phrase."""
    from collections import Counter

    s = node_env["searchers"][shape]
    toks, _ = node_env["words"]
    contents = node_env["contents"][shape]
    live = np.ones(s.N, dtype=bool)
    if s.deleted is not None:
        live[s.deleted] = False
    m = len(toks)
    want = Counter()
    for d in range(s.doc_lo, s.doc_hi):
        tk = tokenize(contents[d] or "", mode=s.mode)
        if live[d] and any(tk[j:j + m] == toks
                           for j in range(len(tk) - m + 1)):
            want[s.doc_attrs.value("lang", d - s.doc_lo)] += 1
    got = execute_dsl(s, {"size": 0,
                          "query": {"match_phrase": {"content": " ".join(toks)}},
                          "aggs": {"langs": {"terms": {"field": "lang"}}}})
    buckets = {b["key"]: b["doc_count"]
               for b in got["aggregations"]["langs"]["buckets"]}
    assert sum(want.values()) > 0
    assert buckets == dict(want)
    assert got["hits"]["total"]["value"] == sum(buckets.values())


def _lang_counts(s: Searcher, contents: list[str], keep) -> dict:
    """Brute-force ``lang`` counts over the live local docs for which
    ``keep(doc_id, set of its tokens)`` holds."""
    from collections import Counter

    live = np.ones(s.N, dtype=bool)
    if s.deleted is not None:
        live[s.deleted] = False
    want = Counter()
    for d in range(s.doc_lo, s.doc_hi):
        if live[d] and keep(d, set(tokenize(contents[d] or "", mode=s.mode))):
            want[s.doc_attrs.value("lang", d - s.doc_lo)] += 1
    return dict(want)


def _agg_buckets(s: Searcher, query: dict) -> tuple[dict, int]:
    got = execute_dsl(s, {"size": 0, "query": query, "aggs": {
        "langs": {"terms": {"field": "lang", "size": 50}}}})
    return ({b["key"]: b["doc_count"]
             for b in got["aggregations"]["langs"]["buckets"]},
            got["hits"]["total"]["value"])


@pytest.mark.parametrize("shape", ["single", "shard", "seg"])
def test_min_should_match_aggs_count_the_total(node_env, shape):
    """Under a bool with should clauses and msm 2, the aggs count exactly
    the docs holding two of the words, the docs hits.total counts."""
    s = node_env["searchers"][shape]
    words = node_env["words"][1][:3]
    buckets, total = _agg_buckets(s, {"bool": {
        "should": [{"match": {"content": w}} for w in words],
        "minimum_should_match": 2}})
    want = _lang_counts(s, node_env["contents"][shape],
                        lambda _d, toks: len(toks & set(words)) >= 2)
    assert sum(want.values()) > 0
    assert buckets == want
    assert total == sum(buckets.values())


@pytest.mark.parametrize("shape", ["single", "shard", "seg"])
def test_pinned_aggs_count_the_total(node_env, shape):
    """Under ``pinned`` the aggs count the pinned ids beside the organic
    matches, the docs hits.total counts."""
    s = node_env["searchers"][shape]
    word = node_env["words"][1][0]
    contents = node_env["contents"][shape]
    missing = [d for d in range(s.doc_lo, s.doc_hi)
               if word not in tokenize(contents[d] or "", mode=s.mode)]
    # two docs without the word, one doc before the local range (the
    # shard's), and an id past the index
    pins = [missing[0], missing[-1], max(s.doc_lo - 1, 0), s.N + 5]
    buckets, total = _agg_buckets(s, {"pinned": {
        "ids": pins, "organic": {"match": {"content": word}}}})
    want = _lang_counts(s, contents,
                        lambda d, toks: word in toks or d in pins)
    assert sum(want.values()) > 0
    assert buckets == want
    assert total == sum(buckets.values())
