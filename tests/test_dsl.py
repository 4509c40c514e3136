"""ES _search request-body adapter: every DSL body must produce exactly
what the equivalent direct searcher call produces, including bodies
shaped like the reference's own Postman collection
(/root/reference/es.postman_collection.json)."""
import glob

import numpy as np
import pyarrow.parquet as pq
import pytest

from astrologer_ray.pipelines.build import build_index
from astrologer_ray.state.dsl import execute_dsl
from astrologer_ray.state.searcher import Searcher


@pytest.fixture(scope="module")
def dsl_index(ray_session, small_corpus_dir, tmp_path_factory):
    index_dir = str(tmp_path_factory.mktemp("dslidx"))
    build_index(small_corpus_dir, index_dir, partition_rows=64,
                positions=True)
    return index_dir


@pytest.fixture(scope="module")
def shard_index(ray_session, small_corpus_dir, tmp_path_factory):
    """``dsl_index`` with 64-doc chunks, so three doc-range shards hold
    docs (the default 2**20-doc chunk puts the corpus in one)."""
    index_dir = str(tmp_path_factory.mktemp("dslidx6"))
    build_index(small_corpus_dir, index_dir, partition_rows=64,
                positions=True, chunk_bits=6)
    return index_dir


def _ids_scores(hits):
    return [(h["_id"], h["_score"]) for h in hits["hits"]["hits"]]


def _want(hits):
    return [(h["doc_id"], h.get("score")) for h in hits]


def test_match_and_bool_bodies(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[3][0]
    lang = s.agg_terms("lang", k=1)[0][0]

    body = {"query": {"match": {"content": f"{w1} {w2}"}}, "size": 7}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(s.search([w1, w2], k=7))

    body = {
        "query": {"bool": {
            "must": [{"match": {"content": w1}}],
            "filter": [{"term": {"lang": lang}}],
        }},
        "size": 5,
    }
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(
        s.search([w1], k=5, filter={"term": {"lang": lang}}))

    # bool.should scores like the searcher's should machinery
    body = {"query": {"bool": {
        "must": [{"match": {"content": w1}}],
        "should": [{"match": {"content": w2}}],
    }}, "size": 6}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(
        s.search([w1], k=6, should_terms=[w2]))

    # must_not becomes a negated filter
    body = {"query": {"bool": {
        "must": [{"match": {"content": w1}}],
        "must_not": [{"term": {"lang": lang}}],
    }}, "size": 5}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(s.search(
        [w1], k=5,
        filter={"bool": {"must_not": [{"term": {"lang": lang}}]}}))


def test_term_level_bodies_filter_context(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    lang = s.agg_terms("lang", k=1)[0][0]
    # postman "Filter Ledger By Term" shape: {"query": {"term": {...}}}
    body = {"query": {"term": {"lang": lang}}, "size": 4}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(
        s.search_constant_score({"term": {"lang": lang}}, k=4))
    assert all(sc == 1.0 for _i, sc in _ids_scores(got))

    # postman "Transactions With Nonempty Memos" shape: exists query
    body = {"query": {"exists": {"field": "lang"}}, "size": 3}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(
        s.search_constant_score({"exists": "lang"}, k=3))

    # match_all (postman "Highest 10 balances ever") + sort by attr
    body = {"query": {"match_all": {}},
            "sort": [{"dl": {"order": "desc"}}], "size": 10}
    got = execute_dsl(s, body)
    assert [h["_id"] for h in got["hits"]["hits"]] == [
        h["doc_id"] for h in s.sort_by_attr("dl", k=10, descending=True)]


def test_phrase_dismax_constant_score_and_paging(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]

    # phrase via two head terms (may match or not — equality with the
    # direct call is the contract either way)
    body = {"query": {"match_phrase": {"content": f"{w1} {w2}"}}, "size": 5}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(s.phrase_search([w1, w2], k=5))

    body = {"query": {"dis_max": {
        "queries": [{"match": {"content": w1}},
                    {"match": {"content": w2}}],
        "tie_breaker": 0.3}}, "size": 6}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(
        s.search_dis_max([[w1], [w2]], tie_breaker=0.3, k=6))

    body = {"query": {"constant_score": {
        "filter": {"prefix": {"content": w1[:3]}}, "boost": 2.0}}, "size": 4}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(
        s.search_constant_score({"prefix": w1[:3]}, boost=2.0, k=4))

    # from/size paging slices the same ranking
    full = execute_dsl(s, {"query": {"match": {"content": w1}}, "size": 10})
    page2 = execute_dsl(
        s, {"query": {"match": {"content": w1}}, "size": 5, "from": 5})
    assert _ids_scores(page2) == _ids_scores(full)[5:10]


def test_aggs_bodies(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1 = terms_by_df[0][0]

    # postman "Operation By Type" shape: unscoped terms agg
    body = {"aggs": {"by_lang": {"terms": {"field": "lang", "size": 5}}},
            "size": 0}
    got = execute_dsl(s, body)
    assert got["aggregations"]["by_lang"]["buckets"] == [
        {"key": k, "doc_count": c} for k, c in s.agg_terms("lang", k=5)]

    # aggs scope to the query's matches (ES semantics)
    body = {"query": {"match": {"content": w1}},
            "aggs": {"by_lang": {"terms": {"field": "lang", "size": 5}}},
            "size": 0}
    got = execute_dsl(s, body)
    scope = {"bool": {"should": [{"match": w1}]}}
    assert got["aggregations"]["by_lang"]["buckets"] == [
        {"key": k, "doc_count": c}
        for k, c in s.agg_terms("lang", k=5, filter=scope)]

    # postman "Ledger Count By Date" shape: date_histogram + min/max subs
    body = {"aggs": {"dl_hist": {
        "date_histogram": {"field": "dl", "interval": 16},
        "aggs": {"max_dl": {"max": {"field": "dl"}},
                 "min_dl": {"min": {"field": "dl"}}},
    }}, "size": 0}
    got = execute_dsl(s, body)["aggregations"]["dl_hist"]["buckets"]
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    keys = np.floor(dl / 16) * 16
    want = []
    for k in np.unique(keys):
        grp = dl[keys == k]
        want.append({"key": float(k), "doc_count": int(len(grp)),
                     "max_dl": {"value": float(grp.max())},
                     "min_dl": {"value": float(grp.min())}})
    assert got == want

    # filters agg under a scope
    body = {"aggs": {"f": {"filters": {"filters": {
        "short": {"range": {"dl": {"lt": 30}}},
        "w1": {"match": w1},
    }}}}, "size": 0}
    got = execute_dsl(s, body)["aggregations"]["f"]["buckets"]
    want = dict(s.agg_filters({
        "short": {"range": {"dl": {"lt": 30}}}, "w1": {"match": w1}}))
    assert {k: v["doc_count"] for k, v in got.items()} == want


def test_unsupported_clauses_raise(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"span_first": {"match": {}}}})
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"bool": {"should": [
            {"term": {"lang": "go"}}]}}})


def test_total_is_true_match_count(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    got = execute_dsl(s, {"query": {"match": {"content": w1}}, "size": 2})
    assert len(got["hits"]["hits"]) == 2
    assert got["hits"]["total"]["value"] == s.count(
        {"bool": {"should": [{"match": w1}]}})
    assert got["hits"]["total"]["value"] > 2
    got = execute_dsl(s, {"query": {"match_all": {}}, "size": 1})
    assert got["hits"]["total"]["value"] == s.N


def test_rank_feature_body(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    body = {"query": {"bool": {
        "must": [{"match": {"content": w1}}],
        "should": [{"rank_feature": {"field": "dl",
                                     "saturation": {"pivot": 25},
                                     "boost": 2.0}}],
    }}, "size": 8}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(s.search_rank_feature(
        [w1], k=8, feature_attr="dl", pivot=25.0, boost=2.0))


def test_multi_must_match_intersects(dsl_index):
    """ADVICE r4: bool.must with N match clauses requires EVERY clause
    to match (ES semantics), not any-term OR."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[5][0]
    body = {"query": {"bool": {"must": [
        {"match": {"content": w1}}, {"match": {"content": w2}},
    ]}}, "size": 50}
    got = execute_dsl(s, body)
    both = {"bool": {"must": [
        {"bool": {"should": [{"match": w1}]}},
        {"bool": {"should": [{"match": w2}]}},
    ]}}
    n_both = s.count(both)
    n_any = s.count({"bool": {"should": [{"match": w1}, {"match": w2}]}})
    assert n_both < n_any  # the fixture corpus must discriminate
    assert got["hits"]["total"]["value"] == n_both
    # every returned hit really contains both terms; scores are the
    # flattened BM25 sum restricted to the intersection
    want = s.search([w1, w2], k=50, filter=both)
    assert _ids_scores(got) == _want(want)


def test_phrase_total_counts_phrase_matches(dsl_index):
    """ADVICE r4: hits.total for match_phrase counts phrase matches,
    not docs containing any phrase word."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    body = {"query": {"match_phrase": {"content": f"{w1} {w2}"}},
            "size": 5}
    got = execute_dsl(s, body)
    exact = len(s.phrase_search([w1, w2], k=s.n_local))
    assert got["hits"]["total"]["value"] == exact
    any_word = s.count({"bool": {"should": [{"match": w1},
                                            {"match": w2}]}})
    assert exact < any_word  # the old approximation overcounted


def test_nested_bool_filter_single_object(dsl_index):
    """ADVICE r4: a nested bool whose `filter` is a single object (valid
    ES) must not raise TypeError in _clause_filter."""
    s = Searcher(dsl_index, load_docs=True)
    lang = s.agg_terms("lang", k=1)[0][0]
    body = {"query": {"constant_score": {"filter": {"bool": {
        "filter": {"term": {"lang": lang}},  # dict, not list
    }}, "boost": 3.0}}, "size": 5}
    got = execute_dsl(s, body)
    want = s.search_constant_score({"term": {"lang": lang}}, boost=3.0, k=5)
    assert _ids_scores(got) == _want(want)


def test_rank_feature_nan_is_zero_contribution(dsl_index, monkeypatch):
    """ADVICE r4: a NaN feature value (missing sidecar attr) scores as
    zero contribution, like ES, instead of propagating NaN."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    feat = np.full(s.n_local, np.nan)
    feat[::2] = 10.0
    orig = s._attr
    monkeypatch.setattr(
        s, "_attr",
        lambda name: feat if name == "nanfeat" else orig(name))
    hits = s.search_rank_feature([w1], k=20, feature_attr="nanfeat",
                                 pivot=5.0, boost=2.0)
    scores = np.array([h["score"] for h in hits])
    assert np.isfinite(scores).all()
    base = {h["doc_id"]: h["score"] for h in s.search([w1], k=s.n_local,
                                                      strategy="taat")}
    for h in hits:
        local = h["doc_id"] - s.doc_lo
        want = base[h["doc_id"]] + (
            2.0 * 10.0 / 15.0 if local % 2 == 0 else 0.0)
        assert abs(h["score"] - want) < 1e-9


# ---------------------------------------------------------------- postman

def _postman_bodies():
    """name -> parsed JSON body for every request in the reference's
    Postman collection (the reference's entire query surface)."""
    import json

    with open("/root/reference/es.postman_collection.json") as f:
        coll = json.load(f)
    out = {}

    def walk(items):
        for it in items:
            if "item" in it:
                walk(it["item"])
                continue
            raw = (it.get("request", {}).get("body") or {}).get("raw", "")
            out[it["name"]] = json.loads(raw) if raw.strip() else None

    walk(coll.get("item", []))
    return out


@pytest.fixture(scope="module")
def postman_searcher(dsl_index):
    """Searcher with runtime fields named exactly like the reference's
    ES documents (seq/close_time/memo/type/... — the fields its Postman
    bodies address), so the bodies run VERBATIM."""
    s = Searcher(dsl_index, load_docs=True)
    n = s.n_local
    i = np.arange(n)
    seq = 22982200 + i
    s.add_runtime_field("seq", lambda a: seq)
    s.add_runtime_field("close_time", lambda a: 1_600_000_000 + i * 21_600)
    s.add_runtime_field("operation_count", lambda a: (i % 7) + 1)
    memo = np.array(["" if x % 3 == 0 else f"memo-{x % 5}" for x in i],
                    dtype=object)
    s.add_runtime_field("memo", lambda a: memo)
    mval = np.array([f"v{x % 11}" for x in i], dtype=object)
    s.add_runtime_field("memo.value", lambda a: mval)
    types = np.array(["OperationTypePayment", "OperationTypeSetOptions",
                      "OperationTypeManageOffer", "OperationTypeInflation"],
                     dtype=object)
    s.add_runtime_field("type", lambda a: types[i % 4])
    flags = np.array(["1" if x % 5 == 0 else "" for x in i], dtype=object)
    s.add_runtime_field("set_flags", lambda a: flags)
    acct = np.array([str(x % 200) for x in i], dtype=object)
    s.add_runtime_field("account_id", lambda a: acct)
    s.add_runtime_field("created_at", lambda a: 1_600_000_000 + i * 1800)
    s.add_runtime_field("balance", lambda a: (i * 17 % 997) / 10.0)
    return s


def test_postman_bodies_execute_verbatim(postman_searcher):
    """VERDICT r4 #5: every body in the reference's Postman collection
    executes through execute_dsl, each asserted against the equivalent
    direct searcher call."""
    s = postman_searcher
    bodies = _postman_bodies()
    assert len(bodies) == 10
    ran = 0

    def day_hist(attr, scope, subs):
        """Expected date_histogram buckets, independently via numpy."""
        col = np.asarray(s._attr(attr), dtype=np.float64)
        width = 86400.0 if subs.pop("_interval") == "day" else 3600.0
        mask = np.ones(len(col), bool) if scope is None \
            else s.filter_mask(scope)
        keys = np.floor(col[mask] / width) * width
        out = []
        for kv in np.unique(keys):
            grp = mask & (np.floor(col / width) * width == kv)
            b = {"key": float(kv), "doc_count": int(grp.sum())}
            for nm, (fn, sattr) in subs.items():
                vals = np.asarray(s._attr(sattr), dtype=np.float64)[grp]
                b[nm] = {"value": {"min": vals.min(), "max": vals.max(),
                                   "sum": vals.sum(), "avg": vals.mean()
                                   }[fn]}
            out.append(b)
        return out

    # 1. Filter Ledger By Term — term on a numeric attr, filter context
    got = execute_dsl(s, bodies["Filter Ledger By Term"])
    want = s.search_constant_score({"term": {"seq": 22982225}}, k=10)
    assert _ids_scores(got) == _want(want)
    assert got["hits"]["total"]["value"] == s.count(
        {"term": {"seq": 22982225}}) == 1
    ran += 1

    # 2. Ledger Count By Date — unscoped day histogram + min/max subs
    got = execute_dsl(s, bodies["Ledger Count By Date"])
    want = day_hist("close_time", None,
                    {"_interval": "day", "max_ledger": ("max", "seq"),
                     "min_ledger": ("min", "seq")})
    assert got["aggregations"]["ledgers_over_day"]["buckets"] == want
    ran += 1

    # 3. Transaction By Date — sum sub-agg
    got = execute_dsl(s, bodies["Transaction By Date"])
    want = day_hist("close_time", None,
                    {"_interval": "day",
                     "operation_count": ("sum", "operation_count")})
    assert got["aggregations"]["transactions_over_day"]["buckets"] == want
    ran += 1

    # 4. Transactions With Nonempty Memos — exists, filter context
    got = execute_dsl(s, bodies["Transactions With Nonempty Memos"])
    assert _ids_scores(got) == _want(
        s.search_constant_score({"exists": "memo"}, k=10))
    assert got["hits"]["total"]["value"] == s.count({"exists": "memo"})
    ran += 1

    # 5. Most Popular Memo Values — significant_terms scoped to exists
    got = execute_dsl(s, bodies["Most Popular Memo Values"])
    want = s.agg_significant_terms("memo.value", k=10,
                                   filter={"exists": "memo"})
    assert got["aggregations"]["significant_memo_values"]["buckets"] == [
        {"key": v, "doc_count": fg, "bg_count": bg, "score": sc}
        for v, fg, bg, sc in want]
    assert len(want) > 0
    ran += 1

    # 6. Operation By Type — unscoped terms agg
    got = execute_dsl(s, bodies["Operation By Type"])
    assert got["aggregations"]["operations_by_type"]["buckets"] == [
        {"key": k, "doc_count": c} for k, c in s.agg_terms("type", k=10)]
    ran += 1

    # 7. SetOptions having signer — multi-key must object (lenient
    # expansion into term + exists)
    got = execute_dsl(s, bodies["SetOptions having signer"])
    f = {"bool": {"must": [{"term": {"type": "OperationTypeSetOptions"}},
                           {"exists": "set_flags"}]}}
    assert _ids_scores(got) == _want(s.search_constant_score(f, k=10))
    assert got["hits"]["total"]["value"] == s.count(f) > 0
    ran += 1

    # 8. Most Popular Operation Assets (source) — the collection entry
    # has NO body or URL (an empty placeholder request); nothing to run
    assert bodies["Most Popular Operation Assets (source)"] is None
    ran += 1

    # 9. Highest 10 balances ever — match_all
    got = execute_dsl(s, bodies["Highest 10 balances ever"])
    assert got["hits"]["total"]["value"] == s.N
    ran += 1

    # 10. Highest balance, specific account by minute — scoped hour
    # histogram with avg sub-agg
    body = bodies["Highest balance, specific account by minute"]
    got = execute_dsl(s, body)
    scope = {"term": {"account_id": "123"}}  # the body's own literal
    want = day_hist("created_at", scope,
                    {"_interval": "hour", "avg_balance": ("avg", "balance")})
    assert got["aggregations"]["balance_over_hour"]["buckets"] == want
    assert got["hits"]["total"]["value"] == s.count(scope) > 0
    ran += 1
    assert ran == 10


def test_mlt_knn_rrf_bodies(dsl_index):
    """r4 VERDICT #5: more_like_this / knn / rrf retriever execute
    through the request-body adapter against the native engines."""
    s = Searcher(dsl_index, load_docs=True)
    # a like-text assembled from real head terms
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    like = " ".join(t for t, _ in terms_by_df[:6])

    body = {"query": {"more_like_this": {
        "fields": ["content"], "like": like, "max_query_terms": 5,
        "min_doc_freq": 2}}, "size": 8}
    got = execute_dsl(s, body)
    want = s.more_like_this(like, k=8, max_query_terms=5, min_doc_freq=2)
    assert _ids_scores(got) == _want(want) and len(want) > 0
    # no selectable terms -> no hits (ES behavior), not match-all
    got = execute_dsl(s, {"query": {"more_like_this": {
        "like": "zzzzunseen qqqqabsent"}}, "size": 5})
    assert got["hits"]["hits"] == [] and got["hits"]["total"]["value"] == 0

    # vector runtime field -> top-level knn
    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(s.n_local, 8))
    s.add_runtime_field("embedding", lambda a: vecs)
    q = rng.normal(size=8).tolist()
    body = {"knn": {"field": "embedding", "query_vector": q, "k": 7,
                    "num_candidates": 50}}
    got = execute_dsl(s, body)
    want = s.knn("embedding", q, k=7, num_candidates=50)
    assert _ids_scores(got) == _want(want)
    # exactness: brute-force cosine agrees
    sims = vecs @ np.asarray(q)
    sims = sims / (np.linalg.norm(vecs, axis=1) * np.linalg.norm(q))
    order = np.lexsort((np.arange(len(sims)), -sims))[:7]
    assert [h["_id"] - s.doc_lo for h in got["hits"]["hits"]] == \
        order.tolist()

    # rrf retriever: BM25 leg + knn leg, fused like pipelines.hybrid
    from astrologer_ray.pipelines.hybrid import rrf_fuse

    w1 = terms_by_df[0][0]
    body = {"retriever": {"rrf": {
        "retrievers": [
            {"standard": {"query": {"match": {"content": w1}}}},
            {"knn": {"field": "embedding", "query_vector": q}},
        ],
        "rank_window_size": 20, "rank_constant": 60,
    }}, "size": 6}
    got = execute_dsl(s, body)
    legs = [[h["doc_id"] for h in s.search([w1], k=20)],
            [h["doc_id"] for h in s.knn("embedding", q, k=20)]]
    want = rrf_fuse(legs, k=6, c=60)
    assert _ids_scores(got) == want


def test_span_near_body(dsl_index):
    """span_near executes through the adapter against the native
    positional implementation, with an exact hits.total."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    body = {"query": {"span_near": {
        "clauses": [{"span_term": {"content": w1}},
                    {"span_term": {"content": w2}}],
        "slop": 3, "in_order": True}}, "size": 6}
    got = execute_dsl(s, body)
    want = s.span_near([w1, w2], slop=3, k=6)
    assert _ids_scores(got) == _want(want)
    assert got["hits"]["total"]["value"] == \
        len(s.span_near([w1, w2], slop=3, k=s.n_local))
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"span_near": {
            "clauses": [{"span_term": {"content": w1}}],
            "in_order": False}}})


def test_span_first_body(dsl_index):
    """span_first executes through the adapter against the native
    positional implementation, with an exact hits.total."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    body = {"query": {"span_first": {
        "match": {"span_term": {"content": w1}}, "end": 3}}, "size": 6}
    got = execute_dsl(s, body)
    want = s.span_first(w1, 3, k=6)
    assert _ids_scores(got) == _want(want)
    assert got["hits"]["total"]["value"] == \
        len(s.span_first(w1, 3, k=s.n_local))
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"span_first": {
            "match": {"span_near": {"clauses": []}}, "end": 3}}})


def test_span_not_body(dsl_index):
    """span_not executes through the adapter against the native
    positional implementation (pre/post/dist forms), exact hits.total."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    body = {"query": {"span_not": {
        "include": {"span_term": {"content": w1}},
        "exclude": {"span_term": {"content": w2}},
        "pre": 2, "post": 3}}, "size": 6}
    got = execute_dsl(s, body)
    want = s.span_not(w1, w2, pre=2, post=3, k=6)
    assert _ids_scores(got) == _want(want)
    assert got["hits"]["total"]["value"] == \
        len(s.span_not(w1, w2, pre=2, post=3, k=s.n_local))
    # dist sets both pre and post
    got = execute_dsl(s, {"query": {"span_not": {
        "include": {"span_term": {"content": w1}},
        "exclude": {"span_term": {"content": w2}}, "dist": 4}},
        "size": 6})
    assert _ids_scores(got) == _want(s.span_not(w1, w2, pre=4, post=4, k=6))
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"span_not": {
            "include": {"span_near": {"clauses": []}},
            "exclude": {"span_term": {"content": w2}}}}})


def test_combined_fields_body(dsl_index):
    """combined_fields degenerates to match over the single analyzed
    field; operator=and intersects per-term candidates."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[3][0]
    got = execute_dsl(s, {"query": {"combined_fields": {
        "query": f"{w1} {w2}", "fields": ["content"]}}, "size": 7})
    assert _ids_scores(got) == _want(s.search([w1, w2], k=7))
    got = execute_dsl(s, {"query": {"combined_fields": {
        "query": f"{w1} {w2}", "fields": ["content"],
        "operator": "and"}}, "size": 7})
    want = execute_dsl(s, {"query": {"bool": {
        "must": [{"match": {"content": w1}},
                 {"match": {"content": w2}}]}}, "size": 7})
    assert _ids_scores(got) == _ids_scores(want)


def test_span_or_body(dsl_index):
    """span_or of span_terms == the should-only bool (ES default
    minimum_should_match=1): same hits, scores, and total."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[5][0]
    body = {"query": {"span_or": {
        "clauses": [{"span_term": {"content": w1}},
                    {"span_term": {"content": w2}}]}}, "size": 6}
    got = execute_dsl(s, body)
    want = execute_dsl(s, {"query": {"bool": {"should": [
        {"match": {"content": w1}}, {"match": {"content": w2}}]}},
        "size": 6})
    assert _ids_scores(got) == _ids_scores(want)
    assert got["hits"]["total"]["value"] == want["hits"]["total"]["value"]
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"span_or": {
            "clauses": [{"span_near": {"clauses": []}}]}}})


def test_function_score_gauss_body(dsl_index):
    """function_score (one gauss, boost_mode=multiply) dispatches onto
    Searcher.function_score; unsupported shapes raise."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    body = {"query": {"function_score": {
        "query": {"match": {"content": w1}},
        "functions": [{"gauss": {"dl": {
            "origin": 40, "scale": 20, "decay": 0.5}}}],
        "boost_mode": "multiply"}}, "size": 7}
    got = execute_dsl(s, body)
    want = s.function_score([w1], k=7, decay_attr="dl", origin=40.0,
                            scale=20.0, decay=0.5)
    assert _ids_scores(got) == _want(want) and len(want) > 0
    # boost_mode=sum routes to the general path (r5): base + gauss factor
    got = execute_dsl(s, {"query": {"function_score": {
        "query": {"match": {"content": w1}},
        "functions": [{"gauss": {"dl": {
            "origin": 40, "scale": 20, "decay": 0.5}}}],
        "boost_mode": "sum"}}, "size": 7})
    want = s.search_function_score(
        [w1], [{"gauss": {"dl": {"origin": 40, "scale": 20,
                                 "decay": 0.5}}}],
        k=7, boost_mode="sum")
    assert _ids_scores(got) == _want(want) and len(want) > 0


def test_boosting_body(dsl_index):
    """boosting demotes (not excludes) negative matches by
    negative_boost, and equals a hand-computed demote + rerank."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    lang = s.agg_terms("lang", k=1)[0][0]
    body = {"query": {"boosting": {
        "positive": {"match": {"content": w1}},
        "negative": {"term": {"lang": lang}},
        "negative_boost": 0.2}}, "size": 8}
    got = execute_dsl(s, body)
    want = s.search_boosting([w1], k=8, negative={"term": {"lang": lang}},
                             negative_boost=0.2)
    assert _ids_scores(got) == _want(want) and len(want) > 0

    # hand-check: demotion is exactly base*0.2 on negative matches and
    # nothing is excluded (same candidate set as the plain match)
    base = {h["doc_id"]: h["score"]
            for h in s.search([w1], k=s.n_local, strategy="taat")}
    neg = s.filter_mask({"term": {"lang": lang}})
    expect = {i: (sc * 0.2 if neg[i - s.doc_lo] else sc)
              for i, sc in base.items()}
    full = s.search_boosting([w1], k=s.n_local,
                             negative={"term": {"lang": lang}},
                             negative_boost=0.2)
    assert {h["doc_id"]: pytest.approx(h["score"]) for h in full} == expect
    assert any(neg[h["doc_id"] - s.doc_lo] for h in full)

    # the total is the positive match count, demotion does not shrink it
    assert got["hits"]["total"]["value"] == s.count(
        {"bool": {"should": [{"match": w1}]}})
    with pytest.raises(ValueError):
        s.search_boosting([w1], negative={"term": {"lang": lang}},
                          negative_boost=1.5)
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"boosting": {
            "positive": {"term": {"lang": lang}},
            "negative": {"match": {"content": w1}},
            "negative_boost": 0.5}}})


def test_metric_aggs_bodies(dsl_index):
    """avg/sum/min/max/value_count/stats over a numeric attr match
    numpy, both unscoped and under a query scope."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    dl = np.asarray(s._attr("dl"), dtype=np.float64)

    body = {"aggs": {
        "a": {"avg": {"field": "dl"}}, "s": {"sum": {"field": "dl"}},
        "lo": {"min": {"field": "dl"}}, "hi": {"max": {"field": "dl"}},
        "n": {"value_count": {"field": "dl"}},
        "st": {"stats": {"field": "dl"}},
    }, "size": 0}
    got = execute_dsl(s, body)["aggregations"]
    assert got["a"]["value"] == pytest.approx(dl.mean())
    assert got["s"]["value"] == pytest.approx(dl.sum())
    assert got["lo"]["value"] == dl.min()
    assert got["hi"]["value"] == dl.max()
    assert got["n"]["value"] == len(dl)
    assert got["st"] == {
        "count": len(dl), "min": dl.min(), "max": dl.max(),
        "avg": pytest.approx(dl.mean()), "sum": pytest.approx(dl.sum())}

    # scoped: only docs matching the query contribute (ES semantics)
    body = {"query": {"match": {"content": w1}},
            "aggs": {"a": {"avg": {"field": "dl"}}}, "size": 0}
    got = execute_dsl(s, body)["aggregations"]
    mask = s.filter_mask({"bool": {"should": [{"match": w1}]}})
    assert 0 < mask.sum() < s.n_local  # the fixture must discriminate
    assert got["a"]["value"] == pytest.approx(dl[mask].mean())


def test_range_percentiles_cardinality_aggs(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    lang = np.asarray(s._attr("lang"))

    body = {"aggs": {
        "r": {"range": {"field": "dl", "ranges": [
            {"to": 25}, {"from": 25, "to": 50}, {"from": 50}]}},
        "p": {"percentiles": {"field": "dl", "percents": [50, 90]}},
        "c": {"cardinality": {"field": "lang"}},
    }, "size": 0}
    got = execute_dsl(s, body)["aggregations"]
    assert [b["doc_count"] for b in got["r"]["buckets"]] == [
        int((dl < 25).sum()),
        int(((dl >= 25) & (dl < 50)).sum()),
        int((dl >= 50).sum())]
    assert got["r"]["buckets"][1]["key"] == "25-50"
    assert got["p"]["values"]["50.0"] == pytest.approx(
        np.quantile(dl, 0.5))
    assert got["p"]["values"]["90.0"] == pytest.approx(
        np.quantile(dl, 0.9))
    assert got["c"]["value"] == len(np.unique(lang))


def test_terms_agg_metric_subaggs(dsl_index):
    """The ES bread-and-butter shape: terms buckets each carrying metric
    sub-aggs, hand-checked per bucket against numpy."""
    s = Searcher(dsl_index, load_docs=True)
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    lang = np.asarray(s._attr("lang"))
    body = {"aggs": {"by_lang": {
        "terms": {"field": "lang", "size": 3},
        "aggs": {"avg_dl": {"avg": {"field": "dl"}},
                 "n": {"value_count": {"field": "dl"}}},
    }}, "size": 0}
    got = execute_dsl(s, body)["aggregations"]["by_lang"]["buckets"]
    assert len(got) == min(3, len(np.unique(lang))) and len(got) > 1
    for b in got:
        grp = dl[lang == b["key"]]
        assert b["doc_count"] == len(grp)
        assert b["avg_dl"]["value"] == pytest.approx(grp.mean())
        assert b["n"]["value"] == len(grp)


def test_terms_agg_numeric_field_subaggs(dsl_index):
    """Terms buckets over a NUMERIC attr still scope their sub-aggs:
    the recursion scopes with the stringified bucket key, and numpy
    `int_col == "42"` is all-False, so without dtype coercion every
    nested metric silently comes back 0/None (code-review r5)."""
    s = Searcher(dsl_index, load_docs=True)
    dl = np.asarray(s._attr("dl"))
    body = {"aggs": {"by_dl": {
        "terms": {"field": "dl", "size": 3},
        "aggs": {"n": {"value_count": {"field": "dl"}},
                 "m": {"max": {"field": "dl"}}},
    }}, "size": 0}
    got = execute_dsl(s, body)["aggregations"]["by_dl"]["buckets"]
    assert got  # fixture has docs
    for b in got:
        grp = dl[dl == type(dl[0])(b["key"])]
        assert b["doc_count"] == len(grp) > 0
        assert b["n"]["value"] == len(grp)  # was 0 before the fix
        assert b["m"]["value"] == pytest.approx(float(grp.max()))


def test_global_and_missing_aggs(dsl_index):
    """global escapes the query scope (ES semantics); missing counts
    docs without the field value."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    body = {"query": {"match": {"content": w1}},
            "aggs": {
                "all_docs": {"global": {},
                             "aggs": {"a": {"avg": {"field": "dl"}}}},
                "scoped_a": {"avg": {"field": "dl"}},
                "no_dl": {"missing": {"field": "dl"}},
            }, "size": 0}
    got = execute_dsl(s, body)["aggregations"]
    mask = s.filter_mask({"bool": {"should": [{"match": w1}]}})
    assert 0 < mask.sum() < s.n_local
    assert got["all_docs"]["doc_count"] == s.n_local
    assert got["all_docs"]["a"]["value"] == pytest.approx(dl.mean())
    assert got["scoped_a"]["value"] == pytest.approx(dl[mask].mean())
    assert got["no_dl"]["doc_count"] == 0  # every doc has a length


def test_composite_agg_body_pages(dsl_index):
    """composite agg: ascending multi-source buckets, after_key paging —
    pages through the DSL equal the direct agg_composite pages and the
    full enumeration covers every (lang, dl) pair exactly once."""
    s = Searcher(dsl_index, load_docs=True)
    seen = []
    after = None
    while True:
        body = {"aggs": {"c": {"composite": {
            "size": 7,
            "sources": [{"l": {"terms": {"field": "lang"}}},
                        {"d": {"terms": {"field": "dl"}}}],
            **({"after": after} if after else {}),
        }}}, "size": 0}
        got = execute_dsl(s, body)["aggregations"]["c"]
        want = s.agg_composite(
            ["lang", "dl"], size=7,
            after=tuple(after[n] for n in ("l", "d")) if after else None)
        assert [(b["key"]["l"], b["key"]["d"], b["doc_count"])
                for b in got["buckets"]] == [
            (kt[0], kt[1], c) for kt, c in want["buckets"]]
        seen.extend((b["key"]["l"], b["key"]["d"]) for b in got["buckets"])
        if "after_key" not in got:
            break
        after = got["after_key"]
    lang = np.asarray(s._attr("lang"))
    dl = np.asarray(s._attr("dl"))
    assert sorted(seen) == sorted(
        {(str(l), d) for l, d in zip(lang.tolist(), dl.tolist())})
    assert len(seen) > 7  # actually paged


def test_sort_edge_shapes(dsl_index):
    """Multi-field sort works (r5: sort_by_attrs, was a refusal); _score
    sort is the default ranking; _score inside a multi-sort refuses."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    got = execute_dsl(s, {"query": {"match_all": {}},
                          "sort": [{"lang": {"order": "asc"}},
                                   {"dl": {"order": "desc"}}],
                          "size": 8})
    langs = np.asarray(s._attr("lang"))
    dl = np.asarray(s._attr("dl"))
    rows = sorted(range(s.n_local),
                  key=lambda i: (langs[i], -dl[i], i))[:8]
    assert [h["_id"] for h in got["hits"]["hits"]] == \
        [i + s.doc_lo for i in rows]
    assert [h["sort"] for h in got["hits"]["hits"]] == \
        [[str(langs[i]), int(dl[i])] for i in rows]
    # search_after pages the multi-key order without overlap
    last = got["hits"]["hits"][-1]
    got2 = execute_dsl(s, {"query": {"match_all": {}},
                           "sort": [{"lang": {"order": "asc"}},
                                    {"dl": {"order": "desc"}}],
                           "search_after": last["sort"] + [last["_id"]],
                           "size": 5})
    rows2 = sorted(range(s.n_local),
                   key=lambda i: (langs[i], -dl[i], i))[8:13]
    assert [h["_id"] for h in got2["hits"]["hits"]] == \
        [i + s.doc_lo for i in rows2]
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"match": {"content": w1}},
                        "sort": [{"dl": {}}, "_score"]})
    got = execute_dsl(s, {"query": {"match": {"content": w1}},
                          "sort": ["_score"], "size": 5})
    assert _ids_scores(got) == _want(s.search([w1], k=5))


def test_nested_bucket_subaggs(dsl_index):
    """Bucket aggs nest recursively (ES semantics): terms-inside-terms,
    terms under date_histogram, metric under range buckets, filters with
    sub-aggs — every bucket hand-checked against numpy masks."""
    s = Searcher(dsl_index, load_docs=True)
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    lang = np.asarray(s._attr("lang"))
    repo = np.asarray(s._attr("repo"))

    # terms -> terms (+ a metric beside the nested bucket agg)
    body = {"aggs": {"by_lang": {
        "terms": {"field": "lang", "size": 2},
        "aggs": {"by_repo": {"terms": {"field": "repo", "size": 3},
                             "aggs": {"m": {"max": {"field": "dl"}}}},
                 "a": {"avg": {"field": "dl"}}},
    }}, "size": 0}
    got = execute_dsl(s, body)["aggregations"]["by_lang"]["buckets"]
    assert len(got) == 2
    for b in got:
        lmask = lang == b["key"]
        assert b["doc_count"] == int(lmask.sum())
        assert b["a"]["value"] == pytest.approx(dl[lmask].mean())
        inner = b["by_repo"]["buckets"]
        assert len(inner) >= 1
        for ib in inner:
            rmask = lmask & (repo == ib["key"])
            assert ib["doc_count"] == int(rmask.sum())
            assert ib["m"]["value"] == dl[rmask].max()

    # histogram -> terms (bucket agg under the histogram family)
    body = {"aggs": {"h": {
        "histogram": {"field": "dl", "interval": 20},
        "aggs": {"langs": {"terms": {"field": "lang", "size": 10}}},
    }}, "size": 0}
    got = execute_dsl(s, body)["aggregations"]["h"]["buckets"]
    assert len(got) >= 2
    for b in got:
        hmask = (dl >= b["key"]) & (dl < b["key"] + 20)
        assert b["doc_count"] == int(hmask.sum())
        want = sorted(
            ((int((hmask & (lang == v)).sum()), v)
             for v in np.unique(lang[hmask])), key=lambda t: (-t[0], t[1]))
        assert [(ib["doc_count"], ib["key"]) for ib in
                b["langs"]["buckets"]] == [(c, v) for c, v in want]

    # range -> avg, incl. open-ended buckets
    body = {"aggs": {"r": {
        "range": {"field": "dl", "ranges": [{"to": 30}, {"from": 30}]},
        "aggs": {"a": {"avg": {"field": "dl"}}},
    }}, "size": 0}
    got = execute_dsl(s, body)["aggregations"]["r"]["buckets"]
    assert got[0]["a"]["value"] == pytest.approx(dl[dl < 30].mean())
    assert got[1]["a"]["value"] == pytest.approx(dl[dl >= 30].mean())

    # filters -> metric, under a query scope
    w1 = max(s.df, key=lambda t: s.df[t])
    l0 = str(lang[0])
    body = {"query": {"match": {"content": w1}},
            "aggs": {"f": {
                "filters": {"filters": {"sel": {"term": {"lang": l0}}}},
                "aggs": {"a": {"avg": {"field": "dl"}}}}},
            "size": 0}
    got = execute_dsl(s, body)["aggregations"]["f"]["buckets"]["sel"]
    qmask = s.filter_mask({"bool": {"should": [{"match": w1}]}})
    m = qmask & (lang == l0)
    assert got["doc_count"] == int(m.sum())
    assert got["a"]["value"] == pytest.approx(dl[m].mean())

    # sub-aggs under a kind that cannot nest refuse loudly
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"aggs": {"x": {
            "significant_terms": {"field": "lang"},
            "aggs": {"a": {"avg": {"field": "dl"}}}}}, "size": 0})


def test_explain_true_body(dsl_index):
    """explain: true attaches a per-hit BM25 breakdown whose detail
    weights sum to the hit score bit-for-bit (same expression tree as
    the scorer), matching Searcher.explain rows."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[2][0]
    body = {"query": {"match": {"content": f"{w1} {w2}"}},
            "size": 5, "explain": True}
    got = execute_dsl(s, body)
    rows = s.explain([w1, w2], k=5)
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert got["hits"]["hits"], "fixture must match"
    for h in got["hits"]["hits"]:
        det = h["_explanation"]["details"]
        assert h["_explanation"]["value"] == h["_score"]
        assert [d["value"] for d in det] == [
            r["weight"] for r in by_doc[h["_id"]]]
        # sorted-term summation order == the scorer's accumulation
        assert sum(d["value"] for d in det) == pytest.approx(
            h["_score"], abs=1e-9)

    # unsupported path refuses rather than fabricating an explanation
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"match_phrase": {"content": f"{w1} {w2}"}},
                        "explain": True})


def test_highlight_body(dsl_index):
    """highlight returns per-hit term-occurrence evidence (offsets
    flavor) for every requested field, matching Searcher.highlight."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    body = {"query": {"match": {"content": f"{w1} {w2}"}}, "size": 4,
            "highlight": {"fields": {"content": {}}}}
    got = execute_dsl(s, body)
    occ = {}
    for r in s.highlight([w1, w2], k=4):
        occ.setdefault(r["doc_id"], []).append(
            {"term": r["term"], "n_occ": r["n_occ"],
             "first_pos": r["first_pos"]})
    assert got["hits"]["hits"]
    any_occ = False
    for h in got["hits"]["hits"]:
        assert h["highlight"]["content"] == occ.get(h["_id"], [])
        any_occ = any_occ or bool(h["highlight"]["content"])
    assert any_occ  # top hits contain the query terms


def test_knn_plus_query_sums_leg_scores(dsl_index):
    """ES 8 combined retrieval: a body holding BOTH knn and query fuses
    the two legs — a doc retrieved by both sums its scores; the union
    re-ranks. Verified against hand-fused direct calls."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    rng = np.random.default_rng(23)
    vecs = rng.normal(size=(s.n_local, 8))
    s.add_runtime_field("embedding", lambda a: vecs)
    q = rng.normal(size=8).tolist()
    body = {"query": {"match": {"content": w1}},
            "knn": {"field": "embedding", "query_vector": q, "k": 5},
            "size": 6}
    got = execute_dsl(s, body)
    fused = {}
    for h in s.search([w1], k=6):
        fused[h["doc_id"]] = fused.get(h["doc_id"], 0.0) + h["score"]
    for h in s.knn("embedding", q, k=5):
        fused[h["doc_id"]] = fused.get(h["doc_id"], 0.0) + h["score"]
    want = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[:6]
    assert _ids_scores(got) == want
    assert got["hits"]["total"]["value"] == len(fused)


def test_multi_match_and_ids_bodies(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[2][0]

    # best_fields / most_fields / cross_fields all reduce to match over
    # the single analyzed text field
    for mtype in ("best_fields", "most_fields", "cross_fields"):
        got = execute_dsl(s, {"query": {"multi_match": {
            "query": f"{w1} {w2}", "fields": ["content", "path"],
            "type": mtype}}, "size": 6})
        assert _ids_scores(got) == _want(s.search([w1, w2], k=6))
    # type=phrase reduces to match_phrase
    got = execute_dsl(s, {"query": {"multi_match": {
        "query": f"{w1} {w2}", "fields": ["content"],
        "type": "phrase"}}, "size": 5})
    assert _ids_scores(got) == _want(s.phrase_search([w1, w2], k=5))
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"multi_match": {
            "query": w1, "type": "bool_prefix"}}})

    # ids query: filter context over explicit doc ids
    want_ids = [h["doc_id"] for h in s.search([w1], k=3)]
    got = execute_dsl(s, {"query": {"ids": {"values": want_ids}},
                          "size": 10})
    assert sorted(h["_id"] for h in got["hits"]["hits"]) == sorted(want_ids)
    assert got["hits"]["total"]["value"] == len(want_ids)
    # out-of-range ids are ignored, matching ES's missing-id behavior
    got = execute_dsl(s, {"query": {"ids": {"values": [10**9]}}, "size": 5})
    assert got["hits"]["total"]["value"] == 0

    # ids inside bool.filter composes with scoring clauses
    got = execute_dsl(s, {"query": {"bool": {
        "must": [{"match": {"content": w1}}],
        "filter": [{"ids": {"values": want_ids}}],
    }}, "size": 10})
    assert _ids_scores(got) == _want(
        s.search([w1], k=10, filter={"ids": want_ids}))


def test_terms_set_body(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    ws = [t for t, _ in terms_by_df[:3]]
    body = {"query": {"terms_set": {"content": {
        "terms": ws, "minimum_should_match": 2}}}, "size": 8}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(
        s.search([], k=8, should_terms=ws, min_should_match=2))
    # hits.total counts docs matching >= msm terms, not >= 1
    exact = len(s.search([], k=s.n_local, should_terms=ws,
                         min_should_match=2))
    assert got["hits"]["total"]["value"] == exact
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"terms_set": {"content": {
            "terms": ws, "minimum_should_match_field": "required"}}}})


def test_match_phrase_prefix_body(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    # parity with the direct call is the contract whether or not the
    # phrase-prefix matches anything in the corpus
    body = {"query": {"match_phrase_prefix": {
        "content": {"query": f"{w1} {w2[:2]}", "max_expansions": 10}}},
        "size": 6}
    got = execute_dsl(s, body)
    want = s.match_phrase_prefix([w1, w2[:2]], k=6, max_expansions=10)
    assert _ids_scores(got) == _want(want)
    assert got["hits"]["total"]["value"] == len(
        s.match_phrase_prefix([w1, w2[:2]], k=s.n_local, max_expansions=10))


def test_pinned_body(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    organic = s.search([w1], k=10)
    pin0 = organic[-1]["doc_id"]
    pin = [pin0, 0 if pin0 != 0 else 1]
    body = {"query": {"pinned": {
        "ids": pin, "organic": {"match": {"content": w1}}}}, "size": 7}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(s.search_pinned([w1], pin, k=7))
    # the pinned ids lead, in the given order
    assert [h["_id"] for h in got["hits"]["hits"]][:2] == pin


def test_collapse_body(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    body = {"query": {"match": {"content": w1}},
            "collapse": {"field": "lang"}, "size": 5}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(s.search_collapse([w1], "lang", k=5))
    # one hit per distinct collapse value
    langs = [s._attr("lang")[h["_id"] - s.doc_lo]
             for h in got["hits"]["hits"]]
    assert len(langs) == len(set(langs))
    # total still counts DOCS (ES collapse semantics)
    assert got["hits"]["total"]["value"] == s.count(
        {"bool": {"should": [{"match": w1}]}})
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"match": {"content": w1}},
                        "collapse": {"field": "lang"}, "explain": True})


def test_rescore_body(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    body = {"query": {"match": {"content": f"{w1} {w2}"}},
            "rescore": {"window_size": 12, "query": {
                "rescore_query": {"match_phrase": {
                    "content": f"{w1} {w2}"}},
                "rescore_query_weight": 3.0}},
            "size": 6}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(
        s.rescore([w1, w2], [w1, w2], k=6, window=12, weight=3.0))
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"match": {"content": w1}},
                        "rescore": {"query": {
                            "rescore_query": {"match": {"content": w2}}}}})
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"knn": {"field": "emb", "query_vector": [0.1],
                                "k": 3},
                        "rescore": {"query": {"rescore_query": {
                            "match_phrase": {"content": w1}}}}})


# ------------------------------------------------------- pipeline aggs

@pytest.fixture()
def pipe_searcher(dsl_index):
    """Searcher with deterministic numeric runtime fields for the
    pipeline-agg bodies (epoch-seconds ts + a value column)."""
    s = Searcher(dsl_index, load_docs=True)
    n = s.n_local
    i = np.arange(n)
    ts = 1_600_000_000 + (i % 6) * 86_400          # 6 distinct days
    val = (i * 7 % 23).astype(np.float64)
    s.add_runtime_field("ts", lambda a, v=ts: v)
    s.add_runtime_field("val", lambda a, v=val: v)
    return s, ts.astype(np.float64), val


def _day_keys_sums(ts, val):
    keys = np.unique(np.floor(ts / 86_400.0) * 86_400.0)
    sums = np.array([val[np.floor(ts / 86_400.0) * 86_400.0 == k].sum()
                     for k in keys])
    cnts = np.array([(np.floor(ts / 86_400.0) * 86_400.0 == k).sum()
                     for k in keys])
    return keys, sums, cnts


def test_cumulative_sum_derivative_serial_diff(pipe_searcher):
    s, ts, val = pipe_searcher
    body = {"size": 0, "query": {"match_all": {}}, "aggs": {"days": {
        "date_histogram": {"field": "ts", "calendar_interval": "day"},
        "aggs": {
            "v": {"sum": {"field": "val"}},
            "cum": {"cumulative_sum": {"buckets_path": "v"}},
            "cum_n": {"cumulative_sum": {"buckets_path": "_count"}},
            "slope": {"derivative": {"buckets_path": "v"}},
            "diff2": {"serial_diff": {"buckets_path": "v", "lag": 2}},
        }}}}
    got = execute_dsl(s, body)["aggregations"]["days"]["buckets"]
    keys, sums, cnts = _day_keys_sums(ts, val)
    assert [b["key"] for b in got] == list(keys)
    assert [b["v"]["value"] for b in got] == list(sums)
    assert [b["cum"]["value"] for b in got] == list(np.cumsum(sums))
    assert [b["cum_n"]["value"] for b in got] == list(
        np.cumsum(cnts).astype(float))
    # ES: the first bucket carries no derivative
    assert "slope" not in got[0]
    assert [b["slope"]["value"] for b in got[1:]] == list(np.diff(sums))
    assert "diff2" not in got[0] and "diff2" not in got[1]
    assert [b["diff2"]["value"] for b in got[2:]] == list(
        sums[2:] - sums[:-2])


def test_bucket_script_selector_sort(pipe_searcher):
    s, ts, val = pipe_searcher
    keys, sums, cnts = _day_keys_sums(ts, val)
    avg = sums / cnts
    # bucket_script: per-bucket mean via params arithmetic
    got = execute_dsl(s, {"size": 0, "aggs": {"days": {
        "date_histogram": {"field": "ts", "calendar_interval": "day"},
        "aggs": {
            "v": {"sum": {"field": "val"}},
            "mean": {"bucket_script": {
                "buckets_path": {"t": "v", "c": "_count"},
                "script": "params.t / params.c"}},
        }}}})["aggregations"]["days"]["buckets"]
    assert [b["mean"]["value"] for b in got] == list(avg)
    # bucket_selector: HAVING sum >= median; bucket_sort: by v desc, top 2
    thresh = float(np.median(sums))
    got = execute_dsl(s, {"size": 0, "aggs": {"days": {
        "date_histogram": {"field": "ts", "calendar_interval": "day"},
        "aggs": {
            "v": {"sum": {"field": "val"}},
            "keep": {"bucket_selector": {
                "buckets_path": {"t": "v"},
                "script": f"params.t >= {thresh}"}},
            "order": {"bucket_sort": {
                "sort": [{"v": {"order": "desc"}}], "size": 2}},
        }}}})["aggregations"]["days"]["buckets"]
    kept = sorted([v for v in sums if v >= thresh], reverse=True)[:2]
    assert [b["v"]["value"] for b in got] == kept
    # && / || painless connectives translate
    got = execute_dsl(s, {"size": 0, "aggs": {"days": {
        "date_histogram": {"field": "ts", "calendar_interval": "day"},
        "aggs": {
            "v": {"sum": {"field": "val"}},
            "keep": {"bucket_selector": {
                "buckets_path": {"t": "v", "c": "_count"},
                "script": f"params.t >= {thresh} && params.c > 0"}},
        }}}})["aggregations"]["days"]["buckets"]
    assert len(got) == int((sums >= thresh).sum())


def test_sibling_bucket_aggs(pipe_searcher):
    s, ts, val = pipe_searcher
    keys, sums, cnts = _day_keys_sums(ts, val)
    got = execute_dsl(s, {"size": 0, "aggs": {
        "days": {
            "date_histogram": {"field": "ts", "calendar_interval": "day"},
            "aggs": {"v": {"sum": {"field": "val"}}}},
        "avg_day": {"avg_bucket": {"buckets_path": "days>v"}},
        "sum_day": {"sum_bucket": {"buckets_path": "days>v"}},
        "min_day": {"min_bucket": {"buckets_path": "days>v"}},
        "max_day": {"max_bucket": {"buckets_path": "days>v"}},
        "n_stats": {"stats_bucket": {"buckets_path": "days>_count"}},
    }})["aggregations"]
    assert got["avg_day"]["value"] == sums.mean()
    assert got["sum_day"]["value"] == sums.sum()
    assert got["min_day"]["value"] == sums.min()
    assert got["max_day"]["value"] == sums.max()
    assert got["min_day"]["keys"] == [float(keys[np.argmin(sums)])]
    assert got["max_day"]["keys"] == [float(keys[np.argmax(sums)])]
    assert got["n_stats"] == {
        "count": len(keys), "min": float(cnts.min()),
        "max": float(cnts.max()), "avg": float(cnts.mean()),
        "sum": float(cnts.sum())}
    # unknown parent path raises instead of silently returning nothing
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"size": 0, "aggs": {
            "x": {"avg_bucket": {"buckets_path": "nope>v"}}}})


def test_moving_fn(pipe_searcher):
    s, ts, val = pipe_searcher
    keys, sums, cnts = _day_keys_sums(ts, val)
    got = execute_dsl(s, {"size": 0, "aggs": {"days": {
        "date_histogram": {"field": "ts", "calendar_interval": "day"},
        "aggs": {
            "v": {"sum": {"field": "val"}},
            "ma": {"moving_fn": {
                "buckets_path": "v", "window": 3,
                "script": "MovingFunctions.unweightedAvg(values)"}},
            "mx": {"moving_fn": {
                "buckets_path": "v", "window": 2, "shift": 1,
                "script": "MovingFunctions.max(values)"}},
            "ew": {"moving_fn": {
                "buckets_path": "v", "window": 3, "shift": 1,
                "script": "MovingFunctions.ewma(values, 0.3)"}},
        }}}})["aggregations"]["days"]["buckets"]
    # shift=0: the window is the last 3 values EXCLUDING current (ES)
    for i, b in enumerate(got):
        w = sums[max(0, i - 3):i]
        if len(w):
            assert b["ma"]["value"] == pytest.approx(w.mean())
        else:
            assert b["ma"]["value"] is None
    # shift=1 includes the current bucket
    for i, b in enumerate(got):
        w = sums[max(0, i - 1):i + 1]
        assert b["mx"]["value"] == w.max()
        ew = None
        for v in sums[max(0, i - 2):i + 1]:
            ew = v if ew is None else 0.3 * v + 0.7 * ew
        assert b["ew"]["value"] == pytest.approx(ew)
    # unsupported script form refuses rather than mis-computing
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"size": 0, "aggs": {"days": {
            "date_histogram": {"field": "ts", "calendar_interval": "day"},
            "aggs": {"v": {"sum": {"field": "val"}},
                     "bad": {"moving_fn": {
                         "buckets_path": "v", "window": 3,
                         "script": "values[0] * 2"}}}}}})


def test_percentiles_and_extended_stats_bucket(pipe_searcher):
    s, ts, val = pipe_searcher
    keys, sums, cnts = _day_keys_sums(ts, val)
    got = execute_dsl(s, {"size": 0, "aggs": {
        "days": {
            "date_histogram": {"field": "ts", "calendar_interval": "day"},
            "aggs": {"v": {"sum": {"field": "val"}}}},
        "pct": {"percentiles_bucket": {"buckets_path": "days>v",
                                       "percents": [25.0, 50.0, 99.0]}},
        "xs": {"extended_stats_bucket": {"buckets_path": "days>v"}},
    }})["aggregations"]
    srt = np.sort(sums)
    for p in (25.0, 50.0, 99.0):
        # ES percentiles_bucket: exact, index round(p/100 * (n-1))
        idx = int(np.floor(p / 100.0 * (len(srt) - 1) + 0.5))
        assert got["pct"]["values"][str(p)] == srt[idx]
    assert got["xs"]["count"] == len(sums)
    assert got["xs"]["avg"] == pytest.approx(sums.mean())
    assert got["xs"]["variance"] == pytest.approx(sums.var())
    assert got["xs"]["std_deviation_bounds"]["upper"] == pytest.approx(
        sums.mean() + 2.0 * sums.std())


def test_extended_stats_weighted_avg_mad(pipe_searcher):
    s, ts, val = pipe_searcher
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    got = execute_dsl(s, {"size": 0, "aggs": {
        "es": {"extended_stats": {"field": "val", "sigma": 3.0}},
        "wa": {"weighted_avg": {"value": {"field": "val"},
                                "weight": {"field": "dl"}}},
        "mad": {"median_absolute_deviation": {"field": "val"}},
    }})["aggregations"]
    es = got["es"]
    assert es["count"] == len(val)
    assert es["avg"] == pytest.approx(val.mean())
    assert es["variance"] == pytest.approx(val.var())
    assert es["variance_sampling"] == pytest.approx(val.var(ddof=1))
    assert es["sum_of_squares"] == pytest.approx((val * val).sum())
    assert es["std_deviation_bounds"]["upper"] == pytest.approx(
        val.mean() + 3.0 * val.std())
    assert got["wa"]["value"] == pytest.approx(
        (val * dl).sum() / dl.sum())
    med = np.median(val)
    assert got["mad"]["value"] == np.median(np.abs(val - med))
    # scoped by a term filter: moments over the matching docs only
    w1 = max(s.df, key=lambda t: s.df[t])
    m = np.zeros(s.n_local, bool)
    for h in s.search([w1], k=s.n_local):
        m[h["doc_id"] - s.doc_lo] = True
    got = execute_dsl(s, {"size": 0,
                          "query": {"match": {"content": w1}},
                          "aggs": {"es": {"extended_stats": {
                              "field": "val"}}}})["aggregations"]["es"]
    assert got["count"] == int(m.sum())
    assert got["avg"] == pytest.approx(val[m].mean())


def test_auto_date_histogram_body(pipe_searcher):
    s, ts, val = pipe_searcher
    # 6 distinct days: target 10 buckets picks the 1-day ladder step
    got = execute_dsl(s, {"size": 0, "aggs": {"auto": {
        "auto_date_histogram": {"field": "ts", "buckets": 10},
        "aggs": {"v": {"sum": {"field": "val"}}},
    }}})["aggregations"]["auto"]
    assert got["interval"] == "86400s"
    keys, sums, cnts = _day_keys_sums(ts, val)
    assert [b["key"] for b in got["buckets"]] == list(keys)
    assert [b["v"]["value"] for b in got["buckets"]] == list(sums)
    # target 3 forces a coarser step (7 days covers 6 days in 1-2 buckets)
    got = execute_dsl(s, {"size": 0, "aggs": {"auto": {
        "auto_date_histogram": {"field": "ts", "buckets": 3},
    }}})["aggregations"]["auto"]
    assert got["interval"] == "604800s"
    assert len(got["buckets"]) <= 3
    assert sum(b["doc_count"] for b in got["buckets"]) == s.n_local


def test_top_hits_sub_agg(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    langs = np.asarray(s._attr("lang"))
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    # explicit sort: per lang bucket, the 2 longest docs
    got = execute_dsl(s, {"size": 0, "aggs": {"by_lang": {
        "terms": {"field": "lang", "size": 3},
        "aggs": {"longest": {"top_hits": {
            "size": 2, "sort": [{"dl": {"order": "desc"}}],
            "_source": ["dl"]}}},
    }}})["aggregations"]["by_lang"]["buckets"]
    assert len(got) == 3
    for b in got:
        want = s.sort_by_attr("dl", k=2, descending=True,
                              filter={"term": {"lang": b["key"]}})
        hits = b["longest"]["hits"]["hits"]
        assert [h["_id"] for h in hits] == [r["doc_id"] for r in want]
        assert [h["sort"] for h in hits] == [[r["value"]] for r in want]
        assert all(h["_source"]["dl"] == dl[h["_id"] - s.doc_lo]
                   for h in hits)
    # no sort: ordered by the surrounding query's BM25 score per bucket
    got = execute_dsl(s, {"size": 0,
                          "query": {"match": {"content": w1}},
                          "aggs": {"by_lang": {
                              "terms": {"field": "lang", "size": 2},
                              "aggs": {"best": {"top_hits": {"size": 2}}},
                          }}})["aggregations"]["by_lang"]["buckets"]
    for b in got:
        want = s.search([w1], k=2, filter={"bool": {
            "must": [{"bool": {"should": [{"match": w1}]}},
                     {"term": {"lang": b["key"]}}]}})
        assert [(h["_id"], h["_score"]) for h in
                b["best"]["hits"]["hits"]] == _want(want)
    # match_all: doc order, score 1.0
    got = execute_dsl(s, {"size": 0, "aggs": {"by_lang": {
        "terms": {"field": "lang", "size": 1},
        "aggs": {"first": {"top_hits": {"size": 3}}}},
    }})["aggregations"]["by_lang"]["buckets"]
    b = got[0]
    want_ids = np.flatnonzero(langs == b["key"])[:3] + s.doc_lo
    assert [h["_id"] for h in b["first"]["hits"]["hits"]] == list(want_ids)


def test_msearch_pool_matches_direct(dsl_index):
    """ES _msearch over the replicated pool: every response equals the
    direct execute_dsl call, in request order, across replicas."""
    from astrologer_ray.state.pool import ReplicatedSearchPool

    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    bodies = [
        {"query": {"match": {"content": w1}}, "size": 5},
        {"query": {"bool": {"must": [{"match": {"content": w2}}],
                            "filter": [{"term": {"lang": "go"}}]}},
         "size": 4},
        {"size": 0, "aggs": {"by_lang": {
            "terms": {"field": "lang", "size": 3},
            "aggs": {"d": {"avg": {"field": "dl"}}}},
            "best": {"max_bucket": {"buckets_path": "by_lang>d"}}}},
        {"query": {"match_phrase": {"content": f"{w1} {w2}"}}, "size": 3},
    ]
    want = [execute_dsl(s, b) for b in bodies]
    pool = ReplicatedSearchPool(dsl_index, n_actors=2, load_docs=True)
    try:
        got = pool.msearch(bodies)
    finally:
        pool.shutdown()
    assert got == want


@pytest.mark.parametrize("topology", ["replicated", "sharded"])
def test_pool_reraises_a_refused_body_and_keeps_serving(shard_index, topology):
    """A body ``execute_dsl`` refuses raises the same exception class
    through the pool, with the remote traceback in its notes, and the next
    request on the same connections succeeds (no reply left unread)."""
    from astrologer_ray.state.pool import ReplicatedSearchPool, ShardedSearchPool

    s = Searcher(shard_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    refused = {"size": 0, "aggs": {"langs": {"terms": {
        "field": "lang", "missing": "none"}}}}
    with pytest.raises(NotImplementedError):
        execute_dsl(s, refused)
    good = {"query": {"match": {"content": w1}}, "size": 5,
            "aggs": {"langs": {"terms": {"field": "lang", "size": 3}}}}
    want = execute_dsl(s, good)
    if topology == "replicated":
        pool = ReplicatedSearchPool(shard_index, n_actors=1, load_docs=True)
    else:
        pool = ShardedSearchPool(shard_index, n_actors=3, load_docs=True)
        assert len(pool.actors) == 3
    try:
        for _ in range(2):
            with pytest.raises(NotImplementedError, match="missing") as ei:
                pool.msearch([good, refused])
            notes = getattr(ei.value, "__notes__", [])
            assert any("remote traceback" in n and "execute_dsl" in n
                       for n in notes), notes
            (got,) = pool.msearch([good])
            assert _ids_scores(got) == _ids_scores(want)
            assert got["hits"]["total"] == want["hits"]["total"]
            assert (got["aggregations"]["langs"]["buckets"]
                    == want["aggregations"]["langs"]["buckets"])
    finally:
        pool.shutdown()


def test_replicated_pool_resends_a_dead_replicas_share(dsl_index):
    """ROADMAP 3(d): a replica killed after ``warm()`` leaves the rotation
    and its share goes to the live one, so every ``msearch`` response still
    equals direct ``execute_dsl``; with no replica left the error names
    the actors."""
    import time

    import ray

    from astrologer_ray.state.pool import ReplicatedSearchPool

    s = Searcher(dsl_index, load_docs=True)
    terms = [t for t, _ in sorted(s.df.items(), key=lambda kv: -kv[1])[:6]]
    bodies = [{"query": {"match": {"content": t}}, "size": 4} for t in terms]
    bodies.append({"size": 0, "aggs": {"langs": {"terms": {"field": "lang"}}}})
    want = [execute_dsl(s, b) for b in bodies]
    pool = ReplicatedSearchPool(dsl_index, n_actors=2, load_docs=True)
    try:
        pool.warm()
        ray.kill(pool.actors[0])
        assert pool.msearch(bodies) == want
        assert pool.msearch(bodies) == want
        ray.kill(pool.actors[1])
        deadline = time.monotonic() + 60
        with pytest.raises(ConnectionError, match="no live replica") as ei:
            while time.monotonic() < deadline:  # ray.kill is asynchronous
                pool.msearch(bodies)
        assert all(repr(a) in str(ei.value) for a in pool.actors)
    finally:
        pool.shutdown()


def test_function_score_general_form(dsl_index):
    """General function_score: field_value_factor, script_score, weight,
    per-function filters, score_mode/boost_mode combos — each verified
    against a numpy recomputation over the full candidate set."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    langs = np.asarray(s._attr("lang"))
    base_hits = s.search([w1], k=s.n_local)
    ids = np.array([h["doc_id"] for h in base_hits])
    base = np.array([h["score"] for h in base_hits])
    li = ids - s.doc_lo

    def ranked(final, k):
        order = np.lexsort((ids, -final))[:k]
        return [(int(ids[i]), pytest.approx(float(final[i])))
                for i in order]

    # field_value_factor log1p * weight, boost_mode sum
    got = execute_dsl(s, {"query": {"function_score": {
        "query": {"match": {"content": w1}},
        "functions": [{"field_value_factor": {
            "field": "dl", "factor": 0.5, "modifier": "log1p"},
            "weight": 2.0}],
        "boost_mode": "sum"}}, "size": 6})
    want = base + 2.0 * 0.5 * np.log10(dl[li] + 1.0)
    assert _ids_scores(got) == ranked(want, 6)

    # script_score with doc refs + params, boost_mode replace
    got = execute_dsl(s, {"query": {"function_score": {
        "query": {"match": {"content": w1}},
        "functions": [{"script_score": {"script": {
            "source": "Math.sqrt(doc['dl'].value) * params.f",
            "params": {"f": 3.0}}}}],
        "boost_mode": "replace"}}, "size": 5})
    want = np.sqrt(dl[li]) * 3.0
    assert _ids_scores(got) == ranked(want, 5)

    # two functions, one filter-gated; score_mode sum, max_boost clamp
    lang0 = langs[li[0]]
    got = execute_dsl(s, {"query": {"function_score": {
        "query": {"match": {"content": w1}},
        "functions": [
            {"filter": {"term": {"lang": str(lang0)}}, "weight": 4.0},
            {"field_value_factor": {"field": "dl", "factor": 0.01}},
        ],
        "score_mode": "sum", "max_boost": 5.0}}, "size": 8})
    fs = 0.01 * dl[li] + np.where(langs[li] == lang0, 4.0, 0.0)
    want = base * np.minimum(fs, 5.0)
    assert _ids_scores(got) == ranked(want, 8)

    # score_mode avg is the ES weighted average; boost_mode max
    got = execute_dsl(s, {"query": {"function_score": {
        "query": {"match": {"content": w1}},
        "functions": [
            {"field_value_factor": {"field": "dl"}, "weight": 3.0},
            {"weight": 1.0},
        ],
        "score_mode": "avg", "boost_mode": "max"}}, "size": 6})
    fs = (3.0 * dl[li] + 1.0) / 4.0
    want = np.maximum(base, fs)
    assert _ids_scores(got) == ranked(want, 6)

    # single-gauss multiply still routes to the fast path (same result
    # as the dedicated method) and general gauss matches it too
    g = {"origin": float(dl[li].mean()), "scale": 10.0, "decay": 0.5}
    fast = execute_dsl(s, {"query": {"function_score": {
        "query": {"match": {"content": w1}},
        "functions": [{"gauss": {"dl": g}}]}}, "size": 5})
    gen = execute_dsl(s, {"query": {"function_score": {
        "query": {"match": {"content": w1}},
        "functions": [{"gauss": {"dl": g}}],
        "score_mode": "sum"}}, "size": 5})
    assert _ids_scores(fast) == _ids_scores(gen)

    # unsupported function kinds refuse loudly
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"function_score": {
            "query": {"match": {"content": w1}},
            "functions": [{"random_score": {}}],
            "boost_mode": "sum"}}})


def test_execute_count_matches_hits_total(dsl_index):
    from astrologer_ray.state.dsl import execute_count

    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    bodies = [
        None,
        {"query": {"match": {"content": w1}}},
        {"query": {"match_phrase": {"content": f"{w1} {w2}"}}},
        {"query": {"bool": {"must": [{"match": {"content": w1}}],
                            "filter": [{"term": {"lang": "go"}}]}}},
        {"query": {"terms_set": {"content": {
            "terms": [w1, w2], "minimum_should_match": 2}}}},
    ]
    for body in bodies:
        got = execute_count(s, body)["count"]
        want = (execute_dsl(s, body)["hits"]["total"]["value"]
                if body else s.count(None))
        assert got == want, body
    assert execute_count(s, None)["count"] == s.count(None)


def test_suggest_term_and_phrase_bodies(dsl_index):
    """suggest: term suggester (per-token entries) and phrase suggester
    (unigram-LM ranked whole-phrase corrections, collate filter)."""
    import math

    s = Searcher(dsl_index, load_docs=True)
    # find an adjacent pair that really occurs (for collate)
    terms_by_df = [t for t, _ in sorted(s.df.items(),
                                        key=lambda kv: -kv[1])[:12]]
    pair = None
    for a in terms_by_df:
        for b in terms_by_df:
            if a != b and s.phrase_search([a, b], k=1):
                pair = (a, b)
                break
        if pair:
            break
    assert pair is not None
    a, b = pair
    # misspell `a` one edit away from the dictionary word
    bad = a[:-1] + ("q" if a[-1] != "q" else "x")
    assert bad not in s.df
    text = f"{bad} {b}"

    # phrase suggester: the corrected phrase is offered and scored by
    # the documented unigram model + one correction penalty
    opts = s.suggest_phrase(text, k=5, max_edits=1, collate=False)
    fixed = [o for o in opts if o["text"] == f"{a} {b}"]
    assert fixed, opts
    vocab = len([t for t in s.df if "\x1e" not in t])
    denom = s.N + vocab

    def logp(t):
        return math.log10((s.df.get(t, 0) + 1) / denom)

    want = logp(a) + logp(b) + math.log10(0.5)
    assert fixed[0]["score"] == pytest.approx(want)
    # identity phrase is never offered
    assert all(o["text"] != text for o in opts)
    # collate keeps only phrases occurring verbatim in the index
    copts = s.suggest_phrase(text, k=5, max_edits=1, collate=True)
    for o in copts:
        assert s.phrase_search(o["text"].split(), k=1), o

    # DSL body: phrase suggester
    got = execute_dsl(s, {"size": 0, "suggest": {
        "fix": {"text": text, "phrase": {
            "field": "content", "size": 5, "max_edits": 1,
            "collate": {"query": {}}}}}})
    entry = got["suggest"]["fix"][0]
    assert entry["text"] == text and entry["offset"] == 0
    assert entry["options"] == copts

    # DSL body: term suggester — one entry per token, options == direct
    got = execute_dsl(s, {"size": 0, "suggest": {
        "t": {"text": text, "term": {
            "field": "content", "size": 3, "max_edits": 1}}}})
    entries = got["suggest"]["t"]
    assert [e["text"] for e in entries] == [bad, b]
    assert entries[0]["offset"] == 0
    assert entries[1]["offset"] == text.index(b)
    want_opts = s.suggest(bad, k=3, max_edits=1)
    assert [o["text"] for o in entries[0]["options"]] == \
        [r["term"] for r in want_opts]
    assert [o["freq"] for o in entries[0]["options"]] == \
        [r["df"] for r in want_opts]
    # shared top-level text + unknown suggester kind refuses
    got = execute_dsl(s, {"size": 0, "suggest": {
        "text": text,
        "t2": {"term": {"field": "content", "size": 2}}}})
    assert [e["text"] for e in got["suggest"]["t2"]] == [bad, b]
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"suggest": {"x": {"text": "a",
                                          "completion": {}}}})


def test_percentile_ranks_metric(pipe_searcher):
    s, ts, val = pipe_searcher
    got = execute_dsl(s, {"size": 0, "aggs": {"pr": {
        "percentile_ranks": {"field": "val", "values": [5, 15]}}}})
    pr = got["aggregations"]["pr"]["values"]
    assert pr["5.0"] == pytest.approx(100.0 * (val <= 5).sum() / len(val))
    assert pr["15.0"] == pytest.approx(100.0 * (val <= 15).sum() / len(val))


def test_runtime_mappings_and_source_projection(dsl_index):
    """runtime_mappings register request-scoped computed attrs (filter /
    agg / sort compose like stored attrs, removed afterwards); a
    list-form top-level _source projects attrs onto every hit."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    body = {
        "runtime_mappings": {"dl2": {"type": "double", "script": {
            "source": "emit(doc['dl'].value * params.m)",
            "params": {"m": 2.0}}}},
        "query": {"match": {"content": w1}},
        "aggs": {"mx": {"max": {"field": "dl2"}}},
        "_source": ["dl", "lang"],
        "size": 4,
    }
    got = execute_dsl(s, body)
    # the runtime field saw every doc in the query scope
    m = np.zeros(s.n_local, bool)
    for h in s.search([w1], k=s.n_local):
        m[h["doc_id"] - s.doc_lo] = True
    assert got["aggregations"]["mx"]["value"] == (dl[m] * 2.0).max()
    # _source carries the projected attrs for each hit
    for h in got["hits"]["hits"]:
        li = h["_id"] - s.doc_lo
        assert h["_source"]["dl"] == dl[li]
        assert h["_source"]["lang"] == s._attr("lang")[li]
    # the request-scoped field is gone afterwards
    assert "dl2" not in s.doc_attrs
    # sorting by a runtime field works and cleans up on error too
    got = execute_dsl(s, {
        "runtime_mappings": {"neg": {"script":
                             "emit(0 - doc['dl'].value)"}},
        "query": {"match_all": {}},
        "sort": [{"neg": {"order": "asc"}}], "size": 3})
    want = s.sort_by_attr("dl", k=3, descending=True)
    assert [h["_id"] for h in got["hits"]["hits"]] == \
        [r["doc_id"] for r in want]
    assert "neg" not in s.doc_attrs
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"runtime_mappings": {"x": {"script":
                        "doc['dl'].value"}},  # no emit()
                        "query": {"match_all": {}}})
    assert "x" not in s.doc_attrs


def test_sharded_pool_warns_when_it_serves_fewer_ranges(dsl_index):
    """More shards than the index has doc-id chunks: the pool serves one
    range per chunk and says so with a ``UserWarning`` naming both
    counts (the 306-doc index is one 2**20-doc chunk)."""
    from astrologer_ray.state.pool import ShardedSearchPool

    s = Searcher(dsl_index, load_docs=True)
    body = {"query": {"match": {"content": max(s.df, key=s.df.get)}},
            "size": 5}
    with pytest.warns(UserWarning,
                      match=r"3 shards requested.* 1 doc-id chunk.* 1 range"):
        pool = ShardedSearchPool(dsl_index, n_actors=3, load_docs=True)
    try:
        assert len(pool.actors) == 1
        assert pool.execute_dsl(body) == execute_dsl(s, body)
    finally:
        pool.shutdown()


def test_sharded_execute_dsl_matches_full(shard_index):
    """Scatter-gather DSL over doc-range shards == the full searcher:
    exact hit merge, by-key/by-op agg merge, ES terms shard semantics."""
    from astrologer_ray.state.pool import ShardedSearchPool

    s = Searcher(shard_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    pool = ShardedSearchPool(shard_index, n_actors=3, load_docs=True)
    assert len(pool.actors) == 3
    try:
        body = {"query": {"match": {"content": w1}}, "size": 6,
                "aggs": {
                    "langs": {"terms": {"field": "lang", "size": 5}},
                    "by_dl": {"histogram": {"field": "dl",
                                            "interval": 50}},
                    "dl_sum": {"sum": {"field": "dl"}},
                    "dl_avg": {"avg": {"field": "dl"}},
                    "dl_stats": {"stats": {"field": "dl"}},
                    "dl_es": {"extended_stats": {"field": "dl"}},
                    "dl_min": {"min": {"field": "dl"}},
                    "dl_cnt": {"value_count": {"field": "dl"}},
                    "top_lang": {"max_bucket": {
                        "buckets_path": "langs>_count"}},
                }}
        got = pool.execute_dsl(body)
        want = execute_dsl(s, body)
        assert _ids_scores(got) == _ids_scores(want)
        assert got["hits"]["total"] == want["hits"]["total"]
        ga, wa = got["aggregations"], want["aggregations"]
        assert ga["langs"]["buckets"] == wa["langs"]["buckets"]
        assert ga["langs"]["doc_count_error_upper_bound"] == 0
        assert ga["by_dl"]["buckets"] == wa["by_dl"]["buckets"]
        # integer dl -> float sums are bit-exact across groupings
        assert ga["dl_sum"] == wa["dl_sum"]
        assert ga["dl_avg"]["value"] == pytest.approx(
            wa["dl_avg"]["value"])
        assert ga["dl_stats"]["count"] == wa["dl_stats"]["count"]
        assert ga["dl_stats"]["sum"] == wa["dl_stats"]["sum"]
        assert ga["dl_stats"]["min"] == wa["dl_stats"]["min"]
        assert ga["dl_es"]["variance"] == pytest.approx(
            wa["dl_es"]["variance"])
        assert ga["dl_min"] == wa["dl_min"]
        assert ga["dl_cnt"] == wa["dl_cnt"]
        assert ga["top_lang"]["value"] == wa["top_lang"]["value"]
        assert ga["top_lang"]["keys"] == wa["top_lang"]["keys"]
        # from/size paging slices the MERGED ranking
        paged = pool.execute_dsl({"query": {"match": {"content": w1}},
                                  "from": 2, "size": 3})
        assert _ids_scores(paged) == _ids_scores(want)[2:5]
        # msearch merges each body in request order
        many = pool.msearch([body, {"query": {"match_all": {}},
                                    "size": 0}])
        assert _ids_scores(many[0]) == _ids_scores(want)
        assert many[1]["hits"]["total"]["value"] == s.count(None)
        # tiny shard_size: ES-style truncation is visible in the bound
        t2 = pool.execute_dsl({"size": 0, "aggs": {"langs": {
            "terms": {"field": "lang", "size": 2}}}}, shard_size=1)
        assert t2["aggregations"]["langs"]["doc_count_error_upper_bound"] > 0
        # field sorts merge exactly (single and multi, with cursor)
        sbody = {"query": {"match_all": {}},
                 "sort": [{"lang": {"order": "asc"}},
                          {"dl": {"order": "desc"}}], "size": 7}
        got_s = pool.execute_dsl(sbody)
        want_s = execute_dsl(s, sbody)
        assert [h["_id"] for h in got_s["hits"]["hits"]] == \
            [h["_id"] for h in want_s["hits"]["hits"]]
        last = got_s["hits"]["hits"][-1]
        after = {**sbody, "search_after": last["sort"] + [last["_id"]]}
        assert [h["_id"] for h in pool.execute_dsl(after)["hits"]["hits"]] \
            == [h["_id"] for h in execute_dsl(s, after)["hits"]["hits"]]
        one = {"query": {"match_all": {}},
               "sort": [{"dl": {"order": "desc"}}], "size": 5}
        assert [h["_id"] for h in pool.execute_dsl(one)["hits"]["hits"]] \
            == [h["_id"] for h in execute_dsl(s, one)["hits"]["hits"]]
        # unsupported shapes refuse client-side
        for bad in (
            {"query": {"match": {"content": w1}},
             "sort": ["_score", {"dl": {}}]},
            {"aggs": {"x": {"cardinality": {"field": "dl"}}}},
            {"aggs": {"x": {"terms": {"field": "lang"},
                            "aggs": {"m": {"avg": {"field": "dl"}}}}}},
        ):
            with pytest.raises(NotImplementedError):
                pool.execute_dsl(bad)
    finally:
        pool.shutdown()


def test_match_clause_boost(dsl_index):
    """Explicit per-clause boost multiplies that clause's BM25
    contribution (Searcher.search boosts), in must and should."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    got = execute_dsl(s, {"query": {"match": {"content": {
        "query": w1, "boost": 2.5}}}, "size": 6})
    want = s.search([w1], k=6, boosts={w1: 2.5})
    assert _ids_scores(got) == _want(want)
    got = execute_dsl(s, {"query": {"bool": {
        "must": [{"match": {"content": {"query": w1, "boost": 3.0}}}],
        "should": [{"match": {"content": {"query": w2,
                                          "boost": 0.5}}}]}},
        "size": 6})
    want = s.search([w1], k=6, should_terms=[w2],
                    boosts={w1: 3.0, w2: 0.5})
    assert _ids_scores(got) == _want(want)
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"bool": {"must": [
            {"match": {"content": {"query": w1, "boost": 2.0}}},
            {"match": {"content": {"query": w1, "boost": 3.0}}}]}}})


def test_sampler_and_missing_subaggs(dsl_index):
    """sampler runs sub-aggs over the top shard_size docs by the query's
    score; missing runs sub-aggs over exactly its counted docs."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    got = execute_dsl(s, {"size": 0,
                          "query": {"match": {"content": w1}},
                          "aggs": {"sample": {
                              "sampler": {"shard_size": 7},
                              "aggs": {"d": {"avg": {"field": "dl"}}}}}})
    top = [h["doc_id"] for h in s.search([w1], k=7)]
    samp = got["aggregations"]["sample"]
    assert samp["doc_count"] == len(top)
    li = np.array(top) - s.doc_lo
    assert samp["d"]["value"] == pytest.approx(dl[li].mean())
    # match_all: doc order
    got = execute_dsl(s, {"size": 0, "aggs": {"sample": {
        "sampler": {"shard_size": 4},
        "aggs": {"mx": {"max": {"field": "dl"}}}}}})
    samp = got["aggregations"]["sample"]
    assert samp["doc_count"] == 4
    assert samp["mx"]["value"] == dl[:4].max()
    # missing with subs: runtime field absent for a slice of docs
    n = s.n_local
    col = np.arange(n, dtype=np.float64)
    col[: n // 3] = np.nan
    s.add_runtime_field("maybe", lambda a, v=col: v)
    try:
        got = execute_dsl(s, {"size": 0, "aggs": {"no_val": {
            "missing": {"field": "maybe"},
            "aggs": {"d": {"avg": {"field": "dl"}}}}}})
        miss = got["aggregations"]["no_val"]
        assert miss["doc_count"] == n // 3
        assert miss["d"]["value"] == pytest.approx(dl[: n // 3].mean())
    finally:
        s.doc_attrs.pop("maybe", None)


def test_sharded_merge_randomized_equivalence(shard_index):
    """Seeded sweep over the shard-mergeable body space: every generated
    body must produce the same response from the 3-shard scatter-gather
    as from the full searcher (terms buckets compared as sets when the
    shard_size could truncate)."""
    import random

    from astrologer_ray.state.pool import ShardedSearchPool

    s = Searcher(shard_index, load_docs=True)
    terms_by_df = [t for t, _ in sorted(s.df.items(),
                                        key=lambda kv: -kv[1])[:10]
                   if "\x1e" not in t]
    rng = random.Random(31)
    pool = ShardedSearchPool(shard_index, n_actors=3, load_docs=True)
    assert len(pool.actors) == 3
    metric_kinds = ["sum", "min", "max", "value_count", "avg", "stats"]
    try:
        for trial in range(18):
            q = rng.choice([
                {"match_all": {}},
                {"match": {"content": rng.choice(terms_by_df)}},
                {"match": {"content": " ".join(
                    rng.sample(terms_by_df, 2))}},
                {"bool": {"must": [
                    {"match": {"content": rng.choice(terms_by_df)}}],
                    "filter": [{"range": {"dl": {
                        "gte": rng.randrange(0, 60)}}}]}},
            ])
            aggs = {}
            for i in range(rng.randrange(0, 3)):
                kind = rng.choice(metric_kinds)
                aggs[f"m{i}"] = {kind: {"field": "dl"}}
            if rng.random() < 0.5:
                aggs["h"] = {"histogram": {
                    "field": "dl", "interval": rng.choice([32, 64])}}
            body = {"query": q, "size": rng.randrange(0, 12)}
            if aggs:
                body["aggs"] = aggs
            got = pool.execute_dsl(body)
            want = execute_dsl(s, body)
            assert _ids_scores(got) == _ids_scores(want), (trial, body)
            assert got["hits"]["total"] == want["hits"]["total"], body
            for name in aggs:
                g, w = (got["aggregations"][name],
                        want["aggregations"][name])
                if "buckets" in w:
                    assert g["buckets"] == w["buckets"], (trial, name)
                elif "avg" in w:  # stats: float groupings may differ
                    assert g["count"] == w["count"]
                    assert g["sum"] == pytest.approx(w["sum"])
                    assert g["avg"] == pytest.approx(w["avg"])
                elif isinstance(w.get("value"), float):
                    assert g["value"] == pytest.approx(w["value"]), name
                else:
                    assert g == w, (trial, name, g, w)
    finally:
        pool.shutdown()


def test_terms_agg_custom_order(dsl_index):
    """terms agg order: by _key, by _count asc, and by a sub-agg metric
    — truncation happens AFTER the custom order (ES semantics)."""
    s = Searcher(dsl_index, load_docs=True)
    langs = np.asarray(s._attr("lang"))
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    uvals = sorted({str(v) for v in langs})

    got = execute_dsl(s, {"size": 0, "aggs": {"l": {"terms": {
        "field": "lang", "size": 2, "order": {"_key": "asc"}}}}})
    assert [b["key"] for b in got["aggregations"]["l"]["buckets"]] == \
        uvals[:2]

    got = execute_dsl(s, {"size": 0, "aggs": {"l": {"terms": {
        "field": "lang", "size": 3, "order": {"_count": "asc"}}}}})
    counts = {v: int((langs == v).sum()) for v in uvals}
    want = sorted(uvals, key=lambda v: (counts[v], v))[:3]
    assert [b["key"] for b in got["aggregations"]["l"]["buckets"]] == want

    got = execute_dsl(s, {"size": 0, "aggs": {"l": {"terms": {
        "field": "lang", "size": 2, "order": {"d": "desc"}},
        "aggs": {"d": {"avg": {"field": "dl"}}}}}})
    avg = {v: dl[langs == v].mean() for v in uvals}
    want = sorted(uvals, key=lambda v: (-avg[v], v))[:2]
    assert [b["key"] for b in got["aggregations"]["l"]["buckets"]] == want
    for b in got["aggregations"]["l"]["buckets"]:
        assert b["d"]["value"] == pytest.approx(avg[b["key"]])


def test_simple_query_string(dsl_index):
    """simple_query_string subset: OR terms, default_operator=and,
    +required, -excluded, one quoted phrase; operators beyond the
    subset refuse."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    a, b, c = (terms_by_df[0][0], terms_by_df[1][0], terms_by_df[2][0])

    got = execute_dsl(s, {"query": {"simple_query_string": {
        "query": f"{a} {b}"}}, "size": 6})
    assert _ids_scores(got) == _want(s.search([a, b], k=6))

    got = execute_dsl(s, {"query": {"simple_query_string": {
        "query": f"{a} {b}", "default_operator": "and"}}, "size": 6})
    want = execute_dsl(s, {"query": {"bool": {"must": [
        {"match": {"content": a}}, {"match": {"content": b}}]}},
        "size": 6})
    assert _ids_scores(got) == _ids_scores(want)
    assert got["hits"]["total"] == want["hits"]["total"]

    got = execute_dsl(s, {"query": {"simple_query_string": {
        "query": f"+{a} {b}"}}, "size": 6})
    assert _ids_scores(got) == _want(s.search(
        [a, b], k=6, filter={"bool": {"should": [{"match": a}]}}))

    got = execute_dsl(s, {"query": {"simple_query_string": {
        "query": f"{a} -{c}"}}, "size": 6})
    assert _ids_scores(got) == _want(s.search(
        [a], k=6, filter={"bool": {"must_not": [{"match": c}]}}))

    got = execute_dsl(s, {"query": {"simple_query_string": {
        "query": f'"{a} {b}"'}}, "size": 5})
    assert _ids_scores(got) == _want(s.phrase_search([a, b], k=5))

    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"simple_query_string": {
            "query": f"{a} | {b}"}}})
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"simple_query_string": {
            "query": f'"{a} {b}" {c}'}}})


def test_dsl_stage_batch_job(dsl_index):
    """DSLStage: a Dataset of stored _search bodies evaluated against
    the index via map_batches (offline query-log job) — every response
    equals the direct execute_dsl call."""
    import json

    import ray.data as rd

    from astrologer_ray.state.searcher import DSLStage

    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    bodies = [
        {"query": {"match": {"content": w1}}, "size": 4},
        {"query": {"simple_query_string": {"query": f"+{w1} {w2}"}},
         "size": 3},
        {"size": 0, "aggs": {"langs": {
            "terms": {"field": "lang", "size": 3}}}},
        {"query": {"match_phrase": {"content": f"{w1} {w2}"}},
         "size": 2},
    ]
    ds = rd.from_items([{"qid": i, "body": json.dumps(b)}
                        for i, b in enumerate(bodies)])
    out = ds.map_batches(
        DSLStage, fn_constructor_kwargs={"index_dir": dsl_index},
        batch_format="pyarrow", concurrency=2,
    ).to_pandas().sort_values("qid")
    assert list(out.qid) == list(range(len(bodies)))
    for i, b in enumerate(bodies):
        got = json.loads(out[out.qid == i].iloc[0]["response"])
        assert got == execute_dsl(s, b), i


def test_bucket_sort_by_key(pipe_searcher):
    """bucket_sort on the ES ``_key`` path sorts by the bucket key itself
    (code-review r5: every key resolved to 'missing', so the sort was a
    silent no-op and from/size kept the WRONG buckets)."""
    s, ts, val = pipe_searcher
    keys, _sums, _cnts = _day_keys_sums(ts, val)
    got = execute_dsl(s, {"size": 0, "aggs": {"days": {
        "date_histogram": {"field": "ts", "calendar_interval": "day"},
        "aggs": {"order": {"bucket_sort": {
            "sort": [{"_key": {"order": "desc"}}], "size": 2}}},
    }}})["aggregations"]["days"]["buckets"]
    want = sorted(keys.tolist(), reverse=True)[:2]
    assert [float(b["key"]) for b in got] == want


def test_pinned_total_counts_nonmatching_pinned(dsl_index):
    """ES counts pinned ids as matches even when they hold no query term
    (code-review r5: total came from the organic any-term count, so the
    page could be LONGER than hits.total)."""
    s = Searcher(dsl_index, load_docs=True)
    w = min(s.df, key=lambda t: (s.df[t], t))  # rarest term
    m = s.filter_mask({"match": w})
    assert (~m).any()
    nm_doc = int(np.flatnonzero(~m)[0]) + s.doc_lo
    n_match = s.count({"match": w})
    resp = execute_dsl(s, {"query": {"pinned": {
        "ids": [nm_doc], "organic": {"match": {"content": w}}}},
        "size": 50})
    assert resp["hits"]["hits"][0]["_id"] == nm_doc  # pinned first
    assert resp["hits"]["total"]["value"] == n_match + 1
    assert len(resp["hits"]["hits"]) <= resp["hits"]["total"]["value"]


def test_top_hits_multi_key_sort(dsl_index):
    """top_hits with a multi-key sort list uses EVERY key (code-review
    r5: only sort[0] was applied, silently dropping the tiebreaks)."""
    s = Searcher(dsl_index, load_docs=True)
    lang = np.asarray(s._attr("lang"))
    dl = np.asarray(s._attr("dl"), dtype=np.int64)
    got = execute_dsl(s, {"size": 0, "aggs": {"by_lang": {
        "terms": {"field": "lang", "size": 2},
        "aggs": {"th": {"top_hits": {"size": 3, "sort": [
            {"lang": {"order": "asc"}}, {"dl": {"order": "desc"}}]}}},
    }}})["aggregations"]["by_lang"]["buckets"]
    assert got
    for b in got:
        ids = np.flatnonzero(lang == b["key"])
        # lang is constant within the bucket -> the dl desc tiebreak
        # (then doc_id asc) decides the order
        order = np.lexsort((ids, -dl[ids]))[:3]
        want = [int(ids[i]) + s.doc_lo for i in order]
        hits = b["th"]["hits"]["hits"]
        assert [h["_id"] for h in hits] == want
        assert all(len(h["sort"]) == 2 for h in hits)


def test_explain_details_respect_boosts(dsl_index):
    """explain:true detail rows carry the BOOSTED weights (code-review
    r5: boosts were dropped from the evidence query, so details no
    longer summed to _score for boosted clauses)."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[3][0]
    resp = execute_dsl(s, {"query": {"bool": {
        "must": [{"match": {"content": {"query": w1, "boost": 3.0}}}],
        "should": [{"match": {"content": {"query": w2, "boost": 0.5}}}],
    }}, "explain": True, "size": 5})
    assert resp["hits"]["hits"]
    saw_boosted = False
    for h in resp["hits"]["hits"]:
        det = h["_explanation"]["details"]
        assert det
        assert sum(d["value"] for d in det) == pytest.approx(
            h["_score"], rel=1e-9)
        saw_boosted = saw_boosted or len(det) > 1
    assert saw_boosted  # at least one hit carries the boosted should term


def test_execute_explain(dsl_index):
    from astrologer_ray.state.dsl import execute_explain

    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[3][0]
    body = {"query": {"match": {"content": f"{w1} {w2}"}}}
    top = execute_dsl(s, {**body, "size": 1})["hits"]["hits"][0]
    got = execute_explain(s, top["_id"], body)
    assert got["matched"] is True
    # the explained score is bit-for-bit the _search score, and the
    # details sum to it (sorted-term order, like the scorer)
    assert got["explanation"]["value"] == top["_score"]
    assert sum(d["value"] for d in got["explanation"]["details"]) == \
        pytest.approx(top["_score"])

    # a doc with NO query term does not match
    hit_ids = {h["_id"] for h in
               execute_dsl(s, {**body, "size": 10_000})["hits"]["hits"]}
    non_hit = next(d for d in range(s.doc_lo, s.doc_lo + s.n_local)
                   if d not in hit_ids)
    got = execute_explain(s, non_hit, body)
    assert got["matched"] is False and got["explanation"]["value"] == 0.0

    # filter context composes: same match, wrong lang filter -> no match
    lang_of_top = str(s._attr("lang")[top["_id"] - s.doc_lo])
    other = next(v for v, _ in s.agg_terms("lang", k=5)
                 if v != lang_of_top)
    fbody = {"query": {"bool": {"must": [{"match": {"content": w1}}],
                                "filter": [{"term": {"lang": other}}]}}}
    if str(s._attr("lang")[top["_id"] - s.doc_lo]) != other:
        assert execute_explain(s, top["_id"], fbody)["matched"] is False

    # pure filter-context body: constant-score explanation
    got = execute_explain(
        s, top["_id"], {"query": {"term": {"lang": lang_of_top}}})
    assert got["matched"] is True and got["explanation"]["value"] == 1.0
    got = execute_explain(
        s, top["_id"], {"query": {"term": {"lang": other}}})
    assert got["matched"] is False


def test_execute_get_and_mget(dsl_index):
    from astrologer_ray.state.dsl import execute_get, execute_mget

    s = Searcher(dsl_index, load_docs=True)
    did = s.doc_lo + 3
    got = execute_get(s, did)
    assert got["found"] is True and got["_id"] == did
    assert got["_source"]["repo"] == str(s.doc_repo[3])
    assert got["_source"]["dl"] == int(s._attr("dl")[3])
    # projection keeps only the named attrs
    got = execute_get(s, did, source=["lang"])
    assert set(got["_source"]) == {"lang"}
    # out-of-range and tombstoned ids are not found, in request order
    s.deleted = np.array([s.doc_lo + 5], dtype=np.int64)
    got = execute_mget(s, [did, s.doc_lo + 5, s.doc_lo + s.n_local + 7])
    assert [d["found"] for d in got["docs"]] == [True, False, False]
    assert [d["_id"] for d in got["docs"]] == [
        did, s.doc_lo + 5, s.doc_lo + s.n_local + 7]


def test_intervals_body(dsl_index):
    """intervals (ordered match rule) == span_near over the same terms."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2 = terms_by_df[0][0], terms_by_df[1][0]
    body = {"query": {"intervals": {"content": {"match": {
        "query": f"{w1} {w2}", "ordered": True, "max_gaps": 3}}}},
        "size": 6}
    got = execute_dsl(s, body)
    assert _ids_scores(got) == _want(s.span_near([w1, w2], slop=3, k=6))
    # unordered and unbounded rules refuse rather than mis-compute
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"intervals": {"content": {"match": {
            "query": f"{w1} {w2}", "ordered": False, "max_gaps": 3}}}}})
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"intervals": {"content": {"match": {
            "query": f"{w1} {w2}", "ordered": True}}}}})


def test_script_query_filter(dsl_index):
    """ES script query: vectorized painless predicate in filter context,
    with precedence-safe && / || connectives."""
    s = Searcher(dsl_index, load_docs=True)
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    med = float(np.median(dl))
    body = {"query": {"script": {"script": {
        "source": f"doc['dl'].value > {med}"}}}, "size": 0}
    got = execute_dsl(s, body)
    assert got["hits"]["total"]["value"] == int((dl > med).sum())

    # && with params, composed inside a bool filter next to a match
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1 = terms_by_df[0][0]
    lo, hi = float(np.quantile(dl, 0.25)), float(np.quantile(dl, 0.75))
    body = {"query": {"bool": {
        "must": [{"match": {"content": w1}}],
        "filter": [{"script": {"script": {
            "source": "doc['dl'].value >= params.lo && "
                      "doc['dl'].value <= params.hi",
            "params": {"lo": lo, "hi": hi}}}}]}}, "size": 5}
    got = execute_dsl(s, body)
    rng = {"query": {"bool": {
        "must": [{"match": {"content": w1}}],
        "filter": [{"range": {"dl": {"gte": lo, "lte": hi}}}]}},
        "size": 5}
    assert _ids_scores(got) == _ids_scores(execute_dsl(s, rng))
    assert got["hits"]["hits"], "fixture must produce hits"

    # || at depth 0 with parens inside atoms
    body = {"query": {"script": {"script": {
        "source": f"(doc['dl'].value * 2) < {2 * lo} || "
                  f"doc['dl'].value > {hi}"}}}, "size": 0}
    got = execute_dsl(s, body)
    assert got["hits"]["total"]["value"] == int(
        ((dl * 2 < 2 * lo) | (dl > hi)).sum())


def test_boxplot_string_stats_top_metrics(pipe_searcher):
    s, ts, val = pipe_searcher
    lang = np.asarray(s._attr("lang"))
    got = execute_dsl(s, {"size": 0, "aggs": {
        "bx": {"boxplot": {"field": "val"}},
        "ss": {"string_stats": {"field": "lang"}},
        "tm": {"top_metrics": {"metrics": [{"field": "val"}],
                               "sort": {"ts": "desc"}, "size": 2}},
    }})["aggregations"]
    assert got["bx"]["min"] == val.min() and got["bx"]["max"] == val.max()
    for q, k in ((0.25, "q1"), (0.5, "q2"), (0.75, "q3")):
        assert got["bx"][k] == pytest.approx(np.quantile(val, q))
    vals = [str(x) for x in lang]
    lens = np.array([len(v) for v in vals])
    assert got["ss"]["count"] == len(vals)
    assert got["ss"]["avg_length"] == pytest.approx(lens.mean())
    from collections import Counter
    cc = Counter("".join(vals))
    ps = np.array(list(cc.values())) / sum(cc.values())
    assert got["ss"]["entropy"] == pytest.approx(-(ps * np.log2(ps)).sum())
    # top_metrics: metric values at the top-2 docs by ts desc
    # (ties broken by local id asc, deterministic)
    order = np.lexsort((np.arange(len(ts)), -ts))[:2]
    assert [t["metrics"]["val"] for t in got["tm"]["top"]] == \
        [float(val[i]) for i in order]
    assert [t["sort"][0] for t in got["tm"]["top"]] == \
        [float(ts[i]) for i in order]
    # and inside a terms bucket (the sub-agg recursion path)
    got = execute_dsl(s, {"size": 0, "aggs": {"by": {
        "terms": {"field": "lang", "size": 1},
        "aggs": {"bx": {"boxplot": {"field": "val"}}}}}})
    b = got["aggregations"]["by"]["buckets"][0]
    sub = val[lang == b["key"]]
    assert b["bx"]["q2"] == pytest.approx(np.quantile(sub, 0.5))


def test_wrapper_query_decodes_inner(dsl_index):
    import base64
    import json

    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=s.df.get)
    inner = {"match": {"content": w1}}
    body = {"query": {"wrapper": {"query": base64.b64encode(
        json.dumps(inner).encode()).decode()}}, "size": 5}
    assert execute_dsl(s, body) == execute_dsl(
        s, {"query": inner, "size": 5})


def test_match_bool_prefix_semantics(dsl_index):
    from astrologer_ray.stages.spimi import FIELD_SEP

    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1 = terms_by_df[0][0]
    pre = terms_by_df[1][0][:2]
    hits = s.match_bool_prefix([w1, pre], k=s.n_local)
    # expected: the plain-search BM25 of w1 plus a constant 1.0 where the
    # doc holds >= 1 dictionary expansion of the prefix (OR candidates)
    base = {h["doc_id"]: h["score"] for h in s.search([w1], k=s.n_local)}
    exp = [t for t in s.expand_prefix(pre)
           if FIELD_SEP not in t and t in s.postings]
    assert exp, "test needs at least one prefix expansion"
    pdocs = {h["doc_id"] for h in s.search_constant_score(
        {"bool": {"should": [{"match": t} for t in exp]}}, k=s.n_local)}
    want = {d: base.get(d, 0.0) + (1.0 if d in pdocs else 0.0)
            for d in set(base) | pdocs}
    got = {h["doc_id"]: h["score"] for h in hits}
    assert set(got) == set(want)
    assert got == pytest.approx(want)
    # DSL wiring: hits delegate to the method; total runs the exact OR
    # predicate (prefix-only matches counted)
    body = {"query": {"match_bool_prefix": {"content": f"{w1} {pre}"}},
            "size": 8}
    resp = execute_dsl(s, body)
    assert _ids_scores(resp) == _want(s.match_bool_prefix([w1, pre], k=8))
    assert resp["hits"]["total"]["value"] == len(want)


def test_distance_feature_boosts_near_origin(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=s.df.get)
    dl = s._attr("dl")
    origin = float(np.median(dl))
    body = {"query": {"bool": {
        "must": [{"match": {"content": w1}}],
        "should": [{"distance_feature": {
            "field": "dl", "origin": origin, "pivot": 10.0,
            "boost": 2.0}}],
    }}, "size": 9}
    got = execute_dsl(s, body)
    base = {h["doc_id"]: h["score"] for h in s.search([w1], k=s.n_local)}
    want = sorted(
        ((d, sc + 2.0 * 10.0 / (10.0 + abs(float(dl[d - s.doc_lo])
                                           - origin)))
         for d, sc in base.items()),
        key=lambda kv: (-kv[1], kv[0]))[:9]
    assert [d for d, _ in _ids_scores(got)] == [d for d, _ in want]
    assert [v for _, v in _ids_scores(got)] == pytest.approx(
        [v for _, v in want])
    # the distance_feature clause never shrinks the candidate set
    assert got["hits"]["total"]["value"] == len(base)


def test_date_range_agg_iso_bounds(dsl_index):
    import datetime as dt

    s = Searcher(dsl_index, load_docs=True)
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    # treat dl as epoch seconds; integer bounds round-trip ISO exactly
    lo = float(int(np.quantile(dl, 0.25)))
    hi = float(int(np.quantile(dl, 0.75)))
    iso_lo = dt.datetime.fromtimestamp(lo, dt.timezone.utc).isoformat()
    iso_hi = dt.datetime.fromtimestamp(hi, dt.timezone.utc).isoformat()
    body = {"size": 0, "aggs": {"r": {"date_range": {
        "field": "dl", "ranges": [
            {"to": iso_lo},
            {"from": iso_lo, "to": iso_hi, "key": "mid"},
            {"from": iso_hi}]}}}}
    got = execute_dsl(s, body)["aggregations"]["r"]["buckets"]
    assert got[0]["doc_count"] == int((dl < lo).sum())
    assert got[1]["doc_count"] == int(((dl >= lo) & (dl < hi)).sum())
    assert got[1]["key"] == "mid"
    assert got[2]["doc_count"] == int((dl >= hi).sum())
    # numeric bounds still work through the same path
    body2 = {"size": 0, "aggs": {"r": {"date_range": {
        "field": "dl", "ranges": [{"from": lo, "to": hi}]}}}}
    got2 = execute_dsl(s, body2)["aggregations"]["r"]["buckets"]
    assert got2[0]["doc_count"] == got[1]["doc_count"]
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"size": 0, "aggs": {"r": {"date_range": {
            "field": "dl", "ranges": [{"from": "now-1d"}]}}}})


def test_diversified_sampler_dedups_field(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=s.df.get)
    body = {"query": {"match": {"content": w1}}, "size": 0,
            "aggs": {"d": {
                "diversified_sampler": {"field": "lang", "shard_size": 5,
                                        "max_docs_per_value": 1},
                "aggs": {"langs": {"terms": {"field": "lang",
                                             "size": 10}}}}}}
    got = execute_dsl(s, body)["aggregations"]["d"]
    assert 0 < got["doc_count"] <= 5
    # max_docs_per_value=1: every sampled doc has a distinct lang
    assert all(b["doc_count"] == 1 for b in got["langs"]["buckets"])
    # score order drives the stream: the top hit's lang is in the sample
    hits = s.search([w1], k=1)
    first_lang = s._attr("lang")[hits[0]["doc_id"] - s.doc_lo]
    assert any(b["key"] == first_lang for b in got["langs"]["buckets"])


def test_normalize_pipeline_agg(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    body = {"size": 0, "aggs": {"h": {
        "histogram": {"field": "dl", "interval": 50},
        "aggs": {"pct": {"normalize": {"buckets_path": "_count",
                                       "method": "percent_of_sum"}},
                 "z": {"normalize": {"buckets_path": "_count",
                                     "method": "z-score"}},
                 "r01": {"normalize": {"buckets_path": "_count",
                                       "method": "rescale_0_1"}}}}}}
    got = execute_dsl(s, body)["aggregations"]["h"]["buckets"]
    counts = np.array([b["doc_count"] for b in got], dtype=np.float64)
    assert counts.sum() > 0 and len(counts) > 1
    for b, c in zip(got, counts):
        assert b["pct"]["value"] == pytest.approx(100.0 * c / counts.sum())
        assert b["z"]["value"] == pytest.approx(
            (c - counts.mean()) / counts.std())
        assert b["r01"]["value"] == pytest.approx(
            (c - counts.min()) / (counts.max() - counts.min()))


def test_matrix_stats_agg(dsl_index):
    s = Searcher(dsl_index, load_docs=True)
    s.add_runtime_field(
        "dl_sq", lambda attrs: np.asarray(attrs["dl"],
                                          dtype=np.float64) ** 1.5)
    body = {"size": 0, "aggs": {"m": {"matrix_stats": {
        "fields": ["dl", "dl_sq"]}}}}
    got = execute_dsl(s, body)["aggregations"]["m"]
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    dq = np.asarray(s._attr("dl_sq"), dtype=np.float64)
    assert got["doc_count"] == len(dl)
    f0 = got["fields"][0]
    assert f0["name"] == "dl" and f0["count"] == len(dl)
    assert f0["mean"] == pytest.approx(dl.mean())
    assert f0["variance"] == pytest.approx(dl.var(ddof=1))
    assert f0["covariance"]["dl_sq"] == pytest.approx(
        float(np.cov(dl, dq)[0, 1]))
    assert f0["correlation"]["dl_sq"] == pytest.approx(
        float(np.corrcoef(dl, dq)[0, 1]))
    d = dl - dl.mean()
    std_p = float(np.sqrt((d * d).sum() / (len(dl) - 1)))
    assert f0["skewness"] == pytest.approx(
        float((d ** 3).mean() / std_p ** 3))


def test_query_string(dsl_index):
    """query_string Kibana-style subset: OR/AND keywords, NOT/-/+,
    field:value filters, term^boost, trailing-* prefix, quoted phrase;
    anything beyond refuses."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    a, b, c = (terms_by_df[0][0], terms_by_df[1][0], terms_by_df[2][0])
    lang = s.agg_terms("lang", k=1)[0][0]

    # plain OR == simple match
    got = execute_dsl(s, {"query": {"query_string": {
        "query": f"{a} {b}"}}, "size": 6})
    assert _ids_scores(got) == _want(s.search([a, b], k=6))

    # explicit AND keyword == default_operator and
    got = execute_dsl(s, {"query": {"query_string": {
        "query": f"{a} AND {b}"}}, "size": 6})
    want = execute_dsl(s, {"query": {"simple_query_string": {
        "query": f"{a} {b}", "default_operator": "and"}}, "size": 6})
    assert _ids_scores(got) == _ids_scores(want)
    assert got["hits"]["total"] == want["hits"]["total"]

    # NOT and -term both exclude
    got = execute_dsl(s, {"query": {"query_string": {
        "query": f"{a} NOT {c}"}}, "size": 6})
    want = execute_dsl(s, {"query": {"query_string": {
        "query": f"{a} -{c}"}}, "size": 6})
    assert _ids_scores(got) == _ids_scores(want)
    assert _ids_scores(got) == _want(s.search(
        [a], k=6, filter={"bool": {"must_not": [{"match": c}]}}))

    # field:value is an AND-composed filter
    got = execute_dsl(s, {"query": {"query_string": {
        "query": f"{a} lang:{lang}"}}, "size": 6})
    assert _ids_scores(got) == _want(s.search(
        [a], k=6, filter={"term": {"lang": lang}}))

    # term^boost multiplies that term's BM25 contribution
    got = execute_dsl(s, {"query": {"query_string": {
        "query": f"{a}^2 {b}"}}, "size": 6})
    assert _ids_scores(got) == _want(s.search(
        [a, b], k=6, boosts={a: 2.0}))

    # trailing * gates by dictionary prefix, adds no score
    pre = b[:2]
    got = execute_dsl(s, {"query": {"query_string": {
        "query": f"{a} {pre}*"}}, "size": 6})
    assert _ids_scores(got) == _want(s.search(
        [a], k=6, filter={"prefix": pre}))

    # quoted phrase
    got = execute_dsl(s, {"query": {"query_string": {
        "query": f'"{a} {b}"'}}, "size": 5})
    assert _ids_scores(got) == _want(s.phrase_search([a, b], k=5))

    for bad in (f"({a} {b})", f"{a}~2", f"{a} OR {b} AND {c}",
                f"x*y {a}"):
        with pytest.raises(NotImplementedError):
            execute_dsl(s, {"query": {"query_string": {"query": bad}}})


def test_search_template_render_and_execute(dsl_index):
    """_search/template: typed whole-value holes, string interpolation,
    {{#toJson}}; rendered == inline body; sections refuse; missing param
    raises."""
    from astrologer_ray.state.dsl import (execute_search_template,
                                          render_search_template)

    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    src = {"query": {"match": {"content": "{{q}}"}}, "size": "{{k}}"}
    rendered = render_search_template(src, {"q": w1, "k": 5})
    assert rendered == {"query": {"match": {"content": w1}}, "size": 5}
    got = execute_search_template(
        s, {"source": src, "params": {"q": w1, "k": 5}})
    want = execute_dsl(s, rendered)
    assert _ids_scores(got) == _ids_scores(want)
    # string interpolation inside a longer string
    assert render_search_template(
        {"query": {"match": {"content": "pre {{q}} post"}}},
        {"q": "x"}) == {"query": {"match": {"content": "pre x post"}}}
    # toJson: typed lists/objects
    assert render_search_template(
        '{"query": {"ids": {"values": {{#toJson}}ids{{/toJson}}}}}',
        {"ids": [1, 2]}) == {"query": {"ids": {"values": [1, 2]}}}
    with pytest.raises(KeyError):
        render_search_template(src, {"q": w1})
    with pytest.raises(NotImplementedError):
        render_search_template('{"a": "{{#cond}}x{{/cond}}"}', {})
    with pytest.raises(NotImplementedError):
        execute_search_template(s, {"id": "stored-one", "params": {}})


def test_rank_eval_metrics(dsl_index):
    """_rank_eval: precision/recall/MRR/DCG+NDCG hand-recomputed from the
    actual hit lists and ratings."""
    import math

    from astrologer_ray.state.dsl import execute_rank_eval

    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    hits = [h["doc_id"] for h in s.search([w1], k=5)]
    assert len(hits) >= 3
    # rate hit #0 and #2 relevant (2, 1), hit #1 rated irrelevant (0),
    # plus one relevant doc the query never returns (recall denominator)
    absent = max(hits) + 10_000
    ratings = [{"_id": hits[0], "rating": 2}, {"_id": hits[1], "rating": 0},
               {"_id": hits[2], "rating": 1}, {"_id": absent, "rating": 3}]
    reqs = {"requests": [{"id": "q1",
                          "request": {"query": {"match": {"content": w1}}},
                          "ratings": ratings}]}
    n = len(hits)
    got = execute_rank_eval(s, {**reqs, "metric": {"precision": {"k": 5}}})
    assert got["details"]["q1"]["metric_score"] == pytest.approx(2 / n)
    assert got["details"]["q1"]["unrated_docs"] == n - 3
    assert got["metric_score"] == got["details"]["q1"]["metric_score"]
    got = execute_rank_eval(s, {**reqs, "metric": {"recall": {"k": 5}}})
    assert got["details"]["q1"]["metric_score"] == pytest.approx(2 / 3)
    got = execute_rank_eval(
        s, {**reqs, "metric": {"mean_reciprocal_rank": {"k": 5}}})
    assert got["details"]["q1"]["metric_score"] == pytest.approx(1.0)
    rating_of = {r["_id"]: r["rating"] for r in ratings}
    dcg = sum((2 ** rating_of.get(d, 0) - 1) / math.log2(i + 2)
              for i, d in enumerate(hits))
    got = execute_rank_eval(s, {**reqs, "metric": {"dcg": {"k": 5}}})
    assert got["details"]["q1"]["metric_score"] == pytest.approx(dcg)
    ideal = sorted(rating_of.values(), reverse=True)[:5]
    idcg = sum((2 ** r - 1) / math.log2(i + 2) for i, r in enumerate(ideal))
    got = execute_rank_eval(
        s, {**reqs, "metric": {"dcg": {"k": 5, "normalize": True}}})
    assert got["details"]["q1"]["metric_score"] == pytest.approx(dcg / idcg)
    with pytest.raises(NotImplementedError):
        execute_rank_eval(s, {**reqs, "metric": {"err": {}}})


def test_field_caps_mapping_validate(dsl_index):
    """_field_caps / _mapping / _validate endpoint analogs: field types
    from the live index; validate accepts servable bodies and flags
    refusals without running anything."""
    from astrologer_ray.state.dsl import (execute_field_caps,
                                          execute_mapping,
                                          execute_validate)

    s = Searcher(dsl_index, load_docs=True)
    caps = execute_field_caps(s)["fields"]
    assert caps["content"]["text"]["searchable"] is True
    assert caps["content"]["text"]["aggregatable"] is False
    assert caps["dl"]["long"]["aggregatable"] is True
    assert caps["lang"]["keyword"]["type"] == "keyword"
    # wildcard + exact filtering
    some = execute_field_caps(s, ["d*", "lang"])["fields"]
    assert "dl" in some and "lang" in some and "content" not in some

    props = execute_mapping(s)["mappings"]["properties"]
    assert props["content"]["type"] == "text"
    assert props["content"]["index_options"] == "positions"
    assert props["dl"] == {"type": "long"}

    w1 = max(s.df, key=lambda t: s.df[t])
    ok = execute_validate(s, {"query": {"match": {"content": w1}}},
                          explain=True)
    assert ok["valid"] is True
    assert f"terms:{w1}" in ok["explanations"][0]["explanation"]
    assert execute_validate(s, None)["valid"] is True
    bad = execute_validate(
        s, {"query": {"geo_distance": {"distance": "1km"}}}, explain=True)
    assert bad["valid"] is False
    assert "geo_distance" in bad["explanations"][0]["error"]


def test_rank_feature_log_sigmoid_bodies(dsl_index):
    """rank_feature's log and sigmoid functions through the adapter ==
    the direct searcher calls."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    body = {"query": {"bool": {
        "must": [{"match": {"content": w1}}],
        "should": [{"rank_feature": {"field": "dl", "boost": 1.5,
                                     "log": {"scaling_factor": 3.0}}}],
    }}, "size": 6}
    got = execute_dsl(s, body)
    want = s.search_rank_feature([w1], k=6, feature_attr="dl",
                                 function="log", scaling_factor=3.0,
                                 boost=1.5)
    assert _ids_scores(got) == _want(want)
    body = {"query": {"bool": {
        "must": [{"match": {"content": w1}}],
        "should": [{"rank_feature": {"field": "dl", "boost": 2.0,
                                     "sigmoid": {"pivot": 20.0,
                                                 "exponent": 0.7}}}],
    }}, "size": 6}
    got = execute_dsl(s, body)
    want = s.search_rank_feature([w1], k=6, feature_attr="dl",
                                 function="sigmoid", pivot=20.0,
                                 exponent=0.7, boost=2.0)
    assert _ids_scores(got) == _want(want)


def test_script_score_body(dsl_index):
    """script_score == function_score(script_score, boost_mode=replace):
    the inner match supplies candidates, the script replaces the score."""
    s = Searcher(dsl_index, load_docs=True)
    w1 = max(s.df, key=lambda t: s.df[t])
    body = {"query": {"script_score": {
        "query": {"match": {"content": w1}},
        "script": {"source": "doc['dl'].value / 10.0 + 1"}}}, "size": 6}
    got = execute_dsl(s, body)
    want = execute_dsl(s, {"query": {"function_score": {
        "query": {"match": {"content": w1}},
        "functions": [{"script_score": {
            "script": {"source": "doc['dl'].value / 10.0 + 1"}}}],
        "boost_mode": "replace"}}, "size": 6})
    assert _ids_scores(got) == _ids_scores(want)
    # hit scores ARE the script values, not BM25
    dl = {i: int(v) for i, v in enumerate(s._attr("dl"))}
    for h in got["hits"]["hits"]:
        assert h["_score"] == pytest.approx(dl[h["_id"]] / 10.0 + 1)
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"script_score": {
            "query": {"match": {"content": w1}},
            "script": {"source": "1"}, "min_score": 2}}})


def test_span_containing_within_bodies(dsl_index):
    """span_containing / span_within execute through the adapter: same
    matched docs, big- vs little-scored; exact hits.total."""
    s = Searcher(dsl_index, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    w1, w2, w3 = (t for t, _ in terms_by_df[:3])
    big = {"span_near": {"clauses": [{"span_term": {"content": w1}},
                                     {"span_term": {"content": w2}}],
                         "slop": 6, "in_order": True}}
    little = {"span_term": {"content": w3}}
    got = execute_dsl(s, {"query": {"span_containing": {
        "big": big, "little": little}}, "size": 6})
    want = s.span_containing([w1, w2], w3, slop=6, k=6, score="big")
    assert _ids_scores(got) == _want(want)
    assert got["hits"]["total"]["value"] == len(
        s.span_containing([w1, w2], w3, slop=6, k=s.n_local))
    got_w = execute_dsl(s, {"query": {"span_within": {
        "big": big, "little": little}}, "size": 6})
    want_w = s.span_containing([w1, w2], w3, slop=6, k=6, score="little")
    assert _ids_scores(got_w) == _want(want_w)
    # same matched docs either way
    assert {h["_id"] for h in got["hits"]["hits"]} <= {
        h["doc_id"] for h in s.span_containing(
            [w1, w2], w3, slop=6, k=s.n_local)}
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"query": {"span_containing": {
            "big": little, "little": little}}})


def test_termvectors_artificial_doc(dsl_index):
    """_termvectors on a request-body doc: tf + positions equal the
    reference tokenizer's stream; term_statistics equal the index's
    df/cf entries; field_statistics sum over the text dictionary."""
    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.stages.spimi import FIELD_SEP
    from astrologer_ray.state.dsl import execute_termvectors

    s = Searcher(dsl_index, load_docs=True)
    text = "merge index merge the index merge"
    got = execute_termvectors(
        s, {"doc": {"content": text}, "term_statistics": True})
    toks = tokenize(text, s.mode)
    terms = got["term_vectors"]["content"]["terms"]
    assert set(terms) == set(toks)
    for t, e in terms.items():
        assert e["term_freq"] == toks.count(t)
        assert [p["position"] for p in e["tokens"]] == [
            i for i, x in enumerate(toks) if x == t]
        assert e["doc_freq"] == int(s.df.get(t, 0))
        assert e["ttf"] == int(s.cf.get(t, 0))
    fs = got["term_vectors"]["content"]["field_statistics"]
    assert fs["doc_count"] == s.N
    assert fs["sum_doc_freq"] == sum(
        v for k, v in s.df.items() if FIELD_SEP not in k)
    assert fs["sum_ttf"] == sum(
        v for k, v in s.cf.items() if FIELD_SEP not in k)
    # positions off drops the tokens list, keeps tf
    got2 = execute_termvectors(
        s, {"doc": {"content": text}, "positions": False})
    for e in got2["term_vectors"]["content"]["terms"].values():
        assert "tokens" not in e and e["term_freq"] >= 1


def test_termvectors_stored_doc_matches_source(dsl_index,
                                               small_corpus_dir):
    """_termvectors by id re-analyzes the corpus row (the _source
    store): its tf vector must equal analyzing that row's content
    directly, and the doc's own tf must never exceed the index ttf."""
    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.state.dsl import execute_termvectors

    s = Searcher(dsl_index, load_docs=True)
    for did in (0, 1, s.n_local - 1):
        got = execute_termvectors(s, {}, doc_id=did,
                                  corpus_dir=small_corpus_dir)
        assert got["found"] and got["_id"] == did
        terms = got["term_vectors"]["content"]["terms"]
        # reconstruct the source row via the searcher's own attrs
        import pyarrow.compute as pc
        import pyarrow.dataset as pds
        frag = pds.dataset(small_corpus_dir, format="parquet").to_table(
            filter=(pc.field("repo") == str(s.doc_repo[did]))
            & (pc.field("path") == str(s.doc_path[did])),
            columns=["commit", "content"])
        contents = frag.column("content").to_pylist()
        commits = frag.column("commit").to_pylist()
        src = contents[0] if len(contents) == 1 else next(
            c for cm, c in zip(commits, contents)
            if str(cm) in str(s.doc_key[did]))
        toks = tokenize(src, s.mode)
        assert {t: e["term_freq"] for t, e in terms.items()} == {
            t: toks.count(t) for t in set(toks)}
        for t, e in terms.items():
            assert e["term_freq"] <= int(s.cf.get(t, 0))
    # out-of-range id is found: false, like _doc
    assert execute_termvectors(s, {}, doc_id=s.n_local + 99,
                               corpus_dir=small_corpus_dir) == {
        "_id": s.n_local + 99, "found": False}


def test_rate_agg_inside_date_histogram(dsl_index):
    """ES `rate` sub-agg: per-bucket doc_count (or field sum) scaled by
    unit/interval — verified against the histogram's own buckets."""
    s = Searcher(dsl_index, load_docs=True)
    body = {"size": 0, "aggs": {"per_hour": {
        "histogram": {"field": "dl", "interval": 40},
        "aggs": {"docs_per_hour": {"rate": {"unit": "hour"}},
                 "dl_per_hour": {"rate": {"unit": "hour",
                                          "field": "dl"}}}}}}
    got = execute_dsl(s, body)
    buckets = got["aggregations"]["per_hour"]["buckets"]
    assert buckets
    import numpy as np
    dl = np.asarray(s.doc_attrs["dl"], dtype=np.float64)
    for b in buckets:
        k = b["key"]
        in_b = (dl >= k) & (dl < k + 40)
        assert b["doc_count"] == int(in_b.sum())
        assert b["docs_per_hour"]["value"] == pytest.approx(
            b["doc_count"] * 3600 / 40)
        assert b["dl_per_hour"]["value"] == pytest.approx(
            float(dl[in_b].sum()) * 3600 / 40)
    # rate at top level is not ES-legal and refuses
    with pytest.raises((NotImplementedError, KeyError)):
        execute_dsl(s, {"size": 0,
                        "aggs": {"r": {"rate": {"unit": "hour"}}}})


def test_cumulative_cardinality_agg(dsl_index):
    """ES cumulative_cardinality: running distinct count across
    histogram buckets in key order, verified against a hand-walked set;
    a buckets_path to a non-cardinality sibling refuses."""
    s = Searcher(dsl_index, load_docs=True)
    body = {"size": 0, "aggs": {"by_dl": {
        "histogram": {"field": "dl", "interval": 40},
        "aggs": {"langs": {"cardinality": {"field": "lang"}},
                 "total_langs": {"cumulative_cardinality": {
                     "buckets_path": "langs"}}}}}}
    got = execute_dsl(s, body)
    buckets = got["aggregations"]["by_dl"]["buckets"]
    assert len(buckets) >= 2
    import numpy as np
    dl = np.asarray(s.doc_attrs["dl"], dtype=np.float64)
    lang = np.asarray(s.doc_attrs["lang"], dtype=object)
    seen: set = set()
    for b in buckets:
        k = b["key"]
        in_b = (dl >= k) & (dl < k + 40)
        seen.update(lang[in_b])
        assert b["total_langs"]["value"] == len(seen)
        assert b["langs"]["value"] == len(set(lang[in_b]))
    assert buckets[-1]["total_langs"]["value"] == len(set(lang[dl >= 0]))
    with pytest.raises(NotImplementedError):
        execute_dsl(s, {"size": 0, "aggs": {"h": {
            "histogram": {"field": "dl", "interval": 40},
            "aggs": {"m": {"sum": {"field": "dl"}},
                     "cc": {"cumulative_cardinality": {
                         "buckets_path": "m"}}}}}})


def test_moving_percentiles_agg(dsl_index):
    """ES moving_percentiles: percentiles over the moving_fn-style
    bucket window, hand-verified per bucket (exact over raw values)."""
    import numpy as np

    s = Searcher(dsl_index, load_docs=True)
    body = {"size": 0, "aggs": {"by_dl": {
        "histogram": {"field": "dl", "interval": 40},
        "aggs": {"p": {"percentiles": {"field": "dl",
                                       "percents": [50, 90]}},
                 "mp": {"moving_percentiles": {
                     "buckets_path": "p", "window": 2, "shift": 0}}}}}}
    got = execute_dsl(s, body)
    buckets = got["aggregations"]["by_dl"]["buckets"]
    assert len(buckets) >= 3
    dl = np.asarray(s.doc_attrs["dl"], dtype=np.float64)
    keys = [b["key"] for b in buckets]
    per_bucket = [dl[(dl >= k) & (dl < k + 40)] for k in keys]
    for i, b in enumerate(buckets):
        lo = max(0, i - 2)
        win = (np.concatenate(per_bucket[lo:i])
               if i > lo else np.empty(0))
        for p in (50, 90):
            want = float(np.percentile(win, p)) if len(win) else None
            # keys are ES-shaped str(float(p)), same as the sibling
            # percentiles metric
            assert b["mp"]["values"][str(float(p))] == (
                pytest.approx(want) if want is not None else None)


def test_cumulative_cardinality_excludes_nan(dsl_index):
    """Missing numeric values (NaN) never count as distinct — matching
    the sibling cardinality metric."""
    import numpy as np

    s = Searcher(dsl_index, load_docs=True)
    vals = np.where(np.arange(s.n_local) % 2 == 0, 1.0, np.nan)
    s.doc_attrs["half_nan"] = vals
    got = execute_dsl(s, {"size": 0, "aggs": {"h": {
        "histogram": {"field": "dl", "interval": 40},
        "aggs": {"c": {"cardinality": {"field": "half_nan"}},
                 "cc": {"cumulative_cardinality": {
                     "buckets_path": "c"}}}}}})
    buckets = got["aggregations"]["h"]["buckets"]
    # the only real value anywhere is 1.0 — every running count is <= 1
    assert buckets[-1]["cc"]["value"] == 1
    assert all(b["cc"]["value"] <= 1 for b in buckets)


def test_terms_aggs_skip_docs_without_a_value(dsl_index, tmp_path):
    """A string attribute set on only some docs (update_by_query) never
    yields a "None" bucket in terms / rare_terms / significant_terms /
    multi_terms, cardinality counts only real values, the missing agg
    counts the rest, and terms' unsupported ``missing`` key refuses."""
    import shutil

    from astrologer_ray.pipelines.segments import update_by_query

    idx = str(tmp_path / "idx")
    shutil.copytree(dsl_index, idx)
    update_by_query(idx, {"term": {"lang": "go"}}, "ctx._source.tier = 'gold'")
    s = Searcher(idx, load_docs=True)
    n_go = int((s.doc_attrs["lang"] == "go").sum())
    assert 0 < n_go < s.n_local
    got = execute_dsl(s, {"size": 0, "aggs": {
        "t": {"terms": {"field": "tier"}},
        "r": {"rare_terms": {"field": "tier", "max_doc_count": s.n_local}},
        "sig": {"significant_terms": {"field": "tier"}},
        "mt": {"multi_terms": {"terms": [{"field": "lang"},
                                         {"field": "tier"}]}},
        "c": {"cardinality": {"field": "tier"}},
        "m": {"missing": {"field": "tier"}}}})["aggregations"]
    assert got["t"]["buckets"] == [{"key": "gold", "doc_count": n_go}]
    assert got["r"]["buckets"] == [{"key": "gold", "doc_count": n_go}]
    assert [b["key"] for b in got["sig"]["buckets"]] == ["gold"]
    assert got["mt"]["buckets"] == [{"key": ["go", "gold"],
                                     "doc_count": n_go}]
    assert got["c"]["value"] == 1
    assert got["m"]["doc_count"] == s.n_local - n_go
    with pytest.raises(NotImplementedError, match="missing"):
        execute_dsl(s, {"size": 0, "aggs": {"t": {"terms": {
            "field": "tier", "missing": "none"}}}})


def test_request_runtime_field_does_not_outlive_its_request(dsl_index):
    """A runtime_mappings field is gone after its request: a later body
    aggregating on it fails like any unknown attribute instead of reading
    codes left over from the earlier request."""
    s = Searcher(dsl_index, load_docs=True)
    agg = {"b": {"terms": {"field": "bucket"}}}
    got = execute_dsl(s, {"size": 0, "aggs": agg, "runtime_mappings": {
        "bucket": {"type": "long", "script": {
            "source": "emit(doc['dl'].value % 3)"}}}})
    dl = np.asarray(s.doc_attrs["dl"], dtype=np.int64)
    want = sorted(((f"{float(v)}", int((dl % 3 == v).sum()))
                   for v in np.unique(dl % 3)), key=lambda kv: (-kv[1], kv[0]))
    assert [(b["key"], b["doc_count"]) for b in got["aggregations"]["b"]
            ["buckets"]] == want
    assert "bucket" not in s.doc_attrs
    with pytest.raises(ValueError, match="bucket"):
        execute_dsl(s, {"size": 0, "aggs": agg})


def test_rate_agg_without_unit_is_per_interval(dsl_index):
    """A rate with no unit is the rate per parent interval — the bucket's
    doc count (or field sum) unscaled; a mode other than sum refuses."""
    s = Searcher(dsl_index, load_docs=True)
    got = execute_dsl(s, {"size": 0, "aggs": {"h": {
        "histogram": {"field": "dl", "interval": 40},
        "aggs": {"n": {"rate": {}},
                 "d": {"rate": {"field": "dl", "mode": "sum"}}}}}})
    buckets = got["aggregations"]["h"]["buckets"]
    assert buckets
    dl = np.asarray(s.doc_attrs["dl"], dtype=np.float64)
    for b in buckets:
        in_b = (dl >= b["key"]) & (dl < b["key"] + 40)
        assert b["n"]["value"] == b["doc_count"] == int(in_b.sum())
        assert b["d"]["value"] == float(dl[in_b].sum())
    with pytest.raises(NotImplementedError, match="mode"):
        execute_dsl(s, {"size": 0, "aggs": {"h": {
            "histogram": {"field": "dl", "interval": 40},
            "aggs": {"n": {"rate": {"field": "dl",
                                    "mode": "value_count"}}}}}})
