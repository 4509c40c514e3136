"""ES request-body adapter: execute an Elasticsearch ``_search`` JSON
body against a :class:`~astrologer_ray.state.searcher.Searcher`.

The reference's users speak ES query DSL (its query surface IS a Postman
collection of ``_search`` bodies, /root/reference/es.postman_collection.json);
this module lets those bodies run verbatim against this engine, so
"switching from the reference" does not mean rewriting queries.

Supported surface (everything dispatches onto existing searcher
methods — this module adds translation, not retrieval):

- ``query``: match_all, match, match_phrase, match_phrase_prefix,
  simple_query_string (OR/AND terms, +required, -excluded, one quoted
  phrase; Lucene operators beyond that refuse),
  multi_match (best_fields/most_fields/cross_fields reduce to match
  over the single analyzed text field; type=phrase to match_phrase),
  term, terms, terms_set (literal minimum_should_match), ids, exists,
  range, prefix, wildcard, fuzzy, regexp, script (vectorized painless
  predicate over doc attrs, filter context), bool (must / must_not /
  filter / should / minimum_should_match), dis_max, constant_score,
  more_like_this, span_near (in-order span_term clauses), span_first
  (span_term match within the first ``end`` positions), span_or
  (span_term clauses — should-only bool semantics), span_not
  (span_term include/exclude with pre/post/dist windows),
  span_containing / span_within (span_near big + span_term little —
  same matched docs, big- vs little-scored),
  combined_fields (degenerates to match over the single analyzed
  field), nested (single term-level inner clause over the flattened
  multi-valued keyword field), intervals
  (the ordered ``match`` rule with explicit max_gaps — span_near
  semantics),
  function_score (general form: gauss decay / field_value_factor /
  script_score over the vectorized painless arithmetic subset with
  ``doc['x'].value`` attr refs / bare weight functions, per-function
  filters, score_mode multiply|sum|avg|max|min, boost_mode
  multiply|sum|replace|avg|max|min, max_boost; the single-gauss
  multiply shape keeps its fast path),
  boosting (match positive, term-level negative, negative_boost
  demotion), pinned (explicit ids first, organic match hits after),
  script_score (function_score's script machinery with
  boost_mode=replace), rank_feature in bool.should (saturation / log /
  sigmoid functions).
- top level: ``size``, ``from``, ``min_score``, ``search_after``,
  ``collapse`` (one hit per distinct value of a doc attribute),
  ``rescore`` (match_phrase proximity rerank of the top-window BM25
  hits, query_weight=1.0), ``sort`` (single or MULTI field with
  per-key order and the row-value search_after cursor, over exactly
  the query's matches; explicit
  per-clause match ``boost`` multiplies that clause's BM25
  contribution), ``knn`` (exact cosine
  over a vector doc attribute; combined with ``query`` the two legs'
  scores SUM per doc over the union, ES 8 hybrid scoring),
  ``retriever.rrf`` (standard + knn
  sub-retrievers fused by :func:`astrologer_ray.pipelines.hybrid.rrf_fuse`).
- ``aggs`` / ``aggregations``: terms, multi_terms, rare_terms,
  significant_terms, filters,
  adjacency_matrix, composite, top_hits (explicit ``sort``, the
  query's BM25 order, or doc order under match_all; ``_source`` attr
  projection), histogram, date_histogram and auto_date_histogram
  (fixed ``interval`` seconds or calendar ``day``/``hour`` over an
  epoch-seconds attribute); metric aggs over numeric doc attributes —
  avg, sum, min, max, value_count, stats, extended_stats (population
  + sampling moments, ``sigma`` bounds), weighted_avg,
  median_absolute_deviation (exact), percentiles (exact linear
  interpolation), cardinality (exact distinct), boxplot (exact
  quartiles), string_stats (length stats + Shannon character entropy)
  and top_metrics (metric values at the top-k docs by a sort field) —
  the ``range`` bucket
  agg ([from, to) buckets), ``global`` (escapes the query scope),
  ``missing`` (with sub-aggs over exactly its counted docs),
  ``sampler`` (sub-aggs over the top shard_size docs by the query's
  score) and ``percentile_ranks`` (exact).  Sub-aggregations nest
  RECURSIVELY under terms / histogram / date_histogram / range /
  filters / global / missing / sampler buckets (terms-inside-terms,
  date_histogram-with-terms, ...) — a bucket's docs are its own
  predicate's mask ANDed with the enclosing scope's mask (ES's bucket
  collectors: the query is never evaluated again per bucket).
  Aggregations scope to the query's matching docs, like ES.
  ``execute_count`` serves the ``_count`` endpoint; ``shard_plan`` /
  ``merge_sharded`` implement the scatter-gather merge contract a pool
  with more than one group (doc-range shards, several indexes) applies
  in ``msearch`` / ``execute_dsl``.
- endpoint analogs beyond ``_search``: ``execute_explain``
  (``_explain/<id>`` — does one doc match, with the BM25 breakdown),
  ``execute_terms_enum`` (``_terms_enum`` — sorted prefix listing
  with ``search_after`` paging, text or keyword fields),
  ``execute_get`` / ``execute_mget`` (``_doc`` / ``_mget`` — docs
  sidecar attributes as ``_source``), ``execute_termvectors``
  (``_termvectors`` — per-term tf/positions for an artificial doc or a
  stored id re-analyzed from the corpus, with index term/field stats),
  ``execute_search_template`` /
  ``render_search_template`` (``_search/template`` / ``_render/template``
  — mustache ``{{var}}`` + ``{{#toJson}}`` holes), and
  ``execute_rank_eval`` (``_rank_eval`` — precision / recall / MRR /
  DCG+NDCG over rated documents), ``execute_field_caps`` /
  ``execute_mapping`` (``_field_caps`` / ``_mapping`` — field/type
  introspection from the live index), and ``execute_validate``
  (``_validate/query`` — translate without running, report refusals).
- pipeline aggregations: parent ``cumulative_sum``, ``derivative``,
  ``serial_diff``, ``bucket_script``, ``bucket_selector``,
  ``bucket_sort`` and ``moving_fn`` (the documented
  ``MovingFunctions.*`` forms — unweightedAvg / sum / min / max /
  stdDev / linearWeightedAvg / ewma — with ``window`` and ``shift``)
  inside a terms/histogram parent (``buckets_path``
  to a sibling metric or ``_count``; scripts take the arithmetic
  subset of painless over ``params.*``); histogram-walk pipeline aggs
  ``rate`` (per-bucket count/field-sum scaled to ``unit`` by the parent
  interval, unscaled without one; ``mode`` sum only),
  ``cumulative_cardinality`` (exact running distinct over a
  sibling cardinality's field) and ``moving_percentiles`` (exact over
  the moving_fn-style bucket window); and sibling ``avg_bucket``,
  ``sum_bucket``, ``min_bucket``, ``max_bucket``, ``stats_bucket``,
  ``percentiles_bucket`` (exact, ES's round(p*(n-1)) rank) and
  ``extended_stats_bucket``
  next to a bucket agg (``buckets_path`` = "parent>metric").  The
  distributed counterparts are pipelines.aggs.pipeline_aggs /
  bucket_script / bucket_selector.
- ``runtime_mappings``: request-scoped computed attributes
  (``emit(<painless arithmetic expr>)`` over ``doc['x'].value`` refs,
  ``params.*``, ``Math.*`` -> numpy), composing with every filter /
  agg / sort like stored attrs; a list-form top-level ``_source``
  projects the named doc attrs onto every hit.
- ``suggest``: named ``term`` suggesters (one entry per analyzed
  token, options ordered distance asc / df desc like
  ``Searcher.suggest``) and ``phrase`` suggesters (whole-phrase
  corrections ranked by the smoothed unigram LM of
  ``Searcher.suggest_phrase``; ``collate`` keeps only phrases with an
  exact index match).
- ``explain: true`` (per-hit ``_explanation`` BM25 term breakdown) and
  ``highlight`` (per-hit term-occurrence evidence from the positional
  index; structured rows, not ``<em>`` snippets — the index stores
  positions, not source text), both on match/bool-match queries.

Scoring semantics: ``match`` / ``match_phrase`` / ``dis_max`` clauses
score BM25; term-level queries (term/exists/range/prefix/...) execute
in FILTER context (score 1.0 via constant_score when they stand alone)
— the standard ES practice of wrapping exact-value queries in filters.
Response is ES-shaped: ``hits.total.value``, ``hits.hits[]._id/_score``,
``aggregations.<name>.buckets``.

Translation: a query becomes a :class:`_Translated` — plain match terms
(must / should / msm / per-term boosts), filter-context clauses, and at
most one scorer :class:`_Node` for any other kind. Only the kind's own
``_translate`` branch names it; the node carries the Searcher call that
ranks it, how ``hits.total`` counts it and the words it adds to the
match set, so the dispatchers (``_run_hits``, ``_matched``,
``_is_plain_match``, ``execute_explain``) name no kind. Nodes do not
compose yet: a second node, a standalone node
(phrase / span / prefix / dis_max / constant_score) beside scored terms,
and a reranking node (pinned / boosting / function_score / script_score
/ rank_feature / distance_feature) without must terms or with should
terms are refused with ``NotImplementedError``, and so are the keys a
node's ranking would drop (top-level ``min_score`` and ``search_after``,
a match clause's ``boost``). A field ``sort`` orders exactly the docs
``hits.total`` counts, and so do the aggs of a node whose total is
"rank".

Execution: a request's filter clauses are evaluated once, into its live
mask (filter clauses AND not deleted, ``Searcher._live_mask``). The hits
rank within it, the match mask (:func:`_matched`) is derived from it and
the posting lists, ``hits.total`` is the match mask's popcount, and every
aggregation runs within the match mask.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from astrologer_ray.functions import painless

_TEXT_FIELDS = {"text", "content", "_all"}
_CALENDAR = {"day": 86400, "hour": 3600, "minute": 60}
# rate-agg units (ES accepts the calendar ladder; week+ are fixed spans
# here because histogram intervals are fixed-width seconds)
_RATE_UNITS = {"second": 1.0, "minute": 60.0, "hour": 3600.0,
               "day": 86400.0, "week": 604800.0}


def _text_of(arg) -> str:
    """match/match_phrase operand: "q" or {"query": "q", ...}."""
    if isinstance(arg, dict):
        return arg["query"]
    return arg


class _Translated:
    """A translated query: the plain match terms and filters every
    dispatcher runs, plus at most one scorer ``node`` for any other
    query kind."""

    def __init__(self):
        self.terms: list[str] = []          # scoring must terms
        self.should_terms: list[str] = []   # scoring should terms
        self.msm: int = 0
        self.boosts: dict[str, float] = {}  # per-term clause boosts
        self.filters: list[dict] = []       # filter-context clauses
        self.node: _Node | None = None

    @property
    def filter(self):
        if not self.filters:
            return None
        if len(self.filters) == 1:
            return self.filters[0]
        return {"bool": {"must": self.filters}}


class _Node:
    """One scorer node: what the dispatchers need to know of a query kind
    that is neither a plain match nor a filter. Only the kind's own
    ``_translate`` branch builds one.

    - ``rank(s, k, live)``: the Searcher call that ranks it within the
      request's live mask ``live``.
    - ``total``: how ``hits.total`` and the aggs count it. "rank" runs
      ``rank`` at ``k = n_local`` (the exact predicate, which the match
      words would overcount); "scope" counts the live docs holding a
      match word, and the ``pins`` ids (pinned) as matches beside them.
    - ``scope``: the match words it adds beside the scoring terms.
    - ``rerank``: it re-ranks the must terms' matches (pinned, boosting,
      function_score, script_score, rank_feature, distance_feature), so
      it needs must terms and takes no should terms. Every other node
      stands alone (phrase, span, prefix, dis_max, constant_score) and
      takes no scored terms beside it."""

    def __init__(self, kind: str, rank, total: str = "scope", scope=(),
                 pins: list[int] | None = None, rerank: bool = False):
        self.kind, self.rank, self.total = kind, rank, total
        self.scope, self.pins, self.rerank = list(scope), pins, rerank


def _put(t: _Translated, node: _Node) -> None:
    """Give ``t`` its scorer node. A second one is refused: nodes do not
    compose yet, so the first would have to drop it."""
    if t.node is not None:
        raise NotImplementedError(
            f"{t.node.kind} and {node.kind} in one query: one scoring "
            "query kind per request is supported")
    t.node = node


def _phrase_node(toks: list[str]) -> _Node:
    return _Node("match_phrase",
                 lambda s, k, f: s.phrase_search(toks, k=k, filter=f),
                 "rank")


def _span_near_node(kind: str, toks: list[str], slop: int) -> _Node:
    return _Node(kind, lambda s, k, f: s.span_near(toks, slop=slop, k=k,
                                                   filter=f),
                 "rank")


def _rerank_node(kind: str, inner: _Translated, method: str,
                 **kw) -> _Node:
    """A node re-ranking ``inner``'s must-term matches with the Searcher
    ``method`` (extra keyword arguments ``kw``)."""
    return _Node(kind, lambda s, k, f: getattr(s, method)(
        inner.terms, k=k, filter=f, **kw), rerank=True)


def _attr_exists(s, name: str) -> bool:
    return name in s.doc_attrs


def _clause_filter(s, kind: str, arg) -> dict:
    """Translate one term-level query clause into the searcher filter DSL."""
    if kind == "term":
        ((f, v),) = arg.items()
        if isinstance(v, dict):
            v = v["value"]
        return ({"term": {f: v}} if _attr_exists(s, f)
                else {"field_term": {f: v}})
    if kind == "terms":
        ((f, vs),) = arg.items()
        return {"bool": {"should": [_clause_filter(s, "term", {f: v})
                                    for v in vs]}}
    if kind == "exists":
        return {"exists": arg["field"] if isinstance(arg, dict) else arg}
    if kind == "ids":
        return {"ids": [int(v) for v in arg["values"]]}
    if kind == "script":
        # ES script query: painless predicate over doc attrs (vectorized
        # in Searcher.filter_mask via the shared painless module)
        return {"script": arg["script"] if "script" in arg else arg}
    if kind == "range":
        return {"range": arg}
    if kind in ("prefix", "wildcard", "fuzzy", "regexp"):
        ((f, v),) = arg.items()
        if isinstance(v, dict):
            v = v.get("value", v)
        if f in _TEXT_FIELDS:
            return {kind: v}
        if kind == "prefix":
            return ({"attr_prefix": {f: v}} if _attr_exists(s, f)
                    else {"field_prefix": {f: v}})
        raise NotImplementedError(
            f"{kind} on non-text field {f!r} is not supported")
    if kind == "match":  # a match inside filter context: docs with >=1 term
        ((_f, v),) = arg.items()
        toks = _tokens(s, _text_of(v))
        return {"bool": {"should": [{"match": t} for t in toks]}}
    if kind == "bool":
        out = {}
        for key in ("must", "must_not", "should"):
            cl = arg.get(key, [])
            cl = _expand_clauses(cl if isinstance(cl, list) else [cl])
            if key == "must":
                fl = arg.get("filter", [])
                cl = cl + _expand_clauses(
                    fl if isinstance(fl, list) else [fl])
            if cl:
                out[key] = [
                    _clause_filter(s, *next(iter(c.items()))) for c in cl
                ]
        return {"bool": out}
    if kind == "match_all":
        return {"bool": {}}  # matches everything
    if kind == "nested":
        # flattened-field semantics (see _translate's nested branch)
        inner = arg["query"]
        ik, ia = next(iter(inner.items()))
        if ik in ("bool", "nested"):
            raise NotImplementedError(
                "nested supports a single term-level inner clause")
        return _clause_filter(s, ik, ia)
    raise NotImplementedError(f"unsupported query clause {kind!r}")


def _expand_clauses(cl: list) -> list:
    """Lenient clause-list normalization: a clause object holding
    SEVERAL query keys (the reference's Postman "SetOptions having
    signer" body packs ``term`` and ``exists`` into one ``must``
    object) expands into one single-key clause per key."""
    out = []
    for c in cl:
        if len(c) == 1:
            out.append(c)
        else:
            out.extend({k: v} for k, v in c.items())
    return out


def _tokens(s, text: str) -> list[str]:
    from astrologer_ray.functions.tokenizer import tokenize

    return tokenize(text, mode=s.mode)


def _note_boost(t: _Translated, toks: list[str], v) -> None:
    """Record an explicit per-clause ``boost`` for a match clause's
    tokens (ES: the clause's BM25 contribution multiplies by boost)."""
    if not (isinstance(v, dict) and "boost" in v):
        return
    b = float(v["boost"])
    for tok in toks:
        if tok in t.boosts:
            raise NotImplementedError(
                f"term {tok!r} appears in more than one boosted clause")
        t.boosts[tok] = b


def _translate(s, q: dict) -> _Translated:
    """Translate a request's ``query``. The compositions one scorer node
    cannot serve are refused here, where translation ends (a second node
    is refused by :func:`_put`): a standalone node beside scored terms,
    and a reranking node without must terms or with should terms."""
    t = _translate_query(s, q)
    n = t.node
    if n is not None and not n.rerank and (t.terms or t.should_terms):
        raise NotImplementedError(
            f"{n.kind} beside scored match terms in one query is not "
            "supported — split it into separate requests")
    if n is not None and n.rerank and (not t.terms or t.should_terms):
        raise NotImplementedError(
            f"{n.kind} requires match/more_like_this must terms "
            f"and no scoring should clauses")
    return t


def _translate_query(s, q: dict) -> _Translated:
    t = _Translated()
    if q is None:
        return t
    if not (isinstance(q, dict) and len(q) == 1):
        raise ValueError("query must be a single-key dict")
    kind, arg = next(iter(q.items()))
    if kind == "match_all":
        return t
    if kind == "wrapper":
        # ES wrapper query: a base64-encoded JSON query body — decode
        # and translate the inner query as if it were written inline
        import base64

        raw = arg["query"] if isinstance(arg, dict) else arg
        return _translate_query(s, json.loads(base64.b64decode(raw)))
    if kind == "match":
        ((_f, v),) = arg.items()
        t.terms = _tokens(s, _text_of(v))
        _note_boost(t, t.terms, v)
        return t
    if kind == "more_like_this":
        # expand the `like` text through the searcher's deterministic MLT
        # term selection, then reuse the whole terms machinery (scoring,
        # totals, agg scope) — more_like_this IS a term query once
        # selection happens (see Searcher.more_like_this)
        like = arg["like"]
        if isinstance(like, list):
            like = " ".join(like)
        t.terms = s.mlt_terms(
            like,
            max_query_terms=int(arg.get("max_query_terms", 25)),
            min_doc_freq=int(arg.get("min_doc_freq", 1)),
            min_term_freq=int(arg.get("min_term_freq", 1)),
        )
        if not t.terms:  # ES: no selectable like-terms -> no matches
            t.filters.append({"bool": {"must_not": [{"bool": {}}]}})
        return t
    if kind == "match_phrase":
        ((_f, v),) = arg.items()
        _put(t, _phrase_node(_tokens(s, _text_of(v))))
        return t
    if kind == "simple_query_string":
        # the subset users actually type: whitespace-separated terms
        # (OR by default, AND via default_operator), +term (required),
        # -term (excluded), "quoted phrase" (one per query). Lucene
        # operators beyond that (| ( ) ~ *) refuse loudly.
        qs = str(arg["query"])
        for ch in "|()~*":
            if ch in qs:
                raise NotImplementedError(
                    f"simple_query_string operator {ch!r} is not "
                    "supported (terms, +, -, and one quoted phrase are)")
        import re as _re

        musts: list[str] = []
        nots: list[str] = []
        frees: list[str] = []
        for phr in _re.findall(r'"([^"]*)"', qs):
            _put(t, _phrase_node(_tokens(s, phr)))
        qs = _re.sub(r'"[^"]*"', " ", qs)
        for raw in qs.split():
            if raw.startswith("+"):
                musts.extend(_tokens(s, raw[1:]))
            elif raw.startswith("-"):
                nots.extend(_tokens(s, raw[1:]))
            else:
                frees.extend(_tokens(s, raw))
        and_op = str(arg.get("default_operator", "or")).lower() == "and"
        _apply_term_groups(t, musts, frees, nots, and_op)
        return t
    if kind == "query_string":
        return _translate_query_string(s, t, arg)
    if kind == "multi_match":
        # the index analyzes ONE text field (content), so best_fields /
        # most_fields / cross_fields all reduce to match over it, and
        # type=phrase to match_phrase — the fields list only selects
        # among text fields that are a single field here
        mtype = arg.get("type", "best_fields")
        if mtype in ("best_fields", "most_fields", "cross_fields"):
            t.terms = _tokens(s, arg["query"])
            return t
        if mtype == "phrase":
            _put(t, _phrase_node(_tokens(s, arg["query"])))
            return t
        raise NotImplementedError(
            f"multi_match type {mtype!r} is not supported")
    if kind == "match_phrase_prefix":
        ((_f, v),) = arg.items()
        me = int(v.get("max_expansions", 50) if isinstance(v, dict) else 50)
        toks = _tokens(s, _text_of(v))
        _put(t, _Node(kind, lambda s, k, f: s.match_phrase_prefix(
            toks, k=k, max_expansions=me, filter=f), "rank"))
        return t
    if kind == "match_bool_prefix":
        ((_f, v),) = arg.items()
        if isinstance(v, dict) and \
                str(v.get("operator", "or")).lower() != "or":
            raise NotImplementedError(
                "match_bool_prefix supports the default OR operator only")
        me = int(v.get("max_expansions", 50) if isinstance(v, dict) else 50)
        toks = _tokens(s, _text_of(v))
        _put(t, _Node(kind, lambda s, k, f: s.match_bool_prefix(
            toks, k=k, max_expansions=me, filter=f), "rank"))
        return t
    if kind == "terms_set":
        ((_f, spec),) = arg.items()
        if "minimum_should_match_field" in spec or \
                "minimum_should_match_script" in spec:
            raise NotImplementedError(
                "terms_set supports a literal minimum_should_match only "
                "(no per-doc field / script)")
        t.should_terms = [str(w) for w in spec["terms"]]
        t.msm = int(spec.get("minimum_should_match", 1))
        return t
    if kind == "pinned":
        # ES counts the pinned ids as matches even when they hold no query
        # term (search_pinned returns them as 0.0-score hits), so total =
        # |ids ∪ organic matches|, never < the page length
        inner = _translate_query(s, arg["organic"])
        ids = [int(v) for v in arg["ids"]]
        _put(inner, _Node(kind, lambda s, k, f: s.search_pinned(
            inner.terms, ids, k=k, filter=f), pins=ids, rerank=True))
        return inner
    if kind == "span_near":
        if not arg.get("in_order", True):
            raise NotImplementedError("span_near supports in_order only")
        _put(t, _span_near_node(kind, [next(iter(c["span_term"].values()))
                                        for c in arg["clauses"]],
                                int(arg.get("slop", 0))))
        return t
    if kind == "span_first":
        m = arg["match"]
        if "span_term" not in m:
            raise NotImplementedError(
                "span_first supports a span_term match only")
        term, end = next(iter(m["span_term"].values())), int(arg["end"])
        _put(t, _Node(kind, lambda s, k, f: s.span_first(term, end, k=k,
                                                         filter=f),
                      "rank"))
        return t
    if kind == "span_or":
        # a span_or of span_terms matches docs holding ANY clause term and
        # scores the BM25 sum of the matching terms — exactly this
        # engine's should-only bool (ES default minimum_should_match=1)
        for c in arg["clauses"]:
            if "span_term" not in c:
                raise NotImplementedError(
                    "span_or supports span_term clauses only")
            t.should_terms.append(next(iter(c["span_term"].values())))
        return t
    if kind == "span_not":
        if "span_term" not in arg["include"] or \
                "span_term" not in arg["exclude"]:
            raise NotImplementedError(
                "span_not supports span_term include/exclude only")
        dist = int(arg.get("dist", 0))
        inc = next(iter(arg["include"]["span_term"].values()))
        exc = next(iter(arg["exclude"]["span_term"].values()))
        pre, post = int(arg.get("pre", dist)), int(arg.get("post", dist))
        _put(t, _Node(kind, lambda s, k, f: s.span_not(
            inc, exc, pre=pre, post=post, k=k, filter=f), "rank"))
        return t
    if kind in ("span_containing", "span_within"):
        big, little = arg["big"], arg["little"]
        if "span_near" not in big or "span_term" not in little:
            raise NotImplementedError(
                f"{kind} supports a span_near big and a span_term little")
        bn = big["span_near"]
        if not bn.get("in_order", True):
            raise NotImplementedError(f"{kind} big supports in_order only")
        bt = [next(iter(c["span_term"].values())) for c in bn["clauses"]]
        lt = next(iter(little["span_term"].values()))
        slop = int(bn.get("slop", 0))
        # same matched docs; the scored span differs (ES returns big
        # spans for span_containing, little for span_within)
        score = "big" if kind == "span_containing" else "little"
        _put(t, _Node(kind, lambda s, k, f: s.span_containing(
            bt, lt, slop=slop, score=score, k=k, filter=f),
            "rank"))
        return t
    if kind == "combined_fields":
        # ES combined_fields: term-centric BM25 over N text fields; the
        # index analyzes ONE text field, so the blended field IS that
        # field and the query degenerates to match (operator honored)
        op = str(arg.get("operator", "or")).lower()
        _apply_term_groups(t, [], _tokens(s, arg["query"]), [],
                           op == "and")
        return t
    if kind == "nested":
        # ES nested scopes inner conditions to ONE object under `path`;
        # the engine flattens nested keyword paths to multi-valued
        # fields at build time (stages/spimi._kw_values), where a SINGLE
        # term-level condition is exactly equivalent (some object
        # matches <=> the flattened field contains the value).
        # Same-object multi-condition matching is not representable
        # over flattened fields — refuse loudly.
        inner = arg["query"]
        if not (isinstance(inner, dict) and len(inner) == 1):
            raise ValueError("nested query must hold a single-key query")
        ik, ia = next(iter(inner.items()))
        if ik in ("bool", "nested"):
            raise NotImplementedError(
                "nested supports a single term-level inner clause "
                "(same-object multi-condition matching is not "
                "representable over the flattened keyword field)")
        t.filters.append(_clause_filter(s, ik, ia))
        return t
    if kind == "intervals":
        # ES intervals query, the ordered `match` rule: terms must appear
        # in order within max_gaps intervening positions — exactly this
        # engine's span_near predicate (slop = max_gaps), so it reuses
        # that scorer. Unordered / all_of / any_of rules refuse.
        ((_f, rule),) = arg.items()
        m = rule.get("match")
        if m is None or not m.get("ordered", False):
            raise NotImplementedError(
                "intervals supports the ordered `match` rule only "
                "(== span_near)")
        gaps = int(m.get("max_gaps", -1))
        if gaps < 0:
            # ES default max_gaps=-1 means unlimited distance; this
            # engine's span predicate needs a bound — require one
            raise NotImplementedError(
                "intervals `match` needs an explicit max_gaps >= 0")
        _put(t, _span_near_node(kind, _tokens(s, m["query"]), gaps))
        return t
    if kind == "function_score":
        inner = _translate_query(s, arg.get("query"))
        fns = arg.get("functions", [])
        if arg.get("boost_mode", "multiply") == "multiply" and \
                arg.get("score_mode", "multiply") == "multiply" and \
                "max_boost" not in arg and len(fns) == 1 and \
                set(fns[0]) == {"gauss"}:
            # the single-gauss multiply fast path
            # (Searcher.function_score; ES default boost_mode)
            ((attr, g),) = fns[0]["gauss"].items()
            _put(inner, _rerank_node(
                kind, inner, "function_score", decay_attr=attr,
                origin=float(g["origin"]), scale=float(g["scale"]),
                decay=float(g.get("decay", 0.5))))
            return inner
        # general form: gauss / field_value_factor / script_score / bare
        # weight functions, each optionally filter-gated, combined by
        # score_mode then boost_mode (Searcher.search_function_score)
        parsed = []
        for f in fns:
            f = dict(f)
            pf: dict = {}
            if "filter" in f:
                pf["filter"] = _clause_filter(
                    s, *next(iter(f.pop("filter").items())))
            if "weight" in f:
                pf["weight"] = float(f.pop("weight"))
            if len(f) > 1 or (f and next(iter(f)) not in (
                    "gauss", "field_value_factor", "script_score")):
                raise NotImplementedError(
                    f"unsupported function_score function {sorted(f)}")
            pf.update(f)
            parsed.append(pf)
        _put(inner, _rerank_node(
            kind, inner, "search_function_score", functions=parsed,
            score_mode=arg.get("score_mode", "multiply"),
            boost_mode=arg.get("boost_mode", "multiply"),
            max_boost=arg.get("max_boost")))
        return inner
    if kind == "script_score":
        # ES script_score query: REPLACE the inner query's score with the
        # script's value — exactly function_score's general machinery
        # with one script_score function and boost_mode=replace. Scripts
        # referencing `_score` refuse at painless translation (the
        # arithmetic-over-doc-attrs subset only).
        inner = _translate_query(s, arg["query"])
        if "min_score" in arg:
            raise NotImplementedError(
                "script_score min_score is not supported (use the "
                "top-level min_score)")
        _put(inner, _rerank_node(
            kind, inner, "search_function_score",
            functions=[{"script_score": {"script": arg["script"]}}],
            score_mode="multiply", boost_mode="replace", max_boost=None))
        return inner
    if kind == "boosting":
        # positive supplies candidates + BM25; negative DEMOTES (does not
        # exclude) by negative_boost — Searcher.search_boosting
        inner = _translate_query(s, arg["positive"])
        _put(inner, _rerank_node(
            kind, inner, "search_boosting",
            negative=_clause_filter(s, *next(iter(arg["negative"].items()))),
            negative_boost=float(arg.get("negative_boost", 0.5))))
        return inner
    if kind == "dis_max":
        qs = [_tokens(s, _text_of(next(iter(sub["match"].values()))))
              for sub in arg["queries"]]
        tie = float(arg.get("tie_breaker", 0.0))
        _put(t, _Node(kind, lambda s, k, f: s.search_dis_max(
            qs, tie_breaker=tie, k=k, filter=f),
            scope=[w for q in qs for w in q]))
        return t
    if kind == "constant_score":
        # the filter scopes the hits, the total and the aggs like any
        # filter clause; the node only scores them all ``boost``
        t.filters.append(_clause_filter(s, *next(iter(arg["filter"].items()))))
        boost = float(arg.get("boost", 1.0))
        _put(t, _Node(kind, lambda s, k, f: s.search_constant_score(
            f, boost=boost, k=k)))
        return t
    if kind == "bool":
        must = arg.get("must", [])
        must = _expand_clauses(must if isinstance(must, list) else [must])
        match_groups: list[list[str]] = []  # per-clause token groups
        for c in must:
            ck, cv = next(iter(c.items()))
            if ck == "match":
                ((_f, v),) = cv.items()
                toks = _tokens(s, _text_of(v))
                _note_boost(t, toks, v)
                match_groups.append(toks)
                t.terms.extend(toks)
            elif ck == "match_phrase":
                ((_f, v),) = cv.items()
                _put(t, _phrase_node(_tokens(s, _text_of(v))))
            else:
                t.filters.append(_clause_filter(s, ck, cv))
        if len(match_groups) > 1:
            # ES requires EVERY must clause to match; Searcher.search's
            # candidate set is docs matching ANY scoring term, so add a
            # >=1-term filter per clause to intersect them (scoring —
            # the BM25 sum over all clause terms — is unchanged)
            for toks in match_groups:
                t.filters.append(
                    {"bool": {"should": [{"match": w} for w in toks]}})
        fl = arg.get("filter", [])
        for c in _expand_clauses(fl if isinstance(fl, list) else [fl]):
            t.filters.append(_clause_filter(s, *next(iter(c.items()))))
        mn = arg.get("must_not", [])
        mn = _expand_clauses(mn if isinstance(mn, list) else [mn])
        if mn:
            t.filters.append({"bool": {"must_not": [
                _clause_filter(s, *next(iter(c.items()))) for c in mn]}})
        should = arg.get("should", [])
        should = _expand_clauses(
            should if isinstance(should, list) else [should])
        for c in should:
            ck, cv = next(iter(c.items()))
            if ck == "rank_feature":
                fn = next((f for f in ("saturation", "log", "sigmoid")
                           if f in cv), "saturation")
                spec = cv.get(fn, {})
                _put(t, _rerank_node(
                    ck, t, "search_rank_feature", feature_attr=cv["field"],
                    function=fn, pivot=float(spec.get("pivot", 1.0)),
                    scaling_factor=float(spec.get("scaling_factor", 1.0)),
                    exponent=float(spec.get("exponent", 1.0)),
                    boost=float(cv.get("boost", 1.0))))
                continue
            if ck == "distance_feature":
                _put(t, _rerank_node(
                    ck, t, "search_distance_feature",
                    feature_attr=cv["field"], origin=float(cv["origin"]),
                    pivot=float(cv["pivot"]),
                    boost=float(cv.get("boost", 1.0))))
                continue
            if ck != "match":
                raise NotImplementedError(
                    "only match/rank_feature/distance_feature clauses "
                    "supported in scoring bool.should")
            ((_f, v),) = cv.items()
            stoks = _tokens(s, _text_of(v))
            _note_boost(t, stoks, v)
            t.should_terms.extend(stoks)
        t.msm = int(arg.get("minimum_should_match", 0))
        return t
    # a bare term-level query: filter context
    t.filters.append(_clause_filter(s, kind, arg))
    return t


def _apply_term_groups(t: _Translated, musts: list[str], frees: list[str],
                       nots: list[str], and_op: bool) -> None:
    """Shared tail for the query-string family: required tokens each add
    a >=1-term filter (candidates intersect, ES semantics; scoring is
    the BM25 sum as usual); excluded tokens add a must_not filter."""
    t.terms.extend(musts + frees)
    groups = [[w] for w in musts] + \
        ([[w] for w in frees] if and_op else [])
    if len(groups) > 1 or (groups and (frees if not and_op else [])):
        for toks in groups:
            t.filters.append(
                {"bool": {"should": [{"match": w} for w in toks]}})
    if nots:
        t.filters.append({"bool": {"must_not": [
            {"match": w} for w in nots]}})


def _translate_query_string(s, t: _Translated, arg) -> _Translated:
    """ES ``query_string``, the Kibana-style subset users actually type:
    free terms over the text field (OR by default, homogeneous ``AND`` /
    ``OR`` keywords or ``default_operator``), ``+term`` / ``-term`` /
    ``NOT term``, one ``"quoted phrase"``, ``term^boost``,
    ``field:value`` clauses (always AND-composed filters, term or
    trailing-``*`` prefix), and a trailing-``*`` prefix on a free term
    (gates candidates, adds no score). Parentheses, ranges, fuzzies and
    interior wildcards refuse loudly."""
    if isinstance(arg, str):
        arg = {"query": arg}
    qs = str(arg["query"])
    for ch in "()[]{}~?":
        if ch in qs:
            raise NotImplementedError(
                f"query_string operator {ch!r} is not supported "
                "(terms, +, -, NOT, AND/OR, field:value, term^boost, "
                "one quoted phrase, trailing * prefix are)")
    for phr in re.findall(r'"([^"]*)"', qs):
        _put(t, _phrase_node(_tokens(s, phr)))
    qs = re.sub(r'"[^"]*"', " ", qs)
    toks = qs.split()
    ops = {w.upper() for w in toks if w.upper() in ("AND", "OR")}
    if len(ops) > 1:
        raise NotImplementedError(
            "query_string with mixed AND/OR operators is not supported")
    and_op = ("AND" in ops) or (
        not ops
        and str(arg.get("default_operator", "or")).lower() == "and")
    musts: list[str] = []
    nots: list[str] = []
    frees: list[str] = []
    neg = False
    for raw in toks:
        up = raw.upper()
        if up in ("AND", "OR"):
            continue
        if up == "NOT":
            neg = True
            continue
        this_neg, neg = neg, False
        if raw.startswith("-"):
            this_neg, raw = True, raw[1:]
        req = raw.startswith("+")
        if req:
            raw = raw[1:]
        boost = None
        if "^" in raw:
            raw, bs = raw.rsplit("^", 1)
            boost = float(bs)
        field = None
        if ":" in raw:
            field, raw = raw.split(":", 1)
        star = raw.endswith("*")
        if star:
            raw = raw[:-1]
        if "*" in raw:
            raise NotImplementedError(
                "only a trailing * wildcard is supported in query_string")
        if field is not None and field not in _TEXT_FIELDS:
            cl = _clause_filter(s, "prefix" if star else "term",
                                {field: raw})
            t.filters.append({"bool": {"must_not": [cl]}}
                             if this_neg else cl)
            continue
        words = _tokens(s, raw)
        if star:
            if len(words) != 1:
                raise NotImplementedError(
                    "a * prefix must follow a single analyzed token")
            cl = {"prefix": words[0]}
            t.filters.append({"bool": {"must_not": [cl]}}
                             if this_neg else cl)
            continue
        if this_neg:
            nots.extend(words)
            continue
        if boost is not None:
            for w in words:
                if w in t.boosts:
                    raise NotImplementedError(
                        f"term {w!r} boosted more than once")
                t.boosts[w] = boost
        (musts if req else frees).extend(words)
    _apply_term_groups(t, musts, frees, nots, and_op)
    return t


def _parse_sort(sort) -> list[tuple[str, bool]] | None:
    """A request's ``sort`` as ``[(attr, descending), ...]``; None for the
    default ranking (no sort, or a single ``_score`` key)."""
    if sort is None:
        return None
    parsed = []
    for spec in sort if isinstance(sort, list) else [sort]:
        ((attr, opts),) = spec.items() if isinstance(spec, dict) \
            else ((spec, {}),)
        parsed.append((attr, (opts or {}).get("order", "desc") == "desc"))
    if len(parsed) > 1 and any(a == "_score" for a, _ in parsed):
        raise NotImplementedError(
            "_score inside a multi-field sort is not supported")
    return None if parsed[0][0] == "_score" else parsed


def _run_hits(s, t: _Translated, live, size, min_score=None, after=None):
    """The query's top ``size`` hits in its own ranking, within the live
    mask ``live`` of ``t``'s filter clauses (``Searcher._live_mask``). A
    scorer node ranks by ``(k, live)`` alone, so the keys it would drop
    are refused: ``min_score``, ``search_after`` and a match clause's
    ``boost``."""
    if t.node is not None:
        for key, given in (("min_score", min_score is not None),
                           ("search_after", after is not None),
                           ("boost", bool(t.boosts))):
            if given:
                raise NotImplementedError(
                    f"{key} is not supported with a {t.node.kind} query")
        return t.node.rank(s, size, live)
    if t.terms or t.should_terms:
        return s.search(t.terms, k=size, filter=live,
                        should_terms=t.should_terms or None,
                        min_should_match=t.msm, boosts=t.boosts or None,
                        min_score=min_score, after=after)
    return s.search_constant_score(live, boost=1.0, k=size)


def _sort_hits(s, sort, size, keep, after):
    """Field sort (ES tie-breaker keys, then doc_id asc) of the docs in
    the mask ``keep``; the search_after cursor is ``(v1, ..., vN,
    doc_id)``."""
    if len(sort) > 1:
        return s.sort_by_attrs(sort, k=size, filter=keep, after=after)
    ((attr, desc),) = sort
    return s.sort_by_attr(attr, k=size, descending=desc, filter=keep,
                          after=after)


def _within(s, keep, pred: dict) -> np.ndarray:
    """A bucket's docs: the live docs matching the bucket's own predicate
    ``pred`` (filter DSL) within the enclosing scope's mask ``keep``
    (None: every doc). Only the predicate is evaluated — the recursion
    step that lets bucket aggs nest arbitrarily (ES's terms-inside-terms,
    date_histogram-with-terms, ... shapes)."""
    m = s._live_mask(pred)  # fresh: ours to mutate
    if keep is not None:
        m &= keep
    return m


def _all_docs(s, keep) -> np.ndarray:
    """A scope mask as an array: None (every doc, no tombstones) becomes
    all-true."""
    return np.ones(s.n_local, dtype=bool) if keep is None else keep


def _popcount(s, keep) -> int:
    return s.n_local if keep is None else int(np.count_nonzero(keep))


def _histogram(s, arg: dict, subs: dict, keep,
               qterms: list | None = None) -> list[dict]:
    attr = arg["field"]
    interval = arg.get("interval") or arg.get("fixed_interval") \
        or arg.get("calendar_interval")
    width = _CALENDAR.get(interval, interval)
    width = float(width)
    col = np.asarray(s._attr(attr), dtype=np.float64)
    idx = np.flatnonzero(_all_docs(s, keep) & ~np.isnan(col))
    if len(idx) == 0:
        return []
    if not subs:
        # counts-only histogram: bincount over integer bucket indices —
        # no 1M-row sort per request (the sort path below exists only to
        # split doc groups for sub-agg recursion). Guarded against
        # pathological ranges (outlier / tiny-interval) where the dense
        # count array would dwarf the sort.
        bidx = np.floor(col[idx] / width).astype(np.int64)
        lo, hi = int(bidx.min()), int(bidx.max())
        if hi - lo < 4_000_000:
            counts = np.bincount(bidx - lo)
            nz = np.flatnonzero(counts)
            return [{"key": float((lo + int(i)) * width),
                     "doc_count": int(counts[i])} for i in nz]
    # ES `rate` is only legal inside a histogram bucket (it needs the
    # parent interval) — evaluated here, not in _run_aggs
    rate_subs = {n: sp["rate"] for n, sp in subs.items()
                 if isinstance(sp, dict) and set(sp) == {"rate"}}
    for rarg in rate_subs.values():
        if rarg.get("mode", "sum") != "sum":
            raise NotImplementedError(
                f"rate mode {rarg['mode']!r} is not supported (sum only)")
    # ES `cumulative_cardinality`: running distinct count across buckets
    # in key order — needs the raw per-bucket value sets, so it is also
    # a histogram-walk computation; buckets_path must name a sibling
    # cardinality sub-agg whose field we accumulate (exact here, like
    # the local cardinality metric itself)
    cc_subs = {}
    for n, sp in subs.items():
        if isinstance(sp, dict) and set(sp) == {"cumulative_cardinality"}:
            path = sp["cumulative_cardinality"]["buckets_path"]
            sib = subs.get(path)
            if not (isinstance(sib, dict) and set(sib) == {"cardinality"}):
                raise NotImplementedError(
                    "cumulative_cardinality buckets_path must name a "
                    "sibling cardinality sub-agg")
            cc_subs[n] = sib["cardinality"]["field"]
    # ES `moving_percentiles`: percentiles over a moving bucket window
    # (moving_fn window semantics: [i-window+shift, i+shift)); ES merges
    # t-digest sketches — over raw local values this is exact, strictly
    # tighter than the sketch merge
    mp_subs = {}
    for n, sp in subs.items():
        if isinstance(sp, dict) and set(sp) == {"moving_percentiles"}:
            arg_ = sp["moving_percentiles"]
            sib = subs.get(arg_["buckets_path"])
            if not (isinstance(sib, dict) and set(sib) == {"percentiles"}):
                raise NotImplementedError(
                    "moving_percentiles buckets_path must name a "
                    "sibling percentiles sub-agg")
            mp_subs[n] = {
                "field": sib["percentiles"]["field"],
                "percents": [float(p) for p in sib["percentiles"].get(
                    "percents", _DEFAULT_PERCENTS)],
                "window": int(arg_["window"]),
                "shift": int(arg_.get("shift", 0)),
            }
    other_subs = {n: sp for n, sp in subs.items()
                  if n not in rate_subs and n not in cc_subs
                  and n not in mp_subs}
    buckets = np.floor(col[idx] / width) * width
    order = np.argsort(buckets, kind="stable")
    idx, buckets = idx[order], buckets[order]
    bounds = np.flatnonzero(np.diff(buckets)) + 1
    out = []
    cc_seen: dict[str, set] = {n: set() for n in cc_subs}
    groups = list(zip(np.split(idx, bounds),
                      buckets[np.r_[0, bounds]] if len(buckets) else []))
    mp_vals = {}
    for mname, marg in mp_subs.items():
        col_v = np.asarray(s._attr(marg["field"]), dtype=np.float64)
        mp_vals[mname] = [col_v[grp] for grp, _ in groups]
    # distinct values as codes; a missing value (NaN / None, code -1)
    # never counts, matching the sibling cardinality metric
    cc_cols = {n: s._attr_codes(f)[0] for n, f in cc_subs.items()}
    for i, (grp, key) in enumerate(groups):
        b = {"key": float(key), "doc_count": int(len(grp))}
        for mname, marg in mp_subs.items():
            lo_i = max(0, i - marg["window"] + marg["shift"])
            hi_i = max(lo_i, min(len(groups), i + marg["shift"]))
            win = (np.concatenate(mp_vals[mname][lo_i:hi_i])
                   if hi_i > lo_i else np.empty(0))
            win = win[~np.isnan(win)]
            b[mname] = {"values": {
                str(p): (float(np.percentile(win, p)) if len(win)
                         else None)
                for p in marg["percents"]}}
        for cname in cc_subs:
            c = cc_cols[cname][grp]
            cc_seen[cname].update(c[c >= 0].tolist())
            b[cname] = {"value": len(cc_seen[cname])}
        for rname, rarg in rate_subs.items():
            if rarg.get("field"):
                v = np.asarray(s._attr(rarg["field"]),
                               dtype=np.float64)[grp]
                total = float(np.nansum(v))
            else:
                total = float(len(grp))
            # no unit: the rate per parent interval (ES), i.e. unscaled
            b[rname] = {"value": total * _RATE_UNITS[rarg["unit"]] / width
                        if "unit" in rarg else total}
        if other_subs:
            # recurse within the bucket's half-open range, so sub-aggs
            # may be metric OR bucket aggs (full ES nesting)
            part = {"range": {attr: {"gte": float(key),
                                     "lt": float(key) + width}}}
            b.update(_run_aggs(s, other_subs, _within(s, keep, part),
                               qterms))
        out.append(b)
    return out


def _epoch_bound(v) -> float | None:
    """A range/date_range bound: numeric passes through; an ISO-8601
    string becomes epoch seconds (naive stamps read as UTC, like the
    corpus attrs). Date-math expressions (``now-1d``) refuse."""
    if v is None or not isinstance(v, str):
        return v if v is None else float(v)
    from datetime import datetime, timezone

    if v.startswith("now"):
        raise NotImplementedError(
            "date-math bounds (now...) are not supported — pass an "
            "ISO-8601 timestamp or epoch seconds")
    dt = datetime.fromisoformat(v)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


# ES default percents for the percentiles agg
_DEFAULT_PERCENTS = (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0)


def _metric_result(s, fn: str, arg: dict, keep: np.ndarray) -> dict:
    """One metric agg over the docs selected by ``keep`` — the shared
    kernel behind top-level metric aggs and terms-bucket sub-aggs.
    Returns the ES-shaped result dict for ``fn``."""
    if fn == "weighted_avg":
        # ES weighted_avg: {"value": {"field": v}, "weight": {"field": w}}
        vv = np.asarray(s._attr(arg["value"]["field"]), dtype=np.float64)
        ww = np.asarray(s._attr(arg["weight"]["field"]), dtype=np.float64)
        m = keep & ~np.isnan(vv) & ~np.isnan(ww)
        tw = float(ww[m].sum())
        if tw == 0.0:
            return {"value": None}
        return {"value": float((vv[m] * ww[m]).sum() / tw)}
    if fn == "string_stats":
        col = s._gather(np.asarray(s._attr(arg["field"])), keep)
        vals = [str(x) for x in col if x is not None]
        if not vals:
            return {"count": 0, "min_length": None, "max_length": None,
                    "avg_length": None, "entropy": 0.0}
        lens = np.array([len(v) for v in vals], dtype=np.int64)
        # ES string_stats entropy: Shannon over the character
        # distribution of all values concatenated
        from collections import Counter
        cc = Counter("".join(vals))
        tot = sum(cc.values())
        ps = np.array(list(cc.values()), dtype=np.float64) / tot
        return {"count": int(len(vals)), "min_length": int(lens.min()),
                "max_length": int(lens.max()),
                "avg_length": float(lens.mean()),
                "entropy": float(-(ps * np.log2(ps)).sum())}
    if fn == "top_metrics":
        # ES top_metrics: the metric values of the top-`size` docs by a
        # sort field — the "value at the max" agg
        ((sf, order),) = arg["sort"].items() if isinstance(arg["sort"],
                                                           dict) \
            else ((arg["sort"], "desc"),)
        sv = np.asarray(s._attr(sf), dtype=np.float64)
        ids = np.flatnonzero(keep & ~np.isnan(sv))
        desc = (order if isinstance(order, str)
                else order.get("order", "desc")) == "desc"
        k = int(arg.get("size", 1))
        srt = ids[np.lexsort((ids, -sv[ids] if desc else sv[ids]))][:k]
        fields = [m["field"] for m in arg["metrics"]] \
            if isinstance(arg["metrics"], list) else [arg["metrics"]["field"]]
        cols = {f: np.asarray(s._attr(f), dtype=np.float64)
                for f in fields}
        return {"top": [
            {"sort": [float(sv[i])],
             "metrics": {f: float(cols[f][i]) for f in fields}}
            for i in srt]}
    if fn == "cardinality":
        # distinct valued codes (None / NaN are code -1, never counted)
        counts, _ = s._code_counts(arg["field"], keep)
        return {"value": int(np.count_nonzero(counts))}
    col = np.asarray(s._attr(arg["field"]), dtype=np.float64)
    v = s._gather(col, keep)
    v = v[~np.isnan(v)]
    n = int(len(v))
    if fn == "value_count":
        return {"value": n}
    if fn == "sum":
        return {"value": float(v.sum())}
    if fn == "stats":
        return {
            "count": n,
            "min": float(v.min()) if n else None,
            "max": float(v.max()) if n else None,
            "avg": float(v.mean()) if n else None,
            "sum": float(v.sum()),
        }
    if fn == "percentiles":
        pcts = [float(p) for p in arg.get("percents", _DEFAULT_PERCENTS)]
        return {"values": {
            str(p): float(np.quantile(v, p / 100.0)) if n else None
            for p in pcts}}
    if fn == "percentile_ranks":
        # exact: % of observed values <= probe (the t-digest's limit;
        # distributed counterpart pipelines.aggs.percentile_ranks)
        probes = [float(x) for x in arg["values"]]
        return {"values": {
            str(p): float(100.0 * (v <= p).sum() / n) if n else None
            for p in probes}}
    if fn == "extended_stats":
        # population moments, like ES (variance = E[x^2] - E[x]^2);
        # sigma (default 2) shapes std_deviation_bounds
        if n == 0:
            return {"count": 0, "min": None, "max": None, "avg": None,
                    "sum": 0.0}
        sigma = float(arg.get("sigma", 2.0))
        avg = float(v.mean())
        var_p = float(v.var())            # population (ES "variance")
        var_s = float(v.var(ddof=1)) if n > 1 else 0.0
        std_p, std_s = float(np.sqrt(var_p)), float(np.sqrt(var_s))
        return {
            "count": n, "min": float(v.min()), "max": float(v.max()),
            "avg": avg, "sum": float(v.sum()),
            "sum_of_squares": float((v * v).sum()),
            "variance": var_p, "variance_population": var_p,
            "variance_sampling": var_s,
            "std_deviation": std_p, "std_deviation_population": std_p,
            "std_deviation_sampling": std_s,
            "std_deviation_bounds": {
                "upper": avg + sigma * std_p, "lower": avg - sigma * std_p,
                "upper_population": avg + sigma * std_p,
                "lower_population": avg - sigma * std_p,
                "upper_sampling": avg + sigma * std_s,
                "lower_sampling": avg - sigma * std_s,
            },
        }
    if fn == "boxplot":
        # exact quartiles (linear interpolation — the t-digest's limit)
        if n == 0:
            return {"min": None, "max": None, "q1": None, "q2": None,
                    "q3": None}
        q1, q2, q3 = (float(np.quantile(v, q)) for q in (0.25, 0.5, 0.75))
        return {"min": float(v.min()), "max": float(v.max()),
                "q1": q1, "q2": q2, "q3": q3}
    if fn == "median_absolute_deviation":
        # exact MAD (ES approximates with a t-digest; exact is the limit)
        if n == 0:
            return {"value": None}
        med = float(np.median(v))
        return {"value": float(np.median(np.abs(v - med)))}
    if fn in ("avg", "min", "max"):
        if n == 0:
            return {"value": None}  # ES: null over no values
        return {"value": float({"avg": v.mean, "min": v.min,
                                "max": v.max}[fn]())}
    raise NotImplementedError(f"unsupported metric agg {fn!r}")


# bucket aggs that accept nested sub-aggregations (recursion via
# _within); a sub-agg under any other kind raises rather than being
# silently dropped
_SUB_CAPABLE = {"terms", "histogram", "date_histogram",
                "auto_date_histogram", "range", "date_range", "filters",
                "global", "missing", "sampler", "diversified_sampler"}

# ES *pipeline aggregations* — post-processing over already-reduced
# buckets (driver-side O(#buckets); the distributed counterparts live in
# pipelines.aggs.pipeline_aggs / bucket_script / bucket_selector).
# Parent pipelines sit INSIDE a bucket agg's `aggs` and see its ordered
# bucket list; sibling pipelines sit NEXT TO a bucket agg and reduce it.
_PARENT_PIPELINE = {"cumulative_sum", "derivative", "serial_diff",
                    "bucket_script", "bucket_selector", "bucket_sort",
                    "moving_fn", "normalize"}
_SIBLING_PIPELINE = {"avg_bucket", "sum_bucket", "min_bucket",
                     "max_bucket", "stats_bucket", "percentiles_bucket",
                     "extended_stats_bucket"}


def _moving_fn_kernel(script):
    """Compile a ``moving_fn`` script — the documented
    ``MovingFunctions.<name>(values, ...)`` forms — to a window kernel
    over a float64 array (gaps already dropped, like ES's default
    skip gap policy). Empty windows return None (ES serializes the
    NaN those functions produce as null)."""
    src = script["source"] if isinstance(script, dict) else script
    m = re.match(r"\s*MovingFunctions\.(\w+)\s*\(", src)
    if not m:
        raise NotImplementedError(
            f"moving_fn supports the MovingFunctions.* forms, not {src!r}")
    name = m.group(1)
    if name == "ewma":
        am = re.search(r",\s*([0-9.]+)\s*\)", src)
        if not am:
            raise NotImplementedError(
                "MovingFunctions.ewma needs a numeric alpha literal")
        alpha = float(am.group(1))

        def ewma(w):
            avg = None
            for v in w:
                avg = v if avg is None else alpha * v + (1 - alpha) * avg
            return avg
        return ewma
    if name == "linearWeightedAvg":
        def lwa(w):
            if not len(w):
                return None
            wts = np.arange(1, len(w) + 1, dtype=np.float64)
            return float((w * wts).sum() / wts.sum())
        return lwa
    simple = {
        "max": lambda w: float(w.max()) if len(w) else None,
        "min": lambda w: float(w.min()) if len(w) else None,
        "sum": lambda w: float(w.sum()) if len(w) else None,
        "unweightedAvg": lambda w: float(w.mean()) if len(w) else None,
        # ES stdDev(values, avg): population deviation around the
        # passed mean — the docs always pass unweightedAvg(values)
        "stdDev": lambda w: float(
            np.sqrt(((w - w.mean()) ** 2).mean())) if len(w) else None,
    }
    if name not in simple:
        raise NotImplementedError(
            f"unsupported MovingFunctions.{name}")
    return simple[name]


def _bucket_path_value(bucket: dict, path: str) -> float | None:
    """Resolve an ES ``buckets_path`` against one bucket dict:
    ``_count`` -> doc_count, ``m`` -> bucket["m"]["value"], ``m.sub`` ->
    bucket["m"]["sub"]. None when absent (ES ``gap_policy: skip``)."""
    if path == "_count":
        return float(bucket["doc_count"])
    name, _, key = path.partition(".")
    node = bucket.get(name)
    if not isinstance(node, dict):
        return None
    v = node.get(key or "value")
    return None if v is None else float(v)


def _script_eval(script, params: dict):
    """Evaluate a ``bucket_script`` / ``bucket_selector`` script — the
    arithmetic/comparison subset of painless over ``params.*`` variables
    (``params.a / params.b > 0.5``, ``&&``/``||``). No builtins are
    exposed; anything beyond that subset raises."""
    src = script["source"] if isinstance(script, dict) else script
    return painless.evaluate(painless.translate(src, logical=True), src,
                             params=params, what="bucket script")


def _split_parent_pipelines(subs: dict) -> tuple[dict, list]:
    """Split a bucket agg's sub-agg dict into (per-bucket sub-aggs,
    ordered parent-pipeline specs)."""
    normal, pipes = {}, []
    for n, sp in subs.items():
        kinds = [k for k in sp if k not in ("aggs", "aggregations")]
        if len(kinds) == 1 and kinds[0] in _PARENT_PIPELINE:
            pipes.append((n, kinds[0], sp[kinds[0]]))
        else:
            normal[n] = sp
    return normal, pipes


def _apply_parent_pipelines(buckets: list, specs: list) -> list:
    """Run parent pipeline aggs, in body order, over the parent's ordered
    bucket list (mutates and returns it)."""
    for name, kind, arg in specs:
        if kind == "bucket_sort":
            for srt in reversed(arg.get("sort", [])):
                ((path, opts),) = (srt.items() if isinstance(srt, dict)
                                   else ((srt, {}),))
                desc = (opts or {}).get("order", "desc") == "desc"
                if path == "_key":
                    # the bucket key itself (may be a string — sort it
                    # directly rather than through the float metric path)
                    buckets.sort(key=lambda b: b["key"], reverse=desc)
                    continue

                def _key(b, p=path, d=desc):
                    v = _bucket_path_value(b, p)
                    # missing sorts last regardless of direction
                    return (v is None, (-v if d else v)
                            if v is not None else 0.0)
                buckets.sort(key=_key)  # stable: later sorts break ties
            frm = int(arg.get("from", 0))
            size = arg.get("size")
            buckets[:] = buckets[frm:
                                 None if size is None else frm + int(size)]
            continue
        if kind == "bucket_selector":
            kept = []
            for b in buckets:
                params = {k: _bucket_path_value(b, p)
                          for k, p in arg["buckets_path"].items()}
                if None in params.values():
                    continue  # gap_policy: skip
                if _script_eval(arg["script"], params):
                    kept.append(b)
            buckets[:] = kept
            continue
        if kind == "bucket_script":
            for b in buckets:
                params = {k: _bucket_path_value(b, p)
                          for k, p in arg["buckets_path"].items()}
                if None in params.values():
                    continue
                b[name] = {"value": float(
                    _script_eval(arg["script"], params))}
            continue
        vals = [_bucket_path_value(b, arg["buckets_path"]) for b in buckets]
        if kind == "moving_fn":
            # ES window semantics: with shift=0 the window is the last
            # `window` values EXCLUDING the current bucket; +1 shift
            # slides it right (window [i-window+shift, i+shift))
            window = int(arg["window"])
            shift = int(arg.get("shift", 0))
            fn = _moving_fn_kernel(arg["script"])
            for i, b in enumerate(buckets):
                lo = max(0, i - window + shift)
                hi = max(lo, min(len(vals), i + shift))
                w = np.array([v for v in vals[lo:hi] if v is not None],
                             dtype=np.float64)
                out = fn(w)
                b[name] = {"value": None if out is None or np.isnan(out)
                           else float(out)}
            continue
        if kind == "normalize":
            # ES normalize pipeline: rescale the metric across the
            # parent's buckets. Gap buckets (missing metric) carry no
            # value; a zero denominator (all-equal / zero-sum values)
            # yields 0.0 rather than NaN.
            method = arg["method"]
            xs = np.array([np.nan if v is None else v for v in vals],
                          dtype=np.float64)
            ok = ~np.isnan(xs)
            res = np.full(len(xs), np.nan)
            if ok.any():
                v = xs[ok]
                if method in ("proportion_of_sum", "percent_of_sum"):
                    tot = float(v.sum())
                    r = v / tot if tot else np.zeros_like(v)
                    if method == "percent_of_sum":
                        r = r * 100.0
                elif method in ("rescale_0_1", "rescale_0_100"):
                    span = float(v.max() - v.min())
                    r = ((v - v.min()) / span if span
                         else np.zeros_like(v))
                    if method == "rescale_0_100":
                        r = r * 100.0
                elif method == "mean":
                    span = float(v.max() - v.min())
                    r = ((v - v.mean()) / span if span
                         else np.zeros_like(v))
                elif method == "z-score":
                    std = float(v.std())
                    r = (v - v.mean()) / std if std else np.zeros_like(v)
                elif method == "softmax":
                    e = np.exp(v - v.max())  # stable softmax
                    r = e / e.sum()
                else:
                    raise NotImplementedError(
                        f"unsupported normalize method {method!r}")
                res[ok] = r
            for b, r in zip(buckets, res):
                if not np.isnan(r):
                    b[name] = {"value": float(r)}
            continue
        if kind == "cumulative_sum":
            run = 0.0
            for b, v in zip(buckets, vals):
                run += v or 0.0
                b[name] = {"value": run}
        elif kind in ("derivative", "serial_diff"):
            lag = int(arg.get("lag", 1)) if kind == "serial_diff" else 1
            for i, b in enumerate(buckets):
                if i < lag or vals[i] is None or vals[i - lag] is None:
                    continue  # ES: leading buckets carry no value
                b[name] = {"value": vals[i] - vals[i - lag]}
        else:
            raise NotImplementedError(
                f"unsupported parent pipeline agg {kind!r}")
    return buckets


def _sibling_bucket_result(out: dict, kind: str, arg: dict) -> dict:
    """One sibling ``*_bucket`` pipeline agg: reduce a completed bucket
    agg's per-bucket metric (``buckets_path`` = "parent>metric")."""
    parent, _, metric = arg["buckets_path"].partition(">")
    if parent not in out or "buckets" not in out[parent]:
        raise NotImplementedError(
            f"buckets_path {arg['buckets_path']!r} does not name a "
            "preceding bucket aggregation")
    bl = out[parent]["buckets"]
    items = (list(bl.items()) if isinstance(bl, dict)  # filters agg
             else [(b.get("key"), b) for b in bl])
    vals = [(k, _bucket_path_value(b, metric or "_count"))
            for k, b in items]
    vals = [(k, v) for k, v in vals if v is not None]
    if not vals:
        return {"value": None}
    arr = np.array([v for _, v in vals], dtype=np.float64)
    if kind == "avg_bucket":
        return {"value": float(arr.mean())}
    if kind == "sum_bucket":
        return {"value": float(arr.sum())}
    if kind == "stats_bucket":
        return {"count": int(len(arr)), "min": float(arr.min()),
                "max": float(arr.max()), "avg": float(arr.mean()),
                "sum": float(arr.sum())}
    if kind == "percentiles_bucket":
        # ES computes these exactly: sorted values, index
        # round(p/100 * (n-1)) — Java Math.round is half-up
        pcts = [float(p) for p in arg.get("percents", _DEFAULT_PERCENTS)]
        srt = np.sort(arr)
        return {"values": {
            str(p): float(srt[int(np.floor((p / 100.0)
                                           * (len(srt) - 1) + 0.5))])
            for p in pcts}}
    if kind == "extended_stats_bucket":
        sigma = float(arg.get("sigma", 2.0))
        avg = float(arr.mean())
        var_p = float(arr.var())
        std_p = float(np.sqrt(var_p))
        return {
            "count": int(len(arr)), "min": float(arr.min()),
            "max": float(arr.max()), "avg": avg, "sum": float(arr.sum()),
            "sum_of_squares": float((arr * arr).sum()),
            "variance": var_p, "std_deviation": std_p,
            "std_deviation_bounds": {"upper": avg + sigma * std_p,
                                     "lower": avg - sigma * std_p},
        }
    best = float(arr.max() if kind == "max_bucket" else arr.min())
    return {"value": best, "keys": [k for k, v in vals if v == best]}


def _run_aggs(s, aggs: dict, keep, qterms: list | None = None) -> dict:
    """The aggregations ``aggs`` over the docs in the live mask ``keep``
    (None: every doc, no tombstones). ``keep`` is shared with the caller
    and the sibling aggs: it is read, never mutated."""
    out = {}
    sibling = []
    for name, spec in aggs.items():
        spec = dict(spec)
        subs = spec.pop("aggs", None) or spec.pop("aggregations", None) or {}
        ((kind, arg),) = spec.items()
        if kind in _SIBLING_PIPELINE:
            # deferred: needs the named bucket agg fully computed first
            sibling.append((name, kind, arg))
            continue
        if subs and kind not in _SUB_CAPABLE:
            raise NotImplementedError(
                f"sub-aggregations under {kind!r} are not supported")
        if kind == "terms":
            if "missing" in arg:
                raise NotImplementedError(
                    "terms 'missing' is not supported: docs without a "
                    "value are left out; the missing agg counts them")
            normal, pipes = _split_parent_pipelines(subs)
            tsize = int(arg.get("size", 10))
            order = arg.get("order")
            # ES custom bucket order (by _key / _count asc / a sub-agg
            # metric) decides which buckets survive truncation, so ALL
            # buckets are materialized first (exact; ES itself warns
            # metric-ordered terms are unbounded on high-cardinality
            # fields) — the default count-desc path stays top-k
            rows = s.agg_terms(arg["field"],
                               k=s.n_local if order else tsize,
                               filter=keep)
            opath = None
            if order:
                ((opath, odir),) = order.items()
                desc = odir == "desc"
                if opath in ("_key", "_count"):
                    # the order doesn't depend on sub-agg values, so
                    # truncate FIRST and recurse sub-aggs only for the
                    # surviving `size` buckets (sub-metric order below
                    # still needs every bucket materialized)
                    rows = sorted(rows, key=lambda r: r[0])
                    if opath == "_key":
                        if desc:
                            rows.reverse()
                    else:
                        rows.sort(key=lambda r: r[1], reverse=desc)
                    rows = rows[:tsize]
            buckets = []
            for k, c in rows:
                b = {"key": k, "doc_count": int(c)}
                if normal:  # ES's bread-and-butter shape: sub-aggs may be
                    # metric (avg/sum/...) or bucket (terms/histogram/...)
                    # aggs — recurse within this bucket's term
                    b.update(_run_aggs(s, normal, _within(
                        s, keep, {"term": {arg["field"]: k}}), qterms))
                buckets.append(b)
            if order and opath not in ("_key", "_count"):
                # a sub-agg metric path; missing values sort last
                buckets.sort(key=lambda b: b["key"])  # stable tiebreak

                def _okey(b, p=opath, d=desc):
                    v = _bucket_path_value(b, p)
                    return (v is None,
                            (-v if d else v) if v is not None else 0)
                buckets.sort(key=_okey)
                buckets = buckets[:tsize]
            out[name] = {"buckets": _apply_parent_pipelines(buckets, pipes)}
        elif kind == "multi_terms":
            fields = [f["field"] for f in arg["terms"]]
            rows = s.agg_multi_terms(fields, k=int(arg.get("size", 10)),
                                     filter=keep)
            out[name] = {"buckets": [
                {"key": list(k), "doc_count": int(c)} for k, c in rows]}
        elif kind == "significant_terms":
            rows = s.agg_significant_terms(
                arg["field"], k=int(arg.get("size", 10)), filter=keep)
            out[name] = {"buckets": [
                {"key": v, "doc_count": int(fg), "bg_count": int(bg),
                 "score": sc} for v, fg, bg, sc in rows]}
        elif kind == "rare_terms":
            rows = s.agg_rare_terms(
                arg["field"], max_doc_count=int(arg.get("max_doc_count", 1)),
                filter=keep)
            out[name] = {"buckets": [
                {"key": k, "doc_count": int(c)} for k, c in rows]}
        elif kind == "filters":
            named = {str(n): _within(s, keep, f)
                     for n, f in sorted(arg["filters"].items())}
            buckets = {n: {"doc_count": _popcount(s, m)}
                       for n, m in named.items()}
            if subs:  # per named bucket, recurse within its filter
                for n, m in named.items():
                    buckets[n].update(_run_aggs(s, subs, m, qterms))
            out[name] = {"buckets": buckets}
        elif kind == "adjacency_matrix":
            named = {n: _within(s, keep, f)
                     for n, f in arg["filters"].items()}
            out[name] = {"buckets": [
                {"key": k, "doc_count": int(c)}
                for k, c in s.agg_adjacency_matrix(named)]}
        elif kind in ("histogram", "date_histogram"):
            normal, pipes = _split_parent_pipelines(subs)
            buckets = _histogram(s, arg, normal, keep, qterms)
            out[name] = {"buckets": _apply_parent_pipelines(buckets, pipes)}
        elif kind == "auto_date_histogram":
            # ES auto_date_histogram: smallest fixed-interval ladder step
            # keeping <= `buckets` buckets (same ladder as the distributed
            # pipelines.aggs.auto_date_histogram; attrs here are numeric
            # epoch seconds, so the ladder converts us -> s)
            from astrologer_ray.pipelines.aggs import AUTO_HIST_LADDER_US

            target = int(arg.get("buckets", 10))
            col = np.asarray(s._attr(arg["field"]), dtype=np.float64)
            vals = s._gather(col, _all_docs(s, keep) & ~np.isnan(col))
            if not len(vals):
                out[name] = {"buckets": [], "interval": None}
                continue
            lo, hi = float(vals.min()), float(vals.max())
            width = next(
                (w / 1e6 for w in AUTO_HIST_LADDER_US
                 if (hi // (w / 1e6)) - (lo // (w / 1e6)) + 1 <= target),
                AUTO_HIST_LADDER_US[-1] / 1e6)
            normal, pipes = _split_parent_pipelines(subs)
            buckets = _histogram(
                s, {"field": arg["field"], "interval": width},
                normal, keep, qterms)
            out[name] = {
                "buckets": _apply_parent_pipelines(buckets, pipes),
                "interval": f"{width:g}s",
            }
        elif kind == "global":
            # ES global agg: escapes the query scope — sub-aggs run over
            # ALL live docs regardless of the surrounding query
            live = s._live_mask(None)
            out[name] = {"doc_count": _popcount(s, live),
                         **_run_aggs(s, subs, live, qterms)}
        elif kind == "missing":
            # docs in scope WITHOUT a value for the field (NaN / None:
            # code -1)
            absent = _all_docs(s, keep) & (s._attr_codes(arg["field"])[0] < 0)
            out[name] = {"doc_count": int(np.count_nonzero(absent))}
            if subs:  # ES: sub-aggs run over exactly the counted docs
                out[name].update(_run_aggs(s, subs, absent, qterms))
        elif kind == "sampler":
            # ES sampler: sub-aggs run over the top shard_size docs by
            # the surrounding query's score (doc order under match_all)
            n_top = int(arg.get("shard_size", 100))
            if qterms:
                ids = [h["doc_id"]
                       for h in s.search(list(qterms), k=n_top,
                                         filter=keep)]
            else:
                ids = (np.flatnonzero(_all_docs(s, keep))[:n_top]
                       + s.doc_lo).tolist()
            out[name] = {"doc_count": len(ids)}
            if subs:
                out[name].update(_run_aggs(s, subs, s._ids_mask(ids),
                                           qterms))
        elif kind == "diversified_sampler":
            # ES diversified_sampler: the sampler agg with per-value
            # dedup on `field` — streaming the score-ordered candidates,
            # at most max_docs_per_value docs sharing a field value enter
            # the sample, until shard_size docs are collected
            n_top = int(arg.get("shard_size", 100))
            mpv = int(arg.get("max_docs_per_value", 1))
            # per-value counts keyed by code; docs without a value (-1)
            # share one group
            codes = s._attr_codes(arg["field"])[0]
            if qterms:
                cand = [h["doc_id"]
                        for h in s.search(list(qterms), k=s.n_local,
                                          filter=keep)]
            else:
                cand = (np.flatnonzero(_all_docs(s, keep))
                        + s.doc_lo).tolist()
            ids, seen = [], {}
            for d in cand:
                v = int(codes[d - s.doc_lo])
                c = seen.get(v, 0)
                if c >= mpv:
                    continue
                seen[v] = c + 1
                ids.append(int(d))
                if len(ids) >= n_top:
                    break
            out[name] = {"doc_count": len(ids)}
            if subs:
                out[name].update(_run_aggs(s, subs, s._ids_mask(ids),
                                           qterms))
        elif kind == "matrix_stats":
            # ES matrix_stats over >= 2 numeric sidecar/runtime attrs:
            # per-field count/mean/variance/skewness/kurtosis plus
            # covariance and Pearson correlation against every OTHER
            # field. Rows missing ANY field drop (ES avg mode is not
            # supported). Conventions documented here: unbiased (n-1)
            # variance/covariance, population-standardized 3rd/4th
            # moments. The distributed integer-moment twin is
            # pipelines.aggs.matrix_stats.
            fields = list(arg["fields"])
            cols = {f: np.asarray(s._attr(f), dtype=np.float64)
                    for f in fields}
            valued = _all_docs(s, keep).copy()
            for f in fields:
                valued &= ~np.isnan(cols[f])
            n = int(valued.sum())
            X = {f: cols[f][valued] for f in fields}
            rows = []
            for f in fields:
                if n == 0:
                    rows.append({"name": f, "count": 0})
                    continue
                x = X[f]
                mu = float(x.mean())
                d = x - mu
                var = float((d * d).sum() / (n - 1)) if n > 1 else 0.0
                std = var ** 0.5
                skew = float((d ** 3).mean() / std ** 3) if std else 0.0
                kurt = float((d ** 4).mean() / std ** 4) if std else 0.0
                cov, corr = {}, {}
                for g in fields:
                    if g == f:
                        continue
                    dg = X[g] - X[g].mean()
                    cg = float((d * dg).sum() / (n - 1)) if n > 1 else 0.0
                    sg = float(X[g].std(ddof=1)) if n > 1 else 0.0
                    cov[g] = cg
                    corr[g] = cg / (std * sg) if std and sg else 0.0
                rows.append({
                    "name": f, "count": n, "mean": mu, "variance": var,
                    "skewness": skew, "kurtosis": kurt,
                    "covariance": cov, "correlation": corr,
                })
            out[name] = {"doc_count": n, "fields": rows}
        elif kind in ("avg", "sum", "min", "max", "value_count", "stats",
                      "percentiles", "percentile_ranks", "cardinality",
                      "extended_stats", "weighted_avg",
                      "median_absolute_deviation", "boxplot",
                      "string_stats", "top_metrics"):
            # percentiles is the exact flavor (linear interpolation ==
            # SQL quantile_cont, same as pipelines.aggs.percentiles);
            # cardinality is exact distinct (the sketch flavor lives in
            # pipelines.aggs.hll_distinct) — ES's t-digest/HLL converge
            # to these
            out[name] = _metric_result(s, kind, arg, _all_docs(s, keep))
        elif kind in ("range", "date_range"):
            # ES range agg: half-open [from, to) buckets, key "a-b";
            # date_range additionally accepts ISO-8601 strings for
            # from/to (attrs store epoch seconds; naive stamps are UTC)
            col = np.asarray(s._attr(arg["field"]), dtype=np.float64)
            valued = _all_docs(s, keep) & ~np.isnan(col)
            buckets = []
            for r in arg["ranges"]:
                lo = _epoch_bound(r.get("from"))
                hi = _epoch_bound(r.get("to"))
                m = valued.copy()
                bounds = {}
                if lo is not None:
                    m &= col >= float(lo)
                    bounds["gte"] = float(lo)
                if hi is not None:
                    m &= col < float(hi)
                    bounds["lt"] = float(hi)
                key = r.get("key",
                            f"{'*' if lo is None else r.get('from')}-"
                            f"{'*' if hi is None else r.get('to')}")
                b = {"key": key, "doc_count": int(m.sum())}
                if lo is not None:
                    b["from"] = float(lo)
                if hi is not None:
                    b["to"] = float(hi)
                if subs:  # recurse within this bucket's range
                    # (gte -inf for a fully-open bucket: NaN >= -inf is
                    # False, matching the doc_count's NaN exclusion)
                    part = {"range": {arg["field"]:
                                      bounds or {"gte": float("-inf")}}}
                    b.update(_run_aggs(s, subs, _within(s, keep, part),
                                       qterms))
                buckets.append(b)
            out[name] = {"buckets": buckets}
        elif kind == "composite":
            # ES composite agg: multi-source buckets in ascending key
            # order, paged with after_key (Searcher.agg_composite)
            names = [next(iter(src)) for src in arg["sources"]]
            fields = [next(iter(src.values()))["terms"]["field"]
                      for src in arg["sources"]]
            after = None
            if arg.get("after") is not None:
                after = tuple(arg["after"][n] for n in names)
            res = s.agg_composite(fields, size=int(arg.get("size", 10)),
                                  after=after, filter=keep)
            out[name] = {"buckets": [
                {"key": dict(zip(names, kt)), "doc_count": c}
                for kt, c in res["buckets"]]}
            if res["after_key"] is not None:
                out[name]["after_key"] = dict(zip(names,
                                                  res["after_key"]))
        elif kind == "top_hits" and "field" in arg:
            # legacy flattened shape: terms agg grouped by `field` with a
            # top_hits sub — the searcher's fused implementation
            rows = s.search_top_hits(
                terms=arg.get("terms", []), group_attr=arg["field"],
                n_hits=int(arg.get("size", 3)),
                k_groups=int(arg.get("groups", 10)), filter=keep,
            )
            out[name] = {"hits": rows}
        elif kind == "top_hits":
            # proper ES top_hits: inside a bucket agg, `keep` already
            # holds only the bucket's docs (via _within), so the
            # hits are the bucket's best docs — by explicit sort, by the
            # surrounding query's BM25 score, or (match_all) in doc order
            thk = int(arg.get("size", 3))
            srt = arg.get("sort")
            if srt:
                specs = []
                for one in (srt if isinstance(srt, list) else [srt]):
                    if isinstance(one, str):
                        one = {one: {}}
                    ((attr, opts),) = one.items()
                    specs.append(
                        (attr, (opts or {}).get("order", "desc") == "desc"))
                rows = s.sort_by_attrs(specs, k=thk, filter=keep)
                hits = [{"_id": r["doc_id"], "sort": r["sort"]}
                        for r in rows]
            elif qterms:
                rows = s.search(list(qterms), k=thk, filter=keep)
                hits = [{"_id": r["doc_id"], "_score": r["score"]}
                        for r in rows]
            else:
                ids = np.flatnonzero(_all_docs(s, keep))[:thk]
                hits = [{"_id": int(i) + s.doc_lo, "_score": 1.0}
                        for i in ids]
            for h in hits:  # _source: requested doc attrs, ES-style
                if arg.get("_source"):
                    li = h["_id"] - s.doc_lo
                    h["_source"] = {a: s._attr_value(a, li)
                                    for a in arg["_source"]}
            out[name] = {"hits": {"hits": hits}}
        else:
            raise NotImplementedError(f"unsupported agg {kind!r}")
    for name, kind, arg in sibling:
        out[name] = _sibling_bucket_result(out, kind, arg)
    return out


def _retriever_ranking(s, spec: dict, window: int) -> list[int]:
    """One rrf sub-retriever -> its ranked doc-id list (top ``window``)."""
    ((kind, arg),) = spec.items()
    if kind == "standard":
        t = _translate(s, arg.get("query"))
        return [h["doc_id"]
                for h in _run_hits(s, t, s._live_mask(t.filter), window)]
    if kind == "knn":
        return [h["doc_id"] for h in s.knn(
            arg["field"], arg["query_vector"], k=window,
            num_candidates=arg.get("num_candidates"))]
    raise NotImplementedError(f"unsupported retriever {kind!r}")


def _run_suggest(s, sugg: dict) -> dict:
    """ES ``suggest`` section: named term / phrase suggesters. The term
    suggester emits one entry per analyzed token (offsets recovered by a
    forward scan of the lowered input; -1 when the analyzer rewrote the
    token); the phrase suggester emits one whole-text entry whose options
    come from :meth:`Searcher.suggest_phrase`."""
    from astrologer_ray.functions.tokenizer import tokenize

    global_text = sugg.get("text")
    out = {}
    for name, spec in sugg.items():
        if name == "text":
            continue
        text = spec.get("text", global_text)
        if text is None:
            raise ValueError(f"suggester {name!r} has no text")
        if "term" in spec:
            arg = spec["term"]
            k = int(arg.get("size", 5))
            me = int(arg.get("max_edits", 2))
            pl = int(arg.get("prefix_length", 0))
            entries = []
            lower, cursor = text.lower(), 0
            for tok in tokenize(text, mode=s.mode):
                off = lower.find(tok, cursor)
                if off >= 0:
                    cursor = off + len(tok)
                entries.append({
                    "text": tok, "offset": off, "length": len(tok),
                    "options": [
                        {"text": r["term"], "freq": r["df"],
                         "score": round(1.0 - r["distance"] /
                                        max(len(tok), 1), 4)}
                        for r in s.suggest(tok, k=k, max_edits=me,
                                           prefix_length=pl)],
                })
            out[name] = entries
        elif "phrase" in spec:
            arg = spec["phrase"]
            gens = arg.get("direct_generator") or [{}]
            options = s.suggest_phrase(
                text, k=int(arg.get("size", 3)),
                max_edits=int(arg.get("max_edits",
                                      gens[0].get("max_edits", 1))),
                max_candidates=int(arg.get("max_candidates", 3)),
                error_prob=float(arg.get("error_prob", 0.5)),
                collate="collate" in arg)
            out[name] = [{"text": text, "offset": 0, "length": len(text),
                          "options": options}]
        else:
            raise NotImplementedError(
                f"unsupported suggester kind in {name!r} "
                f"(term and phrase are supported)")
    return out


def _matched(s, t: _Translated, live) -> tuple[np.ndarray | None, int]:
    """The docs ``hits.total`` counts — ES's ``hits.total`` / ``_count``
    semantics — as a live mask (None: every doc, no tombstones) and their
    number; the aggregations run within the same mask. ``live`` is the
    request's live mask of ``t``'s filter clauses, which the hits path
    ranked within; only posting lists are read here. The matches are the
    live docs holding at least one scoring term or node word (every live
    doc when there is none), plus a pinned node's live ids. Two shapes
    would overcount that way and run their exact predicate over every
    local doc instead: a node whose total is "rank", and msm > 1."""
    node = t.node
    if node is not None and node.total == "rank":
        keep = s._ids_mask([h["doc_id"]
                            for h in node.rank(s, s.n_local, live)])
    elif node is None and t.msm > 1 and (t.terms or t.should_terms):
        keep = s._ids_mask([h["doc_id"]
                            for h in _run_hits(s, t, live, s.n_local)])
    else:
        words = t.terms + t.should_terms + (node.scope if node else [])
        keep = live
        if words:
            keep = s._any_term_mask(set(words))  # fresh
            if live is not None:
                keep &= live
            if node is not None and node.pins is not None:
                keep |= s._ids_mask(node.pins)
                s._apply_deletes(keep)
    return keep, _popcount(s, keep)


def execute_count(s, body: dict | None = None) -> dict:
    """ES ``_count``: the matched-doc count for a query body — no hits,
    no aggs, same exact-total semantics as ``hits.total``."""
    t = _translate(s, (body or {}).get("query"))
    return {"count": _matched(s, t, s._live_mask(t.filter))[1]}


def execute_get(s, doc_id: int, source: list[str] | None = None) -> dict:
    """ES ``GET /<index>/_doc/<id>``: one doc's sidecar attributes as
    ``_source`` (the index stores positions + metadata, not raw text, so
    ``_source`` is the docs-sidecar row — doc_key/repo/path/lang/dl and
    any extra ``column_map`` attrs). ``source`` projects named attrs,
    like the ``_source`` query parameter. Tombstoned docs are not found,
    matching every other read path."""
    did = int(doc_id)
    if not s.doc_attrs:
        raise ValueError("_doc get requires load_docs=True")
    if not (s.doc_lo <= did < s.doc_lo + s.n_local):
        return {"_id": did, "found": False}
    if s.deleted is not None and bool((np.asarray(s.deleted) == did).any()):
        return {"_id": did, "found": False}
    i = did - s.doc_lo
    cols = source if source is not None else list(s.doc_attrs)
    src = {}
    for c in cols:
        src[c] = s.doc_attrs.value(c, i)
    return {"_id": did, "found": True, "_source": src}


def execute_mget(s, ids: list[int],
                 source: list[str] | None = None) -> dict:
    """ES ``_mget``: one :func:`execute_get` row per requested id, in
    request order (missing / tombstoned ids come back ``found: false``,
    not dropped)."""
    return {"docs": [execute_get(s, d, source=source) for d in ids]}


def execute_terms_enum(s, body: dict) -> dict:
    """ES ``_terms_enum``: sorted index terms starting with ``string``,
    paged by ``search_after`` — the autocomplete endpoint. ``field``
    names the analyzed text field (the analyzed dictionary) or a
    keyword field (its ``field\\x1evalue`` dictionary entries, value
    part returned). ``complete`` is true when the listing reached the
    end of the matching range (ES semantics: the enumeration saw every
    candidate)."""
    from astrologer_ray.layout import FIELD_SEP

    field = body["field"]
    prefix = str(body.get("string", ""))
    size = int(body.get("size", 10))
    after = body.get("search_after")
    arr = s._term_array()
    if field in _TEXT_FIELDS:
        scan_prefix, strip = prefix, 0
        in_field = lambda t: FIELD_SEP not in t  # noqa: E731
    else:
        scan_prefix = field + FIELD_SEP + prefix
        strip = len(field) + 1
        in_field = lambda t: True  # noqa: E731 (range is field-scoped)
    lo = int(np.searchsorted(arr, scan_prefix, side="left")) \
        if scan_prefix else 0
    out: list[str] = []
    complete = True
    n = len(arr)
    for i in range(lo, n):
        t = str(arr[i])
        if scan_prefix and not t.startswith(scan_prefix):
            break
        if not in_field(t):
            continue
        val = t[strip:]
        if after is not None and val <= str(after):
            continue
        if len(out) >= size:
            complete = False  # more matching terms exist past the page
            break
        out.append(val)
    return {"terms": out, "complete": complete}


def _tv_field_statistics(s) -> dict:
    """Index-wide text-field statistics for ``_termvectors`` (cached on
    the searcher: one O(#terms) pass ever). Keyword-field dictionary
    entries (``field\\x1evalue``) are not text terms and are excluded,
    matching ES's per-field accounting."""
    cached = getattr(s, "_tv_field_stats", None)
    if cached is not None:
        return cached
    from astrologer_ray.layout import FIELD_SEP

    sum_df = sum(v for t, v in s.df.items() if FIELD_SEP not in t)
    sum_ttf = sum(v for t, v in s.cf.items() if FIELD_SEP not in t)
    stats = {"sum_doc_freq": int(sum_df), "doc_count": int(s.N),
             "sum_ttf": int(sum_ttf)}
    s._tv_field_stats = stats
    return stats


def execute_termvectors(s, body: dict, doc_id: int | None = None,
                        corpus_dir: str | None = None) -> dict:
    """ES ``_termvectors``: per-term ``term_freq`` (+ token positions)
    for ONE document's analyzed text, optionally decorated with
    index-wide term statistics (``doc_freq``, ``ttf``) and the text
    field's ``field_statistics``. Two document sources, mirroring ES:

    - an artificial document in ``body["doc"]["content"]``, analyzed in
      place with the index's tokenizer mode (ES: request-body doc);
    - a stored ``doc_id`` whose text is re-read from ``corpus_dir``
      pruned to the doc's (repo, path) at the parquet scan — ES
      re-analyzes ``_source``; this index stores positions + metadata,
      not raw text, so the corpus parquet IS the ``_source`` store.

    Flags follow ES defaults: ``positions`` true, ``term_statistics``
    false, ``field_statistics`` true. Rounds out the per-doc
    diagnostics family (``_doc`` / ``_explain`` / ``_analyze``)."""
    from astrologer_ray.functions.tokenizer import tokenize

    did = None
    if body.get("doc") is not None:
        text = str(body["doc"].get("content", ""))
    else:
        if doc_id is None or corpus_dir is None:
            raise ValueError(
                "_termvectors needs body['doc'] or (doc_id, corpus_dir)")
        did = int(doc_id)
        if not s.doc_attrs:
            raise ValueError("_termvectors by id requires load_docs=True")
        if not (s.doc_lo <= did < s.doc_lo + s.n_local):
            return {"_id": did, "found": False}
        if s.deleted is not None and bool(
                (np.asarray(s.deleted) == did).any()):
            return {"_id": did, "found": False}
        i = did - s.doc_lo
        repo, path, key = (str(s.doc_attrs.value(c, i))
                           for c in ("repo", "path", "doc_key"))
        import pyarrow.compute as pc
        import pyarrow.dataset as pds

        frag = pds.dataset(corpus_dir, format="parquet").to_table(
            filter=(pc.field("repo") == repo) & (pc.field("path") == path),
            columns=["commit", "content"],
        )
        from astrologer_ray.layout import KEY_SEP

        # (repo, path) can repeat across commits; the doc_key's LAST
        # key segment is the formatted commit — exact segment equality,
        # not substring (commit 'ab12' must not claim key '...ab123')
        key_commit = key.split(KEY_SEP)[-1]
        text = None
        for commit, content in zip(frag.column("commit").to_pylist(),
                                   frag.column("content").to_pylist()):
            if str(commit) == key_commit:
                text = content
                break
        if text is None and frag.num_rows == 1:
            text = frag.column("content")[0].as_py()
        if text is None:
            return {"_id": did, "found": False}

    toks = tokenize(text, s.mode)
    want_pos = bool(body.get("positions", True))
    want_term_stats = bool(body.get("term_statistics", False))
    want_field_stats = bool(body.get("field_statistics", True))
    terms: dict[str, dict] = {}
    for pos, tok in enumerate(toks):
        e = terms.get(tok)
        if e is None:
            e = terms[tok] = {"term_freq": 0}
            if want_pos:
                e["tokens"] = []
        e["term_freq"] += 1
        if want_pos:
            e["tokens"].append({"position": pos})
    if want_term_stats:
        for tok, e in terms.items():
            e["doc_freq"] = int(s.df.get(tok, 0))
            e["ttf"] = int(s.cf.get(tok, 0))
    field = {"terms": dict(sorted(terms.items()))}
    if want_field_stats:
        field["field_statistics"] = _tv_field_statistics(s)
    out = {"found": True, "term_vectors": {"content": field}}
    if did is not None:
        out["_id"] = did
    return out


def execute_explain(s, doc_id: int, body: dict) -> dict:
    """ES ``GET /<index>/_explain/<id>``: does THIS doc match the query,
    and — for scoring (match) queries — its BM25 term-by-term score
    breakdown. Scopes the query to the one doc via an ``ids`` filter
    composed with the query's own filter context, so ``matched`` and the
    score agree bit-for-bit with what a ``_search`` over the same body
    would report for that doc. Match / bool-match / pure filter-context
    bodies only (the same surface ``explain: true`` covers)."""
    did = int(doc_id)
    t = _translate(s, body.get("query"))
    ids_f = {"ids": [did]}
    f = ids_f if t.filter is None else {"bool": {"must": [t.filter,
                                                          ids_f]}}
    if t.node is None and not t.terms and not t.should_terms:
        matched = bool(s._live_mask(f).any())
        return {"_id": did, "matched": matched, "explanation": {
            "value": 1.0 if matched else 0.0,
            "description": ("ConstantScore(filter context)" if matched
                            else "no matching clause"),
            "details": []}}
    if not _is_plain_match(t, _parse_sort(body.get("sort"))):
        raise NotImplementedError(
            "_explain supports match/bool-match and pure filter-context "
            "queries only")
    rows = s.explain(t.terms, k=1, filter=f,
                     should_terms=t.should_terms or None,
                     min_should_match=t.msm,
                     min_score=body.get("min_score"),
                     boosts=t.boosts or None)
    if not rows:
        return {"_id": did, "matched": False, "explanation": {
            "value": 0.0, "description": "no matching clause",
            "details": []}}
    return {"_id": did, "matched": True, "explanation": {
        "value": rows[0]["score"],
        "description": "sum of:",
        "details": [{"value": r["weight"],
                     "description": f"weight({r['term']}) "
                                    f"[tf={r['tf']}, df={r['df']}]"}
                    for r in rows]}}


# metric aggs whose per-shard values merge losslessly by the same op
_MERGEABLE_METRICS = {"sum", "min", "max", "value_count"}


def shard_plan(body: dict, shard_size: int | None = None
               ) -> tuple[dict, dict]:
    """Rewrite a ``_search`` body for scatter-gather over doc-range
    shards and return ``(per_shard_body, merge_plan)``.

    Doc-range shards score every local doc COMPLETELY from global stats
    (df/N/avgdl), so hits merge exactly for every query kind; totals sum
    (disjoint docs). Aggregations must be shard-mergeable: bucket counts
    (terms / multi_terms / histogram / date_histogram / range / filters /
    missing) sum by key; sum/min/max/value_count merge by the same op;
    avg and stats merge via per-shard ``stats`` partials;
    extended_stats via its moment sums. ``terms`` follows ES shard
    semantics: each shard returns ``shard_size`` buckets (default
    ``3*size+10``) and the merged result carries
    ``doc_count_error_upper_bound``. Sibling ``*_bucket`` pipelines
    apply post-merge on the driver. Everything else
    (sub-aggregations, sort, search_after, knn/retriever, collapse,
    rescore, suggest, cardinality, percentiles, ...) raises."""
    for k in ("knn", "retriever", "collapse", "rescore", "suggest"):
        if k in body:
            raise NotImplementedError(
                f"sharded execution does not support {k!r}")
    size = int(body.get("size", 10))
    frm = int(body.get("from", 0))
    sbody = dict(body)
    sbody["size"] = size + frm
    sbody.pop("from", None)
    sort_specs = None
    if body.get("sort") is not None:
        # field sorts merge exactly over doc-range shards: each shard
        # returns its local top by the same composite key (+ the local
        # search_after cut), and the driver re-sorts the union
        raw = body["sort"] if isinstance(body["sort"], list) \
            else [body["sort"]]
        sort_specs = []
        for sp in raw:
            ((attr, opts),) = sp.items() if isinstance(sp, dict) \
                else ((sp, {}),)
            if attr == "_score":
                raise NotImplementedError(
                    "sharded execution does not support _score sorts")
            sort_specs.append(
                (attr, (opts or {}).get("order", "desc") == "desc"))
    aggs = body.get("aggs") or body.get("aggregations") or {}
    plan: dict = {"size": size, "frm": frm, "aggs": {}, "sibling": [],
                  "shard_sizes": {}, "sort": sort_specs}
    saggs = {}
    for name, spec in aggs.items():
        spec = dict(spec)
        if "aggs" in spec or "aggregations" in spec:
            raise NotImplementedError(
                "sharded aggs do not support sub-aggregations")
        ((kind, arg),) = spec.items()
        if kind in _SIBLING_PIPELINE:
            plan["sibling"].append((name, kind, arg))
            continue
        if kind in ("terms", "multi_terms"):
            tsize = int(arg.get("size", 10))
            ssize = int(shard_size or arg.get("shard_size",
                                              3 * tsize + 10))
            saggs[name] = {kind: {**arg, "size": ssize}}
            plan["aggs"][name] = (kind, arg)
            plan["shard_sizes"][name] = ssize
        elif kind in ("histogram", "date_histogram", "range", "filters",
                      "missing") or kind in _MERGEABLE_METRICS \
                or kind == "extended_stats":
            saggs[name] = {kind: arg}
            plan["aggs"][name] = (kind, arg)
        elif kind in ("avg", "stats"):
            saggs[name] = {"stats": arg}  # mergeable partial
            plan["aggs"][name] = (kind, arg)
        else:
            raise NotImplementedError(
                f"agg {kind!r} is not shard-mergeable")
    if aggs:
        sbody.pop("aggregations", None)
        sbody["aggs"] = saggs
    return sbody, plan


def merge_sharded(responses: list[dict], plan: dict) -> dict:
    """Merge per-shard ``run_dsl`` responses per the :func:`shard_plan`
    contract (exact hit merge, by-key/by-op agg merge)."""
    size, frm = plan["size"], plan["frm"]
    all_hits = [h for r in responses for h in r["hits"]["hits"]]
    if plan.get("sort"):
        specs = plan["sort"]
        all_hits.sort(key=lambda h: h["_id"])  # doc_id asc final tiebreak

        def _key(i):
            if len(specs) == 1:
                # the single-field path labels the value "value"
                return lambda h: (h["sort"][i] if "sort" in h
                                  else h["value"])
            return lambda h: h["sort"][i]

        for i in range(len(specs) - 1, -1, -1):  # stable, last key first
            all_hits.sort(key=_key(i), reverse=specs[i][1])
    else:
        all_hits.sort(key=lambda h: (-(h.get("_score") or 0.0), h["_id"]))
    out = {"hits": {
        "total": {"value": sum(r["hits"]["total"]["value"]
                               for r in responses),
                  "relation": "eq"},
        "hits": all_hits[frm:frm + size],
    }}
    if not (plan["aggs"] or plan["sibling"]):
        return out
    aggs_out: dict = {}
    for name, (kind, arg) in plan["aggs"].items():
        parts = [r["aggregations"][name] for r in responses]
        if kind in ("terms", "multi_terms"):
            cnt: dict = {}
            trunc = []
            ssize = plan["shard_sizes"][name]
            for p in parts:
                bl = p["buckets"]
                for b in bl:
                    key = (tuple(b["key"]) if isinstance(b["key"], list)
                           else b["key"])
                    cnt[key] = cnt.get(key, 0) + b["doc_count"]
                if bl and len(bl) >= ssize:  # this shard may have cut
                    trunc.append(bl[-1]["doc_count"])
            rows = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
            rows = rows[: int(arg.get("size", 10))]
            entry = {"buckets": [
                {"key": list(k) if kind == "multi_terms" else k,
                 "doc_count": c} for k, c in rows]}
            if kind == "terms":
                entry["doc_count_error_upper_bound"] = sum(trunc)
            aggs_out[name] = entry
        elif kind in ("histogram", "date_histogram"):
            cnt = {}
            for p in parts:
                for b in p["buckets"]:
                    cnt[b["key"]] = cnt.get(b["key"], 0) + b["doc_count"]
            aggs_out[name] = {"buckets": [
                {"key": k, "doc_count": c} for k, c in sorted(cnt.items())]}
        elif kind == "range":
            # per-shard bucket lists align positionally (same ranges)
            merged = [dict(b) for b in parts[0]["buckets"]]
            for p in parts[1:]:
                for mb, b in zip(merged, p["buckets"]):
                    mb["doc_count"] += b["doc_count"]
            aggs_out[name] = {"buckets": merged}
        elif kind == "filters":
            named: dict = {}
            for p in parts:
                for n2, b in p["buckets"].items():
                    named.setdefault(n2, {"doc_count": 0})
                    named[n2]["doc_count"] += b["doc_count"]
            aggs_out[name] = {"buckets": named}
        elif kind == "missing":
            aggs_out[name] = {"doc_count": sum(p["doc_count"]
                                               for p in parts)}
        elif kind in ("sum", "value_count"):
            aggs_out[name] = {"value": sum(p["value"] for p in parts)}
        elif kind in ("min", "max"):
            vals = [p["value"] for p in parts if p["value"] is not None]
            aggs_out[name] = {"value": (min(vals) if kind == "min"
                                        else max(vals)) if vals else None}
        elif kind == "avg":
            n = sum(p["count"] for p in parts)
            tot = sum(p["sum"] for p in parts)
            aggs_out[name] = {"value": tot / n if n else None}
        elif kind == "stats":
            n = sum(p["count"] for p in parts)
            tot = sum(p["sum"] for p in parts)
            mins = [p["min"] for p in parts if p["min"] is not None]
            maxs = [p["max"] for p in parts if p["max"] is not None]
            aggs_out[name] = {
                "count": n, "min": min(mins) if mins else None,
                "max": max(maxs) if maxs else None,
                "avg": tot / n if n else None, "sum": tot}
        elif kind == "extended_stats":
            n = sum(p["count"] for p in parts)
            tot = sum(p["sum"] for p in parts)
            sq = sum(p.get("sum_of_squares", 0.0) for p in parts)
            mins = [p["min"] for p in parts if p["min"] is not None]
            maxs = [p["max"] for p in parts if p["max"] is not None]
            if n == 0:
                aggs_out[name] = {"count": 0, "min": None, "max": None,
                                  "avg": None, "sum": 0.0}
                continue
            sigma = float(arg.get("sigma", 2.0))
            avg = tot / n
            var_p = max(sq / n - avg * avg, 0.0)
            var_s = (sq - n * avg * avg) / (n - 1) if n > 1 else 0.0
            std_p, std_s = var_p ** 0.5, max(var_s, 0.0) ** 0.5
            aggs_out[name] = {
                "count": n, "min": min(mins), "max": max(maxs),
                "avg": avg, "sum": tot, "sum_of_squares": sq,
                "variance": var_p, "variance_population": var_p,
                "variance_sampling": var_s,
                "std_deviation": std_p,
                "std_deviation_population": std_p,
                "std_deviation_sampling": std_s,
                "std_deviation_bounds": {
                    "upper": avg + sigma * std_p,
                    "lower": avg - sigma * std_p,
                    "upper_population": avg + sigma * std_p,
                    "lower_population": avg - sigma * std_p,
                    "upper_sampling": avg + sigma * std_s,
                    "lower_sampling": avg - sigma * std_s,
                },
            }
        else:  # pragma: no cover - shard_plan validated kinds
            raise NotImplementedError(kind)
    for name, kind, arg in plan["sibling"]:
        aggs_out[name] = _sibling_bucket_result(aggs_out, kind, arg)
    out["aggregations"] = aggs_out
    return out


def _runtime_field_fn(s, spec: dict):
    """Compile an ES runtime-field script (``emit(<arithmetic expr>)``
    over ``doc['x'].value`` refs, ``params.*`` and ``Math.*``) into the
    vectorized attrs->array callable ``Searcher.add_runtime_field``
    expects."""
    script = spec.get("script")
    if script is None:
        raise NotImplementedError(
            "runtime_mappings fields need a script")
    src = script["source"] if isinstance(script, dict) else script
    m = re.fullmatch(r"\s*emit\((.*)\)\s*", src, flags=re.S)
    if not m:
        raise NotImplementedError(
            "runtime field scripts must be a single emit(<expr>) over "
            "the painless arithmetic subset")
    expr = painless.translate(m.group(1))
    params = (script.get("params") or {}) if isinstance(script, dict) \
        else {}
    attr_names = painless.doc_refs(expr)

    def fn(attrs):
        docs = {a: np.asarray(attrs[a], dtype=np.float64)
                for a in attr_names}
        out = painless.evaluate(expr, src, params=params, docs=docs,
                                what="runtime field script")
        return np.broadcast_to(
            np.asarray(out, dtype=np.float64), (s.n_local,)).copy()

    return fn


def execute_dsl(s, body: dict) -> dict:
    """Run one ES ``_search`` request body; returns an ES-shaped dict.

    ``runtime_mappings`` register request-scoped computed attributes
    (removed afterwards); a LIST-form top-level ``_source`` projects the
    named doc attrs onto every returned hit."""
    added = []
    try:
        for name, spec in (body.get("runtime_mappings") or {}).items():
            if name in s.doc_attrs:
                raise ValueError(
                    f"runtime field {name!r} shadows a stored attribute")
            s.add_runtime_field(name, _runtime_field_fn(s, spec))
            added.append(name)
        resp = _execute_body(s, body)
        src = body.get("_source")
        if isinstance(src, list) and src:
            for h in resp["hits"]["hits"]:
                li = h["_id"] - s.doc_lo
                h["_source"] = {a: s._attr_value(a, li) for a in src}
        return resp
    finally:
        for name in added:
            s.doc_attrs.pop(name, None)


def _execute_body(s, body: dict) -> dict:
    size = int(body.get("size", 10))
    if ("retriever" in body or "knn" in body) and \
            ("collapse" in body or "rescore" in body):
        raise NotImplementedError(
            "collapse/rescore are not supported with knn/retriever")
    if "retriever" in body:
        # ES 8 retriever tree: only the rrf compound retriever (the
        # standard BM25+knn hybrid) — fused by pipelines.hybrid.rrf_fuse
        from astrologer_ray.pipelines.hybrid import RRF_C, rrf_fuse

        rrf = body["retriever"]["rrf"]
        window = int(rrf.get("rank_window_size", max(size, 10)))
        rankings = [_retriever_ranking(s, r, window)
                    for r in rrf["retrievers"]]
        fused = rrf_fuse(rankings, k=size,
                         c=int(rrf.get("rank_constant", RRF_C)))
        return {"hits": {
            "total": {"value": len({i for r in rankings for i in r}),
                      "relation": "eq"},
            "hits": [{"_id": d, "_score": sc} for d, sc in fused],
        }}
    if "knn" in body:
        arg = body["knn"]
        knn_f = None
        if arg.get("filter"):
            knn_f = _clause_filter(s, *next(iter(arg["filter"].items())))
        hits = s.knn(arg["field"], arg["query_vector"],
                     k=int(arg.get("k", size)),
                     num_candidates=arg.get("num_candidates"),
                     filter=knn_f)
        if "query" not in body:
            return {"hits": {
                "total": {"value": len(hits), "relation": "eq"},
                "hits": [{"_id": h["doc_id"], "_score": h["score"]}
                         for h in hits[:size]],
            }}
        # ES 8 combined retrieval: the knn leg and the query leg each
        # contribute their own top hits; a doc in both legs sums the two
        # scores, then the union re-ranks (ES "hybrid scoring" — each
        # leg's score is only known for docs that leg retrieved)
        if any(k in body for k in ("aggs", "aggregations", "sort",
                                   "explain", "highlight")):
            raise NotImplementedError(
                "knn+query combined retrieval supports hits only")
        t = _translate(s, body.get("query"))
        qhits = _run_hits(s, t, s._live_mask(t.filter), size,
                          body.get("min_score"))
        fused: dict[int, float] = {}
        for h in qhits:
            fused[h["doc_id"]] = fused.get(h["doc_id"], 0.0) + h["score"]
        for h in hits:
            fused[h["doc_id"]] = fused.get(h["doc_id"], 0.0) + h["score"]
        top = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[:size]
        return {"hits": {
            "total": {"value": len(fused), "relation": "eq"},
            "hits": [{"_id": d, "_score": sc} for d, sc in top],
        }}
    t = _translate(s, body.get("query"))
    sort = _parse_sort(body.get("sort"))
    frm = int(body.get("from", 0))
    after = tuple(body["search_after"]) if "search_after" in body else None
    # the request's one evaluation of its filter clauses: the hits, the
    # match mask and every aggregation are derived from it
    live = s._live_mask(t.filter)
    matched = None  # _matched(s, t, live), run at most once per request
    if "collapse" in body:
        # ES field collapsing: one hit (the best) per distinct value of a
        # doc attribute — served by Searcher.search_collapse (plain
        # match/bool-match queries only; hits.total still counts DOCS)
        if not _is_plain_match(t, sort) or t.should_terms or \
                body.get("sort") is not None or after is not None:
            raise NotImplementedError(
                "collapse requires a plain match query with default "
                "ranking")
        hits = s.search_collapse(t.terms, body["collapse"]["field"],
                                 k=size + frm, filter=live)
    elif "rescore" in body:
        # ES rescore: rerank the top-window BM25 hits with a
        # match_phrase proximity bonus (Searcher.rescore semantics:
        # final = bm25 + rescore_query_weight * consecutive-occurrence
        # count; query_weight must stay 1.0)
        rs = body["rescore"]
        rq = rs["query"]["rescore_query"]
        if "match_phrase" not in rq:
            raise NotImplementedError(
                "rescore supports a match_phrase rescore_query only")
        if float(rs["query"].get("query_weight", 1.0)) != 1.0:
            raise NotImplementedError("rescore query_weight must be 1.0")
        if not _is_plain_match(t, sort) or t.should_terms or \
                body.get("sort") is not None or after is not None:
            raise NotImplementedError(
                "rescore requires a plain match query with default "
                "ranking")
        phrase = _tokens(s, _text_of(next(iter(rq["match_phrase"].values()))))
        hits = s.rescore(
            t.terms, phrase, k=size + frm,
            window=int(rs.get("window_size", 10)),
            weight=float(rs["query"].get("rescore_query_weight", 1.0)),
            filter=live)
    elif sort is not None:
        # a field sort orders exactly the docs hits.total counts
        matched = _matched(s, t, live)
        hits = _sort_hits(s, sort, size + frm, matched[0], after)
    else:
        hits = _run_hits(s, t, live, size + frm, body.get("min_score"),
                         after)
    hits = hits[frm:]
    aggs = body.get("aggs") or body.get("aggregations")
    if matched is None:
        matched = _matched(s, t, live)
    resp = {
        "hits": {
            "total": {"value": int(matched[1]), "relation": "eq"},
            "hits": [
                {"_id": h["doc_id"], "_score": h.get("score"),
                 **{k: v for k, v in h.items()
                    if k not in ("doc_id", "score", "rank")}}
                for h in hits
            ],
        }
    }
    if body.get("explain") or body.get("highlight"):
        if "collapse" in body or "rescore" in body:
            # the evidence queries re-run the PLAIN match ranking, whose
            # top-k differs from the collapsed/rescored hit set
            raise NotImplementedError(
                "explain/highlight are not supported with collapse/rescore")
        _attach_hit_evidence(s, body, t, live, sort, resp, size + frm,
                             after)
    if "suggest" in body:
        resp["suggest"] = _run_suggest(s, body["suggest"])
    if aggs:
        # aggs count exactly the docs hits.total counts
        resp["aggregations"] = _run_aggs(
            s, aggs, matched[0], qterms=(t.terms or t.should_terms or None))
    return resp


def _is_plain_match(t: _Translated, sort) -> bool:
    """True when the hits come from the plain terms-scoring
    ``Searcher.search`` ranking (no node, no field ``sort``) — the only
    path explain/highlight evidence is defined for."""
    return t.node is None and sort is None and bool(t.terms or t.should_terms)


def _attach_hit_evidence(s, body: dict, t: _Translated, live, sort,
                         resp: dict, k: int, after) -> None:
    """ES ``explain: true`` (per-hit ``_explanation`` BM25 breakdown) and
    ``highlight`` (per-hit term-occurrence evidence, offsets flavor — the
    index stores positions, not source text, so fragments are structured
    occurrence rows rather than ``<em>`` snippets)."""
    if not _is_plain_match(t, sort):
        raise NotImplementedError(
            "explain/highlight are supported for match/bool match "
            "queries only")
    kw = dict(filter=live, should_terms=t.should_terms or None,
              min_should_match=t.msm, min_score=body.get("min_score"),
              after=after, boosts=t.boosts or None)
    if body.get("explain"):
        by_doc: dict = {}
        for r in s.explain(t.terms, k=k, **kw):
            by_doc.setdefault(r["doc_id"], []).append(r)
        for h in resp["hits"]["hits"]:
            h["_explanation"] = {
                "value": h["_score"],
                "description": "sum of:",
                "details": [
                    {"value": r["weight"],
                     "description": f"weight({r['term']}) "
                                    f"[tf={r['tf']}, df={r['df']}]"}
                    for r in by_doc.get(h["_id"], [])
                ],
            }
    if body.get("highlight"):
        fields = list(body["highlight"].get("fields", {"content": {}}))
        by_doc = {}
        for r in s.highlight(t.terms, k=k, **kw):
            by_doc.setdefault(r["doc_id"], []).append(r)
        for h in resp["hits"]["hits"]:
            rows = [{"term": r["term"], "n_occ": r["n_occ"],
                     "first_pos": r["first_pos"]}
                    for r in by_doc.get(h["_id"], [])]
            h["highlight"] = {f: rows for f in fields}


# --------------------------------------------------------- search templates


def render_search_template(source, params: dict | None = None) -> dict:
    """ES ``_render/template``: substitute mustache ``{{var}}`` holes in a
    template ``source`` (a JSON string or an object) with ``params`` and
    return the rendered request body. The subset templates actually use:

    - ``"{{var}}"`` as an ENTIRE JSON string value → the typed param
      (numbers, lists, objects stay typed — ES renders then re-parses);
    - ``{{#toJson}}var{{/toJson}}`` → the param as JSON (ES extension);
    - ``{{var}}`` inside a longer string → string interpolation.

    Sections/conditionals (``{{#var}}...{{/var}}``) refuse loudly.
    Missing params raise KeyError, like ES's template render error."""
    params = dict(params or {})
    raw = source if isinstance(source, str) else json.dumps(source)

    def _get(name: str):
        if name not in params:
            raise KeyError(f"missing search-template param {name!r}")
        return params[name]

    # toJson first (its braces would confuse the scalar pass)
    raw = re.sub(
        r'"?\{\{#toJson\}\}\s*([\w.]+)\s*\{\{/toJson\}\}"?',
        lambda m: json.dumps(_get(m.group(1))), raw)
    if re.search(r"\{\{[#^/]", raw):
        raise NotImplementedError(
            "search-template sections/conditionals are not supported "
            "(scalar {{var}} and {{#toJson}} holes only)")
    # typed whole-value holes: a JSON string that IS the hole
    raw = re.sub(
        r'"\{\{\s*([\w.]+)\s*\}\}"',
        lambda m: json.dumps(_get(m.group(1))), raw)
    # scalar holes inside longer strings: escaped string interpolation
    raw = re.sub(
        r"\{\{\s*([\w.]+)\s*\}\}",
        lambda m: json.dumps(str(_get(m.group(1))))[1:-1], raw)
    return json.loads(raw)


def execute_search_template(s, body: dict) -> dict:
    """ES ``_search/template``: render the inline ``source`` with
    ``params``, then execute the rendered body via :func:`execute_dsl`.
    Stored template ids are not supported (no cluster state here)."""
    if "source" not in body:
        raise NotImplementedError(
            "search_template requires an inline `source` "
            "(stored template ids are not supported)")
    return execute_dsl(s, render_search_template(body["source"],
                                                 body.get("params")))


# ------------------------------------------------------------- rank eval


def execute_rank_eval(s, body: dict) -> dict:
    """ES ``_rank_eval``: run each request's search body, grade the hit
    list against the request's rated documents, and report the metric
    per request plus the mean over requests — the response shape ES
    returns (``metric_score``, ``details.<id>.metric_score`` /
    ``unrated_docs``).

    Metrics: ``precision`` / ``recall`` (at k, with
    ``relevant_rating_threshold``), ``mean_reciprocal_rank``, and
    ``dcg`` (``normalize: true`` → NDCG against the ideal ordering of
    the request's OWN ratings, ES's definition)."""
    ((mname, mopt),) = body["metric"].items()
    mopt = mopt or {}
    k = int(mopt.get("k", 10))
    thr = int(mopt.get("relevant_rating_threshold", 1))
    details: dict = {}
    scores = []
    for req in body["requests"]:
        rid = req["id"]
        ratings = {int(r["_id"]): int(r["rating"])
                   for r in req.get("ratings", [])}
        resp = execute_dsl(s, {**req["request"], "size": k})
        hit_ids = [h["_id"] for h in resp["hits"]["hits"]]
        rel = [ratings.get(d, 0) >= thr for d in hit_ids]
        unrated = sum(1 for d in hit_ids if d not in ratings)
        if mname == "precision":
            score = (sum(rel) / len(hit_ids)) if hit_ids else 0.0
        elif mname == "recall":
            n_rel = sum(1 for v in ratings.values() if v >= thr)
            score = (sum(rel) / n_rel) if n_rel else 0.0
        elif mname == "mean_reciprocal_rank":
            score = 0.0
            for i, ok in enumerate(rel):
                if ok:
                    score = 1.0 / (i + 1)
                    break
        elif mname == "dcg":
            gains = [float(2 ** ratings.get(d, 0) - 1) for d in hit_ids]
            disc = [math.log2(i + 2) for i in range(len(hit_ids))]
            score = sum(g / d for g, d in zip(gains, disc))
            if mopt.get("normalize"):
                ideal = sorted(ratings.values(), reverse=True)[:k]
                idcg = sum((2 ** r - 1) / math.log2(i + 2)
                           for i, r in enumerate(ideal))
                score = score / idcg if idcg else 0.0
        else:
            raise NotImplementedError(
                f"unsupported rank_eval metric {mname!r}")
        details[rid] = {"metric_score": float(score),
                        "unrated_docs": int(unrated)}
        scores.append(float(score))
    return {
        "metric_score": float(sum(scores) / len(scores)) if scores else 0.0,
        "details": details,
    }


# ----------------------------------------------- metadata endpoint analogs


def _field_types(s) -> dict[str, str]:
    """Field → ES type for the index's query surface: the analyzed text
    field, build-time keyword fields (state/searcher field_term terms),
    and docs-sidecar / runtime attrs typed from their numpy dtype."""
    out = {"content": "text"}
    for f in (s.meta.get("keyword_fields") or {}):
        out[f] = "keyword"
    for name, arr in (s.doc_attrs or {}).items():
        if np.issubdtype(arr.dtype, np.bool_):
            out[name] = "boolean"
        elif np.issubdtype(arr.dtype, np.integer):
            out[name] = "long"
        elif np.issubdtype(arr.dtype, np.floating):
            out[name] = "double"
        else:
            out[name] = "keyword"
    return out


def execute_field_caps(s, fields: list[str] | None = None) -> dict:
    """ES ``_field_caps``: per-field capability map. Text is searchable
    but not aggregatable (no fielddata here, like ES defaults); keyword
    fields and sidecar attrs are both (every filter/agg path accepts
    them). ``fields`` filters with ES's ``*`` suffix wildcard."""
    types = _field_types(s)
    if fields is not None:
        keep = set()
        for pat in fields:
            if pat.endswith("*"):
                keep |= {f for f in types if f.startswith(pat[:-1])}
            elif pat in types:
                keep.add(pat)
        types = {f: t for f, t in types.items() if f in keep}
    return {"fields": {
        f: {t: {"type": t, "metadata_field": False,
                "searchable": True,
                "aggregatable": t != "text"}}
        for f, t in sorted(types.items())
    }}


def execute_mapping(s) -> dict:
    """ES ``GET /<index>/_mapping`` analog: the field/type layout a
    client would introspect — the single analyzed text field (with the
    build's analyzer mode and whether positions are stored), keyword
    fields, and sidecar attrs."""
    props: dict = {}
    for f, t in sorted(_field_types(s).items()):
        if t == "text":
            props[f] = {
                "type": "text",
                "analyzer": s.mode,
                "index_options": ("positions" if s.meta.get("positions")
                                  else "freqs"),
            }
        else:
            props[f] = {"type": t}
    return {"mappings": {"properties": props}}


def execute_validate(s, body: dict | None = None,
                     explain: bool = False) -> dict:
    """ES ``_validate/query``: translate the body's query without
    running it; report whether this engine can serve it. ``explain``
    adds the translation summary (the analog of ES's rewritten Lucene
    query) or the refusal reason."""
    try:
        t = _translate(s, (body or {}).get("query"))
    except Exception as exc:  # noqa: BLE001 — every refusal is "invalid"
        out = {"valid": False}
        if explain:
            out["explanations"] = [{"valid": False, "error": str(exc)}]
        return out
    out = {"valid": True}
    if explain:
        parts = []
        if t.terms:
            parts.append("terms:" + ",".join(t.terms))
        if t.should_terms:
            parts.append("should:" + ",".join(t.should_terms))
        if t.node is not None:
            parts.append(t.node.kind)
        if t.filters:
            parts.append(f"filters:{len(t.filters)}")
        out["explanations"] = [{
            "valid": True,
            "explanation": " ".join(parts) or "match_all",
        }]
    return out
