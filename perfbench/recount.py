"""Benchmark-owned recounts that check the program's answers.

The generator knows which vocabulary identifier sits at every token
position of every document, so per-document term counts come from
analyzing each of the 5k identifiers once with the reference tokenizer
(``functions.tokenizer.tokenize``) instead of re-tokenizing the corpus per
query. BM25 top-k then follows ``state.bm25.oracle_topk`` step for step,
with the same ``idf`` / ``bm25_term_weight`` expression tree, the same
sorted-term summation order and the same tie break, so its (doc_id, score)
pairs are bit-identical to the oracle's; ``tests/test_helpers.py`` checks
that against ``oracle_topk`` itself.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from perfbench.gen import VOCAB, Corpus


class TermModel:
    """Per-document term frequencies of one or more generated corpora,
    in doc_id order.

    ``corpora`` are in index-generation order (base, then tail batches).
    Within a generation the program numbers docs in doc_key order
    (repo, path, commit), so each corpus is permuted by its sorted keys.
    """

    def __init__(self, vocab, corpora: list[Corpus]):
        from astrologer_ray.functions.tokenizer import tokenize

        self._tokenize = tokenize
        ident_terms = [Counter(tokenize(str(v))) for v in vocab]
        self._ident_len = np.array([sum(c.values()) for c in ident_terms], dtype=np.float64)
        self._postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        acc: dict[str, tuple[list[int], list[int]]] = {}
        for rank, c in enumerate(ident_terms):
            for t, m in c.items():
                ids, mult = acc.setdefault(t, ([], []))
                ids.append(rank)
                mult.append(m)
        for t, (ids, mult) in acc.items():
            self._postings[t] = (np.array(ids), np.array(mult, dtype=np.float64))
        self._gens = []
        self._extra: list[str | None] = []
        for corpus in corpora:
            rows = corpus.rows
            keys = list(zip(rows.column("repo").to_pylist(),
                            rows.column("path").to_pylist(),
                            rows.column("commit").to_pylist()))
            order = np.array(sorted(range(corpus.n), key=keys.__getitem__), dtype=np.int64)
            self._gens.append((corpus, order))
            self._extra.extend(corpus.extra[i] for i in order)
        self.n = len(self._extra)
        self.dl = self._doc_sums(self._ident_len, extra=lambda t: len(tokenize(t)))

    def _doc_sums(self, per_ident: np.ndarray, extra) -> np.ndarray:
        parts = []
        for corpus, order in self._gens:
            per_row = np.bincount(corpus.tok_doc, weights=per_ident[corpus.tok_ident],
                                  minlength=corpus.n)
            parts.append(per_row[order])
        out = np.concatenate(parts) if parts else np.zeros(0)
        for i, t in enumerate(self._extra):
            if t is not None:
                out[i] += extra(t)
        return out

    def tf(self, term: str) -> np.ndarray:
        """float64 term frequency of ``term`` in every doc, doc_id order."""
        w = np.zeros(VOCAB, dtype=np.float64)
        if term in self._postings:
            ids, mult = self._postings[term]
            w[ids] = mult
        return self._doc_sums(w, extra=lambda t: self._tokenize(t).count(term))

    def bm25_topk(self, terms: list[str], k: int = 10,
                  allowed: np.ndarray | None = None) -> tuple[list[tuple[int, float]], int]:
        """Exact top-k (doc_id, score) as ``oracle_topk`` computes it, and
        the number of matching docs (``allowed`` applied)."""
        from astrologer_ray import B, K1
        from astrologer_ray.state.bm25 import bm25_term_weight, idf

        n = self.n
        dls = self.dl
        avgdl = float(dls.sum() / n) if n else 0.0
        scores = np.zeros(n, dtype=np.float64)
        matched = np.zeros(n, dtype=bool)
        for t in sorted(set(terms)):
            tf = self.tf(t)
            df = int((tf > 0).sum())
            if df == 0:
                continue
            has = tf > 0
            w = np.zeros(n, dtype=np.float64)
            w[has] = bm25_term_weight(idf(n, df), tf[has], dls[has], avgdl, K1, B)
            scores += w
            matched |= has
        if allowed is not None:
            matched &= allowed
        ids = np.flatnonzero(matched)
        order = np.lexsort((ids, -scores[ids]))[:k]
        return [(int(ids[i]), float(scores[ids[i]])) for i in order], int(len(ids))


def recount_dsl(model: TermModel, docs, body: dict) -> dict:
    """Expected ``hits.total``, hit list and agg buckets of one generated
    DSL body. ``docs`` is the index's ``docs/`` sidecar as a pyarrow table
    (doc_id, repo, lang, dl), from which filters and aggregations recount."""
    import pyarrow.compute as pc

    docs = docs.sort_by("doc_id")
    lang = docs.column("lang")
    dl = docs.column("dl")
    q = body["query"]
    if "match" in q:
        allowed = np.ones(docs.num_rows, dtype=bool)
        scored = q["match"]["content"]
    else:
        filt = q["bool"]["filter"]
        mask = pc.equal(lang, filt[0]["term"]["lang"])
        if len(filt) > 1:
            r = filt[1]["range"]["dl"]
            mask = pc.and_(mask, pc.and_(pc.greater_equal(dl, r["gte"]), pc.less(dl, r["lt"])))
        allowed = mask.to_numpy(zero_copy_only=False)
        must = q["bool"].get("must")
        scored = must[0]["match"]["content"] if must else None
    out: dict = {}
    if scored is not None:
        hits, total = model.bm25_topk([scored], k=body["size"], allowed=allowed)
        out["hits"] = hits
        out["total"] = total
    else:
        out["total"] = int(allowed.sum())
    if "aggs" in body:
        scope = docs.filter(allowed)
        counts = scope.group_by("repo").aggregate([("repo", "count")])
        by_repo = dict(zip(counts.column("repo").to_pylist(),
                           counts.column("repo_count").to_pylist()))
        size = body["aggs"]["repos"]["terms"]["size"]
        out["repos"] = by_repo
        out["repo_top_counts"] = sorted(by_repo.values(), reverse=True)[:size]
        interval = body["aggs"]["dl"]["histogram"]["interval"]
        keys = np.floor(scope.column("dl").to_numpy() / interval) * interval
        uniq, cnt = np.unique(keys, return_counts=True)
        out["hist"] = {float(k): int(c) for k, c in zip(uniq, cnt)}
    return out


def dsl_mismatch(resp: dict, want: dict) -> str | None:
    """None when ``resp`` (one ES response) agrees with ``recount_dsl``."""
    if resp["hits"]["total"]["value"] != want["total"]:
        return f"total {resp['hits']['total']['value']} != {want['total']}"
    if "hits" in want:
        got = [(int(h["_id"]), float(h["_score"])) for h in resp["hits"]["hits"]]
        if got != want["hits"]:
            return f"hits {got[:3]} != {want['hits'][:3]}"
    if "repos" in want:
        aggs = resp["aggregations"]
        buckets = aggs["repos"]["buckets"]
        if [b["doc_count"] for b in buckets] != want["repo_top_counts"]:
            return "terms bucket counts differ"
        if any(want["repos"].get(b["key"]) != b["doc_count"] for b in buckets):
            return "terms bucket keys differ"
        hist = {float(b["key"]): b["doc_count"] for b in aggs["dl"]["buckets"]
                if b["doc_count"]}
        if hist != want["hist"]:
            return "histogram counts differ"
        running = 0
        for b in aggs["dl"]["buckets"]:
            running += b["doc_count"]
            if b["cum"]["value"] != running:
                return "cumulative_sum differs"
    return None
