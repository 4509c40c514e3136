"""Hybrid retrieval: Reciprocal Rank Fusion of heterogeneous rankers.

ES exposes RRF as the ``rrf`` retriever (the standard way to combine a
BM25 ``match`` leg with a ``knn`` vector leg without score calibration):

    rrf(d) = sum over rankers r of 1 / (c + rank_r(d))

with ``c = 60`` (Cormack, Clarke & Buettcher 2009, "Reciprocal Rank
Fusion outperforms Condorcet and individual Rank Learning Methods") and
``rank`` starting at 1 within each ranker's top window.  Ranks — not
scores — are fused, so a BM25 leg (unbounded scores) and a cosine leg
([-1, 1]) need no normalization.

Scale shape: fusion consumes only the legs' top-window id lists (k·legs
ids, driver-sized by construction) — the heavy lifting stays in the leg
engines (MaxScore top-k actors, per-task ANN top-k); this module is the
exact, deterministic combiner.
"""

from __future__ import annotations

RRF_C = 60  # the ES / original-paper constant


def rrf_fuse(
    rankings: list[list[int]],
    k: int = 10,
    c: int = RRF_C,
    weights: list[float] | None = None,
) -> list[tuple[int, float]]:
    """Fuse ranked id lists; returns the top-``k`` ``(id, rrf_score)``
    with ties broken id-ascending. ``weights`` (ES ``rank_window_size``
    siblings support per-retriever boosts) scale each leg's reciprocal
    contributions; ids may appear in any subset of the legs."""
    if weights is None:
        weights = [1.0] * len(rankings)
    if len(weights) != len(rankings):
        raise ValueError("one weight per ranking")
    scores: dict[int, float] = {}
    for ranking, w in zip(rankings, weights):
        seen = set()
        for rank, i in enumerate(ranking, start=1):
            if i in seen:
                raise ValueError(f"duplicate id {i} within one ranking")
            seen.add(i)
            scores[i] = scores.get(i, 0.0) + w / (c + rank)
    out = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return out[:k]
