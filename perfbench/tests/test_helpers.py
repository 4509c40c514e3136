"""Tests of the benchmark's own helpers (no Ray session needed).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import gen, measure, spans
from perfbench.recount import TermModel


def _same(a: gen.Workload, b: gen.Workload) -> bool:
    return (a.base.rows.equals(b.base.rows)
            and np.array_equal(a.base.tok_ident, b.base.tok_ident)
            and a.topk_texts(50) == b.topk_texts(50)
            and a.dsl_bodies(30) == b.dsl_bodies(30)
            and a.tail_batch(0, 20).rows.equals(b.tail_batch(0, 20).rows))


def test_generator_is_deterministic_per_seed():
    assert _same(gen.Workload(7, 200), gen.Workload(7, 200))
    assert not _same(gen.Workload(7, 200), gen.Workload(8, 200))


def test_generator_shape():
    wl = gen.Workload(3, 2_000)
    rows = wl.base.rows
    assert rows.num_rows == 2_000
    assert len(set(rows.column("lang").to_pylist())) == len(gen.LANGS)
    assert len({v.lower() for v in wl.vocab}) == gen.VOCAB
    lengths = np.bincount(wl.base.tok_doc)
    assert 100 < lengths.mean() < 140
    # identifiers are camelCase, snake_case or SCREAMING_CASE only
    assert set(wl.styles.tolist()) == {0, 1, 2}


def test_tail_batch_keys_sort_after_base_and_earlier_batches():
    wl = gen.Workload(5, 300)
    base_max = max(wl.base.rows.column("repo").to_pylist())
    b0 = wl.tail_batch(0, 10).rows.column("repo").to_pylist()
    b1 = wl.tail_batch(1, 10).rows.column("repo").to_pylist()
    assert base_max < min(b0) and max(b0) < min(b1)


def test_marker_is_one_term():
    from astrologer_ray.functions.tokenizer import tokenize

    for b in (0, 1, 25, 26, 9_999):
        assert tokenize(gen.marker(b)) == [gen.marker(b)]
    assert len({gen.marker(b) for b in range(500)}) == 500


def test_dsl_scored_terms_analyze_to_one_whole_identifier():
    from astrologer_ray.functions.tokenizer import tokenize

    wl = gen.Workload(4, 100)
    vocab_lower = {v.lower() for v in wl.vocab}
    for body in wl.dsl_bodies(60):
        q = body["query"]
        clauses = [q["match"]] if "match" in q else [
            m["match"] for m in q["bool"].get("must", [])]
        for c in clauses:
            assert tokenize(c["content"]) == [c["content"]]
            assert c["content"] in vocab_lower


@pytest.mark.parametrize("seed", [1, 2])
def test_recount_matches_oracle_topk_bit_for_bit(seed):
    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.state.bm25 import oracle_topk

    wl = gen.Workload(seed, 300)
    batch = wl.tail_batch(0, 40)
    model = TermModel(wl.vocab, [wl.base, batch])
    contents = []
    for corpus in (wl.base, batch):
        rows = corpus.rows.to_pylist()
        rows.sort(key=lambda r: (r["repo"], r["path"], r["commit"]))
        contents.extend(r["content"] for r in rows)
    assert model.dl.tolist() == [float(len(tokenize(c))) for c in contents]
    texts = wl.topk_texts(8) + [gen.marker(0)]
    for text in texts:
        terms = tokenize(text)
        got, _ = model.bm25_topk(terms, k=10)
        assert got == oracle_topk(contents, terms, k=10)
    allowed = np.arange(len(contents)) % 3 == 0
    got, _ = model.bm25_topk(tokenize(texts[0]), k=10, allowed=allowed)
    assert got == oracle_topk(contents, tokenize(texts[0]), k=10, allowed=allowed)


def test_highest_percentile_needs_ten_samples_beyond():
    assert measure.samples_beyond(1_000, 99.0) == 10
    assert measure.samples_beyond(999, 99.0) == 9
    assert measure.highest_percentile(1_000) == 99.0
    assert measure.highest_percentile(999) == 95.0
    assert measure.highest_percentile(10_000) == 99.9
    assert measure.highest_percentile(20) == 50.0
    assert measure.highest_percentile(19) is None
    assert measure.block_size(90.0) == 100
    assert measure.block_size(95.0) == 200
    assert measure.block_size(99.0) == 1_000
    s = measure.latency_summary([i / 1000 for i in range(1, 1001)])
    assert s["p99_ms_all"] == pytest.approx(990.0)
    assert s["tail_blocks"] == 10


def test_blocked_percentile_is_the_median_of_block_percentiles():
    block = [i / 1000 for i in range(1, 201)]             # p95 = 0.190
    slow = [10 * v for v in block]                        # p95 = 1.90
    # one slow block out of three does not move the result
    assert measure.blocked_percentile(block + slow + block, 95.0) == pytest.approx(0.190)
    # a remainder shorter than a block joins the last block
    assert measure.blocked_percentile(block + block[:100], 95.0) == pytest.approx(
        measure.nearest_rank(sorted(block + block[:100]), 95.0))
    # fewer samples than one block: the percentile of all of them
    assert measure.blocked_percentile(block[:100], 95.0) == pytest.approx(0.095)
    tail = [i / 1000 for i in range(1, 101)]               # p90 = 0.090
    s = measure.latency_summary(tail + [10 * v for v in tail] + tail)
    assert s["tail_blocks"] == 3 and s["p90_ms"] == pytest.approx(90.0)


def test_chunked_rate_is_the_median_of_chunk_rates():
    # 10 requests of 0.1 s back to back, then 10 of 1 s, then 10 of 0.1 s
    lat = [0.1] * 10 + [1.0] * 10 + [0.1] * 10
    sent = np.concatenate(([0.0], np.cumsum(lat)[:-1])).tolist()
    done = [t + d for t, d in zip(sent, lat)]
    assert measure.chunked_rate(sent, done, chunk=10) == pytest.approx(10.0)
    # a remainder joins the last chunk: 15 requests in 1.0 + 5 * 1.0 s
    assert measure.chunked_rate(sent[:15], done[:15], chunk=10) == pytest.approx(2.5)
    # fewer requests than one chunk: the rate of all of them
    assert measure.chunked_rate(sent[:5], done[:5], chunk=10) == pytest.approx(10.0)


def test_self_time_subtracts_the_covered_part_of_children():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping, cover 1..5)
    # and [9, 12] (clipped to 9..10); grandchild [1.5, 2] under the first
    trace = [
        (0, None, "root", 0.0, 10.0, 0),
        (1, 0, "child", 1.0, 3.0, 0),
        (2, 1, "grand", 1.5, 2.0, 0),
        (3, 0, "child", 2.0, 5.0, 0),
        (4, 0, "late", 9.0, 12.0, 0),
    ]
    st = spans.self_times(trace)
    assert st["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st["child"] == pytest.approx((2.0 - 0.5) + 3.0)
    assert st["grand"] == pytest.approx(0.5)
    assert st["late"] == pytest.approx(3.0)


def test_recorder_nests_spans_and_counts_decoded_values():
    rec = spans.Recorder()

    def leaf(n):
        return (np.arange(n),)

    leaf_w = rec.wrap(leaf, "leaf", counted=True)

    def outer():
        return leaf_w(3), leaf_w(4)

    outer_w = rec.wrap(outer, "outer", counted=False)
    outer_w()
    assert rec.take() == []          # disabled: nothing recorded
    rec.enabled = True
    outer_w()
    got = rec.take()
    assert [(s[2], s[1], s[5]) for s in got] == [
        ("outer", None, 0), ("leaf", 0, 3), ("leaf", 0, 4)]
    assert spans.totals(got, "leaf")[2] == 7
    assert [s[2] for s in spans.roots(got)] == ["outer"]
