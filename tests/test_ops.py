"""Unit tests for aggs / dedup / ann / textstats / multimodal operators."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session, sf_dir):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet")


def test_detect_gaps_exact(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import detect_gaps

    vals = [1, 2, 3, 7, 8, 12, 20, 21]
    ds = rd.from_items([{"x": v} for v in vals]).repartition(3)
    out = detect_gaps(ds, "x").to_pandas()
    got = list(zip(out["gap_start"], out["gap_end"]))
    assert got == [(4, 6), (9, 11), (13, 19)]


def test_detect_gaps_no_gaps(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import detect_gaps

    ds = rd.range(50).map_batches(
        lambda t: pa.table({"x": t["id"]}), batch_format="pyarrow"
    )
    assert detect_gaps(ds, "x").num_rows == 0


def test_dedup_exact_synthetic(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.dedup import dedup_exact

    rows = [
        {"doc_id": 0, "text": "aaa"},
        {"doc_id": 1, "text": "bbb"},
        {"doc_id": 2, "text": "aaa"},
        {"doc_id": 3, "text": "aaa"},
        {"doc_id": 4, "text": "ccc"},
    ]
    out = dedup_exact(rd.from_items(rows)).to_pandas().sort_values("keep_id")
    got = dict(zip(out["keep_id"], out["n_dups"]))
    assert got == {0: 3, 1: 1, 4: 1}


def test_dedup_reuses_stored_sha256(ray_session):
    """dedup_incremental / dedup_exact give the same result from a table
    carrying the build's ``sha256`` digest column (no text at all) as from
    the raw text."""
    import hashlib

    import ray.data as rd

    from astrologer_ray.pipelines.dedup import dedup_exact, dedup_incremental

    texts = ["aaa", "bbb", "aaa", None, "ccc", "", "bbb", "ddd", "aaa"]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    digests = [{"doc_id": i, "sha256": hashlib.sha256(
        (t or "").encode()).hexdigest()} for i, t in enumerate(texts)]

    def result(df):
        return sorted(zip(df["keep_id"], df["n_dups"]))

    # one join partition: with more hash partitions than distinct digests
    # some partition is empty, and the Ray hash join fails on it (an open
    # defect, independent of where the digest comes from)
    for a, b in ((rows, digests), (digests, rows)):
        got = dedup_incremental(rd.from_items(a[4:]), rd.from_items(b[:4]),
                                num_partitions=1).to_pandas()
        want = dedup_incremental(rd.from_items(rows[4:]),
                                 rd.from_items(rows[:4]),
                                 num_partitions=1).to_pandas()
        assert result(got) == result(want) == [(4, 1), (7, 1)]
    assert (result(dedup_exact(rd.from_items(digests)).to_pandas())
            == result(dedup_exact(rd.from_items(rows)).to_pandas()))


def test_minhash_finds_near_dups(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.dedup import minhash_dedup

    base = "the quick brown fox jumps over the lazy dog " * 10
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base.replace("lazy", "sleepy", 1)},  # near-dup of 0
        {"doc_id": 2, "text": "completely different content about ray data pipelines " * 8},
        {"doc_id": 3, "text": base},  # exact dup of 0
        {"doc_id": 4, "text": "another unrelated string with its own words " * 9},
    ]
    out = minhash_dedup(rd.from_items(rows), threshold=0.5).to_pandas()
    clusters = dict(zip(out["doc_id"], out["cluster_id"]))
    assert clusters.get(0) == 0 and clusters.get(1) == 0 and clusters.get(3) == 0
    assert 2 not in clusters and 4 not in clusters


def test_jaccard_and_simhash_props():
    from astrologer_ray.pipelines.dedup import jaccard, simhash64

    a = "alpha beta gamma delta epsilon zeta"
    assert jaccard(a, a) == 1.0
    assert jaccard(a, "totally different words here now") == 0.0
    assert simhash64(a) == simhash64(a)
    # near-dup -> small hamming distance; different -> large
    h1, h2 = simhash64(a + " eta"), simhash64(a)
    hd_near = bin(h1 ^ h2).count("1")
    hd_far = bin(simhash64("unrelated text entirely") ^ h2).count("1")
    assert hd_near < hd_far


def test_embedding_near_dup_pairs(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.dedup import embedding_near_dup_pairs

    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((40, 16))
    vecs[7] = vecs[3] * 2.0 + rng.standard_normal(16) * 1e-4  # near-dup pair
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(40)]
    out = embedding_near_dup_pairs(rd.from_items(rows), threshold=0.99).to_pandas()
    assert (3, 7) in set(zip(out["id_a"], out["id_b"]))


def test_ann_brute_equals_numpy(ray_session, sf_dir):
    import ray.data as rd

    from astrologer_ray.pipelines.ann import ann_brute_topk

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    full = ds.to_pandas()
    M = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    ids = full["vec_id"].to_numpy()
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    Q = Mn[:3]
    got = ann_brute_topk(ds, M[:3], k=5).to_pandas()
    for qi in range(3):
        sims = Q[qi] @ Mn.T
        order = np.lexsort((ids, -sims))[:5]
        want = list(ids[order])
        sub = got[got["qid"] == qi]
        assert list(sub["vec_id"]) == want


def test_ann_lsh_recall(ray_session, sf_dir):
    import ray.data as rd

    from astrologer_ray.pipelines.ann import ann_brute_topk, ann_lsh_topk

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    full = ds.to_pandas()
    M = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    Q = M[:5]
    brute = ann_brute_topk(ds, Q, k=10).to_pandas()
    lsh = ann_lsh_topk(ds, Q, k=10, n_planes=6).to_pandas()
    recalls = []
    for qi in range(5):
        want = set(brute[brute["qid"] == qi]["vec_id"])
        got = set(lsh[lsh["qid"] == qi]["vec_id"])
        recalls.append(len(want & got) / len(want))
    # approximate path: each query must at least find itself + neighbors in
    # its probed buckets; on unclustered random vectors recall is modest
    assert np.mean(recalls) > 0.25
    assert all(r > 0 for r in recalls)


def test_langid_profiles(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.textstats import LangId

    rows = [
        {"doc_id": 0, "text": "the cat and the dog are in the house"},
        {"doc_id": 1, "text": "der hund und die katze ist nicht hier"},
        {"doc_id": 2, "text": "le chat est dans la maison et il dort"},
        {"doc_id": 3, "text": ""},
    ]
    out = (
        rd.from_items(rows)
        .map_batches(LangId, batch_format="pyarrow", concurrency=1)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out["pred_lang"]) == ["en", "de", "fr", "und"]


def test_fingerprint_deterministic():
    from astrologer_ray.pipelines.textstats import fingerprint64

    assert fingerprint64("a b c") == fingerprint64("a  b\tc")  # token stream equal
    assert fingerprint64("a b c") != fingerprint64("a b d")
    assert fingerprint64("") == 0


def test_media_stub_strict_raises_and_fake_works(ray_session):
    import ray.data as rd

    from astrologer_ray.stages.multimodal import FEATURE_DIM, MediaFeatureStage

    rows = [
        {"media_id": i, "kind": "image", "payload": bytes([i] * (i + 1)), "meta": "{}"}
        for i in range(20)
    ]
    ds = rd.from_items(rows)
    with pytest.raises(Exception):
        ds.map_batches(
            MediaFeatureStage, batch_format="pyarrow", batch_size=4, concurrency=1
        ).materialize()
    out = ds.map_batches(
        MediaFeatureStage,
        fn_constructor_kwargs={"decode": "fake"},
        batch_format="pyarrow",
        batch_size=4,
        concurrency=1,
    ).to_pandas().sort_values("media_id")
    assert list(out["n_bytes"]) == [i + 1 for i in range(20)]
    feats = np.stack(out["feature"].to_numpy())
    assert feats.shape == (20, FEATURE_DIM)
    np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, rtol=1e-5)
    # determinism: same payload -> same feature
    out2 = ds.map_batches(
        MediaFeatureStage,
        fn_constructor_kwargs={"decode": "fake"},
        batch_format="pyarrow",
        batch_size=7,
        concurrency=1,
    ).to_pandas().sort_values("media_id")
    np.testing.assert_array_equal(feats, np.stack(out2["feature"].to_numpy()))


def test_media_auto_decode_falls_back_without_pil():
    """``decode='auto'`` must behave exactly like the deterministic fake
    when no codec library is importable (this container has none) or when
    a payload is not a decodable image."""
    from astrologer_ray.stages.multimodal import (
        MediaFeatureStage,
        MediaResizeStage,
        _fake_features,
    )

    st = MediaFeatureStage(decode="auto")
    st._pil = None  # force the no-PIL branch regardless of environment
    np.testing.assert_array_equal(st.decode_one(b"abc"), _fake_features(b"abc"))
    rz = MediaResizeStage(decode="auto", target_w=4, target_h=4)
    rz._pil = None
    fake = MediaResizeStage(decode="fake", target_w=4, target_h=4)
    assert rz.resize_one(b"abc") == fake.resize_one(b"abc")


def test_media_auto_decode_uses_pil_when_present():
    PIL_Image = pytest.importorskip("PIL.Image")
    import io

    from astrologer_ray.stages.multimodal import (
        FEATURE_DIM,
        MediaFeatureStage,
        MediaResizeStage,
    )

    buf = io.BytesIO()
    PIL_Image.new("RGB", (32, 16), (200, 10, 10)).save(buf, format="PNG")
    png = buf.getvalue()
    st = MediaFeatureStage(decode="auto")
    f = st.decode_one(png)
    assert f.shape == (FEATURE_DIM,) and abs(np.linalg.norm(f) - 1.0) < 1e-5
    rz = MediaResizeStage(decode="auto", target_w=8, target_h=8)
    out = PIL_Image.open(io.BytesIO(rz.resize_one(png)))
    assert out.size == (8, 8)
    # a non-image payload still flows (fake fallback), never raises
    assert len(st.decode_one(b"not an image")) == FEATURE_DIM


def test_terms_topk_and_buckets(ray_session, docs_ds):
    from astrologer_ray.pipelines.aggs import range_buckets, terms_topk

    top = terms_topk(docs_ds, "lang", k=3).to_pandas()
    assert len(top) == 3
    assert top["n"].is_monotonic_decreasing
    buckets = range_buckets(docs_ds, "n_chars", 100).to_pandas()
    assert buckets["n"].sum() == docs_ds.count()


def test_sessionize_exact(ray_session):
    import datetime as dt

    import ray.data as rd

    from astrologer_ray.pipelines.windows import sessionize

    base = dt.datetime(2024, 1, 1)
    rows = [
        # user 1: two sessions (gap 45 min between idx 1 and 2)
        {"user_id": 1, "ts": base},
        {"user_id": 1, "ts": base + dt.timedelta(minutes=10)},
        {"user_id": 1, "ts": base + dt.timedelta(minutes=55)},
        # user 2: single event
        {"user_id": 2, "ts": base + dt.timedelta(hours=2)},
        # user 3: exactly-30-min gap stays in ONE session (> comparison)
        {"user_id": 3, "ts": base},
        {"user_id": 3, "ts": base + dt.timedelta(minutes=30)},
    ]
    out = (
        sessionize(rd.from_items(rows), "user_id", "ts", gap_minutes=30)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    got = list(zip(out["user_id"], out["session_id"], out["n_events"]))
    assert got == [(1, 1, 2), (1, 2, 1), (2, 1, 1), (3, 1, 2)]
    # skew-safe layout: (key, time-bucket) groups + boundary merge must be
    # result-identical, including a session CHAINING through bucket edges
    # (user 1's first session spans a 10-minute bucket boundary)
    import pandas as pd

    for span in (pd.Timedelta(minutes=10), pd.Timedelta(hours=6)):
        got_b = (
            sessionize(rd.from_items(rows), "user_id", "ts", gap_minutes=30,
                       bucket_span=span)
            .to_pandas()
            .sort_values(["user_id", "session_id"])
            .reset_index(drop=True)
        )
        assert list(zip(got_b["user_id"], got_b["session_id"],
                        got_b["n_events"])) == got, span


def test_sessionize_bucketed_matches_single_group(ray_session, sf_dir):
    """Real events table: bucketed sessionize == one-group-per-key
    sessionize, bit-exact (starts, ends, counts, ids)."""
    import pandas as pd
    import ray.data as rd

    from astrologer_ray.pipelines.windows import sessionize

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def run(span):
        return (
            sessionize(ds, "user_id", "ts", gap_minutes=45, bucket_span=span)
            .to_pandas()
            .sort_values(["user_id", "session_id"])
            .reset_index(drop=True)
        )

    single = run(None)
    assert len(single) > 0
    bucketed = run(pd.Timedelta(hours=2))
    assert bucketed.equals(single)


def test_tumbling_window_counts(ray_session, sf_dir):
    import ray.data as rd

    from astrologer_ray.pipelines.windows import tumbling_window

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    out = tumbling_window(ds, "user_id", "ts", unit="day").to_pandas()
    assert out["n_events"].sum() == ds.count()
    assert (out["n_events"] > 0).all()


def test_minhash_distributed_cc_matches_driver(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.dedup import minhash_dedup

    base = "the quick brown fox jumps over the lazy dog " * 10
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base.replace("lazy", "sleepy", 1)},
        {"doc_id": 2, "text": "completely different content about pipelines " * 8},
        {"doc_id": 3, "text": base},
        {"doc_id": 4, "text": "another unrelated string with its own words " * 9},
        {"doc_id": 5, "text": "x y z " * 5},
        {"doc_id": 6, "text": "x y z " * 5},
    ]
    drv = minhash_dedup(rd.from_items(rows), threshold=0.5, cc="driver").to_pandas()
    dst = minhash_dedup(rd.from_items(rows), threshold=0.5, cc="distributed").to_pandas()
    assert list(map(tuple, drv.values)) == list(map(tuple, dst.values))
    # auto with a zero edge budget must also take the distributed path
    auto = minhash_dedup(rd.from_items(rows), threshold=0.5, cc="auto",
                         driver_edge_budget=0).to_pandas()
    assert list(map(tuple, auto.values)) == list(map(tuple, drv.values))


def test_minhash_signatures_csr_matches_reference():
    from astrologer_ray.pipelines.dedup import MinHasher, _shingle_hashes

    mh = MinHasher(num_perm=64, seed=7)
    texts = ["alpha beta gamma delta " * 4, "", "one two", "alpha beta gamma delta " * 4]
    shl = [_shingle_hashes(t, 3) for t in texts]
    offsets = np.concatenate(([0], np.cumsum([len(x) for x in shl])))
    flat = np.concatenate([x for x in shl if len(x)]) if offsets[-1] else np.empty(0, np.uint64)
    sigs = mh.signatures_csr(flat, offsets.astype(np.int64))
    for i, t in enumerate(texts):
        assert np.array_equal(sigs[i], mh.signature(t)), f"doc {i}"


def test_embedding_lsh_subset_of_brute_with_recall(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.dedup import embedding_near_dup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal((12, 24))
    vecs = []
    for i in range(12):          # 12 clusters of 4 tight near-dups
        for j in range(4):
            vecs.append(base[i] + rng.standard_normal(24) * 0.02)
    vecs = np.array(vecs)
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(len(vecs))]
    brute = embedding_near_dup_pairs(rd.from_items(rows), threshold=0.99,
                                     method="brute").to_pandas()
    lsh = embedding_near_dup_pairs(rd.from_items(rows), threshold=0.99,
                                   method="lsh").to_pandas()
    bset = set(zip(brute["id_a"], brute["id_b"]))
    lset = set(zip(lsh["id_a"], lsh["id_b"]))
    assert lset <= bset                      # every LSH pair is exact-verified
    assert len(lset) / len(bset) >= 0.9      # recall on tight clusters
    # cosines agree exactly where both report the pair
    m = brute.merge(lsh, on=["id_a", "id_b"], suffixes=("_b", "_l"))
    assert np.allclose(m["cosine_b"], m["cosine_l"])


def test_ann_ivf_recall(ray_session, sf_dir):
    import ray.data as rd

    from astrologer_ray.pipelines.ann import ann_brute_topk, ann_ivf_topk

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    full = ds.to_pandas()
    M = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    Q = M[:5]
    brute = ann_brute_topk(ds, Q, k=10).to_pandas()
    ivf = ann_ivf_topk(ds, Q, k=10, n_centroids=16, n_probe=6).to_pandas()
    recalls = []
    for qi in range(5):
        want = set(brute[brute["qid"] == qi]["vec_id"])
        got = set(ivf[ivf["qid"] == qi]["vec_id"])
        recalls.append(len(want & got) / len(want))
    assert np.mean(recalls) > 0.5
    assert all(r > 0 for r in recalls)
    # reported cosines are exact (match brute where ids overlap)
    m = brute.merge(ivf, on=["qid", "vec_id"], suffixes=("_b", "_i"))
    assert np.allclose(m["cosine_b"], m["cosine_i"])


def test_distinct_count_and_hll(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import distinct_count, hll_distinct

    rng = np.random.default_rng(9)
    rows = [{"g": ["a", "b", "c"][i % 3], "v": int(rng.integers(0, 400))}
            for i in range(3000)]
    ds = rd.from_items(rows).repartition(5)
    exact = distinct_count(ds, "g", "v").to_pandas().set_index("g")["n_distinct"]
    import pandas as pd
    want = pd.DataFrame(rows).groupby("g")["v"].nunique()
    assert dict(exact) == dict(want)
    approx = hll_distinct(ds, "g", "v", p=12).to_pandas().set_index("g")[
        "n_distinct_approx"]
    for g in want.index:
        rel = abs(approx[g] - want[g]) / want[g]
        assert rel < 0.1, f"group {g}: {approx[g]} vs {want[g]}"


def test_percentiles_match_numpy(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import percentiles

    rng = np.random.default_rng(4)
    rows = [{"g": "x" if i % 2 else "y", "v": float(rng.normal())} for i in range(999)]
    out = percentiles(rd.from_items(rows).repartition(4), "g", "v").to_pandas()
    import pandas as pd
    df = pd.DataFrame(rows)
    for _, r in out.iterrows():
        v = df[df["g"] == r["g"]]["v"].to_numpy()
        for q, col in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            assert abs(r[col] - round(float(np.quantile(v, q)), 6)) < 1e-9


def test_media_resize_and_frame_sample(ray_session):
    import ray.data as rd

    from astrologer_ray.stages.multimodal import FrameSampleStage, MediaResizeStage

    rows = [
        {"media_id": i, "kind": "video", "payload": bytes(range(256)) * (i + 1),
         "meta": "{}"}
        for i in range(10)
    ]
    ds = rd.from_items(rows)
    with pytest.raises(Exception):
        ds.map_batches(MediaResizeStage, batch_format="pyarrow",
                       batch_size=4, concurrency=1).materialize()
    resized = ds.map_batches(
        MediaResizeStage, fn_constructor_kwargs={"decode": "fake",
                                                 "target_w": 8, "target_h": 8},
        batch_format="pyarrow", batch_size=4, concurrency=1,
    ).to_pandas().sort_values("media_id")
    assert all(len(p) == 64 for p in resized["payload"])
    # deterministic: same payload -> same resized bytes
    r2 = ds.map_batches(
        MediaResizeStage, fn_constructor_kwargs={"decode": "fake",
                                                 "target_w": 8, "target_h": 8},
        batch_format="pyarrow", batch_size=7, concurrency=1,
    ).to_pandas().sort_values("media_id")
    assert list(resized["payload"]) == list(r2["payload"])

    frames = ds.map_batches(
        FrameSampleStage, fn_constructor_kwargs={"decode": "fake",
                                                 "frame_bytes": 256, "every": 2},
        batch_format="pyarrow", batch_size=4, concurrency=1,
    ).to_pandas()
    # media i has (i+1) 256-byte frames; every 2nd sampled -> ceil((i+1)/2)
    got = frames.groupby("media_id").size().to_dict()
    want = {i: (i + 1 + 1) // 2 for i in range(10)}
    assert got == want
    assert (frames["frame_idx"] % 2 == 0).all()
    assert all(len(p) == 256 for p in frames["payload"])


def test_sample_hash_deterministic_and_unbiased(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import sample_hash

    rows = [{"id": i} for i in range(20000)]
    ds = rd.from_items(rows).repartition(6)
    a = sample_hash(ds, "id", 0.2).to_pandas()["id"].sort_values().tolist()
    b = sample_hash(rd.from_items(rows).repartition(3), "id", 0.2).to_pandas()[
        "id"].sort_values().tolist()
    assert a == b                       # parallelism-invariant
    assert 0.17 < len(a) / 20000 < 0.23  # roughly the requested fraction
    sup = sample_hash(ds, "id", 0.5).to_pandas()["id"].tolist()
    assert set(a) <= set(sup)           # nested: smaller frac subset of larger


def test_top_n_per_group(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import top_n_per_group

    rng = np.random.default_rng(2)
    rows = [{"g": int(i % 7), "uid": i, "v": float(rng.integers(0, 10**6))}
            for i in range(700)]
    out = top_n_per_group(rd.from_items(rows).repartition(4), "g", "v", 3).to_pandas()
    import pandas as pd
    df = pd.DataFrame(rows)
    for g, sub in out.groupby("g"):
        want = set(df[df["g"] == g].nlargest(3, "v")["uid"])
        assert set(sub["uid"]) == want


def test_embedding_lsh_attach_fallback_equals_broadcast(ray_session):
    """endpoint_broadcast_budget=0 forces the grouped-join verify path —
    output must equal the endpoint-broadcast path exactly."""
    import ray.data as rd

    from astrologer_ray.pipelines.dedup import embedding_near_dup_pairs

    rng = np.random.default_rng(29)
    base = rng.standard_normal((8, 16))
    vecs = []
    for i in range(8):
        for j in range(3):
            vecs.append(base[i] + rng.standard_normal(16) * 0.02)
    rows = [{"vec_id": i, "embedding": v.tolist()} for i, v in enumerate(vecs)]
    bcast = embedding_near_dup_pairs(rd.from_items(rows), threshold=0.99,
                                     method="lsh").to_pandas()
    attach = embedding_near_dup_pairs(
        rd.from_items(rows), threshold=0.99, method="lsh",
        endpoint_broadcast_budget=0).to_pandas()
    assert len(bcast) > 0
    assert bcast[["id_a", "id_b"]].values.tolist() == \
        attach[["id_a", "id_b"]].values.tolist()
    assert np.allclose(bcast["cosine"], attach["cosine"])


def test_ngram_jaccard_pairs_matches_brute(ray_session):
    """Distributed inverted-index Jaccard == brute all-pairs set Jaccard."""
    import itertools

    import ray.data as rd

    from astrologer_ray.functions.tokenizer import _SIMPLE_RE
    from astrologer_ray.pipelines.dedup import ngram_jaccard_pairs

    texts = [
        "the quick brown fox jumps over the lazy dog again and again",
        "the quick brown fox jumps over the lazy cat again and again",
        "completely different content with no overlap whatsoever here",
        "the quick brown fox jumps over the lazy dog again and again",  # dup of 0
        "short one",                       # < 3 tokens -> no shingles
        "another unrelated document about ray data pipelines and arrow",
    ]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]

    def shset(t):
        toks = _SIMPLE_RE.findall(t.lower())
        return {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}

    want = []
    for a, b in itertools.combinations(range(len(texts)), 2):
        sa, sb = shset(texts[a]), shset(texts[b])
        if not sa or not sb:
            continue
        j = len(sa & sb) / len(sa | sb)
        if j >= 0.3:
            want.append((a, b, round(j, 9)))
    got = ngram_jaccard_pairs(rd.from_items(rows), threshold=0.3).to_pandas()
    got_t = [(int(r.id_a), int(r.id_b), round(float(r.jac), 9))
             for r in got.itertuples()]
    assert sorted(got_t) == sorted(want)
    assert (0, 3, 1.0) in got_t            # exact dup pair at jac=1
    assert not any(4 in (a, b) for a, b, _ in got_t)   # shingle-less doc


def test_extended_stats_exact_and_parallelism_invariant(ray_session):
    """extended_stats integer-moment math == a single-process recompute,
    regardless of block structure (order-independent partials)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import extended_stats

    rng = np.random.default_rng(5)
    n = 4000
    g = rng.choice(["a", "b", "c"], size=n)
    v = np.round(rng.uniform(0.01, 500.0, size=n), 2)
    t = pa.table({"g": g, "v": v})

    def brute():
        rows = []
        for grp in ["a", "b", "c"]:
            c = np.floor(v[g == grp] * 100.0 + 0.5).astype(np.int64)
            s, s2, nn = int(c.sum()), int((c * c).sum()), len(c)
            var_c = (s2 - float(s * s) / nn) / nn
            rows.append({
                "g": grp, "n": nn,
                "min_value": int(c.min()) / 100.0,
                "max_value": int(c.max()) / 100.0,
                "sum_value": s / 100.0,
                "avg_value": round(s / nn / 100.0, 6),
                "var_pop": round(var_c / 10_000.0, 6),
                "std_pop": round((var_c / 10_000.0) ** 0.5, 6),
            })
        return rows

    want = brute()
    for blocks in (1, 7, 64):
        ds = rd.from_arrow(t).repartition(blocks)
        got = extended_stats(ds, "g", "v").to_pylist()
        assert got == want, f"blocks={blocks}"


def test_asof_join_semantics(ray_session):
    """asof_join: backward match, deterministic tie-break by right_cols
    order, tolerance window, one-sided keys dropped, parallelism-invariant."""
    import pandas as pd
    import ray.data as rd

    from astrologer_ray.pipelines.joins import asof_join

    ts = lambda s: pd.Timestamp(s).to_datetime64()
    left_rows = [
        {"k": 1, "t": ts("2024-01-10"), "lid": 100},
        {"k": 1, "t": ts("2024-01-20"), "lid": 101},
        {"k": 1, "t": ts("2024-01-01"), "lid": 102},  # before any right
        {"k": 2, "t": ts("2024-01-15"), "lid": 103},
        {"k": 3, "t": ts("2024-01-15"), "lid": 104},  # key with no right
    ]
    right_rows = [
        {"k": 1, "rt": ts("2024-01-05"), "v": 7, "rid": 1},
        # tie on rt: last in (rt, v, rid) order must win -> v=9, rid=3
        {"k": 1, "rt": ts("2024-01-18"), "v": 9, "rid": 3},
        {"k": 1, "rt": ts("2024-01-18"), "v": 9, "rid": 2},
        {"k": 1, "rt": ts("2024-01-18"), "v": 4, "rid": 9},
        {"k": 2, "rt": ts("2024-01-01"), "v": 5, "rid": 4},
        {"k": 4, "rt": ts("2024-01-01"), "v": 6, "rid": 5},  # right-only key
    ]

    def run(nblocks, tolerance=None, bucket_span=None):
        l = rd.from_pandas(pd.DataFrame(left_rows)).repartition(nblocks)
        r = rd.from_pandas(pd.DataFrame(right_rows)).repartition(nblocks)
        out = asof_join(
            l, r, key="k", on="t",
            left_cols={"lid": pa.int64()},
            right_cols={"v": pa.int64(), "rid": pa.int64()},
            right_key="k", right_on="rt", tolerance=tolerance,
            bucket_span=bucket_span,
        ).to_pandas()
        return out.sort_values("lid").reset_index(drop=True)

    out = run(1)
    got = list(zip(out["lid"], out["r_v"], out["r_rid"]))
    # lid 102 (no earlier right) and 104 (no right side) are dropped
    assert got == [(100, 7, 1), (101, 9, 3), (103, 5, 4)]
    assert out.dtypes["r_v"] == np.int64 and out.dtypes["r_rid"] == np.int64
    assert list(out["r_rt"]) == [ts("2024-01-05"), ts("2024-01-18"),
                                 ts("2024-01-01")]
    # parallelism invariance
    assert run(4).equals(out)
    # tolerance: lid=103 is 14 days after its match -> dropped at 7 days
    tol = run(2, tolerance=pd.Timedelta(days=7))
    assert list(tol["lid"]) == [100, 101]
    # skew-safe bucketing must be invisible to the result: lid=103's match
    # (01-01 -> 01-15) crosses several 2-day buckets, so it exercises the
    # sentinel carry-in; bucket+tolerance compose (lid=100's carry match is
    # 5 days back: inside tol=7d, outside its own 2-day bucket)
    for spb in (pd.Timedelta(days=7), pd.Timedelta(days=2)):
        assert run(3, bucket_span=spb).equals(out), spb
    tolb = run(2, tolerance=pd.Timedelta(days=7),
               bucket_span=pd.Timedelta(days=2))
    assert tolb.equals(tol)


def test_asof_join_bucketed_hot_key(ray_session):
    """One hot key, many rows: bucketed groups must reproduce the single-
    group result exactly (the 100-TB layout where one key cannot be one
    task), including buckets whose right side is empty (multi-bucket
    carry lookback)."""
    import pandas as pd
    import ray.data as rd

    from astrologer_ray.pipelines.joins import asof_join

    rng = np.random.default_rng(3)
    base = pd.Timestamp("2024-01-01").value // 1000
    lts = np.sort(rng.integers(0, 200 * 86_400_000_000, size=600)) + base
    # right rows only in the first 40 days: later left rows look back far
    rts = np.sort(rng.integers(0, 40 * 86_400_000_000, size=80)) + base
    left = pd.DataFrame({"k": 1, "t": pd.to_datetime(lts, unit="us"),
                         "lid": np.arange(600, dtype=np.int64)})
    right = pd.DataFrame({"k": 1, "rt": pd.to_datetime(rts, unit="us"),
                          "v": rng.integers(0, 1000, size=80).astype(np.int64),
                          "rid": np.arange(80, dtype=np.int64)})

    def run(bucket_span):
        out = asof_join(
            rd.from_pandas(left).repartition(5),
            rd.from_pandas(right).repartition(3),
            key="k", on="t",
            left_cols={"lid": pa.int64()},
            right_cols={"v": pa.int64(), "rid": pa.int64()},
            right_key="k", right_on="rt", bucket_span=bucket_span,
        ).to_pandas()
        return out.sort_values("lid").reset_index(drop=True)

    single = run(None)
    assert len(single) > 500  # most left rows match something
    bucketed = run(pd.Timedelta(days=3))
    assert bucketed.equals(single)


def test_pipeline_aggs_window_math():
    """cumulative_sum / derivative / moving_avg over a tiny bucket table:
    exact ints, null first derivative, partial leading windows."""
    from astrologer_ray.pipelines.aggs import pipeline_aggs

    t = pa.table({"b": [3, 1, 2, 4], "n": [10, 4, 6, 2],
                  "s": [100, 50, 70, 30]})
    out = pipeline_aggs(t, "b", cum_cols=["n"], diff_cols=["s"],
                        mavg_cols=["n"], window=3)
    assert out["b"].to_pylist() == [1, 2, 3, 4]          # sorted by bucket
    assert out["cum_n"].to_pylist() == [4, 10, 20, 22]
    assert out["diff_s"].to_pylist() == [None, 20, 30, -70]
    assert out["mavg_n"].to_pylist() == [4.0, 5.0, 20 / 3, 6.0]


def test_percentile_ranks_and_weighted_avg(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import percentile_ranks, weighted_avg

    ds = rd.from_items(
        [{"v": float(i), "g": "a" if i % 2 else "b",
          "cents": 100 * i, "w": i % 3} for i in range(1, 21)]
    ).repartition(4)
    pr = percentile_ranks(ds, "v", [5, 10, 100])
    assert pr["pct"].to_pylist() == [25.0, 50.0, 100.0]
    wa = {r["g"]: r["wavg"] for r in
          weighted_avg(ds, "g", "cents", "w").take_all()}
    # brute: sum(i*w)/sum(w) per group over i=1..20
    import numpy as np
    i = np.arange(1, 21)
    w = i % 3
    for gname, mask in (("a", i % 2 == 1), ("b", i % 2 == 0)):
        want = float((i[mask] * w[mask]).sum()) / float(w[mask].sum())
        assert wa[gname] == pytest.approx(want, rel=1e-12)


def test_ann_pq_recall_and_exact_rerank(ray_session, sf_dir):
    import ray.data as rd

    from astrologer_ray.pipelines.ann import (
        ann_brute_topk,
        ann_pq_topk,
        pq_encode,
        pq_train,
    )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    full = ds.to_pandas()
    M = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    Q = M[:5]
    books = pq_train(ds, n_subvectors=8, n_codes=32)
    # codebook shapes + deterministic retrain
    assert books.C.shape == (8, 32, M.shape[1] // 8)
    books2 = pq_train(ds, n_subvectors=8, n_codes=32)
    assert np.array_equal(books.C, books2.C)
    codes = pq_encode(ds, books)
    ct = codes.to_pandas()
    assert len(ct) == len(full)
    assert all(len(c) == 8 for c in ct["codes"])

    brute = ann_brute_topk(ds, Q, k=10).to_pandas()
    pq = ann_pq_topk(codes, ds, Q, books, k=10, refine=4).to_pandas()
    recalls = []
    for qi in range(5):
        want = set(brute[brute["qid"] == qi]["vec_id"])
        got = set(pq[pq["qid"] == qi]["vec_id"])
        recalls.append(len(want & got) / len(want))
    assert np.mean(recalls) > 0.6, recalls
    assert all(r > 0 for r in recalls)
    # reported cosines are EXACT (re-ranked against true vectors)
    m = brute.merge(pq, on=["qid", "vec_id"], suffixes=("_b", "_p"))
    assert np.allclose(m["cosine_b"], m["cosine_p"], atol=1e-12)


def test_densify_buckets_grid():
    from astrologer_ray.pipelines.aggs import densify_buckets

    import pandas as pd

    hour = 3_600_000_000
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    t2 = np.datetime64("2024-01-01T02:00:00", "us")
    t5 = np.datetime64("2024-01-01T05:00:00", "us")
    hist = pa.table({
        "bucket": pa.array([t2, t0], pa.timestamp("us")),  # unsorted input
        "n": pa.array([7, 3], pa.int64()),
    })
    out = densify_buckets(hist, "bucket", hour, t0, t5, ["n"])
    assert len(out) == 6
    assert out["n"].to_pylist() == [3, 0, 7, 0, 0, 0]
    # empty histogram -> all-zero grid
    empty = hist.slice(0, 0)
    out2 = densify_buckets(empty, "bucket", hour, t0, t5, ["n"])
    assert out2["n"].to_pylist() == [0] * 6


def test_pipeline_aggs_and_percentile_ranks_empty(ray_session):
    """Review findings: empty bucket tables / empty datasets must not
    crash the pipeline aggregations."""
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import percentile_ranks, pipeline_aggs

    empty = pa.table({"b": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "s": pa.array([], pa.int64())})
    out = pipeline_aggs(empty, "b", cum_cols=["n"], diff_cols=["s"],
                        mavg_cols=["n"])
    assert len(out) == 0
    assert {"cum_n", "diff_s", "mavg_n"} <= set(out.column_names)
    ds = rd.from_items([{"v": 1.0}]).filter(expr="v > 5")
    pr = percentile_ranks(ds, "v", [1.0, 2.0])
    assert len(pr) == 0


def test_kmeans_distributed_deterministic(ray_session, sf_dir):
    """Distributed Lloyd's: parallelism-invariant centroids (fixed
    partial-sum order), assignment == brute nearest centroid, inertia
    non-increasing across iterations."""
    import ray.data as rd

    from astrologer_ray.pipelines.ann import kmeans_assign, kmeans_fit

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    C1 = kmeans_fit(ds, k=5, iters=3)
    C2 = kmeans_fit(ds.repartition(7), k=5, iters=3)
    assert np.array_equal(C1, C2)

    full = ds.to_pandas()
    M = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    ids = full["vec_id"].to_numpy()
    out = kmeans_assign(ds, C1).to_pandas().sort_values("vec_id")
    d2 = ((M[:, None, :] - C1[None, :, :]) ** 2).sum(axis=2)
    want = np.argmin(d2, axis=1)
    got = out.set_index("vec_id")["cid"]
    assert np.array_equal(got.loc[ids].to_numpy(), want)
    # more iterations cannot increase inertia
    inert = []
    for it in (1, 3, 6):
        C = kmeans_fit(ds, k=5, iters=it)
        a = kmeans_assign(ds, C).to_pandas()
        inert.append(a["dist2"].sum())
    assert inert[0] >= inert[1] >= inert[2] - 1e-9


def test_repetition_stats_brute_force(ray_session):
    import ray.data as rd

    from astrologer_ray.functions.tokenizer import _SIMPLE_RE
    from astrologer_ray.pipelines.textstats import RepetitionStats

    docs = [
        "spam spam spam spam",           # all-dup tokens, one bigram
        "a b c d e",                     # all unique
        "x y x y x y z",                 # dominant bigram
        "", "solo",
        "Mixed CASE mixed case tokens",  # lowering folds dups
    ]
    ds = rd.from_items([{"doc_id": i, "text": s} for i, s in enumerate(docs)])
    out = ds.map_batches(RepetitionStats, batch_format="pyarrow",
                         batch_size=3, concurrency=1
                         ).to_pandas().sort_values("doc_id")
    from collections import Counter
    for i, s in enumerate(docs):
        tk = _SIMPLE_RE.findall(s.lower())
        r = out[out.doc_id == i].iloc[0]
        assert r["n_tokens"] == len(tk)
        want_dup = 1 - len(set(tk)) / len(tk) if tk else 0.0
        assert abs(r["dup_token_frac"] - want_dup) < 1e-12, (i, s)
        bigs = Counter(zip(tk, tk[1:]))
        want_top = max(bigs.values()) / sum(bigs.values()) if bigs else 0.0
        assert abs(r["top_bigram_frac"] - want_top) < 1e-12, (i, s)


def test_decontaminate_exact_ngram_hits(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.textstats import decontaminate

    bench = ["the quick brown fox jumps"]
    docs = [
        {"doc_id": 0, "text": "x the quick brown fox jumps y"},   # 1 hit (n=4: 2 windows)
        {"doc_id": 1, "text": "the quick brown dog"},             # no full 4-gram
        {"doc_id": 2, "text": "quick brown fox jumps extra"},     # suffix 4-gram
        {"doc_id": 3, "text": "unrelated tokens only here"},
        {"doc_id": 4, "text": "THE QUICK BROWN FOX"},             # case-folded hit
    ]
    out = decontaminate(
        rd.from_items(docs), bench, n=4
    ).to_pandas().sort_values("doc_id")
    got = dict(zip(out.doc_id, out.contaminated_ngrams))
    # bench 4-grams: (the quick brown fox), (quick brown fox jumps)
    assert got == {0: 2, 1: 0, 2: 1, 3: 0, 4: 1}


def test_decontaminate_never_matches_across_doc_boundary(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.textstats import decontaminate

    # adjacent docs whose concatenation contains the benchmark 4-gram,
    # but neither doc alone does
    docs = [{"doc_id": 0, "text": "alpha beta"},
            {"doc_id": 1, "text": "gamma delta"}]
    out = decontaminate(
        rd.from_items(docs), ["alpha beta gamma delta"], n=4
    ).to_pandas()
    assert (out["contaminated_ngrams"] == 0).all()


def test_pack_sequences_matches_greedy_and_is_parallelism_invariant(ray_session):
    import ray.data as rd

    from astrologer_ray.functions.tokenizer import _SIMPLE_RE
    from astrologer_ray.pipelines.packing import pack_sequences

    rng = np.random.default_rng(3)
    docs = [{"doc_id": i,
             "text": " ".join(f"w{j}" for j in range(int(rng.integers(0, 30))))}
            for i in range(57)]
    B, P = 40, 10

    def brute():
        out = {}
        for pid in range(6):
            part = [d for d in docs if d["doc_id"] // P == pid]
            b, cum = 0, None
            for d in part:
                n = len(_SIMPLE_RE.findall(d["text"].lower()))
                if cum is None:
                    cum = n
                elif cum + n > B:
                    b, cum = b + 1, n
                else:
                    cum += n
                out[d["doc_id"]] = (n, pid * P + b)
        return out

    want = brute()
    for parts in (1, 7):
        got = pack_sequences(
            rd.from_items(docs).repartition(parts), bin_tokens=B,
            rows_per_part=P,
        ).to_pandas().sort_values("doc_id")
        assert {int(r.doc_id): (int(r.n_tokens), int(r.bin_id))
                for r in got.itertuples()} == want, parts


def test_auto_date_histogram_ladder(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import auto_date_histogram

    # 1000 events over ~100 minutes -> target 10 buckets picks 30 m
    ts = pa.array(
        np.arange(0, 6_000_000_000, 6_000_000).astype("datetime64[us]")
    )
    ds = rd.from_arrow(pa.table({"ts": ts}))
    buckets, width = auto_date_histogram(ds, "ts", target_buckets=10)
    assert width == 600_000_000  # 10 min: ceil grid of 99.9 min = 10 buckets
    assert buckets.num_rows == 10
    assert int(pa.compute.sum(buckets["n"]).as_py()) == 1000
    # degenerate: a single distinct timestamp -> smallest ladder step
    one = rd.from_arrow(pa.table({"ts": pa.array([ts[0]] * 5)}))
    b1, w1 = auto_date_histogram(one, "ts", target_buckets=10)
    assert w1 == 1_000_000 and b1.num_rows == 1
    import pytest as _pytest

    with _pytest.raises(ValueError):
        auto_date_histogram(ds, "ts", target_buckets=0)


def test_chunk_documents_brute_parity(ray_session):
    import math

    import ray.data as rd

    from astrologer_ray.pipelines.textstats import chunk_documents

    rows = [
        {"doc_id": 1, "text": " ".join(f"t{i}" for i in range(130))},
        {"doc_id": 2, "text": "a b c"},
        {"doc_id": 3, "text": "   "},        # whitespace-only: no chunks
        {"doc_id": 4, "text": "  x   y  "},  # messy whitespace
        {"doc_id": 5, "text": " ".join(f"u{i}" for i in range(64))},
        {"doc_id": 6, "text": ""},
    ]
    out = chunk_documents(rd.from_items(rows), max_tokens=64,
                          overlap=8).take_all()

    def brute(text, mx=64, ov=8):
        toks = text.split()
        if not toks:
            return []
        stride = mx - ov
        k = math.ceil(max(len(toks) - ov, 1) / stride)
        return [(" ".join(toks[i*stride:i*stride+mx]),
                 min(mx, len(toks) - i*stride)) for i in range(k)]

    got = {}
    for r in sorted(out, key=lambda r: (r["doc_id"], r["chunk_id"])):
        got.setdefault(r["doc_id"], []).append((r["chunk"], r["n_tokens"]))
    for row in rows:
        assert got.get(row["doc_id"], []) == brute(row["text"]), row["doc_id"]
    with pytest.raises(ValueError):
        chunk_documents(rd.from_items(rows), max_tokens=8, overlap=8)


def test_redact_pii(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.textstats import redact_pii

    rows = [
        {"doc_id": 1, "text": "mail a.b+tag@ex-ample.co.uk or x@y.io now"},
        {"doc_id": 2, "text": "host 192.168.001.12 port"},
        {"doc_id": 3, "text": "call +1 (415) 555-0123 today"},
        {"doc_id": 4, "text": "clean text with no pii at all"},
        {"doc_id": 5, "text": "mixed bob@corp.com from 10.0.0.1 tel 04415550123"},
    ]
    out = {r["doc_id"]: r["text_redacted"]
           for r in redact_pii(rd.from_items(rows)).take_all()}
    assert out[1] == "mail <EMAIL> or <EMAIL> now"
    assert out[2] == "host <IP> port"
    assert out[3] == "call <PHONE> today"
    assert out[4] == "clean text with no pii at all"
    assert out[5] == "mixed <EMAIL> from <IP> tel <PHONE>"
    import pytest as _pytest

    with _pytest.raises(ValueError):
        redact_pii(rd.from_items(rows), kinds=("ssn",))


def test_duplicate_spans_matches_brute(ray_session):
    """Distributed duplicate-window span detection == brute per-window
    count + island merge, on both span-merge paths (driver and groupby)."""
    import ray.data as rd

    from astrologer_ray import ensure_hash_shuffle
    from astrologer_ray.functions.tokenizer import _SIMPLE_RE
    from astrologer_ray.pipelines.dedup import duplicate_spans

    boiler = "subscribe to our newsletter for weekly updates today"
    texts = [
        f"alpha beta gamma delta {boiler} epsilon zeta eta theta",
        f"one two three four five six {boiler} seven eight nine",
        "completely unrelated text with no duplicated windows at all here",
        # within-doc repeat: the same 6-gram twice in ONE doc counts
        "red green blue cyan magenta yellow padpad red green blue cyan "
        "magenta yellow",
        "tiny doc",                       # < window tokens -> no windows
        f"{boiler} leading occurrence with trailing filler words here now",
    ]
    W = 6

    def brute(min_count):
        from collections import Counter
        per_doc, counts = {}, Counter()
        for d, t in enumerate(texts):
            toks = _SIMPLE_RE.findall(t.lower())
            ws = [" ".join(toks[i:i + W]) for i in range(len(toks) - W + 1)]
            per_doc[d] = ws
            counts.update(ws)
        rows = []
        for d in sorted(per_doc):
            cur = None
            for p, w in enumerate(per_doc[d]):
                if counts[w] < min_count:
                    continue
                if cur is not None and p - cur[1] <= W:
                    cur = (cur[0], p, cur[2] + 1)
                else:
                    if cur is not None:
                        rows.append((d, cur[0], cur[1] + W - 1, cur[2]))
                    cur = (p, p, 1)
            if cur is not None:
                rows.append((d, cur[0], cur[1] + W - 1, cur[2]))
        return rows

    ensure_hash_shuffle()
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]

    got = duplicate_spans(rd.from_items(rows), window=W).to_pandas()
    got_t = [tuple(int(x) for x in r)
             for r in got.itertuples(index=False)]
    want = brute(2)
    assert got_t == want
    assert any(r[0] == 3 for r in want)          # within-doc repeat detected
    assert not any(r[0] in (2, 4) for r in want)  # clean + tiny docs absent

    # distributed groupby(doc_id) span-merge path == driver path
    forced = duplicate_spans(rd.from_items(rows), window=W,
                             driver_span_budget=0).to_pandas()
    assert [tuple(int(x) for x in r)
            for r in forced.itertuples(index=False)] == want

    # partitioning-invariant (edge-run stitch across block counts)
    for nparts in (1, 3):
        alt = duplicate_spans(rd.from_items(rows), window=W,
                              num_partitions=nparts).to_pandas()
        assert [tuple(int(x) for x in r)
                for r in alt.itertuples(index=False)] == want

    # min_count=3: boiler appears 3x (docs 0, 1, 5) and survives; the
    # doc-3 within-doc pair (2 occurrences) does not
    got3 = duplicate_spans(rd.from_items(rows), window=W,
                           min_count=3).to_pandas()
    got3_t = [tuple(int(x) for x in r) for r in got3.itertuples(index=False)]
    assert got3_t == brute(3)
    assert {r[0] for r in got3_t} == {0, 1, 5}


def test_ngram_topk_counts_and_ties(ray_session):
    """Batch-combiner n-gram counting == brute Counter; ties break
    ngram-ascending; result invariant to input block structure."""
    from collections import Counter

    import ray.data as rd

    from astrologer_ray.functions.tokenizer import _SIMPLE_RE
    from astrologer_ray.pipelines.textstats import ngram_topk

    texts = [
        "a b c a b c a b",        # 'a b c' x2, 'b c a' x2, 'c a b' x2, 'a b' tail
        "a b c d e",
        "x y z x y z",
        "b c a b c a",
        "one two",                 # < n tokens
    ]
    want = Counter()
    for t in texts:
        toks = _SIMPLE_RE.findall(t.lower())
        want.update(" ".join(toks[i:i + 3]) for i in range(len(toks) - 2))
    want_rows = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:5]

    rows = [{"text": t} for t in texts]
    for nblocks in (1, 4):
        ds = rd.from_items(rows, override_num_blocks=nblocks)
        got = ngram_topk(ds, n=3, k=5).to_pandas()
        got_rows = [(r.ngram, int(r.n)) for r in got.itertuples()]
        assert got_rows == want_rows, (nblocks, got_rows)


def test_semdedup_matches_brute_and_invariant(ray_session):
    """Distributed SemDedup == single-process greedy over the same
    (deterministic) k-means clustering; block-structure invariant."""
    import ray.data as rd

    from astrologer_ray.pipelines.ann import kmeans_fit
    from astrologer_ray.pipelines.dedup import semdedup

    rng = np.random.default_rng(11)
    base = rng.normal(size=(4, 16))
    rows, vecs, ids = [], [], []
    vid = 0
    for b in base:
        for _ in range(6):
            v = b + rng.normal(scale=0.01, size=16)   # tight near-dups
            rows.append({"vec_id": vid, "embedding": v.tolist()})
            vecs.append(v)
            ids.append(vid)
            vid += 1
    lone = rng.normal(size=16) * 5
    rows.append({"vec_id": vid, "embedding": lone.tolist()})
    vecs.append(lone)
    ids.append(vid)

    K, TH = 4, 0.95

    def brute(ds):
        C = kmeans_fit(ds, k=K, iters=3, seed=29)
        X = np.asarray(vecs, dtype=np.float64)
        d2 = ((X * X).sum(1)[:, None] - 2 * X @ C.T + (C * C).sum(1))
        cid = np.argmin(d2, axis=1)
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        out = {}
        for c in np.unique(cid):
            members = [i for i in ids if cid[i] == c]
            kept = []
            for i in members:
                hit = next((j for j in kept
                            if float(Xn[i] @ Xn[j]) > TH), None)
                if hit is None:
                    kept.append(i)
                    out[i] = (int(c), True, -1)
                else:
                    out[i] = (int(c), False, hit)
        return [(i,) + out[i] for i in sorted(out)]

    ds1 = rd.from_items(rows, override_num_blocks=1)
    want = brute(ds1)

    for nblocks in (1, 5):
        ds = rd.from_items(rows, override_num_blocks=nblocks)
        got = semdedup(ds, k=K, iters=3, threshold=TH).to_pandas()
        got_t = [(int(r.vec_id), int(r.cid), bool(r.keep), int(r.dup_of))
                 for r in got.itertuples()]
        assert got_t == want, nblocks

    n_kept = sum(1 for _, _, kp, _ in want if kp)
    assert n_kept < len(rows)            # tight groups actually pruned
    assert any(i == vid and kp for i, _, kp, _ in want)   # loner survives


def test_shuffle_shards_dense_and_invariant(ray_session):
    """Shard ranks are dense 0..m-1 per shard and block-structure
    invariant (the deterministic-layout contract)."""
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import shuffle_shards

    rows = [{"doc_id": i} for i in range(257)]
    outs = []
    for nblocks in (1, 7):
        ds = rd.from_items(rows, override_num_blocks=nblocks)
        df = (shuffle_shards(ds, "doc_id", n_shards=4, seed=3)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
        outs.append(df)
        assert len(df) == 257 and set(df.shard.unique()) <= set(range(4))
        for s, grp in df.groupby("shard"):
            assert sorted(grp.pos) == list(range(len(grp)))
    assert outs[0].equals(outs[1])


def test_matrix_stats_exact_and_parallelism_invariant(ray_session):
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import matrix_stats

    rng = np.random.default_rng(7)
    x = np.round(rng.normal(50, 10, 500), 2)
    y = (x * 2 + rng.normal(0, 5, 500)).astype(np.int64)  # strong corr
    rows = [{"v": float(a), "k": int(b)} for a, b in zip(x, y)]
    outs = []
    for nblocks in (1, 9):
        ds = rd.from_items(rows, override_num_blocks=nblocks)
        t = matrix_stats(ds, "v", "k", x_scale=100, y_scale=1)
        outs.append(t.to_pandas())
    assert outs[0].equals(outs[1])  # exact integer moments: block-invariant
    got = outs[0].iloc[0]
    xc = np.floor(x * 100.0 + 0.5).astype(np.int64)
    assert got["n"] == 500
    assert got["sx"] == int(xc.sum()) and got["sy"] == int(y.sum())
    assert got["sxy"] == int((xc * y).sum())
    # derived stats agree with numpy population moments
    assert abs(got["var_x"] - np.var(xc / 100.0)) < 1e-3
    assert abs(got["covariance"] - np.cov(xc / 100.0, y, bias=True)[0, 1]) < 1e-2
    r = np.corrcoef(xc / 100.0, y)[0, 1]
    assert abs(got["correlation"] - r) < 1e-3
    assert got["correlation"] > 0.9
    # empty input
    empty = matrix_stats(
        rd.from_items([], override_num_blocks=1)
        if hasattr(rd, "from_items") else None, "v", "k")
    assert empty.num_rows == 0


def test_remove_spans_empty_span_table(ray_session):
    """ADVICE r4: a duplicate-free corpus (empty span table) must pass
    through remove_spans unchanged instead of crashing SpanCutStage."""
    import pyarrow as pa
    import ray.data as rd

    from astrologer_ray import ensure_hash_shuffle
    from astrologer_ray.pipelines.dedup import duplicate_spans, remove_spans

    ensure_hash_shuffle()
    rows = [{"doc_id": i, "text": f"unique words only here {i} alpha beta"}
            for i in range(6)]
    ds = rd.from_items(rows)
    spans = duplicate_spans(ds, window=6)
    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "start_tok": pa.array([], pa.int64()),
        "end_tok": pa.array([], pa.int64()),
        "n_windows": pa.array([], pa.int64()),
    })
    assert spans.num_rows == 0
    out = remove_spans(rd.from_items(rows), empty).to_pandas()
    assert len(out) == 6
    assert (out["n_removed_tokens"] == 0).all()
    # clean_text is the canonical simple-split join, untouched
    assert out.sort_values("doc_id")["clean_text"].iloc[0] == \
        "unique words only here 0 alpha beta"


def test_fuzzy_decontaminate_lsh_matches_brute(ray_session):
    """MinHash-LSH decontamination: flagged docs carry their TRUE exact
    Jaccard (precision exact); near-copies of benchmark docs are found;
    clean docs stay unflagged (brute-force verified)."""
    import ray.data as rd

    from astrologer_ray.pipelines.dedup import jaccard
    from astrologer_ray.pipelines.textstats import fuzzy_decontaminate

    rng = __import__("random").Random(11)
    vocab = [f"tok{i}" for i in range(300)]
    bench = [" ".join(rng.choices(vocab, k=60)) for _ in range(3)]
    docs = []
    # 0: exact copy of bench 0; 1: light edit of bench 1 (high jaccard);
    # 2: heavier edit of bench 2; rest: unrelated
    docs.append({"doc_id": 0, "text": bench[0]})
    ed = bench[1].split()
    ed[5], ed[25] = "zzz", "yyy"
    docs.append({"doc_id": 1, "text": " ".join(ed)})
    ed2 = bench[2].split()
    for p in range(0, 30, 3):
        ed2[p] = f"n{p}"
    docs.append({"doc_id": 2, "text": " ".join(ed2)})
    for i in range(3, 40):
        docs.append({"doc_id": i,
                     "text": " ".join(rng.choices(vocab, k=50))})
    out = fuzzy_decontaminate(
        rd.from_items(docs), bench, threshold=0.5
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # exact copy: jaccard 1.0 against bench 0
    assert out.loc[0, "bench_id"] == 0
    assert out.loc[0, "bench_jaccard"] == 1.0
    # near-copy found, and the reported jaccard IS the true exact one
    assert out.loc[1, "bench_id"] == 1
    assert out.loc[1, "bench_jaccard"] == pytest.approx(
        jaccard(docs[1]["text"], bench[1]))
    assert out.loc[1, "bench_jaccard"] >= 0.5
    # every flagged doc is a true >= threshold match (exact precision)
    for _, r in out[out.bench_id >= 0].iterrows():
        true_j = jaccard(docs[int(r.doc_id)]["text"], bench[int(r.bench_id)])
        assert r.bench_jaccard == pytest.approx(true_j)
        assert true_j >= 0.5
    # no unflagged doc hides a high-similarity match (recall at j>=0.9
    # is ~certain with 32 bands of 4 rows)
    for _, r in out[out.bench_id < 0].iterrows():
        for b in bench:
            assert jaccard(docs[int(r.doc_id)]["text"], b) < 0.9


def test_upsample_hash_epochs_and_invariance(ray_session):
    """Upsampling: floor(rate) copies always + deterministic fractional
    extra, epoch = 0..k-1 per row, parallelism-invariant, and the rate-1
    group passes through exactly once."""
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import upsample_hash

    rows = [{"id": i, "src": f"s{i % 3}"} for i in range(6000)]
    rates = {"s0": 2.5, "s1": 1.0}

    def run(parts):
        return (upsample_hash(rd.from_items(rows).repartition(parts),
                              "id", "src", rates, default_rate=0.25)
                .to_pandas().sort_values(["id", "epoch"])
                .reset_index(drop=True))

    a, b = run(5), run(2)
    assert a.equals(b)                    # parallelism-invariant
    per = a.groupby("id").size()
    s0 = per[per.index % 3 == 0]
    assert set(s0.unique()) == {2, 3}     # 2 always, 3 for the lucky half
    assert 2.4 < s0.mean() < 2.6          # ~rate on average
    assert (per[per.index % 3 == 1] == 1).all()   # rate-1 passthrough
    # epochs are exactly 0..k-1 within each row
    g = a.groupby("id")["epoch"]
    assert (g.min() == 0).all()
    assert (g.max() == per - 1).all()
    # fractional keep nests inside a larger rate (same hash)
    bigger = (upsample_hash(rd.from_items(rows), "id", "src",
                            {"s0": 2.9, "s1": 1.0}, 0.25)
              .to_pandas().groupby("id").size())
    assert ((bigger[per.index % 3 == 0] >= s0)).all()


def test_hopping_window_overlap_and_invariance(ray_session):
    """Each event contributes to exactly size/step windows; totals are
    k x the event count; parallelism-invariant."""
    import pandas as pd
    import ray.data as rd

    from astrologer_ray.pipelines.windows import hopping_window

    base = 1_700_000_000
    rows = [{"ts": pd.Timestamp(base + i * 37, unit="s"),
             "value": float(i % 10)} for i in range(4000)]

    def run(parts):
        return (hopping_window(rd.from_items(rows).repartition(parts),
                               "ts", size_s=1800, step_s=600,
                               value_col="value")
                .to_pandas().sort_values("wstart").reset_index(drop=True))

    a, b = run(4), run(2)
    assert a.equals(b)
    assert a.n_events.sum() == 3 * len(rows)       # k = 3 windows/event
    assert a.sum_c.sum() == 3 * sum(
        int(np.floor(r["value"] * 100 + 0.5)) for r in rows)
    assert ((a.wstart % 600) == 0).all()           # aligned starts
    with pytest.raises(ValueError):
        hopping_window(rd.from_items(rows[:4]), "ts", 1800, 700)


def test_heavy_hitters_mg_guarantees(ray_session):
    """Misra-Gries guarantees on a skewed stream: every phi-frequent
    item surfaces, bounds bracket exact counts, and the summary size
    stays sketch-bounded across partitionings."""
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import heavy_hitters_mg

    rng = np.random.default_rng(11)
    # zipf-ish: a few heavy items over a long tail of singletons
    heavy = [f"h{i}" for i in range(8)]
    vals = []
    for i, h in enumerate(heavy):
        vals += [h] * (4000 >> i)
    vals += [f"t{i}" for i in range(5000)]
    rng.shuffle(vals)
    rows = [{"v": v} for v in vals]
    n = len(vals)
    exact = {h: vals.count(h) for h in set(vals)}

    for parts in (3, 7):
        k = 32
        out = heavy_hitters_mg(rd.from_items(rows).repartition(parts),
                               "v", k=k)
        got = dict(zip(out["item"], out["lower"]))
        upper = dict(zip(out["item"], out["upper"]))
        # (1) bounds bracket the truth for every returned item
        for it, lo in got.items():
            assert lo <= exact[it] <= upper[it]
        # (2) every item above the n/(k+1) frequency bar is present
        bar = n / (k + 1)
        for it, c in exact.items():
            if c > bar:
                assert it in got, (it, c, bar)


def test_heavy_hitters_mg_degenerate_blocks(ray_session):
    """Regression: a block of all-equal counts (truncation drops every
    item) and an empty dataset must not crash; error accounting still
    brackets the truth."""
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import heavy_hitters_mg

    # 200 distinct singletons in one block, k=8: thresh=1, keep empties
    rows = [{"v": f"u{i}"} for i in range(200)]
    out = heavy_hitters_mg(rd.from_items(rows).repartition(1), "v", k=8)
    for _, r in out.iterrows():
        assert r.lower <= 1 <= r.upper
    empty = heavy_hitters_mg(
        rd.from_items([{"v": "x"}]).filter(lambda r: False), "v", k=8)
    assert len(empty) == 0 and list(empty.columns) == [
        "item", "lower", "upper"]


def test_heavy_hitters_mg_keeps_int_keys_and_skips_nulls(ray_session):
    """An int64 key column comes back as int64 items, and a None key is
    neither counted nor a crash in the per-block np.unique."""
    import ray.data as rd

    from astrologer_ray.pipelines.aggs import heavy_hitters_mg

    vals = [7] * 50 + [3] * 20 + [None] * 5 + list(range(100, 130))
    rows = [{"v": v} for v in vals]
    for parts in (1, 3):
        out = heavy_hitters_mg(rd.from_items(rows).repartition(parts), "v", k=4)
        assert str(out["item"].dtype) == "int64"
        top = dict(zip(out["item"].tolist(), out["lower"].tolist()))
        upper = dict(zip(out["item"].tolist(), out["upper"].tolist()))
        assert list(top)[:2] == [7, 3]
        for it, want in ((7, 50), (3, 20)):
            assert top[it] <= want <= upper[it]
