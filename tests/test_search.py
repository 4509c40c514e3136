import glob

import numpy as np
import pyarrow.parquet as pq
import pytest

from astrologer_ray.pipelines.build import build_index
from astrologer_ray.stages.spimi import KEY_SEP
from astrologer_ray.state.bm25 import oracle_topk
from astrologer_ray.state.searcher import Searcher, SearchStage


@pytest.fixture(scope="module")
def index_and_oracle(ray_session, small_corpus_dir, tmp_path_factory):
    index_dir = str(tmp_path_factory.mktemp("sindex"))
    build_index(small_corpus_dir, index_dir, partition_rows=64, n_shards=4,
                chunk_bits=6)  # small chunks => multi-chunk terms get exercised
    src = pq.read_table(sorted(glob.glob(small_corpus_dir + "/*.parquet")))
    rows = sorted(
        zip(src.column("repo").to_pylist(), src.column("path").to_pylist(),
            src.column("commit").to_pylist(), src.column("lang").to_pylist(),
            src.column("content").to_pylist()),
        key=lambda r: f"{r[0]}{KEY_SEP}{r[1]}{KEY_SEP}{r[2]}",
    )
    contents = [r[4] for r in rows]
    langs = np.array([r[3] for r in rows], dtype=object)
    return index_dir, contents, langs


def _queries(searcher):
    """Reference query set (FIXTURES F2): head, mid, df=1, absent terms."""
    terms_by_df = sorted(searcher.df.items(), key=lambda kv: -kv[1])
    head = [t for t, _ in terms_by_df[:5]]
    mid = [t for t, _ in terms_by_df[len(terms_by_df) // 2: len(terms_by_df) // 2 + 5]]
    rare = [t for t, d in terms_by_df if d == 1][:3]
    qs = [
        ([head[0]], 10),
        (head[:3], 10),
        ([head[0], mid[0]], 10),
        (mid[:2], 1),
        ([rare[0]] if rare else [mid[0]], 10),
        (["zzz_no_such_term"], 10),
        ([head[0], "zzz_no_such_term"], 10),
        (head[:2] + mid[:2] + rare[:1], 100),
        ([mid[0], mid[0], mid[0]], 10),  # duplicate query terms
        (["lonelyterm"], 5),
        (["zzqxrareterm_only_here"], 5),  # df=1 idf extreme (edge row)
    ]
    return qs


@pytest.mark.parametrize("strategy", ["taat", "wand"])
def test_topk_rank_and_score_identical(index_and_oracle, strategy):
    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    for terms, k in _queries(s):
        want = oracle_topk(contents, terms, k=k)
        got = [
            (h["doc_id"], h["score"])
            for h in s.search(terms, k=k, strategy=strategy)
        ]
        assert got == want, f"[{strategy}] query {terms} k={k}:\n got {got}\nwant {want}"


def test_topk_with_lang_filter(index_and_oracle):
    index_dir, contents, langs = index_and_oracle
    s = Searcher(index_dir)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    head = [t for t, _ in terms_by_df[:3]]
    for lang in ["python", "go", "markdown"]:
        want = oracle_topk(contents, head, k=10, allowed=(langs == lang))
        got = [(h["doc_id"], h["score"]) for h in s.search(head, k=10, lang=lang)]
        assert got == want, f"lang={lang}"


def test_search_text_and_decorate(index_and_oracle):
    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    hits = s.search_text("getIndex mergeSort", k=5, decorate=True)
    assert hits and all("repo" in h and "doc_key" in h for h in hits)
    ranks = [h["rank"] for h in hits]
    assert ranks == list(range(len(hits)))


def test_search_stage_batch(index_and_oracle):
    import ray.data as rd

    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    qs = _queries(s)
    queries = rd.from_items(
        [{"qid": i, "terms": list(t), "k": k} for i, (t, k) in enumerate(qs)]
    )
    out = queries.map_batches(
        SearchStage,
        fn_constructor_kwargs={"index_dir": index_dir},
        batch_format="pyarrow",
        concurrency=2,
    ).to_pandas()
    for i, (terms, k) in enumerate(qs):
        want = oracle_topk(contents, terms, k=k)
        sub = out[out.qid == i].sort_values("rank")
        got = list(zip(sub.doc_id.astype(int), sub.score))
        assert got == want, f"qid={i} {terms}"


@pytest.fixture(scope="module")
def kw_index(ray_session, small_corpus_dir, tmp_path_factory):
    """Index with keyword fields over repo + lang (field-scoped surface)."""
    index_dir = str(tmp_path_factory.mktemp("kwindex"))
    build_index(small_corpus_dir, index_dir, partition_rows=64, n_shards=4,
                chunk_bits=6, keyword_fields={"repo": "repo", "lang": "lang"})
    src = pq.read_table(sorted(glob.glob(small_corpus_dir + "/*.parquet")))
    rows = sorted(
        zip(src.column("repo").to_pylist(), src.column("path").to_pylist(),
            src.column("commit").to_pylist(), src.column("lang").to_pylist(),
            src.column("content").to_pylist()),
        key=lambda r: f"{r[0]}{KEY_SEP}{r[1]}{KEY_SEP}{r[2]}",
    )
    return index_dir, rows


def test_keyword_fields_do_not_change_bm25(index_and_oracle, kw_index):
    """Keyword-field postings must not shift text BM25 (dl/df unchanged)."""
    plain_dir, contents, _ = index_and_oracle
    kw_dir, _rows = kw_index
    s0, s1 = Searcher(plain_dir, load_docs=False), Searcher(kw_dir, load_docs=False)
    assert s0.avgdl == s1.avgdl and s0.N == s1.N
    for terms, k in _queries(s0):
        a = [(h["doc_id"], round(h["score"], 9)) for h in s0.search(terms, k=k)]
        b = [(h["doc_id"], round(h["score"], 9)) for h in s1.search(terms, k=k)]
        assert a == b


def test_field_term_lookup_matches_scan(kw_index):
    index_dir, rows = kw_index
    s = Searcher(index_dir)
    repos = sorted({r[0] for r in rows})
    langs = sorted({r[3] for r in rows})
    for repo in repos[:3]:
        want = [i for i, r in enumerate(rows) if r[0] == repo]
        got = [h["doc_id"] for h in s.field_lookup({"field_term": {"repo": repo}})]
        assert got == want
    # bool must of two field terms == AND of scans
    want = [i for i, r in enumerate(rows) if r[0] == repos[0] and r[3] == langs[0]]
    got = [h["doc_id"] for h in s.field_lookup({"bool": {"must": [
        {"field_term": {"repo": repos[0]}}, {"field_term": {"lang": langs[0]}},
    ]}})]
    assert got == want


def test_filter_dsl_term_exists_bool_match(kw_index):
    from collections import Counter

    from astrologer_ray.functions.tokenizer import tokenize

    index_dir, rows = kw_index
    s = Searcher(index_dir)
    langs = [r[3] for r in rows]
    # sidecar term == numpy scan
    lang0 = sorted(set(langs))[0]
    assert s.count({"term": {"lang": lang0}}) == sum(1 for x in langs if x == lang0)
    # exists: every row has a lang; no row has an empty repo
    assert s.count({"exists": "lang"}) == len(rows)
    # match: posting membership == brute containment
    term = next(t for t in s.df if "\x1e" not in t and s.df[t] < len(rows))
    want = sum(1 for r in rows if term in tokenize(r[4], mode="code"))
    assert s.count({"match": term}) == want
    # must_not + should composition
    n_not = s.count({"bool": {"must_not": [{"term": {"lang": lang0}}]}})
    assert n_not == len(rows) - s.count({"term": {"lang": lang0}})
    two = sorted(set(langs))[:2]
    n_should = s.count({"bool": {"should": [
        {"term": {"lang": two[0]}}, {"term": {"lang": two[1]}}]}})
    assert n_should == sum(1 for x in langs if x in two)
    # filtered search returns only allowed docs, scores unchanged vs global
    filt = {"term": {"lang": lang0}}
    hits = s.search(["the"], k=10, filter=filt)
    for h in hits:
        assert langs[h["doc_id"]] == lang0
    # agg twin matches a pandas groupby
    got = s.agg_terms("lang", k=3, filter={"exists": "lang"})
    want_counts = Counter(langs)
    want = sorted(want_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    assert got == want


def test_sharded_pool_equals_full_searcher(index_and_oracle):
    from astrologer_ray.state.pool import ShardedSearchPool

    index_dir, _contents, _ = index_and_oracle
    full = Searcher(index_dir, load_docs=False)
    pool = ShardedSearchPool(index_dir, n_actors=4)
    try:
        qs = _queries(full)
        for terms, k in qs:
            want = [(h["doc_id"], h["score"]) for h in full.search(terms, k=k)]
            got = [(h["doc_id"], h["score"]) for h in pool.search(terms, k=k)]
            assert got == want, f"{terms}"
        many = pool.search_many([(t, k) for t, k in qs[:4]])
        for (terms, k), hits in zip(qs[:4], many):
            want = [(h["doc_id"], h["score"]) for h in full.search(terms, k=k)]
            assert [(h["doc_id"], h["score"]) for h in hits] == want
    finally:
        pool.shutdown()


def test_wand_with_filters_matches_taat(kw_index):
    index_dir, rows = kw_index
    s = Searcher(index_dir)
    langs = sorted({r[3] for r in rows})
    filt = {"bool": {"must": [{"term": {"lang": langs[0]}}]}}
    for terms, k in _queries(s)[:6]:
        a = [(h["doc_id"], round(h["score"], 9))
             for h in s.search(terms, k=k, filter=filt, strategy="taat")]
        b = [(h["doc_id"], round(h["score"], 9))
             for h in s.search(terms, k=k, filter=filt, strategy="wand")]
        assert a == b, f"{terms}"


def test_range_filter_matches_scan(kw_index):
    """{"range": {...}} over the numeric dl sidecar attr == brute mask."""
    from astrologer_ray.functions.tokenizer import tokenize

    index_dir, rows = kw_index
    s = Searcher(index_dir)
    dls = np.array([len(tokenize(r[4], mode="code")) for r in rows])
    med = int(np.median(dls))
    for bounds, mask in [
        ({"gte": med}, dls >= med),
        ({"lt": med}, dls < med),
        ({"gt": med - 5, "lte": med + 5}, (dls > med - 5) & (dls <= med + 5)),
    ]:
        filt = {"range": {"dl": bounds}}
        assert s.count(filt) == int(mask.sum()), bounds
        got = sorted(h["doc_id"] for h in s.field_lookup(filt))
        assert got == list(np.flatnonzero(mask)), bounds
    # composed with search: every hit obeys the range, both strategies agree
    terms, k = _queries(s)[1]
    filt = {"range": {"dl": {"gte": med}}}
    a = [(h["doc_id"], round(h["score"], 9))
         for h in s.search(terms, k=k, filter=filt, strategy="taat")]
    b = [(h["doc_id"], round(h["score"], 9))
         for h in s.search(terms, k=k, filter=filt, strategy="wand")]
    assert a == b and all(dls[d] >= med for d, _ in a)
    with pytest.raises(ValueError):
        s.filter_mask({"range": {"dl": {"between": (1, 2)}}})


def test_should_scoring_matches_taat_and_semantics(index_and_oracle):
    """should adds score without creating candidates; msm gates; TAAT==WAND."""
    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    head = [t for t, _ in terms_by_df[:4]]
    mid = [t for t, _ in terms_by_df[len(terms_by_df) // 2:][:4]]
    cases = [
        ([head[0]], [mid[0], mid[1]], 0),
        ([head[0], head[1]], [mid[0]], 1),
        ([mid[0]], [head[0], head[1]], 2),
        ([], [head[0], mid[0]], 0),          # should-only: >=1 must match
        ([head[0]], ["zzz_no_such_term"], 0),
        ([head[0]], [head[0], mid[0]], 0),   # overlap contributes once
    ]
    must_sets = {
        t: {i for i, c in enumerate(contents)
            if t in __import__("astrologer_ray.functions.tokenizer",
                               fromlist=["tokenize"]).tokenize(c, mode="code")}
        for t in set(head + mid)
    }
    for must, should, msm in cases:
        a = s.search(must, k=20, should_terms=should, min_should_match=msm,
                     strategy="taat")
        b = s.search(must, k=20, should_terms=should, min_should_match=msm,
                     strategy="wand")
        assert [(h["doc_id"], round(h["score"], 9)) for h in a] == \
               [(h["doc_id"], round(h["score"], 9)) for h in b], (must, should, msm)
        for h in a:
            d = h["doc_id"]
            if must:
                assert any(d in must_sets[t] for t in must)
            n_sh = sum(d in must_sets.get(t, set()) for t in set(should) - set(must))
            assert n_sh >= (msm if must else max(msm, 1)), (must, should, msm, d)
        # should terms strictly increase a matching doc's score
        if must and should and should[0] in must_sets:
            base = {h["doc_id"]: h["score"]
                    for h in s.search(must, k=len(contents))}
            both = must_sets[must[0]] & must_sets[should[0]]
            for h in a:
                if h["doc_id"] in both and should[0] not in must:
                    assert h["score"] > base[h["doc_id"]] - 1e-12


def test_sharded_pool_with_docs_and_filters(index_and_oracle):
    """Doc-range actors with load_docs=True: sidecar reads are pruned to the
    range (per-actor exists counts sum to N, none holds all N rows), and
    filtered/decorated scatter-gather equals the full searcher."""
    import ray

    from astrologer_ray.state.pool import ShardedSearchPool, _merge_topk

    index_dir, contents, langs = index_and_oracle
    full = Searcher(index_dir)
    pool = ShardedSearchPool(index_dir, n_actors=4, load_docs=True)
    try:
        per_actor = ray.get([a.count.remote({"exists": "lang"})
                             for a in pool.actors])
        assert sum(per_actor) == len(contents)
        assert all(c < len(contents) for c in per_actor)  # pruned, not full-N
        lang0 = sorted(set(langs))[0]
        filt = {"term": {"lang": lang0}}
        for terms, k in _queries(full)[:6]:
            want = [(h["doc_id"], h["score"], h["lang"])
                    for h in full.search(terms, k=k, filter=filt, decorate=True)]
            got_lists = ray.get([
                a.search.remote(terms, k=k, filter=filt, decorate=True)
                for a in pool.actors
            ])
            got = [(h["doc_id"], h["score"], h["lang"])
                   for h in _merge_topk(got_lists, k)]
            assert got == want, f"{terms}"
    finally:
        pool.shutdown()


def test_replicated_pool_equals_full_searcher(index_and_oracle):
    from astrologer_ray.state.pool import ReplicatedSearchPool

    index_dir, _contents, _ = index_and_oracle
    full = Searcher(index_dir, load_docs=False)
    pool = ReplicatedSearchPool(index_dir, n_actors=3)
    try:
        pool.warm()
        qs = _queries(full)
        for terms, k in qs:  # round-robin covers every replica
            want = [(h["doc_id"], h["score"]) for h in full.search(terms, k=k)]
            got = [(h["doc_id"], h["score"]) for h in pool.search(terms, k=k)]
            assert got == want, f"{terms}"
        many = pool.search_many([(t, k) for t, k in qs[:5]])
        for (terms, k), hits in zip(qs[:5], many):
            want = [(h["doc_id"], h["score"]) for h in full.search(terms, k=k)]
            assert [(h["doc_id"], h["score"]) for h in hits] == want
    finally:
        pool.shutdown()


def test_pool_mid_size_messages_do_not_stall(index_and_oracle):
    """A pool message above 16 KB goes out as two writes (header, then
    payload); with Nagle's algorithm on, the payload waits for the peer's
    delayed ACK (~40 ms). A 16-64 KB reply, and a 16-64 KB request with
    such a reply, must come back equal to the in-process searcher and
    fast."""
    import pickle
    import statistics
    import time

    from astrologer_ray.state.pool import ReplicatedSearchPool

    index_dir, _contents, _ = index_and_oracle
    full = Searcher(index_dir, load_docs=True)
    terms = sorted(full.df, key=lambda t: -full.df[t])[:2]
    n = full.n_local
    keys = {"filter": {"bool": {"should": [
        {"term": {"doc_key": key}} for key in full._attr("doc_key")]}}}
    pool = ReplicatedSearchPool(index_dir, n_actors=1, load_docs=True)
    try:
        pool.warm()
        for kw in ({}, keys):
            want = full.search(terms, k=n, decorate=True, **kw)
            assert 16_384 < len(pickle.dumps(want)) < 65_536
            request = ("search", (terms,), {"k": n, "decorate": True, **kw})
            assert kw == {} or 16_384 < len(pickle.dumps([request])) < 65_536
            lat = []
            for _ in range(20):
                t0 = time.perf_counter()
                got = pool.search(terms, k=n, decorate=True, **kw)
                lat.append(time.perf_counter() - t0)
                assert got == want
            assert statistics.median(lat) < 0.020, (list(kw), lat)
    finally:
        pool.shutdown()


def test_pool_connection_carries_one_request_at_a_time(index_and_oracle):
    """Two driver threads share a one-replica pool: each reply is the one
    for that thread's own query."""
    import sys
    import threading

    from astrologer_ray.state.pool import ReplicatedSearchPool

    index_dir, _contents, _ = index_and_oracle
    full = Searcher(index_dir, load_docs=False)
    qs = _queries(full)
    # computed up front: the in-process searcher is not thread-safe either
    wants = [[(h["doc_id"], h["score"]) for h in full.search(terms, k=k)]
             for terms, k in qs]
    pool = ReplicatedSearchPool(index_dir, n_actors=1)
    errors = []

    def client(offset: int) -> None:
        try:
            for i in range(50):
                q = (i + offset) % len(qs)
                terms, k = qs[q]
                got = [(h["doc_id"], h["score"])
                       for h in pool.search(terms, k=k)]
                assert got == wants[q], (offset, i, terms)
        except Exception as e:  # surfaced in the main thread
            errors.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(off,))
                   for off in (0, len(qs) // 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
        pool.shutdown()
    assert not errors, errors


def test_pool_connection_authenticates_and_serves_only_pool_methods(
        index_and_oracle):
    """The actor's listener drops a client with the wrong key and still
    accepts the right one; a method outside the served four is refused
    with ``ValueError`` and the connection stays usable."""
    import pickle
    from multiprocessing.connection import AuthenticationError, Client

    import ray

    from astrologer_ray.state.pool import ReplicatedSearchPool, _serve

    index_dir, _contents, _ = index_and_oracle
    full = Searcher(index_dir, load_docs=False)
    terms = sorted(full.df, key=lambda t: -full.df[t])[:2]
    pool = ReplicatedSearchPool(index_dir, n_actors=1)
    try:
        address, key = ray.get(pool.actors[0].__ray_call__.remote(_serve))
        with pytest.raises(AuthenticationError):
            Client(address, authkey=bytes(32))
        with Client(address, authkey=key) as conn:
            conn.send_bytes(pickle.dumps([("search", (terms,), {"k": 3})]))
            ((ok, hits),) = pickle.loads(conn.recv_bytes())
            assert ok and hits == full.search(terms, k=3)
        with pytest.raises(ValueError, match="count"):
            pool._route([("count", ({"exists": "lang"},), {})])
        assert pool.search(terms, k=3) == full.search(terms, k=3)
    finally:
        pool.shutdown()


def test_sharded_pool_names_a_lost_shard(index_and_oracle):
    """A doc-range shard's documents live on one actor only: losing it
    fails the request with an error naming the shard."""
    import time

    import ray

    from astrologer_ray.state.pool import ShardedSearchPool

    index_dir, _contents, _ = index_and_oracle
    full = Searcher(index_dir, load_docs=False)
    terms, k = _queries(full)[1]
    pool = ShardedSearchPool(index_dir, n_actors=3)
    try:
        pool.warm()
        ray.kill(pool.actors[1])
        deadline = time.monotonic() + 60
        with pytest.raises(ConnectionError, match=r"shard 1 \(chunks"):
            while time.monotonic() < deadline:  # ray.kill is asynchronous
                pool.search(terms, k=k)
    finally:
        pool.shutdown()


def test_prefix_filters_match_scan(kw_index):
    """prefix / field_prefix / attr_prefix == brute startswith scans."""
    from astrologer_ray.functions.tokenizer import tokenize

    index_dir, rows = kw_index
    s = Searcher(index_dir)
    plain = sorted(t for t in s.df if "\x1e" not in t)
    pre = plain[len(plain) // 3][:3]
    # expansion == sorted dictionary slice (all terms, either namespace)
    assert s.expand_prefix(pre) == sorted(t for t in s.df if t.startswith(pre))
    assert len(s.expand_prefix(pre)) >= 1
    # max_terms keeps the highest-df expansions
    capped = s.expand_prefix(pre, max_terms=1)
    full = s.expand_prefix(pre)
    assert len(capped) == 1 and s.df[capped[0]] == max(s.df[t] for t in full)
    # text prefix filter == any-token-startswith brute scan
    toksets = [set(tokenize(r[4], mode="code")) for r in rows]
    want = sum(1 for ts in toksets if any(t.startswith(pre) for t in ts))
    assert s.count({"prefix": pre}) == want
    # field_prefix over the repo keyword field == attr startswith
    repos = [r[0] for r in rows]
    rpre = sorted(set(repos))[0][:2]
    want_r = sum(1 for r in repos if r.startswith(rpre))
    assert s.count({"field_prefix": {"repo": rpre}}) == want_r
    # attr_prefix (sidecar scan flavor) agrees
    assert s.count({"attr_prefix": {"repo": rpre}}) == want_r
    with pytest.raises(ValueError):
        s.expand_prefix("")


def test_bool_filter_under_chunk_range_shards(kw_index):
    """bool/should masks must size to the doc-range slice: per-shard counts
    of a composed filter sum exactly to the full searcher's count."""
    index_dir, rows = kw_index
    s = Searcher(index_dir)
    langs = sorted({r[3] for r in rows})
    filt = {"bool": {"must": [{"exists": "lang"}],
                     "should": [{"term": {"lang": langs[0]}},
                                {"prefix": rows[0][4].split()[0][:2].lower()}]}}
    n_chunks = (s.N >> int(s.meta.get("chunk_bits", 20))) + 1
    mid = max(1, n_chunks // 2)
    parts = [Searcher(index_dir, chunk_range=(0, mid)),
             Searcher(index_dir, chunk_range=(mid, n_chunks))]
    total = sum(p.count(filt) for p in parts)
    assert total == s.count(filt)


@pytest.fixture(scope="module")
def pos_index(ray_session, small_corpus_dir, tmp_path_factory):
    """Positional twin of ``index_and_oracle``'s index (same build knobs)."""
    index_dir = str(tmp_path_factory.mktemp("pindex"))
    build_index(small_corpus_dir, index_dir, partition_rows=64, n_shards=4,
                chunk_bits=6, positions=True)
    return index_dir


def test_positional_index_bm25_unchanged(index_and_oracle, pos_index):
    """positions=True must not perturb ranking: same hits, same scores."""
    plain = Searcher(index_and_oracle[0])
    posi = Searcher(pos_index)
    for terms, k in _queries(plain):
        want = [(h["doc_id"], h["score"]) for h in plain.search(terms, k=k)]
        got = [(h["doc_id"], h["score"]) for h in posi.search(terms, k=k)]
        assert got == want, f"{terms}"


def _phrase_queries(contents):
    """Adjacent-token phrases drawn from the corpus itself + adversarial
    cases: repeated-term phrase, terms-present-but-never-adjacent, absent."""
    from astrologer_ray.functions.tokenizer import tokenize

    toks = [tokenize(c or "") for c in contents]
    qs = []
    for tk in toks:
        if len(tk) >= 2 and not qs:
            qs.append(tk[:2])            # real bigram
        if len(tk) >= 5 and len(qs) == 1:
            qs.append(tk[2:5])           # real trigram
    for tk in toks:                      # repeated-term bigram, if any
        for j in range(len(tk) - 1):
            if tk[j] == tk[j + 1]:
                qs.append([tk[j], tk[j + 1]])
                break
        if len(qs) >= 3:
            break
    # both terms common but reversed order (mostly non-adjacent docs)
    if qs:
        qs.append(list(reversed(qs[0])))
    qs.append(["zz_absent_term", "also_absent"])
    return qs, toks


def test_phrase_search_matches_brute_force(pos_index, index_and_oracle):
    _, contents, _ = index_and_oracle
    s = Searcher(pos_index)
    qs, toks = _phrase_queries(contents)
    assert len(qs) >= 4
    for terms in qs:
        m = len(terms)
        mask = np.array(
            [any(tk[j:j + m] == terms for j in range(len(tk) - m + 1))
             for tk in toks]
        )
        want = oracle_topk(contents, terms, k=10, allowed=mask) if mask.any() else []
        got = [(h["doc_id"], h["score"]) for h in s.phrase_search(terms, k=10)]
        assert got == want, f"phrase {terms}"


def test_phrase_sharded_pool_equals_full(pos_index, index_and_oracle):
    from astrologer_ray.state.pool import ShardedSearchPool

    _, contents, _ = index_and_oracle
    full = Searcher(pos_index, load_docs=False)
    pool = ShardedSearchPool(pos_index, n_actors=3)
    try:
        qs, _ = _phrase_queries(contents)
        for terms in qs:
            want = [(h["doc_id"], h["score"])
                    for h in full.phrase_search(terms, k=10)]
            got = [(h["doc_id"], h["score"])
                   for h in pool.phrase_search(terms, k=10)]
            assert got == want, f"phrase {terms}"
    finally:
        pool.shutdown()


def test_phrase_requires_positional_index(index_and_oracle):
    s = Searcher(index_and_oracle[0])
    term = max(s.df, key=s.df.get)
    with pytest.raises(ValueError, match="positions"):
        s.phrase_search([term, term])


def test_phrase_with_filter(pos_index, index_and_oracle):
    """Phrase + attribute filter composes like search's filter path."""
    _, contents, langs = index_and_oracle
    s = Searcher(pos_index)
    qs, toks = _phrase_queries(contents)
    terms = qs[0]
    m = len(terms)
    for lang in ("python", "go"):
        mask = np.array(
            [any(tk[j:j + m] == terms for j in range(len(tk) - m + 1))
             for tk in toks]
        ) & (langs == lang)
        want = oracle_topk(contents, terms, k=10, allowed=mask) if mask.any() else []
        got = [(h["doc_id"], h["score"])
               for h in s.phrase_search(terms, k=10,
                                        filter={"term": {"lang": lang}})]
        assert got == want, f"lang={lang}"


def test_more_like_this_matches_brute_force(index_and_oracle):
    """MLT term selection == brute tf*idf top-N (ties term-asc), and the
    hits are exactly search(selected_terms)."""
    from collections import Counter

    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.state.bm25 import idf

    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    for src in (0, 5, 41):
        text = contents[src]
        tf = Counter(tokenize(text, mode=s.mode))
        scored = sorted(
            (-f * idf(s.N, int(s.df[t])), t)
            for t, f in tf.items() if t in s.df
        )
        want_terms = [t for _, t in scored[:25]]
        assert s.mlt_terms(text) == want_terms
        got = s.more_like_this(text, k=10)
        assert got == s.search(want_terms, k=10)
        # the source doc itself should surface near the top of its own MLT
        assert src in [h["doc_id"] for h in got]
    assert s.mlt_terms(text, max_query_terms=5) == want_terms[:5]
    assert s.more_like_this("", k=10) == []


@pytest.mark.parametrize("strategy", ["taat", "wand"])
def test_search_after_pages_stitch_exactly(index_and_oracle, strategy):
    """Pages fetched with the after-cursor concatenate to the single-shot
    top-(p*k) list — the ES search_after contract, both strategies."""
    index_dir, _, _ = index_and_oracle
    s = Searcher(index_dir)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    terms = [terms_by_df[0][0], terms_by_df[len(terms_by_df) // 2][0]]
    want = [(h["doc_id"], h["score"])
            for h in s.search(terms, k=15, strategy=strategy)]
    got, cursor = [], None
    for _ in range(3):
        page = s.search(terms, k=5, strategy=strategy, after=cursor)
        got += [(h["doc_id"], h["score"]) for h in page]
        if len(page) < 5:
            break
        cursor = (page[-1]["score"], page[-1]["doc_id"])
    assert got == want
    # cursor past the end returns empty
    if got:
        last = got[-1]
        tail = s.search(terms, k=5, strategy=strategy,
                        after=(0.0, 1 << 60))
        assert all(h["score"] <= 0.0 for h in tail) or tail == []


def test_search_collapse_matches_brute_force(index_and_oracle):
    """Field collapsing == per-group winner of the exhaustive ranking."""
    index_dir, _, _ = index_and_oracle
    s = Searcher(index_dir)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    terms = [terms_by_df[0][0], terms_by_df[2][0]]
    full = s.search(terms, k=10_000)  # exhaustive ranking
    seen, want = set(), []
    for h in full:
        grp = str(s.doc_repo[h["doc_id"] - s.doc_lo])
        if grp in seen:
            continue
        seen.add(grp)
        want.append((h["doc_id"], h["score"]))
    got = [(h["doc_id"], h["score"])
           for h in s.search_collapse(terms, collapse="repo", k=5)]
    assert got == want[:5]
    assert len({str(s.doc_repo[d - s.doc_lo]) for d, _ in got}) == len(got)
    # with a filter
    f = {"term": {"lang": "go"}}
    gotf = [(h["doc_id"], h["score"])
            for h in s.search_collapse(terms, collapse="repo", k=5, filter=f)]
    fullf = s.search(terms, k=10_000, filter=f)
    seen, wantf = set(), []
    for h in fullf:
        grp = str(s.doc_repo[h["doc_id"] - s.doc_lo])
        if grp not in seen:
            seen.add(grp)
            wantf.append((h["doc_id"], h["score"]))
    assert gotf == wantf[:5]


def test_highlight_matches_brute_force(pos_index, index_and_oracle):
    """highlight() occurrence counts/first positions == retokenized text."""
    from astrologer_ray.functions.tokenizer import tokenize

    _, contents, _ = index_and_oracle
    s = Searcher(pos_index)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    terms = [terms_by_df[0][0], terms_by_df[1][0]]
    rows = s.highlight(terms, k=5)
    assert rows
    hits = {h["doc_id"] for h in s.search(terms, k=5)}
    assert {r["doc_id"] for r in rows} <= hits
    for r in rows:
        toks = tokenize(contents[r["doc_id"]], mode=s.mode)
        occ = [i for i, t in enumerate(toks) if t == r["term"]]
        assert r["n_occ"] == len(occ) and r["first_pos"] == occ[0], r


def _lev_ref(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        new = [i]
        for j, cb in enumerate(b, 1):
            new.append(min(dp[j - 1] + (ca != cb), dp[j] + 1, new[-1] + 1))
        dp = new
    return dp[-1]


def test_fuzzy_expansion_and_filter_match_scan(kw_index):
    """expand_fuzzy == brute Levenshtein over the analyzed dictionary;
    the fuzzy filter == any-token-within-distance brute scan."""
    from astrologer_ray.functions.tokenizer import tokenize

    index_dir, rows = kw_index
    s = Searcher(index_dir)
    plain = sorted(t for t in s.df if "\x1e" not in t)
    q = plain[len(plain) // 2]
    for d in (1, 2):
        want = sorted(t for t in plain if _lev_ref(q, t) <= d)
        assert s.expand_fuzzy(q, max_edits=d) == want
    # misspelling: drop last char, add a junk one
    q2 = q[:-1] + "q" if len(q) > 2 else q + "q"
    want = sorted(t for t in plain if _lev_ref(q2, t) <= 1)
    assert s.expand_fuzzy(q2, max_edits=1) == want
    # prefix_length restricts to exact-prefix candidates
    want_p = sorted(t for t in plain
                    if _lev_ref(q2, t) <= 2 and t.startswith(q2[:2]))
    assert s.expand_fuzzy(q2, max_edits=2, prefix_length=2) == want_p
    # max_terms keeps the highest-df expansions
    full = s.expand_fuzzy(q, max_edits=2)
    if len(full) > 1:
        capped = s.expand_fuzzy(q, max_edits=2, max_terms=1)
        assert len(capped) == 1
        assert s.df[capped[0]] == max(s.df[t] for t in full)
    # filter == brute any-token scan
    toksets = [set(tokenize(r[4], mode="code")) for r in rows]
    want_n = sum(1 for ts in toksets
                 if any(_lev_ref(q2, t) <= 1 for t in ts))
    assert s.count({"fuzzy": {"value": q2, "max_edits": 1}}) == want_n
    with pytest.raises(ValueError):
        s.expand_fuzzy("")


def test_wildcard_expansion_and_filter_match_scan(kw_index):
    """expand_wildcard == fnmatch over the analyzed dictionary; the
    wildcard filter == any-token-matches brute scan."""
    import fnmatch

    from astrologer_ray.functions.tokenizer import tokenize

    index_dir, rows = kw_index
    s = Searcher(index_dir)
    plain = sorted(t for t in s.df if "\x1e" not in t)
    base = next(t for t in plain if len(t) >= 4)
    for pat in (base[0] + "*" + base[-1], base[:2] + "?" + base[3:], "*" + base[-2:]):
        want = sorted(t for t in plain if fnmatch.fnmatchcase(t, pat))
        assert s.expand_wildcard(pat) == want, pat
    toksets = [set(tokenize(r[4], mode="code")) for r in rows]
    pat = base[0] + "*" + base[-1]
    want_n = sum(1 for ts in toksets
                 if any(fnmatch.fnmatchcase(t, pat) for t in ts))
    assert s.count({"wildcard": pat}) == want_n
    with pytest.raises(ValueError):
        s.expand_wildcard("*?*")


def test_suggest_ordering_and_exclusions(kw_index):
    """suggest: (distance asc, df desc, term asc) order, exact term
    excluded, distances exact, served from the dictionary."""
    index_dir, _rows = kw_index
    s = Searcher(index_dir)
    plain = sorted(t for t in s.df if "\x1e" not in t)
    q = plain[len(plain) // 2]
    got = s.suggest(q, k=10, max_edits=2)
    want = sorted(
        ({"term": t, "distance": _lev_ref(q, t), "df": s.df[t]}
         for t in plain if 0 < _lev_ref(q, t) <= 2),
        key=lambda r: (r["distance"], -r["df"], r["term"]),
    )[:10]
    assert got == want
    assert all(r["term"] != q for r in got)


def test_sort_by_attr_pages_match_brute(index_and_oracle):
    """sort_by_attr == brute (value, doc_id) ordering; stitched pages ==
    the brute prefix; ascending and descending; filter composes."""
    index_dir, contents, langs = index_and_oracle
    s = Searcher(index_dir)
    dl = s.doc_attrs["dl"]
    for descending in (True, False):
        sign = -1 if descending else 1
        want = sorted(range(len(dl)), key=lambda i: (sign * dl[i], i))
        got, after = [], None
        while True:
            hits = s.sort_by_attr("dl", k=7, descending=descending,
                                  after=after)
            if not hits:
                break
            got.extend(h["doc_id"] for h in hits)
            after = (hits[-1]["value"], hits[-1]["doc_id"])
        assert got == want
    lang0 = langs[0]
    hits = s.sort_by_attr("dl", k=5, filter={"term": {"lang": lang0}})
    cand = [i for i in range(len(dl)) if langs[i] == lang0]
    want5 = sorted(cand, key=lambda i: (-dl[i], i))[:5]
    assert [h["doc_id"] for h in hits] == want5
    assert all(int(dl[h["doc_id"]]) == h["value"] for h in hits)


def test_agg_composite_full_enumeration(index_and_oracle):
    """composite pages stitched to exhaustion == the full GROUP BY in
    ascending key order, counts exact, after_key None on the last page."""
    index_dir, contents, langs = index_and_oracle
    s = Searcher(index_dir)
    repos = s.doc_attrs["repo"]
    from collections import Counter

    want = sorted(Counter(zip(langs, repos)).items())
    got, after, pages = [], None, 0
    while True:
        page = s.agg_composite(["lang", "repo"], size=3, after=after)
        got.extend(page["buckets"])
        after = page["after_key"]
        pages += 1
        if after is None:
            break
        assert len(page["buckets"]) == 3
    assert [(k, c) for k, c in got] == [(k, c) for k, c in want]
    assert pages == (len(want) + 2) // 3 + (1 if len(want) % 3 == 0 else 0)
    # filtered composite counts only matching docs
    lang0 = langs[0]
    page = s.agg_composite(["lang"], size=100,
                           filter={"term": {"lang": lang0}})
    assert page["buckets"] == [((lang0,), int((langs == lang0).sum()))]


def test_search_top_hits_matches_brute(index_and_oracle):
    """top_hits == brute: TAAT scores -> bucket by lang (count desc, value
    asc) -> per-bucket (score desc, doc_id) top-n; n=1 row set matches
    collapse winners."""
    index_dir, contents, langs = index_and_oracle
    s = Searcher(index_dir)
    terms, _k = _queries(s)[1]
    scored = {h["doc_id"]: h["score"]
              for h in s.search(terms, k=len(contents), strategy="taat")}
    from collections import Counter

    cnt = Counter(langs[d] for d in scored)
    buckets = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
    want = []
    for lang, c in buckets:
        hits = sorted(
            ((d, sc) for d, sc in scored.items() if langs[d] == lang),
            key=lambda t: (-t[1], t[0]),
        )[:3]
        for rank, (d, sc) in enumerate(hits, 1):
            want.append((lang, c, d, round(sc, 6), rank))
    got = [
        (r["group"], r["doc_count"], r["doc_id"],
         round(r["score"], 6), r["hit_rank"])
        for r in s.search_top_hits(terms, "lang", n_hits=3, k_groups=2)
    ]
    assert got == want
    # n_hits=1 == collapse winners restricted to the same buckets
    col = [(r["group"], r["doc_id"]) for r in
           s.search_top_hits(terms, "lang", n_hits=1, k_groups=100)]
    winners = {g: d for g, d in col}
    for h in s.search_collapse(terms, "lang", k=100):
        assert winners[langs[h["doc_id"]]] == h["doc_id"]


@pytest.mark.parametrize("strategy", ["taat", "wand"])
def test_boosted_search_matches_brute(index_and_oracle, strategy):
    """Query-time term boosts: weight*boost in both strategies == brute
    reweighted oracle, score-identical; boost=1 == no boosts."""
    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    for terms, k in _queries(s)[:6]:
        boosts = {sorted(set(terms))[0]: 2.5}
        want = oracle_topk(contents, terms, k=k, boosts=boosts)
        got = [(h["doc_id"], h["score"])
               for h in s.search(terms, k=k, boosts=boosts,
                                 strategy=strategy)]
        assert got == want, f"[{strategy}] {terms} k={k}"
        plain = s.search(terms, k=k, strategy=strategy)
        boost1 = s.search(terms, k=k, strategy=strategy,
                          boosts={t: 1.0 for t in terms})
        assert plain == boost1


def test_boosted_taat_equals_wand(index_and_oracle):
    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    for terms, k in _queries(s):
        boosts = {t: 1.0 + 0.5 * i for i, t in enumerate(sorted(set(terms)))}
        t_hits = s.search(terms, k=k, boosts=boosts, strategy="taat")
        w_hits = s.search(terms, k=k, boosts=boosts, strategy="wand")
        assert t_hits == w_hits


def test_explain_rows_sum_to_score(index_and_oracle):
    """explain: per-term weights sum to the hit's score bit-for-bit in
    sorted-term order; tf/df match brute token counts."""
    from collections import Counter

    from astrologer_ray.functions.tokenizer import tokenize

    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    for terms, k in _queries(s)[:5]:
        hits = {h["doc_id"]: h["score"] for h in s.search(terms, k=k)}
        rows = s.explain(terms, k=k)
        by_doc = {}
        for r in rows:
            by_doc.setdefault(r["doc_id"], []).append(r)
        assert set(by_doc) == set(hits)
        for d, rws in by_doc.items():
            assert sorted(r["term"] for r in rws) == [r["term"] for r in rws]
            acc = 0.0
            for r in rws:
                acc += r["weight"]
                assert r["score"] == hits[d]
            assert acc == hits[d]  # bit-identical, not approx
            cnt = Counter(tokenize(contents[d], mode="code"))
            for r in rws:
                assert r["tf"] == cnt[r["term"]]
                assert r["df"] == s.df[r["term"]]


def test_rescore_matches_brute(pos_index, index_and_oracle):
    """rescore == brute: top-window BM25 + weight * consecutive-phrase
    count, reranked (combined desc, doc_id asc); docs outside the window
    never re-enter."""
    from astrologer_ray.functions.tokenizer import tokenize

    _plain, contents, _langs = index_and_oracle
    s = Searcher(pos_index)
    toks = [tokenize(c, mode="code") for c in contents]
    terms, _k = _queries(s)[1]
    phrase = None
    # find a phrase that actually occurs somewhere
    for tl in toks:
        if len(tl) >= 2:
            phrase = [tl[3 % len(tl)], tl[(3 % len(tl)) + 1]] \
                if len(tl) > 4 else [tl[0], tl[1]]
            break
    assert phrase

    def pf(tl):
        return sum(
            1 for i in range(len(tl) - 1)
            if tl[i] == phrase[0] and tl[i + 1] == phrase[1]
        )

    for window, k, weight in ((8, 5, 2.0), (50, 10, 0.5)):
        base = s.search(terms, k=window)
        want = sorted(
            ((h["doc_id"], h["score"] + weight * pf(toks[h["doc_id"]]))
             for h in base),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        got = [(h["doc_id"], h["score"])
               for h in s.rescore(terms, phrase, k=k, window=window,
                                  weight=weight)]
        assert got == want
    # absent phrase term -> pure BM25 order survives
    got = [h["doc_id"] for h in
           s.rescore(terms, ["zzz_no_such_term", phrase[0]], k=5, window=20)]
    assert got == [h["doc_id"] for h in s.search(terms, k=20)][:5]


def test_delete_by_query_tombstones(ray_session, small_corpus_dir, tmp_path):
    """ES delete_by_query semantics: deleted docs vanish from every result
    path while surviving docs' scores stay BIT-IDENTICAL (stats keep
    counting tombstones until rebuild — the ES pre-merge model); delete is
    idempotent; doc-range shards see the same tombstones; a full rebuild
    clears them."""
    from astrologer_ray.pipelines.segments import delete_by_query

    idx = str(tmp_path / "delidx")
    build_index(small_corpus_dir, idx, partition_rows=64, n_shards=4,
                chunk_bits=6)
    s0 = Searcher(idx)
    terms_by_df = sorted(s0.df.items(), key=lambda kv: -kv[1])
    victim = terms_by_df[2][0]       # df > 1 term to delete by
    probe = terms_by_df[0][0]        # unrelated query term
    pre_victim = s0.search([victim], k=s0.N)
    pre_probe = s0.search([probe], k=s0.N)
    pre_n = s0.count()

    out = delete_by_query(idx, {"match": victim})
    assert out["deleted"] == len(pre_victim) > 0

    s = Searcher(idx)
    gone = {h["doc_id"] for h in pre_victim}
    # search: deleted docs vanish; survivors keep exact scores (stats kept)
    assert s.search([victim], k=s.N) == []
    want_probe = [(h["doc_id"], h["score"]) for h in pre_probe
                  if h["doc_id"] not in gone]
    for strategy in ("taat", "wand"):
        got = [(h["doc_id"], h["score"])
               for h in s.search([probe], k=s.N, strategy=strategy)]
        assert got == want_probe
    # stats intentionally unchanged (ES between merges)
    assert s.N == s0.N and s.avgdl == s0.avgdl and s.df == s0.df
    # count/field_lookup/aggs/sort/composite all respect tombstones
    assert s.count() == pre_n - len(gone)
    assert not gone & {h["doc_id"] for h in s.field_lookup({"exists": "repo"})}
    assert sum(c for _, c in s.agg_terms("lang", k=100)) == s.count()
    assert not gone & {h["doc_id"] for h in s.sort_by_attr("dl", k=s.N)}
    comp = s.agg_composite(["lang"], size=100)
    assert sum(c for _, c in comp["buckets"]) == s.count()
    # phrase/collapse/top_hits paths
    assert not gone & {h["doc_id"]
                       for h in s.search_collapse([probe], "lang", k=100)}
    assert not gone & {r["doc_id"]
                       for r in s.search_top_hits([probe], "lang",
                                                  n_hits=100, k_groups=100)}
    # idempotent
    assert delete_by_query(idx, {"match": victim})["deleted"] == 0
    # doc-range shards: per-shard counts sum to the full count
    n_chunks = (s.N >> int(s.meta.get("chunk_bits", 20))) + 1
    mid = max(1, n_chunks // 2)
    parts = [Searcher(idx, chunk_range=(0, mid)),
             Searcher(idx, chunk_range=(mid, n_chunks))]
    assert sum(p.count() for p in parts) == s.count()
    # full rebuild clears tombstones
    build_index(small_corpus_dir, idx, partition_rows=64, n_shards=4,
                chunk_bits=6, resume=False)
    s2 = Searcher(idx)
    assert s2.deleted is None and s2.count() == pre_n


def test_function_score_gauss_matches_brute(index_and_oracle):
    """function_score == brute bm25 * gauss(attr); a doc exactly `scale`
    from origin is damped by exactly `decay`."""
    import math

    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    dl = s.doc_attrs["dl"].astype(np.float64)
    terms, _k = _queries(s)[1]
    origin, scale, decay = 30.0, 15.0, 0.5
    sigma2 = scale ** 2 / (2.0 * math.log(1.0 / decay))
    base = {h["doc_id"]: h["score"]
            for h in s.search(terms, k=len(contents), strategy="taat")}
    want = sorted(
        ((d, sc * math.exp(-abs(dl[d] - origin) ** 2 / (2.0 * sigma2)))
         for d, sc in base.items()),
        key=lambda t: (-t[1], t[0]),
    )[:10]
    got = [(h["doc_id"], h["score"])
           for h in s.function_score(terms, k=10, decay_attr="dl",
                                     origin=origin, scale=scale,
                                     decay=decay)]
    assert [d for d, _ in got] == [d for d, _ in want]
    for (gd, gs), (wd, ws) in zip(got, want):
        assert gs == pytest.approx(ws, rel=1e-12)
    # the ES decay contract at distance == scale
    probe = float(np.exp(-(scale ** 2) / (2.0 * sigma2)))
    assert probe == pytest.approx(decay, rel=1e-12)


def test_boost_and_decay_validation(index_and_oracle):
    """Review findings: non-positive boosts rejected (negative would
    invert the WAND bound); function_score guards decay/scale."""
    index_dir, _c, _l = index_and_oracle
    s = Searcher(index_dir)
    terms, _k = _queries(s)[0]
    for bad in (-2.0, 0.0):
        with pytest.raises(ValueError):
            s.search(terms, k=5, boosts={terms[0]: bad})
        with pytest.raises(ValueError):
            s.search_collapse(terms, "lang", k=5, boosts={terms[0]: bad})
        with pytest.raises(ValueError):
            s.search_top_hits(terms, "lang", boosts={terms[0]: bad})
    for kw in ({"decay": 1.0}, {"decay": 0.0}, {"decay": 1.5},
               {"scale": 0.0}, {"scale": -3.0}):
        args = {"decay_attr": "dl", "origin": 10.0, "scale": 5.0,
                "decay": 0.5, **kw}
        with pytest.raises(ValueError):
            s.function_score(terms, k=5, **args)
    # top_hits with a boost matches collapse winners under the same boost
    boosts = {terms[0]: 2.5}
    top1 = {r["group"]: r["doc_id"] for r in
            s.search_top_hits(terms, "lang", n_hits=1, k_groups=100,
                              boosts=boosts)}
    for h in s.search_collapse(terms, "lang", k=100, boosts=boosts):
        lang = s.doc_attrs["lang"][h["doc_id"]]
        assert top1[str(lang)] == h["doc_id"]


def test_runtime_field_composes_everywhere(kw_index):
    """Runtime field == stored attribute once registered: filters, sort,
    composite, multi_terms all see it; wrong length rejected."""
    index_dir, rows = kw_index
    s = Searcher(index_dir)
    s.add_runtime_field(
        "dl_even", lambda a: (a["dl"] % 2 == 0).astype(object)
    )
    dl = s.doc_attrs["dl"]
    want_even = int((dl % 2 == 0).sum())
    assert s.count({"term": {"dl_even": True}}) == want_even
    top = s.sort_by_attr("dl_even", k=len(rows), descending=True)
    assert sum(1 for h in top if h["value"]) == want_even
    comp = s.agg_composite(["dl_even"], size=10)
    assert sum(c for _, c in comp["buckets"]) == len(rows)
    with pytest.raises(ValueError):
        s.add_runtime_field("bad", lambda a: np.arange(3))
    with pytest.raises(ValueError):
        Searcher(index_dir, load_docs=False).add_runtime_field(
            "x", lambda a: None
        )


def test_boosting_and_pinned_queries(index_and_oracle):
    """boosting: negative-clause docs demoted by exactly nb, never
    dropped; pinned: given order first with exact organic scores, then
    organic minus pinned."""
    index_dir, contents, langs = index_and_oracle
    s = Searcher(index_dir)
    terms, _k = _queries(s)[1]
    base = {h["doc_id"]: h["score"] for h in s.search(terms, k=s.N)}
    neg = {"term": {"lang": sorted(set(langs))[0]}}
    nb = 0.25
    got = s.search_boosting(terms, neg, negative_boost=nb, k=s.N)
    negmask = s.filter_mask(neg)
    want = sorted(
        ((d, sc * nb if negmask[d] else sc) for d, sc in base.items()),
        key=lambda t: (-t[1], t[0]),
    )
    assert [(h["doc_id"], h["score"]) for h in got] == \
        [(d, float(sc)) for d, sc in want]
    with pytest.raises(ValueError):
        s.search_boosting(terms, neg, negative_boost=1.5)

    # pinned: take two low-ranked matching docs + one absent id
    ranked = [d for d, _ in sorted(base.items(), key=lambda t: (-t[1], t[0]))]
    pins = [ranked[-1], 10**9, ranked[-2]]
    hits = s.search_pinned(terms, pins, k=6)
    assert [h["doc_id"] for h in hits[:2]] == [ranked[-1], ranked[-2]]
    assert hits[0]["score"] == base[ranked[-1]]
    assert hits[1]["score"] == base[ranked[-2]]
    organic_rest = [d for d in ranked if d not in {ranked[-1], ranked[-2]}]
    assert [h["doc_id"] for h in hits[2:]] == organic_rest[:4]


def test_span_near_matches_brute(pos_index, index_and_oracle):
    """span_near == brute in-order minimal-window scan over tokenized
    contents (incl. a 3-term span and repeated terms); slop=0 == phrase."""
    from astrologer_ray.functions.tokenizer import tokenize

    _plain, contents, _langs = index_and_oracle
    s = Searcher(pos_index)
    toks = [tokenize(c, mode="code") for c in contents]

    def brute(span, slop):
        out = set()
        for d, tl in enumerate(toks):
            pos = {t: [i for i, x in enumerate(tl) if x == t]
                   for t in set(span)}
            if any(not pos[t] for t in set(span)):
                continue
            hit = False
            for p1 in pos[span[0]]:
                prev, okc = p1, True
                for t in span[1:]:
                    nxt = [p for p in pos[t] if p > prev]
                    if not nxt:
                        okc = False
                        break
                    prev = nxt[0]
                if okc and prev - p1 - (len(span) - 1) <= slop:
                    hit = True
                    break
            if hit:
                out.add(d)
        return out

    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    a, b, c = (t for t, _ in terms_by_df[:3])
    for span, slop in (([a, b], 0), ([a, b], 3), ([a, b, c], 5),
                       ([a, a], 2)):
        got = {h["doc_id"] for h in s.span_near(span, slop=slop, k=10**6)}
        assert got == brute(span, slop), (span, slop)
    # slop=0 two-term span == exact phrase search
    ph = {h["doc_id"] for h in s.phrase_search([a, b], k=10**6)}
    assert {h["doc_id"] for h in s.span_near([a, b], slop=0, k=10**6)} == ph


def test_span_first_matches_brute(pos_index, index_and_oracle):
    """span_first == brute "term occurs at position < end" scan, scored
    like a plain single-term BM25 over the matching docs."""
    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.state.bm25 import oracle_topk

    _plain, contents, langs = index_and_oracle
    s = Searcher(pos_index)
    toks = [tokenize(c, mode="code") for c in contents]
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    head, mid = terms_by_df[0][0], terms_by_df[len(terms_by_df) // 2][0]
    for term, end in ((head, 1), (head, 3), (head, 25), (mid, 5),
                      (head, 0), ("zzz_no_such_term", 4)):
        mask = np.array([term in tk[:end] for tk in toks])
        want = (oracle_topk(contents, [term], k=10, allowed=mask)
                if mask.any() else [])
        got = [(h["doc_id"], h["score"]) for h in s.span_first(term, end, k=10)]
        assert got == want, (term, end)
    # filter composes like every other query path
    lang = langs[0]
    mask = np.array([head in tk[:25] for tk in toks]) & (langs == lang)
    want = oracle_topk(contents, [head], k=10, allowed=mask) if mask.any() else []
    got = [(h["doc_id"], h["score"])
           for h in s.span_first(head, 25, k=10, filter={"term": {"lang": lang}})]
    assert got == want


def test_span_containing_matches_brute(pos_index, index_and_oracle):
    """span_containing/span_within == brute enumeration of EVERY feasible
    in-order big window (not just greedy-minimal ones) checked for a
    little occurrence inside; scored big-sum vs little per ES's two
    query types (same matched docs)."""
    from itertools import product

    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.state.bm25 import oracle_topk

    _plain, contents, _langs = index_and_oracle
    s = Searcher(pos_index)
    toks = [tokenize(c, mode="code") for c in contents]
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    a, b, c, d = (t for t, _ in terms_by_df[:4])

    def brute(big, little, slop):
        out = []
        m = len(big)
        for tl in toks:
            pos = {t: [i for i, x in enumerate(tl) if x == t]
                   for t in set(big + [little])}
            hit = False
            # exhaustive: every in-order combination within the gap budget
            for combo in product(*(pos[t] for t in big)):
                if any(combo[i] >= combo[i + 1] for i in range(m - 1)):
                    continue
                if combo[-1] - combo[0] - (m - 1) > slop:
                    continue
                if any(combo[0] <= p <= combo[-1] for p in pos[little]):
                    hit = True
                    break
            out.append(hit)
        return np.array(out)

    for big, little, slop in (([a, b], c, 3), ([a, b], c, 8),
                              ([a, b, c], d, 6), ([a, b], a, 4),
                              ([a, b], "zzz_absent", 3)):
        mask = brute(big, little, slop)
        want_big = (oracle_topk(contents, big, k=10, allowed=mask)
                    if mask.any() else [])
        got_big = [(h["doc_id"], h["score"]) for h in
                   s.span_containing(big, little, slop=slop, k=10)]
        assert got_big == want_big, ("big", big, little, slop)
        want_lit = (oracle_topk(contents, [little], k=10, allowed=mask)
                    if mask.any() else [])
        got_lit = [(h["doc_id"], h["score"]) for h in
                   s.span_containing(big, little, slop=slop, k=10,
                                     score="little")]
        assert got_lit == want_lit, ("little", big, little, slop)
    import pytest as _pytest
    with _pytest.raises(ValueError, match=">=2-term"):
        s.span_containing([a], c)


def test_span_not_matches_brute(pos_index, index_and_oracle):
    """span_not == brute "include occurrence with no exclude occurrence in
    [p-pre, p+post]" scan, scored as single-term BM25 on matching docs."""
    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.state.bm25 import oracle_topk

    _plain, contents, _langs = index_and_oracle
    s = Searcher(pos_index)
    toks = [tokenize(c, mode="code") for c in contents]
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    a, b = terms_by_df[0][0], terms_by_df[1][0]

    def brute(inc, exc, pre, post):
        out = []
        for tl in toks:
            epos = [i for i, x in enumerate(tl) if x == exc]
            out.append(any(
                x == inc and not any(p - pre <= e <= p + post for e in epos)
                for p, x in enumerate(tl)))
        return np.array(out)

    for inc, exc, pre, post in ((a, b, 0, 0), (a, b, 2, 2), (a, b, 0, 5),
                                (a, a, 1, 1), (a, "zzz_absent", 3, 3)):
        mask = brute(inc, exc, pre, post)
        want = (oracle_topk(contents, [inc], k=10, allowed=mask)
                if mask.any() else [])
        got = [(h["doc_id"], h["score"])
               for h in s.span_not(inc, exc, pre=pre, post=post, k=10)]
        assert got == want, (inc, exc, pre, post)


def test_regexp_expansion_and_filter_match_brute_force(index_and_oracle):
    import re

    from astrologer_ray.functions.tokenizer import tokenize

    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    toks = [set(tokenize(c or "")) for c in contents]
    vocab = sorted(set().union(*toks))
    for pat in (r"de[a-z]+", r"[a-z]{3}", r"zz.*", r"x[0-9]+y?"):
        want_terms = sorted(t for t in vocab if re.fullmatch(pat, t))
        assert sorted(s.expand_regexp(pat)) == want_terms, pat
        want_docs = [i for i, tk in enumerate(toks)
                     if any(re.fullmatch(pat, t) for t in tk)]
        got = [h["doc_id"] for h in s.field_lookup({"regexp": pat})]
        assert got == want_docs, pat
    # max_terms keeps highest-df expansions
    full = s.expand_regexp(r"[a-z]+")
    capped = s.expand_regexp(r"[a-z]+", max_terms=3)
    assert len(capped) == min(3, len(full))
    assert set(capped) <= set(full)
    with pytest.raises(ValueError):
        s.expand_regexp("")


def test_match_phrase_prefix_matches_brute_force(pos_index, index_and_oracle):
    from astrologer_ray.functions.tokenizer import tokenize

    _, contents, _ = index_and_oracle
    s = Searcher(pos_index)
    toks = [tokenize(c or "") for c in contents]
    # real (bigram + prefix) cases drawn from the corpus + adversarial
    qs = []
    for tk in toks:
        if len(tk) >= 3:
            qs.append([tk[0], tk[1], tk[2][:2]])  # completes in-corpus
            break
    qs.append([toks[0][0], "zz_absent_prefix"][:2] + ["q"])
    if toks and len(toks[0]) >= 2:
        qs.append([toks[0][0], toks[0][1][:1]])  # 2-term: fixed + prefix
    for terms in qs:
        fixed, pre = terms[:-1], terms[-1]
        m = len(fixed)
        match_docs = []
        for i, tk in enumerate(toks):
            ok = any(
                tk[j:j + m] == fixed and tk[j + m].startswith(pre)
                for j in range(len(tk) - m)
            )
            if ok:
                match_docs.append(i)
        mask = np.zeros(len(toks), dtype=bool)
        mask[match_docs] = True
        want = (oracle_topk(contents, fixed, k=10, allowed=mask)
                if mask.any() else [])
        got = [(h["doc_id"], h["score"])
               for h in s.match_phrase_prefix(terms, k=10,
                                              max_expansions=None)]
        assert got == want, f"phrase_prefix {terms}"
    with pytest.raises(ValueError):
        s.match_phrase_prefix(["only"])


def test_agg_filters_counts(index_and_oracle):
    index_dir, contents, langs = index_and_oracle
    s = Searcher(index_dir)
    out = dict(s.agg_filters({
        "py": {"term": {"lang": "py"}},
        "go": {"term": {"lang": "go"}},
        "all": {"bool": {}},
    }))
    assert out["all"] == len(contents)
    assert out["py"] == int((langs == "py").sum())
    assert out["go"] == int((langs == "go").sum())


def test_postings_buckets_term_sorted_and_load_skips_sort(index_and_oracle):
    """Bucket files are written (term, last_doc_id)-sorted and flagged in
    meta, so a single-generation Searcher load takes the no-sort path; the
    concatenation of hash-partitioned sorted buckets must be term-contiguous
    (each term lives in exactly one bucket)."""
    import json
    import os

    index_dir, _, _ = index_and_oracle
    with open(os.path.join(index_dir, "stats", "meta.json")) as f:
        meta = json.load(f)
    assert meta["postings_term_sorted"] is True
    for p in sorted(glob.glob(os.path.join(index_dir, "postings", "*.parquet"))):
        t = pq.read_table(p, columns=["term", "last_doc_id"])
        keys = list(zip(t.column("term").to_pylist(),
                        t.column("last_doc_id").to_pylist()))
        assert keys == sorted(keys), f"bucket not sorted: {p}"
    # the loaded store must expose one contiguous range per dictionary term
    s = Searcher(index_dir, load_docs=False)
    assert set(s.postings.keys()) == set(s.df.keys())


def test_chunkstore_rejects_noncontiguous_terms():
    """A term split across two row runs would silently mis-range every
    term after it — the store must refuse loudly instead."""
    import pyarrow as pa

    from astrologer_ray.state.searcher import _ChunkStore

    bad = pa.table({"term": ["a", "b", "a"], "n": [1, 1, 1]})
    with pytest.raises(ValueError, match="not term-contiguous"):
        _ChunkStore(bad)
    ok = pa.table({"term": ["a", "a", "b"], "n": [1, 2, 3]})
    store = _ChunkStore(ok)
    assert [r["n"] for r in store["a"]] == [1, 2]
    assert [r["n"] for r in store["b"]] == [3]


def test_dis_max_matches_brute_force(index_and_oracle):
    """dis_max combined score == max + tie_breaker*(sum-max) over the
    per-sub-query exact BM25 score maps (ES dis_max semantics)."""
    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    head = [t for t, _ in terms_by_df[:6]]
    subqueries = [head[:2], head[2:4], head[4:6]]
    tb = 0.35
    # brute force: full score map per subquery via exhaustive search
    maps = []
    for q in subqueries:
        maps.append({h["doc_id"]: h["score"]
                     for h in s.search(q, k=s.n_local, strategy="taat")})
    want = {}
    for d in set().union(*maps):
        ss = [m[d] for m in maps if d in m]
        want[d] = max(ss) + tb * (sum(ss) - max(ss))
    k = 12
    expect = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    got = [(h["doc_id"], h["score"])
           for h in s.search_dis_max(subqueries, tie_breaker=tb, k=k)]
    assert [d for d, _ in got] == [d for d, _ in expect]
    assert np.allclose([x for _, x in got], [x for _, x in expect])
    with pytest.raises(ValueError, match="tie_breaker"):
        s.search_dis_max(subqueries, tie_breaker=1.5)
    assert s.search_dis_max([], k=5) == []
    assert s.search_dis_max([["zzz_no_such_term"]], k=5) == []


def test_min_score_cut_is_exact(index_and_oracle):
    index_dir, _, _ = index_and_oracle
    s = Searcher(index_dir)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    terms = [t for t, _ in terms_by_df[:3]]
    base = s.search(terms, k=20)
    assert base, "fixture query must match"
    cut = base[len(base) // 2]["score"]  # mid-pack threshold
    got = s.search(terms, k=20, min_score=cut)
    want = [h for h in base if h["score"] >= cut]
    assert [(h["doc_id"], h["score"]) for h in got] == [
        (h["doc_id"], h["score"]) for h in want]
    assert 0 < len(got) < len(base)
    # WAND path must agree
    got_w = s.search(terms, k=20, min_score=cut, strategy="wand")
    assert [(h["doc_id"], round(h["score"], 9)) for h in got_w] == [
        (h["doc_id"], round(h["score"], 9)) for h in want]


def test_constant_score_filter_and_deletes(index_and_oracle):
    index_dir, _, langs = index_and_oracle
    s = Searcher(index_dir)
    lang = langs[0]
    hits = s.search_constant_score({"term": {"lang": lang}}, boost=2.5, k=8)
    want_ids = [int(i) for i in np.flatnonzero(langs == lang)[:8]]
    assert [h["doc_id"] for h in hits] == want_ids
    assert all(h["score"] == 2.5 for h in hits)
    # match_all (filter=None) returns the first k live docs
    allhits = s.search_constant_score(None, k=3)
    assert [h["doc_id"] for h in allhits] == [0, 1, 2]
    # tombstoned docs never surface
    s2 = Searcher(index_dir)
    s2.deleted = np.array([want_ids[0]], dtype=np.int64)
    hits2 = s2.search_constant_score({"term": {"lang": lang}}, k=8)
    assert want_ids[0] not in [h["doc_id"] for h in hits2]


def test_synonym_query_matches_brute_force(index_and_oracle):
    """Lucene SynonymQuery semantics: per group, tf is summed across the
    members and docFreq blends to the max member df; groups combine like
    an OR match. Brute force shares the bm25_term_weight expression tree,
    so scores must be bit-identical."""
    from collections import Counter

    from astrologer_ray.functions.tokenizer import tokenize
    from astrologer_ray.state.bm25 import bm25_term_weight, idf

    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    head = [t for t, _ in terms_by_df[:4]]
    mid = [t for t, _ in terms_by_df[len(terms_by_df) // 2:][:4]]

    docs = [Counter(tokenize(t, mode=s.mode)) for t in contents]
    dls = [float(sum(c.values())) for c in docs]

    def brute(groups, k, min_group_match=1):
        scores: dict[int, float] = {}
        nmatch: dict[int, int] = {}
        for group in groups:
            df_eff = max((int(s.df.get(t, 0)) for t in set(group)), default=0)
            if df_eff <= 0:
                continue
            idf_t = idf(s.N, df_eff)
            for d, (c, dl) in enumerate(zip(docs, dls)):
                tf = float(sum(c.get(t, 0) for t in set(group)))
                if tf:
                    w = bm25_term_weight(idf_t, tf, dl, s.avgdl, s.k1, s.b)
                    scores[d] = scores.get(d, 0.0) + w
                    nmatch[d] = nmatch.get(d, 0) + 1
        cand = [d for d in scores if nmatch[d] >= min_group_match]
        cand.sort(key=lambda d: (-scores[d], d))
        return [(d, scores[d]) for d in cand[:k]]

    cases = [
        [[head[0], mid[0]], [head[1]]],          # blended df = df(head[0])
        [[mid[0], mid[1]], [mid[2], head[2]]],
        [[head[0]]],                             # singleton group
        [[mid[0], "zzz_absent_member"], [head[3]]],  # absent member
    ]
    for groups in cases:
        got = [(h["doc_id"], h["score"])
               for h in s.search_synonyms(groups, k=15)]
        assert got == brute(groups, 15), groups

    # absent members leave both df and tf untouched
    assert s.search_synonyms([[mid[0], "zzz_absent"], [head[0]]], k=10) == \
        s.search_synonyms([[mid[0]], [head[0]]], k=10)

    # a singleton group scores exactly like the plain term query
    assert [(h["doc_id"], h["score"])
            for h in s.search_synonyms([[head[1]]], k=10)] == \
        [(h["doc_id"], h["score"]) for h in s.search(terms=[head[1]], k=10)]

    # min_group_match=2 keeps only docs matching BOTH groups
    groups = [[head[0], mid[0]], [head[1]]]
    both = s.search_synonyms(groups, k=50, min_group_match=2)
    assert [(h["doc_id"], h["score"]) for h in both] == \
        brute(groups, 50, min_group_match=2)
    # and every returned doc really matches both groups
    for h in both:
        c = docs[h["doc_id"]]
        assert sum(c.get(t, 0) for t in groups[0]) > 0
        assert sum(c.get(t, 0) for t in groups[1]) > 0

    # all-out-of-vocabulary groups and k=0 return nothing
    assert s.search_synonyms([["zzz_nope"]], k=10) == []
    assert s.search_synonyms([[head[0]]], k=0) == []


def test_synonym_sharded_pool_equals_full(index_and_oracle):
    """Doc-range shard actors blend tf locally and share global df/N, so
    the pool's synonym top-k must equal the single searcher's exactly."""
    from astrologer_ray.state.pool import ShardedSearchPool

    index_dir, _contents, _ = index_and_oracle
    full = Searcher(index_dir, load_docs=False)
    terms_by_df = sorted(full.df.items(), key=lambda kv: -kv[1])
    head = [t for t, _ in terms_by_df[:4]]
    mid = [t for t, _ in terms_by_df[len(terms_by_df) // 2:][:4]]
    pool = ShardedSearchPool(index_dir, n_actors=4)
    try:
        for groups in (
            [[head[0], mid[0]], [head[1]]],
            [[mid[0], mid[1], "zzz_absent"], [head[2], head[3]]],
            [[head[0]]],
        ):
            want = [(h["doc_id"], h["score"])
                    for h in full.search_synonyms(groups, k=12)]
            got = [(h["doc_id"], h["score"])
                   for h in pool.search_synonyms(groups, k=12)]
            assert got == want, groups
    finally:
        pool.shutdown()


def test_rank_feature_matches_brute(index_and_oracle):
    """rank_feature saturation: final = bm25 + boost*x/(x+pivot), additive
    (can promote low-BM25 docs), ties (score desc, doc_id asc)."""
    index_dir, contents, _ = index_and_oracle
    s = Searcher(index_dir, load_docs=True)
    terms_by_df = sorted(s.df.items(), key=lambda kv: -kv[1])
    terms = [terms_by_df[0][0], terms_by_df[len(terms_by_df) // 2][0]]
    dl = np.asarray(s._attr("dl"), dtype=np.float64)
    base = s.search(terms, k=s.N)
    want = sorted(
        ((h["doc_id"],
          h["score"] + 2.0 * max(dl[h["doc_id"]], 0.0)
          / (max(dl[h["doc_id"]], 0.0) + 25.0)) for h in base),
        key=lambda t: (-t[1], t[0]),
    )[:10]
    got = [(h["doc_id"], h["score"]) for h in s.search_rank_feature(
        terms, k=10, feature_attr="dl", pivot=25.0, boost=2.0)]
    assert got == want
    import pytest as _pytest
    with _pytest.raises(ValueError, match="pivot"):
        s.search_rank_feature(terms, feature_attr="dl", pivot=0.0)
    assert s.search_rank_feature(
        ["zzz_nope"], feature_attr="dl", pivot=1.0) == []
    # log: final = bm25 + boost*ln(scaling_factor + x)
    want = sorted(
        ((h["doc_id"],
          h["score"] + 1.5 * np.log(3.0 + max(dl[h["doc_id"]], 0.0)))
         for h in base), key=lambda t: (-t[1], t[0]))[:10]
    got = [(h["doc_id"], h["score"]) for h in s.search_rank_feature(
        terms, k=10, feature_attr="dl", function="log",
        scaling_factor=3.0, boost=1.5)]
    assert got == want
    # sigmoid: final = bm25 + boost*x^e/(x^e + pivot^e)
    want = sorted(
        ((h["doc_id"],
          h["score"] + 2.0 * max(dl[h["doc_id"]], 0.0) ** 0.6
          / (max(dl[h["doc_id"]], 0.0) ** 0.6 + 25.0 ** 0.6))
         for h in base), key=lambda t: (-t[1], t[0]))[:10]
    got = [(h["doc_id"], h["score"]) for h in s.search_rank_feature(
        terms, k=10, feature_attr="dl", function="sigmoid",
        pivot=25.0, exponent=0.6, boost=2.0)]
    assert got == want
    with _pytest.raises(ValueError, match="scaling_factor"):
        s.search_rank_feature(terms, feature_attr="dl", function="log",
                              scaling_factor=0.0)
    with _pytest.raises(ValueError, match="unknown"):
        s.search_rank_feature(terms, feature_attr="dl", function="nope")


def test_terms_enum(kw_index):
    """ES _terms_enum analog: sorted prefix listing with paging, over
    both the analyzed text dictionary and keyword-field entries."""
    from astrologer_ray.state.dsl import execute_terms_enum

    index_dir, rows = kw_index
    s = Searcher(index_dir, load_docs=False)
    from astrologer_ray.stages.spimi import FIELD_SEP
    text_terms = sorted(t for t in s.df if FIELD_SEP not in t)

    # text-field prefix listing is the sorted dictionary slice
    pre = text_terms[len(text_terms) // 2][:2]
    want = [t for t in text_terms if t.startswith(pre)]
    got = execute_terms_enum(s, {"field": "content", "string": pre,
                                 "size": len(want) + 5})
    assert got == {"terms": want, "complete": True}

    # paging: size cap flips complete, search_after resumes exactly
    got1 = execute_terms_enum(s, {"field": "content", "string": pre,
                                  "size": max(1, len(want) - 1)})
    if len(want) > 1:
        assert not got1["complete"]
        got2 = execute_terms_enum(
            s, {"field": "content", "string": pre, "size": 50,
                "search_after": got1["terms"][-1]})
        assert got1["terms"] + got2["terms"] == want

    # keyword field: values come back without the field prefix
    langs = sorted({r[3] for r in rows})
    got = execute_terms_enum(s, {"field": "lang", "size": 50})
    assert got == {"terms": langs, "complete": True}


# ---------------------------------------------------------------- MaxScore

ZIPF_VOCAB = ([f"w{i}" for i in range(150)]
              + ["mergeSort", "buildIndex", "fooBar", "readFile", "HTTP_PORT"])
# a tie at the k-th score that straddles essential and non-essential terms:
# qalpha and qgamma both have df=2, and docs 100 and 200 have equal tf and
# dl, so their single-term weights are bit-identical. qalpha's other doc
# (150) outweighs everything, making qalpha the lone first essential term;
# its k=2 cut then sits exactly at qgamma's bound, the strict check fails,
# and doc 100 — reachable only through qgamma — wins the tie on doc_id.
TIE_DOCS = {100: "qgamma w7 w8 w9", 150: "qalpha qalpha",
            200: "qalpha w7 w8 w9", 250: "qgamma " + " w1" * 30}


def _zipf_rows(lo: int, hi: int) -> list[dict]:
    rng = np.random.default_rng(5 + lo)
    p = 1.0 / np.arange(1, len(ZIPF_VOCAB) + 1) ** 1.1
    rows = []
    for i in range(lo, hi):
        content = TIE_DOCS.get(i) or " ".join(
            rng.choice(ZIPF_VOCAB, size=int(rng.integers(3, 60)), p=p / p.sum()))
        rows.append({"repo": f"r{i:05d}", "path": "f.py", "commit": "c0",
                     "lang": ["py", "go", "rs"][i % 3], "content": content})
    return rows


@pytest.fixture(scope="module")
def maxscore_env(ray_session, tmp_path_factory):
    """One 600-doc Zipf corpus indexed twice: a single build (served whole
    and as a doc-range shard) and a base + appended segment."""
    import pyarrow as pa

    from astrologer_ray.pipelines.segments import append_segment

    d = tmp_path_factory.mktemp("maxscore")
    f0, f1 = str(d / "part-000.parquet"), str(d / "part-001.parquet")
    rows = _zipf_rows(0, 600)
    pq.write_table(pa.Table.from_pylist(rows[:400]), f0)
    pq.write_table(pa.Table.from_pylist(rows[400:]), f1)
    single, two_gen = str(d / "single"), str(d / "two_gen")
    kw = dict(partition_rows=100, n_shards=2, chunk_bits=6)
    build_index([f0, f1], single, **kw)
    build_index([f0], two_gen, **kw)
    append_segment([f0, f1], two_gen, partition_rows=100)
    return {"single": single, "two_gen": two_gen,
            "contents": [r["content"] for r in rows]}


def _maxscore_searcher(env, variant) -> Searcher:
    if variant == "range":  # chunk_bits=6: docs [64, 600)
        s = Searcher(env["single"], chunk_range=(1, 10))
        assert s.doc_lo == 64 and s.n_local == 536
        return s
    return Searcher(env["two_gen" if variant == "two_gen" else "single"])


def _pairs(hits):
    return [(h["doc_id"], h["score"]) for h in hits]


@pytest.mark.parametrize("variant", ["single", "range", "two_gen"])
def test_maxscore_matches_taat_and_oracle(maxscore_env, variant):
    """Seeded Zipf queries: the pruned path ("wand"), dense TAAT and auto
    equal oracle_topk exactly in (doc_id, score) for k in {1, 10, n_local}."""
    contents = maxscore_env["contents"]
    s = _maxscore_searcher(maxscore_env, variant)
    allowed = np.zeros(len(contents), dtype=bool)
    allowed[s.doc_lo:s.doc_hi] = True
    vocab = sorted(s.df, key=lambda t: (-s.df[t], t))
    p = 1.0 / np.arange(1, len(vocab) + 1) ** 1.1
    rng = np.random.default_rng(17)
    queries = [list(rng.choice(vocab, size=int(rng.integers(1, 7)), p=p / p.sum()))
               for _ in range(25)]
    for q in queries + [["qalpha", "qgamma"]]:
        ranked = oracle_topk(contents, q, k=len(contents), allowed=allowed)
        for k in (1, 10, s.n_local):
            for strategy in ("wand", "taat", "auto"):
                got = _pairs(s.search(q, k=k, strategy=strategy))
                assert got == ranked[:k], f"[{variant}/{strategy}] {q} k={k}"
    tie = s.search(["qalpha", "qgamma"], k=2, strategy="wand")
    assert [h["doc_id"] for h in tie] == [150, 100]
    assert tie[1]["score"] == s.search(["qalpha"], k=2)[1]["score"]


@pytest.mark.parametrize("variant", ["single", "range", "two_gen"])
def test_maxscore_should_boost_after_match_taat(maxscore_env, variant):
    """should / minimum_should_match / boosts / search_after through the
    pruned path stay identical to dense TAAT."""
    s = _maxscore_searcher(maxscore_env, variant)
    vocab = sorted(s.df, key=lambda t: (-s.df[t], t))
    p = 1.0 / np.arange(1, len(vocab) + 1) ** 1.1
    rng = np.random.default_rng(23)

    def pick(lo, hi):
        return list(rng.choice(vocab, size=int(rng.integers(lo, hi)), p=p / p.sum()))

    for _ in range(40):
        must, should = pick(0, 4), pick(0, 4)
        boosts = {t: float(rng.choice([0.5, 2.5])) for t in must + should
                  if rng.random() < 0.5} or None
        kw = dict(k=int(rng.choice([1, 10, s.n_local])), should_terms=should,
                  min_should_match=int(rng.integers(0, 3)), boosts=boosts)
        want = _pairs(s.search(must, strategy="taat", **kw))
        assert _pairs(s.search(must, strategy="wand", **kw)) == want, (must, kw)
        if len(want) > 1:
            after = want[len(want) // 2][::-1]
            assert (_pairs(s.search(must, strategy="wand", after=after, **kw))
                    == _pairs(s.search(must, strategy="taat", after=after, **kw)))


def _ref_columns(index_dir, lo, hi):
    """The ``repo`` / ``lang`` sidecar columns plus every update overlay,
    read straight from parquet into object arrays of per-doc Python values
    (local doc order) — the reference for the dictionary-coded paths."""
    import os

    import pyarrow as pa

    from astrologer_ray.pipelines.segments import index_generations

    t = pa.concat_tables([
        pq.read_table(p, columns=["doc_id", "repo", "lang"])
        for g, _ in index_generations(index_dir)
        for p in sorted(glob.glob(os.path.join(g, "docs", "*.parquet")))
    ]).sort_by("doc_id").slice(lo, hi - lo)
    ref = {c: np.array(t.column(c).to_pylist(), dtype=object)
           for c in ("repo", "lang")}
    for uf in sorted(glob.glob(os.path.join(index_dir, "updates", "*.parquet"))):
        for row in pq.read_table(uf).to_pylist():
            d = row.pop("doc_id")
            for c, v in row.items():
                ref.setdefault(c, np.full(hi - lo, None, dtype=object))
                if lo <= d < hi:
                    ref[c][d - lo] = v
    return ref


def _ranked_counts(values, order_by_count_desc=True):
    from collections import Counter

    cnt = Counter(v for v in values if v is not None)
    sign = -1 if order_by_count_desc else 1
    return sorted(cnt.items(), key=lambda kv: (sign * kv[1], kv[0]))


@pytest.mark.parametrize("variant", ["single", "range", "two_gen", "update"])
def test_coded_attrs_match_object_reference(maxscore_env, variant, tmp_path):
    """Every path reading dictionary codes — term / exists / attr_prefix
    filters, search(lang=), terms / rare_terms / multi_terms counts and
    collapse winners — equals a plain per-doc object-array reference, on a
    single build, a doc-range shard (doc_lo = 64), a base + appended
    segment, and update_by_query overlays (a new column with nulls and the
    empty string, and a re-encoded ``lang``); probes include values absent
    from the column."""
    if variant == "update":
        import shutil

        from astrologer_ray.pipelines.segments import update_by_query

        idx = str(tmp_path / "idx")
        shutil.copytree(maxscore_env["single"], idx)
        for f, script in (
            ({"term": {"lang": "go"}}, "ctx._source.tag = ''"),
            ({"term": {"lang": "rs"}}, "ctx._source.tag = 'b'"),
            ({"attr_prefix": {"repo": "r000"}}, "ctx._source.tag = 'a'"),
            ({"attr_prefix": {"repo": "r0059"}}, "ctx._source.lang = 'zig'"),
        ):
            update_by_query(idx, f, script)
        s = Searcher(idx)
    else:
        s = _maxscore_searcher(maxscore_env, variant)
        idx = maxscore_env["two_gen" if variant == "two_gen" else "single"]
    ref = _ref_columns(idx, s.doc_lo, s.doc_hi)
    assert ("tag" in ref) == (variant == "update")
    for attr in ref:
        assert s.doc_attrs.coded(attr) is not None
    probes = ["", "zz-absent", "py", "go", "zig", "a", "b", "r00070",
              "r00599", None]
    prefixes = ["", "r", "r000", "r0059", "r1", "p", "zz"]
    in_lang_go = ref["lang"] == "go"
    for attr, col in ref.items():
        for v in probes:
            want = np.array([x == v for x in col])
            assert np.array_equal(s.filter_mask({"term": {attr: v}}), want), (attr, v)
        want = np.array([x is not None and x != "" for x in col])
        assert np.array_equal(s.filter_mask({"exists": attr}), want), attr
        for p in prefixes:
            want = np.array([x is not None and x.startswith(p) for x in col])
            got = s.filter_mask({"attr_prefix": {attr: p}})
            assert np.array_equal(got, want), (attr, p)
        ranked = _ranked_counts(col)
        assert s.agg_terms(attr, k=len(col)) == ranked, attr
        assert s.agg_terms(attr, k=3) == ranked[:3], attr
        assert s.agg_terms(attr, k=len(col), filter={"term": {"lang": "go"}}) \
            == _ranked_counts(col[in_lang_go]), attr
        rare = [kv for kv in _ranked_counts(col, False) if kv[1] <= 2]
        assert s.agg_rare_terms(attr, max_doc_count=2) == rare, attr
    pair = ("lang", "tag" if "tag" in ref else "repo")
    keys = [(a, b) if a is not None and b is not None else None
            for a, b in zip(ref[pair[0]], ref[pair[1]])]
    assert s.agg_multi_terms(list(pair), k=10) == _ranked_counts(keys)[:10]

    contents = maxscore_env["contents"]
    in_range = np.zeros(len(contents), dtype=bool)
    in_range[s.doc_lo:s.doc_hi] = True
    vocab = sorted(s.df, key=lambda t: (-s.df[t], t))
    rng = np.random.default_rng(29)
    for _ in range(8):
        q = list(rng.choice(vocab[:40], size=2))
        for lang in ("py", "zig", "zz-absent"):
            allowed = in_range.copy()
            allowed[s.doc_lo:s.doc_hi] = ref["lang"] == lang
            assert _pairs(s.search(q, k=10, lang=lang)) == oracle_topk(
                contents, q, k=10, allowed=allowed), (q, lang)
        ranked = oracle_topk(contents, q, k=len(contents), allowed=in_range)
        for attr, col in ref.items():
            seen, want = set(), []
            for d, sc in ranked:  # docs without a value form one group
                if col[d - s.doc_lo] not in seen:
                    seen.add(col[d - s.doc_lo])
                    want.append((d, sc))
            got = _pairs(s.search_collapse(q, collapse=attr, k=5))
            assert got == want[:5], (q, attr)
            groups = _ranked_counts([col[d - s.doc_lo] for d, _ in ranked])
            want = [(g, c, d, sc, r + 1) for g, c in groups[:4]
                    for r, (d, sc) in enumerate(
                        [h for h in ranked if col[h[0] - s.doc_lo] == g][:2])]
            got = [(h["group"], h["doc_count"], h["doc_id"], h["score"],
                    h["hit_rank"])
                   for h in s.search_top_hits(q, attr, n_hits=2, k_groups=4)]
            assert got == want, (q, attr)


# ------------------------------------------------------- dense term entries

DENSE_VARIANTS = ["single", "range", "deleted"]
STRATEGIES = ("auto", "wand", "taat")


@pytest.fixture(scope="module")
def dense_env(maxscore_env, tmp_path_factory):
    """``maxscore_env`` plus a copy of its base + appended index with
    docs 100-199 (base) and 500-599 (appended segment) tombstoned by two
    ``delete_by_query`` calls, and every term's per-doc BM25 weight."""
    import shutil

    from astrologer_ray.pipelines.segments import delete_by_query

    idx = str(tmp_path_factory.mktemp("dense") / "deleted")
    shutil.copytree(maxscore_env["two_gen"], idx)
    for prefix in ("r001", "r005"):
        assert delete_by_query(idx, {"attr_prefix": {"repo": prefix}})["deleted"] == 100
    return dict(maxscore_env, deleted=idx,
                weights=_oracle_weights(maxscore_env["contents"]))


def _oracle_weights(contents) -> dict:
    """term -> per-doc BM25 weight (0.0 where absent): oracle_topk's own
    computation done once for every term, spot-checked against it."""
    from astrologer_ray import B, K1
    from astrologer_ray.functions.tokenizer import token_counts
    from astrologer_ray.state.bm25 import bm25_term_weight, idf

    counters = [token_counts(c, mode="code") for c in contents]
    dls = np.array([sum(c.values()) for c in counters], dtype=np.float64)
    avgdl = float(dls.sum() / len(contents))
    weights = {}
    for t in sorted({t for c in counters for t in c}):
        tf = np.array([c.get(t, 0) for c in counters], dtype=np.float64)
        has = tf > 0
        w = np.zeros(len(contents))
        w[has] = bm25_term_weight(idf(len(contents), int(has.sum())),
                                  tf[has], dls[has], avgdl, K1, B)
        weights[t] = w
    for t in list(weights)[::40]:
        want = oracle_topk(contents, [t], k=len(contents))
        assert [(int(d), float(weights[t][d])) for d, _ in want] == want, t
    return weights


def _dense_case(env, variant):
    """``(searcher, allowed)``: ``allowed`` marks the global doc ids a
    search may return (inside the doc range, not tombstoned)."""
    s = (Searcher(env["deleted"]) if variant == "deleted"
         else _maxscore_searcher(env, variant))
    allowed = np.zeros(len(env["contents"]), dtype=bool)
    allowed[s.doc_lo:s.doc_hi] = True
    if variant == "deleted":
        assert len(s.deleted) == 200
        allowed[s.deleted] = False
    return s, allowed


def _ref_hits(weights, must, should=None, msm=0, boosts=None,
              allowed=None, after=None):
    """Brute-force bool query ranked (score desc, doc_id asc): per-term
    oracle weights (times the boost) summed must terms first, then the
    remaining should terms, each sorted."""
    n = len(next(iter(weights.values())))
    must = sorted(set(must))
    sterms = sorted(set(should or ()) - set(must))
    score = np.zeros(n)
    hit = np.zeros(n, dtype=bool)
    cnt = np.zeros(n, dtype=np.int64)
    for t in must + sterms:
        w = weights.get(t, np.zeros(n))
        if boosts and t in boosts:
            w = w * float(boosts[t])
        score += w
        if t in must:
            hit |= w > 0
        else:
            cnt += w > 0
    keep = hit if must or not should else np.ones(n, dtype=bool)
    if should:
        keep &= cnt >= max(msm, 0 if must else 1)
    if allowed is not None:
        keep &= allowed
    if after is not None:
        keep &= (score < after[0]) | ((score == after[0])
                                      & (np.arange(n) > after[1]))
    ids = np.flatnonzero(keep)
    order = np.lexsort((ids, -score[ids]))
    return [(int(ids[i]), float(score[ids[i]])) for i in order]


def _dense_split(s, weights):
    """The searcher's terms split by LOCAL df into those held dense
    (2 * df >= n_local) and sparse, each by descending global df; and the
    local df map."""
    vocab = sorted(s.df, key=lambda t: (-s.df[t], t))
    df = {t: int((weights[t][s.doc_lo:s.doc_hi] > 0).sum()) for t in vocab}
    dense = [t for t in vocab if 2 * df[t] >= s.n_local]
    sparse = [t for t in vocab if 0 < 2 * df[t] < s.n_local]
    return dense, sparse, df


@pytest.mark.parametrize("variant", DENSE_VARIANTS)
def test_dense_entries_match_oracle(dense_env, variant, monkeypatch):
    """Head terms (local df >= n_local / 2) are held as one dense weight
    vector and everything else sparse; queries with dense terms in
    essential and non-essential positions, all-dense queries, boosts,
    should / minimum_should_match, search_after and filters give exactly
    oracle_topk's (doc_id, score) under every strategy, on a single build,
    a doc-range shard (doc_lo = 64) and a base + appended segment with
    tombstones."""
    contents, weights = dense_env["contents"], dense_env["weights"]
    s, allowed = _dense_case(dense_env, variant)
    dense, sparse, df = _dense_split(s, weights)
    assert len(dense) >= 5 and len(sparse) >= 20
    rare, mid = sparse[-1], sparse[len(sparse) // 2]

    # which candidate regime each scoring round used, per strategy
    seen: set = set()
    score = s._score

    def spy(q, cand, allowed_, after):
        has_dense = any(e[0] is None for e in q[1])
        seen.add("whole" if cand is None else
                 "union+dense" if has_dense else "union")
        return score(q, cand, allowed_, after)

    monkeypatch.setattr(s, "_score", spy)
    regimes = {st: set() for st in STRATEGIES}

    def check(st, got, want, what):
        assert got == want, f"[{variant}/{st}] {what}"
        regimes[st] |= seen
        if st == "taat":
            assert seen <= {"whole"}, what
        elif st == "wand":
            assert "whole" not in seen, what
        seen.clear()

    vocab = dense + sparse
    p = 1.0 / np.arange(1, len(vocab) + 1) ** 1.1
    rng = np.random.default_rng(31)
    queries = [dense[:1], dense[:3], dense[:6], [rare, dense[0]],
               [mid, dense[0], dense[1]], [rare, mid] + dense[:2],
               [dense[0], "zz-absent"]]
    queries += [list(rng.choice(vocab, size=int(rng.integers(1, 6)),
                                p=p / p.sum())) for _ in range(12)]
    for i, q in enumerate(queries):
        for boosts in (None, {q[0]: 2.5, q[-1]: 0.5}):
            ranked = _ref_hits(weights, q, boosts=boosts, allowed=allowed)
            if i < 3:
                assert ranked == oracle_topk(contents, q, k=len(contents),
                                             allowed=allowed, boosts=boosts)
            for k in (1, 10, s.n_local):
                for st in STRATEGIES:
                    got = _pairs(s.search(q, k=k, strategy=st, boosts=boosts))
                    check(st, got, ranked[:k], (q, boosts, k))

    langs = np.array([["py", "go", "rs"][i % 3] for i in range(len(contents))])
    for _ in range(30):
        must = list(rng.choice(vocab, size=int(rng.integers(0, 4)), p=p / p.sum()))
        should = list(rng.choice(vocab, size=int(rng.integers(0, 4)), p=p / p.sum()))
        msm = int(rng.integers(0, 3))
        boosts = {t: float(rng.choice([0.5, 2.5])) for t in must + should
                  if rng.random() < 0.5} or None
        filt = {"term": {"lang": "py"}} if rng.random() < 0.4 else None
        allow = allowed & (langs == "py") if filt else allowed
        ranked = _ref_hits(weights, must, should, msm, boosts, allow)
        kw = dict(should_terms=should, min_should_match=msm, boosts=boosts,
                  filter=filt)
        for k in (1, 10, s.n_local):
            for st in STRATEGIES:
                got = _pairs(s.search(must, k=k, strategy=st, **kw))
                check(st, got, ranked[:k], (must, kw, k))
        if len(ranked) > 1:
            after = ranked[len(ranked) // 2][::-1]
            want = _ref_hits(weights, must, should, msm, boosts, allow,
                             after=after)
            for st in STRATEGIES:
                got = _pairs(s.search(must, k=10, strategy=st, after=after, **kw))
                check(st, got, want[:10], (must, kw, after))

    # every regime ran: auto took the whole range once a dense term was
    # essential and gathered dense terms by direct index otherwise
    assert regimes["auto"] >= {"whole", "union", "union+dense"}
    assert "union+dense" in regimes["wand"]
    for t in vocab:
        ids, w, ub, n = s._term_entry(t)
        assert n == df[t], t
        if t in dense:
            assert ids is None and len(w) == s.n_local and ub == w.max(), t
        else:
            assert ids is not None and len(ids) == len(w) == n, t


@pytest.mark.parametrize("chunks", [(0, 3), (2, 3)])
def test_dense_threshold_is_inclusive(dense_env, chunks):
    """A term in exactly half the local docs — the memory break-even
    point — is held dense, and searches over it stay exact. Doc-range
    shards (64-doc chunks) of the single build where such terms exist."""
    weights = dense_env["weights"]
    s = Searcher(dense_env["single"], chunk_range=chunks)
    allowed = np.zeros(len(dense_env["contents"]), dtype=bool)
    allowed[s.doc_lo:s.doc_hi] = True
    dense, sparse, df = _dense_split(s, weights)
    edge = [t for t in dense if 2 * df[t] == s.n_local]
    assert edge
    for t in dense + sparse:
        assert (s._term_entry(t)[0] is None) == (t in dense), t
    for q in ([edge[0]], edge + sparse[-2:], [sparse[0], edge[0]]):
        ranked = _ref_hits(weights, q, allowed=allowed)
        for k in (1, 10, s.n_local):
            for st in STRATEGIES:
                assert _pairs(s.search(q, k=k, strategy=st)) == ranked[:k]


@pytest.mark.parametrize("variant", DENSE_VARIANTS)
def test_dense_collapse_and_top_hits_match_reference(dense_env, variant):
    """search_collapse and search_top_hits over queries with dense head
    terms (plus boosts and a filter) equal the per-group reference built
    from oracle scores."""
    weights = dense_env["weights"]
    s, allowed = _dense_case(dense_env, variant)
    dense, sparse, _ = _dense_split(s, weights)
    rare, mid = sparse[-1], sparse[len(sparse) // 2]
    n = len(dense_env["contents"])
    cols = {"lang": np.array([["py", "go", "rs"][i % 3] for i in range(n)]),
            "repo": np.array([f"r{i:05d}" for i in range(n)])}
    for q, boosts, filt in [
        (dense[:2], None, None),
        ([rare, dense[0]], {dense[0]: 2.5}, None),
        (dense[:3] + [mid], {mid: 0.5}, {"term": {"lang": "py"}}),
    ]:
        allow = allowed & (cols["lang"] == "py") if filt else allowed
        ranked = _ref_hits(weights, q, boosts=boosts, allowed=allow)
        assert ranked
        for attr, col in cols.items():
            firsts, want = set(), []
            for d, sc in ranked:
                if col[d] not in firsts:
                    firsts.add(col[d])
                    want.append((d, sc))
            got = _pairs(s.search_collapse(q, collapse=attr, k=5,
                                           filter=filt, boosts=boosts))
            assert got == want[:5], (q, attr)
            groups = _ranked_counts([col[d] for d, _ in ranked])
            want = [(g, c, d, sc, r + 1) for g, c in groups[:4]
                    for r, (d, sc) in enumerate(
                        [h for h in ranked if col[h[0]] == g][:2])]
            got = [(h["group"], h["doc_count"], h["doc_id"], h["score"],
                    h["hit_rank"])
                   for h in s.search_top_hits(q, attr, n_hits=2, k_groups=4,
                                              filter=filt, boosts=boosts)]
            assert got == want, (q, attr)


def test_dense_entry_rejects_nonpositive_weights(maxscore_env, monkeypatch):
    """A dense entry's ``w > 0`` hit test needs every posting weight
    positive: building one from a zero or negative weight raises instead
    of silently dropping matches."""
    import astrologer_ray.state.searcher as searcher_mod

    real = searcher_mod.bm25_term_weight
    for bad in (lambda w: w * 0.0, lambda w: -w):
        monkeypatch.setattr(searcher_mod, "bm25_term_weight",
                            lambda *a, bad=bad: bad(real(*a)))
        s = Searcher(maxscore_env["single"], load_docs=False)
        vocab = sorted(s.df, key=lambda t: (-s.df[t], t))
        assert 2 * s.df[vocab[0]] >= s.n_local
        with pytest.raises(ValueError, match="<= 0"):
            s.search([vocab[0]])


@pytest.mark.parametrize("cap_frac", [0.5, 1.5])
def test_mixed_lru_accounting(dense_env, cap_frac, monkeypatch):
    """With the impacts cache shrunk below n_local (no dense entry fits)
    and just above it (one dense entry at a time), a mixed dense / sparse
    query stream stays exact and the cache's value count always equals
    the sum of its entries' sizes, within the cap."""
    weights = dense_env["weights"]
    s, allowed = _dense_case(dense_env, "range")
    cap = int(cap_frac * s.n_local)
    monkeypatch.setattr(s, "IMPACT_LRU_VALS", cap)
    dense, sparse, _ = _dense_split(s, weights)
    rng = np.random.default_rng(37)
    dense_cached = False
    for _ in range(40):
        q = (list(rng.choice(dense, size=int(rng.integers(0, 3))))
             + list(rng.choice(sparse, size=int(rng.integers(1, 4)))))
        want = _ref_hits(weights, q, allowed=allowed)[:10]
        for st in STRATEGIES:
            assert _pairs(s.search(q, k=10, strategy=st)) == want, (q, st)
            sizes = [len(e[1]) for e in s._impact_lru.values()]
            assert s._impact_lru_vals == sum(sizes) <= cap
            dense_cached |= any(e[0] is None for e in s._impact_lru.values())
    assert dense_cached == (cap >= s.n_local)
