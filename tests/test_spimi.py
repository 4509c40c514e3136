"""Stage-1 SPIMI partials (stages/spimi.TokenizePartials): the packed
partial postings equal a reference built from the scalar ``token_counts``
/ ``tokenize`` oracle, ordered by ``(term_hash % n_buckets, term_hash,
lrow)``, for every tokenizer mode, positions, keyword fields and content
column layout, whatever the process-wide tokenizer's split cache holds;
and partials written with the writer's former default options still
resume, append and compact into the same index tables."""

import glob
import json
import os
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from astrologer_ray.functions import tokenizer
from astrologer_ray.functions.codec import term_hash64
from astrologer_ray.functions.tokenizer import token_counts, tokenize
from astrologer_ray.layout import FIELD_SEP
from astrologer_ray.stages import spimi
from astrologer_ray.stages.spimi import (
    LROW_BITS,
    POST_SCHEMA,
    POST_SCHEMA_POS,
    TokenizePartials,
)

N_BUCKETS = 8
PART_ID = 3
# the adversarial docs of tests/test_tokenizer.py, plus runs that touch
# across doc boundaries ("boundary" + "Run", "x9" + "9x")
EDGE_DOCS = [
    "parseHTTPResponse foo_bar 123abc 9a9b a123b _9abc 12_a ab9cd",
    "", None, "   ", "a\x00b ctrl\x01sep\ttab",
    "UPPER lower 0xFF 999 _lead __dunder__ trail_ 9",
    "mixed123Case456 99bottles end9", "é9abc über π≈3 café",
    "x" * 70 + " hello", "y" * 65, "CaseTwin casetwin",
    "a b a a c", "getIndex mergeSort getIndex",
    "ends_at_boundary", "RunStartsHere next", "x9", "9x",
    "a\x00b c\x01d\te",
]
KEYWORDS = {"lang": "lang", "tag": "tags"}


def _docs(seed: int = 7, n: int = 40) -> list:
    rng = np.random.default_rng(seed)
    from astrologer_ray.sources.corpus import _make_vocab, _zipf_weights

    vocab = np.array(_make_vocab(rng, 150))
    probs = _zipf_weights(150)
    docs = [" ".join(rng.choice(vocab, size=int(rng.integers(0, 30)), p=probs))
            for _ in range(n)]
    return EDGE_DOCS + docs


def _table(docs: list, layout: str) -> pa.Table:
    n = len(docs)
    typ = pa.large_string() if layout == "large_string" else pa.string()
    tags = [None if i % 5 == 0 else
            [["red", "blue", "red"], [], ["blue"], ["green", None]][i % 4]
            for i in range(n)]
    t = pa.table({
        "repo": [f"r{i % 3}" for i in range(n)],
        "path": [f"p{i:04d}" for i in range(n)],
        "commit": ["c0"] * n,
        "lang": [None if i % 7 == 3 else ["py", "go"][i % 2] for i in range(n)],
        "content": pa.array(docs, typ),
        "tags": pa.array(tags, pa.list_(pa.string())),
    })
    if layout == "chunked":
        t = pa.Table.from_batches(t.to_batches(max_chunksize=9))
        assert t.column("content").num_chunks > 1
    return t


def _stage(tmp_path, mode, positions, keywords) -> TokenizePartials:
    return TokenizePartials(str(tmp_path), mode=mode, n_buckets=N_BUCKETS,
                            keyword_fields=KEYWORDS if keywords else None,
                            positions=positions)


def _run(stage: TokenizePartials, t: pa.Table) -> tuple[pa.Table, pa.Table, dict]:
    m = stage._process_table(t, {"part_id": PART_ID, "file": __file__,
                                 "rg_start": 0, "rg_end": 1})
    d = stage.partials_dir
    return (pq.read_table(os.path.join(d, f"post-{PART_ID:06d}.parquet")),
            pq.read_table(os.path.join(d, f"docs-{PART_ID:06d}.parquet")), m)


def _reference(docs, mode, positions, keywords, rows):
    """(post, dls) built per doc from the scalar tokenizer oracle."""
    base = PART_ID << LROW_BITS
    post = defaultdict(list)  # term -> [(lrow, tf, positions)]
    dls = []
    for i, doc in enumerate(docs):
        toks = tokenize(doc or "", mode=mode)
        counts = token_counts(doc or "", mode=mode)
        dls.append(sum(counts.values()))
        for term, tf in counts.items():
            post[term].append(
                (base + i, tf, [j for j, tk in enumerate(toks) if tk == term]))
    if keywords:
        for i, row in enumerate(rows):
            vals = {"lang": [row["lang"]], "tag": row["tags"] or []}
            for field in KEYWORDS:
                for v in dict.fromkeys("None" if v is None else v
                                       for v in vals[field]):
                    post[f"{field}{FIELD_SEP}{v}"].append((base + i, 1, [0]))
    terms = sorted(post, key=lambda t: (term_hash64(t) % N_BUCKETS, term_hash64(t)))
    cols = {
        "term": terms,
        "term_hash": [term_hash64(t) for t in terms],
        "lrows": [[p[0] for p in post[t]] for t in terms],
        "tfs": [[p[1] for p in post[t]] for t in terms],
    }
    if positions:
        cols["poss"] = [[x for p in post[t] for x in p[2]] for t in terms]
    return pa.table(cols, schema=POST_SCHEMA_POS if positions else POST_SCHEMA), dls


@pytest.mark.parametrize("layout", ["string", "large_string", "chunked"])
@pytest.mark.parametrize("keywords", [False, True])
@pytest.mark.parametrize("positions", [False, True])
@pytest.mark.parametrize("mode", ["code", "simple"])
def test_partials_match_reference(tmp_path, mode, positions, keywords, layout):
    docs = _docs()
    t = _table(docs, layout)
    post, part_docs, m = _run(_stage(tmp_path, mode, positions, keywords), t)
    want, dls = _reference(docs, mode, positions, keywords, t.to_pylist())
    assert post.equals(want)
    assert part_docs.column("dl").to_pylist() == dls
    assert m["n_postings"] == sum(len(x) for x in want.column("lrows").to_pylist())
    assert m["n_unique_terms"] == want.num_rows
    # one row group per bucket, in bucket order, as the manifest maps them
    pf = pq.ParquetFile(os.path.join(str(tmp_path), f"post-{PART_ID:06d}.parquet"))
    buckets = [int(h) % N_BUCKETS for h in want.column("term_hash").to_pylist()]
    rgs = {int(b): i for b, i in json.loads(m["bucket_rgs"]).items()}
    assert sorted(rgs) == sorted(set(buckets))
    for b, i in rgs.items():
        rg = pf.read_row_group(i)
        assert {h % N_BUCKETS for h in rg.column("term_hash").to_pylist()} == {b}


def test_empty_partition(tmp_path):
    t = _table(["", None, "  \x01 "], "string")
    post, part_docs, m = _run(_stage(tmp_path, "code", True, False), t)
    assert post.num_rows == 0 and post.schema == POST_SCHEMA_POS
    assert part_docs.column("dl").to_pylist() == [0, 0, 0]
    assert m["n_postings"] == 0 and json.loads(m["bucket_rgs"]) == {}


@pytest.mark.parametrize("key_bits", [1, 12])
@pytest.mark.parametrize("mode", ["code", "simple"])
def test_split_by_doc_range_keeps_partials(tmp_path, monkeypatch, mode, key_bits):
    """Keys wider than ``KEY_BITS`` sort in doc-range pieces merged by
    rank; lowering the limit so the batch splits leaves the partials
    identical."""
    t = _table(_docs(), "chunked")
    want = _run(_stage(tmp_path / "whole", mode, True, True), t)
    merges = []
    merge = tokenizer._merge_by_rank
    monkeypatch.setattr(tokenizer, "KEY_BITS", key_bits)
    monkeypatch.setattr(tokenizer, "_merge_by_rank",
                        lambda a, b: merges.append(1) or merge(a, b))
    got = _run(_stage(tmp_path / "split", mode, True, True), t)
    assert merges
    assert got[0].equals(want[0]) and got[1].equals(want[1])


# --- partials written with the former writer defaults -------------------

def _old_format(partials_dir: str) -> None:
    """Rewrite every partial postings file with the writer's former
    options (zstd, default dictionary encoding on every column), row group
    for row group."""
    for p in glob.glob(os.path.join(partials_dir, "post-*.parquet")):
        pf = pq.ParquetFile(p)
        rgs = [pf.read_row_group(i) for i in range(pf.num_row_groups)]
        with pq.ParquetWriter(p + ".tmp", pf.schema_arrow, compression="zstd") as w:
            for rg in rgs:
                w.write_table(rg)
        os.replace(p + ".tmp", p)


def _encodings(p: str, column: str) -> set:
    md = pq.ParquetFile(p).metadata
    out = set()
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        for j in range(rg.num_columns):
            if rg.column(j).path_in_schema == column:
                out |= set(rg.column(j).encodings)
    return out


def _assert_same_tables(a: str, b: str) -> None:
    def tables(d):
        return sorted(os.path.relpath(p, d)
                      for p in glob.glob(os.path.join(d, "**", "*.parquet"),
                                         recursive=True)
                      if "stats" not in os.path.relpath(p, d).split(os.sep))

    assert tables(a) == tables(b)
    for rel in tables(a):
        ta, tb = pq.read_table(os.path.join(a, rel)), pq.read_table(os.path.join(b, rel))
        assert ta.equals(tb), rel


def test_old_format_partials_resume_append_compact(ray_session, small_corpus_dir,
                                                   tmp_path):
    from astrologer_ray.pipelines.build import build_index
    from astrologer_ray.pipelines.segments import append_segment, compact_index

    rows = pq.read_table(small_corpus_dir).sort_by(
        [("repo", "ascending"), ("path", "ascending"), ("commit", "ascending")])
    parts = [str(tmp_path / "part-000.parquet"), str(tmp_path / "part-001.parquet")]
    pq.write_table(rows.slice(0, 200), parts[0], row_group_size=64)
    pq.write_table(rows.slice(200), parts[1], row_group_size=64)
    new, old = str(tmp_path / "new"), str(tmp_path / "old")
    for idx in (new, old):
        build_index(parts[:1], idx, partition_rows=64, positions=True,
                    keyword_fields={"lang": "lang"})

    partials = os.path.join(old, "partials")
    _old_format(partials)
    posts = sorted(glob.glob(os.path.join(partials, "post-*.parquet")))
    assert len(posts) > 2
    assert "DELTA_BINARY_PACKED" in _encodings(
        os.path.join(new, "partials", os.path.basename(posts[0])), "lrows.list.element")
    assert "DELTA_BINARY_PACKED" not in _encodings(posts[0], "lrows.list.element")
    # resume: one unit is re-tokenized with the current writer, the rest
    # stay in the old format
    for f in glob.glob(os.path.join(partials, "*-000001.*")):
        os.remove(f)
    build_index(parts[:1], old, partition_rows=64, positions=True,
                keyword_fields={"lang": "lang"})
    assert "DELTA_BINARY_PACKED" in _encodings(
        os.path.join(partials, "post-000001.parquet"), "lrows.list.element")
    _assert_same_tables(new, old)

    for idx in (new, old):
        append_segment(parts, idx, partition_rows=64)
    _assert_same_tables(new, old)

    for idx in (new, old):
        compact_index(parts, idx, partition_rows=64)
    _assert_same_tables(new, old)


# --- the process-wide split cache ----------------------------------------

def _partials(stage: TokenizePartials, t: pa.Table, part_id: int) -> tuple:
    """(post, docs) partial tables of ``t`` written as partition ``part_id``."""
    stage._process_table(t, {"part_id": part_id, "file": __file__,
                             "rg_start": 0, "rg_end": 1})
    return tuple(pq.read_table(os.path.join(stage.partials_dir,
                                            f"{kind}-{part_id:06d}.parquet"))
                 for kind in ("post", "docs"))


def _fresh_partials(tmp_path, monkeypatch, tables, mode, positions, keywords):
    """Each table's partials from its own fresh ``CodeTokenizer``."""
    with monkeypatch.context() as m:
        m.setattr(spimi, "shared_tokenizer", tokenizer.CodeTokenizer)
        return [_partials(_stage(tmp_path / f"fresh{i}", mode, positions, keywords),
                          t, i) for i, t in enumerate(tables)]


def _partitions() -> list:
    return [_table(_docs(seed=s, n=n), layout)
            for s, n, layout in ((7, 40, "string"), (11, 120, "chunked"),
                                 (5, 60, "string"))]


@pytest.mark.parametrize("keywords", [False, True])
@pytest.mark.parametrize("positions", [False, True])
@pytest.mark.parametrize("mode", ["code", "simple"])
def test_partials_do_not_depend_on_cache_state(tmp_path, monkeypatch, mode,
                                               positions, keywords):
    """Partials written through the process-wide tokenizer, warm from
    other partitions, equal those of a fresh tokenizer."""
    tables = _partitions()
    want = _fresh_partials(tmp_path, monkeypatch, tables, mode, positions, keywords)
    shared = tokenizer.shared_tokenizer(mode)
    shared.batch_postings(pa.array(_docs(seed=3, n=200)), n_buckets=5)
    stage = _stage(tmp_path / "shared", mode, positions, keywords)
    assert stage.tok is shared
    for i in (2, 0, 1, 0):
        assert _partials(stage, tables[i], i) == want[i], i


@pytest.mark.parametrize("mode", ["code", "simple"])
def test_cache_bound_resets_between_batches(tmp_path, monkeypatch, mode):
    """A cache past ``SPLIT_CACHE_TOKENS`` starts fresh before the next
    batch, and the partials stay the same."""
    tables = _partitions()
    want = _fresh_partials(tmp_path, monkeypatch, tables, mode, True, True)
    monkeypatch.setattr(tokenizer, "SPLIT_CACHE_TOKENS", 4)
    tok = tokenizer.CodeTokenizer(mode)
    monkeypatch.setattr(spimi, "shared_tokenizer", lambda mode: tok)
    resets = []
    reset = tok._reset
    monkeypatch.setattr(tok, "_reset", lambda: resets.append(1) or reset())
    stage = _stage(tmp_path / "bounded", mode, True, True)
    for i, t in enumerate(tables):
        assert _partials(stage, t, i) == want[i], i
    assert len(resets) == len(tables) - 1
    assert len(tok._tok2ids) > 4


@pytest.mark.parametrize("mode", ["code", "simple"])
def test_threads_share_one_tokenizer(tmp_path, monkeypatch, mode):
    """Two threads tokenizing different partitions at once through one
    shared tokenizer write the partials a fresh tokenizer writes."""
    import threading

    tables = _partitions()[:2]
    want = _fresh_partials(tmp_path, monkeypatch, tables, mode, True, True)
    tok = tokenizer.CodeTokenizer(mode)
    monkeypatch.setattr(spimi, "shared_tokenizer", lambda mode: tok)
    start = threading.Barrier(2)
    got: dict = {}

    def work(i: int) -> None:
        stage = _stage(tmp_path / f"thread{i}", mode, True, True)
        start.wait()
        got[i] = [_partials(stage, tables[i], i) for _ in range(4)]

    threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for i in (0, 1):
        assert got[i] == [want[i]] * 4, i
