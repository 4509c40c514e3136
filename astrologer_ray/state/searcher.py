"""Query serving: dictionary + posting chunks in an actor pool, MaxScore top-k.

The reference's query half is Elasticsearch: term/bool filters and top-k
served from an index pre-sorted by paging token
(/root/reference/es.postman_collection.json, es/indices.go:26-27). Here the
query-time state (dictionary, posting chunks, doc attributes) is loaded once
per ``Searcher`` — in Ray, once per actor (SURVEY §2.3 ST4: ``map_batches(
SearchStage, concurrency=N)`` for batch query sets; plain actors for QPS).

Top-k BM25 is term-level MaxScore over cached impacts (Turtle & Flood
1995), vectorized, on one path: each term's decoded weights are
LRU-cached with their max as the term's upper bound — sparse ``(ids,
weights)``, or, once the term is in half the local docs, one dense weight
vector over the local range (no larger, and gathered by direct index).
The highest-bound terms form the *essential* set. Their posting union is
the candidate set, or the whole local range once a dense term is
essential; every term adds its weight to every candidate (a dense
term's ``w[cand]``, a sparse term's ``searchsorted`` gather). The cut is
accepted when the remaining terms' summed bound, times a 1+1e-12 safety
factor against float reassociation, is strictly below the k-th candidate
score — strict, so the (score desc, doc_id asc) tie-break stays exact.
Otherwise more terms join the essential set. Contributions go in
sorted-term order, a non-posting adding +0.0, so scores are
bit-identical to the oracle.

Every other match-then-rank method (phrase, prefix and span queries,
dis_max, synonyms, boosting, function_score, rank / distance feature)
finds its match set, scores it — the positional ones through the same
``_score`` sum — and ends in the same ``_topk`` + ``_format`` tail.

Doc attributes (``DocAttrs``) keep string columns as dictionary codes:
string filters, ``lang=``, terms-style aggregations and collapse compare
and count int32 codes.

Opening a searcher and serving requests need no pandas, so a pool
replica starts without importing it: unfiltered parquet reads go through
``pq.ParquetFile`` rather than ``pq.read_table`` (``pyarrow.dataset``),
Arrow numbers reach numpy through :func:`_numpy` (``np.frombuffer`` over
the column's buffers), and string categories through ``to_pylist``.
pyarrow 16 imports pandas on ``to_numpy``, ``np.asarray``, ``pa.array``
/ ``pa.scalar`` from Python values, ``Table.group_by`` and expression
filters. What still reaches those calls: a ``chunk_range`` open (its
reads are filtered), an open that folds ``updates/`` overlays, a string
runtime field, a ``prefix`` filter on a column that is not
dictionary-coded, the wildcard / regexp / suggest term expansions and
``_termvectors`` by id.
"""

from __future__ import annotations

import bisect
import glob
import os
from collections.abc import MutableMapping

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from astrologer_ray.functions.codec import POSTINGS_SCHEMA, POSTINGS_SCHEMA_POS
from astrologer_ray.functions.tokenizer import tokenize
from astrologer_ray.layout import FIELD_SEP, load_meta
from astrologer_ray.state.bm25 import bm25_term_weight, idf

_UB_SAFETY = 1.0 + 1e-12


def _read(path: str, columns=None, filters=None) -> pa.Table:
    """One parquet file. Only a filtered read goes through
    ``pq.read_table`` (``pyarrow.dataset``, which imports pandas)."""
    if filters is not None:
        return pq.read_table(path, columns=columns, filters=filters)
    with pq.ParquetFile(path) as f:
        return f.read(columns=columns)


def _numpy(col, null=None) -> np.ndarray:
    """An integer or float Arrow column (array or chunked array) as numpy:
    an ``np.frombuffer`` view of its data buffer, since pyarrow's own
    ``to_numpy`` and ``np.asarray`` import pandas. A column with nulls
    needs ``null``: the slots the validity bitmap marks null hold it, in a
    copy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_floating(t):
        dtype = np.dtype(f"f{t.bit_width // 8}")
    elif pa.types.is_integer(t):
        kind = "i" if pa.types.is_signed_integer(t) else "u"
        dtype = np.dtype(f"{kind}{t.bit_width // 8}")
    else:
        raise TypeError(f"not an integer or float column: {t}")
    n, off = len(col), col.offset
    if n == 0:
        return np.empty(0, dtype)
    out = np.frombuffer(col.buffers()[1], dtype)[off:off + n]
    if col.null_count == 0:
        return out
    if null is None:
        raise ValueError(f"{t} column has {col.null_count} nulls")
    bits = np.frombuffer(col.buffers()[0], np.uint8)
    valid = np.unpackbits(bits, bitorder="little")[off:off + n].view(bool)
    out = out.copy()
    out[~valid] = null
    return out


class _ChunkStore:
    """Columnar chunk-metadata store with lazy per-term row views.

    The postings table (sorted by ``(term, last_doc_id)``) stays as flat
    numpy arrays plus one ``term -> (start, stop)`` row-range index; the
    per-chunk dicts the decoders consume are materialized only for terms a
    query actually touches (and cached). Eagerly exploding every row into
    a Python dict was O(vocab × chunks) objects per actor and dominated
    actor cold-start and RSS on large shards. Blob columns attach as
    zero-copy memoryview slices over the Arrow data buffer. Every term is
    decoded whole, and its score bound is the max of its cached weights.
    """

    _SCALARS = ("chunk_id", "n", "first_doc_id", "last_doc_id", "sum_tf")

    def __init__(self, post: pa.Table | None):
        self._ranges: dict[str, tuple[int, int]] = {}
        self._cache: dict[str, list[dict]] = {}
        self._scalar: dict[str, np.ndarray] = {}
        self._blob: dict[str, tuple[np.ndarray, memoryview]] = {}
        if post is None or post.num_rows == 0:
            return
        enc = post.column("term").combine_chunks().dictionary_encode()
        codes = _numpy(enc.indices)
        # invariant: every term's chunk rows form ONE contiguous row run
        # (global term sort, or per-term-sorted hash buckets concatenated —
        # a term lives in exactly one bucket). First-appearance dictionary
        # codes then enumerate runs in row order, so run k belongs to
        # dictionary[k].
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        stops = np.append(starts[1:], len(codes))
        if len(starts) != len(enc.dictionary):
            # a term split across runs would silently mis-range EVERY term
            # after it — refuse loudly instead (stale postings_term_sorted
            # flag / corrupted postings)
            raise ValueError(
                "postings table is not term-contiguous: "
                f"{len(starts)} runs for {len(enc.dictionary)} terms"
            )
        self._ranges = {
            t: (int(s), int(e))
            for t, s, e in zip(enc.dictionary.to_pylist(), starts, stops)
        }
        names = set(post.column_names)
        for c in self._SCALARS:
            if c in names:
                self._scalar[c] = _numpy(post.column(c))
        for c in (n for n in post.column_names if n.endswith("_bytes")):
            arr = post.column(c).combine_chunks()
            if arr.null_count:
                # a null blob must stay a loud error (decode raises on a
                # missing stream) — an empty memoryview would silently
                # decode as an empty posting run
                raise ValueError(f"null {c} in postings table")
            offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)
            offs = offs[arr.offset: arr.offset + len(arr) + 1]
            self._blob[c] = (offs, memoryview(arr.buffers()[2]))

    def __contains__(self, term) -> bool:
        return term in self._ranges

    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self):
        return iter(self._ranges)

    def keys(self):
        return self._ranges.keys()

    def get(self, term, default=None):
        if term not in self._ranges:
            return default
        return self[term]

    def __getitem__(self, term) -> list[dict]:
        rows = self._cache.get(term)
        if rows is not None:
            return rows
        s, e = self._ranges[term]  # KeyError on a miss, like a plain dict
        rows = []
        for i in range(s, e):
            r = {"term": term}
            for c, col in self._scalar.items():
                r[c] = int(col[i])
            for c, (offs, data) in self._blob.items():
                r[c] = data[offs[i]:offs[i + 1]]
            rows.append(r)
        self._cache[term] = rows
        return rows


def _dict_encode(col) -> tuple[np.ndarray, np.ndarray] | None:
    """``(codes int32, categories)`` of a string column (Arrow, or a numpy
    object / unicode array): categories are the distinct values sorted
    ascending, a null gets code -1. ``None`` when the column holds
    anything but strings and nulls."""
    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        try:
            col = pa.array(col)
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            return None
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        return None
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    order = _numpy(pc.array_sort_indices(enc.dictionary))
    rank = np.empty(len(order) + 1, dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    rank[-1] = -1  # the null index -1 stays -1
    codes = rank[_numpy(enc.indices, null=-1)]
    cats = np.empty(len(order), dtype=object)
    cats[:] = enc.dictionary.to_pylist()
    return codes, cats[order]


def _value_codes(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(codes int32, categories)`` of a column that is not
    dictionary-coded: the categories are ``str`` keys (numeric terms
    buckets are keyed ``"2.0"``) sorted as strings; NaN / None get -1."""
    if col.dtype.kind == "f":
        valid = ~np.isnan(col)
    elif col.dtype == object:
        valid = np.not_equal(col, None)
    else:
        valid = np.ones(len(col), dtype=bool)
    vals = col[valid]
    if col.dtype == object:
        vals = vals.astype(str)
    uniq, inv = np.unique(vals, return_inverse=True)
    keys = uniq.astype(str)
    order = np.argsort(keys, kind="stable")
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    codes = np.full(len(col), -1, dtype=np.int32)
    codes[valid] = rank[inv]
    return codes, keys[order]


class DocAttrs(MutableMapping):
    """Per-doc attribute columns by name, in local doc order.

    A string column (every docs-sidecar column but ``dl``, and any later
    column holding only strings and nulls) is stored dictionary-coded:
    ``codes`` int32 into the column's sorted distinct values, -1 for null —
    the ES keyword-field ordinals. Filters and terms-style aggregations
    read the codes (:meth:`coded`, :meth:`codes`). Reading such a column
    by name builds a value view ``np.append(cats, None)[codes]``: object
    pointers to the shared category strings, ``None`` where null, made on
    each read — so no per-doc string objects are kept. Any other column is
    stored as given; its terms codes are computed on first use and kept
    with the column, so replacing or deleting the column drops them.
    """

    def __init__(self):
        self._cols: dict[str, np.ndarray | None] = {}  # None: coded column
        self._codes: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def __setitem__(self, name: str, col) -> None:
        self._codes.pop(name, None)
        arrow = isinstance(col, (pa.Array, pa.ChunkedArray))
        if not arrow:
            col = np.asarray(col)
        enc = _dict_encode(col) if arrow or col.dtype.kind in "OU" else None
        if enc is None:
            self._cols[name] = _numpy(col) if arrow else col
        else:
            self._cols[name] = None
            self._codes[name] = enc

    def __getitem__(self, name: str) -> np.ndarray:
        col = self._cols[name]
        if col is not None:
            return col
        codes, cats = self._codes[name]
        return np.append(cats, None)[codes]

    def __delitem__(self, name: str) -> None:
        del self._cols[name]
        self._codes.pop(name, None)

    def __iter__(self):
        return iter(self._cols)

    def __len__(self) -> int:
        return len(self._cols)

    def __contains__(self, name) -> bool:
        return name in self._cols

    def coded(self, name: str) -> tuple[np.ndarray, np.ndarray] | None:
        """``(codes, cats)`` of a dictionary-coded string column, else
        ``None``."""
        return self._codes[name] if self._cols[name] is None else None

    def codes(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, cats)`` of any column (see :func:`_value_codes`)."""
        c = self._codes.get(name)
        if c is None:
            c = self._codes[name] = _value_codes(self._cols[name])
        return c

    def value(self, name: str, i: int):
        """One doc's value as a Python object (``None`` where null)."""
        col = self._cols[name]
        if col is None:
            codes, cats = self._codes[name]
            c = codes[i]
            return cats[c] if c >= 0 else None
        v = col[i]
        return v.item() if hasattr(v, "item") else v


class Searcher:
    """Holds dictionary + posting chunks (+ doc attributes) for serving.

    One searcher serves the whole index, or one doc-id chunk range of it
    (a doc-range shard, the ES shard topology); a pool of them serves
    replicas, shards or several indexes (:mod:`astrologer_ray.state.pool`).
    """

    def __init__(self, index_dir: str, *, load_docs: bool = True,
                 chunk_range: tuple[int, int] | None = None):
        """``chunk_range=(lo, hi)`` restricts to the docs of chunks
        ``[lo, hi)`` (document-partitioned serving): every loaded doc's
        score is COMPLETE, computed from corpus-global statistics, so
        per-shard top-k lists merge exactly — see
        state/pool.ShardedSearchPool.

        ``load_docs`` loads the docs sidecar into ``doc_attrs``
        (:class:`DocAttrs`): ``dl`` as a numpy array, the string columns
        (``doc_key``, ``repo``, ``path``, ``commit``, ``lang``)
        dictionary-coded once here with ``pyarrow.compute.
        dictionary_encode`` — int32 codes into sorted categories, the ES
        keyword ordinals — so no per-doc string objects are held."""
        from astrologer_ray.pipelines.segments import index_generations

        # generations = base index + any delta segments (pipelines/
        # segments.py) — same layout each; BM25 stats are GLOBAL sums
        gens = index_generations(index_dir)
        self.meta = gens[0][1]
        self.k1 = float(self.meta["k1"])
        self.b = float(self.meta["b"])
        self.N = sum(int(m["n_docs"]) for _, m in gens)
        sum_dl = sum(int(m["sum_dl"]) for _, m in gens)
        self.avgdl = (sum_dl / self.N) if self.N else 0.0
        self.mode = self.meta["mode"]
        self.chunk_range = chunk_range
        # local doc-id space: a doc-range shard only ever touches docs in
        # [doc_lo, doc_hi) — masks/accumulators are sized to the range, and
        # the docs sidecar read below is pruned to it, so per-actor memory
        # shrinks ~1/n_actors instead of staying O(N) per actor
        chunk_bits = int(self.meta.get("chunk_bits", 20))
        if chunk_range is not None:
            self.doc_lo = min(int(chunk_range[0]) << chunk_bits, self.N)
            self.doc_hi = min(int(chunk_range[1]) << chunk_bits, self.N)
        else:
            self.doc_lo, self.doc_hi = 0, self.N
        self.n_local = max(0, self.doc_hi - self.doc_lo)

        filt = None
        if chunk_range is not None:
            filt = (pc.field("chunk_id") >= int(chunk_range[0])) & (
                pc.field("chunk_id") < int(chunk_range[1])
            )
        # thread-pool the per-file reads: zstd decode + IO release the GIL,
        # and the serial file loop was the largest cold-start cost left
        # (~2/3 of actor init on the 1M-doc bench index)
        from concurrent.futures import ThreadPoolExecutor

        def _read_many(paths, **kw):
            if len(paths) <= 1:
                return [_read(p, **kw) for p in paths]
            with ThreadPoolExecutor(min(8, len(paths))) as ex:
                return list(ex.map(lambda p: _read(p, **kw), paths))

        # docs sidecar first: the allocator keeps the string columns'
        # transient encode memory, and the postings load below reuses it
        # instead of raising the process's peak RSS. Every searcher reads
        # the local docs' lengths (``self.dl``, int64 by local id): the
        # BM25 norm that every posting's weight gathers, stored once per
        # doc. With ``load_docs`` the same array is ``doc_attrs["dl"]``.
        cols = ["doc_id", "dl"]
        if load_docs:
            cols += ["doc_key", "repo", "path", "commit", "lang"]
        dfiles = [
            p for gdir, _ in gens
            for p in sorted(glob.glob(os.path.join(gdir, "docs", "*.parquet")))
        ]
        dfilt = None
        if chunk_range is not None:
            # prune the sidecar read to this shard's doc range — a
            # doc-range actor must not hold N rows of attributes
            dfilt = (pc.field("doc_id") >= self.doc_lo) & (
                pc.field("doc_id") < self.doc_hi
            )
        docs = pa.concat_tables(
            _read_many(dfiles, columns=cols, filters=dfilt)
        ).sort_by("doc_id")
        if docs.num_rows:
            did = _numpy(docs.column("doc_id"))
            assert did[0] == self.doc_lo and did[-1] == self.doc_hi - 1
        assert docs.num_rows == self.n_local
        self.dl = _numpy(docs.column("dl"))
        self.doc_attrs = DocAttrs()
        if load_docs:
            for c in cols[1:]:
                # strings dictionary-coded; dl shares self.dl
                self.doc_attrs[c] = self.dl if c == "dl" else docs.column(c)
            # ES _update_by_query overlay (pipelines/segments.
            # update_by_query): generation files fold in filename order
            # (later wins), rows pruned to this shard's doc range. A new
            # column becomes a full attr (NaN / None where never set), so
            # updated fields compose with filters/aggs/sort/rank_feature
            # exactly like stored sidecar columns. Overlaid columns are
            # folded as values, then stored (and re-encoded) once.
            work: dict[str, np.ndarray] = {}
            for uf in sorted(
                glob.glob(os.path.join(index_dir, "updates", "*.parquet"))
            ):
                ut = _read(uf, filters=dfilt)
                if not ut.num_rows:
                    continue
                pos = _numpy(ut.column("doc_id")) - self.doc_lo
                for c in ut.column_names:
                    if c == "doc_id":
                        continue
                    f = ut.schema.field(c)
                    numeric = pa.types.is_floating(f.type) or pa.types.is_integer(f.type)
                    if c not in work:
                        work[c] = (
                            self.doc_attrs[c] if c in self.doc_attrs
                            else np.full(self.n_local, np.nan, np.float64)
                            if numeric
                            else np.full(self.n_local, None, object)
                        )
                    tgt = work[c]
                    vals = ut.column(c)
                    if tgt.dtype == object:
                        tgt[pos] = np.asarray(vals, dtype=object)
                    else:
                        tgt[pos] = vals.to_numpy(
                            zero_copy_only=False).astype(tgt.dtype, copy=False)
            for c, arr in work.items():
                self.doc_attrs[c] = arr

        # an explicit column list: an index written before doc lengths
        # left the postings still carries a per-posting dl stream and
        # per-block lists, which this read skips, so both formats load
        # through the same path. The term-hash ``shard`` column that the
        # build writes has no reader here.
        post_cols = [c for c in (POSTINGS_SCHEMA_POS if self.meta.get(
            "positions") else POSTINGS_SCHEMA).names if c != "shard"]
        tables = []
        for gdir, _ in gens:
            gt = _read_many(
                sorted(glob.glob(os.path.join(gdir, "postings", "*.parquet"))),
                columns=post_cols, filters=filt,
            )
            if not gt:
                continue
            tables.append(pa.concat_tables(gt))
        post = pa.concat_tables(tables) if tables else None

        if post is not None and post.num_rows:
            # a single generation whose buckets were written
            # (term, last_doc_id)-sorted needs NO load-time sort: terms are
            # hash-partitioned (one bucket each), so per-term chunk runs
            # are already contiguous and doc-ordered in the bucket concat —
            # skipping the sort is the largest cold-start saving per actor.
            # Multi-generation concat breaks contiguity (the same term
            # appears once per generation), so it still sorts.
            if len(gens) > 1 or not gens[0][1].get("postings_term_sorted"):
                # (term, last_doc_id) — NOT chunk_id: generations' doc-id
                # ranges are disjoint ascending, but a boundary chunk can be
                # split across two generations (same chunk_id twice per term)
                order = [("term", "ascending"), ("last_doc_id", "ascending")]
                post = post.sort_by(order).combine_chunks()
        # columnar chunk metadata + lazy per-term dict views: actor
        # cold-start no longer pays O(vocab × chunks) Python objects
        self.postings = _ChunkStore(post)

        dt = pa.concat_tables(_read_many(
            [p for gdir, _ in gens
             for p in sorted(glob.glob(os.path.join(gdir, "dict", "*.parquet")))],
            columns=["term", "df", "cf"],
        ))
        terms = dt.column("term")
        df, cf = _numpy(dt.column("df")), _numpy(dt.column("cf"))
        if len(gens) > 1:
            # per-generation dictionaries: global df/cf are the sums, per
            # term in first-appearance order
            enc = terms.combine_chunks().dictionary_encode()
            terms, idx = enc.dictionary, _numpy(enc.indices)
            sums = np.zeros((2, len(terms)), np.int64)
            np.add.at(sums[0], idx, df)
            np.add.at(sums[1], idx, cf)
            df, cf = sums
        terms = terms.to_pylist()
        self.df = dict(zip(terms, df.tolist()))
        self.cf = dict(zip(terms, cf.tolist()))

        # tombstone deletes (pipelines/segments.delete_by_query — the ES
        # _delete_by_query-between-merges model): deleted docs are masked
        # out of every result path at serving time, while index stats
        # (N, avgdl, df) intentionally keep counting them until a rebuild
        # — exactly ES semantics before a segment merge expunges deletes.
        self.deleted: np.ndarray | None = None
        delf = sorted(glob.glob(os.path.join(index_dir, "deletes", "*.parquet")))
        if delf:
            dd = pa.concat_tables([_read(p, columns=["doc_id"]) for p in delf])
            ids = np.unique(_numpy(dd["doc_id"]).astype(np.int64))
            ids = ids[(ids >= self.doc_lo) & (ids < self.doc_hi)]
            if len(ids):
                self.deleted = ids  # GLOBAL ids, limited to this doc range

        from collections import OrderedDict

        self._impact_lru: OrderedDict[str, tuple] = OrderedDict()
        self._impact_lru_vals = 0


    # value views of the sidecar string columns (None without load_docs)
    doc_key = property(lambda self: self.doc_attrs.get("doc_key"))
    doc_repo = property(lambda self: self.doc_attrs.get("repo"))
    doc_path = property(lambda self: self.doc_attrs.get("path"))
    doc_lang = property(lambda self: self.doc_attrs.get("lang"))

    def _apply_deletes(self, allowed: np.ndarray | None) -> np.ndarray | None:
        """Fold the tombstones into a candidate mask (local id space).
        ``allowed`` is mutated in place when present, so only the code
        that just built it may pass it: a fresh ``filter_mask`` result,
        never a live mask that other calls share (:meth:`_live_mask`)."""
        if self.deleted is None:
            return allowed
        if allowed is None:
            allowed = np.ones(self.n_local, dtype=bool)
        allowed[self.deleted - self.doc_lo] = False
        return allowed

    # decoded-impacts LRU cache: a term's weights are query-independent,
    # and Zipf head terms (df ~ N) recur constantly — without the cache
    # every such query re-decodes ~N varbyte postings. Capacity counts
    # stored weights: a sparse entry's postings, a dense entry's n_local
    IMPACT_LRU_VALS = 32_000_000  # ~512 MB ceiling

    def _term_entry(self, t: str
                    ) -> tuple[np.ndarray | None, np.ndarray, float, int]:
        """One term's cached ``(ids, w, ub, n)``: its ``n`` local postings
        and their max weight ``ub``, the term's exact MaxScore upper bound.
        Sparse: ``ids`` are the local ids ascending and ``w`` their BM25
        weights. Dense, once ``2 * n >= n_local`` (a float64 per local doc
        is then no larger than an int64 id plus a float64 weight per
        posting): ``ids`` is None and ``w`` holds every local doc's weight,
        0.0 where the term is absent — every posting's weight is positive
        (idf > 0, tf >= 1), so ``w > 0`` is exactly the posting set."""
        ent = self._impact_lru.get(t)
        if ent is not None:
            self._impact_lru.move_to_end(t)
            return ent
        from astrologer_ray.functions.codec import decode_chunk

        parts = [decode_chunk(row) for row in self.postings[t]]
        ids, tfs = (parts[0] if len(parts) == 1 else
                    (np.concatenate([p[0] for p in parts]),
                     np.concatenate([p[1] for p in parts])))
        if self.doc_lo:
            # cache LOCAL ids once at decode time so every query-time
            # gather indexes the range-sized arrays directly
            ids = ids - self.doc_lo
        w = bm25_term_weight(
            idf(self.N, int(self.df[t])), tfs.astype(np.float64),
            self.dl[ids].astype(np.float64), self.avgdl, self.k1, self.b,
        )
        if 2 * len(ids) >= self.n_local:
            lo, ub = float(w.min()), float(w.max())
            if not lo > 0.0:
                raise ValueError(
                    f"term {t!r} has a posting weight {lo} <= 0: a dense "
                    "entry's w > 0 hit test would drop that posting")
            dw = np.zeros(self.n_local)
            dw[ids] = w
            ent = (None, dw, ub, len(ids))
        else:
            ent = (ids, w, float(w.max()), len(ids))
        n = len(ent[1])
        while self._impact_lru and self._impact_lru_vals + n > self.IMPACT_LRU_VALS:
            _, old = self._impact_lru.popitem(last=False)
            self._impact_lru_vals -= len(old[1])
        if n <= self.IMPACT_LRU_VALS:
            self._impact_lru[t] = ent
            self._impact_lru_vals += n
        return ent

    @staticmethod
    def _sparse(ent) -> tuple[np.ndarray, np.ndarray]:
        """A term entry's ``(local ids ascending, weights)``; a dense
        entry's is built per call and never cached."""
        ids, w = ent[0], ent[1]
        if ids is None:
            ids = np.flatnonzero(w)
            w = w[ids]
        return ids, w

    def _term_contribution(self, t: str) -> tuple[np.ndarray, np.ndarray]:
        return self._sparse(self._term_entry(t))

    @staticmethod
    def _check_boosts(boosts) -> None:
        """ES rejects non-positive boosts; so do we — a negative boost
        would turn a term's MaxScore upper bound into a lower bound and
        break the exactness of the pruned path."""
        if boosts:
            for t, b in boosts.items():
                if not float(b) > 0.0:
                    raise ValueError(f"boost for {t!r} must be > 0, got {b}")

    def _after_mask(self, cand: np.ndarray, cs: np.ndarray, after) -> np.ndarray:
        """Deep pagination: keep docs strictly AFTER the (score, doc_id)
        cursor in (score desc, doc_id asc) order — the reference's
        paging-token model (search_after, es/indices.go paging sort)."""
        a_s, a_d = float(after[0]), int(after[1])
        return (cs < a_s) | ((cs == a_s) & (cand + self.doc_lo > a_d))

    def _topk(self, cand: np.ndarray, cs: np.ndarray, k: int
              ) -> list[tuple[int, float]]:
        """The k best of local ids ``cand`` scored ``cs``, as global
        ``(doc_id, score)`` in (score desc, doc_id asc) order."""
        if len(cand) == 0 or k <= 0:
            return []
        kk = min(k, len(cand))
        # cheap pre-cut before the exact (score desc, doc_id asc) sort:
        # keep everything not below the k-th score so boundary ties
        # survive (a NaN score — a function_score can make one — sorts
        # last and survives, as in the full sort)
        if len(cand) > 4 * kk:
            keep = ~(cs < cs[np.argpartition(-cs, kk - 1)[kk - 1]])
            cand, cs = cand[keep], cs[keep]
        order = np.lexsort((cand, -cs))[:kk]
        lo = self.doc_lo
        return [(int(cand[i]) + lo, float(cs[i])) for i in order]

    def _clauses(self, qterms, should_terms=None, min_should_match=0,
                 boosts=None):
        """A query's scored terms in the oracle's order — must terms, then
        the remaining should terms, each sorted — as ``(terms, ents,
        bsts, must, msm)``: ``(term, is_should)`` pairs, their cached
        entries and boosts (None: unboosted), whether must terms were
        asked for, and how many should terms a match needs."""
        sterms = sorted(set(should_terms or ()) - set(qterms))
        terms = ([(t, False) for t in qterms if t in self.postings]
                 + [(t, True) for t in sterms if t in self.postings])
        ents = [self._term_entry(t) for t, _ in terms]
        bsts = [float(boosts[t]) if boosts and t in boosts else None
                for t, _ in terms]
        msm = max(min_should_match, 0 if qterms else 1) if should_terms else 0
        return terms, ents, bsts, bool(qterms), msm

    def _score(self, q, cand, allowed, after
               ) -> tuple[np.ndarray, np.ndarray]:
        """Score local ids ``cand`` (ascending; None: the whole local
        range) under every term of clauses ``q`` (:meth:`_clauses`) and
        return the matching ``(cand, scores)`` within ``allowed`` and
        after the ``after`` cursor. Each term adds its weight, or +0.0,
        to every candidate in term order — the oracle's sum, bit for bit:
        a dense term by direct index, a sparse one by a ``searchsorted``
        gather (a scatter when scoring the whole range)."""
        terms, ents, bsts, must, msm = q
        if not terms:
            return np.empty(0, np.int64), np.empty(0)
        whole = cand is None
        if not whole and allowed is not None:
            cand = cand[allowed[cand]]
        n = self.n_local if whole else len(cand)
        cs = np.zeros(n)
        keep = np.zeros(n, bool) if must else np.ones(n, bool)
        cnt = np.zeros(n, np.int32) if msm else None
        for (_, is_should), (ids, w, _, _), b in zip(terms, ents, bsts):
            if ids is None:
                g = w if whole else w[cand]
                hit = g > 0
                cs += g if b is None else g * b
            elif whole:
                hit = np.zeros(n, bool)
                hit[ids] = True
                cs[ids] += w if b is None else w * b
            else:
                pos = ids.searchsorted(cand)
                np.minimum(pos, len(ids) - 1, out=pos)
                hit = ids[pos] == cand
                cs += (w[pos] if b is None else w[pos] * b) * hit
            if not is_should:
                keep |= hit
            elif cnt is not None:
                cnt += hit
        if cnt is not None:
            keep &= cnt >= msm
        if whole:
            if allowed is not None:
                keep &= allowed
            cand = np.flatnonzero(keep)
            cs = cs[cand]
        else:
            cand, cs = cand[keep], cs[keep]
        if after is not None:
            keep = self._after_mask(cand, cs, after)
            cand, cs = cand[keep], cs[keep]
        return cand, cs

    def _matches(self, terms, allowed, boosts=None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Every doc matching any of ``terms`` within ``allowed``, as
        ``(local ids ascending, BM25 scores)`` — the scored candidate set
        before any top-k cut."""
        qterms = sorted(set(terms))
        return self._score(self._clauses(qterms, boosts=boosts), None,
                           allowed, None)

    def _score_matches(self, match, terms, filter
                       ) -> tuple[np.ndarray, np.ndarray]:
        """A positional match set ``match`` (local ids ascending, every
        doc holding every one of ``terms``) among the live docs matching
        ``filter``, scored by the BM25 sum of the unique ``terms`` — the
        same sum, in the same sorted-term order, as :meth:`search`."""
        return self._score(self._clauses(sorted(set(terms))),
                           np.asarray(match, dtype=np.int64),
                           self._live_mask(filter), None)

    def _search_maxscore(self, qterms, k, allowed, should_terms=None,
                         min_should_match=0, after=None, boosts=None,
                         strategy="auto"):
        """Exact term-level MaxScore top-k (module docstring). The
        essential terms choose the candidates: the union of their postings,
        or the whole local range — always for "taat", never for "wand",
        and for "auto" exactly when an essential term is dense (its
        postings already cover half the range, and a union would need a
        sort). Scoring the whole range scores every match, so that round
        needs no cut check."""
        q = self._clauses(qterms, should_terms, min_should_match, boosts)
        terms, ents, bsts = q[:3]
        if not terms:
            return []
        ubs = [ub if b is None else ub * b for (_, _, ub, _), b in zip(ents, bsts)]
        # essential terms are a prefix of the highest-bound-first order;
        # rest[e] bounds the score of any doc outside the first e terms'
        # postings (summed smallest first, then the safety factor)
        order = sorted(range(len(terms)), key=lambda i: -ubs[i])
        rest = np.cumsum([0.0] + [ubs[i] for i in order[::-1]])[::-1] * _UB_SAFETY
        lens = np.cumsum([ents[i][3] for i in order])
        # a k-th score needs k candidates: start with at least k postings
        n_ess = min(int(np.searchsorted(lens, k)) + 1, len(terms))
        while True:
            ess = [ents[i] for i in order[:n_ess]]
            if strategy == "taat" or (
                    strategy == "auto" and any(e[0] is None for e in ess)):
                return self._topk(*self._score(q, None, allowed, after), k)
            ids = [self._sparse(e)[0] for e in ess]
            cand = ids[0] if n_ess == 1 else np.unique(np.concatenate(ids))
            cand, cs = self._score(q, cand, allowed, after)
            if n_ess == len(terms):
                return self._topk(cand, cs, k)
            if len(cs) < k:  # no k-th score yet: double the essential set
                n_ess = min(2 * n_ess, len(terms))
                continue
            kth = np.partition(cs, len(cs) - k)[len(cs) - k]
            if rest[n_ess] < kth:
                return self._topk(cand, cs, k)
            # jump to the smallest set the current k-th score would accept
            # (a larger k-th score might have needed fewer terms, but a
            # long query then takes a few rounds, not one per term)
            n_ess = max(n_ess + 1, int(np.argmax(rest < kth)))

    def add_runtime_field(self, name: str, fn) -> None:
        """ES *runtime field*: a doc attribute computed at query time from
        the loaded sidecar columns — ``fn`` receives the ``doc_attrs``
        mapping (numpy arrays, local doc order) and returns the new array.
        Computed ONCE per searcher/actor and stored like a sidecar column
        (dictionary-coded when it holds strings); afterwards it composes
        with every filter/agg/sort exactly like a stored attribute.
        Requires ``load_docs=True``."""
        if not self.doc_attrs:
            raise ValueError("runtime fields require load_docs=True")
        arr = np.asarray(fn(self.doc_attrs))
        if len(arr) != self.n_local:
            raise ValueError(
                f"runtime field {name!r} produced {len(arr)} values "
                f"for {self.n_local} docs"
            )
        self.doc_attrs[name] = arr

    def _require(self, name: str) -> None:
        if name not in self.doc_attrs:
            raise ValueError(
                f"doc attribute {name!r} requires load_docs=True "
                f"(have: {sorted(self.doc_attrs)})"
            )

    def _attr_codes(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(codes int32, categories)`` of a doc attribute, the input of
        every terms-style aggregation and of collapse: categories are
        sorted ascending (numeric attributes: their ``str`` keys, sorted
        as strings), so code order is bucket-key order; a doc without a
        value (None / NaN) has code -1 and is never counted. String
        attributes are stored this way; others are encoded on first use
        and kept with the column (``DocAttrs.codes``)."""
        self._require(name)
        return self.doc_attrs.codes(name)

    def _attr(self, name: str) -> np.ndarray:
        """A doc attribute's values (string attributes: a value view over
        their codes, built per call — hot paths read ``_attr_codes``)."""
        self._require(name)
        return self.doc_attrs[name]

    def _attr_value(self, name: str, i: int):
        """One doc's attribute value (local id ``i``) as a Python object."""
        self._require(name)
        return self.doc_attrs.value(name, i)

    def _any_term_mask(self, terms) -> np.ndarray:
        """Doc mask of the docs holding at least one of the exact index
        ``terms`` (posting-list membership; local doc-id space, index
        ``mask[doc_id - self.doc_lo]``), from the cached impact entries: a
        dense entry's ``w > 0`` is its posting set."""
        mask = np.zeros(self.n_local, dtype=bool)
        for t in terms:
            if t in self.postings:
                ids, w, _, _ = self._term_entry(t)
                if ids is None:
                    mask |= w > 0
                else:
                    mask[ids] = True
        return mask

    @staticmethod
    def _fmt_field_value(v) -> str:
        if isinstance(v, (int, np.integer)):
            return f"{int(v):012d}"
        return str(v)

    def _term_array(self) -> np.ndarray:
        """Sorted array of this searcher's loaded index terms (lazy, cached)
        — the dictionary scan backing prefix expansion."""
        arr = getattr(self, "_sorted_terms", None)
        if arr is None:
            arr = np.sort(np.array(list(self.postings.keys()), dtype=object))
            self._sorted_terms = arr
        return arr

    def expand_prefix(self, prefix: str, max_terms: int | None = None) -> list[str]:
        """Index terms starting with ``prefix`` (ES ``prefix`` query
        expansion). Matches are contiguous in the sorted dictionary:
        binary-search to the first, scan while the prefix holds. With
        ``max_terms`` the highest-df expansions win (the ES
        ``max_expansions`` analog); None = exact (no cap), which is what
        the filter predicates use so they stay oracle-comparable."""
        if not prefix:
            raise ValueError("empty prefix")
        arr = self._term_array()
        lo = int(np.searchsorted(arr, prefix, side="left"))
        hi = lo
        n = len(arr)
        while hi < n and str(arr[hi]).startswith(prefix):
            hi += 1
        terms = [str(t) for t in arr[lo:hi]]
        if max_terms is not None and len(terms) > max_terms:
            terms = sorted(terms, key=lambda t: (-self.df.get(t, 0), t))[:max_terms]
        return terms

    def _text_term_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(terms, lengths) for ANALYZED-text dictionary entries only
        (keyword-field ``field\\x1evalue`` postings excluded), sorted —
        the scan set for fuzzy/wildcard expansion. Lazy, cached."""
        cached = getattr(self, "_text_terms", None)
        if cached is None:
            arr = self._term_array()
            keep = np.fromiter(
                (FIELD_SEP not in t for t in arr), dtype=bool, count=len(arr)
            )
            terms = arr[keep]
            lens = np.fromiter(
                (len(t) for t in terms), dtype=np.int32, count=len(terms)
            )
            cached = (terms, lens)
            self._text_terms = cached
        return cached

    @staticmethod
    def _levenshtein_all(query: str, terms: np.ndarray,
                         lens: np.ndarray) -> np.ndarray:
        """Exact Levenshtein distance from ``query`` to every term,
        vectorized ACROSS terms: the candidate set becomes one fixed-width
        UTF-32 matrix (numpy ``U`` dtype is already a codepoint matrix —
        no per-string Python), and each DP row update is pure array math.
        The insert recurrence new[j]=min(cand[j], new[j-1]+1) is a prefix
        scan: with g[j]=new[j]-j it collapses to g=cummin(cand[j]-j), so
        the whole row is O(1) numpy calls. Total: len(query) vector steps
        over an (M, Lmax) matrix."""
        m = len(terms)
        if m == 0:
            return np.zeros(0, dtype=np.int32)
        lmax = int(lens.max())
        # numpy 'U' storage is fixed-width UTF-32 -> zero-padded codepoints
        mat = np.asarray(terms, dtype=f"U{lmax}").view(np.uint32).reshape(m, lmax)
        qcodes = np.frombuffer(query.encode("utf-32-le"), dtype=np.uint32)
        idx = np.arange(lmax + 1, dtype=np.int32)
        dp = np.broadcast_to(idx, (m, lmax + 1)).copy()
        gcol = np.empty((m, 1), dtype=np.int32)
        for i, qc in enumerate(qcodes, 1):
            cand = np.minimum(dp[:, :-1] + (mat != qc), dp[:, 1:] + 1)
            gcol[:] = i
            g = np.minimum.accumulate(
                np.hstack([gcol, cand - idx[1:]]), axis=1
            )
            dp = g + idx
        return dp[np.arange(m), lens]

    def expand_fuzzy(self, term: str, max_edits: int = 1,
                     prefix_length: int = 0,
                     max_terms: int | None = None) -> list[str]:
        """Analyzed-text index terms within Levenshtein distance
        ``max_edits`` of ``term`` (ES ``fuzzy`` query expansion; the exact
        term, distance 0, is included). ``prefix_length`` requires that
        many leading chars to match exactly (the ES knob that keeps the
        scan cheap); ``max_terms`` keeps the highest-df expansions
        (``max_expansions`` analog). Candidates are pre-filtered by the
        length window |len-len(term)| <= max_edits before the DP."""
        if not term:
            raise ValueError("empty fuzzy term")
        terms, lens = self._text_term_table()
        cand = np.abs(lens - len(term)) <= max_edits
        if prefix_length > 0:
            pre = term[:prefix_length]
            lo = int(np.searchsorted(terms, pre, side="left"))
            # prefix-sharing terms are contiguous in the sorted dictionary
            hi = lo
            n = len(terms)
            while hi < n and str(terms[hi]).startswith(pre):
                hi += 1
            inwin = np.zeros(len(terms), dtype=bool)
            inwin[lo:hi] = True
            cand &= inwin
        sub_terms, sub_lens = terms[cand], lens[cand]
        dist = self._levenshtein_all(term, sub_terms, sub_lens)
        out = [str(t) for t in sub_terms[dist <= max_edits]]
        if max_terms is not None and len(out) > max_terms:
            out = sorted(out, key=lambda t: (-self.df.get(t, 0), t))[:max_terms]
        return out

    def expand_wildcard(self, pattern: str,
                        max_terms: int | None = None) -> list[str]:
        """Analyzed-text index terms matching an ES ``wildcard`` pattern
        (``*`` = any run, ``?`` = one char). Translated to SQL-LIKE and
        matched over the dictionary with one Arrow ``match_like`` kernel —
        the same semantics an oracle's ``LIKE`` sees."""
        if not pattern.strip("*?"):
            raise ValueError("wildcard pattern must have literal characters")
        like = (
            pattern.replace("\\", "\\\\").replace("%", "\\%")
            .replace("_", "\\_").replace("*", "%").replace("?", "_")
        )
        terms, _lens = self._text_term_table()
        hit = np.asarray(
            pc.match_like(pa.array(terms, type=pa.string()), like)
        )
        out = [str(t) for t in terms[hit]]
        if max_terms is not None and len(out) > max_terms:
            out = sorted(out, key=lambda t: (-self.df.get(t, 0), t))[:max_terms]
        return out

    def expand_regexp(self, pattern: str,
                      max_terms: int | None = None) -> list[str]:
        """Analyzed-text index terms fully matching ``pattern`` (ES
        ``regexp`` query expansion: ANCHORED, the whole term must match).
        One Arrow RE2 kernel over the dictionary — the same dialect and
        anchoring DuckDB's ``regexp_full_match`` oracle applies."""
        if not pattern:
            raise ValueError("empty regexp pattern")
        terms, _lens = self._text_term_table()
        hit = np.asarray(pc.match_substring_regex(
            pa.array(terms, type=pa.string()), f"^(?:{pattern})$"
        ))
        out = [str(t) for t in terms[hit]]
        if max_terms is not None and len(out) > max_terms:
            out = sorted(out, key=lambda t: (-self.df.get(t, 0), t))[:max_terms]
        return out

    def suggest(self, term: str, k: int = 5, max_edits: int = 2,
                prefix_length: int = 0) -> list[dict]:
        """Term suggester (ES ``suggest``): dictionary corrections for a
        (possibly misspelled) input term, ordered by (edit distance asc,
        df desc, term asc), exact matches excluded — served entirely from
        the dictionary, no postings decode."""
        terms, lens = self._text_term_table()
        cand = np.abs(lens - len(term)) <= max_edits
        if prefix_length > 0:
            starts = np.asarray(pc.starts_with(
                pa.array(terms[cand], type=pa.string()), term[:prefix_length]
            ))
            idxs = np.flatnonzero(cand)
            cand = np.zeros(len(terms), dtype=bool)
            cand[idxs[starts]] = True
        sub_terms, sub_lens = terms[cand], lens[cand]
        dist = self._levenshtein_all(term, sub_terms, sub_lens)
        keep = (dist <= max_edits) & (dist > 0)
        rows = [
            {"term": str(t), "distance": int(d), "df": int(self.df.get(t, 0))}
            for t, d in zip(sub_terms[keep], dist[keep])
        ]
        rows.sort(key=lambda r: (r["distance"], -r["df"], r["term"]))
        return rows[:k]

    def suggest_phrase(self, text: str, k: int = 3, max_edits: int = 1,
                       max_candidates: int = 3, error_prob: float = 0.5,
                       collate: bool = False) -> list[dict]:
        """Phrase suggester (ES ``suggest.phrase``): whole-phrase
        corrections for a multi-token input, built from per-token term-
        suggester candidates and ranked by a smoothed unigram language
        model — a documented simplification of ES's stupid-backoff
        bigram model (same candidate generator, same shape):

        ``score(phrase) = sum_t log10((df(t)+1) / (N+|V|)) +
        n_corrections * log10(error_prob)``

        so higher-df corrections win and every correction pays the
        ``error_prob`` penalty (ES's candidate-generator likelihood).
        The identity phrase is excluded like ES excludes the input.
        ``collate=True`` keeps only phrases with at least one exact
        phrase match in this index (ES's collate query; needs an index
        built with positions). Candidate space is bounded:
        ``max_candidates`` corrections per token, full cartesian product
        only across tokens that HAVE candidates."""
        import itertools
        import math

        toks = tokenize(text, mode=self.mode)
        if not toks:
            return []
        # LM vocabulary = analyzed-text dictionary only (keyword-field
        # namespaced entries are not words)
        vocab = max(1, len(self._text_term_table()[0]))
        denom = float(self.N + vocab)

        def logp(t: str) -> float:
            return math.log10((self.df.get(t, 0) + 1) / denom)

        per_tok: list[list[str]] = []
        for t in toks:
            cands = [t]
            cands += [r["term"]
                      for r in self.suggest(t, k=max_candidates,
                                            max_edits=max_edits)]
            per_tok.append(cands)
        seen = set()
        out = []
        for combo in itertools.product(*per_tok):
            if combo == tuple(toks) or combo in seen:
                continue
            seen.add(combo)
            n_corr = sum(1 for a, b in zip(combo, toks) if a != b)
            score = (sum(logp(t) for t in combo)
                     + n_corr * math.log10(error_prob))
            out.append({"text": " ".join(combo), "score": score,
                        "tokens": list(combo)})
        if collate:
            out = [r for r in out
                   if self.phrase_search(r["tokens"], k=1)]
        out.sort(key=lambda r: (-r["score"], r["text"]))
        for r in out:
            r.pop("tokens")
        return out[:k]

    def filter_mask(self, f) -> np.ndarray:
        """Boolean doc mask for an ES-style predicate (the reference's main
        query shape: bool.must of term filters,
        /root/reference/es.postman_collection.json:135,180,258).

        Supported predicates::

          {"term": {attr: value}}          sidecar attribute equality
          {"exists": attr}                 attr non-null and non-empty
          {"range": {attr: {"gte"|"gt"|"lte"|"lt": bound, ...}}}
                                           sidecar attribute range (the
                                           reference's other ubiquitous
                                           filter: date/amount ranges,
                                           /root/reference/es/adapter.go
                                           range counts + histogram ranges)
          {"field_term": {field: value}}   keyword-field posting (index-served)
          {"match": term}                  analyzed-text posting (index-served)
          {"prefix": "pre"}                any analyzed-text term starting
                                           with "pre" (dictionary expansion,
                                           index-served — ES prefix query)
          {"fuzzy": {"value": t, "max_edits": d}}
                                           any analyzed-text term within
                                           Levenshtein d of t (ES fuzzy)
          {"wildcard": "pat*ern"}          any analyzed-text term matching
                                           the ES wildcard pattern
          {"regexp": "pat+ern"}            any analyzed-text term fully
                                           matching the regex (ES regexp)
          {"field_prefix": {field: "pre"}} keyword-field value prefix
          {"attr_prefix": {attr: "pre"}}   sidecar attribute starts-with
          {"ids": [doc_id, ...]}           explicit doc-id membership (ES
                                           ids query; ids outside this
                                           searcher's range are ignored)
          {"script": {"source": ..., "params": {...}}}
                                           painless predicate over
                                           doc['x'].value sidecar attrs
                                           (ES script query, vectorized)
          {"bool": {"must": [...], "must_not": [...], "should": [...]}}

        Masks are in LOCAL doc-id space (``mask[doc_id - self.doc_lo]``),
        sized to this searcher's doc range.
        """
        if not (isinstance(f, dict) and len(f) == 1):
            raise ValueError(f"filter must be a single-key dict, got {f!r}")
        kind, arg = next(iter(f.items()))
        if kind in ("term", "exists", "attr_prefix"):
            ((attr, val),) = ((arg, None),) if kind == "exists" \
                else arg.items()
            self._require(attr)
            coded = self.doc_attrs.coded(attr)
            if coded is not None:
                return self._coded_mask(kind, val, *coded)
            col = self.doc_attrs[attr]
        if kind == "term":
            dt = col.dtype
            if isinstance(val, str) and np.issubdtype(dt, np.number):
                # terms-agg recursion scopes sub-aggs with the bucket's
                # stringified key; numpy `int_col == "42"` is all-False,
                # so compare in the column's own dtype
                try:
                    val = dt.type(val)
                except ValueError:
                    val = float(val)
            return col == val
        if kind == "exists":
            return (col != None) & (col != "")  # noqa: E711 — elementwise
        if kind == "script":
            # ES script query (filter context): a painless predicate over
            # doc['x'].value sidecar attrs, vectorized — && / || split at
            # paren depth (precedence-safe), atoms eval as numpy
            from astrologer_ray.functions import painless

            src = arg["source"] if isinstance(arg, dict) else arg
            params = (arg.get("params") or {}) if isinstance(arg, dict) \
                else {}
            docs = {a: np.asarray(self._attr(a), dtype=np.float64)
                    for a in painless.doc_refs(painless.translate(src))}
            out = painless.evaluate_predicate(
                src, params=params, docs=docs, what="script filter")
            return np.broadcast_to(
                np.asarray(out, dtype=bool), (self.n_local,)).copy()
        if kind == "range":
            ((attr, bounds),) = arg.items()
            col = self._attr(attr)
            m = np.ones(len(col), dtype=bool)
            ops = {"gte": np.greater_equal, "gt": np.greater,
                   "lte": np.less_equal, "lt": np.less}
            for op, bound in bounds.items():
                if op not in ops:
                    raise ValueError(f"unknown range op {op!r}: gte|gt|lte|lt")
                m &= ops[op](col, bound)
            return m
        if kind == "field_term":
            ((field, val),) = arg.items()
            return self._any_term_mask(
                [field + FIELD_SEP + self._fmt_field_value(val)])
        if kind == "match":
            return self._any_term_mask([str(arg)])
        if kind == "prefix":
            # FIELD_SEP terms are the keyword-field namespace, not text
            return self._any_term_mask(
                t for t in self.expand_prefix(str(arg)) if FIELD_SEP not in t)
        if kind == "fuzzy":
            if isinstance(arg, str):
                arg = {"value": arg}
            return self._any_term_mask(self.expand_fuzzy(
                arg["value"],
                max_edits=int(arg.get("max_edits", 1)),
                prefix_length=int(arg.get("prefix_length", 0)),
                max_terms=arg.get("max_terms"),
            ))
        if kind == "wildcard":
            return self._any_term_mask(self.expand_wildcard(str(arg)))
        if kind == "regexp":
            return self._any_term_mask(self.expand_regexp(str(arg)))
        if kind == "field_prefix":
            ((field, val),) = arg.items()
            return self._any_term_mask(
                self.expand_prefix(field + FIELD_SEP + str(val)))
        if kind == "attr_prefix":
            col = pa.array(col, type=pa.string())
            return np.asarray(
                pc.fill_null(pc.starts_with(col, str(val)), False)
            )
        if kind == "ids":
            return self._ids_mask(arg)
        if kind == "bool":
            m = np.ones(self.n_local, dtype=bool)
            for sub in arg.get("must", []):
                m &= self.filter_mask(sub)
            for sub in arg.get("must_not", []):
                m &= ~self.filter_mask(sub)
            should = arg.get("should", [])
            if should:
                sm = np.zeros(self.n_local, dtype=bool)
                for sub in should:
                    sm |= self.filter_mask(sub)
                m &= sm
            return m
        raise ValueError(f"unknown filter kind {kind!r}")

    def _ids_mask(self, ids) -> np.ndarray:
        """Doc mask of the global doc ids ``ids``; ids outside this
        searcher's range are ignored."""
        m = np.zeros(self.n_local, dtype=bool)
        li = np.asarray([int(v) for v in ids], dtype=np.int64) - self.doc_lo
        m[li[(li >= 0) & (li < self.n_local)]] = True
        return m

    @staticmethod
    def _coded_mask(kind: str, val, codes: np.ndarray,
                    cats: np.ndarray) -> np.ndarray:
        """``term`` / ``exists`` / ``attr_prefix`` over a dictionary-coded
        column: the matching categories are one run of the sorted
        categories, found by bisection, so the per-doc work is one or two
        int32 compares."""
        if kind == "exists":  # non-null and non-empty; "" sorts first
            return codes >= (1 if len(cats) and cats[0] == "" else 0)
        if kind == "term":
            if val is None:
                return codes == -1
            i = bisect.bisect_left(cats, val) if isinstance(val, str) else 0
            if not (i < len(cats) and cats[i] == val):
                return np.zeros(len(codes), dtype=bool)
            return codes == i
        # attr_prefix: truncating to len(val) keeps the sort order, so the
        # values starting with val are the run [lo, hi)
        val = str(val)
        lo = bisect.bisect_left(cats, val)
        hi = bisect.bisect_right(cats, val, lo, key=lambda c: c[:len(val)])
        return (codes >= lo) & (codes < hi)

    def _lang_filter_mask(self, lang: str | None, filter) -> np.ndarray | None:
        """``_live_mask`` of ``filter`` and, when given, the ``lang=``
        term filter of ``search`` / ``search_synonyms``."""
        if lang is not None:
            if "lang" not in self.doc_attrs:
                raise ValueError("lang filter requires load_docs=True")
            lf = {"term": {"lang": lang}}
            if isinstance(filter, np.ndarray):
                return self.filter_mask(lf) & filter
            filter = lf if filter is None else {"bool": {"must": [lf, filter]}}
        return self._live_mask(filter)

    def count(self, filter=None) -> int:
        """Number of docs in this searcher's range matching ``filter``
        (all of them when None); doc-range shard counts sum exactly."""
        if filter is None:
            return self.n_local - (
                0 if self.deleted is None else len(self.deleted)
            )
        return int(np.count_nonzero(self._live_mask(filter)))

    def field_lookup(self, filter, decorate: bool = False) -> list[dict]:
        """Exact doc listing for a filter — index/sidecar-served, no scan."""
        m = self._apply_deletes(self.filter_mask(filter))
        ids = np.flatnonzero(m) + self.doc_lo
        return self._format([(int(d), 0.0) for d in ids], decorate)

    def agg_terms(self, attr: str, k: int = 10, filter=None) -> list[tuple]:
        """Terms aggregation over a doc attribute, optionally filtered —
        the ES filtered-aggregation twin. Top-k by (count desc, value asc);
        docs without a value are not counted."""
        counts, cats = self._code_counts(attr, self._live_mask(filter))
        nz = np.flatnonzero(counts)  # only values present under the filter
        # nz ascends, and so do the categories: a stable sort by count
        # desc leaves ties in value order
        order = nz[np.argsort(-counts[nz], kind="stable")[:k]]
        return [(str(cats[i]), int(counts[i])) for i in order]

    def _live_mask(self, filter) -> np.ndarray | None:
        """Mask of the live docs matching ``filter`` (local id space);
        None when there is neither a filter nor a tombstone (every doc).

        Every ``filter=`` argument that reaches this method may also be a
        boolean array: a live mask computed before, tombstones folded in
        (the DSL adapter computes one per request and ranks, counts and
        aggregates within it). It is returned as it is. The result is
        read, never mutated, by every caller: it may be shared."""
        if isinstance(filter, np.ndarray):
            return filter
        return self._apply_deletes(
            self.filter_mask(filter) if filter is not None else None)

    @staticmethod
    def _gather(col: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """``col[mask]``: numpy's boolean gather slows down with the
        number of true/false runs in the mask, ``compress`` costs a scan
        plus the selected values; on numpy 1.26 (x86-64) they cross near
        91 % set."""
        if 10 * np.count_nonzero(mask) > 9 * len(mask):
            return col[mask]
        return col.compress(mask)

    def _code_counts(self, attr: str, mask: np.ndarray | None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Per-category doc counts of ``attr`` over the docs in ``mask``
        (None: all docs), and the categories. Code -1 (no value) is
        never counted."""
        codes, cats = self._attr_codes(attr)
        if mask is not None:
            codes = self._gather(codes, mask)
        return np.bincount(codes + 1, minlength=len(cats) + 1)[1:], cats

    def search(
        self,
        terms: list[str],
        k: int = 10,
        lang: str | None = None,
        filter=None,
        decorate: bool = False,
        strategy: str = "auto",
        should_terms: list[str] | None = None,
        min_should_match: int = 0,
        after: tuple[float, int] | None = None,
        boosts: dict[str, float] | None = None,
        min_score: float | None = None,
    ) -> list[dict]:
        """Exact top-k BM25 by term-level MaxScore over cached impacts.
        ``strategy`` picks the candidate set of each round: "auto" scores
        the essential terms' posting union, or the whole local range once
        a dense term is essential; "wand" always the union; "taat" always
        the whole range. All three are rank- and score-identical to the
        oracle.

        ``after=(score, doc_id)`` returns the k docs strictly AFTER that
        cursor in (score desc, doc_id asc) order — ES ``search_after``
        deep pagination, the reference's paging-token model (the index is
        page-walked by sort key, /root/reference/es/indices.go:26-27).
        Stateless and exact: page N+1's cursor is page N's last hit.

        ``should_terms`` are ES ``bool.should`` clauses in QUERY context
        (es.postman_collection.json:258): they add their BM25 contribution
        to matching candidates' scores but do not create candidates on
        their own — unless ``terms`` is empty, where at least one should
        clause must match (the ES default). ``min_should_match`` requires
        that many should terms per candidate (ES minimum_should_match).

        ``boosts`` maps term -> query-time boost (ES ``term^2.5``): the
        term's BM25 contribution is multiplied by the boost wherever the
        term appears (must or should clause); every strategy stays
        score-identical.

        ``min_score`` (ES ``min_score``) drops hits scoring below the
        threshold. Applying it AFTER top-k selection is exact: scores are
        rank-ordered, so any excluded sub-threshold hit could not have been
        displaced by a doc ranked past k (which scores no higher)."""
        if k <= 0:
            return []
        self._check_boosts(boosts)
        qterms = sorted(set(terms))
        allowed = self._lang_filter_mask(lang, filter)

        if strategy not in ("auto", "taat", "wand"):
            raise ValueError(f"unknown strategy {strategy!r}: auto|taat|wand")
        hits = self._search_maxscore(qterms, k, allowed, should_terms,
                                     min_should_match, after, boosts, strategy)
        return self._format(self._min_score_cut(hits, min_score), decorate)

    @staticmethod
    def _min_score_cut(
        hits: list[tuple[int, float]], min_score: float | None
    ) -> list[tuple[int, float]]:
        if min_score is None:
            return hits
        return [(d, s) for d, s in hits if s >= float(min_score)]

    # max token position per doc in the phrase composite key (doc, pos)
    # -> doc * STRIDE + pos fits int64 for doc_id < 2^39
    PHRASE_POS_STRIDE = 1 << 24

    def _phrase_occurrences(self, t: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-OCCURRENCE (local_doc, token_position) arrays for one term
        of a positional index (one entry per appearance, not per doc)."""
        from astrologer_ray.functions.codec import (
            decode_chunk,
            decode_chunk_positions,
        )

        docs_parts, pos_parts = [], []
        for row in self.postings[t]:
            if row.get("pos_bytes") is None:
                raise ValueError(
                    "phrase_search requires an index built with positions=True"
                )
            ids, _tfs = decode_chunk(row)
            pos, occ = decode_chunk_positions(row)
            docs_parts.append(np.repeat(ids, np.diff(occ)))
            pos_parts.append(pos)
        d = np.concatenate(docs_parts) - self.doc_lo
        return d, np.concatenate(pos_parts)

    def phrase_search(
        self, terms: list[str], k: int = 10, filter=None, decorate: bool = False,
    ) -> list[dict]:
        """Top-k docs containing ``terms`` as a CONSECUTIVE token phrase
        (ES ``match_phrase`` analog; requires ``build_index(...,
        positions=True)``).

        Adjacency is an exact set intersection: each term's occurrences
        become composite keys ``doc * STRIDE + (pos - i)``; a key that
        survives all m intersections is a document position where term i
        appears at offset i for every i. Score semantics (documented, what
        the SQL oracle checks): the BM25 sum of the UNIQUE phrase terms'
        contributions on phrase-matching docs — same weight expression and
        (score desc, doc_id asc) order as :meth:`search`.
        """
        terms = list(terms)
        if not terms:
            return []
        keys = self._phrase_match_keys(terms)
        if keys is None or len(keys) == 0:
            return []
        match = np.unique(keys // self.PHRASE_POS_STRIDE)  # local ids, asc
        cand, scores = self._score_matches(match, terms, filter)
        return self._format(self._topk(cand, scores, k), decorate)

    def match_phrase_prefix(
        self, terms: list[str], k: int = 10, max_expansions: int | None = 50,
        filter=None, decorate: bool = False,
    ) -> list[dict]:
        """ES ``match_phrase_prefix``: the fixed ``terms[:-1]`` must occur
        as a consecutive phrase immediately followed by ANY analyzed-text
        term starting with ``terms[-1]`` (dictionary prefix expansion,
        capped at ``max_expansions`` highest-df terms; None = exact).

        Score semantics (documented, SQL-checkable): the BM25 sum of the
        UNIQUE fixed terms' contributions on matching docs — the prefix
        slot gates matching but adds no score — ranked (score desc,
        doc_id asc), same weight expression as :meth:`search`.
        """
        terms = list(terms)
        if len(terms) < 2:
            raise ValueError("match_phrase_prefix needs >= 2 terms "
                             "(use a prefix query for a single term)")
        fixed = terms[:-1]
        keys = self._phrase_match_keys(fixed)
        if keys is None or len(keys) == 0:
            return []
        exp = [t for t in self.expand_prefix(terms[-1],
                                             max_terms=max_expansions)
               if FIELD_SEP not in t and t in self.postings]
        if not exp:
            return []
        stride, m = self.PHRASE_POS_STRIDE, len(fixed)
        off = m  # MUST mirror _phrase_match_keys' shift for the same keys
        comp = []
        for e in exp:
            d, p = self._phrase_occurrences(e)
            if len(p) and int(p.max()) >= stride - off:
                raise ValueError("token position exceeds PHRASE_POS_STRIDE")
            comp.append(d * stride + (p - m + off))
        keys = np.intersect1d(
            keys, np.unique(np.concatenate(comp)), assume_unique=True
        )
        if len(keys) == 0:
            return []
        match = np.unique(keys // stride)  # local ids, ascending
        cand, scores = self._score_matches(match, fixed, filter)
        return self._format(self._topk(cand, scores, k), decorate)

    def match_bool_prefix(
        self, terms: list[str], k: int = 10, max_expansions: int | None = 50,
        filter=None, decorate: bool = False,
    ) -> list[dict]:
        """ES ``match_bool_prefix`` (default OR operator): every analyzed
        token but the last matches as a regular term query; the LAST token
        matches as a dictionary prefix (capped at ``max_expansions``
        highest-df expansions, like :meth:`match_phrase_prefix`).
        Candidates are docs matching ANY clause.

        Score semantics (documented, SQL-checkable): the BM25 sum of the
        UNIQUE full terms present in the doc, plus a constant 1.0 where
        the doc contains >= 1 expansion of the prefix — ES's
        constant_score multi-term rewrite for the prefix clause — ranked
        (score desc, doc_id asc), same weight expression as :meth:`search`.
        """
        terms = list(terms)
        if not terms:
            return []
        full, prefix = terms[:-1], terms[-1]
        exp = [t for t in self.expand_prefix(prefix,
                                             max_terms=max_expansions)
               if FIELD_SEP not in t and t in self.postings]
        allowed = self._live_mask(filter)
        loc, sc = self._matches(full, allowed)
        scores = np.zeros(self.n_local, dtype=np.float64)
        scores[loc] = sc
        hit = self._any_term_mask(exp)
        if allowed is not None:
            hit &= allowed
        scores[hit] += 1.0
        hit[loc] = True
        cand = np.flatnonzero(hit)
        return self._format(self._topk(cand, scores[cand], k), decorate)

    def agg_filters(self, filters: dict) -> list[tuple[str, int]]:
        """ES ``filters`` aggregation: named filter -> matching doc count
        (tombstones applied), name-ascending. Index/sidecar-served."""
        return [(str(name), self.count(f))
                for name, f in sorted(filters.items())]

    def _phrase_match_keys(self, terms: list[str]) -> np.ndarray | None:
        """Composite ``doc * STRIDE + start`` keys of every position where
        ``terms`` occurs as a consecutive phrase (one key per occurrence,
        start shifted by ``len(terms)`` to stay positive); None when a
        phrase term is absent from this searcher's dictionary."""
        if any(t not in self.postings for t in terms):
            return None
        stride = self.PHRASE_POS_STRIDE
        off = len(terms)  # keeps the shifted position strictly positive
        keys = None
        for i, t in enumerate(terms):
            d, p = self._phrase_occurrences(t)
            if len(p) and int(p.max()) >= stride - off:
                raise ValueError("token position exceeds PHRASE_POS_STRIDE")
            ki = d * stride + (p - i + off)
            keys = ki if keys is None else np.intersect1d(
                keys, ki, assume_unique=True
            )
            if len(keys) == 0:
                return keys
        return keys

    def rescore(
        self,
        terms: list[str],
        phrase: list[str],
        k: int = 10,
        window: int = 50,
        weight: float = 2.0,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``rescore``: rerank the top-``window`` BM25 hits with a
        phrase-proximity bonus — ``final = bm25 + weight * pf`` where
        ``pf`` counts CONSECUTIVE occurrences of ``phrase`` (positional
        index). Docs outside the window never re-enter (ES window
        semantics); final order is (combined desc, doc_id asc). Requires
        ``build_index(positions=True)``."""
        hits = self.search(terms, k=window, filter=filter)
        if not hits:
            return []
        pf: dict[int, int] = {}
        keys = self._phrase_match_keys(list(phrase))
        if keys is not None and len(keys):
            docs = keys // self.PHRASE_POS_STRIDE + self.doc_lo
            ud, cnt = np.unique(docs, return_counts=True)
            pf = dict(zip(ud.tolist(), cnt.tolist()))
        rescored = sorted(
            ((h["doc_id"], h["score"] + weight * pf.get(h["doc_id"], 0))
             for h in hits),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        return self._format(rescored, decorate)

    @staticmethod
    def _group_counts(cols: list[np.ndarray]):
        """Shared multi-column group-count kernel: lexsort ascending by
        the column tuple, boundary diff, per-group counts. Returns
        (key_cols_at_starts, counts) — both in ascending key order."""
        if not len(cols) or not len(cols[0]):
            return [np.empty(0, dtype=object) for _ in cols], np.empty(0, np.int64)
        order = np.lexsort(tuple(reversed(cols)))
        cols = [c[order] for c in cols]
        change = np.zeros(len(order), dtype=bool)
        change[0] = True
        for c in cols:
            change[1:] |= c[1:] != c[:-1]
        starts = np.flatnonzero(change)
        counts = np.diff(np.append(starts, len(order)))
        return [c[starts] for c in cols], counts

    def agg_multi_terms(self, attrs: list[str], k: int = 10,
                        filter=None) -> list[tuple]:
        """ES ``multi_terms`` aggregation: buckets keyed by a TUPLE of doc
        attributes, top-k by (count desc, key asc). Same candidate rules
        as every agg (filter DSL + tombstones); a doc without a value for
        any of the attributes is not counted."""
        m = self._live_mask(filter)
        enc = [self._attr_codes(a) for a in attrs]
        codes = [c if m is None else self._gather(c, m) for c, _ in enc]
        has = np.logical_and.reduce([c >= 0 for c in codes])
        # codes ascend with their values, so ascending code tuples are
        # ascending key tuples
        key_cols, counts = self._group_counts([c[has] for c in codes])
        order = np.argsort(-counts, kind="stable")[:k]
        return [(tuple(str(cats[kc[i]]) for kc, (_, cats)
                       in zip(key_cols, enc)), int(counts[i]))
                for i in order]

    def agg_rare_terms(self, attr: str, max_doc_count: int = 1,
                       filter=None) -> list[tuple]:
        """ES ``rare_terms``: attribute values appearing in at most
        ``max_doc_count`` (candidate) docs, ordered (count asc, value
        asc) — the long-tail complement of the terms aggregation."""
        counts, cats = self._code_counts(attr, self._live_mask(filter))
        keep = np.flatnonzero((counts > 0) & (counts <= max_doc_count))
        order = keep[np.argsort(counts[keep], kind="stable")]
        return [(str(cats[i]), int(counts[i])) for i in order]

    def agg_significant_terms(self, attr: str, k: int = 10,
                              filter=None) -> list[tuple]:
        """ES ``significant_terms`` over a doc attribute (the Postman
        "Most Popular Memo Values" body,
        /root/reference/es.postman_collection.json:180): attribute
        values over-represented in the FOREGROUND (docs matching
        ``filter``) versus the BACKGROUND (all live docs), scored with
        the same JLH-flavored ``(fg% - bg%) * (fg% / bg%)`` as
        :func:`astrologer_ray.pipelines.aggs.significant_terms`; only
        values with fg_n > 0, top-k by (score desc, value asc).
        Returns ``(value, fg_n, bg_n, score)`` tuples."""
        live = self._live_mask(None)
        fg_m = self._live_mask(filter)
        bg_full, cats = self._code_counts(attr, live)
        fg_full, _ = self._code_counts(attr, fg_m)
        # set sizes count every doc of the set, valued or not (ES
        # subset/superset sizes); buckets count only docs with a value
        bg_total = self.n_local if live is None else int(live.sum())
        fg_total = self.n_local if fg_m is None else int(fg_m.sum())
        if fg_total == 0 or bg_total == 0:
            return []
        nz = np.flatnonzero(fg_full)  # only values with fg_n > 0
        fg_counts = fg_full[nz]
        # every fg value exists in bg (fg is a subset of bg rows)
        bg_of_fg = bg_full[nz]
        fg_pct = fg_counts / fg_total
        bg_pct = bg_of_fg / bg_total
        score = (fg_pct - bg_pct) * (fg_pct / bg_pct)
        # nz ascends with the values: a stable sort keeps value-asc ties
        order = np.argsort(-score, kind="stable")[:k]
        return [(str(cats[nz[i]]), int(fg_counts[i]), int(bg_of_fg[i]),
                 float(score[i])) for i in order]

    def knn(self, field: str, query_vector, k: int = 10,
            num_candidates: int | None = None, filter=None,
            decorate: bool = False) -> list[dict]:
        """ES top-level ``knn`` search over a vector doc attribute
        (a 2-D ``(n_local, dim)`` sidecar or runtime field): exact
        cosine similarity against ``query_vector``, top-k by (score
        desc, doc_id asc). ``num_candidates`` is accepted for ES
        request-shape parity; the local search is exact, so it only
        caps the candidate pool like ES's per-shard parameter."""
        v = np.asarray(self._attr(field), dtype=np.float64)
        if v.ndim != 2:
            v = np.stack(v)
        q = np.asarray(query_vector, dtype=np.float64)
        m = self._live_mask(filter)
        sims = v @ q
        norms = np.linalg.norm(v, axis=1) * np.linalg.norm(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = np.where(norms > 0, sims / norms, -np.inf)
        if m is not None:
            sims = np.where(m, sims, -np.inf)
        pool = len(sims) if num_candidates is None \
            else min(num_candidates, len(sims))
        cand = np.argpartition(-sims, min(pool, len(sims)) - 1)[:pool] \
            if pool < len(sims) else np.arange(len(sims))
        cand = cand[np.isfinite(sims[cand])]
        order = np.lexsort((cand, -sims[cand]))[:k]
        return self._format(
            [(int(cand[i]) + self.doc_lo, float(sims[cand[i]]))
             for i in order], decorate)

    def search_boosting(
        self,
        terms: list[str],
        negative,
        negative_boost: float = 0.5,
        k: int = 10,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``boosting`` query: positive BM25 hits whose docs also match
        the ``negative`` filter-DSL clause are demoted by
        ``negative_boost`` (0 < nb < 1) — they stay in the result set,
        just ranked down. Exact: every match is scored, then the
        demotion factor, then (score desc, doc_id asc) top-k."""
        if not (0.0 < float(negative_boost) < 1.0):
            raise ValueError(
                f"negative_boost must be in (0, 1), got {negative_boost}"
            )
        if k <= 0:
            return []
        cand, s = self._matches(terms, self._live_mask(filter))
        if len(cand) == 0:
            return []
        s = np.where(self.filter_mask(negative)[cand],
                     s * float(negative_boost), s)
        return self._format(self._topk(cand, s, k), decorate)

    def search_pinned(
        self,
        terms: list[str],
        pinned: list[int],
        k: int = 10,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``pinned`` query: the given doc ids come first IN THE GIVEN
        ORDER (existing, tombstone-free docs only, each carrying its
        organic BM25 score — 0.0 when it doesn't match the query), then
        organic hits excluding the pinned ids, k total."""
        if k <= 0:
            return []
        organic = self.search(terms, k=k + len(pinned), filter=filter)
        qterms = sorted(set(terms))
        contribs = [self._term_contribution(t) for t in qterms
                    if t in self.postings]
        pin_set = set()
        out: list[tuple[int, float]] = []
        for d in pinned:
            local = int(d) - self.doc_lo
            if not (0 <= local < self.n_local) or d in pin_set:
                continue
            if self.deleted is not None and int(d) in self.deleted:
                continue
            pin_set.add(d)
            # the pinned doc's ORGANIC score, computed directly (it may
            # rank far below the organic top-k): per-term contribution
            # lookups in sorted-term order — float-identical to search
            s = 0.0
            for tids, w in contribs:
                pos = int(np.searchsorted(tids, local))
                if pos < len(tids) and tids[pos] == local:
                    s += float(w[pos])
            out.append((int(d), s))
        for h in organic:
            if len(out) >= k:
                break
            if h["doc_id"] not in pin_set:
                out.append((h["doc_id"], h["score"]))
        return self._format(out[:k], decorate)

    def search_dis_max(
        self,
        queries: list[list[str]],
        tie_breaker: float = 0.0,
        k: int = 10,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``dis_max`` (and the scoring core of ``multi_match``
        best_fields): each sub-query is BM25-scored independently; a doc's
        combined score is its BEST sub-query score plus ``tie_breaker``
        times the sum of its other matching sub-queries' scores. Exact:
        every match of each sub-query is scored into dense local
        accumulators (same per-shard cost envelope as ``search_boosting``),
        then (score desc, doc_id asc) top-k."""
        if not (0.0 <= float(tie_breaker) <= 1.0):
            raise ValueError(
                f"tie_breaker must be in [0, 1], got {tie_breaker}"
            )
        if k <= 0 or not queries:
            return []
        best = np.zeros(self.n_local, dtype=np.float64)
        total = np.zeros(self.n_local, dtype=np.float64)
        seen = np.zeros(self.n_local, dtype=bool)
        allowed = self._live_mask(filter)
        for terms in queries:
            loc, sc = self._matches(terms, allowed)
            np.maximum.at(best, loc, sc)
            total[loc] += sc
            seen[loc] = True
        cand = np.flatnonzero(seen)
        score = best[cand] + float(tie_breaker) * (total[cand] - best[cand])
        return self._format(self._topk(cand, score, k), decorate)

    def search_synonyms(
        self,
        groups: list[list[str]],
        k: int = 10,
        lang: str | None = None,
        filter=None,
        min_group_match: int = 1,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``match`` over a field analyzed with a ``synonym`` /
        ``synonym_graph`` token filter — Lucene ``SynonymQuery``
        semantics: a synonym set scores as ONE blended pseudo-term whose
        term frequency in a doc is the SUM of the members' tfs and whose
        docFreq is the MAX of the members' dfs, so a doc is not rewarded
        for matching many spellings of the same concept and idf reflects
        the set's most common member. Groups then combine like the terms
        of an OR ``match``: a candidate matches at least
        ``min_group_match`` groups and sums its group contributions;
        ties break (score desc, doc_id asc).

        Exact TAAT over dense local accumulators (tf must be blended
        BEFORE the BM25 saturation, so the per-term cached weight arrays
        cannot be reused — each member's postings are decoded raw).
        Exact on a single searcher and over doc-range shards: tf sums
        are per-doc-local and df/N are global.
        """
        if k <= 0 or not groups:
            return []
        if min_group_match < 1:
            raise ValueError("min_group_match must be >= 1")
        from astrologer_ray.functions.codec import decode_chunk

        allowed = self._lang_filter_mask(lang, filter)

        tf_buf = np.zeros(self.n_local, dtype=np.float64)
        scores = np.zeros(self.n_local, dtype=np.float64)
        nmatch = np.zeros(self.n_local, dtype=np.int32)
        for group in groups:
            members = sorted(
                {t for t in group if t in self.postings}
            )
            # blended docFreq over ALL members in the dictionary (absent
            # members contribute df=0, exactly like Lucene's per-segment
            # SynonymQuery stats)
            df_eff = max(
                (int(self.df.get(t, 0)) for t in set(group)), default=0
            )
            if not members or df_eff <= 0:
                continue
            part_ids = []
            for t in members:
                for row in self.postings[t]:
                    ids, tfs = decode_chunk(row)
                    if self.doc_lo:
                        ids = ids - self.doc_lo
                    tf_buf[ids] += tfs
                    part_ids.append(ids)
            uids = (np.unique(np.concatenate(part_ids))
                    if len(part_ids) > 1 else part_ids[0])
            w = bm25_term_weight(
                idf(self.N, df_eff), tf_buf[uids],
                self.dl[uids].astype(np.float64), self.avgdl, self.k1, self.b,
            )
            scores[uids] += w
            nmatch[uids] += 1
            tf_buf[uids] = 0.0  # group-local; reset for the next group
        cand = np.flatnonzero(nmatch >= min_group_match)
        if allowed is not None:
            cand = cand[allowed[cand]]
        return self._format(self._topk(cand, scores[cand], k), decorate)

    def search_constant_score(
        self, filter, boost: float = 1.0, k: int = 10, decorate: bool = False
    ) -> list[dict]:
        """ES ``constant_score``: every doc matching the filter-DSL clause
        scores exactly ``boost`` (no BM25); ties break doc_id ascending, so
        the result is the first k live matching docs by id."""
        if k <= 0:
            return []
        mask = self._live_mask(filter)  # None = ES match_all
        loc = (np.arange(min(k, self.n_local)) if mask is None
               else np.flatnonzero(mask)[:k])
        return self._format(
            [(int(i) + self.doc_lo, float(boost)) for i in loc], decorate
        )

    def agg_adjacency_matrix(self, filters: dict) -> list[tuple]:
        """ES ``adjacency_matrix``: doc counts for every named filter and
        every pairwise intersection (keys joined ``a&b`` in sorted order,
        the ES key format). Masks compose from the filter DSL and respect
        tombstones; empty intersections are omitted (ES behavior)."""
        names = sorted(filters)
        masks = {n: self._live_mask(filters[n]) for n in names}
        out = []
        for i, a in enumerate(names):
            c = int(masks[a].sum())
            if c:
                out.append((a, c))
            for b in names[i + 1:]:
                c2 = int((masks[a] & masks[b]).sum())
                if c2:
                    out.append((f"{a}&{b}", c2))
        out.sort()
        return out

    def function_score(
        self,
        terms: list[str],
        k: int = 10,
        *,
        decay_attr: str,
        origin: float,
        scale: float,
        decay: float = 0.5,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``function_score`` with a gauss decay multiplier:
        ``final = bm25 * exp(-(|attr - origin|^2) / (2*sigma^2))`` with
        ``sigma^2 = scale^2 / (2*ln(1/decay))`` (the ES parameterization —
        a doc at distance ``scale`` from ``origin`` scores ``decay`` of
        its BM25). Exact: every match is scored, then decayed and
        reranked (combined desc, doc_id asc); decay can promote low-BM25
        docs, so the full candidate set is enumerated — at 10^9 docs use
        the multiply-mode MaxScore bound instead (decay <= 1 keeps the BM25
        upper bound valid). Requires ``load_docs=True``."""
        import math

        if k <= 0:
            return []
        if not (0.0 < float(decay) < 1.0):
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        if not float(scale) > 0.0:
            raise ValueError(f"scale must be > 0, got {scale}")
        sigma2 = (float(scale) ** 2) / (2.0 * math.log(1.0 / float(decay)))
        v = np.asarray(self._attr(decay_attr), dtype=np.float64)
        cand, s = self._matches(terms, self._live_mask(filter))
        factor = np.exp(-(np.abs(v[cand] - float(origin)) ** 2)
                        / (2.0 * sigma2))
        return self._format(self._topk(cand, s * factor, k), decorate)

    _FVF_MODIFIERS = {
        # ES field_value_factor modifiers (log* are base 10, ln* natural)
        "none": lambda v: v,
        "log": lambda v: np.log10(v),
        "log1p": lambda v: np.log10(v + 1.0),
        "log2p": lambda v: np.log10(v + 2.0),
        "ln": lambda v: np.log(v),
        "ln1p": lambda v: np.log1p(v),
        "ln2p": lambda v: np.log(v + 2.0),
        "square": lambda v: v * v,
        "sqrt": lambda v: np.sqrt(v),
        "reciprocal": lambda v: 1.0 / v,
    }

    def _function_value(self, fn: dict, li: np.ndarray) -> np.ndarray:
        """One function_score function -> its per-candidate value array
        (before the function's ``weight`` multiplier). ``li`` are LOCAL
        candidate indices."""
        import math

        if "gauss" in fn:
            ((attr, g),) = fn["gauss"].items()
            origin, scale = float(g["origin"]), float(g["scale"])
            decay = float(g.get("decay", 0.5))
            sigma2 = (scale ** 2) / (2.0 * math.log(1.0 / decay))
            dv = np.asarray(self._attr(attr), dtype=np.float64)[li]
            return np.exp(-(np.abs(dv - origin) ** 2) / (2.0 * sigma2))
        if "field_value_factor" in fn:
            spec = fn["field_value_factor"]
            v = np.asarray(self._attr(spec["field"]), dtype=np.float64)[li]
            if "missing" in spec:
                v = np.where(np.isnan(v), float(spec["missing"]), v)
            mod = self._FVF_MODIFIERS.get(spec.get("modifier", "none"))
            if mod is None:
                raise NotImplementedError(
                    f"field_value_factor modifier "
                    f"{spec.get('modifier')!r} is not supported")
            return float(spec.get("factor", 1.0)) * mod(v)
        if "script_score" in fn:
            from astrologer_ray.functions import painless

            script = fn["script_score"]["script"]
            src = script["source"] if isinstance(script, dict) else script
            # vectorized painless arithmetic subset: doc['x'].value ->
            # the candidate-sliced attr array, Math.* -> numpy kernels
            expr = painless.translate(src)
            params = (script.get("params") or {}) \
                if isinstance(script, dict) else {}
            docs = {a: np.asarray(self._attr(a), dtype=np.float64)[li]
                    for a in painless.doc_refs(expr)}
            out = painless.evaluate(expr, src, params=params, docs=docs,
                                    what="script_score script")
            return np.broadcast_to(
                np.asarray(out, dtype=np.float64), li.shape).copy()
        # a bare {"weight": w} function contributes the constant 1.0
        # (the weight multiplier is applied by the caller)
        return np.ones(len(li), dtype=np.float64)

    def search_function_score(
        self,
        terms: list[str],
        functions: list[dict],
        k: int = 10,
        *,
        score_mode: str = "multiply",
        boost_mode: str = "multiply",
        max_boost: float | None = None,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``function_score``, the general form: a list of functions
        (``gauss`` decay / ``field_value_factor`` / ``script_score`` over
        the vectorized painless arithmetic subset / bare ``weight``), each
        optionally gated by its own ``filter``, combined across functions
        by ``score_mode`` (multiply / sum / avg [weight-weighted, like ES]
        / max / min) and with the BM25 query score by ``boost_mode``
        (multiply / sum / replace / avg / max / min), with ``max_boost``
        clamping the combined function score first.

        Docs matching NO function keep the neutral function-score 1.0
        (ES behavior). Exact like :meth:`function_score`: functions can
        promote low-BM25 docs, so the full candidate set is enumerated and
        reranked — single-gauss multiply callers wanting the MaxScore bound
        should use :meth:`function_score`. Requires ``load_docs=True``."""
        if k <= 0:
            return []
        li, base = self._matches(terms, self._live_mask(filter))
        if len(li) == 0:
            return []
        n = len(li)
        masks, vals, weights = [], [], []
        for fn in functions:
            if fn.get("filter") is not None:
                m = self._live_mask(fn["filter"])[li]
            else:
                m = np.ones(n, dtype=bool)
            w = float(fn.get("weight", 1.0))
            masks.append(m)
            weights.append(w)
            vals.append(self._function_value(fn, li) * w)
        any_match = np.zeros(n, dtype=bool)
        for m in masks:
            any_match |= m
        if score_mode == "multiply":
            fs = np.ones(n, dtype=np.float64)
            for m, v in zip(masks, vals):
                fs = np.where(m, fs * v, fs)
        elif score_mode == "sum":
            fs = np.zeros(n, dtype=np.float64)
            for m, v in zip(masks, vals):
                fs = np.where(m, fs + v, fs)
        elif score_mode == "avg":
            # ES: weighted average — sum(w_i * f_i) / sum(w_i) over the
            # matching functions (vals already carry the w_i factor)
            num = np.zeros(n, dtype=np.float64)
            den = np.zeros(n, dtype=np.float64)
            for m, v, w in zip(masks, vals, weights):
                num = np.where(m, num + v, num)
                den = np.where(m, den + w, den)
            fs = np.where(den > 0, num / np.where(den > 0, den, 1.0), 1.0)
        elif score_mode in ("max", "min"):
            fill = -np.inf if score_mode == "max" else np.inf
            fs = np.full(n, fill, dtype=np.float64)
            red = np.maximum if score_mode == "max" else np.minimum
            for m, v in zip(masks, vals):
                fs = np.where(m, red(fs, v), fs)
        else:
            raise NotImplementedError(
                f"unsupported score_mode {score_mode!r}")
        fs = np.where(any_match, fs, 1.0)  # no function matched: neutral
        if max_boost is not None:
            fs = np.minimum(fs, float(max_boost))
        if boost_mode == "multiply":
            final = base * fs
        elif boost_mode == "sum":
            final = base + fs
        elif boost_mode == "replace":
            final = fs
        elif boost_mode == "avg":
            final = (base + fs) / 2.0
        elif boost_mode == "max":
            final = np.maximum(base, fs)
        elif boost_mode == "min":
            final = np.minimum(base, fs)
        else:
            raise NotImplementedError(
                f"unsupported boost_mode {boost_mode!r}")
        return self._format(self._topk(li, final, k), decorate)

    def search_rank_feature(
        self,
        terms: list[str],
        k: int = 10,
        *,
        feature_attr: str,
        pivot: float = 1.0,
        boost: float = 1.0,
        function: str = "saturation",
        scaling_factor: float = 1.0,
        exponent: float = 1.0,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``rank_feature`` query: an ADDITIVE clause contributing,
        per candidate with feature value ``x`` (ES's three functions):

        - ``saturation`` (default): ``boost * x / (x + pivot)``
        - ``log``: ``boost * ln(scaling_factor + x)``
        - ``sigmoid``: ``boost * x^exp / (x^exp + pivot^exp)``

        — the
        "boost-by-pagerank/freshness/length" pattern. Additive, unlike
        :meth:`function_score`'s multiplier, exactly as ES composes a
        rank_feature clause inside bool.should. Exact: the full BM25
        candidate set is scored then re-ranked (the additive bound
        bm25_ub + boost keeps MaxScore viable at 10^9 docs; this
        implementation enumerates candidates). Negative feature values
        clamp to 0 (ES requires non-negative features). Requires
        ``load_docs=True``."""
        if k <= 0:
            return []
        if function in ("saturation", "sigmoid") and not float(pivot) > 0.0:
            raise ValueError(f"pivot must be > 0, got {pivot}")
        if function == "log" and not float(scaling_factor) > 0.0:
            raise ValueError(
                f"scaling_factor must be > 0, got {scaling_factor}")
        if function == "sigmoid" and not float(exponent) > 0.0:
            raise ValueError(f"exponent must be > 0, got {exponent}")
        if function not in ("saturation", "log", "sigmoid"):
            raise ValueError(f"unknown rank_feature function {function!r}")
        if not float(boost) > 0.0:
            raise ValueError(f"boost must be > 0, got {boost}")
        v = np.asarray(self._attr(feature_attr), dtype=np.float64)
        cand, s = self._matches(terms, self._live_mask(filter))
        # a missing sidecar attr is NaN — ES treats missing rank_feature
        # values as zero contribution, so clamp NaN to 0 before saturating
        x = np.maximum(np.nan_to_num(v[cand]), 0.0)
        if function == "log":
            contrib = np.log(float(scaling_factor) + x)
        elif function == "sigmoid":
            # the C library's pow per value, as a scalar scorer computes
            # it: numpy's SIMD pow rounds some values one bit differently
            e = float(exponent)
            xe = np.fromiter((v ** e for v in x.tolist()), np.float64, len(x))
            contrib = xe / (xe + float(pivot) ** float(exponent))
        else:
            contrib = x / (x + float(pivot))
        return self._format(
            self._topk(cand, s + float(boost) * contrib, k), decorate)

    def search_distance_feature(
        self,
        terms: list[str],
        k: int = 10,
        *,
        feature_attr: str,
        origin: float,
        pivot: float,
        boost: float = 1.0,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``distance_feature`` query on a numeric/date sidecar attr,
        composed additively inside bool.should (the "boost-by-recency /
        proximity" pattern): each BM25 candidate gains
        ``boost * pivot / (pivot + |x - origin|)`` where ``x`` is the
        doc's attr value. A missing value (NaN) contributes 0 — ES skips
        docs without the field. Exact like :meth:`search_rank_feature`:
        the full candidate set is scored then re-ranked (the
        additive bound bm25_ub + boost keeps MaxScore viable at scale).
        Requires ``load_docs=True``."""
        if k <= 0:
            return []
        if not float(pivot) > 0.0:
            raise ValueError(f"pivot must be > 0, got {pivot}")
        if not float(boost) > 0.0:
            raise ValueError(f"boost must be > 0, got {boost}")
        v = np.asarray(self._attr(feature_attr), dtype=np.float64)
        cand, s = self._matches(terms, self._live_mask(filter))
        contrib = float(boost) * float(pivot) / (
            float(pivot) + np.abs(v[cand] - float(origin)))
        final = s + np.where(np.isnan(contrib), 0.0, contrib)
        return self._format(self._topk(cand, final, k), decorate)

    def span_near(
        self,
        terms: list[str],
        slop: int = 0,
        k: int = 10,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``span_near`` (in-order): docs containing the terms at
        ascending positions ``p1 < p2 < ... < pm`` with total gap
        ``pm - p1 - (m-1) <= slop`` (slop=0 == exact phrase). Served from
        the positional index: candidate docs are the posting-list
        intersection; within each candidate a greedy searchsorted chain
        finds the minimal window per start occurrence (existence-exact).
        Score: BM25 sum of the unique span terms on matching docs —
        :meth:`phrase_search`'s documented contract."""
        terms = list(terms)
        if not terms:
            return []
        if any(t not in self.postings for t in terms):
            return []
        m = len(terms)
        match = self._span_chains(
            terms, m, lambda p1, end, _pl: end - p1 - (m - 1) <= slop)
        cand, scores = self._score_matches(match, terms, filter)
        return self._format(self._topk(cand, scores, k), decorate)

    def _span_chains(self, terms: list[str], m: int, accept) -> np.ndarray:
        """Local ids (ascending) of the docs holding every one of
        ``terms`` where some in-order chain over the first ``m`` terms is
        accepted. Candidates are the intersection of the terms' doc sets;
        within one, each occurrence ``p1`` of ``terms[0]`` starts a greedy
        searchsorted chain (each next term's minimal position after the
        previous one), and ``accept(p1, end, plists)`` judges the chain
        ending at ``end`` (``plists``: the doc's ascending positions per
        term)."""
        occ = {t: self._phrase_occurrences(t) for t in set(terms)}
        cand = None
        for t in set(terms):
            d = np.unique(occ[t][0])
            cand = d if cand is None else np.intersect1d(
                cand, d, assume_unique=True)
        match = []
        for doc in cand:
            plists = []
            for t in terms:
                d, p = occ[t]
                lo = int(np.searchsorted(d, doc, "left"))
                hi = int(np.searchsorted(d, doc, "right"))
                plists.append(p[lo:hi])
            for p1 in plists[0]:
                prev = int(p1)
                for pl in plists[1:m]:
                    j = int(np.searchsorted(pl, prev, "right"))
                    if j >= len(pl):
                        break  # no chain from this start
                    prev = int(pl[j])
                else:
                    if accept(int(p1), prev, plists):
                        match.append(int(doc))
                        break
        return np.asarray(match, dtype=np.int64)

    def span_first(
        self,
        term: str,
        end: int,
        k: int = 10,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``span_first``: docs where the inner span (a single
        ``span_term``) matches within the first ``end`` positions of the
        field — a one-term span at position ``p`` covers ``[p, p+1)``, so
        it matches when ``p + 1 <= end``. Served from the positional
        index, fully vectorized (one boolean mask over the term's
        occurrence array). Score: the term's BM25 contribution on
        matching docs — :meth:`span_near`'s documented contract."""
        if k <= 0 or int(end) <= 0 or term not in self.postings:
            return []
        d, p = self._phrase_occurrences(term)
        match = np.unique(d[p + 1 <= int(end)])
        cand, scores = self._score_matches(match, [term], filter)
        return self._format(self._topk(cand, scores, k), decorate)

    def span_containing(
        self,
        big: list[str],
        little: str,
        slop: int = 0,
        k: int = 10,
        score: str = "big",
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``span_containing`` / ``span_within`` over a ``span_near``
        big span (in-order span_term clauses, ``slop``) and a
        ``span_term`` little: docs where SOME feasible big window
        ``[p1, pm]`` (in order, total gap <= slop) contains a little
        occurrence ``p1 <= p <= pm``. Doc-level existence is identical
        for both queries (they differ in WHICH span they return, not
        which docs match); ``score`` picks the convention — "big" sums
        the big terms' BM25 (span_containing), "little" scores the
        little term (span_within), :meth:`span_near`'s contract.

        Exactness: for a fixed start occurrence ``p1`` the greedy chain
        end ``e_min`` is minimal, and any later last-term occurrence
        ``e' <= p1 + slop + m - 1`` extends it (the greedy intermediates
        stay valid), so the feasible window ends from ``p1`` are exactly
        the last-term occurrences in ``[e_min, p1 + slop + m - 1]`` —
        containment reduces to one searchsorted against the LARGEST such
        end per start."""
        big = list(big)
        if len(big) < 2:
            raise ValueError("span_containing needs a >=2-term big span")
        if k <= 0:
            return []
        terms = big + [little]
        if any(t not in self.postings for t in terms):
            return []
        m = len(big)

        def contains(p1, end, plists):
            bound = p1 + slop + (m - 1)
            if end > bound:
                return False
            # largest feasible window end from this start (>= end, the
            # minimal one, by construction)
            last, lit = plists[m - 1], plists[-1]
            e_max = int(last[int(np.searchsorted(last, bound, "right")) - 1])
            # any little occurrence inside [p1, e_max]?
            lo = int(np.searchsorted(lit, p1, "left"))
            return lo < len(lit) and int(lit[lo]) <= e_max

        match = self._span_chains(terms, m, contains)
        cand, scores = self._score_matches(
            match, big if score == "big" else [little], filter)
        return self._format(self._topk(cand, scores, k), decorate)

    def span_not(
        self,
        include: str,
        exclude: str,
        pre: int = 0,
        post: int = 0,
        k: int = 10,
        filter=None,
        decorate: bool = False,
    ) -> list[dict]:
        """ES ``span_not`` over one-term spans: docs with an occurrence of
        ``include`` at position ``p`` such that NO occurrence of
        ``exclude`` lies within ``[p - pre, p + post]`` (ES ``dist`` sets
        both). One-term spans of distinct terms never overlap, so the
        default ``pre=post=0`` keeps every include occurrence — the
        meaningful use is the "not near" idiom with pre/post > 0. Fully
        vectorized: occurrence arrays are (doc, pos)-sorted, so a
        per-occurrence window test is two searchsorteds on a packed
        ``doc<<32 | pos`` key. Score: ``include``'s BM25 contribution on
        matching docs — :meth:`span_near`'s documented contract."""
        if k <= 0 or include not in self.postings:
            return []
        d_i, p_i = self._phrase_occurrences(include)
        if exclude in self.postings:
            d_e, p_e = self._phrase_occurrences(exclude)
            key_e = d_e.astype(np.int64) * (1 << 32) + p_e.astype(np.int64)
            base = d_i.astype(np.int64) * (1 << 32)
            lo = np.searchsorted(
                key_e, base + np.maximum(p_i.astype(np.int64) - int(pre), 0))
            hi = np.searchsorted(
                key_e, base + p_i.astype(np.int64) + int(post), "right")
            keep = hi == lo  # no exclude occurrence inside the window
        else:
            keep = np.ones(len(d_i), dtype=bool)
        match = np.unique(d_i[keep])
        cand, scores = self._score_matches(match, [include], filter)
        return self._format(self._topk(cand, scores, k), decorate)

    def search_collapse(
        self,
        terms: list[str],
        collapse: str,
        k: int = 10,
        filter=None,
        decorate: bool = False,
        boosts: dict[str, float] | None = None,
    ) -> list[dict]:
        """Top-k BM25 with ES field collapsing: at most ONE hit (the
        best-scoring, doc_id-asc tie-break) per distinct value of the
        ``collapse`` doc attribute — the code-search "one result per repo"
        UX (ES ``collapse`` on the reference's keyword fields).

        Exact: scores every match, takes the per-group argmax,
        then the global (score desc, doc_id asc) top-k of the group
        winners. Requires ``load_docs=True``.
        """
        if k <= 0:
            return []
        codes, _ = self._attr_codes(collapse)
        allowed = self._live_mask(filter)
        self._check_boosts(boosts)
        cand, cs = self._matches(terms, allowed, boosts)
        if len(cand) == 0:
            return []
        # per-group winner: sort candidates best-first, keep the first
        # occurrence of each collapse value's code (docs without a
        # value, code -1, form one group)
        order = np.lexsort((cand, -cs))
        _, first_idx = np.unique(codes[cand[order]], return_index=True)
        winners = order[np.sort(first_idx)][:k]
        lo = self.doc_lo
        return self._format(
            [(int(cand[i]) + lo, float(cs[i])) for i in winners], decorate
        )

    def sort_by_attr(
        self,
        attr: str,
        k: int = 10,
        descending: bool = True,
        filter=None,
        after: tuple | None = None,
    ) -> list[dict]:
        """ES sort-by-field top-k: the reference serves every listing in
        index order (`"sort.field": "paging_token"`,
        /root/reference/es/indices.go:26-27) and ES exposes arbitrary
        field sorts the same way. Order is (attr desc|asc, doc_id asc);
        ``after=(value, doc_id)`` is the ES ``search_after`` cursor for
        this sort — page N+1's cursor is page N's last hit. Requires
        ``load_docs=True``."""
        if k <= 0:
            return []
        col = self._attr(attr)
        m = self._live_mask(filter)
        ids = (np.flatnonzero(m) if m is not None
               else np.arange(self.n_local))
        vals = col[ids]
        if after is not None:
            av, adoc = after
            alocal = int(adoc) - self.doc_lo
            if descending:
                keep = (vals < av) | ((vals == av) & (ids > alocal))
            else:
                keep = (vals > av) | ((vals == av) & (ids > alocal))
            ids, vals = ids[keep], vals[keep]
        if descending:
            # vals asc with doc_id DESC tiebreak, then reversed wholesale
            # -> vals desc, doc_id asc (works for any comparable dtype,
            # including strings where negation is unavailable)
            order = np.lexsort((-ids, vals))[::-1][:k]
        else:
            order = np.lexsort((ids, vals))[:k]
        lo = self.doc_lo
        return [
            {"doc_id": int(ids[i]) + lo, "value": vals[i].item()
             if hasattr(vals[i], "item") else vals[i]}
            for i in order
        ]

    def sort_by_attrs(
        self,
        specs: list[tuple[str, bool]],
        k: int = 10,
        filter=None,
        after: tuple | None = None,
    ) -> list[dict]:
        """Multi-key ES field sort: ``specs`` = ``[(attr, descending),
        ...]`` primary-first, doc_id asc as the final tiebreak. Mixed
        directions over any comparable dtype (strings included) via
        per-key factorization + stable argsort applied last-key-first.
        ``after`` is the ES ``search_after`` cursor for this sort:
        ``(v1, ..., vN, doc_id)``. Requires ``load_docs=True``."""
        if k <= 0 or not specs:
            return []
        m = self._live_mask(filter)
        ids = (np.flatnonzero(m) if m is not None
               else np.arange(self.n_local))
        cols = [self._attr(a)[ids] for a, _ in specs]
        if after is not None:
            *avals, adoc = after
            alocal = int(adoc) - self.doc_lo
            keep = np.zeros(len(ids), dtype=bool)
            tie = np.ones(len(ids), dtype=bool)
            for (attr, desc), av, v in zip(specs, avals, cols):
                later = (v < av) if desc else (v > av)
                keep |= tie & later
                tie &= v == av
            keep |= tie & (ids > alocal)
            ids = ids[keep]
            cols = [v[keep] for v in cols]
        order = np.argsort(ids, kind="stable")  # doc_id asc base order
        for (attr, desc), v in zip(reversed(specs), reversed(cols)):
            # factorize -> integer codes so descending keeps stability
            # (and works for strings, where negation is unavailable)
            _u, codes = np.unique(v[order], return_inverse=True)
            idx = np.argsort(-codes if desc else codes, kind="stable")
            order = order[idx]
        order = order[:k]
        lo = self.doc_lo

        def _item(x):
            return x.item() if hasattr(x, "item") else x

        return [
            {"doc_id": int(ids[i]) + lo,
             "sort": [_item(v[i]) for v in cols]}
            for i in order
        ]

    def agg_composite(
        self,
        sources: list[str],
        size: int = 10,
        after: tuple | None = None,
        filter=None,
    ) -> dict:
        """ES ``composite`` aggregation: multi-source buckets in ascending
        key order, paged with ``after_key`` — the scroll-safe aggregation
        ES recommends for full bucket enumeration. Returns
        ``{"buckets": [(key_tuple, count), ...], "after_key": tuple|None}``;
        feed ``after_key`` back as ``after`` for the next page. Requires
        ``load_docs=True``."""
        m = self._live_mask(filter)
        ids = (np.flatnonzero(m) if m is not None
               else np.arange(self.n_local))
        cols = [self._attr(a)[ids] for a in sources]
        if len(ids) == 0:
            return {"buckets": [], "after_key": None}
        key_cols, counts = self._group_counts(cols)
        n_keys = len(counts)
        if after is not None:
            # keep keys strictly greater than the cursor, lexicographically
            gt = np.zeros(n_keys, dtype=bool)
            eq = np.ones(n_keys, dtype=bool)
            for kc, av in zip(key_cols, after):
                gt |= eq & (kc > av)
                eq &= kc == av
            sel = np.flatnonzero(gt)[:size]
        else:
            sel = np.arange(min(size, n_keys))
        buckets = [
            (
                tuple(kc[i].item() if hasattr(kc[i], "item") else kc[i]
                      for kc in key_cols),
                int(counts[i]),
            )
            for i in sel
        ]
        after_key = buckets[-1][0] if len(buckets) == size else None
        return {"buckets": buckets, "after_key": after_key}

    def search_top_hits(
        self,
        terms: list[str],
        group_attr: str,
        n_hits: int = 3,
        k_groups: int = 10,
        filter=None,
        boosts: dict[str, float] | None = None,
    ) -> list[dict]:
        """ES ``terms`` aggregation with a ``top_hits`` sub-aggregation:
        buckets of ``group_attr`` over the query's matches, ordered
        (matched-doc count desc, value asc), keeping the top ``n_hits``
        hits per bucket by (score desc, doc_id asc) — the "best N results
        per repo/lang" code-search UX. Exact: scores every match.
        Rows: {group, doc_count, doc_id, score, hit_rank}. Requires
        ``load_docs=True``."""
        if k_groups <= 0 or n_hits <= 0:
            return []
        codes, cats = self._attr_codes(group_attr)
        allowed = self._live_mask(filter)
        self._check_boosts(boosts)
        cand, cs = self._matches(terms, allowed, boosts)
        if len(cand) == 0:
            return []
        order = np.lexsort((cand, -cs))  # best-first global
        order = order[codes[cand[order]] >= 0]  # no value: no bucket
        sc, ss = cand[order], cs[order]
        ucodes, inv, cnts = np.unique(
            codes[sc], return_inverse=True, return_counts=True
        )
        # codes ascend with their values: stable count-desc sort
        # leaves ties in value order
        top_buckets = np.argsort(-cnts, kind="stable")[:k_groups]
        # rank within group: stable grouping preserves best-first order
        g_order = np.argsort(inv, kind="stable")
        grp_sorted = inv[g_order]
        first = np.r_[0, np.flatnonzero(np.diff(grp_sorted)) + 1]
        sizes = np.diff(np.r_[first, len(g_order)])
        ranks = np.empty(len(g_order), dtype=np.int64)
        ranks[g_order] = np.arange(len(g_order)) - np.repeat(first, sizes)
        lo = self.doc_lo
        out = []
        for b in top_buckets:
            in_b = np.flatnonzero((inv == b) & (ranks < n_hits))
            for i in in_b:  # in_b ascending == best-first within bucket
                out.append({
                    "group": str(cats[ucodes[b]]),
                    "doc_count": int(cnts[b]),
                    "doc_id": int(sc[i]) + lo,
                    "score": float(ss[i]),
                    "hit_rank": int(ranks[i]) + 1,
                })
        return out

    def more_like_this(
        self,
        text: str,
        k: int = 10,
        max_query_terms: int = 25,
        min_doc_freq: int = 1,
        min_term_freq: int = 1,
        filter=None,
        decorate: bool = False,
        strategy: str = "auto",
    ) -> list[dict]:
        """ES ``more_like_this`` with unindexed ``like`` text
        (es.postman_collection.json query surface analog): tokenize the
        text with the index's analyzer, keep terms present in the
        dictionary with ``tf >= min_term_freq`` and ``df >= min_doc_freq``,
        select the ``max_query_terms`` highest ``tf * idf`` terms
        (ties: term ascending — deterministic, SQL-oracle-able), and run
        them as a regular top-k BM25 query. :meth:`mlt_terms` exposes the
        selection itself.
        """
        terms = self.mlt_terms(text, max_query_terms=max_query_terms,
                               min_doc_freq=min_doc_freq,
                               min_term_freq=min_term_freq)
        if not terms:
            return []
        return self.search(terms, k=k, filter=filter, decorate=decorate,
                           strategy=strategy)

    def mlt_terms(self, text: str, max_query_terms: int = 25,
                  min_doc_freq: int = 1, min_term_freq: int = 1) -> list[str]:
        """The deterministic MLT term selection (see :meth:`more_like_this`)."""
        from collections import Counter

        tf = Counter(tokenize(text, mode=self.mode))
        scored = []
        for t, f in tf.items():
            df_t = self.df.get(t, 0)
            if f < min_term_freq or df_t < min_doc_freq:
                continue
            scored.append((-f * idf(self.N, int(df_t)), t))
        scored.sort()
        return [t for _, t in scored[:max_query_terms]]

    def highlight(self, terms: list[str], k: int = 10, filter=None,
                  **search_kw) -> list[dict]:
        """Per-hit query-term occurrence evidence from the positional index
        (ES ``highlight`` analog, offsets flavor): one row per (hit, query
        term present in the hit) with the occurrence count and the first
        0-based token position. Requires ``build_index(positions=True)``.
        Extra ``search_kw`` (should_terms / min_should_match / ...) pass
        through to :meth:`search` so the highlighted hit set matches the
        query the caller actually ran.
        """
        hits = self.search(terms, k=k, filter=filter, **search_kw)
        all_terms = list(terms) + list(search_kw.get("should_terms") or [])
        uniq = sorted({t for t in all_terms if t in self.postings})
        occ = {t: self._phrase_occurrences(t) for t in uniq}
        out = []
        for h in hits:
            local = h["doc_id"] - self.doc_lo
            for t in uniq:
                d, p = occ[t]
                lo_i = int(np.searchsorted(d, local, "left"))
                hi_i = int(np.searchsorted(d, local, "right"))
                if hi_i > lo_i:
                    out.append({
                        "doc_id": h["doc_id"], "term": t,
                        "n_occ": hi_i - lo_i,
                        "first_pos": int(p[lo_i]),
                    })
        return out

    def explain(self, terms: list[str], k: int = 10, filter=None,
                strategy: str = "auto", **search_kw) -> list[dict]:
        """ES ``_explain`` analog: the per-(hit, term) BM25 contribution
        breakdown for the top-k hits — one row per query term present in
        the hit with its tf, df, and weight (the same ``bm25_term_weight``
        expression the scorer uses, so rows sum to the hit's score
        bit-for-bit in sorted-term order). Extra ``search_kw``
        (should_terms / min_should_match / min_score / after) pass through
        to :meth:`search` so the explained hit set matches the query the
        caller actually ran (the DSL adapter's ``explain: true``)."""
        from astrologer_ray.functions.codec import decode_chunk

        hits = self.search(terms, k=k, filter=filter, strategy=strategy,
                           **search_kw)
        if not hits:
            return []
        boosts = search_kw.get("boosts") or {}
        all_terms = list(terms) + list(search_kw.get("should_terms") or [])
        uniq = sorted({t for t in all_terms if t in self.postings})
        decoded = {}
        for t in uniq:
            parts = [decode_chunk(row) for row in self.postings[t]]
            decoded[t] = (np.concatenate([p[0] for p in parts]),
                          np.concatenate([p[1] for p in parts]))
        out = []
        for h in hits:
            did = h["doc_id"]
            for t in uniq:
                ids, tfs = decoded[t]
                i = int(np.searchsorted(ids, did))
                if i >= len(ids) or ids[i] != did:
                    continue
                df_t = int(self.df[t])
                w = bm25_term_weight(
                    idf(self.N, df_t), float(tfs[i]),
                    float(self.dl[did - self.doc_lo]),
                    self.avgdl, self.k1, self.b,
                )
                if t in boosts:
                    # same product the scorer applies (w * boost when the
                    # term is boosted) so detail rows still sum to score
                    w = w * float(boosts[t])
                out.append({
                    "doc_id": did, "term": t, "tf": int(tfs[i]),
                    "df": df_t, "weight": float(w),
                    "score": float(h["score"]),
                })
        return out

    def _format(self, hits: list[tuple[int, float]], decorate: bool) -> list[dict]:
        results = []
        for rank, (d, s) in enumerate(hits):
            r = {"rank": rank, "doc_id": d, "score": s}
            if decorate and "doc_key" in self.doc_attrs:
                for c in ("doc_key", "repo", "path", "lang"):
                    r[c] = str(self.doc_attrs.value(c, d - self.doc_lo))
            results.append(r)
        return results

    def search_text(self, text: str, k: int = 10, **kw) -> list[dict]:
        return self.search(tokenize(text, mode=self.mode), k=k, **kw)

    def run_dsl(self, body: dict) -> dict:
        """Execute one ES ``_search`` request body against this searcher
        (actor-remotable entry point for :mod:`astrologer_ray.state.dsl` —
        a ``ray.remote(Searcher)`` pool actor serves whole DSL bodies, the
        unit a pool's ``msearch`` sends)."""
        from astrologer_ray.state.dsl import execute_dsl

        return execute_dsl(self, body)


class DSLStage:
    """Actor-pool batch DSL stage: run a Dataset of stored ES ``_search``
    request bodies against one index —
    ``ds.map_batches(DSLStage, fn_constructor_kwargs={"index_dir": ...},
    concurrency=N, batch_size=B)``. The offline query-log evaluation
    job: each actor loads the index ONCE in ``__init__`` (docs sidecar
    included, so aggs/sorts/runtime fields work), then serves whole
    bodies per batch.

    Input rows: (qid:int64, body:string JSON).
    Output rows: (qid, response:string JSON) — one response per body,
    ES-shaped (`execute_dsl`)."""

    def __init__(self, index_dir: str):
        self.searcher = Searcher(index_dir, load_docs=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json

        from astrologer_ray.state.dsl import execute_dsl

        qids, resps = [], []
        for row in batch.to_pylist():
            qids.append(row["qid"])
            resps.append(json.dumps(
                execute_dsl(self.searcher, json.loads(row["body"]))))
        return pa.table({
            "qid": pa.array(qids, pa.int64()),
            "response": pa.array(resps, pa.string()),
        })


class SearchStage:
    """Actor-pool batch query stage: ``map_batches(SearchStage, concurrency=N)``.

    Input rows: (qid:int64, terms:list<string>, k:int64[, lang:string]).
    Output rows: (qid, rank, doc_id, score).
    """

    def __init__(self, index_dir: str, filter=None):
        self.searcher = Searcher(index_dir)
        self.filter = filter

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docs, scores = [], [], [], []
        has_lang = "lang" in batch.column_names
        for row in batch.to_pylist():
            hits = self.searcher.search(
                list(row["terms"]),
                k=int(row.get("k", 10)),
                lang=row.get("lang") if has_lang else None,
                filter=self.filter,
            )
            for h in hits:
                qids.append(row["qid"])
                ranks.append(h["rank"])
                docs.append(h["doc_id"])
                scores.append(h["score"])
        return pa.table(
            {
                "qid": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int64()),
                "doc_id": pa.array(docs, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )
