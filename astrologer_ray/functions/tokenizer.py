"""Code-aware tokenizer: identifiers, camelCase/snake_case splits, lowercase.

The reference indexes exact ``keyword`` terms extracted field-by-field
(/root/reference/es/indices.go:33-38 — every string field is ES ``keyword``)
and relies on Elasticsearch's analyzer+BM25 for anything text-typed. The new
engine generalises that: a code-aware tokenizer produces the exact-term
vocabulary that feeds the posting lists.

Two modes, both deterministic:

- ``code`` (default): raw tokens are identifier-shaped runs
  ``[A-Za-z_][A-Za-z0-9_]*`` or digit runs. Each raw token emits its
  lowercased self plus — when it decomposes — its lowercased camelCase /
  snake_case / digit-boundary parts ("parseHTTPResponse" -> parsehttpresponse,
  parse, http, response). Mirrors how code-search engines index identifiers.
- ``simple``: lowercase ``[a-z0-9]+`` runs only. Chosen because it is exactly
  expressible in ANSI SQL (DuckDB ``regexp_split_to_array(lower(text),
  '[^a-z0-9]+')``), which powers the driver's oracle-SQL correctness gate.

UTF-8 scrub mirrors /root/reference/db/main.go:14-37 and
/root/reference/db/tx_history_row.go:47-48 (invalid runes replaced, NULs
stripped): python ``str`` is already valid unicode, so the scrub strips NUL
and C0 control chars (except \\t \\n \\r). The scrub applies to ``code``
mode only: in ``simple`` mode control chars are token separators, exactly
as in the SQL-oracle split regex (stripping them would join ``a\\x00b``
into one token where SQL yields two), and no length cap applies.

``tokenize``/``token_counts`` are the small reference implementations (used
by the brute-force BM25 oracle and property tests); ``CodeTokenizer`` is the
vectorized batch implementation used in the hot path — a numpy byte-class
run split over the Arrow buffers (or one regex pass per row), pure-numpy
CSR expansion of each raw token into its emitted terms with a cross-batch
token-split cache, and then ONE ``np.sort`` of packed int64 keys ``(term
rank, doc[, position])`` that both counts the postings (runs of equal keys
give tf) and leaves them in the SPIMI partial's row order (terms by
``(term_hash64 % n_buckets, term_hash64)``, docs ascending). Index
builds tokenize through one process-wide tokenizer per mode
(:func:`shared_tokenizer`), so the split cache carries over from one
partition a Ray worker tokenizes to the next, and from one in-process
append to the next, up to ``SPLIT_CACHE_TOKENS`` raw tokens. Only the
list-input path imports pandas
(``pd.factorize`` of the raw tokens), so importing this module for query
analysis does not.
"""

from __future__ import annotations

import itertools
import re
import threading
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MAX_TERM_LEN = 64
# width limit of the packed (term rank, doc[, position]) posting sort keys:
# int64 stays non-negative; a batch whose keys need more is split by doc range
KEY_BITS = 63
# raw tokens a CodeTokenizer's split cache may hold: past it, the cache
# starts fresh before the next batch. About 630 B stay resident per cached
# raw token (its term-id array, the vocabulary entries and term hashes it
# adds), so one process's cache stays near 83 MB plus one batch's growth
SPLIT_CACHE_TOKENS = 1 << 17

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")
_PART_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]+|[a-z]+|[0-9]+")
_SIMPLE_RE = re.compile(r"[a-z0-9]+")
# NUL + C0 control chars except \t \n \r  (reference utf8 scrub analog)
_SCRUB_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")
# leading digit run followed by an identifier: the two raw tokens
# _TOKEN_RE yields for one [A-Za-z0-9_]+ run ("123abc" -> "123","abc")
_DIGIT_PREFIX_RE = re.compile(r"([0-9]+)([A-Za-z_][A-Za-z0-9_]*)")


def scrub_text(s: str) -> str:
    """Strip NUL/control chars (reference: db/main.go:14-37 utf8 scrub)."""
    return _SCRUB_RE.sub("", s)


# token bytes ([A-Za-z0-9_]) as ``bytes.translate`` tables: _WORD_TABLE maps
# each byte to its is-token-char flag (0/1, a valid numpy bool), _NON_WORD
# lists the bytes a delete-translate drops. Bytes >= 0x80 are separators,
# so multi-byte UTF-8 codepoints split tokens (the regex token class is
# ASCII-only)
_WORD_BYTES = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        b"0123456789_")
_WORD_TABLE = bytes(c in _WORD_BYTES for c in range(256))
_NON_WORD = bytes(c for c in range(256) if c not in _WORD_BYTES)


def _has_ctrl_chars(arr: pa.Array) -> bool:
    """True iff any string in ``arr`` contains a scrub-target control char.

    One compare over the raw utf-8 data buffer picks the (rare) bytes below
    32, and only those are checked against \\t \\n \\r (control bytes are
    ASCII, so they can't appear inside multi-byte codepoints). Used to skip
    the scrub's full read+write copy in the overwhelmingly common
    no-control-chars case."""
    if len(arr) == 0:
        return False
    if not pa.types.is_string(arr.type):  # large_string etc.: conservative
        return True
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)
    lo = int(offs[arr.offset])
    hi = int(offs[arr.offset + len(arr)])
    if hi <= lo:
        return False
    b = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[lo:hi]
    c = b[b < 32]
    return bool(((c != 9) & (c != 10) & (c != 13)).any())


def split_token(token: str) -> tuple[str, ...]:
    """Terms emitted for one raw ``code``-mode token (lowercased, capped).

    Always the whole lowered token; plus its parts when it decomposes.
    """
    whole = token.lower()
    parts = []
    for seg in token.split("_"):
        parts.extend(m.group(0).lower() for m in _PART_RE.finditer(seg))
    out: list[str] = []
    if len(whole) <= MAX_TERM_LEN:
        out.append(whole)
    if parts != [whole]:
        out.extend(p for p in parts if len(p) <= MAX_TERM_LEN)
    return tuple(out)


def tokenize(text: str, mode: str = "code") -> list[str]:
    """Reference (non-vectorized) tokenizer; the oracle ground truth."""
    if mode == "simple":
        # No scrub, no cap: must match the SQL oracle split
        # regexp_split_to_array(lower(text), '[^a-z0-9]+') exactly.
        return _SIMPLE_RE.findall(text.lower())
    terms: list[str] = []
    for tok in _TOKEN_RE.findall(scrub_text(text)):
        terms.extend(split_token(tok))
    return terms


def token_counts(text: str, mode: str = "code") -> Counter:
    """term -> tf for one document (reference implementation)."""
    return Counter(tokenize(text, mode))


def analyze(text: str, mode: str = "code") -> dict:
    """ES ``_analyze`` analog: the token stream this engine's analyzer
    emits for ``text``, ES response shape ``{"tokens": [{"token",
    "position", ...}]}``.  ``simple`` mode carries ``start_offset`` /
    ``end_offset`` into the original text (the split is a direct regex
    over the lowered input, so offsets are exact); ``code`` mode emits
    token + position only — the UTF-8 scrub remaps byte offsets, and
    subword splits share their parent token's span, so per-term offsets
    would be misleading rather than merely approximate."""
    if mode == "simple":
        return {"tokens": [
            {"token": m.group(0), "position": i,
             "start_offset": m.start(), "end_offset": m.end(),
             "type": "<ALPHANUM>"}
            for i, m in enumerate(_SIMPLE_RE.finditer(text.lower()))]}
    return {"tokens": [
        {"token": t, "position": i, "type": "<ALPHANUM>"}
        for i, t in enumerate(tokenize(text, mode))]}


class CodeTokenizer:
    """Vectorized batch tokenizer with a cross-batch split cache.

    ``batch_postings(contents, n_buckets, positions, keywords)`` returns a
    batch's postings already in SPIMI partial order, as ``(doc_idx, rank,
    terms, hashes, tfs, dls, pos_flat)``:
      terms    : object[T] the batch's distinct terms, ordered by
                 ``(term_hash64 % n_buckets, term_hash64)``
      hashes   : int64[T]  ``term_hash64`` of each term
      rank     : int64[P]  index into ``terms`` for each posting
      doc_idx  : int32[P]  index into ``contents`` for each posting
      tfs      : int32[P]  term frequency of posting ``i``
      dls      : int64[D]  document length (total emitted terms) per content
      pos_flat : int32[sum(tfs)] with ``positions=True``, else None: the
                 ascending positions of each posting, posting after posting
    Postings are sorted by ``(rank, doc_idx)``. ``batch_counts`` and
    ``batch_counts_coded`` are views of the same result.

    Per-doc results are exactly ``token_counts(content, mode)`` (property
    tested), and do not depend on what the instance tokenized before: its
    state (vocab, term hashes, split cache) only saves re-splitting and
    re-hashing raw tokens it has already seen.
    """

    def __init__(self, mode: str = "code"):
        self.mode = mode
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self._vocab: dict[str, int] = {}
        self._vocab_arr: np.ndarray = np.empty(0, dtype=object)
        self._hash_arr: np.ndarray = np.empty(0, dtype=np.int64)
        # raw token -> np.int64[] of emitted term ids
        self._tok2ids: dict[str, np.ndarray] = {}

    def _term_id(self, term: str) -> int:
        tid = self._vocab.get(term)
        if tid is None:
            tid = len(self._vocab)
            self._vocab[term] = tid
        return tid

    def _ids_for_raw(self, raw: str) -> np.ndarray:
        ids = self._tok2ids.get(raw)
        if ids is None:
            if self.mode == "simple":
                emitted = (raw,)  # uncapped: SQL oracle keeps long tokens
            else:
                # Arrow-path raw runs may carry a leading digit prefix that
                # _TOKEN_RE would have split into its own raw token
                # ("123abc" -> "123", "abc"); the split is context-free per
                # run (a \b can only occur at the run start), so it lives
                # here in the per-unique cache instead of as a full-text
                # regex replace pass over every batch's content
                m = _DIGIT_PREFIX_RE.fullmatch(raw)
                if m is not None:
                    emitted = split_token(m.group(1)) + split_token(m.group(2))
                else:
                    emitted = split_token(raw)
            ids = np.array([self._term_id(t) for t in emitted], dtype=np.int64)
            self._tok2ids[raw] = ids
        return ids

    def _split(self, uniq) -> tuple[list, np.ndarray, np.ndarray]:
        """``(id_arrays, vocab, hashes)``: the term ids each raw token in
        ``uniq`` emits, and the term and ``term_hash64`` arrays those ids
        index. The cache is checked against ``SPLIT_CACHE_TOKENS`` first.
        One lock covers it, so threads sharing this tokenizer split in
        turn; the arrays returned stay valid after the lock is released,
        since a later batch replaces them and never writes into them."""
        with self._lock:
            if len(self._tok2ids) > SPLIT_CACHE_TOKENS:
                self._reset()
            id_arrays = [self._ids_for_raw(u if isinstance(u, str) else str(u))
                         for u in uniq]
            n0 = len(self._vocab_arr)
            if n0 != len(self._vocab):
                # term ids follow dict insertion order: the new terms are
                # the keys past the first n0
                new = list(itertools.islice(self._vocab, n0, None))
                arr = np.empty(len(self._vocab), dtype=object)
                arr[:n0] = self._vocab_arr
                arr[n0:] = new
                self._vocab_arr = arr
                self._hash_arr = np.concatenate(
                    [self._hash_arr, _term_hashes(new)])
            return id_arrays, self._vocab_arr, self._hash_arr

    def batch_counts(self, contents) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(doc_idx, terms, tfs, dls)``: posting ``i`` is ``terms[i]``
        with frequency ``tfs[i]`` in ``contents[doc_idx[i]]``."""
        doc_idx, rank, terms, _hashes, tfs, dls, _pos = self.batch_postings(contents)
        return doc_idx, terms[rank], tfs, dls

    def batch_counts_coded(self, contents, positions: bool = False) -> tuple:
        """``(doc_idx, codes, uniq_terms, tfs, dls)`` with ``terms[i] ==
        uniq_terms[codes[i]]``: :meth:`batch_postings` without the term
        hashes (``codes`` are the term ranks). ``positions=True`` appends
        the posting-grouped position array."""
        doc_idx, rank, terms, _hashes, tfs, dls, pos_flat = self.batch_postings(
            contents, positions=positions)
        out = (doc_idx, rank, terms, tfs, dls)
        return out + (pos_flat,) if positions else out

    def batch_postings(self, contents, n_buckets: int = 1,
                       positions: bool = False, keywords=None) -> tuple:
        """The batch's postings in partial order (see the class docstring).

        ``keywords`` is ``(doc, terms)``, extra postings with tf 1 and no
        ``dls`` share (keyword-field terms: ``doc`` int64 row indices,
        ``terms`` a string array holding no repeated ``(doc, term)``
        pair); with ``positions`` each carries the placeholder position 0,
        so every posting's position count equals its tf, as the postings
        codec requires.

        Counting and ordering is one ``np.sort`` of packed int64 keys
        ``rank << (doc_bits + pos_bits) | doc << pos_bits | position``
        (position only with ``positions``): equal ``(rank, doc)`` runs are
        the postings and their lengths the tfs, and the low bits come out
        as each posting's ascending positions."""
        inv, uniq, doc_of_tok, ndocs = self._raw_tokens(contents)
        id_arrays, vocab_arr, hash_arr = self._split(uniq)
        counts = np.fromiter((len(a) for a in id_arrays), dtype=np.int64,
                             count=len(uniq))
        flat = (np.concatenate(id_arrays) if len(id_arrays)
                else np.empty(0, dtype=np.int64))
        starts = np.cumsum(counts) - counts

        # CSR gather: expand each raw token occurrence into its emitted ids.
        tok_cnt = counts[inv]
        tok_start = starts[inv]
        if not tok_cnt.all():
            # zero-emit occurrences (over-long tokens) would collide in the
            # boundary scatter below — drop them up front (rare path)
            nz = tok_cnt > 0
            tok_cnt, tok_start = tok_cnt[nz], tok_start[nz]
            doc_of_tok = doc_of_tok[nz]
        # gather-index via one scatter + cumsum (2 passes over the emitted
        # stream instead of arange + two np.repeat)
        emit_cum = np.concatenate(([0], np.cumsum(tok_cnt)))
        m = int(emit_cum[-1])
        step = np.ones(m, dtype=np.int64)
        if m:
            step[0] = tok_start[0]
            step[emit_cum[1:-1]] = tok_start[1:] - tok_start[:-1] - tok_cnt[:-1] + 1
        gidx = np.cumsum(step)
        dls = np.bincount(doc_of_tok, weights=tok_cnt,
                          minlength=ndocs).astype(np.int64)

        # term ranks: the batch's distinct terms (content, then keyword)
        # ordered by (bucket, hash) — the per-term work is over the few
        # distinct terms, never over the postings
        present, flat_local = np.unique(flat, return_inverse=True)
        terms = vocab_arr[present]
        hashes = hash_arr[present]
        kw_doc = kw_code = np.empty(0, dtype=np.int64)
        if keywords is not None and len(keywords[0]):
            kw_doc = np.asarray(keywords[0], dtype=np.int64)
            enc = pc.dictionary_encode(keywords[1])
            kw_code = enc.indices.to_numpy().astype(np.int64) + len(terms)
            kw_terms = enc.dictionary.to_numpy(zero_copy_only=False)
            terms = np.concatenate([terms, kw_terms])
            hashes = np.concatenate([hashes, _term_hashes(kw_terms)])
        order = np.argsort(hashes, kind="stable")
        order = order[np.argsort(hashes[order] % n_buckets, kind="stable")]
        rank = np.empty(len(terms), dtype=np.int64)
        rank[order] = np.arange(len(terms), dtype=np.int64)
        kw_rank, flat_rank = rank[kw_code], rank[flat_local]
        rank_bits = max(len(terms) - 1, 0).bit_length()
        dl_cum = np.cumsum(dls) - dls  # each doc's first emit slot

        def sort_range(d0: int, d1: int):
            """``(rank, doc, tf, pos_flat)`` of docs ``[d0, d1)``, sorted
            by ``(rank, doc)``; keys that would pass ``KEY_BITS`` are
            sorted as two doc-range halves and merged."""
            doc_bits = max(d1 - d0 - 1, 0).bit_length()
            pos_bits = 0
            if positions and d1 > d0:
                pos_bits = max(int(dls[d0:d1].max()) - 1, 0).bit_length()
            if rank_bits + doc_bits + pos_bits > KEY_BITS and d1 - d0 > 1:
                mid = (d0 + d1) // 2
                return _merge_by_rank(sort_range(d0, mid), sort_range(mid, d1))
            # content emits of the range: occurrences o0:o1, slots e0:e1
            o0, o1 = np.searchsorted(doc_of_tok, [d0, d1])
            e0, e1 = int(emit_cum[o0]), int(emit_cum[o1])
            doc = doc_of_tok[o0:o1]
            base = (doc - d0) << pos_bits
            if positions:
                # an emit's position is its slot minus its doc's first slot
                base -= dl_cum[doc] - e0
            key = (flat_rank << (doc_bits + pos_bits))[gidx[e0:e1]]
            key += np.repeat(base, tok_cnt[o0:o1])
            if positions:
                key += np.arange(e1 - e0, dtype=np.int64)
            if len(kw_doc):
                sel = (kw_doc >= d0) & (kw_doc < d1)
                key = np.concatenate([key, (kw_rank[sel] << (doc_bits + pos_bits))
                                      | ((kw_doc[sel] - d0) << pos_bits)])
            key.sort()
            pk = key >> pos_bits if pos_bits else key
            # a posting starts where (rank, doc) changes, and at 0 if any
            first = np.flatnonzero(np.concatenate(([len(pk) > 0], pk[1:] != pk[:-1])))
            tf = np.diff(np.append(first, len(pk)))
            pk = pk[first]
            pos = (key & ((1 << pos_bits) - 1)).astype(np.int32) if positions else None
            return pk >> doc_bits, (pk & ((1 << doc_bits) - 1)) + d0, tf, pos

        p_rank, p_doc, tfs, pos_flat = sort_range(0, ndocs)
        return (p_doc.astype(np.int32), p_rank, terms[order], hashes[order],
                tfs.astype(np.int32), dls, pos_flat)

    def _raw_tokens(self, contents):
        """Raw-token occurrences ``(inv, uniq, doc_of_tok, ndocs)``:
        occurrence ``i`` is raw token ``uniq[inv[i]]`` of content
        ``doc_of_tok[i]`` (non-decreasing; every ``uniq`` entry occurs)."""
        if isinstance(contents, (pa.Array, pa.ChunkedArray)):
            if self.mode == "code":
                return self._raw_tokens_arrow(contents)
            # simple mode keeps the Python path: str.lower() (not utf8proc
            # lowercase) is what the SQL-oracle parity contract specifies
            contents = contents.to_pylist()
        ndocs = len(contents)
        raw_lists: list[list[str]] = []
        if self.mode == "simple":
            for s in contents:
                raw_lists.append(_SIMPLE_RE.findall((s or "").lower()))
        else:
            for s in contents:
                raw_lists.append(_TOKEN_RE.findall(scrub_text(s or "")))
        lengths = np.fromiter((len(r) for r in raw_lists), dtype=np.int64, count=ndocs)
        total = int(lengths.sum())
        if total == 0:
            return _no_tokens(ndocs)
        all_raw = np.empty(total, dtype=object)
        pos = 0
        for r in raw_lists:
            all_raw[pos : pos + len(r)] = r
            pos += len(r)

        import pandas as pd

        # hash-based factorize beats sort-based np.unique ~10x on strings
        inv, uniq = pd.factorize(all_raw)
        doc_of_tok = np.repeat(np.arange(ndocs, dtype=np.int64), lengths)
        return inv.astype(np.int64), uniq, doc_of_tok, ndocs

    def _raw_tokens_arrow(self, col):
        """``code``-mode raw tokens straight from Arrow buffers — the
        content strings never materialize as Python objects; every
        token-level pass (scrub, run split, dictionary encode) is a numpy
        or Arrow C kernel. Only the batch's UNIQUE raw tokens cross into
        Python, where the split/vocab caches apply.

        Token-stream equality with ``_TOKEN_RE.findall(scrub_text(s))`` is
        property-tested: runs of ``[A-Za-z0-9_]`` split exactly at a
        leading digit-prefix (``123abc`` -> ``123|abc``, ``a123b`` stays
        whole), which :meth:`_ids_for_raw` applies per unique run.
        """
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ndocs = len(col)
        s = col if col.null_count == 0 else pc.fill_null(col, "")
        # scrub only when control chars actually exist: the detection is a
        # single numpy pass over the raw utf-8 buffer (vs an RE2
        # read+write copy of the whole batch every time)
        if _has_ctrl_chars(s):
            s = pc.replace_substring_regex(
                s, pattern=r"[\x00-\x08\x0b\x0c\x0e-\x1f]", replacement=""
            )
        if not pa.types.is_string(s.type):  # large_string: regex fallback
            toks = pc.split_pattern_regex(s, pattern="[^A-Za-z0-9_]+")
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            lens_all = pc.list_value_length(toks).to_numpy()
            flat = toks.flatten()
            doc_all = np.repeat(np.arange(ndocs, dtype=np.int64), lens_all)
            nonempty = pc.not_equal(pc.binary_length(flat), 0)
            flat = flat.filter(nonempty)
            if len(flat) == 0:
                return _no_tokens(ndocs)
            doc_of_tok = doc_all[nonempty.to_numpy(zero_copy_only=False)]
        else:
            # numpy run-splitter (the hot path): bytes are classified by
            # one ``bytes.translate``, token runs are the edges of a bool
            # change mask, a delete-translate compacts the word bytes into
            # a contiguous values buffer, and the token array is built
            # zero-copy via from_buffers. A few linear passes over the
            # batch, no RE2, no list array, no empty-token filter (runs
            # are non-empty by construction) — the regex split alone cost
            # ~2x this whole block.
            offs = np.frombuffer(s.buffers()[1], dtype=np.int32)
            offs = offs[s.offset: s.offset + ndocs + 1]
            lo, hi = int(offs[0]), int(offs[-1])
            if hi <= lo:
                return _no_tokens(ndocs)
            raw = s.buffers()[2].slice(lo, hi - lo).to_pybytes()
            offs_rel = (offs - lo).astype(np.int64)
            is_w = np.frombuffer(raw.translate(_WORD_TABLE), dtype=np.bool_)
            # a run starts or ends wherever the class changes, with the
            # text padded by a non-word byte on each side: the edges
            # alternate run start, run end
            change = np.empty(len(is_w) + 1, dtype=np.bool_)
            change[0], change[-1] = is_w[0], is_w[-1]
            np.not_equal(is_w[1:], is_w[:-1], out=change[1:-1])
            edges = np.flatnonzero(change)
            starts, ends = edges[0::2], edges[1::2]
            # a run may straddle a document boundary (doc ends with a word
            # byte, next begins with one): cut it at the boundary so
            # tokens never span documents
            bpos = offs_rel[1:-1]
            inner = bpos[(bpos > 0) & (bpos < len(is_w))]
            # unique: an empty doc repeats its neighbours' boundary
            # position — cutting twice would mint a zero-length token
            span = np.unique(inner[is_w[inner] & is_w[inner - 1]])
            if len(span):
                # both sides are sorted: insert, no re-sort
                starts = np.insert(starts, np.searchsorted(starts, span), span)
                ends = np.insert(ends, np.searchsorted(ends, span), span)
            if len(starts) == 0:
                return _no_tokens(ndocs)
            lens = ends - starts
            data = raw.translate(None, _NON_WORD)  # token bytes, in order
            tok_offs = np.concatenate(
                ([0], np.cumsum(lens))
            ).astype(np.int32)
            flat = pa.StringArray.from_buffers(
                len(lens), pa.py_buffer(tok_offs), pa.py_buffer(data)
            )
            # no run crosses a doc boundary: a doc's tokens are the runs
            # starting in [offs[d], offs[d + 1])
            per_doc = np.diff(np.searchsorted(starts, offs_rel))
            doc_of_tok = np.repeat(np.arange(ndocs, dtype=np.int64), per_doc)
        enc = pc.dictionary_encode(flat)
        inv = enc.indices.to_numpy().astype(np.int64)
        return inv, enc.dictionary.to_pylist(), doc_of_tok, ndocs


_SHARED: dict[str, CodeTokenizer] = {}
_SHARED_LOCK = threading.Lock()


def shared_tokenizer(mode: str = "code") -> CodeTokenizer:
    """The process-wide :class:`CodeTokenizer` of ``mode``, made on first
    use: every index-build stage in the process tokenizes through it, so a
    raw token recurring across partitions and appends is split and hashed
    once per process."""
    with _SHARED_LOCK:
        tok = _SHARED.get(mode)
        if tok is None:
            tok = _SHARED[mode] = CodeTokenizer(mode)
        return tok


def _no_tokens(ndocs: int):
    """:meth:`CodeTokenizer._raw_tokens` result of a batch with no tokens."""
    return np.empty(0, dtype=np.int64), [], np.empty(0, dtype=np.int64), ndocs


def _term_hashes(terms) -> np.ndarray:
    from astrologer_ray.functions.codec import term_hash64

    return np.fromiter((term_hash64(str(t)) for t in terms), dtype=np.int64,
                       count=len(terms))


def _merge_by_rank(a, b):
    """Merge two ``batch_postings`` doc-range sorts whose docs are disjoint
    and all of ``a``'s precede ``b``'s: a stable sort by rank keeps doc
    order within each term, and position runs move with their postings."""
    rank, doc, tf = (np.concatenate([x, y]) for x, y in zip(a[:3], b[:3]))
    order = np.argsort(rank, kind="stable")
    pos = None
    if a[3] is not None:
        flat = np.concatenate([a[3], b[3]])
        first = np.cumsum(tf) - tf
        cnt = tf[order]
        within = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt)
        pos = flat[np.repeat(first[order], cnt) + within]
    return rank[order], doc[order], tf[order], pos


def flat_simple_tokens(col):
    """Batch ``simple``-mode tokenization entirely in C kernels: lower +
    ``[^a-z0-9]+`` regex split (token-for-token the SQL oracles' split)
    + flatten + dictionary_encode.  Returns ``(inv, uniq, doc_of_tok)``
    — the factorized token-id stream (positional order preserved), the
    distinct token strings (an Arrow string array — the dictionary),
    and which input row each position belongs to.  Shared by the n-gram
    LM trainer and the duplicate-span scanner so their token streams
    can never diverge."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    lower = pc.utf8_lower(pc.fill_null(arr, ""))
    toks = pc.split_pattern_regex(lower, "[^a-z0-9]+")
    flat = pc.list_flatten(toks)
    lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    doc_of_tok = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(nonempty))
    doc_of_tok = doc_of_tok[nonempty]
    if len(flat) == 0:
        return (np.empty(0, np.int64), pa.array([], pa.string()),
                doc_of_tok)
    enc = pc.dictionary_encode(flat)
    inv = enc.indices.to_numpy().astype(np.int64)
    return inv, enc.dictionary, doc_of_tok
