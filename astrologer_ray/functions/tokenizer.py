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
vectorized batch implementation used in the hot path — one regex pass per
row in C, then pure-numpy CSR expansion with a cross-batch token-split cache
(it is a callable-class state, so in Ray it runs as an actor-pool stage with
the cache amortised across batches). Only ``CodeTokenizer``'s batch
methods import pandas (for ``pd.factorize``), so importing this module for
query analysis does not.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MAX_TERM_LEN = 64

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


# byte -> is-token-char ([A-Za-z0-9_]) lookup table; bytes >= 0x80 are
# False, so multi-byte UTF-8 codepoints act as separators (matching the
# regex token class, which is ASCII-only)
_WORD_LUT = np.zeros(256, dtype=bool)
for _c in range(256):
    _ch = chr(_c)
    _WORD_LUT[_c] = (
        "a" <= _ch <= "z" or "A" <= _ch <= "Z" or "0" <= _ch <= "9" or _ch == "_"
    )
del _c, _ch


def _has_ctrl_chars(arr: pa.Array) -> bool:
    """True iff any string in ``arr`` contains a scrub-target control char.

    One bincount pass over the raw utf-8 data buffer (control bytes are
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
    cnt = np.bincount(b, minlength=256)
    return bool(cnt[:32].sum() - cnt[9] - cnt[10] - cnt[13] > 0)


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

    ``batch_counts(contents)`` returns ``(doc_idx, terms, tfs, dls)``:
      doc_idx : int32[P]  index into ``contents`` for each posting
      terms   : object[P] term strings
      tfs     : int32[P]  term frequency of ``terms[i]`` in doc ``doc_idx[i]``
      dls     : int64[D]  document length (total emitted terms) per content

    Per-doc results are exactly ``token_counts(content, mode)`` (property
    tested). State (vocab + split cache) amortises across batches, which is
    why index-build stages run this as an actor pool (SURVEY §2.3 ST4).
    """

    def __init__(self, mode: str = "code"):
        self.mode = mode
        self._vocab: dict[str, int] = {}
        self._vocab_arr: np.ndarray = np.empty(0, dtype=object)
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

    def _refresh_vocab_arr(self) -> None:
        n0 = len(self._vocab_arr)
        if n0 != len(self._vocab):
            # term ids follow dict insertion order: the new terms are the
            # keys past the first n0
            arr = np.empty(len(self._vocab), dtype=object)
            arr[:n0] = self._vocab_arr
            arr[n0:] = list(itertools.islice(self._vocab, n0, None))
            self._vocab_arr = arr

    def batch_counts(self, contents) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        doc_idx, term_ids, tfs, dls = self._batch_count_ids(contents)
        self._refresh_vocab_arr()
        return doc_idx, self._vocab_arr[term_ids], tfs, dls

    def batch_counts_coded(
        self, contents, positions: bool = False
    ) -> tuple:
        """Term-deduplicated variant: (doc_idx, codes, uniq_terms, tfs, dls)
        with ``terms[i] == uniq_terms[codes[i]]`` — callers that need
        per-unique-term work (hashing, bucketing) skip a second factorize.
        ``positions=True`` appends the posting-grouped position array
        (see :meth:`_count_from_raw`)."""
        res = self._batch_count_ids(contents, positions=positions)
        doc_idx, term_ids, tfs, dls = res[:4]
        import pandas as pd

        # hash-based factorize, not np.unique: callers re-sort postings
        # anyway (spimi lexsorts by bucket/hash/doc), so first-appearance
        # code order is fine and saves the O(P log P) sort
        codes, uniq_tids = pd.factorize(term_ids)
        self._refresh_vocab_arr()
        out = (doc_idx, codes.astype(np.int64), self._vocab_arr[uniq_tids], tfs, dls)
        if positions:
            pos_flat = res[4] if len(res) > 4 else np.empty(0, dtype=np.int32)
            out = out + (pos_flat,)
        return out

    def _batch_count_ids(self, contents, positions: bool = False):
        if isinstance(contents, (pa.Array, pa.ChunkedArray)):
            if self.mode == "code":
                return self._batch_count_ids_arrow(contents, positions=positions)
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
            return self._empty_counts(ndocs)
        all_raw = np.empty(total, dtype=object)
        pos = 0
        for r in raw_lists:
            all_raw[pos : pos + len(r)] = r
            pos += len(r)

        import pandas as pd

        # hash-based factorize beats sort-based np.unique ~10x on strings
        inv, uniq = pd.factorize(all_raw)
        doc_of_tok = np.repeat(np.arange(ndocs, dtype=np.int64), lengths)
        return self._count_from_raw(inv, uniq, doc_of_tok, ndocs,
                                    positions=positions)

    @staticmethod
    def _empty_counts(ndocs: int):
        return (
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.zeros(ndocs, dtype=np.int64),
        )

    def _batch_count_ids_arrow(self, col, positions: bool = False):
        """``code``-mode tokenization straight from Arrow buffers — the
        content strings never materialize as Python objects; every
        token-level pass (scrub, digit-boundary split, run split, empty
        filter, factorize) is a C kernel. Only the batch's UNIQUE raw
        tokens cross into Python, where the split/vocab caches apply.

        Token-stream equality with ``_TOKEN_RE.findall(scrub_text(s))`` is
        property-tested: runs of ``[A-Za-z0-9_]`` split exactly at a
        leading digit-prefix (``123abc`` -> ``123|abc``, ``a123b`` stays
        whole), which the RE2 rewrite ``\\b([0-9]+)([A-Za-z_])`` ->
        ``\\1\\x01\\2`` reproduces (\\x01 was just scrubbed, so the
        separator cannot collide with content).
        """
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ndocs = len(col)
        s = col if col.null_count == 0 else pc.fill_null(col, "")
        # scrub only when control chars actually exist: the detection is a
        # single numpy pass over the raw utf-8 buffer (vs an RE2
        # read+write copy of the whole batch every time); the digit-prefix
        # rewrite pass is gone entirely — folded into _ids_for_raw
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
            if len(flat) == 0:
                return self._empty_counts(ndocs)
            doc_all = np.repeat(np.arange(ndocs, dtype=np.int64), lens_all)
            nonempty = pc.not_equal(pc.binary_length(flat), 0)
            flat = flat.filter(nonempty)
            if len(flat) == 0:
                return self._empty_counts(ndocs)
            doc_of_tok = doc_all[nonempty.to_numpy(zero_copy_only=False)]
        else:
            # numpy run-splitter (the hot path): token runs are detected
            # with a byte-class LUT + one diff, word bytes compact into a
            # contiguous values buffer (boolean gather), and the token
            # array is built zero-copy via from_buffers. ~3 linear passes
            # over the batch, no RE2, no list array, no empty-token
            # filter (runs are non-empty by construction) — the regex
            # split alone cost ~2x this whole block.
            offs = np.frombuffer(s.buffers()[1], dtype=np.int32)
            offs = offs[s.offset: s.offset + ndocs + 1]
            lo, hi = int(offs[0]), int(offs[-1])
            if hi <= lo:
                return self._empty_counts(ndocs)
            b = np.frombuffer(s.buffers()[2], dtype=np.uint8)[lo:hi]
            offs_rel = (offs - lo).astype(np.int64)
            is_w = _WORD_LUT[b]
            d = np.diff(is_w.view(np.int8), prepend=np.int8(0),
                        append=np.int8(0))
            starts = np.flatnonzero(d == 1)
            ends = np.flatnonzero(d == -1)
            # a run may straddle a document boundary (doc ends with a word
            # byte, next begins with one): cut it at the boundary so
            # tokens never span documents
            bpos = offs_rel[1:-1]
            inner = bpos[(bpos > 0) & (bpos < len(b))]
            # unique: an empty doc repeats its neighbours' boundary
            # position — cutting twice would mint a zero-length token
            span = np.unique(inner[is_w[inner] & is_w[inner - 1]])
            if len(span):
                starts = np.sort(np.concatenate([starts, span]))
                ends = np.sort(np.concatenate([ends, span]))
            if len(starts) == 0:
                return self._empty_counts(ndocs)
            lens = ends - starts
            data = b[is_w]  # concatenated token bytes, in order
            tok_offs = np.concatenate(
                ([0], np.cumsum(lens))
            ).astype(np.int32)
            flat = pa.StringArray.from_buffers(
                len(lens), pa.py_buffer(tok_offs), pa.py_buffer(data)
            )
            doc_of_tok = np.searchsorted(offs_rel, starts, side="right") - 1
        enc = pc.dictionary_encode(flat)
        inv = enc.indices.to_numpy().astype(np.int64)
        uniq = enc.dictionary.to_pylist()
        return self._count_from_raw(inv, uniq, doc_of_tok, ndocs,
                                    positions=positions)

    def _count_from_raw(self, inv, uniq, doc_of_tok, ndocs, positions=False):
        """Common tail: expand raw-token occurrences (factorized as
        ``uniq[inv]``, doc attribution ``doc_of_tok``) into emitted term
        ids via the per-unique split cache, then per-(doc, term) counts.

        With ``positions=True`` a 5th array is returned: the emitted-term
        position (0-based index in the doc's emitted token stream) of every
        occurrence, grouped by posting — posting ``i``'s ascending position
        run occupies ``pos_flat[cum_tf[i]:cum_tf[i+1]]``."""
        import pandas as pd

        id_arrays = [self._ids_for_raw(u if isinstance(u, str) else str(u)) for u in uniq]
        counts = np.fromiter((len(a) for a in id_arrays), dtype=np.int64, count=len(uniq))
        flat = (
            np.concatenate(id_arrays)
            if len(id_arrays)
            else np.empty(0, dtype=np.int64)
        )
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

        # CSR gather: expand each raw token occurrence into its emitted ids.
        tok_cnt = counts[inv]
        tok_start = starts[inv]
        m = int(tok_cnt.sum())
        if m == 0:
            return self._empty_counts(ndocs)
        if not tok_cnt.all():
            # zero-emit occurrences (over-long tokens) would collide in the
            # boundary scatter below — drop them up front (rare path)
            nz = tok_cnt > 0
            tok_cnt, tok_start = tok_cnt[nz], tok_start[nz]
            doc_of_tok = doc_of_tok[nz]
        # gather-index via one scatter + cumsum (replaces the arange + two
        # np.repeat formulation: ~5 full passes over the emitted stream
        # become 2 — this stage is memory-bandwidth-bound)
        pos0 = np.cumsum(tok_cnt) - tok_cnt  # first emit slot per occurrence
        step = np.ones(m, dtype=np.int64)
        step[0] = tok_start[0]
        if len(tok_cnt) > 1:
            step[pos0[1:]] = tok_start[1:] - tok_start[:-1] - tok_cnt[:-1] + 1
        gidx = np.cumsum(step)
        emitted_ids = flat[gidx]

        # dls at the (smaller) occurrence level: emitted terms per doc
        dls = np.bincount(
            doc_of_tok, weights=tok_cnt, minlength=ndocs
        ).astype(np.int64)

        V = len(self._vocab)
        keys = np.repeat(doc_of_tok * V, tok_cnt)  # doc base, then += term
        keys += emitted_ids
        # hash-based (doc, term) count: O(m) factorize + bincount instead
        # of np.unique's O(m log m) sort over every emitted occurrence
        inv2, ukeys = pd.factorize(keys)
        tfs = np.bincount(inv2, minlength=len(ukeys))
        doc_idx = (ukeys // V).astype(np.int32)
        term_ids = ukeys % V
        if not positions:
            return doc_idx, term_ids, tfs.astype(np.int32), dls
        # occurrence position within its doc's emitted stream (emission
        # order == token order), then grouped by posting via a stable sort
        doc_of_emit = np.repeat(doc_of_tok, tok_cnt)
        dl_cum = np.cumsum(dls) - dls
        occ_pos = np.arange(m, dtype=np.int64) - dl_cum[doc_of_emit]
        pos_flat = occ_pos[np.argsort(inv2, kind="stable")].astype(np.int32)
        return doc_idx, term_ids, tfs.astype(np.int32), dls, pos_flat


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
