"""Seeded workload generator: corpus rows, tail batches, query texts and
DSL bodies.

Documents, tail batches, queries and DSL bodies come from one ``numpy``
generator seeded by ``--seed``; the vocabulary and its Zipf ranks are fixed
(``VOCAB_SEED``), so seeds vary the corpus and the traffic but not the
language they are written in. The program under test only ever sees the
parquet files and requests written here. The generator also keeps its own
model of every document (which vocabulary identifier sits at which token
position), so the correctness checks can recount BM25 statistics without
re-tokenizing the corpus.

Corpus model:
- a vocabulary of ``VOCAB`` unique identifiers, each two or three fragments
  joined as camelCase, snake_case or SCREAMING_CASE;
- identifier ranks follow Zipf(``ZIPF_S``) in vocabulary order;
- document lengths are log-normal with a mean of ``MEAN_TOKENS`` identifiers;
- ``N_REPOS`` repositories with skewed sizes and ``len(LANGS)`` languages.

Query bands are rank ranges of that Zipf order (``BANDS``), never df
values read from an index.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = 5_000
VOCAB_SEED = 20_221
ZIPF_S = 1.1
MEAN_TOKENS = 120.0
N_REPOS = 50
LANGS = ("python", "go", "rust", "java", "js", "markdown")
EXT = {"python": "py", "go": "go", "rust": "rs", "java": "java", "js": "js",
       "markdown": "md"}
# half-open Zipf rank ranges (0 = most frequent identifier)
BANDS = {"head": (0, 50), "mid": (200, 1_000), "tail": (2_000, VOCAB)}

FRAGMENTS = (
    "alloc", "apply", "batch", "bind", "block", "buffer", "build", "bytes",
    "cache", "check", "chunk", "clear", "client", "close", "codec", "commit",
    "config", "count", "cursor", "decode", "delta", "depth", "dict", "digest",
    "drain", "emit", "encode", "entry", "event", "field", "file", "filter",
    "flush", "frame", "graph", "group", "handle", "hash", "header", "index",
    "input", "item", "join", "key", "layer", "limit", "list", "load", "lock",
    "merge", "node", "offset", "open", "order", "owner", "page", "parse",
    "path", "peer", "pool", "query", "queue", "range", "rank", "read",
    "reply", "route", "row", "scan", "score", "seek", "shard", "size",
    "slot", "sort", "span", "split", "stage", "state", "store", "stream",
    "table", "task", "term", "token", "trace", "tree", "value", "view",
    "walk", "write",
)
# separators never form or join tokens under the code tokenizer
_SEPS = np.array([" ", " ", " ", "\n", "(", ") ", ", ", ".", " = "], dtype=object)
SCHEMA = pa.schema([("repo", pa.string()), ("path", pa.string()),
                    ("commit", pa.string()), ("lang", pa.string()),
                    ("content", pa.string())])
# tail-batch repos sort after every base repo ("org..."), so appended keys
# are monotone as segment append requires
TAIL_REPO = "zz-tail/b{:05d}"


def _identifier(parts: list[str], style: int) -> str:
    if style == 0:
        return parts[0] + "".join(p.capitalize() for p in parts[1:])
    if style == 1:
        return "_".join(parts)
    return "_".join(p.upper() for p in parts)


def make_vocab(rng: np.random.Generator, size: int = VOCAB) -> tuple[list[str], np.ndarray]:
    """``size`` identifiers, unique after lower-casing, in Zipf-rank order;
    returns them with their style (0 camel, 1 snake, 2 SCREAMING)."""
    frags = np.array(FRAGMENTS)
    out: list[str] = []
    styles: list[int] = []
    seen: set[str] = set()
    while len(out) < size:
        parts = [str(f) for f in rng.choice(frags, size=int(rng.integers(2, 4)),
                                            replace=False)]
        style = int(rng.integers(0, 3))
        ident = _identifier(parts, style)
        if ident.lower() not in seen:
            seen.add(ident.lower())
            out.append(ident)
            styles.append(style)
    return out, np.array(styles)


def zipf_probs(n: int, s: float = ZIPF_S) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


def marker(batch: int) -> str:
    """A lower-case letters-only token unique to one tail batch: the code
    tokenizer keeps it whole and emits no fragments."""
    letters = ""
    b = batch
    for _ in range(5):
        b, r = divmod(b, 26)
        letters += chr(ord("a") + r)
    return "tailmark" + letters


class Corpus:
    """Generated rows plus the generator's own token model of each doc.

    ``tok_ident`` / ``tok_doc`` are the flat identifier ranks and row
    indexes of every token position; ``extra`` holds per-row extra whole
    tokens (tail-batch markers).
    """

    def __init__(self, rows: pa.Table, tok_ident: np.ndarray,
                 tok_doc: np.ndarray, extra: list[str | None]):
        self.rows = rows
        self.tok_ident = tok_ident
        self.tok_doc = tok_doc
        self.extra = extra

    @property
    def n(self) -> int:
        return self.rows.num_rows

    def input_bytes(self) -> int:
        return sum(len(c.encode()) for c in self.rows.column("content").to_pylist())

    def write(self, out_dir: str, rows_per_file: int) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for i in range(0, self.n, rows_per_file):
            p = os.path.join(out_dir, f"part-{i // rows_per_file:05d}.parquet")
            pq.write_table(self.rows.slice(i, rows_per_file), p, compression="zstd")
            paths.append(p)
        return paths


class Workload:
    """The seeded generator for one run: vocabulary, base corpus, tail
    batches, query texts and DSL bodies."""

    def __init__(self, seed: int, n_files: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        vocab, self.styles = make_vocab(np.random.default_rng(VOCAB_SEED))
        self.vocab = np.array(vocab, dtype=object)
        self.probs = zipf_probs(VOCAB)
        self.repos = [f"org{i % 7}/repo{i:02d}" for i in range(N_REPOS)]
        self.repo_probs = zipf_probs(N_REPOS, 1.0)
        self.base = self._rows(n_files, batch=None)

    def _rows(self, n: int, batch: int | None) -> Corpus:
        rng = self.rng
        mu = np.log(MEAN_TOKENS) - 0.7 ** 2 / 2
        lengths = np.clip(rng.lognormal(mu, 0.7, size=n), 1, 2_000).astype(np.int64)
        total = int(lengths.sum())
        tok_ident = rng.choice(VOCAB, size=total, p=self.probs)
        tok_doc = np.repeat(np.arange(n), lengths)
        pieces = np.empty(total * 2, dtype=object)
        pieces[0::2] = self.vocab[tok_ident]
        pieces[1::2] = _SEPS[rng.integers(0, len(_SEPS), size=total)]
        ends = np.cumsum(lengths) * 2
        mark = marker(batch) if batch is not None else None
        content = []
        for s, e in zip(ends - lengths * 2, ends):
            text = "".join(pieces[s:e - 1])
            content.append(f"{text}\n{mark}" if mark else text)
        if batch is None:
            repo = [self.repos[i] for i in rng.choice(N_REPOS, size=n, p=self.repo_probs)]
        else:
            repo = [TAIL_REPO.format(batch)] * n
        lang = [LANGS[i] for i in rng.integers(0, len(LANGS), size=n)]
        pkg = rng.integers(0, 40, size=n)
        path = [f"src/m{pkg[i]}/f{i:06d}.{EXT[lang[i]]}" for i in range(n)]
        commit = [hashlib.sha1(f"{self.seed}:{r}/{p}".encode()).hexdigest()
                  for r, p in zip(repo, path)]
        rows = pa.table({"repo": repo, "path": path, "commit": commit,
                         "lang": lang, "content": content}, schema=SCHEMA)
        return Corpus(rows, tok_ident, tok_doc, [mark] * n)

    def tail_batch(self, batch: int, n: int) -> Corpus:
        """Tail batch ``batch`` (>= 0): ``n`` rows whose keys sort after the
        base and after every earlier batch, each ending in ``marker(batch)``."""
        return self._rows(n, batch=batch)

    def band_ranks(self, band: str, n: int, *, camel_only: bool = False) -> np.ndarray:
        lo, hi = BANDS[band]
        ranks = np.arange(lo, hi)
        if camel_only:
            ranks = ranks[self.styles[lo:hi] == 0]
        return self.rng.choice(ranks, size=n)

    def topk_texts(self, n: int) -> list[str]:
        """Query texts of two identifiers, each from a uniformly chosen band."""
        bands = list(BANDS)
        picks = self.rng.integers(0, len(bands), size=(n, 2))
        out = []
        for a, b in picks:
            ra = self.band_ranks(bands[a], 1)[0]
            rb = self.band_ranks(bands[b], 1)[0]
            out.append(f"{self.vocab[ra]} {self.vocab[rb]}")
        return out

    def dsl_bodies(self, n: int) -> list[dict]:
        """Three kinds in rotation: a filtered search, a size-0 aggregation
        and a match with its exact total. Scored clauses match one whole
        camelCase identifier (lower-cased, so it analyzes to one term) from
        the mid or tail band; head fragments are never scored."""
        out = []
        for i in range(n):
            kind = i % 3
            band = "mid" if self.rng.random() < 0.5 else "tail"
            term = str(self.vocab[self.band_ranks(band, 1, camel_only=True)[0]]).lower()
            lang = LANGS[int(self.rng.integers(0, len(LANGS)))]
            if kind == 0:
                lo = int(self.rng.integers(0, 300))
                out.append({"size": 10, "query": {"bool": {
                    "must": [{"match": {"content": term}}],
                    "filter": [{"term": {"lang": lang}},
                               {"range": {"dl": {"gte": lo, "lt": lo + 600}}}]}}})
            elif kind == 1:
                out.append({"size": 0,
                            "query": {"bool": {"filter": [{"term": {"lang": lang}}]}},
                            "aggs": {
                                "repos": {"terms": {"field": "repo", "size": 10}},
                                "dl": {"histogram": {"field": "dl", "interval": 100},
                                       "aggs": {"cum": {"cumulative_sum": {
                                           "buckets_path": "_count"}}}}}})
            else:
                out.append({"size": 10, "query": {"match": {"content": term}}})
        return out
