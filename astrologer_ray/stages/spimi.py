"""SPIMI stage: per-partition tokenize -> partial postings + docs sidecar.

The reference's export flagship processes independent ledger blocks in a
worker pool and writes one buffer per block (/root/reference/commands/
export.go:62-89); state never crosses block boundaries (SURVEY §2.3 ST1/ST4).
The analog here: the corpus is planned into deterministic *partition units*
(parquet row-group ranges), and an actor-pool ``map_batches`` stage tokenizes
each unit and writes its partial artifacts:

  partials/post-{part:06d}.parquet   one row per term: (term:str,
                                     term_hash:int64, lrows:list<int64>,
                                     tfs:list<int32> [, poss:list<int32>]),
                                     rows by (term_hash % n_buckets,
                                     term_hash), one row group per bucket,
                                     each term's lrows ascending; zstd pages,
                                     lrows DELTA_BINARY_PACKED, term_hash
                                     PLAIN, term/tfs/poss dictionary-encoded
  partials/docs-{part:06d}.parquet   (lrow, doc_key, repo, path, commit,
                                      lang, dl:int64, sha256:str)
  partials/manifest-{part:06d}.json  lineage + metrics row (written last,
                                     atomically: tmp + rename)

``lrow = part_id << 40 | local_row`` is the provisional row identity used to
join postings to their final dense ``doc_id`` later; ``doc_key`` is the
paging-token analog (/root/reference/es/paging_token.go:10-30): the composite
``repo \\x1f path \\x1f commit`` whose lexicographic order equals the
component-wise order. The manifest file is the per-partition checkpoint: a
re-run skips any unit whose manifest already exists (the reference's
gap-detect + re-export resume model, /root/reference/commands/stats.go:20-67).

Tokenization + hashing happen ONCE here; ``content`` never flows past this
stage (SURVEY §7 hard part (e)).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from astrologer_ray.functions.tokenizer import shared_tokenizer
from astrologer_ray.layout import FIELD_SEP, KEY_SEP  # noqa: F401  (re-exported)

LROW_BITS = 40

POST_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("term_hash", pa.int64()),
        ("lrows", pa.list_(pa.int64())),
        ("tfs", pa.list_(pa.int32())),
    ]
)
# positional variant: ``poss`` concatenates each posting's ascending token
# positions (sublist lengths == the aligned ``tfs`` entries)
POST_SCHEMA_POS = POST_SCHEMA.append(pa.field("poss", pa.list_(pa.int32())))
# partial postings writer: each term's ascending local rows delta-pack to
# a byte or two per posting, the random 63-bit term_hash gains nothing from
# a dictionary, and term, tfs and poss keep dictionary encoding (plain tfs
# are ~1.5x larger)
POST_WRITE_OPTIONS = dict(
    compression="zstd",
    use_dictionary=["term", "tfs.list.element", "poss.list.element"],
    column_encoding={"lrows.list.element": "DELTA_BINARY_PACKED",
                     "term_hash": "PLAIN"},
)
DOCS_PART_SCHEMA = pa.schema(
    [
        ("lrow", pa.int64()),
        ("doc_key", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("dl", pa.int64()),
        ("sha256", pa.string()),
    ]
)


def plan_partitions(paths: list[str], target_rows: int = 50_000) -> list[dict]:
    """Deterministic partition units from parquet metadata (no data scan).

    One unit = a contiguous row-group range of one file with ~target_rows
    rows. Unit ids are stable across runs and across parallelism levels,
    which is what makes the per-partition checkpoint/resume sound.
    """
    units: list[dict] = []
    part_id = 0
    for path in sorted(paths):
        md = pq.read_metadata(path)
        rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        start = 0
        acc = 0
        for i, n in enumerate(rg_rows):
            acc += n
            if acc >= target_rows or i == len(rg_rows) - 1:
                units.append(
                    {
                        "part_id": part_id,
                        "file": path,
                        "rg_start": start,
                        "rg_end": i + 1,
                        "n_rows": acc,
                    }
                )
                part_id += 1
                start = i + 1
                acc = 0
    return units


def effective_config(
    mode: str = "code",
    column_map: dict | None = None,
    key_cols: tuple[str, ...] | list[str] | None = None,
    n_buckets: int = 64,
    keyword_fields: dict | None = None,
    positions: bool = False,
) -> dict:
    """Canonical (JSON-stable) build configuration recorded in manifests.

    Resume is only sound if the partials were produced under the SAME
    tokenizer mode / column mapping / bucketing — a mode switch with stale
    partials would yield an index whose meta.json disagrees with its
    postings (queries then tokenize with the wrong analyzer)."""
    cm = column_map or {c: c for c in ("repo", "path", "commit", "lang", "content")}
    kc = list(key_cols or ("repo", "path", "commit"))
    kw = keyword_fields or {}
    return {
        "mode": mode,
        "column_map": {k: cm.get(k) for k in sorted(cm)},
        "key_cols": kc,
        "n_buckets": int(n_buckets),
        "keyword_fields": {k: kw[k] for k in sorted(kw)},
        "positions": bool(positions),
    }


def manifest_path(partials_dir: str, part_id: int) -> str:
    return os.path.join(partials_dir, f"manifest-{part_id:06d}.json")


def completed_partitions(partials_dir: str) -> set[int]:
    if not os.path.isdir(partials_dir):
        return set()
    out = set()
    for f in os.listdir(partials_dir):
        if f.startswith("manifest-") and f.endswith(".json"):
            out.add(int(f[len("manifest-"):-len(".json")]))
    return out


def existing_bucket_count(partials_dir: str) -> int | None:
    """The ``n_buckets`` the EXISTING partials were written with, or None.

    Resume and ``ingest`` must reuse it verbatim: an auto-derived bucket
    count that drifted with corpus size would mismatch every manifest's
    build_config and silently retokenize the whole corpus."""
    for pid in sorted(completed_partitions(partials_dir)):
        try:
            with open(manifest_path(partials_dir, pid)) as f:
                return int(json.load(f)["n_buckets"])
        except (OSError, KeyError, ValueError, json.JSONDecodeError):
            continue
    return None


def completed_units(
    partials_dir: str, units: list[dict], config: dict | None = None
) -> set[int]:
    """Unit ids whose manifest exists AND matches the unit's full identity.

    Identity = (file, rg_start, rg_end) + the source file's size/mtime +
    the build configuration (mode, column_map, key_cols, n_buckets).
    Partition ids are ordinals over the sorted file list, so a corpus change
    (a new file sorting mid-list) shifts ids; an in-place edit changes
    size/mtime; a config change invalidates everything — in all cases the
    stale partials are rebuilt (the reference's reconciliation semantics:
    trust the source of truth, not the index)."""
    done = set()
    stat_cache: dict[str, tuple[int, int]] = {}
    for u in units:
        mp = manifest_path(partials_dir, u["part_id"])
        if not os.path.exists(mp):
            continue
        try:
            with open(mp) as f:
                m = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if not (
            m.get("file") == u["file"]
            and m.get("rg_start") == u["rg_start"]
            and m.get("rg_end") == u["rg_end"]
        ):
            continue
        bc = m.get("build_config")
        if isinstance(bc, str):
            try:
                bc = json.loads(bc)
            except json.JSONDecodeError:
                bc = None
        if config is not None and bc != config:
            continue
        if u["file"] not in stat_cache:
            st = os.stat(u["file"])
            stat_cache[u["file"]] = (st.st_size, st.st_mtime_ns)
        if (
            m.get("src_size") is not None
            and (m.get("src_size"), m.get("src_mtime_ns")) != stat_cache[u["file"]]
        ):
            continue
        if m.get("src_size") is None and config is not None:
            continue  # pre-identity manifest: rebuild rather than trust
        done.add(u["part_id"])
    return done


def _fmt_key_part(v) -> str:
    if isinstance(v, (int, np.integer)):
        return f"{int(v):012d}"
    return str(v)


def fmt_key_arr(col) -> pa.Array:
    """Arrow-kernel twin of :func:`_fmt_key_part` (applied per column, not
    per value): strings pass through, integers get the sign-aware 12-wide
    zero pad so string order == numeric order. Falls back to the Python
    formatter for exotic column types. Module-level so reconciliation
    (pipelines/integrity.py) builds byte-identical doc_keys."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        out = col
    elif pa.types.is_integer(col.type):
        out = pc.utf8_lpad(pc.cast(col, pa.string()), 12, "0")
        if col.null_count < len(col) and pc.any(pc.less(col, 0)).as_py():
            # f"{v:012d}" counts the sign in the width: '-' + 11 digits
            negfmt = pc.binary_join_element_wise(
                "-",
                pc.utf8_lpad(pc.cast(pc.abs_checked(col), pa.string()), 11, "0"),
                "",
            )
            out = pc.if_else(pc.less(col, 0), negfmt, out)
    else:
        return pa.array([_fmt_key_part(v) for v in col.to_pylist()], pa.string())
    return pc.fill_null(out, "None")  # str(None) parity for null keys


def _sha256_per_row(col) -> list[str]:
    """sha256 hex per row, hashing UTF-8 bytes directly from the Arrow
    string buffers (zero decode/encode copies). Nulls hash as empty."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out: list[str] = []
    for chunk in chunks:
        if chunk.null_count:
            import pyarrow.compute as _pc

            chunk = _pc.fill_null(chunk, "")
        bufs = chunk.buffers()
        if pa.types.is_large_string(chunk.type):
            off = np.frombuffer(bufs[1], dtype=np.int64,
                                count=len(chunk) + 1, offset=chunk.offset * 8)
        else:
            off = np.frombuffer(bufs[1], dtype=np.int32,
                                count=len(chunk) + 1, offset=chunk.offset * 4)
        data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
        out.extend(
            hashlib.sha256(data[off[i]:off[i + 1]]).hexdigest()
            for i in range(len(chunk))
        )
    return out


class TokenizePartials:
    """Stage-1 body: one input row = one partition unit; ``__call__`` runs
    a batch of units and returns their metrics rows (the tiny dataset the
    driver collects). Construction is cheap: the tokenizer is the
    process-wide one of the mode (``shared_tokenizer``), so its split
    cache carries over between instances, tasks and appends.
    """

    def __init__(
        self,
        partials_dir: str,
        mode: str = "code",
        column_map: dict | None = None,
        key_cols: tuple[str, ...] | None = None,
        n_buckets: int = 64,
        keyword_fields: dict | None = None,
        positions: bool = False,
        fault_once: str | None = None,
    ):
        """``column_map`` maps the canonical corpus columns (repo, path,
        commit, lang, content) to source column names (None -> constant "");
        ``key_cols`` are the source columns forming the doc_key (default:
        repo, path, commit). Integer key parts are zero-padded to 12 digits
        so string order == numeric order (paging-token format analog,
        /root/reference/es/paging_token.go:17-30)."""
        self.partials_dir = partials_dir
        self.tok = shared_tokenizer(mode)
        self.column_map = column_map or {
            c: c for c in ("repo", "path", "commit", "lang", "content")
        }
        self.key_cols = key_cols or ("repo", "path", "commit")
        self.n_buckets = n_buckets
        # field -> source column: emits ONE exact term "<field>\x1e<value>"
        # per doc (tf=1, no dl contribution) — index-served field lookups
        self.keyword_fields = keyword_fields or {}
        # positional postings: partials carry per-posting token positions
        # (phrase/proximity queries); off by default — ~2x partial volume
        self.positions = bool(positions)
        self.config = effective_config(
            mode=mode, column_map=column_map, key_cols=key_cols,
            n_buckets=n_buckets, keyword_fields=keyword_fields,
            positions=positions,
        )
        # test-only fault injection: unit 1 fails ONCE (marker file at this
        # path records the injection) so retry/idempotence is testable
        # inside real Ray workers, where a driver monkeypatch cannot reach
        self.fault_once = fault_once
        os.makedirs(partials_dir, exist_ok=True)

    @staticmethod
    def _fmt_key_part(v) -> str:
        return _fmt_key_part(v)

    def _fmt_key_arr(self, col) -> pa.Array:
        return fmt_key_arr(col)

    def _kw_values(self, t: pa.Table, src: str, n: int):
        """Resolve a keyword-field source spec to ``(row_idx, values)``.

        ``src`` is a dotted path into the partition table: each ``.`` part
        descends a struct field, and any list layer met along the way is
        flattened with parent-row tracking — so ``tags`` (list<string>),
        ``attrs.source`` (struct<...>), and ``links.kind`` (list<struct>)
        all resolve to a flat scalar array plus the doc row each element
        belongs to (ES array/nested-object keyword semantics; the reference
        maps exactly such shapes, /root/reference/es/indices.go:63-69,
        126-135, 149-155). Repeated values within one doc collapse to ONE
        posting (keyword terms are set-valued; tf carries no signal).
        Null scalars format as "None" (parity with flat keyword fields);
        null/empty LISTS simply contribute no elements."""
        parts = src.split(".")
        col = t.column(parts[0])
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        row_idx = np.arange(n, dtype=np.int64)
        parts = parts[1:]
        while True:
            if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
                parents = pc.list_parent_indices(arr).to_numpy(
                    zero_copy_only=False).astype(np.int64)
                row_idx = row_idx[parents]
                arr = pc.list_flatten(arr)
                continue
            if parts and pa.types.is_struct(arr.type):
                arr = pc.struct_field(arr, parts[0])
                parts = parts[1:]
                continue
            break
        if parts:
            raise ValueError(
                f"keyword field path {src!r}: cannot descend into "
                f"{arr.type} at {'.'.join(parts)!r}"
            )
        vals = self._fmt_key_arr(arr)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        if len(row_idx) == 0:
            return row_idx, vals
        # collapse duplicate (doc, value) pairs to one posting
        codes = pc.dictionary_encode(vals).indices.to_numpy().astype(np.int64)
        pair = row_idx * (int(codes.max()) + 1) + codes
        keep = np.sort(np.unique(pair, return_index=True)[1])
        if len(keep) != len(row_idx):
            return row_idx[keep], vals.take(pa.array(keep))
        return row_idx, vals

    def _keyword_terms(self, t: pa.Table, n: int):
        """``(doc, terms)`` of the partition's keyword-field postings, or
        None: one exact term ``<field>\\x1e<value>`` per (doc, field,
        DISTINCT value), which the tokenizer posts with tf=1 and no dl
        share (BM25 text scoring is unaffected). The source spec may
        address nested data — see _kw_values — giving ES array/object
        keyword semantics (the reference maps list and nested object
        fields as keyword)."""
        docs, terms = [], []
        for fname, src in sorted(self.keyword_fields.items()) if n else ():
            ridx, vals = self._kw_values(t, src, n)
            if len(ridx):
                docs.append(ridx)
                terms.append(pc.cast(pc.binary_join_element_wise(
                    fname + FIELD_SEP, vals, ""), pa.string()))
        if not docs:
            return None
        return np.concatenate(docs), pa.concat_arrays(terms)

    def _col(self, t: pa.Table, canonical: str, n: int):
        """Canonical column as an Arrow string array (``content`` is the
        raw source column so the tokenizer reads Arrow buffers directly)."""
        src = self.column_map.get(canonical)
        if src is None:
            return pa.array([""] * n, pa.string())
        col = t.column(src)
        if canonical == "content":
            return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return self._fmt_key_arr(col)

    def _process_unit(self, unit: dict) -> dict:
        self._unit_t0 = time.monotonic()
        if (
            self.fault_once
            and int(unit["part_id"]) == 1
            and not os.path.exists(self.fault_once)
        ):
            open(self.fault_once, "w").close()
            raise RuntimeError("injected transient failure (fault_once)")
        pf = pq.ParquetFile(unit["file"])
        t = pf.read_row_groups(
            list(range(int(unit["rg_start"]), int(unit["rg_end"])))
        )
        return self._process_table(t, unit)

    def _process_table(self, t: pa.Table, unit: dict) -> dict:
        """Tokenize one already-read partition table and write its partials
        (split from the read so a multi-index fan-out build can feed several
        stages from ONE read — reference one-pass multi-output serializer,
        /root/reference/es/ledger_serializer.go:35-56)."""
        t_task0 = self.__dict__.pop("_unit_t0", None) or time.monotonic()
        part_id = int(unit["part_id"])
        n = t.num_rows
        repo = self._col(t, "repo", n)
        path = self._col(t, "path", n)
        commit = self._col(t, "commit", n)
        lang = self._col(t, "lang", n)
        content = self._col(t, "content", n)

        # per-row sha256(content) — the BASELINE.json invariant column.
        # Hash the UTF-8 bytes straight out of the Arrow string buffers:
        # no per-row str->bytes encode (a full corpus copy per unit).
        content_src = self.column_map.get("content")
        if content_src is None:
            sha = [hashlib.sha256(b"").hexdigest()] * n
        else:
            sha = _sha256_per_row(t.column(content_src))
        doc_key = pc.binary_join_element_wise(
            *[self._fmt_key_arr(t.column(c)) for c in self.key_cols], KEY_SEP
        )
        lrow_base = np.int64(part_id) << LROW_BITS
        lrows = lrow_base + np.arange(n, dtype=np.int64)

        # SPIMI partial index, PACKED per term (SURVEY §2.3 ST1): one row per
        # term with the partition's posting sublists, hash-bucketed for the
        # external merge exchange: rows sorted by (bucket, term_hash) and
        # written ONE PARQUET ROW GROUP PER BUCKET so a merge task reads
        # exactly its bucket from every partition file (map-side partitioned
        # shuffle through shared storage). The tokenizer's one key sort
        # already yields that order: terms by (bucket, hash), each term's
        # postings by local row. bucket->row-group map goes into the manifest.
        doc_idx, rank, terms, hashes, tfs, dls, pos_flat = self.tok.batch_postings(
            content, n_buckets=self.n_buckets, positions=self.positions,
            keywords=self._keyword_terms(t, n))
        offsets = np.zeros(len(terms) + 1, dtype=np.int32)
        np.cumsum(np.bincount(rank, minlength=len(terms)), out=offsets[1:])
        cols = {
            "term": pa.array(terms, pa.string()),
            "term_hash": pa.array(hashes, pa.int64()),
            "lrows": pa.ListArray.from_arrays(offsets, pa.array(lrows[doc_idx])),
            "tfs": pa.ListArray.from_arrays(offsets, pa.array(tfs, pa.int32())),
        }
        if self.positions:
            occ = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
            cols["poss"] = pa.ListArray.from_arrays(
                occ[offsets].astype(np.int32), pa.array(pos_flat, pa.int32()))
        post = pa.table(cols, schema=POST_SCHEMA_POS if self.positions else POST_SCHEMA)
        run_buckets = hashes % self.n_buckets
        docs = pa.table(
            {
                "lrow": lrows,
                "doc_key": doc_key,
                "repo": repo,
                "path": path,
                "commit": commit,
                "lang": lang,
                "dl": dls,
                "sha256": sha,
            },
            schema=DOCS_PART_SCHEMA,
        )

        post_path = os.path.join(self.partials_dir, f"post-{part_id:06d}.parquet")
        docs_path = os.path.join(self.partials_dir, f"docs-{part_id:06d}.parquet")
        bucket_rgs: dict[int, int] = {}
        with pq.ParquetWriter(post_path, post.schema, **POST_WRITE_OPTIONS) as w:
            if post.num_rows:
                b_rs = np.concatenate(
                    ([0], np.flatnonzero(run_buckets[1:] != run_buckets[:-1]) + 1,
                     [len(run_buckets)])
                )
                for rg_idx, (s, e) in enumerate(zip(b_rs[:-1], b_rs[1:])):
                    w.write_table(post.slice(s, e - s))
                    bucket_rgs[int(run_buckets[s])] = rg_idx
        pq.write_table(docs, docs_path, compression="zstd")

        metrics = {
            "part_id": part_id,
            "file": unit["file"],
            "rg_start": int(unit["rg_start"]),
            "rg_end": int(unit["rg_end"]),
            "n_docs": n,
            "n_postings": int(len(doc_idx)),
            "n_unique_terms": int(len(terms)),
            "sum_dl": int(dls.sum()) if n else 0,
            "max_doc_postings": int(np.bincount(doc_idx).max()) if len(doc_idx) else 0,
            "post_bytes": os.path.getsize(post_path),
            "docs_bytes": os.path.getsize(docs_path),
            # bucket -> parquet row-group index in post-{pid}.parquet (the
            # merge exchange map); json string so it tables cleanly
            "bucket_rgs": json.dumps(bucket_rgs),
            "n_buckets": self.n_buckets,
            # per-task lineage timing: scaling diagnosis reads these to
            # separate worker contention (tasks slow down with parallelism)
            # from scheduling/serial gaps (idle cores)
            "task_sec": round(time.monotonic() - t_task0, 4),
            "t_end_unix": round(time.time(), 3),
        }
        # full resume identity: source-file stat + build config (a manifest
        # from another mode/mapping or an edited file must NOT count as done)
        src_stat = os.stat(unit["file"])
        metrics["src_size"] = src_stat.st_size
        metrics["src_mtime_ns"] = src_stat.st_mtime_ns
        metrics["build_config"] = json.dumps(self.config)
        # manifest written LAST and atomically: its existence == unit complete
        mp = manifest_path(self.partials_dir, part_id)
        with open(mp + ".tmp", "w") as f:
            json.dump(metrics, f)
        os.replace(mp + ".tmp", mp)
        return metrics

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        out = [self._process_unit(u) for u in rows]
        return pa.Table.from_pylist(out)


def tokenize_units_multi(batch: pa.Table, *, specs: dict) -> pa.Table:
    """Fan-out stage-1: each partition unit is READ ONCE and tokenized for
    every index spec in ``specs`` (name -> TokenizePartials kwargs); each
    index gets its own partials + manifests. Output rows add an ``index``
    column to the per-unit metrics."""
    stages = {name: TokenizePartials(**kw) for name, kw in specs.items()}
    rows = []
    for u in batch.to_pylist():
        pf = pq.ParquetFile(u["file"])
        t = pf.read_row_groups(list(range(int(u["rg_start"]), int(u["rg_end"]))))
        for name, st in stages.items():
            m = st._process_table(t, u)
            m["index"] = name
            rows.append(m)
    return pa.Table.from_pylist(rows)


def tokenize_units(batch: pa.Table, **kwargs) -> pa.Table:
    """Task wrapper around :class:`TokenizePartials`.

    Plain Ray tasks reuse warm worker processes (imports already loaded),
    while a fresh actor pool pays process spawn + import per actor per
    build — measurably worse for short stages. Each task builds a new
    :class:`TokenizePartials`, but the tokenizer it uses is the worker's
    (or, in process, the driver's) shared one, whose split cache is
    already warm from earlier units.
    """
    return TokenizePartials(**kwargs)(batch)
