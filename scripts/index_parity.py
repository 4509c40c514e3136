#!/usr/bin/env python3
"""Print one line per parquet table under an index directory: its path
relative to the index, its row count and a sha256 of its Arrow IPC bytes,
so two builds of the same corpus can be compared with one ``diff``.

    python scripts/index_parity.py <index> > parity.txt

Each table is read whole, its chunks combined and its schema metadata
dropped before it is serialized, so two lines are equal exactly when the
tables are ``pa.Table.equals`` (same schema, same values in the same row
order), whatever the parquet encodings, row-group sizes or writer
metadata. Lines are sorted by path. Tables under a ``stats/`` directory
are skipped: ``partition_metrics`` records build timings and file sizes,
which differ between any two builds. Manifests and other JSON files are
not tables.

    python scripts/index_parity.py --by-dir <index>

prints one line per table directory instead (per file-name prefix, so a
directory's ``post-*`` and ``docs-*`` partials are two lines): the files
concatenated in name order and sorted by the table's key, so the same rows
split over one file or over eight print the same line. The key is the
first of ``(term, last_doc_id)`` (postings), ``doc_id`` (docs), ``lrow``
(keymap, partial docs) and ``term`` (dictionary, partial postings; a
stable sort, so a term's partial rows keep file order) that the table has.
"""
from __future__ import annotations

import argparse
import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq


SORT_KEYS = (("term", "last_doc_id"), ("doc_id",), ("lrow",), ("term",))


def _read(path: str) -> pa.Table:
    return pq.ParquetFile(path).read().replace_schema_metadata(None)


def table_digest(path: str) -> tuple[int, str]:
    """(rows, sha256 of the IPC stream) of the parquet file at ``path``."""
    return _digest(_read(path))


def dir_digest(paths: list[str]) -> tuple[int, str]:
    """(rows, sha256) of the tables at ``paths`` concatenated in name
    order and sorted by the first of ``SORT_KEYS`` they have."""
    t = pa.concat_tables(_read(p) for p in sorted(paths))
    key = next((k for k in SORT_KEYS if set(k) <= set(t.column_names)), ())
    if key:
        t = t.sort_by([(c, "ascending") for c in key])
    return _digest(t)


def _digest(t: pa.Table) -> tuple[int, str]:
    t = t.combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return t.num_rows, hashlib.sha256(sink.getvalue()).hexdigest()


def index_tables(index_dir: str) -> list[str]:
    """Every ``*.parquet`` under ``index_dir`` outside ``stats/``,
    relative and sorted."""
    out = []
    for root, dirs, files in os.walk(index_dir):
        if "stats" in dirs:
            dirs.remove("stats")
        out.extend(os.path.relpath(os.path.join(root, f), index_dir)
                   for f in files if f.endswith(".parquet"))
    return sorted(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("index")
    ap.add_argument("--by-dir", action="store_true",
                    help="one line per table directory and file-name prefix")
    args = ap.parse_args(argv)
    if not args.by_dir:
        for rel in index_tables(args.index):
            rows, digest = table_digest(os.path.join(args.index, rel))
            print(f"{rel}\t{rows}\t{digest}")
        return 0
    groups: dict[str, list[str]] = {}
    for rel in index_tables(args.index):
        d, name = os.path.split(rel)
        prefix = name.split("-", 1)[0] + "-" if "-" in name else ""
        groups.setdefault(os.path.join(d, f"{prefix}*.parquet"), []).append(
            os.path.join(args.index, rel))
    for label, paths in sorted(groups.items()):
        rows, digest = dir_digest(paths)
        print(f"{label}\t{rows}\t{digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
