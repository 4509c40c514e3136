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
"""
from __future__ import annotations

import argparse
import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq


def table_digest(path: str) -> tuple[int, str]:
    """(rows, sha256 of the IPC stream) of the parquet file at ``path``."""
    t = pq.ParquetFile(path).read().replace_schema_metadata(None)
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
    args = ap.parse_args(argv)
    for rel in index_tables(args.index):
        rows, digest = table_digest(os.path.join(args.index, rel))
        print(f"{rel}\t{rows}\t{digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
