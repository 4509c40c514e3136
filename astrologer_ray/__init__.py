"""astrologer_ray — a Ray-Data-native full-text index build + BM25 query engine.

A from-scratch re-expression (NOT a port) of the capabilities of
astroband/astrologer (reference at /root/reference): the reference is a
Go extract→transform→bulk-index pipeline feeding Elasticsearch, which then
owns the inverted index and the query surface. This engine owns all three
halves natively on Ray Data:

- ingest/extract  -> ``ray.data.read_parquet`` + ``map_batches`` over
  zero-copy Arrow batches (reference: commands/export.go:40-89),
- index build     -> SPIMI-style per-partition partial postings, a salted
  ``groupby(term)`` merge shuffle, delta+varbyte-compressed posting
  chunks of doc ids and tfs, each doc's length stored once in the docs
  sidecar (what Elasticsearch/Lucene did for the reference),
- query serving   -> actor pool holding dictionary + posting shards,
  exact top-k BM25 (k1=1.2, b=0.75) via term-level MaxScore over cached
  decoded impacts, dense weight vectors for head terms
  (reference query surface: es.postman_collection.json).

Package layout:
  sources/    corpus generator + readers (reference: db/*.go)
  functions/  pure vectorized kernels: tokenizer, varbyte codec, text ops
  stages/     map_batches stage classes (stateful actor-pool stages)
  pipelines/  end-to-end pipelines: index build, aggs, dedup, ANN, text stats
  state/      query-time state: searcher actors, BM25 oracle, lineage
"""

__version__ = "0.1.0"

K1 = 1.2
B = 0.75


def ensure_hash_shuffle(max_parallelism: int = 8) -> None:
    """Configure Ray Data's hash-shuffle strategy sized to this session.

    ``Dataset.join`` / key-repartition require ``HASH_SHUFFLE``; the library
    defaults assume a large cluster (200 partitions, 64 one-CPU aggregator
    actors), which starves producers on a small session. Idempotent; safe to
    call before every wide op. ``max_parallelism`` caps the partition count
    for dimension-scale inputs (raise it for genuinely large exchanges).
    """
    import ray
    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ncpu = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    cap = max(2, min(max_parallelism, ncpu))
    ctx.default_hash_shuffle_parallelism = cap
    ctx.max_hash_shuffle_aggregators = cap
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.25
    ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.25
