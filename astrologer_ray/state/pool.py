"""Query-serving actor pools: one shards x replicas topology.

The reference configures each Elasticsearch index with a shard count and
a replica count (the reference's ``es/indices.go:28,58,97``). A pool here is
the same idea over ``ray.remote(Searcher)`` actors: a list of *groups*,
each a list of actors holding the same documents. A request reaches one
live replica of every group. The three public classes only build the
groups:

- ``ReplicatedSearchPool``: one group of N full-index replicas;
- ``ShardedSearchPool``: one group per doc-id chunk range. Each actor
  loads only its range's posting chunks and scores every doc it holds
  completely from corpus-global statistics (df, N, avgdl), so per-group
  top-k lists merge EXACTLY by (score desc, doc_id asc);
- ``MultiIndexSearchPool``: one group per index, each scoring from its
  own statistics (ES ``query_then_fetch``); hits carry ``_index``.

Answers merge only when a pool has more than one group. Within a group,
calls go round-robin over its live replicas; a replica whose connection
fails leaves its group and its share goes to the group's next live
replica, and a group with no live replica left fails the request with an
error naming the group and its actors.

Every pool's actors come from one ``ray.remote(Searcher)`` class per
``num_cpus``, built once per driver (:func:`_searchers`), so only the
first pool pays for exporting it to the cluster.

This is the one place the Dataset API can't express the topology:
``map_batches`` routes a row to ONE actor, while a sharded query must
reach every group. Ray places, starts, kills and introspects the pool
actors; requests do not travel as Ray tasks. The first time a pool needs
an actor it runs :func:`_serve` on it through ``actor.__ray_call__``,
which opens an HMAC-authenticated ``multiprocessing.connection``
listener on the node IP Ray reports and serves one connection from a
daemon thread. That persistent connection (``TCP_NODELAY``) carries
every request: one message per actor per pool call, a list of
``(method, args, kwargs)`` calls answered by a list of
``(ok, value_or_exception)``. Only ``search``, ``phrase_search``,
``search_synonyms`` and ``run_dsl`` are served. A pool sends to every
actor before it reads any reply, so the actors work in parallel; a
remote exception is re-raised with its own type and the remote traceback
in its notes.

Several driver threads may share a pool: each connection carries one
request at a time (a lock is held from send to receive). Calls made
directly on ``pool.actors[i]`` with ``.remote`` run on the actor's Ray
thread, beside the connection thread, and must not overlap pool requests.
"""

from __future__ import annotations

import functools
import os
import pickle
import socket
import threading
import traceback
import warnings
from multiprocessing.connection import AuthenticationError, Client, Listener

import numpy as np

_SERVED = frozenset({"search", "phrase_search", "search_synonyms", "run_dsl"})
# what a dead or killed actor's connection raises (EOF, reset, broken pipe)
_DOWN = (EOFError, OSError)


def _merge_topk(hit_lists: list[list[dict]], k: int) -> list[dict]:
    """Exact merge of per-shard top-k: (score desc, doc_id asc), re-ranked."""
    all_hits = [h for hits in hit_lists for h in hits]
    if not all_hits:
        return []
    scores = np.array([h["score"] for h in all_hits])
    ids = np.array([h["doc_id"] for h in all_hits])
    order = np.lexsort((ids, -scores))[:k]
    out = []
    for rank, i in enumerate(order):
        h = dict(all_hits[int(i)])
        h["rank"] = rank
        out.append(h)
    return out


# -- actor side -----------------------------------------------------------------

def _nodelay(conn):
    """Turn off Nagle's algorithm on ``conn``'s socket. ``Connection``
    writes the header and the payload of a message above 16 KB separately,
    and Nagle would hold the payload until the peer's delayed ACK (~40 ms)."""
    sock = socket.socket(fileno=conn.fileno())
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    finally:
        sock.detach()
    return conn


def _serve(searcher) -> tuple[tuple[str, int], bytes]:
    """``actor.__ray_call__`` target: listen on the node IP with a fresh
    key, serve the first authenticated connection from a daemon thread, and
    return ``(address, authkey)``."""
    import ray

    key = os.urandom(32)
    listener = Listener((ray.util.get_node_ip_address(), 0), authkey=key)
    threading.Thread(target=_serve_connection, args=(searcher, listener),
                     daemon=True, name="pool-connection").start()
    return listener.address, key


def _serve_connection(searcher, listener) -> None:
    """Accept one connection that passes the HMAC challenge (a failed one is
    dropped before anything is unpickled), then answer its messages in
    order until EOF."""
    with listener:
        while True:
            try:
                conn = listener.accept()
                break
            except (AuthenticationError, EOFError, OSError):
                continue
    with _nodelay(conn):
        while True:
            try:
                calls = pickle.loads(conn.recv_bytes())
            except _DOWN:
                return
            replies = [_answer(searcher, *call) for call in calls]
            try:
                msg = pickle.dumps(replies, pickle.HIGHEST_PROTOCOL)
            except Exception as e:  # a value that does not pickle
                msg = pickle.dumps([(False, _portable(e))] * len(calls),
                                   pickle.HIGHEST_PROTOCOL)
            try:
                conn.send_bytes(msg)
            except _DOWN:
                return


def _answer(searcher, method: str, args: tuple, kwargs: dict) -> tuple:
    try:
        if method not in _SERVED:
            raise ValueError(f"pool connections do not serve {method!r}")
        return True, getattr(searcher, method)(*args, **kwargs)
    except Exception as e:
        return False, _portable(e)


def _portable(exc: Exception) -> Exception:
    """``exc`` with its traceback as a note, or a ``RuntimeError`` naming it
    when it does not survive a pickle round trip."""
    tb = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        exc = RuntimeError(f"{type(exc).__qualname__}: {exc}")
    exc.add_note(f"remote traceback (pool actor pid {os.getpid()}):\n{tb}")
    return exc


# -- driver side ----------------------------------------------------------------

class _Link:
    """One actor's request connection; ``lock`` is held from send to
    receive."""

    __slots__ = ("conn", "lock")

    def __init__(self, actor):
        import ray

        address, key = ray.get(actor.__ray_call__.remote(_serve))
        self.conn = _nodelay(Client(address, authkey=key))
        self.lock = threading.Lock()


def _values(replies: list[tuple]) -> list:
    """The values of ``(ok, value)`` replies; a failed call re-raises."""
    for ok, v in replies:
        if not ok:
            raise v
    return [v for _ok, v in replies]


class _Pool:
    """Actors in groups; a group's actors hold the same documents, and a
    request reaches one live replica of every group. Answers merge only
    when there is more than one group (:func:`_merge_topk` for hits,
    ``shard_plan`` + ``merge_sharded`` for DSL bodies); with one group
    the replica's answer is returned as it is. ``labels`` (one per
    group) tag every hit with ``_index``. Connections open on first use,
    one per actor in ``self.actors``."""

    def __init__(self, where: list[str], groups: list[list],
                 labels: list[str] | None = None):
        self.actors = [a for g in groups for a in g]
        self._where = where
        self._labels = labels
        ids = iter(range(len(self.actors)))
        self._groups = [[next(ids) for _ in g] for g in groups]
        self._live = [list(g) for g in self._groups]
        self._rr = 0
        self._links: dict[int, _Link] = {}
        self._mu = threading.Lock()

    def _link(self, i: int) -> _Link:
        import ray

        with self._mu:
            if i not in self._links:
                try:
                    self._links[i] = _Link(self.actors[i])
                except ray.exceptions.RayActorError as e:
                    raise ConnectionError(f"{self.actors[i]!r} is dead") from e
            return self._links[i]

    def _unlink(self, i: int, link: _Link) -> None:
        with self._mu:
            if self._links.get(i) is link:
                del self._links[i]
        link.conn.close()

    def _exchange(self, shares: dict[int, list]
                  ) -> tuple[dict[int, list], dict[int, Exception]]:
        """Send each actor ``i`` its calls ``shares[i]`` as one message, all
        sends before any receive, then read every reply. Returns the replies
        (``(ok, value)`` per call) and the transport error of each actor
        whose connection failed; a failed link is closed."""
        msgs = {i: pickle.dumps(shares[i], pickle.HIGHEST_PROTOCOL)
                for i in sorted(shares)}
        links, failed, raw = {}, {}, {}
        for i in msgs:
            try:
                links[i] = self._link(i)
            except _DOWN as e:
                failed[i] = e
        held = []
        try:
            for i, link in links.items():  # ascending: no lock-order cycle
                link.lock.acquire()
                held.append((i, link))
            sent = []
            for i, link in held:
                try:
                    link.conn.send_bytes(msgs[i])
                    sent.append(i)
                except _DOWN as e:
                    failed[i] = e
            for i in sent:
                try:
                    raw[i] = links[i].conn.recv_bytes()
                except _DOWN as e:
                    failed[i] = e
        finally:
            for i, link in held:
                if i not in raw:  # failed or interrupted: out of step
                    self._unlink(i, link)
                link.lock.release()
        return {i: pickle.loads(b) for i, b in raw.items()}, failed

    def _route(self, calls: list) -> list[list]:
        """Serve ``calls`` on every group: within a group they go
        round-robin over its live replicas, one message per actor, every
        send before any receive. A replica whose connection fails leaves
        its group and its share is resent to the group's next live
        replica; a group left with none raises ``ConnectionError``. With
        no calls, every live actor gets an empty message, answered once
        it has loaded. Returns, per group, the values in call order; a
        failed call re-raises."""
        with self._mu:
            live = [list(g) for g in self._live]
            start = self._rr
            self._rr += len(calls)
        shares: dict[int, list[tuple[int, int]]] = {}
        for g, members in enumerate(live):
            if not members:
                raise self._lost(g)
            if not calls:
                shares.update((i, []) for i in members)
            for p in range(len(calls)):
                shares.setdefault(members[(start + p) % len(members)],
                                  []).append((g, p))
        out = [[None] * len(calls) for _ in live]
        while shares:
            replies, failed = self._exchange(
                {i: [calls[p] for _g, p in s] for i, s in shares.items()})
            for i, rs in replies.items():
                for (g, p), r in zip(shares[i], rs):
                    out[g][p] = r
            resend: dict[int, list[tuple[int, int]]] = {}
            for i, err in failed.items():
                g = next(g for g, m in enumerate(self._groups) if i in m)
                with self._mu:
                    self._live[g] = left = [j for j in self._live[g] if j != i]
                if not left:
                    raise self._lost(g) from err
                j = next((j for j in left if j > i), left[0])
                resend.setdefault(j, []).extend(shares[i])
            shares = resend
        return [_values(col) for col in out]

    def _lost(self, g: int) -> ConnectionError:
        return ConnectionError(
            f"{self._where[g]} has no live replica left: "
            + ", ".join(repr(self.actors[i]) for i in self._groups[g]))

    def _hits(self, calls: list, ks: list[int]) -> list[list[dict]]:
        """Hit lists for ``calls``, labeled, merged across groups."""
        per_group = self._route(calls)
        for name, lists in zip(self._labels or (), per_group):
            for hits in lists:
                for h in hits:
                    h["_index"] = name
        if len(per_group) == 1:
            return per_group[0]
        return [_merge_topk([lists[p] for lists in per_group], k)
                for p, k in enumerate(ks)]

    def warm(self) -> None:
        """Open every connection; blocks until every actor has loaded its
        index state (a dead replica leaves its group)."""
        self._route([])

    def search(self, terms: list[str], k: int = 10, **kw) -> list[dict]:
        """BM25 top-k of pre-tokenized ``terms`` (indexes in one pool must
        share an analyzer mode on this path; DSL bodies are analyzed by
        each actor)."""
        return self._hits([("search", (terms,), {"k": k, **kw})], [k])[0]

    def search_many(self, queries: list[tuple[list[str], int]]
                    ) -> list[list[dict]]:
        """``queries[i] = (terms, k)``; each actor gets its whole share in
        one message."""
        return self._hits([("search", (terms,), {"k": k})
                           for terms, k in queries], [k for _t, k in queries])

    def phrase_search(self, terms: list[str], k: int = 10, **kw) -> list[dict]:
        """Consecutive-phrase top-k (the index needs ``positions=True``)."""
        return self._hits([("phrase_search", (terms,), {"k": k, **kw})],
                          [k])[0]

    def search_synonyms(self, groups: list[list[str]], k: int = 10,
                        **kw) -> list[dict]:
        """Synonym-group top-k: an actor blends its docs' tf over each
        group, with df / N from the global dictionary."""
        return self._hits([("search_synonyms", (groups,), {"k": k, **kw})],
                          [k])[0]

    def execute_dsl(self, body: dict, shard_size: int | None = None) -> dict:
        """One ES ``_search`` body: ``msearch([body], shard_size)[0]``."""
        return self.msearch([body], shard_size)[0]

    def msearch(self, bodies: list[dict],
                shard_size: int | None = None) -> list[dict]:
        """ES ``_msearch``: responses in request order. Across groups each
        body runs rewritten by ``shard_plan`` and the responses merge by
        ``merge_sharded``: hits exactly by (score desc, doc_id asc), totals
        sum, aggregations by key or by their merge op, ``terms`` with ES
        shard semantics (``shard_size`` per group +
        ``doc_count_error_upper_bound``); a shape that does not merge
        raises before anything is sent. Bodies that touch doc attributes
        (aggs, sort, top_hits, ...) need the pool built with
        ``load_docs=True``."""
        merge = len(self._groups) > 1
        if merge:
            from astrologer_ray.state.dsl import merge_sharded, shard_plan

            plans = [shard_plan(b, shard_size) for b in bodies]
            bodies = [sb for sb, _plan in plans]
        per_group = self._route([("run_dsl", (b,), {}) for b in bodies])
        for name, resps in zip(self._labels or (), per_group):
            for r in resps:
                for h in r["hits"]["hits"]:
                    h["_index"] = name
        if not merge:
            return per_group[0]
        return [merge_sharded([resps[p] for resps in per_group], plan)
                for p, (_sb, plan) in enumerate(plans)]

    def shutdown(self) -> None:
        import ray

        with self._mu:
            links, self._links = list(self._links.values()), {}
        for link in links:
            link.conn.close()
        for a in self.actors:
            ray.kill(a)
        self.actors = []


@functools.cache
def _searchers(num_cpus: float):
    """The ``ray.remote(Searcher)`` class for ``num_cpus``, built once per
    driver. The first ``.remote()`` on a new class exports it (0.12-0.17 s
    of a pool's set-up on one core); Ray re-exports a kept class by itself
    after ``ray.shutdown()`` / ``ray.init()``."""
    import ray

    from astrologer_ray.state.searcher import Searcher

    return ray.remote(num_cpus=num_cpus)(Searcher)


def _name(index_dir: str) -> str:
    return os.path.basename(os.path.normpath(index_dir))


class ReplicatedSearchPool(_Pool):
    """One group of ``n_actors`` full-index replicas: each query routes
    to ONE of them (the ES replica topology). Replicas scale QPS until the
    node's memory bandwidth saturates, and a query costs one round trip
    instead of a scatter-gather fan-out; prefer doc-range shards when
    per-actor memory is the constraint."""

    def __init__(self, index_dir: str, n_actors: int = 4, *,
                 load_docs: bool = False, num_cpus: float = 1.0):
        cls = _searchers(num_cpus)
        super().__init__(
            [f"index {_name(index_dir)!r}"],
            [[cls.remote(index_dir, load_docs=load_docs)
              for _ in range(max(1, n_actors))]])


class ShardedSearchPool(_Pool):
    """One group per doc-id chunk range, ``n_actors`` ranges at most (one
    per chunk; asking for more warns and serves one range per chunk): each
    actor loads only its range's posting chunks and doc attributes, so
    memory per actor shrinks with the pool, and every doc it scores has its
    complete score from corpus-global statistics."""

    def __init__(self, index_dir: str, n_actors: int = 4, *,
                 load_docs: bool = False, num_cpus: float = 1.0):
        from astrologer_ray.layout import load_meta
        from astrologer_ray.pipelines.segments import combined_stats

        meta = load_meta(index_dir)
        # doc count spans base + delta segments (pipelines/segments.py)
        n_docs = combined_stats(index_dir)["n_docs"]
        max_chunk = (max(0, n_docs - 1) >> int(meta["chunk_bits"])) + 1
        if n_actors > max_chunk:
            warnings.warn(
                f"ShardedSearchPool: {n_actors} shards requested, but "
                f"{_name(index_dir)!r} has {max_chunk} doc-id chunk(s) of "
                f"2**{meta['chunk_bits']} docs, so {max_chunk} range(s) are "
                "served (build with a smaller chunk_bits for more)",
                UserWarning, stacklevel=2)
        n_actors = max(1, min(n_actors, max_chunk))
        bounds = np.linspace(0, max_chunk, n_actors + 1).astype(int).tolist()
        ranges = list(zip(bounds[:-1], bounds[1:]))
        cls = _searchers(num_cpus)
        super().__init__(
            [f"shard {i} (chunks [{lo}, {hi}))"
             for i, (lo, hi) in enumerate(ranges)],
            [[cls.remote(index_dir, load_docs=load_docs, chunk_range=r)]
             for r in ranges])


class MultiIndexSearchPool(_Pool):
    """ES multi-index search (``GET /idx1,idx2/_search``): one group per
    INDEX, one actor each, and every hit carries ``_index`` (the index
    directory's basename).

    The time-partitioned-indices topology (one index per period, queries
    span several). Semantics follow ES's default ``query_then_fetch``:
    each index scores its hits from ITS OWN statistics (df/N/avgdl) and
    the hits merge by score as they are, so identical text can rank
    differently across indexes, exactly as in ES. Doc ids are per index;
    ties keep request index order (stable merge). Each actor analyzes a
    DSL body with its own index's tokenizer mode, so mixed
    ``simple``/``code`` indexes compose on the DSL path."""

    def __init__(self, index_dirs: list[str], *, load_docs: bool = False,
                 num_cpus: float = 1.0):
        if not index_dirs:
            raise ValueError("MultiIndexSearchPool needs >= 1 index dir")
        cls = _searchers(num_cpus)
        names = [_name(d) for d in index_dirs]
        super().__init__([f"index {n!r}" for n in names],
                         [[cls.remote(d, load_docs=load_docs)]
                          for d in index_dirs], labels=names)
