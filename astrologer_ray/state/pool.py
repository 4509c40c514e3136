"""Query-serving actor pools: replicas, doc-range shards, multiple indexes.

The reference serves queries from Elasticsearch indexes with per-index
shard counts (/root/reference/es/indices.go:28,58,97) and the cluster
scatter-gathers per query. ``ShardedSearchPool`` is the Ray-native analog
partitioned by DOCUMENT (the ES topology): each long-lived actor loads only
the posting chunks of its doc-id range (``chunk_id`` ranges — memory per
actor shrinks with the pool), so every doc it scores has its COMPLETE
multi-term score, computed from corpus-global statistics (df, N, avgdl
from ``stats/meta.json``). Per-actor top-k lists therefore merge EXACTLY by
(score desc, doc_id asc) (property-tested against a single full
Searcher). Term-hash sharding (``Searcher(shards=)``) remains for
term-partitioned placements, where partial scores merge by per-doc sum
instead.

This is the one place the Dataset API genuinely can't express the
topology: ``map_batches`` routes a row to ONE actor, while a sharded query
must reach ALL actors. Ray places, starts, kills and introspects the pool
actors (``ray.remote(Searcher)``); requests do not travel as Ray tasks.
The first time a pool needs an actor it runs :func:`_serve` on it through
``actor.__ray_call__``, which opens an HMAC-authenticated
``multiprocessing.connection`` listener on the node IP Ray reports and
serves one connection from a daemon thread. That persistent connection
(``TCP_NODELAY``) carries every request: one message per actor per pool
call, a list of ``(method, args, kwargs)`` calls answered by a list of
``(ok, value_or_exception)``. Only ``search``, ``phrase_search``,
``search_synonyms`` and ``run_dsl`` are served. A pool sends to every
actor before it reads any reply, so the actors work in parallel; a remote
exception is re-raised with its own type and the remote traceback in its
notes.

Several driver threads may share a pool: each connection carries one
request at a time (a lock is held from send to receive). Calls made
directly on ``pool.actors[i]`` with ``.remote`` run on the actor's Ray
thread, beside the connection thread, and must not overlap pool requests.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import traceback
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


class _ConnectedPool:
    """Request transport of the pools: one connection per actor in
    ``self.actors``, opened on first use."""

    def __init__(self, actors: list):
        self.actors = actors
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

    def shutdown(self) -> None:
        import ray

        with self._mu:
            links, self._links = list(self._links.values()), {}
        for link in links:
            link.conn.close()
        for a in self.actors:
            ray.kill(a)
        self.actors = []


class _ScatterPool(_ConnectedPool):
    """Every request reaches every actor; an actor's documents live
    nowhere else, so a lost actor fails the request."""

    def _where(self, i: int) -> str:
        raise NotImplementedError

    def _scatter(self, calls: list) -> list[list]:
        """Send all ``calls`` to every actor; per call, the actors'
        results in actor order."""
        replies, failed = self._exchange(
            {i: calls for i in range(len(self.actors))})
        if failed:
            i = min(failed)
            raise ConnectionError(
                f"{self._where(i)} is unreachable ({self.actors[i]!r}) and "
                "no other actor holds its documents") from failed[i]
        return [list(col) for col in
                zip(*(_values(replies[i]) for i in range(len(self.actors))))]

    def warm(self) -> None:
        """Open every connection; blocks until every actor has loaded."""
        self._scatter([])


class ShardedSearchPool(_ScatterPool):
    """N long-lived Searcher actors, each owning a disjoint shard group.

    ``search`` scatters one query to every actor and merges; ``search_many``
    sends each actor the whole query list in one message, so every actor
    works through its share at once.
    """

    def __init__(self, index_dir: str, n_actors: int = 4, *,
                 load_docs: bool = False, num_cpus: float = 1.0):
        import ray

        from astrologer_ray.pipelines.build import load_meta
        from astrologer_ray.pipelines.segments import combined_stats
        from astrologer_ray.state.searcher import Searcher

        meta = load_meta(index_dir)
        # doc count spans base + delta segments (pipelines/segments.py)
        n_docs = combined_stats(index_dir)["n_docs"]
        max_chunk = (max(0, n_docs - 1) >> int(meta["chunk_bits"])) + 1
        n_actors = max(1, min(n_actors, max_chunk))
        bounds = np.linspace(0, max_chunk, n_actors + 1).astype(int)
        self.chunk_ranges = [(int(lo), int(hi))
                             for lo, hi in zip(bounds[:-1], bounds[1:])]
        actor_cls = ray.remote(num_cpus=num_cpus)(Searcher)
        super().__init__([actor_cls.remote(index_dir, load_docs=load_docs,
                                           chunk_range=r)
                          for r in self.chunk_ranges])
        self.n_actors = n_actors

    def _where(self, i: int) -> str:
        lo, hi = self.chunk_ranges[i]
        return f"shard {i} (chunks [{lo}, {hi}))"

    def search(self, terms: list[str], k: int = 10, **kw) -> list[dict]:
        (hit_lists,) = self._scatter([("search", (terms,), {"k": k, **kw})])
        return _merge_topk(hit_lists, k)

    def search_many(self, queries: list[tuple[list[str], int]]) -> list[list[dict]]:
        """Batch scatter-gather: queries[i] = (terms, k), every actor gets
        the whole list in one message."""
        per_query = self._scatter([("search", (terms,), {"k": k})
                                   for terms, k in queries])
        return [_merge_topk(hl, k) for hl, (_terms, k) in zip(per_query, queries)]

    def phrase_search(self, terms: list[str], k: int = 10, **kw) -> list[dict]:
        """Scatter a consecutive-phrase query (requires positions=True index).
        Doc-range actors each return complete scores for their docs, so the
        top-k lists merge exactly, same as :meth:`search`."""
        (hit_lists,) = self._scatter(
            [("phrase_search", (terms,), {"k": k, **kw})])
        return _merge_topk(hit_lists, k)

    def search_synonyms(self, groups: list[list[str]], k: int = 10,
                        **kw) -> list[dict]:
        """Scatter a synonym-group query. Exact on this pool topology:
        actors are doc-RANGE shards, so each owns every member's postings
        for its docs and blends tf locally, while df/N come from the
        global dictionary — per-doc scores are complete and the top-k
        lists merge exactly."""
        (hit_lists,) = self._scatter(
            [("search_synonyms", (groups,), {"k": k, **kw})])
        return _merge_topk(hit_lists, k)

    def execute_dsl(self, body: dict, shard_size: int | None = None
                    ) -> dict:
        """Scatter one ES ``_search`` body to every doc-range shard and
        merge (the ES data-node topology): hits merge EXACTLY (each shard
        scores its docs completely from global stats), totals sum, and
        aggregations merge per :func:`astrologer_ray.state.dsl.shard_plan`
        — bucket counts by key, metrics by their merge op, ``terms`` with
        ES shard semantics (``shard_size`` per shard +
        ``doc_count_error_upper_bound``). Unsupported shapes raise
        client-side before any scatter."""
        return self.msearch([body], shard_size)[0]

    def msearch(self, bodies: list[dict],
                shard_size: int | None = None) -> list[dict]:
        """ES ``_msearch`` over the sharded topology: every body is
        scattered to ALL shards (one message per shard), responses merge
        per body in request order."""
        from astrologer_ray.state.dsl import merge_sharded, shard_plan

        plans = [shard_plan(b, shard_size) for b in bodies]
        per_body = self._scatter([("run_dsl", (sb,), {}) for sb, _ in plans])
        return [merge_sharded(resps, plan)
                for resps, (_sb, plan) in zip(per_body, plans)]


class ReplicatedSearchPool(_ConnectedPool):
    """N full-index Searcher replicas; each query routes to ONE actor.

    The ES replica topology (replicas serve whole queries, cf. the
    reference's per-index shard/replica settings,
    /root/reference/es/indices.go:28,58,97): adding replicas scales QPS
    until the node's memory bandwidth saturates, and every query costs one
    round trip instead of ``ShardedSearchPool``'s scatter-gather fan-out.
    Prefer replicas when the index fits comfortably in one actor's heap;
    prefer doc-range shards when per-actor memory (or bandwidth per
    working set) is the constraint.

    A replica whose connection fails (EOF, reset, broken pipe) leaves the
    rotation and its share of the request is resent to the next live
    replica; with none left the request raises ``ConnectionError``.
    """

    def __init__(self, index_dir: str, n_actors: int = 4, *,
                 load_docs: bool = False, num_cpus: float = 1.0):
        import ray

        from astrologer_ray.state.searcher import Searcher

        actor_cls = ray.remote(num_cpus=num_cpus)(Searcher)
        super().__init__([actor_cls.remote(index_dir, load_docs=load_docs)
                          for _ in range(max(1, n_actors))])
        self.n_actors = len(self.actors)
        self._live = list(range(self.n_actors))
        self._rr = 0

    def _drop(self, failed: dict[int, Exception]) -> dict[int, int]:
        """Take the failed replicas out of the rotation; returns each one's
        successor among the live replicas."""
        with self._mu:
            self._live = [i for i in self._live if i not in failed]
            live = list(self._live)
        if not live:
            raise ConnectionError(
                "no live replica left: " + ", ".join(map(repr, self.actors))
            ) from next(iter(failed.values()), None)
        return {i: next((j for j in live if j > i), live[0]) for i in failed}

    def _route(self, calls: list) -> list:
        """Serve ``calls`` round-robin over the live replicas, one message
        per replica; returns the values in call order."""
        with self._mu:
            live = list(self._live)
            start = self._rr
            self._rr += len(calls)
        if not live:
            self._drop({})  # raises: every replica was lost before
        shares: dict[int, list[int]] = {}
        for p in range(len(calls)):
            shares.setdefault(live[(start + p) % len(live)], []).append(p)
        out: list = [None] * len(calls)
        while shares:
            replies, failed = self._exchange(
                {i: [calls[p] for p in ps] for i, ps in shares.items()})
            for i, rs in replies.items():
                for p, r in zip(shares[i], rs):
                    out[p] = r
            resend: dict[int, list[int]] = {}
            if failed:
                for i, j in self._drop(failed).items():
                    resend.setdefault(j, []).extend(shares[i])
            shares = resend
        return _values(out)

    def warm(self) -> None:
        """Open every replica's connection; blocks until every replica has
        loaded its index state (a dead one leaves the rotation)."""
        _replies, failed = self._exchange({i: [] for i in self._live})
        if failed:
            self._drop(failed)

    def search(self, terms: list[str], k: int = 10, **kw) -> list[dict]:
        return self._route([("search", (terms,), {"k": k, **kw})])[0]

    def search_many(self, queries: list[tuple[list[str], int]]) -> list[list[dict]]:
        """Round-robin of whole queries; each replica gets its share in one
        message, all sent before any reply is read."""
        return self._route([("search", (terms,), {"k": k})
                            for terms, k in queries])

    def msearch(self, bodies: list[dict]) -> list[dict]:
        """ES ``_msearch``: N ``_search`` request bodies served in one
        round trip — each body routes whole to one replica (round-robin,
        one message per replica), responses return in request order like
        ES's ``responses`` array. Bodies that touch doc attrs (aggs, sort,
        top_hits, ...) need the pool built with ``load_docs=True``."""
        return self._route([("run_dsl", (b,), {}) for b in bodies])


class MultiIndexSearchPool(_ScatterPool):
    """ES multi-index search (``GET /idx1,idx2/_search``): one Searcher
    actor per INDEX; a request scatters to every index and responses
    merge with the same contract as doc-range shards.

    This is the time-partitioned-indices topology (the classic ES
    operating pattern the reference's ingest feeds: one index per
    period, queries span several). Semantics follow ES's default
    ``query_then_fetch``: each index scores its hits from ITS OWN
    statistics (df/N/avgdl), merged by score as-is — identical text can
    rank differently across indexes, exactly as in ES. Every hit
    carries ``_index`` (the index directory's basename). Doc ids are
    per-index; (score desc, doc_id asc) ordering is made deterministic
    across indexes by the stable merge (ties keep request index order).

    Each actor re-analyzes the request body with its own index's
    tokenizer mode (translation happens inside ``run_dsl``), so mixed
    ``simple``/``code`` indexes compose correctly on the DSL path.
    """

    def __init__(self, index_dirs: list[str], *, load_docs: bool = False,
                 num_cpus: float = 1.0):
        import ray

        from astrologer_ray.state.searcher import Searcher

        if not index_dirs:
            raise ValueError("MultiIndexSearchPool needs >= 1 index dir")
        actor_cls = ray.remote(num_cpus=num_cpus)(Searcher)
        super().__init__([actor_cls.remote(d, load_docs=load_docs)
                          for d in index_dirs])
        self.names = [os.path.basename(os.path.normpath(d))
                      for d in index_dirs]

    def _where(self, i: int) -> str:
        return f"index {self.names[i]!r}"

    def _label(self, resps: list[dict]) -> list[dict]:
        for name, r in zip(self.names, resps):
            for h in r["hits"]["hits"]:
                h["_index"] = name
        return resps

    def search(self, terms: list[str], k: int = 10, **kw) -> list[dict]:
        """Plain BM25 top-k across all indexes (pre-tokenized terms —
        indexes must share an analyzer mode on this path; use
        :meth:`execute_dsl` for mixed modes)."""
        (hit_lists,) = self._scatter([("search", (terms,), {"k": k, **kw})])
        for name, hits in zip(self.names, hit_lists):
            for h in hits:
                h["_index"] = name
        return _merge_topk(hit_lists, k)

    def execute_dsl(self, body: dict, shard_size: int | None = None
                    ) -> dict:
        """Scatter one ES ``_search`` body to every index and merge:
        hits by (score desc, doc_id asc; ties keep index order), totals
        sum, aggregations by the :func:`~astrologer_ray.state.dsl.
        shard_plan` per-kind merge ops (bucket counts by key sum across
        indexes — exact)."""
        return self.msearch([body], shard_size)[0]

    def msearch(self, bodies: list[dict],
                shard_size: int | None = None) -> list[dict]:
        """ES ``_msearch`` across indexes: every body scatters to ALL
        indexes (one message per index), merged per body in request
        order."""
        from astrologer_ray.state.dsl import merge_sharded, shard_plan

        plans = [shard_plan(b, shard_size) for b in bodies]
        per_body = self._scatter([("run_dsl", (sb,), {}) for sb, _ in plans])
        return [merge_sharded(self._label(resps), plan)
                for resps, (_sb, plan) in zip(per_body, plans)]
