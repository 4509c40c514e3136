"""A serving replica starts with only what serving uses: no pandas and no
index builder on the ``Searcher`` open and request paths, and one
``ray.remote(Searcher)`` class per driver for every pool."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from astrologer_ray.pipelines.build import build_index
from astrologer_ray.pipelines.segments import append_segment, index_generations
from astrologer_ray.state.searcher import Searcher, _numpy

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the index builder: serving reads the index layout from astrologer_ray.layout
BUILDER = ("astrologer_ray.pipelines.build", "astrologer_ray.stages.spimi")


@pytest.fixture(scope="module")
def index(ray_session, small_corpus_dir, tmp_path_factory):
    index_dir = str(tmp_path_factory.mktemp("coldidx"))
    build_index(small_corpus_dir, index_dir, partition_rows=64)
    return index_dir


@pytest.fixture(scope="module")
def two_gen_index(ray_session, small_corpus_dir, tmp_path_factory):
    """The small corpus as a base index over its first 200 docs in key
    order plus one appended segment holding the rest."""
    d = tmp_path_factory.mktemp("coldgen")
    rows = pq.read_table(small_corpus_dir).sort_by(
        [("repo", "ascending"), ("path", "ascending"), ("commit", "ascending")])
    parts = [str(d / "part-000.parquet"), str(d / "part-001.parquet")]
    pq.write_table(rows.slice(0, 200), parts[0])
    pq.write_table(rows.slice(200), parts[1])
    index_dir = str(d / "idx")
    build_index(parts[:1], index_dir, partition_rows=64)
    append_segment(parts, index_dir, partition_rows=1000)
    return index_dir


def _body(s: Searcher) -> dict:
    """A filtered, aggregated DSL body: ``term`` + ``range`` filters and a
    ``terms`` agg over the doc attributes."""
    term = max(s.df, key=lambda t: (s.df[t], t))
    lang = s.agg_terms("lang", k=1)[0][0]
    return {"size": 5,
            "query": {"bool": {
                "must": [{"match": {"content": term}}],
                "filter": [{"term": {"lang": lang}},
                           {"range": {"dl": {"gte": 5, "lt": 500}}}]}},
            "aggs": {"repos": {"terms": {"field": "repo", "size": 3}}}}


def _run(code: str, *args: str, env: dict | None = None) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    res = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        timeout=600, cwd=REPO, env=dict(os.environ, PYTHONPATH=REPO, **(env or {})))
    assert res.returncode == 0, res.stderr[-3000:]
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("generations", [1, 2])
def test_searcher_open_and_requests_import_no_pandas(index, two_gen_index,
                                                     generations):
    """A fresh interpreter opens the index with and without doc
    attributes and serves a search and a filtered, aggregated DSL body
    without importing pandas or the index builder; its answers equal this
    process's."""
    idx = index if generations == 1 else two_gen_index
    s = Searcher(idx, load_docs=True)
    assert len(index_generations(idx)) == generations
    body = _body(s)
    term = body["query"]["bool"]["must"][0]["match"]["content"]
    code = (
        "import json, sys\n"
        "import astrologer_ray.state.pool\n"
        "from astrologer_ray.state.searcher import Searcher\n"
        "idx, body, term, builder = sys.argv[1], json.loads(sys.argv[2]), "
        "sys.argv[3], sys.argv[4].split(',')\n"
        "seen = ['pandas' in sys.modules]\n"
        "hits = Searcher(idx, load_docs=False).search([term], k=5)\n"
        "seen.append('pandas' in sys.modules)\n"
        "s = Searcher(idx, load_docs=True)\n"
        "seen.append('pandas' in sys.modules)\n"
        "resp = s.run_dsl(body)\n"
        "seen.append('pandas' in sys.modules)\n"
        "built = [m for m in builder if m in sys.modules]\n"
        "print(json.dumps({'seen': seen, 'hits': hits, 'resp': resp, "
        "'built': built}))\n"
    )
    out = _run(code, idx, json.dumps(body), term, ",".join(BUILDER))
    assert out["seen"] == [False] * 4
    assert out["built"] == []
    assert out["hits"] == s.search([term], k=5)
    resp = s.run_dsl(body)
    assert resp["hits"]["total"]["value"] > 0
    assert resp["aggregations"]["repos"]["buckets"]
    assert out["resp"] == json.loads(json.dumps(resp))


def test_pools_share_one_actor_class_and_serve_after_restart(index):
    """A second driver on the session cluster: its pool actors stay
    pandas-free after ``warm()`` and requests, its two pools build one
    actor class, and a pool built after ``ray.shutdown()`` /
    ``ray.init()`` reuses that class and still serves."""
    import ray

    s = Searcher(index, load_docs=True)
    body = _body(s)
    term = body["query"]["bool"]["must"][0]["match"]["content"]
    address = ray.get_runtime_context().gcs_address
    code = (
        "import json, sys, ray\n"
        "addr, idx, body, term = sys.argv[1], sys.argv[2], "
        "json.loads(sys.argv[3]), sys.argv[4]\n"
        "builds, remote = [], ray.remote\n"
        "def spy(**opts):\n"
        "    def deco(cls):\n"
        "        builds.append(cls.__name__)\n"
        "        return remote(**opts)(cls)\n"
        "    return deco\n"
        "ray.remote = spy\n"
        "from astrologer_ray.state.pool import ReplicatedSearchPool\n"
        "def pandas(actor):\n"
        "    return ray.get(actor.__ray_call__.remote(\n"
        "        lambda _s: 'pandas' in __import__('sys').modules))\n"
        "ray.init(address=addr, logging_level='ERROR')\n"
        "a = ReplicatedSearchPool(idx, 1)\n"
        "b = ReplicatedSearchPool(idx, 1, load_docs=True)\n"
        "a.warm(); b.warm()\n"
        "out = {'warm': [pandas(a.actors[0]), pandas(b.actors[0])]}\n"
        "out['hits'] = a.search([term], k=5)\n"
        "out['resp'] = b.execute_dsl(body)\n"
        "out['served'] = [pandas(a.actors[0]), pandas(b.actors[0])]\n"
        "a.shutdown(); b.shutdown()\n"
        "out['builds'] = builds.count('Searcher')\n"
        "ray.shutdown()\n"
        "ray.init(address=addr, logging_level='ERROR')\n"
        "c = ReplicatedSearchPool(idx, 1)\n"
        "out['restart_hits'] = c.search([term], k=5)\n"
        "c.shutdown()\n"
        "out['restart_builds'] = builds.count('Searcher')\n"
        "ray.shutdown()\n"
        "print(json.dumps(out))\n"
    )
    out = _run(code, address, index, json.dumps(body), term,
               env={"RAY_ADDRESS": address})
    assert out["warm"] == [False, False]
    assert out["served"] == [False, False]
    assert out["builds"] == 1 and out["restart_builds"] == 1
    want = s.search([term], k=5)
    assert out["hits"] == want and out["restart_hits"] == want
    assert out["resp"] == json.loads(json.dumps(s.run_dsl(body)))


@pytest.mark.parametrize("typ", [pa.int8(), pa.int32(), pa.int64(),
                                 pa.uint16(), pa.uint64(), pa.float32(),
                                 pa.float64()])
def test_numpy_view_matches_to_numpy(typ):
    """``_numpy`` gives the values and dtype of ``to_numpy()`` for sliced
    and chunked columns; with nulls it needs ``null=``, which fills exactly
    the null slots."""
    vals = np.random.default_rng(7).integers(0, 100, size=50).tolist()
    arr = pa.array(vals, typ)
    for col in (arr, arr.slice(3, 40), arr.slice(50),
                pa.chunked_array([arr.slice(0, 9), arr.slice(20, 11)], typ)):
        want = col.to_numpy()
        got = _numpy(col)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    nulls = pa.array([v if i % 7 else None for i, v in enumerate(vals)], typ)
    for col in (nulls, nulls.slice(5, 30),
                pa.chunked_array([nulls.slice(1, 8), nulls.slice(30)], typ)):
        with pytest.raises(ValueError, match="nulls"):
            _numpy(col)
        got = _numpy(col, null=9)
        want = col.to_numpy(zero_copy_only=False)
        valid = ~np.isnan(want)
        assert got.dtype == np.dtype(typ.to_pandas_dtype())
        assert (got[~valid] == 9).all() and (~valid).any()
        np.testing.assert_array_equal(got[valid], want[valid])
