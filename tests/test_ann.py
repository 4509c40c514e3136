

def test_pca_matches_numpy_and_is_partition_invariant(ray_session):
    """Distributed PCA fit == single-node numpy PCA (same covariance,
    same components up to the fixed sign), invariant to partitioning;
    projection preserves pairwise distances spanned by the kept dims."""
    import numpy as np
    import ray.data as rd

    from astrologer_ray.pipelines.ann import pca_fit, pca_project

    rng = np.random.default_rng(5)
    # anisotropic cloud: variance concentrated in a few directions
    basis = rng.normal(size=(8, 8))
    X = rng.normal(size=(600, 8)) @ (basis * [8, 4, 2, 1, .5, .2, .1, .05])
    rows = [{"vec_id": i, "embedding": X[i].astype(np.float32).tolist()}
            for i in range(len(X))]

    def fit(parts):
        return pca_fit(rd.from_items(rows).repartition(parts), 3)

    c1, m1, ev1 = fit(4)
    c2, m2, ev2 = fit(2)
    np.testing.assert_allclose(c1, c2, atol=1e-9)   # partition-invariant
    Xf = np.stack([np.asarray(r["embedding"], np.float64) for r in rows])
    np.testing.assert_allclose(m1, Xf.mean(axis=0), atol=1e-9)
    cov = np.cov(Xf.T, bias=True)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(-w)[:3]
    want = v[:, order]
    flip = want[np.abs(want).argmax(axis=0), np.arange(3)] < 0
    want[:, flip] *= -1.0
    np.testing.assert_allclose(c1, want, atol=1e-8)  # == numpy PCA
    np.testing.assert_allclose(ev1, w[order], rtol=1e-8)
    # projection: top-3 captures almost all variance of this cloud
    out = (pca_project(rd.from_items(rows), c1, m1)
           .to_pandas().sort_values("vec_id"))
    P = np.stack(out["embedding_pca"].to_numpy()).astype(np.float64)
    assert P.shape == (600, 3)
    assert P.var(axis=0).sum() / Xf.var(axis=0).sum() > 0.9


def test_pca_fit_skips_empty_blocks(ray_session):
    """A filter that empties most blocks fits the same PCA as the
    surviving rows alone; a dataset with no rows left is a clear error."""
    import numpy as np
    import pytest
    import ray.data as rd

    from astrologer_ray.pipelines.ann import pca_fit

    X = np.random.default_rng(9).normal(size=(200, 5)) * [5, 3, 2, 1, .5]
    rows = [{"vec_id": i, "embedding": X[i].tolist()} for i in range(200)]
    ds = rd.from_items(rows).repartition(8)
    got = pca_fit(ds.filter(lambda r: r["vec_id"] < 40), 2)
    want = pca_fit(rd.from_items(rows[:40]), 2)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, atol=1e-9)
    with pytest.raises(ValueError, match="no 'embedding' rows"):
        pca_fit(ds.filter(lambda r: False), 2)
