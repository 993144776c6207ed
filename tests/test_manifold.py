import numpy as np
import pytest

from mvrom import autodiff as ad
from mvrom import manifold as mf


@pytest.fixture(scope="module")
def klein_cloud():
    return mf.build_klein_pointcloud(mf.KleinConfig(resolution=128))


@pytest.fixture(scope="module")
def torus_cloud():
    return mf.build_torus_pointcloud(resolution=128)


@pytest.fixture(scope="module")
def circle_cloud():
    return mf.build_torus_pointcloud(resolution=512, radii=(1.0,))


def fd_jacobian(fn, w, h=1e-5):
    w = np.asarray(w, dtype=np.float64)
    cols = []
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        cols.append((fn(w + e) - fn(w - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def project_torus(w):
    """(z, J) of the analytic torus projection of one point."""
    Z, J, flagged = mf.AnalyticTorus().project(np.asarray(w)[None, :])
    assert not flagged.any()
    return Z[0], J[0]


# ---------------------------------------------------------------------------
# analytic torus projection


def test_project_torus_axis_points():
    z, _ = project_torus(np.array([2.0, 0.0, 0.0, 3.0]))
    np.testing.assert_allclose(z, [1.0, 0.0, 0.0, 1.0])


def test_project_torus_idempotent_on_manifold():
    w = np.array([np.cos(0.3), np.sin(0.3), np.cos(2.1), np.sin(2.1)])
    z, J = project_torus(w)
    np.testing.assert_allclose(z, w, atol=1e-15)
    # tangent projector blocks: symmetric, idempotent
    np.testing.assert_allclose(J, J.T, atol=1e-14)
    np.testing.assert_allclose(J @ J, J, atol=1e-14)
    assert np.trace(J) == pytest.approx(2.0)


def test_project_torus_constraint_residual():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(50, 4)) * 2 + 0.5
    Z, _, _ = mf.AnalyticTorus().project(W)
    np.testing.assert_allclose(np.sum(Z[:, :2] ** 2, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(Z[:, 2:] ** 2, axis=1), 1.0, atol=1e-12)


def test_project_torus_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.normal(size=4)
        w[[0, 2]] += np.sign(w[[0, 2]]) * 0.5  # keep pairs off the centers
        _, J = project_torus(w)
        J_fd = fd_jacobian(lambda v: project_torus(v)[0], w)
        assert np.abs(J - J_fd).max() / (1 + np.abs(J_fd).max()) < 1e-8


def test_project_torus_rejects_center():
    with pytest.raises(mf.ProjectionError, match="circle center"):
        mf.AnalyticTorus().project(np.array([[0.0, 0.0, 1.0, 0.0]]))
    with pytest.raises(mf.ProjectionError, match="\\(B, 4\\)"):
        mf.AnalyticTorus().project(np.array([1.0, 0.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# surfaces


def test_klein_surface_plug_in_points():
    surf = mf.KleinSurface(2.0, 1.0)
    sigma, _, _ = surf.frames(np.array([0.0, 0.0]))
    np.testing.assert_allclose(sigma, [3.0, 0.0, 0.0, 0.0], atol=1e-15)
    sigma, _, _ = surf.frames(np.array([np.pi, np.pi / 2]))
    np.testing.assert_allclose(sigma, [-2.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_klein_surface_requires_embedding_regularity():
    with pytest.raises(ValueError):
        mf.KleinSurface(1.0, 1.0)
    with pytest.raises(ValueError):
        mf.KleinConfig(a=1.0, b=2.0)


@pytest.mark.parametrize(
    "surf",
    [mf.KleinSurface(2.0, 1.0), mf.ProductCirclesSurface((1.0, 1.0)), mf.ProductCirclesSurface((1.0,))],
    ids=["klein", "torus", "circle"],
)
def test_surface_derivatives_match_finite_differences(surf):
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(10):
        u = rng.uniform(0, 2 * np.pi, size=surf.m)
        sigma, jac, hess = surf.frames(u)
        for i in range(surf.m):
            e = np.zeros(surf.m)
            e[i] = h
            fd_jac = (surf.frames(u + e)[0] - surf.frames(u - e)[0]) / (2 * h)
            np.testing.assert_allclose(jac[:, i], fd_jac, atol=1e-8)
            fd_hess = (surf.frames(u + e)[1] - surf.frames(u - e)[1]) / (2 * h)
            np.testing.assert_allclose(hess[:, :, i], fd_hess, atol=1e-7)
        # immersion: full column rank
        assert np.linalg.matrix_rank(jac) == surf.m


def test_klein_canonicalize_preserves_embedding():
    surf = mf.KleinSurface(2.0, 1.0)
    rng = np.random.default_rng(3)
    U = rng.uniform(-6 * np.pi, 6 * np.pi, size=(40, 2))
    V = surf.canonicalize(U)
    assert np.all(V[:, 0] >= 0) and np.all(V[:, 0] < 2 * np.pi + 1e-12)
    np.testing.assert_allclose(surf.frames(V)[0], surf.frames(U)[0], atol=1e-10)


# ---------------------------------------------------------------------------
# point clouds


def test_klein_cloud_construction(klein_cloud):
    assert klein_cloud.m == 2 and klein_cloud.n == 4
    assert klein_cloud.num_points == 128 * 128
    sigma, _, _ = klein_cloud.surface.frames(klein_cloud.chart_params)
    np.testing.assert_allclose(sigma, klein_cloud.points, atol=1e-12)


def test_cloud_resolution_floor():
    with pytest.raises(ValueError):
        mf.build_klein_pointcloud(mf.KleinConfig(resolution=32))


def test_cloud_points_reproject_to_themselves(klein_cloud):
    rng = np.random.default_rng(4)
    pick = rng.choice(klein_cloud.num_points, size=400, replace=False)
    batch = mf.nearest_point_batch(klein_cloud.points[pick], klein_cloud)
    assert np.abs(batch.z - klein_cloud.points[pick]).max() < 1e-9
    assert not batch.degraded.any()


def test_coarse_phase_matches_brute_force(klein_cloud):
    rng = np.random.default_rng(5)
    W = rng.normal(size=(100, 4)) * 2.0
    batch = mf.nearest_point_batch(W, klein_cloud)
    d2 = ((W[:, None, :] - klein_cloud.points[None, :, :]) ** 2).sum(axis=2)
    brute = np.argmin(d2, axis=1)
    np.testing.assert_array_equal(batch.coarse_index, brute)


def test_projection_far_point_snaps_to_outer_circle(klein_cloud):
    w = 2.0 * np.array([3.0, 0.0, 0.0, 0.0])  # 2 * (a + b) along the first axis
    res = mf.nearest_point_batch(w[None], klein_cloud)
    np.testing.assert_allclose(res.z[0], [3.0, 0.0, 0.0, 0.0], atol=1e-8)
    # brute force over the dense cloud agrees
    d2 = ((klein_cloud.points - w) ** 2).sum(axis=1)
    np.testing.assert_allclose(
        klein_cloud.points[np.argmin(d2)], [3.0, 0.0, 0.0, 0.0], atol=1e-6
    )


def test_pointcloud_torus_matches_analytic_projection(torus_cloud):
    rng = np.random.default_rng(6)
    W = rng.normal(size=(300, 4))
    W[:, 0] += np.sign(W[:, 0]) * 0.4
    W[:, 2] += np.sign(W[:, 2]) * 0.4
    keep = (np.linalg.norm(W[:, :2], axis=1) > 0.3) & (np.linalg.norm(W[:, 2:], axis=1) > 0.3)
    W = W[keep]
    batch = mf.nearest_point_batch(W, torus_cloud)
    Z, _, _ = mf.AnalyticTorus().project(W)
    assert np.abs(batch.z - Z).max() < 1e-6


def test_projection_first_order_optimality(klein_cloud):
    rng = np.random.default_rng(7)
    base = klein_cloud.points[rng.choice(klein_cloud.num_points, size=100, replace=False)]
    W = base + rng.normal(size=base.shape) * 0.1
    batch = mf.nearest_point_batch(W, klein_cloud)
    assert batch.grad_norm.max() < 1e-9
    assert not batch.degraded.any()


def test_projection_idempotent(klein_cloud):
    rng = np.random.default_rng(8)
    base = klein_cloud.points[rng.choice(klein_cloud.num_points, size=100, replace=False)]
    W = base + rng.normal(size=base.shape) * 0.15
    once = mf.nearest_point_batch(W, klein_cloud)
    twice = mf.nearest_point_batch(once.z, klein_cloud)
    assert np.abs(twice.z - once.z).max() < 1e-9


def test_projection_nonexpansive_near_manifold(torus_cloud):
    rng = np.random.default_rng(9)
    base = torus_cloud.points[rng.choice(torus_cloud.num_points, size=200, replace=False)]
    Wa = base + rng.normal(size=base.shape) * 0.1
    Wb = Wa + rng.normal(size=base.shape) * 0.05
    za = mf.nearest_point_batch(Wa, torus_cloud).z
    zb = mf.nearest_point_batch(Wb, torus_cloud).z
    num = np.linalg.norm(za - zb, axis=1)
    den = np.linalg.norm(Wa - Wb, axis=1)
    assert np.all(num <= 2.0 * den + 1e-12)


def test_projection_input_validation(klein_cloud):
    with pytest.raises(mf.ProjectionError):
        mf.nearest_point_batch(np.array([1.0, 0, 0, 0]), klein_cloud)
    with pytest.raises(mf.ProjectionError):
        mf.nearest_point_batch(np.array([[1.0, 0, 0]]), klein_cloud)
    with pytest.raises(mf.ProjectionError):
        mf.nearest_point_batch(np.array([[np.nan, 0, 0, 0]]), klein_cloud)


# ---------------------------------------------------------------------------
# implicit-function-theorem Jacobian


def test_circle_curvature_correction(circle_cloud):
    # at distance 2 from the center the tangential gain is 1/2, not 1
    res = mf.nearest_point_batch(np.array([[2.0, 0.0]]), circle_cloud)
    np.testing.assert_allclose(res.z[0], [1.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(res.jacobian[0], [[0.0, 0.0], [0.0, 0.5]], atol=1e-9)
    assert not res.singular[0] and not res.degraded[0]


def test_on_manifold_jacobian_is_tangent_projector(klein_cloud):
    rng = np.random.default_rng(10)
    ids = rng.choice(klein_cloud.num_points, size=50, replace=False)
    batch = mf.nearest_point_batch(klein_cloud.points[ids], klein_cloud)
    for b in range(len(ids)):
        J = batch.jacobian[b]
        np.testing.assert_allclose(J, J.T, atol=1e-8)
        np.testing.assert_allclose(J @ J, J, atol=1e-8)
        assert np.trace(J) == pytest.approx(2.0, abs=1e-8)
        eig = np.linalg.eigvalsh(J)
        assert np.all((np.abs(eig) < 1e-8) | (np.abs(eig - 1) < 1e-8))


@pytest.mark.parametrize("cloud_name", ["klein_cloud", "torus_cloud"])
def test_ift_jacobian_matches_finite_differences(cloud_name, request):
    cloud = request.getfixturevalue(cloud_name)
    rng = np.random.default_rng(11)
    ids = rng.choice(cloud.num_points, size=40, replace=False)
    W = cloud.points[ids] + rng.normal(size=(40, 4)) * 0.1
    batch = mf.nearest_point_batch(W, cloud)

    def proj(w):
        return mf.nearest_point_batch(w[None], cloud).z[0]

    for b in range(len(ids)):
        J_fd = fd_jacobian(proj, W[b])
        rel = np.abs(batch.jacobian[b] - J_fd).max() / (1 + np.abs(J_fd).max())
        assert rel < 1e-5


def test_jacobian_rows_lie_in_tangent_space(klein_cloud):
    rng = np.random.default_rng(12)
    ids = rng.choice(klein_cloud.num_points, size=50, replace=False)
    W = klein_cloud.points[ids] + rng.normal(size=(50, 4)) * 0.1
    batch = mf.nearest_point_batch(W, klein_cloud)
    _, jac, _ = klein_cloud.chart_frames(batch.chart_id, klein_cloud.canonical_params(batch.u))
    for b in range(len(ids)):
        P = jac[b] @ np.linalg.solve(jac[b].T @ jac[b], jac[b].T)  # J (J^T J)^-1 J^T
        defect = (np.eye(4) - P) @ batch.jacobian[b]
        assert np.abs(defect).max() < 1e-8


def test_medial_axis_is_flagged_singular(circle_cloud):
    res = mf.nearest_point_batch(np.array([[0.0, 0.0], [1.5, 0.0]]), circle_cloud)
    np.testing.assert_array_equal(res.singular, [True, False])
    assert np.all(np.isfinite(res.jacobian))  # pseudo-inverse Jacobian, no raise
    _, _, flagged = circle_cloud.project(np.array([[0.0, 0.0]]))
    assert flagged[0]


# ---------------------------------------------------------------------------
# quadratic (Monge-gauge) charts


@pytest.fixture(scope="module")
def torus_quad_cloud():
    pts = mf.build_torus_pointcloud(resolution=96).points
    return mf.PointCloudManifold(2, 4, pts, "quadratic", k_neighbors=12)


def test_monge_fit_passes_through_own_point(torus_quad_cloud):
    ids = np.arange(0, torus_quad_cloud.num_points, 977)
    sigma, _, _ = torus_quad_cloud.chart_frames(ids, np.zeros((len(ids), 2)))
    np.testing.assert_allclose(sigma, torus_quad_cloud.points[ids], atol=1e-12)


def test_monge_projection_tracks_analytic(torus_quad_cloud):
    rng = np.random.default_rng(13)
    ids = rng.choice(torus_quad_cloud.num_points, size=100, replace=False)
    W = torus_quad_cloud.points[ids] + rng.normal(size=(100, 4)) * 0.05
    batch = mf.nearest_point_batch(W, torus_quad_cloud)
    Z, _, _ = mf.AnalyticTorus().project(W)
    assert np.abs(batch.z - Z).max() < 1e-4


def test_adjacent_quadratic_charts_agree(torus_quad_cloud):
    # project the same near-manifold points starting from the two nearest charts
    rng = np.random.default_rng(14)
    ids = rng.choice(torus_quad_cloud.num_points, size=50, replace=False)
    W = torus_quad_cloud.points[ids] + rng.normal(size=(50, 4)) * 0.02
    _, nbr = torus_quad_cloud.tree.query(W, k=2)
    z = []
    for col in range(2):
        U, sigma, _, _ = mf._refine(torus_quad_cloud, W, nbr[:, col])
        z.append(sigma)
    assert np.abs(z[0] - z[1]).max() < 1e-4


def test_monge_ift_jacobian_matches_finite_differences(torus_quad_cloud):
    rng = np.random.default_rng(15)
    ids = rng.choice(torus_quad_cloud.num_points, size=20, replace=False)
    W = torus_quad_cloud.points[ids] + rng.normal(size=(20, 4)) * 0.05
    batch = mf.nearest_point_batch(W, torus_quad_cloud)

    def proj(w):
        return mf.nearest_point_batch(w[None], torus_quad_cloud).z[0]

    for b in range(len(ids)):
        J_fd = fd_jacobian(proj, W[b])
        rel = np.abs(batch.jacobian[b] - J_fd).max() / (1 + np.abs(J_fd).max())
        assert rel < 1e-4


# ---------------------------------------------------------------------------
# persistence


def test_pointcloud_roundtrip_analytic(tmp_path, klein_cloud):
    path = tmp_path / "klein.cloud"
    klein_cloud.save(path)
    loaded = mf.load_pointcloud(path)
    assert loaded.chart_kind == "analytic"
    np.testing.assert_allclose(loaded.points, klein_cloud.points, atol=1e-12)
    np.testing.assert_allclose(loaded.chart_params, klein_cloud.chart_params, atol=1e-12)
    assert isinstance(loaded.surface, mf.KleinSurface)
    assert loaded.surface.a == klein_cloud.surface.a


def test_pointcloud_roundtrip_quadratic(tmp_path, torus_quad_cloud):
    path = tmp_path / "torus.cloud"
    torus_quad_cloud.save(path)
    loaded = mf.load_pointcloud(path)
    assert loaded.chart_kind == "quadratic"
    np.testing.assert_allclose(loaded.points, torus_quad_cloud.points, atol=1e-12)
    w = torus_quad_cloud.points[123:124] * 1.05
    a = mf.nearest_point_batch(w, torus_quad_cloud)
    b = mf.nearest_point_batch(w, loaded)
    np.testing.assert_allclose(a.z, b.z, atol=1e-12)


# ---------------------------------------------------------------------------
# tape layer


def test_encode_layer_identity_on_manifold(torus_cloud):
    rng = np.random.default_rng(16)
    ids = rng.choice(torus_cloud.num_points, size=8, replace=False)
    W = torus_cloud.points[ids]
    tape = ad.Tape()
    w = tape.leaf("w", W)
    z, mask = mf.manifold_encode_layer(w, torus_cloud)
    assert mask.all()
    np.testing.assert_allclose(z.data, W, atol=1e-9)


def test_encode_layer_gradients_match_finite_differences():
    torus = mf.AnalyticTorus()
    rng = np.random.default_rng(17)
    W = rng.normal(size=(6, 4))
    W[:, [0, 2]] += np.sign(W[:, [0, 2]]) * 0.5
    target = rng.normal(size=(6, 4))

    def loss_and_grad(Wv, want_grad=False):
        tape = ad.Tape()
        w = tape.leaf("w", Wv)
        z, _ = mf.manifold_encode_layer(w, torus)
        out = ad.weighted_sq_sum(z, np.ones(len(Wv)), target)
        if want_grad:
            return tape.backward(out)["w"]
        return out.data.item()

    g = loss_and_grad(W, want_grad=True)
    g_fd = np.zeros_like(W)
    h = 1e-6
    for i in range(W.shape[0]):
        for j in range(4):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            g_fd[i, j] = (loss_and_grad(Wp) - loss_and_grad(Wm)) / (2 * h)
    assert np.abs(g - g_fd).max() / (1 + np.abs(g_fd).max()) < 1e-4


def test_analytic_and_pointcloud_torus_gradients_agree(torus_cloud):
    rng = np.random.default_rng(18)
    W = rng.normal(size=(10, 4))
    W[:, [0, 2]] += np.sign(W[:, [0, 2]]) * 0.5
    target = rng.normal(size=(10, 4))

    def grad_through(manifold):
        tape = ad.Tape()
        w = tape.leaf("w", W)
        z, _ = mf.manifold_encode_layer(w, manifold)
        out = ad.weighted_sq_sum(z, np.ones(len(W)), target)
        return tape.backward(out)["w"]

    g_analytic = grad_through(mf.AnalyticTorus())
    g_cloud = grad_through(torus_cloud)
    assert np.abs(g_analytic - g_cloud).max() < 1e-5


def test_encode_layer_policies(circle_cloud):
    W = np.array([[1.5, 0.0], [0.0, 0.0]])  # second point sits on the medial axis
    tape = ad.Tape()
    w = tape.leaf("w", W)
    with pytest.raises(mf.ProjectionError, match="samples \\[1\\]"):
        mf.manifold_encode_layer(w, circle_cloud, policy="raise")
    tape2 = ad.Tape()
    w2 = tape2.leaf("w", W)
    z, mask = mf.manifold_encode_layer(w2, circle_cloud, policy="skip")
    np.testing.assert_array_equal(mask, [True, False])
    target = np.array([[0.0, 1.0], [0.0, 1.0]])
    grads = tape2.backward(ad.weighted_sq_sum(z, np.ones(2), target))
    np.testing.assert_array_equal(grads["w"][1], [0.0, 0.0])
    assert np.any(grads["w"][0] != 0.0)


class _FlagSecond:
    """Identity projection that flags the second sample but keeps its Jacobian."""

    def project(self, W):
        return W.copy(), np.repeat(np.eye(W.shape[1])[None], len(W), axis=0), np.array([False, True])


def test_skip_policy_blocks_gradient_of_flagged_sample():
    tape = ad.Tape()
    w = tape.leaf("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
    z, mask = mf.manifold_encode_layer(w, _FlagSecond(), policy="skip")
    np.testing.assert_array_equal(mask, [True, False])
    grads = tape.backward(ad.weighted_sq_sum(z, np.ones(2)))
    np.testing.assert_array_equal(grads["w"], [[2.0, 4.0], [0.0, 0.0]])
