import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import spatial

from mvrom import manifold as mf
from mvrom import vae

from oracles import (
    ProductCirclesSurface, build_torus_pointcloud, klein_frames_stacked, reference_ift_jacobian,
    reference_projection, write_pointcloud,
)


@pytest.fixture(scope="module")
def klein_cloud():
    return mf.build_klein_pointcloud(mf.KleinConfig(resolution=128))


@pytest.fixture(scope="module")
def torus_cloud():
    return build_torus_pointcloud(resolution=128)


@pytest.fixture(scope="module")
def circle_cloud():
    return build_torus_pointcloud(resolution=512, radii=(1.0,))


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


def test_project_torus_flags_centre_rows():
    # a pair within CENTER_EPS of its circle's centre has no unique nearest
    # point: its row is flagged, with a finite Z on the torus and a zero
    # Jacobian, and the other rows project as before
    W = np.array([[0.0, 0.0, 1.0, 0.0], [0.6, 0.8, 2.0, 0.0], [3.0, 4.0, 5e-9, 0.0]])
    Z, J, flagged = mf.AnalyticTorus().project(W)
    np.testing.assert_array_equal(flagged, [True, False, True])
    np.testing.assert_array_equal(Z, [[1.0, 0.0, 1.0, 0.0], [0.6, 0.8, 1.0, 0.0],
                                      [0.6, 0.8, 1.0, 0.0]])
    assert not J[flagged].any() and J[1].any()
    np.testing.assert_array_equal(Z[1:2], mf.AnalyticTorus().project(W[1:2])[0])
    with pytest.raises(mf.ProjectionError, match="\\(B, 4\\)"):
        mf.AnalyticTorus().project(np.array([1.0, 0.0, 1.0, 0.0]))


@pytest.mark.parametrize("policy", ["raise", "skip"])
def test_torus_centre_sample_follows_the_projection_policy(policy):
    # an identity encoder with negligible noise puts sample 1's code at the
    # first circle's centre: "raise" fails the batch naming it, and "skip"
    # drops it from the loss, so moving its rows moves no term
    model = vae.build_vae(4, vae.make_latent("torus", policy), hidden=(), sigma_e=1e-12, seed=5)
    model.params["enc_W0"][:] = np.eye(4)
    model.params["enc_b0"][:] = 0.0
    X = np.array([[0.6, 0.8, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.8, 0.6]])
    Y = np.roll(X, 1, axis=1) + 0.5
    config = vae.TrainConfig(gamma=0.5, seed=0)
    if policy == "raise":
        with pytest.raises(mf.ProjectionError, match=r"^projection flagged for batch samples "
                                                     r"1 \(input X\)$"):
            vae.loss(model, X, Y, config, np.random.default_rng(0))
        return
    terms = vae.loss(model, X, Y, config, np.random.default_rng(0))[2]
    assert np.isfinite(terms.total)
    X2, Y2 = X.copy(), Y.copy()
    X2[1, 2:], Y2[1] = (2.0, 0.0), -0.5
    assert vae.loss(model, X2, Y2, config, np.random.default_rng(0))[2] == terms


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
    [mf.KleinSurface(2.0, 1.0), ProductCirclesSurface((1.0, 1.0)), ProductCirclesSurface((1.0,))],
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


def test_klein_frames_match_stacked_formulas():
    U = np.random.default_rng(19).uniform(-4 * np.pi, 4 * np.pi, size=(1000, 2))
    got = mf.KleinSurface(2.0, 1.0).frames(U)
    for g, want in zip(got, klein_frames_stacked(2.0, 1.0, U)):
        assert g.shape == want.shape
        np.testing.assert_array_equal(g, want)


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


def test_coarse_phase_matches_brute_force(torus_quad_cloud):
    # only quadratic charts have a coarse phase
    rng = np.random.default_rng(5)
    W = rng.normal(size=(100, 4)) * 2.0
    batch = mf.nearest_point_batch(W, torus_quad_cloud)
    d2 = ((W[:, None, :] - torus_quad_cloud.points[None, :, :]) ** 2).sum(axis=2)
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


@pytest.mark.parametrize("cloud_name", ["torus_cloud", "torus_quad_cloud"])
def test_torus_medial_axis_is_flagged_singular(cloud_name, request):
    # the first circle's center, the origin (both circles' centers), a regular
    # point; in quadratic charts the first two converge to a saddle of Phi
    W = np.array([[0.0, 0.0, 1.5, 0.0], [0.0, 0.0, 0.0, 0.0], [1.5, 0.0, 0.0, 1.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = mf.nearest_point_batch(W, request.getfixturevalue(cloud_name))
    np.testing.assert_array_equal(res.singular, [True, True, False])
    assert not res.degraded.any()
    assert np.all(np.isfinite(res.jacobian))


# ---------------------------------------------------------------------------
# the solver against the plain batched reference


def projection_corpus(cloud, kind, seed):
    """Near-field, far-field and medial-axis inputs for a cloud."""
    rng = np.random.default_rng(seed)
    near = cloud.points[rng.choice(cloud.num_points, size=40, replace=False)]
    near = near + rng.normal(size=near.shape) * 0.1
    far = rng.normal(size=(40, cloud.n)) * 4.0
    t = rng.uniform(0, 2 * np.pi, size=(12, 1))
    ring = np.hstack([np.cos(t), np.sin(t)])
    if kind == "klein":  # the core circle of radius a = 2 and the origin
        medial = np.hstack([2.0 * ring, np.zeros((12, 2))])
    elif kind == "circle":  # the center
        medial = np.zeros((12, 2))
    else:  # the first circle's center, at every angle of the second
        medial = np.hstack([np.zeros((12, 2)), 1.5 * ring])
    beside = medial + rng.normal(size=medial.shape) * 1e-3
    return np.vstack([near, far, medial, beside, np.zeros((1, cloud.n))])


def _angle_gap(a, b):
    return np.abs((a - b + np.pi) % (2 * np.pi) - np.pi)


def _param_gap(kind, u, u_ref):
    """Per-row distance of canonical parameters, modulo the seam."""
    if kind == "torus_quad":  # chart-local coordinates
        return np.abs(u - u_ref).max(axis=1)
    if kind == "klein":  # across the seam u1 ~ u1 + 2 pi the gluing flips u2
        flip = np.abs(u[:, 0] - u_ref[:, 0]) > np.pi
        u = np.stack([u[:, 0], np.where(flip, 2 * np.pi - u[:, 1], u[:, 1])], axis=1)
    return _angle_gap(u, u_ref).max(axis=1)


CLOUDS = {
    "klein": "klein_cloud",
    "torus": "torus_cloud",
    "torus_quad": "torus_quad_cloud",
    "circle": "circle_cloud",
}


@pytest.mark.parametrize("kind", list(CLOUDS))
def test_projection_matches_reference_solver(kind, request):
    cloud = request.getfixturevalue(CLOUDS[kind])
    W = projection_corpus(cloud, kind, seed=20)
    got = mf.nearest_point_batch(W, cloud)
    ref = reference_projection(W, cloud)
    np.testing.assert_array_equal(got.degraded, ref["degraded"])
    np.testing.assert_array_equal(got.singular, ref["singular"])
    if cloud.chart_kind == "quadratic":  # analytic charts are one global chart
        np.testing.assert_array_equal(got.chart_id, ref["chart_id"])
    np.testing.assert_allclose(got.phi, ref["phi"], rtol=1e-12, atol=0)
    # On the medial axis every point of a circle is nearest; the reference
    # picks one by its start cloud point, the seeded solver by its seed.
    # There the Jacobian is checked against the reference's formula at the
    # seeded solver's own point.
    J_ref = ref["jacobian"].copy()
    same = np.ones(len(W), dtype=bool)
    if cloud.chart_kind == "analytic":
        same = ~ref["degraded"] & ~ref["singular"]
        J_own, singular_own = reference_ift_jacobian(W[~same], cloud, got.chart_id[~same], got.u[~same])
        np.testing.assert_array_equal(got.singular[~same], singular_own)
        J_ref[~same] = J_own
    assert np.abs(got.z - ref["z"])[same].max() <= 1e-7
    assert _param_gap(kind, got.u, ref["u"])[same].max() <= 1e-7
    J_err = np.abs(got.jacobian - J_ref).max(axis=(1, 2))
    J_scale = np.maximum(1.0, np.abs(J_ref).max(axis=(1, 2)))
    assert (J_err / J_scale).max() <= 1e-6
    # On the medial axis the minimizer is not unique and both solvers stall
    # at the rounding level of grad Phi (up to about 1.5e-10 on the Klein
    # core circle), so the tolerance binds only off it.
    regular = ~got.degraded & ~got.singular
    assert got.grad_norm[regular].max() <= mf.NEWTON_TOL


KLEIN = mf.KleinSurface(2.0, 1.0)


@st.composite
def klein_inputs(draw):
    """32 rows of one kind: near the surface (noise 0.05 or 0.5), Gaussian
    (scale 0.1 to 10), or on the core circle or the z3-z4 plane (the u1 seam
    of the first seed), exactly or 1e-3 off it."""
    kind = draw(st.sampled_from(["near", "gauss", "core", "seam"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "near":
        points = KLEIN.frames(rng.uniform(0, 2 * np.pi, size=(32, 2)))[0]
        return points + draw(st.sampled_from([0.05, 0.5])) * rng.normal(size=points.shape)
    if kind == "gauss":
        return 10.0 ** draw(st.floats(-1.0, 1.0)) * rng.normal(size=(32, 4))
    t = rng.uniform(0, 2 * np.pi, size=(32, 1))
    ring = np.hstack([np.cos(t), np.sin(t)])
    if kind == "core":
        W = np.hstack([KLEIN.a * ring, np.zeros((32, 2))])
    else:
        W = np.hstack([np.zeros((32, 2)), rng.uniform(0, 4, size=(32, 1)) * ring])
    return W + draw(st.sampled_from([0.0, 1e-3])) * rng.normal(size=W.shape)


@settings(max_examples=60)
@given(W=klein_inputs())
# Gaussian rows (scale 1 and 2) that the first seed alone leaves degraded
@example(W=np.array([
    [0.0800952415643587, 0.07116811072413737, -0.3299557953551792, 0.96714383444054],
    [-0.09026129884426844, 0.10539928073223953, -1.0168616608880134, 0.48789266406577286],
    [-0.23242616230319535, -2.2346979866946497, 2.013518128032374, 1.8068129116645548],
]))
# the first seed is a saddle of Phi, and Newton takes no step from it
@example(W=np.array([[0.0, 0.0, 0.0, 3.0]]))
# from the first seed Newton converges to a local minimum that is not the nearest point
@example(W=np.array([[2.0543168131815346, -0.17515163878894538, -0.07351208495440574, -2.1943995466306294]]))
def test_seeded_projection_matches_tree_reference(klein_cloud, W):
    got = mf.nearest_point_batch(W, klein_cloud)
    ref = reference_projection(W, klein_cloud)
    ref_flagged = ref["degraded"] | ref["singular"]
    assert not np.any((got.degraded | got.singular) & ~ref_flagged)
    both = ~ref_flagged & ~got.degraded & ~got.singular
    np.testing.assert_allclose(got.phi[both], ref["phi"][both], rtol=1e-12, atol=0)
    # Both solvers stop at |grad Phi| <= NEWTON_TOL, so where the least
    # eigenvalue lam of Phi's Hessian is small (1e-3 off the core circle) their
    # minimizers may be up to 2 NEWTON_TOL / lam apart in u, (a + b) times that in z.
    sigma, jac, hess = KLEIN.frames(got.u[both])
    A = np.einsum("bni,bnj->bij", jac, jac) - np.einsum("bn,bnij->bij", W[both] - sigma, hess)
    lam = np.abs(np.linalg.eigvalsh(A)).min(axis=1)
    tol = np.maximum(1e-7, 2 * (KLEIN.a + KLEIN.b) * mf.NEWTON_TOL / lam)
    assert np.all(np.abs(got.z - ref["z"])[both].max(axis=1, initial=0) <= tol)
    assert np.all(_param_gap("klein", got.u[both], ref["u"][both]) <= tol)
    # where the reference gives up (or the minimizer is not unique) the seeded
    # solver's point is at least as near, up to rounding
    assert np.all(got.phi[ref_flagged] <= ref["phi"][ref_flagged] * (1 + 1e-12))


def test_ift_jacobian_of_a_retried_row_is_taken_at_its_final_point(klein_cloud):
    # the first seed leaves these rows degraded (the first two) or at a saddle
    # (the last); a solve from the retry seed replaces each with another point,
    # and the Hessian behind its Jacobian must be the one at that point
    W = np.array([
        [0.0800952415643587, 0.07116811072413737, -0.3299557953551792, 0.96714383444054],
        [-0.09026129884426844, 0.10539928073223953, -1.0168616608880134, 0.48789266406577286],
        [0.0, 0.0, 0.0, 3.0],
    ])
    # (U, sigma, ...) of the solve from the first seed, after its chart ids
    first = mf._solve_candidates(klein_cloud, W, np.full(len(W), -1), klein_cloud.surface.seed(W))[1:]
    got = mf.nearest_point_batch(W, klein_cloud)
    assert np.all(np.abs(got.z - first[1]).max(axis=1) > 1e-3)
    J_ref, singular = reference_ift_jacobian(W, klein_cloud, got.chart_id, got.u)
    assert not singular.any() and not got.singular.any()
    J_err = np.abs(got.jacobian - J_ref).max(axis=(1, 2))
    assert np.all(J_err <= 1e-9 * np.maximum(1.0, np.abs(J_ref).max(axis=(1, 2))))


def _candidates(chart_id, phi, minimum, tag):
    """Candidates as ``_solve_candidates`` returns them, by hand: every
    field but the chart id, Phi and the minimum mask holds ``tag``."""
    B = len(phi)

    def fill(*shape):
        return np.full((B, *shape), float(tag))

    return [np.array(chart_id), fill(2), fill(4), np.array(phi, dtype=float), fill(), fill(4, 2),
            fill(4, 2, 2), fill(2, 2), fill(2), np.array(minimum)]


def test_merge_prefers_a_minimum_then_the_least_phi_then_the_lowest_chart():
    tol = mf.NEWTON_TOL
    best = _candidates([5] * 7, [1.0] * 7, [False] + [True] * 6, tag=0)
    challenger = _candidates(
        [7, 3, 5, 9, 5, 6],
        [2.0, 1.0 + 0.2 * tol, 1.0, 0.5, 1.0 - 5 * tol, 1.0 - 0.2 * tol],
        [True, True, True, False, True, True],
        tag=1,
    )
    mf._merge(best, challenger, np.array([0, 1, 2, 3, 4, 6]))
    # row 0: a minimum beats a lower non-minimum; row 1: Phi equal when
    # rounded to NEWTON_TOL, so the lower chart id wins; row 2: a full tie
    # keeps the incumbent; row 3: a lower non-minimum loses to a minimum;
    # row 4: the lower Phi wins; row 5: not merged; row 6: the higher chart
    # id loses a rounded-Phi tie
    won = np.array([True, True, False, False, True, False, False])
    np.testing.assert_array_equal(best[0], [7, 3, 5, 5, 5, 5, 5])
    np.testing.assert_array_equal(best[3], [2.0, 1.0 + 0.2 * tol, 1.0, 1.0, 1.0 - 5 * tol, 1.0, 1.0])
    assert best[9].all()
    for field in best[1:3] + best[4:9]:  # each winner's whole row moves
        assert np.all(field.reshape(7, -1) == won[:, None])


def test_klein_reduced_objective_derivatives_and_envelope(klein_cloud):
    # near-surface, Gaussian and seam (z3-z4 plane) rows at random u1
    rng = np.random.default_rng(25)
    near = KLEIN.frames(rng.uniform(0, 2 * np.pi, size=(40, 2)))[0] + 0.1 * rng.normal(size=(40, 4))
    t = rng.uniform(0, 2 * np.pi, size=(40, 1))
    seam = np.hstack([np.zeros((40, 2)), rng.uniform(0.5, 4, size=(40, 1)) * np.hstack([np.cos(t), np.sin(t)])])
    W = np.vstack([near, 2.0 * rng.normal(size=(40, 4)), seam])
    u1 = rng.uniform(0, 4 * np.pi, size=len(W))
    h = 1e-4
    _, _, F, dF, d2F, _ = KLEIN.reduced(W, u1)
    F_plus, F_minus = KLEIN.reduced(W, u1 + h)[2], KLEIN.reduced(W, u1 - h)[2]
    assert np.all(np.abs(dF - (F_plus - F_minus) / (2 * h)) <= 1e-6 * (1 + np.abs(dF)))
    assert np.all(np.abs(d2F - (F_plus - 2 * F + F_minus) / h**2) <= 1e-5 * (1 + np.abs(d2F)))
    # at the best u2, dPhi/du2 = 0: the gradient from the frames is -F'
    res = mf.nearest_point_batch(W, klein_cloud)
    converged = ~res.degraded & ~res.singular
    assert converged.all()
    dF_end = KLEIN.reduced(W, res.u[:, 0])[3]
    rounding = 1e-14 * (1 + np.sum(W * W, axis=1))
    assert np.all(np.abs(res.grad_norm - np.abs(dF_end)) <= rounding)


def _klein_profile(W, u1):
    """Phi at the best u2 for each u1 (the cross-section circle of ``seed``),
    F' = -dPhi/du1 there, g = |dsigma/du1|^2, and Phi'' by central
    differences: from the frames alone, not from ``reduced``."""

    def at(u1):
        x = W[:, 0] * np.cos(u1) + W[:, 1] * np.sin(u1) - KLEIN.a
        y = W[:, 2] * np.cos(u1 / 2) + W[:, 3] * np.sin(u1 / 2)
        sigma, jac, _ = KLEIN.frames(np.stack([u1, np.arctan2(y, x)], axis=-1))
        r = W - sigma
        return 0.5 * np.sum(r * r, axis=1), np.sum(jac[:, :, 0] * r, axis=1), np.sum(jac[:, :, 0] ** 2, axis=1)

    phi, dF, g = at(u1)
    h = 1e-4
    d2phi = (at(u1 + h)[0] - 2 * phi + at(u1 - h)[0]) / h**2
    return phi, dF, g, d2phi


def _klein_one_step(W, u0, monkeypatch):
    """u1 after one iteration of ``KleinSurface.solve`` from u0."""
    monkeypatch.setattr(mf, "NEWTON_MAX_ITER", 1)
    return KLEIN.solve(W, np.stack([u0, np.zeros_like(u0)], axis=-1))[:, 0]


# Far-field rows and starts whose first step raises Phi: two where Phi is
# convex in u1 (a Newton step) and two where it is concave (Gauss-Newton).
OVERSHOOT_W = np.array([
    [-4.4, -1.0, -2.9, 3.6],
    [-3.6, -0.9, -2.9, -4.2],
    [5.5, -0.1, -7.5, -1.9],
    [-6.6, 8.7, -0.3, -0.3],
])
OVERSHOOT_U1 = np.array([4.3, 2.2, 4.3, 3.7])
# Rows and starts where Phi is concave in u1 (-F'' <= 1e-10), so the step
# divides F' by g, and that step lowers Phi.
CONCAVE_W = np.array([
    [1.0, 2.5, 1.0, -3.9],
    [2.7, 1.3, -1.6, 1.7],
    [1.3, 1.3, 12.7, -6.7],
    [1.8, 2.7, 1.0, -2.5],
])
CONCAVE_U1 = np.array([3.3, 3.8, 3.8, 5.5])


def test_klein_solve_halves_a_far_field_step_that_raises_phi(monkeypatch):
    W, u0 = OVERSHOOT_W, OVERSHOOT_U1
    phi0, dF0, g0, d2phi0 = _klein_profile(W, u0)
    assert np.all(np.abs(dF0) > 1e-4) and np.all(np.abs(d2phi0) > 0.5)
    assert np.any(d2phi0 > 0) and np.any(d2phi0 < 0)
    full = dF0 / np.where(d2phi0 > 0, d2phi0, g0)
    assert np.all(_klein_profile(W, u0 + full)[0] > 1.05 * phi0)
    # one iteration keeps the first halving of the step that lowers Phi
    u1 = _klein_one_step(W, u0, monkeypatch)
    assert np.all(_klein_profile(W, u1)[0] < phi0)
    halvings = np.log2(full / (u1 - u0))
    assert np.all(np.abs(halvings - np.round(halvings)) < 1e-3)
    assert np.all((halvings > 0.5) & (halvings < 8.5))
    # to the end, the solve converges to a point below its start
    monkeypatch.undo()
    u_end = KLEIN.solve(W, np.stack([u0, np.zeros(4)], axis=-1))[:, 0]
    phi_end, dF_end, _, _ = _klein_profile(W, u_end)
    assert np.all(phi_end < phi0) and np.all(np.abs(dF_end) <= mf.NEWTON_TOL)


def test_klein_solve_takes_the_gauss_newton_step_where_phi_is_concave(monkeypatch):
    W, u0 = CONCAVE_W, CONCAVE_U1
    phi0, dF0, g0, d2phi0 = _klein_profile(W, u0)
    assert np.all(d2phi0 < -0.5) and np.all(np.abs(dF0) > 0.1)
    np.testing.assert_allclose(-KLEIN.reduced(W, u0)[4], d2phi0, rtol=1e-3)
    expected = u0 + dF0 / g0
    assert np.all(_klein_profile(W, expected)[0] < phi0)  # so no halving
    u1 = _klein_one_step(W, u0, monkeypatch)
    assert np.all(np.abs(u1 - expected) <= 1e-12 * (1 + np.abs(expected)))


def test_converged_rows_leave_the_newton_loop(klein_cloud, torus_quad_cloud, monkeypatch):
    rows = []
    frames = mf.PointCloudManifold.chart_frames

    def counted(self, ids, U):
        rows.append(len(ids))
        return frames(self, ids, U)

    monkeypatch.setattr(mf.PointCloudManifold, "chart_frames", counted)
    ids = np.random.default_rng(23).choice(klein_cloud.num_points, size=8, replace=False)
    # on the core circle every point of a cross-section circle is nearest, and
    # the seed is a stationary point of Phi: no Newton step is taken either
    t = np.random.default_rng(24).uniform(0, 2 * np.pi, size=(12, 1))
    core = np.hstack([KLEIN.a * np.cos(t), KLEIN.a * np.sin(t), np.zeros((12, 2))])
    res = mf.nearest_point_batch(np.vstack([klein_cloud.points[ids], core]), klein_cloud)
    # the closed-form seed of a point on the surface is the solution
    assert rows == [len(ids) + 12]
    assert np.abs(res.z[:8] - klein_cloud.points[ids]).max() < 1e-9
    assert res.singular[8:].all() and not res.degraded.any()
    assert res.grad_norm.max() <= mf.NEWTON_TOL
    np.testing.assert_allclose(res.phi[8:], 0.5 * KLEIN.b**2, rtol=1e-12)
    rows.clear()
    ids = np.random.default_rng(23).choice(torus_quad_cloud.num_points, size=8, replace=False)
    mf.nearest_point_batch(torus_quad_cloud.points[ids], torus_quad_cloud)
    # each point's own chart starts at the solution and leaves at once; only
    # the three neighbouring candidates of each point take Newton steps
    K = mf.CANDIDATES
    assert rows[0] == K * len(ids)
    assert max(rows[1:]) <= (K - 1) * len(ids)


@pytest.mark.parametrize("kind", list(CLOUDS))
def test_projection_rows_are_independent(kind, request):
    cloud = request.getfixturevalue(CLOUDS[kind])
    W = projection_corpus(cloud, kind, seed=21)[::3][:32]
    batch = mf.nearest_point_batch(W, cloud)
    perm = np.random.default_rng(22).permutation(len(W))
    permuted = mf.nearest_point_batch(W[perm], cloud)
    singles = [mf.nearest_point_batch(W[i : i + 1], cloud) for i in range(len(W))]
    for field in ("z", "chart_id", "u", "jacobian", "phi", "grad_norm", "coarse_index",
                  "degraded", "singular"):
        whole = getattr(batch, field)
        np.testing.assert_array_equal(getattr(permuted, field), whole[perm], err_msg=field)
        alone = np.concatenate([getattr(one, field) for one in singles])
        np.testing.assert_array_equal(alone, whole, err_msg=field)


# ---------------------------------------------------------------------------
# quadratic (Monge-gauge) charts


@pytest.fixture(scope="module")
def torus_quad_cloud():
    pts = build_torus_pointcloud(resolution=96).points
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
        _, sigma, *_ = mf._refine(torus_quad_cloud, W, nbr[:, col], np.zeros((50, 2)))
        z.append(sigma)
    assert np.abs(z[0] - z[1]).max() < 1e-4


# Rows near the torus's medial locus (the origin and the two circles' centres)
# and a candidate chart of each, the last the nearest, in which the Newton
# step from the chart's own point stays inside the trust region but raises Phi.
QUAD_OVERSHOOT_W = np.array([
    [-0.005, -0.006, 0.083, 0.081],
    [0.003, 0.004, -0.037, 0.063],
    [0.003, -0.004, 0.219, -0.055],
    [-0.077, -0.226, -0.002, 0.003],
])
QUAD_OVERSHOOT_IDS = np.array([6060, 1472, 7868, 6465])


def test_refine_halves_a_far_field_step_that_raises_phi(torus_quad_cloud, monkeypatch):
    cloud, W, ids = torus_quad_cloud, QUAD_OVERSHOOT_W, QUAD_OVERSHOOT_IDS
    U0 = np.zeros((len(W), 2))

    def phi_at(U):
        return 0.5 * np.sum((W - cloud.chart_frames(ids, U)[0]) ** 2, axis=1)

    sigma, jac, hess = cloud.chart_frames(ids, U0)
    G = -np.einsum("bnm,bn->bm", jac, W - sigma)
    A = np.einsum("bni,bnj->bij", jac, jac) - np.einsum("bn,bnij->bij", W - sigma, hess)
    assert np.all(np.linalg.norm(G, axis=1) > 1e-4) and np.all(np.linalg.eigvalsh(A)[:, 0] > 0)
    full = -np.linalg.solve(A, G[:, :, None])[:, :, 0]
    assert np.all(np.abs(full) < 1.5 * cloud.monge.radius[ids][:, None])
    phi0 = phi_at(U0)
    assert np.all(phi_at(full) > phi0 * (1 + 1e-5))
    # one iteration keeps the first halving of the step that lowers Phi
    monkeypatch.setattr(mf, "NEWTON_MAX_ITER", 1)
    U1 = mf._refine(cloud, W, ids, U0.copy())[0]
    assert np.all(phi_at(U1) < phi0)
    halvings = np.log2(full / U1)
    assert np.all(np.abs(halvings - np.round(halvings)) < 1e-6)
    assert np.all((halvings > 0.5) & (halvings < 8.5))
    assert halvings.max() > 2.5  # one row halves three times
    # to the end, Newton converges to a point below its start
    monkeypatch.undo()
    _, _, phi_end, gnorm_end, _, _ = mf._refine(cloud, W, ids, U0.copy())
    assert np.all(phi_end < phi0) and np.all(gnorm_end <= mf.NEWTON_TOL)


def test_quadratic_circle_projection_with_one_parameter():
    # m = 1: Newton's eigenvalues, determinants and solves go through LAPACK
    cloud = mf.PointCloudManifold(
        1, 2, build_torus_pointcloud(resolution=512, radii=(1.0,)).points, "quadratic"
    )
    rng = np.random.default_rng(16)
    gauss = rng.normal(size=(200, 2))
    angle = rng.uniform(0, 2 * np.pi, size=(200, 1))
    near = rng.uniform(0.95, 1.05, size=(200, 1)) * np.hstack([np.cos(angle), np.sin(angle)])
    for W in (gauss, near):
        batch = mf.nearest_point_batch(W, cloud)
        assert not (batch.degraded | batch.singular).any()
        assert batch.grad_norm.max() <= mf.NEWTON_TOL
        r = np.linalg.norm(W, axis=1)
        err = np.linalg.norm(batch.z - W / r[:, None], axis=1)
        # a chart's tilt moves z by about 2e-5 / |w| towards the centre
        # (the medial axis), and by a few 1e-6 elsewhere
        assert np.all(err * np.minimum(r, 1.0) <= 3e-5)
        assert err[np.abs(r - 1) <= 0.05].max() <= 1e-5


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


@pytest.mark.parametrize("header", ["2 4 3 klein 2 1", "2 4 3 circles 1 1", "1 2 3 cubic 12"])
def test_pointcloud_file_of_another_kind_is_refused_naming_the_file(tmp_path, header):
    # analytic clouds are not files: the closed-form latents have settings
    path = tmp_path / "old.cloud"
    path.write_text(header + "\n" + "1 0 0 0 0 0\n" * 3)
    kind = header.split()[3]
    message = re.escape(f"{path}: a '{kind}' point cloud; ") + r".*model\.latent=klein\|torus"
    with pytest.raises(ValueError, match=message):
        mf.load_pointcloud(path)


def test_pointcloud_roundtrip_quadratic(tmp_path, torus_quad_cloud):
    path = tmp_path / "torus.cloud"
    write_pointcloud(path, torus_quad_cloud.points, 2, torus_quad_cloud.k_neighbors)
    loaded = mf.load_pointcloud(path)
    assert loaded.chart_kind == "quadratic" and loaded.k_neighbors == 12
    np.testing.assert_array_equal(loaded.points, torus_quad_cloud.points)
    w = torus_quad_cloud.points[::97] * 1.05
    a = mf.nearest_point_batch(w, torus_quad_cloud)
    b = mf.nearest_point_batch(w, loaded)
    for field in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))


def test_quadratic_cloud_builds_one_tree_for_its_fit_and_its_projections(monkeypatch):
    # the chart fit queries the cloud's own tree, which projections query too
    built = []

    class Tree(spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(spatial, "cKDTree", Tree)
    cloud = mf.PointCloudManifold(2, 4, build_torus_pointcloud(resolution=64).points, "quadratic")
    assert built == [cloud.tree]
    twelve = np.arange(12) * np.pi / 6
    with pytest.raises(ValueError, match="k_neighbors < 12 points"):  # the fit needs 13
        mf.PointCloudManifold(1, 2, np.stack([np.cos(twelve), np.sin(twelve)], 1), "quadratic")


# ---------------------------------------------------------------------------
# the latent layer's projection: arrays the latent node applies


def test_encode_layer_identity_on_manifold(torus_cloud):
    rng = np.random.default_rng(16)
    ids = rng.choice(torus_cloud.num_points, size=8, replace=False)
    W = torus_cloud.points[ids]
    Z, J, valid = mf.manifold_encode_layer(W, torus_cloud)
    assert valid.all() and J.shape == (8, 4, 4)
    np.testing.assert_allclose(Z, W, atol=1e-9)


def test_encode_layer_gradients_match_finite_differences():
    # each row's Jacobian is the derivative of its projected point
    torus = mf.AnalyticTorus()
    rng = np.random.default_rng(17)
    W = rng.normal(size=(6, 4))
    W[:, [0, 2]] += np.sign(W[:, [0, 2]]) * 0.5
    Z, J, valid = mf.manifold_encode_layer(W, torus)
    assert valid.all()
    for b in range(len(W)):
        fd = fd_jacobian(lambda w: mf.manifold_encode_layer(w[None], torus)[0][0], W[b], h=1e-6)
        np.testing.assert_allclose(J[b], fd, rtol=0, atol=1e-6)


def test_analytic_and_pointcloud_torus_gradients_agree(torus_cloud):
    rng = np.random.default_rng(18)
    W = rng.normal(size=(10, 4))
    W[:, [0, 2]] += np.sign(W[:, [0, 2]]) * 0.5
    Z_analytic, J_analytic, valid_analytic = mf.manifold_encode_layer(W, mf.AnalyticTorus())
    Z_cloud, J_cloud, valid_cloud = mf.manifold_encode_layer(W, torus_cloud)
    assert valid_analytic.all() and valid_cloud.all()
    assert np.abs(Z_analytic - Z_cloud).max() < 1e-6
    assert np.abs(J_analytic - J_cloud).max() < 1e-5


def test_encode_layer_policies(circle_cloud):
    # the layer masks a flagged sample and zeroes its Jacobian, so the latent
    # node passes it no gradient; what a flag does beyond that is the
    # latent's policy (test_vae checks "raise")
    W = np.array([[1.5, 0.0], [0.0, 0.0]])  # second point sits on the medial axis
    Z, J, valid = mf.manifold_encode_layer(W, circle_cloud)
    np.testing.assert_array_equal(valid, [True, False])
    np.testing.assert_array_equal(J[1], 0.0)
    assert np.all(np.isfinite(Z)) and np.any(J[0] != 0.0)


class _FlagSecond:
    """Identity projection that flags the second sample but keeps its Jacobian."""

    def project(self, W):
        return W.copy(), np.repeat(np.eye(W.shape[1])[None], len(W), axis=0), np.array([False, True])


def test_skip_policy_blocks_gradient_of_flagged_sample():
    W = np.array([[1.0, 2.0], [3.0, 4.0]])
    Z, J, valid = mf.manifold_encode_layer(W, _FlagSecond())
    np.testing.assert_array_equal(valid, [True, False])
    np.testing.assert_array_equal(Z, W)
    np.testing.assert_array_equal(J, [np.eye(2), np.zeros((2, 2))])
