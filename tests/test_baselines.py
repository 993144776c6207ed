import numpy as np
import pytest

from mvrom import baselines as lb
from mvrom import burgers as bg

from oracles import dmd_predict_row, pod_predict_row


# ---------------------------------------------------------------------------
# svd


def test_svd_diagonal():
    A = np.diag([3.0, -7.0, 1.0])
    _, s, _ = lb.svd(A)
    np.testing.assert_allclose(s, [7.0, 3.0, 1.0])


def test_svd_reconstructs_random_matrix():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(100, 50))
    U, s, V = lb.svd(A)
    err = np.linalg.norm(U @ np.diag(s) @ V.T - A)
    assert err < 1e-9 * np.linalg.norm(A)
    assert np.all(np.diff(s) <= 1e-12)


def test_svd_rank_one():
    a = np.arange(1.0, 5.0)
    b = np.arange(1.0, 4.0)
    _, s, _ = lb.svd(np.outer(a, b))
    assert s[0] > 1.0
    assert np.all(s[1:] < 1e-12 * s[0])


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        lb.svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# DMD


def _linear_system_snapshots(eigs, n=8, m=40, seed=1):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, len(eigs))))
    A = Q @ np.diag(eigs) @ Q.T
    X = Q @ rng.normal(size=(len(eigs), m))  # states inside the invariant subspace
    return X, A @ X, A


def test_dmd_recovers_linear_spectrum():
    X, Xp, _ = _linear_system_snapshots([0.9, 0.7])
    model = lb.fit_dmd(lb.svd(X), Xp, 2)
    np.testing.assert_allclose(sorted(np.real(model.eigenvalues)), [0.7, 0.9], atol=1e-8)
    assert np.abs(np.imag(model.eigenvalues)).max() < 1e-10


def test_dmd_orthonormal_basis_and_finite_eigs():
    X, Xp, _ = _linear_system_snapshots([0.95, 0.6, 0.3], n=12)
    model = lb.fit_dmd(lb.svd(X), Xp, 3)
    np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(3), atol=1e-10)
    assert np.all(np.isfinite(model.eigenvalues.view(np.float64)))


def test_dmd_exact_on_invariant_subspace():
    X, Xp, A = _linear_system_snapshots([0.85, 0.5])
    model = lb.fit_dmd(lb.svd(X), Xp, 2)
    U = X[:, :5].T
    preds = lb.dmd_predict(model, U, 4)
    assert preds.shape == (5, 5, 8)
    for k in range(5):
        truth = U @ np.linalg.matrix_power(A, k).T
        np.testing.assert_allclose(preds[k], truth, atol=1e-9)


def test_dmd_rank_too_high_errors():
    X, Xp, _ = _linear_system_snapshots([0.9, 0.7])
    with pytest.raises(ValueError, match="rank too high"):
        lb.fit_dmd(lb.svd(X), Xp, 5)
    with pytest.raises(ValueError, match="rank"):
        lb.fit_dmd(lb.svd(X), Xp, 100)
    with pytest.raises(ValueError, match="equal shapes"):
        lb.fit_dmd(lb.svd(X), Xp[:, :-1], 2)


def _heat_evolve(u, nu, t):
    n = len(u)
    c = np.fft.rfft(u)
    k = np.arange(n // 2 + 1)
    return np.fft.irfft(c * np.exp(-4 * np.pi**2 * k**2 * nu * t), n)


def test_dmd_heat_equation_eigenvalues():
    nu, tau, n = 0.02, 0.25, 64
    x = np.arange(n) / n
    rng = np.random.default_rng(2)
    cols = []
    for _ in range(60):
        u = sum(
            rng.normal() * np.cos(2 * np.pi * k * x) + rng.normal() * np.sin(2 * np.pi * k * x)
            for k in (1, 2, 3)
        )
        cols.append(u)
    X = np.stack(cols, axis=1)
    Xp = np.stack([_heat_evolve(c, nu, tau) for c in cols], axis=1)
    model = lb.fit_dmd(lb.svd(X), Xp, 6)
    expected = sorted(
        [np.exp(-4 * np.pi**2 * k**2 * nu * tau) for k in (1, 2, 3) for _ in range(2)]
    )
    np.testing.assert_allclose(sorted(np.real(model.eigenvalues)), expected, atol=1e-9)


# ---------------------------------------------------------------------------
# POD


def test_pod_pure_diffusion_matches_spectral_decay():
    # single-sine basis: the Galerkin advection term vanishes by parity,
    # leaving exactly the heat decay of the retained mode
    nu, tau, n = 0.02, 0.25, 64
    x = np.arange(n) / n
    rng = np.random.default_rng(3)
    X = np.outer(np.sin(2 * np.pi * x), rng.uniform(0.5, 2.0, size=20))
    model = lb.fit_pod(lb.svd(X), 1, nu, tau)
    U = np.outer([1.3, -0.4], np.sin(2 * np.pi * x))
    preds = lb.pod_predict(model, U, 4)
    for k in (1, 2, 4):
        truth = U * np.exp(-4 * np.pi**2 * nu * tau * k)
        assert np.linalg.norm(preds[k] - truth) / np.linalg.norm(truth) < 1e-6


def test_pod_projection_residual_decreases_with_rank():
    config = bg.BurgersConfig(n_x=64)
    X = bg.generate_burgers_dataset(config, 40, seed=4).X
    Xmat = X.T
    u = X[7]
    residuals = []
    for r in (1, 2, 3, 5, 8):
        model = lb.fit_pod(lb.svd(Xmat), r, config.nu, config.tau)
        proj = model.basis @ (model.basis.T @ u)
        residuals.append(np.linalg.norm(u - proj))
    assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_pod_galerkin_tracks_burgers_at_high_rank():
    config = bg.BurgersConfig(n_x=64)
    X = bg.generate_burgers_dataset(config, 80, seed=5).X
    model = lb.fit_pod(lb.svd(X.T), 12, config.nu, config.tau)
    U0 = bg.sample_u1([0.6, 0.2], [0.1, 0.3], config.nu, 64)
    truth = bg.evolve_exact(U0, config.nu, config.tau)
    pred = lb.pod_predict(model, U0, 1)[1]
    rel = np.linalg.norm(pred - truth, axis=1) / np.linalg.norm(truth, axis=1)
    assert np.all(rel < 0.05)


def test_pod_instability_is_reported():
    n = 64
    x = np.arange(n) / n
    X = np.outer(np.sin(2 * np.pi * 10 * x), np.linspace(1, 2, 10))
    model = lb.fit_pod(lb.svd(X), 1, nu=5.0, tau=4.0, substeps=1)
    # one unstable row fails the whole call; the stable rows alone pass
    U = np.outer([0.0, 1e5, 0.0], np.sin(2 * np.pi * 10 * x))
    with pytest.raises(RuntimeError, match="unstable"):
        lb.pod_predict(model, U, 50)
    assert np.all(np.isfinite(lb.pod_predict(model, U[[0, 2]], 2)))
    # a finite row whose coefficient norm passes 1e6 within one substep, and
    # a non-finite row, each fail the call as well
    big = np.outer([0.0, 1e7], np.sin(2 * np.pi * 10 * x))
    assert np.all(np.isfinite(big))
    with pytest.raises(RuntimeError, match="unstable"):
        lb.pod_predict(model, big, 1)
    with pytest.raises(RuntimeError, match="unstable"):
        lb.pod_predict(model, np.vstack([U[0], np.full(n, np.nan)]), 1)


def _burgers_rollout_setup(rank, m_test=12):
    config = bg.BurgersConfig(n_x=64)
    train = bg.generate_burgers_dataset(config, 60, seed=11)
    test = bg.generate_burgers_dataset(config, m_test, t_range=(0.0, 0.5), seed=12)
    return config, train, test


def _assert_rows_match(batched, reference, rtol=1e-12):
    scale = np.linalg.norm(reference, axis=-1, keepdims=True)
    assert np.all(np.abs(batched - reference) <= rtol * scale)


@pytest.mark.parametrize("rank", [2, 3, 6])
def test_dmd_batched_rollout_matches_per_row_reference(rank):
    config, train, test = _burgers_rollout_setup(rank)
    model = lb.fit_dmd(lb.svd(train.X.T), train.Y.T, rank)
    preds = lb.dmd_predict(model, test.X, 4)
    assert preds.shape == (5, len(test.X), 64)
    for k in range(5):
        reference = np.stack([dmd_predict_row(model, u, k) for u in test.X])
        _assert_rows_match(preds[k], reference)


@pytest.mark.parametrize("rank", [2, 3, 6])
def test_pod_batched_rollout_matches_per_row_reference(rank):
    # one integration to the largest horizon against one integration per horizon
    config, train, test = _burgers_rollout_setup(rank)
    model = lb.fit_pod(lb.svd(train.X.T), rank, config.nu, config.tau)
    preds = lb.pod_predict(model, test.X, 4)
    assert preds.shape == (5, len(test.X), 64)
    for k in range(5):
        reference = np.stack([pod_predict_row(model, u, k) for u in test.X])
        _assert_rows_match(preds[k], reference)
