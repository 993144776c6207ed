import numpy as np
import pytest

from mvrom import baselines as lb
from mvrom import burgers as bg


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
    model = lb.fit_dmd(X, Xp, 2)
    np.testing.assert_allclose(sorted(np.real(model.eigenvalues)), [0.7, 0.9], atol=1e-8)
    assert np.abs(np.imag(model.eigenvalues)).max() < 1e-10


def test_dmd_orthonormal_basis_and_finite_eigs():
    X, Xp, _ = _linear_system_snapshots([0.95, 0.6, 0.3], n=12)
    model = lb.fit_dmd(X, Xp, 3)
    np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(3), atol=1e-10)
    assert np.all(np.isfinite(model.eigenvalues.view(np.float64)))


def test_dmd_exact_on_invariant_subspace():
    X, Xp, A = _linear_system_snapshots([0.85, 0.5])
    model = lb.fit_dmd(X, Xp, 2)
    u = X[:, 3]
    for k in range(1, 5):
        truth = np.linalg.matrix_power(A, k) @ u
        np.testing.assert_allclose(lb.dmd_predict(model, u, k), truth, atol=1e-9)


def test_dmd_rank_too_high_errors():
    X, Xp, _ = _linear_system_snapshots([0.9, 0.7])
    with pytest.raises(ValueError, match="rank too high"):
        lb.fit_dmd(X, Xp, 5)
    with pytest.raises(ValueError, match="rank"):
        lb.fit_dmd(X, Xp, 100)
    with pytest.raises(ValueError, match="equal shapes"):
        lb.fit_dmd(X, Xp[:, :-1], 2)


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
    model = lb.fit_dmd(X, Xp, 6)
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
    model = lb.fit_pod(X, 1, nu, tau)
    u = 1.3 * np.sin(2 * np.pi * x)
    for k in (1, 2, 4):
        pred = lb.pod_predict(model, u, k)
        truth = u * np.exp(-4 * np.pi**2 * nu * tau * k)
        assert np.linalg.norm(pred - truth) / np.linalg.norm(truth) < 1e-6


def test_pod_projection_residual_decreases_with_rank():
    config = bg.BurgersConfig(n_x=64)
    pairs = bg.generate_burgers_dataset(config, 40, seed=4)
    X, _ = bg.pairs_to_arrays(pairs)
    Xmat = X.T
    u = X[7]
    residuals = []
    for r in (1, 2, 3, 5, 8):
        model = lb.fit_pod(Xmat, r, config.nu, config.tau)
        proj = model.basis @ (model.basis.T @ u)
        residuals.append(np.linalg.norm(u - proj))
    assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_pod_galerkin_tracks_burgers_at_high_rank():
    config = bg.BurgersConfig(n_x=64)
    pairs = bg.generate_burgers_dataset(config, 80, seed=5)
    X, _ = bg.pairs_to_arrays(pairs)
    model = lb.fit_pod(X.T, 12, config.nu, config.tau)
    u0 = bg.sample_u1(0.6, 0.1, config.nu, 64)
    truth = bg.evolve_exact(u0, config.nu, config.tau)
    pred = lb.pod_predict(model, u0.values, 1)
    rel = np.linalg.norm(pred - truth.values) / np.linalg.norm(truth.values)
    assert rel < 0.05


def test_pod_instability_is_reported():
    n = 64
    x = np.arange(n) / n
    X = np.outer(np.sin(2 * np.pi * 10 * x), np.linspace(1, 2, 10))
    model = lb.fit_pod(X, 1, nu=5.0, tau=4.0, substeps=1)
    u = 1e5 * np.sin(2 * np.pi * 10 * x)
    with pytest.raises(RuntimeError, match="unstable"):
        lb.pod_predict(model, u, 50)
