"""Linear comparison methods: exact DMD and POD with Galerkin evolution.

Both fit an optimal linear subspace from snapshot data via truncated SVD;
the fits take the factorization, so that one serves every rank.
DMD additionally fits a linear one-step operator in that subspace; POD keeps
the subspace and evolves the reduced coordinates through the Galerkin
projection of the Burgers right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .burgers import spectral_derivative, spectral_second_derivative


def svd(matrix: np.ndarray):
    """A = U diag(s) V^T with non-increasing singular values; V has columns.

    A wide A (fewer rows than columns, as n x m snapshots are) is factored
    through its tall transpose, A^T = V diag(s) U^T, which LAPACK does faster.
    """
    A = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(A)):
        raise ValueError("svd requires finite entries")
    if A.shape[0] < A.shape[1]:
        V, s, Ut = np.linalg.svd(A.T, full_matrices=False)
        return Ut.T, s, V
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return U, s, Vt.T


@dataclass
class DmdModel:
    rank: int
    basis: np.ndarray  # (n, r), orthonormal columns
    reduced_op: np.ndarray  # (r, r)
    eigenvalues: np.ndarray  # (r,) complex
    modes: np.ndarray  # (n, r) exact DMD modes


def fit_dmd(factors, xp: np.ndarray, rank: int) -> DmdModel:
    """Exact DMD from ``factors = svd(x)``: reduced operator U^T xp V S^{-1}.

    Column i of xp is column i of x advanced by tau.
    """
    U, s, V = factors
    xp = np.asarray(xp, dtype=np.float64)
    n, m = len(U), len(V)
    if xp.shape != (n, m):
        raise ValueError(f"snapshot matrices must have equal shapes, got {(n, m)} vs {xp.shape}")
    if rank > min(n, m):
        raise ValueError(f"rank {rank} exceeds data size min{(n, m)}")
    if s[rank - 1] / s[0] < 1e-12:
        raise ValueError(f"rank too high for data: sigma_{rank}/sigma_1 < 1e-12")
    Ur, sr, Vr = U[:, :rank], s[:rank], V[:, :rank]
    a_tilde = Ur.T @ xp @ Vr / sr
    eigvals, W = np.linalg.eig(a_tilde)
    modes = xp @ Vr / sr @ W
    return DmdModel(rank, Ur, a_tilde, eigvals, modes)


def dmd_predict(model: DmdModel, U: np.ndarray, n_steps: int) -> np.ndarray:
    """States U (B, n) -> (n_steps + 1, B, n); entry k is U A~^k U^T u(t),
    the prediction at t + k tau."""
    steps = [np.asarray(U, dtype=np.float64) @ model.basis]
    for _ in range(n_steps):
        steps.append(steps[-1] @ model.reduced_op.T)
    return np.stack(steps) @ model.basis.T


@dataclass
class PodModel:
    rank: int
    basis: np.ndarray  # (n, r)
    diffusion: np.ndarray  # (r, r): nu * U^T D2 U
    advection: np.ndarray  # (r, r, r): -U^T (U_j . D1 U_k)
    nu: float
    tau: float
    substeps: int = 20


def fit_pod(factors, rank: int, nu: float, tau: float, substeps: int = 20) -> PodModel:
    """POD basis from ``factors = svd(x)`` plus precomputed reduced Burgers tensors."""
    U, s, V = factors
    if rank > min(len(U), len(V)):
        raise ValueError(f"rank {rank} exceeds data size min{(len(U), len(V))}")
    if s[rank - 1] / s[0] < 1e-12:
        raise ValueError(f"rank too high for data: sigma_{rank}/sigma_1 < 1e-12")
    Ur = U[:, :rank]

    # inner products need no dx factor: the basis is orthonormal in the same
    # discrete product used for the projection
    d1 = np.stack([spectral_derivative(Ur[:, j]) for j in range(rank)], axis=1)
    d2 = np.stack([spectral_second_derivative(Ur[:, j]) for j in range(rank)], axis=1)
    diffusion = nu * (Ur.T @ d2)
    advection = -np.einsum("xi,xj,xk->ijk", Ur, Ur, d1)
    return PodModel(rank, Ur, diffusion, advection, nu, tau, substeps)


def pod_predict(model: PodModel, U: np.ndarray, n_steps: int) -> np.ndarray:
    """States U (B, n) -> (n_steps + 1, B, n): one RK4 integration of the
    reduced system to n_steps * tau, lifted back at every multiple of tau.
    One row whose coefficients blow up (|c|^2 > 1e12, or not finite) fails all."""
    r = model.rank  # the quadratic term is one matmul over the r^2 products c_j c_k
    diffusion_t, advection_t = model.diffusion.T, model.advection.reshape(r, r * r).T

    def rhs(c):
        cc = (c[..., :, None] * c[..., None, :]).reshape(*c.shape[:-1], r * r)
        return c @ diffusion_t + cc @ advection_t

    c = np.asarray(U, dtype=np.float64) @ model.basis
    dt = model.tau / model.substeps
    half, sixth = 0.5 * dt, dt / 6.0
    steps = [c]
    for _ in range(n_steps):
        for _ in range(model.substeps):
            k1 = rhs(c)
            k2 = rhs(c + half * k1)
            k3 = rhs(c + half * k2)
            k4 = rhs(c + dt * k3)
            c = c + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            # NaN and Inf fail the comparison, as does a finite c whose square overflows
            if not np.all(np.einsum("...i,...i", c, c) <= 1e12):
                raise RuntimeError(f"reduced model unstable at rank {model.rank}")
        steps.append(c)
    return np.stack(steps) @ model.basis.T
