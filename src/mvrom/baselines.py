"""Linear comparison methods: exact DMD and POD with Galerkin evolution.

Both fit an optimal linear subspace from snapshot data via truncated SVD.
DMD additionally fits a linear one-step operator in that subspace; POD keeps
the subspace and evolves the reduced coordinates through the Galerkin
projection of the Burgers right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .burgers import spectral_derivative, spectral_second_derivative


def svd(matrix: np.ndarray):
    """A = U diag(s) V^T with non-increasing singular values; V has columns."""
    A = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(A)):
        raise ValueError("svd requires finite entries")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return U, s, Vt.T


@dataclass
class DmdModel:
    rank: int
    basis: np.ndarray  # (n, r), orthonormal columns
    reduced_op: np.ndarray  # (r, r)
    eigenvalues: np.ndarray  # (r,) complex
    modes: np.ndarray  # (n, r) exact DMD modes


def fit_dmd(x: np.ndarray, xp: np.ndarray, rank: int) -> DmdModel:
    """Exact DMD: truncated SVD of x, reduced operator U^T xp V S^{-1}.

    Column i of xp is column i of x advanced by tau.
    """
    x = np.asarray(x, dtype=np.float64)
    xp = np.asarray(xp, dtype=np.float64)
    if x.shape != xp.shape or x.ndim != 2:
        raise ValueError(f"snapshot matrices must have equal shapes, got {x.shape} vs {xp.shape}")
    n, m = x.shape
    if rank > min(n, m):
        raise ValueError(f"rank {rank} exceeds data size min{(n, m)}")
    U, s, V = svd(x)
    if s[rank - 1] / s[0] < 1e-12:
        raise ValueError(f"rank too high for data: sigma_{rank}/sigma_1 < 1e-12")
    Ur, sr, Vr = U[:, :rank], s[:rank], V[:, :rank]
    a_tilde = Ur.T @ xp @ Vr / sr
    eigvals, W = np.linalg.eig(a_tilde)
    modes = xp @ Vr / sr @ W
    return DmdModel(rank, Ur, a_tilde, eigvals, modes)


def dmd_predict(model: DmdModel, u: np.ndarray, n_steps: int) -> np.ndarray:
    """u(t + k tau) = U A~^k U^T u(t)."""
    op_k = np.linalg.matrix_power(model.reduced_op, n_steps)
    return model.basis @ (op_k @ (model.basis.T @ np.asarray(u, dtype=np.float64)))


@dataclass
class PodModel:
    rank: int
    basis: np.ndarray  # (n, r)
    diffusion: np.ndarray  # (r, r): nu * U^T D2 U
    advection: np.ndarray  # (r, r, r): -U^T (U_j . D1 U_k)
    nu: float
    tau: float
    substeps: int = 20


def fit_pod(x: np.ndarray, rank: int, nu: float, tau: float, substeps: int = 20) -> PodModel:
    """POD basis from snapshot SVD plus precomputed reduced Burgers tensors."""
    X = np.asarray(x, dtype=np.float64)
    n, m = X.shape
    if rank > min(n, m):
        raise ValueError(f"rank {rank} exceeds data size min{(n, m)}")
    U, s, _ = svd(X)
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


def _reduced_rhs(model: PodModel, c: np.ndarray) -> np.ndarray:
    quad = np.einsum("ijk,j,k->i", model.advection, c, c)
    return model.diffusion @ c + quad


def pod_predict(model: PodModel, u: np.ndarray, n_steps: int) -> np.ndarray:
    """Integrate the reduced system over n_steps * tau and lift back."""
    c = model.basis.T @ np.asarray(u, dtype=np.float64)
    dt = model.tau / model.substeps
    for _ in range(n_steps * model.substeps):
        k1 = _reduced_rhs(model, c)
        k2 = _reduced_rhs(model, c + 0.5 * dt * k1)
        k3 = _reduced_rhs(model, c + 0.5 * dt * k2)
        k4 = _reduced_rhs(model, c + dt * k3)
        c = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(c)) or np.linalg.norm(c) > 1e6:
            raise RuntimeError(f"reduced model unstable at rank {model.rank}")
    return model.basis @ c
