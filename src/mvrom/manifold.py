"""Manifold latent spaces: nearest-point projection and its gradients.

A latent manifold is either analytic (product of circles, with a closed-form
normalization map) or a dense point cloud equipped with local charts.  The
projection Lambda(w) = argmin_{z in M} 0.5*|w - z|^2 is solved in two phases:
a coarse nearest-cloud-point query, then Gauss-Newton refinement of
Phi(u) = 0.5*|w - sigma(u)|^2 in that point's chart.

The backward map is the implicit-function-theorem linearization of the
optimality condition G(u, w) = grad_u Phi = 0:

    dLambda/dw = grad_u(sigma) [grad_u G]^{-1} grad_u(sigma)^T,
    [grad_u G]_ij = sum_k d_uj sigma_k d_ui sigma_k
                  - sum_k (w_k - sigma_k) d2_{ui uj} sigma_k.

The solve only needs a zero of G (Gauss-Newton far out, full Newton near
the solution); the Jacobian always uses the full Hessian including the
residual-curvature term, which is what makes off-manifold gradients exact.
At zero residual the formula reduces to the orthogonal tangent-space
projector.

Every manifold offers one batch method, ``project(W) -> (Z, J, flagged)``:
projected points, per-sample Jacobians dLambda/dw and a mask of samples
whose projection is unusable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad

CENTER_EPS = 1e-8
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
CANDIDATES = 4  # nearest cloud points refined per sample
COND_LIMIT = 1e12


class ProjectionError(ValueError):
    """Projection is undefined or unusable at the requested point."""


# ---------------------------------------------------------------------------
# analytic product-of-circles manifold (torus for two factors)


class AnalyticTorus:
    """Unit product of two circles in R^4 with closed-form projection.

    Each coordinate pair is normalized independently; the Jacobian is block
    diagonal with 2x2 blocks (I - zhat zhat^T) / |w_pair|.
    """

    m = 2
    n = 4

    def project(self, W: np.ndarray):
        """(Z, Jacobians, flagged) for a (B, 4) batch; nothing is ever flagged."""
        W = np.asarray(W, dtype=np.float64)
        if W.ndim != 2 or W.shape[1] != 4:
            raise ProjectionError(f"torus projection expects (B, 4) inputs, got {W.shape}")
        pairs = W.reshape(-1, 2, 2)
        norms = np.linalg.norm(pairs, axis=-1)
        if np.any(norms < CENTER_EPS):
            raise ProjectionError("projection undefined at circle center")
        zhat = pairs / norms[..., None]
        Z = zhat.reshape(W.shape)
        eye = np.eye(2)
        blocks = (eye[None, None] - zhat[..., :, None] * zhat[..., None, :]) / norms[
            ..., None, None
        ]
        J = np.zeros((W.shape[0], 4, 4))
        J[:, 0:2, 0:2] = blocks[:, 0]
        J[:, 2:4, 2:4] = blocks[:, 1]
        return Z, J, np.zeros(W.shape[0], dtype=bool)


# ---------------------------------------------------------------------------
# analytic surfaces (global parameterizations with exact derivatives)


class ProductCirclesSurface:
    """sigma(u) = (r_1 cos u_1, r_1 sin u_1, ..., r_m cos u_m, r_m sin u_m)."""

    def __init__(self, radii):
        self.radii = tuple(float(r) for r in radii)
        if any(r <= 0 for r in self.radii):
            raise ValueError("circle radii must be positive")
        self.m = len(self.radii)
        self.n = 2 * self.m

    def frames(self, U: np.ndarray):
        U = np.asarray(U, dtype=np.float64)
        B = U.shape[:-1]
        sigma = np.zeros(B + (self.n,))
        jac = np.zeros(B + (self.n, self.m))
        hess = np.zeros(B + (self.n, self.m, self.m))
        for i, r in enumerate(self.radii):
            c, s = r * np.cos(U[..., i]), r * np.sin(U[..., i])
            sigma[..., 2 * i] = c
            sigma[..., 2 * i + 1] = s
            jac[..., 2 * i, i] = -s
            jac[..., 2 * i + 1, i] = c
            hess[..., 2 * i, i, i] = -c
            hess[..., 2 * i + 1, i, i] = -s
        return sigma, jac, hess

    def canonicalize(self, U: np.ndarray) -> np.ndarray:
        return np.mod(U, 2 * np.pi)

    def grid_params(self, resolution: int) -> np.ndarray:
        axes = [np.arange(resolution) * 2 * np.pi / resolution] * self.m
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=-1)

    def descriptor(self):
        return ("circles",) + self.radii


class KleinSurface:
    """Klein bottle embedded in R^4.

    z1 = (a + b cos u2) cos u1          z2 = (a + b cos u2) sin u1
    z3 = b sin u2 cos(u1/2)             z4 = b sin u2 sin(u1/2)

    The map is 4*pi-periodic in u1 with the gluing
    (u1, u2) ~ (u1 + 2*pi, 2*pi - u2); on [0, 2*pi) x [0, 2*pi) it is
    injective, so a uniform grid there samples the surface exactly once.
    a > b keeps the image embedded (no self-intersection).
    """

    m = 2
    n = 4

    def __init__(self, a: float, b: float):
        if not a > b > 0:
            raise ValueError(f"klein surface requires a > b > 0, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)

    def frames(self, U: np.ndarray):
        U = np.asarray(U, dtype=np.float64)
        u1, u2 = U[..., 0], U[..., 1]
        a, b = self.a, self.b
        c1, s1 = np.cos(u1), np.sin(u1)
        c2, s2 = np.cos(u2), np.sin(u2)
        ch, sh = np.cos(u1 / 2), np.sin(u1 / 2)
        ring = a + b * c2

        sigma = np.stack([ring * c1, ring * s1, b * s2 * ch, b * s2 * sh], axis=-1)

        d1 = np.stack([-ring * s1, ring * c1, -0.5 * b * s2 * sh, 0.5 * b * s2 * ch], axis=-1)
        d2 = np.stack([-b * s2 * c1, -b * s2 * s1, b * c2 * ch, b * c2 * sh], axis=-1)
        jac = np.stack([d1, d2], axis=-1)

        d11 = np.stack(
            [-ring * c1, -ring * s1, -0.25 * b * s2 * ch, -0.25 * b * s2 * sh], axis=-1
        )
        d12 = np.stack(
            [b * s2 * s1, -b * s2 * c1, -0.5 * b * c2 * sh, 0.5 * b * c2 * ch], axis=-1
        )
        d22 = np.stack([-b * c2 * c1, -b * c2 * s1, -b * s2 * ch, -b * s2 * sh], axis=-1)
        hess = np.stack(
            [np.stack([d11, d12], axis=-1), np.stack([d12, d22], axis=-1)], axis=-1
        )
        return sigma, jac, hess

    def canonicalize(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.float64)
        u1 = np.mod(U[..., 0], 4 * np.pi)
        u2 = np.mod(U[..., 1], 2 * np.pi)
        flip = u1 >= 2 * np.pi
        u1 = np.where(flip, u1 - 2 * np.pi, u1)
        u2 = np.where(flip, np.mod(2 * np.pi - u2, 2 * np.pi), u2)
        return np.stack([u1, u2], axis=-1)

    def grid_params(self, resolution: int) -> np.ndarray:
        axis = np.arange(resolution) * 2 * np.pi / resolution
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([g1.reshape(-1), g2.reshape(-1)], axis=-1)

    def descriptor(self):
        return ("klein", self.a, self.b)

# ---------------------------------------------------------------------------
# local quadratic charts fitted to a point cloud

@dataclass
class MongeCharts:
    """Per-point quadratic height-function charts over fitted tangent planes.

    Chart k is sigma(xi) = p_k + T_k xi + N_k h(xi) with
    h_a(xi) = B_a . xi + 0.5 xi^T Q_a xi, fitted by least squares to the
    k-nearest neighbors in the frame (T_k, N_k) from a local SVD.  The fit
    has no constant term, so every cloud point lies exactly on its own chart.
    """

    tangent: np.ndarray  # (P, n, m)
    normal: np.ndarray  # (P, n, n-m)
    lin: np.ndarray  # (P, n-m, m)
    quad: np.ndarray  # (P, n-m, m, m)
    radius: np.ndarray  # (P,) max |xi| among fit neighbors


def _quad_design(xi: np.ndarray) -> np.ndarray:
    """Columns [xi_i] + [xi_i xi_j terms matching 0.5 xi^T Q xi] for i <= j."""
    m = xi.shape[-1]
    cols = [xi[..., i] for i in range(m)]
    for i in range(m):
        for j in range(i, m):
            if i == j:
                cols.append(0.5 * xi[..., i] * xi[..., i])
            else:
                cols.append(xi[..., i] * xi[..., j])
    return np.stack(cols, axis=-1)


def fit_monge_charts(points: np.ndarray, m: int, k_neighbors: int = 12) -> MongeCharts:
    points = np.asarray(points, dtype=np.float64)
    P, n = points.shape
    n_quad = m * (m + 1) // 2
    if k_neighbors < m + n_quad + 1:
        raise ValueError(f"need at least {m + n_quad + 1} neighbors to fit, got {k_neighbors}")
    tree = cKDTree(points)
    _, idx = tree.query(points, k=k_neighbors + 1)
    diffs = points[idx[:, 1:]] - points[:, None, :]  # (P, k, n), excluding self
    # local frame: principal directions of the neighbor cloud
    _, _, vt = np.linalg.svd(diffs, full_matrices=True)
    frames = np.swapaxes(vt, 1, 2)  # (P, n, n), columns = directions
    T, N = frames[:, :, :m], frames[:, :, m:]
    xi = np.einsum("pkn,pnm->pkm", diffs, T)
    h = np.einsum("pkn,pnq->pkq", diffs, N)
    A = _quad_design(xi)  # (P, k, m + n_quad)
    coeffs = np.einsum("pcs,psq->pcq", np.linalg.pinv(A), h)  # (P, m+n_quad, n-m)
    lin = np.swapaxes(coeffs[:, :m, :], 1, 2)  # (P, n-m, m)
    quad = np.zeros((P, n - m, m, m))
    col = m
    for i in range(m):
        for j in range(i, m):
            c = coeffs[:, col, :]  # (P, n-m)
            quad[:, :, i, j] = c
            quad[:, :, j, i] = c
            col += 1
    radius = np.linalg.norm(xi, axis=-1).max(axis=1)
    return MongeCharts(T, N, lin, quad, radius)


# ---------------------------------------------------------------------------
# point-cloud manifold

class PointCloudManifold:
    """Dense sample of an m-manifold in R^n with per-point local charts.

    ``chart_kind`` is "analytic" (charts are windows of a global
    parameterization with exact derivatives; chart_params holds each point's
    parameters) or "quadratic" (local Monge-gauge quadratic fits to the
    cloud).  Points and charts are immutable after construction; the spatial
    index serves exact nearest-cloud-point queries.
    """

    def __init__(
        self,
        m: int,
        n: int,
        points: np.ndarray,
        chart_kind: str,
        surface=None,
        chart_params: np.ndarray | None = None,
        monge: MongeCharts | None = None,
        k_neighbors: int = 12,
    ):
        self.m = int(m)
        self.n = int(n)
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != self.n:
            raise ValueError(f"points must be (P, {self.n}), got {self.points.shape}")
        if chart_kind not in ("analytic", "quadratic"):
            raise ValueError(f"unknown chart kind '{chart_kind}'")
        self.chart_kind = chart_kind
        self.surface = surface
        self.k_neighbors = int(k_neighbors)
        if chart_kind == "analytic":
            if surface is None or chart_params is None:
                raise ValueError("analytic charts need a surface and per-point parameters")
            self.chart_params = np.asarray(chart_params, dtype=np.float64)
            self.monge = None
        else:
            self.chart_params = None
            self.monge = monge if monge is not None else fit_monge_charts(
                self.points, self.m, self.k_neighbors
            )
        self.tree = cKDTree(self.points)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def chart_start(self, ids: np.ndarray) -> np.ndarray:
        """Newton starting parameters for the given charts."""
        if self.chart_kind == "analytic":
            return self.chart_params[ids].copy()
        return np.zeros((len(ids), self.m))

    def chart_frames(self, ids: np.ndarray, U: np.ndarray):
        """(sigma, dsigma/du, d2sigma/du2) for chart ids at parameters U."""
        if self.chart_kind == "analytic":
            return self.surface.frames(U)
        mc = self.monge
        T = mc.tangent[ids]  # (B, n, m)
        N = mc.normal[ids]  # (B, n, q)
        Bq = mc.lin[ids]  # (B, q, m)
        Q = mc.quad[ids]  # (B, q, m, m)
        p = self.points[ids]
        Qxi = np.einsum("bqij,bj->bqi", Q, U)
        h = np.einsum("bqi,bi->bq", Bq, U) + 0.5 * np.einsum("bqi,bi->bq", Qxi, U)
        sigma = p + np.einsum("bnm,bm->bn", T, U) + np.einsum("bnq,bq->bn", N, h)
        jac = T + np.einsum("bnq,bqi->bni", N, Bq + Qxi)
        hess = np.einsum("bnq,bqij->bnij", N, Q)
        return sigma, jac, hess

    def clamp_params(self, ids: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Keep quadratic-chart parameters inside their trust region."""
        if self.chart_kind == "analytic":
            return U
        lim = 1.5 * self.monge.radius[ids][:, None]
        return np.clip(U, -lim, lim)

    def canonical_params(self, U: np.ndarray) -> np.ndarray:
        if self.chart_kind == "analytic":
            return self.surface.canonicalize(U)
        return U

    def project(self, W: np.ndarray):
        """(Z, Jacobians, flagged) for a batch; degraded or singular rows are flagged."""
        batch = nearest_point_batch(W, self)
        return batch.z, batch.jacobian, batch.degraded | batch.singular

    # -- plain-text persistence ------------------------------------------

    def save(self, path):
        with open(path, "w") as fh:
            if self.chart_kind == "analytic":
                desc = self.surface.descriptor()
                kind = desc[0]
                params = " ".join(f"{v:.17g}" for v in desc[1:])
                fh.write(f"{self.m} {self.n} {self.num_points} {kind} {params}\n")
                rows = np.hstack([self.points, self.chart_params])
            else:
                fh.write(f"{self.m} {self.n} {self.num_points} quadratic {self.k_neighbors}\n")
                rows = self.points
            np.savetxt(fh, rows, fmt="%.17g")


def load_pointcloud(path) -> PointCloudManifold:
    """Read a cloud written by ``PointCloudManifold.save``.

    The header must parse, the file must end in a newline, and the body must
    hold exactly ``count`` finite rows of n (quadratic) or n + m (analytic)
    columns; any other file raises a ValueError naming it.
    """
    text = Path(path).read_text()
    if not text.endswith("\n"):
        raise ValueError(f"{path}: truncated point-cloud file (no final newline)")
    header_line, _, body = text.partition("\n")
    header = header_line.split()
    try:
        m, n, count, kind = int(header[0]), int(header[1]), int(header[2]), header[3]
        if not 0 < m < n or count < 1:
            raise ValueError(f"need 0 < m < n and rows > 0, got {m}, {n}, {count}")
        if kind == "quadratic":
            k_neighbors, width = int(header[4]) if len(header) > 4 else 12, n
        elif kind == "klein":
            surface, width = KleinSurface(float(header[4]), float(header[5])), n + m
        elif kind == "circles":
            surface, width = ProductCirclesSurface([float(v) for v in header[4:]]), n + m
        else:
            raise ValueError(f"unknown chart kind '{kind}'")
        if kind != "quadratic" and (surface.m, surface.n) != (m, n):
            raise ValueError(f"a {kind} surface has m={surface.m}, n={surface.n}")
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: corrupt point-cloud header ({exc})") from None
    lines = body.splitlines()
    if len(lines) != count:
        raise ValueError(f"{path}: expected {count} rows, found {len(lines)}")
    try:
        rows = np.loadtxt(lines, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable point-cloud rows ({exc})") from None
    if rows.shape[1] != width:
        raise ValueError(f"{path}: expected {width} columns, found {rows.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in data row {bad[0] + 1}")
    if kind == "quadratic":
        return PointCloudManifold(m, n, rows, "quadratic", k_neighbors=k_neighbors)
    return PointCloudManifold(
        m, n, rows[:, :n], "analytic", surface=surface, chart_params=rows[:, n:]
    )


def _cloud_from_surface(surface, resolution: int) -> PointCloudManifold:
    params = surface.grid_params(resolution)
    points, _, _ = surface.frames(params)
    # drop accidental duplicates closer than half the typical spacing
    tree = cKDTree(points)
    dists, _ = tree.query(points, k=2)
    spacing = np.median(dists[:, 1])
    pairs = tree.query_pairs(0.5 * spacing)
    if pairs:
        drop = {max(i, j) for i, j in pairs}
        keep = np.array([i for i in range(len(points)) if i not in drop])
        points, params = points[keep], params[keep]
    return PointCloudManifold(
        surface.m, 2 * surface.m, points, "analytic", surface=surface, chart_params=params
    )


@dataclass(frozen=True)
class KleinConfig:
    a: float = 2.0
    b: float = 1.0
    resolution: int = 256

    def __post_init__(self):
        if not self.a > self.b > 0:
            raise ValueError(f"klein bottle needs a > b > 0, got a={self.a}, b={self.b}")


def build_klein_pointcloud(config: KleinConfig) -> PointCloudManifold:
    if config.resolution < 64:
        raise ValueError("need at least 64 samples per parameter direction")
    return _cloud_from_surface(KleinSurface(config.a, config.b), config.resolution)


def build_torus_pointcloud(resolution: int = 256, radii=(1.0, 1.0)) -> PointCloudManifold:
    if resolution < 64:
        raise ValueError("need at least 64 samples per parameter direction")
    return _cloud_from_surface(ProductCirclesSurface(radii), resolution)


# ---------------------------------------------------------------------------
# nearest-point projection

@dataclass
class BatchProjection:
    z: np.ndarray  # (B, n) points on the manifold
    chart_id: np.ndarray  # (B,)
    u: np.ndarray  # (B, m) chart parameters (canonical)
    jacobian: np.ndarray  # (B, n, n) dLambda/dw
    phi: np.ndarray  # (B,) 0.5 |w - z|^2 at the solution
    grad_norm: np.ndarray  # (B,) |grad_u Phi| at the solution
    coarse_index: np.ndarray  # (B,) nearest cloud point (coarse phase)
    degraded: np.ndarray  # (B,) bool: Newton failed; fell back to the coarse point
    singular: np.ndarray  # (B,) bool: Hessian near-singular; pseudo-inverse Jacobian


def _phi_value(W, sigma):
    return 0.5 * np.sum((W - sigma) ** 2, axis=-1)


def _refine(manifold, W, ids):
    """Minimize Phi(u) = 0.5|w - sigma(u)|^2 within each sample's chart.

    Backtracked Newton on the full Hessian of Phi wherever that Hessian is
    positive definite (everywhere except near the medial axis), falling back
    to Gauss-Newton otherwise.  Gauss-Newton alone contracts with rate
    |1 - A/J'J| per step, which approaches 1 for far-off-manifold points and
    cannot reach the gradient tolerance within the iteration cap; Newton
    shares its zeros of G and is quadratic inside the basin.
    """
    U = manifold.chart_start(ids)
    sigma, jac, hess = manifold.chart_frames(ids, U)
    phi = _phi_value(W, sigma)
    gnorm = np.full(len(ids), np.inf)
    for _ in range(NEWTON_MAX_ITER):
        residual = W - sigma
        G = -np.einsum("bnm,bn->bm", jac, residual)
        gnorm = np.linalg.norm(G, axis=-1)
        if np.all(gnorm <= NEWTON_TOL):
            break
        JtJ = np.einsum("bni,bnj->bij", jac, jac)
        A = JtJ - np.einsum("bn,bnij->bij", residual, hess)
        eigs = np.linalg.eigvalsh(A)
        pos_def = eigs[:, 0] > 1e-10 * np.maximum(1.0, eigs[:, -1])
        h_eff = np.where(pos_def[:, None, None], A, JtJ)
        step = -np.einsum("bij,bj->bi", np.linalg.pinv(h_eff), G)
        # Backtrack where the full step increases Phi, but only in the far
        # field: inside the quadratic basin the decrease per step drops below
        # float resolution of Phi and damping would stall convergence.
        guard = gnorm > 1e-4
        for _ in range(9):
            U_new = manifold.clamp_params(ids, U + step)
            sigma_new, jac_new, hess_new = manifold.chart_frames(ids, U_new)
            phi_new = _phi_value(W, sigma_new)
            worse = guard & (phi_new > phi * (1 + 1e-12) + 1e-15)
            if not np.any(worse):
                break
            step[worse] *= 0.5
        U, sigma, jac, hess, phi = U_new, sigma_new, jac_new, hess_new, phi_new
    residual = W - sigma
    G = -np.einsum("bnm,bn->bm", jac, residual)
    gnorm = np.linalg.norm(G, axis=-1)
    return U, sigma, phi, gnorm


def _ift_jacobians(jac, hess, residual):
    """Full Hessian A of Phi and its condition numbers, for dLambda/dw = J A^{-1} J^T.

    Returns (hessians, condition numbers); callers pick the solve or
    pseudo-inverse path per sample based on the condition number.
    """
    A = np.einsum("bni,bnj->bij", jac, jac) - np.einsum("bn,bnij->bij", residual, hess)
    s = np.linalg.svd(A, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[:, -1] > 0, s[:, 0] / s[:, -1], np.inf)
    return A, cond


def nearest_point_batch(W: np.ndarray, manifold: PointCloudManifold) -> BatchProjection:
    """Project each row of W onto the manifold; coarse k-NN then Gauss-Newton.

    Among refined candidates the minimal Phi wins; exact ties break to the
    lowest chart id.  Non-converged samples fall back to their coarse cloud
    point with ``degraded`` set; near-singular Hessians (medial axis) switch
    to a pseudo-inverse Jacobian with ``singular`` set.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != manifold.n:
        raise ProjectionError(f"expected (B, {manifold.n}) inputs, got {W.shape}")
    if not np.all(np.isfinite(W)):
        raise ProjectionError("projection input must be finite")
    B = W.shape[0]
    K = min(CANDIDATES, manifold.num_points)

    dists, idx = manifold.tree.query(W, k=K)
    if K == 1:
        dists, idx = dists[:, None], idx[:, None]
    # exact-tie determinism: order equal-distance candidates by index
    order = np.lexsort((idx, np.round(dists / 1e-12)), axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    coarse = idx[:, 0]

    flat_ids = idx.reshape(-1)
    flat_W = np.repeat(W, K, axis=0)
    U, sigma, phi, gnorm = _refine(manifold, flat_W, flat_ids)

    phi_k = phi.reshape(B, K)
    ids_k = idx
    # minimal Phi wins; ties (within solver tolerance) go to the lowest chart id
    quant = np.round(phi_k / max(NEWTON_TOL, 1e-14))
    pick = np.lexsort((ids_k, quant), axis=1)[:, 0]
    take = np.arange(B) * K + pick
    U = U[take]
    sigma = sigma[take]
    phi = phi[take]
    gnorm = gnorm[take]
    chart_id = ids_k[np.arange(B), pick]

    degraded = gnorm > max(10 * NEWTON_TOL, 1e-9)
    if np.any(degraded):
        # fall back to the coarse cloud point for samples Newton could not place
        chart_id = np.where(degraded, coarse, chart_id)
        U[degraded] = manifold.chart_start(chart_id[degraded])
        sigma_d, _, _ = manifold.chart_frames(chart_id[degraded], U[degraded])
        sigma[degraded] = sigma_d
        phi[degraded] = _phi_value(W[degraded], sigma_d)

    sigma_f, jac_f, hess_f = manifold.chart_frames(chart_id, U)
    residual = W - sigma_f
    A, cond = _ift_jacobians(jac_f, hess_f, residual)
    singular = ~np.isfinite(cond) | (cond > COND_LIMIT)
    jacobians = np.empty((B, manifold.n, manifold.n))
    good = ~singular
    if np.any(good):
        X = np.linalg.solve(A[good], np.swapaxes(jac_f[good], 1, 2))
        jacobians[good] = np.einsum("bnm,bmk->bnk", jac_f[good], X)
    if np.any(singular):
        X = np.einsum("bij,bkj->bik", np.linalg.pinv(A[singular]), jac_f[singular])
        jacobians[singular] = np.einsum("bnm,bmk->bnk", jac_f[singular], X)

    return BatchProjection(
        z=sigma_f,
        chart_id=chart_id,
        u=manifold.canonical_params(U),
        jacobian=jacobians,
        phi=phi,
        grad_norm=gnorm,
        coarse_index=coarse,
        degraded=degraded,
        singular=singular,
    )


# ---------------------------------------------------------------------------
# tape integration


def manifold_encode_layer(w: "ad.Tensor", manifold, policy: str = "raise"):
    """Project a batch of encoder outputs onto the latent manifold, on-tape.

    The per-sample Jacobians enter the tape through a batched
    custom-Jacobian node, so gradients follow the implicit-function-theorem
    linearization of the projection.  Returns the projected tensor and a
    per-sample validity mask.  Policy "raise" fails the batch on any flagged
    projection; "skip" zeroes the flagged samples' Jacobians (no gradient
    flows) and marks them invalid so the loss can drop them.  ``LatentSpec``
    validates the policy.
    """
    Z, J, flagged = manifold.project(w.data)
    if np.any(flagged):
        if policy == "raise":
            bad = np.flatnonzero(flagged)
            raise ProjectionError(f"projection flagged for batch samples {bad.tolist()}")
        J[flagged] = 0.0
    return ad.batch_custom_jacobian(w, Z, J), ~flagged
