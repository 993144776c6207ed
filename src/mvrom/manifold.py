"""Manifold latent spaces: nearest-point projection and its gradients.

A latent manifold is either the analytic torus (a closed-form normalization
map) or a ``PointCloudManifold``: a global analytic parameterization (the
Klein bottle) or a dense point cloud with local quadratic charts, read from
a cloud file (``load_pointcloud``).  The projection
Lambda(w) = argmin_{z in M} 0.5*|w - z|^2 is a minimization of
Phi(u) = 0.5*|w - sigma(u)|^2 from a start point by one
backtracked Newton driver, ``_newton``, with each solver's own step, from
candidate starts that only the chart kinds make differently:

* analytic charts start from the surface's closed-form ``seed(w)`` (the
  Klein bottle's ``solve`` runs Newton in u1 alone, the cross-section angle
  u2 being closed-form), and a row that ends at no minimum of Phi, or above
  the Phi of the surface's ``retry_seed``, is solved again from that seed;
* quadratic charts start at the ``CANDIDATES`` nearest cloud points of a
  k-d tree query, one Newton run in each candidate's chart.

One rule picks the winner: a minimum of Phi beats any other candidate, then
the least Phi wins; a winner that did not converge is flagged ``degraded``,
one at a saddle of Phi (the nearest point not unique) ``singular``.

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

For m = 2, which every shipped manifold has, the 2x2 eigenvalues, solves
and condition numbers are closed forms; other m use LAPACK.  Every step acts
row by row, so a sample's projection is bit-identical whatever batch it is
projected in.

Every manifold offers one batch method, ``project(W) -> (Z, J, flagged)``:
projected points, per-sample Jacobians dLambda/dw and a mask of samples
whose projection is unusable.  ``manifold_encode_layer`` is what the VAE's
latent layer calls; it returns arrays, and the training step's latent node
(``vae``) applies J^T to its adjoint, so this module does not import
``autodiff``.

``scipy.spatial`` (and with it ``scipy.linalg`` and ``scipy.sparse``) is
imported only when a quadratic cloud builds its k-d tree (one tree serves its
chart fit and its projections).  The torus and analytic latents never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import datafiles
from . import domains as dm

CENTER_EPS = 1e-8
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
DEGRADED_TOL = max(10 * NEWTON_TOL, 1e-9)  # |grad Phi| above this: not converged
CANDIDATES = 4  # nearest cloud points refined per sample (quadratic charts)
COND_LIMIT = 1e12


class ProjectionError(ValueError):
    """Projection is undefined or unusable at the requested point."""


# ---------------------------------------------------------------------------
# the analytic torus: a product of two unit circles


class AnalyticTorus:
    """Unit product of two circles in R^4 with closed-form projection.

    Each coordinate pair is normalized independently; the Jacobian is block
    diagonal with 2x2 blocks (I - zhat zhat^T) / |w_pair|.  A row with a
    pair within ``CENTER_EPS`` of its circle's centre, where the nearest
    point is not unique, is flagged: its Z is finite (that pair maps to
    (1, 0)) and its Jacobian zero.
    """

    m = 2
    n = 4

    def project(self, W: np.ndarray):
        """(Z, Jacobians, flagged) for a (B, 4) batch."""
        W = np.asarray(W, dtype=np.float64)
        if W.ndim != 2 or W.shape[1] != 4:
            raise ProjectionError(f"torus projection expects (B, 4) inputs, got {W.shape}")
        pairs = W.reshape(-1, 2, 2)
        norms = np.linalg.norm(pairs, axis=-1)
        center = norms < CENTER_EPS
        norms[center] = np.inf
        zhat = pairs / norms[..., None]
        zhat[center] = (1.0, 0.0)
        Z = zhat.reshape(W.shape)
        blocks = (np.eye(2) - zhat[..., :, None] * zhat[..., None, :]) / norms[..., None, None]
        J = np.zeros((W.shape[0], 4, 4))
        J[:, 0:2, 0:2] = blocks[:, 0]
        J[:, 2:4, 2:4] = blocks[:, 1]
        flagged = center.any(axis=1)
        J[flagged] = 0.0
        return Z, J, flagged


# ---------------------------------------------------------------------------
# the Klein bottle: a global parameterization with exact derivatives


class KleinSurface:
    """Klein bottle embedded in R^4.

    z1 = (a + b cos u2) cos u1          z2 = (a + b cos u2) sin u1
    z3 = b sin u2 cos(u1/2)             z4 = b sin u2 sin(u1/2)

    The map is 4*pi-periodic in u1 with the gluing
    (u1, u2) ~ (u1 + 2*pi, 2*pi - u2); on [0, 2*pi) x [0, 2*pi) it is
    injective, so a uniform grid there samples the surface exactly once.
    a > b keeps the image embedded (no self-intersection).

    For fixed u1 the points sigma(u1, .) form a circle whose nearest point to
    w is closed-form (``seed``), so ``solve`` minimizes Phi by Newton in u1
    alone and takes u2 from that circle.
    """

    m = 2
    n = 4
    # the u1 grid of ``retry_seed``, with e and f (see ``seed``) at each node
    _nodes = np.arange(64) * (2 * np.pi / 64)
    _node_frames = np.stack([np.cos(_nodes), np.sin(_nodes), np.cos(_nodes / 2), np.sin(_nodes / 2)])

    def __init__(self, a: float, b: float):
        KleinConfig(a, b)  # the radii's domains and rule
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
        bs2, bc2 = b * s2, b * c2
        shape = U.shape[:-1]
        sigma = np.empty(shape + (4,))
        jac = np.empty(shape + (4, 2))  # [..., k, i] = d sigma_k / d u_i
        hess = np.empty(shape + (4, 2, 2))
        # Entries that are a negated or power-of-two multiple of another are
        # copied from it; both operations are exact in floating point.
        sigma[..., 0] = ring * c1
        sigma[..., 1] = ring * s1
        sigma[..., 2] = bs2 * ch
        sigma[..., 3] = bs2 * sh
        jac[..., 0, 0] = -sigma[..., 1]
        jac[..., 1, 0] = sigma[..., 0]
        jac[..., 2, 0] = -0.5 * sigma[..., 3]
        jac[..., 3, 0] = 0.5 * sigma[..., 2]
        jac[..., 0, 1] = -bs2 * c1
        jac[..., 1, 1] = -bs2 * s1
        jac[..., 2, 1] = bc2 * ch
        jac[..., 3, 1] = bc2 * sh
        hess[..., :2, 0, 0] = -sigma[..., :2]
        hess[..., 2:, 0, 0] = -0.25 * sigma[..., 2:]
        hess[..., 0, 0, 1] = -jac[..., 1, 1]
        hess[..., 1, 0, 1] = jac[..., 0, 1]
        hess[..., 2, 0, 1] = -0.5 * jac[..., 3, 1]
        hess[..., 3, 0, 1] = 0.5 * jac[..., 2, 1]
        hess[..., :, 1, 0] = hess[..., :, 0, 1]
        hess[..., 0, 1, 1] = -bc2 * c1
        hess[..., 1, 1, 1] = -bc2 * s1
        hess[..., 2:, 1, 1] = -sigma[..., 2:]
        return sigma, jac, hess

    def canonicalize(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.float64)
        u1 = np.mod(U[..., 0], 4 * np.pi)
        u2 = np.mod(U[..., 1], 2 * np.pi)
        flip = u1 >= 2 * np.pi
        u1 = np.where(flip, u1 - 2 * np.pi, u1)
        u2 = np.where(flip, np.mod(2 * np.pi - u2, 2 * np.pi), u2)
        return np.stack([u1, u2], axis=-1)

    def seed(self, W: np.ndarray) -> np.ndarray:
        """Newton start: u1 is the angle of (w1, w2), u2 the nearest point of
        the cross-section circle at u1.  Exact on the surface; the u1 seam
        (the z3-z4 plane, where that angle is undefined) needs a retry.

        The circle {sigma(u1, .)} has centre a e and radius b in the plane of
        e = (cos u1, sin u1, 0, 0) and f = (0, 0, cos u1/2, sin u1/2); with
        x = w.e - a and y = w.f the coordinates of w about that centre, its
        nearest point is at u2 = atan2(y, x), where
        Phi = 0.5 (|w|^2 - a^2 + b^2) - (a x + b hypot(x, y)).
        """
        u1 = np.arctan2(W[:, 1], W[:, 0])
        x = W[:, 0] * np.cos(u1) + W[:, 1] * np.sin(u1) - self.a
        y = W[:, 2] * np.cos(u1 / 2) + W[:, 3] * np.sin(u1 / 2)
        return np.stack([u1, np.arctan2(y, x)], axis=-1)

    def retry_seed(self, W: np.ndarray):
        """A further start and Phi there: the node of a 64-point u1 grid where
        Phi, minimized over u2 as in ``seed``, is least.  Its Phi bounds the
        least Phi from above, so a solution that lies higher is not the
        nearest point."""
        x = W[:, :2] @ self._node_frames[:2] - self.a
        y = W[:, 2:] @ self._node_frames[2:]
        score = self.a * x + self.b * np.hypot(x, y)
        rows, best = np.arange(len(W)), np.argmax(score, axis=1)
        U = np.stack([self._nodes[best], np.arctan2(y[rows, best], x[rows, best])], axis=-1)
        phi = 0.5 * (np.sum(W * W, axis=1) - self.a**2 + self.b**2) - score[rows, best]
        return U, phi

    def reduced(self, W: np.ndarray, u1: np.ndarray):
        """Phi minimized over u2, as a function of u1, with its derivatives.

        Returns (x, y, F, F', F'', g) per row: x and y as in ``seed``, so the
        best u2 is atan2(y, x) and Phi = 0.5 (|w|^2 - a^2 + b^2) - F with
        F = a x + b r, r = hypot(x, y); and g = |dsigma/du1|^2 there.  With
        (c, s) = (x, y) / r, x'' = -(x + a) and y'' = -y/4,

            F'  = a x' + b (c x' + s y'),
            F'' = a x'' + b (c x'' + s y'' + (c y' - s x')^2 / r).

        On the core circle (r = 0) F has a kink; there (c, s) = (1, 0), the
        u2 = 0 that atan2 gives, and F'' = +inf.
        """
        a, b = self.a, self.b
        c1, s1 = np.cos(u1), np.sin(u1)
        ch, sh = np.cos(u1 / 2), np.sin(u1 / 2)
        x = W[:, 0] * c1 + W[:, 1] * s1 - a
        y = W[:, 2] * ch + W[:, 3] * sh
        dx = W[:, 1] * c1 - W[:, 0] * s1
        dy = 0.5 * (W[:, 3] * ch - W[:, 2] * sh)
        r = np.hypot(x, y)
        off = r > 0
        r_off = np.where(off, r, 1.0)
        c, s = np.where(off, x / r_off, 1.0), y / r_off
        bend = np.where(off, (c * dy - s * dx) ** 2 / r_off, np.inf)
        F = a * x + b * r
        dF = a * dx + b * (c * dx + s * dy)
        d2F = -a * (x + a) + b * (bend - c * (x + a) - 0.25 * s * y)
        g = (a + b * c) ** 2 + 0.25 * (b * s) ** 2
        return x, y, F, dF, d2F, g

    def solve(self, W: np.ndarray, U: np.ndarray) -> np.ndarray:
        """The nearest point's parameters, by ``_newton`` in u1 from U's u1.

        With u2 at its best for every u1 (``reduced``), Phi is a function of
        u1 alone, and dPhi/du2 = 0 leaves dPhi/du1 = -F': variable projection
        (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).  So |F'| is
        |grad Phi|.  The step is Newton's where -F'' > 1e-10 and
        Gauss-Newton's, on g = |dsigma/du1|^2 >= (a - b)^2, elsewhere.
        """

        def evaluate(u1, W, const):
            x, y, F, dF, d2F, g = self.reduced(W, u1)
            return u1, const - F, np.abs(dF), x, y, dF, np.where(-d2F > 1e-10, -d2F, g)

        def step(state, W, const):
            return state[5] / state[6]

        const = 0.5 * (np.sum(W * W, axis=1) - self.a**2 + self.b**2)
        u1, _, _, x, y, *_ = _newton(evaluate, step, U[:, 0].copy(), W, const)
        return np.stack([u1, np.arctan2(y, x)], axis=-1)

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


def fit_monge_charts(points: np.ndarray, tree, m: int, k_neighbors: int = 12) -> MongeCharts:
    """One chart per row of ``points``, fitted to its ``k_neighbors`` nearest
    neighbours as ``tree``, a k-d tree over those points, finds them."""
    P, n = points.shape
    n_quad = m * (m + 1) // 2
    if not m + n_quad + 1 <= k_neighbors < P:
        raise ValueError(f"need {m + n_quad + 1} <= k_neighbors < {P} points to fit, "
                         f"got {k_neighbors}")
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
    """An m-manifold in R^n with charts for the nearest-point projection.

    ``chart_kind`` is "analytic" or "quadratic".  Analytic charts are one
    global parameterization ``surface`` with exact derivatives; the surface
    solves its own projection from its closed-form seed (Newton in u1 alone
    for the Klein bottle), so no point cloud or spatial index is needed, and
    ``points`` and ``chart_params`` are optional: ``build_klein_pointcloud``
    fills them with a grid.  Quadratic charts are local Monge-gauge fits to
    a dense cloud, one per point; one k-d tree over the points, ``tree``,
    finds the neighbours each chart is fitted to and the charts Newton
    starts in.  Building that tree is what first imports ``scipy.spatial``;
    an analytic cloud never loads it.  Points and charts are immutable after
    construction.

    Quadratic charts do not resolve the medial axis; a sample there is
    flagged, and under the ``skip`` policy it leaves the loss.  On a
    resolution-96 quadratic torus one exactly at a circle's centre ends at
    a saddle of Phi in every candidate chart and is flagged ``singular``, as
    the analytic torus flags it; within a few 1e-3 of that centre no
    candidate reaches ``NEWTON_TOL`` within ``NEWTON_MAX_ITER`` steps (Phi's
    Hessian is indefinite in each), and the sample ends ``degraded``.
    """

    def __init__(
        self,
        m: int,
        n: int,
        points: np.ndarray | None,
        chart_kind: str,
        surface=None,
        chart_params: np.ndarray | None = None,
        k_neighbors: int = 12,
    ):
        self.m = int(m)
        self.n = int(n)
        if not 0 < self.m < self.n:
            raise ValueError(f"need 0 < m < n, got m={self.m}, n={self.n}")
        if chart_kind not in ("analytic", "quadratic"):
            raise ValueError(f"unknown chart kind '{chart_kind}'")
        if points is None and chart_kind == "analytic":
            points, chart_params = np.empty((0, self.n)), np.empty((0, self.m))
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != self.n:
            raise ValueError(f"points must be (P, {self.n}), got {self.points.shape}")
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
            from scipy.spatial import cKDTree  # its only import: about 35 MB and 0.3 s

            self.tree = tree = cKDTree(self.points)
            self.monge = fit_monge_charts(self.points, tree, self.m, self.k_neighbors)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def chart_frames(self, ids: np.ndarray, U: np.ndarray):
        """(sigma, dsigma/du, d2sigma/du2) for chart ids at parameters U.

        Analytic charts ignore ``ids`` (the projection passes -1 per row)."""
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


def load_pointcloud(path) -> PointCloudManifold:
    """Read a quadratic-chart cloud (``model.pointcloud_file``): a header line
    ``m n count quadratic [k_neighbors]`` (12 neighbours by default), then
    ``count`` rows of n numbers, one point each.

    The header must parse, the file must end in a newline, and the body must
    hold exactly ``count`` finite rows of n columns that ``PointCloudManifold``
    accepts; any other file, and a cloud of any other kind (the closed-form
    latents are ``model.latent=klein|torus``), raises a ValueError naming it.
    """
    text = datafiles.read_text(path)
    if not text.endswith("\n"):
        raise ValueError(f"{path}: truncated point-cloud file (no final newline)")
    header_line, _, body = text.partition("\n")
    header = header_line.split()
    try:
        m, n, count, kind = int(header[0]), int(header[1]), int(header[2]), header[3]
        if count < 1:
            raise ValueError(f"need rows > 0, got {count}")
        k_neighbors = int(header[4]) if kind == "quadratic" and len(header) > 4 else 12
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: corrupt point-cloud header ({exc})") from None
    if kind != "quadratic":
        raise ValueError(f"{path}: a '{kind}' point cloud; only quadratic-chart clouds are read "
                         "(the closed-form latents are model.latent=klein|torus)")
    lines = body.splitlines()
    if len(lines) != count:
        raise ValueError(f"{path}: expected {count} rows, found {len(lines)}")
    try:
        rows = np.loadtxt(lines, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable point-cloud rows ({exc})") from None
    if rows.shape[1] != n:
        raise ValueError(f"{path}: expected {n} columns, found {rows.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in data row {bad[0] + 1}")
    try:
        return PointCloudManifold(m, n, rows, "quadratic", k_neighbors=k_neighbors)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class KleinConfig:
    """Klein-bottle radii, a > b; ``resolution`` sizes only ``build_klein_pointcloud``."""

    a: float = dm.setting(dm.POSITIVE, 2.0)
    b: float = dm.setting(dm.POSITIVE, 1.0)
    resolution: int = dm.setting(dm.KLEIN_RESOLUTION, 256)

    def __post_init__(self):
        dm.check_fields(self)
        self.check_radii(self.a, self.b)

    @staticmethod
    def check_radii(a, b, prefix: str = "") -> None:
        """The radii's one cross-field rule, a > b, which keeps the surface
        embedded; a ConfigError names ``<prefix>a``."""
        dm.require(a > b, f"{prefix}a", f"greater than {prefix}b, {b!r}", a)


def build_klein_pointcloud(config: KleinConfig) -> PointCloudManifold:
    """A resolution x resolution grid of the Klein bottle, with analytic
    charts.  The grid spacing is uniform and the map injective on the
    grid's domain, so no two points coincide."""
    surface = KleinSurface(config.a, config.b)
    axis = np.arange(config.resolution) * 2 * np.pi / config.resolution
    params = np.stack([g.reshape(-1) for g in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
    return PointCloudManifold(2, 4, surface.frames(params)[0], "analytic", surface=surface,
                              chart_params=params)


# ---------------------------------------------------------------------------
# nearest-point projection

@dataclass
class BatchProjection:
    z: np.ndarray  # (B, n) points on the manifold
    chart_id: np.ndarray  # (B,) winning chart; -1 for analytic charts
    u: np.ndarray  # (B, m) chart parameters (canonical)
    jacobian: np.ndarray  # (B, n, n) dLambda/dw
    phi: np.ndarray  # (B,) 0.5 |w - z|^2 at the solution
    grad_norm: np.ndarray  # (B,) |grad_u Phi| at the solution
    coarse_index: np.ndarray  # (B,) nearest cloud point (coarse phase); -1 for analytic charts
    degraded: np.ndarray  # (B,) bool: Newton failed; fell back to the seed or coarse point
    singular: np.ndarray  # (B,) bool: saddle of Phi, or near-singular Hessian (pinv Jacobian)


def _phi_value(W, sigma):
    return 0.5 * np.sum((W - sigma) ** 2, axis=-1)


def _sym_eigvalsh(A):
    """Ascending eigenvalues of a batch of symmetric m x m matrices.

    For m = 2 they are mean -+ hypot((a - c)/2, b); other m call LAPACK.
    """
    if A.shape[-1] != 2:
        return np.linalg.eigvalsh(A)
    a, b, c = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
    mean = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    return np.stack([mean - rad, mean + rad], axis=-1)


def _det(H):
    if H.shape[-1] != 2:
        return np.linalg.det(H)
    return H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]


def _solve(H, R, det, use_pinv):
    """H^{-1} R per row for R of shape (B, m, k).

    For m = 2 the inverse is the adjugate over ``det``; other m call
    ``np.linalg.solve``.  Rows in the mask ``use_pinv`` (and only those,
    which must include every row with det == 0) take the pseudo-inverse.
    """
    if np.any(use_pinv):
        X = np.empty(R.shape)
        ok = ~use_pinv
        X[ok] = _solve(H[ok], R[ok], det[ok], use_pinv[ok])
        X[use_pinv] = np.linalg.pinv(H[use_pinv]) @ R[use_pinv]
        return X
    if H.shape[-1] != 2:
        return np.linalg.solve(H, R)
    d = det[:, None]
    X = np.empty(R.shape)
    X[:, 0] = (H[:, 1, 1, None] * R[:, 0] - H[:, 0, 1, None] * R[:, 1]) / d
    X[:, 1] = (H[:, 0, 0, None] * R[:, 1] - H[:, 1, 0, None] * R[:, 0]) / d
    return X


def _newton(evaluate, newton_step, U, *data):
    """Backtracked Newton minimization of Phi, row by row; both nearest-point
    solvers (``_refine`` and ``KleinSurface.solve``) run it.

    ``evaluate(U, *data)`` returns a state tuple (U, Phi, |grad Phi|, ...)
    at the parameters U, which it may move (into a trust region, say), with
    whatever else ``newton_step(state, *data)`` needs to return the full
    step from that state.  ``U`` and each array of ``data`` hold one row per
    sample.  Returns each row's state as it leaves.

    A row leaves as soon as |grad Phi| is at most ``NEWTON_TOL``, or after
    ``NEWTON_MAX_ITER`` steps.  A step that raises Phi while
    |grad Phi| > 1e-4 is halved, with nine evaluations in all, and the last
    is kept: only in the far field, since inside the quadratic basin the
    decrease per step drops below the float resolution of Phi and damping
    would stall convergence.  Only the halved rows are evaluated again.
    Every operation acts row by row, so a row's result does not depend on
    the other rows of the batch.
    """
    state = evaluate(U, *data)
    final = state  # each row's state as it leaves
    rows = np.arange(len(U))
    for it in range(NEWTON_MAX_ITER + 1):
        go_on = (state[2] > NEWTON_TOL) & (it < NEWTON_MAX_ITER)
        if not go_on.all():
            stop = ~go_on
            done = rows[stop]
            for out, part in zip(final, state):
                out[done] = part[stop]
            rows = rows[go_on]
            if not rows.size:
                break
            state = tuple(part[go_on] for part in state)
            data = tuple(part[go_on] for part in data)
        U, phi, gnorm = state[:3]
        step = newton_step(state, *data)
        new = evaluate(U + step, *data)
        worse = np.flatnonzero((gnorm > 1e-4) & (new[1] > phi * (1 + 1e-12) + 1e-15))
        for _ in range(8):
            if not worse.size:
                break
            step[worse] *= 0.5
            part = evaluate(U[worse] + step[worse], *(d[worse] for d in data))
            for whole, p in zip(new, part):
                whole[worse] = p
            worse = worse[part[1] > phi[worse] * (1 + 1e-12) + 1e-15]
        state = new
    return final


def _refine(manifold, W, ids, U):
    """Minimize Phi(u) = 0.5|w - sigma(u)|^2 within each row's quadratic
    chart by ``_newton`` from the start parameters U, kept inside the
    chart's trust region.  (Analytic charts are minimized by their
    surface's ``solve``.)

    Returns (U, sigma, phi, |grad Phi|, dsigma/du, d2sigma/du2) per row.

    The step is Newton's on the full Hessian A of Phi wherever A is positive
    definite (everywhere except near the medial axis) and Gauss-Newton's
    otherwise.  Gauss-Newton alone contracts with rate |1 - A/J'J| per step,
    which approaches 1 for far-off-manifold points and cannot reach the
    gradient tolerance within the iteration cap; Newton shares its zeros of
    G and is quadratic inside the basin.
    """

    def evaluate(U, W, ids):
        U = manifold.clamp_params(ids, U)
        sigma, jac, hess = manifold.chart_frames(ids, U)
        G = -np.einsum("bnm,bn->bm", jac, W - sigma)
        return U, _phi_value(W, sigma), np.linalg.norm(G, axis=-1), G, sigma, jac, hess

    def step(state, W, ids):
        _, _, _, G, sigma, jac, hess = state
        A, eigs = _phi_hessian(jac, hess, W - sigma)
        pos_def = eigs[:, 0] > 1e-10 * np.maximum(1.0, eigs[:, -1])
        h_eff = np.where(pos_def[:, None, None], A, np.einsum("bni,bnj->bij", jac, jac))
        det = _det(h_eff)
        return -_solve(h_eff, G[:, :, None], det, det == 0)[:, :, 0]

    U, phi, gnorm, _, sigma, jac, hess = _newton(evaluate, step, U, W, ids)
    return U, sigma, phi, gnorm, jac, hess


def _solve_candidates(manifold, W, ids, start):
    """Minimize Phi per row from ``start`` in the chart ``ids``: analytic
    charts (ids -1) by their surface's ``solve``, quadratic ones by
    ``_refine``.  Returns [chart id, U, sigma, phi, |grad Phi|, dsigma/du,
    d2sigma/du2, A, eigenvalues of A, minimum], A being Phi's Hessian.  A
    minimum converged (|grad Phi| <= ``DEGRADED_TOL``) with A's least
    eigenvalue at least -1e-10 max(1, its largest); others are saddles or unconverged."""
    if manifold.chart_kind == "analytic":
        U = manifold.surface.solve(W, start)
        sigma, jac, hess = manifold.chart_frames(ids, U)
        gnorm = np.linalg.norm(np.einsum("bnm,bn->bm", jac, W - sigma), axis=-1)
        phi = _phi_value(W, sigma)
    else:
        U, sigma, phi, gnorm, jac, hess = _refine(manifold, W, ids, start)
    A, eigs = _phi_hessian(jac, hess, W - sigma)
    minimum = (gnorm <= DEGRADED_TOL) & (eigs[:, 0] >= -1e-10 * np.maximum(1.0, eigs[:, -1]))
    return [ids, U, sigma, phi, gnorm, jac, hess, A, eigs, minimum]


def _merge(best, challenger, rows):
    """Replace, in place, row ``rows[i]`` of the candidates ``best`` by row i
    of ``challenger`` where the challenger's key (not a minimum, Phi rounded
    to ``NEWTON_TOL``, chart id) is strictly smaller; a full tie keeps the
    incumbent."""
    def key(c, sel):
        return ~c[9][sel], np.round(c[3][sel] / NEWTON_TOL), c[0][sel]

    less, tied = np.zeros(len(rows), dtype=bool), np.ones(len(rows), dtype=bool)
    for new, old in zip(key(challenger, slice(None)), key(best, rows)):
        less |= tied & (new < old)
        tied &= new == old
    for out, part in zip(best, challenger):
        out[rows[less]] = part[less]


def _phi_hessian(jac, hess, residual):
    """(A, eigenvalues of A): the Hessian A = J^T J - (w - sigma) . d2sigma
    of Phi per row, and its ascending eigenvalues."""
    A = np.einsum("bni,bnj->bij", jac, jac) - np.einsum("bn,bnij->bij", residual, hess)
    return A, _sym_eigvalsh(A)


def _ift_jacobians(jac, A, eigs):
    """dLambda/dw = J A^{-1} J^T per row, with A the full Hessian of Phi and
    eigs its eigenvalues, as ``_phi_hessian`` gives them.

    Returns (Jacobians, singular).  A is symmetric, so its singular values
    are the absolute values of its eigenvalues; a row whose condition number
    exceeds ``COND_LIMIT`` (or whose A is exactly singular) is flagged
    singular and takes the pseudo-inverse of A.
    """
    s = np.abs(eigs)
    s_min, s_max = s.min(axis=-1), s.max(axis=-1)
    det = _det(A)
    singular = ~(s_min > 0) | (s_max > COND_LIMIT * s_min) | (det == 0)
    X = _solve(A, np.swapaxes(jac, 1, 2), det, singular)
    return jac @ X, singular


def nearest_point_batch(W: np.ndarray, manifold: PointCloudManifold) -> BatchProjection:
    """Project each row of W onto the manifold by Newton from a start point.

    Candidate starts are made, solved (``_solve_candidates``, which also
    tells whether each is a minimum of Phi) and chosen among by one rule
    (``_merge``); only the starts differ between chart kinds.  Analytic
    charts solve from the surface's closed-form seed (the Klein bottle runs
    ``_newton`` in u1 with u2 in closed form), then again from its retry
    seed for rows that are no minimum or lie above that seed's Phi by more
    than solver tolerance; ``chart_id`` and ``coarse_index`` are -1.
    Quadratic charts solve in the charts of the ``CANDIDATES`` nearest cloud
    points (k-d tree) by ``_refine``, merged in tree order.  A winner that
    did not converge falls back to its seed or its coarse cloud point with
    ``degraded`` set; a winner at a saddle of Phi (the medial axis, where the
    nearest point is not unique) or with a near-singular Hessian (which
    switches its Jacobian to a pseudo-inverse) has ``singular`` set.  Each
    row's result depends on that row alone, not on the rest of the batch.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != manifold.n:
        raise ProjectionError(f"expected (B, {manifold.n}) inputs, got {W.shape}")
    if not np.all(np.isfinite(W)):
        raise ProjectionError("projection input must be finite")
    B = W.shape[0]

    if manifold.chart_kind == "analytic":
        coarse = np.full(B, -1)
        start = manifold.surface.seed(W)
        best = _solve_candidates(manifold, W, np.full(B, -1), start)
        seed2, seed2_phi = manifold.surface.retry_seed(W)
        retry = np.flatnonzero(~best[9] | (seed2_phi < best[3] - NEWTON_TOL))
        if retry.size:
            _merge(best, _solve_candidates(manifold, W[retry], coarse[retry], seed2[retry]), retry)
    else:
        # K > 1 (2-D query arrays): a cloud has more points than its >= 3 fit neighbours
        K = min(CANDIDATES, manifold.num_points)
        dists, idx = manifold.tree.query(W, k=K)
        # exact-tie determinism: order equal-distance candidates by index
        order = np.lexsort((idx, np.round(dists / 1e-12)), axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        coarse = idx[:, 0]
        start = np.zeros((B, manifold.m))
        cands = _solve_candidates(manifold, np.repeat(W, K, axis=0), idx.reshape(-1),
                                  np.zeros((B * K, manifold.m)))
        best = [c[::K].copy() for c in cands]  # row b's k-th candidate is row b K + k
        for k in range(1, K):
            _merge(best, [c[k::K] for c in cands], np.arange(B))
    chart_id, U, sigma, phi, gnorm, jac, hess, A, eigs, minimum = best

    degraded = gnorm > DEGRADED_TOL
    if np.any(degraded):
        # fall back to the seed or the coarse cloud point for samples Newton could not place
        chart_id[degraded] = coarse[degraded]
        U[degraded] = start[degraded]
        frames = manifold.chart_frames(chart_id[degraded], U[degraded])
        sigma[degraded], jac[degraded], hess[degraded] = frames
        phi[degraded] = _phi_value(W[degraded], sigma[degraded])
        A[degraded], eigs[degraded] = _phi_hessian(jac[degraded], hess[degraded],
                                                   W[degraded] - sigma[degraded])

    jacobians, singular = _ift_jacobians(jac, A, eigs)
    singular |= ~degraded & ~minimum  # a saddle of Phi: the medial axis
    return BatchProjection(z=sigma, chart_id=chart_id, u=manifold.canonical_params(U),
                           jacobian=jacobians, phi=phi, grad_norm=gnorm, coarse_index=coarse,
                           degraded=degraded, singular=singular)


# ---------------------------------------------------------------------------
# the latent layer's projection


def manifold_encode_layer(W: np.ndarray, manifold):
    """(Z, J, valid) for a batch W of encoder outputs: the points projected
    onto the latent manifold, the per-sample Jacobians dLambda/dw, and a
    per-sample validity mask.  A flagged sample's Jacobian is zeroed, so no
    gradient flows through it; what else a flag does is the latent's
    policy (``vae.LatentSpec``).
    """
    Z, J, flagged = manifold.project(W)
    J[flagged] = 0.0
    return Z, J, ~flagged
