"""Independent reference implementations used only to check the package.

These deliberately share no code with the implementation paths they verify:
the DFT is the direct O(n^2) sum, the spectral antiderivative, derivative
and Cole-Hopf evolution are built on it, and the Burgers integrator steps the
PDE in time (integrating-factor RK4 on the advection term) instead of using
the Cole-Hopf transform.  The projection reference shares the manifold's charts
with the package, not its start points or its solver, and the stacked Klein
frames are the same formulas assembled another way.  The per-row Burgers
references run the batched paths' arithmetic one sample at a time, the
builders and checks in the next section only the tests use, and the last
section is a training step's reverse pass with one array per parameter.
"""

import numpy as np
from scipy.spatial import cKDTree


def direct_dft(values):
    """O(n^2) centered DFT with 1/n normalization."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    j = np.arange(n)
    ks = np.arange(-n // 2, n // 2)
    out = np.empty(n, dtype=np.complex128)
    for i, k in enumerate(ks):
        out[i] = np.sum(v * np.exp(-2j * np.pi * k * j / n)) / n
    return out


def direct_idft(coefficients):
    c = np.asarray(coefficients, dtype=np.complex128)
    n = len(c)
    j = np.arange(n)
    ks = np.arange(-n // 2, n // 2)
    out = np.zeros(n, dtype=np.complex128)
    for i, k in enumerate(ks):
        out += c[i] * np.exp(2j * np.pi * k * j / n)
    return np.real(out)


def _direct_spectral(values, multiplier):
    """sum over 0 < |k| < n/2 of c_k m(k) e^{2 pi i k j/n}, c = direct_dft(values):
    the k = 0 and Nyquist modes are dropped."""
    n = len(values)
    ks = np.arange(-n // 2, n // 2)
    c = direct_dft(values)
    keep = (ks != 0) & (np.abs(ks) < n / 2)
    c[keep] *= multiplier(ks[keep].astype(float))
    c[~keep] = 0.0
    return direct_idft(c)


def direct_antiderivative(values):
    """O(n^2) antiderivative of a mean-zero periodic signal, zero at x = 0."""
    anti = _direct_spectral(values, lambda k: 1.0 / (2j * np.pi * k))
    return anti - anti[0]


def direct_derivative(values):
    return _direct_spectral(values, lambda k: 2j * np.pi * k)


def direct_cole_hopf_evolve(u0, nu, t, n_f=None):
    """One row evolved by t through Cole-Hopf on direct sums: phi0 =
    exp(-(1/2nu) int u0), its centered spectrum truncated to |k| <= n_f/2
    and decayed, then u = -2nu d/dx ln(phi) untruncated or -2nu phi_x / phi
    truncated."""
    u0 = np.asarray(u0, dtype=np.float64)
    n = len(u0)
    ks = np.arange(-n // 2, n // 2)
    c = direct_dft(np.exp(-direct_antiderivative(u0) / (2 * nu)))
    if n_f is not None:
        c[np.abs(ks) > n_f // 2] = 0.0
    phi = direct_idft(c * np.exp(-4 * np.pi**2 * ks**2 * nu * t))
    if n_f is None:
        return -2 * nu * direct_derivative(np.log(phi))
    return -2 * nu * direct_derivative(phi) / phi


def rk4_burgers(u0, nu, t_final, n_steps=None, dealias=True):
    """Pseudo-spectral Burgers integrator on [0,1) with periodic BCs.

    The stiff diffusion term is handled exactly by an integrating factor;
    RK4 covers the advection nonlinearity written as -(u^2/2)_x.  Optional
    2/3-rule dealiasing for the quadratic term.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    n = len(u0)
    if n_steps is None:
        n_steps = max(int(np.ceil(t_final / 2e-4)), 1)
    dt = t_final / n_steps
    k = np.fft.rfftfreq(n, d=1.0 / n)  # 0 .. n/2
    ik = 1j * 2 * np.pi * k
    lam = -nu * (2 * np.pi * k) ** 2
    E = np.exp(lam * dt / 2)
    E2 = E * E
    mask = np.ones_like(k)
    if dealias:
        mask[k > n // 3] = 0.0

    def nonlinear(v_hat):
        u = np.fft.irfft(v_hat, n)
        return -ik * mask * np.fft.rfft(0.5 * u * u)

    v = np.fft.rfft(u0)
    for _ in range(n_steps):
        a = nonlinear(v)
        b = nonlinear(E * (v + 0.5 * dt * a))
        c = nonlinear(E * v + 0.5 * dt * b)
        d = nonlinear(E2 * v + dt * E * c)
        v = E2 * v + dt / 6.0 * (E2 * a + 2 * E * (b + c) + d)
    return np.fft.irfft(v, n)


def klein_frames_stacked(a, b, U):
    """Klein bottle (sigma, dsigma/du, d2sigma/du2), each assembled by np.stack."""
    U = np.asarray(U, dtype=np.float64)
    u1, u2 = U[..., 0], U[..., 1]
    c1, s1 = np.cos(u1), np.sin(u1)
    c2, s2 = np.cos(u2), np.sin(u2)
    ch, sh = np.cos(u1 / 2), np.sin(u1 / 2)
    ring = a + b * c2
    sigma = np.stack([ring * c1, ring * s1, b * s2 * ch, b * s2 * sh], axis=-1)
    d1 = np.stack([-ring * s1, ring * c1, -0.5 * b * s2 * sh, 0.5 * b * s2 * ch], axis=-1)
    d2 = np.stack([-b * s2 * c1, -b * s2 * s1, b * c2 * ch, b * c2 * sh], axis=-1)
    d11 = np.stack([-ring * c1, -ring * s1, -0.25 * b * s2 * ch, -0.25 * b * s2 * sh], axis=-1)
    d12 = np.stack([b * s2 * s1, -b * s2 * c1, -0.5 * b * c2 * sh, 0.5 * b * c2 * ch], axis=-1)
    d22 = np.stack([-b * c2 * c1, -b * c2 * s1, -b * s2 * ch, -b * s2 * sh], axis=-1)
    jac = np.stack([d1, d2], axis=-1)
    hess = np.stack([np.stack([d11, d12], axis=-1), np.stack([d12, d22], axis=-1)], axis=-1)
    return sigma, jac, hess


def reference_projection(W, manifold, tol=1e-10, max_iter=50, candidates=4, cond_limit=1e12):
    """Nearest-point projection by the plain batched solver.

    Uses the manifold's charts but none of the package's solver: a k-d tree
    over the cloud's points for every chart kind (analytic charts start at
    their points' parameters), LAPACK ``eigvalsh`` for the positive-definite
    test, ``pinv`` for every Newton step, an SVD for the IFT condition
    number, and every row iterating until the slowest one converges.  A
    converged row whose final Hessian of Phi has, by ``eigvalsh``, a least
    eigenvalue below -1e-10 max(1, its largest) is a saddle of Phi (the
    medial axis) and flagged singular.
    Returns a dict with the fields of ``BatchProjection``.
    """
    W = np.asarray(W, dtype=np.float64)
    B = W.shape[0]
    K = min(candidates, manifold.num_points)
    if manifold.chart_kind == "analytic":
        tree = cKDTree(manifold.points)

        def chart_start(ids):
            return manifold.chart_params[ids].copy()
    else:
        tree = manifold.tree

        def chart_start(ids):
            return np.zeros((len(ids), manifold.m))

    dists, idx = tree.query(W, k=K)
    if K == 1:
        dists, idx = dists[:, None], idx[:, None]
    order = np.lexsort((idx, np.round(dists / 1e-12)), axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    coarse = idx[:, 0]

    ids = idx.reshape(-1)
    Wk = np.repeat(W, K, axis=0)
    U = chart_start(ids)
    sigma, jac, hess = manifold.chart_frames(ids, U)
    phi = 0.5 * np.sum((Wk - sigma) ** 2, axis=-1)
    for _ in range(max_iter):
        residual = Wk - sigma
        G = -np.einsum("bnm,bn->bm", jac, residual)
        gnorm = np.linalg.norm(G, axis=-1)
        if np.all(gnorm <= tol):
            break
        JtJ = np.einsum("bni,bnj->bij", jac, jac)
        A = JtJ - np.einsum("bn,bnij->bij", residual, hess)
        eigs = np.linalg.eigvalsh(A)
        pos_def = eigs[:, 0] > 1e-10 * np.maximum(1.0, eigs[:, -1])
        h_eff = np.where(pos_def[:, None, None], A, JtJ)
        step = -np.einsum("bij,bj->bi", np.linalg.pinv(h_eff), G)
        guard = gnorm > 1e-4
        for _ in range(9):
            U_new = manifold.clamp_params(ids, U + step)
            sigma_new, jac_new, hess_new = manifold.chart_frames(ids, U_new)
            phi_new = 0.5 * np.sum((Wk - sigma_new) ** 2, axis=-1)
            worse = guard & (phi_new > phi * (1 + 1e-12) + 1e-15)
            if not np.any(worse):
                break
            step[worse] *= 0.5
        U, sigma, jac, hess, phi = U_new, sigma_new, jac_new, hess_new, phi_new
    gnorm = np.linalg.norm(np.einsum("bnm,bn->bm", jac, Wk - sigma), axis=-1)

    quant = np.round(phi.reshape(B, K) / max(tol, 1e-14))
    pick = np.lexsort((idx, quant), axis=1)[:, 0]
    take = np.arange(B) * K + pick
    U, phi, gnorm = U[take], phi[take], gnorm[take]
    chart_id = idx[np.arange(B), pick]
    degraded = gnorm > max(10 * tol, 1e-9)
    chart_id = np.where(degraded, coarse, chart_id)
    U[degraded] = chart_start(chart_id[degraded])

    sigma, jac, hess = manifold.chart_frames(chart_id, U)
    phi[degraded] = 0.5 * np.sum((W[degraded] - sigma[degraded]) ** 2, axis=-1)
    jacobians, singular = reference_ift_jacobian(W, manifold, chart_id, U, cond_limit)
    A = np.einsum("bni,bnj->bij", jac, jac) - np.einsum("bn,bnij->bij", W - sigma, hess)
    eigs = np.linalg.eigvalsh(A)
    singular |= ~degraded & (eigs[:, 0] < -1e-10 * np.maximum(1.0, eigs[:, -1]))
    return dict(
        z=sigma, chart_id=chart_id, u=manifold.canonical_params(U), jacobian=jacobians,
        phi=phi, grad_norm=gnorm, coarse_index=coarse, degraded=degraded, singular=singular,
    )


def reference_ift_jacobian(W, manifold, chart_id, U, cond_limit=1e12):
    """dLambda/dw = J A^{-1} J^T at the chart parameters U, and the rows
    whose A (the Hessian of Phi) has an SVD condition number above
    ``cond_limit``; those take the pseudo-inverse of A."""
    B, n = W.shape
    sigma, jac, hess = manifold.chart_frames(chart_id, U)
    A = np.einsum("bni,bnj->bij", jac, jac) - np.einsum("bn,bnij->bij", W - sigma, hess)
    s = np.linalg.svd(A, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[:, -1] > 0, s[:, 0] / s[:, -1], np.inf)
    singular = ~np.isfinite(cond) | (cond > cond_limit)
    jacobians = np.empty((B, n, n))
    good = ~singular
    if np.any(good):
        X = np.linalg.solve(A[good], np.swapaxes(jac[good], 1, 2))
        jacobians[good] = np.einsum("bnm,bmk->bnk", jac[good], X)
    if np.any(singular):
        X = np.einsum("bij,bkj->bik", np.linalg.pinv(A[singular]), jac[singular])
        jacobians[singular] = np.einsum("bnm,bmk->bnk", jac[singular], X)
    return jacobians, singular


# ---------------------------------------------------------------------------
# per-row references for the batched Burgers paths


def evolve_rows(evolve, U0, nu, t, **kwargs):
    """Each row of U0 evolved alone: ``evolve(u, nu, t_row)`` for every
    (time, row) pair of the broadcast of t against U0's rows."""
    U0 = np.asarray(U0, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    shape = np.broadcast_shapes(U0.shape[:-1], t.shape)
    U = np.broadcast_to(U0, shape + U0.shape[-1:])
    T = np.broadcast_to(t, shape)
    out = np.empty(U.shape)
    for idx in np.ndindex(shape):
        out[idx] = evolve(U[idx], nu, float(T[idx]), **kwargs)
    return out


def dmd_predict_row(model, u, n_steps):
    """u(t + n_steps tau) = U A~^n U^T u(t) for one state, by matrix power."""
    op_k = np.linalg.matrix_power(model.reduced_op, n_steps)
    return model.basis @ (op_k @ (model.basis.T @ np.asarray(u, dtype=np.float64)))


def pod_predict_row(model, u, n_steps):
    """One state integrated from scratch to n_steps * tau by RK4 on the
    Galerkin system, written per sample with matrix-vector products."""
    def rhs(c):
        return model.diffusion @ c + np.einsum("ijk,j,k->i", model.advection, c, c)

    c = model.basis.T @ np.asarray(u, dtype=np.float64)
    dt = model.tau / model.substeps
    for _ in range(n_steps * model.substeps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(c)) or np.linalg.norm(c) > 1e6:
            raise RuntimeError(f"reduced model unstable at rank {model.rank}")
    return model.basis @ c


# ---------------------------------------------------------------------------
# test-only builders and checks


class ProductCirclesSurface:
    """sigma(u) = (r_1 cos u_1, r_1 sin u_1, ..., r_m cos u_m, r_m sin u_m): a
    surface for analytic-chart clouds, whose ``seed`` is the exact solution."""

    def __init__(self, radii):
        self.radii = tuple(float(r) for r in radii)
        if any(r <= 0 for r in self.radii):
            raise ValueError("circle radii must be positive")
        self.m = len(self.radii)
        self.n = 2 * self.m

    def frames(self, U):
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

    def canonicalize(self, U):
        return np.mod(U, 2 * np.pi)

    def seed(self, W):
        """The nearest point's parameters: the angle of each coordinate pair."""
        return np.arctan2(W[:, 1::2], W[:, 0::2])

    def retry_seed(self, W):
        """``seed`` is exact: the same start, with an infinite Phi."""
        return self.seed(W), np.full(len(W), np.inf)

    def solve(self, W, U):
        """``seed`` is exact, so a start from it is the solution: a copy of U."""
        return U.copy()

    def grid_params(self, resolution):
        axes = [np.arange(resolution) * 2 * np.pi / resolution] * self.m
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=-1)


def build_torus_pointcloud(resolution=256, radii=(1.0, 1.0)):
    """A resolution^m grid of the product of circles with analytic charts."""
    from mvrom import manifold as mf

    if resolution < 64:
        raise ValueError("need at least 64 samples per parameter direction")
    surface = ProductCirclesSurface(radii)
    params = surface.grid_params(resolution)
    return mf.PointCloudManifold(surface.m, surface.n, surface.frames(params)[0], "analytic",
                                 surface=surface, chart_params=params)


def write_pointcloud(path, points, m, k_neighbors=12):
    """A quadratic-chart cloud file as ``manifold.load_pointcloud`` reads it:
    the header ``m n count quadratic k_neighbors``, then one point per row."""
    points = np.asarray(points, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write(f"{m} {points.shape[1]} {len(points)} quadratic {k_neighbors}\n")
        np.savetxt(fh, points, fmt="%.17g")


def arm_constraint_residuals(config, samples):
    """Max violation of |x1| = L1 and |x2 - x1| = L2 per sample."""
    x1, x2 = samples[:, :2], samples[:, 2:]
    r1 = np.abs(np.linalg.norm(x1, axis=1) - config.l1)
    r2 = np.abs(np.linalg.norm(x2 - x1, axis=1) - config.l2)
    return np.maximum(r1, r2)


def sq_sum(x, row_w=None, target=None):
    """sum_b row_w[b] |x_b - target_b|^2 of a (B, n) tape tensor as one node
    (row weights default to ones, the target to zero): the scalar that
    gradient checks of single nodes reduce to."""
    d = x.data if target is None else x.data - target
    w = np.ones((len(d), 1)) if row_w is None else np.asarray(row_w, dtype=np.float64)[:, None]
    return x.tape.record("sq_sum", (w * d * d).sum(), (x,), lambda g: (2.0 * g * w * d,))


def table_complete(table):
    """Every row of an ``ErrorTable`` has a value (or FAILED) in every column."""
    return all(col in row for row in table.rows.values() for col in table.columns)


def dict_adam_step(params, grads, M, V, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t (from 1) applied parameter by parameter over dicts of
    arrays, each with its own temporaries, in the folded form: M and V are
    the moments scaled by 1 / (1 - beta1) and 1 / (1 - beta2), and the bias
    corrections fold into the step size and epsilon."""
    r = np.sqrt((1 - beta2**t) / (1 - beta2))
    alpha = lr * (1 - beta1) / (1 - beta1**t) * r
    for name in params:
        g = grads[name]
        M[name] = beta1 * M.get(name, np.zeros_like(g)) + g
        V[name] = beta2 * V.get(name, np.zeros_like(g)) + g * g
        params[name] -= M[name] / (np.sqrt(V[name]) + eps * r) * alpha


def textbook_adam_step(params, grads, m, v, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t (from 1) as Algorithm 1 of Kingma & Ba (2015) writes it,
    parameter by parameter over dicts of arrays."""
    for name in params:
        g = grads[name]
        m[name] = beta1 * m.get(name, np.zeros_like(g)) + (1 - beta1) * g
        v[name] = beta2 * v.get(name, np.zeros_like(g)) + (1 - beta2) * g * g
        m_hat = m[name] / (1 - beta1**t)
        v_hat = v[name] / (1 - beta2**t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# the reverse pass of one training step, one fresh array per parameter


def _mlp_forward(model, prefix, h):
    """The MLP ``prefix`` on the rows of h, and each layer's (input, slope)."""
    cache = []
    n_layers = len(model.encoder_sizes if prefix == "enc_" else model.decoder_sizes) - 1
    for i in range(n_layers):
        pre = h @ model.params[f"{prefix}W{i}"] + model.params[f"{prefix}b{i}"]
        slope = None
        if i < n_layers - 1:
            if model.activation == "relu":
                slope = pre > 0
                pre = np.where(slope, pre, 0.0)
            else:
                slope = np.where(pre > 0, 1.0, model.leaky_slope)
                pre = pre * slope
        cache.append((h, slope))
        h = pre
    return h, cache


def _mlp_backward(model, prefix, cache, g, grads, input_grad):
    """Adds each layer's W and b gradient to ``grads``; returns the input's."""
    for i in reversed(range(len(cache))):
        h, slope = cache[i]
        if slope is not None:
            g = g * slope
        grads[f"{prefix}b{i}"] = g.sum(axis=0)
        grads[f"{prefix}W{i}"] = h.T @ g
        g = g @ model.params[f"{prefix}W{i}"].T if i > 0 or input_grad else None
    return g


def step_gradient(model, X, Y, config, rng):
    """Gradient of the minimized loss -total of one ``vae.loss`` batch, one
    fresh array per parameter: the forward pass, then the reverse pass leaf
    by leaf in the tape's op order (the objective's adjoints for the decoder
    output and the encoder means, taken as the sign flip of those of total,
    then decoder, flow, projection Jacobian, noise, encoder).  Draws
    the noise from ``rng`` as ``vae.loss`` does; a flagged row is assumed
    to be allowed by the latent's policy."""
    B, d = X.shape[0], model.latent_dim
    paths = 2 if config.gamma > 0 else 1
    rows = np.concatenate([X, Y][:paths])
    noise = np.concatenate([model.sigma_e * rng.standard_normal((B, d)) for _ in range(paths)])
    a, enc_cache = _mlp_forward(model, "enc_", rows)
    z, jac, valid = a + noise, None, np.ones(B, dtype=bool)
    if model.latent.manifold is not None:
        z, jac, flagged = model.latent.manifold.project(z)
        jac[flagged] = 0.0
        valid = (~flagged).reshape(-1, B).all(axis=0)
    row_w = valid.astype(np.float64) / int(valid.sum())
    flow = np.ones((len(z), 1))
    if model.flow == "exp-decay":
        factor = float(np.exp(-model.params["lambda0"] * model.tau))
        flow = np.where(np.arange(len(z)) < B, factor, 1.0)[:, None]
    x_hat, dec_cache = _mlp_forward(model, "dec_", z * flow)
    w_data = np.concatenate([row_w, config.gamma * row_w][:paths])[:, None]
    w_kl = np.concatenate([row_w, np.zeros(B)][:paths])[:, None]

    grads = {}
    g = np.ones(()) * -1.0
    g_data, g_kl = g * (-1.0 / (2 * model.sigma_d**2)), g * ((1.0 / (2 * model.sigma_0**2)) * -config.beta)
    g_a = (2.0 * (g_kl * w_kl)) * a
    g_x = (2.0 * (g_data * w_data)) * (x_hat - np.concatenate([Y] * paths))
    g_z = _mlp_backward(model, "dec_", dec_cache, g_x, grads, input_grad=True)
    if model.flow == "exp-decay":
        grads["lambda0"] = (np.sum(g_z[:B] * z[:B]) * factor) * -model.tau
        g_z = g_z * flow
    if jac is not None:
        g_z = np.einsum("bpn,bp->bn", jac, g_z)
    _mlp_backward(model, "enc_", enc_cache, g_a + g_z, grads, input_grad=False)
    return grads
