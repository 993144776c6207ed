"""Exact viscous Burgers solutions on the periodic unit interval.

u_t = -u u_x + nu u_xx maps to the heat equation phi_t = nu phi_xx under
phi = exp(-(1/2nu) int_0^x u dx'), so evolution is diagonal in Fourier space:
each mode of phi decays by exp(-4 pi^2 k^2 nu t).  Truncating phi's spectrum
to |k| <= n_f/2 before decay and inversion gives the spectral-truncation
reduced model used as a baseline.

Fields are real, so their spectra are Hermitian: every transform here is the
half-spectrum ``np.fft.rfft``/``irfft`` over wavenumbers k = 0 .. n/2.

Fields are float arrays whose last axis is the grid: B fields on n points
are one (B, n) array, and every function here acts along the last axis, so
one call serves a whole batch and each row comes out as it would alone.
Evolution times broadcast against the rows (``evolve_exact``); a row
evolved by t = 0 comes back unchanged, and when every t is 0 it comes back
without a transform.  The Cole-Hopf helpers subtract, scale, exponentiate
and take logarithms in arrays they made themselves, never in one passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import domains as dm


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid x_j = j/n_x on [0, 1)."""

    n_x: int = dm.setting(dm.GRID)

    __post_init__ = dm.check_fields

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n_x) / self.n_x


@dataclass(frozen=True)
class BurgersConfig:
    nu: float = dm.setting(dm.POSITIVE, 2e-2)
    tau: float = dm.setting(dm.POSITIVE, 2.5e-1)
    n_x: int = dm.setting(dm.GRID, 100)

    __post_init__ = dm.check_fields


@dataclass
class BurgersStates:
    """m fields X (m, n), each with its blend parameter ``alpha`` and start
    time ``t`` (m,; NaN when unknown, as for data read from a file).
    Construction checks the shapes and that every field value is finite."""

    X: np.ndarray
    alpha: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, np.float64)
        self.alpha, self.t = np.asarray(self.alpha, np.float64), np.asarray(self.t, np.float64)
        m = self.X.shape[0] if self.X.ndim == 2 else -1
        if self.alpha.shape != (m,) or self.t.shape != (m,):
            raise ValueError(f"expected (m, n) fields and (m,) parameters, got X {self.X.shape}, "
                             f"alpha {self.alpha.shape}, t {self.t.shape}")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("field values must be finite")


@dataclass
class BurgersData:
    """m evolution pairs: Y[i] is X[i] advanced by tau; X, ``alpha`` and
    ``t`` are checked as ``BurgersStates`` are, and Y must be finite and of
    X's shape."""

    X: np.ndarray  # (m, n)
    Y: np.ndarray  # (m, n)
    alpha: np.ndarray  # (m,)
    t: np.ndarray  # (m,)

    def __post_init__(self):
        states = BurgersStates(self.X, self.alpha, self.t)
        self.X, self.alpha, self.t = states.X, states.alpha, states.t
        self.Y = np.asarray(self.Y, np.float64)
        if self.Y.shape != self.X.shape:
            raise ValueError(f"expected targets Y of X's shape {self.X.shape}, got {self.Y.shape}")
        if not np.all(np.isfinite(self.Y)):
            raise ValueError("field values must be finite")


def spectral_antiderivative(values: np.ndarray) -> np.ndarray:
    """Antiderivative of a mean-zero periodic signal, pinned to zero at x=0;
    the k = 0 and Nyquist modes, which have none, are dropped."""
    n = values.shape[-1]
    c = np.fft.rfft(values)
    k = np.arange(c.shape[-1])
    scale = -0.5j / (np.pi * np.maximum(k, 1))  # 1 / (2 pi i k)
    scale[(k == 0) | (2 * k == n)] = 0.0
    c *= scale  # whole rows: an update of the slice c[..., 1:] runs several times slower
    anti = np.fft.irfft(c, n)
    anti -= anti[..., :1].copy()
    return anti


def _derivative_of_spectrum(c: np.ndarray, n: int) -> np.ndarray:
    """The field whose half-spectrum is c, differentiated; c is overwritten."""
    c *= 2j * np.pi * np.arange(c.shape[-1])
    c[..., -1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(c, n)


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    return _derivative_of_spectrum(np.fft.rfft(values), values.shape[-1])


def spectral_second_derivative(values: np.ndarray) -> np.ndarray:
    n = values.shape[-1]
    c = np.fft.rfft(values)
    k = np.arange(n // 2 + 1)
    return np.fft.irfft(c * -((2 * np.pi * k) ** 2), n)


def _require_mean_zero(u: np.ndarray):
    mean = np.max(np.abs(np.mean(u, axis=-1)), initial=0.0)
    if mean > 1e-8:
        raise ValueError(f"Cole-Hopf requires mean-zero field (mean = {mean:.3e})")


def cole_hopf_forward(u: np.ndarray, nu: float) -> np.ndarray:
    """phi = exp(-(1/2nu) int_0^x u dx'); phi(0) = 1 and phi > 0."""
    u = np.asarray(u, dtype=np.float64)
    _require_mean_zero(u)
    phi = spectral_antiderivative(u)
    np.negative(phi, out=phi)
    phi /= 2.0 * nu
    return np.exp(phi, out=phi)


def cole_hopf_inverse(phi: np.ndarray, nu: float) -> np.ndarray:
    """u = -2 nu d/dx ln(phi), differentiated spectrally."""
    return _cole_hopf_inverse_of_own(np.array(phi, dtype=np.float64), nu)


def _cole_hopf_inverse_of_own(phi: np.ndarray, nu: float) -> np.ndarray:
    """``cole_hopf_inverse`` of a phi no one else holds: its logarithm is
    taken in place, and dropped once its spectrum is taken."""
    if np.any(phi <= 0):
        raise ValueError(
            "Cole-Hopf inverse undefined: phi <= 0 somewhere "
            "(logarithm undefined; signals under-resolved grid)"
        )
    n = phi.shape[-1]
    c = np.fft.rfft(np.log(phi, out=phi))
    del phi
    u = _derivative_of_spectrum(c, n)
    u *= -2.0 * nu
    return u


def _truncated_inverse(phi: np.ndarray, dphi: np.ndarray, nu: float) -> np.ndarray:
    """Inversion u = -2 nu phi_x / phi evaluated pointwise, given phi and its
    spectral derivative dphi on the grid.

    For a trigonometric polynomial phi the spectral derivative is exact, so
    this is the pointwise-exact inverse of a truncated transform and stays
    finite wherever phi is nonzero on the grid.  A sign-preserving
    denominator floor, relative to each row's largest |phi|, avoids inf at
    accidental grid zeros.
    """
    floor = 1e-12 * np.max(np.abs(phi), axis=-1, keepdims=True)
    denom = np.where(np.abs(phi) < floor, np.copysign(floor, phi), phi)
    return -2.0 * nu * dphi / denom


def evolve_exact(
    U0: np.ndarray,
    nu: float,
    t,
    n_f: int | None = None,
) -> np.ndarray:
    """Evolve the rows of U0 (..., n) by t via Cole-Hopf; optionally truncate
    to |k| <= n_f/2.

    ``t`` broadcasts against the row axes: a scalar evolves every row by the
    same time, shape (B,) gives each row of a (B, n) batch its own time, and
    shape (H, 1) evolves every row to each of H times and returns (H, B, n).
    Untruncated, a row whose t is 0 comes back unchanged; when every t is 0
    the rows are checked for mean zero and copied, with no transform.

    Truncation zeroes phi0's half-spectrum bins k > n_f/2 before decay and
    inversion (evolution is diagonal, so truncating before or after decay is
    the same).  Where the reduced phi dips <= 0 the truncated inverse is large
    but finite: it divides by phi pointwise and takes no logarithm.
    """
    U0 = np.asarray(U0, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("evolution time must be nonnegative")
    n = U0.shape[-1]
    if n_f is not None and (n_f % 2 != 0 or not (2 <= n_f <= n)):
        raise ValueError(f"truncation n_f must be even with 2 <= n_f <= {n}, got {n_f}")

    at_zero = t[..., None] == 0
    if n_f is None and at_zero.all():
        _require_mean_zero(U0)
        return np.broadcast_to(U0, np.broadcast_shapes(at_zero.shape, U0.shape)).copy()

    coeff = np.fft.rfft(cole_hopf_forward(U0, nu))
    k = np.arange(coeff.shape[-1])
    if n_f is None:
        u = _cole_hopf_inverse_of_own(np.fft.irfft(coeff * _heat_decay(k, nu, t), n), nu)
        return np.where(at_zero, U0, u) if at_zero.any() else u

    coeff[..., n_f // 2 + 1 :] = 0.0
    coeff = coeff * _heat_decay(k, nu, t)
    phi_t = np.fft.irfft(coeff, n)
    # phi_t's derivative from the spectrum at hand, as spectral_derivative takes it
    return _truncated_inverse(phi_t, _derivative_of_spectrum(coeff, n), nu)


def _heat_decay(k: np.ndarray, nu: float, t: np.ndarray) -> np.ndarray:
    """exp(-4 pi^2 k^2 nu t), the factor by which the heat flow scales mode k
    of phi in time t; shape t.shape + k.shape."""
    decay = -4.0 * np.pi**2 * k**2.0 * nu * t[..., None]
    return np.exp(decay, out=decay)


def initial_condition_u1(alpha, grid: Grid) -> np.ndarray:
    """Blend alpha*sin(2 pi x) + (1-alpha)*cos^3(2 pi x), mean-zero for all
    alpha; ``alpha`` of shape (...) gives fields of shape (..., n_x)."""
    x = grid.points
    alpha = np.asarray(alpha, dtype=np.float64)[..., None]
    return alpha * np.sin(2 * np.pi * x) + (1 - alpha) * np.cos(2 * np.pi * x) ** 3


def sample_u1(alpha, t, nu: float, n_x: int = 100) -> np.ndarray:
    """u1 with blend ``alpha`` evolved to time ``t``; (B,) vectors give (B, n_x)."""
    return evolve_exact(initial_condition_u1(alpha, Grid(n_x)), nu, t)


def sample_burgers_states(
    config: BurgersConfig,
    m: int,
    alpha_range: tuple[float, float] = (0.0, 1.0),
    t_range: tuple[float, float] = (0.0, 0.75),
    seed: int = 0,
) -> BurgersStates:
    """m fields u1(alpha_i) at t_i, with alpha_i and then t_i drawn uniformly."""
    dm.COUNT.check("m", m)
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(alpha_range[0], alpha_range[1], size=m)
    times = rng.uniform(t_range[0], t_range[1], size=m)
    return BurgersStates(sample_u1(alphas, times, config.nu, config.n_x), alphas, times)


def generate_burgers_dataset(
    config: BurgersConfig,
    m: int,
    alpha_range: tuple[float, float] = (0.0, 1.0),
    t_range: tuple[float, float] = (0.0, 0.75),
    seed: int = 0,
) -> BurgersData:
    """m evolution pairs (u(t_i), u(t_i + tau)): ``sample_burgers_states``'s
    fields, each advanced by tau."""
    s = sample_burgers_states(config, m, alpha_range, t_range, seed)
    return BurgersData(s.X, evolve_exact(s.X, config.nu, config.tau), s.alpha, s.t)


def pairs_to_arrays(data: BurgersData) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) of a dataset; only the benchmark calls it (goes with ROADMAP item 1, Phase 0)."""
    return data.X, data.Y
