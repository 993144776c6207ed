"""Exact viscous Burgers solutions on the periodic unit interval.

u_t = -u u_x + nu u_xx maps to the heat equation phi_t = nu phi_xx under
phi = exp(-(1/2nu) int_0^x u dx'), so evolution is diagonal in Fourier space:
each mode of phi decays by exp(-4 pi^2 k^2 nu t).  Truncating phi's spectrum
to |k| <= n_f/2 before decay and inversion gives the spectral-truncation
reduced model used as a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Rng


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid x_j = j/n_x on [0, 1)."""

    n_x: int

    def __post_init__(self):
        if self.n_x < 16 or self.n_x % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got {self.n_x}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n_x) / self.n_x


@dataclass
class FieldSample:
    """A real periodic field sampled on a grid at one instant."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n_x,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid ({self.grid.n_x},)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


@dataclass
class SpectralField:
    """Centered Fourier coefficients, k = -n/2 .. n/2-1."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)

    @property
    def wavenumbers(self) -> np.ndarray:
        n = self.coefficients.shape[0]
        return np.arange(-n // 2, n // 2)


@dataclass(frozen=True)
class BurgersConfig:
    nu: float = 2e-2
    tau: float = 2.5e-1
    n_x: int = 100

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.tau <= 0:
            raise ValueError("prediction time-scale must be positive")


@dataclass
class DatasetPair:
    """(input state, target state) with target.time - input.time = tau."""

    input: FieldSample
    target: FieldSample
    alpha: float = 0.0
    t_start: float = 0.0


def dft(values: np.ndarray) -> SpectralField:
    """Forward transform, 1/n normalized: a constant field has c_0 = const."""
    v = np.asarray(values, dtype=np.float64)
    coeff = np.fft.fftshift(np.fft.fft(v)) / v.shape[0]
    return SpectralField(coeff)


def idft(spectral: SpectralField) -> np.ndarray:
    c = spectral.coefficients
    return np.real(np.fft.ifft(np.fft.ifftshift(c)) * c.shape[0])


def spectral_antiderivative(values: np.ndarray) -> np.ndarray:
    """Antiderivative of a mean-zero periodic signal, pinned to zero at x=0."""
    n = len(values)
    c = np.fft.fft(values) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ic = c / (1j * 2 * np.pi * k)
    ic[0] = 0.0
    anti = np.real(np.fft.ifft(ic) * n)
    return anti - anti[0]


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    n = len(values)
    c = np.fft.rfft(values)
    k = np.arange(n // 2 + 1)
    c = c * (1j * 2 * np.pi * k)
    c[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(c, n)


def spectral_second_derivative(values: np.ndarray) -> np.ndarray:
    n = len(values)
    c = np.fft.rfft(values)
    k = np.arange(n // 2 + 1)
    return np.fft.irfft(c * -((2 * np.pi * k) ** 2), n)


def cole_hopf_forward(u: FieldSample, nu: float) -> np.ndarray:
    """phi = exp(-(1/2nu) int_0^x u dx'); phi(0) = 1 and phi > 0."""
    mean = float(np.mean(u.values))
    if abs(mean) > 1e-8:
        raise ValueError(
            f"Cole-Hopf requires mean-zero field (mean = {mean:.3e})"
        )
    anti = spectral_antiderivative(u.values)
    return np.exp(-anti / (2.0 * nu))


def cole_hopf_inverse(
    phi: np.ndarray, nu: float, grid: Grid | None = None, time: float = 0.0
) -> FieldSample:
    """u = -2 nu d/dx ln(phi), differentiated spectrally."""
    phi = np.asarray(phi, dtype=np.float64)
    if np.any(phi <= 0):
        raise ValueError(
            "Cole-Hopf inverse undefined: phi <= 0 somewhere "
            "(logarithm undefined; signals under-resolved grid)"
        )
    if grid is None:
        grid = Grid(len(phi))
    u = -2.0 * nu * spectral_derivative(np.log(phi))
    return FieldSample(grid, u, time)


def _truncated_inverse(phi: np.ndarray, nu: float) -> np.ndarray:
    """Inversion u = -2 nu phi_x / phi evaluated pointwise.

    For a trigonometric polynomial phi the spectral derivative is exact, so
    this is the pointwise-exact inverse of a truncated transform and stays
    finite wherever phi is nonzero on the grid (spec'd by the caller's
    nonpositive policy).  A sign-preserving denominator floor avoids inf at
    accidental grid zeros.
    """
    dphi = spectral_derivative(phi)
    floor = 1e-12 * np.max(np.abs(phi))
    denom = np.where(np.abs(phi) < floor, np.copysign(floor, phi), phi)
    denom = np.where(denom == 0.0, floor, denom)
    return -2.0 * nu * dphi / denom


def evolve_exact(
    u0: FieldSample,
    nu: float,
    t: float,
    n_f: int | None = None,
    nonpositive: str = "raise",
) -> FieldSample:
    """Evolve u0 forward by t via Cole-Hopf; optionally truncate to |k| <= n_f/2.

    Truncation zeroes the discarded modes of phi before decay and inversion
    (evolution is diagonal, so truncating before or after decay is the same).
    ``nonpositive`` controls the truncated-inverse behavior when the reduced
    phi dips <= 0: "raise" propagates the Cole-Hopf inversion error, "finite"
    returns the pointwise division form, which is large but finite there.
    """
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    n = u0.grid.n_x
    if n_f is not None:
        if n_f % 2 != 0 or not (2 <= n_f <= n):
            raise ValueError(f"truncation n_f must be even with 2 <= n_f <= {n}, got {n_f}")
    if nonpositive not in ("raise", "finite"):
        raise ValueError(f"unknown nonpositive policy '{nonpositive}'")

    phi0 = cole_hopf_forward(u0, nu)
    spec = dft(phi0)
    k = spec.wavenumbers
    coeff = spec.coefficients.copy()
    if n_f is not None:
        coeff[np.abs(k) > n_f // 2] = 0.0
    coeff *= np.exp(-4.0 * np.pi**2 * k.astype(float) ** 2 * nu * t)
    phi_t = idft(SpectralField(coeff))
    new_time = u0.time + t

    if n_f is None:
        return cole_hopf_inverse(phi_t, nu, u0.grid, new_time)
    if nonpositive == "raise" and np.any(phi_t <= 0):
        raise ValueError(
            "Cole-Hopf inverse undefined: truncated phi <= 0 somewhere "
            "(logarithm undefined; signals under-resolved grid)"
        )
    return FieldSample(u0.grid, _truncated_inverse(phi_t, nu), new_time)


def initial_condition_u1(alpha: float, grid: Grid) -> np.ndarray:
    """Blend alpha*sin(2 pi x) + (1-alpha)*cos^3(2 pi x); mean-zero for all alpha."""
    x = grid.points
    return alpha * np.sin(2 * np.pi * x) + (1 - alpha) * np.cos(2 * np.pi * x) ** 3


def sample_u1(alpha: float, t: float, nu: float, n_x: int = 100) -> FieldSample:
    grid = Grid(n_x)
    u0 = FieldSample(grid, initial_condition_u1(alpha, grid), 0.0)
    if t == 0:
        return u0
    return evolve_exact(u0, nu, t)


def generate_burgers_dataset(
    config: BurgersConfig,
    m: int,
    alpha_range: tuple[float, float] = (0.0, 1.0),
    t_range: tuple[float, float] = (0.0, 0.75),
    seed: int = 0,
) -> list[DatasetPair]:
    """m evolution pairs (u(t_i), u(t_i + tau)) with alpha, t_i drawn uniformly."""
    if m < 1:
        raise ValueError("need at least one sample")
    rng = Rng(seed)
    alphas = rng.uniform(alpha_range[0], alpha_range[1], size=m)
    times = rng.uniform(t_range[0], t_range[1], size=m)
    pairs = []
    for alpha, t_i in zip(alphas, times):
        x_in = sample_u1(float(alpha), float(t_i), config.nu, config.n_x)
        x_out = evolve_exact(x_in, config.nu, config.tau)
        pairs.append(DatasetPair(x_in, x_out, float(alpha), float(t_i)))
    return pairs


def pairs_to_arrays(pairs: list[DatasetPair]) -> tuple[np.ndarray, np.ndarray]:
    X = np.stack([p.input.values for p in pairs])
    Y = np.stack([p.target.values for p in pairs])
    return X, Y
