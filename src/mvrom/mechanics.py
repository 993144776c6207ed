"""Constrained-mechanics observation datasets.

Two-segment arm: joint positions x1 = L1(cos t1, sin t1) and
x2 = x1 + L2(cos t2, sin t2) give configurations on a torus in R^4.
Klein-bottle constraint: configurations sampled from the R^4 embedding used
by the latent manifold.  Gaussian observation noise supports denoising
studies with (noisy input, clean target) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import domains as dm
from .manifold import KleinConfig, KleinSurface


@dataclass(frozen=True)
class ArmConfig:
    l1: float = dm.setting(dm.POSITIVE, 1.0)
    l2: float = dm.setting(dm.POSITIVE, 1.0)

    __post_init__ = dm.check_fields


@dataclass
class MechDataset:
    """Clean configurations plus a noisy copy at scale sigma."""

    clean: np.ndarray  # (m, 4)
    noisy: np.ndarray  # (m, 4)
    sigma: float = 0.0

    def __len__(self):
        return self.clean.shape[0]


def generate_arm_torus(config: ArmConfig, m: int, seed: int = 0) -> np.ndarray:
    """Uniform joint angles; returns clean configurations (m, 4)."""
    dm.COUNT.check("m", m)
    theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=(m, 2))
    x1 = config.l1 * np.stack([np.cos(theta[:, 0]), np.sin(theta[:, 0])], axis=1)
    x2 = x1 + config.l2 * np.stack([np.cos(theta[:, 1]), np.sin(theta[:, 1])], axis=1)
    return np.hstack([x1, x2])


def generate_klein(config: KleinConfig, m: int, seed: int = 0) -> np.ndarray:
    """Uniform parameters mapped through the Klein-bottle embedding; (m, 4)."""
    dm.COUNT.check("m", m)
    params = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=(m, 2))
    points, _, _ = KleinSurface(config.a, config.b).frames(params)
    return points


def add_noise(samples: np.ndarray, sigma: float, seed: int = 0) -> MechDataset:
    """Independent Gaussian noise per coordinate; clean targets retained."""
    dm.NONNEGATIVE.check("sigma", sigma)
    clean = np.asarray(samples, dtype=np.float64)
    if sigma == 0:
        return MechDataset(clean, clean.copy(), 0.0)
    noise = np.random.default_rng(seed).standard_normal(clean.shape)
    return MechDataset(clean, clean + sigma * noise, sigma)


def train_test_split(data: MechDataset, train_fraction: float = 0.8, seed: int = 0):
    """Deterministic shuffle split preserving (noisy, clean) pairing."""
    dm.FRACTION.check("train_fraction", train_fraction)
    m = len(data)
    perm = np.random.default_rng(seed).permutation(m)
    cut = int(round(m * train_fraction))
    tr, te = perm[:cut], perm[cut:]
    return (
        MechDataset(data.clean[tr], data.noisy[tr], data.sigma),
        MechDataset(data.clean[te], data.noisy[te], data.sigma),
    )
