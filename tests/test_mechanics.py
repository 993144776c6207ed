import numpy as np
import pytest
from scipy import stats

from mvrom import manifold as mf
from mvrom import mechanics as mech

from oracles import arm_constraint_residuals


def test_arm_axis_configuration():
    # both angles zero with unit segments
    rng_free = mech.generate_arm_torus(mech.ArmConfig(), 1, seed=0)
    assert rng_free.shape == (1, 4)
    x1 = mech.ArmConfig().l1 * np.array([1.0, 0.0])
    x2 = x1 + np.array([1.0, 0.0])
    theta = np.zeros((1, 2))
    built = np.hstack(
        [np.cos(theta[:, :1]), np.sin(theta[:, :1]), 1 + np.cos(theta[:, 1:]), np.sin(theta[:, 1:])]
    )
    np.testing.assert_allclose(built[0], [*x1, *x2])


def test_arm_constraints_hold_exactly():
    config = mech.ArmConfig(l1=1.5, l2=0.7)
    X = mech.generate_arm_torus(config, 500, seed=1)
    assert arm_constraint_residuals(config, X).max() < 1e-12


def test_arm_mean_is_centered():
    X = mech.generate_arm_torus(mech.ArmConfig(), 100_000, seed=2)
    band = 3 * 1.0 / np.sqrt(100_000)  # coordinates have std < 1
    assert np.abs(X[:, :2].mean(axis=0)).max() < band


def test_arm_angles_cover_torus_uniformly():
    X = mech.generate_arm_torus(mech.ArmConfig(), 20_000, seed=3)
    theta1 = np.arctan2(X[:, 1], X[:, 0])
    theta2 = np.arctan2(X[:, 3] - X[:, 1], X[:, 2] - X[:, 0])
    for angles in (theta1, theta2):
        hist, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
        assert stats.chisquare(hist).pvalue > 0.05


def test_klein_axis_sample():
    config = mf.KleinConfig(a=2.0, b=1.0)
    surf = mf.KleinSurface(config.a, config.b)
    sigma, _, _ = surf.frames(np.zeros(2))
    np.testing.assert_allclose(sigma, [3.0, 0.0, 0.0, 0.0])


def test_klein_samples_lie_on_manifold():
    config = mf.KleinConfig(resolution=128)
    cloud = mf.build_klein_pointcloud(config)
    X = mech.generate_klein(config, 200, seed=4)
    batch = mf.nearest_point_batch(X, cloud)
    assert np.abs(batch.z - X).max() < 1e-6


def test_klein_second_pair_norm_identity():
    config = mf.KleinConfig()
    rng = np.random.default_rng(5)
    params = rng.uniform(0, 2 * np.pi, size=(100, 2))
    pts, _, _ = mf.KleinSurface(config.a, config.b).frames(params)
    np.testing.assert_allclose(
        np.linalg.norm(pts[:, 2:], axis=1), config.b * np.abs(np.sin(params[:, 1])), atol=1e-12
    )


def test_noise_zero_is_identity():
    X = mech.generate_arm_torus(mech.ArmConfig(), 10, seed=6)
    ds = mech.add_noise(X, 0.0, seed=7)
    np.testing.assert_array_equal(ds.noisy, ds.clean)


def test_noise_variance_matches_sigma():
    X = np.zeros((50_000, 4))
    sigma = 0.3
    ds = mech.add_noise(X, sigma, seed=8)
    sample_var = (ds.noisy - ds.clean).var()
    # chi-square concentration band for 200k draws
    assert abs(sample_var - sigma**2) < 4 * sigma**2 * np.sqrt(2 / ds.noisy.size)


def test_noise_seeded_reproducibility():
    X = mech.generate_arm_torus(mech.ArmConfig(), 20, seed=9)
    a = mech.add_noise(X, 0.1, seed=10)
    b = mech.add_noise(X, 0.1, seed=10)
    c = mech.add_noise(X, 0.1, seed=11)
    np.testing.assert_array_equal(a.noisy, b.noisy)
    assert not np.array_equal(a.noisy, c.noisy)


def test_split_preserves_pairing_and_sizes():
    X = mech.generate_arm_torus(mech.ArmConfig(), 100, seed=12)
    ds = mech.add_noise(X, 0.2, seed=13)
    train, test = mech.train_test_split(ds, 0.8, seed=14)
    assert len(train) == 80 and len(test) == 20
    # pairing: noisy - clean still has the right scale rowwise
    joined = np.vstack([train.noisy - train.clean, test.noisy - test.clean])
    assert np.abs(joined).max() < 0.2 * 6


def test_validation_errors():
    with pytest.raises(ValueError):
        mech.ArmConfig(l1=0.0)
    with pytest.raises(ValueError):
        mech.generate_arm_torus(mech.ArmConfig(), 0)
    with pytest.raises(ValueError):
        mech.add_noise(np.zeros((2, 4)), -0.1)
    with pytest.raises(ValueError):
        mech.train_test_split(mech.add_noise(np.zeros((4, 4)), 0.0), 1.5)
