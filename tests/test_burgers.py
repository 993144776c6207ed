import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvrom import burgers as bg
from mvrom import datafiles

from oracles import direct_dft, direct_idft, rk4_burgers


def test_grid_validation():
    with pytest.raises(ValueError):
        bg.Grid(15)
    with pytest.raises(ValueError):
        bg.Grid(8)
    assert bg.Grid(64).points[1] == pytest.approx(1 / 64)


def test_dft_single_cosine():
    grid = bg.Grid(64)
    spec = bg.dft(np.cos(2 * np.pi * grid.points))
    k = spec.wavenumbers
    c = spec.coefficients
    assert c[k == 1][0] == pytest.approx(0.5, abs=1e-12)
    assert c[k == -1][0] == pytest.approx(0.5, abs=1e-12)
    others = np.abs(c[(k != 1) & (k != -1)])
    assert others.max() < 1e-12


def test_dft_constant():
    spec = bg.dft(np.ones(32))
    k = spec.wavenumbers
    assert spec.coefficients[k == 0][0] == pytest.approx(1.0)
    assert np.abs(spec.coefficients[k != 0]).max() < 1e-14


@given(seed=st.integers(0, 10_000), n=st.sampled_from([16, 32, 64]))
@settings(max_examples=20, deadline=None)
def test_dft_matches_direct_oracle_and_roundtrips(seed, n):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-2, 2, size=n)
    spec = bg.dft(v)
    np.testing.assert_allclose(spec.coefficients, direct_dft(v), atol=1e-12)
    np.testing.assert_allclose(bg.idft(spec), v, atol=1e-12)
    np.testing.assert_allclose(direct_idft(spec.coefficients), v, atol=1e-12)


def test_parseval_and_conjugate_symmetry():
    rng = np.random.default_rng(1)
    v = rng.uniform(-1, 1, size=128)
    spec = bg.dft(v)
    lhs = np.sum(v**2)
    rhs = 128 * np.sum(np.abs(spec.coefficients) ** 2)
    assert abs(lhs - rhs) < 1e-10
    # c_{-k} = conj(c_k) for every representable pair k = 1 .. n/2 - 1
    c = spec.coefficients
    k = spec.wavenumbers
    pos = np.flatnonzero(k > 0)
    neg = np.searchsorted(k, -k[pos])
    assert np.abs(c[neg] - np.conj(c[pos])).max() < 1e-12


# ---------------------------------------------------------------------------
# Cole-Hopf transform


def test_cole_hopf_of_zero_field():
    u = bg.FieldSample(bg.Grid(64), np.zeros(64))
    np.testing.assert_allclose(bg.cole_hopf_forward(u, 0.02), np.ones(64))


def test_cole_hopf_sine_closed_form():
    nu = 0.02
    grid = bg.Grid(128)
    x = grid.points
    u = bg.FieldSample(grid, np.sin(2 * np.pi * x))
    phi = bg.cole_hopf_forward(u, nu)
    expected = np.exp((np.cos(2 * np.pi * x) - 1) / (4 * np.pi * nu))
    np.testing.assert_allclose(phi, expected, rtol=1e-10, atol=1e-12)
    assert phi[0] == pytest.approx(1.0)
    assert np.all(phi > 0)


def test_cole_hopf_rejects_nonzero_mean():
    u = bg.FieldSample(bg.Grid(64), np.ones(64) * 0.1)
    with pytest.raises(ValueError, match="mean-zero"):
        bg.cole_hopf_forward(u, 0.02)


def test_inverse_of_constant_phi():
    out = bg.cole_hopf_inverse(np.full(64, 3.7), 0.02)
    np.testing.assert_allclose(out.values, np.zeros(64), atol=1e-12)


def test_inverse_closed_form_recovers_sine():
    nu = 0.02
    grid = bg.Grid(128)
    x = grid.points
    phi = np.exp((np.cos(2 * np.pi * x) - 1) / (4 * np.pi * nu))
    out = bg.cole_hopf_inverse(phi, nu)
    np.testing.assert_allclose(out.values, np.sin(2 * np.pi * x), atol=1e-8)
    assert abs(np.mean(out.values)) < 1e-8


def test_inverse_rejects_nonpositive_phi():
    phi = np.full(64, 1.0)
    phi[10] = -0.5
    with pytest.raises(ValueError, match="under-resolved"):
        bg.cole_hopf_inverse(phi, 0.02)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_cole_hopf_roundtrip_on_family(alpha):
    nu = 0.02
    u = bg.sample_u1(alpha, 0.0, nu, n_x=128)
    phi = bg.cole_hopf_forward(u, nu)
    back = bg.cole_hopf_inverse(phi, nu, u.grid, u.time)
    scale = np.linalg.norm(u.values)
    assert np.linalg.norm(back.values - u.values) / scale < 1e-8


# ---------------------------------------------------------------------------
# exact evolution


def test_evolve_zero_time_is_identity():
    u = bg.sample_u1(0.7, 0.0, 0.02, n_x=128)
    out = bg.evolve_exact(u, 0.02, 0.0)
    np.testing.assert_allclose(out.values, u.values, atol=1e-10)
    assert out.time == u.time


@pytest.mark.parametrize("alpha,t", [(1.0, 0.25), (0.5, 0.25), (0.0, 0.5)])
def test_evolve_matches_rk4_oracle(alpha, t):
    nu = 0.02
    grid = bg.Grid(256)
    u0 = bg.FieldSample(grid, bg.initial_condition_u1(alpha, grid))
    exact = bg.evolve_exact(u0, nu, t)
    reference = rk4_burgers(u0.values, nu, t)
    rel = np.linalg.norm(exact.values - reference) / np.linalg.norm(reference)
    assert rel < 1e-6


def test_evolve_conserves_zero_mean_and_decays():
    nu = 0.02
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0]:
        u0 = bg.sample_u1(alpha, 0.0, nu, n_x=128)
        norms = []
        for t in times:
            ut = bg.evolve_exact(u0, nu, t) if t > 0 else u0
            assert abs(np.mean(ut.values)) < 1e-10
            norms.append(np.linalg.norm(ut.values))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_evolve_time_bookkeeping():
    u = bg.sample_u1(0.3, 0.1, 0.02, n_x=100)
    out = bg.evolve_exact(u, 0.02, 0.25)
    assert out.time == pytest.approx(0.35)


def test_full_truncation_matches_untruncated():
    nu = 0.02
    u0 = bg.sample_u1(0.4, 0.0, nu, n_x=128)
    a = bg.evolve_exact(u0, nu, 0.5)
    b = bg.evolve_exact(u0, nu, 0.5, n_f=128)
    np.testing.assert_allclose(a.values, b.values, atol=1e-8)


def test_truncation_validation():
    u0 = bg.sample_u1(0.4, 0.0, 0.02, n_x=64)
    with pytest.raises(ValueError):
        bg.evolve_exact(u0, 0.02, 0.1, n_f=3)
    with pytest.raises(ValueError):
        bg.evolve_exact(u0, 0.02, 0.1, n_f=128)


def test_truncated_nonpositive_policies():
    # two retained modes at a short horizon: the reduced phi dips negative
    nu = 0.02
    u0 = bg.sample_u1(1.0, 0.0, nu, n_x=100)
    with pytest.raises(ValueError, match="under-resolved"):
        bg.evolve_exact(u0, nu, 0.25, n_f=2, nonpositive="raise")
    out = bg.evolve_exact(u0, nu, 0.25, n_f=2, nonpositive="finite")
    assert np.all(np.isfinite(out.values))
    with pytest.raises(ValueError, match="policy"):
        bg.evolve_exact(u0, nu, 0.25, n_f=2, nonpositive="clip")


def test_truncated_long_horizon_is_accurate():
    nu = 0.02
    u0 = bg.sample_u1(1.0, 0.0, nu, n_x=100)
    truth = bg.evolve_exact(u0, nu, 1.0)
    reduced = bg.evolve_exact(u0, nu, 1.0, n_f=6)
    rel = np.abs(reduced.values - truth.values).sum() / np.abs(truth.values).sum()
    assert rel < 1e-4


# ---------------------------------------------------------------------------
# family sampling and dataset generation


def test_sample_u1_endpoints():
    grid = bg.Grid(128)
    x = grid.points
    s1 = bg.sample_u1(1.0, 0.0, 0.02, 128)
    np.testing.assert_allclose(s1.values, np.sin(2 * np.pi * x), atol=1e-14)
    s0 = bg.sample_u1(0.0, 0.0, 0.02, 128)
    np.testing.assert_allclose(s0.values, np.cos(2 * np.pi * x) ** 3, atol=1e-14)
    # cos^3 = 3/4 cos + 1/4 cos(3.) has zero mean
    assert abs(np.mean(s0.values)) < 1e-15


def test_sample_u1_evolved_matches_rk4():
    nu = 0.02
    s = bg.sample_u1(0.5, 0.25, nu, 256)
    grid = bg.Grid(256)
    reference = rk4_burgers(bg.initial_condition_u1(0.5, grid), nu, 0.25)
    rel = np.linalg.norm(s.values - reference) / np.linalg.norm(reference)
    assert rel < 1e-6


def test_dataset_single_pair():
    config = bg.BurgersConfig(n_x=64)
    pairs = bg.generate_burgers_dataset(config, 1, alpha_range=(1.0, 1.0), t_range=(0.0, 0.0))
    assert len(pairs) == 1
    p = pairs[0]
    np.testing.assert_allclose(p.input.values, np.sin(2 * np.pi * bg.Grid(64).points), atol=1e-14)
    expected = bg.evolve_exact(p.input, config.nu, config.tau)
    np.testing.assert_allclose(p.target.values, expected.values, atol=1e-12)
    assert p.target.time - p.input.time == pytest.approx(config.tau)


def test_dataset_seed_determinism():
    config = bg.BurgersConfig(n_x=64)
    a = bg.generate_burgers_dataset(config, 8, seed=5)
    b = bg.generate_burgers_dataset(config, 8, seed=5)
    c = bg.generate_burgers_dataset(config, 8, seed=6)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.input.values, pb.input.values)
        np.testing.assert_array_equal(pa.target.values, pb.target.values)
    assert not np.array_equal(a[0].input.values, c[0].input.values)


def test_dataset_targets_consistent_with_evolver():
    config = bg.BurgersConfig(n_x=64)
    for p in bg.generate_burgers_dataset(config, 6, seed=3):
        expected = bg.evolve_exact(p.input, config.nu, config.tau)
        np.testing.assert_allclose(p.target.values, expected.values, atol=1e-12)
        assert p.target.time - p.input.time == pytest.approx(config.tau)


# ---------------------------------------------------------------------------
# serialization


def test_pair_file_roundtrip(tmp_path):
    config = bg.BurgersConfig(n_x=32)
    pairs = bg.generate_burgers_dataset(config, 5, seed=1)
    X, Y = bg.pairs_to_arrays(pairs)
    path = tmp_path / "pairs.bin"
    datafiles.save_pairs(path, X, Y, config.nu, config.tau)
    X2, Y2, header = datafiles.load_pairs(path)
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(Y, Y2)
    assert header.dim == 32 and header.count == 5
    assert header.param1 == pytest.approx(config.nu)
    assert header.param2 == pytest.approx(config.tau)


def test_pair_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        datafiles.load_pairs(path)


def test_text_export(tmp_path):
    X = np.arange(6.0).reshape(2, 3)
    Y = X + 10
    path = tmp_path / "pairs.csv"
    datafiles.export_pairs_text(path, X, Y)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,x1,x2,y0,y1,y2"
    assert len(lines) == 3
