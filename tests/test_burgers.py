import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvrom import burgers as bg
from mvrom import datafiles

from oracles import (
    direct_antiderivative,
    direct_cole_hopf_evolve,
    direct_dft,
    direct_idft,
    evolve_rows,
    rk4_burgers,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        bg.Grid(15)
    with pytest.raises(ValueError):
        bg.Grid(8)
    assert bg.Grid(64).points[1] == pytest.approx(1 / 64)


@given(seed=st.integers(0, 10_000), n=st.sampled_from([16, 32, 64]), rows=st.integers(1, 4))
@settings(max_examples=20)
def test_spectral_antiderivative_matches_direct_sum(seed, n, rows):
    # a (rows, n) batch of mean-zero signals, integrated row by row against
    # the O(n^2) direct-sum antiderivative (k = 0 and Nyquist modes dropped)
    rng = np.random.default_rng(seed)
    V = rng.uniform(-2, 2, size=(rows, n))
    V -= V.mean(axis=-1, keepdims=True)
    A = bg.spectral_antiderivative(V)
    assert A.shape == (rows, n)
    np.testing.assert_array_equal(A[:, 0], 0.0)
    for v, a in zip(V, A):
        np.testing.assert_allclose(a, direct_antiderivative(v), rtol=0, atol=1e-13)


def test_spectral_antiderivative_of_cosine_is_sine():
    x = bg.Grid(64).points
    anti = bg.spectral_antiderivative(np.cos(2 * np.pi * x))
    np.testing.assert_allclose(anti, np.sin(2 * np.pi * x) / (2 * np.pi), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [64, 100])
@pytest.mark.parametrize("n_f", [None, 2, 4, 6])
def test_evolve_matches_direct_cole_hopf_oracle(n, n_f):
    # every row against its own Cole-Hopf evolution built on the direct DFT;
    # row 1 is the alpha = 1, t = 0.25 case whose two-mode phi dips <= 0
    nu = 0.02
    rng = np.random.default_rng(n + (n_f or 0))
    alphas = rng.uniform(0, 1, 6)
    times = rng.uniform(0, 1, 6)
    alphas[:2], times[:2] = [0.4, 1.0], [0.0, 0.25]
    U0 = bg.initial_condition_u1(alphas, bg.Grid(n))
    out = bg.evolve_exact(U0, nu, times, n_f=n_f)
    for u0, t, row in zip(U0, times, out):
        reference = direct_cole_hopf_evolve(u0, nu, t, n_f)
        assert np.abs(row - reference).max() <= 1e-10 * np.abs(reference).max()


# ---------------------------------------------------------------------------
# Cole-Hopf transform


def test_cole_hopf_of_zero_field():
    np.testing.assert_allclose(bg.cole_hopf_forward(np.zeros(64), 0.02), np.ones(64))


def test_cole_hopf_sine_closed_form():
    nu = 0.02
    x = bg.Grid(128).points
    phi = bg.cole_hopf_forward(np.sin(2 * np.pi * x), nu)
    expected = np.exp((np.cos(2 * np.pi * x) - 1) / (4 * np.pi * nu))
    np.testing.assert_allclose(phi, expected, rtol=1e-10, atol=1e-12)
    assert phi[0] == pytest.approx(1.0)
    assert np.all(phi > 0)


def test_cole_hopf_rejects_nonzero_mean():
    with pytest.raises(ValueError, match="mean-zero"):
        bg.cole_hopf_forward(np.ones(64) * 0.1, 0.02)
    # one offending row fails the batch
    U = np.zeros((3, 64))
    U[1] += 0.1
    with pytest.raises(ValueError, match="mean-zero"):
        bg.cole_hopf_forward(U, 0.02)


def test_inverse_of_constant_phi():
    out = bg.cole_hopf_inverse(np.full(64, 3.7), 0.02)
    np.testing.assert_allclose(out, np.zeros(64), atol=1e-12)


def test_inverse_closed_form_recovers_sine():
    nu = 0.02
    x = bg.Grid(128).points
    phi = np.exp((np.cos(2 * np.pi * x) - 1) / (4 * np.pi * nu))
    out = bg.cole_hopf_inverse(phi, nu)
    np.testing.assert_allclose(out, np.sin(2 * np.pi * x), atol=1e-8)
    assert abs(np.mean(out)) < 1e-8


def test_inverse_rejects_nonpositive_phi():
    phi = np.full(64, 1.0)
    phi[10] = -0.5
    with pytest.raises(ValueError, match="under-resolved"):
        bg.cole_hopf_inverse(phi, 0.02)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_cole_hopf_roundtrip_on_family(alpha):
    nu = 0.02
    u = bg.sample_u1(alpha, 0.0, nu, n_x=128)
    back = bg.cole_hopf_inverse(bg.cole_hopf_forward(u, nu), nu)
    assert np.linalg.norm(back - u) / np.linalg.norm(u) < 1e-8


# ---------------------------------------------------------------------------
# exact evolution


def test_evolve_zero_time_is_identity():
    u = bg.sample_u1(0.7, 0.0, 0.02, n_x=128)
    np.testing.assert_array_equal(bg.evolve_exact(u, 0.02, 0.0), u)
    # per-row times: only the rows with t = 0 come back unchanged
    U = bg.sample_u1([0.2, 0.7, 0.9], 0.0, 0.02, n_x=128)
    out = bg.evolve_exact(U, 0.02, [0.0, 0.3, 0.0])
    np.testing.assert_array_equal(out[[0, 2]], U[[0, 2]])
    assert not np.array_equal(out[1], U[1])


@pytest.mark.parametrize("t", [0.0, np.zeros(3), np.zeros((2, 1))])
def test_evolve_by_zero_time_returns_the_input_without_a_transform(t, monkeypatch):
    # scalar, (B,) and (H, 1) times that are all 0 give back U0, broadcast to
    # the output shape, bit for bit and in a new array; no FFT runs, and a
    # field whose mean is not zero is still refused
    U = bg.sample_u1([0.2, 0.7, 0.9], 0.3, 0.02, n_x=64)

    def no_fft(*args, **kwargs):
        raise AssertionError("evolution by t = 0 took a transform")

    monkeypatch.setattr(np.fft, "rfft", no_fft)
    out = bg.evolve_exact(U, 0.02, t)
    assert out.shape == np.broadcast_shapes(np.shape(t) + (1,), U.shape)
    assert out.tobytes() == np.broadcast_to(U, out.shape).tobytes()
    assert not np.shares_memory(out, U)
    with pytest.raises(ValueError, match="mean-zero"):
        bg.evolve_exact(U + 1e-3, 0.02, t)


@pytest.mark.parametrize("alpha,t", [(1.0, 0.25), (0.5, 0.25), (0.0, 0.5)])
def test_evolve_matches_rk4_oracle(alpha, t):
    nu = 0.02
    u0 = bg.initial_condition_u1(alpha, bg.Grid(256))
    exact = bg.evolve_exact(u0, nu, t)
    reference = rk4_burgers(u0, nu, t)
    assert np.linalg.norm(exact - reference) / np.linalg.norm(reference) < 1e-6


def test_evolve_batch_matches_rk4_oracle():
    # several (alpha, t) rows from one batched call, each against its own RK4 run
    nu = 0.02
    alphas = np.array([1.0, 0.5, 0.0, 0.8])
    times = np.array([0.25, 0.1, 0.5, 0.3])
    U0 = bg.initial_condition_u1(alphas, bg.Grid(256))
    exact = bg.evolve_exact(U0, nu, times)
    assert exact.shape == (4, 256)
    for u0, t, row in zip(U0, times, exact):
        reference = rk4_burgers(u0, nu, t)
        assert np.linalg.norm(row - reference) / np.linalg.norm(reference) < 1e-6


@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6))
@settings(max_examples=15)
def test_batched_evolve_rows_match_single_rows(seed, rows):
    # bit for bit: per-row times, every row at each of H horizons, and truncation
    # under the "finite" policy, with a row whose truncated phi dips <= 0
    nu = 0.02
    rng = np.random.default_rng(seed)
    alphas = np.append(rng.uniform(0, 1, rows), 1.0)
    times = np.append(rng.uniform(0, 0.75, rows), 0.0)
    times[rng.uniform(size=rows + 1) < 0.3] = 0.0
    U0 = bg.initial_condition_u1(alphas, bg.Grid(64)) * rng.uniform(0.5, 3.0, (rows + 1, 1))
    cases = [
        (times, {}),
        (np.array([[0.0], [0.25], [0.5], [1.0]]), {}),
        (np.array([[0.25], [0.5]]), dict(n_f=2)),
        (times, dict(n_f=4)),
        (0.25, dict(n_f=6)),
    ]
    for t, kwargs in cases:
        batched = bg.evolve_exact(U0, nu, t, **kwargs)
        np.testing.assert_array_equal(batched, evolve_rows(bg.evolve_exact, U0, nu, t, **kwargs))


def test_truncated_inverse_floor_is_per_row():
    # a row with an exact grid zero next to a row 1e15 times larger: the
    # denominator floor of each row follows its own scale
    x = bg.Grid(32).points
    small = np.cos(2 * np.pi * x) + 1.5
    small[5] = 0.0
    phi = np.stack([small, 1e15 * (np.cos(2 * np.pi * x) + 2.0)])
    batched = bg._truncated_inverse(phi, bg.spectral_derivative(phi), 0.02)
    for row, out in zip(phi, batched):
        np.testing.assert_array_equal(out, bg._truncated_inverse(row, bg.spectral_derivative(row), 0.02))
    assert np.all(np.isfinite(batched))


def test_evolve_conserves_zero_mean_and_decays():
    nu = 0.02
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    U0 = bg.sample_u1([0.0, 0.25, 0.5, 0.75, 1.0], 0.0, nu, n_x=128)
    Ut = bg.evolve_exact(U0, nu, times[:, None])  # (time, alpha, x)
    assert np.abs(np.mean(Ut, axis=-1)).max() < 1e-10
    norms = np.linalg.norm(Ut, axis=-1)
    assert np.all(norms[1:] <= norms[:-1] + 1e-12)


def test_full_truncation_matches_untruncated():
    nu = 0.02
    u0 = bg.sample_u1(0.4, 0.0, nu, n_x=128)
    a = bg.evolve_exact(u0, nu, 0.5)
    b = bg.evolve_exact(u0, nu, 0.5, n_f=128)
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_truncation_validation():
    u0 = bg.sample_u1(0.4, 0.0, 0.02, n_x=64)
    with pytest.raises(ValueError):
        bg.evolve_exact(u0, 0.02, 0.1, n_f=3)
    with pytest.raises(ValueError):
        bg.evolve_exact(u0, 0.02, 0.1, n_f=128)
    with pytest.raises(ValueError, match="nonnegative"):
        bg.evolve_exact(u0, 0.02, [[0.1], [-0.1]])


def test_truncated_evolution_is_finite_where_phi_dips_nonpositive():
    # two retained modes at a short horizon: the reduced phi dips negative
    nu = 0.02
    u0 = bg.sample_u1(1.0, 0.0, nu, n_x=100)
    coeff = direct_dft(bg.cole_hopf_forward(u0, nu))
    k = np.arange(-50, 50)
    coeff[np.abs(k) > 1] = 0.0
    assert direct_idft(coeff * np.exp(-4 * np.pi**2 * k**2 * nu * 0.25)).min() <= 0
    assert np.all(np.isfinite(bg.evolve_exact(u0, nu, 0.25, n_f=2)))


def test_truncated_long_horizon_is_accurate():
    nu = 0.02
    u0 = bg.sample_u1(1.0, 0.0, nu, n_x=100)
    truth = bg.evolve_exact(u0, nu, 1.0)
    reduced = bg.evolve_exact(u0, nu, 1.0, n_f=6)
    assert np.abs(reduced - truth).sum() / np.abs(truth).sum() < 1e-4


# ---------------------------------------------------------------------------
# family sampling and dataset generation


def test_sample_u1_endpoints():
    x = bg.Grid(128).points
    s1, s0 = bg.sample_u1([1.0, 0.0], 0.0, 0.02, 128)
    np.testing.assert_allclose(s1, np.sin(2 * np.pi * x), atol=1e-14)
    np.testing.assert_allclose(s0, np.cos(2 * np.pi * x) ** 3, atol=1e-14)
    # cos^3 = 3/4 cos + 1/4 cos(3.) has zero mean
    assert abs(np.mean(s0)) < 1e-15


def test_sample_u1_evolved_matches_rk4():
    nu = 0.02
    s = bg.sample_u1(0.5, 0.25, nu, 256)
    reference = rk4_burgers(bg.initial_condition_u1(0.5, bg.Grid(256)), nu, 0.25)
    assert np.linalg.norm(s - reference) / np.linalg.norm(reference) < 1e-6


def test_dataset_single_pair():
    config = bg.BurgersConfig(n_x=64)
    data = bg.generate_burgers_dataset(config, 1, alpha_range=(1.0, 1.0), t_range=(0.0, 0.0))
    assert data.X.shape == data.Y.shape == (1, 64)
    np.testing.assert_array_equal(data.alpha, [1.0])
    np.testing.assert_array_equal(data.t, [0.0])
    np.testing.assert_allclose(data.X[0], np.sin(2 * np.pi * bg.Grid(64).points), atol=1e-14)
    expected = bg.evolve_exact(data.X[0], config.nu, config.tau)
    np.testing.assert_allclose(data.Y[0], expected, atol=1e-12)


def test_dataset_seed_determinism():
    config = bg.BurgersConfig(n_x=64)
    a = bg.generate_burgers_dataset(config, 8, seed=5)
    b = bg.generate_burgers_dataset(config, 8, seed=5)
    c = bg.generate_burgers_dataset(config, 8, seed=6)
    for name in ("X", "Y", "alpha", "t"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.X[0], c.X[0])


def test_dataset_targets_consistent_with_evolver():
    config = bg.BurgersConfig(n_x=64)
    data = bg.generate_burgers_dataset(config, 6, seed=3)
    np.testing.assert_array_equal(data.X, bg.sample_u1(data.alpha, data.t, config.nu, 64))
    for x, y in zip(data.X, data.Y):
        np.testing.assert_array_equal(y, bg.evolve_exact(x, config.nu, config.tau))


@pytest.mark.parametrize("t_range", [(0.0, 0.0), (0.0, 0.75)])
def test_states_are_the_inputs_of_the_pairs_drawn_from_the_same_seed(t_range):
    # a test set draws alpha, then t, from the rng as a training set does,
    # and computes no targets
    config = bg.BurgersConfig(n_x=64)
    states = bg.sample_burgers_states(config, 9, (0.2, 0.8), t_range, seed=4)
    pairs = bg.generate_burgers_dataset(config, 9, (0.2, 0.8), t_range, seed=4)
    assert not hasattr(states, "Y")
    for name in ("X", "alpha", "t"):
        assert getattr(states, name).tobytes() == getattr(pairs, name).tobytes()


def test_dataset_validates_shapes_and_finiteness():
    X = np.zeros((3, 16))
    with pytest.raises(ValueError, match="expected"):
        bg.BurgersData(X, X[:2], np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="expected"):
        bg.BurgersData(X, X, np.zeros(2), np.zeros(3))
    Y = X.copy()
    Y[1, 4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        bg.BurgersData(X, Y, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="expected"):
        bg.BurgersStates(X, np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        bg.BurgersStates(Y, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# serialization


def test_pair_file_roundtrip(tmp_path):
    config = bg.BurgersConfig(n_x=32)
    data = bg.generate_burgers_dataset(config, 5, seed=1)
    X, Y = data.X, data.Y
    path = tmp_path / "pairs.bin"
    datafiles.save_pairs(path, X, Y, config.nu, config.tau)
    X2, Y2, header = datafiles.load_pairs(path)
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(Y, Y2)
    assert header.dim == 32 and header.count == 5
    assert header.param1 == pytest.approx(config.nu)
    assert header.param2 == pytest.approx(config.tau)


def test_pair_file_loads_into_one_array(tmp_path):
    # 1024 pairs of 100 points (1.6 MB): the values are read once, and X and
    # Y are the even and odd rows of that one array
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(1024, 100)), rng.normal(size=(1024, 100))
    path = tmp_path / "pairs.bin"
    datafiles.save_pairs(path, X, Y, 0.02, 0.25)
    tracemalloc.start()
    try:
        X2, Y2, _ = datafiles.load_pairs(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (X.nbytes + Y.nbytes), f"load_pairs peaked at {peak} bytes"
    assert X2.base is not None and X2.base is Y2.base
    assert X2.tobytes() == X.tobytes() and Y2.tobytes() == Y.tobytes()


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
