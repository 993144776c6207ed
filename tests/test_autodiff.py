import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvrom import autodiff as ad


def central_diff(f, x, h=1e-5):
    """Gradient of scalar f at x by central differences, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def assert_grad_close(g_ad, g_fd, tol=1e-6, mask=None):
    err = np.abs(g_ad - g_fd)
    denom = np.maximum(1.0, np.maximum(np.abs(g_ad), np.abs(g_fd)))
    rel = err / denom
    if mask is not None:
        rel = rel[mask]
    assert rel.size == 0 or rel.max() < tol, f"max rel err {rel.max():.3e}"


def scalar_loss(op_builder):
    """Wrap an op builder x -> Tensor into a leaf-in scalar-out function pair."""

    def f_value(x):
        tape = ad.Tape()
        t = tape.leaf("x", x)
        return ad.ssum(ad.square(op_builder(t))).data.item()

    def f_grad(x):
        tape = ad.Tape()
        t = tape.leaf("x", x)
        out = ad.ssum(ad.square(op_builder(t)))
        return tape.backward(out)["x"]

    return f_value, f_grad


def test_matmul_column_selection():
    tape = ad.Tape()
    a = tape.leaf("a", [[1.0, 2.0], [3.0, 4.0]])
    b = tape.constant([[1.0], [0.0]])
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[1.0], [3.0]])


def test_relu_definition():
    tape = ad.Tape()
    x = tape.leaf("x", [-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(ad.relu(x).data, [0.0, 0.0, 2.0])


def test_leaky_relu_paper_slope():
    tape = ad.Tape()
    x = tape.leaf("x", [-1.0, 2.0])
    out = ad.leaky_relu(x, 1e-6)
    np.testing.assert_allclose(out.data, [-1e-6, 2.0])


def test_leaky_relu_slope_domain():
    tape = ad.Tape()
    x = tape.leaf("x", [1.0])
    with pytest.raises(ValueError):
        ad.leaky_relu(x, 1.0)
    with pytest.raises(ValueError):
        ad.leaky_relu(x, -0.1)


def test_backward_square():
    tape = ad.Tape()
    a = tape.leaf("a", 3.0)
    out = ad.square(a)
    grads = tape.backward(out)
    assert grads["a"] == pytest.approx(6.0)


def test_backward_matvec_column_sums():
    tape = ad.Tape()
    a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
    b = tape.leaf("b", [[1.0], [1.0]])
    out = ad.ssum(ad.matmul(a, b))
    grads = tape.backward(out)
    np.testing.assert_allclose(grads["b"], [[4.0], [6.0]])


def test_backward_requires_scalar():
    tape = ad.Tape()
    x = tape.leaf("x", [1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        tape.backward(ad.square(x))


def test_off_path_leaf_gets_zeros():
    tape = ad.Tape()
    x = tape.leaf("x", [1.0, 2.0])
    y = tape.leaf("y", [[3.0, 4.0]])
    out = ad.ssum(ad.square(x))
    grads = tape.backward(out)
    np.testing.assert_array_equal(grads["y"], np.zeros((1, 2)))
    assert grads["y"].shape == y.data.shape


def test_backward_independent_of_unrelated_nodes():
    def grads_with_extra(extra):
        tape = ad.Tape()
        x = tape.leaf("x", [1.5, -0.5, 2.0])
        out = ad.ssum(ad.square(x))
        if extra:
            z = tape.leaf("z", [5.0, 5.0])
            ad.ssum(ad.exp(ad.scale(z, 0.1)))  # dangling subgraph
        return tape.backward(out)["x"]

    np.testing.assert_array_equal(grads_with_extra(False), grads_with_extra(True))


def test_shape_errors_name_op_and_shapes():
    tape = ad.Tape()
    a = tape.leaf("a", np.ones((2, 3)))
    b = tape.leaf("b", np.ones((2, 3)))
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(a, b)
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(a, tape.constant(np.ones(3)))  # only 2-D operands
    with pytest.raises(ad.ShapeError, match="bias_add"):
        ad.bias_add(a, tape.constant(np.ones(2)))


def test_check_finite_rejects_nan():
    tape = ad.Tape()
    with pytest.raises(ad.NonFiniteError, match="leaf:x"):
        tape.leaf("x", [np.nan])
    x = tape.leaf("y", [1000.0])
    with pytest.raises(ad.NonFiniteError, match="exp"), np.errstate(over="ignore"):
        ad.exp(x)


@pytest.mark.parametrize(
    "name,builder",
    [
        ("add", lambda x: ad.add(x, x)),
        ("sub", lambda x: ad.sub(ad.exp(x), x)),
        ("mul", lambda x: ad.mul(x, ad.exp(x))),
        ("scale", lambda x: ad.scale(x, -1.7)),
        ("neg", lambda x: ad.neg(x)),
        ("exp", lambda x: ad.exp(x)),
        ("square", lambda x: ad.square(x)),
    ],
)
def test_elementwise_ops_match_finite_differences(name, builder):
    rng = np.random.default_rng(42)
    x = rng.uniform(-2.0, 2.0, size=8)
    f, fg = scalar_loss(builder)
    g_fd = central_diff(lambda v: f(v), x)
    assert_grad_close(fg(x), g_fd)


@pytest.mark.parametrize("slope", [0.0, 1e-6, 0.2])
def test_relu_family_matches_finite_differences_away_from_kink(slope):
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, size=40)
    mask = np.abs(x) > 1e-3
    builder = (lambda t: ad.relu(t)) if slope == 0.0 else (lambda t: ad.leaky_relu(t, slope))
    f, fg = scalar_loss(builder)
    g_fd = central_diff(lambda v: f(v), x)
    assert_grad_close(fg(x), g_fd, tol=1e-4, mask=mask)


@given(
    m=st.integers(1, 4),
    k=st.integers(1, 4),
    n=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_matmul_matches_finite_differences(m, k, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-2, 2, size=(m, k))
    B = rng.uniform(-2, 2, size=(k, n))

    def run(A_, B_, want_grads=False):
        tape = ad.Tape()
        a = tape.leaf("A", A_)
        b = tape.leaf("B", B_)
        out = ad.ssum(ad.square(ad.matmul(a, b)))
        if want_grads:
            return tape.backward(out)
        return out.data.item()

    grads = run(A, B, want_grads=True)
    assert_grad_close(grads["A"], central_diff(lambda X: run(X, B), A.copy()))
    assert_grad_close(grads["B"], central_diff(lambda X: run(A, X), B.copy()))


def test_composed_mlp_matches_finite_differences():
    # two-layer net, scalar loss; checks every parameter against central differences
    rng = ad.Rng(11)
    sizes = [5, 7, 3]
    params = {}
    for i, (fi, fo) in enumerate(zip(sizes[:-1], sizes[1:])):
        params[f"W{i}"] = ad.glorot_init(rng, fi, fo)
        params[f"b{i}"] = np.zeros(fo)
    X = rng.uniform(-1, 1, size=(4, 5))
    Y = rng.uniform(-1, 1, size=(4, 3))

    def run(p, want_grads=False):
        tape = ad.Tape()
        leaves = {k: tape.leaf(k, v) for k, v in p.items()}
        h = tape.constant(X)
        for i in range(len(sizes) - 1):
            h = ad.bias_add(ad.matmul(h, leaves[f"W{i}"]), leaves[f"b{i}"])
            if i < len(sizes) - 2:
                h = ad.leaky_relu(h, 0.01)
        out = ad.scale(ad.ssum(ad.square(ad.sub(h, tape.constant(Y)))), 1.0 / Y.size)
        if want_grads:
            return tape.backward(out)
        return out.data.item()

    grads = run(params, want_grads=True)
    for name in params:
        def f(v, name=name):
            q = {k: (v if k == name else w) for k, w in params.items()}
            return run(q)

        assert_grad_close(grads[name], central_diff(f, params[name].copy()), tol=1e-6)


def test_custom_jacobian_identity_passthrough():
    tape = ad.Tape()
    x = tape.leaf("x", [[1.0, 2.0, 3.0]])
    y = ad.batch_custom_jacobian(x, x.data * 2.0, 2.0 * np.eye(3)[None])
    grads = tape.backward(ad.ssum(y))
    np.testing.assert_allclose(grads["x"], [[2.0, 2.0, 2.0]])


def test_custom_jacobian_zero_blocks_gradient():
    tape = ad.Tape()
    x = tape.leaf("x", [[1.0, 2.0], [3.0, 4.0]])
    jacs = np.stack([np.zeros((2, 2)), np.eye(2)])
    y = ad.batch_custom_jacobian(x, np.full((2, 2), 5.0), jacs)
    grads = tape.backward(ad.ssum(ad.square(y)))
    np.testing.assert_array_equal(grads["x"], [[0.0, 0.0], [10.0, 10.0]])


def test_custom_jacobian_shape_validation():
    tape = ad.Tape()
    x = tape.leaf("x", [[1.0, 2.0]])
    with pytest.raises(ad.ShapeError):
        ad.batch_custom_jacobian(x, np.array([[1.0]]), np.eye(2)[None])
    with pytest.raises(ad.ShapeError):
        ad.batch_custom_jacobian(x, np.array([1.0, 2.0]), np.eye(2)[None])


def test_batch_custom_jacobian_matches_loop():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(3, 4))
    jacs = rng.normal(size=(5, 3, 4))
    X = rng.normal(size=(5, 4))
    outs = np.einsum("bpn,bn->bp", jacs, X)

    tape = ad.Tape()
    x = tape.leaf("x", X)
    y = ad.batch_custom_jacobian(x, outs, jacs)
    loss = ad.ssum(ad.square(y))
    g_batch = tape.backward(loss)["x"]

    for b in range(5):
        # d/dx_b sum |J_b x_b|^2 = 2 J_b^T (J_b x_b)
        np.testing.assert_allclose(g_batch[b], 2.0 * jacs[b].T @ outs[b], rtol=1e-12)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_leaves_params():
    params = {"p": np.array([1.0, -2.0])}
    state = ad.AdamState()
    ad.adam_step(params, {"p": np.zeros(2)}, state, lr=0.1)
    np.testing.assert_array_equal(params["p"], [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    params = {"p": np.array(0.0)}
    state = ad.AdamState()
    ad.adam_step(params, {"p": np.array(3.7)}, state, lr=1e-2)
    assert params["p"] == pytest.approx(-1e-2, rel=1e-6)


def test_adam_quadratic_bowl_converges():
    rng = np.random.default_rng(5)
    params = {"p": rng.uniform(-1, 1, size=6)}
    state = ad.AdamState()
    for _ in range(500):
        ad.adam_step(params, {"p": 2.0 * params["p"]}, state, lr=1e-2)
    assert np.linalg.norm(params["p"]) < 1e-3


def test_adam_rejects_nonfinite_gradient():
    params = {"w": np.array([1.0])}
    with pytest.raises(ad.NonFiniteError, match="w"):
        ad.adam_step(params, {"w": np.array([np.nan])}, ad.AdamState())


# ---------------------------------------------------------------------------
# rng


def test_rng_identical_seed_identical_stream():
    a, b = ad.Rng(123), ad.Rng(123)
    np.testing.assert_array_equal(a.normal(100), b.normal(100))
    np.testing.assert_array_equal(a.uniform(size=50), b.uniform(size=50))


def test_glorot_bounds():
    rng = ad.Rng(1)
    W = ad.glorot_init(rng, 30, 50)
    bound = np.sqrt(6.0 / 80)
    assert W.shape == (30, 50)
    assert np.all(np.abs(W) <= bound)
