import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvrom import autodiff as ad
from mvrom import vae


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


def assert_grad_close(g_ad, g_fd, tol=1e-6):
    err = np.abs(g_ad - g_fd)
    denom = np.maximum(1.0, np.maximum(np.abs(g_ad), np.abs(g_fd)))
    rel = err / denom
    assert rel.size == 0 or rel.max() < tol, f"max rel err {rel.max():.3e}"


ROW_W = np.array([0.5, 1.0, 0.0, 2.0])
TARGET = np.random.default_rng(7).uniform(-1.0, 1.0, size=(4, 2))
FLOW = vae.build_vae(2, vae.euclidean_latent(2), hidden=(), lambda0_init=0.3)


def scalar_loss(loss_builder):
    """Wrap a builder leaf -> scalar Tensor into a value and a gradient function."""

    def f_value(x):
        tape = ad.Tape()
        return loss_builder(tape.leaf("x", x)).data.item()

    def f_grad(x):
        tape = ad.Tape()
        return tape.backward(loss_builder(tape.leaf("x", x)))["x"]

    return f_value, f_grad


def mlp_model(sizes, activation="relu", slope=1e-6, seed=11):
    """A model whose encoder is the MLP ``sizes``; tests use its 'enc_' pass."""
    latent = vae.euclidean_latent(sizes[-1])
    return vae.build_vae(sizes[0], latent, hidden=tuple(sizes[1:-1]), activation=activation,
                         leaky_slope=slope, seed=seed)


def mlp_loss(model, X, row_w, target=None, want_grads=False):
    """Row-weighted squared error of the encoder MLP node, input X a leaf."""
    tape = ad.Tape()
    leaves = {k: tape.leaf(k, v) for k, v in model.params.items() if k.startswith("enc_")}
    x = tape.leaf("X", X)
    out = ad.weighted_sq_sum(vae._mlp_tape(model, leaves, "enc_", model.encoder_sizes, x),
                             row_w, target)
    return tape.backward(out) if want_grads else out.data.item()


def check_mlp_gradients(model, X, row_w, target=None):
    """Every encoder parameter and the input against central differences."""
    grads = mlp_loss(model, X, row_w, target, want_grads=True)
    inputs = {k: v for k, v in model.params.items() if k.startswith("enc_")}
    inputs["X"] = X
    assert set(grads) == set(inputs)
    for name, value in inputs.items():  # perturbed in place, then restored
        g_fd = central_diff(lambda _: mlp_loss(model, X, row_w, target), value)
        assert_grad_close(grads[name], g_fd)


def test_matmul_column_selection():
    model = mlp_model([2, 1])
    model.params["enc_W0"] = np.array([[1.0], [0.0]])
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    tape = ad.Tape()
    leaves = {k: tape.leaf(k, v) for k, v in model.params.items()}
    out = vae._mlp_tape(model, leaves, "enc_", model.encoder_sizes, tape.constant(X))
    np.testing.assert_array_equal(out.data, [[1.0], [3.0]])


def hidden_activation(model, pre):
    """The activation of one hidden layer, read from the forward cache."""
    model.params["enc_W0"] = np.ones((1, len(pre)))
    model.params["enc_b0"] = np.array(pre)
    cache = []
    vae.mlp_forward(model, "enc_", model.encoder_sizes, np.zeros((1, 1)), cache)
    return cache[1][0][0]


def test_relu_definition():
    model = mlp_model([1, 3, 1])
    np.testing.assert_array_equal(hidden_activation(model, [-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])


def test_leaky_relu_paper_slope():
    model = mlp_model([1, 2, 1], activation="leaky_relu", slope=1e-6)
    np.testing.assert_allclose(hidden_activation(model, [-1.0, 2.0]), [-1e-6, 2.0])


def test_leaky_relu_slope_domain():
    for slope in (1.0, -0.1):
        with pytest.raises(ValueError, match="slope"):
            mlp_model([2, 3, 1], activation="leaky_relu", slope=slope)
    mlp_model([2, 3, 1], activation="relu", slope=1.0)  # unused by ReLU


def test_backward_square():
    tape = ad.Tape()
    a = tape.leaf("a", [[3.0]])
    grads = tape.backward(ad.weighted_sq_sum(a, [1.0]))
    assert grads["a"].item() == pytest.approx(6.0)


def test_backward_matvec_column_sums():
    # row weights 1/(2 y) make the adjoint of y all ones, so dW = X^T 1
    model = mlp_model([2, 1])
    model.params["enc_W0"] = np.array([[1.0], [1.0]])
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    grads = mlp_loss(model, X, np.array([1 / 6, 1 / 14]), want_grads=True)
    np.testing.assert_allclose(grads["enc_W0"], [[4.0], [6.0]], rtol=1e-15)


def test_backward_requires_scalar():
    tape = ad.Tape()
    x = tape.leaf("x", [1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        tape.backward(ad.add(x, x))


def test_off_path_leaf_gets_zeros():
    tape = ad.Tape()
    x = tape.leaf("x", [[1.0, 2.0]])
    y = tape.leaf("y", [[3.0, 4.0]])
    out = ad.weighted_sq_sum(x, [1.0])
    grads = tape.backward(out)
    np.testing.assert_array_equal(grads["y"], np.zeros((1, 2)))
    assert grads["y"].shape == y.data.shape


def test_backward_independent_of_unrelated_nodes():
    def grads_with_extra(extra):
        tape = ad.Tape()
        x = tape.leaf("x", [[1.5, -0.5, 2.0]])
        out = ad.weighted_sq_sum(x, [1.0])
        if extra:
            z = tape.leaf("z", [[5.0, 5.0]])
            ad.weighted_sq_sum(ad.scale(z, 0.1), [1.0])  # dangling subgraph
        return tape.backward(out)["x"]

    np.testing.assert_array_equal(grads_with_extra(False), grads_with_extra(True))


def test_shape_errors_name_op_and_shapes():
    tape = ad.Tape()
    a = tape.leaf("a", np.ones((2, 3)))
    with pytest.raises(ad.ShapeError, match=r"add: \(2, 3\) vs \(3,\)"):
        ad.add(a, tape.constant(np.ones(3)))
    with pytest.raises(ad.ShapeError, match=r"weighted_sq_sum: x \(2, 3\), row weights \(3,\)"):
        ad.weighted_sq_sum(a, np.ones(3))
    with pytest.raises(ad.ShapeError, match=r"weighted_sq_sum: x \(2, 3\), target \(2,\)"):
        ad.weighted_sq_sum(a, np.ones(2), np.ones(2))


def test_check_finite_rejects_nan():
    tape = ad.Tape()
    with pytest.raises(ad.NonFiniteError, match="leaf:x"):
        tape.leaf("x", [np.nan])
    x = tape.leaf("y", [1e308])
    with pytest.raises(ad.NonFiniteError, match="scale"), np.errstate(over="ignore"):
        ad.scale(x, 10.0)


@pytest.mark.parametrize(
    "name,builder",
    [
        ("add", lambda x: ad.weighted_sq_sum(ad.add(x, x), ROW_W)),
        ("sub", lambda x: ad.weighted_sq_sum(x, ROW_W, TARGET)),  # difference to a target
        ("mul", lambda x: ad.weighted_sq_sum(x, ROW_W)),  # product with the row weights
        ("scale", lambda x: ad.weighted_sq_sum(ad.scale(x, -1.7), ROW_W)),
        ("neg", lambda x: ad.scale(ad.weighted_sq_sum(x, ROW_W), -1.0)),
        # exp-decay flow, through its latent input (lambda0 is checked in test_vae)
        ("exp", lambda x: ad.weighted_sq_sum(
            vae._flow_tape(FLOW, x.tape.leaf("lambda0", FLOW.params["lambda0"]), x), ROW_W)),
        ("square", lambda x: ad.weighted_sq_sum(x, np.ones(4))),
    ],
)
def test_elementwise_ops_match_finite_differences(name, builder):
    rng = np.random.default_rng(42)
    x = rng.uniform(-2.0, 2.0, size=(4, 2))
    f, fg = scalar_loss(builder)
    g_fd = central_diff(lambda v: f(v), x)
    assert_grad_close(fg(x), g_fd)


@pytest.mark.parametrize("slope", [0.0, 1e-6, 0.2])
def test_relu_family_matches_finite_differences_away_from_kink(slope):
    # the MLP node: every parameter and the input, for ReLU and leaky ReLU
    activation = "relu" if slope == 0.0 else "leaky_relu"
    model = mlp_model([3, 6, 5, 2], activation, slope, seed=3)
    for name in ("enc_b0", "enc_b1"):
        model.params[name] = np.random.default_rng(4).uniform(-0.5, 0.5, model.params[name].shape)
    X = np.random.default_rng(5).uniform(-2.0, 2.0, size=(4, 3))
    cache = []
    vae.mlp_forward(model, "enc_", model.encoder_sizes, X, cache)
    for i in (1, 2):  # hidden pre-activations stay clear of the kink by 1e-3
        pre = cache[i - 1][0] @ model.params[f"enc_W{i - 1}"] + model.params[f"enc_b{i - 1}"]
        assert np.abs(pre).min() > 1e-3 and (pre < 0).any() and (pre > 0).any()
    check_mlp_gradients(model, X, np.array([0.25, 0.5, 1.0, 0.0]), TARGET)


@given(
    m=st.integers(1, 4),
    k=st.integers(1, 4),
    n=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_matmul_matches_finite_differences(m, k, n, seed):
    # a single affine layer: the MLP node's matmul and bias adjoints
    rng = np.random.default_rng(seed)
    model = mlp_model([k, n])
    model.params["enc_W0"] = rng.uniform(-2, 2, size=(k, n))
    model.params["enc_b0"] = rng.uniform(-2, 2, size=n)
    check_mlp_gradients(model, rng.uniform(-2, 2, size=(m, k)), np.ones(m))


def test_composed_mlp_matches_finite_differences():
    # two-layer net, mean squared error; checks every parameter and the input
    model = mlp_model([5, 7, 3], "leaky_relu", 0.01)
    rng = ad.Rng(11)
    X = rng.uniform(-1, 1, size=(4, 5))
    Y = rng.uniform(-1, 1, size=(4, 3))
    check_mlp_gradients(model, X, np.full(4, 1.0 / Y.size), Y)


def test_custom_jacobian_identity_passthrough():
    tape = ad.Tape()
    x = tape.leaf("x", [[1.0, 2.0, 3.0]])
    y = ad.batch_custom_jacobian(x, x.data * 2.0, 2.0 * np.eye(3)[None])
    grads = tape.backward(ad.weighted_sq_sum(y, [0.25]))
    np.testing.assert_allclose(grads["x"], [[2.0, 4.0, 6.0]])  # J^T (2 * 0.25 * y)


def test_custom_jacobian_zero_blocks_gradient():
    tape = ad.Tape()
    x = tape.leaf("x", [[1.0, 2.0], [3.0, 4.0]])
    jacs = np.stack([np.zeros((2, 2)), np.eye(2)])
    y = ad.batch_custom_jacobian(x, np.full((2, 2), 5.0), jacs)
    grads = tape.backward(ad.weighted_sq_sum(y, np.ones(2)))
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
    jacs = rng.normal(size=(5, 3, 4))
    X = rng.normal(size=(5, 4))
    outs = np.einsum("bpn,bn->bp", jacs, X)

    tape = ad.Tape()
    x = tape.leaf("x", X)
    y = ad.batch_custom_jacobian(x, outs, jacs)
    g_batch = tape.backward(ad.weighted_sq_sum(y, np.ones(5)))["x"]

    for b in range(5):
        # d/dx_b sum |J_b x_b|^2 = 2 J_b^T (J_b x_b)
        np.testing.assert_allclose(g_batch[b], 2.0 * jacs[b].T @ outs[b], rtol=1e-12)


def test_weighted_sq_sum_target_and_zero_rows():
    rng = np.random.default_rng(8)
    X, T = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    row_w = np.array([0.5, 0.0, 2.0])
    tape = ad.Tape()
    x = tape.leaf("x", X)
    out = ad.weighted_sq_sum(x, row_w, T)
    assert out.data == pytest.approx(np.sum(row_w[:, None] * (X - T) ** 2), rel=1e-14)
    g = tape.backward(out)["x"]
    np.testing.assert_allclose(g, 2.0 * row_w[:, None] * (X - T), rtol=1e-14)
    np.testing.assert_array_equal(g[1], 0.0)  # a zero-weight row gets no gradient
    # a zero-weight row does not count, whatever its values
    X[1] = 1e150
    tape = ad.Tape()
    assert ad.weighted_sq_sum(tape.leaf("x", X), row_w, T).data == out.data


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
