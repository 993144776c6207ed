import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvrom import autodiff as ad
from mvrom import manifold as mf
from mvrom import vae

import oracles


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
NOISE = np.random.default_rng(8).normal(scale=0.1, size=(4, 2))
FLOW = vae.build_vae(2, vae.make_latent("euclidean", dim=2), hidden=(), lambda0_init=0.3)
IDENTITY = vae.build_vae(2, vae.make_latent("euclidean", dim=2), hidden=(), flow="identity")


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
    latent = vae.make_latent("euclidean", dim=sizes[-1])
    return vae.build_vae(sizes[0], latent, hidden=tuple(sizes[1:-1]), activation=activation,
                         leaky_slope=slope, seed=seed)


def mlp_loss(model, X, row_w, target=None, want_grads=False):
    """Row-weighted squared error of the encoder MLP node, input X a leaf."""
    tape = ad.Tape()
    x = tape.leaf("X", X)
    out = oracles.sq_sum(vae._mlp_tape(model, "enc_", model.encoder_sizes, x), row_w, target)
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
    out = vae._mlp_tape(model, "enc_", model.encoder_sizes, tape.constant(X))
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
    grads = tape.backward(oracles.sq_sum(a))
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
    with pytest.raises(ad.ShapeError, match=r"scalar output, got shape \(2,\)"):
        tape.backward(x)


def test_off_path_leaf_gets_zeros():
    tape = ad.Tape()
    x = tape.leaf("x", [[1.0, 2.0]])
    y = tape.leaf("y", [[3.0, 4.0]])
    out = oracles.sq_sum(x)
    grads = tape.backward(out)
    np.testing.assert_array_equal(grads["y"], np.zeros((1, 2)))
    assert grads["y"].shape == y.data.shape


def test_backward_independent_of_unrelated_nodes():
    def grads_with_extra(extra):
        tape = ad.Tape()
        x = tape.leaf("x", [[1.5, -0.5, 2.0]])
        out = oracles.sq_sum(x)
        if extra:
            model = mlp_model([2, 3])
            z = tape.leaf("z", [[5.0, 5.0]])
            oracles.sq_sum(vae._mlp_tape(model, "enc_", model.encoder_sizes, z))  # dangling subgraph
        return tape.backward(out)["x"]

    np.testing.assert_array_equal(grads_with_extra(False), grads_with_extra(True))


def test_check_finite_rejects_nan():
    tape = ad.Tape()
    with pytest.raises(ad.NonFiniteError, match="leaf:x"):
        tape.leaf("x", [np.nan])
    x = tape.leaf("y", [[1e308]])
    with pytest.raises(ad.NonFiniteError, match="sq_sum"), np.errstate(over="ignore"):
        oracles.sq_sum(x)


@pytest.mark.parametrize(
    "name,builder",
    [
        # the latent node over a euclidean latent, through its input a = x:
        # the noise sum alone under the identity flow, one path of 4 rows
        ("add", lambda x: oracles.sq_sum(vae._latent_tape(IDENTITY, x, NOISE, 4)[0], ROW_W)),
        # the reducer the gradient checks end in: a difference to a target,
        # a product with the row weights and a square
        ("sub", lambda x: oracles.sq_sum(x, ROW_W, TARGET)),
        ("mul", lambda x: oracles.sq_sum(x, ROW_W)),
        # and the exp-decay flow on the first of two paths of 2 rows
        # (lambda0 is checked with the manifold latents below)
        ("exp", lambda x: oracles.sq_sum(vae._latent_tape(FLOW, x, NOISE, 2)[0], ROW_W)),
        ("square", lambda x: oracles.sq_sum(x)),
    ],
)
def test_elementwise_ops_match_finite_differences(name, builder):
    rng = np.random.default_rng(42)
    x = rng.uniform(-2.0, 2.0, size=(4, 2))
    f, fg = scalar_loss(builder)
    g_fd = central_diff(lambda v: f(v), x)
    assert_grad_close(fg(x), g_fd)


OBJECTIVE = vae.build_vae(3, vae.make_latent("euclidean", dim=2), hidden=(), sigma_e=0.3,
                          sigma_d=0.5, sigma_0=1.2)


def objective_node(x_hat, a, Y, valid, beta, gamma):
    """(node, tape, breakdown) of the training objective over leaves x_hat and a."""
    tape = ad.Tape()
    return vae._objective_tape(OBJECTIVE, tape.leaf("x_hat", x_hat), tape.leaf("a", a), Y,
                               valid, vae.TrainConfig(beta=beta, gamma=gamma))


@pytest.mark.parametrize("case", ["beta0", "gamma0", "skip-row"])
def test_objective_node_matches_finite_differences(case):
    # the gradients with respect to the decoder output and the encoder means:
    # beta = 0 leaves the means none, gamma = 0 is one path, and a skipped
    # (zero-weight) sample gets none and does not move the value
    beta, gamma, valid = {"beta0": (0.0, 0.5, np.ones(3, dtype=bool)),
                          "gamma0": (0.8, 0.0, np.ones(3, dtype=bool)),
                          "skip-row": (0.8, 0.5, np.array([True, False, True]))}[case]
    paths = 2 if gamma > 0 else 1
    rng = np.random.default_rng(9)
    Y = rng.uniform(-1.0, 1.0, size=(3, 3))
    x_hat, a = rng.uniform(-1.0, 1.0, size=(3 * paths, 3)), rng.uniform(-1.0, 1.0, (3 * paths, 2))

    def value(xv, av):
        return objective_node(xv, av, Y, valid, beta, gamma)[0].data.item()

    node, tape, b = objective_node(x_hat, a, Y, valid, beta, gamma)
    assert node.data == -b.total and tape.num_nodes == 3
    # the paper's terms, sigma_d = 0.5, sigma_e = 0.3, sigma_0 = 1.2, mean over valid samples
    w = valid / valid.sum()
    sq = ((x_hat - np.concatenate([Y] * paths)) ** 2).sum(axis=1).reshape(paths, 3) @ w
    loglik = -sq / (2 * 0.5**2) - 1.5 * np.log(2 * np.pi * 0.5**2)
    kl = (a[:3] ** 2).sum(axis=1) @ w / (2 * 1.2**2) + 2 * (np.log(1.2 / 0.3) + 0.3**2 / 2.88 - 0.5)
    total = loglik[0] - beta * kl + (gamma * loglik[1] if paths == 2 else 0.0)
    assert node.data == pytest.approx(-total, rel=1e-12)
    grads = tape.backward(node)
    assert_grad_close(grads["x_hat"], central_diff(lambda v: value(v, a), x_hat))
    assert_grad_close(grads["a"], central_diff(lambda v: value(x_hat, v), a))
    np.testing.assert_array_equal(grads["a"][3:], 0.0)  # KL reads the input rows only
    if beta == 0.0:
        np.testing.assert_array_equal(grads["a"], 0.0)
    if gamma == 0.0:
        assert b.regularization == 0.0
    skipped = np.tile(~valid, paths)
    np.testing.assert_array_equal(grads["x_hat"][skipped], 0.0)
    np.testing.assert_array_equal(grads["a"][skipped], 0.0)
    far_x, far_a = x_hat.copy(), a.copy()
    far_x[skipped], far_a[skipped] = 1e150, 1e150
    assert value(far_x, far_a) == node.data


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
@settings(max_examples=30)
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
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(4, 5))
    Y = rng.uniform(-1, 1, size=(4, 3))
    check_mlp_gradients(model, X, np.full(4, 1.0 / Y.size), Y)


class _IdentityProjection:
    """Z = W with identity Jacobians, flagging the rows ``flag``; the latent
    layer zeroes a flagged row's Jacobian."""

    def __init__(self, flag=()):
        self.flag = list(flag)

    def project(self, W):
        flagged = np.zeros(len(W), dtype=bool)
        flagged[self.flag] = True
        return W.copy(), np.repeat(np.eye(W.shape[1])[None], len(W), axis=0), flagged


def latent_model(kind, manifold=None, flow="exp-decay"):
    """A model whose latent node is under test: ``kind`` under "skip", with
    its manifold replaced by ``manifold`` if given."""
    latent = vae.make_latent(kind, "skip", dim=4, klein=mf.KleinConfig())
    if manifold is not None:
        latent.manifold = manifold
    return vae.build_vae(3, latent, hidden=(), flow=flow, lambda0_init=0.3)


def latent_loss(model, A, noise, B, row_w, target, want_grads=False):
    """Row-weighted squared error of the latent node over the leaf a = A."""
    tape = ad.Tape()
    z, _ = vae._latent_tape(model, tape.leaf("a", A), noise, B)
    out = oracles.sq_sum(z, row_w, target)
    return tape.backward(out) if want_grads else out.data.item()


def check_latent_gradients(model, A, noise, B, row_w, target, rows=slice(None)):
    """The gradients of a (on ``rows``) and lambda0 against central differences."""
    grads = latent_loss(model, A, noise, B, row_w, target, want_grads=True)
    assert set(grads) == {"a"} | ({"lambda0"} & set(model.params))
    value = lambda _: latent_loss(model, A, noise, B, row_w, target)  # noqa: E731
    assert_grad_close(grads["a"][rows], central_diff(value, A)[rows])
    if "lambda0" in grads:  # perturbed in place, then restored
        assert_grad_close(grads["lambda0"], central_diff(value, model.params["lambda0"]))
    return grads


LATENT_A = np.random.default_rng(13).uniform(-1.5, 1.5, size=(6, 4))
LATENT_NOISE = np.random.default_rng(14).normal(scale=0.05, size=(6, 4))
LATENT_W = np.array([0.5, 1.0, 2.0, 0.25, 0.0, 1.5])
LATENT_TARGET = np.random.default_rng(15).uniform(-1.0, 1.0, size=(6, 4))


def test_custom_jacobian_identity_passthrough():
    # the latent node over an identity projection: J^T passes the adjoint on
    # unchanged, so a and lambda0 get the euclidean latent's gradients bit for bit
    args = (LATENT_A, LATENT_NOISE, 3, LATENT_W, LATENT_TARGET)
    grads = check_latent_gradients(latent_model("torus", _IdentityProjection()), *args)
    euclidean = latent_loss(latent_model("euclidean"), *args, want_grads=True)
    for name in ("a", "lambda0"):
        np.testing.assert_array_equal(grads[name], euclidean[name])


def test_custom_jacobian_zero_blocks_gradient():
    # a flagged row's Jacobian is zeroed: its code still moves the value (rows
    # 1 and 3 carry weight), but no gradient reaches its encoder mean; the
    # other rows, and lambda0, match central differences, under either flow
    for flow in ("exp-decay", "identity"):
        model = latent_model("torus", _IdentityProjection(flag=[1, 3]), flow)
        grads = check_latent_gradients(model, LATENT_A, LATENT_NOISE, 3, LATENT_W, LATENT_TARGET,
                                       np.array([0, 2, 4, 5]))
        np.testing.assert_array_equal(grads["a"][[1, 3]], 0.0)


def test_batch_custom_jacobian_matches_loop():
    # the analytic torus and the Klein bottle: the latent node's gradient of a
    # is J_b^T applied row by row to the flowed adjoint, and it matches
    # central differences, as does lambda0's
    B = 3
    for kind in ("torus", "klein"):
        model = latent_model(kind)
        grads = check_latent_gradients(model, LATENT_A, LATENT_NOISE, B, LATENT_W, LATENT_TARGET)
        Z, J, flagged = model.latent.manifold.project(LATENT_A + LATENT_NOISE)
        assert not flagged.any()
        rows = np.where(np.arange(2 * B) < B, vae.flow_factor(model), 1.0)[:, None]
        g = 2.0 * LATENT_W[:, None] * (Z * rows - LATENT_TARGET) * rows
        for b in range(2 * B):
            np.testing.assert_allclose(grads["a"][b], J[b].T @ g[b], rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# optimizer


def adam(params: dict):
    """Pack ``params`` into one flat vector the way ``vae.train`` does:
    returns the vector, its views under the same names and a fresh state."""
    flat = np.concatenate([np.ravel(v) for v in params.values()])
    return flat, ad.flat_views(flat, params), ad.AdamState(params)


def test_adam_zero_gradient_leaves_params():
    flat, views, state = adam({"p": np.array([1.0, -2.0])})
    ad.adam_step(flat, np.zeros(2), state, lr=0.1)
    np.testing.assert_array_equal(views["p"], [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    flat, views, state = adam({"p": np.array(0.0)})
    ad.adam_step(flat, np.array([3.7]), state, lr=1e-2)
    assert views["p"] == pytest.approx(-1e-2, rel=1e-6)


def test_adam_quadratic_bowl_converges():
    flat, _, state = adam({"p": np.random.default_rng(5).uniform(-1, 1, size=6)})
    for _ in range(500):
        ad.adam_step(flat, 2.0 * flat, state, lr=1e-2)
    assert np.linalg.norm(flat) < 1e-3


def test_adam_rejects_nonfinite_gradient():
    # the first bad entry of the flat gradient names its parameter; nothing moves
    flat, _, state = adam({"a": np.zeros((2, 2)), "w": np.ones(3), "z": np.array(0.5)})
    for bad_at, name in [(0, "a"), (3, "a"), (4, "w"), (6, "w"), (7, "z")]:
        grad = np.ones(8)
        grad[bad_at:] = [np.nan, np.inf, -np.inf, 1.0, 1.0, 1.0, 1.0, 1.0][: 8 - bad_at]
        with pytest.raises(ad.NonFiniteError, match=f"parameter '{name}'"):
            ad.adam_step(flat, grad, state)
    np.testing.assert_array_equal(flat, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5])
    assert state.step == 0


def test_adam_rejects_nonpositive_lr():
    flat, _, state = adam({"p": np.ones(2)})
    for lr in (0.0, -1e-3):
        with pytest.raises(ValueError, match="lr must be positive"):
            ad.adam_step(flat, np.ones(2), state, lr=lr)


def test_adam_gradient_check_in_the_last_chunk_names_its_parameter():
    # a NaN or Inf past the first chunk is caught before any chunk moves
    chunk = ad.AdamState.CHUNK
    shapes = {"a": (3,), "big": (chunk + 10,), "z": (5,)}
    rng = np.random.default_rng(4)
    for bad_at, name in [(chunk + 5, "big"), (chunk + 15, "z")]:
        flat, _, state = adam({key: rng.normal(size=shape) for key, shape in shapes.items()})
        before = flat.copy()
        grad = rng.normal(size=flat.size)
        grad[bad_at] = np.nan if name == "big" else -np.inf
        with pytest.raises(ad.NonFiniteError, match=f"gradient for parameter '{name}'"):
            ad.adam_step(flat, grad, state)
        np.testing.assert_array_equal(flat, before)
        np.testing.assert_array_equal(state.m, 0.0)
        np.testing.assert_array_equal(state.v, 0.0)
        assert state.step == 0


def test_adam_steps_on_a_finite_gradient_whose_square_overflows():
    # g.g overflows, so the screen falls through to the exact check, which passes
    shapes = {"w": (6,), "b": (2,)}
    rng = np.random.default_rng(8)
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    reference = {name: value.copy() for name, value in params.items()}
    flat, views, state = adam(params)
    grads = {"w": np.array([1e200, -3e199, 0.5, -2.0, 1e-3, 4.0]), "b": np.array([-7e199, 0.25])}
    g = np.concatenate([grads["w"], grads["b"]])
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.dot(g, g))
        ad.adam_step(flat, g, state, lr=1e-2)
        oracles.textbook_adam_step(reference, grads, {}, {}, 1, lr=1e-2)
    assert state.step == 1 and np.all(np.isfinite(flat))
    for name in shapes:
        np.testing.assert_allclose(views[name], reference[name], rtol=0, atol=1e-15)
    # an entry whose g*g overflows stays put, as in the textbook form; the rest move
    np.testing.assert_array_equal(views["w"][:2], params["w"][:2])
    assert np.all(views["w"][2:] != params["w"][2:]) and views["b"][1] != params["b"][1]


def test_flat_adam_matches_per_parameter_oracle_bit_for_bit():
    # the chunked in-place update against the same (folded) arithmetic done
    # parameter by parameter; "big" puts two chunk boundaries inside one parameter
    rng = np.random.default_rng(12)
    shapes = {"enc_W0": (5, 7), "big": (2 * ad.AdamState.CHUNK + 100,), "enc_b0": (7,),
              "dec_W0": (7, 3), "lambda0": ()}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    reference = {name: value.copy() for name, value in params.items()}
    flat, views, state = adam(params)
    M, V = {}, {}
    for t in range(1, 8):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                 for name, shape in shapes.items()}
        ad.adam_step(flat, np.concatenate([np.ravel(g) for g in grads.values()]), state, lr=3e-3)
        oracles.dict_adam_step(reference, grads, M, V, t, lr=3e-3)
        for name in shapes:
            np.testing.assert_array_equal(views[name], reference[name])
        # the moments too: a rounding change in V can vanish from a step
        for flat_moment, moment in ((state.m, M), (state.v, V)):
            np.testing.assert_array_equal(flat_moment, np.concatenate(
                [np.ravel(x) for x in moment.values()]))
    assert state.step == 7


def test_adam_keeps_dead_first_moments_normal_and_the_parameters_bit_identical():
    # a third of the gradient entries are zero from step 21 on, as a dead
    # ReLU unit's are: without the flush their first moments turn subnormal
    # near step 6,700.  Over 7,000 steps no moment of the flushed state is
    # ever subnormal, and every parameter matches the unflushed oracle's bits
    rng = np.random.default_rng(30)
    params = {"w": rng.normal(size=(4, 6)), "b": np.zeros(6)}
    reference = {name: value.copy() for name, value in params.items()}
    dead = {name: np.arange(value.size).reshape(value.shape) % 3 == 0
            for name, value in params.items()}
    flat, views, state = adam(params)
    M, V = {}, {}
    tiny = np.finfo(np.float64).tiny
    for t in range(1, 7001):
        grads = {name: np.where(dead[name] & (t > 20), 0.0, rng.normal(size=value.shape))
                 for name, value in params.items()}
        ad.adam_step(flat, np.concatenate([np.ravel(g) for g in grads.values()]), state)
        oracles.dict_adam_step(reference, grads, M, V, t)
        magnitude = np.abs(state.m)
        assert not np.any((magnitude > 0) & (magnitude < tiny)), f"subnormal moment at step {t}"
    unflushed = np.abs(np.concatenate([np.ravel(m) for m in M.values()]))
    assert np.any((unflushed > 0) & (unflushed < tiny))  # the oracle's moments did turn
    for name in params:
        np.testing.assert_array_equal(views[name], reference[name])


def test_folded_adam_tracks_the_textbook_update():
    # over 50 steps at gradient scales 1e-6..1e3 the folded form stays within
    # 1e-14 of the textbook one, relative to each array's largest magnitude
    beta1, beta2 = 0.9, 0.999
    rng = np.random.default_rng(21)
    shapes = {"enc_W0": (40, 30), "enc_b0": (30,), "dec_W0": (30, 40), "lambda0": ()}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    reference = {name: value.copy() for name, value in params.items()}
    flat, views, state = adam(params)
    m, v = {}, {}
    for t in range(1, 51):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 4), size=shape)
                 for name, shape in shapes.items()}
        ad.adam_step(flat, np.concatenate([np.ravel(g) for g in grads.values()]), state,
                     lr=3e-3, beta1=beta1, beta2=beta2)
        oracles.textbook_adam_step(reference, grads, m, v, t, lr=3e-3, beta1=beta1, beta2=beta2)
    moments = {"m": (ad.flat_views(state.m, params), m, 1 - beta1),
               "v": (ad.flat_views(state.v, params), v, 1 - beta2)}
    for name in shapes:
        scale = np.max(np.abs(reference[name]))
        np.testing.assert_allclose(views[name], reference[name], rtol=0, atol=1e-14 * scale)
        for scaled, textbook, factor in moments.values():
            np.testing.assert_allclose(factor * scaled[name], textbook[name], rtol=0,
                                       atol=1e-14 * np.max(np.abs(textbook[name])))
    assert state.step == 50


def test_backward_writes_into_flat_views():
    # the same gradients as the returned dict, in place, zeros for a leaf off the path
    model = mlp_model([3, 4, 2])
    X = np.random.default_rng(2).normal(size=(5, 3))
    expected = mlp_loss(model, X, np.ones(5), want_grads=True)
    grad = np.full(sum(v.size for v in expected.values()) + 2, np.nan)
    views = ad.flat_views(grad, {**expected, "off": np.zeros(2)})
    tape = ad.Tape()
    tape.leaf("off", np.ones(2))
    x = tape.leaf("X", X)
    out = oracles.sq_sum(vae._mlp_tape(model, "enc_", model.encoder_sizes, x))
    assert tape.backward(out, into=views) is views
    for name, g in expected.items():
        np.testing.assert_array_equal(views[name], g)
    np.testing.assert_array_equal(views["off"], 0.0)
    assert np.shares_memory(views["X"], grad)


# ---------------------------------------------------------------------------
# initialization


def test_glorot_bounds():
    rng = np.random.default_rng(1)
    W = ad.glorot_init(rng, 30, 50)
    bound = np.sqrt(6.0 / 80)
    assert W.shape == (30, 50)
    assert np.all(np.abs(W) <= bound)
