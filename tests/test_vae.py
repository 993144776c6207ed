import dataclasses
import gc
import json
import re
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mvrom import autodiff as ad
from mvrom import cli
from mvrom import manifold as mf
from mvrom import vae

import oracles
from oracles import build_torus_pointcloud


def small_model(latent=None, flow="exp-decay", **kw):
    latent = latent or vae.make_latent("euclidean", dim=2)
    return vae.build_vae(6, latent, hidden=(16,), flow=flow, seed=1, **kw)


def toy_batch(model, B=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(B, model.input_dim))
    Y = rng.uniform(-1, 1, size=(B, model.output_dim))
    return X, Y


# ---------------------------------------------------------------------------
# encode / decode / flow


def test_encode_noiseless_limit_returns_mean():
    model = small_model()
    X = np.ones((3, 6)) * 0.2
    z = vae.encode(model, X)
    np.testing.assert_array_equal(z, vae.mlp_forward(model, "enc_", model.encoder_sizes, X))


def test_encode_fixed_seed_reproducible():
    # the noisy encoding lives in the loss: its draws follow the rng seed
    model = small_model()
    X, Y = toy_batch(model, B=4)
    config = vae.TrainConfig(seed=0)
    b1 = vae.loss(model, X, Y, config, np.random.default_rng(7))[2]
    b2 = vae.loss(model, X, Y, config, np.random.default_rng(7))[2]
    assert b1 == b2
    assert b1 != vae.loss(model, X, Y, config, np.random.default_rng(8))[2]


def test_manifold_encode_stays_on_torus():
    model = small_model(latent=vae.make_latent("torus"))
    X = np.random.default_rng(0).uniform(-1, 1, size=(16, 6))
    z = vae.encode(model, X)
    np.testing.assert_allclose(np.sum(z[:, :2] ** 2, axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.sum(z[:, 2:] ** 2, axis=1), 1.0, atol=1e-9)
    assert not np.allclose(z, vae.mlp_forward(model, "enc_", model.encoder_sizes, X))


def test_latent_policy_validated_at_construction():
    with pytest.raises(ValueError, match="policy must be one of raise, skip, got 'drop'"):
        vae.make_latent("torus", "drop")


def test_decode_is_deterministic_and_shaped():
    model = small_model()
    z = np.zeros((5, 2))
    out1, out2 = vae.decode(model, z), vae.decode(model, z)
    np.testing.assert_array_equal(out1, out2)
    assert out1.shape == (5, 6)


def test_latent_rollout_identity_cases():
    model = small_model()
    X, _ = toy_batch(model, B=3)
    z = vae.encode(model, X)
    np.testing.assert_array_equal(vae.latent_rollout(model, X, 0), z[None])
    model.params["lambda0"] = np.array(0.0)
    np.testing.assert_array_equal(vae.latent_rollout(model, X, 5), np.stack([z] * 6))


def test_latent_rollout_semigroup_exact():
    # step k is k multiplications by the flow factor, so it continues step
    # k - 1 exactly, and the prediction at horizon k decodes it
    model = small_model()
    model.params["lambda0"] = np.array(0.83)
    X, _ = toy_batch(model, B=3)
    factor = vae.flow_factor(model)
    rollout = vae.latent_rollout(model, X, 3)
    for k in (1, 2, 3):
        np.testing.assert_array_equal(rollout[k], rollout[k - 1] * factor)
    np.testing.assert_array_equal(vae.latent_rollout(model, X, 2), rollout[:3])
    np.testing.assert_array_equal(vae.predict_multistep(model, X, 3)[3],
                                  vae.decode(model, rollout[2] * factor))


def test_latent_rollout_validates_steps():
    model = small_model()
    for rollout in (vae.latent_rollout, vae.predict_multistep):
        for n_steps in (-1, 1.5):
            with pytest.raises(ValueError, match="n_steps must be a nonnegative integer"):
                rollout(model, np.zeros((1, 6)), n_steps)


def test_identity_flow_has_no_lambda_parameter():
    model = small_model(flow="identity")
    assert "lambda0" not in model.params
    X, _ = toy_batch(model, B=2)
    z = vae.encode(model, X)
    np.testing.assert_array_equal(vae.latent_rollout(model, X, 4), np.stack([z] * 5))
    np.testing.assert_array_equal(vae.predict_multistep(model, X, 2),
                                  np.stack([vae.decode(model, z)] * 3))


def test_mlp_forward_cache_is_bit_identical():
    for activation in ("relu", "leaky_relu"):
        model = small_model(activation=activation, leaky_slope=0.2)
        X, _ = toy_batch(model)
        cache = []
        cached = vae.mlp_forward(model, "enc_", model.encoder_sizes, X, cache)
        plain = vae.mlp_forward(model, "enc_", model.encoder_sizes, X)
        np.testing.assert_array_equal(cached, plain)
        assert len(cache) == len(model.encoder_sizes) - 1


def test_negative_infinite_preactivation_raises():
    # ReLU maps -inf to 0: only the pre-activation check sees the overflow
    model = small_model()
    model.params["enc_b0"] = np.full(16, -1e308)
    model.params["enc_W0"] = np.full((6, 16), -1e308)
    X = np.ones((2, 6))
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(vae.mlp_forward(model, "enc_", model.encoder_sizes, X)))
        with pytest.raises(ad.NonFiniteError, match="layer enc_0"):
            vae.mlp_forward(model, "enc_", model.encoder_sizes, X, cache=[])
        with pytest.raises(ad.NonFiniteError, match="layer enc_0"):
            vae.loss(model, X, np.zeros((2, 6)), vae.TrainConfig(), np.random.default_rng(0))


def test_nan_preactivation_reaches_the_inference_output():
    # inference makes no pre-activation check; ReLU must not turn NaN into 0
    model = small_model()
    model.params["enc_b0"][3] = np.nan
    assert np.isnan(vae.encode(model, np.ones((2, 6)))).all()


def test_flow_node_lambda_gradient_matches_finite_differences():
    # the latent node's flow scales the first two rows only (the input path);
    # the third passes unchanged.  Zero noise: its codes are z itself
    model = small_model()
    z = np.random.default_rng(6).normal(size=(3, 2))
    target = np.random.default_rng(7).normal(size=(3, 2))

    def latent(tape):
        return vae._latent_tape(model, tape.constant(z), np.zeros_like(z), 2)[0]

    def run(want_grad=False):
        tape = ad.Tape()
        out = oracles.sq_sum(latent(tape), target=target)
        return tape.backward(out)["lambda0"] if want_grad else out.data.item()

    for lam in (0.0, 0.5, -1.3):
        model.params["lambda0"] = np.array(lam)
        h = 1e-6
        model.params["lambda0"] = np.array(lam + h)
        fp = run()
        model.params["lambda0"] = np.array(lam - h)
        fm = run()
        model.params["lambda0"] = np.array(lam)
        assert run(want_grad=True) == pytest.approx((fp - fm) / (2 * h), rel=1e-6)
        out = latent(ad.Tape())
        np.testing.assert_array_equal(out.data, np.concatenate([z[:2] * np.exp(-lam / 4), z[2:]]))


@pytest.mark.parametrize(
    "latent", [vae.make_latent("euclidean", dim=2), vae.make_latent("torus", "skip")],
    ids=["euclidean", "torus"],
)
def test_loss_tape_is_freed_without_cycle_collector(latent):
    model = small_model(latent=latent)
    X, Y = toy_batch(model)
    gc.disable()
    try:
        objective, tape, _ = vae.loss(model, X, Y, vae.TrainConfig(), np.random.default_rng(0))
        tape.backward(objective)
        ref = weakref.ref(tape)
        del objective, tape
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# loss


def test_loss_additivity_machine_precision():
    model = small_model()
    X, Y = toy_batch(model)
    config = vae.TrainConfig(beta=1.0, gamma=0.5, seed=0)
    objective, _, b = vae.loss(model, X, Y, config, np.random.default_rng(0))
    assert abs(b.total - (b.reconstruction + b.kl + b.regularization)) < 1e-12
    assert objective.data == -b.total


def test_kl_zero_for_matched_gaussians():
    # a == 0 and sigma_e == sigma_0 gives exactly zero KL
    model = small_model(sigma_e=1.0, sigma_0=1.0)
    for k in list(model.params):
        if k.startswith("enc_"):
            model.params[k] = np.zeros_like(model.params[k])
    X, Y = toy_batch(model)
    config = vae.TrainConfig(beta=1.0, gamma=0.0, seed=0)
    _, _, b = vae.loss(model, X, Y, config, np.random.default_rng(0))
    assert b.kl == pytest.approx(0.0, abs=1e-12)


def test_gamma_zero_kills_rr_term_and_gradients():
    model = small_model()
    X, Y = toy_batch(model)
    config = vae.TrainConfig(gamma=0.0, seed=0)
    objective, tape, b = vae.loss(model, X, Y, config, np.random.default_rng(0))
    assert b.regularization == 0.0
    # same rng draws, gamma > 0: gradients differ only through the target path
    grads0 = tape.backward(objective)
    assert set(grads0) == set(model.params)


def test_closed_form_kl_matches_monte_carlo():
    rng = np.random.default_rng(42)
    a = rng.uniform(-1, 1, size=3)
    sig_e, sig_0 = 0.7, 1.3
    closed = np.sum(np.log(sig_0 / sig_e) + (sig_e**2 + a**2) / (2 * sig_0**2) - 0.5)
    n = 100_000
    z = a + sig_e * rng.standard_normal((n, 3))
    log_q = -np.sum((z - a) ** 2, axis=1) / (2 * sig_e**2) - 3 * np.log(
        np.sqrt(2 * np.pi) * sig_e
    )
    log_p = -np.sum(z**2, axis=1) / (2 * sig_0**2) - 3 * np.log(np.sqrt(2 * np.pi) * sig_0)
    mc = np.mean(log_q - log_p)
    assert abs(closed - mc) / abs(closed) < 0.01


def test_loss_kl_agrees_with_direct_formula():
    model = small_model(sigma_e=0.5, sigma_0=2.0)
    X, Y = toy_batch(model)
    a = vae.mlp_forward(model, "enc_", model.encoder_sizes, X)
    kl_direct = np.mean(
        np.sum(
            np.log(model.sigma_0 / model.sigma_e)
            + (model.sigma_e**2 + a**2) / (2 * model.sigma_0**2)
            - 0.5,
            axis=1,
        )
    )
    for gamma in (0.0, 0.5):  # KL covers the input rows only, with RR on or off
        config = vae.TrainConfig(beta=0.7, gamma=gamma)
        _, _, b = vae.loss(model, X, Y, config, np.random.default_rng(0))
        assert b.kl == pytest.approx(-0.7 * kl_direct, rel=1e-12)


def test_loss_terms_agree_with_direct_formula():
    # RE decodes the flowed code of X, RR the code of Y without a flow step;
    # the noise is one (B, d) draw per path, in that order
    model = small_model(sigma_e=0.1, sigma_d=0.3)
    X, Y = toy_batch(model)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
    factor = np.exp(-model.params["lambda0"] * model.tau)

    def loglik(z):
        pred = vae.decode(model, z)
        return np.mean(-np.sum((Y - pred) ** 2, axis=1) / (2 * 0.3**2)
                       - 3 * np.log(2 * np.pi * 0.3**2))

    a_x, a_y = (vae.mlp_forward(model, "enc_", model.encoder_sizes, V) for V in (X, Y))
    b = vae.loss(model, X, Y, vae.TrainConfig(gamma=0.4), np.random.default_rng(0))[2]
    assert b.reconstruction == pytest.approx(loglik((a_x + 0.1 * noise[0]) * factor), rel=1e-12)
    assert b.regularization == pytest.approx(0.4 * loglik(a_y + 0.1 * noise[1]), rel=1e-12)


def test_reparameterized_gradient_matches_analytic():
    # gradient of E[|z|^2] with respect to a is 2a, z = a + sigma eps the
    # latent node's code (euclidean, identity flow); estimate over many draws
    model = small_model(flow="identity")
    a_val = np.array([[0.3, -0.8]])
    sigma = 0.5
    n = 10_000
    rng = np.random.default_rng(11)
    grads = np.zeros(2)
    eps = rng.standard_normal((n, 2))
    for i in range(0, n, 500):
        tape = ad.Tape()
        a = tape.leaf("a", np.repeat(a_val, 500, axis=0))
        z, _ = vae._latent_tape(model, a, sigma * eps[i : i + 500], 500)
        out = oracles.sq_sum(z, np.full(500, 1.0 / 500))
        grads += tape.backward(out)["a"].sum(axis=0) / (n / 500)
    band = 3 * 2 * sigma / np.sqrt(n)
    np.testing.assert_allclose(grads, 2 * a_val[0], atol=band)


def test_elbo_lower_bounds_loglik_on_toy_problem():
    # beta=1, gamma=0: -(RE + KL) >= -LL with LL estimated by prior sampling
    latent = vae.make_latent("euclidean", dim=1)
    model = vae.build_vae(1, latent, hidden=(8,), sigma_e=0.3, sigma_d=0.5, sigma_0=1.0, seed=2)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(16, 1)) * 0.5
    Y = X.copy()
    config = vae.TrainConfig(beta=1.0, gamma=0.0, epochs=60, batch_size=16, seed=0)
    model, _ = vae.train(model, X, Y, config)

    # ELBO (average over noise draws)
    elbos = [
        vae.loss(model, X, Y, config, np.random.default_rng(s))[2].total - 0.0 for s in range(64)
    ]
    elbo = np.mean(elbos)

    # importance-sampled log-likelihood with the prior as proposal
    n_mc = 4000
    z = model.sigma_0 * np.random.default_rng(1).standard_normal((n_mc, 1))
    factor = np.exp(-model.params["lambda0"] * model.tau)
    preds = vae.decode(model, z * factor)  # (n_mc, 1)
    ll = 0.0
    for i in range(X.shape[0]):
        log_p = -np.sum((Y[i] - preds) ** 2, axis=1) / (2 * model.sigma_d**2) - 0.5 * np.log(
            2 * np.pi * model.sigma_d**2
        )
        m = log_p.max()
        ll += m + np.log(np.mean(np.exp(log_p - m)))
    ll /= X.shape[0]
    assert elbo <= ll + 3 * np.std(elbos) / np.sqrt(len(elbos)) + 1e-6


# ---------------------------------------------------------------------------
# training loop


def test_overfit_single_pair():
    model = small_model()
    X = np.ones((1, 6)) * 0.3
    Y = -np.ones((1, 6)) * 0.2
    config = vae.TrainConfig(gamma=0.0, beta=0.0, epochs=800, batch_size=1, lr=3e-3, seed=0)
    model, _ = vae.train(model, X, Y, config)
    pred = vae.predict_multistep(model, X, 1)[1, 0]
    assert np.abs(pred - Y[0]).max() < 5e-3


def test_training_determinism_bit_exact():
    def run():
        model = small_model()
        X, Y = toy_batch(model, B=24, seed=3)
        config = vae.TrainConfig(epochs=15, batch_size=8, seed=9)
        model, history = vae.train(model, X, Y, config)
        return model, history

    m1, h1 = run()
    m2, h2 = run()
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k], m2.params[k])
    assert [s.loss.total for s in h1] == [s.loss.total for s in h2]


def test_training_divergence_aborts_with_history():
    model = small_model()
    X, Y = toy_batch(model, B=8)
    config = vae.TrainConfig(epochs=400, batch_size=8, lr=1e6, seed=0)
    with pytest.raises((vae.TrainingDiverged, ad.NonFiniteError)):
        vae.train(model, X, Y, config)


def test_train_validates_dims():
    model = small_model()
    with pytest.raises(ValueError, match="dims"):
        vae.train(model, np.zeros((4, 5)), np.zeros((4, 6)), vae.TrainConfig(epochs=1))


def test_manifold_training_keeps_codes_on_manifold():
    model = vae.build_vae(4, vae.make_latent("torus"), hidden=(12,), flow="identity", seed=0)
    rng = np.random.default_rng(1)
    theta = rng.uniform(0, 2 * np.pi, size=(32, 2))
    X = np.stack(
        [np.cos(theta[:, 0]), np.sin(theta[:, 0]), np.cos(theta[:, 1]), np.sin(theta[:, 1])],
        axis=1,
    )
    config = vae.TrainConfig(gamma=0.0, epochs=20, batch_size=8, seed=4)
    model, _ = vae.train(model, X, X.copy(), config)
    z = vae.encode(model, X)
    np.testing.assert_allclose(np.sum(z[:, :2] ** 2, axis=1), 1.0, atol=1e-9)


class _FlagRow:
    """A manifold that projects like ``inner`` and also flags one row of the
    stacked [X; Y] batch."""

    def __init__(self, inner, row):
        self.inner, self.row = inner, row

    def project(self, W):
        Z, J, flagged = self.inner.project(W)
        flagged = flagged.copy()
        flagged[self.row] = True
        return Z, J, flagged


def _klein_flag_on_target(B, sample):
    latent = vae.make_latent("klein", "skip", klein=mf.KleinConfig(resolution=64))
    latent.manifold = _FlagRow(latent.manifold, B + sample)
    return latent


@pytest.mark.parametrize("latent_name", ["euclidean", "torus", "klein"])
def test_end_to_end_gradient_through_projection_matches_fd(latent_name):
    # every entry of every parameter, lambda0 included: euclidean with the
    # exp-decay flow, the torus under "raise" and the Klein bottle under
    # "skip" with one sample flagged on its target (RR) row only
    if latent_name == "euclidean":
        latent = vae.make_latent("euclidean", dim=3)
        model = vae.build_vae(4, latent, hidden=(8,), lambda0_init=0.7, seed=5)
    else:
        latent = {"torus": vae.make_latent("torus", "raise"), "klein": _klein_flag_on_target(4, 2)}
        model = vae.build_vae(4, latent[latent_name], hidden=(8,), lambda0_init=0.7, seed=5)
    X = np.random.default_rng(2).uniform(-1, 1, size=(4, 4))
    Y = np.random.default_rng(3).uniform(-1, 1, size=(4, 4))
    config = vae.TrainConfig(beta=1.0, gamma=0.5, seed=0)

    def loss_value():
        # fixed rng seed: identical noise draws for every evaluation
        return vae.loss(model, X, Y, config, np.random.default_rng(0))[0].data.item()

    objective, tape, _ = vae.loss(model, X, Y, config, np.random.default_rng(0))
    grads = tape.backward(objective)
    assert set(grads) == set(model.params) and "lambda0" in grads
    h = 1e-6
    for name, value in model.params.items():  # perturbed in place, then restored
        flat = value.reshape(-1)
        for fi in range(flat.size):
            orig = flat[fi]
            flat[fi] = orig + h
            fp = loss_value()
            flat[fi] = orig - h
            fm = loss_value()
            flat[fi] = orig
            fd = (fp - fm) / (2 * h)
            got = grads[name].reshape(-1)[fi]
            assert abs(got - fd) / (1 + abs(fd)) < 1e-4, (name, fi, got, fd)


def _flat_step(model, X, Y, config):
    """Pack the parameters into one flat vector as ``vae.train`` does; returns
    the NaN-filled flat gradient and its views, and the tape's output for one
    step (the minimized loss)."""
    theta = np.concatenate([np.ravel(v) for v in model.params.values()])
    model.params.update(ad.flat_views(theta, model.params))
    grad = np.full_like(theta, np.nan)
    objective, _, _ = vae.loss(model, X, Y, config, np.random.default_rng(0))
    return grad, ad.flat_views(grad, model.params), objective


@pytest.mark.parametrize("latent_name", ["euclidean", "torus", "klein"])
def test_backward_into_flat_gradient_matches_per_leaf_oracle_bit_for_bit(latent_name):
    # euclidean with the exp-decay flow, the torus under "raise" and the
    # Klein bottle under "skip" with one sample flagged on its target row
    latent = {"euclidean": vae.make_latent("euclidean", dim=3),
              "torus": vae.make_latent("torus", "raise"),
              "klein": _klein_flag_on_target(4, 2)}[latent_name]
    model = vae.build_vae(4, latent, hidden=(8, 8), lambda0_init=0.7, seed=5)
    X = np.random.default_rng(2).uniform(-1, 1, size=(4, 4))
    Y = np.random.default_rng(3).uniform(-1, 1, size=(4, 4))
    config = vae.TrainConfig(beta=0.8, gamma=0.5)
    _, grads, out = _flat_step(model, X, Y, config)
    assert out.tape.backward(out, into=grads) is grads
    expected = oracles.step_gradient(model, X, Y, config, np.random.default_rng(0))
    assert set(expected) == set(model.params)
    for name, g in expected.items():
        np.testing.assert_array_equal(grads[name], g, err_msg=name)


def test_backward_overwrites_every_entry_of_the_flat_gradient():
    model = small_model(latent=vae.make_latent("torus", "skip"))
    X, Y = toy_batch(model, B=6)
    grad, grads, out = _flat_step(model, X, Y, vae.TrainConfig())
    out.tape.backward(out, into=grads)
    assert np.all(np.isfinite(grad))


@pytest.mark.parametrize("name, index", [("dec_W0", (1, 3)), ("lambda0", ())])
def test_nonfinite_parameter_fails_training_before_any_update(name, index):
    model = small_model()
    model.params[name][index] = np.nan if name == "lambda0" else np.inf
    before = {k: v.copy() for k, v in model.params.items()}
    X, Y = toy_batch(model)
    with pytest.raises(ad.NonFiniteError, match=f"non-finite value for parameter '{name}'"):
        vae.train(model, X, Y, vae.TrainConfig(epochs=1, batch_size=4))
    for k, v in before.items():
        np.testing.assert_array_equal(model.params[k], v)


def test_paper_size_backward_allocates_less_than_one_parameter():
    # parameter gradients are written in place: one paper-size backward
    # (100-400-400-2 and back, B=32, RR on) allocates at most the size of
    # one 400x400 weight at its peak
    model = vae.build_vae(100, vae.make_latent("euclidean", dim=2), hidden=(400, 400), seed=1)
    X = np.random.default_rng(0).uniform(-1, 1, size=(32, 100))
    grad, grads, out = _flat_step(model, X, X[::-1].copy(), vae.TrainConfig())
    tracemalloc.start()
    try:
        out.tape.backward(out, into=grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400 * 400 * 8, f"backward peaked at {peak} bytes"
    assert np.all(np.isfinite(grad))


def test_flag_on_target_row_drops_the_sample_from_every_term():
    # under "skip" a flag on sample 2's target row removes the sample from
    # RE, KL and RR alike: its rows may change without moving any term
    X = np.random.default_rng(2).uniform(-1, 1, size=(4, 4))
    Y = np.random.default_rng(3).uniform(-1, 1, size=(4, 4))
    model = vae.build_vae(4, _klein_flag_on_target(4, 2), hidden=(8,), lambda0_init=0.7, seed=5)
    config = vae.TrainConfig(beta=1.0, gamma=0.5, seed=0)
    b = vae.loss(model, X, Y, config, np.random.default_rng(0))[2]
    X2, Y2 = X.copy(), Y.copy()
    X2[2], Y2[2] = 0.5, -0.5
    assert vae.loss(model, X2, Y2, config, np.random.default_rng(0))[2] == b
    model.latent.manifold.row = 4 + 3  # flag sample 3 instead: the terms move
    assert vae.loss(model, X2, Y2, config, np.random.default_rng(0))[2].kl != b.kl


def test_raise_policy_names_sample_and_path_of_a_flagged_row():
    B = 4
    latent = vae.make_latent("torus", "raise")
    latent.manifold = _FlagRow(latent.manifold, B + 1)  # sample 1, target row only
    model = vae.build_vae(4, latent, hidden=(8,), seed=5)
    X, Y = toy_batch(model, B=B)
    with pytest.raises(mf.ProjectionError) as info:
        vae.loss(model, X, Y, vae.TrainConfig(), np.random.default_rng(0))
    assert str(info.value) == "projection flagged for batch samples 1 (target Y)"
    latent.manifold.row = 3  # sample 3, input row
    with pytest.raises(mf.ProjectionError, match=r"samples 3 \(input X\)$"):
        vae.loss(model, X, Y, vae.TrainConfig(), np.random.default_rng(0))


def test_one_projection_of_stacked_rows_equals_two_halves(monkeypatch):
    # one step projects [X; Y] in one call of 2B rows; each half is bit for
    # bit what a B-row call gives
    calls = []
    project = mf.nearest_point_batch

    def recorded(W, manifold):
        calls.append((W.copy(), project(W, manifold)))
        return calls[-1][1]

    monkeypatch.setattr(mf, "nearest_point_batch", recorded)
    latent = vae.make_latent("klein", "skip", klein=mf.KleinConfig())
    model = vae.build_vae(4, latent, hidden=(8,), flow="identity", seed=5)
    X, Y = toy_batch(model, B=6, seed=4)
    vae.train(model, X, Y, vae.TrainConfig(epochs=1, batch_size=6, seed=1))
    assert [len(W) for W, _ in calls] == [12]
    (W, stacked), = calls
    for half in (slice(0, 6), slice(6, 12)):
        alone = project(W[half], model.latent.manifold)
        for field in dataclasses.fields(stacked):
            np.testing.assert_array_equal(getattr(stacked, field.name)[half],
                                          getattr(alone, field.name))


def test_train_makes_params_views_of_one_flat_vector():
    model = small_model()
    shapes = {k: (v.shape, v.dtype) for k, v in model.params.items()}
    X, Y = toy_batch(model, B=8)
    vae.train(model, X, Y, vae.TrainConfig(epochs=2, batch_size=4, seed=0))
    assert {k: (v.shape, v.dtype) for k, v in model.params.items()} == shapes
    base = model.params["enc_W0"].base
    assert base.size == sum(v.size for v in model.params.values())
    assert all(v.base is base for v in model.params.values())


# ---------------------------------------------------------------------------
# prediction


def test_predict_multistep_zero_steps_is_reconstruction():
    model = small_model()
    X = np.ones((3, 6)) * np.array([[0.4], [-0.2], [0.1]])
    out = vae.predict_multistep(model, X, 0)
    assert out.shape == (1, 3, 6)
    z = vae.encode(model, X)
    np.testing.assert_allclose(out[0], vae.decode(model, z))


def test_predict_multistep_untrained_is_finite():
    model = small_model()
    out = vae.predict_multistep(model, np.ones((1, 6)), 4)
    assert out.shape == (5, 1, 6)
    assert np.all(np.isfinite(out))


def test_paper_size_predict_multistep_decodes_one_horizon_at_a_time():
    # a paper-size rollout (100-400-400-2 and back, B=256, 4 steps) peaks at
    # its output plus about two 256x400 decoder activations, not at
    # (n_steps + 1) * B rows through the decoder, and it is bit for bit the
    # decode of the stacked rollout in one call
    model = vae.build_vae(100, vae.make_latent("euclidean", dim=2), hidden=(400, 400), seed=1)
    X = np.random.default_rng(0).uniform(-1, 1, size=(256, 100))
    tracemalloc.start()
    try:
        out = vae.predict_multistep(model, X, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    activation = 256 * 400 * 8
    assert out.shape == (5, 256, 100)
    assert peak <= out.nbytes + 2.25 * activation, f"predict_multistep peaked at {peak} bytes"
    z = vae.latent_rollout(model, X, 4)
    whole = vae.decode(model, z.reshape(-1, 2)).reshape(out.shape)
    assert out.tobytes() == whole.tobytes()


@pytest.mark.parametrize("latent_name", ["euclidean", "torus"])
def test_predict_multistep_batch_matches_single_rows(latent_name):
    # every row of the batch is returned, each as its own single-row call gives it
    if latent_name == "euclidean":
        model = small_model()
    else:
        model = vae.build_vae(4, vae.make_latent("torus", "raise"), hidden=(16,), seed=2)
    X = np.random.default_rng(4).uniform(-1, 1, size=(7, model.input_dim))
    out = vae.predict_multistep(model, X, 3)
    assert out.shape == (4, 7, model.output_dim)
    single = np.stack([vae.predict_multistep(model, x[None], 3)[:, 0] for x in X], axis=1)
    scale = np.linalg.norm(single, axis=-1, keepdims=True)
    assert np.all(np.abs(out - single) <= 1e-12 * scale)
    assert not np.allclose(out[:, 1:], out[:, :1])


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("latent_name", ["euclidean", "torus", "klein", "pointcloud"])
def test_checkpoint_roundtrip(tmp_path, latent_name):
    if latent_name == "euclidean":
        latent = vae.make_latent("euclidean", dim=2)
        in_dim = 6
    elif latent_name == "torus":
        latent = vae.make_latent("torus", "skip")
        in_dim = 4
    elif latent_name == "klein":
        latent = vae.make_latent("klein", "skip", klein=mf.KleinConfig(2.5, 0.75, 96))
        in_dim = 4
    else:
        points = build_torus_pointcloud(resolution=64).points
        cloud = mf.PointCloudManifold(2, 4, points, "quadratic")
        latent = vae.make_latent("pointcloud", cloud=cloud)
        in_dim = 4
    model = vae.build_vae(in_dim, latent, hidden=(8,), seed=3)
    path = tmp_path / "model.ckpt"
    vae.save_checkpoint(model, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.meta.txt"]
    loaded = vae.load_checkpoint(path)
    assert loaded.encoder_sizes == list(model.encoder_sizes)
    fields = ("kind", "dim", "label", "policy")
    assert [getattr(loaded.latent, f) for f in fields] == [getattr(model.latent, f) for f in fields]
    for k in model.params:
        np.testing.assert_array_equal(loaded.params[k], model.params[k])
    X = np.random.default_rng(0).uniform(-1, 1, size=(3, in_dim))
    np.testing.assert_array_equal(
        vae.predict_multistep(model, X, 2), vae.predict_multistep(loaded, X, 2)
    )
    assert path.with_name(path.name + ".meta.txt").exists()


def test_pointcloud_checkpoint_carries_its_cloud_and_projects_bit_identically(tmp_path):
    # the points and k_neighbors travel in the checkpoint: with no cloud file
    # anywhere, the reloaded latent refits the same charts
    points = build_torus_pointcloud(resolution=64).points
    cloud = mf.PointCloudManifold(2, 4, points, "quadratic", k_neighbors=10)
    model = vae.build_vae(4, vae.make_latent("pointcloud", "skip", cloud=cloud), hidden=(8,),
                          seed=3)
    path = tmp_path / "model.ckpt"
    vae.save_checkpoint(model, path)
    (tmp_path / "elsewhere").mkdir()
    path = path.rename(tmp_path / "elsewhere" / "model.ckpt")  # alone in its directory
    loaded = vae.load_checkpoint(path).latent.manifold
    assert (loaded.m, loaded.n, loaded.k_neighbors) == (2, 4, 10)
    np.testing.assert_array_equal(loaded.points, points)
    W = np.random.default_rng(8).normal(size=(200, 4))
    want, got = mf.nearest_point_batch(W, cloud), mf.nearest_point_batch(W, loaded)
    for field in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name))


def test_checkpoint_sidecar_that_does_not_decode_is_named(tmp_path):
    path, sidecar = tmp_path / "old.ckpt", tmp_path / "old.ckpt.manifold"
    path.write_bytes((Path(__file__).parent / "data" / "pointcloud_sidecar.ckpt").read_bytes())
    sidecar.write_bytes(b"1 2 16 quadratic 4\n\xff\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: {sidecar}: not utf-8 text (byte 19: invalid start byte)")):
        vae.load_checkpoint(path)


def test_checkpoint_with_a_cloud_sidecar_still_loads():
    # tests/data/pointcloud_sidecar.ckpt was written when a pointcloud
    # checkpoint kept its cloud in a `<path>.manifold` text file beside it:
    # a 16-point quadratic unit circle with 4 neighbours per chart, under a
    # 3-4-2 encoder built by ``build_vae(..., hidden=(4,), seed=5)``
    path = Path(__file__).parent / "data" / "pointcloud_sidecar.ckpt"
    model = vae.load_checkpoint(path)
    assert (model.latent.kind, model.latent.policy, model.latent.label) == (
        "pointcloud", "skip", "1-manifold")
    cloud = model.latent.manifold
    theta = np.arange(16) * 2 * np.pi / 16
    assert (cloud.m, cloud.k_neighbors) == (1, 4)
    np.testing.assert_array_equal(cloud.points, np.stack([np.cos(theta), np.sin(theta)], 1))
    built = vae.build_vae(3, model.latent, hidden=(4,), seed=5)
    assert model.params.keys() == built.params.keys()
    for k in built.params:
        np.testing.assert_array_equal(model.params[k], built.params[k])


def test_paper_size_checkpoint_loads_into_one_copy_of_its_weights(tmp_path):
    # loading a paper-size checkpoint (100-400-400-2 and back, 3.2 MB of
    # weights) holds one copy of the weights, of which every parameter is a
    # view: the file is not held as bytes beside a copy of each parameter
    model = vae.build_vae(100, vae.make_latent("euclidean", dim=2), hidden=(400, 400), seed=1)
    path = tmp_path / "model.ckpt"
    vae.save_checkpoint(model, path)
    weight_bytes = sum(p.nbytes for p in model.params.values())
    tracemalloc.start()
    try:
        loaded = vae.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * weight_bytes, f"load_checkpoint peaked at {peak / weight_bytes:.2f}x"
    owners = [p.base for p in loaded.params.values()]
    assert owners[0] is not None and all(owner is owners[0] for owner in owners)
    for k in model.params:
        assert loaded.params[k].tobytes() == model.params[k].tobytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        vae.load_checkpoint(p)


def _rewrite_header(path, drop=(), **extra):
    """Rewrite a checkpoint's JSON header with extra keys (as older writers
    did) and without the keys in ``drop``."""
    data = path.read_bytes()
    blob_len = struct.unpack_from("<II", data, 8)[1]
    header = json.loads(data[16 : 16 + blob_len])
    header.update(extra)
    for key in drop:
        del header[key]
    blob = json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<II", 1, len(blob)) + blob + data[16 + blob_len :])


def test_checkpoint_with_fixed_sigmas_flag_loads_and_learned_raises(tmp_path):
    model = small_model()
    path = tmp_path / "old.ckpt"
    vae.save_checkpoint(model, path)
    _rewrite_header(path, learn_sigmas=False)
    loaded = vae.load_checkpoint(path)
    np.testing.assert_array_equal(
        vae.predict_multistep(model, np.ones((1, 6)), 2),
        vae.predict_multistep(loaded, np.ones((1, 6)), 2),
    )
    _rewrite_header(path, learn_sigmas=True)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*learnable"):
        vae.load_checkpoint(path)


@pytest.mark.parametrize(
    "header, message",
    [
        ({"leaky_slope": 5.0}, re.escape("'leaky_slope' must be in [0, 1), got 5.0")),
        ({"activation": "tanh"}, "'activation' must be one of relu, leaky_relu, got 'tanh'"),
        ({"flow": "spiral"}, "'flow' must be one of exp-decay, identity, got 'spiral'"),
    ],
    ids=["leaky_slope", "activation", "flow"],
)
def test_checkpoint_header_outside_model_domain_raises(tmp_path, header, message):
    model = small_model(activation="leaky_relu", leaky_slope=0.2)
    path = tmp_path / "edited.ckpt"
    vae.save_checkpoint(model, path)
    vae.load_checkpoint(path)
    _rewrite_header(path, **header)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
        vae.load_checkpoint(path)


def _circle_cloud_latent():
    theta = np.arange(32) * 2 * np.pi / 32
    points = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return vae.make_latent("pointcloud", cloud=mf.PointCloudManifold(1, 2, points, "quadratic"))


# header field (and entry) -> (the checkpoint's latent, a value outside the
# setting's domain, and its config key and text; the cloud file sets the
# cloud's shape, so it has none)
_OUTSIDE_ITS_DOMAIN = {
    "tau": ("euclidean", -1, "dataset.tau", "-1"),
    "sigma_e": ("euclidean", -3, "model.sigma_e", "-3"),
    "sigma_d": ("euclidean", 0, "model.sigma_d", "0"),
    "sigma_0": ("euclidean", 0, "model.sigma_0", "0"),
    "leaky_slope": ("euclidean", 1.5, "model.leaky_slope", "1.5"),
    "activation": ("euclidean", "tanh", "model.activation", "tanh"),
    "flow": ("euclidean", "spiral", "model.flow", "spiral"),
    "latent_kind": ("euclidean", "sphere", "model.latent", "sphere"),
    "latent_policy": ("euclidean", "warn", "model.projection_policy", "warn"),
    "latent_dim": ("euclidean", 0, "model.latent_dim", "0"),
    "klein.a": ("klein", [0.0, 1.0, 256], "model.klein_a", "0"),
    "klein.b": ("klein", [2.0, -1.0, 256], "model.klein_b", "-1"),
    "klein.resolution": ("klein", [2.0, 1.0, 63], "model.klein_resolution", "63"),
    "pointcloud": ("pointcloud", [1, 32, 0], None, None),
}


@pytest.mark.parametrize("field", sorted(_OUTSIDE_ITS_DOMAIN))
def test_checkpoint_setting_outside_its_domain_is_refused_as_its_config_key_is(
        tmp_path, capsys, field):
    # a relu model's leaky_slope too: its domain is the config key's, whatever the activation
    kind, value, key, text = _OUTSIDE_ITS_DOMAIN[field]
    latent = {"euclidean": None, "klein": vae.make_latent("klein", klein=mf.KleinConfig()),
              "pointcloud": _circle_cloud_latent()}[kind]
    path = tmp_path / "model.ckpt"
    vae.save_checkpoint(small_model(latent), path)
    vae.load_checkpoint(path)
    header_key, _, entry = field.partition(".")
    _rewrite_header(path, **{header_key: value})
    message = (re.escape(f"{path}: checkpoint header field '{header_key}'")
               + (f" entry '{entry}'" if entry else "") + " must be ")
    with pytest.raises(ValueError, match=message):
        vae.load_checkpoint(path)
    assert cli.main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "eval")]) == 2
    assert re.match("config error: " + message, capsys.readouterr().err)
    assert not (tmp_path / "eval").exists()
    if key is not None:
        out = tmp_path / "run"
        assert cli.main(["train", "--set", f"{key}={text}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be ")
        assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "key, sizes",
    [("encoder_sizes", [6, 3]), ("encoder_sizes", [6, 16, 3]), ("encoder_sizes", [6, 16, 2, 2]),
     ("decoder_sizes", [2, 16, 5]), ("decoder_sizes", [2, 6])],
)
def test_checkpoint_layer_sizes_must_match_parameter_shapes(tmp_path, key, sizes):
    # a 6 -> 16 -> 2 -> 16 -> 6 model: sizes that disagree with the stored
    # weights (fewer layers, other widths, a layer with no weights) raise
    model = small_model()
    path = tmp_path / "sizes.ckpt"
    vae.save_checkpoint(model, path)
    _rewrite_header(path, **{key: sizes})
    with pytest.raises(ValueError, match=re.escape(str(path)) + f".*'{key}'"):
        vae.load_checkpoint(path)


@pytest.mark.parametrize("header", [{"latent_kind": "torus"}, {"latent_dim": 3}],
                         ids=["torus", "latent_dim"])
def test_checkpoint_latent_dimension_must_match_the_layer_sizes(tmp_path, capsys, header):
    # a euclidean R^2 checkpoint (6 -> 16 -> 2 -> 16 -> 6) whose header asks
    # for the torus in R^4, or for R^3: the load fails naming the file and
    # the latent kind, and eval exits 2 with that message
    path = tmp_path / "latent.ckpt"
    vae.save_checkpoint(small_model(), path)
    _rewrite_header(path, **header)
    message = re.escape(str(path)) + r": .*'latent_kind' '(torus|euclidean)'.* dimension [34]"
    with pytest.raises(ValueError, match=message):
        vae.load_checkpoint(path)
    assert cli.main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "out")]) == 2
    assert re.search(message, capsys.readouterr().err)


# values no writer of the format puts in each header field of a Klein checkpoint
_NOT_A_NUMBER = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
_NOT_A_STRING = st.one_of(st.none(), st.integers(), st.lists(st.text(max_size=2), max_size=2))
_NOT_SIZES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(1, 9), max_size=1),
    st.lists(st.integers(-3, 0), min_size=2, max_size=3),
    st.lists(st.floats(1, 9), min_size=2, max_size=3),
)
_RADII = st.tuples(st.floats(0.5, 4.0), st.floats(0.1, 0.45))
_CORRUPT = {
    "latent_kind": st.one_of(_NOT_A_STRING, st.text(max_size=10).filter(
        lambda v: v not in ("euclidean", "torus", "klein", "pointcloud"))),
    "latent_policy": st.one_of(_NOT_A_STRING, st.text(max_size=6).filter(
        lambda v: v not in ("raise", "skip"))),
    "klein": st.one_of(
        _NOT_A_NUMBER,
        st.lists(st.integers(1, 100), max_size=5).filter(lambda v: len(v) != 3),
        st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.integers(64, 512))
        .filter(lambda v: not v[0] > v[1]).map(list),
        st.tuples(_RADII, st.integers(-5, 63) | st.floats(64, 1e6)).map(lambda v: [*v[0], v[1]]),
        st.tuples(_RADII, _NOT_A_NUMBER).map(lambda v: [*v[0], v[1]]),
    ),
    **{key: _NOT_SIZES for key in ("encoder_sizes", "decoder_sizes")},
    "activation": _NOT_A_STRING,
    "flow": _NOT_A_STRING,
    **{key: _NOT_A_NUMBER for key in ("leaky_slope", "tau", "sigma_e", "sigma_d", "sigma_0")},
}
_MISSING = object()


@pytest.fixture(scope="module")
def klein_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("klein") / "model.ckpt"
    latent = vae.make_latent("klein", klein=mf.KleinConfig())
    vae.save_checkpoint(vae.build_vae(4, latent, hidden=(8,), seed=1), path)
    vae.load_checkpoint(path)
    return path.read_bytes()


@given(corruption=st.sampled_from(sorted(_CORRUPT)).flatmap(
    lambda key: st.tuples(st.just(key), st.just(_MISSING) | _CORRUPT[key])))
@example(corruption=("klein", _MISSING))
@example(corruption=("latent_kind", _MISSING))
@example(corruption=("klein", [1.0, 2.0, 64]))
@example(corruption=("latent_policy", "ignore"))
@example(corruption=("tau", "x"))
@example(corruption=("klein", [2, 1, 1e6]))
def test_corrupt_checkpoint_header_field_names_file_and_field(
    klein_checkpoint, tmp_path_factory, corruption
):
    key, value = corruption
    path = tmp_path_factory.getbasetemp() / "corrupt.ckpt"
    path.write_bytes(klein_checkpoint)
    if value is _MISSING:
        _rewrite_header(path, drop=[key])
    else:
        _rewrite_header(path, **{key: value})
    with pytest.raises(ValueError, match=re.escape(str(path)) + f".*'{key}'"):
        vae.load_checkpoint(path)
