import gc
import json
import re
import struct
import weakref

import numpy as np
import pytest

from mvrom import autodiff as ad
from mvrom import manifold as mf
from mvrom import vae


def small_model(latent=None, flow="exp-decay", **kw):
    latent = latent or vae.euclidean_latent(2)
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
    b1 = vae.loss(model, X, Y, config, ad.Rng(7))[2]
    b2 = vae.loss(model, X, Y, config, ad.Rng(7))[2]
    assert b1 == b2
    assert b1 != vae.loss(model, X, Y, config, ad.Rng(8))[2]


def test_manifold_encode_stays_on_torus():
    model = small_model(latent=vae.torus_latent())
    X = np.random.default_rng(0).uniform(-1, 1, size=(16, 6))
    z = vae.encode(model, X)
    np.testing.assert_allclose(np.sum(z[:, :2] ** 2, axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.sum(z[:, 2:] ** 2, axis=1), 1.0, atol=1e-9)
    assert not np.allclose(z, vae.mlp_forward(model, "enc_", model.encoder_sizes, X))


def test_latent_policy_validated_at_construction():
    with pytest.raises(ValueError, match="policy 'drop'"):
        vae.torus_latent(policy="drop")


def test_decode_is_deterministic_and_shaped():
    model = small_model()
    z = np.zeros((5, 2))
    out1, out2 = vae.decode(model, z), vae.decode(model, z)
    np.testing.assert_array_equal(out1, out2)
    assert out1.shape == (5, 6)


def test_latent_step_identity_cases():
    model = small_model()
    z = np.array([[1.0, -2.0]])
    np.testing.assert_array_equal(vae.latent_step(model, z, 0), z)
    model.params["lambda0"] = np.array(0.0)
    np.testing.assert_array_equal(vae.latent_step(model, z, 5), z)


def test_latent_step_semigroup_exact():
    model = small_model()
    model.params["lambda0"] = np.array(0.83)
    z = np.array([[0.7, -1.3]])
    once_twice = vae.latent_step(model, vae.latent_step(model, z, 1), 1)
    np.testing.assert_array_equal(once_twice, vae.latent_step(model, z, 2))


def test_latent_step_validates_steps():
    model = small_model()
    with pytest.raises(ValueError):
        vae.latent_step(model, np.zeros((1, 2)), -1)


def test_identity_flow_has_no_lambda_parameter():
    model = small_model(flow="identity")
    assert "lambda0" not in model.params
    z = np.array([[2.0, 3.0]])
    np.testing.assert_array_equal(vae.latent_step(model, z, 4), z)


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
            vae.loss(model, X, np.zeros((2, 6)), vae.TrainConfig(), ad.Rng(0))


def test_flow_node_lambda_gradient_matches_finite_differences():
    model = small_model()
    z = np.random.default_rng(6).normal(size=(3, 2))
    target = np.random.default_rng(7).normal(size=(3, 2))

    def run(want_grad=False):
        tape = ad.Tape()
        lam = tape.leaf("lambda0", model.params["lambda0"])
        out = ad.weighted_sq_sum(vae._flow_tape(model, lam, tape.constant(z)), np.ones(3), target)
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


@pytest.mark.parametrize(
    "latent", [vae.euclidean_latent(2), vae.torus_latent(policy="skip")], ids=["euclidean", "torus"]
)
def test_loss_tape_is_freed_without_cycle_collector(latent):
    model = small_model(latent=latent)
    X, Y = toy_batch(model)
    gc.disable()
    try:
        total, tape, _ = vae.loss(model, X, Y, vae.TrainConfig(), ad.Rng(0))
        tape.backward(ad.scale(total, -1.0))
        ref = weakref.ref(tape)
        del total, tape
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# loss


def test_loss_additivity_machine_precision():
    model = small_model()
    X, Y = toy_batch(model)
    config = vae.TrainConfig(beta=1.0, gamma=0.5, seed=0)
    total, _, b = vae.loss(model, X, Y, config, ad.Rng(0))
    assert abs(b.total - (b.reconstruction + b.kl + b.regularization)) < 1e-12
    assert total.data == pytest.approx(b.total)


def test_kl_zero_for_matched_gaussians():
    # a == 0 and sigma_e == sigma_0 gives exactly zero KL
    model = small_model(sigma_e=1.0, sigma_0=1.0)
    for k in list(model.params):
        if k.startswith("enc_"):
            model.params[k] = np.zeros_like(model.params[k])
    X, Y = toy_batch(model)
    config = vae.TrainConfig(beta=1.0, gamma=0.0, seed=0)
    _, _, b = vae.loss(model, X, Y, config, ad.Rng(0))
    assert b.kl == pytest.approx(0.0, abs=1e-12)


def test_gamma_zero_kills_rr_term_and_gradients():
    model = small_model()
    X, Y = toy_batch(model)
    config = vae.TrainConfig(gamma=0.0, seed=0)
    total, tape, b = vae.loss(model, X, Y, config, ad.Rng(0))
    assert b.regularization == 0.0
    # same rng draws, gamma > 0: gradients differ only through the target path
    grads0 = tape.backward(ad.scale(total, -1.0))
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
    config = vae.TrainConfig(beta=0.7, gamma=0.0, seed=0)
    _, _, b = vae.loss(model, X, Y, config, ad.Rng(0))
    a = vae.mlp_forward(model, "enc_", model.encoder_sizes, X)
    kl_direct = np.mean(
        np.sum(
            np.log(model.sigma_0 / model.sigma_e)
            + (model.sigma_e**2 + a**2) / (2 * model.sigma_0**2)
            - 0.5,
            axis=1,
        )
    )
    assert b.kl == pytest.approx(-0.7 * kl_direct, rel=1e-12)


def test_reparameterized_gradient_matches_analytic():
    # gradient of E[|z|^2] with respect to a is 2a; estimate over many draws
    a_val = np.array([[0.3, -0.8]])
    sigma = 0.5
    n = 10_000
    rng = ad.Rng(11)
    grads = np.zeros(2)
    eps = rng.normal((n, 2))
    for i in range(0, n, 500):
        tape = ad.Tape()
        a = tape.leaf("a", np.repeat(a_val, 500, axis=0))
        z = ad.add(a, tape.constant(sigma * eps[i : i + 500]))
        out = ad.weighted_sq_sum(z, np.full(500, 1.0 / 500))
        grads += tape.backward(out)["a"].sum(axis=0) / (n / 500)
    band = 3 * 2 * sigma / np.sqrt(n)
    np.testing.assert_allclose(grads, 2 * a_val[0], atol=band)


def test_elbo_lower_bounds_loglik_on_toy_problem():
    # beta=1, gamma=0: -(RE + KL) >= -LL with LL estimated by prior sampling
    latent = vae.euclidean_latent(1)
    model = vae.build_vae(1, latent, hidden=(8,), sigma_e=0.3, sigma_d=0.5, sigma_0=1.0, seed=2)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(16, 1)) * 0.5
    Y = X.copy()
    config = vae.TrainConfig(beta=1.0, gamma=0.0, epochs=60, batch_size=16, seed=0)
    model, _ = vae.train(model, X, Y, config)

    # ELBO (average over noise draws)
    elbos = [
        vae.loss(model, X, Y, config, ad.Rng(s))[2].total - 0.0 for s in range(64)
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
    pred = vae.predict_multistep(model, X[0], 1)[1]
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
    model = vae.build_vae(4, vae.torus_latent(), hidden=(12,), flow="identity", seed=0)
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


@pytest.mark.parametrize("latent_name", ["torus", "klein"])
def test_end_to_end_gradient_through_projection_matches_fd(latent_name):
    if latent_name == "torus":
        latent = vae.torus_latent()
    else:
        latent = vae.klein_latent(mf.KleinConfig(resolution=64))
    model = vae.build_vae(4, latent, hidden=(8,), flow="identity", seed=5)
    X = np.random.default_rng(2).uniform(-1, 1, size=(4, 4))
    Y = np.random.default_rng(3).uniform(-1, 1, size=(4, 4))
    config = vae.TrainConfig(beta=1.0, gamma=0.5, seed=0)

    def loss_value(params):
        saved = model.params
        model.params = params
        # fixed rng seed: identical noise draws for every evaluation
        _, _, b = vae.loss(model, X, Y, config, ad.Rng(0))
        model.params = saved
        return b.total

    total, tape, _ = vae.loss(model, X, Y, config, ad.Rng(0))
    grads = tape.backward(total)
    h = 1e-6
    rng = np.random.default_rng(4)
    for name in ["enc_W0", "enc_b1", "dec_W0"]:
        flat_idx = rng.integers(0, model.params[name].size, size=4)
        for fi in flat_idx:
            params_p = {k: v.copy() for k, v in model.params.items()}
            params_m = {k: v.copy() for k, v in model.params.items()}
            params_p[name].reshape(-1)[fi] += h
            params_m[name].reshape(-1)[fi] -= h
            fd = (loss_value(params_p) - loss_value(params_m)) / (2 * h)
            got = grads[name].reshape(-1)[fi]
            assert abs(got - fd) / (1 + abs(fd)) < 1e-4


# ---------------------------------------------------------------------------
# prediction


def test_predict_multistep_zero_steps_is_reconstruction():
    model = small_model()
    X = np.ones(6) * 0.4
    out = vae.predict_multistep(model, X, 0)
    assert out.shape == (1, 6)
    z = vae.encode(model, X)
    np.testing.assert_allclose(out[0], vae.decode(model, z)[0])


def test_predict_multistep_untrained_is_finite():
    model = small_model()
    out = vae.predict_multistep(model, np.ones(6), 4)
    assert out.shape == (5, 6)
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("latent_name", ["euclidean", "torus", "pointcloud"])
def test_checkpoint_roundtrip(tmp_path, latent_name):
    if latent_name == "euclidean":
        latent = vae.euclidean_latent(2)
        in_dim = 6
    elif latent_name == "torus":
        latent = vae.torus_latent(policy="skip")
        in_dim = 4
    else:
        cloud = mf.build_torus_pointcloud(resolution=64)
        latent = vae.pointcloud_latent(cloud)
        in_dim = 4
    model = vae.build_vae(in_dim, latent, hidden=(8,), seed=3)
    path = tmp_path / "model.ckpt"
    vae.save_checkpoint(model, path)
    loaded = vae.load_checkpoint(path)
    assert loaded.encoder_sizes == list(model.encoder_sizes)
    assert loaded.latent.kind == model.latent.kind
    assert loaded.latent.policy == model.latent.policy
    for k in model.params:
        np.testing.assert_array_equal(loaded.params[k], model.params[k])
    X = np.random.default_rng(0).uniform(-1, 1, size=(3, in_dim))
    np.testing.assert_array_equal(
        vae.predict_multistep(model, X[0], 2), vae.predict_multistep(loaded, X[0], 2)
    )
    assert path.with_name(path.name + ".meta.txt").exists()


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        vae.load_checkpoint(p)


def _rewrite_header(path, **extra):
    """Rewrite a checkpoint's JSON header with extra keys (as older writers did)."""
    data = path.read_bytes()
    blob_len = struct.unpack_from("<II", data, 8)[1]
    header = json.loads(data[16 : 16 + blob_len])
    header.update(extra)
    blob = json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<II", 1, len(blob)) + blob + data[16 + blob_len :])


def test_checkpoint_with_fixed_sigmas_flag_loads_and_learned_raises(tmp_path):
    model = small_model()
    path = tmp_path / "old.ckpt"
    vae.save_checkpoint(model, path)
    _rewrite_header(path, learn_sigmas=False)
    loaded = vae.load_checkpoint(path)
    np.testing.assert_array_equal(
        vae.predict_multistep(model, np.ones(6), 2), vae.predict_multistep(loaded, np.ones(6), 2)
    )
    _rewrite_header(path, learn_sigmas=True)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*learnable"):
        vae.load_checkpoint(path)

