"""Probabilistic autoencoder with a learnable linear latent flow.

Encoder and decoder are conditional Gaussians: z ~ a(X) + eta(0, sigma_e^2),
x ~ b(z) + eta(0, sigma_d^2), with MLP means.  The training objective is the
sum of three signed terms,

    total = RE + KL + RR,
    RE = mean_i log p(x_i | z'_i),   z' = flow(encode(X_i))
    KL = -beta * mean_i D_KL(q(z|X_i) || N(0, sigma_0^2 I))
    RR = gamma * mean_i log p(x_i | z''_i),   z'' = encode(x_i), no flow step

and training minimizes -total.  The latent flow is z' = exp(-lambda0 tau) z
with lambda0 learnable (or the identity, for pure reconstruction tasks).
Manifold latents insert the nearest-point projection after the noise draw;
the KL term is evaluated on the pre-projection mean, where the Gaussian form
is defined.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import manifold as mf


class TrainingDiverged(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


# ---------------------------------------------------------------------------
# configuration


@dataclass
class LatentSpec:
    """Latent-space choice: euclidean R^d or a manifold with projection.

    ``manifold`` is None (euclidean), an ``AnalyticTorus`` or a
    ``PointCloudManifold``.  ``policy`` says what a flagged projection does:
    "raise" fails the batch, "skip" drops the sample from the loss.
    """

    kind: str = "euclidean"  # euclidean | torus | klein | pointcloud
    dim: int = 2  # embedding dimension seen by encoder/decoder
    manifold: mf.AnalyticTorus | mf.PointCloudManifold | None = None
    policy: str = "raise"
    klein: mf.KleinConfig | None = None  # retained for checkpointing

    def __post_init__(self):
        if self.policy not in ("raise", "skip"):
            raise ValueError(f"unknown projection policy '{self.policy}'")

    def project_batch(self, w: "ad.Tensor"):
        if self.manifold is None:
            return w, np.ones(w.data.shape[0], dtype=bool)
        return mf.manifold_encode_layer(w, self.manifold, self.policy)


def euclidean_latent(dim: int) -> LatentSpec:
    return LatentSpec("euclidean", dim)


def torus_latent(policy: str = "raise") -> LatentSpec:
    return LatentSpec("torus", 4, mf.AnalyticTorus(), policy)


def klein_latent(config: mf.KleinConfig | None = None, policy: str = "raise") -> LatentSpec:
    config = config or mf.KleinConfig()
    return LatentSpec("klein", 4, mf.build_klein_pointcloud(config), policy, config)


def pointcloud_latent(cloud: mf.PointCloudManifold, policy: str = "raise") -> LatentSpec:
    return LatentSpec("pointcloud", cloud.n, cloud, policy)


@dataclass
class TrainConfig:
    beta: float = 1.0
    gamma: float = 0.5
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 1000
    seed: int = 0
    eval_every: int = 0  # 0: never; else epochs between eval_fn calls

    def __post_init__(self):
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("beta and gamma must be nonnegative")


@dataclass
class LossBreakdown:
    total: float
    reconstruction: float
    kl: float
    regularization: float


@dataclass
class EpochStats:
    epoch: int
    loss: LossBreakdown
    eval_error: float | None = None


@dataclass
class VaeModel:
    encoder_sizes: list
    decoder_sizes: list
    latent: LatentSpec
    params: dict
    activation: str = "relu"  # relu | leaky_relu
    leaky_slope: float = 1e-6
    tau: float = 0.25
    sigma_e: float = 4e-3
    sigma_d: float = 4e-3
    sigma_0: float = 1.0
    flow: str = "exp-decay"  # exp-decay | identity

    @property
    def input_dim(self) -> int:
        return self.encoder_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.decoder_sizes[-1]

    @property
    def latent_dim(self) -> int:
        return self.encoder_sizes[-1]


def _mlp_params(rng: ad.Rng, prefix: str, sizes) -> dict:
    params = {}
    for i, (fi, fo) in enumerate(zip(sizes[:-1], sizes[1:])):
        params[f"{prefix}W{i}"] = ad.glorot_init(rng, fi, fo)
        params[f"{prefix}b{i}"] = np.zeros(fo)
    return params


def build_vae(
    input_dim: int,
    latent: LatentSpec,
    hidden=(400, 400),
    output_dim: int | None = None,
    activation: str = "relu",
    leaky_slope: float = 1e-6,
    tau: float = 0.25,
    sigma_e: float = 4e-3,
    sigma_d: float = 4e-3,
    sigma_0: float = 1.0,
    flow: str = "exp-decay",
    lambda0_init: float = 0.5,
    seed: int = 0,
) -> VaeModel:
    """Assemble a model; ``hidden=()`` gives the single-affine linear variant."""
    if activation not in ("relu", "leaky_relu"):
        raise ValueError(f"unknown activation '{activation}'")
    if activation == "leaky_relu" and not 0.0 <= leaky_slope < 1.0:
        raise ValueError(f"leaky_relu: slope must be in [0, 1), got {leaky_slope}")
    if flow not in ("exp-decay", "identity"):
        raise ValueError(f"unknown flow '{flow}'")
    output_dim = input_dim if output_dim is None else output_dim
    encoder_sizes = [input_dim, *hidden, latent.dim]
    decoder_sizes = [latent.dim, *hidden, output_dim]
    rng = ad.Rng(seed)
    params = _mlp_params(rng, "enc_", encoder_sizes)
    params.update(_mlp_params(rng, "dec_", decoder_sizes))
    if flow == "exp-decay":
        params["lambda0"] = np.array(lambda0_init)
    return VaeModel(
        encoder_sizes,
        decoder_sizes,
        latent,
        params,
        activation,
        leaky_slope,
        tau,
        sigma_e,
        sigma_d,
        sigma_0,
        flow,
    )


# ---------------------------------------------------------------------------
# forward passes: one MLP forward serves inference and the training tape


def mlp_forward(model: VaeModel, prefix: str, sizes, X: np.ndarray, cache=None) -> np.ndarray:
    """The MLP ``prefix`` on the rows of X.

    With a ``cache`` list (training), every pre-activation must be finite
    (ReLU would hide an overflow to -inf); each layer appends its input and
    activation slope for the MLP node's backward pass.
    """
    h = np.asarray(X, dtype=np.float64)
    n_layers = len(sizes) - 1
    for i in range(n_layers):
        pre = h @ model.params[f"{prefix}W{i}"] + model.params[f"{prefix}b{i}"]
        if cache is not None and not np.all(np.isfinite(pre)):
            raise ad.NonFiniteError(f"non-finite pre-activation in layer {prefix}{i}")
        slope = None
        if i < n_layers - 1:
            if model.activation == "relu":
                slope = pre > 0
                pre = np.where(slope, pre, 0.0)
            else:
                slope = np.where(pre > 0, 1.0, model.leaky_slope)
                pre = pre * slope
        if cache is not None:
            cache.append((h, slope))
        h = pre
    return h


def _mlp_tape(model: VaeModel, leaves, prefix: str, sizes, x: "ad.Tensor") -> "ad.Tensor":
    """One MLP pass as one tape node over its input and every layer's W and b."""
    cache = []
    out = mlp_forward(model, prefix, sizes, x.data, cache)
    names = [f"{prefix}{kind}{i}" for i in range(len(sizes) - 1) for kind in "Wb"]
    weights = [leaves[n].data for n in names[::2]]
    input_grad = x.slot is not None

    def backward(g):
        grads = []
        for i in reversed(range(len(weights))):
            h, slope = cache[i]
            if slope is not None:
                g = g * slope
            grads += [g.sum(axis=0), h.T @ g]
            g = g @ weights[i].T if i > 0 or input_grad else None
        return (g, *grads[::-1])

    return x.tape.record("mlp", out, (x, *(leaves[n] for n in names)), backward)


def _flow_tape(model: VaeModel, lam: "ad.Tensor", z: "ad.Tensor") -> "ad.Tensor":
    """The exp-decay flow z' = exp(-lambda0 tau) z as one node over (lambda0, z)."""
    factor, tau, zd = flow_factor(model), model.tau, z.data

    def backward(g):
        return (np.sum(g * zd) * factor) * -tau, g * factor

    return z.tape.record("flow", zd * factor, (lam, z), backward)


def encode(model: VaeModel, X: np.ndarray) -> np.ndarray:
    """Mean encoding z: the encoder mean, projected onto a manifold latent."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    a = mlp_forward(model, "enc_", model.encoder_sizes, X)
    if model.latent.manifold is None:
        return a
    z, _, flagged = model.latent.manifold.project(a)
    if np.any(flagged) and model.latent.policy == "raise":
        raise mf.ProjectionError(
            f"projection flagged for samples {np.flatnonzero(flagged).tolist()}"
        )
    return z


def decode(model: VaeModel, z: np.ndarray) -> np.ndarray:
    """Decoder mean b(z); output noise is never added to predictions."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    return mlp_forward(model, "dec_", model.decoder_sizes, z)


def flow_factor(model: VaeModel) -> float:
    if model.flow == "identity":
        return 1.0
    return float(np.exp(-model.params["lambda0"] * model.tau))


def latent_step(model: VaeModel, z: np.ndarray, n_steps: int = 1) -> np.ndarray:
    """Apply the linear latent flow n_steps times (exact semigroup by composition)."""
    if n_steps < 0 or int(n_steps) != n_steps:
        raise ValueError("n_steps must be a nonnegative integer")
    z = np.asarray(z, dtype=np.float64).copy()
    factor = flow_factor(model)
    for _ in range(int(n_steps)):
        z = z * factor
    return z


def predict_multistep(model: VaeModel, X: np.ndarray, n_steps: int) -> np.ndarray:
    """Mean-encode once, step the latent flow, decode at k = 0..n_steps.

    Row k is the prediction at t + k*tau; row 0 is the plain reconstruction.
    """
    z = encode(model, X)
    outputs = []
    current = z
    for k in range(n_steps + 1):
        if k > 0:
            current = latent_step(model, current, 1)
        outputs.append(decode(model, current)[0])
    return np.stack(outputs)


# ---------------------------------------------------------------------------
# loss graph


def loss(model: VaeModel, X: np.ndarray, Y: np.ndarray, config: TrainConfig, rng: ad.Rng):
    """Build the loss graph for one batch; returns (total, tape, breakdown).

    Training minimizes the negative of ``total``.  The noise scales are
    fixed model constants.  Flagged projections under the "skip" policy are
    removed from every term by zero row weights, with the mean renormalized
    over surviving samples.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"expected matching batches, got {X.shape} and {Y.shape}")
    B = X.shape[0]
    d_lat = model.latent_dim
    n_out = model.output_dim
    sig_e, sig_d, sig_0 = model.sigma_e, model.sigma_d, model.sigma_0

    tape = ad.Tape()
    leaves = {name: tape.leaf(name, value) for name, value in model.params.items()}
    Xc, Yc = tape.constant(X), tape.constant(Y)

    def encoder_noise(a):
        return ad.add(a, tape.constant(sig_e * rng.normal((B, d_lat))))

    def gaussian_loglik(pred, row_w):
        """Weighted batch mean of log p(y | pred) under N(pred, sigma_d^2 I)."""
        s = ad.weighted_sq_sum(pred, row_w, Y)
        const = -0.5 * n_out * np.log(2 * np.pi * sig_d**2)
        return ad.add(ad.scale(s, -1.0 / (2 * sig_d**2)), tape.constant(const))

    # prediction path: encode input, noise, project, flow, decode
    a = _mlp_tape(model, leaves, "enc_", model.encoder_sizes, Xc)
    w = encoder_noise(a)
    z, valid = model.latent.project_batch(w)

    # reconstruction-regularization path: encode the *target*, no flow step
    use_rr = config.gamma > 0
    if use_rr:
        a2 = _mlp_tape(model, leaves, "enc_", model.encoder_sizes, Yc)
        w2 = encoder_noise(a2)
        z2, valid2 = model.latent.project_batch(w2)
        valid = valid & valid2

    n_valid = int(valid.sum())
    if n_valid == 0:
        raise mf.ProjectionError("every sample in the batch was flagged by the projection")
    row_w = valid.astype(np.float64) / n_valid

    z_prime = _flow_tape(model, leaves["lambda0"], z) if model.flow == "exp-decay" else z
    x_hat = _mlp_tape(model, leaves, "dec_", model.decoder_sizes, z_prime)
    re = gaussian_loglik(x_hat, row_w)

    # closed-form Gaussian KL on the pre-projection mean
    kl_var = ad.scale(ad.weighted_sq_sum(a, row_w), 1.0 / (2 * sig_0**2))
    kl_const = d_lat * (np.log(sig_0 / sig_e) + sig_e**2 / (2 * sig_0**2) - 0.5)
    kl = ad.scale(ad.add(kl_var, tape.constant(kl_const)), -config.beta)

    if use_rr:
        x_hat2 = _mlp_tape(model, leaves, "dec_", model.decoder_sizes, z2)
        rr = ad.scale(gaussian_loglik(x_hat2, row_w), config.gamma)
    else:
        rr = tape.constant(0.0)

    total = ad.add(ad.add(re, kl), rr)
    breakdown = LossBreakdown(
        float(total.data), float(re.data), float(kl.data), float(rr.data)
    )
    if not np.isfinite(breakdown.total):
        raise ad.NonFiniteError(
            f"non-finite loss: RE={breakdown.reconstruction} KL={breakdown.kl} "
            f"RR={breakdown.regularization}"
        )
    return total, tape, breakdown


# ---------------------------------------------------------------------------
# training


def train(
    model: VaeModel,
    X: np.ndarray,
    Y: np.ndarray,
    config: TrainConfig,
    eval_fn=None,
) -> tuple[VaeModel, list[EpochStats]]:
    """Minibatch Adam on -total over all parameters, lambda0 included.

    Deterministic under config.seed.  Divergence (minimized loss above 1e6
    or non-finite) aborts with the history attached to the exception.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != model.input_dim or Y.shape[1] != model.output_dim:
        raise ValueError(
            f"dataset dims {X.shape[1]}/{Y.shape[1]} do not match model "
            f"{model.input_dim}/{model.output_dim}"
        )
    rng = ad.Rng(config.seed)
    state = ad.AdamState()
    history: list[EpochStats] = []
    n = X.shape[0]
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sums = np.zeros(4)
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            total, tape, breakdown = loss(model, X[idx], Y[idx], config, rng)
            minimized = -breakdown.total
            if not np.isfinite(minimized) or minimized > 1e6:
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}: loss {minimized:.3e}", history
                )
            grads = tape.backward(ad.scale(total, -1.0))
            ad.adam_step(model.params, grads, state, lr=config.lr)
            sums += [
                breakdown.total,
                breakdown.reconstruction,
                breakdown.kl,
                breakdown.regularization,
            ]
            n_batches += 1
        mean = sums / n_batches
        stats = EpochStats(epoch, LossBreakdown(*mean))
        if eval_fn is not None and config.eval_every and (epoch + 1) % config.eval_every == 0:
            stats.eval_error = float(eval_fn(model))
        history.append(stats)
    return model, history


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"MVAECKPT"
_CKPT_VERSION = 1


def save_checkpoint(model: VaeModel, path):
    """Versioned binary: header (architecture, latent kind, scalars) + weights.

    A plain-text sidecar `<path>.meta.txt` summarizes the model; a
    user-supplied point-cloud latent is stored next to the checkpoint as
    `<path>.manifold` in the cloud text format.
    """
    path = Path(path)
    names = sorted(model.params)
    header = {
        "encoder_sizes": list(model.encoder_sizes),
        "decoder_sizes": list(model.decoder_sizes),
        "activation": model.activation,
        "leaky_slope": model.leaky_slope,
        "latent_kind": model.latent.kind,
        "latent_dim": model.latent.dim,
        "latent_policy": model.latent.policy,
        "tau": model.tau,
        "sigma_e": model.sigma_e,
        "sigma_d": model.sigma_d,
        "sigma_0": model.sigma_0,
        "flow": model.flow,
        "params": [[n, list(model.params[n].shape)] for n in names],
    }
    if model.latent.kind == "klein":
        cfg = model.latent.klein or mf.KleinConfig()
        header["klein"] = [cfg.a, cfg.b, cfg.resolution]
    if model.latent.kind == "pointcloud":
        model.latent.manifold.save(path.with_name(path.name + ".manifold"))
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n], dtype="<f8").tobytes())
    lines = [f"{k}: {v}" for k, v in header.items() if k != "params"]
    lines.append(f"parameters: {sum(model.params[n].size for n in names)}")
    path.with_name(path.name + ".meta.txt").write_text("\n".join(lines) + "\n")


def load_checkpoint(path) -> VaeModel:
    """Read a checkpoint; its size must match its header and its weights be finite."""
    path = Path(path)
    data = path.read_bytes()
    magic = data[: len(_CKPT_MAGIC)]
    if magic != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic {magic!r})")
    start = len(_CKPT_MAGIC) + 8
    if len(data) < start:
        raise ValueError(f"{path}: truncated checkpoint header")
    version, blob_len = struct.unpack_from("<II", data, len(_CKPT_MAGIC))
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if len(data) < start + blob_len:
        raise ValueError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[start : start + blob_len].decode())
        shapes = [(name, tuple(int(d) for d in shape)) for name, shape in header["params"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint header ({exc})") from None
    counts = [math.prod(shape) for _, shape in shapes]
    expected = start + blob_len + 8 * sum(counts)
    if len(data) != expected:
        raise ValueError(f"{path}: {len(data)} bytes, but its header implies {expected}")
    if header.get("learn_sigmas", False):
        raise ValueError(f"{path}: learnable noise scales are no longer supported")
    params = {}
    offset = start + blob_len
    for (name, shape), count in zip(shapes, counts):
        params[name] = np.frombuffer(data, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"{path}: parameter '{name}' has non-finite values")

    kind = header["latent_kind"]
    policy = header["latent_policy"]
    if kind == "euclidean":
        latent = euclidean_latent(header["latent_dim"])
    elif kind == "torus":
        latent = torus_latent(policy)
    elif kind == "klein":
        a, b, resolution = header["klein"]
        latent = klein_latent(mf.KleinConfig(a, b, int(resolution)), policy)
    elif kind == "pointcloud":
        cloud = mf.load_pointcloud(path.with_name(path.name + ".manifold"))
        latent = pointcloud_latent(cloud, policy)
    else:
        raise ValueError(f"{path}: unknown latent kind '{kind}'")

    return VaeModel(
        header["encoder_sizes"],
        header["decoder_sizes"],
        latent,
        params,
        header["activation"],
        header["leaky_slope"],
        header["tau"],
        header["sigma_e"],
        header["sigma_d"],
        header["sigma_0"],
        header["flow"],
    )
