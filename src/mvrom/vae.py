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
is defined.  A training step records four tape nodes: the encoder, the
latent layer (noise, projection and flow under one hand-written adjoint),
the decoder, and the objective, which takes all three terms from one
residual pass.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import struct
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import datafiles
from . import domains as dm
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

    Built by ``make_latent``.  ``manifold`` is None (euclidean), an
    ``AnalyticTorus`` or a ``PointCloudManifold``.  ``policy`` says what a
    flagged projection does: "raise" fails the batch, "skip" drops the
    sample from the loss.
    """

    kind: str = dm.setting(dm.LATENT_KIND)
    dim: int = dm.setting(dm.COUNT)  # embedding dimension seen by encoder/decoder
    manifold: mf.AnalyticTorus | mf.PointCloudManifold | None
    policy: str = dm.setting(dm.POLICY)
    klein: mf.KleinConfig | None = None  # the Klein radii, written to checkpoints

    __post_init__ = dm.check_fields

    @property
    def label(self) -> str:
        """Table label: ``R<dim>``, or ``<m>-manifold`` for a manifold latent."""
        return f"R{self.dim}" if self.manifold is None else f"{self.manifold.m}-manifold"

    def project_batch(self, w: np.ndarray, B: int):
        """(z, J, valid) for codes w stacked B rows per path (input X, target
        Y): the projected codes, the per-row Jacobians of the projection
        (None for a euclidean latent, whose z is w) and a per-sample mask, a
        sample being valid if all its rows are.  Under "raise" a flagged row
        fails, naming its sample and path."""
        if self.manifold is None:
            return w, None, np.ones(B, dtype=bool)
        z, J, valid = mf.manifold_encode_layer(w, self.manifold)
        if self.policy == "raise" and not valid.all():
            bad = [f"{i % B} ({('input X', 'target Y')[i // B]})" for i in np.flatnonzero(~valid)]
            raise mf.ProjectionError(f"projection flagged for batch samples {', '.join(bad)}")
        return z, J, valid.reshape(-1, B).all(axis=0) if B else valid


def make_latent(kind: str, policy: str = "raise", dim: int = 2,
                klein: mf.KleinConfig | None = None, cloud=None) -> LatentSpec:
    """The latent of ``kind``: R^dim (euclidean), the unit torus in R^4, the
    Klein bottle in R^4 with the radii of ``klein`` (analytic charts; no
    cloud is built), or the quadratic-chart cloud ``cloud`` (pointcloud);
    ``LatentSpec`` refuses any other kind."""
    if kind == "torus":
        return LatentSpec(kind, 4, mf.AnalyticTorus(), policy)
    if kind == "klein":
        surface = mf.KleinSurface(klein.a, klein.b)
        return LatentSpec(kind, 4, mf.PointCloudManifold(2, 4, None, "analytic", surface), policy,
                          klein)
    if kind == "pointcloud":
        if cloud.chart_kind != "quadratic":
            raise ValueError("a pointcloud latent needs a cloud with quadratic charts")
        return LatentSpec(kind, cloud.n, cloud, policy)
    return LatentSpec(kind, dim, None, policy)


@dataclass
class TrainConfig:
    beta: float = dm.setting(dm.NONNEGATIVE, 1.0)
    gamma: float = dm.setting(dm.NONNEGATIVE, 0.5)
    lr: float = dm.setting(dm.POSITIVE, 1e-3)
    batch_size: int = dm.setting(dm.COUNT, 32)
    epochs: int = dm.setting(dm.NATURAL, 1000)
    seed: int = dm.setting(dm.NATURAL, 0)
    eval_every: int = dm.setting(dm.NATURAL, 0)  # 0: never; else epochs between eval_fn calls

    __post_init__ = dm.check_fields


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
    """Sizes, latent, parameters and settings; construction checks each
    setting's domain, the leaky slope's only under leaky_relu, which reads it."""

    encoder_sizes: list
    decoder_sizes: list
    latent: LatentSpec
    params: dict
    activation: str = dm.setting(dm.ACTIVATION, "relu")
    leaky_slope: float = dm.setting(dm.SLOPE, 1e-6)
    tau: float = dm.setting(dm.POSITIVE, 0.25)
    sigma_e: float = dm.setting(dm.POSITIVE, 4e-3)
    sigma_d: float = dm.setting(dm.POSITIVE, 4e-3)
    sigma_0: float = dm.setting(dm.POSITIVE, 1.0)
    flow: str = dm.setting(dm.FLOW, "exp-decay")

    def __post_init__(self):
        dm.check_fields(self, () if self.activation == "leaky_relu" else ("leaky_slope",))

    @property
    def input_dim(self) -> int:
        return self.encoder_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.decoder_sizes[-1]

    @property
    def latent_dim(self) -> int:
        return self.encoder_sizes[-1]


# VaeModel's settings, its fields with a default: build_vae takes them, a checkpoint stores them
_SETTINGS = tuple(f.name for f in dataclasses.fields(VaeModel)
                  if f.default is not dataclasses.MISSING)


def _mlp_params(rng: np.random.Generator, prefix: str, sizes) -> dict:
    params = {}
    for i, (fi, fo) in enumerate(zip(sizes[:-1], sizes[1:])):
        params[f"{prefix}W{i}"] = ad.glorot_init(rng, fi, fo)
        params[f"{prefix}b{i}"] = np.zeros(fo)
    return params


def build_vae(input_dim: int, latent: LatentSpec, hidden=(400, 400), output_dim: int | None = None,
              lambda0_init: float = 0.5, seed: int = 0, **settings) -> VaeModel:
    """Assemble a model; ``hidden=()`` gives the single-affine linear variant.
    ``settings`` are ``VaeModel``'s own, its defaults filling the rest."""
    output_dim = input_dim if output_dim is None else output_dim
    encoder_sizes = [input_dim, *hidden, latent.dim]
    decoder_sizes = [latent.dim, *hidden, output_dim]
    rng = np.random.default_rng(seed)
    params = _mlp_params(rng, "enc_", encoder_sizes)
    params.update(_mlp_params(rng, "dec_", decoder_sizes))
    model = VaeModel(encoder_sizes, decoder_sizes, latent, params, **settings)
    if model.flow == "exp-decay":
        params["lambda0"] = np.array(lambda0_init)
    return model


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
        pre = h @ model.params[f"{prefix}W{i}"]
        pre += model.params[f"{prefix}b{i}"]
        if cache is not None and not np.all(np.isfinite(pre)):
            raise ad.NonFiniteError(f"non-finite pre-activation in layer {prefix}{i}")
        slope = None
        if i < n_layers - 1:
            if model.activation == "relu":
                slope = None if cache is None else pre > 0  # only backward reads it
                np.maximum(pre, 0.0, out=pre)
            else:
                slope = np.where(pre > 0, 1.0, model.leaky_slope)
                pre *= slope
        if cache is not None:
            cache.append((h, slope))
        h = pre
    return h


def _mlp_tape(model: VaeModel, prefix: str, sizes, x: "ad.Tensor") -> "ad.Tensor":
    """One MLP pass as one tape node over its input and every layer's W and
    b, read from ``model.params``; backward writes their gradients in place."""
    cache = []
    out = mlp_forward(model, prefix, sizes, x.data, cache)
    names = [f"{prefix}{kind}{i}" for i in range(len(sizes) - 1) for kind in "Wb"]
    params = {n: model.params[n] for n in names}
    weights = [params[n] for n in names[::2]]
    input_grad = x.slot is not None

    def backward(g, *dests):
        for i in reversed(range(len(weights))):
            h, slope = cache[i]
            if slope is not None:
                g = g * slope
            np.sum(g, axis=0, out=dests[2 * i + 1])
            np.matmul(h.T, g, out=dests[2 * i])
            g = g @ weights[i].T if i > 0 or input_grad else None
        return (g,)

    return x.tape.record("mlp", out, (x,), backward, params)


def _latent_tape(model: VaeModel, a: "ad.Tensor", noise: np.ndarray, B: int):
    """(z', valid): the latent layer as one node over the encoder means a and,
    with the exp-decay flow, lambda0.  Forward: w = a + noise, z = the
    projection of w (``LatentSpec.project_batch``), and z' = exp(-lambda0
    tau) z on the first B rows (the input path), the other rows unchanged.
    Backward runs the three adjoints in reverse: lambda0's gradient and the
    flow's row scale, then J^T on a manifold latent."""
    w = a.data + noise
    if not np.all(np.isfinite(w)):
        raise ad.NonFiniteError("non-finite noisy latent code")
    z, jac, valid = model.latent.project_batch(w, B)
    factor, tau = flow_factor(model), model.tau
    rows = np.where(np.arange(len(z)) < B, factor, 1.0)[:, None]  # ones under the identity flow
    params = {} if model.flow == "identity" else {"lambda0": model.params["lambda0"]}

    def backward(g, *lam_grad):
        for dest in lam_grad:
            dest[...] = (np.sum(g[:B] * z[:B]) * factor) * -tau
        g = g * rows
        return (g if jac is None else np.einsum("bpn,bp->bn", jac, g),)

    return a.tape.record("latent", z * rows, (a,), backward, params), valid


def encode(model: VaeModel, X: np.ndarray) -> np.ndarray:
    """Mean encoding z: the encoder mean, projected onto a manifold latent."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    a = mlp_forward(model, "enc_", model.encoder_sizes, X)
    return model.latent.project_batch(a, len(a))[0]


def decode(model: VaeModel, z: np.ndarray) -> np.ndarray:
    """Decoder mean b(z); output noise is never added to predictions."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    return mlp_forward(model, "dec_", model.decoder_sizes, z)


def flow_factor(model: VaeModel) -> float:
    if model.flow == "identity":
        return 1.0
    return float(np.exp(-model.params["lambda0"] * model.tau))


def latent_rollout(model: VaeModel, X: np.ndarray, n_steps: int) -> np.ndarray:
    """Mean encodings of the rows of X (B, n) after k = 0..n_steps flow steps,
    each step one multiplication by ``flow_factor``: (n_steps + 1, B, d)."""
    if n_steps < 0 or int(n_steps) != n_steps:
        raise ValueError("n_steps must be a nonnegative integer")
    steps, factor = [encode(model, X)], flow_factor(model)
    for _ in range(int(n_steps)):
        steps.append(steps[-1] * factor)
    return np.stack(steps)


def predict_multistep(model: VaeModel, X: np.ndarray, n_steps: int) -> np.ndarray:
    """Decode the latent rollout of the rows of X (B, n), one horizon's B
    rows at a time, so the decoder's temporaries are B rows deep whatever
    n_steps is.

    Returns (n_steps + 1, B, n_out): entry k is the prediction at t + k*tau,
    entry 0 the plain reconstruction.
    """
    z = latent_rollout(model, X, n_steps)
    out = np.empty(z.shape[:2] + (model.output_dim,))
    for k, z_k in enumerate(z):
        out[k] = decode(model, z_k)
    return out


# ---------------------------------------------------------------------------
# loss graph


def loss(model: VaeModel, X: np.ndarray, Y: np.ndarray, config: TrainConfig,
         rng: np.random.Generator):
    """Build the loss graph for one batch; returns (objective, tape, breakdown)
    as ``_objective_tape`` does.  The tape has four nodes: the encoder, the
    latent layer (``_latent_tape``), the decoder and the objective.  With RR
    on (gamma > 0) each MLP runs once over the stacked rows [X; Y] and the
    flow scales the X rows only.  Under "skip" flagged samples get zero
    weight w, the mean renormalized over surviving samples.  The MLP and
    latent nodes read ``model.params`` unchecked, and the tape's
    ``backward`` has them write the parameter gradients into the arrays it
    is handed.  Checked per call: the data rows, the noisy codes, every
    pre-activation and node output, and the loss; backward checks the
    adjoints passed between nodes."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"expected matching batches, got {X.shape} and {Y.shape}")
    B, d_lat, sig_e = X.shape[0], model.latent_dim, model.sigma_e
    paths = 2 if config.gamma > 0 else 1  # the RR path encodes the target

    tape = ad.Tape()
    rows = np.concatenate([X, Y][:paths])
    noise = sig_e * rng.standard_normal((paths * B, d_lat))
    a = _mlp_tape(model, "enc_", model.encoder_sizes, tape.constant(rows))
    z, valid = _latent_tape(model, a, noise, B)
    x_hat = _mlp_tape(model, "dec_", model.decoder_sizes, z)
    return _objective_tape(model, x_hat, a, Y, valid, config)


def _objective_tape(model: VaeModel, x_hat, a, Y, valid: np.ndarray, config: TrainConfig):
    """(objective, tape, breakdown): the minimized -(RE + KL + RR) as one node
    on the tape of the decoder output ``x_hat`` and the encoder means ``a``,
    both B rows per path (X, then Y with RR on); w = ``valid`` / its count.
    The residual d = x_hat - [Y; Y] is formed once: RE and RR come from each
    path's per-row sums of d*d, KL from a with row weights [w; 0].  Backward
    returns 2(-c_d)[w; gamma w] d for x_hat and 2(c_0 beta)[w; 0] a for a."""
    B, paths, n_valid = len(valid), len(x_hat.data) // len(valid), int(valid.sum())
    if n_valid == 0:
        raise mf.ProjectionError("every sample in the batch was flagged by the projection")
    row_w = valid / n_valid
    sig_e, sig_d, sig_0 = model.sigma_e, model.sigma_d, model.sigma_0
    c_d, c_0 = -1.0 / (2 * sig_d**2), 1.0 / (2 * sig_0**2)
    d, a_data = x_hat.data - np.concatenate([Y] * paths), a.data
    w_data = np.concatenate([row_w, config.gamma * row_w][:paths])[:, None]
    w_kl = np.concatenate([row_w, np.zeros(B)][:paths])[:, None]
    # Gaussian log-likelihoods under N(pred, sigma_d^2 I), one per path
    const = -0.5 * model.output_dim * np.log(2 * np.pi * sig_d**2)
    loglik = ((d * d).sum(axis=1).reshape(paths, B) @ row_w) * c_d + const
    kl_const = model.latent_dim * (np.log(sig_0 / sig_e) + sig_e**2 / (2 * sig_0**2) - 0.5)
    kl = (float((a_data * a_data * w_kl).sum()) * c_0 + kl_const) * -config.beta
    re, rr = float(loglik[0]), (float(loglik[1]) * config.gamma if paths == 2 else 0.0)
    breakdown = LossBreakdown(re + kl + rr, re, kl, rr)
    if not np.isfinite(breakdown.total):
        raise ad.NonFiniteError(f"non-finite loss: RE={re} KL={kl} RR={rr}")

    def backward(g):
        return ((2.0 * ((g * -c_d) * w_data)) * d,
                (2.0 * ((g * (c_0 * config.beta)) * w_kl)) * a_data)

    objective = x_hat.tape.record("objective", -breakdown.total, (x_hat, a), backward)
    return objective, x_hat.tape, breakdown


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

    The parameters are first packed into one flat float64 vector:
    ``model.params`` keeps its keys and shapes, and its values become views
    into that vector, whose finiteness is checked once, naming the first bad
    parameter.  Each step's backward writes every parameter gradient into
    its view of a second flat vector; ``adam_step`` checks that vector (the
    one gradient check per step: a dot product, then a search naming the
    parameter only when it is not finite) and updates the first in place.
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
    rng = np.random.default_rng(config.seed)
    theta = np.concatenate([np.ravel(v) for v in model.params.values()], dtype=np.float64)
    model.params.update(ad.flat_views(theta, model.params))
    grad = np.full_like(theta, np.nan)  # every step overwrites it all; Adam names a gap
    grads, state = ad.flat_views(grad, model.params), ad.AdamState(model.params)
    state.require_finite(theta, "value")
    history: list[EpochStats] = []
    n = X.shape[0]
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sums = np.zeros(4)
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            objective, tape, breakdown = loss(model, X[idx], Y[idx], config, rng)
            if objective.data > 1e6:  # loss raises on a non-finite one
                raise TrainingDiverged(f"training diverged at epoch {epoch}: loss "
                                       f"{objective.data:.3e}", history)
            tape.backward(objective, into=grads)
            ad.adam_step(theta, grad, state, lr=config.lr)
            sums += (breakdown.total, breakdown.reconstruction, breakdown.kl,
                     breakdown.regularization)
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


# the shapes of checkpoint header fields that are no model setting
_SIZES = dm.Domain(list, "a list of at least two layer sizes",
                   lambda v: len(v) >= 2 and all(map(dm.COUNT.holds, v)))
_PARAMS = dm.Domain(list, "a list of [name, shape] pairs, each shape a list of sizes",
                    lambda v: all(isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
                                  and isinstance(p[1], list) and all(map(dm.COUNT.holds, p[1]))
                                  for p in v))
_CLOUD_SHAPE = dm.Domain(list, "[m, points, k_neighbors], each at least 1",
                         lambda v: len(v) == 3 and all(map(dm.COUNT.holds, v)))


# Every field of a checkpoint's JSON header in the order written: its key,
# its value for a model, and its domain, a model setting's the one its field
# declares.  "klein" and "pointcloud" are written for a latent of that kind alone.
_HEADER = (
    ("encoder_sizes", attrgetter("encoder_sizes"), _SIZES),
    ("decoder_sizes", attrgetter("decoder_sizes"), _SIZES),
    ("activation", attrgetter("activation"), dm.ACTIVATION),
    ("leaky_slope", attrgetter("leaky_slope"), dm.SLOPE),
    ("latent_kind", attrgetter("latent.kind"), dm.LATENT_KIND),
    ("latent_dim", attrgetter("latent.dim"), dm.COUNT),
    ("latent_policy", attrgetter("latent.policy"), dm.POLICY),
    ("tau", attrgetter("tau"), dm.POSITIVE),
    ("sigma_e", attrgetter("sigma_e"), dm.POSITIVE),
    ("sigma_d", attrgetter("sigma_d"), dm.POSITIVE),
    ("sigma_0", attrgetter("sigma_0"), dm.POSITIVE),
    ("flow", attrgetter("flow"), dm.FLOW),
    ("params", lambda m: [[n, list(m.params[n].shape)] for n in sorted(m.params)], _PARAMS),
    ("klein", lambda m: [*attrgetter("a", "b", "resolution")(m.latent.klein)],
     dm.Record(mf.KleinConfig)),
    ("pointcloud", lambda m: [*attrgetter("m", "num_points", "k_neighbors")(m.latent.manifold)],
     _CLOUD_SHAPE),
)
_OF_ONE_KIND = ("klein", "pointcloud")


def save_checkpoint(model: VaeModel, path):
    """Versioned binary: header (architecture, latent kind, scalars) + weights.

    A pointcloud latent's points follow the weights, with [m, point count,
    ``k_neighbors``] in the header field ``pointcloud``, which no other latent
    writes.  A plain-text sidecar `<path>.meta.txt` summarizes the model.
    """
    path = Path(path)
    header = {key: write(model) for key, write, _ in _HEADER
              if key not in _OF_ONE_KIND or key == model.latent.kind}
    arrays = [model.params[name] for name, _ in header["params"]]
    if "pointcloud" in header:
        arrays.append(model.latent.manifold.points)
    blob = json.dumps(header).encode()
    datafiles.write_values(path, _CKPT_MAGIC, struct.pack("<II", _CKPT_VERSION, len(blob)) + blob,
                           arrays)
    lines = [f"{k}: {v}" for k, v in header.items() if k != "params"]
    lines.append(f"parameters: {sum(p.size for p in model.params.values())}")
    path.with_name(path.name + ".meta.txt").write_text("\n".join(lines) + "\n")


def _read_header(read):
    """(fields, value count): a checkpoint's header fields, read through
    ``read`` and parsed by ``_HEADER``; "params" lists each (name, shape) in
    file order, a pointcloud latent's points last."""
    version, blob_len = struct.unpack("<II", read(8))
    if version != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    blob = read(blob_len)
    try:
        header = json.loads(blob.decode())
    except ValueError as exc:
        raise ValueError(f"corrupt checkpoint header ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError("corrupt checkpoint header (not a JSON object)")
    if header.get("learn_sigmas", False):
        raise ValueError("learnable noise scales are no longer supported")
    fields = {}
    for key, _, domain in _HEADER:
        if key in _OF_ONE_KIND and key != fields["latent_kind"]:
            continue
        if key not in header:
            if key == "pointcloud":  # an older file: the cloud is in a sidecar
                continue
            raise ValueError(f"checkpoint header has no '{key}' field")
        fields[key] = domain.json(f"checkpoint header field '{key}'", header[key])
    if "pointcloud" in fields:
        fields["params"].append(("pointcloud", (fields["pointcloud"][1], fields["latent_dim"])))
    return fields, sum(math.prod(shape) for _, shape in fields["params"])


def _bad_parameter(fields, index: int) -> str:
    ends = itertools.accumulate(math.prod(shape) for _, shape in fields["params"])
    name = next(name for (name, _), end in zip(fields["params"], ends) if index < end)
    return f"parameter '{name}' has non-finite values"


def load_checkpoint(path) -> VaeModel:
    """Read a checkpoint; its size must match its header, its weights be
    finite, every header field be present with the type ``save_checkpoint``
    writes, and its latent's dimension be the encoder's output and the
    decoder's input width.  Each header setting is checked against the same
    domain as its config key (``_HEADER``), leaky_slope's whatever the
    activation; a value outside it names the field and the file.  A Klein
    latent is rebuilt from its radii, a > b checked; no cloud is built.  A
    pointcloud latent's points are read and checked as a parameter, and its
    charts fitted again; older files keep them in a `<path>.manifold` sidecar.

    The file is read once: the weights land in one array, and each parameter
    is a view of it."""
    path = Path(path)
    fields, weights = datafiles.read_values(path, _CKPT_MAGIC, "model checkpoint", _read_header,
                                            _bad_parameter)
    shapes = fields["params"]
    parts = np.split(weights, np.cumsum([math.prod(shape) for _, shape in shapes])[:-1])
    params = {name: part.reshape(shape) for (name, shape), part in zip(shapes, parts)}
    kind, dim, cloud = fields["latent_kind"], fields["latent_dim"], fields.get("pointcloud")
    try:
        if cloud:
            try:
                cloud = mf.PointCloudManifold(cloud[0], dim, params.pop("pointcloud"),
                                              "quadratic", k_neighbors=cloud[2])
            except ValueError as exc:
                raise ValueError(f"checkpoint header field 'pointcloud': {exc}") from None
        elif kind == "pointcloud":  # written before checkpoints carried their cloud
            cloud = mf.load_pointcloud(path.with_name(path.name + ".manifold"))
        latent = make_latent(kind, fields["latent_policy"], dim, fields.get("klein"), cloud)
        sizes = [fields["encoder_sizes"], fields["decoder_sizes"]]
        for key, prefix, layers in zip(("encoder_sizes", "decoder_sizes"), ("enc_", "dec_"), sizes):
            if {n: p.shape for n, p in params.items() if n.startswith(prefix)} != {
                    f"{prefix}{kind}{i}": shape for i, (fi, fo) in enumerate(zip(layers, layers[1:]))
                    for kind, shape in (("W", (fi, fo)), ("b", (fo,)))}:
                raise ValueError(f"checkpoint header field '{key}' {layers} does not match the "
                                 f"shapes of the '{prefix}' parameters")
        if not latent.dim == sizes[0][-1] == sizes[1][0]:
            raise ValueError(f"checkpoint header field 'latent_kind' {kind!r} gives a latent of "
                             f"dimension {latent.dim}, but the encoder's output width is "
                             f"{sizes[0][-1]} and the decoder's input width {sizes[1][0]}")
        return VaeModel(*sizes, latent, params, **{key: fields[key] for key in _SETTINGS})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
