"""Experiment drivers: dataset generation, training, evaluation, sweeps.

Everything here is deterministic under the configured seed: sweep cells own
derived seeds and output subdirectories, and any cell can be recomputed in
isolation from its checkpoint plus the resolved config written next to it.
Every row of an error table -- a sweep cell, a baseline rank or mode count,
an evaluated checkpoint -- reaches it through one rule, ``ErrorTable.record``:
an error fails the row, and a non-finite value fails only its own column,
each with a line in ``failures.csv``, and the run goes on.  The config only
names a latent; ``vae.make_latent`` builds it, and its ``label`` names its
row ``vae-<label>``.

A runner prepares once what its cells share (the data, and one LatentSpec
per latent kind: a cloud file is read and its charts fitted once) and hands
it to every cell; a setting or file it cannot prepare from is a ConfigError
before any cell runs.  A cell only trains, evaluates and writes.

Burgers data stays in (B, n) arrays from generation to the error table:
training sets are pairs (``burgers.BurgersData``) and test sets are states
(``burgers.BurgersStates``: fields, blend parameters and start times, no
targets).  Each stage -- exact truth at every horizon, a model's rollout, a
baseline's prediction -- is one batched call over all test samples, and
results come back as (horizon, B, n).  Horizon 0 is the input itself: exact
evolution by t = 0 returns a row unchanged.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import baselines as lb
from . import burgers as bg
from . import datafiles
from . import manifold as mf
from . import mechanics as mech
from . import vae
from .domains import (ACTIVATION, COUNT, FINITE, FLOW, FRACTION, GRID, KLEIN_RESOLUTION, LATENT,
                      NATURAL, NONNEGATIVE, POLICY, POSITIVE, SLOPE, TEXT, ConfigError,
                      check_range, comma_list, even_at_least, one_of, require)

ENV_OUTPUT_ROOT = "MVROM_OUTPUT_ROOT"


# ---------------------------------------------------------------------------
# error metrics


def _relative_errors(pred: np.ndarray, truth: np.ndarray, order) -> np.ndarray:
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    truth = np.atleast_2d(np.asarray(truth, dtype=np.float64))
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    norms = np.linalg.norm(truth, ord=order, axis=1)
    if np.any(norms == 0):
        raise ValueError("relative error undefined for zero-norm truth")
    return np.linalg.norm(pred - truth, ord=order, axis=1) / norms


def l1_relative_error(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over samples of |pred - truth|_1 / |truth|_1."""
    return float(np.mean(_relative_errors(pred, truth, 1)))


def l2_relative_error(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(_relative_errors(pred, truth, 2)))


# ---------------------------------------------------------------------------
# error table


FAILED = "failed"
_KEY = ["method", "dim", "sweep"]


@dataclass
class ErrorTable:
    """Rows keyed by (method, dim, sweep); columns by horizon or epoch;
    ``failures`` has the (method, dim, sweep, error) of each failed mark.
    ``record`` is how a row's outcome becomes cells."""

    columns: list
    rows: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def add(self, method: str, dim, sweep: str, column: str, value: float):
        if column not in self.columns:
            raise KeyError(f"unknown column '{column}'")
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"error entries must be finite and nonnegative, got {value}")
        self.rows.setdefault((method, str(dim), sweep), {})[column] = value

    def mark_failed(self, method: str, dim, sweep: str, error: str, column: str | None = None):
        """Mark ``column``, or the whole row, failed because of ``error``."""
        row = self.rows.setdefault((method, str(dim), sweep), {})
        for col in [column] if column else self.columns:
            row[col] = FAILED
        self.failures.append((method, str(dim), sweep, error))

    def record(self, method: str, dim, sweep: str, outcome):
        """The one rule from a row's outcome to its cells.  ``outcome`` is
        either the text of the error that ended the row, which fails the
        whole row with one failures entry, or a {column: value} dict, in
        which each non-finite value fails only its own column, as
        ``non-finite <column>``, and every finite value is added."""
        if isinstance(outcome, str):
            return self.mark_failed(method, dim, sweep, outcome)
        for col, value in outcome.items():
            if math.isfinite(value):
                self.add(method, dim, sweep, col, value)
            else:
                self.mark_failed(method, dim, sweep, f"non-finite {col}", col)

    def cell(self, method: str, dim, sweep: str, column: str):
        return self.rows[(method, str(dim), sweep)][column]

    @property
    def num_failed(self) -> int:
        return sum(1 for row in self.rows.values() for v in row.values() if v == FAILED)

    def write(self, out: Path):
        """``errors.csv`` under ``out``, and ``failures.csv`` when some cell
        failed; a stale ``failures.csv`` is removed."""
        rows = [dict(zip(_KEY, key)) | {c: self.rows[key].get(c, FAILED) for c in self.columns}
                for key in sorted(self.rows)]
        datafiles.write_table_csv(out / "errors.csv", rows, [*_KEY, *self.columns])
        path = out / "failures.csv"
        path.unlink(missing_ok=True)
        if self.failures:
            columns = [*_KEY, "error"]
            datafiles.write_table_csv(path, [dict(zip(columns, f)) for f in self.failures], columns)


def read_table_csv(path) -> ErrorTable:
    lines = [line.split(",") for line in Path(path).read_text().strip().splitlines()]
    table = ErrorTable(lines[0][3:])
    for parts in lines[1:]:
        table.rows[tuple(parts[:3])] = {col: FAILED if raw == FAILED else float(raw)
                                        for col, raw in zip(table.columns, parts[3:])}
    return table


# ---------------------------------------------------------------------------
# configuration files (INI sections, flat string values, CLI overrides)


# section -> key -> (default text, parser): the one declaration of every key
KEYS = {
    "experiment": {
        "kind": ("burgers-vae", one_of("burgers-vae", "burgers-baselines", "mech-recon")),
        "seed": ("0", NATURAL),
        "workers": ("1", COUNT),
    },
    "dataset": {
        "n_x": ("100", GRID),
        "nu": ("0.02", POSITIVE), "tau": ("0.25", POSITIVE),
        "m_train": ("512", COUNT), "m_test": ("128", COUNT),
        "alpha_min": ("0.0", FINITE), "alpha_max": ("1.0", FINITE),
        "t_min": ("0.0", NONNEGATIVE), "t_max": ("0.75", NONNEGATIVE),
        "test_t_min": ("0.0", NONNEGATIVE), "test_t_max": ("0.0", NONNEGATIVE),
        "file": ("", TEXT),
        "kind": ("arm-torus", one_of("arm-torus", "klein")),
        "m": ("2000", COUNT),
        "sigma": ("0.0", NONNEGATIVE),
        "train_fraction": ("0.8", FRACTION),
    },
    "model": {
        "variant": ("nonlinear", one_of("linear", "nonlinear")),
        "latent": ("euclidean", LATENT),
        "latent_dim": ("2", COUNT),
        "hidden": ("400,400", comma_list(COUNT)),
        "activation": ("relu", ACTIVATION),
        "leaky_slope": ("1e-6", SLOPE),
        "sigma_e": ("4e-3", POSITIVE), "sigma_d": ("4e-3", POSITIVE), "sigma_0": ("1.0", POSITIVE),
        "flow": ("exp-decay", FLOW),
        "lambda0_init": ("0.5", FINITE),
        "projection_policy": ("skip", POLICY),
        "klein_a": ("2.0", POSITIVE), "klein_b": ("1.0", POSITIVE),
        # sizes only manifold.build_klein_pointcloud: a Klein latent has
        # analytic charts and builds no cloud; the value is still validated
        # and written into Klein checkpoint headers
        "klein_resolution": ("256", KLEIN_RESOLUTION),
        "pointcloud_file": ("", TEXT),
    },
    "train": {
        "beta": ("1.0", NONNEGATIVE), "gamma": ("0.5", NONNEGATIVE),
        "lr": ("1e-3", POSITIVE),
        "batch_size": ("32", COUNT),
        "epochs": ("3000", NATURAL), "eval_every": ("0", NATURAL),
    },
    "sweep": {
        "beta": ("", comma_list(NONNEGATIVE, distinct=True)),
        "gamma": ("", comma_list(NONNEGATIVE, distinct=True)),
        "sigma": ("", comma_list(NONNEGATIVE, distinct=True)),
        "latent": ("", comma_list(LATENT, distinct=True)),
        "dmd_ranks": ("3", comma_list(COUNT, distinct=True)),
        "pod_ranks": ("3", comma_list(COUNT, distinct=True)),
        "ch_dims": ("2,4,6", comma_list(even_at_least(2), distinct=True)),
        "horizons": ("1,2,3,4", comma_list(COUNT, distinct=True, required=True)),
        "eval_epochs": ("", comma_list(COUNT, distinct=True)),
    },
}
DEFAULTS = {name: {key: text for key, (text, _) in keys.items()} for name, keys in KEYS.items()}


def check_rules(values: dict) -> None:
    """The cross-key rules over {'section.key': parsed value}."""
    for r in ("dataset.alpha", "dataset.t", "dataset.test_t"):
        check_range(f"{r}_min, {r}_max", [values[f"{r}_min"], values[f"{r}_max"]])
    epochs, last = values["train.epochs"], max(values["sweep.eval_epochs"], default=0)
    require(epochs >= last, "train.epochs", f"at least the last sweep.eval_epochs mark, {last}",
            epochs)
    mf.KleinConfig.check_radii(values["model.klein_a"], values["model.klein_b"], "model.klein_")
    n_x, dims = values["dataset.n_x"], values["sweep.ch_dims"]
    require(max(dims, default=0) <= n_x, "sweep.ch_dims", f"mode counts at most dataset.n_x, {n_x}",
            dims)
    # mechanics.train_test_split cuts at this rounding
    m, fraction = values["dataset.m"], values["dataset.train_fraction"]
    require(0 < int(round(m * fraction)) < m, "dataset.m", "large enough that both parts of "
            f"the dataset.train_fraction {fraction!r} split are non-empty", m)


@dataclass
class ExperimentConfig:
    """Flat string values by section and key, as a config file and its
    overrides set them; ``KEYS`` is the one reference for the keys, their
    defaults and their domains, and ``get`` parses a value as it declares."""

    sections: dict

    @classmethod
    def from_file(cls, path=None, overrides=()) -> "ExperimentConfig":
        """The defaults, then ``path``'s values, then ``overrides``
        (section.key=value) in order; once all are applied, every key is
        parsed once and the cross-key rules checked, so a bad value is a
        ConfigError naming its key before any data are drawn."""
        sections = {name: dict(values) for name, values in DEFAULTS.items()}
        if path is not None:
            parser = configparser.ConfigParser(interpolation=None)
            read = parser.read(path)
            if not read:
                raise ConfigError(f"cannot read config file {path}")
            for section in parser.sections():
                if section not in sections:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, value in parser.items(section):
                    if key not in sections[section]:
                        raise ConfigError(f"unknown config key {section}.{key}")
                    sections[section][key] = value
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value, got '{item}'")
            dotted, value = item.split("=", 1)
            section, key = dotted.split(".", 1)
            if section not in sections or key not in sections[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            sections[section][key] = value
        check_rules({f"{section}.{key}": KEYS[section][key][1](f"{section}.{key}", text)
                     for section, values in sections.items() for key, text in values.items()})
        return cls(sections)

    def get(self, section: str, key: str):
        """``section.key``, parsed as ``KEYS`` declares (each call parses)."""
        return KEYS[section][key][1](f"{section}.{key}", self.sections[section][key])

    get_int = get  # the name bench/workloads.py reads integers by

    def write(self, path):
        parser = configparser.ConfigParser(interpolation=None)
        for section, values in self.sections.items():
            parser[section] = values
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            parser.write(fh)


def make_dir(flag: str, path: Path) -> Path:
    """``path``, a directory made if missing; a ConfigError naming ``flag``
    and the path if it cannot be made (a file of that name exists, say)."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot make the directory {path} ({exc.strerror})") from None
    return path


def resolve_output_dir(out) -> Path:
    """The ``--out`` directory, under $MVROM_OUTPUT_ROOT when relative and that is set."""
    out = Path(out)
    root = os.environ.get(ENV_OUTPUT_ROOT)
    return make_dir("--out", Path(root) / out if root and not out.is_absolute() else out)


# ---------------------------------------------------------------------------
# model/dataset assembly from config


def burgers_config(cfg: ExperimentConfig) -> bg.BurgersConfig:
    """The [dataset] keys of the Burgers equation; ``from_file`` checked each."""
    return bg.BurgersConfig(*(cfg.get("dataset", key) for key in ("nu", "tau", "n_x")))


def klein_config(cfg: ExperimentConfig) -> mf.KleinConfig:
    return mf.KleinConfig(*(cfg.get("model", f"klein_{key}") for key in ("a", "b", "resolution")))


def prepare(build, *args):
    """``build(*args)`` before any work that depends on it: a missing input
    file, or a file or setting ``build`` rejects (an OSError or ValueError),
    raises a ConfigError with its message; a loader's message names the file."""
    try:
        return build(*args)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def latent_from_config(cfg: ExperimentConfig, latent_kind: str | None = None) -> vae.LatentSpec:
    """``vae.make_latent`` for ``latent_kind`` (default ``model.latent``):
    ``rN`` is the sweep shorthand for a euclidean R^N, and a pointcloud
    latent reads ``model.pointcloud_file``."""
    kind = latent_kind or cfg.get("model", "latent")
    dim = cfg.get("model", "latent_dim")
    if kind.startswith("r"):  # r2 / r4 / r10
        kind, dim = "euclidean", int(kind[1:])
    path = cfg.get("model", "pointcloud_file")
    if kind == "pointcloud" and not path:
        raise ConfigError("model.pointcloud_file required for pointcloud latent")
    klein = klein_config(cfg) if kind == "klein" else None
    cloud = prepare(mf.load_pointcloud, path) if kind == "pointcloud" else None
    return prepare(vae.make_latent, kind, cfg.get("model", "projection_policy"), dim, klein, cloud)


def build_model_from_config(
    cfg: ExperimentConfig,
    input_dim: int,
    latent_kind: str | vae.LatentSpec | None = None,
    flow: str | None = None,
    seed: int = 0,
) -> vae.VaeModel:
    """A model over the latent ``latent_kind`` names (default ``model.latent``),
    or over the ``LatentSpec`` given, as a runner builds once for its cells."""
    latent = (latent_kind if isinstance(latent_kind, vae.LatentSpec)
              else latent_from_config(cfg, latent_kind))
    hidden = () if cfg.get("model", "variant") == "linear" else tuple(cfg.get("model", "hidden"))
    keys = ("activation", "leaky_slope", "sigma_e", "sigma_d", "sigma_0", "lambda0_init")
    return vae.build_vae(input_dim, latent, hidden=hidden, tau=cfg.get("dataset", "tau"),
                         flow=flow or cfg.get("model", "flow"), seed=seed,
                         **{key: cfg.get("model", key) for key in keys})


def train_config_from(cfg: ExperimentConfig, seed: int, **over) -> vae.TrainConfig:
    """The [train] keys and ``seed``, each key of ``over`` replacing one."""
    return vae.TrainConfig(**{**{key: cfg.get("train", key) for key in KEYS["train"]},
                              "seed": seed, **over})


def _draw_burgers_set(draw, cfg: ExperimentConfig, config, size: str, times: str, seed: int):
    """``draw`` (``bg.sample_burgers_states`` or ``bg.generate_burgers_dataset``)
    of ``dataset.<size>`` rows, alpha and start times in their configured ranges."""
    ranges = [(cfg.get("dataset", f"{key}_min"), cfg.get("dataset", f"{key}_max"))
              for key in ("alpha", times)]
    return draw(config, cfg.get("dataset", size), *ranges, seed)


def burgers_test_set(cfg: ExperimentConfig, seed: int):
    """(config, test): the Burgers config and the test set, ``BurgersStates``
    drawn from seed + 1.  A test set has no targets: evaluation evolves its
    states to every horizon itself."""
    config = burgers_config(cfg)
    return config, _draw_burgers_set(bg.sample_burgers_states, cfg, config, "m_test", "test_t",
                                     seed + 1)


def generate_burgers_sets(cfg: ExperimentConfig, seed: int):
    """(config, train, test): the training pairs (``BurgersData``) and
    ``burgers_test_set``; a runner calls it once through ``prepare``.  Training
    pairs come from ``dataset.file`` when set (made with the configured n_x,
    nu and tau; blend parameters and start times unstored: NaN), else from seed."""
    config, test = burgers_test_set(cfg, seed)
    path = cfg.get("dataset", "file")
    if not path:
        train = _draw_burgers_set(bg.generate_burgers_dataset, cfg, config, "m_train", "t", seed)
        return config, train, test
    X, Y, header = datafiles.load_pairs(path)
    made, want = (header.param1, header.param2, header.dim), astuple(config)
    if made != want:
        raise ConfigError(f"{path}: made with (nu, tau, n_x) = {made}, but [dataset] sets {want}")
    unknown = np.full(header.count, np.nan)
    return config, bg.BurgersData(X, Y, unknown, unknown), test


# ---------------------------------------------------------------------------
# evaluation helpers


def burgers_truth_at_horizons(X, config: bg.BurgersConfig, horizons) -> np.ndarray:
    """Exact fields (H, B, n): entry i is every row of X evolved by horizons[i] * tau."""
    times = np.asarray(horizons, dtype=np.float64)[:, None] * config.tau
    return bg.evolve_exact(X, config.nu, times)


def evaluate_burgers_model(model, data: bg.BurgersStates, config: bg.BurgersConfig, horizons) -> dict:
    """Mean L1-relative error per horizon (column '0.00s' is reconstruction)."""
    preds = vae.predict_multistep(model, data.X, max(horizons))
    truths = burgers_truth_at_horizons(data.X, config, horizons)
    out = {horizon_label(0): l1_relative_error(preds[0], data.X)}
    for k, truth in zip(horizons, truths):
        out[horizon_label(k * config.tau)] = l1_relative_error(preds[k], truth)
    return out


def horizon_label(t: float) -> str:
    return f"{t:.2f}s"


def mech_reconstruction_error(model, dataset: mech.MechDataset) -> float:
    return l2_relative_error(vae.predict_multistep(model, dataset.noisy, 0)[0], dataset.clean)


# ---------------------------------------------------------------------------
# latent trace export


def export_latent_trace(model: vae.VaeModel, X, alpha, t, path, n_steps: int = 4):
    """Columnar (alpha, t, step, z...) rows for plotting latent organization.

    Fields X (B, n) with their blend parameters and times, each (B,), are
    encoded in one batch.  One row per sample per rollout step; row count is
    B*(n_steps+1).
    """
    if model.latent_dim > 3:
        raise ValueError(
            f"trace export limited to visualizable dims (<= 3), got {model.latent_dim}"
        )
    columns = ["alpha", "t", "step"] + [f"z{i}" for i in range(model.latent_dim)]
    Z = vae.latent_rollout(model, X, n_steps)
    rows = [
        {"alpha": a, "t": ti, "step": k, **{f"z{d}": float(v) for d, v in enumerate(Z[k, i])}}
        for i, (a, ti) in enumerate(zip(alpha, t))
        for k in range(n_steps + 1)
    ]
    datafiles.write_table_csv(path, rows, columns)
    return len(rows)


# ---------------------------------------------------------------------------
# sweep cells (top-level functions so a process pool can pickle them)


_HISTORY_COLUMNS = ["epoch", "total", "reconstruction", "kl", "regularization", "eval_error"]


def _write_cell(cell_dir: Path, model: vae.VaeModel, history):
    """A trained cell's ``model.ckpt`` and ``loss_history.csv`` under ``cell_dir``."""
    cell_dir.mkdir(parents=True, exist_ok=True)
    vae.save_checkpoint(model, cell_dir / "model.ckpt")
    rows = [{"epoch": s.epoch, **asdict(s.loss), "eval_error": s.eval_error} for s in history]
    datafiles.write_table_csv(cell_dir / "loss_history.csv", rows, _HISTORY_COLUMNS)


def _burgers_vae_cell(cfg: ExperimentConfig, out: Path, prepared, beta, gamma, seed: int):
    """``prepared`` is (config, train, test, latent)."""
    config, train, test, latent = prepared
    model = build_model_from_config(cfg, config.n_x, latent, seed=seed)
    tc = train_config_from(cfg, seed, beta=beta, gamma=gamma)
    model, history = vae.train(model, train.X, train.Y, tc)

    horizons = cfg.get("sweep", "horizons")
    errors = evaluate_burgers_model(model, test, config, horizons)

    cell_dir = out / f"beta={beta:g}_gamma={gamma:g}"
    _write_cell(cell_dir, model, history)
    _write_prediction_curves(model, config, cell_dir / "predictions.csv", max(horizons))
    if model.latent_dim <= 3:
        export_latent_trace(
            model, test.X, test.alpha, test.t, cell_dir / "latent_trace.csv", max(horizons)
        )
    return errors


def _write_prediction_curves(model, config: bg.BurgersConfig, path, n_steps: int):
    """x vs u curves (truth and prediction) for a few blend parameters."""
    alphas = (0.0, 0.5, 1.0)
    U0 = bg.sample_u1(alphas, 0.0, config.nu, config.n_x)
    preds = vae.predict_multistep(model, U0, n_steps)
    truths = burgers_truth_at_horizons(U0, config, range(n_steps + 1))
    x = bg.Grid(config.n_x).points
    rows = [
        {"alpha": alpha, "step": k, "x": x[j], "u_true": truths[k, i, j], "u_pred": preds[k, i, j]}
        for i, alpha in enumerate(alphas)
        for k in range(n_steps + 1)
        for j in range(config.n_x)
    ]
    datafiles.write_table_csv(path, rows, ["alpha", "step", "x", "u_true", "u_pred"])


def _mech_cell(cfg: ExperimentConfig, out: Path, prepared, latent_kind: str, sigma, seed: int):
    """``prepared`` is ({kind: LatentSpec}, {sigma: (train, test)})."""
    latents, splits = prepared
    train_set, test_set = splits[sigma]
    model = build_model_from_config(cfg, 4, latents[latent_kind], flow="identity", seed=seed)
    marks = cfg.get("sweep", "eval_epochs")
    eval_every = int(np.gcd.reduce(marks)) if marks else cfg.get("train", "eval_every")
    tc = train_config_from(cfg, seed, eval_every=eval_every)

    eval_fn = lambda mdl: mech_reconstruction_error(mdl, test_set)  # noqa: E731
    model, history = vae.train(model, train_set.noisy, train_set.clean, tc, eval_fn=eval_fn)

    evals = {s.epoch + 1: s.eval_error for s in history if s.eval_error is not None}
    errors = {str(mark): evals[mark] for mark in marks if mark in evals}
    # the error of the model training returns, never a minimum over marks
    last = history[-1].eval_error if history else None
    errors["final"] = last if last is not None else eval_fn(model)

    _write_cell(out / f"latent={latent_kind}_sigma={sigma:g}", model, history)
    return errors


# ---------------------------------------------------------------------------
# experiment drivers


def _cell_outcome(cell, args):
    """``cell(*args)``, or the text of the error it raised: a failure comes
    back as a value, so no exception object crosses a process boundary."""
    try:
        return cell(*args)
    except Exception as exc:  # cell failures recorded, run continues
        return f"{type(exc).__name__}: {exc}"


def _run_cells(cell, cells, workers: int) -> list:
    """The outcome of ``cell(*args)`` for each args of ``cells``, in cell
    order: run in this process, or in a pool of ``workers`` processes."""
    run = functools.partial(_cell_outcome, cell)
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        return list((pool.map if pool else map)(run, cells))


def _run_grid(cfg: ExperimentConfig, cell, outer, inner, table: ErrorTable, row):
    """Run ``cell(a, b, seed)`` on every (a, b) in outer x inner and record
    each outcome in ``table``.  ``cell`` is ``functools.partial(cell_fn, cfg,
    out, prepared)``: a cell function gets the config, the output directory
    and what its runner prepared once for all cells, then its two sweep
    values and its seed, and returns its error columns.

    Cell (i, j) gets seed ``experiment.seed + 100*i + j``; ``row(a, b)``
    names its table row as (method, dim, sweep).  Two cells that share a
    row are a ConfigError before any cell runs.  ``ErrorTable.record`` turns
    each outcome into cells: a cell that raised fails its row, and a
    non-finite value only its column.  Rows and failures come in cell order.
    """
    seed = cfg.get("experiment", "seed")
    cells = [(a, b, seed + 100 * i + j) for i, a in enumerate(outer) for j, b in enumerate(inner)]
    rows = [row(a, b) for a, b, _ in cells]
    if len(set(rows)) < len(rows):
        raise ConfigError(f"two sweep cells write table row {max(rows, key=rows.count)}")
    for key, outcome in zip(rows, _run_cells(cell, cells, cfg.get("experiment", "workers"))):
        table.record(*key, outcome)
    return table


def run_burgers_vae(cfg: ExperimentConfig, out: Path) -> ErrorTable:
    """A beta x gamma sweep; the data are read or drawn, and the latent
    built, once for all cells."""
    latent = latent_from_config(cfg)
    config, train, test = prepare(generate_burgers_sets, cfg, cfg.get("experiment", "seed"))
    betas = cfg.get("sweep", "beta") or [cfg.get("train", "beta")]
    gammas = cfg.get("sweep", "gamma") or [cfg.get("train", "gamma")]
    horizons = cfg.get("sweep", "horizons")
    columns = [horizon_label(0)] + [horizon_label(k * config.tau) for k in horizons]
    method = f"vae-{cfg.get('model', 'variant')}"

    def row(beta, gamma):
        return method, latent.dim, f"beta={beta:g};gamma={gamma:g}"

    cell = functools.partial(_burgers_vae_cell, cfg, out, (config, train, test, latent))
    return _run_grid(cfg, cell, betas, gammas, ErrorTable(columns), row)


def run_burgers_baselines(cfg: ExperimentConfig, out: Path) -> ErrorTable:
    """DMD and POD per rank and truncated Cole-Hopf per mode count.

    One SVD of the training snapshots serves every DMD and POD rank.  Each
    method's ``predict`` gives the test inputs' predictions at the horizons,
    (H, B, n); a rank or mode count is one row, recorded by
    ``ErrorTable.record`` as a sweep cell is: an error fails its row, and a
    column with any non-finite prediction (its error is not finite) fails
    only that column.
    """
    config, train, test = prepare(generate_burgers_sets, cfg, cfg.get("experiment", "seed"))
    xmat, xpmat = train.X.T, train.Y.T
    factors = functools.cache(lambda: lb.svd(xmat))  # an error reaches every rank
    horizons = cfg.get("sweep", "horizons")
    columns = [horizon_label(k * config.tau) for k in horizons]
    table = ErrorTable(columns)
    truths = burgers_truth_at_horizons(test.X, config, horizons)
    times = np.asarray(horizons, dtype=np.float64)[:, None] * config.tau
    predict = {  # method -> (sweep key, rank or mode count -> (H, B, n))
        "dmd": ("dmd_ranks", lambda rank: lb.dmd_predict(
            lb.fit_dmd(factors(), xpmat, rank), test.X, max(horizons))[horizons]),
        "pod": ("pod_ranks", lambda rank: lb.pod_predict(
            lb.fit_pod(factors(), rank, config.nu, config.tau), test.X, max(horizons))[horizons]),
        "cole-hopf": ("ch_dims", lambda n_f: bg.evolve_exact(test.X, config.nu, times, n_f=n_f)),
    }

    def errors(fn, dim):
        return {col: l1_relative_error(pred, truth)
                for col, pred, truth in zip(columns, fn(dim), truths)}

    for method, (key, fn) in predict.items():
        for dim in cfg.get("sweep", key):
            table.record(method, dim, "", _cell_outcome(errors, (fn, dim)))
    return table


def _mech_splits(cfg: ExperimentConfig, sigmas, seed: int) -> dict:
    """{sigma: (train, test)}: one clean ``dataset.kind`` set drawn from seed,
    noised per sigma from seed + 7 and split from seed + 13."""
    m = cfg.get("dataset", "m")
    if cfg.get("dataset", "kind") == "arm-torus":
        clean = mech.generate_arm_torus(mech.ArmConfig(), m, seed)
    else:
        clean = mech.generate_klein(klein_config(cfg), m, seed)
    fraction = cfg.get("dataset", "train_fraction")
    noisy = {sigma: mech.add_noise(clean, sigma, seed + 7) for sigma in sigmas}
    return {sigma: mech.train_test_split(data, fraction, seed + 13) for sigma, data in noisy.items()}


def run_mech_recon(cfg: ExperimentConfig, out: Path) -> ErrorTable:
    """A latent x sigma sweep; row ``vae-<label>``, dim, ``latent=<kind>;sigma=<sigma>``.
    One LatentSpec per kind and one noisy split per sigma serve every cell."""
    sigmas = cfg.get("sweep", "sigma") or [cfg.get("dataset", "sigma")]
    kinds = cfg.get("sweep", "latent") or [cfg.get("model", "latent")]
    marks = cfg.get("sweep", "eval_epochs")
    latents = {kind: latent_from_config(cfg, kind) for kind in kinds}
    splits = prepare(_mech_splits, cfg, sigmas, cfg.get("experiment", "seed"))

    def row(kind, sigma):
        return f"vae-{latents[kind].label}", latents[kind].dim, f"latent={kind};sigma={sigma:g}"

    cell = functools.partial(_mech_cell, cfg, out, (latents, splits))
    columns = [str(m) for m in marks] + ["final"]
    return _run_grid(cfg, cell, kinds, sigmas, ErrorTable(columns), row)


RUNNERS = {
    "burgers-vae": run_burgers_vae,
    "burgers-baselines": run_burgers_baselines,
    "mech-recon": run_mech_recon,
}


def run_experiment(cfg: ExperimentConfig, out) -> tuple[ErrorTable, int]:
    """Execute the configured experiment; returns (table, number of failed cells).

    Writes the resolved config and the error table under the output
    directory once the runner returns, so a run refused in set-up leaves
    neither; reruns with identical config and seed rewrite identical
    artifacts.
    """
    out = resolve_output_dir(out)
    table = RUNNERS[cfg.get("experiment", "kind")](cfg, out)
    cfg.write(out / "config.ini")
    table.write(out)
    return table, table.num_failed
