"""Experiment drivers: dataset generation, training, evaluation, sweeps.

Everything here is deterministic under the configured seed: sweep cells own
derived seeds and output subdirectories, per-cell failures are recorded in
the table without aborting the run, and any cell can be recomputed in
isolation from its checkpoint plus the resolved config written next to it.
"""

from __future__ import annotations

import configparser
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines as lb
from . import burgers as bg
from . import datafiles
from . import manifold as mf
from . import mechanics as mech
from . import vae

ENV_OUTPUT_ROOT = "MVROM_OUTPUT_ROOT"


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


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


@dataclass
class ErrorTable:
    """Rows keyed by (method, dim, sweep); columns by horizon or epoch."""

    columns: list
    rows: dict = field(default_factory=dict)

    def add(self, method: str, dim, sweep: str, column: str, value: float):
        if column not in self.columns:
            raise KeyError(f"unknown column '{column}'")
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"error entries must be finite and nonnegative, got {value}")
        self.rows.setdefault((method, str(dim), sweep), {})[column] = value

    def mark_failed(self, method: str, dim, sweep: str, column: str | None = None):
        row = self.rows.setdefault((method, str(dim), sweep), {})
        for col in [column] if column else self.columns:
            row[col] = FAILED

    def cell(self, method: str, dim, sweep: str, column: str):
        return self.rows[(method, str(dim), sweep)][column]

    @property
    def num_failed(self) -> int:
        return sum(1 for row in self.rows.values() for v in row.values() if v == FAILED)

    def complete(self) -> bool:
        return all(
            col in row for row in self.rows.values() for col in self.columns
        )

    def write_csv(self, path):
        rows = []
        for (method, dim, sweep) in sorted(self.rows):
            entry = {"method": method, "dim": dim, "sweep": sweep}
            stored = self.rows[(method, dim, sweep)]
            for col in self.columns:
                entry[col] = stored.get(col, FAILED)
            rows.append(entry)
        datafiles.write_table_csv(path, rows, ["method", "dim", "sweep", *self.columns])


def read_table_csv(path) -> ErrorTable:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    columns = header[3:]
    table = ErrorTable(columns)
    for line in lines[1:]:
        parts = line.split(",")
        key = (parts[0], parts[1], parts[2])
        row = {}
        for col, raw in zip(columns, parts[3:]):
            row[col] = FAILED if raw == FAILED else float(raw)
        table.rows[key] = row
    return table


# ---------------------------------------------------------------------------
# configuration files (INI sections, flat string values, CLI overrides)


DEFAULTS = {
    "experiment": {"kind": "burgers-vae", "seed": "0", "workers": "1"},
    "dataset": {
        "n_x": "100",
        "nu": "0.02",
        "tau": "0.25",
        "m_train": "512",
        "m_test": "128",
        "alpha_min": "0.0",
        "alpha_max": "1.0",
        "t_min": "0.0",
        "t_max": "0.75",
        "test_t_min": "0.0",
        "test_t_max": "0.0",
        "file": "",
        "kind": "arm-torus",
        "m": "2000",
        "sigma": "0.0",
        "train_fraction": "0.8",
    },
    "model": {
        "variant": "nonlinear",
        "latent": "euclidean",
        "latent_dim": "2",
        "hidden": "400,400",
        "activation": "relu",
        "leaky_slope": "1e-6",
        "sigma_e": "4e-3",
        "sigma_d": "4e-3",
        "sigma_0": "1.0",
        "flow": "exp-decay",
        "lambda0_init": "0.5",
        "projection_policy": "skip",
        "klein_a": "2.0",
        "klein_b": "1.0",
        "klein_resolution": "256",
        "pointcloud_file": "",
    },
    "train": {
        "beta": "1.0",
        "gamma": "0.5",
        "lr": "1e-3",
        "batch_size": "32",
        "epochs": "3000",
        "eval_every": "0",
    },
    "sweep": {
        "beta": "",
        "gamma": "",
        "sigma": "",
        "latent": "",
        "dmd_ranks": "3",
        "pod_ranks": "3",
        "ch_dims": "2,4,6",
        "horizons": "1,2,3,4",
        "eval_epochs": "",
    },
}


@dataclass
class ExperimentConfig:
    sections: dict

    @classmethod
    def from_file(cls, path=None, overrides=()) -> "ExperimentConfig":
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
        return cls(sections)

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def get_int(self, section: str, key: str) -> int:
        try:
            return int(self.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be an integer") from exc

    def get_float(self, section: str, key: str) -> float:
        try:
            return float(self.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be a number") from exc

    def get_list(self, section: str, key: str, conv=float) -> list:
        raw = self.get(section, key).strip()
        if not raw:
            return []
        return [conv(part.strip()) for part in raw.split(",") if part.strip()]

    def write(self, path):
        parser = configparser.ConfigParser(interpolation=None)
        for section, values in self.sections.items():
            parser[section] = values
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            parser.write(fh)


def resolve_output_dir(out) -> Path:
    out = Path(out)
    root = os.environ.get(ENV_OUTPUT_ROOT)
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# model/dataset assembly from config


def burgers_config(cfg: ExperimentConfig) -> bg.BurgersConfig:
    return bg.BurgersConfig(
        nu=cfg.get_float("dataset", "nu"),
        tau=cfg.get_float("dataset", "tau"),
        n_x=cfg.get_int("dataset", "n_x"),
    )


def klein_config(cfg: ExperimentConfig) -> mf.KleinConfig:
    return mf.KleinConfig(
        cfg.get_float("model", "klein_a"),
        cfg.get_float("model", "klein_b"),
        cfg.get_int("model", "klein_resolution"),
    )


def make_latent(cfg: ExperimentConfig, latent_kind: str | None = None) -> vae.LatentSpec:
    kind = latent_kind or cfg.get("model", "latent")
    policy = cfg.get("model", "projection_policy")
    if kind == "euclidean":
        return vae.euclidean_latent(cfg.get_int("model", "latent_dim"))
    if kind.startswith("r") and kind[1:].isdigit():  # r2 / r4 / r10 sweep shorthand
        return vae.euclidean_latent(int(kind[1:]))
    if kind == "torus":
        return vae.torus_latent(policy)
    if kind == "klein":
        return vae.klein_latent(klein_config(cfg), policy)
    if kind == "pointcloud":
        path = cfg.get("model", "pointcloud_file")
        if not path:
            raise ConfigError("model.pointcloud_file required for pointcloud latent")
        return vae.pointcloud_latent(mf.load_pointcloud(path), policy)
    raise ConfigError(f"unknown latent kind '{kind}'")


def build_model_from_config(
    cfg: ExperimentConfig,
    input_dim: int,
    latent_kind: str | None = None,
    flow: str | None = None,
    seed: int = 0,
) -> vae.VaeModel:
    variant = cfg.get("model", "variant")
    if variant == "linear":
        hidden = ()
    elif variant == "nonlinear":
        hidden = tuple(cfg.get_list("model", "hidden", int))
    else:
        raise ConfigError(f"unknown model variant '{variant}'")
    return vae.build_vae(
        input_dim,
        make_latent(cfg, latent_kind),
        hidden=hidden,
        activation=cfg.get("model", "activation"),
        leaky_slope=cfg.get_float("model", "leaky_slope"),
        tau=cfg.get_float("dataset", "tau"),
        sigma_e=cfg.get_float("model", "sigma_e"),
        sigma_d=cfg.get_float("model", "sigma_d"),
        sigma_0=cfg.get_float("model", "sigma_0"),
        flow=flow or cfg.get("model", "flow"),
        lambda0_init=cfg.get_float("model", "lambda0_init"),
        seed=seed,
    )


def train_config_from(cfg: ExperimentConfig, seed: int, **over) -> vae.TrainConfig:
    kwargs = dict(
        beta=cfg.get_float("train", "beta"),
        gamma=cfg.get_float("train", "gamma"),
        lr=cfg.get_float("train", "lr"),
        batch_size=cfg.get_int("train", "batch_size"),
        epochs=cfg.get_int("train", "epochs"),
        eval_every=cfg.get_int("train", "eval_every"),
        seed=seed,
    )
    kwargs.update(over)
    return vae.TrainConfig(**kwargs)


def pairs_from_file(path, config: bg.BurgersConfig):
    """Rebuild dataset pairs from the binary format (blend metadata is not stored)."""
    X, Y, header = datafiles.load_pairs(path)
    if header.dim != config.n_x:
        raise ConfigError(f"dataset dim {header.dim} does not match configured n_x {config.n_x}")
    grid = bg.Grid(header.dim)
    return [
        bg.DatasetPair(
            bg.FieldSample(grid, x, 0.0),
            bg.FieldSample(grid, y, header.param2),
            float("nan"),
            float("nan"),
        )
        for x, y in zip(X, Y)
    ]


def generate_burgers_sets(cfg: ExperimentConfig, seed: int):
    config = burgers_config(cfg)
    a_range = (cfg.get_float("dataset", "alpha_min"), cfg.get_float("dataset", "alpha_max"))
    t_range = (cfg.get_float("dataset", "t_min"), cfg.get_float("dataset", "t_max"))
    test_t_range = (
        cfg.get_float("dataset", "test_t_min"),
        cfg.get_float("dataset", "test_t_max"),
    )
    data_file = cfg.get("dataset", "file")
    if data_file:
        train_pairs = pairs_from_file(data_file, config)
    else:
        train_pairs = bg.generate_burgers_dataset(
            config, cfg.get_int("dataset", "m_train"), a_range, t_range, seed
        )
    test_pairs = bg.generate_burgers_dataset(
        config, cfg.get_int("dataset", "m_test"), a_range, test_t_range, seed + 1
    )
    return config, train_pairs, test_pairs


# ---------------------------------------------------------------------------
# evaluation helpers


def burgers_truth_at_horizons(pairs, config: bg.BurgersConfig, horizons) -> dict:
    truths = {}
    for k in horizons:
        truths[k] = np.stack(
            [bg.evolve_exact(p.input, config.nu, k * config.tau).values for p in pairs]
        )
    return truths


def evaluate_burgers_model(model, pairs, config: bg.BurgersConfig, horizons) -> dict:
    """Mean L1-relative error per horizon (column '0.00s' is reconstruction)."""
    max_k = max(horizons)
    preds = np.stack([vae.predict_multistep(model, p.input.values, max_k) for p in pairs])
    truths = burgers_truth_at_horizons(pairs, config, horizons)
    out = {horizon_label(0): l1_relative_error(preds[:, 0], np.stack([p.input.values for p in pairs]))}
    for k in horizons:
        out[horizon_label(k * config.tau)] = l1_relative_error(preds[:, k], truths[k])
    return out


def horizon_label(t: float) -> str:
    return f"{t:.2f}s"


def mech_reconstruction_error(model, dataset: mech.MechDataset) -> float:
    preds = np.stack([vae.predict_multistep(model, x, 0)[0] for x in dataset.noisy])
    return l2_relative_error(preds, dataset.clean)


# ---------------------------------------------------------------------------
# latent trace export


def export_latent_trace(model: vae.VaeModel, pairs, path, n_steps: int = 4):
    """Columnar (alpha, t, step, z...) rows for plotting latent organization.

    One row per sample per rollout step; row count is len(pairs)*(n_steps+1).
    """
    if model.latent_dim > 3:
        raise ValueError(
            f"trace export limited to visualizable dims (<= 3), got {model.latent_dim}"
        )
    columns = ["alpha", "t", "step"] + [f"z{i}" for i in range(model.latent_dim)]
    rows = []
    for p in pairs:
        z = vae.encode(model, p.input.values)
        current = z[0]
        for k in range(n_steps + 1):
            if k > 0:
                current = vae.latent_step(model, current, 1)
            row = {"alpha": p.alpha, "t": p.t_start, "step": k}
            row.update({f"z{i}": float(current[i]) for i in range(model.latent_dim)})
            rows.append(row)
    datafiles.write_table_csv(path, rows, columns)
    return len(rows)


# ---------------------------------------------------------------------------
# sweep cells (top-level functions so a process pool can pickle them)


def _loss_history_rows(history):
    rows = []
    for s in history:
        rows.append(
            {
                "epoch": s.epoch,
                "total": s.loss.total,
                "reconstruction": s.loss.reconstruction,
                "kl": s.loss.kl,
                "regularization": s.loss.regularization,
                "eval_error": s.eval_error,
            }
        )
    return rows


_HISTORY_COLUMNS = ["epoch", "total", "reconstruction", "kl", "regularization", "eval_error"]


def _burgers_vae_cell(sections: dict, out: str, beta: float, gamma: float, seed: int):
    cfg = ExperimentConfig(sections)
    config, train_pairs, test_pairs = generate_burgers_sets(cfg, cfg.get_int("experiment", "seed"))
    X, Y = bg.pairs_to_arrays(train_pairs)
    model = build_model_from_config(cfg, config.n_x, seed=seed)
    tc = train_config_from(cfg, seed, beta=beta, gamma=gamma)
    model, history = vae.train(model, X, Y, tc)

    horizons = cfg.get_list("sweep", "horizons", int)
    errors = evaluate_burgers_model(model, test_pairs, config, horizons)

    cell_dir = Path(out) / f"beta={beta:g}_gamma={gamma:g}"
    cell_dir.mkdir(parents=True, exist_ok=True)
    vae.save_checkpoint(model, cell_dir / "model.ckpt")
    datafiles.write_table_csv(cell_dir / "loss_history.csv", _loss_history_rows(history), _HISTORY_COLUMNS)
    _write_prediction_curves(model, config, cell_dir / "predictions.csv", max(horizons))
    if model.latent_dim <= 3:
        export_latent_trace(model, test_pairs, cell_dir / "latent_trace.csv", max(horizons))
    return errors


def _write_prediction_curves(model, config: bg.BurgersConfig, path, n_steps: int):
    """x vs u curves (truth and prediction) for a few blend parameters."""
    rows = []
    x = bg.Grid(config.n_x).points
    for alpha in (0.0, 0.5, 1.0):
        u0 = bg.sample_u1(alpha, 0.0, config.nu, config.n_x)
        preds = vae.predict_multistep(model, u0.values, n_steps)
        for k in range(n_steps + 1):
            truth = bg.evolve_exact(u0, config.nu, k * config.tau).values if k else u0.values
            for j in range(config.n_x):
                rows.append(
                    {
                        "alpha": alpha,
                        "step": k,
                        "x": x[j],
                        "u_true": truth[j],
                        "u_pred": preds[k][j],
                    }
                )
    datafiles.write_table_csv(path, rows, ["alpha", "step", "x", "u_true", "u_pred"])


def _mech_cell(sections: dict, out: str, latent_kind: str, sigma: float, seed: int):
    cfg = ExperimentConfig(sections)
    base_seed = cfg.get_int("experiment", "seed")
    kind = cfg.get("dataset", "kind")
    m = cfg.get_int("dataset", "m")
    if kind == "arm-torus":
        clean = mech.generate_arm_torus(mech.ArmConfig(), m, base_seed)
    elif kind == "klein":
        clean = mech.generate_klein(klein_config(cfg), m, base_seed)
    else:
        raise ConfigError(f"unknown mechanics dataset kind '{kind}'")
    noisy = mech.add_noise(clean, sigma, base_seed + 7)
    train_set, test_set = mech.train_test_split(
        noisy, cfg.get_float("dataset", "train_fraction"), base_seed + 13
    )

    model = build_model_from_config(cfg, 4, latent_kind=latent_kind, flow="identity", seed=seed)
    marks = cfg.get_list("sweep", "eval_epochs", int)
    eval_every = int(np.gcd.reduce(marks)) if marks else cfg.get_int("train", "eval_every")
    tc = train_config_from(cfg, seed, eval_every=eval_every or 0)
    if marks and tc.epochs < max(marks):
        raise ConfigError("train.epochs must reach the last sweep.eval_epochs mark")

    eval_fn = lambda mdl: mech_reconstruction_error(mdl, test_set)  # noqa: E731
    model, history = vae.train(model, train_set.noisy, train_set.clean, tc, eval_fn=eval_fn)

    evals = {s.epoch + 1: s.eval_error for s in history if s.eval_error is not None}
    final = min(evals.values()) if evals else eval_fn(model)
    errors = {str(mark): evals[mark] for mark in marks if mark in evals}
    errors["final"] = final

    cell_dir = Path(out) / f"latent={latent_kind}_sigma={sigma:g}"
    cell_dir.mkdir(parents=True, exist_ok=True)
    vae.save_checkpoint(model, cell_dir / "model.ckpt")
    datafiles.write_table_csv(cell_dir / "loss_history.csv", _loss_history_rows(history), _HISTORY_COLUMNS)
    return errors


_LATENT_LABELS = {"torus": "2-manifold", "klein": "2-manifold", "pointcloud": "2-manifold"}


def _latent_row(latent_kind: str, cfg: ExperimentConfig):
    label = _LATENT_LABELS.get(latent_kind, latent_kind.upper())
    if latent_kind in ("torus", "klein", "pointcloud"):
        dim = 4
    elif latent_kind.startswith("r") and latent_kind[1:].isdigit():
        dim = int(latent_kind[1:])
    else:
        dim = cfg.get_int("model", "latent_dim")
    return f"vae-{label}", dim


# ---------------------------------------------------------------------------
# experiment drivers


def _run_cells(cells, runner, workers: int):
    """Run sweep cells serially or in a process pool; deterministic reduction."""
    results = {}
    if workers <= 1:
        for key, args in cells:
            try:
                results[key] = runner(*args)
            except Exception as exc:  # cell failures recorded, run continues
                results[key] = exc
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {key: pool.submit(runner, *args) for key, args in cells}
        for key in sorted(futures):
            try:
                results[key] = futures[key].result()
            except Exception as exc:
                results[key] = exc
    return results


def _run_grid(cfg: ExperimentConfig, out: Path, runner, outer, inner, table: ErrorTable, row):
    """Run ``runner`` on every (outer, inner) cell and reduce into ``table``.

    Cell (i, j) gets seed ``experiment.seed + 100*i + j``; ``row(a, b)``
    names its table row as (method, dim, sweep).  A cell that raised or
    returned a non-finite value is marked failed; otherwise its values are
    added.
    """
    seed = cfg.get_int("experiment", "seed")
    cells = [
        ((a, b), (cfg.sections, str(out), a, b, seed + 100 * i + j))
        for i, a in enumerate(outer)
        for j, b in enumerate(inner)
    ]
    results = _run_cells(cells, runner, cfg.get_int("experiment", "workers"))
    for (a, b), res in results.items():
        method, dim, sweep = row(a, b)
        if isinstance(res, Exception) or not all(math.isfinite(v) for v in res.values()):
            table.mark_failed(method, dim, sweep)
        else:
            for col, val in res.items():
                table.add(method, dim, sweep, col, val)
    return table


def run_burgers_vae(cfg: ExperimentConfig, out: Path) -> ErrorTable:
    config = burgers_config(cfg)
    betas = cfg.get_list("sweep", "beta") or [cfg.get_float("train", "beta")]
    gammas = cfg.get_list("sweep", "gamma") or [cfg.get_float("train", "gamma")]
    horizons = cfg.get_list("sweep", "horizons", int)
    columns = [horizon_label(0)] + [horizon_label(k * config.tau) for k in horizons]
    method = f"vae-{cfg.get('model', 'variant')}"
    dim = make_latent(cfg).dim

    def row(beta, gamma):
        return method, dim, f"beta={beta:g};gamma={gamma:g}"

    return _run_grid(cfg, out, _burgers_vae_cell, betas, gammas, ErrorTable(columns), row)


def run_burgers_baselines(cfg: ExperimentConfig, out: Path) -> ErrorTable:
    seed = cfg.get_int("experiment", "seed")
    config, train_pairs, test_pairs = generate_burgers_sets(cfg, seed)
    X, Y = bg.pairs_to_arrays(train_pairs)
    xmat, xpmat = X.T, Y.T
    horizons = cfg.get_list("sweep", "horizons", int)
    columns = [horizon_label(k * config.tau) for k in horizons]
    table = ErrorTable(columns)
    truths = burgers_truth_at_horizons(test_pairs, config, horizons)
    test_inputs = np.stack([p.input.values for p in test_pairs])

    for rank in cfg.get_list("sweep", "dmd_ranks", int):
        try:
            model = lb.fit_dmd(xmat, xpmat, rank)
            for k in horizons:
                preds = np.stack([lb.dmd_predict(model, u, k) for u in test_inputs])
                table.add("dmd", rank, "", horizon_label(k * config.tau), l1_relative_error(preds, truths[k]))
        except Exception:
            table.mark_failed("dmd", rank, "")

    for rank in cfg.get_list("sweep", "pod_ranks", int):
        try:
            model = lb.fit_pod(xmat, rank, config.nu, config.tau)
            for k in horizons:
                preds = np.stack([lb.pod_predict(model, u, k) for u in test_inputs])
                table.add("pod", rank, "", horizon_label(k * config.tau), l1_relative_error(preds, truths[k]))
        except Exception:
            table.mark_failed("pod", rank, "")

    for n_f in cfg.get_list("sweep", "ch_dims", int):
        for k in horizons:
            col = horizon_label(k * config.tau)
            try:
                preds = np.stack(
                    [
                        bg.evolve_exact(p.input, config.nu, k * config.tau, n_f=n_f, nonpositive="finite").values
                        for p in test_pairs
                    ]
                )
                finite = np.all(np.isfinite(preds), axis=1)
                if not finite.any():
                    table.mark_failed("cole-hopf", n_f, "", col)
                    continue
                table.add(
                    "cole-hopf", n_f, "", col,
                    l1_relative_error(preds[finite], truths[k][finite]),
                )
            except Exception:
                table.mark_failed("cole-hopf", n_f, "", col)
    return table


def run_mech_recon(cfg: ExperimentConfig, out: Path) -> ErrorTable:
    sigmas = cfg.get_list("sweep", "sigma") or [cfg.get_float("dataset", "sigma")]
    latents = [s for s in cfg.get("sweep", "latent").split(",") if s.strip()] or [
        cfg.get("model", "latent")
    ]
    marks = cfg.get_list("sweep", "eval_epochs", int)
    columns = [str(m) for m in marks] + ["final"]

    def row(latent_kind, sigma):
        return (*_latent_row(latent_kind, cfg), f"sigma={sigma:g}")

    return _run_grid(cfg, out, _mech_cell, latents, sigmas, ErrorTable(columns), row)


RUNNERS = {
    "burgers-vae": run_burgers_vae,
    "burgers-baselines": run_burgers_baselines,
    "mech-recon": run_mech_recon,
}


def run_experiment(cfg: ExperimentConfig, out) -> tuple[ErrorTable, int]:
    """Execute the configured experiment; returns (table, number of failed cells).

    Writes the resolved config and the error table under the output
    directory; reruns with identical config and seed rewrite identical
    artifacts.
    """
    kind = cfg.get("experiment", "kind")
    if kind not in RUNNERS:
        raise ConfigError(f"unknown experiment kind '{kind}'")
    out = resolve_output_dir(out)
    cfg.write(out / "config.ini")
    table = RUNNERS[kind](cfg, out)
    table.write_csv(out / "errors.csv")
    return table, table.num_failed
