"""Command-line front end.

Subcommands: gen-data, train, eval, baselines, sweep, export-trace.
Exit codes: 0 success, 1 partial cell failure, 2 configuration error.
Relative output paths resolve under $MVROM_OUTPUT_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import burgers as bg
from . import datafiles
from . import experiments as ex
from . import mechanics as mech
from . import vae
from .manifold import KleinConfig


def _add_config_args(p):
    p.add_argument("--config", help="experiment config file (INI sections)")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvrom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a paired dataset file")
    g.add_argument("--kind", choices=["burgers", "arm-torus", "klein"], required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--m", type=int, default=512)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n-x", type=int, default=100)
    g.add_argument("--nu", type=float, default=0.02)
    g.add_argument("--tau", type=float, default=0.25)
    g.add_argument("--alpha-range", default="0,1")
    g.add_argument("--t-range", default="0,0.75")
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--text", help="also write a plain-text columnar export here")

    t = sub.add_parser("train", help="train one model (sweep lists are ignored)")
    _add_config_args(t)

    e = sub.add_parser("eval", help="re-evaluate a checkpoint, or roll out a custom field")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", help="experiment config used to rebuild the test set")
    e.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE"
    )
    e.add_argument("--out", required=True)
    e.add_argument("--steps", type=int, default=4)
    e.add_argument("--input-field", help="text file with one field value per line")

    b = sub.add_parser("baselines", help="run the linear/spectral baseline table")
    _add_config_args(b)

    s = sub.add_parser("sweep", help="run the configured experiment sweep")
    _add_config_args(s)
    s.add_argument("--workers", type=int, help="override experiment.workers")

    x = sub.add_parser("export-trace", help="export latent-space traces for plotting")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--out", required=True)
    x.add_argument("--alphas", default="0,0.25,0.5,0.75,1")
    x.add_argument("--t", type=float, default=0.0)
    x.add_argument("--steps", type=int, default=4)
    x.add_argument("--nu", type=float, default=0.02)
    return parser


def _parse_range(raw: str):
    parts = [float(v) for v in raw.split(",")]
    if len(parts) != 2:
        raise ex.ConfigError(f"expected 'lo,hi', got '{raw}'")
    return parts[0], parts[1]


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "burgers":
        config = bg.BurgersConfig(nu=args.nu, tau=args.tau, n_x=args.n_x)
        pairs = bg.generate_burgers_dataset(
            config, args.m, _parse_range(args.alpha_range), _parse_range(args.t_range), args.seed
        )
        X, Y = bg.pairs_to_arrays(pairs)
        datafiles.save_pairs(out, X, Y, config.nu, config.tau)
    else:
        if args.kind == "arm-torus":
            clean = mech.generate_arm_torus(mech.ArmConfig(), args.m, args.seed)
        else:
            clean = mech.generate_klein(KleinConfig(), args.m, args.seed)
        ds = mech.add_noise(clean, args.sigma, args.seed + 7)
        X, Y = ds.noisy, ds.clean
        datafiles.save_pairs(out, X, Y, args.sigma, 0.0)
    if args.text:
        datafiles.export_pairs_text(args.text, X, Y)
    print(f"wrote {args.m} pairs to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = ex.ExperimentConfig.from_file(args.config, args.overrides)
    # a single training cell: collapse sweep lists to the train-section values
    for key in ("beta", "gamma", "sigma", "latent", "eval_epochs"):
        cfg.sections["sweep"][key] = ""
    _, failed = ex.run_experiment(cfg, args.out)
    return 1 if failed else 0


def cmd_sweep(args) -> int:
    cfg = ex.ExperimentConfig.from_file(args.config, args.overrides)
    if args.workers is not None:
        cfg.sections["experiment"]["workers"] = str(args.workers)
    _, failed = ex.run_experiment(cfg, args.out)
    return 1 if failed else 0


def cmd_baselines(args) -> int:
    cfg = ex.ExperimentConfig.from_file(args.config, args.overrides)
    cfg.sections["experiment"]["kind"] = "burgers-baselines"
    _, failed = ex.run_experiment(cfg, args.out)
    return 1 if failed else 0


def cmd_eval(args) -> int:
    model = vae.load_checkpoint(args.checkpoint)
    out = ex.resolve_output_dir(args.out)
    if args.input_field:
        u0 = np.loadtxt(args.input_field)
        if u0.ndim != 1 or len(u0) != model.input_dim:
            raise ex.ConfigError(
                f"input field must have {model.input_dim} values, got shape {u0.shape}"
            )
        preds = vae.predict_multistep(model, u0, args.steps)
        rows = []
        x = np.arange(model.input_dim) / model.input_dim
        for k in range(args.steps + 1):
            for j in range(model.input_dim):
                rows.append({"step": k, "x": x[j], "u_pred": preds[k][j]})
        datafiles.write_table_csv(out / "rollout.csv", rows, ["step", "x", "u_pred"])
        print(f"wrote rollout of {args.steps} steps to {out / 'rollout.csv'}")
        return 0
    if not args.config:
        raise ex.ConfigError("eval needs --config (for the test set) or --input-field")
    cfg = ex.ExperimentConfig.from_file(args.config, args.overrides)
    config, _, test_pairs = ex.generate_burgers_sets(cfg, cfg.get_int("experiment", "seed"))
    horizons = cfg.get_list("sweep", "horizons", int)
    errors = ex.evaluate_burgers_model(model, test_pairs, config, horizons)
    table = ex.ErrorTable(list(errors))
    for col, val in errors.items():
        if np.isfinite(val):
            table.add("vae-checkpoint", model.latent_dim, "", col, val)
        else:
            table.mark_failed("vae-checkpoint", model.latent_dim, "", col)
    table.write_csv(out / "errors.csv")
    print(f"wrote errors to {out / 'errors.csv'}")
    return 1 if table.num_failed else 0


def cmd_export_trace(args) -> int:
    model = vae.load_checkpoint(args.checkpoint)
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    pairs = []
    for alpha in alphas:
        sample = bg.sample_u1(alpha, args.t, args.nu, model.input_dim)
        pairs.append(bg.DatasetPair(sample, sample, alpha, args.t))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n_rows = ex.export_latent_trace(model, pairs, out, args.steps)
    print(f"wrote {n_rows} trace rows to {out}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "baselines": cmd_baselines,
    "sweep": cmd_sweep,
    "export-trace": cmd_export_trace,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ex.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
