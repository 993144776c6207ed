"""Command-line front end.

Subcommands: gen-data, train, eval, baselines, sweep, export-trace.
Exit codes: 0 success, 1 partial cell failure or a table refused for a NaN or
Inf, 2 configuration error (any config key or flag outside its domain, named
in the message, or a setting the data or latents cannot be prepared from,
before any cell runs), an --out whose directory cannot be made (a file of
that name exists; the message names the flag and the path, and no cell
directory is left), or a missing or damaged input file (the loader's
message names the file): a checkpoint whose header holds a setting outside
its config key's domain, or a text input that does not decode.
Relative output paths resolve under $MVROM_OUTPUT_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import burgers as bg
from . import datafiles
from . import domains as dm
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


@functools.cache  # built once (about 2 ms); parse_args and the --set append leave it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvrom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a paired dataset file")
    g.add_argument("--kind", choices=["burgers", "arm-torus", "klein"], required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--m", default="512")
    g.add_argument("--seed", default="0")
    g.add_argument("--n-x", default="100")
    g.add_argument("--nu", default="0.02")
    g.add_argument("--tau", default="0.25")
    g.add_argument("--alpha-range", default="0,1")
    g.add_argument("--t-range", default="0,0.75")
    g.add_argument("--sigma", default="0.0")
    g.add_argument("--text", help="also write a plain-text columnar export here")

    t = sub.add_parser("train", help="train one model (sweep lists are ignored)")
    _add_config_args(t)

    e = sub.add_parser("eval", help="re-evaluate a checkpoint, or roll out a custom field")
    e.add_argument("--checkpoint", required=True)
    _add_config_args(e)  # the config rebuilds the test set
    e.add_argument("--steps", default="4")
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
    x.add_argument("--t", default="0.0")
    x.add_argument("--steps", default="4")
    x.add_argument("--nu", default="0.02")
    return parser


def _range(flag: str, text: str, item) -> list:
    """``text``, a range 'lo,hi' of ``item`` values; a ConfigError naming ``flag`` if not."""
    return dm.check_range(flag, dm.comma_list(item)(flag, text))


def cmd_gen_data(args) -> int:
    # every flag before any evolution, through the parser of the config key it sets there
    m, seed = dm.COUNT("--m", args.m), dm.NATURAL("--seed", args.seed)
    if args.kind == "burgers":
        config = bg.BurgersConfig(dm.POSITIVE("--nu", args.nu), dm.POSITIVE("--tau", args.tau),
                                  dm.GRID("--n-x", args.n_x))
        alpha_range = _range("--alpha-range", args.alpha_range, dm.FINITE)
        t_range = _range("--t-range", args.t_range, dm.NONNEGATIVE)
    else:
        sigma = dm.NONNEGATIVE("--sigma", args.sigma)
    out = Path(args.out)
    ex.make_dir("--out", out.parent)
    if args.kind == "burgers":
        data = bg.generate_burgers_dataset(config, m, alpha_range, t_range, seed)
        X, Y = data.X, data.Y
        datafiles.save_pairs(out, X, Y, config.nu, config.tau)
    else:
        if args.kind == "arm-torus":
            clean = mech.generate_arm_torus(mech.ArmConfig(), m, seed)
        else:
            clean = mech.generate_klein(KleinConfig(), m, seed)
        ds = mech.add_noise(clean, sigma, seed + 7)
        X, Y = ds.noisy, ds.clean
        datafiles.save_pairs(out, X, Y, sigma, 0.0)
    if args.text:
        datafiles.export_pairs_text(args.text, X, Y)
    print(f"wrote {m} pairs to {out}")
    return 0


def cmd_run(args) -> int:
    """train (sweep lists collapsed to one cell), baselines and sweep: run
    the configured experiment.  The command's own settings are the last
    overrides; the output directory exists before the config is read."""
    out = ex.resolve_output_dir(args.out)
    if args.command == "train":
        last = [f"sweep.{key}=" for key in ("beta", "gamma", "sigma", "latent", "eval_epochs")]
    elif args.command == "baselines":
        last = ["experiment.kind=burgers-baselines"]
    else:
        last = [] if args.workers is None else [f"experiment.workers={args.workers}"]
    cfg = ex.ExperimentConfig.from_file(args.config, args.overrides + last)
    _, failed = ex.run_experiment(cfg, out)
    return 1 if failed else 0


def _read_field(path) -> np.ndarray:
    """One finite value per line; blank lines and '#' comments are skipped."""
    values = []
    for lineno, line in enumerate(datafiles.read_text(path).splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise dm.ConfigError(f"{path}:{lineno}: not a number: {text!r}") from None
        if not np.isfinite(value):
            raise dm.ConfigError(f"{path}:{lineno}: non-finite value {text!r}")
        values.append(value)
    return np.array(values)


def cmd_eval(args) -> int:
    steps = dm.NATURAL("--steps", args.steps)
    model = ex.prepare(vae.load_checkpoint, args.checkpoint)
    out = ex.resolve_output_dir(args.out)
    if args.input_field:
        u0 = ex.prepare(_read_field, args.input_field)
        if len(u0) != model.input_dim:
            raise dm.ConfigError(
                f"input field must have {model.input_dim} values, got {len(u0)}"
            )
        preds = vae.predict_multistep(model, u0[None], steps)[:, 0]
        x = np.arange(model.input_dim) / model.input_dim
        rows = [
            {"step": k, "x": x[j], "u_pred": preds[k, j]}
            for k in range(steps + 1)
            for j in range(model.input_dim)
        ]
        datafiles.write_table_csv(out / "rollout.csv", rows, ["step", "x", "u_pred"])
        print(f"wrote rollout of {steps} steps to {out / 'rollout.csv'}")
        return 0
    if not args.config:
        raise dm.ConfigError("eval needs --config (for the test set) or --input-field")
    cfg = ex.ExperimentConfig.from_file(args.config, args.overrides)
    config, test = ex.prepare(ex.burgers_test_set, cfg, cfg.get("experiment", "seed"))
    horizons = cfg.get("sweep", "horizons")
    errors = ex.evaluate_burgers_model(model, test, config, horizons)
    table = ex.ErrorTable(list(errors))
    table.record("vae-checkpoint", model.latent_dim, "", errors)
    table.write(out)
    print(f"wrote errors to {out / 'errors.csv'}")
    return 1 if table.num_failed else 0


def cmd_export_trace(args) -> int:
    model = ex.prepare(vae.load_checkpoint, args.checkpoint)
    dm.require(model.latent_dim <= 3, "--checkpoint", "a model whose latent has at most 3 "
               "dimensions (traces are for plotting)", model.latent_dim)
    alphas = np.array(dm.comma_list(dm.FINITE)("--alphas", args.alphas))
    t, nu = dm.NONNEGATIVE("--t", args.t), dm.POSITIVE("--nu", args.nu)
    steps = dm.NATURAL("--steps", args.steps)
    X = bg.sample_u1(alphas, t, nu, model.input_dim)
    out = Path(args.out)
    ex.make_dir("--out", out.parent)
    n_rows = ex.export_latent_trace(model, X, alphas, np.full(len(alphas), t), out, steps)
    print(f"wrote {n_rows} trace rows to {out}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_run,
    "eval": cmd_eval,
    "baselines": cmd_run,
    "sweep": cmd_run,
    "export-trace": cmd_export_trace,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except dm.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except datafiles.NonFiniteValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
