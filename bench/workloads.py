"""The benchmark's three closed-loop workloads and the run that measures them.

Each workload has one caller and no other threads.  A run sets the
workload up several times (the median is ``setup_s``), warms it up, then
repeats a fixed unit of work while the next unit still fits in the run's
time: fixed-length training sessions on the train workloads, one pass of
the post-training pipeline on post-train.  Every unit of a run does the
same work from the same inputs, so its exact counts must repeat; a unit
that disagrees is reported, not averaged.

All inputs come from the ``--seed`` argument; the program receives only the
generated data, configs and checkpoints.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from mvrom import autodiff, baselines, burgers, cli, datafiles, experiments, manifold, mechanics, vae

import tracing

MODULES = SimpleNamespace(
    autodiff=autodiff, vae=vae, manifold=manifold, burgers=burgers, baselines=baselines,
    datafiles=datafiles, experiments=experiments, mechanics=mechanics, cli=cli,
)

N_X = 100  # grid points of every Burgers field (paper scale)
REFERENCE_FILE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  ``DEFAULT`` is what the benchmark measures."""

    setup_repeats: int = 7
    warmup_epochs: int = 2
    # burgers-train: paper scale (n_x=100, hidden 400,400, batch 32, RR on)
    burgers_m_train: int = 512
    burgers_m_test: int = 128
    burgers_hidden: str = "400,400"
    burgers_session_epochs: int = 12
    # klein-train: 65,536-point cloud, 10 batches of 32 per epoch
    klein_m: int = 400
    klein_hidden: str = "100,100"
    klein_resolution: int = 256
    klein_sigma: float = 0.05
    klein_inits: int = 4
    klein_session_epochs: int = 10
    # post-train stages
    gen_pairs: int = 1024
    table_m_test: int = 64
    eval_m_test: int = 256
    recon_samples: int = 200


DEFAULT = Sizes()
TINY = Sizes(
    setup_repeats=2, warmup_epochs=1,
    burgers_m_train=64, burgers_m_test=4, burgers_hidden="16,16", burgers_session_epochs=2,
    klein_m=80, klein_hidden="8,8", klein_resolution=64, klein_inits=2, klein_session_epochs=2,
    gen_pairs=64, table_m_test=4, eval_m_test=4, recon_samples=4,
)


@dataclass
class Unit:
    """One measured unit of work and what it produced."""

    op_seconds: list  # epoch times (train) or the pass time (post-train)
    samples: int
    attempted: int
    failed: int = 0
    counts: dict = field(default_factory=dict)  # must repeat exactly
    stages: dict = field(default_factory=dict)  # seconds per post-train stage
    outputs: dict = field(default_factory=dict)  # values checked against the reference
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# training workloads


@dataclass
class _Session:
    """One ``vae.train`` call: a model, its initial weights and its config."""

    model: object
    config: object
    init: dict = field(init=False)

    def __post_init__(self):
        self.init = {k: v.copy() for k, v in self.model.params.items()}

    def reset(self):
        self.model.params = {k: v.copy() for k, v in self.init.items()}


@dataclass
class _TrainState:
    X: np.ndarray
    Y: np.ndarray
    sessions: list


class _TrainWorkload:
    """A unit trains each session's model from its initial weights."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir

    def warm_up(self, state: _TrainState):
        session = state.sessions[0]
        session.reset()
        config = replace(session.config, epochs=self.sizes.warmup_epochs, eval_every=0)
        vae.train(session.model, state.X, state.Y, config)

    def run_unit(self, state: _TrainState) -> Unit:
        X, Y = state.X, state.Y
        unit = Unit([], 0, attempted=0)
        finals = []
        for session in state.sessions:
            session.reset()
            config = session.config
            stamps = []

            def stamp(_model):
                stamps.append(time.perf_counter())
                return 0.0

            start = time.perf_counter()
            _, history = vae.train(session.model, X, Y, config, eval_fn=stamp)
            unit.op_seconds += np.diff([start, *stamps]).tolist()
            unit.samples += len(X) * config.epochs
            unit.attempted += math.ceil(len(X) / config.batch_size) * config.epochs
            losses = [-h.loss.total for h in history]
            finals.append(losses[-1])
            if not all(math.isfinite(v) for v in losses):
                unit.failed += 1
                unit.problems.append("non-finite epoch loss")
            elif not losses[-1] < losses[0]:
                unit.failed += 1
                unit.problems.append(f"loss did not fall: {losses[0]:.6g} -> {losses[-1]:.6g}")
        unit.counts["final_loss"] = sum(finals) / len(finals)
        unit.counts["steps"] = unit.attempted
        return unit

    def steps_per_epoch(self, state: _TrainState) -> int:
        return math.ceil(len(state.X) / state.sessions[0].config.batch_size)

    def flops_per_step(self, state: _TrainState) -> float:
        """Matmul FLOPs of one step, computed from the layer shapes.

        Forward is 2*B*fan_in*fan_out per layer; backward is twice that.
        With RR on, both MLPs run twice per step.
        """
        model, config = state.sessions[0].model, state.sessions[0].config
        passes = 2 if config.gamma > 0 else 1
        forward = sum(
            2 * config.batch_size * fi * fo
            for sizes in (model.encoder_sizes, model.decoder_sizes)
            for fi, fo in zip(sizes[:-1], sizes[1:])
        )
        return 3.0 * passes * forward


class BurgersTrain(_TrainWorkload):
    def setup(self) -> _TrainState:
        s = self.sizes
        cfg = experiments.ExperimentConfig.from_file(None, [
            f"experiment.seed={self.seed}",
            f"dataset.m_train={s.burgers_m_train}",
            f"dataset.m_test={s.burgers_m_test}",
            f"model.hidden={s.burgers_hidden}",
        ])
        bconfig, train_pairs, _ = experiments.generate_burgers_sets(cfg, self.seed)
        X, Y = burgers.pairs_to_arrays(train_pairs)
        model = experiments.build_model_from_config(cfg, bconfig.n_x, seed=self.seed)
        config = experiments.train_config_from(
            cfg, self.seed, epochs=s.burgers_session_epochs, eval_every=1
        )
        return _TrainState(X, Y, [_Session(model, config)])


class KleinTrain(_TrainWorkload):
    """Sessions from several initial models, as a sweep's cells would train.

    The initial weights decide how far from the manifold the encoder starts,
    and so the cost of the coarse query for the whole session; one init per
    run would make the run's time depend on that draw.
    """

    def setup(self) -> _TrainState:
        s = self.sizes
        cfg = experiments.ExperimentConfig.from_file(None, [
            f"experiment.seed={self.seed}",
            "model.latent=klein",
            "model.projection_policy=skip",
            f"model.hidden={s.klein_hidden}",
            f"model.klein_resolution={s.klein_resolution}",
        ])
        kconfig = manifold.KleinConfig(resolution=s.klein_resolution)
        # the data path of the mechanics sweep cell, with nonzero noise
        clean = mechanics.generate_klein(kconfig, s.klein_m, self.seed)
        noisy = mechanics.add_noise(clean, s.klein_sigma, self.seed + 7)
        train_set, _ = mechanics.train_test_split(noisy, 0.8, self.seed + 13)
        sessions = []
        for k in range(s.klein_inits):
            cell_seed = s.klein_inits * self.seed + k
            model = experiments.build_model_from_config(
                cfg, 4, latent_kind="klein", flow="identity", seed=cell_seed
            )
            config = experiments.train_config_from(
                cfg, cell_seed, epochs=s.klein_session_epochs, eval_every=1
            )
            sessions.append(_Session(model, config))
        return _TrainState(train_set.noisy, train_set.clean, sessions)


# ---------------------------------------------------------------------------
# post-training pipeline


@dataclass
class _PostState:
    config_file: Path
    pairs_file: Path
    burgers_ckpt: Path
    klein_ckpt: Path
    recon_set: object


class PostTrain:
    """gen-data, baselines and eval through ``cli.main``, then a Klein
    checkpoint load and B=1 reconstruction of every sample."""

    # the sizes the checked outputs depend on
    OUTPUT_SIZES = ("gen_pairs", "table_m_test", "eval_m_test", "recon_samples",
                    "burgers_hidden", "klein_hidden", "klein_resolution", "klein_sigma")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir

    def setup(self) -> _PostState:
        s, d = self.sizes, self.workdir
        pairs_file = d / "pairs.bin"
        config_file = d / "post.ini"
        config_file.write_text(
            f"[experiment]\nseed = {self.seed}\n"
            f"[dataset]\nm_test = {s.table_m_test}\nfile = {pairs_file}\n"
            f"[model]\nhidden = {s.burgers_hidden}\nklein_resolution = {s.klein_resolution}\n"
        )
        cfg = experiments.ExperimentConfig.from_file(config_file)
        burgers_ckpt, klein_ckpt = d / "burgers.ckpt", d / "klein.ckpt"
        model = experiments.build_model_from_config(cfg, cfg.get_int("dataset", "n_x"), seed=self.seed)
        vae.save_checkpoint(model, burgers_ckpt)
        # the Klein checkpoint has the shape klein-train produces
        cfg.sections["model"]["hidden"] = s.klein_hidden
        model = experiments.build_model_from_config(
            cfg, 4, latent_kind="klein", flow="identity", seed=self.seed + 1
        )
        vae.save_checkpoint(model, klein_ckpt)
        clean = mechanics.generate_klein(
            manifold.KleinConfig(resolution=s.klein_resolution), s.recon_samples, self.seed + 2
        )
        recon_set = mechanics.add_noise(clean, s.klein_sigma, self.seed + 3)
        return _PostState(config_file, pairs_file, burgers_ckpt, klein_ckpt, recon_set)

    def warm_up(self, state):
        self.run_unit(state)

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])

    def run_unit(self, state: _PostState) -> Unit:
        s, d = self.sizes, self.workdir
        # outputs of the previous pass must not pass for this one's
        state.pairs_file.unlink(missing_ok=True)
        for out in (d / "baselines", d / "eval"):
            shutil.rmtree(out, ignore_errors=True)
        codes = {}

        t0 = time.perf_counter()
        codes["gen-data"] = self._cli(["gen-data", "--kind", "burgers", "--out", state.pairs_file,
                                       "--m", s.gen_pairs, "--n-x", N_X, "--seed", self.seed])
        t1 = time.perf_counter()
        codes["baselines"] = self._cli(["baselines", "--config", state.config_file,
                                        "--out", d / "baselines"])
        t2 = time.perf_counter()
        codes["eval"] = self._cli(["eval", "--checkpoint", state.burgers_ckpt,
                                   "--config", state.config_file,
                                   "--set", f"dataset.m_test={s.eval_m_test}",
                                   "--out", d / "eval"])
        t3 = time.perf_counter()
        model = vae.load_checkpoint(state.klein_ckpt)
        recon = experiments.mech_reconstruction_error(model, state.recon_set)
        t4 = time.perf_counter()
        stages = {"gen": t1 - t0, "table": t2 - t1, "eval": t3 - t2, "recon": t4 - t3}

        samples = s.gen_pairs + s.table_m_test + s.eval_m_test + s.recon_samples
        unit = Unit([t4 - t0], samples, attempted=0, stages=stages)
        for command, code in codes.items():
            unit.attempted += 1
            if code != 0:
                unit.failed += 1
                unit.problems.append(f"{command} exited with {code}")
        self._check_pairs(state.pairs_file, unit)
        sweep = experiments.DEFAULTS["sweep"]
        horizons = len(sweep["horizons"].split(","))
        rows = sum(len(sweep[key].split(",")) for key in ("dmd_ranks", "pod_ranks", "ch_dims"))
        table = self._check_table(d / "baselines" / "errors.csv", unit, "baselines", rows * horizons)
        evals = self._check_table(d / "eval" / "errors.csv", unit, "eval", 1 + horizons)
        unit.attempted += 1
        if math.isfinite(recon):
            unit.outputs["recon"] = recon
        else:
            unit.failed += 1
            unit.problems.append(f"non-finite reconstruction error {recon}")
        unit.counts["table_cells"] = table
        unit.counts["eval_cells"] = evals
        return unit

    def _check_pairs(self, path: Path, unit: Unit):
        """Header, size and finiteness of the gen-data file, read without the
        program (layout: 6-byte magic, u64 dim, u64 count, two f64, data)."""
        unit.attempted += 1
        m = self.sizes.gen_pairs
        expected = 6 + 32 + 2 * m * N_X * 8
        size = path.stat().st_size if path.exists() else -1
        if size != expected:
            unit.failed += 1
            unit.problems.append(f"{path.name}: {size} bytes, expected {expected}")
            return
        with open(path, "rb") as fh:
            magic, header = fh.read(6), struct.unpack("<QQdd", fh.read(32))
            data = np.fromfile(fh, dtype="<f8")
        if magic != b"MVROM1" or header[:2] != (N_X, m) or not np.all(np.isfinite(data)):
            unit.failed += 1
            unit.problems.append(f"{path.name}: bad header {magic!r} {header} or non-finite values")

    def _check_table(self, path: Path, unit: Unit, label: str, expected_cells: int) -> int:
        """Every expected cell present and finite; returns the number of cells."""
        unit.attempted += expected_cells
        if not path.exists():
            unit.failed += expected_cells
            unit.problems.append(f"{label}: {path.name} missing")
            return 0
        table = experiments.read_table_csv(path)
        cells = 0
        for (method, dim, _sweep), row in sorted(table.rows.items()):
            for col in table.columns:
                cells += 1
                value = row.get(col)
                if isinstance(value, float) and math.isfinite(value):
                    unit.outputs[f"{label}.{method}.{dim}.{col}"] = value
                else:
                    unit.failed += 1
                    unit.problems.append(f"{label}: cell {method}/{dim}/{col} is {value!r}")
        if cells != expected_cells:
            unit.failed += abs(expected_cells - cells)
            unit.problems.append(f"{label}: {cells} cells, expected {expected_cells}")
        return cells


WORKLOADS = {"burgers-train": BurgersTrain, "klein-train": KleinTrain, "post-train": PostTrain}


# ---------------------------------------------------------------------------
# checks


def compare_reference(outputs: dict, reference: dict) -> list[str]:
    """Mismatches of the observed outputs against stored values at REL_TOL."""
    expected = reference["values"]
    problems = [f"sentinel: {k} missing" for k in sorted(set(expected) - set(outputs))]
    problems += [f"sentinel: unexpected {k}" for k in sorted(set(outputs) - set(expected))]
    for key in sorted(set(expected) & set(outputs)):
        ref, got = expected[key], outputs[key]
        if not abs(got - ref) <= REL_TOL * abs(ref):
            problems.append(f"sentinel: {key} = {got!r}, reference {ref!r}")
    return problems


def output_sizes(sizes: Sizes) -> dict:
    return {name: getattr(sizes, name) for name in PostTrain.OUTPUT_SIZES}


def load_reference(name: str):
    if not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(name)


def _disagreements(units) -> dict:
    """Counts that differ between units of the same run, with every value."""
    keys = sorted({k for u in units for k in u.counts})
    out = {}
    for key in keys:
        seen = [u.counts.get(key) for u in units]
        if any(v != seen[0] for v in seen):
            out[key] = seen
    return out


# ---------------------------------------------------------------------------
# the run


def environment(seed: int, blas_threads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError) as exc:  # older numpy reports differently
        blas = {"error": repr(exc)}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "git_commit": _git_commit(Path(__file__).resolve().parents[1]),
    }


def _git_commit(root: Path) -> str:
    """HEAD read from .git without running git; "unavailable" outside a clone."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def _measure(workload, state, seconds, tracers):
    """Run units back to back while the next one still fits in ``seconds``.

    At least one unit always runs.  A unit that raises ends the phase; the
    traceback is returned as a problem.  Each unit gets the change in every
    tracer's counts while it ran.
    """
    units, errors = [], []
    start = time.perf_counter()
    last = 0.0
    while not units or time.perf_counter() - start + last <= seconds:
        before = [dict(t.counts) for t in tracers]
        t = time.perf_counter()
        try:
            unit = workload.run_unit(state)
        except Exception:
            errors.append(f"{type(workload).__name__} unit raised:\n{traceback.format_exc()}")
            break
        last = time.perf_counter() - t
        for tracer, snapshot in zip(tracers, before):
            for key, value in tracer.counts.items():
                if value != snapshot.get(key, 0):
                    unit.counts[key] = value - snapshot.get(key, 0)
        flagged = unit.counts.get("manifold.flagged", 0)
        rows = unit.counts.get("manifold.nearest_point_batch.rows", 0)
        unit.attempted += rows
        unit.failed += flagged
        if flagged:
            unit.problems.append(f"{flagged} of {rows} projections flagged")
        units.append(unit)
    return units, errors


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def run(name, seed, seconds, trace, sizes=DEFAULT, reference=None, blas_threads=None):
    """Measure one workload; returns (result, record).

    ``result`` is the benchmark's last output line.  ``record`` holds the
    environment, the end-to-end figures under their per-workload names, the
    exact counts, the reference outputs and every problem found.  Scratch
    files live under ``.bench_work`` in the checkout and are removed.
    """
    root = Path(__file__).resolve().parents[1]
    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(name, seed, seconds, trace, sizes, reference, blas_threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _run(name, seed, seconds, trace, sizes, reference, blas_threads, workdir):
    workload = WORKLOADS[name](seed, sizes, workdir)
    counter = tracing.Tracer(tracing.counting_points(MODULES))
    tracer = tracing.Tracer(tracing.trace_points(MODULES)) if trace else None
    run_problems, phases, setup_seconds = [], {}, []
    windows = []  # (start, end) of each traced unit

    with counter:
        with tracer or contextlib.nullcontext():
            for _ in range(sizes.setup_repeats):
                t = time.perf_counter()
                state = workload.setup()
                setup_seconds.append(time.perf_counter() - t)
        workload.warm_up(state)
        if trace:
            # untraced and traced units alternate, so a drift in machine speed
            # falls on both sides of the overhead estimate alike
            phases = {"untraced": [], "traced": []}
            deadline = time.perf_counter() + seconds
            while not run_problems:
                t = time.perf_counter()
                units, errors = _measure(workload, state, 0, [counter])
                phases["untraced"] += units
                run_problems += errors
                with tracer:
                    start = time.perf_counter()
                    units, errors = _measure(workload, state, 0, [counter, tracer])
                    windows.append((start, time.perf_counter()))
                phases["traced"] += units
                run_problems += errors
                pair = time.perf_counter() - t
                if time.perf_counter() + pair > deadline:
                    break
        else:
            phases["untraced"], errors = _measure(workload, state, seconds, [counter])
            run_problems += errors

    for phase, phase_units in phases.items():
        disagree = _disagreements(phase_units)
        if disagree:
            run_problems.append(f"exact counts differ between {phase} units: {disagree}")
    units = [u for phase_units in phases.values() for u in phase_units]
    first = units[0] if units else Unit([], 0, 0)
    checked = bool(reference) and seed == reference["seed"] and reference["sizes"] == output_sizes(sizes)
    if checked:
        mismatches = compare_reference(first.outputs, reference)
        first.failed += len(mismatches)
        first.problems += mismatches

    attempted = sum(u.attempted for u in units) + len(run_problems)
    failed = sum(u.failed for u in units) + len(run_problems)
    problems = run_problems + [p for u in units for p in u.problems]
    ops = [x for u in phases["untraced"] for x in u.op_seconds]
    record = {
        "workload": name,
        "trace": int(trace),
        "env": environment(seed, blas_threads),
        "units": len(units),
        "setup_seconds": setup_seconds,
        "op_ms": [round(x * 1e3, 3) for x in ops],
        "counts": first.counts,
        "outputs": first.outputs,
        "reference_checked": checked,
        "problems": problems,
    }
    if trace:
        traced = phases["traced"][0] if phases["traced"] else Unit([], 0, 0)
        record["counts"] = traced.counts
        traced_ops = [x for u in phases["traced"] for x in u.op_seconds]
        metrics = per_layer_metrics(tracer, workload, state, traced, ops, traced_ops, windows)
        record["absent"] = sorted(set(tracer.absent))
    else:
        metrics = {
            "setup_s": (_median(setup_seconds), "s"),
            "samples_per_s": (sum(u.samples for u in units) / sum(ops) if ops else 0.0, "1/s"),
            "op_ms_p50": (_median(ops, 1e3), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record["workload_metrics"] = _workload_metrics(workload, metrics, units, ops, attempted, failed)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def _workload_metrics(workload, metrics, units, ops, attempted, failed) -> dict:
    """The end-to-end figures under the names each workload gives them."""
    out = {
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": (failed / attempted if attempted else 0.0, f"of {attempted}"),
    }
    if isinstance(workload, PostTrain) and units:
        s = workload.sizes
        stage = {k: _median([u.stages[k] for u in units]) for k in ("gen", "table", "eval", "recon")}
        out["gen_pairs_per_s"] = (s.gen_pairs / stage["gen"], "1/s")
        out["table_s"] = (stage["table"], "s")
        out["eval_samples_per_s"] = (s.eval_m_test / stage["eval"], "1/s")
        out["recon_samples_per_s"] = (s.recon_samples / stage["recon"], "1/s")
    elif units:
        out["train_samples_per_s"] = (metrics["samples_per_s"][0], "1/s")
        out["epoch_ms_p50"] = (metrics["op_ms_p50"][0], "ms")
        if len(ops) >= 100:  # a percentile needs ten samples beyond it
            out["epoch_ms_p90"] = (float(np.percentile(ops, 90)) * 1e3, "ms")
        out["final_loss"] = (units[0].counts["final_loss"], "loss")
    out["timed_ops"] = (len(ops), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run

# (name, unit, better); BENCHMARK.json lists the same metrics in this order
PER_LAYER = [
    ("autodiff.Tape.backward.calls", "count", "lower"),
    ("autodiff.Tape.backward.ms_p50", "ms", "lower"),
    ("autodiff.adam_step.ms_p50", "ms", "lower"),
    ("autodiff.tape_nodes", "count", "lower"),
    ("vae.loss.ms_p50", "ms", "lower"),
    ("vae.loss.self_ms_p50", "ms", "lower"),
    ("vae.step_gflops", "GFLOP/s", "higher"),
    ("vae.train.final_loss", "loss", "lower"),
    ("vae.predict_multistep.ms_p50", "ms", "lower"),
    ("vae.save_checkpoint.ms", "ms", "lower"),
    ("vae.load_checkpoint.ms", "ms", "lower"),
    ("vae.checkpoint_bytes", "bytes", "lower"),
    ("manifold.nearest_point_batch.calls", "count", "lower"),
    ("manifold.nearest_point_batch.rows", "count", "lower"),
    ("manifold.nearest_point_batch.ms_p50", "ms", "lower"),
    ("manifold.nearest_point_batch.self_ms_p50", "ms", "lower"),
    ("manifold.coarse_query.ms_p50", "ms", "lower"),
    ("manifold.chart_frames.calls_per_projection", "ratio", "lower"),
    ("manifold.chart_frames.rows_per_sample", "ratio", "lower"),
    ("manifold.flagged_frac", "ratio", "lower"),
    ("manifold.degraded", "count", "lower"),
    ("manifold.singular", "count", "lower"),
    ("manifold.manifold_encode_layer.ms_p50", "ms", "lower"),
    ("manifold.build_klein_pointcloud.s", "s", "lower"),
    ("burgers.evolve_exact.calls", "count", "lower"),
    ("burgers.evolve_exact.us_p50", "us", "lower"),
    ("burgers.generate_burgers_dataset.s", "s", "lower"),
    ("baselines.pod_predict.calls", "count", "lower"),
    ("baselines.pod_predict.ms_p50", "ms", "lower"),
    ("baselines.fit_pod.ms", "ms", "lower"),
    ("baselines.fit_dmd.ms", "ms", "lower"),
    ("baselines.dmd_predict.us_p50", "us", "lower"),
    ("datafiles.save_pairs.ms", "ms", "lower"),
    ("datafiles.write_table_csv.ms", "ms", "lower"),
    ("datafiles.write_table_csv.bytes", "bytes", "lower"),
    ("experiments.burgers_truth_at_horizons.s", "s", "lower"),
    ("experiments.evaluate_burgers_model.s", "s", "lower"),
    ("experiments.run_burgers_baselines.s", "s", "lower"),
    ("experiments.mech_reconstruction_error.s", "s", "lower"),
    ("mechanics.generate_klein.ms", "ms", "lower"),
    ("cli.gen-data.s", "s", "lower"),
    ("cli.baselines.s", "s", "lower"),
    ("cli.eval.s", "s", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.top_span_coverage", "ratio", "higher"),
]

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer_metrics(tracer, workload, state, traced, ops, traced_ops, windows) -> dict:
    """Every PER_LAYER metric.  Timings are medians per call over the traced
    set-ups and the traced phase, 0 when the function never ran; counts are
    those of one traced unit, so they repeat exactly."""
    counts = traced.counts

    def ratio(a, b):
        return a / b if b else 0.0

    projections = counts.get("manifold.nearest_point_batch.calls", 0)
    rows = counts.get("manifold.nearest_point_batch.rows", 0)
    derived = {
        "autodiff.tape_nodes": ratio(counts.get("autodiff.tape_nodes", 0),
                                     counts.get("autodiff.Tape.backward.calls", 0)),
        "vae.train.final_loss": counts.get("final_loss", 0.0),
        "vae.checkpoint_bytes": ratio(tracer.counts["vae.checkpoint_bytes"],
                                      workload.sizes.setup_repeats),
        "manifold.chart_frames.calls_per_projection":
            ratio(counts.get("manifold.chart_frames.calls", 0), projections),
        "manifold.chart_frames.rows_per_sample":
            ratio(counts.get("manifold.chart_frames.rows", 0), rows),
        "manifold.flagged_frac": ratio(counts.get("manifold.flagged", 0), rows),
        "manifold.degraded": counts.get("manifold.degraded", 0),
        "manifold.singular": counts.get("manifold.singular", 0),
        "datafiles.write_table_csv.bytes": counts.get("datafiles.write_table_csv.bytes", 0),
        "trace.overhead_ms": _median(traced_ops, 1e3) - _median(ops, 1e3),
        "trace.overhead_frac": ratio(_median(traced_ops) - _median(ops), _median(ops)),
        "trace.top_span_coverage": ratio(sum(tracer.top_level_seconds(a, b) for a, b in windows),
                                         sum(b - a for a, b in windows)),
    }
    gflops = 0.0
    if isinstance(workload, _TrainWorkload):
        step_s = ratio(_median(ops), workload.steps_per_epoch(state))
        gflops = ratio(workload.flops_per_step(state), step_s) / 1e9
    derived["vae.step_gflops"] = gflops

    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            span, stat = name.rsplit(".", 1)
            if unit == "count":
                value = counts.get(name, 0)
            elif stat.startswith("self_"):
                value = _median(tracer.self_times(span), _SCALE[unit])
            else:
                value = _median(tracer.durations(span), _SCALE[unit])
        metrics[name] = (value, unit)
    return metrics
