"""Spans and counts recorded around the program's public functions.

The benchmark installs these wrappers from its own files: nothing in
``src/`` knows about them.  A ``Tracer`` is a context manager; entering it
replaces each patch point with a timing wrapper and leaving it puts every
original back, in reverse order.  A patch point whose function no longer
exists (a later change may delete or rename it) is listed in ``absent``
instead of failing the run.

Each span records its name, start, end, the span that caused it and its
self time (duration minus the time covered by its direct children).  Spans
stay in memory until the run ends.  Single-threaded use only: the span
stack assumes calls nest.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Point:
    """One place to wrap.

    ``kind`` is "attr" (a function or method stored as an attribute of a
    module or class), "entry" (a value in a dict attribute, such as a
    command table) or "instance" (an attribute each instance stores; its
    value is wrapped in a proxy whose ``method`` is timed).
    """

    name: str
    owner: object
    attr: str
    kind: str = "attr"
    key: str | None = None
    method: str | None = None
    observe: object = None  # observe(tracer, args, result) after each call


class _Proxy:
    """Stands in for an instance attribute; times one of its methods."""

    def __init__(self, target, method, timed):
        self._target = target
        setattr(self, method, timed)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    def __init__(self, points):
        self.points = list(points)
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # cumulative, exact
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, observe=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append(Span(span_id, parent, name, start, end, duration - frame[1]))
            self.counts[name + ".calls"] += 1
        if observe is not None:
            observe(self, args, result)
        return result

    def _wrap(self, fn, point):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(point.name, fn, args, kwargs, point.observe)

        return traced

    # -- installing and restoring ----------------------------------------

    def __enter__(self):
        try:
            for point in self.points:
                self._install(point)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._undo:
            self._undo.pop()()

    def _install(self, p: Point):
        if p.kind == "attr":
            # read the class dict directly so the exact object is restored
            source = p.owner.__dict__ if isinstance(p.owner, type) else vars(p.owner)
            original = source.get(p.attr)
            if original is None:
                self._note_absent(p.name)
                return
            setattr(p.owner, p.attr, self._wrap(original, p))
            self._undo.append(lambda: setattr(p.owner, p.attr, original))
        elif p.kind == "entry":
            table = getattr(p.owner, p.attr, None)
            original = table.get(p.key) if isinstance(table, dict) else None
            if original is None:
                self._note_absent(p.name)
                return
            table[p.key] = self._wrap(original, p)
            self._undo.append(lambda: table.__setitem__(p.key, original))
        elif p.kind == "instance":
            cls = p.owner
            if p.attr in cls.__dict__:
                self._note_absent(p.name)  # no longer a plain instance attribute
                return
            tracer = self

            def get(instance):
                try:
                    target = instance.__dict__[p.attr]
                except KeyError:
                    raise AttributeError(p.attr) from None
                method = getattr(target, p.method)
                timed = functools.partial(_call_method, tracer, p, method)
                return _Proxy(target, p.method, timed)

            def set_(instance, value):
                instance.__dict__[p.attr] = value

            setattr(cls, p.attr, property(get, set_))
            self._undo.append(lambda: delattr(cls, p.attr))
        else:
            raise ValueError(f"unknown patch kind '{p.kind}'")

    def _note_absent(self, name):
        if name not in self.absent:
            self.absent.append(name)

    # -- statistics ----------------------------------------------------------

    def durations(self, name) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_times(self, name) -> list[float]:
        return [s.self_s for s in self.spans if s.name == name]

    def top_level_seconds(self, since: float, until: float) -> float:
        """Total time of spans with no parent that started in [since, until]."""
        return sum(s.seconds for s in self.spans if s.parent is None and since <= s.start <= until)


def _call_method(tracer, point, method, *args, **kwargs):
    return tracer.call(point.name, method, args, kwargs, point.observe)


# ---------------------------------------------------------------------------
# observers: counts read from arguments and results at the layer boundary


def _observe_tape(tracer, args, result):
    # args = (tape, output); read when backward runs, so the count includes
    # the node the training loop adds on top of the tape vae.loss returns
    nodes = getattr(args[0], "num_nodes", None)
    if nodes is None:
        tracer._note_absent("autodiff.tape_nodes")
        return
    tracer.counts["autodiff.tape_nodes"] += nodes


def _observe_projection(tracer, args, result):
    tracer.counts["manifold.nearest_point_batch.rows"] += len(args[0])
    degraded = np.asarray(getattr(result, "degraded", False))
    singular = np.asarray(getattr(result, "singular", False))
    tracer.counts["manifold.degraded"] += int(np.sum(degraded))
    tracer.counts["manifold.singular"] += int(np.sum(singular))
    tracer.counts["manifold.flagged"] += int(np.sum(degraded | singular))


def _observe_chart_frames(tracer, args, result):
    # args = (manifold, ids, U)
    tracer.counts["manifold.chart_frames.rows"] += len(args[1])


def _file_bytes(metric, path_index):
    def observe(tracer, args, result):
        tracer.counts[metric] += Path(args[path_index]).stat().st_size

    return observe


def counting_points(mods) -> list[Point]:
    """The one wrapper every run carries: projection rows and flags, which
    the program drops silently under the "skip" policy and which count as
    failed operations."""
    return [Point("manifold.nearest_point_batch", mods.manifold, "nearest_point_batch",
                  observe=_observe_projection)]


def trace_points(mods) -> list[Point]:
    """Public functions of each module, as named in the per-layer metrics."""
    ad, vae, mf, bg = mods.autodiff, mods.vae, mods.manifold, mods.burgers
    lb, df, ex, mech, cli = mods.baselines, mods.datafiles, mods.experiments, mods.mechanics, mods.cli
    points = [
        Point("autodiff.Tape.backward", ad.Tape, "backward", observe=_observe_tape),
        Point("autodiff.adam_step", ad, "adam_step"),
        Point("vae.train", vae, "train"),
        Point("vae.loss", vae, "loss"),
        Point("vae.predict_multistep", vae, "predict_multistep"),
        Point("vae.save_checkpoint", vae, "save_checkpoint",
              observe=_file_bytes("vae.checkpoint_bytes", 1)),
        Point("vae.load_checkpoint", vae, "load_checkpoint"),
        Point("manifold.nearest_point_batch", mf, "nearest_point_batch",
              observe=_observe_projection),
        Point("manifold.chart_frames", mf.PointCloudManifold, "chart_frames",
              observe=_observe_chart_frames),
        Point("manifold.coarse_query", mf.PointCloudManifold, "tree", kind="instance",
              method="query"),
        Point("manifold.manifold_encode_layer", mf, "manifold_encode_layer"),
        Point("manifold.build_klein_pointcloud", mf, "build_klein_pointcloud"),
        Point("burgers.evolve_exact", bg, "evolve_exact"),
        Point("burgers.generate_burgers_dataset", bg, "generate_burgers_dataset"),
        Point("baselines.fit_dmd", lb, "fit_dmd"),
        Point("baselines.dmd_predict", lb, "dmd_predict"),
        Point("baselines.fit_pod", lb, "fit_pod"),
        Point("baselines.pod_predict", lb, "pod_predict"),
        Point("datafiles.save_pairs", df, "save_pairs"),
        Point("datafiles.load_pairs", df, "load_pairs"),
        Point("datafiles.write_table_csv", df, "write_table_csv",
              observe=_file_bytes("datafiles.write_table_csv.bytes", 0)),
        Point("experiments.generate_burgers_sets", ex, "generate_burgers_sets"),
        Point("experiments.build_model_from_config", ex, "build_model_from_config"),
        Point("experiments.burgers_truth_at_horizons", ex, "burgers_truth_at_horizons"),
        Point("experiments.evaluate_burgers_model", ex, "evaluate_burgers_model"),
        Point("experiments.mech_reconstruction_error", ex, "mech_reconstruction_error"),
        # the experiment dispatcher calls runners through its table
        Point("experiments.run_burgers_baselines", ex, "RUNNERS", kind="entry",
              key="burgers-baselines"),
        Point("mechanics.generate_klein", mech, "generate_klein"),
        Point("mechanics.add_noise", mech, "add_noise"),
        Point("mechanics.train_test_split", mech, "train_test_split"),
    ]
    for command in ("gen-data", "baselines", "eval"):
        points.append(Point(f"cli.{command}", cli, "COMMANDS", kind="entry", key=command))
    return points
