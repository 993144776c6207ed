"""The benchmark's patch points name functions that exist and are reached.

``bench/tracing.py`` wraps public functions of the package by name and lists
a name it cannot find as ``absent`` instead of failing, so a renamed or
removed function would silently drop out of the traced figures, and a path
that bypasses a wrapped function would leave its counts at zero.
"""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_bench_patch_point_exists():
    tracer = tracing.Tracer(tracing.trace_points(workloads.MODULES))
    with tracer:
        pass
    assert tracer.absent == []


def test_klein_latent_projects_through_the_counted_spans(tmp_path):
    # The benchmark counts a Klein model's projections at nearest_point_batch
    # and PointCloudManifold.chart_frames; building, encoding with and
    # reloading such a model must pass through both and build no cloud.
    mods = workloads.MODULES
    cfg = mods.experiments.ExperimentConfig.from_file(None, ["model.latent=klein", "model.hidden=8"])
    X = np.random.default_rng(0).normal(size=(5, 4))
    tracer = tracing.Tracer(tracing.trace_points(mods))
    with tracer:
        model = mods.experiments.build_model_from_config(cfg, 4, latent_kind="klein", seed=1)
        mods.vae.encode(model, X)
        mods.vae.save_checkpoint(model, tmp_path / "klein.ckpt")
        mods.vae.encode(mods.vae.load_checkpoint(tmp_path / "klein.ckpt"), X)
    assert tracer.absent == []
    assert tracer.counts["manifold.nearest_point_batch.calls"] == 2
    assert tracer.counts["manifold.nearest_point_batch.rows"] == 10
    assert tracer.counts["manifold.chart_frames.calls"] >= 2
    assert tracer.counts["manifold.build_klein_pointcloud.calls"] == 0
    assert tracer.counts["manifold.coarse_query.calls"] == 0


def test_each_training_step_reaches_the_timed_spans_once():
    # The benchmark times a training step as vae.loss, Tape.backward and
    # adam_step, and reads the tape's node count at backward: one euclidean
    # step with RR on is one loss, one backward and one Adam update over
    # four nodes (encoder, latent layer, decoder and the objective).
    mods = workloads.MODULES
    model = mods.vae.build_vae(6, mods.vae.make_latent("euclidean", dim=2), hidden=(8,), seed=1)
    X = np.random.default_rng(0).normal(size=(12, 6))
    config = mods.vae.TrainConfig(epochs=2, batch_size=4, seed=3)
    tracer = tracing.Tracer(tracing.trace_points(mods))
    with tracer:
        mods.vae.train(model, X, X.copy(), config)
    steps = 2 * 3
    assert tracer.absent == []
    for span in ("vae.loss", "autodiff.Tape.backward", "autodiff.adam_step"):
        assert tracer.counts[span + ".calls"] == steps
    assert tracer.counts["autodiff.tape_nodes"] == 4 * steps
