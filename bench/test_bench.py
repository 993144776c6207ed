"""Smoke tests of the benchmark itself: ``python -m pytest bench``.

The workloads run in-process at tiny sizes; two tests run the real command
at full size on post-train for the reference check.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _patched_objects():
    """Every object a tracer may replace, keyed by where it lives."""
    found = {}
    points = tracing.trace_points(workloads.MODULES) + tracing.counting_points(workloads.MODULES)
    for p in points:
        if p.kind == "entry":
            found[p.name] = getattr(p.owner, p.attr).get(p.key)
        else:
            found[p.name] = vars(p.owner).get(p.attr)
    return found


def test_spec_lists_what_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == workloads.PER_LAYER
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, record = workloads.run(name, 3, 0.01, False, sizes=workloads.TINY)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert isinstance(result["attempted"], int) and isinstance(result["failed"], int)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert record["env"]["seed"] == 3 and "numpy" in record["env"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric_and_restores(name):
    before = _patched_objects()
    result, record = workloads.run(name, 3, 0.01, True, sizes=workloads.TINY)
    assert _patched_objects() == before
    assert "tree" not in vars(workloads.manifold.PointCloudManifold)
    assert result["correct"], record["problems"]
    assert record["absent"] == []
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        if m["unit"] == "count":
            assert float(metrics[m["name"]]["value"]).is_integer(), m["name"]
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["trace.top_span_coverage"] >= 0.9
    if name == "burgers-train":
        assert value["manifold.nearest_point_batch.calls"] == 0
        assert value["autodiff.tape_nodes"] > 0
    if name == "klein-train":
        assert value["manifold.nearest_point_batch.calls"] > 0
    if name == "post-train":
        assert value["autodiff.Tape.backward.calls"] == 0
        assert value["autodiff.tape_nodes"] == 0
        assert value["manifold.nearest_point_batch.calls"] > 0
        assert value["burgers.evolve_exact.calls"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_across_runs(name):
    first, second = (workloads.run(name, 5, 0.01, True, sizes=workloads.TINY) for _ in range(2))
    assert first[1]["counts"] == second[1]["counts"]
    assert "manifold.chart_frames.rows" in first[1]["counts"] or name == "burgers-train"
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "ratio", "bytes", "loss") and not m["name"].startswith("trace."):
            assert first[0]["metrics"][m["name"]] == second[0]["metrics"][m["name"]], m["name"]


def test_corrupted_reference_fails_the_run():
    _, record = workloads.run("post-train", 4, 0.01, False, sizes=workloads.TINY)
    values = dict(record["outputs"])
    reference = {"seed": 4, "sizes": workloads.output_sizes(workloads.TINY), "values": values}
    result, record = workloads.run("post-train", 4, 0.01, False, sizes=workloads.TINY,
                                   reference=reference)
    assert result["correct"], record["problems"]
    key = sorted(values)[0]
    corrupted = dict(reference, values=dict(values, **{key: values[key] * (1 + 1e-5)}))
    result, record = workloads.run("post-train", 4, 0.01, False, sizes=workloads.TINY,
                                   reference=corrupted)
    assert not result["correct"] and result["failed"] >= 1
    assert any(key in p for p in record["problems"])


def test_compare_reference_tolerance():
    ref = {"values": {"a": 1.0, "b": 2.0}}
    assert workloads.compare_reference({"a": 1.0 + 5e-7, "b": 2.0}, ref) == []
    assert len(workloads.compare_reference({"a": 1.0 + 2e-6, "b": 2.0}, ref)) == 1
    assert len(workloads.compare_reference({"a": 1.0, "b": float("nan")}, ref)) == 1
    assert len(workloads.compare_reference({"a": 1.0}, ref)) == 1


def test_disagreeing_counts_are_reported_not_averaged():
    units = [workloads.Unit([1.0], 1, 1, counts={"n": 5, "m": 1}),
             workloads.Unit([1.0], 1, 1, counts={"n": 6, "m": 1})]
    assert workloads._disagreements(units) == {"n": [5, 6]}


def test_tracer_reports_a_removed_function_as_absent():
    module = SimpleNamespace(table={})
    points = [tracing.Point("gone.fn", module, "fn"),
              tracing.Point("gone.entry", module, "table", kind="entry", key="cmd")]
    with tracing.Tracer(points) as tracer:
        pass
    assert tracer.absent == ["gone.fn", "gone.entry"]
    assert vars(module) == {"table": {}}


def test_tracer_self_time_excludes_children():
    module = SimpleNamespace()
    module.child = lambda: time.sleep(0.02)

    def parent():
        module.child()
        time.sleep(0.01)

    module.parent = parent
    originals = dict(vars(module))
    points = [tracing.Point("m.parent", module, "parent"), tracing.Point("m.child", module, "child")]
    with tracing.Tracer(points) as tracer:
        module.parent()
    assert vars(module) == originals
    (p,), (c,) = tracer.durations("m.parent"), tracer.durations("m.child")
    assert p >= c >= 0.02
    assert tracer.self_times("m.parent")[0] == pytest.approx(p - c)
    child_span = next(s for s in tracer.spans if s.name == "m.child")
    parent_span = next(s for s in tracer.spans if s.name == "m.parent")
    assert child_span.parent == parent_span.id and parent_span.parent is None


def _command(cwd, workload="post-train", seed=0):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_command_passes_reference_and_fails_when_it_is_corrupted(tmp_path):
    done = _command(ROOT)
    assert done.returncode == 0, done.stderr
    *_, record, result = (json.loads(line) for line in done.stdout.strip().splitlines())
    assert result["correct"] and record["record"]["reference_checked"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    # a copy of the checkout whose stored reference is off by 1e-5
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ref_file = tmp_path / "bench" / "reference.json"
    stored = json.loads(ref_file.read_text())
    values = stored["post-train"]["values"]
    key = sorted(values)[0]
    values[key] *= 1 + 1e-5
    ref_file.write_text(json.dumps(stored))
    done = _command(tmp_path)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert key in done.stderr


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _command(tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
