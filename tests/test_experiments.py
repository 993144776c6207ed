import csv
import dataclasses
import os
import re
from pathlib import Path

import numpy as np
import pytest

from mvrom import baselines as lb
from mvrom import burgers as bg
from mvrom import cli
from mvrom import datafiles
from mvrom import experiments as ex
from mvrom import manifold as mf
from mvrom import mechanics as mech
from mvrom import vae

from oracles import build_torus_pointcloud, table_complete, write_pointcloud

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# metrics


def test_relative_error_trivial_cases():
    truth = np.array([[1.0, -2.0, 3.0]])
    assert ex.l1_relative_error(truth, truth) == 0.0
    assert ex.l2_relative_error(truth, truth) == 0.0
    assert ex.l1_relative_error(np.zeros_like(truth), truth) == 1.0
    assert ex.l2_relative_error(np.zeros_like(truth), truth) == 1.0
    assert ex.l1_relative_error(1.1 * truth, truth) == pytest.approx(0.1)
    assert ex.l2_relative_error(1.1 * truth, truth) == pytest.approx(0.1)


def test_relative_error_scale_homogeneous():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(5, 8))
    truth = rng.normal(size=(5, 8))
    for c in (0.1, 7.0):
        assert ex.l1_relative_error(c * pred, c * truth) == pytest.approx(
            ex.l1_relative_error(pred, truth)
        )


def test_relative_error_validation():
    with pytest.raises(ValueError, match="zero-norm"):
        ex.l1_relative_error(np.ones((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        ex.l2_relative_error(np.ones((1, 3)), np.ones((1, 4)))


# ---------------------------------------------------------------------------
# error table


def test_error_table_roundtrip(tmp_path):
    table = ex.ErrorTable(["0.25s", "0.50s"])
    table.add("dmd", 3, "", "0.25s", 0.221)
    table.add("dmd", 3, "", "0.50s", 0.179)
    table.mark_failed("pod", 3, "", "ValueError: rank", "0.25s")
    table.add("pod", 3, "", "0.50s", 0.4)
    table.write(tmp_path)
    loaded = ex.read_table_csv(tmp_path / "errors.csv")
    assert loaded.cell("dmd", 3, "", "0.25s") == pytest.approx(0.221)
    assert loaded.cell("pod", 3, "", "0.25s") == ex.FAILED
    assert loaded.num_failed == 1
    assert table.num_failed == 1
    with open(tmp_path / "failures.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["method", "dim", "sweep", "error"],
                                        ["pod", "3", "", "ValueError: rank"]]
    # record: error text fails the whole row with one failures row; in a
    # dict, a non-finite value fails only its own column
    recorded = ex.ErrorTable(["0.25s", "0.50s"])
    recorded.record("cole-hopf", 4, "", "ValueError: n_f, 200")
    recorded.record("cole-hopf", 6, "", {"0.25s": 0.3, "0.50s": float("nan")})
    recorded.write(tmp_path / "recorded")
    assert recorded.rows == {("cole-hopf", "4", ""): {"0.25s": ex.FAILED, "0.50s": ex.FAILED},
                             ("cole-hopf", "6", ""): {"0.25s": 0.3, "0.50s": ex.FAILED}}
    assert recorded.num_failed == 3
    with open(tmp_path / "recorded" / "failures.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [["cole-hopf", "4", "", "ValueError: n_f, 200"],
                                            ["cole-hopf", "6", "", "non-finite 0.50s"]]


def test_error_table_validation():
    table = ex.ErrorTable(["a"])
    with pytest.raises(KeyError):
        table.add("m", 1, "", "b", 0.5)
    with pytest.raises(ValueError):
        table.add("m", 1, "", "a", -0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            table.add("m", 1, "", "a", bad)
    assert table.rows == {}


# ---------------------------------------------------------------------------
# config


def test_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nkind = burgers-baselines\nseed = 3\n")
    cfg = ex.ExperimentConfig.from_file(path, overrides=["dataset.n_x=64"])
    assert cfg.get("experiment", "kind") == "burgers-baselines"
    assert cfg.get("experiment", "seed") == 3
    assert cfg.get("dataset", "n_x") == 64
    assert cfg.get("dataset", "nu") == pytest.approx(0.02)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nbogus = 1\n")
    with pytest.raises(ex.ConfigError, match="unknown config key"):
        ex.ExperimentConfig.from_file(path)
    with pytest.raises(ex.ConfigError, match="unknown config key"):
        ex.ExperimentConfig.from_file(None, overrides=["nope.x=1"])
    with pytest.raises(ex.ConfigError, match="section.key"):
        ex.ExperimentConfig.from_file(None, overrides=["badformat"])


def test_config_resolved_write_roundtrip(tmp_path):
    cfg = ex.ExperimentConfig.from_file(None, overrides=["train.epochs=7"])
    out = tmp_path / "resolved.ini"
    cfg.write(out)
    cfg2 = ex.ExperimentConfig.from_file(out)
    assert cfg2.get("train", "epochs") == 7


def test_default_config_is_written_byte_identical(tmp_path):
    # tests/data/default_config.ini pins every key, its default text and their order
    out = tmp_path / "config.ini"
    ex.ExperimentConfig.from_file(None).write(out)
    assert out.read_bytes() == (DATA / "default_config.ini").read_bytes()


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv(ex.ENV_OUTPUT_ROOT, str(tmp_path))
    out = ex.resolve_output_dir("sub/dir")
    assert out == tmp_path / "sub" / "dir"
    assert out.is_dir()


# ---------------------------------------------------------------------------
# experiment runners (tiny configurations)


def tiny_overrides(extra=()):
    base = [
        "dataset.n_x=64",
        "dataset.m_train=40",
        "dataset.m_test=10",
        "model.hidden=16,16",
        "train.epochs=3",
        "train.batch_size=20",
        "sweep.horizons=1,4",
    ]
    return base + list(extra)


def test_burgers_baselines_table_and_determinism(tmp_path):
    cfg = ex.ExperimentConfig.from_file(
        None,
        overrides=tiny_overrides(
            ["experiment.kind=burgers-baselines", "sweep.dmd_ranks=2,3", "sweep.pod_ranks=3"]
        ),
    )
    table, failed = ex.run_experiment(cfg, tmp_path / "a")
    assert failed == 0
    assert ("dmd", "3", "") in table.rows
    assert ("pod", "3", "") in table.rows
    assert ("cole-hopf", "6", "") in table.rows
    assert table_complete(table)
    # deterministic reruns: byte-identical artifacts
    ex.run_experiment(cfg, tmp_path / "b")
    a = (tmp_path / "a" / "errors.csv").read_bytes()
    b = (tmp_path / "b" / "errors.csv").read_bytes()
    assert a == b


def test_baselines_share_one_snapshot_svd(tmp_path, monkeypatch):
    # two DMD and two POD ranks: one np.linalg.svd call in the run, and each
    # rank's errors those of a fit from its own factorization
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    cfg = ex.ExperimentConfig.from_file(None, overrides=tiny_overrides(
        ["experiment.kind=burgers-baselines", "sweep.dmd_ranks=2,3", "sweep.pod_ranks=2,3"]))
    table, failed = ex.run_experiment(cfg, tmp_path)
    assert (len(calls), failed) == (1, 0)
    config, train, test = ex.generate_burgers_sets(cfg, cfg.get("experiment", "seed"))
    horizons = cfg.get("sweep", "horizons")
    truths = ex.burgers_truth_at_horizons(test.X, config, horizons)
    for rank in (2, 3):
        fits = {"dmd": lb.dmd_predict(lb.fit_dmd(lb.svd(train.X.T), train.Y.T, rank), test.X, 4),
                "pod": lb.pod_predict(lb.fit_pod(lb.svd(train.X.T), rank, config.nu, config.tau),
                                      test.X, 4)}
        for method, preds in fits.items():
            for k, truth in zip(horizons, truths):
                assert table.cell(method, rank, "", ex.horizon_label(k * config.tau)) == (
                    ex.l1_relative_error(preds[k], truth))


def _baselines_with(tmp_path, monkeypatch, module, name, wrap):
    """The rank-3 DMD and POD and default Cole-Hopf baselines, with
    ``module.name`` replaced by ``wrap(original)``; (table, failures rows)."""
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    cfg = ex.ExperimentConfig.from_file(None, overrides=tiny_overrides(
        ["experiment.kind=burgers-baselines"]))
    table, _ = ex.run_experiment(cfg, tmp_path)
    with open(tmp_path / "failures.csv", newline="") as fh:
        return table, list(csv.reader(fh))[1:]


def test_cole_hopf_error_writes_one_failures_row(tmp_path, monkeypatch):
    def wrap(evolve):
        def evolve_exact(U0, nu, t, n_f=None):
            if n_f == 4:
                raise RuntimeError("no modes")
            return evolve(U0, nu, t, n_f=n_f)
        return evolve_exact

    table, failures = _baselines_with(tmp_path, monkeypatch, bg, "evolve_exact", wrap)
    assert table.num_failed == len(table.columns)
    assert set(table.rows[("cole-hopf", "4", "")].values()) == {ex.FAILED}
    assert failures == [["cole-hopf", "4", "", "RuntimeError: no modes"]]


def test_nonfinite_dmd_horizon_fails_only_its_column(tmp_path, monkeypatch):
    def wrap(predict):
        def dmd_predict(model, U, n_steps):
            preds = predict(model, U, n_steps)
            preds[4, 0, 0] = np.nan  # horizon 4 of the first test input
            return preds
        return dmd_predict

    table, failures = _baselines_with(tmp_path, monkeypatch, lb, "dmd_predict", wrap)
    row = table.rows[("dmd", "3", "")]
    assert row["1.00s"] == ex.FAILED and np.isfinite(row["0.25s"])
    assert table.num_failed == 1
    assert failures == [["dmd", "3", "", "non-finite 1.00s"]]


def test_cole_hopf_column_with_one_nonfinite_row_fails(tmp_path, monkeypatch):
    def wrap(evolve):
        def evolve_exact(U0, nu, t, n_f=None):
            preds = evolve(U0, nu, t, n_f=n_f)
            if n_f == 6:
                preds[0, 2] = np.inf  # the third test input at the first horizon
            return preds
        return evolve_exact

    table, failures = _baselines_with(tmp_path, monkeypatch, bg, "evolve_exact", wrap)
    row = table.rows[("cole-hopf", "6", "")]
    assert row["0.25s"] == ex.FAILED and np.isfinite(row["1.00s"])
    assert table.num_failed == 1
    assert failures == [["cole-hopf", "6", "", "non-finite 0.25s"]]


def test_failed_baseline_keeps_its_error(tmp_path):
    cfg = ex.ExperimentConfig.from_file(
        None,
        overrides=tiny_overrides(
            ["experiment.kind=burgers-baselines", "sweep.dmd_ranks=2,500", "sweep.pod_ranks=3"]
        ),
    )
    out = tmp_path / "baselines"
    table, failed = ex.run_experiment(cfg, out)
    assert failed == len(table.columns)
    assert set(table.rows[("dmd", "500", "")].values()) == {ex.FAILED}
    with open(out / "failures.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "dim", "sweep", "error"]
    assert len(rows) == 2 and rows[1][:3] == ["dmd", "500", ""]
    assert re.fullmatch(r"ValueError: .*rank.*", rows[1][3])
    # a clean rerun into the same directory leaves no failure file
    clean = ex.ExperimentConfig.from_file(
        None, overrides=tiny_overrides(["experiment.kind=burgers-baselines", "sweep.dmd_ranks=2"])
    )
    assert ex.run_experiment(clean, out)[1] == 0
    assert not (out / "failures.csv").exists()


def test_burgers_vae_experiment_artifacts(tmp_path):
    cfg = ex.ExperimentConfig.from_file(None, overrides=tiny_overrides())
    table, failed = ex.run_experiment(cfg, tmp_path / "run")
    assert failed == 0
    key = ("vae-nonlinear", "2", "beta=1;gamma=0.5")
    assert key in table.rows
    assert "0.00s" in table.columns and "1.00s" in table.columns
    cell_dir = tmp_path / "run" / "beta=1_gamma=0.5"
    for name in ("model.ckpt", "loss_history.csv", "predictions.csv", "latent_trace.csv"):
        assert (cell_dir / name).exists(), name
    assert (tmp_path / "run" / "config.ini").exists()
    assert (tmp_path / "run" / "errors.csv").exists()


def test_burgers_vae_cell_recompute_matches_table(tmp_path):
    cfg = ex.ExperimentConfig.from_file(None, overrides=tiny_overrides())
    table, _ = ex.run_experiment(cfg, tmp_path / "run")
    model = vae.load_checkpoint(tmp_path / "run" / "beta=1_gamma=0.5" / "model.ckpt")
    config, _, test_pairs = ex.generate_burgers_sets(cfg, cfg.get("experiment", "seed"))
    errors = ex.evaluate_burgers_model(model, test_pairs, config, [1, 4])
    for col, val in errors.items():
        assert table.cell("vae-nonlinear", 2, "beta=1;gamma=0.5", col) == val


def _save_quadratic_torus_cloud(path):
    """The resolution-64 torus as a quadratic (Monge-chart) cloud file."""
    write_pointcloud(path, build_torus_pointcloud(resolution=64).points, 2)


def _run_serial_and_pool(tmp_path, overrides):
    """Run the same sweep with workers=1 and workers=2; returns both output dirs."""
    outs = []
    for workers in (1, 2):
        cfg = ex.ExperimentConfig.from_file(
            None, overrides=overrides + [f"experiment.workers={workers}"])
        ex.run_experiment(cfg, tmp_path / f"workers{workers}")
        outs.append(tmp_path / f"workers{workers}")
    return outs


def test_burgers_vae_sweep_worker_pool_matches_serial(tmp_path):
    # and a mech-recon sweep, which sends a prepared quadratic cloud and its
    # k-d tree through the pool
    cloud = tmp_path / "torus.cloud"
    _save_quadratic_torus_cloud(cloud)
    sweeps = {
        "burgers-vae": tiny_overrides(["sweep.gamma=0,0.5", "train.epochs=2"]),
        "mech-recon": ["experiment.kind=mech-recon", "dataset.m=48", "model.hidden=8",
                       f"model.pointcloud_file={cloud}", "train.epochs=2",
                       "sweep.latent=pointcloud,r2", "sweep.sigma=0.05"],
    }
    for kind, overrides in sweeps.items():
        serial, pool = _run_serial_and_pool(tmp_path / kind, overrides)
        assert (serial / "errors.csv").read_text() == (pool / "errors.csv").read_text()
        assert ex.read_table_csv(serial / "errors.csv").num_failed == 0
        ckpts = sorted(p.relative_to(serial) for p in serial.glob("*/model.ckpt"))
        assert len(ckpts) == 2
        for path in ckpts:
            assert (serial / path).read_bytes() == (pool / path).read_bytes()


def test_worker_pool_writes_the_serial_errors_and_failures(tmp_path):
    # a diverged cell is a result, not an exception that breaks the pool
    serial, pool = _run_serial_and_pool(
        tmp_path, tiny_overrides(["train.lr=1e9", "sweep.gamma=0.5,0"]))
    for name in ("errors.csv", "failures.csv"):
        assert (serial / name).read_bytes() == (pool / name).read_bytes(), name
    assert "BrokenProcessPool" not in (pool / "failures.csv").read_text()


def test_diverged_cell_leaves_the_other_pool_cells_running(tmp_path):
    cfg = ex.ExperimentConfig.from_file(None, overrides=tiny_overrides(
        ["sweep.beta=1,1e9", "sweep.gamma=0.5,0", "train.epochs=1", "experiment.workers=2"]))
    table, failed = ex.run_experiment(cfg, tmp_path / "pool")
    assert failed == 2 * len(table.columns)
    for gamma in ("0.5", "0"):
        row = table.rows[("vae-nonlinear", "2", f"beta=1;gamma={gamma}")]
        assert ex.FAILED not in row.values()
    with open(tmp_path / "pool" / "failures.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[2] for row in rows] == ["beta=1e+09;gamma=0.5", "beta=1e+09;gamma=0"]
    assert all(row[3].startswith("TrainingDiverged: training diverged") for row in rows)


def test_mech_recon_table_shape(tmp_path):
    cfg = ex.ExperimentConfig.from_file(
        None,
        overrides=[
            "experiment.kind=mech-recon",
            "dataset.kind=arm-torus",
            "dataset.m=120",
            "model.hidden=16,16",
            "model.activation=leaky_relu",
            "train.epochs=4",
            "train.batch_size=32",
            "sweep.latent=torus,r2",
            "sweep.sigma=0,0.5",
            "sweep.eval_epochs=2,4",
        ],
    )
    table, failed = ex.run_experiment(cfg, tmp_path / "mech")
    assert failed == 0
    assert table.columns == ["2", "4", "final"]
    assert sorted(table.rows) == [
        ("vae-2-manifold", "4", "latent=torus;sigma=0"),
        ("vae-2-manifold", "4", "latent=torus;sigma=0.5"),
        ("vae-R2", "2", "latent=r2;sigma=0"),
        ("vae-R2", "2", "latent=r2;sigma=0.5"),
    ]
    assert table_complete(table)
    # final is the error of the model training returned: the last epoch's
    # evaluation, not the best one over the marks
    for row in table.rows.values():
        assert row["final"] == row["4"]


def _save_circle_cloud(path):
    """A 64-point unit circle (m=1) in the plane (n=2) as a quadratic cloud file."""
    theta = np.arange(64) * 2 * np.pi / 64
    write_pointcloud(path, np.stack([np.cos(theta), np.sin(theta)], axis=1), 1)


@pytest.mark.parametrize(
    "latent, row",
    [("pointcloud", ("vae-1-manifold", "2")), ("euclidean", ("vae-R2", "2")),
     ("r2", ("vae-R2", "2"))],
)
def test_mech_recon_row_names_the_trained_latent(tmp_path, latent, row):
    # a circle cloud is a 2-dimensional latent on a 1-manifold; euclidean
    # with latent_dim 2 is the latent r2 names, and gets its row
    cloud = tmp_path / "circle.cloud"
    _save_circle_cloud(cloud)
    cfg = ex.ExperimentConfig.from_file(None, overrides=[
        "experiment.kind=mech-recon", "dataset.m=40", "model.hidden=8", "model.latent_dim=2",
        f"model.pointcloud_file={cloud}", "train.epochs=1", f"sweep.latent={latent}",
    ])
    table, failed = ex.run_experiment(cfg, tmp_path / "mech")
    assert failed == 0
    assert list(table.rows) == [(*row, f"latent={latent};sigma=0")]
    model = vae.load_checkpoint(tmp_path / "mech" / f"latent={latent}_sigma=0" / "model.ckpt")
    assert (f"vae-{model.latent.label}", str(model.latent_dim)) == row


@pytest.mark.parametrize(
    "marks, expected", [("2,4", [0.1, 0.3, 0.3]), ("", [0.7])], ids=["marks", "no-marks"]
)
def test_mech_final_is_the_returned_models_error(tmp_path, monkeypatch, marks, expected):
    # evaluations fall then rise: final must not pick the best mark.  Without
    # marks the returned model is evaluated once after training.
    errors = iter({"2,4": [0.1, 0.3], "": [0.7]}[marks])
    monkeypatch.setattr(ex, "mech_reconstruction_error", lambda model, dataset: next(errors))
    cfg = ex.ExperimentConfig.from_file(
        None,
        overrides=[
            "experiment.kind=mech-recon",
            "dataset.m=60",
            "model.hidden=8",
            "train.epochs=4",
            "sweep.latent=r2",
            f"sweep.eval_epochs={marks}",
        ],
    )
    table, failed = ex.run_experiment(cfg, tmp_path / "mech")
    assert failed == 0
    (row,) = table.rows.values()
    assert [row[c] for c in table.columns] == expected


def test_failed_cell_is_recorded_not_raised(tmp_path):
    cfg = ex.ExperimentConfig.from_file(
        None,
        overrides=tiny_overrides(["train.lr=1e9"]),  # guaranteed divergence
    )
    table, failed = ex.run_experiment(cfg, tmp_path / "diverge")
    assert failed > 0
    assert table.rows[("vae-nonlinear", "2", "beta=1;gamma=0.5")]["0.00s"] == ex.FAILED


def test_nonfinite_cell_result_is_marked_failed(tmp_path, monkeypatch):
    def nan_cell(cfg, out, prepared, beta, gamma, seed):
        return {"0.00s": 0.1, "0.25s": float("nan"), "1.00s": 0.2}

    monkeypatch.setattr(ex, "_burgers_vae_cell", nan_cell)
    cfg = ex.ExperimentConfig.from_file(None, overrides=tiny_overrides())
    table, failed = ex.run_experiment(cfg, tmp_path / "nan")
    assert failed == 1  # the NaN's column; the row's finite values are kept
    assert table.rows[("vae-nonlinear", "2", "beta=1;gamma=0.5")] == {
        "0.00s": 0.1, "0.25s": ex.FAILED, "1.00s": 0.2}
    assert "nan" not in (tmp_path / "nan" / "errors.csv").read_text()


def test_cell_refused_a_nonfinite_table_is_marked_failed(tmp_path, monkeypatch):
    # a cell whose prediction curves hold NaN writes no predictions.csv and
    # fails with the refusal, which names the file, row and column
    def nan_rollout(model, X, n_steps):
        return np.full((n_steps + 1, len(X), model.output_dim), np.nan)

    monkeypatch.setattr(vae, "predict_multistep", nan_rollout)
    cfg = ex.ExperimentConfig.from_file(None, overrides=tiny_overrides())
    out = tmp_path / "sweep"
    table, failed = ex.run_experiment(cfg, out)
    assert failed == 3
    assert set(table.rows[("vae-nonlinear", "2", "beta=1;gamma=0.5")].values()) == {ex.FAILED}
    curves = out / "beta=1_gamma=0.5" / "predictions.csv"
    with open(out / "failures.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [["vae-nonlinear", "2", "beta=1;gamma=0.5",
                                             f"NonFiniteValueError: {curves}: nan in row 1, "
                                             "column 'u_pred'"]]
    assert not curves.exists()


def test_failed_cells_keep_their_error(tmp_path, monkeypatch):
    def one_bad_cell(cfg, out, prepared, beta, gamma, seed):
        if beta == 2.0:
            raise RuntimeError('diverged, "badly"')
        if gamma == 0.0:
            return {"0.00s": 0.1, "0.25s": float("inf"), "1.00s": 0.2}
        return {"0.00s": 0.1, "0.25s": 0.2, "1.00s": 0.3}

    monkeypatch.setattr(ex, "_burgers_vae_cell", one_bad_cell)
    cfg = ex.ExperimentConfig.from_file(
        None, overrides=tiny_overrides(["sweep.beta=1,2", "sweep.gamma=0.5,0"])
    )
    out = tmp_path / "sweep"
    table, failed = ex.run_experiment(cfg, out)
    assert failed == 2 * 3 + 1  # beta=2's two rows, and the Inf's column at beta=1, gamma=0
    assert table.rows[("vae-nonlinear", "2", "beta=1;gamma=0")] == {
        "0.00s": 0.1, "0.25s": ex.FAILED, "1.00s": 0.2}
    with open(out / "failures.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["method", "dim", "sweep", "error"],
        ["vae-nonlinear", "2", "beta=1;gamma=0", "non-finite 0.25s"],
        ["vae-nonlinear", "2", "beta=2;gamma=0.5", 'RuntimeError: diverged, "badly"'],
        ["vae-nonlinear", "2", "beta=2;gamma=0", 'RuntimeError: diverged, "badly"'],
    ]
    assert (out / "errors.csv").read_text().splitlines()[0] == "method,dim,sweep,0.00s,0.25s,1.00s"
    # a rerun without failures leaves no stale failure file
    good = {"0.00s": 0.1, "0.25s": 0.2, "1.00s": 0.3}
    monkeypatch.setattr(ex, "_burgers_vae_cell", lambda *args: good)
    assert ex.run_experiment(cfg, out)[1] == 0
    assert not (out / "failures.csv").exists()


def test_cli_eval_rejects_nonfinite_checkpoint(tmp_path, capsys):
    model = vae.build_vae(64, vae.make_latent("euclidean", dim=2), hidden=(8,), seed=0)
    model.params["dec_b0"][3] = np.nan
    ckpt = tmp_path / "model.ckpt"
    vae.save_checkpoint(model, ckpt)
    field = tmp_path / "field.txt"
    np.savetxt(field, np.sin(2 * np.pi * np.arange(64) / 64))
    out_dir = tmp_path / "rollout"
    argv = ["eval", "--checkpoint", str(ckpt), "--input-field", str(field),
            "--out", str(out_dir), "--steps", "2"]
    assert cli.main(argv) == 2
    assert re.search(re.escape(str(ckpt)) + ".*'dec_b0'", capsys.readouterr().err)
    assert not (out_dir / "rollout.csv").exists()


@pytest.mark.parametrize("defect", ["missing", "damaged"])
@pytest.mark.parametrize(
    "command", ["eval", "export-trace", "input-field", "train", "baselines", "mech-recon"])
def test_cli_bad_input_file_exits_2_naming_it(tmp_path, capsys, command, defect):
    # a checkpoint, an input field, a pair file (dataset.file) and a
    # point-cloud file (model.pointcloud_file) each fail the run before any
    # cell runs
    path = tmp_path / "input.bin"
    if defect == "damaged":
        path.write_text("junk\n")
    ckpt = tmp_path / "model.ckpt"
    vae.save_checkpoint(vae.build_vae(64, vae.make_latent("euclidean", dim=2), hidden=(4,)), ckpt)
    out = str(tmp_path / "out")
    tiny = ["--set", "dataset.m=40", "--set", "dataset.m_train=20", "--set", "model.hidden=4",
            "--set", "train.epochs=1"]
    argv = {
        "eval": ["eval", "--checkpoint", str(path), "--out", out],
        "export-trace": ["export-trace", "--checkpoint", str(path), "--out", out],
        "input-field": ["eval", "--checkpoint", str(ckpt), "--input-field", str(path), "--out", out],
        "train": ["train", "--set", f"dataset.file={path}", "--out", out],
        "baselines": ["baselines", "--set", f"dataset.file={path}", "--out", out],
        "mech-recon": ["sweep", "--set", "experiment.kind=mech-recon", "--set",
                       "sweep.latent=r2,pointcloud", "--set", f"model.pointcloud_file={path}",
                       "--out", out],
    }[command] + tiny * (command in ("train", "mech-recon"))
    assert cli.main(argv) == 2
    assert str(path) in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*/model.ckpt"))


@pytest.mark.parametrize("command", ["train", "baselines"])
def test_cli_pair_file_with_a_nan_exits_2_naming_file_pair_and_path(tmp_path, capsys, command):
    path = tmp_path / "pairs.bin"
    data = bg.generate_burgers_dataset(bg.BurgersConfig(), 4, seed=3)
    Y = data.Y.copy()
    Y[2, 7] = np.nan
    datafiles.save_pairs(path, data.X, Y, 0.02, 0.25)
    argv = [command, "--set", f"dataset.file={path}", "--set", "dataset.m_test=4",
            "--set", "model.hidden=4", "--set", "train.epochs=1", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}: non-finite value in pair 3, target Y\n")


@pytest.mark.parametrize("command", ["train", "baselines"])
def test_cli_pair_file_with_no_pairs_exits_2_naming_it_before_any_cell(tmp_path, capsys,
                                                                      command):
    # without the count check, train ends in a NaN loss and baselines fails every rank
    path = tmp_path / "empty.bin"
    datafiles.save_pairs(path, np.zeros((0, 100)), np.zeros((0, 100)), 0.02, 0.25)
    assert path.stat().st_size == 38
    out = tmp_path / "out"
    argv = [command, "--set", f"dataset.file={path}", "--set", "dataset.m_test=4",
            "--set", "model.hidden=8", "--set", "train.epochs=2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {path}: holds no pairs\n"
    assert not [p for p in out.iterdir() if p.is_dir()]


@pytest.mark.parametrize("command", ["train", "baselines", "sweep", "eval", "gen-data"])
def test_cli_out_at_an_existing_file_exits_2_naming_flag_and_path(tmp_path, capsys, command):
    # train, baselines, sweep and eval make --out itself; gen-data makes the
    # directory its --out file goes in, here a regular file
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    ckpt = tmp_path / "model.ckpt"
    vae.save_checkpoint(vae.build_vae(64, vae.make_latent("euclidean", dim=2), hidden=(4,)), ckpt)
    before = sorted(tmp_path.iterdir())
    argv = {
        "eval": ["eval", "--checkpoint", str(ckpt), "--out", str(taken)],
        "gen-data": ["gen-data", "--kind", "burgers", "--m", "4", "--out", str(taken / "x.bin")],
    }.get(command, [command, "--set", "train.epochs=1", "--out", str(taken)])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: --out: cannot make the directory {taken} (File exists)\n")
    assert taken.read_text() == "a file\n" and sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["input-field", "pointcloud-file"])
def test_cli_text_input_that_does_not_decode_exits_2_naming_it(tmp_path, capsys, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"1 2 4 quadratic\n\x94\xb2\xff\n")
    ckpt = tmp_path / "model.ckpt"
    vae.save_checkpoint(vae.build_vae(64, vae.make_latent("euclidean", dim=2), hidden=(4,)), ckpt)
    out = tmp_path / "out"
    argv = {
        "input-field": ["eval", "--checkpoint", str(ckpt), "--input-field", str(path)],
        "pointcloud-file": ["sweep", "--set", "experiment.kind=mech-recon",
                            "--set", "model.latent=pointcloud",
                            "--set", f"model.pointcloud_file={path}"],
    }[command]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}: not utf-8 text (byte 16: invalid start byte)\n")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("header", ["2 4 3 klein 2 1", "2 4 3 circles 1 1"])
def test_cli_analytic_cloud_file_exits_2_naming_it(tmp_path, capsys, header):
    # the closed-form latents are settings (model.latent=klein|torus), not files
    path = tmp_path / "old.cloud"
    path.write_text(header + "\n" + "1 0 0 0 0 0\n" * 3)
    argv = ["sweep", "--set", "experiment.kind=mech-recon", "--set", "sweep.latent=pointcloud",
            "--set", f"model.pointcloud_file={path}", "--set", "dataset.m=40",
            "--set", "model.hidden=4", "--set", "train.epochs=1", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: a '{header.split()[3]}' point cloud")
    assert "model.latent=klein|torus" in err


@pytest.mark.parametrize("key, value", [
    ("dataset.alpha_max", "nan"), ("dataset.alpha_min", "2"), ("dataset.t_max", "inf"),
    ("dataset.t_min", "-1"), ("dataset.test_t_max", "inf"), ("dataset.test_t_min", "nan"),
    ("dataset.nu", "nan"), ("dataset.tau", "inf"), ("dataset.nu", "0"), ("dataset.n_x", "15"),
])
@pytest.mark.parametrize("command", ["baselines", "train", "sweep"])
def test_cli_bad_burgers_config_key_exits_2_naming_it(tmp_path, capsys, monkeypatch, command,
                                                      key, value):
    # the [dataset] keys pass the checks the gen-data flags do, before any draw
    monkeypatch.setattr(bg, "sample_burgers_states", _evolution_forbidden)
    monkeypatch.setattr(bg, "evolve_exact", _evolution_forbidden)
    out = tmp_path / "out"
    sets = ["dataset.m_train=8", "dataset.m_test=4", "model.hidden=4", "train.epochs=1",
            f"{key}={value}"]
    assert cli.main([command, "--out", str(out)] + [a for i in sets for a in ("--set", i)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dataset.") and key in err.split(" must be ")[0]
    assert not [p for p in out.iterdir() if p.is_dir()]


@pytest.mark.parametrize("command, key, value", [
    ("train", "train.lr", "nan"), ("train", "train.beta", "inf"), ("train", "model.sigma_e", "nan"),
    ("train", "model.sigma_d", "inf"), ("train", "model.lambda0_init", "-inf"),
    ("sweep", "dataset.sigma", "nan"), ("train", "sweep.horizons", "1,x"),
])
def test_cli_bad_setting_exits_2_naming_it_before_any_cell(tmp_path, capsys, command, key, value):
    # a value that is not finite, or does not parse, stops the run in set-up
    out = tmp_path / "out"
    kind = "mech-recon" if key == "dataset.sigma" else "burgers-vae"
    sets = [f"experiment.kind={kind}", "dataset.m_train=8", "dataset.m_test=4", "dataset.m=40",
            "model.hidden=4", "train.epochs=1", f"{key}={value}"]
    assert cli.main([command, "--out", str(out)] + [a for i in sets for a in ("--set", i)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be ")
    assert not [p for p in out.iterdir() if p.is_dir()]


@pytest.mark.parametrize("key, value", [("train.lr", "nan"), ("sweep.horizons", "1,x")])
def test_cli_run_refused_in_set_up_writes_no_config_ini(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    sets = ["dataset.m_train=8", "dataset.m_test=4", "model.hidden=4", "train.epochs=1",
            f"{key}={value}"]
    assert cli.main(["train", "--out", str(out)] + [a for i in sets for a in ("--set", i)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be ")
    assert list(out.iterdir()) == []


def test_sweep_prepares_shared_data_and_latents_once(tmp_path, monkeypatch):
    # every cell of a run shares one read of dataset.file, one drawn test
    # set, one clean mechanics set, one noisy split per sigma and one cloud
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    pairs, cloud = tmp_path / "pairs.bin", tmp_path / "torus.cloud"
    data = bg.generate_burgers_dataset(bg.BurgersConfig(n_x=64), 40, seed=3)
    datafiles.save_pairs(pairs, data.X, data.Y, 0.02, 0.25)
    _save_quadratic_torus_cloud(cloud)
    for module, name in [(datafiles, "load_pairs"), (bg, "sample_burgers_states"),
                         (mech, "generate_arm_torus"), (mech, "add_noise"),
                         (mf, "load_pointcloud")]:
        count(module, name)

    cfg = ex.ExperimentConfig.from_file(None, overrides=tiny_overrides(
        [f"dataset.file={pairs}", "sweep.beta=1,2", "sweep.gamma=0.5,0", "train.epochs=1"]))
    assert ex.run_experiment(cfg, tmp_path / "burgers")[1] == 0
    assert calls == {"load_pairs": 1, "sample_burgers_states": 1}

    calls.clear()
    cfg = ex.ExperimentConfig.from_file(None, overrides=[
        "experiment.kind=mech-recon", "dataset.m=40", "model.hidden=8", "train.epochs=1",
        f"model.pointcloud_file={cloud}", "sweep.latent=pointcloud,torus,r4",
        "sweep.sigma=0,0.05",
    ])
    table, failed = ex.run_experiment(cfg, tmp_path / "mech")
    assert failed == 0 and len(table.rows) == 6
    assert calls == {"generate_arm_torus": 1, "add_noise": 2, "load_pointcloud": 1}


@pytest.mark.parametrize("case", ["baselines-m_test", "burgers-vae-m_test", "mech-dataset-kind",
                                  "mech-epochs-before-mark", "klein-radii", "shared-row"])
def test_bad_shared_setting_exits_2_before_any_cell(tmp_path, capsys, case):
    mech_run = ["experiment.kind=mech-recon", "dataset.m=40", "model.hidden=8", "train.epochs=2",
                "sweep.latent=r2"]
    overrides = {
        "baselines-m_test": ["dataset.m_test=0"],
        "burgers-vae-m_test": ["dataset.m_test=0", "sweep.gamma=0.5,0"],
        "mech-dataset-kind": mech_run + ["dataset.kind=pendulum"],
        "mech-epochs-before-mark": mech_run + ["sweep.eval_epochs=1,4"],
        "klein-radii": mech_run + ["sweep.latent=klein", "model.klein_a=0.5"],
        # two cells, one row
        "shared-row": mech_run + ["sweep.sigma=0,0"],
    }[case]
    command = "baselines" if case.startswith("baselines") else "sweep"
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    for item in tiny_overrides(overrides):
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not [p for p in out.iterdir() if p.is_dir()]
    assert not (out / "errors.csv").exists()


# one value outside the domain ex.KEYS declares, for every key it declares
OUT_OF_DOMAIN = {
    "experiment.kind": "pendulum", "experiment.seed": "-1", "experiment.workers": "0",
    "dataset.n_x": "15", "dataset.nu": "0", "dataset.tau": "-1", "dataset.m_train": "0",
    "dataset.m_test": "0", "dataset.alpha_min": "nan", "dataset.alpha_max": "inf",
    "dataset.t_min": "-1", "dataset.t_max": "-0.5", "dataset.test_t_min": "-1",
    "dataset.test_t_max": "x", "dataset.kind": "pendulum", "dataset.m": "0",
    "dataset.sigma": "-1", "dataset.train_fraction": "1.5",
    "model.variant": "quadratic", "model.latent": "r0", "model.latent_dim": "0",
    "model.hidden": "0,8", "model.activation": "tanh", "model.leaky_slope": "1",
    "model.sigma_e": "-1", "model.sigma_d": "0", "model.sigma_0": "0", "model.flow": "linear",
    "model.lambda0_init": "inf", "model.projection_policy": "warn", "model.klein_a": "0",
    "model.klein_b": "-1", "model.klein_resolution": "63",
    "train.beta": "-1", "train.gamma": "-0.5", "train.lr": "-1", "train.batch_size": "0",
    "train.epochs": "-1", "train.eval_every": "-1",
    "sweep.beta": "1,1", "sweep.gamma": "0.5,-1", "sweep.sigma": "0,0", "sweep.latent": "torus,r0",
    "sweep.dmd_ranks": "3,3", "sweep.pod_ranks": "0", "sweep.ch_dims": "3",
    "sweep.horizons": "0,-1", "sweep.eval_epochs": "1,1",
}
# keys every value of which is in their domain
NO_OUT_OF_DOMAIN = {
    "dataset.file": "a path: a missing or damaged file is refused where it is read",
    "model.pointcloud_file": "a path: a missing or damaged file is refused where it is read",
}


@pytest.mark.parametrize("key", [f"{section}.{key}" for section, keys in ex.KEYS.items()
                                 for key in keys if f"{section}.{key}" not in NO_OUT_OF_DOMAIN])
def test_every_key_out_of_its_domain_exits_2_naming_it(tmp_path, capsys, monkeypatch, key):
    monkeypatch.setattr(bg, "evolve_exact", _evolution_forbidden)
    out = tmp_path / "out"
    sets = tiny_overrides(["dataset.m=40", "model.hidden=4", "train.epochs=1",
                           f"{key}={OUT_OF_DOMAIN[key]}"])
    assert cli.main(["sweep", "--out", str(out)] + [a for i in sets for a in ("--set", i)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be ")
    assert list(out.iterdir()) == []


# (dataclass, field, its config key, its checkpoint header field), None where
# there is none; model.latent also takes the sweep shorthand rN, so it is not
# a LatentSpec kind's domain
_DECLARED = [
    *((vae.VaeModel, name, f"model.{name}", name)
      for name in ("activation", "leaky_slope", "sigma_e", "sigma_d", "sigma_0", "flow")),
    (vae.VaeModel, "tau", "dataset.tau", "tau"),
    (vae.LatentSpec, "kind", None, "latent_kind"),
    (vae.LatentSpec, "dim", "model.latent_dim", "latent_dim"),
    (vae.LatentSpec, "policy", "model.projection_policy", "latent_policy"),
    *((mf.KleinConfig, name, f"model.klein_{name}", "klein") for name in ("a", "b", "resolution")),
    *((vae.TrainConfig, name, f"train.{name}", None)
      for name in ("beta", "gamma", "lr", "batch_size", "epochs", "eval_every")),
    (vae.TrainConfig, "seed", "experiment.seed", None),
    *((bg.BurgersConfig, name, f"dataset.{name}", None) for name in ("nu", "tau", "n_x")),
    (bg.Grid, "n_x", "dataset.n_x", None),
    (mech.ArmConfig, "l1", None, None), (mech.ArmConfig, "l2", None, None),
]


def test_each_setting_has_one_domain_object_for_field_key_and_header():
    header = {key: domain for key, _, domain in vae._HEADER}
    declared = {(cls, f.name): f.metadata["domain"] for cls, *_ in _DECLARED
                for f in dataclasses.fields(cls) if "domain" in f.metadata}
    assert sorted(declared, key=str) == sorted(((c, n) for c, n, *_ in _DECLARED), key=str)
    for cls, name, key, header_key in _DECLARED:
        domain = declared[cls, name]
        if key is not None:
            section, option = key.split(".")
            assert ex.KEYS[section][option][1] is domain, key
        if header_key == "klein":  # a record of KleinConfig's fields, each read by its domain
            assert header[header_key].cls is cls
        elif header_key is not None:
            assert header[header_key] is domain, header_key


@pytest.mark.parametrize("argv, key", [
    (["sweep", "--workers", "0"], "experiment.workers"),
    (["baselines", "--set", "sweep.horizons=1,1"], "sweep.horizons"),
    (["baselines", "--set", "sweep.dmd_ranks=3,3"], "sweep.dmd_ranks"),
    (["sweep", "--set", "sweep.horizons="], "sweep.horizons"),
    # a mode count above the grid size, and a mechanics set too small to split
    (["baselines", "--set", "sweep.ch_dims=200", "--set", "dataset.m_test=4",
      "--set", "dataset.m_train=16"], "sweep.ch_dims"),
    (["sweep", "--set", "experiment.kind=mech-recon", "--set", "dataset.m=1"], "dataset.m"),
    (["sweep", "--set", "experiment.kind=mech-recon", "--set", "dataset.m=2"], "dataset.m"),
    (["sweep", "--set", "experiment.kind=mech-recon", "--set", "dataset.m=10",
      "--set", "dataset.train_fraction=0.01"], "dataset.m"),
])
def test_command_setting_or_repeated_entry_exits_2_naming_its_key(tmp_path, capsys, monkeypatch,
                                                                 argv, key):
    # --workers is an override applied last and checked like any other; a
    # repeated sweep entry would write one column or row twice
    monkeypatch.setattr(bg, "evolve_exact", _evolution_forbidden)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be ")
    assert list(out.iterdir()) == []


def test_cli_mech_recon_sweep_over_klein_and_pointcloud(tmp_path, monkeypatch):
    cloud_file = tmp_path / "torus.cloud"
    _save_quadratic_torus_cloud(cloud_file)
    trained = {}
    save_checkpoint = vae.save_checkpoint

    def save_and_keep(model, path):
        trained[path] = model
        save_checkpoint(model, path)

    monkeypatch.setattr(vae, "save_checkpoint", save_and_keep)
    out = tmp_path / "mech"
    overrides = [
        "experiment.kind=mech-recon",
        "dataset.m=64",
        "model.hidden=8,8",
        "model.klein_resolution=64",
        f"model.pointcloud_file={cloud_file}",
        "train.epochs=2",
        "sweep.latent=klein,pointcloud",
        "sweep.sigma=0.05",
    ]
    argv = ["sweep", "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    table = ex.read_table_csv(out / "errors.csv")
    assert table.num_failed == 0
    # both latents are 2-manifolds in R^4: the sweep column tells their rows apart
    assert sorted(table.rows) == [
        ("vae-2-manifold", "4", "latent=klein;sigma=0.05"),
        ("vae-2-manifold", "4", "latent=pointcloud;sigma=0.05"),
    ]
    assert sorted(p.parent.name for p in trained) == [
        "latent=klein_sigma=0.05",
        "latent=pointcloud_sigma=0.05",
    ]
    X = np.random.default_rng(0).normal(size=(5, 4))
    for path, model in trained.items():
        loaded = vae.load_checkpoint(path)
        assert loaded.latent.kind == model.latent.kind
        np.testing.assert_array_equal(
            vae.predict_multistep(loaded, X, 0), vae.predict_multistep(model, X, 0)
        )


# ---------------------------------------------------------------------------
# latent trace export


def test_export_trace_empty_and_counts(tmp_path):
    model = vae.build_vae(8, vae.make_latent("euclidean", dim=2), hidden=(8,), seed=0)
    path = tmp_path / "trace.csv"
    n = ex.export_latent_trace(model, np.empty((0, 8)), [], [], path, n_steps=3)
    assert n == 0
    assert path.read_text().strip() == "alpha,t,step,z0,z1"

    data = bg.generate_burgers_dataset(bg.BurgersConfig(n_x=8 * 8), 3, seed=0)
    model8 = vae.build_vae(64, vae.make_latent("euclidean", dim=2), hidden=(8,), seed=0)
    n = ex.export_latent_trace(model8, data.X, data.alpha, data.t, path, n_steps=3)
    assert n == 3 * 4
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 12
    # sample-major rows; step k is the encoding advanced k times by the flow
    z = vae.encode(model8, data.X)
    factor = vae.flow_factor(model8)
    for i in range(3):
        for k in range(4):
            alpha, t, step, *zs = lines[1 + 4 * i + k].split(",")
            assert (float(alpha), float(t), int(step)) == pytest.approx((data.alpha[i], data.t[i], k))
            np.testing.assert_allclose([float(v) for v in zs], z[i] * factor**k, rtol=1e-9)


def test_export_trace_rejects_high_dims(tmp_path):
    model = vae.build_vae(8, vae.make_latent("euclidean", dim=4), hidden=(8,), seed=0)
    with pytest.raises(ValueError, match="visualizable"):
        ex.export_latent_trace(model, np.empty((0, 8)), [], [], tmp_path / "t.csv")


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_data_and_text_export(tmp_path):
    out = tmp_path / "data.bin"
    txt = tmp_path / "data.csv"
    rc = cli.main(
        [
            "gen-data",
            "--kind",
            "burgers",
            "--out",
            str(out),
            "--m",
            "4",
            "--n-x",
            "64",
            "--text",
            str(txt),
        ]
    )
    assert rc == 0
    X, Y, header = datafiles.load_pairs(out)
    assert X.shape == (4, 64)
    assert header.param2 == pytest.approx(0.25)
    assert txt.read_text().startswith("x0,")


def test_cli_gen_data_mech(tmp_path):
    out = tmp_path / "arm.bin"
    rc = cli.main(
        ["gen-data", "--kind", "arm-torus", "--out", str(out), "--m", "6", "--sigma", "0.1"]
    )
    assert rc == 0
    X, Y, header = datafiles.load_pairs(out)
    assert X.shape == (6, 4)
    assert header.param1 == pytest.approx(0.1)
    assert not np.array_equal(X, Y)


def test_cli_train_eval_trace_roundtrip(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[dataset]\nn_x = 64\nm_train = 30\nm_test = 8\n"
        "[model]\nhidden = 16,16\n"
        "[train]\nepochs = 2\nbatch_size = 15\n"
        "[sweep]\nhorizons = 1,2\n"
    )
    run_dir = tmp_path / "run"
    rc = cli.main(["train", "--config", str(ini), "--out", str(run_dir)])
    assert rc == 0
    ckpt = run_dir / "beta=1_gamma=0.5" / "model.ckpt"
    assert ckpt.exists()

    eval_dir = tmp_path / "eval"
    rc = cli.main(
        ["eval", "--checkpoint", str(ckpt), "--config", str(ini), "--out", str(eval_dir)]
    )
    assert rc == 0
    run_table = ex.read_table_csv(run_dir / "errors.csv")
    eval_table = ex.read_table_csv(eval_dir / "errors.csv")
    key = ("vae-nonlinear", "2", "beta=1;gamma=0.5")
    for col in eval_table.columns:
        assert eval_table.cell("vae-checkpoint", 2, "", col) == run_table.rows[key][col]

    trace = tmp_path / "trace.csv"
    rc = cli.main(
        ["export-trace", "--checkpoint", str(ckpt), "--out", str(trace), "--alphas", "0,1"]
    )
    assert rc == 0
    assert len(trace.read_text().strip().splitlines()) == 1 + 2 * 5


def test_cli_eval_marks_nonfinite_error_failed(tmp_path, monkeypatch):
    ckpt = tmp_path / "model.ckpt"
    vae.save_checkpoint(vae.build_vae(64, vae.make_latent("euclidean", dim=2), hidden=(4,)), ckpt)
    ini = tmp_path / "exp.ini"
    ini.write_text("[dataset]\nn_x = 64\nm_train = 4\nm_test = 2\n[sweep]\nhorizons = 1\n")
    errors = {"0.00s": 0.1, "0.25s": float("nan")}
    monkeypatch.setattr(ex, "evaluate_burgers_model", lambda *args: errors)
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(ckpt), "--config", str(ini), "--out", str(out)]
    assert cli.main(argv) == 1
    table = ex.read_table_csv(out / "errors.csv")
    assert table.cell("vae-checkpoint", 2, "", "0.00s") == 0.1
    assert table.cell("vae-checkpoint", 2, "", "0.25s") == ex.FAILED
    assert (out / "failures.csv").read_text().splitlines() == [
        "method,dim,sweep,error", "vae-checkpoint,2,,non-finite 0.25s"]


def test_cli_eval_builds_only_the_test_set(tmp_path):
    # eval never reads dataset.file (the training pairs): a missing one
    # changes neither the exit code nor errors.csv
    ckpt = tmp_path / "model.ckpt"
    vae.save_checkpoint(vae.build_vae(64, vae.make_latent("euclidean", dim=2), hidden=(4,)), ckpt)
    ini = tmp_path / "exp.ini"
    ini.write_text("[dataset]\nn_x = 64\nm_test = 3\n[sweep]\nhorizons = 1,2\n")
    tables = []
    for extra in ([], ["--set", f"dataset.file={tmp_path / 'missing.bin'}"]):
        out = tmp_path / f"eval{len(tables)}"
        argv = ["eval", "--checkpoint", str(ckpt), "--config", str(ini), "--out", str(out)]
        assert cli.main(argv + extra) == 0
        tables.append((out / "errors.csv").read_bytes())
    assert tables[0] == tables[1]


def test_cli_eval_custom_input_field(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[dataset]\nn_x = 64\nm_train = 20\nm_test = 4\n[model]\nhidden = 8,8\n"
        "[train]\nepochs = 1\nbatch_size = 10\n[sweep]\nhorizons = 1\n"
    )
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(ini), "--out", str(run_dir)]) == 0
    ckpt = run_dir / "beta=1_gamma=0.5" / "model.ckpt"

    field = tmp_path / "field.txt"
    x = np.arange(64) / 64
    np.savetxt(field, np.sin(4 * np.pi * x))  # outside the training family
    out_dir = tmp_path / "rollout"
    rc = cli.main(
        [
            "eval",
            "--checkpoint",
            str(ckpt),
            "--input-field",
            str(field),
            "--out",
            str(out_dir),
            "--steps",
            "2",
        ]
    )
    assert rc == 0
    lines = (out_dir / "rollout.csv").read_text().strip().splitlines()
    assert lines[0] == "step,x,u_pred"
    assert len(lines) == 1 + 3 * 64


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_eval_rejects_nonfinite_input_field(tmp_path, capsys, bad):
    ckpt = tmp_path / "model.ckpt"
    model = vae.build_vae(64, vae.make_latent("euclidean", dim=2), hidden=(8,), seed=0)
    vae.save_checkpoint(model, ckpt)
    values = [f"{v:.6f}" for v in np.sin(2 * np.pi * np.arange(64) / 64)]
    values[9] = bad
    field = tmp_path / "field.txt"
    field.write_text("# one value per line\n" + "\n".join(values) + "\n")
    out_dir = tmp_path / "rollout"
    argv = ["eval", "--checkpoint", str(ckpt), "--input-field", str(field), "--out", str(out_dir)]
    assert cli.main(argv) == 2
    assert f"{field}:11: non-finite value" in capsys.readouterr().err
    assert not (out_dir / "rollout.csv").exists()


def test_cli_parser_is_reused_without_carrying_values():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["sweep", "--out", "o", "--set", "a.b=1", "--set", "c.d=2"])
    assert first.overrides == ["a.b=1", "c.d=2"]
    again = parser.parse_args(["eval", "--checkpoint", "c", "--out", "o", "--set", "e.f=3"])
    assert again.overrides == ["e.f=3"]
    assert parser.parse_args(["sweep", "--out", "o"]).overrides == []
    assert first.overrides == ["a.b=1", "c.d=2"]


@pytest.mark.parametrize("command", ["baselines", "train"])
@pytest.mark.parametrize("key, value", [("m_test", 0), ("m_train", -3)])
def test_cli_bad_sample_count_names_its_setting(tmp_path, capsys, command, key, value):
    argv = [command, "--out", str(tmp_path / "out"), "--set", f"dataset.{key}={value}"]
    assert cli.main(argv) == 2
    assert f"config error: dataset.{key} must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("marks, low", [("0,2", 0), ("2,-1", -1)])
def test_cli_eval_epochs_below_one_names_its_setting(tmp_path, capsys, marks, low):
    out = tmp_path / "out"
    argv = ["sweep", "--out", str(out)]
    for item in ["experiment.kind=mech-recon", "dataset.m=40", "model.hidden=8",
                 "train.epochs=2", f"sweep.eval_epochs={marks}"]:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: sweep.eval_epochs must be at least 1, got {low}" in err
    assert not (out / "errors.csv").exists()


def test_cli_pair_file_made_with_other_nu_tau_exits_2_naming_both(tmp_path, capsys):
    pairs = tmp_path / "pairs.bin"
    assert cli.main(["gen-data", "--kind", "burgers", "--out", str(pairs), "--m", "8",
                     "--n-x", "64", "--nu", "0.05", "--tau", "0.5"]) == 0
    out = tmp_path / "out"
    argv = ["baselines", "--out", str(out), "--set", f"dataset.file={pairs}", "--set",
            "dataset.n_x=64", "--set", "dataset.m_test=4"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{pairs}: made with (nu, tau, n_x) = (0.05, 0.5, 64), but [dataset] sets " \
           "(0.02, 0.25, 64)" in err
    assert not (out / "errors.csv").exists()
    assert cli.main(argv + ["--set", "dataset.nu=0.05", "--set", "dataset.tau=0.5"]) == 0


def test_cli_nonfinite_rollout_and_trace_exit_1_naming_the_file(tmp_path, capsys):
    # finite inputs and weights whose products overflow: the rollout and the
    # latent trace hold NaN, and neither file is written
    model = vae.build_vae(64, vae.make_latent("euclidean", dim=2), hidden=(16, 16), seed=0)
    ckpt = tmp_path / "model.ckpt"
    vae.save_checkpoint(model, ckpt)
    field = tmp_path / "field.txt"
    field.write_text("1.5e308\n" * 64)
    out = tmp_path / "rollout"
    argv = ["eval", "--checkpoint", str(ckpt), "--input-field", str(field), "--out", str(out)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'rollout.csv'}: nan in row 1, column 'u_pred'")
    assert not (out / "rollout.csv").exists()

    model.params["enc_W0"][:] = 1e308
    vae.save_checkpoint(model, ckpt)
    trace = tmp_path / "trace.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["export-trace", "--checkpoint", str(ckpt), "--out", str(trace)]) == 1
    assert re.match(re.escape(f"error: {trace}: ") + r"-?(nan|inf) in row 1, column 'z0'",
                    capsys.readouterr().err)
    assert not trace.exists()


def _evolution_forbidden(*args, **kwargs):
    raise AssertionError("a field was evolved before the flags were checked")


@pytest.mark.parametrize("kind,flag,value", [
    ("burgers", "--nu", "0"), ("burgers", "--tau", "0"), ("burgers", "--m", "0"),
    ("burgers", "--n-x", "15"), ("burgers", "--t-range", "0,-1"),
    ("burgers", "--alpha-range", "0,x"), ("arm-torus", "--sigma", "-1"), ("burgers", "--seed", "-1"),
])
def test_cli_gen_data_bad_flag_exits_2_naming_it(tmp_path, capsys, monkeypatch, kind, flag, value):
    monkeypatch.setattr(bg, "evolve_exact", _evolution_forbidden)
    out = tmp_path / "data" / "pairs.bin"
    assert cli.main(["gen-data", "--kind", kind, "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag,value", [
    ("--checkpoint", None), ("--alphas", "0,x"), ("--t", "-1"), ("--nu", "0"), ("--steps", "-2"),
])
def test_cli_export_trace_bad_flag_exits_2_naming_it(tmp_path, capsys, monkeypatch, flag, value):
    # flag --checkpoint: a torus latent has 4 dimensions, too many to plot
    latent = vae.make_latent("torus" if value is None else "euclidean")
    ckpt = tmp_path / "model.ckpt"
    vae.save_checkpoint(vae.build_vae(64, latent, hidden=(4,)), ckpt)
    monkeypatch.setattr(bg, "evolve_exact", _evolution_forbidden)
    files = sorted(tmp_path.iterdir())
    argv = ["export-trace", "--checkpoint", str(ckpt), "--out", str(tmp_path / "trace.csv")]
    assert cli.main(argv + ([flag, value] if value is not None else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} ")
    assert sorted(tmp_path.iterdir()) == files


def test_cli_eval_negative_steps_exits_2_before_loading(tmp_path, capsys, monkeypatch):
    def load_forbidden(path):
        raise AssertionError("the checkpoint was loaded before the flags were checked")

    monkeypatch.setattr(vae, "load_checkpoint", load_forbidden)
    field = tmp_path / "field.txt"
    np.savetxt(field, np.sin(2 * np.pi * np.arange(64) / 64))
    argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--input-field", str(field),
            "--out", str(tmp_path / "rollout"), "--steps", "-2"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: --steps must be nonnegative, got -2")
    assert sorted(tmp_path.iterdir()) == [field]


def test_cli_config_error_exit_code(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[experiment]\nkind = nonsense\n")
    rc = cli.main(["sweep", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    rc = cli.main(["train", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path)])
    assert rc == 2


def test_cli_partial_failure_exit_code(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[dataset]\nn_x = 64\nm_train = 20\nm_test = 4\n[model]\nhidden = 8,8\n"
        "[train]\nepochs = 2\nbatch_size = 10\nlr = 1e9\n[sweep]\nhorizons = 1\n"
    )
    rc = cli.main(["train", "--config", str(ini), "--out", str(tmp_path / "run")])
    assert rc == 1
