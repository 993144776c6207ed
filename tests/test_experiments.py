import csv
import os
import re

import numpy as np
import pytest

from mvrom import burgers as bg
from mvrom import cli
from mvrom import datafiles
from mvrom import experiments as ex
from mvrom import manifold as mf
from mvrom import vae


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
    table.mark_failed("pod", 3, "", "0.25s")
    table.add("pod", 3, "", "0.50s", 0.4)
    path = tmp_path / "errors.csv"
    table.write_csv(path)
    loaded = ex.read_table_csv(path)
    assert loaded.cell("dmd", 3, "", "0.25s") == pytest.approx(0.221)
    assert loaded.cell("pod", 3, "", "0.25s") == ex.FAILED
    assert loaded.num_failed == 1
    assert table.num_failed == 1


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
    assert cfg.get_int("experiment", "seed") == 3
    assert cfg.get_int("dataset", "n_x") == 64
    assert cfg.get_float("dataset", "nu") == pytest.approx(0.02)


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
    assert cfg2.get_int("train", "epochs") == 7


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
    assert table.complete()
    # deterministic reruns: byte-identical artifacts
    ex.run_experiment(cfg, tmp_path / "b")
    a = (tmp_path / "a" / "errors.csv").read_bytes()
    b = (tmp_path / "b" / "errors.csv").read_bytes()
    assert a == b


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
    config, _, test_pairs = ex.generate_burgers_sets(cfg, cfg.get_int("experiment", "seed"))
    errors = ex.evaluate_burgers_model(model, test_pairs, config, [1, 4])
    for col, val in errors.items():
        assert table.cell("vae-nonlinear", 2, "beta=1;gamma=0.5", col) == val


def test_burgers_vae_sweep_worker_pool_matches_serial(tmp_path):
    overrides = tiny_overrides(["sweep.gamma=0,0.5", "train.epochs=2"])
    cfg1 = ex.ExperimentConfig.from_file(None, overrides=overrides)
    ex.run_experiment(cfg1, tmp_path / "serial")
    cfg2 = ex.ExperimentConfig.from_file(None, overrides=overrides + ["experiment.workers=2"])
    ex.run_experiment(cfg2, tmp_path / "pool")
    serial = (tmp_path / "serial" / "errors.csv").read_text()
    pool = (tmp_path / "pool" / "errors.csv").read_text()
    assert serial == pool


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
    assert ("vae-2-manifold", "4", "sigma=0") in table.rows
    assert ("vae-2-manifold", "4", "sigma=0.5") in table.rows
    assert ("vae-R2", "2", "sigma=0") in table.rows
    assert table.complete()
    # final is the lowest recorded evaluation
    row = table.rows[("vae-R2", "2", "sigma=0")]
    assert row["final"] <= min(row["2"], row["4"]) + 1e-12


def test_failed_cell_is_recorded_not_raised(tmp_path):
    cfg = ex.ExperimentConfig.from_file(
        None,
        overrides=tiny_overrides(["train.lr=1e9"]),  # guaranteed divergence
    )
    table, failed = ex.run_experiment(cfg, tmp_path / "diverge")
    assert failed > 0
    assert table.rows[("vae-nonlinear", "2", "beta=1;gamma=0.5")]["0.00s"] == ex.FAILED


def test_nonfinite_cell_result_is_marked_failed(tmp_path, monkeypatch):
    def nan_cell(sections, out, beta, gamma, seed):
        return {"0.00s": 0.1, "0.25s": float("nan"), "1.00s": 0.2}

    monkeypatch.setattr(ex, "_burgers_vae_cell", nan_cell)
    cfg = ex.ExperimentConfig.from_file(None, overrides=tiny_overrides())
    table, failed = ex.run_experiment(cfg, tmp_path / "nan")
    assert failed == 3
    assert set(table.rows[("vae-nonlinear", "2", "beta=1;gamma=0.5")].values()) == {ex.FAILED}
    assert "nan" not in (tmp_path / "nan" / "errors.csv").read_text()


def test_failed_cells_keep_their_error(tmp_path, monkeypatch):
    def one_bad_cell(sections, out, beta, gamma, seed):
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
    assert failed == 3 * 3  # beta=2 (both gammas) and gamma=0 at beta=1, three columns each
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


def test_cli_eval_rejects_nonfinite_checkpoint(tmp_path):
    model = vae.build_vae(64, vae.euclidean_latent(2), hidden=(8,), seed=0)
    model.params["dec_b0"][3] = np.nan
    ckpt = tmp_path / "model.ckpt"
    vae.save_checkpoint(model, ckpt)
    field = tmp_path / "field.txt"
    np.savetxt(field, np.sin(2 * np.pi * np.arange(64) / 64))
    out_dir = tmp_path / "rollout"
    with pytest.raises(ValueError, match=re.escape(str(ckpt)) + ".*'dec_b0'"):
        cli.main(["eval", "--checkpoint", str(ckpt), "--input-field", str(field),
                  "--out", str(out_dir), "--steps", "2"])
    assert not (out_dir / "rollout.csv").exists()


def test_cli_mech_recon_sweep_over_klein_and_pointcloud(tmp_path, monkeypatch):
    cloud_file = tmp_path / "torus.cloud"
    points = mf.build_torus_pointcloud(resolution=64).points
    mf.PointCloudManifold(2, 4, points, "quadratic").save(cloud_file)
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
    assert ex.read_table_csv(out / "errors.csv").num_failed == 0
    assert sorted(p.parent.name for p in trained) == [
        "latent=klein_sigma=0.05",
        "latent=pointcloud_sigma=0.05",
    ]
    X = np.random.default_rng(0).normal(size=(5, 4))
    for path, model in trained.items():
        loaded = vae.load_checkpoint(path)
        assert loaded.latent.kind == model.latent.kind
        for x in X:
            np.testing.assert_array_equal(
                vae.predict_multistep(loaded, x, 0), vae.predict_multistep(model, x, 0)
            )


# ---------------------------------------------------------------------------
# latent trace export


def test_export_trace_empty_and_counts(tmp_path):
    model = vae.build_vae(8, vae.euclidean_latent(2), hidden=(8,), seed=0)
    path = tmp_path / "trace.csv"
    n = ex.export_latent_trace(model, [], path, n_steps=3)
    assert n == 0
    assert path.read_text().strip() == "alpha,t,step,z0,z1"

    pairs = bg.generate_burgers_dataset(bg.BurgersConfig(n_x=8 * 8), 3, seed=0)
    model8 = vae.build_vae(64, vae.euclidean_latent(2), hidden=(8,), seed=0)
    n = ex.export_latent_trace(model8, pairs, path, n_steps=3)
    assert n == 3 * 4
    assert len(path.read_text().strip().splitlines()) == 1 + 12


def test_export_trace_rejects_high_dims(tmp_path):
    model = vae.build_vae(8, vae.euclidean_latent(4), hidden=(8,), seed=0)
    with pytest.raises(ValueError, match="visualizable"):
        ex.export_latent_trace(model, [], tmp_path / "t.csv")


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
    vae.save_checkpoint(vae.build_vae(64, vae.euclidean_latent(2), hidden=(4,)), ckpt)
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
