"""What a run loads: ``scipy.spatial``, and the ``scipy.linalg`` and
``scipy.sparse`` it pulls in, are imported only when a quadratic cloud
builds its k-d tree.

Each check runs in a fresh interpreter, because this test process has
already imported them (``oracles`` builds k-d trees).
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mvrom

HEAVY = ("scipy.spatial", "scipy.linalg", "scipy.sparse")


def _run(tmp_path, body):
    """Run ``body`` in a fresh interpreter; returns the HEAVY modules loaded."""
    script = textwrap.dedent(body) + f"\nimport sys\nprint([m for m in {HEAVY} if m in sys.modules])\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(mvrom.__file__).parents[1])] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_klein_and_burgers_cli_runs_never_load_scipy_spatial(tmp_path):
    loaded = _run(tmp_path, """
        from mvrom import cli

        def run(*argv):
            assert cli.main(list(argv)) == 0, argv

        tiny = ["--set", "model.hidden=8,8", "--set", "train.epochs=1"]
        run("train", "--out", "klein", *tiny, "--set", "experiment.kind=mech-recon",
            "--set", "dataset.kind=klein", "--set", "dataset.m=40",
            "--set", "model.latent=klein", "--set", "model.projection_policy=skip")
        run("gen-data", "--kind", "burgers", "--out", "pairs.bin", "--m", "16", "--n-x", "16")
        with open("burgers.ini", "w") as fh:
            fh.write("[dataset]\\nfile = pairs.bin\\nn_x = 16\\nm_test = 4\\n"
                     "[sweep]\\nhorizons = 1,2\\n")
        burgers = ["--config", "burgers.ini"]
        run("train", "--out", "burgers", *burgers, *tiny, "--set", "train.batch_size=8")
        run("eval", "--checkpoint", "burgers/beta=1_gamma=0.5/model.ckpt", "--out", "eval",
            *burgers)
    """)
    assert loaded == "[]"
    assert (tmp_path / "klein" / "latent=klein_sigma=0" / "model.ckpt").exists()
    assert (tmp_path / "eval" / "errors.csv").exists()


def test_quadratic_cloud_loads_scipy_spatial_when_it_builds_its_tree(tmp_path):
    loaded = _run(tmp_path, """
        import sys
        import numpy as np
        from mvrom import manifold as mf
        from mvrom import vae

        assert "scipy.spatial" not in sys.modules
        u1, u2 = np.meshgrid(*[np.arange(64) * np.pi / 32] * 2, indexing="ij")
        points = np.stack([np.cos(u1), np.sin(u1), np.cos(u2), np.sin(u2)], -1).reshape(-1, 4)
        latent = vae.make_latent("pointcloud", cloud=mf.PointCloudManifold(2, 4, points, "quadratic"))
        W = np.random.default_rng(0).normal(size=(5, 4))
        Z, J, flagged = latent.manifold.project(W)
        exact = mf.AnalyticTorus().project(W)[0]
        assert not flagged.any()
        assert np.abs(Z - exact).max() < 1e-3, np.abs(Z - exact).max()
    """)
    assert loaded == str(list(HEAVY))
