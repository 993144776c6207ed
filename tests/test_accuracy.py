"""The paper's central Burgers claim as a check on what training learns.

A 2-D nonlinear latent, trained through the same path as ``mvrom train``,
must predict every horizon with at most half the L1 error of the better
rank-3 linear baseline (DMD or POD) on the same test set.  The other tests
only check that the loss falls; this one fails if a change to the step, the
gradients or the optimizer trains a worse model.
"""

from mvrom import cli
from mvrom import experiments as ex

EPOCHS = 60  # the default cell (n_x=100, 400x400 MLPs, 512 pairs), cut from 3000
RANK = 3
SEED = 0


def test_trained_r2_vae_halves_the_best_linear_baseline_error(tmp_path):
    common = ["--set", f"experiment.seed={SEED}"]
    assert cli.main(["train", "--out", str(tmp_path / "vae"), *common,
                     "--set", f"train.epochs={EPOCHS}"]) == 0
    assert cli.main(["baselines", "--out", str(tmp_path / "linear"), *common,
                     "--set", f"sweep.dmd_ranks={RANK}", "--set", f"sweep.pod_ranks={RANK}",
                     "--set", "sweep.ch_dims="]) == 0
    trained = ex.read_table_csv(tmp_path / "vae" / "errors.csv")
    linear = ex.read_table_csv(tmp_path / "linear" / "errors.csv")
    assert linear.columns and set(linear.columns) <= set(trained.columns)
    for col in linear.columns:
        best_linear = min(linear.cell("dmd", RANK, "", col), linear.cell("pod", RANK, "", col))
        error = trained.cell("vae-nonlinear", 2, "beta=1;gamma=0.5", col)
        assert error <= 0.5 * best_linear, f"{col}: VAE {error:.4f}, best rank-{RANK} {best_linear:.4f}"
