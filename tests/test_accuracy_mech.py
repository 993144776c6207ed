"""The paper's geometric-prior claim as a check on what training learns.

On noisy observations of a constrained mechanism, a latent with the data's
topology, trained through the same path as ``mvrom sweep``, must reconstruct
the clean test set with at most half the L2 error of a euclidean latent of
the same intrinsic dimension (R^2), and with less error than the noisy input
itself: it denoises.  The Klein bottle is checked on the Klein data and the
torus on the two-segment arm.  The encoder learns through the projection's
implicit-function-theorem Jacobian, which the training step's latent node
applies as J^T, so a wrong Jacobian trains a worse model here even where a
gradient check that shares the wrong Jacobian with the code would pass.

The sizes fit the check into a few seconds per dataset; the seed was not
among those the sizes were tuned on.  At these sizes training has not
settled: of 9 seeds tried, the arm's torus latent ended above the input
noise on 4 and the Klein latent on 1.
"""

import pytest

from mvrom import cli
from mvrom import experiments as ex

SEED = 2
SIGMA = 0.05
SETTINGS = {  # dataset.kind: (its latent, dataset.m, model.hidden)
    "klein": ("klein", 1200, "32,32"),
    "arm-torus": ("torus", 2400, "64,64"),
}


@pytest.mark.parametrize("kind", list(SETTINGS))
def test_latent_with_the_data_topology_halves_the_r2_error_and_denoises(tmp_path, kind):
    latent, m, hidden = SETTINGS[kind]
    sets = ["experiment.kind=mech-recon", f"experiment.seed={SEED}", f"dataset.kind={kind}",
            f"dataset.m={m}", f"dataset.sigma={SIGMA}", f"model.hidden={hidden}",
            "train.epochs=100", "train.batch_size=64", "train.lr=3e-3",
            f"sweep.latent={latent},euclidean"]
    assert cli.main(["sweep", "--out", str(tmp_path), *(a for s in sets for a in ("--set", s))]) == 0
    table = ex.read_table_csv(tmp_path / "errors.csv")
    topological = table.cell("vae-2-manifold", 4, f"latent={latent};sigma={SIGMA:g}", "final")
    r2 = table.cell("vae-R2", 2, f"latent=euclidean;sigma={SIGMA:g}", "final")
    # the error of the noisy test inputs themselves, from the sweep's own split
    test = ex._mech_splits(ex.ExperimentConfig.from_file(None, sets), [SIGMA], SEED)[SIGMA][1]
    noise = ex.l2_relative_error(test.noisy, test.clean)
    assert topological <= 0.5 * r2, f"{latent} {topological:.4f} against R2 {r2:.4f}"
    assert topological < noise, f"{latent} {topological:.4f} against the input's {noise:.4f}"
