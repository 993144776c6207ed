"""Both binary formats reject any file whose size disagrees with its header."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvrom import datafiles
from mvrom import vae

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def corrupted(blob: bytes, data) -> bytes:
    """Cut the file at a random offset, or insert 1-15 random bytes at one.

    A pair file's data moves in steps of 16 bytes and a checkpoint's weights
    in steps of 8, so a pad this short cannot pass as more data.  A longer
    pad could spell a new, self-consistent header, which no size check can
    tell from a real one.
    """
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
    at = data.draw(st.integers(0, len(blob)), label="at")
    return blob[:at] + data.draw(st.binary(min_size=1, max_size=15), label="pad") + blob[at:]


@given(data=st.data())
@SETTINGS
def test_checkpoint_rejects_any_truncation_or_padding(tmp_path, data):
    path = tmp_path / "model.ckpt"
    vae.save_checkpoint(vae.build_vae(6, vae.euclidean_latent(2), hidden=(4,), seed=0), path)
    path.write_bytes(corrupted(path.read_bytes(), data))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        vae.load_checkpoint(path)


@given(data=st.data())
@SETTINGS
def test_pair_file_rejects_any_truncation_or_padding(tmp_path, data):
    path = tmp_path / "pairs.bin"
    X = np.arange(12.0).reshape(3, 4)
    datafiles.save_pairs(path, X, X + 0.5, 0.02, 0.25)
    path.write_bytes(corrupted(path.read_bytes(), data))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        datafiles.load_pairs(path)
