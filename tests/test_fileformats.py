"""Every file format rejects a damaged file with an error that names it.

The binary formats reject any size that disagrees with the header; the
point-cloud text format rejects truncation, a wrong column count and
non-finite values.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvrom import datafiles
from mvrom import manifold as mf
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


def _circle_cloud(kind: str) -> mf.PointCloudManifold:
    theta = np.arange(32) * 2 * np.pi / 32
    points = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if kind == "quadratic":
        return mf.PointCloudManifold(1, 2, points, "quadratic")
    surface = mf.ProductCirclesSurface([1.0])
    return mf.PointCloudManifold(
        1, 2, points, "analytic", surface=surface, chart_params=theta[:, None]
    )


CLOUDS = {kind: _circle_cloud(kind) for kind in ("quadratic", "analytic")}


def damaged_cloud(text: str, data) -> str:
    """Cut the file, spoil a header size, widen or narrow some rows, or write
    a NaN/Inf into some."""
    header, *rows = text.splitlines()
    changes = ["truncate", "header", "widen", "narrow", "nonfinite"]
    change = data.draw(st.sampled_from(changes), label="change")
    if change == "truncate":  # half the cuts fall in the last row, which may still parse
        tail = st.integers(len(text) - 40, len(text) - 1)
        return text[: data.draw(st.integers(0, len(text) - 1) | tail, label="cut")]
    if change == "header":  # m, n, the row count or, for circles, one radius too many
        fields = header.split()
        field = data.draw(st.integers(0, 3 if fields[3] == "circles" else 2), label="field")
        if field == 3:
            fields.append("1.0")
        else:
            fields[field] = data.draw(
                st.sampled_from(["0", "-1", "2.5", "x", "33", "31"]), label="size")
        header = " ".join(fields)
    if change == "header":
        picked = ()
    elif data.draw(st.booleans(), label="every row"):  # a consistent but wrong width
        picked = range(len(rows))
    else:
        picked = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1), label="rows")
    for i in picked:
        fields = rows[i].split()
        if change == "widen":
            fields.append(repr(data.draw(st.floats(allow_nan=False, allow_infinity=False))))
        elif change == "narrow":
            del fields[data.draw(st.integers(0, len(fields) - 1), label="column")]
        else:
            fields[data.draw(st.integers(0, len(fields) - 1), label="column")] = data.draw(
                st.sampled_from(["nan", "inf", "-inf", "1e999"]), label="value")
        rows[i] = " ".join(fields)
    return "\n".join([header, *rows]) + "\n"


@given(kind=st.sampled_from(sorted(CLOUDS)), data=st.data())
@SETTINGS
def test_pointcloud_rejects_any_damage(tmp_path, kind, data):
    path = tmp_path / "cloud.manifold"
    CLOUDS[kind].save(path)
    path.write_text(damaged_cloud(path.read_text(), data))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        mf.load_pointcloud(path)
