"""Every file format rejects a damaged file with an error that names it.

The binary formats reject any size that disagrees with the header, and a
non-finite value; the point-cloud text format rejects truncation, a wrong
column count and non-finite values.
"""

import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvrom import datafiles
from mvrom import manifold as mf
from mvrom import vae

from oracles import write_pointcloud

DATA = Path(__file__).parent / "data"
SETTINGS = settings(
    max_examples=150,
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


def _circle_points(count=32):
    theta = np.arange(count) * 2 * np.pi / count
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


LATENTS = {
    "euclidean": vae.make_latent("euclidean", dim=2),
    # its points follow the weights in the checkpoint
    "pointcloud": vae.make_latent(
        "pointcloud", cloud=mf.PointCloudManifold(1, 2, _circle_points(), "quadratic")),
}


@given(latent=st.sampled_from(sorted(LATENTS)), data=st.data())
@SETTINGS
def test_checkpoint_rejects_any_truncation_or_padding(tmp_path, latent, data):
    path = tmp_path / "model.ckpt"
    model = vae.build_vae(6, LATENTS[latent], hidden=(4,), seed=0)
    vae.save_checkpoint(model, path)
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


@pytest.mark.parametrize("path_name, row", [("input X", 0), ("target Y", 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pair_file_rejects_a_nonfinite_value_naming_its_pair_and_path(tmp_path, path_name, row,
                                                                     bad):
    path = tmp_path / "pairs.bin"
    X = np.arange(12.0).reshape(3, 4)
    Y = X + 0.5
    (X if path_name == "input X" else Y)[row, 1] = bad
    datafiles.save_pairs(path, X, Y, 0.02, 0.25)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: non-finite value in pair {row + 1}, {path_name}")):
        datafiles.load_pairs(path)


def test_pointcloud_checkpoint_rejects_a_nonfinite_point(tmp_path):
    path = tmp_path / "model.ckpt"
    vae.save_checkpoint(vae.build_vae(6, LATENTS["pointcloud"], hidden=(4,), seed=0), path)
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.array(np.nan, "<f8").tobytes()  # the last point's y
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=re.escape(f"{path}: parameter 'pointcloud' "
                                                   "has non-finite values")):
        vae.load_checkpoint(path)


@pytest.mark.parametrize("latent", sorted(LATENTS))
def test_a_nonfinite_value_in_each_checkpoint_parameter_is_named_as_it(tmp_path, latent):
    # a NaN as the first or the last value of each parameter in file order,
    # a pointcloud latent's points last
    path = tmp_path / "model.ckpt"
    vae.save_checkpoint(vae.build_vae(6, LATENTS[latent], hidden=(4,), seed=0), path)
    blob = path.read_bytes()
    offset = 16 + struct.unpack_from("<I", blob, 12)[0]
    header = json.loads(blob[16:offset])
    shapes = header["params"]
    if latent == "pointcloud":
        shapes.append(["pointcloud", [header["pointcloud"][1], 2]])
    for name, shape in shapes:
        count = math.prod(shape)
        for at in {offset, offset + 8 * (count - 1)}:
            path.write_bytes(blob[:at] + np.array(np.nan, "<f8").tobytes() + blob[at + 8:])
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: parameter '{name}' has non-finite values")):
                vae.load_checkpoint(path)
        offset += 8 * count
    assert offset == len(blob)


def test_an_interrupted_save_leaves_the_earlier_checkpoint_whole(tmp_path):
    # the second array's write fails: the file at the path keeps its bytes,
    # and no temp file is left beside it
    path = tmp_path / "model.ckpt"
    model = vae.build_vae(6, LATENTS["euclidean"], hidden=(4,), seed=0)
    vae.save_checkpoint(model, path)
    before = path.read_bytes()

    class Unwritable:
        shape = model.params["dec_W1"].shape  # dec_W0 is written first

        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    model.params["dec_W1"] = Unwritable()
    with pytest.raises(OSError, match="disk full"):
        vae.save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.meta.txt"]


def test_version_1_files_load_and_are_written_again_byte_for_byte(tmp_path):
    # tests/data/pairs_v1.bin and klein_v1.ckpt were written from these
    # inputs when both formats were first pinned: they still load, and the
    # writers still write their exact bytes
    pairs_v1, klein_v1 = DATA / "pairs_v1.bin", DATA / "klein_v1.ckpt"
    X = np.arange(15.0).reshape(3, 5) / 7
    X2, Y2, header = datafiles.load_pairs(pairs_v1)
    assert X2.tobytes() == X.tobytes() and Y2.tobytes() == (X + 0.5).tobytes()
    assert header == datafiles.PairHeader(5, 3, 0.02, 0.25)
    datafiles.save_pairs(tmp_path / "pairs.bin", X, X + 0.5, 0.02, 0.25)
    assert (tmp_path / "pairs.bin").read_bytes() == pairs_v1.read_bytes()

    model = vae.build_vae(4, vae.make_latent("klein", klein=mf.KleinConfig()), hidden=(8,), seed=1)
    loaded = vae.load_checkpoint(klein_v1)
    assert (loaded.latent.kind, loaded.latent.klein) == ("klein", mf.KleinConfig())
    assert loaded.params.keys() == model.params.keys()
    for k in model.params:
        assert loaded.params[k].tobytes() == model.params[k].tobytes()
    for written in (model, loaded):
        vae.save_checkpoint(written, tmp_path / "model.ckpt")
        assert (tmp_path / "model.ckpt").read_bytes() == klein_v1.read_bytes()


def damaged_cloud(text: str, data) -> str:
    """Cut the file, spoil a header size, widen or narrow some rows, or write
    a NaN/Inf into some."""
    header, *rows = text.splitlines()
    changes = ["truncate", "header", "widen", "narrow", "nonfinite"]
    change = data.draw(st.sampled_from(changes), label="change")
    if change == "truncate":  # half the cuts fall in the last row, which may still parse
        tail = st.integers(len(text) - 40, len(text) - 1)
        return text[: data.draw(st.integers(0, len(text) - 1) | tail, label="cut")]
    if change == "header":  # m, n, the row count or the neighbour count
        fields = header.split()
        field = data.draw(st.sampled_from([0, 1, 2, 4]), label="field")
        sizes = ["0", "-1", "2.5", "x"] + (["2", "32"] if field == 4 else ["33", "31"])
        fields[field] = data.draw(st.sampled_from(sizes), label="size")
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


@given(data=st.data())
@SETTINGS
def test_pointcloud_rejects_any_damage(tmp_path, data):
    path = tmp_path / "cloud.manifold"
    write_pointcloud(path, _circle_points(), 1)
    path.write_text(damaged_cloud(path.read_text(), data))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        mf.load_pointcloud(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_with_a_nonfinite_value_is_refused_before_the_file_is_opened(tmp_path, bad):
    # the refusal names the file, the row (1 is the first after the header)
    # and the column, and leaves an earlier file at that path untouched
    path = tmp_path / "table.csv"
    columns = ["step", "x", "u"]
    datafiles.write_table_csv(path, [{"step": 0, "x": 0.5, "u": 1.25}], columns)
    before = path.read_bytes()
    assert before == b"step,x,u\n0,0.5,1.25\n"
    rows = [{"step": 0, "x": 0.5, "u": 1.25}, {"step": 1, "x": np.float64(0.5), "u": bad}]
    with pytest.raises(datafiles.NonFiniteValueError,
                       match=re.escape(f"{path}: {bad} in row 2, column 'u'")):
        datafiles.write_table_csv(path, rows, columns)
    assert issubclass(datafiles.NonFiniteValueError, ValueError)
    assert path.read_bytes() == before
    with pytest.raises(datafiles.NonFiniteValueError, match=re.escape("row 1, column 'x'")):
        datafiles.write_table_csv(tmp_path / "new" / "t.csv", [{"x": np.float64(bad)}], ["x"])
    assert not (tmp_path / "new").exists()
