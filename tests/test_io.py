"""Artifact container: round trip, and a typed error for every malformed file."""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmor.cli import main
from stmor.fom import FieldSolution, read_snapshot, write_snapshot
from stmor.io import ArtifactError, read_artifact, write_artifact

ARRAYS = {"a": np.arange(3.0), "b": np.array([[1, -2]], dtype=np.int64)}


@lru_cache(maxsize=None)
def small_artifact():
    """Bytes of a small two-array artifact."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "small.stm"
        write_artifact(path, "demo", {"case_id": "x", "mesh_hash": "abc"},
                       ARRAYS)
        return path.read_bytes()


def read_bytes(data, expect_kind=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.stm"
        path.write_bytes(data)
        return read_artifact(path, expect_kind=expect_kind)


def test_roundtrip():
    header, arrays = read_bytes(small_artifact(), expect_kind="demo")
    assert header["case_id"] == "x" and header["kind"] == "demo"
    assert set(arrays) == set(ARRAYS)
    for name, arr in ARRAYS.items():
        assert arrays[name].dtype == arr.dtype
        np.testing.assert_array_equal(arrays[name], arr)


def test_arrays_are_aligned_owned_copies(tmp_path):
    """Whatever byte offset the header leaves the data at, every array is
    C-contiguous, aligned, writeable and owns its memory."""
    offsets = set()
    for pad in range(8):
        path = tmp_path / ("pad%d.stm" % pad)
        write_artifact(path, "demo", {"case_id": "x" * pad}, ARRAYS)
        offsets.add((path.stat().st_size - sum(a.nbytes for a in ARRAYS.values())) % 8)
        _, arrays = read_artifact(path)
        for name, arr in arrays.items():
            flags = arr.flags
            assert flags.c_contiguous and flags.aligned and flags.writeable
            assert flags.owndata and arr.base is None
            np.testing.assert_array_equal(arr, ARRAYS[name])
    assert offsets == set(range(8))


def test_snapshot_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    sol = FieldSolution(v=rng.standard_normal(37), p=rng.standard_normal(11) * 1e-300,
                        mu=np.array([0.3, -0.0]), converged=True, iterations=[],
                        mesh_hash="abc", case_id="demo")
    write_snapshot(tmp_path / "s.stm", sol)
    _, back = read_snapshot(tmp_path / "s.stm", mesh_hash="abc")
    for got, want in ((back.v, sol.v), (back.p, sol.p), (back.mu, sol.mu)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (back.case_id, back.mesh_hash, back.converged) == ("demo", "abc", True)


@pytest.mark.parametrize("key, value", [
    ("converged", "false"), ("converged", 1), ("converged", None),
    ("mu", [True]), ("mu", [0.5, False]), ("mu", ["0.5"]), ("mu", 0.5)])
def test_snapshot_header_of_the_wrong_type_is_refused(tmp_path, key, value):
    """A header value that is not a JSON bool ("converged") or a list of
    numbers ("mu"), which bool() and np.asarray read as true or as numbers."""
    path = tmp_path / "s.stm"
    sol = FieldSolution(v=np.zeros(3), p=np.zeros(2), mu=np.array([0.5, 1.0]),
                        converged=False, iterations=[], mesh_hash="abc", case_id="demo")
    write_snapshot(path, sol)
    header, arrays = read_artifact(path, expect_kind="snapshot")
    del header["schema_version"], header["kind"]
    write_artifact(path, "snapshot", dict(header, **{key: value}), arrays)
    with pytest.raises(ArtifactError, match="malformed snapshot .* at %s .'%s' is" % (key, key)):
        read_snapshot(path)


@settings(max_examples=60, deadline=None)
@given(mu=st.lists(st.floats(), max_size=4), converged=st.booleans())
def test_every_written_snapshot_reads_back(mu, converged):
    sol = FieldSolution(v=np.arange(4.0), p=np.ones(2), mu=np.array(mu, dtype=np.float64),
                        converged=converged, iterations=[], mesh_hash="abc", case_id="demo")
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(Path(tmp) / "s.stm", sol)
        _, back = read_snapshot(Path(tmp) / "s.stm")
    assert back.converged is converged
    # the header is JSON, which keeps no sign or payload of a NaN
    assert back.mu.dtype == sol.mu.dtype and np.array_equal(back.mu, sol.mu, equal_nan=True)


def test_every_truncation_is_an_artifact_error():
    data = small_artifact()
    for n in range(len(data)):
        with pytest.raises(ArtifactError):
            read_bytes(data[:n])


def test_trailing_bytes_rejected():
    with pytest.raises(ArtifactError, match="trailing"):
        read_bytes(small_artifact() + b"\0")


def test_wrong_kind_rejected():
    with pytest.raises(ArtifactError, match="expected a 'rom' artifact"):
        read_bytes(small_artifact(), expect_kind="rom")


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "kept.stm"
    write_artifact(path, "demo", {"case_id": "x"}, ARRAYS)
    old = path.read_bytes()
    # the header and the first array are written before the second fails
    arrays = {"a": np.arange(4.0), "bad": np.array(["not a number"], dtype=object)}
    with pytest.raises(ValueError):
        write_artifact(path, "demo", {"case_id": "y"}, arrays)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["kept.stm"]


@settings(max_examples=200, deadline=None)
@given(where=st.floats(0.0, 1.0, exclude_max=True), value=st.integers(0, 255))
def test_corrupted_byte_reads_or_raises_artifact_error(where, value):
    data = bytearray(small_artifact())
    data[int(where * len(data))] = value
    try:
        read_bytes(bytes(data))
    except ArtifactError:
        pass


def test_cli_reports_truncated_package_as_one_json_line(tmp_path, capsys):
    path = tmp_path / "cut.stm"
    path.write_bytes(small_artifact()[:8])   # inside the kind length
    assert main(["rom-info", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ArtifactError"
