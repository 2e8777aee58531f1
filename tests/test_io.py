"""Artifact container: round trip, and a typed error for every malformed file."""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmor.cli import main
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
