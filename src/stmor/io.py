"""Binary artifact container used by every pipeline stage.

Layout: magic ``STMOR``, a format version, a length-prefixed kind string,
a length-prefixed JSON header, then named little-endian arrays and nothing
after them.  The header always embeds the schema version and kind; every
stage also stores its case id and mesh hash there, so a stage handed a file
built on another mesh refuses it (check_mesh_hash).
"""

import json
import math
import os
import struct
import uuid

import numpy as np

MAGIC = b"STMOR"
FORMAT_VERSION = 1

_DTYPES = {"f": np.dtype("<f8"), "i": np.dtype("<i8")}
_CODES = {np.dtype("float64"): "f", np.dtype("int64"): "i"}


class ArtifactError(Exception):
    """Raised for malformed, mismatched, or truncated artifact files."""


def write_artifact(path, kind, header, arrays):
    """Write named arrays with a JSON header to a versioned binary file.

    The bytes go to a temporary file in the target directory, which then
    replaces path in one step: a write that fails midway leaves an earlier
    file at path as it was, and no partial file behind.
    """
    head = dict(header)
    head["schema_version"] = FORMAT_VERSION
    head["kind"] = kind
    head["_arrays"] = []
    contents = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        code = _CODES.get(arr.dtype, "f")
        head["_arrays"].append([name, code, list(arr.shape)])
        contents.append((arr, _DTYPES[code]))
    payload = json.dumps(head, sort_keys=True).encode()
    path = os.fspath(path)
    tmp = "%s.%s.tmp" % (path, uuid.uuid4().hex[:12])
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<H", FORMAT_VERSION))
            kb = kind.encode()
            fh.write(struct.pack("<H", len(kb)))
            fh.write(kb)
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            for arr, dtype in contents:
                fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_artifact(path, expect_kind=None):
    """Read (header, arrays); optionally check the artifact kind.

    The file is read in one call and parsed from memory.  A cut anywhere in
    the file, an unreadable header and bytes after the last array are all
    reported as ArtifactError.  Each array is a fresh, aligned copy: the
    header's length puts the data at any byte offset, and a misaligned
    operand would take the online products off BLAS.
    """
    with open(path, "rb", buffering=0) as fh:
        buf = fh.read()
    if buf[:len(MAGIC)] != MAGIC:
        raise ArtifactError("%s: not an artifact file" % path)
    pos = len(MAGIC)

    def take(n, what, *args):
        """Offset of the next n bytes, which must lie in the file."""
        nonlocal pos
        if not 0 <= n <= len(buf) - pos:
            raise ArtifactError("%s: truncated %s" % (path, what % args))
        pos += n
        return pos - n

    (ver,) = struct.unpack_from("<H", buf, take(2, "version"))
    if ver != FORMAT_VERSION:
        raise ArtifactError("%s: unsupported format version %d" % (path, ver))
    try:
        (klen,) = struct.unpack_from("<H", buf, take(2, "kind"))
        start = take(klen, "kind")
        kind = buf[start:pos].decode()
        if expect_kind is not None and kind != expect_kind:
            raise ArtifactError("%s: expected a %r artifact, found %r"
                                % (path, expect_kind, kind))
        (plen,) = struct.unpack_from("<Q", buf, take(8, "header"))
        start = take(plen, "header")
        header = json.loads(buf[start:pos].decode())
        arrays = {}
        for name, code, shape in header.pop("_arrays"):
            start = take(math.prod(shape) * 8, "array %r", name)
            arrays[name] = np.ndarray(shape, _DTYPES[code], buf, start).copy()
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ArtifactError("%s: malformed header (%s: %s)"
                            % (path, type(exc).__name__, exc)) from None
    if pos != len(buf):
        raise ArtifactError("%s: trailing bytes after the last array" % path)
    return header, arrays


def check_mesh_hash(header, mesh_hash, path="artifact"):
    """Hard error if the artifact was produced on a different mesh."""
    found = header.get("mesh_hash")
    if found != mesh_hash:
        raise ArtifactError("%s was built on mesh %s, current mesh is %s; "
                            "rebuild the stale stage" % (path, found, mesh_hash))
