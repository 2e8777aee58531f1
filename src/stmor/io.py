"""Binary artifact container used by every pipeline stage.

Layout: magic ``STMOR``, a format version, a length-prefixed kind string,
a length-prefixed JSON header, then named little-endian arrays and nothing
after them.  The header always embeds the schema version and kind; every
stage also stores its case id and mesh hash there, so a stage handed a file
built on another mesh refuses it (check_mesh_hash).
"""

import json
import os
import struct

import numpy as np

MAGIC = b"STMOR"
FORMAT_VERSION = 1

_DTYPES = {"f": "<f8", "i": "<i8"}
_CODES = {np.dtype("float64"): "f", np.dtype("int64"): "i"}


class ArtifactError(Exception):
    """Raised for malformed, mismatched, or truncated artifact files."""


def write_artifact(path, kind, header, arrays):
    """Write named arrays with a JSON header to a versioned binary file."""
    head = dict(header)
    head["schema_version"] = FORMAT_VERSION
    head["kind"] = kind
    order = list(arrays)
    head["_arrays"] = []
    blobs = []
    for name in order:
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype not in _CODES:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        code = _CODES[arr.dtype]
        head["_arrays"].append([name, code, list(arr.shape)])
        blobs.append(arr.astype(_DTYPES[code], copy=False).tobytes())
    payload = json.dumps(head, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        kb = kind.encode()
        fh.write(struct.pack("<H", len(kb)))
        fh.write(kb)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for blob in blobs:
            fh.write(blob)


def read_artifact(path, expect_kind=None):
    """Read (header, arrays); optionally check the artifact kind.

    A cut anywhere in the file, an unreadable header and bytes after the
    last array are all reported as ArtifactError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n, what):
            if not 0 <= n <= size - fh.tell():
                raise ArtifactError("%s: truncated %s" % (path, what))
            return fh.read(n)

        if fh.read(5) != MAGIC:
            raise ArtifactError("%s: not an artifact file" % path)
        (ver,) = struct.unpack("<H", take(2, "version"))
        if ver != FORMAT_VERSION:
            raise ArtifactError("%s: unsupported format version %d" % (path, ver))
        try:
            (klen,) = struct.unpack("<H", take(2, "kind"))
            kind = take(klen, "kind").decode()
            if expect_kind is not None and kind != expect_kind:
                raise ArtifactError("%s: expected a %r artifact, found %r"
                                    % (path, expect_kind, kind))
            (plen,) = struct.unpack("<Q", take(8, "header"))
            header = json.loads(take(plen, "header").decode())
            arrays = {}
            for name, code, shape in header.pop("_arrays"):
                count = int(np.prod(shape)) if shape else 1
                raw = take(count * 8, "array %r" % name)
                arrays[name] = np.frombuffer(raw, dtype=_DTYPES[code]).reshape(shape).copy()
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ArtifactError("%s: malformed header (%s: %s)"
                                % (path, type(exc).__name__, exc)) from None
        if fh.read(1):
            raise ArtifactError("%s: trailing bytes after the last array" % path)
    return header, arrays


def check_mesh_hash(header, mesh_hash, path="artifact"):
    """Hard error if the artifact was produced on a different mesh."""
    found = header.get("mesh_hash")
    if found != mesh_hash:
        raise ArtifactError("%s was built on mesh %s, current mesh is %s; "
                            "rebuild the stale stage" % (path, found, mesh_hash))
