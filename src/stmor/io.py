"""Binary artifact container used by every pipeline stage, and the one
checked reader of every JSON object stmor reads.

Layout: magic ``STMOR``, a format version, a length-prefixed kind string,
a length-prefixed JSON header, then named little-endian arrays and nothing
after them.  The header always embeds the schema version and kind; every
stage also stores its case id and mesh hash there, so a stage handed a file
built on another mesh refuses it (check_mesh_hash).

Artifact headers, case configs and study reports are read by read_section
against key tables, key -> (kind, default); the arrays are not, since
read_artifact takes only the two dtypes stmor writes and check_dtypes holds
each array to the one of them its writer uses.
"""

import json
import math
import numbers
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


def write_artifact(path, kind, header, arrays, table=None):
    """Write named arrays with a JSON header to a versioned binary file.

    The bytes go to a temporary file in the target directory, which then
    replaces path in one step: a write that fails midway leaves an earlier
    file at path as it was, and no partial file behind.  Given the key table
    that its reader reads the header against, the header is read through it
    first, so a header the reader would refuse raises ArtifactError and
    nothing is written.
    """
    head = dict(header)
    head["schema_version"] = FORMAT_VERSION
    head["kind"] = kind
    if table is not None:
        read_section(head, table, "%s header for %s" % (kind, os.fspath(path)), ArtifactError)
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


def check_dtypes(path, arrays, integer=()):
    """ArtifactError naming the first array not stored at the dtype stmor
    writes it at: int64 for the names in integer, float64 for the rest."""
    f, i = _DTYPES["f"], _DTYPES["i"]
    for name, arr in arrays.items():
        want = i if name in integer else f
        if arr.dtype != want:
            raise ArtifactError("%s: array %r is stored as %s, stmor writes it as %s"
                                % (path, name, arr.dtype, want))


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


# ---------------------------------------------------------------------------
# key tables: key -> (kind, default) per JSON object, read by read_section
#
# A kind converts one JSON value, or raises ValueError naming what it must
# be; section, map_of and list_of nest, and the keys refused at any depth are
# reported together.  A kind may instead raise its caller's error, which ends
# the read.  Kinds test the concrete JSON types before the numbers ABCs (a rom
# header is read on every cold query) and take what a config built in Python
# code holds, numpy scalars and tuples too.  They leave to the library the
# ranges it checks with a typed error.

REQUIRED = object()


class _Refused(ValueError):
    """args[0]: the faults of one JSON object, (fault, path, detail) with fault
    "unknown" (detail: the keys there), "missing" or "wrong"."""

    def under(self, head):
        return [(fault, "%s%s%s" % (head, "" if str(path).startswith("[") else ".", path),
                 detail) for fault, path, detail in self.args[0]]


def refusal(key, value, noun):
    """The error a kind raises to refuse one key of the object it reads."""
    return _Refused([("wrong", key, "%r is %r, not %s" % (key, value, noun))])


def _read(given, table):
    if not isinstance(given, dict):
        raise ValueError("a JSON object")
    out, faults = {}, []
    for key, value in given.items():
        entry = table.get(key)
        if entry is None:
            faults.append(("unknown", key, ", ".join(table)))
            continue
        try:
            out[key] = entry[0](value)
        except _Refused as sub:
            faults += sub.under(key)
        except ValueError as exc:
            faults += refusal(key, value, exc).args[0]
    for key in table if len(out) < len(table) else ():
        if key not in given:
            kind, default = table[key]
            if default is REQUIRED:
                faults.append(("missing", key, None))
            else:
                out[key] = kind(default)
    if faults:
        raise _Refused(faults)
    return out


def read_section(given, table, where, error):
    """The values of the JSON object given, checked against its key table and
    converted, with the defaults of absent keys filled in.

    where names the object in messages and error is the exception class of
    the caller.  Unknown keys are refused first, then missing ones, then
    values of the wrong type, each named by its path (``cells[0].n_u``); a
    message names every missing or ill-typed key at any depth.
    """
    if not isinstance(given, dict):
        raise error("%s must be a JSON object, got %r" % (where, given))
    try:
        return _read(given, table)
    except _Refused as refused:
        faults = {}
        for fault, path, detail in refused.args[0]:
            faults.setdefault(fault, []).append((path, detail))
    if "unknown" in faults:
        raise error("%s has an unknown key %r (keys: %s; the unit suffix is part of the key)"
                    % ((where,) + faults["unknown"][0]))
    paths, details = zip(*faults.get("missing", faults.get("wrong")))
    if "missing" in faults:
        raise error("%s lacks %s" % (where, ", ".join(paths)))
    raise error("%s has values of the wrong type at %s (%s)"
                % (where, ", ".join(paths), "; ".join(details)))


def section(table):
    """A kind taking a JSON object read against a key table of its own."""
    return lambda value: _read(value, table)


def map_of(kind):
    """A kind taking a JSON object whose values, under any keys, read as kind."""
    return lambda value: _read(value, dict.fromkeys(value if isinstance(value, dict) else (),
                                                    (kind, REQUIRED)))


def list_of(kind):
    """A kind taking a JSON list (or a tuple) whose items read as kind."""
    def read(value):
        if not isinstance(value, (list, tuple)):
            raise ValueError("a list")
        out, faults = [], []
        for i, item in enumerate(value):
            try:
                out.append(kind(item))
            except _Refused as sub:
                faults += sub.under("[%d]" % i)
            except ValueError as exc:
                raise ValueError("a list of which each item is %s" % exc) from None
        if faults:
            raise _Refused(faults)
        return out
    return read


def optional(kind):
    """A kind taking null, read as None, or a value of kind."""
    return lambda value: None if value is None else kind(value)


def number(value):
    """A JSON number, booleans never, as a float."""
    if type(value) is float:
        return value
    if value is True or value is False or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError("a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a number within the float range") from None


def finite(value):
    """A finite JSON number, as a float."""
    try:
        if math.isfinite(value := number(value)):
            return value
    except ValueError:
        pass
    raise ValueError("a finite number")


def count(value):
    """A non-negative JSON integer, booleans never, as an int."""
    if type(value) is int and value >= 0:
        return value
    if value is True or value is False or not isinstance(value, (int, numbers.Integral)) \
            or value < 0:
        raise ValueError("a non-negative integer")
    return int(value)


def _kind(cls, noun, convert=None):
    def read(value):
        if isinstance(value, cls):
            return value if convert is None else convert(value)
        raise ValueError(noun)
    return read


boolean = _kind(bool, "true or false")
text = _kind(str, "a string")
json_object = _kind(dict, "a JSON object", dict)

# the keys write_artifact adds to every header
ARTIFACT_KEYS = {"schema_version": (count, REQUIRED), "kind": (text, REQUIRED)}
