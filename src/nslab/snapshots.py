"""Binary snapshot container (.nsel).

Layout, all little-endian, no padding:

    bytes 0..3    magic  b"NSEL"
    bytes 4..7    uint32 format version (currently 1)
    bytes 8..11   uint32 n      (grid points per axis)
    bytes 12..15  uint32 ncomp  (number of field components)
    bytes 16..23  float64 time
    bytes 24..    ncomp * n**3 float64 real-space samples, C order with the
                  x1 index varying fastest (i.e. stored as [comp, x3, x2, x1])

Round-tripping a float64 array through write/read is bit exact.  Readers
validate the header and the payload size and raise SnapshotFormatError with a
named reason on any mismatch.
"""

from __future__ import annotations

import os
import re
import struct

import numpy as np

MAGIC = b"NSEL"
VERSION = 1
_HEADER = struct.Struct("<4sIIId")

SNAPSHOT_PATTERN = "snap_%06d.nsel"
_SNAPSHOT_RE = re.compile(r"^snap_(\d{6})\.nsel$")


class SnapshotFormatError(ValueError):
    """A .nsel file failed validation; .reason holds a short machine-usable tag."""

    def __init__(self, path, reason, detail=""):
        self.path = str(path)
        self.reason = reason
        msg = f"{path}: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def write_snapshot(path, time, fields):
    """Write real-space fields of shape (ncomp, n, n, n) to one .nsel file."""
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim != 4 or len({fields.shape[1], fields.shape[2], fields.shape[3]}) != 1:
        raise ValueError(f"expected (ncomp, n, n, n) fields, got shape {fields.shape}")
    ncomp, n = fields.shape[0], fields.shape[1]
    payload = np.ascontiguousarray(fields.transpose(0, 3, 2, 1)).astype("<f8", copy=False)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n, ncomp, float(time)))
        payload.tofile(fh)


def read_snapshot(path):
    """Read one .nsel file; returns (time, fields) with fields (ncomp, n, n, n)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise SnapshotFormatError(path, "truncated header")
        magic, version, n, ncomp, time = _HEADER.unpack(head)
        if magic != MAGIC:
            raise SnapshotFormatError(path, "bad magic", repr(magic))
        if version != VERSION:
            raise SnapshotFormatError(path, "unsupported version", str(version))
        if n == 0 or ncomp == 0:
            raise SnapshotFormatError(path, "empty dimensions", f"n={n} ncomp={ncomp}")
        data = np.fromfile(fh, dtype="<f8")
        if fh.read(1):
            raise SnapshotFormatError(path, "trailing bytes")
    expected = ncomp * n**3
    if data.size != expected:
        raise SnapshotFormatError(path, "size mismatch", f"{data.size} doubles, expected {expected}")
    fields = data.reshape(ncomp, n, n, n).transpose(0, 3, 2, 1)
    return time, np.ascontiguousarray(fields)


def snapshot_path(directory, index):
    return os.path.join(directory, SNAPSHOT_PATTERN % index)


def write_trajectory_snapshots(directory, trajectory):
    """Dump every recorded snapshot of a trajectory as real-space .nsel files."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i in range(len(trajectory)):
        p = snapshot_path(directory, i)
        write_snapshot(p, trajectory.times[i], trajectory.u_real(i))
        paths.append(p)
    return paths


def list_snapshots(directory):
    """Sorted snapshot paths in a directory; indices must be contiguous from 0."""
    found = []
    for name in os.listdir(directory):
        m = _SNAPSHOT_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(directory, name)))
    found.sort()
    for want, (got, path) in enumerate(found):
        if want != got:
            raise SnapshotFormatError(path, "index gap", f"expected snap_{want:06d}")
    return [path for _, path in found]


def read_trajectory_fields(directory):
    """Read all snapshots in a directory; returns (times, fields) arrays."""
    times = []
    fields = []
    for path in list_snapshots(directory):
        t, f = read_snapshot(path)
        if fields and f.shape != fields[0].shape:
            raise SnapshotFormatError(path, "shape mismatch", f"{f.shape} != {fields[0].shape}")
        times.append(t)
        fields.append(f)
    if not fields:
        raise SnapshotFormatError(directory, "no snapshots")
    return np.asarray(times), np.asarray(fields)
