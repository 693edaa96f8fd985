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
named reason on any mismatch.  A series is a directory of snap_NNNNNN.nsel
files indexed from 0: write_series replaces a whole one through
ledger.atomic_path, and read_series reads one.
"""

from __future__ import annotations

import os
import re
import struct

import numpy as np

from .ledger import atomic_path

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


def write_series(directory, grid, times, field_hats):
    """Write spectral fields as the real-space snapshots of `directory`, replacing it whole."""
    with atomic_path(directory) as tmp:
        os.mkdir(tmp)
        for i, (time, f_hat) in enumerate(zip(times, field_hats, strict=True)):
            write_snapshot(snapshot_path(tmp, i), time, grid.inverse(f_hat))


def read_series(directory, grid):
    """Read the series in `directory` as (times, u_hats), forward-transforming
    each file as it is read.  Every file must hold (3,) + grid.shape fields
    and the times must be finite and strictly increasing."""
    paths = list_snapshots(directory)
    if not paths:
        raise SnapshotFormatError(directory, "no snapshots")
    expected = (3,) + grid.shape
    times = np.empty(len(paths))
    u_hats = np.empty((len(paths), 3) + grid.spectral_shape, dtype=np.complex128)
    for i, path in enumerate(paths):
        times[i], fields = read_snapshot(path)
        if fields.shape != expected:
            detail = f"snapshots {fields.shape}, config {expected}"
            raise SnapshotFormatError(directory, "grid mismatch", detail)
        if not (np.isfinite(times[i]) and (i == 0 or times[i] > times[i - 1])):
            detail = f"snapshot {i} at t = {float(times[i])}; times must be finite and "
            raise SnapshotFormatError(directory, "bad times", detail + "strictly increasing")
        u_hats[i] = grid.forward(fields)
    return times, u_hats
