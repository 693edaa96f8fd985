"""Versioned CSV energy ledgers.

Every ledger file starts with the schema line `# nslab csv schema 1`, then a
mandatory header row, then data rows with floats printed at 17 significant
digits (lossless for f64).  Readers reject unknown schema versions.  Columns
are fixed tuples so reruns are byte-identical; the time and width readers
reject any other header, so stages read every column by name.  Every
artifact, the .nsel snapshot directories included, is written through
atomic_path, so a write that fails midway leaves the previous file or
directory in place.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import shutil

from .errors import LedgerError

SCHEMA_LINE = "# nslab csv schema 1"

TIME_COLUMNS = ("t", "energy", "cumulative_dissipation", "global_residual")

WIDTH_COLUMNS = (
    "delta",
    "lambda",
    "one_minus_two_lambda",
    "enstrophy_used",
    "k_value",
    "resolved_lhs",
    "resolved_viscous",
    "resolved_flux",
    "resolved_residual",
    "stress_norm",
    "defect_structure",
    "defect_stress",
    "basket_max_a",
    "basket_max_b",
    "boussinesq_el_residual",
    "limit_stress_vstar",
    "limit_stress_gradu",
    "limit_gradu_gradv",
    "limit_dual_proxy",
    "energy_drop_residual",
)


def format_float(x):
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


@contextlib.contextmanager
def atomic_path(path):
    """Yield a temporary sibling path at which to write a file or directory
    that replaces `path` once the block completes; an old directory is moved
    aside, the new one renamed in and the old one removed.  On any error the
    temporary is removed and `path` is left as it was.

    Callers hold the run lock, so a `<path>.tmp` or `<path>.old` found on
    entry was left by a killed writer: a `.old` is renamed back to `path` if
    `path` is missing, since a writer killed between its two renames leaves
    the only complete copy there, and the rest removed.
    """
    tmp, old = f"{path}.tmp", f"{path}.old"
    if os.path.lexists(old) and not os.path.lexists(path):
        os.rename(old, path)
    _remove(old)
    _remove(tmp)
    try:
        yield tmp
        if os.path.isdir(tmp) and os.path.exists(path):
            os.rename(path, old)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isdir(old) and not os.path.exists(path):
            os.rename(old, path)
        _remove(tmp)
        raise
    if os.path.isdir(old):
        shutil.rmtree(old)


def _remove(path):
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.unlink(path)


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Open a temporary sibling of `path` for writing text (atomic_path)."""
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline=newline) as fh:
        yield fh


def write_ledger(path, columns, rows):
    """rows: iterable of sequences matching `columns` (floats)."""
    with atomic_open(path, newline="") as fh:
        fh.write(SCHEMA_LINE + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            if len(row) != len(columns):
                raise LedgerError(f"row width {len(row)} != {len(columns)} columns")
            writer.writerow([format_float(v) for v in row])


def read_ledger(path):
    """Returns (columns, rows): each row a list of one float per column.

    Undecodable bytes become U+FFFD, which the schema and number checks reject.
    """
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace", newline="")
    except FileNotFoundError:
        raise LedgerError(f"{path}: missing") from None
    except OSError as exc:  # a directory, or unreadable
        raise LedgerError(f"{path}: cannot read ({exc.strerror})") from None
    with fh:
        schema = fh.readline().rstrip("\n")
        if schema != SCHEMA_LINE:
            raise LedgerError(f"{path}: unknown ledger schema {schema!r}")
        reader = csv.reader(fh)
        try:
            columns = tuple(next(reader))
        except StopIteration:
            raise LedgerError(f"{path}: missing header") from None
        data = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(columns):
                raise LedgerError(f"{path}: row width {len(row)} != header {len(columns)}")
            try:
                data.append([float(v) for v in row])
            except ValueError:
                raise LedgerError(f"{path}: non-numeric cell in {row}") from None
    return columns, data


def write_time_ledger(path, times, energies, dissipation, residuals):
    rows = zip(times, energies, dissipation, residuals)
    write_ledger(path, TIME_COLUMNS, rows)


def read_time_ledger(path):
    """The time ledger as {column: list of floats} in TIME_COLUMNS order;
    every cell must be finite."""
    rows = _read_columns(path, "time", TIME_COLUMNS)
    for i, row in enumerate(rows):
        for name, value in zip(TIME_COLUMNS, row):
            if not math.isfinite(value):
                raise LedgerError(f"{path}: non-finite {name} {value} in row {i}")
    return {name: [row[j] for row in rows] for j, name in enumerate(TIME_COLUMNS)}


def write_width_ledger(path, row_dicts):
    """row_dicts: one mapping per width; missing keys become NaN."""
    rows = [[d.get(c, float("nan")) for c in WIDTH_COLUMNS] for d in row_dicts]
    write_ledger(path, WIDTH_COLUMNS, rows)


def read_width_ledger(path):
    """The width ledger as one {column: value} row per width."""
    return [dict(zip(WIDTH_COLUMNS, row)) for row in _read_columns(path, "width", WIDTH_COLUMNS)]


def _read_columns(path, kind, expected):
    columns, rows = read_ledger(path)
    if columns != expected:
        raise LedgerError(f"{path}: unexpected {kind}-ledger columns {columns}")
    return rows
