"""CSV import/export for fields, masks and spectra.

Every file starts with comment headers carrying the grid geometry and,
when written through the CLI, the config hash and seed, so outputs are
reproducible bit for bit.  Writes are atomic (temp file + rename).
Floats are formatted with %.17g, which round-trips doubles exactly.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

import numpy as np

from .errors import ConfigError
from .torus import Grid, GridField, TorusSpec

__all__ = [
    "atomic_write", "field_to_csv", "window_field_to_csv", "mask_to_csv",
    "spectrum_to_csv", "read_field_csv", "format_float",
]


def format_float(x) -> str:
    return "%.17g" % float(x)


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_logtorus_")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _headers(grid: Grid, extra: Optional[dict], *lines: str) -> str:
    """Comment headers: the grid geometry, then lines, then extra."""
    head = [f"# nx {grid.nx} ny {grid.ny} P {format_float(grid.spec.P)}", *lines]
    head += [f"# {k} {v}" for k, v in (extra or {}).items()]
    return "\n".join(head) + "\n"


def _rows(values, fmt=format_float) -> list:
    """One comma-separated line per matrix row."""
    return [",".join(fmt(v) for v in row) + "\n" for row in values]


def field_to_csv(path: str, field: GridField, extra: Optional[dict] = None):
    """Write a field as a matrix block, rows over y (outer); a complex
    field writes its real block, then its imaginary block."""
    vals = field.values
    out = [_headers(field.grid, extra)]
    if np.iscomplexobj(vals):
        out += _rows(vals.real) + ["# imaginary part\n"] + _rows(vals.imag)
    else:
        out += _rows(vals)
    atomic_write(path, "".join(out))


def window_field_to_csv(path: str, window, values: np.ndarray,
                        extra: Optional[dict] = None):
    """Matrix block for a field on a covering window; the header records
    the window's period span alongside the parent grid geometry."""
    span = (f"# window px {window.px_lo} {window.px_hi} "
            f"py {window.py_lo} {window.py_hi}")
    atomic_write(path, "".join([_headers(window.grid, extra, span)] + _rows(values)))


def mask_to_csv(path: str, mask, extra: Optional[dict] = None):
    """0/1 cells, row-major with y as the outer index."""
    atomic_write(path, "".join([_headers(mask.grid, extra)]
                               + _rows(mask.inside.astype(int), str)))


def spectrum_to_csv(path: str, result, extra: Optional[dict] = None):
    """Lines 're im residual', sorted by |rho| (as computed)."""
    lines = [_headers(result.domain.grid, extra)]
    lines.append("# re im residual\n")
    for rho, res in zip(result.eigenvalues, result.residuals):
        lines.append(f"{format_float(rho.real)} {format_float(rho.imag)} "
                     f"{format_float(res)}\n")
    atomic_write(path, "".join(lines))


def read_field_csv(path: str) -> GridField:
    """Read a matrix-block field file written by field_to_csv."""
    nx = ny = None
    P = None
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if parts[:1] == ["nx"]:
                    nx, ny, P = int(parts[1]), int(parts[3]), float(parts[5])
                continue
            rows.append([float(v) for v in line.split(",")])
    if nx is None:
        raise ConfigError(f"{path}: missing '# nx ... ny ... P ...' header")
    vals = np.array(rows)
    if vals.shape != (ny, nx):
        raise ConfigError(f"{path}: expected {ny}x{nx} block, got {vals.shape}")
    return GridField(Grid(TorusSpec(P), nx, ny), vals)
