"""Plain-text weight files.

Format: first line `WGT1 d=<dim> L=<depth>`, then 2^(d*L) decimal values in
row-major order separated by arbitrary whitespace.  Writers emit 17
significant digits, one row of the finest axis per line.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, FormatError
from .lattice import Lattice, Weight, make_lattice

MAGIC = "WGT1"


def write_weight(path, w: Weight) -> None:
    lat = w.lattice
    with open(path, "w") as fh:
        fh.write(f"{MAGIC} d={lat.dim} L={lat.depth}\n")
        flat = w.density.reshape(-1, lat.cells_per_axis)
        for row in flat:
            fh.write(" ".join("%.17g" % v for v in row))
            fh.write("\n")


def _parse_header(line: str) -> Lattice:
    parts = line.split()
    if not parts or parts[0] != MAGIC:
        raise FormatError(f"line 1: expected '{MAGIC} d=<dim> L=<depth>', got {line!r}")
    fields = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise FormatError(f"line 1: malformed token {tok!r}")
        key, _, val = tok.partition("=")
        fields[key] = val
    try:
        dim = int(fields["d"])
        depth = int(fields["L"])
    except (KeyError, ValueError):
        raise FormatError(f"line 1: header needs integer d= and L=, got {line!r}") from None
    try:
        return make_lattice(dim, depth)
    except DomainError as e:
        raise FormatError(f"line 1: {e}") from None


def read_weight(path) -> Weight:
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise FormatError("line 1: empty file")
        lat = _parse_header(header.rstrip("\n"))
        values = np.empty(lat.cell_count, dtype=np.float64)
        count = 0
        for lineno, line in enumerate(fh, start=2):
            for tok in line.split():
                if count >= lat.cell_count:
                    raise FormatError(
                        f"line {lineno}: more than {lat.cell_count} values for d={lat.dim} L={lat.depth}"
                    )
                try:
                    v = float(tok)
                except ValueError:
                    raise FormatError(f"line {lineno}: not a number: {tok!r}") from None
                if not np.isfinite(v) or v < 0.0:
                    cell = np.unravel_index(count, lat.shape)
                    raise FormatError(
                        f"line {lineno}: cell {tuple(int(c) for c in cell)} has"
                        f" invalid density {tok}"
                    )
                values[count] = v
                count += 1
        if count != lat.cell_count:
            raise FormatError(
                f"end of file: expected {lat.cell_count} values, found {count}"
            )
    return Weight(lat, values)
