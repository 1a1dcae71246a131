"""Matrix file formats and CSV serialization for the CLI.

Text form: first line holds n, then exactly n rows.  A row is either n complex
tokens like ``0.461+0.65j`` or 2n whitespace-separated floats taken as re/im
pairs.
JSON form: ``{"n": ..., "re": [[...]], "im": [[...]]}``.  Entries must be finite.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linalg import as_complex_matrix


def format_float(v: float) -> str:
    """17 significant digits: round-trip safe for doubles."""
    return f"{v:.17g}"


def parse_matrix_text(text: str) -> np.ndarray:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_matrix_json(stripped)
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError as err:
        raise ValueError(f"first line must be the matrix size, got {lines[0]!r}") from err
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    rows = lines[1:]
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, found {len(rows)}")
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        tokens = rows[i].split()
        if len(tokens) == n:
            try:
                out[i] = [complex(t) for t in tokens]
            except ValueError as err:
                raise ValueError(f"row {i + 1}: bad complex token in {rows[i]!r}") from err
        elif len(tokens) == 2 * n:
            try:
                vals = [float(t) for t in tokens]
            except ValueError as err:
                raise ValueError(f"row {i + 1}: bad float token in {rows[i]!r}") from err
            out[i] = [complex(vals[2 * k], vals[2 * k + 1]) for k in range(n)]
        else:
            raise ValueError(
                f"row {i + 1}: expected {n} complex tokens or {2 * n} floats, got {len(tokens)}"
            )
    return out


def _parse_matrix_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"bad JSON matrix file: {err}") from err
    for key in ("n", "re", "im"):
        if key not in obj:
            raise ValueError(f"JSON matrix file missing key {key!r}")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"JSON matrix size must be a positive integer, got {n!r}")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except TypeError as err:
        raise ValueError(f"JSON matrix parts must be arrays of numbers: {err}") from err
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"JSON matrix parts must be {n}x{n}, got {re.shape} and {im.shape}")
    return re + 1j * im


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, validated as solver input (every entry finite)."""
    return as_complex_matrix(parse_matrix_text(Path(path).read_text()))


def matrix_to_text(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    lines = [str(n)]
    for row in a:
        lines.append(" ".join(f"{format_float(z.real)}{z.imag:+.17g}j" for z in row))
    return "\n".join(lines) + "\n"


def write_matrix(path, a: np.ndarray) -> None:
    Path(path).write_text(matrix_to_text(a))
