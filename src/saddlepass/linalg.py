"""Dense complex kernels for the pseudospectral pipeline.

Smallest singular values and eigenvalues are delegated to LAPACK through
numpy.  The level-crossing test builds the 2n-by-2n block matrix whose purely
imaginary eigenvalues i*y mark the heights y at which epsilon occurs among the
singular values of A - (x + i*y) I, which turns 1-D level-set geometry of the
sigma_min field into a single eigenvalue computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField

#: Acceptance threshold for "purely imaginary" block-matrix eigenvalues,
#: relative to 1 + Frobenius norm.  Backward-stable eigensolvers perturb real
#: parts at machine-precision scale times the norm.
_IMAG_AXIS_RTOL = 1e-8

#: Crossings closer than this are merged (tangential contact).
_MERGE_TOL = 1e-10


def as_complex_matrix(a) -> np.ndarray:
    """Validate and return a square, finite complex matrix (a copy)."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def smallest_singular_value(a) -> float:
    """sigma_min(A) for a square complex matrix."""
    m = as_complex_matrix(a)
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1])


def spectral_norm(a) -> float:
    m = as_complex_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a square matrix, sorted by (real, imag) for determinism."""
    m = as_complex_matrix(a)
    w = np.linalg.eigvals(m)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def byers_vertical_crossings(a, x: float, epsilon: float) -> np.ndarray:
    """All heights y where epsilon is a singular value of A - (x + i*y) I.

    Builds the block matrix ``[[x I - A^H, -eps I], [eps I, A - x I]]`` and
    extracts the imaginary parts of its purely imaginary eigenvalues.  Returned
    sorted ascending; near-coincident crossings are merged.  May be empty.
    """
    m = as_complex_matrix(a)
    eps = float(epsilon)
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n = m.shape[0]
    eye = np.eye(n)
    block = np.block(
        [
            [x * eye - m.conj().T, -eps * eye],
            [eps * eye, m - x * eye],
        ]
    )
    w = np.linalg.eigvals(block)
    scale = 1.0 + float(np.linalg.norm(block))
    ys = np.sort(w.imag[np.abs(w.real) <= _IMAG_AXIS_RTOL * scale])
    if ys.size == 0:
        return ys
    merged = [ys[0]]
    for y in ys[1:]:
        if y - merged[-1] > _MERGE_TOL:
            merged.append(y)
    return np.array(merged)


@dataclass
class SegmentFrame:
    """A segment [p, q] in C mapped onto a vertical segment for crossing tests.

    ``matrix`` is ``u (A - p I)`` for a unimodular u chosen so that
    ``sigma_min(matrix - i y I) == sigma_min(A - z(y) I)`` with
    ``z(y) = p + (q - p) y / length`` for y in [0, length].  The vertical
    segment therefore sits on the imaginary axis (x0 = 0).
    """

    matrix: np.ndarray
    p: complex
    q: complex
    rotation: complex
    length: float

    def point_at(self, y: float) -> complex:
        return self.p + (self.q - self.p) * (y / self.length)


def rotate_to_vertical(a, p: complex, q: complex) -> SegmentFrame:
    """Rotate/shift A so that sigma_min along [p, q] becomes a vertical scan.

    The rotation ``u = i * conj(q - p) / |q - p|`` is unimodular, so singular
    values are preserved pointwise under the returned reparameterization.
    """
    m = as_complex_matrix(a)
    p = complex(p)
    q = complex(q)
    if p == q:
        raise ValueError("segment endpoints must be distinct")
    length = abs(q - p)
    u = 1j * (q - p).conjugate() / length
    rotated = u * (m - p * np.eye(m.shape[0]))
    return SegmentFrame(matrix=rotated, p=p, q=q, rotation=u, length=length)


def _sigma_batch(a: np.ndarray, zs: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """sigma_min(A - z I) for an array of complex points, via stacked SVDs."""
    n = a.shape[0]
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    out = np.empty(zs.size)
    eye = np.eye(n)
    for start in range(0, zs.size, chunk):
        zc = zs[start : start + chunk]
        stack = a[None, :, :] - zc[:, None, None] * eye[None, :, :]
        svals = np.linalg.svd(stack, compute_uv=False)
        out[start : start + chunk] = svals[:, -1]
    return out


class SigmaMinField:
    """The scalar field z -> sigma_min(A - z I) on C identified with R^2."""

    def __init__(self, a):
        self.matrix = as_complex_matrix(a)
        self._eye = np.eye(self.matrix.shape[0])

    def sigma_at(self, z: complex) -> float:
        s = np.linalg.svd(self.matrix - complex(z) * self._eye, compute_uv=False)
        return float(s[-1])

    def gradient_at(self, z: complex) -> np.ndarray:
        """Gradient in (x, y); valid where the smallest singular value is simple."""
        u_full, s, vh = np.linalg.svd(self.matrix - complex(z) * self._eye)
        u = u_full[:, -1]
        v = vh[-1, :].conj()
        w = np.vdot(u, v)
        return np.array([-w.real, w.imag])

    def as_scalar_field(self) -> ScalarField:
        def ev(x):
            return self.sigma_at(complex(x[0], x[1]))

        def gr(x):
            return self.gradient_at(complex(x[0], x[1]))

        def ev_many(pts):
            return _sigma_batch(self.matrix, pts[:, 0] + 1j * pts[:, 1])

        return ScalarField(2, ev, gr, batch_evaluate=ev_many, name="sigma-min")
