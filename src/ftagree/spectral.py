"""Symmetric spectrum (LAPACK eigh via numpy) and algebraic connectivity
(eigenvalues only, LAPACK eigvalsh)."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowup, ValidationError
from .graph import Topology, laplacian


@dataclass(frozen=True)
class SpectrumResult:
    """All eigenvalues sorted ascending, plus a residual diagnostic.

    residual = max over eigenpairs of the infinity norm of M v - lam v.
    """

    eigenvalues: np.ndarray
    residual: float


def eigenvalues_symmetric(m: np.ndarray) -> SpectrumResult:
    """Full spectrum of a symmetric matrix by LAPACK's `eigh`.

    The solve runs on the matrix scaled by a power of two to a largest
    entry in [0.5, 1), which is exact, so huge or tiny entries neither
    overflow nor underflow inside it; the eigenvalues and the residual
    are scaled back by the same power. A non-finite entry, or a spectrum
    that does not fit in a double once scaled back, raises
    NumericalBlowup.
    """
    return SpectrumResult(*_spectrum(m, vectors=True))


def _spectrum(m, vectors: bool) -> tuple[np.ndarray, float | None]:
    """Eigenvalues of m, ascending, and the residual of its eigenpairs
    (None without vectors); see eigenvalues_symmetric. Without vectors
    the solve is LAPACK's eigenvalue-only `eigvalsh`."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError("input must be a non-empty square matrix")
    if not np.isfinite(m).all():
        raise NumericalBlowup("non-finite matrix entry")
    largest = float(np.abs(m).max())
    if float(np.abs(m - m.T).max()) > 1e-12 * max(1.0, largest):
        raise ValidationError("input is not symmetric within 1e-12 relative tolerance")

    exp = math.frexp(largest)[1]
    m = np.ldexp(m, -exp)
    residual = None
    if vectors:
        lam, v = np.linalg.eigh((m + m.T) / 2.0)
        residual = math.ldexp(float(np.abs(m @ v - v * lam).max()), exp)
    else:
        lam = np.linalg.eigvalsh((m + m.T) / 2.0)
    with np.errstate(over="ignore"):
        lam = np.ldexp(lam, exp)
    if not np.all(np.isfinite(lam)):
        raise NumericalBlowup("non-finite eigenvalue: the spectrum overflows the float range")
    return lam, residual


def algebraic_connectivity(t: Topology) -> float:
    """Second smallest Laplacian eigenvalue; positive iff connected.
    Taken from the eigenvalues alone (no eigenvectors, no residual).

    A single vertex is trivially in agreement, so its connectivity is
    reported as +inf.
    """
    if t.n == 1:
        return math.inf
    return float(_spectrum(laplacian(t), vectors=False)[0][1])
