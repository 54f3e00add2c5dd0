"""Symmetric eigensolver (cyclic Jacobi) and algebraic connectivity."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedTopology,
    NoConvergence,
    NotSymmetric,
    NotZeroSum,
    NumericalBlowup,
)
from .graph import Topology, laplacian

_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SpectrumResult:
    """All eigenvalues sorted ascending, plus a residual diagnostic.

    residual = max over eigenpairs of the infinity norm of M v - lam v.
    """

    eigenvalues: np.ndarray
    residual: float


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diagonal(a))
    return float(np.sqrt((off * off).sum()))


def eigenvalues_symmetric(m: np.ndarray) -> SpectrumResult:
    """Full spectrum of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps over all off-diagonal pairs until the off-diagonal Frobenius
    norm drops below 1e-12 of its initial value. The sweeps run on the
    matrix scaled by a power of two to a largest entry in [0.5, 1), which
    is exact and keeps the norms from overflowing or underflowing.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric("input must be a square matrix")
    n = m.shape[0]
    largest = float(np.abs(m).max())
    if float(np.abs(m - m.T).max()) > 1e-12 * max(1.0, largest):
        raise NotSymmetric("input is not symmetric within 1e-12 relative tolerance")

    exp = math.frexp(largest)[1]
    m = np.ldexp(m, -exp)
    a = (m + m.T) / 2.0
    v = np.eye(n)

    off0 = _offdiag_norm(a)
    threshold = 1e-12 * off0
    done = off0 == 0.0
    for _ in range(_MAX_SWEEPS):
        if done or _offdiag_norm(a) <= threshold:
            done = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                a[p, q] = a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if not done and _offdiag_norm(a) > threshold:
        raise NoConvergence(f"Jacobi did not converge in {_MAX_SWEEPS} sweeps")

    lam = np.diagonal(a).copy()
    order = np.argsort(lam)
    lam = lam[order]
    v = v[:, order]
    residual = float(np.abs(m @ v - v * lam).max())
    with np.errstate(over="ignore"):
        lam = np.ldexp(lam, exp)
    if not np.all(np.isfinite(lam)):
        raise NumericalBlowup("non-finite eigenvalue: the spectrum overflows the float range")
    return SpectrumResult(lam, math.ldexp(residual, exp))


def algebraic_connectivity(t: Topology) -> float:
    """Second smallest Laplacian eigenvalue; positive iff connected.

    A single vertex is trivially in agreement, so its connectivity is
    reported as +inf.
    """
    if t.n == 1:
        return math.inf
    return float(eigenvalues_symmetric(laplacian(t)).eigenvalues[1])


def rayleigh_bound_check(t: Topology, x: np.ndarray) -> bool:
    """Check the Rayleigh inequality x'Lx >= lam2 x'x for zero-sum x."""
    x = np.asarray(x, dtype=float)
    scale_x = max(1.0, float(np.abs(x).sum()))
    if abs(float(x.sum())) > 1e-9 * scale_x:
        raise NotZeroSum("x must sum to zero")
    if not np.any(x):
        raise NotZeroSum("x must be nonzero")
    lam2 = algebraic_connectivity(t)
    if not math.isfinite(lam2):
        raise DisconnectedTopology("single-vertex graph has no Rayleigh bound")
    lhs = float(x @ laplacian(t) @ x)
    rhs = lam2 * float(x @ x)
    return lhs >= rhs - 1e-9 * max(1.0, abs(rhs))
