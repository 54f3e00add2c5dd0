"""Exhaustive reconstruction of an unpublished uniform-weight topology
from its reported edge energy and transformed algebraic connectivity.

The search finds every edge subset on n vertices (n > 7 is refused)
whose edge energy matches the target, keeps the connected ones, and
filters them by the algebraic connectivity of the exponent-transformed
graph. The energy matches come from one table of the sums of all 2**P
subsets of the P = n(n-1)/2 pair contributions: 2**P doubles, 256 KB
for n = 6 and 16 MB for n = 7 (n = 8 would need 2 GB).
"""

import math

import numpy as np

from .bounds import v1
from .errors import ValidationError
from .graph import Topology, exponent_transform, is_connected, topology_new
from .spectral import algebraic_connectivity

# Match tolerances: the edge energy to roundoff, the transformed
# connectivity to the four decimals the paper reports.
TOL_V = 1e-9
TOL_LAMBDA = 5e-4


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """The sum of each subset of values, at the index whose bit b says
    whether values[b] is in the subset. The table is filled in place, so
    it is the only array allocated."""
    sums = np.empty(1 << len(values))
    sums[0] = 0.0
    for b, v in enumerate(values):
        k = 1 << b
        np.add(sums[:k], v, out=sums[k:2 * k])
    return sums


def _energy_matches(contrib: np.ndarray, v1_target: float) -> list[int]:
    """The ascending masks (bit b means contrib[b]) whose sum is within TOL_V of v1_target."""
    with np.errstate(over="ignore"):  # a sum of finite contributions may overflow
        sums = _subset_sums(contrib)
        sums -= v1_target
    return np.flatnonzero(np.abs(sums, out=sums) <= TOL_V).tolist()


def reconstruct_paper_graph(
    x0,
    v1_target: float,
    lambda2b_target: float,
    alpha: float,
    weight: float = 2.0,
) -> list[Topology]:
    """All connected uniform-weight graphs matching both targets.

    Results are deterministically ordered by the edge-subset encoding
    (pairs enumerated i < j in lexicographic order, first pair = lowest
    bit), so repeated runs return identical lists. Each pair's edge
    energy is bounds.v1 of its one-edge graph, and the search holds a
    table of 2**(n(n-1)/2) subset sums. Invalid arguments, and more than
    7 vertices, raise ValidationError before the table is built.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1 or not np.isfinite(x0).all():
        raise ValidationError("x0 must be a nonempty finite vector")
    n = x0.size
    if n > 7:
        raise ValidationError(f"exhaustive search limited to n <= 7, got n={n}")
    if not (math.isfinite(v1_target) and math.isfinite(lambda2b_target)):
        raise ValidationError("the V1 and lambda2 targets must be finite")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    if not (math.isfinite(weight) and weight > 0):
        raise ValidationError(f"weight must be finite and positive, got {weight}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    with np.errstate(over="ignore"):
        contrib = np.array([v1(topology_new(n, [(i, j, weight)]), x0) for i, j in pairs])
    if not np.isfinite(contrib).all():
        raise ValidationError("an edge-energy contribution is not finite (overflow)")

    candidates = []
    for mask in _energy_matches(contrib, v1_target):
        edges = [(i, j, weight) for b, (i, j) in enumerate(pairs) if (mask >> b) & 1]
        top = topology_new(n, edges)
        if not is_connected(top):
            continue
        lam2b = algebraic_connectivity(exponent_transform(top, alpha))
        if abs(lam2b - lambda2b_target) <= TOL_LAMBDA:
            candidates.append(top)
    return candidates
