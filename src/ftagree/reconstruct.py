"""Exhaustive reconstruction of an unpublished uniform-weight topology
from its reported edge energy and transformed algebraic connectivity.

The search finds every edge subset on n vertices (n > 8 is refused)
whose edge energy matches the target, keeps the connected ones, and
filters them by the algebraic connectivity of the exponent-transformed
graph. The energy matches come from a meet-in-the-middle search
(Horowitz and Sahni, J. ACM 1974): the P = n(n-1)/2 pair contributions
are split into two halves, the subset sums of each half are listed, the
low half is sorted once, and each high-half sum is matched by binary
search. Time and memory are O(2**(P/2) * P) plus the matches, not O(2**P):
for n = 6, 2**7 and 2**8 sums stand in for 2**15 subsets, and n = 8
lists 2**14 sums per half instead of 2**28 subsets.
"""

import math

import numpy as np

from .errors import ValidationError
from .graph import Topology, exponent_transform, is_connected, topology_new
from .spectral import algebraic_connectivity

# Match tolerances: the edge energy to roundoff, the transformed
# connectivity to the four decimals the paper reports.
TOL_V = 1e-9
TOL_LAMBDA = 5e-4


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """The sum of each subset of values, at the index whose bit b says
    whether values[b] is in the subset."""
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate((sums, sums + v))
    return sums


def _energy_matches(contrib: np.ndarray, v1_target: float) -> list[int]:
    """The masks of the subsets of contrib whose sum s has
    abs(s - v1_target) <= TOL_V, ascending; bit b of a mask is contrib[b].
    A sum is added up as its low-half sum plus its high-half sum."""
    # Bits 0..h-1 of a mask form its low-half mask, the rest its high-half mask.
    h = contrib.size // 2
    with np.errstate(over="ignore"):  # a sum of finite contributions may overflow
        low, high = _subset_sums(contrib[:h]), _subset_sums(contrib[h:])
        largest = min(abs(v1_target) + low.max() + high.max(), np.finfo(float).max)
    order = np.argsort(low)
    sorted_low = low[order]
    # A match has low within TOL_V of v1_target - high, up to the roundoff
    # of the two subtractions: a few ulps of the largest sum.
    need = v1_target - high
    slack = TOL_V + 4.0 * np.finfo(float).eps * largest
    first = np.searchsorted(sorted_low, need - slack, side="left")
    count = np.searchsorted(sorted_low, need + slack, side="right") - first
    # Every (low, high) pair inside a window, then the exact predicate.
    starts = np.cumsum(count) - count  # of each window's run in the flat list
    high_mask = np.repeat(np.arange(high.size), count)
    low_mask = order[np.repeat(first - starts, count) + np.arange(count.sum())]
    with np.errstate(over="ignore"):
        match = np.abs(low[low_mask] + high[high_mask] - v1_target) <= TOL_V
    return np.sort(low_mask[match] | high_mask[match] << h).tolist()


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
    bit), so repeated runs return identical lists. Invalid arguments,
    and more than 8 vertices, raise ValidationError.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1 or not np.isfinite(x0).all():
        raise ValidationError("x0 must be a nonempty finite vector")
    n = x0.size
    if n > 8:
        raise ValidationError(f"exhaustive search limited to n <= 8, got n={n}")
    if not (math.isfinite(v1_target) and math.isfinite(lambda2b_target)):
        raise ValidationError("the V1 and lambda2 targets must be finite")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    if not (math.isfinite(weight) and weight > 0):
        raise ValidationError(f"weight must be finite and positive, got {weight}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Edge-energy contribution of each pair: half the weight times the
    # squared state difference (the double sum counts each edge twice).
    with np.errstate(over="ignore"):
        contrib = np.array([0.5 * weight * (x0[j] - x0[i]) ** 2 for i, j in pairs])
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
