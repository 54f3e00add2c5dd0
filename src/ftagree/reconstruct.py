"""Brute-force reconstruction of an unpublished uniform-weight topology
from its reported edge energy and transformed algebraic connectivity.

The search enumerates every edge subset on n vertices (n > 8 is refused;
n = 8 gives 2**28 subsets, n = 6 gives 32768), keeps the connected ones
whose edge-energy value matches the target, and filters by the algebraic
connectivity of the exponent-transformed graph.
"""

import numpy as np

from .errors import SearchSpaceTooLarge
from .graph import Topology, exponent_transform, is_connected, topology_new
from .spectral import algebraic_connectivity

# Match tolerances: the edge energy to roundoff, the transformed
# connectivity to the four decimals the paper reports.
TOL_V = 1e-9
TOL_LAMBDA = 5e-4


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
    bit), so repeated runs return identical lists.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n > 8:
        raise SearchSpaceTooLarge(f"exhaustive search limited to n <= 8, got n={n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    npairs = len(pairs)
    # Edge-energy contribution of each pair: half the weight times the
    # squared state difference (the double sum counts each edge twice).
    contrib = np.array([0.5 * weight * (x0[j] - x0[i]) ** 2 for i, j in pairs])

    # Vectorized subset sums over all masks, chunked to bound memory.
    total = 1 << npairs
    chunk = 1 << 20
    hits: list[int] = []
    shifts = np.arange(npairs)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        sums = (((masks[:, None] >> shifts) & 1) @ contrib)
        hits.extend(masks[np.abs(sums - v1_target) <= TOL_V].tolist())

    candidates = []
    for mask in hits:
        edges = [(i, j, weight) for b, (i, j) in enumerate(pairs) if (mask >> b) & 1]
        top = topology_new(n, edges)
        if not is_connected(top):
            continue
        lam2b = algebraic_connectivity(exponent_transform(top, alpha))
        if abs(lam2b - lambda2b_target) <= TOL_LAMBDA:
            candidates.append(top)
    return candidates
