"""Weighted undirected interaction graphs and their Laplacians.

Agents communicate bidirectionally, so a topology is a symmetric
nonnegative weight matrix with zero diagonal. Edge (i, j) exists iff
weights[i, j] > 0.
"""

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .errors import (
    AlphaOutOfRange,
    DuplicateEdge,
    IndexOutOfRange,
    NegativeWeight,
    SelfLoop,
    TopologyError,
)

Edge = Tuple[int, int, float]


@dataclass(frozen=True)
class Topology:
    """Immutable weighted undirected graph on n >= 1 vertices."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise TopologyError("topology needs at least one vertex")
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise TopologyError(f"weight matrix must be {self.n}x{self.n}")
        if not np.all(np.isfinite(w)):
            raise TopologyError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise TopologyError("weight matrix must be symmetric")
        if np.any(np.diagonal(w) != 0.0):
            raise TopologyError("diagonal weights must be zero")
        if np.any(w < 0.0):
            raise NegativeWeight("weights must be nonnegative")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(w.sum(axis=1))):
                raise TopologyError("weighted degree sums must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def edges(self) -> list[Edge]:
        """Unordered edge list (i < j, positive weight)."""
        ii, jj = np.nonzero(np.triu(self.weights, 1))
        return [(int(i), int(j), float(self.weights[i, j])) for i, j in zip(ii, jj)]

    def neighbors(self, i: int) -> list[int]:
        return [int(j) for j in np.nonzero(self.weights[i])[0]]


def topology_new(n: int, edges: Iterable[Tuple[int, int, float]]) -> Topology:
    """Build a Topology from an explicit edge list.

    Duplicate (i, j) pairs are rejected rather than summed so that
    scenario files stay unambiguous.
    """
    if n < 1:
        raise TopologyError("topology needs at least one vertex")
    w = np.zeros((n, n))
    seen = set()
    for i, j, wt in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise SelfLoop(f"self-loop at vertex {i}")
        if wt < 0:
            raise NegativeWeight(f"edge ({i},{j}) has negative weight {wt}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdge(f"duplicate edge ({i},{j})")
        seen.add(key)
        w[i, j] = w[j, i] = wt
    return Topology(n, w)


def is_connected(t: Topology) -> bool:
    """True iff the graph induced by positive weights is connected."""
    n = t.n
    if n == 1:
        return True
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in np.nonzero(t.weights[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                queue.append(int(j))
    return bool(seen.all())


def laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian: degree on the diagonal, minus-weight off it."""
    return np.diag(t.weights.sum(axis=1)) - t.weights


def exponent_transform(t: Topology, alpha: float) -> Topology:
    """Entrywise power transform b_ij = a_ij**(2/(1+alpha)).

    Zero weights stay zero, so the edge set is preserved.
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must be in (0,1), got {alpha}")
    return Topology(t.n, t.weights ** (2.0 / (1.0 + alpha)))


def path_topology(n: int, weight: float = 1.0) -> Topology:
    """Path graph P_n with uniform edge weight."""
    return topology_new(n, [(i, i + 1, weight) for i in range(n - 1)])


def cycle_topology(n: int, weight: float = 1.0) -> Topology:
    """Cycle graph C_n with uniform edge weight."""
    edges = [(i, (i + 1) % n, weight) for i in range(n)]
    return topology_new(n, edges)


def complete_topology(n: int, weight: float = 1.0) -> Topology:
    """Complete graph K_n with uniform edge weight."""
    return topology_new(n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)])
