"""Weighted undirected interaction graphs and their Laplacians.

Agents communicate bidirectionally. A topology is stored as its edge
arrays i, j, w: one entry per edge, with i < j and w > 0, sorted by
(i, j). Vector fields and Lyapunov values scatter over these arrays in
O(|E|); the dense weight matrix and the Laplacian are built anew on
each call, for spectral work.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import TopologyError, ValidationError


@dataclass(frozen=True, init=False, eq=False)
class Topology:
    """Immutable weighted undirected graph on n >= 1 vertices.

    i, j, w are read-only edge arrays: i < j, w > 0, sorted by (i, j).
    Build one from an edge list with topology_new, or from a dense
    symmetric weight matrix with Topology(n, weights).
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __init__(self, n: int, weights):
        w = np.array(weights, dtype=float)
        if w.shape != (n, n):
            raise TopologyError(f"weight matrix must be {n}x{n}")
        # A NaN passes here and is named by the edge checks.
        if not np.array_equal(w, w.T, equal_nan=True):
            raise TopologyError("weight matrix must be symmetric")
        if np.any(np.diagonal(w) != 0.0):
            raise TopologyError("diagonal weights must be zero")
        i, j = np.nonzero(np.triu(w, 1))  # row-major, so sorted by (i, j)
        vars(self).update(vars(_topology_from_columns(n, i, j, w[i, j])))

    @classmethod
    def _from_edges(cls, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> "Topology":
        """Topology on edge arrays as topology_new leaves them: indices in
        range, no self-loops or repeated pairs, either orientation,
        nonnegative weights. Drops zero weights, checks the degree sums (an
        infinite weight, say an overflowed exponent_transform, fails them)
        and stores the arrays sorted by (i, j) and read-only."""
        keep = w > 0.0
        lo, hi = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
        order = np.argsort(lo * n + hi)
        i, j, w = lo[order], hi[order], w[keep][order]
        # One bincount adds without numpy's overflow warnings.
        degree = np.bincount(np.concatenate((i, j)), np.concatenate((w, w)), n)
        if not np.isfinite(degree).all():
            v = int(np.argmax(~np.isfinite(degree)))
            raise TopologyError(f"weighted degree sums must be finite (vertex {v})")
        t = cls.__new__(cls)
        for name, arr in (("i", i), ("j", j), ("w", w)):
            arr.flags.writeable = False
            object.__setattr__(t, name, arr)
        object.__setattr__(t, "n", n)
        return t

    @property
    def weights(self) -> np.ndarray:
        """Dense symmetric weight matrix, built anew on each access; read-only."""
        w = np.zeros((self.n, self.n))
        w[self.i, self.j] = self.w
        w[self.j, self.i] = self.w
        w.flags.writeable = False
        return w


def topology_new(n: int, edges: Iterable[Tuple[int, int, float]]) -> Topology:
    """Build a Topology from an explicit edge list.

    Duplicate (i, j) pairs are rejected rather than summed so that
    scenario files stay unambiguous; zero-weight edges pass the checks
    and are then dropped. An error names the first offending edge in
    list order.
    """
    edges = list(edges)
    i, j, w = zip(*edges) if edges else ((), (), ())
    return _topology_from_columns(n, i, j, w)


def _topology_from_columns(n: int, i: Sequence, j: Sequence, w: Sequence) -> Topology:
    """topology_new on the edge list zip(i, j, w), given as its columns."""
    if n < 1:
        raise TopologyError("topology needs at least one vertex")
    # The index rows are int64 when every index fits; else float64 (a
    # float index, or one below 2**64), whose rounding moves no index
    # across [0, n); past that numpy keeps exact Python ints.
    ends = np.array((i, j))
    with np.errstate(invalid="ignore"):  # nan % 1 and inf % 1 are nan
        in_range = ((ends >= 0) & (ends < n) & (ends % 1 == 0)).all(axis=0)
    a, b = np.where(in_range, ends, 0).astype(np.intp)
    weights = np.array(w, dtype=float)
    self_loop = in_range & (a == b)
    # Only a repeat counts: np.unique gives the first position of each pair.
    repeat = np.ones(len(w), dtype=bool)
    repeat[np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_index=True)[1]] = False
    bad = ~in_range | self_loop | (weights < 0) | repeat | ~np.isfinite(weights)
    if bad.any():
        k = int(np.argmax(bad))
        ik, jk, wk = i[k], j[k], w[k]
        if not in_range[k]:
            raise TopologyError(f"edge ({ik},{jk}) out of range for n={n}")
        if self_loop[k]:
            raise TopologyError(f"edge ({ik},{jk}) is a self-loop at vertex {ik}")
        if weights[k] < 0:
            raise TopologyError(
                f"edge ({ik},{jk}) has negative weight {wk}: weights must be nonnegative")
        if repeat[k]:
            raise TopologyError(f"duplicate edge ({ik},{jk})")
        raise TopologyError(f"edge ({ik},{jk}) has weight {wk}: weights must be finite")
    return Topology._from_edges(n, a, b, weights)


def is_connected(t: Topology) -> bool:
    """True iff the graph induced by positive weights is connected."""
    # Label every vertex with the root of its tree; roots point to
    # themselves and every pointer goes to a smaller vertex. Each round
    # hooks the larger root of each edge onto the smaller one, then jumps
    # pointers to roots. A round removes at least one root, and costs
    # O(|E| + n log n).
    label = np.arange(t.n)
    while True:
        li, lj = label[t.i], label[t.j]
        split = li != lj
        if not split.any():
            return not label.any()
        label[np.maximum(li, lj)[split]] = np.minimum(li, lj)[split]
        while not np.array_equal(label[label], label):
            label = label[label]


def laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian: degree on the diagonal, minus-weight off it."""
    w = t.weights
    return np.diag(w.sum(axis=1)) - w


def exponent_transform(t: Topology, alpha: float) -> Topology:
    """Entrywise power transform b_ij = a_ij**(2/(1+alpha)).

    Weights that underflow to zero are dropped; a weight that overflows
    is rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    with np.errstate(over="ignore"):
        w = t.w ** (2.0 / (1.0 + alpha))
    return Topology._from_edges(t.n, t.i, t.j, w)


def path_topology(n: int, weight: float = 1.0) -> Topology:
    """Path graph P_n with uniform edge weight."""
    return topology_new(n, [(i, i + 1, weight) for i in range(n - 1)])


def cycle_topology(n: int, weight: float = 1.0) -> Topology:
    """Cycle graph C_n (n >= 3) with uniform edge weight."""
    if n in (1, 2):
        raise TopologyError(f"a cycle needs at least 3 vertices, got n={n}")
    return topology_new(n, [(i, (i + 1) % n, weight) for i in range(n)])


def complete_topology(n: int, weight: float = 1.0) -> Topology:
    """Complete graph K_n with uniform edge weight."""
    return topology_new(n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)])
