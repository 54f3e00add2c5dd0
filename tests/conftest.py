import tracemalloc

import numpy as np
import pytest

from ftagree import Topology, is_connected


def random_topology(rng, n, p=0.5, wmin=0.5, wmax=2.0):
    """Random symmetric weighted graph; each pair kept with probability p."""
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = rng.uniform(wmin, wmax)
    return Topology(n, w)


def random_connected_topology(rng, n, p=0.5, wmin=0.5, wmax=2.0):
    for _ in range(1000):
        t = random_topology(rng, n, p, wmin, wmax)
        if is_connected(t):
            return t
    raise RuntimeError("failed to sample a connected graph")


def random_edge_list(rng, n):
    """Edge lines in random order and orientation; some have weight zero,
    and at low density many graphs are disconnected."""
    p = rng.uniform(0.1, 0.9)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = 0.0 if rng.random() < 0.2 else rng.uniform(0.5, 2.0)
                edges.append((j, i, w) if rng.random() < 0.5 else (i, j, w))
    return [edges[k] for k in rng.permutation(len(edges))]


def dense_weights(n, edges):
    """The symmetric weight matrix of an edge list, one line at a time."""
    w = np.zeros((n, n))
    for i, j, wt in edges:
        w[i, j] = w[j, i] = wt
    return w


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while fn runs, above
    what was allocated before; numpy reports its buffers to tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
