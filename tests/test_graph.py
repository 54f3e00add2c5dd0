import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftagree import (
    Topology,
    exponent_transform,
    is_connected,
    laplacian,
    path_topology,
    topology_new,
)
from ftagree.errors import (
    AlphaOutOfRange,
    DuplicateEdge,
    IndexOutOfRange,
    NegativeWeight,
    SelfLoop,
    TopologyError,
)
from conftest import random_topology


class TestTopologyNew:
    def test_single_edge(self):
        t = topology_new(2, [(0, 1, 1.0)])
        np.testing.assert_array_equal(t.weights, [[0, 1], [1, 0]])

    def test_weighted_path(self):
        t = path_topology(6, 2.0)
        assert t.weights[0, 1] == 2.0 == t.weights[1, 0]
        assert t.weights[2, 3] == 2.0
        assert t.weights[0, 2] == 0.0
        assert len(t.edges()) == 5

    def test_empty_graph(self):
        t = topology_new(3, [])
        np.testing.assert_array_equal(t.weights, np.zeros((3, 3)))
        assert not is_connected(t)

    def test_errors(self):
        with pytest.raises(IndexOutOfRange):
            topology_new(2, [(0, 2, 1.0)])
        with pytest.raises(SelfLoop):
            topology_new(2, [(1, 1, 1.0)])
        with pytest.raises(DuplicateEdge):
            topology_new(3, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(NegativeWeight):
            topology_new(2, [(0, 1, -1.0)])
        with pytest.raises(TopologyError):
            topology_new(0, [])

    @pytest.mark.parametrize(
        "edges, error, named",
        [
            ([(0, 1, 1.0), (2, 5, 1.0), (0, 7, 1.0)], IndexOutOfRange, "(2,5)"),
            ([(0, 1, 1.0), (0, 10**400, 1.0)], IndexOutOfRange, "out of range"),
            ([(0, 1, 1.0), (0.5, 2, 1.0)], IndexOutOfRange, "(0.5,2)"),
            ([(0, 1, 1.0), (2, 2, 1.0), (1, 1, 1.0)], SelfLoop, "(2,2)"),
            ([(0, 1, 1.0), (1, 2, -1.0), (0, 2, -2.0)], NegativeWeight, "(1,2)"),
            ([(0, 1, 1.0), (2, 1, 1.0), (1, 2, 3.0), (1, 0, 1.0)], DuplicateEdge, "(1,2)"),
            ([(0, 1, 0.0), (1, 0, 1.0)], DuplicateEdge, "(1,0)"),
            ([(0, 1, 1.0), (2, 1, math.inf), (0, 2, math.nan)], TopologyError, "(2,1)"),
            ([(0, 1, 1e308), (0, 2, 1e308)], TopologyError, "vertex 0"),
            # The first bad edge decides the error, whatever follows it.
            ([(0, 1, 1.0), (1, 0, 1.0), (0, 9, 1.0)], DuplicateEdge, "(1,0)"),
            ([(0, 2, math.nan), (0, 1, -1.0)], TopologyError, "(0,2)"),
            ([(1, 2, -1.0), (1, 1, 1.0)], NegativeWeight, "(1,2)"),
            ([(0, 1, math.nan), (1, 1, 1.0)], TopologyError, "(0,1)"),
        ],
    )
    def test_error_names_first_bad_edge(self, edges, error, named):
        with pytest.raises(TopologyError) as excinfo:
            topology_new(3, edges)
        assert excinfo.type is error
        assert named in str(excinfo.value)

    @pytest.mark.parametrize(
        "n, weights, error, message",
        [
            (2, np.zeros((2, 3)), TopologyError, "weight matrix must be 2x2"),
            (2, [[0, 1], [2, 0]], TopologyError, "weight matrix must be symmetric"),
            (2, [[0, math.nan], [math.nan, 0]], TopologyError, "weights must be finite"),
            (2, [[1, 1], [1, 0]], TopologyError, "diagonal weights must be zero"),
            (2, [[0, -1], [-1, 0]], NegativeWeight, "weights must be nonnegative"),
            (3, [[0, 1e308, 1e308], [1e308, 0, 0], [1e308, 0, 0]], TopologyError, "vertex 0"),
            (0, np.zeros((0, 0)), TopologyError, "topology needs at least one vertex"),
        ],
        ids=["shape", "asymmetric", "nan", "diagonal", "negative", "degree-overflow", "empty"],
    )
    def test_dense_errors(self, n, weights, error, message):
        with pytest.raises(TopologyError) as excinfo:
            Topology(n, weights)
        assert excinfo.type is error
        assert message in str(excinfo.value)

    def test_zero_weight_lines_dropped(self):
        t = topology_new(4, [(3, 2, 1.5), (0, 1, 0.0), (1, 2, 2.0), (0, 3, -0.0)])
        assert t.edges() == [(1, 2, 2.0), (2, 3, 1.5)]
        np.testing.assert_array_equal(
            t.weights, [[0, 0, 0, 0], [0, 0, 2, 0], [0, 2, 0, 1.5], [0, 0, 1.5, 0]]
        )

    def test_dense_round_trip(self, rng):
        for _ in range(50):
            t = random_topology(rng, int(rng.integers(1, 9)))
            again = topology_new(t.n, t.edges())
            np.testing.assert_array_equal(again.weights, t.weights)
            assert np.all(t.i < t.j) and np.all(t.w > 0)
            assert np.all(np.diff(t.i * t.n + t.j) > 0)

    def test_immutable(self):
        t = topology_new(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            t.weights[0, 1] = 5.0

    def test_invariants_fuzz(self, rng):
        for _ in range(50):
            t = random_topology(rng, int(rng.integers(1, 7)))
            assert np.array_equal(t.weights, t.weights.T)
            assert np.all(np.diagonal(t.weights) == 0)
            assert np.all(t.weights >= 0)


@st.composite
def symmetric_matrices(draw):
    """A symmetric matrix with a zero diagonal, its entries valid, zero,
    negative, non-finite, or large enough for a degree sum to overflow."""
    n = draw(st.integers(0, 6))
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = draw(st.sampled_from([0.0, 1.5, -1.0, math.nan, math.inf, 1e308]))
    return w


def built_or_refused(build):
    """The edge arrays and weight matrix of build(), or its error and message."""
    try:
        t = build()
    except TopologyError as exc:
        return type(exc), str(exc)
    return t.i.tolist(), t.j.tolist(), t.w.tolist(), t.weights.tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(w=symmetric_matrices())
def test_dense_matrix_and_its_upper_edge_list_build_alike(w):
    n = len(w)
    edges = [(i, j, w[i, j]) for i in range(n) for j in range(i + 1, n) if w[i, j] != 0]
    dense = built_or_refused(lambda: Topology(n, w))
    assert dense == built_or_refused(lambda: topology_new(n, edges))


def connected_reference(w) -> bool:
    """Breadth-first search over the dense weight matrix."""
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in np.nonzero(w[i] > 0)[0].tolist():
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(w)


class TestIsConnected:
    def test_matches_search(self, rng):
        outcomes = set()
        for _ in range(300):
            n = int(rng.integers(1, 12))
            t = random_topology(rng, n, p=rng.uniform(0.05, 0.6))
            outcomes.add(is_connected(t))
            assert is_connected(t) == connected_reference(t.weights)
        assert outcomes == {True, False}

    def test_long_paths_in_any_order(self, rng):
        for _ in range(5):
            perm = rng.permutation(500).tolist()
            edges = [(a, b, 1.0) for a, b in zip(perm, perm[1:])]
            assert is_connected(topology_new(500, edges))
            assert not is_connected(topology_new(500, edges[:250] + edges[251:]))

    def test_path(self):
        assert is_connected(path_topology(6))

    def test_two_triangles(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
        assert not is_connected(topology_new(6, edges))

    def test_single_vertex(self):
        assert is_connected(topology_new(1, []))


class TestLaplacian:
    def test_unit_p3(self):
        L = laplacian(path_topology(3))
        np.testing.assert_array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_ones_in_kernel(self, rng):
        for _ in range(20):
            t = random_topology(rng, int(rng.integers(2, 7)))
            L = laplacian(t)
            scale = max(1.0, np.abs(L).max())
            assert np.abs(L @ np.ones(t.n)).max() <= 1e-12 * t.n * scale
            assert np.abs(L.sum(axis=1)).max() <= 1e-12 * t.n * scale
            np.testing.assert_allclose(L, L.T, atol=0)
            off = L - np.diag(np.diagonal(L))
            assert np.all(off <= 0)

    def test_quadratic_form_identity(self, rng):
        # oracle: direct double sum over all ordered pairs
        for _ in range(1000):
            t = random_topology(rng, 5)
            x = rng.uniform(-10, 10, 5)
            lhs = x @ laplacian(t) @ x
            rhs = 0.5 * sum(
                t.weights[i, j] * (x[j] - x[i]) ** 2
                for i in range(5)
                for j in range(5)
            )
            scale = max(1.0, abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * scale
            assert lhs >= -1e-10 * scale  # positive semidefinite


class TestExponentTransform:
    def test_uniform_weight_two(self):
        b = exponent_transform(path_topology(4, 2.0), 0.5)
        expected = 2.0 ** (4.0 / 3.0)
        assert b.weights[0, 1] == pytest.approx(expected, abs=1e-12)
        assert b.weights[0, 1] == pytest.approx(2.519842, abs=1e-6)

    def test_unit_weights_unchanged(self):
        for alpha in (0.1, 0.5, 0.9):
            b = exponent_transform(path_topology(4, 1.0), alpha)
            np.testing.assert_array_equal(b.weights, path_topology(4, 1.0).weights)

    def test_alpha_near_one_limit(self, rng):
        t = random_topology(rng, 5)
        b = exponent_transform(t, 1.0 - 1e-12)
        np.testing.assert_allclose(b.weights, t.weights, rtol=1e-10)

    def test_alpha_out_of_range(self):
        t = path_topology(3)
        for alpha in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(AlphaOutOfRange):
                exponent_transform(t, alpha)

    def test_zero_pattern_and_monotonicity(self, rng):
        for alpha in (0.2, 0.5, 0.8):
            for _ in range(20):
                t = random_topology(rng, 6)
                b = exponent_transform(t, alpha)
                np.testing.assert_array_equal(b.weights > 0, t.weights > 0)
        # monotone in each weight: exponent 2/(1+alpha) > 1 preserves order
        t1 = topology_new(2, [(0, 1, 1.5)])
        t2 = topology_new(2, [(0, 1, 2.5)])
        b1 = exponent_transform(t1, 0.5)
        b2 = exponent_transform(t2, 0.5)
        assert b1.weights[0, 1] < b2.weights[0, 1]
