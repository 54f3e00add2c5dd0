import math

import numpy as np
import pytest

from ftagree import (
    algebraic_connectivity,
    complete_topology,
    cycle_topology,
    eigenvalues_symmetric,
    exponent_transform,
    is_connected,
    laplacian,
    path_topology,
    rayleigh_bound_check,
    topology_new,
)
from ftagree.errors import DimensionMismatch, NotSymmetric, NotZeroSum, NumericalBlowup
from conftest import random_connected_topology, random_topology


class TestEigenvaluesSymmetric:
    def test_diagonal(self):
        res = eigenvalues_symmetric(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(res.eigenvalues, [2.0, 3.0], atol=1e-12)
        assert res.residual <= 1e-10

    def test_unit_p3_laplacian(self):
        # characteristic polynomial lam (lam - 1)(lam - 3)
        res = eigenvalues_symmetric(laplacian(path_topology(3)))
        np.testing.assert_allclose(res.eigenvalues, [0.0, 1.0, 3.0], atol=1e-10)

    def test_complete_graph_spectrum(self):
        for n in range(2, 8):
            res = eigenvalues_symmetric(laplacian(complete_topology(n)))
            expected = [0.0] + [float(n)] * (n - 1)
            np.testing.assert_allclose(res.eigenvalues, expected, atol=1e-9 * n)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            eigenvalues_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetric):
            eigenvalues_symmetric(np.ones((2, 3)))
        with pytest.raises(NotSymmetric):
            eigenvalues_symmetric(np.zeros((0, 0)))
        # Checked before any arithmetic, which would turn inf into nan.
        with pytest.raises(NumericalBlowup):
            eigenvalues_symmetric(np.array([[0.0, math.inf], [math.inf, 0.0]]))

    def test_trace_identity(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 81))
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            res = eigenvalues_symmetric(m)
            tr = np.trace(m)
            assert abs(res.eigenvalues.sum() - tr) <= 1e-9 * max(1.0, abs(tr))
            assert np.all(np.diff(res.eigenvalues) >= 0)

    def test_residual_small(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 81))
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            res = eigenvalues_symmetric(m)
            assert res.residual <= 1e-10 * max(1.0, np.abs(m).max())
            # The solve sees the same matrix whatever power of two scales the
            # input, so spectrum and residual scale bit for bit. LAPACK's own
            # scaling of entries near 1e+-180 is not a power of two.
            for k in (600, -600):
                scaled = eigenvalues_symmetric(np.ldexp(m, k))
                assert np.array_equal(scaled.eigenvalues, np.ldexp(res.eigenvalues, k))
                assert scaled.residual == math.ldexp(res.residual, k)

    def test_matches_characteristic_polynomial_3x3(self, rng):
        # independent oracle: roots of det(M - lam I) via numpy.roots
        for _ in range(50):
            m = rng.uniform(-5, 5, size=(3, 3))
            m = (m + m.T) / 2
            a, b, c = m[0, 0], m[1, 1], m[2, 2]
            d, e, f = m[0, 1], m[0, 2], m[1, 2]
            # -lam^3 + tr lam^2 - (sum principal 2x2 minors) lam + det
            coeffs = [
                -1.0,
                a + b + c,
                -(a * b - d * d + a * c - e * e + b * c - f * f),
                np.linalg.det(m),
            ]
            roots = np.sort(np.roots(coeffs).real)
            res = eigenvalues_symmetric(m)
            np.testing.assert_allclose(res.eigenvalues, roots, atol=1e-8)

    def test_laplacian_spectrum_nonnegative(self, rng):
        for _ in range(50):
            t = random_topology(rng, int(rng.integers(2, 8)))
            ev = eigenvalues_symmetric(laplacian(t)).eigenvalues
            assert ev[0] == pytest.approx(0.0, abs=1e-9)
            assert np.all(ev >= -1e-9)


class TestAlgebraicConnectivity:
    def test_unit_cycle_c6(self):
        assert algebraic_connectivity(cycle_topology(6)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_unit_path_p6(self):
        expected = 2.0 * (1.0 - math.cos(math.pi / 6.0))
        lam2 = algebraic_connectivity(path_topology(6))
        assert lam2 == pytest.approx(expected, abs=1e-10)
        assert lam2 == pytest.approx(0.267949, abs=1e-6)

    def test_transformed_weighted_path(self):
        # lam2 scales linearly under uniform weight scaling
        b = exponent_transform(path_topology(6, 2.0), 0.5)
        expected = 2.0 ** (4.0 / 3.0) * 2.0 * (1.0 - math.cos(math.pi / 6.0))
        lam2 = algebraic_connectivity(b)
        assert lam2 == pytest.approx(expected, abs=1e-10)
        assert lam2 == pytest.approx(0.675190, abs=1e-6)

    def test_uniform_scaling(self, rng):
        for _ in range(20):
            t = random_connected_topology(rng, 5)
            c = rng.uniform(0.1, 10.0)
            lam2 = algebraic_connectivity(t)
            lam2_scaled = algebraic_connectivity(
                topology_new(5, [(i, j, c * w) for i, j, w in t.edges()])
            )
            assert lam2_scaled == pytest.approx(c * lam2, rel=1e-9)

    def test_positive_iff_connected(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            t = random_topology(rng, n, p=rng.uniform(0.1, 0.9))
            assert (algebraic_connectivity(t) > 1e-9) == is_connected(t)


class TestRayleighBound:
    def test_fiedler_vector_equality(self):
        t = path_topology(6)
        L = laplacian(t)
        lam2 = algebraic_connectivity(t)
        # Fiedler eigenvector from an independent dense solve
        w, v = np.linalg.eigh(L)
        fiedler = v[:, 1]
        assert rayleigh_bound_check(t, fiedler)
        lhs = fiedler @ L @ fiedler
        assert lhs == pytest.approx(lam2 * fiedler @ fiedler, abs=1e-8)

    def test_random_zero_sum_fuzz(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            t = random_connected_topology(rng, n)
            x = rng.uniform(-10, 10, n)
            x -= x.mean()
            if np.abs(x).max() < 1e-12:
                continue
            assert rayleigh_bound_check(t, x)

    def test_ones_rejected(self):
        with pytest.raises(NotZeroSum):
            rayleigh_bound_check(path_topology(3), np.ones(3))

    def test_wrong_length_rejected(self):
        # A state of the wrong length is refused as field and v1 refuse it.
        with pytest.raises(DimensionMismatch):
            rayleigh_bound_check(path_topology(3), [1.0, -1.0])
