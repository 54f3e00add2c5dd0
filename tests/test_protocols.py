import math

import numpy as np
import pytest

from ftagree import (
    ProtocolKind,
    ProtocolSpec,
    Scenario,
    complete_topology,
    field,
    integrate,
    integrate_batch,
    is_connected,
    laplacian,
    path_topology,
    topology_new,
)
from ftagree.errors import ValidationError
from conftest import dense_weights, random_connected_topology, random_edge_list

P3 = path_topology(3)
EDGE = topology_new(2, [(0, 1, 1.0)])


def dense_fields(w, x, alpha):
    """The n-by-n formulas, as an independent reference for the edge kernel:
    each field and the magnitude of the terms it sums."""
    d = x[None, :] - x[:, None]
    s = np.sign(d) * np.abs(d) ** alpha
    lin = (w * d).sum(axis=1)
    scale = np.abs(w * d).sum(axis=1)
    return {
        "p1": (np.sign(lin) * np.abs(lin) ** alpha, scale ** alpha),
        "p2": ((w * s).sum(axis=1), np.abs(w * s).sum(axis=1)),
        "linear": (lin, scale),
    }


class TestEdgeKernel:
    def test_matches_dense_reference(self, rng):
        disconnected = zero_lines = 0
        for n in range(1, 9):
            for _ in range(60):
                edges = random_edge_list(rng, n)
                t = topology_new(n, edges)
                w = dense_weights(n, edges)
                disconnected += not is_connected(t)
                zero_lines += any(wt == 0.0 for _, _, wt in edges)
                x = rng.uniform(-10, 10, n)
                alpha = rng.choice([0.2, 0.5, 0.8])
                ref = dense_fields(w, x, alpha)
                got = {
                    "p1": field(ProtocolSpec(ProtocolKind.P1, alpha), t, x),
                    "p2": field(ProtocolSpec(ProtocolKind.P2, alpha), t, x),
                    "linear": field(ProtocolSpec(ProtocolKind.LINEAR), t, x),
                }
                for kind, (expected, scale) in ref.items():
                    np.testing.assert_allclose(
                        got[kind], expected, rtol=1e-12, atol=1e-12 * scale.max(), err_msg=kind
                    )
        assert disconnected > 50 and zero_lines > 50

    def test_p2_conserves_sum_on_large_sparse_graph(self, rng):
        n = 1000
        perm = rng.permutation(n).tolist()
        pairs = {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:] + perm[:1])}
        while len(pairs) < 3 * n:
            a, b = rng.integers(0, n, 2).tolist()
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        t = topology_new(n, [(a, b, rng.uniform(0.5, 2.0)) for a, b in sorted(pairs)])
        for alpha in (0.2, 0.5, 0.8):
            u = field(ProtocolSpec(ProtocolKind.P2, alpha), t, rng.uniform(-10, 10, n))
            assert abs(u.sum()) <= 1e-12 * np.abs(u).sum()


def p2_edge(r, alpha):
    """sig(r, alpha), as P2 gives it to vertex 0 of the unit edge at x = [0, r]."""
    return field(ProtocolSpec(ProtocolKind.P2, alpha), EDGE, [0.0, r])[0]


class TestSig:
    def test_values(self):
        assert p2_edge(4.0, 0.5) == 2.0
        assert p2_edge(-9.0, 0.5) == -3.0
        assert p2_edge(0.0, 0.3) == 0.0
        assert field(ProtocolSpec(ProtocolKind.LINEAR), EDGE, [0.0, 2.5])[0] == 2.5

    def test_exactly_odd(self, rng):
        for r in rng.uniform(-100, 100, 200):
            for alpha in (0.2, 0.5, 0.8):
                assert p2_edge(-r, alpha) == -p2_edge(r, alpha)


class TestProtocol1:
    def test_two_agents(self):
        np.testing.assert_allclose(
            field(ProtocolSpec(ProtocolKind.P1, 0.5), EDGE, [0.0, 1.0]), [1.0, -1.0], atol=0
        )

    def test_constant_state(self, rng):
        t = random_connected_topology(rng, 5)
        u = field(ProtocolSpec(ProtocolKind.P1, 0.5), t, 7.0 * np.ones(5))
        np.testing.assert_array_equal(u, np.zeros(5))

    def test_unit_p3(self):
        # inner sums 0, 4, -4; sig at alpha=0.5 gives 0, 2, -2
        np.testing.assert_allclose(
            field(ProtocolSpec(ProtocolKind.P1, 0.5), P3, [0.0, 0.0, 4.0]),
            [0.0, 2.0, -2.0],
            atol=1e-14,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match=r"state has shape \(2,\), topology has n=3"):
            field(ProtocolSpec(ProtocolKind.P1, 0.5), P3, [0.0, 1.0])


class TestProtocol2:
    def test_two_agents(self):
        u = field(ProtocolSpec(ProtocolKind.P2, 0.5), EDGE, [0.0, 1.0])
        np.testing.assert_allclose(u, [1.0, -1.0], atol=0)
        assert u.sum() == 0.0

    def test_unit_p3(self):
        np.testing.assert_allclose(
            field(ProtocolSpec(ProtocolKind.P2, 0.5), P3, [0.0, 0.0, 4.0]),
            [0.0, 2.0, -2.0],
            atol=1e-14,
        )

    def test_unit_triangle(self):
        u = field(ProtocolSpec(ProtocolKind.P2, 0.5), complete_topology(3), [0.0, 1.0, 4.0])
        expected = [3.0, math.sqrt(3.0) - 1.0, -2.0 - math.sqrt(3.0)]
        np.testing.assert_allclose(u, expected, atol=1e-12)
        assert abs(u.sum()) <= 1e-12 * np.abs(u).sum()

    def test_sum_conservation_fuzz(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            t = random_connected_topology(rng, n)
            x = rng.uniform(-10, 10, n)
            alpha = rng.uniform(0.05, 0.95)
            u = field(ProtocolSpec(ProtocolKind.P2, alpha), t, x)
            assert abs(u.sum()) <= 1e-12 * max(1e-300, np.abs(u).sum())


class TestLinear:
    def test_constant(self, rng):
        t = random_connected_topology(rng, 4)
        np.testing.assert_array_equal(
            field(ProtocolSpec(ProtocolKind.LINEAR), t, 3.0 * np.ones(4)), np.zeros(4)
        )

    def test_unit_p3(self):
        np.testing.assert_allclose(
            field(ProtocolSpec(ProtocolKind.LINEAR), P3, [0.0, 0.0, 4.0]), [0.0, 4.0, -4.0], atol=0
        )

    def test_equals_minus_laplacian(self, rng):
        for _ in range(50):
            t = random_connected_topology(rng, 5)
            x = rng.uniform(-10, 10, 5)
            expected = -laplacian(t) @ x
            got = field(ProtocolSpec(ProtocolKind.LINEAR), t, x)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_p2_alpha_to_one_limit(self, rng):
        t = random_connected_topology(rng, 4)
        x = rng.uniform(-2, 2, 4)
        np.testing.assert_allclose(
            field(ProtocolSpec(ProtocolKind.P2, 0.999), t, x),
            field(ProtocolSpec(ProtocolKind.LINEAR), t, x),
            atol=1e-2,
        )


class TestSharedProperties:
    def test_locality(self, rng):
        # perturbing a non-neighbor's state leaves u_i unchanged
        t = path_topology(4)  # vertex 0 and vertex 3 are not adjacent
        x = rng.uniform(-5, 5, 4)
        for spec in (ProtocolSpec(ProtocolKind.P1, 0.5), ProtocolSpec(ProtocolKind.P2, 0.5)):
            u_before = field(spec, t, x)
            x2 = x.copy()
            x2[3] += 1.7
            u_after = field(spec, t, x2)
            assert u_after[0] == u_before[0]

    def test_permutation_equivariance(self, rng):
        for _ in range(20):
            n = 5
            t = random_connected_topology(rng, n)
            x = rng.uniform(-5, 5, n)
            perm = rng.permutation(n)
            w_p = t.weights[np.ix_(perm, perm)]
            t_p = topology_new(
                n,
                [
                    (i, j, w_p[i, j])
                    for i in range(n)
                    for j in range(i + 1, n)
                    if w_p[i, j] > 0
                ],
            )
            for spec in (
                ProtocolSpec(ProtocolKind.P1, 0.5),
                ProtocolSpec(ProtocolKind.P2, 0.5),
                ProtocolSpec(ProtocolKind.LINEAR),
            ):
                np.testing.assert_allclose(
                    field(spec, t_p, x[perm]), field(spec, t, x)[perm], atol=1e-12
                )

    def test_translation_invariance(self, rng):
        for _ in range(20):
            t = random_connected_topology(rng, 5)
            x = rng.uniform(-5, 5, 5)
            c = rng.uniform(-100, 100)
            for spec in (ProtocolSpec(ProtocolKind.P1, 0.3), ProtocolSpec(ProtocolKind.P2, 0.3)):
                np.testing.assert_allclose(field(spec, t, x + c), field(spec, t, x), atol=1e-9)

    def test_positive_homogeneity(self, rng):
        alpha = 0.5
        for c in (0.5, 2.0, 10.0):
            t = random_connected_topology(rng, 5)
            x = rng.uniform(-5, 5, 5)
            for kind in (ProtocolKind.P1, ProtocolKind.P2):
                spec = ProtocolSpec(kind, alpha)
                np.testing.assert_allclose(
                    field(spec, t, c * x), c ** alpha * field(spec, t, x), rtol=1e-10
                )


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("spec", [ProtocolSpec("p1", 0.5), ProtocolSpec("p2", 0.5),
                                  ProtocolSpec("linear")], ids=["p1", "p2", "linear"])
def test_an_edgeless_topology_gives_float_zeros(spec, n):
    u = field(spec, topology_new(n, []), np.arange(n, dtype=float))
    assert u.dtype == np.float64 and u.tobytes() == np.zeros(n).tobytes()


class TestProtocolSpec:
    def test_alpha_validation(self):
        ProtocolSpec(ProtocolKind.P1, 0.5)
        ProtocolSpec(ProtocolKind.LINEAR)
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValidationError, match=r"p1 requires alpha in \(0,1\)"):
                ProtocolSpec(ProtocolKind.P1, bad)
        with pytest.raises(ValidationError, match="linear protocol requires alpha == 1"):
            ProtocolSpec(ProtocolKind.LINEAR, 0.5)

    def test_string_kind_is_the_enum_member(self):
        x = np.array([0.0, 1.0, 4.0])
        for kind in ProtocolKind:
            alpha = 1.0 if kind is ProtocolKind.LINEAR else 0.5
            text = ProtocolSpec(kind.value, alpha)
            assert text.kind is kind
            np.testing.assert_array_equal(
                field(text, P3, x), field(ProtocolSpec(kind, alpha), P3, x)
            )
        with pytest.raises(ValidationError):
            ProtocolSpec("p3", 0.5)

    def test_string_kind_twin_in_a_batch(self):
        # The twin compares equal, so the batch groups both runs under one
        # spec: each must still run P2, as the enum run does alone.
        def run(kind):
            return Scenario(protocol=ProtocolSpec(kind, 0.5), topologies={"P": P3},
                            topology="P", x0=[0.0, 1.0, 4.0], t_max=6.0)

        alone = integrate(run(ProtocolKind.P2))
        assert alone.status == "Converged" and alone.converged_at == pytest.approx(2.857)
        for traj in integrate_batch([run("p2"), run(ProtocolKind.P2)]):
            assert (traj.status, traj.converged_at) == (alone.status, alone.converged_at)


def _field_norm(p, t, x):
    """Infinity norm of the vector field: zero exactly at an equilibrium."""
    return float(np.abs(field(p, t, x)).max())


class TestIsEquilibrium:
    def test_constant_state(self, rng):
        t = random_connected_topology(rng, 5)
        p = ProtocolSpec(ProtocolKind.P2, 0.5)
        assert _field_norm(p, t, 7.0 * np.ones(5)) <= 1e-9

    def test_nonconstant_fuzz(self, rng):
        p = ProtocolSpec(ProtocolKind.P2, 0.5)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            t = random_connected_topology(rng, n)
            x = rng.uniform(-10, 10, n)
            if x.max() - x.min() < 1.0:
                x[0] += 1.0  # enforce spread >= 1
            assert _field_norm(p, t, x) > 1e-9

    def test_equilibrium_iff_constant(self, rng):
        # both protocols, both directions
        for kind in (ProtocolKind.P1, ProtocolKind.P2):
            p = ProtocolSpec(kind, 0.4)
            for _ in range(100):
                n = int(rng.integers(2, 7))
                t = random_connected_topology(rng, n)
                assert _field_norm(p, t, rng.uniform(-5, 5) * np.ones(n)) == 0.0
                x = rng.uniform(-10, 10, n)
                if x.max() - x.min() > 1e-6:
                    assert _field_norm(p, t, x) > 1e-12
