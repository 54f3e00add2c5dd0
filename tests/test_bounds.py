import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftagree import (
    envelope,
    exponent_transform,
    k1_constant,
    k2_constant,
    laplacian,
    lemma1_constant,
    path_topology,
    t1_bound,
    t1_limit_alpha0,
    t2_bound,
    t3_bound,
    topology_new,
    v1,
    v2,
    algebraic_connectivity,
)
from ftagree.errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    DisconnectedTopology,
    FtagreeError,
    NumericalBlowup,
)
from conftest import dense_weights, random_connected_topology, random_edge_list, random_topology

X0_SIX = np.array([-5.0, -3.0, 7.0, 9.0, 4.0, 5.0])


class TestLemma1Constant:
    def test_values(self):
        assert lemma1_constant(6, 0.75) == 1.0
        assert lemma1_constant(4, 2.0) == 0.25
        for n in (1, 2, 5, 10):
            assert lemma1_constant(n, 1.0) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            lemma1_constant(0, 1.0)
        with pytest.raises(ValueError):
            lemma1_constant(3, 0.0)

    def test_power_sum_inequality(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            y = rng.uniform(0, 10, n)
            p = rng.choice([0.3, 0.75, 1.0, 2.0, 3.0])
            lhs = (y ** p).sum()
            rhs = lemma1_constant(n, p) * y.sum() ** p
            assert lhs >= rhs - 1e-9 * max(1.0, rhs)


class TestV1:
    def test_constant(self, rng):
        t = random_connected_topology(rng, 5)
        assert v1(t, 4.2 * np.ones(5)) == 0.0

    def test_two_agents(self):
        t = topology_new(2, [(0, 1, 1.0)])
        assert v1(t, [0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_laplacian_identity(self, rng):
        for _ in range(200):
            t = random_topology(rng, 6)
            x = rng.uniform(-10, 10, 6)
            expected = 0.5 * x @ laplacian(t) @ x
            assert v1(t, x) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            v1(path_topology(3), [0.0, 1.0])

    def test_matches_dense_double_sum(self, rng):
        # Reference: a quarter of the double sum over all ordered pairs,
        # on edge lists with zero-weight lines and disconnected graphs.
        for n in range(1, 9):
            for _ in range(60):
                edges = random_edge_list(rng, n)
                w = dense_weights(n, edges)
                x = rng.uniform(-10, 10, n)
                d = x[None, :] - x[:, None]
                expected = 0.25 * (w * d * d).sum()
                got = v1(topology_new(n, edges), x)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_half_of_an_overflowing_double_sum(self):
        # Each edge is counted once, so a value the double sum overflows on
        # is still finite here.
        assert v1(topology_new(2, [(0, 1, 1e308)]), [0.0, 1.0]) == 5e307


class TestDisagreement:
    # v2 is the energy of the disagreement part x - x.mean(), so it ignores
    # the average.
    def test_constant(self):
        x = 3.0 * np.ones(4)
        assert x.mean() == 3.0
        assert v2(x) == 0.0

    def test_antisymmetric_pair(self):
        assert np.mean([1.0, -1.0]) == 0.0
        assert v2([1, -1]) == 1.0
        assert v2([4.0, 2.0]) == v2([1.0, -1.0])


class TestV2:
    def test_six_agent(self):
        assert v2(X0_SIX) == pytest.approx(78.4167, abs=5e-5)
        with pytest.raises(DimensionMismatch):
            v2(np.array([X0_SIX, 5.0 * np.ones(6)]))

    def test_constant(self):
        assert v2(5.0 * np.ones(3)) == 0.0

    def test_pair(self):
        assert v2([1.0, -1.0]) == 1.0


class TestT1Bound:
    def test_six_agent_reproduction(self):
        lam2_a = 1.0409 / 2.0 ** (1.0 / 3.0)
        assert t1_bound(338.0, lam2_a, 0.5) == pytest.approx(11.7681, abs=1e-2)

    def test_zero_energy(self):
        assert t1_bound(0.0, 1.0, 0.5) == 0.0

    def test_scaling_in_v1(self):
        base = t1_bound(10.0, 0.7, 0.3)
        assert t1_bound(20.0, 0.7, 0.3) == pytest.approx(
            2.0 ** 0.35 * base, rel=1e-12
        )

    def test_errors(self):
        with pytest.raises(DisconnectedTopology):
            t1_bound(1.0, 0.0, 0.5)
        with pytest.raises(AlphaOutOfRange):
            t1_bound(1.0, 1.0, 1.0)
        # q K1 underflows to zero, so the bound overflows.
        with pytest.raises(NumericalBlowup):
            t1_bound(1.0, 5e-324, 0.99)
        # 2 lam2, and so K1, overflows, but the bound is taken from log K1.
        # It is 1/(q K1) = 4/(2e308)**0.75, about 2.3784e-231.
        expected = 4.0 / (2.0 ** 0.75 * 1e308 ** 0.75)
        assert t1_bound(1.0, 1e308, 0.5) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(2.3784e-231, rel=1e-4)

    def test_diverges_as_alpha_to_one(self):
        vals = [t1_bound(5.0, 0.8, a) for a in (0.9, 0.99, 0.999)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 100.0  # grows without bound

    def test_alpha_to_zero_limit(self):
        limit = t1_limit_alpha0(5.0, 0.8)
        assert abs(t1_bound(5.0, 0.8, 1e-4) - limit) <= 1e-2 * limit


class TestT1LimitAlpha0:
    def test_six_agent_value(self):
        # sqrt(676 / 0.826163), frozen from direct evaluation
        assert t1_limit_alpha0(338.0, 0.826163) == pytest.approx(
            28.604903, abs=1e-5
        )

    def test_zero(self):
        assert t1_limit_alpha0(0.0, 1.0) == 0.0

    def test_two_agent_chain(self):
        val = t1_limit_alpha0(0.5, 2.0)
        assert val == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert val >= (1.0 - 0.0) / 2.0

    def test_spread_inequality_chain_fuzz(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            t = random_connected_topology(rng, n)
            x = rng.uniform(-10, 10, n)
            lam2 = algebraic_connectivity(t)
            limit = t1_limit_alpha0(v1(t, x), lam2)
            assert limit >= (x.max() - x.min()) / 2.0 - 1e-9


class TestT2T3Bounds:
    def test_six_agent_reproduction(self):
        # published value 8.1673 was computed from the unrounded
        # connectivity 1.040932; the rounded 1.0409 lands 2.2e-4 away
        got = t2_bound(78.4167, 1.0409, 0.5)
        assert got == pytest.approx(8.1675233, abs=1e-6)
        assert got == pytest.approx(8.1673, abs=3e-4)
        assert t2_bound(78.4167, 1.04093169195091, 0.5) == pytest.approx(
            8.1673, abs=5e-5
        )

    def test_zero_energy(self):
        assert t2_bound(0.0, 1.0, 0.5) == 0.0
        assert t3_bound(0.0, 1.0, 0.5) == 0.0

    def test_two_agent_hand_value(self):
        assert t2_bound(0.5, 2.0, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_switching_reproduction(self):
        assert t3_bound(78.4167, 0.675170, 0.5) == pytest.approx(11.3000, abs=5e-4)

    def test_t3_equals_t2(self, rng):
        for _ in range(100):
            v = rng.uniform(0, 100)
            lam = rng.uniform(0.01, 10)
            a = rng.uniform(0.05, 0.95)
            assert t3_bound(v, lam, a) == t2_bound(v, lam, a)

    def test_errors(self):
        with pytest.raises(DisconnectedTopology):
            t2_bound(1.0, -1.0, 0.5)
        with pytest.raises(AlphaOutOfRange):
            t2_bound(1.0, 1.0, 0.0)
        # The quotient V2(0)**q / (q K2) overflows.
        with pytest.raises(NumericalBlowup):
            t2_bound(1.0, 1e-310, 0.99)


class TestEnvelope:
    def test_at_zero(self):
        assert envelope(7.5, 1.0, 0.5, 0.0) == pytest.approx(7.5, rel=1e-12)

    def test_hits_zero_at_t1(self, rng):
        for _ in range(50):
            v0 = rng.uniform(0.1, 100)
            lam2 = rng.uniform(0.05, 5)
            a = rng.uniform(0.05, 0.95)
            t1 = t1_bound(v0, lam2, a)
            assert envelope(v0, k1_constant(lam2, a), a, t1) <= 1e-12
            t2 = t2_bound(v0, lam2, a)
            assert envelope(v0, k2_constant(lam2, a), a, t2) <= 1e-12

    def test_direct_value(self):
        assert envelope(1.0, 1.0, 0.5, 1.0) == pytest.approx(0.31640625, rel=1e-12)

    def test_nonincreasing_and_clamped(self, rng):
        v0, K, a = 4.0, 1.3, 0.6
        zero_at = 2.0 * v0 ** ((1 - a) / 2) / (K * (1 - a))
        ts = np.linspace(0, 2 * zero_at, 200)
        vals = [envelope(v0, K, a, t) for t in ts]
        assert all(b <= a_ + 1e-12 for a_, b in zip(vals, vals[1:]))
        assert envelope(v0, K, a, zero_at * 1.00001) == 0.0
        assert all(v >= 0 for v in vals)
        # An array of times gives the scalar values, up to numpy's vector
        # power (1 ulp off on a few percent of values).
        np.testing.assert_allclose(envelope(v0, K, a, ts), vals, rtol=1e-15, atol=0)
        assert type(vals[1]) is float
        with pytest.raises(ValueError):
            envelope(v0, K, a, np.array([1.0, -1e-300]))


@pytest.mark.parametrize(
    "call, args",
    [
        (t1_bound, (1.0, math.nan, 0.5)),
        (t2_bound, (math.nan, 1.0, 0.5)),
        (t3_bound, (1.0, math.nan, 0.5)),
        (t1_limit_alpha0, (math.nan, 1.0)),
        (k1_constant, (-1.0, 0.5)),
        (k2_constant, (-1.0, 0.5)),
        (k1_constant, (1.0, math.nan)),
        (lemma1_constant, (2, math.nan)),
        (envelope, (1.0, 1.0, 0.5, math.nan)),
        (envelope, (-1.0, 1.0, 0.5, 1.0)),
        (envelope, (math.nan, 1.0, 0.5, 1.0)),
        (envelope, (1.0, math.nan, 0.5, 1.0)),
        (envelope, (1.0, -1.0, 0.5, 1.0)),
    ],
    ids=[
        "t1", "t2", "t3", "t1_limit", "k1", "k2", "k1-alpha", "lemma1", "envelope",
        "envelope-v0-negative", "envelope-v0-nan", "envelope-K-nan", "envelope-K-negative",
    ],
)
def test_nan_or_negative_arguments_raise_instead_of_returning(call, args):
    # None of these may come back as nan or a complex number.
    with pytest.raises(FtagreeError):
        call(*args)


# Each bound and the number of its scalar arguments (envelope then takes t).
SCALAR_ARGS = {t1_bound: 3, t2_bound: 3, t3_bound: 3, t1_limit_alpha0: 2, envelope: 3}


@settings(derandomize=True, max_examples=1000, deadline=None)
# The largest double to the power q and back overflows.
@example(call=envelope, args=[1.7976931348623157e308, 1.0, 0.5], t=[0.0, 1.0])
@given(
    call=st.sampled_from(list(SCALAR_ARGS)),
    args=st.lists(st.floats(), min_size=3, max_size=3),
    t=st.floats() | st.lists(st.floats(), max_size=3),
)
def test_bounds_of_any_floats_are_finite_or_refused(call, args, t):
    args = args[:SCALAR_ARGS[call]] + ([t] if call is envelope else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = call(*args)
        except FtagreeError:
            return
    if call is envelope and isinstance(t, list):
        assert isinstance(got, np.ndarray) and got.shape == (len(t),)
    else:
        assert type(got) is float
    assert np.all(np.isfinite(got)) and np.all(np.asarray(got) >= 0), (args, got)
