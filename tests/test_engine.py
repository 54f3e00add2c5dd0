import dataclasses
import math
import re
import types
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftagree import (
    ProtocolKind,
    ProtocolSpec,
    Scenario,
    SwitchingSchedule,
    algebraic_connectivity,
    complete_topology,
    conservation_drift,
    cycle_topology,
    envelope,
    exponent_transform,
    integrate,
    integrate_batch,
    k1_constant,
    k2_constant,
    lemma1_constant,
    path_topology,
    scenario_bounds,
    t1_bound,
    t2_bound,
    topology_new,
    v1,
    v2,
    verify_envelope,
)
from conftest import random_topology, traced_peak
from ftagree import engine, repro
from ftagree.cli import run_cli
from ftagree.errors import (
    FtagreeError,
    NumericalBlowup,
    ValidationError,
)
from ftagree.output import trajectory_csv_text
from ftagree.protocols import edge_field

EDGE = topology_new(2, [(0, 1, 1.0)])
P2_HALF = ProtocolSpec(ProtocolKind.P2, 0.5)
P1_HALF = ProtocolSpec(ProtocolKind.P1, 0.5)


def two_agent_scenario(protocol=P2_HALF, dt=1e-4, **kw):
    defaults = dict(
        protocol=protocol,
        topologies={"G": EDGE},
        topology="G",
        x0=[0.0, 1.0],
        dt=dt,
        t_max=3.0,
        agree_tol=1e-6,
        record_every=10,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def _topology_at(s, topologies, t):
    """Topology active at time t, found from the schedule's dwell times
    alone: an oracle for the engine's step-count switching. Phases are
    half-open, [start, start + dwell)."""
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    period = s.period
    if s.cyclic:
        r = math.fmod(t, period)
    else:
        if t >= period:
            raise ValueError(f"t={t} beyond non-cyclic schedule of {period}")
        r = t
    # Snap times that are a roundoff shy of a boundary into the new phase,
    # by far less than the shortest dwell.
    dwells = [d for _, d in s.phases]
    eps = min(1e-9 * max(1.0, period), 1e-6 * min(dwells))
    # Phase i holds [ends[i-1], ends[i]); r at or past the last end wraps to phase 0.
    ends = [end - eps for end in accumulate(dwells)]
    return topologies[s.phases[np.searchsorted(ends, r, side="right") % len(ends)][0]]


class TestTopologyAt:
    def make(self):
        tops = {
            "A": path_topology(3),
            "B": cycle_topology(3),
            "C": complete_topology(3),
            "D": path_topology(3, 2.0),
        }
        sched = SwitchingSchedule(
            phases=(("A", 0.25), ("B", 0.25), ("C", 0.25), ("D", 0.25)),
            cyclic=True,
        )
        return sched, tops

    def test_boundary_is_right_continuous(self):
        sched, tops = self.make()
        assert _topology_at(sched, tops, 0.25) is tops["B"]

    def test_t_zero(self):
        sched, tops = self.make()
        assert _topology_at(sched, tops, 0.0) is tops["A"]

    def test_cyclic_wrap(self):
        sched, tops = self.make()
        assert _topology_at(sched, tops, 7.3) is _topology_at(sched, tops, 0.3)
        assert _topology_at(sched, tops, 7.3) is tops["B"]

    def test_non_cyclic_beyond_end(self):
        sched, tops = self.make()
        finite = SwitchingSchedule(phases=sched.phases, cyclic=False)
        assert _topology_at(finite, tops, 0.9) is tops["D"]
        with pytest.raises(ValueError, match="beyond non-cyclic"):
            _topology_at(finite, tops, 1.0)

    @pytest.mark.parametrize("cyclic", [True, False], ids=["cyclic", "non-cyclic"])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time(self, cyclic, t):
        sched, tops = self.make()
        sched = SwitchingSchedule(phases=sched.phases, cyclic=cyclic)
        with pytest.raises(ValueError, match="must be finite"):
            _topology_at(sched, tops, t)

    def test_unknown_topology(self):
        sched = SwitchingSchedule(phases=(("Z", 1.0),), cyclic=True)
        with pytest.raises(KeyError):
            _topology_at(sched, {}, 0.5)


class TestIntegrate:
    def test_two_agent_closed_form(self):
        # analytic hitting time d0**(1-alpha) / (2 (1-alpha)) = 1
        for protocol in (P2_HALF, P1_HALF):
            traj = integrate(two_agent_scenario(protocol))
            assert traj.status == "Converged"
            assert traj.converged_at == pytest.approx(1.0, abs=5e-3)
            assert traj.final_value == pytest.approx(0.5, abs=1e-6)

    def test_already_agreed(self):
        traj = integrate(two_agent_scenario(x0=[3.0, 3.0]))
        assert traj.status == "Converged"
        assert traj.converged_at == 0.0
        assert traj.t.shape == (1,)
        assert traj.x.shape == (1, 2)
        assert traj.spread[0] == 0.0

    def test_p2_reaches_average(self, rng):
        t = cycle_topology(5)
        x0 = rng.uniform(-10, 10, 5)
        sc = Scenario(
            protocol=P2_HALF,
            topologies={"G": t},
            topology="G",
            x0=x0,
            dt=1e-3,
            t_max=50.0,
            agree_tol=1e-5,
        )
        traj = integrate(sc)
        assert traj.status == "Converged"
        assert traj.final_value == pytest.approx(x0.mean(), abs=1e-5)

    def test_timed_out(self):
        traj = integrate(two_agent_scenario(t_max=0.2))
        assert traj.status == "TimedOut"
        assert traj.converged_at is None
        assert traj.t[-1] == pytest.approx(0.2)

    def test_run_ends_at_step_round_t_max_over_dt(self):
        # 1.0 / 0.3 rounds to 3 steps: the run ends at t = 0.9, not at t_max.
        traj = integrate(two_agent_scenario(dt=0.3, t_max=1.0, record_every=1))
        assert traj.status == "TimedOut"
        assert len(traj.t) == 4
        assert traj.t[-1] == 3 * 0.3

    def test_sample_times_strictly_increasing(self):
        traj = integrate(two_agent_scenario())
        assert traj.t[0] == 0.0
        assert np.all(np.diff(traj.t) > 0)

    def test_determinism(self):
        t1 = integrate(two_agent_scenario())
        t2 = integrate(two_agent_scenario())
        for column in ("t", "x", "v1", "v2", "spread", "sum"):
            assert np.array_equal(getattr(t1, column), getattr(t2, column))
        assert t1.converged_at == t2.converged_at
        assert t1.final_value == t2.final_value

    def test_translation_equivariance(self, rng):
        t = cycle_topology(4)
        x0 = rng.uniform(-5, 5, 4)
        base = dict(
            protocol=P2_HALF,
            topologies={"G": t},
            topology="G",
            dt=1e-3,
            t_max=20.0,
            agree_tol=1e-5,
        )
        ta = integrate(Scenario(x0=x0, **base))
        tb = integrate(Scenario(x0=x0 + 7.5, **base))
        m = min(ta.t.size, tb.t.size)
        np.testing.assert_allclose(tb.x[:m], ta.x[:m] + 7.5, atol=1e-8)

    def test_switching_run_converges_to_average(self):
        tops = {
            "A": path_topology(4, 2.0),
            "B": cycle_topology(4, 2.0),
        }
        sched = SwitchingSchedule(phases=(("A", 0.25), ("B", 0.25)), cyclic=True)
        x0 = np.array([4.0, -2.0, 1.0, 5.0])
        sc = Scenario(
            protocol=P2_HALF,
            topologies=tops,
            schedule=sched,
            x0=x0,
            dt=1e-3,
            t_max=20.0,
            agree_tol=1e-4,
        )
        traj = integrate(sc)
        assert traj.status == "Converged"
        assert traj.final_value == pytest.approx(x0.mean(), abs=1e-3)

    def test_samples_view_matches_columns(self):
        traj = integrate(two_agent_scenario(t_max=0.2))
        rows = traj.samples
        assert len(rows) == traj.t.size
        assert rows[-1].t == traj.t[-1]
        assert np.array_equal(rows[-1].x, traj.x[-1])
        assert [r.v2 for r in rows] == traj.v2.tolist()

    @pytest.mark.parametrize(
        "phases, cyclic, dt",
        [
            ((("A", 0.05), ("B", 0.03)), True, 0.01),
            ((("A", 0.05), ("B", 0.03), ("C", 1.0)), False, 0.01),
            ((("A", 0.05), ("B", 1e6)), False, 1e-3),
            ((("A", 0.05), ("B", 1e7)), True, 1e-3),
            ((("A", 0.050000005), ("B", 0.03)), True, 0.01),
        ],
        ids=["cyclic", "non-cyclic-covering-t_max", "long-tail", "long-cycle", "off-grid-dwell"],
    )
    def test_recorded_v1_follows_topology_at(self, phases, cyclic, dt):
        tops = {
            "A": path_topology(4, 1.0),
            "B": complete_topology(4, 0.5),
            "C": cycle_topology(4, 2.0),
        }
        sc = Scenario(
            protocol=P2_HALF,
            topologies=tops,
            schedule=SwitchingSchedule(phases=phases, cyclic=cyclic),
            x0=[4.0, -2.0, 1.0, 5.0],
            dt=dt,
            t_max=1.0 if dt == 0.01 else 0.1,
            agree_tol=1e-3,
            record_every=1,
        )
        traj = integrate(sc)
        names = []
        for t, x, *recorded in zip(traj.t, traj.x, traj.v1, traj.v2, traj.spread, traj.sum):
            top = _topology_at(sc.schedule, tops, t)
            names.append(next(name for name in tops if tops[name] is top))
            assert recorded == [v1(top, x), v2(x), x.max() - x.min(), x.sum()]
        # Phase A holds exactly round(0.05 / dt) steps before the first switch.
        assert names.index("B") == round(0.05 / dt)

    @pytest.mark.parametrize("t_max", [0.08, 1.0], ids=["ends-at-t_max", "ends-before"])
    def test_non_cyclic_schedule_must_outlast_t_max(self, t_max):
        sched = SwitchingSchedule(phases=(("G", 0.05), ("G", 0.03)), cyclic=False)
        with pytest.raises(ValidationError, match="non-cyclic schedule"):
            two_agent_scenario(topology=None, schedule=sched, dt=0.01, t_max=t_max)
        two_agent_scenario(topology=None, schedule=sched, dt=0.01, t_max=0.07)

    def test_numerical_blowup(self):
        sc = two_agent_scenario(
            protocol=ProtocolSpec(ProtocolKind.LINEAR),
            dt=10.0,
            t_max=1e4,
            x0=[0.0, 1.0],
        )
        with pytest.raises(NumericalBlowup):
            integrate(sc)

    def test_overflowing_lyapunov_values_of_a_finite_state_raise(self):
        # The state stays finite (about 1e298 apart), but V1 = w d^2 / 2 does
        # not fit in a double from the second recorded sample on.
        sc = two_agent_scenario(
            protocol=ProtocolSpec(ProtocolKind.P2, 0.01),
            topologies={"G": topology_new(2, [(0, 1, 1e300)])},
            dt=0.01,
            t_max=0.2,
            agree_tol=1e-3,
            record_every=3,
        )
        with pytest.raises(NumericalBlowup, match=r"at t=0\.03 in run 0$"):
            integrate(sc)

    def test_an_overflowing_lyapunov_value_ends_the_run_when_recorded(self, monkeypatch):
        # The same run with t_max = 200 has 20,000 steps; it must stop at
        # the sample where V1 overflows, not after its last step.
        calls = []

        def counting_field(*args):
            f = edge_field(*args)

            def counted(x):
                calls.append(None)
                return f(x)
            return counted

        monkeypatch.setattr(engine, "edge_field", counting_field)
        sc = two_agent_scenario(
            protocol=ProtocolSpec(ProtocolKind.P2, 0.01),
            topologies={"G": topology_new(2, [(0, 1, 1e300)])},
            dt=0.01,
            t_max=200.0,
            record_every=3,
        )
        with pytest.raises(NumericalBlowup, match=r"at t=0\.03 in run 0$"):
            integrate(sc)
        assert 0 < len(calls) < 100

    def test_config_errors(self):
        with pytest.raises(ValidationError):
            integrate(two_agent_scenario(dt=-1.0))
        with pytest.raises(ValidationError):
            integrate(two_agent_scenario(x0=[0.0, 1.0, 2.0]))  # dim mismatch
        with pytest.raises(ValidationError):
            integrate(two_agent_scenario(topology="missing"))
        sched = SwitchingSchedule(phases=(("G", 0.0015),), cyclic=True)
        with pytest.raises(ValidationError):
            integrate(two_agent_scenario(topology=None, schedule=sched, dt=1e-3))


class TestScenario:
    def test_phases_of_a_fixed_topology(self):
        sc = two_agent_scenario(dt=0.01)
        assert sc.phases == (("G", 0.01),)

    def test_phases_of_a_schedule_are_snapped_to_the_grid(self):
        sched = SwitchingSchedule(phases=(("G", 0.050000005), ("H", 0.03)), cyclic=True)
        sc = two_agent_scenario(
            topologies={"G": EDGE, "H": EDGE}, topology=None, schedule=sched, dt=0.01
        )
        assert sc.phases == (("G", 5 * 0.01), ("H", 3 * 0.01))
        assert sc.phases == sc.schedule.phases

    @pytest.mark.parametrize("protocol", ["p2", ProtocolKind.P2, None, (ProtocolKind.P2, 0.5)],
                             ids=["name", "kind", "none", "tuple"])
    def test_a_protocol_that_is_no_protocol_spec_is_refused(self, protocol):
        with pytest.raises(ValidationError, match="^protocol must be a ProtocolSpec"):
            two_agent_scenario(protocol=protocol, dt=0.01)

    @pytest.mark.parametrize("where", ["topology", "schedule"])
    def test_unknown_name_has_one_message(self, where):
        sched = SwitchingSchedule(phases=(("G", 0.05), ("missing", 0.03)), cyclic=True)
        refs = {"topology": dict(topology="missing"),
                "schedule": dict(topology=None, schedule=sched)}[where]
        with pytest.raises(ValidationError, match="^unknown topology reference 'missing'$"):
            two_agent_scenario(dt=0.01, **refs)

    def test_x0_is_a_read_only_copy(self):
        x0 = np.array([0.0, 1.0, 4.0])
        sc = Scenario(
            protocol=P2_HALF,
            topologies={"P3": path_topology(3)},
            topology="P3",
            x0=x0,
            t_max=6.0,
        )
        assert sc.x0 is not x0
        with pytest.raises(ValueError):
            sc.x0[0] = 1.0
        # Writing the caller's array after the checks leaves the scenario valid.
        x0[0] = np.nan
        x0[1] = 1e308
        traj = integrate(sc)
        assert traj.status == "Converged"
        assert traj.final_value == pytest.approx(5.0 / 3.0)

    def test_topologies_are_a_read_only_copy(self):
        tops = {"P3": path_topology(3)}
        sc = Scenario(protocol=P2_HALF, topologies=tops, topology="P3", x0=[0.0, 1.0, 4.0],
                      t_max=6.0)
        assert sc.topologies is not tops
        with pytest.raises(TypeError):
            sc.topologies["P3"] = path_topology(4)
        # Swapping the caller's entry after the checks leaves the scenario valid.
        tops["P3"] = path_topology(4)
        assert sc.topologies["P3"].n == 3
        traj = integrate(sc)
        assert traj.status == "Converged"
        assert traj.final_value == pytest.approx(5.0 / 3.0)

    @pytest.mark.parametrize(
        "field, value",
        [("t_max", math.nan), ("dt", -1e-3), ("record_every", 0), ("topology", "nope"),
         ("agree_tol", 0.0)],
    )
    def test_a_field_cannot_be_assigned(self, field, value):
        # An assignment would skip the checks, and each of these values
        # breaks a run; replace runs the checks again.
        sc = two_agent_scenario(dt=1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sc, field, value)
        assert integrate(sc).status == "Converged"
        with pytest.raises(ValidationError):
            dataclasses.replace(sc, **{field: value})

    def test_the_first_faulty_phase_is_named(self):
        sched = SwitchingSchedule(phases=(("G", 0.055), ("missing", 0.03)), cyclic=True)
        with pytest.raises(ValidationError, match="^dwell 0.055 of phase 'G'"):
            two_agent_scenario(topology=None, schedule=sched, dt=0.01)


@st.composite
def scenario_arguments(draw):
    """Keyword arguments of a Scenario: n from 2 to 5, a fixed topology or
    a 2-3 phase schedule, dt on a grid, at most 2,000 steps. The
    topologies may be disconnected, and the protocol linear. Now and then
    the protocol is its kind's name, not a ProtocolSpec, which Scenario
    refuses."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    topologies = {
        name: topology_new(n, [(i, j, draw(st.floats(0.1, 5.0)))
                               for i, j in draw(st.lists(st.sampled_from(pairs), unique=True))])
        for name in "ABC"
    }
    kind = draw(st.sampled_from(ProtocolKind))
    alpha = 1.0 if kind is ProtocolKind.LINEAR else draw(st.sampled_from([0.2, 0.5, 0.8]))
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    steps = draw(st.integers(1, 2000))
    kw = dict(
        protocol=ProtocolSpec(kind, alpha) if draw(st.integers(0, 9)) else kind.value,
        topologies=topologies,
        x0=np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))),
        dt=dt,
        t_max=steps * dt,
        agree_tol=draw(st.sampled_from([1e-2, 1e-4, 1e-6])),
        record_every=draw(st.integers(1, 50)),
    )
    if draw(st.booleans()):
        kw["topology"] = draw(st.sampled_from("ABC"))
    else:
        dwells = draw(st.lists(st.integers(1, 40), min_size=2, max_size=3))
        phases = tuple((draw(st.sampled_from("ABC")), k * dt) for k in dwells)
        # A schedule that is not cyclic must hold past the last step.
        kw["schedule"] = SwitchingSchedule(phases, draw(st.booleans()) or sum(dwells) <= steps)
    return kw


def returned_or_none(call, *args):
    """call(*args), or None where it raises an FtagreeError; any other
    exception fails the test."""
    try:
        return call(*args)
    except FtagreeError:
        return None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(kw=scenario_arguments())
def test_a_built_scenario_stays_valid(kw):
    if not isinstance(kw["protocol"], ProtocolSpec):
        with pytest.raises(ValidationError):
            Scenario(**kw)
        return
    sc = Scenario(**kw)
    x0 = sc.x0.copy()
    # Write what the caller still holds, then try to assign every field.
    kw["x0"][:] = np.nan
    for name in "ABC":
        kw["topologies"][name] = path_topology(x0.size + 1)
    for f in dataclasses.fields(sc):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sc, f.name, None)
    np.testing.assert_array_equal(sc.x0, x0)
    assert all(top.n == x0.size for top in sc.topologies.values())

    traj = returned_or_none(integrate, sc)
    report = returned_or_none(scenario_bounds, sc)
    if traj is not None and report is not None:
        alpha = sc.protocol.alpha
        if sc.protocol.kind is ProtocolKind.P1:
            args = (report.v1_0, k1_constant(report.lambda2_A, alpha), alpha, "v1")
        else:
            args = (report.v2_0, k2_constant(report.lambda2_B, alpha), alpha, "v2")
        returned_or_none(verify_envelope, traj, *args)


def test_a_scenario_equals_only_itself_and_is_hashable():
    sc = two_agent_scenario()
    assert sc == sc
    assert sc != dataclasses.replace(sc)
    assert {sc: 0}[sc] == 0


def two_agent_time(protocol, w, d0, alpha, tol=0.0):
    """Exact time at which two agents on one edge of weight w, d0 apart,
    come within tol: d = x2 - x1 obeys d' = -2c sig(d)^alpha, with c = w
    under P2 and w^alpha under P1, so |d|^(1-alpha) falls linearly."""
    c = w if protocol is ProtocolKind.P2 else w ** alpha
    return (abs(d0) ** (1 - alpha) - tol ** (1 - alpha)) / (2 * (1 - alpha) * c)


TWO_AGENT_CASES = [
    (kind, alpha, w, d0)
    for kind in (ProtocolKind.P1, ProtocolKind.P2)
    for alpha in (0.2, 0.5, 0.8)
    for w, d0 in ((1.7, 3.0), (0.5, 1.0), (2.0, 7.0))
]


@pytest.fixture(scope="module")
def two_agent_runs():
    """Each case's scenario and trajectory, by agree_tol, from one batch
    (dt 1e-3): agree_tol 1e-3 runs to T + 1, agree_tol 1e-300 (which the
    spread never reaches) to T + 0.5, recording every step."""
    scenarios = [
        Scenario(
            protocol=ProtocolSpec(kind, alpha),
            topologies={"G": topology_new(2, [(0, 1, w)])},
            topology="G",
            x0=[0.0, d0],
            dt=1e-3,
            t_max=round(two_agent_time(kind, w, d0, alpha) + extra, 3),
            agree_tol=tol,
            record_every=every,
        )
        for tol, extra, every in ((1e-3, 1.0, 1000), (1e-300, 0.5, 1))
        for kind, alpha, w, d0 in TWO_AGENT_CASES
    ]
    runs = list(zip(scenarios, integrate_batch(scenarios)))
    return {1e-3: runs[:len(TWO_AGENT_CASES)], 1e-300: runs[len(TWO_AGENT_CASES):]}


@pytest.mark.parametrize("case", range(len(TWO_AGENT_CASES)))
def test_two_agents_agree_at_the_exact_time(two_agent_runs, case):
    kind, alpha, w, d0 = TWO_AGENT_CASES[case]
    sc, traj = two_agent_runs[1e-3][case]
    exact = two_agent_time(kind, w, d0, alpha)
    # The spread is below agree_tol for the last tau of the exact run.
    reached = two_agent_time(kind, w, d0, alpha, sc.agree_tol)
    assert traj.status == "Converged"
    assert reached - sc.dt <= traj.converged_at <= exact + sc.dt


@pytest.mark.parametrize("case", range(len(TWO_AGENT_CASES)))
def test_two_agent_bound_is_the_exact_time_times_a_constant(two_agent_runs, case):
    # On two agents t1 (P1) and t2 (P2) are the exact time times 2^((1-alpha)/2).
    kind, alpha, w, d0 = TWO_AGENT_CASES[case]
    report = scenario_bounds(two_agent_runs[1e-3][case][0])
    bound = report.t1 if kind is ProtocolKind.P1 else report.t2
    exact = two_agent_time(kind, w, d0, alpha)
    assert bound == pytest.approx(exact * 2 ** ((1 - alpha) / 2), rel=1e-12, abs=0)


# phi_alpha(h) = 1 at h*: one RK4 step of d' = -2c sig(d)^alpha maps d to
# d * phi_alpha(h), with h = 2c dt |d|^(alpha-1).
RK4_FIXED_POINT = {0.2: 5.2069, 0.5: 4.0573, 0.8: 3.0825}


@pytest.mark.parametrize("case", range(len(TWO_AGENT_CASES)))
def test_two_agent_spread_stalls_at_the_rk4_floor(two_agent_runs, case):
    # Without a reachable agree_tol the spread chatters at the d where one
    # RK4 step no longer shrinks it: d* = (2c dt / h*)^(1/(1-alpha)).
    kind, alpha, w, d0 = TWO_AGENT_CASES[case]
    sc, traj = two_agent_runs[1e-300][case]
    c = w if kind is ProtocolKind.P2 else w ** alpha
    floor = (2 * c * sc.dt / RK4_FIXED_POINT[alpha]) ** (1 / (1 - alpha))
    spread = traj.spread[-200:].max()
    if alpha < 0.8:
        assert spread == pytest.approx(floor, rel=0.01)
    else:
        # This floor is near double resolution, at or below a few ulps of x.
        ulps = 16 * np.spacing(np.abs(traj.x[-200:]).max())
        assert spread <= max(1.25 * floor, ulps)


COLUMNS = ("t", "x", "v1", "v2", "spread", "sum")


def reference_field(spec, top):
    """The field as the one-at-a-time engine wrote it."""
    i, j, w, n, alpha = top.i, top.j, top.w, top.n, spec.alpha

    def sig(r):
        return np.sign(r) * np.abs(r) ** alpha

    def edge_sum(f):
        return np.bincount(i, f, n) - np.bincount(j, f, n)

    if spec.kind is ProtocolKind.P1:
        return lambda x: sig(edge_sum(w * (x[j] - x[i])))
    if spec.kind is ProtocolKind.P2:
        return lambda x: edge_sum(w * sig(x[j] - x[i]))
    return lambda x: edge_sum(w * (x[j] - x[i]))


def reference_integrate(sc):
    """The serial RK4 loop, one scenario at a time: the batch's oracle."""
    dt = sc.dt
    schedule = sc.schedule or SwitchingSchedule(((sc.topology, dt),))
    ends = list(accumulate(round(d / dt) for _, d in schedule.phases))
    tops = [sc.topologies[name] for name, _ in schedule.phases]
    fields = [reference_field(sc.protocol, top) for top in tops]

    def phase(k):
        return int(np.searchsorted(ends, k % ends[-1], side="right")) % len(ends)

    n_steps = int(round(sc.t_max / dt))
    x, rows = sc.x0.copy(), []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            spread = x.max() - x.min()
            if not math.isfinite(spread):
                raise NumericalBlowup(f"non-finite state at t={k * dt}")
            agreed = spread <= sc.agree_tol
            if agreed:
                x = np.full_like(x, x.mean())
            last = agreed or k == n_steps
            if last or k % sc.record_every == 0:
                rows.append((k, x))
            if last:
                break
            f = fields[phase(k)]
            k1 = f(x)
            k2 = f(x + dt / 2.0 * k1)
            k3 = f(x + dt / 2.0 * k2)
            k4 = f(x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    t = np.array([k for k, _ in rows]) * dt
    xs = np.array([xk for _, xk in rows])
    return dict(
        t=t,
        x=xs,
        v1=np.array([v1(tops[phase(k)], xk) for k, xk in rows]),
        v2=np.array([v2(xk) for _, xk in rows]),
        spread=xs.max(axis=1) - xs.min(axis=1),
        sum=xs.sum(axis=1),
        status="Converged" if agreed else "TimedOut",
        converged_at=float(t[-1]) if agreed else None,
        final_value=float(xs[-1, 0]) if agreed else None,
    )


def assert_bytes_equal(traj, ref):
    for column in COLUMNS:
        got, want = getattr(traj, column), ref[column]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), column
        assert got.tobytes() == want.tobytes(), column
    assert (traj.status, traj.converged_at, traj.final_value) == (
        ref["status"], ref["converged_at"], ref["final_value"]
    )


def mixed_corpus(seed=20261019):
    """P1, P2 and linear runs on n = 1..8 vertices, with fixed topologies
    and cyclic and non-cyclic schedules, two alphas and two step sizes,
    and per-run agree_tol, t_max and record_every (one of them more than
    the loop's window of steps, and one agreeing inside a window)."""
    rng = np.random.default_rng(seed)
    kinds = [ProtocolKind.P1, ProtocolKind.P2, ProtocolKind.LINEAR]
    scenarios = []
    for r in range(30):
        n = 1 + r % 8
        kind = kinds[r % 3]
        # Several runs share each (alpha, dt) group.
        alpha = 1.0 if kind is ProtocolKind.LINEAR else (0.5, 0.7)[r % 2]
        dt = (1e-2, 5e-3)[(r // 2) % 2]
        t_max = float(rng.uniform(0.5, 3.0))
        tops = {name: random_topology(rng, n, p=0.7) for name in "ABC"}
        def dwell():
            return dt * int(rng.integers(1, 25))

        layout = r % 4
        if layout == 0:
            timing = dict(topology="A")
        elif layout == 1:
            timing = dict(schedule=SwitchingSchedule(
                (("A", dwell()), ("B", dwell()), ("C", dwell())), cyclic=True))
        elif layout == 2:  # repeats phase A
            timing = dict(schedule=SwitchingSchedule(
                (("A", dwell()), ("B", dwell()), ("A", dwell())), cyclic=True))
        else:
            timing = dict(schedule=SwitchingSchedule(
                (("B", dwell()), ("A", dt * round(t_max / dt + 5))), cyclic=False))
        scenarios.append(Scenario(
            protocol=ProtocolSpec(kind, alpha),
            topologies=tops,
            x0=rng.uniform(-5, 5, n),
            dt=dt,
            t_max=t_max,
            agree_tol=float(10.0 ** rng.uniform(-4, -1)),
            record_every=int(rng.integers(1, 12)),
            **timing,
        ))
    # One P2 run records less often than a window of the loop holds steps.
    scenarios.append(Scenario(
        protocol=P2_HALF,
        topologies={"G": random_topology(rng, 5, p=0.7)},
        topology="G",
        x0=rng.uniform(-5, 5, 5),
        dt=1e-2,
        t_max=3.0,
        agree_tol=1e-4,
        record_every=2 * engine._WINDOW + 1,
    ))
    # One agrees at step 19, inside a window of 20 steps.
    scenarios.append(two_agent_scenario(dt=0.05, agree_tol=5e-3, record_every=20))
    # One run agrees at step 0, and one times out at its t_max.
    scenarios.append(two_agent_scenario(x0=[3.0, 3.0], record_every=7))
    scenarios.append(two_agent_scenario(P1_HALF, t_max=0.2, record_every=3))
    return scenarios


class TestIntegrateBatch:
    def test_batch_and_single_runs_match_the_serial_loop(self):
        scenarios = mixed_corpus()
        refs = [reference_integrate(sc) for sc in scenarios]
        statuses = {ref["status"] for ref in refs}
        assert statuses == {"Converged", "TimedOut"}
        assert refs[-2]["converged_at"] == 0.0 and refs[-1]["status"] == "TimedOut"
        for traj, ref in zip(integrate_batch(scenarios), refs):
            assert_bytes_equal(traj, ref)
        for sc, ref in zip(scenarios, refs):
            assert_bytes_equal(integrate(sc), ref)

    @pytest.mark.parametrize("cap, wide", [(1, set()), (7, {(3, 2)})])
    def test_a_window_capped_by_its_values_keeps_every_run(self, monkeypatch, cap, wide):
        # A cap of 1 value steps every union one row at a time; a cap of 7
        # gives the two-agent unions windows of 3 rows, and the rest 1 row.
        scenarios = mixed_corpus()
        refs = [reference_integrate(sc) for sc in scenarios]
        shapes, empty = [], np.empty

        def noting_empty(shape, *args, **kw):
            if isinstance(shape, tuple) and len(shape) == 2:
                shapes.append(shape)
            return empty(shape, *args, **kw)

        monkeypatch.setattr(engine, "_WINDOW_VALUES", cap)
        monkeypatch.setattr(engine.np, "empty", noting_empty)
        trajectories = integrate_batch(scenarios)
        monkeypatch.undo()
        for traj, ref in zip(trajectories, refs):
            assert_bytes_equal(traj, ref)
        assert shapes and {shape for shape in shapes if shape[0] > 1} == wide

    @pytest.mark.parametrize("x0, status, code", [
        ([1.0, 1.0, 1.0, 1.0], "Converged", 0),
        ([1.0, 1.0, 5.0, 5.0], "TimedOut", 4),
    ])
    def test_weights_that_sum_past_the_float_range_warn_nowhere(
            self, tmp_path, capsys, x0, status, code):
        # Two edges of weight 1e308: every degree sum is finite, the sum of
        # the weights is not. Each edge's ends start level, so x0 stays put.
        top = topology_new(4, [(0, 1, 1e308), (2, 3, 1e308)])
        sc = Scenario(P2_HALF, {"G": top}, x0, topology="G", dt=0.01, t_max=0.2,
                      record_every=3)
        traj = integrate(sc)
        assert_bytes_equal(traj, reference_integrate(sc))
        assert traj.status == status
        p = tmp_path / "s.scn"
        p.write_text(f"protocol = p2\nalpha = 0.5\nx0 = {x0}\nt_max = 0.2\n"
                     "[topology.G]\nedge 0 1 1e308\nedge 2 3 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # printed to stderr, not raised
            assert run_cli(["simulate", str(p)]) == code
        assert "Warning" not in capsys.readouterr().err

    def test_the_union_holds_the_live_runs_current_phases(self, monkeypatch):
        # Each field build holds, in run order, the current phase's edges of
        # every run that has not ended, offset into the run's block. A build
        # follows the events of a step, so it is noted with the last step
        # that a run handled (steps the loop throws away handle none).
        builds, steps = [], []
        run_step = engine._Run.step

        def noting_step(run, k, *args):
            steps.append(k)
            run_step(run, k, *args)

        def recording_field(alpha, i, j, w, n, *sigs):
            builds.append((steps[-1], i, j, w))
            return edge_field(alpha, i, j, w, n, *sigs)

        monkeypatch.setattr(engine._Run, "step", noting_step)
        monkeypatch.setattr(engine, "edge_field", recording_field)
        dt = 0.01
        path, full = path_topology(4), complete_topology(4)  # 3 and 6 edges
        scenarios = [
            two_agent_scenario(dt=dt, x0=[0.0, 0.01], agree_tol=1e-3),
            two_agent_scenario(
                topologies={"A": path, "B": full}, topology=None, dt=dt,
                schedule=SwitchingSchedule((("A", 0.1), ("B", 0.2), ("A", 0.1)), cyclic=True),
                x0=[0.0, 4.0, -1.0, 2.0], t_max=1.0, agree_tol=1e-9,
            ),
            two_agent_scenario(
                topologies={"A": path_topology(3), "B": complete_topology(3)}, topology=None,
                dt=dt, schedule=SwitchingSchedule((("B", 0.3), ("A", 2.0)), cyclic=False),
                x0=[1.0, -2.0, 0.5], t_max=1.5, agree_tol=1e-9,
            ),
        ]
        ends = [round(traj.t[-1] / dt) for traj in integrate_batch(scenarios)]
        offsets = np.cumsum([0] + [sc.x0.size for sc in scenarios])

        def phase(sc, k):
            ends_of_phases = list(accumulate(round(d / dt) for _, d in sc.phases))
            at = np.searchsorted(ends_of_phases, k % ends_of_phases[-1], side="right")
            return int(at) % len(ends_of_phases)

        assert ends[0] < min(ends[1:])
        seen = set()
        for k, i, j, w in builds:
            live = [r for r, sc in enumerate(scenarios) if k < ends[r]]
            tops = [scenarios[r].topologies[scenarios[r].phases[phase(scenarios[r], k)][0]]
                    for r in live]
            want = [(t.i + offsets[r], t.j + offsets[r], t.w) for r, t in zip(live, tops)]
            for got, parts in zip((i, j, w), zip(*want)):
                assert np.array_equal(got, np.concatenate(parts))
            seen.update((r, phase(scenarios[r], k)) for r in live)
        # Run 0 has ended by a later build, and each switching run's phases show.
        assert builds[0][0] == 0 and any(k >= ends[0] for k, *_ in builds)
        assert {(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)} <= seen

    def test_a_row_near_the_float_range_is_checked_exactly_and_kept(self, monkeypatch):
        # Two agents 2e150 apart: V1 = 2e300 trips the cheap bound at every
        # recorded step, but V1, V2 = 1e300 and the sum stay finite, so the
        # exact check passes and the run reaches its t_max.
        sc = two_agent_scenario(x0=[0.0, 2e150], dt=0.01, t_max=0.1, record_every=3)
        ref = reference_integrate(sc)
        calls = []
        exact_v1 = engine.bounds.v1

        def counted_v1(t, x):
            # trajectory() calls v1 on stacks of rows too; the exact check
            # of a kept row is a 1-D call.
            if np.ndim(x) == 1:
                calls.append(None)
            return exact_v1(t, x)

        monkeypatch.setattr(engine.bounds, "v1", counted_v1)
        traj = integrate(sc)
        assert_bytes_equal(traj, ref)
        assert traj.status == "TimedOut" and traj.t[-1] == sc.t_max
        assert len(calls) == len(traj.t) == 5

    def test_blocks_of_rows_hold_the_trajectory_peak(self):
        # P2 on a 900-vertex ring with chords (2,700 edges), every one of
        # its 300 steps recorded: the stack of rows is 2.2 MB, and V1 of it
        # in one call takes over four times that in edge temporaries.
        rng = np.random.default_rng(20261021)
        n = 900
        edges = [(v, (v + k) % n, w) for k in (1, 7, 31) for v, w in
                 zip(range(n), rng.uniform(0.5, 2.0, n).tolist())]
        top = topology_new(n, edges)
        sc = Scenario(P2_HALF, {"G": top}, rng.uniform(-0.5, 0.5, n), topology="G",
                      dt=1e-2, t_max=3.0, agree_tol=1e-12, record_every=1)
        run = engine._Run(sc, 0)
        engine._run_union([run], sc.protocol.alpha, sc.dt)
        peak = traced_peak(run.trajectory)
        traj = run.trajectory()
        assert traj.x.shape == (301, n)
        cap = traj.x.nbytes + 2**20
        assert peak < cap < traced_peak(lambda: (v1(top, traj.x), v2(traj.x)))
        assert traj.v1.tobytes() == np.array([v1(top, x) for x in traj.x]).tobytes()
        assert traj.v2.tobytes() == np.array([v2(x) for x in traj.x]).tobytes()

    def test_a_blowup_between_events_names_its_step(self):
        # Linear RK4 at dt = 10 multiplies the spread by about 5,500 a step,
        # so the state stops being finite long before the first record, in
        # the middle of a window.
        sc = two_agent_scenario(
            ProtocolSpec(ProtocolKind.LINEAR), dt=10.0, t_max=1e4, record_every=1000
        )
        with pytest.raises(NumericalBlowup) as ref:
            reference_integrate(sc)
        k = round(float(re.search(r"t=(\S+)$", str(ref.value)).group(1)) / sc.dt)
        assert 0 < k < 1000 and k % engine._WINDOW != 0
        with pytest.raises(NumericalBlowup, match=re.escape(str(ref.value)) + " in run 0$"):
            integrate(sc)

    def test_blowup_names_the_diverging_run(self):
        linear = ProtocolSpec(ProtocolKind.LINEAR)
        scenarios = [
            two_agent_scenario(),
            two_agent_scenario(linear, dt=10.0, t_max=1e4, x0=[2.0, 2.0]),
            two_agent_scenario(linear, dt=10.0, t_max=1e4),
        ]
        with pytest.raises(NumericalBlowup, match=r"in run 2$"):
            integrate_batch(scenarios)

    def test_blowup_in_a_mixed_union_names_the_lowest_run(self):
        # Both diverging runs stop being finite at the first step; run 2's
        # P1 block comes first in the union, run 1 first in the input.
        edge = topology_new(2, [(0, 1, 1e308)])

        def huge_step(kind, x0=(0.0, 1.0)):
            return Scenario(ProtocolSpec(kind, 0.99), {"G": edge}, x0, topology="G",
                            dt=1e4, t_max=1e5)

        scenarios = [huge_step(ProtocolKind.P1, x0=(1.0, 1.0)),
                     huge_step(ProtocolKind.P2), huge_step(ProtocolKind.P1)]
        with pytest.raises(NumericalBlowup, match=r"at t=10000\.0 in run 1$"):
            integrate_batch(scenarios)

    def test_interleaved_protocols_keep_their_bits_in_one_union_per_alpha_and_dt(
            self, monkeypatch):
        # P2, linear and P1 runs interleaved, fixed and switching (some
        # phases have no edges), at two step sizes: one union per (alpha,
        # dt), with P1 blocks and P2 edges moved to the front in each.
        rng = np.random.default_rng(20261022)
        kinds = [ProtocolKind.P2, ProtocolKind.LINEAR, ProtocolKind.P1]
        scenarios = []
        for r in range(18):
            kind, n = kinds[r % 3], 2 + r % 5
            dt = (1e-2, 5e-3)[(r // 3) % 2]
            tops = {name: random_topology(rng, n, p=0.7) for name in "AB"}
            timing = dict(topology="A") if r % 4 < 2 else dict(
                schedule=SwitchingSchedule((("A", 7 * dt), ("B", 4 * dt)), cyclic=True))
            scenarios.append(Scenario(
                ProtocolSpec(kind, 1.0 if kind is ProtocolKind.LINEAR else 0.5), tops,
                rng.uniform(-3, 3, n), dt=dt, t_max=float(rng.uniform(0.5, 2.0)),
                agree_tol=1e-3, record_every=int(rng.integers(1, 8)), **timing))
        refs = [reference_integrate(sc) for sc in scenarios]
        assert {ref["status"] for ref in refs} == {"Converged", "TimedOut"}
        unions, run_union = [], engine._run_union

        def noting_union(runs, alpha, dt):
            unions.append((alpha, dt, [run.index for run in runs]))
            run_union(runs, alpha, dt)

        monkeypatch.setattr(engine, "_run_union", noting_union)
        for traj, ref in zip(integrate_batch(scenarios), refs):
            assert_bytes_equal(traj, ref)
        assert sorted((alpha, dt) for alpha, dt, _ in unions) == [
            (0.5, 5e-3), (0.5, 1e-2), (1.0, 5e-3), (1.0, 1e-2)]
        for alpha, dt, indices in unions:
            assert indices == [r for r, sc in enumerate(scenarios)
                               if (sc.protocol.alpha, sc.dt) == (alpha, dt)]

    def test_repro_is_one_batch_equal_to_three_runs(self, monkeypatch):
        batches, batch = [], repro.integrate_batch

        def noting_batch(scenarios):
            batches.append(scenarios)
            return batch(scenarios)

        monkeypatch.setattr(repro, "integrate_batch", noting_batch)
        result = repro.run_repro()
        [scenarios] = batches
        got = (result.traj_p1, result.traj_p2, result.traj_switching)
        for traj, sc in zip(got, scenarios, strict=True):
            assert_bytes_equal(traj, dataclasses.asdict(integrate(sc)))

    def test_empty_batch(self):
        assert integrate_batch([]) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda traj: lemma1_constant(0, 1.0),
        lambda traj: t1_bound(-1.0, 1.0, 0.5),
        lambda traj: envelope(1.0, 1.0, 0.5, -1.0),
        lambda traj: verify_envelope(traj, 1.0, 1.0, 0.5, metric="v3"),
        lambda traj: trajectory_csv_text(dataclasses.replace(traj, t=traj.t[:0])),
    ],
    ids=["lemma1_constant", "bound-args", "envelope", "verify_envelope", "csv"],
)
def test_bad_arguments_raise_a_package_error(call):
    traj = integrate(two_agent_scenario(dt=0.01))
    with pytest.raises(ValidationError) as exc:
        call(traj)
    assert isinstance(exc.value, FtagreeError)


def test_star_import_binds_no_submodule():
    # A star import must not rebind a caller's `scenario` or `graph`.
    namespace = {}
    exec("from ftagree import *", namespace)
    assert "Scenario" in namespace and "integrate" in namespace
    assert {"graph", "scenario"}.isdisjoint(namespace)
    public = {name: value for name, value in namespace.items() if not name.startswith("_")}
    assert not [name for name, value in public.items() if isinstance(value, types.ModuleType)]
    # The whole public API: an addition or a removal shows up here.
    assert sorted(public) == [
        "BoundsReport", "ProtocolKind", "ProtocolSpec", "Sample", "Scenario",
        "SpectrumResult", "SwitchingSchedule", "Topology", "Trajectory",
        "algebraic_connectivity", "complete_topology", "conservation_drift",
        "cycle_topology", "eigenvalues_symmetric", "envelope", "exponent_transform",
        "field", "integrate", "integrate_batch", "is_connected", "k1_constant",
        "k2_constant", "laplacian", "lemma1_constant", "parse_scenario",
        "path_topology", "reconstruct_paper_graph", "scenario_bounds",
        "t1_bound", "t1_limit_alpha0", "t2_bound", "t3_bound", "topology_new",
        "v1", "v2", "verify_envelope",
    ]


def test_error_taxonomy():
    # The CLI maps DisconnectedTopology to exit 3 and every other error to
    # exit 2; a new class, or a removed one, shows up here.
    from ftagree import errors
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.FtagreeError)}
    assert defined == {"FtagreeError", "ValidationError", "TopologyError",
                       "ScenarioSyntaxError", "DisconnectedTopology", "NumericalBlowup"}
    for cls in (errors.ValidationError, errors.TopologyError, errors.ScenarioSyntaxError):
        assert issubclass(cls, ValueError)
    assert issubclass(errors.NumericalBlowup, RuntimeError)
    assert not issubclass(errors.DisconnectedTopology, (ValueError, RuntimeError))


class TestLyapunovChecks:
    def run_k3(self, protocol):
        t = complete_topology(3)
        sc = Scenario(
            protocol=protocol,
            topologies={"G": t},
            topology="G",
            x0=[0.0, 1.0, 4.0],
            dt=1e-3,
            t_max=20.0,
            agree_tol=1e-5,
            record_every=5,
        )
        return t, integrate(sc)

    def test_v1_envelope_p1(self):
        t, traj = self.run_k3(P1_HALF)
        lam2 = algebraic_connectivity(t)
        v1_0 = v1(t, np.array([0.0, 1.0, 4.0]))
        check = verify_envelope(traj, v1_0, k1_constant(lam2, 0.5), 0.5, metric="v1")
        assert check.passed

    def test_v2_envelope_p2(self):
        t, traj = self.run_k3(P2_HALF)
        lam2b = algebraic_connectivity(exponent_transform(t, 0.5))
        v2_0 = v2(np.array([0.0, 1.0, 4.0]))
        check = verify_envelope(traj, v2_0, k2_constant(lam2b, 0.5), 0.5, metric="v2")
        assert check.passed

    def test_inflated_k_fails(self):
        t, traj = self.run_k3(P1_HALF)
        lam2 = algebraic_connectivity(t)
        v1_0 = v1(t, np.array([0.0, 1.0, 4.0]))
        check = verify_envelope(
            traj, v1_0, 2.0 * k1_constant(lam2, 0.5), 0.5, metric="v1"
        )
        assert not check.passed
        assert check.max_violation > 0

    def test_monotone_decay(self):
        t, traj_p1 = self.run_k3(P1_HALF)
        vs = traj_p1.v1
        assert np.all(vs[1:] <= vs[:-1] + 1e-9 * vs[0])
        _, traj_p2 = self.run_k3(P2_HALF)
        vs = traj_p2.v2
        assert np.all(vs[1:] <= vs[:-1] + 1e-9 * vs[0])

    def test_observed_before_bound(self):
        t, traj = self.run_k3(P2_HALF)
        lam2b = algebraic_connectivity(exponent_transform(t, 0.5))
        bound = t2_bound(v2(np.array([0.0, 1.0, 4.0])), lam2b, 0.5)
        assert traj.converged_at <= bound


class TestConservationDrift:
    def test_p2_drift_tiny(self, rng):
        t = cycle_topology(5)
        x0 = rng.uniform(-10, 10, 5)
        sc = Scenario(
            protocol=P2_HALF,
            topologies={"G": t},
            topology="G",
            x0=x0,
            dt=1e-3,
            t_max=30.0,
            agree_tol=1e-5,
        )
        traj = integrate(sc)
        assert conservation_drift(traj) <= 1e-9 * (1.0 + abs(x0.sum()))

    def test_constant_state(self):
        traj = integrate(two_agent_scenario(x0=[2.0, 2.0]))
        assert conservation_drift(traj) == 0.0

    def test_p1_rejected(self):
        traj = integrate(two_agent_scenario(P1_HALF))
        with pytest.raises(ValidationError, match="protocol 1 does not conserve the state sum"):
            conservation_drift(traj)
