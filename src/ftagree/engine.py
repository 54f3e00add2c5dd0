"""Fixed-step RK4 simulation of the agreement dynamics.

The right-hand side is continuous but non-Lipschitz at agreement, so the
engine uses a fixed step plus a spread-based snap instead of adaptive
error control: once max(x) - min(x) <= agree_tol the state is set exactly
to its mean, mirroring the exact finite-time convergence of the true
solution. Integration is forward-time only and fully deterministic.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import bounds
from .errors import NumericalBlowup, ValidationError
from .graph import Topology
from .protocols import ProtocolKind, ProtocolSpec, edge_field


@dataclass(frozen=True)
class SwitchingSchedule:
    """Ordered dwell phases; the active topology is piecewise constant
    and right-continuous (a switch instant belongs to the new phase)."""

    phases: Tuple[Tuple[str, float], ...]
    cyclic: bool = True

    def __post_init__(self):
        if not self.phases:
            raise ValidationError("schedule needs at least one phase")
        for name, dwell in self.phases:
            if not (math.isfinite(dwell) and dwell > 0):
                raise ValidationError(
                    f"phase {name!r} needs a finite positive dwell, got {dwell}")
        if not math.isfinite(self.period):
            raise ValidationError("schedule period must be finite")
        object.__setattr__(self, "phases", tuple(self.phases))

    @property
    def period(self) -> float:
        return sum(d for _, d in self.phases)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A checked run; frozen, so dataclasses.replace derives a variant.
    Equality is identity, so a Scenario can be a dict key."""

    protocol: ProtocolSpec
    topologies: Mapping[str, Topology]
    x0: np.ndarray
    schedule: Optional[SwitchingSchedule] = None
    topology: Optional[str] = None
    dt: float = 1e-3
    t_max: float = 100.0
    agree_tol: float = 1e-6
    record_every: int = 10

    def __post_init__(self):
        """Reject invalid content: integrate and parse_scenario rely on this alone."""
        if not isinstance(self.protocol, ProtocolSpec):
            raise ValidationError(f"protocol must be a ProtocolSpec, got {self.protocol!r}")
        # A read-only copy: the caller's array cannot change x0 after the checks.
        x0 = np.array(self.x0, dtype=float)
        x0.flags.writeable = False
        if x0.ndim != 1 or x0.size < 1:
            raise ValidationError("x0 must be a nonempty vector")
        if not np.all(np.isfinite(x0)):
            raise ValidationError("x0 must be finite")
        # A read-only copy too: the caller's dict cannot swap a topology in.
        topologies = MappingProxyType(dict(self.topologies))
        if not topologies:
            raise ValidationError("scenario defines no topologies")
        for name, top in topologies.items():
            if top.n != x0.size:
                raise ValidationError(f"topology {name!r} has n={top.n}, x0 has {x0.size}")
        # The sum, V2 and V1 of a finite x0 can still overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            totals = {"sum(x0)": float(x0.sum()), "V2(0)": bounds.v2(x0)}
            totals.update((f"V1(0) on topology {name!r}", bounds.v1(top, x0))
                          for name, top in topologies.items())
        for what, value in totals.items():
            if not math.isfinite(value):
                raise ValidationError(f"{what} is not finite (overflow)")
        for key in ("dt", "t_max", "agree_tol"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{key} must be finite and positive, got {value}")
        if not math.isfinite(self.t_max / self.dt):
            raise ValidationError(f"t_max/dt = {self.t_max}/{self.dt} is too many steps")
        if not (float(self.record_every).is_integer() and self.record_every >= 1):
            raise ValidationError(
                f"record_every must be an integer >= 1, got {self.record_every}")
        if (self.schedule is None) == (self.topology is None):
            raise ValidationError("scenario needs exactly one of: schedule, topology")
        # A fixed topology's one phase (dwell dt) is always one step.
        steps = []
        for name, dwell in self.phases:
            if name not in topologies:
                raise ValidationError(f"unknown topology reference {name!r}")
            n = dwell / self.dt
            if not (math.isfinite(n) and abs(n - round(n)) <= 1e-6 and round(n) >= 1):
                raise ValidationError(
                    f"dwell {dwell} of phase {name!r} is not a multiple of dt={self.dt}")
            steps.append(round(n))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "topologies", topologies)
        object.__setattr__(self, "record_every", int(self.record_every))
        if self.schedule is None:
            return
        # Snap every dwell onto the step grid, so that the dwells this
        # schedule reports lie on the grid that integrate switches on.
        phases = tuple((name, n * self.dt) for (name, _), n in zip(self.phases, steps))
        object.__setattr__(self, "schedule", SwitchingSchedule(phases, self.schedule.cyclic))
        # Phases are half-open, and a run takes round(t_max/dt) steps (its
        # last sample is at that step, which is t_max only on the dt grid),
        # so the schedule must hold past that step.
        if not self.schedule.cyclic and sum(steps) <= round(self.t_max / self.dt):
            raise ValidationError(
                f"non-cyclic schedule ends at t={self.schedule.period:g}, "
                f"not after t_max={self.t_max:g}")

    @property
    def phases(self) -> Tuple[Tuple[str, float], ...]:
        """(topology name, dwell) in order; a fixed topology is one phase."""
        return self.schedule.phases if self.schedule else ((self.topology, self.dt),)


# One row of a Trajectory (see Trajectory.samples).
Sample = namedtuple("Sample", "t x v1 v2 spread sum")


@dataclass
class Trajectory:
    """Recorded samples as columns: row i of x (m×n) is the state at t[i],
    and v1[i], v2[i], spread[i] and sum[i] are computed from that row."""

    t: np.ndarray
    x: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    spread: np.ndarray
    sum: np.ndarray
    status: str  # "Converged" or "TimedOut"
    converged_at: Optional[float]
    final_value: Optional[float]
    protocol: ProtocolSpec
    dt: float

    @property
    def samples(self) -> list[Sample]:
        """Read-only rows, rebuilt on each access. Kept only because
        perfbench/tracing.py reads samples[-1].t and len(samples)."""
        return list(map(Sample, self.t, self.x, self.v1, self.v2, self.spread, self.sum))


def integrate(sc: Scenario) -> Trajectory:
    """Run the scenario to agreement or t_max with classical RK4; a batch
    of one (see integrate_batch)."""
    return integrate_batch([sc])[0]


def integrate_batch(scenarios: Sequence[Scenario]) -> list[Trajectory]:
    """Run each scenario to agreement or t_max with classical RK4; the
    trajectories come back in input order.

    Dwell times are integer multiples of dt, so every step sees a single
    topology and the right-continuous switching signal is discretized
    unambiguously. Each phase holds for its dwell, then the next one takes
    over; a fixed topology is one phase (see Scenario.phases).

    Scenarios that share alpha and dt run in one RK4 loop on the
    disjoint union of their graphs, whatever their protocol (P1 and P2
    mix; linear, at alpha 1, never meets either): each run owns a block
    of the union state, P1 blocks first, and the union edge list is the
    edges of each live run's current phase, offset into its block, P2
    runs' edges first. It is rebuilt when a run switches phase or ends,
    so a run that agrees or times out gets an exact zero field and its
    block stays frozen. np.bincount adds a vertex's edge terms in the
    same order as in the run alone, and sig is taken on the same values
    (see protocols.edge_field), so every trajectory equals the
    one-at-a-time run's bit for bit.

    The loop runs RK4 from event to event: after the events of step k
    it takes the steps up to the next one (record, switch or end, and at
    most _WINDOW of them) into a buffer, then checks every buffered step
    at once and goes back to the first at which a running run agrees or
    its state is not finite; the steps after it are thrown away. Once a
    running run's spread is within 4 agree_tol, it steps one at a time.
    On agreement a run snaps a copy of its block to the block mean, and
    at each step it records it keeps a copy of its block. The columns come
    afterwards from these rows, V1 and V2 by bounds.v1 and bounds.v2. A
    running run whose state is not finite raises NumericalBlowup naming
    its index at that step, as does a kept row whose V1, V2 or sum
    overflows; of several runs at one step, the lowest index is named.
    """
    groups: Dict[Tuple[float, float], list[_Run]] = {}
    runs = [_Run(sc, r) for r, sc in enumerate(scenarios)]
    for run in runs:
        groups.setdefault((run.sc.protocol.alpha, run.sc.dt), []).append(run)
    for (alpha, dt), group in groups.items():
        _run_union(group, alpha, dt)
    return [run.trajectory() for run in runs]


# The most RK4 steps taken between two checks of the state, and the most
# values (2 MB) that the buffer of a window's states may hold: a union of
# over 2**18 vertices steps one step at a time.
_WINDOW = 32
_WINDOW_VALUES = 2**18


class _Run:
    """One scenario of a batch: its phases, its union block x[lo:hi] and
    its phases' edges there, its next events and the rows it has kept.
    A row is only (step, state, phase); trajectory() derives the rest,
    V1 (on each row's topology) and V2 by bounds on blocks of rows."""

    def __init__(self, sc: Scenario, index: int):
        self.sc = sc
        self.index = index  # position in the caller's list
        self.tops = [sc.topologies[name] for name, _ in sc.phases]
        self.dwells = [round(d / sc.dt) for _, d in sc.phases]  # in steps
        self.steps = int(round(sc.t_max / sc.dt))
        self.phase = 0
        self.next_switch = self.dwells[0] if len(self.dwells) > 1 else math.inf
        self.next_event = 0  # step 0 is recorded
        self.rows = []  # (step, state, phase) for every recorded step
        self.agreed = self.done = False
        # For a block of spread s: 2 V1 <= sum(w) s^2 and 2 V2 <= n s^2. A
        # sum(w) past the float range sends every kept row to the exact check.
        with np.errstate(over="ignore"):
            self.scale = max([float(sc.x0.size)] + [float(top.w.sum()) for top in self.tops])

    def step(self, k: int, x: np.ndarray, agreed: bool, high: float, low: float) -> None:
        """Switch phase, snap, record or end at step k, as due; high and
        low are the max and min of the block at step k."""
        block = x[self.lo:self.hi]
        self.agreed = agreed
        self.done = agreed or k == self.steps
        if k == self.next_switch:
            self.phase = (self.phase + 1) % len(self.dwells)
            self.next_switch = k + self.dwells[self.phase]
        if agreed:
            self._keep(k, np.full(block.size, block.mean()), high, low)
        elif self.done or k % self.sc.record_every == 0:
            self._keep(k, block.copy(), high, low)
        if self.done:
            return
        every = self.sc.record_every
        self.next_event = min(k - k % every + every, self.steps, self.next_switch)

    def _keep(self, k: int, state: np.ndarray, high: float, low: float) -> None:
        """Keep the state of step k. A finite state can still overflow its
        V1, V2 or sum, which ends the batch. Bounds from the block's high
        and low rule that out for almost every row; only a row whose bound
        reaches 1e300 gets its values computed here."""
        big = max(high, -low)  # max |x|
        # x - mean(x) can exceed the spread by the rounding of the mean.
        s = high - low + 1e-13 * big
        if self.scale * s * s >= 2e300 or self.sc.x0.size * big >= 1e300:
            top = self.tops[self.phase]
            values = (bounds.v1(top, state), bounds.v2(state), float(state.sum()))
            if not all(map(math.isfinite, values)):
                raise NumericalBlowup(
                    f"V1, V2 or the state sum is not finite at t={k * self.sc.dt} "
                    f"in run {self.index}")
        self.rows.append((k, state, self.phase))

    def trajectory(self) -> Trajectory:
        ks, states, phases = map(np.array, zip(*self.rows))
        t = ks * self.sc.dt
        # V1 and V2 by bounds.v1 and bounds.v2 on blocks of rows of one phase:
        # each temporary is at most 2**13 values (64 kB), in the cache and
        # below malloc's mmap threshold, so no page faults however long the run.
        size = max(1, 2**13 // max([states.shape[1]] + [top.i.size for top in self.tops]))
        cuts = sorted({0, len(ks), *(np.flatnonzero(np.diff(phases)) + 1).tolist(),
                       *range(size, len(ks), size)})
        v1, v2 = np.empty(len(ks)), np.empty(len(ks))
        for a, b in zip(cuts, cuts[1:]):
            v1[a:b] = bounds.v1(self.tops[phases[a]], states[a:b])
            v2[a:b] = bounds.v2(states[a:b])
        return Trajectory(
            t=t,
            x=states,
            v1=v1,
            v2=v2,
            spread=states.max(axis=1) - states.min(axis=1),
            sum=states.sum(axis=1),
            status="Converged" if self.agreed else "TimedOut",
            converged_at=float(t[-1]) if self.agreed else None,
            final_value=float(states[-1, 0]) if self.agreed else None,
            protocol=self.sc.protocol,
            dt=self.sc.dt,
        )


def _run_union(runs: list[_Run], alpha: float, dt: float) -> None:
    """Advance runs (in input order) that share alpha and dt in one RK4
    loop until each has agreed or timed out."""
    # Each run's block, P1 blocks first (the sort is stable), so sig of
    # the sum is taken on a prefix of the state; and the (i, j, w) of each
    # of its phases offset into that block once here, not at every rebuild
    # of the union edge list. The edge list takes P2 runs first, so sig of
    # the edge terms is taken on a prefix. Events are handled in input order.
    blocks = sorted(runs, key=lambda run: run.sc.protocol.kind is not ProtocolKind.P1)
    edge_order = sorted(runs, key=lambda run: run.sc.protocol.kind is not ProtocolKind.P2)
    lo = sig_vertices = 0
    for pos, run in enumerate(blocks):
        run.pos, run.lo = pos, lo
        lo = run.hi = lo + run.sc.x0.size
        run.phase_edges = [(top.i + run.lo, top.j + run.lo, top.w) for top in run.tops]
        if run.sc.protocol.kind is ProtocolKind.P1:
            sig_vertices = run.hi
    x = np.concatenate([run.sc.x0 for run in blocks])
    starts = np.array([run.lo for run in blocks])
    tol = np.array([run.sc.agree_tol for run in blocks])
    live, f, next_event, k = runs, None, 0, 0
    # The states of a window, one row per step; from the first window on,
    # x is one of its rows. high, low and spread are per block, at step k.
    rows = min(_WINDOW, max(1, _WINDOW_VALUES // x.size), max(run.steps for run in runs))
    window = np.empty((rows, x.size))
    # The state each stage evaluates the field at; once k4 is taken, the
    # weighted sum of the stages.
    xk = np.empty(x.size)
    high, low = np.maximum.reduceat(x, starts), np.minimum.reduceat(x, starts)
    spread = high - low

    add, mul = np.add, np.multiply
    half, sixth = dt / 2.0, dt / 6.0
    # A diverging run is caught by its non-finite spread (max and min pass
    # nan and inf through), so numpy's overflow warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if not math.isfinite(np.maximum.reduce(spread)):
                # Ended blocks are frozen and finite.
                r = min(blocks[pos].index for pos in np.flatnonzero(~np.isfinite(spread)))
                raise NumericalBlowup(f"non-finite state at t={k * dt} in run {r}")
            hit = (spread <= tol).tolist()
            if k == next_event or True in hit:
                high_k, low_k = high.tolist(), low.tolist()
                changed = f is None
                for run in live:
                    pos = run.pos
                    if hit[pos] or k == run.next_event:
                        changed |= k == run.next_switch
                        run.step(k, x, hit[pos], high_k[pos], low_k[pos])
                        if run.done:
                            tol[pos] = -math.inf
                            changed = True
                if changed:
                    live = [run for run in live if not run.done]
                    if not live:
                        break
                    # Only the live runs' current phases: an ended run's
                    # block gets an exact zero field and stays frozen.
                    edges, sig_edges = [], 0
                    for run in edge_order:
                        if not run.done:
                            edges.append(run.phase_edges[run.phase])
                            if run.sc.protocol.kind is ProtocolKind.P2:
                                sig_edges += edges[-1][0].size
                    f = edge_field(alpha, *map(np.concatenate, zip(*edges)), x.size,
                                   sig_edges, sig_vertices)
                next_event = min(run.next_event for run in live)
            # A window past an agreement is thrown away, so a run near one
            # (ended runs have tol -inf) is stepped one step at a time.
            m = 1 if (spread <= 4.0 * tol).any() else min(next_event - k, len(window))
            for row in window[:m]:
                # x + sixth * (k1 + 2 (k2 + k3) + k4), operation for
                # operation, written into the window's row.
                k1 = f(x)
                k2 = f(add(x, mul(half, k1, out=xk), out=xk))
                k3 = f(add(x, mul(half, k2, out=xk), out=xk))
                k4 = f(add(x, mul(dt, k3, out=xk), out=xk))
                mul(2.0, add(k2, k3, out=xk), out=xk)
                mul(sixth, add(add(k1, xk, out=xk), k4, out=xk), out=xk)
                x = add(x, xk, out=row)
            highs = np.maximum.reduceat(window[:m], starts, axis=1)
            lows = np.minimum.reduceat(window[:m], starts, axis=1)
            spreads = highs - lows
            # The first step at which a run agrees or is not finite, or the last.
            s = m - 1
            if m > 1:
                calm = ((tol < spreads) & (spreads < math.inf)).all(axis=1)
                s = m - 1 if calm.all() else int(calm.argmin())
            k += s + 1
            x, high, low, spread = window[s], highs[s], lows[s], spreads[s]


@dataclass(frozen=True)
class EnvelopeCheck:
    passed: bool
    max_violation: float


def verify_envelope(
    traj: Trajectory, v_0: float, K: float, alpha: float, metric: str = "v1"
) -> EnvelopeCheck:
    """Check sampled Lyapunov values against the analytic decay envelope.

    metric selects which sampled series is compared ("v1" for protocol 1
    with K1, "v2" for protocol 2 with K2). Slack per sample covers
    sampling/integration error: 1e-6 * v_0 + 10 * dt * |dV/dt| estimated
    by adjacent-sample differences. max_violation is signed; <= 0 passes.
    """
    if metric not in ("v1", "v2"):
        raise ValidationError(f"metric must be 'v1' or 'v2', got {metric!r}")
    vs = getattr(traj, metric)
    ts = traj.t
    dvdt = np.zeros(len(vs))
    if len(vs) > 1:
        # The larger rate of the two sample intervals next to each sample.
        rates = np.pad(np.abs(np.diff(vs) / np.diff(ts)), 1, mode="edge")
        dvdt = np.maximum(rates[:-1], rates[1:])
    slack = 1e-6 * v_0 + 10.0 * traj.dt * dvdt
    worst = float(np.max(vs - bounds.envelope(v_0, K, alpha, ts) - slack, initial=-math.inf))
    return EnvelopeCheck(passed=worst <= 0.0, max_violation=worst)


def conservation_drift(traj: Trajectory) -> float:
    """Max deviation of the state sum from its initial value.

    Only protocol 2 and the linear baseline conserve the sum; protocol 1
    is refused rather than reporting a meaningless number.
    """
    if traj.protocol.kind is ProtocolKind.P1:
        raise ValidationError("protocol 1 does not conserve the state sum")
    return float(np.abs(traj.sum - traj.sum[0]).max())
