"""Fixed-step RK4 simulation of the agreement dynamics.

The right-hand side is continuous but non-Lipschitz at agreement, so the
engine uses a fixed step plus a spread-based snap instead of adaptive
error control: once max(x) - min(x) <= agree_tol the state is set exactly
to its mean, mirroring the exact finite-time convergence of the true
solution. Integration is forward-time only and fully deterministic.
"""

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import bounds
from .errors import (
    NumericalBlowup,
    ProtocolMismatch,
    TimeBeyondSchedule,
    UnknownTopologyId,
    ValidationError,
)
from .graph import Topology
from .protocols import ProtocolKind, ProtocolSpec


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
                    f"phase {name!r} needs a finite positive dwell, got {dwell}"
                )
        object.__setattr__(self, "phases", tuple(self.phases))

    @property
    def period(self) -> float:
        return sum(d for _, d in self.phases)


@dataclass
class Scenario:
    protocol: ProtocolSpec
    topologies: Dict[str, Topology]
    x0: np.ndarray
    schedule: Optional[SwitchingSchedule] = None
    topology: Optional[str] = None
    dt: float = 1e-3
    t_max: float = 100.0
    agree_tol: float = 1e-6
    record_every: int = 10

    def __post_init__(self):
        """Reject invalid content: integrate and parse_scenario rely on this alone."""
        self.x0 = x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim != 1 or x0.size < 1:
            raise ValidationError("x0 must be a nonempty vector")
        if not np.all(np.isfinite(x0)):
            raise ValidationError("x0 must be finite")
        if not self.topologies:
            raise ValidationError("scenario defines no topologies")
        for name, top in self.topologies.items():
            if top.n != x0.size:
                raise ValidationError(f"topology {name!r} has n={top.n}, x0 has {x0.size}")
        for key in ("dt", "t_max", "agree_tol"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{key} must be finite and positive, got {value}")
        if not math.isfinite(self.t_max / self.dt):
            raise ValidationError(f"t_max/dt = {self.t_max}/{self.dt} is too many steps")
        if not (float(self.record_every).is_integer() and self.record_every >= 1):
            raise ValidationError(
                f"record_every must be an integer >= 1, got {self.record_every}"
            )
        self.record_every = int(self.record_every)
        if (self.schedule is None) == (self.topology is None):
            raise ValidationError("scenario needs exactly one of: schedule, topology")
        if self.topology is not None and self.topology not in self.topologies:
            raise ValidationError(f"unknown topology reference {self.topology!r}")
        if self.schedule is None:
            return
        for name, dwell in self.schedule.phases:
            if name not in self.topologies:
                raise ValidationError(f"schedule references unknown topology {name!r}")
            steps = dwell / self.dt
            whole = math.isfinite(steps) and abs(steps - round(steps)) <= 1e-6
            if not whole or round(steps) < 1:
                raise ValidationError(
                    f"dwell {dwell} of phase {name!r} is not a multiple of dt={self.dt}"
                )


@dataclass(frozen=True)
class Sample:
    t: float
    x: np.ndarray
    v1: float
    v2: float
    spread: float
    sum: float


@dataclass
class Trajectory:
    samples: list[Sample]
    status: str  # "Converged" or "TimedOut"
    converged_at: Optional[float]
    final_value: Optional[float]
    protocol: ProtocolSpec
    dt: float
    record_every: int


def topology_at(
    s: SwitchingSchedule, topologies: Dict[str, Topology], t: float
) -> Topology:
    """Topology active at time t; half-open phase intervals [start, start+dwell)."""
    if t < 0:
        raise TimeBeyondSchedule(f"time must be >= 0, got {t}")
    period = s.period
    if s.cyclic:
        r = math.fmod(t, period)
    else:
        if t >= period:
            raise TimeBeyondSchedule(f"t={t} beyond non-cyclic schedule of {period}")
        r = t
    # Snap times that are a roundoff shy of a boundary into the new phase.
    eps = 1e-9 * max(1.0, period)
    start = 0.0
    for name, dwell in s.phases:
        if r < start + dwell - eps:
            if name not in topologies:
                raise UnknownTopologyId(name)
            return topologies[name]
        start += dwell
    name = s.phases[0][0]
    if name not in topologies:
        raise UnknownTopologyId(name)
    return topologies[name]


def integrate(sc: Scenario) -> Trajectory:
    """Run the scenario to agreement or t_max with classical RK4.

    Dwell times are integer multiples of dt, so every step sees a single
    topology and the right-continuous switching signal is discretized
    unambiguously.
    """
    dt = sc.dt
    x = sc.x0.copy()

    if sc.schedule is not None:
        phase_steps = [int(round(d / dt)) for _, d in sc.schedule.phases]
        phase_tops = [sc.topologies[name] for name, _ in sc.schedule.phases]
        period_steps = sum(phase_steps)
        step_phase = np.empty(period_steps, dtype=int)
        pos = 0
        for idx, ns in enumerate(phase_steps):
            step_phase[pos : pos + ns] = idx
            pos += ns
        rhss = [sc.protocol.rhs(top) for top in phase_tops]

        def rhs_at(k):
            return rhss[step_phase[k % period_steps]]

        def top_at(k):
            return phase_tops[step_phase[k % period_steps]]
    else:
        top0 = sc.topologies[sc.topology]
        rhs0 = sc.protocol.rhs(top0)

        def rhs_at(k):
            return rhs0

        def top_at(k):
            return top0

    samples: list[Sample] = []

    def record(t, xv, top):
        samples.append(
            Sample(
                t=t,
                x=xv.copy(),
                v1=bounds.v1(top, xv),
                v2=bounds.v2(xv),
                spread=float(xv.max() - xv.min()),
                sum=float(xv.sum()),
            )
        )

    n_steps = int(round(sc.t_max / dt))
    status = "TimedOut"
    converged_at = None
    final_value = None
    half = dt / 2.0
    sixth = dt / 6.0
    # Overflow on a diverging run is detected explicitly via the
    # finiteness check, so numpy warnings are silenced here.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            t = k * dt
            spread = float(x.max() - x.min())
            if spread <= sc.agree_tol:
                mean = float(x.mean())
                x = np.full_like(x, mean)
                record(t, x, top_at(k))
                status = "Converged"
                converged_at = t
                final_value = mean
                break
            if k == n_steps:
                if not samples or samples[-1].t < t:
                    record(t, x, top_at(k))
                break
            if k % sc.record_every == 0:
                record(t, x, top_at(k))
            f = rhs_at(k)
            k1 = f(x)
            k2 = f(x + half * k1)
            k3 = f(x + half * k2)
            k4 = f(x + dt * k3)
            x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.all(np.isfinite(x)):
                raise NumericalBlowup(f"non-finite state at t={t + dt}")

    return Trajectory(
        samples=samples,
        status=status,
        converged_at=converged_at,
        final_value=final_value,
        protocol=sc.protocol,
        dt=dt,
        record_every=sc.record_every,
    )


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
        raise ValueError(f"metric must be 'v1' or 'v2', got {metric!r}")
    vs = np.array([getattr(s, metric) for s in traj.samples])
    ts = np.array([s.t for s in traj.samples])
    m = len(vs)
    dvdt = np.zeros(m)
    if m > 1:
        rates = np.abs(np.diff(vs) / np.diff(ts))
        dvdt[0] = rates[0]
        dvdt[-1] = rates[-1]
        if m > 2:
            dvdt[1:-1] = np.maximum(rates[:-1], rates[1:])
    worst = -math.inf
    for i in range(m):
        slack = 1e-6 * v_0 + 10.0 * traj.dt * dvdt[i]
        violation = vs[i] - bounds.envelope(v_0, K, alpha, ts[i]) - slack
        worst = max(worst, violation)
    return EnvelopeCheck(passed=worst <= 0.0, max_violation=worst)


def conservation_drift(traj: Trajectory) -> float:
    """Max deviation of the state sum from its initial value.

    Only protocol 2 and the linear baseline conserve the sum; protocol 1
    is refused rather than reporting a meaningless number.
    """
    if traj.protocol.kind is ProtocolKind.P1:
        raise ProtocolMismatch("protocol 1 does not conserve the state sum")
    sums = [s.sum for s in traj.samples]
    s0 = sums[0]
    return max(abs(s - s0) for s in sums)
