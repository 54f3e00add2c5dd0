"""Reproduction of the published six-agent example.

The original study reports scalar results for a six-agent system with
edge weight 2, exponent 0.5 and initial state [-5, -3, 7, 9, 4, 5], but
not the four interaction graphs it used. This module reconstructs
candidate graphs for the fixed-topology experiment by exhaustive search
against the reported edge energy (338) and transformed algebraic
connectivity (1.0409), recomputes every reported scalar and reruns the
simulations on the first candidate.

The reported t3 pins only the minimum connectivity over the switching
schedule, and the weight-2 path on six vertices matches it. So the
schedule here is the first candidate, then the weight-2 path, cycle and
complete graph on six vertices (all connected, none with smaller
transformed connectivity); the report notes say so. V1(0), V2(0),
lambda2(L_B), the minimum connectivity and t3 come from
bounds.scenario_bounds on that schedule, as in `ftagree bounds`; t1 and
t2 stay on the published 338 and 1.0409.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import bounds
from .engine import Scenario, SwitchingSchedule, Trajectory, integrate
from .graph import Topology, complete_topology, cycle_topology, path_topology
from .protocols import ProtocolKind, ProtocolSpec
from .reconstruct import reconstruct_paper_graph

# Published reference values for the six-agent example.
REF_X0 = (-5.0, -3.0, 7.0, 9.0, 4.0, 5.0)
REF_ALPHA = 0.5
REF_WEIGHT = 2.0
REF_DWELL = 0.25
REF_KAPPA = 2.8333
REF_V1_0 = 338.0
REF_V2_0 = 78.4167
REF_LAMBDA2_B = 1.0409
REF_T1 = 11.7681
REF_T2 = 8.1673
REF_T3 = 11.3000

# Integration settings of the three reproduced simulations.
DT = 1e-3
AGREE_TOL = 1e-4


@dataclass(frozen=True)
class ReproReport:
    quantity: str
    paper_value: float
    computed_value: float
    abs_error: float
    note: str

    @classmethod
    def make(cls, quantity, paper_value, computed_value, note=""):
        return cls(
            quantity=quantity,
            paper_value=float(paper_value),
            computed_value=float(computed_value),
            abs_error=abs(float(paper_value) - float(computed_value)),
            note=note,
        )


@dataclass
class ReproResult:
    reports: list[ReproReport]
    candidates: list[Topology]
    bounds: bounds.BoundsReport
    traj_p1: Trajectory
    traj_p2: Trajectory
    traj_switching: Trajectory


def run_repro() -> ReproResult:
    """Recompute all reported scalars and rerun the three simulations."""
    x0 = np.array(REF_X0)
    alpha = REF_ALPHA

    candidates = reconstruct_paper_graph(x0, REF_V1_0, REF_LAMBDA2_B, alpha, weight=REF_WEIGHT)
    if not candidates:
        raise RuntimeError("graph reconstruction found no candidate topologies")
    g1 = candidates[0]

    p1, p2 = ProtocolSpec(ProtocolKind.P1, alpha), ProtocolSpec(ProtocolKind.P2, alpha)
    schedule_graphs = {
        "G1": g1,
        "G2": path_topology(6, REF_WEIGHT),
        "G3": cycle_topology(6, REF_WEIGHT),
        "G4": complete_topology(6, REF_WEIGHT),
    }
    schedule = SwitchingSchedule(tuple((g, REF_DWELL) for g in schedule_graphs), cyclic=True)
    switching = Scenario(protocol=p2, topologies=schedule_graphs, x0=x0, schedule=schedule,
                         dt=DT, agree_tol=AGREE_TOL, record_every=10)
    # V1(0) and lambda2_B are taken at G1, the first phase.
    computed = bounds.scenario_bounds(switching)

    kappa = float(x0.mean())
    # With every weight equal to 2, the transform scales the whole matrix
    # uniformly, so lam2(L_A) = lam2(L_B) / 2**(2/(1+alpha) - 1). Deriving
    # it from the reported 1.0409 keeps t1 anchored to published data.
    lam2a_derived = REF_LAMBDA2_B / REF_WEIGHT ** (2.0 / (1.0 + alpha) - 1.0)
    t1 = bounds.t1_bound(REF_V1_0, lam2a_derived, alpha)
    t2 = bounds.t2_bound(computed.v2_0, REF_LAMBDA2_B, alpha)

    reports = [
        ReproReport.make("kappa", REF_KAPPA, kappa, "average of initial states"),
        ReproReport.make(
            "V1(0)", REF_V1_0, computed.v1_0, "edge energy of the first reconstructed graph"
        ),
        ReproReport.make(
            "V2(0)", REF_V2_0, computed.v2_0, "disagreement energy, topology-independent"
        ),
        ReproReport.make(
            "lambda2(L_B)",
            REF_LAMBDA2_B,
            computed.lambda2_B,
            "transformed connectivity of the first reconstructed graph; "
            f"{len(candidates)} candidate(s) matched, true topology unpublished",
        ),
        ReproReport.make(
            "t1",
            REF_T1,
            t1,
            "protocol-1 bound; lam2(L_A) derived from the reported 1.0409 "
            "via uniform weight scaling",
        ),
        ReproReport.make(
            "t2", REF_T2, t2, "protocol-2 bound using the reported connectivity"
        ),
        ReproReport.make(
            "t3",
            REF_T3,
            computed.t3,
            "switching bound; minimum transformed connectivity over the "
            "substituted schedule (weight-2 path on 6 vertices)",
        ),
        # Reference line only: the discontinuous alpha=0 protocol reaches
        # agreement at (max - min)/2 regardless of weights; not simulated.
        ReproReport.make(
            "alpha0_hitting_time_reference",
            (max(REF_X0) - min(REF_X0)) / 2.0,
            (max(REF_X0) - min(REF_X0)) / 2.0,
            "analytic value for the discontinuous alpha=0 limit, reported only",
        ),
    ]

    fixed = replace(switching, topologies={"G1": g1}, topology="G1", schedule=None)
    traj_p1, traj_p2, traj_switching = [
        integrate(replace(sc, protocol=protocol, t_max=1.5 * bound))
        for sc, protocol, bound in ((fixed, p1, t1), (fixed, p2, t2), (switching, p2, computed.t3))
    ]

    return ReproResult(
        reports=reports,
        candidates=candidates,
        bounds=computed,
        traj_p1=traj_p1,
        traj_p2=traj_p2,
        traj_switching=traj_switching,
    )
