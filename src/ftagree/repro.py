"""Reproduction of the published six-agent example.

The original study reports scalar results for a six-agent system with
edge weight 2, exponent 0.5 and initial state [-5, -3, 7, 9, 4, 5], but
the four interaction graphs it used were never published. This module
reconstructs candidate graphs for the fixed-topology experiment by
exhaustive search against the reported edge energy (338) and transformed
algebraic connectivity (1.0409), then recomputes every reported scalar
and reruns the simulations on the first candidate.

For the switching experiment only the minimum connectivity over the
schedule is pinned by the reported bound; it matches the weight-2 path
on six vertices, so the schedule used here is the reconstructed graph
plus the path, cycle and complete graphs on six vertices (all weight 2,
all connected, none with smaller transformed connectivity). That
substitution is stated in the report notes.
"""

from dataclasses import dataclass

import numpy as np

from . import bounds
from .engine import Scenario, SwitchingSchedule, Trajectory, integrate
from .graph import (
    Topology,
    complete_topology,
    cycle_topology,
    exponent_transform,
    path_topology,
)
from .protocols import ProtocolKind, ProtocolSpec
from .reconstruct import reconstruct_paper_graph
from .spectral import algebraic_connectivity

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
    lambda_min: float
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

    kappa = bounds.disagreement(x0).kappa
    v2_0 = bounds.v2(x0)
    v1_0 = bounds.v1(g1, x0)
    # With every weight equal to 2, the transform scales the whole matrix
    # uniformly, so lam2(L_A) = lam2(L_B) / 2**(2/(1+alpha) - 1). Deriving
    # it from the reported 1.0409 keeps t1 anchored to published data.
    lam2a_derived = REF_LAMBDA2_B / REF_WEIGHT ** (2.0 / (1.0 + alpha) - 1.0)
    t1 = bounds.t1_bound(REF_V1_0, lam2a_derived, alpha)
    t2 = bounds.t2_bound(v2_0, REF_LAMBDA2_B, alpha)

    schedule_graphs = {
        "G1": g1,
        "G2": path_topology(6, REF_WEIGHT),
        "G3": cycle_topology(6, REF_WEIGHT),
        "G4": complete_topology(6, REF_WEIGHT),
    }
    lam2b = {
        name: algebraic_connectivity(exponent_transform(top, alpha))
        for name, top in schedule_graphs.items()
    }
    lambda_min = min(lam2b.values())
    t3 = bounds.t3_bound(v2_0, lambda_min, alpha)

    reports = [
        ReproReport.make("kappa", REF_KAPPA, kappa, "average of initial states"),
        ReproReport.make("V1(0)", REF_V1_0, v1_0, "edge energy of the first reconstructed graph"),
        ReproReport.make(
            "V2(0)", REF_V2_0, v2_0, "disagreement energy, topology-independent"
        ),
        ReproReport.make(
            "lambda2(L_B)",
            REF_LAMBDA2_B,
            lam2b["G1"],
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
            t3,
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

    fixed = dict(topologies={"G1": g1}, topology="G1")
    phases = tuple((name, REF_DWELL) for name in schedule_graphs)
    switching = dict(topologies=schedule_graphs, schedule=SwitchingSchedule(phases, cyclic=True))
    p1, p2 = ProtocolSpec(ProtocolKind.P1, alpha), ProtocolSpec(ProtocolKind.P2, alpha)
    common = dict(x0=x0, dt=DT, agree_tol=AGREE_TOL, record_every=10)
    traj_p1, traj_p2, traj_switching = [
        integrate(Scenario(protocol=protocol, t_max=1.5 * bound, **where, **common))
        for protocol, where, bound in ((p1, fixed, t1), (p2, fixed, t2), (p2, switching, t3))
    ]

    return ReproResult(
        reports=reports,
        candidates=candidates,
        lambda_min=lambda_min,
        traj_p1=traj_p1,
        traj_p2=traj_p2,
        traj_switching=traj_switching,
    )
