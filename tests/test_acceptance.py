"""End-to-end acceptance checks; one test per criterion, each printing a
PASS line when it completes.

Criterion 5's corpus (200 random connected graphs, both protocols) is
built once and shared with criteria 6 and 7.

The fixed step dt=1e-3 stops resolving the state spread at a floor (the
power-law right-hand side is non-Lipschitz at agreement). The estimate
(c*dt)**(1/(1-alpha)), with c the largest weighted degree, is a
conservative margin, not the floor itself: on two agents, one unit edge
and dt=1e-3 the spread stalls at 5.4e-5, 2.4e-7 and 1.1e-16 for
alpha=0.2, 0.5 and 0.8. The corpus picks agree_tol per alpha above that
estimate: 1e-2 for alpha=0.2, 1e-4 for 0.5, 1e-6 for 0.8.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from ftagree import (
    BoundsReport,
    ProtocolKind,
    ProtocolSpec,
    Scenario,
    SwitchingSchedule,
    Topology,
    algebraic_connectivity,
    complete_topology,
    conservation_drift,
    cycle_topology,
    disagreement,
    eigenvalues_symmetric,
    exponent_transform,
    integrate,
    integrate_batch,
    is_connected,
    k1_constant,
    k2_constant,
    laplacian,
    lemma1_constant,
    path_topology,
    reconstruct_paper_graph,
    scenario_bounds,
    t1_bound,
    t2_bound,
    t3_bound,
    topology_new,
    v1,
    v2,
    verify_envelope,
)
from conftest import random_connected_topology, random_topology

X0_SIX = np.array([-5.0, -3.0, 7.0, 9.0, 4.0, 5.0])
ALPHA_TOLS = {0.2: 1e-2, 0.5: 1e-4, 0.8: 1e-6}


def report(criterion, detail=""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


@dataclass
class FuzzRun:
    topology: Topology
    alpha: float
    x0: np.ndarray
    agree_tol: float
    traj_p1: object
    traj_p2: object
    bounds: BoundsReport  # what `ftagree bounds` prints for the P1 scenario


@pytest.fixture(scope="module")
def fuzz_corpus():
    rng = np.random.default_rng(987654321)
    alphas = [0.2, 0.5, 0.8]
    runs, scenarios = [], []
    for k in range(200):
        alpha = alphas[k % 3]
        n = int(rng.integers(3, 7))
        t = random_connected_topology(rng, n)
        x0 = rng.uniform(-10, 10, n)
        tol = ALPHA_TOLS[alpha]
        p1 = Scenario(
            protocol=ProtocolSpec(ProtocolKind.P1, alpha),
            topologies={"G": t},
            topology="G",
            x0=x0,
            dt=1e-3,
            agree_tol=tol,
            record_every=10,
        )
        b = scenario_bounds(p1)
        scenarios.append(replace(p1, t_max=1.1 * b.t1 + 1.0))
        scenarios.append(
            replace(p1, protocol=ProtocolSpec(ProtocolKind.P2, alpha), t_max=1.1 * b.t2 + 1.0)
        )
        runs.append(FuzzRun(t, alpha, x0, tol, None, None, b))
    # One batch; its runs equal one-at-a-time integrate calls bit for bit.
    trajs = integrate_batch(scenarios)
    for run, traj_p1, traj_p2 in zip(runs, trajs[0::2], trajs[1::2]):
        run.traj_p1, run.traj_p2 = traj_p1, traj_p2
    return runs


def test_criterion_1_scalar_reproduction():
    start = time.perf_counter()
    d = disagreement(X0_SIX)
    assert abs(d.kappa - 2.8333) <= 5e-5
    assert abs(v2(X0_SIX) - 78.4167) <= 5e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"(kappa={d.kappa:.6f}, V2(0)={v2(X0_SIX):.6f}, {elapsed:.3f}s)")


def test_criterion_2_bound_formulas():
    start = time.perf_counter()
    t2 = t2_bound(78.4167, 1.0409, 0.5)
    t3 = t3_bound(78.4167, 0.675170, 0.5)
    t1 = t1_bound(338.0, 1.0409 / 2.0 ** (1.0 / 3.0), 0.5)
    assert abs(t3 - 11.3000) <= 5e-4
    assert abs(t1 - 11.7681) <= 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    # Known to be unattainable as stated: feeding the rounded
    # connectivity 1.0409 yields 8.16752, which is 2.23e-4 from the
    # published 8.1673 (itself computed from the unrounded 1.040932,
    # giving 8.16734). The assertion is kept faithful to the stated
    # tolerance rather than loosened to force a pass.
    assert abs(t2 - 8.1673) <= 2e-4, (
        f"t2_bound(78.4167, 1.0409, 0.5) = {t2:.6f}; |{t2:.6f} - 8.1673| = "
        f"{abs(t2 - 8.1673):.2e} > 2e-4 (published value used unrounded "
        f"connectivity 1.040932, which gives {t2_bound(78.4167, 1.04093169195091, 0.5):.6f})"
    )
    report(2, f"(t1={t1:.4f}, t2={t2:.4f}, t3={t3:.4f}, {elapsed:.3f}s)")


def test_criterion_3_graph_reconstruction():
    start = time.perf_counter()
    cands = reconstruct_paper_graph(X0_SIX, 338.0, 1.0409, 0.5)
    assert len(cands) >= 1
    for c in cands:
        assert v1(c, X0_SIX) == pytest.approx(338.0, abs=1e-9)
        lam2b = algebraic_connectivity(exponent_transform(c, 0.5))
        assert abs(lam2b - 1.0409) <= 5e-4
        lam2a = algebraic_connectivity(c)
        assert abs(t1_bound(338.0, lam2a, 0.5) - 11.7681) <= 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"({len(cands)} candidates, {elapsed:.2f}s)")


def test_criterion_4_two_agent_closed_form():
    start = time.perf_counter()
    edge = topology_new(2, [(0, 1, 1.0)])
    for kind in (ProtocolKind.P2, ProtocolKind.P1):
        traj = integrate(
            Scenario(
                protocol=ProtocolSpec(kind, 0.5),
                topologies={"G": edge},
                topology="G",
                x0=[0.0, 1.0],
                dt=1e-4,
                t_max=2.0,
                agree_tol=1e-6,
            )
        )
        assert traj.status == "Converged"
        # analytic hitting time d0**(1-alpha) / (2 (1-alpha)) = 1
        assert abs(traj.converged_at - 1.0) <= 5e-3
        assert abs(traj.final_value - 0.5) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report(4, f"({elapsed:.2f}s)")


def test_criterion_5_bound_dominance_fuzz(fuzz_corpus):
    for run in fuzz_corpus:
        assert run.traj_p1.status == "Converged", (run.alpha, run.topology.edges())
        assert run.traj_p1.converged_at <= run.bounds.t1
        assert run.traj_p2.status == "Converged"
        assert run.traj_p2.converged_at <= run.bounds.t2
        assert abs(run.traj_p2.final_value - run.x0.mean()) <= 10 * run.agree_tol
    report(5, f"({len(fuzz_corpus)} graphs, both protocols)")


def test_criterion_6_lyapunov_properties(fuzz_corpus):
    negative_control_failed = False
    for run in fuzz_corpus:
        b = run.bounds
        vs1 = run.traj_p1.v1
        assert np.all(vs1[1:] <= vs1[:-1] + 1e-9 * b.v1_0)
        vs2 = run.traj_p2.v2
        assert np.all(vs2[1:] <= vs2[:-1] + 1e-9 * b.v2_0)

        k1 = k1_constant(b.lambda2_A, run.alpha)
        k2 = k2_constant(b.lambda2_B, run.alpha)
        assert verify_envelope(run.traj_p1, b.v1_0, k1, run.alpha, "v1").passed
        assert verify_envelope(run.traj_p2, b.v2_0, k2, run.alpha, "v2").passed
        if not verify_envelope(
            run.traj_p1, b.v1_0, 2.0 * k1, run.alpha, "v1"
        ).passed:
            negative_control_failed = True
    assert negative_control_failed
    report(6, "(monotone decay, envelopes, negative control)")


def test_criterion_7_conservation(fuzz_corpus):
    worst = 0.0
    for run in fuzz_corpus:
        drift = conservation_drift(run.traj_p2)
        budget = 1e-9 * (1.0 + abs(run.x0.sum()))
        assert drift <= budget
        worst = max(worst, drift)
    # switching schedules conserve the sum too
    rng = np.random.default_rng(13579)
    for _ in range(10):
        tops = {
            "A": random_connected_topology(rng, 5),
            "B": random_connected_topology(rng, 5),
            "C": random_connected_topology(rng, 5),
        }
        x0 = rng.uniform(-10, 10, 5)
        sc = Scenario(
            protocol=ProtocolSpec(ProtocolKind.P2, 0.5),
            topologies=tops,
            schedule=SwitchingSchedule(
                phases=(("A", 0.25), ("B", 0.25), ("C", 0.25)), cyclic=True
            ),
            x0=x0,
            dt=1e-3,
            t_max=60.0,
            agree_tol=1e-4,
        )
        traj = integrate(sc)
        assert conservation_drift(traj) <= 1e-9 * (1.0 + abs(x0.sum()))
    report(7, f"(max drift {worst:.2e})")


def test_criterion_8_switching_reproduction():
    graphs = {
        "G1": path_topology(6, 2.0),
        "G2": cycle_topology(6, 2.0),
        "G3": complete_topology(6, 2.0),
        "G4": topology_new(6, [(0, i, 2.0) for i in range(1, 6)]),  # star
    }
    assert all(is_connected(t) for t in graphs.values())
    alpha = 0.5
    lam_min = min(
        algebraic_connectivity(exponent_transform(t, alpha)) for t in graphs.values()
    )
    bound = t3_bound(v2(X0_SIX), lam_min, alpha)
    sc = Scenario(
        protocol=ProtocolSpec(ProtocolKind.P2, alpha),
        topologies=graphs,
        schedule=SwitchingSchedule(
            phases=tuple((name, 0.25) for name in ("G1", "G2", "G3", "G4")),
            cyclic=True,
        ),
        x0=X0_SIX,
        dt=1e-3,
        t_max=1.2 * bound,
        agree_tol=1e-4,
    )
    traj = integrate(sc)
    assert traj.status == "Converged"
    assert traj.converged_at <= bound
    assert abs(traj.final_value - X0_SIX.mean()) <= 10 * sc.agree_tol
    report(8, f"(converged at {traj.converged_at:.3f} <= t3 {bound:.3f})")


def test_criterion_9_spectral_oracles():
    for n in range(3, 9):
        assert algebraic_connectivity(path_topology(n)) == pytest.approx(
            2.0 * (1.0 - math.cos(math.pi / n)), abs=1e-8
        )
        assert algebraic_connectivity(cycle_topology(n)) == pytest.approx(
            2.0 * (1.0 - math.cos(2.0 * math.pi / n)), abs=1e-8
        )
        assert algebraic_connectivity(complete_topology(n)) == pytest.approx(
            float(n), abs=1e-8
        )
    rng = np.random.default_rng(24680)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        t = random_topology(rng, n, p=rng.uniform(0.1, 0.9))
        ev = eigenvalues_symmetric(laplacian(t)).eigenvalues
        tr = float(np.trace(laplacian(t)))
        assert abs(ev.sum() - tr) <= 1e-9 * max(1.0, abs(tr))
        assert (algebraic_connectivity(t) > 1e-9) == is_connected(t)
    report(9, "(closed forms, traces, connectivity equivalence)")


def test_criterion_10_power_sum_inequality():
    assert lemma1_constant(6, 0.75) == 1.0
    rng = np.random.default_rng(11223344)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        y = rng.uniform(0.0, 10.0, n)
        p = float(rng.choice([0.3, 0.75, 1.0, 2.0, 3.0]))
        lhs = float((y ** p).sum())
        rhs = lemma1_constant(n, p) * float(y.sum()) ** p
        assert lhs >= rhs - 1e-9 * max(1.0, rhs)
    report(10, "(1000 vectors, 5 exponents)")
