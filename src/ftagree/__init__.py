"""Finite-time state agreement for multi-agent systems.

Library + CLI: two nonlinear consensus protocols with finite settling
time, closed-form convergence bounds, a switching-topology RK4
simulator, and tooling that reproduces the published six-agent example.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundsReport,
    envelope,
    k1_constant,
    k2_constant,
    lemma1_constant,
    scenario_bounds,
    t1_bound,
    t1_limit_alpha0,
    t2_bound,
    t3_bound,
    v1,
    v2,
)
from .engine import (
    Sample,
    Scenario,
    SwitchingSchedule,
    Trajectory,
    conservation_drift,
    integrate,
    integrate_batch,
    verify_envelope,
)
from .graph import (
    Topology,
    complete_topology,
    cycle_topology,
    exponent_transform,
    is_connected,
    laplacian,
    path_topology,
    topology_new,
)
from .protocols import (
    ProtocolKind,
    ProtocolSpec,
    field,
    sig,
)
from .reconstruct import reconstruct_paper_graph
from .scenario import parse_scenario, render_scenario
from .spectral import (
    SpectrumResult,
    algebraic_connectivity,
    eigenvalues_symmetric,
)

# The submodules stay out, so `import *` rebinds no caller's `graph`.
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
__version__ = "0.1.0"
