"""Agreement-protocol vector fields.

Two nonlinear protocols plus the linear baseline:

  P1:     u_i = sig(sum_j a_ij (x_j - x_i), alpha)
  P2:     u_i = sum_j a_ij sig(x_j - x_i, alpha)
  Linear: u_i = sum_j a_ij (x_j - x_i)          (alpha = 1)

Every sum runs over the edges of the topology, so one evaluation costs
O(|E|).
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import AlphaOutOfRange, DimensionMismatch, DisconnectedTopology
from .graph import Topology, is_connected


class ProtocolKind(str, Enum):
    P1 = "p1"
    P2 = "p2"
    LINEAR = "linear"


@dataclass(frozen=True)
class ProtocolSpec:
    kind: ProtocolKind
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind is ProtocolKind.LINEAR:
            if self.alpha != 1.0:
                raise AlphaOutOfRange("linear protocol requires alpha == 1")
        elif not 0.0 < self.alpha < 1.0:
            # alpha = 0 gives discontinuous dynamics; alpha = 1 is Linear.
            raise AlphaOutOfRange(
                f"{self.kind.value} requires alpha in (0,1), got {self.alpha}"
            )

    def rhs(self, t: Topology) -> Callable[[np.ndarray], np.ndarray]:
        """The vector field x -> u on t, with t's edge arrays bound once.

        The returned map checks nothing: x must be a float vector of
        length t.n. This is the only place the formulas are written.
        """
        i, j, w, n = t.i, t.j, t.w, t.n
        alpha = self.alpha

        def edge_sum(f):
            # Edge (i, j) adds f to u_i and -f to u_j: the pair is exactly
            # antisymmetric, so P2 and linear conserve the sum to roundoff,
            # and a constant state (f = 0 on every edge) gives an exact zero.
            return np.bincount(i, f, n) - np.bincount(j, f, n)

        if self.kind is ProtocolKind.P1:
            def u(x):
                return _sig(edge_sum(w * (x[j] - x[i])), alpha)
        elif self.kind is ProtocolKind.P2:
            def u(x):
                return edge_sum(w * _sig(x[j] - x[i], alpha))
        else:
            def u(x):
                return edge_sum(w * (x[j] - x[i]))
        return u


def _sig(r: np.ndarray, alpha: float) -> np.ndarray:
    return np.sign(r) * np.abs(r) ** alpha


def sig(r, alpha: float):
    """sign(r) * |r|**alpha, exactly odd, exactly zero at r = 0.

    Works on scalars and arrays. Computing the power on |r| and applying
    the sign afterwards keeps sig(-r) == -sig(r) bit-exactly, which is
    what preserves the P2 state-sum to roundoff.
    """
    if not 0.0 < alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must be in (0,1], got {alpha}")
    out = _sig(np.asarray(r, dtype=float), alpha)
    return out if out.ndim else float(out)


def _check_dims(t: Topology, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (t.n,):
        raise DimensionMismatch(f"state has shape {x.shape}, topology has n={t.n}")
    return x


def protocol1_field(t: Topology, x, alpha: float) -> np.ndarray:
    """P1 velocities: the sig nonlinearity wraps each aggregated sum."""
    return ProtocolSpec(ProtocolKind.P1, alpha).rhs(t)(_check_dims(t, x))


def protocol2_field(t: Topology, x, alpha: float) -> np.ndarray:
    """P2 velocities: sig applied per edge, then weighted-summed."""
    return ProtocolSpec(ProtocolKind.P2, alpha).rhs(t)(_check_dims(t, x))


def linear_field(t: Topology, x) -> np.ndarray:
    """Linear baseline u = -L(A) x."""
    return ProtocolSpec(ProtocolKind.LINEAR).rhs(t)(_check_dims(t, x))


def field(spec: ProtocolSpec, t: Topology, x) -> np.ndarray:
    """The vector field selected by spec, at x."""
    return spec.rhs(t)(_check_dims(t, x))


def is_equilibrium(t: Topology, x, p: ProtocolSpec, tol: float) -> bool:
    """Whether the vector field vanishes (inf-norm <= tol) at x.

    Only meaningful on connected graphs, where the equilibria are exactly
    the agreement states; disconnected input is refused so the result is
    never misread as agreement.
    """
    if not is_connected(t):
        raise DisconnectedTopology("equilibrium test requires a connected graph")
    u = field(p, t, x)
    return float(np.abs(u).max()) <= tol
