"""Agreement-protocol vector fields.

Two nonlinear protocols plus the linear baseline:

  P1:     u_i = sig(sum_j a_ij (x_j - x_i), alpha)
  P2:     u_i = sum_j a_ij sig(x_j - x_i, alpha)
  Linear: u_i = sum_j a_ij (x_j - x_i)          (alpha = 1)

where sig(r, alpha) = sign(r) |r|**alpha. Every sum runs over the edges
of the topology, so one evaluation costs O(|E|).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .graph import Topology


class ProtocolKind(str, Enum):
    P1 = "p1"
    P2 = "p2"
    LINEAR = "linear"


@dataclass(frozen=True)
class ProtocolSpec:
    kind: ProtocolKind
    alpha: float = 1.0

    def __post_init__(self):
        try:
            # Frozen: store the member, so "p2" and ProtocolKind.P2 select one field.
            object.__setattr__(self, "kind", ProtocolKind(self.kind))
        except ValueError:
            raise ValidationError(f"unknown protocol kind {self.kind!r}") from None
        if self.kind is ProtocolKind.LINEAR:
            if self.alpha != 1.0:
                raise ValidationError("linear protocol requires alpha == 1")
        elif not 0.0 < self.alpha < 1.0:
            # alpha = 0 gives discontinuous dynamics; alpha = 1 is Linear.
            raise ValidationError(
                f"{self.kind.value} requires alpha in (0,1), got {self.alpha}"
            )


def edge_field(spec: ProtocolSpec, i, j, w, n):
    """The vector field x -> u of protocol spec on the edge list (i, j, w)
    of n vertices.

    This is the only place the formulas are written. Edge (i, j) adds
    f = w * d to u_i and -f to u_j, where d = x_j - x_i, or sig(d) under
    P2. Under P1, sig is then applied to u. The map checks nothing.
    """
    alpha = spec.alpha
    sig_edges = spec.kind is ProtocolKind.P2
    sig_vertices = spec.kind is ProtocolKind.P1
    if not len(i):  # bincount of no edges gives integer zeros
        return lambda x: np.zeros(n)
    # RK4 calls u four times a step, on small arrays, so u looks up no
    # globals and calls no helpers.
    bincount, copysign, absolute = np.bincount, np.copysign, np.abs

    def u(x):
        d = x[j] - x[i]
        if sig_edges:
            # sig(d): the power of |d|, then the sign of d, so sig(-d) is
            # -sig(d) bit for bit, which keeps P2's state sum to roundoff.
            d = copysign(absolute(d) ** alpha, d)
        f = w * d
        # The pair is exactly antisymmetric, so P2 and linear conserve the
        # sum to roundoff, and a constant state gives an exact zero.
        s = bincount(i, f, n) - bincount(j, f, n)
        if sig_vertices:
            s = copysign(absolute(s) ** alpha, s)
        return s

    return u


def field(spec: ProtocolSpec, t: Topology, x) -> np.ndarray:
    """The vector field selected by spec, at x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (t.n,):
        raise ValidationError(f"state has shape {x.shape}, topology has n={t.n}")
    return edge_field(spec, t.i, t.j, t.w, t.n)(x)
