"""Closed-form Lyapunov quantities and convergence-time upper bounds.

The bound functions take scalars (initial Lyapunov value, algebraic
connectivity) rather than topologies, so the same code serves fixed
graphs, switching schedules, and literature-value reproduction.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DisconnectedTopology, NumericalBlowup, ValidationError
from .graph import Topology, exponent_transform, is_connected
from .protocols import ProtocolKind
from .spectral import algebraic_connectivity


@dataclass(frozen=True)
class BoundsReport:
    v1_0: float
    v2_0: float
    lambda2_A: float
    lambda2_B: float
    lambda_min: float  # min lambda2_B over the referenced topologies; t3 uses it
    t1: float
    t2: float
    t3: float
    t1_limit_alpha0: float
    alpha: float


def lemma1_constant(n: int, p: float) -> float:
    """m(n, p) = min(n**(1-p), 1), the power-sum inequality constant.

    For any nonnegative y: sum(y_i**p) >= m(n, p) * (sum(y_i))**p.
    """
    if not (n >= 1 and p > 0):
        raise ValidationError(f"need n >= 1 and p > 0, got n={n}, p={p}")
    return min(float(n) ** (1.0 - p), 1.0)


def v1(t: Topology, x):
    """Edge-energy Lyapunov value: half the weighted sum of squared state
    differences over the edges (half the Laplacian quadratic form). A float
    for a state; for an m×n stack, each row's value, bit for bit as its own
    1-D call (sums run along C-ordered rows; x[:, j] would sum in F order)."""
    x = np.asarray(x, dtype=float, order="C")
    if x.ndim > 2 or x.shape[-1:] != (t.n,):
        raise ValidationError(f"state has shape {x.shape}, topology has n={t.n}")
    d = x.take(t.j, axis=-1) - x.take(t.i, axis=-1)
    v = (t.w * d * d).sum(axis=-1) / 2.0
    return float(v) if v.ndim == 0 else v


def v2(x):
    """Disagreement energy: half the squared norm of x minus its mean; of
    a state or of each row of a stack, as v1."""
    x = np.asarray(x, dtype=float, order="C")
    if not 1 <= x.ndim <= 2 or x.shape[-1] < 1:
        raise ValidationError("state must be a nonempty vector")
    d = x - x.mean(axis=-1, keepdims=True)
    v = 0.5 * (d * d).sum(axis=-1)
    return float(v) if v.ndim == 0 else v


def _check_bound_args(v_0: Optional[float], lam2: Optional[float], alpha: Optional[float],
                      K: Optional[float] = None) -> None:
    # Each check is written so that NaN fails it.
    if v_0 is not None and not 0.0 <= v_0 < math.inf:
        raise ValidationError(f"initial Lyapunov value must be finite and >= 0, got {v_0}")
    if lam2 is not None and not lam2 > 0:
        # A NaN is a bad argument, not a disconnected graph.
        error = ValidationError if math.isnan(lam2) else DisconnectedTopology
        raise error(f"algebraic connectivity must be > 0, got {lam2}")
    if K is not None and not 0.0 < K < math.inf:
        raise ValidationError(f"decay constant K must be finite and > 0, got {K}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")


def _settling_time(v_0: float, log_K: float, alpha: float) -> float:
    """v_0**q/(qK), q = (1-alpha)/2: when dV/dt <= -K V**(1-q) brings V to zero.

    It takes log K, so a K past the largest double still gives a bound."""
    _check_bound_args(v_0, None, None)
    if v_0 == 0.0:
        return 0.0
    q = (1.0 - alpha) / 2.0
    log_t = q * math.log(v_0) - math.log(q) - log_K
    try:
        return math.exp(log_t)
    except OverflowError:
        raise NumericalBlowup(
            f"time bound {v_0}**{q}/({q}*exp({log_K})) does not fit in a double") from None


def t1_bound(v1_0: float, lambda2_A: float, alpha: float) -> float:
    """Convergence-time upper bound for protocol 1: settling time at K1."""
    _check_bound_args(None, lambda2_A, alpha)
    log_k1 = (1.0 + alpha) / 2.0 * (math.log(2.0) + math.log(lambda2_A))
    return _settling_time(v1_0, log_k1, alpha)


def t1_limit_alpha0(v1_0: float, lambda2_A: float) -> float:
    """alpha -> 0 limit of the protocol-1 bound: sqrt(2 V1(0) / lam2), at K = sqrt(2 lam2)."""
    _check_bound_args(None, lambda2_A, None)
    return _settling_time(v1_0, (math.log(2.0) + math.log(lambda2_A)) / 2.0, 0.0)


def t2_bound(v2_0: float, lambda2_B: float, alpha: float) -> float:
    """Convergence-time upper bound for protocol 2 (average agreement): settling time at K2.

    lambda2_B is the algebraic connectivity of the exponent-transformed
    graph, b_ij = a_ij**(2/(1+alpha)).
    """
    _check_bound_args(None, lambda2_B, alpha)
    log_k2 = alpha * math.log(2.0) + (1.0 + alpha) / 2.0 * math.log(lambda2_B)
    return _settling_time(v2_0, log_k2, alpha)


def t3_bound(v2_0: float, lambda_min: float, alpha: float) -> float:
    """Switching-topology bound: the protocol-2 formula with the minimum
    transformed connectivity over all scheduled graphs."""
    return t2_bound(v2_0, lambda_min, alpha)


def scenario_bounds(sc) -> BoundsReport:
    """Spectral quantities and the closed-form time bounds of a Scenario.

    t1 and t2 are taken at the first referenced topology; t3 uses the
    minimum transformed connectivity over the referenced topologies (the
    first alone for a fixed topology). All of them must be connected, and
    every lam2 must come out positive.
    """
    alpha = sc.protocol.alpha
    if sc.protocol.kind is ProtocolKind.LINEAR:
        raise ValidationError("time bounds require a nonlinear protocol with alpha in (0,1)")
    if sc.x0.size < 2:
        # A single agent has no algebraic connectivity to print (it is +inf).
        raise ValidationError("time bounds need at least two agents")
    # Each distinct topology once, in the order of its first phase.
    referenced = list(dict.fromkeys(name for name, _ in sc.phases))
    for name in referenced:
        if not is_connected(sc.topologies[name]):
            raise DisconnectedTopology(f"topology {name!r} is not connected")

    base = sc.topologies[referenced[0]]
    lam2_a = _resolved_connectivity(base, referenced[0], "L_A")
    v1_0 = v1(base, sc.x0)
    # t1 comes before the transformed spectra, so a t1 past the double
    # range is reported also where a transformed weight underflows.
    t1 = t1_bound(v1_0, lam2_a, alpha)
    lam2_b = [
        _resolved_connectivity(exponent_transform(sc.topologies[name], alpha), name, "L_B")
        for name in referenced
    ]
    v2_0 = v2(sc.x0)
    t2 = t2_bound(v2_0, lam2_b[0], alpha)
    lam_min = min(lam2_b)
    t3 = t3_bound(v2_0, lam_min, alpha)
    t1_limit = t1_limit_alpha0(v1_0, lam2_a)
    return BoundsReport(v1_0, v2_0, lam2_a, lam2_b[0], lam_min, t1, t2, t3, t1_limit, alpha)


def _resolved_connectivity(t: Topology, name: str, laplacian: str) -> float:
    """lam2 of a connected topology, refused when a double does not resolve it."""
    lam2 = algebraic_connectivity(t)
    if not lam2 > 0:
        # A transformed weight underflowed to zero, or lam2 lies below the
        # eigensolver's resolution of about 1e-16 times the largest eigenvalue.
        raise NumericalBlowup(
            f"topology {name!r} is connected, but lambda2 of its {laplacian} comes out as"
            f" {lam2}: too small for a double to resolve")
    return lam2


def k1_constant(lambda2_A: float, alpha: float) -> float:
    """Decay constant for the protocol-1 envelope: (2 lam2)**((1+alpha)/2),
    taken as 2**p * lam2**p: 2 lam2 can overflow where K1 does not."""
    return _decay_constant((1.0 + alpha) / 2.0, lambda2_A, alpha)


def k2_constant(lambda2_B: float, alpha: float) -> float:
    """Decay constant for the protocol-2 envelope: 2**alpha * lam2B**((1+alpha)/2)."""
    return _decay_constant(alpha, lambda2_B, alpha)


def _decay_constant(e: float, lam2: float, alpha: float) -> float:
    """2**e * lam2**((1+alpha)/2), refused where it does not fit in a double."""
    _check_bound_args(None, lam2, alpha)
    K = 2.0 ** e * lam2 ** ((1.0 + alpha) / 2.0)
    if not math.isfinite(K):
        raise NumericalBlowup(f"decay constant at lambda2 = {lam2} does not fit in a double")
    return K


def envelope(v_0: float, K: float, alpha: float, t):
    """Lyapunov decay envelope (v_0**q - K q t)**(1/q), q = (1-alpha)/2,
    clamped at zero. A float for a float t, an array for an array of times.

    The base is clamped before exponentiation: the analytic bound is only
    stated before the hitting time, and clamping extends it continuously
    by zero afterwards. It is evaluated as v_0 * (1 - K q t / v_0**q)**(1/q),
    whose base lies in [0, 1], so the power cannot overflow.
    """
    _check_bound_args(v_0, None, alpha, K)
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValidationError("time must be >= 0")
    q = (1.0 - alpha) / 2.0
    # K q t may overflow (to inf), and v_0 = 0 divides by zero: fmax maps
    # the -inf and the nan of 0/0 to a base of zero.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        base = np.fmax(1.0 - K * q * t / v_0 ** q, 0.0)
    v = v_0 * np.power(base, 1.0 / q)
    return float(v) if v.ndim == 0 else v
