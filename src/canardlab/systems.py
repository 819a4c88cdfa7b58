"""Canonical planar fast-slow systems with canard points.

Three model systems, each a planar vector field with a non-hyperbolic
singularity at the origin through which a maximal canard can pass:

    transcritical   x' = x^2 - y^2 + eps     y' = eps
    pitchfork       x' = x(y - x^2)          y' = eps
    fold            x' = x^2 - y             y' = eps * x

with time-scale separation 0 < eps << 1.  Higher-order terms of the general
canonical forms act locally as small perturbations and are dropped; the
unfolding parameter is fixed at its canard value (1 for the transcritical,
0 for the others).

Sign convention for the fold: the fast equation is written x' = x^2 - y
throughout, so the critical set is the parabola y = x^2 with the attracting
branch at x < 0.

This module also carries the fold-specific structural facts used downstream:
the slow-subsystem gap of explicit one-step maps (no discrete singular canard
exists) and the conserved quantity of the fold flow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .precision import PrecisionContext


class SingularityKind(enum.Enum):
    TRANSCRITICAL = "transcritical"
    PITCHFORK = "pitchfork"
    FOLD = "fold"


class NoCanard(ValueError):
    """No discrete canard trajectory exists for this scheme/singularity pair."""


@dataclass(frozen=True)
class SystemParams:
    """Parameters of a discretized fast-slow system.

    epsilon is the time-scale separation, h the discretization step, and a
    the parameter of the symmetric implicit family (pitchfork only; the
    member a = -1/2 is the Kahan method).  Analysis operations require
    epsilon > 0; the one-step maps also accept epsilon = 0 for layer-problem
    experiments.
    """

    ctx: PrecisionContext
    epsilon: object
    h: object
    a: Optional[object] = None

    @classmethod
    def create(cls, ctx: PrecisionContext, epsilon, h, a=None) -> "SystemParams":
        """Build params, parsing decimal strings exactly at ctx precision.

        Rejects a non-finite epsilon, h or a with a ValueError naming it.
        """
        eps = ctx.mpf(epsilon)
        hh = ctx.mpf(h)
        aa = None if a is None else ctx.mpf(a)
        for name, value, given in (("eps", eps, epsilon), ("h", hh, h), ("a", aa, a)):
            if value is not None and not ctx.isfinite(value):
                raise ValueError(f"{name} must be finite, got {given!r}")
        if not eps >= 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
        if not hh > 0:
            raise ValueError(f"step size h must be > 0, got {h!r}")
        return cls(ctx=ctx, epsilon=eps, h=hh, a=aa)


@dataclass(frozen=True)
class PlanarPoint:
    x: object
    y: object

    def __iter__(self):
        yield self.x
        yield self.y


def vector_field(kind: SingularityKind, params: SystemParams, p: PlanarPoint) -> PlanarPoint:
    """Velocity (x', y') of the canonical system at p."""
    x, y = p.x, p.y
    eps = params.epsilon
    if kind is SingularityKind.TRANSCRITICAL:
        return PlanarPoint(x * x - y * y + eps, eps)
    if kind is SingularityKind.PITCHFORK:
        return PlanarPoint(x * (y - x * x), eps)
    if kind is SingularityKind.FOLD:
        return PlanarPoint(x * x - y, eps * x)
    raise ValueError(f"unknown singularity kind: {kind!r}")


def fold_kahan_parabola_offset(params: SystemParams):
    """Offset c with y = x^2 - c invariant under the fold Kahan map.

    c = eps/2 + eps^2 h^2 / 8.
    """
    eps, h = params.epsilon, params.h
    return eps / 2 + eps * eps * h * h / 8


def fold_slow_solutions(x, h) -> Optional[tuple]:
    """Slow-subsystem update candidates of the discretized fold at position x.

    The reduced equation on the critical parabola reads xnew^2 = x^2 + x*h,
    solvable iff x^2 + x*h >= 0, i.e. x outside the open gap (-h, 0).
    Returns the pair (-sqrt, +sqrt) when defined, None on the gap.  Both
    solutions fix x = 0, so the slow motion stalls at the fold point instead
    of crossing it.
    """
    val = x * x + x * h
    if val < 0:
        return None
    root = val.context.sqrt(val)
    return (-root, root)


def fold_first_integral(p: PlanarPoint, epsilon):
    """Conserved quantity H of the fold flow.

    H(x, y) = (1/2) exp(-2y/eps) (y - x^2 + eps/2); it vanishes exactly on
    the invariant parabola y = x^2 - eps/2, which carries the flow's canard.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    x, y = p.x, p.y
    ctx = y.context
    return ctx.exp(-2 * y / epsilon) * (y - x * x + epsilon / 2) / 2


def fold_rk_reduced_gap(tableau, x, h) -> bool:
    """Whether the reduced slow map of an explicit scheme is defined at x.

    For any explicit tableau with s >= 2 stages the second-stage square root
    requires x^2 + h*a21*x >= 0; the solutions are undefined exactly on the
    open gap x in (-h*a21, 0).  Returns True iff the map is well defined.
    """
    if tableau.s < 2:
        raise ValueError("reduced-map gap is defined for tableaux with at least 2 stages")
    frac = tableau.a[1][0]
    a21 = x.context.mpf(frac.numerator) / frac.denominator
    return x * x + h * a21 * x >= 0
