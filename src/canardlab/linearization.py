"""Linearization along canard trajectories, and the table of discrete maps.

scheme_map is the one place a scheme selector is dispatched on: it turns a
(kind, scheme) pair into the pair's one-step map, transversal multiplier and,
on the transcritical diagonal, deviation-coordinate step.  CANARDS holds, per
singularity kind, where the canard lies and how far an orbit is from it.

For each scheme/singularity pair the one-step map, linearized along the
canard, has a unit eigenvalue in the canard direction; the other, the
transversal multiplier J = d(xnew)/dx, governs contraction toward and
expansion away from the canard.  Closed forms:

  transcritical, explicit RK:  J(x) = 1 + h Q_s(x), Q_s = sum alpha_i dk_i from
      dk_i = 2 (x + h eps A_i) (1 + h sum_{j<i} a_ij dk_j), a polynomial in x, h, eps
  transcritical, Kahan:        J(x) = (1 - h^2 x (x + eps h) + eps h^2) / (1 - h x)^2
                                      = (1 + eps h^2 + h x) / (1 - h x)
  pitchfork, explicit RK:      J(y) = 1 + h R_s(y), same recursion with the
      stage factor (y + h eps A_i) in place of 2(x + h eps A_i)
  pitchfork, implicit family:  J(y) = (1 + (h/2) y + h^2 (1-2a) eps/4)
                                      / (1 - (h/2) y - h^2 (1+2a) eps/4)
  fold, Kahan:                 J(x) = (-h^2 x^2 + (1 + h^2 eps/4)^2)
                                      / (1 - h x + h^2 eps/4)^2
                                      = (q + h x) / (q - h x),  q = 1 + h^2 eps/4

The Kahan/implicit factors are one Moebius map (A + g s)/(B - g s) of the
canard position s, evaluated in that reduced form, and satisfy the exact
pairing J(c+d) J(c-d) = 1 about the symmetry center c = (B - A)/2g (-eps h/2
on the lines, 0 on the fold parabola), which is what makes the delayed loss
of stability symmetric for those schemes.

The one-step maps and the multipliers are kernels on mantissa pairs (see
rounding), built once per orbit, rounding every operation like the mpf
expression they replace, but for the explicit-RK multiplier and q_s: they
evaluate ButcherTableau.critical_polynomial exactly and round the value once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from math import inf, ldexp
from typing import Callable, Optional, Union

from .roots import _critical_terms, _exact_sum, _exact_value
from .rounding import add, div, le_product, mul, pack, scaler, split, sub
from .schemes import (
    ButcherTableau,
    PoleError,
    _ONE,
    afamily_kernel,
    euler_deviation_kernel,
    euler_kernel,
    kahan_deviation_kernel,
    kahan_fold_kernel,
    kahan_transcritical_kernel,
    rk_deviation_kernel,
    rk_kernel,
)
from .systems import NoCanard, PlanarPoint, SingularityKind, SystemParams, fold_kahan_parabola_offset

#: Scheme selector for the Kahan map (transcritical and fold closed forms;
#: for the pitchfork it is routed to the implicit family with a = -1/2).
KAHAN = "kahan"


@dataclass(frozen=True)
class AFamily:
    """Selector for the symmetric implicit family member with parameter a."""

    a: object


SchemeSelector = Union[ButcherTableau, str, AFamily]


@dataclass(frozen=True)
class SchemeMap:
    """The discrete map of one (kind, scheme) pair, as built by scheme_map.

    step(x, y), built by build() on first use, advances the mantissa pairs (see
    rounding) of a point by one step; factor(s) is the transversal multiplier
    at the pair s of a canard position, as a pair (None without a canard);
    deviation_step(u, y), on the transcritical diagonal only, advances the
    pairs of the deviation u = x - y and the slow coordinate y in deviation
    coordinates (on the pitchfork line the deviation is x itself, so step
    already is its deviation map); deviation_ratio() encloses its u'/u - 1
    (see _out and _rk_ratio).
    """

    build: Callable
    factor: Optional[Callable] = None
    deviation_step: Optional[Callable] = None
    deviation_ratio: Optional[Callable] = None

    @cached_property
    def step(self):
        return self.build()


def scheme_map(
    kind: SingularityKind,
    scheme: SchemeSelector,
    params: SystemParams,
    canard: bool = True,
) -> SchemeMap:
    """Resolve a (kind, scheme) pair into its SchemeMap, once, outside any loop.

    Forward Euler on the fold has a one-step map but no canard: it raises
    NoCanard unless canard=False, which asks for the one-step map only.
    Every other pair without a map raises ValueError.
    """
    ctx = params.ctx
    diagonal = kind is SingularityKind.TRANSCRITICAL
    if isinstance(scheme, ButcherTableau) and kind is not SingularityKind.FOLD:
        @cache
        def folded():  # 1 + h Q_s exactly, in rho = -s, at the first call (orbits make none)
            h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
            rhos, den = _critical_terms(scheme, 2 if diagonal else 1, True, h, eps)
            return [_exact_sum(terms) for terms in rhos], (den, 0)

        def factor(s):  # the exact value, rounded once
            p, den = folded()
            return div(_exact_value(p, (-s[0], s[1])), den, ctx.prec)

        if scheme.s == 1:
            step = partial(euler_kernel, kind, params)
            deviation_step = euler_deviation_kernel(params) if diagonal else None
        else:
            step = partial(rk_kernel, scheme, kind, params)
            deviation_step = rk_deviation_kernel(scheme, params) if diagonal else None
        return SchemeMap(step, factor, deviation_step, partial(_rk_ratio, scheme, params) if diagonal else None)
    if scheme == KAHAN and diagonal:
        return SchemeMap(partial(kahan_transcritical_kernel, params), _moebius_multiplier(kind, params),
                         kahan_deviation_kernel(params), partial(_kahan_ratio, params))
    if scheme == KAHAN and kind is SingularityKind.FOLD:
        return SchemeMap(partial(kahan_fold_kernel, params), _moebius_multiplier(kind, params))
    if kind is SingularityKind.PITCHFORK and (scheme == KAHAN or isinstance(scheme, AFamily)):
        a = ctx.mpf(-1) / 2 if scheme == KAHAN else ctx.mpf(scheme.a)
        return SchemeMap(partial(afamily_kernel, a, params), _moebius_multiplier(kind, params, a))
    if isinstance(scheme, ButcherTableau):  # on the fold
        if canard:
            raise NoCanard(
                f"the explicit RK scheme {scheme.name!r} has no canard on the fold: "
                "the reduced slow map of an explicit one-step map is undefined on a gap"
            )
        if scheme.s == 1:
            return SchemeMap(partial(euler_kernel, kind, params))
        raise ValueError(
            "explicit RK steps are provided for the transcritical and pitchfork systems, "
            f"not for the fold (tableau {scheme.name!r})"
        )
    if isinstance(scheme, AFamily):
        raise ValueError(
            f"the afamily scheme is defined for the pitchfork system only, not for the {kind.value}"
        )
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Enclosures of the deviation step ratio
# ---------------------------------------------------------------------------


def _out(lo, hi):
    """(lo, hi) widened outward for a float operation and its mpf rounding (prec >= 53 bits).

    A deviation kernel's enclosure bounds its computed u'/u - 1 by running its mpf
    expression on float intervals, each operation widened here.  Rounding to nearest is
    monotone, so lo - |lo| 2**-50 - 2**-1073 lies at or below two nextafter steps down
    from lo, for subnormals and 0 too (Rump, Zimmermann, Boldo and Melquiond, BIT 49,
    2009).  Bounds that are not finite, or a divisor holding 0, raise an ArithmeticError.
    """
    lo, hi = lo - abs(lo) * 2.0 ** -50 - 2.0 ** -1073, hi + abs(hi) * 2.0 ** -50 + 2.0 ** -1073
    if not -inf < lo <= hi < inf:
        raise OverflowError("enclosure is not finite")
    return lo, hi


def _iadd(a, b):
    return _out(a[0] + b[0], a[1] + b[1])


def _imul(a, b):
    """a b from the two corner products that bound it, or four where both operands hold 0 inside."""
    (al, ah), (bl, bh) = a, b
    if al >= 0:
        return _out(al * bl if bl >= 0 else ah * bl, ah * bh if bh >= 0 else al * bh)
    if ah <= 0:
        return _out(al * bh if bh >= 0 else ah * bh, al * bl if bl <= 0 else ah * bl)
    if bl >= 0 or bh <= 0:
        return _imul(b, a)
    return _out(min(al * bh, ah * bl), max(al * bl, ah * bh))


def enclose(p):
    """A float interval holding the pair p; OverflowError beyond the float range."""
    n = max(abs(p[0]).bit_length() - 53, 0)  # p[0] >> n floors it
    return _out(ldexp(p[0] >> n, p[1] + n), ldexp((p[0] >> n) + (n > 0), p[1] + n))


def _less_one(p, tiny):
    """u (1 + p) / u - 1 with 1 + p and the product rounded: p + (1 + p) d, |d| < tiny."""
    lo, hi = p
    return _out(lo - tiny * (1.0 + abs(lo)), hi + tiny * (1.0 + abs(hi)))


def _rk_ratio(tableau: ButcherTableau, params: SystemParams):
    """(enclosure, once): enclosure(y, u) bounds the deviation step's u'/u - 1 (see _out).

    rk_deviation_kernel's u + h sum_i alpha_i d_i has stage slopes d_i = u r_i s_i,
    r_i = 1 + sum_j (h a_ij) r_j s_j (r_1 = 1), s_i = 2y + u + sum_j (h a_ij) (d_j + 2 eps).
    euler_deviation_kernel's u (1 + h (2y + u)) holds u once (once is True), so its
    enclosure over an interval of u is the hull of those over the interval's pieces.
    """
    alpha, rows = tableau.pairs(params.ctx)
    h, eps = (enclose(split(v._mpf_)) for v in (params.h, params.epsilon))
    tiny = ldexp(1.0, 2 - params.ctx.prec)
    if tableau.s == 1:
        return (lambda y, u: _less_one(_imul(h, _out(2 * y[0] + u[0], 2 * y[1] + u[1])), tiny)), True
    two_eps = (2 * eps[0], 2 * eps[1])
    plan = [[(j, _imul(h, enclose(a))) for j, a in enumerate(row) if a[0]] for row in rows[1:]]
    (i0, a0), *weights = [(i, enclose(a)) for i, a in enumerate(alpha) if a[0]]

    def ratio(y, u):
        s0 = _iadd((2 * y[0], 2 * y[1]), u)
        ds = [_out(*s0)]
        for entries in plan:
            r, s = (1.0, 1.0), s0
            for j, ha in entries:
                r = _iadd(r, _imul(ha, ds[j]))
                s = _iadd(s, _imul(ha, _iadd(_imul(u, ds[j]), two_eps)))
            ds.append(_imul(r, s))
        du = _imul(a0, ds[i0])
        for i, a in weights:
            du = _iadd(du, _imul(a, ds[i]))
        return _less_one(_imul(h, du), tiny)

    return ratio, False


def _kahan_ratio(params: SystemParams):
    """(enclosure, True): (1 + h y + (h eps) h) / (1 - h (y + u)) - 1; the product with u rounds once more."""
    h, eps = (enclose(split(v._mpf_)) for v in (params.h, params.epsilon))
    num_eps, neg_h = _imul(_imul(h, eps), h), (-h[1], -h[0])

    def ratio(y, u):
        den = _iadd((1.0, 1.0), _imul(neg_h, _iadd(y, u)))
        num = _iadd(_iadd(_imul(h, y), (1.0, 1.0)), num_eps)
        lo, hi = _out(*_imul(num, _out(1 / den[1], 1 / den[0])))  # den holding 0: lo > hi
        return _out(lo - 1.0, hi - 1.0)

    return ratio, True


# ---------------------------------------------------------------------------
# Per-kind canard geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Canard:
    """Where one singularity kind's canard lies and how far an orbit is from it.

    Fields are functions of SystemParams: start(params, rho, delta) is the
    default entry beside the canard at slow position -rho, point(params, s)
    the canard point at slow position s, spacing(params) the slow advance
    per step and center(params) the centre of the pairing identity.
    deviation(params) returns (x, y) -> (u, stuck) on mantissa pairs (see
    rounding): the transversal deviation u, and whether the orbit is stuck
    on the invariant set.  That is u == 0 on the pitchfork line (the
    exact-zero rule, which deviation-coordinate orbits use too); elsewhere
    u is a difference a - b of stored values, and below
    |u| <= tol(3) max(|a|, |b|) the raw map can no longer evolve it
    faithfully (the sticky-set artifact).
    """

    start: Callable
    point: Callable
    spacing: Callable
    center: Callable
    deviation: Callable


def _exact_zero(u, y):
    """The deviation u itself, stuck only where it is exactly 0."""
    return u, not u[0]


def _glued(u, a, b, glue, prec) -> bool:
    """The sticky-set rule |u| <= glue * max(|a|, |b|) on mantissa pairs.

    Rounding is monotone, so the rounded glue * max(|a|, |b|) is the larger
    of the rounded glue * |a| and glue * |b|; rounding.le_product decides each
    from magnitudes where they lie two or more binades apart, and otherwise
    forms the product and compares exactly, as mpf arithmetic would.
    """
    return le_product(u, glue, a, prec) or le_product(u, glue, b, prec)


def _diagonal_deviation(params: SystemParams):
    prec, glue = params.ctx.prec, split(params.ctx.tol(3)._mpf_)

    def deviation(x, y):
        u = sub(x, y, prec)
        return u, _glued(u, x, y, glue, prec)

    return deviation


def _parabola_deviation(params: SystemParams):
    prec, glue = params.ctx.prec, split(params.ctx.tol(3)._mpf_)
    offset = split(fold_kahan_parabola_offset(params)._mpf_)

    def deviation(x, y):
        xx = mul(x, x, prec)
        w = sub(y, sub(xx, offset, prec), prec)
        return w, _glued(w, y, xx, glue, prec)

    return deviation


CANARDS = {
    SingularityKind.TRANSCRITICAL: Canard(
        start=lambda params, rho, delta: PlanarPoint(-rho, -rho + delta),
        point=lambda params, s: PlanarPoint(s, s),
        spacing=lambda params: params.epsilon * params.h,
        center=lambda params: -params.epsilon * params.h / 2,
        deviation=_diagonal_deviation,
    ),
    SingularityKind.PITCHFORK: Canard(
        start=lambda params, rho, delta: PlanarPoint(delta, -rho),
        point=lambda params, s: PlanarPoint(params.ctx.mpf(0), s),
        spacing=lambda params: params.epsilon * params.h,
        center=lambda params: -params.epsilon * params.h / 2,
        deviation=lambda params: _exact_zero,
    ),
    SingularityKind.FOLD: Canard(
        start=lambda params, rho, delta: PlanarPoint(
            -rho, rho * rho - fold_kahan_parabola_offset(params) + delta
        ),
        point=lambda params, s: PlanarPoint(s, s * s - fold_kahan_parabola_offset(params)),
        spacing=lambda params: params.epsilon * params.h / 2,
        center=lambda params: params.ctx.mpf(0),
        deviation=_parabola_deviation,
    ),
}


# ---------------------------------------------------------------------------
# Multipliers
# ---------------------------------------------------------------------------


def q_s(tableau: ButcherTableau, params: SystemParams, x, stage_factor=2):
    """Weighted stage-derivative sum Q_s(x) along the canard, the exact value rounded once.

    dk_i/dx = c (x + h eps A_i) (1 + h sum_{j<i} a_ij dk_j/dx), A_i = sum_j a_ij;
    Q_s(x) = sum_i alpha_i dk_i/dx, c = 2 on the transcritical diagonal and 1 on the
    pitchfork line (x is then y).  It is (P - 1)/h: the terms of P = 1 + h Q_s in h at
    rho = -x (roots._critical_terms) but the 1, each of h-degree one lower.
    """
    ctx = params.ctx
    (xm, xe), h, eps = (split(ctx.mpf(v)._mpf_) for v in (x, params.h, params.epsilon))
    hs, den = _critical_terms(tableau, stage_factor, False, (-xm, xe), eps)
    p = [_exact_sum(terms) for terms in hs[1:]]
    return ctx.make_mpf(pack(div(_exact_value(p, h), (den, 0), ctx.prec)))


def _moebius_multiplier(kind: SingularityKind, params: SystemParams, aparam=None):
    """The Kahan or implicit-family multiplier J(s) = (A + g s) / (B - g s) on pairs.

    The Kahan numerators factor as (1 + h (x + eps h)) (1 - h x) on the diagonal
    and (q + h x) (q - h x) on the fold parabola, q = 1 + h h eps/4, so one
    factor of each squared denominator cancels; the implicit family (parameter
    aparam = a, -1/2 for Kahan on the pitchfork) has this shape already.  With
    e = (h h) eps:
      transcritical:  (A, B, g) = (1 + e, 1, h)
      fold:           (A, B, g) = (q, q, h)
      pitchfork:      (A, B, g) = (1 + e (1-2a)/4, 1 - e (1+2a)/4, h/2)
    A (c_num), B (c_den) and g's scaler are formed once; a call rounds g s,
    A + g s, B - g s and their quotient, and raises PoleError where B - g s
    rounds to 0.  About c = (B - A)/2g, J(c + d) = (K + g d)/(K - g d) with
    K = (A + B)/2, so J(c + d) J(c - d) = 1 exactly in real arithmetic.
    """
    prec = params.ctx.prec
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    em, ee = mul(mul(h, h, prec), eps, prec)
    if kind is SingularityKind.TRANSCRITICAL:
        c_num, c_den, g = add(_ONE, (em, ee), prec), _ONE, h
        pole = "transcritical Kahan multiplier has a pole at x = 1/h"
    elif kind is SingularityKind.FOLD:
        c_num = c_den = add(_ONE, (em, ee - 2), prec)
        g, pole = h, "fold Kahan multiplier has a pole at x = (1 + h^2 eps/4)/h"
    else:
        am, ae = split(aparam._mpf_)
        nm, ne = mul((em, ee), sub(_ONE, (am, ae + 1), prec), prec)
        dm, de = mul((em, ee), add(_ONE, (am, ae + 1), prec), prec)
        c_num, c_den = add(_ONE, (nm, ne - 2), prec), sub(_ONE, (dm, de - 2), prec)
        g, pole = (h[0], h[1] - 1), "implicit pitchfork multiplier has a pole at this y"
    by_g = scaler(g, prec)

    def factor(s):
        gs = by_g(s)
        den = sub(c_den, gs, prec)
        if not den[0]:
            raise PoleError(pole)
        return div(add(c_num, gs, prec), den, prec)

    return factor


def _on_scalars(ctx, factor):
    """Adapt a multiplier on mantissa pairs to scalars of ctx."""
    make = ctx.make_mpf
    return lambda s: make(pack(factor(split(ctx.mpf(s)._mpf_))))


def jacobian_factor(
    kind: SingularityKind,
    scheme: SchemeSelector,
    params: SystemParams,
    s_pos,
):
    """Transversal multiplier d(xnew)/dx on the canard at slow position s_pos.

    s_pos is the canard coordinate: x (= y) on the transcritical diagonal,
    y on the pitchfork line, x on the fold parabola.
    """
    return _on_scalars(params.ctx, scheme_map(kind, scheme, params).factor)(s_pos)


def _entry_offset(ctx, rho):
    """rho as a scalar of ctx, or a ValueError naming it unless it is finite and > 0."""
    rho = ctx.mpf(rho)
    if not (rho > 0 and ctx.isfinite(rho)):
        raise ValueError(f"rho must be finite and > 0, got {rho}")
    return rho


def _escape_threshold(ctx, escape, default):
    """escape (default when None) as a scalar of ctx, or a ValueError unless finite and > 0."""
    threshold = default if escape is None else ctx.mpf(escape)
    if not ctx.isfinite(threshold):
        raise ValueError(f"escape threshold must be finite, got {threshold}")
    if not threshold > 0:
        raise ValueError("escape threshold must be > 0")
    return threshold


def symmetry_defect(
    kind: SingularityKind,
    scheme: SchemeSelector,
    params: SystemParams,
    s_pos,
):
    """|J(c+d) J(c-d) - 1| with c the symmetry center and d = s_pos - c.

    Zero up to rounding for the Kahan and implicit-family multipliers: they
    are J(c + d) = (K + g d)/(K - g d) (see _moebius_multiplier), so
    J(c - d) is exactly 1/J(c + d) in real arithmetic.  Explicit schemes have
    no such pairing.
    """
    factor = _on_scalars(params.ctx, scheme_map(kind, scheme, params).factor)
    c = CANARDS[kind].center(params)
    d = s_pos - c
    return abs(factor(c + d) * factor(c - d) - 1)


def finite_difference_factor(
    kind: SingularityKind,
    scheme: SchemeSelector,
    params: SystemParams,
    s_pos,
    delta,
):
    """Centered finite difference of the step map's x-component along x.

    Differentiates the actual one-step map at the canard point (y held
    fixed), providing an independent check of jacobian_factor.  delta should
    be around 10^(-digits/2) so truncation and rounding errors balance.
    """
    ctx = params.ctx
    delta = ctx.mpf(delta)
    step = scheme_map(kind, scheme, params).step
    p = CANARDS[kind].point(params, s_pos)
    y = split(p.y._mpf_)
    hi, _ = step(split((p.x + delta)._mpf_), y)
    lo, _ = step(split((p.x - delta)._mpf_), y)
    return ctx.make_mpf(pack(sub(hi, lo, ctx.prec))) / (2 * delta)
