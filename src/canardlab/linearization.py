"""Linearization along canard trajectories, and the table of discrete maps.

scheme_map is the one place a scheme selector is dispatched on: it turns a
(kind, scheme) pair into the pair's one-step map, transversal multiplier and,
on the transcritical diagonal, deviation-coordinate step.  CANARDS holds, per
singularity kind, where the canard lies and how far an orbit is from it.

For each scheme/singularity pair the one-step map, linearized along the
canard, has a unit eigenvalue in the canard direction; the other, the
transversal multiplier J = d(xnew)/dx, governs contraction toward and
expansion away from the canard.  Closed forms:

  transcritical, explicit RK:  J(x) = 1 + h Q_s(x), with the stage recursion
      dk_i = 2 (x + h eps A_i) (1 + h sum_{j<i} a_ij dk_j),  Q_s = sum alpha_i dk_i
  transcritical, Kahan:        J(x) = (1 - h^2 x (x + eps h) + eps h^2) / (1 - h x)^2
  pitchfork, explicit RK:      J(y) = 1 + h R_s(y), same recursion with the
      stage factor (y + h eps A_i) in place of 2(x + h eps A_i)
  pitchfork, implicit family:  J(y) = (1 + (h/2) y + h^2 (1-2a) eps/4)
                                      / (1 - (h/2) y - h^2 (1+2a) eps/4)
  fold, Kahan:                 J(x) = (-h^2 x^2 + (1 + h^2 eps/4)^2)
                                      / (1 - h x + h^2 eps/4)^2

The Kahan/implicit factors satisfy the exact pairing J(c+d) J(c-d) = 1 about
the symmetry center c (-eps h/2 on the lines, 0 on the fold parabola), which
is what makes the delayed loss of stability symmetric for those schemes.

The multipliers are kernels on mantissa pairs (see rounding), built once per
orbit, that round every operation like the mpf expression they replace (the
explicit RK one runs the stage recursion _stage_polynomial, which q_s and the
linearized critical-step solves share); the public functions take scalars.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import count, islice
from math import inf, ldexp, nextafter
from typing import Callable, Optional, Union

from .rounding import abs_le, add, div, mul, pack, rn, scaler, split, sub
from .schemes import (
    ButcherTableau,
    PoleError,
    _ONE,
    _ZERO,
    _on_pairs,
    afamily_kernel,
    euler_deviation_kernel,
    euler_kernel,
    kahan_deviation_kernel,
    kahan_step_fold,
    kahan_step_transcritical,
    rk_deviation_kernel,
    rk_step,
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

    step(x, y) advances the mantissa pairs (see rounding) of a point by one
    step; factor(s) is the transversal multiplier at the pair s of a canard
    position, as a pair (None without a canard);
    deviation_step(u, y), on the transcritical diagonal only, advances the
    pairs of the deviation u = x - y and the slow coordinate y in deviation
    coordinates (on the pitchfork line the deviation is x itself, so step
    already is its deviation map); deviation_ratio() encloses its u'/u (see _out).
    """

    step: Callable
    factor: Optional[Callable] = None
    deviation_step: Optional[Callable] = None
    deviation_ratio: Optional[Callable] = None


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
        stage_factor = 2 if diagonal else 1
        prec, hp, ep = ctx.prec, split(params.h._mpf_), split(params.epsilon._mpf_)

        def factor(s):
            q = _stage_polynomial(scheme, ctx, [s], [hp], ep, stage_factor)[0]
            return add(mul(hp, q, prec), _ONE, prec)

        if scheme.s == 1:
            step = euler_kernel(kind, params)
            deviation_step = euler_deviation_kernel(params) if diagonal else None
        else:
            step = _on_pairs(ctx, lambda p: rk_step(scheme, kind, params, p))
            deviation_step = rk_deviation_kernel(scheme, params) if diagonal else None
        return SchemeMap(step, factor, deviation_step, partial(_rk_ratio, scheme, params) if diagonal else None)
    if scheme == KAHAN and diagonal:
        factor = _kahan_transcritical_multiplier(params)
        step = _on_pairs(ctx, lambda p: kahan_step_transcritical(params, p))
        return SchemeMap(step, factor, kahan_deviation_kernel(params), partial(_kahan_ratio, params))
    if scheme == KAHAN and kind is SingularityKind.FOLD:
        step = _on_pairs(ctx, lambda p: kahan_step_fold(params, p))
        return SchemeMap(step, _kahan_fold_multiplier(params))
    if kind is SingularityKind.PITCHFORK and (scheme == KAHAN or isinstance(scheme, AFamily)):
        a = ctx.mpf(-1) / 2 if scheme == KAHAN else ctx.mpf(scheme.a)
        return SchemeMap(afamily_kernel(a, params), _afamily_multiplier(a, params))
    if isinstance(scheme, ButcherTableau):  # on the fold
        if canard:
            raise NoCanard(
                f"the explicit RK scheme {scheme.name!r} has no canard on the fold: "
                "the reduced slow map of an explicit one-step map is undefined on a gap"
            )
        if scheme.s == 1:
            return SchemeMap(euler_kernel(kind, params))
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
    """(lo, hi) widened by an ulp for a float operation and one for its mpf rounding.

    A deviation kernel's enclosure ratio(y, u) bounds its computed u'/u by
    running its mpf expression on float intervals, each operation widened
    here (prec >= 53 bits round within an ulp).  Bounds that are not finite,
    or a divisor holding 0, raise an ArithmeticError.
    """
    lo, hi = nextafter(nextafter(lo, -inf), -inf), nextafter(nextafter(hi, inf), inf)
    if not -inf < lo <= hi < inf:
        raise OverflowError("enclosure is not finite")
    return lo, hi


def _iadd(a, b):
    return _out(a[0] + b[0], a[1] + b[1])


def _imul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _out(min(ps), max(ps))


def enclose(p):
    """A float interval holding the pair p; OverflowError beyond the float range."""
    n = max(abs(p[0]).bit_length() - 53, 0)  # p[0] >> n floors it
    return _out(ldexp(p[0] >> n, p[1] + n), ldexp((p[0] >> n) + (n > 0), p[1] + n))


def _rk_ratio(tableau: ButcherTableau, params: SystemParams):
    """1 + h sum_i alpha_i r_i s_i: rk_deviation_kernel's stage slopes d_i = u r_i s_i.

    r_i = 1 + sum_j (h a_ij) r_j s_j, s_i = 2y + u + sum_j (h a_ij) (d_j + 2 eps); the
    last widening covers the product with u of the Euler kernel u (1 + h (2y + u)).
    """
    alpha, rows, _ = tableau.bind_raw(params.ctx)
    h, eps = (enclose(split(v._mpf_)) for v in (params.h, params.epsilon))
    plan = [[(j, _imul(h, enclose(split(a)))) for j, a in enumerate(row) if a[1]] for row in rows]
    weights = [(i, enclose(split(a))) for i, a in enumerate(alpha) if a[1]]

    def ratio(y, u):
        s0, ds = _iadd((2 * y[0], 2 * y[1]), u), []
        for entries in plan:
            r, s = (1.0, 1.0), s0
            for j, ha in entries:
                r = _iadd(r, _imul(ha, ds[j]))
                s = _iadd(s, _imul(ha, _iadd(_imul(u, ds[j]), (2 * eps[0], 2 * eps[1]))))
            ds.append(_imul(r, s))
        du = reduce(_iadd, (_imul(a, ds[i]) for i, a in weights))
        return _out(*_iadd((1.0, 1.0), _imul(h, du)))

    return ratio


def _kahan_ratio(params: SystemParams):
    """(1 + h y + (h eps) h) / (1 - h (y + u)); the product with u rounds once more."""
    h, eps = (enclose(split(v._mpf_)) for v in (params.h, params.epsilon))
    num_eps = _imul(_imul(h, eps), h)

    def ratio(y, u):
        den = _iadd((1.0, 1.0), _imul((-h[1], -h[0]), _iadd(y, u)))
        num = _iadd(_iadd(_imul(h, y), (1.0, 1.0)), num_eps)
        return _out(*_imul(num, _out(1 / den[1], 1 / den[0])))  # den holding 0: lo > hi

    return ratio


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
    of the rounded glue * |a| and glue * |b|.  A nonzero value v lies in
    [2**(m-1), 2**m) with m its bit length plus its exponent, and the
    rounded product in [2**(mg+mv-2), 2**(mg+mv)], so magnitudes two or more
    apart decide a comparison; only closer ones pay for the product and the
    exact compare, which decide the rule exactly as mpf arithmetic would.
    """
    um, ue = u
    if not um:
        return True
    mu = abs(um).bit_length() + ue - abs(glue[0]).bit_length() - glue[1]
    for v in (a, b):
        if v[0]:
            d = mu - abs(v[0]).bit_length() - v[1]
            if d <= -2:
                return True
            if d >= 2:
                continue
        if abs_le(u, mul(glue, v, prec)):
            return True
    return False


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


def _poly_add(p, q, prec):
    """p + q on ascending coefficient lists of pairs; the longer list's tail is kept."""
    if len(p) < len(q):
        p, q = q, p
    return [add(a, b, prec) for a, b in zip(p, q)] + p[len(q):]


def _poly_mul(p, q, prec):
    """p q on ascending coefficient lists of pairs, each coefficient summed in index order."""
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = add(out[i + j], mul(a, b, prec), prec)
    return out


def _poly_scale(p, c, prec):
    return [mul(c, v, prec) for v in p]


def _stage_polynomial(tableau: ButcherTableau, ctx, x, h, eps, stage_factor=2):
    """Coefficients (ascending) of Q_s in a variable t, given x and h as polynomials in t.

    The one RK stage recursion, q_s's with stage factor c (an int), on
    coefficient lists of mantissa pairs at ctx's precision (eps is a pair),
    each operation rounded as in mpf arithmetic.  x = [x], h = [h] gives
    q_s; x = [0, 1], h = [h] gives Q_s in the canard position; x = [-rho],
    h = [0, 1] gives Q_s(-rho) in the step size.
    """
    prec, c, dk = ctx.prec, (stage_factor, 0), []
    alpha, rows, sums = tableau.bind_raw(ctx)
    heps = _poly_scale(h, eps, prec)
    for row, a_i in zip(rows, sums):
        acc = [_ZERO]
        for aij, dk_j in zip(row, dk):
            acc = _poly_add(acc, _poly_scale(dk_j, split(aij), prec), prec)
        base = _poly_scale(_poly_add(_poly_scale(heps, split(a_i), prec), x, prec), c, prec)
        dk.append(_poly_mul(base, _poly_add([_ONE], _poly_mul(h, acc, prec), prec), prec))
    total = [_ZERO]
    for alpha_i, dk_i in zip(alpha, dk):
        total = _poly_add(total, _poly_scale(dk_i, split(alpha_i), prec), prec)
    return total


def q_s(tableau: ButcherTableau, params: SystemParams, x, stage_factor=2):
    """Weighted stage-derivative sum Q_s(x) along the canard.

    dk_i/dx = c (x + h eps A_i) (1 + h sum_{j<i} a_ij dk_j/dx), A_i = sum_j a_ij;
    Q_s(x) = sum_i alpha_i dk_i/dx.  The stage factor c is 2 on the
    transcritical diagonal and 1 on the pitchfork line {x = 0}, whose slow
    position is y.  For s = 1 this is c x.  This is _stage_polynomial of
    degree 0, with x = [x] and h = [h], packed once.
    """
    ctx = params.ctx
    x, h, eps = (split(ctx.mpf(v)._mpf_) for v in (x, params.h, params.epsilon))
    return ctx.make_mpf(pack(_stage_polynomial(tableau, ctx, [x], [h], eps, stage_factor)[0]))


def _kahan_transcritical_multiplier(params: SystemParams):
    """(1 - h h x (x + eps h) + eps h h) / (1 - h x)^2; h h, eps h, (eps h) h and scalers once."""
    prec = params.ctx.prec
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    hh, eh = mul(h, h, prec), mul(eps, h, prec)
    ehh, by_h, by_hh = mul(eh, h, prec), scaler(h, prec), scaler(hh, prec)

    def factor(x):
        den = sub(_ONE, by_h(x), prec)
        if not den[0]:
            raise PoleError("transcritical Kahan multiplier has a pole at x = 1/h")
        num = add(sub(_ONE, mul(by_hh(x), add(x, eh, prec), prec), prec), ehh, prec)
        return div(num, mul(den, den, prec), prec)

    return factor


def _afamily_multiplier(aparam, params: SystemParams):
    """(1 + h y/2 + h h (1-2a) eps/4) / (1 - h y/2 - h h (1+2a) eps/4); both constants and h's scaler once."""
    prec = params.ctx.prec
    h, eps, (am, ae) = (split(v._mpf_) for v in (params.h, params.epsilon, aparam))
    hh, two_a = mul(h, h, prec), rn(am, ae + 1, prec)
    cm, ce = mul(mul(hh, sub(_ONE, two_a, prec), prec), eps, prec)
    dm, de = mul(mul(hh, add(_ONE, two_a, prec), prec), eps, prec)
    c_num, c_den, by_h = (cm, ce - 2), (dm, de - 2), scaler(h, prec)

    def factor(y):
        m, e = by_h(y)
        den = sub(sub(_ONE, (m, e - 1), prec), c_den, prec)
        if not den[0]:
            raise PoleError("implicit pitchfork multiplier has a pole at this y")
        return div(add(add(_ONE, (m, e - 1), prec), c_num, prec), den, prec)

    return factor


def _kahan_fold_multiplier(params: SystemParams):
    """(q q - h h x x) / (1 - h x + c)^2, c = h h eps/4, q = 1 + c; h h, c, q q and scalers once."""
    prec = params.ctx.prec
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    hh = mul(h, h, prec)
    cm, ce = mul(hh, eps, prec)
    c = (cm, ce - 2)
    q = add(_ONE, c, prec)
    qq, by_h, by_hh = mul(q, q, prec), scaler(h, prec), scaler(hh, prec)

    def factor(x):
        den = add(sub(_ONE, by_h(x), prec), c, prec)
        if not den[0]:
            raise PoleError("fold Kahan multiplier has a pole at x = (1 + h^2 eps/4)/h")
        return div(sub(qq, mul(by_hh(x), x, prec), prec), mul(den, den, prec), prec)

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


def canard_spacing(kind: SingularityKind, params: SystemParams):
    """Per-step slow advance of the canard: eps*h, except eps*h/2 on the fold."""
    return CANARDS[kind].spacing(params)


def symmetry_center(kind: SingularityKind, params: SystemParams):
    """Center of the pairing identity: -eps*h/2 on the lines, 0 on the fold."""
    return CANARDS[kind].center(params)


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


@dataclass
class ContractionLedger:
    """Multipliers and running products along a canard entered at -rho.

    factors[k] is the multiplier at canard position -rho + k*spacing and
    running_product[k] the inclusive product of factors[0..k].
    """

    rho: object
    spacing: object
    positions: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    running_product: list = field(default_factory=list)

    def write_csv(self, path, ndigits: int = 30, ctx=None):
        """Export as CSV with columns k, s_pos, factor, log_running_product (ln|product|)."""
        if ctx is None:
            ctx = self.positions[0].context
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "s_pos", "factor", "log_running_product"])
            rows = zip(self.positions, self.factors, self.running_product)
            for k, (pos, f, prod) in enumerate(rows):
                writer.writerow([k] + [ctx.nstr(v, ndigits) for v in (pos, f, ctx.ln(abs(prod)))])


def _products(factor, rho, spacing, prec):
    """(position, multiplier, running product) as pairs at -rho + k*spacing, k = 0, 1, ...

    k*spacing is formed afresh each step, not accumulated; a PoleError
    carries the index k of the position that hit the pole.
    """
    (rm, re), step = split(rho._mpf_), split(spacing._mpf_)
    prod = _ONE
    for k in count():
        pos = add((-rm, re), mul((k, 0), step, prec), prec)
        try:
            f = factor(pos)
        except PoleError as err:
            err.index = k
            raise
        prod = mul(prod, f, prec)
        yield pos, f, prod


def contraction_product(
    kind: SingularityKind,
    scheme: SchemeSelector,
    params: SystemParams,
    rho,
    n: int,
) -> ContractionLedger:
    """Ledger of multipliers at canard positions -rho + k*spacing, k = 0..n."""
    ctx = params.ctx
    make = ctx.make_mpf
    rho = _entry_offset(ctx, rho)
    factor = scheme_map(kind, scheme, params).factor
    spacing = canard_spacing(kind, params)
    ledger = ContractionLedger(rho=rho, spacing=spacing)
    for pos, f, prod in islice(_products(factor, rho, spacing, ctx.prec), n + 1):
        ledger.positions.append(make(pack(pos)))
        ledger.factors.append(make(pack(f)))
        ledger.running_product.append(make(pack(prod)))
    return ledger


def symmetry_defect(
    kind: SingularityKind,
    scheme: SchemeSelector,
    params: SystemParams,
    s_pos,
):
    """|J(c+d) J(c-d) - 1| with c the symmetry center and d = s_pos - c.

    Exactly zero (to context precision) for the Kahan and implicit-family
    multipliers; explicit schemes have no such pairing.
    """
    factor = _on_scalars(params.ctx, scheme_map(kind, scheme, params).factor)
    c = symmetry_center(kind, params)
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
