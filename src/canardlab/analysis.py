"""Quantitative analysis of delayed loss of stability.

The transversal multipliers accumulated along a canard form the product
v1(n); the slow passage is "paid back" when |v1| returns to 1.  This module
computes

  * the principal-branch Lambert W function (Halley iteration), used by the
    closed-form lower bounds;
  * lower bounds K* on the exit iteration count for forward Euler on the
    transcritical and pitchfork systems, and the generic explicit-RK bound
    built from the Faulhaber expansion of the accumulated product;
  * the way-in/way-out map: entry index N and exit offset psi with
    |v1(N + psi)| >= 1 (Kahan maps give psi = N exactly on the symmetric
    lattice, and psi in {N+1, N+2} off it);
  * linearized critical triplets (rho*, h*, eps*) at the first sign change of
    1 + h Q_s(-rho), where the one-step multiplier at entry changes sign and
    the delay blows up;
  * jump classification of simulated orbits near the canard and the
    bisection in h that locates the nonlinear critical step size;
  * parameter sweeps producing critical-step-size surfaces.

Jump classification semantics: an orbit entering beside the canard leaves it
on one side.  RIGHT means it left on the side it entered (the correct,
delay-symmetric outcome); LEFT means the accumulated multipliers flipped the
deviation's sign, so the orbit jumps in the wrong direction (this happens
for step sizes just above the critical value, where the entry multiplier
turns negative); STUCK means it never left within the iteration budget, the
finite-precision artifact of orbits collapsing onto the invariant set.

Classification can run in two representations on the transcritical
diagonal.  The raw representation iterates the map in plain (x, y)
coordinates and exhibits the sticky-set artifact whenever the deviation
x - y falls below the working precision.  The deviation representation
rewrites the same map exactly in (deviation, slow) coordinates, where the
transversal deviation carries its own exponent; this is what makes
critical-step bisection feasible at a few hundred digits even where the raw
orbit would need thousands.  The pitchfork needs no rewrite: on its line
{x = 0} the deviation is x itself, which already carries its own exponent,
and its stuck rule is the exact-zero rule, so its raw orbit is its
deviation orbit.  The fold has only its raw representation.

One loop, _iterate, classifies both and also drives the command line's
simulate, one call per output row.  It carries the orbit as signed integer
mantissa pairs (see rounding) and runs step, stuck rule, sign-change record,
then threshold or settle: on (x, y) with the raw one-step map and the kind's
stuck rule, or on (deviation, slow) with the deviation map and the
exact-zero rule.  Every operation is rounded to nearest at the context's
precision in the order of the mpf expression it stands for, so labels, step
counts, points and deviations are bit-identical to mpf arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .linearization import (CANARDS, SchemeSelector, _entry_offset, _escape_threshold,
                            _exact_zero, _iadd, _imul, _out, _poly_add, _poly_mul, _poly_scale,
                            _stage_polynomial, enclose, q_s, scheme_map)
from .precision import PrecisionContext
from .rounding import abs_le, add, lt, mul, pack, rn, split
from .schemes import _ONE, _ZERO, ButcherTableau, PoleError
from .systems import PlanarPoint, SingularityKind, SystemParams


class OutOfDomain(ValueError):
    """Argument outside the supported domain of a special function."""


class PastCriticality(ValueError):
    """Entry parameters lie at or beyond the critical multiplier sign change."""


class NotContracting(ValueError):
    """The entry multiplier exceeds 1: no initial contraction to pay back."""


class Unresolved(RuntimeError):
    """The searched-for index or classification was not found within budget."""

    def __init__(self, max_n, message: Optional[str] = None):
        super().__init__(message or f"not resolved within {max_n} iterations")
        self.max_n = max_n


class NoBracket(RuntimeError):
    """No step-size bracket with differing jump classes was found."""


# ---------------------------------------------------------------------------
# Lambert W (principal branch, nonnegative arguments)
# ---------------------------------------------------------------------------


def lambert_w0(ctx: PrecisionContext, x):
    """Principal-branch Lambert W for x >= 0 by Halley iteration.

    Solves w exp(w) = x to relative residual 10^(-digits+10), starting from
    w = ln(1 + x).  Nonnegative arguments cover every use in this package
    (the bound formulas call W on -c*ln(a) with a in (0, 1]).
    """
    x = ctx.mpf(x)
    if x < 0:
        raise OutOfDomain(f"lambert_w0 requires x >= 0, got {x}")
    if x == 0:
        return ctx.mpf(0)
    w = ctx.ln(1 + x)
    step_bar = ctx.tol(2)
    for _ in range(200):
        ew = ctx.exp(w)
        f = w * ew - x
        denom = ew * (w + 1) - (w + 2) * f / (2 * w + 2)
        if denom == 0:
            break
        dw = f / denom
        w = w - dw
        if abs(dw) <= step_bar * (1 + abs(w)):
            break
    residual = abs(w * ctx.exp(w) - x)
    if residual > ctx.tol(10) * abs(x):
        raise ArithmeticError("lambert_w0 failed to converge to the residual tolerance")
    return w


# ---------------------------------------------------------------------------
# Closed-form exit bounds
# ---------------------------------------------------------------------------


def _kstar_euler(ctx: PrecisionContext, c, rho, h, eps):
    """K* = (1/(h^2 eps)) (-1 + c h rho + exp(W(-h^2 eps ln(1 - c h rho)))).

    h and eps are checked by SystemParams.create and rho by _entry_offset
    (a non-finite one is named).
    """
    params = SystemParams.create(ctx, eps, h)
    rho, h, eps = _entry_offset(ctx, rho), params.h, params.epsilon
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    a = 1 - c * h * rho
    if a <= 0:
        raise PastCriticality(
            f"entry multiplier 1 - {c} h rho <= 0: entry is at or past the critical multiplier"
        )
    w = lambert_w0(ctx, -h * h * eps * ctx.ln(a))
    return (-1 + c * h * rho + ctx.exp(w)) / (h * h * eps)


def kstar_transcritical_euler(ctx: PrecisionContext, rho, h, eps):
    """Lower bound K* on the exit count for forward Euler, transcritical case.

    K* = (1/(h^2 eps)) (-1 + 2 h rho + exp(W(-h^2 eps ln(1 - 2 rho h)))),
    valid while the entry multiplier 1 - 2 h rho stays positive.  As rho
    approaches 1/(2h) the bound (and the exit coordinate -rho + K* h eps)
    diverges.
    """
    return _kstar_euler(ctx, 2, rho, h, eps)


def kstar_pitchfork_euler(ctx: PrecisionContext, rho, h, eps):
    """Lower bound K* for forward Euler, pitchfork case.

    K* = (1/(h^2 eps)) (-1 + h rho + exp(W(-h^2 eps ln(1 - h rho)))),
    valid while 1 - h rho > 0; diverges as rho -> 1/h.
    """
    return _kstar_euler(ctx, 1, rho, h, eps)


# -- generic explicit-RK bound ------------------------------------------------

#: Bernoulli numbers with the B1 = +1/2 convention, as used by the Faulhaber
#: power-sum formula sum_{k=1}^{n} k^m = (1/(m+1)) sum_j C(m+1, j) B_j n^{m+1-j}.
_BERNOULLI_PLUS = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
)


def _theta_coefficients(tableau: ButcherTableau, params: SystemParams, rho):
    """Coefficients theta_i of 1 + h Q_s(-rho + h eps k) as a polynomial in k."""
    ctx, prec = params.ctx, params.ctx.prec
    h, eps, (rm, re) = (split(v._mpf_) for v in (params.h, params.epsilon, rho))
    qs = _stage_polynomial(tableau, ctx, [(-rm, re), mul(h, eps, prec)], [h], eps)
    return [ctx.make_mpf(pack(c)) for c in _poly_add([_ONE], _poly_scale(qs, h, prec), prec)]


def rk_theta0(tableau: ButcherTableau, params: SystemParams, rho):
    """Entry multiplier theta_0 = 1 + h Q_s(-rho); rho must be finite and > 0."""
    return 1 + params.h * q_s(tableau, params, -_entry_offset(params.ctx, rho))


def rk_cbar(tableau: ButcherTableau, params: SystemParams, rho):
    """Scheme constant C-bar of the generic explicit-RK exit bound.

    The accumulated product's log-sum is bounded through the Faulhaber
    expansion sum_i theta_i sum_k k^i = sum_i C_i (K-1)^i; then
    C-bar = |ln(max_i |C_i|)| / ln 2 + 1.  The C_i depend on (h, eps, rho)
    through the theta_i, so C-bar is computed per call; rho must be finite
    and > 0, and so must eps (at eps = 0 every C_i vanishes).
    """
    ctx = params.ctx
    if not params.epsilon > 0:
        raise ValueError(f"eps must be > 0, got {params.epsilon}")
    s = tableau.s
    if s - 1 >= len(_BERNOULLI_PLUS):
        raise ValueError("stage count beyond the hard-coded Bernoulli table")
    theta = _theta_coefficients(tableau, params, _entry_offset(ctx, rho))
    cs = []
    for i in range(1, s + 1):
        acc = ctx.mpf(0)
        for m in range(i, s + 1):
            coeff = Fraction(math.comb(m + 1, m - i), m + 1) * _BERNOULLI_PLUS[m - i]
            acc = acc + theta[m] * ctx.mpf(coeff)
        cs.append(acc)
    max_c = max(abs(c) for c in cs)
    if max_c == 0:
        raise ValueError("degenerate accumulated-product polynomial: all C_i vanish")
    return abs(ctx.ln(max_c)) / ctx.ln(2) + 1


def kstar_rk(ctx: PrecisionContext, theta0, cbar, s: int):
    """Generic explicit-RK lower bound K* = 1 + exp(W(-ln(theta0) / (cbar (s+1)))).

    Requires the entry multiplier theta0 in (0, 1]: nonpositive means the
    entry is past criticality, above 1 means there is no contraction to pay
    back.  theta0 = 1 gives K* = 2.
    """
    theta0 = ctx.mpf(theta0)
    cbar = ctx.mpf(cbar)
    if theta0 <= 0:
        raise PastCriticality("theta0 <= 0: entry multiplier past its sign change")
    if theta0 > 1:
        raise NotContracting("theta0 > 1: entry multiplier is not contracting")
    if not (cbar > 0 and s >= 1):
        raise ValueError("need cbar > 0 and s >= 1")
    w = lambert_w0(ctx, -ctx.ln(theta0) / (cbar * (s + 1)))
    return 1 + ctx.exp(w)


# ---------------------------------------------------------------------------
# Way-in/way-out map
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WayOutResult:
    """Entry index, exit offset, and the accumulated product at exit.

    n_in counts canard steps from the entry -rho to the symmetry center;
    psi is the smallest m >= 0 with |v1(n_in + m)| >= 1, where v1(n) is the
    inclusive product of multipliers at positions -rho + k*spacing, k <= n.
    """

    n_in: int
    psi: int
    product_at_exit: object


def _entry_index(ctx, rho, center, spacing) -> int:
    t = (rho + center) / spacing
    if t < 0:
        raise ValueError("entry offset rho lies before the symmetry center")
    snap = ctx.tol(10) * (1 + abs(t))
    return int(ctx.floor(t + snap))


def wayout(
    kind: SingularityKind,
    scheme: SchemeSelector,
    params: SystemParams,
    rho,
    max_n: int = 10_000_000,
) -> WayOutResult:
    """Way-in/way-out map of the linearization along the canard.

    Accumulates multipliers at canard positions -rho + k*spacing and returns
    the smallest psi with |v1(n_in + psi)| >= 1 - tol(10) (the context's
    residual tolerance, so pairs that cancel exactly in real arithmetic are
    accepted).  The product runs on mantissa pairs and is packed at exit
    only; its exponent is unbounded, so it neither overflows nor underflows.
    On the symmetric lattice psi = n_in because the Kahan and implicit-family
    multipliers are one Moebius map (A + g s)/(B - g s) whose values at c + d
    and c - d multiply to exactly 1 in real arithmetic (see
    linearization._moebius_multiplier): the way-out factors cancel the way-in
    ones in pairs, up to rounding, which the bar's tol(10) absorbs.  Raises
    Unresolved, before any step, if n_in exceeds max_n; at the first step
    whose multiplier rounds to exactly 0 (its zero -A/g lies on the lattice,
    and its pair partner B/g is the pole), as a product of 0 never reaches
    the bar; and if psi is not found within max_n steps past the center.
    """
    ctx = params.ctx
    if not params.epsilon > 0:
        raise ValueError("way-in/way-out analysis requires epsilon > 0")
    rho = _entry_offset(ctx, rho)
    factor = scheme_map(kind, scheme, params).factor
    canard = CANARDS[kind]
    spacing = canard.spacing(params)
    n_in = _entry_index(ctx, rho, canard.center(params), spacing)
    if n_in > max_n:
        shown = n_in if n_in < 10**30 else ctx.nstr(ctx.mpf(n_in), 15)
        raise Unresolved(max_n, f"way-in N = {shown} exceeds the budget of {max_n} steps")
    prec = ctx.prec
    bar = split((1 - ctx.tol(10))._mpf_)
    start, step = split((-rho)._mpf_), split(spacing._mpf_)
    prod = _ONE
    for n in range(n_in + max_n + 1):
        # n*spacing is formed afresh each step, not accumulated, so rounding cannot drift
        pos = add(start, mul((n, 0), step, prec), prec)
        try:
            prod = mul(prod, factor(pos), prec)
        except PoleError as err:
            err.index = n
            raise
        if not prod[0]:
            raise Unresolved(max_n, f"way-out product is exactly 0 from step {n} on: the multiplier "
                                    f"vanishes at canard position {ctx.nstr_pair(pos, 15)}")
        if n >= n_in and abs_le(bar, prod):
            return WayOutResult(n_in=n_in, psi=n - n_in, product_at_exit=ctx.make_mpf(pack(prod)))
    raise Unresolved(max_n, f"way-out not reached within {max_n} steps past the center")


# ---------------------------------------------------------------------------
# Critical triplets (linearized)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BisectionBracket:
    lo: object
    hi: object


@dataclass(frozen=True)
class CriticalTriplet:
    """(rho*, h*, eps*) at which the linearized entry multiplier vanishes.

    source is "linearized" for sign changes of 1 + h Q_s(-rho) and a
    BisectionBracket for values located from the nonlinear system.
    """

    rho_star: object
    h_star: object
    eps_star: object
    source: Union[str, BisectionBracket]


#: The linearized solvers search h in (0, _H_CAP / rho] and rho in (0, _RHO_CAP / h].
_H_CAP = 10
_RHO_CAP = 10


def _float(v):
    """The pair v, at most 1 in magnitude, as a float (its top 64 bits, truncated)."""
    n = max(v[0].bit_length() - 64, 0)
    return math.ldexp(v[0] >> n, v[1] + n)


def _float_horner(p, x):
    """The polynomial p (ascending floats) at the float x."""
    acc = p[-1]
    for c in p[-2::-1]:
        acc = acc * x + c
    return acc


def _float_seed(pf, dpf, a, b, fa):
    """A root of p in (a, b) by safeguarded Newton in double precision, as a pair.

    pf and dpf are the float images of the coefficients of p and p', a and
    b the interval's pairs, in a variable that keeps them all at most 1
    (_first_sign_change), so every value is finite.  It runs with bracket
    tests, for at most 40 iterations, to a step of at most 2**-40 relative.
    It only starts _polish, which checks that it lies inside (a, b); it
    decides no sign.
    """
    lo, hi = _float(a), _float(b)
    neg, x = fa[0] < 0, 0.5 * lo + 0.5 * hi
    for _ in range(40):
        fx = _float_horner(pf, x)
        if not fx:
            break
        if (fx < 0) == neg:
            lo = x
        else:
            hi = x
        d = _float_horner(dpf, x)
        t = x - fx / d if d else math.nan
        if lo < t < hi:
            x, last = t, abs(t - x) <= 2.0 ** -40 * t
            if last:
                break
        else:
            x = 0.5 * lo + 0.5 * hi
            if not lo < x < hi:
                break
    m, q = x.as_integer_ratio()
    return m, 1 - q.bit_length()


#: The polish's guard bits and its cap on Newton steps (_polish).
_GUARD, _POLISH_STEPS = 24, 64


def _values(p, x, bits):
    """p(x) = S 2**E and p'(x) = D 2**(E - s), as (S, E) and (D, E - s), for x in [2**(s-1), 2**s).

    Horner's rule on t = x / 2**s and p's coefficients scaled to t, in integers over 2**E,
    `bits` bits below the largest coefficient: each coefficient and product is truncated
    there, and t < 1, so S and D are off by less than 2 deg p + 2 at any coefficient size."""
    xm, xe = x
    u = xm.bit_length()
    s = u + xe
    top = max(m.bit_length() + e + i * s for i, (m, e) in enumerate(p) if m) - bits
    c = [m >> k if (k := top - e - i * s) >= 0 else m << -k for i, (m, e) in enumerate(p)]
    fm, dm = c[-1], 0
    for v in c[-2::-1]:
        dm = (dm * xm >> u) + fm
        fm = (fm * xm >> u) + v
    return (fm, top), (dm, top - s)


def _midpoint(a, b):
    """The midpoint of the pairs a < b, and how many leading bits of it keep it in (a, b)."""
    e = min(a[1], b[1])
    am, bm = a[0] << a[1] - e, b[0] << b[1] - e
    return (am + bm, e - 1), (am + bm).bit_length() - (bm - am).bit_length() + 1


def _polish(p, x, a, b, below, prec):
    """The simple root of p in (a, b), 0 < a < b <= 2a, to about prec + _GUARD bits.

    Newton's method with doubling precision (Brent and Zimmermann, Modern Computer
    Arithmetic, 2010, 4.2), from x, a start of 53 bits (_float_seed's), or from the midpoint
    where x is None or outside.  A step from an iterate with g good bits aims at w = 2g
    (at least 53, at most prec + _GUARD): _values runs on the iterate cut to g bits, at
    w + _GUARD bits, plus the bits that p's value then lacks (cancellation next to an
    ill-conditioned root), which the later steps keep.  A step of relative size 2**-k leaves
    2k - 4 good bits.  Each value's sign (below is p's left of the root) shrinks (a, b); a
    step that leaves it, or a zero slope, bisects.  Nothing is exact or rounded: the
    iterate only starts _nearest_root.
    """
    good, target, neg, extra = 53, prec + _GUARD, below[0] < 0, 0
    if x is None or not (lt(a, x) and lt(x, b)):
        x, good = _midpoint(a, b)
    for _ in range(_POLISH_STEPS):
        if good >= target:
            break
        w = min(max(2 * good, 53), target)
        n = x[0].bit_length() - max(good, (w + 1) // 2)
        if n > 0:
            x = x[0] >> n, x[1] + n
        (fm, fe), (dm, de) = _values(p, x, w + _GUARD + extra)
        short = w - good + _GUARD // 2 - fm.bit_length()
        if short > 0 and fm:  # cancellation: the step again, and the later ones, with more bits
            extra = max(2 * extra, extra + short)
            continue
        if (fm < 0) == neg:
            a = x
        else:
            b = x
        if dm:
            q, e = (fm << w) // dm, fe - de - w  # the step, in units of 2**-w x
            t = (x[0] << x[1] - e) - q, e
            if not q or lt(a, t) and lt(t, b):
                x, good = t, min(w, 2 * (w - q.bit_length()) - 4)
                continue
        x, good = _midpoint(a, b)
    return x


def _exact_sign(p, x):
    """Sign of the polynomial p (ascending pairs) at the pair x, in exact integer arithmetic."""
    xm, xe = x
    am, ae = p[-1]
    for cm, ce in p[-2::-1]:
        am, ae = am * xm, ae + xe
        if ae > ce:
            am, ae = (am << (ae - ce)) + cm, ce
        else:
            am += cm << (ce - ae)
    return (am > 0) - (am < 0)


def _nearest_root(p, x, below, a, b, prec):
    """The root of p in (a, b) next to the pair x, rounded to nearest-even at prec bits.

    (a, b), 0 < a < b, isolates a root where p changes sign, and below is
    p's value on its left (only its sign is used).  Positive prec-bit floats
    are indexed so that neighbours differ by 1, across binades too (below a
    power of two the midpoint is a quarter of its ulp away).  The root
    rounds to the first float k whose midpoint with k + 1 is not below it.
    The floats below a and above b bound k; it is found by galloping from x
    (steps 1, 2, 4, ...) inside those bounds, then bisecting, each midpoint
    in (a, b) decided from the exact sign of p there (p may have other roots
    just outside).  From a polished x the first two midpoints bracket the
    root.  A root exactly on a midpoint goes to the float with the even
    mantissa.
    """
    half, sign = 1 << (prec - 1), (below[0] > 0) - (below[0] < 0)

    def index(v):  # of the prec-bit float at or below the positive pair v
        n = v[0].bit_length() - prec
        return (v[1] + n) * half + (v[0] >> n if n >= 0 else v[0] << -n) - half

    def value(k):
        q, r = divmod(k, half)
        return half + r, q

    def side(k):  # > 0: the midpoint of floats k and k + 1 (across binades too) lies below the root
        m, e = value(k)
        mid = 2 * m + 1, e - 1
        return 1 if not lt(a, mid) else -1 if not lt(mid, b) else sign * _exact_sign(p, mid)

    lo, hi, s = index(a) - 1, index(b) + 1, -1
    k, step = min(max(index(x), lo + 1), hi - 1), 1
    while hi - lo > 1:
        t = side(k)
        if t > 0:
            lo, k = k, k + step
        else:
            hi, s, k = k, t, k - step
        step *= 2
        if not lo < k < hi:
            k = (lo + hi) // 2
    if s == 0 and value(hi)[0] & 1:
        hi += 1
    return value(hi)


def _taylor1(c):
    """c(t + 1)."""
    c = list(c)
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] += c[k + 1]
    return c


def _descartes(c):
    """Descartes' bound on the roots of c in (0, 1): the sign variations of (1 + t)**d c(1/(1 + t)).

    It exceeds the root count (with multiplicity) by an even number, and is
    0 where the disc on the diameter (0, 1) holds no root.  It is
    subadditive: split (0, 1) at m, and the halves' bounds, plus 1 where m
    is a root of odd multiplicity, sum to at most this one.
    """
    signs = [v > 0 for v in _taylor1(c[::-1]) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _order(c):
    """The multiplicity of the root of c at 0."""
    return next(i for i, v in enumerate(c) if v)


def _prefix(c, j):
    """c(t / 2**j) as integers over a power of 2, for c of pairs: c on (0, 2**-j) mapped to (0, 1)."""
    low = min(e - i * j for i, (m, e) in enumerate(c) if m)
    return [m << e - i * j - low if m else 0 for i, (m, e) in enumerate(c)]


def _divide(a, b):
    """Primitive q and r with |lead b|**k a = q b + r for integer polynomials: a / b's up to
    positive factors, which keep every sign."""
    r, q, lead = list(a), [], b[-1]
    while len(r) >= len(b):
        f, off = r[-1] if lead > 0 else -r[-1], len(r) - len(b)
        r, q = [abs(lead) * v for v in r], [abs(lead) * v for v in q] + [f]
        for i, v in enumerate(b):
            r[off + i] -= f * v
        r.pop()
    while r and not r[-1]:
        r.pop()
    gq, gr = math.gcd(*q), math.gcd(*r) or 1
    return [v // gq for v in q[::-1]], [v // gr for v in r]


def _odd_part(c):
    """The product of c's square-free factors of odd multiplicity, up to a nonzero factor.

    Its roots are c's sign changes, each simple: with g = gcd(c, c'), c / g
    holds every root of c once, and g's odd part those of even multiplicity.
    The gcd is the last term of c's primitive remainder sequence.
    """
    g, r = c, [i * v for i, v in enumerate(c) if i]
    while r:
        g, r = r, _divide(g, r)[1]
    return c if len(g) == 1 else _divide(_divide(c, g)[0], _odd_part(g))[0]


def _isolate(c):
    """The first sign change in (0, 1] of c (dyadic, ascending pairs, c(0) != 0), or None.

    Descartes isolation (Collins and Akritas, SYMSAC 1976; Rouillier and
    Zimmermann, J. Comput. Appl. Math. 162, 2004).  The result (k, j,
    below, f) puts the root in (k / 2**j, (k + 1) / 2**j) as the one root
    there of f (c, or its odd part), whose value left of it has the sign of
    below; with below None the root is k / 2**j.  Fujiwara's bound clears
    the disc |t| <= 2**-K; galloping, then bisecting, on the exponent j of
    (0, 2**-j) with Descartes' bound finds the first binade (2**-(j + 1),
    2**-j) that can hold a root, and past a binade without a sign change the
    next one (subadditivity clears the binades between).  A binade is
    halved (2**d c(t / 2), then c(t + 1)), left half first, down to an
    interval that reads 1; a midpoint where c vanishes is a root of the
    multiplicity of its lowest nonzero coefficient.  An interval still
    reading 2 or more after 2 d + 8 halvings may hold a multiple root: the
    search restarts on the odd part, unless that is c itself.
    """
    limit, flat = 2 * len(c) + 6, _prefix(c, 0)
    mags = [abs(m).bit_length() + e for m, e in c]
    j = 1 + max(-((mags[0] - g - 1) // k) for k, (g, (m, _)) in enumerate(zip(mags, c)) if k and m)
    bound, whole, s0 = 0, _descartes(flat), 1 if c[0][0] > 0 else -1
    while whole > bound:
        lo, n, hi, mid, step = 0, whole, j, min(3, j // 2), 1
        while hi - lo > 1:  # gallop from three binades down (roots lie near a tenth of the caps)
            if n - bound == 1 and (s := _exact_sign(c, (1, -mid))):  # bound or bound + 1: parity decides
                v = bound + ((s != s0) != bound % 2)  # s0: c's sign right of 0
            else:
                v = _descartes(_prefix(c, mid))
            lo, n, hi, mid = (mid, v, hi, mid + step) if v > bound else (lo, n, mid, mid - step)
            step *= 2
            if not lo < mid < hi:
                mid = (lo + hi) // 2
        if n - bound == 1 and (s := _exact_sign(c, (1, -lo - 1))):  # parity, subadditivity: one root
            return 1, lo + 1, s, c
        j, bound, stack = lo, n, [(_taylor1(_prefix(c, lo + 1)), 1, lo + 1, 0)]
        while stack:
            q, k, i, depth = stack.pop()
            m = _order(q)
            if m % 2:
                return k, i, None, c
            q = q[m:]
            n = _descartes(q)
            if n == 1:
                return k, i, q[0], c
            if n > 1 and depth > limit:
                s, limit = _odd_part(flat), math.inf
                if s is not flat:
                    return _isolate([(v, 0) for v in s]) if len(s) > 1 else None
            if n:
                left = [v << (len(q) - 1 - t) for t, v in enumerate(q)]
                stack.append((_taylor1(left), 2 * k + 1, i + 1, depth + 1))
                stack.append((left, 2 * k, i + 1, depth + 1))
    return (1, 0, None, c) if not sum(flat) and _order(_taylor1(flat)) % 2 else None


def _first_sign_change(p, hi, prec):
    """The first sign change in (0, hi] of the polynomial p (ascending pairs), as a pair, or None.

    p is taken exactly: p(hi t) scales to an integer polynomial c on (0, 1]
    (the coefficients are dyadic) for _isolate.  A root found exactly is
    rounded to nearest-even at prec bits; any other is polished by _polish
    in its interval, from _float_seed's root in t, and rounded by
    _nearest_root, on p or on the odd part that _isolate fell back to, so
    Newton's path is moot.
    """
    hm, he = hi
    # p / x**nonzero[0], without zero end coefficients, has p's signs on x > 0.  The two zero
    # top coefficients of every h polynomial would widen _exact_sign's integers to about
    # 50,000 bits at rho = 1e5000 (Kutta3 at 200 digits, 2-core Xeon: 0.94 ms per solve, not 0.60).
    nonzero = [i for i, (m, _) in enumerate(p) if m]
    p = p[nonzero[0]:nonzero[-1] + 1]
    c = [(m * hm ** i, e + i * he) for i, (m, e) in enumerate(p)]
    found = _isolate(c) if len(c) > 1 else None
    if found is None:
        return None
    k, j, below, f = found
    if below is None:
        return rn(hm * k, he - j, prec)
    if f is not c:
        p = [(m * hm ** (len(f) - 1 - i), e - i * he) for i, (m, e) in enumerate(f)]
    top, below = max(m.bit_length() + e for m, e in f if m), (below, 0)  # the seed's f is below 1
    pf = [_float((m, e - top)) for m, e in f]
    t = _float_seed(pf, [i * v for i, v in enumerate(pf) if i], (k, -j), (k + 1, -j), below)
    a, b = (hm * k, he - j), (hm * (k + 1), he - j)
    t = _polish(p, t and (hm * t[0], he + t[1]), a, b, below, prec)
    return _nearest_root(p, t, below, a, b, prec)


def _first_root(tableau, ctx, x, h, eps, hi, stage_factor=2):
    """_first_sign_change in (0, hi] of 1 + h Q_s(x) (x, h polynomials of pairs), or None."""
    prec = ctx.prec
    q = _stage_polynomial(tableau, ctx, x, h, split(eps._mpf_), stage_factor)
    p = _poly_add([_ONE], _poly_mul(h, q, prec), prec)
    root = _first_sign_change(p, split(hi._mpf_), prec)
    return None if root is None else ctx.make_mpf(pack(root))


def critical_triplet_linearized(
    tableau: ButcherTableau, h, eps, ctx: PrecisionContext
) -> Optional[CriticalTriplet]:
    """First sign change of 1 + h Q_s(-rho) in rho on (0, 10/h], or None.

    At fixed (h, eps) this is a polynomial of degree s in rho, its
    coefficients rounded at the context's precision.  Its first root of odd
    multiplicity in (0, 10/h] (a tangency is not critical) is isolated
    exactly, polished by Newton and returned rounded to nearest-even at the
    context's precision (_first_sign_change); nothing is scanned.  The cap
    10/h is fixed: larger entries fall outside the local canonical-form
    regime.  Forward Euler gives rho* = 1/(2h) exactly; where a scheme has
    no sign change below the cap (heun2 at h = 0.1, eps = 0.01, or at h =
    eps = 1, where the polynomial is 2 (1 - rho)**2) the result is None.
    """
    params = SystemParams.create(ctx, eps, h)
    if not params.epsilon > 0:
        raise ValueError("critical triplets require epsilon > 0")
    x, h = [_ZERO, (-1, 0)], [split(params.h._mpf_)]
    rho = _first_root(tableau, ctx, x, h, params.epsilon, _RHO_CAP / params.h)
    return None if rho is None else CriticalTriplet(rho, params.h, params.epsilon, "linearized")


def linearized_critical_h(
    tableau: ButcherTableau, rho, eps, ctx: PrecisionContext, stage_factor=2
):
    """First sign change of 1 + h Q_s(-rho; h, eps) in h on (0, 10/rho], or None.

    This is the critical-triplet equation solved for the step size at fixed
    (rho, eps), the quantity plotted by the critical-surface sweeps: a
    polynomial of degree at most 2s in h, equal to 1 at h = 0, solved as in
    critical_triplet_linearized; h = [0, 1] enters the stage recursion as a
    shift, with no product by its exact 0 or 1.  The cap 10/rho is fixed; it
    is what leaves heun2 without a root in most cells of the README grid.
    stage_factor is q_s's: 2 on the transcritical diagonal, 1 on the
    pitchfork line (forward Euler's root is then 1/(c rho)).
    """
    rho, eps = _entry_offset(ctx, rho), ctx.mpf(eps)
    if not (eps >= 0 and ctx.isfinite(eps)):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    x, h = [split((-rho)._mpf_)], [_ZERO, _ONE]
    return _first_root(tableau, ctx, x, h, eps, _H_CAP / rho, stage_factor)


# ---------------------------------------------------------------------------
# Jump classification
# ---------------------------------------------------------------------------


class JumpClass(enum.Enum):
    RIGHT = "right"  # left the canard on the entry side (correct direction)
    LEFT = "left"    # deviation sign flipped: wrong-direction jump
    STUCK = "stuck"  # never detached within the iteration budget


@dataclass(frozen=True)
class JumpResult:
    """Outcome of one classification.

    steps is the step at which the orbit was decided (or stopped), point and
    deviation are the state there.  last_sign_change is the step at which the
    deviation last changed sign (0 if it never did); every orbit records it,
    in raw and in deviation coordinates.
    """

    label: JumpClass
    steps: int
    point: PlanarPoint
    deviation: object
    last_sign_change: Optional[int] = None


def _iterate(step, deviation, x, y, u, above, thr, max_n, settle=None, n=0):
    """The one orbit loop, on mantissa pairs: (label, steps, x, y, u, last sign change).

    It runs from step n, where the orbit is at (x, y) with deviation u, up to
    step max_n.  step(x, y) advances the orbit by one step: a one-step map on
    (x, y), or a deviation map on (u, y).  deviation(x, y) -> (u, stuck) is
    then the kind's deviation and stuck rule (see linearization.Canard), or
    the exact-zero rule.  The orbit is STUCK when the rule says so, and is
    decided once |u| reaches the threshold thr: RIGHT if it leaves on the
    entry side (above: u > 0 at entry), else LEFT.  A run whose budget ends
    undecided returns label None; the caller may go on from there with
    n = max_n, or call the orbit STUCK.  The step of the last sign change of u
    in this run is recorded (0 if none).

    settle, when given, makes the run a prefix: it also stops at step n >= 2 x
    (its last sign change so far) + settle, or at max_n, and is then decided by
    the sign of u against the entry side.
    """
    negative, flip = u[0] < 0, 0
    # a full orbit never settles: n stays below max_n + 1
    settled = max_n + 1 if settle is None else settle
    for n in range(n + 1, max_n + 1):
        try:
            x, y = step(x, y)
        except PoleError as err:
            err.index = n
            raise
        u, stuck = deviation(x, y)
        if stuck:
            return JumpClass.STUCK, n, x, y, u, flip
        if (u[0] < 0) != negative:
            negative, flip = not negative, n
        if abs_le(thr, u) or n >= settled + 2 * flip:
            break
    else:
        if settle is None:
            return None, n, x, y, u, flip
    return JumpClass.RIGHT if (u[0] > 0) == above else JumpClass.LEFT, n, x, y, u, flip


def classify_jump(
    kind: SingularityKind,
    scheme: SchemeSelector,
    params: SystemParams,
    rho,
    delta,
    escape=None,
    max_n: Optional[int] = None,
    track_deviation: bool = True,
    start: Optional[PlanarPoint] = None,
) -> JumpResult:
    """Classify the jump of an orbit entering beside the canard at -rho.

    The default start perturbs the canard entry by delta: (-rho, -rho+delta)
    for the transcritical system, (delta, -rho) for the pitchfork, and a
    parabola offset of delta for the fold.  The orbit is iterated until its
    transversal deviation reaches the escape threshold (default rho/2); the
    side it leaves on, relative to the side it entered, gives RIGHT (same
    side, correct direction) or LEFT (flipped, wrong direction).  STUCK is
    returned when the orbit collapses onto the invariant set (by the kind's
    stuck rule in raw coordinates, see linearization.Canard; when the
    deviation vanishes exactly in deviation coordinates) or the iteration
    budget runs out.  delta, and start when given, must be finite.

    On the transcritical diagonal, track_deviation=True iterates the map in
    exact deviation coordinates, immune to the collapse artifact; =False
    iterates the raw map at working precision and therefore reproduces the
    artifact.  The pitchfork and the fold always iterate the raw map (the
    pitchfork's x is its own deviation), so there the flag changes nothing.
    """
    return _classify(kind, scheme, params, rho, delta, escape, max_n, track_deviation, start)


#: _sign_lock splits u's interval up to thr in _PARTS and lets a chunk lose _LOSS bits of
#: growth; _classify tries it from step _LOCK_FIRST on.
_PARTS, _LOSS, _LOCK_FIRST, _LN2 = 8, 16, 16, math.log(2)


def _sign_lock(ratio, params, u, y, thr, steps):
    """None once the deviation orbit from (u, y) surely escapes within steps with u's sign.

    ratio() gives (enclosure, once), enclosure bounding the deviation step's u'/u - 1 (see
    linearization) over steps a..b ahead: y in y + [a, b] eps h plus the 2**-prec |y| each
    step may round y by, u in sigma [0, e].  Where lo > -1 these steps keep u's sign and
    scale |u| by 1 + lo to 1 + hi.  Bounds on log2 |u| grow over chunks that double, or halve
    where lo <= -1 or they lose _LOSS bits; e is the upper bound's reach until that meets
    thr (split in _PARTS there, unless u occurs once).  Else the steps got through are returned.
    """
    heps = mul(split(params.h._mpf_), split(params.epsilon._mpf_), params.ctx.prec)
    try:
        (ratio, once), y0, dy, top = ratio(), enclose(y), enclose(heps), enclose(thr)[1]
        reach = (abs(y0[0]) + abs(y0[1]) + (steps + 1) * dy[1] + 1) * steps
        drift, goal = _out(0.0, math.ldexp(reach, 1 - params.ctx.prec))[1], math.log2(top) + 1e-9
    except ArithmeticError:  # no proof beyond the float range, or below 53 bits
        return steps
    if params.ctx.prec < 53 or drift > 1:
        return steps
    sigma, k, n, rate = u[0], 0, 1, 0.0
    low = float(abs(u[0]).bit_length() - 1 + u[1])  # low <= log2 |u| < high
    high = low + 1
    while low < goal:
        n = min(n, int((goal - high - 2) / rate)) if rate and high + rate + 2 < goal else n
        b, room = min(k + n, steps), high + n * rate + 2
        if k == b:
            return k
        e = math.nextafter(math.ldexp(2.0, math.ceil(room)), math.inf) if room < goal else top
        ys = _iadd(_iadd(y0, _imul((float(k), float(b)), dy)), (-drift, drift))
        m = 1 if once or e < top else _PARTS  # u enters the RK stages several times
        try:
            los, his = zip(*[ratio(ys, (a, c) if sigma > 0 else (-c, -a))
                             for a, c in [(e * i / m, e * (i + 1) / m) for i in range(m)]])
            lo, hi = min(los), max(his)
        except ArithmeticError:
            lo = -math.inf
        # log2 of the least and the most a step scales |u| by
        down, up = (math.log1p(lo) / _LN2, math.log1p(hi) / _LN2) if lo > -1 else (-math.inf, 0.0)
        loss = (b - k) * (up - down)
        # halve where lo <= -1, u may leave a tight interval or a chunk loses much
        if lo <= -1 or e < top and high + (b - k) * up > room or n > 1 and (
                loss > _LOSS if e < top else lo < 0):
            if n == 1:
                return k
            n //= 2
            continue
        low = math.nextafter(low + (b - k) * down - 1e-6, -math.inf)
        high = math.nextafter(high + (b - k) * up + 1e-6, math.inf)
        k, n, rate = b, n if e < top and loss > _LOSS / 4 else 2 * n, 2 * max(up, 0.0)
    return None


def _classify(
    kind, scheme, params, rho, delta, escape=None, max_n=None, track_deviation=True,
    start=None, settle=None, lock=False,
):
    """classify_jump, or with settle given a prefix of its orbit (see _iterate).

    The start is split into mantissa pairs once.  A raw orbit iterates the
    one-step map on (x, y) under the kind's stuck rule; a deviation orbit
    (track_deviation on the transcritical diagonal) iterates the deviation
    map on (u, y) under the exact-zero rule and rebuilds x = y + u for the
    result.

    With lock, a full deviation orbit undecided at step k = 16, 32, ... stops
    there once _sign_lock proves its label, or runs on if it fails past k.
    """
    ctx = params.ctx
    if not params.epsilon > 0:
        raise ValueError("jump classification requires epsilon > 0")
    rho = _entry_offset(ctx, rho)
    delta = ctx.mpf(delta)
    if not ctx.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    threshold = _escape_threshold(ctx, escape, rho / 2)
    canard = CANARDS[kind]
    if max_n is None:
        max_n = int(10 * ctx.floor(2 * rho / canard.spacing(params)) + 10)
    if start is None:
        start = canard.start(params, rho, delta)
    elif not (ctx.isfinite(start.x) and ctx.isfinite(start.y)):
        raise ValueError("start point must be finite")
    smap = scheme_map(kind, scheme, params)
    deviation = canard.deviation(params)
    x, y = split(start.x._mpf_), split(start.y._mpf_)
    u0, _ = deviation(x, y)
    if not u0[0] and kind is not SingularityKind.FOLD:
        raise ValueError("start lies exactly on the canard; nothing to classify")
    diagonal = track_deviation and smap.deviation_step is not None
    if diagonal:
        step, x, deviation = smap.deviation_step, u0, _exact_zero
    else:
        step = smap.step
    thr, k = split(threshold._mpf_), min(_LOCK_FIRST, max_n) if lock and diagonal else max_n
    above = u0[0] > 0
    label, n, x, y, u, flip = _iterate(step, deviation, x, y, u0, above, thr, k, settle)
    while label is None and n < max_n:  # undecided at step k
        stop = _sign_lock(smap.deviation_ratio, params, u, y, thr, max_n - k)
        if stop is None:  # u keeps its sign: a prefix that ends here has the full label
            label = _iterate(step, deviation, x, y, u, above, thr, n, 0, n)[0]
            break
        try:  # a fixed point stays there until the budget runs out, as the full orbit does
            if stop and step(u, y) == (u, y):
                label, n = JumpClass.STUCK, max_n
                break
        except PoleError:  # raised again, with its index, by the next step
            pass
        k = min(2 * k, max_n) if stop == 0 else max_n  # stop 0: the band may go on
        label, n, x, y, u, later = _iterate(step, deviation, x, y, u, above, thr, k, None, n)
        flip = later or flip
    label = label or JumpClass.STUCK  # never detached within the budget
    if diagonal:
        x = add(y, u, ctx.prec)
    make = ctx.make_mpf
    return JumpResult(label, n, PlanarPoint(make(pack(x)), make(pack(y))), make(pack(u)), flip)


# ---------------------------------------------------------------------------
# Nonlinear critical step size by bisection
# ---------------------------------------------------------------------------


#: Steps of the geometric scan (ratio 1 + 1/256) from the linearized seed to
#: the first neighbouring pair of scan points labelled RIGHT and LEFT: about a
#: factor 1.87 either way.  The pair may hold many RIGHT/LEFT edges (see
#: critical_h_bisection).
_SCAN_BUDGET = 160

#: Deviation steps a prefix orbit iterates beyond twice its own latest sign
#: change.
_PREFIX_MARGIN = 64


class _NoPrefixLabel(Exception):
    """A prefix deviation collapsed to exactly 0, so its sign gives no label."""


def critical_h_bisection(
    kind: SingularityKind,
    tableau: ButcherTableau,
    rho,
    eps,
    delta,
    digits_target: int,
    ctx: PrecisionContext,
    h_bracket=None,
    max_n: Optional[int] = None,
    track_deviation: bool = True,
) -> CriticalTriplet:
    """Bracket the nonlinear critical step size h* by bisection on h.

    Below h* orbits jump in the correct direction (RIGHT); just above they
    jump in the wrong direction (LEFT).  A caller-provided bracket, which
    is fully classified first, or else the first neighbouring pair of a
    geometric scan (ratio 1 + 1/256) from the linearized critical step
    (with the kind's stage factor, see q_s) whose points are labelled RIGHT
    and LEFT, is bisected until it is narrower than 10^(-digits_target)
    relative.  The returned triplet carries the bracket, whose ends are
    fully classified RIGHT and LEFT; h_star is its midpoint.

    The label flips because entry multipliers 1 + h Q_s turn negative.
    While they are negative the deviation changes sign at every step, so it
    changes sign only within an early band of steps, never after it, and the
    label is the parity of the number of those sign changes.  One bracket
    can therefore hold many RIGHT/LEFT edges, and the bisection returns one
    of them, not necessarily the lowest.  On the Kutta3 row rho = 8,
    eps = 0.01 at 200 digits, the scan bracket [0.0999548, 0.1003452] has
    ends whose deviations change sign at steps 1-16 and 1-47, so it holds
    about 31 edges; the bisection returns the 30 -> 31 edge
    (0.1001378-0.1001439), while the lowest edge in the bracket is the
    16 -> 17 one at h = 0.0999618198.

    With track_deviation (the default), the scan points and the midpoints
    are therefore labelled from prefixes of their orbits, in deviation
    coordinates on the transcritical diagonal and in raw coordinates, where
    x is the deviation, on the pitchfork line, for every tableau.  Each
    prefix stops when it escapes, at twice its own latest sign change plus
    _PREFIX_MARGIN steps, or at max_n; one that did not escape is labelled
    by the sign of its deviation against the entry side.  Only the final
    bracket's ends that are not the caller's are fully classified, each
    orbit stopped once _sign_lock proves its label (see _classify).  If one
    of them does not confirm its prefix label, or a prefix deviation
    collapses to exactly 0, the search starts over with a full
    classification at every scan point and midpoint, which is what
    track_deviation=False always does, and returns the bracket that search
    finds.

    digits_target must lie in [1, ctx.digits), max_n, when given, be at
    least 1, and a bracket's ends satisfy 0 < h_lo < h_hi < inf.
    """
    if not 1 <= digits_target < ctx.digits:
        raise ValueError(
            f"digits target must be between 1 and {ctx.digits - 1} "
            f"(below the working digits), got {digits_target}"
        )
    if max_n is not None and max_n < 1:
        raise ValueError(f"iteration budget must be >= 1, got {max_n}")
    if h_bracket is not None:
        lo, hi = (ctx.mpf(v) for v in h_bracket)
        for name, v, text in zip(("h_lo", "h_hi"), (lo, hi), h_bracket):
            if not (v > 0 and ctx.isfinite(v)):
                raise ValueError(f"bracket end {name} must be finite and > 0, got {text}")
        if not lo < hi:
            raise ValueError(f"bracket needs h_lo < h_hi, got h_lo = {h_bracket[0]}, h_hi = {h_bracket[1]}")
    rho, delta = ctx.mpf(rho), ctx.mpf(delta)
    width_bar = ctx.mpf(10) ** (-digits_target)

    def full_label(h):
        params = SystemParams.create(ctx, eps, h)
        return _classify(
            kind, tableau, params, rho, delta, max_n=max_n, track_deviation=track_deviation,
            lock=True,
        ).label

    def prefix_label(h):
        params = SystemParams.create(ctx, eps, h)
        res = _classify(kind, tableau, params, rho, delta, max_n=max_n, settle=_PREFIX_MARGIN)
        if res.label is JumpClass.STUCK:
            raise _NoPrefixLabel
        return res.label

    def scan(label):
        """The first neighbouring RIGHT/LEFT pair of the scan, or None."""
        ratio = 1 + ctx.mpf(1) / 256
        h_prev = h0
        c_prev = label(h_prev)
        # scan up from a RIGHT seed, down from any other
        up = c_prev is JumpClass.RIGHT
        for _ in range(_SCAN_BUDGET):
            h_cur = h_prev * ratio if up else h_prev / ratio
            c_cur = label(h_cur)
            pair = ((h_prev, c_prev), (h_cur, c_cur))
            (h_lo, c_lo), (h_hi, c_hi) = pair if up else pair[::-1]
            if c_lo is JumpClass.RIGHT and c_hi is JumpClass.LEFT:
                return h_lo, h_hi
            h_prev, c_prev = h_cur, c_cur
        return None

    def bisect(label, lo, hi):
        while (hi - lo) > width_bar * hi:
            mid = (lo + hi) / 2
            c_mid = label(mid)
            if c_mid is JumpClass.RIGHT:
                lo = mid
            elif c_mid is JumpClass.LEFT:
                hi = mid
            else:
                raise Unresolved(
                    max_n or -1, f"classification at h={ctx.nstr(mid, 12)} came back stuck"
                )
        return lo, hi

    if h_bracket is not None:
        c_lo, c_hi = full_label(lo), full_label(hi)
        if c_lo is not JumpClass.RIGHT or c_hi is not JumpClass.LEFT:
            raise NoBracket(
                f"provided bracket does not classify RIGHT/LEFT: got {c_lo.value}/{c_hi.value}"
            )
        bracket, h0 = (lo, hi), lo
    else:
        stage_factor = 1 if kind is SingularityKind.PITCHFORK else 2
        seed = linearized_critical_h(tableau, rho, eps, ctx, stage_factor)
        if seed is None:
            raise NoBracket("no linearized critical step size exists to seed the scan")
        bracket, h0 = None, seed * (1 - ctx.mpf(1) / 512)

    found = None
    if track_deviation:
        try:
            found = bracket or scan(prefix_label)
            if found is not None:
                found = bisect(prefix_label, *found)
                ends = zip(found, (JumpClass.RIGHT, JumpClass.LEFT))
                if not all(h in (bracket or ()) or full_label(h) is c for h, c in ends):
                    found = None
        except _NoPrefixLabel:
            found = None
    if found is None:
        found = bracket or scan(full_label)
        if found is None:
            raise NoBracket("no RIGHT/LEFT flip found within the scan budget")
        found = bisect(full_label, *found)
    lo, hi = found
    return CriticalTriplet(rho, (lo + hi) / 2, ctx.mpf(eps), BisectionBracket(lo, hi))


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    rho: object
    eps: object
    h_star: object  # None when no critical step exists
    mode: str
    status: str = "ok"  # ok, no-root, no-bracket, stuck or pole


def sweep_surface(
    tableau: ButcherTableau,
    rho_grid,
    eps_grid,
    mode: str,
    ctx: PrecisionContext,
    delta="1e-4",
    digits_target: int = 3,
) -> list:
    """Critical-step-size surface over a (rho, eps) grid.

    mode "linearized" solves 1 + h Q_s(-rho) = 0 for h cell by cell; mode
    "bisection" locates the nonlinear value per cell.  Cells without a
    solution carry h_star = None and say why in status: "no-root" (no
    linearized critical step), "no-bracket" (no RIGHT/LEFT flip to bisect),
    "stuck" (a bisection midpoint never detached) or "pole" (a step hit a
    pole); a failed cell does not stop the sweep.  For the shipped schemes
    the surfaces come out essentially constant along the eps axis
    (h* ~ const / rho).
    """
    mode = mode.lower()
    if mode not in ("linearized", "bisection"):
        raise ValueError(f"mode must be 'linearized' or 'bisection', got {mode!r}")
    cells = []
    for rho in rho_grid:
        for eps in eps_grid:
            rho_s = ctx.mpf(rho)
            eps_s = ctx.mpf(eps)
            h_star, status = None, "ok"
            if mode == "linearized":
                h_star = linearized_critical_h(tableau, rho_s, eps_s, ctx)
                if h_star is None:
                    status = "no-root"
            else:
                try:
                    h_star = critical_h_bisection(
                        SingularityKind.TRANSCRITICAL, tableau, rho_s, eps_s,
                        delta, digits_target, ctx,
                    ).h_star
                except NoBracket:
                    status = "no-bracket"
                except Unresolved:
                    status = "stuck"
                except PoleError:
                    status = "pole"
            cells.append(SweepCell(rho=rho_s, eps=eps_s, h_star=h_star, mode=mode, status=status))
    return cells
