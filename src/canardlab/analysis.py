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
  * linearized critical triplets (rho*, h*, eps*) solving 1 + h Q_s(-rho) = 0,
    where the one-step multiplier at entry vanishes and the delay blows up;
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

One loop classifies both.  It carries the orbit as signed integer mantissa
pairs (see rounding) and runs step, stuck rule, sign-change record, then
threshold or settle: on (x, y) with the raw one-step map and the kind's
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
from itertools import islice
from typing import Optional, Union

from .linearization import (CANARDS, SchemeSelector, _entry_offset, _escape_threshold,
                            _exact_zero, _iadd, _imul, _out, _poly_add, _poly_mul, _poly_scale,
                            _products, _stage_polynomial, enclose, q_s, scheme_map)
from .precision import PrecisionContext
from .rounding import abs_le, add, div, lt, mul, pack, split, sub
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


def qs_polynomial(tableau: ButcherTableau, params: SystemParams):
    """Coefficients (ascending) of Q_s as a polynomial in the canard position."""
    ctx = params.ctx
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    return [ctx.make_mpf(pack(c)) for c in _stage_polynomial(tableau, ctx, [_ZERO, _ONE], [h], eps)]


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
    and > 0.
    """
    ctx = params.ctx
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

    @property
    def exit_index(self) -> int:
        return self.n_in + self.psi


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
    Raises Unresolved, before any step, if n_in exceeds max_n, and if psi
    is not found within max_n steps past the center.
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
        raise Unresolved(max_n, f"way-in N = {n_in} exceeds the budget of {max_n} steps")
    bar = split((1 - ctx.tol(10))._mpf_)
    products = islice(_products(factor, rho, spacing, ctx.prec), n_in + max_n + 1)
    for n, (_, _, prod) in enumerate(products):
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

    source is "linearized" for roots of 1 + h Q_s(-rho) = 0 and a
    BisectionBracket for values located from the nonlinear system.
    """

    rho_star: object
    h_star: object
    eps_star: object
    source: Union[str, BisectionBracket]


#: The linearized solvers search h in (0, _H_CAP / rho] and rho in (0, _RHO_CAP / h].
_H_CAP = 10
_RHO_CAP = 10


def _horner(p, x, prec):
    """The polynomial p (ascending pairs) at the pair x, by Horner's rule."""
    acc = _ZERO
    for c in reversed(p):
        acc = add(mul(acc, x, prec), c, prec)
    return acc


def _newton_in_bracket(p, dp, a, b, fa, tol, prec):
    """Root of p on [a, b], where p is monotone and changes sign, by safeguarded Newton.

    Convergence (a Newton step of at most tol relative) is tested before the
    bracket safeguard, so the converged iterate is returned; a step that
    leaves the bracket is replaced by bisection.  Comparisons are exact.
    """
    t = None
    while True:
        if t is not None and lt(a, t) and lt(t, b):
            x = t
        else:
            m, e = add(a, b, prec)
            x = (m, e - 1)
        fx = _horner(p, x, prec)
        if not fx[0]:
            return x
        if (fx[0] < 0) == (fa[0] < 0):
            a = x
        else:
            b = x
        d, t = _horner(dp, x, prec), None
        bar = mul(tol, x, prec)
        if d[0]:
            step = div(fx, d, prec)
            t = sub(x, step, prec)
            if not lt(bar, (abs(step[0]), step[1])):
                return t
        if not lt(bar, sub(b, a, prec)):
            return x


def _sign_changes(p, hi, tol, prec, first=False):
    """Ascending roots in (0, hi] of the polynomial p (pairs) at which it changes sign.

    The sign changes of p' (found the same way, down to a constant) cut
    (0, hi] into pieces on which p is monotone; a piece whose end values
    differ in sign holds one, polished by _newton_in_bracket, and a piece
    ending in an exact zero of p yields that end.  first=True stops at the
    first.
    """
    while len(p) > 1 and not p[-1][0]:
        p = p[:-1]
    if len(p) < 2:
        return []
    dp = [mul((i, 0), c, prec) for i, c in enumerate(p) if i]
    cuts = [_ZERO, *_sign_changes(dp, hi, tol, prec), hi]
    roots, fa = [], _horner(p, cuts[0], prec)
    for a, b in zip(cuts, cuts[1:]):
        fb = _horner(p, b, prec)
        if fa[0] and (not fb[0] or (fa[0] < 0) != (fb[0] < 0)):
            roots.append(b if not fb[0] else _newton_in_bracket(p, dp, a, b, fa, tol, prec))
            if first:
                break
        fa = fb
    return roots


def _first_root(tableau, ctx, x, h, eps, hi, stage_factor=2):
    """First sign change in (0, hi] of 1 + h Q_s(x) (x, h polynomials of pairs), or None."""
    prec = ctx.prec
    q = _stage_polynomial(tableau, ctx, x, h, split(eps._mpf_), stage_factor)
    p = _poly_add([_ONE], _poly_mul(h, q, prec), prec)
    roots = _sign_changes(p, split(hi._mpf_), split(ctx.tol(8)._mpf_), prec, first=True)
    return ctx.make_mpf(pack(roots[0])) if roots else None


def critical_triplet_linearized(
    tableau: ButcherTableau, h, eps, ctx: PrecisionContext
) -> Optional[CriticalTriplet]:
    """Smallest rho in (0, 10/h] with 1 + h Q_s(-rho) = 0, or None if no sign change.

    At fixed (h, eps), 1 + h Q_s(-rho) is a polynomial of degree s in rho.
    Its first sign change in (0, 10/h] is isolated between the sign changes
    of its derivative (found the same way, down to a constant) and polished
    by bracket-safeguarded Newton to the context's precision, on mantissa
    pairs; nothing is scanned.  The cap 10/h is fixed: larger entries fall
    outside the local canonical-form regime.  Forward Euler gives
    rho* = 1/(2h) exactly; where a scheme has no sign change below the cap
    (heun2 at h = 0.1, eps = 0.01) the result is None.
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
    """Smallest h in (0, 10/rho] with 1 + h Q_s(-rho; h, eps) = 0, or None.

    This is the critical-triplet equation solved for the step size at fixed
    (rho, eps), the quantity plotted by the critical-surface sweeps.  At
    fixed (rho, eps) it is a polynomial of degree at most 2s in h, equal to
    1 at h = 0; its first sign change in (0, 10/rho] is isolated and
    polished as in critical_triplet_linearized, with no scan.  The cap
    10/rho is fixed; it is what leaves heun2 without a root in most cells
    of the README grid.  stage_factor is q_s's: 2 on the transcritical
    diagonal, 1 on the pitchfork line (forward Euler's root is then
    1/(c rho)).
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


def _iterate(step, deviation, x, y, u, thr, max_n, settle=None, n=0):
    """The classification loop, on mantissa pairs: (label, steps, x, y, u, last sign change).

    step(x, y) advances the orbit by one step: a one-step map on (x, y), or
    a deviation map on (u, y).  deviation(x, y) -> (u, stuck) is then the
    kind's deviation and stuck rule (see linearization.Canard), or the
    exact-zero rule.  u is the deviation at the start.  The orbit is STUCK
    when the rule says so or the budget runs out, and is decided once |u|
    reaches the threshold thr, by the side it leaves on against u's.  The
    step of the last sign change of u is recorded.

    settle, when given, makes the run a prefix: it also stops at step n >=
    2 x (its last sign change so far) + settle, or at max_n, and is then
    decided by the sign of u against the start's.  The orbit starts at step n.
    """
    entered_above = u[0] > 0
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
            break
        if (u[0] < 0) != negative:
            negative, flip = not negative, n
        if abs_le(thr, u) or n >= settled + 2 * flip:
            break
    else:
        stuck = settle is None
    if stuck:
        return JumpClass.STUCK, n, x, y, u, flip
    label = JumpClass.RIGHT if (u[0] > 0) == entered_above else JumpClass.LEFT
    return label, n, x, y, u, flip


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
_PARTS, _LOSS, _LOCK_FIRST = 8, 16, 16


def _sign_lock(ratio, params, u, y, thr, steps):
    """None once the deviation orbit from (u, y) surely escapes within steps with u's sign.

    ratio() encloses the deviation step's ratio u'/u (see linearization), here
    over steps a..b ahead: y in y + [a, b] eps h plus the 2**-prec |y| each step
    may round y by, u in sigma [0, e].  Where lo > 0 these steps keep u's sign
    and scale |u| by lo to hi.  Bounds on log2 |u| grow over chunks that double,
    or halve where lo <= 0 or they lose _LOSS bits; e is the upper bound's reach
    until that meets thr.  Else the steps got through are returned.
    """
    heps = mul(split(params.h._mpf_), split(params.epsilon._mpf_), params.ctx.prec)
    try:
        ratio, y0, dy, top = ratio(), enclose(y), enclose(heps), enclose(thr)[1]
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
        m = 1 if e < top else _PARTS  # u enters the RK stages several times
        try:
            parts = [ratio(ys, (a, c) if sigma > 0 else (-c, -a))
                     for a, c in ((e * i / m, e * (i + 1) / m) for i in range(m))]
            lo, hi = min(p[0] for p in parts), max(p[1] for p in parts)
        except ArithmeticError:
            lo, hi = -math.inf, math.inf
        loss = (b - k) * math.log2(hi / lo) if lo > 0 else math.inf
        # halve where lo <= 0, u may leave a tight interval or a chunk loses much
        if lo <= 0 or e < top and high + (b - k) * math.log2(hi) > room or n > 1 and (
                loss > _LOSS if e < top else lo < 1):
            if n == 1:
                return k
            n //= 2
            continue
        low = math.nextafter(low + (b - k) * math.log2(lo) - 1e-6, -math.inf)
        high = math.nextafter(high + (b - k) * math.log2(hi) + 1e-6, math.inf)
        k, n, rate = b, n if e < top and loss > _LOSS / 4 else 2 * n, 2 * max(math.log2(hi), 0.0)
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
    label, n, x, y, u, flip = _iterate(step, deviation, x, y, u0, thr, k, settle)
    while n == k < max_n and u[0] and not abs_le(thr, u):  # undecided at step k
        stop = _sign_lock(smap.deviation_ratio, params, u, y, thr, max_n - k)
        if stop is None:
            label = None
            break
        k, at = min(2 * k, max_n) if stop == 0 else max_n, k  # stop 0: the band may go on
        label, n, x, y, u, later = _iterate(step, deviation, x, y, u, thr, k, None, at)
        flip = later or flip
    if label is not JumpClass.STUCK:  # against the sign of u at the start
        label = JumpClass.RIGHT if (u[0] > 0) == (u0[0] > 0) else JumpClass.LEFT
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
