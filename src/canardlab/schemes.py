"""One-step maps for the canonical fast-slow systems.

Four families:

  * forward Euler and general explicit Runge-Kutta maps built from a Butcher
    tableau (weights alpha_i, strictly lower-triangular coefficients a_ij);
  * Kahan's bilinear discretization of quadratic vector fields, which is
    explicit and birational (the inverse step is the step with -h), given in
    closed form for the transcritical and fold systems and generically via
    zneW = z + h (Id - (h/2) Df(z))^{-1} f(z);
  * the one-parameter family of symmetric, A-stable, second-order implicit
    schemes

        (xnew - x)/h = a f(x) + (1-2a) f((x+xnew)/2) + a f(xnew),

    applied to the pitchfork (a = 1/2 is the trapezoid rule, a = 0 the
    midpoint rule, a = -1/2 the Kahan method); the pitchfork's cubic term
    makes the update an implicit scalar equation of degree <= 3 in xnew.

Tableau coefficients are stored as exact Fractions and bound to a precision
context at evaluation time, so a tableau can serve contexts of any precision
without accumulating conversion error.  The bound coefficients are cached
per tableau as mantissa pairs keyed by the binary precision, so each
precision pays for the Fraction conversions once; the exact critical
polynomial 1 + h Q_s(x; h, eps), which every RK linearization reads, is
built once per tableau and stage factor, as integers over one denominator.

Every one-step map is a kernel on signed integer mantissa pairs (see
rounding), built once per orbit: forward Euler, explicit RK, both Kahan
maps and the implicit pitchfork family, and for the jump classification the
transcritical Euler, RK and Kahan maps in deviation coordinates.  Each
rounds every operation (divisions included) like the mpf expression it
stands for, so the values are those of mpf arithmetic, bit for bit.
Products by h and the other per-orbit constants (h a_ij, alpha_i, eps, q, a
and 1 - 2a) use a rounding.scaler, linear-time for decimal constants at high
precision.  The pitchfork has no deviation map: on its line {x = 0} the
deviation is x itself.  A loop splits its start once and packs only what it
reports; the public steppers split and pack one point.  Only the implicit
family's rare cubic fallback finds its root with mpmath's polyroots, in a
variable scaled by a power of two to the size of the roots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial, reduce
from math import lcm
from typing import Optional

from .precision import NoConvergence, PrecisionContext
from .rounding import add, div, le_product, mul, negligible, pack, rn, scaler, split, sub
from .systems import PlanarPoint, SingularityKind, SystemParams


class PoleError(ArithmeticError):
    """A rational one-step map was evaluated at a pole of its denominator.

    For orbit iteration the offending iterate index is attached as .index.
    """

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class NoRealBranch(ArithmeticError):
    """The implicit update equation has no real solution near the predictor."""


# ---------------------------------------------------------------------------
# Butcher tableaux
# ---------------------------------------------------------------------------


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class ButcherTableau:
    """Explicit Runge-Kutta tableau: weights alpha and coefficients a_ij.

    a is stored as one row per stage, row i (0-based) holding the i entries
    a_{i+1,1} .. a_{i+1,i}; strict lower-triangularity is structural.
    Consistency (sum of weights = 1) is required: it is what moves the
    canard at slow speed eps*h per step.
    """

    name: str
    alpha: tuple
    a: tuple
    # precision in bits -> (alpha, a-rows) as mantissa pairs, which the step
    # kernels read; plain tuples only, so contexts still share no mutable state
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # stage factor -> critical_polynomial's (terms, denominator)
    _critical: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha = tuple(_frac(v) for v in self.alpha)
        rows = tuple(tuple(_frac(v) for v in row) for row in self.a)
        if len(rows) != len(alpha):
            raise ValueError("need one coefficient row per stage")
        for i, row in enumerate(rows):
            if len(row) != i:
                raise ValueError(f"stage {i + 1} must have exactly {i} coefficients (explicit scheme)")
        if sum(alpha) != 1:
            raise ValueError(f"tableau {self.name!r}: weights must sum to 1, got {sum(alpha)}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "a", rows)

    @property
    def s(self) -> int:
        return len(self.alpha)

    def row_sums(self) -> tuple:
        """A_i = sum_j a_ij as exact Fractions (A_1 = 0)."""
        return tuple(sum(row, Fraction(0)) for row in self.a)

    def pairs(self, ctx: PrecisionContext):
        """Coefficients at ctx's precision as mantissa pairs: (alpha, a-rows)."""
        if ctx.prec not in self._pairs:
            def bind(values):
                return tuple(split(ctx.mpf(v)._mpf_) for v in values)

            self._pairs[ctx.prec] = (bind(self.alpha), tuple(map(bind, self.a)))
        return self._pairs[ctx.prec]

    def critical_polynomial(self, c):
        """1 + h Q_s(x; h, eps) with stage factor c, exactly: ((i, j, k, n), ...) and D > 0.

        n / D is the coefficient of h**i x**j eps**k, every n nonzero: the stage recursion
        dk_i = c (x + h eps A_i) (1 + h sum_j a_ij dk_j), Q_s = sum_i alpha_i dk_i, run once
        per stage factor on Counters from exponents (i, j, k) to Fractions.
        """
        if c not in self._critical:
            def one_plus_h(fs, ps):  # 1 + h sum_i f_i p_i
                out = Counter({(0, 0, 0): 1})
                for f, p in zip(fs, ps):
                    out.update({(i + 1, j, k): f * v for (i, j, k), v in p.items()})
                return out

            dk = []
            for row, a_i in zip(self.a, self.row_sums()):
                inner = one_plus_h(row, dk)
                dk.append(Counter({(i, j + 1, k): c * v for (i, j, k), v in inner.items()}))
                dk[-1].update({(i + 1, j, k + 1): c * a_i * v for (i, j, k), v in inner.items()})
            poly = {key: v for key, v in one_plus_h(self.alpha, dk).items() if v}
            den = lcm(*(Fraction(v).denominator for v in poly.values()))
            self._critical[c] = tuple((*key, int(v * den)) for key, v in sorted(poly.items())), den
        return self._critical[c]


EULER = ButcherTableau("euler", (1,), ((),))
HEUN2 = ButcherTableau("heun2", (Fraction(1, 2), Fraction(1, 2)), ((), (1,)))
KUTTA3 = ButcherTableau(
    "kutta3",
    (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)),
    ((), (Fraction(1, 2),), (-1, 2)),
)
HEUN3 = ButcherTableau(
    "heun3",
    (Fraction(1, 4), 0, Fraction(3, 4)),
    ((), (Fraction(1, 3),), (0, Fraction(2, 3))),
)
RALSTON3 = ButcherTableau(
    "ralston3",
    (Fraction(2, 9), Fraction(1, 3), Fraction(4, 9)),
    ((), (Fraction(1, 2),), (0, Fraction(3, 4))),
)
SSPRK3 = ButcherTableau(
    "ssprk3",
    (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)),
    ((), (1,), (Fraction(1, 4), Fraction(1, 4))),
)

SHIPPED_TABLEAUX = {
    t.name: t for t in (EULER, HEUN2, KUTTA3, HEUN3, RALSTON3, SSPRK3)
}

#: The tableaux used for the critical-triplet surface figures: Euler plus the
#: four common third-order schemes.  (heun2 is shipped too and has critical
#: step sizes, e.g. h* = 1 at rho = eps = 1, but is not one of the figures.)
SURFACE_TABLEAUX = ("euler", "kutta3", "heun3", "ralston3", "ssprk3")


def load_tableau_file(path, name: Optional[str] = None) -> ButcherTableau:
    """Load a tableau from a plain-text table file.

    Format: first non-comment line is the stage count s, the next line the s
    weights, then s-1 rows of the strictly lower triangle (row for stage i
    has i-1 entries).  Entries are decimal strings or exact rationals like
    "1/6"; '#' starts a comment.  A malformed stage count or entry, one with
    a zero denominator, or weights not summing to 1 raise a ValueError naming the file.
    """

    def entry(tok) -> Fraction:
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            raise ValueError(f"{path}: entry {tok!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"{path}: entry {tok!r} is not a number") from None

    with open(path, "r", encoding="utf-8") as fh:
        lines = []
        for raw in fh:
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                lines.append(stripped)
    if not lines:
        raise ValueError(f"{path}: empty tableau file")
    try:
        s = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: stage count {lines[0]!r} is not an integer") from None
    if s < 1:
        raise ValueError(f"{path}: stage count must be >= 1, got {s}")
    if len(lines) != 1 + 1 + (s - 1):
        raise ValueError(f"{path}: expected {1 + s} content lines for s={s}, got {len(lines)}")
    alpha = tuple(entry(tok) for tok in lines[1].split())
    if len(alpha) != s:
        raise ValueError(f"{path}: weight row must have {s} entries")
    if sum(alpha) != 1:
        raise ValueError(f"{path}: weights must sum to 1, got {sum(alpha)}")
    rows = [()]
    for i in range(2, s + 1):
        toks = lines[i].split()
        if len(toks) != i - 1:
            raise ValueError(f"{path}: row for stage {i} must have {i - 1} entries")
        rows.append(tuple(entry(tok) for tok in toks))
    if name is None:
        name = str(path)
    return ButcherTableau(name, alpha, tuple(rows))


# ---------------------------------------------------------------------------
# Explicit steppers
# ---------------------------------------------------------------------------


def euler_kernel(kind: SingularityKind, params: SystemParams):
    """Forward-Euler step on mantissa pairs (see rounding).

    Returns step(x, y) -> (xnew, ynew), the update p + h * f(p) with every
    operation rounded to nearest at the context's precision, in the order
    of the mpf expression, so the values are bit-identical to mpf
    arithmetic on the same values; h * eps is formed once.
    """
    prec = params.ctx.prec
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    heps, by_h = mul(h, eps, prec), scaler(h, prec)
    if kind is SingularityKind.TRANSCRITICAL:

        def step(x, y):
            t = add(sub(mul(x, x, prec), mul(y, y, prec), prec), eps, prec)
            return add(x, by_h(t), prec), add(y, heps, prec)

    elif kind is SingularityKind.PITCHFORK:

        def step(x, y):
            t = mul(x, sub(y, mul(x, x, prec), prec), prec)
            return add(x, by_h(t), prec), add(y, heps, prec)

    elif kind is SingularityKind.FOLD:
        by_eps = scaler(eps, prec)

        def step(x, y):
            t = sub(mul(x, x, prec), y, prec)
            return add(x, by_h(t), prec), add(y, by_h(by_eps(x)), prec)

    else:
        raise ValueError(f"unknown singularity kind: {kind!r}")
    return step


def _stage_plan(tableau: ButcherTableau, params: SystemParams, slow):
    """(rows, weights): an RK stage recursion's per-orbit constants, for slow slope slow.

    Per stage, rows holds whether its first a_ij is 0 (the stage point is then
    rounded, as adding the zero product did) and (j, scaler by h a_ij,
    (h a_ij) slow) for each nonzero a_ij; weights holds (i, scaler by alpha_i)
    for each nonzero alpha_i.  Other zero products would leave a sum as it is.
    """
    prec = params.ctx.prec
    h = split(params.h._mpf_)
    alpha, rows = tableau.pairs(params.ctx)
    plan = []
    for row in rows:
        hrow = [(j, mul(h, aij, prec)) for j, aij in enumerate(row) if aij[0]]
        plan.append((bool(row) and not row[0][0],
                     [(j, scaler(ha, prec), mul(ha, slow, prec)) for j, ha in hrow]))
    return plan, [(i, scaler(ai, prec)) for i, ai in enumerate(alpha) if ai[0]]


def rk_kernel(tableau: ButcherTableau, kind: SingularityKind, params: SystemParams):
    """Explicit Runge-Kutta step on mantissa pairs, for the transcritical or pitchfork system.

    (x + h sum_i alpha_i k_i, y + h sum_i alpha_i eps), k_i the fast slope at
    (x + sum_j (h a_ij) k_j, y + sum_j (h a_ij) eps): the slow slope is always
    eps, so (h a_ij) eps and h sum_i alpha_i eps are formed once.  At s = 1
    this is euler_kernel; on the transcritical diagonal every k_i is eps, so
    the canard set stays invariant.
    """
    prec = params.ctx.prec
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    field = {
        SingularityKind.TRANSCRITICAL: lambda x, y: add(sub(mul(x, x, prec), mul(y, y, prec), prec), eps, prec),
        SingularityKind.PITCHFORK: lambda x, y: mul(x, sub(y, mul(x, x, prec), prec), prec),
    }.get(kind)
    if field is None:
        raise ValueError("explicit RK steps are provided for the transcritical and pitchfork systems")
    plan, ((i0, by_a0), *weights) = _stage_plan(tableau, params, eps)
    dy = reduce(partial(add, prec=prec), (by_ai(eps) for _, by_ai in weights), by_a0(eps))
    h_dy, by_h = mul(h, dy, prec), scaler(h, prec)

    def step(x, y):
        ks = []
        for round_first, entries in plan:
            sx, sy = (rn(*x, prec), rn(*y, prec)) if round_first else (x, y)
            for j, by_ha, ha_eps in entries:
                sx = add(sx, by_ha(ks[j]), prec)
                sy = add(sy, ha_eps, prec)
            ks.append(field(sx, sy))
        dx = by_a0(ks[i0])
        for i, by_ai in weights:
            dx = add(dx, by_ai(ks[i]), prec)
        return add(x, by_h(dx), prec), add(y, h_dy, prec)

    return step


# Deviation-coordinate steps (u, y) -> (unew, y + eps h) on mantissa pairs,
# with u = x - y the deviation from the transcritical diagonal: the same shape
# as a one-step map, so the one classification loop iterates either.  Each
# returns the values of the mpf expression it stands for.  2 v is the pair
# (m, e + 1), rounded in case v is longer than the precision.  Along the
# canard u is exponentially small, so on most steps a sum with u, or with a
# stage slope d_j, rounds to its other operand: the kernels skip such sums
# (see rounding.negligible) and keep that operand.  The pitchfork needs
# none: on the line {x = 0} the deviation is x itself.

_ZERO, _ONE = (0, 0), (1, 0)


def euler_deviation_kernel(params: SystemParams):
    """Transcritical forward Euler: u (1 + h (2y + u)); 2y + u = 2y while u is negligible."""
    prec = params.ctx.prec
    h = split(params.h._mpf_)
    heps, by_h = mul(h, split(params.epsilon._mpf_), prec), scaler(h, prec)

    def step(u, y):
        s = rn(y[0], y[1] + 1, prec)
        if not negligible(u, s, prec):
            s = add(s, u, prec)
        return mul(u, add(by_h(s), _ONE, prec), prec), add(y, heps, prec)

    return step


def rk_deviation_kernel(tableau: ButcherTableau, params: SystemParams):
    """Transcritical explicit RK: u + h sum_i alpha_i d_i.

    d_i = u_i s_i with u_i = u + sum_j (h a_ij) d_j and
    s_i = (2y + u) + sum_j (h a_ij) (d_j + 2 eps), with the stage plan for
    slow slope 2 eps.  Each step forms d_j + 2 eps once per stage, or takes
    h a_ij (2 eps) while d_j is negligible against 2 eps.
    """
    prec = params.ctx.prec
    h, (em, ee) = split(params.h._mpf_), split(params.epsilon._mpf_)
    heps, by_h = mul(h, (em, ee), prec), scaler(h, prec)
    two_eps = rn(em, ee + 1, prec)
    plan, ((i0, by_a0), *weights) = _stage_plan(tableau, params, two_eps)

    def step(u, y):
        s = rn(y[0], y[1] + 1, prec)
        if not negligible(u, s, prec):
            s = add(s, u, prec)
        ds, es = [], []
        for round_u, entries in plan:
            ui, si = rn(*u, prec) if round_u else u, s
            for j, by_ha, ha_two_eps in entries:
                ui = add(ui, by_ha(ds[j]), prec)
                e = es[j]
                si = add(si, ha_two_eps if e is None else by_ha(e), prec)
            d = mul(ui, si, prec)
            ds.append(d)
            es.append(None if negligible(d, two_eps, prec) else add(d, two_eps, prec))
        du = by_a0(ds[i0])
        for i, by_ai in weights:
            du = add(du, by_ai(ds[i]), prec)
        return add(u, by_h(du), prec), add(y, heps, prec)

    return step


def kahan_deviation_kernel(params: SystemParams):
    """Transcritical Kahan: u (1 + h y + eps h h) / (1 - h (y + u)); y + u = y while u is negligible."""
    prec = params.ctx.prec
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    heps, by_h = mul(h, eps, prec), scaler(h, prec)
    num_eps = mul(heps, h, prec)

    def step(u, y):
        yu = y if negligible(u, y, prec) else add(y, u, prec)
        den = sub(_ONE, by_h(yu), prec)
        if not den[0]:
            raise PoleError("transcritical Kahan step hit its pole")
        num = add(add(by_h(y), _ONE, prec), num_eps, prec)
        return div(mul(u, num, prec), den, prec), add(y, heps, prec)

    return step


def _on_point(step, params: SystemParams, p: PlanarPoint) -> PlanarPoint:
    """A pair kernel's step at p, packed into scalars of params.ctx; ValueError at an inf or NaN."""
    make = params.ctx.make_mpf
    return PlanarPoint(*(make(pack(v)) for v in step(split(p.x._mpf_), split(p.y._mpf_))))


def rk_step(tableau: ButcherTableau, kind: SingularityKind, params: SystemParams, p: PlanarPoint) -> PlanarPoint:
    """Explicit Runge-Kutta update of the transcritical or pitchfork system (see rk_kernel)."""
    return _on_point(rk_kernel(tableau, kind, params), params, p)


# ---------------------------------------------------------------------------
# Kahan maps
# ---------------------------------------------------------------------------


def kahan_transcritical_kernel(params: SystemParams):
    """Kahan update of the transcritical system on mantissa pairs (birational).

    xnew = (x + eps h - (h y) ynew) / (1 - h x),  ynew = y + eps h; the
    inverse step is the step with -h.  Pole at x = 1/h.
    """
    prec = params.ctx.prec
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    eh, by_h = mul(eps, h, prec), scaler(h, prec)

    def step(x, y):
        den = sub(_ONE, by_h(x), prec)
        if not den[0]:
            raise PoleError("transcritical Kahan step evaluated at its pole x = 1/h")
        yn = add(y, eh, prec)
        return div(sub(add(x, eh, prec), mul(by_h(y), yn, prec), prec), den, prec), yn

    return step


def kahan_fold_kernel(params: SystemParams):
    """Kahan update of the fold system on mantissa pairs (birational), q = h^2 eps/4.

    xnew = (x - h y - q x) / (1 - h x + q)
    ynew = (y - h x y - 2 q x x + h eps x - q y) / (same)
    The inverse is the step with -h; q and the scalers by h, q, 2q and h eps are formed once.
    """
    prec = params.ctx.prec
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    qm, qe = mul(mul(h, h, prec), eps, prec)
    q = (qm, qe - 2)
    by_h, by_q, by_2q, by_heps = (scaler(v, prec) for v in (h, q, (qm, qe - 1), mul(h, eps, prec)))

    def step(x, y):
        hx = by_h(x)
        den = add(sub(_ONE, hx, prec), q, prec)
        if not den[0]:
            raise PoleError("fold Kahan step evaluated at its pole x = (1 + h^2 eps/4)/h")
        xn = sub(sub(x, by_h(y), prec), by_q(x), prec)
        yn = sub(sub(y, mul(hx, y, prec), prec), mul(by_2q(x), x, prec), prec)
        yn = sub(add(yn, by_heps(x), prec), by_q(y), prec)
        return div(xn, den, prec), div(yn, den, prec)

    return step


def kahan_step_transcritical(params: SystemParams, p: PlanarPoint, reverse: bool = False) -> PlanarPoint:
    """Kahan update of the transcritical system (see kahan_transcritical_kernel); reverse applies h -> -h."""
    return _on_point(kahan_transcritical_kernel(replace(params, h=-params.h) if reverse else params), params, p)


def kahan_step_fold(params: SystemParams, p: PlanarPoint, reverse: bool = False) -> PlanarPoint:
    """Kahan update of the fold system (see kahan_fold_kernel); reverse applies h -> -h."""
    return _on_point(kahan_fold_kernel(replace(params, h=-params.h) if reverse else params), params, p)


@dataclass(frozen=True)
class QuadraticField:
    """Planar quadratic vector field f(z) = Q(z) + B z + c.

    q1 and q2 hold the (x^2, xy, y^2) coefficients of the two components'
    quadratic forms; b is the 2x2 linear part, c the constant part.
    """

    q1: tuple
    q2: tuple
    b: tuple
    c: tuple

    @classmethod
    def transcritical(cls, ctx: PrecisionContext, epsilon) -> "QuadraticField":
        eps = ctx.mpf(epsilon)
        zero = ctx.mpf(0)
        one = ctx.mpf(1)
        return cls(
            q1=(one, zero, -one),
            q2=(zero, zero, zero),
            b=((zero, zero), (zero, zero)),
            c=(eps, eps),
        )

    @classmethod
    def fold(cls, ctx: PrecisionContext, epsilon) -> "QuadraticField":
        eps = ctx.mpf(epsilon)
        zero = ctx.mpf(0)
        one = ctx.mpf(1)
        return cls(
            q1=(one, zero, zero),
            q2=(zero, zero, zero),
            b=((zero, -one), (eps, zero)),
            c=(zero, zero),
        )

    def value(self, p: PlanarPoint) -> PlanarPoint:
        x, y = p.x, p.y
        xx, xy, yy = x * x, x * y, y * y
        f1 = self.q1[0] * xx + self.q1[1] * xy + self.q1[2] * yy + self.b[0][0] * x + self.b[0][1] * y + self.c[0]
        f2 = self.q2[0] * xx + self.q2[1] * xy + self.q2[2] * yy + self.b[1][0] * x + self.b[1][1] * y + self.c[1]
        return PlanarPoint(f1, f2)

    def jacobian(self, p: PlanarPoint) -> tuple:
        x, y = p.x, p.y
        j11 = 2 * self.q1[0] * x + self.q1[1] * y + self.b[0][0]
        j12 = self.q1[1] * x + 2 * self.q1[2] * y + self.b[0][1]
        j21 = 2 * self.q2[0] * x + self.q2[1] * y + self.b[1][0]
        j22 = self.q2[1] * x + 2 * self.q2[2] * y + self.b[1][1]
        return ((j11, j12), (j21, j22))


def kahan_step_general(field: QuadraticField, h, p: PlanarPoint) -> PlanarPoint:
    """Kahan update of a general planar quadratic field.

    znew = z + h (Id - (h/2) Df(z))^{-1} f(z); raises PoleError when the
    2x2 matrix is singular.  Coincides with the specialized transcritical
    and fold maps when the field encodes those systems.
    """
    f = field.value(p)
    (j11, j12), (j21, j22) = field.jacobian(p)
    m11 = 1 - h * j11 / 2
    m12 = -h * j12 / 2
    m21 = -h * j21 / 2
    m22 = 1 - h * j22 / 2
    det = m11 * m22 - m12 * m21
    if det == 0:
        raise PoleError("Kahan step: Id - (h/2) Df(z) is singular at this point")
    gx = (m22 * f.x - m12 * f.y) / det
    gy = (m11 * f.y - m21 * f.x) / det
    return PlanarPoint(p.x + h * gx, p.y + h * gy)


# ---------------------------------------------------------------------------
# Symmetric implicit family for the pitchfork
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchInfo:
    """Root-selection record of an implicit step."""

    method: str
    residual: object


@dataclass(frozen=True)
class StepResult:
    point: PlanarPoint
    branch_info: Optional[BranchInfo] = None


_AFAMILY_MAX_NEWTON = 200
_THREE = (3, 0)


# The implicit relation and its slope on mantissa pairs, rounded like the mpf
# expressions x + h (a f(x, y) + b f(mx, my) + a f(xn, yn)) - xn and
# h (b (my - 3 mx mx)/2 + a (yn - 3 xn xn)) - 1, with f(x, y) = x y - x x x,
# b = 1 - 2a, mx = (x + xn)/2 and my = (y + yn)/2; a, b and h are scalers.
# af_old = a f(x, y) is formed once per step and mx once per candidate xn;
# halving is exact, so it is an exponent shift.  The term plan: b (a = 1/2)
# or a (a = 0) is None where it is exactly 0 and its terms are not formed (at
# a = 1/2 mx and my go unused).  The sum the zero term made was one more rn
# of a rounded value, which can change only how a power of two is written,
# never a value, so it is not formed either.


def _pitchfork_f(x, y, prec):
    return sub(mul(x, y, prec), mul(mul(x, x, prec), x, prec), prec)


def _afamily_residual_pair(a, b, h, x, af_old, my, yn, xn, mx, prec):
    if a is None:
        f = b(_pitchfork_f(mx, my, prec))
    else:
        f = af_old if b is None else add(af_old, b(_pitchfork_f(mx, my, prec)), prec)
        f = add(f, a(_pitchfork_f(xn, yn, prec)), prec)
    return sub(add(x, h(f), prec), xn, prec)


def _afamily_slope_pair(a, b, h, my, yn, xn, mx, prec):
    d_new = a(sub(yn, mul(mul(_THREE, xn, prec), xn, prec), prec)) if a else None
    if b is None:
        return sub(h(d_new), _ONE, prec)
    m, e = sub(my, mul(mul(_THREE, mx, prec), mx, prec), prec)
    d = b((m, e - 1)) if a is None else add(b((m, e - 1)), d_new, prec)
    return sub(h(d), _ONE, prec)


def _within(v, tol, xn, prec):
    """|v| <= tol (1 + |xn|); magnitudes decide it unsummed where they lie far enough apart.

    With g = max(1, magnitude of xn), 1 + |xn| rounds into [2**(g-1),
    2**(g+1)], so the rounded product lies in [2**(gt+g-2), 2**(gt+g+1)]
    (gt: tol's magnitude); a v of magnitude gv <= gt + g - 2 is within it
    and one of gv >= gt + g + 3 is not.
    """
    vm, xm = v[0], xn[0]
    if not vm:
        return True
    g = max(1, xm.bit_length() + xn[1]) if xm else 1
    d = vm.bit_length() + v[1] - tol[0].bit_length() - tol[1] - g
    if -2 < d < 3:
        return le_product(v, tol, add(_ONE, (abs(xm), xn[1]), prec), prec)
    return d < 0


def _half_sum(u, v, prec):
    m, e = add(u, v, prec)
    return m, e - 1


def _afamily_cubic_coeffs(aparam, h, x, y, yn):
    """Coefficients (c0, c1, c2, c3) of the cleared update polynomial in xnew."""
    ysum = y + yn
    b = 1 - 2 * aparam
    c0 = x + h * (aparam * (x * y - x * x * x) + b * x * ysum / 4 - b * x * x * x / 8)
    c1 = -1 + h * (b * ysum / 4 - 3 * b * x * x / 8 + aparam * yn)
    c2 = -3 * h * b * x / 8
    c3 = -h * (1 + 6 * aparam) / 8
    return c0, c1, c2, c3


def _fujiwara_exponent(coeffs):
    """k with 2**k at least Fujiwara's bound 2 max |c_i / c_0|**(1/i) on the roots of the
    polynomial coeffs (descending mpf, c_0 nonzero), from the bit magnitudes exp + bc."""
    mags = [c._mpf_[2] + c._mpf_[3] for c in coeffs]  # 2**(mag - 1) <= |c| < 2**mag
    lead = mags[0] - 1
    return 1 + max((-((lead - m) // i) for i, m in enumerate(mags) if i and coeffs[i]), default=0)


def _afamily_solver(aparam, params: SystemParams):
    """The implicit pitchfork step as solve(x, y) -> (xnew, ynew, method, residual).

    x, y, xnew, ynew and residual are mantissa pairs and method "newton",
    "cubic" or "canard" (see a_family_step_pitchfork).
    Scalers by a and b = 1 - 2a (None where exactly 0: the term plan) and by
    h, eps h and the bars tol(2) and tol(10) are formed once; every operation
    but the cubic's polyroots and root choice rounds on pairs like the mpf
    expression it replaces, so the values are those of mpf arithmetic, bit for bit.
    """
    ctx = params.ctx
    prec = ctx.prec
    a_mpf, h_mpf = ctx.mpf(aparam), params.h
    (am, ae), h_pair = split(a_mpf._mpf_), split(h_mpf._mpf_)
    heps = mul(split(params.epsilon._mpf_), h_pair, prec)
    a, b = (scaler(v, prec) if v[0] else None for v in ((am, ae), sub(_ONE, rn(am, ae + 1, prec), prec)))
    h = scaler(h_pair, prec)
    tol2, tol10 = split(ctx.tol(2)._mpf_), split(ctx.tol(10)._mpf_)

    def residual(x, af_old, my, yn, xn):
        mx = _half_sum(x, xn, prec) if b else None
        return _afamily_residual_pair(a, b, h, x, af_old, my, yn, xn, mx, prec)

    def correction(x, af_old, my, yn, xn):
        """Newton's residual / slope at xn, or None where the slope is 0."""
        mx = _half_sum(x, xn, prec) if b else None
        dr = _afamily_slope_pair(a, b, h, my, yn, xn, mx, prec)
        if not dr[0]:
            return None
        return div(_afamily_residual_pair(a, b, h, x, af_old, my, yn, xn, mx, prec), dr, prec)

    def cubic_root(x, y, yn, predictor):
        """The real root of the cleared polynomial nearest the predictor, as a pair."""
        make = ctx.make_mpf
        coeffs = list(_afamily_cubic_coeffs(a_mpf, h_mpf, *(make(pack(v)) for v in (x, y, yn))))
        coeffs.reverse()
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
        if len(coeffs) < 2:
            raise NoRealBranch("implicit pitchfork update degenerated to a constant relation")
        scale, n = make((0, 1, _fujiwara_exponent(coeffs), 1)), len(coeffs) - 1
        try:  # in x = scale t, every root t has |t| <= 1: polyroots starts at their size
            roots = ctx.polyroots([c * scale ** (n - i) for i, c in enumerate(coeffs)],
                                  maxsteps=200, extraprec=60)
        except NoConvergence:
            raise NoRealBranch("implicit pitchfork update: the cleared cubic's roots did not converge") from None
        roots = [r * scale for r in roots]
        imag_bar = ctx.tol(15)
        real_roots = [r.real for r in roots if abs(r.imag) <= imag_bar * (1 + abs(r))]
        if not real_roots:
            raise NoRealBranch("implicit pitchfork update has no real branch at this point")
        predictor = make(pack(predictor))
        return split(min(real_roots, key=lambda r: abs(r - predictor))._mpf_)

    def solve(x, y):
        yn = add(y, heps, prec)
        if not x[0]:
            return x, yn, "canard", _ZERO
        my = _half_sum(y, yn, prec) if b else None
        af_old = a(_pitchfork_f(x, y, prec)) if a else None
        xn = predictor = add(x, mul(h(x), sub(y, mul(x, x, prec), prec), prec), prec)
        for _ in range(_AFAMILY_MAX_NEWTON):
            step = correction(x, af_old, my, yn, xn)
            if step is None:
                break
            xn = sub(xn, step, prec)
            if _within(step, tol2, xn, prec):
                r = residual(x, af_old, my, yn, xn)
                if _within(r, tol10, xn, prec):
                    return xn, yn, "newton", r
                break

        # Newton failed: solve the cleared polynomial exactly, then polish.
        xn = cubic_root(x, y, yn, predictor)
        for _ in range(8):
            step = correction(x, af_old, my, yn, xn)
            if step is None:
                break
            xn = sub(xn, step, prec)
        r = residual(x, af_old, my, yn, xn)
        if not _within(r, tol10, xn, prec):
            raise NoRealBranch("implicit pitchfork update: no branch met the residual tolerance")
        return xn, yn, "cubic", r

    return solve


def afamily_kernel(aparam, params: SystemParams):
    """The implicit pitchfork step on mantissa pairs: step(x, y) -> (xnew, ynew).

    Bit-identical to a_family_step_pitchfork(aparam, params, p).point;
    everything that depends only on the orbit is formed once.
    """
    solve = _afamily_solver(aparam, params)

    def step(x, y):
        xn, yn, _, _ = solve(x, y)
        return xn, yn

    return step


def a_family_step_pitchfork(
    aparam, params: SystemParams, p: PlanarPoint, reverse: bool = False
) -> StepResult:
    """One step of the symmetric implicit family on the pitchfork system.

    The slow update is explicit, ynew = y + eps h.  The fast update solves
    the degree-<=3 implicit relation for xnew by Newton iteration seeded at
    the forward-Euler predictor; if Newton fails to meet the residual bar
    10^(-digits+10), the cleared polynomial is solved exactly, the real
    root nearest the predictor is selected and polished by up to 8 Newton
    steps.  The line {x = 0} is invariant: from x = 0 the canard branch
    xnew = 0 is returned unconditionally (other real branches may coexist
    there).  Newton and polish round on mantissa pairs (see rounding), as
    afamily_kernel does for whole orbits; at a = 1/2 and a = 0 they skip the
    terms that are exactly 0 and the sums with them, which can change no
    value, so the values are mpf arithmetic's.  A non-finite x or y raises NoRealBranch.

    The family is symmetric (time-reversible): reverse=True applies the step
    with h -> -h, which undoes the forward step.
    """
    try:
        x, y = split(p.x._mpf_), split(p.y._mpf_)
    except ValueError:  # an infinity or NaN
        raise NoRealBranch("implicit pitchfork update has no real branch at this point") from None
    x, y, method, r = _afamily_solver(aparam, replace(params, h=-params.h) if reverse else params)(x, y)
    make = params.ctx.make_mpf
    return StepResult(PlanarPoint(make(pack(x)), make(pack(y))), BranchInfo(method, make(pack(r))))
