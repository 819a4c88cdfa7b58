"""Plain-mpf oracles for the one-step maps, and the maps the command line builds.

rk_step, kahan_step_transcritical and kahan_step_fold are the mpf bodies the
package's steppers had before every one-step map ran on mantissa pairs,
copied unedited but for the tableau binding (bind below, the mpf scalars
the package's cache used to hand out); euler_step is the mpf update
p + h f(p).  The pair kernels must return their ``_mpf_`` tuples, bit for
bit, and raise PoleError where they do.

STEP_MAPS lists every (kind, scheme) pair whose SchemeMap.step the command
line can build: forward Euler on the three kinds, Kutta3 on both lines,
Kahan on the transcritical and the fold, and the implicit family at
a = 1/2, 0 and -1/2 (the pitchfork's Kahan map).

critical_polynomial builds 1 + h Q_s(x; h, eps) in exact Fractions from the
tableau, independently of the package's polynomial (its own stage recursion
on coefficient lists, x and h given as polynomials in a variable t).
h_polynomial and rho_polynomial give the critical polynomial 1 + h Q_s(-rho)
that linearized_critical_h and critical_triplet_linearized solve, at the
exact values of their mpf arguments, each coefficient rounded once to
nearest-even at the working precision (nearest, in Fractions);
rk_multiplier gives its value at constant x and h, the explicit-RK
multiplier, rounded once the same way.
assert_nearest_root checks a root against such a polynomial taken exactly.
"""

from fractions import Fraction

from canardlab import (
    EULER,
    KAHAN,
    KUTTA3,
    AFamily,
    ButcherTableau,
    PlanarPoint,
    PoleError,
    SingularityKind,
    SystemParams,
    a_family_step_pitchfork,
    vector_field,
)

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD


def bind(tableau, ctx):
    """The tableau's coefficients as scalars of ctx: (alpha, a-rows, row sums)."""
    return (
        tuple(ctx.mpf(v) for v in tableau.alpha),
        tuple(tuple(ctx.mpf(v) for v in row) for row in tableau.a),
        tuple(ctx.mpf(v) for v in tableau.row_sums()),
    )


def euler_step(kind, params, p):
    v = vector_field(kind, params, p)
    h = params.h
    return PlanarPoint(p.x + h * v.x, p.y + h * v.y)


def rk_step(
    tableau: ButcherTableau,
    kind: SingularityKind,
    params: SystemParams,
    p: PlanarPoint,
) -> PlanarPoint:
    """Explicit Runge-Kutta update for the transcritical or pitchfork system.

    Stage slopes (kappa_i, ell_i) follow the usual explicit recursion; for
    these systems the slow slope is constant, ell_i = eps.  With weights
    summing to 1 this reproduces euler_step at s = 1, and it keeps the
    canard set invariant: on the transcritical diagonal every kappa_i
    collapses to eps, so the step is (x + eps h, x + eps h).
    """
    if kind not in (SingularityKind.TRANSCRITICAL, SingularityKind.PITCHFORK):
        raise ValueError("explicit RK steps are provided for the transcritical and pitchfork systems")
    ctx = params.ctx
    h = params.h
    alpha, rows, _ = bind(tableau, ctx)
    kappas: list = []
    ells: list = []
    for i in range(tableau.s):
        sx = p.x
        sy = p.y
        for j, aij in enumerate(rows[i]):
            sx = sx + h * aij * kappas[j]
            sy = sy + h * aij * ells[j]
        v = vector_field(kind, params, PlanarPoint(sx, sy))
        kappas.append(v.x)
        ells.append(v.y)
    dx = ctx.mpf(0)
    dy = ctx.mpf(0)
    for i in range(tableau.s):
        dx = dx + alpha[i] * kappas[i]
        dy = dy + alpha[i] * ells[i]
    return PlanarPoint(p.x + h * dx, p.y + h * dy)


def kahan_step_transcritical(params: SystemParams, p: PlanarPoint, reverse: bool = False) -> PlanarPoint:
    """Kahan update of the transcritical system (birational; reverse applies h -> -h).

    xnew = (x + eps h - h y (y + eps h)) / (1 - h x),  ynew = y + eps h.
    Pole at x = 1/h.
    """
    x, y = p.x, p.y
    h, eps = params.h, params.epsilon
    if reverse:
        h = -h
    den = 1 - h * x
    if den == 0:
        raise PoleError("transcritical Kahan step evaluated at its pole x = 1/h")
    yn = y + eps * h
    return PlanarPoint((x + eps * h - h * y * yn) / den, yn)


def kahan_step_fold(params: SystemParams, p: PlanarPoint, reverse: bool = False) -> PlanarPoint:
    """Kahan update of the fold system (birational; reverse=True applies h -> -h).

    xnew = (x - h y - (h^2/4) eps x) / (1 - h x + (h^2/4) eps)
    ynew = (y - h x y - (h^2/2) eps x^2 + h eps x - (h^2/4) eps y) / (same)
    """
    x, y = p.x, p.y
    h, eps = params.h, params.epsilon
    if reverse:
        h = -h
    q = h * h * eps / 4
    den = 1 - h * x + q
    if den == 0:
        raise PoleError("fold Kahan step evaluated at its pole x = (1 + h^2 eps/4)/h")
    xn = (x - h * y - q * x) / den
    yn = (y - h * x * y - 2 * q * x * x + h * eps * x - q * y) / den
    return PlanarPoint(xn, yn)


# (id, kind, scheme); an implicit-family member is given by its a as a Fraction
STEP_MAPS = [
    ("euler-transcritical", T, EULER),
    ("euler-pitchfork", P, EULER),
    ("euler-fold", F, EULER),
    ("kutta3-transcritical", T, KUTTA3),
    ("kutta3-pitchfork", P, KUTTA3),
    ("kahan-transcritical", T, KAHAN),
    ("kahan-fold", F, KAHAN),
    ("afamily+1/2", P, Fraction(1, 2)),
    ("afamily0", P, Fraction(0)),
    ("afamily-1/2", P, Fraction(-1, 2)),
]


def selector(scheme, ctx):
    """The scheme selector scheme_map takes for a STEP_MAPS entry."""
    return AFamily(ctx.mpf(scheme)) if isinstance(scheme, Fraction) else scheme


def oracle(kind, scheme, params, p):
    """The mpf step of a STEP_MAPS entry at p (the implicit family's public step)."""
    if isinstance(scheme, Fraction):
        return a_family_step_pitchfork(params.ctx.mpf(scheme), params, p).point
    if scheme == KAHAN:
        return (kahan_step_transcritical if kind is T else kahan_step_fold)(params, p)
    return euler_step(kind, params, p) if scheme.s == 1 else rk_step(scheme, kind, params, p)


# -- the linearized critical polynomial ------------------------------------------------


def poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def critical_polynomial(tab, x, h, eps, stage_factor=2):
    """Exact ascending coefficients in t of 1 + h Q_s(x), with x and h polynomials in t.

    dk_i = c (x + h eps A_i) (1 + h sum_j a_ij dk_j) and Q_s = sum_i alpha_i dk_i, c the
    stage factor; zero top coefficients are dropped.
    """
    dks = []
    for row in tab.a:
        acc = [Fraction(0)]
        for aij, dk in zip(row, dks):
            acc = poly_add(acc, [aij * c for c in dk])
        base = poly_add(x, [eps * sum(row, Fraction(0)) * c for c in h])
        dks.append(poly_mul([stage_factor * c for c in base], poly_add([Fraction(1)], poly_mul(h, acc))))
    qs = [Fraction(0)]
    for al, dk in zip(tab.alpha, dks):
        qs = poly_add(qs, [al * c for c in dk])
    p = poly_add([Fraction(1)], poly_mul(h, qs))
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def nearest(q, prec):
    """The Fraction q rounded to nearest at prec bits, ties to even, as a Fraction."""
    if q <= 0:
        return -nearest(-q, prec) if q else q
    e = q.numerator.bit_length() - q.denominator.bit_length()
    e -= Fraction(2) ** e > q  # 2**e <= q < 2**(e + 1)
    scale = Fraction(2) ** (prec - 1 - e)
    m, rest = divmod(q * scale, 1)
    if rest > Fraction(1, 2) or rest == Fraction(1, 2) and m % 2:
        m += 1
    return m / scale


def rounded_once(ctx, coeffs):
    """The exact coefficients coeffs (Fractions), each rounded once to nearest-even, as mpf."""
    return [ctx.mpf(r.numerator) / r.denominator for r in (nearest(c, ctx.prec) for c in coeffs)]


def rk_multiplier(tableau, params, x, stage_factor=2):
    """1 + h Q_s(x) at the values of the mpf x, h and eps: exact, then rounded once."""
    p = critical_polynomial(tableau, [exact(x)], [exact(params.h)], exact(params.epsilon), stage_factor)
    return rounded_once(params.ctx, p)[0]


def h_polynomial(tableau, ctx, rho, eps, stage_factor=2):
    """1 + h Q_s(-rho; h, eps) in h, as linearized_critical_h solves it: exact, then rounded once."""
    h = [Fraction(0), Fraction(1)]
    return rounded_once(ctx, critical_polynomial(tableau, [-exact(rho)], h, exact(eps), stage_factor))


def rho_polynomial(tableau, params):
    """1 + h Q_s(-rho) in rho, as critical_triplet_linearized solves it: exact, then rounded once."""
    x, h = [Fraction(0), Fraction(-1)], [exact(params.h)]
    return rounded_once(params.ctx, critical_polynomial(tableau, x, h, exact(params.epsilon)))


def exact(v):
    """The value of an mpf as a Fraction."""
    sign, man, exp, _ = v._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def ulp(v, prec):
    """The gap above the positive mpf v between floats of prec bits."""
    man, exp = v.man_exp
    return Fraction(2) ** (man.bit_length() + exp - prec)


def assert_nearest_root(coeffs, root, prec):
    """root is a root of the polynomial coeffs (mpf, ascending) rounded to nearest-even.

    The polynomial, taken exactly, vanishes at root (a root of even
    multiplicity, where p touches 0 without changing sign, counts), or
    changes sign between the midpoints of the positive prec-bit float root
    with its neighbours (the gap below a power of two is half the gap
    above), or vanishes on one of them and root has the even mantissa.
    """
    p = [exact(c) for c in coeffs]
    r, up = exact(root), ulp(root, prec)
    down = up / 2 if root.man == 1 else up

    def sign(t):
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * t + c
        return (acc > 0) - (acc < 0)

    if not sign(r):
        return
    lo, hi = sign(r - down / 2), sign(r + up / 2)
    if lo and hi:
        assert lo != hi, f"no root of p within half an ulp of {root}"
    else:
        assert lo or hi, f"p vanishes on both midpoints around {root}"
        assert (r / up) % 2 == 0, f"{root} is on a tie but its mantissa is odd"
