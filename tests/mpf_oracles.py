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
