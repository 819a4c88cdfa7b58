"""Multipliers on mantissa pairs against the mpf expressions they replace.

The oracles below are the mpf closed forms of the transversal multipliers,
kept here as the reference: every pair kernel of scheme_map must return
their ``_mpf_`` tuples bit for bit, raise PoleError exactly where they
divide by zero, and the way-out product built on the kernels must equal the
same loop written in mpf arithmetic.  The explicit-RK multiplier is not an
mpf expression: its oracle is 1 + h Q_s at the values of s, h and eps,
exact in Fractions, rounded once (mpf_oracles.rk_multiplier).

The Kahan and implicit-family oracles are the reduced Moebius form
(A + g s)/(B - g s), in the kernel's order of operations.  They replaced
the unreduced closed forms, (1 - h^2 x (x + eps h) + eps h^2)/(1 - h x)^2 on
the diagonal and (q^2 - h^2 x^2)/(1 - h x + h^2 eps/4)^2 on the fold, whose
common factor the kernels now cancel, so values moved at rounding level; the
pole messages and EXACT_POLES are unchanged.  test_moebius_forms_are_exact
keeps the unreduced forms as exact Fraction references: each reduced form
equals the form it replaces, and pairs to 1 about the symmetry centre.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canardlab import (
    EULER,
    KAHAN,
    KUTTA3,
    AFamily,
    PoleError,
    SingularityKind,
    SystemParams,
    Unresolved,
    jacobian_factor,
    make_context,
    wayout,
)
from canardlab.linearization import CANARDS, scheme_map
from canardlab.rounding import pack, split
from mpf_oracles import rk_multiplier

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD

CONTEXTS = {digits: make_context(digits) for digits in (16, 50, 200)}


# -- mpf oracles ---------------------------------------------------------------------


def _kahan_transcritical(params, x):
    h, eps = params.h, params.epsilon
    den = 1 - h * x
    if den == 0:
        raise PoleError("transcritical Kahan multiplier has a pole at x = 1/h")
    return (1 + h * h * eps + h * x) / den


def _afamily_pitchfork(aparam, params, y):
    h, eps = params.h, params.epsilon
    den = 1 - h * h * eps * (1 + 2 * aparam) / 4 - h * y / 2
    if den == 0:
        raise PoleError("implicit pitchfork multiplier has a pole at this y")
    return (1 + h * h * eps * (1 - 2 * aparam) / 4 + h * y / 2) / den


def _kahan_fold(params, x):
    h, eps = params.h, params.epsilon
    q = 1 + h * h * eps / 4
    den = q - h * x
    if den == 0:
        raise PoleError("fold Kahan multiplier has a pole at x = (1 + h^2 eps/4)/h")
    return (q + h * x) / den


def _oracle(kind, scheme, params):
    """The mpf multiplier of a (kind, scheme) pair, as a function of ctx scalars."""
    if kind is T and scheme == KAHAN:
        return lambda x: _kahan_transcritical(params, x)
    if kind is F:
        return lambda x: _kahan_fold(params, x)
    if scheme == KAHAN or isinstance(scheme, AFamily):  # on the pitchfork
        a = params.ctx.mpf(-1) / 2 if scheme == KAHAN else params.ctx.mpf(scheme.a)
        return lambda y: _afamily_pitchfork(a, params, y)
    stage_factor = 2 if kind is T else 1
    return lambda s: rk_multiplier(scheme, params, s, stage_factor)


def _same(kernel, oracle, x):
    """kernel on the pair of x and oracle at x agree bit for bit, poles included."""
    try:
        want = oracle(x)._mpf_
    except PoleError as err:
        with pytest.raises(PoleError, match=re.escape(str(err))):
            kernel(split(x._mpf_))
        return
    assert pack(kernel(split(x._mpf_))) == want, x


# -- kernels, bit for bit ----------------------------------------------------------------


def _milli(lo, hi):
    return st.builds(lambda k: f"{k}e-3", st.integers(lo, hi))


_POINTS = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(digits=st.sampled_from(sorted(CONTEXTS)), kind=st.sampled_from([T, F, P]),
       h=_milli(1, 2000), eps=_milli(1, 2000), a=st.fractions(-1, 1, max_denominator=1000),
       points=st.lists(_POINTS, min_size=1, max_size=8))
def test_pair_multipliers_match_mpf(digits, kind, h, eps, a, points):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    scheme = AFamily(ctx.mpf(a)) if kind is P else KAHAN
    kernel = scheme_map(kind, scheme, params).factor
    oracle = _oracle(kind, scheme, params)
    for point in points:
        _same(kernel, oracle, ctx.mpf(point))


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
def test_explicit_rk_multipliers_match_mpf(digits):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.3", "0.125")
    for kind in (T, P):
        for tableau in (EULER, KUTTA3):
            kernel = scheme_map(kind, tableau, params).factor
            oracle = _oracle(kind, tableau, params)
            for i in range(-12, 13):
                _same(kernel, oracle, ctx.mpf(i) / 7)


# (kind, scheme, h, eps, rho, pole index): the canard positions -rho + k eps h
# (k eps h / 2 on the fold) hit the pole of the multiplier exactly at that index.
EXACT_POLES = [
    (T, KAHAN, "2", "0.25", "0.5", 2),  # 1 - h x = 0 at x = 1/2
    (T, KAHAN, "0.25", "1", "1", 20),  # x = 4
    (F, KAHAN, "2", "1", "1", 2),  # 1 - h x + h h eps/4 = 0 at x = 1
    (P, KAHAN, "2", "0.25", "0.5", 3),  # a = -1/2: 1 - h y/2 = 0 at y = 1
    (P, AFamily("0.5"), "2", "0.25", "0.5", 2),  # 1 - y - 1/2 = 0 at y = 1/2
]


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("kind, scheme, h, eps, rho, index", EXACT_POLES,
                         ids=["transcritical-h2", "transcritical-h0.25", "fold-h2",
                              "kahan-pitchfork-h2", "afamily-0.5-h2"])
def test_exact_poles_raise_with_index(digits, kind, scheme, h, eps, rho, index):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    pole = -ctx.mpf(rho) + index * CANARDS[kind].spacing(params)
    with pytest.raises(PoleError) as err:
        _oracle(kind, scheme, params)(pole)
    message = re.escape(str(err.value))
    with pytest.raises(PoleError, match=message):
        scheme_map(kind, scheme, params).factor(split(pole._mpf_))
    with pytest.raises(PoleError, match=message):
        jacobian_factor(kind, scheme, params, pole)


# The rows above also put the multiplier's zero -A/g on the lattice, 2R/spacing steps
# before the pole (R the pole's distance from the symmetry centre), so wayout stops at
# the zero or exits before it reaches the pole.  Here 2R/spacing is not an integer and
# the entry lies beyond the zero: the product stays below the bar up to the pole.
WAYOUT_POLES = [
    (T, KAHAN, "0.5", "0.625", "2.0625", 13),  # x = 1/h = 2
    (F, KAHAN, "0.5", "0.75", "2.03125", 22),  # x = q/h = 2.09375
    (P, KAHAN, "0.5", "0.75", "4.25", 22),  # y = 2 B/h = 4
    (P, AFamily("0.5"), "0.5", "0.75", "3.875", 20),  # y = 2 B/h = 3.625
]


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("kind, scheme, h, eps, rho, index", WAYOUT_POLES,
                         ids=["transcritical", "fold", "kahan-pitchfork", "afamily-0.5"])
def test_wayout_poles_raise_with_index(digits, kind, scheme, h, eps, rho, index):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    pole = -ctx.mpf(rho) + index * CANARDS[kind].spacing(params)
    with pytest.raises(PoleError) as err:
        _oracle(kind, scheme, params)(pole)
    with pytest.raises(PoleError, match=re.escape(str(err.value))) as err:
        wayout(kind, scheme, params, rho)
    assert err.value.index == index


# -- products, bit for bit -------------------------------------------------------------


def _exit_mpf(oracle, ctx, rho, spacing, n_in):
    """psi and the product at exit, by the mpf loop."""
    bar = 1 - ctx.tol(10)
    prod = ctx.mpf(1)
    n = 0
    while True:
        prod = prod * oracle(-rho + n * spacing)
        if n >= n_in and abs(prod) >= bar:
            return n - n_in, prod._mpf_
        n += 1


PRODUCT_CASES = [
    (T, KAHAN, "0.4321"),
    (F, KAHAN, "0.1234"),
    (P, KAHAN, "0.0987"),
    (P, AFamily("0.3"), "0.2468"),
    (T, EULER, "0.2"),
    (P, EULER, "0.15"),
    (T, KUTTA3, "0.35"),
    (P, KUTTA3, "0.25"),
]


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("kind, scheme, rho", PRODUCT_CASES,
                         ids=lambda v: getattr(v, "value", getattr(v, "name", str(v))))
def test_products_match_mpf_loops(digits, kind, scheme, rho):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.01", "0.1")
    rho = ctx.mpf(rho)
    oracle = _oracle(kind, scheme, params)
    spacing = CANARDS[kind].spacing(params)

    res = wayout(kind, scheme, params, rho)
    assert (res.psi, res.product_at_exit._mpf_) == _exit_mpf(oracle, ctx, rho, spacing, res.n_in)


# -- the reduced forms, exactly --------------------------------------------------------


def _unreduced(kind, h, eps, a, s):
    """(numerator, denominator) of the closed form each Moebius multiplier replaces."""
    if kind is T:
        return 1 - h * h * s * (s + eps * h) + eps * h * h, (1 - h * s) ** 2
    if kind is F:
        return (1 + h * h * eps / 4) ** 2 - h * h * s * s, (1 - h * s + h * h * eps / 4) ** 2
    return 1 + h * s / 2 + h * h * (1 - 2 * a) * eps / 4, 1 - h * s / 2 - h * h * (1 + 2 * a) * eps / 4


def _moebius(kind, h, eps, a):
    """(A, B, g) of J(s) = (A + g s)/(B - g s), as linearization._moebius_multiplier forms them."""
    if kind is T:
        return 1 + h * h * eps, Fraction(1), h
    if kind is F:
        q = 1 + h * h * eps / 4
        return q, q, h
    return 1 + h * h * eps * (1 - 2 * a) / 4, 1 - h * h * eps * (1 + 2 * a) / 4, h / 2


_DECIMALS = st.builds(lambda k, e: Fraction(k) / 10 ** e, st.integers(1, 10**6), st.integers(0, 8))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from([T, F, P]), h=_DECIMALS, eps=_DECIMALS,
       a=st.one_of(st.just(Fraction(-1, 2)), st.fractions(-10, 10, max_denominator=1000)),
       points=st.lists(_POINTS, min_size=1, max_size=8))
def test_moebius_forms_are_exact(kind, h, eps, a, points):
    A, B, g = _moebius(kind, h, eps, a)
    for s in points:
        num, den = _unreduced(kind, h, eps, a, s)
        if den and B - g * s:
            assert num * (B - g * s) == (A + g * s) * den, s
    c = 0 if kind is F else -eps * h / 2  # CANARDS' symmetry centre
    # num(c + d) = (A + g c) + g d equals den(c - d) = (B - g c) + g d coefficient by
    # coefficient, so J(c + d) J(c - d) = 1 for every d
    assert (A + g * c, g) == (B - g * c, g)
    # the unreduced forms pair too: both sides have degree <= 4 in d, so five points decide it
    for d in range(5):
        (num_p, den_p), (num_m, den_m) = (_unreduced(kind, h, eps, a, c + t) for t in (d, -d))
        assert num_p * num_m == den_p * den_m, d


# -- the symmetric lattice ---------------------------------------------------------------


@st.composite
def _lattice_entries(draw):
    """Decimal h, eps and a lattice index N with N eps h h <= 1/4.

    The entry then lies at most 1/(4h) from the canard's centre, well inside
    every pole and sign change of the three Kahan multipliers.
    """
    h = draw(st.integers(1, 500))
    eps = draw(st.integers(1, 1000))
    n = draw(st.integers(1, min(60, 250_000_000 // (eps * h * h))))
    return f"{h}e-3", f"{eps}e-3", n


@settings(max_examples=60, deadline=None)
@given(entry=_lattice_entries())
def test_kahan_lattice_psi_equals_n(entry):
    h, eps, n = entry
    ctx = CONTEXTS[50]
    params = SystemParams.create(ctx, eps, h)
    for kind, canard in CANARDS.items():
        rho = n * canard.spacing(params) - canard.center(params)
        res = wayout(kind, KAHAN, params, rho)
        assert res.n_in == res.psi == n, (kind, res)


# -- the way-in budget -------------------------------------------------------------------


def test_way_in_beyond_budget_raises_before_stepping():
    ctx = CONTEXTS[50]
    params = SystemParams.create(ctx, "1e-30", "0.1")  # N is about 1e28
    with pytest.raises(Unresolved) as err:
        wayout(T, KAHAN, params, "1e-3", max_n=5)
    assert str(err.value) == (
        "way-in N = 9999999999999999999999999999 exceeds the budget of 5 steps"
    )
    assert err.value.max_n == 5


def test_budget_counts_way_in_and_way_out_alike():
    ctx = CONTEXTS[50]
    params = SystemParams.create(ctx, "0.01", "0.1")
    rho = "0.0105"  # N = psi = 10
    assert (wayout(T, KAHAN, params, rho, max_n=10).psi, wayout(T, KAHAN, params, rho).psi) == (10, 10)
    with pytest.raises(Unresolved, match="way-in N = 10 exceeds the budget of 9 steps"):
        wayout(T, KAHAN, params, rho, max_n=9)
    off = "0.01055"  # N = 10 off the lattice, so psi > 10
    with pytest.raises(Unresolved, match="way-out not reached within 10 steps past the center"):
        wayout(T, KAHAN, params, off, max_n=10)
