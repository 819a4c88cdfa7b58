"""Linearized critical steps against the exact critical polynomial.

The solvers report the first sign change, the first root of odd
multiplicity; a tangency is not critical.  1 + h Q_s(-rho; h, eps) is rebuilt
here in exact Fractions from the tableau, independently of the package's
polynomial helpers and of q_s.  Its sign changes are counted exactly: Yun's
square-free decomposition gives the product of its factors of odd
multiplicity, whose distinct real roots a Sturm sequence counts.  A solver
result must sit within tol(8) relative of a sign change of that polynomial,
with none before it, and the solver must report none exactly when the
polynomial has none below the cap (10/rho in h, 10/h in rho).

The solvers run on mantissa pairs.  A plain-mpf copy of an earlier form
(stage recursion over coefficient lists, Horner, derivative cascade and
safeguarded Newton; the recursion is mpf_oracles.stage_polynomial) is kept
below as the oracle, with the same rule for a zero at a cut.  The
coefficients must equal its bit for bit; a solver must find a root exactly
where it does, and return the root of the polynomial with those
coefficients, taken exactly, rounded to nearest-even, within 64 ulps of the
oracle's Newton iterate.  The double-precision Newton seed must not change
a result: it is replaced by no seed and by points on or outside the
isolating interval; it is found in the scaled variable t = x / cap, with the
coefficients scaled below 1, so it exists at extreme parameters too.

_first_sign_change, the solvers' level below the tableau, is checked the
same way on the critical polynomials and on products of roots, with
multiplicities 1 to 3: every root it reports is the polynomial's rounded to
nearest, from exact signs.  Counts pin the cost: on the README grid at most
6 Horner evaluations at working precision, one Newton call and 2.1 of
Descartes' counts per solve, and a few hundred evaluations where no value
has a float image (the search then locates the root's binade first).
"""

from fractions import Fraction

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canardlab import (
    EULER,
    HEUN2,
    HEUN3,
    KUTTA3,
    SHIPPED_TABLEAUX,
    SystemParams,
    critical_triplet_linearized,
    linearized_critical_h,
    make_context,
    rk_cbar,
)
from canardlab import analysis
from canardlab.analysis import _BERNOULLI_PLUS
from canardlab.linearization import _stage_polynomial
from canardlab.rounding import pack, split
from mpf_oracles import (assert_nearest_root, exact, h_polynomial, poly_add, poly_mul,
                         poly_scale, rho_polynomial, stage_polynomial, ulp)

CONTEXTS = {d: make_context(d) for d in (16, 50, 120)}


def _critical_polynomial(tab, x, h, eps):
    """Exact ascending coefficients in t of 1 + h Q_s(x), with x and h polynomials in t.

    dk_i = 2 (x + h eps A_i) (1 + h sum_j a_ij dk_j) and Q_s = sum_i alpha_i dk_i.
    """
    dks = []
    for row in tab.a:
        acc = [Fraction(0)]
        for aij, dk in zip(row, dks):
            acc = poly_add(acc, [aij * c for c in dk])
        base = poly_add(x, [eps * sum(row, Fraction(0)) * c for c in h])
        dks.append(poly_mul([2 * c for c in base], poly_add([Fraction(1)], poly_mul(h, acc))))
    qs = [Fraction(0)]
    for al, dk in zip(tab.alpha, dks):
        qs = poly_add(qs, [al * c for c in dk])
    p = poly_add([Fraction(1)], poly_mul(h, qs))
    while p[-1] == 0:
        p.pop()
    return p


def _sign_at(q, t):
    """Sign of the integer polynomial q (ascending) at the Fraction t, exactly."""
    n, d = t.numerator, t.denominator
    v = sum(c * n ** i * d ** (len(q) - 1 - i) for i, c in enumerate(q))
    return (v > 0) - (v < 0)


def _sturm(p):
    """Sturm sequence of p: p, p', then negated remainders, each made integral and primitive
    by positive factors only (pseudo-division by |lead|), which keep every sign."""
    lcm = math.lcm(*(Fraction(c).denominator for c in p))
    seq = [[int(c * lcm) for c in p]]
    seq.append([i * c for i, c in enumerate(seq[0])][1:])
    while len(seq[-1]) > 1:
        r, d = list(seq[-2]), seq[-1]
        while len(r) >= len(d):  # r <- |lead d|**k r mod d
            f, off, lead = r[-1], len(r) - len(d), d[-1]
            r = [abs(lead) * v for v in r]
            for i, c in enumerate(d):
                r[off + i] -= (f if lead > 0 else -f) * c
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        g = math.gcd(*r)
        seq.append([-c // g for c in r])
    return seq


def _roots_between(seq, a, b):
    """Distinct real roots of seq[0] in (a, b], for a, b not roots."""

    def changes(t):
        signs = [s > 0 for s in (_sign_at(q, t) for q in seq) if s]
        return sum(s != u for s, u in zip(signs, signs[1:]))

    return changes(a) - changes(b)


def _divmod(a, b):
    """Quotient and remainder of Fraction polynomials (ascending)."""
    r, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        q[len(r) - len(b)] = f
        for i, c in enumerate(b):
            r[len(r) - len(b) + i] -= f * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _gcd(a, b):
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _odd_multiplicity_part(p):
    """Yun's square-free decomposition p = c a_1 a_2**2 a_3**3 ...: the product of the a_i
    with odd i, whose roots are p's sign changes, each once."""
    g = _gcd(p, _derivative(p))
    b, d = _divmod(p, g)[0], _divmod(_derivative(p), g)[0]
    odd, i = [Fraction(1)], 1
    while len(b) > 1:
        d = poly_add(d, [-c for c in _derivative(b)])
        while d and d[-1] == 0:
            d.pop()
        a = _gcd(b, d)
        if i % 2:
            odd = poly_mul(odd, a)
        b, d, i = _divmod(b, a)[0], _divmod(d, a)[0], i + 1
    return odd


def _check_root(ctx, p, root, cap):
    """root is within tol(8) of the first sign change of p in (0, cap]; None iff p has none there."""
    seq = _sturm(_odd_multiplicity_part(p))
    if root is None:
        assert _roots_between(seq, Fraction(0), cap) == 0
        return
    root, delta = exact(root), exact(ctx.tol(8))
    below, above = root * (1 - delta), root * (1 + delta)
    assert 0 < root <= cap
    assert _roots_between(seq, below, above) >= 1, "no sign change within tol(8)"
    assert _roots_between(seq, Fraction(0), below) == 0, "an earlier sign change was skipped"


def _check_h(ctx, tab, rho, eps):
    rho_q, eps_q = exact(ctx.mpf(rho)), exact(ctx.mpf(eps))
    p = _critical_polynomial(tab, [-rho_q], [Fraction(0), Fraction(1)], eps_q)
    h = linearized_critical_h(tab, ctx.mpf(rho), ctx.mpf(eps), ctx)
    _check_root(ctx, p, h, 10 / rho_q)
    return h


def _check_rho(ctx, tab, h, eps):
    h_q, eps_q = exact(ctx.mpf(h)), exact(ctx.mpf(eps))
    p = _critical_polynomial(tab, [Fraction(0), Fraction(-1)], [h_q], eps_q)
    trip = critical_triplet_linearized(tab, h, eps, ctx)
    _check_root(ctx, p, None if trip is None else trip.rho_star, 10 / h_q)
    return trip


@pytest.mark.parametrize("digits", [50, 120])
def test_heun3_critical_step(digits):
    ctx = CONTEXTS[digits]
    h = _check_h(ctx, HEUN3, 9, 1)
    assert abs(h - ctx.mpf("0.08883535229520711")) < 1e-17
    trip = _check_rho(ctx, HEUN3, h, 1)
    assert abs(trip.rho_star - 9) < 9 * ctx.tol(8)


def test_kutta3_one_sided_newton():
    ctx = CONTEXTS[120]
    h = _check_h(ctx, KUTTA3, "1.5", 1)
    _check_rho(ctx, KUTTA3, h, 1)


@settings(max_examples=200, deadline=None)
@given(
    tab=st.sampled_from(sorted(SHIPPED_TABLEAUX.values(), key=lambda t: t.name)),
    rho=st.floats(1, 10),
    eps=st.floats(0.01, 1),
    h=st.floats(0.01, 1),
    digits=st.sampled_from(sorted(CONTEXTS)),
)
def test_first_root_matches_exact_polynomial(tab, rho, eps, h, digits):
    ctx = CONTEXTS[digits]
    _check_h(ctx, tab, rho, eps)
    _check_rho(ctx, tab, h, eps)


# -- plain-mpf oracle ----------------------------------------------------------------


def ref_poly_eval(p, x):
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_newton_in_bracket(ctx, p, dp, a, b, fa):
    tol = ctx.tol(8)
    x = (a + b) / 2
    while True:
        fx = ref_poly_eval(p, x)
        if fx == 0:
            return x
        if (fx < 0) == (fa < 0):
            a = x
        else:
            b = x
        d = ref_poly_eval(dp, x)
        step = fx / d if d != 0 else None
        if step is not None and abs(step) <= tol * x:
            return x - step
        if b - a <= tol * x:
            return x
        x = x - step if step is not None and a < x - step < b else (a + b) / 2


def ref_sign_changes(ctx, p, hi, first=False):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    if len(p) < 2:
        return []
    dp = [i * c for i, c in enumerate(p)][1:]
    cuts = [ctx.mpf(0), *ref_sign_changes(ctx, dp, hi), hi]
    roots, zero = [], None
    fa = ref_poly_eval(p, cuts[0])
    for a, b in zip(cuts, cuts[1:]):
        fb = ref_poly_eval(p, b)
        if fb == 0 and b is not hi:  # a zero at a cut is a root where p's sign past it changes
            zero = b
            continue
        if fa != 0 and (fb == 0 or (fa < 0) != (fb < 0)):
            roots.append(zero if zero is not None else b if fb == 0
                         else ref_newton_in_bracket(ctx, p, dp, a, b, fa))
            if first:
                break
        fa, zero = fb, None
    return roots


def ref_first_root(ctx, p, hi):
    roots = ref_sign_changes(ctx, p, hi, first=True)
    return roots[0] if roots else None


def ref_rk_cbar(tab, params, rho):
    ctx, h, eps = params.ctx, params.h, params.epsilon
    qs = stage_polynomial(tab, ctx, [-rho, h * eps], [h], eps)
    theta = poly_add([ctx.mpf(1)], poly_scale(qs, h))
    cs = []
    for i in range(1, tab.s + 1):
        acc = ctx.mpf(0)
        for m in range(max(i, 1), tab.s + 1):
            b = _BERNOULLI_PLUS[m - i]
            if b == 0:
                continue
            coeff = Fraction(math.comb(m + 1, m - i), m + 1) * b
            acc = acc + theta[m] * ctx.mpf(coeff)
        cs.append(acc)
    max_c = max(abs(c) for c in cs)
    if max_c == 0:
        raise ValueError("degenerate accumulated-product polynomial: all C_i vanish")
    return abs(ctx.ln(max_c)) / ctx.ln(2) + 1


def _check_against_oracle(ctx, p, hi, got):
    """got is None where the oracle finds no root in (0, hi] of the polynomial p;
    else it is the root of p rounded to nearest, and the oracle's iterate lies
    within 64 ulps of it."""
    ref = ref_first_root(ctx, p, hi)
    assert (got is None) == (ref is None), (got, ref)
    if got is not None:
        assert_nearest_root(p, got, ctx.prec)
        assert abs(exact(ref) - exact(got)) <= 64 * ulp(got, ctx.prec)


ORACLE_CONTEXTS = {d: make_context(d) for d in (16, 50, 200)}
positive = st.fractions(Fraction(1, 100), 40, max_denominator=1000).filter(lambda v: v > 0)


@settings(max_examples=150, deadline=None)
@given(
    tab=st.sampled_from(sorted(SHIPPED_TABLEAUX.values(), key=lambda t: t.name)),
    rho=positive,
    eps=st.one_of(st.just(Fraction(0)), st.fractions(0, 2, max_denominator=1000)),
    h=st.fractions(Fraction(1, 1000), 1, max_denominator=1000).filter(lambda v: v > 0),
    stage_factor=st.sampled_from([2, 1]),
    digits=st.sampled_from(sorted(ORACLE_CONTEXTS)),
)
@example(tab=HEUN2, rho=Fraction(5), eps=Fraction(1, 100), h=Fraction(1, 10), stage_factor=2,
         digits=50)  # no root below either cap
@example(tab=EULER, rho=Fraction(4), eps=Fraction(0), h=Fraction(1, 10), stage_factor=1, digits=16)
@example(tab=KUTTA3, rho=Fraction(3, 2), eps=Fraction(1), h=Fraction(1, 4), stage_factor=2,
         digits=200)
# Newton steps that leave the bracket on the high side, replaced by bisection
@example(tab=HEUN2, rho=Fraction(3), eps=Fraction(701, 800), h=Fraction(1, 10), stage_factor=2,
         digits=16)
@example(tab=KUTTA3, rho=Fraction(3, 2), eps=Fraction(101, 200), h=Fraction(1, 10),
         stage_factor=1, digits=16)
def test_pair_solvers_match_mpf_oracle(tab, rho, eps, h, stage_factor, digits):
    """linearized_critical_h and critical_triplet_linearized find a root where the
    oracle does, and return it rounded to nearest (_check_against_oracle); the
    stage polynomial in the canard position and rk_cbar give the oracle's
    ``_mpf_`` tuples."""
    ctx = ORACLE_CONTEXTS[digits]
    rho_s, eps_s = ctx.mpf(rho), ctx.mpf(eps)
    got = linearized_critical_h(tab, rho_s, eps_s, ctx, stage_factor)
    _check_against_oracle(ctx, h_polynomial(tab, ctx, rho_s, eps_s, stage_factor), 10 / rho_s, got)
    params = SystemParams.create(ctx, eps_s, ctx.mpf(h))
    if eps:  # critical triplets need eps > 0
        trip = critical_triplet_linearized(tab, params.h, params.epsilon, ctx)
        _check_against_oracle(ctx, rho_polynomial(tab, params), 10 / params.h,
                              None if trip is None else trip.rho_star)
    ref_q = stage_polynomial(tab, ctx, [0, 1], [params.h], params.epsilon)
    h_p, eps_p = split(params.h._mpf_), split(params.epsilon._mpf_)
    got_q = _stage_polynomial(tab, ctx, [(0, 0), (1, 0)], [h_p], eps_p)
    assert [pack(c) for c in got_q] == [ctx.mpf(c)._mpf_ for c in ref_q]
    if not eps:
        with pytest.raises(ValueError, match="eps must be > 0"):
            rk_cbar(tab, params, rho_s)
        return
    assert rk_cbar(tab, params, rho_s)._mpf_ == ref_rk_cbar(tab, params, rho_s)._mpf_


HINT_CASES = [  # (tableau, rho, eps, stage factor): degrees 1, 5 and 3 in h; the last has no root
    (EULER, Fraction(4), Fraction(1, 100), 2),
    (HEUN3, Fraction(9), Fraction(1), 2),
    (KUTTA3, Fraction(3, 2), Fraction(1), 2),
    (KUTTA3, Fraction(3, 2), Fraction(101, 200), 1),
    (HEUN2, Fraction(3), Fraction(701, 800), 2),
    (HEUN2, Fraction(5), Fraction(1, 100), 2),
]


def _hint_roots(ctx):
    roots = []
    for tab, rho, eps, stage_factor in HINT_CASES:
        roots.append(linearized_critical_h(tab, ctx.mpf(rho), ctx.mpf(eps), ctx, stage_factor))
        trip = critical_triplet_linearized(tab, ctx.mpf(rho) / 10, ctx.mpf(eps), ctx)
        roots.append(None if trip is None else trip.rho_star)
    return [None if r is None else r._mpf_ for r in roots]


@pytest.mark.parametrize("hint", {
    "none": lambda pf, dpf, a, b, fa: None,
    "left end": lambda pf, dpf, a, b, fa: a,
    "right end": lambda pf, dpf, a, b, fa: b,
    "above": lambda pf, dpf, a, b, fa: (b[0], b[1] + 1),
    "negative": lambda pf, dpf, a, b, fa: (-b[0], b[1]),
}.items(), ids=lambda item: item[0])
@pytest.mark.parametrize("digits", [16, 50, 200])
def test_float_seed_is_only_a_hint(monkeypatch, digits, hint):
    """Newton from no seed, from a bracket end or from outside the bracket returns the same bits.

    _float_seed takes the float images of p and p' (pf, dpf) and the isolating interval's pairs."""
    ctx = ORACLE_CONTEXTS[digits]
    expected = _hint_roots(ctx)
    calls = []

    def seed(*args):
        calls.append(args)
        return hint[1](*args)

    monkeypatch.setattr(analysis, "_float_seed", seed)
    assert _hint_roots(ctx) == expected
    assert calls


# (solver, tableau, rho or h, eps, the parent solver's root to 15 digits or None)
EXTREMES = [
    ("h", KUTTA3, "1e-300", "0.5", "1e300"),
    ("h", HEUN2, "1e-5000", "0.5", "5e4999"),
    ("h", HEUN3, "2", "1e300", "0.75"),
    ("h", HEUN2, "2", "1e5000", "0.25"),
    ("h", KUTTA3, "1e-300", "1e300", "1.00000000000000e300"),
    ("rho", KUTTA3, "1e300", "0.5", "1e-300"),
    ("rho", HEUN3, "1e-300", "0.5", "7.98035818991661e299"),
    ("rho", HEUN2, "1e-300", "1e300", None),
]


@pytest.mark.parametrize("digits", [16, 50])
@pytest.mark.parametrize("solver, tab, value, eps, parent", EXTREMES,
                         ids=[f"{c[0]}-{c[1].name}-{c[2]}-{c[3]}" for c in EXTREMES])
def test_extreme_parameters(solver, tab, value, eps, parent, digits):
    """Parameters whose polynomial or bracket has no float image: no OverflowError,
    the parent solver's root (or None), correctly rounded."""
    ctx = ORACLE_CONTEXTS[digits]
    value, eps = ctx.mpf(value), ctx.mpf(eps)
    if solver == "h":
        root, p = linearized_critical_h(tab, value, eps, ctx), h_polynomial(tab, ctx, value, eps)
    else:
        trip = critical_triplet_linearized(tab, value, eps, ctx)
        params = SystemParams.create(ctx, eps, value)
        root, p = None if trip is None else trip.rho_star, rho_polynomial(tab, params)
    if parent is None:
        assert root is None
        return
    assert abs(root / ctx.mpf(parent) - 1) < ctx.mpf("1e-14")
    assert_nearest_root(p, root, ctx.prec)


@pytest.mark.parametrize("start", [0, 1, -3, 1000, -(2**40), -(2**55), 2**60])
@pytest.mark.parametrize("digits", [16, 50])
def test_nearest_root_from_far_iterates(digits, start):
    """_nearest_root gallops from an iterate `start` ulps away (at 16 digits the last two
    lie binades away, outside the isolating interval (1/4, 1/2), which bounds the gallop)
    to the nearest float of the root; a root on a midpoint goes to the even mantissa."""
    ctx = ORACLE_CONTEXTS[digits]
    prec = ctx.prec
    m, e = split((ctx.mpf(1) / 3)._mpf_)  # correctly rounded 1/3, the root of 3t - 1
    m, e = m << (prec - m.bit_length()), e - (prec - m.bit_length())
    below, a, b = (-1, 0), (1, -2), (1, -1)
    assert analysis._nearest_root([(-1, 0), (3, 0)], (m + start, e), below, a, b, prec) == (m, e)
    # 2t - (2m + 1) 2**e has its root on the midpoint of m 2**e and (m + 1) 2**e
    tie = [(-(2 * m + 1), e), (2, 0)]
    even = m if m % 2 == 0 else m + 1
    assert analysis._nearest_root(tie, (m + start, e), below, a, b, prec) == (even, e)


# -- the polynomial level, multiple roots, counts ---------------------------------------


def _value(v):
    """The pair v as a Fraction."""
    m, e = v
    return Fraction(m) * Fraction(2) ** e


def _pairs(coeffs):
    return [split(c._mpf_) for c in coeffs]


def _first(ctx, coeffs, hi):
    """_first_sign_change of the polynomial coeffs (mpf, ascending) in (0, hi], as an mpf or None."""
    root = analysis._first_sign_change(_pairs(coeffs), split(hi._mpf_), split(ctx.tol(8)._mpf_),
                                       ctx.prec)
    return None if root is None else ctx.make_mpf(pack(root))


@settings(max_examples=150, deadline=None)
@given(
    tab=st.sampled_from(sorted(SHIPPED_TABLEAUX.values(), key=lambda t: t.name)),
    rho=positive,
    eps=st.fractions(0, 2, max_denominator=1000),
    h=st.fractions(Fraction(1, 1000), 1, max_denominator=1000).filter(lambda v: v > 0),
    stage_factor=st.sampled_from([2, 1]),
    digits=st.sampled_from(sorted(ORACLE_CONTEXTS)),
)
@example(tab=HEUN3, rho=Fraction(1, 10), eps=Fraction(1), h=Fraction(1, 10), stage_factor=2,
         digits=50)
@example(tab=HEUN2, rho=Fraction(1), eps=Fraction(1), h=Fraction(1), stage_factor=2,
         digits=50)  # the rho polynomial 2 (1 - rho)**2 only touches zero
def test_first_sign_change_matches_oracle(tab, rho, eps, h, stage_factor, digits):
    """The critical polynomials in h and in rho, given to _first_sign_change directly: the
    oracle's first root, rounded to nearest (_check_against_oracle)."""
    ctx = ORACLE_CONTEXTS[digits]
    rho_s, eps_s = ctx.mpf(rho), ctx.mpf(eps)
    p = h_polynomial(tab, ctx, rho_s, eps_s, stage_factor)
    _check_against_oracle(ctx, p, 10 / rho_s, _first(ctx, p, 10 / rho_s))
    params = SystemParams.create(ctx, eps_s, ctx.mpf(h))
    p = rho_polynomial(tab, params)
    _check_against_oracle(ctx, p, 10 / params.h, _first(ctx, p, 10 / params.h))


@settings(max_examples=100, deadline=None)
@given(
    binades=st.lists(st.integers(-6, 4), min_size=1, max_size=5, unique=True),
    mantissa=st.integers(16, 31),
    lead=st.sampled_from([1, -3, Fraction(1, 7)]),
    digits=st.sampled_from(sorted(ORACLE_CONTEXTS)),
)
def test_first_sign_change_on_products_of_roots(binades, mantissa, lead, digits):
    """lead * prod (t - r) with one root in each of up to five binades, rounded to the
    working precision: the first root below the cap is the oracle's, rounded to nearest."""
    ctx = ORACLE_CONTEXTS[digits]
    p = [Fraction(lead)]
    for k in binades:
        p = poly_mul(p, [-Fraction(mantissa, 16) * Fraction(2) ** k, Fraction(1)])
    coeffs = [ctx.mpf(c.numerator) / c.denominator for c in p]
    _check_against_oracle(ctx, coeffs, ctx.mpf(20), _first(ctx, coeffs, ctx.mpf(20)))


@settings(max_examples=100, deadline=None)
@given(
    roots=st.lists(st.tuples(st.fractions(Fraction(1, 64), 24, max_denominator=96),
                             st.integers(1, 3)), min_size=1, max_size=3),
    lead=st.sampled_from([1, -3, Fraction(1, 7)]),
    digits=st.sampled_from(sorted(ORACLE_CONTEXTS)),
)
@example(roots=[(Fraction(1, 3), 3), (Fraction(2), 1)], lead=1, digits=50)
@example(roots=[(Fraction(1, 3), 2), (Fraction(2), 1)], lead=1, digits=16)
# rounded, the double root splits into 8 and a root 8e-51 above it, past the isolating
# interval but below the midpoint of 8 with the next float, where p has its first sign again
@example(roots=[(Fraction(8), 2), (Fraction(-32, 3), 1)], lead=Fraction(1, 7), digits=50)
# the isolating interval of the split double root near 3.8e-17 lies inside Horner's rounding
# noise, where plain Newton crept by constant steps (about 1e13 of them) without converging
@example(roots=[(Fraction(361, 525 * 2**54), 2), (Fraction(-653, 107 * 2**271), 2)], lead=1,
         digits=50)
def test_first_sign_change_with_multiple_roots(roots, lead, digits):
    """lead * prod (t - r)**m, m = 1, 2 or 3, rounded to the working precision: the first
    sign change of that polynomial in (0, 20], taken exactly, is reported and rounded to
    nearest from exact signs (assert_nearest_root), or None where it has none there
    (_check_root, Yun and Sturm).  Next to a triple root the rounded polynomial's roots
    split within Horner's rounding noise, where Newton alone stops short."""
    ctx = ORACLE_CONTEXTS[digits]
    p = [Fraction(lead)]
    for r, m in roots:
        for _ in range(m):
            p = poly_mul(p, [-r, Fraction(1)])
    coeffs = [ctx.mpf(c.numerator) / c.denominator for c in p]
    got = _first(ctx, coeffs, ctx.mpf(20))
    _check_root(ctx, [exact(c) for c in coeffs], got, Fraction(20))
    if got is not None:
        assert_nearest_root(coeffs, got, ctx.prec)


def _counted(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        f = getattr(analysis, name)

        def counted(*args, f=f, name=name):
            counts[name] += 1
            return f(*args)

        monkeypatch.setattr(analysis, name, counted)
    return counts


def test_readme_grid_counts(monkeypatch):
    """On the README surfaces grid at 50 digits (the four RK tableaux, 684 solves): one Newton
    call per solve, at most 4.1 Horner evaluations at working precision and 2.1 of Descartes'
    counts (4.01 and 2.07 measured; 5.57 Horner evaluations while Newton ran on to a step of
    tol).  The derivative cascade with float certificates made 13.9 Horner evaluations and
    2.62 Newton calls, and the cascade before it 23.9 and 3.15."""
    ctx = ORACLE_CONTEXTS[50]
    counts = _counted(monkeypatch, ["_horner", "_newton_in_bracket", "_descartes"])
    rhos = [1 + Fraction(9 * i, 18) for i in range(19)]
    epss = [Fraction(1, 100) + Fraction(99 * i, 800) for i in range(9)]
    solves = 0
    for name in ("kutta3", "heun3", "ralston3", "ssprk3"):
        for rho in rhos:
            for eps in epss:
                rho_s = ctx.mpf(rho.numerator) / rho.denominator
                eps_s = ctx.mpf(eps.numerator) / eps.denominator
                linearized_critical_h(SHIPPED_TABLEAUX[name], rho_s, eps_s, ctx)
                solves += 1
    assert solves == 684
    assert counts["_horner"] <= 4.1 * solves
    assert counts["_newton_in_bracket"] <= solves
    assert counts["_descartes"] <= 2.1 * solves


@pytest.mark.parametrize("digits", [16, 50])
def test_no_float_seed_bisects_the_exponent(monkeypatch, digits):
    """Kutta3 at rho = 1e-5000: no value in h has a float image, and complex roots near
    1e-5000 lie about 33,000 halvings below the cap 1e5001.  The binade of the root is
    located first and the double-precision seed is found in h / cap, so the root takes a
    few hundred Horner evaluations at most (the solver two versions before made about
    156,000, the derivative cascade with float certificates 140 at 16 digits and 158 at
    50; this one makes 2 and 6), and is the parent solver's (EXTREMES)."""
    ctx = ORACLE_CONTEXTS[digits]
    counts = _counted(monkeypatch, ["_horner"])
    root = linearized_critical_h(KUTTA3, ctx.mpf("1e-5000"), ctx.mpf(1), ctx)
    assert counts["_horner"] <= 400
    assert_nearest_root(h_polynomial(KUTTA3, ctx, ctx.mpf("1e-5000"), ctx.mpf(1)), root, ctx.prec)


@pytest.mark.parametrize("digits", [16, 50, 200])
def test_double_roots_change_no_sign(digits):
    """A root of even multiplicity is not a sign change, so it is not critical.
    (t - 3/8)**2 (t - 19/32)**2 (t - 26)(t - 41), exact at every precision here, gives 26:
    its double roots are dyadic, so the isolation meets them as exact zeros of even
    multiplicity at a midpoint (a derivative cascade that signed its cuts at working
    precision read 0.5937499936628357 at 16 digits, 19/32 at 50 and 3/8 at 200).
    (3t - 1)**2 (t - 2), whose double root is not dyadic, gives 2.  heun2 at h = eps = 1
    has the rho polynomial 2 (1 - rho)**2, so no critical triplet (the cascade reported
    rho* = 1)."""
    ctx = make_context(digits)
    hi, tol = split(ctx.mpf(100)._mpf_), split(ctx.tol(8)._mpf_)
    for lead, roots, first in ((1, [Fraction(3, 8), Fraction(3, 8), Fraction(19, 32),
                                    Fraction(19, 32), 26, 41], 26),
                               (9, [Fraction(1, 3), Fraction(1, 3), 2], 2)):
        p = [Fraction(lead)]
        for r in roots:
            p = poly_mul(p, [-Fraction(r), Fraction(1)])
        coeffs = [split(ctx.mpf(c)._mpf_) for c in p]
        assert [_value(c) for c in coeffs] == p
        assert _value(analysis._first_sign_change(coeffs, hi, tol, ctx.prec)) == first
    assert critical_triplet_linearized(HEUN2, ctx.mpf(1), ctx.mpf(1), ctx) is None
