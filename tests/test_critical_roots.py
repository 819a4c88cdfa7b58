"""Linearized critical steps against the exact critical polynomial.

1 + h Q_s(-rho; h, eps) is rebuilt here in exact Fractions from the tableau,
independently of the package's polynomial helpers and of q_s, and its real
roots are counted exactly with Sturm sequences.  A solver result must sit
within tol(8) relative of a root of that polynomial, with no root before
it, and the solver must report no root exactly when the polynomial has none
below the cap (10/rho in h, 10/h in rho).

The solvers run on mantissa pairs.  A plain-mpf copy of their earlier form
(stage recursion over coefficient lists, Horner, derivative cascade and
safeguarded Newton) is kept below as the oracle their results must equal
bit for bit.
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
from canardlab.analysis import _BERNOULLI_PLUS
from canardlab.linearization import _stage_polynomial
from canardlab.rounding import pack, split
from mpf_oracles import bind

CONTEXTS = {d: make_context(d) for d in (16, 50, 120)}


def _add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _critical_polynomial(tab, x, h, eps):
    """Exact ascending coefficients in t of 1 + h Q_s(x), with x and h polynomials in t.

    dk_i = 2 (x + h eps A_i) (1 + h sum_j a_ij dk_j) and Q_s = sum_i alpha_i dk_i.
    """
    dks = []
    for row in tab.a:
        acc = [Fraction(0)]
        for aij, dk in zip(row, dks):
            acc = _add(acc, [aij * c for c in dk])
        base = _add(x, [eps * sum(row, Fraction(0)) * c for c in h])
        dks.append(_mul([2 * c for c in base], _add([Fraction(1)], _mul(h, acc))))
    qs = [Fraction(0)]
    for al, dk in zip(tab.alpha, dks):
        qs = _add(qs, [al * c for c in dk])
    p = _add([Fraction(1)], _mul(h, qs))
    while p[-1] == 0:
        p.pop()
    return p


def _eval(p, t):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _sturm(p):
    seq = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        r = list(seq[-2])
        d = seq[-1]
        while len(r) >= len(d):  # r <- r mod d
            f = r[-1] / d[-1]
            off = len(r) - len(d)
            for i, c in enumerate(d):
                r[off + i] -= f * c
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        seq.append([-c for c in r])
    return seq


def _roots_between(seq, a, b):
    """Distinct real roots of seq[0] in (a, b], for a, b not roots."""

    def changes(t):
        signs = [v > 0 for v in (_eval(q, t) for q in seq) if v != 0]
        return sum(s != u for s, u in zip(signs, signs[1:]))

    return changes(a) - changes(b)


def _exact(ctx, v):
    man, exp = ctx.mpf(v).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _check_root(ctx, p, root, cap):
    """root is within tol(8) of the first root of p in (0, cap]; None iff p has none there."""
    seq = _sturm(p)
    if root is None:
        assert _roots_between(seq, Fraction(0), cap) == 0
        return
    root, delta = _exact(ctx, root), _exact(ctx, ctx.tol(8))
    below, above = root * (1 - delta), root * (1 + delta)
    assert 0 < root <= cap
    assert _roots_between(seq, below, above) >= 1, "no root within tol(8)"
    assert _roots_between(seq, Fraction(0), below) == 0, "an earlier root was skipped"


def _check_h(ctx, tab, rho, eps):
    rho_q, eps_q = _exact(ctx, rho), _exact(ctx, eps)
    p = _critical_polynomial(tab, [-rho_q], [Fraction(0), Fraction(1)], eps_q)
    h = linearized_critical_h(tab, ctx.mpf(rho), ctx.mpf(eps), ctx)
    _check_root(ctx, p, h, 10 / rho_q)
    return h


def _check_rho(ctx, tab, h, eps):
    h_q, eps_q = _exact(ctx, h), _exact(ctx, eps)
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


def ref_poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def ref_poly_scale(p, c):
    return [c * v for v in p]


def ref_poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def ref_poly_eval(p, x):
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_stage_polynomial(tableau, ctx, x, h, eps, stage_factor=2):
    alpha, rows, sums = bind(tableau, ctx)
    heps = ref_poly_scale(h, eps)
    dk = []
    for i in range(tableau.s):
        acc = [ctx.mpf(0)]
        for j, aij in enumerate(rows[i]):
            acc = ref_poly_add(acc, ref_poly_scale(dk[j], aij))
        base = ref_poly_scale(ref_poly_add(ref_poly_scale(heps, sums[i]), x), stage_factor)
        dk.append(ref_poly_mul(base, ref_poly_add([ctx.mpf(1)], ref_poly_mul(h, acc))))
    total = [ctx.mpf(0)]
    for i in range(tableau.s):
        total = ref_poly_add(total, ref_poly_scale(dk[i], alpha[i]))
    return total


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
    roots = []
    fa = ref_poly_eval(p, cuts[0])
    for a, b in zip(cuts, cuts[1:]):
        fb = ref_poly_eval(p, b)
        if fa != 0 and (fb == 0 or (fa < 0) != (fb < 0)):
            roots.append(b if fb == 0 else ref_newton_in_bracket(ctx, p, dp, a, b, fa))
            if first:
                break
        fa = fb
    return roots


def ref_first_root(ctx, q, h, hi):
    roots = ref_sign_changes(ctx, ref_poly_add([ctx.mpf(1)], ref_poly_mul(h, q)), hi, first=True)
    return roots[0] if roots else None


def ref_linearized_critical_h(tab, rho, eps, ctx, stage_factor):
    h = [ctx.mpf(0), ctx.mpf(1)]
    q = ref_stage_polynomial(tab, ctx, [-rho], h, eps, stage_factor)
    return ref_first_root(ctx, q, h, 10 / rho)


def ref_critical_rho(tab, params):
    h = params.h
    q = ref_stage_polynomial(tab, params.ctx, [0, -1], [h], params.epsilon)
    return ref_first_root(params.ctx, q, [h], 10 / h)


def ref_rk_cbar(tab, params, rho):
    ctx, h, eps = params.ctx, params.h, params.epsilon
    qs = ref_stage_polynomial(tab, ctx, [-rho, h * eps], [h], eps)
    theta = ref_poly_add([ctx.mpf(1)], ref_poly_scale(qs, h))
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


def _raw(v):
    return None if v is None else v._mpf_


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
    """linearized_critical_h, critical_triplet_linearized, the stage polynomial in the
    canard position and rk_cbar give the oracle's ``_mpf_`` tuples, or None where it
    finds no root."""
    ctx = ORACLE_CONTEXTS[digits]
    rho_s, eps_s = ctx.mpf(rho), ctx.mpf(eps)
    got = linearized_critical_h(tab, rho_s, eps_s, ctx, stage_factor)
    assert _raw(got) == _raw(ref_linearized_critical_h(tab, rho_s, eps_s, ctx, stage_factor))
    params = SystemParams.create(ctx, eps_s, ctx.mpf(h))
    if eps:  # critical triplets need eps > 0
        trip = critical_triplet_linearized(tab, params.h, params.epsilon, ctx)
        assert _raw(None if trip is None else trip.rho_star) == _raw(ref_critical_rho(tab, params))
    ref_q = ref_stage_polynomial(tab, ctx, [0, 1], [params.h], params.epsilon)
    h_p, eps_p = split(params.h._mpf_), split(params.epsilon._mpf_)
    got_q = _stage_polynomial(tab, ctx, [(0, 0), (1, 0)], [h_p], eps_p)
    assert [pack(c) for c in got_q] == [ctx.mpf(c)._mpf_ for c in ref_q]
    try:
        ref_cbar = ref_rk_cbar(tab, params, rho_s)
    except ValueError:  # every C_i vanishes
        with pytest.raises(ValueError, match="all C_i vanish"):
            rk_cbar(tab, params, rho_s)
        return
    assert rk_cbar(tab, params, rho_s)._mpf_ == ref_cbar._mpf_
