"""Linearized critical steps against the exact critical polynomial.

1 + h Q_s(-rho; h, eps) is rebuilt here in exact Fractions from the tableau,
independently of the package's polynomial helpers and of q_s, and its real
roots are counted exactly with Sturm sequences.  A solver result must sit
within tol(8) relative of a root of that polynomial, with no root before
it, and the solver must report no root exactly when the polynomial has none
below the cap (10/rho in h, 10/h in rho).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canardlab import (
    HEUN3,
    KUTTA3,
    SHIPPED_TABLEAUX,
    critical_triplet_linearized,
    linearized_critical_h,
    make_context,
)

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
