from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canardlab import (
    AFamily,
    EULER,
    HEUN2,
    KAHAN,
    KUTTA3,
    SHIPPED_TABLEAUX,
    PoleError,
    SingularityKind,
    SystemParams,
    finite_difference_factor,
    jacobian_factor,
    q_s,
    symmetry_defect,
    make_context,
    wayout,
)
from canardlab.linearization import CANARDS, _stage_polynomial, scheme_map
from canardlab.rounding import pack, split
from mpf_oracles import bind

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD


# -- stage-derivative recursion ---------------------------------------------------


def test_qs_euler_is_twice_position(ctx, params):
    rho = ctx.mpf(4)
    assert q_s(EULER, params, -rho) == -2 * rho


def test_qs_heun2_hand_expansion(ctx):
    params = SystemParams.create(ctx, "0", "0.1")
    for x_txt in ("-2", "-0.5", "0.7"):
        x = ctx.mpf(x_txt)
        expected = 2 * x * (1 + params.h * x)
        assert abs(q_s(HEUN2, params, x) - expected) < ctx.tol(8)


def test_qs_vanishes_at_origin_for_layer_problem(ctx):
    params = SystemParams.create(ctx, "0", "0.1")
    for tab in SHIPPED_TABLEAUX.values():
        assert q_s(tab, params, ctx.mpf(0)) == 0


def test_qs_pitchfork_euler(ctx, params):
    y = ctx.mpf("-3")
    assert q_s(EULER, params, y, 1) == y


def ref_q_s(tableau, params, x, stage_factor):
    """The scalar stage loop q_s ran in plain mpf before it became the degree-0 recursion."""
    ctx, h, eps = params.ctx, params.h, params.epsilon
    alpha, rows, sums = bind(tableau, ctx)
    dk = []
    for i in range(tableau.s):
        acc = ctx.mpf(0)
        for j, aij in enumerate(rows[i]):
            acc = acc + aij * dk[j]
        dk.append(stage_factor * (x + h * eps * sums[i]) * (1 + h * acc))
    total = ctx.mpf(0)
    for i in range(tableau.s):
        total = total + alpha[i] * dk[i]
    return total


QS_CONTEXTS = {d: make_context(d) for d in (16, 50, 200, 5000)}


@settings(max_examples=120, deadline=None)
@given(
    tab=st.sampled_from(sorted(SHIPPED_TABLEAUX.values(), key=lambda t: t.name)),
    x=st.fractions(-40, 40, max_denominator=10**6),
    h=st.fractions(Fraction(1, 1000), 1, max_denominator=1000).filter(lambda v: v > 0),
    eps=st.fractions(0, 2, max_denominator=1000),
    stage_factor=st.sampled_from([2, 1]),
    digits=st.sampled_from(sorted(QS_CONTEXTS)),
)
def test_qs_is_the_degree_zero_stage_polynomial(tab, x, h, eps, stage_factor, digits):
    """q_s equals _stage_polynomial with x = [x], h = [h] and the mpf stage loop, bit for bit;
    the explicit-RK multiplier of scheme_map is 1 + h q_s on pairs."""
    ctx = QS_CONTEXTS[digits]
    params = SystemParams.create(ctx, ctx.mpf(eps), ctx.mpf(h))
    x = ctx.mpf(x)
    hp, ep, xp = (split(v._mpf_) for v in (params.h, params.epsilon, x))
    q = q_s(tab, params, x, stage_factor)
    assert q._mpf_ == pack(_stage_polynomial(tab, ctx, [xp], [hp], ep, stage_factor)[0])
    assert q._mpf_ == ref_q_s(tab, params, x, stage_factor)._mpf_
    kind = T if stage_factor == 2 else P
    factor = scheme_map(kind, tab, params).factor(xp)
    assert pack(factor) == (1 + params.h * ref_q_s(tab, params, x, stage_factor))._mpf_


# -- multipliers ------------------------------------------------------------------


def test_unit_multiplier_at_symmetry_centers(ctx, params):
    c = -params.epsilon * params.h / 2
    assert abs(jacobian_factor(T, KAHAN, params, c) - 1) < ctx.tol(5)
    assert abs(jacobian_factor(P, AFamily(ctx.mpf("7.5")), params, c) - 1) < ctx.tol(5)
    assert abs(jacobian_factor(F, KAHAN, params, ctx.mpf(0)) - 1) < ctx.tol(5)


def test_euler_multipliers_are_affine(ctx, params):
    s = ctx.mpf("-0.35")
    assert jacobian_factor(T, EULER, params, s) == 1 + 2 * params.h * s
    assert jacobian_factor(P, EULER, params, s) == 1 + params.h * s


def test_rk_multiplier_uses_stage_recursion(ctx, params):
    s = ctx.mpf("-0.8")
    assert jacobian_factor(T, KUTTA3, params, s) == 1 + params.h * q_s(KUTTA3, params, s)


def test_unsupported_combinations_rejected(ctx, params):
    with pytest.raises(ValueError):
        jacobian_factor(F, EULER, params, ctx.mpf(0))
    with pytest.raises(ValueError):
        jacobian_factor(T, AFamily(ctx.mpf(0)), params, ctx.mpf(0))


def test_kahan_multiplier_pole(ctx):
    params = SystemParams.create(ctx, "0.01", "0.125")
    with pytest.raises(PoleError):
        jacobian_factor(T, KAHAN, params, ctx.mpf(8))


def test_multipliers_strictly_increasing(ctx, params):
    grid = [ctx.mpf(i) / 8 - 2 for i in range(33)]  # [-2, 2]
    cases = [
        (T, EULER),
        (T, KAHAN),
        (P, AFamily(ctx.mpf("-0.5"))),
        (F, KAHAN),
    ]
    for kind, scheme in cases:
        vals = [jacobian_factor(kind, scheme, params, s) for s in grid]
        assert all(b > a for a, b in zip(vals, vals[1:])), (kind, scheme)


def test_afamily_stability_reversal(ctx, params):
    # near the critical a the multiplier's pole sits at y ~ 0; sample below it
    a_crit = 2 / (params.h**2 * params.epsilon)
    grid = [-2 + ctx.mpf(i) * 3 / 64 for i in range(33)]  # [-2, -0.5]
    below = [jacobian_factor(P, AFamily(a_crit - 100), params, y) for y in grid]
    at = [jacobian_factor(P, AFamily(a_crit), params, y) for y in grid]
    above = [jacobian_factor(P, AFamily(a_crit + 100), params, y) for y in grid]
    assert all(b > a for a, b in zip(below, below[1:]))
    assert all(abs(v - at[0]) < ctx.tol(10) for v in at)  # constant at the critical a
    assert all(b < a for a, b in zip(above, above[1:]))


# -- variational structure, by central differences of the one-step map -------------


def _step_at(ctx, step, x, y):
    """step, on mantissa pairs, applied to the scalars (x, y) of ctx."""
    xn, yn = step(split(ctx.mpf(x)._mpf_), split(ctx.mpf(y)._mpf_))
    return ctx.make_mpf(pack(xn)), ctx.make_mpf(pack(yn))


def test_transcritical_eigenvector(ctx, params):
    # the step moves the diagonal rigidly, so its linearization fixes (1, 1)
    s, d = ctx.mpf("-0.6"), ctx.mpf("1e-20")
    for scheme in (EULER, KUTTA3, KAHAN):
        step = scheme_map(T, scheme, params).step
        hi, lo = _step_at(ctx, step, s + d, s + d), _step_at(ctx, step, s - d, s - d)
        for a, b in zip(hi, lo):
            assert abs((a - b) / (2 * d) - 1) < ctx.mpf("1e-25"), scheme


def test_pitchfork_eigenvector(ctx, params):
    # {x = 0} is invariant and the slow step does not depend on x, so the
    # linearization on the line fixes (0, 1)
    y, d = ctx.mpf("-0.6"), ctx.mpf("1e-20")
    for scheme in (EULER, AFamily(ctx.mpf("0.5"))):
        step = scheme_map(P, scheme, params).step
        (x_hi, y_hi), (x_lo, y_lo) = _step_at(ctx, step, 0, y + d), _step_at(ctx, step, 0, y - d)
        assert x_hi == 0 and x_lo == 0
        assert _step_at(ctx, step, d, y)[1] == _step_at(ctx, step, -d, y)[1]
        assert abs((y_hi - y_lo) / (2 * d) - 1) < ctx.mpf("1e-25"), scheme


def test_fold_variational_transversal_entry(ctx, params):
    # the x column of the Kahan fold step's derivative on the parabola:
    # d xnew/dx is the transversal multiplier, d ynew/dx = eps h (1 + q)/(1 - h x + q)
    # with q = h^2 eps/4
    s, d = ctx.mpf("0.4"), ctx.mpf("1e-25")
    h, eps = params.h, params.epsilon
    step = scheme_map(F, KAHAN, params).step
    y = CANARDS[F].point(params, s).y
    hi, lo = _step_at(ctx, step, s + d, y), _step_at(ctx, step, s - d, y)
    m11, m21 = ((a - b) / (2 * d) for a, b in zip(hi, lo))
    q = h * h * eps / 4
    assert abs(m11 - jacobian_factor(F, KAHAN, params, s)) < ctx.mpf("1e-20")
    assert abs(m21 - eps * h * (1 + q) / (1 - h * s + q)) < ctx.mpf("1e-20")


# -- accumulated products ----------------------------------------------------------


def test_contraction_single_factor(ctx, params):
    assert abs(jacobian_factor(T, EULER, params, ctx.mpf("-0.2")) - ctx.mpf("0.96")) < ctx.tol(8)


def test_contraction_lattice_symmetry_transcritical(ctx, params):
    n_lat = 12
    eh = params.epsilon * params.h
    rho = eh * n_lat + eh / 2
    res = wayout(T, KAHAN, params, rho)
    assert res.n_in == res.psi == n_lat
    assert abs(res.product_at_exit - 1) < ctx.tol(12)


def test_contraction_lattice_symmetry_fold(ctx, params):
    n_lat = 12
    rho = params.epsilon * params.h * n_lat / 2
    res = wayout(F, KAHAN, params, rho)
    assert res.n_in == res.psi == n_lat
    assert abs(res.product_at_exit - 1) < ctx.tol(12)


def test_contraction_pole_carries_index(ctx):
    # the entry lies beyond the multiplier's zero -(1 + h^2 eps)/h = -2.3125, off its lattice
    params = SystemParams.create(ctx, "0.625", "0.5")
    with pytest.raises(PoleError) as err:
        wayout(T, KAHAN, params, ctx.mpf("4.25"))
    assert err.value.index == 20  # position -4.25 + 0.3125*k hits the pole x = 2 at k = 20


def test_product_symmetry_vstar(ctx, params):
    """v*(-m) v*(m) = 1 along the special canard for the Kahan maps."""
    for kind in (T, F):
        c, spacing = CANARDS[kind].center(params), CANARDS[kind].spacing(params)
        for m in (1, 5, 20):
            prod = ctx.mpf(1)
            for k in range(-m, m + 1):
                prod *= jacobian_factor(kind, KAHAN, params, c + k * spacing)
            # the center factor J(c) = 1 is counted once; pairs cancel exactly
            assert abs(prod - 1) < ctx.tol(12)


# -- pairing identity ---------------------------------------------------------------


def test_symmetry_defect_zero_at_center(ctx, params):
    assert symmetry_defect(T, KAHAN, params, -params.epsilon * params.h / 2) < ctx.tol(5)


def _pole_distance(kind, params, a):
    """Distance from the symmetry center to the pole of the pair's multiplier."""
    h, eps = params.h, params.epsilon
    if kind is T:
        return 1 / h + eps * h / 2  # pole at x = 1/h
    if kind is F:
        return (1 + h * h * eps / 4) / h
    return 2 / h - h * a * eps  # implicit family, pole where 1 - hy/2 = h^2 (1+2a) eps/4


def _milli(lo, hi):
    return st.builds(lambda k: f"{k}e-3", st.integers(lo, hi))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from([T, F, P]), h=_milli(1, 500), eps=_milli(1, 1000),
       a=_milli(-1000, 1000), frac=st.integers(-999, 999))
def test_pairing_identity_property(ctx, kind, h, eps, a, frac):
    params = SystemParams.create(ctx, eps, h)
    a = ctx.mpf(a)
    scheme = AFamily(a) if kind is P else KAHAN
    d = ctx.mpf(frac) / 1000 * _pole_distance(kind, params, a) / 2
    assert symmetry_defect(kind, scheme, params, CANARDS[kind].center(params) + d) <= ctx.tol(10)


# -- finite differences --------------------------------------------------------------


def test_finite_difference_agreement(ctx, params):
    delta = ctx.mpf("1e-25")
    cases = [
        (T, EULER),
        (T, KUTTA3),
        (T, KAHAN),
        (P, EULER),
        (P, KUTTA3),
        (P, AFamily(ctx.mpf("-0.5"))),
        (F, KAHAN),
    ]
    for kind, scheme in cases:
        for s_txt in ("-0.8", "0.3"):
            s = ctx.mpf(s_txt)
            jac = jacobian_factor(kind, scheme, params, s)
            fd = finite_difference_factor(kind, scheme, params, s, delta)
            assert abs(fd - jac) <= ctx.mpf("1e-20") * abs(jac), (kind, scheme, s_txt)
