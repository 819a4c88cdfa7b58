"""Bit-identity of the implicit pitchfork family on mantissa pairs.

The reference below is a plain-mpf copy of the earlier
a_family_step_pitchfork: Newton from the forward-Euler predictor, the
cleared cubic solved with polyroots when Newton fails, and up to 8 polish
steps.  The pair solve behind a_family_step_pitchfork (its Kahan member
a = -1/2 included) and afamily_kernel (packed from its pairs) must give the same point and
residual tuples and the same BranchInfo.method, and raise NoRealBranch
where the reference does.  Since the cubic fallback solves the cleared cubic in a
variable scaled by a power of two to its roots' size (Fujiwara's bound), so that
polyroots starts there, the reference does the same.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fnan

import canardlab.schemes as schemes
from canardlab import (
    AFamily,
    NoRealBranch,
    PlanarPoint,
    SingularityKind,
    SystemParams,
    a_family_step_pitchfork,
    make_context,
)
from canardlab.linearization import CANARDS, scheme_map
from canardlab.rounding import pack, split
from canardlab.schemes import BranchInfo, StepResult, afamily_kernel

P = SingularityKind.PITCHFORK
CONTEXTS = {d: make_context(d) for d in (16, 50, 200)}


# -- plain-mpf reference ----------------------------------------------------------


def ref_residual(aparam, h, x, y, yn, xn):
    mid_x = (x + xn) / 2
    mid_y = (y + yn) / 2
    f_old = x * y - x * x * x
    f_mid = mid_x * mid_y - mid_x * mid_x * mid_x
    f_new = xn * yn - xn * xn * xn
    return x + h * (aparam * f_old + (1 - 2 * aparam) * f_mid + aparam * f_new) - xn


def ref_residual_prime(aparam, h, x, y, yn, xn):
    mid_x = (x + xn) / 2
    mid_y = (y + yn) / 2
    d_mid = (mid_y - 3 * mid_x * mid_x) / 2
    d_new = yn - 3 * xn * xn
    return h * ((1 - 2 * aparam) * d_mid + aparam * d_new) - 1


def ref_cubic_coeffs(aparam, h, x, y, yn):
    ysum = y + yn
    b = 1 - 2 * aparam
    c0 = x + h * (aparam * (x * y - x * x * x) + b * x * ysum / 4 - b * x * x * x / 8)
    c1 = -1 + h * (b * ysum / 4 - 3 * b * x * x / 8 + aparam * yn)
    c2 = -3 * h * b * x / 8
    c3 = -h * (1 + 6 * aparam) / 8
    return c0, c1, c2, c3


def ref_step(aparam, params, p, reverse=False, max_newton=200):
    ctx = params.ctx
    aparam = ctx.mpf(aparam)
    h, eps = params.h, params.epsilon
    if reverse:
        h = -h
    x, y = p.x, p.y
    yn = y + eps * h
    if x == 0:
        return StepResult(PlanarPoint(ctx.mpf(0), yn), BranchInfo("canard", ctx.mpf(0)))

    tol = ctx.tol(10)
    xn = x + h * x * (y - x * x)
    predictor = xn
    converged = False
    for _ in range(max_newton):
        r = ref_residual(aparam, h, x, y, yn, xn)
        dr = ref_residual_prime(aparam, h, x, y, yn, xn)
        if dr == 0:
            break
        step = r / dr
        xn = xn - step
        if abs(step) <= ctx.tol(2) * (1 + abs(xn)):
            converged = True
            break
    if converged:
        r = ref_residual(aparam, h, x, y, yn, xn)
        if abs(r) <= tol * (1 + abs(xn)):
            return StepResult(PlanarPoint(xn, yn), BranchInfo("newton", r))

    c0, c1, c2, c3 = ref_cubic_coeffs(aparam, h, x, y, yn)
    coeffs = [c3, c2, c1, c0]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if len(coeffs) < 2:
        raise NoRealBranch("implicit pitchfork update degenerated to a constant relation")
    # solved in x = 2**k t, k from Fujiwara's bound 2 max |c_i / c_0|**(1/i) on the roots
    mags = [mpmath.mag(c) for c in coeffs]  # 2**(mag - 1) <= |c| < 2**mag
    k = 1 + max((math.ceil(Fraction(mags[i] - mags[0] + 1, i)) for i in range(1, len(coeffs))
                 if coeffs[i]), default=0)
    scale = ctx.mpf(2) ** k
    roots = ctx.polyroots([c * scale ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs)],
                          maxsteps=200, extraprec=60)
    roots = [r * scale for r in roots]
    imag_bar = ctx.tol(15)
    real_roots = [r.real for r in roots if abs(r.imag) <= imag_bar * (1 + abs(r))]
    if not real_roots:
        raise NoRealBranch("implicit pitchfork update has no real branch at this point")
    xn = min(real_roots, key=lambda r: abs(r - predictor))
    for _ in range(8):
        r = ref_residual(aparam, h, x, y, yn, xn)
        dr = ref_residual_prime(aparam, h, x, y, yn, xn)
        if dr == 0:
            break
        xn = xn - r / dr
    r = ref_residual(aparam, h, x, y, yn, xn)
    if abs(r) > tol * (1 + abs(xn)):
        raise NoRealBranch("implicit pitchfork update: no branch met the residual tolerance")
    return StepResult(PlanarPoint(xn, yn), BranchInfo("cubic", r))


def _raw(res):
    info = res.branch_info
    return res.point.x._mpf_, res.point.y._mpf_, info.method, info.residual._mpf_


def _outcome(fn, *args, **kwargs):
    try:
        return _raw(fn(*args, **kwargs))
    except NoRealBranch as err:
        return "no real branch", str(err)


# 1/2 + 2^-169, exactly: one ulp above 1/2 at 50 digits (169 bits), where
# b = 1 - 2a is -2^-168, tiny but not 0, so the full term plan runs
NEAR_HALF = f"{(2**168 + 1) * 5**169}e-169"


# -- strategies -----------------------------------------------------------------

digits_st = st.sampled_from(sorted(CONTEXTS))
a_st = st.one_of(
    st.sampled_from(["0.5", "0", "-0.5"]),
    st.builds(lambda k: f"{k}e-3", st.integers(-1000, 1000)),
)
coord_st = st.builds(lambda k, e: f"{k}e{e}", st.integers(-999, 999), st.integers(-30, 1))
step_st = st.sampled_from(["0.1", "0.01", "0.5", "1", "3", "10"])
eps_st = st.sampled_from(["0.01", "0.1", "1"])


@settings(max_examples=150, deadline=None)
@given(digits=digits_st, a=a_st, h=step_st, eps=eps_st, x=coord_st, y=coord_st,
       reverse=st.booleans())
@example(digits=50, a="-0.5", h="0.1", eps="0.01", x="1e-4", y="-0.4995", reverse=False)
@example(digits=16, a="0.5", h="3", eps="1", x="900e0", y="-5e0", reverse=False)
@example(digits=200, a="0", h="1", eps="1", x="-7e-1", y="9e0", reverse=True)
# Newton fails its residual bar, and so does the polished cubic root
@example(digits=200, a="-166e-3", h="10", eps="0.01", x="798e1", y="318e-2", reverse=False)
# exactly a = 1/2 and a = 0, whose term plans drop the zero terms
@example(digits=16, a="0.5", h="0.1", eps="0.01", x="3e-1", y="-7e-1", reverse=False)
@example(digits=50, a="0.5", h="1", eps="0.1", x="-15e-1", y="2e0", reverse=True)
@example(digits=200, a="0.5", h="0.01", eps="1", x="1e-20", y="4e-1", reverse=False)
@example(digits=16, a="0", h="0.5", eps="0.1", x="-7e-1", y="9e0", reverse=True)
@example(digits=50, a="0", h="0.1", eps="0.01", x="1e-4", y="-4995e-4", reverse=False)
@example(digits=200, a="0", h="3", eps="0.01", x="42e-2", y="-3e0", reverse=False)
# one ulp off 1/2: the full plan
@example(digits=50, a=NEAR_HALF, h="0.1", eps="0.01", x="3e-1", y="-7e-1", reverse=False)
def test_step_matches_mpf_reference(digits, a, h, eps, x, y, reverse):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    p = PlanarPoint(ctx.mpf(x), ctx.mpf(y))
    want = _outcome(ref_step, ctx.mpf(a), params, p, reverse=reverse)
    assert _outcome(a_family_step_pitchfork, ctx.mpf(a), params, p, reverse=reverse) == want
    if not reverse and want[0] != "no real branch":
        x, y = afamily_kernel(ctx.mpf(a), params)(split(p.x._mpf_), split(p.y._mpf_))
        assert (pack(x), pack(y)) == want[:2]


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
def test_kahan_member_matches_reference(digits):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.01", "0.1")
    p = PlanarPoint(ctx.mpf("0.3"), ctx.mpf("-0.7"))
    want = _raw(ref_step(ctx.mpf(-1) / 2, params, p))
    assert _raw(a_family_step_pitchfork(ctx.mpf(-1) / 2, params, p)) == want
    assert want[2] == "newton"


@pytest.mark.parametrize("a", ["0.5", "0", "-0.5", "3"])
@pytest.mark.parametrize("reverse", [False, True])
def test_canard_branch(ctx, params, a, reverse):
    p = PlanarPoint(ctx.mpf(0), ctx.mpf("-0.4995"))
    res = a_family_step_pitchfork(ctx.mpf(a), params, p, reverse=reverse)
    assert _raw(res) == _raw(ref_step(ctx.mpf(a), params, p, reverse=reverse))
    assert res.branch_info.method == "canard" and res.point.x == 0


@pytest.mark.parametrize("max_newton", [0, 1])
@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("a", ["0.5", "0", "-0.5", "0.25"])
def test_forced_cubic_fallback(monkeypatch, max_newton, digits, a):
    """With Newton cut short, the cubic root and its pair polish match the mpf ones."""
    monkeypatch.setattr(schemes, "_AFAMILY_MAX_NEWTON", max_newton)
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.01", "0.1")
    methods = set()
    for x, y in (("0.3", "-0.7"), ("-1.5", "2"), ("1e-20", "0.4")):
        p = PlanarPoint(ctx.mpf(x), ctx.mpf(y))
        for reverse in (False, True):
            want = _outcome(ref_step, ctx.mpf(a), params, p, reverse=reverse, max_newton=max_newton)
            methods.add(want[2])
            assert _outcome(a_family_step_pitchfork, ctx.mpf(a), params, p, reverse=reverse) == want
    # one Newton step can already meet the bar from a start near the canard
    assert (methods == {"cubic"}) if max_newton == 0 else ("cubic" in methods)


def test_near_half_is_one_ulp_above_half():
    a = split(CONTEXTS[50].mpf(NEAR_HALF)._mpf_)
    assert a == (2**168 + 1, -169)


@pytest.mark.parametrize("max_newton", [200, 0], ids=["newton", "polish"])
@pytest.mark.parametrize("a, plan", [("0.5", "no b"), ("0", "no a"), (NEAR_HALF, "full"), ("-0.5", "full")],
                         ids=["a=1/2", "a=0", "a=1/2+ulp", "a=-1/2"])
def test_term_plan(monkeypatch, max_newton, a, plan):
    """Exact a = 1/2 and a = 0 drop their zero terms in Newton and in the cubic's polish.

    Every slope evaluation is recorded; with Newton cut to 0 steps only the
    polish after the cubic root evaluates it.  The step matches the reference.
    """
    seen = set()
    slope = schemes._afamily_slope_pair

    def spy(a_, b_, *args):
        seen.add("no a" if a_ is None else "no b" if b_ is None else "full")
        return slope(a_, b_, *args)

    monkeypatch.setattr(schemes, "_afamily_slope_pair", spy)
    monkeypatch.setattr(schemes, "_AFAMILY_MAX_NEWTON", max_newton)
    ctx = CONTEXTS[50]
    params = SystemParams.create(ctx, "0.01", "0.1")
    p = PlanarPoint(ctx.mpf("0.3"), ctx.mpf("-0.7"))
    got = _outcome(a_family_step_pitchfork, ctx.mpf(a), params, p)
    assert got == _outcome(ref_step, ctx.mpf(a), params, p, max_newton=max_newton)
    assert got[2] == ("cubic" if max_newton == 0 else "newton")
    assert seen == {plan}


@pytest.mark.parametrize("special", [finf, fnan], ids=["inf", "nan"])
def test_non_finite_point_has_no_branch(ctx, params, special):
    for p in (PlanarPoint(ctx.make_mpf(special), ctx.mpf(1)),
              PlanarPoint(ctx.mpf(1), ctx.make_mpf(special))):
        with pytest.raises(NoRealBranch):
            a_family_step_pitchfork(ctx.mpf(0), params, p)


@pytest.mark.parametrize("a", ["0.5", "0", "-0.5"])
def test_benchmark_orbits_step_by_step(a):
    """The 1500-step orbits of simulate --scheme afamily (h 0.1, eps 0.01, rho 0.4995)."""
    ctx = CONTEXTS[50]
    params = SystemParams.create(ctx, "0.01", "0.1")
    start = CANARDS[P].start(params, ctx.mpf("0.4995"), ctx.mpf("1e-4"))
    step = scheme_map(P, AFamily(ctx.mpf(a)), params).step
    p, x, y = start, split(start.x._mpf_), split(start.y._mpf_)
    methods = set()
    for _ in range(1500):
        ref = ref_step(ctx.mpf(a), params, p)
        methods.add(ref.branch_info.method)
        x, y = step(x, y)
        p = ref.point
        assert (pack(x), pack(y)) == (p.x._mpf_, p.y._mpf_)
    assert methods == {"newton"}


def _pair_near(draw, mag, prec):
    """A nonzero pair of up to prec + 1 bits, either sign, of magnitude mag."""
    m = draw(st.integers(1, (1 << (prec + 1)) - 1))
    return (-m if draw(st.booleans()) else m), mag - m.bit_length()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), digits=digits_st)
def test_within_decides_like_the_rounded_bound(data, digits):
    """_within(v, tol, xn) is le_product(v, tol, add(1, |xn|)): the magnitudes it decides
    from are drawn next to both of its cut-offs, xn above, at and below 1, and zeros."""
    prec = CONTEXTS[digits].prec
    draw = data.draw
    tol = _pair_near(draw, draw(st.integers(-200, 0)), prec)
    tol = abs(tol[0]), tol[1]
    gx = draw(st.integers(-5, 5))
    xn = (0, 0) if draw(st.integers(0, 9)) == 0 else _pair_near(draw, gx, prec)
    g = max(1, xn[0].bit_length() + xn[1]) if xn[0] else 1
    gt = tol[0].bit_length() + tol[1]
    v = (0, 3) if draw(st.integers(0, 19)) == 0 else _pair_near(draw, gt + g + draw(st.integers(-4, 5)), prec)
    want = schemes.le_product(v, tol, schemes.add((1, 0), (abs(xn[0]), xn[1]), prec), prec)
    assert schemes._within(v, tol, xn, prec) == want
