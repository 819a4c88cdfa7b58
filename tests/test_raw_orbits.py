"""Bit-identity of the mantissa-pair Euler kernel and the exponent-prefiltered glue rule.

The references below are plain-mpf copies of the loops the pair code
replaced: the mpf forward-Euler update p + h f(p), the raw transcritical
classification (Kahan, Euler and RK branches), the Kahan fold
classification, each with the glue rule written as
abs(u) <= glue * max(abs(x), abs(y)), and the pitchfork classification of
the forward-Euler, explicit-RK and implicit-family maps.  The one
classification loop, reached through classify_jump(..., track_deviation=False),
must reproduce them exactly: same label, same step count, and the same
``_mpf_`` tuples for the point and the deviation.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from canardlab import (
    EULER,
    HEUN3,
    KAHAN,
    KUTTA3,
    AFamily,
    ButcherTableau,
    JumpClass,
    JumpResult,
    NoRealBranch,
    PlanarPoint,
    PoleError,
    SingularityKind,
    SystemParams,
    a_family_step_pitchfork,
    classify_jump,
    euler_step,
    fold_kahan_parabola_offset,
    kahan_step_fold,
    make_context,
    rk_step,
)
from canardlab.linearization import _glued
from canardlab.rounding import pack, scaler, split
from canardlab.schemes import euler_kernel
from canardlab.systems import vector_field

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD

CONTEXTS = {d: make_context(d) for d in (16, 50, 200)}


# -- plain-mpf references -------------------------------------------------------


def ref_euler_step(kind, params, p):
    v = vector_field(kind, params, p)
    h = params.h
    return PlanarPoint(p.x + h * v.x, p.y + h * v.y)


def _ref_decide(dev, dev0, steps, point):
    same_side = (dev > 0) == (dev0 > 0)
    return JumpResult(JumpClass.RIGHT if same_side else JumpClass.LEFT, steps, point, dev)


def ref_classify_transcritical_raw(scheme, params, start, threshold, max_n):
    h, eps = params.h, params.epsilon
    heps = h * eps
    glue = params.ctx.tol(3)
    x, y = start.x, start.y
    u0 = x - y
    if scheme == KAHAN:
        for n in range(1, max_n + 1):
            den = 1 - h * x
            if den == 0:
                raise PoleError("transcritical Kahan step hit its pole", index=n)
            yn = y + heps
            x = (x + heps - h * y * yn) / den
            y = yn
            u = x - y
            if abs(u) <= glue * max(abs(x), abs(y)):
                return JumpResult(JumpClass.STUCK, n, PlanarPoint(x, y), u)
            if abs(u) >= threshold:
                return _ref_decide(u, u0, n, PlanarPoint(x, y))
        return JumpResult(JumpClass.STUCK, max_n, PlanarPoint(x, y), x - y)
    if scheme.s == 1:
        for n in range(1, max_n + 1):
            t = x * x - y * y + eps
            x, y = x + h * t, y + heps
            u = x - y
            if abs(u) <= glue * max(abs(x), abs(y)):
                return JumpResult(JumpClass.STUCK, n, PlanarPoint(x, y), u)
            if abs(u) >= threshold:
                return _ref_decide(u, u0, n, PlanarPoint(x, y))
        return JumpResult(JumpClass.STUCK, max_n, PlanarPoint(x, y), x - y)
    p = PlanarPoint(x, y)
    for n in range(1, max_n + 1):
        p = rk_step(scheme, T, params, p)
        u = p.x - p.y
        if abs(u) <= glue * max(abs(p.x), abs(p.y)):
            return JumpResult(JumpClass.STUCK, n, p, u)
        if abs(u) >= threshold:
            return _ref_decide(u, u0, n, p)
    return JumpResult(JumpClass.STUCK, max_n, p, p.x - p.y)


def ref_classify_fold(params, start, threshold, max_n):
    offset = fold_kahan_parabola_offset(params)
    glue = params.ctx.tol(3)
    p = start
    w0 = p.y - (p.x * p.x - offset)
    for n in range(1, max_n + 1):
        try:
            p = kahan_step_fold(params, p)
        except PoleError as err:
            err.index = n
            raise
        w = p.y - (p.x * p.x - offset)
        if abs(w) <= glue * max(abs(p.y), p.x * p.x):
            return JumpResult(JumpClass.STUCK, n, p, w)
        if abs(w) >= threshold:
            return _ref_decide(w, w0, n, p)
    w = p.y - (p.x * p.x - offset)
    return JumpResult(JumpClass.STUCK, max_n, p, w)


def ref_classify_pitchfork(scheme, params, start, threshold, max_n):
    if scheme is EULER:
        stepper = lambda p: euler_step(P, params, p)
    elif isinstance(scheme, ButcherTableau):
        stepper = lambda p: rk_step(scheme, P, params, p)
    else:
        a = params.ctx.mpf(-1) / 2 if scheme == KAHAN else params.ctx.mpf(scheme.a)
        stepper = lambda p: a_family_step_pitchfork(a, params, p).point
    p = start
    for n in range(1, max_n + 1):
        try:
            p = stepper(p)
        except PoleError as err:
            err.index = n
            raise
        if p.x == 0:
            return JumpResult(JumpClass.STUCK, n, p, p.x)
        if abs(p.x) >= threshold:
            return _ref_decide(p.x, start.x, n, p)
    return JumpResult(JumpClass.STUCK, max_n, p, p.x)


def merged_raw(kind):
    """The one raw classification loop for kind, with the references' arguments."""

    def classify(scheme, params, start, threshold, max_n):
        return classify_jump(kind, scheme, params, 1, 0, escape=threshold, max_n=max_n,
                             track_deviation=False, start=start)

    return classify


def _raw(res):
    return res.label, res.steps, res.point.x._mpf_, res.point.y._mpf_, res.deviation._mpf_


def _outcome(fn, *args):
    try:
        return _raw(fn(*args))
    except PoleError as err:
        return "pole", err.index
    except NoRealBranch as err:
        return "no real branch", str(err)


# -- strategies -----------------------------------------------------------------

digits_st = st.sampled_from(sorted(CONTEXTS))
# decimal strings k * 10^-e: dense in the ranges the experiments use
step_st = st.builds(lambda k, e: f"{k}e-{e}", st.integers(1, 999), st.integers(3, 4))
eps_st = st.builds(lambda k: f"{k}e-3", st.integers(10, 1000))
rho_st = st.builds(lambda k: f"{k}e-2", st.integers(10, 300))
# deviation 10^-e relative to the entry: from far off the canard to below
# the glue bar of every context
delta_st = st.builds(
    lambda sign, k, e: f"{sign}{k}e-{e}", st.sampled_from(["", "-"]), st.integers(1, 9),
    st.integers(1, 210),
)


# -- the Euler kernel -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    digits=digits_st, kind=st.sampled_from([T, P, F]), h=step_st, eps=eps_st,
    x0=st.builds(lambda k, e: f"{k}e{e}", st.integers(-999, 999), st.integers(-40, 1)),
    y0=st.builds(lambda k, e: f"{k}e{e}", st.integers(-999, 999), st.integers(-40, 1)),
)
def test_euler_kernel_matches_mpf_update(digits, kind, h, eps, x0, y0):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    step = euler_kernel(kind, params)
    p = PlanarPoint(ctx.mpf(x0), ctx.mpf(y0))
    x, y = split(p.x._mpf_), split(p.y._mpf_)
    for _ in range(40):
        ref = ref_euler_step(kind, params, p)
        got = euler_step(kind, params, p)
        x, y = step(x, y)
        assert (got.x._mpf_, got.y._mpf_) == (ref.x._mpf_, ref.y._mpf_)
        assert (pack(x), pack(y)) == (ref.x._mpf_, ref.y._mpf_)
        p = ref


DEEP = make_context(5000)


@pytest.mark.parametrize("h", ["0.1", "1e-3", "0.00125", "0.103"])
@pytest.mark.parametrize("kind", [T, P, F], ids=lambda k: k.value)
def test_euler_kernel_matches_mpf_update_at_5000_digits(kind, h):
    """Past the scaler crossover the products by h and eps take the small-rational identity."""
    params = SystemParams.create(DEEP, "0.00125", h)
    assert scaler(split(params.h._mpf_), DEEP.prec).__name__ == "rational_product"
    start = {T: ("-0.7", "-0.9"), P: ("1e-4", "-5"), F: ("0.3", "-0.5")}[kind]
    p = PlanarPoint(*(DEEP.mpf(v) for v in start))
    step = euler_kernel(kind, params)
    x, y = split(p.x._mpf_), split(p.y._mpf_)
    for _ in range(40):
        p = ref_euler_step(kind, params, p)
        x, y = step(x, y)
        assert (pack(x), pack(y)) == (p.x._mpf_, p.y._mpf_)


# -- raw classification ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(digits=digits_st, h=step_st, eps=eps_st, rho=rho_st, delta=delta_st,
       scheme=st.sampled_from([EULER, KAHAN, KUTTA3]))
@example(digits=16, h="1e-3", eps="10e-3", rho="100e-2", delta="1e-4", scheme=EULER)
def test_raw_transcritical_classification_bit_identical(digits, h, eps, rho, delta, scheme):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    rho = ctx.mpf(rho)
    start = PlanarPoint(-rho, -rho + ctx.mpf(delta))
    assume(start.x != start.y)
    max_n = 20_000 if scheme is EULER and digits == 16 else 300
    args = (scheme, params, start, rho / 2, max_n)
    assert _outcome(merged_raw(T), *args) == _outcome(ref_classify_transcritical_raw, *args)


@settings(max_examples=40, deadline=None)
@given(digits=digits_st, h=step_st, eps=eps_st, rho=rho_st, delta=delta_st)
def test_raw_fold_classification_bit_identical(digits, h, eps, rho, delta):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    rho = ctx.mpf(rho)
    start = PlanarPoint(-rho, rho * rho - fold_kahan_parabola_offset(params) + ctx.mpf(delta))
    args = (params, start, rho / 2, 300)
    got = _outcome(merged_raw(F), KAHAN, *args)
    assert got == _outcome(ref_classify_fold, *args)


@settings(max_examples=50, deadline=None)
@given(digits=digits_st, h=step_st, eps=eps_st, rho=rho_st, delta=delta_st,
       scheme=st.sampled_from([EULER, KUTTA3, HEUN3, KAHAN, AFamily("0.5"), AFamily("0")]))
def test_raw_pitchfork_classification_bit_identical(digits, h, eps, rho, delta, scheme):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    rho = ctx.mpf(rho)
    args = (scheme, params, PlanarPoint(ctx.mpf(delta), -rho), rho / 2, 150)
    assert _outcome(merged_raw(P), *args) == _outcome(ref_classify_pitchfork, *args)


# -- the glue rule at its decision boundaries ----------------------------------


def _ref_glued(ctx, u, x, y):
    u, x, y = (ctx.make_mpf(pack(v)) for v in (u, x, y))
    return abs(u) <= ctx.tol(3) * max(abs(x), abs(y))


def _pairs(*values):
    return tuple(split(v._mpf_) for v in values)


def _neighbours(bar):
    """Pairs at the bar, one unit in the last place off it, and 1 or 2 binades off."""
    man, exp = split(bar)
    out = [(man + dm, exp + k) for k in (-2, -1, 0, 1, 2) for dm in (-1, 0, 1)]
    return out + [(-m, e) for m, e in out]


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("m", ["1", "0.75", "-3.3", "2.5e-7", "-1e30"])
def test_glue_rule_at_its_boundary(digits, m):
    ctx = CONTEXTS[digits]
    prec, glue = ctx.prec, split(ctx.tol(3)._mpf_)
    big = ctx.mpf(m)
    bar = (ctx.tol(3) * abs(big))._mpf_
    for other in (ctx.mpf(0), big / 3, -big / 5):
        for u in _neighbours(bar):
            for x, y in (_pairs(big, other), _pairs(other, big)):
                assert _glued(u, x, y, glue, prec) == _ref_glued(ctx, u, x, y), (u, x, y)
    # the bar itself is glued, one unit above it is not
    (big,), zero = _pairs(big), (0, 0)
    assert _glued(split(bar), big, zero, glue, prec)
    assert not _glued((bar[1] + 1, bar[2]), big, zero, glue, prec)


def test_glue_rule_zero_operands(ctx):
    prec, glue = ctx.prec, split(ctx.tol(3)._mpf_)
    zero, one, tiny = (0, 0), (1, 0), split(ctx.mpf("1e-60")._mpf_)
    cases = [(zero, one, one), (zero, zero, zero), (tiny, zero, zero),
             (tiny, one, zero), (tiny, zero, one), (one, zero, one)]
    for u, x, y in cases:
        assert _glued(u, x, y, glue, prec) == _ref_glued(ctx, u, x, y), (u, x, y)


def _pair_st(magnitude, prec):
    """0, or a pair of either sign and at most prec significant bits whose magnitude
    lies within 3 binades of the given one, its mantissa shifted left by up to 8 bits
    (rounding leaves trailing zeros in place)."""
    return st.one_of(
        st.just((0, 0)),
        st.builds(
            lambda man, k, shift, neg: ((-man if neg else man) << shift,
                                        magnitude + k - man.bit_length() - shift),
            st.integers(1, 2**prec - 1), st.integers(-3, 3), st.integers(0, 8), st.booleans(),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), digits=digits_st, mag=st.integers(-900, 900), other=st.integers(-6, 6))
def test_glue_rule_matches_mpf_on_pairs(data, digits, mag, other):
    """_glued against |u| <= tol(3) max(|x|, |y|), with |u| near that bar."""
    ctx = CONTEXTS[digits]
    prec, glue = ctx.prec, split(ctx.tol(3)._mpf_)
    x = data.draw(_pair_st(mag, prec))
    y = data.draw(_pair_st(mag + other, prec))
    u = data.draw(_pair_st(mag + max(other, 0) + glue[0].bit_length() + glue[1], prec))
    assert _glued(u, x, y, glue, prec) == _ref_glued(ctx, u, x, y), (u, x, y)
