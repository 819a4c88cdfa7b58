"""Bit-identity of the deviation-coordinate classification on mantissa pairs.

The references below are plain-mpf copies of the loops the pair code
replaced: the transcritical deviation iteration (Kahan, forward Euler and
the explicit RK stage recursion), and the pitchfork forward-Euler orbit,
whose x is its own deviation.  The deviation maps of scheme_map, iterated by
the one classification loop under the exact-zero rule, and the pitchfork's
forward-Euler map through classify_jump, must reproduce them exactly at
their decision boundaries: same label, same step count, and the same
``_mpf_`` tuples for the point and the deviation, or the same pole at the
same iterate.  The pitchfork has no deviation map of its own.
"""

import random

from mpmath.libmp import from_man_exp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canardlab import (
    EULER,
    KAHAN,
    SHIPPED_TABLEAUX,
    AFamily,
    JumpClass,
    JumpResult,
    PlanarPoint,
    PoleError,
    SingularityKind,
    SystemParams,
    classify_jump,
    make_context,
)
from canardlab.analysis import _iterate
from canardlab.linearization import _exact_zero, scheme_map
from canardlab.rounding import add, pack, split

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK

CONTEXTS = {d: make_context(d) for d in (16, 50, 200)}
SCHEMES = [KAHAN] + [SHIPPED_TABLEAUX[name] for name in sorted(SHIPPED_TABLEAUX)]


def _name(scheme):
    return getattr(scheme, "name", scheme)


# -- plain-mpf references -------------------------------------------------------


def _ref_decide(dev, dev0, steps, point):
    same_side = (dev > 0) == (dev0 > 0)
    return JumpResult(JumpClass.RIGHT if same_side else JumpClass.LEFT, steps, point, dev)


def ref_transcritical_deviation(scheme, params, u0, y0, threshold, max_n):
    ctx = params.ctx
    h, eps = params.h, params.epsilon
    heps = h * eps
    u, y = u0, y0
    if scheme == KAHAN:
        num_eps = eps * h * h
        for n in range(1, max_n + 1):
            den = 1 - h * (y + u)
            if den == 0:
                raise PoleError("transcritical Kahan step hit its pole", index=n)
            u = u * (1 + h * y + num_eps) / den
            y = y + heps
            if u == 0:
                return JumpResult(JumpClass.STUCK, n, PlanarPoint(y + u, y), u)
            if abs(u) >= threshold:
                return _ref_decide(u, u0, n, PlanarPoint(y + u, y))
        return JumpResult(JumpClass.STUCK, max_n, PlanarPoint(y + u, y), u)
    if scheme.s == 1:
        for n in range(1, max_n + 1):
            u = u * (1 + h * (2 * y + u))
            y = y + heps
            if u == 0:
                return JumpResult(JumpClass.STUCK, n, PlanarPoint(y + u, y), u)
            if abs(u) >= threshold:
                return _ref_decide(u, u0, n, PlanarPoint(y + u, y))
        return JumpResult(JumpClass.STUCK, max_n, PlanarPoint(y + u, y), u)
    alpha = [ctx.mpf(v) for v in scheme.alpha]
    rows = [[ctx.mpf(v) for v in row] for row in scheme.a]
    two_eps = 2 * eps
    for n in range(1, max_n + 1):
        ds = []
        base_s = 2 * y + u
        for i in range(scheme.s):
            ui = u
            si = base_s
            for j, aij in enumerate(rows[i]):
                ui = ui + h * aij * ds[j]
                si = si + h * aij * (ds[j] + two_eps)
            ds.append(ui * si)
        du = ctx.mpf(0)
        for i in range(scheme.s):
            du = du + alpha[i] * ds[i]
        u = u + h * du
        y = y + heps
        if u == 0:
            return JumpResult(JumpClass.STUCK, n, PlanarPoint(y + u, y), u)
        if abs(u) >= threshold:
            return _ref_decide(u, u0, n, PlanarPoint(y + u, y))
    return JumpResult(JumpClass.STUCK, max_n, PlanarPoint(y + u, y), u)


def ref_deviation_step(scheme, params, u, y):
    """One transcritical deviation step (u, y) -> (unew, y + h eps) as its plain mpf expression."""
    h, eps = params.h, params.epsilon
    if scheme == KAHAN:
        return u * (1 + h * y + eps * h * h) / (1 - h * (y + u)), y + h * eps
    if scheme.s == 1:
        return u * (1 + h * (2 * y + u)), y + h * eps
    ctx = params.ctx
    ds = []
    for row in scheme.a:
        ui, si = u, 2 * y + u
        for j, aij in enumerate(row):
            ui = ui + h * ctx.mpf(aij) * ds[j]
            si = si + h * ctx.mpf(aij) * (ds[j] + 2 * eps)
        ds.append(ui * si)
    du = ctx.mpf(0)
    for ai, d in zip(scheme.alpha, ds):
        du = du + ctx.mpf(ai) * d
    return u + h * du, y + h * eps


def ref_pitchfork_euler(params, start, threshold, max_n):
    h, eps = params.h, params.epsilon
    heps = h * eps
    x0 = start.x
    x, y = start.x, start.y
    for n in range(1, max_n + 1):
        x, y = x + h * (x * (y - x * x)), y + heps
        if x == 0:
            return JumpResult(JumpClass.STUCK, n, PlanarPoint(x, y), x)
        if abs(x) >= threshold:
            return _ref_decide(x, x0, n, PlanarPoint(x, y))
    return JumpResult(JumpClass.STUCK, max_n, PlanarPoint(x, y), x)


def _raw(res):
    return res.label, res.steps, res.point.x._mpf_, res.point.y._mpf_, res.deviation._mpf_


def _outcome(fn, *args):
    try:
        return _raw(fn(*args))
    except PoleError as err:
        return "pole", str(err), err.index


def merged_transcritical(scheme, params, u0, y0, threshold, max_n):
    """The loop on the pairs of (u0, y0), packed into the references' result."""
    step = scheme_map(T, scheme, params).deviation_step
    u0, thr = split(u0._mpf_), split(threshold._mpf_)
    label, n, u, y, _, _ = _iterate(step, _exact_zero, u0, split(y0._mpf_), u0, u0[0] > 0, thr, max_n)
    make = params.ctx.make_mpf
    point = PlanarPoint(make(pack(add(y, u, params.ctx.prec))), make(pack(y)))
    return JumpResult(label or JumpClass.STUCK, n, point, make(pack(u)))  # None: budget end


def merged_pitchfork_euler(params, start, threshold, max_n):
    return classify_jump(P, EULER, params, 1, 0, escape=threshold, max_n=max_n, start=start)


def _both_transcritical(scheme, params, u0, y0, threshold, max_n):
    args = (scheme, params, u0, y0, threshold, max_n)
    got = _outcome(merged_transcritical, *args)
    assert got == _outcome(ref_transcritical_deviation, *args)
    return got


def _both_pitchfork(params, start, threshold, max_n):
    got = _outcome(merged_pitchfork_euler, params, start, threshold, max_n)
    assert got == _outcome(ref_pitchfork_euler, params, start, threshold, max_n)
    return got


# -- strategies -----------------------------------------------------------------

digits_st = st.sampled_from(sorted(CONTEXTS))
# decimal strings k * 10^-e over the step sizes, time scales and entry
# points of the experiments, up to step sizes past their critical values
step_st = st.builds(lambda k, e: f"{k}e-{e}", st.integers(1, 999), st.integers(2, 4))
eps_st = st.builds(lambda k: f"{k}e-3", st.integers(10, 1000))
rho_st = st.builds(lambda k: f"{k}e-2", st.integers(10, 500))
delta_st = st.builds(
    lambda sign, k, e: f"{sign}{k}e-{e}", st.sampled_from(["", "-"]), st.integers(1, 9),
    st.integers(1, 210),
)


# -- properties -----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(digits=digits_st, scheme=st.sampled_from(SCHEMES), h=step_st, eps=eps_st,
       rho=rho_st, delta=delta_st)
@example(digits=200, scheme=SHIPPED_TABLEAUX["kutta3"], h="997e-4", eps="10e-3",
         rho="800e-2", delta="1e-4")
def test_transcritical_deviation_bit_identical(digits, scheme, h, eps, rho, delta):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    rho = ctx.mpf(rho)
    _both_transcritical(scheme, params, ctx.mpf(delta), -rho, rho / 2, 400)


DEEP = make_context(5000)


@pytest.mark.parametrize("h", ["0.1", "1e-3", "0.00125", "0.103"])
@pytest.mark.parametrize("u0", ["1e-3", "-1e-5010"])  # the second is negligible against 2y
@pytest.mark.parametrize("scheme", [EULER, KAHAN, SHIPPED_TABLEAUX["kutta3"], SHIPPED_TABLEAUX["ralston3"]],
                         ids=_name)
def test_deviation_kernels_match_mpf_at_5000_digits(scheme, u0, h):
    """Past the scaler crossover, where the products by h, h a_ij and alpha_i take the identity."""
    params = SystemParams.create(DEEP, "0.00125", h)
    step = scheme_map(T, scheme, params).deviation_step
    u, y = DEEP.mpf(u0), DEEP.mpf(-1)
    pu, py = split(u._mpf_), split(y._mpf_)
    for _ in range(40):
        u, y = ref_deviation_step(scheme, params, u, y)
        pu, py = step(pu, py)
        assert (pack(pu), pack(py)) == (u._mpf_, y._mpf_)


@pytest.mark.parametrize("scheme", SCHEMES + [pytest.param(AFamily("0.5"), id="afamily")], ids=_name)
def test_only_the_transcritical_diagonal_has_a_deviation_map(scheme):
    params = SystemParams.create(CONTEXTS[16], "0.1", "0.05")
    assert scheme_map(P, scheme, params).deviation_step is None
    if not isinstance(scheme, AFamily):
        assert scheme_map(T, scheme, params).deviation_step is not None


# -- hand-built cases -----------------------------------------------------------


def _next_up(v):
    """The tuple one unit in the last place above the positive tuple v."""
    return from_man_exp(v[1] + 1, v[2])


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=_name)
def test_threshold_equal_to_the_deviation_decides(digits, scheme):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.1", "0.05")
    u0, y0 = ctx.mpf("-1e-3"), ctx.mpf("-2")
    first = ref_transcritical_deviation(scheme, params, u0, y0, ctx.mpf(1), 1)
    bar = abs(first.deviation)
    hit = _both_transcritical(scheme, params, u0, y0, bar, 50)
    assert hit[:2] == (JumpClass.RIGHT, 1)
    above = ctx.make_mpf(_next_up(bar._mpf_))
    assert _both_transcritical(scheme, params, u0, y0, above, 50)[1] > 1


def test_pitchfork_threshold_equal_to_the_deviation_decides(ctx):
    params = SystemParams.create(ctx, "0.1", "0.05")
    start = PlanarPoint(ctx.mpf("1e-3"), ctx.mpf("2"))
    bar = abs(ref_pitchfork_euler(params, start, ctx.mpf(1), 1).deviation)
    assert _both_pitchfork(params, start, bar, 50)[:2] == (JumpClass.RIGHT, 1)
    assert _both_pitchfork(params, start, ctx.make_mpf(_next_up(bar._mpf_)), 50)[1] > 1


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
def test_deviation_collapsing_to_zero_is_stuck(digits):
    ctx = CONTEXTS[digits]
    # h = 1/2, eps = 1: Euler's factor 1 + h (2y + u) and Kahan's
    # 1 + h y + eps h^2 vanish exactly at the first step
    params = SystemParams.create(ctx, "1", "0.5")
    euler = _both_transcritical(EULER, params, ctx.mpf(1), ctx.mpf("-1.5"), ctx.mpf(10), 50)
    kahan = _both_transcritical(KAHAN, params, ctx.mpf(1), ctx.mpf("-2.5"), ctx.mpf(10), 50)
    # pitchfork: 1 + h (y - x^2) = 0 at x = 1, y = -1
    pitchfork = _both_pitchfork(params, PlanarPoint(ctx.mpf(1), ctx.mpf(-1)), ctx.mpf(10), 50)
    for got in (euler, kahan, pitchfork):
        assert got[:2] == (JumpClass.STUCK, 1)
        assert got[4] == ctx.mpf(0)._mpf_


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
def test_kahan_pole_carries_its_index(digits):
    ctx = CONTEXTS[digits]
    # h = 1/2, eps = 1 from (u, y) = (3/8, 1/2): one exact step reaches
    # (1, 1), where the denominator 1 - h (y + u) vanishes
    params = SystemParams.create(ctx, "1", "0.5")
    got = _both_transcritical(KAHAN, params, ctx.mpf("0.375"), ctx.mpf("0.5"), ctx.mpf(10), 50)
    assert got == ("pole", "transcritical Kahan step hit its pole", 2)


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=_name)
def test_budget_exhausted_is_stuck(digits, scheme):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.01", "0.01")
    got = _both_transcritical(scheme, params, ctx.mpf("1e-4"), ctx.mpf(-1), ctx.mpf("0.5"), 7)
    assert got[:2] == (JumpClass.STUCK, 7)
    none = _both_transcritical(scheme, params, ctx.mpf("1e-4"), ctx.mpf(-1), ctx.mpf("0.5"), 0)
    assert none[:2] == (JumpClass.STUCK, 0)
    start = PlanarPoint(ctx.mpf("1e-4"), ctx.mpf(-1))
    assert _both_pitchfork(params, start, ctx.mpf("0.5"), 7)[:2] == (JumpClass.STUCK, 7)


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("scheme", [EULER, SHIPPED_TABLEAUX["kutta3"], KAHAN], ids=_name)
def test_slow_start_longer_than_the_precision(digits, scheme):
    # y0 = 1/2 + 2^-(prec+1) has prec+1 bits: 2 y0 is a tie that mpf
    # arithmetic rounds to 1 before adding the deviation (Kahan rounds y0 + u)
    ctx = CONTEXTS[digits]
    prec = ctx.prec
    y0 = ctx.make_mpf(from_man_exp(2**prec + 1, -prec - 1))
    for h in ("0.75", "0.3", "0.1"):
        params = SystemParams.create(ctx, "1", h)
        u0 = ctx.mpf(2) ** (-prec - 10)
        _both_transcritical(scheme, params, u0, y0, ctx.mpf(1), 3)


@settings(max_examples=60, deadline=None)
@given(digits=digits_st, scheme=st.sampled_from(SCHEMES), h=st.sampled_from(["0.1", "0.25", "0.5"]),
       seed=st.integers(0, 2**32), negative=st.booleans())
@example(digits=16, scheme=SHIPPED_TABLEAUX["heun3"], h="0.5", seed=0, negative=False)
@example(digits=200, scheme=SHIPPED_TABLEAUX["ralston3"], h="0.5", seed=0, negative=False)
def test_deviation_start_longer_than_the_precision(digits, scheme, h, seed, negative):
    # u0 has prec+1 bits and is a tie: the zero a31 of Heun3 and Ralston3
    # adds a zero product to it in the third stage, which rounds it there
    ctx = CONTEXTS[digits]
    prec = ctx.prec
    m = 1 << prec | random.Random(seed).getrandbits(prec) | 1
    u0 = ctx.make_mpf(from_man_exp(-m if negative else m, -prec - 7))
    params = SystemParams.create(ctx, "0.01", h)
    _both_transcritical(scheme, params, u0, ctx.mpf(-1), ctx.mpf(1), 3)


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=_name)
def test_orbit_leaving_the_negligible_regime(digits, scheme):
    # above the diagonal's turning point u grows from 2^-(prec+10), far below
    # a quarter ulp of 2y (and of y for Kahan), until the sums with u and with
    # the stage slopes round like any other
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.01", "0.1")
    u0 = ctx.mpf(2) ** (-ctx.prec - 10)
    got = _both_transcritical(scheme, params, u0, ctx.mpf(1), ctx.mpf("0.5"), 20 * ctx.prec)
    assert got[0] is JumpClass.RIGHT


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=_name)
def test_orbit_through_y_exactly_zero(digits, scheme):
    # eps h = 1/8 exactly, so y = -1 + n/8 is 0 at step 8: 2y + u and y + u
    # are then u itself, which no operand rule may drop
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.25", "0.5")
    got = _both_transcritical(scheme, params, ctx.mpf("1e-3"), ctx.mpf(-1), ctx.mpf("0.5"), 4000)
    assert got[0] is JumpClass.RIGHT and got[1] > 8
