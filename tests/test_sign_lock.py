"""Sign-locked full labels: an interval proof may stop a full deviation orbit early.

The bisection's full labels run through _classify(..., lock=True), which
stops a deviation orbit at step 16, 32, ... once the float-interval
enclosure of the step ratio less one, u'/u - 1 (linearization._rk_ratio,
_kahan_ratio), proves that u keeps its sign until it escapes.  The enclosure
must hold the exact u'/u - 1 of the kernel's computed step, and a locked label must be the
label of the full orbit, including where the orbit runs out of budget or
hits a pole.
"""

import sys
from fractions import Fraction
from math import inf, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canardlab import (
    EULER,
    KAHAN,
    KUTTA3,
    SHIPPED_TABLEAUX,
    JumpClass,
    PlanarPoint,
    PoleError,
    SingularityKind,
    SystemParams,
    analysis,
    classify_jump,
    linearized_critical_h,
    make_context,
)
from canardlab.linearization import _iadd, _imul, _out, enclose, scheme_map
from canardlab.rounding import split

T = SingularityKind.TRANSCRITICAL
CONTEXTS = {d: make_context(d) for d in (16, 30, 200)}
SCHEMES = [KAHAN] + [SHIPPED_TABLEAUX[name] for name in sorted(SHIPPED_TABLEAUX)]


def _exact(p):
    m, e = p
    return Fraction(m) * Fraction(2) ** e


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    digits=st.sampled_from(sorted(CONTEXTS)),
    h=st.sampled_from(["0.01", "0.05", "0.1", "0.1001378", "0.25", "0.5"]),
    eps=st.sampled_from(["0.01", "0.1", "1"]),
    y=st.floats(-12, 12),
    widths=st.tuples(st.floats(0, 2), st.floats(0, 2)),
    mantissa=st.integers(1, 2**80),
    exponent=st.one_of(st.integers(-3000, -81), st.integers(-84, -78)),  # negligible or not
    negative=st.booleans(),
    stretch=st.floats(1, 1e6),
)
def test_enclosure_holds_the_kernel_ratio(
    scheme, digits, h, eps, y, widths, mantissa, exponent, negative, stretch
):
    """At (u, y) inside the intervals, the kernel's exact u'/u - 1 lies inside the enclosure."""
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    smap = scheme_map(T, scheme, params)
    u = split((ctx.mpf(-mantissa if negative else mantissa) * ctx.mpf(2) ** exponent)._mpf_)
    yp = split(ctx.mpf(y)._mpf_)  # a float, so exact at 16 digits and more
    try:
        u_next, _ = smap.deviation_step(u, yp)
    except PoleError:
        return
    end = enclose(u)[1] * stretch if not negative else -enclose(u)[0] * stretch
    enclosure, _ = smap.deviation_ratio()
    try:
        lo, hi = enclosure((y - widths[0], y + widths[1]), (-end, 0.0) if negative else (0.0, end))
    except ArithmeticError:
        return  # no enclosure: no lock
    assert Fraction(lo) <= _exact(u_next) / _exact(u) - 1 <= Fraction(hi)


def _two_nextafter_steps(lo, hi):
    """Outward rounding by two nextafter steps each way, OverflowError past the float range."""
    lo, hi = nextafter(nextafter(lo, -inf), -inf), nextafter(nextafter(hi, inf), inf)
    if not -inf < lo <= hi < inf:
        raise OverflowError
    return lo, hi


BIG = sys.float_info.max
EDGES = [0.0, 5e-324, 1e-323, 2.0 ** -1022, 2.0 ** -1022 - 5e-324, 2.0 ** -1021, 2.0 ** -1074 * 3,
         1.0, 1.5, BIG, nextafter(BIG, 0), BIG / 2, nextafter(BIG / 2, 0), 2.0 ** 1023, 1.3e308]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGES + [-v for v in EDGES]))
INTERVALS = st.tuples(FLOATS, FLOATS).map(sorted).map(tuple)


@settings(max_examples=1000, deadline=None)
@given(a=INTERVALS, b=INTERVALS, op=st.sampled_from(["out", "add", "mul"]))
def test_outward_rounding_covers_two_nextafter_steps(a, b, op):
    """_out, _iadd and _imul hold two nextafter steps out from the rounded hull, which holds the
    exact one, and raise OverflowError wherever that rule does (and perhaps at its edge)."""
    (al, ah), (bl, bh) = a, b
    if op == "out":
        hull, lo, hi, new = (Fraction(al), Fraction(ah)), al, ah, lambda: _out(al, ah)
    elif op == "add":
        hull, lo, hi = (Fraction(al) + Fraction(bl), Fraction(ah) + Fraction(bh)), al + bl, ah + bh
        new = lambda: _iadd(a, b)  # noqa: E731
    else:
        exact = [Fraction(x) * Fraction(y) for x in a for y in b]
        hull, floats = (min(exact), max(exact)), [x * y for x in a for y in b]
        lo, hi, new = min(floats), max(floats), lambda: _imul(a, b)
    try:
        want = _two_nextafter_steps(lo, hi)
    except OverflowError:
        with pytest.raises(OverflowError):
            new()
        return
    try:
        got = new()
    except OverflowError:
        assert max(-want[0], want[1]) > 2.0 ** 1023  # within a few ulps of the overflow edge
        return
    assert got[0] <= want[0] and want[1] <= got[1]
    assert Fraction(got[0]) <= hull[0] and hull[1] <= Fraction(got[1])


def _outcome(fn, *args, **kwargs):
    try:
        res = fn(*args, **kwargs)
    except PoleError as err:
        return "pole", err.index
    return res.label, res.steps


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    digits=st.sampled_from(sorted(CONTEXTS)),
    rho=st.sampled_from(["2", "5", "8"]),
    eps=st.sampled_from(["0.2", "0.5", "1"]),
    factor=st.floats(0.95, 1.05),
    delta=st.sampled_from(["1e-2", "1e-4", "1e-8", "-1e-2", "-1e-4", "-1e-8"]),
)
def test_locked_label_is_the_full_label(scheme, digits, rho, eps, factor, delta):
    """Near the critical step, on both entry sides, the lock returns the full orbit's label."""
    ctx = CONTEXTS[digits]
    seed = None if scheme == KAHAN else linearized_critical_h(scheme, rho, eps, ctx)
    h = (seed if seed is not None else 1 / ctx.mpf(rho)) * ctx.mpf(factor)
    params = SystemParams.create(ctx, eps, h)
    full = _outcome(classify_jump, T, scheme, params, rho, delta)
    locked = _outcome(analysis._classify, T, scheme, params, rho, delta, lock=True)
    assert locked[0] == full[0]
    if locked[0] in (JumpClass.RIGHT, JumpClass.LEFT):
        assert locked[1] <= full[1]
    else:  # stuck or a pole: the orbit ran to the same end
        assert locked == full


# The ends of README rows 3 (Euler) and 5 (Kutta3) at 200 digits: full
# orbits of 13,600 and 17,519 steps that lock at step 16 or 32.
README_ENDS = [
    (EULER, "5", "0.01", "0.099998140625", "0.100006"),
    (KUTTA3, "8", "0.01", "0.100137804563508625862749120879", "0.100143905319239313606496089876"),
]


@pytest.mark.parametrize("tableau, rho, eps, h_lo, h_hi", README_ENDS, ids=["euler", "kutta3"])
def test_readme_bracket_ends_lock_early(tableau, rho, eps, h_lo, h_hi):
    ctx = CONTEXTS[200]
    for h, label in ((h_lo, JumpClass.RIGHT), (h_hi, JumpClass.LEFT)):
        params = SystemParams.create(ctx, eps, h)
        full = classify_jump(T, tableau, params, rho, "1e-4")
        locked = analysis._classify(T, tableau, params, rho, "1e-4", lock=True)
        assert full.label is locked.label is label
        assert locked.steps <= 32 < 1000 < full.steps


# The ten bracket ends of the five README bisect rows at 200 digits, as printed, and the
# step at which each full label locked with the enclosures widened by two nextafter steps
# per operation; the lock must come at that step or earlier, with the same label.
README_LOCKS = [
    (EULER, "5", "1", "0.1043515625", JumpClass.RIGHT, 16),
    (EULER, "5", "1", "0.104359375", JumpClass.LEFT, 16),
    (EULER, "50", "1", "0.009999421875", JumpClass.RIGHT, 16),
    (EULER, "50", "1", "0.0100002109375", JumpClass.LEFT, 16),
    (EULER, "5", "0.01", "0.099998140625", JumpClass.RIGHT, 16),
    (EULER, "5", "0.01", "0.100006", JumpClass.LEFT, 16),
    (KUTTA3, "8", "1", "0.100388011741931148856735804176", JumpClass.RIGHT, 16),
    (KUTTA3, "8", "1", "0.100394126996057728483249981552", JumpClass.LEFT, 16),
    (KUTTA3, "8", "0.01", "0.100137804563508625862749120879", JumpClass.RIGHT, 32),
    (KUTTA3, "8", "0.01", "0.100143905319239313606496089876", JumpClass.LEFT, 32),
]


@pytest.mark.parametrize("tableau, rho, eps, h, label, steps", README_LOCKS)
def test_readme_bracket_ends_lock_no_later(tableau, rho, eps, h, label, steps):
    params = SystemParams.create(CONTEXTS[200], eps, h)
    locked = analysis._classify(T, tableau, params, rho, "1e-4", lock=True)
    assert locked.label is label
    assert locked.steps <= steps


@pytest.mark.parametrize("digits", [16, 30])
@pytest.mark.parametrize("max_n", [1, 16, 40, 200])
def test_small_budget_is_still_stuck(digits, max_n):
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.01", "0.1")
    full = classify_jump(T, EULER, params, 5, "1e-4", max_n=max_n)
    locked = analysis._classify(T, EULER, params, 5, "1e-4", max_n=max_n, lock=True)
    assert full.label is locked.label is JumpClass.STUCK
    assert full.steps == locked.steps == max_n


@pytest.mark.parametrize("digits", [16, 30])
def test_kahan_orbit_into_its_pole_still_raises(digits):
    # h = 1/2, eps = 1/8: y = k/16 reaches 1/h = 2 at step 32, where u (from
    # 1e-80) is still negligible against y, so 1 - h (y + u) is exactly 0;
    # the lock tried at steps 16 and 32 must not prove anything across it
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.125", "0.5")
    start = PlanarPoint(ctx.mpf("1e-80"), ctx.mpf(0))
    for lock in (False, True):
        with pytest.raises(PoleError) as err:
            analysis._classify(T, KAHAN, params, 1, 0, start=start, lock=lock)
        assert err.value.index == 33


def test_kahan_pole_right_after_a_failed_lock_still_raises():
    # h = 1/2, eps = 1/4: y = k/8 reaches 1/h = 2 at step 16, so step 17 hits the pole; over
    # a budget of 10**9 steps at 16 digits the lock at step 16 cannot bound y's rounding
    # drift, and the trial step that looks for a fixed point meets the pole first
    ctx = CONTEXTS[16]
    params = SystemParams.create(ctx, "0.25", "0.5")
    start = PlanarPoint(ctx.mpf("1e-80"), ctx.mpf(0))
    for lock in (False, True):
        with pytest.raises(PoleError) as err:
            analysis._classify(T, KAHAN, params, 1, 0, start=start, max_n=10**9, lock=lock)
        assert err.value.index == 17
