"""Sign-locked full labels: an interval proof may stop a full deviation orbit early.

The bisection's full labels run through _classify(..., lock=True), which
stops a deviation orbit at step 16, 32, ... once the float-interval
enclosure of the step ratio u'/u (linearization._rk_ratio, _kahan_ratio)
proves that u keeps its sign until it escapes.  The enclosure must hold the
exact u'/u of the kernel's computed step, and a locked label must be the
label of the full orbit, including where the orbit runs out of budget or
hits a pole.
"""

from fractions import Fraction

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
from canardlab.linearization import enclose, scheme_map
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
    """At (u, y) inside the intervals, the kernel's exact u'/u lies inside the enclosure."""
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
    try:
        lo, hi = smap.deviation_ratio()((y - widths[0], y + widths[1]), (-end, 0.0) if negative else (0.0, end))
    except ArithmeticError:
        return  # no enclosure: no lock
    assert Fraction(lo) <= _exact(u_next) / _exact(u) <= Fraction(hi)


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
