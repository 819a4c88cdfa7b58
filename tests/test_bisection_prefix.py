"""Bisection on prefix labels against a bisection that fully classifies every midpoint.

critical_h_bisection labels its scan points and midpoints from short
prefixes of the deviation orbit (on the pitchfork line, of the raw orbit,
whose x is its own deviation) and fully classifies only the final
bracket.  The reference below is a copy of the loop it replaced, which fully
classifies every scan point and midpoint; the brackets must agree bit for
bit.  When a prefix label is wrong, the fallback must still return a
bracket whose ends fully classify RIGHT and LEFT.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canardlab import (
    EULER,
    HEUN3,
    KUTTA3,
    RALSTON3,
    SSPRK3,
    JumpClass,
    JumpResult,
    NoBracket,
    SingularityKind,
    SystemParams,
    Unresolved,
    analysis,
    critical_h_bisection,
    linearized_critical_h,
    make_context,
)

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
DELTA = "1e-4"


def reference_bisection(kind, tableau, rho, eps, delta, digits_target, ctx, h_bracket=None):
    """(lo, hi) of the bisection that fully classifies every midpoint."""
    rho = ctx.mpf(rho)

    def classify_at(h):
        params = SystemParams.create(ctx, eps, h)
        return analysis.classify_jump(kind, tableau, params, rho, ctx.mpf(delta)).label

    if h_bracket is not None:
        lo, hi = ctx.mpf(h_bracket[0]), ctx.mpf(h_bracket[1])
        if classify_at(lo) is not JumpClass.RIGHT or classify_at(hi) is not JumpClass.LEFT:
            raise NoBracket("provided bracket does not classify RIGHT/LEFT")
    else:
        stage_factor = 1 if kind is P else 2
        seed = linearized_critical_h(tableau, rho, eps, ctx, stage_factor)
        if seed is None:
            raise NoBracket("no seed")
        ratio = 1 + ctx.mpf(1) / 256
        h_prev = seed * (1 - ctx.mpf(1) / 512)
        c_prev = classify_at(h_prev)
        up = c_prev is JumpClass.RIGHT
        lo = hi = None
        for _ in range(160):
            h_cur = h_prev * ratio if up else h_prev / ratio
            c_cur = classify_at(h_cur)
            pair = ((h_prev, c_prev), (h_cur, c_cur))
            (h_lo, c_lo), (h_hi, c_hi) = pair if up else pair[::-1]
            if c_lo is JumpClass.RIGHT and c_hi is JumpClass.LEFT:
                lo, hi = h_lo, h_hi
                break
            h_prev, c_prev = h_cur, c_cur
        if lo is None:
            raise NoBracket("no flip within the scan budget")
    width_bar = ctx.mpf(10) ** (-digits_target)
    while (hi - lo) > width_bar * hi:
        mid = (lo + hi) / 2
        c_mid = classify_at(mid)
        if c_mid is JumpClass.RIGHT:
            lo = mid
        elif c_mid is JumpClass.LEFT:
            hi = mid
        else:
            raise Unresolved(-1, "stuck midpoint")
    return lo, hi


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except (NoBracket, Unresolved) as err:
        return type(err).__name__
    if isinstance(result, tuple):
        return tuple(h._mpf_ for h in result)
    return (result.source.lo._mpf_, result.source.hi._mpf_)


def _full_label(ctx, tableau, rho, eps, h):
    params = SystemParams.create(ctx, eps, h)
    return analysis.classify_jump(T, tableau, params, rho, DELTA).label


@pytest.fixture
def counted(monkeypatch):
    """Count classifications: 'full' (no settle rule given) and 'prefix'."""
    real = analysis._classify
    calls = {"full": 0, "prefix": 0}

    def classify(*args, **kwargs):
        calls["full" if kwargs.get("settle") is None else "prefix"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "_classify", classify)
    return calls


CASES = [
    pytest.param(EULER, "5", "1", ("0.103", "0.105"), 4, 50, id="euler-5-1-bracket"),
    pytest.param(EULER, "50", "1", ("0.0099", "0.010001"), 4, 30, id="euler-50-1-bracket"),
    pytest.param(EULER, "1", "1", None, 5, 40, id="euler-1-1-scan"),
    pytest.param(KUTTA3, "8", "1", None, 4, 50, id="kutta3-8-1-scan"),
    pytest.param(KUTTA3, "8", "0.1", None, 3, 30, id="kutta3-8-0.1-scan"),
]


PITCHFORK_CASES = [
    pytest.param(P, KUTTA3, "4", "0.01", None, 3, 50, id="pitchfork-kutta3-4-0.01-scan"),
    pytest.param(P, HEUN3, "4", "0.1", None, 3, 50, id="pitchfork-heun3-4-0.1-scan"),
]


@pytest.mark.parametrize(
    "kind, tableau, rho, eps, bracket, target, digits",
    [pytest.param(T, *case.values, id=case.id) for case in CASES] + PITCHFORK_CASES,
)
def test_brackets_bit_identical_to_full_bisection(kind, tableau, rho, eps, bracket, target, digits):
    ctx = make_context(digits)
    args = (kind, tableau, rho, eps, DELTA, target, ctx)
    got = _outcome(critical_h_bisection, *args, h_bracket=bracket)
    assert got == _outcome(reference_bisection, *args, h_bracket=bracket)


@settings(max_examples=30, deadline=None)
@given(
    tableau=st.sampled_from([EULER, KUTTA3, HEUN3, RALSTON3, SSPRK3]),
    rho_eps=st.one_of(
        st.tuples(st.floats(2, 10), st.floats(0.5, 1)),
        # the prefixes' sign-change bands reach about 20 steps here (rho 5, eps 0.05)
        st.tuples(st.floats(2, 6), st.floats(0.05, 0.2)),
    ).map(lambda pair: tuple(round(v, 3) for v in pair)),
)
def test_property_brackets_bit_identical(tableau, rho_eps):
    rho, eps = rho_eps
    ctx = make_context(30)
    args = (T, tableau, str(rho), str(eps), DELTA, 3, ctx)
    assert _outcome(critical_h_bisection, *args) == _outcome(reference_bisection, *args)


def test_prefix_labels_replace_most_full_classifications(counted):
    ctx = make_context(50)
    critical_h_bisection(T, EULER, 5, 1, DELTA, 4, ctx, h_bracket=("0.103", "0.105"))
    # the bracket check and the two new ends of the final bracket
    assert counted["full"] == 4
    assert counted["prefix"] > 0


def test_scan_on_prefix_labels_fully_classifies_only_the_final_bracket(counted):
    ctx = make_context(30)
    critical_h_bisection(T, KUTTA3, 8, "0.1", DELTA, 3, ctx)
    # a full-label scan spends 3 full classifications here, then verifies 2
    assert counted["full"] == 2
    assert counted["prefix"] > 0


def test_pitchfork_scan_fully_classifies_only_the_final_bracket(counted):
    ctx = make_context(50)
    critical_h_bisection(P, KUTTA3, 4, "0.01", DELTA, 3, ctx)
    # the pitchfork's x is its own deviation, so its raw orbits give prefix labels
    assert counted["full"] == 2
    assert counted["prefix"] > 0


def test_raw_coordinate_bisection_classifies_every_midpoint_fully(counted):
    ctx = make_context(60)  # raw orbits at 30 digits collapse onto the diagonal here
    critical_h_bisection(
        T, EULER, 5, 1, DELTA, 3, ctx, h_bracket=("0.103", "0.105"), track_deviation=False,
    )
    assert counted["prefix"] == 0 and counted["full"] > 4


def _with_prefix_results(monkeypatch, rewrite):
    """Route every prefix result (a settle rule given by the bisection) through rewrite."""
    real = analysis._classify

    def classify(*args, **kwargs):
        res = real(*args, **kwargs)
        return res if kwargs.get("settle") is None else rewrite(res)

    monkeypatch.setattr(analysis, "_classify", classify)


def _flipped(res):
    """The same prefix, read with the wrong sign: every prefix label is wrong."""
    label = JumpClass.LEFT if res.label is JumpClass.RIGHT else JumpClass.RIGHT
    return JumpResult(label, res.steps, res.point, -res.deviation, res.last_sign_change)


def _collapsed(res):
    """The same prefix with its deviation collapsed to exactly 0."""
    zero = 0 * res.deviation
    return JumpResult(JumpClass.STUCK, res.steps, res.point, zero, res.last_sign_change)


@pytest.mark.parametrize("tableau, rho, eps, bracket, target, digits", CASES[:4])
def test_wrong_prefix_labels_fall_back_to_a_verified_bracket(
    monkeypatch, tableau, rho, eps, bracket, target, digits
):
    _with_prefix_results(monkeypatch, _flipped)
    ctx = make_context(digits)
    trip = critical_h_bisection(T, tableau, rho, eps, DELTA, target, ctx, h_bracket=bracket)
    lo, hi = trip.source.lo, trip.source.hi
    assert lo < hi and hi - lo <= ctx.mpf(10) ** (-target) * hi
    assert _full_label(ctx, tableau, rho, eps, lo) is JumpClass.RIGHT
    assert _full_label(ctx, tableau, rho, eps, hi) is JumpClass.LEFT


def test_collapsed_prefix_falls_back_to_full_bisection(monkeypatch):
    _with_prefix_results(monkeypatch, _collapsed)
    ctx = make_context(50)
    args = (T, EULER, "5", "1", DELTA, 4, ctx)
    bracket = ("0.103", "0.105")
    got = _outcome(critical_h_bisection, *args, h_bracket=bracket)
    monkeypatch.undo()
    assert got == _outcome(reference_bisection, *args, h_bracket=bracket)


SCAN_CASES = [case for case in CASES[:4] if case.values[3] is None]


@pytest.mark.parametrize("rewrite", [_flipped, _collapsed], ids=["flipped", "collapsed"])
@pytest.mark.parametrize("tableau, rho, eps, bracket, target, digits", SCAN_CASES)
def test_failed_prefix_scan_falls_back_to_the_full_scan(
    monkeypatch, rewrite, tableau, rho, eps, bracket, target, digits
):
    _with_prefix_results(monkeypatch, rewrite)
    ctx = make_context(digits)
    args = (T, tableau, rho, eps, DELTA, target, ctx)
    got = _outcome(critical_h_bisection, *args)
    monkeypatch.undo()
    assert got == _outcome(reference_bisection, *args)
    lo, hi = (ctx.make_mpf(v) for v in got)
    assert _full_label(ctx, tableau, rho, eps, lo) is JumpClass.RIGHT
    assert _full_label(ctx, tableau, rho, eps, hi) is JumpClass.LEFT


@pytest.mark.parametrize("tableau, rho, h", [(EULER, 5, "0.1045"), (KUTTA3, 8, "0.1004")])
@pytest.mark.parametrize("max_n", [None, 40])
def test_prefix_settles_at_twice_its_own_last_sign_change(tableau, rho, h, max_n):
    ctx = make_context(30)
    params = SystemParams.create(ctx, "1", h)
    full = analysis.classify_jump(T, tableau, params, rho, DELTA, max_n=max_n)
    prefix = analysis._classify(
        T, tableau, params, rho, DELTA, max_n=max_n, settle=analysis._PREFIX_MARGIN
    )
    # the band of sign changes ends long before the prefix does
    assert prefix.last_sign_change == full.last_sign_change > 0
    assert prefix.steps == min(2 * full.last_sign_change + analysis._PREFIX_MARGIN, full.steps)
    entry_negative = -ctx.mpf(DELTA) < 0  # the transcritical entry deviation is x - y = -delta
    same_side = (prefix.deviation < 0) == entry_negative
    assert prefix.label is (JumpClass.RIGHT if same_side else JumpClass.LEFT)


@pytest.mark.parametrize("tableau, h", [(EULER, "0.1045"), (KUTTA3, "0.1004")])
def test_last_sign_change_matches_the_orbit_prefixes(tableau, h):
    ctx = make_context(30)
    params = SystemParams.create(ctx, "1", h)
    rho = 5 if tableau is EULER else 8
    full = analysis.classify_jump(T, tableau, params, rho, DELTA)
    signs = [-ctx.mpf(DELTA) < 0]  # the transcritical entry deviation is x - y = -delta
    for k in range(1, full.steps + 1):
        signs.append(analysis.classify_jump(T, tableau, params, rho, DELTA, max_n=k).deviation < 0)
    changes = [k for k in range(1, len(signs)) if signs[k] != signs[k - 1]]
    assert full.last_sign_change == (changes[-1] if changes else 0)
    assert full.last_sign_change > 0
