import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canardlab import InvalidPrecision, make_context


def test_minimum_digits_accepted():
    assert make_context(16).digits == 16


def test_paper_precisions():
    assert make_context(50).digits == 50
    assert make_context(5000).digits == 5000


@pytest.mark.parametrize("bad", [15, 0, -3, 2.5, "50", True])
def test_invalid_precision_rejected(bad):
    with pytest.raises(InvalidPrecision):
        make_context(bad)


def test_contexts_do_not_touch_global_state():
    before = mpmath.mp.dps
    make_context(512)
    assert mpmath.mp.dps == before


def test_contexts_are_independent():
    c1, c2 = make_context(30), make_context(90)
    a = c1.mpf(1) / 3
    b = c2.mpf(1) / 3
    # both are thirds, but at very different precision
    assert abs(a - b) > c2.mpf(10) ** -35
    assert abs(a - b) < c2.mpf(10) ** -28


def test_exact_decimal_parsing(ctx):
    # 0.1 parsed directly at context precision, not through a binary double
    x = ctx.mpf("0.1")
    assert abs(x * 10 - 1) < ctx.mpf(10) ** -49


def test_fraction_conversion(ctx):
    from fractions import Fraction

    assert abs(ctx.mpf(Fraction(1, 6)) * 6 - 1) < ctx.tol(2)


def _expression_chain(ctx, seed):
    """Fixed chain of ~100 elementary operations."""
    t = ctx.mpf(seed) / 7
    for _ in range(25):
        t = ctx.sqrt(t * t + 1) / 3 + ctx.ln(1 + t * t)
    return t


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=1000))
def test_double_precision_agreement(seed):
    """Evaluating at d and 2d digits agrees to at least d-5 digits."""
    d = 40
    lo = _expression_chain(make_context(d), seed)
    hi = _expression_chain(make_context(2 * d), seed)
    scale = max(1, abs(hi))
    assert abs(lo - hi) <= make_context(d).mpf(10) ** (5 - d) * scale


def test_determinism_bit_identical(ctx):
    a = _expression_chain(ctx, 123)
    b = _expression_chain(make_context(50), 123)
    assert a == b


def test_tol_helper(ctx):
    assert ctx.tol(10) == ctx.mpf(10) ** -40


def _adjacent_near_tie(x, got, want, n):
    """got and want are neighbouring n-digit decimals, x within 1e-3 units of their midpoint.

    Beyond 2**(+-3500) mpmath's own conversion scales with rounded-down
    arithmetic, so at a near-tie either neighbour is a faithful answer.
    """
    a, b = Fraction(Decimal(got)), Fraction(Decimal(want))
    _, man, exp, _ = x._mpf_
    exact = abs(Fraction(man) * Fraction(2) ** exp)
    unit = abs(a - b)
    return unit <= exact * Fraction(10) ** (1 - n) and abs(exact - abs(a + b) / 2) <= unit / 1000


@settings(max_examples=60, deadline=None)
@given(
    digits=st.sampled_from([50, 5000]),
    mantissa=st.integers(min_value=1, max_value=10**40),
    exponent=st.integers(min_value=-5200, max_value=1200),
    negative=st.booleans(),
)
@example(digits=5000, mantissa=36, exponent=-1075, negative=False)  # the deep pitchfork row
@example(digits=50, mantissa=4365, exponent=-1298, negative=False)  # a near-tie at n = 3
def test_nstr_matches_unlimited_conversion(digits, mantissa, exponent, negative):
    """nstr prints what mpmath prints with the int-to-str limit lifted.

    At 4300 or more working digits mpmath's own conversion of a value below
    about 1e-1054 hits CPython's int-to-str limit; the limit is lifted only
    for the reference conversion and restored before nstr runs.
    """
    ctx = make_context(digits)
    x = ctx.mpf(f"{'-' if negative else ''}{mantissa}e{exponent}") / 3
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [mpmath.nstr(x, n) for n in (3, 12, 30)]
    finally:
        sys.set_int_max_str_digits(old)
    for n, ref in zip((3, 12, 30), want):
        got = ctx.nstr(x, n)
        assert got == ref or _adjacent_near_tie(x, got, ref, n), (n, got, ref)
