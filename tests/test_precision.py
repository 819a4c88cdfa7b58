import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import dps_to_prec, mpf_pos, round_down

from canardlab import InvalidPrecision, make_context
from canardlab.cli import _row
from canardlab.rounding import pack, split


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


# -- the decimal formatter against mpmath's nstr ----------------------------

FORMAT_CONTEXTS = {d: make_context(d) for d in (16, 50, 200, 5000)}


def _mpmath_text(x, n):
    """What nstr printed before it formatted values itself: mpmath's nstr, beyond
    2**(+-3500) of the value truncated to 64 bits more than n digits need."""
    raw = x._mpf_
    if raw[1] and abs(raw[2] + raw[3]) > 3500:
        raw = mpf_pos(raw, dps_to_prec(n) + 64, round_down)
    return mpmath.nstr(mpmath.mp.make_mpf(raw), n)


@st.composite
def formatter_cases(draw, n=st.integers(1, 60)):
    """(context, pair, n): mantissas of up to the working precision, not always odd; both
    signs and zero; magnitudes anywhere within 2**(+-3510), next to +-3500, or next to a
    decimal exponent where the text switches between fixed point and exponent form, and
    runs of 9s that round up across a power of ten."""
    ctx = FORMAT_CONTEXTS[draw(st.sampled_from(sorted(FORMAT_CONTEXTS)))]
    n = draw(n)
    prec = ctx.prec
    kind = draw(st.sampled_from(["binary", "edge", "switch", "zero"]))
    if kind == "zero":
        m, e = 0, draw(st.integers(-100, 100))
    elif kind == "switch":
        k = draw(st.sampled_from([min(-(n // 3), -5), n])) + draw(st.integers(-2, 2))
        size = n + 3  # digits of the integer scaled to a leading digit at 10**k
        whole = draw(st.one_of(st.integers(0, 3).map(lambda j: 10**size - 10**j),
                               st.integers(10 ** (size - 1), 10**size - 1)))
        m, e = split((ctx.mpf(whole) * ctx.mpf(10) ** (k - size + 1))._mpf_)
    else:
        m = draw(st.integers(1, (1 << prec) - 1))
        edge = st.one_of(st.integers(-3503, -3497), st.integers(3497, 3503))
        mag = draw(edge if kind == "edge" else st.integers(-3510, 3510))
        e = mag - m.bit_length()
    shift = draw(st.integers(0, 3))
    m, e = m << shift, e - shift
    return ctx, (-m if draw(st.booleans()) else m, e), n


def _check_formatter(ctx, pair, n):
    x = ctx.make_mpf(pack(pair))
    want = _mpmath_text(x, n)
    assert ctx.nstr_pair(pair, n) == want, (pair, n)
    assert ctx.nstr(x, n) == want, (pair, n)


@settings(max_examples=600, deadline=None)
@given(case=formatter_cases())
@example(case=(FORMAT_CONTEXTS[50], (0, 7), 30))
@example(case=(FORMAT_CONTEXTS[16], (-(10**17 - 1), 0), 16))  # rounds up to 1.0e+17
@example(case=(FORMAT_CONTEXTS[50], (3, 3499 - 2), 12))  # magnitude exactly 3500
@example(case=(FORMAT_CONTEXTS[50], (3, 3500 - 2), 12))  # and 3501, past it
@example(case=(FORMAT_CONTEXTS[50], (-1 << 8, -3508), 5))  # -2**-3500, not odd
def test_formatter_equals_mpmath_nstr(case):
    """nstr and nstr_pair print exactly what mpmath's nstr prints (beyond 2**(+-3500), what
    it prints of the truncated value, as before)."""
    _check_formatter(*case)


@settings(max_examples=10, deadline=None)
@given(case=formatter_cases(n=st.integers(4301, 5010)))
def test_formatter_past_the_int_to_str_limit(case):
    """n past CPython's int-to-str limit of 4300 digits: libmp's numeral writes the digits."""
    _check_formatter(*case)


def test_row_equals_the_mpf_expression():
    """cli._row formats pairs as the parent's nstr of their scalars did (make_mpf of pack,
    then nstr), mantissas that are not odd and values beyond 2**-3500 included."""
    for ctx in FORMAT_CONTEXTS.values():
        x = (ctx.sqrt(2) / 3)._mpf_
        pairs = [split(x), (-x[1] << 5, x[2] - 5), (0, 3), split(ctx.mpf("-1e-1100")._mpf_)]
        for nd in (1, 16, 30, 60):
            for p in pairs:
                want = [_mpmath_text(ctx.make_mpf(pack(v)), nd) for v in (p, pairs[0])]
                assert _row(ctx, 7, p, pairs[0], nd) == [7] + want
