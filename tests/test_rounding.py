"""The mantissa-pair arithmetic of canardlab.rounding against mpmath's libmp.

pack(op(split(s), split(t), prec)) must equal libmp's op(s, t, prec,
round_nearest) tuple for tuple, for add, sub, mul and div, at the binary
precisions of the 16, 50, 200 and 5000-digit contexts (56, 169, 668 and
16613 bits); abs_le must agree with mpf_le on the magnitudes and with exact
Fraction comparison, and le_product with abs_le of the rounded product.  Operands are drawn
with mantissas up to about twice the precision (wider than prec: the
slow-start case) and with the second placed relative to the first, so sums
overlap, cancel, or lie past libmp's far-operand cut-off.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    finf, fnan, fninf, fzero, from_man_exp, mpf_abs, mpf_add, mpf_div, mpf_le, mpf_lt, mpf_mul,
    mpf_neg, mpf_sub, round_nearest,
)

import canardlab
from canardlab import make_context
from canardlab.rounding import (
    SCALER_MIN_BITS, abs_le, add, div, le_product, lt, mul, negligible, pack, rn, scaler, split, sub,
)

CONTEXTS = [make_context(d) for d in (16, 50, 200, 5000)]
PRECS = [c.prec for c in CONTEXTS]
OPS = ((add, mpf_add), (sub, mpf_sub), (mul, mpf_mul))


def v(m, e=0):
    """The canonical tuple of m * 2**e, unrounded."""
    return from_man_exp(m, e)


@st.composite
def mantissas(draw, prec):
    """Signed mantissas up to 2 prec + 8 bits: random bits, all ones, or 2^w + 1."""
    width = draw(st.integers(1, 2 * prec + 8))
    shape = draw(st.sampled_from(["random", "ones", "power-plus-one"]))
    if shape == "random":
        m = random.Random(draw(st.integers(0, 2**32))).getrandbits(width) | 1 << (width - 1)
    elif shape == "ones":
        m = (1 << width) - 1
    else:
        m = (1 << width) + 1
    return -m if draw(st.booleans()) else m


@st.composite
def operand_pairs(draw):
    prec = draw(st.sampled_from(PRECS))
    am, bm = draw(mantissas(prec)), draw(mantissas(prec))
    ae = draw(st.integers(-3 * prec, 3 * prec))
    # gap between the leading bits: overlapping, around libmp's prec + 4
    # cut-off, or far apart, with either operand the larger
    gap = draw(st.one_of(
        st.integers(-prec - 8, prec + 8),
        st.sampled_from([prec + 3, prec + 4, prec + 5, -prec - 4, -prec - 5]),
        st.integers(-20 * prec, 20 * prec),
    ))
    be = ae + am.bit_length() - bm.bit_length() - gap
    a, b = v(am, ae), v(bm, be)
    zero = draw(st.sampled_from([None, None, None, 0, 1]))
    if zero == 0:
        a = fzero
    elif zero == 1:
        b = fzero
    return prec, a, b


def _check(prec, a, b):
    for op, ref in OPS:
        assert pack(op(split(a), split(b), prec)) == ref(a, b, prec, round_nearest), (op, a, b)


P = PRECS[0]  # 16 digits
W = 2 * P  # a mantissa width past prec + 4
S = v(2**(W - 1) + 2**(W - P - 1) + 1)


@settings(max_examples=400, deadline=None)
@given(operand_pairs())
# zero operands
@example((P, fzero, v(3)))
@example((P, v(-3), fzero))
@example((P, fzero, fzero))
# half-ulp ties: 2^P + 2 + 1 rounds up to the even 2^P + 4, 2^P + 4 + 1 stays
@example((P, v(2**P + 2), v(1)))
@example((P, v(2**P + 4), v(1)))
@example((P, v(-(2**P) - 2), v(-1)))
@example((P, v(2**P + 1), v(1)))  # mul: a single operand of P + 1 bits at a tie
@example((P, v(2**P + 3), v(1)))
# round-up carrying the mantissa to 2^P: (2^P - 1) + 1/2 and (2^(P+1) - 1) * 1
@example((P, v(2**P - 1), v(1, -1)))
@example((P, v(2**(P + 1) - 1), v(1)))
# cancellation to exactly 0
@example((P, v(12345, -7), v(-12345, -7)))
@example((P, v(2**W - 1, -3), v(2**W - 1, -3)))
# exponent offsets of 100 and 101 with the smaller operand far below, either side
@example((P, v(1), v(1, -100)))
@example((P, v(1), v(1, -101)))
@example((P, v(-1, -100), v(1)))
@example((P, v(1, -101), v(-1)))
# the smaller operand exactly prec + 4 (no cut-off) and prec + 5 bits below,
# at an exponent offset past 100, either side
@example((P, v(1), v(2**44 + 1, -P - 48)))
@example((P, v(1), v(2**44 + 1, -P - 49)))
@example((P, v(2**44 + 1, -P - 48), v(-1)))
@example((P, v(2**44 + 1, -P - 49), v(-1)))
# operands wider than prec: the slow-start y0 = 1/2 + 2^-(P+1)
@example((P, v(2**P + 1, -P - 1), v(1, -P - 10)))
@example((P, v(2**P + 1, -P - 1), v(-1, -P - 200)))
# the 2P-bit S just above a tie plus a far smaller negative operand that
# overlaps it: libmp replaces that operand by a unit, and so rounds up where
# the exact sum rounds down, only when their exponents lie more than 100
# apart and their leading bits more than P + 4
@example((P, S, v(-(2**110) - 1, -100)))
@example((P, S, v(-(2**110) - 1, -101)))
@example((P, v(-(2**110) - 1, -101), S))
@example((P, S, v(-(2**152) - 1, -101)))
@example((P, S, v(-(2**151) - 1, -101)))
def test_ops_match_libmp(case):
    _check(*case)


@settings(max_examples=200, deadline=None)
@given(operand_pairs(), st.integers(0, 80))
# at 169 bits, a canonical operand of 228 bits and a rounded one of 169 bits
# with 15 trailing zeros: 115 exponents apart as pairs but 100 canonically,
# so libmp adds exactly rather than replacing the smaller by a unit
@example(
    (PRECS[1], v(300794312789057875780201052138881662455211131144298776926035600481213, 115),
     v(16520776000067504078940540250371629127268794769, 15)),
    15,
)
def test_ops_on_rounded_operands_match_libmp(case, shift):
    """The second operand comes from rn, as pairs inside a kernel do: not canonical."""
    prec, a, b = case
    sign, m, e, _ = b
    pair = rn((-m if sign else m) << shift, e - shift, prec)
    b = pack(pair)
    for op, ref in OPS:
        assert pack(op(split(a), pair, prec)) == ref(a, b, prec, round_nearest), (op, a, b, shift)
        assert pack(op(pair, split(a), prec)) == ref(b, a, prec, round_nearest), (op, b, a, shift)


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
def test_rn_and_pack_match_libmp_rounding(case):
    prec, a, _ = case
    sign, m, e, _ = a
    assert pack(rn(-m if sign else m, e, prec)) == from_man_exp(
        -m if sign else m, e, prec, round_nearest
    )
    assert pack(split(a)) == a
    assert pack(split(mpf_neg(a))) == mpf_neg(a)


@pytest.mark.parametrize("special", [finf, fninf, fnan], ids=["inf", "-inf", "nan"])
def test_split_rejects_non_finite_values(special):
    with pytest.raises(ValueError, match="infinity or NaN"):
        split(special)


def _check_div(prec, a, b):
    assert pack(div(split(a), split(b), prec)) == mpf_div(a, b, prec, round_nearest), (a, b)


@settings(max_examples=400, deadline=None)
@given(operand_pairs())
# a zero numerator
@example((P, fzero, v(3)))
@example((P, fzero, v(-(2**W) - 1, -40)))
# exact quotients: a unit divisor, a power of two, and (2^P - 1)(2^P + 1) / (2^P + 1)
@example((P, v(12345, -7), v(1)))
@example((P, v(-(2**W) - 1, 3), v(1, -9)))
@example((P, v(2**(2 * P) - 1), v(2**P + 1)))
@example((P, v(6), v(3)))
# exact ties: 2^P + 1 and 2^P + 3 over 1 round to the even neighbour
@example((P, v(2**P + 1), v(1)))
@example((P, v(2**P + 3), v(1)))
@example((P, v(2**(P + 1) + 2), v(2)))
# negative operands of each sign
@example((P, v(-1), v(3)))
@example((P, v(1), v(-3)))
@example((P, v(-1), v(-3)))
@example((P, v(-(2**P) - 1), v(7, -3)))
# divisors wider than prec
@example((P, v(3), S))
@example((P, v(-1), v(2**W - 1, -W)))
@example((P, S, v(-(2**(W + 7)) - 1, -20)))
# quotients just below and just above a power of two: 2^(2P) / (2^P +- 1),
# and 1 / (1 +- 2^-(P + 5)), which round to 1
@example((P, v(2**(2 * P)), v(2**P + 1)))
@example((P, v(2**(2 * P)), v(2**P - 1)))
@example((P, v(1), v(2**(P + 5) + 1, -P - 5)))
@example((P, v(1), v(2**(P + 5) - 1, -P - 5)))
@example((P, v(-1), v(2**(P + 5) + 1, -P - 5)))
def test_div_matches_libmp(case):
    prec, a, b = case
    assume(b != fzero)
    _check_div(prec, a, b)


@settings(max_examples=200, deadline=None)
@given(operand_pairs(), st.integers(0, 80))
def test_div_and_abs_le_on_rounded_operands(case, shift):
    """Non-canonical pairs from rn, as inside a kernel, give the same results."""
    prec, a, b = case
    sign, m, e, _ = b
    pair = rn((-m if sign else m) << shift, e - shift, prec)
    b = pack(pair)
    assert abs_le(split(a), pair) == mpf_le(mpf_abs(a), mpf_abs(b))
    assert abs_le(pair, split(a)) == mpf_le(mpf_abs(b), mpf_abs(a))
    if b != fzero:
        assert pack(div(split(a), pair, prec)) == mpf_div(a, b, prec, round_nearest)
    if a != fzero:
        assert pack(div(pair, split(a), prec)) == mpf_div(b, a, prec, round_nearest)


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
@example((P, fzero, fzero))
@example((P, fzero, v(-1)))
@example((P, v(-1), fzero))
@example((P, v(-5), v(5)))
@example((P, v(5, -1), v(-3)))  # same binary magnitude, either order
@example((P, v(3), v(5, -1)))
@example((P, S, v(2**W - 1, 1)))
def test_abs_le_matches_libmp(case):
    _, a, b = case
    assert abs_le(split(a), split(b)) == mpf_le(mpf_abs(a), mpf_abs(b)), (a, b)


def _exact(p):
    return Fraction(p[0]) * Fraction(2) ** p[1]


@settings(max_examples=300, deadline=None)
@given(operand_pairs(), st.integers(0, 80), st.integers(0, 80),
       st.sampled_from(["drawn", "equal", "negated", "next"]))
@example((P, fzero, fzero), 0, 9, "drawn")
@example((P, fzero, v(-1)), 0, 0, "drawn")
@example((P, v(-1), fzero), 5, 0, "drawn")
@example((P, v(-5), v(5)), 0, 3, "drawn")
@example((P, v(5, -1), v(-3)), 2, 0, "drawn")  # same binary magnitude, either order
@example((P, v(-3), v(5, -1)), 0, 0, "drawn")
@example((P, v(3), v(3)), 0, 40, "negated")
def test_abs_le_matches_fractions(case, sa, sb, relation):
    """abs_le on pairs of either sign, zeros among them, against exact Fractions.

    b is drawn, equal to a, its negation, or a's mantissa plus one; either
    pair may carry its value with trailing zeros at a lower exponent.
    """
    _, a, b = case
    if relation == "equal":
        b = a
    elif relation == "negated":
        b = mpf_neg(a)
    pa, pb = _shifted(a, sa), _shifted(b, sb)
    if relation == "next":
        pb = (pa[0] + 1, pa[1])
    assert abs_le(pa, pb) == (abs(_exact(pa)) <= abs(_exact(pb))), (pa, pb)
    assert abs_le(pb, pa) == (abs(_exact(pb)) <= abs(_exact(pa))), (pa, pb)


def _mag(p):
    return p[0].bit_length() + p[1]


def _power_edge(prec):
    """(v, t, w): t w rounds up to the power of two 2**(mag t + mag w) = |v|, one binade above."""
    t = w = ((1 << (prec + 3)) - 1, -prec)  # 8 (1 - 2**-(prec + 3)), 3 bits past prec
    return (-1, _mag(t) + _mag(w)), t, w


@st.composite
def product_cases(draw):
    """(prec, v, t, w): |v| 0 to 3 binades from |t w| either way, at the product, or next to it.

    t and w are drawn as the operand mantissas are (wider than prec among
    them), either may be 0, and v is drawn, the rounded product (negated or
    with trailing zeros), or the product's mantissa plus or minus one.
    """
    prec = draw(st.sampled_from(PRECS))
    t, w = ((draw(mantissas(prec)), draw(st.integers(-3 * prec, 3 * prec))) for _ in "tw")
    shape = draw(st.sampled_from(["gap", "gap", "product", "next"]))
    if shape == "gap":
        vm = draw(st.one_of(mantissas(prec), st.sampled_from([1, -1])))
        v = (vm, _mag(t) + _mag(w) + draw(st.integers(-3, 3)) - vm.bit_length())
    else:
        m, e = mul(t, w, prec)
        shift = draw(st.integers(0, 40))
        m = (m if draw(st.booleans()) else -m) << shift
        v = (m + draw(st.sampled_from([-1, 1])) if shape == "next" else m, e - shift)
    zero = draw(st.sampled_from([None, None, None, None, "v", "t", "w"]))
    if zero == "v":
        v = (0, v[1])
    elif zero == "t":
        t = (0, t[1])
    elif zero == "w":
        w = (0, w[1])
    return prec, v, t, w


@settings(max_examples=500, deadline=None)
@given(product_cases())
@example((P, (0, 0), (3, 0), (0, 5)))
@example((P, (1, 0), (0, 0), (3, 0)))
@example((P, (-1, 0), (3, 0), (0, 7)))
@example((P, *_power_edge(P)))
@example((PRECS[1], *_power_edge(PRECS[1])))
@example((PRECS[2], *_power_edge(PRECS[2])))
@example((PRECS[3], *_power_edge(PRECS[3])))
def test_le_product_matches_abs_le_of_the_product(case):
    prec, v, t, w = case
    assert le_product(v, t, w, prec) == abs_le(v, mul(t, w, prec)), case


@pytest.mark.parametrize("prec", PRECS)
def test_le_product_needs_two_binades(prec):
    """A product rounded up to a power of two equals a |v| one binade above its operands'."""
    v, t, w = _power_edge(prec)
    assert _mag(v) == _mag(t) + _mag(w) + 1
    assert _exact(mul(t, w, prec)) == -_exact(v) == 2 ** (_mag(t) + _mag(w))
    assert le_product(v, t, w, prec)
    assert not le_product((v[0], v[1] + 1), t, w, prec)


def _shifted(value, shift):
    """The pair of value with its mantissa shifted left by shift bits: not canonical."""
    m, e = split(value)
    return m << shift, e - shift


@settings(max_examples=300, deadline=None)
@given(operand_pairs(), st.integers(0, 80), st.integers(0, 80),
       st.sampled_from(["drawn", "equal", "negated"]))
@example((P, fzero, fzero), 0, 5, "drawn")
@example((P, fzero, v(-1)), 0, 0, "drawn")
@example((P, v(-1), fzero), 3, 0, "drawn")
@example((P, v(5), v(5)), 0, 0, "drawn")
@example((P, v(-5), v(-5)), 7, 0, "drawn")
@example((P, v(5, -1), v(3)), 0, 0, "drawn")  # same binary magnitude, either order
@example((P, v(3), v(5, -1)), 0, 4, "drawn")
@example((P, v(-3), v(-5, -1)), 0, 0, "drawn")
@example((P, v(-5), v(5)), 0, 0, "drawn")
@example((P, S, v(2**W - 1, 1)), 0, 0, "drawn")
@example((PRECS[3], v(-(2**(2 * PRECS[3])) - 1, -9), v(1)), 30, 0, "equal")
def test_lt_matches_libmp(case, sa, sb, relation):
    """lt on canonical and shifted pairs, with b drawn, equal to a, or its negation."""
    _, a, b = case
    if relation == "equal":
        b = a
    elif relation == "negated":
        b = mpf_neg(a)
    pa, pb = _shifted(a, sa), _shifted(b, sb)
    assert lt(pa, pb) == mpf_lt(a, b), (a, b)
    assert lt(pb, pa) == mpf_lt(b, a), (a, b)
    assert (not lt(pb, pa)) == mpf_le(a, b), (a, b)


# -- negligible operands ---------------------------------------------------------


@st.composite
def negligible_cases(draw):
    """(prec, b, s): b nonzero and fitting prec bits, s the helper's gap or more below it.

    b is a rounded result (up to prec + 1 bits, 2^prec among them), a signed
    power of two, or an even mantissa of exactly prec + 1 bits; s is any
    signed mantissa, placed gap >= 0 magnitudes under the helper's limit.
    """
    prec = draw(st.sampled_from(PRECS))
    e = draw(st.integers(-3 * prec, 3 * prec))
    shape = draw(st.sampled_from(["rounded", "power", "even-wide"]))
    if shape == "rounded":
        b = rn(draw(mantissas(prec)), e, prec)
    elif shape == "power":
        b = (draw(st.sampled_from([1, -1])) << draw(st.integers(0, prec)), e)
    else:
        m = random.Random(draw(st.integers(0, 2**32))).getrandbits(prec) | 1 << (prec - 1) | 1
        b = (-2 * m if draw(st.booleans()) else 2 * m, e)
    assume(b[0])
    sm = draw(mantissas(prec))
    gap = draw(st.one_of(st.integers(0, 3), st.integers(0, 20 * prec)))
    return prec, b, (sm, _mag(b) - prec - 3 - gap - sm.bit_length())


@settings(max_examples=400, deadline=None)
@given(negligible_cases())
# b = 1 (a power of two) and b = 2^P, rn's prec + 1-bit round-up, with s of
# either sign right at the limit: below b the ulp halves
@example((P, (1, 0), (-(2**W) + 1, -P - 2 - W)))
@example((P, (1, 0), (2**W - 1, -P - 2 - W)))
@example((P, (2**P, 0), (-(2**W) + 1, -2 - W)))
@example((P, (-(2**P), 5), (2**W - 1, 3 - W)))
@example((P, rn(2**(P + 1) - 1, 0, P), (-1, -2)))
def test_negligible_operand_leaves_the_sum_unchanged(case):
    prec, b, s = case
    assert negligible(s, b, prec)
    want = pack(b)
    assert pack(rn(*b, prec)) == want  # b fits prec bits
    for got in (add(b, s, prec), add(s, b, prec), sub(b, s, prec)):
        assert pack(got) == want, (b, s)
    assert mpf_add(want, pack(s), prec, round_nearest) == want
    assert mpf_sub(want, pack(s), prec, round_nearest) == want


@pytest.mark.parametrize("prec", PRECS)
def test_negligible_refuses_what_can_move_the_sum(prec):
    s = (1, -3 * prec)
    # next to 0, s is the whole sum
    assert not negligible(s, (0, 0), prec)
    # 2^prec + 1 has prec + 1 bits and is a tie at prec bits: s breaks it
    tie = (2**prec + 1, 0)
    assert not negligible(s, tie, prec)
    assert pack(add(tie, s, prec)) != pack(rn(*tie, prec))
    # the limit itself: mag(s) = mag(b) - prec - 3 is negligible, one more is not
    assert negligible((1, -prec - 3), (1, 0), prec)
    assert not negligible((1, -prec - 2), (1, 0), prec)


# -- products by a constant ------------------------------------------------------


@st.composite
def decimal_constants(draw, ctx):
    """p/q 10^-k of either sign as ctx parses it, or the mul of two such values."""

    def one():
        p = draw(st.integers(-10**6, 10**6).filter(bool))
        return split(ctx.mpf(Fraction(p, draw(st.integers(1, 1000)) * 10 ** draw(st.integers(0, 12))))._mpf_)

    a = one()
    return mul(a, one(), ctx.prec) if draw(st.booleans()) else a


@st.composite
def scaled_operands(draw, prec):
    """Zero, a short mantissa, a full one, or a full one left even (not canonical), either sign."""
    shape = draw(st.sampled_from(["full", "even", "short", "zero"]))
    m = 0
    if shape == "short":
        m = draw(st.integers(1, 2**20))
    elif shape != "zero":
        m = random.Random(draw(st.integers(0, 2**32))).getrandbits(prec) | 1 << (prec - 1)
        if shape == "even":
            m <<= draw(st.integers(1, 40))
    return (-m if draw(st.booleans()) else m), draw(st.integers(-2 * prec, prec))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scaler_is_mul(data):
    ctx = data.draw(st.sampled_from(CONTEXTS + CONTEXTS[-1:] * 3))  # mostly past the crossover
    a = data.draw(decimal_constants(ctx))
    t = data.draw(scaled_operands(ctx.prec))
    assert scaler(a, ctx.prec)(t) == mul(a, t, ctx.prec)


def test_scaler_takes_the_identity_for_short_decimals_only():
    ctx = CONTEXTS[-1]
    prec = ctx.prec
    assert scaler(split(ctx.mpf("0.1")._mpf_), prec).__name__ == "rational_product"
    assert scaler(split((ctx.sqrt(2) / 10)._mpf_), prec).__name__ == "plain_product"
    for low in CONTEXTS[:-1]:  # 200 digits and fewer: mantissas below the crossover
        assert low.prec < SCALER_MIN_BITS
        assert scaler(split(low.mpf("0.1")._mpf_), low.prec).__name__ == "plain_product"


@pytest.mark.parametrize("r, path", [(2**32 - 1, "rational_product"), (-(2**32) + 1, "rational_product"),
                                     (2**32, "plain_product")])
def test_scaler_residual_bound(r, path):
    """m = 5 2**k + r: the identity holds while r has at most 32 bits, the plain product past that."""
    prec = PRECS[-1]
    k = prec - 3
    a = ((5 << k) + r, -k)
    f = scaler(a, prec)
    assert f.__name__ == path
    rng = random.Random(7)
    for t in ((rng.getrandbits(prec) | 1, -prec), (-(rng.getrandbits(prec) | 1), 3), (0, 0)):
        assert f(t) == mul(a, t, prec)


# -- the number format stays behind rounding ------------------------------------


def _imports_libmp(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "mpmath.libmp" or a.name.startswith("mpmath.libmp.") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "mpmath.libmp" or node.module.startswith("mpmath.libmp."):
                return True
            if node.module == "mpmath" and any(a.name == "libmp" for a in node.names):
                return True
    return False


def test_only_rounding_and_precision_import_libmp():
    """Orbits are carried as mantissa pairs; libmp's tuple format stays in two modules."""
    src = Path(canardlab.__file__).parent
    offenders = [
        path.name for path in sorted(src.glob("*.py"))
        if path.name not in ("rounding.py", "precision.py")
        and _imports_libmp(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
