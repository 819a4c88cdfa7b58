"""Round-to-nearest-even arithmetic on signed integer mantissa pairs.

A pair (m, e) holds the value m * 2**e; m is a signed integer, 0 for zero,
and need not be odd.  rn, add, sub, mul and div round to nearest, ties to
even, at prec bits, exactly as mpmath's libmp does with round_nearest (add
keeps libmp's rule for a far smaller operand): pack(add(split(s), split(t),
prec)) equals mpf_add(s, t, prec, round_nearest), and likewise for sub, mul
and div.  abs_le compares magnitudes and lt signed values exactly;
negligible tells from bit lengths that a sum rounds to one operand.  Results
are neither packed nor stripped of trailing zeros, so a chain of operations
builds and normalises no ``_mpf_`` tuple between two roundings; pack makes
the canonical tuple once, at the end.  Pairs hold finite values only.
"""

from fractions import Fraction

from mpmath.libmp import fzero

#: Mantissa bits past which scaler takes the identity (measured: BENCH_smallrational.json).
SCALER_MIN_BITS = 1000


def split(v):
    """The pair of the finite ``_mpf_`` tuple v."""
    sign, m, e, _ = v
    if not m and e:
        raise ValueError("no mantissa pair for an infinity or NaN")
    return (-m if sign else m), e


def pack(p):
    """The canonical ``_mpf_`` tuple of the pair p: odd mantissa, exact bit count."""
    m, e = p
    if not m:
        return fzero
    sign = 0
    if m < 0:
        sign, m = 1, -m
    if not m & 1:
        tz = _trailing_zeros(m)
        m >>= tz
        e += tz
    return sign, m, e, m.bit_length()


def _trailing_zeros(m):
    return (m & -m).bit_length() - 1


def rn(m, e, prec):
    """m * 2**e rounded to nearest at prec bits, ties to even, as a pair.

    m >> k floors for either sign, so the half bit and the sticky bits
    below it decide the rounding of negative mantissas too.
    """
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    t = m >> (n - 1)
    if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, e + n
    return t >> 1, e + n


def mul(a, b, prec):
    """a * b rounded at prec bits."""
    return rn(a[0] * b[0], a[1] + b[1], prec)


def add(a, b, prec):
    """a + b rounded at prec bits, with libmp's rule for a far smaller operand.

    When the exponents of the canonical operands lie more than 100 apart and
    the smaller operand lies more than prec + 4 bits below the larger, libmp
    replaces it by a unit prec + 4 bits below the larger operand's last bit.
    That gives the correctly rounded sum unless the larger operand is itself
    more than prec + 4 bits wide; only then do the canonical exponents
    matter.  Such an operand comes from split and is canonical already (rn
    returns at most prec + 1 bits), so only the smaller one's trailing zeros
    are counted, and only then.
    """
    am, ae = a
    bm, be = b
    if not am:
        return rn(bm, be, prec)
    if not bm:
        return rn(am, ae, prec)
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    off = ae - be
    if off > 100:
        k = prec + 4
        abits = am.bit_length()
        if abits + off - bm.bit_length() > k and (
            abits <= k or off - _trailing_zeros(bm) > 100
        ):
            return rn((am << k) + (1 if bm > 0 else -1), ae - k, prec)
    return rn((am << off) + bm, be, prec)


def negligible(s, b, prec):
    """Whether add(b, s) and sub(b, s) are b, from bit lengths and exponents alone.

    True only for a nonzero b that fits prec bits, as every rounded result
    does (its mantissa may then have prec + 1 bits).  With mag = bit length
    plus exponent, mag(s) <= mag(b) - prec - 3 puts |s| below a quarter ulp
    of b on either side, and add rounds correctly when the larger operand is
    that short.
    """
    bm, be = b
    n = bm.bit_length()
    fits = 0 < n <= prec or n == prec + 1 and not bm & 1
    return fits and s[0].bit_length() + s[1] <= n + be - prec - 3


def scaler(a, prec):
    """t -> mul(a, t, prec), the same pair bit for bit.

    A decimal a = m 2**-k has q m = p 2**k + r with small p, q and r, so
    m t = ((p t) << k + r t) // q exactly, linear in the size of t (Brent and
    Zimmermann, Modern Computer Arithmetic, 2010).  Past SCALER_MIN_BITS the
    closure takes it when p/q, the best fraction with q <= 2**20 to m's top
    128 bits, leaves an r of at most 32 bits (r is computed, so any a that
    passes is exact); otherwise it is the plain product.
    """
    am, ae = a
    k, cut = -ae, am.bit_length() - 128
    if am.bit_length() > SCALER_MIN_BITS and k >= cut:
        p, q = Fraction(am >> cut, 1 << (k - cut)).limit_denominator(1 << 20).as_integer_ratio()
        r = q * am - (p << k)
        if r.bit_length() <= 32:

            def rational_product(t):
                return rn((((p * t[0]) << k) + r * t[0]) // q, ae + t[1], prec)

            return rational_product

    def plain_product(t):
        return rn(am * t[0], ae + t[1], prec)

    return plain_product


def sub(a, b, prec):
    """a - b rounded at prec bits, as add rounds a + (-b)."""
    bm, be = b
    return add(a, (-bm, be), prec)


def div(a, b, prec):
    """a / b rounded at prec bits; b is nonzero.

    The truncated quotient gets at least prec + 2 bits, and a sticky bit
    below them records a nonzero remainder, so rn sees the half bit and
    whether anything lies below it: the correctly rounded quotient, which is
    what libmp's mpf_div returns.
    """
    am, ae = a
    bm, be = b
    if not am:
        return a
    neg = (am < 0) != (bm < 0)
    am, bm = abs(am), abs(bm)
    extra = max(0, prec + 3 - am.bit_length() + bm.bit_length())
    q, r = divmod(am << extra, bm)
    if r:
        q = (q << 1) | 1
        extra += 1
    return rn(-q if neg else q, ae - be - extra, prec)


def abs_le(a, b):
    """|a| <= |b|, exactly; magnitudes a bit or more apart decide it unshifted."""
    am, ae = a
    bm, be = b
    am, bm = abs(am), abs(bm)
    if not am:
        return True
    if not bm:
        return False
    d = am.bit_length() + ae - bm.bit_length() - be
    if d:
        return d < 0
    if ae >= be:
        return am << (ae - be) <= bm
    return am <= bm << (be - ae)


def lt(a, b):
    """a < b, exactly: by sign, then by magnitude as abs_le decides it."""
    sa, sb = (a[0] > 0) - (a[0] < 0), (b[0] > 0) - (b[0] < 0)
    if sa != sb or not sa:
        return sa < sb
    return not (abs_le(b, a) if sa > 0 else abs_le(a, b))
