"""Configurable-precision scalar arithmetic.

Every quantity in this package is an arbitrary-precision float owned by a
:class:`PrecisionContext`.  A context fixes the number of decimal significant
digits once, at creation time, and all scalars created through it (and all
arithmetic between them) round to that precision.  Each context wraps a
private mpmath context, so two PrecisionContexts never share mutable state
and may be used freely from concurrent tasks.

Canard experiments are extremely precision-sensitive: orbits approach the
invariant sets exponentially fast, and at too few digits two nearby numbers
collapse onto each other, gluing the simulated orbit to the invariant set.
Simulations default to 50 digits; bisection and sweep experiments default to
5000 digits.  Both defaults are overridable everywhere.

Decimal output (``PrecisionContext.nstr``, ``nstr_pair``) formats a value
straight from its binary mantissa and exponent: one product by a cached
power of ten and one shift give the digits (Brent and Zimmermann, Modern
Computer Arithmetic, 2010, section 1.7), and the text is mpmath's ``nstr``
text, character for character.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath.libmp import NoConvergence, dps_to_prec, mpf_pos, numeral, round_down

MIN_DIGITS = 16
SIMULATE_DIGITS = 50
ANALYSIS_DIGITS = 5000

# binary magnitude (exp + bc) beyond which mpmath's decimal conversion rescales
_RESCALED_MAGNITUDE = 3500
# mpmath's own float for log2(10), so that its digit counts are met exactly
_LOG2_10 = math.log(10, 2)
# digits in an integer of this many bits stay below every int-to-str limit CPython allows
_STR_SAFE_BITS = 2000


class InvalidPrecision(ValueError):
    """Requested decimal digit count is below the supported minimum."""


class PrecisionContext:
    """Carries the working decimal-digit count for all scalar arithmetic.

    Treat instances as immutable: ``digits`` is fixed at creation.  Scalars
    are mpmath floats bound to this context's private mpmath state, so
    arithmetic between them is deterministic and correctly rounded to
    ``digits`` decimal digits.  Rounding mode is round-to-nearest.
    """

    __slots__ = ("digits", "_mp", "_tols", "_tens")

    def __init__(self, digits: int):
        if not isinstance(digits, int) or isinstance(digits, bool) or digits < MIN_DIGITS:
            raise InvalidPrecision(
                f"precision must be an integer >= {MIN_DIGITS} decimal digits, got {digits!r}"
            )
        self.digits = digits
        self._mp = MPContext()
        self._mp.dps = digits
        self._tols = {}
        self._tens = {}

    def __repr__(self):
        return f"PrecisionContext(digits={self.digits})"

    @property
    def prec(self) -> int:
        """Working precision in bits, the precision of every rounded operation."""
        return self._mp.prec

    # -- scalar construction -------------------------------------------------

    def mpf(self, value):
        """Create a scalar from a string, int, Fraction, or another scalar.

        Decimal strings are parsed directly at this context's precision
        (one rounding, no float round-trip).  Fractions are converted as one
        exactly-rounded division.
        """
        if isinstance(value, Fraction):
            return self._mp.mpf(value.numerator) / value.denominator
        return self._mp.mpf(value)

    def make_mpf(self, raw):
        """Scalar holding the raw mpmath ``_mpf_`` tuple ``raw`` as is (no rounding)."""
        return self._mp.make_mpf(raw)

    def tol(self, offset: int = 10):
        """Tolerance scalar 10**(-digits + offset), the package-wide residual bar, formed once."""
        if offset not in self._tols:
            self._tols[offset] = self._mp.mpf(10) ** (offset - self.digits)
        return self._tols[offset]

    # -- elementary functions -------------------------------------------------

    def sqrt(self, x):
        return self._mp.sqrt(x)

    def ln(self, x):
        return self._mp.log(x)

    def exp(self, x):
        return self._mp.exp(x)

    def floor(self, x):
        return self._mp.floor(x)

    # -- utilities -----------------------------------------------------------

    def polyroots(self, coeffs, **kwargs):
        """Roots of a polynomial given by descending coefficients; NoConvergence past maxsteps."""
        return self._mp.polyroots(coeffs, **kwargs)

    def nstr(self, x, n: int):
        """Decimal string of x with n significant digits: mpmath's nstr(x, n), character for character.

        A finite value is formatted from its ``_mpf_`` tuple by nstr_pair's
        route; anything else (an infinity, a NaN, a non-scalar) goes to mpmath.
        """
        raw = getattr(x, "_mpf_", None)
        if raw is None or (not raw[1] and raw[2]):
            return self._mp.nstr(x, n)
        sign, man, exp, bc = raw
        return self._text(sign, man, exp, exp + bc, n)

    def nstr_pair(self, p, n: int):
        """nstr of the finite mantissa pair p = (m, e), m 2**e, with no scalar built.

        The mantissa need not be odd: the text depends on the value alone.
        """
        m, e = p
        if m < 0:
            return self._text(1, -m, e, m.bit_length() + e, n)
        return self._text(0, m, e, m.bit_length() + e, n)

    def _text(self, neg, man, exp, mag, n):
        """The text of (-1)**neg man 2**exp, mag its bit length plus exponent, as mpmath prints it.

        Within 2**(+-3500) these are the steps of mpmath's to_digits_exp and
        to_str: the value in fixed point at bitprec = int((n + 3) log2 10) +
        10 significant bits, times 10**fixdps and floored, gives n + 3 or more
        digits; they are rounded half up to n and laid out in fixed point for
        a leading-digit exponent strictly between min(-(n // 3), -5) and n,
        else with an exponent.  10**fixdps is cached per fixed-point width,
        and libmp's numeral writes an integer that could pass the int-to-str
        limit.  Beyond 2**(+-3500) mpmath scales by a power of ten chosen from
        the binary exponent alone, and at 4300 or more working digits its
        scaled integer passes that limit; such a value is truncated to 64 bits
        more than n digits need and printed by mpmath.  At n < 1 mpmath
        prints the value untruncated.
        """
        if not man:
            return "0.0" if n else ".0"
        beyond = not -_RESCALED_MAGNITUDE <= mag <= _RESCALED_MAGNITUDE
        if beyond or n < 1:
            bc = man.bit_length()
            raw = mpf_pos((neg, man, exp, bc), dps_to_prec(n) + 64 if beyond else bc, round_down)
            return self._mp.nstr(self._mp.make_mpf(raw), n)
        fixprec = int((n + 3) * _LOG2_10) + 10 - mag
        if fixprec < 0:
            fixprec = 0
        tens = self._tens.get(fixprec)
        if tens is None:
            fixdps = int(fixprec / _LOG2_10 + 0.5)
            tens = self._tens[fixprec] = fixdps, 10**fixdps
        fixdps, ten = tens
        shift = exp + fixprec
        fixed = man << shift if shift >= 0 else man >> -shift
        whole = fixed * ten >> fixprec
        digits = str(whole) if whole.bit_length() <= _STR_SAFE_BITS else numeral(whole, 10, n + 3)
        exponent = len(digits) - fixdps - 1
        if len(digits) > n and digits[n] >= "5":
            head = digits[:n].rstrip("9")
            if head:
                digits = head[:-1] + chr(ord(head[-1]) + 1) + "0" * (n - len(head))
            else:
                digits = "1" + "0" * (n - 1)
                exponent += 1
        else:
            digits = digits[:n]
        if min(-(n // 3), -5) < exponent < n:
            if exponent < 0:
                text = "0." + "0" * (-exponent - 1) + digits
            else:
                text = digits[:exponent + 1] + "." + digits[exponent + 1:]
            exponent = 0
        else:
            text = digits[:1] + "." + digits[1:]
        text = text.rstrip("0")
        if text[-1] == ".":
            text += "0"
        if neg:
            text = "-" + text
        return f"{text}e{exponent:+d}" if exponent else text

    def isfinite(self, x) -> bool:
        return self._mp.isfinite(x)


def make_context(digits: int = SIMULATE_DIGITS) -> PrecisionContext:
    """Create a precision context with the given decimal digit count.

    Raises InvalidPrecision for digit counts below 16.
    """
    return PrecisionContext(digits)

