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
"""

from __future__ import annotations

from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath.libmp import dps_to_prec, mpf_pos, round_down

MIN_DIGITS = 16
SIMULATE_DIGITS = 50
ANALYSIS_DIGITS = 5000

# binary magnitude (exp + bc) beyond which mpmath's decimal conversion rescales
_RESCALED_MAGNITUDE = 3500


class InvalidPrecision(ValueError):
    """Requested decimal digit count is below the supported minimum."""


class PrecisionContext:
    """Carries the working decimal-digit count for all scalar arithmetic.

    Treat instances as immutable: ``digits`` is fixed at creation.  Scalars
    are mpmath floats bound to this context's private mpmath state, so
    arithmetic between them is deterministic and correctly rounded to
    ``digits`` decimal digits.  Rounding mode is round-to-nearest.
    """

    __slots__ = ("digits", "_mp", "_tols")

    def __init__(self, digits: int):
        if not isinstance(digits, int) or isinstance(digits, bool) or digits < MIN_DIGITS:
            raise InvalidPrecision(
                f"precision must be an integer >= {MIN_DIGITS} decimal digits, got {digits!r}"
            )
        self.digits = digits
        self._mp = MPContext()
        self._mp.dps = digits
        self._tols = {}

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
        """Roots of a polynomial given by descending coefficients."""
        return self._mp.polyroots(coeffs, **kwargs)

    def nstr(self, x, n: int):
        """Decimal string of x with n significant digits.

        mpmath prints a value beyond 2**(+-3500) by first scaling it with a
        power of ten chosen from its raw binary exponent, which ignores the
        mantissa length; at 4300 or more working digits the scaled integer
        exceeds CPython's int-to-str limit.  Such values are truncated to 64
        bits more than n digits need before printing; all others print
        exactly as mpmath prints them.
        """
        raw = getattr(x, "_mpf_", None)
        if raw is not None and raw[1] and abs(raw[2] + raw[3]) > _RESCALED_MAGNITUDE:
            x = self._mp.make_mpf(mpf_pos(raw, dps_to_prec(n) + 64, round_down))
        return self._mp.nstr(x, n)

    def isfinite(self, x) -> bool:
        return self._mp.isfinite(x)


def make_context(digits: int = SIMULATE_DIGITS) -> PrecisionContext:
    """Create a precision context with the given decimal digit count.

    Raises InvalidPrecision for digit counts below 16.
    """
    return PrecisionContext(digits)

