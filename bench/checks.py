"""Output checks made apart from the program.

Every check recomputes what it needs from the inputs (closed forms, exact
rational polynomials, a separate low-precision mpmath context) or tests a
property the method must have.  None compares against a stored copy of an
earlier output, so a faster or more accurate program still passes.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import Decimal
from fractions import Fraction


class Wrong(Exception):
    """An operation finished but its output is not correct."""


class Failed(Exception):
    """An operation did not produce its output."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


# -- CSV outputs ---------------------------------------------------------------


def read_simulate(text: str):
    """Rows (n, x, y) as (int, Decimal, Decimal) and the footer key=value dict."""
    lines = text.splitlines()
    footer = dict(kv.split("=", 1) for line in lines if line.startswith("#")
                  for kv in line[1:].split() if "=" in kv)
    body = [line for line in lines if line and not line.startswith("#")]
    rows = [(int(n), Decimal(x), Decimal(y)) for n, x, y in list(csv.reader(body))[1:]]
    return rows, footer


def read_table(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def cli_output(outcome, name: str) -> str:
    """Text of one output file of a CLI operation, or Failed on a nonzero exit."""
    if outcome.code != 0:
        raise Failed(f"exit {outcome.code}: {outcome.stderr.strip()[:200]}")
    text = outcome.files.get(name)
    if text is None:
        raise Wrong(f"exit 0 but no output file {name}")
    return text


# -- sticky --------------------------------------------------------------------


def continuous_exit(y0: float, dev0: float, threshold: float, eps: float) -> float:
    """Slow coordinate where the continuous-time transcritical orbit detaches.

    Along the diagonal the deviation u = x - y obeys du/dy = u (x + y) / eps
    ~ 2 y u / eps, so ln|u| grows by (y^2 - y0^2)/eps; the orbit reaches
    |u| = threshold at y = sqrt(y0^2 + eps ln(threshold/|u0|)), just past the
    symmetric exit +rho.
    """
    return math.sqrt(y0 * y0 + eps * math.log(threshold / abs(dev0)))


def check_exit(y_exit: float, rho: float, y_cont: float, what: str) -> None:
    expect(y_exit > rho, f"{what}: exit y={y_exit} not past the symmetric exit +{rho}")
    expect(abs(y_exit - y_cont) <= 0.005 * y_cont,
           f"{what}: exit y={y_exit} not within 0.5% of the continuous-time exit {y_cont:.6f}")


def pitchfork_log_deviation(h: str, eps: str, rho: str, delta: str, n: int, mp):
    """ln|x_n| of the forward-Euler pitchfork orbit from (delta, -rho).

    x_{k+1} = x_k (1 + h (y_k - x_k^2)), y_{k+1} = y_k + h eps, summed in log
    space, ln|x_n| = ln|delta| + sum_k ln|1 + h (y_k - x_k^2)|, in the given
    (separate, low-precision) mpmath context.
    """
    h, eps = mp.mpf(h), mp.mpf(eps)
    y = -mp.mpf(rho)
    log_x = mp.log(abs(mp.mpf(delta)))
    for _ in range(n):
        log_x += mp.log(abs(1 + h * (y - mp.exp(2 * log_x))))
        y += h * eps
    return log_x, y


# -- bisect --------------------------------------------------------------------


def leading_digits(value: Decimal, k: int = 3) -> str:
    """First k significant digits of value, truncated."""
    return "".join(map(str, value.as_tuple().digits)).lstrip("0")[:k]


def check_bracket(row: dict, prefix, boundary) -> None:
    lo, hi = Decimal(row["h_lo"]), Decimal(row["h_hi"])
    tag = f"bisect rho={row['rho']} eps={row['eps']} {row['tableau']}"
    expect(lo < hi, f"{tag}: lo={lo} >= hi={hi}")
    # the slack covers rounding of the 30-digit output, nothing more
    expect(hi - lo <= Decimal("1.000001e-4") * hi, f"{tag}: bracket wider than 1e-4 relative")
    if prefix is not None:
        for v in (lo, hi):
            expect(leading_digits(v) == prefix, f"{tag}: {v} does not start with {prefix}")
    if boundary is not None:
        b = Decimal(boundary)
        expect(lo < b < hi, f"{tag}: boundary {b} outside ({lo}, {hi})")


# -- surfaces ------------------------------------------------------------------


def _padd(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def critical_polynomial(alpha, a_rows, rho: Fraction, eps: Fraction) -> list:
    """Ascending coefficients in h of 1 + h Q_s(-rho; h, eps), exactly.

    Stage recursion dk_i = 2 (x + h eps A_i) (1 + h sum_j a_ij dk_j) at
    x = -rho, Q_s = sum_i alpha_i dk_i, in exact rationals from the tableau.
    """
    dks = []
    for row in a_rows:
        acc = [Fraction(0)]
        for aij, dk in zip(row, dks):
            acc = _padd(acc, [aij * c for c in dk])
        factor = [2 * -rho, 2 * eps * sum(row, Fraction(0))]
        dks.append(_pmul(factor, _padd([Fraction(1)], [Fraction(0)] + acc)))
    qs = [Fraction(0)]
    for al, dk in zip(alpha, dks):
        qs = _padd(qs, [al * c for c in dk])
    return _padd([Fraction(1)], [Fraction(0)] + qs)


def smallest_positive_root(coeffs_ascending, np):
    """Smallest positive real root of a polynomial (numpy.roots), or None."""
    c = list(coeffs_ascending)
    while c and c[-1] == 0:
        c.pop()
    roots = np.roots([float(v) for v in reversed(c)])
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > 0]
    return min(real) if real else None


# -- symmetry ------------------------------------------------------------------


def first_return(rows) -> int:
    """First step at which |x| comes back up to |x_0| after the canard passage."""
    x0 = abs(rows[0][1])
    dipped = False
    for n, x, _ in rows[1:]:
        if abs(x) < x0 / 2:
            dipped = True
        elif dipped and abs(x) >= x0:
            return n
    raise Wrong("orbit never returned to its entry deviation")


def detach_step(rows, threshold: Decimal) -> int:
    """First row whose transversal deviation |x - y| reaches the threshold."""
    for n, x, y in rows:
        if abs(x - y) >= threshold:
            return n
    raise Wrong("orbit never detached")
