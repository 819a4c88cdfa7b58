"""Exact roots and values of polynomials on mantissa pairs (rounding, the one module imported).

The first sign change is isolated exactly by Descartes' rule of signs (Collins and Akritas
1976), polished by Newton's method with doubling precision (Brent and Zimmermann, Modern
Computer Arithmetic, 2010, 4.2) and rounded to nearest-even from exact signs.
"""

import math

from .rounding import div, lt, rn


def _critical_terms(tableau, stage_factor, in_rho, v, eps):
    """1 + h Q_s(-rho; h, eps) in h at rho = v, or in rho at h = v (in_rho), exactly.

    Lists of exact pairs and D > 0 (ButcherTableau.critical_polynomial at the pairs v and
    eps): the coefficient of degree i is the sum of the i-th list over D.  There are 2 s
    lists in h and s + 1 in rho: the degree is at most 2 s - 1 in h, s in rho, s - 1 in eps.
    """
    terms, den = tableau.critical_polynomial(stage_factor)
    s = tableau.s
    vs = [(v[0] ** i, v[1] * i) for i in range(2 * s)]
    es = [(eps[0] ** i, eps[1] * i) for i in range(s)]
    out = [[] for _ in range(s + 1 if in_rho else 2 * s)]
    for term in terms:  # (i, j, k, n) of h**i x**j eps**k, x = -rho
        (vm, ve), (em, ee) = vs[term[not in_rho]], es[term[2]]
        out[term[in_rho]].append(((-1) ** term[1] * term[3] * vm * em, ve + ee))
    return out, den


def _rounded_sum(terms, den, prec):
    """The sum of the exact pairs terms over den > 0, rounded once to nearest-even at prec bits.

    Where the exponents lie more than 2 w apart, w = prec + 32 + den's bit length, each term
    is floored at 2**cut, w bits below the top: the sum lies in [a, a + n) 2**cut for n
    terms, and rounding is monotone, so where both ends round alike, so does the sum.
    Otherwise the sum is formed exactly.
    """
    if len(terms) < 2:
        return div(terms[0], (den, 0), prec) if terms else (0, 0)
    exps = [e for _, e in terms]
    low, w = min(exps), prec + 32 + den.bit_length()
    if max(exps) - low > 2 * w:
        cut = max(m.bit_length() + e for m, e in terms) - w
        a = sum(m >> cut - e if e < cut else m << e - cut for m, e in terms)
        lo = div((a, cut), (den, 0), prec)
        if not lt(lo, div((a + len(terms), cut), (den, 0), prec)):
            return lo
    return div((sum(m << e - low for m, e in terms), low), (den, 0), prec)


def _exact_sum(terms):
    """The sum of the exact pairs terms, as one exact pair."""
    low = min((e for _, e in terms), default=0)
    return sum(m << e - low for m, e in terms), low


def _float(v):
    """The pair v, at most 1 in magnitude, as a float (its top 64 bits, truncated)."""
    n = max(v[0].bit_length() - 64, 0)
    return math.ldexp(v[0] >> n, v[1] + n)


def _float_horner(p, x):
    """The polynomial p (ascending floats) at the float x."""
    acc = p[-1]
    for c in p[-2::-1]:
        acc = acc * x + c
    return acc


def _float_seed(pf, dpf, a, b, fa):
    """A root of p in (a, b) by safeguarded Newton in double precision, as a pair.

    pf and dpf are the float images of the coefficients of p and p', a and
    b the interval's pairs, in a variable that keeps them all at most 1
    (_first_sign_change), so every value is finite.  It runs with bracket
    tests, for at most 40 iterations, to a step of at most 2**-40 relative.
    It only starts _polish, which checks that it lies inside (a, b); it
    decides no sign.
    """
    lo, hi = _float(a), _float(b)
    neg, x = fa[0] < 0, 0.5 * lo + 0.5 * hi
    for _ in range(40):
        fx = _float_horner(pf, x)
        if not fx:
            break
        if (fx < 0) == neg:
            lo = x
        else:
            hi = x
        d = _float_horner(dpf, x)
        t = x - fx / d if d else math.nan
        if lo < t < hi:
            x, last = t, abs(t - x) <= 2.0 ** -40 * t
            if last:
                break
        else:
            x = 0.5 * lo + 0.5 * hi
            if not lo < x < hi:
                break
    m, q = x.as_integer_ratio()
    return m, 1 - q.bit_length()


#: The polish's guard bits and its cap on Newton steps (_polish).
_GUARD, _POLISH_STEPS = 24, 64


def _values(p, x, bits):
    """p(x) = S 2**E and p'(x) = D 2**(E - s), as (S, E) and (D, E - s), for x in [2**(s-1), 2**s).

    Horner's rule on t = x / 2**s and p's coefficients scaled to t, in integers over 2**E,
    `bits` bits below the largest coefficient: each coefficient and product is truncated
    there, and t < 1, so S and D are off by less than 2 deg p + 2 at any coefficient size."""
    xm, xe = x
    u = xm.bit_length()
    s = u + xe
    top = max(m.bit_length() + e + i * s for i, (m, e) in enumerate(p) if m) - bits
    c = [m >> k if (k := top - e - i * s) >= 0 else m << -k for i, (m, e) in enumerate(p)]
    fm, dm = c[-1], 0
    for v in c[-2::-1]:
        dm = (dm * xm >> u) + fm
        fm = (fm * xm >> u) + v
    return (fm, top), (dm, top - s)


def _midpoint(a, b):
    """The midpoint of the pairs a < b, and how many leading bits of it keep it in (a, b)."""
    e = min(a[1], b[1])
    am, bm = a[0] << a[1] - e, b[0] << b[1] - e
    return (am + bm, e - 1), (am + bm).bit_length() - (bm - am).bit_length() + 1


def _polish(p, x, a, b, below, prec):
    """The simple root of p in (a, b), 0 < a < b <= 2a, to about prec + _GUARD bits.

    Newton's method with doubling precision (Brent and Zimmermann, Modern Computer
    Arithmetic, 2010, 4.2), from x, a start of 53 bits (_float_seed's), or from the midpoint
    where x is None or outside.  A step from an iterate with g good bits aims at w = 2g
    (at least 53, at most prec + _GUARD): _values runs on the iterate cut to g bits, at
    w + _GUARD bits, plus the bits that p's value then lacks (cancellation next to an
    ill-conditioned root), which the later steps keep.  A step of relative size 2**-k leaves
    2k - 4 good bits.  Each value's sign (below is p's left of the root) shrinks (a, b); a
    step that leaves it, or a zero slope, bisects.  Nothing is exact or rounded: the
    iterate only starts _nearest_root.
    """
    good, target, neg, extra = 53, prec + _GUARD, below[0] < 0, 0
    if x is None or not (lt(a, x) and lt(x, b)):
        x, good = _midpoint(a, b)
    for _ in range(_POLISH_STEPS):
        if good >= target:
            break
        w = min(max(2 * good, 53), target)
        n = x[0].bit_length() - max(good, (w + 1) // 2)
        if n > 0:
            x = x[0] >> n, x[1] + n
        (fm, fe), (dm, de) = _values(p, x, w + _GUARD + extra)
        short = w - good + _GUARD // 2 - fm.bit_length()
        if short > 0 and fm:  # cancellation: the step again, and the later ones, with more bits
            extra = max(2 * extra, extra + short)
            continue
        if (fm < 0) == neg:
            a = x
        else:
            b = x
        if dm:
            q, e = (fm << w) // dm, fe - de - w  # the step, in units of 2**-w x
            t = (x[0] << x[1] - e) - q, e
            if not q or lt(a, t) and lt(t, b):
                x, good = t, min(w, 2 * (w - q.bit_length()) - 4)
                continue
        x, good = _midpoint(a, b)
    return x


def _exact_value(p, x):
    """The polynomial p (ascending pairs) at the pair x, by Horner's rule in exact integers."""
    xm, xe = x
    am, ae = p[-1]
    for cm, ce in p[-2::-1]:
        am, ae = am * xm, ae + xe
        if ae > ce:
            am, ae = (am << (ae - ce)) + cm, ce
        else:
            am += cm << (ce - ae)
    return am, ae


def _exact_sign(p, x):
    """Sign of the polynomial p (ascending pairs) at the pair x, in exact integer arithmetic."""
    am = _exact_value(p, x)[0]
    return (am > 0) - (am < 0)


def _nearest_root(p, x, below, a, b, prec):
    """The root of p in (a, b) next to the pair x, rounded to nearest-even at prec bits.

    (a, b), 0 < a < b, isolates a root where p changes sign, and below is
    p's value on its left (only its sign is used).  Positive prec-bit floats
    are indexed so that neighbours differ by 1, across binades too (below a
    power of two the midpoint is a quarter of its ulp away).  The root
    rounds to the first float k whose midpoint with k + 1 is not below it.
    The floats below a and above b bound k; it is found by galloping from x
    (steps 1, 2, 4, ...) inside those bounds, then bisecting, each midpoint
    in (a, b) decided from the exact sign of p there (p may have other roots
    just outside).  From a polished x the first two midpoints bracket the
    root.  A root exactly on a midpoint goes to the float with the even
    mantissa.
    """
    half, sign = 1 << (prec - 1), (below[0] > 0) - (below[0] < 0)

    def index(v):  # of the prec-bit float at or below the positive pair v
        n = v[0].bit_length() - prec
        return (v[1] + n) * half + (v[0] >> n if n >= 0 else v[0] << -n) - half

    def value(k):
        q, r = divmod(k, half)
        return half + r, q

    def side(k):  # > 0: the midpoint of floats k and k + 1 (across binades too) lies below the root
        m, e = value(k)
        mid = 2 * m + 1, e - 1
        return 1 if not lt(a, mid) else -1 if not lt(mid, b) else sign * _exact_sign(p, mid)

    lo, hi, s = index(a) - 1, index(b) + 1, -1
    k, step = min(max(index(x), lo + 1), hi - 1), 1
    while hi - lo > 1:
        t = side(k)
        if t > 0:
            lo, k = k, k + step
        else:
            hi, s, k = k, t, k - step
        step *= 2
        if not lo < k < hi:
            k = (lo + hi) // 2
    if s == 0 and value(hi)[0] & 1:
        hi += 1
    return value(hi)


def _taylor1(c):
    """c(t + 1)."""
    c = list(c)
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] += c[k + 1]
    return c


def _descartes(c):
    """Descartes' bound on the roots of c in (0, 1): the sign variations of (1 + t)**d c(1/(1 + t)).

    It exceeds the root count (with multiplicity) by an even number, and is
    0 where the disc on the diameter (0, 1) holds no root.  It is
    subadditive: split (0, 1) at m, and the halves' bounds, plus 1 where m
    is a root of odd multiplicity, sum to at most this one.
    """
    signs = [v > 0 for v in _taylor1(c[::-1]) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _order(c):
    """The multiplicity of the root of c at 0."""
    return next(i for i, v in enumerate(c) if v)


def _prefix(c, j):
    """c(t / 2**j) as integers over a power of 2, for c of pairs: c on (0, 2**-j) mapped to (0, 1)."""
    low = min(e - i * j for i, (m, e) in enumerate(c) if m)
    return [m << e - i * j - low if m else 0 for i, (m, e) in enumerate(c)]


def _divide(a, b):
    """Primitive q and r with |lead b|**k a = q b + r for integer polynomials: a / b's up to
    positive factors, which keep every sign."""
    r, q, lead = list(a), [], b[-1]
    while len(r) >= len(b):
        f, off = r[-1] if lead > 0 else -r[-1], len(r) - len(b)
        r, q = [abs(lead) * v for v in r], [abs(lead) * v for v in q] + [f]
        for i, v in enumerate(b):
            r[off + i] -= f * v
        r.pop()
    while r and not r[-1]:
        r.pop()
    gq, gr = math.gcd(*q), math.gcd(*r) or 1
    return [v // gq for v in q[::-1]], [v // gr for v in r]


def _odd_part(c):
    """The product of c's square-free factors of odd multiplicity, up to a nonzero factor.

    Its roots are c's sign changes, each simple: with g = gcd(c, c'), c / g
    holds every root of c once, and g's odd part those of even multiplicity.
    The gcd is the last term of c's primitive remainder sequence.
    """
    g, r = c, [i * v for i, v in enumerate(c) if i]
    while r:
        g, r = r, _divide(g, r)[1]
    return c if len(g) == 1 else _divide(_divide(c, g)[0], _odd_part(g))[0]


def _isolate(c):
    """The first sign change in (0, 1] of c (dyadic, ascending pairs, c(0) != 0), or None.

    Descartes isolation (Collins and Akritas, SYMSAC 1976; Rouillier and
    Zimmermann, J. Comput. Appl. Math. 162, 2004).  The result (k, j,
    below, f) puts the root in (k / 2**j, (k + 1) / 2**j) as the one root
    there of f (c, or its odd part), whose value left of it has the sign of
    below; with below None the root is k / 2**j.  Fujiwara's bound clears
    the disc |t| <= 2**-K; galloping, then bisecting, on the exponent j of
    (0, 2**-j) with Descartes' bound finds the first binade (2**-(j + 1),
    2**-j) that can hold a root, and past a binade without a sign change the
    next one (subadditivity clears the binades between).  A binade is
    halved (2**d c(t / 2), then c(t + 1)), left half first, down to an
    interval that reads 1; a midpoint where c vanishes is a root of the
    multiplicity of its lowest nonzero coefficient.  An interval still
    reading 2 or more after 2 d + 8 halvings may hold a multiple root: the
    search restarts on the odd part, unless that is c itself.
    """
    limit, flat = 2 * len(c) + 6, _prefix(c, 0)
    mags = [abs(m).bit_length() + e for m, e in c]
    j = 1 + max(-((mags[0] - g - 1) // k) for k, (g, (m, _)) in enumerate(zip(mags, c)) if k and m)
    bound, whole, s0 = 0, _descartes(flat), 1 if c[0][0] > 0 else -1
    while whole > bound:
        lo, n, hi, mid, step = 0, whole, j, min(3, j // 2), 1
        while hi - lo > 1:  # gallop from three binades down (roots lie near a tenth of the caps)
            if n - bound == 1 and (s := _exact_sign(c, (1, -mid))):  # bound or bound + 1: parity decides
                v = bound + ((s != s0) != bound % 2)  # s0: c's sign right of 0
            else:
                v = _descartes(_prefix(c, mid))
            lo, n, hi, mid = (mid, v, hi, mid + step) if v > bound else (lo, n, mid, mid - step)
            step *= 2
            if not lo < mid < hi:
                mid = (lo + hi) // 2
        if n - bound == 1 and (s := _exact_sign(c, (1, -lo - 1))):  # parity, subadditivity: one root
            return 1, lo + 1, s, c
        j, bound, stack = lo, n, [(_taylor1(_prefix(c, lo + 1)), 1, lo + 1, 0)]
        while stack:
            q, k, i, depth = stack.pop()
            m = _order(q)
            if m % 2:
                return k, i, None, c
            q = q[m:]
            n = _descartes(q)
            if n == 1:
                return k, i, q[0], c
            if n > 1 and depth > limit:
                s, limit = _odd_part(flat), math.inf
                if s is not flat:
                    return _isolate([(v, 0) for v in s]) if len(s) > 1 else None
            if n:
                left = [v << (len(q) - 1 - t) for t, v in enumerate(q)]
                stack.append((_taylor1(left), 2 * k + 1, i + 1, depth + 1))
                stack.append((left, 2 * k, i + 1, depth + 1))
    return (1, 0, None, c) if not sum(flat) and _order(_taylor1(flat)) % 2 else None


def _first_sign_change(p, hi, prec):
    """The first sign change in (0, hi] of the polynomial p (ascending pairs), as a pair, or None.

    p is taken exactly: p(hi t) scales to an integer polynomial c on (0, 1]
    (the coefficients are dyadic) for _isolate.  A root found exactly is
    rounded to nearest-even at prec bits; any other is polished by _polish
    in its interval, from _float_seed's root in t, and rounded by
    _nearest_root, on p or on the odd part that _isolate fell back to, so
    Newton's path is moot.
    """
    hm, he = hi
    # p / x**nonzero[0], without zero end coefficients, has p's signs on x > 0; zero top
    # coefficients (those of eps at eps = 0) would only widen _exact_sign's integers
    nonzero = [i for i, (m, _) in enumerate(p) if m]
    p = p[nonzero[0]:nonzero[-1] + 1]
    c = [(m * hm ** i, e + i * he) for i, (m, e) in enumerate(p)]
    found = _isolate(c) if len(c) > 1 else None
    if found is None:
        return None
    k, j, below, f = found
    if below is None:
        return rn(hm * k, he - j, prec)
    if f is not c:
        p = [(m * hm ** (len(f) - 1 - i), e - i * he) for i, (m, e) in enumerate(f)]
    top, below = max(m.bit_length() + e for m, e in f if m), (below, 0)  # the seed's f is below 1
    pf = [_float((m, e - top)) for m, e in f]
    t = _float_seed(pf, [i * v for i, v in enumerate(pf) if i], (k, -j), (k + 1, -j), below)
    a, b = (hm * k, he - j), (hm * (k + 1), he - j)
    t = _polish(p, t and (hm * t[0], he + t[1]), a, b, below, prec)
    return _nearest_root(p, t, below, a, b, prec)

