"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 4-7 and 9 run the shared checks of canardlab.checks, which
`canardlab verify` runs too; criteria 1-3 and 8 are written out here.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import contextlib
import random
import time

from canardlab import (
    AFamily,
    EULER,
    SHIPPED_TABLEAUX,
    JumpClass,
    SingularityKind,
    SystemParams,
    checks,
    classify_jump,
    critical_h_bisection,
    critical_triplet_linearized,
    jacobian_factor,
    make_context,
)

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK


@contextlib.contextmanager
def criterion(name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({time.monotonic() - t0:.1f}s)")


def _sig3(ctx, x):
    """First three significant digits of x, truncated (no rounding)."""
    text = ctx.nstr(x, 40)
    digits = [c for c in text if c.isdigit()]
    while digits and digits[0] == "0":
        digits.pop(0)
    return "".join(digits[:3])


def test_criterion_1_euler_linearized_triplet():
    with criterion("1 euler linearized critical triplet rho*=1/(2h)"):
        ctx = make_context(50)
        t0 = time.monotonic()
        for h_txt in ("0.01", "0.05", "0.1"):
            trip = critical_triplet_linearized(EULER, h_txt, "0.01", ctx)
            assert trip is not None
            assert abs(trip.rho_star - 1 / (2 * ctx.mpf(h_txt))) <= ctx.tol(10)
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_table_rows_bisection():
    with criterion("2 nonlinear critical-step brackets (bisection, 200 digits)"):
        ctx = make_context(200)
        # rows: tableau, rho, eps, initial bracket (None = scan from the
        # linearized seed), expected leading digits or boundary value
        rows = [
            ("euler", "5", "1", ("0.103", "0.105"), ("104", None)),
            ("euler", "50", "1", ("0.0099", "0.010001"), (None, "0.01")),
            ("euler", "5", "0.01", ("0.099", "0.100006"), (None, "0.1")),
            ("kutta3", "8", "1", None, ("100", None)),
            ("kutta3", "8", "0.01", None, ("100", None)),
        ]
        for tab_name, rho, eps, bracket, (prefix, boundary) in rows:
            tab = SHIPPED_TABLEAUX[tab_name]
            trip = critical_h_bisection(
                T, tab, rho, eps, "1e-4", 4, ctx, h_bracket=bracket
            )
            lo, hi = trip.source.lo, trip.source.hi
            assert lo < hi
            assert (hi - lo) <= ctx.mpf("1.01e-4") * hi
            if prefix is not None:
                assert _sig3(ctx, lo) == prefix, (tab_name, rho, eps, str(lo))
                assert _sig3(ctx, hi) == prefix, (tab_name, rho, eps, str(hi))
            if boundary is not None:
                b = ctx.mpf(boundary)
                assert lo < b < hi, (tab_name, rho, eps, str(lo), str(hi))
                assert abs(trip.h_star - b) <= ctx.mpf("2e-4") * b


def test_criterion_3_sticky_diagonal():
    with criterion("3 sticky diagonal: stuck at 16 digits, jumps at 50"):
        t0 = time.monotonic()
        lo_ctx = make_context(16)
        params = SystemParams.create(lo_ctx, "1e-2", "1e-4")
        res16 = classify_jump(T, EULER, params, 1, "1e-4", track_deviation=False)
        assert res16.label is JumpClass.STUCK

        hi_ctx = make_context(50)
        params_hi = SystemParams.create(hi_ctx, "1e-2", "1e-4")
        res50 = classify_jump(T, EULER, params_hi, 1, "1e-4", track_deviation=False)
        assert res50.label is JumpClass.RIGHT
        # the jump happens just past the symmetric exit position +1
        assert res50.point.y > hi_ctx.mpf("0.9")
        assert time.monotonic() - t0 < 60.0


def test_criterion_4_kahan_wayout_symmetry():
    with criterion("4 Kahan way-in/way-out: psi=N on lattice, {N+1,N+2} off"):
        t0 = time.monotonic()
        ok, detail = checks.wayout_lattice(make_context(50), random.Random(2024))
        assert ok, detail
        assert time.monotonic() - t0 < 60.0


def test_criterion_5_pairing_identities():
    with criterion("5 multiplier pairing |J(c+d)J(c-d)-1| <= 1e-40 on 1e3 grids"):
        ok, detail = checks.kahan_symmetry(make_context(50), None)
        assert ok, detail


def test_criterion_6_kstar_bound_soundness():
    with criterion("6 K* lower bounds sound on random parameters + divergence"):
        ok, detail = checks.kstar_bounds(make_context(50), random.Random(7))
        assert ok, detail


def test_criterion_7_fold_structure():
    with criterion("7 fold: parabola invariance, reduced-map gap, first integral"):
        ok, detail = checks.fold_structure(make_context(50), None)
        assert ok, detail


def test_criterion_8_stability_reversal():
    with criterion("8 implicit-family stability reversal around a = 2/(h^2 eps)"):
        ctx = make_context(50)
        params = SystemParams.create(ctx, "0.01", "0.1")
        a_crit = 2 / (params.h**2 * params.epsilon)
        # near the critical a the multiplier's pole sits at |y| ~ 0.05: the
        # grid stays below it, where monotonicity between poles is asserted
        grid = [-2 + ctx.mpf(i) * 3 / 128 for i in range(65)]  # [-2, -0.5]
        for a, expect in ((a_crit - 100, "inc"), (a_crit, "const"), (a_crit + 100, "dec")):
            vals = [jacobian_factor(P, AFamily(a), params, y) for y in grid]
            diffs = [b - a_ for a_, b in zip(vals, vals[1:])]
            if expect == "inc":
                assert all(d > 0 for d in diffs)
            elif expect == "dec":
                assert all(d < 0 for d in diffs)
            else:
                assert all(abs(d) <= ctx.tol(10) for d in diffs)


def test_criterion_9_finite_difference_jacobians():
    with criterion("9 finite-difference multiplier agreement <= 1e-20 relative"):
        ok, detail = checks.fd_jacobian(make_context(50), None)
        assert ok, detail
