import random

import mpmath
import pytest

from canardlab import (
    EULER,
    HEUN2,
    KAHAN,
    KUTTA3,
    SHIPPED_TABLEAUX,
    JumpClass,
    NoBracket,
    NotContracting,
    OutOfDomain,
    PastCriticality,
    PlanarPoint,
    SingularityKind,
    SystemParams,
    Unresolved,
    classify_jump,
    critical_h_bisection,
    critical_triplet_linearized,
    kstar_pitchfork_euler,
    kstar_rk,
    kstar_transcritical_euler,
    lambert_w0,
    linearized_critical_h,
    make_context,
    q_s,
    rk_cbar,
    rk_theta0,
    sweep_surface,
    wayout,
)
from canardlab.analysis import _theta_coefficients
from canardlab.linearization import _stage_polynomial
from canardlab.rounding import pack, split
from canardlab.systems import NoCanard

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD


# -- Lambert W -----------------------------------------------------------------


def test_lambertw_trivial_values(ctx):
    assert lambert_w0(ctx, ctx.mpf(0)) == 0
    assert abs(lambert_w0(ctx, ctx.exp(ctx.mpf(1))) - 1) < ctx.tol(10)
    assert abs(lambert_w0(ctx, 2 * ctx.exp(ctx.mpf(2))) - 2) < ctx.tol(8)


def test_lambertw_identity_on_log_grid(ctx):
    for k in range(-30, 31, 3):
        x = ctx.mpf(10) ** k
        w = lambert_w0(ctx, x)
        assert abs(w * ctx.exp(w) - x) <= ctx.tol(10) * x


def test_lambertw_matches_reference(ctx):
    for x_txt in ("0.001", "0.5", "3", "1e6"):
        ours = lambert_w0(ctx, ctx.mpf(x_txt))
        ref = mpmath.mp.mpf(str(mpmath.lambertw(mpmath.mpf(x_txt)).real))
        assert abs(float(ours) - float(ref)) < 1e-12


def test_lambertw_domain(ctx):
    with pytest.raises(OutOfDomain):
        lambert_w0(ctx, ctx.mpf(-1))


# -- closed-form exit bounds ------------------------------------------------------


def test_kstar_transcritical_value(ctx):
    """Evaluate the bound formula with an independent W implementation."""
    k = kstar_transcritical_euler(ctx, 4, "0.1", "0.01")
    with mpmath.workdps(60):
        h, eps, rho = mpmath.mpf("0.1"), mpmath.mpf("0.01"), mpmath.mpf(4)
        arg = -h * h * eps * mpmath.log(1 - 2 * rho * h)
        expected = (-1 + 2 * h * rho + mpmath.exp(mpmath.lambertw(arg))) / (h * h * eps)
        assert abs(float(k) - float(expected)) < 1e-6
    assert abs(float(k) - 8001.6) < 0.1


def test_kstar_transcritical_past_criticality(ctx):
    with pytest.raises(PastCriticality):
        kstar_transcritical_euler(ctx, 5, "0.1", "0.01")


def _euler_transcritical_exit_count(ctx, rho, h, eps, cap=100_000):
    prod = ctx.mpf(1)
    k = 0
    while k < cap:
        prod *= 1 - 2 * h * (rho - k * h * eps)
        k += 1
        if prod >= 1:
            return k
    return None


def _euler_pitchfork_exit_count(ctx, rho, h, eps, cap=100_000):
    prod = ctx.mpf(1)
    k = 0
    while k < cap:
        prod *= 1 + h * (-rho + k * h * eps)
        k += 1
        if prod >= 1:
            return k
    return None


def test_kstar_transcritical_is_lower_bound(ctx):
    rng = random.Random(42)
    for _ in range(30):
        h = ctx.mpf(rng.uniform(0.05, 0.4))
        eps = ctx.mpf(rng.uniform(0.2, 1.0))
        rho = ctx.mpf(rng.uniform(0.1, 0.9)) / (2 * h)
        k_exit = _euler_transcritical_exit_count(ctx, rho, h, eps)
        assert k_exit is not None
        assert k_exit >= kstar_transcritical_euler(ctx, rho, h, eps) - ctx.tol(20)


def test_kstar_pitchfork_is_lower_bound(ctx):
    rng = random.Random(43)
    for _ in range(30):
        h = ctx.mpf(rng.uniform(0.05, 0.4))
        eps = ctx.mpf(rng.uniform(0.2, 1.0))
        rho = ctx.mpf(rng.uniform(0.1, 0.9)) / h
        k_exit = _euler_pitchfork_exit_count(ctx, rho, h, eps)
        assert k_exit is not None
        assert k_exit >= kstar_pitchfork_euler(ctx, rho, h, eps) - ctx.tol(20)


def test_kstar_divergence_near_criticality(ctx):
    # x* grows only like exp(W(...)), so drive it with a large h^2*eps
    h, eps = ctx.mpf("0.3"), ctx.mpf(1)
    ks, x_stars = [], []
    for j in range(1, 31):
        rho = (1 - ctx.mpf(10) ** -j) / (2 * h)
        k = kstar_transcritical_euler(ctx, rho, h, eps)
        ks.append(k)
        x_stars.append(-rho + k * h * eps)
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert all(b > a for a, b in zip(x_stars, x_stars[1:]))
    assert x_stars[-1] > 10


def test_kstar_pitchfork_divergence(ctx):
    h, eps = ctx.mpf("0.1"), ctx.mpf("0.01")
    ks = [kstar_pitchfork_euler(ctx, (1 - ctx.mpf(2) ** -j) / h, h, eps) for j in range(1, 10)]
    assert all(b > a for a, b in zip(ks, ks[1:]))


def test_kstar_pitchfork_tiny_entry(ctx):
    # shallow entry: the bound is weak but must stay below the brute-force exit
    h, eps = ctx.mpf("0.1"), ctx.mpf("0.01")
    rho = ctx.mpf("0.001")
    kstar = kstar_pitchfork_euler(ctx, rho, h, eps)
    k_exit = _euler_pitchfork_exit_count(ctx, rho, h, eps)
    assert k_exit is not None
    assert k_exit >= kstar - ctx.tol(20)
    assert kstar < 2 * rho / (h * eps) + 2  # same order as the shallow-entry estimate


def test_kstar_rk_trivial_and_domains(ctx):
    assert kstar_rk(ctx, ctx.mpf(1), ctx.mpf(2), 3) == 2
    with pytest.raises(PastCriticality):
        kstar_rk(ctx, ctx.mpf(0), ctx.mpf(2), 3)
    with pytest.raises(NotContracting):
        kstar_rk(ctx, ctx.mpf("1.5"), ctx.mpf(2), 3)


def test_kstar_rk_diverges_as_theta0_vanishes():
    # the bound grows like exp(W(|ln theta0|)), so probe very deep theta0
    big = make_context(3200)
    cbar = big.mpf(3)
    ks = [kstar_rk(big, big.mpf(10) ** -j, cbar, 3) for j in (1, 10, 100, 1000, 3000)]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert ks[-1] > 100


def _rk_exit_count(ctx, tab, params, rho, cap=100_000):
    prod = ctx.mpf(1)
    k = 0
    heps = params.h * params.epsilon
    while k < cap:
        prod *= 1 + params.h * q_s(tab, params, -rho + k * heps)
        k += 1
        if prod >= 1:
            return k
    return None


def test_kstar_rk_is_lower_bound(ctx):
    rng = random.Random(44)
    tabs = [SHIPPED_TABLEAUX[n] for n in ("heun2", "kutta3", "ssprk3")]
    checked = 0
    for _ in range(40):
        tab = rng.choice(tabs)
        h = ctx.mpf(rng.uniform(0.05, 0.3))
        eps = ctx.mpf(rng.uniform(0.2, 1.0))
        params = SystemParams.create(ctx, eps, h)
        rho = ctx.mpf(rng.uniform(0.1, 0.8)) / (2 * h)
        theta0 = rk_theta0(tab, params, rho)
        if not (0 < theta0 < 1):
            continue
        k_exit = _rk_exit_count(ctx, tab, params, rho)
        if k_exit is None or k_exit <= 2:
            continue
        kstar = kstar_rk(ctx, theta0, rk_cbar(tab, params, rho), tab.s)
        assert k_exit >= kstar - ctx.tol(20)
        checked += 1
    assert checked >= 20


# -- polynomial machinery -----------------------------------------------------------


def _horner(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_qs_polynomial_matches_scalar_recursion(ctx, params):
    """The stage polynomial in the canard position, x = [0, 1], evaluates to q_s."""
    h, eps = split(params.h._mpf_), split(params.epsilon._mpf_)
    for tab in SHIPPED_TABLEAUX.values():
        poly = [ctx.make_mpf(pack(c)) for c in _stage_polynomial(tab, ctx, [(0, 0), (1, 0)], [h], eps)]
        assert len(poly) == tab.s + 1
        for x_txt in ("-1.5", "-0.2", "0.8"):
            x = ctx.mpf(x_txt)
            assert abs(_horner(poly, x) - q_s(tab, params, x)) < ctx.tol(8)


def test_theta0_consistency(ctx, params):
    rho = ctx.mpf("0.7")
    theta = _theta_coefficients(KUTTA3, params, rho)
    assert abs(theta[0] - rk_theta0(KUTTA3, params, rho)) < ctx.tol(8)


def test_faulhaber_bernoulli_table(ctx):
    """The Bernoulli convention must reproduce the power sums exactly."""
    import math
    from fractions import Fraction

    from canardlab.analysis import _BERNOULLI_PLUS

    for m in range(1, 8):
        for n in (1, 5, 9):
            direct = sum(k**m for k in range(1, n + 1))
            formula = sum(
                Fraction(math.comb(m + 1, j)) * _BERNOULLI_PLUS[j] * Fraction(n) ** (m + 1 - j)
                for j in range(m + 1)
            ) / (m + 1)
            assert formula == direct


# -- way-in/way-out ----------------------------------------------------------------


def test_wayout_lattice_all_kinds(ctx, params):
    eh = params.epsilon * params.h
    for kind in (T, P, F):
        for n in (1, 7, 33):
            rho = eh * n / 2 if kind is F else eh * n + eh / 2
            res = wayout(kind, KAHAN, params, rho)
            assert res.n_in == n
            assert res.psi == n
            assert abs(abs(res.product_at_exit) - 1) < ctx.tol(8)


def test_wayout_off_lattice(ctx, params):
    rng = random.Random(9)
    eh = params.epsilon * params.h
    for kind in (T, P, F):
        spacing = eh / 2 if kind is F else eh
        center_off = 0 if kind is F else eh / 2
        for _ in range(20):
            n = rng.randint(1, 40)
            frac = ctx.mpf(rng.uniform(0.05, 0.95))
            rho = center_off + (n + frac) * spacing
            res = wayout(kind, KAHAN, params, rho)
            assert res.n_in == n
            assert res.psi in (n + 1, n + 2), (kind, n, res.psi)


def test_wayout_euler_matches_brute_force(ctx, params):
    rho = ctx.mpf("0.2")
    res = wayout(T, EULER, params, rho)
    # independent accumulation of the inclusive multiplier product
    prod = ctx.mpf(1)
    n = 0
    heps = params.epsilon * params.h
    while True:
        prod *= 1 - 2 * params.h * (rho - n * heps)
        if n >= res.n_in and abs(prod) >= 1 - ctx.tol(10):
            break
        n += 1
    assert res.n_in + res.psi == n
    assert res.n_in == 199  # floor((0.2 - eh/2) / eh)


def test_wayout_unresolved(ctx, params):
    with pytest.raises(Unresolved):
        wayout(T, EULER, params, ctx.mpf("0.2"), max_n=3)


def test_wayout_requires_entry_past_center(ctx, params):
    with pytest.raises(ValueError):
        wayout(T, KAHAN, params, params.epsilon * params.h / 4)


@pytest.mark.parametrize("call, message", [
    (lambda p: classify_jump(T, EULER, p, "1", "1e-4", escape="inf"),
     "escape threshold must be finite, got +inf"),
    (lambda p: classify_jump(T, EULER, p, "1", "1e-4", escape="inf", track_deviation=False),
     "escape threshold must be finite, got +inf"),
    (lambda p: classify_jump(T, EULER, p, "1", "1e-4", escape="nan"),
     "escape threshold must be finite, got nan"),
    (lambda p: classify_jump(T, EULER, p, "inf", "1e-4"), "rho must be finite and > 0, got +inf"),
    (lambda p: classify_jump(P, KAHAN, p, "nan", "1e-4"), "rho must be finite and > 0, got nan"),
    (lambda p: wayout(T, KAHAN, p, "inf"), "rho must be finite and > 0, got +inf"),
], ids=["classify-escape-inf", "classify-raw-escape-inf", "classify-escape-nan",
        "classify-rho-inf", "classify-rho-nan", "wayout-rho-inf"])
def test_non_finite_rho_and_escape_are_named(params, call, message):
    with pytest.raises(ValueError) as err:
        call(params)
    assert str(err.value) == message


# -- linearized critical triplets ----------------------------------------------------


def test_euler_triplet_is_half_inverse_h(ctx):
    for h_txt in ("0.01", "0.05", "0.1"):
        trip = critical_triplet_linearized(EULER, h_txt, "0.01", ctx)
        expected = 1 / (2 * ctx.mpf(h_txt))
        assert abs(trip.rho_star - expected) <= ctx.tol(10)
        assert trip.source == "linearized"


def test_kutta3_triplet_matches_stability_root(ctx):
    # real root of the cubic stability polynomial, found independently
    one = ctx.mpf(1)
    roots = ctx.polyroots([one / 6, one / 2, one, one])
    z = [r for r in roots if abs(r.imag) < ctx.tol(20)][0].real
    h = -z / 16  # chosen so the critical entry offset is exactly 8
    trip = critical_triplet_linearized(KUTTA3, h, "1e-30", ctx)
    assert abs(trip.rho_star - 8) < ctx.mpf("1e-25")
    assert abs(float(h) - 0.0998) < 2e-4


def test_heun2_has_no_triplet(ctx):
    assert critical_triplet_linearized(HEUN2, "0.1", "0.01", ctx) is None


def test_triplet_residual_invariant(ctx):
    trip = critical_triplet_linearized(KUTTA3, "0.1", "0.5", ctx)
    params = SystemParams.create(ctx, "0.5", "0.1")
    residual = 1 + params.h * q_s(KUTTA3, params, -trip.rho_star)
    assert abs(residual) < ctx.tol(10)


def test_linearized_critical_h(ctx):
    h = linearized_critical_h(EULER, ctx.mpf(5), ctx.mpf("0.3"), ctx)
    assert abs(h - ctx.mpf("0.1")) < ctx.tol(10)
    assert linearized_critical_h(HEUN2, ctx.mpf(5), ctx.mpf("0.3"), ctx) is None
    h3 = linearized_critical_h(KUTTA3, ctx.mpf(8), ctx.mpf("1e-20"), ctx)
    assert abs(float(h3) - 0.0998) < 2e-4


# -- jump classification ----------------------------------------------------------


def test_classify_small_step_correct_direction(ctx):
    params = SystemParams.create(ctx, "1", "0.05")
    res = classify_jump(T, EULER, params, 1, "1e-4")
    assert res.label is JumpClass.RIGHT
    assert abs(res.deviation) >= ctx.mpf("0.5")


def test_classify_band_edges_near_critical_step(ctx):
    """For (rho, eps) = (5, 1) the wrong-direction window starts at ~0.104."""
    for h_txt, expected in (("0.103", JumpClass.RIGHT), ("0.105", JumpClass.LEFT)):
        params = SystemParams.create(ctx, "1", h_txt)
        res = classify_jump(T, EULER, params, 5, "1e-4")
        assert res.label is expected, h_txt


def test_classify_raw_matches_deviation_engine_when_benign(ctx):
    # at h = 0.15, rho = 8 the entry multipliers are negative: the deviation
    # changes sign at every step of an early band
    for scheme, h, rho, last_sign_change in (
        (EULER, "0.05", 1, 0), (EULER, "0.15", 8, 32), (KUTTA3, "0.15", 8, 18),
    ):
        params = SystemParams.create(ctx, "1", h)
        a = classify_jump(T, scheme, params, rho, "1e-4", track_deviation=True)
        b = classify_jump(T, scheme, params, rho, "1e-4", track_deviation=False)
        assert a.label is b.label is JumpClass.RIGHT, (scheme.name, h)
        assert a.last_sign_change == b.last_sign_change == last_sign_change, (scheme.name, h)


def test_classify_sticky_collapse_raw_only():
    """At 16 digits the raw orbit glues to the diagonal; at higher digits it exits."""
    lo = make_context(16)
    params = SystemParams.create(lo, "0.02", "0.01")
    res = classify_jump(T, EULER, params, 1, "1e-6", track_deviation=False)
    assert res.label is JumpClass.STUCK
    assert res.steps < 10_000  # glued well before the iteration budget
    hi = make_context(60)
    params_hi = SystemParams.create(hi, "0.02", "0.01")
    res_hi = classify_jump(T, EULER, params_hi, 1, "1e-6", track_deviation=False)
    assert res_hi.label is JumpClass.RIGHT
    # the deviation engine never sticks, even at 16 digits
    res_dev = classify_jump(T, EULER, params, 1, "1e-6", track_deviation=True)
    assert res_dev.label is JumpClass.RIGHT


def test_classify_kahan_transcritical_symmetric(ctx):
    params = SystemParams.create(ctx, "1", "0.1")
    up = classify_jump(T, KAHAN, params, 5, "1e-4")
    down = classify_jump(T, KAHAN, params, 5, "-1e-4")
    # both perturbation sides jump correctly, exiting near +rho after the
    # same number of steps: the delay is symmetric
    assert up.label is JumpClass.RIGHT and down.label is JumpClass.RIGHT
    assert up.point.y > 4 and down.point.y > 4
    assert abs(up.steps - down.steps) <= 1
    assert up.deviation < 0 < down.deviation  # opposite sides throughout


def test_classify_pitchfork(ctx):
    params = SystemParams.create(ctx, "1", "0.05")
    res = classify_jump(P, EULER, params, 1, "1e-4")
    assert res.label is JumpClass.RIGHT
    res_neg = classify_jump(P, EULER, params, 1, "-1e-4")
    assert res_neg.label is JumpClass.RIGHT
    assert res_neg.deviation < 0  # mirrored branch


def test_classify_fold_kahan(ctx):
    params = SystemParams.create(ctx, "0.5", "0.1")
    res = classify_jump(F, KAHAN, params, 1, "1e-6")
    assert res.label is JumpClass.RIGHT
    with pytest.raises(NoCanard):
        classify_jump(F, EULER, params, 1, "1e-6")


def test_classify_rejects_on_canard_start(ctx, params):
    with pytest.raises(ValueError):
        classify_jump(T, EULER, params, 1, "0")


def test_classify_explicit_start_override(ctx):
    params = SystemParams.create(ctx, "1", "0.05")
    res = classify_jump(
        T, EULER, params, 1, "1e-4",
        start=PlanarPoint(ctx.mpf(-1), ctx.mpf(-1) - ctx.mpf("1e-4")),
        track_deviation=False,
    )
    assert res.label is JumpClass.RIGHT
    assert res.deviation > 0  # entered below the diagonal, exits below


@pytest.mark.parametrize("track_deviation", [True, False])
@pytest.mark.parametrize("x, y", [("inf", "0"), ("nan", "0"), ("-1", "-inf"), ("-1", "nan")])
def test_classify_rejects_non_finite_start(ctx, params, x, y, track_deviation):
    with pytest.raises(ValueError) as err:
        classify_jump(T, EULER, params, 1, "1e-4", track_deviation=track_deviation,
                      start=PlanarPoint(ctx.mpf(x), ctx.mpf(y)))
    assert str(err.value) == "start point must be finite"


# -- bisection ---------------------------------------------------------------------


def test_bisection_brackets_flip(ctx):
    trip = critical_h_bisection(T, EULER, 5, 1, "1e-4", 3, ctx, h_bracket=("0.103", "0.105"))
    lo, hi = trip.source.lo, trip.source.hi
    assert lo < hi
    assert (hi - lo) <= ctx.mpf("1e-3") * hi
    assert str(lo)[:5] == "0.104" and str(hi)[:5] == "0.104"
    # endpoints classify differently (re-check the invariant)
    for h, expected in ((lo, JumpClass.RIGHT), (hi, JumpClass.LEFT)):
        p = SystemParams.create(ctx, "1", h)
        assert classify_jump(T, EULER, p, 5, "1e-4").label is expected


def test_bisection_default_scan_finds_first_flip(ctx):
    trip = critical_h_bisection(T, EULER, 1, 1, "1e-4", 3, ctx)
    # first wrong-direction band opens just above the linearized value 0.5
    assert abs(trip.h_star - ctx.mpf("0.5")) < ctx.mpf("0.01")


def test_bisection_rejects_bad_bracket(ctx):
    with pytest.raises(NoBracket):
        critical_h_bisection(T, EULER, 5, 1, "1e-4", 3, ctx, h_bracket=("0.01", "0.02"))


def test_bisection_no_seed_for_heun2(ctx):
    with pytest.raises(NoBracket):
        critical_h_bisection(T, HEUN2, 5, 1, "1e-4", 3, ctx)


# -- sweeps ------------------------------------------------------------------------


def test_sweep_euler_surface_is_half_inverse_rho(ctx):
    cells = sweep_surface(EULER, ["1", "2", "5"], ["0.01", "1"], "linearized", ctx)
    assert len(cells) == 6
    for cell in cells:
        assert abs(cell.h_star - 1 / (2 * cell.rho)) < ctx.tol(8)


def test_sweep_kutta3_surface_nearly_eps_independent(ctx):
    cells = sweep_surface(KUTTA3, ["8", "16"], ["0.01", "0.5", "1"], "linearized", ctx)
    by_rho = {}
    for cell in cells:
        by_rho.setdefault(str(cell.rho), []).append(cell.h_star)
    for values in by_rho.values():
        eps_spread = max(values) - min(values)
        assert eps_spread < ctx.mpf("0.01") * min(values)
    # the rho-dependence dominates: h* ~ 1.5961/(2 rho)
    for cell in cells:
        expected = ctx.mpf("1.5961") / (2 * cell.rho)
        assert abs(cell.h_star - expected) < ctx.mpf("0.01") * expected


def test_sweep_heun2_surface_empty(ctx):
    cells = sweep_surface(HEUN2, ["2", "4"], ["0.1"], "linearized", ctx)
    assert all(cell.h_star is None for cell in cells)
