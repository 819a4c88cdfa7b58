import pytest

from canardlab import (
    EULER,
    HEUN2,
    KUTTA3,
    NoCanard,
    PlanarPoint,
    SingularityKind,
    SystemParams,
    fold_first_integral,
    fold_kahan_parabola_offset,
    fold_rk_reduced_gap,
    fold_slow_solutions,
    kahan_step_transcritical,
    vector_field,
)
from canardlab.linearization import CANARDS, scheme_map
from canardlab.rounding import pack, split

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD


def test_vector_field_on_transcritical_diagonal(ctx, params):
    v = vector_field(T, params, PlanarPoint(ctx.mpf(-1), ctx.mpf(-1)))
    assert v.x == params.epsilon and v.y == params.epsilon


def test_vector_field_pitchfork_axis(ctx, params):
    v = vector_field(P, params, PlanarPoint(ctx.mpf(0), ctx.mpf(-1)))
    assert v.x == 0 and v.y == params.epsilon


def test_vector_field_fold_origin(ctx, params):
    v = vector_field(F, params, PlanarPoint(ctx.mpf(0), ctx.mpf(0)))
    assert v.x == 0 and v.y == 0


def test_critical_residuals(ctx, params):
    # each kind's deviation vanishes on its canard set: the diagonal, the
    # Kahan-invariant parabola, the line {x = 0} (where it is x itself)
    def residual(kind, x, y):
        u, _ = CANARDS[kind].deviation(params)(split(ctx.mpf(x)._mpf_), split(ctx.mpf(y)._mpf_))
        return ctx.make_mpf(pack(u))

    off = fold_kahan_parabola_offset(params)
    assert residual(T, 2, 2) == 0
    assert residual(F, 3, 9 - off) == 0
    assert residual(F, 1, 0) == off - 1
    assert residual(P, "0.25", 7) == ctx.mpf("0.25")


def _canard_after(kind, params, start, n):
    """The canard point n steps of the canard's spacing past slow position start."""
    canard = CANARDS[kind]
    return canard.point(params, params.ctx.mpf(start) + n * canard.spacing(params))


def test_transcritical_canard_closed_form(ctx, params):
    p = _canard_after(T, params, "-1", 10)
    assert abs(p.x - ctx.mpf("-0.99")) < ctx.tol(5)
    assert p.x == p.y


def test_fold_kahan_canard_offset(ctx, params):
    p = _canard_after(F, params, "0", 0)
    assert p.x == 0
    expected = -ctx.mpf("0.005") - ctx.mpf("1.25e-7")
    assert abs(p.y - expected) < ctx.tol(5)


def test_pitchfork_special_canard_symmetry(ctx, params):
    # one step from -eps*h/2 lands at +eps*h/2
    p = _canard_after(P, params, "-0.0005", 1)
    assert p.x == 0
    assert abs(p.y - ctx.mpf("0.0005")) < ctx.tol(5)


def test_fold_explicit_schemes_have_no_canard(params):
    for tableau in (EULER, KUTTA3):
        with pytest.raises(NoCanard):
            scheme_map(F, tableau, params)


def test_kahan_canard_runs_backwards(ctx, params):
    p = PlanarPoint(ctx.mpf(-1), ctx.mpf(-1))
    for _ in range(3):
        p = kahan_step_transcritical(params, p, reverse=True)
    assert abs(p.x - (-1 - 3 * params.epsilon * params.h)) < ctx.tol(5)
    assert abs(p.y - p.x) < ctx.tol(5)


def test_fold_slow_solutions_fixed_point(ctx):
    h = ctx.mpf("0.1")
    pair = fold_slow_solutions(ctx.mpf(0), h)
    assert pair == (0, 0)


def test_fold_slow_solutions_gap(ctx):
    h = ctx.mpf("0.1")
    assert fold_slow_solutions(ctx.mpf("-0.05"), h) is None
    pair = fold_slow_solutions(ctx.mpf(1), h)
    assert abs(pair[1] - ctx.sqrt(ctx.mpf("1.1"))) < ctx.tol(5)
    assert pair[0] == -pair[1]


def test_fold_slow_solutions_gap_is_exactly_open_interval(ctx):
    h = ctx.mpf("0.1")
    # endpoints belong to the domain, interior of (-h, 0) does not
    assert fold_slow_solutions(-h, h) is not None
    assert fold_slow_solutions(ctx.mpf(0), h) is not None
    for frac in ("0.001", "0.33", "0.5", "0.92", "0.999"):
        assert fold_slow_solutions(-h * ctx.mpf(frac), h) is None
    assert fold_slow_solutions(-h * ctx.mpf("1.0001"), h) is not None
    assert fold_slow_solutions(ctx.mpf("1e-30"), h) is not None


def test_fold_first_integral_values(ctx):
    quarter = fold_first_integral(PlanarPoint(ctx.mpf(0), ctx.mpf(0)), ctx.mpf(1))
    assert abs(quarter - ctx.mpf("0.25")) < ctx.tol(5)
    on_branch = fold_first_integral(PlanarPoint(ctx.mpf(1), ctx.mpf("0.5")), ctx.mpf(1))
    assert abs(on_branch) < ctx.tol(5)


def test_fold_first_integral_vanishes_on_invariant_parabola(ctx):
    for eps_txt in ("1", "0.01"):
        eps = ctx.mpf(eps_txt)
        for x_txt in ("-2", "-0.7", "0", "0.3", "1.9"):
            x = ctx.mpf(x_txt)
            h_val = fold_first_integral(PlanarPoint(x, x * x - eps / 2), eps)
            assert abs(h_val) < ctx.tol(10)


def test_fold_rk_reduced_gap(ctx):
    h = ctx.mpf("0.1")
    assert not fold_rk_reduced_gap(HEUN2, ctx.mpf("-0.05"), h)  # a21 = 1
    assert fold_rk_reduced_gap(HEUN2, ctx.mpf(0), h)
    assert fold_rk_reduced_gap(KUTTA3, ctx.mpf("-0.06"), h)  # a21 = 1/2: 0.0036 >= 0.003
    assert not fold_rk_reduced_gap(KUTTA3, ctx.mpf("-0.04"), h)
    from canardlab import EULER

    with pytest.raises(ValueError):
        fold_rk_reduced_gap(EULER, ctx.mpf(1), h)


def test_fold_flow_conserves_first_integral_at_third_order(ctx):
    """Reference RK3 flow of the fold field drifts H by O(h^3) per unit time."""
    eps = ctx.mpf("0.5")
    params = SystemParams.create(ctx, eps, "1")  # h unused by the test integrator

    def rk3_flow(h_txt):
        h = ctx.mpf(h_txt)
        p = PlanarPoint(ctx.mpf("-1"), ctx.mpf("0.8"))
        h0 = fold_first_integral(p, eps)
        steps = int(1 / float(h_txt))
        for _ in range(steps):
            k1 = vector_field(F, params, p)
            p2 = PlanarPoint(p.x + h / 2 * k1.x, p.y + h / 2 * k1.y)
            k2 = vector_field(F, params, p2)
            p3 = PlanarPoint(p.x + h * (-k1.x + 2 * k2.x), p.y + h * (-k1.y + 2 * k2.y))
            k3 = vector_field(F, params, p3)
            p = PlanarPoint(
                p.x + h * (k1.x + 4 * k2.x + k3.x) / 6,
                p.y + h * (k1.y + 4 * k2.y + k3.y) / 6,
            )
        return abs(fold_first_integral(p, eps) - h0)

    drift_h = rk3_flow("0.02")
    drift_h2 = rk3_flow("0.01")
    # third-order global accuracy: halving h cuts the drift by ~8
    assert drift_h2 < drift_h / 4


def test_params_validation(ctx):
    with pytest.raises(ValueError):
        SystemParams.create(ctx, "-0.01", "0.1")
    with pytest.raises(ValueError):
        SystemParams.create(ctx, "0.01", "0")
    # eps = 0 admitted for layer-problem experiments
    assert SystemParams.create(ctx, "0", "0.1").epsilon == 0


def test_fold_parabola_offset(ctx, params):
    off = fold_kahan_parabola_offset(params)
    assert abs(off - (params.epsilon / 2 + params.epsilon**2 * params.h**2 / 8)) == 0
