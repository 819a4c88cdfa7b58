import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canardlab import (
    EULER,
    HEUN2,
    KUTTA3,
    SHIPPED_TABLEAUX,
    SSPRK3,
    ButcherTableau,
    PlanarPoint,
    KAHAN,
    PoleError,
    QuadraticField,
    SingularityKind,
    SystemParams,
    a_family_step_pitchfork,
    classify_jump,
    kahan_step_fold,
    kahan_step_general,
    kahan_step_transcritical,
    load_tableau_file,
    make_context,
    rk_step,
)
from canardlab.rounding import pack, split
from canardlab.schemes import euler_kernel

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD


# -- tableaux ----------------------------------------------------------------


def test_shipped_tableaux():
    assert set(SHIPPED_TABLEAUX) == {"euler", "heun2", "kutta3", "heun3", "ralston3", "ssprk3"}
    assert EULER.s == 1 and KUTTA3.s == 3
    assert KUTTA3.a[2] == (Fraction(-1), Fraction(2))
    assert sum(SSPRK3.alpha) == 1


def test_tableau_weights_must_be_consistent():
    with pytest.raises(ValueError):
        ButcherTableau("bad", (Fraction(1, 2), Fraction(1, 3)), ((), (1,)))


def test_tableau_must_be_strictly_lower_triangular():
    with pytest.raises(ValueError):
        ButcherTableau("bad", (1,), ((1,),))


def test_row_sums():
    assert KUTTA3.row_sums() == (0, Fraction(1, 2), 1)


@pytest.mark.parametrize("tab", list(SHIPPED_TABLEAUX.values()), ids=lambda t: t.name)
def test_bind_is_cached_per_precision_as_plain_tuples(tab):
    """tab.pairs(ctx) holds the coefficients as mantissa pairs, one cache entry per precision."""
    digit_counts = (16, 50, 200)
    for digits in digit_counts:
        ctx = make_context(digits)
        for _ in range(2):  # the second call reads the cache
            alpha, rows, sums = tab.pairs(ctx)
            assert [pack(v) for v in alpha] == [ctx.mpf(v)._mpf_ for v in tab.alpha]
            assert [[pack(v) for v in r] for r in rows] == [[ctx.mpf(v)._mpf_ for v in r] for r in tab.a]
            assert [pack(v) for v in sums] == [ctx.mpf(v)._mpf_ for v in tab.row_sums()]
        assert tab.pairs(ctx) is tab.pairs(ctx)
    # one entry per precision, holding pairs of ints only
    assert {make_context(d).prec for d in digit_counts} <= set(tab._pairs)
    for alpha, rows, sums in tab._pairs.values():
        for v in alpha + sums + sum(rows, ()):
            assert type(v) is tuple and all(type(c) is int for c in v)


def test_tableau_file_roundtrip(tmp_path):
    path = tmp_path / "kutta3.tab"
    path.write_text(
        "# three-stage third-order scheme\n3\n1/6 2/3 1/6\n1/2\n-1 2\n",
        encoding="utf-8",
    )
    tab = load_tableau_file(path, name="kutta3_file")
    assert tab.alpha == KUTTA3.alpha
    assert tab.a == KUTTA3.a


def test_tableau_file_decimal_entries(tmp_path):
    path = tmp_path / "heun.tab"
    path.write_text("2\n0.5 0.5\n1\n", encoding="utf-8")
    assert load_tableau_file(path).alpha == HEUN2.alpha


def test_tableau_file_errors(tmp_path):
    bad = tmp_path / "bad.tab"
    bad.write_text("2\n0.5 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_tableau_file(bad)


# -- explicit steppers ---------------------------------------------------------


def test_euler_step_diagonal(ctx, params):
    p = rk_step(EULER, T, params, PlanarPoint(ctx.mpf(-1), ctx.mpf(-1)))
    assert abs(p.x - ctx.mpf("-0.999")) < ctx.tol(5)
    assert p.x == p.y


def test_euler_step_pitchfork_axis(ctx, params):
    p = rk_step(EULER, P, params, PlanarPoint(ctx.mpf(0), ctx.mpf(-1)))
    assert p.x == 0
    assert abs(p.y - ctx.mpf("-0.999")) < ctx.tol(5)


def test_euler_step_layer_problem(ctx):
    # eps = 0 admitted by the steppers
    params = SystemParams.create(ctx, "0", "0.1")
    p = rk_step(EULER, T, params, PlanarPoint(ctx.mpf(1), ctx.mpf(0)))
    assert abs(p.x - ctx.mpf("1.1")) < ctx.tol(5)
    assert p.y == 0


def test_rk_single_stage_reduces_to_euler(ctx, params):
    p0 = PlanarPoint(ctx.mpf("-1"), ctx.mpf("-0.3"))
    x, y = euler_kernel(T, params)(split(p0.x._mpf_), split(p0.y._mpf_))
    b = rk_step(EULER, T, params, p0)
    assert (pack(x), pack(y)) == (b.x._mpf_, b.y._mpf_)


def test_rk_diagonal_invariance_all_tableaux(ctx, params):
    for tab in SHIPPED_TABLEAUX.values():
        for x_txt in ("-2", "-1", "-0.3", "0", "0.7", "1.5"):
            x = ctx.mpf(x_txt)
            p = rk_step(tab, T, params, PlanarPoint(x, x))
            assert p.x == p.y, tab.name
            assert abs(p.x - (x + params.epsilon * params.h)) < ctx.tol(5)


def test_rk_pitchfork_axis_invariance(ctx, params):
    for tab in SHIPPED_TABLEAUX.values():
        p = rk_step(tab, P, params, PlanarPoint(ctx.mpf(0), ctx.mpf("-0.5")))
        assert p.x == 0


def test_rk_step_rejects_fold(ctx, params):
    with pytest.raises(ValueError):
        rk_step(KUTTA3, F, params, PlanarPoint(ctx.mpf(0), ctx.mpf(0)))


def test_kutta3_matches_hand_stage_recursion(ctx):
    params = SystemParams.create(ctx, "0", "0.1")
    h = params.h
    x, y = ctx.mpf(1), ctx.mpf(0)

    def f(px, py):
        return px * px - py * py

    k1 = f(x, y)
    k2 = f(x + h / 2 * k1, y)
    k3 = f(x - h * k1 + 2 * h * k2, y)
    expected = x + h * (k1 / 6 + 2 * k2 / 3 + k3 / 6)
    p = rk_step(KUTTA3, T, params, PlanarPoint(x, y))
    assert abs(p.x - expected) < ctx.tol(5)
    assert p.y == 0


# -- Kahan maps ----------------------------------------------------------------


def test_kahan_transcritical_diagonal(ctx, params):
    for x_txt in ("-3", "-0.2", "1.1"):
        x = ctx.mpf(x_txt)
        p = kahan_step_transcritical(params, PlanarPoint(x, x))
        assert abs(p.x - (x + params.epsilon * params.h)) < ctx.tol(8)
        assert abs(p.y - (x + params.epsilon * params.h)) < ctx.tol(8)


def test_kahan_transcritical_example(ctx):
    params = SystemParams.create(ctx, "0", "0.5")
    p = kahan_step_transcritical(params, PlanarPoint(ctx.mpf(0), ctx.mpf(1)))
    assert p.x == ctx.mpf("-0.5")
    assert p.y == 1


def test_kahan_transcritical_bilinear_relation(ctx, params):
    rng = random.Random(11)
    h, eps = params.h, params.epsilon
    for _ in range(30):
        p = PlanarPoint(ctx.mpf(rng.uniform(-3, 3)), ctx.mpf(rng.uniform(-3, 3)))
        q = kahan_step_transcritical(params, p)
        residual = (q.x - p.x) / h - (q.x * p.x - q.y * p.y + eps)
        assert abs(residual) < ctx.tol(8)


def test_kahan_transcritical_pole(ctx):
    params = SystemParams.create(ctx, "0.01", "0.125")
    with pytest.raises(PoleError):
        kahan_step_transcritical(params, PlanarPoint(ctx.mpf(8), ctx.mpf(0)))


def test_kahan_fold_parabola_invariance(ctx, params):
    from canardlab import fold_kahan_parabola_offset

    off = fold_kahan_parabola_offset(params)
    x = ctx.mpf("0.3")
    p = PlanarPoint(x, x * x - off)
    for _ in range(100):
        p = kahan_step_fold(params, p)
        assert abs(p.y - (p.x * p.x - off)) < ctx.tol(10)
    # the canard advances at eps*h/2 per step
    assert abs(p.x - (x + 100 * params.epsilon * params.h / 2)) < ctx.tol(8)


def test_kahan_fold_birational(ctx, params):
    rng = random.Random(7)
    for _ in range(30):
        p = PlanarPoint(ctx.mpf(rng.uniform(-3, 3)), ctx.mpf(rng.uniform(-3, 3)))
        q = kahan_step_fold(params, p)
        back = kahan_step_fold(params, q, reverse=True)
        assert abs(back.x - p.x) < ctx.tol(10)
        assert abs(back.y - p.y) < ctx.tol(10)


def test_kahan_transcritical_birational(ctx, params):
    rng = random.Random(8)
    for _ in range(30):
        p = PlanarPoint(ctx.mpf(rng.uniform(-3, 3)), ctx.mpf(rng.uniform(-3, 3)))
        q = kahan_step_transcritical(params, p)
        back = kahan_step_transcritical(params, q, reverse=True)
        assert abs(back.x - p.x) < ctx.tol(10)
        assert abs(back.y - p.y) < ctx.tol(10)


@settings(max_examples=150, deadline=None)
@given(step=st.sampled_from([kahan_step_transcritical, kahan_step_fold]),
       h=st.integers(1, 500), eps=st.integers(1, 1000),
       fx=st.integers(-999, 999), fy=st.integers(-999, 999))
def test_kahan_round_trip_property(ctx, step, h, eps, fx, fy):
    # h, eps in thousandths; |h x|, |h y| < 1/2 keeps both steps inside half the pole distance
    params = SystemParams.create(ctx, ctx.mpf(eps) / 1000, ctx.mpf(h) / 1000)
    half = 1 / (2 * params.h)
    p = PlanarPoint(ctx.mpf(fx) / 1000 * half, ctx.mpf(fy) / 1000 * half)
    back = step(params, step(params, p), reverse=True)
    assert abs(back.x - p.x) <= ctx.tol(10)
    assert abs(back.y - p.y) <= ctx.tol(10)


def test_kahan_fold_pole(ctx):
    params = SystemParams.create(ctx, "1", "0.25")
    x_pole = (1 + params.h**2 * params.epsilon / 4) / params.h
    with pytest.raises(PoleError):
        kahan_step_fold(params, PlanarPoint(x_pole, ctx.mpf(0)))


def test_kahan_general_constant_field(ctx):
    zero = ctx.mpf(0)
    one = ctx.mpf(1)
    field = QuadraticField(
        q1=(zero, zero, zero), q2=(zero, zero, zero),
        b=((zero, zero), (zero, zero)), c=(one, zero),
    )
    p = kahan_step_general(field, ctx.mpf("0.1"), PlanarPoint(ctx.mpf(2), ctx.mpf(3)))
    assert abs(p.x - ctx.mpf("2.1")) < ctx.tol(8)
    assert p.y == 3


def test_kahan_general_matches_transcritical(ctx, params):
    field = QuadraticField.transcritical(ctx, params.epsilon)
    rng = random.Random(3)
    for _ in range(20):
        p = PlanarPoint(ctx.mpf(rng.uniform(-2, 2)), ctx.mpf(rng.uniform(-2, 2)))
        a = kahan_step_transcritical(params, p)
        b = kahan_step_general(field, params.h, p)
        assert abs(a.x - b.x) < ctx.tol(10)
        assert abs(a.y - b.y) < ctx.tol(10)


def test_kahan_general_matches_fold(ctx):
    params = SystemParams.create(ctx, "0.01", "0.05")
    field = QuadraticField.fold(ctx, params.epsilon)
    p = PlanarPoint(ctx.mpf("0.3"), ctx.mpf("0.2"))
    a = kahan_step_fold(params, p)
    b = kahan_step_general(field, params.h, p)
    assert abs(a.x - b.x) < ctx.tol(10)
    assert abs(a.y - b.y) < ctx.tol(10)


# -- implicit pitchfork family ---------------------------------------------------


def test_afamily_canard_branch(ctx, params):
    for a_txt in ("-0.5", "0", "0.5", "3"):
        res = a_family_step_pitchfork(ctx.mpf(a_txt), params, PlanarPoint(ctx.mpf(0), ctx.mpf(-2)))
        assert res.point.x == 0
        assert abs(res.point.y - (-2 + params.epsilon * params.h)) < ctx.tol(8)
        assert res.branch_info.method == "canard"


def test_afamily_trapezoid_example(ctx, params):
    res = a_family_step_pitchfork(ctx.mpf("0.5"), params, PlanarPoint(ctx.mpf(0), ctx.mpf(-1)))
    assert res.point.x == 0
    assert abs(res.point.y - ctx.mpf("-0.999")) < ctx.tol(5)


def test_afamily_midpoint_residual(ctx):
    params = SystemParams.create(ctx, "0.01", "0.01")
    res = a_family_step_pitchfork(ctx.mpf(0), params, PlanarPoint(ctx.mpf("0.1"), ctx.mpf(-1)))
    assert abs(res.branch_info.residual) < ctx.tol(10)
    # root stays near the Euler predictor
    predictor = ctx.mpf("0.1") + params.h * ctx.mpf("0.1") * (-1 - ctx.mpf("0.01"))
    assert abs(res.point.x - predictor) < ctx.mpf("0.01")


def test_afamily_time_reversibility(ctx, params):
    rng = random.Random(5)
    for a_txt in ("-0.5", "0", "0.5"):
        a = ctx.mpf(a_txt)
        for _ in range(10):
            p = PlanarPoint(ctx.mpf(rng.uniform(-1, 1)), ctx.mpf(rng.uniform(-2, 1)))
            fwd = a_family_step_pitchfork(a, params, p).point
            back = a_family_step_pitchfork(a, params, fwd, reverse=True).point
            assert abs(back.x - p.x) < ctx.tol(10)
            assert abs(back.y - p.y) < ctx.tol(10)


def test_afamily_kahan_off_axis_branches(ctx, params):
    """From x=0 the Kahan relation also has the two square-root branches."""
    y = ctx.mpf(-1)
    val = (4 - 2 * params.h * y) / params.h
    root = ctx.sqrt(val)
    # the returned branch is the canard, but the off-axis roots solve the relation
    from canardlab.rounding import scaler
    from canardlab.schemes import _afamily_residual_pair, _half_sum

    prec = ctx.prec
    yn = y + params.epsilon * params.h
    a, b, h, x, y, yn = (split(ctx.mpf(v)._mpf_) for v in ("-0.5", 2, params.h, 0, y, yn))
    a, b, h = (scaler(v, prec) for v in (a, b, h))
    my = _half_sum(y, yn, prec)
    for sign in (-1, 1):
        xn = split((sign * root)._mpf_)
        # a f(x, y) = 0 at x = 0
        r = _afamily_residual_pair(a, b, h, x, (0, 0), my, yn, xn, _half_sum(x, xn, prec), prec)
        # roots of the eps-free relation; residual is O(eps h^2)
        assert abs(ctx.make_mpf(pack(r))) < ctx.mpf("1e-3")


# -- iteration -------------------------------------------------------------------


def test_iterate_diagonal(ctx, params):
    p = PlanarPoint(ctx.mpf(-1), ctx.mpf(-1))
    for k in range(1, 4):
        p = rk_step(EULER, T, params, p)
        assert abs(p.x - (-1 + k * ctx.mpf("0.001"))) < ctx.tol(5)
        assert p.x == p.y


def test_iterate_pole_index(ctx):
    # the classification loop attaches the index of the step that hit the pole
    params = SystemParams.create(ctx, "0.01", "0.125")
    start = PlanarPoint(ctx.mpf(8), ctx.mpf(0))
    with pytest.raises(PoleError) as err:
        classify_jump(T, KAHAN, params, "1", "1e-4", max_n=5, track_deviation=False, start=start)
    assert err.value.index == 1


def test_iterate_kahan_fold_stays_on_parabola(ctx, params):
    from canardlab import fold_kahan_parabola_offset

    off = fold_kahan_parabola_offset(params)
    p = PlanarPoint(ctx.mpf("-0.2"), ctx.mpf("0.04") - off)
    for _ in range(100):
        p = kahan_step_fold(params, p)
        assert abs(p.y - (p.x * p.x - off)) < ctx.tol(10)
