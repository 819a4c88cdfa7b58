import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canardlab import (
    AFamily,
    EULER,
    HEUN2,
    KAHAN,
    KUTTA3,
    SHIPPED_TABLEAUX,
    PoleError,
    SingularityKind,
    SystemParams,
    contraction_product,
    finite_difference_factor,
    jacobian_factor,
    q_s,
    q_s_pitchfork,
    symmetry_center,
    symmetry_defect,
    variational_matrix,
)
from canardlab.linearization import canard_spacing

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD


# -- stage-derivative recursion ---------------------------------------------------


def test_qs_euler_is_twice_position(ctx, params):
    rho = ctx.mpf(4)
    assert q_s(EULER, params, -rho) == -2 * rho


def test_qs_heun2_hand_expansion(ctx):
    params = SystemParams.create(ctx, "0", "0.1")
    for x_txt in ("-2", "-0.5", "0.7"):
        x = ctx.mpf(x_txt)
        expected = 2 * x * (1 + params.h * x)
        assert abs(q_s(HEUN2, params, x) - expected) < ctx.tol(8)


def test_qs_vanishes_at_origin_for_layer_problem(ctx):
    params = SystemParams.create(ctx, "0", "0.1")
    for tab in SHIPPED_TABLEAUX.values():
        assert q_s(tab, params, ctx.mpf(0)) == 0


def test_qs_pitchfork_euler(ctx, params):
    y = ctx.mpf("-3")
    assert q_s_pitchfork(EULER, params, y) == y
    assert q_s(EULER, params, y, 1) == y


# -- multipliers ------------------------------------------------------------------


def test_unit_multiplier_at_symmetry_centers(ctx, params):
    c = -params.epsilon * params.h / 2
    assert abs(jacobian_factor(T, KAHAN, params, c) - 1) < ctx.tol(5)
    assert abs(jacobian_factor(P, AFamily(ctx.mpf("7.5")), params, c) - 1) < ctx.tol(5)
    assert abs(jacobian_factor(F, KAHAN, params, ctx.mpf(0)) - 1) < ctx.tol(5)


def test_euler_multipliers_are_affine(ctx, params):
    s = ctx.mpf("-0.35")
    assert jacobian_factor(T, EULER, params, s) == 1 + 2 * params.h * s
    assert jacobian_factor(P, EULER, params, s) == 1 + params.h * s


def test_rk_multiplier_uses_stage_recursion(ctx, params):
    s = ctx.mpf("-0.8")
    assert jacobian_factor(T, KUTTA3, params, s) == 1 + params.h * q_s(KUTTA3, params, s)


def test_unsupported_combinations_rejected(ctx, params):
    with pytest.raises(ValueError):
        jacobian_factor(F, EULER, params, ctx.mpf(0))
    with pytest.raises(ValueError):
        jacobian_factor(T, AFamily(ctx.mpf(0)), params, ctx.mpf(0))


def test_kahan_multiplier_pole(ctx):
    params = SystemParams.create(ctx, "0.01", "0.125")
    with pytest.raises(PoleError):
        jacobian_factor(T, KAHAN, params, ctx.mpf(8))


def test_multipliers_strictly_increasing(ctx, params):
    grid = [ctx.mpf(i) / 8 - 2 for i in range(33)]  # [-2, 2]
    cases = [
        (T, EULER),
        (T, KAHAN),
        (P, AFamily(ctx.mpf("-0.5"))),
        (F, KAHAN),
    ]
    for kind, scheme in cases:
        vals = [jacobian_factor(kind, scheme, params, s) for s in grid]
        assert all(b > a for a, b in zip(vals, vals[1:])), (kind, scheme)


def test_afamily_stability_reversal(ctx, params):
    # near the critical a the multiplier's pole sits at y ~ 0; sample below it
    a_crit = 2 / (params.h**2 * params.epsilon)
    grid = [-2 + ctx.mpf(i) * 3 / 64 for i in range(33)]  # [-2, -0.5]
    below = [jacobian_factor(P, AFamily(a_crit - 100), params, y) for y in grid]
    at = [jacobian_factor(P, AFamily(a_crit), params, y) for y in grid]
    above = [jacobian_factor(P, AFamily(a_crit + 100), params, y) for y in grid]
    assert all(b > a for a, b in zip(below, below[1:]))
    assert all(abs(v - at[0]) < ctx.tol(10) for v in at)  # constant at the critical a
    assert all(b < a for a, b in zip(above, above[1:]))


# -- variational structure ---------------------------------------------------------


def test_transcritical_eigenvector(ctx, params):
    for scheme in (EULER, KUTTA3, KAHAN):
        m = variational_matrix(T, scheme, params, ctx.mpf("-0.6"))
        # (1, 1) is fixed
        vx = m[0][0] + m[0][1]
        vy = m[1][0] + m[1][1]
        assert abs(vx - 1) < ctx.tol(8)
        assert abs(vy - 1) < ctx.tol(8)


def test_pitchfork_eigenvector(ctx, params):
    for scheme in (EULER, AFamily(ctx.mpf("0.5"))):
        m = variational_matrix(P, scheme, params, ctx.mpf("-0.6"))
        assert m[0][1] == 0 and m[1][0] == 0 and m[1][1] == 1


def test_fold_variational_transversal_entry(ctx, params):
    s = ctx.mpf("0.4")
    m = variational_matrix(F, KAHAN, params, s)
    assert m[0][0] == jacobian_factor(F, KAHAN, params, s)


# -- accumulated products ----------------------------------------------------------


def test_contraction_single_factor(ctx, params):
    ledger = contraction_product(T, EULER, params, ctx.mpf("0.2"), 0)
    assert abs(ledger.running_product[0] - ctx.mpf("0.96")) < ctx.tol(8)
    assert len(ledger.factors) == 1


def test_contraction_lattice_symmetry_transcritical(ctx, params):
    n_lat = 12
    eh = params.epsilon * params.h
    rho = eh * n_lat + eh / 2
    ledger = contraction_product(T, KAHAN, params, rho, 2 * n_lat)
    assert abs(ledger.running_product[2 * n_lat] - 1) < ctx.tol(12)


def test_contraction_lattice_symmetry_fold(ctx, params):
    n_lat = 12
    rho = params.epsilon * params.h * n_lat / 2
    ledger = contraction_product(F, KAHAN, params, rho, 2 * n_lat)
    assert abs(ledger.running_product[2 * n_lat] - 1) < ctx.tol(12)


def test_ledger_csv_log_column(tmp_path, ctx, params):
    ledger = contraction_product(T, EULER, params, ctx.mpf("0.3"), 20)
    path = tmp_path / "ledger.csv"
    ledger.write_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    bar = ctx.mpf("1e-28")  # the column is printed to 30 digits
    for k in (0, 7, 20):
        logged = ctx.mpf(rows[k][3])
        log_sum = sum(ctx.ln(abs(f)) for f in ledger.factors[: k + 1])
        assert abs(logged - log_sum) <= bar * max(1, abs(log_sum))
        direct = abs(ledger.running_product[k])
        assert abs(ctx.exp(logged) - direct) <= bar * direct


def test_contraction_pole_carries_index(ctx):
    params = SystemParams.create(ctx, "1", "0.25")
    with pytest.raises(PoleError) as err:
        contraction_product(T, KAHAN, params, ctx.mpf(1), 25)
    assert err.value.index == 20  # position -1 + 0.25*k hits the pole x = 4 at k = 20


def test_product_symmetry_vstar(ctx, params):
    """v*(-m) v*(m) = 1 along the special canard for the Kahan maps."""
    for kind in (T, F):
        c = symmetry_center(kind, params)
        spacing = canard_spacing(kind, params)
        for m in (1, 5, 20):
            prod = ctx.mpf(1)
            for k in range(-m, m + 1):
                prod *= jacobian_factor(kind, KAHAN, params, c + k * spacing)
            # the center factor J(c) = 1 is counted once; pairs cancel exactly
            assert abs(prod - 1) < ctx.tol(12)


def test_ledger_csv_export(tmp_path, ctx, params):
    ledger = contraction_product(T, EULER, params, ctx.mpf("0.2"), 5)
    path = tmp_path / "ledger.csv"
    ledger.write_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "s_pos", "factor", "log_running_product"]
    assert len(rows) == 7
    assert rows[1][0] == "0"


# -- pairing identity ---------------------------------------------------------------


def test_symmetry_defect_grids(ctx, params):
    cases = [
        (T, KAHAN),
        (F, KAHAN),
        (P, AFamily(ctx.mpf("-0.5"))),
        (P, AFamily(ctx.mpf(0))),
        (P, AFamily(ctx.mpf("0.5"))),
    ]
    for kind, scheme in cases:
        c = symmetry_center(kind, params)
        for i in range(1, 101):
            d = ctx.mpf(i) / 20  # up to 5, well inside the pole radius
            assert symmetry_defect(kind, scheme, params, c + d) <= ctx.tol(10)


def test_symmetry_defect_zero_at_center(ctx, params):
    assert symmetry_defect(T, KAHAN, params, -params.epsilon * params.h / 2) < ctx.tol(5)


def _pole_distance(kind, params, a):
    """Distance from the symmetry center to the pole of the pair's multiplier."""
    h, eps = params.h, params.epsilon
    if kind is T:
        return 1 / h + eps * h / 2  # pole at x = 1/h
    if kind is F:
        return (1 + h * h * eps / 4) / h
    return 2 / h - h * a * eps  # implicit family, pole where 1 - hy/2 = h^2 (1+2a) eps/4


def _milli(lo, hi):
    return st.builds(lambda k: f"{k}e-3", st.integers(lo, hi))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from([T, F, P]), h=_milli(1, 500), eps=_milli(1, 1000),
       a=_milli(-1000, 1000), frac=st.integers(-999, 999))
def test_pairing_identity_property(ctx, kind, h, eps, a, frac):
    params = SystemParams.create(ctx, eps, h)
    a = ctx.mpf(a)
    scheme = AFamily(a) if kind is P else KAHAN
    d = ctx.mpf(frac) / 1000 * _pole_distance(kind, params, a) / 2
    assert symmetry_defect(kind, scheme, params, symmetry_center(kind, params) + d) <= ctx.tol(10)


# -- finite differences --------------------------------------------------------------


def test_finite_difference_agreement(ctx, params):
    delta = ctx.mpf("1e-25")
    cases = [
        (T, EULER),
        (T, KUTTA3),
        (T, KAHAN),
        (P, EULER),
        (P, KUTTA3),
        (P, AFamily(ctx.mpf("-0.5"))),
        (F, KAHAN),
    ]
    for kind, scheme in cases:
        for s_txt in ("-0.8", "0.3"):
            s = ctx.mpf(s_txt)
            jac = jacobian_factor(kind, scheme, params, s)
            fd = finite_difference_factor(kind, scheme, params, s, delta)
            assert abs(fd - jac) <= ctx.mpf("1e-20") * abs(jac), (kind, scheme, s_txt)
