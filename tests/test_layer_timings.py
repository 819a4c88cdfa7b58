"""Per-layer timings at high precision, on pytest-benchmark's fixture.

pyproject's addopts pass --benchmark-disable, so the plain suite runs each
body once, as a smoke test that also checks its result.  To time them and
keep the run under .benchmarks/:

    PYTHONPATH=src python -m pytest tests/test_layer_timings.py \\
        --benchmark-enable --benchmark-save=NAME

A product by h = 0.1 against a full-width operand, through rounding.scaler
and through the plain mul, at 200, 1000 and 5000 digits (the scaler takes
the small-rational identity from about 1000 bits, SCALER_MIN_BITS); one
forward-Euler pitchfork step at 5000 digits, the step of the deep simulate
orbit whose deviation falls below 1e-1054; and one step of every
SchemeMap.step the command line builds (mpf_oracles.STEP_MAPS) at 16, 50
and 200 digits, from beside the canard at rho = 1, checked against its mpf
oracle; and one linearized critical step (Kutta3 at rho = 8, eps = 1, a cell
of the README surfaces grid) at 16, 50 and 200 digits, checked to be the
root of its critical polynomial rounded to nearest; and one CSV value, a
mantissa pair printed with 30 digits as simulate's rows print it, at 16, 50
and 200 digits, checked against mpmath's nstr; and, at 200 digits, one
evaluation of the sign lock's enclosure of the deviation step's u'/u - 1 for
forward Euler, Kutta3 and Kahan, checked to hold the kernel's exact ratio,
and one sign-lock proof, the one that stops the full orbit of README row 5's
h_hi end (Kutta3, rho = 8, eps = 0.01) at step 32; and the first 2,000 steps
of the sticky orbit through simulate (cli.main) at 16 and 50 digits, writing
every row or every 100th.  They are undecided at both precisions (the orbit
glues at step 11,005 at 16 digits), so every step runs in the orbit loop
analysis._iterate, one call per row; and one call of each Kahan multiplier
(SchemeMap.factor, the Moebius kernel of linearization; the pitchfork's is
the implicit family's at a = -1/2) at 16, 50 and 200 digits, checked against
its mpf oracle, and one lattice way-out (transcritical Kahan, N = 40, 81
multiplier steps) at 50 digits.
"""

from fractions import Fraction

import mpmath
import pytest

from canardlab import (EULER, KAHAN, KUTTA3, PlanarPoint, SingularityKind, SystemParams, analysis,
                       linearized_critical_h, make_context, wayout)
from canardlab.cli import main
from canardlab.linearization import CANARDS, scheme_map
from canardlab.rounding import mul, pack, scaler, split, sub
from canardlab.schemes import euler_kernel
from mpf_oracles import STEP_MAPS, assert_nearest_root, euler_step, h_polynomial, oracle, selector
from test_multipliers import _oracle as multiplier_oracle


@pytest.mark.parametrize("how", ["scaler", "mul"])
@pytest.mark.parametrize("digits", [200, 1000, 5000])
def test_product_by_h(benchmark, digits, how):
    ctx = make_context(digits)
    prec = ctx.prec
    h, t = split(ctx.mpf("0.1")._mpf_), split((ctx.sqrt(2) / 3)._mpf_)
    by_h = scaler(h, prec)
    product = by_h if how == "scaler" else lambda t: mul(h, t, prec)
    assert benchmark(product, t) == mul(h, t, prec)


def test_pitchfork_euler_step_at_5000_digits(benchmark):
    ctx = make_context(5000)
    params = SystemParams.create(ctx, "0.00125", "0.1")
    kind = SingularityKind.PITCHFORK
    p = PlanarPoint(ctx.mpf("1e-4") / 3, ctx.mpf(-5))
    xn, yn = benchmark(euler_kernel(kind, params), split(p.x._mpf_), split(p.y._mpf_))
    ref = euler_step(kind, params, p)
    assert (pack(xn), pack(yn)) == (ref.x._mpf_, ref.y._mpf_)


@pytest.mark.parametrize("digits", [16, 50, 200])
@pytest.mark.parametrize("kind, scheme", [m[1:] for m in STEP_MAPS], ids=[m[0] for m in STEP_MAPS])
def test_scheme_map_step(benchmark, kind, scheme, digits):
    ctx = make_context(digits)
    params = SystemParams.create(ctx, "0.01", "0.1")
    step = scheme_map(kind, selector(scheme, ctx), params, canard=False).step
    p = CANARDS[kind].start(params, ctx.mpf(1), ctx.mpf("1e-3"))
    xn, yn = benchmark(step, split(p.x._mpf_), split(p.y._mpf_))
    ref = oracle(kind, scheme, params, p)
    assert (pack(xn), pack(yn)) == (ref.x._mpf_, ref.y._mpf_)


@pytest.mark.parametrize("digits", [16, 50, 200])
def test_linearized_critical_h(benchmark, digits):
    ctx = make_context(digits)
    rho, eps = ctx.mpf(8), ctx.mpf(1)
    h = benchmark(linearized_critical_h, KUTTA3, rho, eps, ctx)
    assert_nearest_root(h_polynomial(KUTTA3, ctx, rho, eps), h, ctx.prec)


@pytest.mark.parametrize("digits", [16, 50, 200])
def test_csv_value(benchmark, digits):
    ctx = make_context(digits)
    p = split((-ctx.sqrt(2) / 3 * ctx.mpf("1e-7"))._mpf_)
    text = benchmark(ctx.nstr_pair, p, 30)
    assert text == mpmath.nstr(ctx.make_mpf(pack(p)), 30)


def _exact(p):
    return Fraction(p[0]) * Fraction(2) ** p[1]


@pytest.mark.parametrize("scheme", [EULER, KUTTA3, KAHAN], ids=["euler", "kutta3", "kahan"])
def test_enclosure_evaluation(benchmark, scheme):
    ctx = make_context(200)
    params = SystemParams.create(ctx, "0.01", "0.1001378")
    smap = scheme_map(SingularityKind.TRANSCRITICAL, scheme, params)
    enclosure, _ = smap.deviation_ratio()
    lo, hi = benchmark(enclosure, (-7.9, -7.8), (0.0, 2e-30))
    u, y = (split(ctx.mpf(v)._mpf_) for v in (1e-30, -7.85))  # floats, exact as pairs
    un, _ = smap.deviation_step(u, y)
    assert Fraction(lo) <= _exact(un) / _exact(u) - 1 <= Fraction(hi)


def test_sign_lock_proof(benchmark):
    ctx = make_context(200)
    kind, rho = SingularityKind.TRANSCRITICAL, ctx.mpf(8)
    params = SystemParams.create(ctx, "0.01", "0.100143905319239313606496089876")
    smap = scheme_map(kind, KUTTA3, params)
    p = CANARDS[kind].start(params, rho, ctx.mpf("1e-4"))
    y = split(p.y._mpf_)
    u = sub(split(p.x._mpf_), y, ctx.prec)
    for _ in range(32):
        u, y = smap.deviation_step(u, y)
    max_n = int(10 * ctx.floor(2 * rho / CANARDS[kind].spacing(params)) + 10)
    thr = split((rho / 2)._mpf_)
    assert benchmark(analysis._sign_lock, smap.deviation_ratio, params, u, y, thr, max_n - 32) is None


@pytest.mark.parametrize("stride", [1, 100])
@pytest.mark.parametrize("digits", [16, 50])
def test_simulate_steps(benchmark, tmp_path, digits, stride):
    out = tmp_path / "sticky.csv"
    argv = ["simulate", "--kind", "transcritical", "--scheme", "euler", "--h", "1e-3",
            "--eps", "1e-2", "--x0=-1", "--y0=-0.9999", "--n-max", "2000", "--stride", str(stride),
            "--digits", str(digits), "--out", str(out)]
    assert benchmark(main, argv) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2 + 2000 // stride + 1
    assert rows[-1].endswith(f"digits={digits} n=2000 jump=stuck")


@pytest.mark.parametrize("digits", [16, 50, 200])
@pytest.mark.parametrize("kind", list(SingularityKind), ids=lambda kind: kind.value)
def test_multiplier_call(benchmark, kind, digits):
    ctx = make_context(digits)
    params = SystemParams.create(ctx, "0.01", "0.1")
    s = -ctx.sqrt(2) / 3
    factor = scheme_map(kind, KAHAN, params).factor
    f = benchmark(factor, split(s._mpf_))
    assert pack(f) == multiplier_oracle(kind, KAHAN, params)(s)._mpf_


def test_wayout_call(benchmark):
    ctx = make_context(50)
    params = SystemParams.create(ctx, "0.01", "0.1")
    kind = SingularityKind.TRANSCRITICAL
    canard = CANARDS[kind]
    rho = 40 * canard.spacing(params) - canard.center(params)
    res = benchmark(wayout, kind, KAHAN, params, rho)
    assert res.n_in == res.psi == 40
