"""Per-layer timings at high precision, on pytest-benchmark's fixture.

pyproject's addopts pass --benchmark-disable, so the plain suite runs each
body once, as a smoke test that also checks its result.  To time them and
keep the run under .benchmarks/:

    PYTHONPATH=src python -m pytest tests/test_layer_timings.py \\
        --benchmark-enable --benchmark-save=NAME

A product by h = 0.1 against a full-width operand, through rounding.scaler
and through the plain mul, at 200, 1000 and 5000 digits (the scaler takes
the small-rational identity from about 1000 bits, SCALER_MIN_BITS); and one
forward-Euler pitchfork step at 5000 digits, the step of the deep simulate
orbit whose deviation falls below 1e-1054.
"""

import pytest

from canardlab import PlanarPoint, SingularityKind, SystemParams, euler_step, make_context
from canardlab.rounding import mul, pack, scaler, split
from canardlab.schemes import euler_kernel


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
