"""Every one-step map runs on mantissa pairs, bit for bit as its mpf oracle.

The raw explicit-RK and Kahan maps were the last to step through mpf
scalars.  Their pair kernels (rk_kernel, kahan_transcritical_kernel,
kahan_fold_kernel) and the public steppers wrapping them must give the
``_mpf_`` tuples, and the PoleErrors, of the plain-mpf bodies kept in
mpf_oracles, on single steps and along 3,000-step orbits; an infinite or
NaN coordinate raises ValueError.  A guard runs 200 steps of every
SchemeMap.step the command line can build with mpf construction disabled
and calls into mpmath recorded, so no step can quietly go back to mpf
scalars.
"""

import os
import sys
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpf_oracles as ref
from canardlab import (
    HEUN3,
    KUTTA3,
    SHIPPED_TABLEAUX,
    PlanarPoint,
    PoleError,
    SingularityKind,
    SystemParams,
    fold_kahan_parabola_offset,
    kahan_step_fold,
    kahan_step_transcritical,
    make_context,
    rk_step,
)
from canardlab.linearization import CANARDS, scheme_map
from canardlab.precision import PrecisionContext
from canardlab.rounding import pack, split
from canardlab.schemes import kahan_fold_kernel, kahan_transcritical_kernel, rk_kernel

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD

CONTEXTS = {d: make_context(d) for d in (16, 50, 200)}

# id -> (public stepper, its mpf oracle), each called as f(params, p)
STEPPERS = {f"rk-{tab.name}-{kind.value}": (partial(rk_step, tab, kind), partial(ref.rk_step, tab, kind))
            for tab in SHIPPED_TABLEAUX.values() for kind in (T, P)}
for reverse, way in ((False, "forward"), (True, "reverse")):
    STEPPERS[f"kahan-transcritical-{way}"] = (partial(kahan_step_transcritical, reverse=reverse),
                                              partial(ref.kahan_step_transcritical, reverse=reverse))
    STEPPERS[f"kahan-fold-{way}"] = (partial(kahan_step_fold, reverse=reverse),
                                     partial(ref.kahan_step_fold, reverse=reverse))


def _outcome(stepper, params, p):
    """The stepper's point as ``_mpf_`` tuples, or its PoleError's message."""
    try:
        q = stepper(params, p)
    except PoleError as err:
        return "pole", str(err)
    return q.x._mpf_, q.y._mpf_


def _on_canard(name, params, x):
    """The canard point at x of the stepper's kind."""
    if "transcritical" in name:
        return PlanarPoint(x, x)
    if "pitchfork" in name:
        return PlanarPoint(params.ctx.mpf(0), x)
    return PlanarPoint(x, x * x - fold_kahan_parabola_offset(params))


def _halfway(v, prec):
    """The ``_mpf_`` tuple halfway between v (prec bits) and its neighbour away from 0."""
    m, e = split(v._mpf_)
    n = prec - abs(m).bit_length()
    return pack((2 * (m << n) + (-1 if m < 0 else 1), e - n - 1))


coordinate = st.fractions(-50, 50, max_denominator=10**6)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(STEPPERS)),
    digits=st.sampled_from(sorted(CONTEXTS)),
    point_digits=st.sampled_from(sorted(CONTEXTS)),
    h=st.fractions(Fraction(1, 1000), 2, max_denominator=1000).filter(lambda v: v > 0),
    eps=st.one_of(st.just(Fraction(0)), st.fractions(0, 2, max_denominator=1000)),
    x=coordinate,
    y=coordinate,
    canard=st.booleans(),
    halfway=st.booleans(),
)
# exact poles x = 1/h (transcritical), x = (1 + h^2 eps/4)/h (fold) and their reverses
@example(name="kahan-transcritical-forward", digits=16, point_digits=16, h=Fraction(1, 8),
         eps=Fraction(1, 100), x=Fraction(8), y=Fraction(0), canard=False, halfway=False)
@example(name="kahan-transcritical-reverse", digits=50, point_digits=50, h=Fraction(1, 8),
         eps=Fraction(1, 100), x=Fraction(-8), y=Fraction(1), canard=False, halfway=False)
@example(name="kahan-fold-forward", digits=200, point_digits=200, h=Fraction(1, 8),
         eps=Fraction(0), x=Fraction(8), y=Fraction(3), canard=False, halfway=False)
@example(name="kahan-fold-reverse", digits=16, point_digits=16, h=Fraction(1, 8),
         eps=Fraction(0), x=Fraction(-8), y=Fraction(3), canard=True, halfway=False)
@example(name="kahan-fold-forward", digits=50, point_digits=50, h=Fraction(1, 2),
         eps=Fraction(4), x=Fraction(5, 2), y=Fraction(0), canard=False, halfway=False)
# a stage whose first a_ij is 0 rounds its start point before adding the next product
@example(name="rk-ralston3-pitchfork", digits=16, point_digits=16, h=Fraction(13, 25),
         eps=Fraction(849, 1000), x=Fraction(60179101385876316, 2**56),
         y=Fraction(57198619026959123, 2**52), canard=False, halfway=True)
def test_steppers_match_mpf_oracles(name, digits, point_digits, h, eps, x, y, canard, halfway):
    """Public steppers equal the mpf oracles, on and off the canard.  The point is
    rounded at point_digits and held unrounded by the map's context, so a
    coordinate can be wider than the precision every operation rounds to; a
    halfway coordinate lies exactly between two neighbours at that precision."""
    stepper, oracle = STEPPERS[name]
    ctx, pctx = CONTEXTS[digits], CONTEXTS[point_digits]
    params = SystemParams.create(ctx, ctx.mpf(eps), ctx.mpf(h))
    x_s = pctx.mpf(x)
    p = _on_canard(name, SystemParams.create(pctx, pctx.mpf(eps), pctx.mpf(h)), x_s) if canard \
        else PlanarPoint(x_s, pctx.mpf(y))
    raw = [_halfway(ctx.mpf(v), ctx.prec) if halfway else v._mpf_ for v in p]
    p = PlanarPoint(*(ctx.make_mpf(v) for v in raw))
    assert _outcome(stepper, params, p) == _outcome(oracle, params, p)


# id -> (kernel builder, its mpf oracle, kind)
ORBIT_KERNELS = {f"{tab.name}-{kind.value}": (partial(rk_kernel, tab, kind), partial(ref.rk_step, tab, kind), kind)
                 for tab in (KUTTA3, HEUN3) for kind in (T, P)}
ORBIT_KERNELS["kahan-transcritical"] = (kahan_transcritical_kernel, ref.kahan_step_transcritical, T)
ORBIT_KERNELS["kahan-fold"] = (kahan_fold_kernel, ref.kahan_step_fold, F)


@pytest.mark.parametrize("digits", sorted(CONTEXTS))
@pytest.mark.parametrize("build, oracle, kind", list(ORBIT_KERNELS.values()), ids=list(ORBIT_KERNELS))
def test_kernel_orbits_match_mpf_oracles(build, oracle, kind, digits):
    """3,000 steps from beside the canard at rho = 2 (delta = 1e-3), step by step."""
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, "0.01", "0.1")
    p = CANARDS[kind].start(params, ctx.mpf(2), ctx.mpf("1e-3"))
    step, x, y = build(params), split(p.x._mpf_), split(p.y._mpf_)
    for n in range(3000):
        x, y = step(x, y)
        p = oracle(params, p)
        assert (pack(x), pack(y)) == (p.x._mpf_, p.y._mpf_), f"step {n + 1}"


@pytest.mark.parametrize("coordinate", ["x", "y"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", ["rk-kutta3-transcritical", "rk-kutta3-pitchfork", "rk-euler-pitchfork",
                                  "kahan-transcritical-forward", "kahan-transcritical-reverse",
                                  "kahan-fold-forward", "kahan-fold-reverse"])
def test_non_finite_coordinates_raise(ctx, params, name, value, coordinate):
    """An infinite or NaN coordinate has no mantissa pair: ValueError, not an inf/nan point."""
    bad, one = ctx.mpf(value), ctx.mpf("0.5")
    p = PlanarPoint(bad, one) if coordinate == "x" else PlanarPoint(one, bad)
    with pytest.raises(ValueError, match="no mantissa pair for an infinity or NaN"):
        STEPPERS[name][0](params, p)


MPMATH = os.path.dirname(mpmath.__file__)


@pytest.mark.parametrize("digits", [16, 50])
@pytest.mark.parametrize("kind, scheme", [m[1:] for m in ref.STEP_MAPS], ids=[m[0] for m in ref.STEP_MAPS])
def test_scheme_map_steps_build_no_mpf(monkeypatch, kind, scheme, digits):
    """Once scheme_map has built a map, 200 of its steps construct no mpf scalar
    and call no mpmath function (mpf arithmetic included), from beside the canard."""
    ctx = make_context(digits)
    params = SystemParams.create(ctx, "0.01", "0.1")
    step = scheme_map(kind, ref.selector(scheme, ctx), params, canard=False).step
    p = CANARDS[kind].start(params, ctx.mpf(1), ctx.mpf("1e-3"))
    x, y = split(p.x._mpf_), split(p.y._mpf_)
    mpmath_calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("a one-step map built an mpf scalar")

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(MPMATH):
            mpmath_calls.append(frame.f_code.co_name)

    monkeypatch.setattr(PrecisionContext, "make_mpf", refuse)
    monkeypatch.setattr(PrecisionContext, "mpf", refuse)
    sys.setprofile(watch)
    try:
        for _ in range(200):
            x, y = step(x, y)
    finally:
        sys.setprofile(None)
    monkeypatch.undo()
    assert not mpmath_calls, f"a one-step map called mpmath: {sorted(set(mpmath_calls))}"
    assert ctx.isfinite(ctx.make_mpf(pack(x))) and ctx.isfinite(ctx.make_mpf(pack(y)))
