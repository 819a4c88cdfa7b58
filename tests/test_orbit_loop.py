"""The one orbit loop, analysis._iterate, and simulate's rows on top of it.

_iterate runs an orbit in chunks: a full run whose budget ends undecided
returns label None, and the caller may go on from there.  So a run split at
any step k, the first call's state passed to the second with n = k, must end
exactly as one call does: same label, step, point and deviation, or the same
pole at the same iterate.  This is checked on every raw one-step map the
command line builds (mpf_oracles.STEP_MAPS) and on the transcritical
deviation maps of every scheme, with inputs drawn as in test_sign_lock.

simulate calls _iterate once per --stride row, then steps plainly to its box.
Its rows at stride s must be the stride-1 rows at multiples of s plus the row
it stopped at, with the same footer, or the same pole on stderr.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canardlab import KAHAN, SHIPPED_TABLEAUX, SingularityKind, SystemParams, make_context
from canardlab.analysis import _iterate
from canardlab.cli import main
from canardlab.linearization import CANARDS, _exact_zero, scheme_map
from canardlab.rounding import abs_le, split
from canardlab.schemes import NoRealBranch, PoleError
from mpf_oracles import STEP_MAPS, selector

T = SingularityKind.TRANSCRITICAL
CONTEXTS = {d: make_context(d) for d in (16, 30, 200)}
SCHEMES = [KAHAN] + [SHIPPED_TABLEAUX[name] for name in sorted(SHIPPED_TABLEAUX)]
# (raw one-step map?, kind, scheme): every raw map, and every transcritical deviation map
ORBITS = [(True, kind, scheme) for _, kind, scheme in STEP_MAPS] + [
    (False, T, scheme) for scheme in SCHEMES
]


def _run(*args, **kwargs):
    """_iterate's (label, steps, x, y, u), or the error it raised with its iterate index."""
    try:
        return _iterate(*args, **kwargs)[:5]
    except (PoleError, NoRealBranch) as err:
        return type(err).__name__, str(err), getattr(err, "index", None)


@settings(max_examples=300, deadline=None)
@given(
    orbit=st.sampled_from(ORBITS),
    digits=st.sampled_from(sorted(CONTEXTS)),
    rho=st.sampled_from(["0.5", "2", "5", "8"]),
    eps=st.sampled_from(["0.01", "0.125", "0.2", "1"]),
    h=st.sampled_from(["0.01", "0.1", "0.1001378", "0.25", "0.5"]),
    delta=st.sampled_from(["0", "1e-2", "1e-8", "1e-15", "1e-80", "-1e-2", "-1e-8", "-1e-15"]),
    budget=st.integers(1, 400),
    cut=st.floats(0, 1),
)
# the Kahan deviation orbit from 1e-15 beside the canard at 16 digits hits its pole at
# step 9, after a cut at step 6 and before one at step 18
@example(orbit=(False, T, KAHAN), digits=16, rho="2", eps="1", h="0.5", delta="1e-15",
         budget=20, cut=0.3)
@example(orbit=(False, T, KAHAN), digits=16, rho="2", eps="1", h="0.5", delta="1e-15",
         budget=20, cut=0.9)
# the a = 1/2 orbit at 200 digits reaches the multiplier's pole y = B/g = 3.9375 with
# x near 1e-162 at step 191; Newton's slope is 0 there, and the cubic's root finder does
# not converge, which raises NoRealBranch
@example(orbit=(True, SingularityKind.PITCHFORK, Fraction(1, 2)), digits=200, rho="8",
         eps="0.125", h="0.5", delta="1e-2", budget=192, cut=0.0)
def test_a_run_split_at_any_step_is_one_run(orbit, digits, rho, eps, h, delta, budget, cut):
    raw, kind, scheme = orbit
    ctx = CONTEXTS[digits]
    params = SystemParams.create(ctx, eps, h)
    smap = scheme_map(kind, selector(scheme, ctx), params, canard=not raw)
    canard = CANARDS[kind]
    start = canard.start(params, ctx.mpf(rho), ctx.mpf(delta))
    x, y = split(start.x._mpf_), split(start.y._mpf_)
    deviation = canard.deviation(params)
    u, _ = deviation(x, y)
    if raw:
        step = smap.step
    else:
        step, x, deviation = smap.deviation_step, u, _exact_zero
    orbit = (step, deviation, x, y, u, u[0] > 0, split((ctx.mpf(rho) / 2)._mpf_))

    whole = _run(*orbit, budget)
    k = int(cut * budget)
    first = _run(*orbit, k)
    if first[0] is None:  # undecided at step k: the second call goes on from there
        assert first[1] == k
        state = first[2:]
        assert _run(*orbit[:2], *state, *orbit[5:], budget, n=k) == whole
    else:
        assert first == whole
    if whole[0] is None:  # the budget ended undecided
        label, n, x, y, u = whole
        assert n == budget and not abs_le(orbit[-1], u) and not deviation(x, y)[1]


# one orbit of each kind of end; each must end the same way at every stride
STRIDE_CASES = {
    "right-box": ["--h", "0.1", "--eps", "1", "--rho", "5", "--delta", "1e-4", "--n-max", "700"],
    "left-box": ["--h", "0.105", "--eps", "1", "--rho", "5", "--delta", "1e-4", "--n-max", "700"],
    # stuck by the glue rule at 16 digits and stopped at the box; at 50 digits it leaves the
    # box undecided (step 500) and detaches at step 683
    "stuck-box": ["--h", "0.01", "--eps", "1", "--x0=-1", "--y0=-0.99999999999999",
                  "--escape", "0.5", "--n-max", "2000", "--digits", "16"],
    "right-past-box": ["--h", "0.01", "--eps", "1", "--x0=-1", "--y0=-0.99999999999999",
                       "--escape", "0.5", "--n-max", "2000"],
    "on-canard": ["--h", "0.1", "--eps", "1", "--rho", "5", "--delta", "0", "--n-max", "500"],
    "budget-end": ["--h", "0.1", "--eps", "1", "--rho", "5", "--n-max", "37"],
    # y = k/16 reaches 1/h = 2 at step 32 with u still negligible: the step 33 is a pole
    "kahan-pole": ["--scheme", "kahan", "--h", "0.5", "--eps", "0.125", "--x0=1e-80", "--y0=0",
                   "--n-max", "100", "--digits", "16"],
}


def _simulate(capsys, argv, stride):
    code = main(["simulate", "--kind", "transcritical", *argv, "--stride", str(stride),
                 "--out", "-"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    footer = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines[1:] if not line.startswith("#")]
    return code, rows, footer, err


@pytest.mark.parametrize("case", sorted(STRIDE_CASES))
def test_simulate_rows_at_every_stride(capsys, case):
    argv = STRIDE_CASES[case]
    code, rows, footer, err = _simulate(capsys, argv, 1)
    steps = [int(row.split(",")[0]) for row in rows]
    assert steps == list(range(len(rows)))
    if case == "kahan-pole":
        assert code == 3 and not footer
        assert "(iterate index 33)" in err
    else:
        assert code == 0 and not err
        assert f" n={steps[-1]} jump=" in footer[0]
    for stride in range(2, 51):
        # a pole leaves no stop row: the last stride-1 row is the step before it
        stop = None if code == 3 else steps[-1]
        want = [row for n, row in zip(steps, rows) if n % stride == 0 or n == stop]
        assert _simulate(capsys, argv, stride) == (code, want, footer, err), stride
