"""The four benchmark workloads.

Each ``build_*`` function takes the freshly imported ``canardlab`` package,
the workload seed and a scratch directory, and returns the operations of
one round.  An operation's ``run`` is what the round times: a
``canardlab.cli.main(argv)`` call where the README gives a command,
otherwise a call of a public library function.  Its ``judge`` runs after
timing has ended and raises ``checks.Failed`` or ``checks.Wrong``.

Functions are looked up on the package and ``cli`` modules at call time, so
a traced run sees every call the workload makes.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Callable

import checks
from checks import expect


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], None]
    outputs: tuple = ()  # files under the scratch directory read after the round


@dataclass
class CliOutcome:
    code: int
    stderr: str
    files: dict = field(default_factory=dict)


def cli_op(pkg, name, argvs, outputs, judge) -> Op:
    """Operation that runs one or more CLI commands in-process, in order."""
    def run():
        err = io.StringIO()
        code = 0
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            for argv in argvs:
                code = pkg.cli.main(argv)
                if code != 0:
                    break
        return CliOutcome(code, err.getvalue())

    return Op(name, run, judge, tuple(outputs))


def seeded_order(ops: list, seed: int) -> list:
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sticky: raw-coordinate orbits across the precision ladder
# ---------------------------------------------------------------------------

# the README sticky-diagonal pair, shortened from h = 1e-4 to h = 1e-3 (the
# iteration budget and output stride scale with it); the artifact is kept:
# stuck at 16 digits, resolved at 50
STICKY = dict(h="1e-3", eps="1e-2", x0="-1", y0="-0.9999", n_max=250_000, stride=100)
# forward-Euler pitchfork orbit whose deviation falls below 1e-1054 before its
# only output row after row 0; 5000 digits is the sweep/bisect default
DEEP = dict(h="0.1", eps="0.00125", rho="5", delta="1e-4", n_max=3800, digits=5000)


def _sticky_exit() -> float:
    s = STICKY
    return checks.continuous_exit(
        float(s["y0"]), float(s["x0"]) - float(s["y0"]), 0.5, float(s["eps"])
    )


def build_sticky(pkg, seed: int, tmp) -> list:
    kind = pkg.SingularityKind.TRANSCRITICAL
    rho = -float(STICKY["x0"])
    ops = []
    for digits, label in ((16, "stuck"), (50, "right")):
        params = pkg.SystemParams.create(pkg.make_context(digits), STICKY["eps"], STICKY["h"])

        def run(params=params):
            return pkg.classify_jump(kind, pkg.EULER, params, "1", "1e-4", track_deviation=False)

        def judge(res, digits=digits, label=label):
            expect(res.label.value == label, f"classify d{digits}: {res.label.value}, want {label}")
            if label == "right":
                checks.check_exit(float(res.point.y), rho, _sticky_exit(), f"classify d{digits}")

        ops.append(Op(f"classify_jump.raw.d{digits}", run, judge))

    for digits, label in ((16, "stuck"), (50, "right")):
        out = f"sticky{digits}.csv"
        argv = [
            "simulate", "--kind", "transcritical", "--scheme", "euler",
            "--h", STICKY["h"], "--eps", STICKY["eps"],
            f"--x0={STICKY['x0']}", f"--y0={STICKY['y0']}",
            "--n-max", str(STICKY["n_max"]), "--stride", str(STICKY["stride"]),
            "--digits", str(digits), "--out", str(tmp / out),
        ]

        def judge(outcome, digits=digits, label=label, out=out):
            rows, footer = checks.read_simulate(checks.cli_output(outcome, out))
            expect(footer.get("jump") == label, f"simulate d{digits}: jump={footer.get('jump')}")
            if label == "stuck":
                expect(int(footer["n"]) == STICKY["n_max"], f"simulate d{digits}: stopped early")
                return
            n = checks.detach_step(rows, Decimal("0.5"))
            x, y = next((x, y) for m, x, y in rows if m == n)
            expect(x < y, f"simulate d{digits}: detached to the wrong side")
            checks.check_exit(float(y), rho, _sticky_exit(), f"simulate d{digits}")

        ops.append(cli_op(pkg, f"simulate.d{digits}", [argv], [out], judge))

    out = "deep.csv"
    d = DEEP
    argv = [
        "simulate", "--kind", "pitchfork", "--scheme", "euler", "--h", d["h"],
        "--eps", d["eps"], "--rho", d["rho"], "--delta", d["delta"],
        "--n-max", str(d["n_max"]), "--stride", str(d["n_max"]),
        "--digits", str(d["digits"]), "--out", str(tmp / out),
    ]

    def judge_deep(outcome):
        rows, _ = checks.read_simulate(checks.cli_output(outcome, out))
        expect([r[0] for r in rows] == [0, d["n_max"]], "deep pitchfork: unexpected rows")
        import mpmath

        mp = mpmath.MPContext()
        mp.dps = 30
        ref_log, ref_y = checks.pitchfork_log_deviation(
            d["h"], d["eps"], d["rho"], d["delta"], d["n_max"], mp)
        _, x, y = rows[-1]
        got = mp.log(abs(mp.mpf(str(x))))
        expect(abs(got - ref_log) <= 1e-20,
               f"deep pitchfork: ln|x| = {got}, reference {ref_log}")
        expect(abs(mp.mpf(str(y)) - ref_y) <= 1e-20, f"deep pitchfork: y = {y}")

    ops.append(cli_op(pkg, "simulate.d5000", [argv], [out], judge_deep))
    return seeded_order(ops, seed)


# ---------------------------------------------------------------------------
# bisect: the README critical-step table at 200 digits
# ---------------------------------------------------------------------------

# tableau, rho, eps, bracket (None: scan from the linearized seed), and the
# paper's tabulated leading digits or the boundary the bracket straddles
BISECT_ROWS = (
    ("euler", "5", "1", ("0.103", "0.105"), "104", None),
    ("euler", "50", "1", ("0.0099", "0.010001"), None, "0.01"),
    ("euler", "5", "0.01", ("0.099", "0.100006"), None, "0.1"),
    ("kutta3", "8", "1", None, "100", None),
    ("kutta3", "8", "0.01", None, "100", None),
)


def build_bisect(pkg, seed: int, tmp) -> list:
    ops = []
    for i, (tab, rho, eps, bracket, prefix, boundary) in enumerate(BISECT_ROWS, 1):
        out = f"row{i}.csv"
        argv = ["bisect", "--tableau", tab, "--rho", rho, "--eps", eps]
        if bracket is not None:
            argv += ["--delta", "1e-4", "--h-lo", bracket[0], "--h-hi", bracket[1]]
        argv += ["--digits-target", "4", "--digits", "200", "--out", str(tmp / out)]

        def judge(outcome, out=out, prefix=prefix, boundary=boundary):
            rows = checks.read_table(checks.cli_output(outcome, out))
            expect(len(rows) == 1, f"{out}: {len(rows)} rows")
            checks.check_bracket(rows[0], prefix, boundary)

        ops.append(cli_op(pkg, f"bisect.row{i}", [argv], [out], judge))
    return seeded_order(ops, seed)


# ---------------------------------------------------------------------------
# surfaces: the README linearized critical-step surfaces at 50 digits
# ---------------------------------------------------------------------------

SURFACE_NAMES = ("euler", "kutta3", "heun3", "ralston3", "ssprk3")
RHO_GRID = ("1", "10", 19)
EPS_GRID = ("0.01", "1", 9)


def _grid(lo, hi, steps) -> list:
    lo, hi = Fraction(lo), Fraction(hi)
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _close(text: str, value: Fraction, rel: float) -> bool:
    return abs(Fraction(Decimal(text)) - value) <= Fraction(rel) * abs(value)


def build_surfaces(pkg, seed: int, tmp) -> list:
    argv = [
        "sweep", "--tableau", "surfaces", "--mode", "linearized",
        "--rho-min", RHO_GRID[0], "--rho-max", RHO_GRID[1], "--rho-steps", str(RHO_GRID[2]),
        "--eps-min", EPS_GRID[0], "--eps-max", EPS_GRID[1], "--eps-steps", str(EPS_GRID[2]),
        "--digits", "50", "--out-dir", str(tmp / "surfaces"),
    ]
    outputs = [f"surfaces/surface_{name}.csv" for name in SURFACE_NAMES]
    tableaux = {name: pkg.SHIPPED_TABLEAUX[name] for name in SURFACE_NAMES}

    def judge(outcome):
        import numpy as np

        cells = [(r, e) for r in _grid(*RHO_GRID) for e in _grid(*EPS_GRID)]
        for name, out in zip(SURFACE_NAMES, outputs):
            rows = checks.read_table(checks.cli_output(outcome, out))
            expect(len(rows) == len(cells), f"{out}: {len(rows)} cells, want {len(cells)}")
            tab = tableaux[name]
            for row, (rho, eps) in zip(rows, cells):
                where = f"{name} rho={row['rho']} eps={row['eps']}"
                expect(_close(row["rho"], rho, 1e-25) and _close(row["eps"], eps, 1e-25),
                       f"{where}: cell off the grid")
                if name == "euler":
                    root = Fraction(1) / (2 * rho)
                else:
                    poly = checks.critical_polynomial(tab.alpha, tab.a, rho, eps)
                    root = checks.smallest_positive_root(poly, np)
                if root is None:
                    expect(row["h_star"] == "", f"{where}: h*={row['h_star']} but no root")
                    continue
                expect(row["h_star"] != "", f"{where}: no h* but a root at {float(root)}")
                tol = 1e-25 if name == "euler" else 1e-9
                expect(_close(row["h_star"], Fraction(root), tol),
                       f"{where}: h*={row['h_star']}, smallest positive root {float(root)}")

    return [cli_op(pkg, "sweep.surfaces", [argv], outputs, judge)]


# ---------------------------------------------------------------------------
# symmetry: Kahan and implicit-family way-in/way-out
# ---------------------------------------------------------------------------

LATTICE_COMBOS = (("0.01", "0.01"), ("0.01", "1"), ("0.1", "0.01"), ("0.1", "1"))  # (h, eps)
LATTICE_N = 40  # entries N = 1..LATTICE_N per kind and combo
OFF_LATTICE_N = 40  # entries N + frac, N = 1..OFF_LATTICE_N per kind, frac seeded
AFAMILY = dict(h="0.1", eps="0.01", rho="0.4995", delta="1e-4", n_max=1500)  # N = 499
KAHAN_PAIR = dict(h="0.1", eps="1", rho="5", n_max=300)


def _lattice_index(kind: str, h: str, eps: str, rho: str) -> Fraction:
    eh = Fraction(h) * Fraction(eps)
    if kind == "fold":
        return Fraction(rho) / (eh / 2)
    return (Fraction(rho) - eh / 2) / eh


def _lattice(pkg, kind, eh):
    """Canard spacing and symmetry-center offset: rho = offset + N * spacing."""
    if kind is pkg.SingularityKind.FOLD:
        return eh / 2, 0
    return eh, eh / 2


def _wayout_op(pkg, name, kind, params, rho, n, on_lattice) -> Op:
    def run():
        return pkg.wayout(kind, pkg.KAHAN, params, rho)

    def judge(res):
        expect(res.n_in == n, f"N={res.n_in}, want {n}")
        want = (n,) if on_lattice else (n + 1, n + 2)
        expect(res.psi in want, f"psi={res.psi}, want one of {want}")

    return Op(name, run, judge)


def build_symmetry(pkg, seed: int, tmp) -> list:
    kinds = list(pkg.SingularityKind)
    ctx = pkg.make_context(50)
    ops = []
    for h, eps in LATTICE_COMBOS:
        params = pkg.SystemParams.create(ctx, eps, h)
        eh = params.epsilon * params.h
        for kind in kinds:
            spacing, offset = _lattice(pkg, kind, eh)
            for n in range(1, LATTICE_N + 1):
                ops.append(_wayout_op(pkg, f"wayout.{kind.value}.h{h}.eps{eps}.N{n}",
                                      kind, params, offset + n * spacing, n, True))
    rng = random.Random(seed)
    params = pkg.SystemParams.create(ctx, "0.01", "0.1")
    eh = params.epsilon * params.h
    for kind in kinds:
        spacing, offset = _lattice(pkg, kind, eh)
        for n in range(1, OFF_LATTICE_N + 1):
            frac = ctx.mpf(rng.uniform(0.02, 0.98))
            ops.append(_wayout_op(pkg, f"wayout.{kind.value}.off.N{n}",
                                  kind, params, offset + (n + frac) * spacing, n, False))

    for kind, rho in (("transcritical", "0.0105"), ("fold", "0.01")):
        out = f"wayout_{kind}.csv"
        argv = ["wayout", "--kind", kind, "--scheme", "kahan", "--h", "0.1", "--eps", "0.01",
                "--rho", rho, "--out", str(tmp / out)]
        n = _lattice_index(kind, "0.1", "0.01", rho)

        def judge(outcome, out=out, n=n):
            row = checks.read_table(checks.cli_output(outcome, out))[0]
            expect(Fraction(row["N"]) == n and Fraction(row["psi"]) == n,
                   f"{out}: N={row['N']} psi={row['psi']}, want {n}")

        ops.append(cli_op(pkg, f"cli.wayout.{kind}", [argv], [out], judge))

    k = KAHAN_PAIR
    sides = (("up", "1e-4"), ("down", "-1e-4"))
    outs = [f"kahan_{side}.csv" for side, _ in sides]
    argvs = [
        ["simulate", "--kind", "transcritical", "--scheme", "kahan", "--h", k["h"],
         "--eps", k["eps"], "--rho", k["rho"], f"--delta={delta}", "--n-max", str(k["n_max"]),
         "--digits", "50", "--out", str(tmp / out)]
        for (_, delta), out in zip(sides, outs)
    ]

    def judge_pair(outcome):
        steps = []
        for out in outs:
            rows, footer = checks.read_simulate(checks.cli_output(outcome, out))
            expect(footer.get("jump") == "right", f"{out}: jump={footer.get('jump')}")
            # classification threshold: half the entry scale max(|x0|, |y0|, 1) = rho
            steps.append(checks.detach_step(rows, Decimal(k["rho"]) / 2))
        expect(abs(steps[0] - steps[1]) <= 1, f"kahan up/down detach at steps {steps}")

    ops.append(cli_op(pkg, "cli.simulate.kahan_updown", argvs, outs, judge_pair))

    a = AFAMILY
    n_in = _lattice_index("pitchfork", a["h"], a["eps"], a["rho"])
    for aparam in ("0.5", "0", "-0.5"):
        out = f"afamily_{aparam}.csv"
        argv = ["simulate", "--kind", "pitchfork", "--scheme", "afamily", "--a", aparam,
                "--h", a["h"], "--eps", a["eps"], "--rho", a["rho"], "--delta", a["delta"],
                "--n-max", str(a["n_max"]), "--digits", "50", "--out", str(tmp / out)]

        def judge(outcome, out=out):
            rows, footer = checks.read_simulate(checks.cli_output(outcome, out))
            expect(footer.get("jump") == "right", f"{out}: jump={footer.get('jump')}")
            # the multipliers pair off about the center, so the linear product is
            # back to 1 after 2N+1 steps; the cubic term may cost one more step
            back = checks.first_return(rows)
            expect(back in (2 * n_in + 1, 2 * n_in + 2),
                   f"{out}: |x| back to |delta| at step {back}, want {2 * n_in + 1} or one more")

        ops.append(cli_op(pkg, f"cli.simulate.afamily.a{aparam}", [argv], [out], judge))
    return ops


WORKLOADS = {
    "sticky": build_sticky,
    "bisect": build_bisect,
    "surfaces": build_surfaces,
    "symmetry": build_symmetry,
}
