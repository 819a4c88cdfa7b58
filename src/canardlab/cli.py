"""Command-line driver for the canard discretization experiments.

Subcommands:

  simulate   iterate one orbit, write n,x,y CSV rows plus a footer comment
             with the parameters and the jump classification: that of
             analysis._iterate, called once per --stride row; stuck when the
             orbit glues, is still undecided at --n-max or starts on the
             canard; once decided it steps on to its box (4x the entry scale)
  sweep      critical-step-size surfaces over a (rho, eps) grid, one CSV and
             one gnuplot script per tableau
  wayout     way-in/way-out indices of the linearization along the canard
  bisect     bracket the nonlinear critical step size by bisection
  kstar      closed-form exit-count lower bounds
  verify     run the structural property checks of canardlab.checks (those of
             acceptance criteria 4-7 and 9 among them) and print a pass/fail
             table; exit 1 if any fails

Every subcommand accepts --digits; decimal-valued flags are parsed exactly
at that precision (no double round-trip through binary floats).  Plain
simulation defaults to 50 digits; sweep and bisect default to 5000 digits,
matching the precision the delicate experiments need; verify runs at 50
digits and rejects fewer, since its bounds are stated there.  Exit codes:
0 ok, 1 failed verify suite, 2 usage, invalid parameters or a file that
cannot be read or written, 3 pole hit, 4 search/bracket failure.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .analysis import (
    JumpClass,
    NoBracket,
    Unresolved,
    _iterate,
    critical_h_bisection,
    kstar_pitchfork_euler,
    kstar_rk,
    kstar_transcritical_euler,
    rk_cbar,
    rk_theta0,
    sweep_surface,
    wayout,
)
from .linearization import CANARDS, AFamily, KAHAN, _escape_threshold, scheme_map
from .precision import ANALYSIS_DIGITS, SIMULATE_DIGITS, InvalidPrecision, make_context
from .rounding import abs_le, split
from .schemes import (
    EULER,
    SHIPPED_TABLEAUX,
    SURFACE_TABLEAUX,
    ButcherTableau,
    NoRealBranch,
    PoleError,
    load_tableau_file,
)
from .systems import NoCanard, PlanarPoint, SingularityKind, SystemParams

_KINDS = {k.value: k for k in SingularityKind}


def _check_positive(flag: str, value: int) -> None:
    """Reject a count below 1 before any output: --stride, --out-digits, or the --n-max
    "iteration budget" (worded as critical_h_bisection words it for bisect)."""
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _add_common(p: argparse.ArgumentParser, digits_default: int):
    p.add_argument("--digits", type=int, default=digits_default,
                   help=f"working decimal digits (default {digits_default})")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")


def _add_pair(p: argparse.ArgumentParser, scheme_default: str):
    """--kind, --scheme and the flags _scheme reads, plus --h and --eps."""
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.add_argument("--scheme", choices=("euler", "rk", "kahan", "afamily"), default=scheme_default)
    p.add_argument("--tableau", default="kutta3", help="shipped tableau name for --scheme rk")
    p.add_argument("--tableau-file", help="plain-text tableau file")
    p.add_argument("--h", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--a", help="implicit-family parameter (pitchfork)")


def _shipped(name) -> ButcherTableau:
    try:
        return SHIPPED_TABLEAUX[name]
    except KeyError:
        raise ValueError(
            f"unknown tableau {name!r}; shipped: {', '.join(sorted(SHIPPED_TABLEAUX))}"
        ) from None


def _resolve_tableau(args) -> ButcherTableau:
    if getattr(args, "tableau_file", None):
        return load_tableau_file(args.tableau_file, name=Path(args.tableau_file).stem)
    return _shipped(getattr(args, "tableau", None) or "euler")


@contextmanager
def _output(path):
    """The --out stream: the file at path, or standard output for '-'."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _scheme(args, params):
    """The scheme selector named by --scheme (with --tableau, --tableau-file or --a)."""
    name = args.scheme
    if name == "euler":
        return EULER
    if name == "rk":
        return _resolve_tableau(args)
    if name == "kahan":
        return KAHAN
    if params.a is None:
        raise ValueError("--a is required for the afamily scheme")
    return AFamily(params.a)


def _row(ctx, n, x, y, nd):
    return [n, ctx.nstr_pair(x, nd), ctx.nstr_pair(y, nd)]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    stride, n_max = args.stride, args.n_max
    _check_positive("iteration budget", n_max)
    _check_positive("--stride", stride)
    _check_positive("--out-digits", args.out_digits)
    ctx = make_context(args.digits)
    params = SystemParams.create(ctx, args.eps, args.h, a=args.a)
    kind = _KINDS[args.kind]
    canard = CANARDS[kind]
    if args.x0 is not None and args.y0 is not None:
        p = PlanarPoint(ctx.mpf(args.x0), ctx.mpf(args.y0))
    elif args.rho is not None:
        p = canard.start(params, ctx.mpf(args.rho), ctx.mpf(args.delta))
    else:
        raise ValueError("give either --x0/--y0 or --rho (with optional --delta)")
    if not (ctx.isfinite(p.x) and ctx.isfinite(p.y)):
        raise ValueError("start point must be finite")
    if args.rho is not None and (args.x0 is not None or args.y0 is not None):
        raise ValueError("give either --x0/--y0 or --rho (with optional --delta), not both")

    step = scheme_map(kind, _scheme(args, params), params, canard=False).step
    deviation = canard.deviation(params)
    scale = max(abs(p.x), abs(p.y), ctx.mpf(1))
    threshold = _escape_threshold(ctx, args.escape or None, scale / 2)
    thr = split(threshold._mpf_)
    box = split((4 * max(scale, threshold))._mpf_)

    x, y = split(p.x._mpf_), split(p.y._mpf_)
    u, _ = deviation(x, y)
    above, label, n = u[0] > 0, None if u[0] else JumpClass.STUCK, 0
    nd = args.out_digits
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["n", "x", "y"])
        writer.writerow(_row(ctx, 0, x, y, nd))
        while label is None and n < n_max:  # one chunk of the orbit loop per row
            k = min(n + stride, n_max)
            label, n, x, y, u, _ = _iterate(step, deviation, x, y, u, above, thr, k, None, n)
            if n == k:
                writer.writerow(_row(ctx, n, x, y, nd))
        # once decided, or from a start on the canard, plain steps run on to the hard-stop box
        inside = label is not None and abs_le(x, box) and abs_le(y, box)
        for n in range(n + 1, n_max + 1) if inside else ():
            try:
                x, y = step(x, y)
            except PoleError as err:
                err.index = n
                raise
            if n % stride == 0 or n == n_max:
                writer.writerow(_row(ctx, n, x, y, nd))
            if not (abs_le(x, box) and abs_le(y, box)):
                break
        if n % stride and n < n_max:  # stopped at the box between two rows
            writer.writerow(_row(ctx, n, x, y, nd))
        out.write(
            f"# kind={args.kind} scheme={args.scheme} h={args.h} eps={args.eps}"
            f" digits={args.digits} n={n} jump={(label or JumpClass.STUCK).value}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _grid(ctx, args, axis):
    """The --{axis}-min/-max/-steps grid; its ends finite, and > 0 (eps >= 0 if linearized)."""
    lo, hi, steps = (getattr(args, f"{axis}_{end}") for end in ("min", "max", "steps"))
    bound = ">= 0" if axis == "eps" and args.mode == "linearized" else "> 0"
    for end, text in (("min", lo), ("max", hi)):
        v = ctx.mpf(text)
        if not (ctx.isfinite(v) and (v > 0 or (v == 0 and bound == ">= 0"))):
            raise ValueError(f"--{axis}-{end} must be finite and {bound}, got {text}")
    lo, hi = ctx.mpf(lo), ctx.mpf(hi)
    if steps < 1:
        raise ValueError("grid needs at least one point")
    d = (hi - lo) / max(steps - 1, 1)
    return [lo + i * d for i in range(steps)]


_PLOT_TEMPLATE = """# gnuplot script: critical-step-size surface for {name}
# run:  gnuplot -p {script}
set title "critical step size h*  ({name})"
set xlabel "rho"
set ylabel "eps"
set zlabel "h*"
set dgrid3d {rsteps},{esteps}
set hidden3d
set datafile separator ","
splot "{csv}" every ::1 using 1:2:3 with lines notitle
"""


def cmd_sweep(args) -> int:
    _check_positive("--out-digits", args.out_digits)
    ctx = make_context(args.digits)
    if args.tableau == "all":
        names = sorted(SHIPPED_TABLEAUX)
    elif args.tableau == "surfaces":
        names = list(SURFACE_TABLEAUX)
    else:
        names = [args.tableau]
    # a shipped name, else a tableau file named by its stem; all resolved before output
    tabs = [
        load_tableau_file(name, name=Path(name).stem) if name not in SHIPPED_TABLEAUX and Path(name).is_file()
        else _shipped(name)
        for name in names
    ]
    rho_grid, eps_grid = _grid(ctx, args, "rho"), _grid(ctx, args, "eps")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    nd = args.out_digits
    for tab in tabs:
        cells = sweep_surface(
            tab, rho_grid, eps_grid, args.mode, ctx,
            delta=args.delta, digits_target=args.digits_target,
        )
        csv_path = out_dir / f"surface_{tab.name}.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rho", "eps", "h_star", "mode", "tableau", "status"])
            for cell in cells:
                h_txt = "" if cell.h_star is None else ctx.nstr(cell.h_star, nd)
                writer.writerow([ctx.nstr(cell.rho, nd), ctx.nstr(cell.eps, nd),
                                 h_txt, cell.mode, tab.name, cell.status])
        script_path = out_dir / f"surface_{tab.name}.gp"
        script_path.write_text(
            _PLOT_TEMPLATE.format(
                name=tab.name, script=script_path.name, csv=csv_path.name,
                rsteps=args.rho_steps, esteps=args.eps_steps,
            ),
            encoding="utf-8",
        )
        print(f"wrote {csv_path} and {script_path}")
    return 0


# ---------------------------------------------------------------------------
# wayout
# ---------------------------------------------------------------------------


def cmd_wayout(args) -> int:
    _check_positive("iteration budget", args.n_max)
    ctx = make_context(args.digits)
    params = SystemParams.create(ctx, args.eps, args.h, a=args.a)
    kind = _KINDS[args.kind]
    result = wayout(kind, _scheme(args, params), params, ctx.mpf(args.rho), max_n=args.n_max)
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["kind", "scheme", "h", "eps", "rho", "N", "psi"])
        writer.writerow([args.kind, args.scheme, args.h, args.eps, args.rho,
                         result.n_in, result.psi])
    return 0


# ---------------------------------------------------------------------------
# bisect
# ---------------------------------------------------------------------------


def cmd_bisect(args) -> int:
    _check_positive("--out-digits", args.out_digits)
    ctx = make_context(args.digits)
    kind = _KINDS[args.kind]
    tab = _resolve_tableau(args)
    if (args.h_lo is None) != (args.h_hi is None):
        raise ValueError("give both --h-lo and --h-hi, or neither")
    bracket = None if args.h_lo is None else (args.h_lo, args.h_hi)
    trip = critical_h_bisection(
        kind, tab, args.rho, args.eps, args.delta, args.digits_target, ctx,
        h_bracket=bracket, max_n=args.n_max,
    )
    nd = max(args.digits_target + 5, args.out_digits)
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["kind", "tableau", "rho", "eps", "h_lo", "h_hi", "digits"])
        writer.writerow([args.kind, tab.name, args.rho, args.eps,
                         ctx.nstr(trip.source.lo, nd), ctx.nstr(trip.source.hi, nd),
                         args.digits_target])
    return 0


# ---------------------------------------------------------------------------
# kstar
# ---------------------------------------------------------------------------


def cmd_kstar(args) -> int:
    _check_positive("--out-digits", args.out_digits)
    ctx = make_context(args.digits)
    nd = args.out_digits
    rho = ctx.mpf(args.rho)
    variant = args.variant
    theta0_txt = cbar_txt = s_txt = tab_name = ""
    if variant == "euler-transcritical":
        value = kstar_transcritical_euler(ctx, rho, args.h, args.eps)
    elif variant == "euler-pitchfork":
        value = kstar_pitchfork_euler(ctx, rho, args.h, args.eps)
    elif variant == "rk":
        tab = _resolve_tableau(args)
        params = SystemParams.create(ctx, args.eps, args.h)
        theta0 = rk_theta0(tab, params, rho)
        cbar = rk_cbar(tab, params, rho)
        value = kstar_rk(ctx, theta0, cbar, tab.s)
        theta0_txt = ctx.nstr(theta0, nd)
        cbar_txt = ctx.nstr(cbar, nd)
        s_txt = str(tab.s)
        tab_name = tab.name
    else:
        raise ValueError(f"unknown kstar variant {variant!r}")
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["variant", "tableau", "rho", "h", "eps", "theta0", "cbar", "s", "kstar"])
        writer.writerow([variant, tab_name, args.rho, args.h, args.eps,
                         theta0_txt, cbar_txt, s_txt, ctx.nstr(value, nd)])
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import checks  # only verify needs the suites; other commands skip compiling them

    for name in args.suite or ():
        if name not in checks.SUITES:
            raise ValueError(
                f"unknown verify suite {name!r}; choose from {', '.join(sorted(checks.SUITES))}"
            )
    digits = checks.DIGITS if args.digits is None else args.digits
    if digits < checks.DIGITS:
        raise ValueError(
            f"verify needs --digits >= {checks.DIGITS}, the precision its bounds are"
            f" stated at; got {digits}"
        )
    ctx = make_context(digits)
    rng = random.Random(args.seed)
    names = args.suite or list(checks.SUITES)
    failures = 0
    width = max(len(n) for n in names)
    for name in names:
        ok, detail = checks.SUITES[name](ctx, rng)
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        if not ok:
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canardlab",
        description="delayed loss of stability in discretized planar fast-slow systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="iterate one orbit and write an n,x,y CSV")
    _add_pair(p, "euler")
    p.add_argument("--x0")
    p.add_argument("--y0")
    p.add_argument("--rho", help="canard entry offset (alternative to --x0/--y0)")
    p.add_argument("--delta", default="1e-4", help="entry perturbation (default 1e-4)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--stride", type=int, default=1, help="write every stride-th point")
    p.add_argument("--escape", help="deviation threshold for jump classification")
    p.add_argument("--out-digits", type=int, default=30)
    _add_common(p, SIMULATE_DIGITS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="critical-step-size surfaces over a (rho, eps) grid")
    p.add_argument("--tableau", default="surfaces",
                   help="tableau name, 'surfaces' (euler + 3rd-order set), or 'all'")
    for axis, lo, hi, steps in (("rho", "1", "10", 10), ("eps", "0.01", "1", 5)):
        p.add_argument(f"--{axis}-min", default=lo)
        p.add_argument(f"--{axis}-max", default=hi)
        p.add_argument(f"--{axis}-steps", type=int, default=steps)
    p.add_argument("--mode", choices=("linearized", "bisection"), default="linearized")
    p.add_argument("--delta", default="1e-4")
    p.add_argument("--digits-target", type=int, default=3)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--out-digits", type=int, default=30)
    _add_common(p, ANALYSIS_DIGITS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("wayout", help="way-in/way-out indices along the canard")
    _add_pair(p, "kahan")
    p.add_argument("--rho", required=True)
    p.add_argument("--n-max", type=int, default=1_000_000)
    _add_common(p, SIMULATE_DIGITS)
    p.set_defaults(func=cmd_wayout)

    p = sub.add_parser("bisect", help="bracket the nonlinear critical step size")
    p.add_argument("--kind", choices=sorted(_KINDS), default="transcritical")
    p.add_argument("--tableau", default="euler")
    p.add_argument("--tableau-file")
    p.add_argument("--rho", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", default="1e-4")
    p.add_argument("--digits-target", type=int, default=3)
    p.add_argument("--h-lo", help="optional bracket low end")
    p.add_argument("--h-hi", help="optional bracket high end")
    p.add_argument("--n-max", type=int, help="classification iteration budget")
    p.add_argument("--out-digits", type=int, default=30)
    _add_common(p, ANALYSIS_DIGITS)
    p.set_defaults(func=cmd_bisect)

    p = sub.add_parser("kstar", help="closed-form exit-count lower bounds")
    p.add_argument("--variant", choices=("euler-transcritical", "euler-pitchfork", "rk"),
                   required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--tableau", default="kutta3")
    p.add_argument("--tableau-file")
    p.add_argument("--out-digits", type=int, default=30)
    _add_common(p, SIMULATE_DIGITS)
    p.set_defaults(func=cmd_kstar)

    p = sub.add_parser("verify", help="run the structural property suites")
    p.add_argument("--suite", action="append",
                   help="suite to run (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--digits", type=int,
                   help="working decimal digits (default and minimum: the precision the"
                        " suites' bounds are stated at)")
    p.set_defaults(func=cmd_verify)

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on the first call, not at import; parse_args leaves it as it was
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except PoleError as err:
        print(f"pole error: {err} (iterate index {err.index})", file=sys.stderr)
        return 3
    except (Unresolved, NoBracket) as err:
        print(f"unresolved: {err}", file=sys.stderr)
        return 4
    except (ValueError, NoCanard, NoRealBranch, InvalidPrecision, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
