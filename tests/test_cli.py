import csv
import os
import re
import subprocess
import sys

import pytest

from canardlab import (
    EULER,
    KAHAN,
    KUTTA3,
    JumpClass,
    JumpResult,
    PlanarPoint,
    SingularityKind,
    SystemParams,
    analysis,
    checks,
    classify_jump,
    make_context,
)
from canardlab import cli
from canardlab.cli import main


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        content = fh.read()
    comments = [line for line in content.splitlines() if line.startswith("#")]
    rows = list(csv.reader(line for line in content.splitlines() if not line.startswith("#")))
    return rows, comments


def test_simulate_writes_orbit(tmp_path):
    out = tmp_path / "orbit.csv"
    code = main([
        "simulate", "--kind", "transcritical", "--scheme", "euler",
        "--h", "0.001", "--eps", "1", "--rho", "1", "--delta", "1e-4",
        "--n-max", "6000", "--digits", "30", "--out", str(out),
    ])
    assert code == 0
    rows, comments = _read_csv(out)
    assert rows[0] == ["n", "x", "y"]
    assert rows[1][0] == "0"
    assert rows[1][1].startswith("-1.0") or rows[1][1] == "-1.0"
    assert len(comments) == 1
    assert "jump=right" in comments[0]
    assert "digits=30" in comments[0]


def test_simulate_stride_thins_output(tmp_path):
    out = tmp_path / "orbit.csv"
    main([
        "simulate", "--kind", "transcritical", "--scheme", "euler",
        "--h", "0.001", "--eps", "1", "--x0", "-1", "--y0", "-0.9999",
        "--n-max", "1000", "--stride", "100", "--digits", "30", "--out", str(out),
    ])
    rows, _ = _read_csv(out)
    assert len(rows) <= 14  # header + ~11 strided rows + final points


def test_simulate_kahan_fold(tmp_path):
    out = tmp_path / "fold.csv"
    code = main([
        "simulate", "--kind", "fold", "--scheme", "kahan",
        "--h", "0.1", "--eps", "0.01", "--rho", "0.5", "--delta", "0",
        "--n-max", "50", "--digits", "30", "--out", str(out),
    ])
    assert code == 0
    rows, comments = _read_csv(out)
    assert len(rows) == 52
    assert "jump=stuck" in comments[0]  # on the invariant parabola: never leaves


def test_simulate_requires_start(tmp_path):
    code = main([
        "simulate", "--kind", "transcritical", "--scheme", "euler",
        "--h", "0.1", "--eps", "1", "--n-max", "10",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("extra, message", [
    (["--stride", "0"], "--stride must be >= 1, got 0"),
    (["--stride", "-3"], "--stride must be >= 1, got -3"),
    (["--escape", "0"], "escape threshold must be > 0"),
    (["--escape=-0.5"], "escape threshold must be > 0"),
    (["--x0=nan", "--y0=0"], "start point must be finite"),
    (["--delta", "inf"], "start point must be finite"),
    (["--h", "inf"], "h must be finite"),
    (["--eps", "inf"], "eps must be finite"),
    (["--escape", "inf"], "escape threshold must be finite, got +inf"),
    (["--escape", "nan"], "escape threshold must be finite, got nan"),
    # the base command gives --rho: a start point flag with it is a second start
    (["--x0", "1"], "give either --x0/--y0 or --rho (with optional --delta), not both"),
    (["--y0", "1"], "give either --x0/--y0 or --rho (with optional --delta), not both"),
    (["--x0", "1", "--y0", "2"], "give either --x0/--y0 or --rho (with optional --delta), not both"),
])
def test_simulate_rejects_bad_input(tmp_path, capsys, extra, message):
    out = tmp_path / "x.csv"
    code = main([
        "simulate", "--kind", "transcritical", "--h", "0.1", "--eps", "1", "--rho", "5",
        "--n-max", "10", "--out", str(out),
    ] + extra)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"error: {message}" in err[0]
    assert not out.exists()


def test_simulate_rejects_rk_on_fold_before_writing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main([
        "simulate", "--kind", "fold", "--scheme", "rk", "--h", "0.01", "--eps", "0.1",
        "--rho", "0.5", "--n-max", "400", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: explicit RK steps are provided for the transcritical and pitchfork systems" in err
    assert not out.exists()


def test_simulate_prints_tiny_values_at_5000_digits(tmp_path):
    # below about 1e-1054, mpmath's own decimal conversion at 5000 digits
    # exceeds CPython's int-to-str limit
    out = tmp_path / "deep.csv"
    code = main([
        "simulate", "--kind", "pitchfork", "--h", "0.1", "--eps", "0.00125",
        "--x0=1e-2000", "--y0=-5", "--n-max", "1", "--digits", "5000", "--out", str(out),
    ])
    assert code == 0
    rows, comments = _read_csv(out)
    # x1 = x0 (1 + h (y0 - x0^2)) = x0 (1/2 - 1e-4001)
    assert rows[1:] == [["0", "1.0e-2000", "-5.0"], ["1", "5.0e-2001", "-4.999875"]]
    assert "n=1" in comments[0]


def test_simulate_pole_exit_code(tmp_path, capsys):
    code = main([
        "simulate", "--kind", "transcritical", "--scheme", "kahan",
        "--h", "0.125", "--eps", "0.01", "--x0", "8", "--y0", "0",
        "--n-max", "10", "--digits", "30", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 3
    assert "pole" in capsys.readouterr().err


def test_simulate_afamily_cubic_fallback_at_a_tiny_root(tmp_path):
    """Row 192 of this orbit needs the cubic fallback where c1 = c2 = 0 and the real root is
    near -2.07e-56: solved in a variable scaled to its roots' size, the orbit goes on (polyroots
    from unit-size seeds did not converge, exit 2) and jumps left."""
    out = tmp_path / "afamily.csv"
    code = main([
        "simulate", "--kind", "pitchfork", "--scheme", "afamily", "--a", "0.5", "--h", "0.5",
        "--eps", "0.125", "--rho", "8", "--n-max", "400", "--digits", "200", "--out", str(out),
    ])
    assert code == 0
    rows, comments = _read_csv(out)
    assert rows[192][:2] == ["191", "-1.11339104865378446250884715439e-168"]
    assert rows[193][:2] == ["192", "-2.06749192129862259238588684209e-56"]
    assert len(rows) == 402 and "n=400" in comments[0] and "jump=left" in comments[0]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--kind", "nonsense"])
    assert err.value.code == 2


# successive commands through one parser: subcommands, usage errors (exit 2), --version, and
# repeated flags whose defaults a parse could leave changed if it wrote to them
PARSER_ARGVS = [
    ["kstar", "--variant", "euler-transcritical", "--rho", "4", "--h", "0.1", "--eps", "0.01"],
    ["--version"],
    ["simulate", "--kind", "nonsense"],
    ["verify", "--suite", "nope", "--suite", "x"],
    [],
    ["simulate", "--kind", "fold", "--scheme", "kahan", "--h", "0.1", "--eps", "0.01",
     "--rho", "1", "--n-max", "50", "--stride", "10", "--digits", "30", "--out-digits", "7"],
    ["verify", "--suite", "other"],
    ["bisect", "--rho", "5"],
    ["wayout", "--kind", "transcritical", "--scheme", "kahan", "--h", "0.1", "--eps", "0.01",
     "--rho", "0.0105"],
    ["kstar", "--variant", "rk", "--tableau", "kutta3", "--rho", "4", "--h", "0.05",
     "--eps", "0.1", "--out-digits", "12"],
]


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    return (code, *capsys.readouterr())


def test_parser_is_built_once_and_reused(monkeypatch, capsys):
    """main builds its parser on the first call only, and every later call prints and exits
    as a call with a freshly built parser does."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    capsys.readouterr()
    reused = [_outcome(argv, capsys) for argv in PARSER_ARGVS]
    assert len(built) == 1
    fresh = []
    for argv in PARSER_ARGVS:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_outcome(argv, capsys))
    assert len(built) == 1 + len(PARSER_ARGVS)
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 2, 2, 2, 0, 2, 2, 0, 0]
    assert reused[1][1].startswith("canardlab ")


def test_cli_import_builds_no_parser():
    """The parser is built by the first main call, not at import (it would add to start-up)."""
    code = "import canardlab.cli as c; print(c._parser is None)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout.strip() == "True"


def test_unknown_tableau_exits_2(tmp_path):
    code = main([
        "simulate", "--kind", "transcritical", "--scheme", "rk", "--tableau", "rk99",
        "--h", "0.1", "--eps", "1", "--rho", "1", "--n-max", "5",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "transcritical", "--h", "0.1", "--eps", "1", "--rho", "5"],
    ["wayout", "--kind", "transcritical", "--scheme", "kahan", "--h", "0.1", "--eps", "0.01",
     "--rho", "0.0105"],
], ids=["simulate", "wayout"])
@pytest.mark.parametrize("n_max", ["-1", "0"])
def test_n_max_below_one_is_rejected_before_output(tmp_path, capsys, argv, n_max):
    out = tmp_path / "x.csv"
    code = main(argv + [f"--n-max={n_max}", "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: iteration budget must be >= 1, got {n_max}"], lines
    assert not out.exists()


def test_wayout_lattice_csv(tmp_path):
    out = tmp_path / "wayout.csv"
    code = main([
        "wayout", "--kind", "transcritical", "--scheme", "kahan",
        "--h", "0.1", "--eps", "0.01", "--rho", "0.0105",
        "--digits", "40", "--out", str(out),
    ])
    assert code == 0
    rows, _ = _read_csv(out)
    assert rows[0] == ["kind", "scheme", "h", "eps", "rho", "N", "psi"]
    assert rows[1][5] == "10" and rows[1][6] == "10"


def test_wayout_fold_lattice(tmp_path):
    out = tmp_path / "wayout.csv"
    main([
        "wayout", "--kind", "fold", "--scheme", "kahan",
        "--h", "0.1", "--eps", "0.01", "--rho", "0.01",
        "--digits", "40", "--out", str(out),
    ])
    rows, _ = _read_csv(out)
    assert rows[1][5] == "20" and rows[1][6] == "20"


def test_wayout_way_in_beyond_budget_exits_4(tmp_path, capsys):
    out = tmp_path / "wayout.csv"
    code = main([
        "wayout", "--kind", "transcritical", "--scheme", "kahan",
        "--h", "0.1", "--eps", "1e-30", "--rho", "1e-3", "--n-max", "5", "--out", str(out),
    ])
    assert code == 4
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "unresolved: way-in N = 9999999999999999999999999999 exceeds the budget of 5 steps"
    ], lines
    assert not out.exists()


def test_wayout_huge_way_in_is_shown_to_15_digits(tmp_path, capsys):
    # N is about 1e5001: exactly it would need more digits than str(int) converts
    out = tmp_path / "wayout.csv"
    code = main(["wayout", "--kind", "transcritical", "--scheme", "kahan", "--h", "0.1",
                 "--eps", "1e-5000", "--rho", "1", "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        "unresolved: way-in N = 1.0e+5001 exceeds the budget of 1000000 steps"
    ]
    assert not out.exists()


def test_wayout_budget_beyond_machine_integers(tmp_path):
    rows = []
    for budget in ([], ["--n-max", "100000000000000000000"]):
        out = tmp_path / f"wayout{len(rows)}.csv"
        code = main(["wayout", "--kind", "transcritical", "--scheme", "kahan", "--h", "0.1",
                     "--eps", "0.01", "--rho", "1", "--out", str(out), *budget])
        assert code == 0
        rows.append(_read_csv(out)[0])
    assert rows[0] == rows[1] == [["kind", "scheme", "h", "eps", "rho", "N", "psi"],
                                  ["transcritical", "kahan", "0.1", "0.01", "1", "999", "1000"]]


@pytest.mark.parametrize("kind, rho, step, position", [
    ("transcritical", "10.001", 0, "-10.001"),
    ("transcritical", "20", 9999, "-10.001"),
    ("fold", "10.00025", 0, "-10.00025"),
])
def test_wayout_exactly_zero_product_exits_4(tmp_path, capsys, kind, rho, step, position):
    # the multiplier's zero -A/g lies on the lattice: the product is 0 from there on
    out = tmp_path / "wayout.csv"
    code = main(["wayout", "--kind", kind, "--scheme", "kahan", "--h", "0.1", "--eps", "0.01",
                 "--rho", rho, "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        f"unresolved: way-out product is exactly 0 from step {step} on: "
        f"the multiplier vanishes at canard position {position}"
    ]
    assert not out.exists()


def test_wayout_pitchfork_pole_before_any_zero_product(tmp_path, capsys):
    # -A/g = -20.001 in real arithmetic, but g s never rounds to -A; the pole B/g comes first
    out = tmp_path / "wayout.csv"
    code = main(["wayout", "--kind", "pitchfork", "--scheme", "kahan", "--h", "0.1",
                 "--eps", "0.01", "--rho", "20.001", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "pole error: implicit pitchfork multiplier has a pole at this y (iterate index 40001)"
    ]
    assert not out.exists()


def test_bisect_euler_table_row(tmp_path):
    out = tmp_path / "bisect.csv"
    code = main([
        "bisect", "--kind", "transcritical", "--tableau", "euler",
        "--rho", "5", "--eps", "1", "--delta", "1e-4",
        "--h-lo", "0.103", "--h-hi", "0.105",
        "--digits-target", "3", "--digits", "60", "--out", str(out),
    ])
    assert code == 0
    rows, _ = _read_csv(out)
    assert rows[0] == ["kind", "tableau", "rho", "eps", "h_lo", "h_hi", "digits"]
    assert rows[1][4].startswith("0.104")
    assert rows[1][5].startswith("0.104")


def test_bisect_pitchfork_scan_seeds_from_the_pitchfork_polynomial(tmp_path):
    # the pitchfork's entry multiplier is 1 - h rho for Euler: the flip is at 1/rho
    out = tmp_path / "bisect.csv"
    code = main([
        "bisect", "--kind", "pitchfork", "--tableau", "euler", "--rho", "2", "--eps", "1",
        "--digits", "30", "--digits-target", "3", "--out", str(out),
    ])
    assert code == 0
    rows, _ = _read_csv(out)
    assert float(rows[1][4]) <= 0.5 <= float(rows[1][5])


def test_bisect_no_bracket_exit_code(tmp_path, capsys):
    code = main([
        "bisect", "--tableau", "heun2", "--rho", "5", "--eps", "1",
        "--digits", "40", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 4


def test_bisect_from_a_tiny_bracket_end(tmp_path):
    # at h = 1e-20, h (2y + u) lies far below a float ulp of 1, so the lock encloses u'/u - 1
    # apart from the 1; the full orbit at h_lo would iterate about 10**21 steps
    out = tmp_path / "bisect.csv"
    code = main([
        "bisect", "--tableau", "euler", "--rho", "5", "--eps", "1",
        "--h-lo", "1e-20", "--h-hi", "0.2", "--digits", "50", "--out", str(out),
    ])
    assert code == 0
    rows, _ = _read_csv(out)
    assert rows[1][4:6] == ["0.166601562500000000001669921875", "0.166699218750000000001665039062"]


def test_bisect_from_a_bracket_end_that_cannot_move(tmp_path, capsys):
    # at h = 1e-300, y + eps h rounds to y and 1 + h (2y + u) to 1: the deviation orbit sits
    # on a fixed point, stuck, which is known without iterating its budget of 10**302 steps
    code = main([
        "bisect", "--tableau", "euler", "--rho", "5", "--eps", "1",
        "--h-lo", "1e-300", "--h-hi", "0.2", "--digits", "50", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        "unresolved: provided bracket does not classify RIGHT/LEFT: got stuck/left"
    ]


BISECT_ARGV = ["bisect", "--tableau", "euler", "--rho", "5", "--eps", "1", "--digits", "30"]
BRACKET = ["--h-lo", "0.103", "--h-hi", "0.105"]


@pytest.mark.parametrize("extra, message", [
    (BRACKET + ["--digits-target", "-3"], "digits target must be between 1 and 29"),
    (BRACKET + ["--digits-target", "40"], "digits target must be between 1 and 29"),
    (BRACKET + ["--digits-target", "30"], "digits target must be between 1 and 29"),
    (BRACKET + ["--n-max", "0"], "iteration budget must be >= 1"),
    (BRACKET + ["--n-max", "-5"], "iteration budget must be >= 1"),
    (BRACKET + ["--delta", "nan"], "delta must be finite"),
    (["--h-lo", "0.103"], "give both --h-lo and --h-hi"),
    (["--h-hi", "0.105"], "give both --h-lo and --h-hi"),
], ids=["target-negative", "target-above-digits", "target-at-digits", "n-max-0",
        "n-max-negative", "delta-nan", "h-lo-only", "h-hi-only"])
def test_bisect_rejects_bad_inputs(tmp_path, capsys, extra, message):
    out = tmp_path / "bisect.csv"
    code = main(BISECT_ARGV + extra + ["--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), lines
    assert not out.exists()


@pytest.mark.parametrize("lo, hi, message", [
    ("0.104", "0.104", "bracket needs h_lo < h_hi, got h_lo = 0.104, h_hi = 0.104"),
    ("0.105", "0.103", "bracket needs h_lo < h_hi, got h_lo = 0.105, h_hi = 0.103"),
    ("-1", "0.105", "bracket end h_lo must be finite and > 0, got -1"),
    ("0", "0.105", "bracket end h_lo must be finite and > 0, got 0"),
    ("nan", "0.105", "bracket end h_lo must be finite and > 0, got nan"),
    ("0.103", "inf", "bracket end h_hi must be finite and > 0, got inf"),
    ("0.103", "-0.105", "bracket end h_hi must be finite and > 0, got -0.105"),
], ids=["empty", "reversed", "lo-negative", "lo-zero", "lo-nan", "hi-inf", "hi-negative"])
def test_bisect_rejects_a_bad_bracket_before_classifying(tmp_path, capsys, monkeypatch, lo, hi, message):
    def no_classification(*args, **kwargs):
        raise AssertionError("classified before the bracket was checked")

    monkeypatch.setattr(analysis, "_classify", no_classification)
    out = tmp_path / "bisect.csv"
    code = main(BISECT_ARGV + [f"--h-lo={lo}", f"--h-hi={hi}", "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {message}"]
    assert not out.exists()


OUT_DIGITS_ARGV = {
    "simulate": ["simulate", "--kind", "transcritical", "--h", "0.1", "--eps", "1", "--rho", "5",
                 "--n-max", "2"],
    "sweep": ["sweep", "--tableau", "euler", "--rho-steps", "1", "--eps-steps", "1"],
    "bisect": BISECT_ARGV + BRACKET,
    "kstar": ["kstar", "--variant", "euler-transcritical", "--rho", "4", "--h", "0.1",
              "--eps", "0.01"],
}


@pytest.mark.parametrize("command", sorted(OUT_DIGITS_ARGV))
@pytest.mark.parametrize("value", ["-4", "0"])
def test_out_digits_below_one_is_rejected_before_output(tmp_path, capsys, command, value):
    out = tmp_path / "x.csv"
    argv = OUT_DIGITS_ARGV[command] + [f"--out-digits={value}"]
    argv += ["--out-dir", str(tmp_path)] if command == "sweep" else ["--out", str(out)]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: --out-digits must be >= 1, got {value}"], lines
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra, message", [
    (["--digits-target", "-3"], "digits target must be between 1 and 29"),
    (["--delta", "nan"], "delta must be finite"),
], ids=["target-negative", "delta-nan"])
def test_sweep_bisection_rejects_bad_inputs(tmp_path, capsys, extra, message):
    code = main([
        "sweep", "--tableau", "euler", "--mode", "bisection",
        "--rho-min", "5", "--rho-max", "5", "--rho-steps", "1",
        "--eps-min", "1", "--eps-max", "1", "--eps-steps", "1",
        "--digits", "30", "--out-dir", str(tmp_path), *extra,
    ])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), lines
    assert not (tmp_path / "surface_euler.csv").exists()


@pytest.mark.parametrize("mode, flag, value, bound", [
    ("linearized", "eps-min", "inf", ">= 0"),
    ("linearized", "eps-max", "-0.5", ">= 0"),
    ("linearized", "rho-min", "0", "> 0"),
    ("linearized", "rho-max", "-3", "> 0"),
    ("linearized", "rho-min", "nan", "> 0"),
    ("linearized", "rho-max", "-inf", "> 0"),
    ("bisection", "eps-min", "0", "> 0"),
], ids=["eps-inf", "eps-negative", "rho-zero", "rho-negative", "rho-nan", "rho-minus-inf",
        "bisection-eps-zero"])
def test_sweep_rejects_bad_grid_ends_before_any_output(tmp_path, capsys, mode, flag, value, bound):
    out_dir = tmp_path / "out"
    code = main([
        "sweep", "--tableau", "euler", "--mode", mode,
        "--rho-min", "2", "--rho-max", "5", "--rho-steps", "2",
        "--eps-min", "0.5", "--eps-max", "1", "--eps-steps", "2",
        "--digits", "20", "--out-dir", str(out_dir), f"--{flag}={value}",
    ])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: --{flag} must be finite and {bound}, got {value}"], lines
    assert not out_dir.exists()


def test_sweep_linearized_accepts_eps_zero(tmp_path):
    code = main([
        "sweep", "--tableau", "euler", "--mode", "linearized",
        "--rho-min", "5", "--rho-max", "5", "--rho-steps", "1",
        "--eps-min", "0", "--eps-max", "0", "--eps-steps", "1",
        "--digits", "20", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    rows, _ = _read_csv(tmp_path / "surface_euler.csv")
    assert rows[1][:2] == ["5.0", "0.0"] and rows[1][-1] == "ok"
    assert abs(float(rows[1][2]) - 0.1) < 1e-15


def test_kstar_csv(tmp_path):
    out = tmp_path / "kstar.csv"
    code = main([
        "kstar", "--variant", "euler-transcritical",
        "--rho", "4", "--h", "0.1", "--eps", "0.01",
        "--digits", "40", "--out", str(out),
    ])
    assert code == 0
    rows, _ = _read_csv(out)
    assert rows[1][0] == "euler-transcritical"
    assert rows[1][8].startswith("8001.6")


@pytest.mark.parametrize("variant, flag, value", [
    ("euler-transcritical", "eps", "inf"),
    ("euler-pitchfork", "h", "nan"),
    ("rk", "rho", "inf"),
    ("euler-transcritical", "rho", "nan"),
])
def test_kstar_rejects_non_finite_parameters(tmp_path, capsys, variant, flag, value):
    out = tmp_path / "kstar.csv"
    argv = {"rho": "4", "h": "0.1", "eps": "0.01", flag: value}
    code = main(["kstar", "--variant", variant, "--out", str(out)]
                + [arg for name, v in argv.items() for arg in (f"--{name}", v)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} must be finite"), lines
    assert not out.exists()


@pytest.mark.parametrize("variant", ["euler-transcritical", "euler-pitchfork", "rk"])
def test_kstar_rejects_zero_eps(tmp_path, capsys, variant):
    """Every variant names eps = 0 alike (rk used to report its vanishing C_i)."""
    out = tmp_path / "kstar.csv"
    code = main(["kstar", "--variant", variant, "--rho", "4", "--h", "0.1", "--eps", "0",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: eps must be > 0, got 0.0"]
    assert not out.exists()


def test_kstar_rk_csv(tmp_path):
    out = tmp_path / "kstar.csv"
    code = main([
        "kstar", "--variant", "rk", "--tableau", "kutta3",
        "--rho", "4", "--h", "0.05", "--eps", "0.1",
        "--digits", "40", "--out", str(out),
    ])
    assert code == 0
    rows, _ = _read_csv(out)
    assert rows[1][7] == "3"  # stage count
    assert float(rows[1][8]) > 1


def test_sweep_surfaces_preset(tmp_path):
    code = main([
        "sweep", "--tableau", "surfaces", "--mode", "linearized",
        "--rho-min", "2", "--rho-max", "6", "--rho-steps", "3",
        "--eps-min", "0.01", "--eps-max", "1", "--eps-steps", "2",
        "--digits", "30", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    csvs = sorted(p.name for p in tmp_path.glob("surface_*.csv"))
    scripts = sorted(p.name for p in tmp_path.glob("surface_*.gp"))
    assert len(csvs) == 5 and len(scripts) == 5
    assert "surface_euler.csv" in csvs

    rows, _ = _read_csv(tmp_path / "surface_euler.csv")
    assert rows[0] == ["rho", "eps", "h_star", "mode", "tableau", "status"]
    assert len(rows) == 7  # header + 3*2 cells
    for row in rows[1:]:
        assert abs(float(row[2]) - 1 / (2 * float(row[0]))) < 1e-12

    script = (tmp_path / "surface_euler.gp").read_text(encoding="utf-8")
    assert "surface_euler.csv" in script  # relative reference


def test_sweep_writes_every_cell_past_a_stuck_one(tmp_path, monkeypatch):
    real_classify = analysis._classify
    labels = {}

    def classify(kind, scheme, params, rho, delta, **kwargs):
        if kwargs.get("settle") is not None:
            res = real_classify(kind, scheme, params, rho, delta, **kwargs)
            if rho == 6:
                # full classifications at every scan point and midpoint from here on
                return JumpResult(JumpClass.STUCK, res.steps, res.point, 0 * res.deviation)
            return res
        seen = labels.setdefault(str(rho), set())
        if rho == 6 and {JumpClass.RIGHT, JumpClass.LEFT} <= seen:
            kwargs["max_n"] = 1  # bracket found: no bisection midpoint can detach
        res = real_classify(kind, scheme, params, rho, delta, **kwargs)
        seen.add(res.label)
        return res

    # the bisection's full labels and prefixes both run through _classify
    monkeypatch.setattr(analysis, "_classify", classify)
    code = main([
        "sweep", "--tableau", "euler", "--mode", "bisection",
        "--rho-min", "5", "--rho-max", "7", "--rho-steps", "3",
        "--eps-min", "1", "--eps-max", "1", "--eps-steps", "1",
        "--digits-target", "4", "--digits", "30", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    rows, _ = _read_csv(tmp_path / "surface_euler.csv")
    assert [row[5] for row in rows[1:]] == ["ok", "stuck", "ok"]
    assert rows[2][2] == ""
    for row in (rows[1], rows[3]):
        assert abs(float(row[2]) - 1 / (2 * float(row[0]))) < 0.01 / float(row[0])


def test_sweep_marks_rootless_cells(tmp_path):
    main([
        "sweep", "--tableau", "heun2", "--mode", "linearized",
        "--rho-min", "2", "--rho-max", "4", "--rho-steps", "2",
        "--eps-min", "0.1", "--eps-max", "0.1", "--eps-steps", "1",
        "--digits", "30", "--out-dir", str(tmp_path),
    ])
    rows, _ = _read_csv(tmp_path / "surface_heun2.csv")
    assert [(row[2], row[5]) for row in rows[1:]] == [("", "no-root")] * 2


def test_sweep_heun2_empty_cells(tmp_path):
    main([
        "sweep", "--tableau", "heun2", "--mode", "linearized",
        "--rho-min", "2", "--rho-max", "4", "--rho-steps", "2",
        "--eps-min", "0.1", "--eps-max", "0.1", "--eps-steps", "1",
        "--digits", "30", "--out-dir", str(tmp_path),
    ])
    rows, _ = _read_csv(tmp_path / "surface_heun2.csv")
    for row in rows[1:]:
        assert row[2] == ""


def test_verify_suite_exit_codes(monkeypatch, capsys):
    assert main(["verify", "--suite", "rk-diagonal", "--digits", "50"]) == 0
    monkeypatch.setitem(checks.SUITES, "rk-diagonal", lambda ctx, rng: (False, "broken"))
    names = ["rk-diagonal", "kahan-birational", "general-form", "a-family"]
    capsys.readouterr()
    assert main(["verify", *(arg for name in names for arg in ("--suite", name))]) == 1
    rows = [row.split()[:2] for row in capsys.readouterr().out.splitlines()]
    assert rows == [[names[0], "FAIL"]] + [[name, "PASS"] for name in names[1:]]


@pytest.mark.parametrize("argv", [["--suite", "nope"], ["--suite", "rk-diagonal", "--suite", "x"],
                                  ["--suite", "nope", "--digits", "16"]])
def test_verify_rejects_unknown_suite(capsys, argv):
    """An unknown suite exits 2 with one error line naming it and the suites there are."""
    assert main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    bad = [name for name in argv[1::2] if name not in checks.SUITES][0]
    assert out == ""
    assert err.splitlines() == [
        f"error: unknown verify suite {bad!r}; choose from {', '.join(sorted(checks.SUITES))}"
    ]


def test_cli_imports_checks_only_for_verify():
    """Importing the command line leaves canardlab.checks unimported."""
    code = "import sys, canardlab.cli; print('canardlab.checks' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("digits", ["49", "16"])
def test_verify_rejects_digits_below_50(capsys, digits):
    assert main(["verify", "--digits", digits]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: verify needs --digits >= 50, the precision its bounds are stated at; got {digits}"
    ]


def test_tableau_file_flag(tmp_path):
    tab = tmp_path / "myrk.tab"
    tab.write_text("2\n1/2 1/2\n1\n", encoding="utf-8")
    out = tmp_path / "orbit.csv"
    code = main([
        "simulate", "--kind", "transcritical", "--scheme", "rk",
        "--tableau-file", str(tab),
        "--h", "0.01", "--eps", "1", "--rho", "0.5", "--delta", "1e-3",
        "--n-max", "100", "--digits", "30", "--out", str(out),
    ])
    assert code == 0


# every command that reads --tableau-file, with a pair that reads it
TABLEAU_FILE_ARGV = {
    "simulate": ["simulate", "--kind", "transcritical", "--scheme", "rk", "--h", "0.1",
                 "--eps", "1", "--rho", "5", "--n-max", "2"],
    "wayout": ["wayout", "--kind", "transcritical", "--scheme", "rk", "--h", "0.1",
               "--eps", "0.1", "--rho", "0.5"],
    "bisect": BISECT_ARGV + BRACKET,
    "kstar": ["kstar", "--variant", "rk", "--rho", "4", "--h", "0.1", "--eps", "0.01"],
}


@pytest.mark.parametrize("command", sorted(TABLEAU_FILE_ARGV))
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_tableau_file_exits_2_with_one_line(tmp_path, capsys, command, target):
    path = tmp_path / "nosuch.tab" if target == "missing" else tmp_path
    out = tmp_path / "x.csv"
    code = main(TABLEAU_FILE_ARGV[command] + ["--tableau-file", str(path), "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bisect"])
@pytest.mark.parametrize("content", ["2\n1/2 1/2\n1/0\n", "2\n1/0 1\n1\n"],
                         ids=["row", "weights"])
def test_tableau_entry_with_zero_denominator_exits_2(tmp_path, capsys, command, content):
    tab = tmp_path / "bad.tab"
    tab.write_text(content, encoding="utf-8")
    out = tmp_path / "x.csv"
    code = main(TABLEAU_FILE_ARGV[command] + ["--tableau-file", str(tab), "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {tab}: entry '1/0' has a zero denominator"], lines
    assert not out.exists()


def test_simulate_out_in_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "nosuch" / "x.csv"
    assert main(OUT_DIGITS_ARGV["simulate"] + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0], lines


def test_sweep_unknown_tableau_exits_2_before_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # "nosuch" is looked up as a file relative to here
    out_dir = tmp_path / "out"
    code = main(["sweep", "--tableau", "nosuch", "--rho-steps", "1", "--eps-steps", "1",
                 "--digits", "20", "--out-dir", str(out_dir)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: unknown tableau 'nosuch'; shipped: "), lines
    assert not out_dir.exists()


def test_sweep_reads_a_tableau_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "myrk.tab").write_text("2\n1/2 1/2\n1\n", encoding="utf-8")
    code = main(["sweep", "--tableau", "myrk.tab", "--rho-steps", "1", "--eps-steps", "1",
                 "--digits", "20", "--out-dir", "out"])
    assert code == 0
    rows, _ = _read_csv(tmp_path / "out" / "surface_myrk.csv")
    assert rows[1][4] == "myrk"
    assert (tmp_path / "out" / "surface_myrk.gp").is_file()


def test_sweep_reads_a_tableau_file_by_path(tmp_path, monkeypatch):
    # the outputs and the tableau column take the file's stem, not its path
    monkeypatch.chdir(tmp_path)
    tab = tmp_path / "tabs" / "myrk.tab"
    tab.parent.mkdir()
    tab.write_text("2\n1/2 1/2\n1\n", encoding="utf-8")
    code = main(["sweep", "--tableau", str(tab), "--rho-steps", "1", "--eps-steps", "1",
                 "--digits", "20", "--out-dir", "out"])
    assert code == 0
    rows, _ = _read_csv(tmp_path / "out" / "surface_myrk.csv")
    assert rows[1][4] == "myrk"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["surface_myrk.csv", "surface_myrk.gp"]


@pytest.mark.parametrize("command", ["simulate", "bisect"])
@pytest.mark.parametrize("content, token", [
    ("2\n1/2 1/2\nabc\n", "entry 'abc' is not a number"),
    ("two\n1/2 1/2\n1\n", "stage count 'two' is not an integer"),
    ("2\n1/2 1/4\n1\n", "weights must sum to 1, got 3/4"),
], ids=["entry", "stage-count", "weight-sum"])
def test_malformed_tableau_file_names_file_and_token(tmp_path, capsys, command, content, token):
    tab = tmp_path / "bad.tab"
    tab.write_text(content, encoding="utf-8")
    out = tmp_path / "x.csv"
    code = main(TABLEAU_FILE_ARGV[command] + ["--tableau-file", str(tab), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {tab}: {token}"]
    assert not out.exists()


def test_sweep_names_a_tableau_file_whose_weights_do_not_sum_to_1(tmp_path, capsys):
    tab = tmp_path / "w.tab"
    tab.write_text("2\n1/2 1/4\n1\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["sweep", "--tableau", str(tab), "--rho-steps", "1", "--eps-steps", "1",
                 "--digits", "20", "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {tab}: weights must sum to 1, got 3/4"]
    assert not out_dir.exists()


def test_outputs_deterministic(tmp_path):
    args = [
        "simulate", "--kind", "transcritical", "--scheme", "kahan",
        "--h", "0.1", "--eps", "1", "--rho", "2", "--delta", "1e-4",
        "--n-max", "200", "--digits", "40",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_stdout(capsys):
    code = main([
        "simulate", "--kind", "pitchfork", "--scheme", "afamily", "--a", "-0.5",
        "--h", "0.1", "--eps", "0.01", "--rho", "1", "--delta", "1e-4",
        "--n-max", "5", "--digits", "30",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith("n,x,y")


# every pair the command line accepts; the listed ones have no map (simulate)
# or no canard multiplier (wayout)
PAIR_ARGS = ["--h", "0.1", "--eps", "0.1", "--rho", "0.5", "--digits", "20"]
NO_PAIR = {
    "simulate": {("transcritical", "afamily"), ("fold", "rk"), ("fold", "afamily")},
    "wayout": {("transcritical", "afamily"), ("fold", "euler"), ("fold", "rk"),
               ("fold", "afamily")},
}


@pytest.mark.parametrize("command", ["simulate", "wayout"])
@pytest.mark.parametrize("kind", ["transcritical", "pitchfork", "fold"])
@pytest.mark.parametrize("scheme", ["euler", "rk", "kahan", "afamily"])
def test_every_kind_scheme_pair(tmp_path, capsys, command, kind, scheme):
    out = tmp_path / "x.csv"
    argv = [command, "--kind", kind, "--scheme", scheme, "--n-max", "400"] + PAIR_ARGS
    if scheme == "afamily":
        argv += ["--a", "0.5"]
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    if (kind, scheme) not in NO_PAIR[command]:
        assert code == 0, err
        assert out.exists()
        return
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert re.search(rf"\b{scheme}\b", lines[0], re.IGNORECASE), lines[0]
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["--kind", "pitchfork", "--scheme", "afamily", "--a", "nan", "--h", "0.1"], "a"),
    (["--kind", "transcritical", "--scheme", "kahan", "--h", "inf"], "h"),
])
def test_wayout_rejects_non_finite_parameters(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    code = main(["wayout"] + argv + ["--eps", "0.01", "--rho", "0.5", "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} must be finite"), lines
    assert not out.exists()


@pytest.mark.parametrize("rho", ["inf", "nan"])
def test_wayout_rejects_non_finite_rho(tmp_path, capsys, rho):
    out = tmp_path / "x.csv"
    code = main(["wayout", "--kind", "transcritical", "--h", "0.1", "--eps", "0.01",
                 "--rho", rho, "--n-max", "10", "--out", str(out)])
    assert code == 2
    value = "+inf" if rho == "inf" else rho
    assert capsys.readouterr().err.splitlines() == [f"error: rho must be finite and > 0, got {value}"]
    assert not out.exists()


# kind, scheme flag, selector, h, eps, start, escape, n-max, and the label at
# 16 and at 50 digits.  The transcritical and fold starts lie on the expanding
# side, 1e-14 and 1e-15 off the canard: below the glue bar tol(3) max(|a|, |b|)
# of their raw deviation at 16 digits, so the orbit is stuck from step 1 there.
JUMP_CASES = [
    ("transcritical", "euler", EULER, "0.05", "0.1", ("0.5", "0.49999999999999"), "1e-6", 2000,
     ("stuck", "right")),
    ("transcritical", "rk", KUTTA3, "0.05", "0.1", ("0.5", "0.49999999999999"), "1e-6", 2000,
     ("stuck", "right")),
    ("pitchfork", "kahan", KAHAN, "0.1", "0.1", ("1e-4", "-1"), "0.01", 1000, ("right", "right")),
    # y0 = x0^2 - (eps/2 + eps^2 h^2 / 8) + 1e-15, on the Kahan map's parabola but for 1e-15
    ("fold", "kahan", KAHAN, "0.1", "0.01", ("0.3", "0.084999875000001"), "1e-6", 2000,
     ("stuck", "right")),
    # --rho 1 --delta 1e-14: at 50 digits it leaves the 4x-scale box (step 500) before it
    # detaches (step 683), so simulate must not stop at the box while undecided
    pytest.param(("transcritical", "euler", EULER, "0.01", "1", ("-1", "-0.99999999999999"),
                  "0.5", 2000, ("stuck", "right")), id="transcritical-euler-box"),
]


@pytest.mark.parametrize("digits", [16, 50])
@pytest.mark.parametrize("case", JUMP_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_simulate_label_matches_raw_classification(tmp_path, digits, case):
    kind, flag, scheme, h, eps, (x0, y0), escape, n_max, labels = case
    out = tmp_path / "orbit.csv"
    code = main([
        "simulate", "--kind", kind, "--scheme", flag, "--tableau", "kutta3", "--h", h,
        "--eps", eps, f"--x0={x0}", f"--y0={y0}", "--escape", escape, "--n-max", str(n_max),
        "--stride", str(n_max), "--digits", str(digits), "--out", str(out),
    ])
    assert code == 0
    _, comments = _read_csv(out)
    label = re.search(r"jump=(\w+)", comments[0]).group(1)

    ctx = make_context(digits)
    params = SystemParams.create(ctx, eps, h)
    start = PlanarPoint(ctx.mpf(x0), ctx.mpf(y0))
    res = classify_jump(SingularityKind(kind), scheme, params, 1, 0, escape=escape, max_n=n_max,
                        track_deviation=False, start=start)
    assert label == res.label.value
    assert label == labels[digits == 50]
