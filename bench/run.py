"""canardlab benchmark: one workload per process, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload sticky --seed 1 --seconds 15 --trace 0

The workload's set-up (a fresh import of canardlab and mpmath, then building
contexts and inputs) is timed SETUPS times, once before the rounds and the
rest after them, and its median reported as setup_s.  Whole rounds of the
workload's operations run until --seconds are used up (at least one round,
and none that would end past --seconds at the median round time); wall_s is
the median round time.  Both times are corrected for the host's speed while
they were taken (see hostspeed.py); the raw times are kept in the record.
Outputs are checked only after timing has ended.  With --trace 1 the same
rounds run with every canardlab module boundary traced, and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of standard output is the result object; run outputs go to
bench/out/, which is not part of the source tree.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS = 15

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def fresh_setup(build, seed: int, tmp: Path):
    """Import canardlab and mpmath as a new process would, then build a round.

    Returns the set-up time corrected for the host's speed (kernel timed
    just before and just after), the raw time, the package and the round.
    """
    for name in list(sys.modules):
        if name.partition(".")[0] in ("canardlab", "mpmath"):
            del sys.modules[name]
    gc.collect()
    before = hostspeed.bracket_mean()
    t0 = perf_counter()
    pkg = importlib.import_module("canardlab")
    importlib.import_module("canardlab.cli")
    ops = build(pkg, seed, tmp)
    raw = perf_counter() - t0
    speed = (before + hostspeed.bracket_mean()) / 2
    return raw * hostspeed.REF_KERNEL_S / speed, raw, pkg, ops


def run_round(ops, tmp: Path, sampler):
    """Run every operation once.

    Returns the round's raw and corrected times, the mean kernel time,
    the op times and the outcomes.
    """
    outcomes, op_times = [], []
    since = sampler.mark()
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            outcomes.append(op.run())
        except Exception as exc:  # an operation's failure is counted, not fatal
            outcomes.append(exc)
        op_times.append(perf_counter() - t0)
    raw = perf_counter() - start
    corrected, kernel_s = sampler.corrected(raw, since)
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, workloads.CliOutcome):
            for name in op.outputs:
                path = tmp / name
                if path.is_file():
                    outcome.files[name] = path.read_text(encoding="utf-8")
    for child in tmp.iterdir():
        shutil.rmtree(child) if child.is_dir() else child.unlink()
    return raw, corrected, kernel_s, op_times, outcomes


def judge(ops, rounds_outcomes):
    """Count failed operations and collect wrong outputs."""
    failed, wrong, notes = 0, [], set()
    for outcomes in rounds_outcomes:
        for op, outcome in zip(ops, outcomes):
            try:
                if isinstance(outcome, Exception):
                    raise checks.Failed(f"{type(outcome).__name__}: {outcome}")
                op.judge(outcome)
            except checks.Failed as err:
                failed += 1
                notes.add(f"failed {op.name}: {err}")
            except checks.Wrong as err:
                wrong.append(f"wrong {op.name}: {err}")
            except Exception as err:  # a check that cannot read the output
                wrong.append(f"wrong {op.name}: {type(err).__name__}: {err}")
    return failed, wrong, sorted(notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "canardlab" / "__init__.py").is_file():
        print(f"error: no canardlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp: Path) -> int:
    build = workloads.WORKLOADS[args.workload]
    t, raw, pkg, ops = fresh_setup(build, args.seed, tmp)
    setup_times, setup_raw = [t], [raw]
    if Path(pkg.__file__).resolve().parent != SRC / "canardlab":
        print(f"error: imported canardlab from {pkg.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(pkg)

    raw_times, times, kernel_s, op_times, rounds = [], [], [], [], []
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        start = perf_counter()
        # whole rounds, as many as fit in the run time: start another only
        # while a round of median length still ends within it
        while (not raw_times
               or perf_counter() - start + statistics.median(raw_times) <= args.seconds):
            raw, corrected, k, op_t, outcomes = run_round(ops, tmp, sampler)
            raw_times.append(raw)
            times.append(corrected)
            kernel_s.append(k)
            op_times.append(op_t)
            rounds.append(outcomes)
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the other set-ups come after the rounds, so that the modules they leave
    # behind do not count in peak_rss_mb
    for _ in range(SETUPS - 1):
        t, raw, _, _ = fresh_setup(build, args.seed, tmp)
        setup_times.append(t)
        setup_raw.append(raw)

    failed, wrong, notes = judge(ops, rounds)
    for line in notes + wrong[:20]:
        print(line, file=sys.stderr)

    if tracer is None:
        values = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        values = tracer.metrics(len(times))
        values["trace.wall_s"] = statistics.median(times)
        units = dict(tracing.PER_LAYER)
        tracer.write(OUT / f"{args.workload}-spans.csv.gz")
    result = {
        "correct": not wrong,
        "attempted": len(ops) * len(times),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(times), round_s=times, round_raw_s=raw_times,
                  kernel_us=[k * 1e6 for k in kernel_s], kernel_samples=len(sampler.samples),
                  setup_s=setup_times, setup_raw_s=setup_raw,
                  op_s=[dict(zip((op.name for op in ops), t)) for t in op_times])
    (OUT / f"{args.workload}-trace{args.trace}-result.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
