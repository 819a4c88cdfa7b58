"""Span tracing from outside the program.

The tracer replaces the public functions of every ``canardlab`` module, at
every module attribute that refers to them, with wrappers that record one
span per call: (label, parent span, start, end).  The program looks these
attributes up at call time (``analysis.classify_jump`` inside
``critical_h_bisection``, the stepper globals of ``cli``, ``analysis.q_s``
...), so every call that crosses a module boundary is seen without editing
the program.  ``PrecisionContext.nstr`` is wrapped on the class.

Spans are kept in flat arrays while the workload runs and written out once
at the end.  Counts that need a return value (steps of a classification or
way-out, implicit-solver fallbacks) are taken in the same wrappers.
"""

from __future__ import annotations

import gzip
import types
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("precision", "systems", "schemes", "linearization", "analysis", "cli")

STEPPERS = frozenset(
    "schemes." + name
    for name in (
        "euler_step",
        "rk_step",
        "kahan_step_transcritical",
        "kahan_step_fold",
        "kahan_step_pitchfork",
        "a_family_step_pitchfork",
    )
)


def _digits(params) -> str:
    return f"d{params.ctx.digits}"


def _classify_label(args, kwargs) -> str:
    track = kwargs["track_deviation"] if "track_deviation" in kwargs else (
        args[7] if len(args) > 7 else True
    )
    if not track:
        return "analysis.classify_jump/raw." + _digits(args[2])
    scheme = args[1]
    if getattr(scheme, "s", None) == 1:
        return "analysis.classify_jump/deviation.euler"
    if getattr(scheme, "s", None) is not None:
        return "analysis.classify_jump/deviation.rk"
    return "analysis.classify_jump/deviation.other"


# label functions for calls whose metrics are split by an argument
_LABELS = {
    "analysis.classify_jump": _classify_label,
    "schemes.euler_step": lambda args, kwargs: "schemes.euler_step/" + _digits(args[1]),
}


class Tracer:
    def __init__(self):
        self.labels: list = []
        self._ids: dict = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list = []

    def _label_id(self, text: str) -> int:
        i = self._ids.get(text)
        if i is None:
            i = self._ids[text] = len(self.labels)
            self.labels.append(text)
        return i

    def _wrap(self, fn, name: str):
        label_of = _LABELS.get(name)
        fixed = self._label_id(name)
        after = _AFTER.get(name)
        labels, parents, starts, ends = self.label, self.parent, self.start, self.end
        stack = self._stack
        label_id = self._label_id

        def traced(*args, **kwargs):
            idx = len(starts)
            labels.append(fixed if label_of is None else label_id(label_of(args, kwargs)))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, self.labels[labels[idx]], result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the canardlab modules in place."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        wrappers: dict = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                home = value.__module__.rpartition(".")[2]
                if home not in MODULES or not value.__module__.startswith("canardlab."):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, f"{home}.{value.__name__}")
                setattr(mod, attr, wrappers[value])
        ctx_cls = package.precision.PrecisionContext
        ctx_cls.nstr = self._wrap(ctx_cls.nstr, "precision.nstr")

    # -- results --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one gzipped CSV row: id, parent, label, start_s, end_s."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,label,start_s,end_s\n")
            labels = self.labels
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{labels[self.label[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, with counts and self times given per round."""
        n = len(self.start)
        labels = [self.labels[i] for i in self.label]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]

        calls: Counter = Counter()
        total: Counter = Counter()
        self_by_module: Counter = Counter()
        under: Counter = Counter()  # (parent label, child label) -> count
        sim_self = 0.0
        for i in range(n):
            lab = labels[i]
            calls[lab] += 1
            total[lab] += dur[i]
            own = dur[i] - child[i]
            self_by_module[lab.partition(".")[0]] += own
            p = self.parent[i]
            if p >= 0:
                under[(labels[p], lab.partition("/")[0])] += 1
            if lab == "cli.cmd_simulate":
                sim_self += own

        def family(prefix):
            keys = [k for k in calls if k == prefix or k.startswith(prefix + "/")]
            return sum(calls[k] for k in keys), sum(total[k] for k in keys)

        def per(time_s, count, scale=1e6):
            return time_s * scale / count if count else 0.0

        c = self.counts
        m = {}
        raw_steps = c["analysis.classify_jump/raw.d16"] + c["analysis.classify_jump/raw.d50"]
        m["analysis.classify_jump.raw.steps"] = raw_steps / rounds
        for d in ("d16", "d50"):
            lab = "analysis.classify_jump/raw." + d
            m["analysis.classify_jump.raw.us_per_step." + d] = per(total[lab], c[lab])
        dev_steps = sum(v for k, v in c.items() if k.startswith("analysis.classify_jump/deviation."))
        m["analysis.classify_jump.deviation.steps"] = dev_steps / rounds
        for kind in ("euler", "rk"):
            lab = "analysis.classify_jump/deviation." + kind
            m["analysis.classify_jump.deviation.us_per_step." + kind] = per(total[lab], c[lab])
        m["analysis.critical_h_bisection.classifications"] = (
            under[("analysis.critical_h_bisection", "analysis.classify_jump")] / rounds
        )
        solves, solve_s = family("analysis.linearized_critical_h")
        m["analysis.linearized_critical_h.calls"] = solves / rounds
        m["analysis.linearized_critical_h.q_s_calls_per_solve"] = (
            under[("analysis.linearized_critical_h", "linearization.q_s")] / solves if solves else 0.0
        )
        m["analysis.linearized_critical_h.ms_per_solve"] = per(solve_s, solves, 1e3)
        wo_calls, wo_s = family("analysis.wayout")
        m["analysis.wayout.calls"] = wo_calls / rounds
        m["analysis.wayout.steps"] = c["analysis.wayout.steps"] / rounds
        m["analysis.wayout.us_per_step"] = per(wo_s, c["analysis.wayout.steps"])
        for name in ("linearization.q_s", "linearization.jacobian_factor"):
            k, s = family(name)
            m[name + ".calls"] = k / rounds
            m[name + ".us_per_call"] = per(s, k)
        for d in ("d16", "d50", "d5000"):
            lab = "schemes.euler_step/" + d
            m["schemes.euler_step.us_per_call." + d] = per(total[lab], calls[lab])
        k, s = family("schemes.kahan_step_transcritical")
        m["schemes.kahan_step_transcritical.us_per_call"] = per(s, k)
        k, s = family("schemes.a_family_step_pitchfork")
        m["schemes.a_family_step_pitchfork.calls"] = k / rounds
        m["schemes.a_family_step_pitchfork.us_per_call"] = per(s, k)
        m["schemes.a_family_step_pitchfork.cubic_fallbacks"] = (
            c["schemes.a_family_step_pitchfork.cubic"] / rounds
        )
        k, s = family("precision.nstr")
        m["precision.nstr.calls"] = k / rounds
        m["precision.nstr.us_per_call"] = per(s, k)
        sim_steps = sum(v for (par, ch), v in under.items()
                        if par == "cli.cmd_simulate" and ch in STEPPERS)
        m["cli.simulate.us_per_step"] = per(sim_self, sim_steps)
        for mod in MODULES:
            m["self_s." + mod] = self_by_module[mod] / rounds
        return m


def _after_classify(counts, label, result):
    counts[label] += result.steps


def _after_wayout(counts, label, result):
    counts["analysis.wayout.steps"] += result.n_in + result.psi + 1


def _after_afamily(counts, label, result):
    if result.branch_info is not None and result.branch_info.method == "cubic":
        counts["schemes.a_family_step_pitchfork.cubic"] += 1


# hooks that read a call's return value; they run after the span has closed
_AFTER = {
    "analysis.classify_jump": _after_classify,
    "analysis.wayout": _after_wayout,
    "schemes.a_family_step_pitchfork": _after_afamily,
}

#: name, unit of every per-layer metric, in report order
PER_LAYER = (
    [
        ("analysis.classify_jump.raw.steps", "count"),
        ("analysis.classify_jump.raw.us_per_step.d16", "us"),
        ("analysis.classify_jump.raw.us_per_step.d50", "us"),
        ("analysis.classify_jump.deviation.steps", "count"),
        ("analysis.classify_jump.deviation.us_per_step.euler", "us"),
        ("analysis.classify_jump.deviation.us_per_step.rk", "us"),
        ("analysis.critical_h_bisection.classifications", "count"),
        ("analysis.linearized_critical_h.calls", "count"),
        ("analysis.linearized_critical_h.q_s_calls_per_solve", "count"),
        ("analysis.linearized_critical_h.ms_per_solve", "ms"),
        ("analysis.wayout.calls", "count"),
        ("analysis.wayout.steps", "count"),
        ("analysis.wayout.us_per_step", "us"),
        ("linearization.q_s.calls", "count"),
        ("linearization.q_s.us_per_call", "us"),
        ("linearization.jacobian_factor.calls", "count"),
        ("linearization.jacobian_factor.us_per_call", "us"),
        ("schemes.euler_step.us_per_call.d16", "us"),
        ("schemes.euler_step.us_per_call.d50", "us"),
        ("schemes.euler_step.us_per_call.d5000", "us"),
        ("schemes.kahan_step_transcritical.us_per_call", "us"),
        ("schemes.a_family_step_pitchfork.calls", "count"),
        ("schemes.a_family_step_pitchfork.us_per_call", "us"),
        ("schemes.a_family_step_pitchfork.cubic_fallbacks", "count"),
        ("precision.nstr.calls", "count"),
        ("precision.nstr.us_per_call", "us"),
        ("cli.simulate.us_per_step", "us"),
    ]
    + [("self_s." + mod, "s") for mod in MODULES]
    + [("trace.wall_s", "s")]
)
