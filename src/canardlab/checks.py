"""Structural property checks, shared by `canardlab verify` and the acceptance gate.

Every check is a plain function check(ctx, rng) -> (ok, detail): it runs its
cases at the precision of ctx, draws any random cases from rng, and returns
whether all of them held and a one-line detail.  On failure the detail names
the first failing case; on success it summarises what was checked.

Five checks are the bodies of acceptance criteria (tests/test_acceptance.py):
wayout_lattice (4), kahan_symmetry (5), kstar_bounds (6), fold_structure (7)
and fd_jacobian (9).  Their bounds are stated at DIGITS working digits and go
vacuous below it.  The other four check the schemes themselves.  SUITES maps
the `verify` suite names to the checks, in the order `verify` runs them.
"""

from __future__ import annotations

from dataclasses import replace

from .analysis import (
    kstar_pitchfork_euler,
    kstar_rk,
    kstar_transcritical_euler,
    rk_cbar,
    rk_theta0,
    wayout,
)
from .linearization import (
    CANARDS,
    KAHAN,
    AFamily,
    finite_difference_factor,
    jacobian_factor,
    q_s,
    symmetry_defect,
)
from .rounding import abs_le, mul, pack, split, sub
from .schemes import (
    EULER,
    KUTTA3,
    SHIPPED_TABLEAUX,
    QuadraticField,
    _on_point,
    a_family_step_pitchfork,
    kahan_fold_kernel,
    kahan_step_general,
    kahan_transcritical_kernel,
    rk_kernel,
)
from .systems import (
    PlanarPoint,
    SingularityKind,
    SystemParams,
    fold_first_integral,
    fold_kahan_parabola_offset,
    fold_rk_reduced_gap,
    fold_slow_solutions,
)

T = SingularityKind.TRANSCRITICAL
P = SingularityKind.PITCHFORK
F = SingularityKind.FOLD

#: Working digits the acceptance bounds are stated at; `verify` rejects fewer.
DIGITS = 50


def _name(scheme):
    return getattr(scheme, "name", scheme)


def rk_diagonal(ctx, rng):
    params = SystemParams.create(ctx, "0.01", "0.1")
    tol = ctx.tol(5)
    worst = ctx.mpf(0)
    for tab in SHIPPED_TABLEAUX.values():
        step = rk_kernel(tab, T, params)
        for xs in ("-2", "-1", "-0.3", "0", "0.7", "1.5"):
            x = ctx.mpf(xs)
            p = _on_point(step, params, PlanarPoint(x, x))
            if p.x != p.y:
                return False, f"diagonal broken for {tab.name} at x={xs}"
            worst = max(worst, abs(p.x - (x + params.epsilon * params.h)))
    return worst <= tol, f"max slow-speed defect {ctx.nstr(worst, 3)}"


def kahan_symmetry(ctx, rng):
    """Criterion 5: |J(c+d) J(c-d) - 1| <= tol(10) for d = i/200, i = 1..1000."""
    params = SystemParams.create(ctx, "0.01", "0.1")
    tol = ctx.tol(10)
    cases = [
        (T, KAHAN),
        (F, KAHAN),
        (P, AFamily(ctx.mpf(-1) / 2)),
        (P, AFamily(ctx.mpf(0))),
        (P, AFamily(ctx.mpf(1) / 2)),
    ]
    worst = ctx.mpf(0)
    for kind, scheme in cases:
        c = CANARDS[kind].center(params)
        for i in range(1, 1001):
            d = ctx.mpf(i) / 200  # up to 5, inside the pole radius ~10
            defect = symmetry_defect(kind, scheme, params, c + d)
            if not defect <= tol:
                return False, (f"{kind.value} {_name(scheme)}: pairing defect"
                               f" {ctx.nstr(defect, 3)} at d={i}/200")
            worst = max(worst, defect)
    return True, f"max pairing defect {ctx.nstr(worst, 3)}"


def kahan_birational(ctx, rng):
    params = SystemParams.create(ctx, "0.01", "0.1")
    rev = replace(params, h=-params.h)
    trips = [(k(params), k(rev)) for k in (kahan_fold_kernel, kahan_transcritical_kernel)]
    worst = ctx.mpf(0)
    for _ in range(40):
        x = ctx.mpf(rng.uniform(-3, 3))
        y = ctx.mpf(rng.uniform(-3, 3))
        for step, back in trips:
            bx, by = (ctx.make_mpf(pack(v)) for v in back(*step(split(x._mpf_), split(y._mpf_))))
            worst = max(worst, abs(bx - x), abs(by - y))
    return worst <= ctx.tol(10), f"max round-trip defect {ctx.nstr(worst, 3)}"


def general_form(ctx, rng):
    params = SystemParams.create(ctx, "0.01", "0.05")
    f_tc = QuadraticField.transcritical(ctx, params.epsilon)
    f_fold = QuadraticField.fold(ctx, params.epsilon)
    fold, tc = kahan_fold_kernel(params), kahan_transcritical_kernel(params)
    worst = ctx.mpf(0)
    for _ in range(40):
        x = ctx.mpf(rng.uniform(-2, 2))
        y = ctx.mpf(rng.uniform(-2, 2))
        p = PlanarPoint(x, y)
        for step, field in ((tc, f_tc), (fold, f_fold)):
            a, b = _on_point(step, params, p), kahan_step_general(field, params.h, p)
            worst = max(worst, abs(a.x - b.x), abs(a.y - b.y))
    return worst <= ctx.tol(10), f"max specialization defect {ctx.nstr(worst, 3)}"


def a_family(ctx, rng):
    params = SystemParams.create(ctx, "0.01", "0.1")
    worst = ctx.mpf(0)
    for a_txt in ("-0.5", "0", "0.5"):
        a = ctx.mpf(a_txt)
        for _ in range(20):
            x = ctx.mpf(rng.uniform(-1, 1))
            y = ctx.mpf(rng.uniform(-2, 1))
            res = a_family_step_pitchfork(a, params, PlanarPoint(x, y))
            worst = max(worst, abs(res.branch_info.residual))
            back = a_family_step_pitchfork(a, params, res.point, reverse=True).point
            worst = max(worst, abs(back.x - x), abs(back.y - y))
    ok = worst <= ctx.tol(10)
    return ok, f"max residual / round-trip defect {ctx.nstr(worst, 3)}"


def fold_structure(ctx, rng):
    """Criterion 7: parabola invariance, slow-solution and reduced-map gaps, first integral."""
    params = SystemParams.create(ctx, "0.01", "0.1")
    offset = fold_kahan_parabola_offset(params)
    tol = ctx.tol(10)

    # canard passage: 10^4 iterates approaching along the attracting branch
    # and crossing the fold point (ending just past it, where accumulated
    # rounding is not yet re-amplified by the repelling branch)
    prec, off = ctx.prec, split(offset._mpf_)
    x0 = ctx.mpf("0.1") - 10_000 * params.epsilon * params.h / 2
    x, y = split(x0._mpf_), split((x0 * x0 - offset)._mpf_)
    step, worst = kahan_fold_kernel(params), (0, 0)
    for _ in range(10_000):
        x, y = step(x, y)
        d = sub(y, sub(mul(x, x, prec), off, prec), prec)
        if not abs_le(d, worst):
            worst = d
    worst, x = (ctx.make_mpf(pack(v)) for v in ((abs(worst[0]), worst[1]), x))
    if not worst <= tol:
        return False, f"parabola residual {ctx.nstr(worst, 3)}"
    if not abs(x - ctx.mpf("0.1")) < ctx.tol(20):
        return False, f"passage ends at x={ctx.nstr(x, 8)}, not past the fold point"

    h = params.h
    if not (
        fold_slow_solutions(-h / 2, h) is None
        and fold_slow_solutions(ctx.mpf(0), h) is not None
        and fold_slow_solutions(-h, h) is not None
    ):
        return False, "slow-solution gap mismatch"

    h = ctx.mpf("0.125")  # exactly representable step
    for tab in SHIPPED_TABLEAUX.values():
        if tab.s < 2:
            continue
        edge = h * ctx.mpf(tab.a[1][0])
        gap = (-edge / 2, -edge * ctx.mpf("0.999"), -edge * ctx.mpf("0.001"))
        outside = (-edge * ctx.mpf("1.001"), ctx.mpf("1e-30"), ctx.mpf(1))
        # the gap's boundary points -edge and 0 belong to the domain
        for x in (-edge, ctx.mpf(0)) + gap + outside:
            if fold_rk_reduced_gap(tab, x, h) == (x in gap):
                return False, f"{tab.name}: reduced-map gap mismatch at x={ctx.nstr(x, 8)}"

    for eps_txt in ("1", "0.01"):
        eps = ctx.mpf(eps_txt)
        for i in range(-20, 21):
            x = ctx.mpf(i) / 10
            residual = abs(fold_first_integral(PlanarPoint(x, x * x - eps / 2), eps))
            if not residual <= tol:
                return False, f"first integral {ctx.nstr(residual, 3)} at eps={eps_txt}, x={i}/10"
            worst = max(worst, residual)
    return True, f"max invariant residual {ctx.nstr(worst, 3)}"


def wayout_lattice(ctx, rng):
    """Criterion 4: Kahan psi = N on the lattice, psi in {N+1, N+2} off it."""
    for h_txt, eps_txt in (("0.01", "0.01"), ("0.01", "1"), ("0.1", "0.01"), ("0.1", "1")):
        params = SystemParams.create(ctx, eps_txt, h_txt)
        for kind, canard in CANARDS.items():
            spacing, center = canard.spacing(params), canard.center(params)
            for n in range(1, 101):
                res = wayout(kind, KAHAN, params, n * spacing - center)
                if res.n_in != n or res.psi != n:
                    return False, (f"{kind.value} h={h_txt} eps={eps_txt}: N={res.n_in},"
                                   f" psi={res.psi} at lattice N={n}")
    params = SystemParams.create(ctx, "0.01", "0.1")
    for kind, canard in CANARDS.items():
        spacing, center = canard.spacing(params), canard.center(params)
        for _ in range(100):
            n = rng.randint(1, 60)
            frac = ctx.mpf(rng.uniform(0.02, 0.98))
            res = wayout(kind, KAHAN, params, (n + frac) * spacing - center)
            if res.n_in != n or res.psi not in (n + 1, n + 2):
                return False, (f"{kind.value}: N={res.n_in}, psi={res.psi}"
                               f" at N + {ctx.nstr(frac, 5)}, N={n}")
    return True, "psi = N at N = 1..100 on 4 (h, eps); psi in {N+1, N+2} at 300 draws between"


def _exit_count(ctx, factor, cap=100_000):
    """First k with factor(0) ... factor(k-1) >= 1, or None within cap factors."""
    prod = ctx.mpf(1)
    k = 0
    while k < cap:
        prod *= factor(k)
        k += 1
        if prod >= 1:
            return k
    return None


def _bound_violation(ctx, label, draw):
    """First of 100 drawn cases whose exit count falls below K* - tol(20), or None.

    draw() returns (k_exit, kstar, case) or None for a case that does not count;
    case names the drawn parameters.
    """
    checked = 0
    while checked < 100:
        case = draw()
        if case is None:
            continue
        k_exit, kstar, where = case
        if not k_exit >= kstar - ctx.tol(20):
            return f"{label} bound violated at {where}: K={k_exit} < K*={ctx.nstr(kstar, 8)}"
        checked += 1
    return None


def kstar_bounds(ctx, rng):
    """Criterion 6: K* lower bounds sound on random parameters, and their divergence."""

    def where(h, eps, rho):
        return f"h={ctx.nstr(h, 8)} eps={ctx.nstr(eps, 8)} rho={ctx.nstr(rho, 8)}"

    eulers = (("euler-transcritical", 2, kstar_transcritical_euler),
              ("euler-pitchfork", 1, kstar_pitchfork_euler))

    def euler(c, kstar):
        """Draws for forward Euler, whose entry multiplier is 1 - c h rho."""
        def draw():
            h = ctx.mpf(rng.uniform(0.05, 0.4))
            eps = ctx.mpf(rng.uniform(0.2, 1.0))
            rho = ctx.mpf(rng.uniform(0.1, 0.9)) / (c * h)
            k_exit = _exit_count(ctx, lambda k: 1 - c * h * (rho - k * h * eps))
            if k_exit is None:
                return None
            return k_exit, kstar(ctx, rho, h, eps), where(h, eps, rho)
        return draw

    tabs = [SHIPPED_TABLEAUX[n] for n in ("heun2", "kutta3", "heun3", "ralston3", "ssprk3")]

    def rk():
        tab = rng.choice(tabs)
        h = ctx.mpf(rng.uniform(0.05, 0.3))
        eps = ctx.mpf(rng.uniform(0.2, 1.0))
        params = SystemParams.create(ctx, eps, h)
        rho = ctx.mpf(rng.uniform(0.1, 0.8)) / (2 * h)
        theta0 = rk_theta0(tab, params, rho)
        if not (0 < theta0 < 1):
            return None
        heps = h * eps
        k_exit = _exit_count(ctx, lambda k: 1 + h * q_s(tab, params, -rho + k * heps))
        if k_exit is None or k_exit <= 2:
            return None
        kstar = kstar_rk(ctx, theta0, rk_cbar(tab, params, rho), tab.s)
        return k_exit, kstar, f"{tab.name} {where(h, eps, rho)}"

    for label, draw in [(label, euler(c, kstar)) for label, c, kstar in eulers] + [("rk", rk)]:
        violation = _bound_violation(ctx, label, draw)
        if violation:
            return False, violation

    # divergence claims as monotone growth toward the critical entry
    h, eps = ctx.mpf("0.3"), ctx.mpf(1)
    for label, c, kstar in eulers:
        rhos = [(1 - ctx.mpf(10) ** -j) / (c * h) for j in range(1, 31)]
        exits = [-rho + kstar(ctx, rho, h, eps) * h * eps for rho in rhos]
        if not (all(b > a for a, b in zip(exits, exits[1:])) and exits[-1] > 10):
            return False, f"{label} K* exit position does not diverge toward the critical entry"
    return True, "300 random bound checks and 2 divergence checks passed"


def fd_jacobian(ctx, rng):
    """Criterion 9: finite-difference multipliers within 1e-20 relative of the closed forms."""
    params = SystemParams.create(ctx, "0.01", "0.1")
    delta = ctx.mpf("1e-25")
    bar = ctx.mpf("1e-20")
    cases = [
        (T, EULER),
        (T, SHIPPED_TABLEAUX["heun2"]),
        (T, KUTTA3),
        (T, SHIPPED_TABLEAUX["ssprk3"]),
        (T, KAHAN),
        (P, EULER),
        (P, KUTTA3),
        (P, AFamily(ctx.mpf(-1) / 2)),
        (P, AFamily(ctx.mpf(0))),
        (P, AFamily(ctx.mpf(1) / 2)),
        (F, KAHAN),
    ]
    worst = ctx.mpf(0)
    for kind, scheme in cases:
        for s_txt in ("-0.9", "-0.4", "-0.05", "0.2", "0.8"):
            s = ctx.mpf(s_txt)
            jac = jacobian_factor(kind, scheme, params, s)
            fd = finite_difference_factor(kind, scheme, params, s, delta)
            defect = abs(fd - jac)
            if not defect <= bar * abs(jac):
                return False, (f"{kind.value} {_name(scheme)}: FD defect {ctx.nstr(defect, 3)}"
                               f" against |J|={ctx.nstr(abs(jac), 3)} at s={s_txt}")
            worst = max(worst, defect / abs(jac))
    return True, f"max relative FD defect {ctx.nstr(worst, 3)}"


SUITES = {
    "rk-diagonal": rk_diagonal,
    "kahan-symmetry": kahan_symmetry,
    "kahan-birational": kahan_birational,
    "general-form": general_form,
    "a-family": a_family,
    "fold-structure": fold_structure,
    "wayout-lattice": wayout_lattice,
    "kstar-bounds": kstar_bounds,
    "fd-jacobian": fd_jacobian,
}
