"""Command-line front end.

Five subcommands cover the library surface: ``measure`` evaluates a
named state, ``delta`` runs the grid optimization with its bounds,
``sweep`` tabulates a one-parameter family as CSV, ``verify`` runs the
certification battery, and ``dump`` emits a state matrix for external
tools.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import states
from .certify import condition1_check, fixed_point_check, zero_discord_check
from .classicalize import (
    DEFAULT_GRID,
    delta,
    ensemble_values,
    global_value,
    grid_tolerance,
)
from .matcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    as_density,
    kron,
    matrix_to_csv,
    matrix_to_jsonable,
    numeric_rank,
    partial_trace,
    partial_transpose,
    tripartite_cuts,
    von_neumann_entropy,
)
from .measures import (
    MeasureKind,
    negativity,
    post_value,
    ppt_verdict,
    pure_negativity_schmidt,
    squashed_pure_tripartite,
    tripartite_negativity,
)

# Families whose single real parameter can be swept from the CLI.
SWEEPABLE = {
    "psi": "p",
    "rho": "q",
    "hdk": "t",
    "ak": "y",
    "ph": "z",
    "heis": "T",
}


class UsageError(Exception):
    """Bad flags or a precondition violation; maps to exit code 2."""


def _fmt(x: float) -> str:
    # 12 significant digits, '.' decimal separator, no locale
    return format(float(x), ".12g")


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--grid wants NX,NT, got {text!r}")
    try:
        nx, nt = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--grid wants two integers, got {text!r}") from None
    return nx, nt


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--range wants A,B,N, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"--range wants two floats and an integer, got {text!r}") from None
    if steps < 2:
        raise UsageError(f"--range needs at least 2 steps, got {steps}")
    if not start < stop:
        raise UsageError(f"--range needs A < B, got {start} >= {stop}")
    return start, stop, steps


def _load_state(spec: str):
    return states.parse_state_spec(spec)


def _measure_list(requested) -> list[str]:
    if not requested:
        return [MeasureKind.NEGATIVITY.value]
    seen = []
    for m in requested:
        if m not in seen:
            seen.append(m)
    return seen


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(payload: dict, lines: list[str], args) -> None:
    if args.format == "json":
        _write_text(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _write_text("".join(line + "\n" for line in lines), args.output)


# ---------------------------------------------------------------------------
# subcommands


def cmd_measure(args) -> int:
    st = _load_state(args.state)
    rho = as_density(st)
    values = {m: global_value(st, m) for m in _measure_list(args.measure)}
    cuts = {cut.label(): negativity(rho, cut) for cut in tripartite_cuts()}
    ents = {
        "ABC"[k]: von_neumann_entropy(partial_trace(rho, (k,)))
        for k in range(3)
    }
    payload = {
        "state": args.state,
        "dims": list(rho.dims),
        "values": values,
        "bipartite_negativity": cuts,
        "marginal_entropy": ents,
    }
    lines = [f"state: {args.state}", "dims: " + "x".join(str(d) for d in rho.dims)]
    lines += [f"{m}: {_fmt(v)}" for m, v in values.items()]
    lines += [f"negativity {label}: {_fmt(v)}" for label, v in cuts.items()]
    lines += [f"entropy {sub}: {_fmt(v)}" for sub, v in ents.items()]
    _emit(payload, lines, args)
    return 0


def cmd_delta(args) -> int:
    st = _load_state(args.state)
    grid = _parse_grid(args.grid)
    res = delta(st, args.measure, grid)
    payload = res.to_jsonable()
    lines = [
        f"state: {args.state}",
        f"measure: {args.measure}",
        f"grid: {grid[0]}x{grid[1]}",
        f"global: {_fmt(res.global_value)}",
        f"ensemble: {_fmt(res.ensemble_value)}",
        f"delta: {_fmt(res.delta)}",
        "best direction: "
        + " ".join(f"{k}={v:.6f}" for k, v in res.best_direction.angle_dict().items()),
        "outcome probs: "
        + " ".join(_fmt(out.prob) for out in res.ensemble),
        f"lower bound: {_fmt(res.lower_bound)}",
        f"upper bound: {_fmt(res.upper_bound)}",
    ]
    _emit(payload, lines, args)
    return 0


def cmd_sweep(args) -> int:
    family = args.state
    if ":" in family:
        raise UsageError(
            "sweep wants a bare family name; the swept parameter comes from --range"
        )
    if family not in SWEEPABLE:
        raise UsageError(
            f"family {family!r} has no single swept parameter; "
            f"choose one of {', '.join(sorted(SWEEPABLE))}"
        )
    if args.sweep_range is not None:
        start, stop, steps = _parse_range(args.sweep_range)
    elif family in ("psi", "rho"):
        start, stop, steps = 0.0, 1.0, 21
    else:
        raise UsageError(f"family {family!r} needs an explicit --range A,B,N")
    grid = _parse_grid(args.grid)
    measure_names = _measure_list(args.measure)

    header = ["param"]
    for m in measure_names:
        header += [f"{m}_global", f"{m}_delta", f"{m}_lower", f"{m}_upper"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for param in np.linspace(start, stop, steps):
        st = _load_state(f"{family}:{float(param)!r}")
        row = [_fmt(param)]
        for m in measure_names:
            res = delta(st, m, grid)
            row += [
                _fmt(res.global_value),
                _fmt(res.delta),
                _fmt(res.lower_bound),
                _fmt(res.upper_bound),
            ]
        writer.writerow(row)
    _write_text(buf.getvalue(), args.output)
    if args.output is not None:
        print(f"wrote {args.output} ({steps} rows)")
    return 0


def cmd_verify(args) -> int:
    grid = _parse_grid(args.grid)
    results = run_suite(args.suite, seed=args.seed, grid=grid, tol=args.tol)
    passed = all(r.passed for r in results)
    payload = {
        "suite": args.suite,
        "grid": list(grid),
        "seed": args.seed,
        "passed": passed,
        "checks": [r.to_jsonable() for r in results],
    }
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status} {r.name}  margin={r.margin:.3e}  ({r.seconds:.2f}s)  {r.detail}"
        )
    n_ok = sum(r.passed for r in results)
    lines.append(f"suite {args.suite}: {n_ok}/{len(results)} checks passed")
    _emit(payload, lines, args)
    return 0 if passed else 1


def cmd_dump(args) -> int:
    rho = as_density(_load_state(args.state))
    if args.format == "csv":
        text = matrix_to_csv(rho.data)
    else:
        text = json.dumps(matrix_to_jsonable(rho.data)) + "\n"
    _write_text(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# verification battery
#
# Each check returns a CheckResult with a numeric margin: the distance
# to its tightest tolerance, positive on pass.  The acceptance test
# suite drives the same functions.


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str
    seconds: float

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "margin": self.margin,
            "seconds": self.seconds,
            "detail": self.detail,
        }


def _timed(name: str, started: float, margin: float, detail: str, ok: bool = True) -> CheckResult:
    return CheckResult(
        name, bool(ok and margin >= 0), float(margin), detail, time.perf_counter() - started
    )


def check_bells_locking(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """delta of n Bell pairs is 2^(n-2) + 1/2, independent of direction."""
    t0 = time.perf_counter()
    margins, notes, ok = [], [], True
    for n, want, budget in ((2, 1.5, 30.0), (3, 2.5, 120.0)):
        tn = time.perf_counter()
        st = states.bell_pairs(n)
        gval = global_value(st, MeasureKind.NEGATIVITY)
        vals = ensemble_values(st, MeasureKind.NEGATIVITY, grid)
        dev = abs(gval - float(vals.max()) - want)
        spread = float(vals.max() - vals.min())
        elapsed = time.perf_counter() - tn
        margins += [1e-9 - dev, 1e-9 - spread]
        ok = ok and elapsed <= budget
        notes.append(f"n={n}: dev {dev:.2e} spread {spread:.2e} in {elapsed:.1f}s")
    return _timed("bells-locking", t0, min(margins), "; ".join(notes), ok)


def check_pair_saturation(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Maximally entangled pair negativity reaches (d-1)/2."""
    t0 = time.perf_counter()
    devs = []
    for d in range(2, 6):
        amp = np.zeros(d * d, dtype=complex)
        amp[:: d + 1] = 1.0 / np.sqrt(d)
        n = negativity(PureState(amp, (d, d)), Bipartition((0,), (1,)))
        devs.append(abs(n - (d - 1) / 2))
    worst = max(devs)
    return _timed("pair-saturation", t0, 1e-12 - worst, f"worst dev {worst:.2e} over d=2..5")


def check_qutrit_values(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Qutrit-C benchmark deltas for both measures."""
    t0 = time.perf_counter()
    targets = {
        "ghz3": (1.667, 0.792489),
        "sym3": (1.86747, 0.971332),
    }
    devs, ok = [], True
    notes = []
    for name, (want_neg, want_sq) in targets.items():
        tn = time.perf_counter()
        st = _load_state(name)
        dn = delta(st, MeasureKind.NEGATIVITY, grid).delta
        ds = delta(st, MeasureKind.SQUASHED, grid).delta
        elapsed = time.perf_counter() - tn
        devs += [abs(dn - want_neg), abs(ds - want_sq)]
        ok = ok and elapsed <= 60.0
        notes.append(f"{name}: ({dn:.5f}, {ds:.6f}) in {elapsed:.1f}s")
    return _timed("qutrit-values", t0, 1e-2 - max(devs), "; ".join(notes), ok)


def check_superposition_sweep(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Sweeping the GHZ/W superposition: minimum near p=0.4, maximum at p=0."""
    t0 = time.perf_counter()
    ps = np.linspace(0.0, 1.0, 21)
    margins, notes = [], []
    for measure in (MeasureKind.NEGATIVITY, MeasureKind.SQUASHED):
        deltas = np.array(
            [delta(states.ghz_w_superposition(p), measure, grid).delta for p in ps]
        )
        p_min = float(ps[int(np.argmin(deltas))])
        end_dev = abs(float(deltas[-1]) - 0.5)
        margins += [
            0.05 - abs(p_min - 0.4),
            float(deltas[0] - deltas[1:].max()),
            1e-3 - end_dev,
        ]
        notes.append(
            f"{measure.value}: min at p={p_min:.2f}, delta(1) off by {end_dev:.1e}"
        )
    return _timed("superposition-sweep", t0, min(margins), "; ".join(notes))


def _sandwich_gap(st, grid) -> float:
    """Raw slack min(delta - lower, upper - delta, global - upper) of the chain."""
    res = delta(st, MeasureKind.NEGATIVITY, grid)
    dv, up = res.delta, res.upper_bound
    return min(dv - res.lower_bound, up - dv, res.global_value - up)


def check_sandwich_sweeps(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """lower <= delta <= upper <= global along both benchmark sweeps."""
    t0 = time.perf_counter()
    gap = min(
        _sandwich_gap(_load_state(f"{family}:{float(param)!r}"), grid)
        for family in ("psi", "rho")
        for param in np.linspace(0.0, 1.0, 21)
    )
    return _timed("sandwich-sweeps", t0, gap + 1e-9, f"worst chain gap {gap:.2e}")


def check_sandwich_random(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """The same chain on 200 seeded random three-qubit mixed states."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    gaps = [
        _sandwich_gap(states.random_density_matrix((2, 2, 2), rng), grid) for _ in range(200)
    ]
    gap = min(gaps)
    hits = sum(g + 1e-9 >= 0 for g in gaps)
    return _timed(
        "sandwich-random", t0, gap + 1e-9, f"{hits}/200 hold; worst chain gap {gap:.2e}"
    )


def check_flower_lock(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Flower states lose nothing despite entanglement across AB|C."""
    t0 = time.perf_counter()
    margins, ok, notes = [], True, []
    for d in (2, 3):
        st = states.flower_state(d)
        res = delta(st, MeasureKind.NEGATIVITY, grid)
        dv, up = res.delta, res.upper_bound
        disc = zero_discord_check(st, grid)
        resid = fixed_point_check(st, disc.basis if disc.status == "yes" else None)
        margins += [1e-10 - abs(dv), up - 0.1, 1e-12 - resid]
        ok = ok and disc.status == "yes"
        notes.append(f"d={d}: delta {dv:.1e}, upper {up:.3f}, discord {disc.status}")
    return _timed("flower-lock", t0, min(margins), "; ".join(notes), ok)


def check_tilde_scan(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Every direction leaves the rank-4 PPT-invariant state separable."""
    t0 = time.perf_counter()
    rep = condition1_check(states.tilde_state(), grid, tol)
    detail = f"{rep.status} on {rep.directions_checked} directions, worst {rep.witness:.2e}"
    return _timed("tilde-scan", t0, rep.witness + tol, detail, rep.passed)


def check_ghz_scan_rejects(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """The scan must catch GHZ: some direction leaves an NPT pair."""
    t0 = time.perf_counter()
    rep = condition1_check(states.ghz_state(), grid, tol)
    ok = rep.status == "fail" and rep.direction is not None
    angles = rep.direction.angle_dict() if rep.direction is not None else {}
    detail = f"{rep.status}, witness {rep.witness:.3f} at " + " ".join(
        f"{k}={v:.4f}" for k, v in angles.items()
    )
    return _timed("ghz-scan-rejects", t0, -rep.witness - tol, detail, ok)


def check_upb_scan(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """The unextendible-product-basis state passes the full scan."""
    t0 = time.perf_counter()
    rep = condition1_check(states.upb_state(), grid, tol)
    detail = f"{rep.status} on {rep.directions_checked} directions, worst {rep.witness:.2e}"
    return _timed("upb-scan", t0, rep.witness + tol, detail, rep.passed)


def check_tilde_complete_loss(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Full certification of the rank-4 complete-loss state."""
    t0 = time.perf_counter()
    st = states.tilde_state()
    pt_a = partial_transpose(st, Bipartition((1, 2), (0,)))
    min_eig = float(np.linalg.eigvalsh(pt_a)[0])
    pt_c = partial_transpose(st, Bipartition((0, 1), (2,)))
    pt_c_exact = bool(np.array_equal(pt_c, st.data))
    swap = [b * 4 + a * 2 + c for a in range(2) for b in range(2) for c in range(2)]
    swap_exact = bool(np.array_equal(st.data[np.ix_(swap, swap)], st.data))
    rank = numeric_rank(st, 1e-8)
    rep = condition1_check(st, grid, tol)
    n_grid = (grid[0] + 1) * (grid[1] + 1)
    res = delta(st, MeasureKind.NEGATIVITY, grid)
    loss_dev = abs(res.delta - res.global_value)
    margin = min(
        1e-9 - abs(min_eig + 0.125),
        rep.witness + tol,
        2 * grid_tolerance(grid) - loss_dev,
    )
    ok = (
        pt_c_exact
        and swap_exact
        and rank == 4
        and rep.passed
        and rep.directions_checked == n_grid
    )
    detail = (
        f"min PT_A eig {min_eig:.6f}, PT_C exact {pt_c_exact}, swap exact {swap_exact}, "
        f"rank {rank}, scan {rep.status} on {rep.directions_checked}, "
        f"delta vs total dev {loss_dev:.2e}"
    )
    return _timed("tilde-complete-loss", t0, margin, detail, ok)


def check_zoo_ranks_ppt(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Ranks (4, 7, 8, 5) for the PPT zoo, PPT on every bipartition."""
    t0 = time.perf_counter()
    zoo = [
        ("upb", states.upb_state(), 4),
        ("adma:2,3,5", states.adma_state(2, 3, 5), 7),
        ("ak:2.5", states.ak_state(2.5), 8),
        ("ph:1", states.ph_state(1.0), 5),
    ]
    ok = True
    worst = np.inf
    ranks = []
    for name, st, want in zoo:
        rank = numeric_rank(st, 1e-8)
        ranks.append(rank)
        ok = ok and rank == want
        for cut in tripartite_cuts():
            worst = min(worst, ppt_verdict(st, cut).witness)
    detail = f"ranks {tuple(ranks)}, worst witness {worst:.2e}"
    return _timed("zoo-ranks-ppt", t0, worst + 1e-10, detail, ok)


def check_hdk_cut_structure(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """One PPT cut, two NPT cuts, and a rank-4 pair marginal."""
    t0 = time.perf_counter()
    st = states.hdk_state()
    w = {cut.label(): ppt_verdict(st, cut).witness for cut in tripartite_cuts()}
    rank_ab = numeric_rank(partial_trace(st, (0, 1)), 1e-8)
    margin = min(
        w["AB|C"] + 1e-12,
        -1e-4 - w["BC|A"],
        -1e-4 - w["AC|B"],
    )
    detail = (
        f"AB|C {w['AB|C']:.2e}, BC|A {w['BC|A']:.2e}, AC|B {w['AC|B']:.2e}, "
        f"rank_ab {rank_ab}"
    )
    return _timed("hdk-cut-structure", t0, margin, detail, rank_ab == 4)


def check_thermal_window(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Hot ring PPT everywhere; cold ring clearly NPT."""
    t0 = time.perf_counter()
    hot = states.heisenberg_thermal(5.0)
    cold = states.heisenberg_thermal(1.0)
    hot_worst = min(ppt_verdict(hot, cut).witness for cut in tripartite_cuts())
    cold_worst = min(ppt_verdict(cold, cut).witness for cut in tripartite_cuts())
    margin = min(hot_worst + 1e-10, -1e-3 - cold_worst)
    detail = f"T=5 worst {hot_worst:.2e}, T=1 worst {cold_worst:.2e}"
    return _timed("thermal-window", t0, margin, detail)


def check_oracle_agreement(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Schmidt and eigenvalue negativity routes agree; so do the
    two-qubit reduction and the direct tripartite value."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    cuts = tripartite_cuts()
    for _ in range(1000):
        psi = states.random_pure_state((2, 2, 2), rng)
        for cut in cuts:
            dev = abs(pure_negativity_schmidt(psi, cut) - negativity(psi, cut))
            worst = max(worst, dev)
    flag = np.zeros((2, 2), dtype=complex)
    flag[0, 0] = 1.0
    for _ in range(200):
        sigma = states.random_density_matrix((2, 2), rng)
        lifted = DensityMatrix(kron(sigma.data, flag), (2, 2, 2))
        dev = abs(post_value(MeasureKind.NEGATIVITY, sigma) - tripartite_negativity(lifted))
        worst = max(worst, dev)
    return _timed("oracle-agreement", t0, 1e-10 - worst, f"worst dev {worst:.2e}")


def check_squashed_pure(seed=0, grid=DEFAULT_GRID, tol=1e-10) -> CheckResult:
    """Closed-form squashed values for GHZ and W."""
    t0 = time.perf_counter()
    dev_ghz = abs(squashed_pure_tripartite(states.ghz_state()) - 1.5)
    want_w = 1.5 * (np.log2(3.0) - 2.0 / 3.0)
    dev_w = abs(squashed_pure_tripartite(states.w_state()) - want_w)
    margin = min(1e-12 - dev_ghz, 1e-9 - dev_w)
    return _timed(
        "squashed-pure", t0, margin, f"GHZ dev {dev_ghz:.2e}, W dev {dev_w:.2e}"
    )


_CHECKS = (
    (check_bells_locking, frozenset()),
    (check_pair_saturation, frozenset()),
    (check_qutrit_values, frozenset()),
    (check_superposition_sweep, frozenset()),
    (check_sandwich_sweeps, frozenset({"bounds"})),
    (check_sandwich_random, frozenset({"bounds"})),
    (check_flower_lock, frozenset()),
    (check_tilde_scan, frozenset({"condition1"})),
    (check_ghz_scan_rejects, frozenset({"condition1"})),
    (check_upb_scan, frozenset({"condition1"})),
    (check_tilde_complete_loss, frozenset({"zoo"})),
    (check_zoo_ranks_ppt, frozenset({"zoo"})),
    (check_hdk_cut_structure, frozenset({"zoo"})),
    (check_thermal_window, frozenset({"zoo"})),
    (check_oracle_agreement, frozenset()),
    (check_squashed_pure, frozenset()),
)

SUITES = ("zoo", "condition1", "bounds", "all")


def run_suite(suite: str, seed: int = 0, grid=DEFAULT_GRID, tol: float = 1e-10):
    """Run one named suite of the battery; "all" runs every check."""
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return [
        fn(seed=seed, grid=grid, tol=tol)
        for fn, tags in _CHECKS
        if suite == "all" or suite in tags
    ]


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classent",
        description="entanglement change under classical re-encoding of subsystem C",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    measures = ["negativity", "squashed"]

    p = sub.add_parser("measure", help="entanglement of a named state")
    p.add_argument("--state", required=True, metavar="SPEC", help="e.g. ghz, psi:0.4, bells:3")
    p.add_argument("--measure", action="append", choices=measures)
    p.add_argument("--format", choices=["json", "plain"], default="plain")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("delta", help="entanglement change under the best grid measurement")
    p.add_argument("--state", required=True, metavar="SPEC")
    p.add_argument("--measure", choices=measures, default="negativity")
    p.add_argument("--grid", default="300,50", metavar="NX,NT")
    p.add_argument("--format", choices=["json", "plain"], default="plain")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("sweep", help="tabulate a one-parameter family as CSV")
    p.add_argument("--state", required=True, metavar="FAMILY",
                   help="family with one free parameter: " + ", ".join(sorted(SWEEPABLE)))
    p.add_argument("--range", dest="sweep_range", metavar="A,B,N",
                   help="start, stop, steps (default 0,1,21 for psi and rho)")
    p.add_argument("--measure", action="append", choices=measures)
    p.add_argument("--grid", default="300,50", metavar="NX,NT")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the certification battery")
    p.add_argument("suite", nargs="?", default="all", choices=list(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default="300,50", metavar="NX,NT")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=["json", "plain"], default="plain")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump", help="emit a state matrix")
    p.add_argument("--state", required=True, metavar="SPEC")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
