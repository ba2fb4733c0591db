"""The certification battery behind ``classent verify``.

Each check is declared once, by the ``@_check(name, *suites)`` decorator
on a body that returns ``(margin, detail, ok)``.  The margin is the
distance to the check's tightest tolerance, positive on pass; the
decorator times the body and builds the ``CheckResult``.  Checks run in
definition order, and the acceptance tests drive the same registry.
Every check runs at the library's ``DEFAULT_GRID``, the grid its
tolerances are calibrated to, so the battery's only input is the seed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import states
from .certify import condition1_check, fixed_point_check, rank_report, zero_discord_check
from .classicalize import delta, ensemble_values, global_value
from .matcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    kron,
    partial_transpose,
    tripartite_cuts,
)
from .measures import (
    PPT_TOL,
    MeasureKind,
    negativity,
    post_value,
    pure_negativity_schmidt,
    squashed_pure_tripartite,
    tripartite_negativity,
)


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict; the fields in the order ``verify --format json`` prints."""

    name: str
    passed: bool
    margin: float
    seconds: float
    detail: str


# check name -> (runner returning a CheckResult, suite tags), in definition order
CHECKS: dict = {}


def _check(name: str, *suites: str):
    """Register a check body ``seed -> (margin, detail, ok)``."""

    def register(body):
        @functools.wraps(body)
        def run(seed=0) -> CheckResult:
            started = time.perf_counter()
            margin, detail, ok = body(seed)
            return CheckResult(
                name, bool(ok and margin >= 0), float(margin),
                time.perf_counter() - started, detail,
            )

        CHECKS[name] = (run, frozenset(suites))
        return run

    return register


@_check("bells-locking")
def check_bells_locking(seed):
    """delta of n Bell pairs is 2^(n-2) + 1/2, independent of direction."""
    margins, notes, ok = [], [], True
    for n, want, budget in ((2, 1.5, 30.0), (3, 2.5, 120.0)):
        tn = time.perf_counter()
        st = states.bell_pairs(n)
        gval = global_value(st, MeasureKind.NEGATIVITY)
        vals = ensemble_values(st, MeasureKind.NEGATIVITY)
        dev = abs(gval - float(vals.max()) - want)
        spread = float(vals.max() - vals.min())
        elapsed = time.perf_counter() - tn
        margins += [1e-9 - dev, 1e-9 - spread]
        ok = ok and elapsed <= budget
        notes.append(f"n={n}: dev {dev:.2e} spread {spread:.2e} in {elapsed:.1f}s")
    return min(margins), "; ".join(notes), ok


@_check("pair-saturation")
def check_pair_saturation(seed):
    """Maximally entangled pair negativity reaches (d-1)/2."""
    devs = []
    for d in range(2, 6):
        amp = np.zeros(d * d, dtype=complex)
        amp[:: d + 1] = 1.0 / np.sqrt(d)
        n = negativity(PureState(amp, (d, d)), Bipartition((0,), (1,)))
        devs.append(abs(n - (d - 1) / 2))
    worst = max(devs)
    return 1e-12 - worst, f"worst dev {worst:.2e} over d=2..5", True


@_check("qutrit-values")
def check_qutrit_values(seed):
    """Qutrit-C benchmark deltas for both measures."""
    devs, notes, ok = [], [], True
    for name, want_neg, want_sq in (("ghz3", 1.667, 0.792489), ("sym3", 1.86747, 0.971332)):
        tn = time.perf_counter()
        st = states.parse_state_spec(name)
        dn = delta(st, MeasureKind.NEGATIVITY).delta
        ds = delta(st, MeasureKind.SQUASHED).delta
        elapsed = time.perf_counter() - tn
        devs += [abs(dn - want_neg), abs(ds - want_sq)]
        ok = ok and elapsed <= 60.0
        notes.append(f"{name}: ({dn:.5f}, {ds:.6f}) in {elapsed:.1f}s")
    return 1e-2 - max(devs), "; ".join(notes), ok


@_check("superposition-sweep")
def check_superposition_sweep(seed):
    """Sweeping the GHZ/W superposition: minimum near p=0.4, maximum at p=0."""
    ps = np.linspace(0.0, 1.0, 21)
    margins, notes = [], []
    for measure in (MeasureKind.NEGATIVITY, MeasureKind.SQUASHED):
        deltas = np.array(
            [delta(states.ghz_w_superposition(p), measure).delta for p in ps]
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
    return min(margins), "; ".join(notes), True


def _sandwich(sts):
    """Margin, detail and verdict of lower <= delta <= upper <= global on ``sts``."""
    gaps = []
    for st in sts:
        res = delta(st, MeasureKind.NEGATIVITY)
        dv, up = res.delta, res.upper_bound
        gaps.append((dv - res.lower_bound, up - dv, res.global_value - up))
    gaps = np.array(gaps)
    lo, up, top = gaps.min(axis=0)
    hits = int((gaps.min(axis=1) + 1e-9 >= 0).sum())
    inside = int((gaps[:, :2] > 1e-9).all(axis=1).sum())
    detail = (
        f"{hits}/{len(gaps)} hold, {inside} with slack on both sides; "
        f"worst delta-lo {lo:.2e}, up-delta {up:.2e}, global-up {top:.2e}"
    )
    return gaps.min() + 1e-9, detail, True


@_check("sandwich-sweeps", "bounds")
def check_sandwich_sweeps(seed):
    """lower <= delta <= upper <= global along both benchmark sweeps."""
    return _sandwich(
        (
            states.parse_state_spec(f"{family}:{float(param)!r}")
            for family in ("psi", "rho")
            for param in np.linspace(0.0, 1.0, 21)
        )
    )


@_check("sandwich-random", "bounds")
def check_sandwich_random(seed):
    """The same chain on 200 seeded random three-qubit mixed states."""
    rng = np.random.default_rng(seed)
    return _sandwich((states.random_density_matrix((2, 2, 2), rng) for _ in range(200)))


@_check("flower-lock")
def check_flower_lock(seed):
    """Flower states lose nothing despite entanglement across AB|C."""
    margins, ok, notes = [], True, []
    for d in (2, 3):
        st = states.flower_state(d)
        res = delta(st, MeasureKind.NEGATIVITY)
        dv, up = res.delta, res.upper_bound
        disc = zero_discord_check(st)
        resid = fixed_point_check(st, disc.basis)
        margins += [1e-10 - abs(dv), up - 0.1, 1e-12 - resid]
        ok = ok and disc.status == "yes"
        notes.append(f"d={d}: delta {dv:.1e}, upper {up:.3f}, discord {disc.status}")
    return min(margins), "; ".join(notes), ok


@_check("tilde-scan", "condition1")
def check_tilde_scan(seed):
    """Every direction leaves the rank-4 PPT-invariant state separable."""
    rep = condition1_check(states.tilde_state())
    detail = f"{rep.status} on {rep.directions_checked} directions, worst {rep.witness:.2e}"
    return rep.witness + PPT_TOL, detail, rep.passed


@_check("ghz-scan-rejects", "condition1")
def check_ghz_scan_rejects(seed):
    """The scan must catch GHZ: some direction leaves an NPT pair."""
    rep = condition1_check(states.ghz_state())
    ok = rep.status == "fail" and rep.direction is not None
    angles = rep.direction.angle_dict() if rep.direction is not None else {}
    detail = f"{rep.status}, witness {rep.witness:.3f} at " + " ".join(
        f"{k}={v:.4f}" for k, v in angles.items()
    )
    return -rep.witness - PPT_TOL, detail, ok


@_check("upb-scan", "condition1")
def check_upb_scan(seed):
    """The unextendible-product-basis state passes the full scan."""
    rep = condition1_check(states.upb_state())
    detail = f"{rep.status} on {rep.directions_checked} directions, worst {rep.witness:.2e}"
    return rep.witness + PPT_TOL, detail, rep.passed


@_check("tilde-complete-loss", "zoo")
def check_tilde_complete_loss(seed):
    """Full certification of the rank-4 complete-loss state."""
    st = states.tilde_state()
    ranks = rank_report(st)
    min_eig = ranks.ppt["BC|A"].witness
    pt_c = partial_transpose(st, Bipartition((0, 1), (2,)))
    pt_c_exact = bool(np.array_equal(pt_c, st.data))
    swap = [b * 4 + a * 2 + c for a in range(2) for b in range(2) for c in range(2)]
    swap_exact = bool(np.array_equal(st.data[np.ix_(swap, swap)], st.data))
    rep = condition1_check(st)
    res = delta(st, MeasureKind.NEGATIVITY)
    loss_dev = abs(res.delta - res.global_value)
    # the even grid scans each direction's complement too: each outcome keeps <= 2 PPT_TOL p_i
    margin = min(
        1e-9 - abs(min_eig + 0.125),
        rep.witness + PPT_TOL,
        1e-9 - loss_dev,
    )
    ok = (
        pt_c_exact
        and swap_exact
        and ranks.rank == 4
        and rep.passed
        and rep.skipped == 0
    )
    detail = (
        f"min PT_A eig {min_eig:.6f}, PT_C exact {pt_c_exact}, swap exact {swap_exact}, "
        f"rank {ranks.rank}, scan {rep.status} on {rep.directions_checked}, "
        f"delta vs total dev {loss_dev:.2e}"
    )
    return margin, detail, ok


@_check("zoo-ranks-ppt", "zoo")
def check_zoo_ranks_ppt(seed):
    """Ranks (4, 7, 8, 5) for the PPT zoo, PPT on every bipartition."""
    zoo = (states.upb_state(), states.adma_state(), states.ak_state(2.5), states.ph_state(1.0))
    reps = [rank_report(st) for st in zoo]
    ranks = tuple(rep.rank for rep in reps)
    worst = min(v.witness for rep in reps for v in rep.ppt.values())
    detail = f"ranks {ranks}, worst witness {worst:.2e}"
    return worst + PPT_TOL, detail, ranks == (4, 7, 8, 5)


@_check("hdk-cut-structure", "zoo")
def check_hdk_cut_structure(seed):
    """One PPT cut, two NPT cuts, and a rank-4 pair marginal."""
    rep = rank_report(states.hdk_state())
    w = {label: v.witness for label, v in rep.ppt.items()}
    margin = min(
        w["AB|C"] + 1e-12,
        -1e-4 - w["BC|A"],
        -1e-4 - w["AC|B"],
    )
    detail = (
        f"AB|C {w['AB|C']:.2e}, BC|A {w['BC|A']:.2e}, AC|B {w['AC|B']:.2e}, "
        f"rank_ab {rep.rank_ab}"
    )
    return margin, detail, rep.rank_ab == 4


@_check("thermal-window", "zoo")
def check_thermal_window(seed):
    """Hot ring PPT everywhere; cold ring clearly NPT."""
    hot_worst, cold_worst = (
        min(v.witness for v in rank_report(states.heisenberg_thermal(t)).ppt.values())
        for t in (5.0, 1.0)
    )
    margin = min(hot_worst + PPT_TOL, -1e-3 - cold_worst)
    return margin, f"T=5 worst {hot_worst:.2e}, T=1 worst {cold_worst:.2e}", True


@_check("oracle-agreement")
def check_oracle_agreement(seed):
    """Schmidt and eigenvalue negativity routes agree; so do the
    two-qubit reduction and the direct tripartite value."""
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
    return 1e-10 - worst, f"worst dev {worst:.2e}", True


@_check("squashed-pure")
def check_squashed_pure(seed):
    """Closed-form squashed values for GHZ and W."""
    dev_ghz = abs(squashed_pure_tripartite(states.ghz_state()) - 1.5)
    want_w = 1.5 * (np.log2(3.0) - 2.0 / 3.0)
    dev_w = abs(squashed_pure_tripartite(states.w_state()) - want_w)
    margin = min(1e-12 - dev_ghz, 1e-9 - dev_w)
    return margin, f"GHZ dev {dev_ghz:.2e}, W dev {dev_w:.2e}", True


SUITES = tuple(dict.fromkeys(s for _, suites in CHECKS.values() for s in suites)) + ("all",)


def run_suite(suite: str, seed: int = 0):
    """Run one named suite of the battery; "all" runs every check."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return [
        run(seed=seed)
        for run, suites in CHECKS.values()
        if suite == "all" or suite in suites
    ]
