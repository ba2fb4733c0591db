"""The benchmark's workloads: seeded inputs, timed public calls, checks.

Each workload turns a seed into a list of operations.  An operation is
one timed call into the public API (for ``sandwich-random``, one random
state through the whole bound chain; for the verify suites in
``catalog``, one ``classent.cli.main`` call) plus a check of its result.  A check returns
one item per result it judged: a reference key, the values to compare
with the reference table, and the problems it found against closed
forms and invariants.  The program under test only ever receives the
generated states, never the seed.

Only sandwich-random draws its inputs from the seed.  Catalog and wide-ab
are fixed lists in a fixed order: the order of their calls changes the
heap layout, and with it catalog's peak RSS by 9%.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

# Absolute tolerance of every numeric check.
TOL = 1e-9

# States per pass of sandwich-random: ~2.4 s of work on a 2-core Xeon.
N_RANDOM = 16

CATALOG_SPECS = (
    "ghz", "w", "psi:0.4", "rho:0.5", "ghz3", "sym3", "flower:2", "flower:3",
    "tilde", "upb", "hdk", "adma", "ak:2.5", "ph:1", "heis:1", "heis:5", "bells:2",
)

# Certificate statuses the paper predicts for the scan.
EXPECTED_SCAN = {"tilde": "pass", "upb": "pass", "ghz": "fail"}


@dataclass
class Item:
    key: str
    values: dict
    problems: list


@dataclass
class Op:
    key: str
    state: str | None  # the input state the call works on; None for cli calls
    size: int  # results judged per call: one per check for verify, else 1
    call: Callable[[], object]
    check: Callable[[object], list]
    # Per-check seconds reported by the program itself (cli calls only).
    layer_seconds: Callable[[object], dict] | None = None


def _closed_form_delta(ce, spec: str, st):
    """Known delta for the negativity measure, or None."""
    name, _, arg = spec.partition(":")
    if name == "ghz":
        return 0.5
    if name == "bells":
        return 2.0 ** (int(arg) - 2) + 0.5
    if name == "flower":
        return 0.0
    if name == "tilde":
        return ce.tripartite_negativity(st)
    return None


def _oracle_problem(ce, measure, ensemble, want: float) -> list:
    """Sum of p_i post_value(sigma_i) over the scalar classicalize route."""
    got = sum(o.prob * ce.post_value(measure, o.post) for o in ensemble if not o.negligible)
    if abs(got - want) > TOL:
        return [f"scalar route gives {got!r}, grid gives {want!r}"]
    return []


def _delta_op(ce, spec: str, st, measure) -> Op:
    key = f"{spec}/delta-{measure.value}"

    def check(res):
        problems = _oracle_problem(ce, measure, res.ensemble, res.ensemble_value)
        want = _closed_form_delta(ce, spec, st) if measure is ce.MeasureKind.NEGATIVITY else None
        if want is not None and abs(res.delta - want) > TOL:
            problems.append(f"delta {res.delta!r}, closed form {want!r}")
        values = {
            "delta": res.delta,
            "global": res.global_value,
            "ensemble": res.ensemble_value,
            "best": list(res.best_direction.index),
        }
        return [Item(key, values, problems)]

    return Op(key, spec, 1, lambda: ce.delta(st, measure), check)


def _bound_op(ce, spec: str, st, which: str) -> Op:
    key = f"{spec}/{which}"
    fn = ce.lower_bound if which == "lower_bound" else ce.upper_bound
    return Op(key, spec, 1, lambda: fn(st, ce.MeasureKind.NEGATIVITY),
              lambda v: [Item(key, {"value": v}, [])])


def _certify_op(ce, spec: str, st) -> Op:
    key = f"{spec}/certify"

    def check(rep):
        scan = rep.condition1.status if rep.condition1 is not None else "skipped"
        problems = []
        if spec in EXPECTED_SCAN and scan != EXPECTED_SCAN[spec]:
            problems.append(f"scan {scan}, expected {EXPECTED_SCAN[spec]}")
        values = {
            "scan": scan,
            "discord": rep.zero_discord.status,
            "residual": rep.fixed_point_residual,
            "rank": rep.ranks.rank,
            "rank_ab": rep.ranks.rank_ab,
            "ppt": {k: v.status for k, v in rep.ranks.ppt.items()},
            "flags": list(rep.ranks.flags),
        }
        return [Item(key, values, problems)]

    return Op(key, spec, 1, lambda: ce.certify_state(st), check)


def _spec_ops(ce, spec: str, kinds) -> list:
    st = ce.parse_state_spec(spec)
    neg, sq = ce.MeasureKind.NEGATIVITY, ce.MeasureKind.SQUASHED
    makers = {
        "delta": lambda: _delta_op(ce, spec, st, neg),
        "squashed": lambda: _delta_op(ce, spec, st, sq),
        "lower_bound": lambda: _bound_op(ce, spec, st, "lower_bound"),
        "upper_bound": lambda: _bound_op(ce, spec, st, "upper_bound"),
        "certify": lambda: _certify_op(ce, spec, st),
    }
    if not isinstance(st, ce.PureState):
        kinds = [k for k in kinds if k != "squashed"]
    return [makers[k]() for k in kinds]


# ---------------------------------------------------------------------------
# workloads


def _chain_op(ce, seed: int, i: int, st) -> Op:
    key = f"seed{seed}-state{i:02d}/chain"
    neg = ce.MeasureKind.NEGATIVITY

    def call():
        return (
            ce.global_value(st, neg),
            ce.ensemble_values(st, neg),
            ce.lower_bound(st, neg),
            ce.upper_bound(st, neg),
        )

    def check(out):
        gval, vals, lo, up = out
        best = int(vals.argmax())
        dv = gval - float(vals[best])
        problems = []
        if not (lo <= dv + TOL and dv <= up + TOL and up <= gval + TOL):
            problems.append(f"chain broken: lower {lo!r} delta {dv!r} upper {up!r} global {gval!r}")
        nx, nt = ce.DEFAULT_GRID
        k, j = divmod(best, nt + 1)
        direction = ce.MeasurementDirection((math.pi * k / nx, math.pi * j / nt), (k, j), 2)
        problems += _oracle_problem(ce, neg, ce.classicalize(st, direction), float(vals[best]))
        values = {"global": gval, "ensemble": float(vals[best]), "best": best,
                  "lower": lo, "upper": up}
        return [Item(key, values, problems)]

    return Op(key, key, 1, call, check)


def sandwich_random(ce, seed: int) -> list:
    import numpy as np

    rng = np.random.default_rng(seed)
    states = [ce.states.random_density_matrix((2, 2, 2), rng) for _ in range(N_RANDOM)]
    return [_chain_op(ce, seed, i, st) for i, st in enumerate(states)]


def wide_ab(ce, seed: int) -> list:
    plan = [("bells:3", ("delta", "lower_bound", "squashed"))]
    plan += [(f"flower:{d}", ("delta",)) for d in (4, 5, 6)]
    return [op for spec, kinds in plan for op in _spec_ops(ce, spec, kinds)]


def _run_cli(ce, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ce.cli.main(argv)
    return code, buf.getvalue()


# The suites of the verify battery that catalog runs through the cli.  The
# full battery takes ~41 s per pass (68% of it the sandwich-random check,
# which has its own workload): too long to repeat within one run, so it
# is no workload of its own.
VERIFY_SUITES = {"zoo": 4, "condition1": 3}


def _verify_op(ce, suite: str, size: int) -> Op:
    argv = ["verify", suite, "--format", "json"]

    def call():
        code, text = _run_cli(ce, argv)
        return code, json.loads(text)

    def check(out):
        code, payload = out
        items = []
        for c in payload["checks"]:
            problems = [] if c["passed"] else [f"check failed: {c['detail']}"]
            items.append(Item(f"cli/{c['name']}",
                              {"passed": c["passed"], "margin": c["margin"]}, problems))
        if code != 0 or not payload["passed"]:
            items.append(Item(f"cli/{suite}-exit", {"code": code}, [f"exit code {code}"]))
        return items

    def layer_seconds(out):
        return {f"cli.{c['name']}.s": c["seconds"] for c in out[1]["checks"]}

    return Op(f"cli/verify-{suite}", None, size, call, check, layer_seconds)


def catalog(ce, seed: int) -> list:
    kinds = ("delta", "squashed", "lower_bound", "upper_bound", "certify")
    ops = [op for spec in CATALOG_SPECS for op in _spec_ops(ce, spec, kinds)]
    return ops + [_verify_op(ce, suite, size) for suite, size in VERIFY_SUITES.items()]


@dataclass(frozen=True)
class Workload:
    make_ops: Callable
    # A fixed, cheap call on the workload's code path, made once in set-up.
    warm_up: Callable
    min_passes: int = 1


def _warm_delta(spec):
    return lambda ce, ops: ce.delta(ce.parse_state_spec(spec))


WORKLOADS = {
    "sandwich-random": Workload(sandwich_random, lambda ce, ops: ops[0].call()),
    # Two passes give 152 call samples, so at least 15 lie above p90.
    "catalog": Workload(catalog, _warm_delta("ghz"), min_passes=2),
    "wide-ab": Workload(wide_ab, _warm_delta("flower:4")),
}
