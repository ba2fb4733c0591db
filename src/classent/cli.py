"""Command-line front end.

Five subcommands cover the library surface: ``measure`` evaluates a
named state, ``delta`` runs the grid optimization (with its bounds
under negativity, the one measure for which they are proved),
``sweep`` tabulates a one-parameter family as CSV, ``verify`` runs the
certification battery, and ``dump`` emits a state matrix for external
tools.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numerical failure (a failed eigensolve or an allocation too large).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from argparse import ArgumentParser, ArgumentTypeError
from dataclasses import asdict

import numpy as np

from . import states
from .classicalize import DEFAULT_GRID, _check_grid, delta, global_value
from .matcore import (
    as_density,
    matrix_to_csv,
    matrix_to_jsonable,
    partial_trace,
    tripartite_cuts,
    von_neumann_entropy,
)
from .measures import MeasureKind, negativity
from .verify import SUITES, run_suite

# Families whose single real parameter can be swept from the CLI.
SWEEPABLE = states.one_parameter_families()


def _fmt(x: float) -> str:
    # 12 significant digits, '.' decimal separator, no locale
    return format(float(x), ".12g")


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ArgumentTypeError(f"--grid wants NX,NT, got {text!r}")
    try:
        nx, nt = int(parts[0]), int(parts[1])
    except ValueError:
        raise ArgumentTypeError(f"--grid wants two integers, got {text!r}") from None
    try:
        return _check_grid((nx, nt))
    except ValueError as exc:
        raise ArgumentTypeError(str(exc)) from None


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ArgumentTypeError(f"--range wants A,B,N, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ArgumentTypeError(f"--range wants two floats and an integer, got {text!r}") from None
    if not np.isfinite((start, stop)).all():
        raise ArgumentTypeError(f"--range needs finite A and B, got {text!r}")
    if steps < 2:
        raise ArgumentTypeError(f"--range needs at least 2 steps, got {steps}")
    if not start < stop:
        raise ArgumentTypeError(f"--range needs A < B, got {start} >= {stop}")
    if stop - start == np.inf:
        raise ArgumentTypeError(f"--range needs a finite B - A, got {text!r}")
    return start, stop, steps


def _measure_list(requested) -> list[str]:
    """The requested measure names, first occurrence first; negativity by default."""
    return list(dict.fromkeys(requested or [MeasureKind.NEGATIVITY.value]))


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
    st = states.parse_state_spec(args.state)
    rho = as_density(st)
    values = {m: global_value(rho, m) for m in _measure_list(args.measure)}
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
    st = states.parse_state_spec(args.state)
    res = delta(st, args.measure, args.grid)
    # the bound sandwich is proved for negativity only: None under squashed
    payload = {k: v for k, v in res.to_jsonable().items() if v is not None}
    lines = [
        f"state: {args.state}",
        f"measure: {args.measure}",
        f"grid: {args.grid[0]}x{args.grid[1]}",
        f"global: {_fmt(res.global_value)}",
        f"ensemble: {_fmt(res.ensemble_value)}",
        f"delta: {_fmt(res.delta)}",
        "best direction: "
        + " ".join(f"{k}={v:.6f}" for k, v in res.best_direction.angle_dict().items()),
        "outcome probs: "
        + " ".join(_fmt(out.prob) for out in res.ensemble),
    ]
    if res.lower_bound is not None:
        lines += [f"lower bound: {_fmt(res.lower_bound)}", f"upper bound: {_fmt(res.upper_bound)}"]
    _emit(payload, lines, args)
    return 0


def cmd_sweep(args) -> int:
    family = args.state
    if ":" in family:
        raise ValueError(
            "sweep wants a bare family name; the swept parameter comes from --range"
        )
    if family not in SWEEPABLE:
        raise ValueError(
            f"family {family!r} has no single swept parameter; "
            f"choose one of {', '.join(sorted(SWEEPABLE))}"
        )
    if args.sweep_range is not None:
        start, stop, steps = args.sweep_range
    elif family in ("psi", "rho"):
        start, stop, steps = 0.0, 1.0, 21
    else:
        raise ValueError(f"family {family!r} needs an explicit --range A,B,N")
    measure_names = _measure_list(args.measure)

    header = ["param"]
    for m in measure_names:
        header += [f"{m}_global", f"{m}_delta"]
        if m == MeasureKind.NEGATIVITY.value:
            header += [f"{m}_lower", f"{m}_upper"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for param in np.linspace(start, stop, steps):
        st = states.parse_state_spec(f"{family}:{float(param)!r}")
        row = [_fmt(param)]
        for m in measure_names:
            res = delta(st, m, args.grid)
            row += [_fmt(res.global_value), _fmt(res.delta)]
            if res.measure is MeasureKind.NEGATIVITY:
                row += [_fmt(res.lower_bound), _fmt(res.upper_bound)]
        writer.writerow(row)
    _write_text(buf.getvalue(), args.output)
    if args.output is not None:
        print(f"wrote {args.output} ({steps} rows)")
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    passed = all(r.passed for r in results)
    payload = {
        "suite": args.suite,
        "grid": list(DEFAULT_GRID),
        "seed": args.seed,
        "passed": passed,
        "checks": [asdict(r) for r in results],
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
    rho = as_density(states.parse_state_spec(args.state))
    if args.format == "csv":
        text = matrix_to_csv(rho.data)
    else:
        text = json.dumps(matrix_to_jsonable(rho.data)) + "\n"
    _write_text(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
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
    p.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID, metavar="NX,NT")
    p.add_argument("--format", choices=["json", "plain"], default="plain")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("sweep", help="tabulate a one-parameter family as CSV")
    p.add_argument("--state", required=True, metavar="FAMILY",
                   help="family with one free parameter: " + ", ".join(sorted(SWEEPABLE)))
    p.add_argument("--range", dest="sweep_range", type=_parse_range, metavar="A,B,N",
                   help="start, stop, steps (default 0,1,21 for psi and rho)")
    p.add_argument("--measure", action="append", choices=measures)
    p.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID, metavar="NX,NT")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the certification battery")
    p.add_argument("suite", nargs="?", default="all", choices=list(SUITES))
    p.add_argument("--seed", type=int, default=0)
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
    # LinAlgError is a ValueError, so it is caught first
    except (np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
