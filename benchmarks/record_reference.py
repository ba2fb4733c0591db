#!/usr/bin/env python3
"""Write benchmarks/reference.json: every checked value on the default seed.

Run from the repository root at the commit whose outputs are the
reference:

    python3 benchmarks/record_reference.py

The benchmark then requires every result of a default-seed run to match
this table (floats to 1e-9, grid indices and statuses exactly), and
compares any result of another seed whose key the table holds.  Keys of
the seed-independent catalog and wide-ab operations carry no seed, so
those are checked on every seed.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, load_classent
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    ce = load_classent()
    table = {}
    for name, workload in WORKLOADS.items():
        entries = {}
        for op in workload.make_ops(ce, DEFAULT_SEED):
            for item in op.check(op.call()):
                if item.problems:
                    print(f"error: {item.key}: {item.problems}", file=sys.stderr)
                    return 1
                entries[item.key] = item.values
        table[name] = entries
        print(f"{name}: {len(entries)} entries")
    (BENCH_DIR / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
