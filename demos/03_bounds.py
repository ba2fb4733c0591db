"""
Cheap bounds around the optimized loss
======================================

delta needs an optimization over measurement directions; the bounds are
single evaluations.  For the negativity they bracket it from both sides,

    lower <= delta <= upper <= global value.

Random mixed states show the sandwich holds with room to spare; on the
pure family psi(p) the upper bound is the interesting one.
"""

import numpy as np

from classent import (
    MeasureKind,
    delta,
    global_value,
    lower_bound,
    parse_state_spec,
    upper_bound,
)
from classent.states import random_density_matrix

rng = np.random.default_rng(7)
GRID = (24, 8)


print("random (2,2,2) mixed states: lower <= delta <= upper <= global")
for _ in range(5):
    rho = random_density_matrix((2, 2, 2), rng)
    lo = lower_bound(rho, MeasureKind.NEGATIVITY, GRID)
    d = delta(rho, MeasureKind.NEGATIVITY, GRID).delta
    hi = upper_bound(rho, MeasureKind.NEGATIVITY)
    g = global_value(rho, MeasureKind.NEGATIVITY)
    assert lo <= d + 1e-9 and d <= hi + 1e-9 and hi <= g + 1e-9
    print("  %8.5f <= %8.5f <= %8.5f <= %8.5f" % (lo, d, hi, g))

print("\npsi(p) family:")
for p in (0.2, 0.5, 0.8, 1.0):
    rho = parse_state_spec("psi:%r" % p)
    lo = lower_bound(rho, MeasureKind.NEGATIVITY, GRID)
    d = delta(rho, MeasureKind.NEGATIVITY, GRID).delta
    hi = upper_bound(rho, MeasureKind.NEGATIVITY)
    print("  p=%.1f: %8.5f <= %8.5f <= %8.5f" % (p, lo, d, hi))
