"""Measuring away subsystem C and the entanglement change it causes.

The channel studied here measures C destructively with a two-outcome
projective measurement {|v><v|, 1 - |v><v|} and re-encodes each outcome
i into a fresh classical flag state |i><i|:

    rho  ->  sum_i p_i sigma_i (x) |i><i|,
    p_i = tr(rho m_i),  sigma_i = tr_C(rho m_i) / p_i.

The entanglement change of a tripartite state is the drop from the
initial measure value to the best classicalized value,

    delta = E[rho] - max_M sum_i p_i E[sigma_i (x) |0><0|],

maximized over measurement directions |v> on a fixed angular grid.  For
a qubit C the ket is parameterized by (x, t) as the conjugate of
<v| = (cos x, e^{it} sin x); for a qutrit C two real angles give
|v> = (cos x1, sin x1 cos x2, sin x1 sin x2).  Restricting the search
to dichotomic projective measurements and perfect encodings loses no
generality for measures that are convex, monotonic under local
operations and flag-condition additive.

The grid is evaluated in one stacked pass that holds every direction's
dAB x dAB block at once, peaking at 32 dAB^2 bytes per direction: about
0.5 GB at the default 301 x 51 grid for dAB = 32 (``bells:3``), but
7.5 GiB for dAB = 128 (``bells:4``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import EIG_CUTOFF, DensityMatrix, as_tripartite, partial_trace
from .matcore import _partial_trace_array, _partial_transpose_array
from .measures import (
    MeasureKind,
    NEG_EIG_THRESHOLD,
    as_measure,
    post_value,
    squashed_pure_tripartite,
    tripartite_negativity,
)

DEFAULT_GRID = (300, 50)

# Outcomes with smaller probability carry no normalizable post state;
# they are flagged and skipped in every aggregate.
ZERO_PROB = 1e-12

# Grid values this close to the maximum count as tied; ties resolve to
# the lowest grid index so plateaus still give a reproducible direction.
TIE_TOL = 1e-12


def grid_tolerance(grid) -> float:
    """Heuristic angular resolution of a grid, pi/n_x + pi/n_t."""
    nx, nt = grid
    return np.pi / nx + np.pi / nt


@dataclass(frozen=True)
class MeasurementDirection:
    """One grid direction on C, identified by its angles and grid index."""

    angles: tuple[float, ...]
    index: tuple[int, int]
    dim: int

    def ket(self) -> np.ndarray:
        return _kets(self.dim, *self.angles)

    def angle_dict(self) -> dict[str, float]:
        keys = ("x", "t") if self.dim == 2 else ("x1", "x2")
        return {k: float(a) for k, a in zip(keys, self.angles)}


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of a classicalized state.

    ``post`` is None exactly when the outcome probability is below the
    zero-probability threshold and ``negligible`` is set.
    """

    label: int
    prob: float
    post: DensityMatrix | None
    negligible: bool = False


@dataclass(frozen=True)
class DeltaResult:
    """Grid optimum of the entanglement change and its bound sandwich.

    ``lower_bound <= delta <= upper_bound`` is proved for negativity only;
    under the squashed surrogate the two values bracket nothing.
    """

    measure: MeasureKind
    delta: float
    global_value: float
    ensemble_value: float
    lower_bound: float
    upper_bound: float
    best_direction: MeasurementDirection
    ensemble: tuple[MeasurementOutcome, ...]
    grid: tuple[int, int]

    def to_jsonable(self) -> dict:
        return {
            "measure": self.measure.value,
            "delta": self.delta,
            "global_value": self.global_value,
            "ensemble_value": self.ensemble_value,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "best_direction": self.best_direction.angle_dict(),
            "grid": list(self.grid),
        }


def _check_grid(grid) -> tuple[int, int]:
    nx, nt = grid
    nx, nt = int(nx), int(nt)
    if nx < 1 or nt < 1:
        raise ValueError(f"grid resolution must be positive, got {(nx, nt)}")
    return nx, nt


def direction_kets(dim_c: int, grid=DEFAULT_GRID) -> np.ndarray:
    """Stacked kets for every grid direction, shape (N, dim_c).

    Row order is the flat grid index k * (n_t + 1) + j for angle steps
    (pi k / n_x, pi j / n_t), both endpoints included.
    """
    nx, nt = _check_grid(grid)
    first = np.pi * np.arange(nx + 1) / nx
    second = np.pi * np.arange(nt + 1) / nt
    a, b = np.meshgrid(first, second, indexing="ij")
    return _kets(dim_c, a, b).reshape(-1, dim_c)


def _kets(dim_c: int, a, b) -> np.ndarray:
    """Kets at angles (a, b), scalars or arrays, stacked along a new last axis."""
    if dim_c == 2:
        return np.stack([np.cos(a), np.exp(-1j * b) * np.sin(a)], axis=-1)
    if dim_c == 3:
        return np.stack(
            [np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)], axis=-1
        ).astype(complex)
    raise ValueError(f"measurement grids cover C of dimension 2 or 3, got {dim_c}")


def _direction_at(dim_c: int, grid, flat: int) -> MeasurementDirection:
    nx, nt = _check_grid(grid)
    k, j = divmod(int(flat), nt + 1)
    return MeasurementDirection((np.pi * k / nx, np.pi * j / nt), (k, j), dim_c)


def c_blocks(rho: DensityMatrix) -> np.ndarray:
    """Operator blocks M[i, j] = <i|_C rho |j>_C, shape (dC, dC, dAB, dAB)."""
    da, db, dc = rho.dims
    t = rho.data.reshape(da * db, dc, da * db, dc)
    return t.transpose(1, 3, 0, 2)


def classicalize(state, direction: MeasurementDirection) -> list[MeasurementOutcome]:
    """Measure C along ``direction`` and collect the outcome ensemble.

    Outcome 0 projects onto |v><v|, outcome 1 onto its complement.
    Each non-negligible branch carries a validated normalized post state
    on A (x) B.
    """
    rho = as_tripartite(state)
    da, db, dc = rho.dims
    if direction.dim != dc:
        raise ValueError(
            f"direction is for a {direction.dim}-level C, state has dim C = {dc}"
        )
    blocks = c_blocks(rho)
    v = direction.ket()
    k0 = np.einsum("c,cdab,d->ab", v.conj(), blocks, v)
    k1 = np.einsum("ccab->ab", blocks) - k0
    outcomes = []
    for label, k in ((0, k0), (1, k1)):
        p = float(np.trace(k).real)
        if p < ZERO_PROB:
            outcomes.append(MeasurementOutcome(label, max(p, 0.0), None, True))
        else:
            outcomes.append(MeasurementOutcome(label, p, DensityMatrix(k / p, (da, db))))
    return outcomes


# ---------------------------------------------------------------------------
# The grid kernel: every direction at once, one eigensolve per outcome
# ---------------------------------------------------------------------------


def _contract(blocks: np.ndarray, bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Stacked <l_n|_C rho |r_n>_C, (N, dAB, dAB), from rows l_n^* and r_n."""
    return np.einsum("nc,cdab,nd->nab", bras, blocks, kets, optimize=True)


def _first_outcomes(rho: DensityMatrix, grid) -> np.ndarray:
    """Stacked first-outcome blocks <v_n|_C rho |v_n>_C = p_n sigma_n,
    (N, dAB, dAB), over the grid directions in flat grid order."""
    kets = direction_kets(rho.dims[2], grid)
    return _contract(c_blocks(rho), kets.conj(), kets)


def _weighted_values(k: np.ndarray, measure: MeasureKind, dims_ab, probs=None) -> np.ndarray:
    """p * post_value(sigma) of each stacked block k = p sigma."""
    if measure is MeasureKind.NEGATIVITY:
        # Negativity scales linearly, so the weight p never needs to be
        # divided out: p * 2 N(sigma) = 2 N(<v|rho|v>).
        w = np.linalg.eigvalsh(_partial_transpose_array(k, dims_ab, (0,)))
        return 2.0 * -np.where(w < -NEG_EIG_THRESHOLD, w, 0.0).sum(axis=1)
    # p (S(A) + S(B)) / 2 of the normalized marginals; zero where negligible
    if probs is None:
        probs = np.trace(k, axis1=1, axis2=2).real
    safe = np.where(probs > ZERO_PROB, probs, 1.0)
    out = np.zeros(k.shape[0])
    for keep in ((0,), (1,)):
        w = np.linalg.eigvalsh(_partial_trace_array(k, dims_ab, keep)) / safe[:, None]
        logs = np.log2(w, out=np.zeros_like(w), where=w > EIG_CUTOFF)
        out += -(np.where(w > EIG_CUTOFF, w, 0.0) * logs).sum(axis=1)
    return probs * np.where(probs > ZERO_PROB, out / 2.0, 0.0)


def _grid_outcomes(rho: DensityMatrix, measure: MeasureKind, grid, probs=True, complement=True):
    """One pass over the grid directions |v_n> on C, in flat grid order.

    Returns the first-outcome probabilities p_n, the weighted first-outcome
    values p_n E[sigma_n (x) |0><0|] and the ensemble values, which add the
    complement outcome.  Without ``probs`` or ``complement`` the
    probabilities or the ensemble values are skipped and returned as None.
    """
    dims_ab = rho.dims[:2]
    k = _first_outcomes(rho, grid)
    p = np.trace(k, axis1=1, axis2=2).real if probs else None
    first = _weighted_values(k, measure, dims_ab, p)
    if not complement:
        return p, first, None
    # The complement block rho_AB - <v|rho|v> overwrites the first one,
    # so the pass never holds a second (N, dAB, dAB) stack.
    np.subtract(_partial_trace_array(rho.data, rho.dims, (0, 1)), k, out=k)
    return p, first, first + _weighted_values(k, measure, dims_ab)


def _floor(gval: float, probs: np.ndarray, first: np.ndarray) -> float:
    """E[rho] minus the largest E[sigma_n (x) |0><0|] over non-negligible
    first outcomes; -inf when every first outcome is negligible, since
    then no outcome bounds delta from below."""
    mask = probs > ZERO_PROB
    if not mask.any():
        return -np.inf
    return gval - float((first[mask] / probs[mask]).max())


def global_value(state, measure) -> float:
    """Measure value of the intact tripartite state."""
    measure = as_measure(measure)
    rho = as_tripartite(state)
    if measure is MeasureKind.NEGATIVITY:
        return tripartite_negativity(rho)
    return squashed_pure_tripartite(rho)


def ensemble_values(state, measure=MeasureKind.NEGATIVITY, grid=DEFAULT_GRID) -> np.ndarray:
    """Ensemble entanglement left by each grid direction on C.

    Returns the flat array of sum_i p_i E[sigma_i (x) |i><i|] in grid
    order; ``delta`` subtracts its maximum from the global value.
    """
    measure = as_measure(measure)
    rho = as_tripartite(state)
    return _grid_outcomes(rho, measure, _check_grid(grid), probs=False)[2]


def delta(state, measure=MeasureKind.NEGATIVITY, grid=DEFAULT_GRID) -> DeltaResult:
    """Entanglement change under the best grid measurement on C.

    Parameters
    ----------
    state : DensityMatrix or PureState
        Tripartite state; C must be a qubit or qutrit.  The squashed
        measure additionally needs a pure state for the global term.
    measure : MeasureKind or str
    grid : (n_x, n_t)
        Angular resolution; both endpoints are included, so the search
        covers (n_x + 1)(n_t + 1) directions.

    Returns
    -------
    DeltaResult
        delta together with the winning direction, its outcome ensemble
        and both bounds, all from one grid pass.  On plateaus the lowest
        flat grid index wins.
    """
    measure = as_measure(measure)
    rho = as_tripartite(state)
    grid = _check_grid(grid)
    gval = global_value(rho, measure)
    probs, first, values = _grid_outcomes(rho, measure, grid)
    best = int(np.argmax(values >= values.max() - TIE_TOL))
    best_dir = _direction_at(rho.dims[2], grid, best)
    ensemble_value = float(values[best])
    return DeltaResult(
        measure=measure,
        delta=gval - ensemble_value,
        global_value=gval,
        ensemble_value=ensemble_value,
        lower_bound=_floor(gval, probs, first),
        upper_bound=gval - post_value(measure, partial_trace(rho, (0, 1))),
        best_direction=best_dir,
        ensemble=tuple(classicalize(rho, best_dir)),
        grid=grid,
    )


def lower_bound(state, measure=MeasureKind.NEGATIVITY, grid=DEFAULT_GRID) -> float:
    """Certified floor on the entanglement change.

    Scans single rank-one outcomes sigma_|x> over the grid:

        delta >= E[rho] - max_x E[sigma_|x> (x) |0><0|].

    The complement outcome of a dichotomic qubit measurement is itself
    a direction, so for even grids this is never above ``delta``.  The
    floor is proved for negativity only, and is -inf when every grid
    direction's first outcome is negligible.
    """
    measure = as_measure(measure)
    rho = as_tripartite(state)
    grid = _check_grid(grid)
    gval = global_value(rho, measure)
    probs, first, _ = _grid_outcomes(rho, measure, grid, complement=False)
    return _floor(gval, probs, first)


def upper_bound(state, measure=MeasureKind.NEGATIVITY) -> float:
    """Ceiling on the entanglement change: discard the outcome label.

    Encoding every outcome into the same flag |0> keeps at most
    E[rho_AB (x) |0><0|], so delta <= E[rho] - that value.  This needs
    a convex measure, so the ceiling is proved for negativity only.
    """
    measure = as_measure(measure)
    rho = as_tripartite(state)
    return global_value(rho, measure) - post_value(measure, partial_trace(rho, (0, 1)))
