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

The grid is evaluated in contiguous slices of the flat direction order,
each as many directions as STACK_BYTES of dAB x dAB blocks hold, with the
numbers of one batch: a random 4x4x2 state (dAB = 16) peaks near 16 MiB.  With
qubit A and B a pass builds its blocks as contiguous entry rows (16, n) behind an
(n, 4, 4) view, and under negativity a block whose partial-transpose determinant is
provably positive is PPT and skips the eigensolve.  Every pass reads K^G through the
index map _pt_map and copies only the blocks that reach the eigensolve.
A ``PureState`` keeps its vector: each outcome is rank one, so a slice holds only the
dA dB amplitudes <v_n|_C psi of its directions and reads both measures from their
Schmidt coefficients; ``bells:4`` (dAB = 128) runs in about 0.1 s at a 4 MiB peak.

For a qubit C, v(pi - x, pi - t) = -conj v(x, t), so a real rho has at flat
index N - 1 - m the conjugate of the block at m, with the same PT and marginal
spectra: a pass evaluates the first ceil(N/2) directions and mirrors the rest.
A pass is exactly real when the data and every ket are real: always on the qutrit
grid, and on the qubit grid under the collapse below, whose t = 0 kets are real.  It
runs in real arithmetic on float64 kets and the real part of the data, so eigvalsh
and svd take the real LAPACK routines and a slice holds half the bytes.
If both off-diagonal C blocks are exactly zero (fixed_point_check(rho) == 0), then
<v|rho|v>_C = cos^2 x rho_00 + |e^{-it}|^2 sin^2 x rho_11 has no t and is even under
x -> pi - x, as is rho_AB minus it: one half-column serves the grid, copied row by
row since cos(pi - x) and -cos x may differ in ulps.

For a qubit C the complement 1 - |v><v| of v(x, t) projects onto v-perp = (-e^{it} sin x,
cos x) = e^{it} v(x + pi/2, t) = -e^{it} v(x - pi/2, t).  A value p E(sigma) sees the
projector, not the phase, so the complement value is the first-outcome value of v-perp.
Pure states, collapsed ones and real ones take this one rule on the grid (n, n_t), n = n_x
for an even n_x and 2 n_x for an odd one: v-perp is the direction n/2 rows away in the same t
column, so the ensemble value at row r is first[r] + first[(r + n/2) mod n], kept at the
rows r = n k / n_x.  Their kets are the (n_x, n_t) grid's bit for bit, since pi 2k / 2n_x
doubles both operands of pi k / n_x and doubling is exact.  The one qubit-C pass that
keeps rho_AB - <v|rho|v> is a complex ``DensityMatrix`` coherent on C: a benchmark pin
takes its raw argmax between partners, which the shift would tie exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matcore import EIG_CUTOFF, HERM_TOL, PSD_TOL, DensityMatrix, PureState, as_tripartite
from .matcore import _partial_trace_array, _partial_transpose_array, as_ints, partial_trace
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

# Bytes of one slice of complex dAB x dAB blocks in a grid pass.
STACK_BYTES = 8 * 2**20


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
    zero-probability threshold.
    """

    label: int
    prob: float
    post: DensityMatrix | None

    @property
    def negligible(self) -> bool:
        return self.post is None


@dataclass(frozen=True)
class DeltaResult:
    """Grid optimum of the entanglement change and its bound sandwich.

    ``lower_bound <= delta <= upper_bound`` is proved for negativity only;
    under the squashed surrogate both bounds are None.
    """

    measure: MeasureKind
    delta: float
    global_value: float
    ensemble_value: float
    lower_bound: float | None
    upper_bound: float | None
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
    nx, nt = as_ints(grid, "grid resolution")
    if nx < 1 or nt < 1:
        raise ValueError(f"grid resolution must be positive, got {(nx, nt)}")
    return nx, nt


def direction_kets(dim_c: int, grid=DEFAULT_GRID) -> np.ndarray:
    """Stacked kets for every grid direction, shape (N, dim_c), read-only.

    Row order is the flat grid index k * (n_t + 1) + j for angle steps
    (pi k / n_x, pi j / n_t), both endpoints included.  A qubit C's kets are
    complex, a qutrit C's float64.  The kets do not depend on the state, so
    each (dim_c, n_x, n_t) is built once.
    """
    return _cached_kets(dim_c, *_check_grid(grid))


@functools.lru_cache(maxsize=8)
def _cached_kets(dim_c: int, nx: int, nt: int) -> np.ndarray:
    a, b = np.meshgrid(np.pi * np.arange(nx + 1) / nx, np.pi * np.arange(nt + 1) / nt,
                       indexing="ij")
    kets = _kets(dim_c, a, b).reshape(-1, dim_c)
    kets.flags.writeable = False
    return kets


def _kets(dim_c: int, a, b) -> np.ndarray:
    """Kets at angles (a, b), scalars or arrays, stacked along a new last axis."""
    if dim_c == 2:
        return np.stack([np.cos(a), np.exp(-1j * b) * np.sin(a)], axis=-1)
    if dim_c == 3:
        return np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)], axis=-1)
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
            outcomes.append(MeasurementOutcome(label, max(p, 0.0), None))
        else:
            outcomes.append(MeasurementOutcome(label, p, DensityMatrix(k / p, (da, db))))
    return outcomes


# ---------------------------------------------------------------------------
# The grid kernel: every direction at once, one eigensolve per outcome
# ---------------------------------------------------------------------------


def _slices(n: int, side: int) -> list[slice]:
    """Contiguous slices of range(n), each holding at most STACK_BYTES of complex
    side x side blocks (one at least).  Lengths differ by one at most: a slice
    of a few rows would take another BLAS path in ``_outcome_blocks`` and move low bits."""
    count = -(-n // max(1, STACK_BYTES // (16 * side**2)))
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


def _in_pass(a: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """``a`` in the arithmetic of a pass on ``kets``: its real part, contiguous, when the
    kets are float64, which ``_grid_pass`` hands only an exactly real pass; else ``a``."""
    return np.ascontiguousarray(a.real) if np.isrealobj(kets) else a


def _outcome_blocks(rho: DensityMatrix, kets: np.ndarray) -> np.ndarray:
    """<v_n|_C rho |v_n>_C = p_n sigma_n for the rows v_n of ``kets``, (n, dAB, dAB).
    For qubit A and B the stack is a view of contiguous entry rows (16, n), row 4a + b
    the entry (a, b), which the determinant screen reads; otherwise it is C-contiguous."""
    rows = rho.dims[:2] == (2, 2)
    k = np.einsum(f"nc,cdab,nd->{'abn' if rows else 'nab'}", kets.conj(),
                  _in_pass(c_blocks(rho), kets), kets, optimize=True, order="C")
    return np.moveaxis(k, -1, 0) if rows else k


def _collapses(state) -> bool:
    """Whether a grid pass collapses the t-axis: a ``DensityMatrix`` with a qubit C
    and both off-diagonal C blocks exactly zero (fixed_point_check(state) == 0)."""
    return (isinstance(state, DensityMatrix) and state.dims[2] == 2
            and not c_blocks(state)[[0, 1], [1, 0]].any())


def _is_real(state) -> bool:
    """Whether the amplitudes or the matrix of ``state`` have no imaginary part."""
    return not (state.amp if isinstance(state, PureState) else state.data).imag.any()


def _grid_pass(state, grid, evaluate) -> tuple:
    """Flat-grid arrays from ``evaluate(kets)``, a tuple of arrays with one entry per
    ket, called on each ``_slices`` slice and joined in grid order.  A qubit C and
    real data evaluate the first ceil(N/2) kets only, and entry N - 1 - m is
    copied from entry m.  A ``DensityMatrix`` with a qubit C and both off-diagonal C
    blocks exactly zero evaluates the t = 0 column only: its first ceil((n_x + 1)/2)
    rows, row n_x - k copied from row k, each row n_t + 1 times.  A pass is exactly
    real when the data and every ket are real: ``evaluate`` then gets float64 kets and
    reads the real part of the data (``_in_pass``); every other pass gets complex kets."""
    (nx, nt), dims, rep = _check_grid(grid), state.dims, 1
    if _collapses(state):
        kets, rep = direction_kets(2, (nx, 1))[::2], nt + 1
    else:
        kets = direction_kets(dims[2], grid)
    n, real = len(kets), _is_real(state)
    if dims[2] == 2 and (rep > 1 or real):
        kets = kets[:(n + 1) // 2]
    exact = real and not kets.imag.any()  # a qutrit C, or the t = 0 column of real data
    kets = np.ascontiguousarray(kets.real) if exact else kets.astype(complex, copy=False)
    parts = zip(*(evaluate(kets[s]) for s in _slices(len(kets), dims[0] * dims[1])))
    return tuple(np.concatenate([a, a[:n - len(a)][::-1]]).repeat(rep, 0)
                 for a in map(np.concatenate, parts))


def _pt_map(dims_ab) -> np.ndarray:
    """Flat index of entry (i, j) of K^G in a flattened dAB x dAB block K, (dAB, dAB)."""
    d = dims_ab[0] * dims_ab[1]
    return _partial_transpose_array(np.arange(d * d).reshape(d, d), dims_ab, (0,))


def _traces(k: np.ndarray) -> np.ndarray:
    """Real traces of the stacked blocks k, (N,)."""
    return np.einsum("nii->n", k).real


def _ppt_by_det(rows: np.ndarray) -> np.ndarray:
    """Determinant slack s = det K^G - E of the 4x4 blocks K, as entry rows (16, n).

    A positive slack proves K PPT.  Row 4a + b holds entry (a, b); K^G is read
    through ``_pt_map``, never copied.
    A two-qubit partial transpose has at most one negative eigenvalue
    (Sanpera, Tarrach & Vidal, PRA 58, 826, 1998), so a positive
    determinant proves PPT (Augusiak, Demianowicz & Horodecki, PRA 77,
    030301(R), 2008).  The Laplace expansion over the 2x2 minors of rows
    (0, 1) and (2, 3) sums 24 products of four entries, each with at most
    16 roundings (Higham, ch. 3).  In Frobenius norm the computed block
    lies within G of a PSD block P: rho may have eigenvalues down to
    -PSD_TOL (four in a block, summed over two C directions in a
    complement) and Hermiticity errors of HERM_TOL; rounding adds far
    less.  As |P_ij| <= max P_ii and the transpose keeps the diagonal,
    with m the largest diagonal entry and M = m + 3G >= 2G no entry
    exceeds M and ||K^G|| <= 4M.  The screen det > E = 32 u 24 M^4 +
    1024 G M^3 then holds up: the first term, twice the forward error,
    makes the exact det K^G positive; the Hermitian H that eigvalsh
    reads lies within 2G of K^G, which moves the determinant by less
    than (4M + 2G)^4 - (4M)^4 < 768 G M^3; and as P^G has at most one
    negative eigenvalue, by Weyl a second one of H lies in [-3G, 0) and
    caps det H at 3G (4M)^3 = 192 G M^3.  So a screened H is PSD,
    eigvalsh finds no eigenvalue below -NEG_EIG_THRESHOLD, and the block
    is worth -0.0 on either route.  A zero block is never screened.  E exceeds
    the two errors, 384 u M^4 + 768 G M^3, by 384 u M^4 + 256 G M^3, so
    det H > s + 256 G M^3: ``condition1_check`` bounds lambda_min(H) from below by it.
    """
    pt = [[rows[i] for i in line] for line in _pt_map((2, 2))]  # views: K^G (r, j) is pt[r][j]

    def minor(r, j, k):
        m = pt[r][j] * pt[r + 1][k]
        m -= pt[r][k] * pt[r + 1][j]
        return m

    # summed left to right in place, the roundings of one expression with fewer temporaries
    det = minor(0, 0, 1) * minor(2, 2, 3)
    det -= minor(0, 0, 2) * minor(2, 1, 3)
    det += minor(0, 0, 3) * minor(2, 1, 2)
    det += minor(0, 1, 2) * minor(2, 0, 3)
    det -= minor(0, 1, 3) * minor(2, 0, 2)
    det += minor(0, 2, 3) * minor(2, 0, 1)
    gap = 4 * PSD_TOL + 16 * HERM_TOL
    big_m = rows[::5].real.max(axis=0) + 3 * gap
    return det.real - big_m**3 * (32 * 24 * np.finfo(float).eps / 2 * big_m + 1024 * gap)


def _weighted_values(k: np.ndarray, measure: MeasureKind, dims_ab) -> np.ndarray:
    """p * post_value(sigma) of each stacked block k = p sigma.

    Under negativity with a two-qubit AB, blocks that ``_ppt_by_det``
    proves PPT are worth -0.0 without an eigensolve.  The eigensolve
    reads K^G gathered through ``_pt_map`` from the flattened blocks.
    """
    if measure is MeasureKind.NEGATIVITY:
        # Negativity scales linearly, so the weight p never needs to be
        # divided out: p * 2 N(sigma) = 2 N(<v|rho|v>).
        flat = k.reshape(len(k), -1)
        todo = _ppt_by_det(flat.T) <= 0 if dims_ab == (2, 2) else slice(None)
        out = np.full(len(k), -0.0)
        w = np.linalg.eigvalsh(flat[todo][:, _pt_map(dims_ab)])
        out[todo] = 2.0 * -np.where(w < -NEG_EIG_THRESHOLD, w, 0.0).sum(axis=1)
        return out
    # p (S(A) + S(B)) / 2 of the normalized marginals; zero where negligible
    probs = _traces(k)
    out = sum(_entropies(np.linalg.eigvalsh(_partial_trace_array(k, dims_ab, keep)), probs)
              for keep in ((0,), (1,)))
    return probs * (out / 2.0)


def _entropies(w: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of spectra w / p, dropping entries at or
    below EIG_CUTOFF; zero where p is negligible."""
    w = w / np.where(probs > ZERO_PROB, probs, 1.0)[:, None]
    logs = np.log2(w, out=np.zeros_like(w), where=w > EIG_CUTOFF)
    return np.where(probs > ZERO_PROB, -(np.where(w > EIG_CUTOFF, w, 0.0) * logs).sum(axis=1), 0.0)


def _schmidt_values(phi: np.ndarray, measure: MeasureKind, probs: np.ndarray) -> np.ndarray:
    """p * post_value(sigma) of each rank-one block |phi_n><phi_n| = p sigma.

    With s the Schmidt coefficients of the dA x dB matrix phi_n, the
    partial transpose has eigenvalues s_i^2 and +-s_i s_j (i < j): 2 N sums
    the pairs s_i s_j > NEG_EIG_THRESHOLD, exactly those the eigen route
    keeps.  Both marginals have spectrum s^2.  For qubit A and B,
    s_1 s_2 = |det phi_n| and s^2 = (p +- sqrt(p^2 - 4 det^2)) / 2.
    """
    qubits = phi.shape[1:] == (2, 2)
    if qubits:
        det = np.abs(phi[:, 0, 0] * phi[:, 1, 1] - phi[:, 0, 1] * phi[:, 1, 0])
    if measure is MeasureKind.NEGATIVITY:
        if qubits:
            pairs = det[:, None]
        else:
            s = np.linalg.svd(phi, compute_uv=False)
            i, j = np.triu_indices(s.shape[1], 1)
            pairs = s[:, i] * s[:, j]
        return 2.0 * np.where(pairs > NEG_EIG_THRESHOLD, pairs, 0.0).sum(axis=1)
    if qubits:
        # the small root as det^2 / big root, free of cancellation
        big = (probs + np.sqrt(np.maximum(probs**2 - 4 * det**2, 0.0))) / 2
        w = np.stack([big, det**2 / np.where(big > 0, big, 1.0)], axis=1)
    else:
        # s^2 is the spectrum of the smaller Gram matrix, phi phi^dag or (phi^dag phi)^*
        g = phi if phi.shape[1] <= phi.shape[2] else phi.transpose(0, 2, 1)
        w = np.linalg.eigvalsh(g @ g.conj().transpose(0, 2, 1))
    return probs * _entropies(w, probs)


def _schmidt_outcomes(psi: PureState, measure: MeasureKind, kets: np.ndarray, complement: bool):
    """``_grid_outcomes`` of a pure state on rows v_n of ``kets``, from phi_n = <v_n|_C psi.
    The complement evaluated here is rho_AB - |phi_n><phi_n|, of rank dC - 1: only a
    qutrit C reaches it, as ``_grid_outcomes`` reads a qubit C's from partner rows."""
    da, db, dc = psi.dims
    amps = _in_pass(psi.amp, kets).reshape(da * db, dc)
    phi = (kets.conj() @ amps.T).reshape(-1, da, db)
    re_im = phi.reshape(len(phi), -1).view(float)
    probs = np.einsum("ni,ni->n", re_im, re_im)
    first = _schmidt_values(phi, measure, probs)
    if not complement:
        return probs, first
    ket = phi.reshape(len(kets), -1, 1)
    rest = np.multiply(ket, ket.conj().transpose(0, 2, 1))  # |phi_n><phi_n|, then rho_AB minus it
    np.subtract(amps @ amps.conj().T, rest, out=rest)
    return probs, first, first + _weighted_values(rest, measure, (da, db))


def _grid_outcomes(state, measure: MeasureKind, grid, complement=True):
    """One ``_grid_pass`` over the grid directions |v_n> on C, in flat grid order.

    Returns the first-outcome probabilities p_n and the weighted values
    p_n E[sigma_n (x) |0><0|], then, with ``complement``, the ensemble values,
    which add the complement outcome.  A ``PureState`` (tripartite, as its
    caller checks) takes the Schmidt route, a ``DensityMatrix`` the eigen route.
    With a qubit C the complement value of a pure, collapsed or real state is the first
    outcome of v-perp (module docstring): one pass without the complement on the grid
    (n, n_t), n the least even multiple of n_x, keeps the rows r = n k / n_x and adds
    the partner rows r +- n/2.  A qutrit C and a complex ``DensityMatrix`` coherent on
    C evaluate rho_AB - <v|rho|v>.
    """
    nx, nt = grid
    if complement and state.dims[2] == 2 and (
            isinstance(state, PureState) or _collapses(state) or _is_real(state)):
        n = nx * (1 + nx % 2)
        p, first = (a.reshape(n + 1, -1) for a in _grid_outcomes(state, measure, (n, nt), False))
        rows = np.arange(0, n + 1, n // nx)
        first, partner = first[rows], first[(rows + n // 2) % n]
        return p[rows].ravel(), first.ravel(), (first + partner).ravel()
    if isinstance(state, PureState):
        return _grid_pass(state, grid, lambda v: _schmidt_outcomes(state, measure, v, complement))
    rho = as_tripartite(state)
    dims_ab, rho_ab = rho.dims[:2], _partial_trace_array(rho.data, rho.dims, (0, 1))

    def evaluate(kets):
        k = _outcome_blocks(rho, kets)
        p, first = _traces(k), _weighted_values(k, measure, dims_ab)
        if not complement:
            return p, first
        # the complement block rho_AB - <v|rho|v> overwrites the first one
        rest = np.subtract(_in_pass(rho_ab, kets), k, out=k)
        return p, first, first + _weighted_values(rest, measure, dims_ab)

    return _grid_pass(rho, grid, evaluate)


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
    as_tripartite(state)  # the gate only: a pure state keeps its vector below
    return _grid_outcomes(state, measure, _check_grid(grid))[2]


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
        and both bounds (None under squashed), all from one grid pass.
        On plateaus the lowest flat grid index wins.
    """
    measure = as_measure(measure)
    rho = as_tripartite(state)
    grid = _check_grid(grid)
    gval = global_value(rho, measure)
    probs, first, values = _grid_outcomes(state, measure, grid)
    best = int(np.argmax(values >= values.max() - TIE_TOL))
    best_dir = _direction_at(rho.dims[2], grid, best)
    ensemble_value = float(values[best])
    bounded = measure is MeasureKind.NEGATIVITY
    return DeltaResult(
        measure=measure,
        delta=gval - ensemble_value,
        global_value=gval,
        ensemble_value=ensemble_value,
        lower_bound=_floor(gval, probs, first) if bounded else None,
        upper_bound=gval - post_value(measure, partial_trace(rho, (0, 1))) if bounded else None,
        best_direction=best_dir,
        ensemble=tuple(classicalize(rho, best_dir)),
        grid=grid,
    )


def _bounded(measure) -> MeasureKind:
    measure = as_measure(measure)
    if measure is not MeasureKind.NEGATIVITY:
        raise ValueError("bounds are proved for negativity only")
    return measure


def lower_bound(state, measure=MeasureKind.NEGATIVITY, grid=DEFAULT_GRID) -> float:
    """Certified floor on the entanglement change.

    Scans single rank-one outcomes sigma_|x> over the grid:

        delta >= E[rho] - max_x E[sigma_|x> (x) |0><0|].

    The complement outcome of a dichotomic qubit measurement is itself
    a direction, so for even grids this is never above ``delta``.  The
    floor is proved for negativity only (other measures raise
    ValueError), and is -inf when every grid direction's first outcome
    is negligible.  For a qutrit C it covers real directions only, the
    grid's: a complex measurement can lose less.
    """
    measure = _bounded(measure)
    rho = as_tripartite(state)
    grid = _check_grid(grid)
    gval = global_value(rho, measure)
    probs, first = _grid_outcomes(state, measure, grid, complement=False)
    return _floor(gval, probs, first)


def upper_bound(state, measure=MeasureKind.NEGATIVITY) -> float:
    """Ceiling on the entanglement change: discard the outcome label.

    Encoding every outcome into the same flag |0> keeps at most
    E[rho_AB (x) |0><0|], so delta <= E[rho] - that value.  This needs
    a convex measure, so the ceiling is proved for negativity only;
    other measures raise ValueError.
    """
    measure = _bounded(measure)
    rho = as_tripartite(state)
    return global_value(rho, measure) - post_value(measure, partial_trace(rho, (0, 1)))
