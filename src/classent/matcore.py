"""Core linear algebra for multipartite density operators.

Everything in this module works on explicit numpy matrices in the
computational product basis with row-major subsystem ordering: the
leftmost subsystem is the most significant index, so a basis label
``|i_0 i_1 ... i_{n-1}>`` maps to the flat index
``i_0 * d_1 * ... * d_{n-1} + ... + i_{n-1}``.

All entropies are in bits (log base 2).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Validation tolerances for density operators.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

# Eigenvalues below this cutoff are treated as zero in entropies.
EIG_CUTOFF = 1e-10

# Eigenvalues above this count toward a numeric rank.
RANK_TOL = 1e-8

# A state with tr(rho^2) this close to 1 counts as pure.
PURITY_TOL = 1e-10

# sigma_x, sigma_y, sigma_z
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

_LETTERS = "ABCDEFGH"


def as_ints(values, what: str) -> tuple[int, ...]:
    """Python or NumPy integers as a tuple of int; bool and the rest raise ValueError."""
    try:
        if any(isinstance(v, bool) for v in values):
            raise TypeError
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _as_dims(dims) -> tuple[int, ...]:
    """Subsystem dimensions as ints: at least one, each >= 2, or ValueError."""
    dims = as_ints(dims, "subsystem dimensions")
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must be >= 2, one or more; got {dims}")
    return dims


def _as_array(m) -> np.ndarray:
    """Unwrap DensityMatrix-like objects to their raw matrix."""
    if isinstance(m, np.ndarray):
        return m
    return np.asarray(m.data if hasattr(m, "data") else m, dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density operator on a tensor product of subsystems.

    Parameters
    ----------
    data : array_like
        Square complex matrix of side ``prod(dims)``.
    dims : tuple of int
        Subsystem dimensions, leftmost most significant.

    Construction rejects NaN or infinite entries and anything that is
    not Hermitian (elementwise to 1e-10), unit trace (to 1e-10) and
    positive semidefinite (smallest eigenvalue >= -1e-9).  Rejected
    input is reported with its maximal deviation rather than silently
    projected back to the valid set.
    """

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _as_dims(self.dims)
        mat = np.array(self.data, dtype=complex, order="C")
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix has NaN or infinite entries")
        side = int(np.prod(dims))
        if mat.ndim != 2 or mat.shape != (side, side):
            raise ValueError(
                f"density matrix shape {mat.shape} does not match dims {dims}"
            )
        # no entry of a state exceeds 1 in modulus; a larger one overflows the checks below
        big = float(np.abs(mat.view(float)).max())
        if big > 2.0:
            raise ValueError(f"density matrix has an entry part of {big:.3e} > 2")
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > HERM_TOL:
            raise ValueError(
                f"not Hermitian: max |rho - rho^dag| = {herm_dev:.3e} > {HERM_TOL}"
            )
        trace_dev = abs(complex(np.trace(mat)) - 1.0)
        if trace_dev > TRACE_TOL:
            raise ValueError(
                f"trace deviates from 1 by {trace_dev:.3e} > {TRACE_TOL}"
            )
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -PSD_TOL:
            raise ValueError(
                f"not positive semidefinite: min eigenvalue = {min_eig:.3e} < -{PSD_TOL}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "data", mat)
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class PureState:
    """A normalized state vector on a tensor product of subsystems."""

    amp: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _as_dims(self.dims)
        vec = np.array(self.amp, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(vec)):
            raise ValueError("amplitudes have NaN or infinite entries")
        if vec.size != int(np.prod(dims)):
            raise ValueError(
                f"amplitude length {vec.size} does not match dims {dims}"
            )
        # no amplitude of a state exceeds 1 in modulus; a larger one overflows the norm below
        big = float(np.abs(vec.view(float)).max())
        if big > 2.0:
            raise ValueError(f"amplitudes have an entry part of {big:.3e} > 2")
        norm_dev = abs(float(np.linalg.norm(vec)) - 1.0)
        if norm_dev > 1e-12:
            raise ValueError(f"norm deviates from 1 by {norm_dev:.3e} > 1e-12")
        vec.flags.writeable = False
        object.__setattr__(self, "amp", vec)
        object.__setattr__(self, "dims", dims)

    def projector(self) -> DensityMatrix:
        """Rank-one density operator |psi><psi|."""
        return DensityMatrix(np.outer(self.amp, self.amp.conj()), self.dims)


@dataclass(frozen=True)
class Bipartition:
    """A two-block split of subsystem indices, written left|right.

    The right block is the one transposed by :func:`partial_transpose`,
    so ``Bipartition((0, 1), (2,))`` names the AB|C cut and its witness
    spectrum comes from transposing subsystem C.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left = as_ints(self.left, "bipartition blocks")
        right = as_ints(self.right, "bipartition blocks")
        if not left or not right:
            raise ValueError("both blocks of a bipartition must be nonempty")
        if set(left) & set(right):
            raise ValueError(f"blocks overlap: {left} | {right}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def label(self) -> str:
        lo = "".join(_LETTERS[i] for i in sorted(self.left))
        hi = "".join(_LETTERS[i] for i in sorted(self.right))
        return f"{lo}|{hi}"

    def check_covers(self, n: int):
        if sorted(self.left + self.right) != list(range(n)):
            raise ValueError(
                f"bipartition {self.label()} does not cover subsystems 0..{n - 1} exactly once"
            )

    def block_dims(self, dims) -> tuple[int, int]:
        d_left = int(np.prod([dims[i] for i in self.left]))
        d_right = int(np.prod([dims[i] for i in self.right]))
        return d_left, d_right


def as_density(state) -> DensityMatrix:
    """Coerce a PureState to its projector; pass DensityMatrix through."""
    if isinstance(state, PureState):
        return state.projector()
    if isinstance(state, DensityMatrix):
        return state
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def as_tripartite(state) -> DensityMatrix:
    """Coerce like :func:`as_density`, rejecting anything but three subsystems."""
    rho = as_density(state)
    if len(rho.dims) != 3:
        raise ValueError(f"expected a tripartite state, got dims {rho.dims}")
    return rho


def is_pure(rho: DensityMatrix) -> bool:
    """Whether tr(rho^2) reaches 1 within ``PURITY_TOL``."""
    return float(np.trace(rho.data @ rho.data).real) >= 1.0 - PURITY_TOL


def tripartite_cuts() -> tuple[Bipartition, Bipartition, Bipartition]:
    """The three bipartitions AB|C, BC|A, AC|B of a tripartite system."""
    return (
        Bipartition((0, 1), (2,)),
        Bipartition((1, 2), (0,)),
        Bipartition((0, 2), (1,)),
    )


def kron(a, b) -> np.ndarray:
    """Tensor product of two matrices in row-major subsystem order."""
    return np.kron(_as_array(a), _as_array(b))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho : DensityMatrix
    keep : sequence of int
        Strictly increasing subsystem indices to retain.

    Returns
    -------
    DensityMatrix
        Reduced state on the kept subsystems, in their original order.
    """
    keep = as_ints(keep, "kept subsystems")
    n = len(rho.dims)
    if not keep:
        raise ValueError("cannot trace out everything")
    if list(keep) != sorted(set(keep)) or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep must be strictly increasing indices in 0..{n - 1}, got {keep}")
    reduced = _partial_trace_array(rho.data, rho.dims, keep)
    return DensityMatrix(reduced, tuple(rho.dims[i] for i in keep))


def _partial_trace_array(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of a raw matrix or a leading-axes stack; no validation."""
    dims = tuple(dims)
    n = len(dims)
    keep = tuple(keep)
    lead = mat.shape[:-2]
    t = mat.reshape(lead + dims + dims)
    # Row axis i carries label i; traced column axes reuse it so einsum
    # contracts them, kept column axes get the shifted label n + i.
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, [Ellipsis] + row + col, [Ellipsis] + out)
    side = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(lead + (side, side))


def partial_transpose(rho: DensityMatrix, part: Bipartition) -> np.ndarray:
    """Transpose the right block of ``part``; the result is generally not PSD.

    Returns a plain Hermitian matrix, since a negative partial-transpose
    spectrum is exactly what the entanglement witnesses look for.
    """
    part.check_covers(len(rho.dims))
    return _partial_transpose_array(rho.data, rho.dims, part.right)


def _partial_transpose_array(mat: np.ndarray, dims, right) -> np.ndarray:
    """Partial transpose of a raw matrix or a leading-axes stack, as a copy."""
    dims = tuple(dims)
    n = len(dims)
    lead = mat.shape[:-2]
    m = len(lead)
    t = mat.reshape(lead + dims + dims)
    axes = list(range(m + 2 * n))
    for i in right:
        axes[m + i], axes[m + n + i] = axes[m + n + i], axes[m + i]
    # the swapped axes leave a non-contiguous view, so this reshape copies
    return t.transpose(axes).reshape(mat.shape)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits, S = -tr(rho log2 rho).

    Eigenvalues at or below ``EIG_CUTOFF`` are discarded, so the
    pure-state entropy is exactly zero despite rounding in the
    eigensolver.
    """
    w = np.linalg.eigvalsh(_as_array(rho))
    w = w[w > EIG_CUTOFF]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))


def numeric_rank(rho) -> int:
    """Number of eigenvalues above ``RANK_TOL``."""
    return int(np.count_nonzero(np.linalg.eigvalsh(_as_array(rho)) > RANK_TOL))


# ---------------------------------------------------------------------------
# Matrix writers of ``classent dump``.
#
# JSON: array of rows, each entry a [re, im] pair.  CSV: one line per row,
# entries "re+imi" with repr-exact floats.  Both round-trip bit for bit.
# ---------------------------------------------------------------------------


def matrix_to_jsonable(m) -> list:
    mat = _as_array(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _entry_to_csv(z: complex) -> str:
    # signbit keeps an imaginary -0.0 apart from +0.0
    sign = "-" if np.signbit(z.imag) else "+"
    # repr of a Python float round-trips exactly
    return f"{float(z.real)!r}{sign}{abs(float(z.imag))!r}i"


def matrix_to_csv(m) -> str:
    mat = _as_array(m)
    return "\n".join(",".join(_entry_to_csv(z) for z in row) for row in mat) + "\n"
