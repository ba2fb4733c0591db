"""Catalog of tripartite states used throughout the package.

Subsystems are always ordered A, B, C with C last; C is the party that
gets measured and classically re-encoded.  Factories return
:class:`~classent.matcore.PureState` for state vectors and validated
:class:`~classent.matcore.DensityMatrix` for mixed states.

The mixed-state zoo collects known states whose entanglement disappears
completely once C is measured: a three-qubit state separable for AB|C,
a 4x2 bound entangled state, and several states separable for every
bipartition yet not fully separable.
"""

from __future__ import annotations

import numpy as np

from .matcore import PAULIS, DensityMatrix, PureState, as_ints, kron

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Pure families
# ---------------------------------------------------------------------------


def ghz_state(d: int = 2) -> PureState:
    """GHZ state sum_i |iii> / sqrt(d) on three d-level systems."""
    (d,) = as_ints((d,), "local dimension")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    amp = np.zeros(d**3, dtype=complex)
    for i in range(d):
        amp[i * d * d + i * d + i] = 1.0 / np.sqrt(d)
    return PureState(amp, (d, d, d))


def w_state() -> PureState:
    """Three-qubit W state (|001> + |010> + |100>) / sqrt(3)."""
    amp = np.zeros(8, dtype=complex)
    amp[[1, 2, 4]] = 1.0 / np.sqrt(3)
    return PureState(amp, (2, 2, 2))


def ghz_w_superposition(p: float) -> PureState:
    """Superposition sqrt(p)|GHZ> + sqrt(1-p)|W> of three qubits.

    The two branches are orthogonal, so the result is normalized for
    every p in [0, 1].
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"weight p must lie in [0, 1], got {p}")
    amp = np.sqrt(p) * ghz_state(2).amp + np.sqrt(1.0 - p) * w_state().amp
    return PureState(amp, (2, 2, 2))


def qutrit_symmetric_state() -> PureState:
    """Equal superposition of all six permutations of |012> on qutrits."""
    amp = np.zeros(27, dtype=complex)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
        amp[i * 9 + j * 3 + k] = 1.0 / np.sqrt(6)
    return PureState(amp, (3, 3, 3))


def bell_pairs(n: int) -> PureState:
    """n Bell pairs distributed so that C holds a single qubit.

    Pair i entangles particles a_i and b_i.  Party A keeps all of
    a_1..a_n (dimension 2^n), party B keeps b_1..b_{n-1} and party C
    keeps b_n alone.  With each pair in (|00> + |11>)/sqrt(2), the
    amplitudes sit on |x>_A |x_1..x_{n-1}>_B |x_n>_C for every bit
    string x.
    """
    (n,) = as_ints((n,), "number of pairs")
    if n < 2:
        raise ValueError(f"number of pairs n must be at least 2 so that B is nonempty, got {n}")
    if n > 4:
        raise ValueError(f"number of pairs n = {n} exceeds the supported total dimension (256)")
    dim_a, dim_b = 2**n, 2 ** (n - 1)
    amp = np.zeros(dim_a * dim_b * 2, dtype=complex)
    for x in range(2**n):
        amp[x * dim_b * 2 + (x >> 1) * 2 + (x & 1)] = 2.0 ** (-n / 2)
    return PureState(amp, (dim_a, dim_b, 2))


# ---------------------------------------------------------------------------
# Mixed families
# ---------------------------------------------------------------------------


def ghz_w_mixture(q: float) -> DensityMatrix:
    """Mixture q |GHZ><GHZ| + (1-q) |W><W| of three qubits."""
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"weight q must lie in [0, 1], got {q}")
    g = ghz_state(2).amp
    w = w_state().amp
    mat = q * np.outer(g, g.conj()) + (1.0 - q) * np.outer(w, w.conj())
    return DensityMatrix(mat, (2, 2, 2))


def flower_state(d: int) -> DensityMatrix:
    """Zero-discord d x d x 2 state correlating symmetry type with C.

    The symmetric Werner block is tagged |0> on C and the antisymmetric
    block |1>:

        omega = 2/(d(d+1)) P+ (x) (d+1)/(2d) |0><0|
              + 2/(d(d-1)) P- (x) (d-1)/(2d) |1><1|

    with P+- = (1 +- V)/2 for the SWAP V.  Measuring C in the
    computational basis leaves the state unchanged, yet discarding the
    outcome labels leaves the maximally mixed, fully separable rho_AB.
    """
    (d,) = as_ints((d,), "local dimension")
    if d < 2:
        raise ValueError(f"local dimension d must be >= 2, got {d}")
    if d * d * 2 > 256:
        raise ValueError(f"local dimension d = {d} exceeds the supported total dimension (256)")
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    eye = np.eye(d * d)
    p_sym = (eye + swap) / 2.0
    p_anti = (eye - swap) / 2.0
    e00 = np.diag([1.0, 0.0])
    e11 = np.diag([0.0, 1.0])
    mat = kron(2.0 / (d * (d + 1)) * p_sym, (d + 1) / (2.0 * d) * e00)
    mat = mat + kron(2.0 / (d * (d - 1)) * p_anti, (d - 1) / (2.0 * d) * e11)
    return DensityMatrix(mat, (d, d, 2))


def tilde_state() -> DensityMatrix:
    """Three-qubit state separable for AB|C that loses all entanglement.

    Every measurement direction on C leaves a separable two-qubit state
    behind, yet the state is NPT entangled for A|BC and B|AC.  It is
    invariant under both swapping A with B and transposing C, and has
    rank 4.
    """
    mat = np.zeros((8, 8))
    mat[1, 1] = mat[6, 6] = 2.0
    for i, j in ((2, 2), (5, 5), (2, 5), (5, 2), (3, 3), (4, 4), (3, 4), (4, 3)):
        mat[i, j] = 1.0
    return DensityMatrix(mat / 8.0, (2, 2, 2))


def hdk_state(t: float = 0.64) -> DensityMatrix:
    """Bound entangled 4 x 2 state, read as qubits A, B versus qubit C.

    PPT entangled across AB|C but NPT for A|BC and B|AC, with a rank-4
    reduced state rho_AB.  Valid for 0 < t < 1.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"parameter t must lie in (0, 1), got {t}")
    tp = np.sqrt(1.0 - t * t)
    h = 2.0 * (1.0 + 7.0 * t)
    mat = np.zeros((8, 8))
    for i in (0, 1, 3, 4, 5, 6):
        mat[i, i] = 2.0 * t
    mat[2, 2] = mat[7, 7] = t + 1.0
    mat[0, 6] = mat[6, 0] = 2.0 * t
    mat[1, 7] = mat[7, 1] = 2.0 * t
    mat[3, 4] = mat[4, 3] = 2.0 * t
    mat[2, 7] = mat[7, 2] = tp
    # The printed basis carries C on the middle index; reorder to A, B, C
    # so that the bound entangled 4x2 cut lands on AB|C.
    perm = [a * 4 + c * 2 + b for a in range(2) for b in range(2) for c in range(2)]
    mat = mat[np.ix_(perm, perm)]
    return DensityMatrix(mat / h, (2, 2, 2))


def upb_state() -> DensityMatrix:
    """Three-qubit state on the complement of an unextendible product basis.

    Separable for every bipartition but not fully separable; rank 4 and
    permutationally symmetric.
    """
    mat = np.array(
        [
            [7, 1, 1, -1, 1, -1, -1, 1],
            [1, 3, -1, 1, -1, -3, 1, -1],
            [1, -1, 3, -3, -1, 1, 1, -1],
            [-1, 1, -3, 3, 1, -1, -1, 1],
            [1, -1, -1, 1, 3, 1, -3, -1],
            [-1, -3, 1, -1, 1, 3, -1, 1],
            [-1, 1, 1, -1, -3, -1, 3, 1],
            [1, -1, -1, 1, -1, 1, 1, 7],
        ],
        dtype=float,
    )
    return DensityMatrix(mat / 32.0, (2, 2, 2))


def adma_state(a: float = 2.0, b: float = 3.0, c: float = 5.0) -> DensityMatrix:
    """Rank-7 three-qubit state, separable for every bipartition.

    Diagonal (1, a, b, c, 1/c, 1/b, 1/a, 1) plus |000><111| coherences,
    normalized by n = 2 + a + 1/a + b + 1/b + c + 1/c.  Requires
    finite a, b, c > 0, abc != 1 and a finite n.
    """
    a, b, c = float(a), float(b), float(c)
    if not all(0.0 < v < np.inf for v in (a, b, c)):
        raise ValueError(f"parameters a, b, c must be positive and finite, got ({a}, {b}, {c})")
    if abs(a * b * c - 1.0) < 1e-12:
        raise ValueError("parameters a, b, c with abc = 1 give a rank-deficient special case")
    norm = 2.0 + a + 1.0 / a + b + 1.0 / b + c + 1.0 / c
    if norm == np.inf:
        raise ValueError(f"parameters a, b, c = ({a}, {b}, {c}) overflow the normalization")
    mat = np.diag([1.0, a, b, c, 1.0 / c, 1.0 / b, 1.0 / a, 1.0])
    mat[0, 7] = mat[7, 0] = 1.0
    return DensityMatrix(mat / norm, (2, 2, 2))


def ak_state(y: float) -> DensityMatrix:
    """Full-rank three-qubit family on the GHZ-diagonal antidiagonal.

    Diagonal (x, y, ..., y, x) with x = y + 4 and antidiagonal entries
    (2, 2, -2, 2, 2, -2, 2, 2), normalized by 8(1 + y).  A state for finite
    y >= 2, where the blocks [[y, 2], [2, y]] turn PSD, and PPT for every
    bipartition there; separable once y >= 2 sqrt(2), bound entangled in between.
    """
    y = float(y)
    if not 2.0 <= y < np.inf:
        raise ValueError(f"parameter y must be at least 2 and finite, got {y}")
    x = y + 4.0
    mat = np.diag([x, y, y, y, y, y, y, x])
    for i, v in ((0, 2.0), (1, 2.0), (2, -2.0), (3, 2.0)):
        mat[i, 7 - i] = mat[7 - i, i] = v
    # 8 (1 + y) overflows near the float maximum; a division by 8 is exact
    return DensityMatrix(mat / (1.0 + y) / 8.0, (2, 2, 2))


def ph_state(z: float) -> DensityMatrix:
    """Rank-5 three-qubit state, separable for every bipartition.

    A flat coherent block on {|001>, |010>, |100>} plus diagonal weights
    (2z, 1/z, 1/z, 1/z), normalized by m = 3 + 3/z + 2z.  Requires a finite z > 0
    and a finite m.
    """
    z = float(z)
    if not 0.0 < z < np.inf:
        raise ValueError(f"parameter z must be positive and finite, got {z}")
    m = 3.0 + 3.0 / z + 2.0 * z
    if m == np.inf:
        raise ValueError(f"parameter z = {z} overflows the normalization 3 + 3/z + 2z")
    mat = np.diag([2.0 * z, 1.0, 1.0, 1.0 / z, 1.0, 1.0 / z, 1.0 / z, 0.0])
    for i in (1, 2, 4):
        for j in (1, 2, 4):
            mat[i, j] = 1.0
    return DensityMatrix(mat / m, (2, 2, 2))


def heisenberg_thermal(temperature: float) -> DensityMatrix:
    """Gibbs state of the three-site Heisenberg ring at a given temperature.

    H = sum_i (X_i X_{i+1} + Y_i Y_{i+1} + Z_i Z_{i+1}) over the pairs
    (1,2), (2,3), (3,1); rho = exp(-H/T) / Z.  Around T in [4.33, 5.46]
    the state is PPT for every bipartition yet not fully separable.
    """
    temperature = float(temperature)
    if not 0.0 < temperature < np.inf:
        raise ValueError(f"temperature T must be positive and finite, got {temperature}")
    eye = np.eye(2, dtype=complex)
    ham = np.zeros((8, 8), dtype=complex)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        for op in PAULIS:
            factors = [eye, eye, eye]
            factors[i] = op
            factors[j] = op
            ham = ham + kron(kron(factors[0], factors[1]), factors[2])
    w, v = np.linalg.eigh(ham)
    # Subtract the ground energy before exponentiating to avoid overflow; an
    # exponent that overflows to -inf at a tiny T is a weight of exactly 0.
    with np.errstate(over="ignore"):
        boltz = np.exp(-(w - w[0]) / temperature)
    gibbs = (v * boltz) @ v.conj().T
    return DensityMatrix(gibbs / boltz.sum(), (2, 2, 2))


# ---------------------------------------------------------------------------
# Random states for property checks
# ---------------------------------------------------------------------------


def random_pure_state(dims, rng: np.random.Generator) -> PureState:
    """Haar-distributed pure state from a normalized complex Gaussian."""
    dims = as_ints(dims, "subsystem dimensions")
    size = int(np.prod(dims))
    vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return PureState(vec / np.linalg.norm(vec), dims)


def random_density_matrix(dims, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank mixed state G G^dag / tr(G G^dag), G square Gaussian."""
    dims = as_ints(dims, "subsystem dimensions")
    size = int(np.prod(dims))
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real, dims)


# ---------------------------------------------------------------------------
# Command-line state specifications
# ---------------------------------------------------------------------------

# family name -> (builder, parameter names, bare-name arguments or None if required)
_FAMILIES = {
    "ghz": (lambda: ghz_state(2), (), ()),
    "ghz3": (lambda: ghz_state(3), (), ()),
    "w": (w_state, (), ()),
    "sym3": (qutrit_symmetric_state, (), ()),
    "psi": (ghz_w_superposition, ("p",), None),
    "rho": (ghz_w_mixture, ("q",), None),
    "bells": (bell_pairs, ("n",), None),
    "flower": (flower_state, ("d",), None),
    "tilde": (tilde_state, (), ()),
    "hdk": (hdk_state, ("t",), ()),
    "upb": (upb_state, (), ()),
    "adma": (adma_state, ("a", "b", "c"), ()),
    "ak": (ak_state, ("y",), None),
    "ph": (ph_state, ("z",), None),
    "heis": (heisenberg_thermal, ("T",), None),
}

_INT_PARAMS = {"bells", "flower"}


def one_parameter_families() -> tuple[str, ...]:
    """Families that take a single real parameter, in catalog order."""
    return tuple(
        name for name, (_, params, _) in _FAMILIES.items()
        if len(params) == 1 and name not in _INT_PARAMS
    )


def parse_state_spec(text: str):
    """Build a state from a spec string like ``ghz``, ``psi:0.3`` or ``adma:2,3,5``.

    Returns a PureState or DensityMatrix depending on the family.
    Unknown names, malformed or out-of-range parameters raise ValueError.
    """
    name, _, tail = text.strip().partition(":")
    name = name.lower()
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown state family {name!r}; expected one of: {known}")
    builder, param_names, params = _FAMILIES[name]
    if tail:
        parts = tail.split(",")
        if len(parts) != len(param_names):
            raise ValueError(
                f"family {name!r} takes {len(param_names)} parameter(s), got {len(parts)}"
            )
        try:
            params = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"malformed parameter in {text!r}") from exc
        if name in _INT_PARAMS:
            if not all(p.is_integer() for p in params):
                raise ValueError(f"family {name!r} takes integer parameters, got {tail!r}")
            params = tuple(int(p) for p in params)
    elif params is None:
        wanted = ",".join(f"<{p}>" for p in param_names)
        raise ValueError(f"family {name!r} needs parameters: {name}:{wanted}")
    return builder(*params)
