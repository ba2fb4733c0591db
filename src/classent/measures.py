"""Entanglement quantifiers and the PPT separability test.

Two tripartite measures are supported: the tripartite negativity (sum
of the bipartition negativities) and the squashed entanglement, which
for a pure tripartite state reduces to half the sum of the three
marginal entropies.  Both are evaluated in bits.

Negative partial-transpose eigenvalues below -1e-12 count toward a
negativity; smaller excursions are treated as rounding noise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .matcore import (
    Bipartition,
    PureState,
    as_density,
    as_tripartite,
    is_pure,
    partial_trace,
    partial_transpose,
    tripartite_cuts,
    von_neumann_entropy,
)

NEG_EIG_THRESHOLD = 1e-12

# A partial-transpose eigenvalue below -PPT_TOL witnesses entanglement.
PPT_TOL = 1e-10


class MeasureKind(enum.Enum):
    """Which tripartite entanglement measure a computation optimizes."""

    NEGATIVITY = "negativity"
    SQUASHED = "squashed"


def as_measure(measure) -> MeasureKind:
    """Accept a MeasureKind or its string name."""
    if isinstance(measure, MeasureKind):
        return measure
    return MeasureKind(str(measure).lower())


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the PPT test for one bipartition.

    status is one of "entangled", "separable" or "ppt_inconclusive";
    witness is the smallest partial-transpose eigenvalue.
    """

    status: str
    witness: float

    @property
    def is_entangled(self) -> bool:
        return self.status == "entangled"


def negsum(eigenvalues: np.ndarray) -> float:
    """Total magnitude of eigenvalues below ``-NEG_EIG_THRESHOLD``."""
    w = eigenvalues[eigenvalues < -NEG_EIG_THRESHOLD]
    return float(-w.sum()) if w.size else 0.0


def negativity(state, part: Bipartition) -> float:
    """Negativity across ``part``: the weight of the negative PT spectrum.

    Parameters
    ----------
    state : DensityMatrix or PureState
    part : Bipartition

    Returns
    -------
    float
        Sum of |lambda| over partial-transpose eigenvalues lambda below
        the noise threshold; zero for PPT states.
    """
    rho = as_density(state)
    w = np.linalg.eigvalsh(partial_transpose(rho, part))
    return negsum(w)


def pure_negativity_schmidt(psi: PureState, part: Bipartition) -> float:
    """Negativity of a pure state from its Schmidt coefficients.

    For Schmidt coefficients lambda_i across the cut, the negativity is
    sum_{i<j} lambda_i lambda_j, an independent route to the same number
    as the eigenvalue-based :func:`negativity`.
    """
    if not isinstance(psi, PureState):
        raise TypeError("pure_negativity_schmidt needs a PureState")
    part.check_covers(len(psi.dims))
    tensor = psi.amp.reshape(psi.dims)
    perm = list(part.left) + list(part.right)
    block = tensor.transpose(perm).reshape(part.block_dims(psi.dims)[0], -1)
    coeffs = np.linalg.svd(block, compute_uv=False)
    total = float(coeffs.sum())
    return (total * total - float(np.sum(coeffs**2))) / 2.0


def tripartite_negativity(state) -> float:
    """Sum of the negativities across AB|C, BC|A and AC|B."""
    rho = as_tripartite(state)
    return sum(negativity(rho, cut) for cut in tripartite_cuts())


def squashed_pure_tripartite(state) -> float:
    """Squashed entanglement of a pure tripartite state, in bits.

    Equals half the sum of the three single-party entropies.  Mixed
    input is rejected: the mixed-state optimization over extensions is
    out of scope here.
    """
    rho = as_tripartite(state)
    if not is_pure(rho):
        raise ValueError("squashed global value undefined for mixed states")
    return sum(von_neumann_entropy(partial_trace(rho, (i,))) for i in range(3)) / 2.0


def post_value(measure, sigma) -> float:
    """Measure value of ``sigma (x) |0><0|`` after one measurement outcome.

    Appending the pure flag qubit |0> collapses both measures to
    two-party expressions on sigma alone: the tripartite negativity
    becomes twice the negativity across A|B (the A|BC and B|AC cuts
    coincide there and the AB|C cut vanishes), and the squashed
    entanglement becomes (S(A) + S(B)) / 2.
    """
    measure = as_measure(measure)
    sigma = as_density(sigma)
    if sigma.n_subsystems != 2:
        raise ValueError(f"post-measurement states are bipartite, got dims {sigma.dims}")
    if measure is MeasureKind.NEGATIVITY:
        return 2.0 * negativity(sigma, Bipartition((0,), (1,)))
    return sum(von_neumann_entropy(partial_trace(sigma, (i,))) for i in (0, 1)) / 2.0


def ppt_verdict(state, part: Bipartition) -> SeparabilityVerdict:
    """PPT test across one bipartition.

    A negative witness below ``-PPT_TOL`` certifies entanglement.  A
    nonnegative spectrum certifies separability only where PPT is
    decisive (2x2 and 2x3 block dimensions); anywhere else the verdict
    stays ``ppt_inconclusive``, since PPT entangled states exist.
    """
    rho = as_density(state)
    w = np.linalg.eigvalsh(partial_transpose(rho, part))
    witness = float(w[0])
    if witness < -PPT_TOL:
        return SeparabilityVerdict("entangled", witness)
    if sorted(part.block_dims(rho.dims)) in ([2, 2], [2, 3]):
        return SeparabilityVerdict("separable", witness)
    return SeparabilityVerdict("ppt_inconclusive", witness)
