"""Certification checks around complete entanglement loss.

Three independent certificates are implemented:

* a grid scan certifying that every measurement direction on C leaves a
  separable two-qubit state behind, which forces the entanglement
  change to be complete;
* a zero-discord test deciding whether the state is already classical on C,
  a fixed point of the classicalization channel to BLOCK_TOL in ``fixed_point_check``;
* a rank and PPT report that cross-checks the structural consequences
  of complete loss (a reduced state of rank more than 2, and rank more
  than 2 globally when additionally AB|C is separable).

Verdicts are conservative: "separable" is only ever claimed where the PPT
criterion is decisive, and the discord test answers "undecided" rather than
guessing when a degenerate marginal leaves its exact candidate bases unconfirmed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classicalize import DEFAULT_GRID, ZERO_PROB, MeasurementDirection, _check_grid
from .classicalize import _direction_at, _grid_pass, _outcome_blocks, _pt_map, _traces, c_blocks
from .matcore import PAULIS, as_tripartite, is_pure, numeric_rank, partial_trace, tripartite_cuts
from .measures import PPT_TOL, SeparabilityVerdict, ppt_verdict

# A dephasing residual (fixed_point_check) of at most this counts as a fixed point.
BLOCK_TOL = 1e-10

# Marginal eigenvalues farther apart than this fix the diagonalizing basis,
# so failed candidates of a qubit C mean "no"; closer ones leave it open
# ("undecided").  A larger C needs a wider gap (zero_discord_check).
DEGENERACY_GAP = 1e-8


@dataclass(frozen=True)
class Condition1Report:
    """Outcome of the all-directions separability scan.

    On "pass", witness is the worst normalized partial-transpose
    eigenvalue encountered and direction is None.  On "fail", witness
    and direction identify the first grid direction (lowest flat index)
    whose post state is NPT.  For a qutrit C the scan covers real
    directions only, the grid's, so a "pass" says nothing of complex ones.
    """

    status: str
    directions_checked: int
    skipped: int
    witness: float
    direction: MeasurementDirection | None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def condition1_check(state, grid=DEFAULT_GRID) -> Condition1Report:
    """Scan every grid direction |x> on C for a separable post state.

    The normalized post state sigma_|x> = <x|rho|x> / p_x must be PPT
    for every direction; with qubit A and B the PPT criterion is
    decisive, so a full pass certifies complete entanglement loss.
    Directions with p_x below the zero-probability threshold are
    skipped, and a normalized partial-transpose eigenvalue below
    ``-PPT_TOL`` fails the scan.  For a qutrit C the grid holds real
    directions only (``Condition1Report``).
    """
    rho = as_tripartite(state)
    if rho.dims[:2] != (2, 2):
        raise ValueError(f"PPT not decisive for dims {rho.dims}; the scan needs qubit A and B")

    def evaluate(kets):
        k = _outcome_blocks(rho, kets)
        return _traces(k), np.linalg.eigvalsh(k.reshape(len(k), -1)[:, _pt_map((2, 2))])[:, 0]

    probs, min_eigs = _grid_pass(rho, grid, evaluate)
    mask = probs > ZERO_PROB
    witnesses = np.where(mask, min_eigs / np.where(mask, probs, 1.0), np.inf)
    checked, skipped = int(mask.sum()), int((~mask).sum())
    failing = np.nonzero(witnesses < -PPT_TOL)[0]
    if failing.size:
        first = int(failing[0])
        return Condition1Report("fail", checked, skipped, float(witnesses[first]),
                                _direction_at(rho.dims[2], grid, first))
    worst = float(witnesses[mask].min()) if checked else np.inf
    return Condition1Report("pass", checked, skipped, worst, None)


@dataclass(frozen=True)
class DiscordReport:
    """Whether the state is classical on C: yes, no or undecided.

    On "yes", basis holds the C basis (as columns) whose dephasing
    leaves the state invariant.
    """

    status: str
    basis: np.ndarray | None


def zero_discord_check(state) -> DiscordReport:
    """Decide whether rho = sum_i p_i sigma_i (x) |b_i><b_i| for some basis.

    The basis must diagonalize the C marginal, so its eigenbasis is a candidate,
    valid even for a degenerate marginal.  A mixed state with a qubit C has an
    exact candidate, tried first (Dakic, Vedral, Brukner 2010).  With
    A_k = tr_C[(1 (x) sigma_k) rho], dephasing along the Bloch axis n maps
    rho = (A_0 (x) 1 + sum_k A_k (x) sigma_k)/2 to (A_0 (x) 1 + (n.A) (x) (n.sigma))/2,
    so rho is fixed iff A_k = n_k (n.A) for all k; then tr(A_j A_k) = n_j n_k
    tr((n.A)^2), whose top eigenvector is +-n.  It stays exact for a nearly
    degenerate marginal, whose eigh basis is only good to ~1e-16/gap.  A candidate
    passes iff ``fixed_point_check`` in its basis is at most BLOCK_TOL.  When none
    passes, a pure or nondegenerate state is "no", the rest "undecided".

    Without an exact candidate (C of dimension d > 2), the gap must also rule out
    eigh's error.  A state fixed in a basis B has rho_C diagonal in B, so for nonzero
    gaps B is the eigenbasis.  eigh returns that of rho_C + E, ||E|| <~ d eps, so by
    Davis-Kahan each computed b'_k has sin(theta_k) <= ||E||/gap, and dephasing in B'
    moves each term (1 (x) P_k) rho (1 (x) P_k) by at most 2 sin(theta_k): the residual
    is at most 2 d^2 eps / gap.  So a failed eigenbasis proves "no" only for a gap
    above 2 d^2 eps / BLOCK_TOL (4.0e-5 for a qutrit).
    """
    rho = as_tripartite(state)
    w, basis = np.linalg.eigh(partial_trace(rho, (2,)).data)
    candidates, pure = [basis], is_pure(rho)
    if rho.dims[2] == 2 and not pure:
        a = np.einsum("kcd,dcab->kab", PAULIS, c_blocks(rho))
        axis = np.linalg.eigh(np.einsum("jab,kba->jk", a, a).real)[1][:, -1]
        candidates.insert(0, np.linalg.eigh(np.einsum("k,kcd->cd", axis, PAULIS))[1])
    for basis in candidates:
        if fixed_point_check(rho, basis) <= BLOCK_TOL:
            return DiscordReport("yes", basis)
    dc = rho.dims[2]
    floor = DEGENERACY_GAP if dc == 2 else 2 * dc**2 * np.finfo(float).eps / BLOCK_TOL
    # A pure state is classical on C only if it is a product across AB|C,
    # and then the marginal eigenbasis above already passed.
    if pure or float(np.min(np.diff(w))) > floor:
        return DiscordReport("no", None)
    return DiscordReport("undecided", None)


def fixed_point_check(state, basis: np.ndarray | None = None) -> float:
    """Residual of the state under dephasing C in the given basis.

    Applies rho -> sum_k (1 (x) P_k) rho (1 (x) P_k) with projectors
    onto the basis columns (computational basis by default) and returns
    the largest entrywise deviation; zero means the classicalization
    channel fixes the state.
    """
    rho = as_tripartite(state)
    dc = rho.dims[2]
    basis = np.eye(dc, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
    if basis.shape != (dc, dc):
        raise ValueError(f"basis must be a {dc}x{dc} unitary; got shape {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise ValueError(f"basis must be a {dc}x{dc} unitary; it has NaN or infinite entries")
    unitary_dev = float(np.max(np.abs(basis.conj().T @ basis - np.eye(dc))))
    if unitary_dev > 1e-10:
        raise ValueError(f"basis must be a {dc}x{dc} unitary; deviation {unitary_dev:.3e}")
    diag = _outcome_blocks(rho, basis.T)
    dephased = np.einsum("kab,ck,dk->cdab", diag, basis, basis.conj(), optimize=True)
    return float(np.max(np.abs(dephased - c_blocks(rho))))


@dataclass(frozen=True)
class RankReport:
    """Numeric ranks, per-bipartition PPT verdicts and consistency flags."""

    rank: int
    rank_ab: int
    ppt: dict[str, SeparabilityVerdict]
    flags: tuple[str, ...]


def rank_report(state, condition1_pass: bool = False) -> RankReport:
    """Ranks and PPT verdicts, with a consistency audit on complete loss.

    A state with every measurement direction leaving a separable pair
    behind cannot be NPT for both A|BC and B|AC with a reduced state of
    rank at most 2; if additionally AB|C is PPT, its global rank must
    exceed 2 as well.  When ``condition1_pass`` is True the audit flags
    any violation; otherwise the hypotheses are unestablished and no
    flag can fire.
    """
    rho = as_tripartite(state)
    ppt = {cut.label(): ppt_verdict(rho, cut) for cut in tripartite_cuts()}
    rank = numeric_rank(rho)
    rank_ab = numeric_rank(partial_trace(rho, (0, 1)))
    flags = []
    if condition1_pass:
        npt_both = ppt["BC|A"].is_entangled and ppt["AC|B"].is_entangled
        if npt_both and rank_ab <= 2:
            flags.append(
                "complete loss with NPT A|BC and B|AC requires rank(rho_AB) > 2, "
                f"found {rank_ab}"
            )
        if npt_both and not ppt["AB|C"].is_entangled and rank <= 2:
            flags.append(
                "complete loss with NPT A|BC and B|AC and PPT AB|C requires "
                f"rank(rho) > 2, found {rank}"
            )
    return RankReport(rank, rank_ab, ppt, tuple(flags))


@dataclass(frozen=True)
class CertReport:
    """Bundle of all certification checks for one state."""

    condition1: Condition1Report | None
    condition1_skipped: str | None
    zero_discord: DiscordReport
    fixed_point_residual: float
    ranks: RankReport


def certify_state(state, grid=DEFAULT_GRID) -> CertReport:
    """Run every certification check that applies to the state.

    The separability scan is skipped (with a reason) when A or B is not
    a qubit or C is not a qubit or qutrit; an invalid grid raises
    ValueError, a failed eigensolve LinAlgError.  The discord basis, when
    one is found, feeds the fixed-point residual (at most BLOCK_TOL on "yes").
    """
    rho = as_tripartite(state)
    grid = _check_grid(grid)
    condition1 = skipped = None
    try:
        condition1 = condition1_check(rho, grid=grid)
    except np.linalg.LinAlgError:
        raise  # a numerical failure, not a reason to skip the scan
    except ValueError as exc:
        skipped = str(exc)
    discord = zero_discord_check(rho)
    residual = fixed_point_check(rho, discord.basis)
    ranks = rank_report(rho, condition1_pass=condition1 is not None and condition1.passed)
    return CertReport(condition1, skipped, discord, residual, ranks)
