"""Certification checks around complete entanglement loss.

Three independent certificates are implemented:

* a grid scan certifying that every measurement direction on C leaves a
  separable two-qubit state behind, which forces the entanglement
  change to be complete;
* a zero-discord test deciding whether the state is already classical
  on C, i.e. a fixed point of the classicalization channel;
* a rank and PPT report that cross-checks the structural consequences
  of complete loss (a reduced state of rank more than 2, and rank more
  than 2 globally when additionally AB|C is separable).

Verdicts are conservative: "separable" is only ever claimed where the
PPT criterion is decisive, and the discord test answers "undecided"
rather than guessing when a degenerate marginal defeats its basis
search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classicalize import (
    DEFAULT_GRID,
    ZERO_PROB,
    MeasurementDirection,
    _check_grid,
    _contract,
    _direction_at,
    _first_outcomes,
    c_blocks,
    direction_kets,
)
from .matcore import _partial_transpose_array
from .matcore import as_tripartite, is_pure, numeric_rank, partial_trace, tripartite_cuts
from .measures import PPT_TOL, SeparabilityVerdict, ppt_verdict

# Off-diagonal C-blocks below this size count as vanished.
BLOCK_TOL = 1e-10

# Marginal eigenvalues closer than this leave the diagonalizing basis
# ambiguous, so the discord test falls back to a search.
DEGENERACY_GAP = 1e-8

# Eigenvalues above this count toward the ranks of the rank report.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class Condition1Report:
    """Outcome of the all-directions separability scan.

    On "pass", witness is the worst normalized partial-transpose
    eigenvalue encountered and direction is None.  On "fail", witness
    and direction identify the first grid direction (lowest flat index)
    whose post state is NPT.
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
    ``-PPT_TOL`` fails the scan.
    """
    rho = as_tripartite(state)
    if rho.dims[:2] != (2, 2):
        raise ValueError(
            f"PPT not decisive for dims {rho.dims}; the scan needs qubit A and B"
        )
    k0 = _first_outcomes(rho, grid)
    probs = np.trace(k0, axis1=1, axis2=2).real
    mask = probs > ZERO_PROB
    min_eigs = np.linalg.eigvalsh(_partial_transpose_array(k0, (2, 2), (0,)))[:, 0]
    witnesses = np.where(mask, min_eigs / np.where(mask, probs, 1.0), np.inf)
    skipped = int((~mask).sum())
    checked = int(mask.sum())
    failing = np.nonzero(witnesses < -PPT_TOL)[0]
    if failing.size:
        first = int(failing[0])
        return Condition1Report(
            "fail", checked, skipped, float(witnesses[first]),
            _direction_at(rho.dims[2], grid, first),
        )
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


def zero_discord_check(state, grid=DEFAULT_GRID) -> DiscordReport:
    """Decide whether rho = sum_i p_i sigma_i (x) |b_i><b_i| for some basis.

    The candidate basis must diagonalize the C marginal, so its
    eigenbasis is checked first; that certificate is valid even for a
    degenerate marginal.  If it fails, a nondegenerate marginal makes
    "no" exact, and so does a globally pure state.  Only a mixed state
    with a degenerate marginal falls back to a grid search over qubit
    bases, which returns yes or undecided, never a false no.
    """
    rho = as_tripartite(state)
    dc = rho.dims[2]
    blocks = c_blocks(rho)
    rho_c = partial_trace(rho, (2,)).data
    w, basis = np.linalg.eigh(rho_c)
    # every off-diagonal block <b_i|rho|b_j>, i != j, of the eigenbasis
    i, j = np.nonzero(~np.eye(dc, dtype=bool))
    off = _contract(blocks, basis.conj().T[i], basis.T[j])
    if float(np.max(np.abs(off))) <= BLOCK_TOL:
        return DiscordReport("yes", basis)
    if is_pure(rho):
        # A pure state is classical on C only if it is a product across
        # AB|C, and then the marginal eigenbasis above already passed.
        return DiscordReport("no", None)
    if float(np.min(np.diff(w))) > DEGENERACY_GAP:
        return DiscordReport("no", None)
    if dc != 2:
        return DiscordReport("undecided", None)
    kets = direction_kets(2, grid)
    perps = np.stack([-kets[:, 1].conj(), kets[:, 0].conj()], axis=-1)
    cross = _contract(blocks, kets.conj(), perps)
    flat = np.abs(cross).reshape(cross.shape[0], -1).max(axis=1)
    hits = np.nonzero(flat <= BLOCK_TOL)[0]
    if hits.size:
        n = int(hits[0])
        found = np.stack([kets[n], perps[n]], axis=-1)
        return DiscordReport("yes", found)
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
    if basis is None:
        basis = np.eye(dc, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (dc, dc):
        raise ValueError(f"basis must be a {dc}x{dc} unitary; got shape {basis.shape}")
    unitary_dev = float(np.max(np.abs(basis.conj().T @ basis - np.eye(dc))))
    if unitary_dev > 1e-10:
        raise ValueError(f"basis must be a {dc}x{dc} unitary; deviation {unitary_dev:.3e}")
    diag = _contract(c_blocks(rho), basis.conj().T, basis.T)
    dephased = np.einsum("kxy,ck,dk->xcyd", diag, basis, basis.conj(), optimize=True)
    side = rho.side
    return float(np.max(np.abs(dephased.reshape(side, side) - rho.data)))


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
    rank = numeric_rank(rho, RANK_TOL)
    rank_ab = numeric_rank(partial_trace(rho, (0, 1)), RANK_TOL)
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
    ValueError.  The discord basis, when one is found, feeds the
    fixed-point residual.
    """
    rho = as_tripartite(state)
    grid = _check_grid(grid)
    condition1 = None
    skipped = None
    try:
        condition1 = condition1_check(rho, grid=grid)
    except ValueError as exc:
        skipped = str(exc)
    discord = zero_discord_check(rho, grid=grid)
    basis = discord.basis if discord.status == "yes" else None
    residual = fixed_point_check(rho, basis)
    ranks = rank_report(rho, condition1_pass=condition1 is not None and condition1.passed)
    return CertReport(condition1, skipped, discord, residual, ranks)
