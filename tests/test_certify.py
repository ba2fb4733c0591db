"""Certification: separability scans, discord, fixed points, rank audit."""

import numpy as np
import pytest

from classent import states
from classent.certify import (
    certify_state,
    condition1_check,
    fixed_point_check,
    rank_report,
    zero_discord_check,
)
from classent.matcore import DensityMatrix, kron

GRID = (24, 8)


def cq_state(rng, basis, weights):
    """sum_k w_k sigma_k (x) |b_k><b_k| with random two-qubit sigma_k."""
    mat = np.zeros((8, 8), dtype=complex)
    for k, w in enumerate(weights):
        sigma = states.random_density_matrix((2, 2), rng).data
        proj = np.outer(basis[:, k], basis[:, k].conj())
        mat += w * kron(sigma, proj)
    return DensityMatrix(mat, (2, 2, 2))


class TestConditionScan:
    def test_invariant_state_passes_everywhere(self):
        rep = condition1_check(states.tilde_state(), GRID)
        assert rep.passed
        assert rep.status == "pass"
        assert rep.directions_checked == (GRID[0] + 1) * (GRID[1] + 1)
        assert rep.skipped == 0
        assert rep.witness > -1e-10
        assert rep.direction is None

    def test_ghz_fails_with_witness(self):
        rep = condition1_check(states.ghz_state(), GRID)
        assert not rep.passed
        assert rep.witness < -1e-3
        assert rep.direction is not None

    def test_fail_reports_lowest_index(self):
        # scan order is deterministic: the first failing flat index wins
        from classent.classicalize import direction_kets

        rep = condition1_check(states.ghz_state(), (8, 4))
        flat = rep.direction.index[0] * (4 + 1) + rep.direction.index[1]
        all_kets = direction_kets(2, (8, 4))
        assert np.allclose(all_kets[flat], rep.direction.ket())
        kets = direction_kets(2, (8, 4))
        # no earlier grid index may fail: recompute the scan by hand
        from classent.classicalize import c_blocks

        blocks = c_blocks(states.ghz_state().projector())
        for n in range(flat):
            k0 = np.einsum("c,cdab,d->ab", kets[n].conj(), blocks, kets[n])
            p = float(np.trace(k0).real)
            if p > 1e-12:
                pt = k0.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
                assert np.linalg.eigvalsh(pt)[0] / p >= -1e-10

    def test_rejects_non_qubit_pair(self):
        with pytest.raises(ValueError, match="PPT not decisive"):
            condition1_check(states.flower_state(3), GRID)

    def test_qutrit_c_supported(self):
        # qubit pair with a qutrit C: the scan runs on the real qutrit grid
        mixed = DensityMatrix(np.eye(12) / 12, (2, 2, 3))
        assert condition1_check(mixed, (12, 6)).passed
        rng = np.random.default_rng(5)
        entangled = states.random_pure_state((2, 2, 3), rng)
        assert condition1_check(entangled, (12, 6)).status == "fail"

    def test_rejects_qutrit_pair(self):
        with pytest.raises(ValueError, match="PPT not decisive"):
            condition1_check(states.ghz_state(3), (12, 6))


class TestZeroDiscord:
    def test_flower_is_classical_on_c(self):
        for d in (2, 3):
            rep = zero_discord_check(states.flower_state(d), GRID)
            assert rep.status == "yes"
            assert rep.basis is not None

    def test_pure_entangled_is_not(self):
        assert zero_discord_check(states.ghz_state(), GRID).status == "no"
        assert zero_discord_check(states.w_state(), GRID).status == "no"

    def test_product_across_cut_is(self):
        rng = np.random.default_rng(0)
        sigma = states.random_density_matrix((2, 2), rng).data
        flag = np.zeros((2, 2), dtype=complex)
        flag[1, 1] = 1.0
        rho = DensityMatrix(kron(sigma, flag), (2, 2, 2))
        assert zero_discord_check(rho, GRID).status == "yes"

    def test_nondegenerate_mixture_decided_exactly(self):
        rng = np.random.default_rng(1)
        basis = np.eye(2, dtype=complex)
        rho = cq_state(rng, basis, (0.7, 0.3))
        rep = zero_discord_check(rho, GRID)
        assert rep.status == "yes"

    def test_degenerate_rotated_basis_found_by_search(self):
        rng = np.random.default_rng(2)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        rho = cq_state(rng, h, (0.5, 0.5))
        rep = zero_discord_check(rho, GRID)
        assert rep.status == "yes"
        # the found basis must actually dephase the state to itself
        assert fixed_point_check(rho, rep.basis) < 1e-10

    def test_degenerate_entangled_stays_undecided(self):
        # maximally mixed C marginal and genuine correlations: the search
        # cannot certify, and must not claim "no"
        rep = zero_discord_check(states.tilde_state(), GRID)
        assert rep.status == "undecided"

    def test_degenerate_qutrit_c_stays_undecided(self):
        # each C level carries an orthogonal AB state, so rho_C = 1/3 while
        # no basis of C removes the coherences; the basis search is qubit-only
        phi = np.zeros(12, dtype=complex)
        phi[[0, 4, 8]] = 1 / np.sqrt(3)
        rho = DensityMatrix(0.5 * np.outer(phi, phi.conj()) + 0.5 * np.eye(12) / 12, (2, 2, 3))
        assert zero_discord_check(rho, GRID).status == "undecided"

    def test_mixture_of_ghz_w_is_not_classical(self):
        rep = zero_discord_check(states.ghz_w_mixture(0.5), GRID)
        assert rep.status == "no"


class TestCompleteTransferInvariants:
    def test_full_scan_pass_implies_total_loss(self):
        # whenever every direction leaves separability behind, the grid
        # delta must meet the whole entanglement of the state
        from classent.classicalize import delta, grid_tolerance
        from classent.measures import MeasureKind, tripartite_negativity

        for st in (states.tilde_state(), states.upb_state()):
            assert condition1_check(st, GRID).passed
            res = delta(st, MeasureKind.NEGATIVITY, GRID)
            total = tripartite_negativity(st)
            assert abs(res.delta - total) <= 2 * grid_tolerance(GRID)

    def test_zero_discord_implies_no_loss(self):
        # a state already classical on C cannot lose anything; delta may
        # sit a hair below zero for mixed states, never above tolerance
        from classent.classicalize import delta, grid_tolerance
        from classent.measures import MeasureKind

        rng = np.random.default_rng(7)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        cases = [states.flower_state(2), cq_state(rng, h, (0.5, 0.5))]
        for st in cases:
            rep = zero_discord_check(st, GRID)
            assert rep.status == "yes"
            assert fixed_point_check(st, rep.basis) <= 1e-10
            res = delta(st, MeasureKind.NEGATIVITY, GRID)
            assert res.delta <= grid_tolerance(GRID)


class TestFixedPoint:
    def test_ghz_residual_half(self):
        assert fixed_point_check(states.ghz_state()) == pytest.approx(0.5, abs=1e-9)

    def test_flower_exactly_fixed(self):
        assert fixed_point_check(states.flower_state(2)) <= 1e-12

    def test_rotated_basis_changes_residual(self):
        rho = states.flower_state(2)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert fixed_point_check(rho, h) > 1e-3

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(ValueError, match="unitary"):
            fixed_point_check(states.ghz_state(), np.ones((2, 2)))

    def test_rejects_wrong_shape_basis(self):
        # the shape is checked before the basis is multiplied out
        with pytest.raises(ValueError, match="basis must be a 2x2 unitary"):
            fixed_point_check(states.ghz_state(), np.eye(3, dtype=complex))


class TestRankReport:
    def test_tilde_ranks_and_cuts(self):
        rep = rank_report(states.tilde_state())
        assert rep.rank == 4
        assert rep.rank_ab == 4
        assert rep.ppt["BC|A"].is_entangled
        assert rep.ppt["AC|B"].is_entangled
        assert rep.ppt["AB|C"].status == "ppt_inconclusive"
        assert rep.flags == ()

    def test_no_flags_without_condition_result(self):
        rep = rank_report(states.ghz_state())
        assert rep.flags == ()

    def test_reduced_rank_flag_fires(self):
        # GHZ has a rank-2 pair marginal and NPT side cuts, so asserting
        # complete loss for it must trip the audit
        rep = rank_report(states.ghz_state(), condition1_pass=True)
        assert any("rank(rho_AB)" in f for f in rep.flags)

    def test_global_rank_flag_fires(self):
        # Bell pair with a product flag on C: NPT side cuts, PPT AB|C,
        # global rank 1
        amp = np.zeros(4)
        amp[0] = amp[3] = 1 / np.sqrt(2)
        bell = np.outer(amp, amp)
        flag = np.zeros((2, 2), dtype=complex)
        flag[0, 0] = 1.0
        rho = DensityMatrix(kron(bell, flag), (2, 2, 2))
        rep = rank_report(rho, condition1_pass=True)
        assert any("rank(rho) > 2" in f for f in rep.flags)

    def test_true_pass_keeps_zoo_clean(self):
        for st in (states.tilde_state(), states.hdk_state(), states.upb_state()):
            rep = rank_report(st, condition1_pass=True)
            assert rep.flags == ()


class TestCertifyState:
    def test_full_report_on_tilde(self):
        rep = certify_state(states.tilde_state(), GRID)
        assert rep.condition1 is not None and rep.condition1.passed
        assert rep.condition1_skipped is None
        assert rep.ranks.rank == 4
        assert set(rep.ranks.ppt) == {"AB|C", "BC|A", "AC|B"}

    def test_scan_skipped_for_qutrit_pair(self):
        rep = certify_state(states.flower_state(3), GRID)
        assert rep.condition1 is None
        assert "PPT not decisive" in rep.condition1_skipped
        assert rep.zero_discord.status == "yes"
        assert rep.fixed_point_residual <= 1e-10

    def test_scan_skipped_for_four_level_c(self):
        rep = certify_state(DensityMatrix(np.eye(16) / 16, (2, 2, 4)), GRID)
        assert rep.condition1 is None
        assert "dimension 2 or 3" in rep.condition1_skipped

    def test_invalid_grid_raises(self):
        with pytest.raises(ValueError, match="grid resolution must be positive"):
            certify_state(states.flower_state(2), (0, 5))

    def test_discord_basis_feeds_fixed_point(self):
        rep = certify_state(states.flower_state(2), GRID)
        assert rep.zero_discord.status == "yes"
        assert rep.fixed_point_residual <= 1e-12
