"""Certification: separability scans, discord, fixed points, rank audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from classent import states
from classent.certify import (
    BLOCK_TOL,
    certify_state,
    condition1_check,
    fixed_point_check,
    rank_report,
    zero_discord_check,
)
from classent.matcore import DensityMatrix, as_density, kron

GRID = (24, 8)


def cq_state(rng, basis, weights):
    """sum_k w_k sigma_k (x) |b_k><b_k| with random two-qubit sigma_k."""
    mat = np.zeros((8, 8), dtype=complex)
    for k, w in enumerate(weights):
        sigma = states.random_density_matrix((2, 2), rng).data
        proj = np.outer(basis[:, k], basis[:, k].conj())
        mat += w * kron(sigma, proj)
    return DensityMatrix(mat, (2, 2, 2))


def near_classical(rng, dc, eps):
    """A state classical on C in a Haar-random basis, plus Hermitian coherences
    <b_i|rho|b_j>, i != j, whose largest entry is eps."""
    basis = np.linalg.qr(rng.standard_normal((dc, dc)) + 1j * rng.standard_normal((dc, dc)))[0]
    mat = sum(w * kron(states.random_density_matrix((2, 2), rng).data, np.outer(b, b.conj()))
              for w, b in zip(rng.dirichlet(np.ones(dc)), basis.T))
    for i, j in zip(*np.triu_indices(dc, 1)):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        coherence = kron(x * (eps / np.abs(x).max()), np.outer(basis[:, i], basis[:, j].conj()))
        mat = mat + coherence + coherence.conj().T
    return DensityMatrix(mat, (2, 2, dc))


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

    @pytest.mark.parametrize("spec", ["tilde", "upb", "ghz"])
    def test_mirrored_scan_matches_the_full_scan_of_a_phase_image(self, spec):
        # diag(1, i) on C shifts t by pi/2, which for even n_t maps the grid onto
        # itself (wrapping through x -> pi - x); the image is complex, so its scan
        # takes every direction while the real state's takes the first half
        rho = as_density(states.parse_state_spec(spec))
        u = kron(np.eye(4), np.diag([1, 1j]))
        image = DensityMatrix(u @ rho.data @ u.conj().T, rho.dims)
        assert image.data.imag.any()
        got, want = condition1_check(rho, GRID), condition1_check(image, GRID)
        assert (got.status, got.directions_checked, got.skipped) == \
            (want.status, want.directions_checked, want.skipped)
        assert abs(got.witness - want.witness) <= 1e-12

    def test_ghz_fails_first_at_the_default_grid_index(self):
        rep = condition1_check(states.ghz_state())
        assert rep.status == "fail"
        assert rep.direction.index == (1, 0)
        assert rep.directions_checked == 301 * 51

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
            rep = zero_discord_check(states.flower_state(d))
            assert rep.status == "yes"
            assert rep.basis is not None

    def test_pure_entangled_is_not(self):
        assert zero_discord_check(states.ghz_state()).status == "no"
        assert zero_discord_check(states.w_state()).status == "no"

    def test_product_across_cut_is(self):
        rng = np.random.default_rng(0)
        sigma = states.random_density_matrix((2, 2), rng).data
        flag = np.zeros((2, 2), dtype=complex)
        flag[1, 1] = 1.0
        rho = DensityMatrix(kron(sigma, flag), (2, 2, 2))
        assert zero_discord_check(rho).status == "yes"

    def test_nondegenerate_mixture_decided_exactly(self):
        rng = np.random.default_rng(1)
        basis = np.eye(2, dtype=complex)
        rho = cq_state(rng, basis, (0.7, 0.3))
        rep = zero_discord_check(rho)
        assert rep.status == "yes"

    def test_degenerate_rotated_basis_found_by_pauli_axis(self):
        rng = np.random.default_rng(2)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        rho = cq_state(rng, h, (0.5, 0.5))
        rep = zero_discord_check(rho)
        assert rep.status == "yes"
        # the found basis must actually dephase the state to itself
        assert fixed_point_check(rho, rep.basis) < 1e-10

    def test_degenerate_entangled_stays_undecided(self):
        # maximally mixed C marginal and genuine correlations: the Pauli
        # axis candidate fails, and the check must not claim "no"
        rep = zero_discord_check(states.tilde_state())
        assert rep.status == "undecided"

    def test_degenerate_qutrit_c_stays_undecided(self):
        # each C level carries an orthogonal AB state, so rho_C = 1/3 while
        # no basis of C removes the coherences; the Pauli axis is qubit-only
        phi = np.zeros(12, dtype=complex)
        phi[[0, 4, 8]] = 1 / np.sqrt(3)
        rho = DensityMatrix(0.5 * np.outer(phi, phi.conj()) + 0.5 * np.eye(12) / 12, (2, 2, 3))
        assert zero_discord_check(rho).status == "undecided"

    def test_mixture_of_ghz_w_is_not_classical(self):
        rep = zero_discord_check(states.ghz_w_mixture(0.5))
        assert rep.status == "no"

    @settings(max_examples=50, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1))
    def test_random_basis_with_mixed_marginal_is_found(self, seed):
        # equal weights leave rho_C = 1/2, so only the Pauli axis can find
        # a Haar-random basis, which no grid of directions contains
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        basis = np.linalg.qr(g)[0]
        st = cq_state(rng, basis, (0.5, 0.5))
        rep = zero_discord_check(st)
        assert rep.status == "yes"
        assert fixed_point_check(st, rep.basis) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-8, 3e-8, 1e-7])
    def test_nearly_degenerate_random_basis_is_found(self, eps):
        # weights 1/2 +- eps split rho_C by just over DEGENERACY_GAP, so its
        # eigh basis is off by ~1e-16/eps and fails BLOCK_TOL; the Pauli
        # axis must still find the true basis instead of answering "no"
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            st = cq_state(rng, np.linalg.qr(g)[0], (0.5 + eps, 0.5 - eps))
            rep = zero_discord_check(st)
            assert rep.status == "yes"
            # the Pauli axis goes first, so the coarse eigh basis, which may
            # pass BLOCK_TOL with ~1e-10 left, is never the one reported
            assert fixed_point_check(st, rep.basis) <= 1e-15

    @pytest.mark.parametrize("eps", [1e-8, 3e-8, 1e-7])
    def test_nearly_degenerate_qutrit_c_is_never_no(self, eps):
        # exactly classical with weights 1/3 +- eps, 1/3 in a Haar basis: a qutrit
        # C has no exact candidate and eigh's basis is off by ~1e-17/eps, so a gap
        # too small to rule that out leaves "undecided", never "no"
        rng = np.random.default_rng(1)
        for _ in range(13):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            mat = sum(w * kron(states.random_density_matrix((2, 2), rng).data, np.outer(b, b.conj()))
                      for w, b in zip((1 / 3 + eps, 1 / 3 - eps, 1 / 3), np.linalg.qr(g)[0].T))
            assert zero_discord_check(DensityMatrix(mat, (2, 2, 3))).status != "no"

    def test_catalog_statuses(self):
        # "no" only from the pure and nondegenerate rules; the degenerate
        # mixed states whose Pauli axis fails stay undecided
        undecided = ("tilde", "upb", "ak:2.5", "heis:1", "heis:5")
        no = ("ghz", "w", "psi:0.4", "rho:0.5", "ghz3", "sym3", "hdk", "adma", "ph:1", "bells:2")
        want = {"flower:2": "yes", "flower:3": "yes"}
        want |= {spec: "undecided" for spec in undecided} | {spec: "no" for spec in no}
        got = {spec: zero_discord_check(states.parse_state_spec(spec)).status for spec in want}
        assert got == want


class TestCompleteTransferInvariants:
    def test_full_scan_pass_implies_total_loss(self):
        # whenever every direction leaves separability behind, the grid
        # delta must meet the whole entanglement of the state: on an even
        # grid each direction's complement is scanned too
        from classent.classicalize import delta
        from classent.measures import MeasureKind, tripartite_negativity

        for st in (states.tilde_state(), states.upb_state()):
            assert condition1_check(st, GRID).passed
            res = delta(st, MeasureKind.NEGATIVITY, GRID)
            total = tripartite_negativity(st)
            assert abs(res.delta - total) <= 1e-9

    def test_zero_discord_implies_no_loss(self):
        # a state already classical on C cannot lose anything; delta may
        # sit a hair below zero for mixed states, never above rounding
        from classent.classicalize import delta
        from classent.measures import MeasureKind

        rng = np.random.default_rng(7)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        cases = [states.flower_state(2), cq_state(rng, h, (0.5, 0.5))]
        for st in cases:
            rep = zero_discord_check(st)
            assert rep.status == "yes"
            assert fixed_point_check(st, rep.basis) <= 1e-10
            res = delta(st, MeasureKind.NEGATIVITY, GRID)
            assert res.delta <= 1e-9


class TestFixedPoint:
    def test_ghz_residual_half(self):
        assert fixed_point_check(states.ghz_state()) == pytest.approx(0.5, abs=1e-9)

    def test_flower_exactly_fixed(self):
        assert fixed_point_check(states.flower_state(2)) <= 1e-12

    def test_rotated_basis_changes_residual(self):
        rho = states.flower_state(2)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert fixed_point_check(rho, h) > 1e-3

    @pytest.mark.parametrize("bad", [1.0, np.nan, np.inf], ids=["ones", "nan", "inf"])
    def test_rejects_non_unitary_basis(self, bad):
        # NaN slips past a deviation threshold, so non-finite bases are checked first
        with pytest.raises(ValueError, match="unitary"):
            fixed_point_check(states.ghz_state(), np.full((2, 2), bad))

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

    def test_a_failed_eigensolve_is_not_a_skipped_scan(self, monkeypatch):
        # LinAlgError is a ValueError, but a numerical failure is no usage error;
        # only the scan's stacked eigensolve fails, the other checks still run
        eigvalsh = np.linalg.eigvalsh

        def fail(a, *args, **kwargs):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            certify_state(states.tilde_state(), GRID)

    def test_invalid_grid_raises(self):
        with pytest.raises(ValueError, match="grid resolution must be positive"):
            certify_state(states.flower_state(2), (0, 5))

    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), dc=hst.sampled_from([2, 3]),
           log_eps=hst.floats(-10.7, -9.7))
    def test_yes_reports_a_residual_within_block_tol(self, seed, dc, log_eps):
        # the discord verdict and the reported residual are one test: a qutrit C's
        # residual can reach twice the largest rotated off-diagonal entry
        st = near_classical(np.random.default_rng(seed), dc, 10.0**log_eps)
        if zero_discord_check(st).status == "yes":
            assert certify_state(st, GRID).fixed_point_residual <= BLOCK_TOL

    def test_discord_basis_feeds_fixed_point(self):
        rep = certify_state(states.flower_state(2), GRID)
        assert rep.zero_discord.status == "yes"
        assert rep.fixed_point_residual <= 1e-12
