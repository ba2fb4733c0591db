"""The classicalization channel and the grid optimization of delta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from classent import states
from classent.classicalize import (
    MeasurementDirection,
    _direction_at,
    _grid_outcomes,
    classicalize,
    delta,
    direction_kets,
    ensemble_values,
    global_value,
    grid_tolerance,
    lower_bound,
    upper_bound,
)
from classent.matcore import DensityMatrix, PureState, kron
from classent.measures import MeasureKind, post_value

# small even grid: closed under qubit complements, fast enough for loops
GRID = (24, 8)


class TestDirectionGrid:
    def test_qubit_kets_normalized(self):
        kets = direction_kets(2, GRID)
        assert kets.shape == ((GRID[0] + 1) * (GRID[1] + 1), 2)
        np.testing.assert_allclose(np.linalg.norm(kets, axis=1), 1.0, atol=1e-12)

    def test_first_ket_is_computational(self):
        kets = direction_kets(2, GRID)
        np.testing.assert_allclose(kets[0], [1.0, 0.0], atol=1e-15)

    def test_qubit_grid_closed_under_complement(self):
        # for even n_x the orthogonal direction of every ket is on the grid,
        # up to phase; verify via projector matching
        nx, nt = 8, 4
        kets = direction_kets(2, (nx, nt))
        projs = np.einsum("ni,nj->nij", kets, kets.conj())
        for n in range(kets.shape[0]):
            k = kets[n]
            perp = np.array([-np.conj(k[1]), np.conj(k[0])])
            target = np.outer(perp, perp.conj())
            match = np.abs(projs - target).reshape(len(kets), -1).max(axis=1).min()
            assert match < 1e-12

    def test_qutrit_kets_real_and_normalized(self):
        kets = direction_kets(3, GRID)
        assert np.abs(kets.imag).max() == 0.0
        np.testing.assert_allclose(np.linalg.norm(kets, axis=1), 1.0, atol=1e-12)

    def test_rejects_unsupported_dim(self):
        with pytest.raises(ValueError):
            direction_kets(4, GRID)

    def test_direction_grid_matches_kets(self):
        kets = direction_kets(2, (4, 2))
        assert kets.shape[0] == 5 * 3
        for flat, k in enumerate(kets):
            np.testing.assert_allclose(_direction_at(2, (4, 2), flat).ket(), k, atol=1e-12)

    def test_grid_tolerance_scales(self):
        assert grid_tolerance((300, 50)) < grid_tolerance((30, 5))


class TestClassicalize:
    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        rho = states.random_density_matrix((2, 2, 2), rng)
        for flat in range(6):
            outs = classicalize(rho, _direction_at(2, (4, 2), flat))
            assert sum(o.prob for o in outs) == pytest.approx(1.0, abs=1e-10)
            for o in outs:
                if not o.negligible:
                    assert o.post.dims == (2, 2)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        dims=hst.sampled_from([(2, 2, 2), (2, 2, 3)]),
        pure=hst.booleans(),
    )
    def test_probabilities_sum_to_one_and_match_the_grid(self, seed, dims, pure):
        # the scalar channel and the grid pass weigh every direction alike
        rng = np.random.default_rng(seed)
        if pure:
            rho = states.random_pure_state(dims, rng).projector()
        else:
            rho = states.random_density_matrix(dims, rng)
        grid = (4, 2)
        probs = _grid_outcomes(rho, MeasureKind.NEGATIVITY, grid, complement=False)[0]
        for flat, p in enumerate(probs):
            outs = classicalize(rho, _direction_at(dims[2], grid, flat))
            assert abs(sum(o.prob for o in outs) - 1.0) <= 1e-12
            assert abs(outs[0].prob - p) <= 1e-12

    def test_projective_direction_on_product_state(self):
        rng = np.random.default_rng(1)
        sigma = states.random_density_matrix((2, 2), rng)
        flag = np.zeros((2, 2), dtype=complex)
        flag[0, 0] = 1.0
        rho = DensityMatrix(kron(sigma.data, flag), (2, 2, 2))
        outs = classicalize(rho, MeasurementDirection((0.0, 0.0), 0, 2))
        assert outs[0].prob == pytest.approx(1.0, abs=1e-12)
        assert outs[1].negligible
        np.testing.assert_allclose(outs[0].post.data, sigma.data, atol=1e-10)

    def test_rejects_direction_for_another_c(self):
        with pytest.raises(ValueError, match="direction is for a 3-level C"):
            classicalize(states.ghz_state(), _direction_at(3, GRID, 0))

    def test_ensemble_matches_stacked_values(self):
        # the vectorized sweep and the single-direction channel must agree
        rng = np.random.default_rng(2)
        for _ in range(5):
            rho = states.random_density_matrix((2, 2, 2), rng)
            vals = ensemble_values(rho, MeasureKind.NEGATIVITY, (6, 4))
            for flat in range(vals.size):
                outs = classicalize(rho, _direction_at(2, (6, 4), flat))
                direct = sum(
                    o.prob * post_value(MeasureKind.NEGATIVITY, o.post)
                    for o in outs
                    if not o.negligible
                )
                assert vals[flat] == pytest.approx(direct, abs=1e-10)

    def test_rejects_non_tripartite(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError):
            classicalize(rho, MeasurementDirection((0.0, 0.0), 0, 2))


class TestDelta:
    def test_ghz_both_measures(self):
        res = delta(states.ghz_state(), MeasureKind.NEGATIVITY, GRID)
        assert res.delta == pytest.approx(0.5, abs=1e-9)
        assert res.global_value == pytest.approx(1.5, abs=1e-12)
        res_sq = delta(states.ghz_state(), MeasureKind.SQUASHED, GRID)
        assert res_sq.delta == pytest.approx(0.5, abs=1e-9)

    def test_ghz_best_direction_on_equator(self):
        # the optimum sits at x = pi/4; (24, 8) hits it exactly
        res = delta(states.ghz_state(), MeasureKind.NEGATIVITY, GRID)
        assert res.best_direction.angles[0] == pytest.approx(np.pi / 4, abs=1e-12)

    def test_tie_break_lowest_index(self):
        # every direction gives the same value on this state, so the
        # winner must be the flat index 0
        res = delta(states.bell_pairs(2), MeasureKind.NEGATIVITY, (8, 4))
        assert res.best_direction.index == (0, 0)

    def test_delta_equals_global_minus_max_ensemble(self):
        rho = states.ghz_w_superposition(0.3)
        vals = ensemble_values(rho, MeasureKind.NEGATIVITY, GRID)
        res = delta(rho, MeasureKind.NEGATIVITY, GRID)
        assert res.delta == pytest.approx(
            res.global_value - float(vals.max()), abs=1e-12
        )
        assert res.ensemble_value == pytest.approx(float(vals.max()), abs=1e-12)

    def test_result_serializes(self):
        res = delta(states.ghz_state(), MeasureKind.NEGATIVITY, (4, 2))
        payload = res.to_jsonable()
        for key in ("measure", "delta", "global_value", "ensemble_value", "grid"):
            assert key in payload
        assert payload["measure"] == "negativity"
        assert set(payload["best_direction"]) == {"x", "t"}

    def test_squashed_rejects_mixed_global(self):
        with pytest.raises(ValueError, match="mixed"):
            delta(states.ghz_w_mixture(0.5), MeasureKind.SQUASHED, (4, 2))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            delta(states.ghz_state(), MeasureKind.NEGATIVITY, (0, 5))

    def test_qutrit_c_supported(self):
        res = delta(states.ghz_state(3), MeasureKind.NEGATIVITY, (30, 10))
        assert res.global_value == pytest.approx(3.0, abs=1e-12)
        assert res.delta > 1.0
        assert set(res.best_direction.angle_dict()) == {"x1", "x2"}


class TestBounds:
    def test_sandwich_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = states.random_density_matrix((2, 2, 2), rng)
            g = global_value(rho, MeasureKind.NEGATIVITY)
            d = delta(rho, MeasureKind.NEGATIVITY, GRID).delta
            lo = lower_bound(rho, MeasureKind.NEGATIVITY, GRID)
            up = upper_bound(rho, MeasureKind.NEGATIVITY)
            assert lo <= d + 1e-9
            assert d <= up + 1e-9
            assert up <= g + 1e-9

    def test_pure_product_flag_bounds_vanish(self):
        # GHZ at p=1: every quantity collapses to 0.5 except the global 1.5
        st = states.ghz_w_superposition(1.0)
        assert lower_bound(st, MeasureKind.NEGATIVITY, GRID) == pytest.approx(
            0.5, abs=1e-9
        )
        assert upper_bound(st, MeasureKind.NEGATIVITY) == pytest.approx(
            1.5, abs=1e-9
        )

    def test_upper_bound_grid_free(self):
        # no grid argument: the bound only needs the pair marginal
        st = states.w_state()
        up = upper_bound(st, MeasureKind.NEGATIVITY)
        assert up == pytest.approx(1.0021909, abs=1e-6)

    def test_no_floor_when_every_first_outcome_is_negligible(self):
        # x in {0, pi} gives only kets along |0>, which never see C = |1>
        sigma = states.random_density_matrix((2, 2), np.random.default_rng(5))
        flag = np.diag([0.0, 1.0]).astype(complex)
        st = DensityMatrix(kron(sigma.data, flag), (2, 2, 2))
        res = delta(st, MeasureKind.NEGATIVITY, (1, 2))
        assert res.lower_bound == lower_bound(st, MeasureKind.NEGATIVITY, (1, 2)) == -np.inf
        assert res.lower_bound <= res.delta

    @settings(max_examples=25, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), pure=hst.booleans())
    def test_sandwich_on_random_qutrit_c_states(self, seed, pure):
        rng = np.random.default_rng(seed)
        if pure:
            rho = states.random_pure_state((2, 2, 3), rng).projector()
        else:
            rho = states.random_density_matrix((2, 2, 3), rng)
        res = delta(rho, MeasureKind.NEGATIVITY, (8, 4))
        assert res.lower_bound <= res.delta + 1e-9
        assert res.delta <= res.upper_bound + 1e-9
        assert res.upper_bound <= res.global_value + 1e-9

    @pytest.mark.parametrize("spec", ["ghz", "w", "tilde", "ghz3", "sym3"])
    def test_delta_carries_the_standalone_bounds(self, spec):
        # one grid pass serves delta and both bounds: the values delta
        # reports are exactly those of the standalone bound functions
        st = states.parse_state_spec(spec)
        measures = [MeasureKind.NEGATIVITY]
        if isinstance(st, PureState):
            measures.append(MeasureKind.SQUASHED)
        for measure in measures:
            res = delta(st, measure, GRID)
            assert res.lower_bound == lower_bound(st, measure, GRID)
            assert res.upper_bound == upper_bound(st, measure)


def _haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# |a b c> -> |b a c> on three qubits
_SWAP_AB = [b * 4 + a * 2 + c for a in range(2) for b in range(2) for c in range(2)]


class TestInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        case=hst.sampled_from(
            [("mixed", "negativity"), ("pure", "negativity"), ("pure", "squashed")]
        ),
    )
    def test_local_unitaries_and_ab_swap(self, seed, case):
        # delta and both bounds depend on A and B only through local
        # invariants, and treat A and B alike
        kind, measure = case
        rng = np.random.default_rng(seed)
        if kind == "pure":
            rho = states.random_pure_state((2, 2, 2), rng).projector()
        else:
            rho = states.random_density_matrix((2, 2, 2), rng)
        u = kron(kron(_haar_unitary(rng, 2), _haar_unitary(rng, 2)), np.eye(2))
        rotated = DensityMatrix(u @ rho.data @ u.conj().T, rho.dims)
        swapped = DensityMatrix(rho.data[np.ix_(_SWAP_AB, _SWAP_AB)], rho.dims)
        grid = (8, 4)
        want = delta(rho, measure, grid)
        for other in (rotated, swapped):
            got = delta(other, measure, grid)
            assert got.delta == pytest.approx(want.delta, abs=1e-9)
            assert got.lower_bound == pytest.approx(want.lower_bound, abs=1e-9)
            assert got.upper_bound == pytest.approx(want.upper_bound, abs=1e-9)
