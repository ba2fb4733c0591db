"""The classicalization channel and the grid optimization of delta."""

import functools
import itertools
import tracemalloc
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as hst

from classent import states
from classent.certify import condition1_check, fixed_point_check
from classent.classicalize import (
    DEFAULT_GRID,
    TIE_TOL,
    ZERO_PROB,
    MeasurementDirection,
    _direction_at,
    _grid_outcomes,
    _grid_pass,
    _outcome_blocks,
    _ppt_by_det,
    _pt_map,
    _slices,
    _weighted_values,
    c_blocks,
    classicalize,
    delta,
    direction_kets,
    ensemble_values,
    global_value,
    lower_bound,
    upper_bound,
)
from classent.matcore import (
    EIG_CUTOFF,
    DensityMatrix,
    PureState,
    _partial_trace_array,
    _partial_transpose_array,
    as_tripartite,
    kron,
)
from classent.measures import NEG_EIG_THRESHOLD, PPT_TOL, MeasureKind, post_value

# the module itself: the package's classicalize() function shadows its name
ccl = import_module("classent.classicalize")
cert = import_module("classent.certify")

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

    def test_kets_are_built_once_and_read_only(self):
        kets = direction_kets(2, GRID)
        assert direction_kets(2, list(GRID)) is kets
        a, b = np.meshgrid(np.pi * np.arange(25) / 24, np.pi * np.arange(9) / 8, indexing="ij")
        assert kets.tobytes() == ccl._kets(2, a, b).reshape(-1, 2).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            kets[0, 0] = 0.0

    def test_direction_grid_matches_kets(self):
        kets = direction_kets(2, (4, 2))
        assert kets.shape[0] == 5 * 3
        for flat, k in enumerate(kets):
            np.testing.assert_allclose(_direction_at(2, (4, 2), flat).ket(), k, atol=1e-12)


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

    @pytest.mark.parametrize(
        "grid", [(0, 5), (24.7, 8), ("3", 2), (np.inf, 2), (True, 2)],
        ids=["zero", "float", "str", "inf", "bool"],
    )
    def test_rejects_bad_grid(self, grid):
        # a non-integer entry is refused, not truncated or overflowed
        with pytest.raises(ValueError, match="grid resolution"):
            delta(states.ghz_state(), MeasureKind.NEGATIVITY, grid)

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
        # x in {0, pi} gives only kets along |0>, which never see C = |1>;
        # the mixed input takes the eigen route, the pure one the Schmidt route
        sigma = states.random_density_matrix((2, 2), np.random.default_rng(5))
        psi = states.random_pure_state((2, 2), np.random.default_rng(5))
        for st in (
            DensityMatrix(kron(sigma.data, np.diag([0.0, 1.0])), (2, 2, 2)),
            PureState(np.kron(psi.amp, [0.0, 1.0]), (2, 2, 2)),
        ):
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

    @pytest.mark.xfail(strict=True, reason="a qutrit C grid holds real directions only")
    def test_qutrit_c_floor_holds_for_a_complex_direction(self):
        # the fourth draw has delta = lower_bound = 0.2515636 on the real grid, but
        # the complex v below leaves 0.0137759, a loss of only 0.2377877
        rng = np.random.default_rng(5)
        for _ in range(4):
            rho = states.random_density_matrix((2, 2, 3), rng)
        v = np.array([0.2121 + 0.5574j, -0.0108 - 0.6017j, 0.527 - 0.0659j])
        v /= np.linalg.norm(v)
        blocks = c_blocks(rho)
        k0 = np.einsum("c,cdab,d->ab", v.conj(), blocks, v)
        value = 0.0
        for k in (k0, np.einsum("ccab->ab", blocks) - k0):
            p = np.trace(k).real
            value += p * post_value(MeasureKind.NEGATIVITY, DensityMatrix(k / p, (2, 2)))
        loss = global_value(rho, MeasureKind.NEGATIVITY) - value
        assert lower_bound(rho) <= loss + 1e-9

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
            if measure is MeasureKind.NEGATIVITY:
                assert res.lower_bound == lower_bound(st, measure, GRID)
                assert res.upper_bound == upper_bound(st, measure)
            else:
                assert res.lower_bound is None and res.upper_bound is None
                assert res.to_jsonable()["lower_bound"] is None

    @pytest.mark.parametrize("bound", [lower_bound, upper_bound])
    def test_squashed_bounds_raise(self, bound):
        # under squashed the two values would bracket nothing (w: delta
        # 0.711 above an upper value of 0.459)
        with pytest.raises(ValueError, match="negativity only"):
            bound(states.w_state(), MeasureKind.SQUASHED)


def _blocks(rho, kets):
    """<v_n|rho|v_n> as a C-contiguous (n, dAB, dAB) stack, built apart from
    ``_outcome_blocks`` so that it does not share the layout it checks.  Real kets and
    real rho take real arithmetic, as on an exactly real pass; else the kets are complex."""
    blocks = c_blocks(rho)
    if _real_pass(rho, kets):
        blocks = blocks.real
    else:
        kets = kets.astype(complex)
    return np.einsum("nc,cdab,nd->nab", kets.conj(), blocks, kets, optimize=True, order="C")


def _real_pass(rho, kets):
    """The realness rule of a grid pass: the kets and the data are real."""
    return np.isrealobj(kets) and not rho.data.imag.any()


def _values(k, measure, dims_ab):
    """p E(sigma) of each stacked block k = p sigma with no shortcut: eigvalsh on every
    partial transpose (negativity) or on both marginals (squashed)."""
    if measure is MeasureKind.NEGATIVITY:
        w = np.linalg.eigvalsh(_partial_transpose_array(k, dims_ab, (0,)))
        return 2.0 * -np.where(w < -NEG_EIG_THRESHOLD, w, 0.0).sum(axis=1)
    probs = ccl._traces(k)
    live, total = probs > ZERO_PROB, 0
    for keep in ((0,), (1,)):
        w = np.linalg.eigvalsh(_partial_trace_array(k, dims_ab, keep))
        w /= np.where(live, probs, 1.0)[:, None]
        logs = np.log2(w, out=np.zeros_like(w), where=w > EIG_CUTOFF)
        total = total + np.where(live, -(np.where(w > EIG_CUTOFF, w, 0.0) * logs).sum(axis=1), 0.0)
    return probs * (total / 2.0)


def _reference(st, measure, kets):
    """The one value reference: probabilities, first-outcome values and ensemble values
    of the rows of ``kets``, from whole blocks with no mirror, collapse, partner row,
    screen or slice; the complement is rho_AB - K, and a pure state is its projector."""
    rho = st.projector() if isinstance(st, PureState) else st
    k, dims_ab = _blocks(rho, kets), rho.dims[:2]
    first = _values(k, measure, dims_ab)
    rest = _partial_trace_array(rho.data.real if _real_pass(rho, kets) else rho.data, rho.dims,
                                (0, 1)) - k
    return ccl._traces(k), first, first + _values(rest, measure, dims_ab)


def _oracle(rho, measure, grid, flat):
    """The ensemble value along direction ``flat`` through the scalar ``classicalize()``."""
    outs = classicalize(rho, _direction_at(rho.dims[2], grid, flat))
    return sum(o.prob * post_value(measure, o.post) for o in outs if not o.negligible)


def _entry_rows(k):
    """Contiguous entry rows (16, n) of the stacked 4x4 blocks k, the layout the
    negativity pass builds: row 4a + b holds entry (a, b) of every block."""
    return np.ascontiguousarray(k.reshape(len(k), 16).T)


def _screened_eigenvalues(k):
    """PT eigenvalues of the stacked 4x4 blocks the determinant screens out."""
    pt = _partial_transpose_array(k, (2, 2), (0,))
    return np.linalg.eigvalsh(pt[_ppt_by_det(_entry_rows(k)) > 0])


def _whole_block_scan(st, grid):
    """``condition1_check`` of ``st`` rebuilt on the same walker from ``_blocks``,
    ``_partial_transpose_array`` and eigvalsh: status, the two counts, the witness as
    float hex and the failing direction's index."""
    def evaluate(kets):
        k = _blocks(st, kets)
        return ccl._traces(k), np.linalg.eigvalsh(_partial_transpose_array(k, (2, 2), (0,)))[:, 0]

    probs, min_eigs = _grid_pass(st, grid, evaluate)
    mask = probs > ZERO_PROB
    witnesses = np.where(mask, min_eigs / np.where(mask, probs, 1.0), np.inf)
    counts = int(mask.sum()), int((~mask).sum())
    failing = np.nonzero(witnesses < -PPT_TOL)[0]
    if failing.size:
        first = int(failing[0])
        index = _direction_at(st.dims[2], grid, first).index
        return ("fail", *counts, float(witnesses[first]).hex(), index)
    return ("pass", *counts, float(witnesses.min()).hex(), None)  # +inf with no live block


# the benchmark's catalog specs: all but ghz3, sym3 (3x3x3), flower:3
# (3x3x2) and bells:2 (4x2x2) have a two-qubit AB
_CATALOG = (
    "ghz", "w", "psi:0.4", "rho:0.5", "ghz3", "sym3", "flower:2", "flower:3",
    "tilde", "upb", "hdk", "adma", "ak:2.5", "ph:1", "heis:1", "heis:5", "bells:2",
)


class TestDeterminantScreen:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        rank=hst.integers(1, 4),
        exponent=hst.integers(-14, 0),
    )
    def test_screened_blocks_are_ppt(self, seed, rank, exponent):
        # random PSD blocks of every rank, mixed towards the identity by a
        # random weight so that many sit near the PPT boundary
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((64, 4, rank)) + 1j * rng.standard_normal((64, 4, rank))
        k = g @ g.conj().transpose(0, 2, 1)
        k /= np.trace(k, axis1=1, axis2=2).real[:, None, None]
        q = rng.uniform(size=(64, 1, 1))
        k = 10.0**exponent * ((1 - q) * k + q * np.eye(4) / 4)
        w = _screened_eigenvalues(k)
        assert w.size == 0 or w.min() >= -NEG_EIG_THRESHOLD

    @settings(max_examples=30, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), log_a=hst.floats(-9.0, -6.0))
    def test_nearly_product_pure_blocks(self, seed, log_a):
        # a|00> + b|11> has PT eigenvalues a^2, b^2, ab and -ab: rounding
        # can push a^2 below zero and the determinant above it, while -ab
        # still counts
        rng = np.random.default_rng(seed)
        a = 10.0 ** (log_a + rng.uniform(-0.5, 0.5, size=64))
        phi = np.zeros((64, 4), complex)
        phi[:, 0], phi[:, 3] = a, np.sqrt(1 - a**2)
        u = np.array([kron(_haar_unitary(rng, 2), _haar_unitary(rng, 2)) for _ in range(64)])
        phi = np.einsum("nij,nj->ni", u, phi)
        k = np.einsum("ni,nj->nij", phi, phi.conj())
        w = _screened_eigenvalues(k)
        assert w.size == 0 or w.min() >= -NEG_EIG_THRESHOLD

    def test_werner_blocks_at_the_ppt_boundary(self):
        # the Werner state p |psi-><psi-| + (1 - p) 1/4 is PPT iff p <= 1/3
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        offsets = (-1e-9, -1e-10, 0.0, 1e-10, 1e-9)
        k = np.array([
            scale * ((1 / 3 + dp) * np.outer(singlet, singlet) + (2 / 3 - dp) * np.eye(4) / 4)
            for scale in (1.0, 0.5, 1e-3) for dp in offsets
        ]).astype(complex)
        want = _values(k, MeasureKind.NEGATIVITY, (2, 2))
        # at full scale the entangled side clears the eigenvalue threshold
        assert (want[:5][np.array(offsets) > 0] > 0).all()
        assert _weighted_values(k, MeasureKind.NEGATIVITY, (2, 2)).tobytes() == want.tobytes()
        w = _screened_eigenvalues(k)
        assert w.size == 0 or w.min() >= -NEG_EIG_THRESHOLD
        # far from the boundary the screen does fire
        far = (0.2 * np.outer(singlet, singlet) + 0.8 * np.eye(4) / 4).astype(complex)
        assert (_ppt_by_det(_entry_rows(far[None])) > 0).all()

    def test_zero_block_is_not_screened(self):
        assert not (_ppt_by_det(np.zeros((16, 1), complex)) > 0).any()

    def test_validator_slack_is_not_screened_away(self):
        # rho may carry eigenvalues down to -PSD_TOL; two of them in one
        # block give a positive determinant, but an eigen-route value the
        # screen must keep
        slack = np.diag([-9e-10, -9e-10, 1e-3, 1e-3]).astype(complex)
        rest = (1 - np.trace(slack).real) * np.eye(4) / 4
        rho = kron(slack, np.diag([1.0, 0.0])) + kron(rest, np.diag([0.0, 1.0]))
        k = _outcome_blocks(DensityMatrix(rho, (2, 2, 2)), direction_kets(2, GRID))
        want = _values(k, MeasureKind.NEGATIVITY, (2, 2))
        assert want.max() > 0
        assert _weighted_values(k, MeasureKind.NEGATIVITY, (2, 2)).tobytes() == want.tobytes()

    def test_bit_identical_to_the_eigen_route(self):
        # the sign of -0.0 counts: both routes give the same bytes on the
        # first-outcome and complement blocks, screened (two-qubit AB, qubit
        # or qutrit C) or not (every other AB), in the arithmetic of the pass
        rng = np.random.default_rng(7)
        sts = [states.parse_state_spec(spec) for spec in _CATALOG]
        sts += [states.random_density_matrix((2, 2, 2), rng) for _ in range(30)]
        sts += [states.random_density_matrix((2, 2, 3), rng) for _ in range(5)]
        screened = 0
        for st in sts:
            rho = st if isinstance(st, DensityMatrix) else st.projector()
            dims_ab, kets = rho.dims[:2], direction_kets(rho.dims[2], (48, 16))
            kets = kets if _real_pass(rho, kets) else kets.astype(complex)
            first = _outcome_blocks(rho, kets)
            rest = ccl._in_pass(_partial_trace_array(rho.data, rho.dims, (0, 1)), kets) - first
            for k in (first, rest):
                got = _weighted_values(k, MeasureKind.NEGATIVITY, dims_ab)
                assert got.tobytes() == _values(k, MeasureKind.NEGATIVITY, dims_ab).tobytes()
                if dims_ab == (2, 2):
                    screened += int((_ppt_by_det(_entry_rows(k)) > 0).sum())
        assert screened > 0

    @pytest.mark.parametrize("grid", [GRID, DEFAULT_GRID], ids=["GRID", "DEFAULT_GRID"])
    def test_the_rows_pass_matches_whole_blocks(self, grid):
        # the pass builds its blocks as entry rows behind a stack view, subtracts them
        # from rho_AB in place and reads K^G through _pt_map; probabilities, first
        # outcomes, ensemble values and the scan's report must be the bytes of whole
        # blocks.  tilde is real, so mirrored; flower:2 collapses, and its complement
        # comes from the partner rows n_x/2 away
        rng = np.random.default_rng(53)
        dims = [(2, 2, 2)] * 3 + [(2, 2, 3)] * 2
        sts = [states.random_density_matrix(d, rng) for d in dims]
        for st in map(states.parse_state_spec, _CATALOG):
            if st.dims[:2] == (2, 2):
                sts.append(st.projector() if isinstance(st, PureState) else st)
        nx, neg = grid[0], MeasureKind.NEGATIVITY
        partner = (np.arange(nx + 1) + nx // 2) % nx
        for st in sts:
            probs, first, values = _grid_pass(st, grid, lambda kets: _reference(st, neg, kets))
            if ccl._collapses(st) or not st.data.imag.any():
                values = first + first.reshape(nx + 1, -1)[partner].ravel()
            want = [a.tobytes() for a in (probs, first, values)]
            got = _grid_outcomes(st, neg, grid, complement=False)
            assert [a.tobytes() for a in got] == want[:2]
            assert [a.tobytes() for a in _grid_outcomes(st, neg, grid)] == want
            assert _scan_bits(condition1_check(st, grid)) == _whole_block_scan(st, grid)

    @pytest.mark.parametrize("dims_ab", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 4), (8, 4)])
    def test_pt_map_gathers_the_partial_transpose(self, dims_ab):
        # every AB shape the kernel meets: the gather through _pt_map is the bytes of
        # the transposed copy, and the negativity values those of the full eigen route
        rng = np.random.default_rng(sum(dims_ab))
        d = dims_ab[0] * dims_ab[1]
        g = rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d))
        k = g @ g.conj().transpose(0, 2, 1) / d
        want = _partial_transpose_array(k, dims_ab, (0,))
        assert k.reshape(len(k), -1)[:, _pt_map(dims_ab)].tobytes() == want.tobytes()
        got = _weighted_values(k, MeasureKind.NEGATIVITY, dims_ab)
        assert got.tobytes() == _values(k, MeasureKind.NEGATIVITY, dims_ab).tobytes()


def _scan_bits(rep):
    """A ``Condition1Report`` in the form of ``_whole_block_scan``."""
    direction = None if rep.direction is None else rep.direction.index
    return rep.status, rep.directions_checked, rep.skipped, float(rep.witness).hex(), direction


def _late_failure():
    """A complex 2x2x2 state whose first NPT direction, (115, 46) on the default grid,
    lies behind a thousand unscreened blocks: C = |0> sees mostly 1/4, C = |1> a Bell pair."""
    bell = np.zeros(4)
    bell[[0, 3]] = 1 / np.sqrt(2)
    mix = kron(np.eye(4) / 4, np.diag([0.9, 0.0])) + kron(np.outer(bell, bell), np.diag([0.0, 0.1]))
    noise = states.random_density_matrix((2, 2, 2), np.random.default_rng(19)).data
    return DensityMatrix(0.9 * mix + 0.1 * noise, (2, 2, 2))


def _negligible_npt():
    """1/4 on C = |0>, and on C = |1> a block of trace 5e-13 with an eigenvalue -4e-13,
    inside the validator's slack: the blocks at x = pi/2 are negligible and read -0.8."""
    slack = np.diag([-4e-13, 3e-13, 3e-13, 3e-13])
    rho = kron((1 - 5e-13) * np.eye(4) / 4, np.diag([1.0, 0.0])) + kron(slack, np.diag([0.0, 1.0]))
    return DensityMatrix(rho, (2, 2, 2))


def _random_scan_states():
    """Seeded (2, 2, 2) and (2, 2, 3) states: pure, full-rank, rank two (which fail) and
    mixed halfway to 1/d (which pass)."""
    rng = np.random.default_rng(61)
    sts = []
    for dims in ((2, 2, 2), (2, 2, 3)):
        d = int(np.prod(dims))
        g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        low = g @ g.conj().T / np.trace(g @ g.conj().T).real
        full = states.random_density_matrix(dims, rng)
        sts += [states.random_pure_state(dims, rng).projector(), full, DensityMatrix(low, dims),
                DensityMatrix((full.data + np.eye(d) / d) / 2, dims)]
    return sts


# the scan's cases: all blocks screened with one minimum (hdk, ak:2.5) or on a
# plateau (adma, heis:5), witnesses on the PPT boundary (tilde, upb, ph:1), a
# failure deep in the flat order and negligible blocks that read NPT
_SCAN_CASES = {spec: functools.partial(states.parse_state_spec, spec)
               for spec in ("hdk", "ak:2.5", "adma", "heis:5", "tilde", "upb", "ph:1")}
_SCAN_CASES.update({"late-failure": _late_failure, "negligible": _negligible_npt})


class TestConditionalScan:
    # condition1_check eigensolves only the blocks that can decide its report; every
    # field must be the bits of solving all of them, _whole_block_scan

    @pytest.mark.parametrize("grid", [GRID, (25, 8), DEFAULT_GRID],
                             ids=["GRID", "odd-grid", "DEFAULT_GRID"])
    @pytest.mark.parametrize("case", list(_SCAN_CASES))
    def test_the_report_matches_whole_blocks(self, case, grid):
        st = _SCAN_CASES[case]()
        assert _scan_bits(condition1_check(st, grid)) == _whole_block_scan(st, grid)

    def test_random_states_match_whole_blocks(self):
        for st in _random_scan_states():
            for grid in (GRID, (25, 8), DEFAULT_GRID):
                assert _scan_bits(condition1_check(st, grid)) == _whole_block_scan(st, grid)

    @pytest.mark.parametrize("case", ["hdk", "adma", "tilde", "late-failure", "negligible"])
    def test_slices_keep_the_report(self, monkeypatch, case):
        # every rule is local to one slice, so 97-block slices keep the report
        st = _SCAN_CASES[case]()

        def run():
            return _scan_bits(condition1_check(st, DEFAULT_GRID))

        assert _in_slices(monkeypatch, 97, 4, run) == _whole_block_scan(st, DEFAULT_GRID)

    @staticmethod
    def _scan_built_blocks(monkeypatch, kg, rng):
        """The scan's report, on a complex state (no mirror, no collapse) and an
        (n_x, 1) grid of len(kg) directions, with its outcome blocks replaced by the
        built K^G stack kg, and the least witness of solving every block."""
        n = len(kg)
        rows = kg.reshape(n, 16)[:, _pt_map((2, 2)).ravel()].T  # K from K^G: an involution
        monkeypatch.setattr(cert, "_outcome_blocks",
                            lambda rho, kets: np.moveaxis(rows.reshape(4, 4, n).copy(), -1, 0))
        rep = condition1_check(states.random_density_matrix((2, 2, 2), rng), (n // 2 - 1, 1))
        return rep, np.linalg.eigvalsh(kg)[:, 0] / ccl._traces(kg)

    def test_the_floor_keeps_its_margin(self, monkeypatch):
        # T has the PT spectrum (1e-5, 1/4, 1/4, 1/4), where AM-GM is nearly tight,
        # and a Hermiticity defect of 5e-9 in the upper triangle, which eigvalsh never
        # reads: its bare floor 27 det / p^4 exceeds its witness, and only the slack's
        # margin keeps it solved.  S, unscreened, with a witness 1e-6 above T's sets m;
        # 1/4 fills the rest
        rng = np.random.default_rng(29)
        u, v = _haar_unitary(rng, 4), _haar_unitary(rng, 4)
        tight = u @ np.diag([1e-5, 0.25, 0.25, 0.25]) @ u.conj().T
        defects = [tight + np.triu(np.full((4, 4), 5e-9 * phase), 1)
                   for phase in np.exp(2j * np.pi * np.arange(8) / 8)]
        tight = max(defects, key=lambda m: np.linalg.det(m).real)
        p = np.trace(tight).real
        w_tight = np.linalg.eigvalsh(tight)[0] / p
        eps = 0.75 * w_tight * (1 + 1e-6) / (1 - w_tight * (1 + 1e-6))
        seed = v @ np.diag([eps, 0.05, 0.3, 0.4]) @ v.conj().T
        kg = np.array([seed, tight, np.eye(4) / 4, np.eye(4) / 4], complex)
        assert 27 * np.linalg.det(tight).real / p**4 > w_tight
        assert _ppt_by_det(tight.ravel()[_pt_map((2, 2)).ravel(), None]) > 0
        rep, want = self._scan_built_blocks(monkeypatch, kg, rng)
        assert (rep.status, float(rep.witness).hex()) == ("pass", float(want.min()).hex())
        assert want.argmin() == 1

    @pytest.mark.parametrize("least", [2, 4])
    def test_a_plateau_solves_every_block_but_its_seed(self, monkeypatch, least):
        # eight screened blocks whose floors all lie below the least witness: the
        # seed, of least floor (spread PT spectrum), sits at 3, and the least witness
        # next to it, so the two views around the seed must cover every other block
        rng = np.random.default_rng(31)
        spectra = [(0.051 + 0.001 * i, 0.3, 0.3, 0.3) for i in range(8)]
        spectra[3], spectra[least] = (0.06, 0.1, 0.3, 0.5), (0.05, 0.3, 0.3, 0.3)
        kg = np.array([(u := _haar_unitary(rng, 4)) @ np.diag(e) @ u.conj().T for e in spectra])
        rep, want = self._scan_built_blocks(monkeypatch, kg, rng)
        assert (rep.status, float(rep.witness).hex()) == ("pass", float(want.min()).hex())
        assert want.argmin() == least

    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), log_eps=hst.floats(-5.5, -0.7),
           spread=hst.floats(0.0, 1.0), defect=hst.floats(0.0, 5e-9))
    def test_a_screened_witness_exceeds_its_floor(self, seed, log_eps, spread, defect):
        # proof (b) of condition1_check: w > 27 s / p^4 >= 0 on every screened block,
        # here PT spectra (eps, a, a, a) spread towards random ones, with an upper
        # Hermiticity defect that the determinant reads and eigvalsh does not
        rng = np.random.default_rng(seed)
        kg = np.empty((64, 4, 4), complex)
        for i in range(64):
            top = 0.25 + spread * rng.uniform(-0.2, 0.2, size=3)
            u = _haar_unitary(rng, 4)
            kg[i] = u @ np.diag([10.0**log_eps, *top]) @ u.conj().T
            kg[i] += np.triu(np.full((4, 4), defect * np.exp(2j * np.pi * rng.uniform())), 1)
        kg *= rng.uniform(1e-3, 1.0, size=(64, 1, 1))
        rows = np.ascontiguousarray(kg.reshape(64, 16)[:, _pt_map((2, 2)).ravel()].T)
        slack = _ppt_by_det(rows)
        p = ccl._traces(kg)
        w = np.linalg.eigvalsh(kg)[:, 0] / p
        screened = slack > 0
        assert (w[screened] > 27 * slack[screened] / p[screened] ** 4).all()


def _assert_matches_the_reference(st, grid):
    """``ensemble_values`` and the first outcomes under both measures, ``delta`` with its
    best index and ``lower_bound`` against ``_reference``: to 1e-14 on the eigen route
    and 1e-12 on the Schmidt route.  Returns the ensemble values by measure."""
    tol, dc = 1e-12 if isinstance(st, PureState) else 1e-14, st.dims[2]
    kets, out = direction_kets(dc, grid), {}
    for measure in MeasureKind:
        probs, first, values = _reference(st, measure, kets)
        got = _grid_outcomes(st, measure, grid, complement=False)
        assert max(np.abs(got[0] - probs).max(), np.abs(got[1] - first).max()) <= tol
        out[measure] = ensemble_values(st, measure, grid)
        assert np.abs(out[measure] - values).max() <= tol
        if measure is MeasureKind.SQUASHED and not isinstance(st, PureState):
            continue  # the squashed global value needs a pure state
        gval, res = global_value(st, measure), delta(st, measure, grid)
        best = int(np.argmax(values >= values.max() - TIE_TOL))
        assert res.best_direction.index == _direction_at(dc, grid, best).index
        assert abs(res.delta - (gval - values[best])) <= tol
        if measure is MeasureKind.NEGATIVITY:
            live = probs > ZERO_PROB
            floor = gval - (first[live] / probs[live]).max() if live.any() else -np.inf
            low = lower_bound(st, measure, grid)
            assert low == floor or abs(low - floor) <= tol
    return out


class TestSchmidtKernel:
    @pytest.mark.parametrize("spec", ["ghz", "w", "psi:0.4", "bells:2", "bells:3", "ghz3", "sym3"])
    def test_catalog_matches_the_eigen_route(self, spec):
        _assert_matches_the_reference(states.parse_state_spec(spec), (48, 16))

    def test_random_states_match_the_eigen_route(self):
        # the determinant (2x2), the SVD (2x3, 3x2, 4x2) and the rank-two qutrit-C complement
        rng = np.random.default_rng(11)
        for i in range(200):
            dims = ((2, 2, 2), (2, 3, 2), (3, 2, 2), (4, 2, 2), (2, 2, 3))[i % 5]
            _assert_matches_the_reference(states.random_pure_state(dims, rng), GRID)

    @pytest.mark.parametrize("scale", [0.99, 1.01])
    def test_threshold_edge(self, scale):
        # a|00> + b|11> on AB, C = |0>: on x in {0, pi/2, pi} the first
        # outcome is the whole state or nothing, with PT eigenvalue -ab just
        # below or above -NEG_EIG_THRESHOLD
        a = scale * NEG_EIG_THRESHOLD
        amp = np.zeros(8, complex)
        amp[0], amp[6] = a, np.sqrt(1 - a * a)
        st = PureState(amp, (2, 2, 2))
        _assert_matches_the_reference(st, (2, 2))
        assert (ensemble_values(st, MeasureKind.NEGATIVITY, (2, 2)).max() > 0) == (scale > 1)

    def test_bells4_at_the_default_grid(self):
        # the Schmidt pass streams 240 slices of about 32 directions; held whole,
        # it peaked at 42 MiB (negativity) and 77 MiB (squashed)
        st = states.parse_state_spec("bells:4")
        res = {}
        for measure in MeasureKind:
            tracemalloc.start()
            try:
                res[measure] = delta(st, measure)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20
        neg = res[MeasureKind.NEGATIVITY]
        assert abs(neg.delta - 4.5) <= 1e-9
        assert neg.lower_bound <= neg.delta + 1e-9
        assert neg.delta <= neg.upper_bound + 1e-9
        assert neg.upper_bound <= neg.global_value + 1e-9
        # classicalizing one qubit costs exactly one unit of the squashed measure
        assert abs(res[MeasureKind.SQUASHED].delta - 1.0) <= 1e-9


def _real_mixed(rng, dims=(2, 2, 2)):
    """(rho + conj rho) / 2 of a random mixed state: real, so mirrored for a qubit C."""
    rho = states.random_density_matrix(dims, rng)
    return DensityMatrix((rho.data + rho.data.conj()) / 2, rho.dims)


def _real_pure(rng, dims):
    vec = rng.standard_normal(int(np.prod(dims)))
    return PureState(vec / np.linalg.norm(vec), dims)


def _in_slices(monkeypatch, rows, side, fn):
    """fn() with the slice budget set to ``rows`` complex side x side blocks."""
    with monkeypatch.context() as m:
        m.setattr(ccl, "STACK_BYTES", rows * 16 * side**2)
        return fn()


class TestChunkedPass:
    # 7 rows split the 225 directions of GRID and the 234 of (25, 8) into
    # slices of 6 and 7 blocks, and so they do the 113 a real state evaluates
    @pytest.mark.parametrize("build, grid", [
        (lambda rng: states.random_density_matrix((2, 2, 2), rng), GRID),
        (lambda rng: states.flower_state(3), GRID),
        (lambda rng: states.random_pure_state((2, 2, 3), rng), GRID),
        (lambda rng: states.random_density_matrix((2, 2, 2), rng), (25, 8)),
        (_real_mixed, GRID),
        (lambda rng: states.random_pure_state((4, 2, 2), rng), GRID),
        (lambda rng: _real_pure(rng, (2, 2, 2)), GRID),
    ], ids=["mixed", "flower:3", "pure-qutrit-c", "odd-grid", "real-mixed", "pure-qubit-c",
            "real-pure"])
    def test_slices_match_one_batch(self, monkeypatch, build, grid):
        st = build(np.random.default_rng(3))
        side = st.dims[0] * st.dims[1]
        n = len(direction_kets(st.dims[2], grid))

        def lengths():
            return {len(range(n)[s]) for s in _slices(n, side)}

        def blocks():
            return _grid_pass(st, grid, lambda kets: (_outcome_blocks(st, kets),))[0].tobytes()

        def outcomes(measure, complement):
            return [a.tobytes() for a in _grid_outcomes(st, measure, grid, complement)
                    if a is not None]

        def sliced(fn, rows=7):
            return _in_slices(monkeypatch, rows, side, fn)

        assert sliced(lengths) == {6, 7}
        if isinstance(st, DensityMatrix):
            assert sliced(blocks) == sliced(blocks, n)
        for measure in MeasureKind:
            for complement in (True, False):
                def run():
                    return outcomes(measure, complement)
                assert sliced(run) == sliced(run, n)

    @pytest.mark.parametrize("spec", ["tilde", "ghz"])
    def test_condition1_reports_match_one_batch(self, monkeypatch, spec):
        st = states.parse_state_spec(spec)

        def run():
            return condition1_check(st, GRID)

        assert _in_slices(monkeypatch, 7, 4, run) == _in_slices(monkeypatch, 225, 4, run)

    def test_flower5_memory_is_bounded(self):
        # the whole-stack pass held two (15351, 25, 25) stacks, 146 MiB each
        st = states.parse_state_spec("flower:5")
        tracemalloc.start()
        try:
            res = delta(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(res.delta) <= 1e-9
        assert peak < 64 * 2**20

    def test_generic_wide_state_streams_in_bounded_memory(self):
        # dAB = 16, complex and coherent on C: no shortcut applies, so the
        # 15351 outcome blocks stream through the eigen route in 8 slices
        st = states.random_density_matrix((4, 4, 2), np.random.default_rng(31))
        assert len(_slices(len(direction_kets(2, DEFAULT_GRID)), 16)) == 8
        tracemalloc.start()
        try:
            res = delta(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.lower_bound - 1e-9 <= res.delta <= res.upper_bound + 1e-9
        assert peak < 64 * 2**20


def _real_inputs(kind):
    """The catalog's qubit-C specs, or 50 seeded real mixed states, or 50 real pure ones
    for the Schmidt route's determinant (2x2) and SVD (2x3, 3x2, 4x2)."""
    if kind == "catalog":
        return [st for st in map(states.parse_state_spec, _CATALOG) if st.dims[2] == 2]
    rng = np.random.default_rng(13)
    if kind == "mixed":
        return [_real_mixed(rng) for _ in range(50)]
    return [_real_pure(rng, ((2, 2, 2), (2, 3, 2), (3, 2, 2), (4, 2, 2))[i % 4]) for i in range(50)]


class TestConjugationMirror:
    # for a qubit C, v(pi - x, pi - t) = -conj v(x, t), so a real state's value
    # at flat index N - 1 - m equals the one at m and the pass copies it
    def test_only_real_qubit_c_states_are_halved(self):
        rng = np.random.default_rng(5)
        n = len(direction_kets(2, GRID))
        cases = [(_real_mixed(rng), 113), (_real_pure(rng, (2, 2, 2)), 113),
                 (states.random_density_matrix((2, 2, 2), rng), n),
                 (states.random_pure_state((2, 2, 2), rng), n),
                 (states.parse_state_spec("ghz3"), len(direction_kets(3, GRID)))]
        for st, want in cases:
            rows = []

            def evaluate(kets):
                rows.append(len(kets))
                return (np.arange(len(kets)),)

            (got,) = _grid_pass(st, GRID, evaluate)
            assert sum(rows) == want
            # entry N - 1 - m of a halved pass is a copy of entry m
            assert len(got) == len(direction_kets(st.dims[2], GRID))
            assert (got[want:] == got[:len(got) - want][::-1]).all()

    @pytest.mark.parametrize("grid", [(14, 14), (25, 8)], ids=["odd-N", "even-N"])
    @pytest.mark.parametrize("kind", ["catalog", "mixed", "pure"])
    def test_values_mirror_and_match_the_oracle(self, kind, grid):
        # every state is checked for the mirror and against the reference
        for st in _real_inputs(kind):
            for measure in MeasureKind:
                vals = ensemble_values(st, measure, grid)
                assert vals.tobytes() == vals[::-1].tobytes()
                want = _reference(st, measure, direction_kets(2, grid))[2]
                assert np.abs(vals - want).max() <= 1e-12

    def test_conjugate_state_keeps_delta(self):
        # complex inputs take the full grid; conj rho is measured along conj v
        rng = np.random.default_rng(17)
        for i in range(50):
            if i % 2:
                st = states.random_pure_state((2, 2, 2), rng)
                conj, measures = PureState(st.amp.conj(), st.dims), MeasureKind
            else:
                st = states.random_density_matrix((2, 2, 2), rng)
                conj, measures = DensityMatrix(st.data.conj(), st.dims), [MeasureKind.NEGATIVITY]
            for measure in measures:
                got, want = delta(conj, measure, GRID).delta, delta(st, measure, GRID).delta
                assert abs(got - want) <= 1e-12


def _diagonal_c(rng, dims):
    """A seeded complex mixed state dephased on C, so <0|rho|1>_C = 0."""
    rho = states.random_density_matrix(dims, rng)
    side = dims[0] * dims[1]
    return DensityMatrix(rho.data * np.kron(np.ones((side, side)), np.eye(2)), dims)


def _collapse_inputs():
    """flower:2..4, then two complex C-diagonal states each of 2x2x2 and 3x2x2."""
    rng = np.random.default_rng(23)
    return ([states.flower_state(d) for d in (2, 3, 4)]
            + [_diagonal_c(rng, dims) for dims in ((2, 2, 2), (3, 2, 2)) for _ in range(2)])


class TestTAxisCollapse:
    # <0|rho|1>_C = 0 leaves <v|rho|v>_C = cos^2 x rho_00 + sin^2 x rho_11: it has
    # no t and is even under x -> pi - x, so a pass evaluates half the t = 0 column
    @pytest.mark.parametrize("grid", [GRID, (25, 8)], ids=["GRID", "odd-n_x"])
    def test_values_repeat_and_match_the_oracle(self, grid):
        nx, nt = grid
        for st in _collapse_inputs():
            for measure in MeasureKind:
                vals = ensemble_values(st, measure, grid)
                rows = vals.reshape(nx + 1, nt + 1)
                assert rows.tobytes() == np.repeat(rows[:, :1], nt + 1, axis=1).tobytes()
                assert rows.tobytes() == rows[::-1].tobytes()
                want = _reference(st, measure, direction_kets(2, grid))[2]
                assert np.abs(vals - want).max() <= 1e-12

    def test_only_an_exactly_zero_block_collapses(self):
        # 13 = ceil(25 / 2) rows of GRID; a 1e-14 coherence keeps the mirror half
        # (113) of a real state and the whole grid (225) of a complex one, and a
        # pure state keeps the Schmidt route's choice.  rho is Hermitian only to
        # HERM_TOL, so a coherence in one off-diagonal C block alone, either one,
        # blocks the collapse too: it happens iff fixed_point_check(rho) == 0
        rng = np.random.default_rng(29)
        flower, mixed = states.flower_state(2), _diagonal_c(rng, (2, 2, 2))
        lower = 1e-14 * np.kron(np.eye(4) / 4, [[0, 0], [1, 0]])
        amp = np.kron(states.random_pure_state((2, 2), rng).amp, [1, 0])
        cases = [(flower, 13), (mixed, 13), (_diagonal_c(rng, (3, 2, 2)), 13),
                 (PureState(amp, (2, 2, 2)), 225)]
        for nudge in (lower + lower.T, lower, lower.T):
            cases += [(DensityMatrix(flower.data + nudge, flower.dims), 113),
                      (DensityMatrix(mixed.data + nudge, mixed.dims), 225)]
        for st, want in cases:
            rows = []

            def evaluate(kets):
                rows.append(len(kets))
                return (np.arange(len(kets)),)

            (got,) = _grid_pass(st, GRID, evaluate)
            assert sum(rows) == want and len(got) == 225
            if isinstance(st, DensityMatrix):
                assert (want == 13) == (fixed_point_check(st) == 0.0)

    def test_a_one_sided_block_takes_the_full_pass(self):
        # a Bell block under |0>_C, <0|rho|1>_C = 0 and a 3e-11 block at <1|rho|0>_C,
        # admitted within HERM_TOL: a collapse would move values by ~1e-10, so the
        # values must be those of every ket's outcome block in one batch
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        tail = 3e-11 * np.exp(1j * np.arange(16).reshape(4, 4))
        data = (np.kron(bell, [[0.5, 0], [0, 0]]) + np.kron(np.eye(4) / 8, [[0, 0], [0, 1]])
                + np.kron(tail, [[0, 0], [1, 0]]))
        st = DensityMatrix(data, (2, 2, 2))
        for measure in MeasureKind:
            want = _reference(st, measure, direction_kets(2, GRID))[2]
            assert ensemble_values(st, measure, GRID).tobytes() == want.tobytes()

    def test_a_collapsed_pass_builds_the_t0_column_only(self, monkeypatch):
        # 50 = 2 (n_x + 1) kets of the (n_x, 1) grid, every other one kept; the
        # 1e-14 coherence builds all 225 of GRID
        rng = np.random.default_rng(37)
        mixed = _diagonal_c(rng, (2, 2, 2))
        nudge = 1e-14 * np.kron(np.eye(4) / 4, [[0, 1], [1, 0]])
        built, kets = [], ccl.direction_kets

        def recording(*args):
            out = kets(*args)
            built.append(len(out))
            return out

        monkeypatch.setattr(ccl, "direction_kets", recording)
        for st, want in [(states.flower_state(2), 50), (mixed, 50),
                         (DensityMatrix(mixed.data + nudge, mixed.dims), 225)]:
            built.clear()
            ensemble_values(st, MeasureKind.NEGATIVITY, GRID)
            assert built == [want]


def _shift_inputs():
    """Complex and real pure qubit-C states, bells:2..3, flower:2..3, a C-diagonal state."""
    rng = np.random.default_rng(41)
    return ([states.random_pure_state((2, 2, 2), rng), _real_pure(rng, (2, 3, 2))]
            + [states.parse_state_spec(spec) for spec in ("bells:2", "bells:3", "flower:2",
                                                          "flower:3")]
            + [_diagonal_c(rng, (2, 2, 2))])


class TestComplementShift:
    # for a qubit C the complement of v(x, t) is v(x + pi/2, t) up to a phase, so a
    # pure or collapsed pass reads it from the row n/2 away on the grid (n, n_t),
    # n = n_x for an even n_x and 2 n_x for an odd one
    @pytest.mark.parametrize("grid", [GRID, DEFAULT_GRID], ids=["GRID", "DEFAULT_GRID"])
    def test_partner_rows_agree_bit_for_bit(self, grid):
        # row n_x is left out: v(pi, t) and v(0, t) differ in the last bit
        nx, nt = grid
        partner = [r + nx // 2 if r < nx // 2 else r - nx // 2 for r in range(nx)]
        for st in _shift_inputs():
            for measure in MeasureKind:
                vals = ensemble_values(st, measure, grid).reshape(nx + 1, nt + 1)
                assert vals[:nx].tobytes() == vals[partner].tobytes()

    def test_values_match_the_complement_pass_and_the_oracle(self):
        # the complement evaluated, no partner row read: rho_AB - |phi><phi| on the
        # Schmidt route, rho_AB - K (the reference) on the eigen route
        kets = direction_kets(2, GRID)
        for st in _shift_inputs():
            for measure in MeasureKind:
                vals = ensemble_values(st, measure, GRID)
                want = (ccl._schmidt_outcomes(st, measure, kets, complement=True)
                        if isinstance(st, PureState) else _reference(st, measure, kets))[2]
                assert np.abs(vals - want).max() <= 1e-14
                for flat, v in enumerate(vals):
                    assert abs(v - _oracle(as_tripartite(st), measure, GRID, flat)) <= 1e-12

    @pytest.mark.parametrize("grid", [GRID, DEFAULT_GRID], ids=["GRID", "DEFAULT_GRID"])
    def test_the_generic_eigen_pass_keeps_its_complement(self, grid):
        # complex and coherent on C: every value is first + W(rho_AB - K), byte for byte
        st = states.random_density_matrix((2, 2, 2), np.random.default_rng(43))
        for measure in MeasureKind:
            want = _reference(st, measure, direction_kets(2, grid))[2]
            assert ensemble_values(st, measure, grid).tobytes() == want.tobytes()

    def test_an_odd_n_x_matches_the_oracle(self):
        # x + pi/2 is off the (25, 8) grid but on (50, 8); the real pure state takes
        # the mirror on the doubled grid too
        rng = np.random.default_rng(47)
        for st in (states.random_pure_state((2, 2, 2), rng), _diagonal_c(rng, (2, 2, 2)),
                   states.flower_state(3), _real_pure(rng, (2, 3, 2))):
            for measure in MeasureKind:
                for flat, v in enumerate(ensemble_values(st, measure, (25, 8))):
                    assert abs(v - _oracle(as_tripartite(st), measure, (25, 8), flat)) <= 1e-12

    @pytest.mark.parametrize("spec, grid", [(None, (25, 8)), ("bells:3", (301, 50))],
                             ids=["(25, 8)", "bells:3-(301, 50)"])
    def test_an_odd_n_x_reads_the_even_rows_of_the_doubled_grid(self, spec, grid):
        # pi 2k / 2n_x doubles both operands of pi k / n_x, so the rows 2k of
        # (2 n_x, n_t) hold the (n_x, n_t) kets bit for bit
        nx, nt = grid
        sts = [states.parse_state_spec(spec)] if spec else _shift_inputs()
        for st in sts:
            for measure in MeasureKind:
                fine = ensemble_values(st, measure, (2 * nx, nt)).reshape(2 * nx + 1, -1)
                assert ensemble_values(st, measure, grid).tobytes() == fine[::2].tobytes()

    def test_the_first_outcomes_match_the_pass_without_complement(self, monkeypatch):
        # delta's lower bound reads these, so it equals lower_bound() on odd grids too;
        # a budget of 7 blocks splits the doubled and the plain grid into several slices
        cases = [(st, (25, 8), n) for st in _shift_inputs() for n in (None, 7)]
        for st, grid, rows in cases + [(states.parse_state_spec("bells:3"), (301, 50), None)]:
            for measure in MeasureKind:
                def run():
                    return [[a.tobytes() for a in _grid_outcomes(st, measure, grid, c)[:2]]
                            for c in (True, False)]
                side = st.dims[0] * st.dims[1]
                got, want = _in_slices(monkeypatch, rows, side, run) if rows else run()
                assert got == want
            if rows is None:
                res = delta(st, MeasureKind.NEGATIVITY, grid)
                assert res.lower_bound == lower_bound(st, MeasureKind.NEGATIVITY, grid)


def _a_phased(st, theta=0.7):
    """``st`` under the local unitary diag(1, e^{i theta}, e^{2i theta}, ...) (x) 1 (x) 1 on A,
    which moves no value but makes a real state complex."""
    da, side = st.dims[0], int(np.prod(st.dims[1:]))
    u = np.kron(np.diag(np.exp(1j * theta * np.arange(da))), np.eye(side))
    if isinstance(st, PureState):
        return PureState(u @ st.amp, st.dims)
    return DensityMatrix(u @ st.data @ u.conj().T, st.dims)


# real states on every real pass: qutrit C (Schmidt and eigen route), the collapse, and the
# partner rows of real mixed qubit-C states, whose twins take the complement rho_AB - K
_TWINS = {spec: functools.partial(states.parse_state_spec, spec)
          for spec in ("sym3", "ghz3", "flower:2", "flower:3", "flower:4", "rho:0.5", "heis:1")}
_TWINS.update({"real-mixed-2x2x3": lambda: _real_mixed(np.random.default_rng(67), (2, 2, 3)),
               "real-pure-qutrit-c": lambda: _real_pure(np.random.default_rng(71), (2, 2, 3))})


class TestRealPass:
    # a pass is exactly real when the data and every ket are real: a qutrit C, or the t = 0
    # column of a collapse; it reads the real part of the data in real arithmetic
    def test_only_exactly_real_passes_get_real_kets(self):
        rng = np.random.default_rng(73)
        cases = [(states.parse_state_spec("sym3"), True), (_real_mixed(rng, (2, 2, 3)), True),
                 (states.flower_state(2), True), (_diagonal_c(rng, (2, 2, 2)), False),
                 (states.random_pure_state((2, 2, 3), rng), False),
                 (states.random_density_matrix((2, 2, 3), rng), False),
                 (states.tilde_state(), False), (_real_pure(rng, (2, 2, 2)), False)]
        for st, real in cases:
            dtypes = set()

            def evaluate(kets):
                dtypes.add(kets.dtype)
                return (np.zeros(len(kets)),)

            _grid_pass(st, GRID, evaluate)
            assert dtypes == {np.dtype(float) if real else np.dtype(complex)}

    @pytest.mark.parametrize("grid", [GRID, (25, 8)], ids=["GRID", "odd-n_x"])
    @pytest.mark.parametrize("case", list(_TWINS))
    def test_real_passes_match_their_complex_twins(self, case, grid):
        st = _TWINS[case]()
        twin = _a_phased(st)
        assert ccl._is_real(st) and not ccl._is_real(twin)
        for measure in MeasureKind:
            got, want = ensemble_values(st, measure, grid), ensemble_values(twin, measure, grid)
            assert np.abs(got - want).max() <= 1e-14
            if isinstance(st, PureState) or measure is MeasureKind.NEGATIVITY:
                best = delta(st, measure, grid).best_direction.index
                assert best == delta(twin, measure, grid).best_direction.index
        got, want = lower_bound(st, grid=grid), lower_bound(twin, grid=grid)
        assert got == want or abs(got - want) <= 1e-14
        if st.dims[:2] == (2, 2):
            rep, twin_rep = condition1_check(st, grid), condition1_check(twin, grid)
            assert (rep.status, rep.directions_checked, rep.skipped) == (
                twin_rep.status, twin_rep.directions_checked, twin_rep.skipped)


class TestGridRefinement:
    # (2 n_x, n_t) holds every (n_x, n_t) direction with the same kets, so on every
    # route its even rows repeat the coarse values and its delta is no larger: the
    # generic eigen pass (squashed, complex), the two-qubit screen (negativity), the
    # mirror (real), the collapse (flower:2), Schmidt and qutrit C (2x2x3, ghz3)
    @pytest.mark.parametrize("grid", [(12, 6), (13, 6)])
    def test_the_refined_grid_keeps_the_coarse_values(self, grid):
        nx, nt = grid
        rng = np.random.default_rng(61)
        for st in [states.random_density_matrix((2, 2, 2), rng), _real_mixed(rng),
                   states.random_pure_state((2, 2, 3), rng), states.flower_state(2),
                   states.parse_state_spec("ghz3")]:
            for measure in MeasureKind:
                fine = ensemble_values(st, measure, (2 * nx, nt)).reshape(2 * nx + 1, -1)[::2]
                assert np.abs(fine.ravel() - ensemble_values(st, measure, grid)).max() <= 1e-14
                # squashed delta needs a pure state for its global term
                if isinstance(st, PureState) or measure is MeasureKind.NEGATIVITY:
                    coarse = delta(st, measure, grid).delta
                    assert delta(st, measure, (2 * nx, nt)).delta <= coarse + 1e-12


def _haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestInvariance:
    @settings(max_examples=25, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), case=hst.sampled_from(
        [("mixed", "negativity"), ("pure", "negativity"), ("pure", "squashed")]))
    def test_local_unitaries_and_ab_swap(self, seed, case):
        # delta and both bounds depend on A and B only through local
        # invariants, and treat A and B alike
        kind, measure = case
        rng = np.random.default_rng(seed)
        if kind == "pure":
            rho = states.random_pure_state((2, 2, 2), rng).projector()
        else:
            rho = states.random_density_matrix((2, 2, 2), rng)
        want = delta(rho, measure, (8, 4))
        for other, _ in _relations(rho, (8, 4), rng)[:2]:  # local unitaries, the A <-> B swap
            got = delta(other, measure, (8, 4))
            assert got.delta == pytest.approx(want.delta, abs=1e-9)
            if measure == "negativity":
                assert got.lower_bound == pytest.approx(want.lower_bound, abs=1e-9)
                assert got.upper_bound == pytest.approx(want.upper_bound, abs=1e-9)

    @pytest.mark.parametrize("j", [1, 3, 8])
    def test_a_c_phase_on_the_grid_keeps_delta(self, j):
        # 1 (x) diag(1, e^{i pi j/n_t}) sends the search along v(x, t) to v(x, t + pi j/n_t),
        # which past t = pi is -v(pi - x, t + pi j/n_t - pi): the grid maps onto itself
        u = np.kron(np.eye(4), np.diag([1.0, np.exp(1j * np.pi * j / GRID[1])]))
        rng = np.random.default_rng(59)
        for i in range(40):
            if i % 2:
                st = states.random_pure_state((2, 2, 2), rng)
                phased, measures = PureState(u @ st.amp, st.dims), MeasureKind
            else:
                st = states.random_density_matrix((2, 2, 2), rng)
                phased = DensityMatrix(u @ st.data @ u.conj().T, st.dims)
                measures = [MeasureKind.NEGATIVITY]
            for measure in measures:
                want = delta(st, measure, GRID).delta
                assert delta(phased, measure, GRID).delta == pytest.approx(want, abs=1e-12)


def _draw_state(rng):
    """A seeded state of dims from _DIMS: pure (a ``PureState``) or mixed of rank 1, 2 or
    full, real or complex, and with both off-diagonal C blocks zero or not (a pure state
    then has C in one level).  Returns the state and a description of the draw."""
    dims = _DIMS[rng.integers(len(_DIMS))]
    d, dc = int(np.prod(dims)), dims[2]
    kind, real, c_diagonal = rng.integers(4), rng.random() < 0.5, rng.random() < 0.5
    rank = (1, 1, 2, d)[kind]
    g = rng.standard_normal((d, rank)) + (0 if real else 1j) * rng.standard_normal((d, rank))
    about = (f"{dims}, {('pure', 'rank 1', 'rank 2', 'full rank')[kind]}, real {real}, "
             f"c-diagonal {c_diagonal}")
    if kind == 0:
        amp = g[:, 0] * (np.arange(d) % dc == rng.integers(dc)) if c_diagonal else g[:, 0]
        return PureState(amp / np.linalg.norm(amp), dims), about
    m = g @ g.conj().T
    if c_diagonal:
        m = m * np.kron(np.ones((d // dc, d // dc)), np.eye(dc))
    return DensityMatrix(m / np.trace(m).real, dims), about


def _relations(st, grid, rng):
    """(image of st, its ensemble values from those of st) for local unitaries on A and B,
    the A <-> B swap, conjugation and, for a qubit C, a C phase that maps the grid onto
    itself: 1 (x) diag(1, e^{i pi j / n_t}) moves v(x, t) to v(x, t + pi j / n_t), which past
    t = pi is v(pi - x, t + pi j / n_t - pi) up to a sign."""
    (da, db, dc), (nx, nt), d = st.dims, grid, int(np.prod(st.dims))

    def image(u, dims=st.dims):  # u st u^dag, on a pure state's amplitudes
        if isinstance(st, PureState):
            return PureState(u @ st.amp, dims)
        return DensityMatrix(u @ st.data @ u.conj().T, dims)

    local = kron(kron(_haar_unitary(rng, da), _haar_unitary(rng, db)), np.eye(dc))
    swap = np.eye(d)[np.arange(d).reshape(da, db, dc).transpose(1, 0, 2).ravel()]
    conj = (PureState(st.amp.conj(), st.dims) if isinstance(st, PureState)
            else DensityMatrix(st.data.conj(), st.dims))
    out = [(image(local), lambda v: v), (image(swap, (db, da, dc)), lambda v: v),
           (conj, lambda v: v[::-1] if dc == 2 else v)]
    if dc == 2:
        j = int(rng.integers(1, nt + 1))
        phase = np.kron(np.eye(da * db), np.diag([1.0, np.exp(1j * np.pi * j / nt)]))
        out.append((image(phase), lambda v: np.concatenate(
            [(w := v.reshape(nx + 1, nt + 1))[:, j:], w[::-1, 1:j + 1]], axis=1).ravel()))
    return out


# dims from (2..4, 2..4, 2..3) under a size cap
_DIMS = [d for d in itertools.product((2, 3, 4), (2, 3, 4), (2, 3)) if np.prod(d) <= 24]


class TestOneReference:
    # one differential test for every grid route: the eigen or Schmidt route, the mirror,
    # the t-axis collapse, the partner rows of an even or odd n_x, the determinant screen,
    # the scan's chunks and floors and the slices all meet _reference and, for the scan,
    # _whole_block_scan; the scalar oracle and the metamorphic relations use the same draws
    @settings(max_examples=150, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), nx=hst.integers(1, 13), nt=hst.integers(1, 9),
           budget=hst.sampled_from((None, 8, 29)))
    def test_every_route_matches_the_reference(self, seed, nx, nt, budget):
        # the state comes from the seed, so every kind of state is drawn evenly
        rng = np.random.default_rng(seed)
        (st, about), grid = _draw_state(rng), (nx, nt)
        note(about)
        dims, rho = st.dims, as_tripartite(st)
        n = len(direction_kets(dims[2], grid))
        # hypothesis rejects function-scoped fixtures, so the slice budget is set here
        with pytest.MonkeyPatch.context() as m:
            if budget:
                m.setattr(ccl, "STACK_BYTES", budget * 16 * (dims[0] * dims[1]) ** 2)
            values = _assert_matches_the_reference(st, grid)
            if dims[:2] == (2, 2):
                assert _scan_bits(condition1_check(st, grid)) == _whole_block_scan(rho, grid)
            for measure, vals in values.items():
                best = int(np.argmax(vals >= vals.max() - TIE_TOL))
                for flat in {best, *rng.integers(n, size=2).tolist()}:
                    assert abs(vals[flat] - _oracle(rho, measure, grid, flat)) <= 1e-12
                for image, mapped in _relations(st, grid, rng):
                    got = ensemble_values(image, measure, grid)
                    assert np.abs(got - mapped(vals)).max() <= 1e-12
                # (2 n_x, n_t) holds every (n_x, n_t) direction with the same kets
                fine = ensemble_values(st, measure, (2 * nx, nt))
                assert np.abs(fine.reshape(2 * nx + 1, -1)[::2].ravel() - vals).max() <= 1e-14
                assert fine.max() >= vals.max() - 1e-12
