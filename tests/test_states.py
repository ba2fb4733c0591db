"""State factories and the name:params parser."""

import numpy as np
import pytest

from classent import states
from classent.matcore import numeric_rank, partial_trace


def test_ghz_amplitudes():
    psi = states.ghz_state()
    want = np.zeros(8)
    want[0] = want[7] = 1 / np.sqrt(2)
    np.testing.assert_allclose(psi.amp, want, atol=1e-15)
    assert psi.dims == (2, 2, 2)


def test_ghz_qutrit_dims():
    psi = states.ghz_state(3)
    assert psi.dims == (3, 3, 3)
    idx = np.nonzero(psi.amp)[0]
    np.testing.assert_array_equal(idx, [0, 13, 26])


def test_w_is_single_excitation():
    psi = states.w_state()
    idx = np.nonzero(psi.amp)[0]
    np.testing.assert_array_equal(idx, [1, 2, 4])
    np.testing.assert_allclose(psi.amp[idx], 1 / np.sqrt(3), atol=1e-15)


def test_superposition_endpoints():
    np.testing.assert_allclose(
        states.ghz_w_superposition(1.0).amp, states.ghz_state().amp, atol=1e-15
    )
    np.testing.assert_allclose(
        states.ghz_w_superposition(0.0).amp, states.w_state().amp, atol=1e-15
    )
    with pytest.raises(ValueError):
        states.ghz_w_superposition(1.5)


def test_mixture_endpoints():
    rho = states.ghz_w_mixture(1.0)
    np.testing.assert_allclose(
        rho.data, states.ghz_state().projector().data, atol=1e-15
    )
    assert numeric_rank(states.ghz_w_mixture(0.5)) == 2


def test_bell_pairs_dims_and_norm():
    for n in (2, 3, 4):
        psi = states.bell_pairs(n)
        assert psi.dims == (2**n, 2 ** (n - 1), 2)
        assert np.linalg.norm(psi.amp) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        states.bell_pairs(1)
    with pytest.raises(ValueError):
        states.bell_pairs(5)


def test_bell_pairs_marginals_maximally_mixed():
    # each half of every pair is maximally mixed, so the C marginal is I/2
    psi = states.bell_pairs(2)
    rho = psi.projector()
    red = partial_trace(rho, (2,))
    np.testing.assert_allclose(red.data, np.eye(2) / 2, atol=1e-12)
    red_b = partial_trace(rho, (1,))
    np.testing.assert_allclose(red_b.data, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        states.ghz_state,
        states.flower_state,
        states.bell_pairs,
        lambda bad: states.random_pure_state((2, bad, 2), np.random.default_rng(0)),
        lambda bad: states.random_density_matrix((2, bad, 2), np.random.default_rng(0)),
    ],
    ids=["ghz", "flower", "bells", "random-pure", "random-mixed"],
)
@pytest.mark.parametrize("bad", [2.7, 3.9, True], ids=["float", "float-high", "bool"])
def test_factories_reject_non_integer_sizes(build, bad):
    # truncation would build a smaller state than the one asked for
    with pytest.raises(ValueError, match="must be integers"):
        build(bad)


def test_qutrit_symmetric_support():
    psi = states.qutrit_symmetric_state()
    idx = sorted(np.nonzero(psi.amp)[0])
    assert idx == [5, 7, 11, 15, 19, 21]
    np.testing.assert_allclose(psi.amp[idx], 1 / np.sqrt(6), atol=1e-15)


def test_flower_structure():
    for d in (2, 3):
        rho = states.flower_state(d)
        assert rho.dims == (d, d, 2)
        # C marginal weights (d+1)/2d and (d-1)/2d
        rc = partial_trace(rho, (2,)).data
        np.testing.assert_allclose(
            np.diag(rc).real, [(d + 1) / (2 * d), (d - 1) / (2 * d)], atol=1e-12
        )
    with pytest.raises(ValueError):
        states.flower_state(1)


def test_tilde_matrix_entries():
    rho = states.tilde_state()
    m = rho.data * 8
    assert m[1, 1] == 2 and m[6, 6] == 2
    assert m[2, 5] == 1 and m[3, 4] == 1
    assert np.trace(rho.data) == pytest.approx(1.0)


def test_hdk_parameter_range():
    with pytest.raises(ValueError):
        states.hdk_state(0.0)
    with pytest.raises(ValueError):
        states.hdk_state(1.0)
    rho = states.hdk_state(0.64)
    assert rho.dims == (2, 2, 2)


def test_adma_rejects_unit_product():
    with pytest.raises(ValueError):
        states.adma_state(1.0, 2.0, 0.5)
    rho = states.adma_state(2, 3, 5)
    assert numeric_rank(rho) == 7


def test_ak_and_ph_parameter_validation():
    with pytest.raises(ValueError):
        states.ak_state(0.0)
    with pytest.raises(ValueError):
        states.ph_state(-1.0)


def test_heisenberg_limits():
    # infinite temperature: the Gibbs state flattens to maximally mixed
    hot = states.heisenberg_thermal(1e6)
    np.testing.assert_allclose(hot.data, np.eye(8) / 8, atol=1e-5)
    cold = states.heisenberg_thermal(0.1)
    # ground space of the ring is degenerate; rank collapses at low T
    assert numeric_rank(cold) < 8
    with pytest.raises(ValueError):
        states.heisenberg_thermal(0.0)


def test_random_states_are_valid():
    rng = np.random.default_rng(0)
    psi = states.random_pure_state((2, 2, 2), rng)
    assert np.linalg.norm(psi.amp) == pytest.approx(1.0, abs=1e-12)
    rho = states.random_density_matrix((2, 2), rng)
    assert numeric_rank(rho) == 4


def test_random_states_seed_deterministic():
    a = states.random_pure_state((2, 2), np.random.default_rng(42))
    b = states.random_pure_state((2, 2), np.random.default_rng(42))
    np.testing.assert_array_equal(a.amp, b.amp)


class TestParseStateSpec:
    def test_plain_names(self):
        assert states.parse_state_spec("ghz").dims == (2, 2, 2)
        assert states.parse_state_spec("ghz3").dims == (3, 3, 3)
        assert states.parse_state_spec("sym3").dims == (3, 3, 3)

    def test_float_parameter(self):
        psi = states.parse_state_spec("psi:0.4")
        np.testing.assert_allclose(
            psi.amp, states.ghz_w_superposition(0.4).amp, atol=1e-15
        )

    def test_int_parameter_families(self):
        assert states.parse_state_spec("bells:3").dims == (8, 4, 2)
        assert states.parse_state_spec("flower:3").dims == (3, 3, 2)
        with pytest.raises(ValueError, match="integer"):
            states.parse_state_spec("bells:2.5")

    def test_defaults(self):
        np.testing.assert_array_equal(
            states.parse_state_spec("hdk").data, states.hdk_state(0.64).data
        )
        np.testing.assert_array_equal(
            states.parse_state_spec("adma").data, states.adma_state(2, 3, 5).data
        )

    def test_multi_parameter(self):
        rho = states.parse_state_spec("adma:2,3,5")
        assert numeric_rank(rho) == 7

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown state") as exc:
            states.parse_state_spec("nope")
        for name in ("ghz", "w", "psi", "rho", "bells", "tilde", "hdk", "heis"):
            assert name in str(exc.value)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            states.parse_state_spec("psi")
        with pytest.raises(ValueError):
            states.parse_state_spec("psi:0.1,0.2")

    def test_malformed_number(self):
        with pytest.raises(ValueError, match="malformed"):
            states.parse_state_spec("psi:abc")
