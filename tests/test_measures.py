"""Entanglement measures: closed-form oracles and dual-route agreement."""

import numpy as np
import pytest

from classent import states
from classent.matcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    kron,
    partial_trace,
    tripartite_cuts,
    von_neumann_entropy,
)
from classent.measures import (
    MeasureKind,
    as_measure,
    negativity,
    negsum,
    post_value,
    ppt_verdict,
    pure_negativity_schmidt,
    squashed_pure_tripartite,
    tripartite_negativity,
)

AB = Bipartition((0,), (1,))


def bell_pair():
    amp = np.zeros(4)
    amp[0] = amp[3] = 1 / np.sqrt(2)
    return PureState(amp, (2, 2))


def max_entangled(d):
    amp = np.zeros(d * d, dtype=complex)
    amp[:: d + 1] = 1 / np.sqrt(d)
    return PureState(amp, (d, d))


def werner(p):
    # p |psi-><psi-| + (1-p) I/4; NPT iff p > 1/3 with negativity (3p-1)/4
    amp = np.zeros(4)
    amp[1], amp[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    singlet = np.outer(amp, amp)
    return DensityMatrix(p * singlet + (1 - p) * np.eye(4) / 4, (2, 2))


def test_as_measure_accepts_both_forms():
    assert as_measure("negativity") is MeasureKind.NEGATIVITY
    assert as_measure(MeasureKind.SQUASHED) is MeasureKind.SQUASHED
    with pytest.raises(ValueError):
        as_measure("concurrence")


def test_negsum_threshold():
    eigs = np.array([-0.2, -1e-14, 0.5, 0.7])
    assert negsum(eigs) == pytest.approx(0.2, abs=1e-12)


def test_bell_negativity_half():
    assert negativity(bell_pair(), AB) == pytest.approx(0.5, abs=1e-12)


def test_product_state_zero():
    rng = np.random.default_rng(1)
    a = states.random_density_matrix((2,), rng)
    b = states.random_density_matrix((2,), rng)
    rho = DensityMatrix(kron(a.data, b.data), (2, 2))
    assert negativity(rho, AB) == pytest.approx(0.0, abs=1e-12)


def test_max_entangled_saturates():
    for d in range(2, 6):
        assert negativity(max_entangled(d), AB) == pytest.approx(
            (d - 1) / 2, abs=1e-12
        )


def test_werner_closed_form():
    for p in (0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0):
        want = max(0.0, (3 * p - 1) / 4)
        assert negativity(werner(p), AB) == pytest.approx(want, abs=1e-10)


def test_schmidt_route_matches_eigen_route():
    rng = np.random.default_rng(2)
    for _ in range(50):
        psi = states.random_pure_state((2, 2, 2), rng)
        for cut in tripartite_cuts():
            assert pure_negativity_schmidt(psi, cut) == pytest.approx(
                negativity(psi, cut), abs=1e-10
            )


def test_schmidt_route_on_uneven_dims():
    rng = np.random.default_rng(3)
    for _ in range(20):
        psi = states.random_pure_state((2, 3, 2), rng)
        for cut in tripartite_cuts():
            assert pure_negativity_schmidt(psi, cut) == pytest.approx(
                negativity(psi, cut), abs=1e-10
            )


def test_tripartite_negativity_ghz():
    assert tripartite_negativity(states.ghz_state()) == pytest.approx(1.5, abs=1e-12)
    assert tripartite_negativity(states.ghz_state(3)) == pytest.approx(3.0, abs=1e-12)


def test_tripartite_negativity_needs_three_parts():
    with pytest.raises(ValueError):
        tripartite_negativity(bell_pair())


def test_bell_chain_totals():
    # sum over the three cuts: 2^(n-1) + 2^(n-2) - 1/2
    assert tripartite_negativity(states.bell_pairs(2)) == pytest.approx(2.5, abs=1e-9)
    assert tripartite_negativity(states.bell_pairs(3)) == pytest.approx(5.5, abs=1e-9)


def test_squashed_ghz_exact():
    assert squashed_pure_tripartite(states.ghz_state()) == pytest.approx(
        1.5, abs=1e-12
    )


def test_squashed_w_closed_form():
    want = 1.5 * (np.log2(3.0) - 2.0 / 3.0)
    assert squashed_pure_tripartite(states.w_state()) == pytest.approx(want, abs=1e-9)


def test_squashed_rejects_mixed():
    with pytest.raises(ValueError, match="mixed"):
        squashed_pure_tripartite(states.ghz_w_mixture(0.5))


def test_post_value_negativity_doubles_pair():
    sigma = bell_pair().projector()
    assert post_value(MeasureKind.NEGATIVITY, sigma) == pytest.approx(1.0, abs=1e-12)


def test_post_value_squashed_is_mean_marginal_entropy():
    rng = np.random.default_rng(4)
    sigma = states.random_density_matrix((2, 2), rng)
    s_a = von_neumann_entropy(partial_trace(sigma, (0,)))
    s_b = von_neumann_entropy(partial_trace(sigma, (1,)))
    assert post_value(MeasureKind.SQUASHED, sigma) == pytest.approx(
        (s_a + s_b) / 2, abs=1e-12
    )


def test_post_value_matches_lifted_tripartite():
    rng = np.random.default_rng(5)
    flag = np.zeros((2, 2), dtype=complex)
    flag[0, 0] = 1.0
    for _ in range(20):
        sigma = states.random_density_matrix((2, 2), rng)
        lifted = DensityMatrix(kron(sigma.data, flag), (2, 2, 2))
        assert post_value(MeasureKind.NEGATIVITY, sigma) == pytest.approx(
            tripartite_negativity(lifted), abs=1e-10
        )


class TestPptVerdict:
    def test_bell_entangled_with_witness(self):
        v = ppt_verdict(bell_pair().projector(), AB)
        assert v.status == "entangled"
        assert v.is_entangled
        assert v.witness == pytest.approx(-0.5, abs=1e-12)

    def test_two_qubit_ppt_is_separable(self):
        v = ppt_verdict(werner(0.2), AB)
        assert v.status == "separable"
        assert not v.is_entangled

    def test_qubit_qutrit_decisive(self):
        rng = np.random.default_rng(6)
        a = states.random_density_matrix((2,), rng)
        b = states.random_density_matrix((3,), rng)
        rho = DensityMatrix(kron(a.data, b.data), (2, 3))
        assert ppt_verdict(rho, AB).status == "separable"

    def test_large_cut_stays_inconclusive(self):
        # 4 (x) 2 blocks: PPT no longer certifies separability
        rho = states.hdk_state()
        v = ppt_verdict(rho, Bipartition((0, 1), (2,)))
        assert v.status == "ppt_inconclusive"
        assert v.witness >= -1e-12

    def test_npt_cut_of_hdk(self):
        rho = states.hdk_state()
        v = ppt_verdict(rho, Bipartition((1, 2), (0,)))
        assert v.status == "entangled"
        assert v.witness < -1e-4
