"""Core linear-algebra layer: validation, reductions, serialization."""

import json

import numpy as np
import pytest

from classent.matcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    as_density,
    kron,
    matrix_to_csv,
    matrix_to_jsonable,
    numeric_rank,
    partial_trace,
    partial_transpose,
    tripartite_cuts,
    von_neumann_entropy,
)


def random_density(rng, dims, rank=None):
    dim = int(np.prod(dims))
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m), dims)


class TestDensityMatrix:
    def test_accepts_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert rho.side == 4
        assert rho.n_subsystems == 2

    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.2
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            DensityMatrix(m, (2, 2))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4) / 2, (2, 2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, -0.1, 0.0])
        with pytest.raises(ValueError, match="negative|positive"):
            DensityMatrix(m, (2, 2))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_data_is_read_only(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError):
            rho.data[0, 0] = 1.0

    def test_tolerates_eigensolver_jitter(self):
        # a -1e-10 eigenvalue is numerical noise, not a physics error
        m = np.diag([0.5 + 1e-10, 0.5, 0.0, -1e-10])
        DensityMatrix(m, (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, where):
        # NaN passes every tolerance comparison, and an off-diagonal inf
        # would otherwise reach the eigensolver
        m = np.eye(4, dtype=complex) / 4
        m[where] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            DensityMatrix(m, (2, 2))


class TestPureState:
    def test_projector_is_rank_one(self):
        rng = np.random.default_rng(3)
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = PureState(amp / np.linalg.norm(amp), (2, 2, 2))
        rho = psi.projector()
        assert numeric_rank(rho) == 1
        np.testing.assert_allclose(np.trace(rho.data), 1.0, atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]), (2,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            PureState(np.array([1.0, bad, 0.0, 0.0]), (2, 2))

    def test_as_density_passthrough(self):
        rho = DensityMatrix(np.eye(2) / 2, (2,))
        assert as_density(rho) is rho
        psi = PureState(np.array([1.0, 0.0]), (2,))
        assert isinstance(as_density(psi), DensityMatrix)


@pytest.mark.parametrize("build", [DensityMatrix, PureState])
def test_rejects_dimension_one_subsystem(build):
    # a valid state on 8 levels, but split as 1 x 8 it has no subsystem A
    e0 = np.eye(8)[0]
    data = np.outer(e0, e0) if build is DensityMatrix else e0
    with pytest.raises(ValueError, match="subsystem dimensions must be >= 2"):
        build(data, (1, 8))


@pytest.mark.parametrize("build", [DensityMatrix, PureState])
def test_rejects_empty_dims(build):
    # a 1x1 matrix is a valid state on zero subsystems, which nothing here handles
    data = np.eye(1) if build is DensityMatrix else [1.0]
    with pytest.raises(ValueError, match="subsystem dimensions must be >= 2"):
        build(data, ())


@pytest.mark.parametrize("build", [DensityMatrix, PureState])
@pytest.mark.parametrize("bad", [2.7, "2", True], ids=["float", "str", "bool"])
def test_rejects_non_integer_dims(build, bad):
    # truncating 2.7 or "2" to 2 would build a 2 x 4 state; True is no dimension
    e0 = np.eye(8)[0]
    data = np.outer(e0, e0) if build is DensityMatrix else e0
    with pytest.raises(ValueError, match="subsystem dimensions must be integers"):
        build(data, (bad, 4))


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: Bipartition((bad, 1), (2,)),
        lambda bad: Bipartition((0, 1), (bad,)),
        lambda bad: partial_trace(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), (bad, 1)),
    ],
    ids=["left", "right", "keep"],
)
@pytest.mark.parametrize("bad", [0.7, 2.5, "1", True], ids=["float", "half", "str", "bool"])
def test_rejects_non_integer_indices(build, bad):
    # truncating 0.7 to 0 would name the AB|C cut; True is no subsystem index
    with pytest.raises(ValueError, match="must be integers"):
        build(bad)


class TestBipartition:
    def test_label(self):
        assert Bipartition((0, 1), (2,)).label() == "AB|C"
        assert Bipartition((1, 2), (0,)).label() == "BC|A"

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Bipartition((0, 1), (1,))

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            Bipartition((0, 1, 2), ())

    def test_block_dims(self):
        cut = Bipartition((0, 1), (2,))
        assert cut.block_dims((2, 3, 5)) == (6, 5)

    def test_tripartite_cuts_cover(self):
        labels = [cut.label() for cut in tripartite_cuts()]
        assert labels == ["AB|C", "BC|A", "AC|B"]
        for cut in tripartite_cuts():
            cut.check_covers(3)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        a = random_density(rng, (2,)).data
        b = random_density(rng, (3,)).data
        rho = DensityMatrix(kron(a, b), (2, 3))
        np.testing.assert_allclose(partial_trace(rho, (0,)).data, a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, (1,)).data, b, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, (2, 2, 2))
        for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            red = partial_trace(rho, keep)
            np.testing.assert_allclose(np.trace(red.data), 1.0, atol=1e-12)

    def test_sequential_matches_direct(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, (2, 3, 2))
        direct = partial_trace(rho, (0,))
        via_pair = partial_trace(partial_trace(rho, (0, 1)), (0,))
        np.testing.assert_allclose(direct.data, via_pair.data, atol=1e-12)

    def test_rejects_tracing_everything(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, ())

    def test_rejects_unsorted_keep(self):
        rho = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, (1, 0))


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, (2, 2, 2))
        cut = Bipartition((0, 1), (2,))
        once = partial_transpose(rho, cut)
        # the intermediate is generally not PSD, so transpose the raw array
        from classent.matcore import _partial_transpose_array

        twice = _partial_transpose_array(once, rho.dims, cut.right)
        np.testing.assert_allclose(twice, rho.data, atol=1e-12)

    def test_product_transposes_factor(self):
        rng = np.random.default_rng(9)
        a = random_density(rng, (2,)).data
        b = random_density(rng, (2,)).data
        rho = DensityMatrix(kron(a, b), (2, 2))
        pt = partial_transpose(rho, Bipartition((0,), (1,)))
        np.testing.assert_allclose(pt, kron(a, b.T), atol=1e-12)

    def test_separable_mixture_stays_positive(self):
        rng = np.random.default_rng(10)
        dim = 4
        mix = np.zeros((dim, dim), dtype=complex)
        for _ in range(6):
            a = random_density(rng, (2,)).data
            b = random_density(rng, (2,)).data
            mix += kron(a, b) / 6
        rho = DensityMatrix(mix, (2, 2))
        eigs = np.linalg.eigvalsh(partial_transpose(rho, Bipartition((0,), (1,))))
        assert eigs.min() > -1e-12


class TestStacks:
    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2)])
    def test_stack_matches_each_matrix(self, dims):
        from itertools import combinations

        from classent.matcore import _partial_trace_array, _partial_transpose_array

        rng = np.random.default_rng(11)
        side = int(np.prod(dims))
        stack = rng.normal(size=(3, 2, side, side)) + 1j * rng.normal(size=(3, 2, side, side))
        subsets = [s for r in range(1, len(dims) + 1) for s in combinations(range(len(dims)), r)]
        for fn in (_partial_trace_array, _partial_transpose_array):
            for sub in subsets:
                out = fn(stack, dims, sub)
                for idx in np.ndindex(stack.shape[:2]):
                    assert np.array_equal(out[idx], fn(stack[idx], dims, sub))


class TestSpectral:
    def test_entropy_pure_is_zero(self):
        psi = PureState(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
        assert von_neumann_entropy(psi.projector()) == pytest.approx(0.0, abs=1e-12)

    def test_entropy_maximally_mixed_in_bits(self):
        for d in (2, 3, 4):
            rho = DensityMatrix(np.eye(d) / d, (d,))
            assert von_neumann_entropy(rho) == pytest.approx(np.log2(d), abs=1e-12)

    def test_entropy_additive_on_products(self):
        rng = np.random.default_rng(11)
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        ab = DensityMatrix(kron(a.data, b.data), (2, 3))
        want = von_neumann_entropy(a) + von_neumann_entropy(b)
        assert von_neumann_entropy(ab) == pytest.approx(want, abs=1e-10)

    def test_numeric_rank_counts_support(self):
        rng = np.random.default_rng(12)
        for r in (1, 3, 6):
            rho = random_density(rng, (2, 2, 2), rank=r)
            assert numeric_rank(rho) == r


def from_json(text):
    return np.array([[complex(re, im) for re, im in row] for row in json.loads(text)])


def from_csv(text):
    return np.array(
        [[complex(cell.replace("i", "j")) for cell in line.split(",")]
         for line in text.splitlines()]
    )


class TestSerialization:
    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        text = json.dumps(matrix_to_jsonable(m))
        np.testing.assert_array_equal(from_json(text), m)

    def test_csv_round_trip_exact(self):
        rng = np.random.default_rng(14)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_array_equal(from_csv(matrix_to_csv(m)), m)

    def test_jsonable_structure(self):
        assert matrix_to_jsonable(np.array([[1.0 + 2.0j]])) == [[[1.0, 2.0]]]

    def test_csv_text_negative_imag(self):
        text = matrix_to_csv(np.array([[0.5 - 0.25j]]))
        assert text.strip() == "0.5-0.25i"
        np.testing.assert_array_equal(from_csv(text), np.array([[0.5 - 0.25j]]))

    def test_csv_keeps_signed_zeros(self):
        m = np.array([
            [complex(0.5, -0.0), complex(-0.0, 0.0)],
            [complex(-0.0, -0.0), complex(-1.0, 0.0)],
        ])
        text = matrix_to_csv(m)
        assert text.splitlines()[0] == "0.5-0.0i,-0.0+0.0i"
        back = from_csv(text)
        np.testing.assert_array_equal(np.signbit(back.real), np.signbit(m.real))
        np.testing.assert_array_equal(np.signbit(back.imag), np.signbit(m.imag))

    def test_density_matrix_serializes(self):
        rng = np.random.default_rng(15)
        rho = random_density(rng, (2, 2))
        loaded = DensityMatrix(from_json(json.dumps(matrix_to_jsonable(rho))), (2, 2))
        np.testing.assert_array_equal(loaded.data, rho.data)