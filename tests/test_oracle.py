"""Full tensor-product oracle: embeddings, evolution, traces, samplers."""

import numpy as np
import pytest

from spinsqueeze.dicke import (
    MOMENT_FIELDS,
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
    make_state,
)
from spinsqueeze.errors import CapacityError
from spinsqueeze.evolution import evolve_grid, hermitian_eigen
from spinsqueeze.hamiltonians import HamiltonianSpec
from spinsqueeze.oracle import (
    FullState,
    collective_pauli_sums,
    embed_symmetric,
    full_collective_moments,
    full_evolve,
    one_axis_analytic_moments,
    partial_trace_pair,
    product_moments,
    sample_separable,
)


def test_full_state_rejects_nan_amplitudes():
    with pytest.raises(ValueError, match="norm"):
        FullState(1, [np.nan, 0.0])


class TestEmbedding:
    def test_all_down_n2(self):
        full = embed_symmetric(make_all_down(2))
        np.testing.assert_allclose(full.amplitudes, [0, 0, 0, 1])

    def test_single_excitation_n2(self):
        full = embed_symmetric(make_dicke_state(2, 1))
        np.testing.assert_allclose(full.amplitudes, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_isometry(self):
        rng = np.random.default_rng(4)
        for n in range(2, 11):
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            state, _ = make_state(n, amps)
            full = embed_symmetric(state)
            assert np.linalg.norm(full.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            embed_symmetric(make_all_down(13))


def test_pauli_sums_are_shared_read_only():
    first = collective_pauli_sums(3)
    for op in first:
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
    for op, again in zip(first, collective_pauli_sums(3)):
        assert np.array_equal(op, again)


class TestFullEvolve:
    def test_t0(self):
        full = full_evolve(HamiltonianSpec.one_axis(1.0), 3, 0.0)
        expected = np.zeros(8)
        expected[-1] = 1.0
        np.testing.assert_allclose(full.amplitudes, expected, atol=1e-12)

    def test_h1_n2_matches_analytic(self):
        t = np.pi / 4
        full = full_evolve(HamiltonianSpec.one_axis(1.0), 2, t)
        initial = make_all_down(2)
        states = evolve_grid(hermitian_eigen(HamiltonianSpec.one_axis(1.0), initial), initial, [t])
        sub = SymmetricState(2, states.amplitudes[0])
        overlap = abs(np.vdot(embed_symmetric(sub).amplitudes, full.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_h3_moments_match_subspace(self):
        spec = HamiltonianSpec.two_axis(1.0)
        full = full_evolve(spec, 4, 0.3)
        initial = make_all_down(4)
        states = evolve_grid(hermitian_eigen(spec, initial), initial, [0.3])
        sub = SymmetricState(4, states.amplitudes[0])
        mf = full_collective_moments(full)
        ms = collective_moments(sub)
        for name in ("mean_sz", "sz2", "sx2", "sy2", "sp_mean", "sp2", "anti_sp_sz"):
            assert abs(getattr(mf, name) - getattr(ms, name)) <= 1e-10

    def test_capacity(self):
        with pytest.raises(CapacityError):
            full_evolve(HamiltonianSpec.one_axis(1.0), 11, 0.1)


def test_moments_match_oracle_on_random_states():
    rng = np.random.default_rng(8)
    fields = ("mean_sx", "mean_sy", "mean_sz", "sz2", "sx2", "sy2",
              "sp_mean", "sp2", "anti_sp_sz", "anti_sx_sy")
    for n in range(2, 9):
        for _ in range(20):
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            state, _ = make_state(n, amps)
            ms = collective_moments(state)
            mf = full_collective_moments(embed_symmetric(state))
            for name in fields:
                assert abs(getattr(ms, name) - getattr(mf, name)) <= 1e-10


class TestPartialTrace:
    def test_all_down(self):
        rho = partial_trace_pair(embed_symmetric(make_all_down(4)), 0, 1)
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_half_excited_dicke_any_pair(self):
        full = embed_symmetric(make_dicke_state(4, 2))
        reference = partial_trace_pair(full, 0, 1)
        assert reference[1, 1] == pytest.approx(1 / 3, abs=1e-12)
        assert reference[0, 0] == pytest.approx(1 / 6, abs=1e-12)
        assert reference[3, 3] == pytest.approx(1 / 6, abs=1e-12)
        assert abs(reference[3, 0]) <= 1e-12
        for i, j in [(0, 2), (1, 3), (2, 3)]:
            np.testing.assert_allclose(
                partial_trace_pair(full, i, j), reference, atol=1e-12
            )

    def test_nothing_traced_for_two_qubits(self):
        state, _ = make_state(2, [1, 0, 1])
        full = embed_symmetric(state)
        rho = partial_trace_pair(full, 0, 1)
        np.testing.assert_allclose(
            rho, np.outer(full.amplitudes, full.amplitudes.conj()), atol=1e-12
        )

    def test_index_validation(self):
        full = embed_symmetric(make_all_down(4))
        for pair in [(1, 1), (2, 1), (0, 4), (-1, 2)]:
            with pytest.raises(ValueError):
                partial_trace_pair(full, *pair)


class TestSeparableSampler:
    def test_deterministic(self):
        a = sample_separable(4, [(5, 7), (2, 8)])
        b = sample_separable(4, [(5, 7), (2, 8)])
        assert a.mean_sx.shape == (2,)
        for f in MOMENT_FIELDS:
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))

    @pytest.mark.parametrize("n, draws", [(1, [(2, 0)]), (4, []), (4, [(2, 0), (0, 1)])])
    def test_rejects_invalid_draws(self, n, draws):
        with pytest.raises(ValueError):
            sample_separable(n, draws)

    def test_product_moments_down(self):
        m = product_moments(np.array([0.0, 0.0, -1.0]), 4)
        ref = collective_moments(make_all_down(4))
        for name in ("mean_sz", "sz2", "sx2", "sy2", "sp_mean", "sp2"):
            assert abs(getattr(m, name) - getattr(ref, name)) <= 1e-12

    def test_product_moments_maximally_mixed(self):
        m = product_moments(np.zeros(3), 4)
        assert m.mean_sz == 0.0
        assert m.sx2 == pytest.approx(1.0)  # N/4, no pair correlation
        assert m.sp2 == 0

    def test_moments_match_full_construction(self):
        # analytic product moments vs a literal tensor-product density matrix
        rng = np.random.default_rng(13)
        n = 3
        for _ in range(5):
            bloch = rng.normal(size=3)
            bloch *= rng.random() / np.linalg.norm(bloch)
            single = 0.5 * (
                np.eye(2)
                + bloch[0] * np.array([[0, 1], [1, 0]])
                + bloch[1] * np.array([[0, -1j], [1j, 0]])
                + bloch[2] * np.array([[1, 0], [0, -1]])
            )
            rho = np.eye(1)
            for _ in range(n):
                rho = np.kron(rho, single)
            sx, sy, sz = collective_pauli_sums(n)
            m = product_moments(bloch, n)
            assert np.trace(rho @ sz).real == pytest.approx(m.mean_sz, abs=1e-12)
            assert np.trace(rho @ sz @ sz).real == pytest.approx(m.sz2, abs=1e-12)
            sp = sx + 1j * sy
            assert np.trace(rho @ sp @ sp) == pytest.approx(m.sp2, abs=1e-12)
            assert np.trace(rho @ (sp @ sz + sz @ sp)) == pytest.approx(
                m.anti_sp_sz, abs=1e-12
            )


class TestOneAxisAnalytic:
    def test_t0(self):
        for n in (2, 5, 10):
            ref = one_axis_analytic_moments(n, 1.0, 0.0)
            assert ref.sx2 == pytest.approx(n / 4)
            assert ref.sy2 == pytest.approx(n / 4)
            assert ref.sz2 == pytest.approx(n * n / 4)

    def test_quarter_phase_n4(self):
        # scaled phase pi/2: the cosine power vanishes
        ref = one_axis_analytic_moments(4, 1.0, np.pi / 4)
        assert ref.sy2 == pytest.approx(2.5, abs=1e-12)
        assert ref.sz2 == pytest.approx(2.5, abs=1e-12)
        assert ref.sx2 == pytest.approx(1.0)

    def test_n2_time_independent_sz2(self):
        for t in (0.0, 0.4, 2.0):
            assert one_axis_analytic_moments(2, 1.0, t).sz2 == pytest.approx(1.0)
