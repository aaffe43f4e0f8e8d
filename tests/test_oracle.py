"""Full tensor-product oracle: embeddings, evolution, traces, samplers."""

import ast
import inspect

import numpy as np
import pytest
from helpers import (
    complex_expectation,
    complex_full_collective_moments,
    complex_full_evolve,
    complex_full_hamiltonian,
    complex_pauli_sums,
    error_model,
    evolve_states,
    make_state,
)

from spinsqueeze import oracle, verify
from spinsqueeze.dicke import (
    MOMENT_FIELDS,
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
)
from spinsqueeze.errors import CapacityError
from spinsqueeze.hamiltonians import HamiltonianSpec
from spinsqueeze.oracle import (
    FullState,
    collective_pauli_sums,
    embed_symmetric,
    full_collective_moments,
    full_evolve,
    full_hamiltonian,
    one_axis_analytic_moments,
    partial_trace_pair,
    product_moments,
    sample_separable,
)
from spinsqueeze.pairwise import analyse, reduced_two_qubit
from spinsqueeze.squeezing import squeezing_even_odd


def test_full_state_rejects_nan_amplitudes():
    with pytest.raises(ValueError, match="norm"):
        FullState(1, [np.nan, 0.0])


def test_full_state_keeps_the_callers_array_writeable():
    amps = np.zeros(2, complex)
    amps[0] = 1.0
    state = FullState(1, amps)
    amps[1] = 0.5
    assert list(state.amplitudes) == [1, 0]
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[1] = 0.5


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

    def test_each_time_independent_of_the_others(self):
        # each row of an embedded stack is the embedding of that row alone, bit for bit
        times = [0.1, 0.3, 1.0]
        states = evolve_states(HamiltonianSpec.one_axis_field(1.0, 0.5), make_all_down(4), times)
        together = embed_symmetric(states)
        assert together.amplitudes.shape == (3, 16)
        for row, amps in zip(states.amplitudes, together.amplitudes):
            alone = embed_symmetric(SymmetricState(4, row)).amplitudes
            assert np.array_equal(amps.view(np.uint64), alone.view(np.uint64))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            embed_symmetric(make_all_down(13))


def kron_pauli_sums(n_qubits):
    """S_x, S_y, S_z as sums over sites of Kronecker chains, one factor per qubit."""
    singles = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
               np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
               np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
    ops = []
    for single in singles:
        total = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
        for site in range(n_qubits):
            term = np.eye(1, dtype=complex)
            for q in range(n_qubits):
                term = np.kron(term, single if q == site else np.eye(2, dtype=complex))
            total += 0.5 * term
        ops.append(total)
    return ops


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_sums_equal_kronecker_chains_bit_for_bit(n):
    # real X, Y, Z with S_y = iY; uint64 views: the sign of every zero must match too
    assert all(op.dtype == np.dtype(float) for op in collective_pauli_sums(n))
    for op, ref in zip(complex_pauli_sums(n), kron_pauli_sums(n)):
        assert np.array_equal(op.view(np.uint64), ref.view(np.uint64))


class TestFullEvolve:
    def test_t0(self):
        full = full_evolve(full_hamiltonian(HamiltonianSpec.one_axis(1.0), 3), [0.0])
        expected = np.zeros(8)
        expected[-1] = 1.0
        np.testing.assert_allclose(full.amplitudes[0], expected, atol=1e-12)

    def test_h1_n2_matches_analytic(self):
        t = np.pi / 4
        full = full_evolve(full_hamiltonian(HamiltonianSpec.one_axis(1.0), 2), [t])
        states = evolve_states(HamiltonianSpec.one_axis(1.0), make_all_down(2), [t])
        sub = SymmetricState(2, states.amplitudes[0])
        overlap = abs(np.vdot(embed_symmetric(sub).amplitudes, full.amplitudes[0]))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_h3_moments_match_subspace(self):
        spec = HamiltonianSpec.two_axis(1.0)
        full = full_evolve(full_hamiltonian(spec, 4), [0.3])
        states = evolve_states(spec, make_all_down(4), [0.3])
        sub = SymmetricState(4, states.amplitudes[0])
        mf = full_collective_moments(full)
        ms = collective_moments(sub)
        for name in ("mean_sz", "sz2", "sx2", "sy2", "sp_mean", "sp2", "anti_sp_sz"):
            assert abs(getattr(mf, name)[0] - getattr(ms, name)) <= 1e-10

    def test_each_time_independent_of_the_others(self):
        h = full_hamiltonian(HamiltonianSpec.one_axis_field(1.0, 0.5), 4)
        together = full_evolve(h, [0.1, 0.3, 1.0])
        assert together.amplitudes.shape == (3, 16)
        for t, amps in zip([0.1, 0.3, 1.0], together.amplitudes):
            assert np.array_equal(amps, full_evolve(h, [t]).amplitudes[0])

    def test_capacity(self):
        # raised by the Hamiltonian builder, before any 2^N matrix exists
        with pytest.raises(CapacityError):
            full_hamiltonian(HamiltonianSpec.one_axis(1.0), 11)


def test_moments_match_oracle_on_random_states():
    rng = np.random.default_rng(8)
    for n in range(2, 9):
        for _ in range(20):
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            state, _ = make_state(n, amps)
            ms = collective_moments(state)
            mf = full_collective_moments(embed_symmetric(state))
            for name in (*MOMENT_FIELDS, "mean_spin", "covariance"):
                assert np.max(np.abs(getattr(ms, name) - getattr(mf, name))) <= 1e-10, name


# the three verify specs, a weaker field, and the general H with and without gamma
REAL_ROUTE_SPECS = {
    **verify._model_specs(),
    "one-axis-field-0.5": HamiltonianSpec.one_axis_field(1.0, 0.5),
    "general": HamiltonianSpec(mu=0.7, chi=-0.3, gamma=0.45, f_coeffs=(0.2, -0.6, 0.15)),
    "general-gamma-0": HamiltonianSpec(mu=0.7, chi=-0.3, f_coeffs=(0.2, -0.6, 0.15)),
}


@pytest.mark.parametrize("name", REAL_ROUTE_SPECS)
@pytest.mark.parametrize("n", range(2, 9))
def test_hamiltonian_from_real_products_is_bit_equal_to_complex_products(name, n):
    spec = REAL_ROUTE_SPECS[name]
    h, reference = full_hamiltonian(spec, n), complex_full_hamiltonian(spec, n)
    assert h.dtype == complex
    # uint64 views: the sign of every zero must match too
    assert np.array_equal(h.view(np.uint64), reference.view(np.uint64))


def recorded_eigh_dtypes(monkeypatch):
    dtypes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(oracle.np.linalg, "eigh", recording)
    return dtypes


@pytest.mark.parametrize("name, real", [
    ("one-axis", True), ("one-axis-field", True), ("one-axis-field-0.5", True),
    ("general-gamma-0", True), ("two-axis", False), ("general", False),
])
@pytest.mark.parametrize("n", (2, 5, 8))
def test_full_evolve_route_agrees_with_complex_eigh(monkeypatch, name, real, n):
    spec = REAL_ROUTE_SPECS[name]
    h = full_hamiltonian(spec, n)
    times = (0.0, 0.1, 0.3, 1.0)
    dtypes = recorded_eigh_dtypes(monkeypatch)
    evolved = full_evolve(h, times)
    assert dtypes == [np.dtype(float) if real else np.dtype(complex)]
    reference = complex_full_evolve(h, times)
    # exp(-iHt) psi does not depend on the phases the eigensolver picks
    assert np.max(np.abs(evolved.amplitudes - reference.amplitudes)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_vector_moments_match_operator_products(n):
    rng = np.random.default_rng(700 + n)
    amps = rng.normal(size=(6, n + 1)) + 1j * rng.normal(size=(6, n + 1))
    amps[0, 1::2] = 0.0  # an even state: no transverse moments
    stack = SymmetricState(n, amps / np.linalg.norm(amps, axis=1, keepdims=True))
    full = embed_symmetric(stack)
    m, ref = full_collective_moments(full), complex_full_collective_moments(full)
    for name in MOMENT_FIELDS:
        assert getattr(m, name).shape == (6,), name
        assert np.max(np.abs(getattr(m, name) - getattr(ref, name))) <= 1e-12, name
    single = full_collective_moments(FullState(n, full.amplitudes[3]))
    for name in MOMENT_FIELDS:
        value = getattr(single, name)
        assert np.shape(value) == (), name
        assert abs(value - getattr(ref, name)[3]) <= 1e-12, name
    # <X>, <Y> and <[X, Y]_+> are read off <S+> and <S+^2>
    sx, sy, _ = complex_pauli_sums(n)
    for name, got, op in (("<X>", m.sp_mean.real, sx), ("<Y>", m.sp_mean.imag, sy),
                          ("<[X, Y]_+>", m.sp2.imag, sx @ sy + sy @ sx)):
        assert np.max(np.abs(got - complex_expectation(full, op).real)) <= 1e-12, name


def imported_names(source):
    """(module, name) for every import in `source`, without the spinsqueeze
    prefix; a module imported whole reads as name "*"."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("spinsqueeze."), "*"
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("spinsqueeze").lstrip(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, "*")


def reaches_checked_code(module, name):
    """Whether the oracle importing `name` from `module` would reuse the code it
    checks: any of evolution, the Hamiltonian builders, or the Dicke-basis
    moments, ladder coefficients and operators."""
    if module == "evolution":
        return True
    if module == "hamiltonians":
        return name != "HamiltonianSpec"
    if module == "dicke":
        return name in {"*", "collective_moments", "ladder_coefficients", "collective_operators"}
    return False


def forbidden_oracle_imports(source):
    return [f"{m}.{n}" for m, n in imported_names(source) if reaches_checked_code(m, n)]


def test_oracle_imports_nothing_it_checks():
    assert forbidden_oracle_imports(inspect.getsource(oracle)) == []


@pytest.mark.parametrize("line", [
    "from .evolution import evolve_grid",
    "from spinsqueeze.evolution import trajectory",
    "from .hamiltonians import HamiltonianSpec, build_hamiltonian",
    "from .dicke import SymmetricState, collective_moments",
    "from .dicke import ladder_coefficients",
    "from . import evolution",
    "from spinsqueeze import hamiltonians",
    "import spinsqueeze.dicke",
    "def f():\n    from .dicke import collective_operators",
])
def test_the_import_guard_catches(line):
    assert forbidden_oracle_imports(line) != []


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
        a = sample_separable(4, np.random.default_rng(7), 2)
        b = sample_separable(4, np.random.default_rng(7), 2)
        assert a.sp_mean.shape == (2,)
        for f in MOMENT_FIELDS:
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))

    # draws: (seed, samples)
    @pytest.mark.parametrize("n, draws", [(1, (0, 2)), (4, (0, 0)), (4, (0, -1))])
    def test_rejects_invalid_draws(self, n, draws):
        seed, samples = draws
        rng = np.random.default_rng(seed)
        with pytest.raises(ValueError):
            sample_separable(n, rng, samples)
        # refused before any draw
        assert rng.random() == np.random.default_rng(seed).random()

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
            sx, sy, sz = complex_pauli_sums(n)
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

    @pytest.mark.parametrize("n", [2, 3, 6, 20, 400])
    def test_every_moment_matches_the_propagated_state(self, n):
        # <Sz>, Im<S+^2> and the second moments of all-down under mu Sx^2,
        # within the error model eps * N^2 * max(1, ||H|| t)
        spec, times = HamiltonianSpec.one_axis(0.7), np.linspace(0.0, 3.0, 61)
        m = collective_moments(evolve_states(spec, make_all_down(n), times))
        ref = one_axis_analytic_moments(n, spec.mu, times)
        tol = error_model(spec, n, times)
        for got, want in ((m.mean_sz, ref.mean_sz), (m.sp2.imag, ref.sp2.imag),
                          (m.sp2.real, ref.sp2.real), (m.sz2, ref.sz2),
                          (m.sx2, ref.sx2), (m.sy2, ref.sy2)):
            assert np.all(np.abs(got - want) <= tol)

    @pytest.mark.parametrize("mu", [0.7, 2.3])
    @pytest.mark.parametrize("n", [2, 3, 6, 20, 400, 2000])
    def test_closed_form_is_a_reference_for_the_analysis_columns(self, n, mu):
        # The closed form, through the analysis pieces, gives the evolve
        # table's columns at any N, within 4 eps N^2 max(1, ||H|| t) per unit
        # of max(1, |value|). Left out: concurrence, since sqrt(v+ v-)
        # amplifies errors near v+ = 0; branch, which flips at ties; and
        # xi2_general and mean_spin_norm, whose frame degenerates where the
        # mean spin <Sz> = -(N/2) cos^(N-1)(mu t) vanishes.
        spec, times = HamiltonianSpec.one_axis(mu), np.linspace(0.0, 3.0, 301)
        table = analyse(evolve_states(spec, make_all_down(n), times))
        ref = one_axis_analytic_moments(n, mu, times)
        r = reduced_two_qubit(ref)
        expected = {
            "xi2_closed": squeezing_even_odd(ref), "v_plus": r.v_plus, "v_minus": r.v_minus,
            "y": r.y, "u_re": r.u.real, "u_im": r.u.imag, "sz_mean": ref.mean_sz,
            "sz2": ref.sz2, "sp2_re": ref.sp2.real, "sp2_im": ref.sp2.imag,
        }
        unit = 4.0 * error_model(spec, n, times)
        for name, want in expected.items():
            assert np.all(np.abs(table[name] - want) <= unit * np.maximum(1.0, np.abs(want))), name
