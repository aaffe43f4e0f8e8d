"""Two-qubit reduction, concurrence routes, and the squeezing identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze.dicke import (
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
)
from spinsqueeze.errors import NotXFormError
from spinsqueeze.evolution import evolve_grid, hermitian_eigen
from spinsqueeze.hamiltonians import HamiltonianSpec
from spinsqueeze.pairwise import (
    COHERENCE_DOMINATED,
    POPULATION_DOMINATED,
    TwoQubitReduced,
    concurrence_spectral,
    concurrence_x_form,
    prop3_residual,
    reduced_two_qubit,
    squeezing_condition,
)
from spinsqueeze.verify import random_x_form


def h1_moments(n, t):
    initial = make_all_down(n)
    states = evolve_grid(hermitian_eigen(HamiltonianSpec.one_axis(1.0), initial), initial, [t])
    return collective_moments(SymmetricState(n, states.amplitudes[0]))


class TestReduction:
    def test_all_down_reduces_to_ground_pair(self):
        for n in (2, 4, 9):
            r = reduced_two_qubit(collective_moments(make_all_down(n)))
            assert r.v_minus == pytest.approx(1.0, abs=1e-12)
            for value in (r.v_plus, r.y, r.u, r.x_plus, r.x_minus):
                assert abs(value) <= 1e-12

    def test_half_excited_dicke(self):
        r = reduced_two_qubit(collective_moments(make_dicke_state(4, 2)))
        assert r.y == pytest.approx(1 / 3, abs=1e-12)
        assert r.v_plus == pytest.approx(1 / 6, abs=1e-12)
        assert r.v_minus == pytest.approx(1 / 6, abs=1e-12)
        assert abs(r.u) <= 1e-12
        assert abs(r.x_plus) <= 1e-12

    def test_h1_n2_coherence(self):
        for t in (0.3, np.pi / 4, 1.1):
            r = reduced_two_qubit(h1_moments(2, t))
            assert r.u == pytest.approx(1j * np.sin(t) / 2, abs=1e-12)
            assert r.y == pytest.approx(0.0, abs=1e-12)

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            reduced_two_qubit(collective_moments(make_all_down(1)))

    def test_even_states_have_zero_x(self):
        rng = np.random.default_rng(31)
        from spinsqueeze.dicke import make_state

        for n in range(2, 9):
            amps = np.zeros(n + 1, dtype=complex)
            amps[0::2] = rng.normal(size=amps[0::2].size) + 1j * rng.normal(
                size=amps[0::2].size
            )
            state, _ = make_state(n, amps)
            r = reduced_two_qubit(collective_moments(state))
            assert abs(r.x_plus) <= 1e-12
            assert abs(r.x_minus) <= 1e-12

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TwoQubitReduced(0.5, 0.5, 0.2, 0, 0, 0, 4)  # trace 1.4
        with pytest.raises(ValueError):
            TwoQubitReduced(0.1, 0.1, 0.4, 0, 0, 0.5, 4)  # |u|^2 > v+ v-

    @pytest.mark.parametrize("fields", [
        (np.nan, 0.5, 0.25, 0, 0, 0, 4),  # trace
        (0.5, 0.5, np.nan, 0, 0, 0, 4),
        (0.5, 0.5, 0.0, 0, 0, np.nan, 4),  # X-block positivity
    ])
    def test_nan_entries_enforced(self, fields):
        with pytest.raises(ValueError):
            TwoQubitReduced(*fields)


class TestXForm:
    def test_bell_pair(self):
        r = TwoQubitReduced(0.5, 0.5, 0.0, 0, 0, 0.5, 2)
        result = concurrence_x_form(r)
        assert result.concurrence == pytest.approx(1.0, abs=1e-12)
        assert result.branch == COHERENCE_DOMINATED

    def test_half_excited_dicke(self):
        r = reduced_two_qubit(collective_moments(make_dicke_state(4, 2)))
        result = concurrence_x_form(r)
        assert result.concurrence == pytest.approx(1 / 3, abs=1e-12)
        assert result.branch == POPULATION_DOMINATED

    def test_product_pair(self):
        r = TwoQubitReduced(1.0, 0.0, 0.0, 0, 0, 0.0, 3)
        assert concurrence_x_form(r).concurrence == pytest.approx(0.0, abs=1e-12)

    def test_rejects_coherences(self):
        r = TwoQubitReduced(0.4, 0.4, 0.1, 0.05, 0, 0.1, 4)
        with pytest.raises(NotXFormError):
            concurrence_x_form(r)
        with pytest.raises(NotXFormError):
            concurrence_x_form(TwoQubitReduced(0.4, 0.4, 0.1, np.nan, 0, 0.1, 4))

    def test_lambda_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            result = concurrence_x_form(random_x_form(rng))
            lam = result.lambdas
            assert np.all(np.diff(lam) <= 1e-15)
            assert result.concurrence == pytest.approx(
                lam[0] - lam[1] - lam[2] - lam[3], abs=1e-12
            )


class TestSpectral:
    def test_maximally_mixed(self):
        result = concurrence_spectral(np.eye(4) / 4)
        assert result.concurrence == pytest.approx(-0.5, abs=1e-12)
        np.testing.assert_allclose(result.lambdas, 0.25, atol=1e-12)

    def test_bell_state(self):
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        result = concurrence_spectral(np.outer(psi, psi.conj()))
        assert result.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            concurrence_spectral(np.eye(4))  # trace 4
        bad = np.eye(4) / 4
        bad = bad.astype(complex)
        bad[0, 1] = 0.3
        with pytest.raises(ValueError):
            concurrence_spectral(bad)  # not Hermitian
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            concurrence_spectral(bad)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_x_form(self, seed):
        rng = np.random.default_rng(seed)
        r = random_x_form(rng)
        closed = concurrence_x_form(r).concurrence
        spectral = concurrence_spectral(r.as_matrix()).concurrence
        assert abs(closed - spectral) <= 1e-10


class TestCondition:
    def test_all_down(self):
        cond = squeezing_condition(reduced_two_qubit(collective_moments(make_all_down(4))))
        assert cond.margin == pytest.approx(0.0, abs=1e-12)
        assert cond.xi2 == pytest.approx(1.0, abs=1e-12)
        assert not cond.satisfied

    def test_h1_n2_half_period(self):
        cond = squeezing_condition(reduced_two_qubit(h1_moments(2, np.pi / 2)))
        assert cond.margin == pytest.approx(0.5, abs=1e-12)
        assert cond.xi2 == pytest.approx(0.0, abs=1e-12)
        assert cond.satisfied

    def test_dicke_negative_margin(self):
        cond = squeezing_condition(
            reduced_two_qubit(collective_moments(make_dicke_state(4, 2)))
        )
        assert cond.margin == pytest.approx(-1 / 3, abs=1e-12)
        assert cond.xi2 == pytest.approx(3.0, abs=1e-12)


class TestProp3Residual:
    def test_trivial_zero(self):
        assert prop3_residual(1.0, 0.0, 5) == 0.0

    def test_arithmetic_identity(self):
        assert prop3_residual(0.5, 0.1, 6) == pytest.approx(0.0)

    def test_dicke_violates_outside_domain(self):
        # xi2 > 1: the identity is not expected to hold
        assert prop3_residual(3.0, 1 / 3, 4) == pytest.approx(3.0)

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            prop3_residual(1.0, 0.0, 1)
