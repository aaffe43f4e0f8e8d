"""Squeezing parameter: general route, even/odd closed form, bounds."""

import dataclasses

import numpy as np
import pytest

from spinsqueeze.dicke import (
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
    make_state,
)
from spinsqueeze.errors import MeanSpinDegenerateError, NotEvenOddError
from spinsqueeze.evolution import evolve_grid, hermitian_eigen
from spinsqueeze.hamiltonians import HamiltonianSpec
from spinsqueeze.squeezing import (
    squeezing_even_odd,
    squeezing_from_correlation,
    squeezing_general,
    squeezing_lower_bound,
)


def h1_state(n, t):
    initial = make_all_down(n)
    states = evolve_grid(hermitian_eigen(HamiltonianSpec.one_axis(1.0), initial), initial, [t])
    return SymmetricState(n, states.amplitudes[0])


def test_coherent_state_unsqueezed():
    for n in (2, 5, 20):
        m = collective_moments(make_all_down(n))
        result = squeezing_general(m)
        assert result.xi2 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(result.mean_spin, [0, 0, -n / 2])
        assert abs(result.n_perp @ result.mean_spin) <= 1e-12


def test_h1_n2_quarter_period():
    m = collective_moments(h1_state(2, np.pi / 4))
    expected = 1 - np.sqrt(2) / 2
    assert squeezing_general(m).xi2 == pytest.approx(expected, abs=1e-12)
    assert squeezing_even_odd(m).xi2 == pytest.approx(expected, abs=1e-12)


def test_degenerate_mean_spin_raises():
    state, _ = make_state(2, [1, 0, 1])
    with pytest.raises(MeanSpinDegenerateError):
        squeezing_general(collective_moments(state))


def test_even_odd_rejects_mixed_parity_state():
    state, _ = make_state(2, [1, 1, 0])
    with pytest.raises(NotEvenOddError):
        squeezing_even_odd(collective_moments(state))


def test_even_odd_rejects_nan_transverse_moment():
    m = dataclasses.replace(collective_moments(make_all_down(2)), sp_mean=complex(np.nan, 0.0))
    with pytest.raises(NotEvenOddError):
        squeezing_even_odd(m)


@pytest.mark.parametrize("n", [2, 4, 7, 30, 100])
def test_dicke_formula(n):
    for k in range(n + 1):
        m = collective_moments(make_dicke_state(n, k))
        assert squeezing_even_odd(m).xi2 == pytest.approx(
            1 + 2 * k * (n - k) / n, abs=1e-12
        )


def test_lower_bound():
    # Dicke states: sp2 = 0 so the bound is exactly 1
    assert squeezing_lower_bound(collective_moments(make_dicke_state(4, 2))) == 1.0
    assert squeezing_lower_bound(collective_moments(make_all_down(6))) == 1.0
    # H1 at N=2 saturates the bound because <Sz^2> stays at N^2/4
    m = collective_moments(h1_state(2, np.pi / 4))
    bound = squeezing_lower_bound(m)
    xi2 = squeezing_even_odd(m).xi2
    assert bound == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-12)
    assert bound <= xi2 + 1e-12


def test_bound_never_exceeds_closed_form():
    rng = np.random.default_rng(9)
    for n in range(2, 9):
        for _ in range(50):
            amps = np.zeros(n + 1, dtype=complex)
            amps[0::2] = rng.normal(size=amps[0::2].size) + 1j * rng.normal(
                size=amps[0::2].size
            )
            state, _ = make_state(n, amps)
            m = collective_moments(state)
            assert squeezing_lower_bound(m) <= squeezing_even_odd(m).xi2 + 1e-12


def test_general_matches_closed_form_on_even_states():
    rng = np.random.default_rng(17)
    count = 0
    for n in range(2, 9):
        for _ in range(100):
            amps = np.zeros(n + 1, dtype=complex)
            amps[0::2] = rng.normal(size=amps[0::2].size) + 1j * rng.normal(
                size=amps[0::2].size
            )
            state, _ = make_state(n, amps)
            m = collective_moments(state)
            if abs(m.mean_sz) < 1e-6:
                continue
            count += 1
            assert squeezing_general(m).xi2 == pytest.approx(
                squeezing_even_odd(m).xi2, abs=1e-10
            )
    assert count > 100


def test_rotation_invariance_about_z():
    rng = np.random.default_rng(23)
    for n in (3, 6, 11):
        amps = np.zeros(n + 1, dtype=complex)
        amps[0::2] = rng.normal(size=amps[0::2].size) + 1j * rng.normal(
            size=amps[0::2].size
        )
        state, _ = make_state(n, amps)
        base = squeezing_even_odd(collective_moments(state)).xi2
        for theta in (0.3, 1.7, 4.0):
            rotated, _ = make_state(
                n, state.amplitudes * np.exp(-1j * theta * np.arange(n + 1))
            )
            assert squeezing_even_odd(collective_moments(rotated)).xi2 == pytest.approx(
                base, abs=1e-12
            )


def test_optimal_angle_phase_relation():
    m = collective_moments(h1_state(4, 0.2))
    result = squeezing_even_odd(m)
    two_theta = (2 * result.optimal_angle) % (2 * np.pi)
    expected = (np.pi + np.angle(m.sp2)) % (2 * np.pi)
    assert two_theta == pytest.approx(expected, abs=1e-12)


def test_from_correlation():
    assert squeezing_from_correlation(0.0, 5) == 1.0
    assert squeezing_from_correlation(-1 / 4, 5) == pytest.approx(0.0)
    assert squeezing_from_correlation(0.1, 6) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        squeezing_from_correlation(1.5, 5)
    with pytest.raises(ValueError):
        squeezing_from_correlation(0.0, 1)
