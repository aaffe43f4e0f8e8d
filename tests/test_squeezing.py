"""Squeezing parameter: general route, even/odd closed form, the lower bound
xi^2 >= 1 - (2/N)|<S+^2>| of even/odd states."""

import dataclasses

import numpy as np
import pytest
from helpers import evolve_states, make_state

from spinsqueeze.dicke import (
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
)
from spinsqueeze.hamiltonians import HamiltonianSpec
from spinsqueeze.squeezing import squeezing_even_odd, squeezing_general


def h1_state(n, t):
    states = evolve_states(HamiltonianSpec.one_axis(1.0), make_all_down(n), [t])
    return SymmetricState(n, states.amplitudes[0])


def test_coherent_state_unsqueezed():
    for n in (2, 5, 20):
        m = collective_moments(make_all_down(n))
        assert squeezing_general(m) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(m.mean_spin, [0, 0, -n / 2])


def test_h1_n2_quarter_period():
    m = collective_moments(h1_state(2, np.pi / 4))
    expected = 1 - np.sqrt(2) / 2
    assert squeezing_general(m) == pytest.approx(expected, abs=1e-12)
    assert squeezing_even_odd(m) == pytest.approx(expected, abs=1e-12)


def test_degenerate_mean_spin_reads_nan():
    state, _ = make_state(2, [1, 0, 1])
    xi2 = squeezing_general(collective_moments(state))
    assert np.ndim(xi2) == 0 and np.isnan(xi2)


def test_even_odd_rejects_mixed_parity_state():
    state, _ = make_state(2, [1, 1, 0])
    with pytest.raises(ValueError, match="not an even/odd state"):
        squeezing_even_odd(collective_moments(state))


def test_even_odd_rejects_nan_transverse_moment():
    m = dataclasses.replace(collective_moments(make_all_down(2)), sp_mean=complex(np.nan, 0.0))
    with pytest.raises(ValueError, match="not an even/odd state"):
        squeezing_even_odd(m)


@pytest.mark.parametrize("n", [2, 4, 7, 30, 100])
def test_dicke_formula(n):
    for k in range(n + 1):
        m = collective_moments(make_dicke_state(n, k))
        assert squeezing_even_odd(m) == pytest.approx(
            1 + 2 * k * (n - k) / n, abs=1e-12
        )


def test_lower_bound():
    # xi^2 >= 1 - (2/N)|<S+^2>|, from <Sz^2> <= N^2/4
    # Dicke states: sp2 = 0 so the bound is exactly 1
    for m in (collective_moments(make_dicke_state(4, 2)), collective_moments(make_all_down(6))):
        assert 1.0 - (2.0 / m.n_qubits) * np.abs(m.sp2) == 1.0
    # H1 at N=2 saturates the bound because <Sz^2> stays at N^2/4
    m = collective_moments(h1_state(2, np.pi / 4))
    bound = 1.0 - (2.0 / m.n_qubits) * np.abs(m.sp2)
    xi2 = squeezing_even_odd(m)
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
            assert 1.0 - (2.0 / n) * np.abs(m.sp2) <= squeezing_even_odd(m) + 1e-12


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
            assert squeezing_general(m) == pytest.approx(
                squeezing_even_odd(m), abs=1e-10
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
        base = squeezing_even_odd(collective_moments(state))
        for theta in (0.3, 1.7, 4.0):
            rotated, _ = make_state(
                n, state.amplitudes * np.exp(-1j * theta * np.arange(n + 1))
            )
            assert squeezing_even_odd(collective_moments(rotated)) == pytest.approx(
                base, abs=1e-12
            )
