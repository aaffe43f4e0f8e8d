"""Squeezing parameter: general route, even/odd closed form, the lower bound
xi^2 >= 1 - (2/N)|<S+^2>| of even/odd states."""

import dataclasses

import numpy as np
import pytest
from helpers import evolve_states, make_state
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import squeezing
from spinsqueeze.dicke import (
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
)
from spinsqueeze.hamiltonians import HamiltonianSpec
from spinsqueeze.squeezing import MEAN_SPIN_TOL, squeezing_even_odd, squeezing_general


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


def sector_row(rng, n, parity, kind, scale):
    """One row of sector entries: random, or with |c|^2 reversal-symmetric
    (<Sz> = 0 to rounding, even N), or that plus a perturbation of size
    `scale` (<Sz> near MEAN_SPIN_TOL), or one Dicke state (<Sx^2> = <Sy^2>
    and <S+^2> = 0, a double eigenvalue)."""
    m = (n + 2 - parity) // 2
    c = rng.normal(size=m) + 1j * rng.normal(size=m)
    if kind == "dicke":
        c = np.zeros(m, dtype=complex)
        c[rng.integers(m)] = 1.0
    elif kind != "random" and n % 2 == 0:
        c = np.sqrt(np.abs(c) * np.abs(c[::-1])) * np.exp(1j * np.angle(c))
        if kind == "near":
            c += scale * (rng.normal(size=m) + 1j * rng.normal(size=m))
    return c / np.linalg.norm(c)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 16), st.integers(0, 1), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["random", "zero", "near", "dicke"]), min_size=1, max_size=8),
       st.floats(1e-12, 1e-6))
def test_z_frame_equals_the_general_frame_bit_for_bit(n, parity, seed, kinds, scale):
    rng = np.random.default_rng(seed)
    entries = np.array([sector_row(rng, n, parity, kind, scale) for kind in kinds])
    m = collective_moments(SymmetricState(n, entries, parity))
    assert np.all(m.sp_mean == 0)
    general = squeezing._perpendicular_min(m.mean_spin, m.covariance)
    fixed = squeezing._z_frame_min(m)
    live = m.mean_spin_norm >= MEAN_SPIN_TOL  # the rows whose value is read
    assert fixed[live].tobytes() == general[live].tobytes()
    expected = np.where(live, np.maximum(4.0 * general / n, 0.0), np.nan)
    xi2 = squeezing_general(m)
    assert np.array_equal(np.isnan(xi2), ~live)
    assert xi2[live].tobytes() == expected[live].tobytes()


def test_a_transverse_mean_in_any_row_takes_the_general_frame(monkeypatch):
    original, calls = squeezing._perpendicular_min, []

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(squeezing, "_perpendicular_min", spy)
    tilted, _ = make_state(4, [1, 0.5, 0.2, 0, 0.1])  # <S+> != 0
    stack = SymmetricState(4, np.array([make_all_down(4).amplitudes, tilted.amplitudes]))
    m = collective_moments(stack)
    assert m.sp_mean[0] == 0 and m.sp_mean[1] != 0
    xi2 = squeezing_general(m)
    assert len(calls) == 1
    assert xi2[0] == squeezing_general(collective_moments(make_all_down(4)))
    assert len(calls) == 1  # all-down alone has no transverse mean: the fixed frame
