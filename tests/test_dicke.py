"""Tests for the Dicke-basis state representation and collective moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze.dicke import (
    MOMENT_FIELDS,
    Parity,
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
    make_state,
    mix_moments,
    parity_class,
)


def random_state(rng, n):
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return make_state(n, amps)[0]


class TestConstruction:
    def test_dicke_basis_vector(self):
        state = make_dicke_state(4, 0)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0)

    def test_half_excited_has_zero_sz(self):
        m = collective_moments(make_dicke_state(4, 2))
        assert m.mean_sz == 0.0

    def test_out_of_range_excitation(self):
        with pytest.raises(ValueError):
            make_dicke_state(2, 5)

    def test_all_down(self):
        np.testing.assert_array_equal(make_all_down(2).amplitudes, [1, 0, 0])
        np.testing.assert_array_equal(make_all_down(1).amplitudes, [1, 0])
        with pytest.raises(ValueError):
            make_all_down(0)

    def test_make_state_normalizes(self):
        state, norm = make_state(2, [1, 0, 1])
        assert norm == pytest.approx(np.sqrt(2))
        np.testing.assert_allclose(
            state.amplitudes, [1 / np.sqrt(2), 0, 1 / np.sqrt(2)]
        )

    def test_make_state_345(self):
        state, _ = make_state(1, [3, 4j])
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8j])

    def test_make_state_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            make_state(2, [0, 0, 0])

    def test_make_state_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            make_state(2, [1, 0])

    @pytest.mark.parametrize("amps", [[np.nan, 1, 0], [np.inf, 1, 0]])
    def test_make_state_rejects_non_finite_norm(self, amps):
        with pytest.raises(ValueError, match="non-finite"):
            make_state(2, amps)

    def test_nan_amplitude_is_not_normalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            SymmetricState(2, [np.nan, 0, 0])
        with pytest.raises(ValueError, match="not normalized"):
            SymmetricState(2, [[1, 0, 0], [np.nan, 0, 0], [0, 1, 0]])


class TestParity:
    def test_all_down_is_even(self):
        assert parity_class(make_all_down(5)) is Parity.EVEN

    def test_odd_dicke(self):
        assert parity_class(make_dicke_state(4, 3)) is Parity.ODD

    def test_mixed(self):
        state, _ = make_state(4, [1, 1, 0, 0, 0])
        assert parity_class(state) is Parity.MIXED


class TestMoments:
    def test_lowest_weight_state(self):
        m = collective_moments(make_all_down(4))
        assert m.mean_sz == -2.0
        assert m.sz2 == 4.0
        assert m.sp2 == 0
        assert m.sp_mean == 0

    def test_dicke_ladder_moments_vanish(self):
        m = collective_moments(make_dicke_state(4, 2))
        assert m.mean_sz == 0.0
        assert m.sz2 == 0.0
        assert m.sp2 == 0
        assert m.sp_mean == 0

    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_total_spin_sum_rule(self, n, seed):
        rng = np.random.default_rng(seed)
        m = collective_moments(random_state(rng, n))
        j = n / 2
        assert m.sx2 + m.sy2 + m.sz2 == pytest.approx(j * (j + 1), abs=1e-10)
        assert m.sz2 <= n * n / 4 + 1e-12

    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sp2_decomposition(self, n, seed):
        rng = np.random.default_rng(seed)
        m = collective_moments(random_state(rng, n))
        assert m.sx2 - m.sy2 == pytest.approx(m.sp2.real, abs=1e-12)
        assert m.anti_sx_sy == pytest.approx(m.sp2.imag, abs=1e-12)

    def test_even_states_have_zero_transverse_mean(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            amps = np.zeros(n + 1, dtype=complex)
            amps[0::2] = rng.normal(size=amps[0::2].size)
            state, _ = make_state(n, amps)
            m = collective_moments(state)
            assert abs(m.mean_sx) <= 1e-12
            assert abs(m.mean_sy) <= 1e-12
            assert abs(m.sp_mean) <= 1e-12


def moments_stack(n, states):
    """Moments of the given states as one stack, one row per state."""
    return collective_moments(SymmetricState(n, [state.amplitudes for state in states]))


class TestMixMoments:
    def test_single_element_identity(self):
        m = collective_moments(make_dicke_state(4, 1))
        mixed = mix_moments([1.0], moments_stack(4, [make_dicke_state(4, 1)]))
        assert mixed == m

    def test_affine_combination(self):
        stack = moments_stack(4, [make_all_down(4), make_dicke_state(4, 2)])
        mixed = mix_moments([0.5, 0.5], stack)
        assert mixed.mean_sz == pytest.approx(-1.0)
        # one row of weights per ensemble: fields of shape (S,)
        mixed = mix_moments([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]], stack)
        np.testing.assert_allclose(mixed.mean_sz, [-1.0, 0.0, -2.0])
        for f in MOMENT_FIELDS:
            assert np.array_equal(getattr(mixed, f)[0], getattr(mix_moments([0.5, 0.5], stack), f))

    def test_rejects_unnormalized_weights(self):
        stack = moments_stack(4, [make_all_down(4)] * 2)
        with pytest.raises(ValueError):
            mix_moments([0.5, 0.4], stack)
        with pytest.raises(ValueError):  # one unnormalized row among several
            mix_moments([[0.5, 0.5], [0.5, 0.4]], stack)
        with pytest.raises(ValueError):  # an empty ensemble's weights sum to 0
            mix_moments([], stack)

    def test_rejects_negative_weights(self):
        stack = moments_stack(4, [make_all_down(4)] * 2)
        with pytest.raises(ValueError):
            mix_moments([1.5, -0.5], stack)

    def test_rejects_nan_weights(self):
        stack = moments_stack(4, [make_all_down(4)] * 2)
        with pytest.raises(ValueError):
            mix_moments([np.nan, 1.0], stack)
        with pytest.raises(ValueError):
            mix_moments([[0.5, 0.5], [np.nan, 1.0]], stack)
