"""Tests for the Dicke-basis state representation and collective moments."""

import functools
import sys
import tracemalloc

import numpy as np
import pytest
from helpers import make_state
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze.dicke import (
    MOMENT_FIELDS,
    SymmetricState,
    collective_moments,
    collective_operators,
    make_all_down,
    make_dicke_state,
    mix_moments,
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
        with pytest.raises(ValueError, match="need at least one qubit, got 0"):
            make_all_down(0)
        with pytest.raises(ValueError, match="out of range for N=-1"):
            make_all_down(-1)

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

    def test_empty_stack_is_refused(self):
        with pytest.raises(ValueError, match="empty stack"):
            SymmetricState(2, np.zeros((0, 3)))

    def test_state_keeps_the_callers_array_writeable(self):
        amps = np.zeros(3, complex)
        amps[0] = 1.0
        state = SymmetricState(2, amps)
        amps[1] = 0.5
        assert list(state.amplitudes) == [1, 0, 0]
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[1] = 0.5


class TestMoments:
    def test_each_moment_is_stored_once(self):
        # <Sx>, <Sy> and <[Sx, Sy]_+> are read off sp_mean and sp2, not stored
        assert MOMENT_FIELDS == ("mean_sz", "sz2", "sx2", "sy2", "sp_mean", "sp2", "anti_sp_sz")

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
        state = random_state(rng, n)
        m = collective_moments(state)
        sx, sy, _, _, _ = collective_operators(n)
        c = state.amplitudes
        assert m.sx2 - m.sy2 == pytest.approx(m.sp2.real, abs=1e-12)
        assert m.sp2.imag == pytest.approx(np.vdot(c, (sx @ sy + sy @ sx) @ c).real, abs=1e-12)

    def test_even_states_have_zero_transverse_mean(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            amps = np.zeros(n + 1, dtype=complex)
            amps[0::2] = rng.normal(size=amps[0::2].size)
            state, _ = make_state(n, amps)
            m = collective_moments(state)
            assert np.all(np.abs(m.mean_spin[:2]) <= 1e-12)
            assert abs(m.sp_mean) <= 1e-12


def parity_stack(rng, n, rows, parity):
    """Random normalized states, one per row; "even" or "odd" leaves only
    that sector of excitation numbers populated."""
    amps = rng.normal(size=(rows, n + 1)) + 1j * rng.normal(size=(rows, n + 1))
    if parity == "even":
        amps[:, 1::2] = 0.0
    elif parity == "odd":
        amps[:, 0::2] = 0.0
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


@functools.lru_cache(maxsize=1)
def dense_operators(n):
    """From `collective_operators`: the dense operator of every moment
    field, then (Sx, Sy, Sz) and their anticommutators [S_a, S_b]_+."""
    sx, sy, sz, sp, _ = collective_operators(n)
    fields = {
        "mean_sz": sz, "sz2": sz @ sz, "sx2": sx @ sx, "sy2": sy @ sy,
        "sp_mean": sp, "sp2": sp @ sp, "anti_sp_sz": sp @ sz + sz @ sp,
    }
    spin = (sx, sy, sz)
    return fields, spin, [[a @ b + b @ a for b in spin] for a in spin]


def dense_moments(c, n):
    """Every moment field of the state c as np.vdot(c, A c), the fields that
    CollectiveMoments holds as real numbers as real parts; and `mean_spin`
    and `covariance` as <S_a> and <[S_a, S_b]_+>/2 of the dense S_a."""
    fields, spin, anti = dense_operators(n)
    complex_fields = ("sp_mean", "sp2", "anti_sp_sz")
    moments = {name: np.vdot(c, op @ c) if name in complex_fields else np.vdot(c, op @ c).real
               for name, op in fields.items()}
    moments["mean_spin"] = np.array([np.vdot(c, op @ c).real for op in spin])
    moments["covariance"] = np.array([[0.5 * np.vdot(c, op @ c).real for op in row]
                                      for row in anti])
    return moments


def ladder_moments(c, n):
    """<S+>, <S+^2>, <[S+, Sz]_+>, <Sz> and <Sz^2> of the state c by explicit
    shifts: (S+ x)_(k+1) = sqrt((N-k)(k+1)) x_k and (Sz x)_k = (k - N/2) x_k."""
    k = np.arange(n)
    a = np.sqrt((n - k) * (k + 1.0))
    m = np.arange(n + 1) - n / 2.0

    def raised(x):
        y = np.zeros_like(x)
        y[1:] = a * x[:-1]
        return y

    sp_c, sz_c = raised(c), m * c
    return {
        "sp_mean": np.vdot(c, sp_c), "sp2": np.vdot(c, raised(sp_c)),
        "anti_sp_sz": np.vdot(c, raised(sz_c) + m * sp_c),
        "mean_sz": np.vdot(c, sz_c).real, "sz2": np.vdot(sz_c, sz_c).real,
    }


class TestMomentReference:
    """The moment kernel against references that share none of its sums,
    within 4 eps N^2: every second moment is at most N^2/4 in size, and the
    worst error seen is 0.85 eps N^2 (sz2 of even states at N=2000)."""

    ROWS = 12

    def check(self, n, parity, reference):
        amps = parity_stack(np.random.default_rng(n), n, self.ROWS, parity)
        stacks = [SymmetricState(n, amps)]
        if parity != "mixed":  # the same states held as their one sector's entries
            p = {"even": 0, "odd": 1}[parity]
            stacks.append(SymmetricState(n, amps[:, p::2], parity=p))
        tol = 4 * sys.float_info.epsilon * n * n
        for stack in stacks:
            m = collective_moments(stack)
            for k in range(self.ROWS):
                for name, value in reference(amps[k], n).items():
                    assert np.max(np.abs(getattr(m, name)[k] - value)) <= tol, (name, k)
            if parity != "mixed":  # one sector: no n -> n+1 coupling at all
                assert not np.any(m.sp_mean) and not np.any(m.anti_sp_sz)

    @pytest.mark.parametrize("parity", ["mixed", "even", "odd"])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 101, 400])
    def test_dense_operators(self, n, parity):
        self.check(n, parity, dense_moments)

    @pytest.mark.parametrize("parity", ["mixed", "even", "odd"])
    def test_ladder_shifts_at_n2000(self, parity):
        self.check(2000, parity, ladder_moments)


def test_moment_kernel_holds_one_stack_sized_buffer():
    # the kernel keeps at most one full-size array besides its (T,) results;
    # the former one made about a dozen and peaked at 2.05 times the stack
    n = 2000
    stack = SymmetricState(n, parity_stack(np.random.default_rng(5), n, 131, "mixed"))
    tracemalloc.start()
    try:
        collective_moments(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stack.amplitudes.nbytes


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
