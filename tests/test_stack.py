"""A (T, N+1) stack of states is analysed exactly as each of its rows alone.

Every field of a stacked result must equal, bit for bit, the field of the
single-state result for the same row. Random states that are not even/odd
reach the transverse branch of the general xi^2, which no trajectory from
the all-down state does.
"""

import numpy as np
import pytest

from spinsqueeze import dicke
from spinsqueeze.dicke import (
    MOMENT_FIELDS,
    CollectiveMoments,
    SymmetricState,
    collective_moments,
    make_dicke_state,
)
from spinsqueeze.errors import MeanSpinDegenerateError, NotEvenOddError
from spinsqueeze.oracle import product_moments, sample_separable
from spinsqueeze.pairwise import concurrence_x_form, reduced_two_qubit
from spinsqueeze.squeezing import (
    perpendicular_correlation_min,
    squeezing_even_odd,
    squeezing_general,
)

N_VALUES = (2, 3, 7, 20)
ROWS = 50


def random_stack(rng, n, even=False):
    amps = rng.normal(size=(ROWS, n + 1)) + 1j * rng.normal(size=(ROWS, n + 1))
    if even:
        amps[:, 1::2] = 0.0
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return SymmetricState(n, amps)


def rows_of(stack):
    return [SymmetricState(stack.n_qubits, amps) for amps in stack.amplitudes]


def assert_rows_equal(stacked, singles, extra=()):
    names = [f for f in stacked.__dataclass_fields__ if f not in ("n_qubits", "method")]
    for name in [*names, *extra]:
        column = getattr(stacked, name)
        for k, single in enumerate(singles):
            value = getattr(single, name)
            if name == "branch":
                assert column[k] == value
            else:
                assert np.array_equal(column[k], value, equal_nan=True), (name, k)


def assert_correlation_rows_equal(m, singles):
    corr = perpendicular_correlation_min(m)
    assert corr.shape == (len(singles),)
    for k, single in enumerate(singles):
        assert np.array_equal(corr[k], perpendicular_correlation_min(single)), k
    return corr


@pytest.mark.parametrize("block_rows", [None, 1, 7])
@pytest.mark.parametrize("n", N_VALUES)
def test_moments_reduction_and_general_xi2(n, block_rows, monkeypatch):
    if block_rows:  # a stack that spans several blocks of the moment pass
        monkeypatch.setattr(dicke, "BLOCK_ELEMENTS", block_rows * (n + 1))
    stack = random_stack(np.random.default_rng(100 + n), n)
    singles = [collective_moments(state) for state in rows_of(stack)]
    m = collective_moments(stack)
    assert m.mean_sx.shape == (ROWS,)
    assert_rows_equal(m, singles, extra=("mean_spin", "mean_spin_norm", "covariance"))
    assert_rows_equal(reduced_two_qubit(m), [reduced_two_qubit(s) for s in singles])
    assert_rows_equal(squeezing_general(m), [squeezing_general(s) for s in singles])
    assert_correlation_rows_equal(m, singles)


def moment_row(m, k):
    return CollectiveMoments(m.n_qubits, **{f: getattr(m, f)[k] for f in MOMENT_FIELDS})


@pytest.mark.parametrize("n", (2, 3, 6))
def test_product_moments_of_a_stack(n):
    # signed zeros and axis vectors besides random ones in the unit ball
    rng = np.random.default_rng(500 + n)
    bloch = np.concatenate([
        rng.normal(size=(ROWS, 3)) * rng.random((ROWS, 1)) / np.sqrt(3.0),
        [[0.0, 0.0, -1.0], [-0.0, 0.0, 0.0], [0.0, -0.0, 0.5], [-0.6, -0.0, -0.0]],
    ])
    stack = product_moments(bloch, n)
    assert stack.sp2.shape == (len(bloch),)
    assert_rows_equal(stack, [product_moments(b, n) for b in bloch])
    # an (S, K, 3) stack gives (S, K) fields with the same entries
    square = product_moments(bloch[:50].reshape(5, 10, 3), n)
    for f in MOMENT_FIELDS:
        assert np.array_equal(getattr(square, f).ravel(), getattr(stack, f)[:50]), f


@pytest.mark.parametrize("n", (2, 3, 6))
def test_correlation_of_separable_moments(n):
    # every row of one padded call equals the unpadded call for its draw alone
    rng = np.random.default_rng(300 + n)
    draws = [(int(rng.integers(1, 9)), int(rng.integers(0, 2**63 - 1))) for _ in range(ROWS)]
    m = sample_separable(n, draws)
    singles = [moment_row(sample_separable(n, [draw]), 0) for draw in draws]
    assert_rows_equal(m, singles)
    corr = assert_correlation_rows_equal(m, singles)
    assert np.all(corr >= -1e-12)  # Lemma 1


def test_correlation_of_zero_mean_spin_row_searches_the_sphere():
    # the Dicke state |N=4, n=2> has no mean spin and <Sz^2> = 0: the
    # full-sphere minimum is along z, corr = (0 - N) / (N (N - 1))
    rng = np.random.default_rng(400)
    amps = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    amps[0] = make_dicke_state(4, 2).amplitudes
    stack = SymmetricState(4, amps / np.linalg.norm(amps, axis=1, keepdims=True))
    singles = [collective_moments(state) for state in rows_of(stack)]
    corr = assert_correlation_rows_equal(collective_moments(stack), singles)
    assert corr[0] == pytest.approx(-1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("n", N_VALUES)
def test_closed_form_xi2_and_x_form_concurrence(n):
    stack = random_stack(np.random.default_rng(200 + n), n, even=True)
    singles = [collective_moments(state) for state in rows_of(stack)]
    m = collective_moments(stack)
    assert_rows_equal(squeezing_even_odd(m), [squeezing_even_odd(s) for s in singles])
    assert_rows_equal(
        concurrence_x_form(reduced_two_qubit(m)),
        [concurrence_x_form(reduced_two_qubit(s)) for s in singles],
    )


def test_degenerate_row_reads_nan_in_a_stack():
    # row 0 has a vanishing mean spin; row 1 has only <Sz>, the frame's
    # fallback axis; row 2 is a generic state
    flat = np.array([1, 0, 1]) / np.sqrt(2)
    tilted = np.array([1, 0, 2]) / np.sqrt(5)
    generic = np.array([1, 1j, 0.5]) / 1.5
    stack = SymmetricState(2, np.array([flat, tilted, generic]))
    with pytest.raises(MeanSpinDegenerateError):
        squeezing_general(collective_moments(SymmetricState(2, flat)))
    result = squeezing_general(collective_moments(stack))
    assert np.isnan(result.xi2[0]) and np.all(np.isnan(result.n_perp[0]))
    for k, amps in ((1, tilted), (2, generic)):
        single = squeezing_general(collective_moments(SymmetricState(2, amps)))
        assert result.xi2[k] == single.xi2


def test_mixed_parity_row_rejects_the_stack():
    even = np.array([1, 0, 0])
    mixed = np.array([1, 1, 0]) / np.sqrt(2)
    with pytest.raises(NotEvenOddError):
        squeezing_even_odd(collective_moments(SymmetricState(2, np.array([even, mixed]))))
