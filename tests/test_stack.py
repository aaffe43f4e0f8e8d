"""A (T, N+1) stack of states is analysed exactly as each of its rows alone.

Every field of a stacked result must equal, bit for bit, the field of the
single-state result for the same row; so must every column of the analysis
table. Random states that are not even/odd reach the transverse branch of
the general xi^2, which no trajectory from the all-down state does. The
same holds for a (T, 4, 4) stack of pair reductions and a (K, 2^N) stack of
full-space states, and a stack with one bad entry raises the error that
entry raises alone.
"""

import numpy as np
import pytest
from helpers import make_state, separable_rows, separable_variates

from spinsqueeze import verify
from spinsqueeze.dicke import (
    MOMENT_FIELDS,
    CollectiveMoments,
    SymmetricState,
    collective_moments,
    make_dicke_state,
    mix_moments,
)
from spinsqueeze.errors import NotEvenOddError
from spinsqueeze.oracle import (
    FullState,
    embed_symmetric,
    full_collective_moments,
    partial_trace_pair,
    product_moments,
    sample_separable,
)
from spinsqueeze.pairwise import (
    TwoQubitReduced,
    analyse,
    concurrence_spectral,
    concurrence_x_form,
    reduced_two_qubit,
)
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
    if isinstance(stacked, np.ndarray):  # an xi^2 array
        for k, single in enumerate(singles):
            assert np.array_equal(stacked[k], single, equal_nan=True), k
        return
    names = [f for f in stacked.__dataclass_fields__ if f != "n_qubits"]
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


@pytest.mark.parametrize("n", N_VALUES)
def test_moments_reduction_and_general_xi2(n):
    stack = random_stack(np.random.default_rng(100 + n), n)
    singles = [collective_moments(state) for state in rows_of(stack)]
    m = collective_moments(stack)
    assert m.sp_mean.shape == (ROWS,)
    assert_rows_equal(m, singles, extra=("mean_spin", "mean_spin_norm", "covariance"))
    assert_rows_equal(reduced_two_qubit(m), [reduced_two_qubit(s) for s in singles])
    assert_rows_equal(squeezing_general(m), [squeezing_general(s) for s in singles])
    assert_correlation_rows_equal(m, singles)


def moment_table(states):
    m = collective_moments(states)
    return {f: getattr(m, f) for f in MOMENT_FIELDS}


@pytest.mark.parametrize("kernel, n", [
    (moment_table, 50), (moment_table, 2000), (analyse, 2), (analyse, 50),
], ids=["50", "2000", "analyse-2", "analyse-50"])
def test_moment_kernel_rows_and_blocks(kernel, n):
    # at the benchmark sizes: each row alone, and the 1-, 7- and 131-row
    # blocks of the stack (131 rows is an evolve-large block), concatenated
    rows = 300
    rng = np.random.default_rng(1200 + n)
    amps = rng.normal(size=(rows, n + 1)) + 1j * rng.normal(size=(rows, n + 1))
    if kernel is analyse:
        # even and odd rows, which the X form needs; row 0 has zero mean spin
        amps[0::2, 1::2] = 0.0
        amps[1::2, 0::2] = 0.0
        amps[0] = make_dicke_state(n, n // 2).amplitudes
    else:
        amps[::3, 1::2] = 0.0  # every third row even, as a trajectory from all-down
    stack = SymmetricState(n, amps / np.linalg.norm(amps, axis=1, keepdims=True))
    table = kernel(stack)
    for k, state in enumerate(rows_of(stack)):
        # a single state with zero mean spin raises in xi2_general: analyse a one-row stack
        alone = ({c: v[0] for c, v in analyse(SymmetricState(n, state.amplitudes[None])).items()}
                 if kernel is analyse else kernel(state))
        for c, value in alone.items():
            assert np.array_equal(table[c][k], value, equal_nan=c != "branch"), (c, k)
    for size in (1, 7, 131):
        blocks = [kernel(SymmetricState(n, stack.amplitudes[i:i + size]))
                  for i in range(0, rows, size)]
        for c, column in table.items():
            joined = np.concatenate([block[c] for block in blocks])
            assert np.array_equal(joined, column, equal_nan=c != "branch"), (c, size)
    if kernel is analyse:
        assert np.isnan(table["xi2_general"][0]) and table["degenerate_flag"][0] == 1
        assert np.array_equal(table["degenerate_flag"], np.isnan(table["xi2_general"]))


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
    # every row of one padded stack equals its ensemble mixed alone, unpadded
    m = sample_separable(n, np.random.default_rng(300 + n), ROWS)
    singles = separable_rows(n, separable_variates(np.random.default_rng(300 + n), ROWS))
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


@pytest.mark.parametrize("n", (2, 3, 6))
def test_correlation_of_degenerate_rows_mixed_with_ordinary_rows(n):
    # maximally mixed product ensembles and a zero-mean two-component
    # ensemble search the whole sphere; the rows around them do not
    rng = np.random.default_rng(450 + n)
    bloch = rng.normal(size=(ROWS, 3)) * rng.random((ROWS, 1)) / np.sqrt(3.0)
    sphere_rows = [0, 7, 8, ROWS - 1]
    bloch[sphere_rows] = 0.0
    ordinary = product_moments(bloch, n)
    opposite = product_moments(np.array([[0.3, -0.2, 0.6], [-0.3, 0.2, -0.6]]), n)
    pair = mix_moments([0.5, 0.5], opposite)
    m = CollectiveMoments(n, **{
        f: np.concatenate([getattr(ordinary, f), [getattr(pair, f)]]) for f in MOMENT_FIELDS
    })
    singles = [moment_row(m, k) for k in range(ROWS + 1)]
    degenerate = ~(m.mean_spin_norm >= 1e-8)
    assert list(np.flatnonzero(degenerate)) == [*sphere_rows, ROWS]
    corr = assert_correlation_rows_equal(m, singles)
    # rho^(x)N has no pair correlation along any axis, and the mixture none
    # perpendicular to its two Bloch vectors
    assert np.all(np.abs(corr[degenerate]) <= 1e-15)
    assert np.all(corr >= -1e-12)  # Lemma 1


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
    xi2 = squeezing_general(collective_moments(stack))
    assert np.isnan(xi2[0])
    assert np.isnan(squeezing_general(collective_moments(SymmetricState(2, flat))))
    for k, amps in ((1, tilted), (2, generic)):
        assert xi2[k] == squeezing_general(collective_moments(SymmetricState(2, amps)))


def test_mixed_parity_row_rejects_the_stack():
    even = np.array([1, 0, 0])
    mixed = np.array([1, 1, 0]) / np.sqrt(2)
    with pytest.raises(NotEvenOddError):
        squeezing_even_odd(collective_moments(SymmetricState(2, np.array([even, mixed]))))


@pytest.mark.parametrize("kind", ["x_form", "general"])
def test_spectral_concurrence_of_a_stack(kind):
    rng = np.random.default_rng(600)
    if kind == "x_form":
        rho = verify.random_x_form(rng, samples=ROWS).as_matrix()
    else:  # pair reductions of random states, not X-shaped
        rho = partial_trace_pair(embed_symmetric(random_stack(rng, 4)), 0, 1)
    assert rho.shape == (ROWS, 4, 4)
    stacked = concurrence_spectral(rho)
    assert stacked.concurrence.shape == (ROWS,) and stacked.lambdas.shape == (ROWS, 4)
    for k, matrix in enumerate(rho):
        single = concurrence_spectral(matrix)
        assert np.array_equal(stacked.concurrence[k], single.concurrence), k
        assert np.array_equal(stacked.lambdas[k], single.lambdas), k


def test_random_x_form_stack_draws_as_single_calls():
    # a one-row stack draws what a single call draws; each row of a stack
    # gives the matrix that its fields give alone
    single = verify.random_x_form(np.random.default_rng(601))
    one_row = verify.random_x_form(np.random.default_rng(601), samples=1)
    for name in ("v_plus", "v_minus", "y", "u"):  # the coherences are a shared 0
        assert np.array_equal(getattr(one_row, name), [getattr(single, name)]), name
    assert np.array_equal(one_row.as_matrix(), [single.as_matrix()])
    stacked = verify.random_x_form(np.random.default_rng(601), samples=ROWS)
    matrices = stacked.as_matrix()
    for k in range(ROWS):
        alone = TwoQubitReduced(
            v_plus=stacked.v_plus[k], v_minus=stacked.v_minus[k], y=stacked.y[k],
            x_plus=0.0, x_minus=0.0, u=stacked.u[k],
        )
        assert np.array_equal(matrices[k], alone.as_matrix()), k


@pytest.mark.parametrize("n", N_VALUES)
def test_reduction_matrix_of_a_stack(n):
    stack = random_stack(np.random.default_rng(700 + n), n)
    matrices = reduced_two_qubit(collective_moments(stack)).as_matrix()
    assert matrices.shape == (ROWS, 4, 4)
    for k, state in enumerate(rows_of(stack)):
        single = reduced_two_qubit(collective_moments(state)).as_matrix()
        assert np.array_equal(matrices[k], single), k


@pytest.mark.parametrize("n", (2, 3, 5))
def test_lemma2_draws_as_make_state(n):
    # the suite's stacked draws equal drawing and normalizing one state at a time
    stack = verify._random_symmetric_states(np.random.default_rng(800 + n), n, ROWS)
    rng = np.random.default_rng(800 + n)
    for k in range(ROWS):
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        assert np.array_equal(stack.amplitudes[k], make_state(n, amps)[0].amplitudes), k


@pytest.mark.parametrize("n", (2, 3, 5))
def test_embedding_trace_and_full_moments_of_a_stack(n):
    stack = random_stack(np.random.default_rng(900 + n), n)
    full = embed_symmetric(stack)
    assert full.amplitudes.shape == (ROWS, 2**n)
    traced = partial_trace_pair(full, 0, n - 1)
    m = full_collective_moments(full)
    singles = []
    for k, state in enumerate(rows_of(stack)):
        single = embed_symmetric(state)
        assert np.array_equal(full.amplitudes[k], single.amplitudes), k
        assert np.array_equal(traced[k], partial_trace_pair(single, 0, n - 1)), k
        singles.append(full_collective_moments(single))
    assert_rows_equal(m, singles)


def raised(call, arg):
    with pytest.raises(Exception) as info:
        call(arg)
    return type(info.value), str(info.value)


def bad_matrix(kind):
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    if kind == "not_hermitian":
        rho[0, 1] = 0.3
    elif kind == "nan":
        rho[1, 1] = np.nan
    elif kind == "trace":
        rho *= 2.0
    elif kind == "not_psd":
        rho = np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex)
    return rho


@pytest.mark.parametrize("kind", ["not_hermitian", "nan", "trace", "not_psd"])
def test_one_bad_matrix_rejects_the_stack(kind):
    rho = verify.random_x_form(np.random.default_rng(1000), samples=5).as_matrix()
    rho[2] = bad_matrix(kind)
    single = raised(concurrence_spectral, rho[2])
    assert single[0] is ValueError
    assert raised(concurrence_spectral, rho) == single


@pytest.mark.parametrize("scale", [1.5, np.nan])
def test_one_unnormalized_row_rejects_the_full_stack(scale):
    amps = embed_symmetric(random_stack(np.random.default_rng(1100), 3)).amplitudes.copy()
    amps[ROWS // 2] *= scale
    single = raised(lambda a: FullState(3, a), amps[ROWS // 2])
    assert single[0] is ValueError and "norm" in single[1]
    assert raised(lambda a: FullState(3, a), amps) == single
