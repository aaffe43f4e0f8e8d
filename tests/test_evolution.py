"""Sector eigendecomposition and propagation, against the dense reference."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from helpers import (
    SECTOR_SPECS,
    dense_evolve,
    error_model,
    evolve_states,
    make_state,
    rk4_evolve,
    taylor_evolve,
)

from spinsqueeze import evolution, hamiltonians
from spinsqueeze.dicke import (
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
)
from spinsqueeze.errors import NumericalError
from spinsqueeze.evolution import (
    evolve_blocks,
    hermitian_eigen,
    solve_band,
    time_grid,
    trajectory,
)
from spinsqueeze.hamiltonians import (
    HamiltonianSpec,
    SectorBand,
    build_hamiltonian,
    sector_bands,
    tridiagonal,
)

H1 = HamiltonianSpec.one_axis(1.0)


def band(diagonal, off_diagonal=None):
    diagonal = np.asarray(diagonal, dtype=float)
    if off_diagonal is None:
        off_diagonal = np.zeros(len(diagonal) - 1)
    return SectorBand(2 * len(diagonal), 0, diagonal, np.asarray(off_diagonal, float), 1.0)


def mirror(vectors, signs):
    """V from `solve_band`'s vectors and J-signs, assembled whole by this
    test's own copy of the fold's mirror: a fold's vectors are V's top
    ceil(m/2) rows, and row m - 1 - i of a column is its sign times row i.
    V itself when signs is None."""
    if signs is None:
        return vectors
    m = signs.size
    v = np.empty((m, m))
    v[:vectors.shape[0]] = vectors
    v[vectors.shape[0]:] = (vectors[:m // 2] * signs)[::-1]
    return v


def eigenbasis(b):
    """(energies, V) of the band: `solve_band`'s, a fold's V assembled by `mirror`."""
    energies, vectors, signs = solve_band(b)
    return energies, mirror(vectors, signs)


def evolve_to(spec, initial, t):
    """The state at one time."""
    return SymmetricState(initial.n_qubits, evolve_states(spec, initial, [t]).amplitudes[0])


def test_diagonal_eigen():
    energies, vectors = eigenbasis(band([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(energies, [1, 2, 3])
    np.testing.assert_allclose(np.abs(vectors), np.eye(3), atol=1e-14)


def test_one_axis_n2_spectrum():
    energies = np.concatenate([solve_band(b)[0] for b in sector_bands(H1, 2)])
    np.testing.assert_allclose(np.sort(energies), [0, 1, 1], atol=1e-14)


def test_random_hermitian_contracts():
    rng = np.random.default_rng(2)
    b = band(rng.normal(size=50), rng.normal(size=49))
    e, v = eigenbasis(b)
    assert np.max(np.abs(v @ np.diag(e) @ v.T - tridiagonal(b.diagonal, b.off_diagonal))) <= 1e-10
    assert np.max(np.abs(v.T @ v - np.eye(50))) <= 1e-11


def test_evolve_t0_is_identity():
    initial = make_all_down(4)
    np.testing.assert_allclose(
        evolve_to(H1, initial, 0.0).amplitudes,
        initial.amplitudes,
        atol=1e-14,
    )


def test_one_axis_n2_analytic_amplitudes():
    t = np.linspace(0, 2 * np.pi, 17)
    states = evolve_states(H1, make_all_down(2), t)
    phase = np.exp(-1j * t)
    expected = np.stack([(phase + 1) / 2, 0 * phase, (phase - 1) / 2], axis=-1)
    np.testing.assert_allclose(states.amplitudes, expected, atol=1e-12)


def test_forward_backward_roundtrip():
    spec = HamiltonianSpec(mu=0.4, chi=-0.9, gamma=1.3, f_coeffs=(0, 0.7))
    initial = make_all_down(7)
    back = evolve_to(spec, evolve_to(spec, initial, 2.3), -2.3)
    np.testing.assert_allclose(back.amplitudes, initial.amplitudes, atol=1e-12)


def test_stack_of_initial_states_is_refused():
    stack = SymmetricState(2, np.tile(make_all_down(2).amplitudes, (3, 1)))
    with pytest.raises(ValueError, match=r"one initial state, got amplitudes of shape \(3, 3\)"):
        hermitian_eigen(H1, stack)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_a_state_of_both_parities_is_refused_before_any_solve(n, monkeypatch):
    solved = []
    original = evolution.solve_band

    def spy(b):
        solved.append((b.parity, b.dim))
        return original(b)

    monkeypatch.setattr(evolution, "solve_band", spy)
    both, _ = make_state(n, np.ones(n + 1))
    with pytest.raises(ValueError, match="both parity sectors"):
        hermitian_eigen(H1, both)
    with pytest.raises(ValueError, match="both parity sectors"):
        evolve_blocks(H1, both, time_grid(1.0, 1.0))
    assert solved == []
    hermitian_eigen(H1, make_all_down(n))  # the spy sees a solve
    assert solved == [(0, n // 2 + 1)]


def test_non_finite_times_are_refused():
    propagator = hermitian_eigen(H1, make_all_down(2))
    for times in ([0.0, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="non-finite time"):
            evolution.propagate(propagator, times)


def test_empty_grid_is_refused_before_any_solve(monkeypatch):
    propagator = hermitian_eigen(H1, make_all_down(2))
    solved = []
    monkeypatch.setattr(evolution, "solve_band", solved.append)
    for times in ([], np.zeros(0), np.zeros((0, 3))):
        with pytest.raises(ValueError, match="empty time grid"):
            evolution.propagate(propagator, times)
    assert solved == []


def full_weight(b):
    """A seeded random unit vector of the band's size: it has weight on
    every mode, so `_kept_modes` keeps and checks all of V."""
    rng = np.random.default_rng(b.dim)
    x = rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)
    return x / np.linalg.norm(x)


def all_down(b):
    """x = D^dag c(0) of all-down on the band, its even sector."""
    return b.gauge().conj() * make_all_down(b.n_qubits).amplitudes[b.indices]


def check_all_modes(b):
    """`_kept_modes` of the band, from a state that occupies every mode."""
    return evolution._kept_modes(b, full_weight(b))


def test_nan_eigenvalue_is_numerical_error(monkeypatch):
    eigh = np.linalg.eigh

    def nan_first(a):
        energies, vectors = eigh(a)
        energies[0] = np.nan
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", nan_first)
    with pytest.raises(NumericalError, match="residual nan"):
        check_all_modes(band([0.0, 1.0]))


def test_nan_singular_value_is_numerical_error(monkeypatch):
    svd = np.linalg.svd

    def nan_first(a):
        u, s, vt = svd(a)
        s[0] = np.nan
        return u, s, vt

    monkeypatch.setattr(np.linalg, "svd", nan_first)
    with pytest.raises(NumericalError, match="residual nan"):
        check_all_modes(band([0.0, 0.0, 0.0], [1.0, 2.0]))


# the routes of solve_band: eigh (one-axis) and the SVD of the bidiagonal half
# (two-axis) at odd N, whose bands are not palindromic, and the fold of each
# model's band at even N; (spec, N - 2m) for the even band of size m
ROUTES = {
    "eigh": (HamiltonianSpec.one_axis(1.0), -1),
    "svd": (HamiltonianSpec.two_axis(1.0), -1),
    "fold-eigh": (HamiltonianSpec.one_axis(1.0), -2),
    "fold-svd": (HamiltonianSpec.two_axis(1.0), -2),
}


def route_band(route, m):
    """The even band of size m of the route's model, m odd."""
    spec, offset = ROUTES[route]
    return sector_bands(spec, 2 * m + offset)[0]


def solve_mutated(route, m, mutate, monkeypatch):
    """`_kept_modes` on the route's band of size m, from a state that keeps
    every mode, with the route's eigenpairs passed through mutate(energies,
    vectors, signs) first: for a fold, its half-height vectors and J-signs,
    which hold row r of V in row min(r, m - 1 - r); else V and None."""
    if route == "eigh":
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: mutate(*eigh(a), None)[:2])
    elif route == "svd":
        chiral = evolution._chiral_eigh
        monkeypatch.setattr(evolution, "_chiral_eigh",
                            lambda e, out: mutate(chiral(e, out), out, None)[0])
    else:
        fold = evolution._folded_eigh
        monkeypatch.setattr(evolution, "_folded_eigh", lambda d, e: mutate(*fold(d, e)))
    return check_all_modes(route_band(route, m))


@pytest.mark.parametrize("window", [None, 3])
@pytest.mark.parametrize("row", [0, 2, 3, 10])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_perturbed_column_fails_the_residual(route, row, window, monkeypatch):
    # m = 11; with 3-column windows, column 0 is checked in the first of four
    if window:
        monkeypatch.setattr(evolution, "CONTRACT_ELEMENTS", window * 11)

    def perturb(energies, vectors, signs):
        # column 0: the lowest energy, not 0
        vectors[row if signs is None else min(row, 10 - row), 0] += 1e-6
        return energies, vectors, signs

    with pytest.raises(NumericalError, match="eigendecomposition residual"):
        solve_mutated(route, 11, perturb, monkeypatch)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_duplicated_column_fails_orthonormality(route, monkeypatch):
    def duplicate(energies, vectors, signs):
        energies[1], vectors[:, 1] = energies[0], vectors[:, 0]  # an exact eigenpair twice
        if signs is not None:
            signs[1] = signs[0]
        return energies, vectors, signs

    # one window of columns, then 1-column windows, where the copies fall apart
    for columns in (None, 1):
        with monkeypatch.context() as patch:
            if columns:
                patch.setattr(evolution, "CONTRACT_ELEMENTS", columns * 11)
            with pytest.raises(NumericalError, match="orthonormality residual"):
                solve_mutated(route, 11, duplicate, patch)


@pytest.mark.parametrize("window", [None, 3])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_overlap_across_a_window_edge_fails_orthonormality(route, window, monkeypatch):
    # m = 11; with 3-column windows, columns 1 and 2 fall in a window before column 3's
    if window:
        monkeypatch.setattr(evolution, "CONTRACT_ELEMENTS", window * 11)

    def overlap(energies, vectors, signs):
        # column 3 overlaps column j by 1e-10: ten times ORTHONORMALITY_TOL, while
        # its residual, 1e-10 |lambda_j - lambda_3|, stays within RECONSTRUCTION_TOL.
        # A fold's columns alternate J-signs, and in V an overlap of opposite
        # signs cancels, so there j = 1, else 2
        j = 2 if signs is None else 1
        vectors[:, 3] += 1e-10 * vectors[:, j]
        return energies, vectors, signs

    with pytest.raises(NumericalError, match="orthonormality residual"):
        solve_mutated(route, 11, overlap, monkeypatch)


FOLD_ROUTES = ["fold-eigh", "fold-svd"]


@pytest.mark.parametrize("state", ["full weight", "all-down"])
@pytest.mark.parametrize("route", FOLD_ROUTES)
def test_perturbed_mirrored_row_fails_the_residual(route, state, monkeypatch):
    # each assembled window and V_k itself carry a defect in the last row of
    # their first column, the mirror of its first row: the contracts see it
    unfold = evolution._unfold

    def perturbed(top, signs, out):
        unfold(top, signs, out)[-1, 0] += 1e-6
        return out

    monkeypatch.setattr(evolution, "_unfold", perturbed)
    b = route_band(route, 11)
    with pytest.raises(NumericalError, match="eigendecomposition residual"):
        evolution._kept_modes(b, full_weight(b) if state == "full weight" else all_down(b))


@pytest.mark.parametrize("column", [0, 1])  # a J-even and a J-odd vector at m = 11
@pytest.mark.parametrize("route", FOLD_ROUTES)
def test_flipped_j_sign_fails_the_residual(route, column, monkeypatch):
    def flip(energies, vectors, signs):
        signs[column] = -signs[column]
        return energies, vectors, signs

    with pytest.raises(NumericalError, match="eigendecomposition residual"):
        solve_mutated(route, 11, flip, monkeypatch)


@pytest.mark.parametrize("state", ["full weight", "all-down"])
@pytest.mark.parametrize("route", FOLD_ROUTES)
def test_folded_kept_modes_match_the_whole_v_bit_for_bit(route, state, monkeypatch):
    # the same solve, its V assembled whole by `mirror` and cut as an unfolded V
    b = route_band(route, 1001)
    x = full_weight(b) if state == "full weight" else all_down(b)
    solve, whole = evolution.solve_band, []

    def spy(band):
        energies, vectors, signs = solve(band)
        whole.append((energies.copy(), mirror(vectors, signs), None))
        return energies, vectors, signs

    monkeypatch.setattr(evolution, "solve_band", spy)
    got = evolution._kept_modes(b, x)
    monkeypatch.setattr(evolution, "solve_band", lambda band: whole[0])
    expected = evolution._kept_modes(b, x)
    assert (got[1].shape[1] == b.dim) == (state == "full weight")
    for a, e in zip(got, expected):
        assert a.shape == e.shape and a.strides == e.strides
        assert np.array_equal(a.view(np.uint64), e.view(np.uint64))


def test_a_referenced_fold_grows_into_v_by_a_copy(monkeypatch):
    # a reference held elsewhere stops the in-place growth, not the solve
    b = route_band("fold-eigh", 11)
    x = full_weight(b)
    expected = evolution._kept_modes(b, x)
    solve, held = evolution.solve_band, []
    monkeypatch.setattr(evolution, "solve_band", lambda band: held.append(solve(band)) or held[0])
    got = evolution._kept_modes(b, x)
    assert held[0][1].shape == (6, 11)  # the top rows, unchanged
    for a, e in zip(got, expected):
        assert a.strides == e.strides and np.array_equal(a.view(np.uint64), e.view(np.uint64))


@pytest.mark.parametrize("columns", range(1, 13))
def test_orthonormality_windows_report_every_entry(columns, monkeypatch):
    # V is orthonormal but for one overlap (a, b), which alone sets max |V^T V - I|
    m = 11
    q = np.linalg.qr(np.random.default_rng(columns).normal(size=(m, m)))[0]
    d, e, energies = np.zeros(m), np.zeros(m - 1), np.zeros(m)  # T V - V Lambda is 0
    monkeypatch.setattr(evolution, "CONTRACT_ELEMENTS", columns * m)
    for a in range(m):
        for b in range(a, m):
            v = q.copy()
            v[:, b] += 1e-3 * q[:, a]  # a == b scales the column
            gram = v.T @ v - np.eye(m)
            expected = np.max(np.abs(gram))
            assert expected == pytest.approx(np.abs(gram[a, b]), rel=1e-9), (a, b)
            got = evolution._contract_residuals(d, e, energies, v)[1]
            assert got == pytest.approx(expected, rel=1e-12), (a, b)
    v[0, 0] = np.nan
    assert np.isnan(evolution._contract_residuals(d, e, energies, v)[1])


@pytest.mark.parametrize("columns", [1, 2, 3, 4, 10, 11, 12])
def test_residual_windows_report_every_row(columns, monkeypatch):
    # each row's residual is distinct, so any row left out changes the max;
    # likewise each column's, so any window left out does
    m = 11
    rng = np.random.default_rng(columns)
    d, e, energies = rng.normal(size=m), rng.normal(size=m - 1), rng.normal(size=m)
    vectors = rng.normal(size=(m, m))
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    # the square V, then a (m, k) V_k of kept modes: a window of `columns`
    # columns holds columns * m entries
    monkeypatch.setattr(evolution, "CONTRACT_ELEMENTS", columns * m)
    for k in (m, 4):
        if k < m:
            energies, vectors = rng.normal(size=k), rng.normal(size=(m, k))
        for worst in [np.s_[row] for row in range(m)] + [np.s_[:, col] for col in range(k)]:
            v = vectors.copy()
            v[worst] *= 1e3
            expected = np.max(np.abs(t @ v - v * energies))
            got = evolution._contract_residuals(d, e, energies, v)[0]
            assert got == pytest.approx(expected, rel=1e-12), (k, worst)


def test_a_window_never_changes_the_reconstruction_bits(monkeypatch):
    spec, n = HamiltonianSpec.two_axis(1.0), 200
    even = sector_bands(spec, n)[0]
    seen = []
    contracts = evolution._contract_residuals
    monkeypatch.setattr(evolution, "_contract_residuals",
                        lambda *args: seen.append(args) or contracts(*args))
    hermitian_eigen(spec, make_all_down(n))  # V_k: the kept columns of V, F-ordered
    check_all_modes(even)  # V itself, grown in place from the fold's top rows, C-ordered
    d, e = even.diagonal, even.off_diagonal
    (_, _, *kept), (_, _, *square) = seen
    assert square[1].shape == (even.dim, even.dim) and square[1].flags.c_contiguous
    assert kept[1].shape[1] < even.dim and kept[1].flags.f_contiguous
    for energies, vectors in (square, kept):
        m, k = vectors.shape
        residuals = []
        for columns in range(1, k + 1):
            monkeypatch.setattr(evolution, "CONTRACT_ELEMENTS", columns * m)
            residuals.append(contracts(d, e, energies, vectors))
        reconstruction, ortho = np.array(residuals).T
        assert np.array_equal(reconstruction.view(np.uint64),
                              np.full(k, reconstruction[0]).view(np.uint64)), k
        # GEMM blocking moves the last bits of V^T V with the window
        assert np.ptp(ortho) <= 1e-15, k


# peak of a solve at m = 1001, in m^2 doubles, from a state that keeps every
# mode: V (1), the solver's own arrays, and the contracts' windows (about
# 0.03); eigh takes the dense T. A fold's solve holds its half-height vectors
# (0.5) and its solver's arrays, then grows them into V in place. From
# all-down, where it never forms V, only the kept (m, k) V_k is added.
SOLVE_BUDGET = {
    ("fold-svd", "full weight"): 1.15, ("fold-eigh", "full weight"): 1.15,
    ("svd", "full weight"): 1.8, ("eigh", "full weight"): 2.05,
    ("fold-svd", "all-down"): 0.8, ("fold-eigh", "all-down"): 1.05,
}


@pytest.mark.parametrize("route, state", [  # a full-weight case has the route's name
    pytest.param(route, state, id=route if state == "full weight" else f"{route}-{state}")
    for route, state in sorted(SOLVE_BUDGET)])
def test_solve_band_memory_budget(route, state):
    # the contracts form no (m, m) array: the one V^T V used to add 1 m^2
    band = route_band(route, 1001)
    x = full_weight(band) if state == "full weight" else all_down(band)
    tracemalloc.start()
    try:
        evolution._kept_modes(band, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= SOLVE_BUDGET[route, state] * band.dim**2 * 8


# bands with a zero diagonal, which solve_band takes to the SVD of their bidiagonal half
CHIRAL_SPECS = {
    "two-axis": HamiltonianSpec.two_axis(1.0),
    "general": HamiltonianSpec(mu=0.8, chi=-0.8, gamma=0.3, f_coeffs=()),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 13, 64, 200, 1000])
@pytest.mark.parametrize("model", sorted(CHIRAL_SPECS))
def test_zero_diagonal_band_is_solved_by_svd(model, n, monkeypatch):
    svd, solved_by_svd = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a: solved_by_svd.append(a.shape) or svd(a))
    for b in sector_bands(CHIRAL_SPECS[model], n):
        m = b.dim
        assert not np.any(b.diagonal)
        solved_by_svd.clear()
        energies, vectors = eigenbasis(b)
        # at even N a band of odd m folds into halves of (m + 1) // 2 and m // 2
        halves = [(m + 1) // 2, m // 2] if n % 2 == 0 and m % 2 else [m]
        assert solved_by_svd == [((k + 1) // 2, k // 2) for k in halves if k > 1]
        reference = np.linalg.eigh(tridiagonal(b.diagonal, b.off_diagonal))[0]
        assert np.array_equal(energies, -energies[::-1])
        assert np.max(np.abs(energies - reference)) <= (
            sys.float_info.epsilon * m * np.max(np.abs(reference)))
        # the null mode, (u0, 0) in even/odd sub-index order, exactly when m is odd
        assert np.count_nonzero(energies == 0) == m % 2
        if m % 2:
            assert not np.any(vectors[1::2, m // 2])


@pytest.mark.parametrize("mu", [1.0, -0.37])
@pytest.mark.parametrize("n", [2000, 2001])
def test_one_axis_sectors_have_the_exact_energies(n, mu):
    # mu Sx^2 has the energies mu k^2, k = -N/2..N/2; a parity sector of size
    # m holds k = N/2 - m + 1..N/2: 0..N/2 and 1..N/2 at even N, 1/2..N/2 in
    # either sector at odd N. Even N takes the fold route, odd N eigh.
    bound = 2.0 * sys.float_info.epsilon * abs(mu) * (n / 2.0) ** 2  # 2 eps ||H||
    for b in sector_bands(HamiltonianSpec.one_axis(mu), n):
        energies, _, signs = solve_band(b)
        assert (signs is not None) == (n % 2 == 0) and np.any(b.diagonal)
        k = n / 2.0 - np.arange(b.dim)
        assert np.max(np.abs(energies - np.sort(mu * k * k))) <= bound


EVEN_F = HamiltonianSpec(mu=0.4, chi=-0.9, gamma=1.3, f_coeffs=(0.3, 0.0, 0.2))

# (spec, N, whether the even and the odd band fold)
FOLDS = {
    "one-axis even N": (HamiltonianSpec.one_axis(1.0), 20, [True, True]),
    "one-axis odd N": (HamiltonianSpec.one_axis(1.0), 21, [False, False]),
    # the odd band has m = 10: a zero diagonal of even size keeps the SVD
    "two-axis even N": (HamiltonianSpec.two_axis(1.0), 20, [True, False]),
    "two-axis odd N": (HamiltonianSpec.two_axis(1.0), 21, [False, False]),
    "one-axis-field even N": (HamiltonianSpec.one_axis_field(1.0, 0.7), 20, [False, False]),
    "general odd f": (HamiltonianSpec(mu=0.4, chi=-0.9, gamma=1.3, f_coeffs=(0.3, 0.7, 0.2)),
                      20, [False, False]),
    "general even f": (EVEN_F, 20, [True, True]),
    "general even f odd N": (EVEN_F, 21, [False, False]),
}


def spy_on_fold(monkeypatch):
    """The list to which each `_folded_eigh` call appends its band size."""
    fold, folded = evolution._folded_eigh, []
    monkeypatch.setattr(evolution, "_folded_eigh",
                        lambda d, e: folded.append(d.size) or fold(d, e))
    return folded


@pytest.mark.parametrize("case", sorted(FOLDS))
def test_exactly_palindromic_bands_fold(case, monkeypatch):
    spec, n, expected = FOLDS[case]
    folded = spy_on_fold(monkeypatch)
    routes = []
    for b in sector_bands(spec, n):
        folded.clear()
        solve_band(b)
        routes.append(folded == [b.dim])
    assert routes == expected


def assert_eigenpairs_match_eigh(b):
    """solve_band's eigenvalues against eigh of the dense band, and its
    residual, within eps m ||T||."""
    energies, vectors = eigenbasis(b)
    reference = np.linalg.eigh(tridiagonal(b.diagonal, b.off_diagonal))[0]
    bound = sys.float_info.epsilon * b.dim * max(np.max(np.abs(reference)), 1.0)
    assert np.max(np.abs(energies - reference)) <= bound
    assert evolution._contract_residuals(
        b.diagonal, b.off_diagonal, energies, vectors)[0] <= bound


@pytest.mark.parametrize("m", range(1, 13))
def test_folded_small_bands_match_eigh(m, monkeypatch):
    folded = spy_on_fold(monkeypatch)
    rng = np.random.default_rng(m)
    half_d, half_e = rng.normal(size=(m + 1) // 2), rng.normal(size=m // 2)
    d = np.concatenate([half_d, half_d[:m // 2][::-1]])
    e = np.concatenate([half_e, half_e[:(m - 1) // 2][::-1]])
    bands = [band(d, e), band(d, np.abs(e)), band(d, -np.abs(e))]  # both signs of e[m//2 - 1]
    if m % 2:
        bands.append(band(np.zeros(m), e))  # two chiral halves
    for b in bands:
        assert_eigenpairs_match_eigh(b)
    assert folded == [m] * len(bands)


@pytest.mark.parametrize("n", [64, 200, 1000, 2000, 2002])
@pytest.mark.parametrize("model", ["one-axis", "two-axis"])
def test_folded_sector_bands_match_eigh(model, n):
    spec = {"one-axis": HamiltonianSpec.one_axis(1.0), "two-axis": HamiltonianSpec.two_axis(1.0)}
    folded = [b for b in sector_bands(spec[model], n)
              if evolution._folds(b.diagonal, b.off_diagonal)]
    assert len(folded) == (2 if model == "one-axis" else 1)  # two-axis: the band of odd m
    for b in folded:
        assert_eigenpairs_match_eigh(b)


@pytest.mark.parametrize("model", ["one-axis", "two-axis"])
def test_mode_cut_moves_each_state_by_at_most_sqrt_m_eps(model):
    n = 2000
    spec = {"one-axis": HamiltonianSpec.one_axis(1.0),
            "two-axis": HamiltonianSpec.two_axis(1.5 / n)}[model]
    initial = make_dicke_state(n, 1)  # odd: only the odd sector is solved
    times = time_grid(10.0, 0.5)[:]
    cut = hermitian_eigen(spec, initial)
    odd = sector_bands(spec, n)[1]
    energies, vectors = eigenbasis(odd)
    x = odd.gauge().conj() * initial.amplitudes[odd.indices]
    uncut = evolution.Propagator(odd, energies, vectors, x.real @ vectors, x.imag @ vectors)
    assert cut.dim == uncut.modes == odd.dim and cut.modes < cut.dim
    diff = (evolution.propagate(cut, times).amplitudes
            - evolution.propagate(uncut, times).amplitudes)
    assert np.max(np.linalg.norm(diff, axis=1)) <= math.sqrt(odd.dim) * sys.float_info.epsilon


def test_modes_counts_the_kept_modes():
    n = 2000  # evolve-large: two-axis with gamma in [1, 2] / N, from all-down
    large = hermitian_eigen(HamiltonianSpec.two_axis(1.5 / n), make_all_down(n))
    assert type(large.modes) is int and large.dim == 1001 and large.modes < large.dim
    for omega in (0.1, 1.0, 5.0):  # evolve-long: one-axis-field at N=50, mu=1
        long = hermitian_eigen(HamiltonianSpec.one_axis_field(1.0, omega), make_all_down(50))
        assert long.modes == long.dim == 26


def test_a_dropped_defective_column_fails_the_capture_residual(monkeypatch):
    # zero the mode that holds most of all-down: the zero column has no weight
    # and is dropped, so both contracts pass on the kept modes
    spec, initial = HamiltonianSpec.two_axis(1.0), make_all_down(10)
    even = sector_bands(spec, 10)[0]
    x = even.gauge().conj() * initial.amplitudes[even.indices]
    solve = evolution.solve_band

    def zero_largest(b):
        energies, vectors, signs = solve(b)
        assert signs is None  # the even band, m = 6, has a zero diagonal: not folded
        vectors[:, np.argmax(np.abs(x @ vectors))] = 0.0
        return energies, vectors, signs

    monkeypatch.setattr(evolution, "solve_band", zero_largest)
    with pytest.raises(NumericalError, match="capture residual"):
        hermitian_eigen(spec, initial)


def test_contracts_see_only_the_kept_modes(monkeypatch):
    n = 2000  # evolve-large: two-axis with gamma in [1, 2] / N, from all-down
    shapes, contracts = [], evolution._contract_residuals
    monkeypatch.setattr(evolution, "_contract_residuals",
                        lambda *args: shapes.append(args[-1].shape) or contracts(*args))
    large = hermitian_eigen(HamiltonianSpec.two_axis(1.5 / n), make_all_down(n))
    assert large.modes < large.dim == 1001
    assert shapes == [(1001, large.modes)]


@pytest.mark.parametrize("n", [2, 3, 50, 401, 2000])
@pytest.mark.parametrize("model", ["one-axis", "one-axis-field", "two-axis"])
def test_kept_modes_capture_all_down_and_one_excitation(model, n):
    # the capture residual stays within 4 sqrt(m) eps, or hermitian_eigen raises
    for initial, parity in ((make_all_down(n), 0), (make_dicke_state(n, 1), 1)):
        assert hermitian_eigen(SECTOR_SPECS[model], initial).band.parity == parity


@pytest.mark.parametrize("n", [1, 2, 3, 13, 64, 200])
@pytest.mark.parametrize("model", sorted(SECTOR_SPECS))
def test_sector_path_matches_dense(model, n):
    # error model eps * N^2 * max(1, ||H|| t) against the dense complex eigh
    spec = SECTOR_SPECS[model]
    times = np.array([0.0, 0.7, 3.1])
    tol = error_model(spec, n, times[-1])
    rng = np.random.default_rng(n)
    rng.normal(size=(2, n + 1))  # the dropped two-parity case's draws: the odd state is kept
    odd, _ = make_state(n, np.where(np.arange(n + 1) % 2, rng.normal(size=n + 1), 0.0))
    for initial, parity in ((make_all_down(n), 0), (odd, 1)):
        assert hermitian_eigen(spec, initial).band.parity == parity
        got = evolve_states(spec, initial, times).amplitudes
        assert np.max(np.abs(got - dense_evolve(spec, initial, times))) <= tol


def test_all_down_diagonalizes_only_the_even_sector(monkeypatch):
    solved = []
    original = evolution.solve_band

    def spy(b):
        solved.append((b.parity, b.dim))
        return original(b)

    monkeypatch.setattr(evolution, "solve_band", spy)
    for n in (1, 2, 7):
        solved.clear()
        trajectory(SECTOR_SPECS["general"], n, 1.0, 0.5)
        assert solved == [(0, n // 2 + 1)]


def test_traced_layers_exist_and_trajectory_calls_each_once(monkeypatch):
    # the benchmark's tracer times these functions and reads Propagator.dim
    for module, name in [(hamiltonians, "build_hamiltonian"), (evolution, "hermitian_eigen"),
                         (evolution, "propagate"),
                         (evolution, "trajectory")]:
        assert callable(getattr(module, name))
    calls = []

    def spy(name):
        original = getattr(evolution, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(evolution, name, counted)

    spy("hermitian_eigen")
    spy("propagate")
    blocks = trajectory(H1, 8, 1.0, 0.5)  # 3 times, one block
    assert calls == ["hermitian_eigen"]  # the call solves
    list(blocks)
    assert calls == ["hermitian_eigen", "propagate"]  # drawing a block propagates it
    calls.clear()
    monkeypatch.setattr(evolution, "BLOCK_AMPLITUDES", 9)  # one row per block at N=8
    list(trajectory(H1, 8, 1.0, 0.5))
    assert calls == ["hermitian_eigen"] + ["propagate"] * 3
    dim = hermitian_eigen(H1, make_all_down(8)).dim
    assert type(dim) is int and dim == 5


@pytest.mark.parametrize("n", [7, 50])
def test_evolve_blocks_solve_once_and_match_the_grid(n, monkeypatch):
    spec = HamiltonianSpec.one_axis_field(1.0, 0.7)
    grid = time_grid(2.0, 0.01)  # 201 times
    times = grid[:]
    solved = []
    original = evolution.hermitian_eigen

    def counted(*args):
        solved.append(args)
        return original(*args)

    monkeypatch.setattr(evolution, "hermitian_eigen", counted)
    monkeypatch.setattr(evolution, "BLOCK_AMPLITUDES", 40 * (n + 1))
    whole = evolve_states(spec, make_all_down(n), times).amplitudes
    solved.clear()
    blocks = list(evolve_blocks(spec, make_all_down(n), grid))  # forms each block's times
    assert len(solved) == 1
    assert [len(t) for t, _ in blocks] == [40] * 5 + [1]
    assert np.array_equal(np.concatenate([t for t, _ in blocks]), times)
    stacked = np.concatenate([s.amplitudes for _, s in blocks])
    # the last, 1-row block runs through GEMV, whose sums may round differently
    np.testing.assert_allclose(stacked, whole, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n, spec, rows", [
    (50, HamiltonianSpec.one_axis_field(1.0, 0.5), 1024),  # BLOCK_ROWS
    (2000, HamiltonianSpec.two_axis(1.5 / 2000), 131),  # BLOCK_AMPLITUDES // (N+1)
])
def test_rows_per_block(n, spec, rows):
    times, states = next(trajectory(spec, n, 20.0, 0.01))  # 2001 times
    assert len(times) == len(states.entries) == rows


@pytest.mark.parametrize("n, spec, t_max, blocks", [
    (50, HamiltonianSpec.one_axis_field(1.0, 0.5), 200.0, 20),  # evolve-long
    (2000, HamiltonianSpec.two_axis(1.5 / 2000), 10.0, 8),  # evolve-large
])
def test_phase_table_agrees_with_the_direct_route(n, spec, t_max, blocks):
    # the blocks of a TimeGrid share the first block's phase table; the same
    # times are evaluated directly, block by block
    grid = time_grid(t_max, 0.01)
    propagator = hermitian_eigen(spec, make_all_down(n))
    drawn = 0
    for times, a in evolve_blocks(spec, make_all_down(n), grid):
        b = evolution.propagate(propagator, times)
        if drawn == 0:
            assert np.array_equal(a.entries, b.entries)  # the first block is the direct one
        assert np.array_equal(a.entries[0], b.entries[0])  # as is each block's first row
        gap = np.max(np.abs(a.entries - b.entries), axis=1)
        assert np.all(gap <= 4 * error_model(spec, n, times)), drawn
        drawn += 1
    assert drawn == blocks


@pytest.mark.parametrize("model", sorted(SECTOR_SPECS))
def test_taylor_reference_matches_dense(model):
    spec, n = SECTOR_SPECS[model], 7
    times = np.array([0.0, 0.7, 3.1])
    for initial, parity in ((make_all_down(n), 0), (make_dicke_state(n, 1), 1)):
        dense = dense_evolve(spec, initial, times)[:, parity::2]
        assert np.max(np.abs(taylor_evolve(spec, initial, times) - dense)) <= error_model(
            spec, n, times[-1])


@pytest.mark.parametrize("n", [2000, 2001])
def test_large_two_axis_agrees_with_the_taylor_reference(n):
    # evolve-large's spec: N = 2000 is folded, each half solved by an SVD;
    # N = 2001 is solved unfolded, by the SVD of its chiral band
    spec = HamiltonianSpec.two_axis(1.5 / n)
    band = sector_bands(spec, n)[0]
    assert evolution._folds(band.diagonal, band.off_diagonal) == (n % 2 == 0)
    assert evolution._is_chiral(band.diagonal)
    times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    got = evolution.propagate(hermitian_eigen(spec, make_all_down(n)), times).entries
    gap = np.linalg.norm(got - taylor_evolve(spec, make_all_down(n), times), axis=1)
    assert np.all(gap <= error_model(spec, n, times)), gap / error_model(spec, n, times)


def test_evolve_blocks_refuses_a_stack_and_non_finite_times():
    with pytest.raises(ValueError, match="one initial state"):
        evolve_blocks(H1, evolve_states(H1, make_all_down(2), [0.0, 1.0]), time_grid(1.0, 1.0))
    # a TimeGrid that `time_grid` would refuse: `propagate` refuses its first block
    with pytest.raises(ValueError, match="non-finite"):
        next(evolve_blocks(H1, make_all_down(2), evolution.TimeGrid(np.nan, 2)))


@pytest.mark.parametrize("size, blocks", [(1, 1), (40, 1), (41, 2), (201, 6)])
def test_evolve_blocks_hand_propagate_a_table_beyond_one_block(size, blocks, monkeypatch):
    # only a grid of more than one block shares its first block's phase table
    n, given, original = 7, [], evolution.propagate

    def spy(propagator, times, table=None):
        given.append(table)
        return original(propagator, times, table)

    monkeypatch.setattr(evolution, "propagate", spy)
    monkeypatch.setattr(evolution, "BLOCK_AMPLITUDES", 40 * (n + 1))  # 40 rows at N=7
    list(evolve_blocks(H1, make_all_down(n), evolution.TimeGrid(0.01, size)))
    assert len(given) == blocks
    if blocks == 1:
        assert given == [None]
    else:
        cos, sin = given[0]
        assert cos.shape == sin.shape == (40, hermitian_eigen(H1, make_all_down(n)).modes)
        assert all(table is given[0] for table in given)


def test_trajectory_builds_no_dense_matrix():
    n = 600
    tracemalloc.start()
    try:
        list(trajectory(HamiltonianSpec.two_axis(1.0 / n), n, 0.02, 0.01))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * (n + 1) ** 2  # one dense complex (N+1)^2 matrix


def test_trajectory_grid_and_parity():
    times = time_grid(np.pi, np.pi / 100)[:]
    assert len(times) == 101
    assert times[-1] == pytest.approx(np.pi)
    amps = evolve_states(H1, make_all_down(2), times).amplitudes
    assert amps.shape == (101, 3)
    # every row is an even state: no weight on odd excitation numbers
    assert np.all(np.sum(np.abs(amps[:, 1::2]) ** 2, axis=1) <= 1e-12)
    assert np.all(np.abs(np.linalg.norm(amps, axis=1) - 1) <= 1e-12)


def test_trajectory_covers_t_max():
    times = time_grid(1.0, 0.3)[:]
    assert times[-1] >= 1.0 - 1e-12
    assert len(times) == 5


def test_invalid_grid():
    with pytest.raises(ValueError):
        time_grid(0.0, 0.1)
    with pytest.raises(ValueError):
        time_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        time_grid(1.0, 2.0)


def test_transverse_means_vanish_with_field():
    states = evolve_states(HamiltonianSpec.one_axis_field(1.0, 2.0), make_all_down(10),
                         time_grid(5.0, 0.05)[:])
    m = collective_moments(states)
    assert np.max(np.abs(m.sp_mean.real)) <= 1e-10
    assert np.max(np.abs(m.sp_mean.imag)) <= 1e-10


def test_energy_conservation():
    for spec in (H1, HamiltonianSpec.two_axis(1.0)):
        h = build_hamiltonian(spec, 8)
        c = evolve_states(spec, make_all_down(8), time_grid(10.0, 0.25)[:]).amplitudes
        energies = np.einsum("ti,ij,tj->t", c.conj(), h, c).real
        assert max(energies) - min(energies) <= 1e-10


def test_rk4_cross_check():
    spec = HamiltonianSpec.two_axis(1.0)
    h = build_hamiltonian(spec, 6)
    initial = make_all_down(6)
    exact = evolve_to(spec, initial, 0.5)
    stepped = rk4_evolve(h, make_all_down(6), 0.5, 4000)
    np.testing.assert_allclose(stepped, exact.amplitudes, atol=1e-9)
