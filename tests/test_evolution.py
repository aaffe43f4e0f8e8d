"""Sector eigendecomposition and propagation, against the dense reference."""

import sys
import tracemalloc

import numpy as np
import pytest

from spinsqueeze import evolution
from spinsqueeze.dicke import (
    PARITY_TOL,
    SymmetricState,
    collective_moments,
    make_all_down,
    make_state,
)
from spinsqueeze.errors import NumericalError
from spinsqueeze.evolution import (
    evolve_grid,
    hermitian_eigen,
    rk4_evolve,
    solve_band,
    time_grid,
    trajectory,
)
from spinsqueeze.hamiltonians import (
    HamiltonianSpec,
    SectorBand,
    build_hamiltonian,
    sector_bands,
)

H1 = HamiltonianSpec.one_axis(1.0)


def band(diagonal, off_diagonal=None):
    diagonal = np.asarray(diagonal, dtype=float)
    if off_diagonal is None:
        off_diagonal = np.zeros(len(diagonal) - 1)
    return SectorBand(2 * len(diagonal), 0, diagonal, np.asarray(off_diagonal, float), 1.0)


def evolve_to(prop, initial, t):
    """The state at one time."""
    return SymmetricState(initial.n_qubits, evolve_grid(prop, initial, [t]).amplitudes[0])


def test_diagonal_eigen():
    prop = solve_band(band([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(prop.eigenvalues, [1, 2, 3])
    np.testing.assert_allclose(np.abs(prop.eigenvectors), np.eye(3), atol=1e-14)


def test_one_axis_n2_spectrum():
    energies = np.concatenate([solve_band(b).eigenvalues for b in sector_bands(H1, 2)])
    np.testing.assert_allclose(np.sort(energies), [0, 1, 1], atol=1e-14)


def test_random_hermitian_contracts():
    rng = np.random.default_rng(2)
    b = band(rng.normal(size=50), rng.normal(size=49))
    prop = solve_band(b)
    v, e = prop.eigenvectors, prop.eigenvalues
    assert np.max(np.abs(v @ np.diag(e) @ v.T - b.tridiagonal())) <= 1e-10
    assert np.max(np.abs(v.T @ v - np.eye(50))) <= 1e-11


def test_evolve_t0_is_identity():
    initial = make_all_down(4)
    np.testing.assert_allclose(
        evolve_to(hermitian_eigen(H1, initial), initial, 0.0).amplitudes,
        initial.amplitudes,
        atol=1e-14,
    )


def test_one_axis_n2_analytic_amplitudes():
    prop = hermitian_eigen(H1, make_all_down(2))
    for t in np.linspace(0, 2 * np.pi, 17):
        state = evolve_to(prop, make_all_down(2), t)
        expected = np.array(
            [(np.exp(-1j * t) + 1) / 2, 0, (np.exp(-1j * t) - 1) / 2]
        )
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_forward_backward_roundtrip():
    spec = HamiltonianSpec(mu=0.4, chi=-0.9, gamma=1.3, f_coeffs=(0, 0.7))
    initial = make_all_down(7)
    prop = hermitian_eigen(spec, initial)
    back = evolve_to(prop, evolve_to(prop, initial, 2.3), -2.3)
    np.testing.assert_allclose(back.amplitudes, initial.amplitudes, atol=1e-12)


def test_dimension_mismatch():
    prop = hermitian_eigen(H1, make_all_down(4))
    with pytest.raises(ValueError):
        evolve_to(prop, make_all_down(5), 1.0)


def test_unsolved_sector_is_refused():
    prop = hermitian_eigen(H1, make_all_down(4))  # the even sector only
    odd, _ = make_state(4, [0, 1, 0, 0, 0])
    with pytest.raises(ValueError, match="no propagator"):
        evolve_to(prop, odd, 1.0)


def test_non_finite_times_are_refused():
    prop = hermitian_eigen(H1, make_all_down(2))
    for times in ([0.0, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="non-finite time"):
            evolve_grid(prop, make_all_down(2), times)


def test_nan_eigenvalue_is_numerical_error(monkeypatch):
    eigh = np.linalg.eigh

    def nan_first(a):
        energies, vectors = eigh(a)
        energies[0] = np.nan
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", nan_first)
    with pytest.raises(NumericalError, match="residual nan"):
        solve_band(band([0.0, 1.0]))


SECTOR_SPECS = {
    "one-axis": HamiltonianSpec.one_axis(1.0),
    "one-axis-field": HamiltonianSpec.one_axis_field(1.0, 0.7),
    "two-axis": HamiltonianSpec.two_axis(1.0),
    "general": HamiltonianSpec(mu=0.4, chi=-0.9, gamma=1.3, f_coeffs=(0.3, 0.7, 0.2)),
}


def h_norm_bound(spec, n):
    """Upper bound on ||H||: perfbench's bound for mu, gamma and a linear
    field, plus chi Sy^2 and every power of f(Sz)."""
    j = n / 2.0
    return ((abs(spec.mu) + abs(spec.chi)) * j * j + abs(spec.gamma) * j * (j + 1.0)
            + sum(abs(coeff) * j**k for k, coeff in enumerate(spec.f_coeffs)))


@pytest.mark.parametrize("n", [1, 2, 3, 13, 64, 200])
@pytest.mark.parametrize("model", sorted(SECTOR_SPECS))
def test_sector_path_matches_dense(model, n):
    # error model eps * N^2 * max(1, ||H|| t) against the dense complex eigh
    spec = SECTOR_SPECS[model]
    times = np.array([0.0, 0.7, 3.1])
    tol = sys.float_info.epsilon * n * n * max(1.0, h_norm_bound(spec, n) * times[-1])
    energies, vectors = np.linalg.eigh(build_hamiltonian(spec, n).entries)
    rng = np.random.default_rng(n)
    mixed, _ = make_state(n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
    for initial in (make_all_down(n), mixed):
        c0 = vectors.conj().T @ initial.amplitudes
        dense = (vectors @ (np.exp(-1j * np.outer(energies, times)) * c0[:, None])).T
        prop = hermitian_eigen(spec, initial)
        assert [s.band.parity for s in prop.sectors] == ([0] if initial is not mixed else [0, 1])
        got = evolve_grid(prop, initial, times).amplitudes
        assert np.max(np.abs(got - dense)) <= tol


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


def test_trajectory_builds_no_dense_matrix():
    n = 600
    tracemalloc.start()
    try:
        trajectory(HamiltonianSpec.two_axis(1.0 / n), n, 0.02, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * (n + 1) ** 2  # one dense complex (N+1)^2 matrix


def test_trajectory_grid_and_parity():
    traj = trajectory(H1, 2, np.pi, np.pi / 100)
    assert len(traj) == 101
    assert traj.times[-1] == pytest.approx(np.pi)
    amps = traj.states.amplitudes
    assert amps.shape == (101, 3)
    # every row is an even state: no weight on odd excitation numbers
    assert np.all(np.sum(np.abs(amps[:, 1::2]) ** 2, axis=1) <= PARITY_TOL)
    assert np.all(np.abs(np.linalg.norm(amps, axis=1) - 1) <= 1e-12)


def test_trajectory_covers_t_max():
    traj = trajectory(H1, 2, 1.0, 0.3)
    assert traj.times[-1] >= 1.0 - 1e-12
    assert len(traj) == 5


def test_invalid_grid():
    with pytest.raises(ValueError):
        time_grid(0.0, 0.1)
    with pytest.raises(ValueError):
        time_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        time_grid(1.0, 2.0)


def test_transverse_means_vanish_with_field():
    traj = trajectory(HamiltonianSpec.one_axis_field(1.0, 2.0), 10, 5.0, 0.05)
    m = collective_moments(traj.states)
    assert np.max(np.abs(m.mean_sx)) <= 1e-10
    assert np.max(np.abs(m.mean_sy)) <= 1e-10


def test_energy_conservation():
    for spec in (H1, HamiltonianSpec.two_axis(1.0)):
        h = build_hamiltonian(spec, 8)
        traj = trajectory(spec, 8, 10.0, 0.25)
        c = traj.states.amplitudes
        energies = np.einsum("ti,ij,tj->t", c.conj(), h.entries, c).real
        assert max(energies) - min(energies) <= 1e-10


def test_rk4_cross_check():
    spec = HamiltonianSpec.two_axis(1.0)
    h = build_hamiltonian(spec, 6)
    initial = make_all_down(6)
    exact = evolve_to(hermitian_eigen(spec, initial), initial, 0.5)
    stepped = rk4_evolve(h, make_all_down(6), 0.5, 4000)
    np.testing.assert_allclose(stepped, exact.amplitudes, atol=1e-9)
