"""Eigendecomposition-based propagation."""

import numpy as np
import pytest

from spinsqueeze.dicke import PARITY_TOL, collective_moments, make_all_down
from spinsqueeze.errors import NumericalError
from spinsqueeze.evolution import (
    evolve_grid,
    evolve_to,
    hermitian_eigen,
    rk4_evolve,
    time_grid,
    trajectory,
)
from spinsqueeze.hamiltonians import HamiltonianSpec, HermitianMatrix, build_hamiltonian

H1 = HamiltonianSpec.one_axis(1.0)


def test_diagonal_eigen():
    prop = hermitian_eigen(HermitianMatrix(3, np.diag([1.0, 2.0, 3.0]).astype(complex)))
    np.testing.assert_allclose(prop.eigenvalues, [1, 2, 3])
    np.testing.assert_allclose(np.abs(prop.eigenvectors), np.eye(3), atol=1e-14)


def test_one_axis_n2_spectrum():
    prop = hermitian_eigen(build_hamiltonian(H1, 2))
    np.testing.assert_allclose(prop.eigenvalues, [0, 1, 1], atol=1e-14)


def test_random_hermitian_contracts():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    h = HermitianMatrix(50, (a + a.conj().T) / 2)
    prop = hermitian_eigen(h)
    v, e = prop.eigenvectors, prop.eigenvalues
    assert np.max(np.abs(v @ np.diag(e) @ v.conj().T - h.entries)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(50))) <= 1e-11


def test_evolve_t0_is_identity():
    prop = hermitian_eigen(build_hamiltonian(H1, 4))
    initial = make_all_down(4)
    np.testing.assert_allclose(
        evolve_to(prop, initial, 0.0).amplitudes, initial.amplitudes, atol=1e-14
    )


def test_one_axis_n2_analytic_amplitudes():
    prop = hermitian_eigen(build_hamiltonian(H1, 2))
    for t in np.linspace(0, 2 * np.pi, 17):
        state = evolve_to(prop, make_all_down(2), t)
        expected = np.array(
            [(np.exp(-1j * t) + 1) / 2, 0, (np.exp(-1j * t) - 1) / 2]
        )
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_forward_backward_roundtrip():
    spec = HamiltonianSpec(mu=0.4, chi=-0.9, gamma=1.3, f_coeffs=(0, 0.7))
    prop = hermitian_eigen(build_hamiltonian(spec, 7))
    initial = make_all_down(7)
    back = evolve_to(prop, evolve_to(prop, initial, 2.3), -2.3)
    np.testing.assert_allclose(back.amplitudes, initial.amplitudes, atol=1e-12)


def test_dimension_mismatch():
    prop = hermitian_eigen(build_hamiltonian(H1, 4))
    with pytest.raises(ValueError):
        evolve_to(prop, make_all_down(5), 1.0)


def test_non_finite_times_are_refused():
    prop = hermitian_eigen(build_hamiltonian(H1, 2))
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
        hermitian_eigen(HermitianMatrix(2, np.diag([0.0, 1.0]).astype(complex)))


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
    prop = hermitian_eigen(h)
    exact = evolve_to(prop, make_all_down(6), 0.5)
    stepped = rk4_evolve(h, make_all_down(6), 0.5, 4000)
    np.testing.assert_allclose(stepped, exact.amplitudes, atol=1e-9)
