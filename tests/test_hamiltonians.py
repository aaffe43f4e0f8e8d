"""Hamiltonian builder: matrix elements, structure, parity symmetry."""

import warnings

import numpy as np
import pytest

from spinsqueeze.dicke import collective_operators
from spinsqueeze.hamiltonians import (
    HamiltonianSpec,
    assemble_sectors,
    build_hamiltonian,
    parity_check,
    polynomial,
    sector_bands,
)


def test_one_axis_n2_matrix():
    # hand ladder-algebra expansion of Sx^2 for two qubits
    h = build_hamiltonian(HamiltonianSpec.one_axis(1.0), 2)
    expected = np.array([[0.5, 0, 0.5], [0, 1, 0], [0.5, 0, 0.5]])
    np.testing.assert_allclose(h, expected, atol=1e-14)


def test_two_axis_n2_matrix():
    h = build_hamiltonian(HamiltonianSpec.two_axis(1.0), 2)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 2] = 1j
    expected[2, 0] = -1j
    np.testing.assert_allclose(h, expected, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 50, 200])
def test_twist_is_symmetrized_product(n):
    # (S+^2 - S-^2)/2i = Sx Sy + Sy Sx, so a single gamma carries both forms
    sx, sy, _, sp, sm = collective_operators(n)
    twist = (sp @ sp - sm @ sm) / 2j
    assert np.max(np.abs(twist - (sx @ sy + sy @ sx))) <= 1e-12 * max(1.0, n**2)


def test_constant_f_gives_identity():
    h = build_hamiltonian(HamiltonianSpec(f_coeffs=(2.5,)), 4)
    np.testing.assert_allclose(h, 2.5 * np.eye(5), atol=1e-14)


def test_linear_f_is_sz_diagonal():
    h = build_hamiltonian(HamiltonianSpec(f_coeffs=(0.0, 2.0)), 4)
    np.testing.assert_allclose(h, np.diag(2.0 * (np.arange(5) - 2)), atol=1e-14)


def test_polynomial_is_polyval_bit_for_bit():
    # Horner's rule in numpy.polynomial's order, signed zeros included
    rng = np.random.default_rng(6)
    for _ in range(500):
        n = int(rng.integers(1, 2002))
        choices = (0.0, -0.0, rng.uniform(-1e3, 1e3), rng.normal() * 10.0 ** rng.integers(-8, 9))
        coeffs = tuple(float(choices[rng.integers(4)]) for _ in range(rng.integers(1, 8)))
        m = np.arange(n + 1) - n / 2.0
        expected = np.polynomial.polynomial.polyval(m, coeffs)
        assert polynomial(coeffs, m).tobytes() == expected.tobytes(), (n, coeffs)


def test_named_constructors():
    assert HamiltonianSpec.one_axis(1.5) == HamiltonianSpec(mu=1.5)
    assert HamiltonianSpec.one_axis_field(1.0, 2.0) == HamiltonianSpec(
        mu=1.0, f_coeffs=(0.0, 2.0)
    )
    assert HamiltonianSpec.two_axis(0.7) == HamiltonianSpec(gamma=0.7)


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        HamiltonianSpec(mu=float("nan"))


def test_overflowing_dense_matrix_is_refused():
    # mu Sx^2 overflows to inf on the diagonal, and inf - inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not Hermitian"):
            build_hamiltonian(HamiltonianSpec(mu=1e308), 4)


def test_dense_matrix_is_read_only():
    h = build_hamiltonian(HamiltonianSpec.two_axis(1.0), 3)
    assert h.dtype == complex and h.shape == (4, 4)
    with pytest.raises(ValueError):
        h[0, 0] = 1.0


@pytest.mark.parametrize("n", [2, 5, 8])
def test_pentadiagonal_and_hermitian(n):
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu, chi, gamma = rng.uniform(-10, 10, size=3)
        f = tuple(rng.uniform(-10, 10, size=3))
        h = build_hamiltonian(HamiltonianSpec(mu=mu, chi=chi, gamma=gamma, f_coeffs=f), n)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14
        i, j = np.indices(h.shape)
        assert np.all(h[np.abs(i - j) > 2] == 0)


@pytest.mark.parametrize(
    "spec",
    [
        HamiltonianSpec.one_axis(1.0),
        HamiltonianSpec.two_axis(1.0),
        HamiltonianSpec.one_axis_field(1.0, 2.0),
        HamiltonianSpec(mu=0.3, chi=-1.2, gamma=0.8, f_coeffs=(1.0, -2.0, 0.5)),
    ],
)
def test_parity_commutes(spec):
    assert parity_check(build_hamiltonian(spec, 6)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
def test_sector_bands_reassemble_the_dense_matrix(n):
    rng = np.random.default_rng(n)
    specs = [HamiltonianSpec.one_axis(-1.5), HamiltonianSpec.two_axis(0.7)]
    for _ in range(10):
        mu, chi, gamma = rng.uniform(-10, 10, size=3)
        f = tuple(rng.uniform(-10, 10, size=3))
        specs.append(HamiltonianSpec(mu=mu, chi=chi, gamma=gamma, f_coeffs=f))
    for spec in specs:
        bands = sector_bands(spec, n)
        assert [b.dim for b in bands] == [n // 2 + 1, (n + 1) // 2]
        assert all(np.all(b.off_diagonal >= 0) for b in bands)
        dense = build_hamiltonian(spec, n)
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(assemble_sectors(bands) - dense)) <= 1e-14 * scale


def test_named_models_have_exact_gauges():
    for spec, phase in [(HamiltonianSpec.one_axis(1.0), 1), (HamiltonianSpec.one_axis(-2.0), -1),
                        (HamiltonianSpec.two_axis(1.0), -1j), (HamiltonianSpec.two_axis(-1.0), 1j)]:
        (even, _) = sector_bands(spec, 9)
        assert np.array_equal(even.gauge(), [complex(phase) ** j for j in range(even.dim)])


def test_overflowing_band_is_refused():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        sector_bands(HamiltonianSpec(mu=1e308), 4)


@pytest.mark.parametrize("spec", [
    HamiltonianSpec(mu=1e308),
    HamiltonianSpec(gamma=1e308),
    HamiltonianSpec(f_coeffs=(1e308, 1e308, 1e308)),
    HamiltonianSpec(mu=-1e308, f_coeffs=(0.0, -1e308)),  # -inf + inf on the diagonal
], ids=["mu", "gamma", "f", "mu-and-f"])
def test_overflowing_band_is_refused_without_a_warning(spec):
    # the refusal is the only report: no numpy warning on the way to it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            sector_bands(spec, 6)
