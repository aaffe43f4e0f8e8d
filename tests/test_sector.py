"""The parity-sector states that `evolution.propagate` gives and the analysis reads.

A propagator solves the one parity sector its initial state occupies (the
even one from all-down, the odd one from the Dicke state |1>) and gives a
`SymmetricState` that holds only the sector's m entries per row. Its
analysis must agree with that of the full (T, N+1) state built from it,
within the error model; a row must give the bits it gives alone; a lost
norm must stay a numerical error; and a state of both parities, evolved
through the dense H, must keep its n -> n+1 cross moments. Nothing on the
`evolve` or `scan` path may build a (T, N+1) amplitude array.
"""

import dataclasses

import numpy as np
import pytest
from helpers import SECTOR_SPECS, dense_evolve, error_model, evolve_states, make_state

from spinsqueeze import cli, evolution
from spinsqueeze.dicke import (
    MOMENT_FIELDS,
    SymmetricState,
    collective_moments,
    collective_operators,
    make_all_down,
    make_dicke_state,
)
from spinsqueeze.errors import NumericalError
from spinsqueeze.pairwise import analyse

TIMES = np.linspace(0.0, 3.0, 13)


def full_of(states):
    """The same states as full (T, N+1) amplitudes."""
    return SymmetricState(states.n_qubits, states.amplitudes)


@pytest.mark.parametrize("excitations", [0, 1], ids=["all-down", "odd-dicke-1"])
@pytest.mark.parametrize("n", [2, 3, 7, 10, 64])
@pytest.mark.parametrize("model", sorted(SECTOR_SPECS))
def test_sector_analysis_matches_the_full_state(model, n, excitations):
    spec = SECTOR_SPECS[model]
    states = evolve_states(spec, make_dicke_state(n, excitations), TIMES)
    assert states.parity == excitations
    assert states.entries.shape == (TIMES.size, (n + 2 - excitations) // 2)
    sector, full = analyse(states), analyse(full_of(states))
    # error model eps * N^2 * max(1, ||H|| t), times max(1, |value|)
    model_tol = error_model(spec, n, TIMES)
    for column, values in sector.items():
        expected = full[column]
        if values.dtype.kind not in "fc":  # branch and degenerate_flag tokens
            assert np.array_equal(values, expected), column
            continue
        assert np.array_equal(np.isnan(values), np.isnan(expected)), column
        finite = ~np.isnan(expected)
        tol = (model_tol * np.maximum(1.0, np.abs(expected)))[finite]
        assert np.all(np.abs(values - expected)[finite] <= tol), column


@pytest.mark.parametrize("excitations", [0, 1], ids=["all-down", "odd-dicke-1"])
@pytest.mark.parametrize("n", [3, 10, 64])
def test_a_sector_row_gives_the_bits_it_gives_alone(n, excitations):
    states = evolve_states(SECTOR_SPECS["two-axis"], make_dicke_state(n, excitations), TIMES)
    table, m = analyse(states), collective_moments(states)
    for k, row in enumerate(states.entries):
        alone = analyse(SymmetricState(n, row[None], states.parity))
        for column, values in table.items():
            assert values[k:k + 1].tobytes() == alone[column].tobytes(), (column, k)
        single = collective_moments(SymmetricState(n, row, states.parity))
        for name in MOMENT_FIELDS:
            assert np.asarray(getattr(m, name)[k]).tobytes() == \
                np.asarray(getattr(single, name)).tobytes(), (name, k)


def leaky(propagator):
    """`propagator` with eigenvectors scaled by 1+1e-6: its states lose their norm."""
    return dataclasses.replace(propagator, eigenvectors=propagator.eigenvectors * (1 + 1e-6))


def test_a_lost_norm_on_sector_rows_is_a_numerical_error(monkeypatch, capsys):
    propagator = evolution.hermitian_eigen(SECTOR_SPECS["two-axis"], make_all_down(6))
    assert propagator.band.parity == 0
    with pytest.raises(NumericalError, match="lost its norm"):
        evolution.propagate(leaky(propagator), TIMES)
    entries = evolution.propagate(propagator, TIMES).entries * (1 + 1e-6)
    with pytest.raises(ValueError, match="not normalized"):
        SymmetricState(6, entries, 0)

    original = evolution.propagate
    monkeypatch.setattr(evolution, "propagate", lambda p, times, table=None: original(leaky(p), times, table))
    argv = ["evolve", "--model", "two-axis", "--n", "6", "--t-max", "1", "--dt", "0.5"]
    assert cli.main(argv + ["--out", "-"]) == 3
    assert "lost its norm" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 3, 7, 10])
def test_a_state_of_both_parities_keeps_its_cross_moments(n):
    rng = np.random.default_rng(2100 + n)
    initial, _ = make_state(n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
    states = SymmetricState(n, dense_evolve(SECTOR_SPECS["general"], initial, TIMES))
    assert states.parity is None and states.entries.shape == (TIMES.size, n + 1)
    m = collective_moments(states)
    sx, sy, sz, sp, _ = collective_operators(n)
    c = states.amplitudes

    def expectation(op):
        return np.einsum("ti,ij,tj->t", c.conj(), op, c)

    tol = 1e-13 * n * n
    for got, op in ((m.sp_mean, sp), (m.anti_sp_sz, sp @ sz + sz @ sp),
                    (m.sp_mean.real, sx), (m.sp_mean.imag, sy)):
        assert np.max(np.abs(expectation(op))) > 1e-3  # the cross moments do not vanish
        assert np.max(np.abs(got - expectation(op))) <= tol


def test_evolve_and_scan_build_no_full_stack(monkeypatch, tmp_path):
    # every stack on the path is a sector state, and no caller reads its full amplitudes
    stacks, full_reads = [], []
    post_init = SymmetricState.__post_init__
    amplitudes = SymmetricState.amplitudes

    def recording_post_init(self):
        post_init(self)
        if self.entries.ndim == 2:
            stacks.append((self.n_qubits, self.parity, self.entries.shape[1]))

    def recording_amplitudes(self):
        if self.parity is not None:
            full_reads.append(self.entries.shape)
        return amplitudes.fget(self)

    monkeypatch.setattr(SymmetricState, "__post_init__", recording_post_init)
    monkeypatch.setattr(SymmetricState, "amplitudes", property(recording_amplitudes))
    grid = ["--t-max", "1", "--dt", "0.25", "--out", str(tmp_path / "out.csv")]
    runs = [["evolve", "--model", "two-axis", "--n", "64", "--gamma", "0.1", *grid],
            ["evolve", "--model", "general", "--n", "7", "--chi", "0.4", "--f-coeffs", "0,0.7",
             *grid],
            ["scan", "--model", "one-axis-field", "--n", "2,5", "--omega", "0.5,2", *grid]]
    for argv in runs:
        assert cli.main(argv) == 0
    assert {(n, m) for n, _, m in stacks} == {(64, 33), (7, 4), (2, 2), (5, 3)}
    assert all(parity == 0 for _, parity, _ in stacks)
    assert full_reads == []
