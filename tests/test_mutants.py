"""Planted defects that `verify` must catch.

Each row plants one defect by monkeypatch on a route that `evolve` or the
analysis takes, and names the one suite that must report it: `verify
SUITE` exits 1 with at least one FAIL line, rather than passing or raising.
Each defect also records that it was reached, so a row whose defect is never
applied cannot pass. Each suite runs at its default sizes.
"""

import dataclasses

import numpy as np
import pytest

from spinsqueeze import cli, evolution, hamiltonians, pairwise, squeezing


def carry_the_wrong_way(monkeypatch, reached):
    """A later block's carried phase turns w by exp(+i lambda t): sin is
    negated in the one `_phases` call of a single nonzero time, the carry of
    `propagate`'s table route, so w becomes c wr - s wi + i (c wi + s wr)
    and keeps its norm."""
    phases = evolution._phases

    def mutant(times, energies):
        cos, sin = phases(times, energies)
        if times.size == 1 and times[0]:
            reached.append(times[0])
            sin = -sin
        return cos, sin

    monkeypatch.setattr(evolution, "_phases", mutant)


def z_frame_coupling(monkeypatch, reached):
    """`_z_frame_min` with the coupling 1.9 <[Sx, Sy]_+>/2 in place of 2.0."""

    def mutant(m):
        reached.append(m.n_qubits)
        return (m.sx2 + m.sy2) / 2.0 - np.hypot(m.sx2 - m.sy2, 1.9 * (0.5 * m.sp2.imag)) / 2.0

    monkeypatch.setattr(squeezing, "_z_frame_min", mutant)


def conjugated_gauge(monkeypatch, reached):
    """`SectorBand.gauge` conjugated: D^dag in place of D."""
    gauge = hamiltonians.SectorBand.gauge

    def mutant(band):
        reached.append(band.phase)
        return gauge(band).conj()

    monkeypatch.setattr(hamiltonians.SectorBand, "gauge", mutant)


def swapped_populations(monkeypatch, reached):
    """`reduced_two_qubit` with v+ and v- swapped."""
    reduced = pairwise.reduced_two_qubit

    def mutant(m):
        r = reduced(m)
        reached.append(m.n_qubits)
        return dataclasses.replace(r, v_plus=r.v_minus, v_minus=r.v_plus)

    monkeypatch.setattr(pairwise, "reduced_two_qubit", mutant)


def reversed_field(monkeypatch, reached):
    """`hamiltonians.polynomial` with f's coefficients in reverse order, as
    if they were read from the highest power down."""
    polynomial = hamiltonians.polynomial

    def mutant(coeffs, x):
        reached.append(coeffs)
        return polynomial(coeffs[::-1], x)

    monkeypatch.setattr(hamiltonians, "polynomial", mutant)


MUTANTS = {
    "carry-the-wrong-way": (carry_the_wrong_way, "lemma3"),
    "z-frame-coupling": (z_frame_coupling, "prop3"),
    "conjugated-gauge": (conjugated_gauge, "oracle"),
    "swapped-populations": (swapped_populations, "lemma2"),
    "reversed-field": (reversed_field, "oracle"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_reports_the_planted_defect(mutant, monkeypatch, capsys):
    plant, suite = MUTANTS[mutant]
    reached = []
    plant(monkeypatch, reached)
    assert cli.main(["verify", suite, "--seed", "42"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL") for line in out.splitlines()), out
    assert reached
