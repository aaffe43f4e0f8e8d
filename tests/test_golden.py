"""Regression against stored outputs, byte for byte, and an audit of them.

Each CSV case runs one `evolve` or `scan` through the CLI and compares the
CSV with `tests/golden/<case>.csv`. Sizes stay at N <= 10, where the output
does not depend on the BLAS thread count. A case of `CASE_BLOCK_ROWS` runs
in several blocks, so that its file pins rows after a first block. The
report of every `verify` suite is compared with
`tests/golden/verify_<suite>_seed42.txt` (`-` in a suite name becomes
`_`); they pin every printed residual. The suites that
draw random inputs (lemma1, lemma2, x-form) are also pinned at seed 7, in
`verify_<suite>_seed7.txt`. The stdout of `dicke` for the (N, excitations)
pairs of `DICKE`, one run after another, is pinned in `dicke.txt`.

The stored `evolve` CSVs are also audited against states propagated by the
dense reference, within the error model of `test_sector_path_matches_dense`,
so that a regenerated golden is checked, not only compared with itself.
After a deliberate change of output, rewrite every golden file with

    PYTHONPATH=src python tests/regenerate_golden.py
"""

import contextlib
import csv
import dataclasses
import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import error_model, evolve_columns

from spinsqueeze import cli, evolution, verify
from spinsqueeze.dicke import SymmetricState, make_all_down
from spinsqueeze.hamiltonians import build_hamiltonian

GOLDEN = Path(__file__).parent / "golden"
GRID = ["--t-max", "2", "--dt", "0.1"]

CASES = {
    "evolve_one_axis": ["evolve", "--model", "one-axis", "--n", "6", "--mu", "1", *GRID],
    # 201 rows over about three periods of one-axis twisting at N = 4
    "evolve_one_axis_long": ["evolve", "--model", "one-axis", "--n", "4", "--mu", "1",
                             "--t-max", "20", "--dt", "0.1"],
    "evolve_one_axis_field": ["evolve", "--model", "one-axis-field", "--n", "5",
                              "--mu", "1", "--omega", "0.7", *GRID],
    # the middle row has vanishing mean spin: xi2_general prints nan, degenerate_flag 1
    "evolve_one_axis_degenerate": ["evolve", "--model", "one-axis", "--n", "2",
                                   "--t-max", "3.141592653589793", "--dt", "1.5707963267948966"],
    "evolve_two_axis": ["evolve", "--model", "two-axis", "--n", "10", "--gamma", "0.3", *GRID],
    "evolve_general": ["evolve", "--model", "general", "--n", "7", "--mu", "0.4",
                       "--chi", "-0.9", "--gamma", "1.3", "--f-coeffs", "0,0.7,0.2", *GRID],
    # 151 rows in five blocks (CASE_BLOCK_ROWS): the rows after the first
    # block come from the first block's phase table
    "evolve_one_axis_field_blocks": ["evolve", "--model", "one-axis-field", "--n", "4",
                                     "--mu", "1", "--omega", "0.7", "--t-max", "1.5",
                                     "--dt", "0.01"],
    "scan_one_axis_field": ["scan", "--model", "one-axis-field", "--n", "2,4", "--mu", "1",
                            "--omega", "0.5,2", *GRID],
}

# the cases that run with `evolution.BLOCK_ROWS` set to fewer rows than they
# have; every other case is one block
CASE_BLOCK_ROWS = {"evolve_one_axis_field_blocks": 32}


def case_blocks(case):
    """A context in which `case` runs with its CASE_BLOCK_ROWS, if it has one."""
    return mock.patch.object(evolution, "BLOCK_ROWS",
                             CASE_BLOCK_ROWS.get(case, evolution.BLOCK_ROWS))


# (suite, seed) of every pinned verify report: each suite at seed 42, and a
# second seed for the suites that draw random inputs
REPORTS = [(suite, 42) for suite in verify.SUITES] + [
    (suite, 7) for suite in ("lemma1", "lemma2", "x-form")
]


# (N, excitations) of every pinned `dicke` run: the triplet, a zero mean spin,
# the all-down extreme and an odd N
DICKE = [(2, 1), (4, 2), (5, 0), (7, 3)]
DICKE_PATH = GOLDEN / "dicke.txt"


def dicke_reports():
    """The stdout of `dicke` for each pair of `DICKE`, concatenated."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for n, k in DICKE:
            assert cli.main(["dicke", "--n", str(n), "--excitations", str(k)]) == 0
    return out.getvalue()


def report_path(suite, seed):
    return GOLDEN / f"verify_{suite.replace('-', '_')}_seed{seed}.txt"


def read_csv(path):
    """The rows of a CSV file as dicts of strings."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def run_config(argv):
    """The first RunConfig that the CLI builds from `argv`: an `evolve`
    run's one point, or a scan's first grid point."""
    return cli._run_configs(cli.build_parser().parse_args(argv))[0]


def error_scale(cfg, row):
    """eps * N^2 * max(1, ||H|| t) for one CSV row of a case: the error model
    of the sector path against the dense reference, before the factor
    max(1, |value|). A scan row carries its own N and coefficients, and its
    extrema lie anywhere up to t_max."""
    if "n" in row:
        cfg = dataclasses.replace(
            cfg, n_qubits=int(row["n"]),
            **{c: float(row[c]) for c in cli.SCAN_AXES})
    t = float(row.get("t", cfg.t_max))
    n = cfg.n_qubits
    return error_model(cfg.spec(), n, t)


def numeric_columns(rows):
    """The columns whose every entry parses as a float (nan included)."""
    def parses(text):
        try:
            float(text)
        except ValueError:
            return False
        return True

    return [c for c in rows[0] if all(parses(row[c]) for row in rows)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_bytes_match_golden(case, tmp_path):
    out = tmp_path / f"{case}.csv"
    with case_blocks(case):
        assert cli.main(CASES[case] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()


def dense_blocks(spec, initial, times):
    """`evolution.evolve_blocks` through a dense complex eigh, in one block."""
    times = times[:]  # every time of the TimeGrid
    energies, vectors = np.linalg.eigh(build_hamiltonian(spec, initial.n_qubits))
    modes = vectors.conj().T @ initial.amplitudes
    amps = (np.exp(-1j * np.outer(times, energies)) * modes) @ vectors.T
    yield times, SymmetricState(initial.n_qubits, amps)


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] == "evolve"))
def test_golden_agrees_with_dense_reference(case, monkeypatch):
    cfg = run_config(CASES[case])
    monkeypatch.setattr(evolution, "evolve_blocks", dense_blocks)
    dense = evolve_columns(cfg)
    golden = read_csv(GOLDEN / f"{case}.csv")
    assert len(golden) == len(dense["t"])
    for column in numeric_columns(golden):
        for k, row in enumerate(golden):
            stored, value = float(row[column]), float(dense[column][k])
            if np.isnan(stored) or np.isnan(value):
                assert np.isnan(stored) and np.isnan(value), (column, k)
                continue
            tol = error_scale(cfg, row) * max(1.0, abs(value))
            assert abs(stored - value) <= tol, (column, k, stored, value, tol)


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] == "evolve"))
def test_golden_spec_keeps_every_mode(case):
    # the mode cut drops nothing here, so these CSVs keep their bytes
    cfg = run_config(CASES[case])
    propagator = evolution.hermitian_eigen(cfg.spec(), make_all_down(cfg.n_qubits))
    assert propagator.modes == propagator.dim


def test_lemma1_report_matches_golden(capsys):
    assert cli.main(["verify", "lemma1", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == report_path("lemma1", 42).read_bytes()


@pytest.mark.parametrize(
    "suite, seed",
    [pytest.param(suite, seed, id=suite if seed == 42 else f"{suite}-seed{seed}")
     for suite, seed in REPORTS if (suite, seed) != ("lemma1", 42)],
)
def test_verify_report_matches_golden(suite, seed, capsys):
    assert cli.main(["verify", suite, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert out.encode() == report_path(suite, seed).read_bytes()


def test_verify_all_runs_the_pinned_suites(capsys):
    # `verify all` is the eight suites of SUITES, in order, and no other: its
    # report is their pinned reports, padded to its longest check name
    assert verify.SUITES == ("lemma1", "lemma2", "lemma3", "prop3", "prop4", "parity",
                             "oracle", "x-form")
    checks = [line.split(None, 2)  # status, name, residual and tolerance
              for suite in verify.SUITES
              for line in report_path(suite, 42).read_text().splitlines()[1:-1]]
    assert len(checks) == 129
    width = max(len(name) for _, name, _ in checks)
    expected = [f"suite: all   rng: {verify.RNG_ALGORITHM}   seed: 42",
                *(f"{status}  {name:<{width}}  {rest}" for status, name, rest in checks),
                "129/129 checks passed"]
    assert cli.main(["verify", "all", "--seed", "42"]) == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_dicke_reports_match_golden():
    assert dicke_reports().encode() == DICKE_PATH.read_bytes()
