"""Byte-for-byte regression against stored outputs.

Each CSV case runs one `evolve` or `scan` through the CLI and compares the
CSV with `tests/golden/<case>.csv`. Sizes stay at N <= 10, where the output
does not depend on the BLAS thread count. After a deliberate change of
output, regenerate a file with `spinsqueeze <argv> --out tests/golden/<case>.csv`.
The Lemma 1 report is compared with `tests/golden/verify_lemma1_seed42.txt`,
written by `spinsqueeze verify lemma1 --seed 42 > <file>`.
"""

from pathlib import Path

import pytest

from spinsqueeze import cli

GOLDEN = Path(__file__).parent / "golden"
GRID = ["--t-max", "2", "--dt", "0.1"]

CASES = {
    "evolve_one_axis": ["evolve", "--model", "one-axis", "--n", "6", "--mu", "1", *GRID],
    # the only case found whose bytes change if the 2x2 eigenvalue squares
    # with x*x instead of libm pow
    "evolve_one_axis_long": ["evolve", "--model", "one-axis", "--n", "4", "--mu", "1",
                             "--t-max", "20", "--dt", "0.1"],
    "evolve_one_axis_field": ["evolve", "--model", "one-axis-field", "--n", "5",
                              "--mu", "1", "--omega", "0.7", *GRID],
    "evolve_two_axis": ["evolve", "--model", "two-axis", "--n", "10", "--gamma", "0.3", *GRID],
    "evolve_general": ["evolve", "--model", "general", "--n", "7", "--mu", "0.4",
                       "--chi", "-0.9", "--gamma", "1.3", "--f-coeffs", "0,0.7,0.2", *GRID],
    "scan_one_axis_field": ["scan", "--model", "one-axis-field", "--n", "2,4", "--mu", "1",
                            "--omega", "0.5,2", *GRID],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_bytes_match_golden(case, tmp_path):
    out = tmp_path / f"{case}.csv"
    assert cli.main(CASES[case] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()


def test_lemma1_report_matches_golden(capsys):
    assert cli.main(["verify", "lemma1", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "verify_lemma1_seed42.txt").read_bytes()
