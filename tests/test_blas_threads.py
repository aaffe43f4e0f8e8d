"""The `evolve` CSV with one and with two BLAS threads.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy is imported, so each
run is a subprocess. At the golden sizes the bytes are the same. At N=2000
they are not: LAPACK's SVD and `eigh` return eigenvectors whose last bits
depend on the thread count, so there the tokens must be the same and every
number must agree within the error model of `test_golden`.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CASES, error_scale, numeric_columns, read_csv, run_config

SRC = Path(__file__).resolve().parent.parent / "src"


def evolve_csv(argv, threads, path):
    """Run `argv` through the CLI in a fresh interpreter with `threads` BLAS
    threads, writing the CSV to `path`; returns its bytes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "spinsqueeze.cli", *argv, "--out", str(path)],
                   env=env, check=True, capture_output=True)
    return path.read_bytes()


def test_golden_two_axis_bytes_do_not_depend_on_the_thread_count(tmp_path):
    argv = CASES["evolve_two_axis"]
    assert evolve_csv(argv, 1, tmp_path / "one.csv") == evolve_csv(argv, 2, tmp_path / "two.csv")


# N=2000 on six-point grids: the evolve-large spec (two-axis, gamma = 1.5/N,
# whose even band folds into two SVDs) and one-axis with mu = 1.5/N (whose
# even band folds into two `eigh` halves)
N2000 = {
    "two-axis": ["--model", "two-axis", "--n", "2000", "--gamma", "0.00075"],
    "one-axis": ["--model", "one-axis", "--n", "2000", "--mu", "0.00075"],
}


def test_n2000_agrees_across_thread_counts_within_the_error_model(tmp_path):
    for model, spec in N2000.items():
        argv = ["evolve", *spec, "--t-max", "0.05", "--dt", "0.01"]
        paths = [tmp_path / f"{model}-one.csv", tmp_path / f"{model}-two.csv"]
        for threads, path in zip((1, 2), paths):
            evolve_csv(argv, threads, path)
        one, two = (read_csv(path) for path in paths)
        assert len(one) == len(two) == 6
        cfg = run_config(argv)
        numeric = numeric_columns(one + two)
        for a, b in zip(one, two):
            for column in a:
                if column not in numeric:
                    assert a[column] == b[column], (model, column)
                    continue
                x, y = float(a[column]), float(b[column])
                if math.isnan(x) or math.isnan(y):
                    assert math.isnan(x) and math.isnan(y), (model, column)
                else:
                    assert abs(x - y) <= error_scale(cfg, a) * max(1.0, abs(x)), (model, column)
