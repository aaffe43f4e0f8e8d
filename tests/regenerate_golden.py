"""Rewrite every golden file that `test_golden.py` pins, after a deliberate
change of output. Run from the root of a checkout:

    PYTHONPATH=src python tests/regenerate_golden.py

The cases and reports are `test_golden.CASES` and `test_golden.REPORTS`;
a case runs with its `test_golden.CASE_BLOCK_ROWS`, as the test runs it.
For each CSV column the script prints the worst absolute change against
the file it replaces, and the worst change as a share of the error model
eps * N^2 * max(1, ||H|| t) * max(1, |value|); a column of tokens prints
how many of them changed. For each verify report it prints the changed
lines, and likewise for the `dicke` reports. Review the printout before
committing the files.
"""

import contextlib
import difflib
import io
import math

from test_golden import (
    CASES,
    DICKE_PATH,
    GOLDEN,
    REPORTS,
    case_blocks,
    dicke_reports,
    error_scale,
    numeric_columns,
    read_csv,
    report_path,
    run_config,
)

from spinsqueeze import cli


def change(old, new):
    """|new - old| for two printed floats; 0 for two NaNs, inf for one."""
    a, b = float(old), float(new)
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return abs(b - a)


def compare_csv(argv, old, new):
    if list(old[0]) != list(new[0]) or len(old) != len(new):
        print("  the header or the row count changed")
        return
    cfg = run_config(argv)
    numeric = numeric_columns(old + new)
    for column in old[0]:
        if column not in numeric:
            flips = sum(a[column] != b[column] for a, b in zip(old, new))
            print(f"  {column:<20} {flips} of {len(old)} tokens changed")
            continue
        worst = share = 0.0
        for a, b in zip(old, new):
            d = change(a[column], b[column])
            scale = error_scale(cfg, b) * max(1.0, abs(float(b[column])))
            worst, share = max(worst, d), max(share, d / scale)
        print(f"  {column:<20} worst change {worst:.2e}  share of error model {share:.3f}")


def regenerate_csv(case, argv):
    path = GOLDEN / f"{case}.csv"
    old = read_csv(path) if path.exists() else None
    with case_blocks(case):
        status = cli.main(argv + ["--out", str(path)])
    if status != 0:
        raise SystemExit(f"{case}: {' '.join(argv)} failed")
    print(path.name)
    if old is None:
        print("  new file")
    else:
        compare_csv(argv, old, read_csv(path))


def write_text(path, text):
    """Replace `path` by `text` and print the lines that changed."""
    old = path.read_text() if path.exists() else ""
    path.write_bytes(text.encode())
    diff = [line for line in difflib.unified_diff(
        old.splitlines(), text.splitlines(), lineterm="", n=0)
        if line[:1] in "+-" and line[:3] not in ("+++", "---")]
    print(f"{path.name}: {sum(line[0] == '+' for line in diff)} lines changed")
    for line in diff:
        print(f"  {line}")


def regenerate_report(suite, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["verify", suite, "--seed", str(seed)])
    if status != 0:
        raise SystemExit(f"verify {suite} --seed {seed} failed:\n{out.getvalue()}")
    write_text(report_path(suite, seed), out.getvalue())


def main():
    for case, argv in CASES.items():
        regenerate_csv(case, argv)
    for suite, seed in REPORTS:
        regenerate_report(suite, seed)
    write_text(DICKE_PATH, dicke_reports())


if __name__ == "__main__":
    main()
