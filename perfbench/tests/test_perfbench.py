"""Self-test of the benchmark: every metric is printed, and the checker
counts a corrupted output as a failure.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workloads.WHY[name] for name in workloads.GATED}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_reports_every_metric(workload, trace, capsys):
    result = run.run(workload, seed=5, seconds=0.1, trace=trace, tiny=True)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    summary = capsys.readouterr().out
    for name in ("wall_s", "setup_s", "peak_rss_mb", "error_frac", "n="):
        assert name in summary
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(m[f"{mod}.self_s"] for mod in tracer.MODULES) + m["trace.hook_s"]
        # self times account for the traced call, which the root span covers
        assert 0.9 * m["trace.wall_s"] <= self_sum <= m["trace.wall_s"]


def _cli_output(inputs, tmp_path, capsys):
    from spinsqueeze import cli

    exit_code = cli.main(list(inputs.argv))
    if inputs.kind == "verify":
        return exit_code, capsys.readouterr().out
    return exit_code, (tmp_path / "out.csv").read_text()


def _corrupt(text, column, row, change):
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = change(cells[i])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("workload, column, change", [
    ("evolve-large", "xi2_closed", lambda v: repr(float(v) * (1 + 1e-9))),
    ("evolve-long", "concurrence", lambda v: repr(float(v) + 1e-9)),
    ("evolve-long", "t", lambda v: repr(float(v) + 1e-3)),
    ("scan-sweep", "mubar_min_xi2", lambda v: repr(float(v) + 1e-6)),
    ("scan-sweep", "max_xi2_exceeds_one", lambda v: "1"),
])
def test_corrupted_row_counts_as_failure(workload, column, change, tmp_path, capsys):
    inputs = workloads.make_inputs(workload, 5, str(tmp_path / "out.csv"), tiny=True)
    exit_code, text = _cli_output(inputs, tmp_path, capsys)
    assert workloads.check_output(inputs, exit_code, text) == 0
    assert workloads.check_output(inputs, exit_code, _corrupt(text, column, 3 % inputs.expected_ops, change)) == 1
    dropped = "\n".join(text.split("\n")[:-2]) + "\n"
    assert workloads.check_output(inputs, exit_code, dropped) == 1
    assert workloads.check_output(inputs, 3, text) == inputs.expected_ops


def test_failed_or_missing_verify_check_counts(tmp_path, capsys):
    inputs = workloads.make_inputs("verify-all", 5, "", tiny=True)
    exit_code, text = _cli_output(inputs, tmp_path, capsys)
    assert exit_code == 0 and workloads.check_output(inputs, exit_code, text) == 0
    assert workloads.check_output(inputs, 1, text.replace("pass ", "FAIL ")) == 1
    missing = "\n".join(line for line in text.splitlines() if not line.startswith("pass "))
    assert workloads.check_output(inputs, 0, missing) == 1


def test_missing_layer_is_not_reported_as_zero():
    trace = {"run_id": "r", "functions": ["cli.main"],
             "spans": [["cli.main", 0.0, 1.0, -1, None, None]]}
    metrics = tracer.layer_metrics(trace)
    assert metrics["hamiltonians.build_s"] == {"value": None, "unit": "s", "missing": True}
    assert metrics["cli.self_s"] == {"value": 1.0, "unit": "s"}
    assert metrics["cli.write_csv_s"]["missing"]


def test_self_time_excludes_children():
    trace = {"run_id": "r", "functions": ["cli.main", "cli.evolve_rows", "dicke.collective_moments"],
             "spans": [["cli.main", 0.0, 10.0, -1, None, None],
                       ["cli.evolve_rows", 1.0, 9.0, 0, None, None],
                       ["dicke.collective_moments", 2.0, 5.0, 1, None, None],
                       ["dicke.collective_moments", 3.0, 4.0, 2, None, None]]}
    m = {k: v["value"] for k, v in tracer.layer_metrics(trace).items() if not v.get("missing")}
    assert m["cli.rows_s"] == 5.0
    assert m["cli.self_s"] == 7.0
    assert m["dicke.moments_s"] == 3.0  # the nested call is inside the outer one
    assert m["dicke.moments_calls"] == 2
