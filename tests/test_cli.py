"""CLI surface: CSV emission, scans, reports, verify suites, exit codes."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinsqueeze import cli, evolution, pairwise, verify
from spinsqueeze.dicke import CollectiveMoments


def run_cli(args):
    return cli.main(args)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestEvolve:
    def test_n2_analytic_profile(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run_cli(
            ["evolve", "--model", "one-axis", "--n", "2", "--mu", "1",
             "--t-max", str(np.pi), "--dt", str(np.pi / 200), "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 201
        for row in rows:
            t = float(row["t"])
            assert float(row["xi2_closed"]) == pytest.approx(
                1 - abs(np.sin(t)), abs=1e-10
            )
            assert float(row["concurrence"]) == pytest.approx(abs(np.sin(t)), abs=1e-10)

    def test_two_axis_n6_relation(self, tmp_path):
        out = tmp_path / "h3.csv"
        assert run_cli(
            ["evolve", "--model", "two-axis", "--n", "6", "--gamma", "1",
             "--t-max", "3", "--dt", "0.01", "--out", str(out)]
        ) == 0
        rows = read_rows(out)
        for row in rows:
            xi2 = float(row["xi2_closed"])
            conc = float(row["concurrence"])
            assert conc == pytest.approx((1 - xi2) / 5, abs=1e-9)

    def test_zero_dt_is_usage_error(self, tmp_path):
        assert run_cli(["evolve", "--n", "2", "--dt", "0", "--t-max", "1"]) == 2

    @pytest.mark.parametrize("t_max, dt", [
        ("inf", "0.1"), ("inf", "inf"), ("nan", "0.1"), ("1", "nan"), ("1e300", "1e-300"),
    ])
    def test_non_finite_grid_is_usage_error(self, t_max, dt):
        assert run_cli(["evolve", "--n", "2", "--t-max", t_max, "--dt", dt]) == 2

    def test_lost_norm_is_numerical_error(self, monkeypatch):
        # eigenvectors scaled by 1+1e-6 after the decomposition checks leave
        # every propagated state unnormalized: a numerical failure
        original = evolution.hermitian_eigen

        def leaky(*args):
            prop = original(*args)
            sectors = tuple(dataclasses.replace(s, eigenvectors=s.eigenvectors * (1 + 1e-6))
                            for s in prop.sectors)
            return dataclasses.replace(prop, sectors=sectors)

        monkeypatch.setattr(evolution, "hermitian_eigen", leaky)
        assert run_cli(["evolve", "--n", "4", "--t-max", "1", "--dt", "0.5"]) == 3

    def test_nan_decomposition_is_numerical_error(self, monkeypatch):
        eigh = np.linalg.eigh

        def nan_first(a):
            energies, vectors = eigh(a)
            energies[0] = np.nan
            return energies, vectors

        monkeypatch.setattr(np.linalg, "eigh", nan_first)
        assert run_cli(["evolve", "--n", "4", "--t-max", "1", "--dt", "0.5"]) == 3

    def test_corrupt_eigenvector_is_numerical_error(self, monkeypatch, capsys):
        # two sector eigenvectors swapped: still orthonormal, but T V != V Lambda
        eigh = np.linalg.eigh

        def swapped(a):
            energies, vectors = eigh(a)
            vectors[:, [0, -1]] = vectors[:, [-1, 0]]
            return energies, vectors

        monkeypatch.setattr(np.linalg, "eigh", swapped)
        assert run_cli(["evolve", "--n", "4", "--t-max", "1", "--dt", "0.5"]) == 3
        assert "eigendecomposition residual" in capsys.readouterr().err

    def test_cli_imports_no_scipy(self, tmp_path):
        # the run must not pay scipy's import time and memory
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from spinsqueeze import cli\n"
            f"assert cli.main(['evolve', '--n', '6', '--t-max', '1', '--dt', '0.5',"
            f" '--out', {str(tmp_path / 'x.csv')!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        pyproject = (src.parent / "pyproject.toml").read_text()
        dependencies = re.search(r"^dependencies = \[(.*)\]$", pyproject, re.M).group(1)
        assert re.findall(r'"([^"]*)"', dependencies) == ["numpy>=1.24"]

    def test_out_of_memory_is_usage_error(self, monkeypatch, capsys):
        def too_large(*args):
            raise MemoryError("cannot hold the Hamiltonian")

        monkeypatch.setattr(cli, "trajectory", too_large)
        assert run_cli(["evolve", "--n", "4", "--t-max", "1", "--dt", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_output(self):
        assert run_cli(
            ["evolve", "--n", "2", "--t-max", "1", "--dt", "0.5",
             "--out", "/nonexistent/dir/x.csv"]
        ) == 2

    def test_byte_stability(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["evolve", "--model", "two-axis", "--n", "4", "--t-max", "1",
                "--dt", "0.05"]
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert b"\r" not in out_a.read_bytes()

    def test_round_trip_precision(self, tmp_path):
        out = tmp_path / "rt.csv"
        assert run_cli(
            ["evolve", "--model", "one-axis", "--n", "5", "--t-max", "2",
             "--dt", "0.1", "--out", str(out)]
        ) == 0
        text_rows = read_rows(out)
        cols = cli.evolve_rows(
            cli.RunConfig(model="one-axis", n_qubits=5, mu=1.0, t_max=2, dt=0.1)
        )
        for key, values in cols.items():
            if key == "branch":
                continue
            parsed = [float(row[key]) for row in text_rows]
            np.testing.assert_allclose(parsed, values, rtol=1e-15, atol=0.0)

    def test_degenerate_flag_token(self):
        # H1 at N=2, t = pi/2 reaches the maximally entangled state with
        # vanishing mean spin; the general parameter must degrade gracefully
        cols = cli.evolve_rows(
            cli.RunConfig(model="one-axis", n_qubits=2, t_max=np.pi, dt=np.pi / 2)
        )
        degenerate = cols["degenerate_flag"] == 1
        assert degenerate.any()
        assert np.all(np.isnan(cols["xi2_general"][degenerate]))
        assert cli.fmt(float("nan"), 17) == "nan"

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "model = one-axis\nn = 2\nmu = 1\nt-max = 1\ndt = 0.5\n# comment\n"
        )
        out = tmp_path / "cfg.csv"
        assert run_cli(
            ["evolve", "--config", str(config), "--dt", "0.25", "--out", str(out)]
        ) == 0
        assert len(read_rows(out)) == 5  # dt flag overrode the file value


class TestScan:
    def test_one_axis_field_inequality(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli(
            ["scan", "--model", "one-axis-field", "--n", "2,3,4,6",
             "--mu", "1", "--omega", "0.5,2", "--t-max", "5", "--dt", "0.02",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 8
        for row in rows:
            assert float(row["max_xi2"]) <= 1 + 1e-9
            assert row["max_xi2_exceeds_one"] == "0"

    def test_sorted_deterministic_with_workers(self, tmp_path):
        out_a = tmp_path / "w1.csv"
        out_b = tmp_path / "w2.csv"
        args = ["scan", "--model", "two-axis", "--n", "4,2,6", "--gamma", "1",
                "--t-max", "1", "--dt", "0.05"]
        assert run_cli(args + ["--out", str(out_a), "--workers", "1"]) == 0
        assert run_cli(args + ["--out", str(out_b), "--workers", "3"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        ns = [int(r["n"]) for r in read_rows(out_a)]
        assert ns == sorted(ns)

    def test_empty_grid_usage_error(self, tmp_path):
        assert run_cli(["scan", "--n", "", "--out", str(tmp_path / "x.csv")]) == 2

    def test_config_file_lists_match_flags(self, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text(
            "model = one-axis-field\nn = 2,4\nmu = 1\nomega = 0.5,2\n"
            "t_max = 1\ndt = 0.1\n"
        )
        out_file = tmp_path / "file.csv"
        out_flags = tmp_path / "flags.csv"
        assert run_cli(["scan", "--config", str(config), "--out", str(out_file)]) == 0
        assert run_cli(
            ["scan", "--model", "one-axis-field", "--n", "2,4", "--mu", "1",
             "--omega", "0.5,2", "--t-max", "1", "--dt", "0.1", "--out", str(out_flags)]
        ) == 0
        assert out_file.read_bytes() == out_flags.read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("seed = 3\n")
        with pytest.raises(SystemExit) as err:
            run_cli(["scan", "--config", str(config), "--n", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, workers, tmp_path):
        assert run_cli(
            ["scan", "--n", "2", "--t-max", "1", "--dt", "0.5", "--workers", workers,
             "--out", str(tmp_path / "x.csv")]
        ) == 2

    def test_workers_capped_at_grid_size(self, monkeypatch, tmp_path):
        # a stub pool records the worker count and maps serially, so no
        # process is started whatever the requested count
        requested = []

        class StubPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", StubPool)
        args = ["scan", "--n", "2,3", "--t-max", "1", "--dt", "0.5"]
        assert run_cli(args + ["--workers", "1000", "--out", str(tmp_path / "a.csv")]) == 0
        assert requested == [2]
        assert run_cli(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert requested == [2]  # the default runs serially
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestDicke:
    def test_report_values(self, capsys):
        assert run_cli(["dicke", "--n", "4", "--excitations", "2"]) == 0
        out = capsys.readouterr().out
        assert "xi2          = 3" in out
        assert "0.33333333333333337" in out

    def test_unentangled_extreme(self, capsys):
        assert run_cli(["dicke", "--n", "4", "--excitations", "0"]) == 0
        out = capsys.readouterr().out
        assert "xi2          = 1" in out

    def test_triplet(self, capsys):
        assert run_cli(["dicke", "--n", "2", "--excitations", "1"]) == 0
        out = capsys.readouterr().out
        assert "xi2          = 2" in out
        assert "concurrence  = 1 " in out

    def test_out_of_range(self):
        assert run_cli(["dicke", "--n", "2", "--excitations", "5"]) == 2


class TestVerify:
    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "nonsense"])
        assert err.value.code == 2

    def test_x_form_suite_passes(self, capsys):
        assert run_cli(["verify", "x-form", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert "PCG64" in out  # RNG algorithm recorded

    def test_lemma3_suite_passes(self):
        assert run_cli(["verify", "lemma3"]) == 0

    def test_prop3_and_prop4_share_trajectories(self, monkeypatch):
        # within one run each (spec, N, t_max, dt) trajectory is evaluated once,
        # and the checks read as when each suite runs alone
        alone = verify.run_suite("prop3") + verify.run_suite("prop4")
        calls = []
        original = verify.trajectory

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(verify, "trajectory", counted)
        monkeypatch.setattr(verify, "SUITES", ("prop3", "prop4"))
        shared = verify.run_suite("all")
        assert len(calls) == len(set(calls)) == 16  # 12 in prop3, 4 new in prop4
        calls.clear()
        verify.run_suite("prop4")  # a new run evaluates afresh
        assert len(calls) == 6
        assert [(c.name, c.residual) for c in shared] == [(c.name, c.residual) for c in alone]

    def test_lemma2_mutation_detected(self, monkeypatch, capsys):
        # flip one sign in the moment-to-matrix-element map; the partial-trace
        # comparison must catch it
        original = pairwise.reduced_two_qubit

        def mutated(m):
            r = original(m)
            return pairwise.TwoQubitReduced(
                v_plus=r.v_minus, v_minus=r.v_plus,  # sign of the <Sz> shift flipped
                y=r.y, x_plus=r.x_plus, x_minus=r.x_minus, u=r.u,
                n_qubits=r.n_qubits,
            )

        monkeypatch.setattr(pairwise, "reduced_two_qubit", mutated)
        checks = verify.suite_lemma2(seed=0, per_n=20, n_values=(3, 4))
        assert any(not c.passed for c in checks)
