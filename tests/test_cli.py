"""CLI surface: CSV emission, scans, reports, verify suites, exit codes."""

import contextlib
import dataclasses
import importlib.util
import inspect
import io
import math
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from helpers import evolve_columns
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import cli, evolution, pairwise, verify
from spinsqueeze.dicke import CollectiveMoments
from spinsqueeze.hamiltonians import HamiltonianSpec

# doubles from random bit patterns (every finite, subnormal, infinite and NaN
# encoding), plus the special values named explicitly
FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310]),
)
# numpy's str dtype drops trailing NULs, so the writer never sees them
TEXT = st.text(st.characters(exclude_characters="\x00", exclude_categories=("Cs",)))


def run_cli(args):
    return cli.main(args)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_csv_headers_are_the_benchmark_workloads_headers(monkeypatch):
    # the benchmark checks each CSV against headers of its own, so a header
    # change must fail here first; the file is read, not changed
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert cli.EVOLVE_COLUMNS == workloads.EVOLVE_COLUMNS
    assert cli.SCAN_COLUMNS == workloads.SCAN_COLUMNS


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

    def test_lost_norm_is_numerical_error(self, monkeypatch, capsys):
        # eigenvectors scaled by 1+1e-6 after the decomposition checks leave
        # every propagated state unnormalized: a numerical failure
        original = evolution.hermitian_eigen

        def leaky(*args):
            prop = original(*args)
            return dataclasses.replace(prop, eigenvectors=prop.eigenvectors * (1 + 1e-6))

        monkeypatch.setattr(evolution, "hermitian_eigen", leaky)
        assert run_cli(["evolve", "--n", "4", "--t-max", "1", "--dt", "0.5"]) == 3
        assert capsys.readouterr().out == ""

    def test_nan_decomposition_is_numerical_error(self, monkeypatch, capsys):
        eigh = np.linalg.eigh

        def nan_first(a):
            energies, vectors = eigh(a)
            energies[0] = np.nan
            return energies, vectors

        monkeypatch.setattr(np.linalg, "eigh", nan_first)
        assert run_cli(["evolve", "--n", "4", "--t-max", "1", "--dt", "0.5"]) == 3
        assert capsys.readouterr().out == ""

    def test_nan_singular_value_is_numerical_error(self, monkeypatch, capsys):
        svd = np.linalg.svd

        def nan_first(a):
            u, s, vt = svd(a)
            s[0] = np.nan
            return u, s, vt

        monkeypatch.setattr(np.linalg, "svd", nan_first)
        argv = ["evolve", "--model", "two-axis", "--n", "4", "--t-max", "1", "--dt", "0.5"]
        assert run_cli(argv) == 3
        assert capsys.readouterr().out == ""

    def test_corrupt_eigenvector_is_numerical_error(self, monkeypatch, capsys):
        # two sector eigenvectors swapped: still orthonormal, but T V != V Lambda
        eigh = np.linalg.eigh

        def swapped(a):
            energies, vectors = eigh(a)
            vectors[:, [0, -1]] = vectors[:, [-1, 0]]
            return energies, vectors

        monkeypatch.setattr(np.linalg, "eigh", swapped)
        assert run_cli(["evolve", "--n", "4", "--t-max", "1", "--dt", "0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "eigendecomposition residual" in err

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

    def test_cli_import_skips_process_pool(self):
        # a serial run does not pay for loading concurrent.futures and multiprocessing
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "import spinsqueeze.cli\n"
            "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_a_closed_pipe_exits_141_quietly(self):
        # as `evolve ... | head -1`: the reader takes one line and closes the pipe
        src = Path(cli.__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-m", "spinsqueeze.cli", "evolve", "--model", "one-axis",
             "--n", "20", "--t-max", "10", "--dt", "0.001"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.readline().startswith(b"t,xi2_closed,")
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=120) == 141
        assert stderr == b""

    def test_out_of_memory_is_usage_error(self, monkeypatch, capsys):
        def too_large(*args):
            raise MemoryError("cannot hold the Hamiltonian")

        monkeypatch.setattr(evolution, "evolve_blocks", too_large)
        assert run_cli(["evolve", "--n", "4", "--t-max", "1", "--dt", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["evolve", "scan"])
    def test_a_solve_out_of_memory_prints_no_header(self, command, monkeypatch, capsys):
        # as `--n 1000000` does: the sector solve cannot allocate its (500001, 500001) V
        def too_large(*args):
            raise MemoryError("Unable to allocate 1.82 TiB for an array")

        monkeypatch.setattr(evolution, "hermitian_eigen", too_large)
        assert run_cli([command, "--n", "4", "--t-max", "1", "--dt", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Unable to allocate")

    def test_unwritable_output(self):
        assert run_cli(
            ["evolve", "--n", "2", "--t-max", "1", "--dt", "0.5",
             "--out", "/nonexistent/dir/x.csv"]
        ) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--gamma", "1e308"), ("--mu", "1e308"), ("--f-coeffs", "1e308,1e308,1e308"),
    ])
    def test_overflowing_coefficient_prints_only_the_error(self, flag, value):
        # run as a user runs it, so a numpy warning would reach stderr
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys\nfrom spinsqueeze import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        args = ["evolve", "--model", "general", "--n", "4", flag, value,
                "--t-max", "1", "--dt", "0.5", "--out", os.devnull]
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr == "error: Hamiltonian entries overflow\n"

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
        cols = evolve_columns(
            cli.RunConfig(model="one-axis", n_qubits=5, mu=1.0, t_max=2, dt=0.1)
        )
        for key, values in cols.items():
            if key == "branch":
                continue
            parsed = [float(row[key]) for row in text_rows]
            np.testing.assert_allclose(parsed, values, rtol=1e-15, atol=0.0)

    def test_degenerate_flag_token(self, tmp_path):
        # H1 at N=2, t = pi/2 reaches the maximally entangled state with
        # vanishing mean spin; the general parameter must degrade gracefully
        cols = evolve_columns(
            cli.RunConfig(model="one-axis", n_qubits=2, t_max=np.pi, dt=np.pi / 2)
        )
        degenerate = cols["degenerate_flag"] == 1
        assert degenerate.any()
        assert np.all(np.isnan(cols["xi2_general"][degenerate]))
        out = tmp_path / "degenerate.csv"
        cli.write_csv(str(out), cli.EVOLVE_COLUMNS, [cols], 17)
        rows = read_rows(out)
        assert [row["xi2_general"] == "nan" for row in rows] == list(degenerate)

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

    @pytest.mark.parametrize("model, flag, value, reads", [
        ("one-axis", "--gamma", "5", "--mu"),
        ("one-axis", "--omega", "3", "--mu"),
        ("one-axis-field", "--f-coeffs", "0,1", "--mu, --omega"),
        ("two-axis", "--chi", "1", "--gamma"),
        ("general", "--omega", "1", "--mu, --chi, --gamma, --f-coeffs"),
    ])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_ignored_coefficient_is_usage_error(self, model, flag, value, reads, from_config,
                                                tmp_path, capsys):
        # such a flag used to change nothing: the CSV matched the run without it
        out = tmp_path / "x.csv"
        args = ["evolve", "--model", model, "--n", "4", "--t-max", "1", "--dt", "0.5",
                "--out", str(out)]
        if from_config:
            config = tmp_path / "run.cfg"
            config.write_text(f"{flag[2:]} = {value}\n")
            args += ["--config", str(config)]
        else:
            args += [flag, value]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert flag in err and err.rstrip().endswith(f"reads only {reads}")
        assert not out.exists()

    def test_spec_is_the_models_named_constructor(self):
        # every coefficient, read or not, differs from its default, so a
        # model that reads the wrong one, or in the wrong order, is caught
        cfg = dict(mu=0.3, chi=0.4, gamma=0.5, omega=0.6, f_coeffs=(0.7, 0.8))
        expected = {
            "one-axis": HamiltonianSpec.one_axis(0.3),
            "one-axis-field": HamiltonianSpec.one_axis_field(0.3, 0.6),
            "two-axis": HamiltonianSpec.two_axis(0.5),
            "general": HamiltonianSpec(mu=0.3, chi=0.4, gamma=0.5, f_coeffs=(0.7, 0.8)),
        }
        assert set(cli.MODELS) == set(expected)
        for model, spec in expected.items():
            assert cli.RunConfig(model=model, **cfg).spec() == spec, model
        with pytest.raises(ValueError, match="unknown model 'nope'"):
            cli.RunConfig(model="nope")

    def test_a_run_config_that_exists_can_run(self):
        # its Hamiltonian is checked when it is made, not when it runs
        with pytest.raises(ValueError, match="overflow"):
            cli.RunConfig(model="two-axis", n_qubits=4, gamma=1e308)
        with pytest.raises(ValueError, match="non-finite"):
            cli.RunConfig(mu=math.nan)

    def test_evolve_is_one_point(self):
        argv = ["evolve", "--model", "general", "--n", "7", "--mu", "0.4", "--chi", "-0.9",
                "--gamma", "1.3", "--f-coeffs", "0,0.7,0.2", "--t-max", "2", "--dt", "0.1",
                "--precision", "9", "--out", "x.csv"]
        grids = [cli._run_configs(cli.build_parser().parse_args(args))
                 for args in (argv, ["evolve"])]
        assert grids == [
            [cli.RunConfig(model="general", n_qubits=7, mu=0.4, chi=-0.9, gamma=1.3,
                           f_coeffs=(0.0, 0.7, 0.2), t_max=2.0, dt=0.1,
                           output_path="x.csv", precision=9)],
            [cli.RunConfig()],
        ]


class TestStreaming:
    """`evolve` propagates, analyses and writes one block of times at a time."""

    @staticmethod
    def record_blocks(monkeypatch, leaky_block=None):
        """Record the rows of each propagated block; block `leaky_block` (from 1)
        uses eigenvectors scaled by 1+1e-6, so its states lose their norm."""
        original = evolution.propagate
        rows = []

        def propagate(propagator, times, table=None):
            rows.append(len(times))
            if len(rows) == leaky_block:
                propagator = dataclasses.replace(
                    propagator, eigenvectors=propagator.eigenvectors * (1 + 1e-6))
            return original(propagator, times, table)

        monkeypatch.setattr(evolution, "propagate", propagate)
        return rows

    ARGS = ["evolve", "--n", "4", "--t-max", "5", "--dt", "0.1"]  # 51 rows

    def test_lost_norm_in_block_two_keeps_existing_output(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(evolution, "BLOCK_AMPLITUDES", 8 * 5)  # 8 rows at N=4
        rows = self.record_blocks(monkeypatch, leaky_block=2)
        out = tmp_path / "kept.csv"
        out.write_bytes(b"t\n0\n")
        assert run_cli(self.ARGS + ["--out", str(out)]) == 3
        assert rows == [8, 8]
        assert "lost its norm" in capsys.readouterr().err
        assert out.read_bytes() == b"t\n0\n"
        assert os.listdir(tmp_path) == ["kept.csv"]  # no temporary file left behind

    def test_success_replaces_output(self, monkeypatch, tmp_path):
        monkeypatch.setattr(evolution, "BLOCK_AMPLITUDES", 8 * 5)
        rows = self.record_blocks(monkeypatch)
        out = tmp_path / "new.csv"
        out.write_bytes(b"t\n0\n")
        assert run_cli(self.ARGS + ["--out", str(out)]) == 0
        assert rows == [8] * 6 + [3]
        assert len(read_rows(out)) == 51
        assert os.listdir(tmp_path) == ["new.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_writes_through_symlink_and_fifo(self, tmp_path):
        plain = tmp_path / "plain.csv"
        assert run_cli(self.ARGS + ["--out", str(plain)]) == 0
        target = tmp_path / "target.csv"
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert run_cli(self.ARGS + ["--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == plain.read_bytes()
        # a pipe is written in place, never replaced by a regular file
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        assert run_cli(self.ARGS + ["--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == [plain.read_bytes()]

    def test_one_block_is_live_at_a_time(self, monkeypatch, tmp_path):
        # when a block is propagated, no earlier block's states or table remain
        monkeypatch.setattr(evolution, "BLOCK_AMPLITUDES", 8 * 5)  # 8 rows at N=4
        propagate, evolve_rows, earlier = evolution.propagate, cli.evolve_rows, []

        def watched_propagate(propagator, times, table=None):
            assert [ref for ref in earlier if ref() is not None] == []
            states = propagate(propagator, times, table)
            earlier.append(weakref.ref(states))
            return states

        def watched_rows(times, states):
            table = evolve_rows(times, states)
            earlier.extend(weakref.ref(table[c]) for c in ("t", "xi2_closed", "concurrence"))
            return table

        monkeypatch.setattr(evolution, "propagate", watched_propagate)
        monkeypatch.setattr(cli, "evolve_rows", watched_rows)
        assert run_cli(self.ARGS + ["--out", str(tmp_path / "out.csv")]) == 0
        assert len(earlier) == 7 * 4  # 51 rows in 7 blocks

    def test_long_run_peak_at_the_real_block_size(self, tmp_path):
        # the benchmark's evolve-long: N=50 over 20001 times, in 1024-row blocks
        out = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            code = run_cli(["evolve", "--model", "one-axis-field", "--n", "50", "--omega", "0.5",
                            "--t-max", "200", "--dt", "0.01", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 5 * 2**20  # 12.4 MiB in 5140-row blocks with the former block held

    def test_memory_does_not_grow_with_grid_length(self, monkeypatch, tmp_path):
        # 321 rows per block at N=50, so that both grids span several blocks
        monkeypatch.setattr(evolution, "BLOCK_AMPLITUDES", 2**14)
        n, peaks = 50, {}
        for points in (2001, 40001):
            out = tmp_path / f"{points}.csv"
            tracemalloc.start()
            try:
                code = run_cli(["evolve", "--model", "one-axis-field", "--n", str(n),
                                "--omega", "0.5", "--t-max", str((points - 1) / 100),
                                "--dt", "0.01", "--out", str(out)])
                peaks[points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert len(read_rows(out)) == points
        assert peaks[40001] <= 1.5 * peaks[2001]
        # one (T, N+1) complex stack alone would take this many bytes
        assert peaks[40001] < 40001 * (n + 1) * 16

    @pytest.mark.parametrize("n, model_args, h_norm", [
        (4, ["--model", "one-axis-field", "--omega", "0.7"], 2**2 + 0.7 * 2),
        (7, ["--model", "general", "--mu", "0.4", "--chi", "-0.9", "--gamma", "1.3",
             "--f-coeffs", "0,0.7,0.2"], 1.3 * 3.5**2 + 1.3 * 3.5 * 4.5 + 0.7 * 3.5
         + 0.2 * 3.5**2),
        (20, ["--model", "two-axis", "--gamma", "1"], 10 * 11),
    ])
    def test_block_boundaries_are_invisible(self, n, model_args, h_norm, monkeypatch,
                                            tmp_path, capsys):
        # ||H|| <= (|mu| + |chi|) j^2 + |gamma| j (j+1) + sum |f_k| j^k, with j = N/2
        args = ["evolve", "--n", str(n), *model_args, "--t-max", "3", "--dt", "0.01"]
        assert run_cli(args + ["--out", str(tmp_path / "one.csv")]) == 0
        one_err = capsys.readouterr().err
        monkeypatch.setattr(evolution, "BLOCK_AMPLITUDES", 7 * (n + 1))
        rows = self.record_blocks(monkeypatch)
        assert run_cli(args + ["--out", str(tmp_path / "many.csv")]) == 0
        many_err = capsys.readouterr().err
        assert rows == [7] * 43  # 301 rows; a 1-row block would run through GEMV

        one, many = read_rows(tmp_path / "one.csv"), read_rows(tmp_path / "many.csv")
        assert len(one) == len(many) == 301
        for column in ("t", "branch", "degenerate_flag"):
            assert [r[column] for r in many] == [r[column] for r in one]
        t = np.array([float(r["t"]) for r in one])
        tolerance = sys.float_info.epsilon * n**2 * np.maximum(1.0, h_norm * t)
        for column in cli.EVOLVE_COLUMNS:
            if column in ("t", "branch", "degenerate_flag"):
                continue
            a = np.array([float(r[column]) for r in one])
            b = np.array([float(r[column]) for r in many])
            assert np.array_equal(np.isnan(a), np.isnan(b)), column
            assert np.all(np.abs(np.nan_to_num(a - b)) <= tolerance), column

        # the printed extremes are those of the whole column, first occurrence on a tie
        xi2 = np.array([float(r["xi2_closed"]) for r in many])
        conc = np.array([float(r["concurrence"]) for r in many])
        best, peak = np.argmin(xi2), np.argmax(conc)
        assert many_err == one_err == (
            f"min xi2 = {xi2[best]:.6g} at t = {t[best]:.6g}; "
            f"max concurrence = {conc[peak]:.6g} at t = {t[peak]:.6g}\n"
        )

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 1.0, 2.0, math.nan]), min_size=1, max_size=24),
        cuts=st.sets(st.integers(1, 23), max_size=6),
    )
    def test_running_extremes_match_whole_column(self, values, cuts):
        xi2 = np.array(values)
        conc = xi2[::-1].copy()
        times = 0.5 * np.arange(len(values))
        edges = [0, *sorted(c for c in cuts if c < len(values)), len(values)]
        extremes = cli.Extremes()
        for lo, hi in zip(edges, edges[1:]):
            extremes.add(times[lo:hi], xi2[lo:hi], conc[lo:hi])
        for (value, t), pick, column in [(extremes.min_xi2, np.argmin, xi2),
                                         (extremes.max_xi2, np.argmax, xi2),
                                         (extremes.max_concurrence, np.argmax, conc)]:
            k = pick(column)
            assert t == times[k]
            assert value == column[k] or (math.isnan(value) and math.isnan(column[k]))


class TestCsvWriter:
    @pytest.mark.parametrize("command", ["evolve", "scan"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_precision_is_usage_error(self, command, from_config, tmp_path,
                                               monkeypatch, capsys):
        def no_computation(*args, **kwargs):
            raise AssertionError("trajectory computed before --precision was checked")

        monkeypatch.setattr(evolution, "evolve_blocks", no_computation)
        out = tmp_path / "x.csv"
        args = [command, "--n", "2", "--t-max", "1", "--dt", "0.5", "--out", str(out)]
        if from_config:
            config = tmp_path / "run.cfg"
            config.write_text("precision = -1\n")
            args += ["--config", str(config)]
        else:
            args += ["--precision", "-1"]
        assert run_cli(args) == 2
        assert "--precision" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["evolve", "--n", "1"], "--n"),
        (["scan", "--n", "1,4"], "--n"),
        (["evolve", "--n", "4", "--mu", "nan"], "non-finite Hamiltonian coefficient"),
        (["evolve", "--n", "4", "--dt", "0"], "invalid time grid"),
        (["evolve", "--n", "4", "--t-max", "nan"], "invalid time grid"),
        (["evolve", "--n", "4", "--model", "two-axis", "--gamma", "1e308"], "overflow"),
        (["evolve", "--n", "4", "--model", "general", "--f-coeffs", "1,inf"], "non-finite"),
        (["scan", "--n", "2", "--dt", "0"], "invalid time grid"),
        (["scan", "--model", "two-axis", "--n", "2,4", "--gamma", "1,1e308"], "overflow"),
        (["scan", "--n", ""], "empty scan grid"),
        # an empty grid makes no RunConfig, so its bad --precision is never read
        (["scan", "--n", "", "--precision", "-1"], "empty scan grid"),
        # a repeated value would run the same point again and print its row twice
        (["scan", "--model", "one-axis-field", "--n", "3,2,3", "--omega", "1"],
         "--n lists 3 more than once"),
        (["scan", "--model", "one-axis-field", "--n", "2", "--omega", "1,0.5,1"],
         "--omega lists 1.0 more than once"),
    ], ids=["evolve", "scan", "evolve-nan-mu", "evolve-zero-dt", "evolve-nan-t-max",
            "evolve-overflowing-gamma", "evolve-infinite-f", "scan-zero-dt",
            "scan-overflowing-gamma", "scan-empty-grid", "scan-empty-grid-bad-precision",
            "scan-repeated-n", "scan-repeated-omega"])
    def test_usage_errors_are_refused_before_computing(self, args, message, monkeypatch, capsys):
        # every usage error is refused before the CSV header or the first block
        original, calls = evolution.evolve_blocks, []

        def spy(*call_args):
            calls.append(call_args)
            return original(*call_args)

        monkeypatch.setattr(evolution, "evolve_blocks", spy)
        # the case's own --t-max or --dt comes last, so it wins
        assert run_cli(args[:1] + ["--t-max", "1", "--dt", "0.5"] + args[1:]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert calls == []
        assert err.count("error:") == 1 and message in err

    def test_precision_zero_keeps_format_output(self, tmp_path):
        out = tmp_path / "p0.csv"
        assert run_cli(["evolve", "--n", "3", "--t-max", "1", "--dt", "0.25",
                        "--precision", "0", "--out", str(out)]) == 0
        cols = evolve_columns(cli.RunConfig(n_qubits=3, t_max=1, dt=0.25))
        for k, row in enumerate(read_rows(out)):
            assert row["branch"] == cols["branch"][k]
            assert row["degenerate_flag"] == str(cols["degenerate_flag"][k])
            assert row["t"] == format(cols["t"][k], ".0g")
            assert row["sz2"] == format(cols["sz2"][k], ".0g")

    @pytest.mark.parametrize("values", [np.array([1j]), np.array([True]), [b"x"]])
    def test_bad_table_is_value_error_before_open(self, values, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="column 'c'"):
            cli.write_csv(str(out), ("c",), [{"c": values}], 17)
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(FLOATS, st.integers(-2**63, 2**63 - 1), TEXT),
                      min_size=1, max_size=8),
        precision=st.sampled_from([0, 1, 6, 15, 16, 17, 25]),
    )
    def test_row_template_matches_format(self, rows, precision):
        floats, ints, texts = (list(col) for col in zip(*rows))
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli.write_csv("-", ("x", "n", "s"), [{"x": floats, "n": ints, "s": texts}], precision)
        expected = "".join(
            f"{format(x, f'.{precision}g')},{n},{s}\n" for x, n, s in rows
        )
        assert buffer.getvalue() == "x,n,s\n" + expected


@pytest.mark.parametrize("args", [
    ["evolve", "--n", "4"], ["scan", "--model", "one-axis-field", "--n", "2,4", "--omega", "1,2"],
], ids=["evolve", "scan"])
def test_output_in_missing_directory_is_named(args, tmp_path, monkeypatch, capsys):
    # the error names the given path, not the temporary file beside it, and
    # comes before any block is propagated
    calls = []
    monkeypatch.setattr(evolution, "propagate", lambda *a: calls.append(a))
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(args + ["--t-max", "1", "--dt", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert ".tmp" not in err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


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
        # `--workers 1`, the one value accepted, is the run without the flag
        out_a = tmp_path / "w1.csv"
        out_b = tmp_path / "default.csv"
        args = ["scan", "--model", "two-axis", "--n", "4,2,6", "--gamma", "1",
                "--t-max", "1", "--dt", "0.05"]
        assert run_cli(args + ["--out", str(out_a), "--workers", "1"]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        ns = [int(r["n"]) for r in read_rows(out_a)]
        assert ns == sorted(ns)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_general_scan_keeps_f_coeffs(self, source, tmp_path):
        # the polynomial used to be dropped: the scan ran f = () (min_xi2 0.28398)
        flags = ["--model", "general", "--n", "4", "--mu", "1", "--gamma", "0.5",
                 "--t-max", "2", "--dt", "0.1"]
        config = tmp_path / "f.cfg"
        config.write_text("f_coeffs = 0,3\n")
        f_coeffs = ["--f-coeffs", "0,3"] if source == "flag" else ["--config", str(config)]
        assert run_cli(["scan", *flags, *f_coeffs, "--out", str(tmp_path / "scan.csv")]) == 0
        assert run_cli(["evolve", *flags, "--f-coeffs", "0,3",
                        "--out", str(tmp_path / "evolve.csv")]) == 0
        (scan,) = read_rows(tmp_path / "scan.csv")
        xi2 = [float(row["xi2_closed"]) for row in read_rows(tmp_path / "evolve.csv")]
        assert float(scan["min_xi2"]) == min(xi2) == pytest.approx(0.313364, abs=1e-6)

    @pytest.mark.parametrize("model_args", [
        ["--model", "one-axis", "--mu", "1"],
        ["--model", "one-axis-field", "--mu", "1", "--omega", "0.5"],
        ["--model", "two-axis", "--gamma", "1"],
        ["--model", "general", "--mu", "0.4", "--chi", "-0.9", "--gamma", "1.3",
         "--f-coeffs", "0,0.7,0.2"],
    ], ids=lambda model_args: model_args[1])
    def test_scan_point_equals_its_evolve_run(self, model_args, tmp_path):
        flags = ["--n", "5", *model_args, "--t-max", "3", "--dt", "0.05", "--precision", "17"]
        assert run_cli(["scan", *flags, "--out", str(tmp_path / "scan.csv")]) == 0
        assert run_cli(["evolve", *flags, "--out", str(tmp_path / "evolve.csv")]) == 0
        (point,) = read_rows(tmp_path / "scan.csv")
        rows = read_rows(tmp_path / "evolve.csv")
        xi2 = [float(row["xi2_closed"]) for row in rows]
        conc = [float(row["concurrence"]) for row in rows]
        lowest, highest, peak = rows[np.argmin(xi2)], rows[np.argmax(xi2)], rows[np.argmax(conc)]
        assert point["min_xi2"] == lowest["xi2_closed"]
        assert point["t_min_xi2"] == lowest["t"]
        assert point["max_concurrence"] == peak["concurrence"]
        assert point["t_max_concurrence"] == peak["t"]
        assert point["max_xi2"] == highest["xi2_closed"]

    @pytest.mark.parametrize("model, flag", [
        ("one-axis", "--gamma"), ("one-axis", "--omega"), ("one-axis", "--chi"),
        ("one-axis-field", "--gamma"), ("two-axis", "--mu"), ("two-axis", "--omega"),
        ("general", "--omega"),
    ])
    def test_sweep_of_ignored_coefficient_is_usage_error(self, model, flag, tmp_path, capsys):
        # such a sweep used to print one row per value, every row the same trajectory
        out = tmp_path / "x.csv"
        args = ["scan", "--model", model, "--n", "4", "--t-max", "1", "--dt", "0.5"]
        assert run_cli(args + [flag, "1,2", "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()
        # one value, or one value repeated, printed a column the trajectory never read
        for value in ("2", "2,2"):
            assert run_cli(args + [flag, value, "--out", str(out)]) == 2
            assert flag in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("model", ["one-axis", "one-axis-field", "two-axis"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_f_coeffs_outside_general_is_usage_error(self, model, from_config, tmp_path, capsys):
        out = tmp_path / "x.csv"
        args = ["scan", "--model", model, "--n", "4", "--t-max", "1", "--dt", "0.5",
                "--out", str(out)]
        if from_config:
            config = tmp_path / "scan.cfg"
            config.write_text("f_coeffs = 0,3\n")
            args += ["--config", str(config)]
        else:
            args += ["--f-coeffs", "0,3"]
        assert run_cli(args) == 2
        assert "--f-coeffs is not read by --model " + model in capsys.readouterr().err
        assert not out.exists()

    def test_grid_is_sorted_points_of_scalars(self):
        args = cli.build_parser().parse_args(
            ["scan", "--model", "general", "--n", "4,2", "--mu", "1,2", "--gamma", "0.5",
             "--f-coeffs", "0,1"])
        grid = cli._run_configs(args)
        assert [(cfg.n_qubits, cfg.mu) for cfg in grid] == [(2, 1.0), (2, 2.0), (4, 1.0), (4, 2.0)]
        for cfg in grid:
            assert type(cfg.n_qubits) is int
            assert all(type(getattr(cfg, c)) is float for c in cli.SCAN_AXES)
            assert cfg.f_coeffs == (0.0, 1.0) and cfg.gamma == 0.5

    def test_empty_grid_usage_error(self, tmp_path):
        assert run_cli(["scan", "--n", "", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("n_list", ["2.9,4", "4,2.0", "1e1"])
    def test_non_integer_n_is_usage_error(self, n_list, tmp_path, capsys):
        # a fractional N used to be truncated: --n 2.9,4 ran N=2 and N=4
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(["scan", "--n", n_list, "--t-max", "1", "--dt", "0.5", "--out", str(out)])
        assert err.value.code == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--mu", "--omega", "--f-coeffs"])
    @pytest.mark.parametrize("command", ["scan", "evolve"])
    def test_non_number_coefficient_is_usage_error(self, command, flag, tmp_path, capsys):
        # a list flag used to print "invalid _parse_floats value"
        out = tmp_path / "x.csv"
        for value in ("abc", "1,x"):
            with pytest.raises(SystemExit) as err:
                run_cli([command, "--model", "general", flag, value, "--out", str(out)])
            assert err.value.code == 2
            message = capsys.readouterr().err
            assert f"argument {flag}: " in message and "_parse" not in message
            if command == "scan" or flag == "--f-coeffs":  # a list of numbers
                assert f"expected numbers, got {value!r}" in message
            else:  # evolve's one number
                assert f"invalid float value: {value!r}" in message
            assert not out.exists()

    def test_non_finite_coefficient_is_refused_before_any_point_runs(self, monkeypatch,
                                                                     tmp_path, capsys):
        # the NaN point used to be refused only when the scan reached it
        rows = TestStreaming.record_blocks(monkeypatch)
        out = tmp_path / "x.csv"
        assert run_cli(["scan", "--model", "one-axis-field", "--n", "4,6", "--omega", "0.5,nan",
                        "--t-max", "5", "--dt", "0.01", "--out", str(out)]) == 2
        assert rows == []
        assert "non-finite Hamiltonian coefficient" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_n_in_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "scan.cfg"
        config.write_text("n = 2.9, 4\nt_max = 1\ndt = 0.5\n")
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(["scan", "--config", str(config), "--out", str(out)])
        assert err.value.code == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_n_list_with_spaces(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli(["scan", "--n", " 4, 2", "--t-max", "1", "--dt", "0.5",
                        "--out", str(out)]) == 0
        assert [int(r["n"]) for r in read_rows(out)] == [2, 4]

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

    def test_workers_capped_at_grid_size(self, monkeypatch, capsys, tmp_path):
        # a scan runs in one process: any count but 1 is refused before the
        # output file is made, and no run builds a process pool
        built = []

        class StubPool:
            def __init__(self, *args, **kwargs):
                built.append(kwargs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", StubPool)
        args = ["scan", "--n", "2,3", "--t-max", "1", "--dt", "0.5"]
        assert run_cli(args + ["--workers", "1000", "--out", str(tmp_path / "x.csv")]) == 2
        assert "--workers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run_cli(args + ["--workers", "1", "--out", str(tmp_path / "a.csv")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert built == []

    def test_workers_from_config_other_than_one_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("workers = 2\n")
        out = tmp_path / "x.csv"
        assert run_cli(["scan", "--config", str(config), "--n", "2", "--t-max", "1",
                        "--dt", "0.5", "--out", str(out)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


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

    def test_only_randomized_suites_take_a_seed(self, capsys):
        # per the module docstring; the registry passes the seed only to these
        randomized = ("lemma1", "lemma2", "x-form")
        for name in verify.RUNNERS:
            suite = getattr(verify, "suite_" + name.replace("-", "_"))
            takes_seed = "seed" in inspect.signature(suite).parameters
            assert takes_seed == (name in randomized), name
        for name in randomized:
            printed = []
            for seed in ("1", "2"):
                assert run_cli(["verify", name, "--seed", seed]) == 0
                lines = capsys.readouterr().out.splitlines()
                printed.append([line for line in lines if "residual" in line])
            assert printed[0] != printed[1], name

    def test_named_only_suite_runs_by_name_and_not_under_all(self, monkeypatch, capsys):
        # a suite put in the registry alone is offered and run by name only
        monkeypatch.setitem(verify.RUNNERS, "extra",
                            lambda seed: [verify.Check("extra_check", 0.0, 1.0)])
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--help"])
        assert err.value.code == 0
        assert "extra" in capsys.readouterr().out
        assert run_cli(["verify", "extra"]) == 0
        out = capsys.readouterr().out
        assert "pass  extra_check" in out and out.endswith("1/1 checks passed\n")
        assert run_cli(["verify", "all", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "extra_check" not in out and out.endswith("129/129 checks passed\n")

    @pytest.mark.parametrize("suite, target, field, failing", [
        (lambda: verify.suite_lemma1(0, samples=20, n_values=[3]),
         (verify, "perpendicular_correlation_min"), None, ["lemma1_correlation_N3"]),
        (lambda: verify.suite_lemma3(n_values=[4], points=5),
         (verify, "collective_moments"), "sx2", ["lemma3_moments_N4"]),
        (lambda: verify.suite_prop3(n_values=[4], t_max=0.5),
         (pairwise, "concurrence_x_form"), "concurrence", ["prop3_identity_N4"]),
        (lambda: verify.suite_prop4(n_values=[4], t_max=0.5),
         (pairwise, "squeezing_even_odd"), None, ["prop4_xi2_bound_N4", "prop4_identity_N4"]),
        (lambda: verify.suite_parity(n_values=[4], t_max=0.5),
         (verify, "collective_moments"), "sp_mean",
         [f"parity_transverse_{name}_N4" for name in verify._model_specs()]),
    ], ids=["lemma1", "lemma3", "prop3", "prop4", "parity"])
    def test_nan_residual_fails(self, suite, target, field, failing, monkeypatch):
        # one NaN row in a quantity a residual is reduced from must fail the
        # check, not be dropped by a max against 0.0
        original = getattr(*target)

        def poisoned(*args):
            result = original(*args)
            values = np.array(result if field is None else getattr(result, field))
            values[1] = np.nan
            return values if field is None else dataclasses.replace(result, **{field: values})

        monkeypatch.setattr(*target, poisoned)
        checks = {c.name: c for c in suite()}
        for name in failing:
            assert np.isnan(checks[name].residual) and not checks[name].passed, name

    @pytest.mark.parametrize("suite, target, field, failing", [
        (lambda: verify.suite_prop3(n_values=[4], t_max=0.5),
         (pairwise, "concurrence_x_form"), "concurrence", ["prop3_identity_N4"]),
        (lambda: verify.suite_prop4(n_values=[4], t_max=0.5),
         (pairwise, "squeezing_even_odd"), None, ["prop4_xi2_bound_N4", "prop4_identity_N4"]),
    ], ids=["prop3", "prop4"])
    def test_trajectory_checks_span_several_blocks(self, suite, target, field, failing,
                                                   monkeypatch):
        single = {c.name: c.residual for c in suite()}
        monkeypatch.setattr(evolution, "BLOCK_AMPLITUDES", 20 * 5)  # 20 rows at N=4
        original_propagate, rows = evolution.propagate, []

        def propagate(propagator, times, table=None):
            rows.append(len(times))
            return original_propagate(propagator, times, table)

        monkeypatch.setattr(evolution, "propagate", propagate)
        checks = suite()
        blocks = len(rows)
        assert rows == [20, 20, 11] * (blocks // 3)  # 51 times, per trajectory
        for check in checks:
            # a block boundary may change the last bits (see README)
            assert check.passed, check.name
            assert abs(check.residual - single[check.name]) <= 1e-15, check.name

        # a NaN in the last block of the last trajectory only must still fail
        original, calls = getattr(*target), []

        def poisoned(*args):
            result = original(*args)
            calls.append(args)
            if len(calls) < blocks:
                return result
            values = np.array(result if field is None else getattr(result, field))
            values[-1] = np.nan
            return values if field is None else dataclasses.replace(result, **{field: values})

        monkeypatch.setattr(*target, poisoned)
        checks = {c.name: c for c in suite()}
        assert len(calls) == blocks
        for name in failing:
            assert np.isnan(checks[name].residual) and not checks[name].passed, name

    def test_lemma2_mutation_detected(self, monkeypatch, capsys):
        # flip one sign in the moment-to-matrix-element map; the partial-trace
        # comparison must catch it
        original = pairwise.reduced_two_qubit

        def mutated(m):
            r = original(m)
            return pairwise.TwoQubitReduced(
                v_plus=r.v_minus, v_minus=r.v_plus,  # sign of the <Sz> shift flipped
                y=r.y, x_plus=r.x_plus, x_minus=r.x_minus, u=r.u,
            )

        monkeypatch.setattr(pairwise, "reduced_two_qubit", mutated)
        checks = verify.suite_lemma2(seed=0, per_n=20, n_values=(3, 4))
        assert any(not c.passed for c in checks)
