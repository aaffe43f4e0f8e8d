"""Every function of the package is reached by some command.

The commands below run in process under `sys.setprofile`, which sees each
entry into a Python function. A function or method defined in
`src/spinsqueeze` that none of them enters is code that no user reaches:
it should go, or move to the tests that use it. Likewise every exception
class of `errors.py` must be raised somewhere in the package, and no module
imports a way to start a thread or a process: every command runs in one
process, with BLAS's own threads.
"""

import ast
import contextlib
import inspect
import io
import sys
from pathlib import Path

import pytest

import spinsqueeze
from spinsqueeze import cli
from spinsqueeze.evolution import Propagator

PACKAGE = Path(spinsqueeze.__file__).resolve().parent
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def commands(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("model = one-axis-field\nn = 4\nomega = 0.5\nt_max = 1\ndt = 0.25\n")
    grid = ["--t-max", "1", "--dt", "0.25"]
    return [
        (["evolve", "--model", "one-axis", "--n", "4", *grid], 0),
        (["evolve", "--model", "one-axis-field", "--n", "5", "--omega", "0.7", *grid], 0),
        # 1101 times: more than one block of BLOCK_ROWS, so the phase table runs
        (["evolve", "--model", "one-axis-field", "--n", "4", "--omega", "0.7",
          "--t-max", "11", "--dt", "0.01", "--out", str(tmp_path / "blocks.csv")], 0),
        (["evolve", "--model", "two-axis", "--n", "6", "--gamma", "0.3", *grid], 0),
        (["evolve", "--model", "general", "--n", "5", "--chi", "0.4",
          "--f-coeffs", "0,0.7", *grid, "--out", str(tmp_path / "general.csv")], 0),
        (["scan", "--model", "one-axis-field", "--n", "2,3", "--omega", "0.5,2", *grid], 0),
        (["dicke", "--n", "4", "--excitations", "2"], 0),
        (["evolve", "--config", str(config)], 0),
        (["evolve", "--model", "two-axis", "--mu", "1", *grid], 2),
        (["verify", "all", "--seed", "42"], 0),
    ]


def key(code):
    """(file, first line, name): the same on every Python version."""
    return str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name


def label(code):
    # co_qualname (Python 3.11) names a method by its class
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


# read by the benchmark tracer and the tests, not by a command
UNREACHED = {key(p.fget.__code__) for p in (Propagator.dim, Propagator.modes)}


def defined_functions():
    """key -> code of every function and method in the package's source,
    lambdas and nested functions included."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            # a class body runs at import, not when a command calls it
            if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in COMPREHENSIONS:
                found[key(code)] = code
    return found


def test_every_function_is_reached_by_a_command(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    runs, sink = commands(tmp_path), io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            statuses = [cli.main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(None)
    assert statuses == [status for _, status in runs], sink.getvalue()

    reached = {key(code) for code in entered} | UNREACHED
    unreached = sorted(label(code) for k, code in defined_functions().items() if k not in reached)
    assert not unreached, "no command enters " + ", ".join(unreached)


def test_every_exception_class_is_raised_by_another_module():
    errors = PACKAGE / "errors.py"
    classes = {node.name for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        if path == errors:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    assert classes and not classes - raised, "never raised: " + ", ".join(sorted(classes - raised))
    # a class exists only where the CLI tells it apart from the others
    caught = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {t.id for t in types if isinstance(t, ast.Name)}
    assert not classes - caught, "not caught by the CLI: " + ", ".join(sorted(classes - caught))


# the standard modules that start threads or processes of their own
CONCURRENCY = {"concurrent", "multiprocessing", "threading"}


def concurrency_imports(source):
    """Every absolute import in `source` of a module in CONCURRENCY, or below one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in CONCURRENCY]
    return found


def test_the_package_runs_in_one_process():
    found = {path.name: concurrency_imports(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert not any(found.values()), found


@pytest.mark.parametrize("line", [
    "from concurrent.futures import ProcessPoolExecutor",
    "from concurrent import futures",
    "import multiprocessing",
    "import os, multiprocessing.pool as pool",
    "import threading as th",
    "def table():\n    from concurrent.futures import ProcessPoolExecutor",
])
def test_the_concurrency_guard_catches(line):
    assert concurrency_imports(line) != []
