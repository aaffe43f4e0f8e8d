"""Command-line interface: evolve, scan, dicke, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
size too large for the available memory), 3 numerical error, 141 a reader
that closed the output pipe. CSV output is deterministic (LF line endings,
'.' decimal separator, fixed significant-digit formatting), so identical
configs produce identical bytes.
`evolve` and `scan` propagate, analyse and write one block of times at a
time, so their memory does not grow with the length of the time grid.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
import tempfile

import numpy as np

from . import verify as verify_mod
from .dicke import make_dicke_state
from .errors import NumericalError
from .evolution import time_grid, trajectory
from .hamiltonians import HamiltonianSpec, sector_bands
from .pairwise import analyse

# model -> (its HamiltonianSpec constructor, the coefficients it reads, in
# argument order); a coefficient flag a model does not read is refused
MODELS = {
    "one-axis": (HamiltonianSpec.one_axis, ("mu",)),
    "one-axis-field": (HamiltonianSpec.one_axis_field, ("mu", "omega")),
    "two-axis": (HamiltonianSpec.two_axis, ("gamma",)),
    "general": (HamiltonianSpec, ("mu", "chi", "gamma", "f_coeffs")),
}

EVOLVE_COLUMNS = (
    "t", "xi2_closed", "xi2_general", "mean_spin_norm", "degenerate_flag",
    "concurrence", "branch", "u_re", "u_im", "y", "v_plus", "v_minus",
    "sz_mean", "sz2", "sp2_re", "sp2_im",
)


@dataclasses.dataclass
class RunConfig:
    model: str = "one-axis"
    n_qubits: int = 6
    mu: float = 1.0
    chi: float = 0.0
    gamma: float = 1.0
    omega: float = 0.0
    f_coeffs: tuple = ()
    t_max: float = 10.0
    dt: float = 0.01
    output_path: str = ""
    precision: int = 17

    def __post_init__(self):
        # checked before any computation, so a bad value leaves no output file
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.n_qubits < 2:
            raise ValueError(f"--n must be at least 2, got {self.n_qubits}")
        if self.precision < 0:
            raise ValueError(f"--precision must be at least 0, got {self.precision}")
        time_grid(self.t_max, self.dt)
        sector_bands(self.spec(), self.n_qubits)  # a coefficient that is not finite or overflows

    def spec(self) -> HamiltonianSpec:
        build, reads = MODELS[self.model]
        return build(*(getattr(self, c) for c in reads))


# the RunConfig fields that some model reads, in field order: each has a flag,
# and each but the one polynomial f_coeffs is an axis of the scan grid
COEFFICIENTS = tuple(f.name for f in dataclasses.fields(RunConfig)
                     if any(f.name in reads for _, reads in MODELS.values()))
SCAN_AXES = tuple(c for c in COEFFICIENTS if c != "f_coeffs")

SCAN_COLUMNS = (
    "model", "n", *SCAN_AXES, "min_xi2", "t_min_xi2", "mubar_min_xi2",
    "max_concurrence", "t_max_concurrence", "max_xi2", "max_xi2_exceeds_one",
)


def evolve_rows(times, states) -> dict:
    """The table of one block of times: `t`, then the analysis of its states."""
    return {"t": times, **analyse(states)}


def row_blocks(cfg: RunConfig):
    """The table of each block of the trajectory, from `evolve_rows`. A
    block's states are let go once its table is made, before the next
    block is propagated."""
    yield from itertools.starmap(
        evolve_rows, trajectory(cfg.spec(), cfg.n_qubits, cfg.t_max, cfg.dt))


def write_csv(path, columns, blocks, precision: int):
    """`blocks` is an iterable of tables, each mapping every column name to
    its values for the next rows. One %-template per table formats each line:
    `%.<precision>g` for floats (it prints nan, inf and -0 exactly as
    `format(v, ".<precision>g")` does), `%d` for ints, `%s` for strings.
    A regular file is written whole or not at all: the lines go to a
    temporary file beside it, which replaces it only after the last block.
    The header goes with the first line, and no table is held while the
    next one is drawn."""
    conversions = {"f": f"%.{precision}g", "i": "%d", "U": "%s"}

    def table_lines(table):
        arrays = [np.asarray(table[c]) for c in columns]
        for name, values in zip(columns, arrays):
            if values.dtype.kind not in conversions:
                raise ValueError(
                    f"CSV column {name!r} holds {values.dtype}, not float, int or str")
        template = ",".join(conversions[a.dtype.kind] for a in arrays) + "\n"
        return (template % row for row in zip(*(a.tolist() for a in arrays)))

    def lines():
        # chain drops each table's lines before it draws the next table; the
        # header waits for the first line, so a run that fails before it prints nothing
        body = itertools.chain.from_iterable(map(table_lines, blocks))
        yield ",".join(columns) + "\n" + next(body, "")
        yield from body

    if path in ("", "-"):
        sys.stdout.writelines(lines())
        sys.stdout.flush()  # a closed pipe raises here, where main reports it
        return
    target = os.path.realpath(path)  # through a symlink, as open() writes
    if os.path.exists(target) and not os.path.isfile(target):  # a device or a pipe
        with open(target, "w", newline="\n") as handle:
            handle.writelines(lines())
        return
    try:
        fd, temporary = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    except OSError as exc:  # it names its own random file: name the user's path
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates the file 0600
        with open(fd, "w", newline="\n") as handle:
            handle.writelines(lines())
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _running(pick, best, values, times):
    """Fold one block into a running `pick` (np.argmin or np.argmax): `best`
    is the (value, t) chosen so far, or None. As over the whole column, the
    first occurrence wins a tie and the first NaN wins over any number."""
    i = pick(values)
    if best is not None and pick([best[0], values[i]]) == 0:
        return best
    return values[i], times[i]


class Extremes:
    """Running extremes of xi2 and concurrence over the blocks of a trajectory,
    each a (value, t) pair."""

    min_xi2 = max_xi2 = max_concurrence = None

    def add(self, times, xi2, concurrence):
        self.min_xi2 = _running(np.argmin, self.min_xi2, xi2, times)
        self.max_xi2 = _running(np.argmax, self.max_xi2, xi2, times)
        self.max_concurrence = _running(np.argmax, self.max_concurrence, concurrence, times)

    def track(self, blocks):
        """Add each table of `blocks`, then yield it."""
        for block in blocks:
            self.add(block["t"], block["xi2_closed"], block["concurrence"])
            yield block
            del block  # not held while the next block is propagated


def cmd_evolve(cfg: RunConfig) -> int:
    extremes = Extremes()
    write_csv(cfg.output_path, EVOLVE_COLUMNS, extremes.track(row_blocks(cfg)), cfg.precision)
    (xi2, t_xi2), (conc, t_conc) = extremes.min_xi2, extremes.max_concurrence
    print(
        f"min xi2 = {xi2:.6g} at t = {t_xi2:.6g}; "
        f"max concurrence = {conc:.6g} at t = {t_conc:.6g}",
        file=sys.stderr,
    )
    return 0


def _scan_point(cfg: RunConfig) -> dict:
    """The scan row of one grid point, from the trajectory `evolve` writes for `cfg`."""
    extremes = Extremes()
    for _ in extremes.track(row_blocks(cfg)):
        pass
    min_xi2, t_min_xi2 = extremes.min_xi2
    max_concurrence, t_max_concurrence = extremes.max_concurrence
    max_xi2 = extremes.max_xi2[0]
    return {
        "model": cfg.model,
        "n": cfg.n_qubits,
        **{c: getattr(cfg, c) for c in SCAN_AXES},
        "min_xi2": min_xi2,
        "t_min_xi2": t_min_xi2,
        "mubar_min_xi2": 2.0 * cfg.mu * t_min_xi2,
        "max_concurrence": max_concurrence,
        "t_max_concurrence": t_max_concurrence,
        "max_xi2": max_xi2,
        "max_xi2_exceeds_one": int(max_xi2 > 1.0 + 1e-9),
    }


def cmd_scan(grid) -> int:
    """One CSV row per RunConfig of `grid`, in its order, from the trajectory
    `evolve` would write for it. Every point was checked, its Hamiltonian
    included, when it was made, and the output file is made before the
    first one runs."""
    if not grid:
        raise ValueError("empty scan grid")

    def table():  # drawn by write_csv once it has made the file
        rows = [_scan_point(point) for point in grid]
        yield {c: [row[c] for row in rows] for c in SCAN_COLUMNS}
    write_csv(grid[0].output_path, SCAN_COLUMNS, table(), grid[0].precision)
    return 0


def cmd_dicke(n_qubits: int, n_excited: int) -> int:
    row = analyse(make_dicke_state(n_qubits, n_excited))
    print(f"Dicke state: N = {n_qubits}, excitations = {n_excited}")
    print(f"xi2          = {row['xi2_closed']:.17g}")
    print(f"concurrence  = {row['concurrence']:.17g}  (branch: {row['branch']})")
    for name in ("v_plus", "v_minus", "y"):
        print(f"{name:<12} = {row[name]:.17g}")
    print(f"u            = {row['u_re']:.17g}{row['u_im']:+.17g}j")
    for name in ("x_plus", "x_minus"):
        print(f"{name:<12} = {row[name].real:.17g}{row[name].imag:+.17g}j", flush=True)
    return 0


def cmd_verify(suite: str, seed: int) -> int:
    checks = verify_mod.run_suite(suite, seed)
    print(f"suite: {suite}   rng: {verify_mod.RNG_ALGORITHM}   seed: {seed}")
    width = max(len(c.name) for c in checks)
    failures = 0
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        print(
            f"{status}  {check.name:<{width}}  residual {check.residual:.3e}"
            f"  tolerance {check.tolerance:.1e}"
        )
        failures += not check.passed
    print(f"{len(checks) - failures}/{len(checks)} checks passed", flush=True)
    return 0 if failures == 0 else 1


def _comma_list(kind, noun: str):
    """The argparse type of a comma-separated list of `kind` values, empty
    items skipped; a bad item is reported as "expected <noun>"."""
    def parse(text: str):
        try:
            return tuple(kind(part) for part in text.split(",") if part.strip())
        except ValueError:  # argparse names the flag: "argument --n: ..."
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
    return parse


def load_config_file(path: str) -> list:
    """Flat `key = value` file; keys match the CLI flag names. Returns the
    entries as `--key=value` arguments for the subcommand's own parser."""
    flags = []
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Collective-spin squeezing and pairwise entanglement toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, listy=False):
        p.add_argument("--model", choices=MODELS, default=None)
        for name in COEFFICIENTS:  # a scan sweeps a list of each axis
            kind = _comma_list(float, "numbers") if listy or name not in SCAN_AXES else float
            p.add_argument(_flag(name), dest=name, type=kind, default=None)
        p.add_argument("--t-max", dest="t_max", type=float, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--out", dest="output_path", default=None)
        p.add_argument("--precision", type=int, default=None)
        p.add_argument("--config", default=None)

    evolve = sub.add_parser("evolve", help="trajectory CSV for one configuration")
    add_common(evolve)
    evolve.add_argument("--n", dest="n_qubits", type=int, default=None)

    scan = sub.add_parser("scan", help="grid scan over N and coefficients")
    add_common(scan, listy=True)
    scan.add_argument("--n", dest="n_qubits", type=_comma_list(int, "integers"),
                      default=tuple(range(2, 11)), metavar="N_LIST")
    scan.add_argument("--workers", type=int, default=1)

    dicke = sub.add_parser("dicke", help="squeezing/concurrence of a Dicke state")
    dicke.add_argument("--n", type=int, required=True)
    dicke.add_argument("--excitations", type=int, required=True)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite", choices=(*verify_mod.RUNNERS, "all"))
    ver.add_argument("--seed", type=int, default=0)

    return parser


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _run_configs(args) -> list:
    """The RunConfig of each point of the run, in sorted order. Each argparse
    dest is named after its RunConfig field; a flag given neither on the
    command line nor in the config file keeps the default. N and each
    SCAN_AXES field given as a list (by `scan`) are the axes of the grid, so
    `evolve` gives one point. A coefficient flag that the model does not
    read is refused: it would change nothing. So is a value repeated in a
    list: it would run the same point again."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    model = given.get("model", RunConfig.model)
    reads = MODELS[model][1]
    for name in COEFFICIENTS:
        if name in given and name not in reads:
            raise ValueError(
                f"{_flag(name)} is not read by --model {model}, which reads only "
                + ", ".join(map(_flag, reads))
            )
    axes = [c for c in ("n_qubits", *SCAN_AXES) if isinstance(given.get(c), tuple)]
    for axis in axes:
        values = given[axis]
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            flag = _flag("n" if axis == "n_qubits" else axis)
            raise ValueError(f"{flag} lists {repeated[0]!r} more than once")
    return [RunConfig(**{**given, **dict(zip(axes, point))})
            for point in sorted(itertools.product(*(given[c] for c in axes)))]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dicke":
            return cmd_dicke(args.n, args.excitations)
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed)
        if args.config:
            # file entries go before the command-line flags, which therefore win
            rest = argv[argv.index(args.command) + 1:]
            args = parser.parse_args([args.command, *load_config_file(args.config), *rest])
        grid = _run_configs(args)
        if args.command == "evolve":
            return cmd_evolve(*grid)
        if args.workers != 1:  # a scan runs in one process
            raise ValueError(f"--workers accepts only 1, got {args.workers}")
        return cmd_scan(grid)
    except BrokenPipeError:  # the reader closed stdout: report it as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return 141
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: an --n too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
