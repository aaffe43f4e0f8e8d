"""One measured process: set up, call `spinsqueeze.cli.main` once, report.

Usage (from run.py): python3 child.py '<json spec>'. The spec names the
workload, seed, output directory, run id, the parent's monotonic clock
reading taken just before launch, and the mode: "env" (report the
environment), "setup" (stop after set-up), "plain" or "traced".
The result goes to <out>/<run_id>.result.json; the program's own output
goes to <out>/<run_id>.csv (evolve, scan) or <run_id>.stdout (verify).
"""

import contextlib
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process image, which ran one call.

    VmHWM belongs to the address space made by exec. ru_maxrss (RUSAGE_SELF
    here, or os.wait4 in the parent) also keeps the launching parent's peak
    from before the exec, and RUSAGE_CHILDREN is a maximum over all children.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict:
    import numpy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        for lib in ("blas", "lapack"):
            env[lib] = f"{deps[lib]['name']} {deps[lib].get('version', '?')}"
    except (TypeError, KeyError):
        env["blas"] = env["lapack"] = "unknown (numpy.show_config has no dict mode)"
    return env


def main(spec: dict) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from spinsqueeze import cli
    import workloads

    out = os.path.join(spec["out"], spec["run_id"])
    inputs = workloads.make_inputs(spec["workload"], spec["seed"], out + ".csv", spec["tiny"])
    result = {"setup_s": time.monotonic() - spec["launch"]}
    if spec["mode"] == "env":
        result["env"] = _environment()
    if spec["mode"] in ("plain", "traced"):
        if spec["mode"] == "traced":
            from tracer import Tracer

            tracer = Tracer(spec["run_id"])
            tracer.install()
        cpu0 = _cpu_s()
        with open(out + ".stdout", "w") as captured, contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            try:
                result["exit_code"] = cli.main(list(inputs.argv))
            except Exception as exc:  # a crash counts as failed operations
                result["exit_code"] = None
                result["error"] = f"{type(exc).__name__}: {exc}"
            result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = _cpu_s() - cpu0
        if spec["mode"] == "traced":
            tracer.dump(out + ".spans.json")
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(out + ".result.json", "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
