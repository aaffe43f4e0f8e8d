"""spinsqueeze benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a source checkout; the package is imported from src/.
Each call of `spinsqueeze.cli.main` runs in a fresh child process (child.py),
one at a time, so the load is a closed loop of one client. After an untimed
warm-up child, --trace 0 runs set-up-only children and then timed children
until the time is used; --trace 1 alternates untraced and traced children.
Every output is checked (workloads.check_output). The last line of stdout is
one JSON object: correct, attempted, failed and metrics -- the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3  # set-up-only children before each untraced call, for a steady setup_s
MIN_CALLS = 2  # timed children of each mode per run, whatever --seconds says
RUN_LIMIT_S = 170.0  # a run ends, with an error if need be, within this time

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
RUN_LAYER = {"run.wall_s": "s", "trace.wall_s": "s", "run.cpu_s": "s",
             "trace.overhead": "ratio"}
PER_LAYER = {**{m: unit for m, (unit, _, _) in tracer.LAYER_METRICS.items()}, **RUN_LAYER}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed output check)."""


def nproc() -> int:
    """CPUs this process may run on; the children always get this many BLAS threads."""
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    info = {"blas_threads": f"OPENBLAS_NUM_THREADS={nproc()}", "nproc": nproc(), "cpu": "unknown"}
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        info["cpu"] = models[0] if models else "unknown"
        cache_dir = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache_dir)):
            if not index.startswith("index"):
                continue
            with open(f"{cache_dir}/{index}/level") as handle:
                level = handle.read().strip()
            with open(f"{cache_dir}/{index}/size") as handle:
                if level in ("2", "3"):
                    info[f"L{level}"] = handle.read().strip()
    except OSError:
        pass
    info["bytes"] = "every *_bytes value is computed from array or file sizes"
    info["bandwidth"] = "memory bandwidth is not measured"
    return info


class Runner:
    """Launches children for one workload and seed, and collects their results."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, self.env.get("PYTHONPATH")]))
        self.env["OPENBLAS_NUM_THREADS"] = str(nproc())
        self.count = 0

    def launch(self, mode: str) -> dict:
        """Run one child to completion and return its result."""
        self.count += 1
        run_id = f"{self.workload}-s{self.seed}-{os.getpid()}-{self.count}"
        out = os.path.join(OUT_DIR, run_id)
        spec = {"workload": self.workload, "seed": self.seed, "tiny": self.tiny,
                "mode": mode, "out": OUT_DIR, "run_id": run_id}
        try:
            with open(out + ".stderr", "w") as stderr:
                spec["launch"] = time.monotonic()
                proc = subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                    stdin=subprocess.DEVNULL, stdout=stderr, stderr=stderr, env=self.env, cwd=ROOT)
                try:
                    proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise BenchError(f"{run_id}: run limit of {RUN_LIMIT_S} s reached") from None
            if proc.returncode != 0:
                raise BenchError(f"{run_id}: child exited {proc.returncode}: {_tail(out + '.stderr')}")
            with open(out + ".result.json") as handle:
                result = json.load(handle)
            if mode in ("plain", "traced"):
                result["failed"] = self._check(result, out)
            if mode == "traced":
                with open(out + ".spans.json") as handle:
                    result["layers"] = tracer.layer_metrics(json.load(handle))
        finally:
            for suffix in (".stderr", ".result.json", ".csv", ".stdout", ".spans.json"):
                if os.path.exists(out + suffix):
                    os.remove(out + suffix)
        return result

    def _check(self, result: dict, out: str) -> int:
        inputs = workloads.make_inputs(self.workload, self.seed, out + ".csv", self.tiny)
        if result.get("error"):
            print(f"{self.workload}: {result['error']}", file=sys.stderr)
        path = out + (".stdout" if inputs.kind == "verify" else ".csv")
        text = ""
        if os.path.exists(path):
            with open(path) as handle:
                text = handle.read()
        return workloads.check_output(inputs, result["exit_code"], text)

    def expected_ops(self) -> int:
        return workloads.make_inputs(self.workload, self.seed, "", self.tiny).expected_ops


def _tail(path: str) -> str:
    with open(path) as handle:
        return handle.read()[-800:].strip()


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run the children for one workload; return samples and checked counts."""
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    runner = Runner(workload, seed, tiny)
    env = runner.launch("env")["env"]  # untimed: compiles bytecode, warms the page cache
    modes = ("plain", "traced") if trace else ("plain",)
    calls, setups = [], []
    loop_start = time.monotonic()
    while True:
        mode = modes[len(calls) % len(modes)]
        if not trace:
            setups += [runner.launch("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        calls.append(runner.launch(mode))
        calls[-1]["mode"] = mode
        now = time.monotonic()
        per_call = (now - loop_start) / len(calls)
        if len(calls) >= MIN_CALLS * len(modes) and now + per_call - start > seconds:
            break
    plain = [c for c in calls if c["mode"] == "plain"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "env": {**env, **machine()},
        "setup_s": setups + [c["setup_s"] for c in calls],
        "wall_s": [c["wall_s"] for c in plain],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        "cpu_s": [c["cpu_s"] for c in plain],
        "traced": [c for c in calls if c["mode"] == "traced"],
        "attempted": runner.expected_ops() * len(calls),
        "failed": sum(c["failed"] for c in calls),
    }


def tail_percentile(samples) -> tuple:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None, None
    p = 100 * (n - 10) // n
    return p, sorted(samples)[max(0, -(-p * n // 100) - 1)]


def end_to_end(m: dict) -> dict:
    return {name: {"value": statistics.median(m[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(m: dict) -> dict:
    """Median over the traced children of each layer metric, plus run context."""
    metrics = {}
    for name, (unit, _, _) in tracer.LAYER_METRICS.items():
        values = [c["layers"][name]["value"] for c in m["traced"]]
        if any(v is None for v in values):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    metrics["run.wall_s"] = {"value": statistics.median(m["wall_s"]), "unit": "s"}
    metrics["trace.wall_s"] = {"value": statistics.median(c["wall_s"] for c in m["traced"]),
                               "unit": "s"}
    metrics["run.cpu_s"] = {"value": statistics.median(m["cpu_s"]), "unit": "s"}
    # plain and traced children alternate; a ratio within each adjacent pair
    # cancels host speed that drifts over the run
    ratios = [t["wall_s"] / p for p, t in zip(m["wall_s"], m["traced"])]
    metrics["trace.overhead"] = {"value": statistics.median(ratios), "unit": "ratio"}
    return metrics


def summary_line(m: dict) -> str:
    walls = m["wall_s"]
    p, tail = tail_percentile(walls)
    tail_text = f"p{p} {tail:.4f} s" if p else "no percentile has 10 samples beyond it"
    return (
        f"{m['workload']} seed {m['seed']}: "
        f"wall_s median {statistics.median(walls):.4f} s, {tail_text} (n={len(walls)}); "
        f"setup_s median {statistics.median(m['setup_s']):.4f} s (n={len(m['setup_s'])}); "
        f"peak_rss_mb median {statistics.median(m['peak_rss_mb']):.1f} MiB "
        f"(n={len(m['peak_rss_mb'])}); "
        f"error_frac {m['failed']}/{m['attempted']} = {m['failed'] / m['attempted']:.3g} ratio"
    )


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure, print the summary lines, and return the result object."""
    m = measure(workload, seed, seconds, trace, tiny)
    print("env " + json.dumps(m["env"], sort_keys=True))
    print(summary_line(m))
    metrics = per_layer(m) if trace else end_to_end(m)
    if trace:
        missing = [k for k, v in metrics.items() if v.get("missing")]
        print(f"missing layers: {', '.join(missing) or 'none'}")
    record = {k: v for k, v in m.items() if k != "traced"}
    record["metrics"] = metrics
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(record, handle, indent=1)
    return {"correct": m["failed"] == 0, "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinsqueeze", "cli.py")):
        print("error: no src/spinsqueeze here; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
