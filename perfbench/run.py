"""Benchmark of the triqsvm training cycle and its command line.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload as a closed loop with a single
client: each operation starts when the previous one has ended.  The
workload's inputs are made from ``--seed``.  Set-up time is the median
of three imports of the package (after its third-party libraries), each
in a fresh interpreter, plus the median of nine set-ups.  Operations
repeat until ``--seconds`` have passed and every input of the run has
been used at least once and repeated once.  ``triqsvm map`` runs with
``TRIQSVM_THREADS=1`` unless the variable is set.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run instead, in which every second operation repeats the one
before it with tracing on, so the two give the tracing overhead.  Every
operation's output is checked; the exit code is 1 when any operation
failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
# The third-party libraries the package imports.  A fresh interpreter
# imports them first and then the package, and prints both times: the
# second is the package's own import, which setup_s counts.  The libraries
# are not the program's code, and their import time (0.5-0.9 s) swings by
# 15% from one interpreter to the next, which no probe tracked.
DEPENDENCIES = "numpy, scipy.optimize, click"
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, 'src'); start = time.perf_counter(); "
                f"import {DEPENDENCIES}; middle = time.perf_counter(); "
                "import triqsvm, triqsvm.cli; print(middle - start, time.perf_counter() - middle)")
# `triqsvm map` scores the grid on one thread per CPU unless TRIQSVM_THREADS
# caps it.  Its threads hold the GIL for most of the work (2.30 s with one
# thread against 2.21 s with two, 10k cells), and with two the run-to-run
# speed followed no probe, so the benchmark runs the map with one, as the
# ROADMAP's baseline table was measured.
THREADS = "1"

# The host's CPU speed drifts: on a shared 2-vCPU virtual machine the same
# code ran up to 1.8x slower for tens of seconds at a time, with CPU time
# equal to wall time.  A calibration probe runs before and after every
# set-up and operation, and before every other timed train call; the
# timings of each are divided by its probe time over PROBE_REF_S (rates
# are multiplied).  Reported timings therefore read as on a host where the
# probe takes PROBE_REF_S; raw values are printed too.
PROBE_REF_S = 0.020

# End-to-end metrics written to the result line, with their units.
END_TO_END = {
    "setup_s": "s",
    "iter_ms": "ms",
    "predict_qps": "1/s",
    "holdout_acc": "ratio",
    "peak_rss_mb": "MB",
}
# Printed beside them but not in the result line: train_s moves with the
# number of COBYLA iterations a seed's data needs (1 to 8 on hqsvm-paper),
# import_s is the whole import with the third-party libraries (setup_s
# counts the package's part only), and error_rate is 0 on a correct run;
# ``failed`` / ``attempted`` carry it.
PRINTED_ONLY = {"train_s": "s", "import_s": "s", "error_rate": "ratio"}
# How each sample field scales with the host's slowdown: timings are
# divided by it and rates multiplied.
SLOWDOWN_POWER = {"op_s": -1, "train_s": -1, "iter_ms": -1, "qps": 1}

# Per-call layer times at m=50 and m=200 from the baseline table in
# ROADMAP.md (TRIQSVM_THREADS=1, 2 CPUs, numpy 2.4.6, scipy 1.17.1), in ms.
BASELINE_MS = {
    "hqsvm-paper": {"qkernel.gram": 11.0, "qubo.build": 2.9, "anneal.solve": 1100.0},
    "qsvm-hard": {"qkernel.gram": 32.0, "qubo.build": 35.0},
}


def load_package() -> None:
    """Import triqsvm from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "triqsvm" / "__init__.py").is_file():
        print(f"perfbench: no triqsvm sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import triqsvm  # noqa: F401
    import triqsvm.cli  # noqa: F401


def import_seconds() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import the package's
    dependencies, and then the package itself."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    dependencies, package = map(float, proc.stdout.split())
    return dependencies, package


def environment() -> dict:
    import numpy
    import scipy
    from importlib.metadata import version

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "TRIQSVM_THREADS": os.environ.get("TRIQSVM_THREADS"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def probe(points: int = 200) -> float:
    """Seconds for a fixed loop of two-qubit statevector updates on tiny
    numpy arrays, the kind of work the timed layers spend their time in.
    It is written here, so no change to the program can move it."""
    import numpy as np

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    phases = np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4]))
    start = time.perf_counter()
    for _ in range(points):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        for _ in range(2):
            t = state.reshape(2, 2)
            for ax in range(2):
                t = np.moveaxis(np.tensordot(hadamard, t, axes=([1], [ax])), 0, ax)
            state = t.reshape(-1) * phases
            float(np.sum(np.abs(state) ** 2))
    return time.perf_counter() - start


def slowdown() -> float:
    """How much slower than the reference the host runs right now."""
    return probe() / PROBE_REF_S


def calibrated(record: dict) -> dict:
    """``record`` with its timings scaled by its ``slowdown``: a number, or
    a list aligned with the list-valued timings."""
    out = dict(record)
    factor = record["slowdown"]
    for key, power in SLOWDOWN_POWER.items():
        if isinstance(out.get(key), list):
            out[key] = [v * f ** power for v, f in zip(out[key], factor)]
        elif key in out:
            out[key] *= factor ** power
    return out


def describe(values: list[float]) -> str:
    """Sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 50):
        if n * (100 - p) / 100 >= 10:
            ranked = sorted(values)
            return f"n={n} p{p}={ranked[min(n - 1, int(p / 100 * n))]:.6g}"
    return f"n={n} (no percentile has 10 samples beyond it)"


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    import workloads
    from tracing import LAYER_METRICS, Tracer, layer_metrics, per_call_ms

    work = HERE / "_work" / f"{wl.name}-{seed}-{os.getpid()}"
    tracer = Tracer(enabled=trace)
    lines, failures, samples = [], [], []
    attempted = 0
    try:
        states, setups = [], []
        imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            before = slowdown()
            start = time.perf_counter()
            with tracer.span("bench.setup"):
                states.append(wl.setup(seed, work, tracer))
            elapsed = time.perf_counter() - start
            factor = (before + slowdown()) / 2
            setups.append((elapsed, factor))
            states[-1]["slowdown"] = [factor]
        state = states[-1]
        attempted += 1
        if any(s["inputs"] != state["inputs"] for s in states):
            failures.append("set-up: repeated set-ups made different input files")
        try:
            wl.references(state, seed, slowdown)
        except workloads.CheckFailed as exc:
            failures.append(f"set-up: {exc}")

        begin = time.perf_counter()
        i = 0
        minimum = 2 if trace else wl.min_ops()
        while i < minimum or time.perf_counter() - begin < seconds:
            traced = trace and i % 2 == 1
            key = i // 2 if trace else i
            tracer.enabled = traced
            if traced:
                workloads.install(tracer)
            attempted += 1
            try:
                before = slowdown()
                with tracer.span("bench.op"):
                    sample = wl.operation(state, key, tracer)
                factor = (before + slowdown()) / 2
                samples.append((traced, key, dict(sample, slowdown=factor)))
            except workloads.CheckFailed as exc:
                failures.append(f"op {i}: {exc}")
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
                failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            finally:
                tracer.unwrap()
                tracer.enabled = False
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if trace:
        layers = layer_metrics(tracer)
        pairs = {}
        for traced, key, sample in samples:
            pairs.setdefault(key, {})[traced] = calibrated(sample)["op_s"]
        ratios = [p[True] / p[False] for p in pairs.values() if len(p) == 2]
        if ratios:
            layers["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        units["trace.overhead_frac"] = "ratio"
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": units[name]}
            lines.append(f"{name:<26} {value:.6g} {units[name]}")
        for name in tracer.missing:
            lines.append(f"absent: entry point {name} not found; its metrics are left out")
        train_ms = per_call_ms(tracer, "optimize.train")
        if train_ms and "anneal.solve_s" in layers:
            lines.append(f"share of the traced train in anneal.solve_s: "
                         f"{layers['anneal.solve_s'] * 1e3 / train_ms:.1%} "
                         f"(train {train_ms / 1e3:.4g} s per call)")
        for layer, base in BASELINE_MS.get(wl.name, {}).items():
            measured = per_call_ms(tracer, layer)
            if measured is not None:
                ratio = measured / base
                flag = "" if 0.5 <= ratio <= 2.0 else "  (outside 0.5-2x)"
                lines.append(f"baseline {layer}: {measured:.4g} ms per call vs {base:g} ms "
                             f"in ROADMAP.md = {ratio:.2f}x{flag}")
        write_trace(wl.name, seed, tracer, metrics)
    else:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        ops = [sample for _, _, sample in samples]
        raw = wl.end_to_end(states, ops)
        cal = wl.end_to_end([calibrated(s) for s in states], [calibrated(s) for s in ops])
        # The imports run in other processes, which the probe does not
        # track, so they are reported raw.
        package_s = statistics.median(p for _, p in imports)
        for values, power in ((raw, 0), (cal, -1)):
            setup_s = statistics.median(t * f ** power for t, f in setups)
            values.update(import_s=[d + p for d, p in imports], setup_s=[package_s + setup_s],
                          peak_rss_mb=rss)
        for name in (*END_TO_END, "import_s", "train_s"):
            if not cal[name]:
                continue
            value = statistics.median(cal[name])
            unit = END_TO_END.get(name) or PRINTED_ONLY[name]
            if name in END_TO_END:
                metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<14} {value:<12.6g} {unit:<6} {describe(cal[name])}; "
                         f"as measured {statistics.median(raw[name]):.6g}")
    factors = [f for s in states for f in s["slowdown"]] + [s["slowdown"] for *_, s in samples]
    lines.append(f"host slowdown: median {statistics.median(factors):.4f} over "
                 f"{len(factors)} probes")
    failed = len(failures)
    lines.append(f"{'error_rate':<14} {failed / attempted:<12.6g} {'ratio':<6} "
                 f"{failed} of {attempted} operations failed")
    lines.extend(f"FAILED {message}" for message in failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def write_trace(workload: str, seed: int, tracer, metrics: dict) -> None:
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    spans = [{"id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
              "start": s.start, "end": s.end, "counts": s.counts} for s in tracer.spans]
    payload = {"workload": workload, "seed": seed, "environment": environment(),
               "metrics": metrics, "missing": tracer.missing, "spans": spans}
    (out / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(payload) + "\n")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        try:
            result = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.setdefault("TRIQSVM_THREADS", THREADS)
    load_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    try:
        result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace))
    except Exception:  # noqa: BLE001 - no result without inputs; report and exit 2
        traceback.print_exc()
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
