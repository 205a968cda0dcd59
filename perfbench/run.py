"""uavlink benchmark: one workload per process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. A run measures set-up in fresh child processes, then
runs the workload's units until ``--seconds`` have passed (and at least the
workload's minimum), checks every unit's outputs, and prints a metric
table, one ``details`` JSON line and, last, the result line. ``--trace 1``
adds a traced pass over the minimum prefix of units, reports the per-layer
metrics instead of the end-to-end ones, and fails unless its result
digests match the untraced pass. The exit code is 0 only when every check
passed.
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
import tempfile
import traceback
from time import perf_counter

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
SETUP_PROBES = 10
# Seconds the reference kernel takes on the uncontended machine the
# benchmark was defined on (2-core x86-64, numpy 2.4.6, OpenBLAS 0.3.31 on
# one thread). End-to-end timings are reported in that machine's seconds.
REFERENCE_S = 0.0408


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_declared() -> dict:
    """Metric names and units from BENCHMARK.json, by section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in bench[section]}
            for section in ("end_to_end", "per_layer")}


def pin_environment() -> None:
    """Single-threaded BLAS, scratch files inside the checkout, and no git
    lookup above it. Runs before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import uavlink
    if not os.path.abspath(uavlink.__file__).startswith(SRC + os.sep):
        raise ImportError(f"uavlink comes from {uavlink.__file__}, not {SRC}")
    os.makedirs(SCRATCH, exist_ok=True)
    os.environ["TMPDIR"] = SCRATCH
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, when the library can be asked."""
    import ctypes
    import glob
    import numpy as np
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(pattern):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


class Reference:
    """A fixed kernel timed between steps: small dense linear algebra and
    interpreter work, then batched 12x12 solves and a 40000-point grid
    quantization with a working set near 1 MB, the mix the workloads run.

    Other tenants of a shared machine slow everything down by up to 2x in
    bursts that last from seconds to minutes, and slow work with a larger
    working set more; dividing a step's time by the kernel's time around it
    cancels most of that, where a run-wide median does not. Only the
    benchmark's own code and numpy run in it, so a change to uavlink moves
    the step times and never the reference.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.b = rng.standard_normal((40, 40))
        g = rng.standard_normal((200, 12, 12)) \
            + 1j * rng.standard_normal((200, 12, 12))
        self.gram = g @ g.conj().transpose(0, 2, 1) + 12.0 * np.eye(12)
        self.rhs = rng.standard_normal((200, 12, 4)) \
            + 1j * rng.standard_normal((200, 12, 4))
        self.u = rng.uniform(-1.0, 1.0, 40000)
        self.np = np
        self.seconds()  # first calls pay LAPACK's lazy set-up

    def seconds(self) -> float:
        np = self.np
        t0 = perf_counter()
        acc = 0.0
        for _ in range(600):
            acc += abs(np.linalg.det(self.a))
            acc += float(np.linalg.solve(self.b, self.b[0])[0])
            for k in range(20):
                acc += k * 0.5
        for _ in range(15):
            acc += float(np.sum(np.abs(np.linalg.solve(self.gram,
                                                       self.rhs)) ** 2))
            acc += np.unique(np.ceil((self.u + 1.0) * 6.0).astype(np.int64)
                             * 13 + np.ceil(self.u * self.u * 6.0)
                             .astype(np.int64)).size
        self.last = perf_counter() - t0
        return self.last

    def around(self, fn):
        """Time ``fn`` between two kernel timings (the previous closing one
        is reused as the opening one); returns (result, seconds, seconds scaled to
        the reference machine)."""
        before = self.last
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        after = self.seconds()
        return result, wall, wall * 2.0 * REFERENCE_S / (before + after)


def measure_setup(args, ref: Reference) -> list[float]:
    """Scaled seconds from spawning a fresh process to the end of its
    warm-up: interpreter, imports, spec construction, one warm-up call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]

    def probe() -> float:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        return t1 - t0

    times = []
    for _ in range(SETUP_PROBES):
        _, _, scaled = ref.around(probe)
        times.append(scaled)
    return times


def attempt(step, state: dict, j: int) -> bool:
    try:
        step(state)
        return True
    except Exception:  # counted as failed operations, reported below
        print(f"unit {j} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return False


def run_units(wl, out_root: str, ref: Reference, seconds: float | None = None,
              count: int | None = None, tracer=None) -> list[dict]:
    """Run ``count`` units, or units until the next would likely end past
    ``seconds`` (never fewer than ``wl.min_units``)."""
    units = []
    elapsed = 0.0
    j = 0
    while (j < count) if count is not None else (
            j < wl.min_units or elapsed + units[-1]["wall"] <= seconds):
        out_dir = os.path.join(out_root, f"unit{j}")
        os.mkdir(out_dir)
        state, steps, ok = {}, [], True
        if tracer is not None:
            tracer.enabled = True
        for phase, step in wl.steps(j, out_dir):
            ok, wall, scaled = ref.around(lambda: attempt(step, state, j))
            steps.append((phase, wall, scaled))
            if not ok:
                break
        if tracer is not None:
            tracer.enabled = False
        unit = {"wall": sum(s[1] for s in steps),
                "scaled": sum(s[2] for s in steps), "steps": steps, "ok": ok}
        elapsed += unit["wall"]
        raw = state if ok else None
        if raw is not None:
            unit["errors"] = wl.check(raw, j)
            unit["notes"] = raw.get("notes", [])
            unit.update(wl.summary(raw))
            unit["digest"] = stats.combine_digests(
                stats.file_digest(os.path.join(out_dir, name))
                for name in wl.files)
            unit["bytes"] = sum(os.path.getsize(os.path.join(out_dir, f))
                                for f in os.listdir(out_dir))
            if j == 0:
                unit["raw"] = raw
        shutil.rmtree(out_dir)
        units.append(unit)
        j += 1
    return units


def end_to_end(wl, units, setup_times) -> dict:
    """Every end-to-end figure of the workload, name -> (value, unit): the
    declared ones and the workload-specific ones of perfbench/README.md."""
    done = [u for u in units if u["ok"]]
    prefix = units[:wl.min_units]
    values = {
        "setup_s": (stats.lower_quartile(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "failed_ratio": (1.0 - len(done) / len(units), "1"),
    }
    if done:
        wall = unit_seconds(done)
        values["wall_s"] = (wall, "s")
        values["realizations_per_s"] = (wl.per_unit / wall, "1/s")
    if all(u["ok"] for u in prefix):
        values.update(wl.quality(prefix))
    if wl.name == "surrogate" and done:
        decisions = decision_seconds(done)
        values.update({
            "rows_per_s": (wl.rows / unit_seconds(done, "label"), "1/s"),
            "train_samples_per_s": (wl.train_samples
                                    / unit_seconds(done, "train"), "1/s"),
            "decision_p50_us": (statistics.median(decisions) * 1e6, "us"),
            "decision_p90_us": (stats.percentile(decisions, 90) * 1e6, "us"),
        })
    return values


def unit_seconds(units, phase: str | None = None) -> float:
    """Scaled seconds of one unit, or of one phase of it: per phase, the
    lower quartile of its step times times its steps per unit, summed."""
    by_phase: dict[str, list[float]] = {}
    for u in units:
        for name, _, scaled in u["steps"]:
            by_phase.setdefault(name, []).append(scaled)
    return sum(stats.lower_quartile(times) * len(times) / len(units)
               for name, times in by_phase.items()
               if phase in (None, name))


def decision_seconds(units) -> list[float]:
    """Per-decision times, scaled like the step that made them."""
    out = []
    for u in units:
        _, wall, scaled = next(s for s in u["steps"] if s[0] == "decide")
        out.extend(t * scaled / wall for t in u["decision_s"])
    return out


def traced_pass(wl, workloads_module, out_root, ref, untraced):
    """Per-layer metrics from a traced rerun of the minimum prefix. Layer
    timings are as measured; the overhead ratio compares scaled times."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads_module])
    try:
        units = run_units(wl, out_root, ref, count=wl.min_units,
                          tracer=tracer)
    finally:
        tracer.uninstall()
    errors = []
    for j, (a, b) in enumerate(zip(untraced, units)):
        if a.get("digest") != b.get("digest"):
            errors.append(f"unit {j}: traced results differ from untraced")
    metrics = tracing.layer_metrics(tracer.spans)
    done = [u for u in units if u["ok"]]
    metrics["harness.bytes_written"] = sum(u["bytes"] for u in done) \
        if wl.name != "surrogate" else 0
    metrics["learn.dataset_bytes"] = sum(u.get("dataset_bytes", 0)
                                         for u in done)
    metrics["learn.speedup_vs_solve"] = 0.0
    first = untraced[0].get("raw")
    speedup = None
    if wl.name == "surrogate" and first is not None:
        speedup = wl.speedup_vs_solve(first)
        metrics["learn.speedup_vs_solve"] = speedup["ratio"]
    metrics["bench.trace_overhead_ratio"] = (
        sum(u["scaled"] for u in units)
        / sum(u["scaled"] for u in untraced[:len(units)]) - 1.0)
    for name in wl.exercised:
        if metrics[name] == 0:
            errors.append(f"{name} reads zero on a workload that exercises it")
    timings = tracing.timing_summaries(tracer.spans)
    details = {"trace_units": len(units), "spans": len(tracer.spans),
               "timings": timings, "speedup_vs_solve": speedup}
    return metrics, units, errors, details


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        declared = load_declared()
        pin_environment()
    except (OSError, ImportError, KeyError, ValueError) as err:
        print(f"cannot run the benchmark here: {err}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        wl.warm_up()
        print("ready", flush=True)
        return 0

    ref = Reference()
    setup_times = measure_setup(args, ref)
    wl.warm_up()
    out_root = tempfile.mkdtemp(dir=SCRATCH)
    try:
        units = run_units(wl, out_root, ref, seconds=args.seconds)
        values = end_to_end(wl, units, setup_times)
        errors = [f"unit {j}: {e}" for j, u in enumerate(units)
                  for e in u.get("errors", [])]
        details = {"workload": wl.name, "seed": args.seed,
                   "facts": machine_facts(), "units": len(units),
                   "min_units": wl.min_units,
                   "unit_wall_s": stats.summarize(u["wall"] for u in units),
                   "unit_scale": stats.summarize(u["scaled"] / u["wall"]
                                                 for u in units),
                   "setup_s": stats.summarize(setup_times),
                   "digest": stats.combine_digests(
                       u.get("digest", "failed") for u in units),
                   "prefix_digest": stats.combine_digests(
                       u.get("digest", "failed")
                       for u in units[:wl.min_units])}
        notes = [f"unit {j}: {n}" for j, u in enumerate(units)
                 for n in u.get("notes", [])]
        if notes:
            details["notes"] = notes
        if wl.name == "surrogate" and units[0]["ok"]:
            details["decision_us"] = stats.summarize(
                t * 1e6 for t in decision_seconds(u for u in units if u["ok"]))
        attempted = wl.ops_per_unit * len(units)
        failed = wl.ops_per_unit * sum(1 for u in units if not u["ok"])
        if args.trace:
            metrics, traced, trace_errors, trace_details = traced_pass(
                wl, workloads, out_root, ref, units)
            errors += trace_errors
            details.update(trace_details)
            attempted += wl.ops_per_unit * len(traced)
            failed += wl.ops_per_unit * sum(1 for u in traced if not u["ok"])
            reported = {name: (float(metrics[name]), unit) for name, unit
                        in declared["per_layer"].items()}
            section = declared["per_layer"]
        else:
            section = declared["end_to_end"]
            reported = {name: values.get(name, (float("nan"), unit))
                        for name, unit in section.items()}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:  # another run still uses it
            pass

    for name, (value, unit) in (reported if args.trace
                                else {**reported, **values}).items():
        print(f"{name:34s} {value:16.6g} {unit}")
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    details["check_failures"] = len(errors)
    print(json.dumps({"details": details}, default=float))
    result = {"correct": not errors and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in reported.items()}}
    try:
        stats.validate_result(result, section)
    except ValueError as err:
        print(f"invalid result: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
