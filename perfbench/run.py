"""byzregs benchmark: throughput, latency, set-up time and memory of the
sweep, long-history and attack workloads, with a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --trace 1            # every workload, traced
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

A run imports byzregs from ``src/`` of the checkout it sits in. It sets up
several times (fresh import plus the first instance builds) and reports the
median as ``setup_s``; it then runs one untimed reference pass over the
seed's units, and timed passes over the same units until RUN_SECONDS (the
run_seconds of BENCHMARK.json; ``--seconds`` may only repeat it) have
elapsed. Every unit's output is checked; a unit that raises or fails a
check is counted in ``failed`` and the run goes on. ``correct`` turns false
on any wrong output, on any raise other than the known defect (see
KNOWN_RAISE) where the pins or the reference pass expect it, and on any
simulated count that does not repeat across passes.

All times are scaled to a reference host (see calibration.py): on a shared
host the speed of identical work swings by up to 1.8x for minutes at a time,
and scaling by the slowdown of a fixed kernel timed around each pass,
raised to a fitted power, removes most of that.
A unit's time is its median scaled time over the timed passes:
``runs_per_s`` is the number of units over the sum of their times, and
``run_ms_p50`` (and ``run_ms_p99`` on ``sweep``) percentiles of the times
over the units. ``setup_s`` is the median of the scaled set-up times. The
unscaled throughput and the host's slowdown are reported beside them. The
interpreter's string-hash seed is fixed too, since randomised hashing alone
moved throughput by ~15% between runs of identical input.

With ``--trace 1`` untraced and traced passes alternate. Traced passes record
a span around each call into a layer (see tracing.py); the per-layer numbers
are per-pass means over the traced passes, and ``trace.overhead_ratio``
compares the median traced with the median untraced pass. Layer times are
self times, except ``cli.scenario_s``, which includes the instance build
inside ``cli.build_sweep_scenario``; ``cli.scenario_self_s`` excludes it.
The self times plus ``trace.unattributed_s`` add up to ``trace.wall_s``, the
time spent inside units.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Earlier lines give
the environment, every metric with its unit (``failed_ratio`` and, on
``sweep``, ``run_ms_p99`` too) and each failed unit. The full record, and
the spans of a traced run, are written under ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 30  # run_seconds in BENCHMARK.json
SETUP_REPEATS = 9
PROBE_INTERVAL_S = 0.2
HASH_SEED = "0"
RESULTS_DIR = ".bench_results"
# The sweep's known defect: a read stopped by its per-op budget overlaps the
# same process's next read, and extract_history rejects the history.
KNOWN_RAISE = "MalformedHistory"

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.scenario_s": "s",
    "cli.scenario_self_s": "s",
    "constructions.build_s": "s",
    "constructions.builds": "count",
    "constructions.registers_built": "count",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.budget_stops": "count",
    "sim.spin_share": "ratio",
    "checker.extract_s": "s",
    "checker.properties_s": "s",
    "checker.invariants_s": "s",
    "checker.checks": "count",
    "core.encode_s": "s",
    "core.decode_s": "s",
    "core.trace_bytes": "bytes",
    "adversary.solo_s": "s",
    "adversary.plan_s": "s",
    "adversary.plans": "count",
    "adversary.plan_accesses": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}
COUNTS = ("constructions.builds", "constructions.registers_built", "sim.events",
          "sim.budget_stops", "checker.checks", "core.trace_bytes",
          "adversary.plans", "adversary.plan_accesses")


class SetupError(Exception):
    """The checkout does not hold a byzregs source tree to benchmark."""


# ---------------------------------------------------------------------------
# Set-up and environment
# ---------------------------------------------------------------------------


def import_byzregs():
    """Import byzregs afresh from the checkout's src/ and return its modules."""
    for name in [k for k in sys.modules if k == "byzregs" or k.startswith("byzregs.")]:
        del sys.modules[name]
    importlib.import_module("byzregs.cli")
    return types.SimpleNamespace(**{
        mod: sys.modules[f"byzregs.{mod}"]
        for mod in ("adversary", "checker", "cli", "constructions", "core", "sim")
    })


def setup(workload_cls, repeats: int):
    """Median time of a fresh import plus the workload's first builds, in
    reference-host seconds."""
    src = ROOT / "src"
    if not (src / "byzregs" / "__init__.py").is_file():
        raise SetupError(f"no byzregs package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    times = []
    for _ in range(repeats):
        before = calibration.kernel_seconds()
        start = perf_counter()
        m = import_byzregs()
        workload_cls.setup_builds(m)
        elapsed = perf_counter() - start
        kernel = (before + calibration.kernel_seconds()) / 2
        times.append(elapsed / calibration.slowdown(kernel))
    return statistics.median(times), m


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, traced: bool, pinned: bool) -> dict:
    return {
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "pinned": pinned,
    }


def load_pins(name: str, sizes: workloads.Sizes):
    """Pinned outputs of a workload, if they were made at these sizes."""
    path = BENCH_DIR / "pins.json"
    if not path.is_file():
        return None
    pins = json.loads(path.read_text())
    if pins["sizes"] != json.loads(json.dumps(dataclasses.asdict(sizes))):
        return None
    return pins.get(name)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed units and the failures seen, over one run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[tuple[int, str], dict] = {}
        self.reference: list = []

    def check_pass(self, outputs, first: bool) -> dict:
        """Check one pass's outputs; the first pass becomes the reference
        that later passes must repeat where no pin applies."""
        w = self.workload
        totals: dict[str, int] = {"units": len(outputs)}
        fingerprints = []
        for i, (unit, (out, err)) in enumerate(zip(w.units, outputs)):
            self.attempted += 1
            if err is not None:
                classes, fp = [f"raised:{type(err).__name__}"], None
                reason = f"{type(err).__name__}: {err}"
                problems = [] if self.raise_expected(i, err, first) else [
                    f"unexpected raise ({reason})"]
            else:
                classes = w.classes(out)
                problems = w.check(unit, out)
                fp = w.fingerprint(out)
                want = w.expected(i, unit)
                if want is None and not first:
                    want = self.reference[i]
                if want is not None and fp != want:
                    problems.append(f"output {fp} differs from expected {want}")
                reason = "; ".join(problems)
            fingerprints.append(fp)
            for cls in classes:
                totals[cls] = totals.get(cls, 0) + 1
            if err is None and not problems:
                continue
            self.failed += 1
            self.wrong += bool(problems)
            key = (i, reason)
            if key not in self.failures:
                self.failures[key] = {
                    "unit": w.describe(unit),
                    "reason": reason,
                    "count": 0,
                    "traceback": "".join(traceback.format_exception(err))
                    if err is not None else None,
                }
                print(f"FAILED {w.name} {w.describe(unit)}: {reason}", flush=True)
            self.failures[key]["count"] += 1
        if first:
            self.reference = fingerprints
        return totals

    def raise_expected(self, index: int, err: BaseException, first: bool) -> bool:
        """Whether unit ``index`` may raise ``err``. Only the known defect
        may: a MalformedHistory on a unit that the pins list as raising or,
        where no pin applies, that raised in the reference pass too."""
        if type(err).__name__ != KNOWN_RAISE:
            return False
        pinned = self.workload.raises(index)
        if pinned is not None:
            return pinned
        return first or self.reference[index] is None


def run_pass(workload, tracer=None):
    """Run every unit once, timing the calibration kernel before, between
    (every PROBE_INTERVAL_S) and after the units. Returns the units' host
    times, their outputs, and the host's slowdown over the pass."""
    times, outputs = [], []
    run_unit = workload.run_unit
    kernel = [calibration.kernel_seconds()]
    last_probe = perf_counter()
    for unit in workload.units:
        if tracer is not None:
            tracer.unit += 1
        t0 = perf_counter()
        try:
            out, err = run_unit(unit), None
        except Exception as exc:  # a failed unit is counted, not fatal
            out, err = None, exc
        t1 = perf_counter()
        times.append(t1 - t0)
        outputs.append((out, err))
        if t1 - last_probe >= PROBE_INTERVAL_S:
            kernel.append(calibration.kernel_seconds())
            last_probe = perf_counter()
    kernel.append(calibration.kernel_seconds())
    return times, outputs, calibration.slowdown(statistics.median(kernel))


# ---------------------------------------------------------------------------
# A measured run
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes: workloads.Sizes = workloads.FULL,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    cls = workloads.WORKLOADS[name]
    setup_s, m = setup(cls, setup_repeats)
    out_dir = ROOT / RESULTS_DIR
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    pins = load_pins(name, sizes)
    w = cls(m, seed, sizes, pins, work)
    env = environment(name, seed, trace, w.pinned)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tally = Tally(w)
    _, outputs, _ = run_pass(w)
    totals = tally.check_pass(outputs, first=True)
    del outputs

    tracer = tracing.Tracer() if trace else None
    plain = []   # (unit times, slowdown) per untraced pass
    traced = []  # (unit times, slowdown, self times, counts) per traced pass
    start = perf_counter()
    k = 0
    while perf_counter() - start < seconds or not plain or (trace and not traced):
        if trace and k % 2 == 1:
            tracer.counts.clear()
            first_span = len(tracer.spans)
            tracer.install(m)
            try:
                times, outputs, slow = run_pass(w, tracer)
            finally:
                tracer.uninstall()
            traced.append((times, slow, tracer.self_times(first_span),
                           dict(tracer.counts)))
        else:
            times, outputs, slow = run_pass(w)
            plain.append((times, slow))
        tally.check_pass(outputs, first=False)
        del outputs
        k += 1

    # Each unit's time is its median over the untraced passes, scaled to the
    # reference host or, for the host figure, unscaled.
    unit_s = [statistics.median(times[i] / slow for times, slow in plain)
              for i in range(len(w.units))]
    host_unit_s = [statistics.median(times[i] for times, _ in plain)
                   for i in range(len(w.units))]
    report = {
        "failed_ratio": tally.failed / tally.attempted,
        "passes": len(plain) + len(traced),
        "units_per_pass": len(w.units),
        "slowdown": statistics.median(slow for _, slow in plain),
        "host_runs_per_s": len(host_unit_s) / sum(host_unit_s),
    }
    if trace:
        metrics, repeat_ok = layer_metrics(plain, traced)
        tally.wrong += not repeat_ok
        tracer.write(out_dir / f"spans-{name}.jsonl.gz")
    else:
        metrics = {
            "setup_s": setup_s,
            "runs_per_s": len(unit_s) / sum(unit_s),
            "run_ms_p50": statistics.median(unit_s) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["samples"] = len(unit_s) * len(plain)
        if name == "sweep":
            report["run_ms_p99"] = statistics.quantiles(unit_s, n=100)[98] * 1000
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "report": report,
        "env": env,
        "totals": totals,
        "failures": list(tally.failures.values()),
    }
    (out_dir / f"{name}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    return result


def layer_metrics(plain, traced) -> tuple[dict, bool]:
    """Per-pass means over the traced passes, in reference-host seconds, and
    whether the counts that must repeat exactly did."""
    passes = len(traced)
    repeat_ok = True
    for key in tracing.REPEAT_EXACT:
        seen = {counts.get(key, 0) for *_, counts in traced}
        if len(seen) > 1:
            repeat_ok = False
            print(f"REPEAT MISMATCH {key} differs across passes: {sorted(seen)}",
                  flush=True)

    def mean_self(layer):
        return sum(selfs[layer] / slow for _, slow, selfs, _ in traced) / passes

    def mean_count(key):
        return sum(counts.get(key, 0) for *_, counts in traced) / passes

    out = {
        "cli.scenario_s": mean_self("cli.scenario_total"),
        "cli.scenario_self_s": mean_self("cli.scenario"),
    }
    for layer in tracing.LAYERS[1:]:
        out[f"{layer}_s"] = mean_self(layer)
    for key in COUNTS:
        out[key] = mean_count(key)
    events = out["sim.events"]
    out["sim.us_per_event"] = out["sim.run_s"] / events * 1e6 if events else 0.0
    out["sim.spin_share"] = mean_count("sim.spin_events") / events if events else 0.0
    attributed = out["cli.scenario_self_s"] + sum(
        out[f"{layer}_s"] for layer in tracing.LAYERS[1:])
    walls = [sum(times) / slow for times, slow, _, _ in traced]
    out["trace.wall_s"] = sum(walls) / passes
    out["trace.unattributed_s"] = out["trace.wall_s"] - attributed
    plain_walls = [sum(times) / slow for times, slow in plain]
    out["trace.overhead_ratio"] = (
        statistics.median(walls) / statistics.median(plain_walls) - 1
    )
    return {key: out[key] for key in PER_LAYER}, repeat_ok


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def print_result(name: str, result: dict, units: dict) -> None:
    for key, value in result["metrics"].items():
        print(f"{name} {key} {value} {units[key]}")
    report = result["report"]
    print(f"{name} failed_ratio {report['failed_ratio']} ratio")
    print(f"{name} host_runs_per_s {report['host_runs_per_s']} 1/s "
          f"(unscaled; host slowdown {report['slowdown']})")
    if "run_ms_p99" in report:
        print(f"{name} run_ms_p99 {report['run_ms_p99']} ms "
              f"({report['samples']} samples)")


def run_all(args) -> int:
    """Run each workload in its own process, one after another, so that
    peak memory and set-up time are each workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    # The benchmark's command is called with --seconds set to run_seconds of
    # BENCHMARK.json. The run length is the benchmark's own, so any other
    # value is refused rather than honoured.
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must not be negative")
    if args.seconds != RUN_SECONDS:
        ap.error(f"--seconds must be {RUN_SECONDS}, the run_seconds of BENCHMARK.json")
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, RUN_SECONDS, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    print_result(args.workload, result, units)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result["metrics"].items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # byzregs' outputs do not depend on the hash seed; its speed does.
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)
    sys.exit(main())
