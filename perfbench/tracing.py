"""Timing wrappers installed around byzregs' public layer functions.

The benchmark records spans from its own code, around the calls into each
layer; nothing under ``src/`` knows about them. A span is
``[name, start, end, parent, unit]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``unit`` the index of the benchmark unit
that caused it. A layer's self time is its span's duration minus the part of
that interval its child spans cover.

Counts are taken at the same boundaries, after the span has closed, so the
counting itself shows up as unattributed time rather than as layer time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

# Span name of each layer whose self time is reported, in report order.
LAYERS = (
    "cli.scenario",
    "constructions.build",
    "sim.run",
    "checker.extract",
    "checker.properties",
    "checker.invariants",
    "core.encode",
    "core.decode",
    "adversary.solo",
    "adversary.plan",
)

# Counters that must repeat exactly across passes over the same inputs.
REPEAT_EXACT = ("sim.events", "sim.budget_stops", "adversary.plans",
                "adversary.plan_accesses")

PER_OP_BUDGET_REASON = "per-op budget"
BUDGET_REASONS = (PER_OP_BUDGET_REASON, "step budget")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.unit = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.unit]
        self.spans.append(span)
        self.child_time.append(0.0)
        self.stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = end = perf_counter()
            self.stack.pop()
            if parent >= 0:
                self.child_time[parent] += end - span[1]

    def self_times(self, first_span: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first_span:]."""
        out = {name: 0.0 for name in LAYERS}
        out["cli.scenario_total"] = 0.0
        for i in range(first_span, len(self.spans)):
            name, start, end, _, _ = self.spans[i]
            out[name] += (end - start) - self.child_time[i]
            if name == "cli.scenario":
                out["cli.scenario_total"] += end - start
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, fn, wrapper) -> None:
        """Rebind every module-level name under which byzregs holds fn, so
        callers that imported it by name see the wrapper too."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "byzregs"
                                   or mod_name.startswith("byzregs.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def _span_wrapper(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(tracer.counts, result)
            return result

        return wrapper

    def install(self, m) -> None:
        """Wrap the layer functions of the byzregs modules in namespace m."""

        def count_build(counts, inst):
            counts["constructions.builds"] += 1
            counts["constructions.registers_built"] += len(inst.specs)

        def count_sim_run(counts, trace):
            counts["sim.events"] += len(trace.events)
            for op in trace.ops:
                if op.reason in BUDGET_REASONS:
                    counts["sim.budget_stops"] += 1
                    counts["sim.spin_events"] += op.steps

        def count_check(counts, _verdict):
            counts["checker.checks"] += 1

        def count_encode(counts, data):
            counts["core.trace_bytes"] += len(data)

        def count_plan(counts, res):
            counts["adversary.plans"] += 1
            counts["adversary.plan_accesses"] += res.accesses

        simple = [
            (m.cli.build_sweep_scenario, "cli.scenario", None),
            (m.constructions.build_instance, "constructions.build", count_build),
            (m.adversary.build_candidate, "constructions.build", count_build),
            (m.sim.run, "sim.run", count_sim_run),
            (m.checker.extract_history, "checker.extract", None),
            (m.checker.check_property1, "checker.properties", count_check),
            (m.checker.check_property2, "checker.properties", count_check),
            (m.checker.check_bottom_returns, "checker.properties", count_check),
            (m.checker.check_wait_freedom, "checker.properties", count_check),
            (m.checker.validate_internal_invariants, "checker.invariants",
             count_check),
            (m.core.events_to_jsonl, "core.encode", count_encode),
            (m.core.events_from_jsonl, "core.decode", None),
            (m.adversary.record_solo_write, "adversary.solo", None),
            (m.adversary.run_plan, "adversary.plan", count_plan),
        ]
        for fn, name, after in simple:
            self._patch_function(fn, self._span_wrapper(name, fn, after))

        # Engine.run_queue drives the attack harness's phases; its events and
        # budget stops are the delta over the call.
        tracer = self
        run_queue = m.sim.Engine.run_queue

        @functools.wraps(run_queue)
        def traced_run_queue(eng, *args, **kwargs):
            before = len(eng.events)
            stopped = {id(op) for op in eng.ops
                       if op.reason == PER_OP_BUDGET_REASON}
            tracer.call("sim.run", run_queue, (eng, *args), kwargs)
            counts = tracer.counts
            counts["sim.events"] += len(eng.events) - before
            for op in eng.ops:
                if op.reason == PER_OP_BUDGET_REASON and id(op) not in stopped:
                    counts["sim.budget_stops"] += 1
                    counts["sim.spin_events"] += op.steps

        self._patch(m.sim.Engine, "run_queue", traced_run_queue)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
