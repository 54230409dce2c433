"""The benchmark's three workloads.

Each workload turns ``--seed`` into a fixed list of units (one pass), runs a
unit through byzregs' public functions, and checks the unit's output. All
are closed loops: the next unit starts when the previous one has returned.

- ``sweep``: the ``byzregs sweep`` traffic. Per-run fixed costs dominate
  (scenario generation, the double instance build, the checker passes). The
  ``--op-budget 1500`` of the checked-in blocking scenario keeps a blocked run
  near 3k events instead of 200k, so throughput does not hinge on how many
  blocked seeds a range happens to contain.
- ``long_history``: one all-correct scenario per construction with a few
  hundred operations, run, encoded to JSONL, decoded and re-checked as
  ``byzregs run`` then ``byzregs check`` do. The scheduler's per-step
  workload rescan dominates; it is the only workload exercising the codec
  and the checker on stored traces.
- ``attack``: ``attack_search`` for every candidate at n = 3..5. No scenario
  generation and no codec; time goes to re-running plans on fresh instances
  and to algo1's blocked read spinning to the stage budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Sizes:
    sweep_runs_per_cell: int = 40
    long_ops: int = 200
    attack_ns: tuple = (3, 4, 5)


FULL = Sizes()

SWEEP_OP_BUDGET = 1500  # per_op_budget of scenarios/blocking_boundary.json
LONG_CASES = (("algo1", 3), ("algo2", 2), ("algo3", 3))
ATTACK_CANDIDATES = ("algo1", "algo3", "atomic-1wnr", "naive-gossip")
ATTACK_BUDGET = 10_000_000  # the budget `byzregs attack` uses by default

# Outcome of attack_search per (candidate, n): the witness class and stage.
ATTACK_EXPECTED = {
    **{("naive-gossip", n): "ViolationWitness A_0'" for n in (3, 4, 5)},
    ("algo1", 3): "BlockedWitness C_5^2",
    ("algo1", 4): "BlockedWitness C_10^2",
    ("algo1", 5): "BlockedWitness C_19^2",
    **{("algo3", n): "Exhausted" for n in (3, 4, 5)},
    **{("atomic-1wnr", n): "Exhausted" for n in (3, 4, 5)},
}


def sweep_cells(cli) -> list[tuple[str, int, str]]:
    every = cli.CANONICAL_PATTERNS + cli.EXTRA_PATTERNS
    cells = [("algo1", n, p) for n in range(2, 6) for p in cli.CANONICAL_PATTERNS]
    cells += [("algo2", 2, p) for p in every]
    cells += [("algo3", n, p) for n in (3, 5) for p in every]
    return cells


def algo1_write_steps(n: int) -> int:
    """The paper's closed form for one algo1 Write: 6 * 2^(n-2) - 2."""
    return 6 * 2 ** (n - 2) - 2


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Sweep:
    name = "sweep"

    def __init__(self, m, seed: int, sizes: Sizes, pins: Optional[dict], workdir):
        self.m = m
        self.cells = sweep_cells(m.cli)
        runs = sizes.sweep_runs_per_cell
        # Per-run seeds derive as base + run index, as in `byzregs sweep`;
        # consecutive benchmark seeds get disjoint seed ranges.
        base = seed * len(self.cells) * runs
        self.units = [
            (c, n, p, base + i * runs + r)
            for i, (c, n, p) in enumerate(self.cells)
            for r in range(runs)
        ]
        self.usual = pins["usual"] if pins else {}
        self.pins = pins["seeds"].get(str(seed)) if pins else None
        self.pinned = self.pins is not None

    @staticmethod
    def setup_builds(m) -> None:
        for c, n in (("algo1", 5), ("algo2", 2), ("algo3", 5)):
            m.constructions.build_instance(c, n)

    def run_unit(self, unit):
        c, n, p, seed = unit
        cli = self.m.cli
        scenario = cli.build_sweep_scenario(
            c, n, p, seed, self.m.sim.DEFAULT_STEP_BUDGET, SWEEP_OP_BUDGET
        )
        _, verdicts = cli.run_and_check(scenario)
        return verdicts

    def describe(self, unit) -> str:
        c, n, p, seed = unit
        return f"{c} n={n} {p} seed={seed}"

    def check(self, unit, verdicts) -> list[str]:
        bad = sorted(v.vclass for v in verdicts.values() if not v.ok)
        return [f"violations {','.join(bad)}"] if bad else []

    def fingerprint(self, verdicts) -> str:
        return _digest({name: v.to_json() for name, v in verdicts.items()})

    def expected(self, index: int, unit) -> Optional[str]:
        if self.pins is None or str(index) in self.pins["raised"]:
            return None
        c, n, p, _ = unit
        return self.pins["runs"].get(str(index), self.usual[f"{c}/{n}/{p}"])

    def raises(self, index: int) -> Optional[bool]:
        """Whether the pins list the unit as raising; None if unpinned."""
        return None if self.pins is None else str(index) in self.pins["raised"]

    def classes(self, verdicts) -> list[str]:
        out = []
        for v in verdicts.values():
            if not v.ok:
                out.append(v.vclass)
            elif "outside guarantee" in v.explanation:
                out.append("pending_outside_guarantee")
        return out


class LongHistory:
    name = "long_history"

    def __init__(self, m, seed: int, sizes: Sizes, pins: Optional[dict], workdir):
        self.m = m
        self.pins = pins["seeds"].get(str(seed)) if pins else None
        self.pinned = self.pins is not None
        self.workdir = workdir
        # Checks use the codec as it was before any timing wrapper went in.
        self.decode = m.core.events_from_jsonl
        self.units = []
        self.scenarios = {}
        for c, n in LONG_CASES:
            unit = (c, n, seed, sizes.long_ops)
            scenario = self._scenario(c, n, seed, sizes.long_ops)
            path = workdir / f"{c}-n{n}.scenario.json"
            path.write_text(json.dumps(m.sim.scenario_to_json(scenario)))
            self.units.append(unit)
            self.scenarios[unit] = (scenario, path)

    def _scenario(self, c: str, n: int, seed: int, ops: int):
        """Writes alternate with reads spread round-robin over the readers."""
        sim, core = self.m.sim, self.m.core
        workload = []
        for i in range(ops):
            if i % 2 == 0:
                value = f"v{i // 2 + 1}".encode()
                workload.append(sim.WorkItem(0, "write", value=value))
            else:
                workload.append(sim.WorkItem((i // 2) % n + 1, "read"))
        return sim.Scenario(
            construction=c,
            n=n,
            faults={p: core.Correct() for p in range(n + 1)},
            workload=workload,
            schedule=sim.Seeded(seed),
        )

    @staticmethod
    def setup_builds(m) -> None:
        for c, n in LONG_CASES:
            m.constructions.build_instance(c, n)

    def run_unit(self, unit):
        cli, core = self.m.cli, self.m.core
        scenario, scenario_path = self.scenarios[unit]
        c, n, _, _ = unit
        trace_path = self.workdir / f"{c}-n{n}.trace.jsonl"
        out_path = self.workdir / f"{c}-n{n}.verdicts.json"
        trace, verdicts = cli.run_and_check(scenario)
        data = core.events_to_jsonl(trace.events)
        trace_path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", "--scenario", str(scenario_path),
                             "--trace", str(trace_path), "--out", str(out_path)])
        return trace, verdicts, data, code

    def describe(self, unit) -> str:
        c, n, seed, ops = unit
        return f"{c} n={n} schedule-seed={seed} ops={ops}"

    def check(self, unit, output) -> list[str]:
        trace, verdicts, data, code = output
        c, n, _, _ = unit
        problems = [f"{name} {v.vclass}" for name, v in verdicts.items() if not v.ok]
        if code != 0:
            problems.append(f"byzregs check on the stored trace exited {code}")
        if self.decode(data) != trace.events:
            problems.append("JSONL round trip is not bit-exact")
        for op in trace.ops:
            if op.status != "completed":
                problems.append(f"op {op.index} {op.status} ({op.reason})")
                continue
            want = None
            if op.kind == "Write":
                want = {"algo1": algo1_write_steps(n), "algo2": 4, "algo3": n}[c]
            elif c == "algo3":
                want = 2 * n + 1
            if want is not None and op.steps != want:
                problems.append(
                    f"op {op.index} {op.kind} took {op.steps} steps, closed form {want}"
                )
        return problems

    def fingerprint(self, output) -> str:
        return hashlib.sha256(output[2]).hexdigest()

    def expected(self, index: int, unit) -> Optional[str]:
        if self.pins is None:
            return None
        c, n, _, _ = unit
        return self.pins[f"{c}/{n}"]

    def raises(self, index: int) -> Optional[bool]:
        return False  # all-correct scenarios never block

    def classes(self, output) -> list[str]:
        return [v.vclass for v in output[1].values() if not v.ok]


class Attack:
    name = "attack"

    def __init__(self, m, seed: int, sizes: Sizes, pins: Optional[dict], workdir):
        self.m = m
        units = [(c, n) for c in ATTACK_CANDIDATES for n in sizes.attack_ns]
        # attack_search has no random input; the seed only orders the calls.
        random.Random(seed).shuffle(units)
        self.units = units
        self.pinned = True  # ATTACK_EXPECTED holds for every seed

    @staticmethod
    def setup_builds(m) -> None:
        for c in ATTACK_CANDIDATES:
            m.adversary.build_candidate(c, 5)

    def run_unit(self, unit):
        c, n = unit
        return self.m.adversary.attack_search(c, n, budget=ATTACK_BUDGET)

    def describe(self, unit) -> str:
        return f"{unit[0]} n={unit[1]}"

    def check(self, unit, result) -> list[str]:
        return []

    def fingerprint(self, result) -> str:
        kind = type(result).__name__
        return kind if kind == "Exhausted" else f"{kind} {result.stage}"

    def expected(self, index: int, unit) -> Optional[str]:
        return ATTACK_EXPECTED[unit]

    def raises(self, index: int) -> Optional[bool]:
        return False

    def classes(self, result) -> list[str]:
        return [type(result).__name__]


WORKLOADS = {w.name: w for w in (Sweep, LongHistory, Attack)}
