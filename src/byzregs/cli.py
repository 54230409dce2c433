"""Command-line front end: run a scenario, sweep seeds and fault patterns,
drive the attack harness, or check a stored trace.

`check` re-runs the scenario through the same code as `run` and requires
the stored trace to be the bytes that run writes; it then reports the
re-run's verdicts. A scenario fixes its schedule (seeded or scripted) and
the engine is deterministic, so the re-run is the whole proof that the
trace is an execution of the construction. The first differing line is an
input error (exit 2).

Exit codes: 0 all checks pass (attack: search exhausted), 1 a violation or
witness was found, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

from . import adversary, checker, constructions, sim
from .constructions import WRITER
from .core import (
    AccessViolation,
    Commit,
    Correct,
    Crash,
    Garbage,
    Malicious,
    MalformedScenario,
    Plain,
    Prepare,
    SeqTuple,
    Signed,
    events_to_jsonl,
)

CANONICAL_PATTERNS = [
    "all-correct",
    "writer-crash",
    "one-malicious-reader",
    "writer-crash+one-malicious-reader",
    "all-readers-malicious",
]
EXTRA_PATTERNS = ["malicious-writer", "majority-malicious-readers"]


# ---------------------------------------------------------------------------
# Seeded scenario generation
# ---------------------------------------------------------------------------


def _junk_cell(rng: random.Random, spec):
    roll = rng.randrange(5)
    k = rng.randint(0, 9)
    payload = bytes([rng.randrange(256) for _ in range(rng.randint(0, 3))])
    t = SeqTuple(k, payload)
    if roll == 0:
        return Garbage(payload)
    if roll == 1:
        return Plain(t)
    if roll == 2:
        return Commit(t)
    if roll == 3:
        return Prepare(t, SeqTuple(k + rng.randint(0, 2), payload))
    return Signed(t, spec.writer, "forged")


def random_script(rng: random.Random, layout, proc: int) -> tuple:
    """A small seeded mix of resets and lies over the registers proc owns."""
    own = layout.owned.get(proc)
    if not own or rng.random() < 0.15:
        return ()
    script: list = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            script += layout.resets[proc]
        else:
            spec = rng.choice(own)
            script.append(("w", spec.reg_id, _junk_cell(rng, spec)))
    return tuple(script)


def build_fault_map(pattern: str, n: int, rng: random.Random, layout):
    readers = constructions.reader_ids(n)
    faults = {p: Correct() for p in [WRITER] + readers}
    if pattern == "all-correct":
        pass
    elif pattern == "writer-crash":
        faults[WRITER] = Crash(rng.randint(0, 40))
    elif pattern == "one-malicious-reader":
        r = rng.choice(readers)
        faults[r] = Malicious(random_script(rng, layout, r))
    elif pattern == "writer-crash+one-malicious-reader":
        faults[WRITER] = Crash(rng.randint(0, 40))
        r = rng.choice(readers)
        faults[r] = Malicious(random_script(rng, layout, r))
    elif pattern == "all-readers-malicious":
        for r in readers:
            faults[r] = Malicious(random_script(rng, layout, r))
    elif pattern == "malicious-writer":
        faults[WRITER] = Malicious(random_script(rng, layout, WRITER))
    elif pattern == "majority-malicious-readers":
        count = n // 2 + 1
        for r in rng.sample(readers, count):
            faults[r] = Malicious(random_script(rng, layout, r))
    else:
        raise MalformedScenario(f"unknown fault pattern {pattern!r}")
    return faults


def random_workload(rng: random.Random, n: int, faults) -> list[sim.WorkItem]:
    honest_readers = [
        r for r in constructions.reader_ids(n) if not isinstance(faults[r], Malicious)
    ]
    items: list[sim.WorkItem] = []
    writer_honest = not isinstance(faults[WRITER], Malicious)
    n_writes = rng.randint(1, 3) if writer_honest else 0
    for i in range(n_writes):
        items.append(sim.WorkItem(WRITER, "write", value=f"v{i + 1}".encode()))
    if honest_readers:
        for _ in range(rng.randint(1, 4)):
            reader = rng.choice(honest_readers)
            item = sim.WorkItem(reader, "read")
            if items and rng.random() < 0.5:
                item.after_op = rng.randrange(len(items))
            items.append(item)
    # Interleave read starts with writes by shuffling the tail order; indices
    # referenced by after_op are remapped to the shuffled positions.
    order = list(range(len(items)))
    rng.shuffle(order)
    remap = {old: new for new, old in enumerate(order)}
    shuffled = [items[old] for old in order]
    for pos, it in enumerate(shuffled):
        if it.after_op is not None:
            it.after_op = remap[it.after_op]
            if it.after_op >= pos:
                it.after_op = None  # constraint must point backwards
    return shuffled


def build_sweep_scenario(construction: str, n: int, pattern: str, seed: int,
                         step_budget: int, per_op_budget: int) -> sim.Scenario:
    rng = random.Random(seed)
    faults = build_fault_map(pattern, n, rng, constructions.layout_of(construction, n))
    workload = random_workload(rng, n, faults)
    return sim.Scenario(construction, n, faults, workload, sim.Seeded(seed),
                        step_budget=step_budget, per_op_budget=per_op_budget)


# ---------------------------------------------------------------------------
# Shared run/check plumbing
# ---------------------------------------------------------------------------


def run_and_check(scenario: sim.Scenario):
    layout = constructions.layout_of(scenario.construction, scenario.n)
    trace = sim.run(scenario)
    return trace, checker.run_all_checks(trace, scenario.faults, layout)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _write_outputs(inputs: tuple[str, ...], *outputs: tuple[str, bytes]) -> None:
    """Write each (path, data) only once every path opens and no output
    names an input's file or another output's, by any link; otherwise raise
    having written nothing and removed the files this call created."""
    created = [path for path, _ in outputs if not os.path.lexists(path)]
    names = [*inputs, *(path for path, _ in outputs)]
    files: dict[tuple, int] = {}  # (device, inode) -> the first name's index
    try:
        for i, path in enumerate(names):
            if i >= len(inputs):  # an output
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
            st = os.stat(path)
            first = files.setdefault((st.st_dev, st.st_ino), i)
            if first != i and i >= len(inputs):
                kind = "input" if first < len(inputs) else "output"
                raise ValueError(f"{kind} {names[first]} and output {path} name the same file")
    except (OSError, ValueError):
        for path in created:
            if os.path.lexists(path):
                os.remove(path)
        raise
    for path, data in outputs:
        with open(path, "wb") as fh:
            fh.write(data)


# What bad input raises (a scenario, trace or output path, a flag, a scripted
# pick of no runnable thread, a solo write over its budget); each exits 2.
INPUT_ERRORS = (OSError, ValueError, MalformedScenario, AccessViolation,
                adversary.WriterBlocked)


def _input_error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _report(inputs: tuple[str, ...], out: str, verdicts, *first: tuple[str, bytes]) -> int:
    verdict_json = _json_bytes({name: v.to_json() for name, v in verdicts.items()})
    _write_outputs(inputs, *first, (out, verdict_json))
    for name, v in sorted(verdicts.items()):
        print(f"{name}: {v.status}" + (f" ({v.explanation})" if v.explanation else ""))
    return 0 if all(v.ok for v in verdicts.values()) else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    trace, verdicts = run_and_check(sim.load_scenario(args.scenario))
    return _report((args.scenario,), args.out, verdicts,
                   (args.trace, events_to_jsonl(trace.events)))


def parse_n_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return range(int(text), int(text) + 1)


def run_sweep(construction: str, ns, patterns, runs: int, base_seed: int,
              step_budget: int, per_op_budget: int) -> dict:
    summary = {
        "construction": construction,
        "runs": 0,
        "violations": {},
        "pending_outside_guarantee": 0,
        "per_pattern": {},
        "base_seed": base_seed,
        "findings": [],  # each failing or outside-guarantee verdict's run
    }
    run_index = 0
    for n in ns:
        for pattern in patterns:
            key = f"n={n}/{pattern}"
            bucket = summary["per_pattern"].setdefault(
                key, {"runs": 0, "violations": 0, "pending_outside_guarantee": 0}
            )
            for _ in range(runs):
                seed = base_seed + run_index
                run_index += 1
                scenario = build_sweep_scenario(
                    construction, n, pattern, seed, step_budget, per_op_budget
                )
                trace, verdicts = run_and_check(scenario)
                summary["runs"] += 1
                bucket["runs"] += 1
                for name, v in verdicts.items():
                    if not v.ok:
                        cls = v.vclass
                        summary["violations"][cls] = summary["violations"].get(cls, 0) + 1
                        bucket["violations"] += 1
                    elif "outside guarantee" in v.explanation:
                        cls = "pending_outside_guarantee"
                        summary[cls] += 1
                        bucket[cls] += 1
                    else:
                        continue
                    summary["findings"].append({"n": n, "pattern": pattern, "seed": seed,
                                                "verdict": name, "class": cls})
    return summary


def cmd_sweep(args) -> int:
    for flag, value in (("--runs", args.runs), ("--step-budget", args.step_budget),
                        ("--op-budget", args.op_budget)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, not {value}")
    ns = parse_n_range(args.n)
    if not ns:
        raise MalformedScenario(f"empty reader range {args.n!r}")
    for n in (ns[0], ns[-1]):
        constructions.check_n(args.construction, n)
    patterns = args.faults.split(",")
    for p in patterns:
        if p not in CANONICAL_PATTERNS + EXTRA_PATTERNS:
            raise MalformedScenario(f"unknown fault pattern {p!r}")
    summary = run_sweep(args.construction, ns, patterns, args.runs, args.seed,
                        args.step_budget, args.op_budget)
    _write_outputs((), (args.out, _json_bytes(summary)))
    total_viol = sum(summary["violations"].values())
    print(
        f"{summary['runs']} runs, {total_viol} violations, "
        f"{summary['pending_outside_guarantee']} pending outside guarantee"
    )
    return 1 if total_viol else 0


def cmd_attack(args) -> int:
    result = adversary.attack_search(args.construction, args.n_int,
                                     budget=args.step_budget,
                                     stage_budget=args.op_budget)
    if isinstance(result, adversary.Exhausted):
        report = {"result": "exhausted", "reason": result.reason, "stages": result.stage_log}
        _write_outputs((), (args.out, _json_bytes(report)))
        print(f"exhausted: {result.reason}")
        return 0
    report = {
        "stage": result.stage,
        "explanation": result.explanation,
        "stages": result.stage_log,
    }
    if isinstance(result, adversary.ViolationWitness):
        report.update({"result": "violation", "class": result.vclass})
    else:
        report.update({"result": "blocked", "reader": result.reader})
    _write_outputs((), (args.out, _json_bytes(report)),
                   (args.trace, events_to_jsonl(result.events)))
    print(f"{report['result']} witness at stage {result.stage}")
    return 1


def _show(line) -> str:
    return "(end of trace)" if line is None else repr(line.decode("utf-8", "replace"))


def cmd_check(args) -> int:
    """A stored trace is an execution of the scenario exactly when it is the
    bytes that re-running the scenario writes."""
    with open(args.trace, "rb") as fh:
        stored = fh.read()
    trace, verdicts = run_and_check(sim.load_scenario(args.scenario))
    rerun = events_to_jsonl(trace.events)
    if stored != rerun:
        pairs = itertools.zip_longest(stored.splitlines(keepends=True),
                                      rerun.splitlines(keepends=True))
        line, ours, theirs = next((i, a, b) for i, (a, b) in enumerate(pairs, 1)
                                  if a != b)
        return _input_error(
            f"trace line {line}: the stored trace is not the scenario's run\n"
            f"  stored: {_show(ours)}\n  re-run: {_show(theirs)}")
    return _report((args.scenario, args.trace), args.out, verdicts)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="byzregs",
        description="Simulate and adversarially test Byzantine register constructions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file and check it")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--trace", default="trace.jsonl")
    run_p.add_argument("--out", default="verdicts.json")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep seeds and fault patterns")
    sweep_p.add_argument("--construction", required=True)
    sweep_p.add_argument("--n", required=True, help="reader count, e.g. 3 or 2..5")
    sweep_p.add_argument("--runs", type=int, required=True)
    sweep_p.add_argument("--faults", default=",".join(CANONICAL_PATTERNS))
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--step-budget", type=int, default=sim.DEFAULT_STEP_BUDGET)
    sweep_p.add_argument("--op-budget", type=int, default=sim.DEFAULT_PER_OP_BUDGET)
    sweep_p.add_argument("--out", default="sweep.json")
    sweep_p.set_defaults(func=cmd_sweep)

    attack_p = sub.add_parser("attack", help="run the attack harness")
    attack_p.add_argument("--construction", required=True,
                          help="implementation name")
    attack_p.add_argument("--n", dest="n_int", type=int, required=True)
    attack_p.add_argument("--step-budget", type=int,
                          default=adversary.DEFAULT_SEARCH_BUDGET)
    attack_p.add_argument("--op-budget", type=int,
                          default=adversary.DEFAULT_STAGE_BUDGET)
    attack_p.add_argument("--trace", default="witness.jsonl")
    attack_p.add_argument("--out", default="attack.json")
    attack_p.set_defaults(func=cmd_attack)

    check_p = sub.add_parser("check", help="check that a stored trace is the scenario's run")
    check_p.add_argument("--scenario", required=True)
    check_p.add_argument("--trace", required=True)
    check_p.add_argument("--out", default="verdicts.json")
    check_p.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        return _input_error(exc)


if __name__ == "__main__":
    sys.exit(main())
