"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The sweeps here use the
full advertised run counts; the whole module stays well under the five-minute
budget of the first criterion on a desktop-class machine.
"""

import itertools
import json
import os
import time

import pytest

from byzregs import adversary, checker, cli, sim
from byzregs.adversary import MARKER, attack_search
from byzregs.checker import OpRecord, check_property1, check_property2
from byzregs.constructions import layout_of
from byzregs.core import (
    Commit,
    Correct,
    Crash,
    Event,
    Malicious,
    Plain,
    SeqTuple,
    Signed,
    events_to_jsonl,
    sig_token,
)
from linearize_oracle import history_from_events, oracle_linearize

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, detail


def _sweep(construction, ns, patterns, runs, base_seed):
    """Run seeded scenarios and collect per-run verdicts plus op facts."""
    stats = {
        "runs": 0,
        "violations": [],
        "pending_correct": 0,
        "outside_guarantee": 0,
        "invariant_failures": 0,
        "op_steps": [],
    }
    run_index = 0
    for n in ns:
        for pattern in patterns:
            for _ in range(runs):
                seed = base_seed + run_index
                run_index += 1
                scenario = cli.build_sweep_scenario(
                    construction, n, pattern, seed, 1_000_000, 100_000
                )
                trace, verdicts = cli.run_and_check(scenario)
                stats["runs"] += 1
                for name, v in verdicts.items():
                    if not v.ok:
                        stats["violations"].append((seed, n, pattern, name, v))
                        if name == "internal_invariants":
                            stats["invariant_failures"] += 1
                    elif "outside guarantee" in v.explanation:
                        stats["outside_guarantee"] += 1
                for op in trace.ops:
                    owner_fault = scenario.faults.get(op.proc, Correct())
                    if isinstance(owner_fault, Correct) and op.status == "pending":
                        stats["pending_correct"] += 1
                    if op.status == "completed" and not isinstance(
                        owner_fault, Malicious
                    ):
                        stats["op_steps"].append((n, op.kind, op.steps))
    return stats


CRIT1_PATTERNS = [
    "all-correct",
    "writer-crash",
    "one-malicious-reader",
    "all-readers-malicious",
]

_crit1_cache = {}


def _crit1_stats():
    if "stats" not in _crit1_cache:
        t0 = time.time()
        _crit1_cache["stats"] = _sweep("algo1", [2, 3, 4, 5], CRIT1_PATTERNS,
                                       1000, 420000)
        _crit1_cache["elapsed"] = time.time() - t0
    return _crit1_cache["stats"], _crit1_cache["elapsed"]


def test_criterion_1_linearizability_of_recursive_construction():
    stats, elapsed = _crit1_stats()
    lin_violations = [
        v for v in stats["violations"]
        if v[3] in ("property1", "property2", "bottom_returns")
    ]
    _report(
        "1",
        stats["runs"] == 16000 and not lin_violations and elapsed < 300,
        f"{stats['runs']} runs, {len(lin_violations)} linearizability "
        f"violations, {elapsed:.0f}s",
    )


def test_criterion_2_conditional_wait_freedom():
    # Every criterion-1 pattern satisfies "writer correct or no reader
    # malicious", so no operation by a correct process may stay pending.
    stats, _ = _crit1_stats()
    wf_violations = [v for v in stats["violations"] if v[3] == "wait_freedom"]
    _report(
        "2",
        stats["pending_correct"] == 0
        and not wf_violations
        and stats["outside_guarantee"] == 0,
        f"{stats['pending_correct']} pending correct-process ops over "
        f"{stats['runs']} runs",
    )


def test_criterion_3_blocking_boundary_scenario(tmp_path):
    scenario = sim.load_scenario(os.path.join(SCENARIOS, "blocking_boundary.json"))
    traces = []
    for _ in range(2):
        trace, verdicts = cli.run_and_check(scenario)
        traces.append(events_to_jsonl(trace.events))
    deterministic = traces[0] == traces[1]

    wf = verdicts["wait_freedom"]
    pending = [op for op in trace.ops if op.status == "pending"]
    writer_writes = [e.reg for e in trace.events
                     if e.proc == 0 and e.kind == "reg_write"]
    ok = (
        deterministic
        and wf.ok
        and "outside guarantee" in wf.explanation
        and len(pending) == 1
        and pending[0].proc == 3
        and pending[0].reason.startswith("blocked (lasso ")
        # the writer stopped after its prepare phase: outer prepare plus the
        # four writes implementing the prepare into the inner instance
        and writer_writes
        == ["I3/Rwp", "I3/RwQ/I2/Rwp", "I3/RwQ/I2/RwQ",
            "I3/RwQ/I2/Rwp", "I3/RwQ/I2/RwQ"]
        and all(v.ok for v in verdicts.values())
    )
    _report("3", ok, f"reader 3 pending outside guarantee, deterministic={deterministic}")


ALL_PATTERNS = cli.CANONICAL_PATTERNS + cli.EXTRA_PATTERNS


def test_criterion_4_two_reader_construction_unconditional():
    runs_per = 1429  # 7 patterns x 1429 = 10003 >= 10000 seeded runs
    stats = _sweep("algo2", [2], ALL_PATTERNS, runs_per, 777000)
    _report(
        "4",
        stats["runs"] >= 10000
        and not stats["violations"]
        and stats["pending_correct"] == 0
        and stats["outside_guarantee"] == 0,
        f"{stats['runs']} runs, {len(stats['violations'])} violations, "
        f"{stats['pending_correct']} pending",
    )


def test_criterion_5_signature_construction_tolerates_everything():
    n = 3
    patterns = [
        "all-correct",
        "one-malicious-reader",
        "malicious-writer",
        "majority-malicious-readers",
        "all-readers-malicious",
    ]
    stats = _sweep("algo3", [n], patterns, 2000, 990000)
    bad_steps = [
        (kind, steps)
        for (nn, kind, steps) in stats["op_steps"]
        if (kind == "Read" and steps != 2 * nn + 1)
        or (kind == "Write" and steps != nn)
    ]
    _report(
        "5",
        stats["runs"] == 10000
        and not stats["violations"]
        and stats["pending_correct"] == 0
        and not bad_steps,
        f"{stats['runs']} runs, {len(stats['violations'])} violations, "
        f"{len(bad_steps)} off-count ops",
    )


# -- criterion 6: checker vs oracle over all interleaving classes -------------


def _interval_patterns(n_writes, n_reads):
    """All interleaving classes of a chain of writes and n_reads reads.

    Yields (write_intervals, read_intervals): index pairs; a write's end may
    be None (the last write can stay pending)."""
    total_tokens = 2 * (n_writes + n_reads)

    results = []

    def dfs(t, writes, open_write, reads, open_reads, started_reads):
        done_writes = len(writes)
        if (
            done_writes == n_writes
            and open_write is None
            and started_reads == n_reads
            and not open_reads
        ):
            results.append((tuple(writes), tuple(sorted(reads))))
            return
        if t >= total_tokens:
            return
        # start next write
        if open_write is None and done_writes < n_writes:
            dfs(t + 1, writes, t, reads, open_reads, started_reads)
        # finish the open write
        if open_write is not None:
            dfs(t + 1, writes + [(open_write, t)], None, reads, open_reads,
                started_reads)
        # start a read
        if started_reads < n_reads:
            dfs(t + 1, writes, open_write, reads, open_reads + [t],
                started_reads + 1)
        # finish one open read (each choice yields a distinct pairing)
        for i, start in enumerate(open_reads):
            if i > 0 and open_reads[i - 1] == start:
                continue
            dfs(t + 1, writes, open_write,
                reads + [(start, t)], open_reads[:i] + open_reads[i + 1:],
                started_reads)

    def dfs_pending(t, writes, open_write, reads, open_reads, started_reads):
        # same search, but the final write may stay open forever
        if (
            len(writes) == n_writes - 1
            and open_write is not None
            and started_reads == n_reads
            and not open_reads
        ):
            results.append((tuple(writes + [(open_write, None)]),
                            tuple(sorted(reads))))
            return
        if t >= total_tokens:
            return
        if open_write is None and len(writes) < n_writes:
            dfs_pending(t + 1, writes, t, reads, open_reads, started_reads)
        if open_write is not None and len(writes) < n_writes - 1:
            dfs_pending(t + 1, writes + [(open_write, t)], None, reads,
                        open_reads, started_reads)
        if started_reads < n_reads:
            dfs_pending(t + 1, writes, open_write, reads, open_reads + [t],
                        started_reads + 1)
        for i, start in enumerate(open_reads):
            if i > 0 and open_reads[i - 1] == start:
                continue
            dfs_pending(t + 1, writes, open_write,
                        reads + [(start, t)], open_reads[:i] + open_reads[i + 1:],
                        started_reads)

    dfs(0, [], None, [], [], 0)
    if n_writes:
        dfs_pending(0, [], None, [], [], 0)
    return results


def _class_signature(writes, reads):
    """A pattern's interleaving class without the read values: each read's
    relation to every write, precedence among reads, pending writes."""
    def rel(read, write):
        rs, re = read
        ws, we = write
        if we is not None and we < rs:
            return "after"
        if re < ws:
            return "before"
        return "overlap"

    per_read = tuple(tuple(rel(rd, wr) for wr in writes) for rd in reads)
    prec = tuple(
        tuple(1 if reads[i][1] < reads[j][0] else 0 for j in range(len(reads)))
        for i in range(len(reads))
    )
    pending = tuple(we is None for _, we in writes)
    return (per_read, prec, pending)


def _history_from_pattern(writes, reads, values):
    ops = []
    for k, (ws, we) in enumerate(writes, start=1):
        ops.append(OpRecord(0, "Write", k, value=bytes([k]),
                            invoke_step=2 * ws, respond_step=None if we is None
                            else 2 * we + 1))
    for i, (rs, re) in enumerate(reads):
        ops.append(OpRecord(1 + i, "Read", values[i], invoke_step=2 * rs,
                            respond_step=2 * re + 1))
    return ops


def test_criterion_6_checker_agrees_with_oracle():
    t0 = time.time()
    checked = 0
    patterns = set()
    disagreements = []
    for n_writes in (0, 1, 2):
        for n_reads in range(0, 5):
            if n_writes + n_reads > 6:
                continue
            for writes, reads in _interval_patterns(n_writes, n_reads):
                # A class is a value-free class plus the read values, so
                # every value tuple of the first pattern of each value-free
                # class visits each class once, at its first pattern.
                sig = _class_signature(writes, reads)
                if sig in patterns:
                    continue
                patterns.add(sig)
                for values in itertools.product(range(n_writes + 1),
                                                repeat=n_reads):
                    history = _history_from_pattern(writes, reads, values)
                    p1 = check_property1(history, True).ok
                    p2 = check_property2(history, True).ok
                    oracle = oracle_linearize(history)
                    checked += 1
                    if (p1 and p2) != oracle:
                        disagreements.append((writes, reads, values, p1, p2, oracle))
    _report(
        "6",
        checked == 347_298 and not disagreements,
        f"{checked} interleaving classes, {len(disagreements)} disagreements, "
        f"{time.time() - t0:.0f}s",
    )


# -- criterion 7: appendix invariant suite -------------------------------------


def test_criterion_7_internal_invariant_suite():
    # The pass side on live traces is asserted throughout criteria 1-5 (every
    # sweep run includes the internal-invariant verdict); here the three
    # hand-built mutations must each be caught.
    stats, _ = _crit1_stats()
    live_ok = stats["invariant_failures"] == 0

    inst1 = layout_of("algo1", 3)
    specs1 = {s.reg_id: s for s in inst1.specs}
    commit_inversion = [
        Event(0, 0, 0, "reg_write", reg="I3/Rwp", value=Commit(SeqTuple(2, b"b"))),
        Event(1, 0, 0, "reg_write", reg="I3/Rwp", value=Commit(SeqTuple(1, b"a"))),
    ]
    v1 = checker.validate_internal_invariants(
        sim.Trace(commit_inversion, []), specs1, inst1.classify, {0: Correct()})

    inst2 = layout_of("algo1", 2)
    specs2 = {s.reg_id: s for s in inst2.specs}
    announce_break = [
        Event(0, 1, 0, "reg_write", reg="I2/RpQ", value=Plain(SeqTuple(2, b"b"))),
        Event(1, 1, 0, "reg_write", reg="I2/RpQ", value=Plain(SeqTuple(1, b"a"))),
    ]
    v2 = checker.validate_internal_invariants(
        sim.Trace(announce_break, []), specs2, inst2.classify, {1: Correct()})

    inst3 = layout_of("algo3", 3)
    specs3 = {s.reg_id: s for s in inst3.specs}
    fake = Signed(SeqTuple(5, b"evil"), 0, sig_token(SeqTuple(5, b"evil"), 0))
    bad_signature = [Event(0, 2, 0, "reg_write", reg="Is/R2_1", value=fake)]
    v3 = checker.validate_internal_invariants(
        sim.Trace(bad_signature, []), specs3, inst3.classify, {2: Correct()})

    ok = live_ok and not v1.ok and not v2.ok and not v3.ok
    _report(
        "7",
        ok,
        f"live failures={stats['invariant_failures']}, mutations caught="
        f"{sum(not v.ok for v in (v1, v2, v3))}/3",
    )


def test_criterion_8_attack_harness():
    naive = attack_search("naive-gossip", 3, stage_budget=100_000)
    naive_ok = (
        isinstance(naive, adversary.ViolationWitness)
        and len(naive.events) < 100_000
        and not any(e.proc == 0 for e in naive.events)
        and any(
            e.kind == "respond" and isinstance(e.ret, SeqTuple)
            and e.ret.u == MARKER
            for e in naive.events
        )
    )
    # independent re-check of the witness
    if naive_ok:
        faults = {p: Correct() for p in range(4)}
        history = history_from_events(naive.events, faults)
        naive_ok = not checker.check_property1(history, True).ok

    blocked = attack_search("algo1", 3, stage_budget=100_000)
    control = attack_search("atomic-1wnr", 3, stage_budget=100_000)
    ok = (
        naive_ok
        and isinstance(blocked, adversary.BlockedWitness)
        and isinstance(control, adversary.Exhausted)
    )
    _report(
        "8",
        ok,
        f"naive-gossip={type(naive).__name__}, algo1={type(blocked).__name__}, "
        f"control={type(control).__name__}",
    )
