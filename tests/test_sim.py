import hashlib
import os

import pytest

from byzregs import sim
from byzregs.core import (
    Commit,
    Correct,
    Crash,
    Event,
    Malicious,
    MalformedScenario,
    RegisterFile,
    RegisterSpec,
    SeqTuple,
    events_to_jsonl,
)
from byzregs.core import Plain

# A seeded run resumes every runnable thread again within this many times the
# number of distinct threads resumed meanwhile.
FAIRNESS_CONSTANT = 4


def all_correct(n):
    return {p: Correct() for p in range(n + 1)}


def scenario(n=3, construction="algo1", faults=None, workload=None,
             schedule=None, **kw):
    return sim.Scenario(
        construction=construction,
        n=n,
        faults=faults if faults is not None else all_correct(n),
        workload=workload or [],
        schedule=schedule or sim.Seeded(11),
        **kw,
    )


def test_sequential_write_then_read():
    sc = scenario(workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read", after_op=0),
    ])
    tr = sim.run(sc)
    assert tr.ops[0].status == "completed"
    assert tr.ops[1].ret == SeqTuple(1, b"a")


def test_determinism_byte_identical():
    sc = scenario(workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(0, "write", value=b"b"),
        sim.WorkItem(1, "read"),
        sim.WorkItem(2, "read", after_op=1),
        sim.WorkItem(3, "read"),
    ], schedule=sim.Seeded(99))
    a = events_to_jsonl(sim.run(sc).events)
    b = events_to_jsonl(sim.run(sc).events)
    assert a == b


def test_writer_crash_after_prepare_to_p_read_returns_initial():
    # invoke occupies step 0; the first register write (prepare into R_wp)
    # is step 1; the crash point 2 cuts the writer off right after it.
    sc = scenario(
        faults={0: Crash(2), 1: Correct(), 2: Correct(), 3: Correct()},
        workload=[
            sim.WorkItem(0, "write", value=b"a"),
            sim.WorkItem(1, "read", after_step=3),
        ],
    )
    tr = sim.run(sc)
    writer_regs = [e.reg for e in tr.events if e.proc == 0 and e.kind == "reg_write"]
    assert writer_regs == ["I3/Rwp"]
    assert tr.ops[1].ret == SeqTuple(0, b"")


def test_crash_before_any_step_leaves_no_writer_events():
    sc = scenario(
        faults={0: Crash(0), 1: Correct(), 2: Correct(), 3: Correct()},
        workload=[sim.WorkItem(0, "write", value=b"a"), sim.WorkItem(1, "read")],
    )
    tr = sim.run(sc)
    assert not any(e.proc == 0 for e in tr.events)
    assert tr.ops[0].status == "crashed-owner"
    assert tr.ops[1].status == "completed"


def test_crash_reader_mid_read():
    # Under seed 11, reader 1's read runs from step 1 to its respond at step
    # 5; crashing at 5 cuts it off after its register access but before the
    # response. Everyone else finishes.
    sc = scenario(
        faults={0: Correct(), 1: Crash(5), 2: Correct(), 3: Correct()},
        workload=[
            sim.WorkItem(0, "write", value=b"a"),
            sim.WorkItem(1, "read"),
            sim.WorkItem(2, "read", after_op=0),
        ],
    )
    tr = sim.run(sc)
    read1 = tr.ops[1]
    assert read1.status == "crashed-owner"
    assert read1.respond_step is None
    assert tr.ops[2].status == "completed"


def test_crash_event_emitted_only_after_activity():
    sc = scenario(
        faults={0: Crash(4), 1: Correct(), 2: Correct(), 3: Correct()},
        workload=[sim.WorkItem(0, "write", value=b"a")],
    )
    tr = sim.run(sc)
    kinds = [e.kind for e in tr.events if e.proc == 0]
    assert kinds[-1] == "crash"
    assert kinds.count("crash") == 1


# -- fork semantics --------------------------------------------------------


def _read_race_scenario(picks):
    return scenario(workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(3, "read"),
    ], schedule=sim.Scripted(tuple(picks)))


def test_fork_thread2_returns_last_written_first():
    # Writer stops after its prepare phase (5 accesses); reader 3 forks and
    # only Thread 2 runs: everything is stale, so it returns last_written.
    picks = [(0, 0)] * 5 + [(3, 0)] * 2 + [(3, 2)] * 4 + [(3, 0)]
    tr = sim.run(_read_race_scenario(picks))
    assert tr.ops[1].ret == SeqTuple(0, b"")
    assert not [e for e in tr.events if e.proc == 3 and e.thread == 1]


def test_fork_thread1_returns_after_commit():
    picks = [(0, 0)] * 5 + [(3, 0)] * 2 + [(0, 0)] * 6 + [(3, 1)] * 2 + [(3, 0)]
    tr = sim.run(_read_race_scenario(picks))
    assert tr.ops[1].ret == SeqTuple(1, b"a")
    # the losing thread was cancelled before taking a single step
    assert not [e for e in tr.events if e.proc == 3 and e.thread == 2]


def test_fork_first_scheduled_return_wins_and_cancellation_is_sound():
    # Drive Thread 2 to the brink of returning last_written, then let
    # Thread 1 win the race; the script's pick decides.
    picks = (
        [(0, 0)] * 5 + [(3, 0)] * 2 + [(0, 0)] * 6
        + [(3, 2)] * 3 + [(3, 1)] * 2 + [(3, 0)]
    )
    tr = sim.run(_read_race_scenario(picks))
    assert tr.ops[1].ret == SeqTuple(1, b"a")
    respond = tr.ops[1].respond_step
    t2_steps = [e.step for e in tr.events if e.proc == 3 and e.thread == 2]
    assert all(s < respond for s in t2_steps)


def test_scripted_pick_of_unrunnable_thread_is_malformed():
    picks = [(1, 5)]
    with pytest.raises(MalformedScenario):
        sim.run(_read_race_scenario(picks))


# -- fairness and accounting -------------------------------------------------


def _on_resume(monkeypatch, record):
    """Call record(engine, thread) after every thread resumption."""
    resume = sim.Engine._resume

    def wrapped(eng, t, *args, **kwargs):
        resume(eng, t, *args, **kwargs)
        record(eng, t)

    monkeypatch.setattr(sim.Engine, "_resume", wrapped)


def test_seeded_fairness_bound(monkeypatch):
    sc = scenario(workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(0, "write", value=b"b"),
        sim.WorkItem(1, "read"),
        sim.WorkItem(2, "read"),
        sim.WorkItem(3, "read"),
    ], schedule=sim.Seeded(5))
    log = []
    _on_resume(monkeypatch, lambda eng, t: log.append((t.owner, t.tid)))
    sim.run(sc)
    # Every runnable thread must recur within (#runnable x 4) resumptions.
    active = {}
    for i, key in enumerate(log):
        if key in active:
            window = len({k for k in log[active[key]: i]})
            assert i - active[key] <= FAIRNESS_CONSTANT * max(window, 1)
        active[key] = i


def test_scripted_run_keeps_its_queue_within_the_live_threads(monkeypatch):
    # Replay a long seeded run's resumptions as a scripted schedule.
    sc = _alternating("algo1", 3, 200)
    picks = []
    _on_resume(monkeypatch, lambda eng, t: picks.append((t.owner, t.tid)))
    expected = events_to_jsonl(sim.run(sc).events)
    monkeypatch.undo()

    def excess(eng, t):
        live = sum(not (u.done or u.cancelled) for u in eng.threads.values())
        excesses.append(len(eng.queue) - live)

    excesses = []
    _on_resume(monkeypatch, excess)
    sc.schedule = sim.Scripted(tuple(picks))
    assert events_to_jsonl(sim.run(sc).events) == expected
    assert len(excesses) == len(picks) > 1000
    assert max(excesses) <= 0


def test_step_accounting():
    sc = scenario(workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read"),
        sim.WorkItem(2, "read"),
    ])
    tr = sim.run(sc)
    per_proc = {}
    for e in tr.events:
        if e.kind in ("reg_read", "reg_write"):
            per_proc[e.proc] = per_proc.get(e.proc, 0) + 1
    assert sum(op.steps for op in tr.ops) == sum(per_proc.values())


# -- lassos -------------------------------------------------------------------


def _climb(lie: int, done, per_op_budget: int) -> sim.OpResult:
    """Process 1 raises a counter and writes it, then reads a fixed lie,
    until done(counter, the lie's k); run_queue drives it."""
    from byzregs.constructions import Vars

    state = Vars(c=0, last_written=SeqTuple(0, b""))
    specs = [RegisterSpec("T/C", 1, frozenset([1]), Plain(SeqTuple(0, b""))),
             RegisterSpec("T/L", 2, frozenset([1]), Plain(SeqTuple(lie, b"")))]

    def climb(v):
        while True:
            v.c += 1
            v.last_written = SeqTuple(v.c, b"")
            yield ("w", "T/C", Plain(v.last_written))
            x = yield ("r", "T/L")
            if done(v.c, x.t.k):
                return v.last_written

    eng = sim.Engine(specs, state=state)
    op = eng.spawn_op(1, "Read", None, climb(state))
    eng.run_queue(step_budget=10**6, per_op_budget=per_op_budget)
    return op


def test_counter_above_every_fixed_k_is_a_lasso():
    # The lie's k is 0, below the counter from its first write on, so k > c
    # never holds.
    op = _climb(0, lambda c, k: k > c, 5_000)
    assert (op.status, op.reason) == ("pending", "blocked (lasso 1000..1002; k of T +1)")
    assert op.steps == 1_002


def test_rank_repeat_without_the_shift_falls_back_to_the_budget(monkeypatch):
    # Below the lie's k the rank fingerprint repeats every two steps, but the
    # counter would cross the lie: the read does complete, at c = 1,501.
    shifts = []
    shift = sim._shift

    def recording(si, sj):
        shifts.append(shift(si, sj))
        return shifts[-1]

    monkeypatch.setattr(sim, "_shift", recording)
    op = _climb(1_500, lambda c, k: c > k, 2_000)
    assert (op.status, op.reason) == ("pending", "per-op budget")
    assert len(shifts) > 100 and not any(shifts)
    op = _climb(1_500, lambda c, k: c > k, 10**6)
    assert (op.status, op.steps) == ("completed", 3_002)


def test_memoized_take_equals_a_split_with_an_empty_memo(monkeypatch):
    # Every state the watch takes in algo1's blocked reads: its memo, grown
    # over the watch, changes none of the exact key, rank key and seqs.
    from byzregs.adversary import attack_search

    take = sim._Lasso._take
    states = []

    def both(self, step):
        got = take(self, step)
        memo, self.memo = self.memo, {}
        fresh = take(self, step)
        self.memo = memo
        assert (got is None) == (fresh is None)
        if got is not None:
            assert got[:2] == fresh[:2]
            assert got[2].seqs == fresh[2].seqs
            states.append(n)
        return got

    monkeypatch.setattr(sim._Lasso, "_take", both)
    for n in (3, 4, 5):
        attack_search("algo1", n)
    assert set(states) == {3, 4, 5}


def test_split_memo_follows_each_cell_object():
    # A register rewritten with an equal but distinct cell, with the old cell
    # again and with another value; then cells that die between splits, so a
    # new cell may take a dead one's id and must not get its split.
    memo = {}

    def split(cells, memo):
        seqs = []
        return sim._split(cells, seqs, memo), seqs

    old = Plain(SeqTuple(1, Commit(SeqTuple(4, b"x"))))
    other = Plain(SeqTuple(2, b""))
    for cell in (old, Plain(SeqTuple(1, Commit(SeqTuple(4, b"x")))), old,
                 Plain(SeqTuple(3, Commit(SeqTuple(4, b"x")))), old):
        assert split((cell, other), memo) == split((cell, other), {})
    for k in range(100):
        cells = (Plain(SeqTuple(k, Commit(SeqTuple(100 - k, b"y")))), other)
        assert split(cells, memo) == split(cells, {})


def test_an_unfair_repeat_is_not_a_lasso():
    # The op's two branches each spin reading one register. Resuming only
    # branch b repeats the state at once, but branch a stays runnable and
    # unresumed, so no lasso counts until a has been resumed in the cycle.
    from byzregs.constructions import Vars

    specs = [RegisterSpec("T/R", 2, frozenset([1]), Plain(SeqTuple(0, b"")))]

    def spin():
        while True:
            yield ("r", "T/R")

    def forking():
        return (yield ("fork", spin(), spin()))

    eng = sim.Engine(specs, state=Vars(c=0))
    eng.spawn_op(1, "Read", None, forking())
    eng._resume(eng.queue.popleft())
    a, b = eng.queue
    watch = sim._Lasso(eng, b, 0)

    def step(t):
        eng.queue.remove(t)
        before = len(eng.events)
        eng._resume(t)
        return watch.observe(t, before)

    assert [step(b) for _ in range(5)] == [None] * 5
    assert step(a) is None and step(b) is None
    assert step(a) == "blocked (lasso 6..8)"


def test_budget_stop_ends_both_branches_of_a_forked_read():
    # The writer crashes mid-write, so reader 3's read forks; its budget of
    # four register steps runs out while reader 2's read is still open.
    sc = scenario(
        faults={0: Crash(4), 1: Correct(), 2: Correct(), 3: Correct()},
        workload=[
            sim.WorkItem(0, "write", value=b"a"),
            sim.WorkItem(3, "read", after_step=4),
            sim.WorkItem(2, "read", after_step=8),
        ],
        schedule=sim.Seeded(0),
        per_op_budget=4,
    )
    tr = sim.run(sc)
    stopped, other = tr.ops[1], tr.ops[2]
    assert (stopped.status, stopped.reason) == ("pending", "per-op budget")
    accesses = [e for e in tr.events
                if e.proc == 3 and e.kind in ("reg_read", "reg_write")]
    stop_step = accesses[-1].step
    assert stopped.steps == len(accesses) == 4
    # Without the budget both branches would still act after the stop step.
    free = sim.run(scenario(faults=sc.faults, workload=sc.workload,
                            schedule=sc.schedule))
    assert {e.thread for e in free.events
            if e.proc == 3 and e.step > stop_step} >= {1, 2}
    assert [e for e in tr.events if e.proc == 3 and e.step > stop_step] == []
    assert other.invoke_step < stop_step < other.respond_step
    assert other.status == "completed"


def test_one_outstanding_op_per_process():
    sc = scenario(workload=[
        sim.WorkItem(1, "read"),
        sim.WorkItem(1, "read"),
    ])
    tr = sim.run(sc)
    first, second = tr.ops
    assert first.respond_step < second.invoke_step


def test_malicious_process_may_not_own_workload_ops():
    sc = scenario(
        faults={0: Correct(), 1: Malicious(()), 2: Correct(), 3: Correct()},
        workload=[sim.WorkItem(1, "read")],
    )
    with pytest.raises(MalformedScenario):
        sim.run(sc)


def test_malicious_script_runs_and_is_access_checked():
    poison = (("w", "I3/R2_3", Plain(SeqTuple(9, b"x"))),)
    sc = scenario(
        faults={0: Correct(), 1: Correct(), 2: Malicious(poison), 3: Correct()},
        workload=[sim.WorkItem(0, "write", value=b"a")],
    )
    tr = sim.run(sc)
    lies = [e for e in tr.events if e.proc == 2 and e.kind == "reg_write"]
    assert [e.reg for e in lies] == ["I3/R2_3"]


def test_step_budget_marks_pending():
    sc = scenario(workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read"),
    ], step_budget=4)
    tr = sim.run(sc)
    assert tr.meta["budget_exhausted"]
    assert any(op.status == "pending" for op in tr.ops)


def test_scenario_json_roundtrip():
    poison = (("w", "I3/R2_3", Plain(SeqTuple(9, b"x"))),)
    sc = scenario(
        faults={0: Crash(7), 1: Correct(), 2: Malicious(poison), 3: Correct()},
        workload=[
            sim.WorkItem(0, "write", value=b"a"),
            sim.WorkItem(3, "read", after_step=8),
        ],
        step_budget=500,
    )
    doc = sim.scenario_to_json(sc)
    back = sim.scenario_from_json(doc)
    assert sim.scenario_to_json(back) == doc
    a = events_to_jsonl(sim.run(sc).events)
    b = events_to_jsonl(sim.run(back).events)
    assert a == b


def test_crashed_actor_cannot_be_resumed():
    from byzregs import constructions
    from byzregs.core import CrashedActor

    inst = constructions.build_instance("algo1", 3)
    eng = sim.Engine(inst.specs)
    eng.spawn_op(0, "Write", b"a", inst.write_machine(b"a"))
    t = eng.threads[(0, 0)]
    eng._mark_crashed(0)
    with pytest.raises(CrashedActor):
        eng._resume(t)


def test_due_crashes_go_lowest_process_first():
    # At 8 events processes 1 and 3 are due; the crash event of 1 makes 2
    # due, and 2 still goes before 3.
    sc = scenario(
        faults={0: Correct(), 1: Crash(8), 2: Crash(9), 3: Crash(8)},
        workload=[sim.WorkItem(p, "read") for p in (1, 2, 3)],
    )
    tr = sim.run(sc)
    crashes = [(e.step, e.proc) for e in tr.events if e.kind == "crash"]
    assert crashes == [(8, 1), (9, 2), (10, 3)]


def test_access_closure_over_real_traces():
    # No event may reference a (register, actor) pair outside the declared
    # writer/reader sets.
    from byzregs import constructions

    inst = constructions.build_instance("algo1", 4)
    sc = scenario(n=4, workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read"),
        sim.WorkItem(2, "read"),
        sim.WorkItem(4, "read", after_op=0),
    ], faults={p: Correct() for p in range(5)}, schedule=sim.Seeded(17))
    tr = sim.run(sc, instance=inst)
    specs = {s.reg_id: s for s in inst.specs}
    for e in tr.events:
        if e.kind == "reg_write":
            assert specs[e.reg].writer == e.proc
        elif e.kind == "reg_read":
            assert e.proc in specs[e.reg].readers


def test_fork_thread2_can_return_last_written_despite_commit():
    # The commit is already in R_wQ, but Thread 2 resolves first with the
    # prepare's last_written; the schedule's pick decides the race.
    picks = [(0, 0)] * 5 + [(3, 0)] * 2 + [(0, 0)] * 6 + [(3, 2)] * 4 + [(3, 0)]
    tr = sim.run(_read_race_scenario(picks))
    assert tr.ops[0].status == "completed"
    assert tr.ops[1].ret == SeqTuple(0, b"")


def replay_registers(events, specs) -> None:
    """Replay register events on fresh registers: every access must obey the
    specs' access rules and every read return the cell last written to its
    register."""
    registers = RegisterFile(specs)
    for e in events:
        if e.kind == "reg_read":
            cell = registers.read(e.reg, e.proc)
            assert e.value == cell, (f"step {e.step}: read of {e.reg} returned "
                                     f"{e.value!r}, not its last written cell {cell!r}")
        elif e.kind == "reg_write":
            registers.write(e.reg, e.proc, e.value)


def test_register_replay_catches_divergence():
    specs = {"Rwp": RegisterSpec("Rwp", 0, frozenset([1]), Commit(SeqTuple(0, b"")))}
    a = Commit(SeqTuple(1, b"a"))
    replay_registers([
        Event(0, 0, 0, "reg_write", reg="Rwp", value=a),
        Event(1, 1, 0, "reg_read", reg="Rwp", value=a),
    ], specs)
    with pytest.raises(AssertionError, match="step 0: read of Rwp"):
        replay_registers([
            Event(0, 1, 0, "reg_read", reg="Rwp", value=Commit(SeqTuple(5, b"zz"))),
        ], specs)


def test_atomicity_replay_on_real_trace():
    from byzregs import constructions

    inst = constructions.build_instance("algo1", 4)
    sc = scenario(n=4, faults={p: Correct() for p in range(5)}, workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(0, "write", value=b"b"),
        sim.WorkItem(2, "read"),
        sim.WorkItem(3, "read", after_op=0),
        sim.WorkItem(4, "read"),
    ], schedule=sim.Seeded(23))
    tr = sim.run(sc, instance=inst)
    replay_registers(tr.events, inst.by_id)


from hypothesis import given, settings, strategies as st


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(2, 4),
    pattern=st.sampled_from([
        "all-correct", "writer-crash", "one-malicious-reader",
        "all-readers-malicious", "malicious-writer",
    ]),
)
def test_random_scenarios_hold_core_invariants(seed, n, pattern):
    from byzregs import cli, constructions

    sc = cli.build_sweep_scenario("algo1", n, pattern, seed, 200_000, 50_000)
    inst = constructions.build_instance("algo1", n)
    tr = sim.run(sc, instance=inst)
    # determinism
    inst2 = constructions.build_instance("algo1", n)
    tr2 = sim.run(sc, instance=inst2)
    assert events_to_jsonl(tr.events) == events_to_jsonl(tr2.events)
    # atomicity: replay reproduces every read
    replay_registers(tr.events, inst.by_id)
    # access closure and single-writer
    specs = {s.reg_id: s for s in inst.specs}
    for e in tr.events:
        if e.kind == "reg_write":
            assert specs[e.reg].writer == e.proc
        elif e.kind == "reg_read":
            assert e.proc in specs[e.reg].readers


# -- workload admission ------------------------------------------------------


def _alternating(construction, n, ops):
    """Writes alternate with reads spread round-robin over the readers."""
    workload = []
    for i in range(ops):
        if i % 2 == 0:
            workload.append(sim.WorkItem(0, "write", value=f"v{i // 2 + 1}".encode()))
        else:
            workload.append(sim.WorkItem((i // 2) % n + 1, "read"))
    return scenario(n=n, construction=construction, faults=all_correct(n),
                    workload=workload, schedule=sim.Seeded(1))


def _gated():
    # Item 1 waits on after_step while proc 1's next read (item 2) and
    # proc 2's read (item 3) go ahead; item 5 waits on the second write.
    return scenario(workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read", after_step=40),
        sim.WorkItem(1, "read"),
        sim.WorkItem(2, "read"),
        sim.WorkItem(0, "write", value=b"b"),
        sim.WorkItem(3, "read", after_op=4),
        sim.WorkItem(2, "read", after_step=12),
    ], schedule=sim.Seeded(5))


def _scripted_fork_and_crash():
    # Reader 3 forks on the writer's prepare, the writer crashes at step 13
    # (its second write becomes crashed-owner), Thread 2 wins the race, and
    # the picks end as the read responds: reader 1's read, gated on it, is
    # never admitted.
    picks = [(0, 0)] * 5 + [(3, 0)] * 2 + [(0, 0)] * 3 + [(3, 2)] * 4 + [(3, 0)]
    return scenario(
        faults={0: Crash(13), 1: Correct(), 2: Correct(), 3: Correct()},
        workload=[
            sim.WorkItem(0, "write", value=b"a"),
            sim.WorkItem(3, "read"),
            sim.WorkItem(0, "write", value=b"b"),
            sim.WorkItem(1, "read", after_op=1),
        ],
        schedule=sim.Scripted(tuple(picks)),
    )


def _all_script_kinds():
    # Malicious reader 3 uses every script kind of a scenario document.
    plain = {"t": "plain", "tuple": {"k": 5, "u": "x"}}
    return sim.scenario_from_json({
        "construction": "algo1",
        "n": 3,
        "faults": {"3": {"kind": "malicious", "script": {"kind": "seq", "items": [
            {"kind": "resetall"},
            {"kind": "lie", "reg": "I3/R3_2", "cell": plain},
            {"kind": "replay", "actions": [
                {"a": "w", "reg": "I3/R3_3", "cell": plain},
                {"a": "r", "reg": "I3/R2_3"},
            ]},
            {"kind": "idle"},
            {"kind": "resetall"},
        ]}}},
        "workload": [
            {"proc": 0, "op": "write", "value": "a"},
            {"proc": 1, "op": "read"},
            {"proc": 2, "op": "read", "after_op": 0},
        ],
        "schedule": {"kind": "seeded", "seed": 3},
    })


_SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# sha256 of each scenario's event JSONL: admission order, event steps,
# thread ids and queue order all show in it.
GOLDEN_TRACES = {
    "alternating-algo1-n3": (
        lambda: _alternating("algo1", 3, 200),
        "40fffcaed760bca18a38a72be3254f4370734374af58d576fd182bb21e7736a1"),
    "alternating-algo2-n2": (
        lambda: _alternating("algo2", 2, 200),
        "d46392f33e0025f1301575402aa19a5e35e3a48e2772d22617b846cab43a5956"),
    "alternating-algo3-n3": (
        lambda: _alternating("algo3", 3, 200),
        "fd3c59f1df1ba33c681e6b9b821315bcbfb6c71615d14fe88716d1da0ca2b6d5"),
    "all-script-kinds": (
        _all_script_kinds,
        "af0db1fd89c1a9e65fc874ce7ac3bdca077ce350c9b5455c74e84a6bdf049540"),
    "all_correct.json": (
        lambda: sim.load_scenario(f"{_SCENARIO_DIR}/all_correct.json"),
        "99fdd37bcfcde100e540c825a6ade66fd29f4d694aff174e57e17a8d57644860"),
    "blocking_boundary.json": (
        lambda: sim.load_scenario(f"{_SCENARIO_DIR}/blocking_boundary.json"),
        "bfea24ef7d809e054ece5fdc821bd32bc0598903e7a5658a77c8ca470e721341"),
    "gated": (
        _gated,
        "5f38ba392f19d0b602e993c6d010fea515406c0dabb28df4c333faa69c8714a4"),
    "scripted-fork-crash": (
        _scripted_fork_and_crash,
        "1a9eda727566891dfe90db31e437356a4190011b84748a7fcc856a52693a12d2"),
}


def test_script_documents_are_written_back_as_replay():
    # scenario_to_json writes each script as the replay of its accesses;
    # parsing that document back is a fixed point with the same run.
    sc = _all_script_kinds()
    doc = sim.scenario_to_json(sc)
    script = doc["faults"]["3"]["script"]
    assert script["kind"] == "replay"
    assert len(script["actions"]) == len(sc.faults[3].script) == 11
    back = sim.scenario_from_json(doc)
    assert back.faults == sc.faults
    assert sim.scenario_to_json(back) == doc
    assert events_to_jsonl(sim.run(back).events) == events_to_jsonl(sim.run(sc).events)


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_golden_trace(name):
    build, digest = GOLDEN_TRACES[name]
    tr = sim.run(build())
    assert hashlib.sha256(events_to_jsonl(tr.events)).hexdigest() == digest


def test_gated_item_lets_later_items_of_its_process_go_first():
    tr = sim.run(_gated())
    invoke = {op.index: op.invoke_step for op in tr.ops}
    assert all(op.status == "completed" for op in tr.ops)
    assert invoke[2] < invoke[1] == 40
    assert invoke[6] == 12
    assert invoke[5] > tr.ops[4].respond_step


def test_budget_stopped_op_holds_back_its_process():
    # The writer crashes mid-write and a malicious reader lies, so proc 3's
    # second read spins until it is stopped at a lasso. It stays pending, so
    # proc 3's third read is never invoked and the history stays well formed.
    from byzregs import cli

    sc = cli.build_sweep_scenario("algo1", 3, "writer-crash+one-malicious-reader",
                                  1803, sim.DEFAULT_STEP_BUDGET, 1500)
    assert [w.proc for w in sc.workload].count(3) == 3
    trace, verdicts = cli.run_and_check(sc)
    stopped = [op for op in trace.ops
               if op.reason and op.reason.startswith("blocked (lasso ")]
    assert [(op.proc, op.status) for op in stopped] == [(3, "pending")]
    assert 5 not in {op.index for op in trace.ops}
    assert sum(e.kind == "invoke" and e.proc == 3 for e in trace.events) == 2
    assert verdicts["wait_freedom"].ok
    assert "outside guarantee" in verdicts["wait_freedom"].explanation


# -- lassos in scenario runs -------------------------------------------------


def _blocking_boundary():
    return sim.load_scenario(f"{_SCENARIO_DIR}/blocking_boundary.json")


def _sweep_1803():
    from byzregs import cli

    return cli.build_sweep_scenario("algo1", 3, "writer-crash+one-malicious-reader",
                                    1803, sim.DEFAULT_STEP_BUDGET, 1500)


def _run_outputs(sc):
    """The pending reasons, trace bytes and verdict bytes that run writes."""
    from byzregs import cli

    trace, verdicts = cli.run_and_check(sc)
    return ([op.reason for op in trace.ops if op.status == "pending"],
            events_to_jsonl(trace.events),
            cli._json_bytes({name: v.to_json() for name, v in verdicts.items()}))


@pytest.mark.parametrize("build", [_blocking_boundary, _sweep_1803])
def test_scenario_lasso_run_is_a_prefix_of_its_budget_run(monkeypatch, build):
    reasons, trace, verdicts = _run_outputs(build())
    assert len(reasons) == 1 and reasons[0].startswith("blocked (lasso ")
    # With the watch's threshold above the budget the op spins to its budget,
    # and the run goes on from the same prefix to the same verdicts.
    monkeypatch.setattr(sim, "LASSO_THRESHOLD", build().per_op_budget + 1)
    budget_reasons, budget_trace, budget_verdicts = _run_outputs(build())
    assert budget_reasons == ["per-op budget"]
    assert len(trace) < len(budget_trace) and budget_trace.startswith(trace)
    assert verdicts == budget_verdicts


def test_no_lasso_counts_before_the_last_step_gate():
    # Proc 1's read waits for event 1,200, past the 1,011 events at which
    # proc 3's read is otherwise stopped; the stop waits for the gate.
    sc = _blocking_boundary()
    sc.workload.append(sim.WorkItem(1, "read", after_step=1200))
    tr = sim.run(sc)
    blocked, gated = tr.ops[1], tr.ops[2]
    assert blocked.reason.startswith("blocked (lasso ")
    assert gated.invoke_step == 1200 and gated.status == "completed"
    assert max(e.step for e in tr.events if e.proc == 3) > gated.invoke_step


def test_scripted_run_is_stopped_only_by_its_budget(monkeypatch):
    # The budget run's resumptions, replayed as picks: proc 3's read passes
    # LASSO_THRESHOLD but is never watched, so it spins to its budget.
    sc = _blocking_boundary()
    picks = []
    _on_resume(monkeypatch, lambda eng, t: picks.append((t.owner, t.tid)))
    monkeypatch.setattr(sim, "LASSO_THRESHOLD", sc.per_op_budget + 1)
    expected = events_to_jsonl(sim.run(sc).events)
    monkeypatch.undo()
    sc.schedule = sim.Scripted(tuple(picks))
    tr = sim.run(sc)
    read = tr.ops[1]
    assert (read.status, read.reason, read.steps) == ("pending", "per-op budget", 1500)
    assert events_to_jsonl(tr.events) == expected


def test_after_op_fires_on_budget_stop():
    # An algo1 n=3 Write takes 10 register steps, so a budget of 3 stops
    # the first one: it resolves for after_op dependents, yet holds back the
    # writer's second Write.
    sc = scenario(workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(0, "write", value=b"b"),
        sim.WorkItem(1, "read", after_op=0),
    ], per_op_budget=3)
    tr = sim.run(sc)
    first, read = tr.ops
    assert (first.status, first.reason) == ("pending", "per-op budget")
    assert read.index == 2 and read.status == "completed"
    assert read.invoke_step > first.invoke_step


def test_crash_at_an_invoke_releases_dependents_in_the_same_pass():
    # The writer's invoke (step 3) reaches reader 1's crash point while its
    # first read is open: its second read is marked crashed-owner in the same
    # admission pass, so the read gated on it is invoked right after the
    # crash event.
    sc = scenario(
        faults={0: Correct(), 1: Crash(4), 2: Correct(), 3: Correct()},
        workload=[
            sim.WorkItem(1, "read"),
            sim.WorkItem(0, "write", value=b"a", after_step=3),
            sim.WorkItem(1, "read"),
            sim.WorkItem(2, "read", after_op=2),
        ],
        schedule=sim.Seeded(3),
    )
    tr = sim.run(sc)
    assert [(e.step, e.proc, e.kind) for e in tr.events[3:6]] == [
        (3, 0, "invoke"), (4, 1, "crash"), (5, 2, "invoke")]
    assert [op.status for op in tr.ops] == [
        "crashed-owner", "completed", "crashed-owner", "completed"]


def test_crash_at_its_own_invoke_marks_the_op_crashed_owner():
    # The writer's invoke is event 0, so the crash point 1 is reached by the
    # invoke itself; the write must not stay pending, and the read gated on
    # it runs.
    sc = scenario(construction="algo2", n=2, faults={0: Crash(1)}, workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read", after_op=0),
    ])
    tr = sim.run(sc)
    assert [(e.proc, e.kind) for e in tr.events[:2]] == [(0, "invoke"), (0, "crash")]
    write, read = tr.ops
    assert (write.status, write.reason) == ("crashed-owner", None)
    assert read.status == "completed" and read.ret == SeqTuple(0, b"")


class _ScanAdmission:
    """Reference admission: every step scans the whole workload in order."""

    def __init__(self, workload, instance, eng):
        self.workload, self.instance, self.eng = workload, instance, eng
        self.op_for_item = {}

    def admit(self, quiescent):
        eng, did = self.eng, False
        for i, item in enumerate(self.workload):
            if i in self.op_for_item:
                continue
            if item.proc in eng.crashed:
                op = sim.OpResult(index=i, proc=item.proc,
                                  kind="Write" if item.op == "write" else "Read",
                                  arg=item.value, status="crashed-owner")
                eng.ops.append(op)
                self.op_for_item[i] = op
                continue
            mine = [op for j, op in self.op_for_item.items()
                    if self.workload[j].proc == item.proc]
            if mine and mine[-1].status == "pending":
                continue
            if item.after_op is not None:
                dep = self.op_for_item.get(item.after_op)
                if dep is None or (dep.status == "pending" and dep.reason is None):
                    continue
            if item.after_step is not None and len(eng.events) < item.after_step \
                    and not quiescent:
                continue
            if item.op == "write":
                gen = self.instance.write_machine(item.value)
                op = eng.spawn_op(item.proc, "Write", item.value, gen, index=i)
            else:
                gen = self.instance.read_machine(item.proc)
                op = eng.spawn_op(item.proc, "Read", None, gen, index=i)
            self.op_for_item[i] = op
            did = True
        return did


def _random_gated_scenario(seed):
    import random

    from byzregs import cli, constructions

    rng = random.Random(seed)
    construction = rng.choice(["algo1", "algo2", "algo3"])
    n = 2 if construction == "algo2" else rng.randint(2, 4)
    specs = constructions.build_instance(construction, n).specs
    faults = all_correct(n)
    for p in range(n + 1):
        roll = rng.random()
        if roll < 0.2:
            faults[p] = Crash(rng.randint(0, 120))
        elif roll < 0.3 and p != 0:
            faults[p] = Malicious(cli.random_script(rng, specs, p))
    readers = [p for p in range(1, n + 1) if not isinstance(faults[p], Malicious)]
    workload = []
    for i in range(rng.randint(1, 25)):
        if not readers or rng.random() < 0.35:
            item = sim.WorkItem(0, "write", value=f"v{i}".encode())
        else:
            item = sim.WorkItem(rng.choice(readers), "read")
        if i and rng.random() < 0.3:
            item.after_op = rng.randrange(i)
        if rng.random() < 0.3:
            item.after_step = rng.randint(0, 200)
        workload.append(item)
    return scenario(n=n, construction=construction, faults=faults,
                    workload=workload, schedule=sim.Seeded(seed),
                    step_budget=rng.choice([300, 5000, 100_000]),
                    per_op_budget=rng.choice([5, 20, 200, 100_000]))


def test_admission_matches_full_workload_scan(monkeypatch):
    # Random gates, crashes (some at an invoke, mid-pass) and budget stops.
    def outcome(sc):
        tr = sim.run(sc)
        return events_to_jsonl(tr.events), [
            (op.index, op.status, op.reason, op.steps, op.invoke_step)
            for op in tr.ops
        ]

    scenarios = [_random_gated_scenario(seed) for seed in range(400)]
    fast = [outcome(sc) for sc in scenarios]
    monkeypatch.setattr(sim, "_Admission", _ScanAdmission)
    for seed, (sc, got) in enumerate(zip(scenarios, fast)):
        assert got == outcome(sc), f"scenario seed {seed}"
