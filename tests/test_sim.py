import hashlib
import os

import pytest

from byzregs import lasso, sim
from byzregs.constructions import Layout
from byzregs.core import (
    Commit,
    Correct,
    Crash,
    Event,
    Malicious,
    MalformedScenario,
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


def engine(specs):
    """An engine over hand-written registers, for hand-written machines."""
    return sim.Engine(Layout(sorted({r for s in specs for r in s.readers}), specs, {}))


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
    # Cut in half, the picks hand over to a FIFO queue of the live threads.
    excesses.clear()
    sc.schedule = sim.Scripted(tuple(picks[:len(picks) // 2]))
    tr = sim.run(sc)
    assert all(op.status == "completed" for op in tr.ops)
    assert len(excesses) > len(picks) // 2 and max(excesses) <= 0


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
    specs = [RegisterSpec("T/C", 1, frozenset([1]), Plain(SeqTuple(0, b""))),
             RegisterSpec("T/L", 2, frozenset([1]), Plain(SeqTuple(lie, b"")))]
    eng = engine(specs)
    state = eng.state
    state.last_written = SeqTuple(0, b"")

    def climb(v):
        while True:
            v.c += 1
            v.last_written = SeqTuple(v.c, b"")
            yield ("w", "T/C", Plain(v.last_written))
            x = yield ("r", "T/L")
            if done(v.c, x.t.k):
                return v.last_written

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
    # Below the lie's k the fingerprint repeats every two steps, but the
    # counter would cross the lie: the read does complete, at c = 1,501.
    shifts = []
    shift = lasso._shift

    def recording(si, sj):
        shifts.append(shift(si, sj))
        return shifts[-1]

    monkeypatch.setattr(lasso, "_shift", recording)
    op = _climb(1_500, lambda c, k: c > k, 2_000)
    assert (op.status, op.reason) == ("pending", "per-op budget")
    assert len(shifts) > 100 and not any(shifts)
    op = _climb(1_500, lambda c, k: c > k, 10**6)
    assert (op.status, op.steps) == ("completed", 3_002)


def test_memoized_take_equals_a_split_with_an_empty_memo(monkeypatch):
    # Every state the watch takes in algo1's blocked reads at n = 3..7: what
    # it keeps from take to take (its memo, running hash, parts, chains and
    # heads) changes neither the hash nor the fingerprint and seqs of the
    # take a new watch makes from nothing, with the memo and hash of the
    # layout's initial cells made anew.
    from byzregs.adversary import attack_search

    take = lasso.Watch._take
    states = []

    def both(self, step):
        got = take(self, step)
        fresh = lasso.Watch(self.eng, self.root)
        fresh.memo, fresh.hash = lasso._initial.__wrapped__(self.eng.layout)
        made = take(fresh, step)
        assert (got is None) == (made is None)
        if got is not None:
            assert (got[0], self.hash) == (made[0], fresh.hash)
            assert self._fingerprint(got[1]) == fresh._fingerprint(made[1])
            assert got[1].seqs == made[1].seqs
            states.append(n)
        return got

    monkeypatch.setattr(lasso.Watch, "_take", both)
    for n in (3, 4, 5, 6, 7):
        attack_search("algo1", n)
    assert set(states) == {3, 4, 5, 6, 7}


def test_incremental_take_follows_every_register_write():
    # Between two takes of one watch, another process rewrites a register:
    # with an equal but distinct cell, with its old cell, and with cells
    # that die, so that a later cell may take a dead one's id. Each take
    # equals the take a new watch makes from nothing.
    initial = Plain(SeqTuple(0, b""))
    specs = [RegisterSpec("T/R", 2, frozenset([1]), initial),
             RegisterSpec("T/S", 2, frozenset([1]), initial)]

    def spin():
        while True:
            yield ("r", "T/S")

    eng = engine(specs)
    eng.spawn_op(1, "Read", None, spin())
    (t,) = eng.queue
    watch = lasso.Watch(eng, t)

    def write(*cells):
        s = eng.spawn_script(2, tuple(("w", "T/R", c) for c in cells))
        while not s.done:
            eng.queue.remove(s)
            eng._resume(s, sim.DEFAULT_PER_OP_BUDGET)
        # The trace lets go of the cells, so that only the register and
        # the watch can keep them alive.
        for e in eng.events[-len(cells):]:
            e.value = None

    def take():
        eng.queue.remove(t)
        before = len(eng.events)
        eng._resume(t, sim.DEFAULT_PER_OP_BUDGET)
        fresh = lasso.Watch(eng, t)
        (key, p), (fresh_key, q) = watch._take(before), fresh._take(before)
        # The hash, the fingerprint and the seqs whose ranks it holds.
        got = key, watch._fingerprint(p), p.seqs
        assert got == (fresh_key, fresh._fingerprint(q), q.seqs)
        return got

    old = Plain(SeqTuple(1, Commit(SeqTuple(4, b"x"))))
    write(old)
    first = take()
    write(Plain(SeqTuple(1, Commit(SeqTuple(4, b"x")))))
    assert take() == first
    write(old)
    assert take() == first
    write(Plain(SeqTuple(2, Commit(SeqTuple(4, b"x")))))
    assert take() != first
    for k in range(100):
        write(Plain(SeqTuple(k, Commit(SeqTuple(100 - k, b"y")))),
              Plain(SeqTuple(k + 1, Commit(SeqTuple(k, b"y")))))
        take()
    write(initial)
    take()


def test_split_memo_follows_each_cell_object():
    # A register rewritten with an equal but distinct cell, with the old cell
    # again and with another value; then cells that die between splits, so a
    # new cell may take a dead one's id and must not get its split.
    memo = {}

    def split(cells, memo):
        seqs = []
        return lasso._split(cells, seqs, memo), seqs

    old = Plain(SeqTuple(1, Commit(SeqTuple(4, b"x"))))
    other = Plain(SeqTuple(2, b""))
    for cell in (old, Plain(SeqTuple(1, Commit(SeqTuple(4, b"x")))), old,
                 Plain(SeqTuple(3, Commit(SeqTuple(4, b"x")))), old):
        assert split((cell, other), memo) == split((cell, other), {})
    for k in range(100):
        cells = (Plain(SeqTuple(k, Commit(SeqTuple(100 - k, b"y")))), other)
        assert split(cells, memo) == split(cells, {})


def test_a_take_splits_a_list_local_like_a_tuple():
    # An algo3 read keeps the signed cells it verified in a list local: a
    # take splits it like a tuple, with list first in its skeleton, at each
    # of the read's steps.
    from byzregs import constructions

    seqs = []
    cell = Plain(SeqTuple(3, b"a"))
    skel, height = lasso._split([cell, 1], seqs, {})
    assert (skel[0], skel[2], height, seqs) == (list, 1, 1, [3 << 7])
    assert lasso._split((cell, 1), [], {})[0][1:] == skel[1:]
    eng = sim.Engine(constructions.layout_of("algo3", 3))
    op = eng.spawn_read(1)
    (t,) = eng.queue
    watch = lasso.Watch(eng, t)
    while op.status == "pending":
        before = len(eng.events)
        eng.run_queue(before + 1, sim.DEFAULT_PER_OP_BUDGET)
        assert watch.observe(t, before, False) is None
    # Each of the read's 2n + 1 steps is a state of its own.
    assert op.steps == 7 and len(watch.seen) == 7


def test_a_take_splits_a_dict_local_by_its_items_and_keeps_a_set():
    # A dict local is split as its items in order, keys included, so the k
    # of a SeqTuple key is a sequence number like any other; a set local is
    # kept as a frozenset, whose numbers must repeat exactly.
    a, b = Plain(SeqTuple(3, b"a")), Plain(SeqTuple(4, b"a"))
    sa, sb = [], []
    skel, height = lasso._split({a: "x", "y": 1}, sa, {})
    assert lasso._split({b: "x", "y": 1}, sb, {}) == (skel, height)
    assert (height, sa, sb) == (1, [3 << 7], [4 << 7])
    assert lasso._split({"y": 1, a: "x"}, [], {})[0] != skel  # order counts
    assert lasso._split({a: "x", "y": 2}, [], {})[0] != skel  # so do values
    seqs = []
    assert lasso._split({a}, seqs, {}) == (frozenset({a}), 0) and seqs == []
    assert lasso._split({b}, [], {})[0] != frozenset({a})
    # Nested in a frame's locals, both give a part with a hash.
    part = lasso._part((1, {a: {2}}, [{3: b}]), {})
    assert hash(part) == part.hash and part.seqs == [3 << 7, 4 << 7]


def test_a_read_with_a_dict_and_a_set_local_stops_at_a_lasso():
    # The read notes each value it reads in a dict and a set, and spins
    # while the register holds the initial cell: the states after its second
    # and third reads are equal.
    specs = [RegisterSpec("T/R", 2, frozenset([1]), Plain(SeqTuple(0, b"")))]

    def spin():
        votes, ks = {}, set()
        while True:
            x = yield ("r", "T/R")
            votes[x.t] = "T/R"
            ks.add(x.t.k)
            if x.t.k:
                return x.t

    eng = engine(specs)
    op = eng.spawn_op(1, "Read", None, spin())
    eng.run_queue(10**4, sim.DEFAULT_PER_OP_BUDGET, watch_at=1)
    assert (op.status, op.reason, op.steps) == ("pending", "blocked (lasso 2..3)", 3)


def test_an_unfair_repeat_is_not_a_lasso():
    # The op's two branches each spin reading one register. Resuming only
    # branch b repeats the state at once, but branch a stays runnable and
    # unresumed, so no lasso counts until a has been resumed in the cycle.
    specs = [RegisterSpec("T/R", 2, frozenset([1]), Plain(SeqTuple(0, b"")))]

    def spin():
        while True:
            yield ("r", "T/R")

    def forking():
        return (yield ("fork", spin(), spin()))

    eng = engine(specs)
    eng.spawn_op(1, "Read", None, forking())
    eng._resume(eng.queue.popleft(), sim.DEFAULT_PER_OP_BUDGET)
    a, b = eng.queue
    watch = lasso.Watch(eng, b)

    def step(t):
        eng.queue.remove(t)
        before = len(eng.events)
        eng._resume(t, sim.DEFAULT_PER_OP_BUDGET)
        return watch.observe(t, before, False)

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
    assert len(tr.events) == 4
    assert [(op.status, op.reason) for op in tr.ops] == [
        ("pending", "step budget"), ("pending", "step budget")]


def test_scenario_json_roundtrip():
    poison = (("w", "I3/R2_3", Plain(SeqTuple(9, b"x"))),)
    for schedule in [
        sim.Seeded(11),
        # The malicious script's write, then the writer's first three steps.
        sim.Scripted(((2, 0), (0, 0), (0, 0), (0, 0))),
    ]:
        sc = scenario(
            faults={0: Crash(7), 1: Correct(), 2: Malicious(poison), 3: Correct()},
            workload=[
                sim.WorkItem(0, "write", value=b"a"),
                sim.WorkItem(3, "read", after_step=8),
            ],
            schedule=schedule,
            step_budget=500,
        )
        doc = sim.scenario_to_json(sc)
        back = sim.scenario_from_json(doc)
        assert sim.scenario_to_json(back) == doc
        assert back.schedule == schedule
        a = events_to_jsonl(sim.run(sc).events)
        b = events_to_jsonl(sim.run(back).events)
        assert a == b


def test_a_fork_whose_branches_all_end_without_a_value_resumes_with_none():
    # No construction reaches this join: algo1's Thread 1 never ends without
    # a value. Each branch reads once and returns None; the parent resumes
    # with None and the op completes with it.
    specs = [RegisterSpec("T/R", 2, frozenset([1]), Plain(SeqTuple(0, b"")))]
    resumed = []

    def branch():
        yield ("r", "T/R")
        return None

    def forking():
        got = yield ("fork", branch(), branch())
        resumed.append(got)
        return got

    eng = engine(specs)
    op = eng.spawn_op(1, "Read", None, forking())
    eng.run_queue(step_budget=100, per_op_budget=100)
    assert resumed == [None]
    assert (op.status, op.ret, op.steps) == ("completed", None, 2)
    assert [e.kind for e in eng.events] == ["invoke", "reg_read", "reg_read", "respond"]


def test_shift_takes_one_amount_per_domain():
    # Sequence number k of domain h is coded as k << 7 | h.
    def seqs(*pairs):
        return [k << 7 | h for h, k in pairs]

    # Domain 0 moves by 1 above its fixed 1, and domain 1 by 2: a shift.
    assert lasso._shift(seqs((0, 1), (0, 3), (1, 5)),
                      seqs((0, 1), (0, 4), (1, 7))) == {0: 1, 1: 2}
    assert lasso._shift(seqs((0, 3), (1, 5)), seqs((0, 3), (1, 5))) == {}
    # Two numbers of domain 0 move by 1 and by 2: no shift.
    assert lasso._shift(seqs((0, 3), (0, 5)), seqs((0, 4), (0, 7))) is None
    # A number that moves down, or not above a fixed one, is no shift either.
    assert lasso._shift(seqs((0, 3)), seqs((0, 2))) is None
    assert lasso._shift(seqs((0, 1), (0, 3)), seqs((0, 2), (0, 3))) is None


def test_crashed_actor_cannot_be_resumed():
    from byzregs import constructions
    from byzregs.core import CrashedActor

    eng = sim.Engine(constructions.layout_of("algo1", 3))
    eng.spawn_write(b"a")
    t = eng.threads[(0, 0)]
    eng._mark_crashed(0)
    with pytest.raises(CrashedActor):
        eng._resume(t, sim.DEFAULT_PER_OP_BUDGET)


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

    layout = constructions.layout_of("algo1", 4)
    sc = scenario(n=4, workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read"),
        sim.WorkItem(2, "read"),
        sim.WorkItem(4, "read", after_op=0),
    ], faults={p: Correct() for p in range(5)}, schedule=sim.Seeded(17))
    tr = sim.run(sc)
    specs = {s.reg_id: s for s in layout.specs}
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
    """Replay register events on fresh cells: every access must obey the
    specs (by id) and every read return the cell last written to its
    register."""
    cells = {rid: s.initial for rid, s in specs.items()}
    for e in events:
        if e.kind == "reg_read":
            assert e.proc in specs[e.reg].readers, f"step {e.step}: read of {e.reg}"
            cell = cells[e.reg]
            assert e.value == cell, (f"step {e.step}: read of {e.reg} returned "
                                     f"{e.value!r}, not its last written cell {cell!r}")
        elif e.kind == "reg_write":
            assert e.proc == specs[e.reg].writer, f"step {e.step}: write of {e.reg}"
            cells[e.reg] = e.value


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

    layout = constructions.layout_of("algo1", 4)
    sc = scenario(n=4, faults={p: Correct() for p in range(5)}, workload=[
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(0, "write", value=b"b"),
        sim.WorkItem(2, "read"),
        sim.WorkItem(3, "read", after_op=0),
        sim.WorkItem(4, "read"),
    ], schedule=sim.Seeded(23))
    tr = sim.run(sc)
    replay_registers(tr.events, layout.by_id)


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
    layout = constructions.layout_of("algo1", n)
    tr = sim.run(sc)
    # determinism
    tr2 = sim.run(sc)
    assert events_to_jsonl(tr.events) == events_to_jsonl(tr2.events)
    # atomicity: replay reproduces every read
    replay_registers(tr.events, layout.by_id)
    # access closure and single-writer
    specs = {s.reg_id: s for s in layout.specs}
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
    # admitted and completes after the picks.
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
        "9d5029daf0d59f7ecfcd2e3d58d97e90c9ef4363767fb5fd201af38d84f8a117"),
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


def test_seeded_runs_replay_from_their_picks(monkeypatch):
    # A seeded run's resumptions, replayed as a scripted schedule, give the
    # same run: its end, quiescent admission included, follows the picks as
    # it follows the seed. A run a lasso stopped is left out, since picks go
    # unwatched and its read spins on. The cells are the benchmark's sweep.
    from byzregs import cli

    every = cli.CANONICAL_PATTERNS + cli.EXTRA_PATTERNS
    cells = ([("algo1", n, p) for n in range(2, 6) for p in cli.CANONICAL_PATTERNS]
             + [("algo2", 2, p) for p in every]
             + [("algo3", n, p) for n in (3, 5) for p in every])

    def outputs(sc):
        trace, verdicts = cli.run_and_check(sc)
        return (events_to_jsonl(trace.events),
                cli._json_bytes({name: v.to_json() for name, v in verdicts.items()}),
                [(op.index, op.status, op.reason, op.steps, op.invoke_step,
                  op.respond_step, op.ret) for op in trace.ops])

    picks = []
    _on_resume(monkeypatch, lambda eng, t: picks.append((t.owner, t.tid)))
    replayed = 0
    for construction, n, pattern in cells:
        for seed in range(3):
            sc = cli.build_sweep_scenario(construction, n, pattern, seed,
                                          sim.DEFAULT_STEP_BUDGET, 1500)
            picks.clear()
            expected = outputs(sc)
            if any((reason or "").startswith("blocked (lasso ")
                   for _, _, reason, *_ in expected[2]):
                continue
            sc.schedule = sim.Scripted(tuple(picks))
            assert outputs(sc) == expected, (construction, n, pattern, seed)
            replayed += 1
    assert replayed >= 120


def test_a_budget_of_m_admits_an_op_of_m_steps():
    # An algo2 write takes 4 register steps and a read at most 2, so a
    # per-op budget of 4 passes every verdict; 3 stops each write when it
    # asks for its 4th step, and the correct writer's op is a violation.
    from byzregs import cli

    sc = _alternating("algo2", 2, 20)
    sc.per_op_budget = 4
    trace, verdicts = cli.run_and_check(sc)
    assert all(op.status == "completed" for op in trace.ops)
    assert all(v.status == "pass" for v in verdicts.values())
    sc.per_op_budget = 3
    trace, verdicts = cli.run_and_check(sc)
    assert (trace.ops[0].status, trace.ops[0].reason, trace.ops[0].steps) == \
        ("pending", "per-op budget", 3)
    assert verdicts["wait_freedom"].vclass == "WaitFreedom"


def test_a_forked_read_responds_at_exactly_its_budget():
    # The writer crashes after three steps, mid-write, so proc 3's read sees
    # a prepare and forks. Its 6th and last access is a branch's; the branch
    # then returns, the fork resolves and the read responds with no further
    # access, so a budget of 6 gives the unbudgeted run and 5 stops it.
    faults = all_correct(3)
    faults[0] = Crash(4)
    sc = scenario(faults=faults, workload=[sim.WorkItem(0, "write", value=b"a"),
                                           sim.WorkItem(3, "read", after_step=5)])
    free = sim.run(sc)
    read = free.ops[1]
    assert (read.status, read.steps) == ("completed", 6)
    assert len({e.thread for e in free.events if e.proc == 3}) == 3
    sc.per_op_budget = 6
    assert events_to_jsonl(sim.run(sc).events) == events_to_jsonl(free.events)
    sc.per_op_budget = 5
    read = sim.run(sc).ops[1]
    assert (read.status, read.reason, read.steps) == ("pending", "per-op budget", 5)


def test_writes_are_never_watched(monkeypatch):
    # An algo1 write at n = 10 takes 1,534 register steps, past
    # LASSO_THRESHOLD, yet only reads are watched: no write reads, so no
    # other process can hold it back, and its budget bounds it.
    from byzregs.constructions import algo1_write_step_count

    built = []

    class Counted(lasso.Watch):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(lasso, "Watch", Counted)
    sc = scenario(n=10, faults=all_correct(10),
                  workload=[sim.WorkItem(0, "write", value=b"a"),
                            sim.WorkItem(0, "write", value=b"b")])
    m = algo1_write_step_count(10)
    assert m > sim.LASSO_THRESHOLD
    assert [(op.status, op.steps) for op in sim.run(sc).ops] == [("completed", m)] * 2
    assert built == []


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

    def __init__(self, workload, eng):
        self.workload, self.eng = workload, eng
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
                op = eng.spawn_write(item.value, index=i)
            else:
                op = eng.spawn_read(item.proc, index=i)
            self.op_for_item[i] = op
            did = True
        return did


def _random_gated_scenario(seed):
    import random

    from byzregs import cli, constructions

    rng = random.Random(seed)
    construction = rng.choice(["algo1", "algo2", "algo3"])
    n = 2 if construction == "algo2" else rng.randint(2, 4)
    specs = constructions.layout_of(construction, n).specs
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


def test_op_records_tell_the_history_the_events_tell():
    # The checker's history comes from the engine's op records; the trace's
    # invoke/respond events, parsed as the reference does, must agree, and
    # must never show two open ops of one process or a stray respond.
    from byzregs import checker, cli
    from linearize_oracle import history_from_events

    every = cli.CANONICAL_PATTERNS + cli.EXTRA_PATTERNS
    cells = [("algo1", n, p) for n in range(2, 6) for p in cli.CANONICAL_PATTERNS]
    cells += [("algo2", 2, p) for p in every]
    cells += [("algo3", n, p) for n in (3, 5) for p in every]
    assert len(cells) == 41
    scenarios = [_random_gated_scenario(seed) for seed in range(400)]
    scenarios += [cli.build_sweep_scenario(c, n, p, seed, sim.DEFAULT_STEP_BUDGET,
                                           1500)
                  for c, n, p in cells for seed in range(3)]
    for i, sc in enumerate(scenarios):
        tr = sim.run(sc)
        assert checker.extract_history(tr.ops, sc.faults) == \
            history_from_events(tr.events, sc.faults), f"scenario {i}"
