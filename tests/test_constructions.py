import pickle

import pytest

from byzregs import cli, constructions, sim
from byzregs.adversary import record_solo_write
from byzregs.constructions import (
    Algo1Construction,
    AtomicOneWNR,
    IMPLEMENTATIONS,
    Implementation,
    RULE_UNRESTRICTED,
    algo1_write_step_count,
    layout_of,
)
from byzregs.core import (
    BOTTOM,
    Commit,
    Correct,
    Crash,
    Garbage,
    Malicious,
    MalformedScenario,
    Plain,
    Prepare,
    SeqTuple,
)

T0 = SeqTuple(0, b"")


def correct(n):
    return {p: Correct() for p in range(n + 1)}


def run(construction, n, workload, faults=None, schedule=None, **kw):
    sc = sim.Scenario(
        construction=construction,
        n=n,
        faults=faults or correct(n),
        workload=workload,
        schedule=schedule or sim.Seeded(3),
        **kw,
    )
    return sim.run(sc)


# -- recursive construction ---------------------------------------------------


def test_first_write_register_sequence_n2():
    tr = run("algo1", 2, [sim.WorkItem(0, "write", value=b"a")])
    writes = [(e.reg, e.value) for e in tr.events if e.kind == "reg_write"]
    t1 = SeqTuple(1, b"a")
    assert writes == [
        ("I2/Rwp", Prepare(T0, t1)),
        ("I2/RwQ", Prepare(T0, t1)),
        ("I2/Rwp", Commit(t1)),
        ("I2/RwQ", Commit(t1)),
    ]


def test_second_write_carries_incremented_tuple():
    tr = run("algo1", 2, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(0, "write", value=b"b"),
    ])
    writes = [e.value for e in tr.events
              if e.kind == "reg_write" and e.reg == "I2/Rwp"]
    t1, t2 = SeqTuple(1, b"a"), SeqTuple(2, b"b")
    assert writes == [Prepare(T0, t1), Commit(t1), Prepare(t1, t2), Commit(t2)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_write_step_count_matches_recurrence(n):
    steps, _ = record_solo_write("algo1", n)
    assert len(steps) == algo1_write_step_count(n)
    assert all(s.kind == "reg_write" for s in steps)


def test_read_p_commit_branch_announces():
    tr = run("algo1", 3, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read", after_op=0),
    ])
    assert tr.ops[1].ret == SeqTuple(1, b"a")
    announce = [
        e for e in tr.events
        if e.proc == 1 and e.kind == "reg_write" and e.reg.startswith("I3/RpQ")
    ]
    assert announce, "p must announce into R_pQ before returning"
    assert all(e.step < tr.ops[1].respond_step for e in announce)


def test_read_p_prepare_branch_returns_last_written():
    tr = run("algo1", 3, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read", after_step=3),
    ], faults={0: Crash(2), 1: Correct(), 2: Correct(), 3: Correct()})
    assert tr.ops[1].ret == SeqTuple(0, b"")


def test_read_p_garbage_returns_bottom():
    garbage = Malicious((("w", "I3/Rwp", Garbage(b"\x99junk")),))
    tr = run("algo1", 3, [sim.WorkItem(1, "read", after_step=1)],
             faults={0: garbage, 1: Correct(), 2: Correct(), 3: Correct()})
    assert tr.ops[0].ret == BOTTOM


def test_read_q_commit_branch_is_immediate():
    tr = run("algo1", 3, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(3, "read", after_op=0),
    ])
    assert tr.ops[1].ret == SeqTuple(1, b"a")


def test_read_q_thread2_announce_path_broadcasts_before_return():
    # w completes, p reads first (announcing into R_pQ), then q=3 is held to
    # see only the prepare: schedule w's prepare phase, p's full read, then
    # q's read resolved through Thread 2.
    picks = (
        [(0, 0)] * 5                 # w: prepare into R_wp and R_wQ
        + [(3, 0)] * 2               # q reads R_wQ (prepare) and forks
        + [(0, 0)] * 6               # w finishes commits and responds
        + [(1, 0)] * 6               # p: commit branch + announce + respond
        + [(3, 2)] * 4 + [(3, 0)]    # thread 2: R_pQ fresh, broadcast, return
    )
    tr = run("algo1", 3, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read"),
        sim.WorkItem(3, "read"),
    ], schedule=sim.Scripted(tuple(picks)))
    qread = tr.ops[2]
    assert qread.ret == SeqTuple(1, b"a")
    gossip = [e for e in tr.events
              if e.proc == 3 and e.kind == "reg_write" and "/R3_" in e.reg]
    assert {e.reg for e in gossip} == {"I3/R3_2", "I3/R3_3"}
    assert all(e.step < qread.respond_step for e in gossip)


def test_read_q_all_stale_returns_last_written():
    picks = [(0, 0)] * 5 + [(3, 0)] * 2 + [(3, 2)] * 4 + [(3, 0)]
    tr = run("algo1", 3, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(3, "read"),
    ], schedule=sim.Scripted(tuple(picks)))
    assert tr.ops[1].ret == SeqTuple(0, b"")


def _all_correct_scripted(n, workload, picks):
    """The trace of an all-correct scripted algo1 run, whose ops all
    complete and whose verdicts all pass."""
    sc = sim.Scenario("algo1", n, correct(n), workload, sim.Scripted(tuple(picks)))
    tr, verdicts = cli.run_and_check(sc)
    assert all(op.status == "completed" for op in tr.ops)
    assert all(v.ok for v in verdicts.values())
    return tr


def test_read_q_thread1_returns_on_a_strictly_newer_prepare():
    # q = 2 forks on write 1's prepare; Thread 1 then reads write 2's
    # prepare twice, the second time past its commit check, and returns.
    picks = [(0, 0), (0, 0), (2, 0), (0, 0), (0, 0), (0, 0), (0, 1), (2, 0),
             (0, 1), (2, 1), (2, 1), (0, 1), (0, 1), (2, 1), (2, 0), (0, 1)]
    tr = _all_correct_scripted(2, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(0, "write", value=b"b"),
        sim.WorkItem(2, "read"),
    ], picks)
    q = [e for e in tr.events if e.proc == 2]
    fork, last, respond = q[1], q[-2], q[-1]
    assert (fork.reg, last.reg) == ("I2/RwQ", "I2/RwQ")
    assert isinstance(fork.value, Prepare) and isinstance(last.value, Prepare)
    assert last.value.next.k > fork.value.next.k
    assert last.thread == fork.thread + 1  # Thread 1, the fork's first branch
    assert (respond.kind, respond.ret) == ("respond", fork.value.next)


def test_read_q_thread2_rereads_and_broadcasts_after_a_gossip_hit():
    # q = 3's second read forks on write 1's prepare. Thread 2 reads a
    # stale R_pQ, then finds t in R_2_3, reads R_pQ again, now fresh, and
    # broadcasts t before the read returns it.
    picks = [
        (1, 0), (1, 0), (2, 0), (0, 0), (1, 0), (3, 0), (0, 0), (0, 0), (0, 0), (0, 0),
        (3, 0), (1, 0), (1, 0), (1, 0), (3, 1), (0, 0), (2, 0), (1, 1), (1, 1), (2, 0),
        (1, 1), (3, 1), (3, 3), (1, 1), (3, 3), (3, 5), (0, 0), (2, 1), (3, 5), (0, 0),
        (2, 1), (2, 3), (2, 3), (1, 1), (0, 0), (2, 3), (2, 3), (0, 0), (3, 5), (2, 3),
        (0, 0), (0, 1), (2, 1), (3, 3), (0, 1), (0, 1), (1, 1), (3, 3), (3, 3), (3, 3),
        (3, 3), (3, 1), *[(0, 1)] * 8, *[(0, 2)] * 11,
    ]
    tr = _all_correct_scripted(3, [
        *(sim.WorkItem(0, "write", value=v) for v in (b"a", b"b", b"c")),
        *(sim.WorkItem(p, "read") for p in (1, 2, 3, 1, 2, 3)),
    ], picks)
    t = SeqTuple(1, b"a")
    q = [e for e in tr.events if e.proc == 3]
    hit = next(i for i, e in enumerate(q) if e.reg == "I3/R2_3")
    assert (q[hit].kind, q[hit].value) == ("reg_read", Plain(t))
    reread, *broadcast, respond = q[hit + 1:]
    assert (reread.kind, reread.reg) == ("reg_read", "I3/RpQ/I2/RwQ")
    assert reread.value.t.u == Plain(t)
    assert [(e.kind, e.reg, e.value) for e in broadcast] == [
        ("reg_write", "I3/R3_2", Plain(t)), ("reg_write", "I3/R3_3", Plain(t))]
    assert (respond.kind, respond.ret) == ("respond", t)
    assert q[hit].thread == reread.thread == broadcast[0].thread


def test_algo1_rejects_single_reader():
    with pytest.raises(MalformedScenario):
        layout_of("algo1", 1)


def test_nested_layout_paths_unique_and_hierarchical():
    inst = Algo1Construction(4)
    ids = [s.reg_id for s in inst.specs]
    assert len(ids) == len(set(ids))
    assert "I4/RwQ/I3/RwQ/I2/RwQ" in ids  # depth-2 base register
    assert "I4/RpQ/I3/RpQ/I2/RpQ" in ids


# -- two-reader construction --------------------------------------------------


def test_algo2_sequential_read():
    tr = run("algo2", 2, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(2, "read", after_op=0),
    ])
    assert tr.ops[1].ret == SeqTuple(1, b"a")


def test_algo2_q_stale_everything_returns_last_written():
    # Writer crashes after both prepares; q has nothing fresher.
    tr = run("algo2", 2, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(2, "read", after_step=3),
    ], faults={0: Crash(3), 1: Correct(), 2: Correct()})
    assert tr.ops[1].ret == SeqTuple(0, b"")


def test_algo2_q_last_read_branch_survives_pq_reset():
    # Malicious p plants <1,a> in R_pq, q reads it (caching last_read), then
    # p wipes R_pq; q's second read still returns <1,a> via last_read.
    script = (("w", "I2p/Rpq", Plain(SeqTuple(1, b"a"))),
              ("w", "I2p/Rpq", Plain(SeqTuple(0, b""))))
    picks = (
        [(0, 0)] * 2          # w writes both prepares, then stalls
        + [(1, 0)]            # p's script: R_pq <- <1,a>
        + [(2, 0)] * 3        # q read 1: prepare, R_pq fresh -> returns <1,a>
        + [(1, 0)]            # p's script: R_pq <- <0,"">
        + [(2, 1)] * 3        # q read 2: prepare, R_pq stale, last_read hits
    )
    tr = run("algo2", 2, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(2, "read"),
        sim.WorkItem(2, "read"),
    ], faults={0: Correct(), 1: Malicious(script), 2: Correct()},
        schedule=sim.Scripted(tuple(picks)))
    assert tr.ops[1].ret == SeqTuple(1, b"a")
    assert tr.ops[2].ret == SeqTuple(1, b"a")


def test_algo2_p_commit_branch_is_unguarded():
    # A malicious writer commits <2,b> then <1,a>; Algorithm 2's p follows
    # the commit branch both times (no previous_k guard, by design).
    script = (
        ("w", "I2p/Rwp", Commit(SeqTuple(2, b"b"))),
        ("w", "I2p/Rwp", Commit(SeqTuple(1, b"a"))),
    )
    picks = [(0, 0)] + [(1, 0)] * 3 + [(0, 0)] + [(1, 1)] * 3
    tr = run("algo2", 2, [
        sim.WorkItem(1, "read"),
        sim.WorkItem(1, "read"),
    ], faults={0: Malicious(script), 1: Correct(), 2: Correct()},
        schedule=sim.Scripted(tuple(picks)))
    assert tr.ops[0].ret == SeqTuple(2, b"b")
    assert tr.ops[1].ret == SeqTuple(1, b"a")


# -- signature construction ---------------------------------------------------


def test_algo3_write_is_n_signed_register_writes():
    for n in (2, 3, 4):
        tr = run("algo3", n, [sim.WorkItem(0, "write", value=b"a")])
        writes = [e for e in tr.events if e.kind == "reg_write"]
        assert len(writes) == n
        assert [e.reg for e in writes] == [f"Is/R0_{i}" for i in range(1, n + 1)]
        assert all(e.value.t == SeqTuple(1, b"a") and e.value.signer == 0
                   for e in writes)


def test_algo3_two_writes_increment():
    tr = run("algo3", 2, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(0, "write", value=b"b"),
    ])
    last = [e for e in tr.events if e.kind == "reg_write"][-1]
    assert last.value.t == SeqTuple(2, b"b")


def test_algo3_read_counts_and_result():
    n = 3
    tr = run("algo3", n, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(2, "read", after_op=0),
    ])
    read = tr.ops[1]
    assert read.ret == SeqTuple(1, b"a")
    assert read.steps == 2 * n + 1
    reads = [e.reg for e in tr.events if e.proc == 2 and e.kind == "reg_read"]
    assert reads == ["Is/R0_2", "Is/R1_2", "Is/R2_2", "Is/R3_2"]


def test_algo3_read_with_no_writes_returns_initial():
    tr = run("algo3", 3, [sim.WorkItem(1, "read")])
    assert tr.ops[0].ret == SeqTuple(0, b"")


def test_algo3_garbage_from_malicious_reader_is_ignored():
    garbage = Malicious((("w", "Is/R2_1", Garbage(b"\xde\xad")),))
    tr = run("algo3", 3, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read", after_op=0),
    ], faults={0: Correct(), 1: Correct(), 2: garbage, 3: Correct()})
    assert tr.ops[1].ret == SeqTuple(1, b"a")


def test_algo3_forged_signature_fails_verification():
    # A malicious reader re-tags a tuple the writer never signed; honest
    # readers drop it and fall back to genuine cells.
    from byzregs.core import Signed, sig_token

    fake = Signed(SeqTuple(7, b"evil"), 0, sig_token(SeqTuple(7, b"evil"), 0))
    tr = run("algo3", 3, [
        sim.WorkItem(0, "write", value=b"a"),
        sim.WorkItem(1, "read", after_op=0),
    ], faults={0: Correct(), 1: Correct(),
               2: Malicious((("w", "Is/R2_1", fake),)), 3: Correct()})
    assert tr.ops[1].ret == SeqTuple(1, b"a")


# -- cached layouts and per-run state -----------------------------------------

NAMES_AND_N = [(name, 2 if name == "algo2" else 3) for name in IMPLEMENTATIONS]


def engine(name, n):
    return sim.Engine(layout_of(name, n))


def first_k(eng, value):
    """The k of the first cell a write of value writes; the write runs to
    its end."""
    start = len(eng.events)
    eng.spawn_write(value)
    eng.run_queue(start + 10_000, 10_000)
    cell = next(e.value for e in eng.events[start:] if e.kind == "reg_write")
    return (cell.next if isinstance(cell, Prepare) else cell.t).k


@pytest.mark.parametrize("name, n", NAMES_AND_N)
def test_instances_share_the_layout_not_the_state(name, n):
    a, b = engine(name, n), engine(name, n)
    assert a.layout is b.layout and a.specs is b.specs
    assert a.state is not b.state
    assert a.state.key_items() == b.state.key_items()

    # Writes of two runs: each has its own counter.
    assert (first_k(a, b"a"), first_k(b, b"b")) == (1, 1)
    assert a.state.key_items() != engine(name, n).state.key_items()
    hash(tuple(a.state.key_items().values()))
    assert first_k(a, b"c") == 2
    assert first_k(engine(name, n), b"d") == 1


@pytest.mark.parametrize("n", [3, 4])
def test_algo1_run_names_every_level_a_step_changed(n):
    # Writes and every reader's reads, one event at a time: after each step,
    # key_items(False) holds at least the levels whose values changed, as
    # they are now. A lasso watch re-keys only these.
    eng = engine("algo1", n)
    state = eng.state
    last = state.key_items()
    for op in ["a", *range(1, n + 1), "b", *range(n, 0, -1)]:
        if isinstance(op, str):
            eng.spawn_write(op.encode())
        else:
            eng.spawn_read(op)
        while eng.queue:
            eng.run_queue(len(eng.events) + 1, 10_000)
            now = {i: tuple(vars(v).values()) for i, v in enumerate(state)}
            items = state.key_items(False)
            assert {i for i in now if now[i] != last[i]} <= set(items)
            assert all(items[i] == now[i] for i in items)
            last = now
    # The writes moved c and the reads previous_k (the last item).
    assert any(now[i][0] for i in now) and any(now[i][-1] for i in now)


def test_swapped_table_entry_gets_its_own_layout(monkeypatch):
    algo1 = constructions.layout_of("algo1", 3)
    monkeypatch.setitem(IMPLEMENTATIONS, "algo1",
                        Implementation(AtomicOneWNR, RULE_UNRESTRICTED, 64))
    assert [s.reg_id for s in layout_of("algo1", 3).specs] == ["AT/R"]
    monkeypatch.undo()
    assert layout_of("algo1", 3) is algo1


@pytest.mark.parametrize("name, n", NAMES_AND_N)
def test_a_run_leaves_the_layout_unchanged(name, n):
    layout = constructions.layout_of(name, n)
    before = pickle.dumps(layout)
    workload = [sim.WorkItem(0, "write", value=b"a"),
                sim.WorkItem(0, "write", value=b"b")]
    workload += [sim.WorkItem(p, "read") for p in range(1, n + 1)]
    tr = run(name, n, workload)
    assert all(op.status == "completed" for op in tr.ops)
    assert pickle.dumps(layout) == before
    for obj in [layout, *getattr(layout, "levels", ())]:
        for var in ("c", "last_written", "previous_k", "last_read", "oracle"):
            assert not hasattr(obj, var)


def test_algo3_cell_signed_in_one_instance_fails_in_another():
    a, b = engine("algo3", 3), engine("algo3", 3)
    a.spawn_write(b"x")
    a.run_queue(100, 100)
    cell = a.events[1].value
    assert a.state.oracle.verify(cell, 0)
    assert not b.state.oracle.verify(cell, 0)
