import hashlib
import re

import pytest

from byzregs import checker, constructions
from byzregs.adversary import (
    BlockedWitness,
    Exhausted,
    MARKER,
    ViolationWitness,
    attack_search,
    build_candidate,
    invisible_to,
    record_solo_write,
    recorded_actions,
)
from byzregs.constructions import (
    AtomicOneWNR,
    Implementation,
    RULE_THM1,
    algo1_write_step_count,
)
from byzregs.core import (
    AccessViolation,
    Correct,
    Event,
    Malicious,
    Plain,
    RegisterSpec,
    SeqTuple,
    encode_cell,
    events_to_jsonl,
)
from byzregs.sim import Engine, script_from_json


def test_invisible_to_classification():
    specs = {
        "W": RegisterSpec("W", 0, frozenset([1, 2]), Plain(SeqTuple(0, b""))),
    }
    readers = [1, 2, 3]
    write = Event(1, 0, 0, "reg_write", "W")
    read = Event(2, 0, 0, "reg_read", "W")
    assert invisible_to(write, specs, readers) == frozenset([3])
    assert invisible_to(read, specs, readers) == frozenset(readers)
    assert invisible_to(None, specs, readers) == frozenset(readers)  # invoke/respond


def test_record_solo_write_naive_gossip():
    steps, events = record_solo_write("naive-gossip", 3)
    assert len(steps) == 1
    assert steps[0].reg == "NG/W"


def test_record_solo_write_algo1_matches_recurrence():
    steps, _ = record_solo_write("algo1", 3)
    assert len(steps) == algo1_write_step_count(3)


def test_every_solo_step_invisible_to_someone_in_budget_settings():
    for name in ("naive-gossip", "algo1", "algo3"):
        inst = build_candidate(name, 3)
        specs = {s.reg_id: s for s in inst.specs}
        steps, _ = record_solo_write(name, 3)
        for s in steps:
            assert invisible_to(s, specs, inst.readers)


def test_registration_budget_enforced(monkeypatch):
    # A full 1WnR under a theorem rule must be rejected.
    monkeypatch.setitem(constructions.IMPLEMENTATIONS, "_test-overwide",
                        Implementation(AtomicOneWNR, RULE_THM1, 64))
    with pytest.raises(ValueError):
        build_candidate("_test-overwide", 3)
    # The control bypasses the check via the unrestricted rule.
    build_candidate("atomic-1wnr", 3)
    # The signature construction's pairwise registers are eligible.
    build_candidate("algo3", 3)


def test_replay_fidelity_on_unchanged_state():
    inst = build_candidate("naive-gossip", 3)
    eng = Engine(inst.specs)
    eng.spawn_script(1, (("w", "NG/G1", Plain(SeqTuple(4, b"zz"))),))
    eng.run_queue(step_budget=100)
    actions = recorded_actions(eng.events, 1)

    inst2 = build_candidate("naive-gossip", 3)
    eng2 = Engine(inst2.specs)
    eng2.spawn_script(1, actions)
    eng2.run_queue(step_budget=100)
    assert events_to_jsonl(eng.events) == events_to_jsonl(eng2.events)


def test_adversary_actions_stay_access_checked():
    inst = build_candidate("naive-gossip", 3)
    eng = Engine(inst.specs)
    # Reader 1 does not write NG/G2; the substrate rejects the script.
    eng.spawn_script(1, (("w", "NG/G2", Plain(SeqTuple(1, b"x"))),))
    with pytest.raises(AccessViolation):
        eng.run_queue(step_budget=10)


def test_resetall_touches_only_own_registers_in_id_order():
    inst = build_candidate("naive-gossip", 3)
    eng = Engine(inst.specs)
    eng.registers.write("NG/G2", 2, Plain(SeqTuple(3, b"x")))
    eng.spawn_script(2, script_from_json({"kind": "resetall"}, inst.specs, 2))
    eng.run_queue(step_budget=100)
    writes = [e.reg for e in eng.events if e.kind == "reg_write"]
    assert writes == ["NG/G2"]
    assert eng.registers.cells["NG/G2"] == Plain(SeqTuple(0, b""))


def test_script_json_roundtrip():
    # Every script kind parses to the register accesses it issues. resetall
    # writes proc 3's registers in id order, not in declaration order
    # (which puts I3/RwQ before I3/RpQ).
    inst = build_candidate("algo1", 3)
    specs = inst.specs
    reset = script_from_json({"kind": "resetall"}, specs, 3)
    assert reset == tuple(("w", r, inst.by_id[r].initial) for r in [
        "I3/R3_2", "I3/R3_3", "I3/RpQ/I2/R3_3", "I3/RwQ/I2/R3_3"])
    lie = {"kind": "lie", "reg": "I3/R3_2",
           "cell": encode_cell(Plain(SeqTuple(9, b"\xff")))}
    replay = {"kind": "replay", "actions": [
        {"a": "w", "reg": "I3/R3_3", "cell": encode_cell(Plain(SeqTuple(1, b"a")))},
        {"a": "r", "reg": "I3/R2_3"},
    ]}
    parsed = [script_from_json(doc, specs, 3) for doc in
              ({"kind": "idle"}, lie, replay)]
    assert parsed == [
        (),
        (("w", "I3/R3_2", Plain(SeqTuple(9, b"\xff"))),),
        (("w", "I3/R3_3", Plain(SeqTuple(1, b"a"))), ("r", "I3/R2_3")),
    ]
    seq = {"kind": "seq", "items": [{"kind": "resetall"}, lie, replay,
                                    {"kind": "idle"}, {"kind": "resetall"}]}
    assert script_from_json(seq, specs, 3) == reset + sum(parsed, ()) + reset


def test_attack_search_requires_three_readers():
    with pytest.raises(ValueError):
        attack_search("naive-gossip", 2)


def test_attack_naive_gossip_finds_no_write_violation():
    result = attack_search("naive-gossip", 3)
    assert isinstance(result, ViolationWitness)
    assert result.stage == "A_0'"
    # zero writer register steps, yet an honest read returned the marker
    assert not any(e.proc == 0 for e in result.events)
    marker_reads = [e for e in result.events
                    if e.kind == "respond" and e.op == "Read"
                    and isinstance(e.ret, SeqTuple) and e.ret.u == MARKER]
    assert marker_reads
    # the witness independently fails Property 1
    faults = {p: Correct() for p in range(4)}
    history = checker.extract_history(result.events, faults)
    assert not checker.check_property1(history, True).ok


def test_attack_algo1_blocks():
    result = attack_search("algo1", 3, stage_budget=2000)
    assert isinstance(result, BlockedWitness)
    pending = [e for e in result.events if e.kind == "invoke"
               and e.proc == result.reader]
    assert pending


# The lasso each blocked algo1 attack read stops at: Step A (a plain repeat)
# at n = 3, Step B (a repeat up to shifted counters) at n = 4 and 5.
LASSOS = {
    3: "blocked (lasso 1024..1028)",
    4: "blocked (lasso 1041..1051; k of I4/RwQ/I3/RpQ/I2 +2)",
    5: "blocked (lasso 1074..1096; k of I5/RwQ/I4/RpQ/I3 +2, "
       "k of I5/RwQ/I4/RpQ/I3/RwQ/I2 +4)",
}


def _blocked_plan(monkeypatch, n):
    """The blocked witness of algo1 at n, and the phases of its plan."""
    from byzregs import adversary

    plans = []
    run_plan = adversary.run_plan

    def recording(name, n, phases, stage_budget):
        plans.append(phases)
        return run_plan(name, n, phases, stage_budget)

    monkeypatch.setattr(adversary, "run_plan", recording)
    result = attack_search("algo1", n)
    monkeypatch.undo()
    return result, plans[-1]


@pytest.mark.parametrize("n", sorted(LASSOS))
def test_blocked_algo1_read_stops_at_a_lasso_the_budget_agrees_with(monkeypatch, n):
    from byzregs import sim
    from byzregs.adversary import DEFAULT_STAGE_BUDGET, run_plan

    result, phases = _blocked_plan(monkeypatch, n)
    assert isinstance(result, BlockedWitness)
    assert LASSOS[n] in result.explanation
    j = int(re.search(r"\.\.(\d+)", LASSOS[n]).group(1))
    assert result.events[-1].step == j  # the witness ends at the repeat
    # With the lasso watch off, the same plan's read spins to the stage
    # budget, and the lasso run is a prefix of that run.
    monkeypatch.setattr(sim, "LASSO_THRESHOLD", DEFAULT_STAGE_BUDGET + 1)
    res = run_plan("algo1", n, phases, DEFAULT_STAGE_BUDGET)
    read = res.ops[-1]
    assert (read.status, read.reason) == ("pending", "per-op budget")
    assert read.steps == DEFAULT_STAGE_BUDGET
    assert res.events[:len(result.events)] == result.events


def test_wait_free_reads_are_never_fingerprinted(monkeypatch):
    from byzregs import sim
    from byzregs.adversary import FreshRead, WriterPhase, run_plan

    taken = []
    monkeypatch.setattr(sim._Lasso, "_take", lambda self, step: taken.append(step))
    assert isinstance(attack_search("algo3", 3), Exhausted)
    # An algo1 read after a complete (correct) write.
    res = run_plan("algo1", 4, [WriterPhase(None), FreshRead(2)], 100_000)
    assert res.ops[-1].status == "completed"
    assert taken == []


def test_attack_atomic_control_exhausts():
    result = attack_search("atomic-1wnr", 3)
    assert isinstance(result, Exhausted)
    assert result.reason == "all branches exhausted"


def test_attack_algo3_exhausts():
    result = attack_search("algo3", 3, stage_budget=2000)
    assert isinstance(result, Exhausted)


@pytest.mark.parametrize("name", ["atomic-1wnr", "algo3", "naive-gossip"])
def test_attack_search_budget_exhausted(name):
    # The first A-stage read spends more than one access, so the budget
    # check before the first transformation ends the search.
    result = attack_search(name, 3, budget=1)
    assert isinstance(result, Exhausted)
    assert result.reason == "budget exhausted"


# Result type, stage, reason, and the sha256 of the stage log (one line per
# entry) and of the witness JSONL.
GOLDEN_ATTACKS = {
    ("algo1", 3): (
        BlockedWitness, "C_5^2", None,
        "77900f613284d202715be11eaffc7896e4dbd3b9246fe144fb3b5ed3c1b04f78",
        "d519bae9be4d66fee654875866df440970843d97e39f9b70854a127ce76ce7b8"),
    ("algo1", 4): (
        BlockedWitness, "C_10^2", None,
        "1c2e2d9414dbea9df93e6841fe245d8f9a0c96bd9a33d08730ca44f8f5e0849f",
        "55c244d4aa8bb075145e54c1bd2b9d998272c1608b220bdc25d028b78c7d375b"),
    ("algo3", 3): (
        Exhausted, None, "all branches exhausted",
        "562caad14ac07da091094dd1de81f22b81005ef29462b5a693cedf180ca55485", None),
    ("algo3", 4): (
        Exhausted, None, "all branches exhausted",
        "45c834eb795d69c28c4e64beb89b4f55f8aa2f9f30e564c0a03b3821cc8393f5", None),
    ("atomic-1wnr", 3): (
        Exhausted, None, "all branches exhausted",
        "fa1de651d7f74df3f57d263ba6d4e23cea5fbe7eee27c37d419e315ddcd6d25c", None),
    ("atomic-1wnr", 4): (
        Exhausted, None, "all branches exhausted",
        "71c09f765309ad48c7235714162196aa802a7ca3d6e79b6a9b541a942dacc030", None),
    ("naive-gossip", 3): (
        ViolationWitness, "A_0'", None,
        "50202ed9085c1d8cacb26b093308a0d1534b3a17f170feaf794a8a2a2a6f42a9",
        "c15f67f995ac04d2e36c806d9aab71320fd4bb4a560aaffc3f83849d0bfa41d0"),
    ("naive-gossip", 4): (
        ViolationWitness, "A_0'", None,
        "fe37b4920dadefe1e57e66496b0350305414a8ebcd447266f5e546e15cafa09b",
        "bd3cfb0edbd2f12f321fb35e829f53b8a4b502c9c28ecd5e01297955520cb274"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name,n", sorted(GOLDEN_ATTACKS))
def test_golden_attack(name, n):
    kind, stage, reason, stage_log, witness = GOLDEN_ATTACKS[(name, n)]
    kw = {"stage_budget": 2000} if name == "algo1" else {}
    result = attack_search(name, n, **kw)
    assert type(result) is kind
    assert getattr(result, "stage", None) == stage
    assert getattr(result, "reason", None) == reason
    assert _sha256("\n".join(result.stage_log).encode()) == stage_log
    events = getattr(result, "events", None)
    assert (None if events is None else _sha256(events_to_jsonl(events))) == witness


def test_apply_transformation_single_step():
    # One induction step from P_2 on naive-gossip n=3: the writer's only
    # access (NG/W, unseen by reader 3) is done and reader 1 read the
    # marker. Reader 1 sees the step, so case 2 applies; it hands the read
    # to the silent reader 3 when 3 is silent (2a), and goes on through E and
    # F when 3 plays the unconstrained role (2b).
    from byzregs.adversary import (
        ExecState,
        WriterPhase,
        _Search,
        apply_transformation_chain,
    )

    cases = [
        (2, 3, "D_1^3: case 2a; x=3, malicious role -> 1", (3, 1)),
        (3, 2, "F_1^2: case 2b; x=3, malicious role -> 2", (3, 2)),
    ]
    for p_role, silent, log, roles in cases:
        search = _Search("naive-gossip", 3, budget=10**9, stage_budget=1000)
        base = ExecState(k=2, w_phase=WriterPhase(None), replays=(),
                         x=1, p_role=p_role, z=frozenset({silent}))
        out = apply_transformation_chain(search, base)
        assert isinstance(out, ExecState)
        assert out.k == 1
        assert (out.x, out.p_role) == roles
        assert search.log == ["S: solo write took 1 register steps", log]


@pytest.mark.parametrize("name", ["naive-gossip", "algo1"])
def test_writer_phase_crashes_after_its_accesses(name):
    # The crash point (a + 1, WRITER) cuts the solo write after exactly a
    # register accesses; with no crash point the write completes.
    from byzregs.adversary import WriterPhase, run_plan

    steps, solo = record_solo_write(name, 3)
    for a in range(len(steps) + 1):
        events = run_plan(name, 3, [WriterPhase(a)], 1000).events
        assert [(e.kind, e.reg) for e in events] == [("invoke", None)] + [
            (s.kind, s.reg) for s in steps[:a]] + [("crash", None)]
        assert all(e.proc == 0 for e in events)
    full = run_plan(name, 3, [WriterPhase(None)], 1000)
    assert events_to_jsonl(full.events) == events_to_jsonl(solo)
    assert solo[-1].kind == "respond" and full.accesses == len(steps)


def test_writer_blocked_when_solo_write_spins(monkeypatch):
    from byzregs.adversary import WriterBlocked

    class Spinner(constructions.Layout):
        def __init__(self, n):
            super().__init__(list(range(1, n + 1)),
                             [RegisterSpec("SP/R", 0, frozenset([1, 2]),
                                           Plain(SeqTuple(0, b"")))],
                             {"SP/R": "candidate"})

        def write_machine(self, state, value):
            def spin():
                while True:
                    yield ("w", "SP/R", Plain(SeqTuple(1, value)))
            return spin()

        def read_machine(self, state, proc):
            def read():
                x = yield ("r", "SP/R")
                return x.t
            return read()

    monkeypatch.setitem(constructions.IMPLEMENTATIONS, "_spinner",
                        Implementation(Spinner, RULE_THM1, 64))
    with pytest.raises(WriterBlocked):
        record_solo_write("_spinner", 3, budget=200)
