import hashlib
import json
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
    DONE,
    AccessViolation,
    Correct,
    Event,
    Malicious,
    MalformedScenario,
    Plain,
    RegisterSpec,
    SeqTuple,
    encode_cell,
    events_to_jsonl,
)
from byzregs.sim import Engine, script_from_json
from linearize_oracle import history_from_events


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
        layout = build_candidate(name, 3)
        specs = {s.reg_id: s for s in layout.specs}
        steps, _ = record_solo_write(name, 3)
        for s in steps:
            assert invisible_to(s, specs, layout.readers)


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
    eng = Engine(build_candidate("naive-gossip", 3))
    eng.spawn_script(1, (("w", "NG/G1", Plain(SeqTuple(4, b"zz"))),))
    eng.run_queue(step_budget=100, per_op_budget=1)
    actions = recorded_actions(eng.events, 1)

    eng2 = Engine(build_candidate("naive-gossip", 3))
    eng2.spawn_script(1, actions)
    eng2.run_queue(step_budget=100, per_op_budget=1)
    assert events_to_jsonl(eng.events) == events_to_jsonl(eng2.events)


def test_adversary_actions_stay_access_checked():
    eng = Engine(build_candidate("naive-gossip", 3))
    # Reader 1 does not write NG/G2; the substrate rejects the script.
    eng.spawn_script(1, (("w", "NG/G2", Plain(SeqTuple(1, b"x"))),))
    with pytest.raises(AccessViolation):
        eng.run_queue(step_budget=10, per_op_budget=1)


@pytest.mark.parametrize("script, message", [
    ((("r", "NG/W"),), "process 3 may not read NG/W"),
    ((("r", "NG/X"),), "process 3 may not read NG/X"),
    ((("w", "NG/X", Plain(SeqTuple(1, b"x"))),), "process 3 may not write NG/X"),
])
def test_engine_rejects_a_disallowed_read_and_an_unknown_register(script, message):
    # Reader 3 does not read the writer's NG/W at n = 3, and NG/X is no
    # register; run_queue raises before the access is applied or logged.
    layout = build_candidate("naive-gossip", 3)
    eng = Engine(layout)
    eng.spawn_script(3, script)
    with pytest.raises(AccessViolation, match=f"^{message}$"):
        eng.run_queue(step_budget=10, per_op_budget=1)
    assert eng.events == []
    assert eng.cells == {s.reg_id: s.initial for s in layout.specs}


def test_resetall_touches_only_own_registers_in_id_order():
    layout = build_candidate("naive-gossip", 3)
    eng = Engine(layout)
    eng.cells["NG/G2"] = Plain(SeqTuple(3, b"x"))
    eng.spawn_script(2, script_from_json({"kind": "resetall"}, layout.specs, 2))
    eng.run_queue(step_budget=100, per_op_budget=1)
    writes = [e.reg for e in eng.events if e.kind == "reg_write"]
    assert writes == ["NG/G2"]
    assert eng.cells["NG/G2"] == Plain(SeqTuple(0, b""))


def test_script_json_roundtrip():
    # Every script kind parses to the register accesses it issues. resetall
    # writes proc 3's registers in id order, not in declaration order
    # (which puts I3/RwQ before I3/RpQ).
    layout = build_candidate("algo1", 3)
    specs = layout.specs
    reset = script_from_json({"kind": "resetall"}, specs, 3)
    assert reset == tuple(("w", r, layout.by_id[r].initial) for r in [
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
    history = history_from_events(result.events, faults)
    assert not checker.check_property1(history, True).ok


def test_attack_algo1_blocks():
    result = attack_search("algo1", 3, stage_budget=2000)
    assert isinstance(result, BlockedWitness)
    pending = [e for e in result.events if e.kind == "invoke"
               and e.proc == result.reader]
    assert pending


class _Relay(constructions.Layout):
    """A 3-reader candidate: the writer writes RL/W, which readers 1 and 2
    read; reader 2 copies what it reads into RL/R2, which reader 3 reads."""

    def __init__(self, n):
        t0 = Plain(SeqTuple(0, b""))
        super().__init__([1, 2, 3], [RegisterSpec("RL/W", 0, frozenset([1, 2]), t0),
                                     RegisterSpec("RL/R2", 2, frozenset([1, 3]), t0)],
                         {"RL/W": "candidate", "RL/R2": "candidate"})

    def write_machine(self, state, value):
        state.c += 1
        yield ("w", "RL/W", Plain(SeqTuple(state.c, value)))
        return DONE

    def read_machine(self, state, proc):
        x = yield ("r", "RL/R2" if proc == 3 else "RL/W")
        if proc == 2:
            yield ("w", "RL/R2", x)
        return x.t


def test_a_forced_read_that_dodges_the_marker_is_a_violation_witness(monkeypatch):
    # In C_1^3 reader 1 returns the marker, and then reader 3 returns the
    # initial value, which reader 2, the process allowed to misbehave, wrote
    # back to RL/R2.
    monkeypatch.setitem(constructions.IMPLEMENTATIONS, "_relay",
                        Implementation(_Relay, RULE_THM1, 3))
    result = attack_search("_relay", 3)
    assert isinstance(result, ViolationWitness)
    assert (result.stage, result.vclass) == ("C_1^3", "Property2")
    assert result.explanation == "read by 1 returned v_1, then read by 3 returned v_0"
    assert result.stage_log[-1] == \
        "C_1^3: read by 3 returned SeqTuple(k=0, u=b''), not the marker"
    reads = [(e.proc, e.ret) for e in result.events
             if e.kind == "respond" and e.op == "Read"]
    assert reads == [(1, SeqTuple(1, MARKER)), (3, SeqTuple(0, b""))]


class _Votes(constructions.Layout):
    """A 3-reader candidate whose read keeps the tuple it read in a dict local
    and spins until the writer has written: the writer writes VT/W, which
    reader 1 reads, then VT/V, which readers 2 and 3 read."""

    def __init__(self, n):
        t0 = Plain(SeqTuple(0, b""))
        super().__init__([1, 2, 3], [RegisterSpec("VT/W", 0, frozenset([1]), t0),
                                     RegisterSpec("VT/V", 0, frozenset([2, 3]), t0)],
                         {"VT/W": "candidate", "VT/V": "candidate"})

    def write_machine(self, state, value):
        state.c += 1
        yield ("w", "VT/W", Plain(SeqTuple(state.c, value)))
        yield ("w", "VT/V", Plain(SeqTuple(state.c, value)))
        return DONE

    def read_machine(self, state, proc):
        votes, reg = {}, "VT/W" if proc == 1 else "VT/V"
        while True:
            votes[reg] = (yield ("r", reg)).t
            if votes[reg].k:
                return votes[reg]


def test_a_read_with_a_dict_local_is_found_blocked_by_a_lasso(monkeypatch):
    # In C_1^3 the writer crashed before writing VT/V, so reader 3 spins on
    # its initial tuple; its state, its dict of votes included, repeats.
    monkeypatch.setitem(constructions.IMPLEMENTATIONS, "_votes",
                        Implementation(_Votes, RULE_THM1, 3))
    result = attack_search("_votes", 3)
    assert isinstance(result, BlockedWitness)
    assert (result.stage, result.reader) == ("C_1^3", 3)
    assert "blocked (lasso 9..10)" in result.explanation


def test_a_read_past_the_stage_budget_is_a_blocked_witness():
    # An algo3 read at n = 3 takes 2n + 1 = 7 register steps, so a stage
    # budget of 6 stops it when it asks for its 7th, before it responds.
    result = attack_search("algo3", 3, stage_budget=6)
    assert isinstance(result, BlockedWitness)
    assert (result.stage, result.reader) == ("A_4(x=1)", 1)
    assert result.explanation == ("read by correct process 1 still pending after 6 "
                                  "of its steps under a fair schedule")
    assert result.stage_log[-1] == "A_4(x=1): read by 1 blocked"
    assert [e.kind for e in result.events if e.proc == 1] == \
        ["invoke"] + ["reg_read"] * 4 + ["reg_write"] * 2
    # A budget of 7 admits the read, and the search exhausts as at the default.
    exhausted = attack_search("algo3", 3, stage_budget=7)
    assert isinstance(exhausted, Exhausted)
    assert exhausted.stage_log == attack_search("algo3", 3).stage_log


# The lasso each blocked algo1 attack read stops at: an exact repeat (an
# empty shift) at n = 3, a repeat up to shifted counters at n = 4 and 5.
LASSOS = {
    3: "blocked (lasso 40..44)",
    4: "blocked (lasso 72..82; k of I4/RwQ/I3/RpQ/I2 +2)",
    5: "blocked (lasso 135..157; k of I5/RwQ/I4/RpQ/I3 +2, "
       "k of I5/RwQ/I4/RpQ/I3/RwQ/I2 +4)",
    6: "blocked (lasso 258..304; k of I6/RwQ/I5/RpQ/I4 +2, "
       "k of I6/RwQ/I5/RpQ/I4/RwQ/I3 +4, "
       "k of I6/RwQ/I5/RpQ/I4/RwQ/I3/RwQ/I2 +8)",
}


def _record_plans(monkeypatch) -> list:
    """The phases of every plan the adversary runs from now on, in order."""
    from byzregs import adversary

    plans = []
    run_plan = adversary.run_plan

    def recording(name, n, phases, stage_budget, *runs):
        plans.append(phases)
        return run_plan(name, n, phases, stage_budget, *runs)

    monkeypatch.setattr(adversary, "run_plan", recording)
    return plans


def _blocked_plan(monkeypatch, n):
    """The blocked witness of algo1 at n, and the phases of its plan."""
    plans = _record_plans(monkeypatch)
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
    from byzregs import lasso
    from byzregs.adversary import FreshRead, WriterPhase, run_plan

    taken, made = [], []
    take, fingerprint = lasso.Watch._take, lasso.Watch._fingerprint

    def counted_take(self, step):
        taken.append(step)
        return take(self, step)

    def counted_fingerprint(self, p):
        made.append(p.step)
        return fingerprint(self, p)

    monkeypatch.setattr(lasso.Watch, "_take", counted_take)
    monkeypatch.setattr(lasso.Watch, "_fingerprint", counted_fingerprint)
    # A search watches a read only past its longest completed op: algo3's
    # first fresh read, one take per step past the solo write's n steps.
    assert isinstance(attack_search("algo3", 3), Exhausted)
    assert 0 < len(taken) <= 3 + 1
    assert made == []
    # An algo1 read after a complete (correct) write, run without a search,
    # is watched only from LASSO_THRESHOLD steps on.
    taken.clear()
    res = run_plan("algo1", 4, [WriterPhase(None), FreshRead(2)], 100_000)
    assert res.ops[-1].status == "completed"
    assert taken == []


def _searched(monkeypatch, name, n, stage_budget, watch_at=None):
    """The outcome of attack_search, or the input error it raised, and its
    search; with watch_at, every plan runs with that watch start."""
    from byzregs import adversary

    searches = []
    init, run_plan = adversary._Search.__init__, adversary.run_plan

    def keep(self, *args):
        init(self, *args)
        searches.append(self)

    def watched(name, n, phases, budget, runs=None, at=None):
        return run_plan(name, n, phases, budget, runs, watch_at or at)

    monkeypatch.setattr(adversary._Search, "__init__", keep)
    monkeypatch.setattr(adversary, "run_plan", watched)
    try:
        result = attack_search(name, n, stage_budget=stage_budget)
    except MalformedScenario as exc:  # the candidate does not run at this n
        result = exc
    monkeypatch.undo()
    return result, searches[0] if searches else None


@pytest.mark.parametrize("name", sorted(constructions.IMPLEMENTATIONS))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_watch_start_changes_nothing_but_the_witness(monkeypatch, name, n):
    # The same search with the watch off (past the stage budget) runs every
    # plan to its end: each plan's read record and the stage log are equal,
    # but for where a blocked read stops. So are they with every read
    # watched from its first step.
    budget = 2000
    result, search = _searched(monkeypatch, name, n, budget)
    off, unwatched = _searched(monkeypatch, name, n, budget, watch_at=budget + 1)
    first, watched = _searched(monkeypatch, name, n, budget, watch_at=1)
    assert type(result) is type(off) is type(first)
    if search is None:
        assert str(result) == str(off) == str(first)
        return

    def records(search):
        # A key names each script by its id: name it by its value instead.
        scripts = {id(x): x for x in [*search.scripts.values(), *search.resets.values()]}
        return [(tuple((x[0], scripts[x[1]]) if type(x) is tuple else x for x in key),
                 plan.read.status, plan.read.ret,
                 plan.read.steps if plan.read.status == "completed" else None)
                for key, plan in search.plans.items()]

    assert records(search) == records(unwatched) == records(watched)
    assert search.log == unwatched.log == watched.log
    if isinstance(result, BlockedWitness):
        assert result.explanation == first.explanation
        assert "still pending after 2000" in off.explanation
        assert off.events[:len(result.events)] == result.events


# The events of algo1's blocked witness: a search watches its read from the
# first step past every op it completed, so the witness is the writer's
# prefix, the replays and the read up to its lasso's repeat.
WITNESS_LENGTHS = {3: 45, 4: 83, 5: 158, 6: 305, 7: 596, 8: 1175}


@pytest.mark.parametrize("n", sorted(WITNESS_LENGTHS))
def test_blocked_algo1_cycle_is_lambda_n_steps(n):
    # The blocked read's cycle is lambda(n) = 3 * 2^(n-2) - 2 steps long,
    # (W(n) - 2) / 2 for a write of W(n) register steps: 4, 10, 22, 46, 94.
    result = attack_search("algo1", n)
    assert isinstance(result, BlockedWitness)
    i, j = map(int, re.search(r"lasso (\d+)\.\.(\d+)", result.explanation).groups())
    assert j - i == 3 * 2 ** (n - 2) - 2 == (algo1_write_step_count(n) - 2) // 2
    assert len(result.events) == WITNESS_LENGTHS[n] == j + 1


def test_the_skeleton_hash_only_proposes_a_lasso(monkeypatch):
    # With every slot's share of the skeleton hash equal, the hash repeats at
    # nearly every take, and the fingerprints and the shift alone must find
    # the same lassos and witnesses.
    from byzregs import lasso

    expected = {n: attack_search("algo1", n) for n in sorted(LASSOS)}
    made = []
    fingerprint = lasso.Watch._fingerprint

    def counted(self, p):
        made.append(p.step)
        return fingerprint(self, p)

    monkeypatch.setattr(lasso, "_slot_hash", lambda slot, part: 0)
    monkeypatch.setattr(lasso.Watch, "_fingerprint", counted)
    for n in sorted(LASSOS):
        made.clear()
        result = attack_search("algo1", n)
        assert LASSOS[n] in result.explanation
        assert result.explanation == expected[n].explanation
        assert events_to_jsonl(result.events) == events_to_jsonl(expected[n].events)
        # Unpatched, only the lasso's two states are fingerprinted.
        i, j = map(int, re.search(r"lasso (\d+)\.\.(\d+)", result.explanation).groups())
        assert len(set(made)) > (j - i) // 2


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
        "e7096db3442b987e4edff9857ae23c04a93bb50715818138ed0ba37891d65d71"),
    ("algo1", 4): (
        BlockedWitness, "C_10^2", None,
        "1c2e2d9414dbea9df93e6841fe245d8f9a0c96bd9a33d08730ca44f8f5e0849f",
        "097ab3d96a5769ebb0f6f5713e45cf9dbd521e90590aed9f4eb065c66666fbfe"),
    ("algo1", 5): (
        BlockedWitness, "C_19^2", None,
        "1bc56cd0395395db129311da690bdcecd5a567be3e979db976f9ef1d95cd6ba4",
        "f0670ffd19115de1003542f81ef51b82185fc74d6f5010d3857a07a332062e74"),
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


# Plans one search requests and runs. Sibling role assignments request the
# same plans; each of the 52 and 8 distinct by value runs once, and the
# solo write runs as one more plan.
PLAN_REQUESTS_AND_RUNS = {("algo3", 4): (116, 53), ("atomic-1wnr", 4): (24, 9)}


@pytest.mark.parametrize("name,n", sorted(PLAN_REQUESTS_AND_RUNS))
def test_search_runs_each_distinct_plan_once(monkeypatch, name, n):
    from byzregs.adversary import _Search

    requests = []
    fresh = _Search.fresh

    def counting(self, phases, reader, stage, **keep):
        requests.append(stage)
        return fresh(self, phases, reader, stage, **keep)

    monkeypatch.setattr(_Search, "fresh", counting)
    plans = _record_plans(monkeypatch)
    assert isinstance(attack_search(name, n), Exhausted)
    assert (len(requests), len(plans)) == PLAN_REQUESTS_AND_RUNS[name, n]
    # The plans live as long as one search: a second one runs them all again.
    runs = len(plans)
    attack_search(name, n)
    assert len(plans) == 2 * runs


def test_a_recalled_plan_is_charged_but_not_run_again(monkeypatch):
    from byzregs.adversary import FreshRead, WriterPhase, _Search, run_plan

    search = _Search("algo3", 3, budget=10**9, stage_budget=1000)
    plans = _record_plans(monkeypatch)
    plan = search.fresh([WriterPhase(2)], 1, "B_2(x=1)", record=True)
    assert search.fresh([WriterPhase(2)], 1, "B_2(x=1)", record=True) is plan
    assert len(plans) == 1
    assert plan.marker and search.spent == 2 * plan.accesses
    # What the plan keeps is what a fresh run of its phases gives.
    res = run_plan("algo3", 3, [WriterPhase(2), FreshRead(1)], 1000)
    assert plan.accesses == res.accesses
    assert plan.actions == recorded_actions(res.events, 1)


def test_a_recalled_plan_never_runs_again_for_accesses_it_did_not_keep():
    from byzregs.adversary import StagePreconditionFailed, WriterPhase, _Search

    # A stage that replays a plan's read asks to keep it on every request,
    # so a recall that lacks it is a harness bug, not a reason to re-run.
    search = _Search("algo3", 3, budget=10**9, stage_budget=1000)
    assert search.fresh([WriterPhase(2)], 1, "B_2(x=1)").marker
    with pytest.raises(StagePreconditionFailed):
        search.fresh([WriterPhase(2)], 1, "B_2(x=1)", record=True)


# algo3 n=4's stage log at small search budgets: lines, reason and sha256.
# A recalled plan is charged as if it ran, so the search ends where
# re-running every request would.
BUDGET_STAGE_LOGS = {
    50: (5, "budget exhausted",
         "52c97d7c21b0fef7dce01c4ac9e5cdc1f8a83c9db74af41edb2fb3dfebeb4850"),
    500: (22, "budget exhausted",
          "3488e527f6536d0542bd3ccc81374d7fa20bdeedb70af381d7d4bfd4d9e8b71a"),
    5000: (61, "all branches exhausted",
           "45c834eb795d69c28c4e64beb89b4f55f8aa2f9f30e564c0a03b3821cc8393f5"),
}


@pytest.mark.parametrize("budget", sorted(BUDGET_STAGE_LOGS))
def test_recalled_plans_are_charged_to_the_search_budget(budget):
    lines, reason, digest = BUDGET_STAGE_LOGS[budget]
    result = attack_search("algo3", 4, budget=budget)
    assert isinstance(result, Exhausted)
    assert (len(result.stage_log), result.reason) == (lines, reason)
    assert _sha256("\n".join(result.stage_log).encode()) == digest


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
        assert search.writer(2) == WriterPhase(None)  # k = 2 is past m = 1
        base = ExecState(k=2, replays=(), x=1, p_role=p_role)
        assert set(search.readers) - {base.x, base.p_role} == {silent}
        out = apply_transformation_chain(search, base)
        assert isinstance(out, ExecState)
        assert out.k == 1
        assert (out.x, out.p_role) == roles
        assert [ph.proc for ph in out.replays] == [out.p_role]
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


@pytest.mark.parametrize("name", ["naive-gossip", "algo1", "algo3"])
def test_solo_write_has_a_writer_phase_budget(name):
    # The solo write is a plan's writer phase: its m register steps fit a
    # budget of m, as every plan's ops do, and m - 1 stops it.
    from byzregs.adversary import WriterBlocked, WriterPhase, run_plan

    m = len(record_solo_write(name, 3)[0])
    steps, events = record_solo_write(name, 3, budget=m)
    phase = run_plan(name, 3, [WriterPhase(None)], m)
    assert len(steps) == m
    assert events_to_jsonl(events) == events_to_jsonl(phase.events)
    with pytest.raises(WriterBlocked):
        record_solo_write(name, 3, budget=m - 1)


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


def _same_run(a, b):
    assert events_to_jsonl(a.events) == events_to_jsonl(b.events)
    assert a.ops == b.ops and a.accesses == b.accesses


@pytest.mark.parametrize("name", ["naive-gossip", "algo1", "algo3", "atomic-1wnr"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_plan_started_from_a_kept_run_equals_a_fresh_run(name, n):
    # Every writer phase starts from a copy of the solo write's run at its
    # crash point: each plan shape gives the events, op records and
    # accesses that running it on a fresh engine gives, and a kept run
    # gives them again on a second copy. The D-shaped plan replays a read
    # of the marker, which verifies only where the writer signed it.
    from byzregs.adversary import (FreshRead, ScriptPhase, WriterPhase, plan_key,
                                   recorded_actions, run_plan)
    from byzregs.sim import reset_script

    runs = {}
    steps, _ = record_solo_write(name, n, 1000, runs)
    assert set(runs) == {plan_key([WriterPhase(a)])
                         for a in [*range(len(steps) + 1), None]}
    x, p, r = 1, 2, 3
    read = run_plan(name, n, [WriterPhase(None), FreshRead(x)], 1000)
    replay = ScriptPhase(x, recorded_actions(read.events, x))
    reset = ScriptPhase(p, reset_script(build_candidate(name, n).specs, p))
    for a in [*range(len(steps) + 1), None]:
        w = WriterPhase(a)
        for phases in ([w, FreshRead(r)], [w, FreshRead(x), reset, FreshRead(r)],
                       [w, replay, FreshRead(r)]):
            kept = run_plan(name, n, phases, 1000, runs)
            _same_run(kept, run_plan(name, n, phases, 1000))
            _same_run(kept, run_plan(name, n, phases, 1000, runs))


@pytest.mark.parametrize("name", ["naive-gossip", "algo1", "algo3", "atomic-1wnr"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_plan_started_from_a_finished_plan_equals_a_fresh_run(name, n):
    # A C-shaped plan goes on from B's finished run (x's read), an E-shaped
    # one from D's (x's replay and r's read): started from a copy of the
    # kept run, each gives the events, op records and accesses of a fresh
    # run, again on a second copy, and leaves the kept run as it was.
    from byzregs.adversary import (FreshRead, ScriptPhase, WriterPhase, plan_key,
                                   recorded_actions, run_plan)
    from byzregs.sim import reset_script

    runs = {}
    steps, _ = record_solo_write(name, n, 1000, runs)
    x, p, r = 1, 2, 3
    specs = build_candidate(name, n).specs
    read = run_plan(name, n, [WriterPhase(None), FreshRead(x)], 1000)
    replay = ScriptPhase(x, recorded_actions(read.events, x))
    resets = {q: ScriptPhase(q, reset_script(specs, q)) for q in (x, p)}
    for a in [*range(len(steps) + 1), None]:
        w = WriterPhase(a)
        for kept_phases, rest in (([w, FreshRead(x)], [resets[p], FreshRead(r)]),
                                  ([w, replay, FreshRead(r)], [resets[x], FreshRead(p)])):
            kept = run_plan(name, n, kept_phases, 1000, runs)
            eng, copies = kept.copy.__self__, []

            def copier(eng=eng, copies=copies):
                copies.append(eng)
                return eng.copy()

            runs[plan_key(kept_phases)] = copier, kept.accesses
            before = (events_to_jsonl(eng.events), dict(eng.cells),
                      eng.state.key_items(), [op.copy() for op in eng.ops])
            started = run_plan(name, n, kept_phases + rest, 1000, runs)
            assert len(copies) == 1
            _same_run(started, run_plan(name, n, kept_phases + rest, 1000))
            _same_run(started, run_plan(name, n, kept_phases + rest, 1000, runs))
            assert len(copies) == 2
            assert (events_to_jsonl(eng.events), dict(eng.cells),
                    eng.state.key_items(), eng.ops) == before


@pytest.mark.parametrize("name", ["algo1", "algo3"])
def test_a_plan_only_reads_its_table_of_kept_runs(name):
    # A plan whose writer crashes keeps nothing in the table it starts from,
    # empty or S's: a complete-write plan from that table then equals a
    # fresh run, and does not start from the crashed writer's run.
    from byzregs.adversary import FreshRead, WriterPhase, run_plan

    full = [WriterPhase(None), FreshRead(2)]
    runs = {}
    run_plan(name, 3, [WriterPhase(2), FreshRead(1)], 1000, runs)
    assert runs == {}
    _same_run(run_plan(name, 3, full, 1000, runs), run_plan(name, 3, full, 1000))
    record_solo_write(name, 3, 1000, runs)
    kept = dict(runs)
    run_plan(name, 3, [WriterPhase(2), FreshRead(1)], 1000, runs)
    assert runs == kept
    _same_run(run_plan(name, 3, full, 1000, runs), run_plan(name, 3, full, 1000))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_search_keeps_no_run_that_no_stage_extends(monkeypatch, n):
    # The atomic control's one write step is visible to every reader, so no
    # C stage extends its B runs: its table holds only the solo write's runs.
    # algo3's holds the B runs its C stages start from.
    from byzregs.adversary import _Search

    tables = []
    init = _Search.__init__

    def kept(self, *args):
        init(self, *args)
        tables.append(self.runs)

    monkeypatch.setattr(_Search, "__init__", kept)
    attack_search("atomic-1wnr", n)
    attack_search("algo3", n)
    atomic, algo3 = tables
    assert atomic and all(len(key) == 1 for key in atomic)
    assert any(len(key) > 1 for key in algo3)


# First runs that start from a finished plan (a kept B or D run), of all
# first runs, the solo write's included.
FINISHED_STARTS = {("algo3", 4): (17, 53), ("algo3", 5): (27, 78),
                   ("atomic-1wnr", 4): (0, 9)}


def _record_starts(monkeypatch) -> list:
    """For every plan the adversary runs from now on, in order: its table of
    kept runs and whether it starts from a finished plan's run."""
    from byzregs import adversary

    starts = []
    run_plan = adversary.run_plan

    def recording(name, n, phases, stage_budget, runs=None, watch_at=None):
        key = adversary.plan_key(phases)
        starts.append((runs, bool(runs) and any(key[:i] in runs
                                                for i in range(2, len(key) + 1))))
        return run_plan(name, n, phases, stage_budget, runs, watch_at)

    monkeypatch.setattr(adversary, "run_plan", recording)
    return starts


@pytest.mark.parametrize("name,n", sorted(FINISHED_STARTS))
def test_plans_start_from_finished_plans_of_their_own_search(monkeypatch, name, n):
    # The atomic control's one write step is visible to every reader, so no
    # C or E stage runs and no plan extends a kept B.
    starts = _record_starts(monkeypatch)
    assert isinstance(attack_search(name, n), Exhausted)
    first = list(starts)
    assert (sum(s for _, s in first), len(first)) == FINISHED_STARTS[name, n]
    # The kept runs live as long as one search: a second one keeps its own.
    starts.clear()
    attack_search(name, n)
    assert [s for _, s in starts] == [s for _, s in first]
    assert not any(runs is table for runs, _ in starts for table, _ in first)


@pytest.mark.parametrize("name", ["naive-gossip", "algo1", "algo3", "atomic-1wnr"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_plan_counts_the_accesses_of_all_its_events(monkeypatch, name, n):
    # A plan started from a kept run counts the accesses of its own events
    # and adds the kept prefix's; the sum is the count over all its events.
    from byzregs import adversary

    starts = _record_starts(monkeypatch)
    run_plan, counted = adversary.run_plan, []

    def scanned(*args):
        res = run_plan(*args)
        assert res.accesses == sum(e.kind in ("reg_read", "reg_write")
                                   for e in res.events)
        counted.append(args[2][0])
        return res

    monkeypatch.setattr(adversary, "run_plan", scanned)
    attack_search(name, n)
    # The solo write, plans started from its kept runs and writer-less ones.
    assert any(isinstance(ph, adversary.WriterPhase) and ph.crash_after is not None
               for ph in counted)
    # And, but for the atomic control (see above), plans started from a
    # finished plan's run.
    assert any(s for _, s in starts) is (name != "atomic-1wnr")


# sha256 (first 16 hex digits) of every attack_search outcome of a table
# entry at n = 3..6 and stage budgets default, 2000, 10 and 7: the result's
# type, stage, explanation, reason, stage log and witness JSONL, or the
# raised exception's type and text.
ATTACK_CORPUS = {
    "algo1": "e8b824d774199303",
    "algo2": "3e1c46a0f902a401",
    "algo3": "83a57a4d6af49d53",
    "atomic-1wnr": "96018dae80a693a3",
    "naive-gossip": "84c8b91e9f3dfb50",
}


def _attack_outcome(name, n, stage_budget):
    kw = {} if stage_budget is None else {"stage_budget": stage_budget}
    try:
        r = attack_search(name, n, **kw)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    events = getattr(r, "events", None)
    return [type(r).__name__, getattr(r, "stage", None),
            getattr(r, "explanation", None), getattr(r, "reason", None),
            r.stage_log, None if events is None else events_to_jsonl(events).decode()]


@pytest.mark.parametrize("name", sorted(ATTACK_CORPUS))
def test_attack_corpus_is_pinned(name):
    assert set(ATTACK_CORPUS) == set(constructions.IMPLEMENTATIONS)
    outcomes = [_attack_outcome(name, n, b)
                for n in range(3, 7) for b in (None, 2000, 10, 7)]
    text = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    assert _sha256(text.encode())[:16] == ATTACK_CORPUS[name]
