import pytest
from hypothesis import given, settings, strategies as st

from byzregs import checker, sim
from byzregs.checker import (
    OpRecord,
    check_bottom_returns,
    check_property1,
    check_property2,
    check_wait_freedom,
    extract_history,
    validate_internal_invariants,
)
from byzregs.constructions import layout_of
from byzregs.core import (
    Commit,
    Correct,
    Crash,
    Event,
    Malicious,
    Plain,
    Prepare,
    SeqTuple,
    Signed,
    sig_token,
)
from linearize_oracle import (
    TooLarge,
    check_property1_pairs,
    check_property2_pairs,
    oracle_linearize,
)


def w(k, invoke, respond):
    return OpRecord(0, "Write", k, value=f"v{k}".encode(),
                    invoke_step=invoke, respond_step=respond)


def r(proc, k, invoke, respond, honest=True, bottom=False):
    return OpRecord(proc, "Read", k, invoke_step=invoke, respond_step=respond,
                    honest=honest, bottom=bottom)


# -- property 1 ---------------------------------------------------------------


def test_p1_read_of_completed_write_passes():
    h = [w(1, 0, 1), r(1, 1, 2, 3)]
    assert check_property1(h, True).ok


def test_p1_stale_read_after_completed_write_fails():
    h = [w(1, 0, 1), r(1, 0, 2, 3)]
    v = check_property1(h, True)
    assert not v.ok and v.vclass == "Property1" and v.witnesses


def test_p1_concurrent_write_passes():
    h = [w(1, 0, 1), w(2, 2, 6), r(1, 2, 3, 4)]
    assert check_property1(h, True).ok


def test_p1_pending_write_counts_as_concurrent():
    h = [w(1, 0, None), r(1, 1, 2, 3)]
    assert check_property1(h, True).ok


def test_p1_initial_value_with_no_preceding_write():
    h = [r(1, 0, 0, 1), w(1, 2, 3)]
    assert check_property1(h, True).ok


def test_p1_unknown_value_fails():
    h = [r(1, None, 0, 1)]
    v = check_property1(h, True)
    assert not v.ok


# -- property 2 ---------------------------------------------------------------


def test_p2_monotone_reads_pass():
    h = [w(1, 0, 1), w(2, 2, 3), r(1, 1, 4, 5), r(2, 2, 6, 7)]
    assert check_property2(h, True).ok


def test_p2_inversion_fails_with_both_ops_as_witnesses():
    h = [w(1, 0, 1), w(2, 2, 3), r(1, 2, 4, 5), r(2, 1, 6, 7)]
    v = check_property2(h, True)
    assert not v.ok
    assert set(v.witnesses) == {4, 5, 6, 7}


def test_p2_concurrent_reads_pass():
    h = [w(1, 0, 1), w(2, 2, 3), r(1, 2, 4, 7), r(2, 1, 5, 6)]
    assert check_property2(h, True).ok


def test_vacuity_under_malicious_writer():
    h = [w(1, 0, 1), r(1, 5, 2, 3), r(2, 1, 4, 5)]
    assert check_property1(h, False).ok
    assert check_property2(h, False).ok


# -- bottom returns -----------------------------------------------------------


def test_bottom_with_honest_writer_fails():
    h = [r(1, None, 0, 1, bottom=True)]
    v = check_bottom_returns(h, True)
    assert not v.ok and v.vclass == "BottomReturn"


def test_bottom_with_malicious_writer_passes():
    h = [r(1, None, 0, 1, bottom=True)]
    assert check_bottom_returns(h, False).ok


def test_no_bottoms_passes():
    assert check_bottom_returns([w(1, 0, 1), r(1, 1, 2, 3)], True).ok


# -- wait freedom -------------------------------------------------------------


def _trace(ops):
    return sim.Trace(events=[], ops=ops)


def test_wait_freedom_violation_when_guaranteed():
    ops = [sim.OpResult(0, 1, "Read", None, invoke_step=0, status="pending",
                        reason="per-op budget")]
    v = check_wait_freedom(_trace(ops), {0: Correct(), 1: Correct()})
    assert not v.ok and v.vclass == "WaitFreedom"


def test_wait_freedom_outside_guarantee_passes_with_note():
    ops = [sim.OpResult(0, 1, "Read", None, invoke_step=0, status="pending",
                        reason="per-op budget")]
    faults = {0: Crash(3), 1: Correct(), 2: Malicious(())}
    v = check_wait_freedom(_trace(ops), faults)
    assert v.ok and "outside guarantee" in v.explanation


def test_wait_freedom_crashed_owner_not_counted():
    ops = [sim.OpResult(0, 1, "Read", None, invoke_step=0, status="crashed-owner")]
    v = check_wait_freedom(_trace(ops), {0: Correct(), 1: Crash(5)})
    assert v.ok


# -- internal invariants ------------------------------------------------------


def _algo1_ctx(n=3):
    inst = layout_of("algo1", n)
    return {s.reg_id: s for s in inst.specs}, inst.classify


def test_internal_invariants_pass_on_real_trace():
    sc = sim.Scenario("algo1", 3, {p: Correct() for p in range(4)},
                      [sim.WorkItem(0, "write", value=b"a"),
                       sim.WorkItem(2, "read", after_op=0)],
                      sim.Seeded(5))
    tr = sim.run(sc)
    specs, classify = _algo1_ctx()
    assert validate_internal_invariants(tr, specs, classify, sc.faults).ok


def test_internal_invariants_commit_order_inversion():
    specs, classify = _algo1_ctx()
    events = [
        Event(0, 0, 0, "reg_write", reg="I3/Rwp", value=Commit(SeqTuple(2, b"b"))),
        Event(1, 0, 0, "reg_write", reg="I3/Rwp", value=Commit(SeqTuple(1, b"a"))),
    ]
    v = validate_internal_invariants(sim.Trace(events, []), specs,
                                     classify, {0: Correct()})
    assert not v.ok and v.witnesses == [1]


@pytest.mark.parametrize("prev_tag", ["prepare", "commit"])
@pytest.mark.parametrize("next_tag", ["prepare", "commit"])
@pytest.mark.parametrize("dk", [0, 1])
def test_internal_invariants_writer_channel_rank(prev_tag, next_tag, dk):
    # k strictly increases along the writer channel, except that a commit
    # may repeat the k of the prepare just before it.
    def cell(tag, k):
        t = SeqTuple(k, b"x")
        return Commit(t) if tag == "commit" else Prepare(SeqTuple(k - 1, b"w"), t)

    specs, classify = _algo1_ctx()
    events = [
        Event(0, 0, 0, "reg_write", reg="I3/Rwp", value=cell(prev_tag, 2)),
        Event(1, 0, 0, "reg_write", reg="I3/Rwp", value=cell(next_tag, 2 + dk)),
    ]
    v = validate_internal_invariants(sim.Trace(events, []), specs,
                                     classify, {0: Correct()})
    assert v.ok == (dk == 1 or (prev_tag, next_tag) == ("prepare", "commit"))
    if not v.ok:
        assert v.witnesses == [1]


@pytest.mark.parametrize("cell", [Plain(SeqTuple(1, b"a")),
                                  Commit(SeqTuple(0, b""))],
                         ids=["plain", "commit-k=0"])
def test_internal_invariants_malformed_writer_cell(cell):
    specs, classify = _algo1_ctx()
    events = [Event(0, 0, 0, "reg_write", reg="I3/Rwp", value=cell)]
    v = validate_internal_invariants(sim.Trace(events, []), specs,
                                     classify, {0: Correct()})
    assert not v.ok and v.witnesses == [0] and "malformed" in v.explanation


def test_internal_invariants_non_tuple_in_gossip_register():
    specs, classify = _algo1_ctx()
    assert classify["I3/R2_3"] == "gossip"
    events = [Event(0, 2, 0, "reg_write", reg="I3/R2_3",
                    value=Commit(SeqTuple(1, b"a")))]
    v = validate_internal_invariants(sim.Trace(events, []), specs,
                                     classify, {2: Correct()})
    assert not v.ok and v.witnesses == [0] and "non-tuple" in v.explanation


def test_internal_invariants_announce_monotonicity_break():
    specs, classify = _algo1_ctx(2)
    events = [
        Event(0, 1, 0, "reg_write", reg="I2/RpQ", value=Plain(SeqTuple(2, b"b"))),
        Event(1, 1, 0, "reg_write", reg="I2/RpQ", value=Plain(SeqTuple(1, b"a"))),
    ]
    v = validate_internal_invariants(sim.Trace(events, []), specs,
                                     classify, {1: Correct()})
    assert not v.ok and v.witnesses == [1]


def test_internal_invariants_invalid_signature_acceptance():
    inst = layout_of("algo3", 3)
    specs = {s.reg_id: s for s in inst.specs}
    fake = Signed(SeqTuple(5, b"evil"), 0, sig_token(SeqTuple(5, b"evil"), 0))
    events = [
        Event(0, 1, 0, "reg_write", reg="Is/R1_2", value=fake),
    ]
    v = validate_internal_invariants(sim.Trace(events, []), specs,
                                     inst.classify, {1: Correct()})
    assert not v.ok and "signed" in v.explanation


def test_internal_invariants_skip_malicious_events():
    specs, classify = _algo1_ctx()
    events = [
        Event(0, 0, 0, "reg_write", reg="I3/Rwp", value=Commit(SeqTuple(2, b"b"))),
        Event(1, 0, 0, "reg_write", reg="I3/Rwp", value=Commit(SeqTuple(1, b"a"))),
    ]
    v = validate_internal_invariants(sim.Trace(events, []), specs,
                                     classify, {0: Malicious(())})
    assert v.ok


def test_read_return_needs_writer_channel_evidence():
    specs, classify = _algo1_ctx()
    events = [
        Event(0, 2, 0, "invoke", op="Read"),
        Event(1, 2, 0, "reg_read", reg="I3/RwQ/I2/RwQ",
              value=Commit(SeqTuple(0, Plain(SeqTuple(0, b""))))),
        Event(2, 2, 0, "respond", op="Read", ret=SeqTuple(4, b"x")),
    ]
    read = sim.OpResult(0, 2, "Read", None, invoke_step=0, respond_step=2,
                        ret=SeqTuple(4, b"x"), status="completed")
    v = validate_internal_invariants(sim.Trace(events, [read]), specs,
                                     classify, {2: Correct()})
    assert not v.ok and "without observing" in v.explanation


# -- brute-force oracle -------------------------------------------------------


def test_oracle_empty_history():
    assert oracle_linearize([])


def test_oracle_rejects_inversion():
    h = [w(1, 0, 1), w(2, 2, 3), r(1, 2, 4, 5), r(2, 1, 6, 7)]
    assert not oracle_linearize(h)


def test_oracle_places_concurrent_read_after_its_write():
    h = [w(1, 0, 3), r(1, 1, 1, 2)]
    assert oracle_linearize(h)


def test_oracle_pending_write_optional():
    h = [w(1, 0, None), r(1, 0, 1, 2), r(2, 1, 3, 4)]
    assert oracle_linearize(h)


def test_oracle_malicious_writer_vacuous():
    h = [OpRecord(0, "Write", 1, invoke_step=0, respond_step=1, honest=False),
         r(1, 7, 2, 3)]
    assert oracle_linearize(h)


def test_oracle_cap():
    h = [w(k, 2 * k, 2 * k + 1) for k in range(1, 10)]
    with pytest.raises(TooLarge):
        oracle_linearize(h)


def test_witness_soundness_property2():
    h = [w(1, 0, 1), w(2, 2, 3), r(1, 2, 4, 5), r(2, 1, 6, 7)]
    v = check_property2(h, True)
    assert not v.ok
    sub = [op for op in h if op.kind == "Read"
           and {op.invoke_step, op.respond_step} & set(v.witnesses)]
    assert not check_property2(sub, True).ok


def test_extract_history_from_trace():
    sc = sim.Scenario("algo1", 3, {p: Correct() for p in range(4)},
                      [sim.WorkItem(0, "write", value=b"a"),
                       sim.WorkItem(2, "read", after_op=0)],
                      sim.Seeded(5))
    tr = sim.run(sc)
    h = extract_history(tr.ops, sc.faults)
    assert [op.kind for op in h] == ["Write", "Read"]
    assert h[0].index == 1
    assert h[1].index == 1
    assert h[1].invoke_step < h[1].respond_step


def test_witness_soundness_property1():
    h = [w(1, 0, 1), r(1, 0, 2, 3)]
    v = check_property1(h, True)
    assert not v.ok
    steps = set(v.witnesses)
    sub = [op for op in h
           if {op.invoke_step, op.respond_step} & steps]
    assert not check_property1(sub, True).ok


def _ops(*items):
    """Completed op records, one invoke and one respond step each, from
    (proc, kind, arg or return)."""
    return [sim.OpResult(i, proc, kind, x if kind == "Write" else None,
                         invoke_step=2 * i, respond_step=2 * i + 1,
                         ret=None if kind == "Write" else x, status="completed")
            for i, (proc, kind, x) in enumerate(items)]


def test_extract_history_drops_a_read_whose_value_was_not_written_under_k():
    ops = _ops(
        (0, "Write", b"a"),
        (1, "Read", SeqTuple(1, b"a")),
        (1, "Read", SeqTuple(1, b"b")),
        (1, "Read", SeqTuple(0, b"")),
        (1, "Read", SeqTuple(0, b"a")),
        # v_2 is not yet invoked: its value is unknown, so k stands.
        (1, "Read", SeqTuple(2, b"z")),
    )
    h = extract_history(ops, {0: Correct(), 1: Correct()})
    assert [op.index for op in h] == [1, 1, None, 0, None, 2]
    assert [op.value for op in h[1:]] == [b"a", b"b", b"", b"a", b"z"]
    v = check_property1(h[:3], True)
    assert not v.ok and "never wrote" in v.explanation


def test_extract_history_judges_a_read_by_the_writes_invoked_before_it_responds():
    # Both reads return (2, b"z"); v_2 = b"b" is invoked after the first
    # read responds and before the second is invoked.
    ops = _ops(
        (0, "Write", b"a"),
        (1, "Read", SeqTuple(2, b"z")),
        (0, "Write", b"b"),
        (1, "Read", SeqTuple(2, b"z")),
    )
    h = extract_history(ops, {0: Correct(), 1: Correct()})
    assert [op.index for op in h] == [1, 2, 2, None]


# -- agreement with the all-pairs reference -----------------------------------


@st.composite
def _histories(draw):
    """Small histories with overlapping writes by several processes, pending
    operations, tied steps, and reads of unknown or unwritten indices."""
    def span():
        invoke, length = draw(st.integers(0, 12)), draw(st.integers(-1, 6))
        return invoke, None if length < 0 else invoke + length

    ops = []
    for k in range(1, draw(st.integers(0, 4)) + 1):
        invoke, respond = span()
        ops.append(OpRecord(draw(st.integers(0, 2)), "Write", k,
                            invoke_step=invoke, respond_step=respond))
    for _ in range(draw(st.integers(0, 6))):
        invoke, respond = span()
        ops.append(r(draw(st.integers(1, 3)), draw(st.sampled_from([None, *range(6)])),
                     invoke, respond, honest=draw(st.integers(0, 4)) > 0,
                     bottom=draw(st.integers(0, 9)) == 0))
    return draw(st.permutations(ops)), draw(st.integers(0, 5)) > 0


@settings(max_examples=300, deadline=None)
@given(_histories())
def test_properties_agree_with_the_all_pairs_reference(case):
    h, writer_honest = case
    assert check_property1(h, writer_honest).to_json() == \
        check_property1_pairs(h, writer_honest).to_json()
    assert check_property2(h, writer_honest).to_json() == \
        check_property2_pairs(h, writer_honest).to_json()


def test_property1_tests_at_most_one_write_per_read(monkeypatch):
    # 1,000 writes alternating with 1,000 reads: read k overlaps write k and
    # returns v_k (even k, concurrent) or v_{k-1} (odd k, latest preceding).
    h = []
    for k in range(1, 1001):
        h.append(w(k, 10 * k, 10 * k + 5))
        h.append(r(k % 3 + 1, k - k % 2, 10 * k + 3, 10 * k + 8))
    calls = 0
    overlaps = checker._overlaps

    def counted(a, b):
        nonlocal calls
        calls += 1
        return overlaps(a, b)

    monkeypatch.setattr(checker, "_overlaps", counted)
    assert check_property1(h, True).ok
    assert check_property2(h, True).ok
    assert 0 < calls <= 1000
