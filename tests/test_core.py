import copy
import json
import pickle
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import byzregs
from byzregs import adversary, checker, core, sim
from byzregs.constructions import Layout
from byzregs.core import (
    BOTTOM,
    AccessViolation,
    Bottom,
    Commit,
    Correct,
    Crash,
    Garbage,
    Malicious,
    Plain,
    Prepare,
    RegisterSpec,
    SeqTuple,
    SignatureOracle,
    Signed,
    decode_cell,
    encode_cell,
    events_from_jsonl,
    events_to_jsonl,
    specs_by_id,
    Event,
)
from byzregs.sim import Engine

SPECS = [
    RegisterSpec("Rwp", 0, frozenset([1]), Commit(SeqTuple(0, b""))),
    RegisterSpec("Rpq", 1, frozenset([2]), Plain(SeqTuple(0, b""))),
]


def run_accesses(*accesses):
    """Each (proc, access) as a one-access script, run in turn on fresh
    registers; the values of the reads."""
    eng = Engine(Layout([1, 2], SPECS, {}))
    for proc, access in accesses:
        eng.spawn_script(proc, (access,))
        eng.run_queue(step_budget=len(eng.events) + 1, per_op_budget=1)
    return [e.value for e in eng.events if e.kind == "reg_read"]


def test_write_then_read_last_write_wins():
    a, b = Commit(SeqTuple(1, b"a")), Commit(SeqTuple(2, b"b"))
    assert run_accesses((0, ("w", "Rwp", a)), (1, ("r", "Rwp")),
                        (0, ("w", "Rwp", b)), (1, ("r", "Rwp"))) == [a, b]


def test_read_untouched_returns_initial():
    assert run_accesses((1, ("r", "Rwp")), (2, ("r", "Rpq"))) == \
        [Commit(SeqTuple(0, b"")), Plain(SeqTuple(0, b""))]


def test_access_control():
    with pytest.raises(AccessViolation):
        run_accesses((2, ("w", "Rwp", Plain(SeqTuple(1, b"a")))))
    with pytest.raises(AccessViolation):
        run_accesses((2, ("r", "Rwp")))
    with pytest.raises(AccessViolation):
        run_accesses((0, ("r", "Rpq")))


def test_duplicate_register_ids_rejected():
    spec = RegisterSpec("R", 0, frozenset([1]), Plain(SeqTuple(0, b"")))
    with pytest.raises(ValueError):
        specs_by_id([spec, spec])


def test_sign_verify_bindings():
    oracle = SignatureOracle()
    t = SeqTuple(1, b"a")
    sig = oracle.sign(t, 0)
    assert oracle.verify(sig, 0)
    # wrong signer
    sig_q = oracle.sign(t, 2)
    assert not oracle.verify(sig_q, 0)
    # altered tuple under the original token
    forged = Signed(SeqTuple(1, b"b"), 0, sig.token)
    assert not oracle.verify(forged, 0)
    # not a signed cell at all
    assert not oracle.verify(Plain(t), 0)


def test_unissued_token_fails_even_if_well_formed():
    oracle = SignatureOracle()
    from byzregs.core import sig_token

    t = SeqTuple(3, b"zzz")
    fake = Signed(t, 0, sig_token(t, 0))
    assert not oracle.verify(fake, 0)
    oracle.sign(t, 0)
    assert oracle.verify(fake, 0)  # now it is a copy of a real signature


def test_forged_token_on_an_issued_tuple_fails():
    oracle = SignatureOracle()
    sig = oracle.sign(SeqTuple(1, b"a"), 0)
    assert oracle.verify(sig, 0)
    for token in ("forged", sig.token[:-1], None):
        assert not oracle.verify(Signed(sig.t, 0, token), 0)


payloads = st.recursive(
    st.binary(max_size=6),
    lambda inner: st.builds(
        Commit, st.builds(SeqTuple, st.integers(0, 9), inner)
    )
    | st.builds(
        Prepare,
        st.builds(SeqTuple, st.integers(0, 9), inner),
        st.builds(SeqTuple, st.integers(0, 9), inner),
    )
    | st.builds(Plain, st.builds(SeqTuple, st.integers(0, 9), inner)),
    max_leaves=4,
)

cells = (
    st.builds(Commit, st.builds(SeqTuple, st.integers(0, 9), payloads))
    | st.builds(
        Prepare,
        st.builds(SeqTuple, st.integers(0, 9), payloads),
        st.builds(SeqTuple, st.integers(0, 9), payloads),
    )
    | st.builds(Plain, st.builds(SeqTuple, st.integers(0, 9), payloads))
    | st.builds(
        Signed,
        st.builds(SeqTuple, st.integers(0, 9), payloads),
        st.integers(0, 5),
        st.text(max_size=8),
    )
    | st.just(BOTTOM)
    | st.builds(Garbage, st.binary(max_size=8))
)


@given(cells)
def test_cell_roundtrip(cell):
    assert decode_cell(encode_cell(cell)) == cell


@given(cells)
def test_event_roundtrip(cell):
    e = Event(step=3, proc=1, thread=0, kind="reg_write", reg="R", value=cell)
    assert events_from_jsonl(events_to_jsonl([e])) == [e]


@given(st.text(), cells, payloads, st.binary(max_size=8), cells)
def test_trace_lines_are_canonical_json(reg, cell, payload, raw, nested):
    rets = ["done", SeqTuple(2, payload), BOTTOM, raw, nested]
    events = [
        Event(0, 0, 0, "invoke", op="Write", arg=payload),
        Event(1, 0, 0, "reg_write", reg=reg, value=cell),
        Event(2, 1, 0, "reg_read", reg=reg, value=cell),
        *(Event(3 + i, 1, 0, "respond", op="Read", ret=r) for i, r in enumerate(rets)),
        Event(8, 2, -1, "crash"),
    ]
    data = events_to_jsonl(events)
    lines = data.decode("ascii").split("\n")
    assert lines.pop() == "" and len(lines) == len(events)
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    assert events_from_jsonl(data) == events


def test_shared_cells_encode_like_their_copies():
    shared = Commit(SeqTuple(1, b"v1"))
    outer = Commit(SeqTuple(2, Prepare(SeqTuple(1, shared), SeqTuple(2, shared))))

    def events():
        for i in range(100):
            # A fresh cell per event: once encoded and dropped, its id could
            # be reused by the next one.
            yield Event(2 * i, 1, 0, "reg_read", reg="R", value=Plain(SeqTuple(i, b"%d" % i)))
            yield Event(2 * i + 1, 0, 0, "reg_write", reg="R", value=shared)
        yield Event(200, 0, 0, "reg_write", reg="R", value=outer)
        yield Event(201, 1, 0, "respond", op="Read", ret=SeqTuple(1, shared))

    listed = list(events())
    data = events_to_jsonl(events())
    assert data == events_to_jsonl(listed)
    assert data == b"".join(events_to_jsonl([e]) for e in listed)


def test_jsonl_roundtrip_and_ret_kinds():
    events = [
        Event(0, 0, 0, "invoke", op="Write", arg=b"a"),
        Event(1, 0, 0, "reg_write", reg="R", value=Plain(SeqTuple(1, b"a"))),
        Event(2, 0, 0, "respond", op="Write", ret="done"),
        Event(3, 1, 0, "invoke", op="Read"),
        Event(4, 1, 0, "reg_read", reg="R", value=Plain(SeqTuple(1, b"a"))),
        Event(5, 1, 0, "respond", op="Read", ret=SeqTuple(1, b"a")),
        Event(6, 2, -1, "crash"),
        Event(7, 3, 0, "respond", op="Read", ret=BOTTOM),
        Event(8, 3, 0, "respond", op="Read", ret=b"\xff\x00raw"),
    ]
    data = events_to_jsonl(events)
    assert events_from_jsonl(data) == events
    # byte-stable re-encoding
    assert events_to_jsonl(events_from_jsonl(data)) == data


def test_deeply_nested_trace_line_is_a_bad_event():
    # json.loads gives up on the nesting with a RecursionError, which must
    # surface as the codec's own error naming the line.
    nested = b'{"step":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    with pytest.raises(ValueError, match=r"^trace line 2: bad event"):
        events_from_jsonl(events_to_jsonl([Event(0, 1, 0, "invoke", op="Read")]) + nested)


T = SeqTuple(1, b"a")
CELLS = (Commit(T), Prepare(T, T), Plain(T), Signed(T, 0, "t"), BOTTOM, Garbage(b"g"))


@pytest.mark.parametrize("alias, members", [
    (byzregs.CellValue, CELLS),
    (core.Payload, (b"raw", *CELLS)),
    (core.FaultModel, (Correct(), Crash(3), Malicious(()))),
    (sim.Schedule, (sim.Seeded(0), sim.Scripted(()))),
], ids=["CellValue", "Payload", "FaultModel", "Schedule"])
def test_exported_unions_name_their_members(alias, members):
    assert typing.get_args(alias) == tuple(type(m) for m in members)
    assert all(isinstance(m, alias) for m in members)


# Imports byzregs afresh as perfbench/run.py does, the first import and four
# more, each running a one-run sweep; prints whether the first import's layout
# is freed and the byzregs functions alive after the first import and at the end.
_REIMPORTS = """
import gc, importlib, sys, types, weakref

def fresh(out):
    for name in [k for k in sys.modules if k == "byzregs" or k.startswith("byzregs.")]:
        del sys.modules[name]
    cli = importlib.import_module("byzregs.cli")
    assert cli.main(["sweep", "--construction", "algo3", "--n", "3", "--runs", "1",
                     "--out", out]) == 0
    return sys.modules["byzregs.constructions"]

def functions():
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, types.FunctionType)
               and (o.__module__ or "").startswith("byzregs"))

layout = weakref.ref(fresh(sys.argv[1]).layout_of("algo1", 5))
first = functions()
for _ in range(4):
    fresh(sys.argv[1])
last = functions()
print(layout() is None, first, last)
"""


def test_a_dropped_import_is_freed(tmp_path):
    # A fresh process, so this session's own byzregs modules are not touched.
    src = str(Path(byzregs.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _REIMPORTS, str(tmp_path / "s.json")],
                          capture_output=True, text=True, cwd=tmp_path, check=True,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    freed, first, last = done.stdout.split()[-3:]
    assert freed == "True"
    assert int(last) == int(first) > 0


def test_importing_the_cli_builds_no_dataclass(tmp_path):
    # A fresh process: each dataclass decoration execs its generated methods
    # again at every import, and dataclasses brings inspect with it.
    src = str(Path(byzregs.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, byzregs.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, cwd=tmp_path, check=True,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.stdout.splitlines()[-1] == "[]"


# Each frozen record class with its fields, by name and in order.
FROZEN = [
    (SeqTuple, {"k": 1, "u": b"a"}),
    (Commit, {"t": T}),
    (Prepare, {"prev": T, "next": SeqTuple(2, b"b")}),
    (Plain, {"t": T}),
    (Signed, {"t": T, "signer": 0, "token": "0.1.x"}),
    (Bottom, {}),
    (Garbage, {"data": b"g"}),
    (Correct, {}),
    (Crash, {"at_global_step": 3}),
    (Malicious, {"script": (("r", "R"),)}),
    (RegisterSpec, {"reg_id": "R", "writer": 0, "readers": frozenset([1]), "initial": BOTTOM}),
    (sim.Seeded, {"seed": 7}),
    (sim.Scripted, {"picks": ((0, 0), (1, 0))}),
    (adversary.WriterPhase, {"crash_after": 2}),
    (adversary.ScriptPhase, {"proc": 1, "script": (("r", "R"),)}),
    (adversary.FreshRead, {"proc": 2}),
]


@pytest.mark.parametrize("cls, fields", FROZEN, ids=[c.__name__ for c, _ in FROZEN])
def test_frozen_records_are_values(cls, fields):
    x = cls(**fields)
    values = tuple(fields.values())
    assert x == cls(*values) and not x != cls(*values)
    assert hash(x) == hash(values)
    assert repr(x) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in fields.items())})"
    for f in fields or ["anything"]:
        with pytest.raises(AttributeError):
            setattr(x, f, 0)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert x == cls(*values) == copy.deepcopy(x) == pickle.loads(pickle.dumps(x))
    # Equal fields in another class make another value.
    others = [c(*values) for c, f in FROZEN
              if c not in (cls, SeqTuple) and len(f) == len(fields)]
    assert all(x != y and y != x for y in others)
    if fields:
        assert x != cls(**{**fields, list(fields)[-1]: None})


def test_a_cell_is_not_another_cell_with_its_tuple():
    assert Commit(T) != Plain(T)
    assert Commit(T) == Commit(SeqTuple(1, b"a"))
    assert len({Commit(T), Plain(T), Commit(SeqTuple(1, b"a"))}) == 2
    assert repr(Prepare(T, T)) == "Prepare(prev=SeqTuple(k=1, u=b'a'), next=SeqTuple(k=1, u=b'a'))"


def test_mutable_records_compare_by_fields_and_have_no_hash():
    op = sim.OpResult(0, 1, "Read", None, invoke_step=3)
    records = [op, sim.WorkItem(1, "read"), checker.Verdict("pass")]
    for x in records:
        with pytest.raises(TypeError):
            hash(x)
    dup = op.copy()
    assert dup == op and dup is not op
    dup.status, dup.steps = "completed", 2
    assert (op.status, op.steps) == ("pending", 0) and dup != op
    assert repr(op) == ("OpResult(index=0, proc=1, kind='Read', arg=None, invoke_step=3, "
                        "respond_step=None, ret=None, status='pending', reason=None, steps=0)")
    a, b = checker.Verdict("pass"), checker.Verdict("pass")
    assert a == b and a.witnesses is not b.witnesses
    a.witnesses.append(1)
    assert b.witnesses == [] and a != b
    assert sim.WorkItem(1, "read") == sim.WorkItem(proc=1, op="read", value=None)
    assert sim.WorkItem(1, "read") != sim.WorkItem(1, "read", after_op=0)


def test_events_compare_by_fields():
    e = Event(3, 1, 0, "reg_read", reg="R", value=Plain(T))
    assert e == Event(3, 1, 0, "reg_read", "R", Plain(SeqTuple(1, b"a")))
    assert e != Event(3, 1, 0, "reg_read", reg="R", value=Commit(T))
    assert e != Event(4, 1, 0, "reg_read", reg="R", value=Plain(T))
    assert e != (3, 1, 0, "reg_read", "R", Plain(T), None, None, None)
    e.step = 4
    assert e == Event(4, 1, 0, "reg_read", reg="R", value=Plain(T))
