"""Trace validation: Byzantine register linearizability (reading a current
value, no new-old inversion), conditional wait-freedom monitoring, internal
trace invariants, and an independent brute-force linearization oracle.

All checks constrain only processes that are not malicious; when the writer
itself is malicious the two linearizability properties hold vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import (
    Bottom,
    CellValue,
    Commit,
    Correct,
    Event,
    FaultModel,
    Garbage,
    Plain,
    Prepare,
    RegisterSpec,
    SeqTuple,
    SignatureOracle,
    Signed,
    is_honest,
)
from .constructions import WRITER


class MalformedHistory(Exception):
    pass


class UnfairScheduleError(Exception):
    """A scripted schedule starved a runnable thread; the wait-freedom
    monitor refuses to conclude anything from such a trace."""


@dataclass
class OpRecord:
    proc: int
    kind: str  # "Write" | "Read"
    index: Optional[int]  # k of the write, or of the value a read returned
    value: object = None
    bottom: bool = False
    invoke_step: int = 0
    respond_step: Optional[int] = None
    honest: bool = True

    def completed(self) -> bool:
        return self.respond_step is not None


@dataclass
class Verdict:
    status: str  # "pass" | "violation"
    vclass: Optional[str] = None  # Property1 | Property2 | BottomReturn |
    #                               WaitFreedom | InternalInvariant
    witnesses: list[int] = field(default_factory=list)
    explanation: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "class": self.vclass,
            "witnesses": self.witnesses,
            "explanation": self.explanation,
        }


def _passed(explanation: str = "") -> Verdict:
    return Verdict("pass", explanation=explanation)


def _violated(vclass: str, witnesses: list[int], explanation: str) -> Verdict:
    return Verdict("violation", vclass, sorted(set(witnesses)), explanation)


# ---------------------------------------------------------------------------
# History extraction
# ---------------------------------------------------------------------------


def extract_history(
    events: Iterable[Event],
    faults: dict[int, FaultModel],
) -> list[OpRecord]:
    """Build the operation history from a trace's invoke/respond events.

    A read's index is the sequence number of the tuple it returned. A read
    that returned Bottom is marked bottom; any other return keeps no index,
    which check_property1 reports as a value the writer never wrote.
    """
    ops: list[OpRecord] = []
    open_ops: dict[int, OpRecord] = {}
    write_count = 0
    for e in events:
        if e.kind == "invoke":
            if e.proc in open_ops:
                raise MalformedHistory(f"overlapping ops by process {e.proc}")
            rec = OpRecord(
                proc=e.proc,
                kind=e.op,
                index=None,
                value=e.arg,
                invoke_step=e.step,
                honest=is_honest(faults.get(e.proc, Correct())),
            )
            if e.op == "Write":
                write_count += 1
                rec.index = write_count
            open_ops[e.proc] = rec
            ops.append(rec)
        elif e.kind == "respond":
            rec = open_ops.pop(e.proc, None)
            if rec is None:
                raise MalformedHistory(f"respond without invoke at step {e.step}")
            rec.respond_step = e.step
            if rec.kind == "Read":
                ret = e.ret
                if isinstance(ret, SeqTuple):
                    rec.index = ret.k
                    rec.value = ret.u
                elif isinstance(ret, Bottom):
                    rec.bottom = True
    return ops


def _overlaps(w: OpRecord, r: OpRecord) -> bool:
    if w.respond_step is not None and w.respond_step < r.invoke_step:
        return False
    if r.respond_step is not None and r.respond_step < w.invoke_step:
        return False
    return True


def _completed_honest_reads(history: list[OpRecord]) -> list[OpRecord]:
    return [
        op
        for op in history
        if op.kind == "Read" and op.honest and op.completed() and not op.bottom
    ]


# ---------------------------------------------------------------------------
# Definition-3 properties
# ---------------------------------------------------------------------------


def check_property1(history: list[OpRecord], writer_honest: bool) -> Verdict:
    """Reading a current value: a completed honest read returning v_k needs
    k to be the latest preceding write, or a concurrent one (0 if none)."""
    if not writer_honest:
        return _passed("writer malicious; vacuous")
    writes = {op.index: op for op in history if op.kind == "Write"}
    for r in _completed_honest_reads(history):
        k = r.index
        if k is None:
            return _violated(
                "Property1",
                [r.invoke_step, r.respond_step],
                f"read by {r.proc} returned a value the writer never wrote",
            )
        preceding = [
            w.index
            for w in writes.values()
            if w.respond_step is not None and w.respond_step < r.invoke_step
        ]
        latest = max(preceding, default=0)
        concurrent = {w.index for w in writes.values() if _overlaps(w, r)}
        if k != latest and k not in concurrent:
            # Witnesses must violate on their own: the read, the write whose
            # value it returned (if any), and the latest preceding write that
            # makes the returned value stale.
            wit = [r.invoke_step, r.respond_step]
            if k in writes:
                wit.append(writes[k].invoke_step)
            if latest in writes:
                wit.extend([writes[latest].invoke_step, writes[latest].respond_step])
            return _violated(
                "Property1",
                wit,
                f"read by {r.proc} returned v_{k}; latest preceding write is "
                f"v_{latest} and v_{k} is not concurrent",
            )
    return _passed()


def check_property2(history: list[OpRecord], writer_honest: bool) -> Verdict:
    """No new-old inversion among honest reads related by precedence."""
    if not writer_honest:
        return _passed("writer malicious; vacuous")
    reads = _completed_honest_reads(history)
    reads = [r for r in reads if r.index is not None]
    reads.sort(key=lambda r: r.invoke_step)
    for i, r1 in enumerate(reads):
        for r2 in reads[i + 1 :]:
            if r1.respond_step < r2.invoke_step and r1.index > r2.index:
                return _violated(
                    "Property2",
                    [r1.invoke_step, r1.respond_step, r2.invoke_step, r2.respond_step],
                    f"read by {r1.proc} returned v_{r1.index}, then read by "
                    f"{r2.proc} returned v_{r2.index}",
                )
    return _passed()


def check_bottom_returns(history: list[OpRecord], writer_honest: bool) -> Verdict:
    """An honest reader may fail a read only when the writer is malicious."""
    if not writer_honest:
        return _passed("writer malicious; bottom returns licensed")
    for op in history:
        if op.kind == "Read" and op.honest and op.completed() and op.bottom:
            return _violated(
                "BottomReturn",
                [op.invoke_step, op.respond_step],
                f"honest reader {op.proc} returned bottom under an honest writer",
            )
    return _passed()


# ---------------------------------------------------------------------------
# Wait-freedom
# ---------------------------------------------------------------------------


def check_wait_freedom(trace, faults: dict[int, FaultModel]) -> Verdict:
    """Wait-free if the writer is correct or no reader is malicious: under
    that condition no operation by a Correct process may stay pending."""
    if trace.meta.get("schedule") == "scripted":
        starved = [op for op in trace.ops if op.status == "pending"]
        if starved:
            raise UnfairScheduleError(
                "scripted schedule left operations pending; fairness unknown"
            )
    writer_correct = isinstance(faults.get(WRITER, Correct()), Correct)
    no_reader_malicious = all(
        is_honest(f) for p, f in faults.items() if p != WRITER
    )
    condition = writer_correct or no_reader_malicious
    pending_correct = [
        op
        for op in trace.ops
        if op.status == "pending"
        and isinstance(faults.get(op.proc, Correct()), Correct)
    ]
    if condition:
        if pending_correct:
            op = pending_correct[0]
            return _violated(
                "WaitFreedom",
                [s for s in [op.invoke_step] if s is not None],
                f"{op.kind} by correct process {op.proc} pending "
                f"({op.reason}) although the writer is correct or no reader "
                "is malicious",
            )
        return _passed()
    if pending_correct:
        procs = sorted({op.proc for op in pending_correct})
        return _passed(
            "pending outside guarantee: operations by "
            f"{procs} blocked (writer faulty and some reader malicious)"
        )
    return _passed()


# ---------------------------------------------------------------------------
# Internal (appendix-level) invariants
# ---------------------------------------------------------------------------


def _unwrap_cells(cell: CellValue):
    """Yield a cell and, recursively, every cell nested in tuple payloads."""
    stack = [cell]
    while stack:
        c = stack.pop()
        yield c
        tuples = []
        if isinstance(c, (Commit, Plain, Signed)):
            tuples = [c.t]
        elif isinstance(c, Prepare):
            tuples = [c.prev, c.next]
        for t in tuples:
            if isinstance(t.u, (Commit, Prepare, Plain, Signed, Garbage, Bottom)):
                stack.append(t.u)


def _wchan_rank(cell: CellValue) -> Optional[tuple[str, int]]:
    if isinstance(cell, Commit):
        return ("commit", cell.t.k)
    if isinstance(cell, Prepare):
        return ("prepare", cell.next.k)
    return None


def _instance_writer(reg_id: str, specs: dict[str, RegisterSpec]) -> Optional[int]:
    """The writer of the instance a register belongs to (its Rwp sibling)."""
    prefix = reg_id.rsplit("/", 1)[0]
    spec = specs.get(f"{prefix}/Rwp")
    return spec.writer if spec is not None else None


def validate_internal_invariants(
    events: list[Event],
    specs: dict[str, RegisterSpec],
    classify: dict[str, str],
    faults: dict[int, FaultModel],
) -> Verdict:
    """Check trace-level facts the correctness proofs rest on, restricted to
    honest processes: writer cell forms and their monotonicity, monotone
    announce/gossip tuples, signed-tuple validity, and that every honest read
    return is backed by a matching read of the writer's channel."""
    honest = {p for p, f in faults.items() if is_honest(f)}

    def is_honest_proc(p: int) -> bool:
        return p in honest or p not in faults

    last_wchan: dict[str, tuple[str, int]] = {}
    last_mono: dict[str, int] = {}
    # The construction's initial cells are genuine; any other signature is
    # the one its signer computes when it first writes the tuple.
    oracle = SignatureOracle({(s.initial.signer, s.initial.t): s.initial.token
                              for s in specs.values() if isinstance(s.initial, Signed)})

    for e in events:
        if e.kind != "reg_write":
            continue
        cls = classify.get(e.reg)
        cell = e.value
        if isinstance(cell, Signed) and e.proc == cell.signer and \
                (cell.signer, cell.t) not in oracle.issued:
            oracle.sign(cell.t, cell.signer)
        if not is_honest_proc(e.proc):
            continue
        if cls == "wchan":
            # Strict prepare adjacency (next = prev + 1) is a fact about the
            # writer's own channel: its Write is never forked, so a write is
            # either completed or cut off by a permanent crash. Channels of
            # announce instances are written by readers whose enclosing
            # polling thread may be cancelled mid-write, which abandons a
            # counter value; only monotonicity holds there.
            strict = specs[e.reg].writer == WRITER
            ok_form = isinstance(cell, Commit) and cell.t.k >= 1 or (
                isinstance(cell, Prepare)
                and (
                    cell.next.k == cell.prev.k + 1
                    if strict
                    else cell.next.k > cell.prev.k
                )
            )
            if not ok_form:
                return _violated(
                    "InternalInvariant",
                    [e.step],
                    f"honest writer wrote a malformed cell into {e.reg}",
                )
            rank = _wchan_rank(cell)
            prev = last_wchan.get(e.reg)
            if prev is not None:
                (pk, pkk), (tag, k) = prev, rank
                # k strictly increases, except that a commit may repeat the
                # k of the prepare just before it.
                if pkk > k or pkk == k and (pk, tag) != ("prepare", "commit"):
                    return _violated(
                        "InternalInvariant",
                        [e.step],
                        f"writer channel {e.reg}: {tag} v_{k} after {pk} v_{pkk}",
                    )
            last_wchan[e.reg] = rank
        elif cls in ("pchan", "gossip", "pchan_unguarded"):
            if not isinstance(cell, Plain):
                return _violated(
                    "InternalInvariant",
                    [e.step],
                    f"honest process {e.proc} wrote a non-tuple into {e.reg}",
                )
            # A guarded announce channel (previous_k) is monotone no matter
            # how the instance's writer behaves. Gossip and the unguarded
            # two-reader announce channel carry sequence numbers taken from
            # the instance writer's cells, so a malicious instance writer can
            # legitimately make an honest process relay decreasing numbers.
            if cls != "pchan":
                inst_writer = _instance_writer(e.reg, specs)
                if inst_writer is not None and not is_honest_proc(inst_writer):
                    continue
            prev_k = last_mono.get(e.reg)
            if prev_k is not None and cell.t.k < prev_k:
                return _violated(
                    "InternalInvariant",
                    [e.step],
                    f"{e.reg}: tuple counter decreased from {prev_k} to {cell.t.k}",
                )
            last_mono[e.reg] = cell.t.k
        elif cls == "sig":
            if not oracle.verify(cell, WRITER):
                return _violated(
                    "InternalInvariant",
                    [e.step],
                    f"honest process {e.proc} wrote an invalidly signed tuple "
                    f"into {e.reg}",
                )

    # Read-return forms: each honest completed read must have observed the
    # writer channel (possibly nested) carrying the tuple index it returned.
    # Implementations without a writer channel or signed tuples leave no
    # such evidence.
    if not {"wchan", "sig"} & set(classify.values()):
        return _passed()
    open_reads: dict[int, tuple[int, list[Event]]] = {}
    for e in events:
        if e.kind == "invoke" and e.op == "Read" and is_honest_proc(e.proc):
            open_reads[e.proc] = (e.step, [])
        elif e.kind == "reg_read" and e.proc in open_reads:
            open_reads[e.proc][1].append(e)
        elif e.kind == "respond" and e.op == "Read" and e.proc in open_reads:
            _, reads = open_reads.pop(e.proc)
            ret = e.ret
            if not isinstance(ret, SeqTuple):
                continue
            k = ret.k
            evidence = False
            for ev in reads:
                for c in _unwrap_cells(ev.value):
                    if isinstance(c, Commit) and c.t.k == k:
                        evidence = True
                    elif isinstance(c, Prepare) and k in (c.prev.k, c.next.k):
                        evidence = True
                    elif isinstance(c, Signed) and c.t.k == k and \
                            classify.get(ev.reg) == "sig":
                        evidence = True
                if evidence:
                    break
            if not evidence:
                return _violated(
                    "InternalInvariant",
                    [e.step],
                    f"read by {e.proc} returned v_{k} without observing a "
                    "matching writer-channel cell",
                )
    return _passed()


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def run_all_checks(
    trace,
    faults: dict[int, FaultModel],
    specs: dict[str, RegisterSpec],
    classify: dict[str, str],
) -> dict[str, Verdict]:
    writer_honest = is_honest(faults.get(WRITER, Correct()))
    history = extract_history(trace.events, faults)
    return {
        "property1": check_property1(history, writer_honest),
        "property2": check_property2(history, writer_honest),
        "bottom_returns": check_bottom_returns(history, writer_honest),
        "wait_freedom": check_wait_freedom(trace, faults),
        "internal_invariants": validate_internal_invariants(
            trace.events, specs, classify, faults
        ),
    }
