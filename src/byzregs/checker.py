"""Trace validation: Byzantine register linearizability (reading a current
value, no new-old inversion), conditional wait-freedom monitoring and
internal trace invariants. The tests check these passes against an
independent brute-force linearization oracle (tests/linearize_oracle.py).

A run's history is the engine's op records (``Trace.ops``), each with its
invoke and respond step and its return. The trace's invoke/respond events
are output only; nothing here reads them.

All checks constrain only processes that are not malicious; when the writer
itself is malicious the two linearizability properties hold vacuously.

What a layout fixes (``LayoutFacts``) is derived once per layout. Per run the
invariants pass makes only the set of malicious processes and an oracle; a
token is hashed once (core.sig_token), but only issuance decides verify.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable, Optional

from .core import (
    Bottom,
    CellValue,
    Commit,
    Correct,
    FaultModel,
    Garbage,
    Plain,
    Prepare,
    Record,
    RegisterSpec,
    SeqTuple,
    SignatureOracle,
    Signed,
    is_honest,
)
from .constructions import U0, WRITER, Layout


class OpRecord(Record):
    __slots__ = ("proc", "kind", "index", "value", "bottom", "invoke_step", "respond_step",
                 "honest")

    def __init__(self, proc: int, kind: str, index: Optional[int], value: object = None,
                 bottom: bool = False, invoke_step: int = 0,
                 respond_step: Optional[int] = None, honest: bool = True):
        self.proc = proc
        self.kind = kind  # "Write" | "Read"
        self.index = index  # k of the write, or of the value a read returned
        self.value = value
        self.bottom = bottom
        self.invoke_step = invoke_step
        self.respond_step = respond_step
        self.honest = honest

    def completed(self) -> bool:
        return self.respond_step is not None


class Verdict(Record):
    __slots__ = ("status", "vclass", "witnesses", "explanation")

    def __init__(self, status: str, vclass: Optional[str] = None,
                 witnesses: Optional[list[int]] = None, explanation: str = ""):
        self.status = status  # "pass" | "violation"
        self.vclass = vclass  # Property1 | Property2 | BottomReturn |
        #                       WaitFreedom | InternalInvariant | Vacuous
        self.witnesses = [] if witnesses is None else witnesses  # each its own list
        self.explanation = explanation

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


def extract_history(ops: Iterable, faults: dict[int, FaultModel]) -> list[OpRecord]:
    """Build the operation history from a run's op records (``sim.OpResult``):
    every invoked op, in invoke order; write k is the k-th write invoked.

    A read's index is the sequence number of the tuple it returned. A read
    that returned Bottom is marked bottom; any other return keeps no index,
    which check_property1 reports as a value the writer never wrote. So does
    a tuple (k, u) whose u is not the value of v_k (U0 for k = 0) when the
    write of v_k was invoked before the read responded.
    """
    invoked = sorted((op for op in ops if op.invoke_step is not None),
                     key=lambda op: op.invoke_step)
    writes = [op for op in invoked if op.kind == "Write"]
    written = [U0] + [w.arg for w in writes]  # the value of v_k
    invoked_at = [-1] + [w.invoke_step for w in writes]  # and its invoke step
    history = []
    for op in invoked:
        rec = OpRecord(op.proc, op.kind, None, op.arg,
                       invoke_step=op.invoke_step, respond_step=op.respond_step,
                       honest=is_honest(faults.get(op.proc, Correct())))
        ret = op.ret
        if op.kind == "Write":
            rec.index = bisect_left(invoked_at, op.invoke_step)
        elif isinstance(ret, SeqTuple):
            rec.value = ret.u
            k = ret.k
            if not 0 <= k < len(written) or written[k] == ret.u or \
                    invoked_at[k] > op.respond_step:
                rec.index = k
        elif isinstance(ret, Bottom):
            rec.bottom = True
        history.append(rec)
    return history


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
    # The latest write preceding a read is a running maximum of the indices
    # of the completed writes in response order, found by bisection.
    done = sorted((w for w in writes.values() if w.respond_step is not None),
                  key=lambda w: w.respond_step)
    responds = [w.respond_step for w in done]
    latest_of = list(accumulate((w.index for w in done), max))
    for r in _completed_honest_reads(history):
        k = r.index
        if k is None:
            return _violated(
                "Property1",
                [r.invoke_step, r.respond_step],
                f"read by {r.proc} returned a value the writer never wrote",
            )
        i = bisect_left(responds, r.invoke_step)
        latest = latest_of[i - 1] if i else 0
        if k != latest and not (k in writes and _overlaps(writes[k], r)):
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
    invokes = [r.invoke_step for r in reads]
    # low[j] is the least index returned by reads[j:].
    low = list(accumulate((r.index for r in reversed(reads)), min))[::-1]
    for i, r1 in enumerate(reads):
        # Reads from j0 on are exactly the later reads that r1 precedes.
        j0 = max(i + 1, bisect_right(invokes, r1.respond_step))
        if j0 < len(reads) and low[j0] < r1.index:
            r2 = next(r for r in reads[j0:] if r.index < r1.index)
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


class LayoutFacts:
    """What the invariants pass reads of a layout's specs and classes: its
    initial cells' signatures, whether reads leave writer-channel evidence, and
    per register its class, whether it is the writer's own channel and, for a
    relay (gossip or unguarded announce), its instance's (Rwp sibling's) writer."""

    def __init__(self, specs: dict[str, RegisterSpec], classify: dict[str, str]):
        self.issued0 = {(s.initial.signer, s.initial.t): s.initial.token
                        for s in specs.values() if isinstance(s.initial, Signed)}
        self.evidence = not {"wchan", "sig"}.isdisjoint(classify.values())
        self.regs = {}
        for rid, cls in classify.items():
            inst = specs.get(rid.rsplit("/", 1)[0] + "/Rwp")
            relay = cls in ("gossip", "pchan_unguarded") and inst is not None
            self.regs[rid] = (cls, cls == "wchan" and specs[rid].writer == WRITER,
                              inst.writer if relay else None)


_FACTS: dict[Layout, LayoutFacts] = {}  # one layout per (factory, n)


def validate_internal_invariants(trace, facts: LayoutFacts,
                                 faults: dict[int, FaultModel]) -> Verdict:
    """Check trace-level facts the correctness proofs rest on, restricted to
    honest processes: writer cell forms and their monotonicity, monotone
    announce/gossip tuples, signed-tuple validity, and that every honest read
    return is backed by a matching read of the writer's channel."""
    regs = facts.regs
    dishonest = {p for p, f in faults.items() if not is_honest(f)}
    last_wchan: dict[str, tuple[str, int]] = {}
    last_mono: dict[str, int] = {}
    # The construction's initial cells are genuine; any other signature is
    # the one its signer computes when it first writes the tuple.
    oracle = SignatureOracle(facts.issued0)

    for e in trace.events:
        if e.kind != "reg_write":
            continue
        cell = e.value
        if isinstance(cell, Signed) and e.proc == cell.signer and \
                (cell.signer, cell.t) not in oracle.issued:
            oracle.sign(cell.t, cell.signer)
        if e.proc in dishonest:
            continue
        cls, strict, relay = regs.get(e.reg, (None, None, None))
        if cls == "wchan":
            # Strict prepare adjacency (next = prev + 1) is a fact about the
            # writer's own channel: its Write is never forked, so a write is
            # either completed or cut off by a permanent crash. Channels of
            # announce instances are written by readers whose enclosing
            # polling thread may be cancelled mid-write, which abandons a
            # counter value; only monotonicity holds there.
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
            if relay in dishonest:
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
    # writer channel (possibly nested) carrying the tuple index it returned,
    # among its own register reads. Implementations without a writer channel
    # or signed tuples leave no such evidence.
    if not facts.evidence:
        return _passed()
    events = trace.events
    reads = sorted((op for op in trace.ops
                    if op.kind == "Read" and op.respond_step is not None
                    and isinstance(op.ret, SeqTuple) and op.proc not in dishonest),
                   key=lambda op: op.respond_step)
    for op in reads:
        k = op.ret.k
        evidence = False
        for i in range(op.invoke_step, op.respond_step):
            ev = events[i]
            if ev.kind != "reg_read" or ev.proc != op.proc:
                continue
            for c in _unwrap_cells(ev.value):
                if isinstance(c, Commit) and c.t.k == k:
                    evidence = True
                elif isinstance(c, Prepare) and k in (c.prev.k, c.next.k):
                    evidence = True
                elif isinstance(c, Signed) and c.t.k == k and \
                        regs.get(ev.reg, (None,))[0] == "sig":
                    evidence = True
            if evidence:
                break
        if not evidence:
            return _violated(
                "InternalInvariant",
                [op.respond_step],
                f"read by {op.proc} returned v_{k} without observing a "
                "matching writer-channel cell",
            )
    return _passed()


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def run_all_checks(trace, faults: dict[int, FaultModel],
                   layout: Layout) -> dict[str, Verdict]:
    writer_honest = is_honest(faults.get(WRITER, Correct()))
    history = extract_history(trace.ops, faults)
    facts = _FACTS.get(layout) or _FACTS.setdefault(
        layout, LayoutFacts(layout.by_id, layout.classify))
    verdicts = {
        "property1": check_property1(history, writer_honest),
        "property2": check_property2(history, writer_honest),
        "bottom_returns": check_bottom_returns(history, writer_honest),
        "wait_freedom": check_wait_freedom(trace, faults),
        "internal_invariants": validate_internal_invariants(trace, facts, faults),
    }
    if not history:  # every check above passes on a run that invokes nothing
        verdicts["vacuous"] = _violated("Vacuous", [], "no workload item was invoked")
    return verdicts
