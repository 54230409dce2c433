"""Brute-force linearization oracle: a second judge of the checker's
linearizability verdicts, for small histories only. Also the reference
forms the checker must agree with: the all-pairs property passes, and a
history parsed from a trace's invoke/respond events."""

from byzregs.checker import (
    OpRecord,
    Verdict,
    _completed_honest_reads,
    _overlaps,
    _passed,
    _violated,
)
from byzregs.constructions import U0
from byzregs.core import Bottom, Correct, SeqTuple, is_honest


class TooLarge(Exception):
    pass


def oracle_linearize(history: list[OpRecord], cap: int = 8) -> bool:
    """Ground truth by exhaustive search: is there a total order of the
    honest operations extending precedence in which every read returns the
    latest preceding write's value (v_0 if none)?

    Pending writes may be placed anywhere after their invocation or dropped.
    With a malicious writer the Byzantine definition is vacuous: True.
    """
    writer_ops = [op for op in history if op.kind == "Write"]
    if any(not op.honest for op in writer_ops):
        return True
    ops = [
        op
        for op in history
        if op.honest and (op.kind == "Write" or op.completed())
    ]
    reads = [op for op in ops if op.kind == "Read"]
    if any(r.bottom for r in reads):
        return False
    if any(r.index is None for r in reads):
        return False
    if len(ops) > cap:
        raise TooLarge(f"{len(ops)} operations exceeds the cap of {cap}")

    mandatory = frozenset(i for i, op in enumerate(ops) if op.completed())
    preds: list[frozenset[int]] = []
    for i, a in enumerate(ops):
        preds.append(
            frozenset(
                j
                for j, b in enumerate(ops)
                if j != i
                and b.respond_step is not None
                and b.respond_step < a.invoke_step
                and j in mandatory
            )
        )

    seen: set[tuple[frozenset[int], int]] = set()

    def search(placed: frozenset[int], last: int) -> bool:
        if mandatory <= placed:
            return True
        key = (placed, last)
        if key in seen:
            return False
        seen.add(key)
        for i, op in enumerate(ops):
            if i in placed or not preds[i] <= placed:
                continue
            if op.kind == "Write":
                if search(placed | {i}, op.index):
                    return True
            else:
                if op.index == last and search(placed | {i}, last):
                    return True
        return False

    return search(frozenset(), 0)


# The all-pairs forms of checker.check_property1 and check_property2: the
# reference the checker's bisection passes must agree with, verdict for
# verdict. Property 1 costs O(reads × writes), Property 2 O(reads²).


def check_property1_pairs(history: list[OpRecord], writer_honest: bool) -> Verdict:
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


def check_property2_pairs(history: list[OpRecord], writer_honest: bool) -> Verdict:
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


def history_from_events(events, faults) -> list[OpRecord]:
    """The history as the trace's invoke/respond events tell it; the
    reference for checker.extract_history, which reads the run's op records.
    A respond with no open op, or two open ops of one process, fails."""
    ops: list[OpRecord] = []
    open_ops: dict[int, OpRecord] = {}
    written = [U0]  # the value of v_k, for each write invoked so far
    for e in events:
        if e.kind == "invoke":
            assert e.proc not in open_ops, f"overlapping ops by process {e.proc}"
            rec = OpRecord(e.proc, e.op, None, value=e.arg, invoke_step=e.step,
                           honest=is_honest(faults.get(e.proc, Correct())))
            if e.op == "Write":
                rec.index = len(written)
                written.append(e.arg)
            open_ops[e.proc] = rec
            ops.append(rec)
        elif e.kind == "respond":
            rec = open_ops.pop(e.proc, None)
            assert rec is not None, f"respond without invoke at step {e.step}"
            rec.respond_step = e.step
            if rec.kind == "Read":
                ret = e.ret
                if isinstance(ret, SeqTuple):
                    rec.value = ret.u
                    if not 0 <= ret.k < len(written) or written[ret.k] == ret.u:
                        rec.index = ret.k
                elif isinstance(ret, Bottom):
                    rec.bottom = True
    return ops
