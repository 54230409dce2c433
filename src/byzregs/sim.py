"""Deterministic scheduler for register step machines.

A step machine is a Python generator that yields one action per resumption:

    ("r", reg_id)            -> resumed with the CellValue read
    ("w", reg_id, cell)      -> resumed with None once the write is applied
    ("fork", gen_a, gen_b)   -> cobegin/coend: both branches become
                                schedulable; the first branch to return a
                                non-None value resolves the forking frame and
                                the losing branch is cancelled at its next
                                resumption point.

One resumption performs at most one register access; local computation and
control flow are free. An Engine is one run of a layout: it makes the run's
register cells, its state and its op machines, and it is the one place that
checks an access against its register's spec: one writer and its readers, as
in the paper's 1W1R and 1W(n-1)R registers. All interleaving
decisions flow through the scheduler, so a scenario (construction, faults,
workload, schedule, budgets) replays to a byte-identical trace.
Engine.run_queue is the one step loop, for seeded scenarios (the queue's
head, after workload admission), scripted ones (a prefix of picks, then the
queue's head) and the attack harness's phases. A crash point (step, proc)
crashes proc once the trace holds step events; scenario crash faults and the
attack harness's writer crash are both crash points. Every op runs under a
per-op budget: an op of m register steps fits a budget of m, and a thread of
the op that asks for a register access past it is stopped there, before the
access is checked or applied. A step costs O(1) engine work beyond a fork's
seeded insertions, a budget stop's walk over the stopped op's threads, a
crash marker's look back for its process's last event and the lasso watch of
a read past its watch_at steps (byzregs.lasso).

A malicious process's script is the tuple of register accesses it issues,
("w", reg_id, cell) or ("r", reg_id); the engine resumes it like a step
machine whose reads go unused.
"""

from __future__ import annotations

import copy
import heapq
import json
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Generator, Iterable, Optional, Union

from . import constructions, lasso
from .constructions import WRITER, reader_ids
from .core import (
    AccessViolation,
    Correct,
    Crash,
    CrashedActor,
    Event,
    FaultModel,
    Malicious,
    MalformedScenario,
    Payload,
    decode_cell,
    decode_payload,
    encode_cell,
    encode_payload,
    is_honest,
)

DEFAULT_STEP_BUDGET = 1_000_000
# Register steps a read takes before run_queue watches it for a lasso, unless
# its caller says. Only reads, which other processes can hold back, are watched.
LASSO_THRESHOLD = 1_000
DEFAULT_PER_OP_BUDGET = 100_000


@dataclass(frozen=True)
class Seeded:
    seed: int


@dataclass(frozen=True)
class Scripted:
    """A prefix of the run: each pick (proc, tid) names the thread that takes
    a step. Once the picks run out the run goes on as a seed-less one does."""

    picks: tuple[tuple[int, int], ...]


Schedule = Union[Seeded, Scripted]


@dataclass
class WorkItem:
    proc: int
    op: str  # "write" | "read"
    value: Optional[Payload] = None
    after_op: Optional[int] = None
    after_step: Optional[int] = None


@dataclass
class Scenario:
    construction: str
    n: int
    faults: dict[int, FaultModel]
    workload: list[WorkItem]
    schedule: Schedule
    step_budget: int = DEFAULT_STEP_BUDGET
    # Admits every op of at most this many register steps; an op that asks
    # for one more is stopped there and stays pending.
    per_op_budget: int = DEFAULT_PER_OP_BUDGET


@dataclass
class OpResult:
    index: int
    proc: int
    kind: str
    arg: Optional[Payload]
    invoke_step: Optional[int] = None
    respond_step: Optional[int] = None
    ret: object = None
    status: str = "pending"  # completed | pending | crashed-owner
    reason: Optional[str] = None
    steps: int = 0

    def copy(self) -> OpResult:
        return OpResult(*vars(self).values())  # the fields, in order


@dataclass
class Trace:
    events: list[Event]
    ops: list[OpResult]


class _Thread:
    __slots__ = (
        "owner",
        "tid",
        "gen",
        "pending",
        "op",
        "frame",
        "child",
        "parked",
        "cancelled",
        "done",
    )

    def __init__(self, owner: int, tid: int, gen: Generator, op: Optional[OpResult]):
        self.owner = owner
        self.tid = tid
        self.gen = gen
        self.pending = None
        self.op = op
        self.frame: Optional[_JoinFrame] = None
        # Its last fork's frame: it forks only unparked, so older ones are resolved.
        self.child: Optional[_JoinFrame] = None
        self.parked = False
        self.cancelled = False
        self.done = False


class _JoinFrame:
    __slots__ = ("parent", "branches", "resolved", "dead")

    def __init__(self, parent: _Thread):
        self.parent = parent
        self.branches: list[_Thread] = []
        self.resolved = False
        self.dead = 0


def _script_machine(script: tuple) -> Generator:
    for access in script:
        yield access


class Engine:
    """One run of a layout: its register cells, its state (the machines'
    local variables), its threads, events and ops. Scenario runs and the
    attack harness's phases both drive one. The layout and specs, its
    specs by id, are shared; everything else is the run's. A forked branch
    takes a random queue place only when the engine has a seed."""

    def __init__(self, layout: constructions.Layout, seed: Optional[int] = None,
                 crash_points: Iterable[tuple[int, int]] = ()):
        self.layout = layout
        self.specs = layout.by_id
        self.cells = dict(layout.initial)
        self.state = layout.new_state()
        self.seed = seed
        self.rng = None  # seeded at its first draw: most runs never draw
        self.events: list[Event] = []
        self.ops: list[OpResult] = []
        self.crashed: set[int] = set()
        # (step, proc) in ascending order; each process crashes once the
        # event count reaches its step. Points before _next_crash are due;
        # _sweep_crashes sets _crash_at, the step of the next point.
        self.crash_points = sorted(crash_points)
        self._next_crash = 0
        self._crash_at = float("inf")
        self._due: list[int] = []  # heap of due, not yet crashed processes
        self.queue: deque[_Thread] = deque()
        self.threads: dict[tuple[int, int], _Thread] = {}
        self._tid_counters: dict[int, int] = {}
        # Set whenever an op resolves or a process crashes; scenario
        # admission re-examines its workload only after such a change.
        self.changed = True
        self._sweep_crashes()

    def copy(self, upto: Optional[int] = None, state=None,
             ops: Optional[list] = None, crash_points: Iterable = ()) -> Engine:
        """A run going on from this run's first upto events (all by default)
        with copies of state and ops kept then (its own by default), its
        cells (made by the events' writes if upto is given) and no thread
        (none is live but a crashed process's, or a finished op's). All due
        crash points, this run's and crash_points, crash."""
        events = self.events[:upto]
        cells = dict(self.cells if upto is None else self.layout.initial)
        if upto is not None:
            cells.update((e.reg, e.value) for e in events if e.kind == "reg_write")
        # Assigned in __init__'s order, so the copy's attributes stay inline.
        eng = Engine.__new__(Engine)
        eng.layout, eng.specs, eng.cells = self.layout, self.specs, cells
        eng.state = (self.state if state is None else state).copy()
        eng.seed, eng.rng, eng.events = self.seed, copy.copy(self.rng), events
        eng.ops = [op.copy() for op in (self.ops if ops is None else ops)]
        eng.crashed = set(self.crashed)
        eng.crash_points = sorted([*self.crash_points, *crash_points])
        eng._next_crash, eng._crash_at, eng._due = 0, float("inf"), []
        eng.queue, eng.threads = deque(), {}
        eng._tid_counters, eng.changed = dict(self._tid_counters), self.changed
        eng._sweep_crashes()
        return eng

    # -- events ------------------------------------------------------------

    def _emit(self, proc: int, thread: int, kind: str, reg=None, value=None,
              op=None, arg=None, ret=None) -> None:
        events = self.events
        events.append(Event(len(events), proc, thread, kind, reg, value, op, arg, ret))
        if len(events) >= self._crash_at:
            self._sweep_crashes()

    def _sweep_crashes(self) -> None:
        """Crash every process whose crash point is due, lowest id first. A
        crash event can make more points due; they join the same order."""
        points, due = self.crash_points, self._due
        self._crash_at = float("inf")  # the crash events below do not re-enter
        while True:
            while self._next_crash < len(points) and \
                    points[self._next_crash][0] <= len(self.events):
                heapq.heappush(due, points[self._next_crash][1])
                self._next_crash += 1
            if not due:
                break
            self._mark_crashed(heapq.heappop(due))
        if self._next_crash < len(points):
            self._crash_at = points[self._next_crash][0]

    def _mark_crashed(self, proc: int) -> None:
        if proc in self.crashed:
            return
        self.crashed.add(proc)
        self.changed = True
        for op in self.ops:
            if op.proc == proc and op.status == "pending":
                op.status = "crashed-owner"
        # A crash marker is only informative once the process has acted. It
        # has no crash event yet, and an active process acted recently.
        if any(e.proc == proc for e in reversed(self.events)):
            self._emit(proc, -1, "crash")

    # -- threads -----------------------------------------------------------

    def _new_tid(self, proc: int) -> int:
        tid = self._tid_counters.get(proc, 0)
        self._tid_counters[proc] = tid + 1
        return tid

    def spawn_op(
        self,
        proc: int,
        kind: str,
        arg: Optional[Payload],
        gen: Generator,
        index: Optional[int] = None,
    ) -> OpResult:
        op = OpResult(index=index if index is not None else len(self.ops),
                      proc=proc, kind=kind, arg=arg)
        t = _Thread(proc, self._new_tid(proc), gen, op)
        self.threads[(proc, t.tid)] = t
        op.invoke_step = len(self.events)
        # Listed before its invoke, so a crash point the invoke reaches
        # marks the op crashed-owner.
        self.ops.append(op)
        self._emit(proc, t.tid, "invoke", None, None, kind, arg)
        self.queue.append(t)
        return op

    def spawn_write(self, value: Payload, index: Optional[int] = None) -> OpResult:
        return self.spawn_op(WRITER, "Write", value,
                             self.layout.write_machine(self.state, value), index)

    def spawn_read(self, proc: int, index: Optional[int] = None) -> OpResult:
        return self.spawn_op(proc, "Read", None,
                             self.layout.read_machine(self.state, proc), index)

    def spawn_script(self, proc: int, script: tuple) -> _Thread:
        t = _Thread(proc, self._new_tid(proc), _script_machine(script), None)
        self.threads[(proc, t.tid)] = t
        self.queue.append(t)
        return t

    def _cancel_subtree(self, t: _Thread) -> None:
        t.cancelled = True
        fr = t.child
        if fr is not None and not fr.resolved:
            fr.resolved = True
            for b in fr.branches:
                self._cancel_subtree(b)

    def _on_return(self, t: _Thread, value) -> None:
        t.done = True
        if t.frame is None:
            op = t.op
            if op is not None and op.status == "pending":
                op.status = "completed"
                op.ret = value
                op.respond_step = len(self.events)
                self.changed = True
                self._emit(t.owner, t.tid, "respond", None, None, op.kind, None, value)
            return
        fr = t.frame
        if fr.resolved:
            return
        if value is not None:
            for sib in fr.branches:
                if sib is not t:
                    self._cancel_subtree(sib)
        else:
            fr.dead += 1
            if fr.dead < len(fr.branches):
                return
        fr.resolved = True
        parent = fr.parent
        parent.parked = False
        parent.pending = value
        self.queue.append(parent)

    def _resume(self, t: _Thread, per_op_budget: int) -> None:
        owner = t.owner
        if owner in self.crashed:
            raise CrashedActor(f"process {owner} already crashed")
        val, t.pending = t.pending, None
        try:
            action = t.gen.send(val)
        except StopIteration as stop:
            self._on_return(t, stop.value)
            return
        # An op of m register steps fits a budget of m: asking for access
        # m + 1 stops it before the access is checked. Forks and returns run.
        kind, events, op = action[0], self.events, t.op
        if op is not None and op.steps >= per_op_budget and kind in ("r", "w"):
            self._stop(t, "per-op budget")
            return
        # The one access check: a register access is checked against its
        # spec's writer and readers, applied and logged here.
        if kind == "r":
            reg = action[1]
            spec = self.specs.get(reg)
            if spec is None or owner not in spec.readers:
                raise AccessViolation(f"process {owner} may not read {reg}")
            value = t.pending = self.cells[reg]
            events.append(Event(len(events), owner, t.tid, "reg_read", reg, value))
        elif kind == "w":
            reg, value = action[1], action[2]
            spec = self.specs.get(reg)
            if spec is None or owner != spec.writer:
                raise AccessViolation(f"process {owner} may not write {reg}")
            self.cells[reg] = value
            events.append(Event(len(events), owner, t.tid, "reg_write", reg, value))
        elif kind == "fork":
            fr = _JoinFrame(t)
            for gen in action[1:]:
                b = _Thread(owner, self._new_tid(owner), gen, t.op)
                b.frame = fr
                fr.branches.append(b)
                self.threads[(owner, b.tid)] = b
            t.child = fr
            t.parked = True
            queue = self.queue
            for b in fr.branches:
                if self.seed is None or not queue:
                    queue.append(b)
                else:
                    self.rng = self.rng or random.Random(self.seed)
                    queue.insert(self.rng.randrange(len(queue) + 1), b)
            return
        else:
            raise RuntimeError(f"unknown machine action {action!r}")
        if len(events) >= self._crash_at:
            self._sweep_crashes()
        # After an access t is neither parked nor done; it goes on unless its
        # owner crashed at this event, which leaves its op crashed-owner.
        if op is not None:
            op.steps += 1
        if owner not in self.crashed:
            self.queue.append(t)

    def _stop(self, t: _Thread, reason: str) -> None:
        """Leave t's op pending with reason and cancel its whole fork tree."""
        t.op.reason = reason
        self.changed = True
        while t.frame is not None:
            t = t.frame.parent
        self._cancel_subtree(t)

    def _runnable(self, t: _Thread) -> bool:
        op = t.op
        return not (t.owner in self.crashed or t.parked or t.cancelled or t.done
                    or (op is not None and op.status != "pending"))

    def run_queue(self, step_budget: int, per_op_budget: int,
                  admission: Optional[_Admission] = None,
                  picks: Optional[Iterable] = None,
                  watch_at: Optional[int] = None) -> None:
        """Resume threads until quiescence or the event budget; an op that
        asks for an access past per_op_budget is stopped there. admission, a
        scenario's workload admission, admits before a step once the engine
        changed or the event count reached its gate, and once more with
        quiescent=True when nothing is runnable; the run goes on if that
        spawned an op. picks, a scripted schedule's prefix, names each
        step's thread as (proc, tid) while any remain; once they run out
        the queue is refilled with the live runnable threads in creation
        order, and from then on, as in a run without picks, the queue's
        head goes. A step no pick named stops a Read of watch_at (default
        LASSO_THRESHOLD) steps or more at its first lasso once no crash
        point or after_step gate lies ahead (see byzregs.lasso), with the
        reason ``blocked (lasso i..j)``.
        """
        watch_at = LASSO_THRESHOLD if watch_at is None else watch_at
        picks = None if picks is None else iter(picks)
        events, queue, crashed, watch = self.events, self.queue, self.crashed, None
        while len(events) < step_budget:
            if admission is not None and (self.changed or len(events) >= admission.gate):
                admission.admit(False)
            if picks is not None:
                # A pick names its thread, so the queue is dropped to stay
                # bounded, and refilled once the picks run out.
                queue.clear()
                pick = next(picks, None)
                if pick is None:
                    picks = None
                    queue.extend(u for u in self.threads.values() if self._runnable(u))
                else:
                    # The pick passes the same test as the queue's head.
                    t = self.threads.get(pick)
                    if t is None or not self._runnable(t):
                        raise MalformedScenario(f"scripted pick {pick} is not runnable")
            if picks is None:
                # The queue's first runnable thread (see _runnable).
                while queue:
                    t = queue.popleft()
                    op = t.op
                    if not (t.owner in crashed or t.parked or t.cancelled or t.done
                            or (op is not None and op.status != "pending")):
                        break
                else:
                    if admission is not None and admission.admit(True):
                        continue
                    return
            before = len(events)
            self._resume(t, per_op_budget)
            op = t.op
            if watch is not None and watch.op is not op:
                watch = None  # another op's thread acted: no cycle spans it
            # A lasso take reads the queue, which a pick has cleared.
            if picks is not None or op is None or op.steps < watch_at \
                    or op.kind != "Read":
                continue
            if watch is None:
                watch = lasso.Watch(self, t)
            ahead = self._crash_at != float("inf") or \
                (admission is not None and admission.gate != float("inf"))
            reason = watch.observe(t, before, ahead)
            if reason is not None:
                self._stop(t, reason)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_scenario(s: Scenario) -> None:
    if not isinstance(s.construction, str):
        raise MalformedScenario(f"construction must be a name, not {s.construction!r}")
    constructions.check_n(s.construction, s.n)
    procs = {WRITER, *reader_ids(s.n)}
    if isinstance(s.schedule, Seeded):
        ints = [s.schedule.seed]
    else:
        ints = [x for pick in s.schedule.picks for x in pick]
    if not all(map(_is_int, ints)):
        raise MalformedScenario("schedule seed and picks must be integers")
    for name in ("step_budget", "per_op_budget"):
        budget = getattr(s, name)
        if not _is_int(budget) or budget <= 0:
            raise MalformedScenario(f"{name} must be a positive integer, not {budget!r}")
    if not s.workload:
        raise MalformedScenario("workload has no items")
    if not all(_is_int(p) and p in procs for p in s.faults):
        raise MalformedScenario("fault map references undeclared processes")
    for proc, fault in s.faults.items():
        if isinstance(fault, Crash) and not (
                _is_int(fault.at_global_step) and fault.at_global_step >= 0):
            raise MalformedScenario(
                f"crash step of process {proc} must be a non-negative integer")
    for i, item in enumerate(s.workload):
        for name in ("proc", "after_op", "after_step"):
            value = getattr(item, name)
            if not (_is_int(value) or (value is None and name != "proc")):
                raise MalformedScenario(
                    f"workload[{i}]: {name} must be an integer, not {value!r}"
                )
        if (item.after_step or 0) < 0:
            raise MalformedScenario(f"workload[{i}]: after_step must not be negative")
        if item.proc not in procs:
            raise MalformedScenario(f"workload[{i}] references process {item.proc}")
        if not is_honest(s.faults.get(item.proc, Correct())):
            raise MalformedScenario(
                f"workload[{i}]: malicious process {item.proc} may only act "
                "through its script"
            )
        if item.op == "write" and item.proc != WRITER:
            raise MalformedScenario(f"workload[{i}]: only the writer writes")
        if item.op == "write" and item.value is None:
            raise MalformedScenario(f"workload[{i}]: a write needs a value")
        if item.op == "read" and item.proc == WRITER:
            raise MalformedScenario(f"workload[{i}]: the writer does not read")
        if item.op not in ("write", "read"):
            raise MalformedScenario(f"workload[{i}]: unknown op {item.op!r}")
        if item.after_op is not None and not (0 <= item.after_op < i):
            raise MalformedScenario(f"workload[{i}]: after_op must name an earlier op")


class _Admission:
    """Admits a scenario's workload items; run_queue calls ``admit``.

    Each call acts as one scan of the unspawned items in index order that
    admits every item eligible when reached. An item of a crashed process is
    recorded as ``crashed-owner``. Any other item waits while its process's
    last op is pending (a budget-stopped op stays pending), until its
    ``after_op`` resolves and, unless the run is quiescent, until the event
    count reaches its ``after_step``.

    Eligibility changes only when an op resolves, a process crashes, the
    event count reaches an ``after_step`` (``gate``, the next one) or the
    run goes quiescent, so a scan runs only then. It merges in index order
    the items of the processes whose last op is not pending, and leaves a
    process once it admits an op for it, unless that process crashes in the
    same scan. A scan thus costs the processes plus the gated items it
    skips, not the whole workload.
    """

    def __init__(self, workload: list[WorkItem], eng: Engine):
        self.workload = workload
        self.eng = eng
        self.waiting: dict[int, list[int]] = {}  # unspawned indices, ascending
        for i, item in enumerate(workload):
            self.waiting.setdefault(item.proc, []).append(i)
        self.last_op: dict[int, OpResult] = {}
        self.op_for_item: dict[int, OpResult] = {}
        # The after_step gates not yet reached, descending, and the next one;
        # once it is inf no gate lies ahead.
        self.gates = sorted({item.after_step for item in workload
                             if item.after_step is not None}, reverse=True)
        self.gate = self.gates.pop() if self.gates else float("inf")

    def _open(self, proc: int) -> bool:
        last = self.last_op.get(proc)
        return proc in self.eng.crashed or last is None or last.status != "pending"

    def _push_after(self, heap: list, proc: int, i: int) -> None:
        """Queue proc's first unspawned item with index above i."""
        items = self.waiting[proc]
        k = bisect_right(items, i)
        if k < len(items):
            heapq.heappush(heap, (items[k], proc))

    def admit(self, quiescent: bool) -> bool:
        """One scan; run_queue calls it only when the engine changed, the
        event count reached gate or the run is quiescent."""
        eng = self.eng
        while len(eng.events) >= self.gate:
            self.gate = self.gates.pop() if self.gates else float("inf")
        eng.changed = False
        heap = [(items[0], proc) for proc, items in self.waiting.items()
                if items and self._open(proc)]
        heapq.heapify(heap)
        did = False
        while heap:
            i, proc = heapq.heappop(heap)
            item = self.workload[i]
            if proc in eng.crashed:
                op = OpResult(index=i, proc=proc,
                              kind="Write" if item.op == "write" else "Read",
                              arg=item.value, status="crashed-owner")
                eng.ops.append(op)
                self._record(i, op)
                self._push_after(heap, proc, i)
                continue
            if item.after_op is not None:
                dep = self.op_for_item.get(item.after_op)
                if dep is None or (dep.status == "pending" and dep.reason is None):
                    self._push_after(heap, proc, i)
                    continue
            if item.after_step is not None and len(eng.events) < item.after_step \
                    and not quiescent:
                self._push_after(heap, proc, i)
                continue
            crashed_before = len(eng.crashed)
            op = eng.spawn_write(item.value, i) if item.op == "write" \
                else eng.spawn_read(proc, i)
            self._record(i, op)
            did = True
            if len(eng.crashed) != crashed_before:
                # The invoke event reached a crash point: the crashed
                # processes' later items are marked in this pass.
                queued = {q for _, q in heap}
                for q in eng.crashed:
                    if q not in queued and q in self.waiting:
                        self._push_after(heap, q, i)
        return did

    def _record(self, i: int, op: OpResult) -> None:
        items = self.waiting[op.proc]
        del items[bisect_left(items, i)]
        self.op_for_item[i] = op
        self.last_op[op.proc] = op


def run(scenario: Scenario) -> Trace:
    """Execute a scenario to quiescence, budget or a lasso and return its
    trace. A scripted schedule's picks are the run's prefix; after them the
    run goes on FIFO, as a run without a seed does.

    Operations of one process run one at a time, in workload order unless
    an earlier item is still gated. An op stopped by ``per_op_budget`` or at
    a lasso stays pending, so it holds back its process's later workload
    items, which are never invoked; items gated on it with ``after_op``
    still fire.
    """
    validate_scenario(scenario)
    seeded = isinstance(scenario.schedule, Seeded)
    eng = Engine(constructions.layout_of(scenario.construction, scenario.n),
                 seed=scenario.schedule.seed if seeded else None,
                 crash_points=[(fault.at_global_step, proc)
                               for proc, fault in scenario.faults.items()
                               if isinstance(fault, Crash)])
    # Malicious scripts run as plain threads from the start, in process order.
    for proc in sorted(scenario.faults):
        fault = scenario.faults[proc]
        if isinstance(fault, Malicious) and proc not in eng.crashed:
            eng.spawn_script(proc, fault.script)

    eng.run_queue(scenario.step_budget, scenario.per_op_budget,
                  admission=_Admission(scenario.workload, eng),
                  picks=None if seeded else scenario.schedule.picks)
    reason = "step budget" if len(eng.events) >= scenario.step_budget else "quiescence"
    for op in eng.ops:
        if op.status == "pending" and op.reason is None:
            op.reason = reason
    return Trace(events=eng.events, ops=sorted(eng.ops, key=lambda o: o.index))


# ---------------------------------------------------------------------------
# Scenario (de)serialization
# ---------------------------------------------------------------------------


def fault_to_json(f: FaultModel) -> dict:
    if isinstance(f, Correct):
        return {"kind": "correct"}
    if isinstance(f, Crash):
        return {"kind": "crash", "at_step": f.at_global_step}
    if isinstance(f, Malicious):
        return {"kind": "malicious", "script": {"kind": "replay", "actions": [
            {"a": "w", "reg": a[1], "cell": encode_cell(a[2])} if a[0] == "w"
            else {"a": "r", "reg": a[1]}
            for a in f.script]}}
    raise TypeError(f)


def _reg(obj: dict) -> str:
    if not isinstance(obj["reg"], str):
        raise ValueError(f"register id must be a string, not {obj['reg']!r}")
    return obj["reg"]


def _replay_access(i: int, action: dict) -> tuple:
    if action["a"] == "w":
        return ("w", _reg(action), decode_cell(action["cell"]))
    if action["a"] == "r":
        return ("r", _reg(action))
    raise MalformedScenario(
        f"replay action {i}: \"a\" must be \"w\" or \"r\", not {action['a']!r}")


def script_from_json(obj: dict, layout: constructions.Layout, proc: int) -> tuple:
    """The accesses a script document issues. Its five kinds are input forms
    of one access list: ``idle`` issues none, ``lie`` one write, ``replay``
    its actions, ``seq`` its items' accesses in turn and ``resetall`` the
    layout's reset script of proc."""
    kind = obj["kind"]
    if kind == "idle":
        return ()
    if kind == "resetall":
        return layout.resets.get(proc, ())
    if kind == "lie":
        return (("w", _reg(obj), decode_cell(obj["cell"])),)
    if kind == "replay":
        return tuple(_replay_access(i, a) for i, a in enumerate(obj["actions"]))
    if kind == "seq":
        return tuple(a for item in obj["items"]
                     for a in script_from_json(item, layout, proc))
    raise ValueError(f"unknown script kind {kind!r}")


def fault_from_json(obj: dict, layout: constructions.Layout, proc: int) -> FaultModel:
    kind = obj["kind"]
    if kind == "correct":
        return Correct()
    if kind == "crash":
        return Crash(obj["at_step"])
    if kind == "malicious":
        return Malicious(script_from_json(obj["script"], layout, proc))
    raise MalformedScenario(f"unknown fault kind {kind!r}")


def scenario_to_json(s: Scenario) -> dict:
    return {
        "construction": s.construction,
        "n": s.n,
        "faults": {str(p): fault_to_json(f) for p, f in sorted(s.faults.items())},
        "workload": [
            {
                "proc": w.proc,
                "op": w.op,
                **({"value": encode_payload(w.value)} if w.value is not None else {}),
                **({"after_op": w.after_op} if w.after_op is not None else {}),
                **({"after_step": w.after_step} if w.after_step is not None else {}),
            }
            for w in s.workload
        ],
        "schedule": (
            {"kind": "seeded", "seed": s.schedule.seed}
            if isinstance(s.schedule, Seeded)
            else {"kind": "scripted", "picks": [list(p) for p in s.schedule.picks]}
        ),
        "step_budget": s.step_budget,
        "per_op_budget": s.per_op_budget,
    }


def _proc_key(key: str) -> int:
    """The process a fault map key names, written as str(process) writes it:
    "02", " 2" and "+2" would name process 2 beside "2"."""
    proc = int(key)
    if key != str(proc):
        raise MalformedScenario(f"fault map key {key!r} is not a process id")
    return proc


def scenario_from_json(obj: dict) -> Scenario:
    """The scenario obj describes, as written; ``run`` validates it."""
    try:
        sched = obj["schedule"]
        if sched["kind"] == "seeded":
            schedule: Schedule = Seeded(sched["seed"])
        elif sched["kind"] == "scripted":
            schedule = Scripted(tuple((p, t) for p, t in sched["picks"]))
        else:
            raise MalformedScenario(f"unknown schedule kind {sched['kind']!r}")
        # A resetall script writes the registers its process owns at this n.
        layout = constructions.layout_of(obj["construction"], obj["n"])
        scenario = Scenario(
            construction=obj["construction"],
            n=obj["n"],
            faults={_proc_key(p): fault_from_json(f, layout, int(p))
                    for p, f in obj.get("faults", {}).items()},
            workload=[WorkItem(w["proc"], w["op"],
                               decode_payload(w["value"]) if "value" in w else None,
                               w.get("after_op"), w.get("after_step"))
                      for w in obj.get("workload", [])],
            schedule=schedule,
            step_budget=obj.get("step_budget", DEFAULT_STEP_BUDGET),
            per_op_budget=obj.get("per_op_budget", DEFAULT_PER_OP_BUDGET),
        )
    except KeyError as exc:
        raise MalformedScenario(f"bad scenario document: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise MalformedScenario(f"bad scenario document: {exc}") from exc
    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            raise MalformedScenario("scenario document nested too deeply") from exc
    return scenario_from_json(doc)
