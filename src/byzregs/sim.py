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
control flow are free. All interleaving decisions flow through the scheduler,
so a scenario (construction, faults, workload, schedule, budgets) replays to
a byte-identical trace. Engine.run_queue is the one step loop, for seeded
scenarios (the queue's head, after workload admission), scripted picks and
the attack harness's phases. A crash point (step, proc) crashes proc once
the trace holds step events; scenario crash faults and the attack harness's
writer crash are both crash points. A step costs O(1) engine work beyond a
fork's seeded insertions, a budget stop's walk over the stopped op's threads
and the lasso watch of an op past LASSO_THRESHOLD steps. A watched state
costs the cells written since the watch began, each split once, plus the
live threads' frames and a pass over the state's sequence numbers.

A malicious process's script is the tuple of register accesses it issues,
("w", reg_id, cell) or ("r", reg_id); the engine resumes it like a step
machine whose reads go unused.

Lassos. A seeded scenario run or an attack read can prove that a spinning
op never completes instead of spinning it to its per-op budget: run_queue
finds a lasso, a state the run reaches again, so that the cycle between the
two visits repeats forever (the lasso-shaped liveness counterexample of
Vardi and Wolper, LICS 1986). Once the op has taken LASSO_THRESHOLD register
steps, the engine takes its state after each of its register accesses: the
register cells, the per-run state's key(), the queue order of the runnable
threads, and each live thread of the op with its parked flag, pending
value, unresolved join frame and generator chain (code, f_lasti and
locals). Threads are named by their place in the op's fork tree, not by
id, since every cycle forks fresh ids. A frame's state is assumed to be its
f_lasti plus its locals: a loop over a static list is fixed by its loop
variable, as ``q1`` fixes how far algo1's ``_q_thread2`` has gone over
``q_list``. A local that is not a value (a layout's static object, a part
of the run record) is compared by identity; key() covers the run record.

A repeat counts only if the cycle is fair and closed (the fair-cycle
conditions of Musuvathi and Qadeer, PLDI 2008), which the engine checks:
every live thread belongs to the op, every thread runnable at the cycle's
start is resumed in it or ends, no op responds in it, and no crash point or
after_step gate lies ahead. A FIFO run that draws nothing (the attack
harness's) then goes round the cycle forever. A seeded run draws a queue
place for each forked branch and its RNG state never repeats, so there the
lasso proves that the fair continuation repeating the cycle's picks never
completes the op. Scripted runs are never watched: their picks fix the
schedule.

Step A: the state repeats exactly. Step B: it repeats up to shifted
sequence numbers. A sequence number is the k of a SeqTuple, or a bare int
of a state key tuple beside SeqTuples of one height (algo1's c and
previous_k beside last_written); bare ints anywhere else must repeat
exactly. Its domain is the height of its SeqTuple, the number of SeqTuples
nested in its payload, which for algo1 is the depth of the level that
wrote it. A rank fingerprint, with each number replaced by its rank within
its domain, only proposes a pair of states i, j. The concrete states must
confirm it: in each domain, every number that differs between i and j
grows by one d > 0, and every such number exceeds every number of the
domain that does not. Let f fix each number up to the largest unmoved one
of its domain and add d to every larger one. The machines compare
sequence numbers only with each other within a domain and make new ones
only by adding 1 to a counter, which the cycle moves, so f, being
monotone, commutes with every step of the cycle: the run from j is the run
from i with f applied, and so on forever. Without the confirmation a
counter could climb past a fixed value, such as a lie's k, and flip a
comparison.
"""

from __future__ import annotations

import heapq
import json
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Generator, Iterable, Optional, Union

from . import constructions
from .constructions import WRITER, reader_ids
from .core import (
    Commit,
    Correct,
    Crash,
    CrashedActor,
    Event,
    FaultModel,
    Malicious,
    MalformedScenario,
    Payload,
    Plain,
    Prepare,
    RegisterFile,
    RegisterSpec,
    SeqTuple,
    Signed,
    decode_cell,
    decode_payload,
    encode_cell,
    encode_payload,
    is_honest,
)

DEFAULT_STEP_BUDGET = 1_000_000
# Register steps an op takes before run_queue watches it for a lasso: far
# above any wait-free op's steps in the constructions here.
LASSO_THRESHOLD = 1_000
DEFAULT_PER_OP_BUDGET = 100_000


@dataclass(frozen=True)
class Seeded:
    seed: int


@dataclass(frozen=True)
class Scripted:
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


@dataclass
class Trace:
    events: list[Event]
    ops: list[OpResult]
    meta: dict


class _Thread:
    __slots__ = (
        "owner",
        "tid",
        "gen",
        "pending",
        "op",
        "frame",
        "child_frames",
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
        self.child_frames: list[_JoinFrame] = []
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


_SPLIT = (SeqTuple, Commit, Prepare, Plain, Signed)  # what _split memoizes
_SEQ = object()  # stands for a sequence number in a fingerprint's skeleton


def _script_machine(script: tuple) -> Generator:
    for access in script:
        yield access


class Engine:
    """Register substrate plus thread scheduling; shared by scenario runs and
    the attack harness (which drives phases directly). A forked branch takes
    a random queue place only when the engine has a seed."""

    def __init__(self, specs: Union[Iterable[RegisterSpec], dict[str, RegisterSpec]],
                 seed: Optional[int] = None,
                 crash_points: Iterable[tuple[int, int]] = (), state=None):
        self.registers = RegisterFile(specs)
        # The machines' per-run state (an Instance's state): run_queue
        # watches a spinning op for a lasso only when it can fingerprint it.
        self.state = state
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
        self.procs_with_events: set[int] = set()
        self.queue: deque[_Thread] = deque()
        self.threads: dict[tuple[int, int], _Thread] = {}
        self._tid_counters: dict[int, int] = {}
        # Set whenever an op resolves or a process crashes; scenario
        # admission re-examines its workload only after such a change.
        self.changed = True
        self._sweep_crashes()

    # -- events ------------------------------------------------------------

    def _emit(self, proc: int, thread: int, kind: str, reg=None, value=None,
              op=None, arg=None, ret=None) -> None:
        events = self.events
        events.append(Event(len(events), proc, thread, kind, reg, value, op, arg, ret))
        if kind != "crash":
            self.procs_with_events.add(proc)
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
        # A crash marker is only informative once the process has acted.
        if proc in self.procs_with_events:
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

    def spawn_script(self, proc: int, script: tuple) -> _Thread:
        t = _Thread(proc, self._new_tid(proc), _script_machine(script), None)
        self.threads[(proc, t.tid)] = t
        self.queue.append(t)
        return t

    def _cancel_subtree(self, t: _Thread) -> None:
        t.cancelled = True
        for fr in t.child_frames:
            if not fr.resolved:
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
            fr.resolved = True
            for sib in fr.branches:
                if sib is not t:
                    self._cancel_subtree(sib)
            parent = fr.parent
            parent.parked = False
            parent.pending = value
            self.queue.append(parent)
        else:
            fr.dead += 1
            if fr.dead == len(fr.branches):
                fr.resolved = True
                parent = fr.parent
                parent.parked = False
                parent.pending = None
                self.queue.append(parent)

    def _resume(self, t: _Thread, per_op_budget: Optional[int] = None) -> None:
        owner = t.owner
        if owner in self.crashed:
            raise CrashedActor(f"process {owner} already crashed")
        val, t.pending = t.pending, None
        try:
            action = t.gen.send(val)
        except StopIteration as stop:
            self._on_return(t, stop.value)
            return
        kind = action[0]
        if kind == "r":
            value = t.pending = self.registers.read(action[1], owner)
            self._emit(owner, t.tid, "reg_read", action[1], value)
        elif kind == "w":
            self.registers.write(action[1], owner, action[2])
            self._emit(owner, t.tid, "reg_write", action[1], action[2])
        elif kind == "fork":
            fr = _JoinFrame(t)
            for gen in action[1:]:
                b = _Thread(owner, self._new_tid(owner), gen, t.op)
                b.frame = fr
                fr.branches.append(b)
                self.threads[(owner, b.tid)] = b
            t.child_frames.append(fr)
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
        # After an access t is neither parked nor done, and its op stops being
        # pending only if the owner crashed at this event.
        op = t.op
        if op is not None:
            op.steps += 1
            if op.status != "pending":
                return
            if per_op_budget is not None and op.steps >= per_op_budget:
                self._stop(t, "per-op budget")
                return
        elif owner in self.crashed:
            return
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

    def _pop_runnable(self) -> Optional[_Thread]:
        queue = self.queue
        while queue:
            t = queue.popleft()
            if self._runnable(t):
                return t
        return None

    def run_queue(self, step_budget: int, per_op_budget: Optional[int] = None,
                  admit=None, picks: Optional[Iterable] = None,
                  watch_from: int = 0) -> None:
        """Resume threads until quiescence, the end of picks or the event
        budget. admit(quiescent), a scenario's workload admission, runs
        before every step, and once more with quiescent=True when nothing is
        runnable; the run goes on if it spawned an op. picks, a scripted
        schedule, names each step's thread as (proc, tid); else the queue's
        head goes. With a per-op budget and the machines' state, a run
        without picks stops an op past LASSO_THRESHOLD steps at its first
        lasso from event watch_from on, the last after_step gate (see the
        module docstring), with the reason ``blocked (lasso i..j)``.
        """
        watched = per_op_budget is not None and self.state is not None and picks is None
        picks = None if picks is None else iter(picks)
        events, watch = self.events, None
        while len(events) < step_budget:
            if picks is None:
                if admit is not None:
                    admit(False)
                t = self._pop_runnable()
                if t is None:
                    if admit is not None and admit(True):
                        continue
                    return
            else:
                pick = next(picks, None)
                if pick is None:
                    return
                if admit is not None:
                    admit(False)
                # A pick names its thread, so the queue is dropped to stay
                # bounded; the pick passes the same test as the queue's head.
                self.queue.clear()
                t = self.threads.get(pick)
                if t is None or not self._runnable(t):
                    raise MalformedScenario(f"scripted pick {pick} is not runnable")
            before = len(events)
            self._resume(t, per_op_budget)
            op = t.op
            if watch is not None and watch.op is not op:
                watch = None  # another op's thread acted: no cycle spans it
            if not watched or op is None or op.steps < LASSO_THRESHOLD:
                continue
            if watch is None:
                watch = _Lasso(self, t, watch_from)
            reason = watch.observe(t, before)
            if reason is not None:
                self._stop(t, reason)


# ---------------------------------------------------------------------------
# Lassos: a spinning op proved blocked by a cycle of its own states
# ---------------------------------------------------------------------------


def _split(x, seqs: list, memo: dict) -> tuple:
    """x with the k of every SeqTuple in it moved to seqs as (height, k), and
    the height x gives a SeqTuple whose payload it is: 0 if x holds no
    SeqTuple, else one more than the tallest SeqTuple in it.

    memo maps the id of each SeqTuple or cell split so far to the object
    itself, which keeps its id from being reused, its skeleton, its height and
    its own (height, k) list; cells are immutable, so each is split once."""
    if isinstance(x, tuple):
        skel, height = [type(x)], 0
        for v in x:
            p, h = _split(v, seqs, memo)
            skel.append(p)
            if h > height:
                height = h
        return tuple(skel), height
    if not isinstance(x, _SPLIT):
        return x, 0
    e = memo.get(id(x))
    if e is None:
        own: list = []
        if isinstance(x, SeqTuple):
            skel, height = _split(x.u, own, memo)
            own.append((height, x.k))
            skel, height = (_SEQ, skel), height + 1
        else:
            parts = [_split(getattr(x, f), own, memo) for f in x.__dataclass_fields__]
            skel = (type(x), *(p for p, _ in parts))
            height = max((h for _, h in parts), default=0)
        e = memo[id(x)] = (x, skel, height, own)
    seqs += e[3]
    return e[1], e[2]


def _split_key(key, seqs: list, memo: dict):
    """_split of a state key, in which a tuple's bare ints are sequence
    numbers too when its SeqTuples all have one height: algo1's c and
    previous_k beside last_written."""
    if not isinstance(key, tuple):
        return _split(key, seqs, memo)[0]
    skel = [_split_key(v, seqs, memo) for v in key]
    heights = {memo[id(v)][2] for v in key if isinstance(v, SeqTuple)}
    if len(heights) == 1:
        (h,) = heights
        h -= 1
        for i, v in enumerate(key):
            if type(v) is int:
                seqs.append((h, v))
                skel[i] = _SEQ
    return tuple(skel)


def _frames(gen, state) -> tuple:
    """A thread's generator chain: each frame's code, position and locals,
    but for the run record, which key() stands for."""
    out = []
    while gen is not None:
        f = gen.gi_frame
        out.append((gen.gi_code, f.f_lasti,
                    tuple((k, v) for k, v in f.f_locals.items() if v is not state)))
        gen = gen.gi_yieldfrom
    return tuple(out)


def _shift(si: list, sj: list) -> Optional[dict]:
    """The shift d > 0 per domain that takes the sequence numbers si to sj,
    if every moved number exceeds every unmoved one of its domain; else
    None."""
    shift: dict[int, int] = {}
    moved: dict[int, int] = {}
    fixed: dict[int, int] = {}
    for (h, a), (_, b) in zip(si, sj):
        if a == b:
            fixed[h] = max(fixed.get(h, a), a)
        elif shift.setdefault(h, b - a) != b - a:
            return None
        else:
            moved[h] = min(moved.get(h, a), a)
    if any(d <= 0 for d in shift.values()) or \
            any(low <= fixed.get(h, low - 1) for h, low in moved.items()):
        return None
    return shift


@dataclass
class _Point:
    """A state the watch took, after the op's register access at step."""

    step: int
    seqs: list  # its sequence numbers as (domain, k), in _split's order
    cells: tuple  # the register cells
    runnable: list  # the op's runnable threads


class _Lasso:
    """Watches one spinning op for a lasso (see the module docstring): it
    keeps the states it takes by exact and by rank fingerprint and names the
    first repeat that passes the checks."""

    def __init__(self, eng: Engine, t: _Thread, watch_from: int):
        self.eng = eng
        self.op = t.op
        self.watch_from = watch_from
        while t.frame is not None:
            t = t.frame.parent
        self.root = t
        self.exact: dict = {}  # fingerprint -> _Point
        self.ranked: dict = {}  # rank fingerprint -> _Point
        self.memo: dict = {}  # _split's, for this watch only
        self.resumed: dict = {}  # thread -> the first event of its last resumption

    def observe(self, t: _Thread, before: int) -> Optional[str]:
        """Take the state after the resumption of the op's thread t that
        began at event before; the stop reason at a lasso."""
        eng, op = self.eng, self.op
        self.resumed[t] = before
        new = eng.events[before:]
        if not new or op.status != "pending" or op.reason is not None:
            return None  # a fork or a branch's return, or the op is over
        taken = None
        if len(new) == 1 and new[0].kind in ("reg_read", "reg_write") and \
                before >= self.watch_from and eng._next_crash == len(eng.crash_points):
            taken = self._take(before)
        if taken is None:  # no cycle may span this step
            self.exact.clear()
            self.ranked.clear()
            return None
        exact_key, rank_key, q = taken
        p = self.exact.get(exact_key)
        if p is not None and self._fair(p):
            return f"blocked (lasso {p.step}..{q.step})"
        p = self.ranked.get(rank_key)
        shift = p is not None and self._fair(p) and _shift(p.seqs, q.seqs)
        if shift:
            return f"blocked (lasso {p.step}..{q.step}; " + ", ".join(
                f"k of {self._levels(p, q, h)} +{d}"
                for h, d in sorted(shift.items())) + ")"
        self.exact[exact_key] = self.ranked[rank_key] = q
        return None

    def _fair(self, p: _Point) -> bool:
        """Whether every thread runnable at p has been resumed since or has
        ended."""
        return all(u.done or u.cancelled or self.resumed.get(u, -1) > p.step
                   for u in p.runnable)

    def _take(self, step: int) -> Optional[tuple]:
        """The state's exact and rank fingerprints and its _Point, or None
        if a thread of another op or process is runnable."""
        eng, op, state = self.eng, self.op, self.eng.state
        runnable = []
        for u in eng.queue:
            if not eng._runnable(u):
                continue
            if u.op is not op:
                return None
            runnable.append(u)
        names: dict[_Thread, tuple] = {}
        threads = []
        todo = [(self.root, ())]
        while todo:
            u, name = todo.pop()
            names[u] = name
            fr = u.child_frames[-1] if u.child_frames else None
            if fr is not None and fr.resolved:
                fr = None
            threads.append((name, u.parked, u.pending,
                            None if fr is None else fr.dead, _frames(u.gen, state)))
            if fr is not None:
                todo += [(b, name + (i,)) for i, b in enumerate(fr.branches)
                         if not (b.done or b.cancelled)]
        threads.sort(key=lambda th: th[0])
        cells = tuple(eng.registers.cells.values())
        seqs: list = []
        memo = self.memo
        skel = (_split(cells, seqs, memo)[0], _split_key(state.key(), seqs, memo),
                _split(tuple(threads), seqs, memo)[0], tuple(names[u] for u in runnable))
        rank: dict = {}  # (h, k) -> (h, the rank of k in domain h)
        r = last = None
        for h, k in sorted(set(seqs)):
            r = r + 1 if h == last else 0
            rank[h, k] = h, r
            last = h
        return ((skel, tuple(seqs)), (skel, tuple(map(rank.__getitem__, seqs))),
                _Point(step, seqs, cells, runnable))

    def _levels(self, p: _Point, q: _Point, h: int) -> str:
        """The levels (register directories) whose cells of height h differ
        between p and q."""
        regs, memo = self.eng.registers.cells, self.memo
        levels = sorted({reg.rsplit("/", 1)[0] for reg, a, b in zip(regs, p.cells, q.cells)
                         if a != b and _split(a, [], memo)[1] - 1 == h})
        return "+".join(levels) or f"height {h}"


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
    """Admits a scenario's workload items; ``admit`` runs before every step.

    Each call acts as one scan of the unspawned items in index order that
    admits every item eligible when reached. An item of a crashed process is
    recorded as ``crashed-owner``. Any other item waits while its process's
    last op is pending (a budget-stopped op stays pending), until its
    ``after_op`` resolves and, unless the run is quiescent, until the event
    count reaches its ``after_step``.

    Eligibility changes only when an op resolves, a process crashes, the
    event count reaches an ``after_step`` or the run goes quiescent, so a
    scan runs only then. It merges in index order the items of the processes
    whose last op is not pending, and leaves a process once it admits an op
    for it, unless that process crashes in the same scan. A scan thus costs
    the processes plus the gated items it skips, not the whole workload.
    """

    def __init__(self, workload: list[WorkItem], instance, eng: Engine):
        self.workload = workload
        self.instance = instance
        self.eng = eng
        self.waiting: dict[int, list[int]] = {}  # unspawned indices, ascending
        for i, item in enumerate(workload):
            self.waiting.setdefault(item.proc, []).append(i)
        self.last_op: dict[int, OpResult] = {}
        self.op_for_item: dict[int, OpResult] = {}
        self.step_gates = sorted({item.after_step for item in workload
                                  if item.after_step is not None})
        self.next_gate = 0

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
        eng = self.eng
        gates = self.step_gates
        while self.next_gate < len(gates) and gates[self.next_gate] <= len(eng.events):
            self.next_gate += 1
            eng.changed = True
        if not (eng.changed or quiescent):
            return False
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
            if item.op == "write":
                gen = self.instance.write_machine(item.value)
                op = eng.spawn_op(proc, "Write", item.value, gen, index=i)
            else:
                gen = self.instance.read_machine(proc)
                op = eng.spawn_op(proc, "Read", None, gen, index=i)
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


def run(scenario: Scenario, instance: Optional[object] = None) -> Trace:
    """Execute a scenario to quiescence or budget and return its trace.

    Operations of one process run one at a time, in workload order unless
    an earlier item is still gated. An op stopped by ``per_op_budget`` or at
    a lasso stays pending, so it holds back its process's later workload
    items, which are never invoked; items gated on it with ``after_op``
    still fire.
    """
    validate_scenario(scenario)
    seeded = isinstance(scenario.schedule, Seeded)
    if instance is None:
        instance = constructions.build_instance(scenario.construction, scenario.n)
    eng = Engine(instance.by_id, seed=scenario.schedule.seed if seeded else None,
                 crash_points=[(fault.at_global_step, proc)
                               for proc, fault in scenario.faults.items()
                               if isinstance(fault, Crash)],
                 state=instance.state)
    # Malicious scripts run as plain threads from the start, in process order.
    for proc in sorted(scenario.faults):
        fault = scenario.faults[proc]
        if isinstance(fault, Malicious) and proc not in eng.crashed:
            eng.spawn_script(proc, fault.script)

    # A seeded run goes on until quiescence; a scripted run ends when its
    # picks run out.
    eng.run_queue(scenario.step_budget, scenario.per_op_budget,
                  admit=_Admission(scenario.workload, instance, eng).admit,
                  picks=None if seeded else scenario.schedule.picks,
                  watch_from=max((item.after_step for item in scenario.workload
                                  if item.after_step is not None), default=0))
    exhausted = seeded and len(eng.events) >= scenario.step_budget
    reason = ("step budget" if exhausted else "quiescence") if seeded \
        else "schedule exhausted"
    for op in eng.ops:
        if op.status == "pending" and op.reason is None:
            op.reason = reason
    return Trace(events=eng.events, ops=sorted(eng.ops, key=lambda o: o.index),
                 meta={"schedule": "seeded" if seeded else "scripted",
                       "budget_exhausted": exhausted})


# ---------------------------------------------------------------------------
# Scenario (de)serialization
# ---------------------------------------------------------------------------


def reset_script(specs: Iterable[RegisterSpec], proc: int) -> tuple:
    """Writes of every register proc owns back to its initial value, in
    register-id order."""
    owned = sorted((s for s in specs if s.writer == proc), key=lambda s: s.reg_id)
    return tuple(("w", s.reg_id, s.initial) for s in owned)


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


def script_from_json(obj: dict, specs: Iterable[RegisterSpec], proc: int) -> tuple:
    """The accesses a script document issues. Its five kinds are input forms
    of one access list: ``idle`` issues none, ``lie`` one write, ``replay``
    its actions, ``seq`` its items' accesses in turn and ``resetall`` the
    ``reset_script`` of proc over specs."""
    kind = obj["kind"]
    if kind == "idle":
        return ()
    if kind == "resetall":
        return reset_script(specs, proc)
    if kind == "lie":
        return (("w", _reg(obj), decode_cell(obj["cell"])),)
    if kind == "replay":
        return tuple(_replay_access(i, a) for i, a in enumerate(obj["actions"]))
    if kind == "seq":
        return tuple(a for item in obj["items"]
                     for a in script_from_json(item, specs, proc))
    raise ValueError(f"unknown script kind {kind!r}")


def fault_from_json(obj: dict, specs: Iterable[RegisterSpec], proc: int) -> FaultModel:
    kind = obj["kind"]
    if kind == "correct":
        return Correct()
    if kind == "crash":
        return Crash(obj["at_step"])
    if kind == "malicious":
        return Malicious(script_from_json(obj["script"], specs, proc))
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


def scenario_from_json(obj: dict) -> Scenario:
    try:
        sched = obj["schedule"]
        if sched["kind"] == "seeded":
            schedule: Schedule = Seeded(sched["seed"])
        elif sched["kind"] == "scripted":
            schedule = Scripted(tuple((p, t) for p, t in sched["picks"]))
        else:
            raise MalformedScenario(f"unknown schedule kind {sched['kind']!r}")
        # A resetall script writes the registers its process owns at this n.
        specs = constructions.layout_of(obj["construction"], obj["n"]).specs
        scenario = Scenario(
            construction=obj["construction"],
            n=obj["n"],
            faults={int(p): fault_from_json(f, specs, int(p))
                    for p, f in obj.get("faults", {}).items()},
            workload=[
                WorkItem(
                    proc=w["proc"],
                    op=w["op"],
                    value=decode_payload(w["value"]) if "value" in w else None,
                    after_op=w.get("after_op"),
                    after_step=w.get("after_step"),
                )
                for w in obj.get("workload", [])
            ],
            schedule=schedule,
            step_budget=obj.get("step_budget", DEFAULT_STEP_BUDGET),
            per_op_budget=obj.get("per_op_budget", DEFAULT_PER_OP_BUDGET),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedScenario(f"bad scenario document: {exc}") from exc
    validate_scenario(scenario)
    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(json.load(fh))
