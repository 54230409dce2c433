"""The attack harness: it drives a candidate register implementation through
the impossibility argument's execution transformations.

The harness operationalizes indistinguishability: instead of reasoning about
what a reader can know, it runs executions with the writer crashed one step
earlier and the would-be malicious process replaying its recorded register
accesses verbatim. A script is the tuple of accesses a process issues, as
``recorded_actions`` extracts them. Every execution is a strict sequence of
phases (writer prefix, replay and reset scripts, one fresh read), which is
exactly the shape of the proof's executions S, A_k, B_{k-1}, C/D/E/F. A
plan starts from a copy of the longest run its search kept of its first
phases: S's at its crash point, or the B or D run its C or E extends. The
solo write and every fresh read run under one per-op budget, the stage budget
(``--op-budget``): an op of m register steps fits a budget of m, and one
that asks for a step past it is stopped there. A search watches a fresh
read for a lasso once it has taken more steps than any op the search has
completed. A plan draws nothing, so a lasso proves that its read never
completes, and the watch start moves only where a blocked witness ends. A
found witness or the spent search budget ends the search: it is raised from
the stage that finds it, and ``attack_search`` returns it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from . import checker
from .core import (Correct, Event, Frozen, Malicious, Record, RegisterSpec,
                   SeqTuple, _set)
from .constructions import (IMPLEMENTATIONS, RULE_THM1, RULE_UNRESTRICTED,
                            WRITER, Layout, layout_of)
from .sim import Engine, OpResult

MARKER: bytes = b"\x01"

DEFAULT_STAGE_BUDGET = 100_000
DEFAULT_SEARCH_BUDGET = 10_000_000


class StagePreconditionFailed(Exception):
    """An execution transformation's entry property did not hold; this
    signals a harness bug, not a candidate failure."""


class WriterBlocked(Exception):
    """The candidate's solo write exceeded its budget."""


def recorded_actions(events: list[Event], proc: int) -> tuple[tuple, ...]:
    """A process's register accesses in a trace, as a script that replays
    them: writes carry the recorded cells; reads re-read the registers."""
    out = []
    for e in events:
        if e.proc != proc:
            continue
        if e.kind == "reg_write":
            out.append(("w", e.reg, e.value))
        elif e.kind == "reg_read":
            out.append(("r", e.reg))
    return tuple(out)


# ---------------------------------------------------------------------------
# Candidates, solo write recording and step visibility
# ---------------------------------------------------------------------------


# (table entry, n) pairs whose layout is within the entry's register budget.
_WITHIN_BUDGET: set[tuple] = set()


def build_candidate(name: str, n: int) -> Layout:
    """An implementation's layout, with its register budget enforced, checked
    once per (table entry, n)."""
    layout = layout_of(name, n)
    impl = IMPLEMENTATIONS[name]
    if impl.rule == RULE_THM1 and (impl, n) not in _WITHIN_BUDGET:
        for spec in layout.specs:
            if len(spec.readers) > n - 1:
                raise ValueError(
                    f"candidate {name}: register {spec.reg_id} readable by "
                    f"{len(spec.readers)} readers exceeds the {impl.rule} budget"
                )
        _WITHIN_BUDGET.add((impl, n))
    return layout


def record_solo_write(name: str, n: int, budget: int = DEFAULT_STAGE_BUDGET,
                      runs: Optional[dict] = None):
    """Execution S: a complete solo Write of the marker, readers silent, run
    one access at a time. runs (see run_plan) keeps S up to each crash point,
    the writer crashed there, and S complete, which is read back as a plan.

    Returns (steps, events) where steps are the writer's register access
    events s^1..s^m in order.
    """
    runs = {} if runs is None else runs
    eng = Engine(build_candidate(name, n))
    op, state = eng.spawn_write(MARKER), None
    while op.status == "pending" and op.reason is None and eng.queue:
        state = eng.state.copy(state)
        runs[plan_key([WriterPhase(op.steps)])] = partial(  # crash included
            eng.copy, len(eng.events), state, [op.copy()],
            [(op.steps + 1, WRITER)]), op.steps
        eng.run_queue(len(eng.events) + 1, budget)
    runs[plan_key([WriterPhase(None)])] = eng.copy, op.steps
    res = run_plan(name, n, [WriterPhase(None)], budget, runs)
    if res.ops[0].status != "completed":
        raise WriterBlocked(f"candidate {name}: solo write did not finish "
                            f"within {budget} steps")
    steps = [e for e in res.events if e.kind in ("reg_read", "reg_write")]
    return steps, res.events


def invisible_to(step: Optional[Event], specs: dict[str, RegisterSpec],
                 readers: list[int]) -> frozenset[int]:
    """Readers to which a writer step is invisible: invocation, response and
    reads are invisible to everyone; a write only to the registers' readers."""
    if step is None or step.kind == "reg_read":
        return frozenset(readers)
    return frozenset(readers) - specs[step.reg].readers


# ---------------------------------------------------------------------------
# Phased execution of transformed runs
# ---------------------------------------------------------------------------


class WriterPhase(Frozen):
    __slots__ = ("crash_after",)

    def __init__(self, crash_after: Optional[int]):
        # register accesses before the crash; None: no crash
        _set(self, "crash_after", crash_after)


class ScriptPhase(Frozen):
    __slots__ = ("proc", "script")

    def __init__(self, proc: int, script: tuple):
        _set(self, "proc", proc)
        _set(self, "script", script)  # its register accesses


class FreshRead(Frozen):
    __slots__ = ("proc",)

    def __init__(self, proc: int):
        _set(self, "proc", proc)


class PlanResult(Record):
    __slots__ = ("events", "ops", "accesses", "copy")

    def __init__(self, events: list[Event], ops: list[OpResult], accesses: int,
                 copy: Callable[[], Engine]):
        self.events = events
        self.ops = ops  # the engine's op records, in spawn order
        self.accesses = accesses
        self.copy = copy  # a copier of the finished run


def plan_key(phases: list) -> tuple:
    """A plan's table key, made of ints and never of cells: the writer's
    crash point, each fresh reader, and each script phase's proc and its
    canonical script's id (see _Search), which stands for its value."""
    key = []
    for ph in phases:
        if isinstance(ph, ScriptPhase):
            key.append((ph.proc, id(ph.script)))
        elif isinstance(ph, WriterPhase):
            key.append(-1 if ph.crash_after is None else -2 - ph.crash_after)
        else:
            key.append(ph.proc)
    return tuple(key)


def run_plan(name: str, n: int, phases: list, stage_budget: int,
             runs: Optional[dict] = None, watch_at: Optional[int] = None) -> PlanResult:
    """Run phases strictly in order on a run of the candidate.

    A writer phase may only come first, and it runs solo: event 0 is its
    invoke and events 1..a its first a register accesses. Crashing the
    writer after a accesses is therefore the crash point (a + 1, WRITER):
    the phase is the solo write S up to there. runs maps plan keys to a
    copier of their finished run and its accesses: a plan starts from a copy
    of the run kept under its key's longest prefix and runs only the phases
    after it; only record_solo_write adds to runs. A read is watched for a
    lasso from watch_at steps on (see run_queue).
    """
    key = plan_key(phases)
    done = len(key) if runs else 0  # phases the kept run has run
    while done and key[:done] not in runs:
        done -= 1
    if done:
        copier, accesses = runs[key[:done]]
        eng = copier()
    else:
        crash = [(ph.crash_after + 1, WRITER) for ph in phases[:1]
                 if isinstance(ph, WriterPhase) and ph.crash_after is not None]
        eng, accesses = Engine(build_candidate(name, n), crash_points=crash), 0
    start = len(eng.events)
    for i, ph in enumerate(phases[done:], done):
        if isinstance(ph, WriterPhase) and i == 0:
            eng.spawn_write(MARKER)
        elif isinstance(ph, ScriptPhase):
            eng.spawn_script(ph.proc, ph.script)
        elif isinstance(ph, FreshRead):
            eng.spawn_read(ph.proc)
        else:
            raise TypeError(ph)
        # An op's phase logs its invoke, at most stage_budget accesses, a
        # crash and a respond, so the op's budget binds before the bound.
        eng.run_queue(len(eng.events) + 4 * stage_budget, stage_budget, watch_at=watch_at)
    accesses += sum(e.kind in ("reg_read", "reg_write") for e in eng.events[start:])
    return PlanResult(eng.events, eng.ops, accesses, eng.copy)


# ---------------------------------------------------------------------------
# Transformation stages
# ---------------------------------------------------------------------------


class ExecState(Record):
    """An execution with property P_k, in phase form: the writer crashed
    after k of its m register steps (not at all if k > m), then the replays,
    and every reader but x and p_role silent."""

    __slots__ = ("k", "replays", "x", "p_role")

    def __init__(self, k: int, replays: tuple[ScriptPhase, ...], x: int, p_role: int):
        self.k = k
        self.replays = replays  # p_role's recorded read, if any
        self.x = x  # the correct reader that read the marker
        self.p_role = p_role  # the unconstrained (possibly malicious) reader


class _Plan:
    """A plan as its search keeps it; never its phases or events."""

    __slots__ = ("accesses", "read", "actions")

    def __init__(self, accesses: int, read: OpResult, actions: Optional[tuple] = None):
        self.accesses = accesses
        self.read = read  # the fresh read's record
        self.actions = actions  # the fresh reader's, if its stage keeps them

    @property
    def marker(self) -> bool:
        return isinstance(self.read.ret, SeqTuple) and self.read.ret.u == MARKER


class SearchEnd(Exception):
    """Raised to end the search; attack_search returns it. Its subclasses
    keep their fields in __slots__ and the identity equality of exceptions,
    so they stay hashable like any exception; they show as records do."""

    __slots__ = ()
    __repr__ = Record.__repr__


class ViolationWitness(SearchEnd):
    __slots__ = ("stage", "events", "vclass", "explanation", "stage_log")

    def __init__(self, stage: str, events: list[Event], vclass: str, explanation: str,
                 stage_log: list[str]):
        self.stage = stage
        self.events = events
        self.vclass = vclass
        self.explanation = explanation
        self.stage_log = stage_log


class BlockedWitness(SearchEnd):
    __slots__ = ("stage", "events", "reader", "explanation", "stage_log")

    def __init__(self, stage: str, events: list[Event], reader: int, explanation: str,
                 stage_log: list[str]):
        self.stage = stage
        self.events = events
        self.reader = reader
        self.explanation = explanation
        self.stage_log = stage_log


class Exhausted(SearchEnd):
    __slots__ = ("reason", "stage_log")

    def __init__(self, reason: str, stage_log: list[str]):
        self.reason = reason
        self.stage_log = stage_log


# A `|` union: typing.Union caches its arguments, which would keep every
# freshly imported copy of this module alive.
AttackResult = ViolationWitness | BlockedWitness | Exhausted


class _Search:
    """One search: its budgets, stage log, the solo write's steps, the plans
    it has run, so that each runs once, and the runs later plans extend. A
    plan's key names a script by its id, so every script is canonical: reset
    scripts are the layout's, recorded ones interned for the search's life."""

    def __init__(self, name: str, n: int, budget: int, stage_budget: int):
        self.name = name
        self.n = n
        self.layout = build_candidate(name, n)
        self.rule = IMPLEMENTATIONS[name].rule
        self.specs = self.layout.by_id
        self.readers = list(self.layout.readers)
        self.budget = budget
        self.stage_budget = stage_budget
        self.spent = 0
        self.log: list[str] = []
        self.plans: dict[tuple, _Plan] = {}
        self.scripts: dict[tuple, tuple] = {}  # recorded script -> its first copy
        self.resets = self.layout.resets
        # Execution S: its register steps s^1..s^m; its runs are the first kept.
        self.runs: dict = {}
        self.steps, _ = record_solo_write(name, n, stage_budget, self.runs)
        self.longest = len(self.steps)  # the most steps of an op it completed
        self.log.append(f"S: solo write took {len(self.steps)} register steps")

    def writer(self, k: int) -> WriterPhase:
        """P_k's writer phase: crashed after k register steps, or complete
        when k is past the last one."""
        return WriterPhase(None if k > len(self.steps) else k)

    def fresh(self, phases: list, reader: int, stage: str, record: bool = False,
              malicious: Optional[int] = None) -> _Plan:
        """Request the phases plus a fresh read by reader. A plan runs the
        first time the search requests it and is recalled after that; either
        way its accesses are charged and the same notes are written. With
        record, a plan reading the marker keeps the reader's accesses, and
        the search its finished run, which a C or E plan extends.

        Only a first run can end the search: a read stopped at a lasso or the
        stage budget raises a BlockedWitness, and a read that dodges the
        marker with only malicious exempt raises a ViolationWitness once the
        checker confirms it. A recalled plan's key fixes its phases, hence
        its malicious process and verdict: its first run raised nothing."""
        phases = phases + [FreshRead(reader)]
        key = plan_key(phases)
        plan = self.plans.get(key)
        res = None
        if plan is None:
            res = run_plan(self.name, self.n, phases, self.stage_budget, self.runs,
                           self.longest + 1)
            plan = self.plans[key] = _Plan(res.accesses, res.ops[-1])
            if plan.read.status == "completed":
                self.longest = max(self.longest, plan.read.steps)
            if record and plan.marker:
                actions = recorded_actions(res.events, reader)
                plan.actions = self.scripts.setdefault(actions, actions)
                self.runs[key] = res.copy, res.accesses
        elif record and plan.marker and plan.actions is None:
            raise StagePreconditionFailed(
                f"{stage}: the plan's first run kept no accesses to replay")
        self.spent += plan.accesses
        read = plan.read
        if read.status != "completed":  # a first run: it ends the search
            self.log.append(f"{stage}: read by {reader} blocked")
            if read.reason == "per-op budget":
                why = (f"still pending after {self.stage_budget} of its steps "
                       "under a fair schedule")
            else:
                why = (f"never completes: {read.reason}, a fair cycle that "
                       "repeats forever")
            raise BlockedWitness(stage, res.events, reader,
                                 f"read by correct process {reader} {why}",
                                 self.log)
        if not plan.marker:
            self.log.append(f"{stage}: read by {reader} returned {read.ret!r}, "
                            "not the marker")
            if res is not None and malicious is not None:
                # A C/E-stage read that dodges the marker contradicts the
                # proof's linearizability step.
                for v in self.verdicts(res.ops, malicious):
                    if not v.ok:
                        raise ViolationWitness(stage, res.events, v.vclass,
                                               v.explanation, self.log)
        return plan

    def verdicts(self, ops: list[OpResult], malicious: Optional[int]) -> tuple:
        """Properties 2 and 1 of a plan's history; only the malicious
        process, if any, is exempt."""
        faults = {p: Correct() for p in [WRITER] + self.readers}
        if malicious is not None:
            faults[malicious] = Malicious(())
        history = checker.extract_history(ops, faults)
        return (checker.check_property2(history, True),
                checker.check_property1(history, True))


def attack_search(
    name: str,
    n: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
    stage_budget: int = DEFAULT_STAGE_BUDGET,
) -> AttackResult:
    """Search for a concrete counterexample execution against a candidate.

    Follows the removal argument: starting from a completed solo write plus
    one read, repeatedly crash the writer one step earlier, replaying the one
    process allowed to misbehave, until either some fresh read blocks
    (BlockedWitness), a forced read avoids the marker (ViolationWitness), or
    the writer has no steps left and a correct reader still reads the marker
    (terminal ViolationWitness). Candidates outside the register budget make
    every branch die; that is Exhausted, not an error. Spending more than
    ``budget`` register accesses also ends the search with Exhausted.

    Sibling role assignments ask for many of the same plans, so the search
    runs each distinct plan once and recalls it when asked again; recorded
    scripts are interned, so a plan is told apart by value. A plan keeps
    only its accesses, its fresh read's record and, where a stage replays
    them, the reader's recorded accesses and its finished run, which the
    next stage's plan starts from. Every request, run or recalled,
    is charged its plan's accesses, so the result, stage log and witness
    are those of re-running every request; only a first run can end the
    search.
    """
    if n < 3:
        raise ValueError("the impossibility setting needs n >= 3")
    if budget <= 0 or stage_budget <= 0:
        raise ValueError(f"attack budgets must be positive, not {budget} "
                         f"(search) and {stage_budget} (stage)")
    search = _Search(name, n, budget, stage_budget)
    try:
        for q0 in search.readers:
            for p0 in [r for r in search.readers if r != q0]:
                _drive_chain(search, ExecState(len(search.steps) + 1, (),
                                               x=q0, p_role=p0))
        raise Exhausted("all branches exhausted", search.log)
    except SearchEnd as end:
        # Returned as a value: drop the traceback, which would pin every
        # frame it passed through and, by their f_back, the caller's too.
        return end.with_traceback(None)


def _drive_chain(search: _Search, state: ExecState) -> None:
    """Drive one (q, p) role assignment down from P_{m+1} to P_0."""
    # Establish the base execution A_{k}: fresh read after the writer phase.
    plan = search.fresh([search.writer(state.k), *state.replays], state.x,
                        f"A_{state.k}(x={state.x})")
    if not plan.marker:
        return  # dead branch

    while state.k > 0:
        if search.spent > search.budget:
            raise Exhausted("budget exhausted", search.log)
        state = apply_transformation_chain(search, state)
        if state is None:
            return

    # P_0: the writer crashed right after its invocation. Its invocation is
    # invisible to everyone, so drop the writer entirely (A_0'): a correct
    # reader reading the marker with zero writer steps breaks Property 1.
    phases = list(state.replays)
    if not search.fresh(phases, state.x, "A_0'").marker:
        return
    # The plan keeps no events and only its read's record, so its tiny run
    # is made again for the witness's events and the history's ops.
    res = run_plan(search.name, search.n, phases + [FreshRead(state.x)],
                   search.stage_budget)
    assert not any(e.proc == WRITER for e in res.events), "writer acted in A_0'"
    v1 = search.verdicts(res.ops, state.p_role)[1]
    if v1.ok:  # pragma: no cover - the marker was never written
        raise StagePreconditionFailed("A_0' read the marker yet Property 1 holds")
    search.log.append(f"A_0': reader {state.x} read the marker with zero writer steps")
    raise ViolationWitness("A_0'", res.events, v1.vclass, v1.explanation,
                           search.log)


def apply_transformation_chain(search: _Search,
                               state: ExecState) -> Optional[ExecState]:
    """One induction step: from an execution with P_k produce one with
    P_{k-1}, or None when every branch dies. A witness found on the way
    ends the search."""
    k = state.k
    prev_step = search.steps[k - 2] if k >= 2 else None  # s^{k-1}; None = invocation
    inv = invisible_to(prev_step, search.specs, search.readers)
    case1 = prev_step is None or state.x in inv
    # B_{k-1}: crash the writer one step earlier, replay, rerun x fresh; in
    # case 2, x's read is replayed next if some reader misses s^{k-1}.
    b_phases: list = [search.writer(k - 1), *state.replays]
    plan_b = search.fresh(b_phases, state.x, f"B_{k-1}(x={state.x})",
                          record=not case1 and bool(inv))
    if not plan_b.marker:
        return None

    if not inv and search.rule != RULE_UNRESTRICTED:
        raise StagePreconditionFailed(
            f"step s^{k-1} visible to every reader despite the register budget"
        )

    if case1:
        search.log.append(f"B_{k-1}: s^{k-1} invisible to {state.x}; case 1")
        return ExecState(k - 1, state.replays, state.x, state.p_role)

    # Subcase 2a hands the read to a silent reader the step is invisible
    # to; subcase 2b applies when the step is invisible to the unconstrained
    # reader, and then any silent reader will do.
    silent = frozenset(search.readers) - {state.x, state.p_role}
    tries = [(r, False) for r in sorted(inv & silent)]
    if state.p_role in inv:
        tries += [(r, True) for r in sorted(silent)]
    for r, subcase_b in tries:
        nxt = _try_case2(search, state, b_phases, plan_b.actions, r, subcase_b)
        if nxt is not None:
            return nxt
    search.log.append(f"B_{k-1}: no eligible reader for s^{k-1}; branch dead")
    return None


def _try_case2(search: _Search, state: ExecState, b_phases: list,
               x_actions: tuple, r: int, subcase_b: bool) -> Optional[ExecState]:
    """Case 2 with the silent reader r: stages C and D, then, in subcase 2b
    (s^{k-1} invisible to p_role rather than to r), stages E and F."""
    k, x, p = state.k, state.x, state.p_role
    w = b_phases[0]
    # C_{k-1}^r: after x's read, malicious p resets its registers and the
    # correct silent reader r reads; linearizability forces the marker.
    c_phases = b_phases + [FreshRead(x), ScriptPhase(p, search.resets.get(p, ()))]
    if not search.fresh(c_phases, r, f"C_{k-1}^{r}", malicious=p).marker:
        return None
    # D_{k-1}^r: drop p's steps; x replays its recorded read.
    d_replay = ScriptPhase(x, x_actions)
    plan_d = search.fresh([w, d_replay], r, f"D_{k-1}^{r}", record=subcase_b)
    if not plan_d.marker:
        return None
    if not subcase_b:
        search.log.append(f"D_{k-1}^{r}: case 2a; x={r}, malicious role -> {x}")
        return ExecState(k - 1, (d_replay,), x=r, p_role=x)
    # E_{k-1}^r: x (malicious now) resets; the removed reader p reads.
    e_phases = [w, d_replay, FreshRead(r), ScriptPhase(x, search.resets.get(x, ()))]
    if not search.fresh(e_phases, p, f"E_{k-1}^{r}", malicious=x).marker:
        return None
    # F_{k-1}^r: drop x's steps; r replays its D-read; p reads fresh.
    f_replay = ScriptPhase(r, plan_d.actions)
    if not search.fresh([w, f_replay], p, f"F_{k-1}^{r}").marker:
        return None
    search.log.append(f"F_{k-1}^{r}: case 2b; x={p}, malicious role -> {r}")
    return ExecState(k - 1, (f_replay,), x=p, p_role=r)
