"""The attack harness: it drives a candidate register implementation through
the impossibility argument's execution transformations.

The harness operationalizes indistinguishability: instead of reasoning about
what a reader can know, it re-runs executions from scratch with the writer
crashed one step earlier and the would-be malicious process replaying its
recorded register accesses verbatim. A script is the tuple of accesses a
process issues, as ``recorded_actions`` extracts them. Every execution is a
strict sequence of phases (writer prefix, replay and reset scripts, one
fresh read), which is exactly the shape of the proof's executions S, A_k,
B_{k-1}, C/D/E/F.
A found witness or the spent search budget ends the search: it is raised
from the stage that finds it, and ``attack_search`` returns it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import checker
from .core import Correct, Event, Malicious, RegisterSpec, SeqTuple
from .constructions import (IMPLEMENTATIONS, RULE_THM1, RULE_THM2,
                            RULE_UNRESTRICTED, WRITER, build_instance)
from .sim import Engine, OpResult, reset_script

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


def build_candidate(name: str, n: int):
    """Build an implementation and enforce its register budget, checked
    once per (table entry, n)."""
    inst = build_instance(name, n)
    impl = IMPLEMENTATIONS[name]
    if impl.rule in (RULE_THM1, RULE_THM2) and (impl, n) not in _WITHIN_BUDGET:
        for spec in inst.specs:
            limit = n - 1 if (spec.writer == WRITER or impl.rule == RULE_THM1) else n
            if len(spec.readers) > limit:
                raise ValueError(
                    f"candidate {name}: register {spec.reg_id} readable by "
                    f"{len(spec.readers)} readers exceeds the {impl.rule} budget"
                )
        _WITHIN_BUDGET.add((impl, n))
    return inst


def record_solo_write(name: str, n: int, budget: int = DEFAULT_STAGE_BUDGET):
    """Execution S: a complete solo Write of the marker, readers silent.

    Returns (steps, events) where steps are the writer's register access
    events s^1..s^m in order.
    """
    inst = build_candidate(name, n)
    eng = Engine(inst.by_id)
    op = eng.spawn_op(WRITER, "Write", MARKER, inst.write_machine(MARKER))
    eng.run_queue(step_budget=budget)
    if op.status != "completed":
        raise WriterBlocked(
            f"candidate {name}: solo write did not finish within {budget} steps"
        )
    steps = [e for e in eng.events if e.kind in ("reg_read", "reg_write")]
    return steps, eng.events


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


@dataclass(frozen=True)
class WriterPhase:
    crash_after: Optional[int]  # register accesses before the crash; None: no crash


@dataclass(frozen=True)
class ScriptPhase:
    proc: int
    script: tuple  # its register accesses


@dataclass(frozen=True)
class FreshRead:
    proc: int


@dataclass
class PlanResult:
    events: list[Event]
    ops: list[OpResult]  # the engine's op records, in spawn order
    accesses: int


def run_plan(name: str, n: int, phases: list, stage_budget: int) -> PlanResult:
    """Run phases strictly in order on a fresh candidate instance.

    A writer phase may only come first, and it runs solo: event 0 is its
    invoke and events 1..a its first a register accesses. Crashing the
    writer after a accesses is therefore the crash point (a + 1, WRITER).
    """
    inst = build_candidate(name, n)
    crash = [(ph.crash_after + 1, WRITER) for ph in phases[:1]
             if isinstance(ph, WriterPhase) and ph.crash_after is not None]
    eng = Engine(inst.by_id, crash_points=crash, state=inst.state)
    for i, ph in enumerate(phases):
        if isinstance(ph, WriterPhase) and i == 0:
            eng.spawn_op(WRITER, "Write", MARKER, inst.write_machine(MARKER))
            eng.run_queue(step_budget=len(eng.events) + stage_budget)
        elif isinstance(ph, ScriptPhase):
            eng.spawn_script(ph.proc, ph.script)
            eng.run_queue(step_budget=len(eng.events) + stage_budget)
        elif isinstance(ph, FreshRead):
            eng.spawn_op(ph.proc, "Read", None, inst.read_machine(ph.proc))
            eng.run_queue(
                step_budget=len(eng.events) + 4 * stage_budget,
                per_op_budget=stage_budget,
            )
        else:
            raise TypeError(ph)
    accesses = sum(e.kind in ("reg_read", "reg_write") for e in eng.events)
    return PlanResult(eng.events, eng.ops, accesses)


# ---------------------------------------------------------------------------
# Transformation stages
# ---------------------------------------------------------------------------


@dataclass
class ExecState:
    """An execution with property P_k, in phase form."""

    k: int
    w_phase: WriterPhase
    replays: tuple[ScriptPhase, ...]  # recorded accesses, replayed
    x: int  # the correct reader that read the marker
    p_role: int  # the unconstrained (possibly malicious) reader
    z: frozenset[int]


class SearchEnd(Exception):
    """Raised to end the search; attack_search returns it. Subclasses keep
    identity equality (eq=False), so they stay hashable like any exception."""


@dataclass(eq=False)
class ViolationWitness(SearchEnd):
    stage: str
    events: list[Event]
    vclass: str
    explanation: str
    stage_log: list[str]


@dataclass(eq=False)
class BlockedWitness(SearchEnd):
    stage: str
    events: list[Event]
    reader: int
    explanation: str
    stage_log: list[str]


@dataclass(eq=False)
class Exhausted(SearchEnd):
    reason: str
    stage_log: list[str]


# A `|` union: typing.Union caches its arguments, which would keep every
# freshly imported copy of this module alive.
AttackResult = ViolationWitness | BlockedWitness | Exhausted


class _Search:
    def __init__(self, name: str, n: int, budget: int, stage_budget: int):
        self.name = name
        self.n = n
        self.inst0 = build_candidate(name, n)
        self.rule = IMPLEMENTATIONS[name].rule
        self.specs = self.inst0.by_id
        self.readers = list(self.inst0.readers)
        self.budget = budget
        self.stage_budget = stage_budget
        self.spent = 0
        self.log: list[str] = []
        # Execution S: the writer's register steps s^1..s^m.
        self.steps, _ = record_solo_write(name, n, stage_budget)
        self.note(f"S: solo write took {len(self.steps)} register steps")

    def note(self, msg: str) -> None:
        self.log.append(msg)

    def fresh(self, phases: list, reader: int, stage: str):
        """Run the phases plus a fresh read by reader. Returns the plan and
        whether the read returned the marker; a read still pending at the
        stage budget raises a BlockedWitness."""
        res = run_plan(self.name, self.n, phases + [FreshRead(reader)],
                       self.stage_budget)
        self.spent += res.accesses
        read = res.ops[-1]
        if read.status != "completed":
            self.note(f"{stage}: read by {reader} blocked")
            if read.reason == "per-op budget":
                why = (f"still pending after {self.stage_budget} of its steps "
                       "under a fair schedule")
            else:
                why = (f"never completes: {read.reason}, a fair cycle that "
                       "repeats forever")
            raise BlockedWitness(stage, res.events, reader,
                                 f"read by correct process {reader} {why}",
                                 self.log)
        if isinstance(read.ret, SeqTuple) and read.ret.u == MARKER:
            return res, True
        self.note(f"{stage}: read by {reader} returned {read.ret!r}, not the marker")
        return res, False

    def verdicts(self, res: PlanResult, malicious: Optional[int]) -> dict:
        """Properties 1 and 2 of a plan's history; only the malicious
        process, if any, is exempt."""
        faults = {p: Correct() for p in [WRITER] + self.readers}
        if malicious is not None:
            faults[malicious] = Malicious(())
        history = checker.extract_history(res.events, faults)
        return {
            "property1": checker.check_property1(history, True),
            "property2": checker.check_property2(history, True),
        }

    def linearizability_violation(self, res: PlanResult, stage: str,
                                  malicious: Optional[int]) -> None:
        """A C/E-stage read that dodges the marker contradicts the proof's
        linearizability step; raise the witness once the checker confirms
        it."""
        verdicts = self.verdicts(res, malicious)
        for name in ("property2", "property1"):
            v = verdicts[name]
            if not v.ok:
                raise ViolationWitness(
                    stage, res.events, v.vclass, v.explanation, self.log
                )


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
                _drive_chain(search, ExecState(
                    len(search.steps) + 1, WriterPhase(None), (), x=q0,
                    p_role=p0, z=frozenset(search.readers) - {q0, p0}))
        raise Exhausted("all branches exhausted", search.log)
    except SearchEnd as end:
        # Returned as a value: drop the traceback, which would pin every
        # frame it passed through and, by their f_back, the caller's too.
        return end.with_traceback(None)


def _drive_chain(search: _Search, state: ExecState) -> None:
    """Drive one (q, p) role assignment down from P_{m+1} to P_0."""
    # Establish the base execution A_{k}: fresh read after the writer phase.
    _, marker = search.fresh([state.w_phase, *state.replays], state.x,
                             f"A_{state.k}(x={state.x})")
    if not marker:
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
    res, marker = search.fresh(list(state.replays), state.x, "A_0'")
    if not marker:
        return
    assert not any(e.proc == WRITER for e in res.events), "writer acted in A_0'"
    v1 = search.verdicts(res, state.p_role)["property1"]
    if v1.ok:  # pragma: no cover - the marker was never written
        raise StagePreconditionFailed("A_0' read the marker yet Property 1 holds")
    search.note(f"A_0': reader {state.x} read the marker with zero writer steps")
    raise ViolationWitness("A_0'", res.events, v1.vclass, v1.explanation,
                           search.log)


def apply_transformation_chain(search: _Search,
                               state: ExecState) -> Optional[ExecState]:
    """One induction step: from an execution with P_k produce one with
    P_{k-1}, or None when every branch dies. A witness found on the way
    ends the search."""
    k = state.k
    # B_{k-1}: crash the writer one step earlier, replay, rerun x fresh.
    b_w = WriterPhase(min(k - 1, len(search.steps)))
    b_phases: list = [b_w, *state.replays]
    res_b, marker = search.fresh(b_phases, state.x, f"B_{k-1}(x={state.x})")
    if not marker:
        return None

    prev_step = search.steps[k - 2] if k >= 2 else None  # s^{k-1}; None = invocation
    inv = invisible_to(prev_step, search.specs, search.readers)
    if not inv and search.rule != RULE_UNRESTRICTED:
        raise StagePreconditionFailed(
            f"step s^{k-1} visible to every reader despite the register budget"
        )

    if prev_step is None or state.x in inv:
        search.note(f"B_{k-1}: s^{k-1} invisible to {state.x}; case 1")
        return ExecState(k - 1, b_w, state.replays, state.x, state.p_role,
                         state.z)

    x_actions = recorded_actions(res_b.events, state.x)

    # Subcase 2a hands the read to a silent reader the step is invisible
    # to; subcase 2b applies when the step is invisible to the unconstrained
    # reader, and then any silent reader will do.
    tries = [(r, False) for r in sorted(inv & state.z)]
    if state.p_role in inv:
        tries += [(r, True) for r in sorted(state.z)]
    for r, subcase_b in tries:
        nxt = _try_case2(search, state, b_phases, x_actions, r, k, subcase_b)
        if nxt is not None:
            return nxt
    search.note(f"B_{k-1}: no eligible reader for s^{k-1}; branch dead")
    return None


def _try_case2(search: _Search, state: ExecState, b_phases: list,
               x_actions: tuple, r: int, k: int,
               subcase_b: bool) -> Optional[ExecState]:
    """Case 2 with the silent reader r: stages C and D, then, in subcase 2b
    (s^{k-1} invisible to p_role rather than to r), stages E and F."""
    # C_{k-1}^r: after x's read, malicious p_role resets its registers and
    # the correct silent reader r reads; linearizability forces the marker.
    c_phases = b_phases + [FreshRead(state.x), ScriptPhase(
        state.p_role, reset_script(search.inst0.specs, state.p_role))]
    res_c, marker = search.fresh(c_phases, r, f"C_{k-1}^{r}")
    if not marker:
        search.linearizability_violation(res_c, f"C_{k-1}^{r}", state.p_role)
        return None
    # D_{k-1}^r: drop p_role's steps; x replays its recorded read.
    d_w = b_phases[0]
    d_replays = tuple(rb for rb in state.replays if rb.proc != state.p_role) + (
        ScriptPhase(state.x, x_actions),
    )
    res_d, marker = search.fresh([d_w, *d_replays], r, f"D_{k-1}^{r}")
    if not marker:
        return None
    if not subcase_b:
        search.note(f"D_{k-1}^{r}: case 2a; x={r}, malicious role -> {state.x}")
        return ExecState(k - 1, d_w, d_replays, x=r, p_role=state.x,
                         z=(state.z - {r}) | {state.p_role})
    # E_{k-1}^r: x (malicious now) resets; the removed reader p_role reads.
    e_phases = [d_w, *d_replays, FreshRead(r),
                ScriptPhase(state.x, reset_script(search.inst0.specs, state.x))]
    res_e, marker = search.fresh(e_phases, state.p_role, f"E_{k-1}^{r}")
    if not marker:
        search.linearizability_violation(res_e, f"E_{k-1}^{r}", state.x)
        return None
    # F_{k-1}^r: drop x's steps; r replays its D-read; p_role reads fresh.
    r_actions = recorded_actions(res_d.events, r)
    f_replays = tuple(rb for rb in d_replays if rb.proc != state.x) + (
        ScriptPhase(r, r_actions),
    )
    _, marker = search.fresh([d_w, *f_replays], state.p_role, f"F_{k-1}^{r}")
    if not marker:
        return None
    search.note(f"F_{k-1}^{r}: case 2b; x={state.p_role}, malicious role -> {r}")
    return ExecState(k - 1, d_w, f_replays, x=state.p_role, p_role=r,
                     z=(state.z - {r}) | {state.x})
