"""Malicious behavior scripts, record-replay adversaries, and the attack
harness that drives a candidate register implementation through the
impossibility argument's execution transformations.

The harness operationalizes indistinguishability: instead of reasoning about
what a reader can know, it re-runs executions from scratch with the writer
crashed one step earlier and the would-be malicious process replaying its
recorded register accesses verbatim. Every execution is a strict sequence of
phases (writer prefix, replay and reset scripts, one fresh read), which is
exactly the shape of the proof's executions S, A_k, B_{k-1}, C/D/E/F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import checker
from .core import (
    CellValue,
    Correct,
    Event,
    Malicious,
    RegisterFile,
    RegisterSpec,
    SeqTuple,
    decode_cell,
    encode_cell,
)
from .constructions import (IMPLEMENTATIONS, RULE_THM1, RULE_THM2,
                            RULE_UNRESTRICTED, WRITER, build_instance)
from .sim import Engine

MARKER: bytes = b"\x01"

DEFAULT_STAGE_BUDGET = 100_000


class StagePreconditionFailed(Exception):
    """An execution transformation's entry property did not hold; this
    signals a harness bug, not a candidate failure."""


class WriterBlocked(Exception):
    """The candidate's solo write exceeded its budget."""


# ---------------------------------------------------------------------------
# Adversary scripts
# ---------------------------------------------------------------------------


class Idle:
    def machine(self, registers: RegisterFile, proc: int):
        return
        yield  # pragma: no cover

    def to_json(self) -> dict:
        return {"kind": "idle"}


class ResetAll:
    """Write initial values to every register the process can write, in
    register-id order."""

    def machine(self, registers: RegisterFile, proc: int):
        for rid in registers.writable_by(proc):
            yield ("w", rid, registers.specs[rid].initial)

    def to_json(self) -> dict:
        return {"kind": "resetall"}


@dataclass
class LieValue:
    reg: str
    cell: CellValue

    def machine(self, registers: RegisterFile, proc: int):
        yield ("w", self.reg, self.cell)

    def to_json(self) -> dict:
        return {"kind": "lie", "reg": self.reg, "cell": encode_cell(self.cell)}


@dataclass
class Replay:
    """Re-issue a recorded access sequence verbatim: writes carry the
    recorded values; reads re-read the recorded registers (results unused)."""

    actions: tuple[tuple, ...]  # ("w", reg, cell) | ("r", reg)

    def machine(self, registers: RegisterFile, proc: int):
        for action in self.actions:
            yield action

    def to_json(self) -> dict:
        return {
            "kind": "replay",
            "actions": [
                {"a": "w", "reg": a[1], "cell": encode_cell(a[2])}
                if a[0] == "w"
                else {"a": "r", "reg": a[1]}
                for a in self.actions
            ],
        }


@dataclass
class Sequence:
    items: tuple

    def machine(self, registers: RegisterFile, proc: int):
        for item in self.items:
            yield from item.machine(registers, proc)

    def to_json(self) -> dict:
        return {"kind": "seq", "items": [i.to_json() for i in self.items]}


def _reg(obj: dict) -> str:
    if not isinstance(obj["reg"], str):
        raise ValueError(f"register id must be a string, not {obj['reg']!r}")
    return obj["reg"]


def script_from_json(obj: dict):
    kind = obj["kind"]
    if kind == "idle":
        return Idle()
    if kind == "resetall":
        return ResetAll()
    if kind == "lie":
        return LieValue(_reg(obj), decode_cell(obj["cell"]))
    if kind == "replay":
        return Replay(
            tuple(
                ("w", _reg(a), decode_cell(a["cell"]))
                if a["a"] == "w"
                else ("r", _reg(a))
                for a in obj["actions"]
            )
        )
    if kind == "seq":
        return Sequence(tuple(script_from_json(i) for i in obj["items"]))
    raise ValueError(f"unknown script kind {kind!r}")


def recorded_actions(events: list[Event], proc: int) -> tuple[tuple, ...]:
    """Extract a process's register accesses from a trace for replay."""
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


@dataclass(frozen=True)
class SoloStep:
    index: int  # 1-based position among the writer's register accesses
    kind: str  # "reg_read" | "reg_write"
    reg: str


def record_solo_write(name: str, n: int, budget: int = DEFAULT_STAGE_BUDGET):
    """Execution S: a complete solo Write of the marker, readers silent.

    Returns (steps, events) where steps are the writer's register accesses
    s^1..s^m in order.
    """
    inst = build_candidate(name, n)
    eng = Engine(inst.by_id)
    op = eng.spawn_op(WRITER, "Write", MARKER, inst.write_machine(MARKER))
    eng.run_queue(step_budget=budget)
    if op.status != "completed":
        raise WriterBlocked(
            f"candidate {name}: solo write did not finish within {budget} steps"
        )
    accesses = [e for e in eng.events if e.kind in ("reg_read", "reg_write")]
    steps = [SoloStep(i + 1, e.kind, e.reg) for i, e in enumerate(accesses)]
    return steps, eng.events


def invisible_to(step: Optional[SoloStep], specs: dict[str, RegisterSpec],
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
    script: object  # Replay | ResetAll


@dataclass(frozen=True)
class FreshRead:
    proc: int


@dataclass
class PlanResult:
    events: list[Event]
    reads: list[tuple[int, str, object]]  # (proc, status, returned)
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
    eng = Engine(inst.by_id, crash_points=crash)
    reads: list[tuple[int, str, object]] = []
    for i, ph in enumerate(phases):
        if isinstance(ph, WriterPhase) and i == 0:
            eng.spawn_op(WRITER, "Write", MARKER, inst.write_machine(MARKER))
            eng.run_queue(step_budget=len(eng.events) + stage_budget)
        elif isinstance(ph, ScriptPhase):
            eng.spawn_script(ph.proc, ph.script.machine(eng.registers, ph.proc))
            eng.run_queue(step_budget=len(eng.events) + stage_budget)
        elif isinstance(ph, FreshRead):
            op = eng.spawn_op(ph.proc, "Read", None, inst.read_machine(ph.proc))
            eng.run_queue(
                step_budget=len(eng.events) + 4 * stage_budget,
                per_op_budget=stage_budget,
            )
            reads.append((ph.proc, op.status, op.ret))
        else:
            raise TypeError(ph)
    accesses = sum(e.kind in ("reg_read", "reg_write") for e in eng.events)
    return PlanResult(eng.events, reads, accesses)


def _is_marker(ret) -> bool:
    return isinstance(ret, SeqTuple) and ret.u == MARKER


# ---------------------------------------------------------------------------
# Transformation stages
# ---------------------------------------------------------------------------


@dataclass
class ExecState:
    """An execution with property P_k, in phase form."""

    k: int
    w_phase: WriterPhase
    replays: tuple[ScriptPhase, ...]  # Replay scripts
    x: int  # the correct reader that read the marker
    p_role: int  # the unconstrained (possibly malicious) reader
    z: frozenset[int]


@dataclass
class ViolationWitness:
    stage: str
    events: list[Event]
    vclass: str
    explanation: str
    stage_log: list[str]


@dataclass
class BlockedWitness:
    stage: str
    events: list[Event]
    reader: int
    explanation: str
    stage_log: list[str]


@dataclass
class Exhausted:
    reason: str
    stage_log: list[str]


AttackResult = object  # ViolationWitness | BlockedWitness | Exhausted


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

    def run(self, phases: list) -> PlanResult:
        res = run_plan(self.name, self.n, phases, self.stage_budget)
        self.spent += res.accesses
        return res

    def out_of_budget(self) -> bool:
        return self.spent > self.budget

    def note(self, msg: str) -> None:
        self.log.append(msg)

    def verdicts(self, res: PlanResult, malicious: Optional[int]) -> dict:
        """Properties 1 and 2 of a plan's history; only the malicious
        process, if any, is exempt."""
        faults = {p: Correct() for p in [WRITER] + self.readers}
        if malicious is not None:
            faults[malicious] = Malicious(Idle())
        history = checker.extract_history(res.events, faults)
        return {
            "property1": checker.check_property1(history, True),
            "property2": checker.check_property2(history, True),
        }

    def fresh_read_outcome(self, res: PlanResult, stage: str, reader: int):
        """Classify the final fresh read: marker, Blocked, or a dead branch.

        A non-marker return at a stage where linearizability forces the
        marker is itself a violation; it is verified with the checker before
        being reported.
        """
        proc, status, ret = res.reads[-1]
        if status != "completed":
            self.note(f"{stage}: read by {proc} blocked")
            return BlockedWitness(
                stage,
                res.events,
                proc,
                f"read by correct process {proc} still pending after "
                f"{self.stage_budget} of its steps under a fair schedule",
                self.log,
            )
        if _is_marker(ret):
            return "marker"
        self.note(f"{stage}: read by {proc} returned {ret!r}, not the marker")
        return "other"

    def linearizability_violation(self, res: PlanResult, stage: str,
                                  malicious: Optional[int]):
        """A C/E-stage read that dodges the marker contradicts the proof's
        linearizability step; confirm with the checker and report."""
        verdicts = self.verdicts(res, malicious)
        for name in ("property2", "property1"):
            v = verdicts[name]
            if not v.ok:
                return ViolationWitness(
                    stage, res.events, v.vclass, v.explanation, self.log
                )
        return None


def attack_search(
    name: str,
    n: int,
    budget: int = 10_000_000,
    stage_budget: int = DEFAULT_STAGE_BUDGET,
) -> AttackResult:
    """Search for a concrete counterexample execution against a candidate.

    Follows the removal argument: starting from a completed solo write plus
    one read, repeatedly crash the writer one step earlier, replaying the one
    process allowed to misbehave, until either some fresh read blocks
    (BlockedWitness), a forced read avoids the marker (ViolationWitness), or
    the writer has no steps left and a correct reader still reads the marker
    (terminal ViolationWitness). Candidates outside the register budget make
    every branch die; that is Exhausted, not an error.
    """
    if n < 3:
        raise ValueError("the impossibility setting needs n >= 3")
    if budget <= 0 or stage_budget <= 0:
        raise ValueError(f"attack budgets must be positive, not {budget} "
                         f"(search) and {stage_budget} (stage)")
    search = _Search(name, n, budget, stage_budget)
    steps, _ = record_solo_write(name, n, stage_budget)
    m = len(steps)
    search.note(f"S: solo write took {m} register steps")

    for q0 in search.readers:
        for p0 in [r for r in search.readers if r != q0]:
            state = ExecState(m + 1, WriterPhase(None), (), x=q0, p_role=p0,
                              z=frozenset(search.readers) - {q0, p0})
            result = _drive_chain(search, state, steps, m)
            if isinstance(result, (ViolationWitness, BlockedWitness)):
                return result
            if result == "budget":
                return Exhausted("budget exhausted", search.log)
    return Exhausted("all branches exhausted", search.log)


def _run_fresh(search: _Search, state_phases: list, reader: int, stage: str):
    res = search.run(state_phases + [FreshRead(reader)])
    outcome = search.fresh_read_outcome(res, stage, reader)
    return res, outcome


def _drive_chain(search: _Search, state: ExecState, steps: list[SoloStep], m: int):
    """Drive one (q, p) role assignment down from P_{m+1} to P_0."""
    # Establish the base execution A_{k}: fresh read after the writer phase.
    _, outcome = _run_fresh(search, [state.w_phase, *state.replays], state.x,
                            f"A_{state.k}(x={state.x})")
    if isinstance(outcome, BlockedWitness):
        return outcome
    if outcome != "marker":
        return None  # dead branch

    while state.k > 0:
        if search.out_of_budget():
            return "budget"
        nxt = apply_transformation_chain(search, state, steps, m)
        if nxt is None:
            return None
        if isinstance(nxt, (ViolationWitness, BlockedWitness)):
            return nxt
        state = nxt

    # P_0: the writer crashed right after its invocation. Its invocation is
    # invisible to everyone, so drop the writer entirely (A_0'): a correct
    # reader reading the marker with zero writer steps breaks Property 1.
    res, outcome = _run_fresh(search, list(state.replays), state.x, "A_0'")
    if isinstance(outcome, BlockedWitness):
        return outcome
    if outcome != "marker":
        return None
    assert not any(e.proc == WRITER for e in res.events), "writer acted in A_0'"
    v1 = search.verdicts(res, state.p_role)["property1"]
    if v1.ok:  # pragma: no cover - the marker was never written
        raise StagePreconditionFailed("A_0' read the marker yet Property 1 holds")
    search.note(
        f"A_0': reader {state.x} read the marker with zero writer steps"
    )
    return ViolationWitness(
        "A_0'",
        res.events,
        v1.vclass,
        v1.explanation,
        search.log,
    )


def apply_transformation_chain(search: _Search, state: ExecState,
                               steps: list[SoloStep], m: int):
    """One induction step: from an execution with P_k produce one with
    P_{k-1}, or a witness, or None when every branch dies."""
    k = state.k
    # B_{k-1}: crash the writer one step earlier, replay, rerun x fresh.
    b_w = WriterPhase(min(k - 1, m))
    b_phases: list = [b_w, *state.replays]
    res_b, outcome = _run_fresh(search, b_phases, state.x, f"B_{k-1}(x={state.x})")
    if isinstance(outcome, BlockedWitness):
        return outcome
    if outcome != "marker":
        return None

    prev_step = steps[k - 2] if k - 1 >= 1 else None  # s^{k-1}; None = invocation
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
        outcome = _try_case2(search, state, b_phases, x_actions, r, k, subcase_b)
        if outcome is not None:
            return outcome
    search.note(f"B_{k-1}: no eligible reader for s^{k-1}; branch dead")
    return None


def _try_case2(search: _Search, state: ExecState, b_phases: list,
               x_actions: tuple, r: int, k: int, subcase_b: bool):
    """Case 2 with the silent reader r: stages C and D, then, in subcase 2b
    (s^{k-1} invisible to p_role rather than to r), stages E and F."""
    # C_{k-1}^r: after x's read, malicious p_role resets its registers and
    # the correct silent reader r reads; linearizability forces the marker.
    c_phases = b_phases + [FreshRead(state.x), ScriptPhase(state.p_role, ResetAll())]
    res_c, outcome = _run_fresh(search, c_phases, r, f"C_{k-1}^{r}")
    if isinstance(outcome, BlockedWitness):
        return outcome
    if outcome != "marker":
        return search.linearizability_violation(res_c, f"C_{k-1}^{r}", state.p_role)
    # D_{k-1}^r: drop p_role's steps; x replays its recorded read.
    d_w = b_phases[0]
    d_replays = tuple(rb for rb in state.replays if rb.proc != state.p_role) + (
        ScriptPhase(state.x, Replay(x_actions)),
    )
    res_d, outcome = _run_fresh(search, [d_w, *d_replays], r, f"D_{k-1}^{r}")
    if isinstance(outcome, BlockedWitness):
        return outcome
    if outcome != "marker":
        return None
    if not subcase_b:
        search.note(f"D_{k-1}^{r}: case 2a; x={r}, malicious role -> {state.x}")
        return ExecState(k - 1, d_w, d_replays, x=r, p_role=state.x,
                         z=(state.z - {r}) | {state.p_role})
    # E_{k-1}^r: x (malicious now) resets; the removed reader p_role reads.
    e_phases = [d_w, *d_replays, FreshRead(r), ScriptPhase(state.x, ResetAll())]
    res_e, outcome = _run_fresh(search, e_phases, state.p_role, f"E_{k-1}^{r}")
    if isinstance(outcome, BlockedWitness):
        return outcome
    if outcome != "marker":
        return search.linearizability_violation(res_e, f"E_{k-1}^{r}", state.x)
    # F_{k-1}^r: drop x's steps; r replays its D-read; p_role reads fresh.
    r_actions = recorded_actions(res_d.events, r)
    f_replays = tuple(rb for rb in d_replays if rb.proc != state.x) + (
        ScriptPhase(r, Replay(r_actions)),
    )
    res_f, outcome = _run_fresh(search, [d_w, *f_replays], state.p_role,
                                f"F_{k-1}^{r}")
    if isinstance(outcome, BlockedWitness):
        return outcome
    if outcome != "marker":
        return None
    search.note(f"F_{k-1}^{r}: case 2b; x={state.p_role}, malicious role -> {r}")
    return ExecState(k - 1, d_w, f_replays, x=state.p_role, p_role=r,
                     z=(state.z - {r}) | {state.x})
