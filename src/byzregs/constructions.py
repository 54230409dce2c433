"""The register implementations as step machines: the paper's three
constructions and the candidates its impossibility argument attacks.

Each implementation is a layout, fixed by n, plus a small per-run state. The
layout holds the registers, their classes and any handle tree; it is built
once per (implementation, n) and no run changes it. The state holds only the
paper's local variables. A layout's Write(u) and Read() machines take that
state as their first argument; each sim.Engine, one run, makes its state
from the cached layout and its machines over that state. Machines are
generators over primitive actions (see sim); an operation on an inner
implemented register is a plain sub-generator, so its steps are exactly the
inner machine's steps.

Register value domains nest: the recursive construction stores the outer
algorithm's cells as the payloads of the inner instance's tuples, so a
register three levels deep holds tuples of cells of tuples of cells.
"""

from __future__ import annotations

from typing import Callable, Generator, NamedTuple, Optional

from .core import (
    BOTTOM,
    CellValue,
    Commit,
    DONE,
    MalformedScenario,
    Payload,
    Plain,
    Prepare,
    RegisterSpec,
    SeqTuple,
    Signed,
    SignatureOracle,
    specs_by_id,
)

U0: bytes = b""
T0 = SeqTuple(0, U0)

WRITER = 0


def reader_ids(n: int) -> list[int]:
    return list(range(1, n + 1))


def _plain_ge(cell: CellValue, k: int) -> bool:
    return isinstance(cell, Plain) and cell.t.k >= k


# ---------------------------------------------------------------------------
# Layouts and per-run state
# ---------------------------------------------------------------------------


class Vars:
    """A run's local variables."""

    def __init__(self, **values):
        self.__dict__.update(values)

    def key_items(self, every: bool = True) -> dict:
        """A hashable snapshot of the variables, which takes a signature
        oracle by its issued table, as the one item of a lasso watch's key."""
        return {0: tuple(frozenset(v.issued.items()) if isinstance(v, SignatureOracle)
                         else v for v in self.__dict__.values())}

    def copy(self, like: Optional[Vars] = None) -> Vars:
        """A copy to run on, with a signature oracle's issued table copied.
        (like, an earlier kept copy, is for a state of many Vars to share.)"""
        return Vars(**{k: SignatureOracle(v.issued) if isinstance(v, SignatureOracle)
                       else v for k, v in vars(self).items()})


class Layout:
    """What an implementation fixes for a given n: its readers, its registers
    in declaration order and by id, their initial cells and checker classes,
    and each writer's registers in declaration order (owned) and its reset
    script: writes of them back to their initial cells in register-id order."""

    def __init__(self, readers: list[int], specs: list[RegisterSpec],
                 classify: dict[str, str]):
        self.readers = readers
        self.specs = tuple(specs)
        self.by_id = specs_by_id(self.specs)
        self.initial = {rid: s.initial for rid, s in self.by_id.items()}
        self.classify = classify
        self.owned: dict[int, list[RegisterSpec]] = {}
        for s in self.specs:
            self.owned.setdefault(s.writer, []).append(s)
        self.resets = {p: tuple(("w", s.reg_id, s.initial) for s in
                                sorted(own, key=lambda s: s.reg_id))
                       for p, own in self.owned.items()}

    def new_state(self) -> Vars:
        return Vars(c=0)  # the writer's counter


# ---------------------------------------------------------------------------
# Recursive construction (1WnR from two 1W(n-1)Rs and 1W1Rs)
# ---------------------------------------------------------------------------


class _AtomicHandle:
    """Direct access to one atomic register."""

    def __init__(self, reg_id: str):
        self.reg_id = reg_id

    def read(self, run, actor: int):
        cell = yield ("r", self.reg_id)
        return cell

    def write(self, run, cell: CellValue):
        yield ("w", self.reg_id, cell)


class _Algo1Run(list):
    """The Vars of every level of one run, indexed by Algo1Level.idx: c and
    last_written for w, previous_k for p. changed holds the idx of each
    level whose Vars a machine set since key_items last looked."""

    def __init__(self, levels=()):
        super().__init__(levels)
        self.changed: set[int] = set()

    def key_items(self, every: bool = True) -> dict:
        """Each level's values by idx (none holds an oracle): every level's,
        or those of the levels changed since the last call."""
        items = {i: tuple(vars(self[i]).values())
                 for i in (range(len(self)) if every else self.changed)}
        self.changed.clear()
        return items

    def copy(self, like: Optional[_Algo1Run] = None) -> _Algo1Run:
        """A copy of each level's Vars (none holds an oracle), its dict filled
        directly; a copy only kept shares like's, an earlier kept one's,
        where its values equal."""
        run = _Algo1Run()
        for v, l in zip(self, like or self):
            if like is None or vars(l) != vars(v):
                l = Vars.__new__(Vars)
                l.__dict__.update(vars(v))
            run.append(l)
        return run


class Algo1Level:
    """One recursion level: writer w, distinguished reader p, helper set Q.

    It appends its registers, and then its nested levels', to specs and
    classify, and itself to levels. Its local variables in a run are
    run[self.idx], bound once when a machine starts. A nested level serves
    its parent as an implemented register (read/write). Rwp is always an
    atomic register, so rwp is its id; rwq and rpq are handles or levels.
    A write makes one Prepare and one Commit, each written to both channels.
    """

    def __init__(self, path: str, writer: int, readers: list[int], u0: Payload,
                 levels: list, specs: list, classify: dict):
        self.idx = len(levels)
        levels.append(self)
        self.writer = writer
        readers = sorted(readers)
        self.p = readers[0]
        self.q_list = readers[1:]
        self.t0 = t0 = SeqTuple(0, u0)

        def add(rid: str, w: int, rs: list[int], initial: CellValue, cls: str):
            specs.append(RegisterSpec(rid, w, frozenset(rs), initial))
            classify[rid] = cls

        self.rwp = f"{path}/Rwp"
        add(self.rwp, writer, [self.p], Commit(t0), "wchan")
        self.rqq: dict[tuple[int, int], str] = {}
        for q1 in self.q_list:
            for q2 in self.q_list:
                rid = f"{path}/R{q1}_{q2}"
                add(rid, q1, [q2], Plain(t0), "gossip")
                self.rqq[(q1, q2)] = rid
        if len(readers) == 2:
            q = self.q_list[0]
            add(f"{path}/RwQ", writer, [q], Commit(t0), "wchan")
            add(f"{path}/RpQ", self.p, [q], Plain(t0), "pchan")
            self.rwq: _AtomicHandle | Algo1Level = _AtomicHandle(f"{path}/RwQ")
            self.rpq: _AtomicHandle | Algo1Level = _AtomicHandle(f"{path}/RpQ")
        else:
            m = len(readers) - 1
            self.rwq = Algo1Level(f"{path}/RwQ/I{m}", writer, self.q_list,
                                  Commit(t0), levels, specs, classify)
            self.rpq = Algo1Level(f"{path}/RpQ/I{m}", self.p, self.q_list,
                                  Plain(t0), levels, specs, classify)

    # -- as an implemented register ----------------------------------------

    def read(self, run: _Algo1Run, actor: int):
        """Unwrap the inner tuple to the stored cell; a failed inner read
        surfaces as a bottom cell, which no outer pattern matches."""
        t = yield from self.read_tuple(run, actor)
        if isinstance(t, SeqTuple):
            return t.u
        return BOTTOM

    # -- machines ----------------------------------------------------------

    def write(self, run: _Algo1Run, payload: Payload):
        """Write(u) then w(<k,u>): prepare to p, prepare to Q, commit to p,
        commit to Q, in exactly that order."""
        v = run[self.idx]
        v.c += 1
        run.changed.add(self.idx)
        t = SeqTuple(v.c, payload)
        prepare = Prepare(v.last_written, t)
        yield ("w", self.rwp, prepare)
        yield from self.rwq.write(run, prepare)
        commit = Commit(t)
        yield ("w", self.rwp, commit)
        yield from self.rwq.write(run, commit)
        v.last_written = t
        run.changed.add(self.idx)
        return DONE

    def read_tuple(self, run: _Algo1Run, actor: int) -> Generator:
        """actor's read machine, _r_p or _r_q: the root's Read, and read's."""
        return self._r_p(run) if actor == self.p else self._r_q(run, actor)

    def _r_p(self, run: _Algo1Run):
        v = run[self.idx]
        x = yield ("r", self.rwp)
        if isinstance(x, Commit) and x.t.k >= v.previous_k:
            yield from self.rpq.write(run, Plain(x.t))
            v.previous_k = x.t.k
            run.changed.add(self.idx)
            return x.t
        if isinstance(x, Prepare):
            return x.prev
        return BOTTOM

    def _r_q(self, run: _Algo1Run, q: int):
        x = yield from self.rwq.read(run, q)
        if isinstance(x, Commit):
            return x.t
        if isinstance(x, Prepare):
            winner = yield (
                "fork",
                self._q_thread1(run, q, x.next),
                self._q_thread2(run, q, x.prev, x.next),
            )
            return winner
        return BOTTOM

    def _q_thread1(self, run: _Algo1Run, q: int, t: SeqTuple):
        # Poll the writer's channel until a commit at least as new, or a
        # strictly newer prepare, shows the write has been superseded.
        while True:
            x = yield from self.rwq.read(run, q)
            if isinstance(x, Commit) and x.t.k >= t.k:
                return t
            x = yield from self.rwq.read(run, q)
            if isinstance(x, Prepare) and x.next.k > t.k:
                return t

    def _q_thread2(self, run: _Algo1Run, q: int, lw: SeqTuple, t: SeqTuple):
        # k is read off t, never kept as a bare int: a lasso check finds
        # sequence numbers by their SeqTuples (see the sim docstring).
        x = yield from self.rpq.read(run, q)
        if _plain_ge(x, t.k):
            yield from self._broadcast(q, t)
            return t
        hit = False
        for q1 in self.q_list:
            y = yield ("r", self.rqq[(q1, q)])
            if _plain_ge(y, t.k):
                hit = True
                break
        if hit:
            x = yield from self.rpq.read(run, q)
            if _plain_ge(x, t.k):
                yield from self._broadcast(q, t)
                return t
            # No else branch in the algorithm: the thread ends without a
            # value and only Thread 1 can still resolve the read.
            return None
        return lw

    def _broadcast(self, q: int, t: SeqTuple):
        for q2 in self.q_list:
            yield ("w", self.rqq[(q, q2)], Plain(t))


class Algo1Construction(Layout):
    """Recursive 1WnR construction, writer 0, readers 1..n."""

    def __init__(self, n: int):
        self.levels: list[Algo1Level] = []
        specs: list[RegisterSpec] = []
        classify: dict[str, str] = {}
        self.root = Algo1Level(f"I{n}", WRITER, reader_ids(n), U0,
                               self.levels, specs, classify)
        super().__init__(reader_ids(n), specs, classify)

    def new_state(self) -> _Algo1Run:
        return _Algo1Run(Vars(c=0, last_written=level.t0, previous_k=0)
                         for level in self.levels)

    def write_machine(self, run: _Algo1Run, value: Payload) -> Generator:
        return self.root.write(run, value)

    def read_machine(self, run: _Algo1Run, proc: int) -> Generator:
        return self.root.read_tuple(run, proc)


def algo1_write_step_count(n: int) -> int:
    """Closed form of the write recurrence W(n) = 2 + 2 W(n-1), W(2) = 4."""
    return 6 * 2 ** (n - 2) - 2


# ---------------------------------------------------------------------------
# Two-reader construction (unconditionally wait-free)
# ---------------------------------------------------------------------------


class Algo2Construction(Layout):
    """1W2R from three atomic 1W1Rs; q falls back on its local last_read, and
    p's commit branch is deliberately unguarded (no previous_k)."""

    def __init__(self, n: int = 2):
        if n != 2:
            raise MalformedScenario("algo2 is a 1W2R construction (n = 2)")
        self.p, self.q = 1, 2
        # Rpq carries no previous_k guard here (faithful to the two-reader
        # algorithm), so its monotonicity only holds under an honest writer.
        super().__init__([1, 2], [
            RegisterSpec("I2p/Rwp", WRITER, frozenset([1]), Commit(T0)),
            RegisterSpec("I2p/Rwq", WRITER, frozenset([2]), Commit(T0)),
            RegisterSpec("I2p/Rpq", 1, frozenset([2]), Plain(T0)),
        ], {
            "I2p/Rwp": "wchan",
            "I2p/Rwq": "wchan",
            "I2p/Rpq": "pchan_unguarded",
        })

    def new_state(self) -> Vars:
        # c and last_written for w, last_read for q.
        return Vars(c=0, last_written=T0, last_read=T0)

    def write_machine(self, v: Vars, u: Payload) -> Generator:
        v.c += 1
        t = SeqTuple(v.c, u)
        lw = v.last_written
        yield ("w", "I2p/Rwp", Prepare(lw, t))
        yield ("w", "I2p/Rwq", Prepare(lw, t))
        yield ("w", "I2p/Rwp", Commit(t))
        yield ("w", "I2p/Rwq", Commit(t))
        v.last_written = t
        return DONE

    def read_machine(self, v: Vars, proc: int) -> Generator:
        if proc == self.p:
            return self._read_p()
        if proc == self.q:
            return self._read_q(v)
        raise MalformedScenario(f"process {proc} is not a reader")

    def _read_p(self):
        x = yield ("r", "I2p/Rwp")
        if isinstance(x, Commit):
            yield ("w", "I2p/Rpq", Plain(x.t))
            return x.t
        if isinstance(x, Prepare):
            return x.prev
        return BOTTOM

    def _read_q(self, v: Vars):
        x = yield ("r", "I2p/Rwq")
        if isinstance(x, Commit):
            return x.t
        if isinstance(x, Prepare):
            k = x.next.k
            y = yield ("r", "I2p/Rpq")
            if _plain_ge(y, k):
                v.last_read = x.next
                return x.next
            if v.last_read.k >= k:
                return x.next
            return x.prev
        return BOTTOM


# ---------------------------------------------------------------------------
# Construction from writer-signed tuples (tolerates any number of faulty processes)
# ---------------------------------------------------------------------------


class Algo3Construction(Layout):
    """1WnR over a full matrix of atomic 1W1Rs carrying writer-signed tuples."""

    def __init__(self, n: int):
        # Every run's oracle starts out having issued the initial cell.
        oracle = SignatureOracle()
        cell0 = oracle.sign(T0, WRITER)
        self.issued0 = oracle.issued
        specs, classify = [], {}
        self.reg: dict[tuple[int, int], str] = {}
        for i in [WRITER] + reader_ids(n):
            for j in reader_ids(n):
                rid = f"Is/R{i}_{j}"
                specs.append(RegisterSpec(rid, i, frozenset([j]), cell0))
                classify[rid] = "sig"
                self.reg[(i, j)] = rid
        super().__init__(reader_ids(n), specs, classify)

    def new_state(self) -> Vars:
        return Vars(c=0, oracle=SignatureOracle(self.issued0))

    def write_machine(self, v: Vars, u: Payload) -> Generator:
        v.c += 1
        cell = v.oracle.sign(SeqTuple(v.c, u), WRITER)
        for i in self.readers:
            yield ("w", self.reg[(WRITER, i)], cell)
        return DONE

    def read_machine(self, v: Vars, proc: int) -> Generator:
        if proc not in self.readers:
            raise MalformedScenario(f"process {proc} is not a reader")
        return self._read(v, proc)

    def _read(self, v: Vars, p: int):
        oracle = v.oracle
        tuples: list[Signed] = []
        for i in [WRITER] + self.readers:
            x = yield ("r", self.reg[(i, p)])
            if oracle.verify(x, WRITER):
                tuples.append(x)
        if not tuples:
            # Unreachable while initial cells are intact; substrate corruption.
            return BOTTOM
        best = max(tuples, key=lambda c: c.t.k)
        for i in self.readers:
            yield ("w", self.reg[(p, i)], best)
        return best.t


# ---------------------------------------------------------------------------
# Attack candidates (Theorems 1 and 2)
# ---------------------------------------------------------------------------


class NaiveGossip(Layout):
    """Deliberately broken candidate: the writer announces once on a
    1W(n-1)R and readers forward what they saw through gossip registers,
    trusting each other blindly."""

    def __init__(self, n: int):
        if n < 3:
            raise MalformedScenario("naive-gossip needs n >= 3")
        readers = reader_ids(n)
        t0 = Plain(T0)
        specs = [RegisterSpec("NG/W", WRITER, frozenset(readers[:-1]), t0)]
        self.gossip: dict[int, str] = {}
        for r in readers:
            rid = f"NG/G{r}"
            others = frozenset(x for x in readers if x != r)
            specs.append(RegisterSpec(rid, r, others, t0))
            self.gossip[r] = rid
        super().__init__(readers, specs, {s.reg_id: "candidate" for s in specs})

    def write_machine(self, v: Vars, u: Payload) -> Generator:
        v.c += 1
        yield ("w", "NG/W", Plain(SeqTuple(v.c, u)))
        return DONE

    def read_machine(self, v: Vars, p: int) -> Generator:
        if p in self.specs[0].readers:
            x = yield ("r", "NG/W")
            if isinstance(x, Plain) and x.t.k >= 1:
                yield ("w", self.gossip[p], x)
                return x.t
        for r in self.readers:
            if r == p:
                continue
            y = yield ("r", self.gossip[r])
            if isinstance(y, Plain) and y.t.k >= 1:
                return y.t
        return SeqTuple(0, U0)


class AtomicOneWNR(Layout):
    """Control: a genuine atomic 1WnR register (out of the theorem's register
    budget; listed with the unrestricted rule)."""

    def __init__(self, n: int):
        super().__init__(reader_ids(n), [
            RegisterSpec("AT/R", WRITER, frozenset(reader_ids(n)), Plain(T0))
        ], {"AT/R": "candidate"})

    def write_machine(self, v: Vars, u: Payload) -> Generator:
        v.c += 1
        yield ("w", "AT/R", Plain(SeqTuple(v.c, u)))
        return DONE

    def read_machine(self, v: Vars, p: int) -> Generator:
        x = yield ("r", "AT/R")
        if isinstance(x, Plain):
            return x.t
        return BOTTOM


# ---------------------------------------------------------------------------
# The table of implementations
# ---------------------------------------------------------------------------

# Register budgets the attack harness enforces on an implementation.
RULE_THM1 = "thm1"  # writer and readers limited to 1W(n-1)R registers
RULE_UNRESTRICTED = "unrestricted"  # control candidates only


class Implementation(NamedTuple):
    factory: Callable[[int], Layout]  # n -> layout
    rule: str  # register budget
    max_n: int  # largest n accepted


IMPLEMENTATIONS = {
    # algo1 builds 2^(n-1) - 1 instances: 3,972 registers at n = 10.
    "algo1": Implementation(Algo1Construction, RULE_THM1, 10),
    "algo2": Implementation(Algo2Construction, RULE_THM1, 2),
    # The signature construction only owns pairwise 1W1Rs, so it fits the
    # theorem-1 register budget; the attack search exhausts against it
    # because a replayed signed tuple fails verification in runs where the
    # writer never signed it.
    "algo3": Implementation(Algo3Construction, RULE_THM1, 64),
    "naive-gossip": Implementation(NaiveGossip, RULE_THM1, 64),
    "atomic-1wnr": Implementation(AtomicOneWNR, RULE_UNRESTRICTED, 64),
}


def check_n(name: str, n: int) -> Implementation:
    """Look name up and reject an n that is not an integer, or is below 2 or
    above its maximum, before anything is sized by it; a factory may still
    demand a larger n."""
    impl = IMPLEMENTATIONS.get(name)
    if impl is None:
        raise MalformedScenario(f"unknown construction {name!r}")
    if type(n) is not int or not 2 <= n <= impl.max_n:
        raise MalformedScenario(f"{name} supports 2 <= n <= {impl.max_n}, not {n!r}")
    return impl


# Layouts built so far, by (factory, n): a table entry swapped in under an
# existing name has another factory, so it never gets a stale layout.
_LAYOUTS: dict[tuple[Callable[[int], Layout], int], Layout] = {}


def layout_of(name: str, n: int) -> Layout:
    """The layout of name at n, built on first use in this process."""
    factory = check_n(name, n).factory
    layout = _LAYOUTS.get((factory, n))
    if layout is None:
        layout = _LAYOUTS[(factory, n)] = factory(n)
    return layout


# perfbench's name for layout_of; nothing in byzregs calls it.
def build_instance(name: str, n: int) -> Layout:
    return layout_of(name, n)
