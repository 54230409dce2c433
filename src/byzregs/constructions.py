"""The register implementations as step machines: the paper's three
constructions and the candidates its impossibility argument attacks.

Each implementation exposes a Write(u) machine for the writer and a Read()
machine per reader. Machines are generators over primitive actions (see sim);
an operation on an inner implemented register is a plain sub-generator, so its
steps are exactly the inner machine's steps.

Register value domains nest: the recursive construction stores the outer
algorithm's cells as the payloads of the inner instance's tuples, so a
register three levels deep holds tuples of cells of tuples of cells.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Generator, NamedTuple, Union

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
)

U0: bytes = b""

WRITER = 0


def reader_ids(n: int) -> list[int]:
    return list(range(1, n + 1))


def _plain_ge(cell: CellValue, k: int) -> bool:
    return isinstance(cell, Plain) and cell.t.k >= k


# ---------------------------------------------------------------------------
# Recursive construction (1WnR from two 1W(n-1)Rs and 1W1Rs)
# ---------------------------------------------------------------------------


class _AtomicHandle:
    """Direct access to one atomic register."""

    def __init__(self, reg_id: str):
        self.reg_id = reg_id

    def read(self, actor: int):
        cell = yield ("r", self.reg_id)
        return cell

    def write(self, actor: int, cell: CellValue):
        yield ("w", self.reg_id, cell)


class _InstanceHandle:
    """A nested instance used as an implemented register.

    Reading unwraps the inner tuple to the stored cell; a failed inner read
    surfaces as a bottom cell, which no outer pattern matches.
    """

    def __init__(self, inst: "Algo1Instance"):
        self.inst = inst

    def read(self, actor: int):
        t = yield from self.inst.read_tuple(actor)
        if isinstance(t, SeqTuple):
            return t.u
        return BOTTOM

    def write(self, actor: int, cell: CellValue):
        if actor != self.inst.writer:
            raise AssertionError("inner write by non-writer")
        yield from self.inst.write_cell(cell)


@dataclass
class Algo1Instance:
    """One recursion level: writer w, distinguished reader p, helper set Q."""

    path: str
    writer: int
    readers: list[int]  # sorted; p is the lowest id
    u0: Payload
    specs: list[RegisterSpec] = field(default_factory=list)
    classify: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.readers = sorted(self.readers)
        self.p = self.readers[0]
        self.q_list = self.readers[1:]
        t0 = SeqTuple(0, self.u0)
        self._add(f"{self.path}/Rwp", self.writer, [self.p], Commit(t0), "wchan")
        self.rwp = _AtomicHandle(f"{self.path}/Rwp")
        self.rqq: dict[tuple[int, int], str] = {}
        for q1 in self.q_list:
            for q2 in self.q_list:
                rid = f"{self.path}/R{q1}_{q2}"
                self._add(rid, q1, [q2], Plain(t0), "gossip")
                self.rqq[(q1, q2)] = rid
        if len(self.readers) == 2:
            q = self.q_list[0]
            self._add(f"{self.path}/RwQ", self.writer, [q], Commit(t0), "wchan")
            self._add(f"{self.path}/RpQ", self.p, [q], Plain(t0), "pchan")
            self.rwq: Union[_AtomicHandle, _InstanceHandle] = _AtomicHandle(
                f"{self.path}/RwQ"
            )
            self.rpq: Union[_AtomicHandle, _InstanceHandle] = _AtomicHandle(
                f"{self.path}/RpQ"
            )
        else:
            m = len(self.readers) - 1
            wq = Algo1Instance(f"{self.path}/RwQ/I{m}", self.writer, self.q_list,
                               Commit(t0))
            pq = Algo1Instance(f"{self.path}/RpQ/I{m}", self.p, self.q_list,
                               Plain(t0))
            self.specs.extend(wq.specs)
            self.specs.extend(pq.specs)
            self.classify.update(wq.classify)
            self.classify.update(pq.classify)
            self.rwq = _InstanceHandle(wq)
            self.rpq = _InstanceHandle(pq)
        # Local variables (paper: c, last_written for w; previous_k for p).
        self.c = 0
        self.last_written = t0
        self.previous_k = 0

    def _add(self, rid: str, writer: int, readers: list[int], initial: CellValue,
             cls: str) -> None:
        self.specs.append(RegisterSpec(rid, writer, frozenset(readers), initial))
        self.classify[rid] = cls

    # -- machines ----------------------------------------------------------

    def write_cell(self, payload: Payload):
        """Write(u) then w(<k,u>): prepare to p, prepare to Q, commit to p,
        commit to Q, in exactly that order."""
        self.c += 1
        t = SeqTuple(self.c, payload)
        lw = self.last_written
        yield from self.rwp.write(self.writer, Prepare(lw, t))
        yield from self.rwq.write(self.writer, Prepare(lw, t))
        yield from self.rwp.write(self.writer, Commit(t))
        yield from self.rwq.write(self.writer, Commit(t))
        self.last_written = t
        return DONE

    def read_tuple(self, actor: int):
        if actor == self.p:
            result = yield from self._r_p()
        else:
            result = yield from self._r_q(actor)
        return result

    def _r_p(self):
        x = yield from self.rwp.read(self.p)
        if isinstance(x, Commit) and x.t.k >= self.previous_k:
            yield from self.rpq.write(self.p, Plain(x.t))
            self.previous_k = x.t.k
            return x.t
        if isinstance(x, Prepare):
            return x.prev
        return BOTTOM

    def _r_q(self, q: int):
        x = yield from self.rwq.read(q)
        if isinstance(x, Commit):
            return x.t
        if isinstance(x, Prepare):
            winner = yield (
                "fork",
                self._q_thread1(q, x.next),
                self._q_thread2(q, x.prev, x.next),
            )
            return winner
        return BOTTOM

    def _q_thread1(self, q: int, t: SeqTuple):
        # Poll the writer's channel until a commit at least as new, or a
        # strictly newer prepare, shows the write has been superseded.
        while True:
            x = yield from self.rwq.read(q)
            if isinstance(x, Commit) and x.t.k >= t.k:
                return t
            x = yield from self.rwq.read(q)
            if isinstance(x, Prepare) and x.next.k > t.k:
                return t

    def _q_thread2(self, q: int, lw: SeqTuple, t: SeqTuple):
        k = t.k
        x = yield from self.rpq.read(q)
        if _plain_ge(x, k):
            yield from self._broadcast(q, t)
            return t
        hit = False
        for q1 in self.q_list:
            y = yield ("r", self.rqq[(q1, q)])
            if _plain_ge(y, k):
                hit = True
                break
        if hit:
            x = yield from self.rpq.read(q)
            if _plain_ge(x, k):
                yield from self._broadcast(q, t)
                return t
            # No else branch in the algorithm: the thread ends without a
            # value and only Thread 1 can still resolve the read.
            return None
        return lw

    def _broadcast(self, q: int, t: SeqTuple):
        for q2 in self.q_list:
            yield ("w", self.rqq[(q, q2)], Plain(t))


class Algo1Construction:
    """Recursive 1WnR construction, writer 0, readers 1..n."""

    def __init__(self, n: int):
        self.root = Algo1Instance(f"I{n}", WRITER, reader_ids(n), U0)
        self.specs = self.root.specs
        self.classify = self.root.classify
        self.readers = reader_ids(n)

    def write_machine(self, value: Payload) -> Generator:
        return self.root.write_cell(value)

    def read_machine(self, proc: int) -> Generator:
        return self.root.read_tuple(proc)


def algo1_write_step_count(n: int) -> int:
    """Closed form of the write recurrence W(n) = 2 + 2 W(n-1), W(2) = 4."""
    return 6 * 2 ** (n - 2) - 2


# ---------------------------------------------------------------------------
# Two-reader construction (unconditionally wait-free)
# ---------------------------------------------------------------------------


class Algo2Construction:
    """1W2R from three atomic 1W1Rs; q falls back on its local last_read, and
    p's commit branch is deliberately unguarded (no previous_k)."""

    def __init__(self, n: int = 2):
        if n != 2:
            raise MalformedScenario("algo2 is a 1W2R construction (n = 2)")
        self.readers = [1, 2]
        self.p, self.q = 1, 2
        t0 = SeqTuple(0, U0)
        self.specs = [
            RegisterSpec("I2p/Rwp", WRITER, frozenset([1]), Commit(t0)),
            RegisterSpec("I2p/Rwq", WRITER, frozenset([2]), Commit(t0)),
            RegisterSpec("I2p/Rpq", 1, frozenset([2]), Plain(t0)),
        ]
        # Rpq carries no previous_k guard here (faithful to the two-reader
        # algorithm), so its monotonicity only holds under an honest writer.
        self.classify = {
            "I2p/Rwp": "wchan",
            "I2p/Rwq": "wchan",
            "I2p/Rpq": "pchan_unguarded",
        }
        self.c = 0
        self.last_written = t0
        self.last_read = t0

    def write_machine(self, value: Payload) -> Generator:
        return self._write(value)

    def _write(self, u: Payload):
        self.c += 1
        t = SeqTuple(self.c, u)
        lw = self.last_written
        yield ("w", "I2p/Rwp", Prepare(lw, t))
        yield ("w", "I2p/Rwq", Prepare(lw, t))
        yield ("w", "I2p/Rwp", Commit(t))
        yield ("w", "I2p/Rwq", Commit(t))
        self.last_written = t
        return DONE

    def read_machine(self, proc: int) -> Generator:
        if proc == self.p:
            return self._read_p()
        if proc == self.q:
            return self._read_q()
        raise MalformedScenario(f"process {proc} is not a reader")

    def _read_p(self):
        x = yield ("r", "I2p/Rwp")
        if isinstance(x, Commit):
            yield ("w", "I2p/Rpq", Plain(x.t))
            return x.t
        if isinstance(x, Prepare):
            return x.prev
        return BOTTOM

    def _read_q(self):
        x = yield ("r", "I2p/Rwq")
        if isinstance(x, Commit):
            return x.t
        if isinstance(x, Prepare):
            k = x.next.k
            y = yield ("r", "I2p/Rpq")
            if _plain_ge(y, k):
                self.last_read = x.next
                return x.next
            if self.last_read.k >= k:
                return x.next
            return x.prev
        return BOTTOM


# ---------------------------------------------------------------------------
# Construction from writer-signed tuples (tolerates any number of faulty processes)
# ---------------------------------------------------------------------------


class Algo3Construction:
    """1WnR over a full matrix of atomic 1W1Rs carrying writer-signed tuples."""

    def __init__(self, n: int):
        self.readers = reader_ids(n)
        self._oracle = SignatureOracle()
        cell0 = self._oracle.sign(SeqTuple(0, U0), WRITER)
        self.specs = []
        self.classify = {}
        self.reg: dict[tuple[int, int], str] = {}
        for i in [WRITER] + self.readers:
            for j in self.readers:
                rid = f"Is/R{i}_{j}"
                self.specs.append(RegisterSpec(rid, i, frozenset([j]), cell0))
                self.classify[rid] = "sig"
                self.reg[(i, j)] = rid
        self.c = 0

    def write_machine(self, value: Payload) -> Generator:
        return self._write(value)

    def _write(self, u: Payload):
        self.c += 1
        cell = self._oracle.sign(SeqTuple(self.c, u), WRITER)
        for i in self.readers:
            yield ("w", self.reg[(WRITER, i)], cell)
        return DONE

    def read_machine(self, proc: int) -> Generator:
        if proc not in self.readers:
            raise MalformedScenario(f"process {proc} is not a reader")
        return self._read(proc)

    def _read(self, p: int):
        tuples: list[Signed] = []
        for i in [WRITER] + self.readers:
            x = yield ("r", self.reg[(i, p)])
            if self._oracle.verify(x, WRITER):
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


class NaiveGossip:
    """Deliberately broken candidate: the writer announces once on a
    1W(n-1)R and readers forward what they saw through gossip registers,
    trusting each other blindly."""

    def __init__(self, n: int):
        if n < 3:
            raise MalformedScenario("naive-gossip needs n >= 3")
        self.readers = reader_ids(n)
        t0 = Plain(SeqTuple(0, U0))
        self.specs = [
            RegisterSpec("NG/W", WRITER, frozenset(self.readers[:-1]), t0)
        ]
        self.gossip: dict[int, str] = {}
        for r in self.readers:
            rid = f"NG/G{r}"
            others = frozenset(x for x in self.readers if x != r)
            self.specs.append(RegisterSpec(rid, r, others, t0))
            self.gossip[r] = rid
        self.classify = {s.reg_id: "candidate" for s in self.specs}
        self.c = 0

    def write_machine(self, value):
        return self._write(value)

    def _write(self, u):
        self.c += 1
        yield ("w", "NG/W", Plain(SeqTuple(self.c, u)))
        return "done"

    def read_machine(self, proc: int):
        return self._read(proc)

    def _read(self, p: int):
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


class AtomicOneWNR:
    """Control: a genuine atomic 1WnR register (out of the theorem's register
    budget; listed with the unrestricted rule)."""

    def __init__(self, n: int):
        self.readers = reader_ids(n)
        self.specs = [
            RegisterSpec("AT/R", WRITER, frozenset(self.readers), Plain(SeqTuple(0, U0)))
        ]
        self.classify = {"AT/R": "candidate"}
        self.c = 0

    def write_machine(self, value):
        return self._write(value)

    def _write(self, u):
        self.c += 1
        yield ("w", "AT/R", Plain(SeqTuple(self.c, u)))
        return "done"

    def read_machine(self, proc: int):
        return self._read(proc)

    def _read(self, p: int):
        x = yield ("r", "AT/R")
        if isinstance(x, Plain):
            return x.t
        return BOTTOM


# ---------------------------------------------------------------------------
# The table of implementations
# ---------------------------------------------------------------------------

# Register budgets the attack harness enforces on an implementation.
RULE_THM1 = "thm1"  # writer and readers limited to 1W(n-1)R registers
RULE_THM2 = "thm2"  # readers may additionally own 1WnR registers
RULE_UNRESTRICTED = "unrestricted"  # control candidates only


class Implementation(NamedTuple):
    factory: Callable[[int], object]  # n -> instance
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
    """Look name up and reject an n below 2 or above its maximum before
    anything is sized by it; a factory may still demand a larger n."""
    impl = IMPLEMENTATIONS.get(name)
    if impl is None:
        raise MalformedScenario(f"unknown construction {name!r}")
    if not 2 <= n <= impl.max_n:
        raise MalformedScenario(f"{name} supports 2 <= n <= {impl.max_n}, not {n}")
    return impl


def build_instance(name: str, n: int):
    return check_n(name, n).factory(n)


@functools.cache
def register_specs(name: str, n: int) -> tuple[RegisterSpec, ...]:
    """The register layout of name at n, built once per process. Machines
    keep per-run state, so a run still needs its own build_instance."""
    return tuple(build_instance(name, n).specs)
