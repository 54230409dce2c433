"""Lassos: a spinning read proved blocked by a cycle of its own states.

A scenario run or an attack read can prove that a spinning read never
completes instead of spinning it to its per-op budget: the engine's step loop
(sim.Engine.run_queue) hands each step of a read past its watch_at register
steps to a Watch, which finds a lasso, a state the run reaches again, so that
the cycle between the two visits repeats forever (the lasso-shaped liveness
counterexample of Vardi and Wolper, LICS 1986). Only reads are watched: no
write machine here reads, so no other process can hold a write back, and its
budget bounds it. A watch takes the read's state after each of its register
accesses: the register cells, the per-run state's key_items(), the queue
order of the runnable threads, and each live thread of the op with its parked
flag, pending value, unresolved join frame and generator chain (code, f_lasti
and locals). Threads are named by their place in the op's fork tree, not by
id, since every cycle forks fresh ids. A frame's state is assumed to be its
f_lasti plus its locals: a loop over a static list is fixed by its loop
variable, as ``q1`` fixes how far algo1's ``_q_thread2`` has gone over
``q_list``. A local that is not a value (a layout's static object, a part of
the run record) is compared by identity; key_items() covers the run record.

A watch keeps a running hash of its states' skeletons (Zobrist hashing, as in
SPIN's incremental state hashing, Nguyen and Ruys 2008), so a state costs
what changed since the one before: the registers events wrote, the state key
items the state names (algo1's levels), the frames that ran and each live
thread's head. Only a repeated hash costs a look at every register.

A repeat counts only if the cycle is fair and closed (the fair-cycle
conditions of Musuvathi and Qadeer, PLDI 2008), which the watch checks: every
live thread belongs to the op, every thread runnable at the cycle's start is
resumed in it or ends, no op responds in it, and no crash point or after_step
gate lies ahead, as the engine tells it at each step. A FIFO run that draws
nothing (the attack harness's) then goes round the cycle forever. A seeded
run draws a queue place for each forked branch and its RNG state never
repeats, so there the lasso proves that the fair continuation repeating the
cycle's picks never completes the op, and a watch that started earlier could
change the run, so seeded runs keep watch_at = sim.LASSO_THRESHOLD. In a run
that draws nothing a lasso stops only a read that never completes, wherever
its watch starts, so an attack search watches a read once it outlasts every
op the search has completed. A scripted run's picks go unwatched, since a
pick clears the queue that a take reads; the FIFO continuation after them is
watched from LASSO_THRESHOLD, as a seeded run is.

A state repeats up to a shift of its sequence numbers, and the shift may be
empty. A sequence number is the k of a SeqTuple, or a bare int of a state key
tuple beside SeqTuples of one height (algo1's c and previous_k beside
last_written); bare ints anywhere else must repeat exactly. Its domain is the
height of its SeqTuple, the number of SeqTuples nested in its payload, which
for algo1 is the depth of the level that wrote it. A repeat of the hash of
the skeleton, the state with each number replaced by its domain, only
proposes a pair of states i, j. Their fingerprints, the skeleton with each
number's rank within its domain, must be equal, and the concrete states must
confirm the pair: in each domain, every number that differs between i and j
grows by one d > 0, and every such number exceeds every number of the domain
that does not. Let f fix each number up to the largest unmoved one of its
domain and add d to every larger one; with no number moved, f is the identity
and j repeats i exactly. The machines compare sequence numbers only with each
other within a domain and make new ones only by adding 1 to a counter, which
the cycle moves, so f, being monotone, commutes with every step of the cycle:
the run from j is the run from i with f applied, and so on forever. Without
the confirmation a counter could climb past a fixed value, such as a lie's k,
and flip a comparison.
"""

from __future__ import annotations

import functools
from typing import Optional

from .core import Commit, Plain, Prepare, SeqTuple, Signed

_SPLIT = (SeqTuple, Commit, Prepare, Plain, Signed)  # what _split memoizes
_NESTED = (tuple, list, dict, set, *_SPLIT)  # what _split does not keep as it is
_SEQ = object()  # stands for a sequence number in a fingerprint's skeleton
_DOMAIN = 127  # k of domain h is coded k << 7 | h; h <= core.MAX_NESTING


class _Part:
    """A skeleton, hashed once, and its sequence numbers in _split's order:
    what _split keeps of a SeqTuple or cell, and each part of a fingerprint.
    Parts compare by skeleton; a fingerprint holds the sequence numbers of
    all its parts beside them."""

    __slots__ = ("skel", "seqs", "hash")

    def __init__(self, skel, seqs: list):
        self.skel = skel
        self.seqs = seqs
        self.hash = hash(skel)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is _Part and self.hash == other.hash
                                 and self.skel == other.skel)


def _split(x, seqs: list, memo: dict) -> tuple:
    """x's skeleton, with the k of every SeqTuple in it moved to seqs coded as
    k << 7 | height, and the height x gives a SeqTuple whose payload it is: 0
    if x holds no SeqTuple, else one more than the tallest SeqTuple in it. In
    the skeleton each SeqTuple or cell stands as its _Part, so hashing a
    skeleton does not walk the cells nested in it again, a tuple or list (a
    frame's local may be one) as a tuple of its type and items, a dict as
    one of its type and (key, value) items and a set as a frozenset, whose
    numbers stay in the skeleton and so must repeat exactly.

    memo maps the id of each SeqTuple or cell split so far to the object
    itself, which keeps its id from being reused, its _Part and its height;
    cells are immutable, so each is split once."""
    e = memo.get(id(x))  # a live x is the only object with its id
    if e is None:
        if isinstance(x, (tuple, list)):
            skel, height = [type(x)], 0
            for v in x:
                if isinstance(v, _NESTED):
                    v, h = _split(v, seqs, memo)
                    if h > height:
                        height = h
                skel.append(v)
            return tuple(skel), height
        if not isinstance(x, _SPLIT):
            if isinstance(x, dict):
                return _split((type(x), *x.items()), seqs, memo)
            return (frozenset(x) if isinstance(x, set) else x), 0
        own: list = []
        if isinstance(x, SeqTuple):
            skel, height = _split(x.u, own, memo)
            own.append(x.k << 7 | height)
            skel, height = (_SEQ, skel), height + 1
        else:
            skel, height = [type(x)], 0
            for f in x.__slots__:  # the cell's fields, in order
                v, h = _split(getattr(x, f), own, memo)
                skel.append(v)
                if h > height:
                    height = h
            skel = tuple(skel)
        e = memo[id(x)] = (x, _Part(skel, own), height)
    seqs += e[1].seqs
    return e[1], e[2]


def _part(x, memo: dict, key: bool = False) -> _Part:
    """x's part: a cell's own from the memo, else x split anew. In a state key
    item (key) bare ints are sequence numbers too when its SeqTuples all have
    one height: algo1's c and previous_k beside last_written."""
    seqs: list = []
    skel = _split(x, seqs, memo)[0]
    if type(skel) is _Part:
        return skel
    heights = {memo[id(v)][2] for v in x if isinstance(v, SeqTuple)} if key else ()
    if len(heights) == 1:
        skel, h = list(skel), heights.pop() - 1
        for i, v in enumerate(x, 1):
            if type(v) is int:
                seqs.append(v << 7 | h)
                skel[i] = _SEQ
        skel = tuple(skel)
    return _Part(skel, seqs)


def _slot_hash(slot, part: _Part) -> int:
    """A slot's share of a state's skeleton hash, the xor of every slot's:
    its part's hash salted by the slot (Zobrist hashing)."""
    return hash((slot, part.hash))


@functools.cache
def _initial(layout) -> tuple:
    """The split memo of the layout's initial cells and the skeleton hash of
    its registers holding them, where every watch of it starts."""
    memo, h = {}, 0
    for reg, cell in layout.initial.items():
        h ^= _slot_hash(reg, _part(cell, memo))
    return memo, h


def _shift(si: list, sj: list) -> Optional[dict]:
    """The shift d > 0 per domain that takes the coded sequence numbers si to
    sj (empty if none moves), if every moved number exceeds every unmoved
    one of its domain; else None. Within a domain codes compare as their
    numbers do, and differ by d << 7."""
    shift: dict[int, int] = {}
    moved: dict[int, int] = {}
    fixed: dict[int, int] = {}
    for a, b in set(zip(si, sj)):  # which pairs occur decides: each once
        h = a & _DOMAIN
        if a == b:
            fixed[h] = max(fixed.get(h, a), a)
        elif shift.setdefault(h, b - a) != b - a:
            return None
        else:
            moved[h] = min(moved.get(h, a), a)
    if any(d <= 0 for d in shift.values()) or \
            any(low <= fixed.get(h, low - 1) for h, low in moved.items()):
        return None
    return {h: d >> 7 for h, d in shift.items()}


class _Point:
    """A state the watch took, after the op's register access at step, kept
    by C-level copies. Its fingerprint and seqs are made if its hash repeats."""

    __slots__ = ("step", "cells", "keys", "threads", "runnable", "names", "fp", "seqs")

    def __init__(self, step: int, cells: tuple, keys: tuple, threads: list, runnable: list,
                 names: tuple):
        self.step = step
        self.cells = cells  # the register cells
        self.keys = keys  # the state key items' parts
        self.threads = threads  # each live thread's name, head part and frame parts, by name
        self.runnable = runnable  # the op's runnable threads
        self.names = names  # and their names
        self.fp: Optional[tuple] = None
        self.seqs: Optional[list] = None  # the coded sequence numbers, in _split's order


class Watch:
    """Watches one spinning op of an engine's run for a lasso (see the module
    docstring): it keeps the states it takes by skeleton hash and names the
    first repeat of a fingerprint that passes the checks."""

    def __init__(self, eng, t):
        self.eng = eng
        self.op = t.op
        while t.frame is not None:
            t = t.frame.parent
        self.root = t
        self.seen: dict = {}  # hash -> the latest _Point of each fingerprint with it
        self.resumed: dict = {}  # thread -> the first event of its last resumption
        # What a take keeps for the next: the event count after it, the
        # running hash of the registers and state key items, their parts (a
        # register's once a take finds it written), and each live thread's
        # generator chain and head. The memo and the hash start from the
        # layout's initial cells.
        memo, self.hash = _initial(eng.layout)
        self.memo = dict(memo)
        self.at = 0
        self.regs: dict = {}
        self.keys: dict = {}
        self.threads: dict = {}

    def observe(self, t, before: int, ahead: bool) -> Optional[str]:
        """Take the state after the resumption of the op's thread t that
        began at event before, unless ahead; the stop reason at a lasso."""
        eng, op = self.eng, self.op
        self.resumed[t] = before
        new = eng.events[before:]
        if not new or op.status != "pending" or op.reason is not None:
            return None  # a fork or a branch's return, or the op is over
        taken = None
        if len(new) == 1 and new[0].kind in ("reg_read", "reg_write") and not ahead:
            taken = self._take(before)
        if taken is None:  # no cycle may span this step
            self.seen.clear()
            return None
        # The hash only proposes: p is the latest state with q's fingerprint.
        key, q = taken
        points = self.seen.setdefault(key, [])
        p = next((p for p in points if self._fingerprint(p) == self._fingerprint(q)), None)
        if p is not None:
            points.remove(p)
        points.append(q)
        shift = None if p is None or not self._fair(p) else _shift(p.seqs, q.seqs)
        if shift is None:
            return None
        # An exact repeat moves no number: its reason names only i..j.
        moved = ", ".join(f"k of {self._levels(p, q, h)} +{d}"
                          for h, d in sorted(shift.items()))
        return f"blocked (lasso {p.step}..{q.step}{moved and '; ' + moved})"

    def _fair(self, p: _Point) -> bool:
        """Whether every thread runnable at p has been resumed since or has
        ended."""
        return all(u.done or u.cancelled or self.resumed.get(u, -1) > p.step
                   for u in p.runnable)

    def _take(self, step: int) -> Optional[tuple]:
        """The state's skeleton hash and its _Point, or None if a thread of
        another op or process is runnable. The hash xors the shares of the
        registers, the state key items, each live thread's head and frames,
        and the runnable threads' names. A take parts anew only what changed
        since the last: the registers events since then wrote (at a first
        take, those not holding their initial cells), the key items the
        state names, the frames that ran and the heads that differ."""
        eng, op, state, memo = self.eng, self.op, self.eng.state, self.memo
        runnable = [u for u in eng.queue if eng._runnable(u)]
        if any(u.op is not op for u in runnable):
            return None
        regs, keys, h, cells = self.regs, self.keys, self.hash, eng.cells
        initial = eng.layout.initial
        since, self.at = self.at, len(eng.events)
        written = {e.reg for e in eng.events[since:] if e.kind == "reg_write"} if since \
            else [reg for reg, cell in cells.items() if cell is not initial[reg]]
        for reg in written:
            old, new = regs.get(reg) or _part(initial[reg], memo), _part(cells[reg], memo)
            h ^= _slot_hash(reg, old) ^ _slot_hash(reg, new)
            regs[reg] = new
        for i, item in state.key_items(not since).items():
            old, new = keys.get(i), _part(item, memo, True)
            h ^= _slot_hash(i, new) ^ (_slot_hash(i, old) if old else 0)
            keys[i] = new
        self.hash = h
        names: dict = {}  # thread -> its name
        threads = []
        todo = [(self.root, ())]
        cached, self.threads = self.threads, {}
        while todo:
            u, name = todo.pop()
            names[u] = name
            fr = u.child
            if fr is not None and fr.resolved:
                fr = None
            chain, head, part = cached.get(u) or ((), None, None)  # as last taken
            if part is None or self.resumed.get(u, -1) >= since:
                chain = self._chain(u.gen, name, chain)  # only a resumption changes it
            value = (name, u.parked, u.pending, None if fr is None else fr.dead, len(chain))
            if value != head:
                head, part = value, _part(value, memo)
            self.threads[u] = chain, head, part
            h ^= _slot_hash(name, part)
            for link in chain:
                h ^= link[3]
            threads.append((name, part, [link[2] for link in chain]))
            if fr is not None:
                todo += [(b, name + (i,)) for i, b in enumerate(fr.branches)
                         if not (b.done or b.cancelled)]
        threads.sort(key=lambda th: th[0])
        runnable_names = tuple(names[u] for u in runnable)
        return h ^ hash(runnable_names), _Point(step, tuple(cells.values()),
                                                tuple(keys.values()), threads, runnable,
                                                runnable_names)

    def _chain(self, gen, name: tuple, last) -> list:
        """The generator chain of thread name from gen: each generator, the
        one it delegates to, its frame's part and its share. A frame is its
        code, position and locals' names and values but for the run record,
        which key_items() stands for. One that delegates to the generator it
        did at the last take (last) has not run since and keeps its part."""
        chain = []
        while gen is not None:
            sub, i = gen.gi_yieldfrom, len(chain)
            if i < len(last) and last[i][0] is gen and sub is not None and last[i][1] is sub:
                chain.append(last[i])
            else:
                value = [gen.gi_code, gen.gi_frame.f_lasti]
                for k, v in gen.gi_frame.f_locals.items():
                    if v is not self.eng.state:
                        value += k, v
                part = _part(tuple(value), self.memo)
                chain.append((gen, sub, part, _slot_hash((name, i), part)))
            gen = sub
        return chain

    def _fingerprint(self, p: _Point) -> tuple:
        """p's fingerprint, made once, and p.seqs: its parts (the registers',
        the key items' and each live thread's head and frames), its runnable
        threads' names and the ranks of its sequence numbers."""
        if p.fp is None:
            parts = [*(_part(cell, self.memo) for cell in p.cells), *p.keys]
            for _, head, frames in p.threads:
                parts += head, *frames
            p.seqs = seqs = []
            for x in parts:
                seqs += x.seqs
            # A code -> the rank of its number in its domain; the skeleton
            # fixes each domain.
            rank: dict = {}
            next_rank = [0] * (_DOMAIN + 1)
            for c in sorted(set(seqs)):
                h = c & _DOMAIN
                rank[c] = next_rank[h]
                next_rank[h] += 1
            p.fp = (*parts, p.names, tuple(map(rank.__getitem__, seqs)))
        return p.fp

    def _levels(self, p: _Point, q: _Point, h: int) -> str:
        """The levels (register directories) whose cells of height h differ
        between p and q."""
        regs, memo = self.eng.cells, self.memo
        levels = sorted({reg.rsplit("/", 1)[0] for reg, a, b in zip(regs, p.cells, q.cells)
                         if a is not b and a != b and _split(a, [], memo)[1] - 1 == h})
        return "+".join(levels) or f"height {h}"

