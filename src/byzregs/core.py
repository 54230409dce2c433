"""Domain values, register specs, fault models, and the signature oracle.

Everything the rest of the package touches flows through here: register cells
are tagged immutable values, each register's spec declares its writer and
readers (sim.Engine checks every access against them), and "unforgeable"
signatures are enforced by an issuance table rather than cryptography.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Optional, Union


class AccessViolation(Exception):
    """An actor touched a register outside its declared writer/reader sets."""


class CrashedActor(Exception):
    """A crashed process attempted a register access."""


class MalformedScenario(Exception):
    """A scenario document failed validation."""


# ---------------------------------------------------------------------------
# Register cell values
# ---------------------------------------------------------------------------

# A payload is either raw bytes (top-level register values) or a nested cell
# (what an outer construction stores inside an inner register instance).
Payload = Union[bytes, "CellValue"]


@dataclass(frozen=True)
class SeqTuple:
    """A sequence-numbered value: the k-th write carries exactly (k, u_k)."""

    k: int
    u: Payload

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("sequence number must be non-negative")


@dataclass(frozen=True)
class Commit:
    t: SeqTuple


@dataclass(frozen=True)
class Prepare:
    prev: SeqTuple
    next: SeqTuple


@dataclass(frozen=True)
class Plain:
    t: SeqTuple


@dataclass(frozen=True)
class Signed:
    t: SeqTuple
    signer: int
    token: str


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Garbage:
    data: bytes


CellValue = Union[Commit, Prepare, Plain, Signed, Bottom, Garbage]

BOTTOM = Bottom()

# Sentinel returned by Write machines; distinct from None, which a forked
# thread uses to signal "finished without producing a value".
DONE = "done"


# ---------------------------------------------------------------------------
# JSON encoding (bit-exact round trip required by the trace interface)
#
# Trace lines are written straight as canonical JSON text: compact, keys
# sorted, non-ASCII escaped, as json.dumps(..., sort_keys=True,
# separators=(",", ":")) writes. The dict encoders parse that text back for
# scenario documents (adversary scripts, workload values).
# ---------------------------------------------------------------------------


def _json_scalar(x) -> str:
    """json.dumps(x) of an int, str or None, the only scalars an event or a
    decoded cell holds."""
    if type(x) is int:
        return str(x)
    if type(x) is str:
        return _json_str(x)
    if x is None:
        return "null"
    raise TypeError(f"not an int, str or None: {x!r}")


def _payload_text(u: Payload, memo: dict) -> str:
    if isinstance(u, bytes):
        try:
            return _json_str(u.decode("utf-8"))
        except UnicodeDecodeError:
            return '{"b64":"%s"}' % base64.b64encode(u).decode("ascii")
    return _cell_text(u, memo)


def _tuple_text(t: SeqTuple, memo: dict) -> str:
    return f'{{"k":{_json_scalar(t.k)},"u":{_payload_text(t.u, memo)}}}'


def _cell_text(c: CellValue, memo: dict) -> str:
    """Canonical text of c, made once per object: memo keys id(c), so c must outlive it."""
    text = memo.get(id(c))
    if text is not None:
        return text
    if isinstance(c, Commit):
        text = f'{{"t":"commit","tuple":{_tuple_text(c.t, memo)}}}'
    elif isinstance(c, Prepare):
        text = (f'{{"next":{_tuple_text(c.next, memo)},'
                f'"prev":{_tuple_text(c.prev, memo)},"t":"prepare"}}')
    elif isinstance(c, Plain):
        text = f'{{"t":"plain","tuple":{_tuple_text(c.t, memo)}}}'
    elif isinstance(c, Signed):
        text = (f'{{"signer":{_json_scalar(c.signer)},"t":"signed",'
                f'"token":{_json_scalar(c.token)},"tuple":{_tuple_text(c.t, memo)}}}')
    elif isinstance(c, Bottom):
        text = '{"t":"bottom"}'
    elif isinstance(c, Garbage):
        text = '{"data":"%s","t":"garbage"}' % base64.b64encode(c.data).decode("ascii")
    else:
        raise TypeError(f"not a cell value: {c!r}")
    memo[id(c)] = text
    return text


def encode_payload(u: Payload):
    return json.loads(_payload_text(u, {}))


def encode_cell(c: CellValue) -> dict:
    return json.loads(_cell_text(c, {}))


# The most cells a decoded cell or payload may nest: far above algo1's one per
# level (10 at n = 10), far below what recursion in decoding and splitting allows.
MAX_NESTING = 64


def decode_payload(obj, depth: int = 0) -> Payload:
    if isinstance(obj, str):
        return obj.encode("utf-8")
    if isinstance(obj, dict) and "b64" in obj:
        return base64.b64decode(obj["b64"], validate=True)
    return decode_cell(obj, depth)


def _typed(value, kind: type, name: str):
    """value if its type is exactly kind (so a bool is not an int)."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be of type {kind.__name__}, not {value!r}")
    return value


def decode_tuple(obj: dict, depth: int = 0) -> SeqTuple:
    return SeqTuple(_typed(obj["k"], int, "sequence number"),
                    decode_payload(obj["u"], depth))


def decode_cell(obj: dict, depth: int = 0) -> CellValue:
    """The cell obj encodes; depth counts the cells it is nested in."""
    if depth >= MAX_NESTING:
        raise ValueError(f"cells nested more than {MAX_NESTING} deep")
    depth += 1
    tag = obj["t"]
    if tag == "commit":
        return Commit(decode_tuple(obj["tuple"], depth))
    if tag == "prepare":
        return Prepare(decode_tuple(obj["prev"], depth), decode_tuple(obj["next"], depth))
    if tag == "plain":
        return Plain(decode_tuple(obj["tuple"], depth))
    if tag == "signed":
        return Signed(decode_tuple(obj["tuple"], depth), _typed(obj["signer"], int, "signer"),
                      _typed(obj["token"], str, "token"))
    if tag == "bottom":
        return BOTTOM
    if tag == "garbage":
        return Garbage(base64.b64decode(obj["data"], validate=True))
    raise ValueError(f"unknown cell tag {tag!r}")


# ---------------------------------------------------------------------------
# Trace events
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Event:
    step: int
    proc: int
    thread: int
    kind: str  # reg_read | reg_write | invoke | respond | crash
    reg: Optional[str] = None
    value: Optional[CellValue] = None
    op: Optional[str] = None  # Write | Read
    arg: Optional[Payload] = None
    ret: object = None  # SeqTuple | Bottom | DONE | raw payload


def decode_ret(obj):
    if obj is None:
        return None
    tag = obj["t"]
    if tag == "done":
        return DONE
    if tag == "tuple":
        return decode_tuple(obj)
    if tag == "bottom":
        return BOTTOM
    return decode_payload(obj["u"])


def decode_event(obj: dict) -> Event:
    step, proc, thread = obj["step"], obj["proc"], obj["thread"]
    if type(step) is not int or type(proc) is not int or type(thread) is not int:
        raise TypeError("step, proc and thread must be integers")
    kind, reg, op = obj["kind"], obj.get("reg"), obj.get("op")
    if not isinstance(kind, str) or not isinstance(reg, (str, type(None))) or \
            not isinstance(op, (str, type(None))):
        raise TypeError("kind, reg and op must be strings")
    return Event(
        step=step,
        proc=proc,
        thread=thread,
        kind=kind,
        reg=reg,
        value=None if obj.get("value") is None else decode_cell(obj["value"]),
        op=op,
        arg=None if obj.get("arg") is None else decode_payload(obj["arg"]),
        ret=decode_ret(obj.get("ret")),
    )


def _ret_text(ret, memo: dict) -> str:
    if ret is None:
        return "null"
    if ret == DONE:
        return '{"t":"done"}'
    if isinstance(ret, SeqTuple):
        return f'{{"k":{_json_scalar(ret.k)},"t":"tuple","u":{_payload_text(ret.u, memo)}}}'
    if isinstance(ret, Bottom):
        return '{"t":"bottom"}'
    return f'{{"t":"value","u":{_payload_text(ret, memo)}}}'


def events_to_jsonl(events: Iterable[Event]) -> bytes:
    """One canonical JSON line per event. A cell shared by several events, or
    nested in an outer cell, is encoded once per call, and so is the text of
    each (kind, op, proc, reg)."""
    events = list(events)  # keeps alive every object whose id the memo holds
    memo: dict[int, str] = {}
    heads: dict[tuple, str] = {}
    lines = []
    for e in events:
        head = heads.get((e.kind, e.op, e.proc, e.reg))
        if head is None:
            head = heads[e.kind, e.op, e.proc, e.reg] = (
                f'"kind":{_json_scalar(e.kind)},"op":{_json_scalar(e.op)},'
                f'"proc":{_json_scalar(e.proc)},"reg":{_json_scalar(e.reg)},')
        lines.append(
            f'{{"arg":{"null" if e.arg is None else _payload_text(e.arg, memo)},{head}'
            f'"ret":{_ret_text(e.ret, memo)},"step":{e.step},"thread":{e.thread},'
            f'"value":{"null" if e.value is None else _cell_text(e.value, memo)}}}')
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def events_from_jsonl(data: bytes) -> list[Event]:
    events = []
    for i, line in enumerate(data.splitlines(), 1):
        if line.strip():
            try:
                events.append(decode_event(json.loads(line)))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ValueError(f"trace line {i}: bad event ({exc!r})") from exc
    return events


# ---------------------------------------------------------------------------
# Fault models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Correct:
    pass


@dataclass(frozen=True)
class Crash:
    at_global_step: int


@dataclass(frozen=True)
class Malicious:
    script: tuple  # the register accesses it issues: ("w", reg, cell) | ("r", reg)


FaultModel = Union[Correct, Crash, Malicious]


def is_honest(fault: FaultModel) -> bool:
    """Correct or crash-only: the processes Definition-3 constrains."""
    return not isinstance(fault, Malicious)


# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterSpec:
    reg_id: str
    writer: int
    readers: frozenset[int]
    initial: CellValue

    def __post_init__(self) -> None:
        if self.writer in self.readers and len(self.readers) > 1:
            # R_qq self-registers (writer == sole reader) are the one allowed
            # overlap; the paper treats them as process-local registers.
            raise ValueError(f"{self.reg_id}: writer among multiple readers")


def specs_by_id(specs: Iterable[RegisterSpec]) -> dict[str, RegisterSpec]:
    by_id: dict[str, RegisterSpec] = {}
    for s in specs:
        if s.reg_id in by_id:
            raise ValueError(f"duplicate register id {s.reg_id}")
        by_id[s.reg_id] = s
    return by_id


# ---------------------------------------------------------------------------
# Signing oracle
# ---------------------------------------------------------------------------


def _tuple_digest(t: SeqTuple) -> str:
    return hashlib.sha256(_tuple_text(t, {}).encode()).hexdigest()[:12]


@lru_cache(maxsize=1024)  # one sweep-workload pass signs 490 (tuple, signer) pairs
def sig_token(t: SeqTuple, signer: int) -> str:
    """Deterministic token text, memoized; validity still requires oracle issuance."""
    return f"{signer}.{t.k}.{_tuple_digest(t)}"


class SignatureOracle:
    """Issuance table standing in for unforgeable signatures.

    sign() records the token it issued for each (signer, tuple). verify() is
    true only for a Signed cell with the expected signer whose token equals
    the one issued for its (signer, tuple): a malicious script may copy a
    signed cell it has seen, but a token for a never-signed tuple, or a
    forged token on a signed one, fails verify.
    """

    def __init__(self, issued: Optional[dict[tuple[int, SeqTuple], str]] = None):
        self.issued: dict[tuple[int, SeqTuple], str] = dict(issued or {})

    def sign(self, t: SeqTuple, signer: int) -> Signed:
        token = self.issued[(signer, t)] = sig_token(t, signer)
        return Signed(t, signer, token)

    def verify(self, cell: CellValue, expected_signer: int) -> bool:
        if not isinstance(cell, Signed) or cell.signer != expected_signer:
            return False
        token = self.issued.get((expected_signer, cell.t))
        return token is not None and token == cell.token
