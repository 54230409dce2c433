"""Domain values, the access-controlled atomic register substrate, fault
models, and the signature oracle.

Everything the rest of the package touches flows through here: register cells
are tagged immutable values, every register access is checked against the
declared writer/reader sets, and "unforgeable" signatures are enforced by an
issuance table rather than cryptography.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
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
# ---------------------------------------------------------------------------


def encode_payload(u: Payload):
    if isinstance(u, bytes):
        try:
            return u.decode("utf-8")
        except UnicodeDecodeError:
            return {"b64": base64.b64encode(u).decode("ascii")}
    return encode_cell(u)


def decode_payload(obj) -> Payload:
    if isinstance(obj, str):
        return obj.encode("utf-8")
    if isinstance(obj, dict) and "b64" in obj:
        return base64.b64decode(obj["b64"])
    return decode_cell(obj)


def encode_tuple(t: SeqTuple) -> dict:
    return {"k": t.k, "u": encode_payload(t.u)}


def decode_tuple(obj: dict) -> SeqTuple:
    return SeqTuple(obj["k"], decode_payload(obj["u"]))


def encode_cell(c: CellValue) -> dict:
    if isinstance(c, Commit):
        return {"t": "commit", "tuple": encode_tuple(c.t)}
    if isinstance(c, Prepare):
        return {"t": "prepare", "prev": encode_tuple(c.prev), "next": encode_tuple(c.next)}
    if isinstance(c, Plain):
        return {"t": "plain", "tuple": encode_tuple(c.t)}
    if isinstance(c, Signed):
        return {"t": "signed", "tuple": encode_tuple(c.t), "signer": c.signer, "token": c.token}
    if isinstance(c, Bottom):
        return {"t": "bottom"}
    if isinstance(c, Garbage):
        return {"t": "garbage", "data": base64.b64encode(c.data).decode("ascii")}
    raise TypeError(f"not a cell value: {c!r}")


def decode_cell(obj: dict) -> CellValue:
    tag = obj["t"]
    if tag == "commit":
        return Commit(decode_tuple(obj["tuple"]))
    if tag == "prepare":
        return Prepare(decode_tuple(obj["prev"]), decode_tuple(obj["next"]))
    if tag == "plain":
        return Plain(decode_tuple(obj["tuple"]))
    if tag == "signed":
        return Signed(decode_tuple(obj["tuple"]), obj["signer"], obj["token"])
    if tag == "bottom":
        return BOTTOM
    if tag == "garbage":
        return Garbage(base64.b64decode(obj["data"]))
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


def encode_ret(ret) -> object:
    if ret is None:
        return None
    if ret == DONE:
        return {"t": "done"}
    if isinstance(ret, SeqTuple):
        return {"t": "tuple", "k": ret.k, "u": encode_payload(ret.u)}
    if isinstance(ret, Bottom):
        return {"t": "bottom"}
    return {"t": "value", "u": encode_payload(ret)}


def decode_ret(obj):
    if obj is None:
        return None
    tag = obj["t"]
    if tag == "done":
        return DONE
    if tag == "tuple":
        return SeqTuple(obj["k"], decode_payload(obj["u"]))
    if tag == "bottom":
        return BOTTOM
    return decode_payload(obj["u"])


def encode_event(e: Event) -> dict:
    return {
        "step": e.step,
        "proc": e.proc,
        "thread": e.thread,
        "kind": e.kind,
        "reg": e.reg,
        "value": None if e.value is None else encode_cell(e.value),
        "op": e.op,
        "arg": None if e.arg is None else encode_payload(e.arg),
        "ret": encode_ret(e.ret),
    }


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


def events_to_jsonl(events: Iterable[Event]) -> bytes:
    lines = [
        json.dumps(encode_event(e), sort_keys=True, separators=(",", ":"))
        for e in events
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def events_from_jsonl(data: bytes) -> list[Event]:
    events = []
    for i, line in enumerate(data.splitlines(), 1):
        if line.strip():
            try:
                events.append(decode_event(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
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
    script: object  # adversary.AdversaryScript; opaque here to avoid a cycle


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


class RegisterFile:
    """Access-controlled last-write-wins cells, one per RegisterSpec.

    specs is a list of specs, or a layout's specs by id, which is shared
    rather than copied; the cells are this file's own, set to the initials.
    """

    def __init__(self, specs: Union[Iterable[RegisterSpec], dict[str, RegisterSpec]]):
        self.specs = specs if isinstance(specs, dict) else specs_by_id(specs)
        self.cells: dict[str, CellValue] = {
            rid: s.initial for rid, s in self.specs.items()
        }

    def read(self, reg_id: str, actor: int) -> CellValue:
        spec = self.specs.get(reg_id)
        if spec is None or actor not in spec.readers:
            raise AccessViolation(f"process {actor} may not read {reg_id}")
        return self.cells[reg_id]

    def write(self, reg_id: str, actor: int, value: CellValue) -> None:
        spec = self.specs.get(reg_id)
        if spec is None or actor != spec.writer:
            raise AccessViolation(f"process {actor} may not write {reg_id}")
        self.cells[reg_id] = value

    def writable_by(self, proc: int) -> list[str]:
        return sorted(r for r, s in self.specs.items() if s.writer == proc)


# ---------------------------------------------------------------------------
# Signing oracle
# ---------------------------------------------------------------------------


def _tuple_digest(t: SeqTuple) -> str:
    return hashlib.sha256(
        json.dumps(encode_tuple(t), sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]


def sig_token(t: SeqTuple, signer: int) -> str:
    """Deterministic token text; validity still requires oracle issuance."""
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
