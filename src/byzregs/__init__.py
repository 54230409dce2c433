"""byzregs: deterministic simulation and adversarial testing of single-writer
multi-reader register constructions under Byzantine failures."""

from .core import (
    BOTTOM,
    AccessViolation,
    Bottom,
    CellValue,
    Commit,
    Correct,
    Crash,
    CrashedActor,
    Garbage,
    Malicious,
    MalformedScenario,
    Plain,
    Prepare,
    RegisterSpec,
    SeqTuple,
    SignatureOracle,
    Signed,
)
from .sim import Scenario, Seeded, Scripted, Trace, WorkItem, run

__version__ = "0.1.0"

__all__ = [
    "AccessViolation",
    "BOTTOM",
    "Bottom",
    "CellValue",
    "Commit",
    "Correct",
    "Crash",
    "CrashedActor",
    "Garbage",
    "Malicious",
    "MalformedScenario",
    "Plain",
    "Prepare",
    "RegisterSpec",
    "Scenario",
    "Seeded",
    "Scripted",
    "SeqTuple",
    "SignatureOracle",
    "Signed",
    "Trace",
    "WorkItem",
    "run",
]
