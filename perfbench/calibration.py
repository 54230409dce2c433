"""Host-speed calibration.

On a shared host the same pass of byzregs work runs up to 1.8x slower for
minutes at a time, and every pure-Python loop slows with it. The benchmark
therefore times a fixed kernel before, during and after each pass, and
scales the pass's times by the median kernel time to a reference host, one
on which the kernel takes ``REFERENCE_S`` (roughly a 2-vCPU Xeon host of
2026 when nothing else slows it). The kernel is frozen code of the same
shape as byzregs' scheduler (generators resumed round-robin, reading and
writing frozen dataclass cells in a dict, appending event records) and does
not import byzregs, so no change to byzregs can move it.

byzregs does not slow in step with the kernel: its host time grows roughly
as the kernel's slowdown to the power ``EXPONENT``. Fitted as the least-squares
slope of log host time per unit on log median kernel slowdown across whole
runs of identical work (10-20 runs per workload and period, 2-vCPU Xeon
host), that power came out between 0.48 +- 0.08 and 1.08 +- 0.13 depending
on the workload and the hour; 0.8 is the middle of that range. Slopes fitted
pass by pass within a run come out lower (0.4-0.7), because one pass's few
kernel timings give a noisy slowdown, which flattens the fit. Dividing by
the full slowdown makes a slow host read fast, and dividing by too low a
power a fast host. With 0.8, a change of the host's speed by a factor r
still moves scaled times by up to r^0.3 at the ends of that range: 6% for
r = 1.2, 23% for r = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.01  # kernel time on the reference host
EXPONENT = 0.8  # how host time grows with the kernel's; see above


@dataclass(frozen=True)
class _Cell:
    k: int
    u: object


@dataclass
class _Event:
    step: int
    kind: str
    reg: str
    value: object


def _machine(proc: int, rounds: int):
    for i in range(rounds):
        cell = yield ("r", f"R{proc}_{i % 4}")
        if isinstance(cell, _Cell) and cell.k >= 0:
            yield ("w", f"R{proc}_{(i + 1) % 4}", _Cell(cell.k + 1, cell))


def kernel(rounds: int = 400) -> int:
    """Run the frozen scheduler kernel; return its event count."""
    regs = {f"R{p}_{i}": _Cell(0, b"") for p in range(4) for i in range(4)}
    events: list[_Event] = []
    queue = [[_machine(p, rounds), None] for p in range(4)]
    while queue:
        thread = queue.pop(0)
        try:
            action = thread[0].send(thread[1])
        except StopIteration:
            continue
        if action[0] == "r":
            thread[1] = regs[action[1]]
        else:
            regs[action[1]] = action[2]
            thread[1] = None
        events.append(_Event(len(events), action[0], action[1], thread[1]))
        queue.append(thread)
    return len(events)


def slowdown(kernel_s: float) -> float:
    """How many times slower than on the reference host byzregs runs, given
    the kernel's host time."""
    return (kernel_s / REFERENCE_S) ** EXPONENT


def kernel_seconds() -> float:
    """Host time of one kernel run."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
