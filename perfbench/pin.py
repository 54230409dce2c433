"""Regenerate pins.json: the outputs of the sweep and long_history workloads
for benchmark seeds 0..N-1 at the full sizes, as the current byzregs gives
them. A run with a pinned seed counts every unit whose output differs from
its pin as failed; a run with any other seed checks the output invariants
and that repeated passes agree.

Regenerate only when a change alters these outputs on purpose, and say so:

    python3 perfbench/pin.py --seeds 100
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from collections import Counter

import run
import workloads


def pin_workload(name: str, seeds: int) -> dict:
    cls = workloads.WORKLOADS[name]
    _, m = run.setup(cls, 1)
    work = run.ROOT / run.RESULTS_DIR / "work"
    work.mkdir(parents=True, exist_ok=True)
    per_seed = {}
    for seed in range(seeds):
        w = cls(m, seed, workloads.FULL, None, work)
        _, outputs, _ = run.run_pass(w)
        per_seed[seed] = (w, [None if err else w.fingerprint(out)
                              for out, err in outputs])
    if name == "long_history":
        return {"seeds": {
            str(seed): {f"{c}/{n}": fp for (c, n, _, _), fp in zip(w.units, fps)}
            for seed, (w, fps) in per_seed.items()
        }}
    # sweep: the verdict digest of a run is nearly always its cell's usual
    # one, so only the exceptions are stored per seed.
    by_cell: dict[str, Counter] = {}
    for w, fps in per_seed.values():
        for (c, n, p, _), fp in zip(w.units, fps):
            if fp is not None:
                by_cell.setdefault(f"{c}/{n}/{p}", Counter())[fp] += 1
    usual = {cell: counts.most_common(1)[0][0] for cell, counts in by_cell.items()}
    seeds_out = {}
    for seed, (w, fps) in per_seed.items():
        runs, raised = {}, []
        for i, ((c, n, p, _), fp) in enumerate(zip(w.units, fps)):
            if fp is None:
                raised.append(str(i))
            elif fp != usual[f"{c}/{n}/{p}"]:
                runs[str(i)] = fp
        seeds_out[str(seed)] = {"runs": runs, "raised": raised}
    return {"usual": usual, "seeds": seeds_out}


def main() -> None:
    ap = argparse.ArgumentParser(description="regenerate perfbench/pins.json")
    ap.add_argument("--seeds", type=int, default=100)
    args = ap.parse_args()
    pins = {"sizes": dataclasses.asdict(workloads.FULL)}
    for name in ("sweep", "long_history"):
        pins[name] = pin_workload(name, args.seeds)
    path = run.BENCH_DIR / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
