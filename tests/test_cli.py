import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from byzregs import cli, sim
from byzregs.core import (
    Commit,
    Plain,
    SeqTuple,
    decode_cell,
    encode_cell,
    events_from_jsonl,
    events_to_jsonl,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def run_cli(argv):
    return cli.main(argv)


def test_run_all_correct_exit_zero(tmp_path):
    trace = tmp_path / "trace.jsonl"
    out = tmp_path / "verdicts.json"
    code = run_cli([
        "run",
        "--scenario", os.path.join(SCENARIOS, "all_correct.json"),
        "--trace", str(trace),
        "--out", str(out),
    ])
    assert code == 0
    verdicts = json.loads(out.read_text())
    assert all(v["status"] == "pass" for v in verdicts.values())
    assert trace.read_bytes()


def test_run_output_determinism(tmp_path):
    outputs = []
    for i in range(2):
        trace = tmp_path / f"t{i}.jsonl"
        out = tmp_path / f"v{i}.json"
        assert run_cli([
            "run",
            "--scenario", os.path.join(SCENARIOS, "all_correct.json"),
            "--trace", str(trace),
            "--out", str(out),
        ]) == 0
        outputs.append((trace.read_bytes(), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_run_missing_scenario_exit_two(tmp_path):
    code = run_cli([
        "run", "--scenario", str(tmp_path / "missing.json"),
        "--trace", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "v.json"),
    ])
    assert code == 2


def test_run_violation_exit_one(tmp_path):
    # A malicious reader plants a fabricated tuple in its gossip register of
    # the naive candidate; the honest reader trusts it and fails Property 1.
    scn = {
        "construction": "naive-gossip",
        "n": 3,
        "faults": {
            "0": {"kind": "correct"},
            "1": {"kind": "correct"},
            "2": {"kind": "correct"},
            "3": {
                "kind": "malicious",
                "script": {
                    "kind": "lie",
                    "reg": "NG/G3",
                    "cell": encode_cell(Plain(SeqTuple(1, b"fake"))),
                },
            },
        },
        "workload": [{"proc": 1, "op": "read", "after_step": 2}],
        "schedule": {"kind": "seeded", "seed": 4},
    }
    path = tmp_path / "lie.json"
    path.write_text(json.dumps(scn))
    code = run_cli([
        "run", "--scenario", str(path),
        "--trace", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "v.json"),
    ])
    assert code == 1
    verdicts = json.loads((tmp_path / "v.json").read_text())
    assert verdicts["property1"]["status"] == "violation"


def test_sweep_summary_and_exit_zero(tmp_path):
    out = tmp_path / "sweep.json"
    code = run_cli([
        "sweep", "--construction", "algo2", "--n", "2", "--runs", "5",
        "--faults", "all-correct,writer-crash", "--seed", "9",
        "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["runs"] == 10
    assert summary["violations"] == {}


def test_attack_witness_exit_one(tmp_path):
    out = tmp_path / "attack.json"
    trace = tmp_path / "witness.jsonl"
    code = run_cli([
        "attack", "--construction", "naive-gossip", "--n", "3",
        "--trace", str(trace), "--out", str(out),
    ])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["result"] == "violation"
    events = events_from_jsonl(trace.read_bytes())
    assert not any(e.proc == 0 for e in events)


def test_attack_exhausted_exit_zero(tmp_path):
    out = tmp_path / "attack.json"
    code = run_cli([
        "attack", "--construction", "atomic-1wnr", "--n", "3",
        "--trace", str(tmp_path / "w.jsonl"), "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["result"] == "exhausted"


def test_attack_unknown_candidate_exit_two(tmp_path):
    assert run_cli([
        "attack", "--construction", "nope", "--n", "3",
        "--out", str(tmp_path / "a.json"),
    ]) == 2


@pytest.mark.parametrize("flags", [
    ["--op-budget", "1"], ["--op-budget", "-1"], ["--step-budget", "-5"],
    ["--op-budget", "0"], ["--step-budget", "0"],
], ids=["op-budget=1", "op-budget=-1", "step-budget=-5", "op-budget=0",
        "step-budget=0"])
def test_attack_budget_that_cannot_decide_exits_two(tmp_path, flags):
    out = tmp_path / "a.json"
    assert run_cli(["attack", "--construction", "algo1", "--n", "3", *flags,
                    "--trace", str(tmp_path / "w.jsonl"), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--step-budget", "--op-budget"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_sweep_budget_below_one_exits_two(tmp_path, flag, value):
    # 0 is a budget like any other, not a stand-in for the default.
    out = tmp_path / "s.json"
    assert run_cli(["sweep", "--construction", "algo2", "--n", "2", "--runs", "2",
                    flag, value, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--step-budget", "--op-budget"])
def test_sweep_budget_below_one_names_the_flag_before_any_run(tmp_path, capsys,
                                                             monkeypatch, flag):
    built = []
    monkeypatch.setattr(cli, "build_sweep_scenario", lambda *a: built.append(a))
    assert run_cli(["sweep", "--construction", "algo2", "--n", "2", "--runs", "1",
                    flag, "0", "--out", str(tmp_path / "s.json")]) == 2
    assert flag in capsys.readouterr().err
    assert built == []


def test_replay_action_neither_write_nor_read_exits_two(tmp_path, capsys):
    # A misspelt access is an input error, not a read.
    with open(os.path.join(SCENARIOS, "all_correct.json")) as fh:
        doc = json.load(fh)
    doc["faults"]["3"] = {"kind": "malicious", "script": {"kind": "replay", "actions": [
        {"a": "r", "reg": "I3/R2_3"}, {"a": "zz", "reg": "I3/R2_3"}]}}
    doc["workload"] = [w for w in doc["workload"] if w["proc"] != 3]
    scenario, out = tmp_path / "s.json", tmp_path / "v.json"
    scenario.write_text(json.dumps(doc))
    assert run_cli(["run", "--scenario", str(scenario), "--trace",
                    str(tmp_path / "t.jsonl"), "--out", str(out)]) == 2
    assert "replay action 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("construction", ["atomic-1wnr", "naive-gossip"])
def test_run_and_check_attack_candidates_all_correct(tmp_path, construction):
    with open(os.path.join(SCENARIOS, "all_correct.json")) as fh:
        doc = json.load(fh)
    doc["construction"] = construction
    scenario, trace = tmp_path / "s.json", tmp_path / "t.jsonl"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "v.json"
    assert run_cli(["run", "--scenario", str(scenario), "--trace", str(trace),
                    "--out", str(out)]) == 0
    assert run_cli(["check", "--scenario", str(scenario), "--trace", str(trace),
                    "--out", str(out)]) == 0


@pytest.mark.parametrize("construction, code", [("atomic-1wnr", 0),
                                                ("naive-gossip", 1)])
def test_sweep_attack_candidates(tmp_path, construction, code):
    out = tmp_path / "s.json"
    assert run_cli([
        "sweep", "--construction", construction, "--n", "3..5", "--runs", "40",
        "--faults", ",".join(cli.CANONICAL_PATTERNS + cli.EXTRA_PATTERNS),
        "--out", str(out),
    ]) == code
    summary = json.loads(out.read_text())
    assert summary["runs"] == 840
    assert set(summary["violations"]) <= {"Property1", "Property2"}


def test_check_roundtrip_and_tamper(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    out = tmp_path / "v.json"
    scenario = os.path.join(SCENARIOS, "all_correct.json")
    assert run_cli(["run", "--scenario", scenario,
                    "--trace", str(trace), "--out", str(out)]) == 0
    assert run_cli(["check", "--scenario", scenario,
                    "--trace", str(trace), "--out", str(out)]) == 0

    stored = trace.read_bytes()

    def check(events):
        trace.write_bytes(events_to_jsonl(events))
        return run_cli(["check", "--scenario", scenario,
                        "--trace", str(trace), "--out", str(out)])

    def reads_of(events, i):
        """The reads of the cell written by events[i] (until overwritten)."""
        reads = []
        for e in events[i + 1:]:
            if e.reg == events[i].reg and e.kind == "reg_write":
                break
            if e.reg == events[i].reg and e.kind == "reg_read":
                reads.append(e)
        return reads

    stale = Commit(SeqTuple(0, b""))
    commits = [i for i, e in enumerate(events_from_jsonl(stored))
               if e.kind == "reg_write" and isinstance(e.value, Commit)
               and e.value.t.k == 1]
    # Each tamper makes the trace differ from the scenario's re-run, which
    # rejects it (exit 2) at the first tampered line.
    # Invert the writer's first commit into a stale one that no read sees
    # before it is overwritten.
    events = events_from_jsonl(stored)
    assert not reads_of(events, commits[0])
    events[commits[0]].value = stale
    assert check(events) == 2
    assert f"trace line {commits[0] + 1}:" in capsys.readouterr().err

    # Tamper a commit that a later read returns.
    i = next(i for i in commits if reads_of(events_from_jsonl(stored), i))
    events = events_from_jsonl(stored)
    events[i].value = stale
    assert check(events) == 2
    assert f"trace line {i + 1}:" in capsys.readouterr().err
    # The same tamper applied to the reads too.
    for e in reads_of(events, i):
        e.value = stale
    assert check(events) == 2
    assert f"trace line {i + 1}:" in capsys.readouterr().err


def test_check_read_of_a_value_never_written_exits_two(tmp_path, capsys):
    lines = _stored_trace_lines(tmp_path)
    i = next(i for i, e in enumerate(lines) if e["kind"] == "reg_read")
    original = _jsonl([lines[i]])
    lines[i]["value"] = encode_cell(Commit(SeqTuple(0, b"zz")))
    assert _check_lines(tmp_path, lines) == 2
    err = capsys.readouterr().err
    assert f"trace line {i + 1}:" in err
    assert f"  stored: {_jsonl([lines[i]])!r}" in err
    assert f"  re-run: {original!r}" in err


def test_check_truncated_trace_names_the_missing_line(tmp_path, capsys):
    lines = _stored_trace_lines(tmp_path)
    assert _check_lines(tmp_path, lines[:-1]) == 2
    err = capsys.readouterr().err
    assert f"trace line {len(lines)}:" in err
    assert "  stored: (end of trace)" in err


@pytest.mark.parametrize("name", ["all_correct.json", "blocking_boundary.json"])
def test_check_verdicts_are_the_runs(tmp_path, name):
    scenario = os.path.join(SCENARIOS, name)
    trace, ran, checked = (tmp_path / f for f in ("t.jsonl", "v.json", "c.json"))
    code = run_cli(["run", "--scenario", scenario, "--trace", str(trace),
                    "--out", str(ran)])
    assert run_cli(["check", "--scenario", scenario, "--trace", str(trace),
                    "--out", str(checked)]) == code
    assert checked.read_bytes() == ran.read_bytes()


@pytest.mark.parametrize("command", ["run", "check"])
def test_scenario_that_is_not_utf8_exits_two(tmp_path, command):
    scenario, trace = tmp_path / "s.json", tmp_path / "t.jsonl"
    scenario.write_bytes(b"\xff\xfe{")
    trace.write_bytes(b"")
    assert run_cli([command, "--scenario", str(scenario), "--trace", str(trace),
                    "--out", str(tmp_path / "v.json")]) == 2


def test_blocking_boundary_scenario_runs_deterministically(tmp_path):
    scenario = os.path.join(SCENARIOS, "blocking_boundary.json")
    results = []
    for i in range(2):
        trace = tmp_path / f"b{i}.jsonl"
        out = tmp_path / f"bv{i}.json"
        code = run_cli(["run", "--scenario", scenario,
                        "--trace", str(trace), "--out", str(out)])
        assert code == 0
        results.append((trace.read_bytes(), out.read_bytes()))
    assert results[0] == results[1]
    verdicts = json.loads(results[0][1].decode())
    assert "outside guarantee" in verdicts["wait_freedom"]["explanation"]


def test_scripted_crash_at_the_writers_invoke_leaves_nothing_pending(tmp_path):
    # The write's invoke reaches the writer's crash point; the write is
    # crashed-owner, not pending, so the scripted run is judged (exit 0).
    scn = {
        "construction": "algo2", "n": 2,
        "faults": {"0": {"kind": "crash", "at_step": 1}},
        "workload": [{"proc": 0, "op": "write", "value": "a"},
                     {"proc": 1, "op": "read"}],
        "schedule": {"kind": "scripted", "picks": [[1, 0], [1, 0], [1, 0]]},
    }
    path = tmp_path / "crash_at_invoke.json"
    path.write_text(json.dumps(scn))
    assert run_cli(["run", "--scenario", str(path), "--trace",
                    str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "v.json")]) == 0


def test_sweep_combined_pattern_blocks_without_violations():
    # Writer crash plus one malicious reader: some runs leave a correct
    # reader pending outside the guarantee, never a violation.
    summary = cli.run_sweep(
        "algo1", [3, 4], ["writer-crash+one-malicious-reader"],
        400, 31000, 1_000_000, 3000,
    )
    assert summary["violations"] == {}
    assert summary["pending_outside_guarantee"] > 0


# sha256 (first 16 hex digits) of the sorted verdict JSON of seeds 0..2 of
# every cell of the benchmark's sweep grid, at per_op_budget 1500 and the
# default step budget.
SWEEP_VERDICTS = {
    "algo1/2/all-correct": "0e87dc9a9b6f89c2",
    "algo1/2/writer-crash": "0e87dc9a9b6f89c2",
    "algo1/2/one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo1/2/writer-crash+one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo1/2/all-readers-malicious": "0e87dc9a9b6f89c2",
    "algo1/3/all-correct": "0e87dc9a9b6f89c2",
    "algo1/3/writer-crash": "0e87dc9a9b6f89c2",
    "algo1/3/one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo1/3/writer-crash+one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo1/3/all-readers-malicious": "0e87dc9a9b6f89c2",
    "algo1/4/all-correct": "0e87dc9a9b6f89c2",
    "algo1/4/writer-crash": "0e87dc9a9b6f89c2",
    "algo1/4/one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo1/4/writer-crash+one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo1/4/all-readers-malicious": "0e87dc9a9b6f89c2",
    "algo1/5/all-correct": "0e87dc9a9b6f89c2",
    "algo1/5/writer-crash": "0e87dc9a9b6f89c2",
    "algo1/5/one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo1/5/writer-crash+one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo1/5/all-readers-malicious": "0e87dc9a9b6f89c2",
    "algo2/2/all-correct": "0e87dc9a9b6f89c2",
    "algo2/2/writer-crash": "0e87dc9a9b6f89c2",
    "algo2/2/one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo2/2/writer-crash+one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo2/2/all-readers-malicious": "0e87dc9a9b6f89c2",
    "algo2/2/malicious-writer": "0608688634c41416",
    "algo2/2/majority-malicious-readers": "0e87dc9a9b6f89c2",
    "algo3/3/all-correct": "0e87dc9a9b6f89c2",
    "algo3/3/writer-crash": "0e87dc9a9b6f89c2",
    "algo3/3/one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo3/3/writer-crash+one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo3/3/all-readers-malicious": "0e87dc9a9b6f89c2",
    "algo3/3/malicious-writer": "0608688634c41416",
    "algo3/3/majority-malicious-readers": "0e87dc9a9b6f89c2",
    "algo3/5/all-correct": "0e87dc9a9b6f89c2",
    "algo3/5/writer-crash": "0e87dc9a9b6f89c2",
    "algo3/5/one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo3/5/writer-crash+one-malicious-reader": "0e87dc9a9b6f89c2",
    "algo3/5/all-readers-malicious": "0e87dc9a9b6f89c2",
    "algo3/5/malicious-writer": "0608688634c41416",
    "algo3/5/majority-malicious-readers": "0e87dc9a9b6f89c2",
}


@pytest.mark.parametrize("cell", sorted(SWEEP_VERDICTS))
def test_sweep_verdicts_are_pinned(cell):
    construction, n, pattern = cell.split("/")
    runs = []
    for seed in range(3):
        scenario = cli.build_sweep_scenario(construction, int(n), pattern, seed,
                                            sim.DEFAULT_STEP_BUDGET, 1500)
        _, verdicts = cli.run_and_check(scenario)
        runs.append({name: v.to_json() for name, v in verdicts.items()})
    text = json.dumps(runs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == SWEEP_VERDICTS[cell]


def test_sweep_requires_at_least_one_run(tmp_path):
    assert run_cli([
        "sweep", "--construction", "algo2", "--n", "2", "--runs", "0",
        "--out", str(tmp_path / "s.json"),
    ]) == 2


ALL_CORRECT = os.path.join(SCENARIOS, "all_correct.json")


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", ALL_CORRECT, "--trace", "{missing}/t.jsonl"],
    ["run", "--scenario", ALL_CORRECT, "--out", "{missing}/v.json"],
    ["sweep", "--construction", "algo3", "--n", "3", "--runs", "1",
     "--out", "{missing}/s.json"],
    ["attack", "--construction", "naive-gossip", "--n", "3",
     "--trace", "{missing}/w.jsonl"],
], ids=["run-trace", "run-out", "sweep-out", "attack-trace"])
def test_unwritable_output_or_bad_env_seed_exits_two(tmp_path, monkeypatch,
                                                     capsys, argv):
    # Unnamed outputs go to the working directory, which is tmp_path.
    monkeypatch.chdir(tmp_path)
    missing = str(tmp_path / "missing")
    assert run_cli([a.format(missing=missing) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    # Every output path is opened before any is written: exit 2 leaves none.
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,other", [
    (["run", "--scenario", ALL_CORRECT, "--out", "{missing}/v.json"], "trace.jsonl"),
    (["attack", "--construction", "naive-gossip", "--n", "3",
      "--trace", "{missing}/w.jsonl"], "attack.json"),
], ids=["run-out", "attack-trace"])
def test_unwritable_second_output_leaves_the_first_unchanged(tmp_path, monkeypatch,
                                                             argv, other):
    monkeypatch.chdir(tmp_path)
    (tmp_path / other).write_bytes(b"earlier output")
    missing = str(tmp_path / "missing")
    assert run_cli([a.format(missing=missing) for a in argv]) == 2
    assert os.listdir(tmp_path) == [other]
    assert (tmp_path / other).read_bytes() == b"earlier output"


def _set(path, value):
    """Return an edit that sets a key path (a tuple) in a scenario document."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set(("step_budget",), -1),
    _set(("step_budget",), 0),
    _set(("per_op_budget",), 0),
    _set(("per_op_budget",), "1500"),
    _set(("n",), "3"),
    _set(("n",), True),
    _set(("n",), 3.0),
    _set(("workload", 0, "proc"), "0"),
    _set(("workload", 1, "proc"), True),
    _set(("workload", 1, "after_op"), "0"),
    _set(("workload", 1, "after_op"), False),
    _set(("workload", 3, "after_step"), 2.5),
    _set(("workload", 3, "after_step"), -5),
    _set(("faults", "0"), {"kind": "crash", "at_step": -3}),
    _set(("faults", "x"), {"kind": "correct"}),
    lambda doc: doc["workload"][0].pop("value"),
    _set(("faults",), []),
    _set(("n",), 2**70),
    _set(("n",), 11),
    lambda doc: (doc.clear(), doc.update({
        "construction": "algo1", "n": 3, "workload": [],
        "schedule": {"kind": "seeded", "seed": 1}})),
], ids=[
    "step_budget=-1", "step_budget=0", "per_op_budget=0", "per_op_budget=str",
    "n=str", "n=bool", "n=float", "proc=str", "proc=bool", "after_op=str",
    "after_op=bool", "after_step=float", "after_step=-5", "crash-at_step=-3",
    "fault-key=str", "write-without-value",
    "faults=list", "n=2**70", "n=11", "empty-workload",
])
def test_invalid_scenario_exits_two(tmp_path, edit):
    with open(os.path.join(SCENARIOS, "all_correct.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    trace, out = tmp_path / "t.jsonl", tmp_path / "v.json"
    assert run_cli(["run", "--scenario", str(path),
                    "--trace", str(trace), "--out", str(out)]) == 2
    assert not out.exists()
    trace.write_bytes(b"")
    assert run_cli(["check", "--scenario", str(path),
                    "--trace", str(trace), "--out", str(out)]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--construction", "algo1", "--n", "2..1180591620717411303424",
     "--runs", "1"],
    ["sweep", "--construction", "algo1", "--n", "11", "--runs", "1"],
    ["sweep", "--construction", "algo1", "--n", "5..4", "--runs", "1"],
    ["attack", "--construction", "algo1", "--n", "11"],
    ["attack", "--construction", "naive-gossip", "--n", "65"],
], ids=["sweep-n=2**70", "sweep-n=11", "sweep-empty-range", "attack-algo1-n=11",
        "attack-naive-gossip-n=65"])
def test_n_above_the_maximum_exits_two(tmp_path, argv):
    assert run_cli(argv + ["--out", str(tmp_path / "o.json")]) == 2
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("n", ["0", "-2", "0..3"])
def test_n_below_two_exits_two(tmp_path, n):
    argv = ["sweep", "--construction", "atomic-1wnr", "--n", n, "--runs", "1",
            "--faults", "one-malicious-reader", "--out", str(tmp_path / "o.json")]
    assert run_cli(argv) == 2
    assert not (tmp_path / "o.json").exists()


def _stored_trace_lines(tmp_path):
    trace = tmp_path / "trace.jsonl"
    assert run_cli(["run", "--scenario", os.path.join(SCENARIOS, "all_correct.json"),
                    "--trace", str(trace), "--out", str(tmp_path / "v.json")]) == 0
    return [json.loads(line) for line in trace.read_text().splitlines()]


def _jsonl(lines) -> str:
    """Trace lines in the codec's canonical form."""
    return "".join(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
                   for line in lines)


def _check_lines(tmp_path, lines):
    trace = tmp_path / "bad.jsonl"
    trace.write_text(_jsonl(lines))
    return run_cli(["check", "--scenario", os.path.join(SCENARIOS, "all_correct.json"),
                    "--trace", str(trace), "--out", str(tmp_path / "c.json")])


def test_check_unknown_cell_tag_exits_two_naming_the_line(tmp_path, capsys):
    lines = _stored_trace_lines(tmp_path)
    i = next(i for i, e in enumerate(lines) if e["value"] is not None)
    lines[i]["value"]["t"] = "zzz"
    assert _check_lines(tmp_path, lines) == 2
    assert f"trace line {i + 1}:" in capsys.readouterr().err


def test_check_respond_without_invoke_exits_two_naming_the_line(tmp_path, capsys):
    lines = _stored_trace_lines(tmp_path)
    respond = next(e for e in lines if e["kind"] == "respond")
    first = next(i for i, e in enumerate(lines) if e["kind"] == "invoke"
                 and e["proc"] == respond["proc"])
    lines = [e for e in lines if not (e["kind"] == "invoke"
                                      and e["proc"] == respond["proc"])]
    assert _check_lines(tmp_path, lines) == 2
    assert f"trace line {first + 1}:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, field, value", [
    ("reg_write", "reg", "zz"), ("reg_read", "reg", "zz"), ("reg_write", "proc", 1),
], ids=["write-unknown-register", "read-unknown-register", "write-by-a-reader"])
def test_check_access_outside_the_construction_exits_two(tmp_path, capsys,
                                                         kind, field, value):
    lines = _stored_trace_lines(tmp_path)
    i = next(i for i, e in enumerate(lines) if e["kind"] == kind and e["proc"] != value)
    lines[i][field] = value
    assert _check_lines(tmp_path, lines) == 2
    assert f"trace line {i + 1}:" in capsys.readouterr().err


@pytest.mark.parametrize("cell", [
    {"t": "plain", "tuple": {"k": True, "u": "x"}},
    {"t": "plain", "tuple": {"k": 1.5, "u": "x"}},
    {"t": "plain", "tuple": {"k": 1e30, "u": "x"}},
    {"t": "commit", "tuple": {"k": "1", "u": "x"}},
    {"t": "signed", "signer": "0", "token": "t", "tuple": {"k": 1, "u": "x"}},
    {"t": "signed", "signer": False, "token": "t", "tuple": {"k": 1, "u": "x"}},
    {"t": "signed", "signer": 0, "token": 7, "tuple": {"k": 1, "u": "x"}},
], ids=["k=true", "k=1.5", "k=1e30", "k=str", "signer=str", "signer=false",
        "token=int"])
@pytest.mark.parametrize("command", ["run", "check"])
def test_lie_cell_with_an_ill_typed_scalar_exits_two(tmp_path, capsys, command, cell):
    with open(ALL_CORRECT) as fh:
        doc = json.load(fh)
    doc["faults"]["3"] = {"kind": "malicious",
                          "script": {"kind": "lie", "reg": "I3/R3_2", "cell": cell}}
    doc["workload"] = [w for w in doc["workload"] if w["proc"] != 3]
    scenario, trace = tmp_path / "s.json", tmp_path / "t.jsonl"
    scenario.write_text(json.dumps(doc))
    trace.write_bytes(b"")
    out = tmp_path / "v.json"
    assert run_cli([command, "--scenario", str(scenario), "--trace", str(trace),
                    "--out", str(out)]) == 2
    assert "must be of type" in capsys.readouterr().err
    assert not out.exists()


# -- fuzzing the input decoders ---------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.just(2**70)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _key_paths(doc, prefix=()):
    """Every key path below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


def _mutate(doc, data):
    """Delete or replace one value anywhere in doc, in place."""
    *parents, last = data.draw(st.sampled_from(list(_key_paths(doc))))
    for key in parents:
        doc = doc[key]
    if data.draw(st.booleans()):
        del doc[last]
    else:
        doc[last] = data.draw(_json_values)


_STORED = {}


def _stored_run(name, tmp):
    """The scenario document and its event lines, run once per file."""
    if name not in _STORED:
        path = os.path.join(SCENARIOS, name)
        trace = os.path.join(tmp, "stored.jsonl")
        cli.main(["run", "--scenario", path, "--trace", trace,
                  "--out", os.path.join(tmp, "v.json")])
        with open(path) as fh, open(trace, "rb") as tr:
            _STORED[name] = (json.load(fh), [json.loads(line) for line in tr])
    doc, lines = _STORED[name]
    return json.loads(json.dumps(doc)), json.loads(json.dumps(lines))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(),
       name=st.sampled_from(["all_correct.json", "blocking_boundary.json"]),
       mutate_trace=st.booleans())
def test_mutated_inputs_exit_cleanly(data, name, mutate_trace):
    with tempfile.TemporaryDirectory() as tmp:
        doc, lines = _stored_run(name, tmp)
        stored = _jsonl(lines)
        _mutate(lines if mutate_trace else doc, data)
        scenario, trace = os.path.join(tmp, "s.json"), os.path.join(tmp, "t.jsonl")
        with open(scenario, "w") as fh:
            json.dump(doc, fh)
        with open(trace, "w") as fh:
            fh.write(_jsonl(lines))
        out = os.path.join(tmp, "v.json")
        if not mutate_trace:
            assert cli.main(["run", "--scenario", scenario, "--trace",
                             os.path.join(tmp, "r.jsonl"), "--out", out]) in (0, 1, 2)
        code = cli.main(["check", "--scenario", scenario, "--trace", trace,
                         "--out", out])
        if mutate_trace and _jsonl(lines) != stored:
            assert code == 2  # a changed trace is not the scenario's run
        else:
            assert code in (0, 1, 2)
