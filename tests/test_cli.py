import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import passandswap
from passandswap.cli import main


OPEN_DOC = {
    "schema": "pands-open/1",
    "classes": 3,
    "arrival_rates": [0.8, 0.8, 0.8],
    "rate_function": {
        "kind": "multi_server",
        "server_rates": [1.0, 1.0],
        "compat": [[1], [2], [1, 2]],
    },
    "swapping_edges": [[1, 2], [2, 3]],
}

TWO_CLASS_DOC = {
    "schema": "pands-open/1",
    "classes": 2,
    "arrival_rates": [0.8, 0.8],
    "rate_function": {
        "kind": "multi_server",
        "server_rates": [1.0, 1.0, 1.0],
        "compat": [[1, 3], [2, 3]],
    },
    "swapping_edges": [],
}

CLOSED_DOC = {
    "schema": "pands-closed/1",
    "classes": 3,
    "rate_function": {
        "kind": "multi_server",
        "server_rates": [1.0, 2.0],
        "compat": [[1], [2], [1, 2]],
    },
    "swapping_edges": [[1, 2], [2, 3]],
    "initial_state": [1, 2, 1, 2, 2, 3],
}

# No swapping edges and one server for both classes: customers never
# overtake, so the adhering space splits into communicating classes.
REDUCIBLE_DOC = {
    "schema": "pands-closed/1",
    "classes": 2,
    "rate_function": {
        "kind": "multi_server",
        "server_rates": [1.0],
        "compat": [[1], [1]],
    },
    "swapping_edges": [],
    "initial_state": [1, 1, 2, 2],
}

TANDEM_DOC = {
    "schema": "pands-tandem/1",
    "classes": 2,
    "rate_function_1": {
        "kind": "multi_server",
        "server_rates": [1.0],
        "compat": [[1], [1]],
    },
    "rate_function_2": {
        "kind": "multi_server",
        "server_rates": [1.0],
        "compat": [[1], [1]],
    },
    "swapping_edges": [[1, 2]],
    "initial_state_1": [],
    "initial_state_2": [2, 1],
}

CLUSTER_DOC = {
    "schema": "pands-cluster/1",
    "job_types": [
        {"name": "A", "rate": 1.0, "slots": 1, "machines": ["1", "3"]},
        {"name": "B", "rate": 1.0, "slots": 1, "machines": ["2", "3"]},
    ],
    "machines": [
        {"name": "1", "rate": 1.0, "buffer": 1},
        {"name": "2", "rate": 1.0, "buffer": 1},
        {"name": "3", "rate": 1.0, "buffer": 1},
    ],
}


@pytest.fixture
def model_path(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_validate(capsys, model_path):
    code, doc = run_json(capsys, ["validate", model_path(OPEN_DOC)])
    assert code == 0
    assert doc["result"]["ok"] is True
    assert doc["header"]["tool"] == "passandswap"
    assert len(doc["header"]["model_sha256"]) == 64


def test_stability(capsys, model_path):
    code, doc = run_json(capsys, ["stability", model_path(TWO_CLASS_DOC)])
    assert code == 0
    assert doc["result"]["stable"] is True


def test_trace_golden(capsys, model_path):
    code, doc = run_json(
        capsys,
        [
            "trace",
            model_path(OPEN_DOC),
            "--state",
            "1,3,3,2,2,3,1,2",
            "--position",
            "1",
        ],
    )
    assert code == 0
    result = doc["result"]
    assert result["chain"] == [1, 4, 6, 8]
    assert result["departing_class"] == 2
    assert result["next_state"] == [3, 3, 1, 2, 2, 1, 3]


def test_trace_rejects_class_ids_outside_the_model(capsys, model_path):
    path = model_path(TWO_CLASS_DOC)
    for state, bad in (("0,1", 0), ("1,5", 5), ("3", 3)):
        argv = ["trace", path, "--state", state, "--position", "1"]
        assert main(argv) == 2
        assert f"class id {bad} outside 1..2" in capsys.readouterr().err


def test_trace_rejects_positions_outside_the_state(capsys, model_path):
    path = model_path(OPEN_DOC)
    for position in (0, 4):
        argv = ["trace", path, "--state", "1,2,3", "--position", str(position)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --position {position} outside 1..3\n"
        )


def test_unwritable_output_exits_2(capsys, model_path, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    argv = ["closed-analyze", model_path(CLOSED_DOC), "--output", str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(target) in captured.err


def test_malformed_class_count_exits_2(capsys, model_path):
    assert main(["validate", model_path(dict(OPEN_DOC, classes="two"))]) == 2
    assert "classes: expected a positive integer" in capsys.readouterr().err


def test_analyze_and_oracle_compare(capsys, model_path, tmp_path):
    path = model_path(TWO_CLASS_DOC)
    code, doc = run_json(capsys, ["analyze", path, "-N", "4"])
    assert code == 0
    assert doc["result"]["states"] == 31
    dump = tmp_path / "generator.txt"
    code, doc = run_json(
        capsys,
        ["oracle-compare", path, "-N", "4", "--dump-matrix", str(dump)],
    )
    assert code == 0
    assert float(doc["result"]["total_variation"]) < 1e-10
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "# states 31"
    u, v, rate = lines[1].split()
    assert float(rate) != 0.0


def test_oracle_compare_fixes_the_first_state_under_light_load(
    capsys, model_path
):
    # Under light load the last state in breadth-first order (N customers)
    # has probability far below machine precision, and the direct solve
    # that fixes it breaks down; the retry fixes the first (empty) state.
    light = dict(
        TWO_CLASS_DOC,
        arrival_rates=[0.02, 0.02],
        rate_function={"kind": "multi_server", "server_rates": [1.0, 1.0],
                       "compat": [[1], [1, 2]]},
        swapping_edges=[[1, 2]],
    )
    code, doc = run_json(
        capsys, ["oracle-compare", model_path(light), "-N", "10"]
    )
    assert code == 0
    assert doc["result"]["states"] == 2047
    assert float(doc["result"]["total_variation"]) <= 1e-10


def test_closed_analyze_routes_through_split(capsys, model_path):
    code, doc = run_json(
        capsys, ["closed-analyze", model_path(CLOSED_DOC)]
    )
    assert code == 0
    assert doc["result"]["route"] == "isomorphic"
    assert doc["result"]["adherence"]["adheres"] is False
    total = sum(float(r["probability"]) for r in doc["result"]["distribution"])
    assert abs(total - 1.0) < 1e-9


def test_closed_analyze_adhering_initial(capsys, model_path):
    doc_in = dict(CLOSED_DOC, initial_state=[1, 2, 3])
    code, doc = run_json(capsys, ["closed-analyze", model_path(doc_in)])
    assert code == 0
    assert doc["result"]["route"] == "direct"
    assert doc["result"]["adherence"]["adheres"] is True
    assert doc["result"]["adherence"]["placement_arcs"]


def test_reducible_closed_model(capsys, model_path):
    path = model_path(REDUCIBLE_DOC)
    code, doc = run_json(capsys, ["closed-analyze", path])
    assert code == 0
    assert [c["size"] for c in doc["result"]["communicating_classes"]] == [4, 2]
    assert "2 communicating classes" in doc["warnings"][0]
    assert doc["result"]["states"] == 4
    probs = [r["probability"] for r in doc["result"]["distribution"]]
    assert probs == ["0.25"] * 4
    code, doc = run_json(capsys, ["oracle-compare", path])
    assert code == 0
    assert doc["result"]["states"] == 4
    assert float(doc["result"]["total_variation"]) < 1e-12


def test_iso_summary(capsys, model_path):
    code, doc = run_json(capsys, ["iso", model_path(CLOSED_DOC)])
    assert code == 0
    assert doc["result"]["split_map"]["2"] == ["2", "2'", "2''"]


def test_classes_command(capsys, model_path):
    code, doc = run_json(capsys, ["classes", model_path(CLOSED_DOC)])
    assert code == 0
    assert doc["result"]["transient_states"] == 0


def test_cluster_pipeline(capsys, model_path, tmp_path):
    path = model_path(CLUSTER_DOC)
    out = tmp_path / "tandem.json"
    code, doc = run_json(
        capsys, ["cluster-compile", path, "-o", str(out)]
    )
    assert code == 0
    emitted = json.loads(out.read_text())
    assert emitted["schema"] == "pands-tandem/1"
    code, doc = run_json(capsys, ["tandem-analyze", str(out)])
    assert code == 0
    code, doc = run_json(capsys, ["cluster-analyze", path])
    assert code == 0
    assert float(doc["result"]["blocking"]["A"]) > 0.0


def test_simulate_command(capsys, model_path, tmp_path):
    log = tmp_path / "events.log"
    code, doc = run_json(
        capsys,
        [
            "simulate",
            model_path(TWO_CLASS_DOC),
            "--events",
            "2000",
            "--reps",
            "2",
            "--seed",
            "9",
            "-N",
            "4",
            "--trace-log",
            str(log),
        ],
    )
    assert code == 0
    assert doc["result"]["replications"] == 2
    lines = log.read_text().strip().splitlines()
    assert lines and lines[0].startswith("t=")
    assert any("ev=complete-q0" in line and "depart=" in line for line in lines)


def test_simulate_cluster_protocol(capsys, model_path):
    code, doc = run_json(
        capsys,
        [
            "simulate",
            model_path(CLUSTER_DOC),
            "--events",
            "2000",
            "--reps",
            "2",
        ],
    )
    assert code == 0
    assert "blocking:A" in doc["result"]["fractions"]


def test_negative_capacity_exits_2_in_analyze_and_simulate(capsys, model_path):
    path = model_path(TWO_CLASS_DOC)
    for command in ("analyze", "simulate"):
        argv = [command, path, "-N", "-1"] + (
            ["--events", "100"] if command == "simulate" else []
        )
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: capacity must be non-negative\n"
        )


@pytest.mark.parametrize("kind,command", [
    ("closed", "oracle-compare"),
    ("closed", "simulate"),
    ("tandem", "oracle-compare"),
    ("tandem", "simulate"),
    ("cluster", "simulate"),
])
def test_capacity_on_a_model_without_arrivals_exits_2(
    capsys, model_path, kind, command
):
    doc = {"closed": CLOSED_DOC, "tandem": TANDEM_DOC,
           "cluster": CLUSTER_DOC}[kind]
    argv = [command, model_path(doc), "-N", "1"] + (
        ["--events", "100"] if command == "simulate" else []
    )
    assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        f"error: {command} takes --capacity on open models only, "
        f"not on {kind} models\n"
    ))


def test_simulate_rejects_a_trace_log_on_cluster_models(
    capsys, model_path, tmp_path
):
    # The protocol simulator logs no events, so the flag would write an
    # empty file; it is refused before any run, and nothing is written.
    log = tmp_path / "tl.txt"
    argv = ["simulate", model_path(CLUSTER_DOC), "--events", "100",
            "--trace-log", str(log)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        "error: simulate takes --trace-log on open, closed and tandem "
        "models only, not on cluster models\n"
    ))
    assert not log.exists()


def test_simulate_rejects_a_negative_top(capsys, model_path):
    argv = ["simulate", model_path(TWO_CLASS_DOC), "-N", "2",
            "--events", "2000", "--reps", "2"]
    assert main(argv + ["--top", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --top -1 is negative\n")
    code, doc = run_json(capsys, argv + ["--top", "0"])
    assert code == 0
    assert doc["result"]["occupancy_top"] == []


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_simulate_rejects_a_time_horizon_it_cannot_reach(
    capsys, model_path, value
):
    argv = ["simulate", model_path(TWO_CLASS_DOC), "-N", "3",
            "--time", value]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        f"error: time must be positive and finite, got {float(value)!r}\n"
    ))


def test_simulate_rejects_a_non_positive_event_count(capsys, model_path):
    argv = ["simulate", model_path(TWO_CLASS_DOC), "-N", "3",
            "--events", "0"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        "error: events must be a positive integer, got 0\n"
    ))


def test_repeated_runs_are_byte_identical(capsys, model_path):
    path = model_path(TWO_CLASS_DOC)
    argv = ["analyze", path, "-N", "4", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def _with_nan(doc, *path):
    """A copy of ``doc`` with NaN at ``path``, which ``json.dumps`` writes
    as a bare ``NaN`` token and ``json.loads`` reads back."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = float("nan")
    return doc


@pytest.mark.parametrize("command, doc, extra, where", [
    ("analyze", _with_nan(TWO_CLASS_DOC, "arrival_rates", 0), ["-N", "2"],
     "arrival_rates"),
    ("analyze", _with_nan(TWO_CLASS_DOC, "rate_function", "server_rates", 1),
     ["-N", "2"], "rate_function.server_rates"),
    ("cluster-analyze", _with_nan(CLUSTER_DOC, "job_types", 0, "rate"), [],
     "job_types.rate"),
    ("cluster-analyze", _with_nan(CLUSTER_DOC, "machines", 2, "rate"), [],
     "machines.rate"),
])
def test_a_nan_rate_is_refused_at_load(capsys, model_path, command, doc,
                                        extra, where):
    path = model_path(doc)
    assert "NaN" in Path(path).read_text()
    assert main([command, path] + extra) == 2
    assert capsys.readouterr() == ("", f"error: {where}: must be positive\n")


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", str(bad)]) == 2
    missing = tmp_path / "absent.json"
    assert main(["validate", str(missing)]) == 2


def test_long_queues_are_walked_without_recursion(capsys, model_path):
    # one class: a state per queue length, so the walks that build the
    # states go one step deeper per customer, far past the recursion limit
    one_class = {"kind": "multi_server", "server_rates": [1.0],
                 "compat": [[1]]}
    open_doc = dict(TWO_CLASS_DOC, classes=1, arrival_rates=[0.5],
                    rate_function=one_class)
    code, doc = run_json(capsys,
                         ["analyze", model_path(open_doc), "-N", "2000"])
    assert code == 0
    assert doc["result"]["states"] == 2001
    closed_doc = dict(CLOSED_DOC, classes=1, rate_function=one_class,
                      swapping_edges=[], initial_state=[1] * 1500)
    code, doc = run_json(capsys,
                         ["closed-analyze", model_path(closed_doc)])
    assert code == 0
    assert doc["result"]["states"] == 1


def test_budget_exit_code(capsys, model_path):
    path = model_path(TWO_CLASS_DOC)
    assert main(["analyze", path, "-N", "12", "--budget", "10"]) == 3


def test_deep_truncations_are_refused_at_once(capsys, model_path):
    # the states are counted one length at a time, up to the budget only
    path = model_path(OPEN_DOC)
    for command, capacity in [("analyze", "100000"),
                              ("oracle-compare", "100000"),
                              ("analyze", "1000000000")]:
        assert main([command, path, "-N", capacity]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: truncation at {capacity} customers ")
        assert err.endswith(" states, the budget\n") and err.count("\n") == 1


def test_closed_budget_admits_an_exact_fit(capsys, model_path):
    # no swapping edges: all 3! = 6 orders of the three customers adhere
    path = model_path(dict(CLOSED_DOC, swapping_edges=[],
                           initial_state=[1, 2, 3]))
    code, doc = run_json(capsys, ["closed-analyze", path, "--budget", "6"])
    assert code == 0
    assert doc["result"]["states"] == 6
    assert main(["closed-analyze", path, "--budget", "5"]) == 3
    assert "reached 6 states, budget 5" in capsys.readouterr().err


def test_cluster_budget_names_the_exact_state_count(capsys, model_path,
                                                   tmp_path):
    path = model_path(CLUSTER_DOC)
    for budget in ("50", "7"):
        assert main(["cluster-analyze", path, "--budget", budget]) == 3
        err = capsys.readouterr().err
        assert f"needs 96 tandem states, budget {budget}" in err
    # the compiled tandem is sized the same way by every tandem command
    tandem = str(tmp_path / "tandem.json")
    assert main(["cluster-compile", path, "-o", tandem]) == 0
    capsys.readouterr()
    for command in ("tandem-analyze", "classes", "oracle-compare"):
        assert main([command, tandem, "--budget", "50"]) == 3
        assert capsys.readouterr().err == (
            "error: the adhering space needs 96 tandem states, budget 50\n"
        )


def test_a_class_that_no_server_serves_exits_2(capsys, model_path):
    idle = dict(TANDEM_DOC["rate_function_1"], compat=[[1], []])
    path = model_path(dict(TANDEM_DOC, rate_function_1=idle,
                           swapping_edges=[]))
    assert main(["tandem-analyze", path]) == 2
    assert capsys.readouterr().err == (
        "error: overall rate is not positive on macrostate (0, 1)\n"
    )


# ``oracle-compare`` takes the analytic side's refusals before it builds or
# solves a generator, whichever side it computes first.  A class that no
# server serves makes the generator's chain reducible too, but the
# analytic refusal is the one reported.
IDLE_OPEN_DOC = dict(TWO_CLASS_DOC, rate_function={
    "kind": "multi_server", "server_rates": [1.0], "compat": [[1], []]})
IDLE_TANDEM_DOC = dict(
    TANDEM_DOC, rate_function_1=dict(TANDEM_DOC["rate_function_1"],
                                     compat=[[1], []]),
    swapping_edges=[],
)


@pytest.mark.parametrize("doc, flags", [
    (IDLE_OPEN_DOC, ["-N", "3"]),
    (IDLE_TANDEM_DOC, []),
], ids=["open", "tandem"])
def test_oracle_compare_refuses_an_idle_class_before_solving(
    capsys, model_path, doc, flags
):
    assert main(["oracle-compare", model_path(doc), *flags]) == 2
    assert capsys.readouterr().err == (
        "error: overall rate is not positive on macrostate (0, 1)\n"
    )


@pytest.mark.parametrize("doc, flags, code, message", [
    (OPEN_DOC, ["-N", "10", "--budget", "88572"], 3,
     "truncation at 10 customers needs more than 88572 states, the budget"),
    (IDLE_OPEN_DOC, ["-N", "6", "--budget", "126"], 3,
     "truncation at 6 customers needs more than 126 states, the budget"),
    (IDLE_OPEN_DOC, ["-N", "-1"], 2, "capacity must be non-negative"),
    (TANDEM_DOC, ["--budget", "2"], 3,
     "the adhering space needs 3 tandem states, budget 2"),
    # the tandem's rates are read while its space is counted
    (IDLE_TANDEM_DOC, ["--budget", "2"], 2,
     "overall rate is not positive on macrostate (0, 1)"),
], ids=["open", "open-idle", "open-negative", "tandem", "tandem-idle"])
def test_oracle_compare_refusals_keep_their_order(
    capsys, model_path, doc, flags, code, message
):
    assert main(["oracle-compare", model_path(doc), *flags]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
def test_oracle_compare_retries_a_direct_solve_that_overflows(
    capsys, model_path
):
    # Arrivals at 1e-300 and service at 1e300: with the full state's
    # probability fixed at 1 the empty state's overflows, so the law is not
    # finite and the solve fixes the empty state instead, silently.
    extreme = dict(
        OPEN_DOC, classes=1, arrival_rates=[1e-300], swapping_edges=[],
        rate_function={"kind": "multi_server", "server_rates": [1e300],
                       "compat": [[1]]},
    )
    assert main(["oracle-compare", model_path(extreme), "-N", "1",
                 "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    result = json.loads(out)["result"]
    assert (result["states"], result["total_variation"]) == (2, "0")


@pytest.mark.parametrize("doc", [CLOSED_DOC, TANDEM_DOC],
                         ids=["closed", "tandem"])
@pytest.mark.parametrize("fault", ["missing", "foreign"])
def test_oracle_compare_refuses_laws_on_different_states(
    capsys, model_path, monkeypatch, doc, fault
):
    # The cross-check catches an analytic side that loses a state, or
    # lists one the chain never reaches in its place: one with a token
    # more.
    from passandswap import cli

    name = "analyze_tandem" if doc is TANDEM_DOC else "analyze_closed"
    analyze = getattr(cli, name)

    def faulty(*args, **kwargs):
        law = dict(analyze(*args, **kwargs).distribution)
        state, p = law.popitem()
        if fault == "foreign":
            law[(state[0] + (0,), state[1]) if doc is TANDEM_DOC
                else state + (0,)] = p
        return type("Faulty", (), {"distribution": law})

    monkeypatch.setattr(cli, name, faulty)
    assert main(["oracle-compare", model_path(doc)]) == 2
    assert capsys.readouterr().err == (
        "error: distributions have mismatched supports\n"
    )


def test_table_output_contains_header(capsys, model_path):
    assert main(["stability", model_path(TWO_CLASS_DOC)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# schema: pands-output/1")
    assert "# tool: passandswap" in out
    assert "stable: True" in out


def test_structure_error_exit_code(capsys, model_path):
    one_server = {
        "kind": "multi_server",
        "server_rates": [1.0],
        "compat": [[1], [1], [1], [1]],
    }
    doc = {
        "schema": "pands-tandem/1",
        "classes": 4,
        "rate_function_1": one_server,
        "rate_function_2": one_server,
        "swapping_edges": [[2, 4]],
        # classes 2 and 4 swap but interleave in the first queue
        "initial_state_1": [2, 4, 2],
        "initial_state_2": [1, 3],
    }
    assert main(["tandem-analyze", model_path(doc)]) == 1
    assert "adheres to no placement order" in capsys.readouterr().err


# Runs in a fresh interpreter: imports the package, runs the CLI on each
# argv of sys.argv[1] in turn, and prints, as JSON, each run's exit code
# and which of numpy and scipy were loaded after it.
_SOLVER_GUARD = """
import json, sys

def solvers():
    return sorted({m.partition(".")[0] for m in sys.modules}
                  & {"numpy", "scipy"})

import passandswap
from passandswap.cli import main

report = [("import", 0, solvers())]
for argv in json.loads(sys.argv[1]):
    report.append((argv[0], main(argv), solvers()))
print(json.dumps(report))
"""


def test_only_oracle_compare_loads_numpy_and_scipy(model_path, tmp_path):
    open_ = model_path(OPEN_DOC, "open.json")
    two = model_path(TWO_CLASS_DOC, "two.json")
    closed = model_path(CLOSED_DOC, "closed.json")
    cluster = model_path(CLUSTER_DOC, "cluster.json")
    tandem = str(tmp_path / "tandem.json")
    out = str(tmp_path / "out.txt")
    runs = [
        ["validate", open_],
        ["stability", two],
        ["analyze", two, "-N", "4"],
        ["trace", open_, "--state", "1,3,3,2", "--position", "1"],
        ["closed-analyze", closed],
        ["classes", closed],
        ["iso", closed],
        ["cluster-compile", cluster, "-o", tandem],
        ["tandem-analyze", tandem],
        ["cluster-analyze", cluster],
        ["simulate", two, "-N", "4", "--events", "500", "--reps", "2"],
        ["simulate", cluster, "--events", "500", "--reps", "2"],
    ]
    runs = [argv + ["--output", out] for argv in runs]
    compared = tmp_path / "compare.json"
    matrix = tmp_path / "matrix.txt"
    runs.append(["oracle-compare", open_, "-N", "4", "--format", "json",
                 "--output", str(compared), "--dump-matrix", str(matrix)])
    src = str(Path(passandswap.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _SOLVER_GUARD, json.dumps(runs)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    report = json.loads(done.stdout)
    *before, last = report
    assert before == [
        [name, 0, []] for name in ["import"] + [argv[0] for argv in runs[:-1]]
    ]
    assert last == ["oracle-compare", 0, ["numpy", "scipy"]]
    golden = json.loads(
        (Path(__file__).resolve().parent / "golden" / "cli.json").read_text()
    )["oracle-compare/open"]
    doc = json.loads(compared.read_text())
    assert doc["result"] == golden["result"]
    assert doc["warnings"] == golden["warnings"]
    assert hashlib.sha256(matrix.read_bytes()).hexdigest() == (
        golden["matrix_sha256"]
    )
