"""Golden CLI outputs of the closed, tandem and cluster analyses.

Each case pins the JSON ``result`` and ``warnings`` and the table body
below the reproducibility header.  The header is left out: its flags carry
the model path, which differs between runs.

Regenerate the golden file after an intended output change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from passandswap.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_cli import CLOSED_DOC, CLUSTER_DOC, REDUCIBLE_DOC  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# Initial state 1,1,2,2,2,3 adheres to the order 1 < 2 < 3 (direct route).
ADHERING_DOC = dict(CLOSED_DOC, initial_state=[1, 1, 2, 2, 2, 3])

# Three one-slot groups on one machine, all serving type A: the tandem
# state space splits into two communicating classes.
REDUCIBLE_GROUPED_DOC = {
    "schema": "pands-cluster/1",
    "job_types": [{"name": "A", "rate": 1.0, "slots": 1}],
    "machines": [{"name": "1", "rate": 1.0}],
    "groups": [
        {"name": g, "slots": 1, "machines": ["1"], "types": ["A"]}
        for g in ("g1", "g2", "g3")
    ],
}

# (case name, command, model document or None for the compiled tandem)
CASES = [
    ("closed-analyze/isomorphic", "closed-analyze", CLOSED_DOC),
    ("classes/isomorphic", "classes", CLOSED_DOC),
    ("closed-analyze/direct", "closed-analyze", ADHERING_DOC),
    ("classes/direct", "classes", ADHERING_DOC),
    ("closed-analyze/reducible", "closed-analyze", REDUCIBLE_DOC),
    ("classes/reducible", "classes", REDUCIBLE_DOC),
    ("tandem-analyze/cluster", "tandem-analyze", None),
    ("cluster-analyze/cluster", "cluster-analyze", CLUSTER_DOC),
    ("cluster-analyze/reducible-grouped", "cluster-analyze",
     REDUCIBLE_GROUPED_DOC),
]


def _model(doc, workdir: Path) -> str:
    if doc is None:
        cluster = workdir / "cluster.json"
        cluster.write_text(json.dumps(CLUSTER_DOC))
        tandem = workdir / "tandem.json"
        assert main(["cluster-compile", str(cluster), "--format", "json",
                     "-o", str(tandem), "--output",
                     str(workdir / "compile.out")]) == 0
        return str(tandem)
    path = workdir / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _observe(command: str, doc, workdir: Path) -> dict:
    model = _model(doc, workdir)
    json_out = workdir / "out.json"
    table_out = workdir / "out.txt"
    assert main([command, model, "--format", "json",
                 "--output", str(json_out)]) == 0
    assert main([command, model, "--output", str(table_out)]) == 0
    parsed = json.loads(json_out.read_text())
    lines = table_out.read_text().splitlines()
    body = [line for line in lines if not line.startswith("# ")]
    return {
        "result": parsed["result"],
        "warnings": parsed["warnings"],
        "table": body,
    }


@pytest.mark.parametrize("name,command,doc", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, command, doc, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert _observe(command, doc, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    out = {}
    for name, command, doc in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = _observe(command, doc, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}")
