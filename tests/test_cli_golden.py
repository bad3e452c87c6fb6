"""Golden CLI outputs of the closed, tandem and cluster analyses and of
the oracle cross-check.

Each case pins the JSON ``result`` and ``warnings`` and the table body
below the reproducibility header.  The header is left out: its flags carry
the model path, which differs between runs.  ``oracle-compare`` cases also
pin the SHA-256 of the generator written by ``--dump-matrix``.

Regenerate the golden file after an intended output change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from passandswap.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_cli import (  # noqa: E402
    CLOSED_DOC,
    CLUSTER_DOC,
    OPEN_DOC,
    REDUCIBLE_DOC,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# Initial state 1,1,2,2,2,3 adheres to the order 1 < 2 < 3 (direct route).
ADHERING_DOC = dict(CLOSED_DOC, initial_state=[1, 1, 2, 2, 2, 3])

# A closed queue whose only swapping edge joins classes 1 and 3: from
# 1,1,2,2,3,3 the direct route reaches 15 states, and from 1,3,2,1,2,3,
# where 1 and 3 interleave, the isomorphic route reaches 30 split states.
SPARSE_DOC = {
    "schema": "pands-closed/1",
    "classes": 3,
    "rate_function": {
        "kind": "multi_server",
        "server_rates": [1.0, 2.0, 1.5],
        "compat": [[1, 3], [2], [2, 3]],
    },
    "swapping_edges": [[1, 3]],
    "initial_state": [1, 1, 2, 2, 3, 3],
}
SPARSE_SPLIT_DOC = dict(SPARSE_DOC, initial_state=[1, 3, 2, 1, 2, 3])

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

# (case name, command, model document or None for the compiled tandem,
# extra flags)
CASES = [
    ("closed-analyze/isomorphic", "closed-analyze", CLOSED_DOC, ()),
    ("classes/isomorphic", "classes", CLOSED_DOC, ()),
    ("closed-analyze/direct", "closed-analyze", ADHERING_DOC, ()),
    ("classes/direct", "classes", ADHERING_DOC, ()),
    ("closed-analyze/reducible", "closed-analyze", REDUCIBLE_DOC, ()),
    ("classes/reducible", "classes", REDUCIBLE_DOC, ()),
    ("tandem-analyze/cluster", "tandem-analyze", None, ()),
    ("cluster-analyze/cluster", "cluster-analyze", CLUSTER_DOC, ()),
    ("cluster-analyze/reducible-grouped", "cluster-analyze",
     REDUCIBLE_GROUPED_DOC, ()),
    # -N 4 fills the open queue, so arrivals are rejected at capacity.
    ("oracle-compare/open", "oracle-compare", OPEN_DOC, ("-N", "4")),
    ("oracle-compare/isomorphic", "oracle-compare", SPARSE_SPLIT_DOC, ()),
    ("oracle-compare/direct", "oracle-compare", SPARSE_DOC, ()),
    ("oracle-compare/cluster", "oracle-compare", None, ()),
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


def _observe(command: str, doc, workdir: Path, flags=()) -> dict:
    model = _model(doc, workdir)
    json_out = workdir / "out.json"
    table_out = workdir / "out.txt"
    matrix = workdir / "matrix.txt"
    dump = ["--dump-matrix", str(matrix)] if command == "oracle-compare" else []
    assert main([command, model, *flags, "--format", "json",
                 "--output", str(json_out), *dump]) == 0
    assert main([command, model, *flags, "--output", str(table_out)]) == 0
    parsed = json.loads(json_out.read_text())
    lines = table_out.read_text().splitlines()
    body = [line for line in lines if not line.startswith("# ")]
    observed = {
        "result": parsed["result"],
        "warnings": parsed["warnings"],
        "table": body,
    }
    if dump:
        observed["matrix_sha256"] = hashlib.sha256(
            matrix.read_bytes()
        ).hexdigest()
    return observed


@pytest.mark.parametrize(
    "name,command,doc,flags", CASES, ids=[c[0] for c in CASES]
)
def test_cli_output_matches_golden(name, command, doc, flags, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert _observe(command, doc, tmp_path, flags) == golden[name]


if __name__ == "__main__":
    import tempfile

    out = {}
    for name, command, doc, flags in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = _observe(command, doc, Path(tmp), flags)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}")
