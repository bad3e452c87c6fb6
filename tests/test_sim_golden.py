"""Golden digests of seeded simulator runs.

Each case pins, by sha256, every field of the ``SimResult`` that the
library returns (``repr`` of its items, so key order counts), the JSON
``result`` of ``passandswap simulate`` and the text it writes to
``--trace-log``, which cluster models refuse.  A change to the event loop that alters one draw, one
float sum or one first-seen key shows here.

Regenerate the golden file after an intended change of the random streams
with

    PYTHONPATH=src python tests/test_sim_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from passandswap.cli import main
from passandswap.modelfile import (
    LoadedCluster,
    LoadedOpen,
    LoadedTandem,
    load_path,
)
from passandswap.sim import SimConfig, simulate, simulate_protocol

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_cli import CLOSED_DOC, CLUSTER_DOC, OPEN_DOC  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "sim.json"

# The A11 acceptance cluster: two types with two waiting slots, three
# machines with buffers of two.
A11_DOC = {
    "schema": "pands-cluster/1",
    "job_types": [
        {"name": "A", "rate": 1.0, "slots": 2, "machines": ["1", "3"]},
        {"name": "B", "rate": 1.0, "slots": 2, "machines": ["2", "3"]},
    ],
    "machines": [
        {"name": m, "rate": 1.0, "buffer": 2} for m in ("1", "2", "3")
    ],
}

# CLOSED_DOC with one swapping edge: its chain visits 15 states, where
# CLOSED_DOC's own never leaves its initial state.
MIXING_CLOSED_DOC = dict(CLOSED_DOC, swapping_edges=[[1, 2]],
                         initial_state=[1, 3, 1, 2, 2, 3])

FIELDS = ("occupancy", "occupancy_stderr", "counters", "counter_stderr",
          "fractions", "fraction_stderr")

# (case name, model document or None for the compiled CLUSTER_DOC tandem,
#  SimConfig keywords, open-model capacity)
CASES = [
    ("open/events", OPEN_DOC,
     dict(events=20_000, replications=3, seed=5), 4),
    ("open/time", OPEN_DOC,
     dict(time=4_000.0, replications=3, seed=6, warmup=0.1), 4),
    ("closed/events", MIXING_CLOSED_DOC,
     dict(events=20_000, replications=3, seed=7), None),
    ("closed/time", MIXING_CLOSED_DOC,
     dict(time=3_000.0, replications=2, seed=8), None),
    ("tandem/events", None,
     dict(events=30_000, replications=2, seed=9), None),
    ("tandem/time", None,
     dict(time=5_000.0, replications=2, seed=10, warmup=0.3), None),
    ("protocol/cluster", CLUSTER_DOC,
     dict(events=20_000, replications=3, seed=11), None),
    ("protocol/cluster-time", CLUSTER_DOC,
     dict(time=5_000.0, replications=2, seed=12), None),
    ("protocol/a11", A11_DOC,
     dict(events=40_000, replications=3, seed=2025), None),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _model(doc, workdir: Path) -> str:
    if doc is None:
        cluster = workdir / "cluster.json"
        cluster.write_text(json.dumps(CLUSTER_DOC))
        tandem = workdir / "tandem.json"
        assert main(["cluster-compile", str(cluster), "-o", str(tandem),
                     "--output", str(workdir / "compile.out")]) == 0
        return str(tandem)
    path = workdir / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _library_result(path: str, cfg: SimConfig, capacity):
    loaded = load_path(path)
    if isinstance(loaded, LoadedOpen):
        return simulate(loaded.queue, cfg, capacity=capacity)
    if isinstance(loaded, LoadedTandem):
        return simulate(loaded.network, cfg, initial=loaded.initial)
    if isinstance(loaded, LoadedCluster):
        return simulate_protocol(loaded.spec, cfg)
    return simulate(loaded.queue, cfg, initial=loaded.initial)


def _cli_args(cfg: SimConfig, capacity) -> list[str]:
    args = ["--seed", str(cfg.seed), "--reps", str(cfg.replications),
            "--warmup", repr(cfg.warmup)]
    if cfg.events is not None:
        args += ["--events", str(cfg.events)]
    else:
        args += ["--time", repr(cfg.time)]
    if capacity is not None:
        args += ["--capacity", str(capacity)]
    return args


def _observe(doc, config: dict, capacity, workdir: Path) -> dict:
    path = _model(doc, workdir)
    cfg = SimConfig(**config)
    result = _library_result(path, cfg, capacity)
    out = {f: _sha(repr(list(getattr(result, f).items()))) for f in FIELDS}
    out["replications"] = result.replications
    json_out = workdir / "out.json"
    trace_out = workdir / "trace.log"
    traced = ["--trace-log", str(trace_out)]
    if isinstance(load_path(path), LoadedCluster):
        # the protocol simulator has no event log to write
        assert main(["simulate", path, *traced,
                     *_cli_args(cfg, capacity)]) == 2
        assert not trace_out.exists()
        traced = []
    assert main(["simulate", path, "--format", "json", "--output",
                 str(json_out), *traced, *_cli_args(cfg, capacity)]) == 0
    out["cli_result"] = _sha(
        json.dumps(json.loads(json_out.read_text())["result"], sort_keys=True))
    if traced:
        out["trace_log"] = _sha(trace_out.read_text())
    return out


@pytest.mark.parametrize("name,doc,config,capacity", CASES,
                         ids=[c[0] for c in CASES])
def test_simulation_matches_golden(name, doc, config, capacity, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert _observe(doc, config, capacity, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    out = {}
    for name, doc, config, capacity in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = _observe(doc, config, capacity, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}")
