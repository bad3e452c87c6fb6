"""Fast self-check of the harness: the wrappers, the self-time arithmetic,
the ladder interpolation and the rung counter, on tiny models.

    python3 perfbench/selfcheck.py

It runs on its own, not inside the benchmark runs, and exits 1 on a
failure.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _wrappers(workdir: Path) -> list[str]:
    import passandswap
    from passandswap import closed, dynamics, model

    import ladder
    import tracing
    from workloads import run_cli

    path = workdir / "selfcheck-cluster.json"
    path.write_text(json.dumps(ladder.cluster_doc(
        {name: 1.0 for name in ladder.ENTITIES}, ladder.rung_slots(0))))
    before = (passandswap.apply_completion, dynamics.apply_completion,
              closed.apply_completion, closed.enumerate_sigma,
              model.MultiServerRates.__dict__["rate"])
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = 0
        code, text = run_cli(["cluster-analyze", str(path), "--format", "json"])
    after = (passandswap.apply_completion, dynamics.apply_completion,
             closed.apply_completion, closed.enumerate_sigma,
             model.MultiServerRates.__dict__["rate"])
    problems = []
    if code:
        problems.append(f"traced cluster-analyze exited {code}: {text}")
    if any(a is not b for a, b in zip(before, after)):
        problems.append("uninstall left a wrapper in place")
    spans = {s["name"]: s for s in tracer.spans}
    need = ("cli.main", "modelfile.load_path", "cluster.compile_cluster",
            "closed.analyze_tandem", "closed.enumerate_sigma",
            "closed.enumerate_adhering", "closed.communicating_classes",
            "cluster.metrics")
    missing = [n for n in need if n not in spans]
    if missing:
        return problems + [f"no span for {missing}"]
    if spans["closed.analyze_tandem"]["parent"] != spans["cli.main"]["id"]:
        problems.append("analyze_tandem span is not a child of cli.main")
    if spans["closed.enumerate_sigma"].get("states") != 336:
        problems.append("enumerate_sigma span did not record 336 states")
    calls = {k["name"]: k["calls"] for k in tracer.kernel_rows()}
    for name in ("dynamics.apply_completion", "closed.tandem_transitions",
                 "product_form.balance", "model.MultiServerRates.rate"):
        if not calls.get(name):
            problems.append(f"kernel {name} recorded no calls")
    # tandem_transitions runs once per state inside communicating_classes
    if calls.get("closed.tandem_transitions") != 336:
        problems.append("tandem_transitions recorded "
                        f"{calls.get('closed.tandem_transitions')} calls, not 336")
    layer = tracing.per_layer(tracer.dump(0.0), 1, 1.0)
    if set(layer) != {m for m, _ in tracing.METRICS}:
        problems.append("per_layer does not report every metric")
    if layer["cli.main.self_s"][0] < 0 or layer["closed.analyze_tandem.self_s"][0] < 0:
        problems.append("negative self time")
    return problems


def _self_time() -> list[str]:
    import tracing

    spans = [
        {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "name": "b", "parent": 0, "start": 2.0, "end": 4.0},
        {"id": 3, "name": "c", "parent": 1, "start": 1.5, "end": 2.5},
        {"id": 4, "name": "d", "parent": 0, "start": 9.0, "end": 11.0},
    ]
    kernels = [{"parent": 0, "name": "k", "calls": 5, "total_s": 1.5,
                "self_s": 1.0, "direct_s": 0.5}]
    got = tracing.self_times(spans, kernels)
    # root: 10 - union([1,3],[2,4],[9,10]) - 0.5 direct kernel time = 5.5
    want = {0: 5.5, 1: 1.0, 2: 2.0, 3: 1.0, 4: 2.0}
    bad = {k: got[k] for k in want if not math.isclose(got[k], want[k])}
    return [f"self times {bad}, expected {want}"] if bad else []


def _interpolation() -> list[str]:
    import ladder

    rungs = [(100, 10, 0.1), (1000, 20, 1.0), (10000, 40, 10.0)]
    cases = [
        (math.sqrt(10.0), (math.sqrt(1e7), 20 * math.sqrt(2))),  # inside
        (1.0, (1000, 20)),  # on a rung
        (0.01, (10, 5)),  # below the ladder
        (100.0, (100000, 80)),  # above the ladder
    ]
    problems = []
    for budget, want in cases:
        got = ladder.at_budget(rungs, budget)
        if not all(math.isclose(g, w, rel_tol=1e-9) for g, w in zip(got, want)):
            problems.append(f"at_budget({budget}) = {got}, expected {want}")
    return problems


def _rung_counter() -> list[str]:
    from passandswap import ClusterSpec, analyze_tandem, compile_cluster
    from passandswap.modelfile import parse_document

    import ladder
    from workloads import first_queue_macrostates

    problems = []
    # The acceptance-test cluster (types A, B with 2 slots; machines 1, 2, 3
    # with buffers of 2): 9,240 tandem states and 43 macrostates.
    a11_order = ladder.precedence(5, [(2, 0), (4, 0), (3, 1), (4, 1)])
    a11 = ladder.count_states((2,) * 5, a11_order)
    if a11 != (9240, 43):
        problems.append(f"rung counter gives {a11} on A11, not (9240, 43)")
    # A small cluster with a path-shaped class layer, and the first rungs.
    path = ClusterSpec.bipartite(
        [("A", 1.0, 2), ("B", 1.0, 1)],
        [("1", 1.0, 1), ("2", 1.0, 2)],
        {"A": ["1"], "B": ["1", "2"]},
    )
    path_order = ladder.precedence(4, [(2, 0), (2, 1), (3, 1)])
    cases = [(path, ladder.count_states((2, 1, 1, 2), path_order))]
    for k in (0, 1, 2):
        slots = ladder.rung_slots(k)
        doc = ladder.cluster_doc({n: 1.0 for n in ladder.ENTITIES}, slots)
        cases.append((parse_document(doc).spec, ladder.family_counts(slots)))
    for spec, counted in cases:
        ct = compile_cluster(spec)
        analysis = analyze_tandem(ct.network, ct.initial)
        got = (len(analysis.states),
               first_queue_macrostates(analysis.states, len(ct.class_names)))
        if got != counted:
            problems.append(f"enumeration {got}, rung counter {counted}")
    return problems


def run(workdir: Path) -> list[str]:
    """Problems found by the self-check; empty when the harness is sound."""
    problems = []
    for part in (_self_time, _interpolation, _rung_counter):
        problems += part()
    return problems + _wrappers(workdir)


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    out = here / "out"
    out.mkdir(exist_ok=True)
    found = run(out)
    for line in found:
        print(f"FAIL {line}")
    print("selfcheck:", "FAIL" if found else "PASS")
    sys.exit(1 if found else 0)
