"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run pytest with -s to see them)."""

import itertools
import random
import time

from passandswap import (
    ClosedQueue,
    ClusterSpec,
    MultiServerRates,
    PandsQueue,
    PlacementOrder,
    SimConfig,
    SwappingGraph,
    analyze_closed,
    analyze_tandem,
    apply_completion,
    build_generator,
    closed_step,
    communicating_classes,
    compile_cluster,
    enumerate_adhering,
    isomorphic_model,
    macrostate,
    macrostate_flow_identity,
    metrics,
    predecessors,
    simulate,
    simulate_protocol,
    stability_check,
    stationary_truncated,
    tandem_step,
    total_variation,
    verify_partial_balance,
)
from passandswap.closed import TandemNetwork
from passandswap.oracle import unique_solution
from conftest import (
    UnitIncrementRates,
    transition_fn,
)


def b(*vals):
    return tuple(v - 1 for v in vals)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


TWO_CLASS_RATES = MultiServerRates.build([1.0, 1.0, 1.0], [{0, 2}, {1, 2}])
THREE_CLASS_RATES = MultiServerRates.build([1.0, 1.0], [{0}, {1}, {0, 1}])
PATH_GRAPH = SwappingGraph.from_pairs(3, [(0, 1), (1, 2)])
SIX_GRAPH = SwappingGraph.from_pairs(
    6, [(5, 2), (2, 0), (0, 3), (3, 1), (1, 4), (4, 5), (5, 3)]
)
BOTTOM_TO_TOP = PlacementOrder.orient(
    SIX_GRAPH, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]
)


def test_a01_mechanism_golden_transitions():
    start = time.perf_counter()
    out = apply_completion(PATH_GRAPH, b(1, 3, 3, 2, 2, 3, 1, 2), 0)
    ok = out.next_state == b(3, 3, 1, 2, 2, 1, 3) and out.departing_class == 1

    s1 = closed_step(SIX_GRAPH, b(1, 2, 3, 4, 5, 6), 0)
    s2 = closed_step(SIX_GRAPH, s1, 0)
    ok = ok and s1 == b(2, 1, 4, 5, 3, 6) and s2 == b(1, 2, 5, 3, 4, 6)

    c, d = tandem_step(SIX_GRAPH, (b(1, 2, 3, 4, 5, 6), ()), 1, 0)
    ok = ok and c == b(2, 1, 4, 5, 3) and d == b(6)
    elapsed = time.perf_counter() - start
    check("A1", ok and elapsed < 1.0,
          f"golden transitions exact, {elapsed:.3f}s")


def test_a02_truncated_product_form_vs_oracle():
    start = time.perf_counter()
    queue = PandsQueue((0.8, 0.8), TWO_CLASS_RATES, SwappingGraph.edgeless(2))
    worst = 0.0
    for capacity in (4, 6, 8):
        analytic = stationary_truncated(queue, capacity).probabilities()
        gen = build_generator(transition_fn(queue, capacity), ())
        ref = unique_solution(gen).distribution
        worst = max(worst, total_variation(analytic, ref))
    elapsed = time.perf_counter() - start
    check("A2", worst < 1e-10 and elapsed < 10.0,
          f"max TV {worst:.2e} over capacities 4/6/8, {elapsed:.2f}s")


def test_a03_swapping_graph_independence():
    worst = 0.0
    # the three-class rate model under edgeless, path, and complete graphs
    graphs3 = [
        SwappingGraph.edgeless(3),
        PATH_GRAPH,
        SwappingGraph.complete(3),
    ]
    dists = []
    for graph in graphs3:
        queue = PandsQueue((0.8, 0.8, 0.8), THREE_CLASS_RATES, graph)
        gen = build_generator(transition_fn(queue, 6), ())
        dists.append(unique_solution(gen).distribution)
    for p, q in itertools.combinations(dists, 2):
        worst = max(worst, total_variation(p, q))
    # and the two-class rate model under its own three graphs
    graphs2 = [
        SwappingGraph.edgeless(2),
        SwappingGraph.from_pairs(2, [(0, 1)]),
        SwappingGraph.complete(2, loops=True),
    ]
    dists2 = []
    for graph in graphs2:
        queue = PandsQueue((0.8, 0.8), TWO_CLASS_RATES, graph)
        gen = build_generator(transition_fn(queue, 6), ())
        dists2.append(unique_solution(gen).distribution)
    for p, q in itertools.combinations(dists2, 2):
        worst = max(worst, total_variation(p, q))
    check("A3", worst < 1e-10, f"oracle distributions pairwise TV {worst:.2e}")


def test_a04_partial_balance_three_models():
    models = [
        PandsQueue((0.8, 0.8), TWO_CLASS_RATES, SwappingGraph.edgeless(2)),
        PandsQueue((0.8, 0.8, 0.8), THREE_CLASS_RATES, PATH_GRAPH),
        PandsQueue(
            (0.8, 0.8, 0.8), THREE_CLASS_RATES, SwappingGraph.complete(3)
        ),
    ]
    worst = max(verify_partial_balance(q, 5).max_residual for q in models)
    check("A4", worst < 1e-10, f"max balance residual {worst:.2e}")


def _exhaustive_predecessor_map(graph, max_len):
    table = {}
    for m in range(1, max_len + 2):
        for prev in itertools.product(range(graph.n_classes), repeat=m):
            for pos in range(m):
                out = apply_completion(graph, prev, pos)
                table.setdefault(
                    (out.next_state, out.departing_class), set()
                ).add((prev, pos))
    return table


def test_a05_predecessor_construction_equals_exhaustive_replay():
    rng = random.Random(2024)
    graphs = []
    for n in (2, 3, 3, 4, 4):
        pairs = [
            (a, c) for a in range(n) for c in range(a, n)
            if rng.random() < 0.5
        ]
        graphs.append(SwappingGraph.from_pairs(n, pairs))
    max_len = 6
    for graph in graphs:
        table = _exhaustive_predecessor_map(graph, max_len)
        n = graph.n_classes
        for length in range(max_len + 1):
            for state in itertools.product(range(n), repeat=length):
                for cls in range(n):
                    got = set(predecessors(graph, state, cls))
                    want = table.get((state, cls), set())
                    assert got == want, (graph.edges, state, cls)
    check("A5", True,
          f"exact set equality on 5 graphs, states to length {max_len}")


def test_a06_departure_equals_service_flow_by_macrostate():
    queue = PandsQueue((0.8, 0.8, 0.8), THREE_CLASS_RATES, PATH_GRAPH)
    worst = 0.0
    for total in range(1, 6):
        gap, _ = macrostate_flow_identity(queue, total)
        worst = max(worst, gap)
    check("A6", worst < 1e-10, f"max flow-identity gap {worst:.2e}")


def test_a07_stability_boundary_grid():
    # stable iff l1 < 2, l2 < 2, and l1 + l2 < 3 (strictly)
    grid = [
        (1.9, 0.5), (2.0, 0.5), (2.1, 0.5),
        (0.5, 1.9), (0.5, 2.0), (0.5, 2.1),
        (1.4, 1.4), (1.5, 1.5), (1.6, 1.6),
    ]
    ok = True
    for l1, l2 in grid:
        queue = PandsQueue((l1, l2), TWO_CLASS_RATES, SwappingGraph.edgeless(2))
        expected = l1 < 2.0 and l2 < 2.0 and l1 + l2 < 3.0
        ok = ok and stability_check(queue).stable == expected
    check("A7", ok, "exact boolean agreement on 9 boundary points")


def test_a08_closed_queue_reachability_and_distribution():
    start = time.perf_counter()
    cq = ClosedQueue(UnitIncrementRates(6), SIX_GRAPH, (1,) * 6, BOTTOM_TO_TOP)
    initial = b(1, 2, 3, 4, 5, 6)
    adhering = set(enumerate_adhering(BOTTOM_TO_TOP, (1,) * 6))
    gen = build_generator(transition_fn(cq), initial)
    reachable_ok = set(gen.states) == adhering

    step = transition_fn(cq)
    partition = communicating_classes(
        tuple(sorted(adhering)),
        lambda s: [t for t, _ in step(s)],
    )
    single_class = partition.n_components == 1

    dist = analyze_closed(cq, cq.initial_state())
    uniform_gap = max(
        abs(p - 1.0 / len(dist.states)) for p in dist.distribution.values()
    )
    ref = unique_solution(gen).distribution
    tv = total_variation(dict(dist.distribution), ref)
    elapsed = time.perf_counter() - start
    check(
        "A8",
        reachable_ok and single_class and uniform_gap < 1e-12
        and tv < 1e-10 and elapsed < 30.0,
        f"{len(adhering)} adhering states, one closed class, uniform, "
        f"TV {tv:.2e}, {elapsed:.2f}s",
    )


def test_a09_tandem_distribution_vs_oracle():
    mu_fn = MultiServerRates.build(
        [1.0, 1.5, 2.0], [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}]
    )
    nu_fn = MultiServerRates.build([1.0], [{0}] * 6)
    net = TandemNetwork(mu_fn, nu_fn, SIX_GRAPH, (1,) * 6, BOTTOM_TO_TOP)
    analysis = analyze_tandem(net)
    gen = build_generator(transition_fn(net), net.initial_state())
    invariant = all(
        macrostate(c + d, 6) == (1,) * 6 for c, d in gen.states
    )
    ref = unique_solution(gen).distribution
    tv = total_variation(dict(analysis.distribution), ref)
    check(
        "A9",
        tv < 1e-10 and invariant,
        f"TV {tv:.2e} over {len(analysis.states)} states, "
        "population invariant holds",
    )


def test_a10_duplicate_split_projection():
    triangle = SwappingGraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    rates = MultiServerRates.build([1.0, 2.0], [{0}, {1}, {0, 1}])
    initial = b(1, 2, 1, 2, 2, 3)
    cq = ClosedQueue(rates, triangle, macrostate(initial, 3))
    iso = isomorphic_model(cq, initial)
    split_ok = (
        iso.class_names == ("1", "2", "3", "1'", "2'", "2''")
        and tuple(iso.class_names[c] for c in iso.iso_initial)
        == ("1", "2", "1'", "2'", "2''", "3")
        and iso.split_map == ((0, 3), (1, 4, 5), (2,))
    )
    iso_states = enumerate_adhering(
        iso.iso_queue.order, iso.iso_queue.population
    )
    fiber_sizes = {}
    for state in iso_states:
        key = iso.project_state(state)
        fiber_sizes[key] = fiber_sizes.get(key, 0) + 1
    fibers_ok = len(set(fiber_sizes.values())) == 1

    analysis = analyze_closed(cq, initial)
    gen = build_generator(transition_fn(cq), initial)
    ref = unique_solution(gen).distribution
    tv = total_variation(dict(analysis.distribution), ref)
    check(
        "A10",
        split_ok and fibers_ok and tv < 1e-10,
        f"split matches, fibers equal ({set(fiber_sizes.values())}), "
        f"projected TV {tv:.2e}",
    )


def test_a11_cluster_pipeline_against_direct_protocol():
    spec = ClusterSpec.bipartite(
        [("A", 1.0, 2), ("B", 1.0, 2)],
        [("1", 1.0, 2), ("2", 1.0, 2), ("3", 1.0, 2)],
        {"A": ["1", "3"], "B": ["2", "3"]},
    )
    ct = compile_cluster(spec)
    analysis = analyze_tandem(ct.network, ct.initial)
    analytic = metrics(ct, analysis.distribution)

    # structural zero-rate properties on every enumerated state
    minimal, maximal = set(ct.minimal), set(ct.maximal)
    structure_ok = True
    for c, d in analysis.states:
        inc1 = ct.network.rate_fn_1.increments(c)
        inc2 = ct.network.rate_fn_2.increments(d)
        if any(inc1[p] != 0.0 for p, cls in enumerate(c) if cls not in minimal):
            structure_ok = False
        if any(inc2[p] != 0.0 for p, cls in enumerate(d) if cls not in maximal):
            structure_ok = False

    cfg = SimConfig(events=1_000_000, replications=10, seed=2025)
    sim = simulate_protocol(spec, cfg)
    detail = []
    within = True
    for t in ct.type_names:
        mean = sim.fractions[f"blocking:{t}"]
        err = sim.fraction_stderr[f"blocking:{t}"]
        gap = abs(mean - analytic.blocking[t])
        within = within and gap <= 3.0 * err
        detail.append(f"{t}: analytic {analytic.blocking[t]:.5f} "
                      f"sim {mean:.5f}±{err:.5f}")
    check("A11", structure_ok and within, "; ".join(detail))


def test_a12_open_simulation_statistical_validation():
    queue = PandsQueue((0.8, 0.8), TWO_CLASS_RATES, SwappingGraph.edgeless(2))
    analytic = stationary_truncated(queue, 6).probabilities()
    cfg = SimConfig(events=1_000_000, replications=1, seed=77)
    res = simulate(queue, cfg, capacity=6)
    emp = dict(res.occupancy)
    for s in analytic:
        emp.setdefault(s, 0.0)
    tv = total_variation(emp, analytic)
    replay = simulate(queue, cfg, capacity=6)
    deterministic = (
        replay.occupancy == res.occupancy and replay.counters == res.counters
    )
    check("A12", tv < 0.02 and deterministic,
          f"TV {tv:.4f} at 1e6 events, replay bit-identical")
