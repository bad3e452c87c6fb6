import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    ClosedQueue,
    PlacementOrder,
    ResourceError,
    StructureError,
    SwappingGraph,
    TandemNetwork,
    UsageError,
    adheres,
    adheres_tandem,
    analyze_closed,
    analyze_tandem,
    analyze_tandem_macrostates,
    balance,
    build_generator,
    closed_step,
    communicating_classes,
    enumerate_adhering,
    enumerate_placement_orders,
    enumerate_sigma,
    first_queue_macrostates,
    isomorphic_model,
    macrostate,
    order_from_state,
    tandem_step,
    total_variation,
)
from passandswap import MultiServerRates
from passandswap.oracle import unique_solution
from conftest import (
    UnitIncrementRates,
    brute_reachability_partition,
    transition_fn,
)


def b(*vals):
    return tuple(v - 1 for v in vals)


BOTTOM_TO_TOP = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]


@pytest.fixture
def six_class_order(six_class_graph):
    return PlacementOrder.orient(six_class_graph, BOTTOM_TO_TOP)


# ---------------------------------------------------------------- orders


def test_single_edge_has_two_orders():
    g = SwappingGraph.from_pairs(2, [(0, 1)])
    orders = enumerate_placement_orders(g)
    assert len(orders) == 2
    assert {o.reach for o in orders} == {
        frozenset({(0, 1)}),
        frozenset({(1, 0)}),
    }


def test_edgeless_graph_single_empty_order():
    orders = enumerate_placement_orders(SwappingGraph.edgeless(3))
    assert len(orders) == 1
    assert orders[0].reach == frozenset()


def test_loops_are_rejected():
    g = SwappingGraph.from_pairs(2, [(0, 0), (0, 1)])
    with pytest.raises(StructureError):
        enumerate_placement_orders(g)


def test_bottom_to_top_orientation_enumerated(
    six_class_graph, six_class_order
):
    orders = enumerate_placement_orders(six_class_graph)
    assert six_class_order in orders
    # direct arcs plus the two transitive pairs through the middle layer
    for i, j in BOTTOM_TO_TOP:
        assert six_class_order.precedes(i, j)
    assert six_class_order.precedes(0, 5)
    assert six_class_order.precedes(1, 5)
    assert not six_class_order.comparable(0, 1)


def test_minimal_and_maximal_classes(six_class_order):
    assert set(six_class_order.minimal_classes()) == {0, 1}
    assert set(six_class_order.maximal_classes()) == {5}


def test_cyclic_orientation_rejected():
    g = SwappingGraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(StructureError):
        PlacementOrder.orient(g, [(0, 1), (1, 2), (2, 0)])


# ------------------------------------------------------------- adherence


def test_adherence_golden(six_class_order):
    assert adheres(b(1, 2, 3, 4, 5, 6), six_class_order)
    assert adheres(b(2, 1, 4, 5, 3, 6), six_class_order)
    assert not adheres(b(3, 1, 2, 3, 4, 5, 6), six_class_order)
    assert adheres((), six_class_order)


def test_tandem_adherence_golden(six_class_order):
    assert adheres_tandem((b(2, 5, 1), b(6, 4, 3)), six_class_order)
    # swapping the queues without reversing generally breaks adherence,
    # but the swapped state adheres to the reversed order
    assert not adheres_tandem((b(6, 4, 3), b(2, 5, 1)), six_class_order)
    assert adheres_tandem(
        (b(6, 4, 3), b(2, 5, 1)), six_class_order.reversed_order()
    )


def test_all_available_state_adheres(six_class_order):
    d = tuple(reversed(six_class_order.topological()))
    assert adheres_tandem(((), d), six_class_order)


def test_order_from_state(six_class_graph, six_class_order):
    derived = order_from_state(six_class_graph, b(1, 2, 3, 4, 5, 6))
    assert derived == six_class_order
    assert order_from_state(six_class_graph, b(3, 1, 2, 3, 4, 5, 6)) is None


# ------------------------------------------------------------------ steps


def test_closed_step_golden(six_class_graph):
    s1 = closed_step(six_class_graph, b(1, 2, 3, 4, 5, 6), 0)
    assert s1 == b(2, 1, 4, 5, 3, 6)
    s2 = closed_step(six_class_graph, s1, 0)
    assert s2 == b(1, 2, 5, 3, 4, 6)


def test_tail_completion_is_identity(six_class_graph):
    state = b(1, 2, 3, 4, 5, 6)
    assert closed_step(six_class_graph, state, len(state) - 1) == state


def test_tandem_step_golden(six_class_graph):
    c, d = tandem_step(six_class_graph, (b(1, 2, 3, 4, 5, 6), ()), 1, 0)
    assert c == b(2, 1, 4, 5, 3)
    assert d == b(6)


def test_tandem_step_second_queue(six_class_graph):
    c, d = tandem_step(six_class_graph, (b(1, 2, 4, 5, 3), b(6)), 2, 0)
    assert d == ()
    assert c == b(1, 2, 4, 5, 3, 6)


def test_tandem_step_population_invariant(six_class_graph):
    rng = random.Random(11)
    state = (b(1, 2, 3), b(6, 5, 4))
    total = macrostate(state[0] + state[1], 6)
    for _ in range(200):
        c, d = state
        queue = rng.choice([1, 2]) if c and d else (1 if c else 2)
        side = c if queue == 1 else d
        state = tandem_step(
            six_class_graph, state, queue, rng.randrange(len(side))
        )
        assert macrostate(state[0] + state[1], 6) == total


# ------------------------------------------------------------ enumeration


def test_enumerate_adhering_simple():
    g = SwappingGraph.from_pairs(2, [(0, 1)])
    order = PlacementOrder.orient(g, [(0, 1)])
    assert enumerate_adhering(order, (1, 1)) == ((0, 1),)


def test_enumerate_adhering_budget_is_exact():
    # three unordered classes: 3! = 6 adhering states
    order = PlacementOrder(3, frozenset())
    assert len(enumerate_adhering(order, (1, 1, 1), 6)) == 6
    with pytest.raises(ResourceError, match="reached 6 states, budget 5"):
        enumerate_adhering(order, (1, 1, 1), 5)


def test_enumerate_adhering_counts_linear_extensions(six_class_order):
    states = enumerate_adhering(six_class_order, (1,) * 6)
    brute = [
        perm
        for perm in itertools.permutations(range(6))
        if adheres(perm, six_class_order)
    ]
    assert sorted(states) == sorted(brute)


def test_enumerate_adhering_with_multiplicities():
    g = SwappingGraph.from_pairs(3, [(0, 1), (1, 2)])
    order = PlacementOrder.orient(g, [(0, 1), (1, 2)])
    pop = (2, 2, 1)
    states = enumerate_adhering(order, pop)
    brute = {
        perm
        for perm in itertools.permutations((0, 0, 1, 1, 2))
        if adheres(perm, order)
    }
    assert set(states) == brute
    assert len(states) == len(set(states))


def test_closed_step_preserves_adherence(six_class_graph, six_class_order):
    # exhaustive over a population of total 7 on a smaller graph, plus the
    # six-class single-token space
    cases = [
        (six_class_graph, six_class_order, (1,) * 6),
    ]
    g3 = SwappingGraph.from_pairs(3, [(0, 1), (1, 2)])
    o3 = PlacementOrder.orient(g3, [(0, 1), (1, 2)])
    cases.append((g3, o3, (3, 2, 2)))
    for graph, order, pop in cases:
        states = set(enumerate_adhering(order, pop))
        for state in states:
            for pos in range(len(state)):
                nxt = closed_step(graph, state, pos)
                assert nxt in states


def test_tandem_step_preserves_adherence(six_class_graph, six_class_order):
    net_states = enumerate_sigma(
        TandemNetwork(
            UnitIncrementRates(6),
            UnitIncrementRates(6),
            six_class_graph,
            (1,) * 6,
            six_class_order,
        )
    )
    state_set = set(net_states)
    for c, d in net_states:
        for pos in range(len(c)):
            assert tandem_step(six_class_graph, (c, d), 1, pos) in state_set
        for pos in range(len(d)):
            assert tandem_step(six_class_graph, (c, d), 2, pos) in state_set


def test_enumerate_sigma_matches_brute_force(six_class_graph, six_class_order):
    net = TandemNetwork(
        UnitIncrementRates(6),
        UnitIncrementRates(6),
        six_class_graph,
        (1,) * 6,
        six_class_order,
    )
    sigma = enumerate_sigma(net)
    brute = set()
    for perm in itertools.permutations(range(6)):
        for cut in range(7):
            cand = (perm[:cut], tuple(reversed(perm[cut:])))
            if adheres_tandem(cand, six_class_order):
                brute.add(cand)
    assert set(sigma) == brute
    assert len(sigma) == len(set(sigma))


def test_first_queue_macrostates(six_class_order):
    net = TandemNetwork(
        UnitIncrementRates(6),
        UnitIncrementRates(6),
        six_class_order.swapping_graph(),
        (1,) * 6,
        six_class_order,
    )
    xs = set(first_queue_macrostates(six_class_order, (1,) * 6))
    from_sigma = {macrostate(c, 6) for c, _ in enumerate_sigma(net)}
    assert xs == from_sigma


# ------------------------------------------------------- stationary laws


def test_uniform_distribution_with_unit_increments(
    six_class_graph, six_class_order
):
    cq = ClosedQueue(
        UnitIncrementRates(6), six_class_graph, (1,) * 6, six_class_order
    )
    dist = analyze_closed(cq, cq.initial_state())
    n = len(dist.states)
    assert n > 1
    for p in dist.distribution.values():
        assert p == pytest.approx(1.0 / n)
    assert dist.partition.n_components == 1
    assert not dist.warnings


def test_closed_distribution_matches_oracle(six_class_graph, six_class_order):
    rf = MultiServerRates.build(
        [1.0, 1.5, 2.0], [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}]
    )
    cq = ClosedQueue(rf, six_class_graph, (1,) * 6, six_class_order)
    dist = analyze_closed(cq, cq.initial_state())
    gen = build_generator(
        transition_fn(cq), cq.initial_state()
    )
    ref = unique_solution(gen).distribution
    assert set(gen.states) == set(dist.states)
    assert total_variation(dict(dist.distribution), ref) < 1e-10


def test_distinct_orders_have_disjoint_supports(six_class_graph):
    orders = enumerate_placement_orders(six_class_graph)[:6]
    supports = [
        set(enumerate_adhering(order, (1,) * 6)) for order in orders
    ]
    for a, b_ in itertools.combinations(supports, 2):
        assert not (a & b_)


def test_tandem_constant_second_rate_factorizes(
    six_class_graph, six_class_order
):
    # with nu constant on non-empty states, the second factor only depends
    # on the queue length
    nu0 = 1.7
    nu = MultiServerRates.build([nu0], [{0}] * 6)
    for d in [b(6), b(6, 3), b(6, 4, 3)]:
        w = balance(nu, d)
        assert math.exp(w) == pytest.approx(nu0 ** -len(d))


def test_tandem_distribution_matches_oracle(six_class_graph, six_class_order):
    mu_fn = MultiServerRates.build(
        [1.0, 1.5, 2.0], [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}]
    )
    nu_fn = MultiServerRates.build([1.0], [{0}] * 6)
    net = TandemNetwork(
        mu_fn, nu_fn, six_class_graph, (1,) * 6, six_class_order
    )
    dist = analyze_tandem(net)
    gen = build_generator(transition_fn(net), net.initial_state())
    ref = unique_solution(gen).distribution
    assert total_variation(dict(dist.distribution), ref) < 1e-10
    marginal = {}
    for (c, _), p in dist.distribution.items():
        marginal[c] = marginal.get(c, 0.0) + p
    oracle_marginal = {}
    for (c, _), p in ref.items():
        oracle_marginal[c] = oracle_marginal.get(c, 0.0) + p
    for c, p in marginal.items():
        assert p == pytest.approx(oracle_marginal[c], abs=1e-10)


# --------------------------------------------------- communicating classes


def test_single_closed_class_with_unit_increments(
    six_class_graph, six_class_order
):
    cq = ClosedQueue(
        UnitIncrementRates(6), six_class_graph, (1,) * 6, six_class_order
    )
    states = enumerate_adhering(six_class_order, (1,) * 6)
    step = transition_fn(cq)
    succ = lambda s: [t for t, _ in step(s)]
    partition = communicating_classes(states, succ)
    assert partition.n_components == 1
    brute_classes, brute_closed = brute_reachability_partition(states, succ)
    assert len(brute_classes) == 1 and brute_closed == [True]


def test_multi_server_closed_queue_still_one_class(
    six_class_graph, six_class_order
):
    # per-position rates are not everywhere positive here, yet the chain is
    # still irreducible on the adhering states; verified, not assumed
    rf = MultiServerRates.build(
        [1.0, 1.0, 1.0], [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}]
    )
    cq = ClosedQueue(rf, six_class_graph, (1,) * 6, six_class_order)
    dist = analyze_closed(cq, cq.initial_state())
    assert dist.partition.n_components == 1


def test_tandem_unit_increments_single_closed_class(
    six_class_graph, six_class_order
):
    net = TandemNetwork(
        UnitIncrementRates(6),
        UnitIncrementRates(6),
        six_class_graph,
        (1,) * 6,
        six_class_order,
    )
    dist = analyze_tandem(net)
    assert dist.partition.n_components == 1


def test_analytic_distributions_satisfy_global_balance(
    six_class_graph, six_class_order
):
    # the normalized balance weights must annihilate the generator
    rf = MultiServerRates.build(
        [1.0, 1.5, 2.0], [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}]
    )
    cq = ClosedQueue(rf, six_class_graph, (1,) * 6, six_class_order)
    dist = analyze_closed(cq, cq.initial_state())
    gen = build_generator(transition_fn(cq), cq.initial_state())
    import numpy as np

    pi = np.array([dist.distribution[s] for s in gen.states])
    assert np.abs(pi @ gen.matrix).max() < 1e-10

    nu_fn = MultiServerRates.build([1.0], [{0}] * 6)
    net = TandemNetwork(rf, nu_fn, six_class_graph, (1,) * 6, six_class_order)
    tdist = analyze_tandem(net)
    tgen = build_generator(transition_fn(net), net.initial_state())
    tpi = np.array([tdist.distribution[s] for s in tgen.states])
    assert np.abs(tpi @ tgen.matrix).max() < 1e-10


def test_no_transient_states_across_small_models(six_class_graph):
    # every communicating class of a closed model is closed
    g3 = SwappingGraph.from_pairs(3, [(0, 1), (1, 2)])
    o3 = PlacementOrder.orient(g3, [(0, 1), (1, 2)])
    cq = ClosedQueue(UnitIncrementRates(3), g3, (2, 1, 2), o3)
    dist = analyze_closed(cq, cq.initial_state())
    step = transition_fn(cq)
    _, closed = brute_reachability_partition(
        dist.partition.states, lambda s: [t for t, _ in step(s)]
    )
    assert all(closed)


def test_reducible_space_restricts_to_initial_class():
    # no swapping edges and one server for both classes: customers never
    # overtake, so the cyclic order of the initial state is invariant
    rf = MultiServerRates.build([1.0], [{0}, {0}])
    cq = ClosedQueue(rf, SwappingGraph.edgeless(2), (2, 2))
    initial = b(1, 1, 2, 2)
    analysis = analyze_closed(cq, initial)
    assert analysis.route == "direct"
    assert [len(c) for c in analysis.partition.classes] == [4, 2]
    assert analysis.warnings == (
        "the adhering state space splits into 2 communicating classes; the "
        "reported distribution is stationary but may not be the only one",
    )
    assert initial in analysis.states
    assert set(analysis.distribution) == set(analysis.states)
    assert len(analysis.states) == 4
    for p in analysis.distribution.values():
        assert p == pytest.approx(0.25)
    gen = build_generator(transition_fn(cq), initial)
    assert set(gen.states) == set(analysis.states)
    ref = unique_solution(gen).distribution
    assert total_variation(analysis.distribution, ref) < 1e-12


# ----------------------------------------------------- duplicate splitting


def test_split_of_interleaved_state():
    g = SwappingGraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    initial = b(1, 2, 1, 2, 2, 3)
    cq = ClosedQueue(UnitIncrementRates(3), g, macrostate(initial, 3))
    iso = isomorphic_model(cq, initial)
    assert iso.class_names == ("1", "2", "3", "1'", "2'", "2''")
    assert [iso.class_names[c] for c in iso.iso_initial] == [
        "1", "2", "1'", "2'", "2''", "3",
    ]
    assert iso.split_map == ((0, 3), (1, 4, 5), (2,))
    # split classes never share an edge with their own copies
    for a, b_ in iso.iso_queue.swapping.edges:
        assert iso.class_projection[a] != iso.class_projection[b_]


def test_split_is_identity_for_distinct_classes(six_class_graph):
    cq = ClosedQueue(UnitIncrementRates(6), six_class_graph, (1,) * 6)
    iso = isomorphic_model(cq, b(1, 2, 3, 4, 5, 6))
    assert iso.iso_queue.swapping == six_class_graph
    assert iso.iso_initial == b(1, 2, 3, 4, 5, 6)
    assert iso.class_projection == tuple(range(6))


def test_split_preserves_increments():
    g = SwappingGraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    rf = MultiServerRates.build([1.0, 2.0], [{0}, {1}, {0, 1}])
    initial = b(1, 2, 1, 2, 2, 3)
    cq = ClosedQueue(rf, g, macrostate(initial, 3))
    iso = isomorphic_model(cq, initial)
    rng = random.Random(12)
    for _ in range(100):
        state = tuple(
            rng.randrange(iso.iso_queue.n_classes)
            for _ in range(rng.randint(0, 5))
        )
        projected = iso.project_state(state)
        assert iso.iso_queue.rate_fn.increments(state) == pytest.approx(
            rf.increments(projected)
        )


def test_every_split_state_has_unique_order():
    g = SwappingGraph.from_pairs(3, [(0, 1), (1, 2)])
    initial = b(1, 2, 1, 2, 2, 3)
    cq = ClosedQueue(UnitIncrementRates(3), g, macrostate(initial, 3))
    iso = isomorphic_model(cq, initial)
    states = enumerate_adhering(
        iso.iso_queue.order, iso.iso_queue.population
    )
    for state in states:
        order = order_from_state(iso.iso_queue.swapping, state)
        assert order == iso.iso_queue.order


def test_fibers_have_equal_cardinality():
    g = SwappingGraph.from_pairs(3, [(0, 1), (1, 2)])
    initial = b(1, 2, 1, 2, 2, 3)
    cq = ClosedQueue(UnitIncrementRates(3), g, macrostate(initial, 3))
    iso = isomorphic_model(cq, initial)
    states = enumerate_adhering(
        iso.iso_queue.order, iso.iso_queue.population
    )
    fibers = {}
    for state in states:
        fibers.setdefault(iso.project_state(state), 0)
        fibers[iso.project_state(state)] += 1
    assert len(set(fibers.values())) == 1


def test_nonadhering_analysis_matches_oracle():
    g = SwappingGraph.from_pairs(3, [(0, 1), (1, 2)])
    rf = MultiServerRates.build([1.0, 2.0], [{0}, {1}, {0, 1}])
    initial = b(1, 2, 1, 2, 2, 3)
    assert order_from_state(g, initial) is None
    cq = ClosedQueue(rf, g, macrostate(initial, 3))
    analysis = analyze_closed(cq, initial)
    assert analysis.route == "isomorphic"
    gen = build_generator(transition_fn(cq), initial)
    ref = unique_solution(gen).distribution
    assert set(ref) == set(analysis.states)
    assert total_variation(dict(analysis.distribution), ref) < 1e-10


def test_adhering_analysis_uses_direct_route(six_class_graph):
    cq = ClosedQueue(UnitIncrementRates(6), six_class_graph, (1,) * 6)
    analysis = analyze_closed(cq, b(1, 2, 3, 4, 5, 6))
    assert analysis.route == "direct"
    assert analysis.order is not None


def test_tandem_rejects_nonadhering_initial(six_class_graph, six_class_order):
    net = TandemNetwork(
        UnitIncrementRates(6),
        UnitIncrementRates(6),
        six_class_graph,
        (1,) * 6,
        six_class_order,
    )
    with pytest.raises(StructureError):
        analyze_tandem(net, (b(3, 1), b(2, 4, 5, 6)))


def test_a_class_that_no_server_serves_is_refused():
    # Class 1 (0-based) has no server in the first queue, so the overall
    # rate of macrostate (0, 1) is 0.  The tandem analyses meet it in the
    # recursion that sizes the space, the closed queue when it weighs the
    # state (1, 0).
    idle = MultiServerRates.build([1.0], [{0}, set()])
    graph = SwappingGraph.edgeless(2)
    net = TandemNetwork(idle, MultiServerRates.build([1.0], [{0}, {0}]),
                        graph, (1, 1), PlacementOrder(2, frozenset()))
    for analyze in (analyze_tandem_macrostates, analyze_tandem):
        with pytest.raises(UsageError, match=r"not positive on macrostate "
                                             r"\(0, 1\)$"):
            analyze(net)
    with pytest.raises(UsageError, match=r"not positive on prefix \(0, 1\)$"):
        analyze_closed(ClosedQueue(idle, graph, (1, 1)), (0, 1))


# ------------------------------------------- orders on random class DAGs


@st.composite
def random_orders(draw, max_classes=7):
    """A placement order over at most ``max_classes`` classes, generated by
    arcs that ascend a random ranking of the classes (so never a cycle)."""
    n = draw(st.integers(1, max_classes))
    rank = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return PlacementOrder(n, frozenset((rank[i], rank[j]) for i, j in chosen))


def brute_closure(order):
    """Transitive closure of ``order``'s arcs, by Floyd-Warshall."""
    n = order.n_classes
    reach = set(order.arcs)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if (i, k) in reach and (k, j) in reach:
                    reach.add((i, j))
    return reach


def brute_adheres(state, closure):
    return not any(
        (state[q], state[p]) in closure
        for p in range(len(state))
        for q in range(p + 1, len(state))
    )


@given(random_orders())
def test_order_relation_is_the_transitive_closure(order):
    closure = brute_closure(order)
    n = order.n_classes
    for i in range(n):
        for j in range(n):
            assert order.precedes(i, j) == ((i, j) in closure)
    assert order.minimal_classes() == tuple(
        j for j in range(n) if not any((i, j) in closure for i in range(n))
    )
    assert order.maximal_classes() == tuple(
        i for i in range(n) if not any((i, j) in closure for j in range(n))
    )


@given(random_orders(), st.data())
def test_adheres_matches_pairwise_definition(order, data):
    state = tuple(data.draw(
        st.lists(st.integers(0, order.n_classes - 1), max_size=8)
    ))
    assert adheres(state, order) == brute_adheres(state, brute_closure(order))


@given(random_orders(), st.data())
def test_enumerate_adhering_is_the_sorted_adhering_permutations(order, data):
    customers = data.draw(
        st.lists(st.integers(0, order.n_classes - 1), max_size=6)
    )
    closure = brute_closure(order)
    expected = tuple(
        perm for perm in sorted(set(itertools.permutations(sorted(customers))))
        if brute_adheres(perm, closure)
    )
    population = macrostate(customers, order.n_classes)
    assert enumerate_adhering(order, population) == expected


@st.composite
def adhering_states(draw, max_classes=5):
    """A random loop-free swapping graph and a state holding one to three
    customers of every class that adheres to some placement order: the
    customers sorted by a random ranking of the classes, then shuffled by
    adjacent swaps of classes the graph does not join."""
    n = draw(st.integers(1, max_classes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = (SwappingGraph.from_pairs(n, edges) if edges
             else SwappingGraph.edgeless(n))
    rank = draw(st.permutations(range(n)))
    population = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    state = [cls for cls in rank for _ in range(population[cls])]
    if len(state) > 1:
        for p in draw(st.lists(st.integers(0, len(state) - 2), max_size=40)):
            if state[p + 1] not in graph.neighbors(state[p]):
                state[p], state[p + 1] = state[p + 1], state[p]
    return graph, tuple(state)


@given(adhering_states())
def test_closed_step_preserves_adherence_on_random_graphs(case):
    graph, state = case
    order = order_from_state(graph, state)
    assert order is not None
    for pos in range(len(state)):
        nxt = closed_step(graph, state, pos)
        assert adheres(nxt, order)
        assert order_from_state(graph, nxt) == order


@given(adhering_states(), st.data())
def test_tandem_step_preserves_adherence_on_random_graphs(case, data):
    graph, seq = case
    order = order_from_state(graph, seq)
    cut = data.draw(st.integers(0, len(seq)))
    s = (seq[:cut], tuple(reversed(seq[cut:])))
    assert adheres_tandem(s, order)
    for queue in (1, 2):
        for pos in range(len(s[queue - 1])):
            c, d = tandem_step(graph, s, queue, pos)
            assert adheres_tandem((c, d), order)
            assert order_from_state(graph, c + tuple(reversed(d))) == order
