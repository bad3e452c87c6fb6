import dataclasses
import random

import pytest

from passandswap import (
    CapabilityError,
    ClusterSpec,
    ProtocolSimulator,
    StructureError,
    UnsupportedFeatureError,
    adheres_tandem,
    analyze_tandem,
    apply_completion,
    compile_cluster,
    enumerate_sigma,
    macrostate,
    metrics,
    tandem_step,
    tandem_transitions,
)


@pytest.fixture
def two_type_spec():
    # types A, B; machines 1, 2, 3; A on {1,3}, B on {2,3}; two slots each
    return ClusterSpec.bipartite(
        [("A", 1.0, 2), ("B", 1.0, 2)],
        [("1", 1.0, 2), ("2", 1.0, 2), ("3", 1.0, 2)],
        {"A": ["1", "3"], "B": ["2", "3"]},
    )


def names(ct, ids):
    return sorted(ct.class_names[i] for i in ids)


def test_bipartite_compilation(two_type_spec):
    ct = compile_cluster(two_type_spec)
    arcs = sorted(
        (ct.class_names[a], ct.class_names[b]) for a, b in ct.network.order.arcs
    )
    assert arcs == [("1", "A"), ("2", "B"), ("3", "A"), ("3", "B")]
    by_name = lambda n: ct.class_id(n)
    # first queue: machine classes on their own machine, types on their
    # compatible machines
    m = {s: i for i, s in enumerate(ct.machine_names)}
    assert ct.first_compat[by_name("1")] == {m["1"]}
    assert ct.first_compat[by_name("3")] == {m["3"]}
    assert ct.first_compat[by_name("A")] == {m["1"], m["3"]}
    assert ct.first_compat[by_name("B")] == {m["2"], m["3"]}
    # second queue: type classes on their own arrival stream, machine
    # classes on the streams that may claim them
    t = {s: i for i, s in enumerate(ct.type_names)}
    assert ct.second_compat[by_name("A")] == {t["A"]}
    assert ct.second_compat[by_name("1")] == {t["A"]}
    assert ct.second_compat[by_name("3")] == {t["A"], t["B"]}
    assert ct.second_compat[by_name("2")] == {t["B"]}
    assert ct.network.population == (2, 2, 2, 2, 2)


def test_initial_state_all_available(two_type_spec):
    ct = compile_cluster(two_type_spec)
    c, d = ct.initial
    assert c == ()
    labels = [ct.class_names[x] for x in d]
    # upper (type) classes first, then machine classes
    assert set(labels[:4]) == {"A", "B"}
    assert set(labels[4:]) == {"1", "2", "3"}
    assert adheres_tandem(ct.initial, ct.network.order)


def test_grouped_compilation():
    spec = ClusterSpec.grouped(
        [("A", 1.0, 1), ("B", 1.0, 1)],
        [("1", 1.0), ("2", 1.0), ("3", 1.0)],
        [
            ("g1", 1, ("1", "3"), ("A",)),
            ("g2", 1, ("2", "3"), ("A", "B")),
        ],
    )
    ct = compile_cluster(spec)
    arcs = sorted(
        (ct.class_names[a], ct.class_names[b]) for a, b in ct.network.order.arcs
    )
    assert arcs == [("g1", "A"), ("g2", "A"), ("g2", "B")]
    m = {s: i for i, s in enumerate(ct.machine_names)}
    t = {s: i for i, s in enumerate(ct.type_names)}
    cid = ct.class_id
    assert ct.first_compat[cid("g1")] == {m["1"], m["3"]}
    assert ct.first_compat[cid("g2")] == {m["2"], m["3"]}
    assert ct.first_compat[cid("A")] == {m["1"], m["2"], m["3"]}
    assert ct.first_compat[cid("B")] == {m["2"], m["3"]}
    assert ct.second_compat[cid("g1")] == {t["A"]}
    assert ct.second_compat[cid("g2")] == {t["A"], t["B"]}


def test_hierarchical_compilation():
    spec = ClusterSpec.hierarchical(3, [1.0, 1.0, 1.0, 1.0], 2.0)
    ct = compile_cluster(spec)
    assert len(ct.class_names) == 7
    arcs = sorted(
        (int(ct.class_names[a]), int(ct.class_names[b]))
        for a, b in ct.network.order.arcs
    )
    assert arcs == [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)]
    edges = {
        tuple(sorted((int(ct.class_names[a]), int(ct.class_names[b]))))
        for a, b in ct.network.swapping.edges
    }
    assert edges == {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)}
    cid = ct.class_id
    assert ct.first_compat[cid("4")] == {0}
    assert ct.first_compat[cid("2")] == {0, 1}
    assert ct.first_compat[cid("1")] == {0, 1, 2, 3}
    assert all(ct.second_compat[cid(str(i))] == {0} for i in range(1, 8))


def test_unbound_end_classes_rejected():
    spec = ClusterSpec.hierarchical(3, [1.0, 1.0, 1.0, 1.0], 2.0)
    bindings = dict(spec.machine_bindings)
    del bindings["5"], bindings["6"]
    with pytest.raises(StructureError,
                       match="minimal class '5' binds to no machine"):
        compile_cluster(dataclasses.replace(spec, machine_bindings=bindings))
    no_types = dataclasses.replace(spec, type_bindings={"1": ()})
    with pytest.raises(StructureError,
                       match="maximal class '1' binds to no job type"):
        compile_cluster(no_types)


def test_cycle_rejected():
    spec = ClusterSpec(
        classes=("x", "y"),
        arcs=(("x", "y"), ("y", "x")),
        counts={"x": 1, "y": 1},
        machines=("m",),
        machine_rates={"m": 1.0},
        machine_bindings={"x": ("m",)},
        job_types=("T",),
        type_rates={"T": 1.0},
        type_bindings={"y": ("T",)},
    )
    with pytest.raises(StructureError):
        compile_cluster(spec)


def test_unbounded_slots_rejected():
    spec = ClusterSpec.bipartite(
        [("A", 1.0, float("inf"))],
        [("1", 1.0, 1)],
        {"A": ["1"]},
    )
    with pytest.raises(UnsupportedFeatureError):
        compile_cluster(spec)


def test_structural_zero_rates(two_type_spec):
    # upper classes are never in service in the first queue, lower classes
    # never in the second
    ct = compile_cluster(two_type_spec)
    net = ct.network
    minimal, maximal = set(ct.minimal), set(ct.maximal)
    for c, d in enumerate_sigma(net):
        inc1 = net.rate_fn_1.increments(c)
        for pos, cls in enumerate(c):
            if cls not in minimal:
                assert inc1[pos] == 0.0
        inc2 = net.rate_fn_2.increments(d)
        for pos, cls in enumerate(d):
            if cls not in maximal:
                assert inc2[pos] == 0.0


def test_available_machine_token_implies_available_type_tokens(two_type_spec):
    # if a machine token is available, every type token of a type that can
    # claim it is available too
    ct = compile_cluster(two_type_spec)
    pop = ct.network.population
    for c, d in enumerate_sigma(ct.network):
        counts = macrostate(d, len(pop))
        for i in ct.minimal:
            if counts[i] == 0:
                continue
            for j in range(len(pop)):
                if ct.network.order.precedes(i, j):
                    assert counts[j] == pop[j]


def test_blocking_zero_when_type_tokens_always_available(two_type_spec):
    ct = compile_cluster(two_type_spec)
    analysis = analyze_tandem(ct.network, ct.initial)
    a_id = ct.class_id("A")
    restricted = {
        s: p
        for s, p in analysis.distribution.items()
        if any(cls == a_id for cls in s[1])
    }
    z = sum(restricted.values())
    restricted = {s: p / z for s, p in restricted.items()}
    m = metrics(ct, restricted)
    assert m.blocking["A"] == 0.0


def test_symmetric_spec_symmetric_blocking():
    spec = ClusterSpec.bipartite(
        [("A", 1.0, 1), ("B", 1.0, 1)],
        [("1", 1.0, 1), ("2", 1.0, 1), ("3", 1.0, 1)],
        {"A": ["1", "3"], "B": ["2", "3"]},
    )
    ct = compile_cluster(spec)
    analysis = analyze_tandem(ct.network, ct.initial)
    m = metrics(ct, analysis.distribution)
    assert m.blocking["A"] == pytest.approx(m.blocking["B"], abs=1e-12)
    assert m.throughput["A"] == pytest.approx(
        spec.type_rates["A"] * (1 - m.blocking["A"])
    )


def test_mean_counts_sum_up(two_type_spec):
    ct = compile_cluster(two_type_spec)
    analysis = analyze_tandem(ct.network, ct.initial)
    m = metrics(ct, analysis.distribution)
    expect = {name: 0.0 for name in ct.class_names}
    for (c, _), p in analysis.distribution.items():
        for cls in c:
            expect[ct.class_names[cls]] += p
    for name, value in m.mean_first_queue_counts.items():
        assert value == pytest.approx(expect[name])


# ------------------------------------------------------- tandem steps


def test_tandem_step_golden(two_type_spec):
    ct = compile_cluster(two_type_spec)
    cid = ct.class_id
    step = lambda state, queue, pos: tandem_step(
        ct.network.swapping, state, queue, pos
    )
    # cluster snapshot: jobs hold (2,1,3,1,2,3,A) oldest-first; available
    # tokens are (B,A,B)
    c0 = tuple(cid(x) for x in ("2", "1", "3", "1", "2", "3", "A"))
    d0 = tuple(cid(x) for x in ("B", "A", "B"))
    initial = (c0, d0)
    assert adheres_tandem(initial, ct.network.order)

    # machine 2 completes and releases its token
    first = step(initial, 1, 0)
    assert first[0] == tuple(cid(x) for x in ("1", "3", "1", "2", "3", "A"))
    assert first[1] == tuple(cid(x) for x in ("B", "A", "B", "2"))

    # machine 3 completes and its slot is reseized by the waiting A job
    second = step(first, 1, 1)
    assert second[0] == tuple(cid(x) for x in ("1", "1", "2", "3", "3"))
    assert second[1] == tuple(cid(x) for x in ("B", "A", "B", "2", "A"))

    # a B job arrives and commits to the released machine-2 token
    third = step(second, 2, 0)
    assert third[0] == tuple(cid(x) for x in ("1", "1", "2", "3", "3", "2"))
    assert third[1] == tuple(cid(x) for x in ("A", "B", "B", "A"))


def test_hierarchical_trace_cascades():
    spec = ClusterSpec.hierarchical(2, [1.0, 1.0], 1.0)
    ct = compile_cluster(spec)
    # an arrival takes the root token and seizes a leaf token
    arrival = next(t for t in tandem_transitions(ct.network, ct.initial)
                   if t.queue == 2 and t.index == 0)
    head = ct.initial[1][arrival.outcome.chain[0]]
    assert ct.class_names[head] == "1"
    assert ct.class_names[arrival.outcome.departing_class] in {"2", "3"}


# ------------------------------------------------ protocol equivalence


def _tandem_view(ct, state):
    c, d = state
    held = [0] * len(ct.class_names)
    for cls in c:
        held[cls] += 1
    machine_avail = [
        ct.class_names[cls] for cls in d if cls in set(ct.minimal)
    ]
    return tuple(held), machine_avail


def test_single_slot_protocol_matches_tandem_trace():
    # one buffer slot per machine and one waiting slot per type: the
    # direct protocol stepper and the compiled tandem must move in lockstep
    spec = ClusterSpec.bipartite(
        [("A", 1.0, 1), ("B", 1.3, 1)],
        [("1", 1.0, 1), ("2", 0.7, 1), ("3", 1.1, 1)],
        {"A": ["1", "3"], "B": ["2", "3"]},
    )
    ct = compile_cluster(spec)
    sim = ProtocolSimulator(spec)
    state = ct.initial
    # start the protocol with its released tokens in the order of the
    # compiled initial state's machine tokens, and no job waiting
    minimal = set(ct.minimal)
    types = {ct.class_id(t) for t in ct.type_names}
    protocol = (
        tuple(
            sim.machine_ids[ct.class_names[cls]]
            for cls in state[1]
            if cls in minimal
        ),
        (),
    )
    rng = random.Random(99)
    steps = 10_000
    for _ in range(steps):
        moves = sim.transitions(protocol)
        total = sum(rate for rate, _ in moves)
        pick = rng.random() * total
        acc = 0.0
        chosen = moves[-1]
        for move in moves:
            acc += move[0]
            if pick < acc:
                chosen = move
                break
        tag = chosen[1]
        # mirror the event on the tandem state
        c, d = state
        if tag[0] == "arrive":
            k = tag[1]
            positions = [
                pos
                for pos, inc in enumerate(ct.network.rate_fn_2.increments(d))
                if inc > 0.0
                and k in ct.second_compat[d[pos]]
            ]
            if positions:
                departing = apply_completion(
                    ct.network.swapping, d, positions[0]
                ).departing_class
                state = tandem_step(ct.network.swapping, state, 2, positions[0])
                protocol, result = sim.apply(protocol, tag)
                # a job commits when it takes a machine token, and waits
                # when it takes its own type's token
                assert (result == "commit") == (departing in minimal)
                assert (result == "wait") == (
                    departing == ct.class_id(ct.type_names[k])
                )
            else:
                protocol, result = sim.apply(protocol, tag)
                assert result == "reject"
        else:
            s = tag[1]
            positions = [
                pos
                for pos, inc in enumerate(ct.network.rate_fn_1.increments(c))
                if inc > 0.0 and s in ct.first_compat[c[pos]]
            ]
            assert positions, "busy machine must appear in the first queue"
            departing = apply_completion(
                ct.network.swapping, c, positions[0]
            ).departing_class
            state = tandem_step(ct.network.swapping, state, 1, positions[0])
            protocol, result = sim.apply(protocol, tag)
            # a waiting job reseizes the slot when a type token goes back,
            # and the machine releases its slot when its own token does
            assert (result == "reseize") == (departing in types)
            assert (result == "release") == (
                departing == ct.class_id(ct.machine_names[s])
            )
        held, avail = _tandem_view(ct, state)
        assert held == sim.held_counts(protocol)
        assert avail == [ct.machine_names[s] for s in protocol[0]]


def test_protocol_simulator_rejects_nonbipartite():
    spec = ClusterSpec.grouped(
        [("A", 1.0, 1)],
        [("1", 1.0), ("2", 1.0)],
        [("g", 1, ("1", "2"), ("A",))],
    )
    with pytest.raises(CapabilityError):
        ProtocolSimulator(spec)
