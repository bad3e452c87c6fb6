import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    CompletionOutcome,
    SwappingGraph,
    UsageError,
    apply_completion,
    macrostate,
    open_transitions,
    predecessors,
)
from conftest import reference_apply_completion, reference_predecessors


def b(*vals):
    """1-based literal to 0-based tuple."""
    return tuple(v - 1 for v in vals)


def test_three_class_chain_reaction(path_graph):
    # head class-1 customer passes to the first class-2 customer, which
    # passes to the first class-3 customer, and so on; a class-2 customer
    # ends up departing
    out = apply_completion(path_graph, b(1, 3, 3, 2, 2, 3, 1, 2), 0)
    assert out.next_state == b(3, 3, 1, 2, 2, 1, 3)
    assert out.departing_class == 1  # class 2, 1-based
    assert out.chain == (0, 3, 5, 7)


def test_edgeless_completion_is_removal():
    g = SwappingGraph.edgeless(3)
    rng = random.Random(4)
    for _ in range(100):
        state = tuple(rng.randrange(3) for _ in range(rng.randint(1, 7)))
        pos = rng.randrange(len(state))
        out = apply_completion(g, state, pos)
        assert out.next_state == state[:pos] + state[pos + 1 :]
        assert out.departing_class == state[pos]
        assert out.chain == (pos,)


def test_six_class_chain(six_class_graph):
    out = apply_completion(six_class_graph, b(1, 2, 3, 4, 5, 6), 0)
    assert out.next_state == b(2, 1, 4, 5, 3)
    assert out.departing_class == 5  # class 6


def test_position_out_of_range(path_graph):
    with pytest.raises(UsageError):
        apply_completion(path_graph, b(1, 2), 2)


def test_chain_is_increasing_and_walks_edges(six_class_graph):
    rng = random.Random(5)
    for _ in range(300):
        state = tuple(rng.randrange(6) for _ in range(rng.randint(1, 7)))
        pos = rng.randrange(len(state))
        out = apply_completion(six_class_graph, state, pos)
        chain = out.chain
        assert all(a < b_ for a, b_ in zip(chain, chain[1:]))
        for a, b_ in zip(chain, chain[1:]):
            assert state[b_] in six_class_graph.neighbors(state[a])


def test_departure_conserves_macrostate(six_class_graph):
    rng = random.Random(6)
    for _ in range(300):
        state = tuple(rng.randrange(6) for _ in range(rng.randint(1, 7)))
        pos = rng.randrange(len(state))
        out = apply_completion(six_class_graph, state, pos)
        before = macrostate(state, 6)
        after = list(macrostate(out.next_state, 6))
        after[out.departing_class] += 1
        assert tuple(after) == before


def test_empty_state_single_predecessor():
    g = SwappingGraph.edgeless(2)
    assert predecessors(g, (), 0) == (((0,), 0),)


def test_predecessors_invert_the_chain_reaction(path_graph):
    preds = predecessors(path_graph, b(3, 3, 1, 2, 2, 1, 3), 1)
    assert (b(1, 3, 3, 2, 2, 3, 1, 2), 0) in preds
    # every entry replays back to the target
    for prev, pos in preds:
        out = apply_completion(path_graph, prev, pos)
        assert out.next_state == b(3, 3, 1, 2, 2, 1, 3)
        assert out.departing_class == 1


def test_edgeless_predecessors_are_positional_insertions():
    g = SwappingGraph.edgeless(2)
    state = (0, 1, 0)
    preds = predecessors(g, state, 1)
    expected = {
        (state[:p] + (1,) + state[p:], p) for p in range(len(state) + 1)
    }
    assert set(preds) == expected


def _brute_force_predecessor_map(graph, max_len):
    """Map (state, departing class) -> set of (prev, position) by replaying
    every completion of every longer state."""
    table = {}
    for m in range(1, max_len + 2):
        for prev in itertools.product(range(graph.n_classes), repeat=m):
            for pos in range(m):
                out = apply_completion(graph, prev, pos)
                key = (out.next_state, out.departing_class)
                table.setdefault(key, set()).add((prev, pos))
    return table


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_predecessors_match_exhaustive_replay(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    pairs = [
        (a, b_)
        for a in range(n)
        for b_ in range(a, n)
        if rng.random() < 0.6
    ]
    graph = SwappingGraph.from_pairs(n, pairs)
    max_len = 4
    table = _brute_force_predecessor_map(graph, max_len)
    for length in range(max_len + 1):
        for state in itertools.product(range(n), repeat=length):
            for cls in range(n):
                got = set(predecessors(graph, state, cls))
                want = table.get((state, cls), set())
                assert got == want


@st.composite
def random_completions(draw):
    """A swapping graph on 1 to 5 classes, loops allowed, a state of up to
    10 customers, and a completing position in it."""
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    graph = SwappingGraph.from_pairs(
        n, draw(st.lists(st.sampled_from(pairs), unique=True))
    )
    state = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=10)))
    return graph, state, draw(st.integers(0, len(state) - 1))


@given(random_completions())
def test_completion_and_predecessors_on_random_graphs(case):
    graph, state, position = case
    out = apply_completion(graph, state, position)
    chain = out.chain
    assert chain[0] == position
    assert all(a < b_ for a, b_ in zip(chain, chain[1:]))
    for a, b_ in zip(chain, chain[1:]):
        assert state[b_] in graph.neighbors(state[a])
    assert sorted(out.next_state + (out.departing_class,)) == sorted(state)
    preds = predecessors(graph, out.next_state, out.departing_class)
    assert (state, position) in preds
    for prev, pos in preds:
        back = apply_completion(graph, prev, pos)
        assert back.next_state == out.next_state
        assert back.departing_class == out.departing_class


@st.composite
def random_states(draw):
    """A swapping graph on 1 to 6 classes, loops allowed, and a state of up
    to 14 customers."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    graph = SwappingGraph.from_pairs(
        n, draw(st.lists(st.sampled_from(pairs), unique=True))
    )
    state = tuple(draw(st.lists(st.integers(0, n - 1), max_size=14)))
    return graph, state


@given(random_states())
def test_one_pass_kernels_equal_the_reference(case):
    # Every completing position and every departing class, field by field
    # and in order: the one-pass kernels are exact, not merely equivalent.
    graph, state = case
    for position in range(len(state)):
        got = apply_completion(graph, state, position)
        want = reference_apply_completion(graph, state, position)
        assert got.next_state == want.next_state
        assert got.departing_class == want.departing_class
        assert got.chain == want.chain
    for cls in range(graph.n_classes):
        assert predecessors(graph, state, cls) == reference_predecessors(
            graph, state, cls
        )


def test_completion_outcome_contract(path_graph):
    # Callers read the outcome by field and ``cli trace`` prints its chain:
    # three fields in this order, none of which can be reassigned.
    out = apply_completion(path_graph, b(1, 3, 3, 2, 2, 3, 1, 2), 0)
    assert CompletionOutcome._fields == (
        "next_state", "departing_class", "chain"
    )
    assert tuple(out) == (out.next_state, out.departing_class, out.chain)
    assert out == CompletionOutcome(b(3, 3, 1, 2, 2, 1, 3), 1, (0, 3, 5, 7))
    for name in CompletionOutcome._fields:
        with pytest.raises(AttributeError):
            setattr(out, name, None)


def test_open_transitions_empty_state(two_class_queue):
    moves = open_transitions(two_class_queue, ())
    assert len(moves) == 2
    assert all(t.kind == "arrival" for t in moves)


def test_open_transitions_skip_zero_rate_positions(two_class_queue):
    state = b(1, 1, 2, 1, 2, 2, 1)
    moves = open_transitions(two_class_queue, state)
    completions = [t for t in moves if t.kind == "completion"]
    assert [t.index for t in completions] == [0, 2]
    assert completions[0].rate == pytest.approx(2.0)
    assert completions[1].rate == pytest.approx(1.0)


def test_total_outflow(two_class_queue):
    rng = random.Random(7)
    for _ in range(50):
        state = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
        moves = open_transitions(two_class_queue, state)
        total = sum(t.rate for t in moves)
        expect = two_class_queue.rate_fn.state_rate(state) + sum(
            two_class_queue.arrival_rates
        )
        assert total == pytest.approx(expect)


def test_capacity_suppresses_arrivals(two_class_queue):
    moves = open_transitions(two_class_queue, (0, 1), capacity=2)
    assert all(t.kind == "completion" for t in moves)
