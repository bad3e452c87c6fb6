"""The simulators' moves against the transitions they replace.

Along random walks, the whole-state rows of ``conftest.moves``, built from
``closed.queue_moves``, must give, move for move and in order:
``tandem_transitions`` on random bipartite and grouped clusters;
``closed_step`` at the positive ``increments`` of closed queues on random
loop-free graphs; and ``open_transitions`` on open queues with random
graphs (loops allowed) and random ``MultiServerRates``, plus exactly one
rejection self-move per class at capacity.  The protocol's rows in the
simulator's indexed table must replay a fresh ``ProtocolSimulator``'s
``transitions``, ``apply`` and ``held_counts`` without changing the
simulator they read;
along the same walks no buffer or waiting room overflows, an arrival
waits or is rejected only when no released token fits it, and a
completion reseizes only when a compatible job waits.
"""

import random
import sys
from itertools import accumulate
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    ClosedQueue,
    MultiServerRates,
    PandsQueue,
    SwappingGraph,
    closed_step,
    compile_cluster,
    open_transitions,
)
from passandswap.closed import queue_moves, tandem_transitions
from passandswap.dynamics import completions
from passandswap.sim import _SHIFT, ProtocolSimulator, _protocol_rows, _Table

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import moves  # noqa: E402
from test_macrostates import _random_bipartite, _random_grouped  # noqa: E402

STEPS = 40
PICKS = st.lists(st.integers(0, 10_000), min_size=STEPS, max_size=STEPS)


def _spec(kind: str, seed: int):
    draw = _random_bipartite if kind == "bipartite" else _random_grouped
    return draw(random.Random(seed))


@st.composite
def multi_server_rates(draw, n_classes: int):
    """Up to three servers of rate 0.1 to 10, each class compatible with a
    non-empty subset of them."""
    n_servers = draw(st.integers(1, 3))
    rates = draw(st.lists(st.floats(0.1, 10.0), min_size=n_servers,
                          max_size=n_servers))
    compat = [
        draw(st.sets(st.integers(0, n_servers - 1), min_size=1))
        for _ in range(n_classes)
    ]
    return MultiServerRates.build(rates, compat)


@st.composite
def swapping_graphs(draw, n_classes: int, loops: bool):
    pairs = [(i, j) for i in range(n_classes)
             for j in range(i if loops else i + 1, n_classes)]
    if not pairs:
        return SwappingGraph.edgeless(n_classes)
    return SwappingGraph.from_pairs(
        n_classes, draw(st.lists(st.sampled_from(pairs), unique=True))
    )


def _walk(step, state, picks):
    """Yield the states of a walk that takes move ``pick % len`` each time."""
    for pick in picks:
        yield state
        got = step(state)
        if not got:
            return
        state = got[pick % len(got)][1]


def _completion_counts(dep: int, served: int) -> tuple[str, ...]:
    return ("completions", f"departures:{dep}", f"services:{served}")


@given(
    kind=st.sampled_from(["bipartite", "grouped"]),
    seed=st.integers(0, 10_000),
    picks=PICKS,
)
def test_memoized_tandem_moves_equal_tandem_transitions(kind, seed, picks):
    ct = compile_cluster(_spec(kind, seed))
    net = ct.network
    step = moves(net)
    queues = queue_moves(net)
    for state in _walk(step, ct.initial, picks):
        got = step(state)
        want = tandem_transitions(net, state)
        assert [
            (rate, after, tag[1][0], tag[1][1], tag[2])
            for rate, after, _, _, tag in got
        ] == [
            (t.rate, t.next_state, t.queue, t.index,
             t.outcome.departing_class) for t in want
        ]
        assert all(handed is None for _, _, handed, _, _ in got)
        # each queue's moves give its next content and the class it hands
        # to the other queue, as ``completions`` does
        for k, queue in enumerate(queues):
            assert [row[:3] for row in queue(state[k])] == [
                (inc, after, departing)
                for _, inc, after, departing in completions(
                    (net.rate_fn_1, net.rate_fn_2)[k], net.swapping, state[k]
                )
            ]
        for (_, _, _, counts, tag), t in zip(got, want):
            served = state[t.queue - 1][t.index]
            assert tag[0] == "complete"
            assert counts == _completion_counts(
                t.outcome.departing_class, served
            )


@st.composite
def closed_queues(draw):
    n = draw(st.integers(1, 4))
    population = tuple(draw(st.lists(st.integers(1, 3), min_size=n,
                                      max_size=n)))
    queue = ClosedQueue(draw(multi_server_rates(n)),
                        draw(swapping_graphs(n, loops=False)), population)
    start = [cls for cls in range(n) for _ in range(population[cls])]
    return queue, tuple(draw(st.permutations(start)))


@given(model=closed_queues(), picks=PICKS)
def test_closed_moves_follow_closed_step_and_increments(model, picks):
    cq, start = model
    step = moves(cq)
    for state in _walk(step, start, picks):
        got = step(state)
        incs = cq.rate_fn.increments(state)
        positions = [pos for pos, inc in enumerate(incs) if inc > 0.0]
        assert [tag[1] for _, _, _, _, tag in got] == [
            (0, pos) for pos in positions
        ]
        for (rate, after, handed, counts, tag), pos in zip(got, positions):
            departing = tag[2]
            assert rate == incs[pos]
            assert after == closed_step(cq.swapping, state, pos)
            assert after[-1] == departing
            assert handed is None
            assert counts == _completion_counts(departing, state[pos])


@st.composite
def open_queues(draw):
    n = draw(st.integers(1, 3))
    arrivals = tuple(draw(st.lists(st.floats(0.1, 5.0), min_size=n,
                                   max_size=n)))
    queue = PandsQueue(arrivals, draw(multi_server_rates(n)),
                       draw(swapping_graphs(n, loops=True)))
    return queue, draw(st.integers(1, 6))


@given(model=open_queues(), picks=PICKS)
def test_open_moves_equal_open_transitions_and_reject_at_capacity(
    model, picks
):
    queue, capacity = model
    step = moves(queue, capacity)
    for state in _walk(step, (), picks):
        got = step(state)
        rejections = [m for m in got if m[4][0] == "reject"]
        kept = [m for m in got if m[4][0] != "reject"]
        want = open_transitions(queue, state, capacity)
        assert [
            (rate, after, tag[0], tag[1])
            for rate, after, _, _, tag in kept
        ] == [
            (t.rate, t.next_state,
             "arrive" if t.kind == "arrival" else "complete",
             t.index if t.kind == "arrival" else (0, t.index))
            for t in want
        ]
        if len(state) < capacity:
            assert rejections == []
            continue
        assert [
            (rate, after, handed, counts, tag)
            for rate, after, handed, counts, tag in rejections
        ] == [
            (lam, state, None, (f"arrivals:{i}", f"rejections:{i}"),
             ("reject", i, None))
            for i, lam in enumerate(queue.arrival_rates)
        ]
        assert got[: len(rejections)] == tuple(rejections)


@given(seed=st.integers(0, 10_000), picks=PICKS)
def test_memoized_protocol_moves_replay_apply(seed, picks):
    spec = _spec("bipartite", seed)
    memo_sim = ProtocolSimulator(spec)
    table = _Table(_protocol_rows(memo_sim), {}, key_of=memo_sim.held_counts)
    fresh = ProtocolSimulator(spec)
    state = fresh.start
    for pick in picks:
        p = table.id(state)
        key = table.key_names()[table.code[p] >> _SHIFT]
        assert key == fresh.held_counts(state)
        want = fresh.transitions(state)
        assert table.cum[p] == tuple(accumulate(rate for rate, _ in want))
        assert table.total[p] == table.cum[p][-1]
        m = pick % len(want)
        tag = want[m][1]
        after, result = fresh.apply(state, tag)
        assert table.next[p][m] == after
        assert table.handed[p][m] is None
        counts = list(table.counter_ids)[table.counter[p][m]]
        state = after
        if tag[0] == "complete":
            assert counts == ("completions",)
        else:
            name = memo_sim.types[tag[1]]
            rejected = (f"rejections:{name}",) if result == "reject" else ()
            assert counts == (f"arrivals:{name}",) + rejected
    # the rows read their simulator and never change it
    assert vars(memo_sim) == vars(fresh)


@given(seed=st.integers(0, 10_000), picks=PICKS)
def test_protocol_keeps_its_bounds_and_its_dispatch_rules(seed, picks):
    sim = ProtocolSimulator(_spec("bipartite", seed))
    machine_classes = [sim.spec.classes.index(m) for m in sim.spec.machines]
    type_classes = [sim.spec.classes.index(t) for t in sim.types]
    state = sim.start
    for pick in picks:
        held = sim.held_counts(state)
        for s, cls in enumerate(machine_classes):
            assert 0 <= held[cls] <= sim.buffer_len[s]
        for k, cls in enumerate(type_classes):
            assert 0 <= held[cls] <= sim.wait_len[k]
        moves = sim.transitions(state)
        _, tag = moves[pick % len(moves)]
        released, waiting = state
        state, result = sim.apply(state, tag)
        if tag[0] == "arrive":
            compatible = any(s in sim.compat[tag[1]] for s in released)
            assert compatible == (result == "commit")
        else:
            served = any(k in sim.serves[tag[1]] for k in waiting)
            assert served == (result == "reseize")
