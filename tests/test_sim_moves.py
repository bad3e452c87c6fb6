"""The simulators' memoized moves against the transitions they replace.

Tandem moves are memoized per queue content and protocol moves per
protocol state; along random walks on random bipartite and grouped
clusters they must equal ``tandem_transitions`` and a fresh
``ProtocolSimulator`` stepped by ``apply``, move for move and in order.
"""

import random
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from passandswap import compile_cluster
from passandswap.closed import tandem_transitions
from passandswap.sim import ProtocolSimulator, _protocol_moves, _tandem_moves

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_macrostates import _random_bipartite, _random_grouped  # noqa: E402

STEPS = 40


def _spec(kind: str, seed: int):
    draw = _random_bipartite if kind == "bipartite" else _random_grouped
    return draw(random.Random(seed))


@given(
    kind=st.sampled_from(["bipartite", "grouped"]),
    seed=st.integers(0, 10_000),
    picks=st.lists(st.integers(0, 10_000), min_size=STEPS, max_size=STEPS),
)
def test_memoized_tandem_moves_equal_tandem_transitions(kind, seed, picks):
    ct = compile_cluster(_spec(kind, seed))
    net = ct.network
    moves_of = _tandem_moves(net)
    state = ct.initial
    for pick in picks:
        key, moves = moves_of(state)
        assert key == state
        want = tandem_transitions(net, state)
        got = [
            (rate, advance(state, arg), tag[1][0], tag[1][1], tag[2])
            for rate, advance, arg, _, tag in moves
        ]
        assert got == [
            (t.rate, t.next_state, t.queue, t.position, t.outcome)
            for t in want
        ]
        for (_, _, _, counts, tag), t in zip(moves, want):
            served = state[t.queue - 1][t.position]
            assert tag[0] == "complete"
            assert counts == (
                "completions",
                f"departures:{t.outcome.departing_class}",
                f"services:{served}",
            )
        if not moves:
            break
        _, advance, arg, _, _ = moves[pick % len(moves)]
        state = advance(state, arg)


@given(
    seed=st.integers(0, 10_000),
    picks=st.lists(st.integers(0, 10_000), min_size=STEPS, max_size=STEPS),
)
def test_memoized_protocol_moves_replay_apply(seed, picks):
    spec = _spec("bipartite", seed)
    memo_sim = ProtocolSimulator(spec)
    moves_of = _protocol_moves(memo_sim)
    fresh = ProtocolSimulator(spec)
    state = fresh.snapshot()
    for pick in picks:
        key, moves = moves_of(state)
        assert key == fresh.held_counts()
        assert [(rate, tag[:2]) for rate, _, _, _, tag in moves] == (
            fresh.transitions()
        )
        _, advance, arg, counts, tag = moves[pick % len(moves)]
        result = fresh.apply(tag[:2])
        assert tag[2] == result
        state = advance(state, arg)
        assert state == fresh.snapshot()
        if tag[0] == "complete":
            assert counts == ("completions",)
        else:
            name = memo_sim.types[tag[1]]
            rejected = (f"rejections:{name}",) if result == "reject" else ()
            assert counts == (f"arrivals:{name}",) + rejected
