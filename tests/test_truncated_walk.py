"""The integer walk of ``stationary_truncated`` and the array comparison of
``oracle-compare`` against the routes they replaced.

On random open queues (``MultiServerRates`` with classes that no server
serves, ``TableRates`` with zero entries, ``ProjectedRateFunction``
splits, capacities 0 to 7), the walk must give what the tuple walk of
``conftest.reference_stationary_truncated`` gives, bit for bit: the states
in the same order, each one's log weight, the normalizer, the
probabilities and the mean counts; each state's shortlex index must be its
index in ``open_generator``; a non-positive rate must raise on the same
macrostate with the same message.  On random laws with forced ties,
``compare_laws`` must give what ``total_variation`` and ``heapq.nlargest``
give over the laws as mappings.
"""

import heapq
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    MultiServerRates,
    PandsQueue,
    SwappingGraph,
    TableRates,
    UsageError,
    build_generator,
    open_generator,
    stationary_truncated,
    total_variation,
)
from passandswap.model import all_states
from passandswap.oracle import compare_laws

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import open_successors, reference_stationary_truncated  # noqa: E402
from test_open_generator import truncated_queues  # noqa: E402


def _hex(values):
    return [v.hex() for v in values]


def _outcome(walk, queue, capacity):
    try:
        return walk(queue, capacity)
    except UsageError as exc:
        return str(exc)


@given(model=truncated_queues())
def test_walk_is_the_tuple_walk(model):
    queue, capacity = model
    got = _outcome(stationary_truncated, queue, capacity)
    want = _outcome(reference_stationary_truncated, queue, capacity)
    if isinstance(want, str):
        assert got == want
        return
    assert got.states == want.states
    assert _hex(got.log_weight_list) == _hex(want.log_weights.values())
    assert got.log_weights == want.log_weights
    assert got.log_normalizer.hex() == want.log_normalizer.hex()
    got_p, want_p = got.probabilities(), want.probabilities()
    assert list(got_p) == list(want_p)
    assert _hex(got_p.values()) == _hex(want_p.values())
    assert _hex(got.probability_list) == _hex(want_p.values())
    assert _hex(got.mean_counts()) == _hex(want.mean_counts())
    # the shortlex indices are open_generator's, and decode to the states
    shortlex = list(all_states(queue.n_classes, capacity))
    assert [shortlex[u] for u in got.shortlex] == list(want.states)
    assert [got.state_at(j) for j in range(len(want.states))] == list(
        want.states)


def test_walk_raises_where_the_tuple_walk_does():
    # Zero rates on (1, 1), met first at the state (0, 1), and on (0, 2),
    # met later at (1, 1): both walks stop at the first.
    table = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 1.0, (2, 0): 1.0,
             (1, 1): 0.0, (0, 2): 0.0}
    queue = PandsQueue((1.0, 1.0), TableRates.build(2, table),
                       SwappingGraph.edgeless(2))
    messages = {_outcome(walk, queue, 2) for walk in (
        stationary_truncated, reference_stationary_truncated)}
    assert messages == {"overall rate is not positive on macrostate (1, 1)"}


def test_shortlex_is_the_generators_index():
    queue = PandsQueue(
        (0.8, 0.8, 0.8),
        MultiServerRates.build([1.0, 1.0], [{0}, {1}, {0, 1}]),
        SwappingGraph.from_pairs(3, [(0, 1), (1, 2)]),
    )
    dist = stationary_truncated(queue, 4)
    gen = open_generator(queue, 4)
    assert gen.states == build_generator(open_successors(queue, 4), ()).states
    assert [gen.index[s] for s in dist.states] == dist.shortlex


# Few distinct probabilities, so that many residuals tie exactly and the
# states decide their order; NaN now and then, which ``nlargest`` orders as
# its comparisons fall.
_VALUES = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0 / 3.0, 1e-17])


@st.composite
def paired_laws(draw):
    states = draw(st.lists(
        st.lists(st.integers(0, 2), max_size=4).map(tuple),
        min_size=1, max_size=40, unique=True,
    ))
    values = st.one_of(_VALUES, st.floats(0.0, 1.0))
    if draw(st.booleans()):
        values = _VALUES
    if draw(st.integers(0, 9)) == 0:
        values = st.one_of(values, st.just(math.nan))
    p = [draw(values) for _ in states]
    q = [draw(values) for _ in states]
    return states, p, q


@given(laws=paired_laws(), top=st.integers(1, 12))
def test_compare_laws_is_total_variation_and_nlargest(laws, top):
    states, p, q = laws
    p_map, q_map = dict(zip(states, p)), dict(zip(states, q))
    want_tv = total_variation(p_map, q_map)
    want_top = heapq.nlargest(
        top, ((abs(p_map[s] - q_map[s]), s) for s in p_map))
    built = []

    def state_of(j):
        built.append(j)
        return states[j]

    tv, got_top = compare_laws(p, np.array(q), state_of, top)
    assert tv.hex() == want_tv.hex()
    assert [(r.hex(), s) for r, s in got_top] == [
        (r.hex(), s) for r, s in want_top]
    if all(math.isfinite(x) for x in p + q) and len(states) > top:
        # only the states at or above the top-th largest residual are built
        cut = sorted(abs(a - b) for a, b in zip(p, q))[-top]
        assert sorted(built) == [
            j for j in range(len(states)) if abs(p[j] - q[j]) >= cut]
