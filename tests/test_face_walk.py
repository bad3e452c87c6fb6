"""The certificate's face walk against the reference flood it replaces.

``closed._face_walk`` takes its completing positions from
``RateFunction.served_positions`` and runs each completion's chain itself.
It must visit exactly the contents that a flood over
``dynamics.completions`` visits, the departing class rejoining the tail,
and ``served_positions`` must give exactly the positions of a positive
increment.
"""

import itertools
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from passandswap import MultiServerRates, TableRates
from passandswap.closed import ProjectedRateFunction, _face_walk, _flood
from passandswap.dynamics import completions
from passandswap.model import all_macrostates

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_certificate import tandems  # noqa: E402
from test_sim_moves import multi_server_rates, swapping_graphs  # noqa: E402


def _reference_walk(rate_fn, graph, start):
    return _flood(start, lambda content: [
        after + (cls,)
        for _, _, after, cls in completions(rate_fn, graph, content)
    ])


def _positive_increments(rate_fn, state):
    return [p for p, inc in enumerate(rate_fn.increments(state)) if inc > 0.0]


@given(tandems())
def test_face_walk_visits_the_reference_flood_on_both_faces(net):
    face = net.initial_state()[1]  # every token in the second queue
    for rate_fn, start in ((net.rate_fn_2, face), (net.rate_fn_1, face[::-1])):
        assert (_face_walk(rate_fn, net.swapping, start)
                == _reference_walk(rate_fn, net.swapping, start))


@st.composite
def closed_queues(draw):
    """A rate function, a swapping graph that may have loops, and a start
    content of up to seven customers in any order."""
    n = draw(st.integers(1, 4))
    rate_fn = draw(multi_server_rates(n))
    graph = draw(swapping_graphs(n, loops=True))
    start = tuple(draw(st.lists(st.integers(0, n - 1), max_size=7)))
    return rate_fn, graph, start


@given(closed_queues())
def test_face_walk_visits_the_reference_flood_from_any_content(queue):
    rate_fn, graph, start = queue
    assert _face_walk(rate_fn, graph, start) == _reference_walk(
        rate_fn, graph, start)


@given(closed_queues())
def test_served_positions_are_the_positive_increments(queue):
    rate_fn, _, start = queue
    served = rate_fn.served_positions(start)
    assert served == _positive_increments(rate_fn, start)
    # The same rates as a table and behind a one-to-one projection take
    # the default, which reads the increments.
    n, total = rate_fn.n_classes, len(start)
    table = TableRates.build(n, {
        x: rate_fn.rate(x) for x in all_macrostates(n, total) if any(x)
    })
    assert table.served_positions(start) == served
    projected = ProjectedRateFunction(rate_fn, range(n))
    assert projected.served_positions(start) == served


def test_served_positions_skip_a_class_whose_servers_are_busy():
    # Servers 0 and 1; class 0 needs server 0, class 1 either, class 2
    # server 1.  Past a class-1 customer every server is active.
    rate_fn = MultiServerRates.build([1.0, 2.0], [[0], [0, 1], [1]])
    for state in itertools.product(range(3), repeat=4):
        assert (rate_fn.served_positions(state)
                == _positive_increments(rate_fn, state))
    assert rate_fn.served_positions((0, 0, 2, 1, 2)) == [0, 2]
    assert rate_fn.served_positions((1, 0, 2)) == [0]
