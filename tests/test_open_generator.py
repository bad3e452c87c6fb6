"""``oracle.open_generator`` against the generic breadth-first build.

On random open queues, the closed-form build must give exactly what
``build_generator`` gives over the reference open successors of
``conftest.open_successors``: the states, the index, and the bytes of the
CSR ``indptr``, ``indices`` and ``data``.  The queues cover
``MultiServerRates`` (with classes that no server serves), ``TableRates``,
``ProjectedRateFunction`` splits, swapping graphs with loops, and
capacities 0 to 7.  The budget is pinned at its exact fit and one over.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    MultiServerRates,
    PandsQueue,
    ResourceError,
    SwappingGraph,
    TableRates,
    UsageError,
    build_generator,
    stationary_truncated,
)
from passandswap.closed import ProjectedRateFunction
from passandswap.model import all_macrostates
from passandswap.oracle import open_generator

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import open_successors  # noqa: E402
from test_sim_moves import swapping_graphs  # noqa: E402
from test_successors import idle_multi_server_rates  # noqa: E402


@st.composite
def rate_functions(draw, n_classes: int, capacity: int):
    kind = draw(st.sampled_from(["multi_server", "table", "projected"]))
    if kind == "multi_server":
        return draw(idle_multi_server_rates(n_classes))
    if kind == "table":
        values = st.one_of(st.just(0.0), st.floats(0.1, 10.0))
        return TableRates.build(n_classes, {
            x: draw(values) for x in all_macrostates(n_classes, capacity)
        })
    base = draw(st.integers(1, n_classes))
    projection = draw(st.lists(st.integers(0, base - 1),
                               min_size=n_classes, max_size=n_classes))
    return ProjectedRateFunction(draw(idle_multi_server_rates(base)),
                                 projection)


@st.composite
def truncated_queues(draw):
    """A random open queue and a capacity of 0 to 7 (5 for four classes,
    so the reference build stays small)."""
    n = draw(st.integers(1, 4))
    capacity = draw(st.integers(0, 7 if n < 4 else 5))
    arrivals = tuple(draw(st.lists(st.floats(0.1, 5.0), min_size=n,
                                   max_size=n)))
    queue = PandsQueue(arrivals, draw(rate_functions(n, capacity)),
                       draw(swapping_graphs(n, loops=True)))
    return queue, capacity


def _assert_same_generator(got, want) -> None:
    assert got.states == want.states
    assert got.index == want.index
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@given(model=truncated_queues())
def test_open_generator_is_the_breadth_first_build(model):
    queue, capacity = model
    want = build_generator(open_successors(queue, capacity), ())
    _assert_same_generator(open_generator(queue, capacity), want)


PATH_QUEUE = PandsQueue(
    (0.8, 0.8, 0.8), MultiServerRates.build([1.0, 1.0], [{0}, {1}, {0, 1}]),
    SwappingGraph.from_pairs(3, [(0, 1), (1, 2)]),
)
SINGLE_QUEUE = PandsQueue(
    (0.5,), MultiServerRates.build([1.0, 2.0], [{0, 1}]),
    SwappingGraph.from_pairs(1, [(0, 0)]),
)


@pytest.mark.parametrize("queue, capacity, count", [
    (PATH_QUEUE, 4, 121),  # 1 + 3 + 9 + 27 + 81
    (SINGLE_QUEUE, 9, 10),
])
def test_budget_fits_exactly_and_refuses_one_over(queue, capacity, count):
    got = open_generator(queue, capacity, budget=count)
    assert got.n_states == count
    _assert_same_generator(
        got, build_generator(open_successors(queue, capacity), ())
    )
    for refuse in (open_generator, stationary_truncated):
        with pytest.raises(ResourceError) as exc:
            refuse(queue, capacity, budget=count - 1)
        assert str(exc.value) == (
            f"truncation at {capacity} customers needs more than "
            f"{count - 1} states, the budget"
        )


@pytest.mark.parametrize("capacity, budget", [(100_000, 200_000), (0, 0)])
def test_both_builds_refuse_by_the_one_count(capacity, budget):
    # Deep: no 3^100001 is formed (a huge int would fail to print).  Empty:
    # the one empty state is counted against the budget too.
    messages = set()
    for refuse in (open_generator, stationary_truncated):
        with pytest.raises(ResourceError) as exc:
            refuse(PATH_QUEUE, capacity, budget=budget)
        messages.add(str(exc.value))
    assert messages == {
        f"truncation at {capacity} customers needs more than {budget} "
        "states, the budget"
    }


def test_open_generator_refuses_a_negative_capacity():
    with pytest.raises(UsageError, match="capacity must be non-negative"):
        open_generator(PATH_QUEUE, -1)


@pytest.mark.parametrize("queue", [
    SINGLE_QUEUE,  # a loop: every chain runs to the tail
    PandsQueue((0.5,), SINGLE_QUEUE.rate_fn, SwappingGraph.edgeless(1)),
    PandsQueue((0.5, 0.5), MultiServerRates.build([1.0, 2.0], [{0}, {0, 1}]),
               SwappingGraph.from_pairs(2, [(1, 1)])),
], ids=["loop", "no-loop", "one-isolated"])
def test_long_queues_stop_their_walks_early(queue):
    # Past the first customers no position is served, and a chain stops
    # once its moving class has no neighbour: both walks end early, to the
    # same bits.
    capacity = 200 if queue.n_classes == 1 else 12
    _assert_same_generator(
        open_generator(queue, capacity),
        build_generator(open_successors(queue, capacity), ()),
    )
