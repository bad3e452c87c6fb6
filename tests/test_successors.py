"""``RateFunction.served`` and ``closed.successors`` against the views they
replace, and the generator built from them against the reference build.

* ``served`` must give the positive entries of ``increments``, position
  for position and bit for bit, on random ``MultiServerRates`` (classes
  that match no server included), random ``TableRates`` and random
  ``ProjectedRateFunction`` splits.
* Along random walks, ``successors`` must give the ``(next, rate)`` of the
  reference whole-state rows of ``conftest.moves``, in order and bit for
  bit: on random closed queues and tandems.  On random open queues with a
  capacity, ``conftest.open_successors``, the reference of
  ``oracle.open_generator``, must give them less the rejections.
* On the adhering spaces of random tandems and of closed queues, the
  class partition over the targets of ``successors`` must be the one over
  the reference rows' targets.
* ``build_generator`` over ``successors`` (``open_successors`` on an open
  queue) must give the states and the CSR arrays of
  ``conftest.reference_build_generator`` over the reference rows, and
  refuse a budget at the same count with the same message.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    ClosedQueue,
    MultiServerRates,
    PandsQueue,
    ResourceError,
    SwappingGraph,
    TableRates,
    UsageError,
    build_generator,
    communicating_classes,
    enumerate_adhering,
    enumerate_sigma,
    successors,
)
from passandswap.closed import ProjectedRateFunction
from passandswap.model import all_macrostates

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import (  # noqa: E402
    _targets,
    moves,
    open_successors,
    reference_build_generator,
    transition_fn,
)
from test_certificate import tandems  # noqa: E402
from test_sim_moves import (  # noqa: E402
    PICKS,
    _walk,
    closed_queues,
    open_queues,
)

MAX_LEN = 8


def _hex(pairs):
    return [(p, inc.hex()) for p, inc in pairs]


def _assert_served_filters_increments(rate_fn, state) -> None:
    assert _hex(rate_fn.served(state)) == _hex(
        (p, inc) for p, inc in enumerate(rate_fn.increments(state))
        if inc > 0.0
    )


def _states(n_classes: int):
    return st.lists(st.integers(0, n_classes - 1), max_size=MAX_LEN)


@st.composite
def idle_multi_server_rates(draw, n_classes: int):
    """Up to four servers, each class compatible with a possibly empty
    subset of them: a class with none is never served."""
    n_servers = draw(st.integers(1, 4))
    rates = draw(st.lists(st.floats(0.1, 10.0), min_size=n_servers,
                          max_size=n_servers))
    compat = [draw(st.sets(st.integers(0, n_servers - 1)))
              for _ in range(n_classes)]
    return MultiServerRates.build(rates, compat)


@given(data=st.data(), n=st.integers(1, 4))
def test_multi_server_served_is_the_positive_increments(data, n):
    rate_fn = data.draw(idle_multi_server_rates(n))
    for _ in range(5):
        _assert_served_filters_increments(rate_fn, data.draw(_states(n)))


@given(data=st.data(), n=st.integers(1, 3))
def test_table_served_is_the_positive_increments(data, n):
    # Any table will do, monotone or not: the default filters increments.
    values = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    rate_fn = TableRates.build(n, {
        x: data.draw(values) for x in all_macrostates(n, MAX_LEN)
    })
    for _ in range(5):
        _assert_served_filters_increments(rate_fn, data.draw(_states(n)))


@given(data=st.data(), n=st.integers(1, 3), n_iso=st.integers(1, 5))
def test_projected_served_is_the_positive_increments(data, n, n_iso):
    projection = data.draw(st.lists(st.integers(0, n - 1), min_size=n_iso,
                                    max_size=n_iso))
    rate_fn = ProjectedRateFunction(data.draw(idle_multi_server_rates(n)),
                                    projection)
    for _ in range(5):
        _assert_served_filters_increments(rate_fn, data.draw(_states(n_iso)))


def _successors(model, capacity):
    if isinstance(model, PandsQueue):
        return open_successors(model, capacity)
    return successors(model)


def _assert_successors_follow_rows(model, capacity, start, picks) -> None:
    step = moves(model, capacity)
    succ = _successors(model, capacity)
    for state in _walk(step, start, picks):
        assert [(after, rate.hex()) for after, rate in succ(state)] == [
            (after, rate.hex()) for rate, after, _, _, tag in step(state)
            if tag[0] != "reject"
        ]


@given(model=open_queues(), picks=PICKS)
def test_open_successors_follow_the_rows_without_rejections(model, picks):
    queue, capacity = model
    _assert_successors_follow_rows(queue, capacity, (), picks)


@given(model=closed_queues(), picks=PICKS)
def test_closed_successors_follow_the_rows(model, picks):
    queue, start = model
    _assert_successors_follow_rows(queue, None, start, picks)


@given(net=tandems(), picks=PICKS)
def test_tandem_successors_follow_the_rows(net, picks):
    _assert_successors_follow_rows(net, None, net.initial_state(), picks)


@given(net=tandems())
def test_partitions_read_the_same_targets(net):
    queue = ClosedQueue(net.rate_fn_1, net.swapping, net.population,
                        net.order)
    for model, states in (
        (net, enumerate_sigma(net)),
        (queue, enumerate_adhering(net.order, net.population)),
    ):
        step = successors(model)
        assert communicating_classes(
            states, lambda s: [t for t, _ in step(s)]
        ) == communicating_classes(states, _targets(moves(model)))


def _assert_same_generator(model, capacity, start, budget) -> None:
    want = reference_build_generator(transition_fn(model, capacity), start)
    got = build_generator(_successors(model, capacity), start)
    assert got.states == want.states
    assert got.index == want.index
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # the budget is refused at the same count, with the same message
    budget = min(budget, got.n_states + 1)
    errors = []
    for build, step in ((build_generator, _successors),
                        (reference_build_generator, transition_fn)):
        try:
            build(step(model, capacity), start, budget=budget)
        except ResourceError as exc:
            errors.append(str(exc))
        else:
            errors.append(None)
    assert errors[0] == errors[1]
    assert (errors[0] is None) == (budget >= got.n_states)


@given(model=open_queues(), budget=st.integers(1, 200))
def test_open_generator_matches_the_reference_build(model, budget):
    queue, capacity = model
    _assert_same_generator(queue, capacity, (), budget)


@given(model=closed_queues(), budget=st.integers(1, 200))
def test_closed_generator_matches_the_reference_build(model, budget):
    queue, start = model
    _assert_same_generator(queue, None, start, budget)


@given(net=tandems(), budget=st.integers(1, 200))
def test_tandem_generator_matches_the_reference_build(net, budget):
    _assert_same_generator(net, None, net.initial_state(), budget)


def test_successors_refuse_what_has_no_moves():
    with pytest.raises(UsageError, match="no moves for int"):
        successors(3)
    queue = PandsQueue((1.0,), MultiServerRates.build([1.0], [{0}]),
                       SwappingGraph.edgeless(1))
    with pytest.raises(UsageError, match="no moves for PandsQueue"):
        successors(queue)


def test_budget_message_names_the_frontier():
    # two classes, no swaps: the open queue's states form a binary tree
    queue = PandsQueue((1.0, 1.0), MultiServerRates.build([1.0], [{0}, {0}]),
                       SwappingGraph.edgeless(2))
    with pytest.raises(ResourceError) as exc:
        build_generator(open_successors(queue, 5), (), budget=4)
    # (), (0,) and (1,) come from (); (0, 0) fills the budget from (0,),
    # and (0, 1) exceeds it while (1,) and (0, 0) wait in the frontier
    assert str(exc.value) == (
        "reachable state count exceeded budget 4 (frontier size 2)"
    )
