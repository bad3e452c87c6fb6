"""``communicating_classes`` against pairwise reachability.

On every adhering space the flood fill must give the classes of
``brute_reachability_partition``, in the same order and with the same
ascending members, and every class must be closed.  The spaces are those of
random closed queues (a random loop-free swapping graph oriented up a
random ranking of the classes, at most six customers, random
``MultiServerRates`` serving every class), of the random tandems of
``tests/test_certificate.py`` and of seeded grouped clusters, reducible ones
included.  The brute force floods from every state, so its cost grows
with the square of a class's size; spaces of more than ``BRUTE_LIMIT``
states are left to the macrostate agreement of ``tests/test_macrostates.py``.
"""

import functools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from passandswap import (
    ClosedQueue,
    PlacementOrder,
    UsageError,
    communicating_classes,
    compile_cluster,
    enumerate_adhering,
    enumerate_sigma,
    order_from_state,
)
from passandswap.modelfile import parse_document

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import brute_reachability_partition, transition_fn  # noqa: E402
from test_certificate import tandems  # noqa: E402
from test_cli import REDUCIBLE_DOC  # noqa: E402
from test_cli_golden import REDUCIBLE_GROUPED_DOC  # noqa: E402
from test_macrostates import _random_grouped  # noqa: E402
from test_sim_moves import multi_server_rates, swapping_graphs  # noqa: E402

BRUTE_LIMIT = 300


def _assert_brute_force_partition(model, states) -> None:
    assume(len(states) <= BRUTE_LIMIT)
    step = transition_fn(model)
    succ = functools.cache(lambda s: [t for t, _ in step(s)])
    partition = communicating_classes(states, succ)
    classes, closed = brute_reachability_partition(states, succ)
    assert partition.classes == tuple(tuple(sorted(c)) for c in classes)
    assert all(closed)
    assert partition.labels == tuple(
        next(k for k, c in enumerate(classes) if i in c)
        for i in range(len(states))
    )


def _fixture(doc):
    loaded = parse_document(doc)
    queue = loaded.queue
    order = order_from_state(queue.swapping, loaded.initial)
    return (ClosedQueue(queue.rate_fn, queue.swapping, queue.population,
                        order), order)


@st.composite
def closed_queues(draw):
    n = draw(st.integers(1, 4))
    population = tuple(draw(
        st.lists(st.integers(1, 3), min_size=n, max_size=n)
        .filter(lambda p: sum(p) <= 6)
    ))
    graph = draw(swapping_graphs(n, loops=False))
    rank = draw(st.permutations(range(n)))
    order = PlacementOrder.orient(graph, [
        (a, b) if rank[a] < rank[b] else (b, a) for a, b in graph.edges
    ])
    return ClosedQueue(draw(multi_server_rates(n)), graph, population,
                       order), order


@given(closed_queues())
@example(_fixture(REDUCIBLE_DOC))
def test_closed_queue_classes_match_brute_force(model):
    cq, order = model
    _assert_brute_force_partition(cq, enumerate_adhering(order, cq.population))


@given(tandems())
@example(compile_cluster(parse_document(REDUCIBLE_GROUPED_DOC).spec).network)
def test_tandem_classes_match_brute_force(net):
    _assert_brute_force_partition(net, enumerate_sigma(net))


# Seed 1020 draws the reducible grouped-20 of tests/test_macrostates.py.
@given(seed=st.integers(0, 10_000))
@example(seed=1020)
def test_grouped_cluster_classes_match_brute_force(seed):
    net = compile_cluster(_random_grouped(random.Random(seed))).network
    _assert_brute_force_partition(net, enumerate_sigma(net))


def test_a_target_outside_the_states_is_refused():
    with pytest.raises(UsageError, match="transition target 3 outside the "
                       "enumerated space"):
        communicating_classes((1, 2), lambda s: [s + 1])
