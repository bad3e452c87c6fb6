import pytest
from hypothesis import settings

from passandswap import (
    MultiServerRates,
    PandsQueue,
    RateFunction,
    SwappingGraph,
)
from passandswap.closed import moves

# Property tests draw the same examples on every run and stop after a fixed
# number, so a failure reproduces and the suite's wall time stays bounded.
settings.register_profile(
    "passandswap", derandomize=True, deadline=None, max_examples=60,
    database=None,
)
settings.load_profile("passandswap")
# ``pytest --hypothesis-profile=stress`` draws fresh examples on every run,
# many more of them, to search for failures the fixed examples miss.
settings.register_profile(
    "stress", derandomize=False, deadline=None, max_examples=2000,
    database=None,
)


class UnitIncrementRates(RateFunction):
    """Every customer is served at rate 1, regardless of position."""

    def __init__(self, n_classes: int):
        self.n_classes = n_classes

    def rate(self, counts):
        return float(sum(counts))

    def saturation_rate(self, classes):
        return float("inf")


@pytest.fixture
def two_class_rates():
    # two classes, three unit-rate servers; class 1 on servers {1,3},
    # class 2 on servers {2,3}
    return MultiServerRates.build([1.0, 1.0, 1.0], [{0, 2}, {1, 2}])


@pytest.fixture
def two_class_queue(two_class_rates):
    return PandsQueue((0.8, 0.8), two_class_rates, SwappingGraph.edgeless(2))


@pytest.fixture
def three_class_rates():
    # three classes, two unit-rate servers; class 3 is served by both
    return MultiServerRates.build([1.0, 1.0], [{0}, {1}, {0, 1}])


@pytest.fixture
def path_graph():
    # swapping edges 1-2 and 2-3 (class 2 swaps with both neighbors)
    return SwappingGraph.from_pairs(3, [(0, 1), (1, 2)])


@pytest.fixture
def three_class_queue(three_class_rates, path_graph):
    return PandsQueue((0.8, 0.8, 0.8), three_class_rates, path_graph)


@pytest.fixture
def six_class_graph():
    # the six-class closed-model toy graph (1-based edges):
    # 6-3, 3-1, 1-4, 4-2, 2-5, 5-6, 6-4
    return SwappingGraph.from_pairs(
        6, [(5, 2), (2, 0), (0, 3), (3, 1), (1, 4), (4, 5), (5, 3)]
    )


@pytest.fixture
def unit_rates_six():
    return UnitIncrementRates(6)


def transition_fn(model, capacity=None):
    """``state -> [(next state, rate), ...]`` of an open (truncated at
    ``capacity``), closed or tandem model, for ``build_generator``."""
    step = moves(model, capacity)
    return lambda s: [
        (advance(s, arg), rate) for rate, advance, arg, _, _ in step(s)
    ]


def brute_reachability_partition(states, successors):
    """Pairwise-reachability communicating classes, for cross-checking."""
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    reach = [set([i]) for i in range(n)]
    for i, s in enumerate(states):
        frontier = [s]
        seen = {i}
        while frontier:
            cur = frontier.pop()
            for t in successors(cur):
                j = idx[t]
                if j not in seen:
                    seen.add(j)
                    frontier.append(t)
        reach[i] = seen
    classes = []
    assigned = [None] * n
    for i in range(n):
        if assigned[i] is not None:
            continue
        members = {j for j in reach[i] if i in reach[j]}
        for j in members:
            assigned[j] = len(classes)
        classes.append(members)
    closed = []
    for members in classes:
        leaves = any(
            idx[t] not in members for j in members for t in successors(states[j])
        )
        closed.append(not leaves)
    return classes, closed
