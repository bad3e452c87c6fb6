"""Soundness of the face certificate, and the route it gives
``analyze_tandem``.

Whenever the certificate accepts (the macrostate engine returns without
the flood of ``communicating_classes``), that flood over
``enumerate_sigma`` must find exactly one class.  The models are grouped
clusters drawn by seed, the family that holds every reducible spec of
``tests/test_macrostates.py``, and small random tandems: a random
acyclic orientation of a random loop-free swapping graph, with random
``MultiServerRates`` per queue.  Every class is served by some server, so
every occurring macrostate has a positive rate.

``analyze_tandem`` lists and weighs the states in one walk and floods
them only when the certificate fails.  It must give what the former
route gives bit for bit (``conftest.reference_analyze_tandem``: weigh
each state by its contents, flood, restrict): the same states in the
same order, the same probabilities, the same partition and the same
warnings, on random tandems and on reducible ones.
"""

import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    MultiServerRates,
    PlacementOrder,
    SwappingGraph,
    TandemNetwork,
    analyze_tandem,
    analyze_tandem_macrostates,
    communicating_classes,
    compile_cluster,
    enumerate_sigma,
)
from passandswap import closed
from passandswap.modelfile import parse_document

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import reference_analyze_tandem  # noqa: E402
from test_cli_golden import REDUCIBLE_GROUPED_DOC  # noqa: E402
from test_macrostates import _random_grouped  # noqa: E402
from test_sim_moves import multi_server_rates, swapping_graphs  # noqa: E402


class _FellBack(Exception):
    pass


def _certified(net, initial=None) -> bool:
    """True when the macrostate engine decides irreducibility without the
    microstate flood."""

    def fallback(*args):
        raise _FellBack

    with mock.patch.object(closed, "communicating_classes", fallback):
        try:
            analyze_tandem_macrostates(net, initial)
        except _FellBack:
            return False
    return True


def flooded(net):
    """The communicating classes of the flood over every tandem state."""
    step = closed.successors(net)
    return communicating_classes(
        enumerate_sigma(net), lambda s: [t for t, _ in step(s)]
    )


def _assert_sound(net, initial=None) -> None:
    if _certified(net, initial):
        assert flooded(net).n_components == 1


def _assert_former_route(net, initial=None) -> None:
    got = analyze_tandem(net, initial)
    want = reference_analyze_tandem(net, initial)
    assert got.initial == want.initial
    assert got.states == want.states
    assert list(got.distribution.items()) == list(want.distribution.items())
    assert [len(c) for c in got.partition.classes] == [
        len(c) for c in want.partition.classes
    ]
    assert got.partition == want.partition
    assert got.warnings == want.warnings


@given(seed=st.integers(0, 10_000))
def test_certificate_is_sound_on_grouped_specs(seed):
    ct = compile_cluster(_random_grouped(random.Random(seed)))
    _assert_sound(ct.network, ct.initial)


@st.composite
def tandems(draw):
    """At most four classes and six tokens, ordered by ranking the classes
    at random and directing every swapping edge up that ranking."""
    n = draw(st.integers(1, 4))
    population = tuple(draw(
        st.lists(st.integers(1, 2), min_size=n, max_size=n)
        .filter(lambda p: sum(p) <= 6)
    ))
    graph = draw(swapping_graphs(n, loops=False))
    rank = draw(st.permutations(range(n)))
    order = PlacementOrder.orient(graph, [
        (a, b) if rank[a] < rank[b] else (b, a) for a, b in graph.edges
    ])
    return TandemNetwork(draw(multi_server_rates(n)),
                         draw(multi_server_rates(n)), graph, population, order)


@given(tandems())
def test_certificate_is_sound_on_random_tandems(net):
    _assert_sound(net)


@given(tandems())
def test_analyze_tandem_is_the_former_route_on_random_tandems(net):
    _assert_former_route(net)


def counterexample_332() -> TandemNetwork:
    """ROADMAP item 2's reducible (3,3,2) tandem: two classes of 45
    states, although every pair of classes the swapping graph does not
    join has incomparable server sets in the second queue."""
    graph = SwappingGraph.from_pairs(3, [(0, 1), (0, 2)])
    return TandemNetwork(
        MultiServerRates.build([1.0], [{0}] * 3),
        MultiServerRates.build([1.0, 1.0], [{0, 1}, {1}, {0}]),
        graph, (3, 3, 2), PlacementOrder.orient(graph, [(1, 0), (2, 0)]),
    )


def uncertified_five_class() -> TandemNetwork:
    """ROADMAP item 2's 5-class tandem that no face certifies: 168
    states, one class."""
    graph = SwappingGraph.from_pairs(5, [(i, 4) for i in range(4)])
    return TandemNetwork(
        MultiServerRates.build(
            [1.0, 1.0], [{0, 1}, {0, 1}, {1}, {0, 1}, {0, 1}]),
        MultiServerRates.build(
            [1.0, 1.0], [{0, 1}, {0, 1}, {0, 1}, {0}, {0}]),
        graph, (1, 1, 1, 1, 2),
        PlacementOrder.orient(graph, [(i, 4) for i in range(4)]),
    )


def test_the_reference_tandems_take_the_flood():
    for net, sizes in ((counterexample_332(), [45, 45]),
                       (uncertified_five_class(), [168])):
        assert not _certified(net)
        assert [len(c) for c in flooded(net).classes] == sizes


def test_analyze_tandem_is_the_former_route_on_reducible_tandems():
    ct = compile_cluster(parse_document(REDUCIBLE_GROUPED_DOC).spec)
    assert flooded(ct.network).n_components == 2
    _assert_former_route(ct.network, ct.initial)
    net = counterexample_332()
    _assert_former_route(net)
    # from a state of the other class
    other = next(s for s in enumerate_sigma(net)
                 if s not in analyze_tandem(net).distribution)
    _assert_former_route(net, other)
    _assert_former_route(uncertified_five_class())


@pytest.mark.parametrize("seed", range(6))
def test_analyze_tandem_is_the_former_route_on_grouped_specs(seed):
    ct = compile_cluster(_random_grouped(random.Random(seed)))
    _assert_former_route(ct.network, ct.initial)
