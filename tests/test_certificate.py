"""Soundness of the face certificate of ``analyze_tandem_macrostates``.

Whenever the certificate accepts (the macrostate engine returns without
its microstate fallback, ``analyze_tandem``), ``communicating_classes``
must find exactly one class.  The models are grouped clusters drawn by
seed, the family that holds every reducible spec of
``tests/test_macrostates.py``, and small random tandems: a random
acyclic orientation of a random loop-free swapping graph, with random
``MultiServerRates`` per queue.  Every class is served
by some server, so every occurring macrostate has a positive rate.
"""

import random
import sys
from pathlib import Path
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    PlacementOrder,
    TandemNetwork,
    analyze_tandem,
    analyze_tandem_macrostates,
    compile_cluster,
)
from passandswap import closed

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_macrostates import _random_grouped  # noqa: E402
from test_sim_moves import multi_server_rates, swapping_graphs  # noqa: E402


class _FellBack(Exception):
    pass


def _certified(net, initial=None) -> bool:
    """True when the macrostate engine decides irreducibility without the
    microstate fallback."""

    def fallback(*args):
        raise _FellBack

    with mock.patch.object(closed, "analyze_tandem", fallback):
        try:
            analyze_tandem_macrostates(net, initial)
        except _FellBack:
            return False
    return True


def _assert_sound(net, initial=None) -> None:
    if _certified(net, initial):
        assert analyze_tandem(net, initial).partition.n_components == 1


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
