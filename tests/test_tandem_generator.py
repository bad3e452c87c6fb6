"""``oracle.tandem_generator`` against the generic breadth-first build.

On every tandem, the build over content ids must give exactly what
``build_generator`` gives over ``closed.successors``: the states in order,
the index, and the bytes of the CSR ``indptr``, ``indices`` and ``data``.
``locator`` must find each state's row through the content ids, and a
budget below the state count must be refused with the same message,
frontier size included.  The tandems are small random ones (some classes
served by no server, started from any adhering state), the reducible
grouped cluster from a state of each of its two classes, where the search
covers one class, and every rung of the benchmark's bipartite ladder up to
48,384 states.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    PlacementOrder,
    ResourceError,
    TandemNetwork,
    build_generator,
    compile_cluster,
    enumerate_sigma,
    successors,
    tandem_generator,
)
from passandswap.modelfile import parse_document

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_cli_golden import REDUCIBLE_GROUPED_DOC  # noqa: E402
from test_sim_moves import swapping_graphs  # noqa: E402
from test_successors import idle_multi_server_rates  # noqa: E402


def _assert_same_generator(got, want) -> None:
    assert got.states == want.states
    assert got.index == want.index
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert np.array_equal(got.locator()(want.states),
                          np.arange(want.n_states))


def _outcome(build, *args, **kwargs):
    """The generator ``build`` makes, or the message of its refusal."""
    try:
        return build(*args, **kwargs)
    except ResourceError as exc:
        return str(exc)


def _assert_same_refusal(net, initial, budget) -> None:
    got = _outcome(tandem_generator, net, initial, budget=budget)
    want = _outcome(build_generator, successors(net), initial, budget=budget)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_generator(got, want)


@st.composite
def started_tandems(draw):
    """At most four classes and six tokens, ordered by ranking the classes
    at random and directing every swapping edge up that ranking; each
    queue's servers may leave a class unserved.  The start is any adhering
    state."""
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
    net = TandemNetwork(draw(idle_multi_server_rates(n)),
                        draw(idle_multi_server_rates(n)), graph, population,
                        order)
    return net, draw(st.sampled_from(enumerate_sigma(net)))


@given(started_tandems())
def test_tandem_generator_is_the_breadth_first_build(model):
    net, initial = model
    _assert_same_generator(tandem_generator(net, initial),
                           build_generator(successors(net), initial))


@given(started_tandems(), st.integers(0, 400))
def test_both_builds_refuse_with_one_message(model, budget):
    _assert_same_refusal(*model, budget)


def test_the_reducible_cluster_from_each_class():
    net = compile_cluster(parse_document(REDUCIBLE_GROUPED_DOC).spec).network
    reached = set()
    for initial in enumerate_sigma(net):
        got = tandem_generator(net, initial)
        _assert_same_generator(got, build_generator(successors(net), initial))
        reached.add(frozenset(got.states))
    # each search covers one of the two classes, never both
    first, second = reached
    assert not first & second
    assert first | second == set(enumerate_sigma(net))


def _rung_doc(slots):
    """The bipartite cluster of the benchmark's ladder at its base rates:
    waiting slots of types A, B and C, then buffers of machines 1, 2 and
    3."""
    types = (("A", 1.0, ["1", "3"]), ("B", 1.2, ["2", "3"]),
             ("C", 0.8, ["1", "2"]))
    machines = (("1", 1.0), ("2", 1.0), ("3", 1.5))
    return {
        "schema": "pands-cluster/1",
        "job_types": [
            {"name": name, "rate": rate, "slots": k, "machines": compat}
            for (name, rate, compat), k in zip(types, slots)
        ],
        "machines": [
            {"name": name, "rate": rate, "buffer": k}
            for (name, rate), k in zip(machines, slots[3:])
        ],
    }


@pytest.mark.parametrize("slots, count", [
    ((1, 1, 1, 1, 1, 1), 336),
    ((2, 1, 1, 1, 1, 1), 800),
    ((2, 2, 1, 1, 1, 1), 2_268),
    ((2, 2, 2, 1, 1, 1), 7_560),
    ((2, 2, 2, 2, 1, 1), 17_556),
    ((2, 2, 2, 2, 2, 1), 48_384),
])
def test_every_ladder_rung(slots, count):
    ct = compile_cluster(parse_document(_rung_doc(slots)).spec)
    net, initial = ct.network, ct.initial
    got = tandem_generator(net, initial)
    assert got.n_states == count
    _assert_same_generator(got, build_generator(successors(net), initial))
    # the refusal one state short, and with the frontier a level deep
    for budget in (count - 1, count // 3):
        _assert_same_refusal(net, initial, budget)


def test_rows_of_states_the_chain_does_not_reach():
    net = compile_cluster(parse_document(REDUCIBLE_GROUPED_DOC).spec).network
    initial = net.initial_state()
    gen = tandem_generator(net, initial)
    others = [s for s in enumerate_sigma(net) if s not in gen.index]
    assert others
    unknown = ((9,), ()), ((), (9, 9))
    rows = gen.locator()([initial, *others, *unknown])
    assert rows[0] == 0 and (rows[1:] == -1).all()
