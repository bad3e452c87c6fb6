"""Kernel timings on fixed inputs, with pytest-benchmark.

    python -m pytest benchmarks/test_kernels.py --benchmark-json=out.json

This directory lies outside ``testpaths``, so the test suite never collects
it.  Two inputs:

* ``face``: the contents a closed-queue walk reaches on one face of the
  bipartite (2,2,2|2,2,1) cluster at its base rates (4,032 contents of 11
  customers), the input of ``closed._face_walk`` in ``cluster-analyze``;
* ``open10``: every state of the 3-class path-graph open model up to 10
  customers (88,573 states), the state space ``oracle-compare -N 10``
  walks.

Each round runs the kernel over the whole input and returns a checksum, so
the work is consumed inside the timed region.
"""

import pytest

from passandswap.closed import ClosedQueue, _face_walk, _flood, _targets, moves
from passandswap.cluster import compile_cluster
from passandswap.dynamics import apply_completion, completions, predecessors
from passandswap.model import all_states, macrostate
from passandswap.modelfile import parse_document

ROUNDS = 5

# The (2,2,2|2,2,1) rung of the bipartite family at its base rates.
CLUSTER_DOC = {
    "schema": "pands-cluster/1",
    "job_types": [
        {"name": "A", "rate": 1.0, "slots": 2, "machines": ["1", "3"]},
        {"name": "B", "rate": 1.2, "slots": 2, "machines": ["2", "3"]},
        {"name": "C", "rate": 0.8, "slots": 2, "machines": ["1", "2"]},
    ],
    "machines": [
        {"name": "1", "rate": 1.0, "buffer": 2},
        {"name": "2", "rate": 1.0, "buffer": 2},
        {"name": "3", "rate": 1.5, "buffer": 1},
    ],
}
FACE_CONTENTS = 4_032

# The 3-class path-graph open model of the CLI tests.
OPEN_DOC = {
    "schema": "pands-open/1",
    "classes": 3,
    "arrival_rates": [0.8, 0.8, 0.8],
    "rate_function": {
        "kind": "multi_server",
        "server_rates": [1.0, 1.0],
        "compat": [[1], [2], [1, 2]],
    },
    "swapping_edges": [[1, 2], [2, 3]],
}
OPEN_CAPACITY = 10
OPEN_STATES = 88_573


def _face():
    net = compile_cluster(parse_document(CLUSTER_DOC).spec).network
    start = net.initial_state()[1]  # every token in the second queue
    queue = ClosedQueue(net.rate_fn_2, net.swapping,
                        macrostate(start, net.n_classes))
    contents = sorted(_flood(start, _targets(moves(queue))))
    assert len(contents) == FACE_CONTENTS
    return net.rate_fn_2, net.swapping, contents, start


def _open10():
    queue = parse_document(OPEN_DOC).queue
    states = list(all_states(queue.n_classes, OPEN_CAPACITY))
    assert len(states) == OPEN_STATES
    return queue.rate_fn, queue.swapping, states


@pytest.fixture(scope="module", params=["face", "open10"])
def states(request):
    """``(rate function, swapping graph, states)`` of one input."""
    return _face()[:3] if request.param == "face" else _open10()


def _run(benchmark, fn):
    return benchmark.pedantic(fn, rounds=ROUNDS, warmup_rounds=1)


def test_apply_completion(benchmark, states):
    _, graph, contents = states

    def every_completion():
        return sum(
            len(apply_completion(graph, s, p).chain)
            for s in contents
            for p in range(len(s))
        )

    assert _run(benchmark, every_completion) > 0


def test_predecessors(benchmark, states):
    _, graph, contents = states
    classes = range(graph.n_classes)

    def every_departure():
        return sum(
            len(predecessors(graph, s, i)) for s in contents for i in classes
        )

    assert _run(benchmark, every_departure) > 0


def test_completions(benchmark, states):
    rate_fn, graph, contents = states
    assert _run(
        benchmark,
        lambda: sum(len(completions(rate_fn, graph, s)) for s in contents),
    ) > 0


def test_increments(benchmark, states):
    rate_fn, _, contents = states
    assert _run(
        benchmark,
        lambda: sum(len(rate_fn.increments(s)) for s in contents),
    ) > 0


def test_face_walk(benchmark):
    rate_fn, graph, _, start = _face()
    assert _run(
        benchmark, lambda: _face_walk(rate_fn, graph, start)
    ) == FACE_CONTENTS
