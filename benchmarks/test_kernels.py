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

``MultiServerRates.rate`` runs on the face only, over the macrostate of
every prefix of every content (44,352 macrostates), whose differences are
the contents' increments.

Each round runs the kernel over the whole input and returns a checksum, so
the work is consumed inside the timed region.

Three tests time a kernel against the route it replaced, in alternating
rounds of one process, so the two sides share the process's noise.  Each
benchmark round is one pair, the two orders taking turns; the medians of
each side and their ratio (new over reference) go to the benchmark's
``extra_info``, which ``--benchmark-json`` writes out:

* ``test_face_walk_against_reference``: ``_face_walk`` against the flood it
  replaced, ``_flood`` over ``dynamics.completions`` with the departing
  class rejoining the tail;
* ``test_open_generator_against_reference``: ``oracle.open_generator``
  against the route it replaced, ``oracle.build_generator`` over the
  reference open successors of ``tests/conftest.py``, on the open10 chain;
* ``test_stationary_truncated_against_reference``: the integer walk of
  ``product_form.stationary_truncated`` against the tuple walk it replaced,
  ``reference_stationary_truncated`` of ``tests/conftest.py``, on the
  open10 model: each side's log weights and log normalizer;
* ``test_analyze_tandem_against_reference``: ``closed.analyze_tandem``
  (one weighted walk, and the face certificate before any flood) against
  the route it replaced, ``reference_analyze_tandem`` of
  ``tests/conftest.py`` (weigh each state by its contents, flood,
  restrict), on the 7,560-state (2,2,2|1,1,1) tandem that
  ``oracle-compare`` cross-checks in the benchmark;
* ``test_tandem_generator_against_reference``: ``oracle.tandem_generator``
  (content ids, a numpy step per breadth-first level) against the route
  it replaced, ``oracle.build_generator`` over ``closed.successors``, on
  the same tandem.

Three stages of the oracle's solve run on the open10 chain's generator, as
``oracle.solve_stationary`` calls them: ``_solve_uniformized`` with the
trial's budget (it gives up after two checkpoints), ``_factor_size`` with
the default ``direct_limit``, and ``_solve_direct``.

``test_cold_start`` times a fresh interpreter importing the CLI module,
the start-up cost every command pays before it reads its model.

Two simulator kernels run on ``sim_tandem``, the (2,2,2|2,2,2) cluster's
tandem at its base rates (157,248 states, 36,955 contents of each queue,
the model of the ``cluster_sim`` benchmark):

* ``test_table_id``: ``sim._Table.id`` over every content of both queues,
  into a run's two tables, from moves read beforehand, so that the table's
  own row build is timed;
* ``test_aggregate``: ``sim._aggregate`` on one replication whose
  occupancy has 115,000 of the tandem's states as keys, about what one
  ``cluster_sim`` replication visits;
* ``test_table_against_reference``: the same two tables built by
  ``sim._Table``, in flat per-move arrays, against ``_ReferenceTable``,
  the per-part tuples and lists it replaced, both reading each content's
  moves from ``closed.queue_moves``; ``extra_info`` adds the bytes that
  each side's tables keep per part, as ``tracemalloc`` counts them.
"""

import inspect
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest

import passandswap
from passandswap import sim
from passandswap.closed import (ClosedQueue, _face_walk, _flood,
                                 analyze_tandem, enumerate_sigma, queue_moves,
                                 successors)
from passandswap.cluster import compile_cluster
from passandswap.dynamics import apply_completion, completions, predecessors
from passandswap.model import all_states, macrostate
from passandswap.modelfile import parse_document
from passandswap import oracle
from passandswap.oracle import build_generator, open_generator, tandem_generator
from passandswap.product_form import stationary_truncated

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import (  # noqa: E402
    open_successors,
    reference_analyze_tandem,
    reference_stationary_truncated,
)

ROUNDS = 5
AB_ROUNDS = 15  # alternating pairs of the face walk's A/B
GENERATOR_AB_ROUNDS = 9  # and of the generator build's, about 1 s a pair
WALK_AB_ROUNDS = 15  # and of the truncated walk's, about 0.15 s a pair
TANDEM_AB_ROUNDS = 11  # and of the tandem analysis's, about 0.15 s a pair
TANDEM_GENERATOR_AB_ROUNDS = 11  # and of the tandem build's, about 0.2 s
TABLE_AB_ROUNDS = 7  # and of the simulator tables', about 2.5 s a pair

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
# The (2,2,2|1,1,1) rung: one buffer slot per machine.
TANDEM_DOC = {**CLUSTER_DOC, "machines": [
    {**m, "buffer": 1} for m in CLUSTER_DOC["machines"]]}
TANDEM_STATES = 7_560

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

# The (2,2,2|2,2,2) rung: two buffer slots per machine.
SIM_DOC = {**CLUSTER_DOC, "machines": [
    {**m, "buffer": 2} for m in CLUSTER_DOC["machines"]]}
SIM_STATES = 157_248
SIM_CONTENTS = 36_955  # of each queue
SIM_MOVES = 110_772  # of each queue's contents
AGGREGATE_KEYS = 115_000


def _face():
    net = compile_cluster(parse_document(CLUSTER_DOC).spec).network
    start = net.initial_state()[1]  # every token in the second queue
    queue = ClosedQueue(net.rate_fn_2, net.swapping,
                        macrostate(start, net.n_classes))
    step = successors(queue)
    contents = sorted(_flood(start, lambda c: [t for t, _ in step(c)]))
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


def test_rate(benchmark):
    rate_fn, _, contents, _ = _face()
    n = rate_fn.n_classes
    prefixes = [macrostate(s[:k], n) for s in contents
                for k in range(1, len(s) + 1)]
    assert len(prefixes) == FACE_CONTENTS * 11
    assert _run(
        benchmark, lambda: sum(rate_fn.rate(x) for x in prefixes)
    ) > 0


def test_face_walk(benchmark):
    rate_fn, graph, _, start = _face()
    assert _run(
        benchmark, lambda: len(_face_walk(rate_fn, graph, start))
    ) == FACE_CONTENTS


def _reference_face_walk(rate_fn, graph, start):
    return _flood(start, lambda content: [
        after + (cls,)
        for _, _, after, cls in completions(rate_fn, graph, content)
    ])


def _against_reference(benchmark, name, new, reference, rounds, size):
    """Time ``new``, named ``name`` in ``extra_info``, against
    ``reference`` in ``rounds`` alternating pairs; each pair returns
    ``size`` of its last side's result."""
    sides = {"reference": reference, name: new}
    times = {side: [] for side in sides}

    def pair():
        order = list(sides)
        for side in order if len(times[name]) % 2 else order[::-1]:
            start_s = time.perf_counter()
            result = sides[side]()
            times[side].append(time.perf_counter() - start_s)
        return size(result)

    out = benchmark.pedantic(pair, rounds=rounds)
    medians = {side: statistics.median(t) for side, t in times.items()}
    benchmark.extra_info.update(
        pairs=len(times[name]),
        reference_median_s=medians["reference"],
        **{f"{name}_median_s": medians[name]},
        ratio=medians[name] / medians["reference"],
    )
    return out


def test_face_walk_against_reference(benchmark):
    rate_fn, graph, _, start = _face()
    reference = lambda: _reference_face_walk(rate_fn, graph, start)
    walk = lambda: _face_walk(rate_fn, graph, start)
    # Runs each side once before timing, as a warm-up.
    assert walk() == reference()
    assert _against_reference(
        benchmark, "walk", walk, reference, AB_ROUNDS, len
    ) == FACE_CONTENTS


def test_open_generator_against_reference(benchmark):
    queue = parse_document(OPEN_DOC).queue
    reference = lambda: build_generator(
        open_successors(queue, OPEN_CAPACITY), ())
    build = lambda: open_generator(queue, OPEN_CAPACITY)
    # Runs each side once before timing, as a warm-up.
    got, want = build(), reference()
    assert got.states == want.states
    for name in ("indptr", "indices", "data"):
        assert (getattr(got.matrix, name).tobytes()
                == getattr(want.matrix, name).tobytes()), name
    assert _against_reference(
        benchmark, "build", build, reference, GENERATOR_AB_ROUNDS,
        lambda g: g.n_states,
    ) == OPEN_STATES


def test_stationary_truncated_against_reference(benchmark):
    queue = parse_document(OPEN_DOC).queue
    got = stationary_truncated(queue, OPEN_CAPACITY)
    want = reference_stationary_truncated(queue, OPEN_CAPACITY)
    assert got.log_normalizer == want.log_normalizer
    assert got.log_weight_list == list(want.log_weights.values())
    # Each side returns its state count; the calls above were the warm-up.
    reference = lambda: len(
        reference_stationary_truncated(queue, OPEN_CAPACITY).log_weights)
    walk = lambda: len(stationary_truncated(queue, OPEN_CAPACITY)
                       .log_weight_list)
    assert _against_reference(
        benchmark, "walk", walk, reference, WALK_AB_ROUNDS, lambda n: n
    ) == OPEN_STATES


def test_analyze_tandem_against_reference(benchmark):
    ct = compile_cluster(parse_document(TANDEM_DOC).spec)
    net, initial = ct.network, ct.initial
    analyze = lambda: analyze_tandem(net, initial)
    reference = lambda: reference_analyze_tandem(net, initial)
    # Runs each side once before timing, as a warm-up.
    got, want = analyze(), reference()
    assert got.states == want.states
    assert list(got.distribution.items()) == list(want.distribution.items())
    assert got.partition == want.partition
    assert _against_reference(
        benchmark, "analyze", analyze, reference, TANDEM_AB_ROUNDS,
        lambda a: len(a.states),
    ) == TANDEM_STATES


def test_tandem_generator_against_reference(benchmark):
    ct = compile_cluster(parse_document(TANDEM_DOC).spec)
    net, initial = ct.network, ct.initial
    build = lambda: tandem_generator(net, initial)
    reference = lambda: build_generator(successors(net), initial)
    # Runs each side once before timing, as a warm-up.
    got, want = build(), reference()
    assert got.states == want.states
    for name in ("indptr", "indices", "data"):
        assert (getattr(got.matrix, name).tobytes()
                == getattr(want.matrix, name).tobytes()), name
    assert _against_reference(
        benchmark, "build", build, reference, TANDEM_GENERATOR_AB_ROUNDS,
        lambda g: g.n_states,
    ) == TANDEM_STATES


@pytest.fixture(scope="module")
def sim_tandem():
    """The (2,2,2|2,2,2) tandem and its states."""
    net = compile_cluster(parse_document(SIM_DOC).spec).network
    states = enumerate_sigma(net)
    assert len(states) == SIM_STATES
    return net, states


def _contents(states):
    """The contents of each queue, in first-seen order of ``states``."""
    out = [list(dict.fromkeys(s[k] for s in states)) for k in (0, 1)]
    assert list(map(len, out)) == [SIM_CONTENTS] * 2
    return out


def _tables(table, net, contents, rows_of):
    """A tandem run's two tables of class ``table``, given every content of
    ``contents``."""
    first = table(rows_of[0], {}, width=net.n_classes)
    second = table(rows_of[1], first.counter_ids, summed=False,
                   width=net.n_classes)
    for each, parts in zip((first, second), contents):
        for part in parts:
            each.id(part)
    return first, second


class _ReferenceTable:
    """The layout ``sim._Table`` replaced: per part, a tuple of running
    sums (or of rates), a list of next parts as given, tuples of handed
    classes and counter ids, and a list of ``width`` tail slots."""

    def __init__(self, rows_of, counter_ids, key_of=None, summed=True,
                 width=0):
        self.rows_of, self.counter_ids = rows_of, counter_ids
        self.key_of, self.summed, self.width = key_of, summed, width
        self.ids, self.parts, self.keys, self.code = {}, [], {}, []
        self.cum, self.total, self.rates, self.next = [], [], [], []
        self.handed, self.counter, self.appended = [], [], []

    def id(self, part):
        p = self.ids.get(part)
        if p is not None:
            return p
        p = self.ids[part] = len(self.parts)
        self.parts.append(part)
        kid = p if self.key_of is None else self.keys.setdefault(
            self.key_of(part), len(self.keys))
        self.code.append(kid << sim._SHIFT)
        rows = self.rows_of(part)
        rates, nexts, handed, counts, _ = zip(*rows) if rows else ((),) * 5
        if self.summed:
            cum = tuple(accumulate(rates))
            self.cum.append(cum)
            self.total.append(cum[-1] if cum else 0.0)
        else:
            self.rates.append(rates)
        self.next.append(list(nexts))
        self.handed.append(handed)
        ids = self.counter_ids
        self.counter.append(tuple(
            ids.setdefault(c, len(ids)) for c in counts))
        if self.width:
            self.appended.append([-1] * self.width)
        return p


def test_table_id(benchmark, sim_tandem):
    net, states = sim_tandem
    contents = _contents(states)
    rows = [dict(zip(parts, map(moves, parts)))
            for moves, parts in zip(queue_moves(net), contents)]
    rows_of = [each.__getitem__ for each in rows]
    assert _run(benchmark, lambda: [
        len(each.next) for each in _tables(sim._Table, net, contents, rows_of)
    ]) == [SIM_MOVES] * 2


def test_aggregate(benchmark, sim_tandem):
    _, states = sim_tandem
    rng = random.Random(0)
    occupancy = {s: rng.random() for s in states[:AGGREGATE_KEYS]}
    counters = {"completions": 1.0, "departures:0": 1.0, "services:0": 1.0}
    assert _run(benchmark, lambda: len(sim._aggregate(
        [occupancy], [counters], [{}]).occupancy)) == AGGREGATE_KEYS


def _bytes_per_part(build):
    """The bytes that the tables ``build`` returns keep, per part, as
    ``tracemalloc`` counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = build()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / sum(len(each.parts) for each in tables)


def test_table_against_reference(benchmark, sim_tandem):
    net, states = sim_tandem
    contents = _contents(states)
    queues = queue_moves(net)
    build = lambda: _tables(sim._Table, net, contents, queues)
    reference = lambda: _tables(_ReferenceTable, net, contents, queues)
    # Runs each side once before timing, as a warm-up: each part's rows
    # agree, a next part as given or by its id.
    for new, old in zip(build(), reference()):
        assert new.parts == old.parts
        sums = old.cum if old.summed else old.rates
        flat = new.cum if new.summed else new.rates
        for p, part in enumerate(new.parts):
            lo, hi = new.lo[p], new.lo[p + 1]
            assert tuple(flat[lo:hi]) == sums[p]
            assert [new.parts[after] if type(after) is int else after
                    for after in new.next[lo:hi]] == old.next[p]
            assert tuple(new.handed[lo:hi]) == old.handed[p]
            assert tuple(new.counter[lo:hi]) == old.counter[p]
    kept = {"table": _bytes_per_part(build),
            "reference": _bytes_per_part(reference)}
    assert _against_reference(
        benchmark, "table", build, reference, TABLE_AB_ROUNDS,
        lambda tables: sum(len(each.parts) for each in tables),
    ) == 2 * SIM_CONTENTS
    benchmark.extra_info.update(
        table_bytes_per_part=kept["table"],
        reference_bytes_per_part=kept["reference"],
        bytes_ratio=kept["table"] / kept["reference"],
    )


@pytest.fixture(scope="module")
def open10_matrix():
    """The generator of the open10 chain, as ``oracle-compare -N 10``
    solves it."""
    return open_generator(parse_document(OPEN_DOC).queue,
                          OPEN_CAPACITY).matrix


def test_solve_uniformized(benchmark, open10_matrix):
    tol = inspect.signature(oracle.solve_stationary).parameters[
        "residual_tol"].default
    pi, history = _run(benchmark, lambda: oracle._solve_uniformized(
        open10_matrix, tol, oracle._TRIAL_ITERATIONS))
    assert pi is None and len(history) == 2


def test_factor_size(benchmark, open10_matrix):
    limit = inspect.signature(oracle.solve_stationary).parameters[
        "direct_limit"].default
    assert 0 < _run(benchmark, lambda: oracle._factor_size(
        open10_matrix, limit)) <= limit


def test_solve_direct(benchmark, open10_matrix):
    pi = _run(benchmark, lambda: oracle._solve_direct(open10_matrix))
    assert len(pi) == OPEN_STATES and abs(pi.sum() - 1.0) < 1e-12


def test_cold_start(benchmark):
    src = str(Path(passandswap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", "import passandswap.cli"]
    assert _run(
        benchmark, lambda: subprocess.run(argv, env=env).returncode
    ) == 0
