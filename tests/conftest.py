import functools
import random
from typing import Any, Callable, Hashable, Sequence

import pytest
from hypothesis import settings

from passandswap import (
    CompletionOutcome,
    DeadlockError,
    MultiServerRates,
    PandsQueue,
    RateFunction,
    State,
    SwappingGraph,
    UsageError,
)
from passandswap.closed import Move, TandemNetwork, moves
from passandswap.sim import (
    ProtocolSimulator,
    SimConfig,
    SimResult,
    TraceFn,
    _mean_stderr,
    _protocol_result,
    _rep_rng,
)

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


# The reference kernels: the pass-and-swap step as it stood before it became
# one pass over the queue.  Each chain step searches afresh with a generator,
# from the last swap on; the one-pass kernels must agree with them exactly.


def reference_apply_completion(
    graph: SwappingGraph, state: State, position: int
) -> CompletionOutcome:
    """Apply the completion of the customer at ``position`` in ``state``."""
    n = len(state)
    if not 0 <= position < n:
        raise UsageError(
            f"position {position} out of range for a state of length {n}"
        )
    cells = list(state)
    chain = [position]
    moving = cells[position]
    at = position
    while True:
        nbrs = graph.neighbors(moving)
        nxt = next((q for q in range(at + 1, n) if cells[q] in nbrs), None)
        if nxt is None:
            break
        cells[nxt], moving = moving, cells[nxt]
        chain.append(nxt)
        at = nxt
    del cells[position]
    return CompletionOutcome(tuple(cells), moving, tuple(chain))


def reference_predecessors(
    graph: SwappingGraph, state: State, departing_class: int
) -> tuple[tuple[State, int], ...]:
    """All ``(previous_state, completing_position)`` pairs whose completion
    yields ``state`` with a departure of ``departing_class``.

    Built constructively: walking ``state`` from tail to head, anchor
    positions mark where each chain participant must have been standing,
    and the completing customer may be inserted anywhere between two
    consecutive anchors.  The result is pairwise distinct and agrees with
    exhaustively inserting a customer everywhere and replaying completions.
    """
    n = len(state)
    anchors: list[int] = []  # strictly decreasing 0-based anchor positions
    chain: list[int] = [departing_class]
    limit = n
    while True:
        nbrs = graph.neighbors(chain[-1])
        q = next((r for r in range(limit - 1, -1, -1) if state[r] in nbrs), None)
        if q is None:
            break
        anchors.append(q)
        chain.append(state[q])
        limit = q

    out: list[tuple[State, int]] = []
    base = list(state)
    for v in range(len(anchors) + 1):
        if v > 0:
            base[anchors[v - 1]] = chain[v - 1]
        hi = n if v == 0 else anchors[v - 1]
        lo = anchors[v] + 1 if v < len(anchors) else 0
        inserted = chain[v]
        for slot in range(lo, hi + 1):
            prev = tuple(base[:slot]) + (inserted,) + tuple(base[slot:])
            out.append((prev, slot))
    return tuple(out)


def transition_fn(model, capacity=None):
    """``state -> [(next state, rate), ...]`` of an open (truncated at
    ``capacity``), closed or tandem model, for ``build_generator``."""
    step = moves(model, capacity)
    return lambda s: [(move[1], move[0]) for move in step(s)]


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


# The reference event loop: the simulators' loop before it ran over
# integer-indexed tables.  It recomputes nothing per event either, but
# reads every event's moves from a memo keyed by the whole state, so it
# stays the slow path that the indexed loop must reproduce bit for bit.

# ``MovesOf`` maps a state to its occupancy key and its moves, each a
# ``closed.Move``; the protocol's move tags are the event tag followed by
# what ``ProtocolSimulator.apply`` reported.
MovesOf = Callable[[Any], tuple[Hashable, Sequence[Move]]]


def _run_replication(
    moves_of: MovesOf,
    initial: Any,
    cfg: SimConfig,
    rng: random.Random,
    trace: TraceFn | None,
) -> tuple[dict, dict]:
    """One replication of the exponential race: time-weighted occupancy
    fractions by key, and event counters, both in first-seen key order."""
    occupancy: dict[Any, float] = {}
    hits: dict[tuple[str, ...], int] = {}
    state = initial
    now = 0.0
    tracked = 0.0

    by_events = cfg.events is not None
    if by_events:
        horizon_events = cfg.events
        warm_events = int(cfg.warmup * horizon_events)
    else:
        horizon_time = cfg.time
        warm_time = cfg.warmup * horizon_time

    step = 0
    while True:
        if by_events:
            if step >= horizon_events:
                break
        elif now >= horizon_time:
            break
        key, moves = moves_of(state)
        total = 0.0
        for move in moves:
            total += move[0]
        if total <= 0.0:
            raise DeadlockError(f"no enabled event in state {state!r}")
        dt = rng.expovariate(total)
        if by_events:
            weight = dt if step >= warm_events else 0.0
        else:
            start = max(now, warm_time)
            end = min(now + dt, horizon_time)
            weight = max(0.0, end - start)
        if weight > 0.0:
            occupancy[key] = occupancy.get(key, 0.0) + weight
            tracked += weight
        pick = rng.random() * total
        chosen = moves[-1]
        acc = 0.0
        for move in moves:
            acc += move[0]
            if pick < acc:
                chosen = move
                break
        _, after, _, counts, tag = chosen
        if (step >= warm_events) if by_events else (now >= warm_time):
            hits[counts] = hits.get(counts, 0) + 1
        if trace is not None:
            if tag[0] == "complete":
                outcome = tag[2]
                trace(now + dt, f"complete-q{tag[1][0]}", outcome.chain,
                      outcome.departing_class)
            else:
                trace(now + dt, f"{tag[0]}-{tag[1]}", (), None)
        now += dt
        state = after
        step += 1

    if tracked > 0.0:
        occupancy = {k: v / tracked for k, v in occupancy.items()}
    # Counting each move's whole ``counts`` tuple at once and expanding it
    # here keeps the counters' values and their first-seen order.
    counters: dict[str, int] = {}
    for counts, n in hits.items():
        for name in counts:
            counters[name] = counters.get(name, 0) + n
    return occupancy, {name: float(n) for name, n in counters.items()}


# The reference aggregation: ``sim._aggregate`` as it stood when it looked
# every key up in every replication, one key at a time.


def _aggregate(
    occ_reps: list[dict], counter_reps: list[dict], fraction_reps: list[dict]
) -> SimResult:
    tables: list[dict] = []
    for reps in (occ_reps, counter_reps, fraction_reps):
        means: dict[Hashable, float] = {}
        errs: dict[Hashable, float] = {}
        # dict.fromkeys keeps the first-seen key order across replications
        for k in dict.fromkeys(k for rep in reps for k in rep):
            means[k], errs[k] = _mean_stderr([rep.get(k, 0.0) for rep in reps])
        tables += [means, errs]
    return SimResult(*tables, len(occ_reps))


def reference_simulate(model, cfg: SimConfig, capacity=None, initial=None,
                       trace: TraceFn | None = None) -> SimResult:
    """``sim.simulate`` through the reference loop."""
    step = moves(model, capacity)
    moves_of = lambda s: (s, step(s))
    if not isinstance(model, TandemNetwork):
        # A single queue's state is its content, which ``moves`` leaves to
        # its caller to memoize; a tandem's are memoized per queue content.
        moves_of = functools.cache(moves_of)
    if initial is None:
        initial = () if isinstance(model, PandsQueue) else model.initial_state()
    runs = [
        _run_replication(moves_of, initial, cfg, _rep_rng(cfg.seed, rep),
                         trace if rep == 0 else None)
        for rep in range(cfg.replications)
    ]
    return _aggregate([occ for occ, _ in runs],
                      [counters for _, counters in runs], [{} for _ in runs])


def _protocol_moves(sim: ProtocolSimulator) -> MovesOf:
    """Memoized moves of the protocol, keyed by protocol state: a state's
    held-count key, and each enabled event with the next state and outcome
    that ``sim.apply`` returns."""
    arrivals = [f"arrivals:{t}" for t in sim.types]
    rejections = [f"rejections:{t}" for t in sim.types]

    @functools.cache
    def moves_of(state):
        out = []
        for rate, tag in sim.transitions(state):
            after, result = sim.apply(state, tag)
            if tag[0] == "complete":
                counts = ("completions",)
            elif result == "reject":
                counts = (arrivals[tag[1]], rejections[tag[1]])
            else:
                counts = (arrivals[tag[1]],)
            out.append((rate, after, None, counts, (*tag, result)))
        return sim.held_counts(state), tuple(out)

    return moves_of


def reference_simulate_protocol(spec, cfg: SimConfig) -> SimResult:
    """``sim.simulate_protocol`` through the reference loop."""
    sim = ProtocolSimulator(spec)
    moves_of = _protocol_moves(sim)
    runs = [
        _run_replication(moves_of, sim.start, cfg, _rep_rng(cfg.seed, rep),
                         None)
        for rep in range(cfg.replications)
    ]
    return _protocol_result(sim.types, runs)
