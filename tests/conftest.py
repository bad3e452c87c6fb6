import functools
import math
import random
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

import pytest
from hypothesis import settings

from passandswap import (
    CompletionOutcome,
    DeadlockError,
    MultiServerRates,
    PandsQueue,
    RateFunction,
    ResourceError,
    State,
    SwappingGraph,
    UsageError,
)
from passandswap.closed import (
    ClosedQueue,
    Move,
    PlacementOrder,
    TandemAnalysis,
    TandemNetwork,
    _handoff,
    communicating_classes,
    enumerate_adhering,
    queue_moves,
    successors,
)
from passandswap.dynamics import completions
from passandswap.oracle import GeneratorMatrix, _check_row_sums
from passandswap.product_form import _logsumexp, balance
from passandswap.sim import (
    ProtocolSimulator,
    SimConfig,
    SimResult,
    TraceFn,
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


# The reference multi-server rates: ``MultiServerRates`` as it stood before
# it memoized the rate of each server mask.  The memoized methods must agree
# with these bit for bit, cold or warm.


def _reference_mask_rate(rf: MultiServerRates, mask: int) -> float:
    total = 0.0
    rates = rf.server_rates
    while mask:
        low = mask & -mask
        total += rates[low.bit_length() - 1]
        mask ^= low
    return total


def reference_multi_server_rate(rf: MultiServerRates, counts) -> float:
    mask = 0
    for i, k in enumerate(counts):
        if k:
            mask |= rf._masks[i]
    return _reference_mask_rate(rf, mask)


def reference_multi_server_increments(
    rf: MultiServerRates, state
) -> tuple[float, ...]:
    masks = rf._masks
    acc = 0
    out = []
    for cls in state:
        new = masks[cls] & ~acc
        out.append(_reference_mask_rate(rf, new) if new else 0.0)
        acc |= new
    return tuple(out)


# The reference whole-state view: every model's moves as whole-state
# ``closed.Move`` rows, as the simulators, the class partitions and the
# generator build all read them before the partitions and the generator
# moved to ``closed.successors``.  The reference event loop below still
# reads them, and ``transition_fn`` adapts them for ``build_generator``.


def moves(
    model: PandsQueue | ClosedQueue | TandemNetwork,
    capacity: int | None = None,
) -> Callable[[Any], Sequence[Move]]:
    """The moves of ``model`` as a function of its state: for an open
    queue, one arrival per class then its completions, head first, where an
    arrival at ``capacity`` (if set) is a rejection that keeps the state;
    for a closed queue, its completions, the departing customer rejoining
    at the tail; for a tandem, its first queue's completions, then its
    second's.  Each move's ``next`` is the whole next state, and its
    ``handed`` is None.

    A tandem's moves are built from ``queue_moves`` memoized per content
    of each queue, which every traversal meets again under many contents
    of the other queue.  A single queue's state *is* its content, so a
    caller that revisits states keeps its own memo.
    """
    queues = queue_moves(model, capacity)
    if len(queues) == 1:
        return queues[0]
    first, second = map(functools.cache, queues)
    return lambda s: [
        (rate, _handoff(s, 1, c, cls), None, counts, tag)
        for rate, c, cls, counts, tag in first(s[0])
    ] + [
        (rate, _handoff(s, 2, d, cls), None, counts, tag)
        for rate, d, cls, counts, tag in second(s[1])
    ]


def _targets(step: Callable[[Any], Sequence[Move]]) -> Callable[[Any], list]:
    """The next state of each move of ``step``, for a class partition."""
    return lambda s: [move[1] for move in step(s)]


def transition_fn(model, capacity=None):
    """``state -> [(next state, rate), ...]`` of an open (truncated at
    ``capacity``), closed or tandem model, for ``build_generator``: the
    whole-state rows of :func:`moves` through an adapter, rejections
    included."""
    step = moves(model, capacity)
    return lambda s: [(move[1], move[0]) for move in step(s)]


# The reference generator build: ``oracle.build_generator`` as it stood when
# it popped each state from a deque, looked its index up again, and hashed
# each new target twice.  Fed by ``transition_fn``, it is the route the
# generator of ``oracle-compare`` took before ``closed.successors``; the
# build from ``successors``, or from ``open_successors`` on an open queue,
# must give the same matrix and the same budget error.


def reference_build_generator(transitions, initial, budget=200_000):
    import numpy as np
    import scipy.sparse as sp
    index = {initial: 0}
    order = [initial]
    frontier = deque([initial])
    indptr = array("q", [0])
    cols = array("q")
    vals = array("d")
    while frontier:
        state = frontier.popleft()
        u = index[state]
        row: dict[int, float] = {}
        for target, rate in transitions(state):
            if rate < 0.0:
                raise UsageError(f"negative rate {rate} from state {state!r}")
            if rate == 0.0:
                continue
            if target not in index:
                if len(index) >= budget:
                    raise ResourceError(
                        f"reachable state count exceeded budget {budget} "
                        f"(frontier size {len(frontier)})"
                    )
                index[target] = len(order)
                order.append(target)
                frontier.append(target)
            v = index[target]
            if u != v:
                row[v] = row.get(v, 0.0) + rate
        exit_rate = 0.0
        for val in row.values():
            exit_rate += val
        row[u] = -exit_rate
        cols.extend(row)
        vals.extend(row.values())
        indptr.append(len(cols))
    n = len(order)
    matrix = sp.csr_matrix(
        (np.frombuffer(vals), np.frombuffer(cols, dtype=np.int64),
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(n, n),
    )
    matrix.sort_indices()
    _check_row_sums(matrix)
    return GeneratorMatrix(tuple(order), index, matrix)


# The reference uniformized solve: ``oracle._solve_uniformized`` as it stood
# when it built ``P^T`` through ``(I + Q / lam)^T`` and kept a transposed
# copy of ``Q`` for its checkpoint residual.  The solve that builds ``P^T``
# from one copy and reads the residual as ``pi @ Q`` must give the same
# residual history and the same ``pi``, bit for bit.


def reference_solve_uniformized(q_sub, residual_tol, budget=None):
    import numpy as np
    import scipy.sparse as sp
    from passandswap import oracle
    n = q_sub.shape[0]
    out_rates = -q_sub.diagonal()
    top = float(out_rates.max()) if n else 0.0
    if top <= 0.0:
        return np.full(n, 1.0 / n), [0.0]
    scale = max(1.0, top)
    floor = oracle._FLOOR_MULTIPLE * np.finfo(float).eps * scale
    lam = oracle._UNIFORMIZATION_MARGIN * top
    p_t = (sp.eye(n, format="csr") + q_sub / lam).transpose().tocsr()
    q_t = q_sub.transpose().tocsr()
    pi = np.full(n, 1.0 / n)
    history: list[float] = []
    damping = oracle._DAMPING
    for it in range(budget or oracle._MAX_ITERATIONS):
        pi = (1.0 - damping) * pi + damping * (p_t @ pi)
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        if it % oracle._CHECKPOINT:
            continue
        residual = float(np.abs(q_t @ pi).max())
        last = history[-1] if history else math.inf
        history.append(residual)
        if residual <= floor or last <= residual <= residual_tol * scale:
            return pi, history
        if budget and last < math.inf:
            ratio = residual / last
            if ratio >= 1.0 or it + oracle._CHECKPOINT * math.log(
                    floor / residual) / math.log(ratio) > budget:
                return None, history
    return None, history


# The reference open successors: the open-queue branch of
# ``closed.successors`` as it stood before ``oracle.open_generator`` built
# the truncated generator in closed form.  ``build_generator`` over them is
# the generic breadth-first build that the closed form must reproduce bit
# for bit.


def open_successors(
    queue: PandsQueue, capacity: int
) -> Callable[[Any], list[tuple[Any, float]]]:
    """``state -> [(next_state, rate), ...]`` of the open ``queue``: one
    arrival per class while it holds fewer than ``capacity`` customers,
    then its completions, head first.  A rejection at capacity keeps the
    state, a self-loop that neither a generator nor a partition reads, so
    it is left out."""
    if capacity < 0:
        raise UsageError("capacity must be non-negative")
    rate_fn, graph = queue.rate_fn, queue.swapping
    rates = tuple(enumerate(queue.arrival_rates))
    return lambda state: (
        [(state + (i,), lam) for i, lam in rates]
        if len(state) < capacity else []
    ) + [
        (after, inc)
        for _, inc, after, _ in completions(rate_fn, graph, state)
    ]


# The reference truncated walk: ``product_form.stationary_truncated`` as it
# stood when it walked tuples, built each state by concatenation, read the
# overall rate of every state's macrostate afresh and keyed the log weights
# by state.  The integer walk must give the same states, log weights,
# normalizer, probabilities and mean counts bit for bit, and raise on the
# same macrostate.


@dataclass(frozen=True)
class ReferenceTruncation:
    n_classes: int
    capacity: int
    states: tuple
    log_weights: dict
    log_normalizer: float

    def probabilities(self) -> dict:
        z = self.log_normalizer
        return {s: math.exp(w - z) for s, w in self.log_weights.items()}

    def mean_counts(self) -> tuple:
        totals = [0.0] * self.n_classes
        for s, p in self.probabilities().items():
            for cls in s:
                totals[cls] += p
        return tuple(totals)


def reference_stationary_truncated(
    queue: PandsQueue, capacity: int, budget: int = 1_000_000
) -> ReferenceTruncation:
    if capacity < 0:
        raise UsageError("capacity must be non-negative")
    n = queue.n_classes
    total_states = layer = 1
    for _ in range(capacity):
        layer *= n
        total_states += layer
        if total_states > budget:
            raise ResourceError(
                f"truncation at {capacity} customers needs more than "
                f"{budget} states, the budget"
            )
    log_lam = [math.log(l) for l in queue.arrival_rates]
    rate = queue.rate_fn.rate
    counts = [0] * n  # the macrostate of the popped frame's state
    log_weights = {(): 0.0}
    # Depth first, children in class order, on an explicit stack of (state,
    # log weight, class to append) frames.
    frames = [((), 0.0, 0)] if capacity else []
    while frames:
        state, lw, i = frames.pop()
        if i == n:  # every child done: leave the state
            if state:
                counts[state[-1]] -= 1
            continue
        frames.append((state, lw, i + 1))
        counts[i] += 1
        r = rate(tuple(counts))
        if r <= 0.0:
            raise UsageError(
                f"overall rate is not positive on macrostate {tuple(counts)}"
            )
        child = state + (i,)
        child_lw = log_weights[child] = lw + log_lam[i] - math.log(r)
        if len(child) < capacity:
            frames.append((child, child_lw, 0))
        else:
            counts[i] -= 1
    values = list(log_weights.values())
    m = max(values)
    log_z = m + math.log(sum(math.exp(v - m) for v in values))
    return ReferenceTruncation(n, capacity, tuple(log_weights), log_weights,
                               log_z)


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


def reference_first_queue_macrostates(
    order: PlacementOrder, population
) -> tuple:
    """``closed.first_queue_macrostates`` as it was before each macrostate
    carried its mask: every candidate rebuilds the mask of classes left
    and tests every class of the first queue against it."""
    n = order.n_classes
    earlier = order.earlier

    def occurs(x) -> bool:
        left = sum(1 << i for i in range(n) if x[i] < population[i])
        return not any(x[b] and earlier[b] & left for b in range(n))

    layer = [(0,) * n]
    out = list(layer)
    seen = set(layer)
    while layer:
        grown = []
        for x in layer:
            for i in range(n):
                if x[i] < population[i]:
                    y = x[:i] + (x[i] + 1,) + x[i + 1:]
                    if y not in seen and occurs(y):
                        seen.add(y)
                        grown.append(y)
        out += grown
        layer = grown
    return tuple(out)


def reference_analyze_tandem(net: TandemNetwork, initial=None) -> TandemAnalysis:
    """``closed.analyze_tandem``'s former route: cut every arrangement of
    ``enumerate_adhering`` at every point, weigh each queue's content of
    each state by ``product_form.balance``, flood every state with
    ``communicating_classes``, and restrict the law to the class of
    ``initial`` when there are several."""
    if initial is None:
        initial = net.initial_state()
    total = sum(net.population)
    states = tuple(
        (seq[:cut], tuple(reversed(seq[cut:])))
        for seq in enumerate_adhering(net.order, net.population, math.inf)
        for cut in range(total + 1)
    )
    log_w = [balance(net.rate_fn_1, c) + balance(net.rate_fn_2, d)
             for c, d in states]
    step = successors(net)
    partition = communicating_classes(
        states, lambda s: [t for t, _ in step(s)]
    )
    support, warnings = states, ()
    if partition.n_components > 1:
        warnings = (
            f"the adhering state space splits into {partition.n_components} "
            "communicating classes; the reported distribution is stationary "
            "but may not be the only one",
        )
        idxs = partition.classes[partition.component_of(initial)]
        support = tuple(states[i] for i in idxs)
        log_w = [log_w[i] for i in idxs]
    z = _logsumexp(log_w)
    dist = {s: math.exp(w - z) for s, w in zip(support, log_w)}
    return TandemAnalysis(initial, support, dist, partition, warnings)


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
    graph: SwappingGraph | None = None,
) -> tuple[dict, dict]:
    """One replication of the exponential race: time-weighted occupancy
    fractions by key, and event counters, both in first-seen key order.
    ``trace`` hears of each event, a completion with its swap chain in
    ``graph``."""
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
                queue, pos = tag[1]
                content = state[queue - 1] if queue else state
                chain = reference_apply_completion(graph, content, pos).chain
                trace(now + dt, f"complete-q{queue}", chain, tag[2])
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
# every key up in every replication, one key at a time, and took the mean and
# standard error of one replication as of any other number of them.


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


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
                         trace if rep == 0 else None, model.swapping)
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
