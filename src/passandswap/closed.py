"""Closed pass-and-swap models.

A closed queue re-appends the departing customer at the tail; a closed
tandem routes it to the tail of the other queue.  Both preserve *adherence*
to a placement order (an acyclic orientation of the swapping graph together
with its reachability relation), which partitions the reachable states.
This module enumerates adhering state spaces, computes the product-form
stationary distributions over them, analyzes communicating classes, and
handles initial states that adhere to no order through a duplicate-class
splitting construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .dynamics import (
    CompletionOutcome,
    Transition,
    apply_completion,
    completions,
)
from .errors import ResourceError, StructureError, UsageError
from .model import (
    Macrostate,
    RateFunction,
    State,
    SwappingGraph,
    macrostate,
)
from .product_form import (
    DEFAULT_STATE_BUDGET,
    _logsumexp,
    memoized_log_balance,
)

TandemState = tuple[State, State]


@dataclass(frozen=True)
class PlacementOrder:
    """Strict partial order generated by a directed acyclic class graph.

    ``i`` precedes ``j`` when a directed path runs from ``i`` to ``j``.
    Orders compare equal exactly when their reachability relations agree,
    regardless of the arc set that generated them.
    """

    n_classes: int
    arcs: frozenset[tuple[int, int]] = field(compare=False)
    _reach: frozenset[tuple[int, int]] = field(
        init=False, repr=False, compare=True
    )

    def __post_init__(self) -> None:
        succ: list[list[int]] = [[] for _ in range(self.n_classes)]
        indeg = [0] * self.n_classes
        for a, b in self.arcs:
            if a == b:
                raise StructureError(f"arc ({a}, {b}) is a loop")
            if not (0 <= a < self.n_classes and 0 <= b < self.n_classes):
                raise UsageError(f"arc ({a}, {b}) outside class range")
            succ[a].append(b)
            indeg[b] += 1
        # Kahn's algorithm both detects cycles and fixes a topological order.
        queue = [i for i in range(self.n_classes) if indeg[i] == 0]
        topo: list[int] = []
        indeg = indeg[:]
        while queue:
            queue.sort()
            node = queue.pop(0)
            topo.append(node)
            for nxt in succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if len(topo) != self.n_classes:
            raise StructureError("orientation contains a directed cycle")
        reach: list[set[int]] = [set() for _ in range(self.n_classes)]
        for node in reversed(topo):
            for nxt in succ[node]:
                reach[node].add(nxt)
                reach[node] |= reach[nxt]
        pairs = frozenset(
            (i, j) for i in range(self.n_classes) for j in reach[i]
        )
        object.__setattr__(self, "_reach", pairs)
        object.__setattr__(self, "_topo", tuple(topo))

    @classmethod
    def orient(
        cls, graph: SwappingGraph, arcs: Iterable[tuple[int, int]]
    ) -> "PlacementOrder":
        """Build the order from an orientation of ``graph``.

        Every edge must receive exactly one direction; the graph must be
        loop-free.
        """
        if graph.has_loops:
            raise StructureError(
                "placement orders need a loop-free swapping graph"
            )
        arc_set = frozenset(arcs)
        oriented = {tuple(sorted(a)) for a in arc_set}
        if oriented != set(graph.edges) or len(arc_set) != len(graph.edges):
            raise StructureError(
                "orientation must direct each swapping edge exactly once"
            )
        return cls(graph.n_classes, arc_set)

    def precedes(self, i: int, j: int) -> bool:
        return (i, j) in self._reach

    def comparable(self, i: int, j: int) -> bool:
        return (i, j) in self._reach or (j, i) in self._reach

    @property
    def reach(self) -> frozenset[tuple[int, int]]:
        return self._reach

    def topological(self) -> tuple[int, ...]:
        """A deterministic topological listing of all classes."""
        return self._topo  # type: ignore[attr-defined]

    def minimal_classes(self) -> tuple[int, ...]:
        preceded = {j for _, j in self._reach}
        return tuple(i for i in range(self.n_classes) if i not in preceded)

    def maximal_classes(self) -> tuple[int, ...]:
        preceding = {i for i, _ in self._reach}
        return tuple(i for i in range(self.n_classes) if i not in preceding)

    def reversed_order(self) -> "PlacementOrder":
        return PlacementOrder(
            self.n_classes, frozenset((b, a) for a, b in self.arcs)
        )

    def swapping_graph(self) -> SwappingGraph:
        return SwappingGraph.from_pairs(self.n_classes, self.arcs)


def enumerate_placement_orders(
    graph: SwappingGraph,
) -> tuple[PlacementOrder, ...]:
    """All acyclic orientations of ``graph``, deduplicated by the partial
    order they generate."""
    if graph.has_loops:
        raise StructureError("placement orders need a loop-free swapping graph")
    edges = sorted(graph.edges)
    if len(edges) > 20:
        raise ResourceError(
            f"enumerating orientations of {len(edges)} edges is out of budget"
        )
    orders: list[PlacementOrder] = []
    seen: set[frozenset[tuple[int, int]]] = set()
    for bits in range(2 ** len(edges)):
        arcs = []
        for k, (a, b) in enumerate(edges):
            arcs.append((a, b) if bits >> k & 1 else (b, a))
        try:
            order = PlacementOrder(graph.n_classes, frozenset(arcs))
        except StructureError:
            continue
        if order.reach not in seen:
            seen.add(order.reach)
            orders.append(order)
    return tuple(orders)


def adheres(state: Sequence[int], order: PlacementOrder) -> bool:
    """True when no customer's class precedes the class of an earlier one."""
    seen: set[int] = set()
    for cls in state:
        if any(order.precedes(cls, before) for before in seen):
            return False
        seen.add(cls)
    return True


def adheres_tandem(s: TandemState, order: PlacementOrder) -> bool:
    """Tandem adherence: the first queue followed by the reversed second
    queue must adhere as a single state."""
    c, d = s
    return adheres(c + tuple(reversed(d)), order)


def order_from_state(
    graph: SwappingGraph, state: Sequence[int]
) -> PlacementOrder | None:
    """The unique placement order ``state`` adheres to, or ``None``.

    Every class incident to a swapping edge must occur in ``state``; then
    each edge is orientable exactly when the two classes do not interleave.
    """
    if graph.has_loops:
        raise StructureError("placement orders need a loop-free swapping graph")
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for pos, cls in enumerate(state):
        first.setdefault(cls, pos)
        last[cls] = pos
    arcs = []
    for a, b in graph.edges:
        if a not in first or b not in first:
            raise UsageError(
                f"state must contain every class on a swapping edge; "
                f"missing one of ({a}, {b})"
            )
        if last[a] < first[b]:
            arcs.append((a, b))
        elif last[b] < first[a]:
            arcs.append((b, a))
        else:
            return None
    order = PlacementOrder.orient(graph, arcs)
    if not adheres(tuple(state), order):
        raise StructureError(
            "edge orientation succeeded but the state does not adhere; "
            "the swapping graph is inconsistent"
        )
    return order


@dataclass(frozen=True)
class ClosedQueue:
    """Closed pass-and-swap queue: the departing customer of every
    completion rejoins at the tail, so the macrostate never changes."""

    rate_fn: RateFunction
    swapping: SwappingGraph
    population: Macrostate
    order: PlacementOrder | None = None

    def __post_init__(self) -> None:
        n = len(self.population)
        if self.rate_fn.n_classes != n or self.swapping.n_classes != n:
            raise UsageError("class counts disagree across the closed queue")
        if any(k <= 0 for k in self.population):
            raise UsageError("every class must have at least one customer")
        if self.swapping.has_loops:
            raise StructureError("closed models need a loop-free swapping graph")
        if self.order is not None and self.order.n_classes != n:
            raise UsageError("placement order has the wrong class count")

    @property
    def n_classes(self) -> int:
        return len(self.population)

    def initial_state(self) -> State:
        """Canonical adhering state: classes in topological order."""
        if self.order is None:
            raise UsageError("no placement order attached")
        return tuple(
            cls
            for cls in self.order.topological()
            for _ in range(self.population[cls])
        )


def closed_step(graph: SwappingGraph, state: State, position: int) -> State:
    """One completion in the closed queue: apply the mechanism, then append
    the departing customer at the tail."""
    oc = apply_completion(graph, state, position)
    return oc.next_state + (oc.departing_class,)


def closed_transitions(cq: ClosedQueue, state: State) -> list[Transition]:
    return [
        Transition(
            "completion", pos, inc, oc.next_state + (oc.departing_class,), oc
        )
        for pos, inc, oc in completions(cq.rate_fn, cq.swapping, state)
    ]


@dataclass(frozen=True)
class TandemNetwork:
    """Closed tandem of two pass-and-swap queues sharing the class set and
    swapping graph; each queue's departures feed the other's tail."""

    rate_fn_1: RateFunction
    rate_fn_2: RateFunction
    swapping: SwappingGraph
    population: Macrostate
    order: PlacementOrder

    def __post_init__(self) -> None:
        n = len(self.population)
        for part in (self.rate_fn_1, self.rate_fn_2, self.swapping, self.order):
            if part.n_classes != n:
                raise UsageError("class counts disagree across the network")
        if any(k <= 0 for k in self.population):
            raise UsageError("every class must have at least one token")
        if self.swapping.has_loops:
            raise StructureError("closed models need a loop-free swapping graph")

    @property
    def n_classes(self) -> int:
        return len(self.population)

    def initial_state(self) -> TandemState:
        """Canonical adhering state with every token in the second queue,
        maximal classes first (reverse topological order)."""
        d = tuple(
            cls
            for cls in reversed(self.order.topological())
            for _ in range(self.population[cls])
        )
        return (), d


def tandem_step(
    graph: SwappingGraph, s: TandemState, queue_index: int, position: int
) -> TandemState:
    """One completion in the chosen queue; the departing customer joins the
    tail of the other queue."""
    c, d = s
    if queue_index == 1:
        oc = apply_completion(graph, c, position)
        return oc.next_state, d + (oc.departing_class,)
    if queue_index == 2:
        oc = apply_completion(graph, d, position)
        return c + (oc.departing_class,), oc.next_state
    raise UsageError(f"queue_index must be 1 or 2, got {queue_index}")


@dataclass(frozen=True)
class TandemTransition:
    queue: int
    position: int
    rate: float
    next_state: TandemState
    outcome: CompletionOutcome


def tandem_transitions(
    net: TandemNetwork, s: TandemState
) -> list[TandemTransition]:
    c, d = s
    return [
        TandemTransition(
            1, pos, inc, (oc.next_state, d + (oc.departing_class,)), oc
        )
        for pos, inc, oc in completions(net.rate_fn_1, net.swapping, c)
    ] + [
        TandemTransition(
            2, pos, inc, (c + (oc.departing_class,), oc.next_state), oc
        )
        for pos, inc, oc in completions(net.rate_fn_2, net.swapping, d)
    ]


def queue_moves(
    rate_fn: RateFunction,
    graph: SwappingGraph,
    make: Callable[[State, int, float, CompletionOutcome], Any],
) -> Callable[[State], tuple]:
    """Memoized moves of one queue, keyed by its content.

    ``moves(content)`` is the tuple of ``make(content, position, rate,
    outcome)`` for each completion of :func:`completions`, in that order,
    computed on the content's first visit and shared by every later one.  A tandem state is a pair of contents, so the
    moves of both queues come from two such memos, whose size is the number
    of distinct contents seen rather than of tandem states.
    """

    @functools.cache
    def moves(content: State) -> tuple:
        return tuple(
            make(content, pos, inc, oc)
            for pos, inc, oc in completions(rate_fn, graph, content)
        )

    return moves


def enumerate_adhering(
    order: PlacementOrder,
    population: Macrostate,
    budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[State, ...]:
    """All states with macrostate ``population`` that adhere to ``order``."""
    if len(population) != order.n_classes:
        raise UsageError("population length must match the class count")
    n_classes = order.n_classes
    remaining = list(population)
    out: list[State] = []
    stack: list[int] = []
    placed: set[int] = set()

    def rec() -> None:
        if len(out) > budget:
            raise ResourceError(
                f"adhering state enumeration exceeded budget {budget}"
            )
        if all(k == 0 for k in remaining):
            out.append(tuple(stack))
            return
        for cls in range(n_classes):
            if remaining[cls] == 0:
                continue
            if any(order.precedes(cls, before) for before in placed):
                continue
            remaining[cls] -= 1
            stack.append(cls)
            added = cls not in placed
            if added:
                placed.add(cls)
            rec()
            if added:
                placed.remove(cls)
            stack.pop()
            remaining[cls] += 1

    rec()
    return tuple(out)


def enumerate_sigma(
    net: TandemNetwork, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[TandemState, ...]:
    """All adhering tandem states with total macrostate ``net.population``.

    Each adhering single-queue arrangement of the full population splits at
    every cut point into a first-queue prefix and a reversed second-queue
    suffix; the correspondence is one-to-one.
    """
    full = enumerate_adhering(net.order, net.population, budget)
    total = sum(net.population)
    if len(full) * (total + 1) > budget:
        raise ResourceError(
            f"tandem state enumeration exceeded budget {budget}"
        )
    out: list[TandemState] = []
    for seq in full:
        for cut in range(total + 1):
            out.append((seq[:cut], tuple(reversed(seq[cut:]))))
    return tuple(out)


def first_queue_macrostates(
    order: PlacementOrder,
    population: Macrostate,
    budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[Macrostate, ...]:
    """First-queue macrostates of the adhering tandem states, listed by
    total.

    ``x`` occurs exactly when no class left in the second queue
    (``population - x > 0``) precedes a class in the first (``x > 0``).
    Dropping one customer of a class maximal in the first queue keeps that
    condition, so the set grows one customer at a time from the empty queue.
    """
    n = order.n_classes
    preceding = [0] * n
    for a, b in order.reach:
        preceding[b] |= 1 << a

    def occurs(x: Macrostate) -> bool:
        left = sum(1 << i for i in range(n) if x[i] < population[i])
        return not any(x[b] and preceding[b] & left for b in range(n))

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
        if len(out) > budget:
            raise ResourceError(
                f"first-queue macrostates exceeded budget {budget}"
            )
        layer = grown
    return tuple(out)


@dataclass(frozen=True)
class ClassPartition:
    """Strongly connected components of a finite transition digraph, with a
    closed flag per component (no transition leaves it)."""

    states: tuple[Hashable, ...]
    labels: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    closed: tuple[bool, ...]

    @property
    def n_components(self) -> int:
        return len(self.classes)

    @property
    def n_closed(self) -> int:
        return sum(self.closed)

    def transient_state_indices(self) -> tuple[int, ...]:
        return tuple(
            idx
            for idx, lab in enumerate(self.labels)
            if not self.closed[lab]
        )

    def component_of(self, state: Hashable) -> int:
        return self.labels[self.states.index(state)]


def communicating_classes(
    states: Sequence[Hashable],
    successors: Callable[[Any], Iterable[Any]],
) -> ClassPartition:
    """Partition ``states`` into communicating classes of the digraph whose
    positive-rate moves are given by ``successors``.

    Every successor must itself belong to ``states``.
    """
    index = {s: i for i, s in enumerate(states)}
    cols: list[int] = []
    out_degree: list[int] = []
    for s in states:
        targets = successors(s)
        try:
            moved = [index[t] for t in targets]
        except KeyError as exc:
            raise UsageError(
                f"transition target {exc.args[0]!r} outside the enumerated "
                "space"
            ) from None
        out_degree.append(len(moved))
        cols += moved
    n = len(states)
    rows_a = np.repeat(np.arange(n, dtype=np.intp), out_degree)
    cols_a = np.asarray(cols, dtype=np.intp)
    moves = rows_a != cols_a
    rows_a, cols_a = rows_a[moves], cols_a[moves]
    graph = sp.coo_matrix(
        (np.ones(len(rows_a)), (rows_a, cols_a)), shape=(n, n)
    ).tocsr()
    n_comp, raw = connected_components(
        graph, directed=True, connection="strong"
    )
    # relabel components by first appearance for determinism
    _, first = np.unique(raw, return_index=True)
    relabel = np.empty(n_comp, dtype=np.intp)
    relabel[raw[np.sort(first)]] = np.arange(n_comp)
    labels = relabel[raw]
    by_label = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels, minlength=n_comp)).tolist()
    closed = np.ones(n_comp, dtype=bool)
    leaving, entering = labels[rows_a], labels[cols_a]
    closed[leaving[leaving != entering]] = False
    return ClassPartition(
        tuple(states),
        tuple(labels.tolist()),
        tuple(
            tuple(by_label[a:b]) for a, b in zip([0] + ends[:-1], ends)
        ),
        tuple(closed.tolist()),
    )


_REDUCIBLE_WARNING = (
    "the adhering state space splits into {k} communicating classes; the "
    "reported distribution is stationary but may not be the only one"
)


def _solve(
    states: Sequence[Hashable],
    log_weight: Callable[[Any], float],
    successors: Callable[[Any], Iterable[Any]],
    start: Hashable,
) -> tuple[
    tuple[Hashable, ...], dict[Hashable, float], ClassPartition, tuple[str, ...]
]:
    """Weigh ``states`` in log space, partition them into communicating
    classes, and normalize the weights.

    Irreducibility is verified, never assumed: when the space splits into
    several communicating classes, the distribution is restricted to the
    class of ``start`` and a warning marks that it need not be unique.
    Returns the support, the distribution, the partition and the warnings.
    """
    log_w = [log_weight(s) for s in states]
    partition = communicating_classes(states, successors)
    support = tuple(states)
    warnings: tuple[str, ...] = ()
    if partition.n_components > 1:
        warnings = (_REDUCIBLE_WARNING.format(k=partition.n_components),)
        idxs = partition.classes[partition.component_of(start)]
        support = tuple(states[i] for i in idxs)
        log_w = [log_w[i] for i in idxs]
    z = _logsumexp(log_w)
    dist = {s: math.exp(w - z) for s, w in zip(support, log_w)}
    return support, dist, partition, warnings


class ProjectedRateFunction(RateFunction):
    """Rate function on split classes that defers to the original one.

    Each split class inherits the behavior of the class it came from, so the
    per-position rate increments are unchanged by the split.
    """

    def __init__(self, base: RateFunction, projection: Sequence[int]):
        self.base = base
        self.projection = tuple(projection)
        self.n_classes = len(self.projection)

    def rate(self, counts: Macrostate) -> float:
        merged = [0] * self.base.n_classes
        for iso_cls, k in enumerate(counts):
            merged[self.projection[iso_cls]] += k
        return self.base.rate(tuple(merged))

    def saturation_rate(self, classes: Iterable[int]) -> float:
        return self.base.saturation_rate(
            {self.projection[i] for i in classes}
        )


@dataclass(frozen=True)
class IsomorphicModel:
    """Duplicate-class splitting of a closed queue around an initial state.

    Every customer of the split queue has its own class; the split state
    then adheres to exactly one placement order, which restores the direct
    analysis path.  Projecting the split distribution class-by-class
    recovers the distribution of the original queue.
    """

    original: ClosedQueue
    initial: State
    iso_queue: ClosedQueue
    iso_initial: State
    split_map: tuple[tuple[int, ...], ...]
    class_projection: tuple[int, ...]
    class_names: tuple[str, ...]

    def project_state(self, iso_state: State) -> State:
        proj = self.class_projection
        return tuple(proj[cls] for cls in iso_state)


def isomorphic_model(cq: ClosedQueue, initial: State) -> IsomorphicModel:
    """Split duplicated classes of ``cq`` until every customer in
    ``initial`` has a distinct class."""
    n = cq.n_classes
    if macrostate(initial, n) != cq.population:
        raise UsageError("initial state does not match the fixed macrostate")
    split_map: list[tuple[int, ...]] = []
    projection: list[int] = list(range(n))
    names: list[str] = [str(i + 1) for i in range(n)]
    next_id = n
    for cls in range(n):
        ids = [cls]
        for extra in range(1, cq.population[cls]):
            ids.append(next_id)
            projection.append(cls)
            names.append(str(cls + 1) + "'" * extra)
            next_id += 1
        split_map.append(tuple(ids))
    n_iso = next_id

    iso_edges = []
    for a in range(n_iso):
        for b in range(a + 1, n_iso):
            if tuple(sorted((projection[a], projection[b]))) in cq.swapping.edges:
                iso_edges.append((a, b))
    iso_graph = SwappingGraph.from_pairs(n_iso, iso_edges)

    seen = [0] * n
    iso_initial = []
    for cls in initial:
        iso_initial.append(split_map[cls][seen[cls]])
        seen[cls] += 1
    iso_state = tuple(iso_initial)

    iso_order = order_from_state(iso_graph, iso_state)
    assert iso_order is not None  # all classes distinct, so always orientable
    iso_queue = ClosedQueue(
        ProjectedRateFunction(cq.rate_fn, projection),
        iso_graph,
        (1,) * n_iso,
        iso_order,
    )
    return IsomorphicModel(
        cq,
        initial,
        iso_queue,
        iso_state,
        tuple(split_map),
        tuple(projection),
        tuple(names),
    )


@dataclass(frozen=True)
class ClosedAnalysis:
    """Distribution of a closed queue started from a concrete state, with
    reachability diagnostics."""

    route: str  # "direct" or "isomorphic"
    initial: State
    states: tuple[State, ...]
    distribution: Mapping[State, float]
    order: PlacementOrder | None
    partition: ClassPartition
    iso: IsomorphicModel | None
    warnings: tuple[str, ...]


def analyze_closed(
    cq: ClosedQueue, initial: State, budget: int = DEFAULT_STATE_BUDGET
) -> ClosedAnalysis:
    """Stationary distribution of the closed queue started in ``initial``.

    When ``initial`` adheres to a placement order the direct path applies;
    otherwise the analysis routes through the isomorphic split
    automatically.  If the (possibly split) state space is reducible, the
    distribution is restricted to the communicating class of the initial
    state and a warning is attached.
    """
    if macrostate(initial, cq.n_classes) != cq.population:
        raise UsageError("initial state does not match the fixed macrostate")
    order = order_from_state(cq.swapping, initial)
    if order is not None:
        iso = None
        work, work_order, start = cq, order, initial
    else:
        iso = isomorphic_model(cq, initial)
        work, start = iso.iso_queue, iso.iso_initial
        work_order = work.order
    support, dist, partition, warnings = _solve(
        enumerate_adhering(work_order, work.population, budget),
        memoized_log_balance(work.rate_fn),
        lambda s: [t.next_state for t in closed_transitions(work, s)],
        start,
    )
    if iso is None:
        return ClosedAnalysis(
            "direct", initial, support, dist, order, partition, None, warnings
        )
    projected: dict[State, float] = {}
    for iso_state, p in dist.items():
        orig = iso.project_state(iso_state)
        projected[orig] = projected.get(orig, 0.0) + p
    return ClosedAnalysis(
        "isomorphic", initial, tuple(sorted(projected)), projected, None,
        partition, iso, warnings,
    )


@dataclass(frozen=True)
class TandemAnalysis:
    initial: TandemState
    states: tuple[TandemState, ...]
    distribution: Mapping[TandemState, float]
    partition: ClassPartition
    warnings: tuple[str, ...]


def _tandem_initial(
    net: TandemNetwork, initial: TandemState | None
) -> TandemState:
    """``initial``, or the network's default, checked against the
    population and the placement order."""
    if initial is None:
        initial = net.initial_state()
    c, d = initial
    total = macrostate(c + d, net.n_classes)
    if total != net.population:
        raise UsageError("initial state does not match the network macrostate")
    if not adheres_tandem(initial, net.order):
        raise StructureError(
            "initial tandem state does not adhere to the network's placement "
            "order; non-adhering tandem initial states are not supported"
        )
    return initial


def analyze_tandem(
    net: TandemNetwork,
    initial: TandemState | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> TandemAnalysis:
    """Stationary distribution of the tandem started in ``initial``
    (default: every token available in the second queue)."""
    initial = _tandem_initial(net, initial)
    log_b1 = memoized_log_balance(net.rate_fn_1)
    log_b2 = memoized_log_balance(net.rate_fn_2)
    support, dist, partition, warnings = _solve(
        enumerate_sigma(net, budget),
        lambda s: log_b1(s[0]) + log_b2(s[1]),
        lambda s: [t.next_state for t in tandem_transitions(net, s)],
        initial,
    )
    return TandemAnalysis(initial, support, dist, partition, warnings)


def first_queue_marginal(
    distribution: Mapping[TandemState, float], n_classes: int
) -> dict[Macrostate, float]:
    """Law of the first queue's macrostate under a tandem distribution."""
    out: dict[Macrostate, float] = {}
    for (c, _), p in distribution.items():
        x = macrostate(c, n_classes)
        out[x] = out.get(x, 0.0) + p
    return out


@dataclass(frozen=True)
class MacrostateAnalysis:
    """Stationary law of a tandem's first-queue macrostate.

    ``space`` counts the adhering tandem states and ``states`` those in the
    communicating class of the initial state; they agree exactly when the
    chain is irreducible.
    """

    space: int
    states: int
    distribution: Mapping[Macrostate, float]
    warnings: tuple[str, ...]


def _balance_function(
    rate_fn: RateFunction, later: Sequence[int], xs: Sequence[Macrostate]
) -> tuple[dict[Macrostate, float], dict[Macrostate, int]]:
    """Log balance function and content count of a queue, per macrostate.

    ``Phi(x)`` sums the balance weights of the adhering contents with
    macrostate ``x``.  Their last customer's class ``i`` precedes no class
    left in ``x - e_i`` (``later[i]`` masks the classes ``i`` precedes;
    none is ``i`` itself, so ``supp(x)`` stands for ``supp(x - e_i)``), so
    ``Phi(x) = sum_i Phi(x - e_i) / mu(x)`` over those ``i``.  The same
    recursion in integers counts the contents.  ``xs`` lists macrostates by
    total, from zero, and holds every ``x - e_i`` the recursion reads.
    """
    log_phi = {xs[0]: 0.0}
    count = {xs[0]: 1}
    for x in xs[1:]:
        held = sum(1 << i for i, k in enumerate(x) if k)
        terms, total = [], 0
        for i, k in enumerate(x):
            if k and not later[i] & held:
                prev = x[:i] + (k - 1,) + x[i + 1:]
                terms.append(log_phi[prev])
                total += count[prev]
        r = rate_fn.rate(x)
        if r <= 0.0:
            raise UsageError(f"overall rate is not positive on macrostate {x}")
        log_phi[x] = _logsumexp(terms) - math.log(r)
        count[x] = total
    return log_phi, count


def _reachable_tandem_states(net: TandemNetwork, initial: TandemState) -> int:
    """Number of tandem states reachable from ``initial``.

    Each queue content's moves are computed once, whatever the content of
    the other queue.
    """
    def make(content, pos, rate, oc):
        return oc.next_state, oc.departing_class

    moves1 = queue_moves(net.rate_fn_1, net.swapping, make)
    moves2 = queue_moves(net.rate_fn_2, net.swapping, make)
    seen = {initial}
    stack = [initial]
    while stack:
        c, d = stack.pop()
        for c2, cls in moves1(c):
            t = (c2, d + (cls,))
            if t not in seen:
                seen.add(t)
                stack.append(t)
        for d2, cls in moves2(d):
            t = (c + (cls,), d2)
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen)


def analyze_tandem_macrostates(
    net: TandemNetwork,
    initial: TandemState | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> MacrostateAnalysis:
    """Stationary law of the first-queue macrostate of the tandem started
    in ``initial``, without enumerating tandem states.

    The product form ``pi(c, d) ~ Phi_1(c) Phi_2(d)`` sums over the tandem
    states sharing a first-queue macrostate ``x`` to
    ``pi(x) ~ Phi_1(x) Phi_2(population - x)``.  That measure is positive
    and balanced on the whole adhering space, so no state is transient and
    the states reachable from ``initial`` form its communicating class;
    irreducibility holds exactly when they are all the adhering states.
    Otherwise the microstate analysis of :func:`analyze_tandem` restricts
    the law to that class, and its marginal is returned with its warning.
    """
    initial = _tandem_initial(net, initial)
    # There are never more macrostates than tandem states; a budget below
    # the default still gets the exact count in its message.
    xs = first_queue_macrostates(
        net.order, net.population, max(budget, DEFAULT_STATE_BUDGET)
    )
    # The second queue is read in reverse, so its rule is the first's under
    # the reversed order, over y = population - x.
    ys = [
        tuple(k - v for k, v in zip(net.population, x)) for x in reversed(xs)
    ]
    later = [0] * net.n_classes
    earlier = [0] * net.n_classes
    for a, b in net.order.reach:
        later[a] |= 1 << b
        earlier[b] |= 1 << a
    log_phi1, count1 = _balance_function(net.rate_fn_1, later, xs)
    log_phi2, count2 = _balance_function(net.rate_fn_2, earlier, ys)
    pairs = list(zip(xs, reversed(ys)))
    space = sum(count1[x] * count2[y] for x, y in pairs)
    if space > budget:
        raise ResourceError(
            f"the adhering space needs {space} tandem states, budget {budget}"
        )
    if _reachable_tandem_states(net, initial) == space:
        log_w = [log_phi1[x] + log_phi2[y] for x, y in pairs]
        z = _logsumexp(log_w)
        dist = {x: math.exp(w - z) for (x, _), w in zip(pairs, log_w)}
        return MacrostateAnalysis(space, space, dist, ())
    micro = analyze_tandem(net, initial, budget)
    return MacrostateAnalysis(
        space,
        len(micro.states),
        first_queue_marginal(micro.distribution, net.n_classes),
        micro.warnings,
    )
