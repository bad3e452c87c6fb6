"""Closed pass-and-swap models, and the transitions of every model kind.

A closed queue re-appends the departing customer at the tail; a closed
tandem routes it to the tail of the other queue.  Both preserve *adherence*
to a placement order (an acyclic orientation of the swapping graph together
with its reachability relation), which partitions the reachable states.
This module enumerates adhering state spaces, normalizes the product-form
weights of :mod:`passandswap.product_form` over them, and handles initial
states that adhere to no order through a duplicate-class splitting
construction.  A tandem's states are listed and weighed in one walk, and
its irreducibility is certified on a face of the tandem; only where that
certificate is inconclusive, and always for a closed queue, are the states
flooded into communicating classes.

The open, closed and tandem models have two transition views, both built
on :func:`~passandswap.dynamics.completions`.  :func:`queue_moves` gives
the simulators each queue's moves with the counters they add to;
:func:`successors` gives the oracle's generator build and the analyses'
class partitions each closed or tandem state's ``(next_state, rate)``
pairs (an open queue's generator is built in closed form by
``oracle.open_generator``, and a tandem's over content ids by
``oracle.tandem_generator``, which the build over :func:`successors`
checks).  The one walk outside both is the
irreducibility certificate's face walk, which needs only each
completion's next content and follows each chain itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from .dynamics import (
    Transition,
    apply_completion,
    completions,
)
from .errors import ResourceError, StructureError, UsageError
from .model import (
    Macrostate,
    PandsQueue,
    RateFunction,
    State,
    SwappingGraph,
    macrostate,
)
from .product_form import (
    DEFAULT_STATE_BUDGET,
    _logsumexp,
    balance_function,
    memoized_log_balance,
)

TandemState = tuple[State, State]


@dataclass(frozen=True)
class PlacementOrder:
    """Strict partial order generated by a directed acyclic class graph.

    ``i`` precedes ``j`` when a directed path runs from ``i`` to ``j``.  The
    relation is computed once, as two per-class bitmasks: bit ``j`` of
    ``later[i]`` and bit ``i`` of ``earlier[j]`` are set exactly when ``i``
    precedes ``j``.  Orders compare equal exactly when their relations
    agree, regardless of the arc set that generated them.
    """

    n_classes: int
    arcs: frozenset[tuple[int, int]] = field(compare=False)
    later: tuple[int, ...] = field(init=False, repr=False)
    earlier: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n_classes
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in self.arcs:
            if a == b:
                raise StructureError(f"arc ({a}, {b}) is a loop")
            if not (0 <= a < n and 0 <= b < n):
                raise UsageError(f"arc ({a}, {b}) outside class range")
            succ[a].append(b)
            indeg[b] += 1
        # Kahn's algorithm detects cycles and fixes a topological order; a
        # class leaves the queue after every class that precedes it.
        queue = [i for i in range(n) if indeg[i] == 0]
        topo: list[int] = []
        earlier = [0] * n
        while queue:
            queue.sort()
            node = queue.pop(0)
            topo.append(node)
            for nxt in succ[node]:
                earlier[nxt] |= 1 << node | earlier[node]
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if len(topo) != n:
            raise StructureError("orientation contains a directed cycle")
        later = [sum(1 << j for j in range(n) if earlier[j] >> i & 1)
                 for i in range(n)]
        object.__setattr__(self, "later", tuple(later))
        object.__setattr__(self, "earlier", tuple(earlier))
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
        return bool(self.later[i] >> j & 1)

    def comparable(self, i: int, j: int) -> bool:
        return bool((self.later[i] | self.earlier[i]) >> j & 1)

    @property
    def reach(self) -> frozenset[tuple[int, int]]:
        """The relation as the set of its ``(i, j)`` pairs."""
        n = self.n_classes
        return frozenset(
            (i, j) for i in range(n) for j in range(n) if self.precedes(i, j)
        )

    def topological(self) -> tuple[int, ...]:
        """A deterministic topological listing of all classes."""
        return self._topo  # type: ignore[attr-defined]

    def minimal_classes(self) -> tuple[int, ...]:
        return tuple(i for i, mask in enumerate(self.earlier) if not mask)

    def maximal_classes(self) -> tuple[int, ...]:
        return tuple(i for i, mask in enumerate(self.later) if not mask)

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
    orders: dict[tuple[int, ...], PlacementOrder] = {}
    for bits in range(2 ** len(edges)):
        arcs = []
        for k, (a, b) in enumerate(edges):
            arcs.append((a, b) if bits >> k & 1 else (b, a))
        try:
            order = PlacementOrder(graph.n_classes, frozenset(arcs))
        except StructureError:
            continue
        orders.setdefault(order.later, order)
    return tuple(orders.values())


def adheres(state: Sequence[int], order: PlacementOrder) -> bool:
    """True when no customer's class precedes the class of an earlier one."""
    placed = 0
    for cls in state:
        if order.later[cls] & placed:
            return False
        placed |= 1 << cls
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


def _handoff(
    state: TandemState, queue: int, content: State, cls: int
) -> TandemState:
    """``state`` after queue ``queue`` (1 or 2) takes ``content`` and hands
    a ``cls`` customer to the other queue's tail."""
    if queue == 1:
        return content, state[1] + (cls,)
    return state[0] + (cls,), content


def tandem_step(
    graph: SwappingGraph, s: TandemState, queue_index: int, position: int
) -> TandemState:
    """One completion in the chosen queue; the departing customer joins the
    tail of the other queue."""
    if queue_index not in (1, 2):
        raise UsageError(f"queue_index must be 1 or 2, got {queue_index}")
    oc = apply_completion(graph, s[queue_index - 1], position)
    return _handoff(s, queue_index, oc.next_state, oc.departing_class)


def tandem_transitions(net: TandemNetwork, s: TandemState) -> list[Transition]:
    """Outgoing transitions of the tandem in ``s``, first queue first, each
    with its completion's chain: an eager reference view that the tests
    compare :func:`queue_moves` and :func:`successors` against."""
    return [
        Transition("completion", pos, inc, _handoff(s, queue, after, cls),
                   apply_completion(net.swapping, s[queue - 1], pos), queue)
        for queue, rate_fn in ((1, net.rate_fn_1), (2, net.rate_fn_2))
        for pos, inc, after, cls in completions(rate_fn, net.swapping,
                                                s[queue - 1])
    ]


# A move is (rate, next, handed, counts, tag).  ``next`` is the next state,
# or for a queue of a tandem its next content; ``handed`` is the class that
# joins the other tandem queue's tail, and None everywhere else; ``counts``
# names the counters the move adds one to; ``tag`` is ("arrive", class,
# None), ("reject", class, None) or ("complete", (queue, position),
# departing class), with queue 0 for single-queue models.  A completion's
# swap chain is left out: ``dynamics.apply_completion`` on the content and
# position rebuilds it.
Move = tuple[float, Any, int | None, tuple[str, ...], tuple]


def queue_moves(
    model: PandsQueue | ClosedQueue | TandemNetwork,
    capacity: int | None = None,
) -> tuple[Callable[[State], tuple[Move, ...]], ...]:
    """The moves of each queue of ``model`` as a function of that queue's
    content, unmemoized, for the simulators: one function for an open or a
    closed queue, whose state is its content, and two for a tandem, whose
    completions give the queue's next content and hand the departing class
    to the other queue.  An open queue has one arrival per class, where an
    arrival at ``capacity`` (if set) is a rejection that keeps the state,
    then its completions, head first; a closed queue's departing customer
    rejoins at its tail."""
    if not isinstance(model, (PandsQueue, ClosedQueue, TandemNetwork)):
        raise UsageError(f"no moves for {type(model).__name__}")
    n = model.n_classes
    counted = {  # the counters of a completion, by (departing, served) class
        (dep, cls): ("completions", f"departures:{dep}", f"services:{cls}")
        for dep in range(n) for cls in range(n)
    }

    def served(rate_fn: RateFunction, queue: int, rejoin: bool = False):
        """The completion moves of :func:`completions`, in order, as a
        function of the content; with ``rejoin`` the departing customer
        rejoins the tail, as in a closed queue."""
        return lambda content: tuple([
            (inc, after + (cls,) if rejoin else after, cls if queue else None,
             counted[cls, content[pos]], ("complete", (queue, pos), cls))
            for pos, inc, after, cls in completions(rate_fn, model.swapping,
                                                    content)
        ])

    if isinstance(model, TandemNetwork):
        return served(model.rate_fn_1, 1), served(model.rate_fn_2, 2)
    if isinstance(model, ClosedQueue):
        return (served(model.rate_fn, 0, rejoin=True),)
    if capacity is not None and capacity < 0:
        raise UsageError("capacity must be non-negative")
    completed = served(model.rate_fn, 0)
    rates = tuple(enumerate(model.arrival_rates))
    arrived = [(f"arrivals:{i}",) for i, _ in rates]
    rejected = [(f"arrivals:{i}", f"rejections:{i}") for i, _ in rates]

    def open_moves(state: State) -> tuple[Move, ...]:
        full = capacity is not None and len(state) >= capacity
        return tuple(
            (lam, state, None, rejected[i], ("reject", i, None)) if full
            else (lam, state + (i,), None, arrived[i], ("arrive", i, None))
            for i, lam in rates
        ) + completed(state)

    return (open_moves,)


def successors(
    model: ClosedQueue | TandemNetwork,
) -> Callable[[Any], list[tuple[Any, float]]]:
    """``state -> [(next_state, rate), ...]`` of a closed queue or tandem,
    in the order of :func:`queue_moves`, for the generator build and the
    class partitions: for a closed queue, its completions, the departing
    customer rejoining at the tail; for a tandem, its first queue's
    completions, then its second's, the departing customer joining the
    other queue's tail.  An open queue's truncated generator is built by
    ``oracle.open_generator``, which knows every state's index in closed
    form, and ``oracle-compare`` builds a tandem's with
    ``oracle.tandem_generator``, over content ids, to the bits of the
    build over these successors.

    A tandem's completions are memoized per content of each queue, which
    every traversal meets again under many contents of the other.  A
    closed queue's state *is* its content, so a caller that revisits
    states keeps its own memo.
    """
    if not isinstance(model, (ClosedQueue, TandemNetwork)):
        raise UsageError(f"no moves for {type(model).__name__}")
    graph = model.swapping
    if isinstance(model, TandemNetwork):
        first, second = (
            functools.cache(functools.partial(completions, rate_fn, graph))
            for rate_fn in (model.rate_fn_1, model.rate_fn_2)
        )
        return lambda s: [
            ((c, s[1] + (cls,)), inc) for _, inc, c, cls in first(s[0])
        ] + [
            ((s[0] + (cls,), d), inc) for _, inc, d, cls in second(s[1])
        ]
    rate_fn = model.rate_fn
    return lambda state: [
        (after + (cls,), inc)
        for _, inc, after, cls in completions(rate_fn, graph, state)
    ]


def enumerate_adhering(
    order: PlacementOrder,
    population: Macrostate,
    budget: float = DEFAULT_STATE_BUDGET,
) -> tuple[State, ...]:
    """All states with macrostate ``population`` that adhere to ``order``."""
    if len(population) != order.n_classes:
        raise UsageError("population length must match the class count")
    later = order.later
    total = sum(population)
    out: list[State] = []
    # Depth first, lower classes first, on an explicit stack of (prefix,
    # mask of its classes, customers left per class) frames, so a long
    # queue needs no recursion.
    frames = [((), 0, tuple(population))]
    while frames:
        prefix, placed, left = frames.pop()
        if len(prefix) == total:
            out.append(prefix)
            if len(out) > budget:
                raise ResourceError(
                    f"adhering state enumeration reached {len(out)} states, "
                    f"budget {budget}"
                )
            continue
        frames += [
            (prefix + (cls,), placed | 1 << cls,
             left[:cls] + (left[cls] - 1,) + left[cls + 1:])
            for cls in reversed(range(len(left)))
            if left[cls] and not later[cls] & placed
        ]
    return tuple(out)


def enumerate_sigma(net: TandemNetwork) -> tuple[TandemState, ...]:
    """All adhering tandem states with total macrostate ``net.population``,
    unbounded: :func:`analyze_tandem` sizes the space before it lists them.

    Each adhering single-queue arrangement of the full population splits at
    every cut point into a first-queue prefix and a reversed second-queue
    suffix; the correspondence is one-to-one (see :func:`_walk_sigma`).
    """
    xs = first_queue_macrostates(net.order, net.population, math.inf)
    return _walk_sigma(net, xs, weigh=False)[0]


def _walk_sigma(
    net: TandemNetwork, xs: Sequence[Macrostate], weigh: bool = True
) -> tuple[tuple[TandemState, ...], list[float]]:
    """The adhering tandem states, each arrangement of
    :func:`enumerate_adhering` cut at every point, and with ``weigh`` the
    log weight ``log Phi_1(c) + log Phi_2(d)`` of each.

    A prefix extends to an arrangement exactly when its macrostate occurs
    in ``xs`` (:func:`first_queue_macrostates`), so the depth-first search
    takes each class whose next macrostate occurs and meets no dead end.
    It carries ``log Phi_1`` down the prefix and, at each arrangement,
    builds ``log Phi_2`` along the reversed suffix: the subtractions of
    :func:`~passandswap.product_form.memoized_log_balance`, in its order,
    of one log rate read per macrostate, so the floats are the same.
    """
    full = net.population
    total = sum(full)
    index = {x: j for j, x in enumerate(xs)}
    rate1 = rate2 = [0.0] * len(xs)
    if weigh:  # xs[0] is empty and xs[-1] is full; neither rate is read
        rate1 = [0.0] + [math.log(net.rate_fn_1.rate(x)) for x in xs[1:]]
        rate2 = [math.log(net.rate_fn_2.rate(tuple(map(operator.sub, full, x))))
                 for x in xs[:-1]] + [0.0]
    # The frames that push each macrostate's children, highest class
    # first, so that the lowest is popped first.
    children = [
        [(cls, index[y]) for cls in reversed(range(len(full)))
         if x[cls] < full[cls]
         and (y := x[:cls] + (x[cls] + 1,) + x[cls + 1:]) in index]
        for x in xs
    ]
    size = [sum(x) for x in xs]
    seq = [0] * total
    # at each cut of the path: log Phi_1 of the first queue's content, and
    # the log overall rate of the second queue's
    phi1 = [0.0] * (total + 1)
    mu2 = [0.0] * (total + 1)
    states: list[TandemState] = []
    log_w: list[float] = []
    frames = [(-1, 0)]
    while frames:
        cls, j = frames.pop()
        k = size[j]
        mu2[k] = rate2[j]
        if k:
            seq[k - 1] = cls
            phi1[k] = phi1[k - 1] - rate1[j]
        if k < total:
            frames += children[j]
            continue
        c = tuple(seq)
        d = c[::-1]
        states += [(c[:cut], d[:total - cut]) for cut in range(total + 1)]
        phi2 = itertools.accumulate(mu2[total - 1::-1], operator.sub,
                                    initial=0.0)
        log_w += map(operator.add, phi1, reversed(list(phi2)))
    return tuple(states), log_w


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
    Given an occurring ``x``, ``x + e_i`` occurs exactly when no class
    left after it precedes ``i``, so each macrostate carries its mask of
    classes left.
    """
    n = order.n_classes
    earlier = order.earlier
    layer = [((0,) * n, sum(1 << i for i in range(n) if population[i]))]
    out = [layer[0][0]]
    seen = set(out)
    while layer:
        grown = []
        for x, left in layer:
            for i in range(n):
                k = x[i] + 1
                if k > population[i]:
                    continue
                rest = left & ~(1 << i) if k == population[i] else left
                if not earlier[i] & rest:
                    y = x[:i] + (k,) + x[i + 1:]
                    if y not in seen:
                        seen.add(y)
                        grown.append((y, rest))
        out += [y for y, _ in grown]
        if len(out) > budget:
            raise ResourceError(
                f"first-queue macrostate enumeration reached {len(out)} "
                f"macrostates, budget {budget}"
            )
        layer = grown
    return tuple(out)


@dataclass(frozen=True)
class ClassPartition:
    """Communicating classes of a finite transition digraph, numbered by
    their first state.  Every class is closed (see
    :func:`communicating_classes`)."""

    states: tuple[Hashable, ...]
    labels: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def n_components(self) -> int:
        return len(self.classes)

    def component_of(self, state: Hashable) -> int:
        return self.labels[self.states.index(state)]


def _flood(start: Hashable, successors: Callable[[Any], Iterable]) -> set:
    """The states reachable from ``start``, ``start`` included."""
    seen = {start}
    stack = [start]
    while stack:
        for t in successors(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def communicating_classes(
    states: Sequence[Hashable],
    successors: Callable[[Any], Iterable[Any]],
) -> ClassPartition:
    """Partition ``states`` into communicating classes of the digraph whose
    positive-rate moves are given by ``successors``.

    Every successor must itself belong to ``states``, and every class must
    be closed.  Then the states that a state reaches are exactly its class,
    so one flood per class, started from its first state, finds the
    partition.  Adhering spaces meet this: :func:`_solve` weighs every
    state before it partitions, and the product-form measure is then
    positive and invariant.  Under such a measure no class can be left.
    The states that reach a class receive no move from outside, since its
    source would reach the class too; summing the balance equations over
    them, no move may leave them either.  A move out of the class would
    leave them, since its target cannot reach the class back.
    """
    index = {s: i for i, s in enumerate(states)}

    def step(i: int) -> list[int]:
        try:
            return [index[t] for t in successors(states[i])]
        except KeyError as exc:
            raise UsageError(
                f"transition target {exc.args[0]!r} outside the enumerated "
                "space"
            ) from None

    labels = [-1] * len(states)
    classes: list[tuple[int, ...]] = []
    for i in range(len(states)):
        if labels[i] < 0:
            members = sorted(_flood(i, step))
            for j in members:
                labels[j] = len(classes)
            classes.append(tuple(members))
    return ClassPartition(tuple(states), tuple(labels), tuple(classes))


_REDUCIBLE_WARNING = (
    "the adhering state space splits into {k} communicating classes; the "
    "reported distribution is stationary but may not be the only one"
)


def _solve(
    states: tuple[Hashable, ...],
    log_w: list[float],
    step: Callable[[Any], Iterable[tuple[Any, float]]] | None,
    start: Hashable,
) -> tuple[
    tuple[Hashable, ...], dict[Hashable, float], ClassPartition, tuple[str, ...]
]:
    """Partition ``states`` into communicating classes of the moves of
    ``step`` (as :func:`successors` gives them), or into one class if
    ``step`` is None, and normalize their log weights ``log_w``.

    Irreducibility is verified, never assumed: when the space splits into
    several communicating classes, the distribution is restricted to the
    class of ``start`` and a warning marks that it need not be unique.
    Returns the support, the distribution, the partition and the warnings.
    """
    if step is None:
        partition = ClassPartition(states, (0,) * len(states),
                                   (tuple(range(len(states))),))
    else:
        partition = communicating_classes(
            states, lambda s: [t for t, _ in step(s)]
        )
    support = states
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
    states = enumerate_adhering(work_order, work.population, budget)
    # Weighing raises unless every overall rate is positive, which is what
    # makes every class closed, as the partition requires.
    log_weight = memoized_log_balance(work.rate_fn)
    support, dist, partition, warnings = _solve(
        states, [log_weight(s) for s in states], successors(work), start
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


def _tandem_space(net: TandemNetwork, budget: int):
    """The number of adhering tandem states of ``net``, refused over
    ``budget`` before any state is listed; the first-queue macrostates
    ``x``, by total; the log weight of each, ``log Phi_1(x) + log
    Phi_2(population - x)``; and the face sizes, the states with every
    token in the first queue and in the second.  The recursion of each
    ``Phi`` counts its queue's adhering contents in integers."""
    # There are never more macrostates than tandem states; a budget below
    # the default still gets the exact count in its message.
    xs = first_queue_macrostates(
        net.order, net.population, max(budget, DEFAULT_STATE_BUDGET)
    )
    # The second queue is read in reverse, so its rule is the first's under
    # the reversed order, over y = population - x.
    full = net.population
    ys = [tuple(k - v for k, v in zip(full, x)) for x in reversed(xs)]
    log_phi1, count1 = balance_function(net.rate_fn_1, net.order.later, xs)
    log_phi2, count2 = balance_function(net.rate_fn_2, net.order.earlier, ys)
    pairs = list(zip(xs, reversed(ys)))
    space = sum(count1[x] * count2[y] for x, y in pairs)
    if space > budget:
        raise ResourceError(
            f"the adhering space needs {space} tandem states, budget {budget}"
        )
    log_w = {x: log_phi1[x] + log_phi2[y] for x, y in pairs}
    return space, xs, log_w, (count1[full], count2[full])


def _face_certified(net: TandemNetwork, faces: tuple[int, int]) -> bool:
    """True when a closed-queue walk covers a face of the tandem, which
    proves the chain irreducible on its adhering space.  A *face* holds
    every token in one queue; ``faces`` are their sizes, first queue
    first, as :func:`_tandem_space` counts them.

    1. Every state drains into each face.  The macrostate recursion
       :func:`~passandswap.product_form.balance_function` of
       :func:`_tandem_space` raises unless ``mu_1(x) > 0`` and
       ``mu_2(population - x) > 0`` on every occurring macrostate, so
       repeated completions in the first queue empty it, and so do those
       in the second queue.
    2. No state is transient.  The product-form measure is positive and
       balanced on the whole space, so every communicating class is closed.
    3. A one-customer round trip is a real path.  From a state with every
       token in the second queue, content ``d``, a completion there sends
       one token of class ``i`` to the empty first queue, which serves it
       at rate ``mu_1(e_i) > 0`` (by 1) back to the tail of ``d``: exactly
       :func:`closed_step` on ``d``, at a positive rate of ``rate_fn_2``.

    So if that walk (:func:`_face_walk`) from one face state reaches every
    state of the face, the face lies in one closed class (by 2 and 3),
    every state reaches it (by 1) and so belongs to that class (by 2).  Any
    face state will do as the start; the walk starts from that of
    :meth:`TandemNetwork.initial_state`.  The mirror face, every token in
    the first queue walked under ``rate_fn_1``, is walked only when the
    first walk falls short.
    """
    face = net.initial_state()[1]  # every token in the second queue
    return (
        len(_face_walk(net.rate_fn_2, net.swapping, face)) == faces[1]
        or len(_face_walk(net.rate_fn_1, net.swapping, face[::-1])) == faces[0]
    )


def tandem_tables(
    net: TandemNetwork,
    initial: TandemState | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[TandemState, tuple[Macrostate, ...], tuple[int, int]]:
    """What :func:`analyze_tandem` reads before its walk: the initial
    state, checked (see :func:`_tandem_initial`), the first-queue
    macrostates and the two face sizes (see :func:`_tandem_space`).
    Making them takes every refusal of the analysis, in its order."""
    initial = _tandem_initial(net, initial)
    _, xs, _, faces = _tandem_space(net, budget)
    return initial, xs, faces


def analyze_tandem(
    net: TandemNetwork,
    initial: TandemState | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
    tables: tuple[TandemState, tuple[Macrostate, ...],
                  tuple[int, int]] | None = None,
) -> TandemAnalysis:
    """Stationary distribution of the tandem started in ``initial``
    (default: every token available in the second queue).  A space of
    more than ``budget`` tandem states is refused, with its exact count,
    before any state is listed (see :func:`_tandem_space`).  The flood of
    :func:`communicating_classes` partitions the states only when the face
    certificate (:func:`_face_certified`) fails.  A caller that takes the
    refusals first, and walks after other work, passes the
    :func:`tandem_tables` of the same network, initial state and budget
    as ``tables``."""
    initial, xs, faces = tables or tandem_tables(net, initial, budget)
    step = None if _face_certified(net, faces) else successors(net)
    support, dist, partition, warnings = _solve(
        *_walk_sigma(net, xs), step, initial
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
    chain is irreducible, which the face certificate proves, or else the
    flood of :func:`communicating_classes` decides (see
    :func:`analyze_tandem_macrostates`).
    """

    space: int
    states: int
    distribution: Mapping[Macrostate, float]
    warnings: tuple[str, ...]


def _face_walk(rate_fn: RateFunction, graph: SwappingGraph,
               start: State) -> set[State]:
    """The contents a closed queue reaches from ``start``: the face states
    that one-customer round trips through the empty queue reach.

    The walk needs only each completion's next content, the departing
    customer rejoining the tail as in :func:`successors` on a
    :class:`ClosedQueue`, so it computes no rate.  It takes the completing
    positions from :meth:`RateFunction.served_positions`, exactly those of
    a positive increment (a multi-server family reads them from its server
    masks), and follows each chain as
    :func:`~passandswap.dynamics.completions` does, on one copy of the
    content, appending the departing class in place.
    """
    neighbors = graph._neighbors
    served = rate_fn.served_positions
    seen = {start}
    stack = [start]
    while stack:
        content = stack.pop()
        n = len(content)
        for pos in served(content):
            cells = list(content)
            moving = cells[pos]
            swappable = neighbors[moving]
            for q in range(pos + 1, n):
                c = cells[q]
                if c in swappable:
                    cells[q] = moving
                    moving = c
                    swappable = neighbors[c]
            del cells[pos]
            cells.append(moving)
            after = tuple(cells)
            # one hash per successor: the set grows only when it is new
            size = len(seen)
            seen.add(after)
            if len(seen) > size:
                stack.append(after)
    return seen


def analyze_tandem_macrostates(
    net: TandemNetwork,
    initial: TandemState | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> MacrostateAnalysis:
    """Stationary law of the first-queue macrostate of the tandem started
    in ``initial``, without listing tandem states unless the face
    certificate (:func:`_face_certified`) fails.

    The product form ``pi(c, d) ~ Phi_1(c) Phi_2(d)`` sums over the tandem
    states sharing a first-queue macrostate ``x`` to
    ``pi(x) ~ Phi_1(x) Phi_2(population - x)``.  That law is the only one
    when the chain is irreducible on the adhering space.  When the
    certificate fails, the tandem states are listed and flooded once, from
    the same sizing.  One class leaves the law above standing; several
    restrict the law to the class of ``initial``, whose first-queue
    marginal is returned with the partition's warning.
    """
    initial = _tandem_initial(net, initial)
    space, xs, log_w, faces = _tandem_space(net, budget)
    if not _face_certified(net, faces):
        support, micro, partition, warnings = _solve(
            *_walk_sigma(net, xs), successors(net), initial
        )
        if partition.n_components > 1:
            return MacrostateAnalysis(
                space, len(support),
                first_queue_marginal(micro, net.n_classes), warnings,
            )
    z = _logsumexp(list(log_w.values()))
    dist = {x: math.exp(w - z) for x, w in log_w.items()}
    return MacrostateAnalysis(space, space, dist, ())
