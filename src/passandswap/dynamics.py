"""Forward and backward application of the pass-and-swap mechanism.

A service completion at position ``p`` starts a chain reaction: the
completing customer passes over subsequent customers it cannot swap with and
replaces the first swappable one; the ejected customer continues the same
way, and the first ejected customer with no swappable successor leaves the
queue.  Positions are 0-based with the queue head at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError
from .model import PandsQueue, RateFunction, State, SwappingGraph


@dataclass(frozen=True, slots=True)
class CompletionOutcome:
    """Result of one service completion.

    ``chain`` holds the strictly increasing positions touched by the
    transition in the pre-transition state, starting with the completing
    position; consecutive chain classes are joined by a swapping edge.
    """

    next_state: State
    departing_class: int
    chain: tuple[int, ...]


def apply_completion(
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


def predecessors(
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


def completions(
    rate_fn: RateFunction, graph: SwappingGraph, content: State
) -> list[tuple[int, float, CompletionOutcome]]:
    """``(position, rate, outcome)`` of every completion served at a
    positive rate in a queue holding ``content``, head first.

    These depend on the queue's content alone, whatever surrounds the
    queue, which is what lets callers memoize them per content.
    """
    return [
        (pos, inc, apply_completion(graph, content, pos))
        for pos, inc in enumerate(rate_fn.increments(content))
        if inc > 0.0
    ]


@dataclass(frozen=True)
class Transition:
    """One outgoing transition of a state process."""

    kind: str  # "arrival" or "completion"
    index: int  # arriving class, or completing position
    rate: float
    next_state: State
    outcome: CompletionOutcome | None = None


def open_transitions(
    queue: PandsQueue, state: State, capacity: int | None = None
) -> list[Transition]:
    """Outgoing transitions of the open queue in ``state``.

    With ``capacity`` set, arrivals are suppressed once the queue holds that
    many customers (blocked truncation).  Completions with a zero service
    rate are omitted.
    """
    out: list[Transition] = []
    if capacity is None or len(state) < capacity:
        for i, lam in enumerate(queue.arrival_rates):
            out.append(Transition("arrival", i, lam, state + (i,)))
    for pos, inc, oc in completions(queue.rate_fn, queue.swapping, state):
        out.append(Transition("completion", pos, inc, oc.next_state, oc))
    return out
