"""Forward and backward application of the pass-and-swap mechanism.

A service completion at position ``p`` starts a chain reaction: the
completing customer passes over subsequent customers it cannot swap with and
replaces the first swappable one; the ejected customer continues the same
way, and the first ejected customer with no swappable successor leaves the
queue.  Positions are 0-based with the queue head at 0.

Both kernels walk the queue once.  The chain's positions strictly increase,
and each ejected customer resumes the scan just past the position its swap
took, where nothing has changed yet; so one forward loop that switches to the
ejected class's neighbours on each swap finds the whole chain.  Backwards,
the anchors strictly decrease for the same reason, and one backward loop
finds them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from .errors import UsageError
from .model import PandsQueue, RateFunction, State, SwappingGraph


class CompletionOutcome(NamedTuple):
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
    """Apply the completion of the customer at ``position`` in ``state``.

    One pass from ``position + 1`` to the tail: a swap leaves every later
    position as it was, so the ejected customer's scan starts where the
    swap stood, and the chain is exactly the sequence of swaps.
    """
    n = len(state)
    if not 0 <= position < n:
        raise UsageError(
            f"position {position} out of range for a state of length {n}"
        )
    # The neighbour sets, read once: a method call per swap would cost more
    # than the membership tests.
    neighbors = graph._neighbors
    cells = list(state)
    moving = cells[position]
    swappable = neighbors[moving]
    chain = [position]
    for q in range(position + 1, n):
        c = cells[q]
        if c in swappable:
            cells[q] = moving
            moving = c
            swappable = neighbors[c]
            chain.append(q)
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
    consecutive anchors.  The anchors strictly decrease and each search
    resumes just before the previous anchor, so one backward pass finds
    them all.  The result is pairwise distinct and agrees with exhaustively
    inserting a customer everywhere and replaying completions.
    """
    n = len(state)
    neighbors = graph._neighbors
    anchors: list[int] = []  # strictly decreasing 0-based anchor positions
    chain: list[int] = [departing_class]
    swappable = neighbors[departing_class]
    for r in range(n - 1, -1, -1):
        c = state[r]
        if c in swappable:
            anchors.append(r)
            chain.append(c)
            swappable = neighbors[c]

    out: list[tuple[State, int]] = []
    base = list(state)
    for v in range(len(anchors) + 1):
        if v > 0:
            base[anchors[v - 1]] = chain[v - 1]
        hi = n if v == 0 else anchors[v - 1]
        lo = anchors[v] + 1 if v < len(anchors) else 0
        inserted = (chain[v],)
        row = tuple(base)
        for slot in range(lo, hi + 1):
            out.append((row[:slot] + inserted + row[slot:], slot))
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
    next_state: Any
    outcome: CompletionOutcome | None = None
    queue: int = 0  # the completing queue of a tandem (1 or 2), else 0


def open_transitions(
    queue: PandsQueue, state: State, capacity: int | None = None
) -> list[Transition]:
    """Outgoing transitions of the open queue in ``state``: the eager
    reference view of ``closed.moves`` on an open queue.

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
