"""Size ladder of the bipartite cluster family and the budget interpolation.

Rung sizes come from a dynamic programme over the grid of first-queue
macrostates, never from enumerating microstates, so the headline
``states_at_budget`` keeps its meaning after the exact engine stops
enumerating.  A tandem state is an adhering arrangement of every token cut
into a first-queue prefix and a reversed second-queue suffix; a sequence
adheres when a class ``i`` is never appended while a class it precedes is
already present.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

# Bipartite family: (name, base arrival rate, compatible machines) per job
# type and (name, base service rate) per machine.
TYPES = (("A", 1.0, ("1", "3")), ("B", 1.2, ("2", "3")), ("C", 0.8, ("1", "2")))
MACHINES = (("1", 1.0), ("2", 1.0), ("3", 1.5))
ENTITIES = tuple(t[0] for t in TYPES) + tuple(m[0] for m in MACHINES)


def cluster_doc(rates: Mapping[str, float], slots: Sequence[int]) -> dict:
    """``pands-cluster/1`` document; ``slots`` lists waiting slots of the
    types, then buffers of the machines, in ``ENTITIES`` order."""
    k = len(TYPES)
    return {
        "schema": "pands-cluster/1",
        "job_types": [
            {"name": name, "rate": rates[name], "slots": slots[i],
             "machines": list(compat)}
            for i, (name, _, compat) in enumerate(TYPES)
        ],
        "machines": [
            {"name": name, "rate": rates[name], "buffer": slots[k + i]}
            for i, (name, _) in enumerate(MACHINES)
        ],
    }


def rung_slots(k: int) -> tuple[int, ...]:
    """Slots of rung ``k``: all ones, then one more slot per rung,
    round-robin over the six entities."""
    n = len(ENTITIES)
    return tuple(1 + k // n + (1 if i < k % n else 0) for i in range(n))


def precedence(
    n_classes: int, arcs: Sequence[tuple[int, int]]
) -> list[list[bool]]:
    """Transitive closure of ``arcs``: ``prec[i][j]`` when a path runs
    from ``i`` to ``j``."""
    prec = [[False] * n_classes for _ in range(n_classes)]
    for a, b in arcs:
        prec[a][b] = True
    for k in range(n_classes):
        for i in range(n_classes):
            if prec[i][k]:
                for j in range(n_classes):
                    prec[i][j] = prec[i][j] or prec[k][j]
    return prec


def count_states(
    population: Sequence[int], prec: Sequence[Sequence[bool]]
) -> tuple[int, int]:
    """(tandem microstates, distinct first-queue macrostates).

    ``N(x)`` counts adhering prefixes with macrostate ``x`` and ``C(x)``
    the adhering completions of such a prefix to the full population; a
    first-queue macrostate occurs exactly when both are positive.
    """
    n = len(population)
    grid = list(itertools.product(*(range(k + 1) for k in population)))

    def may_append(i: int, x: Sequence[int]) -> bool:
        return not any(x[j] and prec[i][j] for j in range(n))

    prefixes: dict[tuple[int, ...], int] = {grid[0]: 1}
    for x in grid[1:]:
        total = 0
        for i in range(n):
            if x[i]:
                prev = x[:i] + (x[i] - 1,) + x[i + 1:]
                if may_append(i, prev):
                    total += prefixes[prev]
        prefixes[x] = total
    completions: dict[tuple[int, ...], int] = {grid[-1]: 1}
    for x in reversed(grid[:-1]):
        total = 0
        for i in range(n):
            if x[i] < population[i] and may_append(i, x):
                total += completions[x[:i] + (x[i] + 1,) + x[i + 1:]]
        completions[x] = total
    sequences = prefixes[grid[-1]]
    macro = sum(1 for x in grid if prefixes[x] and completions[x])
    return sequences * (sum(population) + 1), macro


def family_counts(slots: Sequence[int]) -> tuple[int, int]:
    """Rung sizes of the bipartite family at ``slots``: token classes are
    the types then the machines, and a machine precedes each type it
    serves."""
    index = {name: i for i, name in enumerate(ENTITIES)}
    arcs = [(index[m], index[t]) for t, _, compat in TYPES for m in compat]
    return count_states(slots, precedence(len(ENTITIES), arcs))


def at_budget(
    rungs: Sequence[tuple[float, float, float]], budget: float
) -> tuple[float, float]:
    """Microstates and macrostates solvable in ``budget`` seconds.

    ``rungs`` holds (microstates, macrostates, seconds) in ladder order.
    Interpolates log-log between the first rung slower than the budget and
    the rung before it; extrapolates from the nearest two rungs when the
    budget lies outside the measured times.
    """
    if len(rungs) < 2:
        raise ValueError("the interpolation needs at least two rungs")
    pos = next(
        (k for k, r in enumerate(rungs) if r[2] > budget), len(rungs) - 1
    )
    lo, hi = rungs[max(pos, 1) - 1], rungs[max(pos, 1)]
    if hi[2] <= lo[2]:
        return hi[0], hi[1]
    f = (math.log(budget) - math.log(lo[2])) / (math.log(hi[2]) - math.log(lo[2]))

    def interp(a: float, b: float) -> float:
        return math.exp(math.log(a) + f * (math.log(b) - math.log(a)))

    return interp(lo[0], hi[0]), interp(lo[1], hi[1])
