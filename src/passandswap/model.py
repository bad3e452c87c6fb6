"""Core model types: states, swapping graphs, and order-independent rate functions.

Conventions used throughout the package:

* Customer classes are dense 0-based integers ``0 .. n_classes - 1``.  The
  external file formats use 1-based identifiers; conversion happens in
  :mod:`passandswap.modelfile`.
* A queue state is a tuple of class ids with the head (oldest customer) at
  index 0.  The empty tuple is the empty queue.
* A macrostate is the per-class count vector of a state, as a tuple.

All types here are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import itertools
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapabilityError, DomainError, ResourceError, UsageError

State = tuple[int, ...]
Macrostate = tuple[int, ...]

#: Absolute tolerance for exact analytic identities.
EXACT_TOL = 1e-12

#: Arrangements of one macrostate that :func:`validate_rate_function` checks.
_MAX_PERMUTATIONS = 24


def macrostate(state: Sequence[int], n_classes: int) -> Macrostate:
    """Per-class count vector of ``state``."""
    counts = [0] * n_classes
    for cls in state:
        counts[cls] += 1
    return tuple(counts)


def all_states(n_classes: int, max_len: int) -> Iterator[State]:
    """Every state of length at most ``max_len``, shortest first."""
    for length in range(max_len + 1):
        yield from itertools.product(range(n_classes), repeat=length)


def shortlex_starts(n_classes: int, capacity: int, budget: int) -> list[int]:
    """The shortlex index of the first state of each length, ``0`` to
    ``capacity + 1``; the last entry is the number of states of at most
    ``capacity`` customers.  The states are counted one length at a time,
    so a truncation of more than ``budget`` states is refused before any
    huge integer is formed."""
    first = [0]
    for length in range(capacity + 1):
        first.append(first[-1] + n_classes ** length)
        if first[-1] > budget:
            raise ResourceError(
                f"truncation at {capacity} customers needs more than "
                f"{budget} states, the budget"
            )
    return first


def all_macrostates(n_classes: int, max_total: int) -> Iterator[Macrostate]:
    """Every macrostate whose total count is at most ``max_total``."""

    def rec(prefix: list[int], remaining: int, idx: int) -> Iterator[Macrostate]:
        if idx == n_classes - 1:
            for k in range(remaining + 1):
                yield tuple(prefix + [k])
            return
        for k in range(remaining + 1):
            prefix.append(k)
            yield from rec(prefix, remaining - k, idx + 1)
            prefix.pop()

    if n_classes == 0:
        yield ()
        return
    yield from rec([], max_total, 0)


@dataclass(frozen=True)
class SwappingGraph:
    """Undirected graph on customer classes; an edge marks a swappable pair.

    Loops are allowed: a loop at class ``i`` lets two class-``i`` customers
    swap with one another.  Edges are stored as sorted pairs; build instances
    through :meth:`from_pairs` so that equal graphs compare equal.
    """

    n_classes: int
    edges: frozenset[tuple[int, int]]
    _neighbors: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        nbrs: list[set[int]] = [set() for _ in range(self.n_classes)]
        for a, b in self.edges:
            if not (0 <= a < self.n_classes and 0 <= b < self.n_classes):
                raise UsageError(f"edge ({a}, {b}) outside class range")
            nbrs[a].add(b)
            nbrs[b].add(a)
        object.__setattr__(
            self, "_neighbors", tuple(frozenset(s) for s in nbrs)
        )

    @classmethod
    def from_pairs(
        cls, n_classes: int, pairs: Iterable[tuple[int, int]]
    ) -> "SwappingGraph":
        edges = frozenset(tuple(sorted(p)) for p in pairs)
        return cls(n_classes, edges)

    @classmethod
    def edgeless(cls, n_classes: int) -> "SwappingGraph":
        return cls(n_classes, frozenset())

    @classmethod
    def complete(cls, n_classes: int, loops: bool = False) -> "SwappingGraph":
        pairs = [
            (i, j)
            for i in range(n_classes)
            for j in range(i if loops else i + 1, n_classes)
        ]
        return cls.from_pairs(n_classes, pairs)

    def neighbors(self, cls_id: int) -> frozenset[int]:
        """Classes swappable with ``cls_id``; contains it iff a loop exists."""
        return self._neighbors[cls_id]

    @property
    def has_loops(self) -> bool:
        return any(a == b for a, b in self.edges)


class RateFunction(ABC):
    """Overall service rate of an order-independent queue.

    The overall rate in a state depends only on the state's macrostate and
    is non-decreasing in every component; the customer in position ``p``
    receives the increment of the overall rate contributed by the length-``p``
    prefix.  Concrete families implement :meth:`rate`; everything else is
    derived.
    """

    n_classes: int

    @abstractmethod
    def rate(self, counts: Macrostate) -> float:
        """Overall service rate for a macrostate."""

    def state_rate(self, state: Sequence[int]) -> float:
        """Overall service rate in ``state``."""
        return self.rate(macrostate(state, self.n_classes))

    def increments(self, state: Sequence[int]) -> tuple[float, ...]:
        """Per-position service rates along the prefixes of ``state``."""
        counts = [0] * self.n_classes
        out = []
        prev = 0.0
        for cls in state:
            counts[cls] += 1
            cur = self.rate(tuple(counts))
            out.append(cur - prev)
            prev = cur
        return tuple(out)

    def served(self, state: Sequence[int]) -> list[tuple[int, float]]:
        """``(position, increment)`` of every position of ``state`` served
        at a positive rate, head first: the positive entries of
        :meth:`increments`.  A family that can stop reading ``state`` once
        no later position can be served overrides this; the completion
        kernel reads it."""
        return [(p, inc) for p, inc in enumerate(self.increments(state))
                if inc > 0.0]

    def served_positions(self, state: Sequence[int]) -> list[int]:
        """Positions of ``state`` served at a positive rate, head first:
        those whose :meth:`increments` entry is positive.  A family that
        can tell which positions are served without computing the rates
        overrides this; the closed-queue face walk of ``cluster-analyze``
        reads it for the completions it follows."""
        return [p for p, inc in enumerate(self.increments(state)) if inc > 0.0]

    def saturation_rate(self, classes: Iterable[int]) -> float:
        """Limiting overall rate when the given classes grow without bound."""
        raise CapabilityError(
            f"{type(self).__name__} does not provide saturation rates"
        )


@dataclass(frozen=True)
class MultiServerRates(RateFunction):
    """Multi-server compatibility family.

    Server ``s`` works at rate ``server_rates[s]`` and serves the oldest
    customer of a compatible class that no earlier-arrived compatible
    customer occupies.  The overall rate of a state is the summed rate of
    every server compatible with at least one present class, so the
    increment at position ``p`` is the rate of the servers newly activated
    by that customer.  The summed rate of each set of servers is memoized
    on the instance, outside its equality, hash and repr.
    """

    server_rates: tuple[float, ...]
    compat: tuple[frozenset[int], ...]
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _usable: int = field(init=False, repr=False, compare=False)
    _mask_rates: dict[int, float] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)

    def __post_init__(self) -> None:
        n_servers = len(self.server_rates)
        # ``not r > 0.0`` also refuses NaN, whose increments compare false.
        if any(not r > 0.0 for r in self.server_rates):
            raise UsageError("server rates must be strictly positive")
        masks = []
        usable = 0  # the servers some class can use
        for servers in self.compat:
            m = 0
            for s in servers:
                if not 0 <= s < n_servers:
                    raise UsageError(f"server id {s} out of range")
                m |= 1 << s
            masks.append(m)
            usable |= m
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_usable", usable)

    @classmethod
    def build(
        cls,
        server_rates: Sequence[float],
        compat: Sequence[Iterable[int]],
    ) -> "MultiServerRates":
        return cls(
            tuple(float(r) for r in server_rates),
            tuple(frozenset(c) for c in compat),
        )

    @property
    def n_classes(self) -> int:  # type: ignore[override]
        return len(self.compat)

    def _mask_rate(self, mask: int) -> float:
        """Summed rate of the servers in ``mask``, lowest bit first."""
        total = self._mask_rates.get(mask)
        if total is None:
            total = 0.0
            rates = self.server_rates
            rest = mask
            while rest:
                low = rest & -rest
                total += rates[low.bit_length() - 1]
                rest ^= low
            self._mask_rates[mask] = total
        return total

    def rate(self, counts: Macrostate) -> float:
        mask = 0
        for i, k in enumerate(counts):
            if k:
                mask |= self._masks[i]
        return self._mask_rate(mask)

    def increments(self, state: Sequence[int]) -> tuple[float, ...]:
        masks = self._masks
        memo = self._mask_rates
        acc = 0
        out = []
        for cls in state:
            new = masks[cls] & ~acc
            out.append((memo[new] if new in memo else self._mask_rate(new))
                       if new else 0.0)
            acc |= new
        return tuple(out)

    def served(self, state: Sequence[int]) -> list[tuple[int, float]]:
        """The positive :meth:`increments`, read up to the first position
        at which every usable server is active: every later class's mask
        lies within the active servers, so its increment is 0."""
        masks = self._masks
        usable = self._usable
        memo = self._mask_rates
        acc = 0
        out = []
        for p, cls in enumerate(state):
            new = masks[cls] & ~acc
            if new:
                out.append((p, memo[new] if new in memo
                            else self._mask_rate(new)))
                acc |= new
                if acc == usable:
                    break
        return out

    def served_positions(self, state: Sequence[int]) -> list[int]:
        """Positions whose class's mask adds a server not yet active.  Every
        server rate is positive, so these are exactly the positions of a
        positive increment, found without a float or a memo lookup.  Once
        every usable server is active, no later position is served."""
        masks = self._masks
        usable = self._usable
        acc = 0
        out = []
        for p, cls in enumerate(state):
            mask = masks[cls]
            if mask | acc != acc:
                out.append(p)
                acc |= mask
                if acc == usable:
                    break
        return out

    def saturation_rate(self, classes: Iterable[int]) -> float:
        mask = 0
        for i in classes:
            mask |= self._masks[i]
        return self._mask_rate(mask)


@dataclass(frozen=True, eq=False)
class TableRates(RateFunction):
    """Rate function backed by an explicit macrostate table.

    The table must cover every macrostate the analysis will visit; evaluating
    outside it raises :class:`DomainError`.  Stability analysis additionally
    needs declared saturation rates per class subset (a finite table cannot
    certify a limit on its own).
    """

    n_classes: int
    entries: Mapping[Macrostate, float]
    saturation: Mapping[frozenset[int], float] | None = None

    @classmethod
    def build(
        cls,
        n_classes: int,
        entries: Mapping[Sequence[int], float],
        saturation: Mapping[Iterable[int], float] | None = None,
    ) -> "TableRates":
        table = {tuple(k): float(v) for k, v in entries.items()}
        sat = (
            {frozenset(k): float(v) for k, v in saturation.items()}
            if saturation is not None
            else None
        )
        return cls(n_classes, table, sat)

    def rate(self, counts: Macrostate) -> float:
        if not any(counts):
            return 0.0
        try:
            return self.entries[counts]
        except KeyError:
            raise DomainError(
                f"macrostate {counts} outside the declared table domain"
            ) from None

    def saturation_rate(self, classes: Iterable[int]) -> float:
        subset = frozenset(classes)
        if self.saturation is None or subset not in self.saturation:
            raise CapabilityError(
                f"no saturation rate declared for class subset {sorted(subset)}"
            )
        return self.saturation[subset]


@dataclass(frozen=True)
class PandsQueue:
    """Open multi-class queue with Poisson arrivals, an order-independent
    rate function, and a swapping graph driving the completion mechanism."""

    arrival_rates: tuple[float, ...]
    rate_fn: RateFunction
    swapping: SwappingGraph

    def __post_init__(self) -> None:
        if not all(lam > 0.0 for lam in self.arrival_rates):  # NaN too
            raise UsageError("arrival rates must be strictly positive")
        n = len(self.arrival_rates)
        if self.rate_fn.n_classes != n or self.swapping.n_classes != n:
            raise UsageError(
                "arrival rates, rate function, and swapping graph disagree "
                "on the class count"
            )

    @property
    def n_classes(self) -> int:
        return len(self.arrival_rates)


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checked_macrostates: int
    violations: tuple[Violation, ...]


def validate_rate_function(
    rate_fn: RateFunction, max_total: int
) -> ValidationReport:
    """Check the rate-function contract on all macrostates with total
    ``<= max_total``.

    Order independence is tested per macrostate over all permutations when
    few, otherwise over ``_MAX_PERMUTATIONS`` sampled ones; monotonicity,
    positivity, and the empty-state rate are checked directly.  Violations
    are report content, not exceptions; macrostates outside a table's domain
    are reported as gaps.
    """
    if max_total < 1:
        raise UsageError("max_total must be at least 1")
    rng = random.Random(0)
    n = rate_fn.n_classes
    violations: list[Violation] = []
    checked = 0

    def table_rate(counts: Macrostate) -> float | None:
        try:
            return rate_fn.rate(counts)
        except DomainError:
            violations.append(
                Violation("domain-gap", (counts,), "macrostate not in table")
            )
            return None

    empty = tuple([0] * n)
    r0 = table_rate(empty)
    if r0 is not None and abs(r0) > EXACT_TOL:
        violations.append(
            Violation("empty-rate", (empty, r0), "rate of the empty state must be 0")
        )

    for counts in all_macrostates(n, max_total):
        total = sum(counts)
        if total == 0:
            continue
        checked += 1
        base_rate = table_rate(counts)
        if base_rate is None:
            continue
        if base_rate <= 0.0:
            violations.append(
                Violation(
                    "positivity",
                    (counts, base_rate),
                    "non-empty macrostates need a positive rate",
                )
            )
        # order independence over sequence arrangements of this macrostate
        base = [i for i, k in enumerate(counts) for _ in range(k)]
        if math.factorial(total) <= _MAX_PERMUTATIONS:
            perms: Iterable[tuple[int, ...]] = set(itertools.permutations(base))
        else:
            samples = []
            for _ in range(_MAX_PERMUTATIONS):
                arr = base[:]
                rng.shuffle(arr)
                samples.append(tuple(arr))
            perms = samples
        for perm in perms:
            r = rate_fn.state_rate(perm)
            if abs(r - base_rate) > EXACT_TOL:
                violations.append(
                    Violation(
                        "order-independence",
                        (tuple(base), perm),
                        f"rates differ: {base_rate!r} vs {r!r}",
                    )
                )
                break
        # monotonicity against single-class extensions
        if total < max_total:
            for i in range(n):
                ext = list(counts)
                ext[i] += 1
                r_ext = table_rate(tuple(ext))
                if r_ext is not None and r_ext < base_rate - EXACT_TOL:
                    violations.append(
                        Violation(
                            "monotonicity",
                            (counts, i),
                            f"rate drops from {base_rate!r} to {r_ext!r} "
                            f"when adding class {i}",
                        )
                    )
    return ValidationReport(not violations, checked, tuple(violations))
