"""Every product-form recursion of the pass-and-swap models.

The unnormalized weight of an open queue's state multiplies the
per-customer arrival rates and divides by the overall service rate of every
prefix.  Renormalizing these weights over all states of length at most
``capacity`` gives the exact stationary distribution of the arrival-blocked
truncation of the queue (:func:`stationary_truncated`), which walks the
states over integers and records each one's index in the oracle's
generator, so the oracle's cross-check compares the two laws by index and
builds tuples only for its output.  The partial balance and flow
identities are checked on that same walk, so they verify the weights that
the analyses report.  :func:`balance` weighs one state of a closed queue
(``closed`` weighs whole spaces the same way along its walk), and
:func:`balance_function` sums those weights per macrostate.  Weights
accumulate in log space to stay finite for deep truncations, and the
checks compare ratios of weights, so they stay in log space too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .dynamics import completions, predecessors
from .errors import ResourceError, UsageError
from .model import (Macrostate, PandsQueue, RateFunction, State,
                    all_states, macrostate, shortlex_starts)

DEFAULT_STATE_BUDGET = 1_000_000


def balance(rate_fn: RateFunction, state: Sequence[int]) -> float:
    """Log balance weight of ``state``: minus the logs of the overall rates
    of its prefixes, subtracted from 0.0 shortest first.  The empty state
    has log weight 0."""
    log_value = 0.0
    counts = [0] * rate_fn.n_classes
    for cls in state:
        counts[cls] += 1
        r = rate_fn.rate(tuple(counts))
        if r <= 0.0:
            raise UsageError(
                f"overall rate is not positive on prefix {tuple(counts)}"
            )
        log_value -= math.log(r)
    return log_value


def state_weight(queue: PandsQueue, state: Sequence[int]) -> float:
    """Unnormalized product-form measure of ``state``: its balance weight
    times the arrival rate of each customer, summed in log space."""
    w = balance(queue.rate_fn, state)
    for cls in state:
        w += math.log(queue.arrival_rates[cls])
    return math.exp(w)


def _logsumexp(values: Sequence[float]) -> float:
    m = max(values)
    return m + math.log(sum(map(math.exp, [v - m for v in values])))


@dataclass(frozen=True)
class TruncatedDistribution:
    """Exact stationary distribution of the arrival-blocked truncation.

    The states are listed depth first, children in class order, which is
    lexicographic order (a state before its extensions).  The walk keeps,
    per listed state, its log weight (``log_weight_list``) and its index in
    the breadth-first (shortlex) order of ``oracle.open_generator``
    (``shortlex``); the states as tuples, ``log_weights`` and the
    probabilities are built from them on first read.
    """

    n_classes: int
    capacity: int
    log_weight_list: list[float]
    shortlex: list[int]
    log_normalizer: float

    @cached_property
    def states(self) -> tuple[State, ...]:
        shortlex = list(all_states(self.n_classes, self.capacity))
        return tuple(map(shortlex.__getitem__, self.shortlex))

    @cached_property
    def log_weights(self) -> dict[State, float]:
        return dict(zip(self.states, self.log_weight_list))

    @cached_property
    def probability_list(self) -> list[float]:
        """The probability of each state, in the order of ``states``."""
        z = self.log_normalizer
        return list(map(math.exp, [w - z for w in self.log_weight_list]))

    def state_at(self, j: int) -> State:
        """The ``j``-th state, decoded from its shortlex index."""
        n, u = self.n_classes, self.shortlex[j]
        length, level = 0, 1
        while u >= level:
            u -= level
            length += 1
            level *= n
        digits = []
        for _ in range(length):
            u, d = divmod(u, n)
            digits.append(d)
        return tuple(reversed(digits))

    def probability(self, state: State) -> float:
        try:
            return math.exp(self.log_weights[state] - self.log_normalizer)
        except KeyError:
            raise UsageError(
                f"state {state} outside the truncated space"
            ) from None

    def probabilities(self) -> dict[State, float]:
        return dict(zip(self.states, self.probability_list))

    def mean_counts(self) -> tuple[float, ...]:
        """Expected number of customers of each class."""
        totals = [0.0] * self.n_classes
        for s, p in zip(self.states, self.probability_list):
            for cls in s:
                totals[cls] += p
        return tuple(totals)


def _log_rates(
    rate_fn: RateFunction, capacity: int
) -> tuple[list[float], list[list[int]]]:
    """The log overall rate of every macrostate of at most ``capacity``
    customers, by id, and each id's successor ids by class.

    The empty macrostate has id 0 (and no rate); the others are numbered,
    and their rates read, in the order the depth-first walk of
    :func:`stationary_truncated` first meets them, which is at their sorted
    states, in lexicographic order.  So the rate function is called in the
    walk's order, and a non-positive rate raises on the macrostate where a
    walk reading every state's rate would.
    """
    n = rate_fn.n_classes
    empty = (0,) * n
    ids = {empty: 0}
    log_rate = [0.0]
    frames = [(empty, 0, 0)]  # a sorted state's macrostate, last class, size
    while frames:
        x, last, size = frames.pop()
        if size:
            r = rate_fn.rate(x)
            if r <= 0.0:
                raise UsageError(
                    f"overall rate is not positive on macrostate {x}"
                )
            ids[x] = len(log_rate)
            log_rate.append(math.log(r))
        if size < capacity:
            frames.extend((x[:i] + (x[i] + 1,) + x[i + 1:], i, size + 1)
                          for i in range(n - 1, last - 1, -1))
    after = [
        [ids[x[:i] + (x[i] + 1,) + x[i + 1:]] for i in range(n)]
        if sum(x) < capacity else []
        for x in ids
    ]
    return log_rate, after


def truncation_tables(
    queue: PandsQueue, capacity: int, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[list[int], list[float], list[list[int]]]:
    """The tables that the walk of :func:`stationary_truncated` reads: the
    shortlex index of the first state of each length, and each
    macrostate's log rate and successors (see :func:`_log_rates`).  Making
    them takes every refusal of the walk, in its order: a negative
    capacity, then more than ``budget`` states (``model.shortlex_starts``),
    then a macrostate whose overall rate is not positive."""
    if capacity < 0:
        raise UsageError("capacity must be non-negative")
    first = shortlex_starts(queue.n_classes, capacity, budget)
    return (first, *_log_rates(queue.rate_fn, capacity))


def stationary_truncated(
    queue: PandsQueue,
    capacity: int,
    budget: int = DEFAULT_STATE_BUDGET,
    tables: tuple[list[int], list[float], list[list[int]]] | None = None,
) -> TruncatedDistribution:
    """Product-form stationary distribution truncated at ``capacity``
    customers.

    The result never consults the swapping graph: the measure is the same
    for every graph over a fixed rate function and arrival rates.  The walk
    runs over integers: a macrostate id, whose log rate is read once (see
    :func:`_log_rates`), and the shortlex index.  A child's log weight is
    its parent's plus the log arrival rate of its last customer, minus the
    log rate of its macrostate, and the log normalizer sums the weights in
    the order they are listed, so no tuple is built.  More than ``budget``
    states are refused before the walk, by ``model.shortlex_starts``.  A
    caller that takes the refusals first, and walks after other work,
    passes the :func:`truncation_tables` of the same queue, capacity and
    budget as ``tables``.
    """
    n = queue.n_classes
    first, log_rate, after = tables or truncation_tables(queue, capacity,
                                                         budget)
    classes = list(enumerate(math.log(l) for l in queue.arrival_rates))
    backwards = classes[::-1]
    log_weights = [0.0]
    shortlex = [0]
    # Depth first, children in class order, on an explicit stack of (log
    # weight, macrostate id, base-n value, length) frames, so a long queue
    # needs no recursion.  A frame's state is listed when it is popped, and
    # a state one short of ``capacity`` lists its children at once.
    frames = [(0.0, 0, 0, 0)] if capacity else []
    last = capacity - 1
    while frames:
        lw, macro, v, k = frames.pop()
        if k:
            log_weights.append(lw)
            shortlex.append(first[k] + v)
        succ = after[macro]
        if k == last:
            log_weights.extend([lw + a - log_rate[succ[i]]
                                for i, a in classes])
            u = first[k + 1] + v * n
            shortlex.extend(range(u, u + n))
        else:
            frames.extend([(lw + a - log_rate[succ[i]], succ[i], v * n + i,
                            k + 1) for i, a in backwards])
    return TruncatedDistribution(n, capacity, log_weights, shortlex,
                                 _logsumexp(log_weights))


@dataclass(frozen=True)
class PartialBalanceReport:
    """Residuals of the two partial balance identities on the product-form
    measure, over all states up to a length bound."""

    max_residual: float
    max_departure_residual: float
    max_arrival_residual: float
    worst_witness: tuple
    states_checked: int

    @property
    def ok(self) -> bool:
        return self.max_residual < 1e-10


def _relative_residual(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def verify_partial_balance(
    queue: PandsQueue, max_len: int
) -> PartialBalanceReport:
    """Check, for every state ``c`` of length at most ``max_len``:

    * departure flow out of ``c`` equals arrival flow in:
      ``w(c) mu(c) == w(c[:-1]) lambda(c[-1])``;
    * for each class ``i``, arrival flow out of ``c`` equals the departure
      flow in over all predecessors of ``(c, i)``.

    The weights are those of :func:`stationary_truncated` at ``max_len +
    1``, which holds every predecessor.  Each identity is divided by
    ``w(c)``, so only ratios of weights leave log space and deep states
    are checked however small their weights.  Residuals are relative.
    """
    if max_len < 1:
        raise UsageError("max_len must be at least 1")
    lw = stationary_truncated(queue, max_len + 1).log_weights
    lam = queue.arrival_rates
    rate_fn = queue.rate_fn
    max_dep = 0.0
    max_arr = 0.0
    worst: tuple = ()
    checked = 0
    for state, lwc in lw.items():
        if len(state) > max_len:
            continue
        checked += 1
        if state:
            lhs = rate_fn.state_rate(state)
            rhs = math.exp(lw[state[:-1]] - lwc) * lam[state[-1]]
            res = _relative_residual(lhs, rhs)
            if res > max_dep:
                max_dep, worst = res, ("departure", state)
        for i in range(queue.n_classes):
            rhs = 0.0
            for prev, pos in predecessors(queue.swapping, state, i):
                rhs += math.exp(lw[prev] - lwc) * rate_fn.increments(prev)[pos]
            res = _relative_residual(lam[i], rhs)
            if res > max_arr:
                max_arr, worst = res, ("arrival", state, i)
    return PartialBalanceReport(
        max(max_dep, max_arr), max_dep, max_arr, worst, checked
    )


@dataclass(frozen=True)
class StabilityReport:
    """Strict subset-wise comparison of arrival rates against saturated
    service rates; equality on any subset counts as unstable."""

    stable: bool
    violations: tuple[tuple[tuple[int, ...], float, float], ...]
    saturation: Mapping[frozenset[int], float]


def stability_check(queue: PandsQueue) -> StabilityReport:
    """Decide stability from the saturated rates of every non-empty class
    subset.

    Multi-server rate functions provide saturation rates in closed form;
    table-backed ones must declare them, otherwise a
    :class:`~passandswap.errors.CapabilityError` propagates.
    """
    n = queue.n_classes
    if n > 20:
        raise ResourceError(
            f"stability check enumerates 2^{n} - 1 subsets; refusing beyond 20 classes"
        )
    violations = []
    saturation: dict[frozenset[int], float] = {}
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            sat = queue.rate_fn.saturation_rate(subset)
            saturation[frozenset(subset)] = sat
            arrivals = sum(queue.arrival_rates[i] for i in subset)
            if not arrivals < sat:
                violations.append((subset, arrivals, sat))
    return StabilityReport(not violations, tuple(violations), saturation)


def flow_rates(
    queue: PandsQueue, state: State
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-class departure and service rate vectors in ``state``.

    The service vector credits each position's rate to the class standing
    there; the departure vector credits it to the class that leaves when
    that position completes.  Both sum to the overall rate.
    """
    n = queue.n_classes
    phi_d = [0.0] * n
    phi_s = [0.0] * n
    for pos, inc, _, departing in completions(queue.rate_fn, queue.swapping,
                                              state):
        phi_s[state[pos]] += inc
        phi_d[departing] += inc
    return tuple(phi_d), tuple(phi_s)


def macrostate_flow_identity(
    queue: PandsQueue, total: int
) -> tuple[float, Macrostate | None]:
    """Largest relative gap between departure-weighted and service-weighted
    probability flow, per macrostate with the given total and per class.

    Uses the product-form measure of :func:`stationary_truncated` relative
    to the largest weight of length ``total``; returns the worst gap and
    the macrostate attaining it.
    """
    n = queue.n_classes
    lw = stationary_truncated(queue, total).log_weights
    top = {s: w for s, w in lw.items() if len(s) == total}
    m = max(top.values())
    by_macro: dict[Macrostate, tuple[list[float], list[float]]] = {}
    for state, w in top.items():
        wgt = math.exp(w - m)
        phi_d, phi_s = flow_rates(queue, state)
        key = macrostate(state, n)
        acc = by_macro.setdefault(key, ([0.0] * n, [0.0] * n))
        for i in range(n):
            acc[0][i] += wgt * phi_d[i]
            acc[1][i] += wgt * phi_s[i]
    worst = 0.0
    arg: Macrostate | None = None
    for key, (dep, srv) in by_macro.items():
        for i in range(n):
            res = _relative_residual(dep[i], srv[i])
            if res > worst:
                worst, arg = res, key
    return worst, arg


def balance_function(
    rate_fn: RateFunction, later: Sequence[int], xs: Sequence[Macrostate]
) -> tuple[dict[Macrostate, float], dict[Macrostate, int]]:
    """Log balance function and content count of a queue, per macrostate.

    ``later`` is the queue's :attr:`PlacementOrder.later`, or the
    :attr:`PlacementOrder.earlier` of the order it reverses: ``later[i]``
    masks the classes that ``i`` precedes.  ``Phi(x)`` sums the balance
    weights of the adhering contents with macrostate ``x``.  Their last
    customer's class ``i`` precedes no class left in ``x - e_i`` (no mask
    holds its own class, so ``supp(x)`` stands for ``supp(x - e_i)``), so
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
