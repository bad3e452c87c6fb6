"""Every product-form recursion of the pass-and-swap models.

The unnormalized weight of an open queue's state multiplies the
per-customer arrival rates and divides by the overall service rate of every
prefix.  Renormalizing these weights over all states of length at most
``capacity`` gives the exact stationary distribution of the arrival-blocked
truncation of the queue (:func:`stationary_truncated`).  The partial
balance and flow identities are checked on that same walk, so they verify
the weights that the analyses report.  :func:`balance_function` sums the
balance weights of a closed queue per macrostate.  Weights accumulate in
log space to stay finite for deep truncations, and the checks compare
ratios of weights, so they stay in log space too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .dynamics import completions, predecessors
from .errors import ResourceError, UsageError
from .model import Macrostate, PandsQueue, RateFunction, State, macrostate

DEFAULT_STATE_BUDGET = 1_000_000


def memoized_log_balance(
    rate_fn: RateFunction,
) -> Callable[[Sequence[int]], float]:
    """Log balance weight of a state, with one memo entry per queue
    content: minus the sum of the logs of the overall rates of its
    prefixes.  The empty state has log weight 0.

    A content's log weight is its parent's (the content without its last
    customer) minus the log of the overall rate of its macrostate.
    """
    memo: dict[tuple[int, ...], float] = {(): 0.0}

    def log_weight(state: Sequence[int]) -> float:
        state = tuple(state)
        known = len(state)
        while state[:known] not in memo:
            known -= 1
        log_value = memo[state[:known]]
        counts = [0] * rate_fn.n_classes
        for end, cls in enumerate(state, 1):
            counts[cls] += 1
            if end <= known:
                continue
            r = rate_fn.rate(tuple(counts))
            if r <= 0.0:
                raise UsageError(
                    f"overall rate is not positive on prefix {tuple(counts)}"
                )
            log_value -= math.log(r)
            memo[state[:end]] = log_value
        return log_value

    return log_weight


def balance(rate_fn: RateFunction, state: Sequence[int]) -> float:
    """Log balance weight of ``state`` (see :func:`memoized_log_balance`)."""
    return memoized_log_balance(rate_fn)(state)


def state_weight(queue: PandsQueue, state: Sequence[int]) -> float:
    """Unnormalized product-form measure of ``state``: its balance weight
    times the arrival rate of each customer, summed in log space."""
    w = balance(queue.rate_fn, state)
    for cls in state:
        w += math.log(queue.arrival_rates[cls])
    return math.exp(w)


def _logsumexp(values: Sequence[float]) -> float:
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


@dataclass(frozen=True)
class TruncatedDistribution:
    """Exact stationary distribution of the arrival-blocked truncation."""

    n_classes: int
    capacity: int
    states: tuple[State, ...]
    log_weights: Mapping[State, float]
    log_normalizer: float

    def probability(self, state: State) -> float:
        try:
            return math.exp(self.log_weights[state] - self.log_normalizer)
        except KeyError:
            raise UsageError(
                f"state {state} outside the truncated space"
            ) from None

    def probabilities(self) -> dict[State, float]:
        z = self.log_normalizer
        return {s: math.exp(w - z) for s, w in self.log_weights.items()}

    def mean_counts(self) -> tuple[float, ...]:
        """Expected number of customers of each class."""
        totals = [0.0] * self.n_classes
        for s, p in self.probabilities().items():
            for cls in s:
                totals[cls] += p
        return tuple(totals)


def stationary_truncated(
    queue: PandsQueue, capacity: int, budget: int = DEFAULT_STATE_BUDGET
) -> TruncatedDistribution:
    """Product-form stationary distribution truncated at ``capacity``
    customers.

    The result never consults the swapping graph: the measure is the same
    for every graph over a fixed rate function and arrival rates.
    """
    if capacity < 0:
        raise UsageError("capacity must be non-negative")
    n = queue.n_classes
    # Count the states one length at a time, and stop once past the budget,
    # so that a deep truncation is refused without a huge integer.
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
    log_weights: dict[State, float] = {(): 0.0}
    # Depth first, children in class order, on an explicit stack of (state,
    # log weight, class to append) frames, so a long queue needs no
    # recursion; states are listed as each is reached.
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
    log_z = _logsumexp(list(log_weights.values()))
    return TruncatedDistribution(n, capacity, tuple(log_weights), log_weights,
                                 log_z)


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
