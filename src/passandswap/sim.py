"""Discrete-event simulation by exponential races.

Every event resamples all clocks from scratch: with exponential holding
times that is distributionally exact and keeps the implementation trivially
auditable.  A fixed seed fully determines a run, replication streams are
derived deterministically from it, and results aggregate across
replications with standard errors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping, Sequence

from .closed import (
    ClosedQueue,
    TandemNetwork,
    closed_transitions,
    tandem_transitions,
)
from .cluster import ClusterSpec
from .dynamics import open_transitions
from .errors import CapabilityError, DeadlockError, UsageError
from .model import PandsQueue

TraceFn = Callable[[float, str, tuple[int, ...], int | None], None]


@dataclass(frozen=True)
class SimConfig:
    """Horizon (event count or simulated time), warmup fraction, seed, and
    replication count of a simulation run."""

    events: int | None = None
    time: float | None = None
    warmup: float = 0.2
    seed: int = 0
    replications: int = 10

    def __post_init__(self) -> None:
        if (self.events is None) == (self.time is None):
            raise UsageError("set exactly one of events= or time=")
        if self.events is not None and self.events <= 0:
            raise UsageError("events must be positive")
        if self.time is not None and self.time <= 0.0:
            raise UsageError("time must be positive")
        if not 0.0 <= self.warmup < 1.0:
            raise UsageError("warmup must lie in [0, 1)")
        if self.replications < 1:
            raise UsageError("at least one replication is required")


@dataclass(frozen=True)
class SimResult:
    """Time-weighted occupancy and event counters, averaged over
    replications, with standard errors across replications."""

    occupancy: Mapping[Hashable, float]
    occupancy_stderr: Mapping[Hashable, float]
    counters: Mapping[str, float]
    counter_stderr: Mapping[str, float]
    fractions: Mapping[str, float]
    fraction_stderr: Mapping[str, float]
    replications: int


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _aggregate(
    occ_reps: list[dict],
    counter_reps: list[dict],
    fraction_reps: list[dict],
    replications: int,
) -> SimResult:
    tables: list[dict] = []
    for reps in (occ_reps, counter_reps, fraction_reps):
        means: dict[Hashable, float] = {}
        errs: dict[Hashable, float] = {}
        # dict.fromkeys keeps the first-seen key order across replications
        for k in dict.fromkeys(k for rep in reps for k in rep):
            means[k], errs[k] = _mean_stderr([rep.get(k, 0.0) for rep in reps])
        tables += [means, errs]
    return SimResult(*tables, replications)


def _rep_rng(seed: int, rep: int) -> random.Random:
    # str seeding hashes through sha512, deterministic across runs.
    return random.Random(f"{seed}/{rep}")


# Tags are ("arrive", class), ("reject", class), ("complete", queue, position)
# with queue 0 for single-queue models; outcome carries chain and departure.
Provider = Callable[[Any], list[tuple[float, Any, tuple]]]

_CACHE_LIMIT = 100_000


def _cached(provider: Provider) -> Provider:
    # States recur constantly in finite chains; the move lists are immutable,
    # so memoizing them turns each event into a dictionary lookup.
    cache: dict[Any, list] = {}

    def wrapped(state):
        moves = cache.get(state)
        if moves is None:
            moves = provider(state)
            if len(cache) < _CACHE_LIMIT:
                cache[state] = moves
        return moves

    return wrapped


def _open_provider(queue: PandsQueue, capacity: int) -> Provider:
    def provider(state):
        at_cap = len(state) >= capacity
        moves = []
        for i, lam in enumerate(queue.arrival_rates):
            if at_cap:
                moves.append((lam, state, ("reject", i, None)))
            else:
                moves.append((lam, state + (i,), ("arrive", i, None)))
        for t in open_transitions(queue, state, capacity):
            if t.kind == "completion":
                moves.append(
                    (t.rate, t.next_state, ("complete", (0, t.index), t.outcome))
                )
        return moves

    return _cached(provider)


def _closed_provider(cq: ClosedQueue) -> Provider:
    def provider(state):
        return [
            (t.rate, t.next_state, ("complete", (0, t.index), t.outcome))
            for t in closed_transitions(cq, state)
        ]

    return _cached(provider)


def _tandem_provider(net: TandemNetwork) -> Provider:
    def provider(state):
        return [
            (t.rate, t.next_state, ("complete", (t.queue, t.position), t.outcome))
            for t in tandem_transitions(net, state)
        ]

    return _cached(provider)


def _run_replication(
    provider: Provider,
    initial: Any,
    cfg: SimConfig,
    rng: random.Random,
    trace: TraceFn | None,
) -> tuple[dict, dict, dict]:
    occupancy: dict[Any, float] = {}
    counters: dict[str, float] = {}
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
        moves = provider(state)
        total = 0.0
        for rate, _, _ in moves:
            total += rate
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
            occupancy[state] = occupancy.get(state, 0.0) + weight
            tracked += weight
        pick = rng.random() * total
        chosen = moves[-1]
        acc = 0.0
        for move in moves:
            acc += move[0]
            if pick < acc:
                chosen = move
                break
        _, next_state, tag = chosen
        counting = (step >= warm_events) if by_events else (now >= warm_time)
        kind = tag[0]
        if counting:
            if kind == "arrive":
                counters[f"arrivals:{tag[1]}"] = (
                    counters.get(f"arrivals:{tag[1]}", 0.0) + 1
                )
            elif kind == "reject":
                counters[f"arrivals:{tag[1]}"] = (
                    counters.get(f"arrivals:{tag[1]}", 0.0) + 1
                )
                counters[f"rejections:{tag[1]}"] = (
                    counters.get(f"rejections:{tag[1]}", 0.0) + 1
                )
            else:
                counters["completions"] = counters.get("completions", 0.0) + 1
                outcome = tag[2]
                dep = outcome.departing_class
                counters[f"departures:{dep}"] = (
                    counters.get(f"departures:{dep}", 0.0) + 1
                )
                queue_idx, pos = tag[1]
                side = state if queue_idx == 0 else state[queue_idx - 1]
                served = side[pos]
                counters[f"services:{served}"] = (
                    counters.get(f"services:{served}", 0.0) + 1
                )
        if trace is not None:
            if kind == "complete":
                outcome = tag[2]
                trace(now + dt, f"complete-q{tag[1][0]}", outcome.chain,
                      outcome.departing_class)
            else:
                trace(now + dt, f"{kind}-{tag[1]}", (), None)
        now += dt
        state = next_state
        step += 1

    if tracked > 0.0:
        occupancy = {k: v / tracked for k, v in occupancy.items()}
    return occupancy, counters, {}


def simulate(
    model: PandsQueue | ClosedQueue | TandemNetwork,
    cfg: SimConfig,
    capacity: int | None = None,
    initial: Any = None,
    trace: TraceFn | None = None,
) -> SimResult:
    """Simulate an open (truncated), closed, or tandem model.

    Open models need ``capacity``; arrivals beyond it are counted as
    rejections without changing the state.  The result is bit-identical for
    a fixed seed and configuration.
    """
    if isinstance(model, PandsQueue):
        if capacity is None:
            raise UsageError("open models need an explicit capacity")
        provider = _open_provider(model, capacity)
        start = initial if initial is not None else ()
    elif isinstance(model, ClosedQueue):
        provider = _closed_provider(model)
        start = initial if initial is not None else model.initial_state()
    elif isinstance(model, TandemNetwork):
        provider = _tandem_provider(model)
        start = initial if initial is not None else model.initial_state()
    else:
        raise UsageError(f"cannot simulate {type(model).__name__}")
    occ_reps, counter_reps, fraction_reps = [], [], []
    for rep in range(cfg.replications):
        rng = _rep_rng(cfg.seed, rep)
        occ, counters, fractions = _run_replication(
            provider, start, cfg, rng, trace if rep == 0 else None
        )
        occ_reps.append(occ)
        counter_reps.append(counters)
        fraction_reps.append(fractions)
    return _aggregate(occ_reps, counter_reps, fraction_reps, cfg.replications)


class ProtocolSimulator:
    """Operational stepper for the slot-token assignment protocol on
    bipartite cluster specifications.

    Machines keep fixed-length buffers served oldest-first; the dispatcher
    keeps released machine tokens in release order and a bounded number of
    waiting jobs per type in arrival order.  An arriving job takes the
    longest-released compatible token if any, waits if its type still has a
    free waiting slot, and is rejected otherwise; a completion hands the
    freed slot to the oldest waiting compatible job, or releases its token.

    This never consults the tandem encoding, so it can cross-validate it.
    """

    def __init__(self, spec: ClusterSpec):
        type_names = spec.job_types
        machine_names = spec.machines
        class_set = set(spec.classes)
        if (
            set(type_names) & set(machine_names)
            or class_set != set(type_names) | set(machine_names)
            or any(
                spec.machine_bindings.get(m, ()) != (m,)
                for m in machine_names
            )
        ):
            raise CapabilityError(
                "direct protocol simulation covers bipartite specifications "
                "only; simulate the compiled tandem instead"
            )
        self.spec = spec
        self.types = type_names
        self.machines = machine_names
        self.type_ids = {t: k for k, t in enumerate(type_names)}
        self.machine_ids = {m: s for s, m in enumerate(machine_names)}
        self.buffer_len = [int(spec.counts[m]) for m in machine_names]
        self.wait_len = [
            float(spec.counts[t]) for t in type_names
        ]  # may be inf
        self.arrival_rates = [float(spec.type_rates[t]) for t in type_names]
        self.machine_rates = [float(spec.machine_rates[m]) for m in machine_names]
        compat_machines: list[list[int]] = [[] for _ in type_names]
        for low, high in spec.arcs:
            compat_machines[self.type_ids[high]].append(self.machine_ids[low])
        self.compat = [tuple(sorted(ms)) for ms in compat_machines]
        self.serves = [
            tuple(
                k
                for k in range(len(type_names))
                if s in self.compat[k]
            )
            for s in range(len(machine_names))
        ]
        self.reset()

    def reset(self) -> None:
        self.free_tokens: list[int] = [
            s for s in range(len(self.machines)) for _ in range(self.buffer_len[s])
        ]
        self.buffers = [0] * len(self.machines)
        self.waiting: list[int] = []
        self.waiting_counts = [0] * len(self.types)

    def transitions(self) -> list[tuple[float, tuple]]:
        moves = []
        for k, rate in enumerate(self.arrival_rates):
            if rate > 0.0:
                moves.append((rate, ("arrive", k)))
        for s, rate in enumerate(self.machine_rates):
            if self.buffers[s] > 0:
                moves.append((rate, ("complete", s)))
        return moves

    def apply(self, tag: tuple) -> str:
        """Apply an event and report what happened: "commit", "wait",
        "reject", "release", or "reseize"."""
        kind = tag[0]
        if kind == "arrive":
            k = tag[1]
            for idx, s in enumerate(self.free_tokens):
                if s in self.compat[k]:
                    del self.free_tokens[idx]
                    self.buffers[s] += 1
                    return "commit"
            if self.waiting_counts[k] < self.wait_len[k]:
                self.waiting.append(k)
                self.waiting_counts[k] += 1
                return "wait"
            return "reject"
        if kind == "complete":
            s = tag[1]
            if self.buffers[s] <= 0:
                raise UsageError(f"machine {s} has no job to complete")
            self.buffers[s] -= 1
            for idx, k in enumerate(self.waiting):
                if k in self.serves[s]:
                    del self.waiting[idx]
                    self.waiting_counts[k] -= 1
                    self.buffers[s] += 1
                    return "reseize"
            self.free_tokens.append(s)
            return "release"
        raise UsageError(f"unknown event tag {tag!r}")

    def held_counts(self) -> tuple[int, ...]:
        """Tokens held by jobs, per token class, in spec class order."""
        out = []
        for name in self.spec.classes:
            if name in self.type_ids:
                out.append(self.waiting_counts[self.type_ids[name]])
            else:
                out.append(self.buffers[self.machine_ids[name]])
        return tuple(out)


def simulate_protocol(spec: ClusterSpec, cfg: SimConfig) -> SimResult:
    """Simulate the assignment protocol directly from its operational
    description, independent of the tandem encoding.

    Occupancy is keyed by the held-token count vector (spec class order);
    per-type blocking fractions carry standard errors across replications.
    """
    occ_reps, counter_reps, fraction_reps = [], [], []
    for rep in range(cfg.replications):
        sim = ProtocolSimulator(spec)
        rng = _rep_rng(cfg.seed, rep)
        occupancy: dict[tuple[int, ...], float] = {}
        counters: dict[str, float] = {}
        arrivals = [0] * len(sim.types)
        rejections = [0] * len(sim.types)
        now = 0.0
        tracked = 0.0
        by_events = cfg.events is not None
        horizon_events = cfg.events if by_events else 0
        warm_events = int(cfg.warmup * horizon_events) if by_events else 0
        horizon_time = cfg.time if not by_events else 0.0
        warm_time = cfg.warmup * horizon_time if not by_events else 0.0
        step = 0
        while True:
            if by_events:
                if step >= horizon_events:
                    break
            elif now >= horizon_time:
                break
            moves = sim.transitions()
            total = sum(rate for rate, _ in moves)
            if total <= 0.0:
                raise DeadlockError("no enabled event in the protocol state")
            dt = rng.expovariate(total)
            if by_events:
                weight = dt if step >= warm_events else 0.0
            else:
                start = max(now, warm_time)
                end = min(now + dt, horizon_time)
                weight = max(0.0, end - start)
            if weight > 0.0:
                key = sim.held_counts()
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
            tag = chosen[1]
            result = sim.apply(tag)
            counting = (step >= warm_events) if by_events else (now >= warm_time)
            if counting:
                if tag[0] == "arrive":
                    arrivals[tag[1]] += 1
                    if result == "reject":
                        rejections[tag[1]] += 1
                else:
                    counters["completions"] = counters.get("completions", 0.0) + 1
            now += dt
            step += 1
        if tracked > 0.0:
            occupancy = {k: v / tracked for k, v in occupancy.items()}
        fractions = {}
        for k, t in enumerate(sim.types):
            counters[f"arrivals:{t}"] = float(arrivals[k])
            counters[f"rejections:{t}"] = float(rejections[k])
            fractions[f"blocking:{t}"] = (
                rejections[k] / arrivals[k] if arrivals[k] else 0.0
            )
        occ_reps.append(occupancy)
        counter_reps.append(counters)
        fraction_reps.append(fractions)
    return _aggregate(occ_reps, counter_reps, fraction_reps, cfg.replications)
