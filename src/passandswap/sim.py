"""Discrete-event simulation by exponential races.

Every event resamples all clocks from scratch: with exponential holding
times that is distributionally exact and keeps the implementation trivially
auditable.  A fixed seed fully determines a run, replication streams are
derived deterministically from it, and results aggregate across
replications with standard errors.

All four simulators share one event loop, :func:`_run_replication`, fed
by memoized moves.  A completion's chain, departing class and rate depend
only on the content of the queue it happens in, so the moves of an open or
closed queue are computed once per content, and those of a tandem once per
content of each of its two queues.  The protocol's moves are computed once
per protocol state, by ``ProtocolSimulator.apply`` itself.  Each memo lives
for one ``simulate`` or ``simulate_protocol`` call and is shared by its
replications; memory grows with the distinct contents or protocol states a
run visits, and nothing is ever evicted.  The loop draws and sums exactly
as a per-event recomputation would, so seeded results do not depend on the
memo.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping, Sequence

from .closed import ClosedQueue, TandemNetwork, TandemState, queue_moves
from .cluster import ClusterSpec
from .dynamics import CompletionOutcome
from .errors import CapabilityError, DeadlockError, UsageError
from .model import PandsQueue, State

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


def _rep_rng(seed: int, rep: int) -> random.Random:
    # str seeding hashes through sha512, deterministic across runs.
    return random.Random(f"{seed}/{rep}")


# A move is (rate, advance, arg, counts, tag).  The next state is
# ``advance(state, arg)``, built for the chosen move only; ``counts`` names
# the counters the move adds one to; ``tag`` is ("arrive", class, None),
# ("reject", class, None) or ("complete", (queue, position), outcome), with
# queue 0 for single-queue models, and for the protocol the event tag
# followed by what ``ProtocolSimulator.apply`` reported.  ``MovesOf`` maps a
# state to its occupancy key and its moves.
Move = tuple[float, Callable[[Any, Any], Any], Any, tuple[str, ...], tuple]
MovesOf = Callable[[Any], tuple[Hashable, tuple[Move, ...]]]


def _goto(state: Any, next_state: Any) -> Any:
    return next_state


def _first_served(state: TandemState, oc: CompletionOutcome) -> TandemState:
    # A departure from the first queue joins the second queue's tail.
    return oc.next_state, state[1] + (oc.departing_class,)


def _second_served(state: TandemState, oc: CompletionOutcome) -> TandemState:
    return state[0] + (oc.departing_class,), oc.next_state


def _completion(
    queue: int,
    advance: Callable[[Any, Any], Any],
    arg: Callable[[CompletionOutcome], Any],
) -> Callable[[State, int, float, CompletionOutcome], Move]:
    """Move maker for :func:`closed.queue_moves`.  Moves with the same
    departing and served classes share one ``counts`` tuple."""
    shared: dict[tuple[int, int], tuple[str, ...]] = {}

    def make(content, pos, rate, oc):
        dep, served = oc.departing_class, content[pos]
        counts = shared.get((dep, served))
        if counts is None:
            counts = shared[dep, served] = (
                "completions", f"departures:{dep}", f"services:{served}"
            )
        return rate, advance, arg(oc), counts, ("complete", (queue, pos), oc)

    return make


def _open_moves(queue: PandsQueue, capacity: int) -> MovesOf:
    completed = queue_moves(
        queue.rate_fn,
        queue.swapping,
        _completion(0, _goto, lambda oc: oc.next_state),
    )
    arrived = [(f"arrivals:{i}",) for i in range(queue.n_classes)]
    rejected = [(f"arrivals:{i}", f"rejections:{i}")
                for i in range(queue.n_classes)]

    @functools.cache
    def moves_of(state):
        moves = []
        for i, lam in enumerate(queue.arrival_rates):
            if len(state) >= capacity:
                moves.append((lam, _goto, state, rejected[i], ("reject", i, None)))
            else:
                moves.append(
                    (lam, _goto, state + (i,), arrived[i], ("arrive", i, None))
                )
        return state, tuple(moves) + completed(state)

    return moves_of


def _closed_moves(cq: ClosedQueue) -> MovesOf:
    completed = queue_moves(
        cq.rate_fn,
        cq.swapping,
        _completion(
            0, _goto, lambda oc: oc.next_state + (oc.departing_class,)
        ),
    )
    return functools.cache(lambda state: (state, completed(state)))


def _tandem_moves(net: TandemNetwork) -> MovesOf:
    # One memo per queue: a tandem state's moves are those of its first
    # queue's content followed by those of its second queue's content.
    first = queue_moves(
        net.rate_fn_1, net.swapping, _completion(1, _first_served, lambda oc: oc)
    )
    second = queue_moves(
        net.rate_fn_2, net.swapping, _completion(2, _second_served, lambda oc: oc)
    )

    def moves_of(state):
        return state, first(state[0]) + second(state[1])

    return moves_of


def _run_replication(
    moves_of: MovesOf,
    initial: Any,
    cfg: SimConfig,
    rng: random.Random,
    trace: TraceFn | None,
) -> tuple[dict, dict]:
    """One replication of the exponential race: time-weighted occupancy
    fractions by key, and event counters, both in first-seen key order."""
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
        _, advance, arg, counts, tag = chosen
        if (step >= warm_events) if by_events else (now >= warm_time):
            hits[counts] = hits.get(counts, 0) + 1
        if trace is not None:
            if tag[0] == "complete":
                outcome = tag[2]
                trace(now + dt, f"complete-q{tag[1][0]}", outcome.chain,
                      outcome.departing_class)
            else:
                trace(now + dt, f"{tag[0]}-{tag[1]}", (), None)
        now += dt
        state = advance(state, arg)
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
        moves_of = _open_moves(model, capacity)
        start = initial if initial is not None else ()
    elif isinstance(model, ClosedQueue):
        moves_of = _closed_moves(model)
        start = initial if initial is not None else model.initial_state()
    elif isinstance(model, TandemNetwork):
        moves_of = _tandem_moves(model)
        start = initial if initial is not None else model.initial_state()
    else:
        raise UsageError(f"cannot simulate {type(model).__name__}")
    runs = [
        _run_replication(moves_of, start, cfg, _rep_rng(cfg.seed, rep),
                         trace if rep == 0 else None)
        for rep in range(cfg.replications)
    ]
    return _aggregate([occ for occ, _ in runs],
                      [counters for _, counters in runs], [{} for _ in runs])


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

    def snapshot(self) -> tuple:
        """The state as a hashable ``(free tokens, buffers, waiting)``."""
        return tuple(self.free_tokens), tuple(self.buffers), tuple(self.waiting)

    def restore(self, state: tuple) -> None:
        """Return to a state taken by :meth:`snapshot`."""
        free_tokens, buffers, waiting = state
        self.free_tokens = list(free_tokens)
        self.buffers = list(buffers)
        self.waiting = list(waiting)
        self.waiting_counts = [waiting.count(k) for k in range(len(self.types))]

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


def _protocol_moves(sim: ProtocolSimulator) -> MovesOf:
    """Memoized moves of the protocol, keyed by ``sim.snapshot()``.  A
    state's held-count key and moves are read off ``sim`` on the state's
    first visit, and each move's next state is what ``sim.apply`` makes."""
    arrivals = [f"arrivals:{t}" for t in sim.types]
    rejections = [f"rejections:{t}" for t in sim.types]

    @functools.cache
    def moves_of(state):
        sim.restore(state)
        key = sim.held_counts()
        moves = []
        for rate, tag in sim.transitions():
            sim.restore(state)
            result = sim.apply(tag)
            if tag[0] == "complete":
                counts = ("completions",)
            elif result == "reject":
                counts = (arrivals[tag[1]], rejections[tag[1]])
            else:
                counts = (arrivals[tag[1]],)
            moves.append((rate, _goto, sim.snapshot(), counts, (*tag, result)))
        return key, tuple(moves)

    return moves_of


def simulate_protocol(spec: ClusterSpec, cfg: SimConfig) -> SimResult:
    """Simulate the assignment protocol directly from its operational
    description, independent of the tandem encoding.

    Occupancy is keyed by the held-token count vector (spec class order);
    per-type blocking fractions carry standard errors across replications.
    """
    sim = ProtocolSimulator(spec)
    start = sim.snapshot()
    moves_of = _protocol_moves(sim)
    occ_reps, counter_reps, fraction_reps = [], [], []
    for rep in range(cfg.replications):
        occupancy, seen = _run_replication(
            moves_of, start, cfg, _rep_rng(cfg.seed, rep), None
        )
        # The protocol reports completions first, then arrivals and
        # rejections by type, zeros included.
        counters = {}
        if "completions" in seen:
            counters["completions"] = seen["completions"]
        fractions = {}
        for t in sim.types:
            arrivals = counters[f"arrivals:{t}"] = seen.get(f"arrivals:{t}", 0.0)
            rejections = counters[f"rejections:{t}"] = seen.get(
                f"rejections:{t}", 0.0
            )
            fractions[f"blocking:{t}"] = (
                rejections / arrivals if arrivals else 0.0
            )
        occ_reps.append(occupancy)
        counter_reps.append(counters)
        fraction_reps.append(fractions)
    return _aggregate(occ_reps, counter_reps, fraction_reps)
