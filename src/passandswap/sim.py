"""Discrete-event simulation by exponential races.

Every event resamples all clocks from scratch: with exponential holding
times that is distributionally exact and keeps the implementation trivially
auditable.  A fixed seed fully determines a run, replication streams are
derived deterministically from it, and results aggregate across
replications with standard errors.

All four simulators share one event loop, :func:`_run_replication`, over
integer-indexed tables.  A *part* is a protocol state, a single queue's
state, or the content of one queue of a tandem.  A run gives a part an id
the first time it visits it and reads the part's moves once, each a
:data:`closed.Move` ``(rate, next, handed, counts, tag)``, into flat
per-move arrays that one per-part offset list slices: the running sums of
the part's move rates, and per move the next part (its id if it has one
when the row is built, else resolved to an id the first time the move is
taken), the class handed to the other queue, and the counters it adds to.
The open, closed and tandem models' moves are those of
:func:`closed.queue_moves`, the protocol's are built from the pure
``ProtocolSimulator.transitions``, ``.apply`` and ``.held_counts``.  A
tandem's state is a pair of ids, one per queue, and a departing customer
reaches the other queue's tail through a flat table of ``(id, class) ->
id``; a single-part model runs the same loop beside a second table whose
one part has no moves.  Occupancy accumulates under integer codes, mapped
back to keys in first-seen order at the end, after the int-keyed dict is
copied into two arrays and freed.  The tables live for one ``simulate`` or
``simulate_protocol`` call and are shared by its replications, then
dropped before the replications are aggregated; memory grows with the
distinct parts a run visits, and nothing is evicted.  The loop draws, sums
and compares exactly as a per-event recomputation of the moves would, so
seeded results do not depend on the tables.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import log
from typing import Any, Callable, Hashable, Mapping, Sequence

from .closed import ClosedQueue, Move, TandemNetwork, queue_moves
from .cluster import ClusterSpec
from .dynamics import apply_completion
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
        if self.events is not None and (
            not isinstance(self.events, int) or isinstance(self.events, bool)
            or self.events <= 0
        ):
            raise UsageError(f"events must be a positive integer, got "
                             f"{self.events!r}")
        # ``now >= time`` never holds for a NaN or an infinite horizon
        if self.time is not None and not 0.0 < self.time < math.inf:
            raise UsageError(f"time must be positive and finite, got "
                             f"{self.time!r}")
        if not 0.0 <= self.warmup < 1.0:
            raise UsageError("warmup must lie in [0, 1)")
        reps = self.replications
        if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
            raise UsageError(f"replications must be a positive integer, got "
                             f"{reps!r}")


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
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _aggregate(
    occ_reps: list[dict], counter_reps: list[dict], fraction_reps: list[dict]
) -> SimResult:
    tables: list[dict] = []
    for reps in (occ_reps, counter_reps, fraction_reps):
        if len(reps) == 1:
            # one replication: its own mean (no value is -0.0), no spread
            tables += [{k: float(v) for k, v in reps[0].items()},
                       dict.fromkeys(reps[0], 0.0)]
            continue
        # The keys of every replication in first-seen order.  Merging dicts
        # reuses the hashes they store, so a key is hashed only where a later
        # replication looks it up and where the two tables take it.
        keys: dict[Hashable, Any] = {}
        for rep in reps:
            keys.update(rep)
        # Each replication's values in that order, read lazily; the first
        # replication's keys lead it, in their own order.
        first = reps[0]
        columns = [chain(first.values(), repeat(0.0, len(keys) - len(first)))]
        columns += [map(rep.get, keys, repeat(0.0)) for rep in reps[1:]]
        means: dict[Hashable, float] = {}
        errs: dict[Hashable, float] = {}
        for k, values in zip(keys, zip(*columns)):
            means[k], errs[k] = _mean_stderr(values)
        tables += [means, errs]
    return SimResult(*tables, len(occ_reps))


def _rep_rng(seed: int, rep: int) -> random.Random:
    # str seeding hashes through sha512, deterministic across runs.
    return random.Random(f"{seed}/{rep}")


# An occupancy code holds a key id above the low bits and a second part id
# in them.
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1


class _Table:
    """The rows of the parts of one queue, or of the protocol, that a run
    has visited, stored flat: part ``p``'s moves, as given, are the entries
    ``lo[p]`` to ``lo[p + 1]`` of the per-move arrays.

    Per move, ``cum`` holds the running sum of the part's move rates in the
    first table of a run, to pick a move by bisection, and ``rates`` the
    rate in the second, whose rates are added to the first's total one by
    one; ``next`` holds the next part's id, or the part as given while it
    has none; ``handed`` the class handed to the other queue, ``-1`` for
    none; ``counter`` the id of the counters the move adds to.  Per part,
    the lists ``lo``, ``total`` (the first table's total rate) and ``code``
    hand the event loop the objects they hold, where an array would box a
    new one on every read, and ``appended`` holds ``width`` slots, the part
    that receives each class at its tail, ``-1`` until first needed.
    """

    def __init__(
        self,
        rows_of: Callable[[Any], Sequence[Move]],
        counter_ids: dict[tuple[str, ...], int],
        key_of: Callable[[Any], Hashable] | None = None,
        summed: bool = True,
        width: int = 0,
    ):
        self.rows_of = rows_of
        self.counter_ids = counter_ids  # shared by the tables of one run
        self.key_of = key_of  # None: a part is its own occupancy key
        self.summed = summed
        self.width = width  # classes a part can receive at its tail
        self.ids: dict[Any, int] = {}
        self.parts: list = []
        self.keys: dict[Hashable, int] = {}
        self.code: list[int] = []  # key id << _SHIFT
        self.lo = [0]
        self.total: list[float] = []
        self.cum = array("d")
        self.rates = array("d")
        self.next: list = []
        self.handed = array("q")
        self.counter = array("q")
        self.appended = array("q")
        self._unset = array("q", [-1]) * width  # a new part's tail slots

    def id(self, part: Any) -> int:
        """The id of ``part``, reading its rows on first sight."""
        ids = self.ids
        p = ids.get(part)
        if p is not None:
            return p
        p = ids[part] = len(self.parts)
        self.parts.append(part)
        kid = p if self.key_of is None else self.keys.setdefault(
            self.key_of(part), len(self.keys))
        self.code.append(kid << _SHIFT)
        rows = self.rows_of(part)
        rates, nexts, handed, counts, _ = zip(*rows) if rows else ((),) * 5
        if self.summed:
            self.cum.extend(accumulate(rates))
            self.total.append(self.cum[-1] if rates else 0.0)
        else:
            self.rates.extend(rates)
        self.next += [ids.get(after, after) for after in nexts]
        self.handed.extend([-1 if cls is None else cls for cls in handed])
        counter_ids = self.counter_ids
        self.counter.extend([counter_ids.setdefault(c, len(counter_ids))
                             for c in counts])
        self.lo.append(len(self.next))
        self.appended += self._unset
        return p

    def append(self, p: int, cls: int) -> int:
        """The id of part ``p`` with a ``cls`` customer joined at its tail."""
        q = self.appended[p * self.width + cls] = self.id(
            self.parts[p] + (cls,))
        return q

    def key_names(self) -> list:
        """Occupancy keys by key id."""
        return self.parts if self.key_of is None else list(self.keys)


def _no_moves(part: Any) -> tuple:
    return ()


def _run_replication(
    first: _Table,
    second: _Table | None,
    initial: Any,
    cfg: SimConfig,
    rng: random.Random,
    trace: Callable[[float, int, Any, int], None] | None,
) -> tuple[dict, dict]:
    """One replication of the exponential race from ``initial``, a pair of
    parts when ``second`` is given and a part of ``first`` otherwise:
    time-weighted occupancy fractions by key, and event counters, both in
    first-seen key order.  ``trace(time, queue, part, move)`` hears of
    each event, with queue 0 for ``first``."""
    pair = second is not None
    if not pair:
        second = _Table(_no_moves, first.counter_ids, summed=False)
        initial = (initial, None)
    i, j = first.id(initial[0]), second.id(initial[1])
    lo1, code1, cum1, total1 = first.lo, first.code, first.cum, first.total
    next1, handed1, counter1 = first.next, first.handed, first.counter
    lo2, rates2, next2, handed2, counter2 = (
        second.lo, second.rates, second.next, second.handed, second.counter)
    appended1, width1 = first.appended, first.width
    appended2, width2 = second.appended, second.width
    draw = rng.random
    occupancy: dict[int, float] = {}
    hits: dict[int, int] = {}
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
        total = first_total = total1[i]
        start2, end2 = lo2[j], lo2[j + 1]
        if end2 > start2:
            for rate in rates2[start2:end2]:
                total += rate
        if total <= 0.0:
            state = (first.parts[i], second.parts[j]) if pair else first.parts[i]
            raise DeadlockError(f"no enabled event in state {state!r}")
        dt = -log(1.0 - draw()) / total  # ``rng.expovariate(total)``
        if by_events:
            weight = dt if step >= warm_events else 0.0
        else:
            start = max(now, warm_time)
            end = min(now + dt, horizon_time)
            weight = max(0.0, end - start)
        if weight > 0.0:
            code = code1[i] | j
            occupancy[code] = occupancy.get(code, 0.0) + weight
            tracked += weight
        pick = draw() * total
        # ``m`` indexes the flat rows of the chosen queue's table
        queue = 0
        if pick < first_total:
            # the first running sum above ``pick``, as a scan would find
            m = bisect_right(cum1, pick, lo1[i], lo1[i + 1])
        elif end2 > start2:
            # past the first queue's moves: scan the second's, falling
            # back on its last move
            queue = 1
            acc = first_total
            for m in range(start2, end2):
                acc += rates2[m]
                if pick < acc:
                    break
        else:
            m = lo1[i + 1] - 1
        if trace is not None:
            trace(now + dt, queue,
                  second.parts[j] if queue else first.parts[i],
                  m - (start2 if queue else lo1[i]))
        # Take the move; the two branches mirror each other, kept apart so
        # that the hot path reads no table by queue.
        if queue == 0:
            after = next1[m]
            if type(after) is not int:
                after = next1[m] = first.id(after)
            counter = counter1[m]
            cls = handed1[m]
            if cls >= 0:
                got = appended2[j * width2 + cls]
                j = got if got >= 0 else second.append(j, cls)
            i = after
        else:
            after = next2[m]
            if type(after) is not int:
                after = next2[m] = second.id(after)
            counter = counter2[m]
            cls = handed2[m]
            if cls >= 0:
                got = appended1[i * width1 + cls]
                i = got if got >= 0 else first.append(i, cls)
            j = after
        if (step >= warm_events) if by_events else (now >= warm_time):
            hits[counter] = hits.get(counter, 0) + 1
        now += dt
        step += 1

    # the int-keyed dict is freed before the keyed result is built
    codes, weights = array("q", occupancy), array("d", occupancy.values())
    del occupancy
    keys1 = first.key_names()
    parts2 = second.parts
    out: dict[Hashable, float] = {}
    for code, weight in zip(codes, weights):
        key = keys1[code >> _SHIFT]
        out[(key, parts2[code & _LOW]) if pair else key] = weight / tracked
    # Counting each move's whole counts tuple at once and expanding it
    # here keeps the counters' values and their first-seen order.
    names = list(first.counter_ids)
    counters: dict[str, int] = {}
    for counter, n in hits.items():
        for name in names[counter]:
            counters[name] = counters.get(name, 0) + n
    return out, {name: float(n) for name, n in counters.items()}


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
    if isinstance(model, PandsQueue) and capacity is None:
        raise UsageError("open models need an explicit capacity")
    queues = queue_moves(model, capacity)
    counter_ids: dict[tuple[str, ...], int] = {}
    if isinstance(model, TandemNetwork):
        first = _Table(queues[0], counter_ids, width=model.n_classes)
        second = _Table(queues[1], counter_ids, summed=False,
                        width=model.n_classes)
    else:
        first = _Table(queues[0], counter_ids)
        second = None
    if initial is None:
        initial = () if isinstance(model, PandsQueue) else model.initial_state()

    def traced(t: float, queue: int, content: Any, m: int) -> None:
        # Rebuild the chosen move, and a completion's chain, for the log line.
        tag = queues[queue](content)[m][4]
        if tag[0] == "complete":
            chain = apply_completion(model.swapping, content, tag[1][1]).chain
            trace(t, f"complete-q{tag[1][0]}", chain, tag[2])
        else:
            trace(t, f"{tag[0]}-{tag[1]}", (), None)

    runs = [
        _run_replication(first, second, initial, cfg, _rep_rng(cfg.seed, rep),
                         traced if rep == 0 and trace is not None else None)
        for rep in range(cfg.replications)
    ]
    del first, second  # the tables, before the results are aggregated
    return _aggregate([occ for occ, _ in runs],
                      [counters for _, counters in runs], [{} for _ in runs])


class ProtocolSimulator:
    """Pure definition of the slot-token assignment protocol on bipartite
    cluster specifications.

    Machines keep fixed-length buffers served oldest-first; the dispatcher
    keeps released machine tokens in release order and a bounded number of
    waiting jobs per type in arrival order.  An arriving job takes the
    longest-released compatible token if any, waits if its type still has a
    free waiting slot, and is rejected otherwise; a completion hands the
    freed slot to the oldest waiting compatible job, or releases its token.

    A state is ``(released, waiting)``: those two queues, as tuples of
    machine and of type indices.  Machine ``s`` holds ``buffer_len[s] -
    released.count(s)`` jobs, and in :attr:`start` all its tokens are
    released.  The methods return new states and never change ``self``.

    This never consults the tandem encoding, so it can cross-validate it.
    """

    def __init__(self, spec: ClusterSpec):
        type_names = spec.job_types
        machine_names = spec.machines
        if (
            set(type_names) & set(machine_names)
            or set(spec.classes) != set(type_names) | set(machine_names)
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
            tuple(k for k, ms in enumerate(self.compat) if s in ms)
            for s in range(len(machine_names))
        ]
        released = (s for s, n in enumerate(self.buffer_len) for _ in range(n))
        self.start: tuple = (tuple(released), ())

    def transitions(self, state: tuple) -> list[tuple[float, tuple]]:
        """The enabled ``(rate, tag)`` events: arrivals, then completions."""
        released = state[0]
        moves = []
        for k, rate in enumerate(self.arrival_rates):
            if rate > 0.0:
                moves.append((rate, ("arrive", k)))
        for s, rate in enumerate(self.machine_rates):
            if released.count(s) < self.buffer_len[s]:
                moves.append((rate, ("complete", s)))
        return moves

    def apply(self, state: tuple, tag: tuple) -> tuple[tuple, str]:
        """The state after event ``tag`` and what happened: "commit",
        "wait", "reject", "release", or "reseize"."""
        released, waiting = state
        kind = tag[0]
        if kind == "arrive":
            k = tag[1]
            for idx, s in enumerate(released):
                if s in self.compat[k]:
                    return (released[:idx] + released[idx + 1:], waiting), "commit"
            if waiting.count(k) < self.wait_len[k]:
                return (released, waiting + (k,)), "wait"
            return state, "reject"
        if kind == "complete":
            s = tag[1]
            if released.count(s) >= self.buffer_len[s]:
                raise UsageError(f"machine {s} has no job to complete")
            for idx, k in enumerate(waiting):
                if k in self.serves[s]:
                    return (released, waiting[:idx] + waiting[idx + 1:]), "reseize"
            return (released + (s,), waiting), "release"
        raise UsageError(f"unknown event tag {tag!r}")

    def held_counts(self, state: tuple) -> tuple[int, ...]:
        """Tokens held by jobs, per token class, in spec class order."""
        released, waiting = state
        out = []
        for name in self.spec.classes:
            if name in self.type_ids:
                out.append(waiting.count(self.type_ids[name]))
            else:
                s = self.machine_ids[name]
                out.append(self.buffer_len[s] - released.count(s))
        return tuple(out)


def _protocol_rows(sim: ProtocolSimulator) -> Callable[[Any], list[Move]]:
    """The moves of the protocol from a protocol state: each enabled event
    of ``sim.transitions``, in order, with the next state that
    ``sim.apply`` returns, the counters its outcome adds to, and the event
    tag followed by that outcome."""
    arrivals = [f"arrivals:{t}" for t in sim.types]
    rejections = [f"rejections:{t}" for t in sim.types]

    def rows_of(state):
        out = []
        for rate, tag in sim.transitions(state):
            after, result = sim.apply(state, tag)
            if tag[0] == "complete":
                counts = ("completions",)
            elif result == "reject":
                counts = (arrivals[tag[1]], rejections[tag[1]])
            else:
                counts = (arrivals[tag[1]],)
            out.append((rate, after, None, counts, (*tag, result)))
        return out

    return rows_of


def _protocol_result(types: Sequence[str], runs: list[tuple[dict, dict]]
                     ) -> SimResult:
    """Aggregate protocol replications: completions first, then arrivals
    and rejections by type, zeros included, and blocking by type."""
    counter_reps, fraction_reps = [], []
    for _, seen in runs:
        counters = {}
        if "completions" in seen:
            counters["completions"] = seen["completions"]
        fractions = {}
        for t in types:
            arrivals = counters[f"arrivals:{t}"] = seen.get(f"arrivals:{t}", 0.0)
            rejections = counters[f"rejections:{t}"] = seen.get(
                f"rejections:{t}", 0.0
            )
            fractions[f"blocking:{t}"] = (
                rejections / arrivals if arrivals else 0.0
            )
        counter_reps.append(counters)
        fraction_reps.append(fractions)
    return _aggregate([occ for occ, _ in runs], counter_reps, fraction_reps)


def simulate_protocol(spec: ClusterSpec, cfg: SimConfig) -> SimResult:
    """Simulate the assignment protocol directly from its operational
    description, independent of the tandem encoding.

    Occupancy is keyed by the held-token count vector (spec class order);
    per-type blocking fractions carry standard errors across replications.
    """
    sim = ProtocolSimulator(spec)
    table = _Table(_protocol_rows(sim), {}, key_of=sim.held_counts)
    runs = [
        _run_replication(table, None, sim.start, cfg, _rep_rng(cfg.seed, rep),
                         None)
        for rep in range(cfg.replications)
    ]
    del table
    return _protocol_result(sim.types, runs)
