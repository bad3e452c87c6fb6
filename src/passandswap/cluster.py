"""Compile token-based cluster scheduling specifications into closed tandem
networks, and read protocol metrics off the tandem's stationary distribution.

A specification is a directed acyclic layer of token classes.  Minimal
classes bind to machines and become the servers of the first queue (tokens
held by jobs); maximal classes bind to job types and become the servers of
the second queue (available tokens).  Three constructors cover the common
shapes: a bipartite assignment graph between job types and machines, a
grouped variant where a job occupies every machine of a group, and a
binary-tree token hierarchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .closed import (
    PlacementOrder,
    TandemNetwork,
    TandemState,
    first_queue_marginal,
)
from .errors import (
    StructureError,
    UnsupportedFeatureError,
    UsageError,
)
from .model import Macrostate, MultiServerRates, SwappingGraph


@dataclass(frozen=True)
class ClusterSpec:
    """Token-class layer of a cluster, with machine and job-type bindings.

    ``arcs`` run from the lower class to the upper class: a lower token is
    closer to the machines.  Counts may be ``inf`` to mark an unbounded slot
    pool; the compiler recognizes and rejects that value.
    """

    classes: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    counts: Mapping[str, float]
    machines: tuple[str, ...]
    machine_rates: Mapping[str, float]
    machine_bindings: Mapping[str, tuple[str, ...]]
    job_types: tuple[str, ...]
    type_rates: Mapping[str, float]
    type_bindings: Mapping[str, tuple[str, ...]]

    @classmethod
    def bipartite(
        cls,
        job_types: Sequence[tuple[str, float, float]],
        machines: Sequence[tuple[str, float, float]],
        compat: Mapping[str, Iterable[str]],
    ) -> "ClusterSpec":
        """Assignment-graph cluster: ``job_types`` as (name, arrival rate,
        waiting slots), ``machines`` as (name, service rate, buffer length),
        ``compat`` mapping each type to its machines.

        Token classes are the types plus one class per machine; the machine
        class of ``s`` sits below every type compatible with ``s``.
        """
        type_names = tuple(name for name, _, _ in job_types)
        machine_names = tuple(name for name, _, _ in machines)
        counts = {name: slots for name, _, slots in job_types}
        counts.update({name: buf for name, _, buf in machines})
        arcs = []
        for t in type_names:
            for m in compat[t]:
                if m not in machine_names:
                    raise UsageError(f"unknown machine {m!r} for type {t!r}")
                arcs.append((m, t))
        return cls(
            classes=type_names + machine_names,
            arcs=tuple(arcs),
            counts=counts,
            machines=machine_names,
            machine_rates={name: rate for name, rate, _ in machines},
            machine_bindings={name: (name,) for name in machine_names},
            job_types=type_names,
            type_rates={name: rate for name, rate, _ in job_types},
            type_bindings={name: (name,) for name in type_names},
        )

    @classmethod
    def grouped(
        cls,
        job_types: Sequence[tuple[str, float, float]],
        machines: Sequence[tuple[str, float]],
        groups: Sequence[tuple[str, float, Iterable[str], Iterable[str]]],
    ) -> "ClusterSpec":
        """Grouped cluster: a committed job occupies every machine of its
        group.  ``groups`` entries are (name, tokens, machines, compatible
        job types)."""
        type_names = tuple(name for name, _, _ in job_types)
        machine_names = tuple(name for name, _ in machines)
        group_names = tuple(name for name, _, _, _ in groups)
        counts = {name: slots for name, _, slots in job_types}
        counts.update({name: tokens for name, tokens, _, _ in groups})
        arcs = []
        bindings = {}
        for name, _, members, types in groups:
            members = tuple(members)
            for m in members:
                if m not in machine_names:
                    raise UsageError(f"unknown machine {m!r} in group {name!r}")
            bindings[name] = members
            for t in types:
                if t not in type_names:
                    raise UsageError(f"unknown type {t!r} in group {name!r}")
                arcs.append((name, t))
        return cls(
            classes=type_names + group_names,
            arcs=tuple(arcs),
            counts=counts,
            machines=machine_names,
            machine_rates={name: rate for name, rate in machines},
            machine_bindings=bindings,
            job_types=type_names,
            type_rates={name: rate for name, rate, _ in job_types},
            type_bindings={name: (name,) for name in type_names},
        )

    @classmethod
    def hierarchical(
        cls,
        height: int,
        machine_rates: Sequence[float],
        arrival_rate: float,
    ) -> "ClusterSpec":
        """Binary-tree token hierarchy of the given height.

        Token classes are numbered ``1 .. 2**height - 1`` with one token
        each; token ``i`` swaps with tokens ``2i`` and ``2i + 1``.  The
        leaves give access to the machines, the root admits arriving jobs
        of the one job type ``"A"``.
        """
        if height < 1:
            raise UsageError("height must be at least 1")
        n_machines = 2 ** (height - 1)
        if len(machine_rates) != n_machines:
            raise UsageError(
                f"height {height} needs {n_machines} machine rates"
            )
        n_tokens = 2**height - 1
        names = tuple(str(i) for i in range(1, n_tokens + 1))
        arcs = []
        for i in range(1, n_machines):
            arcs.append((str(2 * i), str(i)))
            arcs.append((str(2 * i + 1), str(i)))
        machine_names = tuple(f"m{s + 1}" for s in range(n_machines))
        bindings = {
            str(n_machines + s): (machine_names[s],) for s in range(n_machines)
        }
        return cls(
            classes=names,
            arcs=tuple(arcs),
            counts={name: 1 for name in names},
            machines=machine_names,
            machine_rates={
                machine_names[s]: float(machine_rates[s])
                for s in range(n_machines)
            },
            machine_bindings=bindings,
            job_types=("A",),
            type_rates={"A": float(arrival_rate)},
            type_bindings={"1": ("A",)},
        )


@dataclass(frozen=True)
class CompiledTandem:
    """A cluster specification lowered to a closed tandem network."""

    spec: ClusterSpec
    network: TandemNetwork
    class_names: tuple[str, ...]
    machine_names: tuple[str, ...]
    type_names: tuple[str, ...]
    first_compat: tuple[frozenset[int], ...]
    second_compat: tuple[frozenset[int], ...]
    minimal: tuple[int, ...]
    maximal: tuple[int, ...]
    initial: TandemState

    def class_id(self, name: str) -> int:
        return self.class_names.index(name)


def _compat(
    names: Sequence[str],
    below: Sequence[int],
    bindings: Mapping[str, tuple[str, ...]],
    servers: Sequence[str],
    end: str,
    server: str,
) -> tuple[frozenset[int], ...]:
    """Server indices of each class.  ``below[i]`` masks the classes on the
    path from ``i`` to the servers; a class with none binds to servers by
    name, every other class is served by those of the classes below it."""
    index = {name: k for k, name in enumerate(servers)}
    ends = [i for i, mask in enumerate(below) if not mask]
    bound = {}
    for i in ends:
        if not bindings.get(names[i]):
            raise StructureError(f"{end} class {names[i]!r} binds to no {server}")
        for m in bindings[names[i]]:
            if m not in index:
                raise UsageError(f"unknown {server} {m!r} for class "
                                 f"{names[i]!r}")
        bound[i] = frozenset(index[m] for m in bindings[names[i]])
    return tuple(
        bound[i] if i in bound
        else frozenset().union(*(bound[j] for j in ends if below[i] >> j & 1))
        for i in range(len(names))
    )


def compile_cluster(spec: ClusterSpec) -> CompiledTandem:
    """Lower ``spec`` to a closed tandem of two multi-server queues.

    The swapping graph is the undirected class layer; the placement order
    its reachability.  First-queue compatibility ascends the order from the
    machine bindings, second-queue compatibility descends from the type
    bindings.  The initial state holds every token in the second queue,
    upper classes first.
    """
    names = spec.classes
    n = len(names)
    if len(set(names)) != n:
        raise UsageError("token class names must be unique")
    cid = {name: i for i, name in enumerate(names)}

    counts = []
    for name in names:
        k = spec.counts.get(name)
        if k is None:
            raise UsageError(f"no token count for class {name!r}")
        if math.isinf(k):
            raise UnsupportedFeatureError(
                f"class {name!r} has an unbounded token count; "
                "unbounded slot pools are not supported"
            )
        if k != int(k) or k < 1:
            raise StructureError(f"token count of {name!r} must be a positive integer")
        counts.append(int(k))

    arc_ids = []
    for low, high in spec.arcs:
        if low not in cid or high not in cid:
            raise UsageError(f"arc ({low!r}, {high!r}) names an unknown class")
        arc_ids.append((cid[low], cid[high]))
    if len(set(arc_ids)) != len(arc_ids) or any(
        (b, a) in arc_ids for a, b in arc_ids
    ):
        raise StructureError("duplicate or opposed arcs in the class layer")
    try:
        order = PlacementOrder(n, frozenset(arc_ids))
    except StructureError:
        raise StructureError("the class layer contains a cycle") from None
    swapping = SwappingGraph.from_pairs(n, arc_ids)

    minimal = order.minimal_classes()
    maximal = order.maximal_classes()
    first_compat = _compat(names, order.earlier, spec.machine_bindings,
                           spec.machines, "minimal", "machine")
    second_compat = _compat(names, order.later, spec.type_bindings,
                            spec.job_types, "maximal", "job type")

    for name, rate in {**spec.machine_rates, **spec.type_rates}.items():
        if rate <= 0.0:
            raise UsageError(f"rate of {name!r} must be positive to compile")

    rf1 = MultiServerRates.build(
        [spec.machine_rates[m] for m in spec.machines], first_compat
    )
    rf2 = MultiServerRates.build(
        [spec.type_rates[t] for t in spec.job_types], second_compat
    )
    network = TandemNetwork(rf1, rf2, swapping, tuple(counts), order)
    return CompiledTandem(
        spec,
        network,
        names,
        spec.machines,
        spec.job_types,
        tuple(first_compat),
        tuple(second_compat),
        minimal,
        maximal,
        network.initial_state(),
    )


@dataclass(frozen=True)
class ClusterMetrics:
    """Protocol-level readouts of a tandem stationary distribution.

    Blocking is the stationary probability that an arriving job of a type
    finds no token it could seize, which by Poisson arrivals equals its
    rejection probability.
    """

    blocking: Mapping[str, float]
    throughput: Mapping[str, float]
    mean_first_queue_counts: Mapping[str, float]
    mean_unassigned: Mapping[str, float]
    mean_committed: Mapping[str, float]


def macrostate_metrics(
    ct: CompiledTandem, distribution: Mapping[Macrostate, float]
) -> ClusterMetrics:
    """Compute blocking, throughput, and token-count expectations from a
    stationary distribution over the first-queue macrostates.

    A type is blocked when no class left in the second queue serves it.
    """
    n = len(ct.class_names)
    population = ct.network.population
    blocked = {t: 0.0 for t in ct.type_names}
    mean_counts = [0.0] * n
    for x, p in distribution.items():
        active: set[int] = set()
        for cls in range(n):
            if x[cls] < population[cls]:
                active |= ct.second_compat[cls]
            mean_counts[cls] += p * x[cls]
        for k, t in enumerate(ct.type_names):
            if k not in active:
                blocked[t] += p
    throughput = {
        t: ct.spec.type_rates[t] * (1.0 - blocked[t]) for t in ct.type_names
    }
    by_name = {ct.class_names[i]: mean_counts[i] for i in range(n)}
    return ClusterMetrics(
        blocking=blocked,
        throughput=throughput,
        mean_first_queue_counts=by_name,
        mean_unassigned={
            ct.class_names[i]: mean_counts[i] for i in ct.maximal
        },
        mean_committed={
            ct.class_names[i]: mean_counts[i] for i in ct.minimal
        },
    )


def metrics(
    ct: CompiledTandem, distribution: Mapping[TandemState, float]
) -> ClusterMetrics:
    """:func:`macrostate_metrics` of a stationary distribution over the
    tandem states."""
    return macrostate_metrics(
        ct, first_queue_marginal(distribution, len(ct.class_names))
    )
