"""Versioned JSON model descriptions and their conversions.

External formats use 1-based class identifiers and head-first state arrays;
the in-memory API is 0-based throughout.  Parsers are strict: unknown fields
and unknown schema versions are rejected rather than guessed at.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .closed import (
    ClosedQueue,
    TandemNetwork,
    TandemState,
    order_from_state,
)
from .cluster import ClusterSpec, CompiledTandem
from .errors import ModelFormatError, StructureError
from .model import (
    Macrostate,
    MultiServerRates,
    PandsQueue,
    RateFunction,
    State,
    SwappingGraph,
    TableRates,
    macrostate,
)

SCHEMA_OPEN = "pands-open/1"
SCHEMA_CLOSED = "pands-closed/1"
SCHEMA_TANDEM = "pands-tandem/1"
SCHEMA_CLUSTER = "pands-cluster/1"


def _check_fields(obj: Mapping[str, Any], required: set[str],
                  optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ModelFormatError(f"{where}: missing fields {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ModelFormatError(f"{where}: unknown fields {sorted(unknown)}")


def _is_int(value: Any) -> bool:
    """A JSON integer: ``true`` and ``2.0`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _class_count(doc: Mapping[str, Any]) -> int:
    n = doc["classes"]
    if not _is_int(n) or n < 1:
        raise ModelFormatError(f"classes: expected a positive integer, got {n!r}")
    return n


def _class_index(value: Any, n_classes: int, where: str) -> int:
    if not _is_int(value):
        raise ModelFormatError(f"{where}: class ids must be integers")
    if not 1 <= value <= n_classes:
        raise ModelFormatError(
            f"{where}: class id {value} outside 1..{n_classes}"
        )
    return value - 1


def _array(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ModelFormatError(f"{where}: expected an array")
    return value


def _state(values: Any, n_classes: int, where: str) -> State:
    return tuple(
        _class_index(v, n_classes, where) for v in _array(values, where)
    )


def _number(value: Any, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ModelFormatError(f"{where}: expected a number")
    return float(value)


def _finite(value: Any, where: str) -> float:
    number = _number(value, where)
    if not math.isfinite(number):  # json reads bare NaN and Infinity
        raise ModelFormatError(f"{where}: must be finite")
    return number


def _positive(value: Any, where: str) -> float:
    number = _number(value, where)
    if not number > 0:  # refuses NaN too, which compares false
        raise ModelFormatError(f"{where}: must be positive")
    return _finite(number, where)


def _slots(value: Any, where: str) -> float:
    if value is None or value == "inf":
        return float("inf")
    if not _is_int(value) or value < 1:
        raise ModelFormatError(f"{where}: slot counts are positive integers, "
                               f"null, or \"inf\"")
    return float(value)


def _name(value: Any, where: str) -> str:
    return str(value)


def _pair(value: Any, where: str) -> tuple[str, str]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ModelFormatError(f"{where}: expected a pair of names")
    return str(value[0]), str(value[1])


def _names(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ModelFormatError(f"{where}: expected an array of names")
    return tuple(str(v) for v in value)


def _bindings(value: Any, where: str) -> dict[str, tuple[str, ...]]:
    if not isinstance(value, dict):
        raise ModelFormatError(f"{where}: expected an object")
    return {str(k): _names(v, where) for k, v in value.items()}


def _table(rows: Any, where: str, **readers) -> list[tuple]:
    """The rows of a table, each row's fields checked against ``readers``
    and read, in that order, by their ``reader(value, location)``."""
    out = []
    for row in _array(rows, where):
        _check_fields(row, set(readers), set(), where)
        out.append(tuple(
            read(row[name], f"{where}.{name}") for name, read in readers.items()
        ))
    return out


def _rate_function(obj: Any, n_classes: int, where: str) -> RateFunction:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ModelFormatError(f"{where}: rate function needs a 'kind'")
    kind = obj["kind"]
    if kind == "multi_server":
        _check_fields(obj, {"kind", "server_rates", "compat"}, set(), where)
        rates = [
            _positive(r, f"{where}.server_rates")
            for r in _array(obj["server_rates"], f"{where}.server_rates")
        ]
        n_servers = len(rates)
        compat = []
        if len(_array(obj["compat"], f"{where}.compat")) != n_classes:
            raise ModelFormatError(
                f"{where}: compat must list servers for each of the "
                f"{n_classes} classes"
            )
        for row in obj["compat"]:
            servers = set()
            for s in _array(row, f"{where}.compat"):
                if not _is_int(s) or not 1 <= s <= n_servers:
                    raise ModelFormatError(
                        f"{where}.compat: server id {s!r} outside 1..{n_servers}"
                    )
                servers.add(s - 1)
            compat.append(frozenset(servers))
        return MultiServerRates(tuple(rates), tuple(compat))
    if kind == "table":
        _check_fields(obj, {"kind", "entries"}, {"saturation"}, where)

        def counts(value: Any, at: str) -> Macrostate:
            if not (isinstance(value, list) and len(value) == n_classes
                    and all(_is_int(v) and v >= 0 for v in value)):
                raise ModelFormatError(f"{where}.entries: bad macrostate {value}")
            return tuple(value)

        def subset(value: Any, at: str) -> frozenset[int]:
            return frozenset(_state(value, n_classes, f"{where}.saturation"))

        def keyed(field: str, key: str, read: Callable) -> dict:
            """The rows of ``field`` as a dict; a key given twice is an
            error, named as its later row gives it."""
            out = {}
            rows = _table(obj[field], f"{where}.{field}",
                          **{key: read}, rate=_finite)
            for row, (k, rate) in zip(obj[field], rows):
                if k in out:
                    raise ModelFormatError(
                        f"{where}.{field}: duplicate {key} {row[key]}"
                    )
                out[k] = rate
            return out

        entries = keyed("entries", "macrostate", counts)
        saturation = None
        if "saturation" in obj:
            saturation = keyed("saturation", "subset", subset)
        return TableRates(n_classes, entries, saturation)
    raise ModelFormatError(f"{where}: unknown rate function kind {kind!r}")


def _rate_function_doc(rf: RateFunction) -> dict:
    if isinstance(rf, MultiServerRates):
        return {
            "kind": "multi_server",
            "server_rates": list(rf.server_rates),
            "compat": [sorted(s + 1 for s in row) for row in rf.compat],
        }
    if isinstance(rf, TableRates):
        doc: dict[str, Any] = {
            "kind": "table",
            "entries": [
                {"macrostate": list(k), "rate": v}
                for k, v in sorted(rf.entries.items())
            ],
        }
        if rf.saturation is not None:
            doc["saturation"] = [
                {"subset": sorted(i + 1 for i in k), "rate": v}
                for k, v in sorted(
                    rf.saturation.items(), key=lambda kv: sorted(kv[0])
                )
            ]
        return doc
    raise ModelFormatError(
        f"cannot serialize rate function of type {type(rf).__name__}"
    )


def _swapping(obj: Any, n_classes: int, where: str) -> SwappingGraph:
    if not isinstance(obj, list):
        raise ModelFormatError(f"{where}: expected an array of pairs")
    pairs = []
    for pair in obj:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ModelFormatError(f"{where}: edges are two-element arrays")
        pairs.append(
            (
                _class_index(pair[0], n_classes, where),
                _class_index(pair[1], n_classes, where),
            )
        )
    return SwappingGraph.from_pairs(n_classes, pairs)


@dataclass(frozen=True)
class LoadedOpen:
    queue: PandsQueue


@dataclass(frozen=True)
class LoadedClosed:
    queue: ClosedQueue
    initial: State


@dataclass(frozen=True)
class LoadedTandem:
    network: TandemNetwork
    initial: TandemState
    class_names: tuple[str, ...] | None


@dataclass(frozen=True)
class LoadedCluster:
    spec: ClusterSpec


LoadedModel = LoadedOpen | LoadedClosed | LoadedTandem | LoadedCluster


def parse_document(doc: Any) -> LoadedModel:
    """Parse a model document of any supported schema."""
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ModelFormatError("model documents need a 'schema' field")
    schema = doc["schema"]
    if schema == SCHEMA_OPEN:
        return _parse_open(doc)
    if schema == SCHEMA_CLOSED:
        return _parse_closed(doc)
    if schema == SCHEMA_TANDEM:
        return _parse_tandem(doc)
    if schema == SCHEMA_CLUSTER:
        return _parse_cluster(doc)
    raise ModelFormatError(f"unknown schema version {schema!r}")


def load_path(path: str | Path) -> LoadedModel:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from None
    return parse_document(doc)


def _parse_open(doc: Mapping[str, Any]) -> LoadedOpen:
    _check_fields(
        doc,
        {"schema", "classes", "arrival_rates", "rate_function",
         "swapping_edges"},
        set(),
        "open model",
    )
    n = _class_count(doc)
    rates = tuple(
        _positive(r, "arrival_rates")
        for r in _array(doc["arrival_rates"], "arrival_rates")
    )
    if len(rates) != n:
        raise ModelFormatError("arrival_rates must list one rate per class")
    rf = _rate_function(doc["rate_function"], n, "rate_function")
    graph = _swapping(doc["swapping_edges"], n, "swapping_edges")
    return LoadedOpen(PandsQueue(rates, rf, graph))


def _parse_closed(doc: Mapping[str, Any]) -> LoadedClosed:
    _check_fields(
        doc,
        {"schema", "classes", "rate_function", "swapping_edges",
         "initial_state"},
        set(),
        "closed model",
    )
    n = _class_count(doc)
    rf = _rate_function(doc["rate_function"], n, "rate_function")
    graph = _swapping(doc["swapping_edges"], n, "swapping_edges")
    initial = _state(doc["initial_state"], n, "initial_state")
    population = macrostate(initial, n)
    if any(k == 0 for k in population):
        raise ModelFormatError(
            "initial_state must contain at least one customer of every class"
        )
    queue = ClosedQueue(rf, graph, population)
    return LoadedClosed(queue, initial)


def _parse_tandem(doc: Mapping[str, Any]) -> LoadedTandem:
    _check_fields(
        doc,
        {"schema", "classes", "rate_function_1", "rate_function_2",
         "swapping_edges", "initial_state_1", "initial_state_2"},
        {"class_names"},
        "tandem model",
    )
    n = _class_count(doc)
    rf1 = _rate_function(doc["rate_function_1"], n, "rate_function_1")
    rf2 = _rate_function(doc["rate_function_2"], n, "rate_function_2")
    graph = _swapping(doc["swapping_edges"], n, "swapping_edges")
    c0 = _state(doc["initial_state_1"], n, "initial_state_1")
    d0 = _state(doc["initial_state_2"], n, "initial_state_2")
    population = macrostate(c0 + d0, n)
    if any(k == 0 for k in population):
        raise ModelFormatError(
            "the tandem must hold at least one token of every class"
        )
    order = order_from_state(graph, c0 + tuple(reversed(d0)))
    if order is None:
        raise StructureError(
            "the initial tandem state adheres to no placement order"
        )
    names = None
    if "class_names" in doc:
        names = _names(doc["class_names"], "class_names")
        if len(names) != n:
            raise ModelFormatError("class_names must name every class")
    net = TandemNetwork(rf1, rf2, graph, population, order)
    return LoadedTandem(net, (c0, d0), names)


def _parse_cluster(doc: Mapping[str, Any]) -> LoadedCluster:
    _check_fields(
        doc,
        {"schema", "job_types", "machines"},
        {"groups", "token_dag"},
        "cluster spec",
    )
    if "groups" in doc and "token_dag" in doc:
        raise ModelFormatError("give either groups or token_dag, not both")

    if "token_dag" in doc:
        types = _table(doc["job_types"], "job_types", name=_name, rate=_positive)
        machines = _table(doc["machines"], "machines", name=_name,
                          rate=_positive)
        dag = doc["token_dag"]
        _check_fields(dag, {"classes", "arcs", "machine_bindings",
                            "type_bindings"}, set(), "token_dag")
        classes = _table(dag["classes"], "token_dag.classes", name=_name,
                         count=_slots)
        return LoadedCluster(ClusterSpec(
            classes=tuple(name for name, _ in classes),
            arcs=tuple(_pair(p, "token_dag.arcs")
                       for p in _array(dag["arcs"], "token_dag.arcs")),
            counts=dict(classes),
            machines=tuple(m for m, _ in machines),
            machine_rates=dict(machines),
            machine_bindings=_bindings(dag["machine_bindings"],
                                       "token_dag.machine_bindings"),
            job_types=tuple(t for t, _ in types),
            type_rates=dict(types),
            type_bindings=_bindings(dag["type_bindings"],
                                    "token_dag.type_bindings"),
        ))

    if "groups" in doc:
        return LoadedCluster(ClusterSpec.grouped(
            _table(doc["job_types"], "job_types", name=_name, rate=_positive,
                   slots=_slots),
            _table(doc["machines"], "machines", name=_name, rate=_positive),
            _table(doc["groups"], "groups", name=_name, slots=_slots,
                   machines=_names, types=_names),
        ))

    types = _table(doc["job_types"], "job_types", name=_name, rate=_positive,
                   slots=_slots, machines=_names)
    machines = _table(doc["machines"], "machines", name=_name, rate=_positive,
                      buffer=_slots)
    return LoadedCluster(ClusterSpec.bipartite(
        [row[:3] for row in types], machines, {row[0]: row[3] for row in types}
    ))


def dump_open(queue: PandsQueue) -> dict:
    return {
        "schema": SCHEMA_OPEN,
        "classes": queue.n_classes,
        "arrival_rates": list(queue.arrival_rates),
        "rate_function": _rate_function_doc(queue.rate_fn),
        "swapping_edges": [
            [a + 1, b + 1] for a, b in sorted(queue.swapping.edges)
        ],
    }


def dump_closed(queue: ClosedQueue, initial: State) -> dict:
    return {
        "schema": SCHEMA_CLOSED,
        "classes": queue.n_classes,
        "rate_function": _rate_function_doc(queue.rate_fn),
        "swapping_edges": [
            [a + 1, b + 1] for a, b in sorted(queue.swapping.edges)
        ],
        "initial_state": [cls + 1 for cls in initial],
    }


def dump_tandem(
    net: TandemNetwork,
    initial: TandemState,
    class_names: Sequence[str] | None = None,
) -> dict:
    c0, d0 = initial
    doc = {
        "schema": SCHEMA_TANDEM,
        "classes": net.n_classes,
        "rate_function_1": _rate_function_doc(net.rate_fn_1),
        "rate_function_2": _rate_function_doc(net.rate_fn_2),
        "swapping_edges": [
            [a + 1, b + 1] for a, b in sorted(net.swapping.edges)
        ],
        "initial_state_1": [cls + 1 for cls in c0],
        "initial_state_2": [cls + 1 for cls in d0],
    }
    if class_names is not None:
        doc["class_names"] = list(class_names)
    return doc


def dump_compiled(ct: CompiledTandem) -> dict:
    """Serialize a compiled cluster as a tandem model file."""
    return dump_tandem(ct.network, ct.initial, ct.class_names)
