import json

import pytest

from passandswap import (
    ClusterSpec,
    ModelFormatError,
    StructureError,
    UnsupportedFeatureError,
    compile_cluster,
)
from passandswap.modelfile import (
    LoadedClosed,
    LoadedCluster,
    LoadedOpen,
    LoadedTandem,
    dump_closed,
    dump_compiled,
    dump_open,
    dump_tandem,
    load_path,
    parse_document,
)
from passandswap.cli import main


OPEN_DOC = {
    "schema": "pands-open/1",
    "classes": 2,
    "arrival_rates": [0.8, 0.8],
    "rate_function": {
        "kind": "multi_server",
        "server_rates": [1.0, 1.0, 1.0],
        "compat": [[1, 3], [2, 3]],
    },
    "swapping_edges": [[1, 2]],
}


def test_open_round_trip():
    loaded = parse_document(OPEN_DOC)
    assert isinstance(loaded, LoadedOpen)
    queue = loaded.queue
    assert queue.arrival_rates == (0.8, 0.8)
    assert queue.rate_fn.compat == (frozenset({0, 2}), frozenset({1, 2}))
    assert queue.swapping.edges == frozenset({(0, 1)})
    assert parse_document(dump_open(queue)).queue == queue


def test_unknown_schema_rejected():
    doc = dict(OPEN_DOC, schema="pands-open/999")
    with pytest.raises(ModelFormatError):
        parse_document(doc)


def test_unknown_field_rejected():
    doc = dict(OPEN_DOC, extra=1)
    with pytest.raises(ModelFormatError):
        parse_document(doc)
    bad_rf = dict(OPEN_DOC)
    bad_rf["rate_function"] = dict(OPEN_DOC["rate_function"], comment="x")
    with pytest.raises(ModelFormatError):
        parse_document(bad_rf)


def test_class_ids_are_one_based():
    doc = dict(OPEN_DOC, swapping_edges=[[0, 1]])
    with pytest.raises(ModelFormatError):
        parse_document(doc)


def test_table_rate_function_round_trip():
    doc = {
        "schema": "pands-open/1",
        "classes": 1,
        "arrival_rates": [0.4],
        "rate_function": {
            "kind": "table",
            "entries": [
                {"macrostate": [1], "rate": 1.0},
                {"macrostate": [2], "rate": 1.5},
            ],
            "saturation": [{"subset": [1], "rate": 2.0}],
        },
        "swapping_edges": [],
    }
    queue = parse_document(doc).queue
    assert queue.rate_fn.rate((2,)) == 1.5
    assert queue.rate_fn.saturation_rate({0}) == 2.0
    again = parse_document(dump_open(queue)).queue
    assert again.rate_fn.entries == queue.rate_fn.entries


def test_table_entries_must_be_integer_counts_and_numbers():
    def table_doc(**rf):
        rate_function = {
            "kind": "table",
            "entries": [{"macrostate": [1], "rate": 1.0}],
            "saturation": [{"subset": [1], "rate": 2.0}],
        }
        return dict(OPEN_DOC, classes=1, arrival_rates=[0.4],
                    swapping_edges=[], rate_function=dict(rate_function, **rf))

    spoiled = [
        ({"entries": [{"macrostate": [1.7], "rate": 1.0}]}, "bad macrostate"),
        ({"entries": [{"macrostate": [True], "rate": 1.0}]}, "bad macrostate"),
        ({"entries": [{"macrostate": [-1], "rate": 1.0}]}, "bad macrostate"),
        ({"entries": [{"macrostate": [1], "rate": "x"}]},
         r"entries\.rate: expected a number"),
        ({"saturation": [{"subset": [1], "rate": "x"}]},
         r"saturation\.rate: expected a number"),
    ]
    for rf, message in spoiled:
        with pytest.raises(ModelFormatError, match=message):
            parse_document(table_doc(**rf))


def test_table_rows_must_not_repeat_a_key(capsys, tmp_path):
    def table_doc(entries, saturation):
        rate_function = {"kind": "table", "entries": entries,
                         "saturation": saturation}
        return dict(OPEN_DOC, swapping_edges=[], rate_function=rate_function)

    once = [{"macrostate": [1, 0], "rate": 1.0}]
    twice = once + [{"macrostate": [1, 0], "rate": 2.0}]
    subsets = [{"subset": [2, 1], "rate": 2.0}, {"subset": [1, 2], "rate": 3.0}]
    for doc, message in (
        (table_doc(twice, subsets[:1]),
         r"rate_function\.entries: duplicate macrostate \[1, 0\]$"),
        (table_doc(once, subsets),
         r"rate_function\.saturation: duplicate subset \[1, 2\]$"),
    ):
        with pytest.raises(ModelFormatError, match=message):
            parse_document(doc)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table_doc(twice, subsets[:1])))
    assert main(["analyze", str(path), "-N", "2"]) == 2
    assert "duplicate macrostate [1, 0]" in capsys.readouterr().err


CLOSED_DOC = {
    "schema": "pands-closed/1",
    "classes": 3,
    "rate_function": {
        "kind": "multi_server",
        "server_rates": [1.0, 1.0],
        "compat": [[1], [2], [1, 2]],
    },
    "swapping_edges": [[1, 2], [2, 3]],
    "initial_state": [1, 2, 3],
}


def test_closed_round_trip():
    loaded = parse_document(CLOSED_DOC)
    assert isinstance(loaded, LoadedClosed)
    assert loaded.initial == (0, 1, 2)
    assert loaded.queue.population == (1, 1, 1)
    doc = dump_closed(loaded.queue, loaded.initial)
    assert parse_document(doc).initial == loaded.initial


def test_closed_requires_every_class_present():
    doc = dict(CLOSED_DOC, initial_state=[1, 2])
    with pytest.raises(ModelFormatError):
        parse_document(doc)


TANDEM_DOC = {
    "schema": "pands-tandem/1",
    "classes": 2,
    "rate_function_1": {
        "kind": "multi_server",
        "server_rates": [1.0],
        "compat": [[1], [1]],
    },
    "rate_function_2": {
        "kind": "multi_server",
        "server_rates": [1.0],
        "compat": [[1], [1]],
    },
    "swapping_edges": [[1, 2]],
    "initial_state_1": [],
    "initial_state_2": [2, 1],
}


def test_tandem_round_trip():
    loaded = parse_document(TANDEM_DOC)
    assert isinstance(loaded, LoadedTandem)
    assert loaded.initial == ((), (1, 0))
    assert loaded.network.order.precedes(0, 1)
    doc = dump_tandem(loaded.network, loaded.initial, ("a", "b"))
    again = parse_document(doc)
    assert again.class_names == ("a", "b")


def test_tandem_nonadhering_initial_rejected():
    doc = dict(TANDEM_DOC, initial_state_1=[1], initial_state_2=[1],
               classes=2)
    doc["initial_state_1"] = [2, 1]
    doc["initial_state_2"] = [2, 1]
    # classes interleave across the two queues: 2 before 1 in queue 1 but
    # queue 2 reversed puts 1 before 2
    with pytest.raises(StructureError):
        parse_document(doc)


@pytest.mark.parametrize("classes", [2.5, 2.0, "2", "two", True, 0, -1, None])
def test_class_count_is_a_positive_integer(classes):
    for doc in (OPEN_DOC, CLOSED_DOC, TANDEM_DOC):
        with pytest.raises(ModelFormatError, match="classes: expected a positive"):
            parse_document(dict(doc, classes=classes))


CLUSTER_DOC = {
    "schema": "pands-cluster/1",
    "job_types": [
        {"name": "A", "rate": 1.0, "slots": 2, "machines": ["1", "3"]},
        {"name": "B", "rate": 1.0, "slots": 2, "machines": ["2", "3"]},
    ],
    "machines": [
        {"name": "1", "rate": 1.0, "buffer": 2},
        {"name": "2", "rate": 1.0, "buffer": 2},
        {"name": "3", "rate": 1.0, "buffer": 2},
    ],
}


def test_cluster_bipartite_parse_and_compile():
    loaded = parse_document(CLUSTER_DOC)
    assert isinstance(loaded, LoadedCluster)
    ct = compile_cluster(loaded.spec)
    assert set(ct.class_names) == {"A", "B", "1", "2", "3"}
    # a compiled tandem serializes to a loadable tandem model
    doc = dump_compiled(ct)
    again = parse_document(doc)
    assert isinstance(again, LoadedTandem)
    assert again.network.population == ct.network.population
    assert again.network.order.reach == ct.network.order.reach


def test_cluster_infinite_slots_parse_then_reject():
    doc = json.loads(json.dumps(CLUSTER_DOC))
    doc["job_types"][0]["slots"] = "inf"
    loaded = parse_document(doc)
    with pytest.raises(UnsupportedFeatureError):
        compile_cluster(loaded.spec)
    doc["job_types"][0]["slots"] = None
    loaded = parse_document(doc)
    with pytest.raises(UnsupportedFeatureError):
        compile_cluster(loaded.spec)


def test_cluster_grouped_parse():
    doc = {
        "schema": "pands-cluster/1",
        "job_types": [
            {"name": "A", "rate": 1.0, "slots": 1},
            {"name": "B", "rate": 1.0, "slots": 1},
        ],
        "machines": [
            {"name": "1", "rate": 1.0},
            {"name": "2", "rate": 1.0},
            {"name": "3", "rate": 1.0},
        ],
        "groups": [
            {"name": "g1", "slots": 1, "machines": ["1", "3"],
             "types": ["A"]},
            {"name": "g2", "slots": 1, "machines": ["2", "3"],
             "types": ["A", "B"]},
        ],
    }
    spec = parse_document(doc).spec
    ct = compile_cluster(spec)
    assert set(ct.class_names) == {"A", "B", "g1", "g2"}


def test_cluster_dag_parse():
    doc = {
        "schema": "pands-cluster/1",
        "job_types": [{"name": "A", "rate": 2.0}],
        "machines": [
            {"name": "m1", "rate": 1.0},
            {"name": "m2", "rate": 1.0},
        ],
        "token_dag": {
            "classes": [
                {"name": "1", "count": 1},
                {"name": "2", "count": 1},
                {"name": "3", "count": 1},
            ],
            "arcs": [["2", "1"], ["3", "1"]],
            "machine_bindings": {"2": ["m1"], "3": ["m2"]},
            "type_bindings": {"1": ["A"]},
        },
    }
    spec = parse_document(doc).spec
    ct = compile_cluster(spec)
    assert ct.network.population == (1, 1, 1)
    assert set(ct.minimal) == {ct.class_id("2"), ct.class_id("3")}


def test_load_path_bad_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_path(path)


# ------------------------------------------- cluster specs, shape by shape

INF = float("inf")

BIPARTITE_SPEC_DOC = {
    "schema": "pands-cluster/1",
    "job_types": [
        {"name": "A", "rate": 1.5, "slots": 2, "machines": ["m1", "m2"]},
        {"name": "B", "rate": 0.5, "slots": "inf", "machines": ["m2"]},
    ],
    "machines": [
        {"name": "m1", "rate": 2.0, "buffer": 1},
        {"name": "m2", "rate": 3, "buffer": None},
    ],
}

GROUPED_SPEC_DOC = {
    "schema": "pands-cluster/1",
    "job_types": [
        {"name": "A", "rate": 1.0, "slots": 1},
        {"name": "B", "rate": 2.0, "slots": 3},
    ],
    "machines": [
        {"name": "1", "rate": 1.0},
        {"name": "2", "rate": 0.5},
        {"name": "3", "rate": 4.0},
    ],
    "groups": [
        {"name": "g1", "slots": 1, "machines": ["1", "3"], "types": ["A"]},
        {"name": "g2", "slots": 2, "machines": ["2", "3"],
         "types": ["A", "B"]},
    ],
}

DAG_SPEC_DOC = {
    "schema": "pands-cluster/1",
    "job_types": [{"name": "A", "rate": 2.0}],
    "machines": [
        {"name": "m1", "rate": 1.0},
        {"name": "m2", "rate": 1.5},
    ],
    "token_dag": {
        "classes": [
            {"name": "1", "count": 1},
            {"name": "2", "count": 1},
            {"name": "3", "count": 2},
        ],
        "arcs": [["2", "1"], ["3", "1"]],
        "machine_bindings": {"2": ["m1"], "3": ["m2"]},
        "type_bindings": {"1": ["A"]},
    },
}


@pytest.mark.parametrize("doc, expected", [
    (BIPARTITE_SPEC_DOC, ClusterSpec(
        classes=("A", "B", "m1", "m2"),
        arcs=(("m1", "A"), ("m2", "A"), ("m2", "B")),
        counts={"A": 2.0, "B": INF, "m1": 1.0, "m2": INF},
        machines=("m1", "m2"),
        machine_rates={"m1": 2.0, "m2": 3.0},
        machine_bindings={"m1": ("m1",), "m2": ("m2",)},
        job_types=("A", "B"),
        type_rates={"A": 1.5, "B": 0.5},
        type_bindings={"A": ("A",), "B": ("B",)},
    )),
    (GROUPED_SPEC_DOC, ClusterSpec(
        classes=("A", "B", "g1", "g2"),
        arcs=(("g1", "A"), ("g2", "A"), ("g2", "B")),
        counts={"A": 1.0, "B": 3.0, "g1": 1.0, "g2": 2.0},
        machines=("1", "2", "3"),
        machine_rates={"1": 1.0, "2": 0.5, "3": 4.0},
        machine_bindings={"g1": ("1", "3"), "g2": ("2", "3")},
        job_types=("A", "B"),
        type_rates={"A": 1.0, "B": 2.0},
        type_bindings={"A": ("A",), "B": ("B",)},
    )),
    (DAG_SPEC_DOC, ClusterSpec(
        classes=("1", "2", "3"),
        arcs=(("2", "1"), ("3", "1")),
        counts={"1": 1.0, "2": 1.0, "3": 2.0},
        machines=("m1", "m2"),
        machine_rates={"m1": 1.0, "m2": 1.5},
        machine_bindings={"2": ("m1",), "3": ("m2",)},
        job_types=("A",),
        type_rates={"A": 2.0},
        type_bindings={"1": ("A",)},
    )),
], ids=["bipartite", "groups", "token_dag"])
def test_cluster_shapes_parse_exactly(doc, expected):
    spec = parse_document(doc).spec
    assert spec == expected
    assert all(type(v) is float for v in spec.counts.values())
    assert all(type(v) is float for v in spec.machine_rates.values())


CLUSTER_TABLES = [
    pytest.param(doc, table, id=f"{shape}-{table}")
    for shape, doc, tables in [
        ("bipartite", BIPARTITE_SPEC_DOC, ["job_types", "machines"]),
        ("groups", GROUPED_SPEC_DOC, ["job_types", "machines", "groups"]),
        ("token_dag", DAG_SPEC_DOC,
         ["job_types", "machines", "token_dag.classes"]),
    ]
    for table in tables
]


def _rows(doc, table):
    for key in table.split("."):
        doc = doc[key]
    return doc


def _bad_rows(row, table):
    """Each way to spoil ``row``, with the message its table must give."""
    for field in row:
        spoiled = dict(row)
        del spoiled[field]
        yield spoiled, rf"{table}: missing fields \['{field}'\]"
    yield dict(row, extra=1), rf"{table}: unknown fields \['extra'\]"
    if "rate" in row:
        for rate in (0, -1.0):
            yield dict(row, rate=rate), rf"^{table}\.rate: must be positive"
        yield dict(row, rate="fast"), rf"^{table}\.rate: expected a number"
    for field in ("slots", "buffer", "count"):
        if field in row:
            for slots in (0, 1.5, True, "many"):
                yield (dict(row, **{field: slots}),
                       rf"^{table}\.{field}: slot counts are positive")


@pytest.mark.parametrize("doc, table", CLUSTER_TABLES)
def test_cluster_table_rows_are_checked(doc, table):
    for spoiled, message in _bad_rows(_rows(doc, table)[0], table):
        bad = json.loads(json.dumps(doc))
        _rows(bad, table)[0] = spoiled
        with pytest.raises(ModelFormatError, match=message):
            parse_document(bad)


@pytest.mark.parametrize("doc, table", CLUSTER_TABLES)
def test_cluster_tables_and_name_lists_are_arrays(doc, table):
    bad = json.loads(json.dumps(doc))
    _rows(bad, table).append("row")
    with pytest.raises(ModelFormatError, match=f"^{table}: expected an object"):
        parse_document(bad)
    bad = json.loads(json.dumps(doc))
    holder = bad["token_dag"] if table.startswith("token_dag.") else bad
    holder[table.rpartition(".")[2]] = 3
    with pytest.raises(ModelFormatError, match=f"^{table}: expected an array"):
        parse_document(bad)
    for field, value in _rows(doc, table)[0].items():
        if isinstance(value, list):
            bad = json.loads(json.dumps(doc))
            _rows(bad, table)[0][field] = "m1"
            with pytest.raises(ModelFormatError, match="array of names"):
                parse_document(bad)


def test_token_dag_bindings_map_names_to_name_arrays():
    for key in ("machine_bindings", "type_bindings"):
        for value, message in (([["2", "m1"]], "expected an object"),
                               ({"2": "m1"}, "expected an array of names")):
            bad = json.loads(json.dumps(DAG_SPEC_DOC))
            bad["token_dag"][key] = value
            with pytest.raises(ModelFormatError, match=f"token_dag.{key}: {message}"):
                parse_document(bad)


def _exit_and_error(capsys, tmp_path, command, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    return code, capsys.readouterr().err


def test_token_dag_binding_to_an_unknown_server_exits_2(capsys, tmp_path):
    for key, binding, message in (
        ("machine_bindings", {"2": ["m1"], "3": ["mX"]},
         "unknown machine 'mX' for class '3'"),
        ("type_bindings", {"1": ["Z"]}, "unknown job type 'Z' for class '1'"),
    ):
        bad = json.loads(json.dumps(DAG_SPEC_DOC))
        bad["token_dag"][key] = binding
        code, err = _exit_and_error(capsys, tmp_path, "cluster-analyze", bad)
        assert code == 2
        assert message in err


def test_token_dag_arcs_are_pairs_of_names(capsys, tmp_path):
    for arcs, message in (
        ([["2", "1"], ["3", "1", "2"]], "expected a pair of names"),
        ([["2", "1"], "31"], "expected a pair of names"),
        ("2-1", "expected an array"),
    ):
        bad = json.loads(json.dumps(DAG_SPEC_DOC))
        bad["token_dag"]["arcs"] = arcs
        code, err = _exit_and_error(capsys, tmp_path, "validate", bad)
        assert code == 2
        assert f"token_dag.arcs: {message}" in err


def test_multi_server_tables_are_arrays_of_integer_ids(capsys, tmp_path):
    for field, value, message in (
        ("server_rates", 3, "server_rates: expected an array"),
        ("compat", 3, "compat: expected an array"),
        ("compat", [[1, 3], 2], "compat: expected an array"),
        ("compat", [[True, 3], [2, 3]], "compat: server id True outside"),
    ):
        bad = json.loads(json.dumps(OPEN_DOC))
        bad["rate_function"][field] = value
        code, err = _exit_and_error(capsys, tmp_path, "validate", bad)
        assert code == 2
        assert f"rate_function.{message}" in err


def test_arrival_rates_must_be_an_array(capsys, tmp_path):
    bad = dict(OPEN_DOC, arrival_rates=3)
    code, err = _exit_and_error(capsys, tmp_path, "validate", bad)
    assert code == 2
    assert "arrival_rates: expected an array" in err
