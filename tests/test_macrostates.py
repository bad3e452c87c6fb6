"""The first-queue macrostate engine against the microstate path.

On every cluster fixture and on seeded random bipartite and grouped specs,
``analyze_tandem_macrostates`` must count the adhering tandem states, give
the irreducibility verdict of ``communicating_classes``, and yield the
cluster metrics of ``analyze_tandem`` to 1e-12.  Every irreducible spec of
``SPECS`` must be certified on a face of the tandem without the microstate
fallback; the reducible ones, and two irreducible bipartite specs that no
face certifies, must run that fallback once.
"""

import random
import sys
from pathlib import Path

import pytest

from passandswap import (
    ClusterSpec,
    ResourceError,
    analyze_tandem,
    analyze_tandem_macrostates,
    compile_cluster,
    enumerate_sigma,
    first_queue_macrostates,
    macrostate,
    macrostate_metrics,
    metrics,
)
from passandswap import closed
from passandswap.modelfile import parse_document

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_cli import CLUSTER_DOC  # noqa: E402
from test_cli_golden import REDUCIBLE_GROUPED_DOC  # noqa: E402

FIXTURES = {
    # the acceptance-test cluster, also the two_type_spec fixture
    "two-type": ClusterSpec.bipartite(
        [("A", 1.0, 2), ("B", 1.0, 2)],
        [("1", 1.0, 2), ("2", 1.0, 2), ("3", 1.0, 2)],
        {"A": ["1", "3"], "B": ["2", "3"]},
    ),
    "cli": parse_document(CLUSTER_DOC).spec,
    "grouped": ClusterSpec.grouped(
        [("A", 1.0, 1), ("B", 1.0, 1)],
        [("1", 1.0), ("2", 1.0), ("3", 1.0)],
        [
            ("g1", 1, ("1", "3"), ("A",)),
            ("g2", 1, ("2", "3"), ("A", "B")),
        ],
    ),
    "grouped-one-machine": ClusterSpec.grouped(
        [("A", 1.0, 1)],
        [("1", 1.0), ("2", 1.0)],
        [("g", 1, ("1", "2"), ("A",))],
    ),
    "reducible-grouped": parse_document(REDUCIBLE_GROUPED_DOC).spec,
    "hierarchical-2": ClusterSpec.hierarchical(2, [1.0, 1.0], 1.0),
    "hierarchical-3": ClusterSpec.hierarchical(3, [1.0, 1.0, 1.0, 1.0], 2.0),
}


def _random_bipartite(rng: random.Random) -> ClusterSpec:
    machines = [str(s + 1) for s in range(rng.randint(1, 3))]
    types = "ABC"[: rng.randint(1, 3)]
    compat = {t: rng.sample(machines, rng.randint(1, len(machines)))
              for t in types}
    for m in machines:  # every machine serves a type
        if not any(m in ms for ms in compat.values()):
            compat[rng.choice(types)].append(m)
    return ClusterSpec.bipartite(
        [(t, rng.uniform(0.5, 2.0), rng.randint(1, 2)) for t in types],
        [(m, rng.uniform(0.5, 2.0), rng.randint(1, 2)) for m in machines],
        compat,
    )


def _random_grouped(rng: random.Random) -> ClusterSpec:
    machines = [str(s + 1) for s in range(rng.randint(1, 3))]
    types = "AB"[: rng.randint(1, 2)]
    n_groups = rng.randint(1, 3)
    served = [[] for _ in range(n_groups)]
    for t in types:  # every type joins a group, every group serves a type
        served[rng.randrange(n_groups)].append(t)
    for g in range(n_groups):
        if not served[g]:
            served[g].append(rng.choice(types))
    return ClusterSpec.grouped(
        [(t, rng.uniform(0.5, 2.0), rng.randint(1, 2)) for t in types],
        [(m, rng.uniform(0.5, 2.0)) for m in machines],
        [
            (f"g{g + 1}", rng.randint(1, 2),
             rng.sample(machines, rng.randint(1, len(machines))), served[g])
            for g in range(n_groups)
        ],
    )


RANDOM = {
    f"bipartite-{seed}": _random_bipartite(random.Random(seed))
    for seed in range(12)
} | {
    f"grouped-{seed}": _random_grouped(random.Random(1000 + seed))
    for seed in range(24)
}

SPECS = FIXTURES | RANDOM
REDUCIBLE = ("grouped-13", "grouped-18", "grouped-20", "reducible-grouped")


def _assert_same_metrics(ct, macro_distribution, micro_distribution):
    got = macrostate_metrics(ct, macro_distribution)
    want = metrics(ct, micro_distribution)
    for field in ("blocking", "throughput", "mean_first_queue_counts"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == pytest.approx(b[key], rel=1e-12, abs=1e-12)


def _compare(spec: ClusterSpec) -> bool:
    """Check the macrostate engine against the microstate path; True when
    the spec is reducible."""
    ct = compile_cluster(spec)
    macro = analyze_tandem_macrostates(ct.network, ct.initial)
    micro = analyze_tandem(ct.network, ct.initial)
    assert macro.space == len(enumerate_sigma(ct.network))
    irreducible = micro.partition.n_components == 1
    assert (macro.states == macro.space) == irreducible
    assert macro.states == len(micro.states)
    assert macro.warnings == micro.warnings
    _assert_same_metrics(ct, macro.distribution, micro.distribution)
    return not irreducible


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_agrees_with_microstates(name):
    assert _compare(SPECS[name]) == (name == "reducible-grouped")


def test_random_specs_agree_with_microstates():
    reducible = [name for name, spec in RANDOM.items() if _compare(spec)]
    # the draws cover both verdicts, and only grouped specs split
    assert reducible
    assert all(name.startswith("grouped-") for name in reducible)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_first_queue_macrostates_are_those_of_the_adhering_space(name):
    net = compile_cluster(SPECS[name]).network
    xs = first_queue_macrostates(net.order, net.population)
    from_sigma = {
        macrostate(c, net.n_classes) for c, _ in enumerate_sigma(net)
    }
    assert set(xs) == from_sigma
    assert len(xs) == len(from_sigma)
    assert [sum(x) for x in xs] == sorted(sum(x) for x in xs)


def test_budget_is_checked_on_the_exact_count_before_any_search(monkeypatch):
    ct = compile_cluster(SPECS["cli"])
    net = ct.network
    assert analyze_tandem_macrostates(net, ct.initial, budget=96).space == 96
    assert len(analyze_tandem(net, ct.initial, budget=96).states) == 96

    def no_walk(*args):
        raise AssertionError("walked before the budget was checked")

    for name in ("analyze_tandem", "enumerate_sigma", "enumerate_adhering",
                 "_face_walk"):
        monkeypatch.setattr(closed, name, no_walk)
    message = "the adhering space needs 96 tandem states, budget 95"
    for analyze in (analyze_tandem_macrostates, analyze_tandem):
        with pytest.raises(ResourceError, match=message):
            analyze(net, ct.initial, budget=95)


def test_budget_messages_say_how_far_the_enumeration_got():
    net = compile_cluster(SPECS["cli"]).network
    for enumerate_, message in (
        (lambda: analyze_tandem(net, budget=50),
         "the adhering space needs 96 tandem states, budget 50"),
        (lambda: closed.enumerate_adhering(net.order, net.population, 5),
         "adhering state enumeration reached 6 states, budget 5"),
        (lambda: first_queue_macrostates(net.order, net.population, 3),
         "first-queue macrostate enumeration reached 4 macrostates, budget 3"),
    ):
        with pytest.raises(ResourceError, match=message):
            enumerate_()


def test_face_walks_certify_every_irreducible_spec(monkeypatch):
    def no_fallback(*args):
        raise AssertionError("fell back to the microstate analysis")

    monkeypatch.setattr(closed, "analyze_tandem", no_fallback)
    for name in sorted(set(SPECS) - set(REDUCIBLE)):
        assert not _compare(SPECS[name]), name


def test_reducible_specs_reach_the_search_and_the_microstate_fallback(
    monkeypatch,
):
    fell_back = []
    fallback = closed.analyze_tandem
    monkeypatch.setattr(closed, "analyze_tandem",
                        lambda *a: fell_back.append(a) or fallback(*a))
    for name in REDUCIBLE:
        assert _compare(SPECS[name]), name
    assert len(fell_back) == len(REDUCIBLE)


@pytest.mark.parametrize("seed", [155, 191])
def test_uncertified_irreducible_specs_keep_the_macrostate_law(
    monkeypatch, seed,
):
    # Neither face walk covers its face on these draws, so the microstate
    # partition decides; it finds one class, and the macrostate law stands.
    ct = compile_cluster(_random_bipartite(random.Random(seed)))
    fell_back = []
    fallback = closed.analyze_tandem
    monkeypatch.setattr(closed, "analyze_tandem",
                        lambda *a: fell_back.append(a) or fallback(*a))
    macro = analyze_tandem_macrostates(ct.network, ct.initial)
    assert len(fell_back) == 1
    assert macro.states == macro.space
    assert macro.warnings == ()
    micro = analyze_tandem(ct.network, ct.initial)
    _assert_same_metrics(ct, macro.distribution, micro.distribution)
