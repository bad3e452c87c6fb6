import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    MultiServerRates,
    PandsQueue,
    ResourceError,
    SwappingGraph,
    TableRates,
    balance,
    build_generator,
    flow_rates,
    macrostate_flow_identity,
    stability_check,
    state_weight,
    stationary_truncated,
    total_variation,
    verify_partial_balance,
)
from passandswap import product_form
from passandswap.closed import ProjectedRateFunction
from passandswap.oracle import unique_solution
from conftest import transition_fn
from test_sim_moves import multi_server_rates, swapping_graphs


def test_balance_of_empty_state(two_class_rates):
    w = balance(two_class_rates, ())
    assert math.exp(w) == 1.0
    assert w == 0.0


def test_balance_golden_value(two_class_rates):
    # mu(1) = 2 and mu(1,2) = 3, so the weight is 1/6
    w = balance(two_class_rates, (0, 1))
    assert math.exp(w) == pytest.approx(1 / 6)


def test_balance_recurrence(two_class_rates):
    rng = random.Random(8)
    for _ in range(1000):
        state = tuple(rng.randrange(2) for _ in range(rng.randint(1, 8)))
        w = balance(two_class_rates, state)
        w_prev = balance(two_class_rates, state[:-1])
        rate = two_class_rates.state_rate(state)
        assert math.exp(w) * rate == pytest.approx(
            math.exp(w_prev)
        )


def test_truncation_at_zero_is_point_mass(two_class_queue):
    dist = stationary_truncated(two_class_queue, 0)
    assert dist.probabilities() == {(): 1.0}


def test_truncated_distribution_matches_oracle(two_class_queue):
    dist = stationary_truncated(two_class_queue, 4)
    gen = build_generator(transition_fn(two_class_queue, 4), ())
    ref = unique_solution(gen).distribution
    assert total_variation(dist.probabilities(), ref) < 1e-10


def test_truncated_distribution_never_reads_the_graph(two_class_rates):
    queues = [
        PandsQueue((0.8, 0.8), two_class_rates, g)
        for g in (
            SwappingGraph.edgeless(2),
            SwappingGraph.from_pairs(2, [(0, 1)]),
            SwappingGraph.complete(2, loops=True),
        )
    ]
    dists = [stationary_truncated(q, 5).probabilities() for q in queues]
    assert dists[0] == dists[1] == dists[2]


def test_mean_counts(two_class_queue):
    dist = stationary_truncated(two_class_queue, 5)
    probs = dist.probabilities()
    expect = [0.0, 0.0]
    for state, p in probs.items():
        for cls in state:
            expect[cls] += p
    assert dist.mean_counts() == pytest.approx(tuple(expect))


def test_truncation_budget(two_class_queue):
    with pytest.raises(ResourceError):
        stationary_truncated(two_class_queue, 30, budget=1000)


def test_partial_balance_small_residual(two_class_queue, three_class_queue):
    assert verify_partial_balance(two_class_queue, 4).max_residual < 1e-10
    assert verify_partial_balance(three_class_queue, 4).max_residual < 1e-10


def test_partial_balance_flags_corruption(three_class_queue, monkeypatch):
    walk = product_form.stationary_truncated

    def corrupted(queue, capacity):
        dist = walk(queue, capacity)
        dist.log_weights[(0, 1)] += math.log(1.01)
        return dist

    monkeypatch.setattr(product_form, "stationary_truncated", corrupted)
    report = verify_partial_balance(three_class_queue, 3)
    assert report.max_residual > 1e-6


def test_partial_balance_checks_underflowing_weights(two_class_rates,
                                                     monkeypatch):
    # At arrival rates of 1e-200 every weight beyond one customer is 0 in
    # linear scale, so a check that multiplies weights would pass this
    # missing predecessor; the ratios of weights still catch it.
    graph = SwappingGraph.from_pairs(2, [(0, 1)])
    queue = PandsQueue((1e-200, 1e-200), two_class_rates, graph)
    assert verify_partial_balance(queue, 4).ok
    found = product_form.predecessors

    def one_dropped(graph, state, departing_class):
        got = found(graph, state, departing_class)
        return got[1:] if len(state) >= 2 else got

    monkeypatch.setattr(product_form, "predecessors", one_dropped)
    assert verify_partial_balance(queue, 4).max_residual > 1e-6


@given(data=st.data(), n=st.integers(1, 3))
def test_partial_balance_and_flow_identity_on_random_models(data, n):
    rates = data.draw(multi_server_rates(n))
    graph = data.draw(swapping_graphs(n, loops=True))
    lam = data.draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    queue = PandsQueue(tuple(lam), rates, graph)
    assert verify_partial_balance(queue, 4).ok
    for total in range(1, 5):
        assert macrostate_flow_identity(queue, total)[0] < 1e-10


def test_state_weight_matches_the_walk(two_class_queue, three_class_queue):
    for queue in (two_class_queue, three_class_queue):
        for state, lw in stationary_truncated(queue, 4).log_weights.items():
            expect = math.exp(lw)
            assert abs(state_weight(queue, state) - expect) <= 1e-14 * expect


def test_stability_conditions(two_class_queue):
    # stable iff l1 < 2, l2 < 2, l1 + l2 < 3
    rf = two_class_queue.rate_fn

    def check(l1, l2):
        q = PandsQueue((l1, l2), rf, SwappingGraph.edgeless(2))
        return stability_check(q)

    assert check(0.5, 0.5).stable
    assert not check(2.0, 0.5).stable  # boundary counts as unstable
    assert not check(2.5, 0.1).stable
    assert not check(1.5, 1.5).stable  # pairwise boundary
    report = check(1.6, 1.6)
    assert not report.stable
    assert ((0, 1), 3.2, 3.0) in report.violations


@pytest.mark.parametrize("l1, l2", [(0.5, 0.5), (2.0, 0.5), (1.6, 1.6)])
def test_stability_of_split_classes(two_class_rates, l1, l2):
    # class 1 split in two halves of its arrivals: a subset of the split
    # classes saturates as the base classes it projects onto, and the whole
    # preimage of a base subset brings the same arrivals, so the verdict is
    # the unsplit queue's
    projection = (0, 0, 1)
    split = PandsQueue((l1 / 2, l1 / 2, l2),
                       ProjectedRateFunction(two_class_rates, projection),
                       SwappingGraph.edgeless(3))
    unsplit = PandsQueue((l1, l2), two_class_rates, SwappingGraph.edgeless(2))
    report = stability_check(split)
    assert report.stable == stability_check(unsplit).stable
    assert len(report.saturation) == 7
    for subset, sat in report.saturation.items():
        assert sat == two_class_rates.saturation_rate(
            {projection[i] for i in subset}
        )


def test_stability_single_class():
    rf = MultiServerRates.build([2.0], [{0}])
    q = PandsQueue((1.9,), rf, SwappingGraph.edgeless(1))
    assert stability_check(q).stable


def test_stability_monotone_in_arrival_rates(two_class_rates):
    rng = random.Random(9)
    for _ in range(50):
        l1, l2 = rng.uniform(0.1, 2.5), rng.uniform(0.1, 2.5)
        q = PandsQueue((l1, l2), two_class_rates, SwappingGraph.edgeless(2))
        if stability_check(q).stable:
            q2 = PandsQueue(
                (l1 * rng.uniform(0.2, 1.0), l2 * rng.uniform(0.2, 1.0)),
                two_class_rates,
                SwappingGraph.edgeless(2),
            )
            assert stability_check(q2).stable


def test_stability_needs_saturation_data():
    table = TableRates.build(1, {(1,): 1.0, (2,): 1.0})
    q = PandsQueue((0.5,), table, SwappingGraph.edgeless(1))
    from passandswap import CapabilityError

    with pytest.raises(CapabilityError):
        stability_check(q)
    with_sat = TableRates.build(1, {(1,): 1.0, (2,): 1.0}, {(0,): 1.0})
    q2 = PandsQueue((0.5,), with_sat, SwappingGraph.edgeless(1))
    assert stability_check(q2).stable


def test_flow_rates_golden(three_class_queue):
    # in (1,3,3,2,2,3,1,2) both active positions trigger a class-2
    # departure, while service credit goes to classes 1 and 3
    state = tuple(v - 1 for v in (1, 3, 3, 2, 2, 3, 1, 2))
    phi_d, phi_s = flow_rates(three_class_queue, state)
    assert phi_d == pytest.approx((0.0, 2.0, 0.0))
    assert phi_s == pytest.approx((1.0, 0.0, 1.0))
    rate = three_class_queue.rate_fn.state_rate(state)
    assert sum(phi_d) == pytest.approx(rate)
    assert sum(phi_s) == pytest.approx(sum(phi_d))


def test_flow_rates_edgeless_coincide(two_class_queue):
    rng = random.Random(10)
    for _ in range(100):
        state = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
        phi_d, phi_s = flow_rates(two_class_queue, state)
        assert phi_d == pytest.approx(phi_s)


def test_macrostate_flow_identity(three_class_queue):
    for total in range(1, 5):
        worst, _ = macrostate_flow_identity(three_class_queue, total)
        assert worst < 1e-10
