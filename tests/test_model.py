import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    DomainError,
    MultiServerRates,
    PandsQueue,
    RateFunction,
    SwappingGraph,
    TableRates,
    UsageError,
    all_states,
    macrostate,
    validate_rate_function,
)
from passandswap.model import _MAX_PERMUTATIONS
from conftest import (
    reference_multi_server_increments,
    reference_multi_server_rate,
)


def test_overall_rate_golden_values(two_class_rates):
    assert two_class_rates.state_rate(()) == 0.0
    # servers 1 and 3, then their union with server 2
    assert two_class_rates.state_rate((0,)) == pytest.approx(2.0)
    assert two_class_rates.state_rate((0, 1)) == pytest.approx(3.0)


def test_increment_golden_values(two_class_rates):
    # a second class-1 customer activates no new server
    assert two_class_rates.increments((0, 0))[-1] == pytest.approx(0.0)
    # the class-2 customer behind two class-1 customers gets server 2
    assert two_class_rates.increments((0, 0, 1))[-1] == pytest.approx(1.0)
    assert two_class_rates.increments((1,))[-1] == (
        two_class_rates.state_rate((1,))
    )


def test_increments_telescope(two_class_rates):
    rng = random.Random(1)
    for _ in range(200):
        state = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
        incs = two_class_rates.increments(state)
        total = 0.0
        for p, inc in enumerate(incs):
            total += inc
            prefix = state[: p + 1]
            assert abs(total - two_class_rates.state_rate(prefix)) < 1e-12


def test_multi_server_increments_match_set_computation():
    rates = (0.7, 1.3, 2.1)
    compat = (frozenset({0, 2}), frozenset({1, 2}))
    rf = MultiServerRates(rates, compat)
    for state in all_states(2, 6):
        incs = rf.increments(state)
        covered: set[int] = set()
        for p, cls in enumerate(state):
            fresh = compat[cls] - covered
            expect = sum(rates[s] for s in fresh)
            assert abs(incs[p] - expect) < 1e-12
            covered |= compat[cls]


def test_rate_is_permutation_invariant(three_class_rates):
    rng = random.Random(2)
    for _ in range(100):
        state = [rng.randrange(3) for _ in range(rng.randint(0, 6))]
        base = three_class_rates.state_rate(tuple(state))
        for _ in range(5):
            rng.shuffle(state)
            rate = three_class_rates.state_rate(tuple(state))
            assert rate == pytest.approx(base)


def test_macrostate_permutation_invariant_and_additive():
    rng = random.Random(3)
    for _ in range(50):
        a = [rng.randrange(4) for _ in range(rng.randint(0, 5))]
        b = [rng.randrange(4) for _ in range(rng.randint(0, 5))]
        shuffled = a[:]
        rng.shuffle(shuffled)
        assert macrostate(a, 4) == macrostate(shuffled, 4)
        joint = macrostate(a + b, 4)
        assert joint == tuple(
            x + y for x, y in zip(macrostate(a, 4), macrostate(b, 4))
        )


def test_neighbors(path_graph):
    assert path_graph.neighbors(1) == {0, 2}
    assert path_graph.neighbors(0) == {1}
    assert SwappingGraph.edgeless(4).neighbors(2) == frozenset()


def test_loops_are_reflected_in_neighbors():
    g = SwappingGraph.from_pairs(2, [(0, 0)])
    assert g.has_loops
    assert 0 in g.neighbors(0)
    assert 0 not in g.neighbors(1)


def test_validate_multi_server_passes(two_class_rates):
    report = validate_rate_function(two_class_rates, 4)
    assert report.ok
    assert not report.violations


class _SequenceDependentRates(RateFunction):
    """Deliberately broken: the rate depends on the arrival order."""

    n_classes = 2

    def rate(self, counts):
        return float(sum(counts)) or 0.0

    def state_rate(self, state):
        if state == (0, 1):
            return 5.0
        return self.rate(macrostate(state, 2))


def test_validate_flags_order_dependence():
    report = validate_rate_function(_SequenceDependentRates(), 2)
    kinds = {v.kind for v in report.violations}
    assert "order-independence" in kinds


# From five customers on, a macrostate has more arrangements than
# ``validate_rate_function`` tries, so it tries a seeded sample of them.
_SAMPLED_TOTAL = 5


def test_validate_samples_arrangements_of_large_macrostates(
    three_class_rates,
):
    assert math.factorial(_SAMPLED_TOTAL) > _MAX_PERMUTATIONS
    report = validate_rate_function(three_class_rates, _SAMPLED_TOTAL)
    assert report.ok
    assert report.violations == ()
    # every non-empty macrostate of three classes up to five customers
    assert report.checked_macrostates == math.comb(_SAMPLED_TOTAL + 3, 3) - 1


class _HeadDependentRates(RateFunction):
    """Deliberately broken: a class-1 customer at the head of a queue that
    also holds class 0 adds 0.5."""

    n_classes = 2

    def rate(self, counts):
        return float(sum(counts))

    def state_rate(self, state):
        bonus = 0.5 if state[0] == 1 and 0 in state else 0.0
        return self.rate(macrostate(state, 2)) + bonus


def test_validate_sampling_flags_order_dependence():
    report = validate_rate_function(_HeadDependentRates(), _SAMPLED_TOTAL)
    sampled = [
        v for v in report.violations
        if v.kind == "order-independence"
        and len(v.witness[0]) == _SAMPLED_TOTAL
    ]
    assert not report.ok
    # each mixed macrostate of five customers, found among its samples:
    # the base arrangement puts class 0 first, a flagged sample class 1
    assert sorted(v.witness[0] for v in sampled) == [
        (0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 0, 1, 1, 1), (0, 1, 1, 1, 1),
    ]
    assert all(v.witness[1][0] == 1 for v in sampled)


def test_validate_flags_zero_rate_table():
    table = TableRates.build(1, {(1,): 0.0, (2,): 1.0})
    report = validate_rate_function(table, 2)
    assert not report.ok
    assert any(v.kind == "positivity" for v in report.violations)


def test_validate_flags_monotonicity_violation():
    table = TableRates.build(1, {(1,): 2.0, (2,): 1.0})
    report = validate_rate_function(table, 2)
    assert any(v.kind == "monotonicity" for v in report.violations)


def test_validate_reports_domain_gaps():
    table = TableRates.build(2, {(1, 0): 1.0})
    report = validate_rate_function(table, 1)
    assert any(v.kind == "domain-gap" for v in report.violations)


def test_table_out_of_domain_raises():
    table = TableRates.build(2, {(1, 0): 1.0, (0, 1): 1.0})
    assert table.rate((0, 0)) == 0.0
    with pytest.raises(DomainError):
        table.rate((1, 1))


@st.composite
def multi_server_cases(draw):
    """One to six servers of rates spread over six decades, so that the
    summing order shows in the last bit, one to six classes each compatible
    with any subset of them, and up to five states of up to 14 customers."""
    n_servers = draw(st.integers(1, 6))
    rates = draw(st.lists(st.floats(1e-3, 1e3), min_size=n_servers,
                          max_size=n_servers))
    compat = [draw(st.sets(st.integers(0, n_servers - 1)))
              for _ in range(draw(st.integers(1, 6)))]
    states = draw(st.lists(
        st.lists(st.integers(0, len(compat) - 1), max_size=14).map(tuple),
        min_size=1, max_size=5,
    ))
    return rates, compat, states


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@given(multi_server_cases())
def test_memoized_multi_server_rates_equal_the_reference(case):
    # Bit for bit: on a fresh instance, whose memo is cold, and on one that
    # has already seen every state, whose memo is warm.
    rates, compat, states = case
    warm = MultiServerRates.build(rates, compat)
    for _ in range(2):
        for state in states:
            counts = macrostate(state, len(compat))
            want_rate = reference_multi_server_rate(warm, counts)
            want_incs = reference_multi_server_increments(warm, state)
            cold = MultiServerRates.build(rates, compat)
            assert _bits([cold.rate(counts)]) == _bits([want_rate])
            cold = MultiServerRates.build(rates, compat)
            assert _bits(cold.increments(state)) == _bits(want_incs)
            assert _bits(warm.increments(state)) == _bits(want_incs)
            assert _bits([warm.rate(counts)]) == _bits([want_rate])


def test_memo_leaves_equality_hash_and_repr_alone():
    a = MultiServerRates.build([1.0, 2.0, 4.0], [{0, 2}, {1, 2}])
    b = MultiServerRates.build([1.0, 2.0, 4.0], [{0, 2}, {1, 2}])
    before = repr(a)
    a.increments((0, 1, 0))
    a.rate((1, 1))
    assert a._mask_rates and not b._mask_rates
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) == before


def test_saturation_rates():
    rf = MultiServerRates.build([1.0, 2.0, 4.0], [{0, 2}, {1, 2}])
    assert rf.saturation_rate({0}) == pytest.approx(5.0)
    assert rf.saturation_rate({1}) == pytest.approx(6.0)
    assert rf.saturation_rate({0, 1}) == pytest.approx(7.0)


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
def test_server_rates_must_be_positive(rate):
    # A NaN rate would make every increment it enters compare false to 0.
    with pytest.raises(UsageError, match="must be strictly positive"):
        MultiServerRates.build([1.0, rate], [[0], [1]])


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
def test_arrival_rates_must_be_positive(rate):
    # A NaN arrival rate compares false to 0 as well; it would make every
    # probability of the truncated law NaN.
    with pytest.raises(UsageError, match="arrival rates must be strictly"):
        PandsQueue((rate, 0.5), MultiServerRates.build([1.0], [{0}, {0}]),
                   SwappingGraph.edgeless(2))
