import random

import pytest

from passandswap import sim
from passandswap import (
    ClosedQueue,
    ClusterSpec,
    DeadlockError,
    PlacementOrder,
    SimConfig,
    SwappingGraph,
    TableRates,
    UsageError,
    analyze_closed,
    simulate,
    simulate_protocol,
    stationary_truncated,
    total_variation,
)
from conftest import UnitIncrementRates


def _tv_against(dist, occupancy):
    emp = dict(occupancy)
    for s in dist:
        emp.setdefault(s, 0.0)
    for s in list(emp):
        dist.setdefault(s, 0.0)
    return total_variation(emp, dist)


def test_config_validation():
    with pytest.raises(UsageError):
        SimConfig()
    with pytest.raises(UsageError):
        SimConfig(events=10, time=1.0)
    with pytest.raises(UsageError):
        SimConfig(events=10, warmup=1.0)
    # a replication count is a positive int: not a float, a string or a bool
    for reps in (1.5, "2", True, 0):
        with pytest.raises(UsageError, match="replications must be a positive"):
            SimConfig(events=10, replications=reps)
    assert SimConfig(time=5).time == 5


@pytest.mark.parametrize("horizon", [
    {"time": float("nan")},
    {"time": float("inf")},
    {"time": 0.0},
    {"time": -1.0},
    {"events": 2.5},
    {"events": 10.0},
    {"events": True},
    {"events": 0},
    {"events": -3},
])
def test_config_rejects_horizons_no_run_can_reach(horizon):
    # a NaN or infinite time would never end the event loop, and a
    # non-integer event count has no place in a count of events
    with pytest.raises(UsageError, match="must be (a )?positive"):
        SimConfig(**horizon)


def test_open_simulation_approaches_analytic(two_class_queue):
    dist = stationary_truncated(two_class_queue, 6).probabilities()
    cfg = SimConfig(events=100_000, replications=2, seed=5)
    res = simulate(two_class_queue, cfg, capacity=6)
    assert _tv_against(dist, res.occupancy) < 0.05
    assert abs(sum(res.occupancy.values()) - 1.0) < 1e-9


def test_deterministic_replay(two_class_queue):
    cfg = SimConfig(events=5_000, replications=2, seed=17)
    a = simulate(two_class_queue, cfg, capacity=4)
    b = simulate(two_class_queue, cfg, capacity=4)
    assert a.occupancy == b.occupancy
    assert a.counters == b.counters
    assert a.occupancy_stderr == b.occupancy_stderr


def test_tv_decreases_with_more_events(two_class_queue):
    dist = stationary_truncated(two_class_queue, 5).probabilities()
    tvs = []
    for events in (2_000, 32_000):
        cfg = SimConfig(events=events, replications=2, seed=23)
        res = simulate(two_class_queue, cfg, capacity=5)
        tvs.append(_tv_against(dict(dist), res.occupancy))
    assert tvs[1] < tvs[0]


def test_time_horizon_mode(two_class_queue):
    cfg = SimConfig(time=2_000.0, replications=2, seed=11)
    res = simulate(two_class_queue, cfg, capacity=4)
    assert abs(sum(res.occupancy.values()) - 1.0) < 1e-9


def test_rejection_counter(two_class_queue):
    cfg = SimConfig(events=20_000, replications=1, seed=2, warmup=0.0)
    res = simulate(two_class_queue, cfg, capacity=1)
    assert res.counters.get("rejections:0", 0.0) > 0
    assert res.counters.get("rejections:1", 0.0) > 0


def test_closed_simulation_uniform(six_class_graph):
    order_arcs = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]
    order = PlacementOrder.orient(six_class_graph, order_arcs)
    cq = ClosedQueue(UnitIncrementRates(6), six_class_graph, (1,) * 6, order)
    analytic = dict(analyze_closed(cq, cq.initial_state()).distribution)
    cfg = SimConfig(events=60_000, replications=3, seed=31)
    res = simulate(cq, cfg)
    for state, p in analytic.items():
        est = res.occupancy.get(state, 0.0)
        err = res.occupancy_stderr.get(state, 0.0)
        assert abs(est - p) <= max(3 * err, 0.02)


def test_open_model_needs_capacity(two_class_queue):
    with pytest.raises(UsageError):
        simulate(two_class_queue, SimConfig(events=10, replications=1))


def test_zero_rate_closed_state_deadlocks():
    table = TableRates.build(1, {(1,): 0.0})
    # construction is allowed; the rate contract is validated separately, so
    # the simulator has to trip on the dead state
    g = SwappingGraph.edgeless(1)
    cq = ClosedQueue(table, g, (1,), PlacementOrder(1, frozenset()))
    with pytest.raises(DeadlockError):
        simulate(cq, SimConfig(events=10, replications=1))


class _PickAtTheTotal(random.Random):
    """Draws 0.5 for each holding time and 1.0 for each move pick, which
    puts the pick at the total rate, past every running sum."""

    def __init__(self):
        super().__init__(0)
        self.draws = 0

    def random(self):
        self.draws += 1
        return 0.5 if self.draws % 2 else 1.0


def test_pick_at_the_total_takes_the_last_move(monkeypatch):
    # A single-queue model has no second queue to fall through to: the
    # event loop takes the last move rather than indexing past it.
    g = SwappingGraph.edgeless(2)
    cq = ClosedQueue(UnitIncrementRates(2), g, (1, 1),
                     PlacementOrder(2, frozenset()))
    monkeypatch.setattr(sim, "_rep_rng", lambda seed, rep: _PickAtTheTotal())
    events = []
    res = simulate(cq, SimConfig(events=2, warmup=0.0, replications=1),
                   initial=(0, 1),
                   trace=lambda t, kind, chain, dep: events.append(
                       (kind, chain, dep)))
    # the tail customer completes and rejoins the tail, twice
    assert events == [("complete-q0", (1,), 1)] * 2
    assert res.counters == {
        "completions": 2.0, "departures:1": 2.0, "services:1": 2.0,
    }
    assert res.occupancy == {(0, 1): 1.0}


def test_protocol_blocking_and_occupancy_for_silent_type():
    # type B never arrives: its waiting slots stay empty and it is never
    # blocked
    spec = ClusterSpec(
        classes=("A", "B", "1"),
        arcs=(("1", "A"), ("1", "B")),
        counts={"A": 1, "B": 1, "1": 1},
        machines=("1",),
        machine_rates={"1": 1.0},
        machine_bindings={"1": ("1",)},
        job_types=("A", "B"),
        type_rates={"A": 1.0, "B": 0.0},
        type_bindings={"A": ("A",), "B": ("B",)},
    )
    cfg = SimConfig(events=20_000, replications=2, seed=3)
    res = simulate_protocol(spec, cfg)
    assert res.fractions["blocking:B"] == 0.0
    b_idx = spec.classes.index("B")
    for key, fraction in res.occupancy.items():
        if fraction > 0.0:
            assert key[b_idx] == 0


def test_aggregate_departure_and_service_rates_agree(three_class_queue):
    # each completion departs one customer and serves one; in the long run
    # the per-class rates of the two attributions coincide
    cfg = SimConfig(events=120_000, replications=3, seed=41)
    res = simulate(three_class_queue, cfg, capacity=5)
    for cls in range(3):
        dep = res.counters.get(f"departures:{cls}", 0.0)
        srv = res.counters.get(f"services:{cls}", 0.0)
        dep_err = res.counter_stderr.get(f"departures:{cls}", 0.0)
        srv_err = res.counter_stderr.get(f"services:{cls}", 0.0)
        slack = 3.0 * (dep_err + srv_err) + 0.02 * max(dep, srv)
        assert abs(dep - srv) <= slack


def test_flow_attribution_per_macrostate(three_class_queue):
    # empirical check that, conditioned on the macrostate, the probability
    # flow attributed to departures of a class matches the flow attributed
    # to service completions of that class
    import random as _random

    from passandswap import macrostate, open_transitions

    rng = _random.Random(123)
    state = ()
    by_macro = {}
    for _ in range(150_000):
        moves = open_transitions(three_class_queue, state, capacity=4)
        total = sum(t.rate for t in moves)
        rng.expovariate(total)
        pick = rng.random() * total
        acc = 0.0
        chosen = moves[-1]
        for move in moves:
            acc += move.rate
            if pick < acc:
                chosen = move
                break
        if chosen.kind == "completion":
            key = macrostate(state, 3)
            dep, srv = by_macro.setdefault(key, ([0] * 3, [0] * 3))
            dep[chosen.outcome.departing_class] += 1
            srv[state[chosen.index]] += 1
        state = chosen.next_state
    checked = 0
    for key, (dep, srv) in by_macro.items():
        events = sum(dep)
        if events < 1500:
            continue
        checked += 1
        for cls in range(3):
            gap = abs(dep[cls] - srv[cls])
            assert gap <= 0.1 * events + 6 * events**0.5
    assert checked >= 3


def test_protocol_deterministic(two_class_queue):
    spec = ClusterSpec.bipartite(
        [("A", 1.0, 1)],
        [("1", 1.0, 1)],
        {"A": ["1"]},
    )
    cfg = SimConfig(events=5_000, replications=2, seed=8)
    a = simulate_protocol(spec, cfg)
    b = simulate_protocol(spec, cfg)
    assert a.occupancy == b.occupancy
    assert a.fractions == b.fractions
