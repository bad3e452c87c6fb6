"""The indexed event loop against the reference loop it replaced.

``sim.simulate`` and ``sim.simulate_protocol`` run one event loop over
integer-indexed tables; ``conftest.py`` keeps the loop they replaced, fed
by moves memoized per whole state.  On random open (truncated), closed and
tandem models and bipartite protocol specifications, under event and time
horizons, with and without warm-up and over one to three replications,
every ``SimResult`` field must be equal, key order included, and so must
the trace of the first replication.  A dead state raises the same
``DeadlockError`` in both, naming the state.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    ClosedQueue,
    DeadlockError,
    PlacementOrder,
    SimConfig,
    SwappingGraph,
    TableRates,
    TandemNetwork,
    compile_cluster,
    simulate,
    simulate_protocol,
)
from conftest import reference_simulate, reference_simulate_protocol

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_sim_moves import _spec, closed_queues, open_queues  # noqa: E402

FIELDS = ("occupancy", "occupancy_stderr", "counters", "counter_stderr",
          "fractions", "fraction_stderr")


@st.composite
def configs(draw):
    horizon = draw(st.one_of(
        st.builds(dict, events=st.integers(1, 400)),
        st.builds(dict, time=st.floats(0.05, 40.0)),
    ))
    return SimConfig(
        **horizon,
        warmup=draw(st.sampled_from([0.0, 0.2, 0.5])),
        seed=draw(st.integers(0, 1_000)),
        replications=draw(st.integers(1, 3)),
    )


def _same(got, want):
    for name in FIELDS:
        assert list(getattr(got, name).items()) == list(
            getattr(want, name).items()
        ), name
    assert got.replications == want.replications


def _traced(run):
    """The result of ``run(trace)`` and the events it traced."""
    events = []
    result = run(lambda *event: events.append(event))
    return result, events


def _check_model(model, cfg, **kw):
    got, got_events = _traced(lambda t: simulate(model, cfg, trace=t, **kw))
    want, want_events = _traced(
        lambda t: reference_simulate(model, cfg, trace=t, **kw)
    )
    _same(got, want)
    assert got_events == want_events


@given(model=open_queues(), cfg=configs())
def test_open_simulation_equals_the_reference_loop(model, cfg):
    queue, capacity = model
    _check_model(queue, cfg, capacity=capacity)


@given(model=closed_queues(), cfg=configs())
def test_closed_simulation_equals_the_reference_loop(model, cfg):
    queue, start = model
    _check_model(queue, cfg, initial=start)


@given(
    kind=st.sampled_from(["bipartite", "grouped"]),
    seed=st.integers(0, 10_000),
    cfg=configs(),
)
def test_tandem_simulation_equals_the_reference_loop(kind, seed, cfg):
    ct = compile_cluster(_spec(kind, seed))
    _check_model(ct.network, cfg, initial=ct.initial)


@given(seed=st.integers(0, 10_000), cfg=configs())
def test_protocol_simulation_equals_the_reference_loop(seed, cfg):
    spec = _spec("bipartite", seed)
    _same(simulate_protocol(spec, cfg), reference_simulate_protocol(spec, cfg))


def _dead_closed():
    rates = TableRates.build(1, {(1,): 0.0})
    order = PlacementOrder(1, frozenset())
    return ClosedQueue(rates, SwappingGraph.edgeless(1), (1,), order), (0,)


def _dead_tandem():
    rates = TableRates.build(1, {(1,): 0.0})
    order = PlacementOrder(1, frozenset())
    net = TandemNetwork(rates, rates, SwappingGraph.edgeless(1), (1,), order)
    return net, ((), (0,))


@pytest.mark.parametrize("build", [_dead_closed, _dead_tandem])
def test_dead_state_raises_naming_the_state(build):
    model, state = build()
    cfg = SimConfig(events=10, replications=1)
    with pytest.raises(DeadlockError) as got:
        simulate(model, cfg, initial=state)
    with pytest.raises(DeadlockError) as want:
        reference_simulate(model, cfg, initial=state)
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"no enabled event in state {state!r}"
