import inspect
import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from passandswap import (
    ConvergenceError,
    GeneratorMatrix,
    MultiServerRates,
    PlacementOrder,
    ResourceError,
    TandemNetwork,
    UsageError,
    analyze_tandem,
    build_generator,
    solve_stationary,
    solve_unique,
    total_variation,
)
from conftest import (
    brute_reachability_partition,
    open_transition_fn,
    tandem_transition_fn,
)

EPS = np.finfo(float).eps
RESIDUAL_TOL = inspect.signature(solve_stationary).parameters[
    "residual_tol"
].default


def test_reachable_state_count(two_class_queue):
    gen = build_generator(open_transition_fn(two_class_queue, 2), ())
    assert gen.n_states == 7  # empty, 2 singles, 4 pairs


def test_rows_sum_to_zero(two_class_queue):
    gen = build_generator(open_transition_fn(two_class_queue, 4), ())
    sums = np.asarray(gen.matrix.sum(axis=1)).ravel()
    assert np.abs(sums).max() < 1e-12


def test_budget_exceeded(two_class_queue):
    with pytest.raises(ResourceError):
        build_generator(open_transition_fn(two_class_queue, 8), (), budget=10)


def test_two_state_birth_death():
    lam, mu_ = 0.7, 1.9

    def transitions(state):
        return [((1,), lam)] if state == () else [((), mu_)]

    gen = build_generator(transitions, ())
    dist = solve_unique(gen)
    assert dist[()] == pytest.approx(mu_ / (lam + mu_))
    assert dist[(1,)] == pytest.approx(lam / (lam + mu_))


def test_single_server_truncation_is_geometric():
    lam, mu_ = 0.5, 1.0
    n_max = 6

    def transitions(state):
        k = state[0]
        moves = []
        if k < n_max:
            moves.append(((k + 1,), lam))
        if k > 0:
            moves.append(((k - 1,), mu_))
        return moves

    gen = build_generator(transitions, (0,))
    dist = solve_unique(gen)
    rho = lam / mu_
    z = sum(rho**k for k in range(n_max + 1))
    for k in range(n_max + 1):
        assert dist[(k,)] == pytest.approx(rho**k / z)


def test_transient_states_are_excluded():
    # 0 -> 1 <-> 2 ; state 0 is transient
    def transitions(state):
        return {
            0: [(1, 1.0)],
            1: [(2, 2.0)],
            2: [(1, 3.0)],
        }[state]

    gen = build_generator(transitions, 0)
    sol = solve_stationary(gen)
    assert sol.n_transient_states == 1
    assert len(sol.solutions) == 1
    dist = sol.solutions[0].distribution
    assert dist[1] == pytest.approx(0.6)
    assert dist[2] == pytest.approx(0.4)
    with pytest.raises(UsageError):
        solve_unique(gen)


def test_uniformization_agrees_with_direct(two_class_queue):
    gen = build_generator(open_transition_fn(two_class_queue, 5), ())
    direct = solve_unique(gen)
    iterative = solve_unique(gen, direct_limit=0, residual_tol=1e-12)
    assert total_variation(direct, iterative) < 1e-10


def test_total_variation_golden():
    assert total_variation({0: 1.0}, {0: 1.0}) == 0.0
    assert total_variation({0: 1.0, 1: 0.0}, {0: 0.0, 1: 1.0}) == 1.0
    assert total_variation({0: 0.6, 1: 0.4}, {0: 0.5, 1: 0.5}) == pytest.approx(
        0.1
    )


def test_total_variation_mismatched_support():
    with pytest.raises(UsageError):
        total_variation({0: 1.0}, {1: 1.0})


# ------------------------------------------------------- the direct branch


def _generator(n, rates):
    """Generator over states 0..n-1 from off-diagonal ``{(u, v): rate}``."""
    rows, cols = zip(*rates) if rates else ((), ())
    off = sp.coo_matrix((list(rates.values()), (rows, cols)), shape=(n, n))
    q = off - sp.diags(np.asarray(off.sum(axis=1)).ravel())
    return GeneratorMatrix(tuple(range(n)), {i: i for i in range(n)}, q.tocsr())


@st.composite
def strongly_connected_generators(draw):
    """A cycle through every state plus random chords; each rate is 10**e
    for e in [-6, 6]."""
    n = draw(st.integers(2, 40))
    cycle = draw(st.permutations(range(n)))
    edges = {(cycle[i], cycle[(i + 1) % n]) for i in range(n)}
    chords = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
        max_size=3 * n,
    ))
    edges |= {(u, (u + d) % n) for u, d in chords}
    exponents = draw(st.lists(
        st.floats(-6.0, 6.0), min_size=len(edges), max_size=len(edges)
    ))
    return _generator(
        n, {e: 10.0**x for e, x in zip(sorted(edges), exponents)}
    )


def _dense_reference(qa):
    """Least-squares solution of ``pi Q = 0, sum(pi) = 1`` with ``Q``
    scaled to unit size, and the condition number of that system."""
    n = len(qa)
    a = np.vstack([qa.T / np.abs(qa).max(), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0], np.linalg.cond(a)


@given(strongly_connected_generators())
def test_direct_solve_matches_dense_reference(g):
    qa = g.matrix.toarray()
    n = g.n_states
    ref, cond = _dense_reference(qa)
    try:
        sol = solve_stationary(g)
    except ConvergenceError:
        # a refusal is allowed only where rounding alone can put max |pi Q|
        # above the absolute residual_tol, or where the reduced system
        # (last state pinned) is singular to working precision
        floor = n * EPS * (np.abs(ref) @ np.abs(qa)).max()
        assert floor > RESIDUAL_TOL or EPS * np.linalg.cond(qa[:-1, :-1]) > 1
        return
    (cls,) = sol.solutions
    assert cls.method == "direct"
    assert (sol.n_components, sol.n_transient_states) == (1, 0)
    pi = np.array([cls.distribution[i] for i in range(n)])
    assert np.abs(pi @ qa).max() <= RESIDUAL_TOL
    # 1e-10, except where rounding the rates alone moves the law further
    assert np.abs(pi - ref).max() <= max(1e-10, 8 * n * EPS * cond)


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_row_sum_check_scales_with_the_rates(scale):
    # A cycle through every state plus random chords, each rate 10**U(-1, 1)
    # times ``scale``.  Summing a row with its diagonal leaves a rounding
    # error of about eps times the exit rate; an absolute 1e-12 refused
    # most of these chains.
    rng = random.Random(int(scale))
    for _ in range(100):
        n = rng.randint(2, 40)
        cycle = rng.sample(range(n), n)
        edges = {(cycle[i], cycle[(i + 1) % n]) for i in range(n)}
        edges |= {(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(0, 3 * n))}
        moves = {u: [] for u in range(n)}
        for u, v in sorted(edges):
            moves[u].append((v, scale * 10.0 ** rng.uniform(-1.0, 1.0)))
        gen = build_generator(lambda s: moves[s], cycle[0])
        assert gen.n_states == n


def test_unbalanced_row_is_a_convergence_error():
    from passandswap.oracle import _check_row_sums

    _check_row_sums(sp.csr_matrix(np.array([[-1e6, 1e6], [1.0, -1.0]])))
    for rows in ([[-1.0, 1.5], [1.0, -1.0]],
                 [[-1e6, 1e6 + 1e-3], [1.0, -1.0]]):
        with pytest.raises(ConvergenceError, match="do not sum to zero"):
            _check_row_sums(sp.csr_matrix(np.array(rows)))


def test_direct_breakdown_is_a_convergence_error():
    # The last state is entered only by a 1e-4 branch out of a region that
    # is itself entered with probability about 1e-7, so its probability is
    # about 5e-18 of the largest; the reduced system pinning it is singular
    # in floating point and its factor meets an exactly zero pivot.
    rates = {
        (0, 3): 1.0, (0, 9): 1.0, (1, 3): 10.0, (1, 4): 0.01, (2, 5): 1.0,
        (3, 10): 1.0, (4, 2): 1e-6, (4, 6): 10.0, (5, 0): 1.0, (6, 1): 1.0,
        (7, 6): 1.0, (8, 3): 1.0, (9, 10): 100.0, (9, 17): 1e-4,
        (16, 7): 1.0, (17, 8): 1.0,
    }
    rates.update({(u, u + 1): 1.0 for u in range(10, 16)})
    with pytest.raises(ConvergenceError, match="broke down"):
        solve_stationary(_generator(18, rates))


def test_two_closed_classes_with_transient_states():
    # 0 -> 1 -> {2, 4}; 2 <-> 3 and the cycle 4 -> 5 -> 6 -> 4 are closed
    moves = {
        0: [(1, 1.0)],
        1: [(4, 1.0), (2, 2.0)],
        2: [(3, 2.0)],
        3: [(2, 3.0)],
        4: [(5, 1.0)],
        5: [(6, 2.0)],
        6: [(4, 4.0)],
    }
    gen = build_generator(lambda s: moves[s], 0)
    assert gen.states == (0, 1, 4, 2, 5, 3, 6)
    sol = solve_stationary(gen)
    assert (sol.n_components, sol.n_transient_states) == (4, 2)
    # classes come in the order of their first state's index
    cycle, pair = sol.solutions
    assert cycle.states == (4, 5, 6) and pair.states == (2, 3)
    assert {c.method for c in sol.solutions} == {"direct"}
    for s, p in {4: 4 / 7, 5: 2 / 7, 6: 1 / 7}.items():
        assert cycle.distribution[s] == pytest.approx(p, rel=1e-14)
    assert pair.distribution[2] == pytest.approx(0.6, rel=1e-14)
    assert pair.distribution[3] == pytest.approx(0.4, rel=1e-14)


def test_single_state_chain():
    gen = build_generator(lambda s: [], "only")
    sol = solve_stationary(gen)
    (cls,) = sol.solutions
    assert cls.distribution == {"only": 1.0}
    assert (cls.residual, cls.method) == (0.0, "direct")
    assert (sol.n_components, sol.n_transient_states) == (1, 0)


def test_one_state_and_two_state_classes():
    # 0 -> absorbing 1, and 0 -> 2 <-> 3 with rates spanning twelve decades
    lo, hi = 1e-6, 1e6
    moves = {0: [(1, 1.0), (2, 1.0)], 1: [], 2: [(3, lo)], 3: [(2, hi)]}
    sol = solve_stationary(build_generator(lambda s: moves[s], 0))
    assert (sol.n_components, sol.n_transient_states) == (3, 1)
    absorbing, pair = sol.solutions
    assert absorbing.distribution == {1: 1.0}
    assert absorbing.residual == 0.0
    assert pair.states == (2, 3)
    assert pair.distribution[2] == pytest.approx(hi / (lo + hi), rel=1e-15)
    assert pair.distribution[3] == pytest.approx(lo / (lo + hi), rel=1e-12)
    assert pair.residual <= RESIDUAL_TOL


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n),
)))
def test_class_bookkeeping_matches_reachability(chain):
    n, edges = chain
    edges = {(u, v) for u, v in edges if u != v}
    sol = solve_stationary(_generator(n, {e: 1.0 for e in edges}))
    classes, closed = brute_reachability_partition(
        range(n), lambda u: [v for a, v in edges if a == u]
    )
    expected = [tuple(sorted(c)) for c, cl in zip(classes, closed) if cl]
    assert [c.states for c in sol.solutions] == expected
    assert sol.n_transient_states == n - sum(map(len, expected))


def test_uniformization_agrees_with_direct_on_tandem(six_class_graph):
    order = PlacementOrder.orient(
        six_class_graph,
        [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
    )
    mu = MultiServerRates.build(
        [1.0, 1.5, 2.0], [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}]
    )
    nu = MultiServerRates.build([1.0], [{0}] * 6)
    net = TandemNetwork(mu, nu, six_class_graph, (2,) + (1,) * 5, order)
    gen = build_generator(tandem_transition_fn(net), net.initial_state())
    assert gen.n_states == 208
    (direct,) = solve_stationary(gen).solutions
    (iterative,) = solve_stationary(
        gen, direct_limit=0, residual_tol=1e-12
    ).solutions
    assert (direct.method, iterative.method) == ("direct", "uniformization")
    assert total_variation(direct.distribution, iterative.distribution) < 1e-10
    analytic = dict(analyze_tandem(net).distribution)
    assert total_variation(direct.distribution, analytic) < 1e-12
