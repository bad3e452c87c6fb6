import inspect
import random

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given
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
    compile_cluster,
    solve_stationary,
    total_variation,
)
from passandswap import oracle
from passandswap.modelfile import parse_document
from passandswap.oracle import unique_solution
from conftest import (
    brute_reachability_partition,
    reference_solve_uniformized,
    transition_fn,
)

EPS = np.finfo(float).eps
RESIDUAL_TOL = inspect.signature(solve_stationary).parameters[
    "residual_tol"
].default


def test_reachable_state_count(two_class_queue):
    gen = build_generator(transition_fn(two_class_queue, 2), ())
    assert gen.n_states == 7  # empty, 2 singles, 4 pairs


def test_rows_sum_to_zero(two_class_queue):
    gen = build_generator(transition_fn(two_class_queue, 4), ())
    sums = np.asarray(gen.matrix.sum(axis=1)).ravel()
    assert np.abs(sums).max() < 1e-12


def test_budget_exceeded(two_class_queue):
    with pytest.raises(ResourceError):
        build_generator(transition_fn(two_class_queue, 8), (), budget=10)


def test_a_negative_rate_is_refused_and_a_zero_rate_dropped():
    gen = build_generator(lambda s: [(1, 0.0)] if s == 0 else [], 0)
    assert gen.states == (0,)
    assert gen.matrix.toarray().tolist() == [[-0.0]]
    # a usage error: exit 2 from the command line
    with pytest.raises(UsageError, match=r"^negative rate -1.0 from state 0$"):
        build_generator(lambda s: [(1, -1.0)], 0)


def test_two_state_birth_death():
    lam, mu_ = 0.7, 1.9

    def transitions(state):
        return [((1,), lam)] if state == () else [((), mu_)]

    gen = build_generator(transitions, ())
    dist = unique_solution(gen).distribution
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
    dist = unique_solution(gen).distribution
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
        unique_solution(gen)


def test_uniformization_agrees_with_direct(two_class_queue):
    gen = build_generator(transition_fn(two_class_queue, 5), ())
    direct = unique_solution(gen).distribution
    iterative = unique_solution(gen, direct_limit=0,
                                residual_tol=1e-12).distribution
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


# Rates near 1e6 put the rounding error of pi Q above an absolute 1e-11.
@example(_generator(2, {(0, 1): 1e6, (1, 0): 10.0**5.75}))
@given(strongly_connected_generators())
def test_direct_solve_matches_dense_reference(g):
    qa = g.matrix.toarray()
    n = g.n_states
    ref, cond = _dense_reference(qa)
    # solve_stationary's guard: residual_tol per unit of max(1, max |q_ii|)
    bound = RESIDUAL_TOL * max(1.0, np.abs(np.diag(qa)).max())
    try:
        sol = solve_stationary(g)
    except ConvergenceError:
        # a refusal is allowed only where rounding alone can put max |pi Q|
        # above the guard, or where both reduced systems (last state fixed,
        # then first) are singular to working precision
        floor = n * EPS * (np.abs(ref) @ np.abs(qa)).max()
        cond = min(np.linalg.cond(qa[:-1, :-1]), np.linalg.cond(qa[1:, 1:]))
        assert floor > bound or EPS * cond > 1
        return
    (cls,) = sol.solutions
    assert cls.method == "direct"
    assert (sol.n_components, sol.n_transient_states) == (1, 0)
    pi = np.array([cls.distribution[i] for i in range(n)])
    assert np.abs(pi @ qa).max() <= bound
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


@pytest.mark.parametrize("scale", [1e5, 1e6])
def test_residual_check_scales_with_the_rates(scale):
    # A cycle through every state plus random chords, each rate 10**U(-1, 1)
    # times ``scale``.  The rounding error of ``pi Q`` grows with the exit
    # rates; an absolute 1e-11 refused many of these correct direct solves.
    rng = random.Random(int(scale) + 1)
    for _ in range(100):
        n = rng.randint(2, 40)
        cycle = rng.sample(range(n), n)
        edges = {(cycle[i], cycle[(i + 1) % n]) for i in range(n)}
        edges |= {(u, v) for u, v in (
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 3 * n))
        ) if u != v}
        g = _generator(n, {
            e: scale * 10.0 ** rng.uniform(-1.0, 1.0) for e in sorted(edges)
        })
        (cls,) = solve_stationary(g).solutions
        assert cls.method == "direct"


def test_unbalanced_row_is_a_convergence_error():
    from passandswap.oracle import _check_row_sums

    _check_row_sums(sp.csr_matrix(np.array([[-1e6, 1e6], [1.0, -1.0]])))
    for rows in ([[-1.0, 1.5], [1.0, -1.0]],
                 [[-1e6, 1e6 + 1e-3], [1.0, -1.0]]):
        with pytest.raises(ConvergenceError, match="do not sum to zero"):
            _check_row_sums(sp.csr_matrix(np.array(rows)))


def _tiny_tail_rates():
    """An 18-state chain whose last state has probability about 5e-18 of
    the largest: it is entered only by a 1e-4 branch out of a region that
    is itself entered with probability about 1e-7.  State 8 is entered only
    from it and is as improbable."""
    rates = {
        (0, 3): 1.0, (0, 9): 1.0, (1, 3): 10.0, (1, 4): 0.01, (2, 5): 1.0,
        (3, 10): 1.0, (4, 2): 1e-6, (4, 6): 10.0, (5, 0): 1.0, (6, 1): 1.0,
        (7, 6): 1.0, (8, 3): 1.0, (9, 10): 100.0, (9, 17): 1e-4,
        (16, 7): 1.0, (17, 8): 1.0,
    }
    rates.update({(u, u + 1): 1.0 for u in range(10, 16)})
    return rates


def test_direct_breakdown_retries_with_the_first_state_fixed():
    # With the last state fixed the reduced system is singular in floating
    # point and its factor meets an exactly zero pivot; with the first
    # state fixed it solves.
    g = _generator(18, _tiny_tail_rates())
    with pytest.raises(ConvergenceError, match="broke down"):
        oracle._solve_direct(g.matrix)
    (cls,) = solve_stationary(g).solutions
    assert cls.method == "direct"
    assert cls.residual <= RESIDUAL_TOL
    pi = np.array([cls.distribution[i] for i in range(18)])
    ref, cond = _dense_reference(g.matrix.toarray())
    assert np.abs(pi - ref).max() <= max(1e-10, 8 * 18 * EPS * cond)
    assert 0.0 < pi[17] < 1e-17


def test_direct_breakdown_is_a_convergence_error():
    # Swapping the labels of states 0 and 8 makes the chain improbable at
    # both ends, so fixing either the last or the first state breaks down.
    swap = {0: 8, 8: 0}
    rates = {
        (swap.get(u, u), swap.get(v, v)): r
        for (u, v), r in _tiny_tail_rates().items()
    }
    with pytest.raises(ConvergenceError, match="broke down"):
        solve_stationary(_generator(18, rates))


def test_a_law_above_the_residual_bound_is_a_convergence_error():
    # No float law meets a bound of 1e-20 on the 3,280-state chain: both
    # direct solves miss it, and so does the uniformized one at its floor.
    gen = _open_generator(7)
    for limit in (20_000_000, 0):
        with pytest.raises(ConvergenceError,
                           match=r"^stationary solve residual .* above "):
            solve_stationary(gen, direct_limit=limit, residual_tol=1e-20)


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
    gen = build_generator(transition_fn(net), net.initial_state())
    assert gen.n_states == 208
    (direct,) = solve_stationary(gen).solutions
    (iterative,) = solve_stationary(
        gen, direct_limit=0, residual_tol=1e-12
    ).solutions
    assert (direct.method, iterative.method) == ("direct", "uniformization")
    assert total_variation(direct.distribution, iterative.distribution) < 1e-10
    analytic = dict(analyze_tandem(net).distribution)
    assert total_variation(direct.distribution, analytic) < 1e-12


# ------------------------------------------------------ the branch choice

# The 3-class path-graph open model of the CLI tests.
OPEN_DOC = {
    "schema": "pands-open/1",
    "classes": 3,
    "arrival_rates": [0.8, 0.8, 0.8],
    "rate_function": {
        "kind": "multi_server",
        "server_rates": [1.0, 1.0],
        "compat": [[1], [2], [1, 2]],
    },
    "swapping_edges": [[1, 2], [2, 3]],
}


def _open_generator(capacity):
    queue = parse_document(OPEN_DOC).queue
    return build_generator(transition_fn(queue, capacity), ())


def test_direct_class_is_solved_by_the_plain_direct_solve():
    # 3,280 states: enough for the probes to run, which must not change the
    # factor the solve uses.
    gen = _open_generator(7)
    assert gen.n_states == 3280
    (cls,) = solve_stationary(gen).solutions
    assert cls.method == "direct"
    pi = np.array([cls.distribution[s] for s in gen.states])
    assert np.array_equal(pi, oracle._solve_direct(gen.matrix))


def test_factor_size_estimate_is_near_the_factor():
    q = _open_generator(7).matrix
    lu = spla.splu(q[:-1, :-1].transpose().tocsc(), **oracle._LU_OPTIONS)
    actual = lu.L.nnz + lu.U.nnz
    assert 0.5 * actual < oracle._factor_size(q, np.inf) < 2.0 * actual


def test_direct_limit_zero_forces_uniformization():
    gen = _open_generator(7)
    (cls,) = solve_stationary(gen, direct_limit=0).solutions
    assert cls.method == "uniformization"
    (one,) = solve_stationary(
        build_generator(lambda s: [], "only"), direct_limit=0
    ).solutions
    assert (one.method, one.distribution) == ("uniformization", {"only": 1.0})


def test_open_chain_leaves_the_trial_early_and_goes_direct(monkeypatch):
    # The 3,280-state chain contracts by about 0.57 per checkpoint at its
    # third, which projects thousands of steps to the floor: the trial
    # gives up there, long before its budget, and the class is factored.
    gen = _open_generator(7)
    calls = []
    iterate = oracle._solve_uniformized

    def counted(*args):
        pi, history = iterate(*args)
        calls.append((args[2:], pi is None, len(history)))
        return pi, history

    monkeypatch.setattr(oracle, "_solve_uniformized", counted)
    (cls,) = solve_stationary(gen).solutions
    assert cls.method == "direct"
    assert calls == [((oracle._TRIAL_ITERATIONS,), True, 3)]


def test_uniformization_stops_where_the_residual_stops_falling(
    monkeypatch, two_class_queue
):
    # With the floor out of reach the iteration still stops, at the first
    # checkpoint that does not lower a residual already within the guard.
    monkeypatch.setattr(oracle, "_FLOOR_MULTIPLE", 0.0)
    gen = build_generator(transition_fn(two_class_queue, 5), ())
    pi, history = oracle._solve_uniformized(gen.matrix, RESIDUAL_TOL)
    assert history[-2] <= history[-1] <= RESIDUAL_TOL * max(
        1.0, np.abs(gen.matrix.diagonal()).max()
    )
    assert total_variation(
        dict(zip(gen.states, pi)), unique_solution(gen).distribution
    ) < 1e-10


def test_uniformization_budget_runs_out_before_any_projection(
    two_class_queue,
):
    # A budget of one checkpoint interval leaves one residual and no
    # contraction to project from, so the iteration ends by spending it.
    gen = build_generator(transition_fn(two_class_queue, 5), ())
    pi, history = oracle._solve_uniformized(
        gen.matrix, RESIDUAL_TOL, oracle._CHECKPOINT
    )
    assert pi is None
    assert len(history) == 1
    assert history[0] > oracle._FLOOR_MULTIPLE * EPS * max(
        1.0, np.abs(gen.matrix.diagonal()).max()
    )
    # Without a budget the same class converges.
    pi, _ = oracle._solve_uniformized(gen.matrix, RESIDUAL_TOL)
    assert pi is not None


def test_uniformization_without_a_budget_raises_past_its_limit(
    monkeypatch, two_class_queue,
):
    monkeypatch.setattr(oracle, "_MAX_ITERATIONS", oracle._CHECKPOINT)
    gen = build_generator(transition_fn(two_class_queue, 5), ())
    with pytest.raises(ConvergenceError, match="failed to converge; "
                       "residual history tail"):
        oracle._solve_uniformized(gen.matrix, RESIDUAL_TOL)


def _assert_same_iteration(q, budget=None):
    pi, history = oracle._solve_uniformized(q, RESIDUAL_TOL, budget)
    want_pi, want_history = reference_solve_uniformized(q, RESIDUAL_TOL,
                                                        budget)
    assert history == want_history
    if want_pi is None:
        assert pi is None
    else:
        assert pi.dtype == want_pi.dtype and pi.tobytes() == want_pi.tobytes()
    return history


def test_uniformization_is_the_former_iteration_on_the_open_chains(
    monkeypatch,
):
    # P^T from one copy of Q and the residual read as pi Q: the same
    # floats as (I + Q / lam)^T and a transposed copy of Q.
    assert len(_assert_same_iteration(_open_generator(7).matrix)) > 50
    big = oracle.open_generator(parse_document(OPEN_DOC).queue, 10).matrix
    assert big.shape[0] == 88_573
    # The trial gives up after two checkpoints; a floor raised within
    # reach stops the full iteration after three, with a law.
    assert len(_assert_same_iteration(big, oracle._TRIAL_ITERATIONS)) == 2
    monkeypatch.setattr(oracle, "_FLOOR_MULTIPLE", 1e11)
    assert len(_assert_same_iteration(big)) == 3


def test_uniformization_is_the_former_iteration_on_the_tandem():
    ct = compile_cluster(parse_document(_bipartite_doc((1, 1, 1))).spec)
    gen = oracle.tandem_generator(ct.network, ct.initial)
    assert gen.n_states == 7_560
    history = _assert_same_iteration(gen.matrix, oracle._TRIAL_ITERATIONS)
    assert history[-1] <= oracle._FLOOR_MULTIPLE * EPS * max(
        1.0, np.abs(gen.matrix.diagonal()).max())


def _bipartite_doc(buffers):
    """The bipartite cluster family of the benchmark's ladder: three job
    types with two waiting slots each, machine buffers ``buffers``."""
    return {
        "schema": "pands-cluster/1",
        "job_types": [
            {"name": "A", "rate": 1.0, "slots": 2, "machines": ["1", "3"]},
            {"name": "B", "rate": 1.2, "slots": 2, "machines": ["2", "3"]},
            {"name": "C", "rate": 0.8, "slots": 2, "machines": ["1", "2"]},
        ],
        "machines": [
            {"name": name, "rate": rate, "buffer": b}
            for (name, rate), b in zip(
                (("1", 1.0), ("2", 1.0), ("3", 1.5)), buffers
            )
        ],
    }


def _refuse_factoring(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("probed or factored a class the trial solves")

    monkeypatch.setattr(oracle, "_factor_size", refuse)
    monkeypatch.setattr(oracle, "_solve_direct", refuse)


def test_tandem_converging_in_the_trial_matches_the_analytic_law(
    monkeypatch,
):
    # (2,2,2|1,1,1): 7,560 states, about 300 steps to the floor, against a
    # factor of 5.9M nonzeros.  At the floor the law is within 3e-13 of
    # the analytic one; an absolute 1e-11 stop left it 2.6e-9 away.
    ct = compile_cluster(parse_document(_bipartite_doc((1, 1, 1))).spec)
    gen = build_generator(transition_fn(ct.network), ct.initial)
    assert gen.n_states == 7_560
    _refuse_factoring(monkeypatch)
    (cls,) = solve_stationary(gen).solutions
    assert cls.method == "uniformization"
    analytic = dict(analyze_tandem(ct.network, ct.initial).distribution)
    assert total_variation(cls.distribution, analytic) < 1e-12


def test_tandem_with_a_large_factor_goes_to_uniformization(monkeypatch):
    # (2,2,2|2,1,1): 17,556 states.  Its LU factor would need far more than
    # the default ``direct_limit`` nonzeros and took minutes and gigabytes
    # to make; the trial reaches the floor in about 350 steps, so neither
    # a probe nor a factor runs.
    ct = compile_cluster(parse_document(_bipartite_doc((2, 1, 1))).spec)
    gen = build_generator(transition_fn(ct.network), ct.initial)
    assert gen.n_states == 17_556
    _refuse_factoring(monkeypatch)
    (cls,) = solve_stationary(gen).solutions
    assert cls.method == "uniformization"
