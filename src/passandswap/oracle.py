"""Independent ground truth: explicit generator matrices and their
stationary solutions.

Nothing in this module consults balance weights or any other closed-form
expression; it only replays the transition mechanism to build the generator
of the continuous-time Markov chain and solves it numerically, so agreement
with the analytic distributions is a genuine cross-check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, ResourceError, UsageError

TransitionFn = Callable[[Any], Iterable[tuple[Any, float]]]

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorMatrix:
    """Generator of a finite chain over an explicitly enumerated state set.

    ``matrix`` holds off-diagonal rates with diagonals set to minus the row
    sums; state indices follow breadth-first discovery order, which is
    deterministic for a fixed transition function and initial state.
    """

    states: tuple[Hashable, ...]
    index: Mapping[Hashable, int]
    matrix: sp.csr_matrix

    @property
    def n_states(self) -> int:
        return len(self.states)


def build_generator(
    transitions: TransitionFn,
    initial: Hashable,
    budget: int = 200_000,
) -> GeneratorMatrix:
    """Breadth-first closure of the reachable state space from ``initial``.

    Parallel transitions between the same pair of states aggregate by rate
    summation; self-transitions cancel in the generator and are dropped.
    """
    index: dict[Hashable, int] = {initial: 0}
    order: list[Hashable] = [initial]
    frontier: deque[Hashable] = deque([initial])
    entries: dict[tuple[int, int], float] = {}
    while frontier:
        state = frontier.popleft()
        u = index[state]
        for target, rate in transitions(state):
            if rate < 0.0:
                raise UsageError(f"negative rate {rate} from state {state!r}")
            if rate == 0.0:
                continue
            if target not in index:
                if len(index) >= budget:
                    raise ResourceError(
                        f"reachable state count exceeded budget {budget} "
                        f"(frontier size {len(frontier)})"
                    )
                index[target] = len(order)
                order.append(target)
                frontier.append(target)
            v = index[target]
            if u != v:
                entries[(u, v)] = entries.get((u, v), 0.0) + rate
    n = len(order)
    rows = [u for u, _ in entries]
    cols = [v for _, v in entries]
    vals = [entries[(u, v)] for u, v in zip(rows, cols)]
    diag_idx = list(range(n))
    row_sums = [0.0] * n
    for u, val in zip(rows, vals):
        row_sums[u] += val
    rows += diag_idx
    cols += diag_idx
    vals += [-s for s in row_sums]
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    _check_row_sums(matrix)
    return GeneratorMatrix(tuple(order), index, matrix)


def _check_row_sums(matrix: sp.csr_matrix) -> None:
    """Raise unless every row of ``matrix`` sums to zero within
    ``ROW_SUM_TOL`` per unit of the row's exit rate ``|q_ii|`` (at least
    one): the rounding error of a row's sum grows with its rates."""
    check = np.abs(np.asarray(matrix.sum(axis=1)).ravel())
    slack = ROW_SUM_TOL * np.maximum(1.0, np.abs(matrix.diagonal()))
    if (check > slack).any():
        raise ConvergenceError("generator rows do not sum to zero")


@dataclass(frozen=True)
class ClassSolution:
    """Stationary distribution of one closed communicating class."""

    states: tuple[Hashable, ...]
    distribution: Mapping[Hashable, float]
    residual: float
    method: str


@dataclass(frozen=True)
class StationarySolution:
    solutions: tuple[ClassSolution, ...]
    n_components: int
    n_transient_states: int


def _solve_direct(q_sub: sp.csr_matrix) -> np.ndarray:
    """Stationary law of one closed communicating class by sparse LU.

    The balance equation of the last state is dropped and its probability
    fixed at 1, leaving ``Q[:-1, :-1]^T x = -Q[n-1, :-1]^T``; the result is
    then normalized.  For a closed communicating class ``-Q[:-1, :-1]`` is a
    nonsingular M-matrix, and Gaussian elimination in any symmetric order
    keeps every Schur complement an M-matrix, so the diagonal pivots stay
    positive (the GTH argument; Stewart, *Introduction to the Numerical
    Solution of Markov Chains*, 1994, ch. 2).  The factorization therefore
    takes the diagonal pivots as they come and orders rows and columns alike
    by minimum degree on ``A^T + A``, which keeps the fill low.  In floating
    point the reduced system grows ill-conditioned as the last state's
    probability shrinks; a factor that meets an exactly zero pivot raises
    ``ConvergenceError``.
    """
    n = q_sub.shape[0]
    if n == 1:
        return np.array([1.0])
    a = q_sub[:-1, :-1].transpose().tocsc()
    b = -q_sub[n - 1, :-1].toarray().ravel()
    try:
        lu = spla.splu(
            a,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise ConvergenceError(
            f"direct solve broke down ({exc}): the reduced balance system "
            "is singular in floating point"
        ) from None
    pi = np.append(lu.solve(b), 1.0)
    return pi / pi.sum()


def _solve_uniformized(
    q_sub: sp.csr_matrix,
    damping: float,
    margin: float,
    max_iterations: int,
    residual_tol: float,
) -> tuple[np.ndarray, list[float]]:
    n = q_sub.shape[0]
    out_rates = -q_sub.diagonal()
    lam = margin * float(out_rates.max()) if n else 1.0
    if lam <= 0.0:
        return np.full(n, 1.0 / n), [0.0]
    # transposed once here: ``pi @ p`` would build a transpose every step
    p_t = (sp.eye(n, format="csr") + q_sub / lam).transpose().tocsr()
    q_t = q_sub.transpose().tocsr()
    pi = np.full(n, 1.0 / n)
    history: list[float] = []
    for it in range(max_iterations):
        pi = (1.0 - damping) * pi + damping * (p_t @ pi)
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        if it % 50 == 0 or it == max_iterations - 1:
            residual = float(np.abs(q_t @ pi).max())
            history.append(residual)
            if residual < residual_tol:
                return pi, history
    raise ConvergenceError(
        f"uniformized power iteration failed to converge; "
        f"residual history tail {history[-5:]}"
    )


def solve_stationary(
    g: GeneratorMatrix,
    direct_limit: int = 50_000,
    damping: float = 0.99,
    uniformization_margin: float = 1.05,
    max_iterations: int = 1_000_000,
    residual_tol: float = 1e-11,
) -> StationarySolution:
    """Stationary distribution of every closed communicating class.

    Classes are listed in order of their first state.  Classes of at most
    ``direct_limit`` states solve directly: one balance equation is dropped,
    the rest are factored by sparse LU ordered by minimum degree on
    ``A^T + A``, without pivoting, which is safe because the reduced system
    is a nonsingular M-matrix (see ``_solve_direct``).  Larger classes fall
    back to damped power iteration on the uniformized chain.  Either way the
    residual ``max |pi Q|`` must come in below ``residual_tol``.
    """
    n = g.n_states
    q = g.matrix
    adjacency = sp.csr_matrix((np.ones(q.nnz), q.indices, q.indptr), shape=(n, n))
    n_comp, labels = connected_components(
        adjacency, directed=True, connection="strong"
    )
    coo = q.tocoo()
    leaving, entering = labels[coo.row], labels[coo.col]
    closed = np.ones(n_comp, dtype=bool)
    closed[leaving[(coo.data > 0.0) & (leaving != entering)]] = False
    _, first = np.unique(labels, return_index=True)
    by_label = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=n_comp))
    solutions: list[ClassSolution] = []
    transient = 0
    # classes in order of their first state, as closed.communicating_classes
    for lab in labels[np.sort(first)]:
        members = by_label[ends[lab - 1] if lab else 0:ends[lab]]
        if not closed[lab]:
            transient += len(members)
            continue
        q_sub = q if len(members) == n else q[members][:, members].tocsr()
        if len(members) <= direct_limit:
            pi = _solve_direct(q_sub)
            method = "direct"
        else:
            pi, _ = _solve_uniformized(
                q_sub, damping, uniformization_margin, max_iterations,
                residual_tol,
            )
            method = "uniformization"
        residual = float(np.abs(pi @ q_sub).max()) if len(members) > 1 else 0.0
        if residual > residual_tol or not np.isfinite(pi).all():
            raise ConvergenceError(
                f"stationary solve residual {residual} above {residual_tol}"
            )
        states = tuple(g.states[i] for i in members)
        dist = {s: float(p) for s, p in zip(states, pi)}
        solutions.append(ClassSolution(states, dist, residual, method))
    return StationarySolution(tuple(solutions), n_comp, transient)


def solve_unique(g: GeneratorMatrix, **kwargs) -> dict[Hashable, float]:
    """Stationary distribution of a chain with exactly one closed class
    covering every reachable state."""
    sol = solve_stationary(g, **kwargs)
    if len(sol.solutions) != 1 or sol.n_transient_states:
        raise UsageError(
            f"chain is not irreducible: {len(sol.solutions)} closed classes, "
            f"{sol.n_transient_states} transient states"
        )
    return dict(sol.solutions[0].distribution)


def total_variation(
    p: Mapping[Hashable, float], q: Mapping[Hashable, float]
) -> float:
    """Half the L1 distance between two distributions on the same support."""
    if set(p) != set(q):
        raise UsageError("distributions have mismatched supports")
    return 0.5 * sum(abs(p[k] - q[k]) for k in p)
