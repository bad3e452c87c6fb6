"""Independent ground truth: explicit generator matrices and their
stationary solutions.

Nothing in this module consults balance weights or any other closed-form
expression; it only replays the transition mechanism to build the generator
of the continuous-time Markov chain and solves it numerically, so agreement
with the analytic distributions is a genuine cross-check.  A closed queue's
generator is the breadth-first closure of its successors
(:func:`build_generator`).  A tandem's is the same closure, to the same
bits, built by :func:`tandem_generator` over ids of each queue's contents,
one numpy step per breadth-first level.  An open queue's truncated
generator is built by :func:`open_generator`, which knows the breadth-first
order in closed form and scans every chain with numpy, to the same bits.
The states and index of these two, and a solved class's law as a mapping,
are built only when read: :func:`compare_laws` compares two laws as arrays
and builds states only for the residuals it ranks.  The solve frees its
class partition's scratch before any class is solved, and the uniformized
solve makes one copy of a class's generator.

This is the only module that uses numpy and scipy, and each function loads
them on first use rather than at import: every other answer comes from
pure-Python recursions and walks, so the commands that never solve a
generator start without paying for them.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import (TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping,
                    Sequence)

from .dynamics import completions
from .errors import ConvergenceError, ResourceError, UsageError
from .model import (PandsQueue, RateFunction, State, SwappingGraph,
                    all_macrostates, all_states, shortlex_starts)

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

    from .closed import TandemNetwork

TransitionFn = Callable[[Any], Iterable[tuple[Any, float]]]

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorMatrix:
    """Generator of a finite chain over an explicitly enumerated state set.

    ``matrix`` holds off-diagonal rates with diagonals set to minus the row
    sums; state indices follow breadth-first discovery order, which is
    deterministic for a fixed transition function and initial state.  For
    an open queue truncated at a capacity, that order is shortlex: by
    customer count, then by classes head first (see
    :func:`open_generator`, whose states and index are built on first
    read).
    """

    states: tuple[Hashable, ...]
    index: Mapping[Hashable, int]
    matrix: sp.csr_matrix

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def locator(self) -> Callable[[Sequence[Hashable]], np.ndarray]:
        """A function giving the row of each of a list of states, -1 for a
        state not reached.  It holds no reference to the matrix, which can
        be freed while the function is kept."""
        import numpy as np
        index = self.index
        return lambda states: np.array([index.get(s, -1) for s in states],
                                       dtype=np.int64)


class _ShortlexGenerator(GeneratorMatrix):
    """The truncated generator of an open queue, whose states (every state
    of at most ``capacity`` customers, in shortlex order) and index are
    built on first read."""

    def __init__(self, n_classes: int, capacity: int, matrix: sp.csr_matrix):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_space", (n_classes, capacity))

    @cached_property
    def states(self) -> tuple[Hashable, ...]:
        return tuple(all_states(*self._space))

    @cached_property
    def index(self) -> Mapping[Hashable, int]:
        return dict(zip(self.states, range(self.n_states)))


def build_generator(
    transitions: TransitionFn,
    initial: Hashable,
    budget: int = 200_000,
) -> GeneratorMatrix:
    """Breadth-first closure of the reachable state space from ``initial``,
    through ``transitions``, which maps a state to its ``(next_state,
    rate)`` pairs (``closed.successors`` gives them for closed queues and
    tandems; an open queue's truncation is built by :func:`open_generator`).

    Parallel transitions between the same pair of states aggregate by rate
    summation; self-transitions cancel in the generator and are dropped.
    """
    index: dict[Hashable, int] = {initial: 0}
    order: list[Hashable] = [initial]
    # CSR rows in breadth-first order; each row's columns come in the order
    # of their first transition, with the diagonal last.  The loop walks
    # ``order`` as it grows: the frontier is ``order[u + 1:]``.
    indptr = array("q", [0])
    cols = array("q")
    vals = array("d")
    n = 1  # len(order)
    for u, state in enumerate(order):
        row: dict[int, float] = {}
        for target, rate in transitions(state):
            if rate < 0.0:
                raise UsageError(f"negative rate {rate} from state {state!r}")
            if rate == 0.0:
                continue
            # one hash per target: a new state takes the next index
            v = index.setdefault(target, n)
            if v == n:
                if n >= budget:
                    raise ResourceError(
                        f"reachable state count exceeded budget {budget} "
                        f"(frontier size {n - u - 1})"
                    )
                order.append(target)
                n += 1
            if u != v:
                row[v] = row.get(v, 0.0) + rate
        exit_rate = 0.0
        for val in row.values():
            exit_rate += val
        row[u] = -exit_rate
        cols.extend(row)
        vals.extend(row.values())
        indptr.append(len(cols))
    return GeneratorMatrix(tuple(order), index, _csr(indptr, cols, vals))


def _csr(indptr: array, cols: array, vals: array) -> sp.csr_matrix:
    """The generator whose CSR rows were streamed into ``indptr``, ``cols``
    and ``vals``, with each row's columns sorted and its sum checked."""
    import numpy as np
    import scipy.sparse as sp
    n = len(indptr) - 1
    matrix = sp.csr_matrix(
        (np.frombuffer(vals), np.frombuffer(cols, dtype=np.int64),
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(n, n),
    )
    matrix.sort_indices()
    _check_row_sums(matrix)
    return matrix


# States per chunk in ``open_generator``: each numpy call covers thousands
# of states, and a chunk's arrays (a row of digits per state) stay small
# beside the matrix, up to ``_CELLS`` digits however long the states are.
_CHUNK = 4096
_CELLS = 1 << 18


def open_generator(
    queue: PandsQueue, capacity: int, budget: int = 200_000
) -> GeneratorMatrix:
    """Generator of the open ``queue`` with arrivals blocked at ``capacity``
    customers, built with numpy, a chunk of states at a time.

    It is bit for bit what ``build_generator`` makes from the empty state
    when a state's transitions are its arrivals in class order while it
    holds fewer than ``capacity`` customers, then its completions head
    first: the same states, index, and CSR ``indptr``, ``indices`` and
    ``data``.  No state is hashed, because each index is known in closed
    form.  Arrival rates are positive, so every state of at most
    ``capacity`` customers is reachable, and the breadth-first search finds
    them in shortlex order: a state's arrivals, in class order, are its
    only new successors, since a completion leaves a shorter state, found
    before any state of its own length is walked.  So the state of ``k``
    customers whose classes, head first, read ``c`` as base-``n`` digits
    has index ``n^0 + ... + n^(k-1) + c``.

    A customer's increment depends only on the macrostate of the customers
    ahead of it and its class, so it is read from a table filled by the
    rate function's own :meth:`~passandswap.model.RateFunction.served` on
    one representative state per entry.  The states are taken in chunks of
    consecutive indices, which hold many short levels (customer counts) or
    part of a long one, their digits padded past each state's tail with a
    class that is never served and never swaps.  At each position, the
    chain of every state of the chunk served there is scanned at once,
    with the swapping graph as a boolean matrix, and the next state's
    index follows by arithmetic.  The walk over positions stops once no
    state of the chunk can be served at a later one (a table over the
    macrostates ahead, filled bottom up from the increments), and a chain
    scan once no moving class has a neighbour, the rest of each state then
    following as it is.  Completions that reach the same state are
    summed in position order, and the diagonal is minus a sum that starts
    at 0.0, adds the arrival rates in class order, then the merged
    completions in the order of their first position, as in the generic
    build.

    Each length's first index comes from ``model.shortlex_starts``, which
    refuses a truncation of more than ``budget`` states before any work.
    """
    import numpy as np
    if capacity < 0:
        raise UsageError("capacity must be non-negative")
    n = queue.n_classes
    first = np.array(shortlex_starts(n, capacity, budget), dtype=np.int64)
    count = int(first[-1])
    # Increments and successors per (prefix macrostate, class), the empty
    # macrostate first; the padding class ``n`` adds nothing and leaves the
    # macrostate as it is.  A served customer has fewer than ``capacity``
    # customers ahead of it.
    macros = list(all_macrostates(n, capacity - 1))
    ids = {x: j for j, x in enumerate(macros)}
    inc = np.zeros((len(macros), n + 1))
    after = np.repeat(np.arange(len(macros))[:, None], n + 1, axis=1)
    for j, x in enumerate(macros):
        rep = sum(((c,) * k for c, k in enumerate(x)), ())
        for i in range(n):
            served = queue.rate_fn.served(rep + (i,))
            if served and served[-1][0] == len(rep):
                inc[j, i] = served[-1][1]
            after[j, i] = ids.get(x[:i] + (x[i] + 1,) + x[i + 1:], 0)
    # live[j]: a customer behind a prefix of macrostate j may be served,
    # bottom up from the longest prefixes, whose successors are not listed
    totals = np.array([sum(x) for x in macros], dtype=np.int64)
    live = np.zeros(len(macros), dtype=bool)
    for j in np.argsort(-totals, kind="stable").tolist():
        live[j] = (inc[j, :n] > 0.0).any() or (
            totals[j] < capacity - 1 and live[after[j, :n]].any())
    swaps = np.zeros((n + 1, n + 1), dtype=bool)
    for c, others in enumerate(queue.swapping._neighbors):
        swaps[c, list(others)] = True
    # a class without neighbours ends every chain it moves
    isolated = ~swaps.any(axis=1)
    check_isolated = bool(isolated[:n].any())
    # a next state's index is read head first, one digit per real class
    scale = np.append(np.full(n, n), 1)
    digit = np.append(np.arange(n), 0)
    power = n ** np.arange(capacity + 1)
    lam = np.array(queue.arrival_rates)
    arrivals = 0.0  # in class order, as a row of the generic build; sum()
    for rate in queue.arrival_rates:  # may compensate
        arrivals += rate
    indptr = array("q", [0])
    cols = array("q")
    vals = array("d")
    chunk = max(1, min(_CHUNK, _CELLS // max(1, capacity)))
    for lo in range(0, count, chunk):
        u = np.arange(lo, min(lo + chunk, count))
        m = len(u)
        k = np.searchsorted(first, u, side="right") - 1
        v = u - first[k]
        exponent = k[:, None] - 1 - np.arange(k[-1])
        digits = np.where(exponent >= 0,
                          v[:, None] // power[np.maximum(exponent, 0)] % n, n)
        # the completions' rows, next states and rates, by position
        none = np.zeros(0, dtype=np.int64)
        rows, targets, rates = [none], [none], [np.zeros(0)]
        pid = np.zeros(m, dtype=np.int64)
        for p in range(k[-1]):
            if not (live[pid] & (k > p)).any():
                break  # no position from p on is served
            cls = digits[:, p]
            rate = inc[pid, cls]
            pid = after[pid, cls]
            at = np.flatnonzero(rate > 0.0)
            if not len(at):
                continue
            # the chain from position p; the next state drops p
            moving = cls[at]
            target = v[at] // power[k[at] - p]
            for q in range(p + 1, k[-1]):
                if check_isolated and isolated[moving].all():
                    # no more swaps: the rest of each state follows as is
                    rest = power[np.maximum(k[at] - q, 0)]
                    target = target * rest + v[at] % rest
                    break
                c = digits[at, q]
                swap = swaps[moving, c]
                cell = np.where(swap, moving, c)
                target = target * scale[cell] + digit[cell]
                moving = np.where(swap, c, moving)
            rows.append(at)
            targets.append(first[k[at] - 1] + target)
            rates.append(rate[at])
        # merge completions by (row, target): one group per distinct next
        # state, groups sorted by row then target
        keys = [r * count + t for r, t in zip(rows, targets)]
        uniq, group = np.unique(np.concatenate(keys), return_inverse=True)
        group = np.split(group, np.cumsum([len(r) for r in rows])[:-1])
        merged = np.zeros(len(uniq))
        for g, r in zip(group, rates):
            merged[g] += r
        arriving = k < capacity
        exit_rates = np.where(arriving, arrivals, 0.0)
        seen = np.zeros(len(uniq), dtype=bool)
        for g, r in zip(group, rows):
            new = ~seen[g]
            exit_rates[r[new]] += merged[g[new]]
            seen[g[new]] = True
        g_row = uniq // count
        per_row = np.bincount(g_row, minlength=m)
        lengths = per_row + 1 + n * arriving
        starts = np.cumsum(lengths) - lengths
        row_cols = np.empty(lengths.sum(), dtype=np.int64)
        row_vals = np.empty(len(row_cols))
        slot = starts[g_row] + np.arange(len(uniq)) - (
            np.cumsum(per_row) - per_row)[g_row]
        row_cols[slot] = uniq % count
        row_vals[slot] = merged
        diag = starts + per_row
        row_cols[diag] = u
        row_vals[diag] = -exit_rates
        slots = diag[arriving, None] + 1 + np.arange(n)
        row_cols[slots] = (first[k + 1] + v * n)[arriving, None] + np.arange(n)
        row_vals[slots] = lam
        indptr.frombytes((len(cols) + starts + lengths).tobytes())
        cols.frombytes(row_cols.tobytes())
        vals.frombytes(row_vals.tobytes())
    return _ShortlexGenerator(n, capacity, _csr(indptr, cols, vals))


# A tandem state's code: the id of its first queue's content, shifted, and
# of its second's.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


class _Contents:
    """The contents that one queue of a tandem meets, each given an id
    once, with its completions (listed by :meth:`complete`) and the id of
    the content that a customer joining its tail leaves (resolved by
    :meth:`joined` where a move needs it)."""

    def __init__(self, rate_fn: RateFunction, graph: SwappingGraph):
        import numpy as np
        self.rate_fn, self.graph = rate_fn, graph
        self.ids: dict[State, int] = {}
        self.contents: list[State] = []
        # The completions of content i, head first, are entries starts[i]
        # to starts[i + 1]: their rates, next contents and handed classes.
        self.starts = np.zeros(1, dtype=np.int64)
        self.rates = np.zeros(0)
        self.next = np.zeros(0, dtype=np.int64)
        self.handed = np.zeros(0, dtype=np.int64)
        # join[i, c]: the id of content i with a class-c customer at its
        # tail, or -1 until a move needs it
        self.join = np.zeros((0, graph.n_classes), dtype=np.int64)

    def id(self, content: State) -> int:
        i = self.ids.setdefault(content, len(self.contents))
        if i == len(self.contents):
            self.contents.append(content)
        return i

    def complete(self) -> None:
        """List the completions of every content met, and of the contents
        that they leave, which the chain reaches too."""
        import numpy as np
        ids, contents = self.ids, self.contents
        counts: list[int] = []
        rates: list[float] = []
        nexts: list[int] = []
        handed: list[int] = []
        # The loop meets the contents that it appends, too; ``id`` is
        # inlined, as it runs once per completion.
        for content in itertools.islice(contents, len(self.starts) - 1, None):
            moves = completions(self.rate_fn, self.graph, content)
            counts.append(len(moves))
            for _, inc, after, cls in moves:
                i = ids.setdefault(after, len(contents))
                if i == len(contents):
                    contents.append(after)
                rates.append(inc)
                nexts.append(i)
                handed.append(cls)
        self.starts = np.append(self.starts, self.starts[-1] + np.cumsum(
            np.array(counts, dtype=np.int64)))
        self.rates = np.append(self.rates, rates)
        self.next = np.append(self.next, np.array(nexts, dtype=np.int64))
        self.handed = np.append(self.handed, np.array(handed, dtype=np.int64))

    def joined(self, ids: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """The id of each content ``ids[j]`` with a ``classes[j]``
        customer joined at its tail."""
        import numpy as np
        n = self.join.shape[1]
        grow = len(self.contents) - len(self.join)
        if grow:
            self.join = np.concatenate(
                [self.join, np.full((grow, n), -1, dtype=np.int64)])
        out = self.join[ids, classes]
        missing = out < 0
        if missing.any():
            for key in np.unique(ids[missing] * n + classes[missing]).tolist():
                i, c = divmod(key, n)
                self.join[i, c] = self.id(self.contents[i] + (c,))
            out = self.join[ids, classes]
        return out


def _entries(starts: np.ndarray, ids: np.ndarray):
    """The entries ``starts[ids[j]]`` to ``starts[ids[j] + 1]`` of each
    ``j`` in turn: the count per ``j``, and each entry's ``j`` and index."""
    import numpy as np
    counts = starts[ids + 1] - starts[ids]
    owner = np.repeat(np.arange(len(ids)), counts)
    entry = np.arange(len(owner)) + (starts[ids] - np.cumsum(counts)
                                     + counts)[owner]
    return counts, owner, entry


class _TandemRows:
    """The rows of a tandem's states, found through the ids of their two
    queues' contents: called on a list of states, it gives the row of
    each, -1 for a state not reached."""

    def __init__(self, ids: tuple[dict, dict], codes: np.ndarray,
                 rows: np.ndarray):
        self.ids = ids  # each queue's contents, in the order of their ids
        self.codes, self.rows = codes, rows  # every code met, sorted; rows

    def states(self) -> tuple[Hashable, ...]:
        """Every state, in row order."""
        import numpy as np
        first, second = map(list, self.ids)
        codes = np.empty(len(self.codes), dtype=np.int64)
        codes[self.rows] = self.codes
        return tuple((first[x >> _SHIFT], second[x & _MASK])
                     for x in codes.tolist())

    def __call__(self, states: Sequence[Hashable]) -> np.ndarray:
        import numpy as np
        first, second = self.ids
        a = np.fromiter((first.get(c, -1) for c, _ in states), np.int64,
                        len(states))
        b = np.fromiter((second.get(d, -1) for _, d in states), np.int64,
                        len(states))
        codes = a << _SHIFT | b
        at = np.minimum(np.searchsorted(self.codes, codes),
                        len(self.codes) - 1)
        found = (a >= 0) & (b >= 0) & (self.codes[at] == codes)
        return np.where(found, self.rows[at], -1)


class _TandemGenerator(GeneratorMatrix):
    """A tandem's generator, whose states are known by the ids of their two
    queues' contents (see :class:`_TandemRows`).  Its states and index are
    built on first read."""

    def __init__(self, rows: _TandemRows, matrix: sp.csr_matrix):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_rows", rows)

    @cached_property
    def states(self) -> tuple[Hashable, ...]:
        return self._rows.states()

    @cached_property
    def index(self) -> Mapping[Hashable, int]:
        return dict(zip(self.states, range(self.n_states)))

    def locator(self) -> Callable[[Sequence[Hashable]], np.ndarray]:
        return self._rows


def tandem_generator(
    net: TandemNetwork, initial: Hashable, budget: int = 200_000
) -> GeneratorMatrix:
    """Generator of the tandem ``net`` from ``initial``, built with numpy:
    bit for bit what :func:`build_generator` makes from
    ``closed.successors(net)``, the same states in the same order and the
    same CSR ``indptr``, ``indices`` and ``data``, and the same refusal,
    frontier size included, once more than ``budget`` states are reached.

    No state is hashed.  Each queue's content gets an id once, and its
    completions come from :func:`~passandswap.dynamics.completions`, the
    kernel of ``closed.successors``; the id of the content that a handed
    customer joins is resolved only where a move needs it.  A state is
    coded by its two content ids, and the breadth-first search runs over
    the codes one level at a time: a level's new targets, taken in (state,
    move) order and each kept at its first occurrence, are exactly the
    states that a FIFO search appends while it walks that level.  A
    completion shortens one queue and lengthens the other, so no move
    returns to its state.  Rows are assembled as in :func:`open_generator`:
    moves reaching the same state are summed in move order, and the
    diagonal is minus a sum that starts at 0.0 and adds those sums in the
    order of their first move.  The states and index are built on first
    read.
    """
    import numpy as np
    queues = first, second = (_Contents(net.rate_fn_1, net.swapping),
                              _Contents(net.rate_fn_2, net.swapping))
    level = np.array([first.id(initial[0]) << _SHIFT | second.id(initial[1])])
    # every code met, sorted, and its row
    codes, rows = level.copy(), np.zeros(1, dtype=np.int64)
    csr = array("q", [0]), array("q"), array("d")
    while len(level):
        for queue in queues:
            queue.complete()
        level, codes, rows = _tandem_level(queues, level, codes, rows, budget,
                                           csr)
    ids = first.ids, second.ids
    del queues, first, second  # their completion and join tables
    return _TandemGenerator(_TandemRows(ids, codes, rows), _csr(*csr))


def _tandem_moves(queues: tuple[_Contents, _Contents], level: np.ndarray):
    """Every move of the states coded ``level``, in (state, move) order:
    its state's position in ``level``, its index among that state's moves,
    its target's code and its rate.  A state's moves are its first queue's
    completions, the handed customer joining the second queue's tail, then
    its second queue's."""
    import numpy as np
    first, second = queues
    a, b = level >> _SHIFT, level & _MASK
    c1, p1, k1 = _entries(first.starts, a)
    c2, p2, k2 = _entries(second.starts, b)
    target = np.concatenate([
        first.next[k1] << _SHIFT | second.joined(b[p1], first.handed[k1]),
        first.joined(a[p2], second.handed[k2]) << _SHIFT | second.next[k2],
    ])
    rate = np.concatenate([first.rates[k1], second.rates[k2]])
    # into (state, move) order: a stable merge of two sorted runs
    by_state = np.argsort(np.concatenate([p1, p2]), kind="stable")
    count = c1 + c2
    state = np.repeat(np.arange(len(level)), count)
    move = np.arange(len(state)) - (np.cumsum(count) - count)[state]
    return state, move, target[by_state], rate[by_state]


def _tandem_level(queues, level, codes, rows, budget, csr):
    """One level of :func:`tandem_generator`'s search: number the new
    states that the states coded ``level`` reach, append the level's rows
    to the CSR buffers ``csr``, and return the next level and the codes
    and rows met, each a new array.  The level's scratch is freed on
    return."""
    import numpy as np
    state, move, target, rate = _tandem_moves(queues, level)
    m, n = len(level), len(codes)
    low = n - m  # the level's first row
    # the targets' rows, new states numbered in order of first move
    at = np.minimum(np.searchsorted(codes, target), n - 1)
    row = rows[at]
    new = np.flatnonzero(codes[at] != target)
    fresh, first_move, which = np.unique(
        target[new], return_index=True, return_inverse=True)
    by_first = np.argsort(first_move)
    limit = max(budget, 1)  # the row of the state that passes the budget
    if limit - n < len(fresh):
        u = low + state[new[first_move[by_first[limit - n]]]]
        raise ResourceError(
            f"reachable state count exceeded budget {budget} "
            f"(frontier size {limit - u - 1})"
        )
    rank = np.empty(len(fresh), dtype=np.int64)
    rank[by_first] = np.arange(n, n + len(fresh))
    row[new] = rank[which]
    at = np.searchsorted(codes, fresh)
    codes, rows = np.insert(codes, at, fresh), np.insert(rows, at, rank)
    n += len(fresh)
    # merge moves by (state, target): groups sorted by state, then row
    uniq, group = np.unique(state * n + row, return_inverse=True)
    # a state has one move of each index, so no index repeats a group
    by_move = np.split(np.argsort(move, kind="stable"),
                       np.cumsum(np.bincount(move))[:-1])
    merged = np.zeros(len(uniq))
    for sel in by_move:
        merged[group[sel]] += rate[sel]
    exit_rates = np.zeros(m)
    seen = np.zeros(len(uniq), dtype=bool)
    for sel in by_move:
        g = group[sel]
        once = ~seen[g]
        exit_rates[state[sel[once]]] += merged[g[once]]
        seen[g[once]] = True
    # each row's columns in order, the diagonal among them
    g_state, g_col = uniq // n, uniq % n
    per_state = np.bincount(g_state, minlength=m)
    below = np.bincount(g_state[g_col < low + g_state], minlength=m)
    lengths = per_state + 1
    starts = np.cumsum(lengths) - lengths
    slot = (starts[g_state] + np.arange(len(uniq))
            - (np.cumsum(per_state) - per_state)[g_state]
            + (g_col > low + g_state))
    row_cols = np.empty(lengths.sum(), dtype=np.int64)
    row_vals = np.empty(len(row_cols))
    row_cols[slot] = g_col
    row_vals[slot] = merged
    diag = starts + below
    row_cols[diag] = np.arange(low, low + m)
    row_vals[diag] = -exit_rates
    indptr, cols, vals = csr
    indptr.frombytes((len(cols) + starts + lengths).tobytes())
    cols.frombytes(row_cols.tobytes())
    vals.frombytes(row_vals.tobytes())
    return fresh[by_first], codes, rows


def _check_row_sums(matrix: sp.csr_matrix) -> None:
    """Raise unless every row of ``matrix`` sums to zero within
    ``ROW_SUM_TOL`` per unit of the row's exit rate ``|q_ii|`` (at least
    one): the rounding error of a row's sum grows with its rates."""
    import numpy as np
    check = np.abs(np.asarray(matrix.sum(axis=1)).ravel())
    slack = ROW_SUM_TOL * np.maximum(1.0, np.abs(matrix.diagonal()))
    if (check > slack).any():
        raise ConvergenceError("generator rows do not sum to zero")


@dataclass(frozen=True, eq=False)
class ClassSolution:
    """Stationary distribution of one closed communicating class:
    ``pi[j]`` is the probability of the state of index ``members[j]`` in
    ``generator``, members in index order.  ``states`` and
    ``distribution`` are built on first read."""

    generator: GeneratorMatrix
    members: np.ndarray
    pi: np.ndarray
    residual: float
    method: str

    @cached_property
    def states(self) -> tuple[Hashable, ...]:
        states = self.generator.states
        return tuple(states[i] for i in self.members.tolist())

    @cached_property
    def distribution(self) -> Mapping[Hashable, float]:
        return dict(zip(self.states, self.pi.tolist()))


@dataclass(frozen=True)
class StationarySolution:
    solutions: tuple[ClassSolution, ...]
    n_components: int
    n_transient_states: int


# ``_solve_direct``'s factorization, shared by the probes of
# ``_factor_size`` so that they measure the fill it will make.
_LU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


def _solve_direct(q_sub: sp.csr_matrix, fix_first: bool = False) -> np.ndarray:
    """Stationary law of one closed communicating class by sparse LU.

    The balance equation of the last state (the first, with ``fix_first``)
    is dropped and its probability fixed at 1.  For the last state that
    leaves ``Q[:-1, :-1]^T x = -Q[n-1, :-1]^T``; the result is then
    normalized.  For a closed communicating class ``-Q[:-1, :-1]`` (and
    likewise ``-Q[1:, 1:]``) is a nonsingular M-matrix, and Gaussian
    elimination in any symmetric order keeps every Schur complement an
    M-matrix, so the diagonal pivots stay positive (the GTH argument;
    Stewart, *Introduction to the Numerical Solution of Markov Chains*,
    1994, ch. 2).  The factorization therefore takes the diagonal pivots as
    they come and orders rows and columns alike by minimum degree on
    ``A^T + A``, which keeps the fill low.  In floating point the reduced
    system grows ill-conditioned as the fixed state's probability shrinks; a
    factor that meets an exactly zero pivot raises ``ConvergenceError``, and
    ``solve_stationary`` then tries again with the first state fixed.
    """
    import numpy as np
    import scipy.sparse.linalg as spla
    n = q_sub.shape[0]
    if n == 1:
        return np.array([1.0])
    if fix_first:
        fixed, rest = 0, slice(1, None)
    else:
        fixed, rest = n - 1, slice(None, -1)
    a = q_sub[rest, rest].transpose().tocsc()
    b = -q_sub[fixed, rest].toarray().ravel()
    try:
        lu = spla.splu(a, **_LU_OPTIONS)
    except RuntimeError as exc:
        raise ConvergenceError(
            f"direct solve broke down ({exc}): the reduced balance system "
            "is singular in floating point"
        ) from None
    # A law that overflows is not finite, which ``solve_stationary`` reads
    # as a miss of its residual bound: no warning is due.
    with np.errstate(invalid="ignore", over="ignore"):
        pi = np.insert(lu.solve(b), fixed, 1.0)
        return pi / pi.sum()


# Classes of at most this many states skip the uniformized trial of
# ``solve_stationary`` and the probes of ``_factor_size``, and count
# ``nnz(Q)`` for their factor: even a dense factor of one is small.
_PROBE_MIN_STATES = 2048
# The probes factor leading blocks of n/2**_PROBES, ..., n/4, n/2 states.
_PROBES = 6


def _factor_size(q_sub: sp.csr_matrix, limit: float) -> float:
    """Estimated nonzeros of ``L`` and ``U`` in ``_solve_direct``'s factor,
    or, once the estimate passes ``limit``, the estimate that passed it.

    Factoring without pivoting in a fixed symmetric order, the fill depends
    only on the sparsity pattern, so each probe factors the pattern of a
    leading block of the reduced system (breadth-first order, as the states
    come) with a dominant diagonal, which cannot break down, under the same
    options as ``_solve_direct``.  Nonzeros per row are extrapolated to the
    whole class by the growth factor between the last two probes (never
    below 1), taken once per doubling.  Probing stops as soon as the
    estimate passes ``limit``, which makes the probes of a class that will
    not factor cheap.  The estimate is at least 1, so a ``limit`` of 0
    refuses every class.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    n = q_sub.shape[0]
    if n <= _PROBE_MIN_STATES:
        return max(q_sub.nnz, n)
    size = n - 1  # the reduced system drops one state
    per_row = estimate = 0.0
    for k in range(_PROBES, 0, -1):
        m = size >> k
        block = q_sub[:m, :m]
        # a CSR block read as CSC is the transposed block, as in the solve
        pattern = sp.csc_matrix(
            (np.ones(block.nnz), block.indices, block.indptr), shape=(m, m)
        ) + sp.identity(m, format="csc") * (m + 1.0)
        lu = spla.splu(pattern, **_LU_OPTIONS)
        last, per_row = per_row, (lu.L.nnz + lu.U.nnz) / m
        growth = max(1.0, per_row / last) if last else 1.0
        estimate = size * per_row * growth ** math.log2(size / m)
        if estimate > limit:
            break
    return estimate


# The power iteration's damping, the uniformization rate as a multiple of
# the largest exit rate, the steps between residual checkpoints, and the
# iteration limit.
_DAMPING = 0.99
_UNIFORMIZATION_MARGIN = 1.05
_CHECKPOINT = 50
_MAX_ITERATIONS = 1_000_000
# The iteration's target, as a multiple of the round-off floor of ``pi Q``,
# eps * max(1, max |q_ii|).
_FLOOR_MULTIPLE = 16
# Iterations a class over _PROBE_MIN_STATES states may take, at nnz(Q)
# multiply-adds each, before it is probed and factored instead.  Making a
# factor costs far more than its nonzeros: the 7,560-state tandem's holds
# about 140 nnz(Q) and took 2.3 s to make, against 0.04 s for its 300
# steps (one core of a 2-core x86-64 machine).
_TRIAL_ITERATIONS = 500


def _solve_uniformized(
    q_sub: sp.csr_matrix, residual_tol: float, budget: int | None = None
) -> tuple[np.ndarray | None, list[float]]:
    """Stationary law of one closed communicating class by damped power
    iteration on the uniformized chain, and the residuals ``max |pi Q|``
    taken every ``_CHECKPOINT`` steps.

    With ``P = I + Q / lam`` for ``lam`` a little above the largest exit
    rate, each step takes ``pi <- (1 - d) pi + d pi P``; the damping ``d``
    keeps a periodic chain from oscillating.  The iteration stops once the
    residual is within ``_FLOOR_MULTIPLE`` times its round-off floor
    ``eps * max(1, max |q_ii|)``, or once a checkpoint no longer lowers a
    residual that is already below ``residual_tol`` per unit of
    ``max(1, max |q_ii|)``.

    Without a ``budget`` a class that does neither within
    ``_MAX_ITERATIONS`` steps raises ``ConvergenceError``.  With one, the
    law is ``None`` when the budget runs out, or as soon as the contraction
    between the last two checkpoints projects that the floor will not be
    reached within it.
    """
    import numpy as np
    import scipy.sparse as sp
    n = q_sub.shape[0]
    out_rates = -q_sub.diagonal()
    top = float(out_rates.max()) if n else 0.0
    if top <= 0.0:
        return np.full(n, 1.0 / n), [0.0]
    scale = max(1.0, top)
    floor = _FLOOR_MULTIPLE * np.finfo(float).eps * scale
    lam = _UNIFORMIZATION_MARGIN * top
    # ``P`` transposed, for a gathering product each step (``pi @ p``
    # builds no transpose but is slower: its product scatters each state's
    # terms across the output).  ``P^T`` in CSR is ``P`` in CSC: one copy
    # of ``Q``, scaled and shifted in place, to the bits of ``(I + Q /
    # lam)^T``, since scipy divides by multiplying by ``1 / lam``.
    p_t = q_sub.tocsc()
    p_t.data *= 1.0 / lam
    p_t = sp.csr_matrix((p_t.data, p_t.indices, p_t.indptr), shape=(n, n))
    p_t.setdiag(p_t.diagonal() + 1.0)
    pi = np.full(n, 1.0 / n)
    history: list[float] = []
    for it in range(budget or _MAX_ITERATIONS):
        # (1 - d) pi + d pi P, in place, each product and sum as written
        step = p_t @ pi
        step *= _DAMPING
        pi *= 1.0 - _DAMPING
        pi += step
        np.maximum(pi, 0.0, out=pi)
        pi /= pi.sum()
        if it % _CHECKPOINT:
            continue
        # ``pi Q`` reads ``Q`` as its transpose in CSC and adds each
        # output's terms in the order that a transposed copy would
        residual = float(np.abs(pi @ q_sub).max())
        last = history[-1] if history else math.inf
        history.append(residual)
        if residual <= floor or last <= residual <= residual_tol * scale:
            return pi, history
        if budget and last < math.inf:
            # steps to the floor, were the last contraction to hold
            ratio = residual / last
            if ratio >= 1.0 or it + _CHECKPOINT * math.log(
                    floor / residual) / math.log(ratio) > budget:
                return None, history
    if budget:
        return None, history
    raise ConvergenceError(
        f"uniformized power iteration failed to converge; "
        f"residual history tail {history[-5:]}"
    )


def _residual(pi: np.ndarray, q_sub: sp.csr_matrix) -> float:
    """``max |pi Q|``, or infinity where ``pi`` is not finite."""
    import numpy as np
    if not np.isfinite(pi).all():
        return math.inf
    return float(np.abs(pi @ q_sub).max()) if len(pi) > 1 else 0.0


def solve_stationary(
    g: GeneratorMatrix,
    direct_limit: int = 20_000_000,
    residual_tol: float = 1e-11,
) -> StationarySolution:
    """Stationary distribution of every closed communicating class.

    Classes are listed in order of their first state.  A class of more than
    ``_PROBE_MIN_STATES`` states first iterates: at most
    ``_TRIAL_ITERATIONS`` steps of damped power iteration on the uniformized
    chain (see ``_solve_uniformized``), each costing ``nnz(Q)``
    multiply-adds, and fewer when the observed contraction projects that
    the budget will not reach the round-off floor.  A trial that converges
    gives the law.  Otherwise, a class whose LU factor is estimated at no
    more than ``direct_limit`` nonzeros (see ``_factor_size``;
    ``direct_limit=0`` refuses every class) solves directly: one balance
    equation is dropped, the rest are factored by sparse LU ordered by
    minimum degree on ``A^T + A``, without pivoting, which is safe because
    the reduced system is a nonsingular M-matrix (see ``_solve_direct``).
    The last state is fixed first; if that factor breaks down or its law
    misses the residual bound below, the solve runs once more with the
    first state fixed.  Classes over the limit iterate without a budget.
    Either way the final residual ``max |pi Q|`` must come in below
    ``residual_tol`` per unit of the class's largest exit rate ``max
    |q_ii|`` (at least one).
    """
    import numpy as np
    from scipy.sparse.csgraph import connected_components
    n = g.n_states
    q = g.matrix
    # Every stored entry of ``q`` is an edge, whatever its value.
    n_comp, labels = connected_components(
        q, directed=True, connection="strong"
    )
    leaving = np.repeat(labels, np.diff(q.indptr))
    entering = labels[q.indices]
    closed = np.ones(n_comp, dtype=bool)
    closed[leaving[(q.data > 0.0) & (leaving != entering)]] = False
    del leaving, entering  # scratch, freed before any class is solved
    _, first = np.unique(labels, return_index=True)
    by_label = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=n_comp))
    solutions: list[ClassSolution] = []
    transient = 0
    # Classes in order of their first state.  Unlike the adhering spaces
    # that closed.communicating_classes partitions, this chain may have
    # transient classes, which are counted and skipped.
    for lab in labels[np.sort(first)]:
        members = by_label[ends[lab - 1] if lab else 0:ends[lab]]
        if not closed[lab]:
            transient += len(members)
            continue
        q_sub = q if len(members) == n else q[members][:, members].tocsr()
        # The rounding error of ``pi Q`` grows with the class's rates.
        bound = residual_tol * max(1.0, float(np.abs(q_sub.diagonal()).max()))
        pi = None
        if len(members) > _PROBE_MIN_STATES:
            pi, _ = _solve_uniformized(q_sub, residual_tol, _TRIAL_ITERATIONS)
        if pi is None and _factor_size(q_sub, direct_limit) <= direct_limit:
            method = "direct"
            try:
                pi = _solve_direct(q_sub)
            except ConvergenceError:
                residual = math.inf
            else:
                residual = _residual(pi, q_sub)
            if residual > bound:
                # the last state's probability may be below machine precision
                pi = _solve_direct(q_sub, fix_first=True)
                residual = _residual(pi, q_sub)
        else:
            method = "uniformization"
            if pi is None:
                pi, _ = _solve_uniformized(q_sub, residual_tol)
            residual = _residual(pi, q_sub)
        if residual > bound:
            raise ConvergenceError(
                f"stationary solve residual {residual} above {bound}"
            )
        solutions.append(ClassSolution(g, members, pi, residual, method))
    return StationarySolution(tuple(solutions), n_comp, transient)


def unique_solution(g: GeneratorMatrix, **kwargs) -> ClassSolution:
    """The solution of a chain with exactly one closed class covering every
    reachable state; its ``pi`` is in the order of ``g``'s index."""
    sol = solve_stationary(g, **kwargs)
    if len(sol.solutions) != 1 or sol.n_transient_states:
        raise UsageError(
            f"chain is not irreducible: {len(sol.solutions)} closed classes, "
            f"{sol.n_transient_states} transient states"
        )
    return sol.solutions[0]


def total_variation(
    p: Mapping[Hashable, float], q: Mapping[Hashable, float]
) -> float:
    """Half the L1 distance between two distributions on the same support."""
    if p.keys() != q.keys():
        raise UsageError("distributions have mismatched supports")
    return 0.5 * sum(abs(v - q[k]) for k, v in p.items())


def compare_laws(
    p: Sequence[float],
    q: np.ndarray,
    state_of: Callable[[int], Hashable],
    top: int = 10,
) -> tuple[float, list[tuple[float, Hashable]]]:
    """Total variation between two laws over the same states, and the
    ``top`` largest ``(|p - q|, state)`` pairs, largest first.

    ``q[j]`` is the probability of the state ``p[j]`` stands for, and
    ``state_of(j)`` builds that state.  The answers are bit for bit those
    of :func:`total_variation` over the laws as mappings in ``p``'s order
    and of ``heapq.nlargest`` over every pair: the differences are summed
    in the same order by the same ``sum``, and only the states whose
    residual is at or above the ``top``-th largest can rank, so only they
    are built.  A residual that is not finite falls back to ranking every
    pair, since ``nlargest`` orders NaN as the comparisons fall.
    """
    import heapq
    import numpy as np
    diffs = np.abs(np.asarray(p, dtype=float) - q)
    residuals = diffs.tolist()
    tv = 0.5 * sum(residuals)
    if len(diffs) > top and np.isfinite(diffs).all():
        cut = np.partition(diffs, len(diffs) - top)[len(diffs) - top]
        rank = np.flatnonzero(diffs >= cut).tolist()
    else:
        rank = range(len(diffs))
    return tv, heapq.nlargest(top, ((residuals[j], state_of(j)) for j in rank))
