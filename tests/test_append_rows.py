"""``oracle._append_rows`` against the generic breadth-first build.

The row assembler that ``open_generator`` and ``tandem_generator`` share
must append exactly the CSR rows that ``build_generator`` streams, before
any sort: the same ``indptr`` and ``indices``, and the bytes of ``data``.
The moves are random blocks in which one row often reaches one column
three or more times, so the order of each sum shows in its bits.  They
come in shuffled order, each with its place among its row's moves, split
over one or two calls, and with or without an arrivals prefix: leading
moves of the first rows, to new states past every other column of their
row.  The reference reads the same moves, arrivals first, from a
transition function over integer states numbered so that its breadth-first
order is their order.
"""

import sys
from array import array
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from passandswap.oracle import _append_rows

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import reference_build_generator  # noqa: E402

RATES = st.floats(1e-3, 1e3)
MAX_STATES = 10


@st.composite
def move_blocks(draw):
    """Moves per row, in move order, and the arrivals of the first
    ``arriving`` rows: ``(moves, lead, lead_rates)``."""
    lead_rates = draw(st.lists(RATES, max_size=3))
    arriving = draw(st.integers(0, 3)) if lead_rates else 0
    moves, lead = [], []
    seen = 1  # states numbered so far; a move to ``seen`` numbers a new one
    while len(moves) < seen:
        u = len(moves)
        old = seen  # the states a row's other moves may reach
        if u < arriving:
            lead.append(list(range(seen, seen + len(lead_rates))))
            seen += len(lead_rates)
        elif seen < MAX_STATES:
            old += 1  # one new state, numbered at its first move
        pool = [t for t in draw(st.lists(st.integers(0, old - 1), min_size=1,
                                         max_size=3)) if t != u]
        picks = []
        if pool:
            picks = draw(st.lists(st.sampled_from(pool), max_size=8))
        moves.append([(t, draw(RATES)) for t in picks])
        seen = max([seen, *(t + 1 for t in picks)])
    return moves, lead, lead_rates


@settings(max_examples=200)
@given(blocks=move_blocks(), data=st.data())
def test_append_rows_is_the_breadth_first_build(blocks, data):
    moves, lead, lead_rates = blocks
    n = len(moves)
    table = [[(c, r) for c, r in zip(lead[u] if u < len(lead) else [],
                                      lead_rates)] + moves[u]
             for u in range(n)]
    want = reference_build_generator(table.__getitem__, 0)
    assert want.states == tuple(range(n))
    flat = [(u, j, c, r)
            for u in range(n) for j, (c, r) in enumerate(moves[u])]
    flat = [flat[i] for i in data.draw(st.permutations(range(len(flat))))]
    cut = data.draw(st.integers(0, n))
    csr = array("q", [0]), array("q"), array("d")
    for lo, hi in ((0, cut), (cut, n)):
        if lo == hi:
            continue
        part = [x for x in flat if lo <= x[0] < hi]
        row, move, col = (np.array([x[i] for x in part], dtype=np.int64)
                          for i in range(3))
        rate = np.array([x[3] for x in part], dtype=float)
        arrivals = None
        if lead_rates:
            cols = np.array(lead[lo:hi], dtype=np.int64).reshape(
                -1, len(lead_rates))
            arrivals = cols, tuple(lead_rates)
        _append_rows(csr, lo, hi - lo, row - lo, move, col, rate, arrivals)
    # scipy may store the reference's indices in 32 bits
    indptr, indices, values = (np.frombuffer(a, dtype=a.typecode) for a in csr)
    assert np.array_equal(indptr, want.matrix.indptr)
    assert np.array_equal(indices, want.matrix.indices)
    assert values.tobytes() == want.matrix.data.tobytes()
