"""Sparse counter container: dense equivalence + O(touched) sizing.

The scale story (Fig. 12 regime) rests on the container behaving
*bit-identically* to a dense ``np.zeros((rows, nranks))`` array while
allocating only for touched keys.  The Hypothesis model
test drives a sparse container and a dense reference through the same
random op sequence and compares every read.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime import SparseCounterMat


class TestMatBasics:
    def test_untouched_reads_zero(self):
        m = SparseCounterMat()
        assert m[3, 123456] == 0
        assert m.touched() == 0

    def test_store_then_load(self):
        m = SparseCounterMat()
        m[1, 5] = 50
        m[2, 5] = 7
        m[2, 5] += 2
        assert m[1, 5] == 50
        assert m[2, 5] == 9
        assert m[1, 6] == 0
        assert m.touched() == 2

    def test_row_items_ascending_and_row_scoped(self):
        m = SparseCounterMat()
        m[0, 9] = 1
        m[0, 2] = 2
        m[1, 4] = 3
        m[0, 5] = 0
        assert list(m.row_items(0)) == [(2, 2), (9, 1)]
        assert list(m.row_items(1)) == [(4, 3)]


# ---------------------------------------------------------------------------
# Hypothesis: sparse container == dense ndarray, op for op
# ---------------------------------------------------------------------------
_NRANKS = 32

_mat_ops = st.lists(
    st.tuples(
        st.sampled_from(("set", "add", "get")),
        st.integers(0, 3),
        st.integers(0, _NRANKS - 1),
        st.integers(0, 20),
    ),
    max_size=60,
)


@given(ops=_mat_ops)
@settings(max_examples=60, deadline=None)
def test_mat_matches_dense_reference(ops):
    sparse = SparseCounterMat()
    dense = np.zeros((4, _NRANKS), dtype=np.int64)
    for what, row, col, val in ops:
        if what == "set":
            sparse[row, col] = val
            dense[row, col] = val
        elif what == "add":
            sparse[row, col] += val
            dense[row, col] += val
        else:
            assert sparse[row, col] == int(dense[row, col])
    for row in range(4):
        assert list(sparse.row_items(row)) == [
            (c, int(v)) for c, v in enumerate(dense[row]) if v
        ]
