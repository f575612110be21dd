"""Text COO codec shared by the sparse count matrices.

One `row col value` triple per line, sorted by row then column, with
values written as integers.  Loading returns a float64 CSR array of a
given shape.
"""
from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

_ROWS_PER_WRITE = 1 << 12


def save_coo(path, matrix) -> None:
    """Write the nonzeros of a sparse matrix as sorted integer triples."""
    coo = sp.coo_array(matrix)
    order = np.lexsort((coo.col, coo.row))
    triples = np.column_stack((coo.row[order], coo.col[order],
                               coo.data[order].astype(np.int64)))
    # the bytes np.savetxt(fmt="%d") writes, from one %-format per block
    # of rows, which bounds the Python ints alive at once
    with open(path, "w") as fh:
        for start in range(0, len(triples), _ROWS_PER_WRITE):
            block = triples[start:start + _ROWS_PER_WRITE]
            fh.write(("%d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def load_coo(path, shape: tuple[int, int]) -> sp.csr_array:
    """Read triples written by save_coo into a float64 CSR array."""
    # np.loadtxt warns on an empty file and returns shape (0, 1)
    if os.path.getsize(path) == 0:
        triples = np.empty((0, 3))
    else:
        triples = np.loadtxt(path, dtype=np.float64, ndmin=2)
    rows, cols, vals = triples.T
    return sp.csr_array(sp.coo_array(
        (vals, (rows.astype(np.int64), cols.astype(np.int64))), shape=shape))
