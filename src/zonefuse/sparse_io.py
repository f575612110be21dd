"""Text COO codec shared by the count matrices.

One `row col value` triple per line, sorted by row then column, with
values written as integers.  `read_coo` returns the triples of a file,
checked against a shape; `load_coo` builds a float64 CSR array from them.
Only `load_coo` imports scipy.
"""
from __future__ import annotations

import os

import numpy as np

_ROWS_PER_WRITE = 1 << 12


def save_coo(path, matrix) -> None:
    """Write the nonzeros of a dense array or the entries of a sparse one
    as sorted integer triples."""
    if hasattr(matrix, "tocoo"):
        coo = matrix.tocoo()
        row, col, data = coo.row, coo.col, coo.data
    else:
        row, col = np.nonzero(matrix)
        data = matrix[row, col]
    order = np.lexsort((col, row))
    triples = np.column_stack((row[order], col[order],
                               data[order].astype(np.int64)))
    # the bytes np.savetxt(fmt="%d") writes, from one %-format per block
    # of rows, which bounds the Python ints alive at once
    with open(path, "w") as fh:
        for start in range(0, len(triples), _ROWS_PER_WRITE):
            block = triples[start:start + _ROWS_PER_WRITE]
            fh.write(("%d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def read_coo(path, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (rows, cols, values) triples of a file written by save_coo.

    Raises ValueError for an index outside `shape`, negative included.
    Duplicate triples are returned as they are; every reader sums them.
    """
    # np.loadtxt warns on an empty file and returns shape (0, 1)
    if os.path.getsize(path) == 0:
        triples = np.empty((0, 3))
    else:
        triples = np.loadtxt(path, dtype=np.float64, ndmin=2)
    rows, cols, vals = triples.T
    rows, cols = rows.astype(np.int64), cols.astype(np.int64)
    for name, index, bound in (("row", rows, shape[0]), ("column", cols, shape[1])):
        bad = (index < 0) | (index >= bound)
        if bad.any():
            raise ValueError(f"{path}: {name} index {index[bad][0]} outside "
                             f"[0, {bound})")
    return rows, cols, vals


def load_coo(path, shape: tuple[int, int]):
    """Read triples written by save_coo into a float64 CSR array."""
    # imported here: scipy.sparse takes longer to import than a cached rerun
    # takes to run, and only the readers of a sparse matrix need it
    import scipy.sparse as sp
    rows, cols, vals = read_coo(path, shape)
    return sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=shape))
