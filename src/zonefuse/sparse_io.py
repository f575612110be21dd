"""Text COO codec shared by the count matrices, and the in-memory COO type.

On disk: one `row col value` triple per line, sorted by row then column,
with values written as integers.  `read_coo` returns the triples of a
file, checked against a shape.  In memory, `CooMatrix` holds coalesced
triples in numpy arrays; nothing here imports scipy.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

_ROWS_PER_WRITE = 1 << 12


@dataclass(frozen=True, eq=False)
class CooMatrix:
    """A sparse matrix as coalesced triples: int64 `row` and `col`,
    float64 `data`, sorted row-major with no (row, col) twice."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_triples(cls, row, col, data, shape) -> "CooMatrix":
        """Sort in-range triples row-major and sum the duplicates."""
        shape = tuple(int(n) for n in shape)
        key = np.asarray(row, dtype=np.int64) * shape[1] + np.asarray(col, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        key = key[order]
        # keys are nonnegative, so the first always starts a run
        start = np.flatnonzero(np.diff(key, prepend=-1))
        data = np.add.reduceat(np.asarray(data, dtype=np.float64)[order], start)
        row, col = np.divmod(key[start], shape[1])
        return cls(row, col, data, shape)

    @classmethod
    def of(cls, matrix) -> "CooMatrix":
        """A CooMatrix as it is, the entries of anything with `tocoo()`,
        or the nonzeros of a dense array."""
        if isinstance(matrix, cls):
            return matrix
        if hasattr(matrix, "tocoo"):
            coo = matrix.tocoo()
            return cls.from_triples(coo.row, coo.col, coo.data, coo.shape)
        matrix = np.asarray(matrix, dtype=np.float64)
        row, col = np.nonzero(matrix)
        return cls(row.astype(np.int64), col.astype(np.int64), matrix[row, col],
                   matrix.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.row, self.col] = self.data
        return dense


def save_coo(path, matrix) -> None:
    """Write the nonzeros of a dense array or the entries of a sparse one
    as sorted integer triples."""
    m = CooMatrix.of(matrix)
    triples = np.column_stack((m.row, m.col, m.data.astype(np.int64)))
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
