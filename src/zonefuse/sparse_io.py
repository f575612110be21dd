"""The input CSV reader and the text COO codec of the count matrices.

`read_columns` reads named columns of a CSV, a chunk of rows at a time;
each caller decides what a field that fails `convert_fields` means.  A
count matrix on disk is one `row col value` triple per line, sorted by
row then column, with values written as integers.  `read_coo` returns
the triples of a file, checked against a shape.  In memory, `CooMatrix`
holds coalesced triples in numpy arrays; nothing here imports scipy.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .errors import DataError

_ROWS_PER_WRITE = 1 << 12
# lines parsed per batch: large enough to amortize the per-batch calls,
# small enough that the split strings of one batch stay a few MB
CHUNK_LINES = 4096


def open_table(path, what: str):
    """Open an input CSV, or raise DataError naming it as `what`."""
    try:
        return open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def convert_fields(fields: list[str], convert) -> tuple[np.ndarray, np.ndarray]:
    """convert() of each field, and the mask of the fields it accepted."""
    n = len(fields)
    try:
        return np.fromiter(map(convert, fields), np.float64, n), np.ones(n, dtype=bool)
    except ValueError:
        pass
    values = np.zeros(n)
    ok = np.zeros(n, dtype=bool)
    for i, raw in enumerate(fields):
        try:
            values[i] = convert(raw)
            ok[i] = True
        except ValueError:
            pass
    return values, ok


def read_columns(fh, path, names: tuple[str, ...]):
    """Yield the columns `names` of an open CSV from its header row on,
    CHUNK_LINES rows at a time, as one list of fields per name.

    Raises DataError when the header lacks a name; a repeated name reads
    its last column, as in csv.DictReader.  A chunk of plain lines (no
    quote, NUL or carriage return outside a CRLF line ending, each with
    as many fields as the header) is split directly.  Any other chunk goes
    through csv.reader, which reads on past the chunk to finish a quoted
    field that spans lines.  As in csv.DictReader, blank rows are skipped.
    The missing fields of a short row read as empty, which every field
    rejects just as it rejects DictReader's None.  Only the picked columns
    outlive a chunk: its lines, text and split fields are dropped before
    the next chunk is read.
    """
    header = next(csv.reader(fh), None)
    if header is None or not set(names).issubset(header):
        raise DataError(f"{path}: header must contain {sorted(names)}")
    where = {name: i for i, name in enumerate(header)}
    width, picks = len(header), [where[name] for name in names]
    while True:
        lines = list(islice(fh, CHUNK_LINES))
        if not lines:
            return
        text = "".join(lines)
        if "\r" in text:
            # a lone \r, which ends a line as well, is left for csv.reader
            text = text.replace("\r\n", "\n")
        if ('"' in text or "\r" in text or "\0" in text
                or set(map(str.count, lines, repeat(","))) != {width - 1}):
            reader = csv.reader(chain(lines, fh))
            rows = []
            while reader.line_num < len(lines):
                row = next(reader)
                if row:
                    rows.append(row)
            columns = [[row[i] if i < len(row) else "" for row in rows] for i in picks]
            del lines, text, reader, rows
        else:
            del lines
            text = text.removesuffix("\n").replace("\n", ",")
            fields = text.split(",")
            del text
            columns = [fields[i::width] for i in picks]
            del fields
        yield columns


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
