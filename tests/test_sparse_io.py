"""The text COO codec (bytes written, the round trip) and the in-memory
COO type."""
import io
import json

import numpy as np
import pytest
import scipy.sparse as sp

from zonefuse.poi_ingest import PoiMatrix
from zonefuse.sparse_io import CooMatrix, read_coo, save_coo


def savetxt_bytes(dense: np.ndarray) -> bytes:
    """What np.savetxt writes for the nonzeros of dense, row-major."""
    rows, cols = np.nonzero(dense)
    fh = io.StringIO()
    np.savetxt(fh, np.column_stack((rows, cols, dense[rows, cols])), fmt="%d")
    return fh.getvalue().encode()


class TestSaveCoo:
    def test_bytes_match_savetxt(self, tmp_path):
        rng = np.random.default_rng(7)
        # more nonzeros than one block of rows written at once
        dense = rng.integers(1, 5000, size=(300, 200)) * (rng.random((300, 200)) < 0.4)
        path = tmp_path / "m.coo"
        save_coo(path, sp.csr_array(dense.astype(np.float64)))
        assert path.read_bytes() == savetxt_bytes(dense)
        loaded = CooMatrix.from_triples(*read_coo(path, dense.shape), dense.shape)
        assert np.array_equal(loaded.toarray(), dense)
        # the dense array and its triples write the same bytes
        for same in (dense, loaded):
            save_coo(path, same)
            assert path.read_bytes() == savetxt_bytes(dense)

    def test_empty_matrix_writes_nothing(self, tmp_path):
        dense = np.zeros((4, 6), dtype=np.int64)
        path = tmp_path / "empty.coo"
        save_coo(path, sp.csr_array(dense))
        assert path.read_bytes() == savetxt_bytes(dense) == b""


def poi_sidecar(path, shape):
    path.write_text(json.dumps({"n_categories": shape[0], "r": shape[1],
                                "categories": [f"c{i}" for i in range(shape[0])]}))
    return path


class TestReadCoo:
    @pytest.mark.parametrize("line", ["-1 0 1\n", "0 -2 1\n", "4 0 1\n", "0 6 1\n"])
    def test_index_outside_shape_raises(self, tmp_path, line):
        # a dense assignment would wrap a negative index silently
        path = tmp_path / "bad.coo"
        path.write_text("0 0 1\n" + line)
        with pytest.raises(ValueError, match="outside"):
            read_coo(path, (4, 6))
        with pytest.raises(ValueError, match="outside"):
            PoiMatrix.load(path, poi_sidecar(tmp_path / "poi.json", (4, 6)))

    def test_duplicate_triples_sum(self, tmp_path):
        path = tmp_path / "dup.coo"
        path.write_text("0 0 1\n1 2 3\n1 2 4\n")
        expected = np.array([[1, 0, 0], [0, 0, 7]], dtype=np.float64)
        coo = CooMatrix.from_triples(*read_coo(path, (2, 3)), (2, 3))
        assert np.array_equal(coo.toarray(), expected)
        poi = PoiMatrix.load(path, poi_sidecar(tmp_path / "poi.json", (2, 3)))
        assert np.array_equal(poi.P, expected)
        assert poi.mask.tolist() == [True, False, True]


class TestCooMatrix:
    def test_duplicates_are_summed_in_row_major_order(self):
        coo = CooMatrix.from_triples([2, 0, 2, 1, 0], [1, 3, 1, 0, 3],
                                     [1.0, 2.0, 4.0, 8.0, 16.0], (3, 4))
        assert coo.row.tolist() == [0, 1, 2] and coo.col.tolist() == [3, 0, 1]
        assert coo.data.tolist() == [18.0, 8.0, 5.0]
        assert (coo.row.dtype, coo.col.dtype, coo.data.dtype) == (
            np.int64, np.int64, np.float64)
        assert coo.nnz == 3 and coo.shape == (3, 4)
        expected = np.zeros((3, 4))
        expected[0, 3], expected[1, 0], expected[2, 1] = 18.0, 8.0, 5.0
        assert np.array_equal(coo.toarray(), expected)

    def test_of_dense_and_scipy_agree(self):
        dense = np.random.default_rng(5).poisson(0.3, size=(7, 5)).astype(float)
        a, b = CooMatrix.of(dense), CooMatrix.of(sp.coo_array(dense))
        for name in ("row", "col", "data"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert CooMatrix.of(a) is a
        assert np.array_equal(a.toarray(), dense)

    def test_empty(self):
        coo = CooMatrix.from_triples([], [], [], (4, 2))
        assert coo.nnz == 0 and np.array_equal(coo.toarray(), np.zeros((4, 2)))
