"""The text COO codec: bytes written and the round trip."""
import io
import json

import numpy as np
import pytest
import scipy.sparse as sp

from zonefuse.poi_ingest import PoiMatrix
from zonefuse.sparse_io import load_coo, read_coo, save_coo


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
        assert np.array_equal(load_coo(path, dense.shape).toarray(), dense)

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
            load_coo(path, (4, 6))
        with pytest.raises(ValueError, match="outside"):
            PoiMatrix.load(path, poi_sidecar(tmp_path / "poi.json", (4, 6)))

    def test_duplicate_triples_sum(self, tmp_path):
        path = tmp_path / "dup.coo"
        path.write_text("0 0 1\n1 2 3\n1 2 4\n")
        expected = np.array([[1, 0, 0], [0, 0, 7]], dtype=np.float64)
        assert np.array_equal(load_coo(path, (2, 3)).toarray(), expected)
        poi = PoiMatrix.load(path, poi_sidecar(tmp_path / "poi.json", (2, 3)))
        assert np.array_equal(poi.P, expected)
        assert poi.mask.tolist() == [True, False, True]
