"""The text COO codec: bytes written and the round trip."""
import io

import numpy as np
import scipy.sparse as sp

from zonefuse.sparse_io import load_coo, save_coo


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
