import numpy as np
import pytest
import scipy.sparse as sp

from zonefuse.errors import DivergenceError
from zonefuse.latent_fusion import (
    FACTOR_NAMES,
    TERM_NAMES,
    FitTrace,
    Hyperparams,
    LatentFactors,
    fit,
    gradients,
    init_factors,
    masked_rmse,
    objective,
    soft_threshold,
)


def standard_instance(seed, p=5, r=7, k=3, q=336, column_mask=False):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(p, r))
    if column_mask:
        cols = rng.random(r) < 0.6
        if not cols.any():
            cols[0] = True
        I = np.tile(cols.astype(float), (p, 1))
    else:
        I = np.ones((p, r))
    T = rng.poisson(0.05, size=(q, r)).astype(float)
    return P, I, T


def random_factors(seed, p, r, k, q, scale=0.5):
    rng = np.random.default_rng(seed)
    return LatentFactors(
        U=rng.normal(0, scale, (p, k)),
        V=rng.normal(0, scale, (k, r)),
        Q=rng.normal(0, scale, (k, q)),
        Z=rng.normal(0, scale, (k, r)),
        A=rng.normal(0, scale, (p, r)),
        W=rng.normal(0, scale, (k, k)),
    )


def fd_block_gradient(P, I, T, f, h, name, step=1e-6):
    """Central finite differences of the smooth objective for one block."""
    X = getattr(f, name)
    G = np.zeros_like(X)
    def smooth():
        total, terms = objective(P, I, T, f, h)
        return total - terms["l1"]
    for idx in np.ndindex(X.shape):
        old = X[idx]
        X[idx] = old + step
        f1 = smooth()
        X[idx] = old - step
        f2 = smooth()
        X[idx] = old
        G[idx] = (f1 - f2) / (2 * step)
    return G


class TestSoftThreshold:
    def test_values(self):
        assert soft_threshold(1.5, 1.0) == pytest.approx(0.5)
        assert soft_threshold(-2.0, 0.5) == pytest.approx(-1.5)
        assert soft_threshold(0.3, 1.0) == 0.0

    def test_zero_threshold_is_identity(self):
        x = np.array([-1.0, 0.0, 2.5])
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_shrinkage_bound(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        for theta in (0.1, 1.0, 3.0):
            y = soft_threshold(x, theta)
            assert np.all(np.abs(y) <= np.maximum(np.abs(x) - theta, 0.0) + 1e-15)
            assert np.all(np.sign(y[y != 0]) == np.sign(x[y != 0]))


class TestObjective:
    def test_all_zero_factors_on_zero_data(self):
        h = Hyperparams(k=3)
        f = LatentFactors(U=np.zeros((4, 3)), V=np.zeros((3, 6)), Q=np.zeros((3, 10)),
                          Z=np.zeros((3, 6)), A=np.zeros((4, 6)), W=np.zeros((3, 3)))
        total, terms = objective(np.zeros((4, 6)), np.ones((4, 6)),
                                 np.zeros((10, 6)), f, h)
        assert total == 0.0
        assert all(v == 0.0 for v in terms.values())

    def test_only_ridge_term(self):
        h = Hyperparams(k=3, lambda5=2.0)
        U = np.zeros((4, 3))
        U[0, 0] = 3.0  # ||U||^2 = 9
        f = LatentFactors(U=U, V=np.zeros((3, 6)), Q=np.zeros((3, 10)),
                          Z=np.zeros((3, 6)), A=np.zeros((4, 6)), W=np.zeros((3, 3)))
        total, terms = objective(np.zeros((4, 6)), np.ones((4, 6)),
                                 np.zeros((10, 6)), f, h)
        assert total == pytest.approx(9.0)
        assert terms["ridge"] == pytest.approx(9.0)

    def test_matches_elementwise_loop_oracle(self):
        p, r, k, q = 4, 6, 2, 9
        rng = np.random.default_rng(3)
        P = rng.normal(size=(p, r))
        I = (rng.random((p, r)) < 0.7).astype(float)
        T = rng.normal(size=(q, r))
        f = random_factors(4, p, r, k, q)
        h = Hyperparams(k=k, lambda1=0.7, lambda2=1.3, lambda3=0.2,
                        lambda4=0.9, lambda5=0.05)
        total, terms = objective(P, I, T, f, h)

        recon = transform = z_recon = l1 = regression = ridge = 0.0
        UV = f.U @ f.V
        QT = f.Q @ T
        UtA = f.U.T @ f.A
        WZ = f.W @ f.Z
        for i in range(p):
            for j in range(r):
                recon += 0.5 * (I[i, j] * (P[i, j] - UV[i, j])) ** 2
                l1 += h.lambda3 * abs(f.A[i, j])
        for i in range(k):
            for j in range(r):
                transform += 0.5 * h.lambda1 * (QT[i, j] - f.Z[i, j]) ** 2
                z_recon += 0.5 * h.lambda2 * (f.Z[i, j] - UtA[i, j]) ** 2
                regression += 0.5 * h.lambda4 * (f.V[i, j] - WZ[i, j]) ** 2
        for M in (f.U, f.V, f.Q, f.W):
            ridge += 0.5 * h.lambda5 * (M ** 2).sum()
        assert terms["recon"] == pytest.approx(recon, rel=1e-12)
        assert terms["transform"] == pytest.approx(transform, rel=1e-12)
        assert terms["z_recon"] == pytest.approx(z_recon, rel=1e-12)
        assert terms["l1"] == pytest.approx(l1, rel=1e-12)
        assert terms["regression"] == pytest.approx(regression, rel=1e-12)
        assert terms["ridge"] == pytest.approx(ridge, rel=1e-12)
        assert total == pytest.approx(sum(terms.values()), rel=1e-12)

    def test_sparse_and_dense_T_agree(self):
        P, I, T = standard_instance(5)
        f = random_factors(6, 5, 7, 3, 336)
        h = Hyperparams(k=3)
        dense_total, _ = objective(P, I, T, f, h)
        sparse_total, _ = objective(P, I, sp.csr_array(T), f, h)
        assert sparse_total == pytest.approx(dense_total, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        h = Hyperparams(k=3)
        f = random_factors(0, 5, 7, 3, 336)
        P, I, T = standard_instance(0)
        with pytest.raises(ValueError):
            objective(P, I[:, :5], T, f, h)
        with pytest.raises(ValueError):
            objective(P, I, T[:, :5], f, h)


class TestGradients:
    @pytest.mark.parametrize("column_mask", [False, True])
    def test_matches_finite_differences(self, column_mask):
        p, r, k, q = 5, 7, 3, 30
        P, I, _ = standard_instance(11, p=p, r=r, k=k, q=q, column_mask=column_mask)
        rng = np.random.default_rng(12)
        T = rng.poisson(0.2, size=(q, r)).astype(float)
        f = random_factors(13, p, r, k, q)
        h = Hyperparams(k=k, lambda1=0.8, lambda2=1.1, lambda3=0.3,
                        lambda4=0.7, lambda5=0.02)
        g = gradients(P, I, T, f, h)
        for name in FACTOR_NAMES:
            fd = fd_block_gradient(P, I, T, f, h, name)
            rel = np.linalg.norm(fd - g[name]) / max(np.linalg.norm(g[name]), 1e-12)
            assert rel <= 1e-4, f"block {name}: relative error {rel}"

    def test_zero_factors_are_stationary(self):
        P, I, T = standard_instance(14)
        h = Hyperparams(k=3)
        f = LatentFactors(U=np.zeros((5, 3)), V=np.zeros((3, 7)), Q=np.zeros((3, 336)),
                          Z=np.zeros((3, 7)), A=np.zeros((5, 7)), W=np.zeros((3, 3)))
        g = gradients(P, I, T, f, h)
        for name in FACTOR_NAMES:
            assert np.all(g[name] == 0.0), name

    def test_masked_reconstruction_only(self):
        # with every other lambda zero the U gradient is the masked residual form
        p, r, k, q = 5, 7, 3, 30
        P, I, T = standard_instance(15, q=q)
        f = random_factors(16, p, r, k, q)
        h = Hyperparams(k=k, lambda1=0, lambda2=0, lambda3=0, lambda4=0, lambda5=0)
        g = gradients(P, I, T, f, h)
        expected = -(I * (P - f.U @ f.V)) @ f.V.T
        assert np.allclose(g["U"], expected, atol=1e-12)
        assert np.allclose(g["V"], -f.U.T @ (I * (P - f.U @ f.V)), atol=1e-12)

    def test_sparse_T_agrees_with_dense(self):
        P, I, T = standard_instance(17)
        f = random_factors(18, 5, 7, 3, 336)
        h = Hyperparams(k=3)
        gd = gradients(P, I, T, f, h)
        gs = gradients(P, I, sp.csr_array(T), f, h)
        for name in FACTOR_NAMES:
            assert np.allclose(gd[name], gs[name], atol=1e-12)


class TestFit:
    def test_planted_rank_k_recovery(self):
        rng = np.random.default_rng(42)
        p, r, k = 20, 30, 4
        P = rng.normal(size=(p, k)) @ rng.normal(size=(k, r))
        I = np.ones((p, r))
        T = np.zeros((10, r))
        h = Hyperparams(k=k, lambda1=0, lambda2=0, lambda3=0, lambda4=0,
                        lambda5=1e-6, alpha0=0.02, rho=0.999, epsilon=0.0,
                        max_iter=2000, seed=1)
        f, trace = fit(P, I, T, h)
        assert masked_rmse(P, I, f.U, f.V) < 1e-2

    def test_descent_with_default_hyperparams(self):
        for seed in range(4):
            P, I, T = standard_instance(seed, column_mask=(seed % 2 == 1))
            h = Hyperparams(k=3, seed=seed, max_iter=500, epsilon=0.0)
            _, trace = fit(P, I, T, h)
            diffs = np.diff(trace.totals)
            assert np.all(diffs <= 1e-9)

    def test_zero_data_shrinks_factors(self):
        # With the cross-view couplings off, every block follows a pure
        # decay recursion on zero data, so all norms shrink monotonically.
        # Re-running with growing max_iter snapshots the same trajectory.
        p, r, q = 4, 6, 20
        P = np.zeros((p, r))
        I = np.ones((p, r))
        T = np.zeros((q, r))
        prev = None
        for m in range(1, 12):
            h = Hyperparams(k=2, lambda2=0.0, lambda4=0.0, max_iter=m,
                            epsilon=0.0, seed=3)
            f, _ = fit(P, I, T, h, init=init_factors(p, r, q, h))
            norms = {n: float(np.linalg.norm(getattr(f, n))) for n in FACTOR_NAMES}
            if prev is not None:
                for n in FACTOR_NAMES:
                    assert norms[n] <= prev[n] + 1e-15, n
            prev = norms
        h = Hyperparams(k=2, lambda2=0.0, lambda4=0.0, max_iter=2000,
                        epsilon=0.0, seed=3)
        _, trace = fit(P, I, T, h, init=init_factors(4, 6, 20, h))
        assert trace.totals[-1] < 1e-2 * trace.totals[0]

    def test_proximal_step_is_exact_soft_threshold_when_decoupled(self):
        p, r, k, q = 4, 6, 2, 8
        P, I, _ = standard_instance(21, p=p, r=r, k=k, q=q)
        rng = np.random.default_rng(22)
        T = rng.normal(size=(q, r))
        init = random_factors(23, p, r, k, q)
        h = Hyperparams(k=k, lambda2=0.0, lambda3=0.5, alpha0=1e-2,
                        max_iter=1, epsilon=0.0, seed=0)
        f, _ = fit(P, I, T, h, init=init)
        expected = soft_threshold(init.A, h.alpha0 * h.lambda3)
        assert np.array_equal(f.A, expected)

    def test_sparsity_of_A_non_increasing_in_l1_weight(self):
        P, I, T = standard_instance(24)
        nnzs = []
        for lam3 in (0.01, 0.1, 1.0):
            h = Hyperparams(k=3, lambda3=lam3, max_iter=400, epsilon=0.0, seed=5)
            f, _ = fit(P, I, T, h)
            nnzs.append(int((f.A != 0.0).sum()))
        assert nnzs[0] >= nnzs[1] >= nnzs[2]

    def test_strong_l1_zeros_A_exactly(self):
        P, I, T = standard_instance(25)
        h = Hyperparams(k=3, lambda3=50.0, max_iter=50, epsilon=0.0, seed=6)
        f, _ = fit(P, I, T, h)
        assert np.all(f.A == 0.0)

    def test_divergence_raises_with_diagnostic(self):
        P, I, T = standard_instance(26)
        with pytest.raises(DivergenceError, match="alpha0"):
            fit(P, I, T, Hyperparams(k=3, alpha0=1e6, max_iter=50))

    def test_deterministic_given_seed(self):
        P, I, T = standard_instance(27)
        h = Hyperparams(k=3, seed=9, max_iter=100, epsilon=0.0)
        f1, t1 = fit(P, I, T, h)
        f2, t2 = fit(P, I, T, h)
        for name in FACTOR_NAMES:
            assert np.array_equal(getattr(f1, name), getattr(f2, name))
        assert t1.totals == t2.totals

    def test_sparse_T_fit_matches_dense(self):
        P, I, T = standard_instance(30)
        h = Hyperparams(k=3, max_iter=60, epsilon=0.0, seed=4)
        fd, _ = fit(P, I, T, h)
        fs, _ = fit(P, I, sp.csr_array(T), h)
        for name in FACTOR_NAMES:
            assert np.allclose(getattr(fd, name), getattr(fs, name), atol=1e-10)

    def test_converged_stop_reason(self):
        P, I, T = standard_instance(31)
        h = Hyperparams(k=3, epsilon=1e-4, max_iter=2000, seed=7)
        _, trace = fit(P, I, T, h)
        assert trace.stop_reason == "converged"
        assert trace.iters[-1] < 2000


class TestTraceAndPersistence:
    def test_trace_structure(self):
        P, I, T = standard_instance(32)
        h = Hyperparams(k=3, max_iter=20, epsilon=0.0, seed=8)
        _, trace = fit(P, I, T, h)
        assert trace.iters == list(range(21))
        assert len(trace.totals) == len(trace.terms) == len(trace.alphas) == 21
        for total, terms in zip(trace.totals, trace.terms):
            assert total == pytest.approx(sum(terms.values()), rel=1e-12)
            assert set(terms) == set(TERM_NAMES)
        # alpha decays by rho starting from alpha0
        for i in range(1, 21):
            assert trace.alphas[i] == pytest.approx(h.alpha0 * h.rho ** (i - 1), rel=1e-12)

    def test_trace_csv(self, tmp_path):
        P, I, T = standard_instance(33)
        h = Hyperparams(k=3, max_iter=5, epsilon=0.0)
        _, trace = fit(P, I, T, h)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,total,recon,transform,z_recon,l1,regression,ridge,alpha"
        assert len(lines) == 7
        parts = lines[1].split(",")
        assert float(parts[1]) == pytest.approx(trace.totals[0])

    def test_factor_save_load_round_trip(self, tmp_path):
        f = random_factors(34, 5, 7, 3, 12)
        f.save(tmp_path / "factors")
        loaded = LatentFactors.load(tmp_path / "factors")
        for name in FACTOR_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(f, name))

    def test_load_rejects_truncated_file(self, tmp_path):
        f = random_factors(35, 4, 6, 2, 8)
        f.save(tmp_path / "factors")
        (tmp_path / "factors" / "U.bin").write_bytes(b"\x00" * 8)
        with pytest.raises(ValueError):
            LatentFactors.load(tmp_path / "factors")


class TestHyperparams:
    def test_defaults(self):
        h = Hyperparams()
        assert (h.k, h.lambda1, h.lambda2, h.lambda3, h.lambda4, h.lambda5) == \
            (10, 1.0, 1.0, 0.1, 1.0, 0.01)
        assert (h.alpha0, h.rho, h.epsilon, h.max_iter) == (1e-3, 0.999, 1e-8, 2000)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(k=0)
        with pytest.raises(ValueError):
            Hyperparams(alpha0=0.0)
        with pytest.raises(ValueError):
            Hyperparams(rho=0.0)
        with pytest.raises(ValueError):
            Hyperparams(lambda2=-1.0)
