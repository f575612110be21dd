import logging
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from zonefuse import latent_fusion
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
    objective,
    prox_step_A,
    soft_threshold,
)
from zonefuse.sparse_io import CooMatrix


def standard_instance(seed, p=5, r=7, k=3, q=336, column_mask=False):
    """P, the observed-region flags and T; every region is observed
    unless column_mask draws them."""
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(p, r))
    if column_mask:
        observed = rng.random(r) < 0.6
        if not observed.any():
            observed[0] = True
    else:
        observed = np.ones(r, dtype=bool)
    T = rng.poisson(0.05, size=(q, r)).astype(float)
    return P, observed, T


def diagonal_activity(seed, r=40, q=48):
    """A T with one nonzero per row and per column, so T^T T is diagonal:
    no row of T has two entries, and B, the rows with two or more, is
    empty."""
    rng = np.random.default_rng(seed)
    T = np.zeros((q, r))
    T[rng.permutation(q)[:r], np.arange(r)] = rng.poisson(3.0, r) + 1.0
    return T


def few_multi_entry_rows(seed, r=40, q=48):
    """diagonal_activity with its q - r empty rows given two to four
    entries each: 0 < m = q - r < r."""
    T = diagonal_activity(seed, r, q)
    rng = np.random.default_rng(seed + 1)
    for i in np.flatnonzero(~T.any(axis=1)):
        cols = rng.choice(r, rng.integers(2, 5), replace=False)
        T[i, cols] = rng.poisson(2.0, len(cols)) + 1.0
    return T


def rows_of_two(m, r):
    """m rows of T with two entries each, over r columns."""
    T = np.zeros((m, r))
    T[np.arange(m), np.arange(m) % r] = 1.0
    T[np.arange(m), (np.arange(m) + 1) % r] = 2.0
    return T


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


def fd_block_gradient(P, observed, T, f, h, name, step=1e-6):
    """Central finite differences of the smooth objective for one block."""
    X = getattr(f, name)
    G = np.zeros_like(X)
    def smooth():
        total, terms = objective(P, observed, T, f, h)
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

    def test_matches_sign_times_max_form(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(size=50), [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf,
                                                  np.nan, 0.5, -0.5]])
        for theta in (0.0, 0.5, 1.0, 2.5, np.inf):
            with np.errstate(invalid="ignore"):
                want = np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)
                got = soft_threshold(x, theta)
            # equal, NaN where the reference is NaN; a zero may differ in sign
            assert np.array_equal(got, want, equal_nan=True)

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
        total, terms = objective(np.zeros((4, 6)), np.ones(6, dtype=bool),
                                 np.zeros((10, 6)), f, h)
        assert total == 0.0
        assert all(v == 0.0 for v in terms.values())

    def test_only_ridge_term(self):
        h = Hyperparams(k=3, lambda5=2.0)
        U = np.zeros((4, 3))
        U[0, 0] = 3.0  # ||U||^2 = 9
        f = LatentFactors(U=U, V=np.zeros((3, 6)), Q=np.zeros((3, 10)),
                          Z=np.zeros((3, 6)), A=np.zeros((4, 6)), W=np.zeros((3, 3)))
        total, terms = objective(np.zeros((4, 6)), np.ones(6, dtype=bool),
                                 np.zeros((10, 6)), f, h)
        assert total == pytest.approx(9.0)
        assert terms["ridge"] == pytest.approx(9.0)

    def test_matches_elementwise_loop_oracle(self):
        p, r, k, q = 4, 6, 2, 9
        rng = np.random.default_rng(3)
        P = rng.normal(size=(p, r))
        observed = rng.random(r) < 0.7
        T = rng.normal(size=(q, r))
        f = random_factors(4, p, r, k, q)
        h = Hyperparams(k=k, lambda1=0.7, lambda2=1.3, lambda3=0.2,
                        lambda4=0.9, lambda5=0.05)
        total, terms = objective(P, observed, T, f, h)

        recon = transform = z_recon = l1 = regression = ridge = 0.0
        UV = f.U @ f.V
        QtZ = f.Q.T @ f.Z
        UtA = f.U.T @ f.A
        WZ = f.W @ f.Z
        for i in range(p):
            for j in range(r):
                if observed[j]:
                    recon += 0.5 * (P[i, j] - UV[i, j]) ** 2
                l1 += h.lambda3 * abs(f.A[i, j])
        for j in range(r):
            norm = np.sqrt(sum(T[i, j] ** 2 for i in range(q)))
            for i in range(q):
                transform += 0.5 * h.lambda1 * (T[i, j] / norm - QtZ[i, j]) ** 2
        for i in range(k):
            for j in range(r):
                z_recon += 0.5 * h.lambda2 * (f.Z[i, j] - UtA[i, j]) ** 2
                if observed[j]:
                    regression += 0.5 * h.lambda4 * (f.V[i, j] - WZ[i, j]) ** 2
                    ridge += 0.5 * h.lambda5 * f.V[i, j] ** 2
        for M in (f.U, f.Q, f.W):
            ridge += 0.5 * h.lambda5 * (M ** 2).sum()
        assert terms["recon"] == pytest.approx(recon, rel=1e-12)
        assert terms["transform"] == pytest.approx(transform, rel=1e-12)
        assert terms["z_recon"] == pytest.approx(z_recon, rel=1e-12)
        assert terms["l1"] == pytest.approx(l1, rel=1e-12)
        assert terms["regression"] == pytest.approx(regression, rel=1e-12)
        assert terms["ridge"] == pytest.approx(ridge, rel=1e-12)
        assert total == pytest.approx(sum(terms.values()), rel=1e-12)

    def test_sparse_and_dense_T_agree(self):
        P, observed, T = standard_instance(5)
        f = random_factors(6, 5, 7, 3, 336)
        h = Hyperparams(k=3)
        dense_total, _ = objective(P, observed, T, f, h)
        for sparse in (sp.csr_array(T), CooMatrix.of(T)):
            sparse_total, _ = objective(P, observed, sparse, f, h)
            assert sparse_total == pytest.approx(dense_total, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        h = Hyperparams(k=3)
        f = random_factors(0, 5, 7, 3, 336)
        P, observed, T = standard_instance(0)
        with pytest.raises(ValueError, match="observed"):
            objective(P, observed[:5], T, f, h)
        with pytest.raises(ValueError):
            objective(P, observed, T[:, :5], f, h)

    @pytest.mark.parametrize("name", ["U", "V", "Z", "A", "W"])
    def test_missing_block_rejected(self, name):
        # only fit may take Q as None, since it never reads Q
        h = Hyperparams(k=3, max_iter=2)
        P, observed, T = standard_instance(0)
        init = replace(random_factors(0, 5, 7, 3, 336), **{name: None})
        with pytest.raises(ValueError, match=f"{name} has shape None"):
            fit(P, observed, T, h, init=init)
        fit(P, observed, T, h, init=replace(random_factors(0, 5, 7, 3, 336), Q=None))

    @pytest.mark.parametrize("oracle", [objective, gradients])
    def test_oracles_need_q(self, oracle):
        P, observed, T = standard_instance(0)
        f = replace(random_factors(0, 5, 7, 3, 336), Q=None)
        with pytest.raises(ValueError, match=r"Q has shape None, expected \(3, 336\)"):
            oracle(P, observed, T, f, Hyperparams(k=3))

    def test_entry_mask_rejected(self):
        # one flag per region: a categories x regions mask is refused,
        # not broadcast
        P, observed, T = standard_instance(1)
        I = np.tile(observed, (P.shape[0], 1))
        h = Hyperparams(k=3, max_iter=5)
        with pytest.raises(ValueError, match=r"observed has shape \(5, 7\), expected \(7,\)"):
            fit(P, I, T, h)
        with pytest.raises(ValueError, match="observed"):
            gradients(P, I, T, random_factors(1, 5, 7, 3, 336), h)


class TestGradients:
    @pytest.mark.parametrize("column_mask", [False, True])
    def test_matches_finite_differences(self, column_mask):
        p, r, k, q = 5, 7, 3, 30
        P, observed, _ = standard_instance(11, p=p, r=r, k=k, q=q, column_mask=column_mask)
        rng = np.random.default_rng(12)
        T = rng.poisson(0.2, size=(q, r)).astype(float)
        f = random_factors(13, p, r, k, q)
        h = Hyperparams(k=k, lambda1=0.8, lambda2=1.1, lambda3=0.3,
                        lambda4=0.7, lambda5=0.02)
        g = gradients(P, observed, T, f, h)
        for name in FACTOR_NAMES:
            fd = fd_block_gradient(P, observed, T, f, h, name)
            rel = np.linalg.norm(fd - g[name]) / max(np.linalg.norm(g[name]), 1e-12)
            assert rel <= 1e-4, f"block {name}: relative error {rel}"

    def test_zero_factors_are_stationary(self):
        P, observed, T = standard_instance(14)
        h = Hyperparams(k=3)
        f = LatentFactors(U=np.zeros((5, 3)), V=np.zeros((3, 7)), Q=np.zeros((3, 336)),
                          Z=np.zeros((3, 7)), A=np.zeros((5, 7)), W=np.zeros((3, 3)))
        g = gradients(P, observed, T, f, h)
        for name in FACTOR_NAMES:
            assert np.all(g[name] == 0.0), name

    def test_masked_reconstruction_only(self):
        # with every other lambda zero the U gradient is the masked residual form
        p, r, k, q = 5, 7, 3, 30
        P, observed, T = standard_instance(15, q=q, column_mask=True)
        f = random_factors(16, p, r, k, q)
        h = Hyperparams(k=k, lambda1=0, lambda2=0, lambda3=0, lambda4=0, lambda5=0)
        g = gradients(P, observed, T, f, h)
        R = P[:, observed] - f.U @ f.V[:, observed]
        assert np.allclose(g["U"], -R @ f.V[:, observed].T, atol=1e-12)
        assert np.allclose(g["V"][:, observed], -f.U.T @ R, atol=1e-12)
        assert np.all(g["V"][:, ~observed] == 0.0)

    def test_sparse_T_agrees_with_dense(self):
        P, observed, T = standard_instance(17)
        f = random_factors(18, 5, 7, 3, 336)
        h = Hyperparams(k=3)
        gd = gradients(P, observed, T, f, h)
        for sparse in (sp.csr_array(T), CooMatrix.of(T)):
            gs = gradients(P, observed, sparse, f, h)
            for name in FACTOR_NAMES:
                assert np.allclose(gd[name], gs[name], atol=1e-12)


class TestFit:
    def test_planted_rank_k_recovery(self):
        rng = np.random.default_rng(42)
        p, r, k = 20, 30, 4
        P = rng.normal(size=(p, k)) @ rng.normal(size=(k, r))
        observed = np.ones(r, dtype=bool)
        T = np.zeros((10, r))
        h = Hyperparams(k=k, lambda1=0, lambda2=0, lambda3=0, lambda4=0,
                        lambda5=1e-6, epsilon=0.0, max_iter=2000, seed=1)
        f, trace = fit(P, observed, T, h)
        assert np.sqrt(np.mean((P - f.U @ f.V) ** 2)) < 1e-2

    def test_descent_with_default_hyperparams(self):
        for seed in range(4):
            P, observed, T = standard_instance(seed, column_mask=(seed % 2 == 1))
            h = Hyperparams(k=3, seed=seed, max_iter=500, epsilon=0.0)
            _, trace = fit(P, observed, T, h)
            diffs = np.diff(trace.totals)
            assert np.all(diffs <= 1e-9)

    def test_zero_data_shrinks_factors(self):
        # With the cross-view couplings off, every block's minimiser on
        # zero data is zero, so all norms shrink monotonically.
        # Re-running with growing max_iter snapshots the same trajectory.
        p, r, q = 4, 6, 20
        P = np.zeros((p, r))
        observed = np.ones(r, dtype=bool)
        T = np.zeros((q, r))
        prev = None
        for m in range(1, 12):
            h = Hyperparams(k=2, lambda2=0.0, lambda4=0.0, max_iter=m,
                            epsilon=0.0, seed=3)
            f, _ = fit(P, observed, T, h, init=init_factors(p, r, h))
            # fit returns Q as None
            norms = {n: float(np.linalg.norm(getattr(f, n))) for n in FACTOR_NAMES if n != "Q"}
            if prev is not None:
                for n in norms:
                    assert norms[n] <= prev[n] + 1e-15, n
            prev = norms
        h = Hyperparams(k=2, lambda2=0.0, lambda4=0.0, max_iter=2000,
                        epsilon=0.0, seed=3)
        _, trace = fit(P, observed, T, h, init=init_factors(4, 6, h))
        assert trace.totals[-1] < 1e-2 * trace.totals[0]

    def test_proximal_step_is_exact_soft_threshold_when_decoupled(self):
        # with orthonormal rows (U U^T = I) the step 1/L lands on U Z exactly
        p, r, k, q = 3, 6, 4, 8
        f = random_factors(23, p, r, k, q)
        f.U = np.linalg.qr(np.random.default_rng(22).normal(size=(k, p)))[0].T
        h = Hyperparams(k=k, lambda2=0.8, lambda3=0.5)
        A = prox_step_A(f, h)
        expected = soft_threshold(f.U @ f.Z, h.lambda3 / h.lambda2)
        assert np.allclose(A, expected, rtol=0.0, atol=1e-12)
        assert np.array_equal(A == 0.0, expected == 0.0)
        assert 0 < (A == 0.0).sum() < A.size

    def test_sparsity_of_A_non_increasing_in_l1_weight(self):
        P, observed, T = standard_instance(24)
        nnzs = []
        for lam3 in (0.01, 0.1, 1.0):
            h = Hyperparams(k=3, lambda3=lam3, max_iter=400, epsilon=0.0, seed=5)
            f, _ = fit(P, observed, T, h)
            nnzs.append(int((f.A != 0.0).sum()))
        assert nnzs[0] >= nnzs[1] >= nnzs[2]

    def test_strong_l1_zeros_A_exactly(self):
        P, observed, T = standard_instance(25)
        h = Hyperparams(k=3, lambda3=50.0, max_iter=50, epsilon=0.0, seed=6)
        f, _ = fit(P, observed, T, h)
        assert np.all(f.A == 0.0)

    def test_non_finite_data_raises(self):
        P, observed, T = standard_instance(26)
        P[0, 0] = np.inf
        with pytest.raises(DivergenceError, match="initial factors"):
            fit(P, observed, T, Hyperparams(k=3, max_iter=50))

    @pytest.mark.parametrize("column_mask, activity", [
        pytest.param(False, "dense", id="False"),
        pytest.param(True, "dense", id="True"),
        pytest.param(False, "diagonal", id="diagonal-False"),
        pytest.param(True, "diagonal", id="diagonal-True"),
        pytest.param(False, "multi", id="multi-entry-rows-False"),
        pytest.param(True, "multi", id="multi-entry-rows-True"),
    ])
    def test_each_block_update_is_its_exact_minimiser(self, column_mask, activity):
        # after a block's update, the gradient oracle vanishes on that block;
        # the Q step's Q Tn and Q Q^T are those of the explicit minimiser
        # Q = l1 G^-1 Z Tn^T, through a dense K or through Tn's triples
        if activity == "dense":
            p, r, k, q = 5, 7, 3, 30
            T = np.random.default_rng(37).poisson(0.2, size=(q, r)).astype(float)
        else:
            p, r, k, q = 5, 40, 3, 48
            T = (diagonal_activity if activity == "diagonal" else few_multi_entry_rows)(37, r, q)
        P, observed, _ = standard_instance(36, p=p, r=r, k=k, column_mask=column_mask)
        f = random_factors(38, p, r, k, q)
        h = Hyperparams(k=k, lambda1=0.8, lambda2=1.1, lambda3=0.3,
                        lambda4=0.7, lambda5=0.02)
        f.U = latent_fusion._update_U(P, observed, f, h)
        f.V = latent_fusion._update_V(P, observed, f, h)
        Tn, nonempty = latent_fusion._unit_columns(T)
        path, times_K = latent_fusion._k_times(Tn)
        assert path == {"dense": "dense", "diagonal": "triples", "multi": "triples"}[activity]
        QTn, QQt, _, _ = latent_fusion._q_step(f.Z, times_K(f.Z), nonempty, h)
        G = h.lambda1 * f.Z @ f.Z.T + h.lambda5 * np.eye(k)
        f.Q = h.lambda1 * np.linalg.solve(G, f.Z @ Tn.toarray().T)
        assert np.allclose(QTn, f.Q @ Tn.toarray(), atol=1e-10)
        assert np.allclose(QQt, f.Q @ f.Q.T, atol=1e-10)
        g_q = gradients(P, observed, T, f, h)["Q"]
        f.Z = latent_fusion._update_Z(QTn, QQt, observed, f, h)
        g_z = gradients(P, observed, T, f, h)["Z"]
        f.W = latent_fusion._update_W(observed, f, h)
        g = gradients(P, observed, T, f, h)
        for name, grad in (("Q", g_q), ("Z", g_z), ("W", g["W"])):
            assert np.abs(grad).max() < 1e-10, name
        f.U = latent_fusion._update_U(P, observed, f, h)
        assert np.abs(gradients(P, observed, T, f, h)["U"]).max() < 1e-10
        f.V = latent_fusion._update_V(P, observed, f, h)
        assert np.abs(gradients(P, observed, T, f, h)["V"]).max() < 1e-10

    def test_blocks_without_terms_keep_their_value(self):
        p, r, k, q = 4, 6, 2, 8
        P, observed, T = standard_instance(39, p=p, r=r, k=k, q=q)
        init = random_factors(40, p, r, k, q)
        h = Hyperparams(k=k, lambda1=0.0, lambda2=0.0, lambda3=0.0,
                        lambda4=0.0, lambda5=0.0, max_iter=5)
        f, trace = fit(P, observed, T, h, init=init)
        for name in ("Z", "A", "W"):
            assert np.array_equal(getattr(f, name), getattr(init, name)), name
        # Q has no term either: fit returns it as None, and its step gives 0
        assert f.Q is None
        Tn, nonempty = latent_fusion._unit_columns(T)
        QTn, QQt, transform, q_sq = latent_fusion._q_step(
            f.Z, latent_fusion._k_times(Tn)[1](f.Z), nonempty, h)
        assert not QTn.any() and not QQt.any() and transform == q_sq == 0.0
        assert np.all(np.diff(trace.totals) <= 1e-12)
        # the L1 term alone is minimised by A = 0
        f, _ = fit(P, observed, T, Hyperparams(k=k, lambda2=0.0, lambda3=0.1,
                                        max_iter=1), init=init)
        assert np.all(f.A == 0.0)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_zero_ridge_takes_least_norm_q(self, sparse):
        # lambda5 = 0: G = l1 Z Z^T, and an activity-free region gives K
        # a zero column
        P, observed, T = standard_instance(41)
        T[:, 2] = 0.0
        T = sp.csr_array(T) if sparse else T
        h = Hyperparams(k=3, lambda5=0.0, max_iter=100, epsilon=0.0, seed=2)
        f, trace = fit(P, observed, T, h)
        assert f.Q is None
        assert np.all(np.diff(trace.totals) <= 1e-9)
        # the least-norm minimiser of ||Tn - Q^T Z||, Q^T = Tn Z^+
        Tn, nonempty = latent_fusion._unit_columns(T)
        QTn, QQt, _, _ = latent_fusion._q_step(f.Z, latent_fusion._k_times(Tn)[1](f.Z),
                                               nonempty, h)
        Q = (Tn.toarray() @ np.linalg.pinv(f.Z)).T
        assert np.all(np.isfinite(QTn)) and np.all(np.isfinite(QQt))
        assert np.allclose(QTn, Q @ Tn.toarray(), atol=1e-8)
        assert np.allclose(QQt, Q @ Q.T, atol=1e-8)
        assert not QTn[:, 2].any()

    @pytest.mark.parametrize("T, path", [
        pytest.param(diagonal_activity(46), "triples", id="no-multi-entry-row"),
        pytest.param(rows_of_two(50, 40), "triples", id="r-squared-at-16-nnz"),
        pytest.param(rows_of_two(51, 40), "dense", id="r-squared-below-16-nnz"),
        pytest.param(standard_instance(45)[2], "dense", id="many-multi-entry-rows"),
    ])
    def test_k_path_follows_the_size_rule(self, T, path):
        # dense K when r^2 < 16 nnz(B), B the rows with two or more
        # entries: rows_of_two(m, 40) has nnz(B) = 2 m against r^2 = 1600
        P, observed, _ = standard_instance(47, r=T.shape[1])
        _, trace = fit(P, observed, T, Hyperparams(k=3, max_iter=2))
        assert trace.k_path == path

    @pytest.mark.parametrize("T", [
        pytest.param(few_multi_entry_rows(53), id="few-multi-entry-rows"),
        pytest.param(np.random.default_rng(54).poisson(0.3, size=(200, 300)).astype(float),
                     id="several-bands"),
    ])
    def test_dense_and_triples_k_agree(self, T):
        # the dense K mirrors its lower triangle a band of rows at a time;
        # 300 regions take several bands
        Tn, _ = latent_fusion._unit_columns(T)
        Z = np.random.default_rng(55).normal(size=(4, T.shape[1]))
        expected = Z @ Tn.toarray().T @ Tn.toarray()
        for times in (latent_fusion._dense_k(Tn), latent_fusion._triples_k(Tn)):
            assert np.abs(times(Z) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_unit_columns(self):
        T = np.array([[3.0, 0.0, 0.0], [4.0, 0.0, 2.0]])
        Tn, nonempty = latent_fusion._unit_columns(T)
        assert np.array_equal(Tn.toarray(), [[0.6, 0.0, 0.0], [0.8, 0.0, 1.0]])
        assert nonempty == 2

    def test_unobserved_columns_of_V_are_W_Z(self):
        P, observed, T = standard_instance(56, column_mask=True)
        assert not observed.all()
        f, _ = fit(P, observed, T, Hyperparams(k=3, max_iter=20, seed=3))
        assert np.array_equal(f.V[:, ~observed], (f.W @ f.Z)[:, ~observed])

    def test_max_iter_stop_logs_warning(self, caplog):
        P, observed, T = standard_instance(42)
        with caplog.at_level(logging.WARNING, logger="zonefuse.latent_fusion"):
            _, trace = fit(P, observed, T, Hyperparams(k=3, max_iter=3))
        assert trace.stop_reason == "max_iter"
        assert "max_iter" in caplog.text
        assert trace.relative_decrease > 0

    def test_deterministic_given_seed(self):
        P, observed, T = standard_instance(27)
        h = Hyperparams(k=3, seed=9, max_iter=100, epsilon=0.0)
        f1, t1 = fit(P, observed, T, h)
        f2, t2 = fit(P, observed, T, h)
        for name in FACTOR_NAMES:
            assert np.array_equal(getattr(f1, name), getattr(f2, name))
        assert t1.totals == t2.totals

    def test_sparse_T_fit_matches_dense(self):
        P, observed, T = standard_instance(30)
        h = Hyperparams(k=3, max_iter=60, epsilon=0.0, seed=4)
        fd, _ = fit(P, observed, T, h)
        for sparse in (sp.csr_array(T), CooMatrix.of(T)):
            fs, _ = fit(P, observed, sparse, h)
            assert fd.Q is fs.Q is None
            for name in ("U", "V", "Z", "A", "W"):
                assert np.allclose(getattr(fd, name), getattr(fs, name), atol=1e-10)

    def test_converged_stop_reason(self):
        P, observed, T = standard_instance(31)
        h = Hyperparams(k=3, epsilon=1e-4, max_iter=2000, seed=7)
        _, trace = fit(P, observed, T, h)
        assert trace.stop_reason == "converged"
        assert trace.iters[-1] < 2000

    def test_stop_rule_is_relative_to_the_objective(self):
        # the objective here ends near 1.5, so an absolute bound of
        # epsilon would stop about 30 sweeps later
        P, observed, T = standard_instance(31)
        eps = 1e-5
        _, full = fit(P, observed, T, Hyperparams(k=3, epsilon=0.0, max_iter=300, seed=7))
        prev, cur = np.array(full.totals[:-1]), np.array(full.totals[1:])
        meets = (prev - cur >= 0) & (prev - cur <= eps * np.maximum(np.abs(prev), 1.0))
        first = int(np.argmax(meets)) + 1
        assert meets.any() and first < 300
        _, trace = fit(P, observed, T, Hyperparams(k=3, epsilon=eps, max_iter=300, seed=7))
        assert trace.stop_reason == "converged"
        assert trace.iters[-1] == first
        assert trace.totals == full.totals[:first + 1]


def full_width_update_U(P, observed, f, h):
    """_update_U as one dense (p k) x (p k) system on U row-major over the
    tiled mask, each row of U with its own masked Gram."""
    p, k = f.U.shape
    I = np.tile(observed.astype(float), (p, 1))
    H = h.lambda2 * np.kron(f.A @ f.A.T, np.eye(k)) + h.lambda5 * np.eye(p * k)
    for i in range(p):
        H[i * k:(i + 1) * k, i * k:(i + 1) * k] += (f.V * I[i]) @ f.V.T
    B = (I * P) @ f.V.T + h.lambda2 * (f.A @ f.Z.T)
    return latent_fusion._argmin(H, B.ravel(), f.U.ravel()).reshape(p, k)


def full_width_update_V(P, observed, f, h):
    """_update_V as one k x k solve per region over the tiled mask; an
    unobserved region has every term off."""
    I = np.tile(observed.astype(float), (P.shape[0], 1))
    WZ = h.lambda4 * (f.W @ f.Z)
    V = np.empty_like(f.V)
    for j in range(P.shape[1]):
        H = observed[j] * ((f.U.T * I[:, j]) @ f.U + (h.lambda4 + h.lambda5) * np.eye(h.k))
        b = f.U.T @ (I[:, j] * P[:, j]) + observed[j] * WZ[:, j]
        V[:, j] = latent_fusion._argmin(H, b, f.V[:, j])
    return V


def full_width_recon(P, observed, f):
    R = (P - f.U @ f.V) * observed
    return 0.5 * float((R * R).sum())


class TestGram:
    @pytest.mark.parametrize("batch", [1, 7, latent_fusion._PAIRS_PER_BATCH])
    def test_gram_is_the_lower_triangle_of_TtT(self, monkeypatch, batch):
        # batches smaller than one entry's pairs, of a few rows, of all rows
        monkeypatch.setattr(latent_fusion, "_PAIRS_PER_BATCH", batch)
        T = np.random.default_rng(3).poisson(0.4, size=(60, 9)).astype(float)
        G = latent_fusion._gram_lower(CooMatrix.of(T))
        assert np.array_equal(G, np.tril(T.T @ T))


class TestObservedColumnSweep:
    """The updates through one shared Gram each, and the objective over
    the observed columns, against the full-width formulations."""

    @staticmethod
    def masks(r, rng):
        observed = rng.random(r) < 0.5
        observed[:2] = True, False
        return {"column": observed, "none observed": np.zeros(r, dtype=bool)}

    @pytest.mark.parametrize("mask", ["column", "none observed"])
    @pytest.mark.parametrize("lambdas", [(0.7, 0.02), (1.0, 3.0), (0.0, 0.0)])
    def test_matches_full_width_formulas(self, mask, lambdas):
        p, r, k, q = 6, 11, 3, 20
        rng = np.random.default_rng(43)
        P = rng.poisson(1.5, size=(p, r)).astype(float)
        observed = self.masks(r, rng)[mask]
        T = rng.poisson(0.2, size=(q, r)).astype(float)
        f = random_factors(44, p, r, k, q)
        lambda4, lambda5 = lambdas
        h = Hyperparams(k=k, lambda1=0.8, lambda2=1.1, lambda3=0.3,
                        lambda4=lambda4, lambda5=lambda5)
        assert np.allclose(latent_fusion._update_U(P, observed, f, h),
                           full_width_update_U(P, observed, f, h), rtol=1e-10, atol=1e-12)
        V = latent_fusion._update_V(P, observed, f, h)
        assert np.allclose(V, full_width_update_V(P, observed, f, h),
                           rtol=1e-10, atol=1e-12)
        assert np.array_equal(V[:, ~observed], f.V[:, ~observed])
        _, terms = latent_fusion._objective(P, observed, 0.0, 0.0, f, h)
        assert terms["recon"] == pytest.approx(full_width_recon(P, observed, f), rel=1e-12)

    def test_U_components_without_terms_keep_their_value(self):
        # l2 = l5 = 0 and one observed region for k = 3: G = v v^T has
        # rank 1, so U moves only along v and keeps its other components
        p, r, k, q = 4, 6, 3, 8
        rng = np.random.default_rng(48)
        P = rng.normal(size=(p, r))
        observed = np.zeros(r, dtype=bool)
        f = random_factors(49, p, r, k, q)
        h = Hyperparams(k=k, lambda2=0.0, lambda5=0.0)
        # the rotations into and out of the eigenbases round only
        assert np.allclose(latent_fusion._update_U(P, observed, f, h), f.U,
                           rtol=0.0, atol=1e-14)
        observed[2] = True
        U = latent_fusion._update_U(P, observed, f, h)
        v = f.V[:, 2]
        assert np.allclose(U @ v, P[:, 2], atol=1e-12)
        null = np.linalg.svd(v[None, :])[2][1:].T  # k x (k - 1), orthogonal to v
        assert np.allclose(U @ null, f.U @ null, atol=1e-12)


class TestTraceAndPersistence:
    def test_trace_structure(self):
        P, observed, T = standard_instance(32)
        h = Hyperparams(k=3, max_iter=20, epsilon=0.0, seed=8)
        _, trace = fit(P, observed, T, h)
        assert trace.iters == list(range(21))
        assert len(trace.totals) == len(trace.terms) == 21
        for total, terms in zip(trace.totals, trace.terms):
            assert total == pytest.approx(sum(terms.values()), rel=1e-12)
            assert set(terms) == set(TERM_NAMES)

    def test_trace_csv(self, tmp_path):
        P, observed, T = standard_instance(33)
        h = Hyperparams(k=3, max_iter=5, epsilon=0.0)
        _, trace = fit(P, observed, T, h)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,total,recon,transform,z_recon,l1,regression,ridge"
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
        assert (h.epsilon, h.max_iter) == (1e-8, 2000)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(k=0)
        with pytest.raises(ValueError):
            Hyperparams(lambda2=-1.0)
