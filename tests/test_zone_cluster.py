import csv
import io
import itertools
import math

import numpy as np
import pytest

from zonefuse import zone_cluster
from zonefuse.geo_grid import (Box, GridIndex, cell_spans, decode, enumerate_cells,
                               load_labels, save_labels)
from zonefuse.zone_cluster import (
    ZoneModel,
    adjusted_rand_index,
    crf_fit,
    energy,
    fit_gaussians,
    icm_map,
    kmeans,
    neighbor_pairs,
    window_means,
)

EXHAUSTIVE_LIMIT = 2_000_000


def exhaustive_map(F, model: ZoneModel, shape) -> np.ndarray:
    """Global energy minimizer on the (n_rows, n_cols) lattice by
    enumeration; only viable for tiny grids."""
    X = zone_cluster._points(F)
    r = X.shape[0]
    c = model.n_zones
    n_rows, n_cols = zone_cluster._lattice(shape, r)
    if c ** r > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{c}^{r} labelings exceed the enumeration limit")
    U = zone_cluster._unary(X, model.means, model.variances)
    all_labels = np.array(list(itertools.product(range(c), repeat=r)), dtype=np.int64)
    unary = U[np.arange(r), all_labels].sum(axis=1)
    pair = zone_cluster._pair_energy(all_labels.reshape(-1, n_rows, n_cols), model.beta)
    return all_labels[int(np.argmin(unary + pair))].copy()


def features(X: np.ndarray) -> np.ndarray:
    """Row-per-region points as d x r features (columns = regions)."""
    return np.asarray(X, dtype=np.float64).T


def planted_grid(n_rows, n_cols, d=3, sep=5.0, noise=1.0, seed=0,
                 corrupt_frac=0.0):
    """Two vertical zones with Gaussian features; optionally corrupt a few
    regions by collapsing their features onto the class midpoint, which
    erases their own label evidence and leaves it to the neighbors."""
    rng = np.random.default_rng(seed)
    r = n_rows * n_cols
    cols = np.arange(r) % n_cols
    truth = (cols >= n_cols // 2).astype(np.int64)
    means = np.zeros((2, d))
    means[1] = sep * noise
    X = means[truth] + rng.normal(0.0, noise, size=(r, d))
    n_corrupt = round(corrupt_frac * r)
    if n_corrupt:
        idx = rng.choice(r, size=n_corrupt, replace=False)
        X[idx] = means.mean(axis=0) + rng.normal(0.0, noise, size=(n_corrupt, d))
    return features(X), truth, (n_rows, n_cols)


def nll_oracle(x, mean, var):
    """Independent per-point Gaussian negative log density."""
    total = 0.0
    for xi, mi, vi in zip(x, mean, var):
        total += 0.5 * math.log(2.0 * math.pi * vi) + (xi - mi) ** 2 / (2.0 * vi)
    return total


def neighbors_oracle(shape):
    """Per-region sorted 8-neighbor index lists of a row-major lattice, by
    a loop over every cell and offset."""
    n_rows, n_cols = shape
    out = []
    for i in range(n_rows * n_cols):
        row, col = divmod(i, n_cols)
        out.append([rr * n_cols + cc
                    for rr in (row - 1, row, row + 1) for cc in (col - 1, col, col + 1)
                    if (rr, cc) != (row, col) and 0 <= rr < n_rows and 0 <= cc < n_cols])
    return out


def lattice_pairs(shape):
    """The (i, j) index pairs that neighbor_pairs gives for a lattice."""
    idx = np.arange(shape[0] * shape[1]).reshape(shape)
    pairs = list(neighbor_pairs(idx))
    return (np.concatenate([a.ravel() for a, _ in pairs]),
            np.concatenate([b.ravel() for _, b in pairs]))


def energy_oracle(labels, X, means, variances, beta, shape):
    """Loop-based energy evaluation used to audit energy()."""
    total = 0.0
    for i, y in enumerate(labels):
        total += nll_oracle(X[i], means[y], variances[y])
    for i, nbrs in enumerate(neighbors_oracle(shape)):
        for j in nbrs:
            if i < j:
                total += beta * (1.0 - 2.0 * (labels[i] == labels[j]))
    return total


class TestAdjacency:
    """The neighbor pairs of a lattice, taken from its shape."""

    def test_lattice_degrees(self):
        pi, pj = lattice_pairs((3, 3))
        degrees = np.bincount(np.concatenate([pi, pj]), minlength=9)
        assert degrees.tolist() == [3, 5, 3, 5, 8, 5, 3, 5, 3]

    def test_lattice_symmetric_no_self_loops(self):
        pi, pj = lattice_pairs((4, 5))
        assert np.all(pi != pj)
        for i, nbrs in enumerate(neighbors_oracle((4, 5))):
            got = sorted(pj[pi == i].tolist() + pi[pj == i].tolist())
            assert got == nbrs

    def test_pairs_unordered_once(self):
        pi, pj = lattice_pairs((3, 3))
        assert np.all(pi < pj)
        # 3x3 lattice has 12 rook edges + 8 diagonal edges
        assert pi.size == 20
        assert len({(a, b) for a, b in zip(pi, pj)}) == pi.size

    def test_grid_adjacency_matches_lattice(self):
        grid = enumerate_cells(Box(10.0, 20.0, 10.15, 20.2), 5)
        boxes = [decode(c) for c in grid.codes]
        lat_mins = sorted({b.min_lat for b in boxes})
        lon_mins = sorted({b.min_lon for b in boxes})
        n_rows, n_cols = len(lat_mins), len(lon_mins)
        assert n_rows * n_cols == len(grid.codes)
        assert grid.shape == (n_rows, n_cols)
        for shape in (grid.shape, (1, 1), (1, 5), (5, 1), (7, 9)):
            pi, pj = lattice_pairs(shape)
            want = {(i, j) for i, nbrs in enumerate(neighbors_oracle(shape))
                    for j in nbrs if i < j}
            assert set(zip(pi.tolist(), pj.tolist())) == want
            assert pi.size == len(want)

    def test_grid_shape_neighbors_are_touching_cells(self, tmp_path):
        # geometric oracle: two regions are neighbors exactly when their
        # cell boxes share an edge or a corner, for a fresh grid and for
        # its reload from cells.csv
        grid = enumerate_cells(Box(35.70, -78.70, 35.80, -78.55), 6)
        grid.to_csv(tmp_path / "cells.csv")
        reloaded = GridIndex.from_csv(tmp_path / "cells.csv")
        lat_span, lon_span = cell_spans(6)
        for g in (grid, reloaded):
            boxes = np.array([[b.min_lat, b.min_lon, b.max_lat, b.max_lon]
                              for b in map(decode, g.codes)])
            lo, hi = boxes[:, None, :2], boxes[:, None, 2:]
            gap = np.maximum(lo, lo.transpose(1, 0, 2)) - np.minimum(hi, hi.transpose(1, 0, 2))
            touch = (gap[..., 0] <= 1e-9 * lat_span) & (gap[..., 1] <= 1e-9 * lon_span)
            np.fill_diagonal(touch, False)
            assert len(g) > 100
            got = np.zeros_like(touch)
            pi, pj = lattice_pairs(g.shape)
            got[pi, pj] = got[pj, pi] = True
            assert np.array_equal(got, touch)


class TestKmeans:
    def test_single_cluster(self):
        F = features(np.random.default_rng(0).normal(size=(9, 4)))
        labels, centroids = kmeans(F, 1, seed=0)
        assert np.array_equal(labels, np.zeros(9, dtype=np.int64))
        assert np.allclose(centroids[0], F.T.mean(axis=0))

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, size=(40, 2))
        b = rng.normal(10.0, 1.0, size=(40, 2))
        truth = np.array([0] * 40 + [1] * 40)
        labels, _ = kmeans(features(np.vstack([a, b])), 2, seed=1)
        assert adjusted_rand_index(labels, truth) == 1.0

    def test_identical_columns_collapse(self):
        X = np.ones((6, 3)) * 2.5
        labels, _ = kmeans(features(X), 2, seed=7)
        assert np.array_equal(labels, np.zeros(6, dtype=np.int64))

    def test_assignment_is_the_nearest_centroid_ties_to_the_lowest(self):
        rng = np.random.default_rng(8)
        X, centroids = rng.normal(size=(50, 3)), rng.normal(size=(4, 3))
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(zone_cluster._assign(X, centroids), d2.argmin(axis=1))
        tied = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(zone_cluster._assign(np.zeros((2, 2)), tied), [0, 0])

    def test_deterministic(self):
        F = features(np.random.default_rng(5).normal(size=(30, 3)))
        l1, c1 = kmeans(F, 3, seed=11)
        l2, c2 = kmeans(F, 3, seed=11)
        assert np.array_equal(l1, l2)
        assert np.array_equal(c1, c2)

    def test_labels_in_range(self):
        F = features(np.random.default_rng(9).normal(size=(25, 2)))
        labels, _ = kmeans(F, 4, seed=2)
        assert labels.min() >= 0 and labels.max() < 4

    def test_too_many_clusters_rejected(self):
        F = features(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            kmeans(F, 4, seed=0)


class TestFitGaussians:
    def test_hand_computed(self):
        X = np.array([[0.0, 0.0], [2.0, 4.0], [10.0, 10.0]])
        labels = np.array([0, 0, 1])
        means, variances = fit_gaussians(features(X), labels, 2)
        assert np.allclose(means[0], [1.0, 2.0])
        assert np.allclose(means[1], [10.0, 10.0])
        # one variance pooled over both zones: squared deviations (1, 4),
        # (1, 4) and (0, 0) over 3 points
        assert np.allclose(variances, [[2 / 3, 8 / 3], [2 / 3, 8 / 3]])

    def test_pooled_variance_is_floored(self):
        X = np.array([[0.0, 1.0], [0.0, 1.0], [5.0, 1.0]])
        _, variances = fit_gaussians(features(X), np.array([0, 0, 1]), 2)
        assert np.array_equal(variances, np.full((2, 2), 1e-6))

    def test_empty_label_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            fit_gaussians(features(X), np.zeros(3, dtype=int), 2)


def random_model(rng, c, d, beta):
    means = rng.normal(size=(c, d))
    variances = rng.uniform(0.5, 2.0, size=(c, d))
    return ZoneModel(means=means, variances=variances, beta=beta,
                     labels=np.zeros(0, dtype=np.int64))


class TestEnergy:
    def test_beta_zero_is_nll_sum(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(9, 3))
        model = random_model(rng, 2, 3, beta=0.0)
        labels = rng.integers(0, 2, size=9)
        want = sum(nll_oracle(X[i], model.means[y], model.variances[y])
                   for i, y in enumerate(labels))
        assert energy(labels, features(X), model, (3, 3)) == pytest.approx(want)

    def test_pair_gap_is_two_beta(self):
        X = np.zeros((2, 2))
        model = ZoneModel(means=np.zeros((2, 2)), variances=np.ones((2, 2)),
                          beta=0.7, labels=np.zeros(0, dtype=np.int64))
        same = energy(np.array([0, 0]), features(X), model, (1, 2))
        diff = energy(np.array([0, 1]), features(X), model, (1, 2))
        assert diff - same == pytest.approx(2 * 0.7)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(9, 4))
        model = random_model(rng, 3, 4, beta=1.3)
        for _ in range(5):
            labels = rng.integers(0, 3, size=9)
            want = energy_oracle(labels, X, model.means, model.variances,
                                 model.beta, (3, 3))
            assert energy(labels, features(X), model, (3, 3)) == pytest.approx(want)


LATTICES = [(1, 1), (1, 5), (5, 1), (7, 9), (64, 64)]


def instance(shape, c, beta, seed):
    rng = np.random.default_rng(seed)
    r = shape[0] * shape[1]
    X = rng.normal(size=(r, 2))
    return X, random_model(rng, c, 2, beta), rng.integers(0, c, size=r)


class TestLatticeShapes:
    @pytest.mark.parametrize("shape", LATTICES)
    def test_energy_matches_loop_oracle(self, shape):
        X, model, labels = instance(shape, 3, 0.9, seed=shape[0] * 100 + shape[1])
        want = energy_oracle(labels, X, model.means, model.variances, model.beta, shape)
        assert energy(labels, features(X), model, shape) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shape", LATTICES)
    @pytest.mark.parametrize("beta", [0.3, 2.0])
    def test_icm_result_is_a_fixed_point(self, shape, beta):
        # no single-region change lowers the energy of the labels ICM returns
        for seed in range(3):
            X, model, init = instance(shape, 3, beta, seed)
            F = features(X)
            out = icm_map(init, F, model, shape)
            assert energy(out, F, model, shape) <= energy(init, F, model, shape) + 1e-9
            U = np.stack([[nll_oracle(x, model.means[y], model.variances[y])
                           for y in range(3)] for x in X])
            for i, nbrs in enumerate(neighbors_oracle(shape)):
                agree = np.bincount(out[nbrs], minlength=3)
                local = U[i] + beta * (len(nbrs) - 2.0 * agree)
                assert local[out[i]] <= local.min() + 1e-9

    def test_wrong_shape_rejected(self):
        X, model, labels = instance((3, 4), 2, 1.0, seed=0)
        for call in (lambda: energy(labels, features(X), model, (4, 4)),
                     lambda: icm_map(labels, features(X), model, (2, 5)),
                     lambda: exhaustive_map(features(X), model, (12, 2)),
                     lambda: crf_fit(features(X), (4, 4), c=2)):
            with pytest.raises(ValueError, match="lattice shape"):
                call()


class TestIcm:
    def test_center_flip(self):
        # all-zero field except the flipped center; unaries favor 0 everywhere
        rng = np.random.default_rng(1)
        X = rng.normal(0.0, 0.1, size=(9, 2))
        model = ZoneModel(means=np.array([[0.0, 0.0], [50.0, 50.0]]),
                          variances=np.ones((2, 2)), beta=1.0,
                          labels=np.zeros(0, dtype=np.int64))
        init = np.zeros(9, dtype=np.int64)
        init[4] = 1
        shape = (3, 3)
        out = icm_map(init, features(X), model, shape)
        assert np.array_equal(out, np.zeros(9, dtype=np.int64))
        assert np.array_equal(out, exhaustive_map(features(X), model, shape))

    def test_local_optimum_unchanged(self):
        F, truth, shape = planted_grid(3, 3, sep=8.0, seed=2)
        means, variances = fit_gaussians(F, truth, 2)
        model = ZoneModel(means=means, variances=variances, beta=0.5,
                          labels=np.zeros(0, dtype=np.int64))
        out = icm_map(truth, F, model, shape)
        assert np.array_equal(out, truth)

    def test_beta_zero_is_unary_argmax(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 3))
        model = random_model(rng, 3, 3, beta=0.0)
        shape = (3, 4)
        for trial in range(3):
            init = rng.integers(0, 3, size=12)
            out = icm_map(init, features(X), model, shape)
            want = np.array([int(np.argmin([nll_oracle(X[i], model.means[y],
                                                       model.variances[y])
                                            for y in range(3)]))
                             for i in range(12)])
            assert np.array_equal(out, want)

    def test_energy_never_increases(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(16, 3))
        model = random_model(rng, 3, 3, beta=2.0)
        shape = (4, 4)
        F = features(X)
        init = rng.integers(0, 3, size=16)
        out = icm_map(init, F, model, shape)
        assert energy(out, F, model, shape) <= energy(init, F, model, shape) + 1e-9

    def test_energy_increase_raises(self, monkeypatch):
        # a real exception, so the check survives python -O
        energies = iter([0.0, 1.0])
        monkeypatch.setattr(zone_cluster, "energy", lambda *args: next(energies))
        rng = np.random.default_rng(6)
        model = random_model(rng, 2, 2, beta=1.0)
        F = features(rng.normal(size=(9, 2)))
        with pytest.raises(RuntimeError, match="ICM sweep increased energy 0.0 -> 1.0"):
            icm_map(np.zeros(9, dtype=np.int64), F, model, (3, 3))

    def test_shape_mismatch_rejected(self):
        F = features(np.zeros((4, 2)))
        model = ZoneModel(means=np.zeros((2, 2)), variances=np.ones((2, 2)),
                          beta=1.0, labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            icm_map(np.zeros(3, dtype=int), F, model, (2, 2))


class TestExhaustive:
    def test_matches_full_enumeration_via_energy(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(6, 2))
        model = random_model(rng, 2, 2, beta=0.9)
        shape = (2, 3)
        F = features(X)
        best = exhaustive_map(F, model, shape)
        best_e = energy(best, F, model, shape)
        energies = [energy(np.array(lab), F, model, shape)
                    for lab in itertools.product(range(2), repeat=6)]
        assert best_e == pytest.approx(min(energies))

    def test_size_guard(self):
        F = features(np.zeros((25, 2)))
        model = ZoneModel(means=np.zeros((3, 2)), variances=np.ones((3, 2)),
                          beta=1.0, labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            exhaustive_map(F, model, (5, 5))


class TestCrfFit:
    def test_planted_two_zone_grid(self):
        F, truth, shape = planted_grid(8, 8, sep=5.0, noise=1.0, seed=0,
                                     corrupt_frac=0.05)
        model = crf_fit(F, shape, c=2, beta=1.0, seed=0)
        assert adjusted_rand_index(model.labels, truth) >= 0.9

    def test_beta_zero_fixed_point_is_gaussian_argmax(self):
        F, _, shape = planted_grid(4, 4, sep=3.0, seed=5)
        model = crf_fit(F, shape, c=2, beta=0.0, seed=1)
        X = F.T
        for i in range(X.shape[0]):
            nlls = [nll_oracle(X[i], model.means[y], model.variances[y])
                    for y in range(2)]
            assert model.labels[i] == int(np.argmin(nlls))

    def test_single_region(self):
        F = features(np.array([[1.0, 2.0]]))
        model = crf_fit(F, (1, 1), c=1, beta=1.0, seed=0)
        assert np.array_equal(model.labels, [0])
        assert np.allclose(model.means[0], [1.0, 2.0])
        assert np.allclose(model.variances[0], 1e-6)

    def test_deterministic(self):
        F, _, shape = planted_grid(5, 5, sep=2.0, seed=9)
        m1 = crf_fit(F, shape, c=3, beta=1.0, seed=4)
        m2 = crf_fit(F, shape, c=3, beta=1.0, seed=4)
        assert np.array_equal(m1.labels, m2.labels)
        assert np.array_equal(m1.means, m2.means)

    def test_too_many_zones_rejected(self):
        F = features(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            crf_fit(F, (1, 2), c=3, beta=1.0, seed=0)

    def test_starts_from_the_lowest_inertia_kmeans_run(self, monkeypatch):
        F, _, shape = planted_grid(6, 6, sep=1.0, noise=1.0, seed=7)
        X = F.T
        inertias, starts = [], []
        for s in range(4, 4 + zone_cluster.KMEANS_STARTS):
            labels, centroids = kmeans(F, 3, seed=s)
            inertias.append(float(((X - centroids[labels]) ** 2).sum()))
            starts.append(labels)
        # the labels the first ICM call starts from are the kept start's
        icm_starts = []
        icm = zone_cluster.icm_map
        monkeypatch.setattr(zone_cluster, "icm_map",
                            lambda labels, *a, **kw: icm_starts.append(labels) or
                            icm(labels, *a, **kw))
        stats = crf_fit(F, shape, c=3, beta=1.0, seed=4).stats
        assert stats.start_inertias == pytest.approx(inertias, rel=1e-12)
        assert stats.start == int(np.argmin(inertias))
        assert np.array_equal(icm_starts[0], starts[stats.start])

    def test_window_means_match_a_direct_average(self):
        X = np.random.default_rng(2).normal(size=(5 * 7, 3))
        G = X.reshape(5, 7, 3)
        for radius in (0, 1, 2, 9):
            expect = np.array([
                G[max(i - radius, 0):i + radius + 1,
                  max(j - radius, 0):j + radius + 1].mean(axis=(0, 1))
                for i in range(5) for j in range(7)])
            assert np.allclose(window_means(X, (5, 7), radius), expect, rtol=1e-12)

    def test_window_means_start_recovers_weakly_separated_quadrants(self, monkeypatch):
        # four 16x16 quadrants whose means lie 0.75 noise sd apart per
        # axis: single regions overlap, their 5x5 window means do not
        def ari_per_seed():
            aris = []
            for seed in range(5):
                rng = np.random.default_rng(seed)
                rows, cols = np.divmod(np.arange(32 * 32), 32)
                truth = 2 * (rows >= 16) + (cols >= 16)
                X = 0.75 * np.eye(4)[truth] + rng.normal(0.0, 1.0, (32 * 32, 4))
                model = crf_fit(features(X), (32, 32), c=4, beta=1.0, seed=seed)
                aris.append(adjusted_rand_index(model.labels, truth))
            return aris
        assert min(ari_per_seed()) >= 0.85
        # starting from the regions' own features instead
        monkeypatch.setattr(zone_cluster, "START_WINDOW_DIVISOR", 10 ** 6)
        assert min(ari_per_seed()) < 0.75

    def test_converges_when_icm_empties_a_zone_every_round(self, monkeypatch):
        # beta 5 on a 4x4 grid of one blob: ICM puts every region in one
        # zone, and the region re-seeded into the other is pulled back
        X = np.random.default_rng(0).normal(0.0, 1.0, (16, 2))
        outputs = []
        icm = zone_cluster.icm_map
        monkeypatch.setattr(zone_cluster, "icm_map",
                            lambda *a, **kw: outputs.append(icm(*a, **kw)) or outputs[-1])
        stats = crf_fit(features(X), (4, 4), c=2, beta=5.0, seed=0).stats
        assert all(np.bincount(labels, minlength=2).min() == 0 for labels in outputs)
        assert stats.stop_reason == "converged"
        assert stats.em_rounds == 2

    def test_reaches_exhaustive_minimum_on_separated_instances(self):
        hits = 0
        for seed in range(10):
            F, _, shape = planted_grid(3, 3, sep=5.0, noise=1.0, seed=seed)
            model = crf_fit(F, shape, c=2, beta=1.0, seed=seed)
            e_fit = energy(model.labels, F, model, shape)
            e_best = energy(exhaustive_map(F, model, shape), F, model, shape)
            assert e_fit >= e_best - 1e-9
            if e_fit <= e_best + 1e-9:
                hits += 1
            init, _ = kmeans(F, 2, seed=seed)
            means, variances = fit_gaussians(F, init, 2)
            init_model = ZoneModel(means=means, variances=variances, beta=1.0,
                                   labels=init)
            assert e_fit <= energy(init, F, init_model, shape) + 1e-9
        assert hits >= 9

    def test_label_permutation_leaves_energy_unchanged(self):
        F, _, shape = planted_grid(4, 4, sep=3.0, seed=6)
        model = crf_fit(F, shape, c=3, beta=1.5, seed=2)
        perm = np.array([2, 0, 1])
        permuted = ZoneModel(means=model.means[np.argsort(perm)],
                             variances=model.variances[np.argsort(perm)],
                             beta=model.beta, labels=perm[model.labels])
        e0 = energy(model.labels, F, model, shape)
        e1 = energy(permuted.labels, F, permuted, shape)
        assert e1 == pytest.approx(e0)

    def test_smoothing_monotone_in_beta(self):
        F, _, shape = planted_grid(6, 6, sep=2.0, noise=1.0, seed=3,
                                 corrupt_frac=0.1)
        pi, pj = lattice_pairs(shape)
        cuts = []
        for beta in (0.0, 1.0, 10.0):
            model = crf_fit(F, shape, c=2, beta=beta, seed=0)
            cuts.append(int((model.labels[pi] != model.labels[pj]).sum()))
        assert cuts[0] >= cuts[1] >= cuts[2]


class TestAdjustedRandIndex:
    def ari_oracle(self, a, b):
        """Pair-counting ARI, independent of the contingency-table route."""
        n = len(a)
        together_a = together_b = together_both = 0
        for i in range(n):
            for j in range(i + 1, n):
                sa = a[i] == a[j]
                sb = b[i] == b[j]
                together_a += sa
                together_b += sb
                together_both += sa and sb
        total = n * (n - 1) / 2
        expected = together_a * together_b / total
        max_index = (together_a + together_b) / 2
        if max_index == expected:
            return 1.0
        return (together_both - expected) / (max_index - expected)

    def test_identical(self):
        assert adjusted_rand_index([0, 1, 1, 2], [0, 1, 1, 2]) == 1.0

    def test_permutation_invariant(self):
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.integers(0, 4, size=30)
            b = rng.integers(0, 3, size=30)
            assert adjusted_rand_index(a, b) == pytest.approx(
                self.ari_oracle(a.tolist(), b.tolist()))

    def test_degenerate_cases(self):
        assert adjusted_rand_index([0, 0, 0], [0, 0, 0]) == 1.0
        assert adjusted_rand_index([0, 0, 0], [0, 1, 2]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])


class TestPersistence:
    def test_labels_round_trip(self, tmp_path):
        codes = enumerate_cells(Box(10.0, 20.0, 10.1, 20.1), 5).codes
        labels = np.arange(len(codes), dtype=np.int64) % 3
        path = tmp_path / "labels.csv"
        save_labels(path, codes, labels)
        loaded_codes, loaded = load_labels(path)
        assert loaded_codes == codes
        assert np.array_equal(loaded, labels)

    def test_labels_bytes_match_csv_writer(self, tmp_path):
        codes = enumerate_cells(Box(35.70, -78.70, 35.80, -78.55), 6).codes
        labels = np.arange(len(codes), dtype=np.int64) % 7
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["geohash", "column_index", "label"])
        for i, code in enumerate(codes):
            w.writerow([code, i, int(labels[i])])
        path = tmp_path / "labels.csv"
        save_labels(path, codes, labels)
        assert path.read_bytes() == want.getvalue().encode()

    def test_labels_length_mismatch_rejected(self, tmp_path):
        codes = enumerate_cells(Box(10.0, 20.0, 10.1, 20.1), 5).codes
        with pytest.raises(ValueError):
            save_labels(tmp_path / "x.csv", codes, np.zeros(1, dtype=int))

    def test_labels_order_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("geohash,column_index,label\nu4pr,1,0\n")
        with pytest.raises(ValueError):
            load_labels(path)

    def test_model_round_trip(self, tmp_path):
        F, _, shape = planted_grid(3, 3, sep=4.0, seed=12)
        model = crf_fit(F, shape, c=2, beta=0.8, seed=3)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ZoneModel.load(path)
        assert np.allclose(loaded.means, model.means)
        assert np.allclose(loaded.variances, model.variances)
        assert loaded.beta == model.beta
        assert np.array_equal(loaded.labels, model.labels)
