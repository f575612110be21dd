import itertools
import math

import numpy as np
import pytest

from zonefuse import zone_cluster
from zonefuse.geo_grid import Box, GridIndex, cell_spans, decode, enumerate_cells
from zonefuse.poi_ingest import FeatureMatrix
from zonefuse.zone_cluster import (
    Adjacency,
    ZoneModel,
    adjusted_rand_index,
    crf_fit,
    energy,
    exhaustive_map,
    fit_gaussians,
    icm_map,
    kmeans,
    lattice_adjacency,
    load_labels,
    save_labels,
)


def features(X: np.ndarray) -> FeatureMatrix:
    """Wrap row-per-region points as a feature matrix (columns = regions)."""
    return FeatureMatrix(F=np.asarray(X, dtype=np.float64).T, kind="latent_v")


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
    return features(X), truth, lattice_adjacency(n_rows, n_cols)


def nll_oracle(x, mean, var):
    """Independent per-point Gaussian negative log density."""
    total = 0.0
    for xi, mi, vi in zip(x, mean, var):
        total += 0.5 * math.log(2.0 * math.pi * vi) + (xi - mi) ** 2 / (2.0 * vi)
    return total


def energy_oracle(labels, X, means, variances, beta, adj):
    """Loop-based energy evaluation used to audit energy()."""
    total = 0.0
    for i, y in enumerate(labels):
        total += nll_oracle(X[i], means[y], variances[y])
    for i, nbrs in enumerate(adj.neighbors):
        for j in nbrs:
            if i < j:
                total += beta * (1.0 - 2.0 * (labels[i] == labels[j]))
    return total


class TestAdjacency:
    def test_lattice_degrees(self):
        adj = lattice_adjacency(3, 3)
        degrees = [len(n) for n in adj.neighbors]
        assert degrees == [3, 5, 3, 5, 8, 5, 3, 5, 3]

    def test_lattice_symmetric_no_self_loops(self):
        adj = lattice_adjacency(4, 5)
        for i, nbrs in enumerate(adj.neighbors):
            assert i not in nbrs
            for j in nbrs:
                assert i in adj.neighbors[j]

    def test_pairs_unordered_once(self):
        adj = lattice_adjacency(3, 3)
        pi, pj = adj.pairs()
        assert np.all(pi < pj)
        # 3x3 lattice has 12 rook edges + 8 diagonal edges
        assert pi.size == 20
        assert len({(a, b) for a, b in zip(pi, pj)}) == pi.size

    def test_grid_adjacency_matches_lattice(self):
        grid = enumerate_cells(Box(10.0, 20.0, 10.15, 20.2), 5)
        boxes = [decode(c) for c in grid.cells]
        lat_mins = sorted({b.min_lat for b in boxes})
        lon_mins = sorted({b.min_lon for b in boxes})
        n_rows, n_cols = len(lat_mins), len(lon_mins)
        assert n_rows * n_cols == len(grid.cells)
        assert grid.shape == (n_rows, n_cols)
        got = lattice_adjacency(*grid.shape)
        want = lattice_adjacency(n_rows, n_cols)
        assert len(got) == len(want)
        for a, b in zip(got.neighbors, want.neighbors):
            assert np.array_equal(a, b)

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
                              for b in map(decode, g.cells)])
            lo, hi = boxes[:, None, :2], boxes[:, None, 2:]
            gap = np.maximum(lo, lo.transpose(1, 0, 2)) - np.minimum(hi, hi.transpose(1, 0, 2))
            touch = (gap[..., 0] <= 1e-9 * lat_span) & (gap[..., 1] <= 1e-9 * lon_span)
            np.fill_diagonal(touch, False)
            got = lattice_adjacency(*g.shape).neighbors
            assert len(got) == len(g) > 100
            for i, nbrs in enumerate(got):
                assert np.array_equal(nbrs, np.flatnonzero(touch[i]))


class TestKmeans:
    def test_single_cluster(self):
        F = features(np.random.default_rng(0).normal(size=(9, 4)))
        labels, centroids = kmeans(F, 1, seed=0)
        assert np.array_equal(labels, np.zeros(9, dtype=np.int64))
        assert np.allclose(centroids[0], F.F.T.mean(axis=0))

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
        assert np.allclose(variances[0], [1.0, 4.0])
        assert np.allclose(means[1], [10.0, 10.0])
        # single member has zero variance, so the floor applies
        assert np.allclose(variances[1], [1e-6, 1e-6])

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
        adj = lattice_adjacency(3, 3)
        want = sum(nll_oracle(X[i], model.means[y], model.variances[y])
                   for i, y in enumerate(labels))
        assert energy(labels, features(X), model, adj) == pytest.approx(want)

    def test_pair_gap_is_two_beta(self):
        X = np.zeros((2, 2))
        model = ZoneModel(means=np.zeros((2, 2)), variances=np.ones((2, 2)),
                          beta=0.7, labels=np.zeros(0, dtype=np.int64))
        adj = Adjacency(neighbors=[np.array([1]), np.array([0])])
        same = energy(np.array([0, 0]), features(X), model, adj)
        diff = energy(np.array([0, 1]), features(X), model, adj)
        assert diff - same == pytest.approx(2 * 0.7)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(9, 4))
        model = random_model(rng, 3, 4, beta=1.3)
        adj = lattice_adjacency(3, 3)
        for _ in range(5):
            labels = rng.integers(0, 3, size=9)
            want = energy_oracle(labels, X, model.means, model.variances,
                                 model.beta, adj)
            assert energy(labels, features(X), model, adj) == pytest.approx(want)


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
        adj = lattice_adjacency(3, 3)
        out = icm_map(init, features(X), model, adj)
        assert np.array_equal(out, np.zeros(9, dtype=np.int64))
        assert np.array_equal(out, exhaustive_map(features(X), model, adj))

    def test_local_optimum_unchanged(self):
        F, truth, adj = planted_grid(3, 3, sep=8.0, seed=2)
        means, variances = fit_gaussians(F, truth, 2)
        model = ZoneModel(means=means, variances=variances, beta=0.5,
                          labels=np.zeros(0, dtype=np.int64))
        out = icm_map(truth, F, model, adj)
        assert np.array_equal(out, truth)

    def test_beta_zero_is_unary_argmax(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 3))
        model = random_model(rng, 3, 3, beta=0.0)
        adj = lattice_adjacency(3, 4)
        for trial in range(3):
            init = rng.integers(0, 3, size=12)
            out = icm_map(init, features(X), model, adj)
            want = np.array([int(np.argmin([nll_oracle(X[i], model.means[y],
                                                       model.variances[y])
                                            for y in range(3)]))
                             for i in range(12)])
            assert np.array_equal(out, want)

    def test_energy_never_increases(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(16, 3))
        model = random_model(rng, 3, 3, beta=2.0)
        adj = lattice_adjacency(4, 4)
        F = features(X)
        init = rng.integers(0, 3, size=16)
        out = icm_map(init, F, model, adj)
        assert energy(out, F, model, adj) <= energy(init, F, model, adj) + 1e-9

    def test_energy_increase_raises(self, monkeypatch):
        # a real exception, so the check survives python -O
        energies = iter([0.0, 1.0])
        monkeypatch.setattr(zone_cluster, "energy", lambda *args: next(energies))
        rng = np.random.default_rng(6)
        model = random_model(rng, 2, 2, beta=1.0)
        F = features(rng.normal(size=(9, 2)))
        with pytest.raises(RuntimeError, match="ICM sweep increased energy 0.0 -> 1.0"):
            icm_map(np.zeros(9, dtype=np.int64), F, model, lattice_adjacency(3, 3))

    def test_shape_mismatch_rejected(self):
        F = features(np.zeros((4, 2)))
        model = ZoneModel(means=np.zeros((2, 2)), variances=np.ones((2, 2)),
                          beta=1.0, labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            icm_map(np.zeros(3, dtype=int), F, model, lattice_adjacency(2, 2))


class TestExhaustive:
    def test_matches_full_enumeration_via_energy(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(6, 2))
        model = random_model(rng, 2, 2, beta=0.9)
        adj = lattice_adjacency(2, 3)
        F = features(X)
        best = exhaustive_map(F, model, adj)
        best_e = energy(best, F, model, adj)
        energies = [energy(np.array(lab), F, model, adj)
                    for lab in itertools.product(range(2), repeat=6)]
        assert best_e == pytest.approx(min(energies))

    def test_size_guard(self):
        F = features(np.zeros((25, 2)))
        model = ZoneModel(means=np.zeros((3, 2)), variances=np.ones((3, 2)),
                          beta=1.0, labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            exhaustive_map(F, model, lattice_adjacency(5, 5))


class TestCrfFit:
    def test_planted_two_zone_grid(self):
        F, truth, adj = planted_grid(8, 8, sep=5.0, noise=1.0, seed=0,
                                     corrupt_frac=0.05)
        model = crf_fit(F, adj, c=2, beta=1.0, seed=0)
        assert adjusted_rand_index(model.labels, truth) >= 0.9

    def test_beta_zero_fixed_point_is_gaussian_argmax(self):
        F, _, adj = planted_grid(4, 4, sep=3.0, seed=5)
        model = crf_fit(F, adj, c=2, beta=0.0, seed=1)
        X = F.F.T
        for i in range(X.shape[0]):
            nlls = [nll_oracle(X[i], model.means[y], model.variances[y])
                    for y in range(2)]
            assert model.labels[i] == int(np.argmin(nlls))

    def test_single_region(self):
        F = features(np.array([[1.0, 2.0]]))
        model = crf_fit(F, Adjacency(neighbors=[np.zeros(0, dtype=np.int64)]),
                        c=1, beta=1.0, seed=0)
        assert np.array_equal(model.labels, [0])
        assert np.allclose(model.means[0], [1.0, 2.0])
        assert np.allclose(model.variances[0], 1e-6)

    def test_deterministic(self):
        F, _, adj = planted_grid(5, 5, sep=2.0, seed=9)
        m1 = crf_fit(F, adj, c=3, beta=1.0, seed=4)
        m2 = crf_fit(F, adj, c=3, beta=1.0, seed=4)
        assert np.array_equal(m1.labels, m2.labels)
        assert np.array_equal(m1.means, m2.means)

    def test_too_many_zones_rejected(self):
        F = features(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            crf_fit(F, Adjacency(neighbors=[np.zeros(0, dtype=np.int64)] * 2),
                    c=3, beta=1.0, seed=0)

    def test_reaches_exhaustive_minimum_on_separated_instances(self):
        hits = 0
        for seed in range(10):
            F, _, adj = planted_grid(3, 3, sep=5.0, noise=1.0, seed=seed)
            model = crf_fit(F, adj, c=2, beta=1.0, seed=seed)
            e_fit = energy(model.labels, F, model, adj)
            e_best = energy(exhaustive_map(F, model, adj), F, model, adj)
            assert e_fit >= e_best - 1e-9
            if e_fit <= e_best + 1e-9:
                hits += 1
            init, _ = kmeans(F, 2, seed=seed)
            means, variances = fit_gaussians(F, init, 2)
            init_model = ZoneModel(means=means, variances=variances, beta=1.0,
                                   labels=init)
            assert e_fit <= energy(init, F, init_model, adj) + 1e-9
        assert hits >= 9

    def test_label_permutation_leaves_energy_unchanged(self):
        F, _, adj = planted_grid(4, 4, sep=3.0, seed=6)
        model = crf_fit(F, adj, c=3, beta=1.5, seed=2)
        perm = np.array([2, 0, 1])
        permuted = ZoneModel(means=model.means[np.argsort(perm)],
                             variances=model.variances[np.argsort(perm)],
                             beta=model.beta, labels=perm[model.labels])
        e0 = energy(model.labels, F, model, adj)
        e1 = energy(permuted.labels, F, permuted, adj)
        assert e1 == pytest.approx(e0)

    def test_smoothing_monotone_in_beta(self):
        F, _, adj = planted_grid(6, 6, sep=2.0, noise=1.0, seed=3,
                                 corrupt_frac=0.1)
        pi, pj = adj.pairs()
        cuts = []
        for beta in (0.0, 1.0, 10.0):
            model = crf_fit(F, adj, c=2, beta=beta, seed=0)
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
        cells = enumerate_cells(Box(10.0, 20.0, 10.1, 20.1), 5).cells
        labels = np.arange(len(cells), dtype=np.int64) % 3
        path = tmp_path / "labels.csv"
        save_labels(path, cells, labels)
        codes, loaded = load_labels(path)
        assert codes == [c.code for c in cells]
        assert np.array_equal(loaded, labels)

    def test_labels_length_mismatch_rejected(self, tmp_path):
        cells = enumerate_cells(Box(10.0, 20.0, 10.1, 20.1), 5).cells
        with pytest.raises(ValueError):
            save_labels(tmp_path / "x.csv", cells, np.zeros(1, dtype=int))

    def test_labels_order_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("geohash,column_index,label\nu4pr,1,0\n")
        with pytest.raises(ValueError):
            load_labels(path)

    def test_model_round_trip(self, tmp_path):
        F, _, adj = planted_grid(3, 3, sep=4.0, seed=12)
        model = crf_fit(F, adj, c=2, beta=0.8, seed=3)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ZoneModel.load(path)
        assert np.allclose(loaded.means, model.means)
        assert np.allclose(loaded.variances, model.variances)
        assert loaded.beta == model.beta
        assert np.array_equal(loaded.labels, model.labels)
