"""Spatially regularized clustering of region features into zones.

Region feature columns are clustered with Gaussian emissions plus a Potts
pair potential over the 8-neighbor grid adjacency: an unordered neighbor
pair contributes -beta when the labels agree and +beta when they differ,
so lower energy means smoother label fields.  Inference is iterated
conditional modes from a k-means start, alternating with Gaussian refits
(hard EM) until the labeling is stable.  An exhaustive minimizer over all
labelings is included for small grids so the local search can be audited.
"""
from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .geo_grid import CellId
from .poi_ingest import FeatureMatrix

logger = logging.getLogger(__name__)

VARIANCE_FLOOR = 1e-6
# iteration caps of k-means, of ICM sweeps and of hard-EM rounds
KMEANS_MAX_ITER = 100
ICM_MAX_SWEEPS = 100
CRF_MAX_ROUNDS = 50

EXHAUSTIVE_LIMIT = 2_000_000


@dataclass
class Adjacency:
    """Per-region neighbor index lists; symmetric by construction."""

    neighbors: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.neighbors)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Unordered neighbor pairs as (i, j) arrays with i < j."""
        pi = np.repeat(np.arange(len(self.neighbors), dtype=np.int64),
                       [len(n) for n in self.neighbors])
        pj = np.concatenate([np.empty(0, dtype=np.int64), *self.neighbors])
        keep = pi < pj
        return pi[keep], pj[keep]


# (row, col) offsets of the 8 neighbors, in increasing row-major index order
_OFFSETS = np.array([(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                     if dr or dc], dtype=np.int64)


def lattice_adjacency(n_rows: int, n_cols: int) -> Adjacency:
    """8-neighbor adjacency of a row-major n_rows x n_cols lattice, such as
    a GridIndex of that shape.

    Each region's neighbor indices come out sorted.  Longitude does not
    wrap: a grid spanning all 360 degrees has no neighbors across 180.
    """
    rows, cols = np.divmod(np.arange(n_rows * n_cols, dtype=np.int64), n_cols)
    rr = rows[:, None] + _OFFSETS[:, 0]
    cc = cols[:, None] + _OFFSETS[:, 1]
    inside = (rr >= 0) & (rr < n_rows) & (cc >= 0) & (cc < n_cols)
    flat = (rr * n_cols + cc)[inside]
    return Adjacency(neighbors=np.split(flat, np.cumsum(inside.sum(axis=1))[:-1]))


@dataclass
class ZoneModel:
    """Per-zone Gaussian parameters, smoothing weight, and the labeling."""

    means: np.ndarray      # c x d
    variances: np.ndarray  # c x d, diagonal, floored
    beta: float
    labels: np.ndarray     # region labels, shape (r,)

    @property
    def n_zones(self) -> int:
        return self.means.shape[0]

    def save(self, path) -> None:
        payload = {"beta": self.beta, "n_zones": int(self.n_zones),
                   "means": self.means.tolist(),
                   "variances": self.variances.tolist(),
                   "labels": [int(x) for x in self.labels]}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ZoneModel":
        with open(path) as fh:
            payload = json.load(fh)
        return cls(means=np.asarray(payload["means"], dtype=np.float64),
                   variances=np.asarray(payload["variances"], dtype=np.float64),
                   beta=float(payload["beta"]),
                   labels=np.asarray(payload["labels"], dtype=np.int64))


def _points(F) -> np.ndarray:
    """Region vectors as rows, from a FeatureMatrix or a d x r array."""
    M = F.F if isinstance(F, FeatureMatrix) else np.asarray(F, dtype=np.float64)
    return np.ascontiguousarray(M.T, dtype=np.float64)


def kmeans(F, c: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd k-means on region columns with k-means++ seeding.

    Assignment ties break to the lowest label and clusters emptied during
    an update are re-seeded from the point farthest from its centroid, so
    the result is deterministic given the seed.

    Returns (labels, centroids).
    """
    X = _points(F)
    n, d = X.shape
    if not 1 <= c <= n:
        raise ValueError(f"cluster count {c} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    centroids = np.empty((c, d))
    centroids[0] = X[int(rng.integers(n))]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, c):
        s = float(d2.sum())
        if s > 0.0:
            idx = int(rng.choice(n, p=d2 / s))
        else:
            idx = int(rng.integers(n))
        centroids[j] = X[idx]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))

    labels = _assign(X, centroids)
    for _ in range(KMEANS_MAX_ITER):
        centroids = _update_centroids(X, labels, centroids, c)
        new_labels = _assign(X, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centroids


def _assign(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1).astype(np.int64)


def _update_centroids(X, labels, centroids, c):
    out = centroids.copy()
    counts = np.bincount(labels, minlength=c)
    for j in range(c):
        if counts[j] > 0:
            out[j] = X[labels == j].mean(axis=0)
    empties = [j for j in range(c) if counts[j] == 0]
    if empties:
        dist = ((X - out[labels]) ** 2).sum(axis=1)
        for j in empties:
            far = int(np.argmax(dist))
            out[j] = X[far]
            dist[far] = -1.0
    return out


def fit_gaussians(F, labels: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-label mean and floored diagonal variance (labels must be nonempty)."""
    X = _points(F)
    d = X.shape[1]
    means = np.zeros((c, d))
    variances = np.full((c, d), VARIANCE_FLOOR)
    for j in range(c):
        members = X[labels == j]
        if members.shape[0] == 0:
            raise ValueError(f"label {j} has no members")
        means[j] = members.mean(axis=0)
        variances[j] = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
    return means, variances


def _unary(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Negative log density of each point under each zone Gaussian, (r x c)."""
    r = X.shape[0]
    c = means.shape[0]
    out = np.empty((r, c))
    for j in range(c):
        v = variances[j]
        quad = ((X - means[j]) ** 2 / v).sum(axis=1)
        out[:, j] = 0.5 * (np.log(2.0 * math.pi * v).sum() + quad)
    return out


def energy(labels: np.ndarray, F, model: ZoneModel, adj: Adjacency) -> float:
    """Total labeling energy: Gaussian negative log likelihoods plus the
    Potts pair sum (equal neighbors -beta, unequal +beta)."""
    labels = np.asarray(labels, dtype=np.int64)
    X = _points(F)
    U = _unary(X, model.means, model.variances)
    unary = float(U[np.arange(X.shape[0]), labels].sum())
    pi, pj = adj.pairs()
    same = labels[pi] == labels[pj]
    pair = float(model.beta * (1.0 - 2.0 * same).sum())
    return unary + pair


def icm_map(labels, F, model: ZoneModel, adj: Adjacency) -> np.ndarray:
    """Iterated conditional modes from an initial labeling.

    Regions are visited in fixed index order; each takes the label
    minimizing its unary term plus beta * (degree - 2 * agreeing
    neighbors), ties to the lowest label.  Sweeps stop when nothing
    changes.  A sweep that increases the energy raises RuntimeError.
    """
    labels = np.asarray(labels, dtype=np.int64).copy()
    X = _points(F)
    r = X.shape[0]
    if labels.shape != (r,):
        raise ValueError(f"labels shape {labels.shape} does not match {r} regions")
    c = model.n_zones
    U = _unary(X, model.means, model.variances)
    beta = model.beta
    prev_energy = energy(labels, F, model, adj)
    for _ in range(ICM_MAX_SWEEPS):
        changed = False
        for i in range(r):
            nbrs = adj.neighbors[i]
            if nbrs.size:
                counts = np.bincount(labels[nbrs], minlength=c)
                pair = beta * (nbrs.size - 2.0 * counts)
            else:
                pair = 0.0
            new = int(np.argmin(U[i] + pair))
            if new != labels[i]:
                labels[i] = new
                changed = True
        cur_energy = energy(labels, F, model, adj)
        if cur_energy > prev_energy + 1e-9:
            raise RuntimeError(
                f"ICM sweep increased energy {prev_energy} -> {cur_energy}")
        prev_energy = cur_energy
        if not changed:
            break
    return labels


def crf_fit(F, adj: Adjacency, c: int, beta: float = 1.0, seed: int = 0) -> ZoneModel:
    """Hard-EM zone fit: k-means start, Gaussian refit, ICM, repeat.

    Labels emptied between rounds are re-seeded from the point farthest
    from its zone mean, mirroring the k-means rule.  Stops when a round
    leaves the labeling unchanged or after CRF_MAX_ROUNDS.
    """
    X = _points(F)
    r = X.shape[0]
    if not 1 <= c <= r:
        raise ValueError(f"zone count {c} outside [1, {r}]")
    labels, _ = kmeans(F, c, seed=seed)
    model = None
    for _ in range(CRF_MAX_ROUNDS):
        labels, model = _refit(X, labels, c, beta)
        new_labels = icm_map(labels, F, model, adj)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    labels, model = _refit(X, labels, c, beta)
    model.labels = labels
    return model


def _refit(X, labels, c, beta):
    """M-step on raw points: re-seed empty labels, then fit Gaussians."""
    labels = labels.copy()
    counts = np.bincount(labels, minlength=c)
    empties = [j for j in range(c) if counts[j] == 0]
    if empties:
        means = _update_centroids(X, labels, np.zeros((c, X.shape[1])), c)
        dist = ((X - means[labels]) ** 2).sum(axis=1)
        for j in empties:
            far = int(np.argmax(dist))
            labels[far] = j
            dist[far] = -1.0
    means, variances = fit_gaussians(X.T, labels, c)
    return labels, ZoneModel(means=means, variances=variances, beta=beta,
                             labels=labels)


def exhaustive_map(F, model: ZoneModel, adj: Adjacency) -> np.ndarray:
    """Global energy minimizer by enumeration; only viable for tiny grids."""
    X = _points(F)
    r = X.shape[0]
    c = model.n_zones
    if c ** r > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{c}^{r} labelings exceed the enumeration limit")
    U = _unary(X, model.means, model.variances)
    pi, pj = adj.pairs()
    all_labels = np.array(list(itertools.product(range(c), repeat=r)), dtype=np.int64)
    unary = U[np.arange(r), all_labels].sum(axis=1)
    if pi.size:
        same = all_labels[:, pi] == all_labels[:, pj]
        pair = model.beta * (1.0 - 2.0 * same).sum(axis=1)
    else:
        pair = 0.0
    return all_labels[int(np.argmin(unary + pair))].copy()


def adjusted_rand_index(a, b) -> float:
    """Adjusted Rand index between two labelings of the same regions."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError("labelings differ in length")
    n = a.size
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    C = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(C, (ia, ib), 1)

    def comb2(x):
        x = np.asarray(x, dtype=np.float64)
        return (x * (x - 1.0) / 2.0).sum()

    sum_ij = comb2(C)
    sum_a = comb2(C.sum(axis=1))
    sum_b = comb2(C.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def save_labels(path, cells: list[CellId], labels: np.ndarray) -> None:
    if len(cells) != len(labels):
        raise ValueError("cell list and labels differ in length")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["geohash", "column_index", "label"])
        for i, cell in enumerate(cells):
            w.writerow([cell.code, i, int(labels[i])])


def load_labels(path) -> tuple[list[str], np.ndarray]:
    codes: list[str] = []
    labels: list[int] = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            if int(row["column_index"]) != i:
                raise ValueError(f"{path}: column_index out of order at row {i}")
            codes.append(row["geohash"])
            labels.append(int(row["label"]))
    return codes, np.asarray(labels, dtype=np.int64)
