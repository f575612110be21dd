"""Spatially regularized clustering of region features into zones.

Region feature columns are clustered with Gaussian emissions plus a Potts
pair potential over the 8-neighbor lattice of the grid: an unordered
neighbor pair contributes -beta when the labels agree and +beta when they
differ, so lower energy means smoother label fields.  The lattice is given
by its shape (n_rows, n_cols), regions row-major, and its pairs are
slices of the label grid.  Inference is iterated conditional modes from a
k-means start, one numpy step per coding set of the lattice (Besag 1986),
alternating with Gaussian refits (hard EM) until the labeling is stable.
The zones share one pooled diagonal variance, and the start is the
k-means run of lowest inertia among KMEANS_STARTS seeds on window means.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

VARIANCE_FLOOR = 1e-6
# iteration caps of k-means, of ICM sweeps and of hard-EM rounds
KMEANS_MAX_ITER = 100
ICM_MAX_SWEEPS = 100
CRF_MAX_ROUNDS = 50
# k-means runs, seeds seed..seed + KMEANS_STARTS - 1, crf_fit starts from
KMEANS_STARTS = 5
# the k-means starts average each region over the lattice window of radius
# min(n_rows, n_cols) // START_WINDOW_DIVISOR around it: 0 below 16 rows
START_WINDOW_DIVISOR = 16

# the coding sets of the 8-neighbor lattice, by (row % 2, col % 2), in
# update order: no two cells of one set are neighbors
_CODING_SETS = ((0, 0), (0, 1), (1, 0), (1, 1))
# (row, col) offsets of the 8 neighbors
_OFFSETS = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc)


def neighbor_pairs(grid: np.ndarray):
    """The unordered 8-neighbor pairs of a lattice whose (row, col) are the
    last two axes of `grid`, as four (a, b) pairs of views, one per forward
    offset (0, 1), (1, -1), (1, 0), (1, 1): a[..., i, j] and b[..., i, j]
    are the values of two neighboring cells, and each unordered pair
    appears once.  Longitude does not wrap: a grid spanning all 360
    degrees has no neighbors across 180.
    """
    yield grid[..., :, :-1], grid[..., :, 1:]
    yield grid[..., :-1, 1:], grid[..., 1:, :-1]
    yield grid[..., :-1, :], grid[..., 1:, :]
    yield grid[..., :-1, :-1], grid[..., 1:, 1:]


def _lattice(shape, r: int) -> tuple[int, int]:
    """The (n_rows, n_cols) lattice shape, checked to hold r regions."""
    n_rows, n_cols = (int(n) for n in shape)
    if n_rows < 1 or n_cols < 1 or n_rows * n_cols != r:
        raise ValueError(f"lattice shape {tuple(shape)} does not hold {r} regions")
    return n_rows, n_cols


@dataclass
class CrfStats:
    """What one crf_fit did: its EM rounds, the ICM sweeps of all rounds,
    the energy of the labels it returns, why it stopped (converged,
    max_rounds when EM reached CRF_MAX_ROUNDS, or max_sweeps when an ICM
    call reached ICM_MAX_SWEEPS), each k-means start's inertia on the
    window means and the index of the start kept."""

    em_rounds: int = 0
    icm_sweeps: int = 0
    energy: float = math.nan
    stop_reason: str = "converged"
    start_inertias: list[float] = field(default_factory=list)
    start: int = 0


@dataclass
class ZoneModel:
    """Per-zone Gaussian parameters, smoothing weight, and the labeling."""

    means: np.ndarray      # c x d
    variances: np.ndarray  # c x d, diagonal, floored; crf_fit's rows are equal
    beta: float
    labels: np.ndarray     # region labels, shape (r,)
    stats: CrfStats | None = None  # set by crf_fit; not saved

    @property
    def n_zones(self) -> int:
        return self.means.shape[0]

    def save(self, path) -> None:
        payload = {"beta": self.beta, "n_zones": int(self.n_zones),
                   "means": self.means.tolist(),
                   "variances": self.variances.tolist(),
                   "labels": [int(x) for x in self.labels]}
        # one-shot dumps runs the C encoder; dump never does
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "ZoneModel":
        with open(path) as fh:
            payload = json.load(fh)
        return cls(means=np.asarray(payload["means"], dtype=np.float64),
                   variances=np.asarray(payload["variances"], dtype=np.float64),
                   beta=float(payload["beta"]),
                   labels=np.asarray(payload["labels"], dtype=np.int64))


def _points(F) -> np.ndarray:
    """Region vectors as rows, from d x r features."""
    return np.ascontiguousarray(np.asarray(F, dtype=np.float64).T)


def window_means(X: np.ndarray, shape, radius: int) -> np.ndarray:
    """Each row of X, a region in row-major lattice order, averaged over
    the regions within `radius` rows and columns of it, the window clipped
    at the lattice border, from one summed-area table."""
    if radius == 0:
        return X
    n_rows, n_cols = shape
    table = np.zeros((n_rows + 1, n_cols + 1, X.shape[1]))
    table[1:, 1:] = X.reshape(n_rows, n_cols, -1).cumsum(axis=0).cumsum(axis=1)
    rows, cols = np.arange(n_rows), np.arange(n_cols)
    r_lo, r_hi = np.maximum(rows - radius, 0), np.minimum(rows + radius + 1, n_rows)
    c_lo, c_hi = np.maximum(cols - radius, 0), np.minimum(cols + radius + 1, n_cols)
    sums = (table[r_hi][:, c_hi] - table[r_lo][:, c_hi]
            - table[r_hi][:, c_lo] + table[r_lo][:, c_lo])
    sums /= np.outer(r_hi - r_lo, c_hi - c_lo)[..., None]
    return sums.reshape(X.shape)


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
    # |x - c|^2 less the |x|^2 every label shares, by one GEMM
    d2 = (centroids * centroids).sum(axis=1) - 2.0 * (X @ centroids.T)
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
    """Per-label means and one floored diagonal variance pooled over all
    labels, the mean squared deviation from each point's own label mean,
    tiled to c x d (labels must be nonempty)."""
    X = _points(F)
    means = np.zeros((c, X.shape[1]))
    for j in range(c):
        members = X[labels == j]
        if members.shape[0] == 0:
            raise ValueError(f"label {j} has no members")
        means[j] = members.mean(axis=0)
    deviation = X - means[labels]
    pooled = np.maximum((deviation * deviation).mean(axis=0), VARIANCE_FLOOR)
    return means, np.tile(pooled, (c, 1))


def _unary(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Negative log density of each point under each zone Gaussian, (r x c)."""
    r = X.shape[0]
    c = means.shape[0]
    out = np.empty((r, c))
    for j in range(c):
        v = variances[j]
        quad = X - means[j]
        quad *= quad
        quad /= v
        out[:, j] = 0.5 * (np.log(2.0 * math.pi * v).sum() + quad.sum(axis=1))
    return out


def _pair_energy(grid: np.ndarray, beta: float):
    """Potts term of label grids whose last two axes are the lattice: -beta
    per agreeing neighbor pair, +beta per disagreeing one."""
    pairs = same = 0
    for a, b in neighbor_pairs(grid):
        pairs += a.shape[-2] * a.shape[-1]
        same = same + (a == b).sum(axis=(-2, -1))
    return beta * (pairs - 2.0 * same)


def _energy(X: np.ndarray, model: ZoneModel, labels: np.ndarray, shape) -> float:
    """The energy of labels, each point's unary term taken under its own
    zone only: the entries of the `_unary` table that labels pick."""
    quad = X - model.means[labels]
    quad *= quad
    quad /= model.variances[labels]
    log_det = np.log(2.0 * math.pi * model.variances).sum(axis=1)
    unary = float((0.5 * (log_det[labels] + quad.sum(axis=1))).sum())
    grid = labels.reshape(_lattice(shape, X.shape[0]))
    return unary + float(_pair_energy(grid, model.beta))


def energy(labels: np.ndarray, F, model: ZoneModel, shape) -> float:
    """Total labeling energy on the (n_rows, n_cols) lattice: Gaussian
    negative log likelihoods plus the Potts pair sum (equal neighbors
    -beta, unequal +beta), the pairs taken from the shape."""
    return _energy(_points(F), model, np.asarray(labels, dtype=np.int64), shape)


def icm_map(labels, F, model: ZoneModel, shape,
            stats: CrfStats | None = None) -> np.ndarray:
    """Iterated conditional modes on the (n_rows, n_cols) lattice from an
    initial labeling.

    A sweep updates the four coding sets of the lattice, (row % 2,
    col % 2) = (0, 0), (0, 1), (1, 0), (1, 1), in turn.  No two regions
    of one set are neighbors, so a set moves at once: each of its regions
    takes the label minimizing its unary term plus beta * (degree - 2 *
    agreeing neighbors), ties to the lowest label, which is its exact
    conditional mode given all of its neighbors.  Sweeps stop when nothing
    changes, or with a warning after ICM_MAX_SWEEPS.  A sweep that
    increases the energy raises RuntimeError.  `stats`, when given, counts
    the sweeps and records a stop at the cap.
    """
    labels = np.asarray(labels, dtype=np.int64)
    X = _points(F)
    r = X.shape[0]
    if labels.shape != (r,):
        raise ValueError(f"labels shape {labels.shape} does not match {r} regions")
    n_rows, n_cols = _lattice(shape, r)
    c = model.n_zones
    U = _unary(X, model.means, model.variances).reshape(n_rows, n_cols, c)
    zones = np.arange(c)
    # the label grid inside a border of -1, which matches no label, so a
    # cell's in-bounds neighbors are its 8 offsets in the padded grid
    padded = np.full((n_rows + 2, n_cols + 2), -1, dtype=np.int64)
    grid = padded[1:-1, 1:-1]
    grid[...] = labels.reshape(n_rows, n_cols)
    prev_energy = energy(labels, F, model, shape)
    for sweep in range(1, ICM_MAX_SWEEPS + 1):
        changed = False
        for pr, pc in _CODING_SETS:
            cells = grid[pr::2, pc::2]
            h, w = cells.shape
            counts = np.zeros((h, w, c), dtype=np.int64)
            for dr, dc in _OFFSETS:
                r0, c0 = 1 + pr + dr, 1 + pc + dc
                counts += padded[r0:r0 + 2 * h - 1:2, c0:c0 + 2 * w - 1:2, None] == zones
            pair = model.beta * (counts.sum(axis=2, keepdims=True) - 2.0 * counts)
            new = np.argmin(U[pr::2, pc::2] + pair, axis=2)
            if not np.array_equal(new, cells):
                cells[...] = new
                changed = True
        labels = grid.ravel()
        cur_energy = energy(labels, F, model, shape)
        if cur_energy > prev_energy + 1e-9:
            raise RuntimeError(
                f"ICM sweep increased energy {prev_energy} -> {cur_energy}")
        prev_energy = cur_energy
        if not changed:
            break
    else:
        logger.warning("ICM stopped at its cap of %d sweeps with labels still "
                       "changing", ICM_MAX_SWEEPS)
        if stats is not None:
            stats.stop_reason = "max_sweeps"
    if stats is not None:
        stats.icm_sweeps += sweep
    return labels


def crf_fit(F, shape, c: int, beta: float = 1.0, seed: int = 0) -> ZoneModel:
    """Hard-EM zone fit on the (n_rows, n_cols) lattice: k-means start,
    Gaussian refit, ICM, repeat.

    The start is the lowest-inertia labeling of KMEANS_STARTS k-means runs,
    seeds seed, seed + 1, ..., the first of equal ones, on the features
    averaged over lattice windows of radius min(shape) //
    START_WINDOW_DIVISOR, which noisy single regions do not pull out of a
    zone's basin.  Labels emptied between rounds are re-seeded from the
    point farthest from its zone mean, mirroring the k-means rule.  Stops
    when ICM returns the labeling its round started from, before
    re-seeding, or with a warning after CRF_MAX_ROUNDS.  The model's
    `stats` records the rounds, the sweeps, the energy, the stop reason,
    and the starts' inertias and the one kept.
    """
    X = _points(F)
    r = X.shape[0]
    if not 1 <= c <= r:
        raise ValueError(f"zone count {c} outside [1, {r}]")
    lattice = _lattice(shape, r)
    smooth = window_means(X, lattice, min(lattice) // START_WINDOW_DIVISOR)
    stats = CrfStats()
    starts = []
    for s in range(seed, seed + KMEANS_STARTS):
        labels, centroids = kmeans(smooth.T, c, seed=s)
        deviation = smooth - centroids[labels]
        stats.start_inertias.append(float((deviation * deviation).sum()))
        starts.append(labels)
    stats.start = int(np.argmin(stats.start_inertias))
    labels = starts[stats.start]
    for _ in range(CRF_MAX_ROUNDS):
        seeded, model = _refit(X, labels, c, beta)
        new_labels = icm_map(seeded, F, model, shape, stats=stats)
        stats.em_rounds += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    else:
        logger.warning("CRF fit stopped at its cap of %d EM rounds with labels "
                       "still changing", CRF_MAX_ROUNDS)
        stats.stop_reason = "max_rounds"
    labels, model = _refit(X, labels, c, beta)
    model.labels = labels
    stats.energy = _energy(X, model, labels, shape)
    model.stats = stats
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
