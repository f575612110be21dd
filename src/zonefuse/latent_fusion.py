"""Coupled factorization of POI counts and activity patterns.

Learns one latent representation per region from two views at once: the
masked POI matrix P (category x region, observed columns only) and the
activity matrix T (hour-origin rows x region).  A region is observed as
a whole column or not at all; with o the observed columns, six factor
blocks are fit by block coordinate descent on

    0.5 ||P_o - U V_o||^2
  + (l1/2) ||Q T - Z||^2        activity transformed into latent space
  + (l2/2) ||Z - U^T A||^2      latent view tied to a sparse POI code A
  + l3 ||A||_1
  + (l4/2) ||V - W Z||^2        POI-side and activity-side columns coupled
  + (l5/2) (||U||^2 + ||V||^2 + ||Q||^2 + ||W||^2)

Each sweep sets the blocks U, V, Q, Z, A, W in turn to the minimiser of
their own subproblem by a linear solve; A takes one proximal-gradient
step of size 1/L instead, L the Lipschitz constant of its smooth part.
No update can raise the objective, and there is no step size to tune.
The Q block (k x q) is never formed: the sweep needs only Q T and
||Q||^2, which come from Y M = Z with the regions x regions
M = l1 T^T T + l5 I, solved through a Cholesky factor of min(m, r)
order, m the rows of T with two or more entries (see `_q_solver`).
"""
from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import DivergenceError
from .sparse_io import CooMatrix

logger = logging.getLogger(__name__)

TERM_NAMES = ("recon", "transform", "z_recon", "l1", "regression", "ridge")

FACTOR_NAMES = ("U", "V", "Q", "Z", "A", "W")

# the dense Cholesky's block size: the diagonal blocks np.linalg.cholesky
# factors and inverts, and the width of each GEMM panel
_BLOCK = 256
# pairs of entries of T summed into T^T T at a time
_PAIRS_PER_BATCH = 1 << 16


@dataclass
class Hyperparams:
    k: int = 10
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.1
    lambda4: float = 1.0
    lambda5: float = 0.01
    epsilon: float = 1e-8
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        # every float field, a subclass's too: NaN passes any comparison
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} {value} must be finite")
        if self.k < 1:
            raise ValueError(f"latent dimension {self.k} must be >= 1")
        for name in ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class LatentFactors:
    """The six factor blocks; shapes follow P (p x r) and T (q x r).

    `fit` returns Q as None: its sweeps need only Q T, and no stage reads Q.
    """

    U: np.ndarray  # p x k
    V: np.ndarray  # k x r
    Q: np.ndarray | None  # k x q
    Z: np.ndarray  # k x r
    A: np.ndarray  # p x r
    W: np.ndarray  # k x k

    def save(self, directory) -> None:
        """Write each block that is not None as little-endian float64
        row-major binary; shapes.json lists the blocks written."""
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        shapes = {}
        for name in FACTOR_NAMES:
            block = getattr(self, name)
            if block is None:
                continue
            # tofile writes C order from any layout, without a contiguous copy
            arr = np.asarray(block, dtype="<f8")
            arr.tofile(d / f"{name}.bin")
            shapes[name] = list(arr.shape)
        manifest = {"dtype": "float64", "byteorder": "little", "order": "C",
                    "shapes": shapes}
        with open(d / "shapes.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, directory, names=None) -> "LatentFactors":
        """Read the blocks in `names`, by default every block written;
        the others are None.  A block whose recorded shape is not 2-d
        raises ValueError."""
        d = Path(directory)
        with open(d / "shapes.json") as fh:
            manifest = json.load(fh)
        blocks = dict.fromkeys(FACTOR_NAMES)
        for name in manifest["shapes"] if names is None else names:
            shape = tuple(manifest["shapes"][name])
            if len(shape) != 2:
                raise ValueError(f"{name} has shape {list(shape)}, not a matrix")
            arr = np.fromfile(d / f"{name}.bin", dtype="<f8")
            if arr.size != int(np.prod(shape)):
                raise ValueError(f"{name}.bin has {arr.size} values, expected shape {shape}")
            blocks[name] = arr.reshape(shape)
        return cls(**blocks)


@dataclass
class FitTrace:
    """Objective values and per-term breakdown per iteration."""

    iters: list[int] = field(default_factory=list)
    totals: list[float] = field(default_factory=list)
    terms: list[dict[str, float]] = field(default_factory=list)
    stop_reason: str = "max_iter"
    relative_decrease: float = 0.0  # of the last sweep
    q_factor: str = ""  # how the Q step is solved: cholesky, woodbury or pinv
    q_order: int = 0  # order of the matrix factored: r for M, m for Woodbury's C
    q_factor_s: float = 0.0  # time to build and factor that matrix

    def append(self, it: int, total: float, terms: dict[str, float]) -> None:
        self.iters.append(it)
        self.totals.append(total)
        self.terms.append(dict(terms))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "total", *TERM_NAMES])
            for i in range(len(self.iters)):
                w.writerow([self.iters[i], repr(self.totals[i]),
                            *(repr(self.terms[i][t]) for t in TERM_NAMES)])


def soft_threshold(x: np.ndarray | float, threshold: float):
    """Elementwise sign(x) * max(|x| - threshold, 0), computed in one pass
    as x - clip(x, -threshold, threshold): the same values, except that an
    entry set to zero is +0.0 rather than -0.0."""
    return x - np.clip(x, -threshold, threshold)


def _checked(P, observed, T, f: LatentFactors,
             h: Hyperparams) -> tuple[np.ndarray, np.ndarray]:
    """P as a float array and observed, one flag per region, as a bool
    array, once every shape agrees with P."""
    P = np.asarray(P, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    p, r = P.shape
    q, k = T.shape[0], h.k
    expected = {"observed": (r,), "T": (q, r), "U": (p, k), "V": (k, r),
                "Q": (k, q), "Z": (k, r), "A": (p, r), "W": (k, k)}
    given = {"observed": observed, "T": T, **vars(f)}
    for name, shape in expected.items():
        if given[name].shape != shape:
            raise ValueError(f"{name} has shape {given[name].shape}, expected {shape}")
    return P, observed


def _times(X, T, transpose: bool = False) -> np.ndarray:
    """X @ T, or X @ T^T with transpose; a CooMatrix is summed over its
    triples, any other T multiplies as it is."""
    if not isinstance(T, CooMatrix):
        return X @ (T.T if transpose else T)
    src, dst = (T.col, T.row) if transpose else (T.row, T.col)
    n = T.shape[0] if transpose else T.shape[1]
    out = np.zeros((len(X), n))
    for x, o in zip(X, out):
        np.add.at(o, dst, x[src] * T.data)
    return out


def _residuals(QT, f: LatentFactors):
    """The residuals of the three coupling terms, given Q T."""
    return QT - f.Z, f.Z - f.U.T @ f.A, f.V - f.W @ f.Z


def _objective(P, observed, QT, q_sq: float, f: LatentFactors,
               h: Hyperparams) -> tuple[float, dict[str, float]]:
    """The objective with the Q block given as Q T and ||Q||^2."""
    R = P[:, observed] - f.U @ f.V[:, observed]
    E, S, D = _residuals(QT, f)
    terms = {
        "recon": 0.5 * float((R * R).sum()),
        "transform": 0.5 * h.lambda1 * float((E * E).sum()),
        "z_recon": 0.5 * h.lambda2 * float((S * S).sum()),
        "l1": h.lambda3 * float(np.abs(f.A).sum()),
        "regression": 0.5 * h.lambda4 * float((D * D).sum()),
        "ridge": 0.5 * h.lambda5 * float((f.U * f.U).sum() + (f.V * f.V).sum()
                                         + q_sq + (f.W * f.W).sum()),
    }
    return sum(terms.values()), terms


def objective(P, observed, T, f: LatentFactors,
              h: Hyperparams) -> tuple[float, dict[str, float]]:
    """Total objective and its per-term breakdown; T is dense, a
    CooMatrix, or anything with `tocoo()`."""
    P, observed = _checked(P, observed, T, f, h)
    return _objective(P, observed, _times(f.Q, T), float(np.vdot(f.Q, f.Q)), f, h)


def gradients(P, observed, T, f: LatentFactors, h: Hyperparams) -> dict[str, np.ndarray]:
    """All six gradient blocks at one point; the A block is the smooth part.

    The objective's reference oracle, over every region: `fit` itself
    needs no gradients.
    """
    P, observed = _checked(P, observed, T, f, h)
    R = (P - f.U @ f.V) * observed
    E, S, D = _residuals(_times(f.Q, T), f)
    return {
        "U": -R @ f.V.T - h.lambda2 * (f.A @ S.T) + h.lambda5 * f.U,
        "V": -f.U.T @ R + h.lambda4 * D + h.lambda5 * f.V,
        "Q": h.lambda1 * _times(E, T, transpose=True) + h.lambda5 * f.Q,
        "Z": -h.lambda1 * E + h.lambda2 * S - h.lambda4 * (f.W.T @ D),
        # smooth part only; the L1 term is handled by the proximal step
        "A": -h.lambda2 * (f.U @ S),
        "W": -h.lambda4 * (D @ f.Z.T) + h.lambda5 * f.W,
    }


def init_factors(p: int, r: int, q: int, h: Hyperparams) -> LatentFactors:
    """Seeded Gaussian(0, 0.01) initialization, drawn in block order.

    Q starts at zero: `fit` reads it only for the initial objective and
    returns it as None, and untouched zeros cost no memory.
    """
    rng = np.random.default_rng(h.seed)
    k = h.k
    return LatentFactors(
        U=rng.normal(0.0, 0.01, (p, k)),
        V=rng.normal(0.0, 0.01, (k, r)),
        Q=np.zeros((k, q)),
        Z=rng.normal(0.0, 0.01, (k, r)),
        A=rng.normal(0.0, 0.01, (p, r)),
        W=rng.normal(0.0, 0.01, (k, k)),
    )


def _argmin(H, B, X):
    """The solution of H X = B, the minimiser of a block's quadratic.

    H is singular only where every term of the block is off; the
    pseudo-inverse step then leaves X unchanged along those directions.
    """
    try:
        return np.linalg.solve(H, B)
    except np.linalg.LinAlgError:
        return X - np.linalg.pinv(H, hermitian=True) @ (H @ X - B)


def _update_U(P, observed, f: LatentFactors, h: Hyperparams) -> np.ndarray:
    # Every row of U shares the Gram G = V_o V_o^T, so the block is the
    # Sylvester equation l2 (A A^T) U + U (G + l5 I) = P_o V_o^T + l2 A Z^T,
    # diagonal in the eigenbases E of A A^T and F of G.  A component whose
    # coefficient is zero has every term off and keeps its value, as under
    # a pseudo-inverse; a rank-deficient Gram's zero eigenvalues come out
    # at rounding level, of either sign, hence the pseudo-inverse cutoff.
    V = f.V[:, observed]
    a, E = np.linalg.eigh(f.A @ f.A.T)
    g, F = np.linalg.eigh(V @ V.T)
    B = P[:, observed] @ V.T + h.lambda2 * (f.A @ f.Z.T)
    D = h.lambda2 * a[:, None] + g + h.lambda5
    U = E.T @ f.U @ F
    np.divide(E.T @ B @ F, D, out=U, where=D > D.max() * D.size * np.finfo(float).eps)
    return E @ U @ F.T


def _update_V(P, observed, f: LatentFactors, h: Hyperparams) -> np.ndarray:
    # Every observed region's k x k system has the one matrix
    # U^T U + (l4 + l5) I.  An unobserved region's is (l4 + l5) v = l4 (W Z)_j;
    # with no term on it (l4 + l5 = 0) its column keeps its value.
    WZ = h.lambda4 * (f.W @ f.Z)
    c = h.lambda4 + h.lambda5
    V = WZ / c if c > 0 else f.V.copy()
    H = f.U.T @ f.U + c * np.eye(h.k)
    B = f.U.T @ P[:, observed] + WZ[:, observed]
    V[:, observed] = _argmin(H, B, f.V[:, observed])
    return V


def _gram_lower(T: CooMatrix) -> np.ndarray:
    """T^T T as a dense array holding only its lower triangle.

    Two entries of one row of T, in columns a >= b, add their product to
    [a, b], rows in order.  The pairs are formed about _PAIRS_PER_BATCH
    at a time, never all at once.
    """
    r = T.shape[1]
    G = np.zeros((r, r))
    first = np.flatnonzero(np.diff(T.row, prepend=-1))
    # entry e pairs with each entry of its row from start[e] up to e
    start = np.repeat(first, np.diff(first, append=T.nnz))
    pairs = np.arange(T.nnz) - start + 1
    end = np.cumsum(pairs)
    lo = 0
    while lo < T.nnz:
        hi = max(lo + 1, int(np.searchsorted(end, end[lo] - pairs[lo] + _PAIRS_PER_BATCH,
                                             side="right")))
        n = pairs[lo:hi]
        left = np.repeat(np.arange(lo, hi), n)
        right = np.arange(len(left)) - np.repeat(np.cumsum(n) - n - start[lo:hi], n)
        np.add.at(G.reshape(-1), T.col[left] * r + T.col[right],
                  T.data[left] * T.data[right])
        lo = hi
    return G


def _cholesky(M: np.ndarray) -> list[np.ndarray]:
    """Overwrite the lower triangle of M with its Cholesky factor L, in
    blocks of _BLOCK columns, and return the inverse of each diagonal
    block of L.  Only the lower triangle of M is read; the strict upper
    triangle of each diagonal block is zeroed, the rest left as it is.

    Left-looking: a block column takes one GEMM update from the columns
    left of it, then its diagonal block is factored by np.linalg.cholesky
    and the panel below is multiplied by that block's inverse.
    """
    r = len(M)
    inverses = []
    for j in range(0, r, _BLOCK):
        b, below = slice(j, j + _BLOCK), slice(j + _BLOCK, r)
        if j:
            M[j:, b] -= M[j:, :j] @ M[b, :j].T
        L = np.linalg.cholesky(M[b, b])
        inverse = np.linalg.inv(L)
        M[b, b] = L
        M[below, b] = M[below, b] @ inverse.T
        inverses.append(inverse)
    return inverses


def _cho_solve(L: np.ndarray, inverses: list[np.ndarray], Z: np.ndarray) -> np.ndarray:
    """The Y of Y L L^T = Z, L and inverses as _cholesky leaves them: a
    blocked forward substitution X L^T = Z, then a backward one Y L = X."""
    r = len(L)
    Y = Z.copy()
    starts = range(0, r, _BLOCK)
    for j, inverse in zip(starts, inverses):
        b = slice(j, j + _BLOCK)
        Y[:, b] -= Y[:, :j] @ L[b, :j].T
        Y[:, b] = Y[:, b] @ inverse.T
    for j, inverse in zip(reversed(starts), reversed(inverses)):
        b, below = slice(j, j + _BLOCK), slice(j + _BLOCK, r)
        Y[:, b] -= Y[:, below] @ L[below, b]
        Y[:, b] = Y[:, b] @ inverse
    return Y


def _q_solver(T, h: Hyperparams):
    """The Q update as (factorization name, order of the matrix factored,
    map Z -> (Y, Q T)), where Q = l1 Y T^T.

    The minimiser solves Q (l1 T T^T + l5 I) = l1 Z T^T (q x q); pushed
    through T this is Y M = Z with the r x r M = l1 T^T T + l5 I, and
    Q T = Z - l5 Y.  A row of T with one entry adds only to the diagonal
    of M, so M = D + l1 B^T B, D diagonal and B the m rows of T with two
    or more entries.  When m < r, the Woodbury identity gives

        Y = Z D^-1 - l1 (Z D^-1 B^T) C^-1 (B D^-1),  C = I + l1 B D^-1 B^T,

    m x m; otherwise M is built dense from T's triples.  Either matrix is
    factored once by the blocked Cholesky in numpy, so the one factored is
    min(m, r) square.  With l5 = 0, M may be singular and the least-norm
    minimiser is taken.
    """
    T = CooMatrix.of(T)
    r = T.shape[1]
    if h.lambda5 == 0:
        M = h.lambda1 * _gram_lower(T)
        M += np.tril(M, -1).T
        M_pinv = np.linalg.pinv(M, hermitian=True)
        return "pinv", r, lambda Z: (Z @ M_pinv, Z @ M_pinv @ M)
    per_row = np.diff(np.flatnonzero(np.diff(T.row, prepend=-1)), append=T.nnz)
    m = int(np.count_nonzero(per_row > 1))
    if m >= r:
        M = _gram_lower(T)
        M *= h.lambda1
        M.reshape(-1)[::r + 1] += h.lambda5
        inverses = _cholesky(M)

        def solve(Z):
            Y = _cho_solve(M, inverses, Z)
            return Y, Z - h.lambda5 * Y
        return "cholesky", r, solve
    in_B = np.repeat(per_row > 1, per_row)
    d = h.lambda5 + h.lambda1 * np.bincount(T.col[~in_B], weights=T.data[~in_B] ** 2,
                                            minlength=r)
    # B's triples, its rows numbered 0..m-1
    row = np.repeat(np.arange(m), per_row[per_row > 1])
    col, data = T.col[in_B], T.data[in_B]
    # C - I = X^T X, X = (B D^-1/2)^T sqrt(l1), r x m with its triples
    # sorted by B's column; a stable sort keeps B's rows ascending in each
    order = np.argsort(col, kind="stable")
    C = _gram_lower(CooMatrix(col[order], row[order],
                              (data * np.sqrt(h.lambda1 / d[col]))[order], (r, m)))
    C.reshape(-1)[::m + 1] += 1.0
    inverses = _cholesky(C)

    def solve(Z):
        ZB = np.array([np.bincount(row, weights=z[col] * data, minlength=m)
                       for z in Z / d])
        H = _cho_solve(C, inverses, ZB)
        HB = np.array([np.bincount(col, weights=x[row] * data, minlength=r) for x in H])
        Y = (Z - h.lambda1 * HB) / d
        return Y, Z - h.lambda5 * Y
    return "woodbury", m, solve


def _update_Z(QT, f: LatentFactors, h: Hyperparams) -> np.ndarray:
    H = (h.lambda1 + h.lambda2) * np.eye(h.k) + h.lambda4 * (f.W.T @ f.W)
    B = h.lambda1 * QT + h.lambda2 * (f.U.T @ f.A) + h.lambda4 * (f.W.T @ f.V)
    return _argmin(H, B, f.Z)


def prox_step_A(f: LatentFactors, h: Hyperparams) -> np.ndarray:
    """One proximal-gradient step on A of size 1/L, L = l2 ||U U^T||_2.

    With L = 0 the block is l3 ||A||_1 alone, minimised by A = 0.
    """
    L = h.lambda2 * np.linalg.norm(f.U, 2) ** 2
    if L == 0:
        return np.zeros_like(f.A) if h.lambda3 > 0 else f.A
    grad = h.lambda2 * (f.U @ (f.U.T @ f.A - f.Z))
    return soft_threshold(f.A - grad / L, h.lambda3 / L)


def _update_W(f: LatentFactors, h: Hyperparams) -> np.ndarray:
    H = h.lambda4 * (f.Z @ f.Z.T) + h.lambda5 * np.eye(h.k)
    return _argmin(H, h.lambda4 * (f.Z @ f.V.T), f.W.T).T


def fit(P, observed, T, h: Hyperparams,
        init: LatentFactors | None = None) -> tuple[LatentFactors, FitTrace]:
    """Run block coordinate descent until the objective stalls.

    Stops when a sweep lowers the objective f by at most
    epsilon * max(|f|, 1), f taken before the sweep, or with a warning
    after max_iter sweeps; the floor of 1 lets an objective that falls to
    0 stop too.  A non-finite objective raises DivergenceError.  The trace
    records the initial objective at iteration 0 and one row per sweep.
    `observed` holds one flag per region (column of P).  T is dense, a
    CooMatrix, or anything with `tocoo()`.  `init` is not modified.  The
    factors returned hold Q as None: the sweeps take Q T and ||Q||^2 from
    the Q step's solve, and forming the k x q block would serve no stage.
    """
    P = np.asarray(P, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    T = CooMatrix.of(T)
    # every update assigns a new array, so a shallow copy protects init
    f = replace(init) if init is not None else init_factors(*P.shape, T.shape[0], h)
    total, terms = objective(P, observed, T, f, h)
    if not np.isfinite(total):
        raise DivergenceError("objective is non-finite at the initial factors")
    trace = FitTrace()
    trace.append(0, total, terms)
    # the loop needs only Q T and ||Q||^2, so Q itself is never formed
    started = time.perf_counter()
    trace.q_factor, trace.q_order, solve_q = _q_solver(T, h)
    trace.q_factor_s = time.perf_counter() - started
    prev = total
    for it in range(1, h.max_iter + 1):
        f.U = _update_U(P, observed, f, h)
        f.V = _update_V(P, observed, f, h)
        Y, QT = solve_q(f.Z)
        f.Z = _update_Z(QT, f, h)
        f.A = prox_step_A(f, h)
        f.W = _update_W(f, h)
        q_sq = h.lambda1 * float((QT * Y).sum())
        total, terms = _objective(P, observed, QT, q_sq, f, h)
        if not np.isfinite(total):
            raise DivergenceError(f"objective became non-finite at iteration {it}")
        trace.append(it, total, terms)
        trace.relative_decrease = (prev - total) / abs(prev) if prev else 0.0
        # An increase (rounding at a fixed point) is not convergence.
        if 0.0 <= prev - total <= h.epsilon * max(abs(prev), 1.0):
            trace.stop_reason = "converged"
            break
        prev = total
    f.Q = None
    log = logger.info if trace.stop_reason == "converged" else logger.warning
    log("fit stopped after %d iterations (%s), objective %.6g, last relative "
        "decrease %.3g", trace.iters[-1], trace.stop_reason, total,
        trace.relative_decrease)
    return f, trace

