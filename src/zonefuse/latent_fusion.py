"""Coupled factorization of POI counts and activity patterns.

Learns one latent representation per region from two views at once: the
masked POI matrix P (category x region, observed columns only) and the
activity matrix T (hour-origin rows x region).  A region is observed as
a whole column or not at all.  With o the observed columns and Tn the
columns of T scaled to unit length (an empty column stays zero), six
factor blocks are fit by block coordinate descent on

    0.5 ||P_o - U V_o||^2
  + (l1/2) ||Tn - Q^T Z||^2     activity reconstructed from the latent view
  + (l2/2) ||Z - U^T A||^2      latent view tied to a sparse POI code A
  + l3 ||A||_1
  + (l4/2) ||V_o - W Z_o||^2    POI-side and activity-side columns coupled
  + (l5/2) (||U||^2 + ||V_o||^2 + ||Q||^2 + ||W||^2)

The activity term fits T from Z, as collective matrix factorization
(Singh & Gordon 2008) and DRoF (Yuan, Zheng & Xie 2012) do, so a region
without venues gets its latent vector from its activity alone.  An
unobserved column of V has no term; `fit` returns it as W Z_u.

Each sweep sets the blocks U, V, Q, Z, A, W in turn to the minimiser of
their own subproblem by a linear solve; A takes one proximal-gradient
step of size 1/L instead, L the Lipschitz constant of its smooth part.
No update can raise the objective, and there is no step size to tune.
The Q block (k x q) is never formed: with G = l1 Z Z^T + l5 I and
K = Tn^T Tn its minimiser is Q = l1 G^-1 Z Tn^T, so the Z step needs only
Q Tn = l1 G^-1 (Z K) and Q Q^T = l1^2 G^-1 (Z K Z^T) G^-1, k x k work
once Z K is known (see `_k_times`).
"""
from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import DivergenceError
from .sparse_io import CooMatrix

logger = logging.getLogger(__name__)

TERM_NAMES = ("recon", "transform", "z_recon", "l1", "regression", "ridge")

FACTOR_NAMES = ("U", "V", "Q", "Z", "A", "W")

# pairs of entries of T summed into T^T T at a time, and values of K
# mirrored across its diagonal at a time
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

    `fit` returns Q as None: its sweeps need only Q Tn and Q Q^T, and no
    stage reads Q.
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
    k_path: str = ""  # how Z K is applied: dense or triples

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


def _checked(P, observed, T, f: LatentFactors, h: Hyperparams,
             q_read: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """P as a float array and observed, one flag per region, as a bool
    array, once every shape agrees with P; Q may be None when it is not
    read, and any other block that is None raises ValueError."""
    P = np.asarray(P, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    p, r = P.shape
    q, k = T.shape[0], h.k
    expected = {"observed": (r,), "T": (q, r), "U": (p, k), "V": (k, r),
                "Q": (k, q), "Z": (k, r), "A": (p, r), "W": (k, k)}
    given = {"observed": observed, "T": T, **vars(f)}
    for name, shape in expected.items():
        got = None if given[name] is None else given[name].shape
        if got != shape and not (name == "Q" and got is None and not q_read):
            raise ValueError(f"{name} has shape {got}, expected {shape}")
    return P, observed


def _unit_columns(T) -> tuple[CooMatrix, int]:
    """Tn, T with each column scaled to unit length, and the count of its
    nonzero columns, the trace of Tn^T Tn; a zero column stays zero."""
    T = CooMatrix.of(T)
    norms = np.sqrt(np.bincount(T.col, weights=T.data ** 2, minlength=T.shape[1]))
    # a column of stored zeros has norm 0, and its entries stay 0
    divisor = np.where(norms > 0, norms, 1.0)
    return (CooMatrix(T.row, T.col, T.data / divisor[T.col], T.shape),
            int(np.count_nonzero(norms)))


def _objective(P, observed, transform: float, q_sq: float, f: LatentFactors,
               h: Hyperparams) -> tuple[float, dict[str, float]]:
    """The objective with the activity term and ||Q||^2 given."""
    V = f.V[:, observed]
    R = P[:, observed] - f.U @ V
    S = f.Z - f.U.T @ f.A
    D = V - f.W @ f.Z[:, observed]
    terms = {
        "recon": 0.5 * float((R * R).sum()),
        "transform": transform,
        "z_recon": 0.5 * h.lambda2 * float((S * S).sum()),
        "l1": h.lambda3 * float(np.abs(f.A).sum()),
        "regression": 0.5 * h.lambda4 * float((D * D).sum()),
        "ridge": 0.5 * h.lambda5 * float((f.U * f.U).sum() + (V * V).sum()
                                         + q_sq + (f.W * f.W).sum()),
    }
    return sum(terms.values()), terms


def objective(P, observed, T, f: LatentFactors,
              h: Hyperparams) -> tuple[float, dict[str, float]]:
    """Total objective and its per-term breakdown at the Q of f; T is
    dense, a CooMatrix, or anything with `tocoo()`."""
    P, observed = _checked(P, observed, T, f, h)
    E = _unit_columns(T)[0].toarray() - f.Q.T @ f.Z
    return _objective(P, observed, 0.5 * h.lambda1 * float((E * E).sum()),
                      float(np.vdot(f.Q, f.Q)), f, h)


def gradients(P, observed, T, f: LatentFactors, h: Hyperparams) -> dict[str, np.ndarray]:
    """All six gradient blocks at one point; the A block is the smooth part.

    The objective's reference oracle, over every region: `fit` itself
    needs no gradients.
    """
    P, observed = _checked(P, observed, T, f, h)
    R = (P - f.U @ f.V) * observed
    E = _unit_columns(T)[0].toarray() - f.Q.T @ f.Z
    S = f.Z - f.U.T @ f.A
    D = (f.V - f.W @ f.Z) * observed
    return {
        "U": -R @ f.V.T - h.lambda2 * (f.A @ S.T) + h.lambda5 * f.U,
        "V": -f.U.T @ R + h.lambda4 * D + h.lambda5 * f.V * observed,
        "Q": -h.lambda1 * (f.Z @ E.T) + h.lambda5 * f.Q,
        "Z": -h.lambda1 * (f.Q @ E) + h.lambda2 * S - h.lambda4 * (f.W.T @ D),
        # smooth part only; the L1 term is handled by the proximal step
        "A": -h.lambda2 * (f.U @ S),
        "W": -h.lambda4 * (D @ f.Z.T) + h.lambda5 * f.W,
    }


def init_factors(p: int, r: int, h: Hyperparams) -> LatentFactors:
    """Seeded Gaussian(0, 0.01) initialization, drawn in block order; Q,
    which `fit` never forms, is None."""
    rng = np.random.default_rng(h.seed)
    k = h.k
    return LatentFactors(
        U=rng.normal(0.0, 0.01, (p, k)),
        V=rng.normal(0.0, 0.01, (k, r)),
        Q=None,
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
    # U^T U + (l4 + l5) I; an unobserved column has no term and keeps its value.
    V = f.V.copy()
    H = f.U.T @ f.U + (h.lambda4 + h.lambda5) * np.eye(h.k)
    B = f.U.T @ P[:, observed] + h.lambda4 * (f.W @ f.Z[:, observed])
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


def _row_lengths(T: CooMatrix) -> np.ndarray:
    """The entries of each nonempty row of T, rows in order."""
    return np.diff(np.flatnonzero(np.diff(T.row, prepend=-1)), append=T.nnz)


def _dense_k(Tn: CooMatrix):
    """Z -> Z K through K = Tn^T Tn built dense: its lower triangle from
    the pairs of entries sharing a row, mirrored into the upper one in
    place, a band of rows at a time."""
    K = _gram_lower(Tn)
    r = len(K)
    step = max(1, _PAIRS_PER_BATCH // r)
    for lo in range(0, r, step):
        hi = lo + step
        band = K[lo:hi, lo:hi]
        band += np.tril(band, -1).T
        K[lo:hi, hi:] = K[hi:, lo:hi].T
    return lambda Z: Z @ K


def _triples_k(Tn: CooMatrix):
    """Z -> Z K from Tn's triples: a row with one entry adds only to K's
    diagonal d, so Z K = Z diag(d) + (Z B^T) B, B the m rows with two or
    more entries, one np.bincount per latent row and product."""
    r = Tn.shape[1]
    per_row = _row_lengths(Tn)
    in_B = np.repeat(per_row > 1, per_row)
    d = np.bincount(Tn.col[~in_B], weights=Tn.data[~in_B] ** 2, minlength=r)
    m = int(np.count_nonzero(per_row > 1))
    # B's triples, its rows numbered 0..m-1
    row = np.repeat(np.arange(m), per_row[per_row > 1])
    col, data = Tn.col[in_B], Tn.data[in_B]

    def times(Z):
        ZB = [np.bincount(row, weights=z[col] * data, minlength=m) for z in Z]
        return Z * d + np.array([np.bincount(col, weights=x[row] * data, minlength=r)
                                 for x in ZB])
    return times


def _k_times(Tn: CooMatrix):
    """(path, map Z -> Z K), K = Tn^T Tn: `dense` when r^2 < 16 nnz(B),
    B the rows of Tn with two or more entries, else `triples`.  The two
    take the same time near r^2 = 75 nnz(B) (see the README); 16 keeps
    the dense K well on its faster side and its 8 r^2 bytes under 128 per
    entry of B."""
    r = Tn.shape[1]
    per_row = _row_lengths(Tn)
    if r * r < 16 * int(per_row[per_row > 1].sum()):
        return "dense", _dense_k(Tn)
    return "triples", _triples_k(Tn)


def _q_step(Z, ZK, nonempty: int, h: Hyperparams):
    """Q's minimiser given Z, seen through k x k matrices: (Q Tn, Q Q^T,
    the transform term and ||Q||^2 there).  With G = l1 Z Z^T + l5 I,
    Q = l1 G^-1 Z Tn^T.  G can be singular only when l1 = 0 or l5 = 0;
    `_argmin`'s pseudo-inverse then gives the least-norm Q.  The activity term with Q eliminated
    is (l1/2) tr K - (l1^2/2) tr(G^-1 Z K Z^T), tr K = nonempty.
    """
    k = h.k
    Gi = _argmin(h.lambda1 * (Z @ Z.T) + h.lambda5 * np.eye(k), np.eye(k),
                 np.zeros((k, k)))
    S = ZK @ Z.T
    QQt = h.lambda1 ** 2 * (Gi @ S @ Gi)
    q_sq = float(np.trace(QQt))
    eliminated = 0.5 * h.lambda1 * (nonempty - h.lambda1 * float(np.vdot(Gi, S)))
    return h.lambda1 * (Gi @ ZK), QQt, eliminated - 0.5 * h.lambda5 * q_sq, q_sq


def _update_Z(QTn, QQt, observed, f: LatentFactors, h: Hyperparams) -> np.ndarray:
    # two k x k systems: the observed columns' adds the regression term
    H = h.lambda1 * QQt + h.lambda2 * np.eye(h.k)
    B = h.lambda1 * QTn + h.lambda2 * (f.U.T @ f.A)
    Z = np.empty_like(f.Z)
    Z[:, ~observed] = _argmin(H, B[:, ~observed], f.Z[:, ~observed])
    Z[:, observed] = _argmin(H + h.lambda4 * (f.W.T @ f.W),
                             B[:, observed] + h.lambda4 * (f.W.T @ f.V[:, observed]),
                             f.Z[:, observed])
    return Z


def prox_step_A(f: LatentFactors, h: Hyperparams) -> np.ndarray:
    """One proximal-gradient step on A of size 1/L, L = l2 ||U U^T||_2.

    With L = 0 the block is l3 ||A||_1 alone, minimised by A = 0.
    """
    L = h.lambda2 * np.linalg.norm(f.U, 2) ** 2
    if L == 0:
        return np.zeros_like(f.A) if h.lambda3 > 0 else f.A
    grad = h.lambda2 * (f.U @ (f.U.T @ f.A - f.Z))
    return soft_threshold(f.A - grad / L, h.lambda3 / L)


def _update_W(observed, f: LatentFactors, h: Hyperparams) -> np.ndarray:
    Z = f.Z[:, observed]
    H = h.lambda4 * (Z @ Z.T) + h.lambda5 * np.eye(h.k)
    return _argmin(H, h.lambda4 * (Z @ f.V[:, observed].T), f.W.T).T


def fit(P, observed, T, h: Hyperparams,
        init: LatentFactors | None = None) -> tuple[LatentFactors, FitTrace]:
    """Run block coordinate descent until the objective stalls.

    Stops when a sweep lowers the objective f by at most
    epsilon * max(|f|, 1), f taken before the sweep, or with a warning
    after max_iter sweeps; the floor of 1 lets an objective that falls to
    0 stop too.  The objective traced is the one with Q at its minimiser,
    so the initial value does not depend on any Q.  A non-finite
    objective raises DivergenceError.  The trace records the initial
    objective at iteration 0 and one row per sweep.  `observed` holds one
    flag per region (column of P).  T is dense, a CooMatrix, or anything
    with `tocoo()`.  `init` is not modified and its Q is not read.  The
    factors returned hold Q as None, and V's unobserved columns as W Z_u.
    """
    P = np.asarray(P, dtype=np.float64)
    T = CooMatrix.of(T)
    # every update assigns a new array, so a shallow copy protects init
    f = replace(init, Q=None) if init is not None else init_factors(*P.shape, h)
    P, observed = _checked(P, observed, T, f, h, q_read=False)
    Tn, nonempty = _unit_columns(T)
    trace = FitTrace()
    trace.k_path, times_K = _k_times(Tn)
    # Z K of the current Z: the objective's, then the next Q step's
    ZK = times_K(f.Z)
    QTn, QQt, transform, q_sq = _q_step(f.Z, ZK, nonempty, h)
    total, terms = _objective(P, observed, transform, q_sq, f, h)
    if not np.isfinite(total):
        raise DivergenceError("objective is non-finite at the initial factors")
    trace.append(0, total, terms)
    prev = total
    for it in range(1, h.max_iter + 1):
        f.U = _update_U(P, observed, f, h)
        f.V = _update_V(P, observed, f, h)
        f.Z = _update_Z(QTn, QQt, observed, f, h)
        f.A = prox_step_A(f, h)
        f.W = _update_W(observed, f, h)
        ZK = times_K(f.Z)
        QTn, QQt, transform, q_sq = _q_step(f.Z, ZK, nonempty, h)
        total, terms = _objective(P, observed, transform, q_sq, f, h)
        if not np.isfinite(total):
            raise DivergenceError(f"objective became non-finite at iteration {it}")
        trace.append(it, total, terms)
        trace.relative_decrease = (prev - total) / abs(prev) if prev else 0.0
        # An increase (rounding at a fixed point) is not convergence.
        if 0.0 <= prev - total <= h.epsilon * max(abs(prev), 1.0):
            trace.stop_reason = "converged"
            break
        prev = total
    f.V = np.where(observed, f.V, f.W @ f.Z)
    log = logger.info if trace.stop_reason == "converged" else logger.warning
    log("fit stopped after %d iterations (%s, Z K %s), objective %.6g, last "
        "relative decrease %.3g", trace.iters[-1], trace.stop_reason, trace.k_path,
        total, trace.relative_decrease)
    return f, trace
