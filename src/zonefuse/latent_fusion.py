"""Coupled factorization of POI counts and activity patterns.

Learns one latent representation per region from two views at once: the
masked POI matrix P (category x region, observed columns only) and the
activity matrix T (hour-origin rows x region).  Six factor blocks are fit
by proximal gradient descent on

    0.5 ||I o (P - U V)||^2
  + (l1/2) ||Q T - Z||^2        activity transformed into latent space
  + (l2/2) ||Z - U^T A||^2      latent view tied to a sparse POI code A
  + l3 ||A||_1
  + (l4/2) ||V - W Z||^2        POI-side and activity-side columns coupled
  + (l5/2) (||U||^2 + ||V||^2 + ||Q||^2 + ||W||^2)

The L1 block A takes a soft-threshold proximal step; every other block
takes a plain gradient step.  Updates run in Gauss-Seidel order U, V, Q,
Z, A, W (each block sees the newest values).  The step size decays
geometrically per iteration.
"""
from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DivergenceError

logger = logging.getLogger(__name__)

TERM_NAMES = ("recon", "transform", "z_recon", "l1", "regression", "ridge")

FACTOR_NAMES = ("U", "V", "Q", "Z", "A", "W")


@dataclass
class Hyperparams:
    k: int = 10
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.1
    lambda4: float = 1.0
    lambda5: float = 0.01
    alpha0: float = 1e-3
    rho: float = 0.999
    epsilon: float = 1e-8
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"latent dimension {self.k} must be >= 1")
        for name in ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if not 0 < self.rho <= 1:
            raise ValueError("rho must be in (0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class LatentFactors:
    """The six factor blocks; shapes follow P (p x r) and T (q x r)."""

    U: np.ndarray  # p x k
    V: np.ndarray  # k x r
    Q: np.ndarray  # k x q
    Z: np.ndarray  # k x r
    A: np.ndarray  # p x r
    W: np.ndarray  # k x k

    def copy(self) -> "LatentFactors":
        return LatentFactors(self.U.copy(), self.V.copy(), self.Q.copy(),
                             self.Z.copy(), self.A.copy(), self.W.copy())

    def save(self, directory) -> None:
        """Write each block as little-endian float64 row-major binary."""
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        shapes = {}
        for name in FACTOR_NAMES:
            arr = np.ascontiguousarray(getattr(self, name), dtype="<f8")
            arr.tofile(d / f"{name}.bin")
            shapes[name] = list(arr.shape)
        manifest = {"dtype": "float64", "byteorder": "little", "order": "C",
                    "shapes": shapes}
        with open(d / "shapes.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, directory) -> "LatentFactors":
        d = Path(directory)
        with open(d / "shapes.json") as fh:
            manifest = json.load(fh)
        blocks = {}
        for name in FACTOR_NAMES:
            shape = tuple(manifest["shapes"][name])
            arr = np.fromfile(d / f"{name}.bin", dtype="<f8")
            if arr.size != int(np.prod(shape)):
                raise ValueError(f"{name}.bin has {arr.size} values, expected shape {shape}")
            blocks[name] = arr.reshape(shape)
        return cls(**blocks)


@dataclass
class FitTrace:
    """Objective values, per-term breakdown, and step size per iteration."""

    iters: list[int] = field(default_factory=list)
    totals: list[float] = field(default_factory=list)
    terms: list[dict[str, float]] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    stop_reason: str = ""

    def append(self, it: int, total: float, terms: dict[str, float], alpha: float) -> None:
        self.iters.append(it)
        self.totals.append(total)
        self.terms.append(dict(terms))
        self.alphas.append(alpha)

    @property
    def final_objective(self) -> float:
        return self.totals[-1]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "total", *TERM_NAMES, "alpha"])
            for i in range(len(self.iters)):
                w.writerow([self.iters[i], repr(self.totals[i]),
                            *(repr(self.terms[i][t]) for t in TERM_NAMES),
                            repr(self.alphas[i])])


def soft_threshold(x: np.ndarray | float, threshold: float):
    """Elementwise sign(x) * max(|x| - threshold, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def _mul_T(M: np.ndarray, T) -> np.ndarray:
    """M @ T for dense or sparse T, returning dense."""
    if sp.issparse(T):
        return (T.T @ M.T).T
    return M @ T


def _mul_Tt(M: np.ndarray, T) -> np.ndarray:
    """M @ T.T for dense or sparse T, returning dense."""
    if sp.issparse(T):
        return (T @ M.T).T
    return M @ T.T


def _check_shapes(P, I, T, f: LatentFactors, h: Hyperparams) -> None:
    p, r = P.shape
    if I.shape != (p, r):
        raise ValueError(f"mask shape {I.shape} does not match P shape {P.shape}")
    if T.shape[1] != r:
        raise ValueError(f"T has {T.shape[1]} columns, expected {r}")
    q = T.shape[0]
    k = h.k
    expected = {"U": (p, k), "V": (k, r), "Q": (k, q),
                "Z": (k, r), "A": (p, r), "W": (k, k)}
    for name, shape in expected.items():
        got = getattr(f, name).shape
        if got != shape:
            raise ValueError(f"factor {name} has shape {got}, expected {shape}")


def objective(P, I, T, f: LatentFactors, h: Hyperparams) -> tuple[float, dict[str, float]]:
    """Total objective and its per-term breakdown."""
    P = np.asarray(P, dtype=np.float64)
    I = np.asarray(I, dtype=np.float64)
    _check_shapes(P, I, T, f, h)
    R = I * (P - f.U @ f.V)
    E = _mul_T(f.Q, T) - f.Z
    S = f.Z - f.U.T @ f.A
    D = f.V - f.W @ f.Z
    terms = {
        "recon": 0.5 * float((R * R).sum()),
        "transform": 0.5 * h.lambda1 * float((E * E).sum()),
        "z_recon": 0.5 * h.lambda2 * float((S * S).sum()),
        "l1": h.lambda3 * float(np.abs(f.A).sum()),
        "regression": 0.5 * h.lambda4 * float((D * D).sum()),
        "ridge": 0.5 * h.lambda5 * float((f.U * f.U).sum() + (f.V * f.V).sum()
                                         + (f.Q * f.Q).sum() + (f.W * f.W).sum()),
    }
    return sum(terms.values()), terms


def _grad_U(P, I, T, f, h):
    R = I * (P - f.U @ f.V)
    S = f.Z - f.U.T @ f.A
    return -R @ f.V.T - h.lambda2 * (f.A @ S.T) + h.lambda5 * f.U


def _grad_V(P, I, T, f, h):
    R = I * (P - f.U @ f.V)
    D = f.V - f.W @ f.Z
    return -f.U.T @ R + h.lambda4 * D + h.lambda5 * f.V


def _grad_Q(P, I, T, f, h):
    E = _mul_T(f.Q, T) - f.Z
    return h.lambda1 * _mul_Tt(E, T) + h.lambda5 * f.Q


def _grad_Z(P, I, T, f, h):
    E = _mul_T(f.Q, T) - f.Z
    S = f.Z - f.U.T @ f.A
    D = f.V - f.W @ f.Z
    return -h.lambda1 * E + h.lambda2 * S - h.lambda4 * (f.W.T @ D)


def _grad_A(P, I, T, f, h):
    # smooth part only; the L1 term is handled by the proximal step
    S = f.Z - f.U.T @ f.A
    return -h.lambda2 * (f.U @ S)


def _grad_W(P, I, T, f, h):
    D = f.V - f.W @ f.Z
    return -h.lambda4 * (D @ f.Z.T) + h.lambda5 * f.W


def gradients(P, I, T, f: LatentFactors, h: Hyperparams) -> dict[str, np.ndarray]:
    """All six gradient blocks at one point; the A block is the smooth part."""
    P = np.asarray(P, dtype=np.float64)
    I = np.asarray(I, dtype=np.float64)
    _check_shapes(P, I, T, f, h)
    return {
        "U": _grad_U(P, I, T, f, h),
        "V": _grad_V(P, I, T, f, h),
        "Q": _grad_Q(P, I, T, f, h),
        "Z": _grad_Z(P, I, T, f, h),
        "A": _grad_A(P, I, T, f, h),
        "W": _grad_W(P, I, T, f, h),
    }


def init_factors(p: int, r: int, q: int, h: Hyperparams) -> LatentFactors:
    """Seeded Gaussian(0, 0.01) initialization, drawn in block order."""
    rng = np.random.default_rng(h.seed)
    k = h.k
    return LatentFactors(
        U=rng.normal(0.0, 0.01, (p, k)),
        V=rng.normal(0.0, 0.01, (k, r)),
        Q=rng.normal(0.0, 0.01, (k, q)),
        Z=rng.normal(0.0, 0.01, (k, r)),
        A=rng.normal(0.0, 0.01, (p, r)),
        W=rng.normal(0.0, 0.01, (k, k)),
    )


def fit(P, I, T, h: Hyperparams,
        init: LatentFactors | None = None) -> tuple[LatentFactors, FitTrace]:
    """Run proximal gradient descent until the objective stalls.

    Stops when the per-iteration decrease falls to epsilon or max_iter is
    reached.  A non-finite objective raises DivergenceError.  The trace
    records the initial objective at iteration 0 and one row per pass.
    """
    P = np.asarray(P, dtype=np.float64)
    I = np.asarray(I, dtype=np.float64)
    p, r = P.shape
    q = T.shape[0]
    f = init.copy() if init is not None else init_factors(p, r, q, h)
    _check_shapes(P, I, T, f, h)

    alpha = h.alpha0
    total, terms = objective(P, I, T, f, h)
    trace = FitTrace()
    trace.append(0, total, terms, alpha)
    prev = total
    stop_reason = "max_iter"
    # Overflow on the way to the non-finite guard is expected for runaway
    # steps; the guard reports it, so the warnings are suppressed here.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, h.max_iter + 1):
            f.U = f.U - alpha * _grad_U(P, I, T, f, h)
            f.V = f.V - alpha * _grad_V(P, I, T, f, h)
            f.Q = f.Q - alpha * _grad_Q(P, I, T, f, h)
            f.Z = f.Z - alpha * _grad_Z(P, I, T, f, h)
            f.A = soft_threshold(f.A - alpha * _grad_A(P, I, T, f, h), alpha * h.lambda3)
            f.W = f.W - alpha * _grad_W(P, I, T, f, h)
            used_alpha = alpha
            alpha *= h.rho
            total, terms = objective(P, I, T, f, h)
            if not np.isfinite(total):
                raise DivergenceError(
                    f"objective became non-finite at iteration {it}; "
                    f"try a smaller alpha0 (current {h.alpha0})")
            trace.append(it, total, terms, used_alpha)
            # Stop only when the objective stops improving; an increase
            # keeps the loop alive so a runaway step reaches the guard
            # instead of masquerading as convergence.
            if 0.0 <= prev - total <= h.epsilon:
                stop_reason = "converged"
                break
            prev = total
    trace.stop_reason = stop_reason
    logger.info("fit stopped after %d iterations (%s), objective %.6g",
                trace.iters[-1], stop_reason, total)
    return f, trace


def masked_rmse(P, I, U: np.ndarray, V: np.ndarray) -> float:
    """Root mean squared reconstruction error over observed entries."""
    P = np.asarray(P, dtype=np.float64)
    I = np.asarray(I, dtype=np.float64)
    n_obs = float(I.sum())
    if n_obs == 0:
        return 0.0
    R = I * (P - U @ V)
    return float(np.sqrt((R * R).sum() / n_obs))
