"""Acceptance suite: one end-to-end check per shipped guarantee.

Each test prints a single bracketed verdict line with the numbers it
measured, then asserts.  The suite covers solver correctness (gradients,
descent, also at city-scale activity counts, recovery, prox), CRF
optimality against an exhaustive oracle, whole-pipeline recovery on
generated cities, annotation algebra, grid geometry, and byte-level
determinism.
"""
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from zonefuse import latent_fusion
from zonefuse.cli import main as cli_main
from zonefuse.config import PipelineConfig
from zonefuse.geo_grid import GeoPoint, cell_spans, decode, encode, haversine_m, load_labels
from zonefuse.latent_fusion import (
    Hyperparams,
    LatentFactors,
    fit,
    gradients,
    objective,
    prox_step_A,
    soft_threshold,
)
from zonefuse.pipeline import Pipeline
from zonefuse.poi_ingest import PoiMatrix
from zonefuse.sparse_io import CooMatrix
from zonefuse.synth import (
    SynthCitySpec,
    gen_synthetic_city,
    planted_labels,
    write_city_config,
)
from zonefuse.zone_annotate import build_profiles, zone_g
from zonefuse.zone_cluster import (
    ZoneModel,
    adjusted_rand_index,
    crf_fit,
    energy,
    fit_gaussians,
    icm_map,
    kmeans,
)
from test_zone_cluster import exhaustive_map


def verdict(name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    return line


# ---------------------------------------------------------------- solver


def random_instance(seed: int, p: int = 5, r: int = 7, k: int = 3):
    """A small fusion problem with every term active: P, the observed
    regions and T."""
    rng = np.random.default_rng(seed)
    q = 2 * 24 * r
    P = rng.poisson(3.0, size=(p, r)).astype(np.float64)
    observed = rng.random(r) < 0.6
    T = sp.random(q, r, density=0.05, format="csr",
                  random_state=np.random.RandomState(seed))
    T.data *= 4.0
    return P, observed, T


def random_factors(seed: int, p: int, r: int, q: int, k: int) -> LatentFactors:
    rng = np.random.default_rng(seed + 1000)
    return LatentFactors(
        U=rng.normal(0.0, 0.5, (p, k)),
        V=rng.normal(0.0, 0.5, (k, r)),
        Q=rng.normal(0.0, 0.5, (k, q)),
        Z=rng.normal(0.0, 0.5, (k, r)),
        A=rng.normal(0.0, 0.5, (p, r)),
        W=rng.normal(0.0, 0.5, (k, k)),
    )


def smooth_objective(P, observed, T, f, h) -> float:
    """Objective minus the L1 term, the part plain gradients cover."""
    total, terms = objective(P, observed, T, f, h)
    return total - terms["l1"]


def fd_gradient(P, observed, T, f, h, name: str, step: float = 1e-5) -> np.ndarray:
    arr = getattr(f, name)
    out = np.empty_like(arr)
    flat, oflat = arr.ravel(), out.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = smooth_objective(P, observed, T, f, h)
        flat[i] = orig - step
        lo = smooth_objective(P, observed, T, f, h)
        flat[i] = orig
        oflat[i] = (hi - lo) / (2.0 * step)
    return out


def test_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        P, observed, T = random_instance(seed)
        # converted once here, not on each of the oracle's calls
        T = CooMatrix.of(T)
        h = Hyperparams(k=3, seed=seed)
        f = random_factors(seed, P.shape[0], P.shape[1], T.shape[0], 3)
        analytic = gradients(P, observed, T, f, h)
        for name in ("U", "V", "Q", "Z", "A", "W"):
            fd = fd_gradient(P, observed, T, f, h, name)
            rel = np.linalg.norm(fd - analytic[name]) / max(
                np.linalg.norm(analytic[name]), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    line = verdict("gradients vs finite differences", ok,
                   f"20 instances x 6 blocks, worst rel err {worst:.2e} "
                   f"(tol 1e-4), {elapsed:.1f}s (budget 10s)")
    assert ok, line


def test_02_objective_never_increases():
    worst_rise = -np.inf
    for seed in range(20):
        P, observed, T = random_instance(seed)
        h = Hyperparams(seed=seed, max_iter=500)
        _, trace = fit(P, observed, T, h)
        rises = np.diff(np.asarray(trace.totals))
        worst_rise = max(worst_rise, float(rises.max()))
    ok = worst_rise <= 1e-9
    line = verdict("objective monotone descent", ok,
                   f"20 instances x 500 iterations, worst increase "
                   f"{worst_rise:.2e} (tol 1e-9)")
    assert ok, line


def test_03_masked_factorization_recovers_planted_matrix():
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p, r, k = 8, 12, 3
        P = rng.normal(0.0, 1.0, (p, k)) @ rng.normal(0.0, 1.0, (k, r))
        observed = np.ones(r, dtype=bool)
        T = sp.csr_matrix((4, r))
        h = Hyperparams(k=k, lambda1=0.0, lambda2=0.0, lambda3=0.0,
                        lambda4=0.0, lambda5=0.0, max_iter=2000, seed=seed)
        f, trace = fit(P, observed, T, h)
        worst = max(worst, float(np.sqrt(np.mean((P - f.U @ f.V) ** 2))))
    ok = worst <= 1e-2
    line = verdict("planted low-rank recovery", ok,
                   f"3 planted instances, worst RMSE {worst:.2e} "
                   f"(tol 1e-2) within 2000 iterations")
    assert ok, line


def test_04_prox_step_is_exact_soft_threshold_and_l1_controls_sparsity():
    # with orthonormal-row U (U U^T = I) one A step lands on U Z exactly
    P, observed, T = random_instance(0, p=5, r=7)
    h = Hyperparams(k=5, lambda2=0.8, lambda3=0.5, seed=0)
    f0 = random_factors(0, 5, 7, T.shape[0], 5)
    f0.U = np.linalg.qr(f0.U)[0]
    A1 = prox_step_A(f0, h)
    expected = soft_threshold(f0.U @ f0.Z, h.lambda3 / h.lambda2)
    exact = bool(np.allclose(A1, expected, rtol=0.0, atol=1e-12)
                 and np.array_equal(A1 == 0.0, expected == 0.0))

    nnzs = []
    for lam3 in (0.01, 0.1, 1.0):
        h = Hyperparams(k=3, lambda3=lam3, max_iter=800, seed=0)
        f, _ = fit(P, observed, T, h)
        nnzs.append(int((np.abs(f.A) > 0.0).sum()))
    monotone = nnzs[0] >= nnzs[1] >= nnzs[2]
    ok = exact and monotone
    line = verdict("soft-threshold prox and L1 sparsity", ok,
                   f"prox step on U Z exact={exact}, nnz(A) over "
                   f"lambda3 0.01/0.1/1 = {nnzs} (non-increasing)")
    assert ok, line


def test_12_descent_survives_large_activity_counts():
    # week-long traces scale T up; the synth weights must still descend
    P, observed, T = random_instance(0)
    T.data *= 400.0
    h = Hyperparams(k=3, lambda1=5e-3, lambda2=1e-3, lambda3=1e-3,
                    lambda4=1.0, lambda5=3.0, epsilon=0.0, max_iter=500)
    _, trace = fit(P, observed, T, h)
    totals = np.asarray(trace.totals)
    worst_rise = float(np.diff(totals).max())
    ok = len(totals) == 501 and worst_rise <= 1e-9
    line = verdict("descent at 400x activity counts", ok,
                   f"{len(totals) - 1} iterations, objective {totals[0]:.1f} "
                   f"-> {totals[-1]:.1f}, worst increase {worst_rise:.2e} "
                   f"(tol 1e-9)")
    assert ok, line


def test_13_q_eliminated_objective_is_the_objective_at_the_best_q():
    # fit traces the objective with Q at its minimiser l1 G^-1 Z Tn^T,
    # G = l1 Z Z^T + l5 I, computed from k x k matrices and Z K alone
    worst = 0.0
    for seed in range(20):
        P, observed, T = random_instance(seed)
        h = Hyperparams(k=3, seed=seed, lambda1=0.7, lambda5=0.3)
        f = random_factors(seed, P.shape[0], P.shape[1], T.shape[0], 3)
        Tn, nonempty = latent_fusion._unit_columns(T)
        _, _, transform, q_sq = latent_fusion._q_step(
            f.Z, latent_fusion._k_times(Tn)[1](f.Z), nonempty, h)
        eliminated, terms = latent_fusion._objective(P[:, observed], f.V[:, observed],
                                                     f.Z[:, observed], transform, q_sq, f, h)
        G = h.lambda1 * f.Z @ f.Z.T + h.lambda5 * np.eye(3)
        f.Q = h.lambda1 * np.linalg.solve(G, f.Z @ Tn.toarray().T)
        total, oracle = objective(P, observed, T, f, h)
        worst = max(worst, abs(eliminated - total) / abs(total),
                    *(abs(terms[t] - oracle[t]) / abs(total) for t in terms))
    ok = worst <= 1e-12
    line = verdict("Q-eliminated objective", ok,
                   f"20 instances, worst relative gap to objective() at the "
                   f"best Q {worst:.1e} (tol 1e-12)")
    assert ok, line


# ------------------------------------------------------------- clustering


def blob_instance(seed: int, sigma: float = 0.3, sep_factor: float = 5.0):
    """3x3 grid, two Gaussian label blobs separated by >= 5 sigma."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, 9)
    if truth.min() == truth.max():
        truth[0] = 1 - truth[0]
    mu0 = rng.normal(0.0, 1.0, 2)
    direction = rng.normal(0.0, 1.0, 2)
    direction /= np.linalg.norm(direction)
    gap = sigma * (sep_factor + rng.uniform(0.0, 1.0))
    means = np.stack([mu0, mu0 + gap * direction])
    X = means[truth] + sigma * rng.normal(size=(9, 2))
    return X.T, truth


def test_05_crf_attains_exhaustive_minimum_on_small_grids():
    t0 = time.perf_counter()
    shape = (3, 3)
    hits = 0
    never_above_init = True
    for seed in range(100):
        F, _ = blob_instance(seed)
        model = crf_fit(F, shape, 2, beta=0.4, seed=seed)
        e_fit = energy(model.labels, F, model, shape)
        e_best = energy(exhaustive_map(F, model, shape), F, model, shape)
        init_labels, _ = kmeans(F, 2, seed=seed)
        e_init = energy(init_labels, F, model, shape)
        hits += e_fit <= e_best + 1e-9
        never_above_init &= e_fit <= e_init + 1e-9
    elapsed = time.perf_counter() - t0
    ok = hits >= 90 and never_above_init and elapsed < 30.0
    line = verdict("small-grid exhaustive optimality", ok,
                   f"{hits}/100 at the exhaustive minimum (need >=90), "
                   f"never above k-means init energy={never_above_init}, "
                   f"{elapsed:.1f}s (budget 30s)")
    assert ok, line


def test_06_crf_degenerate_cases():
    shape = (3, 3)
    argmax_exact = True
    for seed in range(20):
        F, _ = blob_instance(seed, sigma=0.5, sep_factor=2.0)
        model = crf_fit(F, shape, 2, beta=0.0, seed=seed)
        X = F.T
        nll = np.stack([
            0.5 * (np.log(2.0 * np.pi * model.variances[j]).sum()
                   + ((X - model.means[j]) ** 2 / model.variances[j]).sum(axis=1))
            for j in range(2)], axis=1)
        argmax_exact &= bool(np.array_equal(model.labels, nll.argmin(axis=1)))

    # icm_map asserts non-increasing energy internally on every sweep
    monotone = True
    for seed in range(10):
        F, _ = blob_instance(seed + 200, sigma=0.6, sep_factor=2.0)
        rng = np.random.default_rng(seed)
        start = rng.integers(0, 2, 9)
        if start.min() == start.max():
            start[0] = 1 - start[0]
        means, variances = fit_gaussians(F, start, 2)
        model = ZoneModel(means=means, variances=variances, beta=0.7,
                          labels=start)
        final = icm_map(start, F, model, shape)
        monotone &= energy(final, F, model, shape) <= energy(start, F, model, shape) + 1e-9
    ok = argmax_exact and monotone
    line = verdict("zero-smoothing and ICM degeneracies", ok,
                   f"beta=0 labels equal Gaussian argmax on 20 instances="
                   f"{argmax_exact}, ICM energy non-increasing on 10 "
                   f"random starts={monotone}")
    assert ok, line


# ---------------------------------------------------------- city recovery


FUSED_PAIRS = dict(feature="latent_v", method="crf", k="10", beta="1.0",
                   max_iter="2000")
BASELINE_PAIRS = dict(feature="raw_poi", method="kmeans", max_iter="50")


def run_city_variant(spec: SynthCitySpec, city_dir, tag: str, pairs) -> Path:
    cfg_path = write_city_config(spec, city_dir, out_dir=f"out_{tag}", **pairs)
    cfg_path = cfg_path.rename(city_dir / f"config_{tag}.txt")
    Pipeline(PipelineConfig.load(cfg_path)).run()
    return city_dir / f"out_{tag}"


@pytest.fixture(scope="module")
def city_recovery(tmp_path_factory):
    """Five seeded 32x32 cities, fused features vs the raw-POI baseline."""
    t0 = time.perf_counter()
    rows = []
    for seed in range(5):
        spec = SynthCitySpec(width=32, height=32, n_zones=4, n_users=2000,
                             obs_rate=0.10, seed=seed)
        city_dir = tmp_path_factory.mktemp(f"city{seed}")
        gen_synthetic_city(spec, city_dir)
        truth = planted_labels(32, 32, 4)

        fused_out = run_city_variant(spec, city_dir, "fused", FUSED_PAIRS)
        base_out = run_city_variant(spec, city_dir, "base", BASELINE_PAIRS)

        poi = PoiMatrix.load(fused_out / "poi.coo", fused_out / "poi.json")
        observed = poi.mask
        row = {"seed": seed, "observed": int(observed.sum())}
        for tag, out in (("fused", fused_out), ("base", base_out)):
            _, labels = load_labels(out / "labels.csv")
            blob = np.bincount(labels[~observed],
                               minlength=labels.max() + 1).argmax()
            row[f"{tag}_ari"] = adjusted_rand_index(labels, truth)
            row[f"{tag}_lost"] = int((labels[observed] == blob).sum())
        rows.append(row)
    return rows, time.perf_counter() - t0


@pytest.mark.slow
def test_07_city_recovery_with_fused_features_beats_poi_baseline(city_recovery):
    rows, elapsed = city_recovery
    fused = [r["fused_ari"] for r in rows]
    base = [r["base_ari"] for r in rows]
    per_seed = ", ".join(f"s{r['seed']} {f:.3f}/{b:.3f}"
                         for r, f, b in zip(rows, fused, base))
    reaches = min(fused) >= 0.7
    exceeds = all(f > b for f, b in zip(fused, base))
    in_time = elapsed < 300.0
    ok = reaches and exceeds and in_time
    line = verdict(
        "city recovery, fused features vs raw-POI baseline", ok,
        f"ARI fused/baseline per seed: {per_seed}; min fused "
        f"{min(fused):.3f} (need >=0.7: {reaches}), exceeds baseline on "
        f"all seeds: {exceeds}, {elapsed:.0f}s (budget 300s)")
    assert ok, line


@pytest.mark.slow
def test_08_observed_regions_never_lose_their_label(city_recovery):
    rows, _ = city_recovery
    fused_lost = [r["fused_lost"] for r in rows]
    base_lost = [r["base_lost"] for r in rows]
    fused_keeps_all = all(n == 0 for n in fused_lost)
    baseline_drops_some = any(n > 0 for n in base_lost)
    ok = fused_keeps_all and baseline_drops_some
    line = verdict(
        "observed regions keep informative labels", ok,
        f"fused lost-region counts {fused_lost} (need all 0), baseline "
        f"lost-region counts {base_lost} (need >0 on some seed)")
    assert ok, line


# ------------------------------------------------------------- annotation


def test_09_annotation_identities_and_hand_example():
    worst_sum = 0.0
    peaks_ok = True
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_zones = int(rng.integers(2, 7))
        labels = rng.integers(0, n_zones, 30)
        labels[:n_zones] = np.arange(n_zones)
        P = rng.poisson(2.0, size=(8, 30)).astype(np.float64)
        mask = (P.sum(axis=0) > 0).astype(bool)
        poi = PoiMatrix(P=P, mask=mask,
                        categories=[f"cat {i}" for i in range(8)])
        profiles = [p for p in build_profiles(labels, poi) if p.annotatable]
        if len(profiles) < 2:
            continue
        checked += 1
        total = np.sum([p.g for p in profiles], axis=0)
        worst_sum = max(worst_sum, float(np.abs(total).max()))
        peaks_ok &= all(p.npr.max() == 1.0 for p in profiles)

    g = zone_g([np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([1.0, 1.0])])
    hand_exact = (np.array_equal(g[0], [1.0, -2.0])
                  and np.array_equal(g[1], [-2.0, 1.0])
                  and np.array_equal(g[2], [1.0, 1.0]))
    ok = worst_sum <= 1e-12 and peaks_ok and hand_exact and checked >= 15
    line = verdict("annotation identities and hand example", ok,
                   f"{checked} random runs, worst |sum G| {worst_sum:.1e} "
                   f"(tol 1e-12), every NPR peaks at exactly 1: {peaks_ok}, "
                   f"three-zone hand example exact: {hand_exact}")
    assert ok, line


# ----------------------------------------------------------- grid geometry


def test_10_geohash_roundtrip_refinement_and_cell_size():
    rng = np.random.default_rng(7)
    pts = [GeoPoint(float(lat), float(lon))
           for lat, lon in zip(rng.uniform(-89.9, 89.9, 1000),
                               rng.uniform(-179.9, 179.9, 1000))]
    roundtrip = all(decode(encode(p, level)).contains(p)
                    for p in pts for level in range(1, 13))
    refinement = all(encode(p, 12).code[:level] == encode(p, level).code
                     for p in pts for level in range(1, 12))

    lat_span, lon_span = cell_spans(6)
    at = GeoPoint(35.78, -78.68)
    ns = haversine_m(at, GeoPoint(at.lat + lat_span, at.lon))
    ew = haversine_m(at, GeoPoint(at.lat, at.lon + lon_span))
    # a level-6 cell spans 360 / 2^15 degrees of longitude: 1222 m at the
    # equator, shrunk by the cosine of the latitude
    ew_ref = 2.0 * np.pi * 6_371_000.0 / 2 ** 15 * np.cos(np.radians(at.lat))
    ns_err = abs(ns - 609.4) / 609.4
    ew_err = abs(ew - ew_ref) / ew_ref
    dims_ok = ns_err <= 0.01 and ew_err <= 0.01
    ok = roundtrip and refinement and dims_ok
    line = verdict(
        "geohash round-trip, refinement, cell size", ok,
        f"1000-point round-trip levels 1-12: {roundtrip}, prefix "
        f"refinement: {refinement}, level-6 cell at 35.78N measures "
        f"{ew:.0f}m x {ns:.0f}m vs {ew_ref:.0f}m x 609.4m "
        f"(rel err {ew_err:.1%} / {ns_err:.1%}, tol 1%)")
    assert ok, line


# ------------------------------------------------------------ determinism


def test_11_deterministic_rerun_is_byte_identical(tmp_path):
    spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=40,
                         obs_rate=0.5, days=1, seed=9)
    gen_synthetic_city(spec, tmp_path)
    cfg = write_city_config(spec, tmp_path, feature="latent_v", method="crf",
                            k="4", beta="1.0", max_iter="150")
    assert cli_main(["run", "--config", str(cfg), "--threads", "1"]) == 0
    out = tmp_path / "out"
    first = {name: (out / name).read_bytes()
             for name in ("labels.csv", "report.csv")}
    assert cli_main(["run", "--config", str(cfg), "--threads", "1",
                     "--force"]) == 0
    second = {name: (out / name).read_bytes()
              for name in ("labels.csv", "report.csv")}
    identical = first == second
    ok = identical
    line = verdict("deterministic rerun byte-identity", ok,
                   f"labels.csv and report.csv byte-identical across "
                   f"deterministic reruns: {identical}")
    assert ok, line
