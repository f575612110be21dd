"""zonefuse benchmark: timed `zonefuse run` on seeded synthetic cities.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Set-up generates the workload's cities from --seed through
`zonefuse.synth`; the median set-up time is `setup_s`.  The timed part
then launches `python3 -m zonefuse.cli run` as a child process, one after
another and cycling through the cities, until --seconds have passed,
checks every run's outputs, and reports the median wall time, peak
resident memory and ARI against the planted zones.  With --trace 1 one
more run, traced by perfbench/tracer.py, comes first and the per-layer
metrics are printed instead.  The metric names and units come from
BENCHMARK.json; the last line of standard output is one JSON object with
the result.  See perfbench/README.md.

The driver imports only the standard library, so the pipeline children
do not inherit a large resident set from it through fork.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, STAGES, summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# distinct cities per invocation, all drawn from --seed: each is set up
# once (setup_s is the median) and the timed runs cycle through them, so
# seed-to-seed differences in clustering work average out within a run
CITIES = 3
ZONES = 4
# priming uses the second value; timed runs alternate starting from the first
RETUNE_BETAS = ("2.0", "1.0")
# no new run starts after HARD_STOP_S and every child is killed at
# KILL_S, both counted from the start of the invocation, which may take 180 s
HARD_STOP_S = 120.0
KILL_S = 170.0
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One seeded city plus the config keys the benchmark pins for it."""

    width: int
    height: int
    users: int
    config: dict = field(default_factory=dict)
    # retune: prime once in set-up, then alternate beta without --force
    retune: bool = False


FUSED = {"method": "crf", "feature": "latent_v"}

WORKLOADS = {
    # the paper's fused pipeline at the reference 32x32 size; fit dominates
    "city32-fused": Workload(32, 32, 400, {**FUSED, "max_iter": 150}),
    # ingest-gps dominates; raw-POI k-means bypasses the CRF, and the
    # timezone and weekday filter exercise the per-row time paths
    "city16-gps": Workload(16, 16, 600, {
        "method": "kmeans", "feature": "raw_poi", "max_iter": 50,
        "timezone": "UTC+8", "weekdays_only": "true"}),
    # 4096 regions: ICM, adjacency, GeoJSON and per-region solver cost
    "city64-fused": Workload(64, 64, 400, {**FUSED, "max_iter": 30}),
    # README quick-start city; the edit-and-rerun loop through the stage cache
    "quickstart-retune": Workload(16, 16, 600, {**FUSED, "max_iter": 200},
                                  retune=True),
}

# the 8x8 city of the deterministic-rerun acceptance check
SMOKE = {"width": 8, "height": 8, "users": 40, "days": 1, "obs_rate": 0.5,
         "config": {"k": 4, "max_iter": 150}}


class Interrupted(Exception):
    pass


def _on_term(signum, frame):
    raise Interrupted(f"signal {signum}")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_ENV_VARS:
        env[var] = str(threads)
    return env


def run_child(argv, env, began, log_path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS MB).

    The child is killed KILL_S after `began` (a time.monotonic() value)
    and always reaped before returning.
    """
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(KILL_S - (time.monotonic() - began), 1.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_labels(path: Path) -> tuple[list[str], list[int]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [r["geohash"] for r in rows], [int(r["label"]) for r in rows]


def adjusted_rand_index(a: list[int], b: list[int]) -> float:
    """ARI from the contingency table, written here so the check does not
    rely on the implementation under test."""
    def pairs(counts):
        return sum(c * (c - 1) / 2.0 for c in counts)
    sum_ij = pairs(Counter(zip(a, b)).values())
    sum_a, sum_b = pairs(Counter(a).values()), pairs(Counter(b).values())
    expected = sum_a * sum_b / pairs([len(a)])
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def check_outputs(out: Path, truth_codes: list[str], zones: int) -> list[int]:
    """The output check of one run; returns its labels or raises ValueError."""
    manifest = json.loads((out / "manifest.json").read_text())
    if sorted(manifest.get("stages", {})) != sorted(STAGES):
        raise ValueError(f"manifest lists stages {sorted(manifest.get('stages', {}))}")
    codes, labels = read_labels(out / "labels.csv")
    if codes != truth_codes:
        raise ValueError(f"labels.csv has {len(codes)} rows, not the "
                         f"{len(truth_codes)} regions in grid order")
    if any(not 0 <= x < zones for x in labels):
        raise ValueError(f"labels.csv has labels outside [0, {zones})")
    if not (out / "report.txt").is_file():
        raise ValueError("report.txt missing")
    return labels


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class City:
    """One generated city of a workload and what its runs produced."""

    path: Path
    truth_codes: list[str]
    truth: list[int]
    runs: int = 0
    ari: float | None = None
    walls: list[float] = field(default_factory=list)
    first_bytes: dict[str, bytes] = field(default_factory=dict)


def set_up(wl: Workload, name: str, seed: int, smoke: bool, work: Path,
           env: dict, run_argv: list[str], began: float,
           log: Path) -> tuple[list[City], list[float], dict]:
    """Generate CITIES cities from the seed (and prime them for retune)."""
    spec = {"width": wl.width, "height": wl.height, "n_users": wl.users,
            "config": dict(wl.config)}
    if smoke:
        spec.update(width=SMOKE["width"], height=SMOKE["height"],
                    n_users=SMOKE["users"], days=SMOKE["days"],
                    obs_rate=SMOKE["obs_rate"])
        spec["config"].update(SMOKE["config"])
    dirs = [work / f"city{j}" for j in range(CITIES)]
    argv = [sys.executable, str(BENCH_DIR / "setup_city.py"), json.dumps(spec),
            str(work / "setup.json")]
    for j, d in enumerate(dirs):
        argv += [str(d), str(seed * CITIES + j)]
    code, _, _ = run_child(argv, env, began, log)
    if code != 0:
        raise RuntimeError(f"{name}: city set-up failed with exit code {code}")
    facts = json.loads((work / "setup.json").read_text())
    setup_times = facts.pop("setup_s")
    cities = [City(d, *read_labels(d / "truth_labels.csv")) for d in dirs]
    if wl.retune:
        for j, city in enumerate(cities):
            code, wall, _ = run_child(
                run_argv + ["--config", str(city.path / "config.txt"),
                            "--set", f"beta={RETUNE_BETAS[1]}"], env, began, log)
            if code != 0:
                raise RuntimeError(f"{name}: priming run failed with exit code {code}")
            setup_times[j] += wall
            # the second timed run on this city goes back to this beta
            for fname in ("labels.csv", "report.csv"):
                city.first_bytes[RETUNE_BETAS[1] + fname] = (city.path / "out" / fname).read_bytes()
    return cities, setup_times, facts


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 threads: int, smoke: bool) -> dict:
    """One benchmark invocation: set-up, timed runs, optional traced run."""
    wl = WORKLOADS[name]
    began = time.monotonic()
    env = child_env(threads)
    work = WORK / f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    log = work / "children.log"
    run_argv = [sys.executable, "-m", "zonefuse.cli", "run", "--threads", str(threads)]
    rss, problems, traced = [], [], None
    attempted = failed = 0

    def one_run(city: City, traced_run: bool):
        nonlocal attempted, failed
        argv = run_argv + ["--config", str(city.path / "config.txt")]
        variant = ""
        if wl.retune:
            # each run edits beta, so nothing is fresh from the run before
            variant = RETUNE_BETAS[city.runs % 2]
            argv += ["--set", f"beta={variant}"]
        else:
            argv.append("--force")
        spans = work / "spans.json"
        if traced_run:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans),
                    f"{name}:{seed}:{attempted}"] + argv[3:]
        code, wall, peak = run_child(argv, env, began, log)
        attempted += 1
        city.runs += 1
        out = city.path / "out"
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            labels = check_outputs(out, city.truth_codes, ZONES)
            for fname in ("labels.csv", "report.csv"):
                data = (out / fname).read_bytes()
                if city.first_bytes.setdefault(variant + fname, data) != data:
                    raise ValueError(f"{fname} differs from an earlier run "
                                     f"of the same inputs")
        except (OSError, ValueError, KeyError) as exc:
            failed += 1
            problems.append(f"run {attempted} on {city.path.name}: {exc}")
            return None
        if traced_run:
            return summarize(json.loads(spans.read_text()), out, wall)
        city.walls.append(wall)
        rss.append(peak)
        if city.ari is None:
            city.ari = adjusted_rand_index(labels, city.truth)
        return wall

    try:
        work.mkdir(parents=True)
        cities, setup_times, facts = set_up(wl, name, seed, smoke, work, env,
                                            run_argv, began, log)
        if trace:
            # first, so its inputs (and retune beta) do not depend on timing
            traced = one_run(cities[0], True)
        deadline = time.monotonic() + seconds
        timed = 0
        # round-robin over the cities until the deadline, and at least until
        # one city has run twice, so the byte-identity check always applies
        while (timed <= CITIES or time.monotonic() < deadline) \
                and time.monotonic() - began < HARD_STOP_S:
            one_run(cities[timed % CITIES], False)
            timed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for p in problems:
        print(f"{name}: FAILED {p}", file=sys.stderr)
    walls = [w for c in cities for w in c.walls]
    if any(c.ari is None for c in cities) or (trace and traced is None):
        raise RuntimeError(f"{name}: a city has no run that passed its output check")
    q1, med, q3 = quartiles(walls)
    ari = statistics.fmean(c.ari for c in cities)
    env_line = {"workload": name, "seed": seed, "smoke": smoke,
                "nproc": len(os.sched_getaffinity(0)), "threads": threads,
                "city_seeds": [seed * CITIES + j for j in range(CITIES)], **facts}
    print("env " + json.dumps(env_line, sort_keys=True))
    print(f"{name}: run_s median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={len(walls)}"
          f"  ari={ari:.6f}  peak_rss_mb={statistics.median(rss):.1f}"
          f"  setup_s={statistics.median(setup_times):.4f}"
          f"  failed_frac={failed}/{attempted}")
    if trace:
        values = dict(traced)
        values["trace.overhead_s"] = traced["trace.run_s"] - statistics.median(cities[0].walls)
        print(f"{name}: traced run_s={values['trace.run_s']:.4f} = self "
              + " + ".join(f"{layer} {values[layer + '.self_s']:.4f}" for layer in LAYERS)
              + f" + unattributed {values['trace.unattributed_s']:.4f};"
              f" overhead {values['trace.overhead_s']:+.4f}")
    else:
        values = {"run_s": med, "ari_plus_1": 1.0 + ari,
                  "peak_rss_mb": statistics.median(rss),
                  "setup_s": statistics.median(setup_times)}
    units = metric_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not "
                           f"match BENCHMARK.json")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS thread cap for the pipeline (at most nproc)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced and traced, on an 8x8 city")
    args = parser.parse_args(argv)
    if not (SRC / "zonefuse" / "__init__.py").is_file():
        print(f"benchmark: no zonefuse sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(args.threads, nproc))
    signal.signal(signal.SIGTERM, _on_term)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.smoke else (bool(args.trace),)
    seconds = 0.0 if args.smoke else args.seconds
    results = {}
    try:
        for name in names:
            for trace in modes:
                key = f"{name}/trace{int(trace)}"
                results[key] = run_workload(name, args.seed, seconds, trace,
                                            threads, args.smoke)
    except (RuntimeError, Interrupted) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    # a measured result reports failed runs through "correct"; the smoke
    # check turns them into its exit code
    return 1 if args.smoke and not all(r["correct"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
