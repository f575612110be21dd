"""Command line interface.

One verb per pipeline stage plus `run` (all stages), `status` (which
stages a run would redo, and why) and `synth` (generate a synthetic city
and a matching config).  Exit codes: 0 success, 2 config error, 3 data
error, 4 numeric divergence.

Heavy numeric imports happen after argument parsing so `--threads` can
pin the BLAS thread pools before numpy loads.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from .errors import ConfigError, DataError, DivergenceError

STAGE_VERBS = ("segment", "ingest-gps", "ingest-poi", "fit", "cluster",
               "annotate")

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonefuse",
        description="Discover urban functional zones from POI and GPS data.")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="log stage progress")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_config_options(p):
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out-dir", help="override the output directory")
        p.add_argument("--seed", type=int, help="override the seed")

    def add_run_options(p):
        add_config_options(p)
        p.add_argument("--threads", type=int, default=0,
                       help="cap numeric thread pools (0 leaves them alone)")
        p.add_argument("--force", action="store_true",
                       help="rerun stages even when artifacts are fresh")

    for verb in STAGE_VERBS + ("run",):
        p = sub.add_parser(verb, help=f"run the {verb} stage"
                           if verb != "run" else "run every stage in order")
        add_run_options(p)

    p = sub.add_parser("status", help="print each stage as fresh, or stale "
                       "with the first reason")
    add_config_options(p)

    p = sub.add_parser("synth", help="generate a synthetic city and config")
    p.add_argument("--out", required=True, help="directory for the city files")
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--zones", type=int, default=4)
    p.add_argument("--users", type=int, default=2000)
    p.add_argument("--obs-rate", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=int, default=6)
    return parser


def _pin_threads(n: int) -> None:
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)


def _load_config(args):
    from .config import PipelineConfig

    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return PipelineConfig.load(args.config, overrides)


def _run_synth(args) -> int:
    from .synth import SynthCitySpec, gen_synthetic_city, write_city_config

    try:
        spec = SynthCitySpec(width=args.width, height=args.height,
                             n_zones=args.zones, n_users=args.users,
                             obs_rate=args.obs_rate, seed=args.seed,
                             level=args.level)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    paths = gen_synthetic_city(spec, args.out)
    config_path = write_city_config(spec, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    print(f"config: {config_path}")
    return 0


def _run_stages(args) -> int:
    from .pipeline import Pipeline

    cfg = _load_config(args)
    pipeline = Pipeline(cfg)
    if args.verb == "run":
        pipeline.run(force=args.force)
    else:
        pipeline.run_stage(args.verb, force=args.force)
    print(f"artifacts in {pipeline.out}")
    return 0


def _run_status(args) -> int:
    from .pipeline import Pipeline

    for stage, reason in Pipeline(_load_config(args)).status().items():
        print(f"{stage}: fresh" if reason is None else f"{stage}: stale ({reason})")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.verb not in ("synth", "status") and args.threads > 0:
        _pin_threads(args.threads)
    try:
        if args.verb == "synth":
            return _run_synth(args)
        if args.verb == "status":
            return _run_status(args)
        return _run_stages(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
