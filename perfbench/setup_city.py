"""Generate the seeded synthetic cities of one benchmark invocation.

Usage: python3 perfbench/setup_city.py SPEC_JSON OUT_JSON DIR SEED [DIR SEED ...]

SPEC_JSON holds the `SynthCitySpec` fields to set (all but the seed) plus
a "config" object of config-key overrides.  Each DIR SEED pair generates
one city and its config through the public `zonefuse.synth` API.  Writes
OUT_JSON: the seconds each city took, its GPS row count, the region
count, and the numeric library versions.  Imports happen before the
first city so they are not timed.
"""
from __future__ import annotations

import json
import platform
import sys
import time

import numpy as np
import scipy

from zonefuse.synth import SynthCitySpec, gen_synthetic_city, write_city_config


def openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main(argv: list[str]) -> int:
    fields = json.loads(argv[0])
    overrides = fields.pop("config")
    times, gps_rows = [], []
    for city_dir, seed in zip(argv[2::2], argv[3::2]):
        started = time.perf_counter()
        spec = SynthCitySpec(seed=int(seed), **fields)
        gen_synthetic_city(spec, city_dir)
        write_city_config(spec, city_dir, **overrides)
        times.append(time.perf_counter() - started)
        with open(f"{city_dir}/gps.csv") as fh:
            gps_rows.append(sum(1 for _ in fh) - 1)
    facts = {
        "setup_s": times, "gps_rows": gps_rows,
        "regions": spec.width * spec.height,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": openblas_version(),
    }
    with open(argv[1], "w") as fh:
        json.dump(facts, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
