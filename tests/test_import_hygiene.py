"""What a fresh interpreter imports.  Only a fit whose M is below 1/16
dense loads scipy, for its sparse LU factor; ingest and a fit of a denser
M do not.  `import zonefuse.cli` loads no numpy, so `--threads` can still
pin the BLAS pools when the CLI reads it.  The
benchmark tracer must still find every name it wraps.  Each check runs
in a fresh interpreter, so the imports of the test process itself do not
count, and the tracer's patches do not leak into other tests."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zonefuse
from zonefuse.config import PipelineConfig
from zonefuse.pipeline import run
from zonefuse.synth import SynthCitySpec, gen_synthetic_city, write_city_config

SRC = Path(zonefuse.__file__).resolve().parents[1]

PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == {package!r})))
"""

CLI = """
from zonefuse.cli import main
if main(sys.argv[1:]) != 0:
    raise SystemExit("verb failed")
"""


def loaded(package: str, body: str, *args: str) -> list[str]:
    """The modules of a package loaded after body runs in a new interpreter."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    probe = PROBE.format(body=body, package=package)
    done = subprocess.run([sys.executable, "-c", probe, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """The 8x8 city of the beta-edit cache test, run once at beta 1.0."""
    root = tmp_path_factory.mktemp("imports")
    spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=60,
                         days=1, obs_rate=0.6, seed=5)
    gen_synthetic_city(spec, root)
    config = write_city_config(spec, root, max_iter="30", k="4", method="crf",
                               feature="latent_v", beta="1.0")
    run(PipelineConfig.load(config))
    return root


def verb(primed, *args: str) -> list[str]:
    return loaded("scipy", CLI, *args, "--config", str(primed / "config.txt"))


def test_importing_the_pipeline_loads_no_scipy():
    assert loaded("scipy", "import zonefuse.pipeline") == []


def test_importing_the_cli_loads_no_numpy():
    # the BLAS thread variables --threads sets are read when numpy loads
    assert loaded("numpy", "import zonefuse.cli") == []


def test_status_loads_no_scipy(primed):
    assert verb(primed, "status") == []


def test_cached_beta_edit_loads_no_scipy(primed):
    out = primed / "out"
    labels = (out / "labels.csv").read_bytes()
    before = json.loads((out / "manifest.json").read_text())["stages"]
    assert verb(primed, "run", "--set", "beta=3.0") == []
    after = json.loads((out / "manifest.json").read_text())["stages"]
    # annotate reran, so it read poi.coo, and still needed no scipy
    assert (out / "labels.csv").read_bytes() != labels
    assert [s for s in after if after[s] != before[s]] == ["annotate", "cluster"]


def test_forced_poi_ingest_loads_no_scipy(primed):
    assert verb(primed, "ingest-poi", "--force") == []


def test_benchmark_tracer_installs():
    # install reads each wrapped save/load method from its class body
    # and raises KeyError when one is gone
    perfbench = SRC.parent / "perfbench"
    body = (f"sys.path.insert(0, {str(perfbench)!r})\n"
            "import tracer\ntracer.install(tracer.Recorder('probe'))")
    assert "zonefuse.pipeline" in loaded("zonefuse", body)


def test_forced_gps_ingest_loads_no_scipy(primed):
    assert verb(primed, "ingest-gps", "--force") == []


def test_forced_fit_of_a_dense_M_loads_no_scipy(primed):
    assert verb(primed, "fit", "--force") == []
    notes = json.loads((primed / "out" / "manifest.json").read_text())["stages"]["fit"]["notes"]
    assert notes["q_factor"] == "cholesky"


def test_fit_of_a_sparse_M_loads_scipy_sparse():
    # a T with one entry per column: M is diagonal, 1/40 dense.  scipy's
    # own scipy.sparse.linalg loads scipy.linalg, so that is not checked
    body = ("import numpy as np\n"
            "from zonefuse.latent_fusion import Hyperparams, fit\n"
            "T = np.zeros((48, 40)); T[np.arange(40), np.arange(40)] = 1.0\n"
            "_, trace = fit(np.ones((3, 40)), np.ones(40, bool), T,"
            " Hyperparams(k=2, max_iter=2))\n"
            "assert trace.q_factor == 'splu'")
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(loaded("scipy", body))
