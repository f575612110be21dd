"""What a fresh interpreter imports.  No stage loads scipy, and no module
of the package imports it: the fit applies K = Tn^T Tn, dense or from
its triples, in numpy.  `import zonefuse.cli` loads no numpy, so
`--threads` can still pin the BLAS pools when the CLI reads it.  The
benchmark tracer must still find every name it wraps.  Each check runs
in a fresh interpreter, so the imports of the test process itself do not
count, and the tracer's patches do not leak into other tests."""
import ast
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
print(json.dumps(sorted(sys.modules)))
"""

CLI = """
from zonefuse.cli import main
if main(sys.argv[1:]) != 0:
    raise SystemExit("verb failed")
"""


def modules_after(body: str, *args: str) -> list[str]:
    """The modules loaded after body runs in a new interpreter."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", PROBE.format(body=body), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded(package: str, body: str, *args: str) -> list[str]:
    """The modules of a package loaded after body runs in a new interpreter."""
    return [m for m in modules_after(body, *args) if m.split(".")[0] == package]


def prime(root: Path, users: int) -> Path:
    """An 8x8 city of `users` users, run once at beta 1.0."""
    spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=users,
                         days=1, obs_rate=0.6, seed=5)
    gen_synthetic_city(spec, root)
    config = write_city_config(spec, root, max_iter="30", k="4", method="crf",
                               feature="latent_v", beta="1.0")
    run(PipelineConfig.load(config))
    return root


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """The city of the beta-edit cache test: its rows of T with two or
    more entries hold more than r^2 / 100 entries, so the fit builds K
    dense."""
    return prime(tmp_path_factory.mktemp("imports"), 60)


@pytest.fixture(scope="module")
def few_users(tmp_path_factory):
    """Few enough users that those rows hold under r^2 / 100 entries, so
    the fit applies K from Tn's triples."""
    return prime(tmp_path_factory.mktemp("few-users"), 5)


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
    modules = modules_after(CLI, "run", "--set", "beta=0.3",
                            "--config", str(primed / "config.txt"))
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    # annotate lists its zones by a sort: np.unique would load numpy.ma
    assert "numpy.linalg" in modules and "numpy.ma" not in modules
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


def fit_notes(city: Path) -> dict:
    return json.loads((city / "out" / "manifest.json").read_text())["stages"]["fit"]["notes"]


def test_forced_fit_of_a_dense_K_loads_no_scipy(primed):
    assert verb(primed, "fit", "--force") == []
    assert fit_notes(primed)["k_path"] == "dense"


def test_forced_triples_fit_loads_no_scipy(few_users):
    assert verb(few_users, "fit", "--force") == []
    assert fit_notes(few_users)["k_path"] == "triples"


def imported(path: Path) -> list[str]:
    """The modules a source file imports; a relative import is "." plus
    its module, or "." alone for `from . import name`."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def test_no_module_imports_scipy():
    for path in sorted((SRC / "zonefuse").glob("*.py")):
        assert "scipy" not in (name.split(".")[0] for name in imported(path)), path.name


def test_zone_cluster_imports_no_package_module():
    # the clustering layer works on plain arrays and lattice shapes
    names = imported(SRC / "zonefuse" / "zone_cluster.py")
    assert "numpy" in names
    assert [n for n in names if n.startswith(".") or n.split(".")[0] == "zonefuse"] == []


def test_no_module_reads_csv_by_dict_reader():
    # every input table goes through sparse_io.read_columns
    for path in sorted((SRC / "zonefuse").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        assert "DictReader" not in names, path.name
