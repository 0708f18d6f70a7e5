"""Start-up: ``scipy.signal``, ``scipy.special`` and ``scipy.linalg`` load at their first use, never at import.

``models.signal``, ``models.special`` and ``models.linalg`` are the package's
one binding each of them, lazy modules: ``scipy.signal`` loads at the first
``lfilter`` call, the other two at the first p-value and Cholesky factor. Each
behaviour is checked in a fresh interpreter, because the test process has long
since loaded the modules. A bound but unloaded module is in ``sys.modules``
while its submodules, which its package init imports, are not.
"""

import ast
import datetime
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import portmanteau

SRC = Path(portmanteau.__file__).resolve().parent
# The first lfilter calls of a process: an ARMA path and an ARMA(1,1) fit of it, as bytes.
FILTER = """
from portmanteau import Arma, ModelSpec, fit_arma_css, simulate
path = simulate(ModelSpec(model=Arma(phi=(0.5,), theta=(0.3,))), 200, 7)
out["path"] = path.tobytes().hex()
out["fit"] = fit_arma_css(path, 1, 1).residuals.values.tobytes().hex()
out["loaded_after_filter"] = "scipy.signal._signaltools" in sys.modules
"""


def _fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter on this package; it fills the dict ``out``, returned here."""
    body = f"import json, sys\nout = {{}}\n{code}\nprint(json.dumps(out))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", body, *args], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runs_that_never_filter_leave_scipy_signal_unloaded(tmp_path):
    z = np.random.default_rng(3).standard_normal(200)
    csv_path = tmp_path / "returns.csv"
    lines = [f"{datetime.date(2000, 1, 1) + datetime.timedelta(k)},{value!r}" for k, value in enumerate(z.tolist())]
    csv_path.write_text("date,return\n" + "\n".join(lines) + "\n", encoding="utf-8")
    config = {
        "schema": 1,
        "generator": {"model": {"kind": "tar", "phi1_lower": -1.5, "phi1_upper": 0.5}},
        "fitter": {"kind": "ar", "p": 1, "intercept": False},
        "n": [100],
        "m": [5],
        "statistics": ["Cm", "Q11", "M22"],
        "replications": 2,
        "master_seed": 5,
    }
    code = f"""
from portmanteau import cli
assert cli.main(["mc", "--config", sys.argv[1], "--workers", "1", "--out", sys.argv[2]]) == 0
assert cli.main(["test", sys.argv[3], "--fit", "ar:1"]) == 0
out["bound"] = "scipy.signal" in sys.modules
modules = ("scipy.signal._signaltools", "scipy.stats", "scipy.interpolate")
out["loaded"] = [name for name in modules if name in sys.modules]
{FILTER}
"""
    lazy = _fresh(code, json.dumps(config), str(tmp_path / "mc"), str(csv_path))
    assert lazy["bound"] and lazy["loaded"] == []
    assert lazy["loaded_after_filter"]

    # scipy.signal imported before the package: the binding is that module, and every output is the same.
    first = "import scipy.signal\nimport portmanteau\nout['same_module'] = portmanteau.models.signal is scipy.signal\n"
    eager = _fresh(first + FILTER)
    assert eager["same_module"]
    assert (eager["path"], eager["fit"]) == (lazy["path"], lazy["fit"])


def test_pool_workers_load_scipy_signal_themselves():
    """Forked before the parent loads the module, each worker loads it at its first filter: tables agree."""
    code = """
from dataclasses import replace
from portmanteau import experiment_from_dict, run_experiment
exp = experiment_from_dict({
    "schema": 1,
    "generator": {"model": {"kind": "arma", "phi": [0.5], "theta": [0.3]}},
    "fitter": {"kind": "arma", "p": 1, "q": 1},
    "n": [120], "m": [5], "statistics": ["Cm", "Q11"], "replications": 6, "master_seed": 11,
})
pooled = run_experiment(exp, workers=2)
out["loaded_after_pool"] = "scipy.signal._signaltools" in sys.modules
alone = run_experiment(exp, workers=1)
out["same"] = replace(pooled, elapsed=0.0) == replace(alone, elapsed=0.0)
out["fit_failures"] = alone.fit_failures
"""
    result = _fresh(code)
    assert not result["loaded_after_pool"]
    assert result["same"] and result["fit_failures"] < 6


def _calls(node: ast.AST) -> set:
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


def test_scipy_signal_has_one_lazy_binding():
    """No module imports scipy.signal; only models names it, at module level, and no function imports anything."""
    naming = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(alias.name.startswith("scipy.signal") for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert not module.startswith("scipy.signal"), path.name
                assert not (module == "scipy" and any(alias.name == "signal" for alias in node.names)), path.name
            elif isinstance(node, ast.Constant) and node.value == "scipy.signal":
                naming.add(path.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                dynamic = _calls(node) & {"__import__", "import_module", "find_spec", "LazyLoader"}
                assert not dynamic, f"{path.name}: {sorted(dynamic)} inside a function"
    assert naming == {"models.py"}


# The first p-values and Cholesky factors of a process, as each report's repr: Cm and D22 read
# dpotrf and gammaincc, Q11 chdtrc.
REPORTS = """
import numpy as np
from portmanteau import cm_test, evaluate_statistics, make_residual_series
series = make_residual_series(np.random.default_rng(5).standard_normal(300))
out["reports"] = [repr(cm_test(series, 10))]
out["reports"] += [repr(report) for report in evaluate_statistics(["Q11", "D22"], series, 10).values()]
"""
LAZY = ("scipy.signal.", "scipy.special.", "scipy.linalg.")


def _loaded() -> str:
    """Code listing the loaded submodules of the lazy packages, and scipy's array-API layer, as ``loaded``."""
    return f"loaded = sorted(k for k in sys.modules if k.startswith({LAZY!r}) or k == 'scipy._lib._array_api')\n"


def test_import_and_validate_load_no_lazy_package(monkeypatch):
    """The benchmark's import-and-validate of its three configs loads none of the three; a first cm_test does."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test; loading bench/run.py sets them
    bench = SRC.parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))  # bench/run.py imports bench/replay.py
    spec = importlib.util.spec_from_file_location("_startup_bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    configs = [run.experiment_config(w, w.batch, 4242) for w in run.WORKLOADS.values()]
    code = f"""
import portmanteau
from portmanteau.montecarlo import experiment_from_dict
for config in json.loads(sys.argv[1]):
    experiment_from_dict(config)
{_loaded()}out["after_setup"] = loaded
{REPORTS}
{_loaded()}out["after_test"] = loaded
"""
    lazy = _fresh(code, json.dumps(configs))
    assert len(configs) == 3 and lazy["after_setup"] == []
    assert any(name.startswith("scipy.special.") for name in lazy["after_test"])
    assert any(name.startswith("scipy.linalg.") for name in lazy["after_test"])

    # Both packages imported before this one: the bindings are those modules, and every report is the same.
    first = (
        "import scipy.special, scipy.linalg\nimport portmanteau\n"
        "out['same_module'] = (portmanteau.models.special, portmanteau.models.linalg) == (scipy.special, scipy.linalg)\n"
    )
    eager = _fresh(first + REPORTS)
    assert eager["same_module"]
    assert eager["reports"] == lazy["reports"]


def test_no_module_imports_scipy_special_or_linalg():
    """models binds them lazily; every other use reads that binding."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(name.startswith(("scipy.special", "scipy.linalg")) for name in names), path.name
