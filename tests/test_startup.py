"""Start-up: ``scipy.signal`` loads at the first ``lfilter`` call, never at import.

``models.signal`` is the package's one binding of ``scipy.signal``, a lazy
module. Each behaviour is checked in a fresh interpreter, because the test
process has long since loaded the module. A bound but unloaded module is in
``sys.modules`` while its submodules, which its package init imports, are not.
"""

import ast
import datetime
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
