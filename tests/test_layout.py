"""Module layout: the validation oracles in reference.py stay off the production path.

``reference.py`` imports from the production modules; none of them may import
it or any name it defines, so the oracles cannot drift back into the
simulate -> fit -> correlate -> statistic -> p-value path. The package keeps
the old submodule paths of two oracles that tests import directly, and those
must resolve to the reference objects.

Two guards keep the statistic battery to one implementation: every
``TestReport`` is built in ``diagnostics._evaluate``, and the Li-Mak pair
("Lb", "Lbw") is written once, as ``diagnostics.VARIANCE_STATISTICS``, which
every other use reads.
"""

import ast
from pathlib import Path

import pytest

import portmanteau
from portmanteau import corrmat, diagnostics, reference

SRC = Path(portmanteau.__file__).resolve().parent
PRODUCTION = ("cli", "corrmat", "diagnostics", "fitting", "models", "montecarlo", "residuals")
REEXPORTS = {("corrmat", "weighted_cross_sum"), ("diagnostics", "_inverse_poly_coeffs")}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at the top level of a module, imports excluded."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for every imported name; relative modules are resolved inside the package."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "portmanteau" if node.level else ""
            module = ".".join(part for part in (base, node.module or "") if part)
            out += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, "") for alias in node.names]
    return out


REFERENCE_NAMES = _defined(_tree("reference"))


def test_reference_defines_the_oracles():
    assert {"QmMatrix", "build_qm", "cm_decomposition", "schur_logdet", "weighted_cross_sum", "pacf"} <= REFERENCE_NAMES


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_uses_no_reference_name(module):
    tree = _tree(module)
    for source, name in _imports(tree):
        assert source != "portmanteau.reference", f"{module} imports from reference.py"
        assert not (source == "portmanteau" and name == "reference"), f"{module} imports reference.py"
        if name in REFERENCE_NAMES:
            assert (module, name) in REEXPORTS, f"{module} imports {name} from {source}"
    copies = _defined(tree) & REFERENCE_NAMES
    assert not copies, f"{module} defines {sorted(copies)}, which reference.py also defines"


def test_old_submodule_paths_are_the_reference_objects():
    assert corrmat.weighted_cross_sum is reference.weighted_cross_sum
    assert diagnostics._inverse_poly_coeffs is reference._inverse_poly_coeffs


def test_no_import_inside_a_function():
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(func) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}:{func.name} imports inside a function"


def test_package_imports_are_acyclic():
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    graph = {
        module: {source.rsplit(".", 1)[-1] for source, _ in _imports(_tree(module))} & modules
        for module in modules
    }
    done, active = set(), []

    def visit(module):
        assert module not in active, f"import cycle: {' -> '.join(active + [module])}"
        if module in done:
            return
        active.append(module)
        for dependency in sorted(graph[module]):
            visit(dependency)
        active.pop()
        done.add(module)

    for module in sorted(modules):
        visit(module)


def _calls_by_function(tree: ast.Module, callee: str) -> list[str]:
    """The top-level function or class (or "<module>") around every call of the bare name ``callee``."""
    out = []
    for node in tree.body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        out += [
            where for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == callee
        ]
    return out


def test_every_test_report_comes_from_one_evaluator():
    makers = {
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")), "TestReport")
    }
    assert makers == {"diagnostics._evaluate"}


def test_the_variance_statistics_are_spelled_once():
    spellings = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and len(node.elts) == 2
        and {getattr(elt, "value", None) for elt in node.elts} == {"Lb", "Lbw"}
    ]
    assert len(spellings) == 1, spellings
    assert diagnostics.VARIANCE_STATISTICS == ("Lb", "Lbw")
    assert diagnostics.ALL_STATISTICS[-2:] == diagnostics.VARIANCE_STATISTICS
