"""Every defaulted parameter of ``rigidlab`` is bound by some call site, every
dataclass field is read somewhere, every public top-level function or class
is reached from the package or the benchmark, every module-level import
of the package is used, every target of the benchmark's tracer exists and
every per-layer metric it reports is one the benchmark declares, every
module imports only from the layers below its own, only ``cgeo`` imports
SciPy, and neither the CLI's import nor the suite and the convex estimators
load it.

The users are the package and the benchmark (``src/`` and ``bench/``): a
test alone keeps nothing alive.  A default that no caller there overrides is
a constant spelled as a parameter: it widens the API without a user.  The
scan matches call sites to definitions by function name (the name after the
last dot; a constructor's name is its class's), and a parameter counts as
bound when some call of that name passes it by position or by keyword.  A
``**d`` splat passes the constant string keys of the dict literals assigned
to a variable ``d`` in the calling file.

A field that no code there reads (an attribute load of its name, on any
object) is state carried for nobody.

A public function or class that nothing in ``src/`` or ``bench/`` loads (by
name or as an attribute, outside its own definition) is reached by no
verdict, CLI command or benchmark: only unit tests would keep it alive.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rigidlab"
CALLERS = [ROOT / "src", ROOT / "bench"]


def _trees(dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defaulted_parameters():
    """``(file, function, name, position)`` of each defaulted parameter;
    ``position`` is its index among a call's positional arguments (``self``
    and ``cls`` not counted), ``None`` for a keyword-only parameter."""
    found = []
    for path, tree in _trees([PACKAGE]):
        owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            skip = 1 if cls is not None and not static else 0
            name = cls.name if fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first_default = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first_default:], start=first_default):
                found.append((path.name, name, arg.arg, i - skip))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found.append((path.name, name, arg.arg, None))
    return found


def _dict_keys(tree) -> dict[str, set[str]]:
    """Per variable, the constant string keys of the dict literals assigned to it."""
    keys = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    keys.setdefault(target.id, set()).update(
                        k.value for k in node.value.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return keys


def _call_sites() -> dict[str, list[tuple[int, set[str]]]]:
    """Per called name, the positional count and keyword names of each call."""
    calls = {}
    for _, tree in _trees(CALLERS):
        splats = _dict_keys(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = set()
            for k in node.keywords:
                if k.arg is not None:
                    keywords.add(k.arg)
                elif isinstance(k.value, ast.Name):
                    keywords |= splats.get(k.value.id, set())
            n_positional = sum(not isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((n_positional, keywords))
    return calls


def unbound_defaulted_parameters() -> list[str]:
    """``file:function(parameter)`` of each defaulted parameter no call binds."""
    calls = _call_sites()

    def bound(fn, name, position):
        return any(name in keywords or (position is not None and n_positional > position)
                   for n_positional, keywords in calls.get(fn, []))

    return sorted(f"{file}:{fn}({name})" for file, fn, name, position in _defaulted_parameters()
                  if not bound(fn, name, position))


# Defaulted parameters that no call in the package binds, kept on purpose.
ALLOWED_UNBOUND: set[str] = {
    # the entry point's input: the console script passes nothing, and a
    # caller that runs the CLI in process passes its argument list
    "cli.py:main(argv)",
}


def test_every_defaulted_parameter_has_a_caller():
    assert unbound_defaulted_parameters() == sorted(ALLOWED_UNBOUND)    # a stale entry fails too


def _is_dataclass(decorator) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", None)) == "dataclass"


def unread_dataclass_fields() -> list[str]:
    """``file:Class.field`` of each dataclass field whose name no attribute
    load in ``src/`` or ``bench/`` reads."""
    loads = {node.attr for _, tree in _trees(CALLERS) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path.name}:{cls.name}.{stmt.target.id}"
                  for path, tree in _trees([PACKAGE]) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
                  for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in loads)


# Fields that only tests read, kept on purpose: the tests hold each against
# an independent reference.
ALLOWED_UNREAD: set[str] = {
    # the derivative of the Christoffel symbols, against per-index einsum
    # formulas (tests/test_metric_oracles.py)
    "riemann.py:CurvatureData.dgamma",
    # the Jacobi fields, against the integrated reference (TestOneIntegrator)
    "riemann.py:JacobiReport.W",
}


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == sorted(ALLOWED_UNREAD)    # a stale entry fails too


# Public names that only tests reach, kept on purpose.
ALLOWED_UNREACHED: set[str] = {
    # the RK4 reference the closed-form transport is checked against, and a
    # target of the benchmark's tracer
    "riemann.py:parallel_transport",
}


def _loaded_name(node):
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def unreached_public_names() -> list[str]:
    """``file:name`` of each public top-level function or class of the package
    that no name or attribute load in ``src/`` or ``bench/`` reaches outside
    its own definition."""
    loads = set()
    for _, tree in _trees([ROOT / "src", ROOT / "bench"]):
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            loads |= {name for node in ast.walk(stmt)
                      if (name := _loaded_name(node)) is not None and name != own}
    return sorted(f"{path.name}:{stmt.name}" for path, tree in _trees([PACKAGE]) for stmt in tree.body
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and not stmt.name.startswith("_") and stmt.name not in loads)


def test_every_public_name_is_reached_outside_tests():
    assert unreached_public_names() == sorted(ALLOWED_UNREACHED)    # a stale entry fails too


def unused_imports() -> list[str]:
    """``file:name`` of each name a module-level import binds that its module
    never loads; ``from __future__`` imports and ``__all__`` re-exports are exempt."""
    found = []
    for path, tree in _trees([PACKAGE]):
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{name}" for alias in stmt.names
                          if (name := alias.asname or alias.name.split(".")[0]) not in used]
    return sorted(found)


def test_every_import_is_used():
    assert unused_imports() == []


def _tracer():
    """``bench/tracer.py``, loaded from its file (``bench`` is not on the test path)."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_of_its_layer():
    # a traced benchmark run reports each target's metrics; a target renamed or
    # deleted in the package silently drops them from that run
    missing = [f"{layer}.{name}" for layer, names in _tracer().FUNCTION_TARGETS.items() for name in names
               if not callable(getattr(importlib.import_module(f"rigidlab.{layer}"), name, None))]
    assert missing == []


def test_the_tracer_finds_every_target_and_reports_the_declared_metrics():
    # a traced benchmark run leaves out the per-layer metrics of every target
    # it could not wrap, and the benchmark then refuses the run
    import rigidlab.cli  # noqa: F401  (imports every layer module, as the benchmark worker does)
    from rigidlab import riemann
    tracer_module = _tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install([riemann.euclidean(2), riemann.poincare_disk(), riemann.sphere_stereographic(),
                        riemann.bergman_ball(2)])
    finally:
        tracer.restore()
    assert tracer.missing == []
    declared = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    reported = {name for name, _ in tracer_module.layer_metric_names()}
    assert [name for name in declared if name not in reported] == []


def test_every_domain_kind_defines_the_traced_method():
    # the tracer wraps the method on each class that defines it
    from rigidlab.cli import domain_from_config
    from rigidlab.domain import Domain
    method = _tracer().DOMAIN_METHOD
    for cfg in ({"kind": "disk"}, {"kind": "ball", "dimension": 1}, {"kind": "ball", "dimension": 2},
                {"kind": "polydisk", "dimension": 2}, {"kind": "ellipsoid", "exponents": [1, 2]},
                {"kind": "implicit", "dimension": 2, "terms": [[1.0, [1, 0]], [1.0, [0, 2]]]}):
        owners = [cls for cls in type(domain_from_config(cfg)).__mro__ if method in vars(cls)]
        assert owners and owners[0] is not Domain, cfg


# the package's layers, bottom to top: a module imports only from the layers below its own
LAYERS = [{"errors", "intervals", "report"}, {"domain"}, {"kobayashi", "riemann"}, {"cgeo", "kahler"},
          {"schwarz"}, {"rigidity"}, {"cli"}, {"__init__", "__main__"}]


def _package_imports(module: str) -> set[str]:
    """The package modules ``module`` imports, inside functions too."""
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "rigidlab"):
            name = (node.module or "").removeprefix("rigidlab").lstrip(".")
            imported |= {name} if name else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name.removeprefix("rigidlab.") for alias in node.names if alias.name.startswith("rigidlab")}
    return imported


def test_every_module_has_a_layer():
    assert set().union(*LAYERS) == {path.stem for path in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("module", sorted(set().union(*LAYERS)))
def test_every_module_imports_only_the_lower_layers(module):
    # riemann reads the ball's automorphisms from domain, and an import of cgeo
    # or kobayashi, even inside a function, would hang it above them; domain
    # holds no config code, which would reach up into the maps and metrics
    level = next(i for i, layer in enumerate(LAYERS) if module in layer)
    allowed = set().union(*LAYERS[:level])
    assert _package_imports(module) <= allowed, sorted(_package_imports(module) - allowed)


def _scipy_importers() -> list[str]:
    """The package modules that import ``scipy``, inside functions too."""
    found = set()
    for path, tree in _trees([PACKAGE]):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.add(path.stem)
    return sorted(found)


def test_only_cgeo_imports_scipy():
    # the chord-disc candidate and the contact set off the ball and the
    # polydisk faces; every other estimator is closed form or Newton's method
    assert _scipy_importers() == ["cgeo"]


def _loads_no_scipy(code: str) -> None:
    """Run ``code`` in a fresh interpreter on this checkout's sources, then
    assert that no ``scipy`` module was loaded."""
    code += "\nimport sys\nassert not [m for m in sys.modules if m.startswith('scipy')], 'scipy was imported'\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_the_cli_import_loads_no_scipy():
    _loads_no_scipy("import rigidlab.cli")


def test_the_suite_and_the_convex_estimators_load_no_scipy(tmp_path):
    # SciPy serves only the generic fallbacks: the chord-disc candidate and
    # the contact set off the ball and the polydisk faces
    _loads_no_scipy(textwrap.dedent(f"""
        import numpy as np
        from rigidlab import cgeo, cli, domain as dm, kahler, kobayashi as kb
        assert cli.main(["--out-dir", {str(tmp_path)!r}, "suite"]) == 0   # the quick checks and the zoo replay
        ell = dm.ellipsoid((1, 2))
        kb.dist_bounds(ell, [0.5, 0.3j], [-0.2, 0.1])
        kb.metric_bounds(ell, [0.5, 0.3j], [1.0, 1j])
        cal = kb.calibrate_alpha0(ell, [1, 0], ell=4, radii=np.geomspace(1e-3, 0.1, 6))
        kb.kob_ball_inclusion(ell, np.array([0.875, 0]), 0.125 / 4, cal)
        cgeo.boundary_hyperplane_probe(cgeo.complex_geodesic(dm.ball(2), [0.1, 0.05], [0.5, 0.1]))
        kahler.squeezing_lower_bound(dm.ellipsoid((1, 2, 3)), [0.2, 0.1, 0.05])
        cgeo.boundary_hyperplane_probe(cgeo.complex_geodesic(dm.polydisk(2), [0.1, 0.05], [0.5, 0.1]))
    """))
