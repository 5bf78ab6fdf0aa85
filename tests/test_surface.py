"""Every name the package advertises resolves where it is advertised."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import radgas


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(radgas.__path__)])
def test_module_all_resolves(name):
    module = importlib.import_module(f"radgas.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"radgas.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(radgas.__path__)])
def test_module_all_names_are_defined_there(name):
    """Each public function or class has one home: the module whose __all__ names it."""
    module = importlib.import_module(f"radgas.{name}")
    elsewhere = [n for n in getattr(module, "__all__", ())
                 if getattr(getattr(module, n), "__module__", module.__name__) != module.__name__]
    assert not elsewhere, f"radgas.{name}.__all__ names what other modules define: {elsewhere}"


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(radgas.__path__)])
def test_modules_use_every_import(name):
    """A name a module imports, at any level, is read somewhere in it or listed in
    its __all__; the package __init__, which only re-exports, is not checked."""
    path = Path(radgas.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(f"radgas.{name}"), "__all__", ()))
    unused = sorted(imported - used)
    assert not unused, f"radgas.{name} imports names it never uses: {unused}"


def test_package_imports_resolve_and_are_public():
    tree = ast.parse(Path(radgas.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"radgas.{node.module}")
        for alias in node.names:
            where = f"radgas.{node.module}.{alias.name}"
            assert getattr(radgas, alias.asname or alias.name) is getattr(module, alias.name), where
            assert alias.name in getattr(module, "__all__", [alias.name]), where


# Names that nothing in src/radgas or perfbench reads, each kept for the reason given.
UNREAD_BY_DESIGN = {
    "constitutive.reaction_rate": "the guarded public form of the model's reaction law: radgas "
                                  "exports it, and perfbench's tracer wraps every public "
                                  "constitutive function",
}


def test_every_src_name_has_a_reader():
    """Each __all__ name and module-level def or class of a radgas module is read
    somewhere in src/radgas outside its own definition, or named as a word in
    perfbench/*.py, so src/radgas holds only what the commands run; a helper only
    tests read lives in the tests.  A read is a loaded name or attribute, or an
    import, matched by name; the package __init__, which only re-exports, neither
    defines nor reads."""
    root = Path(__file__).resolve().parents[1]
    perfbench = "\n".join(p.read_text() for p in sorted((root / "perfbench").glob("*.py")))
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(radgas.__file__).parent.glob("*.py"))
             if path.stem != "__init__"}
    reads = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                reads.extend((module, alias.name, node.lineno) for alias in node.names)
    unread = set()
    for module, tree in trees.items():
        spans = {node.name: (node.lineno, node.end_lineno) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        public = getattr(importlib.import_module(f"radgas.{module}"), "__all__", ())
        for name in spans.keys() | set(public):
            lo, hi = spans.get(name, (0, -1))
            read = any(n == name and not (m == module and lo <= line <= hi)
                       for m, n, line in reads)
            if not read and not re.search(rf"\b{re.escape(name)}\b", perfbench):
                unread.add(f"{module}.{name}")
    exempt = set(UNREAD_BY_DESIGN)
    assert unread == exempt, (f"read by nothing in src/radgas or perfbench: "
                              f"{sorted(unread - exempt)}; exceptions now read: "
                              f"{sorted(exempt - unread)}")


def test_every_perfbench_target_resolves():
    """A traced function that was renamed or moved fails here; the tracer itself
    would only skip it, and that layer's metrics would read 0."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))]
    assert not missing, f"perfbench traces names that do not resolve: {missing}"


def _perfbench_setup_code():
    """perfbench's set-up program, read from its source without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SETUP_CODE")


@pytest.mark.parametrize("command, config", [("run", "canonical.cfg"), ("sweep", "sweep.cfg"),
                                             ("verify", "verify.cfg")])
def test_perfbench_setup_runs_on_the_shipped_configs(command, config):
    """perfbench times its set-up program on every workload; a renamed loader or
    validator fails here, not as a failed ``setup_s`` sample of every run."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(Path(radgas.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _perfbench_setup_code(), command,
                          str(root / "configs" / config)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
