"""Every name the package advertises resolves where it is advertised."""

import ast
import importlib
import importlib.util
import pkgutil
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
