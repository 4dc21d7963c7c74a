"""Every name the package exports is used by the code it ships.

A name in a module's ``__all__`` must be read somewhere in ``src/``,
``scripts/`` or ``perfbench/`` (test files excluded): its own ``def`` or
``class`` line, an import and an ``__all__`` entry do not count.  A helper
that only the tests call belongs in ``tests/oracles.py``, not in the
package.
"""

import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import odefilter

ROOT = pathlib.Path(__file__).resolve().parents[1]


MODULES = {
    info.name: importlib.import_module(f"odefilter.{info.name}")
    for info in pkgutil.iter_modules(odefilter.__path__)
}


def shipped_references() -> set:
    """Identifiers that shipped code loads: bare names, and ``module.name``.

    An attribute counts only on a name spelled like the package or one of
    its modules, so ``spans.update(...)`` does not stand in for a module
    function called ``update``.
    """
    owners = {"odefilter", *MODULES}
    names = set()
    for tree in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in owners:
                    names.add(node.attr)
    return names


REFERENCED = shipped_references()
EXPORTS = [(module, name) for module in sorted(MODULES) for name in MODULES[module].__all__]


@pytest.mark.parametrize("module,name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_export_is_used_by_shipped_code(module, name):
    assert name in REFERENCED, (
        f"odefilter.{module}.{name} is exported but only tests use it: "
        "move it to tests/oracles.py or delete it"
    )


def test_package_reexports_only_module_exports():
    exported = {name for module in MODULES.values() for name in module.__all__}
    public = {
        name
        for name, value in vars(odefilter).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= exported, sorted(public - exported)
