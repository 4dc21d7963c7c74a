"""The benchmark tracer's hooks must all resolve on the package.

``perfbench/tracing.py`` patches odefilter from outside and silently skips a
name that no longer exists, reporting every metric that needs it as absent.
This test fails instead, so a refactor that drops or renames a traced
function cannot make the per-layer metrics disappear unnoticed.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_target_resolves(target):
    module_name, path, _ = TARGETS[target]
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

