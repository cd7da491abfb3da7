"""The public names of every atdev module resolve."""

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import atdev

MODULES = [atdev] + [importlib.import_module(f"atdev.{info.name}")
                     for info in pkgutil.iter_modules(atdev.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_is_defined(module):
    # The benchmark tracer looks up each __all__ name of the layer
    # modules; a stale entry would end every traced run.
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_import_atdev_loads_nothing_until_a_name_is_used():
    code = """
import json, sys
import atdev
def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "numpy" or m.startswith("atdev."))
names = dir(atdev)
before = loaded()
from atdev import Estimation
print(json.dumps([before, sorted(set(atdev.__all__) - set(names)),
                  Estimation is atdev.effects.Estimation]))
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[], [], True]
