"""The public names of every atdev module resolve."""

import importlib
import pkgutil

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
