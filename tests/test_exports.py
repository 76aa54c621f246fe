"""Every name a submodule lists in ``__all__`` resolves.

A deleted function whose name stays in ``__all__`` breaks
``from parabolica.<module> import *`` only when someone tries it, so the
lists are checked here.
"""

import importlib

import pytest

import parabolica


@pytest.mark.parametrize("name", sorted(parabolica._SUBMODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"parabolica.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"parabolica.{name}.__all__ lists undefined names: {missing}"
