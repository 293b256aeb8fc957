"""Every name a module exports in ``__all__`` resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["quad", "constants", "operators", "profiles",
                                    "verify", "cli"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"fractrunc.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
