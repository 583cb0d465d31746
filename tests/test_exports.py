"""Every name a ``devissage`` module exports in ``__all__`` exists, so
``from devissage.<module> import *`` never fails on a stale entry."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import devissage

MODULES = ["devissage"] + [f"devissage.{m.name}"
                           for m in pkgutil.iter_modules(devissage.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
