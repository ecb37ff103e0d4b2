"""Every name a microwrpo module exports in ``__all__`` is defined by it.

A stale entry, left when its object is deleted, breaks ``from module import *``.
"""

import importlib
import pkgutil

import pytest

import microwrpo

MODULES = ["microwrpo"] + [
    f"microwrpo.{info.name}" for info in pkgutil.iter_modules(microwrpo.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
