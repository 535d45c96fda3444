"""Every name a package exports in ``__all__`` resolves.

A deleted function that stays in some ``__all__`` breaks
``from repro.<package> import *`` only when someone runs it; this test
makes such a stale export fail the suite instead.
"""

import importlib

import pytest

PACKAGES = ["repro", "repro.quant", "repro.training", "repro.utils"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{package}.__all__ repeats a name"
