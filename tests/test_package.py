import importlib

import pytest

SUBMODULES = ("core", "frames", "metrics", "probes", "recover", "retraction")
MODULES = ["raylift", "raylift.cli"] + [f"raylift.{m}" for m in SUBMODULES]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """Every name a module exports is one of its attributes, so a deleted
    function cannot leave a stale export behind, and ``import *`` works."""
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_package_exports_are_the_modules_exports():
    """The package exports ``__version__`` and every name its modules
    export, each once, so a name made public in a module needs no second
    list."""
    pkg = importlib.import_module("raylift")
    want = {"__version__"}.union(*(importlib.import_module(f"raylift.{m}").__all__
                                   for m in SUBMODULES))
    assert sorted(pkg.__all__) == sorted(want)
