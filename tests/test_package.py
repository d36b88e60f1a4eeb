import importlib

import pytest

MODULES = ["raylift"] + [f"raylift.{m}" for m in
                         ("cli", "core", "frames", "metrics", "probes", "recover", "retraction")]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """Every name a module exports is one of its attributes, so a deleted
    function cannot leave a stale export behind, and ``import *`` works."""
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
    exec(f"from {name} import *", {})
