"""In-process layer tracer for the raylift benchmark.

The tracer replaces functions at the names their callers look them up by
(module globals, a class attribute, ``numpy.linalg``) with wrappers that
count calls, busy time, self time and raised exceptions, and puts every
original back on exit. The program runs in one thread and no layer waits on
a queue or lock, so there is no wait time to record. Spans are aggregated
by name as they close rather than kept one by one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

LAYER_MODULES = ("cli", "frames", "recover", "retraction", "metrics", "core", "probes")


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    raised: int = 0


class Tracer:
    """Context manager holding a set of patches and their statistics."""

    def __init__(self):
        self.stats: dict = {}
        self.observed: dict = {}
        self._patches: list = []
        self._child: list = []  # child-time accumulator of each open span

    def patch(self, owner, attr: str, label: str, observe: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` under ``label``. ``observe`` maps each return
        value to a number; the largest is kept in ``observed[label]``."""
        fn = getattr(owner, attr)
        stat = self.stats.setdefault(label, Stat())
        child = self._child
        observed = self.observed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child.pop()
                if child:
                    child[-1] += dt
            if observe is not None:
                observed[label] = max(observed.get(label, 0.0), observe(result))
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def array_mb(obj) -> float:
    """Megabytes (1e6 bytes) held in the numpy array fields of an object."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)) / 1e6


def layer_tracer() -> Tracer:
    """A tracer over every public function of the raylift layer modules,
    patched in every layer module and the package namespace that binds it,
    plus ``RecoveryReport.to_dict`` and ``numpy.linalg.eigh``/``eigvalsh``.
    Labels read ``<module>.<function>``."""
    import raylift

    mods = {short: importlib.import_module(f"raylift.{short}") for short in LAYER_MODULES}
    labels = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                labels[obj] = f"{short}.{name}"
    tracer = Tracer()
    for owner in (raylift, *mods.values()):
        for name, obj in list(vars(owner).items()):
            if inspect.isfunction(obj) and obj in labels:
                observe = array_mb if labels[obj] == "frames.build_lifted_map" else None
                tracer.patch(owner, name, labels[obj], observe)
    tracer.patch(mods["recover"].RecoveryReport, "to_dict", "recover.to_dict")
    tracer.patch(np.linalg, "eigh", "linalg.eigh")
    tracer.patch(np.linalg, "eigvalsh", "linalg.eigvalsh")
    return tracer
