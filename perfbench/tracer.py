"""Outside-in tracing of ihskit's layers.

Each target is a public function or method of an ihskit module. It is
replaced by a wrapper wherever a caller looks it up: the attribute of
every loaded ``ihskit`` module that holds the original object (so
``ihskit.ihs.build_sketch`` and ``ihskit.sketch.build_sketch`` are both
wrapped), or the class attribute for a method. The program itself is
not edited.

A wrapper records, per layer, the number of calls and the self time:
the call's duration minus the part of it spent in wrapped children.
The self times of all layers therefore add up to the duration of the
outermost wrapped calls (``root_s``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

# (layer name, defining module, attribute; "Class.method" for methods)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sketch.build_sketch", "ihskit.sketch", "build_sketch"),
    ("sketch.apply", "ihskit.sketch", "SketchOperator.apply"),
    ("linalg.fwht_normalized", "ihskit.linalg", "fwht_normalized"),
    ("linalg.estimate_opnorm_sq", "ihskit.linalg", "estimate_opnorm_sq"),
    ("linalg.thin_svd", "ihskit.linalg", "thin_svd"),
    ("linalg.solve_psd", "ihskit.linalg", "solve_psd"),
    ("subsolver.gram", "ihskit.subsolver", "SketchedQuadratic.gram"),
    ("subsolver.solve_constrained", "ihskit.subsolver", "solve_constrained"),
    ("constraints.project", "ihskit.constraints", "project"),
    ("ihs.solve_exact", "ihskit.ihs", "solve_exact"),
    ("ihs.ihs_solve", "ihskit.ihs", "ihs_solve"),
    ("cli.main", "ihskit.cli", "main"),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Holds the per-layer statistics and the installed wrappers."""

    targets: Tuple[Tuple[str, str, str], ...] = TARGETS
    prefix: str = "ihskit"
    stats: Dict[str, LayerStats] = field(default_factory=dict)
    inner_iters: int = 0
    root_s: float = 0.0
    absent: List[str] = field(default_factory=list)
    _stack: List[float] = field(default_factory=list)
    _restore: List[Tuple[object, str, object]] = field(default_factory=list)

    def clear(self) -> None:
        self.stats = {name: LayerStats() for name, _, _ in self.targets}
        self.inner_iters = 0
        self.root_s = 0.0

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)          # time covered by wrapped children
            tic = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - tic
                children = stack.pop()
                st = self.stats[layer]
                st.calls += 1
                st.self_s += dur - children
                if stack:
                    stack[-1] += dur
                else:
                    self.root_s += dur
            iters = getattr(out, "iterations", None)
            if layer == "subsolver.solve_constrained" and isinstance(iters, int):
                self.inner_iters += iters
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the others in ``absent``."""
        self.clear()
        self.absent = []
        for layer, modname, attr in self.targets:
            owner, name, orig = _resolve(modname, attr)
            if orig is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(layer, orig)
            if owner is not None:      # a method: replace it on its class
                self._set(owner, name, wrapped)
                continue
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "")
                if mname != self.prefix and not mname.startswith(self.prefix + "."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)


def _resolve(modname: str, attr: str):
    """(class or None, attribute name, original object or None)."""
    try:
        mod = importlib.import_module(modname)
    except ImportError:
        return None, attr, None
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        fn = None if cls is None else vars(cls).get(meth)
        return cls, meth, fn if callable(fn) else None
    fn = getattr(mod, attr, None)
    return None, attr, fn if callable(fn) else None


def take(tracer: Tracer) -> Dict[str, float]:
    """The statistics since the last ``clear`` as ``{metric: value}``;
    clears the tracer."""
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.self_s"] = st.self_s
        out[f"{name}.calls"] = float(st.calls)
    out["subsolver.inner_iters"] = float(tracer.inner_iters)
    tracer.clear()
    return out
