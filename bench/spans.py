"""Spans recorded around calls into the layers of ``hkt4``, installed from
the benchmark's own files for the traced run only.

Each span records its name, start, end, parent span and request id. Spans
live in flat arrays in memory and are written once, at the end of the run.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

NO_PARENT = -1
NO_REQUEST = -1
# packages whose modules and classes are searched for bindings of a target
PACKAGES = ("hkt4",)


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.request_id = NO_REQUEST
        self._stack: List[int] = []
        # per-request sums of quantities read from arguments or results
        self.counters: Dict[str, float] = defaultdict(float)

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        if self.request_id != NO_REQUEST:
            self.counters[key] += value

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[["Tracer", tuple, Any], None]] = None
             ) -> Callable:
        """``fn`` inside a span called ``name``; ``observe`` sees the
        arguments and the result of each call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), request=np.asarray(self.request))


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it that its children cover
    (the union of their intervals, so overlapping children count once)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, p in enumerate(parent):
        if p != NO_PARENT:
            children[p].append((start[sid], end[sid]))
    out = []
    for sid in range(len(start)):
        covered = 0.0
        lo = hi = None
        for s, e in sorted(children.get(sid, ())):
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append((end[sid] - start[sid]) - covered)
    return out


# ---------------------------------------------------------------------------
# installing wrappers


@dataclass(frozen=True)
class Target:
    """A function to trace: the span name, and where the original lives
    (a module and a dotted attribute path in it)."""

    name: str
    module: str
    attr: str
    observe: Optional[Callable[[Tracer, tuple, Any], None]] = None


def _resolve(target: Target):
    obj = importlib.import_module(target.module)
    for part in target.attr.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _namespaces(prefixes: Sequence[str]):
    """The dicts of every loaded module under the prefixes and of every class
    such a module defines: the places a ``from ... import`` or a class
    attribute can bind a traced function."""
    seen = set()
    for modname, mod in list(sys.modules.items()):
        if mod is None or not any(modname == p or modname.startswith(p + ".")
                                  for p in prefixes):
            continue
        yield mod, vars(mod)
        for value in list(vars(mod).values()):
            if (isinstance(value, type) and id(value) not in seen
                    and any(value.__module__ == p or value.__module__.startswith(p + ".")
                            for p in prefixes)):
                seen.add(id(value))
                yield value, vars(value)


class Installed:
    """Wrappers installed in every namespace that binds each target; undone
    by ``uninstall``."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target]):
        self.bindings: List[Tuple[Any, str, Any]] = []
        self.per_target: Dict[str, int] = {}
        for target in targets:
            original = _resolve(target)
            wrapper = tracer.wrap(target.name, original, target.observe)
            spaces = list(_namespaces(PACKAGES + (target.module,)))
            found = 0
            for owner, space in spaces:
                for key, value in list(space.items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self.bindings.append((owner, key, original))
                        found += 1
            if found == 0:
                self.uninstall()
                raise RuntimeError(f"no namespace binds {target.module}.{target.attr}")
            self.per_target[target.name] = found

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.bindings):
            setattr(owner, key, original)
        self.bindings.clear()
