"""Wall-clock spans around the simulator's layer functions.

:class:`Tracer` keeps every span in memory as parallel arrays (start,
end, parent, group, context) and computes self and busy time when the
run ends.  :class:`Patcher` installs a tracing wrapper around each probed
function at *every* place it is bound: a function imported by name into
several ``repro`` modules is replaced in each of them, and methods,
static methods, class methods and properties are replaced on their
class.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from stats import self_times

#: Group of the spans the workload opens around each measured pass; their
#: self time is the wall time no probe attributed.
ROOT = "pass"


class Tracer:
    """In-memory span recorder; inactive until :meth:`window` opens."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.groups: List[str] = []
        self._gid: Dict[str, int] = {}
        self.contexts: List[str] = [""]
        self._cid: Dict[str, int] = {"": 0}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.group = array("l")
        self.ctx = array("l")
        #: 1 when an enclosing span belongs to the same group (its time
        #: is already inside that ancestor's busy time).
        self.nested = array("b")
        self._stack: List[int] = []
        self._depth: List[int] = []
        self.context = 0
        self.active = False
        self.counts: Dict[str, float] = {}

    def group_id(self, name: str) -> int:
        gid = self._gid.get(name)
        if gid is None:
            gid = self._gid[name] = len(self.groups)
            self.groups.append(name)
            self._depth.append(0)
        return gid

    def set_context(self, label: str) -> int:
        """Make *label* (request id or system/app) the context of new
        spans; returns the previous context id for :meth:`restore`."""
        cid = self._cid.get(label)
        if cid is None:
            cid = self._cid[label] = len(self.contexts)
            self.contexts.append(label)
        previous, self.context = self.context, cid
        return previous

    def restore(self, previous: int) -> None:
        self.context = previous

    def count(self, name: str, by: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def open(self, gid: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.group.append(gid)
        self.ctx.append(self.context)
        self.nested.append(1 if self._depth[gid] else 0)
        self._depth[gid] += 1
        stack.append(index)
        self.end.append(0.0)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._depth[self.group[index]] -= 1
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span closed out of order")

    def window(self, label: str = ""):
        """Context manager: one traced measurement window (a root span)."""
        return _Window(self, label)

    # -- results ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per group: ``calls``, inclusive ``busy`` and ``self`` seconds."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {name: {"calls": 0, "busy": 0.0, "self": 0.0}
               for name in self.groups}
        for i, gid in enumerate(self.group):
            row = out[self.groups[gid]]
            row["calls"] += 1
            row["self"] += selfs[i]
            if not self.nested[i]:
                row["busy"] += self.end[i] - self.start[i]
        return out

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header naming the groups and contexts,
        then one line per span of group id, start, end, parent index and
        context id."""
        groups, contexts = self.groups, self.contexts
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"groups": groups, "contexts": contexts}) + "\n")
            for i in range(len(self.start)):
                fh.write("%d %.9f %.9f %d %d\n" % (
                    self.group[i], self.start[i], self.end[i],
                    self.parent[i], self.ctx[i]))


class _Window:
    def __init__(self, tracer: Tracer, label: str) -> None:
        self.tracer = tracer
        self.label = label

    def __enter__(self) -> "_Window":
        t = self.tracer
        if t._stack:
            raise RuntimeError("trace window opened inside a span")
        self._previous = t.set_context(self.label)
        t.active = True
        self.index = t.open(t.group_id(ROOT))
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.close(self.index)
        t.active = False
        t.restore(self._previous)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass
class Probe:
    """Trace every call of *targets* as spans of group *name*.

    A target is ``"module:attr"`` or ``"module:Class.attr"``.  *context*
    maps the call's arguments to a span context label; *after* sees the
    call's result (for counts taken at the layer boundary).
    """

    name: str
    targets: Sequence[str]
    context: Optional[Callable[..., str]] = None
    after: Optional[Callable[..., None]] = None


def _traced(tracer: Tracer, gid: int, fn: Callable, probe: Probe) -> Callable:
    context, after = probe.context, probe.after

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        previous = tracer.set_context(context(*args, **kwargs)) if context else None
        index = tracer.open(gid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
            if previous is not None:
                tracer.restore(previous)
        if after is not None:
            after(tracer, result, *args, **kwargs)
        return result

    return traced


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"probe target {target!r} does not exist")
    return owner, attr


class Patcher:
    """Installs probes; :meth:`undo` puts every original binding back."""

    def __init__(self, tracer: Tracer, prefix: str = "repro") -> None:
        self.tracer = tracer
        self.prefix = prefix
        self._undo: List[Tuple[Any, str, Any]] = []
        #: target -> number of bindings replaced
        self.bindings: Dict[str, int] = {}

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, probes: Sequence[Probe]) -> None:
        for probe in probes:
            gid = self.tracer.group_id(probe.name)
            for target in probe.targets:
                owner, attr = _resolve(target)
                raw = vars(owner)[attr]
                if isinstance(owner, type):
                    self._set(owner, attr, self._wrap_member(raw, gid, probe))
                    self.bindings[target] = 1
                else:
                    self.bindings[target] = self._rebind(raw, gid, probe)

    def _wrap_member(self, raw: Any, gid: int, probe: Probe) -> Any:
        if isinstance(raw, staticmethod):
            return staticmethod(_traced(self.tracer, gid, raw.__func__, probe))
        if isinstance(raw, classmethod):
            return classmethod(_traced(self.tracer, gid, raw.__func__, probe))
        if isinstance(raw, property):
            return property(_traced(self.tracer, gid, raw.fget, probe),
                            raw.fset, raw.fdel, raw.__doc__)
        return _traced(self.tracer, gid, raw, probe)

    def _rebind(self, original: Callable, gid: int, probe: Probe) -> int:
        """Replace *original* in every loaded module that binds it."""
        wrapper = _traced(self.tracer, gid, original, probe)
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == self.prefix
                                      or name.startswith(self.prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    count += 1
        return count

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
