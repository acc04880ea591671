"""Span tracer for the traced benchmark run.

`Tracer.install` wraps every public function of the axibeam layer modules and
rebinds the wrapper in every axibeam namespace that holds the original, so
calls between layers are recorded as well as the benchmark's own calls.  Each
call becomes one span (name, start, end, parent, operation, phase) kept in
flat in-memory arrays; `Tracer.save` writes them out once the run ends.
Nothing is wrapped outside the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("ultraspherical", "quadrature", "designs", "metrics", "sampling", "cli")

OP_PHASE = 0      # span belongs to a timed operation
CHECK_PHASE = 1   # span belongs to the benchmark's output check


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("b")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.op_index = -1
        self.phase_now = OP_PHASE
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers: dict = {}   # id(original) -> (original, wrapper)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, op, phase = self.name_id, self.parent, self.op, self.phase
        raised, start, end = self.raised, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_index)
            phase.append(self.phase_now)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Bind the wrappers of every layer's public functions in every axibeam namespace.

        The wrappers are made on the first call; later calls rebind the same ones.
        """
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"axibeam.{layer}")
                for attr, obj in vars(mod).items():
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    if obj.__module__ != mod.__name__:
                        continue
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        wrappers = self._wrappers
        for modname, mod in list(sys.modules.items()):
            if modname != "axibeam" and not modname.startswith("axibeam."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _arrays(self):
        # copies, so the arrays stay free to grow
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.phase, dtype=np.int8),
                np.array(self.raised, dtype=np.int8),
                np.array(self.end, dtype=float) - np.array(self.start, dtype=float))

    def summary(self) -> dict:
        """Per-function calls, total and self seconds and raised calls, by phase.

        A span's self time is its duration minus the durations of its direct
        child spans, which nest inside it on the one calling thread.
        """
        name_id, parent, phase, raised, dur = self._arrays()
        n = dur.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        k = len(self.names)
        out = {}
        for ph in (OP_PHASE, CHECK_PHASE):
            m = phase == ph
            ids = name_id[m]
            calls = np.bincount(ids, minlength=k)
            total = np.bincount(ids, weights=dur[m], minlength=k)
            own = np.bincount(ids, weights=self_t[m], minlength=k)
            fails = np.bincount(ids, weights=raised[m], minlength=k)
            out[ph] = {
                name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i]), "fail": int(fails[i])}
                for i, name in enumerate(self.names)
            }
        return out

    def calls_under(self, child_name: str, parent_name: str) -> int:
        """Operation-phase calls of `child_name` made directly by `parent_name`."""
        if child_name not in self.names or parent_name not in self.names:
            return 0
        name_id, parent, phase, _, _ = self._arrays()
        cid = self.names.index(child_name)
        pid = self.names.index(parent_name)
        m = (name_id == cid) & (phase == OP_PHASE) & (parent >= 0)
        return int(np.count_nonzero(name_id[parent[m]] == pid))

    def save(self, path) -> None:
        name_id, parent, phase, raised, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id, parent=parent, phase=phase, raised=raised,
            op=np.array(self.op, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )
