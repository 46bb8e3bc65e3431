"""Span tracer that instruments supchan from outside the package.

``Tracer.install`` replaces every public module-level function of the
supchan layer modules, and the numpy calls at the linear-algebra boundary,
with wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Each binding of a function is patched:
the module attribute (which catches calls inside the module) and every
``from ... import`` binding of the same object in the other modules.

Spans live in flat in-memory arrays and are written out by ``flush``.  Pool
workers forked by the program inherit the wrappers; the tracer resets its
arrays in each forked child and flushes them when the worker exits, so the
spans of every process come back as one file per process.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import multiprocessing.util
import os
import pickle
import time
from array import array

import numpy

LAYER_MODULES = ("cli", "campaigns", "bounds", "superchannel", "dilation",
                 "channels", "states", "matkernel")
LINALG_FUNCS = ("eigh", "eigvalsh", "eig", "qr", "svd")

# Called so often that a span would cost more than the call; counted only.
COUNT_ONLY = frozenset({"matkernel.as_matrix", "linalg.kron"})


def _build_digest(args, kwargs, result):
    """Bytes identity of the (U, rho_SE) arguments of superchannel.build."""
    u = args[0] if args else kwargs["u"]
    rho = args[1] if len(args) > 1 else kwargs["rho_se"]
    h = hashlib.sha1(numpy.ascontiguousarray(u, dtype=complex).tobytes())
    h.update(numpy.ascontiguousarray(rho.mat).tobytes())
    return h.hexdigest()


def _family(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["family"]


def _ness_method(args, kwargs, result):
    return result.method


# Per-call annotations kept next to the span: name -> fn(args, kwargs, result).
NOTES = {
    "superchannel.build": _build_digest,
    "campaigns.evaluate_trial": _family,
    "channels.fixed_point": _ness_method,
}


class Tracer:
    """Records spans of wrapped calls in the current process and its forks."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = array("q")
        self.notes: list[tuple[int, object]] = []
        self._cur = [-1]
        self._undo: list[tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """A wrapper that returns exactly what ``fn`` returns and records the call."""
        nid = self._id(name)
        counts = self.counts
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[nid] += 1
                return fn(*args, **kwargs)
            return counted

        ids, parents, t0s, t1s = self.name_id, self.parent, self.t0, self.t1
        cur, notes, note = self._cur, self.notes, NOTES.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = cur[0]
            idx = len(t0s)
            ids.append(nid)
            parents.append(parent)
            t1s.append(0.0)
            cur[0] = idx
            t0s.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf()
                cur[0] = parent
            if note is not None:
                notes.append((idx, note(args, kwargs, result)))
            return result
        return spanned

    def _reset(self) -> None:
        for arr in (self.name_id, self.parent, self.t0, self.t1):
            del arr[:]
        for i in range(len(self.counts)):
            self.counts[i] = 0
        del self.notes[:]
        self._cur[0] = -1

    def _after_fork(self) -> None:
        # Runs in a multiprocessing child after fork: drop the parent's spans
        # and write this process's spans when it exits.
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> str:
        """Write this process's spans to ``out_dir/spans-<pid>.pkl``."""
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.pkl")
        data = {
            "pid": os.getpid(),
            "names": list(self.names),
            "name_id": self.name_id.tobytes(),
            "parent": self.parent.tobytes(),
            "t0": self.t0.tobytes(),
            "t1": self.t1.tobytes(),
            "counts": list(self.counts),
            "notes": list(self.notes),
        }
        with open(path, "wb") as fh:
            pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions and the numpy boundary, in every binding."""
        modules = [importlib.import_module(f"supchan.{m}") for m in LAYER_MODULES]
        plan: dict[int, object] = {}  # id of the original -> its wrapper
        for mod, short in zip(modules, LAYER_MODULES):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or (short, attr) == ("campaigns", "_eval_task"))):
                    plan[id(obj)] = self.wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in plan:
                    self._patch(mod, attr, plan[id(obj)])

        for attr in LINALG_FUNCS:
            self._patch(numpy.linalg, attr, self.wrap(getattr(numpy.linalg, attr), f"linalg.{attr}"))
        self._patch(numpy, "einsum", self.wrap(numpy.einsum, "linalg.einsum"))
        self._patch(numpy, "kron", self.wrap(numpy.kron, "linalg.kron"))

    def _patch(self, mod, attr: str, new) -> None:
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, old = self._undo.pop()
            setattr(mod, attr, old)
