"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions and methods of each
heckelab module and rebinds every module-level name that refers to one of
them (``heckelab.classify.translation_word``, the re-exports in
``heckelab/__init__`` and so on), so a call through any import path is
counted.  Each wrapped function keeps a call count, its total time
(outermost calls only, so recursion is not counted twice), its self time
(duration minus the time of wrapped callees) and, for a few functions, a
work count read off the arguments or the result.  Nothing is kept per
call, so the cost per call is constant.
"""

from __future__ import annotations

import functools
import sys
import time

MODULES = ("laurent", "intlin", "rootdata", "extweyl", "hecke", "modules",
           "classify", "cli")

# dunder methods that are part of the public arithmetic API
DUNDERS = ("__init__", "__mul__", "__add__", "__sub__", "__neg__",
           "__pow__", "__call__")

# work counts: metric suffix and how to read it from (args, kwargs, result)
EXTRAS = {
    "extweyl.translation_word": ("letters", lambda a, k, r: len(r)),
    "classify.central_orbit_matrix_v0": (
        "points", lambda a, k, r: len(a[1] if len(a) > 1 else k["orbit"])),
    "rootdata.RootDatum.weyl_orbit": ("points", lambda a, k, r: len(r)),
}

# record fields
CALLS, TOTAL, SELF, EXTRA, DEPTH = range(5)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.records: dict[str, list] = {}
        self._stack: list[float] = []

    def _wrap(self, name: str, fn):
        rec = self.records.setdefault(name, [0, 0.0, 0.0, 0, 0])
        extra = EXTRAS.get(name, (None, None))[1]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            rec[DEPTH] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                rec[DEPTH] -= 1
                rec[CALLS] += 1
                rec[SELF] += dt - inner
                if rec[DEPTH] == 0:
                    rec[TOTAL] += dt
                if stack:
                    stack[-1] += dt
            if extra is not None:
                rec[EXTRA] += extra(args, kwargs, result)
            return result

        return traced

    def _targets(self, mod):
        """(owner, attribute, name, original) for each public callable."""
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if issubclass(obj, BaseException):
                    continue
                for mattr, mobj in vars(obj).items():
                    if mattr.startswith("_") and mattr not in DUNDERS:
                        continue
                    if isinstance(mobj, (staticmethod, classmethod)) or callable(mobj):
                        yield obj, mattr, f"{short}.{attr}.{mattr}", mobj
            elif callable(obj):
                yield mod, attr, f"{short}.{attr}", obj

    def install(self) -> None:
        """Wrap every target and rebind all module-level aliases of it."""
        replaced = {}
        for short in MODULES:
            mod = sys.modules[f"{self.package.__name__}.{short}"]
            for owner, attr, name, orig in list(self._targets(mod)):
                if isinstance(orig, (staticmethod, classmethod)):
                    new = type(orig)(self._wrap(name, orig.__func__))
                else:
                    new = self._wrap(name, orig)
                    replaced[id(orig)] = (orig, new)
                setattr(owner, attr, new)
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix
                                   or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def reset(self) -> None:
        for rec in self.records.values():
            rec[CALLS] = rec[EXTRA] = 0
            rec[TOTAL] = rec[SELF] = 0.0

    def snapshot(self) -> dict[str, dict]:
        out = {}
        for name, rec in sorted(self.records.items()):
            row = {"calls": rec[CALLS], "total_s": rec[TOTAL],
                   "self_s": rec[SELF]}
            if name in EXTRAS:
                row[EXTRAS[name][0]] = rec[EXTRA]
            out[name] = row
        return out
