"""Span tracing of geoslice's layers, applied from outside the package.

Nothing under ``src/`` is edited.  The tracer replaces, for the duration of a
``with tracer.installed(...)`` block, the attributes through which the
package reaches each layer:

* module attributes that other modules look up at call time
  (``slice1d.stepping_out``, ``kernel._step_array``, ``harness.estimate_tv``,
  every module-level binding of ``rng.make_stream``, ...);
* the ``density`` / ``density_batch`` fields of a ``Target`` (a traced copy
  made with ``dataclasses.replace``, since ``Target`` is frozen);
* ``exp_array`` / ``sample_tangent_array`` as instance attributes of the
  target's manifold;
* ``dumps`` of the ``json`` module as ``kernel`` sees it, and ``write`` of a
  sink the benchmark owns (chain serialisation).

Each call through a wrapper records one span (name, start, end, parent) in
flat arrays kept in memory.  Self time is a span's duration minus that of its
direct children.  Wrappers may attach to a span one number (``aux``) and one
yes/no mark (``flag``) read from the call's return value, such as the
expansions of an ``Interval`` and whether it used the whole budget.
The tracer is single-threaded: runs that use worker threads are timed
untraced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import time
import types
from array import array

import numpy as np

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self.flag = array("b")
        self._stack = [-1]
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, aux=None, flag=None):
        """Traced version of ``fn``.

        ``aux(result, args)`` gives the span's number and ``flag(result, args)``
        its yes/no mark, both read from the call's return value.
        """
        nid = self._id(name)
        name_id, parent, start, end, aux_arr, flag_arr = (
            self.name_id, self.parent, self.start, self.end, self.aux, self.flag
        )
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            aux_arr.append(0.0)
            flag_arr.append(0)
            stack.append(idx)
            t0 = _perf()
            start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = _perf()
                stack.pop()
            if aux is not None:
                aux_arr[idx] = aux(out, args)
            if flag is not None:
                flag_arr[idx] = flag(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        had_own = isinstance(obj, types.ModuleType) or attr in vars(obj)
        self._patches.append((obj, attr, getattr(obj, attr), had_own))
        setattr(obj, attr, value)

    def patch_function(self, modules, owner, attr: str, name: str, aux=None, flag=None) -> None:
        """Wrap ``owner.attr`` and every binding of the same function in ``modules``."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        traced = self.wrap(name, original, aux, flag)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, traced)

    def patch_method(self, obj, attr: str, name: str) -> None:
        if attr in vars(obj):  # already traced (manifold shared by two targets)
            return
        self._set(obj, attr, self.wrap(name, getattr(obj, attr)))

    def traced_target(self, target):
        """Copy of ``target`` whose density calls and manifold calls are traced."""
        man = target.manifold
        self.patch_method(man, "exp_array", "manifolds.exp_array")
        self.patch_method(man, "sample_tangent_array", "manifolds.sample_tangent_array")
        return dataclasses.replace(
            target,
            density=self.wrap("targets.density", target.density),
            density_batch=self.wrap(
                "targets.density_batch", target.density_batch, aux=lambda out, a: len(a[0])
            ),
        )

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, old, had_own = self._patches.pop()
            if had_own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    @contextlib.contextmanager
    def installed(self, geoslice_modules):
        """Patch the package's layer boundaries; restore them on exit."""
        g = {m.__name__.rsplit(".", 1)[-1]: m for m in geoslice_modules}
        mods = list(geoslice_modules)
        kernel, slice1d, harness = g["kernel"], g["slice1d"], g["harness"]
        bounds, targets, rng = g["bounds"], g["targets"], g["rng"]

        def interval_aux(itv, args):
            return itv.expansions_left + itv.expansions_right

        def budget_hit(itv, args):
            # the interval reached the full width m * w that a finite budget allows
            m = args[1].m
            return not math.isinf(m) and interval_aux(itv, args) == int(m) - 1

        def shrink_aux(res, args):
            return res.iterations

        self.patch_function(mods, kernel, "_step_array", "kernel.transition")
        self.patch_function(mods, rng, "make_stream", "rng.make_stream")
        self.patch_function(mods, slice1d, "stepping_out", "slice1d.stepping_out", interval_aux, budget_hit)
        self.patch_function(mods, slice1d, "reeled_shrinkage", "slice1d.reeled_shrinkage", shrink_aux)
        self.patch_function(mods, harness, "energy_permutation_test", "harness.energy_permutation_test")
        self.patch_function(mods, harness, "estimate_tv", "harness.estimate_tv")
        self.patch_function(mods, harness, "make_binning", "harness.make_binning")
        self.patch_function(mods, harness, "invariance_test", "harness.invariance_test")
        self.patch_function(
            mods, targets, "reference_samples", "targets.reference_samples", lambda out, a: a[1]
        )
        self.patch_function(mods, targets, "estimate_max_gap", "targets.estimate_max_gap")
        self.patch_function(mods, bounds, "full_report", "bounds.full_report")
        self.patch_function(mods, bounds, "estimate_epsilon", "bounds.estimate_epsilon")
        if getattr(kernel, "json", None) is json:
            shim = types.SimpleNamespace(dumps=self.wrap("kernel.sink.serialise", json.dumps))
            self._set(kernel, "json", shim)
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction ----------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def __len__(self) -> int:
        return len(self.name_id)


class SpanTable:
    """A tracer's spans as numpy arrays, with self times."""

    def __init__(self, tracer: Tracer):
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.name = np.array(tracer.name_id, dtype=np.int32)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.dur = np.array(tracer.end, dtype=np.float64) - np.array(tracer.start, dtype=np.float64)
        self.aux = np.array(tracer.aux, dtype=np.float64)
        self.flag = np.array(tracer.flag, dtype=bool)
        has = self.parent >= 0
        child = np.bincount(self.parent[has], weights=self.dur[has], minlength=len(self.dur))
        self.self_time = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        nid = self.ids.get(name, -1)
        return self.name == nid

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str, self_only: bool = False) -> float:
        return float((self.self_time if self_only else self.dur)[self.mask(name)].sum())

    def mean(self, name: str, self_only: bool = False) -> float:
        n = self.count(name)
        return self.total(name, self_only) / n if n else 0.0

    def aux_sum(self, name: str) -> float:
        return float(self.aux[self.mask(name)].sum())

    def flag_sum(self, name: str) -> int:
        return int(self.flag[self.mask(name)].sum())

    def under(self, ancestor: str) -> np.ndarray:
        """Spans that have a span named ``ancestor`` above them."""
        nid = self.ids.get(ancestor, -1)
        flag = np.zeros(len(self.name), dtype=bool)
        p = self.parent.copy()
        live = p >= 0
        while live.any():
            flag[live] |= self.name[p[live]] == nid
            p[live] = self.parent[p[live]]
            live = p >= 0
        return flag
