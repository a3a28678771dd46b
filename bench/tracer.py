"""Spans around the calls into fadelab's modules, recorded from outside.

``Tracer`` wraps every public function of the traced modules.  Entering it
rebinds each name that refers to such a function in any loaded fadelab
module, so calls through a module attribute (``spectra.ar1`` from cli) and
through a name imported with ``from ... import`` (``rng_stream`` in mi) are
both seen; leaving it restores every rebound name.

A span is (function, start, end, parent, op, count, tag); spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("spectra", "quadrature", "asymptotics", "prediction", "simulate", "mi", "cli")


def _size(args, kwargs, result):
    return float(np.size(result)), 0


def _tell_after(args, kwargs, result):
    """Bytes written by trace_to_csv, whose report file is opened just before."""
    fh = args[1] if len(args) > 1 else kwargs["fh"]
    try:
        return float(fh.tell()), 0
    except (OSError, ValueError):
        return 0.0, 0


#: per-call (count, tag) taken from the call's arguments and result
COUNTERS = {
    "spectra.autocorr_lags": _size,
    "spectra.density": _size,
    "quadrature.pl_fourier": _size,
    "prediction.finite_past_pred_error": lambda a, k, r: (float(r.past_length), int(r.clipped)),
    "simulate.gen_fading": _size,
    "simulate.trace_to_csv": _tell_after,
    "mi.mi_monte_carlo": lambda a, k, r: (float(r.n_samples), r.block_length),
}


class Tracer:
    """Records spans while installed; use as ``with tracer: ...``."""

    def __init__(self, package):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.tag = array("i")       # a per-call key: block length, clipped flag
        self.current_op = -1
        self._stack: list[int] = []
        self._package = package.__name__
        self._wrappers: dict[int, tuple[object, object]] = {}   # id(fn) -> (fn, wrapper)
        self._patched: list[tuple[object, str, object]] = []
        for short in MODULES:
            module = sys.modules[f"{self._package}.{short}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    label = f"{short}.{name}"
                    self._wrappers[id(fn)] = (fn, self._wrap(len(self.names), fn, COUNTERS.get(label)))
                    self.names.append(label)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fid: int, fn, counter):
        clock = time.perf_counter
        stack = self._stack
        fids, parents, ops = self.fid, self.parent, self.op
        starts, ends, counts, tags = self.start, self.end, self.count, self.tag

        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            counts.append(0.0)
            tags.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[idx], tags[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        """Rebind every name that refers to a wrapped function, in every
        loaded module of the package."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self._package or name.startswith(self._package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return {"fid": np.frombuffer(self.fid, dtype=np.int32), "parent": parent,
                "op": np.frombuffer(self.op, dtype=np.int32), "start": start, "end": end,
                "count": np.frombuffer(self.count, dtype=float),
                "tag": np.frombuffer(self.tag, dtype=np.int32),
                "dur": dur, "self": dur - covered}

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **{
            k: a[k] for k in ("fid", "parent", "op", "start", "end", "count", "tag")})


class Layers:
    """Per-function totals of one trace."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        fid, parent = a["fid"], a["parent"]
        # inclusive time counts only spans not nested in a span of the same function
        outer = (parent < 0) | (fid[np.maximum(parent, 0)] != fid)
        self._a, self._outer = a, outer
        self._fid = {name: i for i, name in enumerate(tracer.names)}

    def _mask(self, name: str) -> np.ndarray:
        return self._a["fid"] == self._fid[name]

    def self_time(self, *names: str) -> float:
        return float(sum(self._a["self"][self._mask(n)].sum() for n in names))

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def count(self, name: str) -> float:
        return float(self._a["count"][self._mask(name)].sum())

    def tags(self, name: str) -> np.ndarray:
        return self._a["tag"][self._mask(name)]

    def rate(self, name: str, tag: int | None = None) -> float:
        """Summed count over summed inclusive time of ``name``'s spans,
        optionally only those carrying ``tag``; 0 when there are none."""
        mask = self._mask(name) & self._outer
        if tag is not None:
            mask &= self._a["tag"] == tag
        t = float(self._a["dur"][mask].sum())
        return float(self._a["count"][mask].sum()) / t if t > 0 else 0.0
