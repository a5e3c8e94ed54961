"""Span tracer for one traced `wickns` run, installed from outside the package.

`Tracer.install` wraps every public function of the layer modules (noise,
norms, dynamics, lab, config, manifest, cli) and rebinds the wrapper at every
module attribute that holds the original, so callers that imported a name
(`wickns.lab.xsb_norm_batch`, `wickns.dynamics.xsb_norm`, the `wickns.cli`
imports) and callers that resolve a module global (`wick_coeffs_block` inside
`evolve_wick_rk4ip`'s `rhs`) all go through it.  Each call leaves one span,
(id, name, parent id, thread id, start, end, attrs), in memory; `attrs` holds
counts taken from the call's argument shapes or result.  Pool tasks inherit
the submitting thread's open span as their parent, so ensemble chunks run on
worker threads nest under the ensemble call that spawned them.

`layer_metrics` turns the spans of one run into the per-layer metrics.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import itertools
import math
import sys
import threading
import time

LAYER_MODULES = ("noise", "norms", "dynamics", "lab", "config", "manifest", "cli")
COMPLEX_BYTES = 16


def _sigma0_count(cutoff: int) -> int:
    """Size of the default sigma0 candidate set of the multiplier scan:
    {0, +-2^k <= 4 cutoff^2} united with the near-diagonal peaks -2 d1 d3."""
    top = 4.0 * cutoff**2
    cand = {0.0}
    v = 1.0
    while v <= top:
        cand.update((v, -v))
        v *= 2.0
    offsets = [d for d in range(-8, 9) if d != 0]
    cand.update(-2.0 * d1 * d3 for d1 in offsets for d3 in offsets)
    return sum(1 for c in cand if abs(c) <= top + 0.5)


def _xsb_shape_counts(states_shape, n_times: int, pad: int) -> dict:
    """Work of the padded time transform behind the X^{s,b} surrogate,
    computed from shapes: paths x modes transforms of length pad (4M + 1)."""
    paths = math.prod(states_shape[:-2])
    modes = states_shape[-1]
    J = 4 * (n_times - 1) + 1
    L = pad * J
    return {
        "paths": paths,
        "fft_points": paths * modes * L,
        "fft_flops": paths * modes * 5 * L * math.log2(L),
        "bytes_computed": COMPLEX_BYTES * paths * modes * (J + L),
    }


# per-function counts: layer name -> f(bound arguments, result) -> attrs
COUNTS = {
    "dynamics.wick_coeffs_block": lambda a, r: {"rows": a["U"].shape[0]},
    "dynamics.picard_iterate": lambda a, r: {"iterations": r.iterations},
    "norms.xsb_norm_batch": lambda a, r: _xsb_shape_counts(a["states"].shape, len(a["times"]), a["pad"]),
    "norms.xsb_norm": lambda a, r: _xsb_shape_counts(a["traj"].states.shape, len(a["traj"].times), a["pad"]),
    "noise.convolution_paths_block": lambda a, r: {"paths": a["n_paths"]},
    "lab.multiplier_supremum_report": lambda a, r: {
        "cells": (a["cutoff"] + 1)
        * (2 * a["cutoff"] + 1) ** 2
        * (_sigma0_count(a["cutoff"]) if a["tau_grid"] is None else len(a["tau_grid"]))
    },
    "lab.variance_invariance_test": lambda a, r: {"finite_ratio": 1.0 - r.blowup_fraction},
    "manifest.write": lambda a, r: {"output_bytes": sum(o["bytes"] for o in a["self"].outputs)},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.fft_len: dict[str, int] = {}  # innermost span name -> longest numpy FFT
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            done = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = None
                if done and count:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = count(bound.arguments, result)
                self.spans.append((sid, name, parent, threading.get_ident(), t0, t1, attrs))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        prefix = package.__name__
        originals: dict[int, tuple] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{prefix}.{short}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        mods = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        manifest_cls = sys.modules[f"{prefix}.manifest"].RunManifest
        for meth in ("record_output", "write"):
            self._patch(manifest_cls, meth, self.wrap(f"manifest.{meth}", getattr(manifest_cls, meth)))
        self._patch_pool()
        self._patch_fft()

    def _patch_pool(self) -> None:
        pool_cls = concurrent.futures.ThreadPoolExecutor
        submit = pool_cls.submit
        tracer = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return submit(pool, fn, *args, **kwargs)
            origin = stack[-1]

            def task(*a, **kw):
                own = tracer._stack()
                own.append(origin)
                try:
                    return fn(*a, **kw)
                finally:
                    own.pop()

            return submit(pool, task, *args, **kwargs)

        self._patch(pool_cls, "submit", traced_submit)

    def _patch_fft(self) -> None:
        import numpy as np

        for attr in ("fft", "ifft"):
            orig = getattr(np.fft, attr)

            def traced(a, n=None, axis=-1, *rest, _orig=orig, **kw):
                stack = self._stack()
                if stack:
                    length = n if n is not None else np.shape(a)[axis]
                    name = stack[-1][1]
                    with self._lock:
                        self.fft_len[name] = max(self.fft_len.get(name, 0), int(length))
                return _orig(a, n, axis, *rest, **kw)

            self._patch(np.fft, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced run


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans, fft_len: dict, workers: int) -> dict:
    """Per-layer metrics of one traced run (see BENCHMARK.json `per_layer`)."""
    by_id = {s[0]: s for s in spans}
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
        children.setdefault(s[2], []).append((s[4], s[5]))

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s[5] - s[4] for s in named(name))

    def self_time(name):
        return sum(s[5] - s[4] - _covered(children.get(s[0], ()), s[4], s[5]) for s in named(name))

    def attr(name, key):
        return sum((s[6] or {}).get(key, 0) for s in named(name))

    def under(span, names):
        p = span[2]
        while p is not None:
            if by_id[p][1] in names:
                return True
            p = by_id[p][2]
        return False

    ensembles = ("lab.tail_estimate_mc", "lab.variance_invariance_test")
    chunk_kernels = ("noise.convolution_paths_block", "dynamics.evolve_wick_rk4ip")
    busy_kernels = chunk_kernels + ("norms.xsb_norm_batch",)
    in_ensemble = [s for s in spans if s[1] in busy_kernels and under(s, ensembles)]
    ensemble_wall = sum(busy(name) for name in ensembles)
    variance = named("lab.variance_invariance_test")

    m = {}
    for name in ("dynamics.wick_coeffs_block", "dynamics.evolve_wick_rk4ip", "norms.xsb_norm_batch",
                 "norms.xsb_norm", "norms.discrete_duhamel", "noise.convolution_paths_block",
                 "noise.trajectory_to_csv", "lab.multiplier_supremum_report", "config.parse_config",
                 "cli.main"):
        m[f"{name}.s"] = busy(name)
    for name in ("dynamics.wick_coeffs_block", "dynamics.evolve_wick_rk4ip", "norms.xsb_norm_batch",
                 "norms.xsb_norm", "norms.discrete_duhamel", "noise.convolution_paths_block",
                 "noise.convolution_from_path", "lab.multiplier_supremum_report"):
        m[f"{name}.calls"] = len(named(name))
    for name in ("dynamics.evolve_wick_rk4ip", "dynamics.picard_iterate", "lab.tail_estimate_mc",
                 "lab.variance_invariance_test", "cli.main"):
        m[f"{name}.self_s"] = self_time(name)
    m["dynamics.wick_coeffs_block.rows"] = attr("dynamics.wick_coeffs_block", "rows")
    m["dynamics.fft_len"] = max((v for k, v in fft_len.items() if k.startswith("dynamics.")), default=0)
    m["dynamics.picard_iterate.iterations"] = attr("dynamics.picard_iterate", "iterations")
    m["norms.xsb_norm_batch.paths"] = attr("norms.xsb_norm_batch", "paths")
    for key in ("fft_points", "fft_flops", "bytes_computed"):
        m[f"norms.{key}"] = attr("norms.xsb_norm_batch", key) + attr("norms.xsb_norm", key)
    m["noise.convolution_paths_block.paths"] = attr("noise.convolution_paths_block", "paths")
    m["lab.multiplier.cells"] = attr("lab.multiplier_supremum_report", "cells")
    m["lab.ensemble.chunks"] = sum(1 for s in in_ensemble if s[1] in chunk_kernels)
    m["lab.ensemble.busy_ratio"] = (
        sum(s[5] - s[4] for s in in_ensemble) / (workers * ensemble_wall) if ensemble_wall > 0 else 0.0
    )
    m["lab.variance.finite_ratio"] = (
        sum(s[6]["finite_ratio"] for s in variance) / len(variance) if variance else 0.0
    )
    m["manifest.write.s"] = busy("manifest.write") + busy("manifest.record_output")
    m["cli.output_bytes"] = attr("manifest.write", "output_bytes")
    return m
