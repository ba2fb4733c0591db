"""Spans around the calls into each classent layer and the numpy kernels below.

The traced run wraps the public functions of every layer in each module
namespace that holds them (``from .x import f`` copies ``f`` into the
importing module, so ``classent.cli.delta`` and ``classent.delta`` are
wrapped as well as ``classent.classicalize.delta``), together with
``numpy.linalg.eigvalsh``, ``numpy.linalg.eigh`` and ``numpy.einsum``.
Nothing under ``src/`` changes: the wrappers are installed at run time
from this file and removed again afterwards.

Each call records a span ``[name, start, end, parent, attrs]``.  Spans
stay in memory until the run writes them out; self time is computed
from them afterwards.  The tracer only records while ``active`` is set,
so the benchmark's own correctness checks, which also call into the
library, leave no spans.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# Public functions traced per layer module of classent.
LAYER_FUNCTIONS = {
    "matcore": ("partial_trace", "partial_transpose"),
    "states": ("parse_state_spec", "random_density_matrix"),
    "measures": ("tripartite_negativity", "post_value", "ppt_verdict"),
    "classicalize": (
        "direction_kets",
        "ensemble_values",
        "delta",
        "lower_bound",
        "upper_bound",
        "global_value",
        "classicalize",
    ),
    "certify": (
        "condition1_check",
        "zero_discord_check",
        "fixed_point_check",
        "rank_report",
        "certify_state",
    ),
    "cli": ("main",),
}

# Spans whose per-call allocation peak is taken with tracemalloc.
PEAK_TRACKED = frozenset({"classicalize.ensemble_values"})

# Per-span attributes summed into counts rather than kept as maxima.
SUMMED_ATTRS = ("matrices", "gflop", "out_mb")
MAX_ATTRS = ("side_max", "peak_mb")


def _eig_attrs(args, kwargs, out) -> dict:
    """Batched matrix count, largest side and a computed FLOP estimate.

    The FLOP model is the Householder tridiagonal reduction that
    dominates a dense Hermitian eigensolve: 4/3 n^3 real operations for
    a real matrix and four times that for a complex one.
    """
    a = np.asarray(args[0] if args else kwargs["a"])
    n = a.shape[-1]
    matrices = a.size // (n * n) if n else 0
    per = 4.0 / 3.0 * n**3 * (4.0 if np.iscomplexobj(a) else 1.0)
    return {"matrices": matrices, "side_max": n, "gflop": matrices * per / 1e9}


def _einsum_attrs(args, kwargs, out) -> dict:
    return {"out_mb": np.asarray(out).nbytes / 2**20}


NUMPY_KERNELS = (
    (np.linalg, "eigvalsh", "numpy.eigvalsh", _eig_attrs),
    (np.linalg, "eigh", "numpy.eigh", None),
    (np, "einsum", "numpy.einsum", _einsum_attrs),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, attrs=None):
        tracer = self
        peak = name in PEAK_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            if peak:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if peak:
                    span[4] = {"peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}
                    tracemalloc.stop()
                tracer._stack.pop()
                span[2] = time.perf_counter()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function wherever a classent module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "classent" or n.startswith("classent."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"classent.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        # DensityMatrix is a class shared by every namespace: wrapping its
        # validation hook times each construction wherever it happens.
        dm = sys.modules["classent.matcore"].DensityMatrix
        self._patch(dm, "__post_init__", self._wrap("matcore.DensityMatrix", dm.__post_init__))
        for owner, attr, name, attrs in NUMPY_KERNELS:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), attrs))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def summarize(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer totals of the spans from index ``first`` on.

    Gives ``<name>.s`` (self seconds: duration minus the part covered by
    child spans), ``<name>.calls`` and the span attributes, summed or
    maximized per name.
    """
    chunk = spans[first:]
    child = [0.0] * len(chunk)
    for name, start, end, parent, _ in chunk:
        if parent is not None and parent >= first:
            child[parent - first] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, attrs) in enumerate(chunk):
        out[f"{name}.s"] += end - start - child[i]
        out[f"{name}.calls"] += 1
        for key, value in (attrs or {}).items():
            metric = f"{name}.{key}"
            if key in MAX_ATTRS:
                out[metric] = max(out[metric], value)
            else:
                out[metric] += value
    return dict(out)


def counts_of(summary: dict[str, float]) -> dict[str, float]:
    """The entries of a summary that must repeat exactly between runs."""
    keep = (".calls",) + tuple(f".{a}" for a in SUMMED_ATTRS + ("side_max",))
    return {k: v for k, v in summary.items() if k.endswith(keep)}
