"""Out-of-process-boundary tracing of thzris: wraps the public functions that
callers look up as module attributes, records spans and per-function
aggregates in memory, and derives the per-layer metrics.

Each wrapped call pushes a frame on a stack; its self time is its duration
minus the time covered by traced calls made inside it. Stage functions also
record one span per call (name, start, end, parent span); hot per-iteration
helpers are aggregated into counts and times only.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import stats

# (layer module, attribute, owner module where callers look it up, span?, kind)
# The owner is the module whose attribute the caller resolves at call time:
# harness imports build_codebook by name, so that is where it is replaced.
TARGETS = (
    ("cli", "cli_main", "cli", True, None),
    ("harness", "run_experiment", "harness", True, None),
    ("harness", "calibrate_fixed_step", "harness", True, None),
    ("harness", "emit_csv", "harness", True, ("bytes", 1)),
    ("channel", "sample_channel", "channel", False, None),
    ("channel", "dump_realization", "channel", True, ("bytes", 2)),
    ("channel", "load_realization", "channel", True, None),
    ("optimizer", "build_quadratic_form", "optimizer", False, None),
    ("optimizer", "run_agd", "optimizer", True, ("gd",)),
    ("optimizer", "run_cgd", "optimizer", True, ("gd",)),
    ("optimizer", "run_random_phase", "optimizer", False, None),
    ("optimizer", "gradient", "optimizer", False, None),
    ("optimizer", "objective", "optimizer", False, None),
    ("optimizer", "quadratic_model_coeffs", "optimizer", False, None),
    ("optimizer", "quantize_phases", "optimizer", False, None),
    ("beamforming", "cascaded_channel", "beamforming", False, None),
    ("beamforming", "svd_beamformers", "beamforming", False, None),
    ("beamforming", "achievable_rate", "beamforming", False, None),
    ("graphene", "build_codebook", "harness", False, None),
)

BYTES_PER_ENTRY = 16  # complex128 entry of the quadratic form


class CountingArray(np.ndarray):
    """ndarray view that counts the matrix products it takes part in.

    Results are plain ndarrays computed on the same data, so the traced run
    produces bit-identical numbers.
    """

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingArray.matmuls += 1
        plain = tuple(x.view(np.ndarray) if isinstance(x, CountingArray) else x
                      for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


@dataclass
class FuncStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0
    # gradient descent only: (seconds, iterations, iters to best, matvecs, N)
    runs: list = field(default_factory=list)


def iters_to_best(rows, best: float, rel: float = 1e-9) -> int:
    """Index of the first GdTrace row whose objective is within `rel` of best."""
    for it, obj, _, _ in rows:
        if abs(obj - best) <= rel * abs(best):
            return int(it)
    return int(rows[-1][0])


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.spans = []          # (span id, parent span id, name, start, end)
        self._stack = []         # [span id or None, child seconds]
        self._saved = []
        self._next_id = 0
        self.detail = True       # record per-run optimizer details
        self.last_s = 0.0

    # --- recording ----------------------------------------------------------
    def call(self, name: str, fn, args, kwargs, span: bool = True):
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            dur = self.last_s = end - start
            st = self.stats.setdefault(name, FuncStats())
            st.calls += 1
            st.total_s += dur
            st.self_s += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            if span:
                self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn, span: bool, kind=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind and kind[0] == "gd":
                form = args[0]
                args = (replace(form, matrix=form.matrix.view(CountingArray)),) + args[1:]
                before = CountingArray.matmuls
            result = tracer.call(name, fn, args, kwargs, span)
            st = tracer.stats[name]
            if kind and kind[0] == "gd" and tracer.detail:
                st.runs.append((tracer.last_s, len(result.iterations) - 1,
                                iters_to_best(result.iterations, result.best_objective),
                                CountingArray.matmuls - before, form.n_ris))
            elif kind and kind[0] == "bytes":
                st.bytes += os.path.getsize(args[kind[1]])
            return result
        return wrapper

    def install(self, modules: dict) -> None:
        """Replace every target attribute; `modules` maps short names to the
        imported thzris modules."""
        for layer, attr, owner, span, kind in TARGETS:
            mod = modules[owner]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(f"{layer}.{attr}", orig, span, kind))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    # --- metrics ------------------------------------------------------------
    def get(self, name: str) -> FuncStats:
        return self.stats.get(name, FuncStats())


def layer_metrics(tracer: Tracer, replay_ms: list) -> dict:
    """Per-layer metric values (name -> number) of one traced operation."""
    out = {}
    for layer, attr, _, _, _ in TARGETS:
        name = f"{layer}.{attr}"
        st = tracer.get(name)
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_s
    computed_bytes = gd_iters = 0
    for name in ("optimizer.run_agd", "optimizer.run_cgd"):
        runs = tracer.get(name).runs or [(0.0, 0, 0, 0, 0)]   # not called: all zero
        seconds, iters, to_best, matvecs, n_ris = zip(*runs)
        n_iter = sum(iters) or 1
        out[f"{name}.p50_ms"] = stats.median(seconds) * 1e3
        out[f"{name}.us_per_iter"] = sum(seconds) / n_iter * 1e6
        out[f"{name}.matvecs_per_iter"] = sum(matvecs) / n_iter
        if name == "optimizer.run_agd":
            out[f"{name}.iters"] = stats.median(iters)
            out[f"{name}.iters_to_best_p50"] = stats.median(to_best)
        computed_bytes += sum(m * n * n * BYTES_PER_ENTRY for m, n in zip(matvecs, n_ris))
        gd_iters += sum(iters)
    out["optimizer.bytes_per_iter_computed"] = computed_bytes / gd_iters if gd_iters else 0.0
    out["harness.calibrate_fixed_step.total_s"] = tracer.get(
        "harness.calibrate_fixed_step").total_s
    out["harness.run_experiment.total_s"] = tracer.get("harness.run_experiment").total_s
    out["harness.emit_csv.bytes"] = tracer.get("harness.emit_csv").bytes
    out["channel.dump_realization.bytes"] = tracer.get("channel.dump_realization").bytes
    out["cli.replay.p50_ms"] = stats.median(replay_ms) if replay_ms else 0.0
    out["cli.replay.p80_ms"] = stats.percentile(replay_ms, 80) if replay_ms else 0.0
    return out
