"""Span recorder for the traced benchmark run (``--trace 1``).

``Recorder.install`` replaces the public functions of ``umod.diffmath``,
``umod.data``, ``umod.model``, ``umod.training`` and ``umod.evaluation``, and
``Tensor.backward``, with timing wrappers; ``uninstall`` puts them back. The
program's own files are not edited: the modules call each other through module
attributes, so a replaced attribute is what the next call finds.

* A layer function records a span: name, parent span, start and end.
* A ``diffmath`` op is counted, not spanned. The adjoints on the tensor it
  returns are wrapped so that backward time is summed per op and per model
  block (the block whose forward call created the op).
* ``Tensor.backward`` records a span with the tape size, walked over
  ``.parents`` from the loss, and the summed adjoint times.

tracemalloc slows allocation-heavy code several times over, so memory peaks
(of ``backward`` and ``split_and_window``) are taken only while ``memory`` is
set. The run sets it for the first traced cycle alone, and that cycle gives
the peaks and counts but no timings.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer metrics
and ``dump`` writes them out when the run ends. Disabled, a recorder keeps
nothing and ``span`` costs one branch.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

BLOCKS = ("embed", "temporal_attention", "spatial_head")
PEAK_SPANS = ("data.split_and_window",)

# Per-training-step timings, reported as a median and as ".p90".
STEP_TIMINGS = {
    "training.step_s": "step",
    "training.stack_batch_s": "training.stack_batch",
    "training.forward_s": "model.forward",
    "training.loss_s": "training.loss",
    "diffmath.backward_s": "diffmath.backward",
    "training.adam_step_s": "training.adam_step",
    "diffmath.matmul.backward_s": "matmul.backward",
    **{f"model.{b}.forward_s": f"model.{b}" for b in BLOCKS},
    **{f"model.{b}.backward_s": f"{b}.backward" for b in BLOCKS},
}
# Per-training-step values, reported as a median.
STEP_VALUES = {
    "diffmath.tape_nodes": ("tape_nodes", "count"),
    "diffmath.op_calls": ("op_calls", "count"),
    "diffmath.transpose.calls": ("transpose_calls", "count"),
    "diffmath.backward_peak_mb": ("peak_mb", "MB"),
}
# Summed span time per cycle (one ingest, train and eval), median over cycles.
CYCLE_TIMINGS = {
    "model.load_checkpoint_s": "model.load_checkpoint",
    "training.predict_s": "training.predict",
    "data.synth_generate_s": "data.synth_generate",
    "data.fit_normalizer_s": "data.fit_normalizer",
    "data.split_and_window_s": "data.split_and_window",
    "data.read_trips_s": "data.read_trips_with_lines",
    "data.build_od_series_s": "data.build_od_series",
    "data.filter_operating_hours_s": "data.filter_operating_hours",
    "data.dump_series_s": "data.dump_series",
    "data.load_series_s": "data.load_series",
    "evaluation.compute_metrics_s": "evaluation.compute_metrics",
    "evaluation.fit_baseline_s": "evaluation.fit_baseline",
    "evaluation.baseline_predict_s": "evaluation.baseline_predict",
}
NOTES = {"data.series_mb": "MB", "data.trips_kept": "count",
         "data.trips_dropped": "count"}


def _tape_size(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent, _ in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


class Recorder:
    """Spans and notes of one run; a disabled recorder keeps nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, parent index or -1, start, end, extra or None]
        self.notes = []  # (cycle span index, name, value)
        self._stack = []
        self._block = None
        self._adjoint_s = None
        self._patches = []
        self.memory = False
        self.op_calls = 0
        self.transpose_calls = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), 0.0, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, extra=None) -> None:
        rec = self.spans[idx]
        rec[3] = time.perf_counter()
        rec[4] = extra
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def note(self, name: str, value: float) -> None:
        """Record a value against the outermost open span (the cycle)."""
        if self.enabled:
            self.notes.append((self._stack[0] if self._stack else -1, name, value))

    # -- wrapping ----------------------------------------------------------

    def install(self, diffmath, layers) -> None:
        for mod in (diffmath, *layers):
            prefix = mod.__name__.rsplit(".", 1)[-1]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if mod is diffmath:
                    wrapped = self._wrap_op(diffmath.Tensor, name, fn)
                else:
                    block = name if prefix == "model" and name in BLOCKS else None
                    wrapped = self._wrap_layer(f"{prefix}.{name}", fn, block)
                self._patch(mod, name, wrapped)
        self._patch(diffmath.Tensor, "backward",
                    self._wrap_backward(diffmath.Tensor.backward))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapped) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def _wrap_layer(self, name: str, fn, block):
        peak_span = name in PEAK_SPANS
        count_ops = name == "model.forward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_block, ops0, transposes0 = self._block, self.op_calls, self.transpose_calls
            peak = peak_span and self.memory
            if peak:
                tracemalloc.start()
            idx = self._open(name)
            if block:
                self._block = block
            extra = None
            try:
                return fn(*args, **kwargs)
            finally:
                self._block = outer_block
                if count_ops:
                    extra = {"op_calls": self.op_calls - ops0,
                             "transpose_calls": self.transpose_calls - transposes0}
                self._close(idx, extra)
                if peak:
                    self.spans[idx][4] = {"peak_mb": tracemalloc.get_traced_memory()[1] / 1e6}
                    tracemalloc.stop()

        return traced

    def _wrap_op(self, tensor_cls, name: str, fn):
        is_transpose = name == "transpose"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.op_calls += 1
            if is_transpose:
                self.transpose_calls += 1
            out = fn(*args, **kwargs)
            for t in (out if isinstance(out, tuple) else (out,)):
                if isinstance(t, tensor_cls) and t.parents:
                    # Ops nested in this one (matmul inside linear) wrapped
                    # their adjoints first; keep the innermost op's name.
                    t.parents = tuple(
                        (p, adj if hasattr(adj, "traced_op")
                         else self._wrap_adjoint(adj, name, self._block))
                        for p, adj in t.parents)
            return out

        return traced

    def _wrap_adjoint(self, adjoint, op: str, block):
        def traced(g):
            t0 = time.perf_counter()
            out = adjoint(g)
            acc = self._adjoint_s
            if acc is not None:
                acc[op, block] = acc.get((op, block), 0.0) + time.perf_counter() - t0
            return out

        traced.traced_op = op
        return traced

    def _wrap_backward(self, backward):
        def traced(tensor):
            nodes = _tape_size(tensor)
            self._adjoint_s = {}
            memory = self.memory
            if memory:
                tracemalloc.start()
            idx = self._open("diffmath.backward")
            try:
                backward(tensor)
            finally:
                self._close(idx)
                extra = {"tape_nodes": nodes, "adjoint_s": self._adjoint_s}
                if memory:
                    extra["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                self.spans[idx][4] = extra
                self._adjoint_s = None

        return traced

    # -- results -----------------------------------------------------------

    def layer_metrics(self, train_samples_per_s: float):
        """Per-layer metrics as ``{name: (value, unit)}``, and steps per cycle.

        The first recorded cycle is the memory cycle: it gives the peaks, and
        the later cycles give every timing.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        cycle_of = [-1] * len(spans)
        cycles = defaultdict(lambda: defaultdict(float))
        steps = []
        step = None
        for i, (name, parent, t0, t1, extra) in enumerate(spans):
            dur = t1 - t0
            pname = spans[parent][0] if parent >= 0 else None
            if parent >= 0:
                child_s[parent] += dur
                cycle_of[i] = cycle_of[parent]
            if name == "cycle":
                cycle_of[i] = i
            cycle = cycles[cycle_of[i]]
            cycle[name] += dur
            if extra and "peak_mb" in extra and name in PEAK_SPANS:
                cycle[name + ".peak_mb"] = max(cycle[name + ".peak_mb"], extra["peak_mb"])
            if pname == "training.train":
                if name == "training.evaluate_loss":
                    cycle["epochs"] += 1
                elif name == "training.stack_batch":
                    step = {"start": t0, "cycle": cycle_of[i]}
                if step is None:
                    continue
                step[name] = dur
                if name == "model.forward":
                    step.update(extra)
                elif name == "diffmath.backward":
                    step["tape_nodes"] = extra["tape_nodes"]
                    step["peak_mb"] = extra.get("peak_mb")
                    for (op, block), t in extra["adjoint_s"].items():
                        for key in (f"{op}.backward", f"{block}.backward"):
                            step[key] = step.get(key, 0.0) + t
                elif name == "training.adam_step":
                    step["step"] = t1 - step["start"]
                    steps.append(step)
                    cycle["steps"] += 1
                    step = None
            elif (step is not None and pname == "model.forward"
                  and name.split(".")[1] in BLOCKS):
                step[name] = dur
        for i, (name, _, t0, t1, _) in enumerate(spans):
            if name in ("training.train", "cli.ingest"):
                cycles[cycle_of[i]][name + ".self"] += t1 - t0 - child_s[i]
        for cycle_idx, name, value in self.notes:
            cycles[cycle_idx][name] = value
        order = sorted(idx for idx in cycles if idx >= 0)
        memory, timed = cycles[order[0]], [cycles[idx] for idx in order[1:]]
        timed_steps = [s for s in steps if s["cycle"] != order[0]]

        def over_cycles(key):
            return statistics.median(c[key] for c in timed)

        out = {}
        for metric, key in STEP_TIMINGS.items():
            values = [s.get(key, 0.0) for s in timed_steps]
            out[metric] = (statistics.median(values), "s")
            out[metric + ".p90"] = (_p90(values), "s")
        for metric, (key, unit) in STEP_VALUES.items():
            values = [s[key] for s in steps if s[key] is not None]
            out[metric] = (statistics.median(values), unit)
        out["training.evaluate_loss_s"] = (
            over_cycles("training.evaluate_loss") / memory["epochs"], "s")
        out["training.loop_self_s"] = (over_cycles("training.train.self"), "s")
        out["training.steps"] = (memory["steps"], "count")
        out["training.epochs"] = (memory["epochs"], "count")
        out["training.traced_samples_per_s"] = (train_samples_per_s, "windows/s")
        for metric, key in CYCLE_TIMINGS.items():
            out[metric] = (over_cycles(key), "s")
        out["data.split_and_window_peak_mb"] = (
            memory["data.split_and_window.peak_mb"], "MB")
        out["cli.ingest.self_s"] = (over_cycles("cli.ingest.self"), "s")
        for metric, unit in NOTES.items():
            out[metric] = (memory[metric], unit)
        return out, [int(cycles[idx]["steps"]) for idx in order]

    def dump(self, path) -> None:
        """Write one JSON line per span: name, parent, start, end, extra."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, t0, t1, extra in self.spans:
                if extra and "adjoint_s" in extra:
                    extra = {**extra, "adjoint_s": {f"{op}/{block}": s for (op, block), s
                                                    in extra["adjoint_s"].items()}}
                fh.write(json.dumps([name, parent, t0, t1, extra]) + "\n")
