"""Span tracer for the benchmark.

The tracer replaces fedceo functions at the module attribute each caller
looks them up through (``fedceo.protocol.local_train`` is the name
``run_experiment`` resolves at call time), records one span per call, and
puts every original back when ``Tracer.installed`` exits.  Nothing under
``src/`` changes.

A span is (trace, id, parent, name, start, end, attrs): ``trace`` is the
traced iteration it belongs to, ``parent`` the innermost span open on the
same thread when it started.  A span that starts on a thread with no open
span (a sweep cell on a pool worker) is parented to the innermost span
open on the thread that created the tracer.  Spans stay in memory and are
written out by the caller at the end of the run.

The hottest call, ``forward_loss`` (one per SGD step), is counted rather
than spanned, keyed by the name of its enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

MB = 2.0 ** 20


class Span(NamedTuple):
    trace: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict | None


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _partition_sizes(args, result):
    sizes = [part.n for part in result]
    return {"min": min(sizes), "max": max(sizes)}


def _tsvd_work(args, result):
    t = args[0]
    return {"slices": t.shape[2] // 2 + 1, "bytes": t.nbytes}


def _tnn_work(args, result):
    return {"slices": np.shape(args[0])[2]}


def _noise_draws(args, result):
    return {"draws": np.size(args[0])}


def _clipped(args, result):
    delta, clip_c = args[0], args[1]
    return {"clipped": bool(np.linalg.norm(np.ravel(delta)) > clip_c)}


# (module, attribute looked up at call time, span name, attrs probe)
SITES = (
    ("fedceo.protocol", "run_experiment", "protocol.run_experiment", None),
    ("fedceo.sweep", "run_experiment", "protocol.run_experiment", None),
    ("fedceo.cli", "run_experiment", "protocol.run_experiment", None),
    ("fedceo.protocol", "select_clients", "protocol.select_clients", None),
    ("fedceo.protocol", "stack_clients", "protocol.stack_clients", None),
    ("fedceo.protocol", "unstack_clients", "protocol.unstack_clients", None),
    ("fedceo.cli", "write_run_outputs", "protocol.write_run_outputs", None),
    ("fedceo.protocol", "local_train", "models.local_train", None),
    ("fedceo.protocol", "evaluate", "models.evaluate", None),
    ("fedceo.protocol", "flatten_params", "models.flatten_params", None),
    ("fedceo.protocol", "unflatten_params", "models.unflatten_params", None),
    ("fedceo.protocol", "clip_update", "dp.clip_update", _clipped),
    ("fedceo.protocol", "gaussianize", "dp.gaussianize", _noise_draws),
    ("fedceo.protocol", "rng_stream", "dp.rng_stream", None),
    ("fedceo.data", "rng_stream", "dp.rng_stream", None),
    ("fedceo.protocol", "truncated_tsvd", "tensor.truncated_tsvd", _tsvd_work),
    ("fedceo.protocol", "tnn", "tensor.tnn", _tnn_work),
    ("fedceo.tensor", "save_tensors", "tensor.save_tensors", _file_bytes),
    ("fedceo.cli", "load_tensors", "tensor.load_tensors", _file_bytes),
    ("fedceo.protocol", "build_dataset", "data.build_dataset", None),
    ("fedceo.protocol", "load_dataset", "data.load_dataset", _file_bytes),
    ("fedceo.protocol", "partition", "data.partition", _partition_sizes),
    ("fedceo.cli", "save_dataset", "data.save_dataset", _file_bytes),
    ("fedceo.cli", "smoothness_map", "analysis.smoothness_map", None),
    ("fedceo.cli", "spectral_curves", "analysis.spectral_curves", None),
    ("fedceo.cli", "parse_config", "config.parse_config", None),
    ("fedceo.cli", "sweep", "sweep.sweep", None),
    ("fedceo.sweep", "cell_config", "sweep.cell_config", None),
)

# (module, attribute, counter name): counted per enclosing span name.
COUNTED = (
    ("fedceo.models", "forward_loss", "models.forward_loss"),
)


def no_span(name):
    """Stand-in for ``Tracer.span`` in untraced iterations."""
    return contextlib.nullcontext()


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[dict] = []
        self._main_stack = self._state()[0]

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})  # open (id, name) spans, counts
            self._counters.append(state[1])
        return state

    def _parent(self, stack):
        if stack:
            return stack[-1][0]
        main = self._main_stack
        return main[-1][0] if main else None

    def _open(self, name):
        stack = self._state()[0]
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append((sid, name))
        return stack, sid, parent, time.perf_counter()

    def _close(self, opened, name, end, attrs=None):
        stack, sid, parent, start = opened
        stack.pop()
        self.spans.append(Span(self.trace, sid, parent, name, start, end, attrs))

    def _record(self, name, probe, fn, args, kwargs):
        opened = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(opened, name, time.perf_counter())
            raise
        end = time.perf_counter()
        self._close(opened, name, end, probe(args, result) if probe else None)
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(opened, name, time.perf_counter())

    def counts(self) -> dict:
        """(counter name, enclosing span name) -> calls, summed over threads."""
        total: dict = defaultdict(int)
        for counter in self._counters:
            for key, value in counter.items():
                total[key] += value
        return dict(total)

    def reset_counts(self) -> None:
        for counter in self._counters:
            counter.clear()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site in SITES and COUNTED; put the originals back on exit."""
        wrappers = ([(m, a, functools.partial(self._spanned, name=n, probe=p))
                     for m, a, n, p in SITES]
                    + [(m, a, functools.partial(self._counted, name=n))
                       for m, a, n in COUNTED])
        saved = []
        try:
            for module_name, attr, wrap in wrappers:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if hasattr(original, "__wrapped__"):
                    raise RuntimeError(f"{module_name}.{attr} is already wrapped")
                setattr(module, attr, wrap(original))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _spanned(self, fn, name, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, probe, fn, args, kwargs)
        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, counts = self._state()
            key = (name, stack[-1][1] if stack else None)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Span names whose self time is the round loop's own work: the
# Model <-> vector <-> tensor glue between the layer calls.
PROTOCOL_GLUE = ("protocol.run_experiment", "protocol.select_clients")


def layer_metrics(spans: list[Span], counts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration: name -> (value, unit)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name] if s.attrs)

    def self_time(span):
        covered, edge = 0.0, span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        return span.end - span.start - covered

    # A round runs from its select_clients call to the next one (the last
    # round to the end of run_experiment); it is a smoothing round when a
    # truncated_tsvd call starts inside it.
    rounds, smooth_rounds = [], []
    for run in by_name["protocol.run_experiment"]:
        kids = children[run.id]
        starts = sorted(c.start for c in kids if c.name == "protocol.select_clients")
        tsvd_starts = [c.start for c in kids if c.name == "tensor.truncated_tsvd"]
        for lo, hi in zip(starts, starts[1:] + [run.end]):
            rounds.append(hi - lo)
            if any(lo <= t < hi for t in tsvd_starts):
                smooth_rounds.append(hi - lo)

    # A sweep cell is a run_experiment span under a sweep span (a cell on a
    # pool worker is parented to the sweep waiting on the calling thread).
    # Cells are all submitted right after the last cell_config call; a cell
    # waited for a worker from then until it started.
    cells, pool_wait = [], 0.0
    for sweep_span in by_name["sweep.sweep"]:
        kids = children[sweep_span.id]
        submitted = max((c.end for c in kids if c.name == "sweep.cell_config"),
                        default=sweep_span.start)
        runs = [c for c in kids if c.name == "protocol.run_experiment"]
        cells += [c.end - c.start for c in runs]
        pool_wait += sum(c.start - submitted for c in runs)

    steps = counts.get(("models.forward_loss", "models.local_train"), 0)
    clip_calls = calls("dp.clip_update")
    sizes = [s.attrs for s in by_name["data.partition"] if s.attrs]
    return {
        "models.local_train.s": (total("models.local_train"), "s"),
        "models.local_train.calls": (calls("models.local_train"), "count"),
        "models.sgd_steps": (steps, "count"),
        "models.step_us": (1e6 * total("models.local_train") / steps if steps else 0.0, "us"),
        "models.evaluate.s": (total("models.evaluate"), "s"),
        "models.flatten_params.s": (total("models.flatten_params"), "s"),
        "models.unflatten_params.s": (total("models.unflatten_params"), "s"),
        "tensor.truncated_tsvd.s": (total("tensor.truncated_tsvd"), "s"),
        "tensor.truncated_tsvd.calls": (calls("tensor.truncated_tsvd"), "count"),
        "tensor.tnn.s": (total("tensor.tnn"), "s"),
        "tensor.tnn.calls": (calls("tensor.tnn"), "count"),
        "tensor.svd_slices": (attr_sum("tensor.truncated_tsvd", "slices")
                              + attr_sum("tensor.tnn", "slices"), "count"),
        "tensor.stack_mb": (attr_sum("tensor.truncated_tsvd", "bytes") / MB
                            / max(1, len(smooth_rounds)), "MB"),
        "tensor.save_tensors.s": (total("tensor.save_tensors"), "s"),
        "tensor.save_tensors.mb": (attr_sum("tensor.save_tensors", "bytes") / MB, "MB"),
        "tensor.load_tensors.s": (total("tensor.load_tensors"), "s"),
        "tensor.load_tensors.mb": (attr_sum("tensor.load_tensors", "bytes") / MB, "MB"),
        "protocol.rounds": (len(rounds), "count"),
        "protocol.round.s_p50": (percentile(rounds, 0.5), "s"),
        "protocol.round.s_p90": (percentile(rounds, 0.9), "s"),
        "protocol.smooth_round.s_p50": (percentile(smooth_rounds, 0.5), "s"),
        "protocol.smooth_round.s_p90": (percentile(smooth_rounds, 0.9), "s"),
        "protocol.self_s": (sum(self_time(s) for name in PROTOCOL_GLUE
                                for s in by_name[name]), "s"),
        "protocol.stack_clients.s": (total("protocol.stack_clients"), "s"),
        "protocol.unstack_clients.s": (total("protocol.unstack_clients"), "s"),
        "protocol.write_run_outputs.s": (total("protocol.write_run_outputs"), "s"),
        "dp.gaussianize.s": (total("dp.gaussianize"), "s"),
        "dp.clip_update.s": (total("dp.clip_update"), "s"),
        "dp.noise_draws": (attr_sum("dp.gaussianize", "draws"), "count"),
        "dp.clip_fraction": (attr_sum("dp.clip_update", "clipped") / clip_calls
                             if clip_calls else 0.0, "fraction"),
        "dp.rng_stream.calls": (calls("dp.rng_stream"), "count"),
        "data.build_dataset.s": (total("data.build_dataset"), "s"),
        "data.partition.s": (total("data.partition"), "s"),
        "data.load_dataset.s": (total("data.load_dataset"), "s"),
        "data.load_dataset.mb": (attr_sum("data.load_dataset", "bytes") / MB, "MB"),
        "data.save_dataset.s": (total("data.save_dataset"), "s"),
        "data.client_size.min": (min((s["min"] for s in sizes), default=0), "count"),
        "data.client_size.max": (max((s["max"] for s in sizes), default=0), "count"),
        "analysis.spectral_curves.s": (total("analysis.spectral_curves"), "s"),
        "analysis.smoothness_map.s": (total("analysis.smoothness_map"), "s"),
        "cli.gen_data.s": (total("cli.gen_data"), "s"),
        "cli.run.s": (total("cli.run"), "s"),
        "cli.analyze.s": (total("cli.analyze"), "s"),
        "cli.sweep.s": (total("cli.sweep"), "s"),
        "sweep.cells": (len(cells), "count"),
        "sweep.cell.s_p50": (percentile(cells, 0.5), "s"),
        "sweep.pool_wait.s": (pool_wait, "s"),
        "config.parse_config.s": (total("config.parse_config"), "s"),
    }
