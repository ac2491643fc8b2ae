"""Outside-in tracing of stablevol's layers.

The tracer never edits the package.  It swaps selected module attributes for
timing wrappers at the binding where the caller looks them up (for example
``stablevol.filters.resample``, which ``abc_apf_step`` reads as a module
global) and wraps the duck-typed model in a proxy whose four model methods
are timed.  Spans are kept in memory with one stack per thread, because the
study harness runs replicates on a thread pool.  A span's self time is its
duration minus the durations of the spans it directly encloses.  Under
threads a duration also contains time spent waiting for the interpreter lock.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  Each attribute is the name the calling
# module looks up at run time, so replacing it there times every call.
BINDINGS = (
    ("stablevol.svm", "stable_sample", "stable.sample"),
    ("stablevol.filters", "resample", "filters.resample"),
    ("stablevol.filters", "normalize", "filters.normalize"),
    ("stablevol.filters", "ess", "filters.ess"),
    ("stablevol.filters", "log_kernel", "kernels.log_kernel"),
    ("stablevol.filters", "log_phat", "proposals.log_phat"),
    ("stablevol.filters", "resolve_epsilon", "filters.resolve_epsilon"),
    ("stablevol.experiment", "simulate", "experiment.simulate"),
    ("stablevol.experiment", "abc_apf_run", "filters.run"),
    ("stablevol.experiment", "abc_smc_run", "filters.run"),
)

# Model method -> span name.  Other attributes pass through untimed.
MODEL_METHODS = {
    "transition_mean": "svm.transition",
    "transition_sample": "svm.transition",
    "observe_sample": "svm.observe",
    "observation_scale": "svm.scale",
}

# Spans whose result size is the number of items the layer produced.
_ITEM_SPANS = ("stable.sample", "kernels.log_kernel", "proposals.log_phat")


class _ThreadLog:
    """Accumulators of one thread; only that thread writes to them."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.stack = []  # frames: [span id, child seconds]
        self.next_id = 0
        self.spans = []
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.items = defaultdict(int)
        self.unique_ancestors = 0
        self.ancestors = 0


class Tracer:
    """Times calls into stablevol's layers from outside the package."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self.absent = set()
        self.unit = -1
        self.keep_spans = False

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, name: str, fn):
        """Return ``fn`` timed as a span called ``name``."""

        def timed(*args, **kwargs):
            log = self._log()
            span_id = log.next_id
            log.next_id += 1
            frame = [span_id, 0.0]
            log.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                log.stack.pop()
                duration = end - start
                log.self_s[name] += duration - frame[1]
                log.total_s[name] += duration
                log.calls[name] += 1
                if log.stack:
                    log.stack[-1][1] += duration
                if self.keep_spans:
                    parent = log.stack[-1][0] if log.stack else None
                    log.spans.append((self.unit, span_id, parent, name, start, end))
            if name in _ITEM_SPANS:
                log.items[name] += int(np.size(result))
            elif name == "filters.resample":
                ancestors = result[1]
                # Bookkeeping only: charge its time to no layer.
                t0 = time.perf_counter()
                log.unique_ancestors += int(np.count_nonzero(np.bincount(ancestors)))
                log.ancestors += len(ancestors)
                if log.stack:
                    log.stack[-1][1] += time.perf_counter() - t0
            return result

        return timed

    @contextmanager
    def patched(self):
        """Replace every binding in ``BINDINGS`` by its timed wrapper.

        A module or attribute that no longer exists is recorded in
        ``absent`` and skipped; the originals are restored on exit.
        """
        saved = []
        try:
            for module_name, attr, name in BINDINGS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def model(self, model):
        """Proxy for ``model`` whose ``MODEL_METHODS`` are timed."""
        return TimedModel(model, self)

    def collect(self) -> dict:
        """Merge and reset every thread's accumulators."""
        out = {
            "self_s": defaultdict(float),
            "total_s": defaultdict(float),
            "calls": defaultdict(int),
            "items": defaultdict(int),
            "unique_ancestors": 0,
            "ancestors": 0,
        }
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for key in ("self_s", "total_s", "calls", "items"):
                for name, value in getattr(log, key).items():
                    out[key][name] += value
            out["unique_ancestors"] += log.unique_ancestors
            out["ancestors"] += log.ancestors
            log.reset()
        return out

    def spans(self) -> list:
        """Every kept span as a dict, in start order."""
        with self._lock:
            logs = list(self._logs)
        rows = [
            {
                "unit": unit,
                "thread": log.thread_id,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
            }
            for log in logs
            for unit, span_id, parent, name, start, end in log.spans
        ]
        return sorted(rows, key=lambda row: row["start"])


class TimedModel:
    """Delegates to a model, timing the methods named in ``MODEL_METHODS``."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        for method, name in MODEL_METHODS.items():
            fn = getattr(model, method, None)
            if fn is None:
                tracer.absent.add(f"model.{method}")
                continue
            setattr(self, method, tracer.wrap(name, fn))

    def __getattr__(self, attr):
        return getattr(self._model, attr)
