"""Layer spans for a traced benchmark child.

Each span wraps one public entry point of a gfomlab module.  A wrapper is
installed on the name where the *caller* looks it up: ``harness`` imports
``sample_asymmetric``, ``run_amp_symmetric``, ``predict_entrywise``,
``gd_se`` and ``gradient_descent`` by name, and ``matched_pair`` calls
``sample_symmetric`` through the globals of ``ensembles``, so patching only
the defining module would leave those calls untimed.

A span records its layer, start, end, the span that caused it, the process
peak RSS before and after, and the work it did.  A layer's self time is the
sum over its spans of duration minus the time covered by child spans.
"""

import functools
import importlib
import resource
import time

import numpy as np


def _sample_work(args, result):
    return {"entries": int(np.asarray(result).size)}


def _iterate_work(args, result):
    # one product with A per step on a symmetric track, A and A^T per step
    # on a two-sided one
    if result.z is not None:
        matvecs = result.z.shape[0] - 1
    else:
        matvecs = 2 * (result.u.shape[0] - 1)
    nbytes = np.asarray(args[0], dtype=float).nbytes
    return {"matvecs": matvecs, "matvec_bytes": matvecs * nbytes}


# (module, attribute path, layer, work counter)
TARGETS = (
    ("gfomlab.cli", "run_named_experiment", "harness.self", None),
    ("gfomlab.harness", "build_plan", "programs.build", None),
    ("gfomlab.harness", "sample_symmetric", "ensembles.sample", _sample_work),
    ("gfomlab.harness", "sample_asymmetric", "ensembles.sample", _sample_work),
    ("gfomlab.ensembles", "sample_symmetric", "ensembles.sample", _sample_work),
    ("gfomlab.ensembles", "sample_asymmetric", "ensembles.sample", _sample_work),
    ("gfomlab.ensembles", "EnsembleSpec.__init__", "ensembles.spec", None),
    ("gfomlab.harness", "run_symmetric", "dynamics.iterate", _iterate_work),
    ("gfomlab.harness", "run_asymmetric", "dynamics.iterate", _iterate_work),
    ("gfomlab.harness", "run_amp_symmetric", "dynamics.iterate", _iterate_work),
    ("gfomlab.harness", "gradient_descent", "erm.gd", None),
    ("gfomlab.harness", "se_symmetric", "state_evolution.se", None),
    ("gfomlab.harness", "se_asymmetric", "state_evolution.se", None),
    ("gfomlab.harness", "amp_se_symmetric", "state_evolution.se", None),
    ("gfomlab.harness", "predict_entrywise", "state_evolution.predict", None),
    ("gfomlab.harness", "gd_se", "gd_se.se", None),
    ("gfomlab.harness", "gd_key_params", "gd_se.se", None),
    ("gfomlab.harness", "ComparisonReport.to_csv", "cli.write", None),
    ("gfomlab.harness", "ComparisonReport.save_json", "cli.write", None),
    ("gfomlab.cli", "emit_plot_data", "cli.write", None),
    ("gfomlab.cli", "RunManifest.save", "cli.write", None),
)


def _peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Span:
    __slots__ = ("layer", "parent", "start", "end", "rss0", "rss1", "work")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.work = None


class Tracer:
    """Installs the span wrappers for the life of the process and keeps the
    spans in memory."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def _wrap(self, fn, layer, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _Span(layer, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.rss0 = _peak_kb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss1 = _peak_kb()
                self._stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result
        return traced

    def install(self):
        """Patch every target that exists; record the ones that do not."""
        for module, path, layer, work in TARGETS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, layer, work))
        return self

    def summary(self):
        """Per layer: calls, self seconds, peak-RSS rise in MB, work sums."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        layers = {}
        for span, child_s in zip(self.spans, covered):
            row = layers.setdefault(span.layer, {"calls": 0, "self_s": 0.0,
                                                 "rss_growth_mb": 0.0})
            row["calls"] += 1
            row["self_s"] += span.end - span.start - child_s
            row["rss_growth_mb"] += (span.rss1 - span.rss0) / 1024.0
            for key, value in (span.work or {}).items():
                row[key] = row.get(key, 0) + value
        return layers
