"""Span tracing for the benchmark's traced runs.

``Tracer.install`` wraps the package's public functions under the names
their callers look up (``uctensor.evaluate.balance``,
``uctensor.evaluate.build_tensor_2d``, ``SparseTensor.__init__``,
``ScaleSet.log_sum_at``, ...), so each call records a span: name, start,
end, parent span, and a few counts taken at the same boundary.  Spans stay
in memory; ``dump`` writes them out and ``layer_metrics`` reduces them to
per-layer self times (a span's duration minus its children's).
``uninstall`` restores every original.

The layer of a span is the first component of its name, which is the
package module that owns the wrapped function.  ``bench`` is the
benchmark's own code between calls (the root span of each pass), and
``trace`` is work the tracer adds itself (the balance-violation check).
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time

LAYERS = ("datasets", "tensor", "balance", "complete", "evaluate", "persist", "recommend", "bench", "trace")

# index of each field in a span record
ID, NAME, PARENT, START, END, COUNTS = range(6)


class Tracer:
    """Records nested spans of one thread into an in-memory list."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    # -- recording -------------------------------------------------------------
    def _open(self, name):
        rec = [len(self.spans), name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, {}]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def open_root(self, name):
        """Open a root span; wrapped functions record spans only inside one."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside span {self.spans[self._stack[-1]][NAME]!r}")
        return self._open(name)

    def close_root(self, rec):
        self._close(rec)

    def wrap(self, owner, attr, name, count=None, count_error=None):
        """Replace ``owner.attr`` by a spanning wrapper.

        ``count(counts, args, result)`` and ``count_error(counts, args,
        exc)`` fill the span's counts after the span has closed."""
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))

        def traced(*args, **kwargs):
            if not self._stack:  # outside a timed job: output checks, warm-up
                return original(*args, **kwargs)
            rec = self._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self._close(rec)
                if count_error is not None:
                    count_error(rec[COUNTS], args, exc)
                raise
            self._close(rec)
            if count is not None:
                count(rec[COUNTS], args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    # -- the package's boundaries ----------------------------------------------
    def install(self):
        """Wrap every traced function of the ``uctensor`` package."""
        uc = importlib.import_module("uctensor")
        datasets = importlib.import_module("uctensor.datasets")
        evaluate = importlib.import_module("uctensor.evaluate")
        complete = importlib.import_module("uctensor.complete")

        def file_bytes(counts, args, ds):
            paths = [args[0]] + [p for p in args[1:2] if p]
            counts["bytes"] = sum(os.path.getsize(p) for p in paths)
            counts["records"] = len(ds.rating_values)
            counts["duplicates_dropped"] = ds.duplicates_dropped

        def entries(counts, args, _):
            counts["entries"] = args[0].n_observed

        def rows(counts, _, result):
            counts["rows"] = len(result)

        def solve_counts(counts, tensor, model, converged):
            counts.update(sweeps=model.sweeps_run, entries=tensor.n_observed, converged=converged)
            # the model's true constraint violation, in a span of its own
            # outside the balance span
            rec = self._open("trace.max_violation")
            try:
                counts["max_violation"] = uc.max_balance_violation(model.balanced, model.k)
            finally:
                self._close(rec)

        def solved(counts, args, model):
            solve_counts(counts, args[0], model, 1)

        def not_converged(counts, args, exc):
            if isinstance(exc, uc.DidNotConvergeError):
                solve_counts(counts, args[0], exc.model, 0)

        def report_pairs(counts, _, report):
            counts["pairs"] = sum(f.n_test for f in report.per_fold)
            counts["cold_pairs"] = sum(f.cold_pairs for f in report.per_fold)

        def model_bytes(counts, args, _):
            counts["bytes"] = os.path.getsize(args[0])

        self.wrap(uc, "load_movielens", "datasets.load_movielens", count=file_bytes)
        self.wrap(uc, "split_kfold", "datasets.split_kfold")
        self.wrap(evaluate, "split_kfold", "datasets.split_kfold")
        self.wrap(evaluate, "build_tensor_2d", "datasets.build_tensor")
        self.wrap(evaluate, "build_tensor_3d", "datasets.build_tensor")
        self.wrap(datasets, "encode_features", "datasets.encode_features")
        self.wrap(uc.SparseTensor, "__init__", "tensor.construct", count=entries)
        self.wrap(uc.ScaleSet, "log_sum_at", "tensor.log_sum_at", count=rows)
        self.wrap(uc.ScaleSet, "empty_key_mask", "tensor.empty_key_mask")
        self.wrap(uc.SparseTensor, "observed_mask_for", "tensor.observed_mask_for")
        for owner in (uc, evaluate, complete):
            self.wrap(owner, "balance", "balance.balance", count=solved, count_error=not_converged)
        self.wrap(uc, "complete", "complete.complete")
        self.wrap(uc.CompletedTensor, "values_at", "complete.values_at")
        self.wrap(uc, "run_experiment", "evaluate.run_experiment", count=report_pairs)
        self.wrap(uc, "baseline_predict", "evaluate.baseline_predict", count=report_pairs)
        # run_experiment looks its per-fold function up by name on each call
        self.wrap(evaluate, "_fold_2d", "evaluate.fold")
        self.wrap(evaluate, "_fold_3d", "evaluate.fold")
        self.wrap(evaluate, "rmse", "evaluate.metrics")
        self.wrap(evaluate, "mae", "evaluate.metrics")
        self.wrap(uc, "save_model", "persist.save_model", count=model_bytes)
        self.wrap(uc, "load_model", "persist.load_model")
        self.wrap(uc, "top_n", "recommend.top_n")

    def uninstall(self):
        """Put back every original, last wrapped first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end", "counts"], "spans": self.spans}, fh)


def self_times(spans):
    """Self time of every span: its duration minus its children's durations."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, n_passes):
    """Per-layer metrics of the traced passes, each a per-pass mean (times
    and counts summed over the run, divided by ``n_passes``) unless its
    name says otherwise."""
    own = self_times(spans)
    per = 1.0 / n_passes

    def named(name):
        return [(s, own[s[ID]]) for s in spans if s[NAME] == name]

    def total(name):
        return sum(s[END] - s[START] for s, _ in named(name))

    def self_total(name):
        return sum(t for _, t in named(name))

    def count(name, key):
        return sum(s[COUNTS].get(key, 0) for s, _ in named(name))

    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        layer_self[s[NAME].split(".", 1)[0]] += t
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] * per, "s")

    load_s = total("datasets.load_movielens")
    load_bytes = count("datasets.load_movielens", "bytes")
    out["datasets.load_movielens.s"] = (load_s * per, "s")
    out["datasets.load_movielens.mb_per_s"] = (load_bytes / 1e6 / load_s if load_s else 0.0, "MB/s")
    out["datasets.split_kfold.s"] = (total("datasets.split_kfold") * per, "s")
    out["datasets.build_tensor.self_s"] = (self_total("datasets.build_tensor") * per, "s")
    out["datasets.records"] = (count("datasets.load_movielens", "records") * per, "count")
    out["datasets.duplicates_dropped"] = (count("datasets.load_movielens", "duplicates_dropped") * per, "count")

    out["tensor.construct.s"] = (total("tensor.construct") * per, "s")
    out["tensor.construct.calls"] = (len(named("tensor.construct")) * per, "count")
    out["tensor.construct.entries"] = (count("tensor.construct", "entries") * per, "count")
    out["tensor.log_sum_at.s"] = (total("tensor.log_sum_at") * per, "s")
    out["tensor.log_sum_at.rows"] = (count("tensor.log_sum_at", "rows") * per, "count")
    out["tensor.empty_key_mask.s"] = (total("tensor.empty_key_mask") * per, "s")
    out["tensor.observed_mask_for.s"] = (total("tensor.observed_mask_for") * per, "s")

    solves = named("balance.balance")
    balance_s = total("balance.balance")
    sweeps = count("balance.balance", "sweeps")
    sweep_entries = sum(s[COUNTS].get("sweeps", 0) * s[COUNTS].get("entries", 0) for s, _ in solves)
    out["balance.s"] = (balance_s * per, "s")
    out["balance.sweeps"] = (sweeps * per, "count")
    out["balance.sweep_us"] = (balance_s / sweeps * 1e6 if sweeps else 0.0, "us")
    out["balance.entries_per_s"] = (sweep_entries / balance_s if balance_s else 0.0, "1/s")
    out["balance.converged_ratio"] = (
        count("balance.balance", "converged") / len(solves) if solves else 0.0,
        "ratio",
    )
    out["balance.max_violation"] = (max((s[COUNTS].get("max_violation", 0.0) for s, _ in solves), default=0.0), "ratio")

    out["complete.complete.s"] = (total("complete.complete") * per, "s")
    out["complete.values_at.s"] = (total("complete.values_at") * per, "s")

    folds = [s[END] - s[START] for s, _ in named("evaluate.fold")]
    out["evaluate.fold.median_s"] = (statistics.median(folds) if folds else 0.0, "s")
    out["evaluate.fold.max_s"] = (max(folds, default=0.0), "s")
    out["evaluate.fold.self_s"] = (self_total("evaluate.fold") * per, "s")
    out["evaluate.metrics.s"] = (total("evaluate.metrics") * per, "s")
    out["evaluate.pairs"] = (
        (count("evaluate.run_experiment", "pairs") + count("evaluate.baseline_predict", "pairs")) * per,
        "count",
    )
    out["evaluate.cold_pairs"] = (
        (count("evaluate.run_experiment", "cold_pairs") + count("evaluate.baseline_predict", "cold_pairs")) * per,
        "count",
    )

    out["persist.save_model.s"] = (total("persist.save_model") * per, "s")
    out["persist.load_model.s"] = (total("persist.load_model") * per, "s")
    out["persist.model_bytes"] = (count("persist.save_model", "bytes") * per, "bytes")

    out["recommend.top_n.self_s"] = (self_total("recommend.top_n") * per, "s")
    out["recommend.queries"] = (len(named("recommend.top_n")) * per, "count")
    out["trace.spans"] = (len(spans) * per, "count")
    out["trace.self_sum_s"] = (sum(layer_self.values()) * per, "s")
    return out
