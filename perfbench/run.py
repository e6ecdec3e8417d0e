"""Layer-by-layer benchmark of uctensor.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cv-2d --seed 1 --seconds 20 --trace 0

The inputs are generated from ``--seed`` by ``bench_gen.py`` in a child
process (so the generator's memory stays out of this process), the
package is imported from ``src/`` of the same checkout, and every call
goes through the public ``uctensor`` API, single-threaded.

Workloads (a *pass* is the unit that is timed and checked):

* ``cv-2d``: ``load_movielens`` + 2-D ``run_experiment`` (5 folds,
  defaults) + ``baseline_predict(..., "item_mean")`` on the same folds,
  on MovieLens-shaped ratings of 300 users x 500 items (20,000 pairs).
* ``cv-3d``: ``load_movielens`` with ``users.dat`` + 3-D
  ``run_experiment`` over age, gender and occupation (k=2).  It is not
  in ``BENCHMARK.json``: its layers are those of ``cv-2d``, and the run
  budget holds four workloads.
* ``chain-solve``: ``complete`` of a rank-1 80 x 80 matrix observed
  where |i - j| <= 3, at a tolerance tight enough for fills within 1e-6.
* ``persist``: build the tensor of all records, ``balance``, then
  ``save_model`` and ``load_model``.
* ``serve-topn``: closed-loop ``top_n(n=10, exclude_observed=True)``
  queries, one client, 100 a pass, on a model trained on ratings of
  MovieLens-1M's sizes.  The generator child trains it and pickles it;
  set-up unpickles it, so that neither training nor the JSON load counts
  toward this workload's memory.

``persist`` reads the rating columns from ``ratings.npz`` instead of
parsing ``ratings.dat``: parsing is measured by ``cv-2d``.

``--trace 0`` prints the end-to-end metrics, the same three on every
workload:

* ``setup_s``: median of SETUP_REPEATS set-ups (input generation in the
  child, loading or training what the pass needs, warm-up on a small
  input).
* ``job_s``: the time of one pass at the run's best speed: the sum over
  the pass's stages of each stage's fastest time (``fastest_job``).  The
  passes run back to back, and their number is ``--seconds`` over the
  workload's nominal pass time ``pass_s`` (``measure``), so it does not
  depend on the speed being measured.  On a shared machine the speed of
  the same code swings by 30-80%, and slow stretches last from a fraction
  of a second to minutes, yet within a run some short stretches go at
  full speed.  A short stage catches them, a long pass does not: on a
  2-vCPU Xeon VM, over eight 24 s windows of back-to-back 75 ms solves,
  the fastest solve of a window varied by 6% from window to window
  (quartile spread over median) and the median solve by 13%.  Sleeping
  between passes, so that fewer of them fill the same time, raised the
  spread of the fastest to 18%.  The median job time of the passes is
  printed as ``job_median_s``.
* ``peak_rss_mb``: this process's peak resident memory.  The generator
  runs in a child, and set-up only loads inputs or warms up on small
  ones, so the passes set the peak.

The figures each workload exists for (``evaluate_s``, ``baseline_s``,
``rmse``, ``complete_s``, ``fill_err``, ``train_s``, ``save_s``,
``load_s``, ``model_mb``, ``topn_p50_ms``, ``topn_p99_ms``) are printed
as ``metric <name> <value> <unit>`` lines before the result, as medians
over the run's passes.  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics of ``bench_spans``; the span
list is written to ``.perfbench/spans-<workload>-seed<n>.json``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` (operations whose output check failed) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import bench_gen
import bench_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
GEN_TIMEOUT_S = 150
TOP_N = 10
QUERIES_PER_PASS = 100
PROBE_USERS = 5
CHAIN_EPSILON = 1e-18  # tight enough that the seed solver meets FILL_ERR_MAX
CHAIN_MAX_SWEEPS = 200_000
FILL_ERR_MAX = 1e-6
# RMSE of the seed code on the ``bench_gen.SMALL`` ratings, mean over
# seeds 1-10, and the tolerance a run may differ from it: six standard
# deviations of the seed-to-seed spread (0.0040 for the model, 0.0085 for
# item_mean).  The 3-D value equals the 2-D one: with each user holding
# one feature per category and the default sweep order, the feature
# scales never move.
REF_RMSE = {"2d": 0.7911, "3d": 0.7911, "item_mean": 0.9157}
RMSE_TOL = {"2d": 0.024, "3d": 0.024, "item_mean": 0.051}


class Clock:
    """Times the job part of a pass.  Under a tracer each timed segment is
    also a root span ``bench.job``, and the span's own interval is used,
    so the traced job time equals the sum of the spans' self times."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0
        self.last = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self._rec = self.tracer.open_root("bench.job")
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.close_root(self._rec)
            self.last = self._rec[bench_spans.END] - self._rec[bench_spans.START]
        else:
            self.last = end - self._t0
        self.seconds += self.last


def timed(values, key, fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    values[key] = values.get(key, 0.0) + time.perf_counter() - t0
    return result


def check(messages, ok, message):
    if not ok:
        messages.append(message)


def failed_ops(**ops):
    """One failure line per operation that failed any of its checks."""
    return [f"{op}: " + "; ".join(messages) for op, messages in ops.items() if messages]


class CrossValidation:
    """Cross-validation on the ``bench_gen.SMALL`` ratings."""

    def __init__(self, uc, seed, mode):
        self.uc = uc
        self.mode = mode
        self.pass_s = 0.18 if mode == "2d" else 0.45  # nominal time of a pass
        self.baseline = mode == "2d"
        self.stages = ("parse_s", "cv_s", "baseline_s") if self.baseline else ("parse_s", "cv_s")
        self.ops_per_pass = 2 if self.baseline else 1
        self.config = uc.ExperimentConfig(threads=1)

    def prepare(self, inputs):
        self.inputs = inputs
        self._pass(inputs / "warm", Clock())

    def _pass(self, d, clock):
        uc = self.uc
        values = {}
        users = d / "users.dat" if self.mode == "3d" else None
        with clock:
            ds = timed(values, "parse_s", uc.load_movielens, d / "ratings.dat", users)
            report = timed(values, "cv_s", uc.run_experiment, ds, self.mode, self.config)
            base = None
            if self.baseline:
                plan = timed(values, "baseline_s", uc.split_kfold, ds, self.config.n_folds, self.config.seed)
                base = timed(values, "baseline_s", uc.baseline_predict, ds, plan, "item_mean")
        values["evaluate_s"] = values["parse_s"] + values["cv_s"]
        return ds, report, base, values

    def run_pass(self, clock):
        ds, report, base, values = self._pass(self.inputs, clock)
        values["rmse"] = report.rmse_mean
        evaluate, baseline = [], []
        sizes = (len(ds.rating_values), ds.n_users, ds.n_products)
        expected = tuple(bench_gen.SMALL[k] for k in ("n_pairs", "n_users", "n_items"))
        check(evaluate, sizes == expected, f"records, users, items {sizes} != {expected}")
        check(evaluate, ds.duplicates_dropped == 0, f"{ds.duplicates_dropped} duplicate pairs dropped")
        check(evaluate, all(f.converged for f in report.per_fold), "a fold did not converge")
        ref, tol = REF_RMSE[self.mode], RMSE_TOL[self.mode]
        check(evaluate, abs(report.rmse_mean - ref) <= tol, f"{self.mode} rmse {report.rmse_mean:.4f} not within {tol} of {ref}")
        if self.baseline:
            values["baseline_rmse"] = base.rmse_mean
            ref, tol = REF_RMSE["item_mean"], RMSE_TOL["item_mean"]
            check(baseline, abs(base.rmse_mean - ref) <= tol, f"item_mean rmse {base.rmse_mean:.4f} not within {tol} of {ref}")
            check(baseline, report.rmse_mean < base.rmse_mean, f"rmse {report.rmse_mean:.4f} not below item_mean {base.rmse_mean:.4f}")
        return values, failed_ops(evaluate=evaluate, baseline=baseline)


class ChainSolve:
    """Completion of a slow-mixing banded rank-1 matrix."""

    ops_per_pass = 1
    pass_s = 0.065  # nominal time of a pass: the solve and its check
    stages = ("complete_s",)

    def __init__(self, uc, seed):
        self.uc = uc
        self.solver = uc.SolverConfig(epsilon=CHAIN_EPSILON, max_sweeps=CHAIN_MAX_SWEEPS)

    def _load(self, path):
        with np.load(path) as z:
            indices, values, row, col = z["indices"], z["values"], z["row"], z["col"]
        n = len(row)
        tensor = self.uc.SparseTensor((n, n), indices, values)
        unobserved = np.ones((n, n), dtype=bool)
        unobserved[indices[:, 0], indices[:, 1]] = False
        cells = np.argwhere(unobserved)
        return tensor, cells, row[cells[:, 0]] * col[cells[:, 1]]

    def prepare(self, inputs):
        self.tensor, self.cells, self.truth = self._load(inputs / "chain.npz")
        warm, _, _ = self._load(inputs / "warm" / "chain.npz")
        self.uc.complete(warm, 1, self.solver)

    def run_pass(self, clock):
        values = {}
        with clock:
            completed = timed(values, "complete_s", self.uc.complete, self.tensor, 1, self.solver)
        fills = completed.values_at(self.cells)
        values["fill_err"] = float(np.max(np.abs(fills / self.truth - 1.0)))
        values["sweeps"] = completed.model.sweeps_run
        messages = []
        check(messages, values["fill_err"] <= FILL_ERR_MAX, f"fill_err {values['fill_err']:.3e} > {FILL_ERR_MAX}")
        return values, failed_ops(complete=messages)


class Persist:
    """Train on all records, save the model, load it back."""

    ops_per_pass = 1
    pass_s = 0.18
    stages = ("train_s", "save_s", "load_s")

    def __init__(self, uc, seed):
        self.uc = uc
        self.seed = seed

    def prepare(self, inputs):
        self.inputs = inputs
        self._pass(bench_gen.Records.load(inputs / "warm" / "ratings.npz"), inputs / "warm" / "model.json", Clock())
        self.records = bench_gen.Records.load(inputs / "ratings.npz")
        rng = np.random.default_rng([self.seed, 3])
        self.probe = rng.choice(self.records.shape[0], size=PROBE_USERS, replace=False).tolist()

    def _pass(self, rec, path, clock):
        uc = self.uc
        values = {}
        with clock:
            model = timed(values, "train_s", bench_gen.train, uc, rec)
            timed(
                values,
                "save_s",
                uc.save_model,
                path,
                model,
                native_range=(1.0, 5.0),
                users=rec.users,
                products=rec.products,
            )
            loaded, _ = timed(values, "load_s", uc.load_model, path)
        values["model_mb"] = os.path.getsize(path) / 1e6
        return model, loaded, values

    def run_pass(self, clock):
        uc = self.uc
        path = self.inputs / "model.json"
        model, loaded, values = self._pass(self.records, path, clock)
        path.unlink()
        in_memory = uc.CompletedTensor(model)
        messages = []
        for u in self.probe:
            a = uc.top_n(loaded, u, TOP_N, exclude_observed=True)
            b = uc.top_n(in_memory, u, TOP_N, exclude_observed=True)
            check(messages, a == b, f"top_n of user {u} differs after load_model")
        return values, failed_ops(round_trip=messages)


class ServeTopN:
    """Closed-loop top-n queries, one client, against a trained model."""

    ops_per_pass = QUERIES_PER_PASS
    pass_s = 0.12  # 100 queries take 60-100 ms, their checks 40 ms
    stages = ("topn_s",)

    def __init__(self, uc, seed):
        self.uc = uc
        self.seed = seed
        self.latencies = []
        self.probe = {}  # user -> reference answer, filled when first queried
        self.probe_left = PROBE_USERS

    def prepare(self, inputs):
        with open(inputs / "warm" / "model.pkl", "rb") as fh:
            warm = pickle.load(fh)
        for u in range(10):
            self.uc.top_n(warm, u, TOP_N, exclude_observed=True)
        with open(inputs / "model.pkl", "rb") as fh:
            self.completed = pickle.load(fh)
        self.rng = np.random.default_rng([self.seed, 2])

    def _rated(self, u):
        """Boolean mask over all products, True where user u rated one."""
        products = np.arange(self.completed.shape[1])
        return self.completed.source.observed_mask_for(np.stack([np.full_like(products, u), products], axis=1))

    def _reference(self, u, rated):
        """Top-n of user u from scalar predict_rating calls, the oracle for
        the batched top_n path."""
        preds = [(-self.uc.predict_rating(self.completed, u, p).rating, p) for p in np.flatnonzero(~rated).tolist()]
        return [p for _, p in sorted(preds)[:TOP_N]]

    def run_pass(self, clock):
        top_n = self.uc.top_n
        completed = self.completed
        answers = []
        for u in self.rng.integers(0, completed.shape[0], size=QUERIES_PER_PASS).tolist():
            with clock:
                picks = top_n(completed, u, TOP_N, exclude_observed=True)
            self.latencies.append(clock.last)
            answers.append((u, picks))
        failures = []
        for u, picks in answers:
            products = [p.product for p in picks]
            ratings = [p.rating for p in picks]
            rated = self._rated(u)
            ok = (
                len(products) == TOP_N
                and not rated[products].any()
                and all(a >= b for a, b in zip(ratings, ratings[1:]))
            )
            if ok and (u in self.probe or self.probe_left > 0):
                if u not in self.probe:
                    self.probe[u] = self._reference(u, rated)
                    self.probe_left -= 1
                ok = products == self.probe[u]
            if not ok:
                failures.append(f"top_n of user {u}: wrong answer {products}")
        return {"topn_s": clock.seconds}, failures

    def summary(self):
        lat = sorted(self.latencies)
        q = statistics.quantiles(lat, n=100, method="inclusive")
        return {"topn_p50_ms": statistics.median(lat) * 1e3, "topn_p99_ms": q[98] * 1e3, "queries": len(lat)}


WORKLOADS = {
    "cv-2d": lambda uc, seed: CrossValidation(uc, seed, "2d"),
    "cv-3d": lambda uc, seed: CrossValidation(uc, seed, "3d"),
    "chain-solve": ChainSolve,
    "persist": Persist,
    "serve-topn": ServeTopN,
}

UNITS = {
    "parse_s": "s",
    "cv_s": "s",
    "evaluate_s": "s",
    "baseline_s": "s",
    "complete_s": "s",
    "train_s": "s",
    "save_s": "s",
    "load_s": "s",
    "model_mb": "MB",
    "rmse": "rating",
    "baseline_rmse": "rating",
    "fill_err": "ratio",
    "sweeps": "count",
    "topn_s": "s",
    "topn_p50_ms": "ms",
    "topn_p99_ms": "ms",
    "queries": "count",
    "job_median_s": "s",
    "passes": "count",
}


def import_package():
    """Import uctensor from this checkout's src/, or exit non-zero."""
    if not (SRC / "uctensor" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'uctensor'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import uctensor

    if Path(uctensor.__file__).resolve().parent != (SRC / "uctensor").resolve():
        raise SystemExit(f"perfbench: imported uctensor from {uctensor.__file__}, not from {SRC}")
    return uctensor


def set_up(uc, name, seed, run_dir):
    """Generate the inputs in a child process and prepare a fresh workload,
    SETUP_REPEATS times; returns the last workload and the set-up times."""
    times = []
    for k in range(SETUP_REPEATS):
        inputs = run_dir / f"setup{k}"
        workload = None  # free the previous set-up before the next one
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "bench_gen.py"), "--workload", name, "--seed", str(seed), "--out", str(inputs)],
            check=True,
            timeout=GEN_TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
        )
        workload = WORKLOADS[name](uc, seed)
        workload.prepare(inputs)
        times.append(time.perf_counter() - t0)
        if k:
            shutil.rmtree(run_dir / f"setup{k - 1}")
    return workload, times


def run_pass(workload, clock, tally):
    """One pass with its output checks; a raising pass fails all its operations.

    Every pass starts from an empty collector: save_model and load_model
    make many small objects, and where the cyclic collector stood when a
    pass started moved a persist pass of MovieLens-1M's sizes by up to
    50%."""
    gc.collect()
    try:
        values, failures = workload.run_pass(clock)
        failed = len(failures)
    except Exception:
        traceback.print_exc()
        values, failures, failed = {}, [], workload.ops_per_pass
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    tally["attempted"] += workload.ops_per_pass
    tally["failed"] += failed
    return values


def measure(workload, seconds, tally):
    """``seconds / workload.pass_s`` untraced passes back to back; per-pass
    job times and values.

    The count depends only on ``seconds``, so a faster program does not
    also get the fastest of more samples; a slower one runs longer."""
    jobs, passes = [], []
    for _ in range(max(1, round(seconds / workload.pass_s))):
        clock = Clock()
        passes.append(run_pass(workload, clock, tally))
        jobs.append(clock.seconds)
    return jobs, passes


def measure_traced(workload, seconds, tally):
    """Alternate untraced and traced passes for ``seconds`` (at least one
    pair); returns untraced job times, traced job times and the tracer."""
    untraced, traced = [], []
    tracer = bench_spans.Tracer()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        clock = Clock()
        run_pass(workload, clock, tally)
        untraced.append(clock.seconds)
        clock = Clock(tracer)
        with tracer:
            run_pass(workload, clock, tally)
        traced.append(clock.seconds)
    return untraced, traced, tracer


def fastest_job(stages, passes, jobs):
    """The sum over the pass's stages of each stage's fastest time.

    A stage is one call into the package (``load_movielens``,
    ``run_experiment``, ``save_model``, ...) or, for ``serve-topn``, a
    pass of queries, so none lasts much over half a second, and its
    fastest time is taken over every pass of the run.  When no pass got
    through all its stages, the slowest pass's job time stands in."""
    done = [v for v in passes if all(k in v for k in stages)]
    if not done:
        return max(jobs)
    return sum(min(v[k] for v in done) for k in stages)


def print_metric(name, value, unit):
    print(f"metric {name} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uctensor layer-by-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    uc = import_package()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = {"attempted": 0, "failed": 0}
    try:
        workload, setup_times = set_up(uc, args.workload, args.seed, run_dir)
        if args.trace:
            untraced, traced, tracer = measure_traced(workload, args.seconds, tally)
            tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
            metrics = bench_spans.layer_metrics(tracer.spans, len(traced))
            job = statistics.fmean(traced)
            metrics["trace.job_s"] = (job, "s")
            metrics["trace.untraced_job_s"] = (statistics.fmean(untraced), "s")
            metrics["trace.overhead_s"] = (job - statistics.fmean(untraced), "s")
        else:
            jobs, passes = measure(workload, args.seconds, tally)
            figures = {}
            for values in passes:
                for k, v in values.items():
                    figures.setdefault(k, []).append(v)
            if hasattr(workload, "summary"):
                figures.update({k: [v] for k, v in workload.summary().items()})
            figures["job_median_s"] = jobs
            figures["passes"] = [len(jobs)]
            for k, vs in figures.items():
                print_metric(k, statistics.median(vs), UNITS[k])
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "job_s": (fastest_job(workload.stages, passes, jobs), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    result = {
        "correct": tally["failed"] == 0 and tally["attempted"] > 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
