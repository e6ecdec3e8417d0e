#!/usr/bin/env python3
"""Alternating pairs of benchmark runs in two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload serve-topn \\
        --pairs 10 --seconds 20 --seed0 901 --out BENCH_label.json

Pair i runs ``perfbench/run.py --workload W --seed SEED0+i --seconds S
--trace 0`` once in each checkout, one process after the other; even
pairs run PARENT first and odd pairs CHANGE first, so that a slow
stretch of a shared machine does not always land on the same side.
Each checkout runs its own ``perfbench/run.py`` on its own ``src/``.

For each end-to-end metric (from CHANGE's ``BENCHMARK.json``) it prints
both sides' medians and quartiles, the median's relative change, and the
pairs the change won.  A metric whose parent quartile spread, over its
median, exceeds the metric's bound is marked unresolved: runs that far
apart on the same code cannot show a change within the bound.  Each
run's median pass time, the ``metric job_median_s`` line printed before
the result, gets the same row, marked informational: it has no bound and
is not an end-to-end metric, but a process whose every pass ran slow
shows in it where ``job_s``, the fastest stages, can hide it.  ``--out``
writes the same figures, every run's metrics, the CPU count and Python
and numpy versions, and under ``checkouts`` each checkout's ``git
rev-parse HEAD`` and whether ``git status --porcelain`` listed changes,
taken before the first run (``null`` for a directory that is not a git
work tree).  The exit status is 1 if a run failed or reported a failed
output check, else 0; PARENT and CHANGE may be the same checkout (an
A/A run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
INFORMATIONAL = [{"name": "job_median_s", "unit": "s", "better": "lower"}]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process in ``checkout``: its last output
    line, the result object (``correct``, ``attempted``, ``failed``,
    ``metrics``), with the ``INFORMATIONAL`` metric lines before it under
    ``informational``, or ``{"correct": False, "error": ...}`` if it
    failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {**json.loads(lines[-1]), "informational": informational_metrics(lines[:-1])}


def checkout_state(checkout: Path) -> dict | None:
    """``{"head": commit, "dirty": bool}`` of the git work tree at
    ``checkout``, or None if it is not one (or git is missing)."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=checkout, capture_output=True, text=True)
    except OSError:
        return None
    if head.returncode != 0 or status.returncode != 0:
        return None
    return {"head": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def informational_metrics(lines) -> dict:
    """The ``INFORMATIONAL`` metrics among ``metric NAME VALUE UNIT`` lines."""
    names = {spec["name"] for spec in INFORMATIONAL}
    found = {}
    for line in lines:
        words = line.split()
        if len(words) == 4 and words[0] == "metric" and words[1] in names:
            found[words[1]] = {"value": float(words[2]), "unit": words[3]}
    return found


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def figures_of(runs: list[dict], specs: list[dict], key: str) -> dict:
    """The figures of each metric of ``specs`` that every run reported
    under ``key``."""
    figures = {}
    for spec in specs:
        name = spec["name"]
        if not all(name in r[side].get(key, {}) for r in runs for side in SIDES):
            continue
        values = {side: [r[side][key][name]["value"] for r in runs] for side in SIDES}
        lower = spec.get("better", "lower") == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        spread = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0.0
        figures[name] = {
            "unit": spec.get("unit", ""),
            "better": "lower" if lower else "higher",
            "bound": spec.get("bound"),
            "parent": parent,
            "change": change,
            "relative_change": change["median"] / parent["median"] - 1.0 if parent["median"] else None,
            "change_won": won,
            "pairs": len(runs),
            "unresolved": spec.get("bound") is not None and spread > spec["bound"],
        }
    return figures


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The figures of a list of pairs, each ``{"parent": result, "change":
    result}``, for each metric of ``end_to_end`` (``name``, ``unit``,
    ``better``, ``bound`` as in ``BENCHMARK.json``) and of
    ``INFORMATIONAL`` that every run reported."""
    failures = {
        side: {
            "runs_failed": sum(not r[side].get("correct", False) for r in runs),
            "attempted": sum(r[side].get("attempted", 0) for r in runs),
            "failed": sum(r[side].get("failed", 0) for r in runs),
        }
        for side in SIDES
    }
    return {
        "metrics": figures_of(runs, end_to_end, "metrics"),
        "informational": figures_of(runs, INFORMATIONAL, "informational"),
        "failures": failures,
    }


def format_summary(summary: dict) -> list[str]:
    """One line per metric, the informational ones marked, then one per
    side's failures."""
    lines = []
    rows = [(f, "") for f in summary["metrics"].items()]
    rows += [(f, ", informational (no bound)") for f in summary["informational"].items()]
    for (name, f), note in rows:
        p, c = f["parent"], f["change"]
        rel = "n/a" if f["relative_change"] is None else f"{f['relative_change']:+.1%}"
        lines.append(
            f"{name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] "
            f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {f['unit']}, "
            f"{rel}, change {f['better']} in {f['change_won']}/{f['pairs']} pairs"
            + (", unresolved (parent spread exceeds the bound)" if f["unresolved"] else "")
            + note
        )
    for side, t in summary["failures"].items():
        lines.append(f"{side}: {t['runs_failed']} runs failed, {t['failed']} of {t['attempted']} operations failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating benchmark pairs in two checkouts")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    states = {side: checkout_state(path) for side, path in checkouts.items()}

    runs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        pair = {"seed": seed}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
            shown = {k: round(v["value"], 6) for k, v in pair[side].get("metrics", {}).items()}
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: {shown or pair[side]}", file=sys.stderr)
        runs.append(pair)

    summary = summarize(runs, end_to_end)
    print("\n".join(format_summary(summary)))
    if args.out:
        doc = {
            "workload": args.workload,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seed0": args.seed0,
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
            "checkouts": states,
            **summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if any(t["runs_failed"] or t["failed"] for t in summary["failures"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
