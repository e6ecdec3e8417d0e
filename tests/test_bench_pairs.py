"""The pairs runner's summary, on canned results: no benchmark process
is started."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "mb_per_s", "unit": "MB/s", "better": "higher", "bound": 0.25},
]


def result(job, rss, rate=None, failed=0):
    metrics = {"job_s": {"value": job, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    if rate is not None:
        metrics["mb_per_s"] = {"value": rate, "unit": "MB/s"}
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


def pairs(parent, change):
    return [{"seed": i, "parent": p, "change": c} for i, (p, c) in enumerate(zip(parent, change))]


def test_medians_quartiles_and_pairs_won():
    runs = pairs(
        [result(j, 50.0) for j in (1.0, 2.0, 3.0, 4.0, 5.0)],
        [result(j, 52.0) for j in (0.5, 1.5, 3.5, 3.0, 4.0)],
    )
    summary = bench_pairs.summarize(runs, END_TO_END)
    job = summary["metrics"]["job_s"]
    assert job["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert job["change"] == {"q1": 1.5, "median": 3.0, "q3": 3.5}
    assert job["change_won"] == 4 and job["pairs"] == 5
    assert job["relative_change"] == 0.0
    assert job["unresolved"]  # a parent spread of 2/3 against a bound of 0.25
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_won"] == 0
    assert rss["relative_change"] == pytest.approx(0.04)
    assert not rss["unresolved"]
    assert "mb_per_s" not in summary["metrics"]  # no run reported it
    assert summary["failures"] == {
        "parent": {"runs_failed": 0, "attempted": 500, "failed": 0},
        "change": {"runs_failed": 0, "attempted": 500, "failed": 0},
    }
    lines = bench_pairs.format_summary(summary)
    assert lines[0] == (
        "job_s: parent 3 [2, 4] change 3 [1.5, 3.5] s, +0.0%, change lower in 4/5 pairs, "
        "unresolved (parent spread exceeds the bound)"
    )
    assert lines[1] == "peak_rss_mb: parent 50 [50, 50] change 52 [52, 52] MB, +4.0%, change lower in 0/5 pairs"
    assert lines[2:] == [
        "parent: 0 runs failed, 0 of 500 operations failed",
        "change: 0 runs failed, 0 of 500 operations failed",
    ]


def test_a_higher_is_better_metric_and_failures():
    runs = pairs(
        [result(1.0, 50.0, rate=10.0), result(1.0, 50.0, rate=10.0)],
        [result(1.0, 50.0, rate=12.0, failed=3), {"correct": False, "error": "exit 1: boom"}],
    )
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["metrics"] == {}  # the failed run reported no metrics
    assert summary["failures"]["change"] == {"runs_failed": 2, "attempted": 100, "failed": 3}
    summary = bench_pairs.summarize(runs[:1], END_TO_END)
    rate = summary["metrics"]["mb_per_s"]
    assert rate["better"] == "higher" and rate["change_won"] == 1
    assert rate["relative_change"] == pytest.approx(0.2)
    assert summary["metrics"]["job_s"]["change_won"] == 0  # a tie is not a win


STDOUT = """metric topn_s 0.00110 s
metric job_median_s 0.00125 s
metric passes 160 count
metric setup_s 1.2 s
metric job_s 0.00107 s
metric peak_rss_mb 57.2 MB
{"correct": true, "attempted": 16000, "failed": 0, "metrics": {"job_s": {"value": 0.00107, "unit": "s"}}}
"""


def test_a_run_keeps_its_median_pass_line(monkeypatch):
    def fake_run(cmd, **kwargs):
        assert cmd[1] == "perfbench/run.py" and kwargs["cwd"] == Path("checkout")
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, STDOUT, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    record = bench_pairs.run_once(Path("checkout"), "serve-topn", 1, 20.0)
    assert record["correct"] and record["metrics"] == {"job_s": {"value": 0.00107, "unit": "s"}}
    assert record["informational"] == {"job_median_s": {"value": 0.00125, "unit": "s"}}


def test_the_median_pass_is_an_informational_row():
    def timed(job, median):
        return {**result(job, 50.0), "informational": {"job_median_s": {"value": median, "unit": "s"}}}

    runs = pairs([timed(1.0, 2.0), timed(1.0, 3.0)], [timed(1.0, 1.0), timed(1.0, 4.0)])
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert "job_median_s" not in summary["metrics"]
    median = summary["informational"]["job_median_s"]
    assert median["parent"]["median"] == median["change"]["median"] == 2.5
    assert median["change_won"] == 1 and median["bound"] is None and not median["unresolved"]
    lines = bench_pairs.format_summary(summary)
    assert lines[2] == (
        "job_median_s: parent 2.5 [2.25, 2.75] change 2.5 [1.75, 3.25] s, +0.0%, "
        "change lower in 1/2 pairs, informational (no bound)"
    )
    assert lines[3:] == [
        "parent: 0 runs failed, 0 of 200 operations failed",
        "change: 0 runs failed, 0 of 200 operations failed",
    ]
    # a run without the line (a failed one, or an older runner's record) leaves the row out
    runs[0]["change"] = {"correct": False, "error": "exit 1: boom"}
    assert bench_pairs.summarize(runs, END_TO_END)["informational"] == {}


@pytest.mark.parametrize("option, value, message", [
    ("--pairs", "0", "--pairs must be >= 1, got 0"),
    ("--pairs", "-2", "--pairs must be >= 1, got -2"),
    ("--seconds", "0", "--seconds must be > 0, got 0.0"),
    ("--seconds", "-1.5", "--seconds must be > 0, got -1.5"),
    ("--seconds", "nan", "--seconds must be > 0, got nan"),
], ids=["no-pairs", "negative-pairs", "zero-seconds", "negative-seconds", "nan-seconds"])
def test_a_run_count_or_length_that_measures_nothing_is_a_usage_error(monkeypatch, capsys, option, value, message):
    def no_run(*args, **kwargs):
        raise AssertionError("no benchmark process may start")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    argv = ["parent", "change", "--workload", "serve-topn", "--pairs", "2", "--seconds", "1"]
    argv[argv.index(option) + 1] = value
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.rstrip().endswith(f"error: {message}")


def test_the_out_file_names_each_checkouts_commit(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    parent, change = tmp_path / "parent", tmp_path
    git = {
        (parent, "rev-parse"): (128, "", "fatal: not a git repository"),
        (change, "rev-parse"): (0, "0123abcd\n", ""),
        (change, "status"): (0, " M src/uctensor/evaluate.py\n?? new.py\n", ""),
    }

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            return bench_pairs.subprocess.CompletedProcess(cmd, *git.get((kwargs["cwd"], cmd[1]), (0, "", "")))
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, STDOUT, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "serve-topn", "--pairs", "1",
                             "--seconds", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["checkouts"] == {"parent": None, "change": {"head": "0123abcd", "dirty": True}}
    git[(change, "status")] = (0, "", "")
    assert bench_pairs.checkout_state(change) == {"head": "0123abcd", "dirty": False}


def test_a_directory_outside_any_work_tree_has_no_checkout_state(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench_pairs.checkout_state(tmp_path) is None
