"""tools/bench_pairs.py reports and fails on incorrect runs, extra failed operations and metrics over their bound."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "change_run, exit_code",
    [
        ({"correct": True, "failed": 1}, 0),
        ({"correct": False, "failed": 1}, 1),
        ({"correct": True, "failed": 2}, 1),
        ({"correct": True, "failed": 0}, 0),
    ],
    ids=["same", "incorrect", "more-failures", "fewer-failures"],
)
def test_exit_code_and_report(tmp_path, monkeypatch, capsys, change_run, exit_code):
    bench_pairs = _load()
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(root, workload, seed, seconds):
        run = {"correct": True, "failed": 1} if root == base else change_run
        return {**run, "attempted": 100, "metrics": {n: {"value": 1.0, "unit": "u"} for n in names}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "record.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--base", str(base), "--change", str(change), "--pairs", "2",
        "--workload", "w", "--out", str(out),
    ])
    assert bench_pairs.main() == exit_code
    record = json.loads(out.read_text())["workloads"]["w"]
    assert set(record) == {"correct", "failed", "attempted", "metrics"}
    assert record["failed"] == {"base": 2, "change": 2 * change_run["failed"]}
    assert record["attempted"] == {"base": 200, "change": 200}
    printed = capsys.readouterr().out
    assert f"correct {change_run['correct']}" in printed
    assert f"failed/attempted base 2/200  change {2 * change_run['failed']}/200" in printed


@pytest.mark.parametrize(
    "name, value, exit_code",
    [
        ("intervals_per_s", 0.7, 1),
        ("intervals_per_s", 0.8, 0),
        ("intervals_per_s", 1.3, 0),
        ("peak_rss_mb", 1.06, 1),
        ("peak_rss_mb", 1.04, 0),
        ("peak_rss_mb", 0.9, 0),
    ],
    ids=["higher-over", "higher-within", "higher-better", "lower-over", "lower-within", "lower-better"],
)
def test_metric_over_its_bound_fails(tmp_path, monkeypatch, capsys, name, value, exit_code):
    # The base reads 1.0 on every metric; the change differs on one.  The
    # bounds in BENCHMARK.json are 25% for intervals_per_s and 5% for peak_rss_mb.
    bench_pairs = _load()
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(root, workload, seed, seconds):
        values = {n: value if root == change and n == name else 1.0 for n in names}
        return {"correct": True, "failed": 0, "attempted": 100,
                "metrics": {n: {"value": v, "unit": "u"} for n, v in values.items()}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "record.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--base", str(base), "--change", str(change), "--pairs", "2",
        "--workload", "w", "--out", str(out),
    ])
    assert bench_pairs.main() == exit_code
    metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
    assert [n for n, m in metrics.items() if m["over_bound"]] == ([name] if exit_code else [])
    printed = capsys.readouterr()
    assert printed.out.count("OVER BOUND") == exit_code
    assert (f"FAIL w: {name} is worse than the base by more than its bound" in printed.err) == bool(exit_code)


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_is_a_usage_error(tmp_path, monkeypatch, capsys, pairs):
    bench_pairs = _load()

    def run_once(*args):
        pytest.fail("no run may start")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", str(ROOT), "--change", str(ROOT), "--pairs", pairs])
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main()
    assert exit_info.value.code == 2
    assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
