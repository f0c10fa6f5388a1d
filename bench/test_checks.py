"""Each correctness check accepts real output and rejects perturbed output;
a traced run whose wrappers miss a mechanism call fails.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

The outputs come from stratci itself at reduced repetition counts (the checks
read R from the summary and size their bands from it).
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import worker  # noqa: E402


def _simulate(tmp_path: Path, workload: str, repetitions: int) -> tuple[dict, str | None, list[float]]:
    text, settings = worker.simulate_config(workload, seed=7)
    text = text.replace(f"repetitions = {settings['repetitions']}", f"repetitions = {repetitions}")
    config = tmp_path / "input.cfg"
    config.write_text(text)
    assert worker.cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    reps = tmp_path / "reps.csv"
    summary = json.loads((tmp_path / "summary.json").read_text())
    return summary, reps.read_text() if reps.exists() else None, settings["rho_grid"]


@pytest.fixture(scope="module")
def one_stratum(tmp_path_factory):
    summary, reps, _ = _simulate(tmp_path_factory.mktemp("one"), "one-stratum-reps", 2000)
    return summary, reps


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    summary, _, grid = _simulate(tmp_path_factory.mktemp("sweep"), "twenty-strata-sweep", 600)
    return summary, grid


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    worker.ReleaseDesk(seed=7, out=out).round(calibrate.ScaledClock())
    return json.loads((out / "releases.json").read_text())


def _rows(reps: str) -> list[list[str]]:
    return [line.split(",") for line in reps.splitlines()]


def _join(rows) -> str:
    return "\n".join(",".join(r) for r in rows) + "\n"


# --- one-stratum-reps ------------------------------------------------------


def test_one_stratum_accepts_real_output(one_stratum):
    assert checks.check_one_stratum(*one_stratum) == []


def test_one_stratum_rejects_widths_scaled(one_stratum):
    summary, reps = copy.deepcopy(one_stratum)
    rows = _rows(reps)
    for row in rows[1:]:
        lower, upper = float(row[4]), float(row[5])
        mid, half = (lower + upper) / 2, (upper - lower) / 2 * 1.05
        row[4], row[5] = repr(mid - half), repr(mid + half)
        row[3] = repr(float(row[5]) - float(row[4]))
    for row in summary["grid"][0]["algorithms"].values():
        row["mean_width"] *= 1.05
    assert any("closed form" in e for e in checks.check_one_stratum(summary, _join(rows)))


def test_one_stratum_rejects_flipped_covered_bit(one_stratum):
    summary, reps = one_stratum
    rows = _rows(reps)
    rows[5][2] = "0" if rows[5][2] == "1" else "1"
    assert any("covered bit" in e for e in checks.check_one_stratum(summary, _join(rows)))


def test_one_stratum_rejects_reordered_reps(one_stratum):
    summary, reps = one_stratum
    rows = _rows(reps)
    rows[1], rows[5] = rows[5], rows[1]
    assert any("out of order" in e for e in checks.check_one_stratum(summary, _join(rows)))


def test_one_stratum_rejects_missing_row(one_stratum):
    summary, reps = one_stratum
    assert checks.check_one_stratum(summary, _join(_rows(reps)[:-1]))


def test_one_stratum_rejects_summary_out_of_step_with_reps(one_stratum):
    summary, reps = copy.deepcopy(one_stratum)
    summary["grid"][0]["algorithms"]["pop-pub"]["mean_upper"] *= 1 + 1e-9
    assert any("mean upper" in e for e in checks.check_one_stratum(summary, reps))


def test_one_stratum_rejects_coverage_out_of_band(one_stratum):
    summary, reps = copy.deepcopy(one_stratum)
    summary["grid"][0]["algorithms"]["str-pub"]["coverage"] = 0.85
    assert any("outside" in e for e in checks.check_one_stratum(summary, reps))


# --- twenty-strata-sweep ---------------------------------------------------


def test_sweep_accepts_real_output(sweep):
    assert checks.check_sweep(*sweep) == []


def test_sweep_rejects_width_ratio_scaled(sweep):
    summary, grid = copy.deepcopy(sweep)
    summary["grid"][3]["algorithms"]["pop-pub"]["mean_width_ratio"] *= 1.05
    assert any("closed form" in e for e in checks.check_sweep(summary, grid))


def test_sweep_rejects_widths_not_falling(sweep):
    summary, grid = copy.deepcopy(sweep)
    a, b = (summary["grid"][i]["algorithms"]["str-priv"] for i in (4, 5))
    a["mean_width"], b["mean_width"] = b["mean_width"], a["mean_width"]
    assert any("does not fall" in e for e in checks.check_sweep(summary, grid))


def test_sweep_coverage_is_one_sided_only_where_clipping_binds(sweep):
    summary, grid = copy.deepcopy(sweep)
    summary["grid"][0]["algorithms"]["str-priv"]["coverage"] = 0.99
    assert checks.check_sweep(summary, grid) == []
    summary["grid"][0]["algorithms"]["nonprivate"]["coverage"] = 0.99
    assert any("nonprivate" in e and "above" in e for e in checks.check_sweep(summary, grid))
    summary, grid = copy.deepcopy(sweep)
    summary["grid"][0]["algorithms"]["str-priv"]["coverage"] = 0.8
    assert any("below" in e for e in checks.check_sweep(summary, grid))


def test_sweep_rejects_wrong_grid(sweep):
    summary, grid = sweep
    assert checks.check_sweep(summary, list(grid[:-1]) + [1.0])


# --- release-desk ----------------------------------------------------------


def test_release_desk_accepts_real_output(desk):
    assert checks.check_release_desk(desk) == []


def test_release_desk_rejects_noise_variance_off_by_one_ulp(desk):
    payload = copy.deepcopy(desk)
    ledger = payload["datasets"][450]["releases"]["pop-pub"]["noise_variances"]
    ledger["variance_estimate"] = math.nextafter(ledger["variance_estimate"], math.inf)
    assert any("noise variances" in e for e in checks.check_release_desk(payload))


def test_release_desk_rejects_difference_variance_off_by_one_ulp(desk):
    payload = copy.deepcopy(desk)
    d = payload["differences"][3]["intervals"]["str-priv"]
    d["variance"] = math.nextafter(d["variance"], math.inf)
    assert any("sum of inputs" in e for e in checks.check_release_desk(payload))


def test_release_desk_rejects_width_scaled(desk):
    payload = copy.deepcopy(desk)
    ci = payload["datasets"][10]["releases"]["str-pub"]
    ci["upper"] = ci["point"] + (ci["upper"] - ci["point"]) * 1.05
    assert any("2 z sqrt(v)" in e for e in checks.check_release_desk(payload))


def test_release_desk_rejects_unbracketed_point(desk):
    payload = copy.deepcopy(desk)
    ci = payload["datasets"][0]["releases"]["str-priv"]
    ci["point"] = ci["upper"] + 1e-3
    assert any("does not bracket" in e for e in checks.check_release_desk(payload))


def test_release_desk_rejects_low_coverage(desk):
    payload = copy.deepcopy(desk)
    for ds in payload["datasets"][:150]:
        ci = ds["releases"]["pop-pub"]
        ci["lower"] += 1.0
        ci["point"] += 1.0
        ci["upper"] += 1.0
    assert any("pop-pub: coverage" in e for e in checks.check_release_desk(payload))


# --- traced run ----------------------------------------------------------------


def test_traced_run_fails_when_a_mechanism_span_misses_releases():
    import run

    layers = {span: {"calls": 4, "ns": 4e3, "self_ns": 4e3} for _, span, _ in run.PER_LAYER}
    layers["dp_ci.str_priv"]["calls"] = 0
    rounds = {"round_s": [1.0, 1.0], "scaled_s": [1.0, 1.0]}
    result = dict(rounds, trace_rounds=2, layers=layers, releases_per_mechanism=2, traced=rounds)
    with pytest.raises(run.WorkerError, match="dp_ci.str_priv"):
        run.layer_metrics(result, [(0.5, 0.4)])
