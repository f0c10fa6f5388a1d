import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stratci import (
    PrivacyBudget,
    RatioApproximationWarning,
    StratumCounts,
    build_design,
    derive_stream,
    population_noise_public_sizes,
    stratum_noise_private_sizes,
    stratum_noise_public_sizes,
)
from stratci.cli import _CONFIG_PARSERS, CliParseError, _parse_config_file, main
from stratci.core import InfeasibleError, ValidationError
from stratci import simharness
from stratci.simharness import MAX_REPETITIONS, MAX_STRATA

ONE_ROW = "stratum_id,N_h,n_h,c_h\n1,2000,100,50\n"
TWO_ROWS = "stratum_id,N_h,n_h,c_h\n1,1500,60,20\n2,2500,100,45\n"
# Rare attributes: at --rho 0.05 --seed 1 every private mechanism's output
# changes under each clip flag.
THREE_ROWS = "stratum_id,N_h,n_h,c_h\n1,1500,60,0\n2,2500,100,1\n3,800,40,0\n"
ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
ALGORITHMS = ("nonprivate", "str-pub", "pop-pub", "str-priv")

SMOKE_CFG = """\
alpha = 0.1
strata = 1
stratum_size = 2000
rate = 0.05
proportion = 0.5
rho = 0.01
algorithms = nonprivate, str-pub
repetitions = 1
base_seed = 0
emit_reps = true
"""
# Frozen below: a twenty-stratum sweep with every algorithm and proportion
# clipping, and a three-stratum design where min_sample_size floors two n_h,
# rho = 1/max_n resolves against the realized sizes and clip_interval binds.
SWEEP_CFG = """\
alpha = 0.1
strata = 20
stratum_size = uniform(1500, 2000)
rate = uniform(0.04, 0.08)
proportion = uniform(0.05, 0.6)
rho_grid = 0.002, 0.02, 0.2
algorithms = nonprivate, str-pub, pop-pub, str-priv
repetitions = 40
base_seed = 11
clip_proportions = true
emit_reps = true
"""
THREE_STRATA_CFG = """\
alpha = 0.05
strata = 3
stratum_size = uniform(200, 400)
rate = uniform(0.01, 0.08)
proportion = uniform(0.02, 0.3)
rho = 1/max_n
split = 0.3
min_sample_size = 8
algorithms = nonprivate, str-pub, pop-pub, str-priv
repetitions = 60
base_seed = 5
clip_interval = true
emit_reps = true
"""


@pytest.fixture
def one_row_file(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text(ONE_ROW)
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCmdCi:
    def test_nonprivate_interval(self, capsys, one_row_file):
        code, out, _ = _run(capsys, ["ci", "--input", one_row_file, "--algorithm", "nonprivate"])
        assert code == 0
        payload = json.loads(out)
        assert math.isclose(payload["lower"], 0.41943591732258635, abs_tol=1e-10)
        assert math.isclose(payload["upper"], 0.58056408267741364, abs_tol=1e-10)
        assert payload["budget"] is None

    def test_huge_budget_matches_nonprivate(self, capsys, one_row_file):
        code, base, _ = _run(capsys, ["ci", "--input", one_row_file, "--algorithm", "nonprivate"])
        code, noisy, _ = _run(
            capsys,
            ["ci", "--input", one_row_file, "--algorithm", "str-pub", "--rho", "1e12", "--seed", "1"],
        )
        a, b = json.loads(base), json.loads(noisy)
        assert abs(a["lower"] - b["lower"]) <= 1e-5
        assert abs(a["upper"] - b["upper"]) <= 1e-5
        assert b["budget"]["rho"] == 1e12

    def test_byte_identical_reruns(self, capsys, one_row_file):
        argv = ["ci", "--input", one_row_file, "--algorithm", "str-priv", "--rho", "0.01", "--seed", "9"]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    def test_seed_changes_output(self, capsys, one_row_file):
        argv = ["ci", "--input", one_row_file, "--algorithm", "str-pub", "--rho", "0.01"]
        _, a, _ = _run(capsys, argv + ["--seed", "1"])
        _, b, _ = _run(capsys, argv + ["--seed", "2"])
        assert a != b

    def test_stratum_releases_included(self, capsys, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text(TWO_ROWS)
        _, out, _ = _run(
            capsys, ["ci", "--input", str(p), "--algorithm", "str-pub", "--rho", "0.01"]
        )
        payload = json.loads(out)
        assert len(payload["strata"]) == 2
        _, out, _ = _run(
            capsys, ["ci", "--input", str(p), "--algorithm", "pop-pub", "--rho", "0.01"]
        )
        assert "strata" not in json.loads(out)

    def test_json_csv_round_trip(self, capsys, one_row_file):
        argv = ["ci", "--input", one_row_file, "--algorithm", "str-priv", "--rho", "0.02", "--seed", "4"]
        _, jout, _ = _run(capsys, argv + ["--format", "json"])
        _, cout, _ = _run(capsys, argv + ["--format", "csv"])
        payload = json.loads(jout)
        csv_values = {}
        for line in cout.splitlines()[1:]:
            field, stratum, value = line.split(",", 2)
            csv_values[(field, stratum)] = value
        for key in ("point_estimate", "variance_estimate", "lower", "upper", "alpha"):
            assert float(csv_values[(key, "")]) == payload[key]
        for key in ("rho", "rho1", "rho2"):
            assert float(csv_values[(f"budget_{key}", "")]) == payload["budget"][key]
        for h, stratum in enumerate(payload["strata"]):
            assert float(csv_values[("proportion", str(h))]) == stratum["proportion"]
            assert float(csv_values[("noisy_size", str(h))]) == stratum["noisy_size"]

    def test_missing_rho_is_validation_error(self, capsys, one_row_file):
        code, _, err = _run(capsys, ["ci", "--input", one_row_file, "--algorithm", "str-pub"])
        assert code == 2
        assert "rho" in err

    def test_bad_flag_is_parse_error(self, capsys, one_row_file):
        code, _, _ = _run(capsys, ["ci", "--input", one_row_file, "--algorithm", "bogus"])
        assert code == 1

    def test_malformed_file_names_position(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("stratum_id,N_h,n_h,c_h\n1,2000,xx,50\n")
        code, _, err = _run(capsys, ["ci", "--input", str(p), "--algorithm", "nonprivate"])
        assert code == 1
        assert "row 2" in err and "column 3" in err

    def test_bad_header(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,N,n,c\n1,2000,100,50\n")
        code, _, err = _run(capsys, ["ci", "--input", str(p), "--algorithm", "nonprivate"])
        assert code == 1
        assert "row 1" in err

    def test_count_exceeding_sample_is_validation_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("stratum_id,N_h,n_h,c_h\n1,2000,100,101\n")
        code, _, _ = _run(capsys, ["ci", "--input", str(p), "--algorithm", "nonprivate"])
        assert code == 2

    def test_sample_size_one_is_validation_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("stratum_id,N_h,n_h,c_h\n1,2000,1,1\n")
        code, _, _ = _run(capsys, ["ci", "--input", str(p), "--algorithm", "nonprivate"])
        assert code == 2

    def test_all_census_pop_pub(self, capsys, tmp_path):
        # n_h = N_h: the variance estimate is 0 whatever the data.
        p = tmp_path / "census.csv"
        p.write_text("stratum_id,N_h,n_h,c_h\n1,100,100,50\n")
        code, out, err = _run(
            capsys, ["ci", "--input", str(p), "--algorithm", "pop-pub", "--rho", "0.1", "--seed", "1"]
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert all(math.isfinite(payload[key]) for key in ("lower", "point_estimate", "upper"))
        assert payload["lower"] <= payload["point_estimate"] <= payload["upper"]

    @pytest.mark.parametrize("alpha", ["0", "1e-17"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_alpha_without_quantile_names_alpha(self, capsys, one_row_file, algorithm, alpha):
        code, out, err = _run(
            capsys,
            ["ci", "--input", one_row_file, "--algorithm", algorithm, "--rho", "0.01", "--alpha", alpha],
        )
        assert (code, out) == (2, "")
        assert "alpha" in err and "quantile" not in err


class TestCmdSimulate:
    def test_smoke_run_writes_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        out_dir = tmp_path / "out"
        code, _, _ = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["grid"]) == 1
        rows = summary["grid"][0]["algorithms"]
        assert set(rows) == {"nonprivate", "str-pub"}
        assert rows["nonprivate"]["coverage"] in (0.0, 1.0)
        reps = (out_dir / "reps.csv").read_text().splitlines()
        assert reps[0] == "rep,algorithm,covered,width,lower,upper"
        assert len(reps) == 1 + 2  # header + one rep x two algorithms

    def test_grid_config_produces_rows(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            SMOKE_CFG.replace("rho = 0.01", "rho_grid = 0.001, 0.01, 0.1").replace(
                "repetitions = 1", "repetitions = 5"
            )
        )
        out_dir = tmp_path / "out"
        code, _, _ = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [g["rho"] for g in summary["grid"]] == [0.001, 0.01, 0.1]
        reps = (out_dir / "reps.csv").read_text().splitlines()
        assert reps[0] == "rho,rep,algorithm,covered,width,lower,upper"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG.replace("repetitions = 1", "repetitions = 20"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        _run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_a)])
        _run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_b)])
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "reps.csv").read_bytes() == (out_b / "reps.csv").read_bytes()

    def test_zero_width_baseline_writes_strict_json(self, capsys, tmp_path):
        # At proportion 1.0 every non-private interval has zero width, so no
        # width ratio exists; summary.json must still hold no NaN or Infinity.
        cfg = tmp_path / "unit.cfg"
        cfg.write_text(
            SMOKE_CFG.replace("proportion = 0.5", "proportion = 1.0").replace("repetitions = 1", "repetitions = 3")
        )
        out_dir = tmp_path / "out"
        code, _, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert (code, err) == (0, "")

        def reject(constant):
            raise ValueError(f"summary.json holds {constant}")

        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=reject)
        rows = summary["grid"][0]["algorithms"]
        assert rows["nonprivate"]["mean_width"] == 0.0
        assert [row["mean_width_ratio"] for row in rows.values()] == [None, None]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE_CFG + "typo_key = 3\n")
        code, _, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "typo_key" in err

    def test_missing_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 0.1\nrho = 0.01\n")
        code, _, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "missing" in err

    def test_infeasible_design_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE_CFG.replace("rate = 0.05", "rate = 0.0004"))
        code, _, _ = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize(
        "edits, exit_code",
        [
            ({"rate = 0.05": "rate = 0.0001"}, 3),
            ({"algorithms = nonprivate, str-pub": "algorithms = str-priv", "rho = 0.01": "rho = 1e-300"}, 2),
        ],
        ids=["infeasible", "release-fails"],
    )
    def test_failed_run_leaves_no_out(self, capsys, tmp_path, edits, exit_code):
        text = (ROOT / "configs" / "smoke.cfg").read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "failing.cfg"
        cfg.write_text(text)
        out_dir = tmp_path / "o"
        code, out, _ = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert (code, out) == (exit_code, "")
        assert not out_dir.exists()

    def test_shipped_smoke_config(self, capsys, tmp_path):
        code, _, _ = _run(capsys, ["simulate", "--config", "configs/smoke.cfg", "--out", str(tmp_path / "o")])
        assert code == 0

    def test_alpha_without_quantile_names_alpha(self, capsys, tmp_path):
        cfg = tmp_path / "tiny_alpha.cfg"
        cfg.write_text(SMOKE_CFG.replace("alpha = 0.1", "alpha = 1e-17"))
        code, _, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "alpha" in err and "quantile" not in err


class TestCmdAnalyze:
    def test_one_stratum_table(self, capsys):
        code, out, _ = _run(
            capsys,
            ["analyze", "--N", "2000", "--n", "152", "--rho", str(1 / 152), "--p", "0.5"],
        )
        assert code == 0
        values = {}
        for line in out.splitlines()[1:]:
            metric, algorithm, value = line.split(",")
            values[(metric, algorithm)] = float(value)
        assert math.isclose(values[("twr", "str-pub")], 1.77860054915, rel_tol=1e-9)
        assert abs(values[("twr", "str-pub")] - 1.786) < 0.01
        # n * rho = 1, so the bounds are sqrt(3), sqrt(5), sqrt(3 + 2 sqrt 2)
        assert math.isclose(values[("twr_lower_bound", "str-pub")], math.sqrt(3), rel_tol=1e-12)
        assert math.isclose(values[("twr_lower_bound", "pop-pub")], math.sqrt(5), rel_tol=1e-12)
        assert math.isclose(
            values[("twr_lower_bound", "str-priv")], math.sqrt(3 + 2 * math.sqrt(2)), rel_tol=1e-12
        )
        assert values[("budget_ratio_stratum_vs_population", "")] == 0.5

    def test_no_noise_limit_twr_is_one(self, capsys):
        code, out, _ = _run(capsys, ["analyze", "--N", "2000", "--n", "100", "--rho", "1e12", "--p", "0.5"])
        assert code == 0
        twrs = [
            float(line.split(",")[2])
            for line in out.splitlines()[1:]
            if line.startswith("twr,")
        ]
        assert twrs and all(abs(t - 1.0) < 1e-6 for t in twrs)

    def test_input_file_uses_plugin_proportions(self, capsys, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text(TWO_ROWS)
        code, out, _ = _run(capsys, ["analyze", "--input", str(p), "--rho", "0.01"])
        assert code == 0
        assert "budget_ratio_private_vs_public" in out
        assert "twr," not in out  # closed form is one-stratum only

    def test_missing_design_is_validation_error(self, capsys):
        code, _, _ = _run(capsys, ["analyze", "--rho", "0.01"])
        assert code == 2

    @pytest.mark.parametrize("design", [
        ["--N", "2000", "--n", "2000", "--p", "0.5"],
        ["--input", "1,100,100,50"],
        ["--input", "1,2000,152,0"],
        ["--input", "1,2000,152,152"],
    ], ids=["census", "census-file", "zero-count-file", "unit-count-file"])
    def test_zero_sampling_variance_prints_the_rest(self, capsys, tmp_path, design):
        if design[0] == "--input":
            path = tmp_path / "one.csv"
            path.write_text(f"stratum_id,N_h,n_h,c_h\n{design[1]}\n")
            design = ["--input", str(path)]
        code, out, err = _run(capsys, ["analyze", *design, "--rho", "0.01"])
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [metric for metric, _, _ in rows] == ["v_ex"] * 3 + [
            "budget_ratio_stratum_vs_population", "budget_ratio_private_vs_public"
        ]
        assert all(math.isfinite(float(value)) for _, _, value in rows)

    @pytest.mark.parametrize("argv,name", [
        (["--split", "0", "--p", "0.5"], "split"),
        (["--split", "1.0", "--p", "0.5"], "split"),
        (["--split", "1.0"], "split"),
        (["--rho", "1e-300", "--p", "1e-300"], "rho"),
        (["--rho", "1e-320", "--p", "0.5"], "rho"),
        (["--p", "nan"], "proportions"),
        (["--p", "1.5"], "proportions"),
    ])
    def test_degenerate_input_is_named(self, capsys, argv, name):
        base = {"--N": "2000", "--n": "152", "--rho": "0.01"}
        flags = dict(base, **dict(zip(argv[::2], argv[1::2])))
        code, out, err = _run(capsys, ["analyze", *(v for kv in flags.items() for v in kv)])
        assert code == 2
        assert out == ""
        assert name in err and "inf" not in err

    @pytest.mark.parametrize("argv,message", [
        (["--N", "3", "--n", "2", "--rho", "0.01", "--p", "1e-320"],
         "p 1e-320 is too close to 0 or 1 for rho 0.01: the str-pub width ratio is not finite"),
        (["--N", "2000", "--n", "152", "--rho", "0.01", "--split", "1e-320", "--p", "0.5"],
         "rho1 1e-322 is too small: the pop-pub extrinsic variance is not finite"),
    ], ids=["p", "split"])
    def test_non_finite_names_its_cause(self, capsys, argv, message):
        # p(1 - p) n rho underflows at a tiny p; pop-pub's proportion noise divides by rho1 = rho * split.
        assert _run(capsys, ["analyze", *argv]) == (2, "", f"validation error: {message}\n")

    def test_multi_stratum_proportion_out_of_range(self, capsys, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text(TWO_ROWS)
        code, out, err = _run(capsys, ["analyze", "--input", str(p), "--rho", "0.01", "--p", "1.5"])
        assert code == 2
        assert out == "" and "proportions" in err


class TestCmdQq:
    def test_single_algorithm_minimal_grid(self, capsys, tmp_path):
        cfg = tmp_path / "qq.cfg"
        cfg.write_text(SMOKE_CFG.replace("nonprivate, str-pub", "nonprivate").replace(
            "repetitions = 1", "repetitions = 50"))
        code, out, _ = _run(capsys, ["qq", "--config", str(cfg), "--grid", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,theoretical,empirical"
        assert len(lines) == 2
        assert lines[1].startswith("0.5,")

    def test_multi_algorithm_adds_column(self, capsys, tmp_path):
        cfg = tmp_path / "qq.cfg"
        cfg.write_text(SMOKE_CFG.replace("repetitions = 1", "repetitions = 50"))
        code, out, _ = _run(capsys, ["qq", "--config", str(cfg), "--grid", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "algorithm,q,theoretical,empirical"
        assert len(lines) == 1 + 2 * 3

    def test_grid_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "qq.cfg"
        cfg.write_text(SMOKE_CFG.replace("rho = 0.01", "rho_grid = 0.01, 0.1"))
        code, _, _ = _run(capsys, ["qq", "--config", str(cfg)])
        assert code == 2

    def test_alpha_without_quantile_names_alpha(self, capsys, tmp_path):
        cfg = tmp_path / "qq.cfg"
        cfg.write_text(SMOKE_CFG.replace("alpha = 0.1", "alpha = 1e-17"))
        code, out, err = _run(capsys, ["qq", "--config", str(cfg), "--grid", "3"])
        assert (code, out) == (2, "")
        assert "alpha" in err and "quantile" not in err


# Makes every scipy import fail, then runs each argv through cli.main and
# prints the exit codes as the last line of stdout.
_WITHOUT_SCIPY = """\
import json, sys
sys.modules["scipy"] = None
from stratci.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""


def test_runtime_needs_numpy_only(tmp_path):
    for path in sorted((ROOT / "src" / "stratci").glob("*.py")):
        assert "scipy" not in path.read_text(encoding="utf-8"), path.name
    rows = tmp_path / "three.csv"
    rows.write_text(THREE_ROWS)
    smoke = str(CONFIGS / "smoke.cfg")
    runs = [
        ["simulate", "--config", smoke, "--out", str(tmp_path / "o")],
        *(
            ["ci", "--input", str(rows), "--algorithm", a, "--rho", "0.05", "--seed", "1"]
            for a in ALGORITHMS
        ),
        ["analyze", "--N", "2000", "--n", "152", "--rho", "0.01", "--p", "0.5"],
        ["qq", "--config", smoke, "--grid", "3"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs), proc.stderr


# SHA-256 of the output bytes.  These pin every output bit, including the
# draws of numpy's Philox, ziggurat and hypergeometric implementations.
CI_DIGESTS = {
    ("nonprivate", "json", ""): "28ed978c1d691c1638436f4421e0b44e24ed64791bf8111ea3d8c088851a551f",
    ("nonprivate", "json", "--clip-proportions"): "28ed978c1d691c1638436f4421e0b44e24ed64791bf8111ea3d8c088851a551f",
    ("nonprivate", "json", "--clip-interval"): "e632bac893439bae29e9ffb4c8b6b9db90a189083345c9e38bcb6f5abb8e09ff",
    ("nonprivate", "csv", ""): "b912a283ee62dace35a35b135d5b6ee55e73b831ca0815d5833d649d353fbbc6",
    ("nonprivate", "csv", "--clip-proportions"): "b912a283ee62dace35a35b135d5b6ee55e73b831ca0815d5833d649d353fbbc6",
    ("nonprivate", "csv", "--clip-interval"): "7b5bd1b0e3cd496008db2c54cb30c91afb5661a4a5f27940ce01ea2347f62879",
    ("str-pub", "json", ""): "03e7ad81e871d4ce0293359cda77c0cc26b3da660ff474cac85d47b6e030a5d1",
    ("str-pub", "json", "--clip-proportions"): "db9717ec431d809c5e00f7bfcd236de3a66cb3e4e646b2be00b2d4023ae7a467",
    ("str-pub", "json", "--clip-interval"): "e7d8d7731d773a20936cd911516b0900d5d1ea8a62fa55079801abbb93406663",
    ("str-pub", "csv", ""): "e73607f415528e8f6c84b901eda6baa2b966a04c4ce4b2a81b5a763c90c87dbc",
    ("str-pub", "csv", "--clip-proportions"): "0e18d30fe0938a1a6834cc3eef471c4c513b93fa7ba9bd01ef7b99c059b4c669",
    ("str-pub", "csv", "--clip-interval"): "680db0f1fe208f2eef77ea6215bb20b4861021a44ed17cf3f5d9c8e89131d67c",
    ("pop-pub", "json", ""): "f2668527d6cec6ee2eba7fe4db072095a2937cb0f9af7ed4fafc027ee6d8cab6",
    ("pop-pub", "json", "--clip-proportions"): "f471e8774a4df06c20adadc100806d797e4523984da0a7029aad8857cd52e20f",
    ("pop-pub", "json", "--clip-interval"): "5a760d15dab48771016120e49c2defe24cfcfa9f01df672cfa1888536f612a41",
    ("pop-pub", "csv", ""): "ad113cdf4f5a0ca0ae19e86348b5a818d72a1501349e288863c4a3f4111598a2",
    ("pop-pub", "csv", "--clip-proportions"): "661cff74b37dc32a1bb0b68a83388f2e7362234163b9bc67bcdcf271fa085d25",
    ("pop-pub", "csv", "--clip-interval"): "a233b0ca13a091a9296e75e65e8e99324878b52140ce4942fc1a70021552f7c3",
    ("str-priv", "json", ""): "6d58ecb0f199b3c35095c8711e604d84932f2e89dc54547834cece5ee10c5f57",
    ("str-priv", "json", "--clip-proportions"): "5c57a7aec6f03604580b72437d628ef232ecbab857720ccd7f26c9d5ba9358c7",
    ("str-priv", "json", "--clip-interval"): "54328995869c2330d24219d4cd6f8e4da6526abf2497ad60c7287c557138f6fc",
    ("str-priv", "csv", ""): "91488d8354de19d4701453b645eb4beb1220024ca620624ef820af7ad95ec603",
    ("str-priv", "csv", "--clip-proportions"): "5ecfc4b86b1e391fe13a11b740edf1007951b33c4efbd6aa7aef0c8890e79d61",
    ("str-priv", "csv", "--clip-interval"): "de6c6f105d22547bf9a1320cdaa176669d6592f868e4403b411af9f49105f0e4",
}
ANALYZE_DIGESTS = {
    ("--input", None): "ac027823a26df07dd0997df2b80a39b180a6548bdc8dbdd6ed4978657711cbbf",
    ("--N", None): "0e5c12abe09fe98103ff0f00fb4a3db3db606ea3110a09b098ddbc2488e4763a",
    ("--input", "0.3"): "d77346d532869449da94e2dcd430c4bdbfde63958cb10858c1ba2da798da68ef",
    ("--N", "0.3"): "034be752f2f281a7b1e1d45a53ef9989145de774f99f8de7d6100f5a338c1fd0",
}


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


_MECHANISMS = {
    "str-pub": stratum_noise_public_sizes,
    "pop-pub": population_noise_public_sizes,
    "str-priv": stratum_noise_private_sizes,
}
_CLIPS = [
    {"clip_proportions": p, "clip_interval": i} for p in (False, True) for i in (False, True)
]
_RELEASE_FIELDS = (
    "proportion", "variance", "proportion_noise_variance", "noisy_count", "noisy_size",
    "count_noise_variance", "size_noise_variance", "proportion_clipped", "variance_floored",
    "noisy_size_floored", "fpc_floored",
)
_CLIP_FIELDS = ("proportion_clipped", "interval_clipped", "variance_floored", "noisy_size_floored")


def _direct_release_cases(H: int):
    """(stream, design, counts, budget) per case: H strata mixing typical,
    tiny-sample, census and rare strata, so that every clip and floor fires."""
    gen = np.random.default_rng(H)
    rows = []
    for _ in range(H):
        kind = int(gen.integers(4))
        N = int(gen.integers(200, 3000))
        n = (max(2, N // 20), int(gen.integers(2, 4)), None, max(2, N // 40))[kind]
        if kind == 2:
            N = int(gen.integers(5, 30))
            n = N - int(gen.integers(0, 2))
        p = 0.02 if kind == 3 else float(gen.uniform(0.05, 0.6))
        rows.append((N, n, min(n, int(gen.binomial(n, p)))))
    design = build_design([(N, n) for N, n, _ in rows])
    counts = StratumCounts(tuple(c for _, _, c in rows))
    for k, (rho, split) in enumerate([(1e-3, 0.5), (0.05, 0.2), (2.0, 0.5), (1.0, 0.999)]):
        yield derive_stream(71, [H, k]), design, counts, PrivacyBudget.total(rho, split)


def _release_repr(ci, releases) -> list[str]:
    """repr of every float and flag of one release, in field order."""
    parts = [repr(v) for v in (ci.point_estimate, ci.variance_estimate, ci.lower, ci.upper, ci.alpha)]
    parts += [ci.algorithm.value, repr(ci.budget_spent.rho1), repr(ci.budget_spent.rho2)]
    parts += [repr(getattr(ci.clipped, f)) for f in _CLIP_FIELDS]
    parts += [f"{name}={value!r}" for name, value in ci.noise_variances]
    for r in releases or ():
        parts += [repr(getattr(r, f)) for f in _RELEASE_FIELDS]
    return parts


def _direct_releases(mechanism: str, H: int):
    """Each case of :func:`_direct_release_cases` under every clip flag pair."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RatioApproximationWarning)
        for stream, design, counts, budget in _direct_release_cases(H):
            for clips in _CLIPS:
                yield _MECHANISMS[mechanism](stream, design, counts, budget, 0.1, **clips)


# SHA-256 of the newline-joined _release_repr parts of _direct_releases(mechanism, H),
# recorded while each stratum's noise was still drawn by its own mechanism call.
DIRECT_RELEASE_DIGESTS = {
    ("str-pub", 1): "803258f549fc6ff14bed7f8c60cf3205894600b7dd52b9962e73e0028725f98b",
    ("str-pub", 5): "e6c0df59fdad2af79868b12e51cf0626778e26e1650741e48dd1207279701c76",
    ("str-pub", 20): "81a8ee7713f0789bc960956f3228eadacd38203134df224f616f74e2fda26544",
    ("str-pub", 50): "b315aad6a507b321354e6d277880840cb07311fab496fa26cc434546da3f78a4",
    ("pop-pub", 1): "7c18dbab5d4e9f341055140783ebf3c253cb75a47a2aa567fc462728c5b51009",
    ("pop-pub", 5): "a7b96f64367874684d03db30c3b0521d6e8156560c93f8aa15de802ac3950fb6",
    ("pop-pub", 20): "b5206006f91928ee0d1b5a59c2872b54dc7072ff41de39b31846cf31e6bb3fc8",
    ("pop-pub", 50): "0614a0de0cdc1f9827115a6bb898b2ac4131b3c6b1026410d249b549d4acc034",
    ("str-priv", 1): "09aa60abca3eb9dccf73bb8c5250d451b8a5f645ae5df9dae306e1ab5f3f7629",
    ("str-priv", 5): "694e2ff1ddaa7b7ca5053db1372756c80c1b90a7124fa7a461e91ac789d9d2e8",
    ("str-priv", 20): "051970ec904a70dda8fb7e393f0f2efa617ecd8bd54d150a2201ad7f72f2a7be",
    ("str-priv", 50): "29ae0b55cbe25409572af293df0c5615e9e7c69eb3f3277f33b2ca908571d23c",
}


class TestFrozenOutputs:
    @pytest.mark.parametrize(
        "algorithm,fmt,clip", sorted(CI_DIGESTS), ids=lambda v: v.lstrip("-") or "no-clip"
    )
    def test_ci(self, capsys, tmp_path, algorithm, fmt, clip):
        p = tmp_path / "three.csv"
        p.write_text(THREE_ROWS)
        argv = ["ci", "--input", str(p), "--algorithm", algorithm, "--rho", "0.05", "--seed", "1",
                "--format", fmt] + ([clip] if clip else [])
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert _sha256(out) == CI_DIGESTS[(algorithm, fmt, clip)]

    @pytest.mark.parametrize("source,p", sorted(ANALYZE_DIGESTS, key=str), ids=str)
    def test_analyze(self, capsys, tmp_path, source, p):
        path = tmp_path / "three.csv"
        path.write_text(THREE_ROWS)
        design = ["--input", str(path)] if source == "--input" else ["--N", "2000", "--n", "152"]
        code, out, _ = _run(
            capsys, ["analyze", *design, "--rho", "0.05"] + (["--p", p] if p else [])
        )
        assert code == 0
        assert _sha256(out) == ANALYZE_DIGESTS[(source, p)]

    def test_simulate_smoke(self, capsys, tmp_path):
        code, _, _ = _run(
            capsys, ["simulate", "--config", str(CONFIGS / "smoke.cfg"), "--out", str(tmp_path)]
        )
        assert code == 0
        assert _sha256((tmp_path / "summary.json").read_bytes()) == (
            "2b660575250bd67134d6228f8969884aa0289d95c840f5d61797980570a1061c"
        )
        assert _sha256((tmp_path / "reps.csv").read_bytes()) == (
            "cb128a7cd7d7a76e5b962f55fb4bad505ecdd0c59095d33aefe26ad21881b613"
        )

    @pytest.mark.parametrize("text,summary_digest,reps_digest", [
        (SWEEP_CFG, "464713d39d1e14aa933565478ca1a969300283e4253ef145b1f4513f5c33df96",
         "65ae0117288a7e7bf21146872e00357a75fc80a04cefec72b508586832802acb"),
        (THREE_STRATA_CFG, "6c24bfbd8bec811986e3c17e75596c9b818ba7d7985992589f688fa1d1c1c64a",
         "f4dac3211e4b6cc94f876698c702d758082a1a3a6ebfdcb8991087b1d259201f"),
    ], ids=["sweep", "three-strata"])
    def test_simulate(self, capsys, tmp_path, text, summary_digest, reps_digest):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, _, _ = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        assert _sha256((tmp_path / "o" / "summary.json").read_bytes()) == summary_digest
        assert _sha256((tmp_path / "o" / "reps.csv").read_bytes()) == reps_digest

    def test_qq_three_strata(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(THREE_STRATA_CFG)
        code, out, _ = _run(capsys, ["qq", "--config", str(cfg), "--grid", "9"])
        assert code == 0
        assert _sha256(out) == "a2bd18a6a231647e3e123f23f3dc24019760d0898691574e592225165185aefc"

    def test_qq_one_stratum(self, capsys):
        code, out, _ = _run(
            capsys, ["qq", "--config", str(CONFIGS / "one_stratum_n152.cfg"), "--grid", "9"]
        )
        assert code == 0
        assert _sha256(out) == "7b24ac26c5d2e456e69e35342e9d3e0b3b988b52e0f387fadbca3ed8852486dc"

    @pytest.mark.parametrize("mechanism,H", sorted(DIRECT_RELEASE_DIGESTS), ids=str)
    def test_direct_release(self, mechanism, H):
        parts = [part for out in _direct_releases(mechanism, H) for part in _release_repr(*out)]
        assert _sha256("\n".join(parts)) == DIRECT_RELEASE_DIGESTS[(mechanism, H)]

    def test_direct_release_flags_fire(self):
        # Every clip and floor changes some frozen release above.
        fired = set()
        for mechanism, H in DIRECT_RELEASE_DIGESTS:
            for ci, releases in _direct_releases(mechanism, H):
                fired |= {(mechanism, f) for f in _CLIP_FIELDS if getattr(ci.clipped, f)}
                fired |= {(mechanism, "fpc_floored") for r in releases or () if r.fpc_floored}
        every_mechanism = ("proportion_clipped", "interval_clipped", "variance_floored")
        assert fired >= {
            *((m, f) for m in _MECHANISMS for f in every_mechanism),
            ("str-priv", "noisy_size_floored"),
            ("str-priv", "fpc_floored"),
        }


class TestExtremeBudgets:
    @pytest.mark.parametrize(
        "algorithm,rho", [("str-priv", "1e-310"), ("str-pub", "5e-324"), ("pop-pub", "5e-324")]
    )
    def test_typed_error_without_nan(self, capsys, one_row_file, algorithm, rho):
        code, out, err = _run(
            capsys, ["ci", "--input", one_row_file, "--algorithm", algorithm, "--rho", rho]
        )
        assert code == 2
        assert out == ""
        assert "rho" in err and "nan" not in err.lower()

    @pytest.mark.parametrize("rows,rho", [(ONE_ROW, "1e-200"), (THREE_ROWS, "7e-309")], ids=["one", "three"])
    def test_non_finite_interval_is_typed_error(self, capsys, tmp_path, rows, rho):
        # The noisy count over a floored noisy size overflows the variance
        # (one stratum) or turns it NaN (three strata).
        p = tmp_path / "rows.csv"
        p.write_text(rows)
        code, out, err = _run(
            capsys, ["ci", "--input", str(p), "--algorithm", "str-priv", "--rho", rho, "--seed", "2"]
        )
        assert code == 2
        assert out == ""
        assert "not finite" in err and "rho" in err
        assert "nan" not in err.lower() and "inf" not in err.lower()


class TestInputBoundary:
    def test_non_utf8_input_file(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(ONE_ROW.encode() + b"\xff\n")
        code, _, err = _run(capsys, ["ci", "--input", str(p), "--algorithm", "nonprivate"])
        assert code == 1
        assert "cannot read input file" in err

    def test_non_utf8_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(SMOKE_CFG.encode() + b"# \xff\n")
        code, _, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cannot read config file" in err

    @pytest.mark.parametrize("argv", [
        ["ci", "--algorithm", "str-priv", "--rho", "1"],
        ["ci", "--algorithm", "nonprivate"],
        ["analyze", "--rho", "1"],
    ], ids=["ci-str-priv", "ci-nonprivate", "analyze"])
    def test_population_size_beyond_float_range(self, capsys, tmp_path, argv):
        p = tmp_path / "huge.csv"
        p.write_text(f"stratum_id,N_h,n_h,c_h\n1,1{'0' * 400},100,50\n")
        code, out, err = _run(capsys, [*argv, "--input", str(p)])
        assert code == 2
        assert out == ""
        assert "population_size" in err

    @pytest.mark.parametrize(
        "size", ["uniform(1e30, 1e31)", str(10**30), "1000000000", "-5", "0", "uniform(0.5, 10)"]
    )
    def test_stratum_size_out_of_range(self, capsys, tmp_path, size):
        # numpy's int64 integer draw and its hypergeometric draw (ngood and
        # nbad below 10**9) cannot take the large sizes.
        cfg = tmp_path / "big.cfg"
        cfg.write_text(
            SMOKE_CFG.replace("stratum_size = 2000", f"stratum_size = {size}").replace(
                "proportion = 0.5", "proportion = 1.0"
            )
        )
        code, out, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "stratum_size" in err and "[1, 999999999]" in err

    @pytest.mark.parametrize("size", ["uniform(1999.9, 2000.9)", "uniform(1500, 2000.5)", "2000.5"])
    def test_stratum_size_not_whole(self, capsys, tmp_path, size):
        # A fractional bound used to be truncated: uniform(1999.9, 2000.9) drew N_h = 1999.
        cfg = tmp_path / "frac.cfg"
        cfg.write_text(SMOKE_CFG.replace("stratum_size = 2000", f"stratum_size = {size}"))
        code, out, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert (code, out) == (2, "")
        assert "stratum_size" in err

    @pytest.mark.parametrize("grid", ["0.01, 0.02, -1", "0.01, 0", "0.01, inf", "0.01, nan"])
    def test_bad_grid_value_fails_before_any_repetition(self, capsys, tmp_path, monkeypatch, grid):
        ran = []
        monkeypatch.setattr(simharness, "_run", lambda *args, **kwargs: ran.append(args))
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SMOKE_CFG.replace("rho = 0.01", f"rho_grid = {grid}"))
        out_dir = tmp_path / "o"
        code, out, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert (code, out) == (2, "")
        assert "rho must be a finite positive number" in err
        assert ran == [] and not out_dir.exists()

    def test_largest_stratum_size(self, capsys, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(
            SMOKE_CFG.replace("stratum_size = 2000", "stratum_size = 999999999").replace(
                "proportion = 0.5", "proportion = 0.999"
            )
        )
        code, _, _ = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_bad_value_names_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE_CFG.replace("rate = 0.05", "rate = uniform(0.1)"))
        code, _, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 4" in err and "'rate'" in err

    @pytest.mark.parametrize("repetitions", [MAX_REPETITIONS + 1, 10**14])
    def test_repetitions_above_cap(self, capsys, tmp_path, repetitions):
        # Rejected as the config is read, before any per-repetition storage exists.
        cfg = tmp_path / "many.cfg"
        cfg.write_text(SMOKE_CFG.replace("repetitions = 1", f"repetitions = {repetitions}"))
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "repetitions" in err and f"[1, {MAX_REPETITIONS}]" in err
        assert peak < 2**20

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
    def test_seed_out_of_range(self, capsys, one_row_file, seed):
        # Streams take seeds modulo 2**64, so these would alias seeds in range.
        code, out, err = _run(
            capsys,
            ["ci", "--input", one_row_file, "--algorithm", "str-pub", "--rho", "0.01", f"--seed={seed}"],
        )
        assert (code, out) == (2, "")
        assert "--seed" in err and "[0, 2**64 - 1]" in err

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
    def test_base_seed_out_of_range(self, capsys, tmp_path, seed):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(SMOKE_CFG.replace("base_seed = 0", f"base_seed = {seed}"))
        code, out, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert (code, out) == (2, "")
        assert "'base_seed'" in err and "[0, 2**64 - 1]" in err

    def test_largest_seed(self, capsys, one_row_file, tmp_path):
        code, _, _ = _run(
            capsys,
            ["ci", "--input", one_row_file, "--algorithm", "str-pub", "--rho", "0.01", f"--seed={2**64 - 1}"],
        )
        assert code == 0
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(SMOKE_CFG.replace("base_seed = 0", f"base_seed = {2**64 - 1}"))
        code, _, _ = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0

    @pytest.mark.parametrize("alpha", ["2", "-0.1", "0", "1", "nan", "inf"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_alpha_outside_unit_interval(self, capsys, one_row_file, algorithm, alpha):
        code, out, err = _run(
            capsys,
            ["ci", "--input", one_row_file, "--algorithm", algorithm, "--rho", "0.01", f"--alpha={alpha}"],
        )
        assert (code, out) == (2, "")
        assert f"alpha must lie in (0, 1), got {float(alpha)}" in err
        assert "rounds" not in err

    def test_tiny_alpha_names_rounding(self, capsys, one_row_file):
        code, out, err = _run(capsys, ["ci", "--input", one_row_file, "--algorithm", "nonprivate", "--alpha", "1e-17"])
        assert (code, out) == (2, "")
        assert "alpha 1e-17 is too small" in err and "rounds to 1" in err

    def test_repetitions_at_cap_parse(self, tmp_path):
        cfg = tmp_path / "many.cfg"
        cfg.write_text(SMOKE_CFG.replace("repetitions = 1", f"repetitions = {MAX_REPETITIONS}"))
        config, _, _ = _parse_config_file(str(cfg))
        assert config.repetitions == MAX_REPETITIONS

    @pytest.mark.parametrize("floor", [-5, 0, 1])
    def test_min_sample_size_below_two(self, capsys, tmp_path, floor):
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(SMOKE_CFG + f"min_sample_size = {floor}\n")
        code, out, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert out == ""
        assert "min_sample_size must be at least 2" in err

    def test_min_sample_size_two(self, capsys, tmp_path):
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(SMOKE_CFG + "min_sample_size = 2\n")
        code, _, _ = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0

    @pytest.mark.parametrize("strata", [MAX_STRATA + 1, 10**14])
    def test_strata_above_cap(self, capsys, tmp_path, strata):
        # Rejected as the config is read, before the population is built.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(SMOKE_CFG.replace("strata = 1", f"strata = {strata}"))
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "strata" in err and f"[1, {MAX_STRATA}]" in err
        assert peak < 2**20

    def test_strata_at_cap_parse(self, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(SMOKE_CFG.replace("strata = 1", f"strata = {MAX_STRATA}"))
        config, _, _ = _parse_config_file(str(cfg))
        assert config.strata == MAX_STRATA

    @pytest.mark.parametrize("grid", [MAX_REPETITIONS + 1, 10**14])
    def test_qq_grid_above_cap(self, capsys, tmp_path, grid):
        # Rejected before any repetition runs.
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, ["qq", "--config", str(cfg), "--grid", str(grid)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "grid" in err and f"[1, {MAX_REPETITIONS}]" in err
        assert peak < 2**20

    def test_qq_grid_at_cap_passes_the_check(self, monkeypatch, tmp_path):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        config, _, _ = _parse_config_file(str(cfg))
        monkeypatch.setattr(simharness, "_set_up", reached)  # the first step after the grid check
        with pytest.raises(Reached):
            simharness.qq_data(config, MAX_REPETITIONS)

    def test_repeated_algorithm(self, capsys, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(SMOKE_CFG.replace("algorithms = nonprivate, str-pub", "algorithms = str-pub, nonprivate, str-pub"))
        for argv in (["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")], ["qq", "--config", str(cfg)]):
            code, out, err = _run(capsys, argv)
            assert code == 2
            assert out == ""
            assert "algorithms must not repeat" in err and "str-pub" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", ["out-is-file", "out-under-file", "out-under-dangling-link"])
    def test_out_blocked_by_file_fails_before_run(self, capsys, tmp_path, monkeypatch, case):
        def run_experiment(*args, **kwargs):
            pytest.fail("a repetition ran although --out cannot be made")

        monkeypatch.setattr("stratci.cli.run_experiment", run_experiment)
        blocker = tmp_path / "blocker"
        if case == "out-under-dangling-link":
            blocker.symlink_to(tmp_path / "missing")
        else:
            blocker.write_text("")
        out = blocker if case == "out-is-file" else blocker / "o" / "p"
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        code, stdout, err = _run(capsys, ["simulate", "--config", str(cfg), "--out", str(out)])
        assert (code, stdout) == (1, "")
        assert err.startswith("error: cannot create output directory") and str(out) in err
        assert sorted(tmp_path.iterdir()) == [blocker, cfg]
        assert blocker.is_symlink() or blocker.read_text() == ""

    @pytest.mark.parametrize("case", ["out-is-file", "out-under-file", "summary-is-dir", "reps-is-dir"])
    def test_unwritable_out(self, tmp_path, case):
        blocker = tmp_path / "blocker"
        out = tmp_path / "o"
        if case == "out-is-file":
            blocker.write_text("")
            out = blocker
        elif case == "out-under-file":
            blocker.write_text("")
            out = blocker / "o"
        else:
            (out / ("summary.json" if case == "summary-is-dir" else "reps.csv")).mkdir(parents=True)
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "stratci.cli", "simulate", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot ") and str(out) in proc.stderr


def test_closed_stdout_exits_141_without_traceback(tmp_path, one_row_file):
    # The pipe's read end is closed before the child starts, so every write to it fails.
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stratci.cli", "ci", "--input", str(one_row_file), "--algorithm", "str-priv",
             "--rho", "0.1", "--format", "json"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr == ""



class _ClosedPipe(io.StringIO):
    """A stdout held in memory, with no descriptor, whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_without_a_descriptor_exits_141(monkeypatch, one_row_file):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["ci", "--input", one_row_file, "--algorithm", "str-priv", "--rho", "0.1"]) == 141

_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
_NUMBER = st.one_of(
    st.integers(-3, 3000), st.integers(10**300, 10**420), st.floats(allow_nan=True)
).map(str)
_VALUE = st.one_of(
    _NUMBER,
    st.lists(_NUMBER, min_size=1, max_size=4).map(", ".join),
    st.tuples(_NUMBER, _NUMBER).map(lambda b: f"uniform({b[0]}, {b[1]})"),
    st.sampled_from(["true", "no", "1/max_n", "nonprivate, str-pub", "pop-pub,str-priv", "difference"]),
    st.text(max_size=12),
)
_CONFIG_LINE = st.tuples(st.sampled_from([*_CONFIG_PARSERS, "typo"]), _VALUE).map(
    lambda kv: f"{kv[0]} = {kv[1]}"
)
_CONFIG_TEXT = st.one_of(st.text(), st.lists(_CONFIG_LINE, max_size=16).map("\n".join))
_CELL = st.one_of(_NUMBER, st.text(max_size=6))
_STRATUM_TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(_CELL, min_size=3, max_size=5).map(",".join), max_size=6).map(
        lambda rows: "\n".join(["stratum_id,N_h,n_h,c_h", *rows])
    ),
)


@st.composite
def _analyze_argv(draw):
    """One-stratum ``analyze`` flags over the whole input range, census and edges included."""
    N = draw(st.integers(2, 10**6))
    n = draw(st.one_of(st.just(N), st.integers(2, N)))
    rho = 10.0 ** draw(st.floats(-320.0, 12.0))
    split = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    p = draw(st.one_of(st.none(), st.floats(0.0, 1.0), st.sampled_from([-0.1, 1.5, math.nan])))
    argv = ["analyze", "--N", str(N), "--n", str(n), "--rho", repr(rho), "--split", repr(split)]
    return argv + ([] if p is None else ["--p", repr(p)])


class TestFuzzedInputs:
    """Arbitrary config and stratum files end in success or a typed error."""

    @staticmethod
    def _write(tmp_path, name, data):
        p = tmp_path / name
        if isinstance(data, bytes):
            p.write_bytes(data)
        else:
            p.write_text(data, encoding="utf-8")
        return str(p)

    @_FUZZ
    @given(data=st.one_of(_CONFIG_TEXT, st.binary()))
    def test_config_file(self, tmp_path, data):
        # Parsed only: a fuzzed config may ask for any number of repetitions.
        try:
            _parse_config_file(self._write(tmp_path, "fuzz.cfg", data))
        except (CliParseError, ValidationError, InfeasibleError):
            pass

    @_FUZZ
    @given(
        data=st.one_of(_STRATUM_TEXT, st.binary()),
        algorithm=st.sampled_from(["nonprivate", "str-pub", "pop-pub", "str-priv"]),
        rho=st.sampled_from(["1e-300", "0.01", "1", "1e12"]),
    )
    def test_stratum_file(self, capsys, tmp_path, data, algorithm, rho):
        path = self._write(tmp_path, "fuzz.csv", data)
        code, _, _ = _run(capsys, ["ci", "--input", path, "--algorithm", algorithm, "--rho", rho])
        assert code in (0, 1, 2, 3)
        code, _, _ = _run(capsys, ["analyze", "--input", path, "--rho", rho])
        assert code in (0, 1, 2, 3)

    @_FUZZ
    @given(argv=_analyze_argv())
    def test_analyze_design(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code in (0, 2), err
        if code == 0:
            rows = out.splitlines()[1:]
            assert rows and all(math.isfinite(float(row.split(",")[2])) for row in rows)
        else:
            assert out == "" and err.startswith("validation error: ")
