"""Run the table of hand-made mutants: each one edit that the named tests must catch.

    python3 tools/mutants.py

Each row of ``MUTANTS`` is a file under the checkout, an exact snippet of
it, the snippet's replacement, the pytest arguments (test files and a ``-k``
selection) that should catch the edit, and the reason it matters.  For
each row the tool copies ``src/``, ``tests/``, ``configs/`` (some tests
read the shipped configs) and ``pyproject.toml`` (pytest's settings) of
the checkout the tool sits in to a temporary directory, applies the one
edit there and runs the selection with ``PYTHONPATH`` pointed at the
copy's ``src``.  The mutant is killed when the
selection fails.  The checkout itself is never edited.

Before any mutant runs, each distinct selection runs once on an unedited
copy; a selection that fails there, or that selects no test, is reported
and the tool exits 2, as it does when a snippet is not found exactly once
(the table is then stale).  A row marked ``survives`` is a known survivor,
listed with its reason: it is reported, and only an unexpected survivor
makes the tool exit 1.  It needs the standard library and pytest only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    reason: str
    survives: bool = False


_RANDOMNESS = "src/stratci/randomness.py"
_TABLES = (
    "tests/test_randomness.py", "-k", "test_logfactorial_is_numpys or test_constants_tables_and_tries_are_numpys",
)
_KERNEL = ("tests/test_randomness.py", "-k", "TestCountKernel or TestSelfCheck")
# The lane kernel called directly and the self-check: a kernel fault that the
# self-check catches sends counts() to the scalar path, where it cannot show.
_LANES = ("tests/test_randomness.py", "-k", "test_kernel_reaches_every_branch or test_kernels_agree_with_numpy_here")
_PAST_BUFFER = ("tests/test_randomness.py", "-k", "test_lanes_past_the_buffer_are_redrawn_whole")
# A lane left unmarked after an earlier stratum starts the next one past its
# limit, and is marked there; only a lane that runs out in its last stratum shows.
_LAST_STRATUM = ("tests/test_randomness.py", "-k", "test_a_lane_that_runs_out_in_its_last_stratum_is_redrawn_whole")
_FINISH = ("tests/test_dp_ci.py", "-k", "TestFinish")
_VALUES = ("tests/test_core.py", "-k", "TestHandWrittenInit or TestCiResult or test_bool_counts_rejected")
_CARRIED = ("tests/test_dp_ci.py", "-k", "TestBlockCounts")
_ANALYZE = ("tests/test_cli.py", "-k", "test_non_finite_names_its_cause")
_CI_OUTPUT = ("tests/test_cli.py", "-k", "TestFrozenOutputs and test_ci")
_BOUNDARY = ("tests/test_boundary.py",)

MUTANTS = (
    # The one-pass g - gp table build: a last bit moved in any entry moves some count.
    Mutant(
        "logfactorial-np-log", _RANDOMNESS,
        "logs = np.fromiter(map(math.log, x.tolist()), np.float64, x.size)", "logs = np.log(x)", _TABLES,
        "np.log differs from the C library's log in the last bit on some integers (first at 9 170)",
    ),
    Mutant(
        "gp-sum-reassociated", _RANDOMNESS,
        "gp = lf[0] + lf[1] + lf[2] + lf[3]", "gp = lf[0] + (lf[1] + lf[2]) + lf[3]", _TABLES,
        "numpy's C sums gp's four logfactorials left to right",
    ),
    Mutant(
        "table-end-finite", _RANDOMNESS,
        "    table[ends - 1] = -math.inf\n", "", _LANES,
        "a try outside [0, b) must fail both fast tests, as numpy's range test rejects it",
    ),
    Mutant(
        "stirling-reassociated", _RANDOMNESS,
        "- x + (_HALF_LN_2PI + (1.0 / x) * (1 / 12.0 - 1 / (360.0 * x * x)))",
        "- x + _HALF_LN_2PI + (1.0 / x) * (1 / 12.0 - 1 / (360.0 * x * x))", _TABLES,
        "Stirling's series adds its 1/2 log(2 pi) and 1/k terms together before (k + 0.5) log k - k, as in C",
    ),
    # The lane-parallel HRUA kernel: numpy's constants, draws and maps, each in the C code's order.
    Mutant(
        "stirling-1-over-k-integer", _RANDOMNESS, "(1.0 / x) * (1 / 12.0", "(1 // x) * (1 / 12.0", _TABLES,
        "C's 1.0 / k is a float division",
    ),
    Mutant(
        "stirling-1-over-360kk-integer", _RANDOMNESS, "1 / (360.0 * x * x)", "1 // (360.0 * x * x)", _TABLES,
        "C's 1 / (360.0 * k * k) is a float division",
    ),
    Mutant(
        "x-reordered", _RANDOMNESS,
        "return self.a + self.h * (v - 0.5) / u", "return self.a + self.h * ((v - 0.5) / u)", _TABLES,
        "X = a + h * (V - 0.5) / U multiplies before it divides, as in C",
    ),
    Mutant(
        "var-reordered", _RANDOMNESS, "float(N - cs) * cs * p * q / (N - 1)", "float(N - cs) * cs * (p * q) / (N - 1)",
        _TABLES, "var is a left-to-right product, as in C",
    ),
    Mutant(
        "mu-reordered", _RANDOMNESS, "self.a = cs * p + 0.5", "self.a = cs * lo / N + 0.5", _TABLES,
        "mu = computed_sample * p, with p = lo / N rounded first",
    ),
    Mutant(
        "m-divided-first", _RANDOMNESS, "float(cs + 1) * (lo + 1) / (N + 2)", "float(cs + 1) / (N + 2) * (lo + 1)",
        _TABLES, "m floors (cs + 1)(lo + 1) / (N + 2) multiplied first; another order floors some to m - 1",
    ),
    Mutant(
        "m-quotient-first", _RANDOMNESS, "float(cs + 1) * (lo + 1) / (N + 2)", "float(cs + 1) * ((lo + 1) / (N + 2))",
        _TABLES, "m floors (cs + 1)(lo + 1) / (N + 2) multiplied first; another order floors some to m - 1",
    ),
    Mutant(
        "v-before-u", _RANDOMNESS, "u, v = uv[:, 0], uv[:, 1]", "v, u = uv[:, 0], uv[:, 1]", _LANES,
        "each try reads U, then V",
    ),
    Mutant(
        "lane-words-shifted", _RANDOMNESS, "            draw(out=row)\n",
        "            bitgen.random_raw()\n            draw(out=row)\n", _LANES,
        "a lane's first double is its fresh Philox's word 0",
    ),
    Mutant(
        "short-lane-not-redrawn", _RANDOMNESS,
        "        for lane in short.nonzero()[0].tolist():\n"
        "            out[:, lane] = hypergeometric_counts(RandomStream(base_seed, int(ids[lane])), *self.design)\n",
        "", _PAST_BUFFER,
        "a lane whose buffer cannot hold its draws has no count until numpy's scalar sampler redraws it whole",
    ),
    Mutant(
        "exhausted-lane-not-marked", _RANDOMNESS,
        "                except StopIteration:\n                    short[lane] = True\n",
        "                except StopIteration:\n", _LAST_STRATUM,
        "a lane that runs out of buffered doubles inside finish must be redrawn whole",
    ),
    Mutant(
        "maps-back-swapped", _RANDOMNESS,
        "        if self.flip:\n            np.subtract(self.cs, row, out=row)\n"
        "        if self.complement:\n            np.subtract(self.good, row, out=row)\n",
        "        if self.complement:\n            np.subtract(self.good, row, out=row)\n"
        "        if self.flip:\n            np.subtract(self.cs, row, out=row)\n",
        _LANES, "numpy maps good > bad back before computed_sample < sample",
    ),
    Mutant(
        "log-test-np-log", _RANDOMNESS,
        "logs = np.fromiter(map(math.log, u[close].tolist()), np.float64, close.size)",
        "logs = np.log(u[close])", _KERNEL,
        "np.log differs by an ulp on 0.35% of uniforms, too rarely to move a count that the tests draw",
        survives=True,
    ),
    # The one stratified estimate, which the non-private interval, the block baseline and pop-pub share.
    Mutant(
        "stratified-variance-reassociated", "src/stratci/estimators.py",
        "variance += w2 * (fpc * p * (1.0 - p) / (n - 1))", "variance += w2 * fpc * p * (1.0 - p) / (n - 1)",
        ("tests/test_dp_ci.py", "-k", "TestOneStratifiedEstimate"),
        "w_h**2 multiplies the stratum's whole variance term, as in the oracle's ordered sum of w_h**2 V_h",
    ),
    Mutant(
        "sample-proportions-weighted", "src/stratci/estimators.py",
        "tuple(map(truediv, counts.counts, facts.sizes))",
        "tuple([w * c / n for w, c, n in zip(facts.weights, counts.counts, facts.sizes)])",
        ("tests/test_cli.py", "-k", "TestFrozenOutputs and test_analyze"),
        "analyze reads each stratum's own p_hat_h = c_h / n_h, not the term w_h p_hat_h that p_hat adds up",
    ),
    # Each repetition's counts, checked and estimated by the block baseline and carried to the releases.
    Mutant(
        "block-estimate-any-design", "src/stratci/dp_ci.py",
        "carried or _stratified(", 'getattr(counts, "estimate", None) or _stratified(', _CARRIED,
        "a carried estimate holds only for the design the block was estimated on, which check_paired tests",
    ),
    Mutant(
        "check-paired-shortcut-any-design", "src/stratci/core.py",
        "    if type(counts) is _BlockCounts and counts.design is design:\n",
        "    if type(counts) is _BlockCounts:\n", _CARRIED,
        "a block's counts were checked against its own design's n_h only",
    ),
    Mutant(
        "block-counts-float-accepted", "src/stratci/estimators.py", 'counts.dtype.kind not in "iu" or ', "",
        _CARRIED, "a carrier skips StratumCounts' per-count check, so its block must hold integers",
    ),
    Mutant(
        "block-carriers-any-sequence", "src/stratci/estimators.py", "if type(design) is not Design:", "if False:",
        _CARRIED, "a list can change between its block and the release, so its counts are checked at the release",
    ),
    # The one record of a design's facts, derived from its sizes.
    Mutant(
        "weights-from-sample-sizes", "src/stratci/core.py",
        "for w in (N / total,)", "for w in (n / sum([s.sample_size for s in design]),)",
        ("tests/test_cli.py", "tests/test_dp_ci.py", "-k", "TestFrozenOutputs or test_weights_are_the_population_shares"),
        "a stratum's weight is its share N_h / N of the population, not n_h / n of the sample",
    ),
    Mutant(
        "design-facts-c-reassociated", "src/stratci/core.py",
        "w**2 * ((N - n) / N) / (n - 1))", "w**2 * (((N - n) / N) / (n - 1)))",
        ("tests/test_dp_ci.py", "-k", "test_record_holds_each_expression_it_replaced"),
        "C_h multiplies w_h**2 by fpc_h before it divides by n_h - 1, as the sensitivity report did",
    ),
    # The closed forms' errors name the input that makes them non-finite.
    Mutant(
        "analyze-width-ratio-blames-rho", "src/stratci/analysis.py",
        '"p {1!r} is too close to 0 or 1 for rho {0!r}"', '"rho {0!r} is too small"', _ANALYZE,
        "a width ratio that p(1 - p) n rho underflows at a tiny p is p's fault, not rho's",
    ),
    Mutant(
        "analyze-extrinsic-blames-rho", "src/stratci/analysis.py",
        'row.extrinsic_blame if term == "extrinsic_variance" else row.shift_blame', '"rho {0.rho!r} is too small"',
        _ANALYZE,
        "pop-pub's extrinsic variance divides by rho1 alone, which a tiny split makes too small",
    ),
    # The value types' hand-written __init__s and checks.
    Mutant(
        "ci-result-field-not-in-init", "src/stratci/core.py",
        "    noise_variances: tuple[tuple[str, float], ...] = ()\n\n    def __init__(",
        "    noise_variances: tuple[tuple[str, float], ...] = ()\n    note: str = \"\"\n\n    def __init__(",
        _VALUES, "a field of CiResult that its hand-written __init__ does not take",
    ),
    Mutant(
        "drawn-stream-field-dropped", _RANDOMNESS,
        "stream_id=stream_id, children=children, fan=fan, normals=normals)",
        "stream_id=stream_id, children=children, normals=normals)", _VALUES,
        "_DrawnStream's __init__ must store every field",
    ),
    Mutant(
        "ci-result-fields-out-of-order", "src/stratci/core.py",
        "point_estimate=point_estimate, variance_estimate=variance_estimate, lower=lower, upper=upper,",
        "variance_estimate=variance_estimate, point_estimate=point_estimate, lower=lower, upper=upper,", _VALUES,
        "the instance dict keeps the fields' order, as the generated __init__ does",
    ),
    Mutant(
        "ci-result-checks-swapped", "src/stratci/core.py",
        "            if not (0.0 < alpha < 1.0):\n"
        "                raise ValidationError(f\"alpha must lie in (0, 1), got {alpha}\")\n"
        "            if not variance_estimate >= 0.0:\n"
        "                raise ValidationError(f\"variance_estimate must be nonnegative, got {variance_estimate}\")\n",
        "            if not variance_estimate >= 0.0:\n"
        "                raise ValidationError(f\"variance_estimate must be nonnegative, got {variance_estimate}\")\n"
        "            if not (0.0 < alpha < 1.0):\n"
        "                raise ValidationError(f\"alpha must lie in (0, 1), got {alpha}\")\n",
        _VALUES, "CiResult checks alpha before the variance, and each error keeps its text",
    ),
    Mutant(
        "ci-result-type-error-escapes", "src/stratci/core.py",
        "        except TypeError as exc:\n"
        "            raise ValidationError(f\"alpha, the estimates and the bounds must be real numbers: {exc}\") from exc\n",
        "        except ZeroDivisionError as exc:\n"
        "            raise ValidationError(f\"alpha, the estimates and the bounds must be real numbers: {exc}\") from exc\n",
        ("tests/test_core.py", "-k", "TestCiResult and test_non_numbers_raise_validation_errors"),
        "a CiResult input that cannot be compared is a ValidationError, not a bare TypeError",
    ),
    Mutant(
        "ci-result-nan-variance", "src/stratci/core.py",
        "if not variance_estimate >= 0.0:", "if variance_estimate < 0.0:", _VALUES,
        "a NaN variance passes a '< 0.0' test",
    ),
    Mutant(
        "bool-counts-accepted", "src/stratci/core.py",
        "(type(c) is bool or not isinstance(c, int))", "(not isinstance(c, int))", _VALUES,
        "bool is an int subclass; every mechanism would release True and False as 1 and 0",
    ),
    Mutant(
        "str-priv-size-noise-at-rho", "src/stratci/dp_ci.py",
        "_noise_scales(budget.rho2, 1.0)", "_noise_scales(budget.rho, 1.0)",
        ("tests/test_dp_ci.py", "tests/test_mechanisms.py", "-k", "TestStratumNoisePrivateSizes or TestZcdpLedger"),
        "str-priv's size noise is scaled by its own share rho2 of the budget",
    ),
    Mutant(
        "str-priv-p-factor-linear", "src/stratci/dp_ci.py", "lambda p: 1.0 + p * p", "lambda p: 1.0 + p",
        ("tests/test_analysis.py", "-k", "TestWidthRatioLimit"),
        "str-priv's simulated mean width ratio tends to the closed form with factor 1 + p^2, the paper's",
    ),
    # The scalar release's finish and binding.
    Mutant(
        "clip-test-strict", "src/stratci/core.py",
        "if 0.0 <= self.lower and self.upper <= 1.0:", "if 0.0 < self.lower and self.upper <= 1.0:", _FINISH,
        "an interval whose lower bound is exactly 0 is not clipped",
    ),
    Mutant(
        "interval-clipped-from-flag", "src/stratci/estimators.py", "_CLIP_FLAGS[proportion_clipped, False,",
        "_CLIP_FLAGS[proportion_clipped, clip_interval,", _FINISH,
        "interval_clipped says that the clip moved a bound, not that it was asked for",
    ),
    Mutant(
        "finish-ignores-clip-interval", "src/stratci/estimators.py",
        "    return ci.clip_to_unit_interval() if clip_interval else ci\n", "    return ci\n", _CI_OUTPUT,
        "--clip-interval reaches every private release through the one finish",
    ),
    Mutant(
        "release-function-bound-once", "src/stratci/dp_ci.py",
        "def _release_function(algorithm: AlgorithmTag) -> Callable:",
        "@lru_cache(maxsize=None)\ndef _release_function(algorithm: AlgorithmTag) -> Callable:",
        ("tests/test_simharness.py", "-k", "TestMechanismBinding"),
        "a run binds each release function by name when it starts, so a wrapper bound before it sees every release",
    ),
    Mutant(
        "wald-half-width-doubled", "src/stratci/estimators.py",
        "    half_width = z * variance**0.5\n", "    half_width = 2.0 * z * variance**0.5\n",
        ("tests/test_dp_ci.py", "-k", "TestReferenceRelease or TestFinish"),
        "the reference release finishes its intervals with its own Wald bounds, not the package's",
    ),
    Mutant(
        "finiteness-after-sign", "src/stratci/estimators.py",
        "    if not (math.isfinite(point) and math.isfinite(variance)):\n"
        "        raise ValidationError(\n"
        "            \"the point or variance estimate is not finite; the privacy budget rho may be too small\"\n"
        "        )\n"
        "    if variance < 0.0:\n"
        "        raise ValidationError(f\"variance must be nonnegative, got {variance}\")\n",
        "    if variance < 0.0:\n"
        "        raise ValidationError(f\"variance must be nonnegative, got {variance}\")\n"
        "    if not (math.isfinite(point) and math.isfinite(variance)):\n"
        "        raise ValidationError(\n"
        "            \"the point or variance estimate is not finite; the privacy budget rho may be too small\"\n"
        "        )\n",
        _FINISH, "a Wald interval checks finiteness before the variance's sign, and each error keeps its text",
    ),
    # The one domain checker, and the public functions that call it.
    Mutant(
        "checker-accepts-nan", "src/stratci/core.py",
        "    if not ((low < x if low_open else low <= x)", "    if x == x and not ((low < x if low_open else low <= x)",
        _BOUNDARY, "NaN fails every comparison, so only a test that reads 'not in the interval' rejects it",
    ),
    Mutant(
        "checker-accepts-bool", "src/stratci/core.py",
        "type(value) is not bool and isinstance(value, numbers.Real)", "isinstance(value, numbers.Real)", _BOUNDARY,
        "bool is an int subclass; PrivacyBudget(True, 0.01) would spend a budget of 1",
    ),
    Mutant(
        "checker-accepts-huge-int", "src/stratci/core.py",
        "x = float(value) if real else math.nan", "x = value if real else math.nan",
        _BOUNDARY,
        "an int past the float range compares as a number but overflows the first float arithmetic on it",
    ),
    Mutant(
        "noise-scale-accepts-inf-rho", "src/stratci/mechanisms.py",
        '_check_number("rho", rho, "(0, inf)")', '_check_number("rho", rho, "(0, inf]")', _BOUNDARY,
        "at rho = inf the noise variance is 0 and gaussian_mechanism releases the exact value",
    ),
    Mutant(
        "budget-ratio-squares-unguarded", "src/stratci/analysis.py",
        "    if not sys.float_info.min <= max(sq) <= sys.float_info.max / (4 * len(sq)):",
        "    if False:", _BOUNDARY,
        "a weight of 1e-300 or 1e300 squares to 0 or inf, and the ratio divides by zero or is NaN",
    ),
    Mutant(
        "k2-range-unchecked", "src/stratci/analysis.py", "    if not x <= _K2_X_MAX:\n", "    if False:\n",
        ("tests/test_analysis.py", "-k", "TestRatioEstimatorMoments"),
        "past x = 0.739 the order-2 term even - odd^2 is negative, and at x = 125 the variance is about -5.5e8",
    ),
    Mutant(
        "derive-stream-non-integer-index", "src/stratci/randomness.py",
        '_check_number("every seed and index", idx, integer=True)', '_check_number("every seed and index", idx)',
        _BOUNDARY, "int() would truncate a seed or index of 0.5 to another stream's key",
    ),
    # The command line.
    Mutant(
        "ci-private-fields-swapped", "src/stratci/cli.py",
        '"noisy_count", "noisy_size",', '"noisy_size", "noisy_count",', _CI_OUTPUT,
        "each str-priv stratum prints its fields in the order that the frozen outputs hold",
    ),
    Mutant(
        "ci-clip-keys-keep-suffix", "src/stratci/cli.py",
        'name.removesuffix("_clipped")', "name", _CI_OUTPUT,
        "the interval's flags print as proportion and interval, without ClipFlags' _clipped suffix",
    ),
    Mutant(
        "cli-broken-pipe-escapes", "src/stratci/cli.py",
        "    except BrokenPipeError:\n", "    except ZeroDivisionError:\n",
        ("tests/test_cli.py", "-k", "closed_stdout"),
        "a closed stdout must exit 141 with no traceback, not 1 (the parse-error code)",
    ),
    Mutant(
        "cli-closed-stdout-unguarded", "src/stratci/cli.py",
        "        try:\n            fd = sys.stdout.fileno()\n        except (OSError, ValueError):\n            return code\n",
        "        fd = sys.stdout.fileno()\n",
        ("tests/test_cli.py", "-k", "closed_stdout"),
        "a closed stdout held in memory has no descriptor to point at the null device; main still returns 141",
    ),
)


def copy_checkout(into: Path) -> None:
    """Copy what the tests need from this checkout into the directory ``into``."""
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, into / name)


def apply(into: Path, mutant: Mutant) -> None:
    """Make the mutant's one edit in the copy at ``into``; a snippet found other than once is a stale row."""
    path = into / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.snippet)
    if found != 1:
        raise LookupError(f"{mutant.name}: snippet found {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def run_tests(into: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for the selection ``tests`` in the copy at ``into``: 0 passed, 1 failed, 5 none selected."""
    env = dict(os.environ, PYTHONPATH=str(into / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=into, env=env, capture_output=True).returncode


def in_copy(mutant: Mutant | None, tests: tuple[str, ...]) -> int:
    """Run ``tests`` in a fresh temporary copy of this checkout, with ``mutant``'s edit made if it is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        into = Path(tmp)
        copy_checkout(into)
        if mutant is not None:
            apply(into, mutant)
        return run_tests(into, tests)


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    for tests in dict.fromkeys(m.tests for m in MUTANTS):
        code = in_copy(None, tests)
        if code != 0:
            print(f"selection {' '.join(tests)!r} {'selects no test' if code == 5 else 'fails'} without a mutant "
                  f"(pytest exit {code})", file=sys.stderr)
            return 2
    unexpected = []
    for m in MUTANTS:
        began = time.monotonic()
        try:
            code = in_copy(m, m.tests)
        except LookupError as exc:
            print(f"stale row: {exc}", file=sys.stderr)
            return 2
        if code not in (0, 1):
            print(f"{m.name}: pytest exit {code}, neither a pass nor a failure", file=sys.stderr)
            return 2
        verdict = "killed" if code else "survived"
        if not code and not m.survives:
            unexpected.append(m.name)
            verdict += " (UNEXPECTED)"
        elif m.survives:
            verdict += " (known survivor)" if not code else " (listed as a survivor)"
        print(f"{m.name:<32} {verdict:<30} {time.monotonic() - began:6.1f} s  {m.reason}")
    if unexpected:
        print(f"{len(unexpected)} unexpected survivor(s): {', '.join(unexpected)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
