"""Command-line surface.

Subcommands: ``ci`` (one interval from a stratum-count file), ``simulate``
(repeated-sampling experiments to summary.json/reps.csv), ``analyze``
(closed-form variance and width-ratio tables), ``qq`` (paired quantiles).

Every command is a pure function of its flags, input files, and seed; there
is no time-based seeding, so identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 parse error (a file that cannot be read or
written, or is not UTF-8, included), 2 validation error, 3 infeasible
configuration, 141 (128 + SIGPIPE) standard output closed before written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .analysis import width_ratio_report
from .core import (
    AlgorithmTag,
    CiResult,
    InfeasibleError,
    PrivacyBudget,
    StratumCounts,
    StratumDesign,
    ValidationError,
    _check_number,
    build_design,
)
from .dp_ci import PrivateStratumRelease, release
from .estimators import non_private_ci, sample_proportions
from .randomness import derive_stream
from .simharness import (
    RHO_ONE_OVER_MAX_N,
    ExperimentConfig,
    Uniform,
    _grid_configs,
    qq_data,
    rho_sweep,
    run_experiment,
)

STRATUM_FILE_HEADER = "stratum_id,N_h,n_h,c_h"

# Streams take a seed modulo 2**64, so a seed outside this range would alias one inside.
_MAX_SEED = (1 << 64) - 1

# Wire names of the algorithms that release an interval from stratum counts.
_ALGORITHMS = {t.value: t for t in AlgorithmTag if t is not AlgorithmTag.DIFFERENCE}


class CliParseError(Exception):
    """Malformed flags, input file syntax, or a file that cannot be read or written (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise CliParseError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_text(path: str, kind: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliParseError(f"cannot read {kind} file {path!r}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise CliParseError(f"cannot write output file {str(path)!r}: {exc}") from exc


def _read_stratum_file(path: str) -> tuple[tuple[StratumDesign, ...], StratumCounts]:
    lines = [ln for ln in _read_text(path, "input").splitlines() if ln.strip()]
    if not lines:
        raise CliParseError(f"{path}: empty input file")
    if lines[0].strip() != STRATUM_FILE_HEADER:
        raise CliParseError(
            f"{path}: row 1: expected header {STRATUM_FILE_HEADER!r}, got {lines[0].strip()!r}"
        )
    columns = STRATUM_FILE_HEADER.split(",")
    sizes: list[tuple[int, int]] = []
    counts: list[int] = []
    for i, line in enumerate(lines[1:], start=2):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(columns):
            raise CliParseError(f"{path}: row {i}: expected {len(columns)} columns, got {len(fields)}")
        values = []
        for j, (name, field) in enumerate(zip(columns, fields), start=1):
            try:
                values.append(int(field))
            except ValueError as exc:
                raise CliParseError(f"{path}: row {i}, column {j} ({name}): not an integer: {field!r}") from exc
        sizes.append((values[1], values[2]))
        counts.append(values[3])
    return build_design(sizes), StratumCounts(counts)


def _release_payload(release: PrivateStratumRelease, index: int) -> dict:
    """A record's fields by group: every record's, then str-pub's and str-priv's where the record fills them."""
    names = ("proportion", "variance", "proportion_clipped", "variance_floored")
    if release.proportion_noise_variance is not None:
        names += ("proportion_noise_variance",)
    if release.noisy_count is not None:
        names += (
            "noisy_count", "noisy_size", "count_noise_variance", "size_noise_variance", "noisy_size_floored",
            "fpc_floored",
        )
    return {"stratum": index, **{name: getattr(release, name) for name in names}}


def _ci_payload(ci: CiResult, releases: Sequence[PrivateStratumRelease] | None) -> dict:
    budget = ci.budget_spent
    payload: dict = {
        "algorithm": ci.algorithm.value,
        **{name: getattr(ci, name) for name in ("alpha", "point_estimate", "variance_estimate", "lower", "upper")},
        "budget": None if budget is None else {"rho": budget.rho, **dataclasses.asdict(budget)},
        "clipped": {name.removesuffix("_clipped"): flag for name, flag in dataclasses.asdict(ci.clipped).items()},
        "noise_variances": dict(ci.noise_variances),
    }
    if releases is not None:
        payload["strata"] = [_release_payload(r, h) for h, r in enumerate(releases)]
    return payload


# The CSV field of each entry of a nested payload table, by the table's key.
_CSV_FIELDS = {"budget": "budget_{}", "clipped": "clipped_{}", "noise_variances": "noise_variance[{}]"}


def _payload_to_csv(payload: dict) -> str:
    """Flatten the JSON payload to long-format rows ``field,stratum,value``, in the payload's order."""
    rows = ["field,stratum,value"]

    def emit(field: str, stratum: str, value) -> None:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = _fmt(value)
        else:
            text = str(value)
        rows.append(f"{field},{stratum},{text}")

    for key, value in payload.items():
        if key == "strata":
            for stratum in value:
                for name, x in stratum.items():
                    if name != "stratum":
                        emit(name, str(stratum["stratum"]), x)
        elif key in _CSV_FIELDS:
            for name, x in (value or {}).items():
                emit(_CSV_FIELDS[key].format(name), "", x)
        else:
            emit(key, "", value)
    return "\n".join(rows) + "\n"


def _seed(raw: str | int) -> int:
    seed = int(raw)
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"must lie in [0, 2**64 - 1], got {seed}")
    return seed


def _cmd_ci(args: argparse.Namespace) -> int:
    try:
        _seed(args.seed)
    except ValueError as exc:
        raise ValidationError(f"--seed {exc}") from exc
    design, counts = _read_stratum_file(args.input)
    tag = AlgorithmTag(args.algorithm)
    if tag is AlgorithmTag.NON_PRIVATE:
        ci, releases = non_private_ci(design, counts, args.alpha), None
        if args.clip_interval:
            ci = ci.clip_to_unit_interval()
    else:
        if args.rho is None:
            raise ValidationError(f"--rho is required for algorithm {args.algorithm!r}")
        ci, releases = release(
            tag, derive_stream(args.seed, [0]), design, counts,
            PrivacyBudget.total(args.rho, args.split), args.alpha,
            clip_proportions=args.clip_proportions, clip_interval=args.clip_interval,
        )
    payload = _ci_payload(ci, releases)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        sys.stdout.write(_payload_to_csv(payload))
    return 0


# --- simulate -------------------------------------------------------------

_REQUIRED_KEYS = {"strata", "stratum_size", "rate", "proportion", "algorithms", "repetitions", "base_seed"}
_TRUTH = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _lookup(table: dict, raw: str):
    if raw not in table:
        raise ValueError(f"expected one of {', '.join(table)}, got {raw!r}")
    return table[raw]


def _number_or_uniform(number):
    """Parser for a number, or for ``uniform(a, b)``, a range drawn per stratum."""

    def parse(raw: str):
        if not (raw.startswith("uniform(") and raw.endswith(")")):
            return number(raw)
        bounds = raw[len("uniform("):-1].split(",")
        if len(bounds) != 2:
            raise ValueError(f"uniform(...) takes two bounds, got {raw!r}")
        return Uniform(float(bounds[0]), float(bounds[1]))

    return parse


def _parse_truth(raw: str) -> bool:
    return _lookup(_TRUTH, raw.lower())


# Value parser per config key.  A key left out takes ExperimentConfig's
# default; rho_grid and emit_reps are read here but are not config fields.
_CONFIG_PARSERS = {
    "alpha": float,
    "strata": int,
    "stratum_size": _number_or_uniform(int),
    "rate": _number_or_uniform(float),
    "proportion": _number_or_uniform(float),
    "rho": lambda raw: raw if raw == RHO_ONE_OVER_MAX_N else float(raw),
    "rho_grid": lambda raw: tuple(float(v) for v in raw.split(",")),
    "split": float,
    "algorithms": lambda raw: tuple(_lookup(_ALGORITHMS, name.strip()) for name in raw.split(",")),
    "repetitions": int,
    "base_seed": _seed,
    "clip_proportions": _parse_truth,
    "clip_interval": _parse_truth,
    "min_sample_size": int,
    "emit_reps": _parse_truth,
}


def _parse_config_file(path: str) -> tuple[ExperimentConfig, tuple[float, ...] | None, bool]:
    values: dict = {}
    for i, line in enumerate(_read_text(path, "config").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliParseError(f"{path}: line {i}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _CONFIG_PARSERS:
            raise ValidationError(f"{path}: line {i}: unknown config key {key!r}")
        if key in values:
            raise ValidationError(f"{path}: line {i}: duplicate config key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](raw)
        except ValueError as exc:
            raise ValidationError(f"{path}: line {i}: config key {key!r}: {exc}") from exc

    missing = _REQUIRED_KEYS - values.keys()
    if missing:
        raise ValidationError(f"{path}: missing required config keys: {', '.join(sorted(missing))}")
    if ("rho" in values) == ("rho_grid" in values):
        raise ValidationError(f"{path}: exactly one of 'rho' and 'rho_grid' is required")
    rho_grid = values.pop("rho_grid", None)
    emit_reps = values.pop("emit_reps", False)
    config = ExperimentConfig(**values)
    if rho_grid is not None:
        _grid_configs(config, rho_grid)  # a bad grid value fails before --out is made
    return config, rho_grid, emit_reps


def _summary_payload(summary) -> dict:
    return {tag.value: dataclasses.asdict(row) for tag, row in summary.by_algorithm}


def _cmd_simulate(args: argparse.Namespace) -> int:
    config, rho_grid, emit_reps = _parse_config_file(args.config)
    out_dir = Path(args.out)
    # A file at --out, or at its nearest existing ancestor, fails now rather than after the run.
    existing = next(p for p in (out_dir.absolute(), *out_dir.absolute().parents) if p.is_symlink() or p.exists())
    if not existing.is_dir():
        raise CliParseError(f"cannot create output directory {args.out!r}: {str(existing)!r} is not a directory")
    if rho_grid is None:
        summary = run_experiment(config, keep_records=emit_reps)
        results = ((summary.rho, summary),)
    else:
        results = rho_sweep(config, rho_grid, keep_records=emit_reps)
    first = results[0][1]
    payload = {
        "alpha": config.alpha,
        "repetitions": config.repetitions,
        "base_seed": config.base_seed,
        "split": config.split,
        "true_proportion": first.true_proportion,
        "stratum_sizes": list(first.stratum_sizes),
        "sample_sizes": list(first.sample_sizes),
        "grid": [
            {"rho": rho, "algorithms": _summary_payload(summary)}
            for rho, summary in results
        ],
    }
    # Made only now, so that a run that fails leaves no directory behind.
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliParseError(f"cannot create output directory {args.out!r}: {exc}") from exc
    _write_text(out_dir / "summary.json", json.dumps(payload, indent=2) + "\n")
    if emit_reps:
        sweep = rho_grid is not None
        lines = ["rho,rep,algorithm,covered,width,lower,upper" if sweep
                 else "rep,algorithm,covered,width,lower,upper"]
        names = [tag.value for tag in config.algorithms]
        for rho, summary in results:
            assert summary.records is not None
            prefix = f"{_fmt(rho)}," if sweep else ""
            true_p = summary.true_proportion
            # One %-format per row: rep, covered as 0/1, then width, lower and upper as _fmt writes them.
            columns = [
                (f"{prefix}%d,{name},%d,%.17g,%.17g,%.17g", lower, upper)
                for name, (lower, upper, _) in zip(names, summary.records)
            ]
            for r in range(summary.repetitions):
                for row, lower, upper in columns:
                    lo, hi = lower[r], upper[r]
                    lines.append(row % (r, lo <= true_p <= hi, hi - lo, lo, hi))
        _write_text(out_dir / "reps.csv", "\n".join(lines) + "\n")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.input is not None:
        design, counts = _read_stratum_file(args.input)
        if args.p is not None:
            proportions: tuple[float, ...] | None = (args.p,) * len(design)
        else:
            _, proportions = sample_proportions(design, counts)
    else:
        if args.N is None or args.n is None:
            raise ValidationError("either --input or both --N and --n are required")
        design = build_design([(args.N, args.n)])
        proportions = (args.p,) * 1 if args.p is not None else None
    _check_number("split", args.split, "(0, 1)")
    budget = PrivacyBudget.total(args.rho, args.split)
    report = width_ratio_report(design, budget, proportions)
    lines = ["metric,algorithm,value"]
    for tag, value in report.extrinsic_variances:
        lines.append(f"v_ex,{tag.value},{_fmt(value)}")
    lines.append(f"budget_ratio_stratum_vs_population,,{_fmt(report.ratio_stratum_vs_population)}")
    if report.ratio_private_vs_public is not None:
        lines.append(f"budget_ratio_private_vs_public,,{_fmt(report.ratio_private_vs_public)}")
    for tag, value in report.width_ratios:
        lines.append(f"twr,{tag.value},{_fmt(value)}")
    for tag, value in report.lower_bounds:
        lines.append(f"twr_lower_bound,{tag.value},{_fmt(value)}")
    print("\n".join(lines))
    return 0


def _cmd_qq(args: argparse.Namespace) -> int:
    config, rho_grid, _ = _parse_config_file(args.config)
    if rho_grid is not None:
        raise ValidationError("qq requires a single 'rho', not 'rho_grid'")
    tables = qq_data(config, args.grid)
    multi = len(tables) > 1
    lines = ["algorithm,q,theoretical,empirical" if multi else "q,theoretical,empirical"]
    for tag, rows in tables:
        for q, theo, emp in rows:
            prefix = f"{tag.value}," if multi else ""
            lines.append(f"{prefix}{_fmt(q)},{_fmt(theo)},{_fmt(emp)}")
    print("\n".join(lines))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="stratci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ci = sub.add_parser("ci", help="confidence interval from a stratum-count file")
    p_ci.add_argument("--input", required=True, help=f"CSV with header {STRATUM_FILE_HEADER!r}")
    p_ci.add_argument(
        "--algorithm", required=True,
        choices=tuple(_ALGORITHMS),
    )
    p_ci.add_argument("--rho", type=float, default=None, help="total privacy budget")
    p_ci.add_argument("--split", type=float, default=0.5, help="fraction of rho spent on the first mechanism")
    p_ci.add_argument("--alpha", type=float, default=0.1)
    p_ci.add_argument("--seed", type=int, default=0)
    p_ci.add_argument("--clip-proportions", action="store_true", dest="clip_proportions")
    p_ci.add_argument("--clip-interval", action="store_true", dest="clip_interval")
    p_ci.add_argument("--format", choices=("json", "csv"), default="json")
    p_ci.set_defaults(func=_cmd_ci)

    p_sim = sub.add_parser("simulate", help="run a repeated-sampling experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", help="closed-form variance and width-ratio table")
    p_an.add_argument("--input", default=None, help="stratum-count file for multi-stratum designs")
    p_an.add_argument("--N", type=int, default=None, help="population size (one-stratum shorthand)")
    p_an.add_argument("--n", type=int, default=None, help="sample size (one-stratum shorthand)")
    p_an.add_argument("--rho", type=float, required=True)
    p_an.add_argument("--split", type=float, default=0.5)
    p_an.add_argument("--p", type=float, default=None, help="assumed true proportion")
    p_an.set_defaults(func=_cmd_analyze)

    p_qq = sub.add_parser("qq", help="paired theoretical/empirical quantiles")
    p_qq.add_argument("--config", required=True)
    p_qq.add_argument("--grid", type=int, default=99)
    p_qq.set_defaults(func=_cmd_qq)
    return parser


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    code = 141  # stdout closed while the command wrote to it
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; point stdout at the null device so that the
        # interpreter's flush at exit does not fail on it again.  A stdout
        # captured in memory has no descriptor to point.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            return code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
