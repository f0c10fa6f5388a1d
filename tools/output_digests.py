"""Digest every output of the shipped configs, ``stratci ci`` and ``stratci analyze``, and compare two checkouts.

    python3 tools/output_digests.py ROOT [ROOT2]

For each ``configs/*.cfg`` of the first ROOT, with ``emit_reps = true`` set
(the key replaced if the config has it, appended if not), each checkout runs
``stratci simulate`` and ``stratci qq --grid 99`` from its own ``src`` in a
subprocess.  One line is printed per config and output: the exit code of
``simulate`` and the SHA-256 of its ``summary.json`` and ``reps.csv``, and
the SHA-256 of the stdout of ``qq`` with its exit code.  ``qq`` refuses a
``rho_grid`` config (exit 2), and that refusal is compared like any other
output.

Each checkout also runs ``stratci ci`` on a fixed 20-stratum input that this
script writes (``CI_INPUT``: census strata, sample sizes of 2 and 3, counts
of 0 and of n_h), once per private algorithm, output format, clip flag (none,
``--clip-proportions``, ``--clip-interval``) and budget in ``CI_RHOS``.  At
both budgets str-priv's proportion clip, noisy-size floor and fpc floor fire
and its ratio warning is printed; at the smaller one every mechanism's
proportion clip and interval clip fire.  One line is printed per run: its
exit code and the SHA-256 of its stdout and stderr, with the checkout's root
replaced in stderr and the line number of each ``file.py:LINE:`` location
there (the warning's) replaced too.  This covers every per-stratum release
the command prints, and the warning's text, the file it names and that
line's source text, which Python prints under it; a line added or removed
above the call it names moves no digest.  It also runs ``ci``
on a two-stratum all-census input (``CENSUS_INPUT``, every n_h = N_h), once
per private algorithm and output format at ``--rho 0.1``, so that a change
to pop-pub's release or recorded budget on such a design (whose variance
estimate is 0 whatever the data) shows in a digest.  Last, at each budget
in ``CI_RHOS``, it runs ``stratci analyze`` with ``--input`` on each of
these two inputs, with and without ``--p 0.3``, and with the one-stratum
shorthand ``--N 2000 --n 152 --p 0.5``; each run's line is digested as a
``ci`` run's is.  ``stratci ci --algorithm nonprivate`` runs on ``CI_INPUT``
and on a one-stratum input (``CLIP_INPUT``) whose interval reaches below 0,
once per output format and clip flag, so that a change to the non-private
interval or to its clip shows in a digest.  With the five shipped configs
that makes 84 outputs.

Given two roots, each line shows both sides, and the script exits 1 if any
of them differ.  The standard library is all it needs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def with_emit_reps(text: str) -> str:
    """The config text with ``emit_reps = true``, replacing the key or appending it."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.split("#", 1)[0].partition("=")[0].strip() == "emit_reps":
            lines[i] = "emit_reps = true"
            break
    else:
        lines.append("emit_reps = true")
    return "\n".join(lines) + "\n"


# (N_h, n_h, c_h) per stratum of the ``stratci ci`` input.
CI_INPUT = [(40, 40, 0), (500, 2, 2), (800, 3, 0), (60, 60, 60)] + [
    (1000 + 97 * h, 60 + 7 * h, (60 + 7 * h) * (3 + h) // 25) for h in range(16)
]
CI_RHOS = ("0.0001", "0.5")
CI_ALGORITHMS = ("str-pub", "pop-pub", "str-priv")
CI_CLIPS = ((), ("--clip-proportions",), ("--clip-interval",))
# (N_h, n_h, c_h) per stratum of the all-census ``stratci ci`` input.
CENSUS_INPUT = [(120, 120, 30), (80, 80, 52)]
# One stratum whose non-private interval reaches below 0 (lower about -0.06), so that ``--clip-interval`` moves it.
CLIP_INPUT = [(1000, 10, 1)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stratci(root: Path, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run the checkout's CLI from its own ``src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "stratci.cli", *argv], cwd=cwd, env=env, capture_output=True)


def ran(root: Path, argv: list[str], cwd: Path) -> str:
    """The exit code and the SHA-256 of stdout and stderr, with the checkout's root and each ``.py:LINE:`` replaced."""
    done = stratci(root, argv, cwd)
    stderr = re.sub(rb"\.py:\d+:", b".py:LINE:", done.stderr.replace(bytes(root), b"ROOT"))
    return f"exit {done.returncode} {sha256(done.stdout + stderr)}"


def digests(root: Path, configs: list[Path]) -> dict[tuple[str, str], str]:
    """``(config name, output) -> digest or exit code`` for every config."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for config in configs:
            cfg = work / config.name
            cfg.write_text(with_emit_reps(config.read_text(encoding="utf-8")))
            result = work / config.stem
            done = stratci(root, ["simulate", "--config", str(cfg), "--out", str(result)], work)
            out[config.name, "simulate"] = f"exit {done.returncode}"
            for name in ("summary.json", "reps.csv"):
                path = result / name
                out[config.name, name] = sha256(path.read_bytes()) if path.is_file() else "missing"
            done = stratci(root, ["qq", "--config", str(cfg), "--grid", "99"], work)
            out[config.name, "qq --grid 99"] = f"exit {done.returncode} {sha256(done.stdout)}"
        inputs = {}
        for name, rows in (("ci", CI_INPUT), ("census", CENSUS_INPUT), ("clip", CLIP_INPUT)):
            inputs[name] = work / f"{name}.csv"
            body = "".join(f"{h},{N},{n},{c}\n" for h, (N, n, c) in enumerate(rows))
            inputs[name].write_text("stratum_id,N_h,n_h,c_h\n" + body)
        groups = [("ci", "ci", rho, CI_CLIPS) for rho in CI_RHOS] + [("ci census", "census", "0.1", [()])]
        for label, name, rho, clips in groups:
            for algorithm in CI_ALGORITHMS:
                for fmt in ("json", "csv"):
                    for clip in clips:
                        argv = ["ci", "--input", str(inputs[name]), "--algorithm", algorithm, "--rho", rho,
                                "--seed", "7", "--format", fmt, *clip]
                        out[f"{label} --rho {rho}", " ".join((algorithm, fmt, *clip))] = ran(root, argv, work)
        for name in ("ci", "clip"):
            for fmt in ("json", "csv"):
                for clip in CI_CLIPS:
                    argv = ["ci", "--input", str(inputs[name]), "--algorithm", "nonprivate", "--format", fmt, *clip]
                    out[f"ci nonprivate {name}", " ".join((fmt, *clip))] = ran(root, argv, work)
        runs = [(f"--input {name}" + " --p 0.3" * p, ["--input", str(inputs[name])] + ["--p", "0.3"] * p)
                for name in ("ci", "census") for p in (0, 1)]
        runs.append(("--N 2000 --n 152 --p 0.5", ["--N", "2000", "--n", "152", "--p", "0.5"]))
        for rho in CI_RHOS:
            for label, flags in runs:
                out[f"analyze --rho {rho}", label] = ran(root, ["analyze", *flags, "--rho", rho], work)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("roots", nargs="+", type=Path, metavar="ROOT", help="checkout root (one or two)")
    args = parser.parse_args()
    if len(args.roots) > 2:
        parser.error("at most two roots")
    roots = [root.resolve() for root in args.roots]
    configs = sorted((roots[0] / "configs").glob("*.cfg"))
    if not configs:
        parser.error(f"no configs under {roots[0] / 'configs'}")
    sides = [digests(root, configs) for root in roots]
    differ = 0
    for key, value in sides[0].items():
        values = [side[key] for side in sides]
        mark = "" if len(set(values)) == 1 else "  DIFFERS"
        differ += bool(mark)
        print(f"{key[0]:24s} {key[1]:34s} {'  '.join(values)}{mark}")
    if len(sides) == 2:
        print(f"{differ} of {len(sides[0])} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
