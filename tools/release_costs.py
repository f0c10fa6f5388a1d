"""Time one private release per call, per mechanism, and the layers under it, at H = 1, 5 and 20 strata.

    PYTHONPATH=src python3 tools/release_costs.py [--batches 60] [--calls 50] [--seed 1] [--against DIR]

At each H it builds one design, N_h drawn from [1500, 2000] and n_h from
[60, 160], and one sample of counts at proportion 0.3.  Each mechanism then
releases ``--calls`` times per batch, with ``clip_proportions`` on, at
rho = 1/160 split evenly, from a new stream on every call, each column made
the way its caller makes the call.  "drawn" streams carry their normals, and
the release function is resolved once and then called directly with
``per_stratum=False``, as ``run_experiment`` does, on the counts it passes:
the ``core._BlockCounts`` that ``estimators._wald_block`` returns for the
design's one-column block, already checked and estimated there.  "fresh"
streams draw theirs stream by stream, and each call goes through
``dp_ci.release`` with its per-stratum releases, as ``stratci ci`` and the
library do.  A second table times, per call, the layers a release stands on:
``derive_stream(seed, [i, slot])`` (how a library caller keys a stream),
``RandomStream.child(h)`` for h < H, ``non_private_ci`` on the same design
and counts, and "count block": a fresh ``randomness._CountSampler`` of the
design, with K_h = 3 N_h // 10, drawing the counts of a block of 600 streams
(one call per batch, in µs per stream), as a sweep of six 100-repetition
budgets draws them.  One untimed call of each comes first, so the figures
are those of a design already in use (the count block's sampler is still
new on every call).  A batch is timed by ``time.thread_time``; each figure
is the smallest time per call over the batches, in microseconds, printed as
Markdown tables.

With ``--against DIR``, the package at ``DIR/src/stratci`` is imported into
this process under a second name, and every figure is timed on both
checkouts, alternating batch by batch (which side goes first swaps each
batch), so that both meet the machine in the same state; each cell reads
``this [DIR]``.  It needs numpy and stratci only.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np

STRATA = (1, 5, 20)
AGAINST = "stratci_against"
LANES = 600  # streams in the count block


def load_against(root: Path) -> str:
    """Import the package at ``root/src/stratci`` as ``stratci_against``, and return that name."""
    package = root / "src" / "stratci"
    spec = importlib.util.spec_from_file_location(
        AGAINST, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = module
    spec.loader.exec_module(module)
    return AGAINST


def count_block(sampler, design: tuple, seed: int, ids: np.ndarray) -> np.ndarray:
    """A fresh sampler of ``design`` draws the counts of the streams ``ids``."""
    return sampler(*design).counts(seed, ids)


def cases(name: str, H: int, sizes: list, counts: list, seed: int, batches: int, calls: int) -> dict:
    """``(table, row, column) -> (call, arguments, keywords)`` for every figure at H strata, on package ``name``.

    Each figure makes ``calls`` calls per batch, the count block one.
    """
    total = batches * calls
    stratci = importlib.import_module(name)
    dp_ci = importlib.import_module(f"{name}.dp_ci")
    randomness = importlib.import_module(f"{name}.randomness")
    budget = stratci.PrivacyBudget.total(1.0 / 160.0)
    design, counts = stratci.build_design(sizes), stratci.StratumCounts(tuple(counts))
    estimators = importlib.import_module(f"{name}.estimators")
    _, (carried,) = estimators._wald_block(design, np.array([counts.counts]).T, 0.1, False)
    fresh = [stratci.derive_stream(seed, [H, i]) for i in range(total)]
    out = {}
    for tag, row in dp_ci.MECHANISMS.items():
        function = dp_ci._release_function(tag)
        drawn = randomness._drawn_streams(seed, [(np.arange(total, dtype=np.uint64), *row.noise_shape(H))])[0]
        for column, call, streams, sample, keywords in (
            ("drawn", function, drawn, carried, {"per_stratum": False}),
            ("fresh", partial(dp_ci.release, tag), fresh, counts, {}),
        ):
            arguments = [(stream, design, sample, budget, 0.1) for stream in streams]
            out["mechanism", tag.value, f"H = {H} {column}"] = (call, arguments, {"clip_proportions": True, **keywords})
    out["layer", "derive_stream", f"H = {H}"] = (
        stratci.derive_stream, [(seed, [i, 1 + i % 3]) for i in range(total)], {},
    )
    out["layer", "child", f"H = {H}"] = (stratci.RandomStream.child, [(fresh[i], i % H) for i in range(total)], {})
    out["layer", "non_private_ci", f"H = {H}"] = (stratci.non_private_ci, [(design, counts, 0.1)] * total, {})
    population = [N for N, _ in sizes], [3 * N // 10 for N, _ in sizes], [n for _, n in sizes]
    block = (randomness._CountSampler, population, seed, np.arange(LANES, dtype=np.uint64))
    out["layer", "count block", f"H = {H}"] = (count_block, [block] * batches, {})
    return out


def per_call_us(sides: list, batches: int) -> list[float]:
    """Per side, the smallest time per call of ``call(*args, **keywords)`` over ``batches`` batches, in µs.

    Each side is a ``(call, arguments, keywords)``, one ``args`` per call,
    split evenly over the batches.  The sides take turns batch by batch, and
    the first to run swaps each batch.
    """
    for call, arguments, keywords in sides:
        call(*arguments[0], **keywords)
    calls = len(sides[0][1]) // batches
    best = [float("inf")] * len(sides)
    for number, start in enumerate(range(0, len(sides[0][1]), calls)):
        for i in (range(len(sides)) if number % 2 == 0 else reversed(range(len(sides)))):
            call, arguments, keywords = sides[i]
            batch = arguments[start:start + calls]
            began = time.thread_time()
            for args in batch:
                call(*args, **keywords)
            best[i] = min(best[i], (time.thread_time() - began) / len(batch))
    return [us * 1e6 for us in best]


def print_table(title: str, table: dict, heads: list[str]) -> None:
    """A Markdown table: one row per (name, cells) item of ``table``, under ``title`` and ``heads``."""
    width = max(len(title), *map(len, table))
    cell = max(len(c) for c in [*heads, *(c for cells in table.values() for c in cells)])
    print(f"| {title:<{width}} | " + " | ".join(f"{head:<{cell}}" for head in heads) + " |")
    print(f"|-{'-' * width}-|" + "|".join("-" * (cell + 2) for _ in heads) + "|")
    for name, cells in table.items():
        print(f"| {name:<{width}} | " + " | ".join(f"{c:<{cell}}" for c in cells) + " |")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batches", type=int, default=60)
    parser.add_argument("--calls", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", type=Path, metavar="DIR", help="a second checkout to time in turn")
    args = parser.parse_args(argv)
    if args.batches < 1 or args.calls < 1:
        parser.error("--batches and --calls must be at least 1")
    if args.against is not None and not (args.against / "src" / "stratci" / "__init__.py").is_file():
        parser.error(f"no package at {args.against / 'src' / 'stratci'}")
    names = ["stratci"] + ([load_against(args.against.resolve())] if args.against is not None else [])
    rng = np.random.default_rng(args.seed)
    tables = {"mechanism": {}, "layer": {}}
    with warnings.catch_warnings():
        for name in names:
            warnings.simplefilter("ignore", importlib.import_module(name).RatioApproximationWarning)
        for H in STRATA:
            sizes = list(zip(rng.integers(1500, 2001, H).tolist(), rng.integers(60, 161, H).tolist()))
            counts = rng.binomial([n for _, n in sizes], 0.3).tolist()
            sides = [cases(name, H, sizes, counts, args.seed, args.batches, args.calls) for name in names]
            for key in sides[0]:
                table, row, _ = key
                mine, *theirs = (us / (LANES if row == "count block" else 1) for us in
                                 per_call_us([side[key] for side in sides], args.batches))
                tables[table].setdefault(row, []).append(f"{mine:.1f}" + "".join(f" [{us:.1f}]" for us in theirs))
    print_table("mechanism", tables["mechanism"], [f"H = {H} {kind}" for H in STRATA for kind in ("drawn", "fresh")])
    print()
    print_table("layer", tables["layer"], [f"H = {H}" for H in STRATA])


if __name__ == "__main__":
    main()
