"""Time one private release per call, per mechanism, at H = 1 and H = 20 strata.

    PYTHONPATH=src python3 tools/release_costs.py [--batches 60] [--calls 50] [--seed 1]

At each H it builds one design, N_h drawn from [1500, 2000] and n_h from
[60, 160], and one sample of counts at proportion 0.3.  Each mechanism then
releases ``--calls`` times per batch through ``dp_ci.release``, with
``clip_proportions`` on, at rho = 1/160 split evenly, from a new stream on
every call.  "drawn" streams carry their normals, as ``run_experiment``
gives them; "fresh" streams draw theirs stream by stream, as ``stratci ci``
and the library do.  One untimed release per mechanism comes first, so the
figures are those of a design already in use.  A batch is timed by
``time.thread_time``; each figure is the smallest time per call over the
batches, in microseconds, printed as a Markdown table.  It needs numpy and
stratci only.
"""

from __future__ import annotations

import argparse
import time
import warnings

import numpy as np

from stratci import PrivacyBudget, RatioApproximationWarning, StratumCounts, build_design, derive_stream
from stratci.dp_ci import MECHANISMS, release
from stratci.randomness import _drawn_streams

STRATA = (1, 20)
BUDGET = PrivacyBudget.total(1.0 / 160.0)


def per_call_us(tag, design, counts, streams, calls: int) -> float:
    """The smallest time per call over batches of ``calls`` releases, one stream each, in microseconds."""
    release(tag, streams[0], design, counts, BUDGET, 0.1, clip_proportions=True)
    best = float("inf")
    for start in range(0, len(streams), calls):
        batch = streams[start:start + calls]
        began = time.thread_time()
        for stream in batch:
            release(tag, stream, design, counts, BUDGET, 0.1, clip_proportions=True)
        best = min(best, (time.thread_time() - began) / len(batch))
    return best * 1e6


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batches", type=int, default=60)
    parser.add_argument("--calls", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.batches < 1 or args.calls < 1:
        parser.error("--batches and --calls must be at least 1")
    total = args.batches * args.calls
    rng = np.random.default_rng(args.seed)
    table = {tag: [] for tag in MECHANISMS}
    for H in STRATA:
        sizes = list(zip(rng.integers(1500, 2001, H).tolist(), rng.integers(60, 161, H).tolist()))
        design = build_design(sizes)
        counts = StratumCounts(tuple(rng.binomial([n for _, n in sizes], 0.3).tolist()))
        for tag, row in MECHANISMS.items():
            ids = np.arange(total, dtype=np.uint64)
            drawn = list(_drawn_streams(args.seed, [(ids, *row.noise_shape(H))])[0])
            fresh = [derive_stream(args.seed, [H, i]) for i in range(total)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RatioApproximationWarning)
                table[tag] += [per_call_us(tag, design, counts, streams, args.calls) for streams in (drawn, fresh)]
    heads = [f"H = {H} {kind}" for H in STRATA for kind in ("drawn", "fresh")]
    print("| mechanism | " + " | ".join(heads) + " |")
    print("|-----------|" + "|".join("-" * (len(head) + 2) for head in heads) + "|")
    for tag, cells in table.items():
        print(f"| {tag.value:<9} | " + " | ".join(f"{us:<{len(head)}.1f}" for us, head in zip(cells, heads)) + " |")


if __name__ == "__main__":
    main()
