#!/usr/bin/env python3
"""Desk-scale benchmark on the synthetic micro-motion dataset.

Generates the seeded benchmark (3 classes, 6 subjects, 4 clips per subject
per class), then evaluates three pipeline variants under leave-one-subject-out
cross validation:

  STLBP-IIP      improved projections (sparse component), all groups
  DiSTLBP-IIP    group selection at an automatically swept P
  STLBP-OIP      original projections (raw intensities), all groups

With --spec, --grid or --seeds it prints the regime table instead: the
three variants on each data seed of a range (of the spec file's generator
settings, or of the built-in ones), at one block grid, as clips correct;
their means; how often DiS >= IIP >= OIP, DiS > IIP and IIP > OIP hold; and
an exact two-sided sign test of each strict comparison over the seeds.

Failures print one `error=<class>: <message>` line and exit as `mexp` does
(2 config, 3 data, 4 numeric, 5 worker).
"""

import argparse
import dataclasses
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mexp import RunConfig, SynthSpec, parse_synth_spec, run_loso, synthesize_dataset
from mexp.cli import ConfigArgumentParser, block_grid, report_errors

# the three variants by regime-table column: (name, RunConfig overrides)
TABLE_VARIANTS = {
    "IIP": ("STLBP-IIP", dict(selection="off")),
    "DiS": ("DiSTLBP-IIP", dict(selection="on", selection_p=0)),
    "OIP": ("STLBP-OIP", dict(selection="off", projection="original")),
}


def seed_range(text):
    """Data seeds `A-B` as the list A..B."""
    a, _, b = text.partition("-")
    try:
        lo, hi = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not A-B, e.g. 1-10") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"{text!r}: need 0 <= A <= B")
    return list(range(lo, hi + 1))


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign test: the chance that wins + losses fair coin
    flips split at least this unevenly (ties are left out beforehand)."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(max(wins, losses), n + 1))
    return min(1.0, 2 * tail / 2**n)


def _held(seeds, holds) -> str:
    """`k/n seeds`, and the seeds where it fails."""
    failed = [str(s) for s, ok in zip(seeds, holds) if not ok]
    tail = f" (not {'seeds' if len(failed) > 1 else 'seed'} {', '.join(failed)})"
    return f"{sum(holds)}/{len(seeds)} seeds" + (tail if failed else "")


def regime_table(spec, grid, seeds, pipeline_seed, cache) -> None:
    m, n = grid
    configs = [  # built first, so a bad grid prints nothing but its error
        RunConfig(blocks_m=m, blocks_n=n, seed=pipeline_seed, cache_dir=cache,
                  **overrides)
        for _, overrides in TABLE_VARIANTS.values()
    ]
    print(f"spec: {spec.n_subjects} subjects x {spec.n_classes} classes x "
          f"{spec.clips_per_subject_per_class} clips, grid {m}x{n}, "
          f"pipeline seed {pipeline_seed}")
    print(f"{'seed':>6}" + "".join(f"{name:>8}" for name in TABLE_VARIANTS))
    correct = []  # per seed, clips correct per variant
    for seed in seeds:
        index, clips = synthesize_dataset(dataclasses.replace(spec, seed=seed))
        row = []
        for cfg in configs:
            report = run_loso(cfg, index, clips)
            row.append(int(np.trace(report.confusion)))
        total = report.total
        correct.append(row)
        print(f"{seed:>6}" + "".join(f"{f'{k}/{total}':>8}" for k in row))
    sums = np.sum(correct, axis=0)
    print(f"{'mean':>6}" + "".join(f"{k / (total * len(seeds)):>8.4f}" for k in sums))
    iip, dis, oip = np.array(correct).T
    print(f"DiS >= IIP >= OIP: {_held(seeds, (dis >= iip) & (iip >= oip))}")
    for name, a, b in (("DiS > IIP", dis, iip), ("IIP > OIP", iip, oip)):
        wins, losses = int(np.sum(a > b)), int(np.sum(a < b))
        print(f"{name}: {_held(seeds, a > b)}; {wins} won, {losses} lost, "
              f"{len(seeds) - wins - losses} tied; "
              f"sign test p = {sign_test(wins, losses):.4g}")


def main(argv=None) -> int:
    parser = ConfigArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="pipeline seed")
    parser.add_argument("--data-seed", type=int, help="generator seed (default 7)")
    parser.add_argument("--subjects", type=int, help="at least 2 (default 6)")
    parser.add_argument("--cache", default="", help="cache directory (optional)")
    parser.add_argument("--spec", help="synthesis spec file, as for `mexp synth --spec`")
    parser.add_argument("--grid", type=block_grid, help="block grid MxN (default 7x3)")
    parser.add_argument("--seeds", type=seed_range, help="data seeds A-B")
    args = parser.parse_args(argv)
    if args.spec is not None and (args.subjects, args.data_seed) != (None, None):
        parser.error("--subjects and --data-seed set the built-in spec; "
                     "with --spec, set them in the spec file")
    if args.seeds is not None and args.data_seed is not None:
        parser.error("give --seeds or --data-seed, not both")
    subjects = 6 if args.subjects is None else args.subjects
    if subjects < 2:  # before synthesis, which would run for nothing
        parser.error(f"--subjects {subjects}: leave-one-subject-out needs at least 2")

    if args.spec is not None:
        spec = parse_synth_spec(args.spec)
    else:
        spec = SynthSpec(
            n_subjects=subjects,
            n_classes=3,
            clips_per_subject_per_class=4,
            seed=7 if args.data_seed is None else args.data_seed,
        )
    if (args.spec, args.grid, args.seeds) != (None, None, None):
        grid = args.grid or (RunConfig.blocks_m, RunConfig.blocks_n)
        # IIP and DiS share their descriptors through a cache
        with tempfile.TemporaryDirectory() as tmp:
            regime_table(spec, grid, args.seeds or [spec.seed], args.seed,
                         args.cache or tmp)
        return 0

    index, clips = synthesize_dataset(spec)
    print(f"dataset: {len(index.entries)} clips, "
          f"{len(index.subjects)} subjects, {len(index.labels)} classes")

    print(f"{'variant':<14} {'accuracy':>8} {'time':>7}  per-class recall")
    for name, overrides in TABLE_VARIANTS.values():
        cfg = RunConfig(seed=args.seed, cache_dir=args.cache, **overrides)
        started = time.time()
        report = run_loso(cfg, index, clips)
        elapsed = time.time() - started
        recall = " ".join(
            f"{report.class_names[c]}={report.per_class_recall[c]:.2f}"
            for c in report.classes
        )
        print(f"{name:<14} {report.accuracy:>8.4f} {elapsed:>6.1f}s  {recall}")
        if name == "DiSTLBP-IIP":
            print(f"{'':<14} selected P per fold: "
                  f"{[f.selected_p for f in report.folds]}")
    return 0


if __name__ == "__main__":
    sys.exit(report_errors(main))
