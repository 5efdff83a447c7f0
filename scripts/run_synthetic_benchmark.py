#!/usr/bin/env python3
"""Desk-scale benchmark on the synthetic micro-motion dataset.

Generates the seeded benchmark (3 classes, 6 subjects, 4 clips per subject
per class), then evaluates three pipeline variants under leave-one-subject-out
cross validation:

  STLBP-IIP      improved projections (sparse component), all groups
  DiSTLBP-IIP    group selection at an automatically swept P
  STLBP-OIP      original projections (raw intensities), all groups

Failures print one `error=<class>: <message>` line and exit as `mexp` does
(2 config, 3 data, 4 numeric).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mexp import RunConfig, SynthSpec, run_loso, synthesize_dataset
from mexp.cli import ConfigArgumentParser, report_errors


def main(argv=None) -> int:
    parser = ConfigArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="pipeline seed")
    parser.add_argument("--data-seed", type=int, default=7, help="generator seed")
    parser.add_argument("--subjects", type=int, default=6, help="at least 2")
    parser.add_argument("--cache", default="", help="cache directory (optional)")
    args = parser.parse_args(argv)
    if args.subjects < 2:  # before synthesis, which would run for nothing
        parser.error(
            f"--subjects {args.subjects}: leave-one-subject-out needs at least 2"
        )

    spec = SynthSpec(
        n_subjects=args.subjects,
        n_classes=3,
        clips_per_subject_per_class=4,
        seed=args.data_seed,
    )
    index, clips = synthesize_dataset(spec)
    print(f"dataset: {len(index.entries)} clips, "
          f"{len(index.subjects)} subjects, {len(index.labels)} classes")

    variants = [
        ("STLBP-IIP", RunConfig(selection="off", seed=args.seed, cache_dir=args.cache)),
        ("DiSTLBP-IIP", RunConfig(selection="on", selection_p=0, seed=args.seed,
                                  cache_dir=args.cache)),
        ("STLBP-OIP", RunConfig(selection="off", projection="original",
                                seed=args.seed, cache_dir=args.cache)),
    ]
    print(f"{'variant':<14} {'accuracy':>8} {'time':>7}  per-class recall")
    for name, cfg in variants:
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
