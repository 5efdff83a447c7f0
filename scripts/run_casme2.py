#!/usr/bin/env python3
"""Leave-one-subject-out run on a CASME2-style dataset.

Expects the documented on-disk layout: an index CSV with header
`clip_id,path,subject,label` whose paths point at directories of grayscale
PGM (or PNG) frames, pre-cropped and aligned. Defaults follow the settings
published for 200 fps data: 6x1 blocks, mask W=9, radius R=3, and no
temporal normalization. The reported recognition rate depends on the
alignment preprocessing used to produce the frames. Failures print one
`error=<class>: <message>` line and exit as `mexp` does (2 config, 3 data,
4 numeric, 5 worker).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mexp import RunConfig, run_loso
from mexp.cli import ConfigArgumentParser, report_errors
from mexp.pipeline import emit_report


def block_grid(text):
    """An `MxN` block grid as (M, N)."""
    m, _, n = text.partition("x")
    try:
        return int(m), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not MxN, e.g. 6x1") from None


def main(argv=None) -> int:
    parser = ConfigArgumentParser(description=__doc__)
    parser.add_argument("--index", required=True, help="path to index.csv")
    parser.add_argument("--out", required=True, help="report output directory")
    parser.add_argument("--blocks", type=block_grid, default="6x1",
                        help="block grid, e.g. 6x1")
    parser.add_argument("--mask-w", type=int, default=9)
    parser.add_argument("--radius", type=int, default=3)
    parser.add_argument("--temporal", type=int, default=0,
                        help="temporal normalization length (0 = off)")
    parser.add_argument("--selection", action="store_true",
                        help="enable group selection with an automatic P sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache", default="", help="cache directory (optional)")
    args = parser.parse_args(argv)

    cfg = RunConfig(
        index=args.index,
        blocks_m=args.blocks[0],
        blocks_n=args.blocks[1],
        mask_w=args.mask_w,
        lbp_radius=args.radius,
        temporal_length=args.temporal,
        selection="on" if args.selection else "off",
        seed=args.seed,
        cache_dir=args.cache,
    )
    report = run_loso(cfg)
    emit_report(report, args.out)
    for c in report.classes:
        print(f"recall {report.class_names[c]}: {report.per_class_recall[c]:.4f}")
    print(f"confusion matrix and per-clip predictions written to {args.out}")
    print(f"accuracy={report.accuracy!r}")
    return 0


if __name__ == "__main__":
    sys.exit(report_errors(main))
