"""Command-line entry points and the feature file that `extract` writes.

Subcommands: synth, decompose, extract, select, train, loso, predict.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure,
5 a pool worker that died. Failures print a single machine-parsable line
`error=<class>: <message>`.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from . import classify, dataset, pipeline, selection
from .config import RunConfig, parse_config, parse_synth_spec
from .errors import ConfigError, DataError, NumericError

FEATURE_CACHE_FORMAT = "STLBP-IIP v1"


class ConfigArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that
    `report_errors` prints them as config errors."""

    def error(self, message):
        raise ConfigError(message)


def block_grid(text):
    """An `MxN` block grid as (M, N), the type of the scripts' grid flags."""
    m, _, n = text.partition("x")
    try:
        return int(m), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not MxN, e.g. 6x1") from None


def report_errors(run, argv=None) -> int:
    """The exit code of `run(argv)`. A mexp error, or an OSError, instead
    prints the one line `error=<class>: <message>` to stderr and returns the
    code of its class: 2 config, 3 data, 4 numeric, 5 worker (a pool worker
    that died, killed by a signal or the out-of-memory killer, say)."""
    try:
        return run(argv)
    except ConfigError as e:
        print(f"error=config: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error=data: {e}", file=sys.stderr)
        return 3
    except (NumericError, np.linalg.LinAlgError) as e:
        print(f"error=numeric: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error=data: {e}", file=sys.stderr)
        return 3
    except BrokenExecutor as e:
        print(f"error=worker: {e}", file=sys.stderr)
        return 5


def _build_parser() -> ConfigArgumentParser:
    parser = ConfigArgumentParser(prog="mexp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True, help="synthesis config file")
    p_synth.add_argument("--out", required=True, help="output dataset directory")
    p_synth.add_argument("--seed", type=int, default=None)

    for name, helptext in (
        ("decompose", "run the low-rank/sparse decomposition for every clip"),
        ("extract", "compute and dump clip descriptors"),
        ("select", "compute per-class-pair group selection"),
        ("train", "train a model on the whole dataset"),
        ("loso", "leave-one-subject-out evaluation"),
        ("predict", "predict labels for clip directories"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument(
            "--out",
            required=name in ("extract", "select", "train"),
            help="output file or directory",
        )
        p.add_argument("--seed", type=int, default=None)
        choice = p.add_mutually_exclusive_group()
        choice.add_argument("--no-selection", action="store_true")
        choice.add_argument("--p", type=int, default=None, help="selected group count")
        p.add_argument(
            "--original-projection",
            action="store_true",
            help="encode raw intensity frames instead of the sparse parts",
        )
        if name == "predict":
            p.add_argument("--model", required=True)
            p.add_argument("--clip", action="append", required=True)
    return parser


def _resolved_config(args) -> RunConfig:
    cfg = parse_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.no_selection:
        updates["selection"] = "off"
    if args.p is not None:
        updates["selection"] = "on"
        updates["selection_p"] = args.p
    if args.original_projection:
        updates["projection"] = "original"
    return dataclasses.replace(cfg, **updates)


# ---------------------------------------------------------------------------
# Feature file


def write_feature_cache(path, clip_ids, H, recipe):
    """Export descriptor rows H, one per clip id, as text: a format and
    fingerprint header, then one `clip_id,group_index,plane,bins...` row per
    group of the `DescriptorConfig` `recipe`'s layout. Nothing reads it back."""
    layout = recipe.layout
    lines = [f"{FEATURE_CACHE_FORMAT} {recipe.fingerprint()}"]
    for clip_id, row in zip(clip_ids, H):
        for r, plane in enumerate(layout.planes):
            group = row[layout.offsets[r] : layout.offsets[r + 1]]
            bins = ",".join(repr(float(v)) for v in group)
            lines.append(f"{clip_id},{r},{plane},{bins}")
    with dataset.atomic_write(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args) -> int:
    spec = parse_synth_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    index, clips = dataset.synthesize_dataset(spec)
    index_path = dataset.write_dataset(index, clips, args.out)
    print(f"index={index_path}")
    return 0


def _cmd_decompose(args) -> int:
    cfg = _resolved_config(args)
    index, clips = pipeline.load(cfg)
    n_converged = n_iterations = 0
    names = ("low_rank.csv", "sparse.csv") if args.out else ()
    with contextlib.ExitStack() as stack:
        # each clip's rows are written as it is solved; both files replace
        # the previous ones only after the last clip
        files = [
            stack.enter_context(
                dataset.atomic_write(Path(args.out, name), "w", encoding="utf-8")
            )
            for name in names
        ]
        for f in files:
            f.write(f"RPCA v1 {cfg.descriptor.rpca.fingerprint()}\n")
        for entry in index.entries:
            dec = pipeline.compute_decomposition(clips[entry.clip_id], cfg)
            n_converged += dec.converged
            n_iterations += dec.iterations
            for f, mat in zip(files, (dec.low_rank, dec.sparse)):
                for t, col in enumerate(mat.T.tolist()):
                    f.write(f"{entry.clip_id},{t},{','.join(map(repr, col))}\n")
    print(
        f"decomposed={len(index.entries)} converged={n_converged} "
        f"iterations={n_iterations}"
    )
    return 0


def _cmd_extract(args) -> int:
    cfg = _resolved_config(args)
    index, clips = pipeline.load(cfg)
    H, hits = pipeline.compute_descriptors(cfg, index, clips)
    write_feature_cache(args.out, [e.clip_id for e in index.entries], H, cfg.descriptor)
    print(f"cache_hits={hits}/{len(H)}")
    print(f"features={args.out}")
    return 0


def _cmd_select(args) -> int:
    cfg = _resolved_config(args)
    _, _, labels, distances = pipeline.prepare(cfg)
    pipeline.all_groups_sum(cfg, distances)  # a damaged `dist/` entry is a data error
    p = cfg.selection_p or cfg.n_groups
    doc = {
        "fingerprint": cfg.fingerprint(),
        "p": p,
        "pairs": [
            {
                "class_a": ps.class_a,
                "class_b": ps.class_b,
                "n_pairs": ps.n_pairs,
                "scores": [float(s) if np.isfinite(s) else None for s in ps.scores],
                "selected": [int(i) for i in ps.ranking[:p]],
            }
            for ps in selection.fit_selection(distances, labels).values()
        ],
    }
    with dataset.atomic_write(args.out, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"selection={args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolved_config(args)
    model = pipeline.train_full(cfg)
    classify.save_model(model, args.out)
    print(f"model={args.out}")
    return 0


def _cmd_loso(args) -> int:
    cfg = _resolved_config(args)
    report = pipeline.run_loso(cfg)
    if args.out:
        pipeline.emit_report(report, args.out)
    for key, value in report.metadata.items():
        print(f"{key}={value}")
    print(f"accuracy={report.accuracy!r}")
    return 0


def _cmd_predict(args) -> int:
    cfg = _resolved_config(args)
    model = classify.load_model(args.model)
    if model.fingerprint != cfg.fingerprint():
        raise DataError(
            f"model fingerprint {model.fingerprint} does not match config "
            f"fingerprint {cfg.fingerprint()}"
        )
    clips = []
    for d in args.clip:  # each named by its directory, "." included
        name = os.path.basename(os.path.abspath(d))
        clips.append(dataset.load_clip(d, dataset.IndexEntry(name, ".", "unknown", -1)))
    H, _ = pipeline.batch_descriptors(cfg, clips)
    labels = model.predict(H, cfg.descriptor)  # all clips or, on an error, none
    print("clip_id,predicted")
    for clip, label in zip(clips, labels):
        print(f"{clip.clip_id},{label}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "decompose": _cmd_decompose,
    "extract": _cmd_extract,
    "select": _cmd_select,
    "train": _cmd_train,
    "loso": _cmd_loso,
    "predict": _cmd_predict,
}


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    return report_errors(_run, argv)


if __name__ == "__main__":
    sys.exit(main())
