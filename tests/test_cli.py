import copy
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_KWARGS, use_solver_cpus
from mexp import classify, cli, dataset, pipeline, rpca
from mexp.config import (
    RunConfig,
    config_items,
    format_config,
    parse_config,
    parse_config_text,
    parse_synth_spec,
)
from mexp.dataset import load_dataset
from mexp.descriptor import DescriptorConfig, GroupLayout
from mexp.errors import ConfigError, DataError, NumericError

SYNTH_SPEC_TEXT = """\
n_subjects = 3
n_classes = 2
clips_per_subject_per_class = 2
width = 32
height = 32
min_frames = 6
max_frames = 8
noise_amplitude = 1.0
motion_amplitude = 40.0
seed = 13
"""


def tiny_config_text(index_path, **extra):
    lines = [f"index = {index_path}"]
    for key, value in TINY_KWARGS.items():
        if key == "c_grid":
            value = ",".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    spec_path = root / "synth.cfg"
    spec_path.write_text(SYNTH_SPEC_TEXT)
    out_dir = root / "data"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out_dir)]) == 0
    return root, out_dir


@pytest.fixture(scope="module")
def trained_model(synth_dir):
    """A run config and the JSON document of the model trained with it."""
    root, out_dir = synth_dir
    cfg = root / "train.cfg"
    cfg.write_text(tiny_config_text(out_dir / "index.csv"))
    model = root / "model.json"
    assert cli.main(["train", "--config", str(cfg), "--out", str(model)]) == 0
    return cfg, json.loads(model.read_text())


DAMAGE = (
    "drop key", "retype", "retype element", "non-finite", "negative bin", "ragged",
    "unknown pair",
)
OTHER_TYPES = ("text", None, True, 0.5, 3, [], [1.0], [[0.5]], {}, {"a": 1})
# array elements that are no JSON number (selected groups also refuse 0.0 and 1.5)
OTHER_ELEMENTS = (True, False, "0.25", "1", None, [0.5], {})


def json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, int) else type(value)


def with_selected_groups(doc, groups):
    """The model document with its one machine selecting the groups that
    the JSON values `groups` name, 0 and 1 when read as integers, and its
    support vectors cut to the bins of those groups."""
    width = int(RunConfig(**TINY_KWARGS).descriptor.layout.offsets[2])
    (machine,) = doc["machines"]
    return json.dumps({**doc, "machines": [{
        **machine,
        "selected_groups": groups,
        "support_vectors": [row[:width] for row in machine["support_vectors"]],
    }]})


def predict_args(cfg, model, clip_dirs):
    return [
        "predict", "--config", str(cfg), "--model", str(model),
        *(arg for clip_dir in clip_dirs for arg in ("--clip", str(clip_dir))),
    ]


def saved_without_metadata(model, path):
    """A model's file text with its metadata, which nothing reads back,
    left out."""
    classify.save_model(dataclasses.replace(model, metadata={}), path)
    return path.read_text()


def run_predict(cfg, model, out_dir):
    """Exit code, standard output and standard error lines of `mexp predict`
    on the first synthesized clip."""
    clip_dir = sorted((out_dir / "clips").iterdir())[0]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([
            "predict", "--config", str(cfg), "--model", str(model),
            "--clip", str(clip_dir),
        ])
    return code, out.getvalue(), err.getvalue().strip().splitlines()


class TestParseConfig:
    def test_minimal_config_resolves_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("index = data/index.csv\n")
        cfg = parse_config(path)
        assert (cfg.blocks_m, cfg.blocks_n) == (7, 3)
        assert cfg.mask_w == 9 and cfg.lbp_radius == 3 and cfg.lbp_samples == 8
        assert cfg.temporal_length == 25
        assert cfg.selection == "off"
        assert cfg.projection == "improved"

    def test_even_mask_rejected(self):
        with pytest.raises(ConfigError, match="mask_w"):
            parse_config_text("index = x\nmask_w = 4\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_config_text("index = x\nmystery = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("index = x\nindex = y\n")

    def test_value_parse_error_names_key(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("index = x\nseed = soon\n")

    def test_round_trip(self):
        cfg = RunConfig(
            index="d/index.csv", mask_w=7, temporal_length=0, selection="on",
            selection_p=4, gamma=0.75, c_grid=(0.5, 2.0), rpca_weight=0.02,
        )
        assert parse_config_text(format_config(cfg)) == cfg

    def test_round_trip_defaults(self):
        cfg = RunConfig(index="i.csv")
        assert parse_config_text(format_config(cfg)) == cfg

    def test_defaults_are_the_recipe_defaults(self):
        assert RunConfig().descriptor == DescriptorConfig()

    def test_format_joins_the_config_items(self):
        cfg = RunConfig(index="i.csv", gamma=0.5, rpca_weight=None)
        items = config_items(cfg)
        assert [key for key, _ in items] == [f.name for f in dataclasses.fields(cfg)]
        assert ("gamma", "0.5") in items and ("rpca_weight", "auto") in items
        assert format_config(cfg) == "".join(f"{k} = {v}\n" for k, v in items)

    def test_fingerprint_covers_rpca_settings_for_improved_projections(self):
        base = RunConfig()
        for change in (
            dict(rpca_weight=0.01), dict(rpca_tol=1e-3), dict(rpca_max_iter=5),
            dict(rpca_mu0_scale=2.0), dict(rpca_rho=1.5),
        ):
            assert RunConfig(**change).fingerprint() != base.fingerprint()
            original = RunConfig(projection="original")
            assert (
                RunConfig(projection="original", **change).fingerprint()
                == original.fingerprint()
                == original.descriptor.fingerprint()
            )

    def test_selection_p_bound(self):
        with pytest.raises(ConfigError, match="selection_p"):
            parse_config_text("index = x\nselection_p = 999\n")

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(selection="bogus"), "selection must be"),
            (dict(selection_p=-1), "selection_p must be >= 0"),
            (dict(selection_p=85), "exceeds the 84 groups"),
            (dict(c_grid=()), "c_grid"),
            (dict(c_grid=(1.0, 0.0)), "c_grid"),
            (dict(gamma=-0.5), "gamma"),
            (dict(seed=-3), "seed"),
            (dict(mask_w=4), "mask_w"),
            (dict(rpca_rho=0.5), "^rpca settings: rho must exceed 1"),
        ],
    )
    def test_run_config_checked_when_built(self, bad, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig(**bad)
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(RunConfig(index="i.csv"), **bad)


class TestParseSynthSpec:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(SYNTH_SPEC_TEXT)
        spec = parse_synth_spec(path)
        assert spec.n_subjects == 3 and spec.motion_amplitude == 40.0

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("wat = 1\n")
        with pytest.raises(ConfigError, match="wat"):
            parse_synth_spec(path)

    def test_invariant_violation(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("noise_amplitude = 9.0\nmotion_amplitude = 2.0\n")
        with pytest.raises(ConfigError):
            parse_synth_spec(path)


class TestByteOrderMark:
    """A run config and a synthesis spec saved as UTF-8 with a byte-order
    mark parse exactly as they do without one."""

    @pytest.mark.parametrize(
        "text, parse",
        [("index = data/index.csv\nselection = on\nseed = 3\n", parse_config),
         (SYNTH_SPEC_TEXT, parse_synth_spec)],
        ids=["config", "synthesis spec"],
    )
    def test_parsed_as_without(self, tmp_path, text, parse):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert parse(marked) == parse(plain)

class TestFeatureCache:
    def test_round_trip_exact(self, tmp_path):
        layout = GroupLayout(("XYH", "XT"), np.array([0, 2, 4]))
        recipe = types.SimpleNamespace(layout=layout, fingerprint=lambda: "fp42")
        bins = {"a": [0.1, 0.9, 1 / 3, 2 / 3], "b": [1.0, 0.0, 0.0, 1.0]}
        H = np.array(list(bins.values()))
        path = tmp_path / "features.csv"
        cli.write_feature_cache(path, list(bins), H, recipe)
        assert path.read_text(encoding="utf-8") == (
            "STLBP-IIP v1 fp42\n"
            "a,0,XYH,0.1,0.9\n"
            "a,1,XT,0.3333333333333333,0.6666666666666666\n"
            "b,0,XYH,1.0,0.0\n"
            "b,1,XT,0.0,1.0\n"
        )
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        for clip_id, row in zip(bins, H):  # every bin as its shortest exact repr
            mine = [r.split(",")[3:] for r in rows if r.startswith(f"{clip_id},")]
            assert [float(b) for cells in mine for b in cells] == row.tolist()


class TestMainExitCodes:
    def test_missing_dataset_path_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mask_w = 9\n")
        code = cli.main(["loso", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error=config")

    def test_nonexistent_index_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("index = nowhere/index.csv\n")
        code = cli.main(["loso", "--config", str(cfg)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error=data")

    def test_synth_over_an_existing_dataset_is_data_error(self, synth_dir, capsys):
        root, out_dir = synth_dir
        before = {f: f.read_bytes() for f in out_dir.rglob("*") if f.is_file()}
        code = cli.main([
            "synth", "--spec", str(root / "synth.cfg"), "--out", str(out_dir),
            "--seed", "4",
        ])
        [line] = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert line.startswith("error=data: clip directory ") and "already exists" in line
        assert {f: f.read_bytes() for f in out_dir.rglob("*") if f.is_file()} == before

    def test_unknown_flag_is_config_error(self, capsys):
        assert cli.main(["loso", "--frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("error=config")

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("index = x\nmask_w = 4\n")
        assert cli.main(["extract", "--config", str(cfg), "--out", "f.csv"]) == 2


    @pytest.mark.parametrize(
        "line",
        [
            "gamma = nan",
            "rpca_tol = nan",
            "c_grid = 1,nan",
            "rpca_rho = inf",
            "rpca_mu0_scale = nan",
            "rpca_weight = nan",
        ],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"index = x\n{line}\n")
        code = cli.main(["loso", "--config", str(cfg)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error=config:")
        assert line.split(" = ")[0] in err[0]

    @pytest.mark.parametrize("samples", [17, 40, 63, 70])
    def test_lbp_samples_above_limit_is_config_error(self, tmp_path, capsys, samples):
        # unbounded, 40 asked for an 8 TiB histogram and 63 overflowed the
        # group layout
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"index = x\nprojection = original\nlbp_samples = {samples}\n")
        out = tmp_path / "f.csv"
        code = cli.main(["extract", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error=config:")
        assert "lbp_samples" in err[0] and "16" in err[0]

    @pytest.mark.parametrize("where", ["spec", "flag"])
    def test_negative_synth_seed_is_config_error(self, tmp_path, capsys, where):
        spec = tmp_path / "synth.cfg"
        out = tmp_path / "out"
        argv = ["synth", "--spec", str(spec), "--out", str(out)]
        if where == "spec":
            spec.write_text(SYNTH_SPEC_TEXT.replace("seed = 13", "seed = -1"))
        else:
            spec.write_text(SYNTH_SPEC_TEXT)
            argv += ["--seed", "-3"]
        code = cli.main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error=config:")
        assert "seed must be >= 0" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "select", "train"])
    def test_missing_out_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(tmp_path / "index.csv"))
        code = cli.main([command, "--config", str(cfg)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error=config:")
        assert "--out" in err[0]

    @pytest.mark.parametrize("kind", ["config", "spec", "index", "manifest"])
    def test_non_utf8_file(self, synth_dir, tmp_path, capsys, kind):
        # config and spec are config errors, dataset files data errors
        _, out_dir = synth_dir
        data = tmp_path / "data"
        shutil.copytree(out_dir, data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(data / "index.csv"))
        argv = ["extract", "--config", str(cfg), "--out", str(tmp_path / "f.csv")]
        if kind == "config":
            cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
        elif kind == "spec":
            spec = tmp_path / "synth.cfg"
            spec.write_bytes(SYNTH_SPEC_TEXT.encode() + b"# \xff\n")
            argv = ["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]
        elif kind == "index":
            index = data / "index.csv"
            index.write_bytes(index.read_bytes() + b"c\xff,clips/x,s1,0\n")
        else:
            clip = sorted((data / "clips").iterdir())[0]
            (clip / "frames.txt").write_bytes(b"frame_0000.pgm\n\xff\n")
        code = cli.main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        want = "config" if kind in ("config", "spec") else "data"
        assert code == {"config": 2, "data": 3}[want]
        assert len(err) == 1 and err[0].startswith(f"error={want}:")

    def test_block_grid_checked_before_cache_key(self, synth_dir, tmp_path, capsys):
        # the cache key's layout would hold 4 * 10^10 * 2 plane names
        _, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        text = tiny_config_text(out_dir / "index.csv", cache_dir=tmp_path / "cache")
        cfg.write_text(text.replace("blocks_m = 2", "blocks_m = 10000000000"))
        code = cli.main(["extract", "--config", str(cfg), "--out", str(tmp_path / "f")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error=config:")
        assert "blocks" in err[0]

    @pytest.mark.parametrize(
        "flags", [["--no-selection", "--p", "4"], ["--p", "4", "--no-selection"]]
    )
    def test_no_selection_with_p_is_config_error(
        self, synth_dir, tmp_path, capsys, flags
    ):
        # --p once turned selection back on after --no-selection turned it off
        _, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv", selection="off"))
        code = cli.main(["loso", "--config", str(cfg), *flags])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2 and captured.out == ""
        assert len(err) == 1 and err[0].startswith("error=config:")
        assert "--no-selection" in err[0] and "--p" in err[0]

    def test_jobs_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("index = x\njobs = 2\n")
        assert cli.main(["loso", "--config", str(cfg)]) == 2
        assert "unknown key 'jobs'" in capsys.readouterr().err


FUZZ_SPEC_TEXT = SYNTH_SPEC_TEXT.replace("n_subjects = 3", "n_subjects = 2").replace(
    "clips_per_subject_per_class = 2", "clips_per_subject_per_class = 1"
)
FUZZ_TARGETS = ("config", "spec", "index", "frame", "manifest", "desc")


@pytest.fixture(scope="module")
def fuzz_tree(tmp_path_factory):
    """Four synthesized clips, one listed by a frame manifest, with a warm
    descriptor cache under `cache`."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "synth.cfg").write_text(FUZZ_SPEC_TEXT)
    spec = parse_synth_spec(root / "synth.cfg")
    dataset.write_dataset(*dataset.synthesize_dataset(spec), root / "data")
    clip = sorted((root / "data" / "clips").iterdir())[0]
    names = sorted(f.name for f in clip.iterdir())
    (clip / "frames.txt").write_text("\n".join(names) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MEXP_CACHE_DIR", str(root / "cache"))
        assert run_quietly(fuzz_command(root, "desc"))[0] == 0
    return root


def fuzz_command(tree, target):
    """Write the tree's run config and return the command that reads
    `target`: `synth` for the spec, `extract` for the rest. The cache is
    named by MEXP_CACHE_DIR, not the config, so that no damage to the
    config can point a write outside the tree."""
    (tree / "run.cfg").write_text(tiny_config_text(tree / "data" / "index.csv"))
    if target == "spec":
        return ["synth", "--spec", str(tree / "synth.cfg"), "--out", str(tree / "out")]
    return ["extract", "--config", str(tree / "run.cfg"), "--out", str(tree / "f")]


def fuzz_target_file(tree, target):
    if target in ("config", "spec"):
        return tree / {"config": "run.cfg", "spec": "synth.cfg"}[target]
    if target == "index":
        return tree / "data" / "index.csv"
    if target == "desc":
        return sorted((tree / "cache" / "desc").iterdir())[0]
    clip = sorted((tree / "data" / "clips").iterdir())[0]
    return clip / ("frames.txt" if target == "manifest" else "frame_0000.pgm")


def damaged(data: bytes, damage, where, byte) -> bytes:
    """data truncated, with one byte xor-ed with `byte`, or with two
    non-UTF-8 bytes spliced in, at fraction `where` of its length."""
    at = min(int(where * len(data)), max(len(data) - 1, 0))
    if damage == "truncate":
        return data[:at]
    if damage == "flip":
        return data[:at] + bytes([data[at] ^ byte]) + data[at + 1 :]
    return data[:at] + bytes([byte | 0x80, 0xFF]) + data[at:]


# the warnings mexp documents: a thin class, RPCA or SMO stopping at its cap
MEXP_WARNINGS = (
    "leave-one-subject-out results will not be meaningful",
    "RPCA did not converge",
    "SMO stopped at the update cap",
)


def run_quietly(argv):
    """Exit code and standard error lines of `cli.main(argv)`, which must
    issue no warning but those mexp documents."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    for w in caught:
        assert any(known in str(w.message) for known in MEXP_WARNINGS), w
    return code, err.getvalue().splitlines()


@given(
    target=st.sampled_from(FUZZ_TARGETS),
    damage=st.sampled_from(("truncate", "flip", "splice")),
    where=st.floats(0.0, 1.0),
    byte=st.integers(1, 0xFF),
)
@settings(max_examples=60, deadline=None)
def test_corrupted_input_gives_one_error_line(fuzz_tree, target, damage, where, byte):
    """A truncated file, a flipped byte or spliced non-UTF-8 bytes in any
    file a command reads: exit 0, 2, 3 or 4 with at most one `error=` line,
    never an exception."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tree = Path(tmp) / "tree"
        shutil.copytree(fuzz_tree, tree)
        mp.setenv("MEXP_CACHE_DIR", str(tree / "cache"))
        argv = fuzz_command(tree, target)
        path = fuzz_target_file(tree, target)
        path.write_bytes(damaged(path.read_bytes(), damage, where, byte))
        code, err = run_quietly(argv)
    assert code in (0, 2, 3, 4)
    assert sum(line.startswith("error=") for line in err) <= 1


class TestEndToEnd:
    def test_synth_writes_layout(self, synth_dir):
        root, out_dir = synth_dir
        assert (out_dir / "index.csv").is_file()
        clip_dirs = sorted((out_dir / "clips").iterdir())
        assert len(clip_dirs) == 12
        assert any(f.suffix == ".pgm" for f in clip_dirs[0].iterdir())

    def test_loso_prints_accuracy_last(self, synth_dir, tmp_path, capsys):
        root, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        code = cli.main(
            ["loso", "--config", str(cfg), "--out", str(tmp_path / "report")]
        )
        out = capsys.readouterr().out
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert last.startswith("accuracy=")
        float(last.split("=", 1)[1])
        assert (tmp_path / "report" / "confusion.csv").is_file()
        assert "decision.pair_enumeration=" in out

    def test_loso_completes_with_a_class_of_one_subject(
        self, single_subject_class, tmp_path, capsys
    ):
        index_path = dataset.write_dataset(*single_subject_class, tmp_path / "data")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(index_path))
        with pytest.warns(UserWarning, match="from 1 subject"):
            code = cli.main(
                ["loso", "--config", str(cfg), "--out", str(tmp_path / "report")]
            )
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("accuracy=")

    def test_extract_warm_cache_identical(self, synth_dir, tmp_path, capsys):
        root, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            tiny_config_text(out_dir / "index.csv", cache_dir=tmp_path / "cache")
        )
        features = tmp_path / "features.csv"
        assert cli.main(["extract", "--config", str(cfg), "--out", str(features)]) == 0
        first_out = capsys.readouterr().out
        first_hash = hashlib.sha256(features.read_bytes()).hexdigest()
        assert "cache_hits=0/12" in first_out
        assert cli.main(["extract", "--config", str(cfg), "--out", str(features)]) == 0
        second_out = capsys.readouterr().out
        assert "cache_hits=12/12" in second_out
        assert hashlib.sha256(features.read_bytes()).hexdigest() == first_hash

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_extract_reads_a_duplicate_clip_as_a_hit(
        self, synth_dir, tmp_path, capsys, monkeypatch, cpus
    ):
        use_solver_cpus(monkeypatch, cpus)
        _, out_dir = synth_dir
        data = tmp_path / "data"
        shutil.copytree(out_dir, data)
        first_row = (data / "index.csv").read_text().splitlines()[1]
        clip_id, path, subject, label = first_row.split(",")
        shutil.copytree(data / path, data / "clips" / "twin")
        with open(data / "index.csv", "a") as f:
            f.write(f"twin,clips/twin,{subject},{label}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(data / "index.csv", cache_dir=tmp_path / "cache"))
        features = tmp_path / "features.csv"
        assert cli.main(["extract", "--config", str(cfg), "--out", str(features)]) == 0
        assert "cache_hits=1/13" in capsys.readouterr().out.splitlines()
        rows = features.read_text().splitlines()[1:]
        assert [r.split(",", 1)[1] for r in rows if r.startswith("twin,")] == [
            r.split(",", 1)[1] for r in rows if r.startswith(f"{clip_id},")
        ]

    def test_worker_failure_is_one_numeric_error_line(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        use_solver_cpus(monkeypatch, 2)
        _, out_dir = synth_dir
        parent = os.getpid()

        def fail_in_a_worker(frames, cfg):  # forked workers inherit the patch
            if os.getpid() != parent:
                raise NumericError("RPCA failed in a worker")
            raise AssertionError("a miss was solved in the parent")

        monkeypatch.setattr(rpca, "decompose_clip", fail_in_a_worker)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        capsys.readouterr()
        assert cli.main(["loso", "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error=numeric: RPCA failed in a worker"]
        assert captured.out == ""

    def test_fold_error_in_a_worker_is_one_data_error_line(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        use_solver_cpus(monkeypatch, 2)
        _, out_dir = synth_dir
        parent, fit_fold = os.getpid(), pipeline._fit_fold

        def fail_in_fold_2(cfg, distances, labels, seed):
            if os.getpid() != parent and seed == cfg.seed * 1000003 + 2:
                raise DataError("fold 2 failed in a worker")
            return fit_fold(cfg, distances, labels, seed)

        monkeypatch.setattr(pipeline, "_fit_fold", fail_in_fold_2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        capsys.readouterr()
        assert cli.main(["loso", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error=data: fold 2 failed in a worker"]
        assert captured.out == ""

    @pytest.mark.parametrize("task", ["fold", "cache miss"])
    def test_dead_worker_is_one_worker_error_line(
        self, synth_dir, tmp_path, capsys, monkeypatch, task
    ):
        use_solver_cpus(monkeypatch, 2)
        _, out_dir = synth_dir
        parent = os.getpid()
        module, name = (pipeline, "_loso_fold") if task == "fold" else (rpca, "decompose_clip")
        work = getattr(module, name)

        def die_in_a_worker(*args):  # forked workers inherit the patch
            if os.getpid() != parent:
                os._exit(1)
            return work(*args)

        monkeypatch.setattr(module, name, die_in_a_worker)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        capsys.readouterr()
        assert cli.main(["loso", "--config", str(cfg)]) == 5
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error=worker: ") and "terminated abruptly" in line
        assert captured.out == ""

    def test_train_then_predict(self, synth_dir, tmp_path, capsys):
        root, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        model = tmp_path / "model.json"
        assert cli.main(["train", "--config", str(cfg), "--out", str(model)]) == 0
        capsys.readouterr()
        clip_dir = sorted((out_dir / "clips").iterdir())[0]
        code = cli.main(
            [
                "predict", "--config", str(cfg), "--model", str(model),
                "--clip", str(clip_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "clip_id,predicted"
        name, label = lines[1].split(",")
        assert name == clip_dir.name
        int(label)

    def test_predict_rejects_model_trained_under_other_rpca_settings(
        self, synth_dir, tmp_path, capsys
    ):
        root, out_dir = synth_dir
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(tiny_config_text(out_dir / "index.csv", rpca_max_iter=3))
        model = tmp_path / "model.json"
        with pytest.warns(RuntimeWarning, match="did not converge"):
            code = cli.main(["train", "--config", str(train_cfg), "--out", str(model)])
        assert code == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        capsys.readouterr()
        clip_dir = sorted((out_dir / "clips").iterdir())[0]
        code = cli.main(
            [
                "predict", "--config", str(cfg), "--model", str(model),
                "--clip", str(clip_dir),
            ]
        )
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error=data:")

    def test_damaged_cache_entries_are_recomputed(self, synth_dir, tmp_path, capsys):
        root, out_dir = synth_dir
        cache = tmp_path / "cache"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv", cache_dir=cache))
        features = tmp_path / "features.csv"
        assert cli.main(["extract", "--config", str(cfg), "--out", str(features)]) == 0
        first = features.read_bytes()
        desc_entries = sorted((cache / "desc").glob("*.npy"))
        records = [np.load(path) for path in desc_entries]

        def entry(k, **values):
            """Entry k's record with some fields replaced, each field of its
            value's own dtype and shape."""
            record = records[k]
            values = {name: values.get(name, record[name]) for name in record.dtype.names}
            fields = [(name, np.asarray(v).dtype, np.shape(v)) for name, v in values.items()]
            return np.array(tuple(values.values()), dtype=fields)

        # a truncated entry, a descriptor of the wrong length, and a file
        # that is no array
        desc_entries[0].write_bytes(desc_entries[0].read_bytes()[:100])
        np.save(desc_entries[1], entry(1, concat=np.zeros(5)))
        desc_entries[2].write_bytes(b"not an array")
        # right shapes, wrong dtypes or values: text bins, a text iteration
        # count on an entry that warns, a NaN bin, a negative bin
        concat = records[3]["concat"].copy()
        np.save(desc_entries[3], entry(3, concat=np.full(concat.size, "x")))
        np.save(desc_entries[4], entry(4, iterations="abc", converged=False))
        concat[0] = np.nan
        np.save(desc_entries[5], entry(5, concat=concat))
        concat[0] = -0.5
        np.save(desc_entries[6], entry(6, concat=concat))
        # the histogram alone, without the decomposition's stats, and the
        # record as a 1-d array of one record
        histogram = records[7]["concat"]
        np.save(
            desc_entries[7],
            np.array((histogram,), dtype=[("concat", histogram.dtype, histogram.shape)]),
        )
        np.save(desc_entries[8], records[8][None])
        # an entry of an earlier version, with another clip's histogram,
        # beside a clip whose entry is gone
        leftover = desc_entries[9].with_suffix(".npz")
        np.savez(
            leftover, concat=records[3]["concat"], iterations=3, residual=0.0,
            converged=True,
        )
        desc_entries[9].unlink()
        old = leftover.read_bytes()
        capsys.readouterr()
        assert cli.main(["extract", "--config", str(cfg), "--out", str(features)]) == 0
        assert "cache_hits=2/12" in capsys.readouterr().out
        assert features.read_bytes() == first
        assert leftover.read_bytes() == old
        assert cli.main(["extract", "--config", str(cfg), "--out", str(features)]) == 0
        assert "cache_hits=12/12" in capsys.readouterr().out
        assert not list(cache.rglob("*.tmp"))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: "{ not json",
            lambda doc: json.dumps({k: v for k, v in doc.items() if k != "machines"}),
            lambda doc: json.dumps(
                {**doc, "machines": [{**doc["machines"][0], "bias": "high"}]}
            ),
            lambda doc: json.dumps(
                {**doc, "machines": [{**doc["machines"][0], "dual_coef": [1.0]}]}
            ),
            lambda doc: json.dumps({**doc, "machines": [{
                **doc["machines"][0],
                "support_vectors": [v[:3] for v in doc["machines"][0]["support_vectors"]],
            }]}),
            lambda doc: json.dumps(
                {**doc, "machines": [{**doc["machines"][0], "selected_groups": [99]}]}
            ),
            lambda doc: json.dumps({**doc, "machines": [], "classes": []}),
            lambda doc: json.dumps({**doc, "classes": [5, 6]}),
            lambda doc: json.dumps({**doc, "classes": [0, 0, 1]}),
            lambda doc: json.dumps(
                {**doc, "machines": [{**doc["machines"][0], "class_b": 0}]}
            ),
            lambda doc: json.dumps(
                {**doc, "machines": [{**doc["machines"][0], "gamma": 0}]}
            ),
            lambda doc: json.dumps(
                {**doc, "machines": [{**doc["machines"][0], "gamma": float("inf")}]}
            ),
            lambda doc: json.dumps({**doc, "machines": [{
                **doc["machines"][0],
                "support_vectors": [[-v for v in row]
                                    for row in doc["machines"][0]["support_vectors"]],
            }]}),
            lambda doc: with_selected_groups(doc, [0.5, 1]),
            lambda doc: with_selected_groups(doc, [False, True]),
            lambda doc: with_selected_groups(doc, ["0", "1"]),
            lambda doc: json.dumps({**doc, "machines": [{
                **doc["machines"][0],
                "support_vectors": [["0.25", *row[1:]]
                                    for row in doc["machines"][0]["support_vectors"]],
            }]}),
            lambda doc: json.dumps({**doc, "machines": [{
                **doc["machines"][0],
                "dual_coef": [True, *doc["machines"][0]["dual_coef"][1:]],
            }]}),
        ],
        ids=[
            "not-json", "missing-key", "wrong-type", "wrong-shape",
            "vector-length", "group-range", "no-classes", "unlisted-pair",
            "repeated-class", "same-class-pair", "zero-gamma", "infinite-gamma",
            "negative-support-vectors", "fractional-group", "boolean-groups",
            "text-groups", "text-bin", "boolean-dual-coef",
        ],
    )
    def test_predict_rejects_malformed_model(
        self, synth_dir, trained_model, tmp_path, capsys, damage
    ):
        root, out_dir = synth_dir
        cfg, doc = trained_model
        model = tmp_path / "model.json"
        model.write_text(damage(doc))
        capsys.readouterr()
        clip_dir = sorted((out_dir / "clips").iterdir())[0]
        code = cli.main(
            [
                "predict", "--config", str(cfg), "--model", str(model),
                "--clip", str(clip_dir),
            ]
        )
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error=data:")
        assert "Traceback" not in "\n".join(err)

    def test_predict_reads_selected_groups(self, synth_dir, trained_model, tmp_path):
        # the model of the type cases above, with integer groups, is sound
        _, out_dir = synth_dir
        cfg, doc = trained_model
        model = tmp_path / "model.json"
        model.write_text(with_selected_groups(doc, [0, 1]))
        code, out, err = run_predict(cfg, model, out_dir)
        assert (code, err) == (0, [])
        assert out.splitlines()[0] == "clip_id,predicted"

    def test_predict_scores_every_clip_in_argument_order(
        self, synth_dir, trained_model, tmp_path, capsys
    ):
        _, out_dir = synth_dir
        cfg, doc = trained_model
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        clip_dirs = sorted((out_dir / "clips").iterdir())
        chosen = [clip_dirs[7], clip_dirs[0], clip_dirs[4]]
        capsys.readouterr()
        assert cli.main(predict_args(cfg, model, chosen)) == 0
        config = parse_config(cfg)
        H = np.stack([
            pipeline.compute_descriptor(
                dataset.load_clip(d, dataset.IndexEntry(d.name, ".", "unknown", -1)),
                config,
            )[0]
            for d in chosen
        ])
        expected = classify.load_model(model).predict(H, config.descriptor)
        assert capsys.readouterr().out.splitlines() == [
            "clip_id,predicted",
            *(f"{d.name},{label}" for d, label in zip(chosen, expected)),
        ]

    def test_predict_names_a_clip_given_as_dot(
        self, synth_dir, trained_model, tmp_path, capsys, monkeypatch
    ):
        # the clip id once came from Path(".").name, which is empty
        _, out_dir = synth_dir
        cfg, doc = trained_model
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        clip_dir = sorted((out_dir / "clips").iterdir())[2]
        capsys.readouterr()
        monkeypatch.chdir(clip_dir)
        assert cli.main(predict_args(cfg, model, ["."])) == 0
        config = parse_config(cfg)
        clip = dataset.load_clip(clip_dir, dataset.IndexEntry("x", ".", "unknown", -1))
        H = pipeline.compute_descriptor(clip, config)[0][None]
        [label] = classify.load_model(model).predict(H, config.descriptor)
        assert capsys.readouterr().out.splitlines() == [
            "clip_id,predicted", f"{clip_dir.name},{label}"
        ]

    def test_predict_solves_its_clips_in_one_pool_batch(
        self, synth_dir, trained_model, tmp_path, capsys, monkeypatch
    ):
        use_solver_cpus(monkeypatch, 2)
        batches, task_results = [], pipeline._task_results

        def recorded(fn, items):
            batches.append(len(items))
            return task_results(fn, items)

        monkeypatch.setattr(pipeline, "_task_results", recorded)
        _, out_dir = synth_dir
        cfg, doc = trained_model
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        chosen = sorted((out_dir / "clips").iterdir())[:3]
        capsys.readouterr()
        assert cli.main(predict_args(cfg, model, chosen)) == 0
        assert batches == [3]
        config = parse_config(cfg)
        inline = np.stack([
            pipeline.compute_descriptor(
                dataset.load_clip(d, dataset.IndexEntry(d.name, ".", "unknown", -1)),
                config,
            )[0]
            for d in chosen
        ])
        expected = classify.load_model(model).predict(inline, config.descriptor)
        assert capsys.readouterr().out.splitlines() == [
            "clip_id,predicted",
            *(f"{d.name},{label}" for d, label in zip(chosen, expected)),
        ]

    def test_predict_prints_no_rows_when_a_clip_fails(
        self, synth_dir, trained_model, tmp_path, capsys
    ):
        _, out_dir = synth_dir
        cfg, doc = trained_model
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        clip_dirs = sorted((out_dir / "clips").iterdir())
        empty = tmp_path / "empty_clip"
        empty.mkdir()
        capsys.readouterr()
        code = cli.main(predict_args(cfg, model, [clip_dirs[0], empty, clip_dirs[1]]))
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error=data:")
        assert captured.out == ""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_damaged_model_loads_equivalent_or_is_data_error(
        self, synth_dir, trained_model, tmp_path_factory, data
    ):
        """Structural damage to a saved model: the file loads as the same
        model, or `mexp predict` stops at one `error=data:` line, exit 3."""
        _, out_dir = synth_dir
        cfg, original = trained_model
        doc = copy.deepcopy(original)
        machine = data.draw(st.sampled_from(doc["machines"]))
        kind = data.draw(st.sampled_from(DAMAGE))
        if kind == "retype element":
            field = data.draw(st.sampled_from(
                ["selected_groups", "support_vectors", "dual_coef"]
            ))
            values = machine[field]
            if field == "support_vectors":
                values = data.draw(st.sampled_from(values))
            bad = data.draw(st.sampled_from(
                OTHER_ELEMENTS + ((0.0, 1.5) if field == "selected_groups" else ())
            ))
            if values:
                values[data.draw(st.integers(0, len(values) - 1))] = bad
            else:  # no selected groups means all of them
                values.append(bad)
        elif kind in ("drop key", "retype"):
            target = data.draw(st.sampled_from([doc, machine]))
            key = data.draw(st.sampled_from(sorted(target)))
            if kind == "drop key":
                del target[key]
            else:
                target[key] = data.draw(st.sampled_from(
                    [v for v in OTHER_TYPES if json_type(v) != json_type(target[key])]
                ))
        elif kind == "non-finite":
            bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            field = data.draw(st.sampled_from(
                ["bias", "gamma", "penalty", "kkt_gap", "dual_coef",
                 "support_vectors", "selected_groups"]
            ))
            if field == "support_vectors":
                row = data.draw(st.sampled_from(machine[field]))
                row[data.draw(st.integers(0, len(row) - 1))] = bad
            elif field in ("dual_coef", "selected_groups"):
                values = machine[field]
                if values:
                    values[data.draw(st.integers(0, len(values) - 1))] = bad
                else:  # no selected groups means all of them
                    values.append(bad)
            else:
                machine[field] = bad
        elif kind == "negative bin":
            row = data.draw(st.sampled_from(machine["support_vectors"]))
            bad = -data.draw(st.floats(1e-3, 1.0))
            row[data.draw(st.integers(0, len(row) - 1))] = bad
        elif kind == "ragged":
            rows = machine["support_vectors"]
            assert len(rows) >= 2
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            if data.draw(st.booleans()):
                row.pop()
            else:
                row.append(0.5)
        else:  # a machine for a pair of which one label is no class
            classes = doc["classes"]
            label = data.draw(st.integers(-3, 9).filter(lambda c: c not in classes))
            machine[data.draw(st.sampled_from(["class_a", "class_b"]))] = label

        tmp = tmp_path_factory.mktemp("damaged")
        model = tmp / "model.json"
        model.write_text(json.dumps(doc))
        try:
            loaded = classify.load_model(model)
        except DataError:
            loaded = None
        code, out, err = run_predict(cfg, model, out_dir)
        assert loaded is None or kind != "retype element"
        if loaded is None:
            assert code == 3, err
            assert len(err) == 1 and err[0].startswith("error=data:")
        else:
            reference = tmp / "reference.json"
            reference.write_text(json.dumps(original))
            assert saved_without_metadata(loaded, tmp / "a.json") == (
                saved_without_metadata(classify.load_model(reference), tmp / "b.json")
            ), kind
            assert (code, out, err) == run_predict(cfg, reference, out_dir)
        assert "Traceback" not in "\n".join(err)

    def test_select_emits_scores(self, synth_dir, tmp_path, capsys):
        root, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv", selection="on", selection_p=4))
        out_file = tmp_path / "selection.json"
        assert cli.main(["select", "--config", str(cfg), "--out", str(out_file)]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        assert doc["p"] == 4
        assert len(doc["pairs"]) == 1
        assert len(doc["pairs"][0]["selected"]) == 4

    def test_decompose_dumps_matrices(self, synth_dir, tmp_path, capsys):
        root, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        dump = tmp_path / "dump"
        assert cli.main(["decompose", "--config", str(cfg), "--out", str(dump)]) == 0
        rc = parse_config(cfg).descriptor.rpca
        index, clips = load_dataset(out_dir / "index.csv")
        decs = [rpca.decompose_clip(clips[e.clip_id].frames, rc) for e in index.entries]
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"decomposed={len(decs)} converged={sum(d.converged for d in decs)} "
            f"iterations={sum(d.iterations for d in decs)}"
        )
        for part in ("low_rank", "sparse"):
            head, *rows = (dump / f"{part}.csv").read_text().splitlines()
            assert head == f"RPCA v1 {rc.fingerprint()}"
            want = [
                (e.clip_id, t, col)
                for e, d in zip(index.entries, decs)
                for t, col in enumerate(getattr(d, part).T.tolist())
            ]
            assert len(rows) == len(want)
            for row, (clip_id, t, col) in zip(rows, want):
                cells = row.split(",")
                assert cells[:2] == [clip_id, str(t)]
                assert [float(v) for v in cells[2:]] == col
        # no temporary file is left, and the dumps get a plain file's permissions
        (tmp_path / "plain.txt").write_text("")
        mode = (tmp_path / "plain.txt").stat().st_mode
        assert {p.name: p.stat().st_mode for p in dump.iterdir()} == {
            "low_rank.csv": mode, "sparse.csv": mode
        }

    def test_failed_decompose_keeps_previous_dump(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        _, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        dump = tmp_path / "dump"
        argv = ["decompose", "--config", str(cfg), "--out", str(dump)]
        assert cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in dump.iterdir()}
        solve, solved = pipeline.compute_decomposition, []

        def fail_on_second_clip(clip, cfg):
            solved.append(clip.clip_id)
            if len(solved) == 2:
                raise NumericError("solver failed")
            return solve(clip, cfg)

        monkeypatch.setattr(pipeline, "compute_decomposition", fail_on_second_clip)
        assert cli.main(argv) == 4
        assert {p.name: p.read_bytes() for p in dump.iterdir()} == before

    def test_original_projection_flag(self, synth_dir, tmp_path, capsys):
        root, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        code = cli.main(
            ["loso", "--config", str(cfg), "--original-projection", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "config.projection=original" in out

    def test_p_flag_enables_selection(self, synth_dir, tmp_path, capsys):
        root, out_dir = synth_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(tiny_config_text(out_dir / "index.csv"))
        code = cli.main(["loso", "--config", str(cfg), "--p", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "config.selection=on" in out
        assert "config.selection_p=4" in out
