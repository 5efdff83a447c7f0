import os
import re

import numpy as np
import pytest

from mexp import dataset

pytestmark = pytest.mark.filterwarnings(
    "ignore:class .* leave-one-subject-out:UserWarning"
)
from mexp.dataset import (
    DatasetIndex,
    IndexEntry,
    SynthSpec,
    VideoClip,
    load_clip,
    load_dataset,
    loso_splits,
    read_index,
    read_pgm,
    synthesize_dataset,
    write_dataset,
    write_index,
    write_pgm,
)
from mexp.errors import DataError


class TestPgm:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, (13, 17)).astype(np.float64)
        path = tmp_path / "f.pgm"
        write_pgm(path, frame)
        np.testing.assert_array_equal(read_pgm(path), frame)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        np.testing.assert_array_equal(read_pgm(path), [[0, 64], [128, 255]])

    @pytest.mark.parametrize(
        "header, raster, expected",
        [
            (b"P5# straight after the magic\n2 1\n255\n", [7, 9], [[7, 9]]),
            (b"P5\t2\r1\r\n255\t", [3, 4], [[3, 4]]),  # tab and CR separators
            (b"P5 2 1 # two\n#\n # lines\n255\n", [5, 6], [[5, 6]]),
        ],
        ids=["after P5", "tab and CR", "between fields"],
    )
    def test_header_separators(self, tmp_path, header, raster, expected):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes(raster))
        np.testing.assert_array_equal(read_pgm(path), expected)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5\n2 2\n# a comment to the end of the file", "truncated PGM header"),
            (b"P5\n2 2 #255\n", "truncated PGM header"),
            (b"P5\n2 2", "truncated PGM header"),
            (b"P5\n2#3 2\n255\n\0\0\0\0", "malformed PGM header"),
            (b"P5\n2 2\n2#55\n\0\0\0\0", "malformed PGM header"),
        ],
        ids=["comment to the end", "comment for a field", "no maxval", "# in width",
             "# in maxval"],
    )
    def test_malformed_header_rejected(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}$"):
            read_pgm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(DataError):
            read_pgm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DataError):
            read_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(DataError):
            read_pgm(path)

    def test_write_quantizes_and_clips(self, tmp_path):
        path = tmp_path / "q.pgm"
        write_pgm(path, np.array([[-3.0, 12.4], [300.0, 80.6]]))
        np.testing.assert_array_equal(read_pgm(path), [[0, 12], [255, 81]])


class TestPng:
    def test_grayscale_png(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        rng = np.random.default_rng(1)
        values = rng.integers(0, 256, (9, 7)).astype(np.uint8)
        path = tmp_path / "f.png"
        PIL.fromarray(values, mode="L").save(path)
        np.testing.assert_array_equal(dataset.read_frame(path), values)

    def test_color_png_luma(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        rgb[..., 0] = 200  # red only
        path = tmp_path / "c.png"
        PIL.fromarray(rgb, mode="RGB").save(path)
        got = dataset.read_frame(path)
        # 0.299 * 200 = 59.8 under the standard luma weighting
        assert abs(got[0, 0] - 0.299 * 200) <= 1.0


def _write_clip(tmp_path, name, frames):
    clip_dir = tmp_path / name
    clip_dir.mkdir(parents=True)
    for t, f in enumerate(frames):
        write_pgm(clip_dir / f"frame_{t:03d}.pgm", f)
    return clip_dir


class TestLoadClip:
    def test_constant_frames(self, tmp_path):
        frames = [np.full((64, 64), 128.0)] * 10
        _write_clip(tmp_path, "c0", frames)
        clip = load_clip(tmp_path, IndexEntry("c0", "c0", "s0", 1))
        assert clip.n_frames == 10
        assert (clip.frames == 128.0).all()
        assert clip.frames.min() >= 0 and clip.frames.max() <= 255

    def test_mixed_dimensions_rejected(self, tmp_path):
        clip_dir = tmp_path / "c1"
        clip_dir.mkdir()
        write_pgm(clip_dir / "a.pgm", np.zeros((8, 8)))
        write_pgm(clip_dir / "b.pgm", np.zeros((9, 8)))
        with pytest.raises(DataError, match="c1"):
            load_clip(tmp_path, IndexEntry("c1", "c1", "s0", 0))

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "c2").mkdir()
        with pytest.raises(DataError, match="c2"):
            load_clip(tmp_path, IndexEntry("c2", "c2", "s0", 0))

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DataError, match="nowhere"):
            load_clip(tmp_path, IndexEntry("nowhere", "nowhere", "s0", 0))

    def test_lexicographic_order(self, tmp_path):
        clip_dir = tmp_path / "c3"
        clip_dir.mkdir()
        write_pgm(clip_dir / "b.pgm", np.full((4, 4), 2.0))
        write_pgm(clip_dir / "a.pgm", np.full((4, 4), 1.0))
        write_pgm(clip_dir / "d.pgm", np.full((4, 4), 4.0))
        write_pgm(clip_dir / "c.pgm", np.full((4, 4), 3.0))
        clip = load_clip(tmp_path, IndexEntry("c3", "c3", "s0", 0))
        np.testing.assert_array_equal(clip.frames[:, 0, 0], [1, 2, 3, 4])

    def test_only_frame_files_are_read(self, tmp_path):
        frames = [np.full((4, 4), v) for v in (1.0, 2.0, 3.0, 4.0)]
        clip_dir = _write_clip(tmp_path, "c6", frames)
        (clip_dir / "x.pgm").mkdir()  # a directory, though named as a frame
        (clip_dir / "notes.txt").write_text("not a frame")
        (clip_dir / ".pgm").write_bytes(b"a dot file: no suffix")
        clip = load_clip(tmp_path, IndexEntry("c6", "c6", "s0", 0))
        np.testing.assert_array_equal(clip.frames[:, 0, 0], [1, 2, 3, 4])

    def test_manifest_overrides_order(self, tmp_path):
        clip_dir = tmp_path / "c4"
        clip_dir.mkdir()
        for name, v in [("a.pgm", 1.0), ("b.pgm", 2.0), ("c.pgm", 3.0), ("d.pgm", 4.0)]:
            write_pgm(clip_dir / name, np.full((4, 4), v))
        (clip_dir / "frames.txt").write_text("d.pgm\nb.pgm\nc.pgm\na.pgm\n")
        clip = load_clip(tmp_path, IndexEntry("c4", "c4", "s0", 0))
        np.testing.assert_array_equal(clip.frames[:, 0, 0], [4, 2, 3, 1])

    def test_too_few_frames_rejected(self, tmp_path):
        _write_clip(tmp_path, "c5", [np.zeros((4, 4))] * 2)
        with pytest.raises(DataError, match="at least 4"):
            load_clip(tmp_path, IndexEntry("c5", "c5", "s0", 0))


class TestIndex:
    def test_round_trip(self, tmp_path):
        index = DatasetIndex(
            [
                IndexEntry("a", "clips/a", "s0", 0),
                IndexEntry("b", "clips/b", "s0", 1),
                IndexEntry("c", "clips/c", "s1", 0),
                IndexEntry("d", "clips/d", "s1", 1),
            ]
        )
        path = tmp_path / "index.csv"
        write_index(index, path)
        again = read_index(path)
        assert again.entries == index.entries

    def test_failed_write_keeps_the_previous_index(self, tmp_path, monkeypatch):
        path = tmp_path / "index.csv"
        write_index(DatasetIndex([IndexEntry("a", "clips/a", "s0", 0)]), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        longer = DatasetIndex(
            [IndexEntry("a", "clips/a", "s0", 0), IndexEntry("b", "clips/b", "s1", 1)]
        )
        with pytest.raises(OSError, match="rename failed"):
            write_index(longer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["index.csv"]

    def test_header_line(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("clip,who,where,label\n")
        with pytest.raises(DataError):
            read_index(path)

    def test_duplicate_clip_ids_rejected(self):
        with pytest.raises(DataError):
            DatasetIndex(
                [IndexEntry("a", "a", "s0", 0), IndexEntry("a", "b", "s1", 0)]
            )

    def test_thin_class_warns(self):
        with pytest.warns(UserWarning):
            DatasetIndex(
                [IndexEntry("a", "a", "s0", 0), IndexEntry("b", "b", "s0", 0)]
            )


class TestLosoSplits:
    def _index(self, subjects):
        entries = [
            IndexEntry(f"c{i}", f"c{i}", s, i % 2) for i, s in enumerate(subjects)
        ]
        return DatasetIndex(entries)

    def test_one_split_per_subject(self):
        splits = loso_splits(self._index(["a", "a", "b", "b", "c", "c"]))
        assert len(splits) == 3

    def test_grouping_by_subject(self):
        splits = loso_splits(self._index(["a", "a", "b", "b"]))
        train, test = splits[0]
        assert sorted(test) == ["c0", "c1"]
        assert sorted(train) == ["c2", "c3"]

    def test_partition_property(self):
        index, _ = synthesize_dataset(SynthSpec(n_subjects=3, seed=1))
        all_ids = {e.clip_id for e in index.entries}
        for train, test in loso_splits(index):
            assert set(train) | set(test) == all_ids
            assert not set(train) & set(test)
            test_subjects = {e.subject_id for e in index.entries if e.clip_id in set(test)}
            assert len(test_subjects) == 1

    def test_single_subject_rejected(self):
        with pytest.raises(DataError):
            loso_splits(self._index(["a", "a", "a", "a"]))


class TestSynthesize:
    def test_zero_motion_zero_noise(self):
        spec = SynthSpec(
            n_subjects=2, n_classes=2, clips_per_subject_per_class=2,
            width=32, height=32, min_frames=5, max_frames=7,
            noise_amplitude=0.0, motion_amplitude=0.0, seed=3,
        )
        index, clips = synthesize_dataset(spec)
        by_subject = {}
        for e in index.entries:
            clip = clips[e.clip_id]
            for f in clip.frames:
                np.testing.assert_array_equal(f, clip.frames[0])
            by_subject.setdefault(e.subject_id, clip.frames[0])
            np.testing.assert_array_equal(clip.frames[0], by_subject[e.subject_id])
        assert not np.array_equal(by_subject["s00"], by_subject["s01"])

    def test_same_seed_bit_identical(self):
        spec = SynthSpec(seed=11)
        _, a = synthesize_dataset(spec)
        _, b = synthesize_dataset(spec)
        assert a.keys() == b.keys()
        for cid in a:
            np.testing.assert_array_equal(a[cid].frames, b[cid].frames)

    def test_values_are_8bit_quantized(self):
        _, clips = synthesize_dataset(SynthSpec(seed=4))
        clip = next(iter(clips.values()))
        assert clip.frames.min() >= 0 and clip.frames.max() <= 255
        np.testing.assert_array_equal(clip.frames, np.rint(clip.frames))

    def test_invalid_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(noise_amplitude=5.0, motion_amplitude=5.0)
        with pytest.raises(ValueError):
            SynthSpec(noise_amplitude=-1.0)

    def test_nearest_neighbor_separability_oracle(self):
        # 1-NN on mean absolute frame differences must reach 80% under LOSO
        spec = SynthSpec(
            n_subjects=3, n_classes=3, clips_per_subject_per_class=4,
            width=64, height=64, min_frames=12, max_frames=20,
            noise_amplitude=2.0, motion_amplitude=40.0, seed=7,
        )
        index, clips = synthesize_dataset(spec)
        feats = {
            cid: np.abs(np.diff(c.frames, axis=0)).mean(axis=0).ravel()
            for cid, c in clips.items()
        }
        labels = {e.clip_id: e.class_label for e in index.entries}
        correct = total = 0
        for train, test in loso_splits(index):
            for t in test:
                nearest = min(train, key=lambda tr: np.linalg.norm(feats[t] - feats[tr]))
                correct += labels[nearest] == labels[t]
                total += 1
        assert correct / total >= 0.8


class TestWriteDataset:
    def test_round_trip_exact(self, tmp_path):
        spec = SynthSpec(
            n_subjects=2, n_classes=2, clips_per_subject_per_class=1,
            width=24, height=24, min_frames=5, max_frames=6, seed=5,
        )
        index, clips = synthesize_dataset(spec)
        index_path = write_dataset(index, clips, tmp_path / "data")
        index2, clips2 = load_dataset(index_path)
        assert {e.clip_id for e in index2.entries} == set(clips)
        for cid, clip in clips.items():
            np.testing.assert_array_equal(clips2[cid].frames, clip.frames)
            assert clips2[cid].subject_id == clip.subject_id
            assert clips2[cid].class_label == clip.class_label


    def test_existing_clip_directory_refused_before_any_frame(self, tmp_path):
        long, short = (
            synthesize_dataset(SynthSpec(
                n_subjects=2, n_classes=2, clips_per_subject_per_class=1,
                width=24, height=24, min_frames=n, max_frames=n, seed=5,
            ))
            for n in (20, 8)
        )
        write_dataset(*long, tmp_path)
        before = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
        with pytest.raises(DataError, match="clips/s00c0k00 already exists"):
            write_dataset(*short, tmp_path)
        assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == before


class TestByteOrderMark:
    """An index and a frame manifest saved as UTF-8 with a byte-order mark
    load exactly as they do without one."""

    def write(self, root, encoding):
        spec = SynthSpec(
            n_subjects=2, n_classes=2, clips_per_subject_per_class=1,
            width=16, height=16, min_frames=5, max_frames=6, seed=9,
        )
        index, clips = synthesize_dataset(spec)
        index_path = write_dataset(index, clips, root)
        index_path.write_text(index_path.read_text(), encoding=encoding)
        clip_dir = root / index.entries[0].path
        names = sorted(f.name for f in clip_dir.iterdir())[::-1]
        (clip_dir / "frames.txt").write_text("\n".join(names) + "\n", encoding=encoding)
        return index_path

    def test_index_and_manifest(self, tmp_path):
        plain_index, plain_clips = load_dataset(self.write(tmp_path / "a", "utf-8"))
        index, clips = load_dataset(self.write(tmp_path / "b", "utf-8-sig"))
        assert (tmp_path / "b" / "index.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert index.entries == plain_index.entries
        assert clips.keys() == plain_clips.keys()
        for cid, clip in clips.items():
            np.testing.assert_array_equal(clip.frames, plain_clips[cid].frames)


class TestVideoClip:
    def test_minimum_frames_enforced(self):
        with pytest.raises(DataError):
            VideoClip(np.zeros((3, 8, 8)), "s", 0, "c")

    def test_content_hash_tracks_values(self):
        a = VideoClip(np.zeros((4, 8, 8)), "s", 0, "c")
        b = VideoClip(np.zeros((4, 8, 8)), "s", 0, "c")
        assert a.content_hash() == b.content_hash()
        frames = np.zeros((4, 8, 8))
        frames[0, 0, 0] = 1.0
        c = VideoClip(frames, "s", 0, "c")
        assert a.content_hash() != c.content_hash()
