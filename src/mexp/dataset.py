"""Clip loading, dataset indexing, leave-one-subject-out splits, and a
seeded synthetic generator for desk-scale benchmarks.

On disk a dataset is a CSV index (`clip_id,path,subject,label`) plus one
directory per clip holding grayscale still frames. Binary PGM (P5, 8-bit) is
the native frame format; PNG is read too when Pillow is installed. Frames are
ordered by lexicographic filename sort unless the clip directory contains a
`frames.txt` manifest listing filenames explicitly.
"""

import contextlib
import csv
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

INDEX_HEADER = ["clip_id", "path", "subject", "label"]
FRAME_MANIFEST = "frames.txt"
MIN_CLIP_FRAMES = 4


@dataclass
class VideoClip:
    """Ordered grayscale frames with identity and label metadata."""

    frames: np.ndarray  # (T, H, W) float64
    subject_id: str
    class_label: int
    clip_id: str

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3:
            raise DataError(f"clip {self.clip_id!r}: frames must be (T, H, W)")
        if self.frames.shape[0] < MIN_CLIP_FRAMES:
            raise DataError(
                f"clip {self.clip_id!r}: need at least {MIN_CLIP_FRAMES} frames, "
                f"got {self.frames.shape[0]}"
            )

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_shape(self) -> tuple:
        return self.frames.shape[1:]

    def content_hash(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(str(self.frames.shape).encode())
        h.update(self.frames.tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class IndexEntry:
    clip_id: str
    path: str
    subject_id: str
    class_label: int


@dataclass
class DatasetIndex:
    entries: list
    class_names: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [e.clip_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate clip_id in dataset index")
        for label in sorted({e.class_label for e in self.entries}):
            self.class_names.setdefault(label, f"class{label}")
        self._warn_if_thin()

    def _warn_if_thin(self):
        for label in sorted({e.class_label for e in self.entries}):
            members = [e for e in self.entries if e.class_label == label]
            subjects = {e.subject_id for e in members}
            if len(members) < 2 or len(subjects) < 2:
                warnings.warn(
                    f"class {label} has {len(members)} clip(s) from "
                    f"{len(subjects)} subject(s); leave-one-subject-out results "
                    "will not be meaningful",
                    stacklevel=4,
                )

    @property
    def subjects(self) -> list:
        return sorted({e.subject_id for e in self.entries})

    @property
    def labels(self) -> list:
        return sorted({e.class_label for e in self.entries})


# ---------------------------------------------------------------------------
# Frame decoding


# one header field, after the whitespace and `#` comments before it; a
# comment runs to the end of its line, and a field never starts with `#`,
# so no backtracking can split a comment into fields
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)")


def read_pgm(path) -> np.ndarray:
    """Decode a binary (P5) PGM file with maxval <= 255 to float64."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary PGM (P5) file")
    fields = []
    pos = 2
    for _ in range(3):
        match = _PGM_FIELD.match(data, pos)
        if match is None:
            raise DataError(f"{path}: truncated PGM header")
        fields.append(match[1])
        pos = match.end()
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as e:
        raise DataError(f"{path}: malformed PGM header") from e
    if width < 1 or height < 1:
        raise DataError(f"{path}: invalid PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise DataError(f"{path}: unsupported PGM maxval {maxval} (need 8-bit)")
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise DataError(f"{path}: PGM raster truncated")
    return (
        np.frombuffer(raster, dtype=np.uint8)
        .reshape(height, width)
        .astype(np.float64)
    )


def write_pgm(path, values):
    """Write intensities (rounded and clipped to [0, 255]) as binary PGM."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("PGM frames are 2D")
    h, w = arr.shape
    raster = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(raster.tobytes())


def _read_png(path) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as e:  # pragma: no cover - depends on environment
        raise DataError(f"{path}: PNG support requires Pillow") from e
    with Image.open(path) as img:
        gray = img.convert("L")  # luma 0.299R + 0.587G + 0.114B
        return np.asarray(gray, dtype=np.float64)


def read_frame(path) -> np.ndarray:
    name = os.path.basename(path)
    dot = name.rfind(".")
    suffix = name[dot:] if 0 < dot < len(name) - 1 else ""  # as `Path.suffix`
    if suffix.lower() == ".pgm":
        return read_pgm(path)
    if suffix.lower() == ".png":
        return _read_png(path)
    raise DataError(f"{path}: unsupported frame format {suffix!r}")


# ---------------------------------------------------------------------------
# Index I/O and clip loading


@contextlib.contextmanager
def atomic_write(path, mode="wb", **open_args):
    """A file that writes `path` through a temporary file beside it, renamed
    into place when the block ends and removed if it fails, so that readers
    and concurrent writers see the previous file (or none) or a whole one.
    It is opened write-only, so `mode` is "w" or "wb"."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name, created with the permissions an ordinary open would give
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, **open_args) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_index(path) -> DatasetIndex:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset index not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            rows = list(csv.reader(f))
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: {e}") from e
    if not rows or rows[0] != INDEX_HEADER:
        raise DataError(f"{path}: expected header {','.join(INDEX_HEADER)}")
    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        clip_id, rel, subject, label = row
        try:
            label_int = int(label)
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: non-integer label {label!r}") from e
        entries.append(IndexEntry(clip_id, rel, subject, label_int))
    if not entries:
        raise DataError(f"{path}: index lists no clips")
    return DatasetIndex(entries)


def write_index(index: DatasetIndex, path):
    with atomic_write(path, "w", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(INDEX_HEADER)
        for e in index.entries:
            writer.writerow([e.clip_id, e.path, e.subject_id, e.class_label])


def _frame_files(clip_dir: Path, clip_id: str) -> list:
    manifest = clip_dir / FRAME_MANIFEST
    if manifest.is_file():
        try:
            text = manifest.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as e:
            raise DataError(f"clip {clip_id!r}: {manifest.name}: {e}") from e
        names = [ln.strip() for ln in text.splitlines() if ln.strip()]
        files = [clip_dir / n for n in names]
        for f in files:
            if not f.is_file():
                raise DataError(f"clip {clip_id!r}: manifest names missing file {f.name}")
        return files
    # a name whose only dot leads it, such as `.pgm`, has no suffix
    with os.scandir(clip_dir) as entries:
        names = sorted(
            e.name for e in entries
            if e.name[1:].lower().endswith((".pgm", ".png")) and e.is_file()
        )
    return [os.path.join(clip_dir, name) for name in names]


def load_clip(root, entry: IndexEntry) -> VideoClip:
    """Load one clip's frames from `root / entry.path` in deterministic order."""
    clip_dir = Path(root) / entry.path
    if not clip_dir.is_dir():
        raise DataError(f"clip {entry.clip_id!r}: directory not found: {clip_dir}")
    files = _frame_files(clip_dir, entry.clip_id)
    if not files:
        raise DataError(f"clip {entry.clip_id!r}: no frames in {clip_dir}")
    frames = []
    shape = None
    for f in files:
        try:
            frame = read_frame(f)
        except DataError as e:
            raise DataError(f"clip {entry.clip_id!r}: {e}") from e
        if shape is None:
            shape = frame.shape
        elif frame.shape != shape:
            raise DataError(
                f"clip {entry.clip_id!r}: frame {os.path.basename(f)} is {frame.shape}, "
                f"expected {shape}"
            )
        frames.append(frame)
    return VideoClip(
        np.stack(frames), entry.subject_id, entry.class_label, entry.clip_id
    )


def load_dataset(index_path):
    """Read an index file and every clip it lists (paths are index-relative)."""
    index = read_index(index_path)
    root = Path(index_path).parent
    clips = {e.clip_id: load_clip(root, e) for e in index.entries}
    return index, clips


# ---------------------------------------------------------------------------
# Leave-one-subject-out splits


def loso_splits(index: DatasetIndex) -> list:
    """One (train_ids, test_ids) pair per subject, test = that subject's clips."""
    subjects = index.subjects
    if len(subjects) < 2:
        raise DataError("leave-one-subject-out needs at least 2 subjects")
    splits = []
    for subject in subjects:
        test = [e.clip_id for e in index.entries if e.subject_id == subject]
        train = [e.clip_id for e in index.entries if e.subject_id != subject]
        splits.append((train, test))
    return splits


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings for a synthetic micro-motion dataset.

    Every clip is a static subject-specific smooth background (low-rank
    across frames) plus a class-specific moving intensity bump (sparse) plus
    white noise, quantized to 8-bit like a decoded recording.
    """

    n_subjects: int = 3
    n_classes: int = 3
    clips_per_subject_per_class: int = 4
    width: int = 64
    height: int = 64
    min_frames: int = 12
    max_frames: int = 20
    noise_amplitude: float = 2.0
    motion_amplitude: float = 40.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_subjects", "n_classes", "clips_per_subject_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.width < 8 or self.height < 8:
            raise ValueError("frames must be at least 8x8")
        if not MIN_CLIP_FRAMES <= self.min_frames <= self.max_frames:
            raise ValueError(
                f"need {MIN_CLIP_FRAMES} <= min_frames <= max_frames, got "
                f"{self.min_frames}..{self.max_frames}"
            )
        amplitudes = self.noise_amplitude, self.motion_amplitude
        if not all(0 <= a < math.inf for a in amplitudes):  # NaN is refused too
            raise ValueError("amplitudes must be nonnegative and finite")
        if self.noise_amplitude > 0 and self.motion_amplitude <= self.noise_amplitude:
            raise ValueError("motion amplitude must exceed noise amplitude")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _smooth_field(rng, height, width, lo=40.0, hi=200.0) -> np.ndarray:
    """Bilinearly upsampled coarse random grid: a smooth subject background."""
    coarse = rng.uniform(lo, hi, size=(6, 6))
    ys = np.linspace(0.0, coarse.shape[0] - 1, height)
    xs = np.linspace(0.0, coarse.shape[1] - 1, width)
    rows = np.empty((coarse.shape[0], width))
    for i in range(coarse.shape[0]):
        rows[i] = np.interp(xs, np.arange(coarse.shape[1]), coarse[i])
    out = np.empty((height, width))
    for j in range(width):
        out[:, j] = np.interp(ys, np.arange(coarse.shape[0]), rows[:, j])
    return out


def _class_rect(spec: SynthSpec, label: int) -> tuple:
    """Axis-aligned rectangle assigned to a class, cells of a near-square grid."""
    cells_y = int(np.ceil(np.sqrt(spec.n_classes)))
    cells_x = int(np.ceil(spec.n_classes / cells_y))
    cy, cx = divmod(label, cells_x)
    y1 = cy * spec.height // cells_y
    y2 = (cy + 1) * spec.height // cells_y
    x1 = cx * spec.width // cells_x
    x2 = (cx + 1) * spec.width // cells_x
    my = max(2, (y2 - y1) // 6)
    mx = max(2, (x2 - x1) // 6)
    if y2 - y1 <= 2 * my:
        my = max(0, (y2 - y1 - 1) // 2)
    if x2 - x1 <= 2 * mx:
        mx = max(0, (x2 - x1 - 1) // 2)
    return y1 + my, y2 - my, x1 + mx, x2 - mx


def _bump_track(spec: SynthSpec, label: int, n_frames: int) -> np.ndarray:
    """Per-frame (cy, cx) bump centers along a class-specific path."""
    y1, y2, x1, x2 = _class_rect(spec, label)
    s = np.linspace(0.0, 1.0, n_frames)
    kind = label % 3
    if kind == 0:  # horizontal sweep
        cy = np.full(n_frames, (y1 + y2) / 2.0)
        cx = x1 + s * (x2 - 1 - x1)
    elif kind == 1:  # vertical sweep
        cy = y1 + s * (y2 - 1 - y1)
        cx = np.full(n_frames, (x1 + x2) / 2.0)
    else:  # diagonal sweep
        cy = y1 + s * (y2 - 1 - y1)
        cx = x1 + s * (x2 - 1 - x1)
    return np.stack([cy, cx], axis=1)


def _render_clip(spec: SynthSpec, rng, background, label) -> np.ndarray:
    n_frames = int(rng.integers(spec.min_frames, spec.max_frames + 1))
    track = _bump_track(spec, label, n_frames)
    yy, xx = np.mgrid[0 : spec.height, 0 : spec.width]
    sigma = max(2.0, min(spec.height, spec.width) / 16.0)
    frames = np.empty((n_frames, spec.height, spec.width))
    for t in range(n_frames):
        cy, cx = track[t]
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
        frame = background + spec.motion_amplitude * bump
        if spec.noise_amplitude > 0:
            frame = frame + spec.noise_amplitude * rng.standard_normal(frame.shape)
        frames[t] = np.clip(np.rint(frame), 0.0, 255.0)
    return frames


def synthesize_dataset(spec: SynthSpec):
    """Generate (index, clips); a pure function of the spec including its seed."""
    rng = np.random.default_rng(spec.seed)
    backgrounds = [
        _smooth_field(rng, spec.height, spec.width) for _ in range(spec.n_subjects)
    ]
    entries = []
    clips = {}
    for s in range(spec.n_subjects):
        subject_id = f"s{s:02d}"
        for c in range(spec.n_classes):
            for k in range(spec.clips_per_subject_per_class):
                clip_id = f"{subject_id}c{c}k{k:02d}"
                frames = _render_clip(spec, rng, backgrounds[s], c)
                clips[clip_id] = VideoClip(frames, subject_id, c, clip_id)
                entries.append(
                    IndexEntry(clip_id, f"clips/{clip_id}", subject_id, c)
                )
    return DatasetIndex(entries), clips


def write_dataset(index: DatasetIndex, clips: dict, out_dir):
    """Write clips (one new directory each, PGM frames) plus index.csv;
    returns the index path. DataError if a clip directory already exists."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for entry in index.entries:  # frames left in a clip directory would load too
        if (out / entry.path).exists():
            raise DataError(f"clip directory {out / entry.path} already exists")
    for entry in index.entries:
        clip = clips[entry.clip_id]
        clip_dir = out / entry.path
        clip_dir.mkdir(parents=True)
        for t in range(clip.n_frames):
            write_pgm(clip_dir / f"frame_{t:04d}.pgm", clip.frames[t])
    index_path = out / "index.csv"
    write_index(index, index_path)
    return index_path
