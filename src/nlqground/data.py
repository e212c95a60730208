"""Dataset I/O, key-frame sampling, batching, and the synthetic
planted-signal generator.

Feature matrices travel in a bit-exact binary container (directory with a
manifest plus one "EGF1" file per id); annotations are a small JSON schema.
The synthetic generator plants a per-query signature vector into the frames
of the ground-truth span through a fixed linear map, so localization is
solvable only by cross-modal matching, which is exactly the mechanism under
test.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FrameGrid, TimeSpan, Units, sec_to_index

FEATURE_MAGIC = b"EGF1"
ANNOTATION_VERSION = "1.0"


class FeatureFormatError(ValueError):
    """Corrupt feature container: bad magic, truncation, manifest mismatch."""


class AnnotationError(ValueError):
    """Annotation document violates the schema or a span invariant."""


# ---------------------------------------------------------------------------
# feature container
# ---------------------------------------------------------------------------


def write_features(path, matrices: dict[str, np.ndarray]) -> dict:
    """Write an id -> matrix map as manifest.json plus one EGF1 file per id.

    File layout: magic "EGF1", u32 LE rows, u32 LE cols, then rows*cols
    little-endian float32 values in row-major order.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for mid in sorted(matrices):
        m = np.ascontiguousarray(matrices[mid], dtype="<f4")
        if m.ndim != 2:
            raise ValueError(f"feature matrix {mid!r} must be 2-D, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"feature matrix {mid!r} contains NaN/Inf")
        fname = f"{mid}.egf"
        with open(path / fname, "wb") as f:
            f.write(FEATURE_MAGIC)
            f.write(struct.pack("<II", m.shape[0], m.shape[1]))
            f.write(m.tobytes())
        manifest[mid] = fname
    with open(path / "manifest.json", "w", encoding="utf-8") as f:
        json.dump({"version": ANNOTATION_VERSION, "files": manifest}, f, indent=2, sort_keys=True)
    return manifest


def read_features(path) -> dict[str, np.ndarray]:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise FeatureFormatError(f"missing manifest.json under {path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    out: dict[str, np.ndarray] = {}
    for mid, fname in manifest["files"].items():
        fpath = path / fname
        if not fpath.exists():
            raise FeatureFormatError(f"manifest names {fname} for id {mid!r} but the file is missing")
        blob = fpath.read_bytes()
        if blob[:4] != FEATURE_MAGIC:
            raise FeatureFormatError(f"{mid!r}: bad magic {blob[:4]!r}")
        if len(blob) < 12:
            raise FeatureFormatError(f"{mid!r}: truncated header")
        rows, cols = struct.unpack_from("<II", blob, 4)
        expected = 12 + rows * cols * 4
        if len(blob) != expected:
            raise FeatureFormatError(
                f"{mid!r}: payload size {len(blob)} != expected {expected} for {rows}x{cols}")
        out[mid] = np.frombuffer(blob, dtype="<f4", offset=12).reshape(rows, cols).copy()
    return out


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryAnnotation:
    video_id: str
    query_id: str
    text: str
    start_sec: float
    end_sec: float


def write_annotations(path, videos: list[dict]) -> None:
    """videos: [{"video_id", "duration_sec", "queries": [{"query_id", "text",
    "start_sec", "end_sec"}]}]."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"version": ANNOTATION_VERSION, "videos": videos}, f, indent=2)


def read_annotations(path) -> tuple[list[QueryAnnotation], dict[str, float]]:
    """Parse and validate annotations; returns (flat query list, video -> duration)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise AnnotationError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "videos" not in doc:
        raise AnnotationError(f"{path}: missing top-level 'videos' key")
    annotations: list[QueryAnnotation] = []
    durations: dict[str, float] = {}
    for vi, video in enumerate(doc["videos"]):
        for key in ("video_id", "duration_sec", "queries"):
            if key not in video:
                raise AnnotationError(f"videos[{vi}]: missing key {key!r}")
        vid = video["video_id"]
        duration = float(video["duration_sec"])
        if duration <= 0:
            raise AnnotationError(f"videos[{vi}] ({vid}): duration_sec must be positive")
        durations[vid] = duration
        for qi, q in enumerate(video["queries"]):
            for key in ("query_id", "start_sec", "end_sec"):
                if key not in q:
                    raise AnnotationError(f"videos[{vi}].queries[{qi}]: missing key {key!r}")
            start, end = float(q["start_sec"]), float(q["end_sec"])
            if not (0.0 <= start <= end <= duration):
                raise AnnotationError(
                    f"query {q['query_id']!r}: span [{start}, {end}] violates "
                    f"0 <= start <= end <= duration ({duration})")
            annotations.append(QueryAnnotation(
                video_id=vid, query_id=q["query_id"],
                text=q.get("text", ""), start_sec=start, end_sec=end))
    return annotations, durations


# ---------------------------------------------------------------------------
# frame sampling
# ---------------------------------------------------------------------------


def sample_frames(features: np.ndarray, target_t: int, duration_sec: float):
    """Uniform striding down (or repetition up) to exactly target_t rows.

    Row i of the output is input row floor(i * raw_t / target_t); temporal
    order is preserved.  Returns (sampled matrix, FrameGrid).
    """
    raw_t = features.shape[0]
    if raw_t < 1:
        raise ValueError("cannot sample from an empty feature matrix")
    if target_t < 2:
        raise ValueError(f"target_t must be >= 2, got {target_t}")
    idx = (np.arange(target_t, dtype=np.int64) * raw_t) // target_t
    return features[idx], FrameGrid(num_frames=target_t, duration_sec=duration_sec)


# ---------------------------------------------------------------------------
# synthetic planted-signal data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    num_videos: int = 4
    frames_per_video: int = 256  # raw frames; duration is 1 second per frame
    feature_dim: int = 32
    text_dim: int = 16
    tokens_per_query: int = 4
    queries_per_video: int = 1
    span_fraction_range: tuple[float, float] = (0.01, 0.08)
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.span_fraction_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"span_fraction_range must satisfy 0 < min <= max <= 1, got {self.span_fraction_range}")
        for name in ("num_videos", "frames_per_video", "feature_dim", "text_dim",
                     "tokens_per_query", "queries_per_video"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")


@dataclass
class Dataset:
    """In-memory dataset: per-video frame features, per-query token
    embeddings, and the flattened annotations."""

    video_features: dict[str, np.ndarray]
    text_features: dict[str, np.ndarray]
    annotations: list[QueryAnnotation]
    durations: dict[str, float]

    def __len__(self) -> int:
        return len(self.annotations)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic planted-signal dataset.

    Per query: a unit-norm signature u; token embeddings are u plus Gaussian
    noise.  Frames inside the ground-truth span are P @ u plus noise, where P
    is one fixed random text->feature map per dataset; frames outside are
    unit Gaussian noise, with signatures of queries from other videos added
    as distractors.
    """
    rng = np.random.default_rng(spec.seed)
    proj = rng.normal(size=(spec.feature_dim, spec.text_dim))
    duration = float(spec.frames_per_video)

    # Draw every query's signature and span first so distractors can borrow
    # signatures across videos.
    queries = []  # (video_idx, query_id, u, start_sec, end_sec)
    for v in range(spec.num_videos):
        taken: list[tuple[float, float]] = []
        for q in range(spec.queries_per_video):
            u = rng.normal(size=spec.text_dim)
            u /= np.linalg.norm(u)
            for _ in range(20):  # avoid overlapping spans within one video
                frac = rng.uniform(*spec.span_fraction_range)
                length = frac * duration
                start = rng.uniform(0.0, duration - length)
                end = start + length
                if all(end <= s or start >= e for s, e in taken):
                    break
            taken.append((start, end))
            queries.append((v, f"v{v:04d}_q{q}", u, start, end))

    video_features: dict[str, np.ndarray] = {}
    text_features: dict[str, np.ndarray] = {}
    annotation_rows: list[QueryAnnotation] = []
    durations: dict[str, float] = {}
    for v in range(spec.num_videos):
        vid = f"v{v:04d}"
        frames = rng.normal(size=(spec.frames_per_video, spec.feature_dim))
        own = [q for q in queries if q[0] == v]
        own_rows = np.zeros(spec.frames_per_video, dtype=bool)
        for _, qid, u, start, end in own:
            lo, hi = int(np.floor(start)), int(np.ceil(end))
            hi = min(hi, spec.frames_per_video)
            frames[lo:hi] = proj @ u + rng.normal(size=(hi - lo, spec.feature_dim)) * spec.noise_sigma
            own_rows[lo:hi] = True

        others = [q for q in queries if q[0] != v]
        if others:
            for _ in range(spec.queries_per_video):
                _, _, u, _, _ = others[rng.integers(len(others))]
                frac = rng.uniform(*spec.span_fraction_range)
                length = max(1, int(round(frac * spec.frames_per_video)))
                lo = int(rng.integers(0, spec.frames_per_video - length + 1))
                sel = np.arange(lo, lo + length)
                sel = sel[~own_rows[sel]]
                frames[sel] += proj @ u

        video_features[vid] = frames.astype(np.float32)
        durations[vid] = duration
        for _, qid, u, start, end in own:
            tokens = u[None, :] + rng.normal(size=(spec.tokens_per_query, spec.text_dim)) * spec.noise_sigma
            text_features[qid] = tokens.astype(np.float32)
            annotation_rows.append(QueryAnnotation(
                video_id=vid, query_id=qid, text="", start_sec=start, end_sec=end))
    return Dataset(video_features=video_features, text_features=text_features,
                   annotations=annotation_rows, durations=durations)


def split_dataset(dataset: Dataset, train_videos: int) -> tuple[Dataset, Dataset]:
    """Split one generated dataset into train/val by video, keeping the
    shared signal projection intact.

    The planted-signal construction uses one text->feature map per dataset;
    generating train and val separately (different seeds) would give them
    unrelated maps and make validation structurally impossible.  The first
    `train_videos` ids (sorted) go to train, the rest to val.
    """
    vids = sorted(dataset.video_features)
    if not (0 < train_videos < len(vids)):
        raise ValueError(
            f"train_videos must be in (0, {len(vids)}), got {train_videos}")
    train_ids = set(vids[:train_videos])

    def take(ids) -> Dataset:
        anns = [a for a in dataset.annotations if a.video_id in ids]
        return Dataset(
            video_features={v: dataset.video_features[v] for v in ids},
            text_features={a.query_id: dataset.text_features[a.query_id] for a in anns},
            annotations=anns,
            durations={v: dataset.durations[v] for v in ids},
        )

    return take(train_ids), take(set(vids[train_videos:]))


def save_dataset(dataset: Dataset, out_dir) -> None:
    """Materialize a dataset as the on-disk layout consumed by the CLI:
    video_features/ and text_features/ containers plus annotations.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_features(out_dir / "video_features", dataset.video_features)
    write_features(out_dir / "text_features", dataset.text_features)
    by_video: dict[str, list] = {vid: [] for vid in dataset.video_features}
    for a in dataset.annotations:
        by_video.setdefault(a.video_id, []).append({
            "query_id": a.query_id, "text": a.text,
            "start_sec": a.start_sec, "end_sec": a.end_sec,
        })
    write_annotations(out_dir / "annotations.json", [
        {"video_id": vid, "duration_sec": dataset.durations[vid], "queries": by_video[vid]}
        for vid in sorted(by_video)
    ])


def load_dataset(data_dir) -> Dataset:
    data_dir = Path(data_dir)
    annotations, durations = read_annotations(data_dir / "annotations.json")
    video_features = read_features(data_dir / "video_features")
    text_features = read_features(data_dir / "text_features")
    for a in annotations:
        if a.video_id not in video_features:
            raise AnnotationError(f"annotation {a.query_id!r} references missing video {a.video_id!r}")
        if a.query_id not in text_features:
            raise AnnotationError(f"no token embeddings stored for query {a.query_id!r}")
    return Dataset(video_features=video_features, text_features=text_features,
                   annotations=annotations, durations=durations)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    video: np.ndarray  # (B, T, Dv) float32, every frame valid
    text: np.ndarray  # (B, Lmax, Dt) float32, zero-padded
    text_mask: np.ndarray  # (B, Lmax) bool
    gt_index: np.ndarray  # (B, 2) float64, index units
    grids: list[FrameGrid]
    query_ids: list[str]
    video_ids: list[str]


def make_batches(dataset: Dataset, batch_size: int, target_t: int,
                 shuffle_seed: int, epoch: int = 0, shuffle: bool = True):
    """Yield padded batches; order is a deterministic shuffle of the query
    list keyed by (shuffle_seed, epoch).

    Videos are resampled to exactly target_t rows (sampled once per video and
    reused); ground truth is converted to index units on each video's grid.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(dataset) == 0:
        raise ValueError("cannot batch an empty dataset")
    order = np.arange(len(dataset))
    if shuffle:
        np.random.default_rng([int(shuffle_seed), int(epoch)]).shuffle(order)

    sampled: dict[str, tuple[np.ndarray, FrameGrid]] = {}
    for start in range(0, len(order), batch_size):
        chunk = [dataset.annotations[i] for i in order[start:start + batch_size]]
        b = len(chunk)
        lmax = max(dataset.text_features[a.query_id].shape[0] for a in chunk)
        dv = next(iter(dataset.video_features.values())).shape[1]
        dt = next(iter(dataset.text_features.values())).shape[1]
        video = np.zeros((b, target_t, dv), dtype=np.float32)
        text = np.zeros((b, lmax, dt), dtype=np.float32)
        text_mask = np.zeros((b, lmax), dtype=bool)
        gt_index = np.zeros((b, 2), dtype=np.float64)
        grids = []
        for j, a in enumerate(chunk):
            if a.video_id not in sampled:
                sampled[a.video_id] = sample_frames(
                    dataset.video_features[a.video_id], target_t, dataset.durations[a.video_id])
            frames, grid = sampled[a.video_id]
            video[j] = frames
            tokens = dataset.text_features[a.query_id]
            text[j, :tokens.shape[0]] = tokens
            text_mask[j, :tokens.shape[0]] = True
            span = sec_to_index(TimeSpan(a.start_sec, a.end_sec, Units.SECONDS), grid)
            gt_index[j] = (span.start, span.end)
            grids.append(grid)
        yield Batch(
            video=video, text=text, text_mask=text_mask, gt_index=gt_index, grids=grids,
            query_ids=[a.query_id for a in chunk],
            video_ids=[a.video_id for a in chunk],
        )
