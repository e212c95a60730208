"""Dataset I/O, key-frame sampling, batching, and the synthetic
planted-signal generator.

Named float32 matrices (frame features, token embeddings, model parameters)
travel in one bit-exact binary format, the matrix file; annotations are a
small JSON schema.  The synthetic generator plants a per-query signature
vector into the frames of the ground-truth span through a fixed linear map,
so localization is solvable only by cross-modal matching, which is exactly
the mechanism under test.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import require_int, require_number, sec_to_index

MATRIX_MAGIC = b"NLQC"
MATRIX_VERSION = 1
ANNOTATION_VERSION = "1.0"


class MatrixFileError(ValueError):
    """Malformed matrix file, or one whose contents its reader refuses."""


class AnnotationError(ValueError):
    """Annotation document violates the schema or a span invariant."""


# ---------------------------------------------------------------------------
# matrix file
# ---------------------------------------------------------------------------


def write_matrices(path, matrices: dict[str, np.ndarray], header: dict) -> None:
    """Write named matrices, in the map's order, as one matrix file: magic
    "NLQC", u32 LE version, u64 LE header length, a JSON header (`header`'s
    keys, then "manifest": {name, rows, cols, offset} per matrix, offsets
    counted from the header's end), then the row-major LE float32 payloads,
    which must be finite.  The file is written beside `path` and renamed over
    it, so a failed write leaves the previous file intact."""
    path = Path(path)
    manifest, payloads, offset = [], [], 0
    for name, m in matrices.items():
        raw = np.ascontiguousarray(m, dtype="<f4")
        if raw.ndim != 2 or 0 in raw.shape:
            raise ValueError(f"{path}: matrix {name!r} must be 2-D with at least one row "
                             f"and one column, got shape {raw.shape}")
        if not np.isfinite(raw).all():
            raise ValueError(f"{path} (id {name!r}): payload holds NaN or Inf")
        manifest.append(dict(name=name, rows=raw.shape[0], cols=raw.shape[1], offset=offset))
        payloads.append(raw)
        offset += raw.nbytes
    blob = json.dumps({**header, "manifest": manifest}).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MATRIX_MAGIC + struct.pack("<IQ", MATRIX_VERSION, len(blob)) + blob)
            for raw in payloads:
                f.write(raw.tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_matrices(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(header less its manifest, name -> matrix) of a matrix file.  Each
    entry must lie inside the payloads, which are read into one buffer and
    copied out per matrix, and hold finite values only.  Every error names
    the file, and the manifest entry where there is one."""
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(16)
        if head[:4] != MATRIX_MAGIC:
            raise MatrixFileError(f"{path}: bad magic {head[:4]!r}, expected {MATRIX_MAGIC!r}")
        if len(head) < 16:
            raise MatrixFileError(f"{path}: truncated header")
        version, header_len = struct.unpack_from("<IQ", head, 4)
        if version != MATRIX_VERSION:
            raise MatrixFileError(f"{path}: unsupported format version {version}")
        raw = f.read(header_len)
        if len(raw) < header_len:
            raise MatrixFileError(f"{path}: truncated JSON header")
        payload = f.read()
    try:
        header = json.loads(raw)
    except ValueError as e:  # undecodable bytes or bad JSON
        raise MatrixFileError(f"{path}: invalid JSON header: {e}") from e
    manifest = header.pop("manifest", None) if isinstance(header, dict) else None
    if not isinstance(manifest, list):
        raise MatrixFileError(f"{path}: the JSON header is not an object with a manifest list")
    matrices: dict[str, np.ndarray] = {}
    for i, entry in enumerate(manifest):
        try:
            name, rows, cols, offset = entry["name"], entry["rows"], entry["cols"], entry["offset"]
        except (KeyError, TypeError):
            raise MatrixFileError(f"{path}: malformed manifest entry {i}: {entry!r}") from None
        if not isinstance(name, str) or name in matrices:
            raise MatrixFileError(f"{path}: manifest entry {i} has a bad or repeated name {name!r}")
        where = f"{path} (id {name!r})"
        if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
            raise MatrixFileError(f"{where}: size {rows!r}x{cols!r} is not at least 1x1")
        if type(offset) is not int or offset < 0:
            raise MatrixFileError(f"{where}: offset {offset!r} is not an integer >= 0")
        if offset + rows * cols * 4 > len(payload):
            raise MatrixFileError(f"{where}: payload truncated")
        flat = np.frombuffer(payload, "<f4", rows * cols, offset)
        if not np.isfinite(flat).all():
            raise MatrixFileError(f"{where}: payload holds NaN or Inf")
        matrices[name] = flat.reshape(rows, cols).copy()
    return header, matrices


def write_features(path, matrices: dict[str, np.ndarray]) -> None:
    """Write an id -> matrix map of finite values, in id order."""
    write_matrices(path, {mid: matrices[mid] for mid in sorted(matrices)}, {})


def read_features(path) -> dict[str, np.ndarray]:
    """Read `write_features` output."""
    return read_matrices(path)[1]


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


def _number(obj: dict, key: str, where: str) -> float:
    """obj[key] as a float: a JSON number (an int or a float, not a bool or a
    string) that fits one, or an AnnotationError naming `where` and the key."""
    try:
        if type(obj[key]) not in (int, float):
            raise TypeError
        return float(obj[key])
    except (TypeError, OverflowError):
        raise AnnotationError(f"{where}: {key!r} is not a number: {obj[key]!r}") from None


def _objects(items, where: str) -> list:
    """`items` if it is a list of JSON objects, else an AnnotationError
    naming `where` or the offending element."""
    if not isinstance(items, list):
        raise AnnotationError(f"{where} must be a list")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise AnnotationError(f"{where}[{i}] must be an object")
    return items


def read_annotations(path) -> tuple[list[QueryAnnotation], dict[str, float]]:
    """Parse and validate annotations; returns (flat query list, video -> duration).

    Every error names the offending `videos[i]` or `videos[i].queries[j]`
    and key; a video or query id used twice names both positions."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # undecodable bytes, bad JSON or an integer too long to convert
        raise AnnotationError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "videos" not in doc:
        raise AnnotationError(f"{path}: missing top-level 'videos' key")
    annotations: list[QueryAnnotation] = []
    durations: dict[str, float] = {}
    video_at: dict[str, str] = {}  # id -> position of its first use
    query_at: dict[str, str] = {}
    for vi, video in enumerate(_objects(doc["videos"], "videos")):
        for key in ("video_id", "duration_sec", "queries"):
            if key not in video:
                raise AnnotationError(f"videos[{vi}]: missing key {key!r}")
        vid = video["video_id"]
        if not isinstance(vid, str):
            raise AnnotationError(f"videos[{vi}]: 'video_id' must be a string, got {vid!r}")
        if vid in video_at:
            raise AnnotationError(f"videos[{vi}]: video_id {vid!r} repeats {video_at[vid]}")
        video_at[vid] = f"videos[{vi}]"
        duration = _number(video, "duration_sec", f"videos[{vi}] ({vid})")
        if not (0.0 < duration < math.inf):
            raise AnnotationError(
                f"videos[{vi}] ({vid}): duration_sec must be positive and finite, got {duration}")
        durations[vid] = duration
        for qi, q in enumerate(_objects(video["queries"], f"videos[{vi}].queries")):
            where = f"videos[{vi}].queries[{qi}]"
            for key in ("query_id", "start_sec", "end_sec"):
                if key not in q:
                    raise AnnotationError(f"{where}: missing key {key!r}")
            qid = q["query_id"]
            if not isinstance(qid, str):
                raise AnnotationError(f"{where}: 'query_id' must be a string, got {qid!r}")
            if qid in query_at:
                raise AnnotationError(f"{where}: query_id {qid!r} repeats {query_at[qid]}")
            query_at[qid] = where
            start, end = _number(q, "start_sec", where), _number(q, "end_sec", where)
            if not (0.0 <= start <= end <= duration):
                raise AnnotationError(
                    f"{where} (query {qid!r}): span [{start}, {end}] violates "
                    f"0 <= start <= end <= duration ({duration})")
            annotations.append(QueryAnnotation(
                video_id=vid, query_id=qid,
                text=q.get("text", ""), start_sec=start, end_sec=end))
    return annotations, durations


# ---------------------------------------------------------------------------
# frame sampling
# ---------------------------------------------------------------------------


def sample_frames(features: np.ndarray, target_t: int) -> np.ndarray:
    """Uniform striding down (or repetition up) to exactly target_t >= 2
    rows.

    Row i of the output is input row floor(i * raw_t / target_t); temporal
    order is preserved.  The rows stand for target_t key frames spread
    uniformly over the video's duration.
    """
    raw_t = features.shape[0]
    if raw_t < 1:
        raise ValueError("cannot sample from an empty feature matrix")
    if target_t < 2:
        raise ValueError(f"target_t must be >= 2, got {target_t}")
    idx = (np.arange(target_t, dtype=np.int64) * raw_t) // target_t
    return features[idx]


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
            require_int(self, name, 1)
        require_number(self, "noise_sigma", "[0, inf)")


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
    annotations.json plus the matrix files video_features.nlqc and
    text_features.nlqc."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_features(out_dir / "video_features.nlqc", dataset.video_features)
    write_features(out_dir / "text_features.nlqc", dataset.text_features)
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


def _read_one_width(path) -> dict[str, np.ndarray]:
    """`read_features`, where every matrix must have the first one's column
    count, as a dataset's batches need."""
    matrices = read_features(path)
    first_id = next(iter(matrices), None)
    for mid, m in matrices.items():
        if m.shape[1] != matrices[first_id].shape[1]:
            raise MatrixFileError(f"{path}: id {mid!r} has {m.shape[1]} columns, but id "
                                  f"{first_id!r} has {matrices[first_id].shape[1]}")
    return matrices


def load_dataset(data_dir) -> Dataset:
    data_dir = Path(data_dir)
    annotations, durations = read_annotations(data_dir / "annotations.json")
    video_features = _read_one_width(data_dir / "video_features.nlqc")
    text_features = _read_one_width(data_dir / "text_features.nlqc")
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
    videos: np.ndarray  # (U, T, Dv) float32, each distinct video once, first-seen order
    video_rows: np.ndarray  # (B,) intp, each item's row of `videos`
    text: np.ndarray  # (B, Lmax, Dt) float32, zero-padded
    text_mask: np.ndarray  # (B, Lmax) bool
    gt_index: np.ndarray  # (B, 2) float64, index units
    durations: np.ndarray  # (B,) float64, each item's video length in seconds
    query_ids: list[str]
    video_ids: list[str]


def make_batches(dataset: Dataset, batch_size: int, target_t: int,
                 shuffle_seed: int, epoch: int = 0, shuffle: bool = True):
    """Yield padded batches; order is a deterministic shuffle of the query
    list keyed by (shuffle_seed, epoch).

    Videos are resampled to exactly target_t rows (sampled once per video and
    reused), and a batch carries each distinct video once however many of
    its queries it holds; ground truth is converted to index units on each
    video's timeline of target_t frames over its duration.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(dataset) == 0:
        raise ValueError("cannot batch an empty dataset")
    order = np.arange(len(dataset))
    if shuffle:
        np.random.default_rng([int(shuffle_seed), int(epoch)]).shuffle(order)

    sampled: dict[str, np.ndarray] = {}
    for start in range(0, len(order), batch_size):
        chunk = [dataset.annotations[i] for i in order[start:start + batch_size]]
        b = len(chunk)
        lmax = max(dataset.text_features[a.query_id].shape[0] for a in chunk)
        dt = next(iter(dataset.text_features.values())).shape[1]
        text = np.zeros((b, lmax, dt), dtype=np.float32)
        text_mask = np.zeros((b, lmax), dtype=bool)
        rows: dict[str, int] = {}  # video id -> its row of `videos`
        for j, a in enumerate(chunk):
            rows.setdefault(a.video_id, len(rows))
            if a.video_id not in sampled:
                sampled[a.video_id] = sample_frames(dataset.video_features[a.video_id], target_t)
            tokens = dataset.text_features[a.query_id]
            text[j, :tokens.shape[0]] = tokens
            text_mask[j, :tokens.shape[0]] = True
        durations = np.array([dataset.durations[a.video_id] for a in chunk], dtype=np.float64)
        gt_index = sec_to_index([(a.start_sec, a.end_sec) for a in chunk], target_t, durations)
        yield Batch(
            videos=np.stack([sampled[vid] for vid in rows], dtype=np.float32),
            video_rows=np.array([rows[a.video_id] for a in chunk], dtype=np.intp),
            text=text, text_mask=text_mask, gt_index=gt_index, durations=durations,
            query_ids=[a.query_id for a in chunk],
            video_ids=[a.video_id for a in chunk],
        )
