"""Binary checkpoint container.

Layout: magic "NLQC", u32 LE format version, u64 LE length-prefixed JSON
header (encoder config, seed, parameter manifest with name/rows/cols/offset),
then raw little-endian float32 payloads in manifest order.  Offsets are
relative to the start of the payload section.

A checkpoint is written to a temporary file in the same directory and then
renamed over the target, so a failed write leaves the previous file intact.
Loading checks the config keys and the manifest against the parameter
shapes the config implies, and names the offending key or parameter.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np

from .model import EncoderConfig, GroundingModel, parameter_shapes

MAGIC = b"NLQC"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(model: GroundingModel, path) -> None:
    path = Path(path)
    manifest = []
    payloads = []
    offset = 0
    for name, p in model.params.items():
        raw = np.ascontiguousarray(p, dtype="<f4")
        manifest.append({"name": name, "rows": p.shape[0], "cols": p.shape[1], "offset": offset})
        payloads.append(raw.tobytes())
        offset += raw.nbytes
    header = json.dumps({
        "config": dataclasses.asdict(model.config),
        "seed": model.rng_seed,
        "manifest": manifest,
    }).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", FORMAT_VERSION))
            f.write(struct.pack("<Q", len(header)))
            f.write(header)
            for blob in payloads:
                f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> GroundingModel:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if len(blob) < header_end:
        raise CheckpointError(f"{path}: truncated JSON header")
    try:
        header = json.loads(blob[16:header_end])
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: invalid JSON header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: JSON header is not an object")

    config = _checked_config(path, header)
    expected = {name: (rows, cols) for name, rows, cols in parameter_shapes(config)}
    manifest = header.get("manifest")
    if not isinstance(manifest, list):
        raise CheckpointError(f"{path}: header has no parameter manifest")
    payload = blob[header_end:]
    params: dict[str, np.ndarray] = {}
    for entry in manifest:
        try:
            name, rows, cols, start = entry["name"], entry["rows"], entry["cols"], entry["offset"]
        except (KeyError, TypeError) as e:
            raise CheckpointError(f"{path}: malformed manifest entry {entry!r}") from e
        if not isinstance(name, str) or name not in expected or name in params:
            raise CheckpointError(f"{path}: unexpected or repeated parameter {name!r}")
        if any(type(v) is not int for v in (rows, cols, start)) or start < 0:
            raise CheckpointError(f"{path}: parameter {name!r} has a non-integer size or a "
                                  f"bad offset")
        if (rows, cols) != expected[name]:
            raise CheckpointError(f"{path}: parameter {name!r} is {rows}x{cols}, the config "
                                  f"implies {expected[name][0]}x{expected[name][1]}")
        nbytes = rows * cols * 4
        if start + nbytes > len(payload):
            raise CheckpointError(f"{path}: payload truncated at parameter {name!r}")
        arr = np.frombuffer(payload[start:start + nbytes], dtype="<f4").reshape(rows, cols)
        params[name] = arr.astype(np.float32)
    missing = [name for name in expected if name not in params]
    if missing:
        raise CheckpointError(f"{path}: parameter {missing[0]!r} missing from the manifest")
    seed = header.get("seed", 0)
    if type(seed) is not int:
        raise CheckpointError(f"{path}: seed {seed!r} is not an integer")
    return GroundingModel(config=config, rng_seed=seed, params=params)


def _checked_config(path: Path, header: dict) -> EncoderConfig:
    """The header's encoder config, which must name every EncoderConfig field
    and nothing else."""
    config = header.get("config")
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: header has no encoder config")
    fields = [f.name for f in dataclasses.fields(EncoderConfig)]
    for key in config:
        if key not in fields:
            raise CheckpointError(f"{path}: unknown config key {key!r}")
    for key in fields:
        if key not in config:
            raise CheckpointError(f"{path}: config key {key!r} missing")
    try:
        return EncoderConfig(**config)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad encoder config: {e}") from e
