"""Model checkpoints.

A checkpoint is a matrix file (`data.write_matrices`) of the model's
parameters in `parameter_shapes` order, whose header adds the encoder config
(anchor lattice included) and the initialisation seed ahead of the manifest.
Loading checks the config keys, and the parameter names and shapes against
those the config implies, and names the offending key or parameter; the
matrix file writer and reader refuse a parameter holding NaN or Inf.
"""

from __future__ import annotations

import dataclasses

from ..anchors import AnchorConfig
from ..data import MatrixFileError, read_matrices, write_matrices
from .model import EncoderConfig, GroundingModel, parameter_shapes


def save_checkpoint(model: GroundingModel, path) -> None:
    write_matrices(path, model.params,
                   {"config": dataclasses.asdict(model.config), "seed": model.rng_seed})


def load_checkpoint(path) -> GroundingModel:
    header, params = read_matrices(path)
    config = _checked_config(path, header.get("config"), EncoderConfig, "config")
    anchors = _checked_config(path, config["anchors"], AnchorConfig, "config.anchors")
    try:
        config = EncoderConfig(**dict(config, anchors=AnchorConfig(**anchors)))
    except (TypeError, ValueError) as e:
        raise MatrixFileError(f"{path}: bad encoder config: {e}") from e
    expected = {name: (rows, cols) for name, rows, cols in parameter_shapes(config)}
    for name, p in params.items():
        if name not in expected:
            raise MatrixFileError(f"{path}: unexpected parameter {name!r}")
        if p.shape != expected[name]:
            raise MatrixFileError(f"{path}: parameter {name!r} is {p.shape[0]}x{p.shape[1]}, the "
                                  f"config implies {expected[name][0]}x{expected[name][1]}")
    missing = [name for name in expected if name not in params]
    if missing:
        raise MatrixFileError(f"{path}: parameter {missing[0]!r} missing from the manifest")
    seed = header.get("seed", 0)
    if type(seed) is not int:
        raise MatrixFileError(f"{path}: seed {seed!r} is not an integer")
    return GroundingModel(config=config, rng_seed=seed, params=params)


def _checked_config(path, section, cls, where: str) -> dict:
    """A header object that must name every field of `cls` and nothing else."""
    if not isinstance(section, dict):
        raise MatrixFileError(f"{path}: header {where} is not an object")
    fields = [f.name for f in dataclasses.fields(cls)]
    for key in section:
        if key not in fields:
            raise MatrixFileError(f"{path}: unknown {where} key {key!r}")
    for key in fields:
        if key not in section:
            raise MatrixFileError(f"{path}: {where} key {key!r} missing")
    return section
