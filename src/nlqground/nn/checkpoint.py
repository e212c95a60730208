"""Model checkpoints.

A checkpoint is a matrix file (`data.write_matrices`) of the model's
parameters in `parameter_shapes` order, whose header adds the encoder config
(anchor lattice included) and the initialisation seed ahead of the manifest.
Loading builds the config by the run config's rules, but requires every
key; it checks the seed, and the parameter names and shapes against those
the config implies, and names the offending key or parameter; the matrix
file writer and reader refuse a parameter holding NaN or Inf.
"""

from __future__ import annotations

import dataclasses

from ..core import config_from_json
from ..data import MatrixFileError, read_matrices, write_matrices
from .model import EncoderConfig, GroundingModel, parameter_shapes


def save_checkpoint(model: GroundingModel, path) -> None:
    write_matrices(path, model.params,
                   {"config": dataclasses.asdict(model.config), "seed": model.rng_seed})


def load_checkpoint(path) -> GroundingModel:
    header, params = read_matrices(path)
    try:
        config = config_from_json(EncoderConfig, header.get("config"), f"{path}: config",
                                  exact=True)
    except ValueError as e:
        raise MatrixFileError(str(e)) from e
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
    seed = header.get("seed")
    if type(seed) is not int or seed < 0:  # the rule of core.require_int
        raise MatrixFileError(f"{path}: seed {seed!r} is not an integer >= 0")
    return GroundingModel(config=config, rng_seed=seed, params=params)
