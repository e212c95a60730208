from .checkpoint import load_checkpoint, save_checkpoint
from .model import (
    CONF_EPS,
    EncoderConfig,
    GroundingModel,
    InvalidStateError,
    init_model,
    parameter_shapes,
    sinusoidal_positions,
)

__all__ = [
    "CONF_EPS",
    "EncoderConfig",
    "GroundingModel",
    "InvalidStateError",
    "init_model",
    "load_checkpoint",
    "parameter_shapes",
    "save_checkpoint",
    "sinusoidal_positions",
]
