from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .gradcheck import GradCheckReport, gradcheck
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
    "CheckpointError",
    "EncoderConfig",
    "GradCheckReport",
    "GroundingModel",
    "InvalidStateError",
    "gradcheck",
    "init_model",
    "load_checkpoint",
    "parameter_shapes",
    "save_checkpoint",
    "sinusoidal_positions",
]
