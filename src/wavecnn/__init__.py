"""wavecnn: raw-waveform CNN classifier for 1-second 8 kHz audio clips.

A self-contained numpy implementation of two end-to-end convolutional
architectures (with and without a multi-kernel "inception nucleus"), the
training loop (Adam, Glorot init, L2 penalty), the audio ingestion pipeline
(WAV decode, resample, clip, standardize), dataset/task handling with
leave-one-family-out splits, and a synthetic corpus generator for testing.
"""

from .layers import LayerSpec, softmax_xent
from .model import (INPUT_SAMPLES, WITH_INCEPTION, WITHOUT_INCEPTION, Model,
                    ModelConfig, build_from_specs, build_model, load_weights,
                    save_weights)
from .optim import Adam, glorot_init, l2_penalty
from .tensor import CHECK_DTYPE, DTYPE, ShapeError, Tensor

__version__ = "0.1.0"

__all__ = [
    "Adam", "CHECK_DTYPE", "DTYPE", "INPUT_SAMPLES", "LayerSpec", "Model",
    "ModelConfig", "ShapeError", "Tensor", "WITH_INCEPTION", "WITHOUT_INCEPTION",
    "build_from_specs", "build_model", "glorot_init", "l2_penalty",
    "load_weights", "save_weights", "softmax_xent",
]
