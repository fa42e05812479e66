"""Finite-difference verification of every backward pass.

Checks run in float64 with central differences (default step 1e-5).  For a
layer f and a fixed random upstream U, the scalar s(theta) = sum(U * f(theta))
has analytic gradient given by backward(U); each parameter and the input are
perturbed elementwise and compared.

Relative error for a pair (a, n): |a - n| / max(|a| + |n|, 1e-12), reduced
with max over elements.  Anything above ~1e-6 at 64-bit usually means a real
bug, so the 1e-4 gate is generous.
"""

from __future__ import annotations

import numpy as np

from .layers import (SAME, ChannelsFirstReshape, ClassHead, Conv1D, Conv2D,
                     Dense, Flatten, InceptionNucleus, LayerSpec, MaxPool1D,
                     MaxPool2D, ReLU, softmax_xent)
from .model import build_from_specs
from .tensor import CHECK_DTYPE

STEP = 1e-5
TOLERANCE = 1e-4


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _numeric_grad(scalar_fn, arr: np.ndarray, step: float = STEP) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = scalar_fn()
        flat[i] = orig - step
        lo = scalar_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def check_layer(layer, x: np.ndarray, rng: np.random.Generator,
                step: float = STEP) -> dict[str, float]:
    """Compare analytic and numeric gradients for one layer instance.

    Returns max relative error keyed by 'dx' and each parameter name.
    """
    upstream = rng.standard_normal(layer.forward(x, cache=False).shape).astype(CHECK_DTYPE)

    def scalar() -> float:
        return float(np.sum(upstream * layer.forward(x, cache=False)))

    layer.forward(x, cache=True)
    dx = layer.backward(upstream)
    errors = {"dx": max_rel_error(dx, _numeric_grad(scalar, x, step))}
    for owner in layer.param_owners():
        for role, param in owner.params.items():
            errors[f"{owner.name}.{role}"] = max_rel_error(
                owner.grads[role], _numeric_grad(scalar, param, step))
    return errors


def _tiny_layers(rng):
    """Small float64 instances of every layer kind, with inputs clear of
    max-pool ties and ReLU kinks."""
    f64 = CHECK_DTYPE

    def waveform(ch, n):
        x = rng.standard_normal((ch, n)).astype(f64)
        return x + 0.2 * np.sign(x)  # keep |x| away from the ReLU kink

    cases = {
        "conv1d_valid": (Conv1D(2, 3, 4, 2, "valid", rng, f64), waveform(2, 13)),
        "conv1d_same": (Conv1D(2, 3, 5, 3, SAME, rng, f64), waveform(2, 14)),
        "conv2d_valid": (Conv2D(2, 3, (3, 3), (1, 1), "valid", rng, f64),
                         rng.standard_normal((2, 6, 7)).astype(f64)),
        "conv2d_same": (Conv2D(1, 2, (3, 3), (1, 1), SAME, rng, f64),
                        rng.standard_normal((1, 5, 5)).astype(f64)),
        "maxpool1d": (MaxPool1D(3, 1), waveform(2, 11)),
        "maxpool2d": (MaxPool2D((2, 2), (2, 2)), rng.standard_normal((2, 6, 6)).astype(f64)),
        "relu": (ReLU(), waveform(3, 9)),
        "reshape_channels_first": (ChannelsFirstReshape(), waveform(3, 7)),
        "flatten": (Flatten(), rng.standard_normal((2, 3, 4)).astype(f64)),
        "dense": (Dense(10, 4, rng, f64), rng.standard_normal(10).astype(f64)),
        "class_head": (ClassHead(3), rng.standard_normal((3, 4, 5)).astype(f64)),
        "inception_nucleus": (_tiny_inception(rng, f64), waveform(2, 12)),
        # 9 * 8 = 72 input taps at stride 1: the shift-GEMM path
        "conv1d_shift": (Conv1D(9, 2, 8, 1, SAME, rng, f64), waveform(9, 11)),
    }
    return cases


def _tiny_inception(rng, dtype):
    b1 = [Conv1D(2, 3, 2, 2, SAME, rng, dtype, name="b1c0")]
    b2 = [Conv1D(2, 2, 3, 2, SAME, rng, dtype, name="b2c0"),
          ReLU(),
          Conv1D(2, 2, 3, 1, SAME, rng, dtype, name="b2c1")]
    return InceptionNucleus([b1, b2])


def check_all_layers(seed: int = 0, step: float = STEP) -> dict[str, float]:
    """Max relative error per layer kind on small randomized instances."""
    rng = np.random.default_rng(seed)
    results = {}
    for kind, (layer, x) in _tiny_layers(rng).items():
        errors = check_layer(layer, x, rng, step)
        results[kind] = max(errors.values())
    return results


def check_end_to_end(seed: int = 0, step: float = STEP) -> float:
    """Gradient of the full loss through a reduced conv-relu-conv-head model."""
    rng = np.random.default_rng(seed)
    specs = [
        LayerSpec("conv1d", channels=4, kernel=(5,), stride=(3,), padding=SAME),
        LayerSpec("relu"),
        LayerSpec("conv1d", channels=3, kernel=(3,), stride=(2,), padding=SAME),
        LayerSpec("class_head", channels=3),
    ]
    model = build_from_specs(specs, num_classes=3, input_samples=32,
                             seed=seed, dtype=CHECK_DTYPE)
    x = rng.standard_normal(32).astype(CHECK_DTYPE)
    x += 0.2 * np.sign(x)
    true_class = 1

    def scalar() -> float:
        loss, _, _ = softmax_xent(model.forward(x), true_class)
        return loss

    _, _, dlogits = softmax_xent(model.forward(x, cache=True), true_class)
    analytic = model.backward(dlogits)
    worst = 0.0
    for grad, param in zip(analytic, model.parameter_arrays()):
        worst = max(worst, max_rel_error(grad, _numeric_grad(scalar, param, step)))
    return worst


def run_full_check(seed: int = 0, step: float = STEP) -> dict[str, float]:
    """Per-layer table plus the reduced end-to-end model, as one dict."""
    results = check_all_layers(seed, step)
    results["end_to_end"] = check_end_to_end(seed, step)
    return results
