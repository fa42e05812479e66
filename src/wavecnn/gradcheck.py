"""Finite-difference verification of every backward pass.

Checks run in float64 with central differences at step STEP = 1e-5.  For a
chain of layers f, run by the walkers a model runs, and a fixed random
upstream U, the scalar s(theta) = sum(U * f(theta)) has analytic gradient
given by the backward walk; each parameter and the input are perturbed
elementwise and compared.

Relative error for a pair (a, n): |a - n| / max(|a| + |n|, 1e-12), reduced
with max over elements.  Anything above ~1e-6 at 64-bit usually means a real
bug, so the 1e-4 gate is generous.
"""

from __future__ import annotations

import numpy as np

from .layers import (SAME, ChannelsFirstReshape, ClassHead, Conv1D, Conv2D,
                     Dense, Flatten, InceptionNucleus, LayerSpec, MaxPool1D,
                     MaxPool2D, ReLU, param_slots, run_backward, run_forward,
                     softmax_xent)
from .model import build_from_specs
from .tensor import CHECK_DTYPE

STEP = 1e-5
TOLERANCE = 1e-4


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _numeric_grad(scalar_fn, arr: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        hi = scalar_fn()
        flat[i] = orig - STEP
        lo = scalar_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * STEP)
    return grad


def check_chain(layers: list, x: np.ndarray, rng: np.random.Generator) -> dict[str, float]:
    """Compare analytic and numeric gradients for ``layers`` applied in order.

    Returns max relative error keyed by 'dx' and each parameter name.
    """
    out, tapes = run_forward(layers, x, cache=True)
    upstream = rng.standard_normal(out.shape).astype(CHECK_DTYPE)

    def scalar() -> float:
        return float(np.sum(upstream * run_forward(layers, x, cache=False)[0]))

    dx, grads = run_backward(layers, tapes, upstream)
    errors = {"dx": max_rel_error(dx, _numeric_grad(scalar, x))}
    for (owner, role), grad in zip(param_slots(layers), grads):
        errors[f"{owner.name}.{role}"] = max_rel_error(
            grad, _numeric_grad(scalar, owner.params[role]))
    return errors


def _cases(rng: np.random.Generator, seed: int) -> dict[str, tuple[list, np.ndarray]]:
    """Every checked chain with its input: a small float64 instance of each
    layer kind, then the reduced conv-relu-conv-head model, whose ReLU the
    build makes in place.  Inputs stay clear of max-pool ties and ReLU kinks."""
    f64 = CHECK_DTYPE

    def waveform(ch, n):
        x = rng.standard_normal((ch, n)).astype(f64)
        return x + 0.2 * np.sign(x)  # keep |x| away from the ReLU kink

    def image(*shape):
        return rng.standard_normal(shape).astype(f64)

    nucleus = InceptionNucleus([
        [Conv1D(2, 3, 2, 2, SAME, rng, f64, name="b1c0")],
        [Conv1D(2, 2, 3, 2, SAME, rng, f64, name="b2c0"),
         ReLU(),
         Conv1D(2, 2, 3, 1, SAME, rng, f64, name="b2c1")]])
    cases = {
        "conv1d_valid": ([Conv1D(2, 3, 4, 2, "valid", rng, f64)], waveform(2, 13)),
        "conv1d_same": ([Conv1D(2, 3, 5, 3, SAME, rng, f64)], waveform(2, 14)),
        "conv2d_valid": ([Conv2D(2, 3, (3, 3), (1, 1), "valid", rng, f64)], image(2, 6, 7)),
        "conv2d_same": ([Conv2D(1, 2, (3, 3), (1, 1), SAME, rng, f64)], image(1, 5, 5)),
        "maxpool1d": ([MaxPool1D(3, 1)], waveform(2, 11)),
        "maxpool2d": ([MaxPool2D((2, 2), (2, 2))], image(2, 6, 6)),
        "relu": ([ReLU()], waveform(3, 9)),
        "reshape_channels_first": ([ChannelsFirstReshape()], waveform(3, 7)),
        "flatten": ([Flatten()], image(2, 3, 4)),
        "dense": ([Dense(10, 4, rng, f64)], image(10)),
        "class_head": ([ClassHead(3)], image(3, 4, 5)),
        "inception_nucleus": ([nucleus], waveform(2, 12)),
        # 9 * 8 = 72 input taps at stride 1: the shift-GEMM path
        "conv1d_shift": ([Conv1D(9, 2, 8, 1, SAME, rng, f64)], waveform(9, 11)),
    }
    specs = [LayerSpec("conv1d", channels=4, kernel=(5,), stride=(3,), padding=SAME),
             LayerSpec("relu"),
             LayerSpec("conv1d", channels=3, kernel=(3,), stride=(2,), padding=SAME),
             LayerSpec("class_head", channels=3)]
    model = build_from_specs(specs, input_samples=32, seed=seed, dtype=f64)
    cases["end_to_end"] = (model.layers, waveform(1, 32))
    return cases


def run_full_check(seed: int = 0) -> dict[str, float]:
    """Max relative error per case of the table above, then of softmax
    cross-entropy's ``dlogits`` against its loss on random logits."""
    rng = np.random.default_rng(seed)
    results = {kind: max(check_chain(layers, x, rng).values())
               for kind, (layers, x) in _cases(rng, seed).items()}
    logits = rng.standard_normal(4).astype(CHECK_DTYPE)
    dlogits = softmax_xent(logits, 1)[2]
    results["softmax_xent"] = max_rel_error(
        dlogits, _numeric_grad(lambda: softmax_xent(logits, 1)[0], logits))
    return results
