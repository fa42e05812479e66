"""Finite-difference verification of every backward pass (64-bit, central
differences, step 1e-5, relative error < 1e-4)."""

import numpy as np
import pytest

from wavecnn.gradcheck import (STEP, TOLERANCE, check_all_layers, check_end_to_end,
                               check_layer, max_rel_error)
from wavecnn.layers import SAME, Conv1D, Conv2D
from wavecnn.tensor import CHECK_DTYPE


def test_every_layer_kind_below_tolerance():
    results = check_all_layers(seed=0)
    expected_kinds = {"conv1d_valid", "conv1d_same", "conv1d_shift", "conv2d_valid",
                      "conv2d_same", "maxpool1d", "maxpool2d", "relu",
                      "reshape_channels_first", "flatten", "dense", "class_head",
                      "inception_nucleus"}
    assert expected_kinds <= set(results)
    for kind, err in results.items():
        assert err < TOLERANCE, f"{kind}: {err:.3e}"


def test_reduced_end_to_end_model_below_tolerance():
    assert check_end_to_end(seed=0) < TOLERANCE


def test_strided_conv2d_cols_path():
    # stride > 1 exercises the im2col fallback rather than the shift path
    rng = np.random.default_rng(1)
    layer = Conv2D(2, 3, (3, 2), (2, 2), SAME, rng, CHECK_DTYPE)
    x = rng.standard_normal((2, 9, 8)).astype(CHECK_DTYPE)
    errors = check_layer(layer, x, rng)
    assert max(errors.values()) < TOLERANCE


def test_wide_stride_conv1d_like_first_model_layer():
    rng = np.random.default_rng(2)
    layer = Conv1D(1, 4, 16, 4, SAME, rng, CHECK_DTYPE)
    x = rng.standard_normal((1, 64)).astype(CHECK_DTYPE)
    errors = check_layer(layer, x, rng)
    assert max(errors.values()) < TOLERANCE


def test_different_seeds_stay_below_tolerance():
    for seed in (3, 4, 5):
        results = check_all_layers(seed=seed)
        assert max(results.values()) < TOLERANCE, f"seed {seed}"


def test_pool_followed_by_relu_composite():
    # a relu after a pooling layer runs in place: the pool's output is a
    # fresh buffer, and its tape keeps only the input shape and first-max index
    from wavecnn.layers import LayerSpec, softmax_xent
    from wavecnn.model import build_from_specs
    from wavecnn.gradcheck import _numeric_grad

    rng = np.random.default_rng(6)
    specs = [LayerSpec("conv1d", channels=3, kernel=(4,), stride=(2,), padding=SAME),
             LayerSpec("maxpool1d", kernel=(3,), stride=(1,)),
             LayerSpec("relu"),
             LayerSpec("class_head", channels=3)]
    model = build_from_specs(specs, input_samples=24, seed=6, dtype=CHECK_DTYPE)
    assert model.layers[2].inplace
    x = rng.standard_normal(24).astype(CHECK_DTYPE)

    def scalar():
        return softmax_xent(model.forward(x), 1)[0]

    logits, tape = model.forward(x, cache=True)
    _, _, dlogits = softmax_xent(logits, 1)
    analytic = model.backward(tape, dlogits)
    for grad, param in zip(analytic, model.parameter_arrays()):
        assert max_rel_error(grad, _numeric_grad(scalar, param)) < TOLERANCE


def test_dense_head_end_to_end_gradients():
    from wavecnn.layers import LayerSpec, softmax_xent
    from wavecnn.model import build_from_specs
    from wavecnn.gradcheck import _numeric_grad

    rng = np.random.default_rng(8)
    specs = [LayerSpec("conv1d", channels=3, kernel=(5,), stride=(3,), padding=SAME),
             LayerSpec("relu"),
             LayerSpec("flatten"),
             LayerSpec("dense", channels=2)]
    model = build_from_specs(specs, input_samples=21, seed=8, dtype=CHECK_DTYPE)
    x = rng.standard_normal(21).astype(CHECK_DTYPE)
    x += 0.2 * np.sign(x)

    def scalar():
        return softmax_xent(model.forward(x), 0)[0]

    logits, tape = model.forward(x, cache=True)
    _, _, dlogits = softmax_xent(logits, 0)
    analytic = model.backward(tape, dlogits)
    for grad, param in zip(analytic, model.parameter_arrays()):
        assert max_rel_error(grad, _numeric_grad(scalar, param)) < TOLERANCE


def test_zero_upstream_zeroes_every_layer_kind():
    from wavecnn.gradcheck import _tiny_layers

    rng = np.random.default_rng(7)
    for kind, (layer, x) in _tiny_layers(rng).items():
        out, tape = layer.forward(x, cache=True)
        dx, grads = layer.backward(tape, np.zeros_like(out))
        assert not dx.any(), kind
        roles = [f"{owner.name}.{role}" for owner in layer.param_owners()
                 for role in ("weight", "bias")]
        for role, grad in zip(roles, grads, strict=True):
            assert not grad.any(), f"{kind}.{role}"


def test_max_rel_error_definition():
    assert max_rel_error(np.array([1.0]), np.array([1.0])) == 0.0
    assert max_rel_error(np.array([1.0]), np.array([0.5])) == pytest.approx(1 / 3)
    assert max_rel_error(np.zeros(3), np.zeros(3)) == 0.0


def test_step_matches_contract():
    assert STEP == 1e-5
    assert TOLERANCE == 1e-4
