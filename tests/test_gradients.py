"""Finite-difference verification of every backward pass (64-bit, central
differences, step 1e-5, relative error < 1e-4)."""

import numpy as np
import pytest

from wavecnn.gradcheck import (STEP, TOLERANCE, _cases, check_chain, max_rel_error,
                               run_full_check)
from wavecnn.layers import (SAME, Conv1D, Conv2D, LayerSpec, param_slots, run_backward,
                            run_forward)
from wavecnn.model import build_from_specs
from wavecnn.tensor import CHECK_DTYPE


def test_every_layer_kind_below_tolerance():
    results = run_full_check(seed=0)
    expected_kinds = {"conv1d_valid", "conv1d_same", "conv1d_shift", "conv2d_valid",
                      "conv2d_same", "maxpool1d", "maxpool2d", "relu",
                      "reshape_channels_first", "flatten", "dense", "class_head",
                      "inception_nucleus", "end_to_end", "softmax_xent"}
    assert set(results) == expected_kinds
    for kind, err in results.items():
        assert err < TOLERANCE, f"{kind}: {err:.3e}"


def test_reduced_end_to_end_model_below_tolerance():
    assert run_full_check(seed=0)["end_to_end"] < TOLERANCE


def test_strided_conv2d_cols_path():
    # stride > 1 exercises the im2col fallback rather than the shift path
    rng = np.random.default_rng(1)
    layer = Conv2D(2, 3, (3, 2), (2, 2), SAME, rng, CHECK_DTYPE)
    x = rng.standard_normal((2, 9, 8)).astype(CHECK_DTYPE)
    errors = check_chain([layer], x, rng)
    assert max(errors.values()) < TOLERANCE


def test_wide_stride_conv1d_like_first_model_layer():
    rng = np.random.default_rng(2)
    layer = Conv1D(1, 4, 16, 4, SAME, rng, CHECK_DTYPE)
    x = rng.standard_normal((1, 64)).astype(CHECK_DTYPE)
    errors = check_chain([layer], x, rng)
    assert max(errors.values()) < TOLERANCE


def test_different_seeds_stay_below_tolerance():
    for seed in (3, 4, 5):
        results = run_full_check(seed=seed)
        assert max(results.values()) < TOLERANCE, f"seed {seed}"


def test_pool_followed_by_relu_composite():
    # a relu after a pooling layer runs in place: the pool's output is a
    # fresh buffer, and its tape keeps only the input shape and first-max index
    rng = np.random.default_rng(6)
    specs = [LayerSpec("conv1d", channels=3, kernel=(4,), stride=(2,), padding=SAME),
             LayerSpec("maxpool1d", kernel=(3,), stride=(1,)),
             LayerSpec("relu"),
             LayerSpec("class_head", channels=3)]
    model = build_from_specs(specs, input_samples=24, seed=6, dtype=CHECK_DTYPE)
    assert model.layers[2].inplace
    x = rng.standard_normal((1, 24)).astype(CHECK_DTYPE)
    errors = check_chain(model.layers, x, rng)
    assert set(errors) == {"dx", *model.parameter_names()}
    assert max(errors.values()) < TOLERANCE


def test_dense_head_end_to_end_gradients():
    rng = np.random.default_rng(8)
    specs = [LayerSpec("conv1d", channels=3, kernel=(5,), stride=(3,), padding=SAME),
             LayerSpec("relu"),
             LayerSpec("flatten"),
             LayerSpec("dense", channels=2)]
    model = build_from_specs(specs, input_samples=21, seed=8, dtype=CHECK_DTYPE)
    x = rng.standard_normal((1, 21)).astype(CHECK_DTYPE)
    x += 0.2 * np.sign(x)
    errors = check_chain(model.layers, x, rng)
    assert set(errors) == {"dx", *model.parameter_names()}
    assert max(errors.values()) < TOLERANCE


def test_zero_upstream_zeroes_every_layer_kind():
    rng = np.random.default_rng(7)
    for kind, (layers, x) in _cases(rng, seed=7).items():
        out, tapes = run_forward(layers, x, cache=True)
        dx, grads = run_backward(layers, tapes, np.zeros_like(out))
        assert not dx.any(), kind
        for (owner, role), grad in zip(param_slots(layers), grads, strict=True):
            assert not grad.any(), f"{kind}.{owner.name}.{role}"


def test_max_rel_error_definition():
    assert max_rel_error(np.array([1.0]), np.array([1.0])) == 0.0
    assert max_rel_error(np.array([1.0]), np.array([0.5])) == pytest.approx(1 / 3)
    assert max_rel_error(np.zeros(3), np.zeros(3)) == 0.0


def test_step_matches_contract():
    assert STEP == 1e-5
    assert TOLERANCE == 1e-4
