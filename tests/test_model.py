import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from wavecnn.data import builtin_tasks
from wavecnn.layers import SAME, VALID, LayerSpec, softmax_xent
from wavecnn.model import (WITH_INCEPTION, WITHOUT_INCEPTION, build_from_specs,
                           build_model, load_weights, save_weights)
from wavecnn.tensor import ShapeError

# Architecture tables as plain data for the independent symbolic parameter
# count: (in_ch, kernel_elems, out_ch) per parameterized layer, final conv
# channel count set to the class count.


def symbolic_param_count(conv_table):
    return sum(in_ch * k + 1 for in_ch, k, out_ch in conv_table
               for _ in range(out_ch))


def with_inception_table(classes):
    return [
        (1, 80, 32),
        (32, 4, 64),                       # nucleus branch, single conv
        (32, 8, 64), (64, 8, 64),          # nucleus branch, stacked pair
        (32, 16, 64), (64, 16, 64),        # nucleus branch, stacked pair
        (1, 9, 32),
        (32, 9, 64),
        (64, 9, 64),
        (64, 9, 128),
        (128, 9, classes),
    ]


def without_inception_table(classes):
    return [
        (1, 9, 32),
        (32, 8, 32),
        (32, 9, 32),
        (1, 9, 64),
        (64, 9, 128),
        (128, 9, 128),
        (128, 9, 256),
        (256, 1, 10),
        (10, 1, classes),
    ]


class TestParameterCounts:
    def test_symbolic_oracle_values(self):
        # frozen from the symbolic count Sum(in_ch*k*out_ch + out_ch)
        assert symbolic_param_count(with_inception_table(10)) == 299_690
        assert symbolic_param_count(without_inception_table(10)) == 537_720

    @pytest.mark.parametrize("variant,table,target", [
        (WITH_INCEPTION, with_inception_table, 302_000),
        (WITHOUT_INCEPTION, without_inception_table, 540_000),
    ])
    def test_built_models_match_oracle_and_headline(self, variant, table, target):
        model = build_model(variant, 10)
        count = model.param_count()
        assert count == symbolic_param_count(table(10))
        assert abs(count - target) / target < 0.02

    def test_head_substitution_changes_only_final_conv(self):
        ten = build_model(WITH_INCEPTION, 10)
        two = build_model(WITH_INCEPTION, 2)
        kinds10 = [s.kind for s in ten.config.layers]
        kinds2 = [s.kind for s in two.config.layers]
        assert kinds10 == kinds2
        convs10 = [s.channels for s in ten.config.layers if s.kind == "conv2d"]
        convs2 = [s.channels for s in two.config.layers if s.kind == "conv2d"]
        assert convs10[:-1] == convs2[:-1]
        assert (convs10[-1], convs2[-1]) == (10, 2)


def analytic_shapes(specs, input_shape):
    """Independent shape propagation using only the output-extent formula."""
    def out_len(size, k, s, padding):
        if padding == SAME:
            return -(-size // s)
        return (size - k) // s + 1

    shape = input_shape
    result = []
    for spec in specs:
        if spec.kind == "conv1d":
            shape = (spec.channels, out_len(shape[1], spec.kernel[0], spec.stride[0],
                                            spec.padding))
        elif spec.kind == "conv2d":
            shape = (spec.channels,
                     out_len(shape[1], spec.kernel[0], spec.stride[0], spec.padding),
                     out_len(shape[2], spec.kernel[1], spec.stride[1], spec.padding))
        elif spec.kind == "maxpool1d":
            shape = (shape[0], out_len(shape[1], spec.kernel[0], spec.stride[0], VALID))
        elif spec.kind == "maxpool2d":
            shape = (shape[0],
                     out_len(shape[1], spec.kernel[0], spec.stride[0], VALID),
                     out_len(shape[2], spec.kernel[1], spec.stride[1], VALID))
        elif spec.kind == "reshape_channels_first":
            shape = (1,) + shape
        elif spec.kind == "inception_nucleus":
            widths = []
            channels = 0
            for branch in spec.branches:
                sub = shape
                for s in branch:
                    if s.kind == "conv1d":
                        sub = (s.channels, out_len(sub[1], s.kernel[0], s.stride[0],
                                                   s.padding))
                widths.append(sub[1])
                channels += sub[0]
            assert len(set(widths)) == 1
            shape = (channels, widths[0])
        elif spec.kind == "class_head":
            shape = (spec.channels,)
        elif spec.kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif spec.kind == "dense":
            shape = (spec.channels,)
        result.append(shape)
    return result


class TestShapePropagation:
    @pytest.mark.parametrize("variant", [WITH_INCEPTION, WITHOUT_INCEPTION])
    def test_trace_matches_analytic_formula(self, variant):
        model = build_model(variant, 10)
        expected = analytic_shapes(model.config.layers, (1, 8000))
        got = [shape for _, shape in model.trace_shapes()[1:]]
        assert got == expected

    def test_inception_pipeline_reshape_shape(self):
        model = build_model(WITH_INCEPTION, 10)
        trace = dict(model.trace_shapes())
        assert trace["reshape_channels_first"] == (1, 192, 491)

    def test_propagation_failure_names_layer(self):
        specs = [LayerSpec("conv1d", channels=4, kernel=(8,), stride=(2,), padding=VALID),
                 LayerSpec("maxpool1d", kernel=(50,), stride=(1,))]
        with pytest.raises(ShapeError, match=r"layer 1 \(maxpool1d\)"):
            build_from_specs(specs + [LayerSpec("class_head", channels=2)],
                             2, input_samples=40)

    def test_real_forward_shapes_match_trace(self):
        model = build_model(WITHOUT_INCEPTION, 4, seed=3)
        x = np.random.default_rng(0).standard_normal(8000).astype(np.float32)
        h = x.reshape(1, -1)
        for layer, (_, expected) in zip(model.layers, model.trace_shapes()[1:]):
            h = layer.forward(h, cache=False)
            assert h.shape == expected


class TestForwardBackward:
    def test_zero_input_produces_finite_logits(self):
        model = build_model(WITH_INCEPTION, 5, seed=0)
        logits = model.forward(np.zeros(8000, np.float32))
        assert np.isfinite(logits).all()

    def test_logit_count_matches_every_builtin_task(self):
        x = np.zeros(8000, np.float32)
        for task in builtin_tasks():
            model = build_model(WITHOUT_INCEPTION, task.num_classes, seed=1)
            assert model.forward(x).shape == (task.num_classes,)

    def test_wrong_input_length_rejected(self):
        model = build_model(WITHOUT_INCEPTION, 2)
        with pytest.raises(ShapeError, match="8000"):
            model.forward(np.zeros(4000, np.float32))

    def test_backward_yields_gradient_per_parameter(self):
        model = build_model(WITHOUT_INCEPTION, 3, seed=2)
        x = np.random.default_rng(1).standard_normal(8000).astype(np.float32)
        logits = model.forward(x, cache=True)
        _, _, dlogits = softmax_xent(logits, 1)
        grads = model.backward(dlogits)
        params = model.parameter_arrays()
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape
        assert any(g.any() for g in grads)

    def test_zero_upstream_gives_zero_gradients_everywhere(self):
        model = build_model(WITHOUT_INCEPTION, 3, seed=2)
        x = np.random.default_rng(1).standard_normal(8000).astype(np.float32)
        model.forward(x, cache=True)
        grads = model.backward(np.zeros(3, np.float32))
        assert not any(g.any() for g in grads)

    def test_concurrent_uncached_forwards_on_one_model_match_serial(self):
        model = build_model(WITHOUT_INCEPTION, 3, seed=5)
        rng = np.random.default_rng(3)
        clips = [rng.standard_normal(8000).astype(np.float32) for _ in range(8)]
        serial = [model.forward(x) for x in clips]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside each forward
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(model.forward, clips, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()

    def test_replicas_share_parameters_but_not_caches(self):
        model = build_model(WITHOUT_INCEPTION, 2, seed=4)
        clone = model.replicate()
        assert model.parameter_arrays()[0] is clone.parameter_arrays()[0]
        x = np.random.default_rng(2).standard_normal(8000).astype(np.float32)
        npt.assert_array_equal(model.forward(x), clone.forward(x))


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = build_model(WITH_INCEPTION, 7, seed=9)
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        loaded = load_weights(path)
        assert loaded.config.variant == WITH_INCEPTION
        assert loaded.config.num_classes == 7
        assert loaded.state_bytes() == model.state_bytes()
        save_weights(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_magic_header(self, tmp_path):
        model = build_model(WITHOUT_INCEPTION, 2)
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        assert path.read_bytes()[:5] == b"WVNC1"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"nope!" + path.read_bytes()[5:])
        with pytest.raises(ValueError, match="magic"):
            load_weights(bad)

    def test_dense_head_round_trip(self, tmp_path):
        model = build_model(WITHOUT_INCEPTION, 3, seed=5, dense_head=True)
        assert model.config.layers[-1].kind == "dense"
        path = tmp_path / "dense.bin"
        save_weights(model, path)
        loaded = load_weights(path)
        assert loaded.config.dense_head
        assert loaded.state_bytes() == model.state_bytes()
        x = np.random.default_rng(3).standard_normal(8000).astype(np.float32)
        npt.assert_array_equal(loaded.forward(x), model.forward(x))

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(WITHOUT_INCEPTION, 2)
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(path.read_bytes()[:200])
        with pytest.raises(Exception):
            load_weights(clipped)
