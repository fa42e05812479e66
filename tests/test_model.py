import hashlib
import importlib
import json
import re
import struct
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import TRAIN_ONCE, run_python, tiny_model
from wavecnn import layers
from wavecnn.data import builtin_tasks
from wavecnn.layers import (SAME, VALID, Conv2D, LayerSpec, MaxPool2D, ReLU,
                            softmax_xent)
from wavecnn.model import (WITH_INCEPTION, WITHOUT_INCEPTION, WeightsFormatError,
                           build_from_specs, build_model, load_weights, save_weights,
                           with_inception_layers, without_inception_layers)
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
                             input_samples=40)

    def test_real_forward_shapes_match_trace(self):
        model = build_model(WITHOUT_INCEPTION, 4, seed=3)
        x = np.random.default_rng(0).standard_normal(8000).astype(np.float32)
        h = x.reshape(1, -1)
        for layer, (_, expected) in zip(model.layers, model.trace_shapes()[1:]):
            h = layer.forward(h, cache=False)
            assert h.shape == expected


class TestConvPath:
    """Which convolutions run the shift-GEMM path, fixed when the layer is built."""

    SHIFT = {
        WITH_INCEPTION: ["layer02:inception_nucleus.b1.2:conv1d",
                         "layer02:inception_nucleus.b2.2:conv1d",
                         "layer08:conv2d", "layer10:conv2d", "layer13:conv2d",
                         "layer16:conv2d"],
        WITHOUT_INCEPTION: ["layer11:conv2d", "layer13:conv2d", "layer16:conv2d",
                            "layer19:conv2d"],
    }

    @pytest.mark.parametrize("variant", [WITH_INCEPTION, WITHOUT_INCEPTION])
    def test_shift_layers_pinned(self, variant):
        model = build_model(variant, 3, seed=None)
        convs = [o for o in model.param_owners() if isinstance(o, layers.Conv2D)]
        assert len(convs) == len(model.param_owners())
        assert [c.name for c in convs if c.shift] == self.SHIFT[variant]

    @pytest.mark.parametrize("variant", [WITH_INCEPTION, WITHOUT_INCEPTION])
    def test_conv2d_path_matches_the_bench_work_count(self, variant):
        # bench/workcount.py mirrors the path rule to size each layer's GEMM
        conv2d_gemm = bench_module("workcount").conv2d_gemm

        model = build_model(variant, 3, seed=None)
        shapes = [shape for _, shape in model.trace_shapes()]
        checked = 0
        for i, (lyr, spec) in enumerate(zip(model.layers, model.config.layers)):
            if spec.kind == "conv2d":
                assert lyr.shift == conv2d_gemm(spec, shapes[i], shapes[i + 1])[3], lyr.name
                checked += 1
        assert checked == (5 if variant == WITH_INCEPTION else 6)


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

    @pytest.mark.parametrize("variant", [WITH_INCEPTION, WITHOUT_INCEPTION])
    def test_input_is_cast_to_the_parameter_dtype(self, variant):
        x = np.random.default_rng(0).standard_normal(8000)
        model = build_model(variant, 3)
        npt.assert_array_equal(model.forward(x), model.forward(x.astype(np.float32)))
        assert model.forward(x.astype(np.float16)).dtype == np.float32
        model64 = build_model(variant, 3, dtype=np.float64)
        assert model64.forward(x.astype(np.float32)).dtype == np.float64

    def test_wrong_input_length_rejected(self):
        model = build_model(WITHOUT_INCEPTION, 2)
        with pytest.raises(ShapeError, match="8000"):
            model.forward(np.zeros(4000, np.float32))

    def test_backward_yields_gradient_per_parameter(self):
        model = build_model(WITHOUT_INCEPTION, 3, seed=2)
        x = np.random.default_rng(1).standard_normal(8000).astype(np.float32)
        logits, tape = model.forward(x, cache=True)
        _, _, dlogits = softmax_xent(logits, 1)
        grads = model.backward(tape, dlogits)
        params = model.parameter_arrays()
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape
        assert any(g.any() for g in grads)

    def test_zero_upstream_gives_zero_gradients_everywhere(self):
        model = build_model(WITHOUT_INCEPTION, 3, seed=2)
        x = np.random.default_rng(1).standard_normal(8000).astype(np.float32)
        _, tape = model.forward(x, cache=True)
        grads = model.backward(tape, np.zeros(3, np.float32))
        assert not any(g.any() for g in grads)

    @pytest.mark.parametrize("clip", ["random", "zeros", "rounded"])
    def test_pool_before_relu_matches_relu_before_pool_bitwise(self, clip):
        # with_inception as it was first written, each 2x2 pool after its
        # ReLU; the weights are drawn in the same order, so they match
        def conv(ch, k, s, rank):
            return LayerSpec(f"conv{rank}d", channels=ch, kernel=(k,) * rank,
                             stride=(s,) * rank, padding=SAME)
        relu, pool = LayerSpec("relu"), LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2))
        branches = [[conv(64, 4, 4, 1), relu],
                    [conv(64, 8, 4, 1), relu, conv(64, 8, 1, 1), relu],
                    [conv(64, 16, 4, 1), relu, conv(64, 16, 1, 1), relu]]
        relu_then_pool = [
            conv(32, 80, 4, 1), relu,
            LayerSpec("inception_nucleus", branches=branches),
            LayerSpec("maxpool1d", kernel=(10,), stride=(1,)),
            LayerSpec("reshape_channels_first"),
            conv(32, 3, 1, 2), relu, pool,
            conv(64, 3, 1, 2), relu,
            conv(64, 3, 1, 2), relu, pool,
            conv(128, 3, 1, 2), relu, pool,
            conv(3, 3, 1, 2), LayerSpec("class_head", channels=3)]
        old = build_from_specs(relu_then_pool, seed=5)
        new = build_model(WITH_INCEPTION, 3, seed=5)
        assert old.config.variant == "custom"
        assert old.state_bytes() == new.state_bytes()
        rng = np.random.default_rng(9)
        x = {"random": rng.standard_normal(8000),
             "zeros": np.zeros(8000),  # every pool window ties at +0
             "rounded": np.round(rng.standard_normal(8000))}[clip].astype(np.float32)
        up = rng.standard_normal(3).astype(np.float32)
        outs = []
        for model in (old, new):
            logits, tape = model.forward(x, cache=True)
            outs.append([logits] + model.backward(tape, up))
        for name, a, b in zip(["logits"] + new.parameter_names(), *outs, strict=True):
            assert a.tobytes() == b.tobytes(), name

    def test_interleaved_tapes_on_one_model_match_serial(self):
        model = build_model(WITH_INCEPTION, 3, seed=2)
        rng = np.random.default_rng(4)
        clips = [rng.standard_normal(8000).astype(np.float32) for _ in range(2)]
        ups = [rng.standard_normal(3).astype(np.float32) for _ in range(2)]
        serial = []
        for x, up in zip(clips, ups):
            _, tape = model.forward(x, cache=True)
            serial.append(model.backward(tape, up))
        # both forwards run before either backward, and the later one is
        # differentiated first
        tapes = [model.forward(x, cache=True)[1] for x in clips]
        second = model.backward(tapes[1], ups[1])
        first = model.backward(tapes[0], ups[0])
        for got, want in ((first, serial[0]), (second, serial[1])):
            assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

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

    # sha256 of build_model(variant, 3, seed=0, dense_head=...).state_bytes(),
    # frozen from the implementation that always drew every weight
    @pytest.mark.parametrize("variant,dense_head,digest", [
        (WITH_INCEPTION, False,
         "0556ec3c83756cb11587c3ea9e1320df4da99587f5deb250e7072af1b4abddd9"),
        (WITH_INCEPTION, True,
         "a4886e9c26c242b8a1aa3d80a6bda2ac9a8321b057ea0a2a4b6383bd2653ec71"),
        (WITHOUT_INCEPTION, False,
         "6f6e9e4e1f9eaad7f183a5e598c20fad8ee4c4d7ef7442abc0729bf1893ace16"),
        (WITHOUT_INCEPTION, True,
         "b14bead130f0e19bba85134432ca69dfcf98e62b670953e68c2009248d4d5245"),
    ])
    def test_seeded_build_draws_pinned_weights(self, variant, dense_head, digest):
        model = build_model(variant, 3, seed=0, dense_head=dense_head)
        assert hashlib.sha256(model.state_bytes()).hexdigest() == digest

    def test_unseeded_build_draws_nothing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("glorot_init called")
        monkeypatch.setattr(layers, "glorot_init", no_draw)
        model = build_model(WITH_INCEPTION, 3, seed=None, dense_head=True)
        assert model.config.seed is None
        assert not any(p.any() for p in model.parameter_arrays())

    def test_cached_forward_keeps_masks_and_indices_not_activations(self):
        model = build_model(WITH_INCEPTION, 3, seed=0)
        every = list(walk_layers(model.layers))
        seen = {}
        for lyr in every:
            lyr.forward = recording_forward(lyr, seen)
        logits, model_tape = model.forward(
            np.random.default_rng(0).standard_normal(8000).astype(np.float32), cache=True)
        for lyr in every:
            x, out, tape = seen[id(lyr)]
            if isinstance(lyr, ReLU):
                assert tape.dtype == bool and tape.shape == out.shape
            elif isinstance(lyr, MaxPool2D):
                _, first, _ = tape
                assert first.dtype == np.uint8
                # MaxPool1D indexes its (C, 1, n) view of the (C, n) output
                assert first.shape in (out.shape, out.shape[:1] + (1,) + out.shape[1:])
                for a in cached_arrays(tape):
                    assert not np.may_share_memory(a, x)
                    assert not np.may_share_memory(a, out)
        # each buffer a tape keeps alive, counted once; 49.4 MiB when ReLU
        # and the pools cached their float activations, 25.0 MiB when the
        # im2col convolutions kept their columns, 20.6 MiB keeping the
        # padded input, 16.8 MiB with each 2x2 pool before its ReLU
        held = {}
        for a in cached_arrays(model_tape):
            while isinstance(a.base, np.ndarray):
                a = a.base
            held[id(a)] = a.nbytes
        assert sum(held.values()) <= 18.5 * 2**20
        model.backward(model_tape, np.ones_like(logits))
        assert model_tape == []
        # a convolution's backward spends its tape
        for lyr in every:
            if isinstance(lyr, Conv2D):
                assert seen[id(lyr)][2] == [], lyr.name

    def test_training_step_traced_peak(self):
        """One float32 forward(cache=True) + backward: 43.2 MiB traced peak
        while each convolution's tape lived until the whole backward ended,
        33.0 MiB with each freed as its backward goes, 26.2 MiB with the
        shift-path output left in its accumulator and each 2x2 pool before
        its ReLU."""
        model = build_model(WITH_INCEPTION, 3, seed=0)
        x = np.random.default_rng(0).standard_normal(8000).astype(np.float32)
        tracemalloc.start()
        try:
            logits, tape = model.forward(x, cache=True)
            model.backward(tape, np.ones_like(logits))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 29 * 2**20

    def test_each_layer_call_opens_one_traced_span(self):
        # bench/spans.py wraps forward and backward on every layer class that
        # defines them; a layer method that called another wrapped one would
        # open two spans per call, and the bench would count its FLOPs twice
        spans = bench_module("spans")
        model = build_model(WITH_INCEPTION, 3, seed=0)
        tracer = spans.Tracer({name: importlib.import_module(f"wavecnn.{name}")
                               for name in spans.TRACED_MODULES})
        tracer.install(models=[model])
        try:
            logits, tape = model.forward(
                np.random.default_rng(0).standard_normal(8000).astype(np.float32), cache=True)
            model.backward(tape, np.ones_like(logits))
        finally:
            tracer.uninstall()
        names = [s.name for s in tracer.spans if s.name.startswith("layers.L")]
        expected = {f"layers.{key}.{spec.kind}.{phase}"
                    for key, _, spec, _, _ in spans.walk_layers(model)
                    for phase in ("fwd", "bwd")}
        assert sorted(names) == sorted(expected)

    @pytest.mark.parametrize("variant", [WITH_INCEPTION, WITHOUT_INCEPTION])
    @pytest.mark.parametrize("head", ["gap", "dense"])
    def test_training_steps_match_pinned_digest(self, training_digests, variant, head):
        assert training_digests[f"{variant}/{head}"] == TRAINING_DIGESTS[variant, head]

    def test_replicas_share_parameters_but_not_caches(self):
        model = build_model(WITHOUT_INCEPTION, 2, seed=4)
        clone = model.replicate()
        assert model.parameter_arrays()[0] is clone.parameter_arrays()[0]
        x = np.random.default_rng(2).standard_normal(8000).astype(np.float32)
        npt.assert_array_equal(model.forward(x), clone.forward(x))


def bench_module(name):
    """Import one of the bench harness's modules from the repo's bench/."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    return importlib.import_module(name)


def walk_layers(layer_list):
    for lyr in layer_list:
        yield lyr
        for branch in getattr(lyr, "branches", ()):
            yield from walk_layers(branch)


def cached_arrays(cache):
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, (tuple, list)):
        for item in cache:
            yield from cached_arrays(item)


def recording_forward(lyr, seen):
    forward = lyr.forward

    def wrapped(x, cache=False):
        out, tape = forward(x, cache=True)
        seen[id(lyr)] = (x, out, tape)
        return (out, tape) if cache else out
    return wrapped


# SHA-256 over the logits and gradients of three Adam steps on random clips,
# then the parameters after them; frozen from the implementation whose ReLU
# and pooling layers cached their float activations.  BLAS runs on one
# thread because its summation order, and so the bits, vary with the count.
TRAINING_DIGESTS = {
    (WITH_INCEPTION, "gap"):
        "1aa1822354737c89fccacf55cb90f720bdaa4292929889cd865918ded31b79ef",
    (WITH_INCEPTION, "dense"):
        "675d957981f9b0fdc69f0548ed2986ef391b8fde31a2928cee1db5c309f09e35",
    (WITHOUT_INCEPTION, "gap"):
        "8a03518fc8286c0ac53a25ce2c3a49a2b0c7f68ede16b2ca786e89759243322a",
    (WITHOUT_INCEPTION, "dense"):
        "f7373c7a44b11933527ec4c2905a472978bce32333bd9e721b4a33fccf40b602",
}

TRAINING_DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
from wavecnn.layers import softmax_xent
from wavecnn.model import build_model
from wavecnn.optim import Adam

digests = {}
for variant in ("with_inception", "without_inception"):
    for head in ("gap", "dense"):
        model = build_model(variant, 3, seed=0, dense_head=head == "dense")
        optimizer = Adam(model.parameter_arrays(), lr=1e-3)
        rng = np.random.default_rng(11)
        h = hashlib.sha256()
        for step in range(3):
            x = rng.standard_normal(8000).astype(np.float32)
            logits, tape = model.forward(x, cache=True)
            _, _, dlogits = softmax_xent(logits, step % 3)
            grads = model.backward(tape, dlogits)
            for a in [logits, *grads]:
                h.update(a.tobytes())
            optimizer.step(grads)
        h.update(model.state_bytes())
        digests[f"{variant}/{head}"] = h.hexdigest()
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def training_digests():
    return json.loads(run_python(TRAINING_DIGEST_SCRIPT))


def test_training_digests_hold_under_the_heap_policy():
    """The allocator settings train() applies change where buffers live, not
    what is computed in them."""
    digests = json.loads(run_python(TRAIN_ONCE + "train_once(1)\n" + TRAINING_DIGEST_SCRIPT))
    for (variant, head), digest in TRAINING_DIGESTS.items():
        assert digests[f"{variant}/{head}"] == digest


class TestSpecsDescribeModel:
    """The spec list alone fixes a model's class count, head and variant."""

    @pytest.mark.parametrize("variant,table", [(WITH_INCEPTION, with_inception_layers),
                                               (WITHOUT_INCEPTION, without_inception_layers)])
    @pytest.mark.parametrize("dense_head", [False, True], ids=["gap", "dense"])
    @pytest.mark.parametrize("classes", [2, 5])
    def test_table_specs_build_the_reference_model(self, tmp_path, variant, table,
                                                   dense_head, classes):
        model = build_from_specs(table(classes, dense_head), seed=4)
        reference = build_model(variant, classes, seed=4, dense_head=dense_head)
        for config in (model.config, reference.config):
            assert (config.variant, config.dense_head, config.num_classes) == \
                (variant, dense_head, classes)
        assert model.state_bytes() == reference.state_bytes()
        save_weights(model, tmp_path / "w.bin")
        loaded = load_weights(tmp_path / "w.bin")
        assert (loaded.config.variant, loaded.config.dense_head,
                loaded.config.num_classes) == (variant, dense_head, classes)
        assert loaded.state_bytes() == model.state_bytes()

    def test_reference_table_at_another_input_length_is_custom(self):
        model = build_from_specs(without_inception_layers(2), input_samples=16000, seed=None)
        assert model.config.variant == "custom"

    def test_custom_architecture_is_not_saved(self, tmp_path):
        model = tiny_model(3)
        assert model.config.variant == "custom"
        path = tmp_path / "custom.bin"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            save_weights(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("last,label", [
        (LayerSpec("conv1d", channels=3, kernel=(3,), stride=(1,), padding=SAME),
         r"layer 2 \(conv1d"),
        (LayerSpec("class_head", channels=1), r"layer 2 \(class_head, 1 channels\)"),
    ], ids=["conv", "one_class"])
    def test_specs_must_end_in_a_head_of_two_or_more_classes(self, last, label):
        specs = [LayerSpec("conv1d", channels=1, kernel=(4,), stride=(4,), padding=SAME),
                 LayerSpec("relu"), last]
        with pytest.raises(ShapeError, match=label):
            build_from_specs(specs, input_samples=16)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_parameter_refused_before_any_file(self, tmp_path, bad):
        model = build_model(WITHOUT_INCEPTION, 2, seed=1)
        owner = model.param_owners()[2]
        owner.params["bias"][1] = bad
        path = tmp_path / "weights.bin"
        cause = f"^{re.escape(str(path))}: non-finite values in {re.escape(owner.name)}.bias"
        with pytest.raises(ValueError, match=cause):
            save_weights(model, path)
        assert not path.exists()

    # sha256 of the file save_weights writes for build_model(variant, 3,
    # seed=0, dense_head=...), frozen from an earlier implementation: a round
    # trip alone still passes when the writer and the reader change together
    @pytest.mark.parametrize("variant,dense_head,digest", [
        (WITH_INCEPTION, False,
         "1b0dbe3f020f194d67faf6ac39668aca6cde599725e0281e9f534c9fa62235bd"),
        (WITH_INCEPTION, True,
         "6f80ec7c7a8a274a46bea4c85b4e17f31c851593590a69544b282fe57bfe0fe5"),
        (WITHOUT_INCEPTION, False,
         "224f15266fa03d73d31db5c7fcf3a83fc7df282eb4b9e00f2b68d46be1d06bb7"),
        (WITHOUT_INCEPTION, True,
         "3dac42443b8ee2890cb790729d4f798c1f390f48be57a5f6bcc50726d8fdcba3"),
    ])
    def test_saved_bytes_are_pinned(self, tmp_path, variant, dense_head, digest):
        path = tmp_path / "weights.bin"
        save_weights(build_model(variant, 3, seed=0, dense_head=dense_head), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_failed_save_leaves_the_earlier_file_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "weights.bin"
        save_weights(build_model(WITHOUT_INCEPTION, 2, seed=1), path)
        saved = path.read_bytes()
        records = []

        def pack(fmt, *values):
            if fmt == "<IBB":
                records.append(values)
                if len(records) == 3:
                    raise OSError("no space left on device")
            return struct.pack(fmt, *values)

        monkeypatch.setattr("wavecnn.model.struct", SimpleNamespace(pack=pack))
        with pytest.raises(OSError, match="no space"):
            save_weights(build_model(WITHOUT_INCEPTION, 2, seed=2), path)
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["weights.bin"]

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

    def test_load_and_replicate_draw_no_weights(self, tmp_path, monkeypatch):
        model = build_model(WITHOUT_INCEPTION, 3, seed=6)
        path = tmp_path / "weights.bin"
        save_weights(model, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("glorot_init called")
        monkeypatch.setattr(layers, "glorot_init", no_draw)
        loaded = load_weights(path)
        assert loaded.config.seed is None
        assert loaded.state_bytes() == model.state_bytes()
        clone = loaded.replicate()
        assert clone.parameter_arrays()[0] is loaded.parameter_arrays()[0]


def record_offsets(blob: bytes) -> list[int]:
    """Byte offset of every record in a well-formed WVNC1 file."""
    offsets, pos = [], 14
    while pos < len(blob):
        offsets.append(pos)
        rank = blob[pos + 5]
        shape = struct.unpack_from(f"<{rank}I", blob, pos + 6)
        pos += 6 + 4 * rank + 4 * int(np.prod(shape))
    return offsets


def poke(blob: bytes, pos: int, fmt: str, value) -> bytes:
    out = bytearray(blob)
    struct.pack_into(fmt, out, pos, value)
    return bytes(out)


@pytest.fixture(scope="module")
def weights_blob(tmp_path_factory):
    """A without_inception 2-class file (conv1d weight (32, 1, 9) first)."""
    model = build_model(WITHOUT_INCEPTION, 2, seed=8)
    path = tmp_path_factory.mktemp("weights") / "w.bin"
    save_weights(model, path)
    return path.read_bytes(), model.state_bytes()


# case -> (make the file from a valid blob and its record offsets, cause)
MALFORMED = {
    "short header": (lambda b, r: b[:10], "header at byte 0 runs past the end"),
    "cut to 16 bytes": (lambda b, r: b[:16], "record header at byte 14 runs past the end"),
    "values past end": (lambda b, r: b[:-4], "values at byte .* run past the end"),
    "extents past end": (lambda b, r: b[:r[1] + 8], "record extents at byte .* past the end"),
    "unknown variant": (lambda b, r: poke(b, 5, "<B", 9), "unknown variant tag 9"),
    "one class": (lambda b, r: poke(b, 6, "<I", 1), "class count 1"),
    "huge class count": (lambda b, r: poke(b, 6, "<I", 2**32 - 1), "class count 4294967295"),
    "owner count": (lambda b, r: poke(b, 10, "<I", 3), "declares 3 parameter owners"),
    "owner index 999": (lambda b, r: poke(b, r[0], "<I", 999),
                        "record at byte 14 holds owner 999, role 0"),
    "role 7": (lambda b, r: poke(b, r[0] + 4, "<B", 7), "record at byte 14 holds owner 0, role 7"),
    "shape mismatch": (lambda b, r: poke(b, r[0] + 6, "<I", 33),
                       r"holds owner 0, role 0, shape \(33, 1, 9\); "
                       r"slot 0 wants owner 0 weight \(role 0\), shape \(32, 1, 9\)"),
    "duplicate owner": (lambda b, r: poke(b, r[2], "<I", 0),
                        r"holds owner 0, role 0, shape \(32, 32, 8\); slot 2 wants owner 1 weight"),
    # owners 0 and 1 both have a (32,) bias, so only the slot check catches this
    "duplicate bias": (lambda b, r: poke(b, r[3], "<I", 0),
                       r"holds owner 0, role 1, shape \(32,\); slot 3 wants owner 1 bias"),
    # every record is well formed; only their order is wrong
    "swapped weight and bias": (lambda b, r: b[:r[0]] + b[r[1]:r[2]] + b[r[0]:r[1]] + b[r[2]:],
                                r"record at byte 14 holds owner 0, role 1, shape \(32,\); "
                                r"slot 0 wants owner 0 weight"),
    "trailing bytes": (lambda b, r: b + b"\0\0", "2 trailing bytes"),
    # owner 0's bias holds 32 values after its 10-byte record header
    "non-finite value": (lambda b, r: poke(b, r[1] + 10 + 4 * 5, "<f", np.nan),
                         "owner 0 bias: non-finite values"),
}


class TestMalformedWeights:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_error_names_file_and_cause(self, weights_blob, tmp_path, case):
        make, cause = MALFORMED[case]
        blob = weights_blob[0]
        path = tmp_path / "bad.bin"
        path.write_bytes(make(blob, record_offsets(blob)))
        with pytest.raises(WeightsFormatError, match=cause) as info:
            load_weights(path)
        assert str(info.value).startswith(f"{path}: ")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_byte_mutations_fail_typed_or_round_trip(self, weights_blob, tmp_path, data):
        """A changed header byte fails typed or changes nothing; a changed
        value byte loads and saves back as it is."""
        blob, state = weights_blob
        records = record_offsets(blob)
        structural = set(range(14)) | {pos for rec in records
                                       for pos in range(rec, rec + 6 + 4 * blob[rec + 5])}
        # the header, a record's owner index, role and rank, or any byte;
        # small values are valid indices, roles and ranks, which make
        # duplicate slots and shifted records likely
        pos = data.draw(st.one_of(
            st.integers(0, 13),
            st.builds(int.__add__, st.sampled_from(records), st.integers(0, 5)),
            st.integers(0, len(blob) - 1)), label="pos")
        value = data.draw(st.one_of(st.integers(0, 9), st.integers(0, 255)), label="value")
        mutated = bytearray(blob)
        mutated[pos] = value
        path = tmp_path / "mutated.bin"
        path.write_bytes(mutated)
        try:
            loaded = load_weights(path)
        except WeightsFormatError:
            return
        if pos in structural:
            assert loaded.state_bytes() == state
        save_weights(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == mutated

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncations_fail_typed(self, weights_blob, tmp_path, data):
        blob, _ = weights_blob
        cut = data.draw(st.one_of(st.integers(0, 400),
                                  st.integers(0, len(blob) - 1)), label="cut")
        path = tmp_path / "cut.bin"
        path.write_bytes(blob[:cut])
        with pytest.raises(WeightsFormatError):
            load_weights(path)
