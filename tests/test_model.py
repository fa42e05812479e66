import hashlib
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavecnn import layers
from wavecnn.data import builtin_tasks
from wavecnn.layers import SAME, VALID, LayerSpec, softmax_xent
from wavecnn.model import (WITH_INCEPTION, WITHOUT_INCEPTION, WeightsFormatError,
                           build_from_specs, build_model, load_weights, save_weights)
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
    "owner index 999": (lambda b, r: poke(b, r[0], "<I", 999), "owner index 999 out of range"),
    "role 7": (lambda b, r: poke(b, r[0] + 4, "<B", 7), "owner 0: unknown role 7"),
    "shape mismatch": (lambda b, r: poke(b, r[0] + 6, "<I", 33),
                       r"file shape \(33, 1, 9\) != model shape \(32, 1, 9\)"),
    "duplicate owner": (lambda b, r: poke(b, r[2], "<I", 0), "owner 0 weight written twice"),
    # owners 0 and 1 both have a (32,) bias, so only the slot check catches this
    "duplicate bias": (lambda b, r: poke(b, r[3], "<I", 0), "owner 0 bias written twice"),
    "trailing bytes": (lambda b, r: b + b"\0\0", "2 trailing bytes"),
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
