from pathlib import Path

import numpy as np
import pytest

from wavecnn import blas
from wavecnn.blas import gemm_acc
from wavecnn.layers import softmax_xent
from wavecnn.model import build_model


def shift_blocks(rng, dtype, out_ch, in_ch, nh, nw, transposed):
    """One shift-path tap of a 3x3 same conv on an (nh, nw) map, as the
    (a, b, c) operands Conv2D passes: forward accumulates wk @ xf-window
    into the output grid, backward wk.T @ grid into a dx window."""
    hp, wp = nh + 2, nw + 2
    off = 2 * wp + 1  # a late tap, so every window is offset and strided
    wk = rng.standard_normal((out_ch, in_ch)).astype(dtype)
    if not transposed:
        span = (nh - 1) * wp + nw
        xf = rng.standard_normal((in_ch, hp * wp + 2)).astype(dtype)
        acc = rng.standard_normal((out_ch, nh * wp)).astype(dtype)
        return wk, xf[:, off:off + span], acc[:, :span]
    grid = rng.standard_normal((out_ch, nh * wp)).astype(dtype)
    dxf = rng.standard_normal((in_ch, hp * wp + 2)).astype(dtype)
    return wk.T, grid, dxf[:, off:off + nh * wp]


# with_inception L10 (64 -> 64 on 96 x 245) and without_inception L16's
# dx GEMM (256 -> 128 on 11 x 22, so K = 256)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("out_ch,in_ch,nh,nw,transposed", [
    (64, 64, 96, 245, False), (64, 64, 96, 245, True), (256, 128, 11, 22, True),
], ids=["L10-forward", "L10-dx", "K256-dx"])
def test_matches_add_of_matmul_bitwise(dtype, out_ch, in_ch, nh, nw, transposed):
    a, b, c = shift_blocks(np.random.default_rng(3), dtype, out_ch, in_ch, nh, nw,
                           transposed)
    assert not b.flags.c_contiguous or not c.flags.c_contiguous
    want = c + a @ b
    gemm_acc(a, b, c)
    assert np.array_equal(c, want)


def test_binds_both_dtypes_when_numpy_bundles_openblas():
    libs = list((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    bound = blas._gemm_functions()
    assert set(bound) == ({np.dtype(np.float32), np.dtype(np.float64)} if libs else set())


def test_core_name_reads_the_bundled_library_or_is_none_without_it(monkeypatch):
    libs = list((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    name = blas.core_name()
    assert (isinstance(name, str) and name) if libs else name is None
    monkeypatch.setattr(blas, "_library", lambda: None)
    blas.core_name.cache_clear()
    try:
        assert blas.core_name() is None
    finally:
        blas.core_name.cache_clear()


def _operands():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3)).astype(np.float32)
    b = rng.standard_normal((3, 5)).astype(np.float32)
    c = rng.standard_normal((4, 5)).astype(np.float32)
    return a, b, c


@pytest.mark.parametrize("case,cause", [
    ("dtype", "dtype"),
    ("byteorder", "dtype"),
    ("shape", "disagree"),
    ("b-inner-stride", "unit inner stride"),
    ("c-inner-stride", "unit inner stride"),
    ("b-rows-overlap", "row stride"),
    ("a-neither-layout", "unit inner stride"),
    ("read-only", "read-only"),
    ("overlap", "overlaps"),
])
def test_guard_raises_and_leaves_c_untouched(case, cause):
    a, b, c = _operands()
    if case == "dtype":
        b = b.astype(np.float64)
    elif case == "byteorder":
        a, b, c = (x.astype(x.dtype.newbyteorder()) for x in (a, b, c))
    elif case == "shape":
        b = b[:2]
    elif case == "b-inner-stride":
        b = np.repeat(b, 2, axis=1)[:, ::2]
    elif case == "c-inner-stride":
        c = np.repeat(c, 2, axis=1)[:, ::2]
    elif case == "b-rows-overlap":  # rows 2 elements apart, 5 wide
        b = np.lib.stride_tricks.as_strided(b, (3, 5), (2 * b.itemsize, b.itemsize))
    elif case == "a-neither-layout":
        a = np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)[::2, ::2]
    elif case == "read-only":
        c.flags.writeable = False
    elif case == "overlap":
        b = np.zeros((3, 5), dtype=np.float32)
        c = b[:, :]
        a = np.ones((3, 3), dtype=np.float32)
    before = c.copy()
    with pytest.raises(ValueError, match=cause):
        gemm_acc(a, b, c)
    assert np.array_equal(c, before)


def with_inception_step(seed):
    model = build_model("with_inception", 3, seed=seed)
    x = np.random.default_rng(seed).standard_normal(8000).astype(np.float32)
    logits, tape = model.forward(x, cache=True)
    _, _, dlogits = softmax_xent(logits, 1)
    return logits, model.backward(tape, dlogits)


def test_model_step_without_the_binding_is_bitwise_equal(monkeypatch):
    logits, grads = with_inception_step(5)
    monkeypatch.setattr(blas, "_gemm_functions", lambda: {})
    plain_logits, plain_grads = with_inception_step(5)
    assert np.array_equal(logits, plain_logits)
    assert len(grads) == len(plain_grads)
    assert all(np.array_equal(g, p) for g, p in zip(grads, plain_grads))
