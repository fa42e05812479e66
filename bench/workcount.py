"""Analytic work per layer instance, and the sgemm reference it is judged by.

Counts come from ``Model.trace_shapes()`` and the ``LayerSpec`` list, never
from timing.  A convolution costs ``2*out*in*kh*kw*nh*nw`` FLOPs forward and
twice that backward (weight and input gradients).  Bytes are computed, not
measured: forward reads the input and the parameters and writes the output
once; backward reads the upstream gradient, the cached input and the
parameters and writes the input and parameter gradients once.
"""

from __future__ import annotations

import statistics
import time
from math import prod

import numpy as np
from spans import walk_layers
from wavecnn import layers as wl
from wavecnn import model as wm

NUM_CLASSES = 3


def conv2d_gemm(spec, in_shape, out_shape) -> tuple[int, int, int, bool]:
    """(M, K, N, strided_b) of the GEMM a ``Conv2D`` call issues.

    Mirrors the path choice in ``Conv2D.forward``: stride-1 convs with more
    than 64 input taps run one (out, in) x (in, span) GEMM per kernel offset
    over a column slice of the flat padded image; the rest run one im2col
    GEMM.
    """
    in_ch, h, w = in_shape
    out_ch, nh, nw = out_shape
    kh, kw = spec.kernel
    if tuple(spec.stride) == (1, 1) and in_ch * kh * kw > 64:
        wp = w + sum(wl.same_pad_amounts(w, kw, 1)) if spec.padding == wl.SAME else w
        return out_ch, in_ch, (nh - 1) * wp + nw, True
    return out_ch, in_ch * kh * kw, nh * nw, False


def _count(key, spec, layer, in_shape, out_shape, itemsize) -> dict:
    params = sum(p.size for p in layer.params.values())
    n_in, n_out = prod(in_shape), prod(out_shape)
    flops = 0
    gemm = None
    if spec.kind in ("conv1d", "conv2d"):
        flops = 2 * out_shape[0] * in_shape[0] * prod(spec.kernel) * prod(out_shape[1:])
    if spec.kind == "conv2d":
        gemm = conv2d_gemm(spec, in_shape, out_shape)
    return {"key": key, "kind": spec.kind, "in_shape": list(in_shape),
            "out_shape": list(out_shape), "fwd_flops": flops, "bwd_flops": 2 * flops,
            "fwd_bytes_computed": itemsize * (n_in + n_out + params),
            "bwd_bytes_computed": itemsize * (2 * n_in + n_out + 2 * params),
            "gemm": gemm}


def layer_work(model) -> dict[str, dict]:
    """Key ("L10", "L02.b1.2") -> analytic counts for every layer instance."""
    shapes = [shape for _, shape in model.trace_shapes()]
    itemsize = model.parameter_arrays()[0].itemsize
    work = {}
    for key, lyr, spec, i, j in walk_layers(model):
        # a branch starts from its nucleus's input and chains within itself
        in_shape = shapes[i] if not j else out_shape
        out_shape = shapes[i + 1] if j is None else lyr.out_shape(in_shape)
        work[key] = _count(key, spec, lyr, in_shape, out_shape, itemsize)
    return work


def variant_work(variant: str) -> dict[str, dict]:
    return layer_work(wm.build_model(variant, NUM_CLASSES))


def gemm_name(gemm) -> str:
    m, k, n, _ = gemm
    return f"{m}x{k}x{n}"


def reference_gemms() -> dict[str, tuple]:
    """Every conv2d GEMM shape of both architectures, by name."""
    return {gemm_name(w["gemm"]): w["gemm"]
            for variant in wm.VARIANTS for w in variant_work(variant).values()
            if w["gemm"] is not None}


def sgemm_gflops(gemm, rng: np.random.Generator, min_seconds: float = 0.2) -> float:
    """Median float32 GFLOP/s of ``matmul(out=...)`` on one GEMM shape.

    A strided B operand is a column slice of a wider array, as the shift
    path's shifted views are.
    """
    m, k, n, strided = gemm
    a = rng.standard_normal((m, k), dtype=np.float32)
    wide = rng.standard_normal((k, n + 2 if strided else n), dtype=np.float32)
    b = wide[:, 1:n + 1] if strided else wide
    c = np.empty((m, n), dtype=np.float32)
    np.matmul(a, b, out=c)
    times = []
    while len(times) < 5 or sum(times) < min_seconds:
        start = time.perf_counter()
        np.matmul(a, b, out=c)
        times.append(time.perf_counter() - start)
    return 2 * m * k * n / statistics.median(times) / 1e9
