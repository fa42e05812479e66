"""Layer forward/backward passes and the declarative layer description.

Conventions, fixed package-wide:

- 1-D feature maps have shape (channels, time); 2-D maps (channels, height,
  width).  The raw input waveform enters as (1, 8000).
- Convolution means cross-correlation (no kernel flip).
- conv1d weights: (out_ch, in_ch, k); conv2d: (out_ch, in_ch, kh, kw);
  bias: (out_ch,).
- Output extent per spatial axis: n = floor((T_padded - k) / stride) + 1.
  "same" padding pads so that n = ceil(T / stride), with the extra sample
  on the right when the total is odd.  Pooling never pads.
- The 1-D layers are the H=1 case of the 2-D ones: :class:`Conv1D` and
  :class:`MaxPool1D` run :class:`Conv2D` and :class:`MaxPool2D` on the
  (C, 1, T) view of a (C, T) map, with kernel (1, k) and stride (1, s).
- ``forward(x, cache=True)`` must precede ``backward(upstream)``; backward
  returns the gradient w.r.t. the input and leaves parameter gradients in
  ``self.grads``.
- ``forward(x, cache=False)`` (inference) writes no layer state, so any
  number of threads may run it on one layer at once.
- Weighted layers draw Glorot-uniform weights from the ``rng`` they are
  given; with ``rng=None`` they draw nothing and start at zero, for models
  whose parameters are loaded or shared right after.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .optim import glorot_init
from .tensor import ShapeError

VALID = "valid"
SAME = "same"


@dataclass
class LayerSpec:
    """Declarative description of one layer; the architecture is data."""

    kind: str                       # conv1d, conv2d, maxpool1d, maxpool2d, relu,
                                    # inception_nucleus, reshape_channels_first,
                                    # class_head, flatten, dense
    channels: int | None = None     # conv/dense output channels
    kernel: tuple[int, ...] | None = None
    stride: tuple[int, ...] | None = None
    padding: str = VALID
    branches: list[list["LayerSpec"]] = field(default_factory=list)

    def __post_init__(self):
        if self.channels is not None and self.channels < 1:
            raise ShapeError(f"channels must be >= 1, got {self.channels}")
        for ext in (self.kernel or ()) + (self.stride or ()):
            if ext < 1:
                raise ShapeError(f"kernel/stride extents must be >= 1, got {ext}")
        if self.padding not in (VALID, SAME):
            raise ShapeError(f"unknown padding {self.padding!r}")


def conv_out_len(size: int, kernel: int, stride: int, padding: str) -> int:
    """n = floor((T_padded - k) / s) + 1; same padding yields ceil(T / s)."""
    if padding == SAME:
        return -(-size // stride)
    if size < kernel:
        raise ShapeError(f"extent {size} smaller than kernel {kernel} under valid padding")
    return (size - kernel) // stride + 1


def same_pad_amounts(size: int, kernel: int, stride: int) -> tuple[int, int]:
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def _init_weight(shape, fan_in: int, fan_out: int, rng: np.random.Generator | None,
                 dtype) -> np.ndarray:
    """Glorot-uniform draw from ``rng``, or zeros drawing nothing when it is None."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    return glorot_init(shape, fan_in, fan_out, rng, dtype)


class Layer:
    """Base class; subclasses fill params/grads when they carry weights."""

    name = "layer"

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Analytic shape propagation, no data involved."""
        raise NotImplementedError

    def param_owners(self) -> list["Layer"]:
        return [self] if self.params else []

    def _take_cache(self):
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward() without a cached forward()")
        cache, self._cache = self._cache, None
        return cache


def _cols_2d(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """im2col, kernel-major: cols[(c*kh + di)*kw + dj, i*nw + j].

    The (C*kh*kw, nh*nw) layout keeps the materializing copy sequential in
    the source, which dominates conv runtime on long maps.
    """
    ch, h, w = xp.shape
    nh = (h - kh) // sh + 1
    nw = (w - kw) // sw + 1
    sc, srh, srw = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (ch, kh, kw, nh, nw), (sc, srh, srw, srh * sh, srw * sw), writeable=False)
    return win.reshape(ch * kh * kw, nh * nw)


class Conv2D(Layer):
    """Strided 2-D cross-correlation over (in_ch, H, W) maps.

    Stride-1 convolutions with more than 64 input taps run as one GEMM per
    kernel offset over the flattened padded image, which avoids
    materializing im2col columns; the rest take the im2col path.  Every
    call allocates its own buffers, so a cached forward stays valid however
    many other calls run before its backward, and threads may share a layer
    for uncached forwards.  Model replicas serve training only, whose
    caches are per-layer state.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: tuple[int, int],
                 stride: tuple[int, int], padding: str, rng: np.random.Generator | None,
                 dtype, name: str = "conv2d"):
        super().__init__()
        self.name = name
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.padding = kernel, stride, padding
        ksz = kernel[0] * kernel[1]
        self.params["weight"] = _init_weight(
            (out_ch, in_ch) + kernel, in_ch * ksz, out_ch * ksz, rng, dtype)
        self.params["bias"] = np.zeros(out_ch, dtype=dtype)

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_ch:
            raise ShapeError(f"{self.name}: expected ({self.in_ch}, H, W), got {in_shape}")
        nh = conv_out_len(in_shape[1], self.kernel[0], self.stride[0], self.padding)
        nw = conv_out_len(in_shape[2], self.kernel[1], self.stride[1], self.padding)
        return (self.out_ch, nh, nw)

    def _pads(self, in_shape):
        if self.padding != SAME:
            return (0, 0), (0, 0)
        return (same_pad_amounts(in_shape[1], self.kernel[0], self.stride[0]),
                same_pad_amounts(in_shape[2], self.kernel[1], self.stride[1]))

    def _weight(self) -> np.ndarray:
        """The weight as (out, in, kh, kw), whatever rank it is stored at."""
        return self.params["weight"].reshape((self.out_ch, self.in_ch) + self.kernel)

    def forward(self, x, cache=True):
        _, nh, nw = self.out_shape(x.shape)
        return self._forward(x, nh, nw, cache)

    def backward(self, upstream):
        return self._backward(upstream)

    # _forward/_backward hold the arithmetic.  Conv1D calls them on its
    # (C, 1, T) view rather than forward/backward, so one 1-D call stays one
    # layer call to anything that wraps those methods, such as bench/spans.py.

    def _forward(self, x, nh, nw, cache):
        # shift-GEMM wants stride 1 and enough input channels per offset to
        # keep the GEMMs off the rank-deficient memory-bound regime
        if self.stride == (1, 1) and self.in_ch * self.kernel[0] * self.kernel[1] > 64:
            return self._forward_shift(x, nh, nw, cache)
        return self._forward_cols(x, nh, nw, cache)

    def _backward(self, upstream):
        mode, cache = self._take_cache()
        if mode == "shift":
            dw, dx = self._backward_shift(upstream, cache)
        else:
            dw, dx = self._backward_cols(upstream, cache)
        self.grads["weight"] = dw.reshape(self.params["weight"].shape)
        self.grads["bias"] = upstream.sum(axis=(1, 2))
        return dx

    # -- stride-1 path: one GEMM per kernel offset on the flat padded image --

    def _forward_shift(self, x, nh, nw, cache):
        (kh, kw) = self.kernel
        (pt, _), (pl, _) = pads = self._pads(x.shape)
        hp, wp = x.shape[1] + sum(pads[0]), x.shape[2] + sum(pads[1])
        # flat padded image with a (kw-1)-zero tail so every shifted GEMM
        # in backward stays in bounds
        xf = np.zeros((self.in_ch, hp * wp + kw - 1), dtype=x.dtype)
        xf[:, :hp * wp].reshape(self.in_ch, hp, wp)[:, pt:pt + x.shape[1],
                                                    pl:pl + x.shape[2]] = x
        span = (nh - 1) * wp + nw  # flat span covering all output positions
        acc = np.zeros((self.out_ch, nh * wp), dtype=x.dtype)
        tmp = np.empty((self.out_ch, span), dtype=x.dtype)
        # (kh, kw, out, in) blocks are contiguous, keeping matmul on the
        # BLAS fast path; strided operands fall off it by ~30x
        wk = np.ascontiguousarray(self._weight().transpose(2, 3, 0, 1))
        for di in range(kh):
            for dj in range(kw):
                off = di * wp + dj
                np.matmul(wk[di, dj], xf[:, off:off + span], out=tmp)
                acc[:, :span] += tmp
        out = acc.reshape(self.out_ch, nh, wp)[:, :, :nw].copy()
        out += self.params["bias"][:, None, None]
        if cache:
            self._cache = ("shift", (xf, x.shape, (hp, wp), pads, (nh, nw)))
        return out

    def _backward_shift(self, upstream, cache):
        xf, x_shape, (hp, wp), pads, (nh, nw) = cache
        (kh, kw) = self.kernel
        grid = np.zeros((self.out_ch, nh * wp), dtype=upstream.dtype)
        grid.reshape(self.out_ch, nh, wp)[:, :, :nw] = upstream
        span = nh * wp
        wk = np.ascontiguousarray(self._weight().transpose(2, 3, 0, 1))
        dw = np.empty((self.out_ch, self.in_ch, kh, kw), dtype=upstream.dtype)
        dxf = np.zeros(xf.shape, dtype=upstream.dtype)
        dtmp = np.empty((self.in_ch, span), dtype=upstream.dtype)
        for di in range(kh):
            for dj in range(kw):
                off = di * wp + dj
                dw[:, :, di, dj] = grid @ xf[:, off:off + span].T
                np.matmul(wk[di, dj].T, grid, out=dtmp)
                dxf[:, off:off + span] += dtmp
        dxp = dxf[:, :hp * wp].reshape(self.in_ch, hp, wp)
        (pt, _), (pl, _) = pads
        return dw, dxp[:, pt:pt + x_shape[1], pl:pl + x_shape[2]].copy()

    # -- generic path via im2col ----------------------------------------------

    def _forward_cols(self, x, nh, nw, cache):
        (kh, kw), (sh, sw) = self.kernel, self.stride
        pads = self._pads(x.shape)
        xp = np.pad(x, ((0, 0),) + pads) if any(p for pair in pads for p in pair) else x
        cols = _cols_2d(xp, kh, kw, sh, sw)
        out = self._weight().reshape(self.out_ch, -1) @ cols
        out += self.params["bias"][:, None]
        if cache:
            self._cache = ("cols", (cols, x.shape, xp.shape, pads, (nh, nw)))
        return out.reshape(self.out_ch, nh, nw)

    def _backward_cols(self, upstream, cache):
        cols, x_shape, xp_shape, pads, (nh, nw) = cache
        (kh, kw), (sh, sw) = self.kernel, self.stride
        up_mat = upstream.reshape(self.out_ch, nh * nw)
        w_mat = self._weight().reshape(self.out_ch, -1)
        dw = up_mat @ cols.T
        dcols = (w_mat.T @ up_mat).reshape(self.in_ch, kh, kw, nh, nw)
        dxp = np.zeros(xp_shape, dtype=upstream.dtype)
        for di in range(kh):
            for dj in range(kw):
                dxp[:, di:di + sh * (nh - 1) + 1:sh, dj:dj + sw * (nw - 1) + 1:sw] += \
                    dcols[:, di, dj]
        if xp_shape == x_shape:
            return dw, dxp
        (pt, _), (pleft, _) = pads
        return dw, dxp[:, pt:pt + x_shape[1], pleft:pleft + x_shape[2]]


class Conv1D(Conv2D):
    """Strided 1-D cross-correlation over (in_ch, T) maps.

    out[c, t] = bias[c] + sum_{i,j} w[c, i, j] * x_padded[i, t*stride + j]

    Runs as :class:`Conv2D` on the (in_ch, 1, T) view with kernel (1, k) and
    stride (1, s); the weight and its gradient stay (out_ch, in_ch, k).
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int,
                 padding: str, rng: np.random.Generator | None, dtype,
                 name: str = "conv1d"):
        super().__init__(in_ch, out_ch, (1, kernel), (1, stride), padding, rng, dtype, name)
        self.params["weight"] = self.params["weight"].reshape(out_ch, in_ch, kernel)

    def out_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[0] != self.in_ch:
            raise ShapeError(f"{self.name}: expected ({self.in_ch}, T), got {in_shape}")
        ch, _, n = super().out_shape((in_shape[0], 1, in_shape[1]))
        return (ch, n)

    def forward(self, x, cache=True):
        _, n = self.out_shape(x.shape)
        return self._forward(x[:, None], 1, n, cache)[:, 0]

    def backward(self, upstream):
        return self._backward(upstream[:, None])[:, 0]


class MaxPool2D(Layer):
    """Max pooling over (C, H, W) windows; first-occurrence tie-breaking."""

    def __init__(self, kernel: tuple[int, int], stride: tuple[int, int],
                 name: str = "maxpool2d"):
        super().__init__()
        self.name = name
        self.kernel, self.stride = kernel, stride

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"{self.name}: expected rank 3, got {in_shape}")
        (kh, kw), (sh, sw) = self.kernel, self.stride
        if in_shape[1] < kh or in_shape[2] < kw:
            raise ShapeError(f"{self.name}: extents {in_shape[1:]} < kernel {self.kernel}")
        return (in_shape[0], (in_shape[1] - kh) // sh + 1, (in_shape[2] - kw) // sw + 1)

    def _window_slices(self, x, nh, nw):
        (kh, kw), (sh, sw) = self.kernel, self.stride
        return [x[:, di:di + sh * (nh - 1) + 1:sh, dj:dj + sw * (nw - 1) + 1:sw]
                for di in range(kh) for dj in range(kw)]

    def forward(self, x, cache=True):
        _, nh, nw = self.out_shape(x.shape)
        return self._forward(x, nh, nw, cache)

    def backward(self, upstream):
        return self._backward(upstream)

    def _forward(self, x, nh, nw, cache):
        slices = self._window_slices(x, nh, nw)
        out = slices[0].copy()
        for s in slices[1:]:
            np.maximum(out, s, out=out)
        if cache:
            self._cache = (x, out, (nh, nw))
        return out

    def _backward(self, upstream):
        x, out, (nh, nw) = self._take_cache()
        dx = np.zeros_like(x, dtype=upstream.dtype)
        # route to the first window position equal to the max (ties broken
        # in row-major window order); comparing floats exactly is safe here
        # because out is one of the compared values, untouched by arithmetic
        taken = np.zeros(out.shape, dtype=bool)
        for src, dst in zip(self._window_slices(x, nh, nw),
                            self._window_slices(dx, nh, nw)):
            mask = src == out
            mask &= ~taken
            dst += upstream * mask
            taken |= mask
        return dx


class MaxPool1D(MaxPool2D):
    """Sliding max over (C, T); gradient routes to the first argmax per window.

    Runs as :class:`MaxPool2D` on the (C, 1, T) view with kernel (1, k) and
    stride (1, s).
    """

    def __init__(self, kernel: int, stride: int, name: str = "maxpool1d"):
        super().__init__((1, kernel), (1, stride), name)

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError(f"{self.name}: expected rank 2, got {in_shape}")
        ch, _, n = super().out_shape((in_shape[0], 1, in_shape[1]))
        return (ch, n)

    def forward(self, x, cache=True):
        _, n = self.out_shape(x.shape)
        return self._forward(x[:, None], 1, n, cache)[:, 0]

    def backward(self, upstream):
        return self._backward(upstream[:, None])[:, 0]


class ReLU(Layer):
    """Elementwise max(0, x).

    With ``inplace=True`` (used inside the model pipeline, where every
    activation and gradient buffer is freshly produced and unaliased) the
    forward overwrites its input and the backward overwrites the upstream
    gradient, saving two large temporaries per call.
    """

    name = "relu"

    def __init__(self, inplace: bool = False):
        super().__init__()
        self.inplace = inplace

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, cache=True):
        out = np.maximum(x, 0, out=x if self.inplace else None)
        if cache:
            self._cache = out  # out > 0 iff pre-activation > 0
        return out

    def backward(self, upstream):
        out = self._take_cache()
        if self.inplace:
            upstream *= out > 0
            return upstream
        return upstream * (out > 0)


class InceptionNucleus(Layer):
    """Parallel 1-D convolution branches concatenated channel-wise.

    Every branch consumes the same input and must produce the same temporal
    extent, which the model build verifies.
    """

    def __init__(self, branches: list[list[Layer]], name: str = "inception"):
        super().__init__()
        self.name = name
        self.branches = branches

    def param_owners(self):
        return [lyr for branch in self.branches for lyr in branch if lyr.params]

    def out_shape(self, in_shape):
        shapes = []
        for branch in self.branches:
            shape = in_shape
            for lyr in branch:
                shape = lyr.out_shape(shape)
            shapes.append(shape)
        lengths = {s[1] for s in shapes}
        if len(lengths) != 1:
            raise ShapeError(f"{self.name}: branch temporal extents differ: "
                             f"{[s[1] for s in shapes]}")
        return (sum(s[0] for s in shapes), lengths.pop())

    def forward(self, x, cache=True):
        outs = []
        for branch in self.branches:
            h = x
            for lyr in branch:
                h = lyr.forward(h, cache=cache)
            outs.append(h)
        lengths = {o.shape[1] for o in outs}
        if len(lengths) != 1:
            raise ShapeError(f"{self.name}: branch temporal extents differ: "
                             f"{[o.shape[1] for o in outs]}")
        if cache:
            self._cache = [o.shape[0] for o in outs]
        return np.concatenate(outs, axis=0)

    def backward(self, upstream):
        channels = self._take_cache()
        dx = None
        offset = 0
        for branch, ch in zip(self.branches, channels):
            du = upstream[offset:offset + ch]
            for lyr in reversed(branch):
                du = lyr.backward(du)
            dx = du if dx is None else dx + du
            offset += ch
        return dx


class ChannelsFirstReshape(Layer):
    """Relabel a (C, T) feature map as a single-channel (1, C, T) image."""

    name = "reshape_channels_first"

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError(f"{self.name}: expected rank 2, got {in_shape}")
        return (1,) + tuple(in_shape)

    def forward(self, x, cache=True):
        return x.reshape((1,) + x.shape)

    def backward(self, upstream):
        return upstream.reshape(upstream.shape[1:])


class Flatten(Layer):
    name = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, cache=True):
        if cache:
            self._cache = x.shape
        return x.reshape(-1)

    def backward(self, upstream):
        return upstream.reshape(self._take_cache())


class Dense(Layer):
    """Fully connected map from a flat vector to logits; optional head style."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None, dtype, name: str = "dense"):
        super().__init__()
        self.name = name
        self.in_features, self.out_features = in_features, out_features
        self.params["weight"] = _init_weight(
            (out_features, in_features), in_features, out_features, rng, dtype)
        self.params["bias"] = np.zeros(out_features, dtype=dtype)

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise ShapeError(f"{self.name}: expected ({self.in_features},), got {in_shape}")
        return (self.out_features,)

    def forward(self, x, cache=True):
        if cache:
            self._cache = x
        return self.params["weight"] @ x + self.params["bias"]

    def backward(self, upstream):
        x = self._take_cache()
        self.grads["weight"] = np.outer(upstream, x)
        self.grads["bias"] = upstream.copy()
        return self.params["weight"].T @ upstream


class ClassHead(Layer):
    """Global average pooling: one logit per channel, mean over spatial axes."""

    def __init__(self, num_classes: int, name: str = "class_head"):
        super().__init__()
        self.name = name
        self.num_classes = num_classes

    def out_shape(self, in_shape):
        if len(in_shape) < 2:
            raise ShapeError(f"{self.name}: need channel + spatial axes, got {in_shape}")
        if in_shape[0] != self.num_classes:
            raise ShapeError(f"{self.name}: {in_shape[0]} channels for "
                             f"{self.num_classes} classes")
        return (self.num_classes,)

    def forward(self, x, cache=True):
        self.out_shape(x.shape)
        if cache:
            self._cache = x.shape
        return x.mean(axis=tuple(range(1, x.ndim)))

    def backward(self, upstream):
        shape = self._take_cache()
        scale = upstream / int(np.prod(shape[1:]))
        return np.broadcast_to(scale.reshape((-1,) + (1,) * (len(shape) - 1)), shape).copy()


def softmax(logits: np.ndarray) -> np.ndarray:
    """Class probabilities of one logit vector.

    Exponentials are max-subtracted so large logits cannot overflow; a
    non-finite logit raises FloatingPointError instead of yielding NaN.
    """
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError(f"non-finite logits: {logits}")
    exps = np.exp(logits - logits.max())
    return exps / exps.sum()


def softmax_xent(logits: np.ndarray, true_class: int):
    """Softmax cross-entropy for one sample.

    Returns (loss, probs, dlogits) where dlogits = probs - onehot(true_class).
    """
    probs = softmax(logits)
    k = logits.size
    if k < 2:
        raise ShapeError(f"need at least 2 classes, got {k}")
    if not 0 <= true_class < k:
        raise IndexError(f"true_class {true_class} out of range for {k} classes")
    with np.errstate(divide="ignore"):  # p[true] == 0 legitimately yields inf
        loss = float(-np.log(probs[true_class]))
    dlogits = probs.copy()
    dlogits[true_class] -= 1.0
    return loss, probs, dlogits
