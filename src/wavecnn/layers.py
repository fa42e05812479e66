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
  :class:`MaxPool1D` are :class:`Conv2D` and :class:`MaxPool2D` with kernel
  (1, k) and stride (1, s), and differ only in the rank their ``out_shape``
  accepts.  The 2-D layers' one ``forward`` and ``backward`` take a (C, T)
  map as its (C, 1, T) image and answer in the caller's rank.
- ``forward(x)`` returns the output; ``forward(x, cache=True)`` returns
  ``(out, tape)``, where the tape holds what backward needs of that call.
  ``backward(tape, upstream)`` returns ``(dx, grads)``: the gradient w.r.t.
  the input and, for each owner in ``param_owners()``, its weight gradient
  then its bias gradient (``[]`` for a layer without parameters).
- A tape holds arrays its own forward allocated, plus the input shape where
  they do not show it: it never references the layer's input or output.
- A shift-path convolution returns a strided view of its GEMM accumulator,
  the valid columns with the bias added in place, which keeps the whole
  accumulator alive; :class:`ClassHead` copies such a map before it reduces.
- A tape serves one backward.  A convolution's backward empties its tape
  (a list) and frees each of its buffers after their last read, before
  allocating the gradient buffers that follow.
- Layers hold no per-call state: between construction and a change of
  ``params`` they are read-only, so any number of threads may run forwards
  and backwards on one layer at once, each with its own tapes.
  :func:`run_forward`, :func:`run_backward` and :func:`param_slots` walk layers.
- Weighted layers draw Glorot-uniform weights from the ``rng`` they are
  given; with ``rng=None`` they draw nothing and start at zero, for models
  whose parameters are loaded or shared right after.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blas import gemm_acc
from .optim import glorot_init
from .tensor import NonFiniteError, ShapeError

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
    """Base class; subclasses fill params when they carry weights."""

    name = "layer"
    # forward returns a buffer it allocated and no tape references, which an
    # in-place ReLU may then overwrite
    fresh_output = False

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, cache: bool = False):
        """``out``, or ``(out, tape)`` when ``cache`` is true."""
        raise NotImplementedError

    def backward(self, tape, upstream: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(dx, grads)`` for the forward call that produced ``tape``."""
        raise NotImplementedError

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Analytic shape propagation, no data involved."""
        raise NotImplementedError

    def param_owners(self) -> list["Layer"]:
        return [self] if self.params else []


def param_slots(layers: list[Layer]) -> list[tuple[Layer, str]]:
    """Every parameter of ``layers`` as ``(owner, role)``: each owner in
    ``param_owners()`` order, its weight then its bias.  Parameter arrays,
    their names, gradients and weights-file records all follow this order."""
    return [(owner, role) for lyr in layers for owner in lyr.param_owners()
            for role in ("weight", "bias")]


def run_forward(layers: list[Layer], x: np.ndarray, cache: bool):
    """Apply ``layers`` in order; returns (out, tapes), tapes empty unless cached."""
    tapes = []
    for lyr in layers:
        if cache:
            x, tape = lyr.forward(x, cache=True)
            tapes.append(tape)
        else:
            x = lyr.forward(x, cache=False)
    return x, tapes


def run_backward(layers: list[Layer], tapes: list, upstream: np.ndarray):
    """Propagate ``upstream`` back through ``layers``; returns (dx, grads),
    grads in parameter-owner order.

    Pops ``tapes`` empty, so each layer's tape is freed once its backward
    has run rather than when the whole pass ends.
    """
    per_layer = []
    for lyr in reversed(layers):
        upstream, grads = lyr.backward(tapes.pop(), upstream)
        per_layer.append(grads)
    return upstream, [g for grads in reversed(per_layer) for g in grads]


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


def _image(a: np.ndarray) -> np.ndarray:
    """A (C, H, W) map as itself, a (C, T) map as its (C, 1, T) view."""
    return a.reshape(a.shape[0], -1, a.shape[-1])


def _offset_views(x: np.ndarray, kernel, stride, nh: int, nw: int) -> list[np.ndarray]:
    """Per kernel offset (di, dj), row-major, the (C, nh, nw) view x[:, i*sh+di, j*sw+dj]."""
    (kh, kw), (sh, sw) = kernel, stride
    return [x[:, di:di + sh * (nh - 1) + 1:sh, dj:dj + sw * (nw - 1) + 1:sw]
            for di in range(kh) for dj in range(kw)]


class Conv2D(Layer):
    """Strided 2-D cross-correlation over (in_ch, H, W) maps.

    Stride-1 convolutions with more than 64 input taps (``shift``, fixed at
    build) run as one GEMM per kernel offset over the flattened padded
    image, which avoids materializing im2col columns; each offset's GEMM
    accumulates straight into the output (forward) or the input gradient
    (backward) inside BLAS, through :func:`~wavecnn.blas.gemm_acc`.  The
    rest take the im2col path.  Every call allocates its own buffers, so a
    tape stays valid however many other calls run before its one backward.
    """

    fresh_output = True

    def __init__(self, in_ch: int, out_ch: int, kernel: tuple[int, int],
                 stride: tuple[int, int], padding: str, rng: np.random.Generator | None,
                 dtype, name: str = "conv2d"):
        super().__init__()
        self.name = name
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.padding = kernel, stride, padding
        ksz = kernel[0] * kernel[1]
        # shift-GEMM wants stride 1 and enough input channels per offset to
        # keep the GEMMs off the rank-deficient memory-bound regime
        self.shift = stride == (1, 1) and in_ch * ksz > 64
        self.params["weight"] = _init_weight(
            (out_ch, in_ch) + kernel, in_ch * ksz, out_ch * ksz, rng, dtype)
        self.params["bias"] = np.zeros(out_ch, dtype=dtype)

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_ch:
            raise ShapeError(f"{self.name}: expected ({self.in_ch}, H, W), got {in_shape}")
        nh = conv_out_len(in_shape[1], self.kernel[0], self.stride[0], self.padding)
        nw = conv_out_len(in_shape[2], self.kernel[1], self.stride[1], self.padding)
        return (self.out_ch, nh, nw)

    def _padded(self, in_shape):
        """``(pads, (hp, wp))`` of a (C, H, W) or (C, T) input: its per-axis
        (before, after) pads and its padded extent, a (C, T) map as one row."""
        extent = (1, *in_shape[1:])[-2:]
        pads = tuple(same_pad_amounts(n, k, s) if self.padding == SAME else (0, 0)
                     for n, k, s in zip(extent, self.kernel, self.stride))
        return pads, tuple(n + sum(p) for n, p in zip(extent, pads))

    def _weight(self) -> np.ndarray:
        """The weight as (out, in, kh, kw), whatever rank it is stored at."""
        return self.params["weight"].reshape((self.out_ch, self.in_ch) + self.kernel)

    def forward(self, x, cache=False):
        shape = self.out_shape(x.shape)
        nh, nw = (1, *shape[1:])[-2:]  # a (C, T) map's image has H = 1
        # the tape only keeps the padded buffer the arithmetic allocates anyway
        run = self._forward_shift if self.shift else self._forward_cols
        out, padded = run(_image(x), nh, nw)
        out = out.reshape(shape)
        return (out, [padded, x.shape]) if cache else out

    def backward(self, tape, upstream):
        upstream = _image(upstream)
        run = self._backward_shift if self.shift else self._backward_cols
        dw, dx = run(upstream, tape)
        return dx, [dw.reshape(self.params["weight"].shape), upstream.sum(axis=(1, 2))]

    # -- stride-1 path: one GEMM per kernel offset on the flat padded image --

    def _forward_shift(self, x, nh, nw):
        (kh, kw) = self.kernel
        ((pt, _), (pl, _)), (hp, wp) = self._padded(x.shape)
        # flat padded image with a (kw-1)-zero tail so every shifted GEMM
        # in backward stays in bounds
        xf = np.zeros((self.in_ch, hp * wp + kw - 1), dtype=x.dtype)
        xf[:, :hp * wp].reshape(self.in_ch, hp, wp)[:, pt:pt + x.shape[1],
                                                    pl:pl + x.shape[2]] = x
        span = (nh - 1) * wp + nw  # flat span covering all output positions
        acc = np.zeros((self.out_ch, nh * wp), dtype=x.dtype)
        # (kh, kw, out, in) makes each tap's weight a row-major block, the
        # only layout gemm_acc takes
        wk = np.ascontiguousarray(self._weight().transpose(2, 3, 0, 1))
        for di in range(kh):
            for dj in range(kw):
                off = di * wp + dj
                gemm_acc(wk[di, dj], xf[:, off:off + span], acc[:, :span])
        # the output is acc's nw valid columns of each row, a strided view
        out = acc.reshape(self.out_ch, nh, wp)[:, :, :nw]
        out += self.params["bias"][:, None, None]
        return out, xf

    def _backward_shift(self, upstream, tape):
        xf, x_shape = tape
        tape.clear()
        (kh, kw) = self.kernel
        ((pt, pb), (pl, pr)), (hp, wp) = self._padded(x_shape)
        _, nh, nw = upstream.shape
        span = nh * wp
        # the upstream as (span, out) rows, zero on the junk columns, so each
        # tap's weight gradient is the plain GEMM xf[:, off:off + span] @ grid_t
        grid_t = np.zeros((span, self.out_ch), dtype=upstream.dtype)
        grid_t.reshape(nh, wp, self.out_ch)[:, :nw] = upstream.transpose(1, 2, 0)
        taps = [(di, dj, di * wp + dj) for di in range(kh) for dj in range(kw)]
        dw = np.empty((self.out_ch, self.in_ch, kh, kw), dtype=upstream.dtype)
        for di, dj, off in taps:
            dw[:, :, di, dj] = (xf[:, off:off + span] @ grid_t).T
        # the weight gradient was the last reader of xf and grid_t: free both
        # before the input gradient's grid and dxf exist
        flat_shape = xf.shape
        del xf, grid_t
        grid = np.zeros((self.out_ch, span), dtype=upstream.dtype)
        grid.reshape(self.out_ch, nh, wp)[:, :, :nw] = upstream
        wk = np.ascontiguousarray(self._weight().transpose(2, 3, 0, 1))
        dxf = np.zeros(flat_shape, dtype=upstream.dtype)
        for di, dj, off in taps:
            gemm_acc(wk[di, dj].T, grid, dxf[:, off:off + span])
        del grid
        dxp = dxf[:, :hp * wp].reshape(self.in_ch, hp, wp)
        return dw, dxp[:, pt:hp - pb, pl:wp - pr].reshape(x_shape).copy()

    # -- generic path via im2col ----------------------------------------------

    def _forward_cols(self, x, nh, nw):
        (kh, kw), (sh, sw) = self.kernel, self.stride
        ((pt, _), (pl, _)), (hp, wp) = self._padded(x.shape)
        xp = np.zeros((self.in_ch, hp, wp), dtype=x.dtype)  # fresh: the tape never aliases x
        xp[:, pt:pt + x.shape[1], pl:pl + x.shape[2]] = x
        out = self._weight().reshape(self.out_ch, -1) @ _cols_2d(xp, kh, kw, sh, sw)
        out += self.params["bias"][:, None]
        return out.reshape(self.out_ch, nh, nw), xp

    def _backward_cols(self, upstream, tape):
        xp, x_shape = tape
        tape.clear()
        ((pt, pb), (pl, pr)), (hp, wp) = self._padded(x_shape)
        _, nh, nw = upstream.shape
        up_mat = upstream.reshape(self.out_ch, nh * nw)
        w_mat = self._weight().reshape(self.out_ch, -1)
        # the columns are kh*kw times the padded input: rebuilt, not kept
        dw = up_mat @ _cols_2d(xp, *self.kernel, *self.stride).T
        dcols = (w_mat.T @ up_mat).reshape(self.in_ch, -1, nh, nw)
        dxp = np.zeros(xp.shape, dtype=upstream.dtype)
        for k, dst in enumerate(_offset_views(dxp, self.kernel, self.stride, nh, nw)):
            dst += dcols[:, k]
        return dw, dxp[:, pt:hp - pb, pl:wp - pr].reshape(x_shape)


class Conv1D(Conv2D):
    """Strided 1-D cross-correlation over (in_ch, T) maps.

    out[c, t] = bias[c] + sum_{i,j} w[c, i, j] * x_padded[i, t*stride + j]

    :class:`Conv2D` with kernel (1, k) and stride (1, s), run on the
    (in_ch, 1, T) image; the weight and its gradient stay (out_ch, in_ch, k).
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


class MaxPool2D(Layer):
    """Max pooling over (C, H, W) windows; first-occurrence tie-breaking."""

    fresh_output = True

    def __init__(self, kernel: tuple[int, int], stride: tuple[int, int],
                 name: str = "maxpool2d"):
        super().__init__()
        self.name = name
        self.kernel, self.stride = kernel, stride

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"{self.name}: expected rank 3, got {in_shape}")
        nh = conv_out_len(in_shape[1], self.kernel[0], self.stride[0], VALID)
        nw = conv_out_len(in_shape[2], self.kernel[1], self.stride[1], VALID)
        return (in_shape[0], nh, nw)

    def forward(self, x, cache=False):
        shape = self.out_shape(x.shape)
        nh, nw = (1, *shape[1:])[-2:]
        slices = _offset_views(_image(x), self.kernel, self.stride, nh, nw)
        out = slices[0].copy()
        for s in slices[1:]:
            np.maximum(out, s, out=out)
        if not cache:  # the tape costs a pass over every window
            return out.reshape(shape)
        return out.reshape(shape), (x.shape, _first_max(slices, out))

    def backward(self, tape, upstream):
        shape, first = tape
        _, nh, nw = first.shape
        dx = np.zeros(shape, dtype=upstream.dtype)
        upstream = _image(upstream)
        hit = np.empty(first.shape, dtype=bool)
        # += keeps overlapping windows accumulating into a shared position
        for k, dst in enumerate(_offset_views(_image(dx), self.kernel, self.stride, nh, nw)):
            np.equal(first, k, out=hit)
            dst += upstream * hit
        return dx, []


def _first_max(slices: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Per window, the index of the first slice (row-major window order) equal
    to the max ``out``; ``len(slices)`` where none is, as under a NaN max.

    Counts the leading positions that all differ from the max: assigning
    ``first[s == out] = k`` instead made a with_inception training step
    about 10 % slower.
    Comparing floats exactly is safe: ``out`` holds one of the compared
    values, untouched by arithmetic.
    """
    first = np.zeros(out.shape, dtype=np.min_scalar_type(len(slices)))
    before = np.ones(out.shape, dtype=bool)  # every position so far differs
    differ = np.empty(out.shape, dtype=bool)
    for s in slices:
        np.not_equal(s, out, out=differ)
        before &= differ
        first += before
    return first


class MaxPool1D(MaxPool2D):
    """Sliding max over (C, T); gradient routes to the first argmax per window.

    :class:`MaxPool2D` with kernel (1, k) and stride (1, s), run on the
    (C, 1, T) image.
    """

    def __init__(self, kernel: int, stride: int, name: str = "maxpool1d"):
        super().__init__((1, kernel), (1, stride), name)

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError(f"{self.name}: expected rank 2, got {in_shape}")
        ch, _, n = super().out_shape((in_shape[0], 1, in_shape[1]))
        return (ch, n)


class ReLU(Layer):
    """Elementwise max(0, x).

    With ``inplace=True`` (which the model build sets after a layer whose
    ``fresh_output`` is true) the forward overwrites its input and the
    backward overwrites the upstream gradient, saving two large temporaries
    per call.
    """

    name = "relu"

    def __init__(self, inplace: bool = False):
        super().__init__()
        self.inplace = inplace

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, cache=False):
        out = np.maximum(x, 0, out=x if self.inplace else None)
        return (out, out > 0) if cache else out  # out > 0 iff pre-activation > 0

    def backward(self, mask, upstream):
        return np.multiply(upstream, mask, out=upstream if self.inplace else None), []


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

    def forward(self, x, cache=False):
        self.out_shape(x.shape)  # the branches must agree on the temporal extent
        outs, tapes = [], []
        for branch in self.branches:
            out, tape = run_forward(branch, x, cache)
            outs.append(out)
            tapes.append(tape)
        out = np.concatenate(outs, axis=0)
        return (out, (tapes, [o.shape[0] for o in outs])) if cache else out

    def backward(self, tape, upstream):
        tapes, channels = tape
        dx, grads = None, []
        offset = 0
        for branch, branch_tapes, ch in zip(self.branches, tapes, channels):
            du, branch_grads = run_backward(branch, branch_tapes, upstream[offset:offset + ch])
            dx = du if dx is None else dx + du
            grads += branch_grads
            offset += ch
        return dx, grads


class Flatten(Layer):
    """Any map as one flat vector; its subclasses relabel to their ``out_shape``."""

    name = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, cache=False):
        out = x.reshape(self.out_shape(x.shape))
        return (out, x.shape) if cache else out

    def backward(self, shape, upstream):
        return upstream.reshape(shape), []


class ChannelsFirstReshape(Flatten):
    """Relabel a (C, T) feature map as a single-channel (1, C, T) image."""

    name = "reshape_channels_first"

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError(f"{self.name}: expected rank 2, got {in_shape}")
        return (1,) + tuple(in_shape)


class Dense(Layer):
    """Fully connected map from a flat vector to logits; optional head style."""

    fresh_output = True

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

    def forward(self, x, cache=False):
        out = self.params["weight"] @ x + self.params["bias"]
        return (out, x.copy()) if cache else out

    def backward(self, x, upstream):
        return self.params["weight"].T @ upstream, [np.outer(upstream, x), upstream.copy()]


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

    def forward(self, x, cache=False):
        self.out_shape(x.shape)
        # a copy, as numpy sums a strided map in another order than a contiguous one
        out = np.ascontiguousarray(x).mean(axis=tuple(range(1, x.ndim)))
        return (out, x.shape) if cache else out

    def backward(self, shape, upstream):
        scale = upstream / int(np.prod(shape[1:]))
        dx = np.broadcast_to(scale.reshape((-1,) + (1,) * (len(shape) - 1)), shape).copy()
        return dx, []


def softmax(logits: np.ndarray) -> np.ndarray:
    """Class probabilities of one logit vector.

    Exponentials are max-subtracted so large logits cannot overflow; a
    non-finite logit raises NonFiniteError instead of yielding NaN.
    """
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError(f"non-finite logits: {logits}")
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
