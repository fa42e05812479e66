"""Model assembly: the two reference architectures, shape tracing, weights IO.

Both networks take a standardized 8000-sample waveform and emit one logit per
class.  The layer list is data (:class:`LayerSpec`), so the exact geometry,
including per-layer padding, is auditable from a built model's config.  The
list is the one description of a model: ``build_from_specs`` reads the class
count off the last layer's channels, the head off its kind, and the variant
off the reference table it equals at 8000 samples, else ``"custom"``.

Head styles:

- conv head (default): the final conv emits ``num_classes`` channels and a
  global-average-pooling head collapses the spatial axes into logits.
- dense head (``dense_head=True``): the final conv keeps its nominal channel
  count, followed by flatten and a fully connected layer of ``num_classes``
  units.

Weights file format ("WVNC1", little-endian throughout):

    header:  magic "WVNC1" | variant_tag u8 | num_classes u32 | owner_count u32
    record:  owner_index u32 | role u8 (0=weight, 1=bias) | rank u8
             | extents u32 * rank | values float32 * prod(extents)

``variant_tag``: 0 = with_inception, 1 = without_inception; +2 when the model
uses the dense head.  Records come in slot order (``layers.param_slots``):
the owners, parameter-carrying layers in traversal order (inception branches
in branch order), each its weight then its bias, so record k holds owner
k // 2, role k % 2.  Round-trips bit-exactly.  A file that breaks any of
these rules, holds a NaN or inf value, or does not fit the architecture its
header names raises :class:`WeightsFormatError` naming the file and cause.

Seeds: ``build_model``/``build_from_specs`` with an integer seed draw
Glorot-uniform weights, bitwise the same for the same seed.  With
``seed=None`` they draw nothing and every parameter starts at zero; such a
model exists only to be filled (``load_weights``) or to be described
(``wavecnn params``).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .layers import (SAME, ChannelsFirstReshape, ClassHead, Conv1D, Conv2D,
                     Dense, Flatten, InceptionNucleus, Layer, LayerSpec, MaxPool1D,
                     MaxPool2D, ReLU, param_slots, run_backward, run_forward)
from .tensor import DTYPE, ConfigError, ShapeError, WavecnnError

WITH_INCEPTION = "with_inception"
WITHOUT_INCEPTION = "without_inception"
VARIANTS = (WITH_INCEPTION, WITHOUT_INCEPTION)

INPUT_SAMPLES = 8000

MAGIC = b"WVNC1"
_HEADER = "<5sBII"


class WeightsFormatError(WavecnnError, ValueError):
    """A weights file is malformed or does not fit the architecture it names."""


def _conv1d(ch, k, s):
    return LayerSpec("conv1d", channels=ch, kernel=(k,), stride=(s,), padding=SAME)


def _conv2d(ch, k, s):
    return LayerSpec("conv2d", channels=ch, kernel=(k, k), stride=(s, s), padding=SAME)


def _relu():
    return LayerSpec("relu")


def with_inception_layers(num_classes: int, dense_head: bool = False) -> list[LayerSpec]:
    """Architecture column with the multi-kernel nucleus (~302 K parameters).

    Each 2x2 max-pool runs before the ReLU that follows its conv.  That is
    the conv -> ReLU -> pool network bit for bit: max and ReLU are both
    non-decreasing and pass NaN through, so relu(max(w)) == max(relu(w)),
    and a window's gradient reaches its first max only where that max is
    positive, in either order.  ReLU then runs on, and keeps a mask of, maps
    4x smaller.
    """
    branch_small = [_conv1d(64, 4, 4), _relu()]
    branch_mid = [_conv1d(64, 8, 4), _relu(), _conv1d(64, 8, 1), _relu()]
    branch_wide = [_conv1d(64, 16, 4), _relu(), _conv1d(64, 16, 1), _relu()]
    return [
        _conv1d(32, 80, 4), _relu(),
        LayerSpec("inception_nucleus", branches=[branch_small, branch_mid, branch_wide]),
        LayerSpec("maxpool1d", kernel=(10,), stride=(1,)),
        LayerSpec("reshape_channels_first"),
        _conv2d(32, 3, 1),
        LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2)), _relu(),
        _conv2d(64, 3, 1), _relu(),
        _conv2d(64, 3, 1),
        LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2)), _relu(),
        _conv2d(128, 3, 1),
        LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2)), _relu(),
        *_head_layers(3, num_classes, dense_head),
    ]


def without_inception_layers(num_classes: int, dense_head: bool = False) -> list[LayerSpec]:
    """Plain stacked-conv architecture column (~540 K parameters)."""
    return [
        _conv1d(32, 9, 4), _relu(),
        _conv1d(32, 8, 4), _relu(),
        _conv1d(32, 9, 4), _relu(),
        LayerSpec("maxpool1d", kernel=(2,), stride=(1,)),
        LayerSpec("reshape_channels_first"),
        _conv2d(64, 3, 1), _relu(),
        LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2)),
        _conv2d(128, 3, 1), _relu(),
        _conv2d(128, 3, 1), _relu(),
        LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2)),
        _conv2d(256, 3, 1), _relu(),
        LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2)),
        _conv2d(10, 1, 1), _relu(),
        *_head_layers(1, num_classes, dense_head),
    ]


def _head_layers(k: int, num_classes: int, dense_head: bool) -> list[LayerSpec]:
    """The final ``k`` x ``k`` conv and the head that turns it into logits."""
    if dense_head:
        return [_conv2d(10, k, 1), _relu(), LayerSpec("flatten"),
                LayerSpec("dense", channels=num_classes)]
    return [_conv2d(num_classes, k, 1), LayerSpec("class_head", channels=num_classes)]


_TABLES = {WITH_INCEPTION: with_inception_layers, WITHOUT_INCEPTION: without_inception_layers}


@dataclass
class ModelConfig:
    layers: list[LayerSpec]
    num_classes: int
    variant: str
    dense_head: bool = False
    input_samples: int = INPUT_SAMPLES


class Model:
    """Composition of layers: forward applies them in order, backward reverses.

    Like its layers, a model holds no per-call state: every cached forward
    returns its own tape, so threads may train and infer on one model at
    once while its parameters stay unchanged.
    """

    def __init__(self, config: ModelConfig, layers: list[Layer]):
        self.config = config
        self.layers = layers

    # -- execution ---------------------------------------------------------

    def forward(self, x: np.ndarray, cache: bool = False):
        """Logits, or ``(logits, tape)`` when ``cache`` is true.

        The input is cast to the parameters' dtype; input already in it is
        used as given, without a copy."""
        x = np.asarray(x, dtype=self.parameter_arrays()[0].dtype)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape != (1, self.config.input_samples):
            raise ShapeError(f"expected {self.config.input_samples} input samples, "
                             f"got shape {x.shape}")
        logits, tape = run_forward(self.layers, x, cache)
        return (logits, tape) if cache else logits

    def backward(self, tape: list, dlogits: np.ndarray) -> list[np.ndarray]:
        """Propagate from logits to every parameter; returns gradients
        aligned with :meth:`parameter_arrays`.  Empties ``tape``."""
        _, grads = run_backward(self.layers, tape, dlogits)
        return grads

    # -- parameters --------------------------------------------------------

    def param_owners(self) -> list[Layer]:
        return [owner for lyr in self.layers for owner in lyr.param_owners()]

    def parameter_arrays(self) -> list[np.ndarray]:
        return [owner.params[role] for owner, role in param_slots(self.layers)]

    def parameter_names(self) -> list[str]:
        return [f"{owner.name}.{role}" for owner, role in param_slots(self.layers)]

    def param_count(self) -> int:
        return int(sum(p.size for p in self.parameter_arrays()))

    def state_bytes(self) -> bytes:
        """Concatenated raw parameter bytes, for bitwise comparisons."""
        return b"".join(np.ascontiguousarray(p).tobytes() for p in self.parameter_arrays())

    def replicate(self) -> "Model":
        """A new Model over this one's layers.

        Nothing needs it any more, since threads share one model; it is
        kept for ``bench/test_bench.py``, which still calls it.
        """
        return Model(self.config, self.layers)

    # -- shape audit ---------------------------------------------------------

    def trace_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Propagate the input shape analytically through every layer.

        The build ran the same walk, naming any failing layer, so a built
        model passes it.
        """
        shape = (1, self.config.input_samples)
        trace = [("input", shape)]
        for lyr in self.layers:
            shape = lyr.out_shape(shape)
            trace.append((lyr.name, shape))
        return trace


def _build_layer(spec: LayerSpec, in_shape, rng, dtype, tag, prev: Layer | None) -> Layer:
    kind = spec.kind
    if kind == "conv1d":
        return Conv1D(in_shape[0], spec.channels, spec.kernel[0], spec.stride[0],
                      spec.padding, rng, dtype, name=tag)
    if kind == "conv2d":
        return Conv2D(in_shape[0], spec.channels, spec.kernel, spec.stride,
                      spec.padding, rng, dtype, name=tag)
    if kind == "maxpool1d":
        return MaxPool1D(spec.kernel[0], spec.stride[0], name=tag)
    if kind == "maxpool2d":
        return MaxPool2D(spec.kernel, spec.stride, name=tag)
    if kind == "relu":
        return ReLU(inplace=prev is not None and prev.fresh_output)
    if kind == "reshape_channels_first":
        return ChannelsFirstReshape()
    if kind == "flatten":
        return Flatten()
    if kind == "dense":
        return Dense(in_shape[0], spec.channels, rng, dtype, name=tag)
    if kind == "class_head":
        return ClassHead(spec.channels, name=tag)
    if kind == "inception_nucleus":
        return InceptionNucleus(
            [_build_chain(branch, in_shape, rng, dtype, f"{tag}.b{b}")
             for b, branch in enumerate(spec.branches)], name=tag)
    raise ShapeError(f"unknown layer kind {kind!r}")


def _build_chain(specs: list[LayerSpec], shape, rng, dtype,
                 branch: str | None = None) -> list[Layer]:
    """Build ``specs`` as one chain fed ``shape``.

    A ShapeError gains the failing layer's index and kind.  A top-level
    layer (``branch`` None) is tagged ``layerNN:kind``; every layer of a
    nucleus branch is named ``<branch>.<j>:kind``.
    """
    layers = []
    for j, spec in enumerate(specs):
        tag = f"layer{j:02d}:{spec.kind}" if branch is None else f"{branch}.{j}:{spec.kind}"
        try:
            lyr = _build_layer(spec, shape, rng, dtype, tag, layers[-1] if layers else None)
            shape = lyr.out_shape(shape)
        except ShapeError as err:
            raise ShapeError(f"layer {j} ({spec.kind}): {err}") from err
        if branch is not None:
            lyr.name = tag
        layers.append(lyr)
    return layers


def build_from_specs(specs: list[LayerSpec], *, input_samples: int = INPUT_SAMPLES,
                     seed: int | None = 0, dtype=DTYPE) -> Model:
    """Instantiate layers from specs, checking each layer's shape as it goes.

    The class count, head and variant are read off ``specs`` (module
    docstring).  ``seed=None`` draws no weights: every parameter starts at zero.
    """
    last = specs[-1] if specs else LayerSpec("nothing")
    if last.kind not in ("class_head", "dense") or (last.channels or 0) < 2:
        raise ShapeError(f"layer {len(specs) - 1} ({last.kind}, {last.channels} channels) "
                         f"cannot end a model: only a class_head or dense of >= 2 channels can")
    num_classes, dense_head = last.channels, last.kind == "dense"
    variant = next((name for name, table in _TABLES.items() if input_samples == INPUT_SAMPLES
                    and specs == table(num_classes, dense_head)), "custom")
    rng = None if seed is None else np.random.default_rng(seed)
    config = ModelConfig(specs, num_classes, variant, dense_head, input_samples)
    return Model(config, _build_chain(specs, (1, input_samples), rng, dtype))


def build_model(variant: str, num_classes: int, *, seed: int | None = 0,
                dense_head: bool = False, dtype=DTYPE) -> Model:
    """Build one of the two reference architectures for a given class count."""
    if variant not in _TABLES:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if num_classes >= 2**32:
        raise ConfigError(f"{num_classes} classes: a weights file holds at most 2**32 - 1")
    return build_from_specs(_TABLES[variant](num_classes, dense_head), seed=seed, dtype=dtype)


# -- weights serialization ---------------------------------------------------

def save_weights(model: Model, path) -> None:
    """Write ``model`` as a WVNC1 file.  A custom architecture, which the
    header cannot name, or a non-finite parameter raises ValueError naming
    the file (and ``<owner>.<role>``); no file is opened.

    The bytes go to ``<path>.tmp``, which then replaces ``path``, so a write
    that fails or is killed leaves any earlier file whole."""
    if model.config.variant not in VARIANTS:
        raise ValueError(f"{path}: a custom architecture has no WVNC1 variant tag; not written")
    for name, arr in zip(model.parameter_names(), model.parameter_arrays()):
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: non-finite values in {name}; not written")
    variant_tag = VARIANTS.index(model.config.variant) + (2 if model.config.dense_head else 0)
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack(_HEADER, MAGIC, variant_tag,
                                 model.config.num_classes, len(model.param_owners())))
            for k, arr in enumerate(model.parameter_arrays()):
                fh.write(struct.pack("<IBB", k // 2, k % 2, arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.astype("<f4", copy=False).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_weights(path) -> Model:
    """Build the architecture the file names, drawing no weights, and fill
    every parameter from its records.

    Raises WeightsFormatError, naming the file and the cause, for anything
    but a complete well-formed file for that architecture.  Record k must
    hold the owner index, role and shape of parameter slot k.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def bad(cause: str) -> WeightsFormatError:
        return WeightsFormatError(f"{path}: {cause}")

    def unpack(fmt: str, pos: int, what: str):
        end = pos + struct.calcsize(fmt)
        if end > len(blob):
            raise bad(f"{what} at byte {pos} runs past the end of the "
                      f"{len(blob)}-byte file")
        return struct.unpack_from(fmt, blob, pos), end

    if blob[:5] != MAGIC:
        raise bad(f"not a {MAGIC.decode()} weights file: magic {blob[:5]!r}")
    (_, variant_tag, num_classes, owner_count), pos = unpack(_HEADER, 0, "header")
    if variant_tag > 3:
        raise bad(f"unknown variant tag {variant_tag}")
    # the last layer's bias alone holds num_classes values, so the file size
    # bounds the class count before anything is allocated
    if not 2 <= num_classes <= len(blob) // 4:
        raise bad(f"class count {num_classes} is below 2 or more than "
                  f"the file's values can hold")
    model = build_model(VARIANTS[variant_tag % 2], num_classes, seed=None,
                        dense_head=variant_tag >= 2)
    if len(model.param_owners()) != owner_count:
        raise bad(f"file declares {owner_count} parameter owners, "
                  f"architecture has {len(model.param_owners())}")
    for k, (owner, role) in enumerate(param_slots(model.layers)):
        start = pos
        (idx, role_tag, rank), pos = unpack("<IBB", pos, "record header")
        shape, pos = unpack(f"<{rank}I", pos, "record extents")
        target = owner.params[role]
        slot = f"owner {k // 2} {role}"
        if (idx, role_tag, shape) != (k // 2, k % 2, target.shape):
            raise bad(f"record at byte {start} holds owner {idx}, role {role_tag}, shape "
                      f"{shape}; slot {k} wants {slot} (role {k % 2}), shape {target.shape}")
        end = pos + 4 * target.size
        if end > len(blob):
            raise bad(f"{slot}: values at byte {pos} run past the "
                      f"end of the {len(blob)}-byte file")
        target[...] = np.frombuffer(blob, dtype="<f4", count=target.size,
                                    offset=pos).reshape(shape)
        if not np.isfinite(target).all():
            raise bad(f"{slot}: non-finite values")
        pos = end
    if pos != len(blob):
        raise bad(f"{len(blob) - pos} trailing bytes after parameter records")
    return model
