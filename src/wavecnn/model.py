"""Model assembly: the two reference architectures, shape tracing, weights IO.

Both networks take a standardized 8000-sample waveform and emit one logit per
class.  The layer list is data (:class:`LayerSpec`), so the exact geometry,
including per-layer padding, is auditable from a built model's config.

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
uses the dense head.  Owners are parameter-carrying layers in traversal
order (inception branches contribute their convs in branch order); each owner
contributes exactly one weight and one bias record.  Round-trips bit-exactly.
A file that breaks any of these rules, or does not match the architecture
its header names, raises :class:`WeightsFormatError` naming the file and the
cause.

Seeds: ``build_model``/``build_from_specs`` with an integer seed draw
Glorot-uniform weights, bitwise the same for the same seed.  With
``seed=None`` they draw nothing and every parameter starts at zero; such a
model exists only to be filled (``load_weights``) or to share another
model's arrays (``Model.replicate``), and records ``config.seed = None``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .layers import (SAME, ChannelsFirstReshape, ClassHead, Conv1D, Conv2D,
                     Dense, Flatten, InceptionNucleus, Layer, LayerSpec, MaxPool1D,
                     MaxPool2D, ReLU)
from .tensor import DTYPE, ShapeError

WITH_INCEPTION = "with_inception"
WITHOUT_INCEPTION = "without_inception"
VARIANTS = (WITH_INCEPTION, WITHOUT_INCEPTION)

INPUT_SAMPLES = 8000

MAGIC = b"WVNC1"
_HEADER = "<5sBII"


class WeightsFormatError(ValueError):
    """A weights file is malformed or does not fit the architecture it names."""


def _conv1d(ch, k, s, padding=SAME):
    return LayerSpec("conv1d", channels=ch, kernel=(k,), stride=(s,), padding=padding)


def _conv2d(ch, k, s, padding=SAME):
    return LayerSpec("conv2d", channels=ch, kernel=(k, k), stride=(s, s), padding=padding)


def _relu():
    return LayerSpec("relu")


def with_inception_layers(num_classes: int, dense_head: bool = False) -> list[LayerSpec]:
    """Architecture column with the multi-kernel nucleus (~302 K parameters)."""
    branch_small = [_conv1d(64, 4, 4), _relu()]
    branch_mid = [_conv1d(64, 8, 4), _relu(), _conv1d(64, 8, 1), _relu()]
    branch_wide = [_conv1d(64, 16, 4), _relu(), _conv1d(64, 16, 1), _relu()]
    head_ch = 10 if dense_head else num_classes
    layers = [
        _conv1d(32, 80, 4), _relu(),
        LayerSpec("inception_nucleus", branches=[branch_small, branch_mid, branch_wide]),
        LayerSpec("maxpool1d", kernel=(10,), stride=(1,)),
        LayerSpec("reshape_channels_first"),
        _conv2d(32, 3, 1), _relu(),
        LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2)),
        _conv2d(64, 3, 1), _relu(),
        _conv2d(64, 3, 1), _relu(),
        LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2)),
        _conv2d(128, 3, 1), _relu(),
        LayerSpec("maxpool2d", kernel=(2, 2), stride=(2, 2)),
        _conv2d(head_ch, 3, 1),
    ]
    return layers + _head_layers(num_classes, dense_head)


def without_inception_layers(num_classes: int, dense_head: bool = False) -> list[LayerSpec]:
    """Plain stacked-conv architecture column (~540 K parameters)."""
    head_ch = 10 if dense_head else num_classes
    layers = [
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
        _conv2d(head_ch, 1, 1),
    ]
    return layers + _head_layers(num_classes, dense_head)


def _head_layers(num_classes: int, dense_head: bool) -> list[LayerSpec]:
    if dense_head:
        return [_relu(), LayerSpec("flatten"), LayerSpec("dense", channels=num_classes)]
    return [LayerSpec("class_head", channels=num_classes)]


@dataclass
class ModelConfig:
    layers: list[LayerSpec]
    num_classes: int
    variant: str
    dense_head: bool = False
    input_samples: int = INPUT_SAMPLES
    seed: int | None = 0          # None: built without drawing any weights
    shapes: list[tuple[int, ...]] = field(default_factory=list)  # filled at build


class Model:
    """Composition of layers: forward applies them in order, backward reverses."""

    def __init__(self, config: ModelConfig, layers: list[Layer]):
        self.config = config
        self.layers = layers

    # -- execution ---------------------------------------------------------

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape != (1, self.config.input_samples):
            raise ShapeError(f"expected {self.config.input_samples} input samples, "
                             f"got shape {x.shape}")
        for lyr in self.layers:
            x = lyr.forward(x, cache=cache)
        return x

    def backward(self, dlogits: np.ndarray) -> list[np.ndarray]:
        """Propagate from logits to every parameter; returns gradients
        aligned with :meth:`parameter_arrays`."""
        grad = dlogits
        for lyr in reversed(self.layers):
            grad = lyr.backward(grad)
        return [owner.grads[role] for owner, role in self._param_slots()]

    # -- parameters --------------------------------------------------------

    def param_owners(self) -> list[Layer]:
        return [owner for lyr in self.layers for owner in lyr.param_owners()]

    def _param_slots(self) -> list[tuple[Layer, str]]:
        return [(owner, role) for owner in self.param_owners()
                for role in ("weight", "bias")]

    def parameter_arrays(self) -> list[np.ndarray]:
        return [owner.params[role] for owner, role in self._param_slots()]

    def parameter_names(self) -> list[str]:
        return [f"{owner.name}.{role}" for owner, role in self._param_slots()]

    def weight_arrays(self) -> list[np.ndarray]:
        """Weights only (bias tensors excluded), for the L2 penalty."""
        return [owner.params["weight"] for owner in self.param_owners()]

    def param_count(self) -> int:
        return int(sum(p.size for p in self.parameter_arrays()))

    def state_bytes(self) -> bytes:
        """Concatenated raw parameter bytes, for bitwise comparisons."""
        return b"".join(np.ascontiguousarray(p).tobytes() for p in self.parameter_arrays())

    def replicate(self) -> "Model":
        """A new Model sharing this one's parameter arrays.

        Replicas have independent forward caches and gradient slots, so
        distinct training samples can run through distinct replicas
        concurrently while optimizer updates on the shared arrays stay
        visible to all of them.  Inference needs none: uncached forwards
        of one model may run concurrently.  The clone draws no weights.
        """
        dtype = self.parameter_arrays()[0].dtype
        clone = build_from_specs(self.config.layers, self.config.num_classes,
                                 variant=self.config.variant,
                                 input_samples=self.config.input_samples,
                                 seed=None,
                                 dense_head=self.config.dense_head, dtype=dtype)
        for mine, theirs in zip(self.param_owners(), clone.param_owners()):
            theirs.params = mine.params
        return clone

    # -- shape audit ---------------------------------------------------------

    def trace_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Propagate the input shape analytically through every layer.

        Raises ShapeError naming the first failing layer.
        """
        shape = (1, self.config.input_samples)
        trace = [("input", shape)]
        for i, lyr in enumerate(self.layers):
            try:
                shape = lyr.out_shape(shape)
            except ShapeError as err:
                raise ShapeError(f"layer {i} ({lyr.name}): {err}") from err
            trace.append((lyr.name, shape))
        if shape != (self.config.num_classes,):
            raise ShapeError(f"final shape {shape} does not match "
                             f"{self.config.num_classes} classes")
        return trace


def _build_layer(spec: LayerSpec, in_shape, rng, dtype, idx, num_classes,
                 prev_kind=None) -> Layer:
    kind = spec.kind
    tag = f"layer{idx:02d}:{kind}"
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
        # in-place only when fed by a layer that emits a fresh unaliased
        # buffer; pooling layers cache references to their outputs
        return ReLU(inplace=prev_kind in ("conv1d", "conv2d", "dense"))
    if kind == "reshape_channels_first":
        return ChannelsFirstReshape()
    if kind == "flatten":
        return Flatten()
    if kind == "dense":
        return Dense(in_shape[0], spec.channels, rng, dtype, name=tag)
    if kind == "class_head":
        return ClassHead(num_classes, name=tag)
    if kind == "inception_nucleus":
        branches = []
        for branch_specs in spec.branches:
            branch, shape, prev = [], in_shape, None
            for j, sub in enumerate(branch_specs):
                sub_layer = _build_layer(sub, shape, rng, dtype,
                                         idx, num_classes, prev)
                sub_layer.name = f"{tag}.b{len(branches)}.{j}:{sub.kind}"
                shape = sub_layer.out_shape(shape)
                branch.append(sub_layer)
                prev = sub.kind
            branches.append(branch)
        return InceptionNucleus(branches, name=tag)
    raise ShapeError(f"unknown layer kind {kind!r}")


def build_from_specs(specs: list[LayerSpec], num_classes: int, *,
                     variant: str = "custom", input_samples: int = INPUT_SAMPLES,
                     seed: int | None = 0, dense_head: bool = False,
                     dtype=DTYPE) -> Model:
    """Instantiate layers from specs and verify shape propagation end to end.

    ``seed=None`` draws no weights: every parameter starts at zero.
    """
    if num_classes < 2:
        raise ShapeError(f"need at least 2 classes, got {num_classes}")
    rng = None if seed is None else np.random.default_rng(seed)
    config = ModelConfig(specs, num_classes, variant, dense_head, input_samples, seed)
    layers: list[Layer] = []
    shape = (1, input_samples)
    prev_kind = None
    for i, spec in enumerate(specs):
        try:
            lyr = _build_layer(spec, shape, rng, dtype, i, num_classes, prev_kind)
            shape = lyr.out_shape(shape)
        except ShapeError as err:
            raise ShapeError(f"layer {i} ({spec.kind}): {err}") from err
        config.shapes.append(shape)
        layers.append(lyr)
        prev_kind = spec.kind
    model = Model(config, layers)
    model.trace_shapes()  # also validates the final logit count
    return model


def build_model(variant: str, num_classes: int, *, seed: int | None = 0,
                dense_head: bool = False, dtype=DTYPE) -> Model:
    """Build one of the two reference architectures for a given class count."""
    if variant == WITH_INCEPTION:
        specs = with_inception_layers(num_classes, dense_head)
    elif variant == WITHOUT_INCEPTION:
        specs = without_inception_layers(num_classes, dense_head)
    else:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return build_from_specs(specs, num_classes, variant=variant, seed=seed,
                            dense_head=dense_head, dtype=dtype)


# -- weights serialization ---------------------------------------------------

_ROLES = {"weight": 0, "bias": 1}
_ROLE_NAMES = {v: k for k, v in _ROLES.items()}


def save_weights(model: Model, path) -> None:
    variant_tag = VARIANTS.index(model.config.variant) + (2 if model.config.dense_head else 0)
    owners = model.param_owners()
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, MAGIC, variant_tag,
                             model.config.num_classes, len(owners)))
        for idx, owner in enumerate(owners):
            for role in ("weight", "bias"):
                arr = owner.params[role]
                fh.write(struct.pack("<IBB", idx, _ROLES[role], arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.astype("<f4", copy=False).tobytes())


def load_weights(path, dtype=DTYPE) -> Model:
    """Build the architecture the file names, drawing no weights, and fill
    every parameter from its records.

    Raises WeightsFormatError, naming the file and the cause, for anything
    but a complete well-formed file for that architecture.  The file holds
    exactly two records per owner, so a slot written twice leaves another
    never written; the duplicate is what gets reported.
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
                        dense_head=variant_tag >= 2, dtype=dtype)
    owners = model.param_owners()
    if len(owners) != owner_count:
        raise bad(f"file declares {owner_count} parameter owners, "
                  f"architecture has {len(owners)}")
    written = set()
    for _ in range(2 * owner_count):
        (idx, role_tag, rank), pos = unpack("<IBB", pos, "record header")
        shape, pos = unpack(f"<{rank}I", pos, "record extents")
        if idx >= owner_count:
            raise bad(f"owner index {idx} out of range for {owner_count} owners")
        role = _ROLE_NAMES.get(role_tag)
        if role is None:
            raise bad(f"owner {idx}: unknown role {role_tag}")
        if (idx, role) in written:
            raise bad(f"owner {idx} {role} written twice")
        written.add((idx, role))
        target = owners[idx].params[role]
        if shape != target.shape:
            raise bad(f"owner {idx} {role}: file shape {shape} != "
                      f"model shape {target.shape}")
        end = pos + 4 * target.size
        if end > len(blob):
            raise bad(f"owner {idx} {role}: values at byte {pos} run past the "
                      f"end of the {len(blob)}-byte file")
        target[...] = np.frombuffer(blob, dtype="<f4", count=target.size,
                                    offset=pos).reshape(shape)
        pos = end
    if pos != len(blob):
        raise bad(f"{len(blob) - pos} trailing bytes after parameter records")
    return model
