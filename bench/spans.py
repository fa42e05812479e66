"""Span tracing of wavecnn from outside the package.

:class:`Tracer` replaces the public functions of the traced modules, in every
module namespace that holds them, with wrappers that record a span per call.
Replacing the module globals catches internal calls as well, such as
``load_weights`` -> ``build_model`` or ``cmd_prepare`` -> ``audio.load_wav``.
The ``forward``/``backward`` methods of the ``Layer`` subclasses, ``Model``
and ``Adam.step`` are wrapped on their classes, so the replicas that
``Model.replicate()`` builds for ``threads > 1`` are traced too.

A span holds its name, wall start and end, thread CPU start and end, its
parent (the enclosing span on the same thread, or None) and the thread id.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
import weakref
from dataclasses import dataclass, field

TRACED_MODULES = ("layers", "model", "optim", "train", "audio", "data", "cli", "synth")
# shape arithmetic called inside every conv call; a span would cost more
# than the call and split the conv's time
UNTRACED = {"conv_out_len", "same_pad_amounts"}

# layer class -> LayerSpec kind
LAYER_KINDS = {
    "Conv1D": "conv1d", "Conv2D": "conv2d", "MaxPool1D": "maxpool1d",
    "MaxPool2D": "maxpool2d", "ReLU": "relu", "InceptionNucleus": "inception_nucleus",
    "ChannelsFirstReshape": "reshape_channels_first", "Flatten": "flatten",
    "Dense": "dense", "ClassHead": "class_head",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


def walk_layers(model):
    """Yield (key, layer, spec, i, j) for every layer instance, in call order.

    Keys follow the index ``i`` in ``Model.layers``; an inception sub-layer
    is keyed by its branch path, ``L02.b1.2``, and ``j`` is its place in the
    branch (None for a layer of ``Model.layers``).  Names alone collide:
    every ReLU reports ``.name == "relu"``.
    """
    for i, (lyr, spec) in enumerate(zip(model.layers, model.config.layers)):
        yield f"L{i:02d}", lyr, spec, i, None
        for b, (branch, branch_specs) in enumerate(zip(getattr(lyr, "branches", []),
                                                        spec.branches)):
            for j, (sub, sub_spec) in enumerate(zip(branch, branch_specs)):
                yield f"L{i:02d}.b{b}.{j}", sub, sub_spec, i, j


def layer_keys(model) -> dict:
    """Layer instance -> (key, kind), keyed as :func:`walk_layers` does."""
    return {lyr: (key, spec.kind) for key, lyr, spec, _, _ in walk_layers(model)}


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self, wavecnn_modules: dict):
        """``wavecnn_modules`` maps each name in TRACED_MODULES to its module."""
        self.modules = wavecnn_modules
        self.spans: list[Span] = []
        self._local = threading.local()
        self._layer_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), cpu_start=time.thread_time(),
                    parent=stack[-1] if stack else None,
                    thread=threading.get_ident(), attrs=attrs)
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.cpu_end = time.thread_time()
        span.end = time.perf_counter()
        self._stack().pop()

    def register(self, model) -> None:
        """Key a model's layers by index so their spans can be told apart."""
        self._layer_keys.update(layer_keys(model))

    # -- wrapping ----------------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == "model.build_from_specs":
                tracer.register(result)
            elif name == "audio.load_wav":
                span.attrs["bytes"] = os.path.getsize(args[0])
            return result

        return traced

    def _wrap_method(self, cls, method: str, name_of):
        tracer = self
        fn = cls.__dict__[method]

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            name, attrs = name_of(obj, args, kwargs)
            span = tracer.open(name, **attrs)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer.close(span)

        self._restore.append((cls, method, fn))
        setattr(cls, method, traced)

    def _layer_name(self, phase):
        def name_of(layer, args, kwargs):
            key, kind = self._layer_keys.get(
                layer, ("L??", LAYER_KINDS[type(layer).__name__]))
            return f"layers.{key}.{kind}.{phase}", {"kind": kind, "key": key,
                                                     "phase": phase}
        return name_of

    def install(self, models=()) -> None:
        """Wrap the traced modules; ``models`` built earlier get their layers keyed."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for model in models:
            self.register(model)
        originals = {}
        for short in TRACED_MODULES:
            mod = self.modules[short]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in UNTRACED
                        or not inspect.isfunction(obj)):
                    continue
                home = obj.__module__.rsplit(".", 1)[-1]
                if home in TRACED_MODULES:
                    originals[(short, attr)] = obj
        wrappers = {}
        for (short, attr), fn in originals.items():
            if fn not in wrappers:
                wrappers[fn] = self._wrap_function(
                    fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
            mod = self.modules[short]
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, wrappers[fn])

        layers_mod = self.modules["layers"]
        for cls_name in LAYER_KINDS:
            cls = getattr(layers_mod, cls_name)
            for method, phase in (("forward", "fwd"), ("backward", "bwd")):
                if method in cls.__dict__:
                    self._wrap_method(cls, method, self._layer_name(phase))
        model_cls = self.modules["model"].Model
        self._wrap_method(model_cls, "forward", lambda m, a, k: (
            "model.forward", {"cache": bool(k.get("cache", a[1] if len(a) > 1 else False))}))
        self._wrap_method(model_cls, "backward", lambda m, a, k: ("model.backward", {}))
        self._wrap_method(self.modules["optim"].Adam, "step",
                          lambda m, a, k: ("optim.adam_step", {}))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[Span]) -> tuple[dict, dict]:
    """id(span) -> (wall, thread CPU) self time: its duration minus its children's.

    Children share their parent's thread and nest inside it, so their
    durations never overlap and subtract directly.
    """
    wall = {id(s): s.wall for s in spans}
    cpu = {id(s): s.cpu for s in spans}
    for s in spans:
        if s.parent is not None:
            wall[id(s.parent)] -= s.wall
            cpu[id(s.parent)] -= s.cpu
    return wall, cpu
