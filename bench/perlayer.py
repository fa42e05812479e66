"""Per-layer metrics of a traced run, derived from its spans.

Times are wall seconds from the traced operations, per item: a training
sample or a predict call.  ``_ms`` metrics of the layers are self times (a
layer's span minus its children's, so an inception nucleus does not count its
branches); ``model``, ``audio``, ``data`` and ``optim`` functions report
inclusive times.  ``train.reduce_self_ms`` is the thread-CPU self time of
``train()`` (its gradient reduction and loop, without the time it waits for
workers).  ``_s`` metrics come from one traced set-up.  A metric of a module
the workload never calls reads 0.  ``trace.layer_coverage`` is the share of a
traced operation's process CPU time spent in layer, optimizer and data spans.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, self_times
from workcount import gemm_name, reference_gemms, variant_work

CONV_KINDS = ("conv2d", "conv1d")
NON_CONV_KINDS = ("maxpool2d", "maxpool1d", "relu")
AUDIO_FUNCTIONS = {"load_wav": "load_wav", "resample_to_8k": "resample",
                   "load_clip": "load_clip"}
# set-up work, reported in seconds per traced set-up: it explains setup_s
SETUP_FUNCTIONS = {"synth.generate": "synth.generate_s", "cli.cmd_prepare": "cli.prepare_s",
                   "train.load_clips": "train.load_clips_s"}
# the modules whose spans explain a training step; train()'s own loop and
# gradient reduction, model dispatch and the benchmark's span are left out
LAYER_MODULES = ("layers.", "optim.", "data.")


def conv2d_keys() -> list[str]:
    """Instance keys of every Conv2D in either architecture."""
    return sorted({key for variant in ("with_inception", "without_inception")
                   for key, w in variant_work(variant).items() if w["kind"] == "conv2d"})


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for kind in CONV_KINDS + NON_CONV_KINDS:
        units[f"layers.{kind}.fwd_ms"] = "ms/item"
        units[f"layers.{kind}.bwd_ms"] = "ms/item"
        if kind in CONV_KINDS:
            units[f"layers.{kind}.gflops"] = "GFLOP/s"
    units["layers.inception_nucleus.self_ms"] = "ms/item"
    units["layers.class_head.ms"] = "ms/item"
    units["layers.softmax_xent_ms"] = "ms/item"
    for key in conv2d_keys():
        units[f"layers.{key}.conv2d.fwd_ms"] = "ms/item"
        units[f"layers.{key}.conv2d.bwd_ms"] = "ms/item"
        units[f"layers.{key}.conv2d.gflops"] = "GFLOP/s"
        units[f"layers.{key}.conv2d.frac_of_sgemm"] = "ratio"
    for name in sorted(reference_gemms()):
        units[f"blas.sgemm_gflops.{name}"] = "GFLOP/s"
    units.update({
        "model.forward_cached_ms": "ms/item", "model.forward_uncached_ms": "ms/item",
        "model.backward_ms": "ms/item", "model.load_weights_ms": "ms/item",
        "model.build_ms": "ms/item", "model.load_weights.build_share": "ratio",
        "optim.adam_step_ms": "ms/step", "optim.l2_penalty_ms": "ms/step",
        "train.step_ms": "ms/step", "train.reduce_self_ms": "ms/step",
        "train.worker_busy_frac": "ratio",
    })
    for label in AUDIO_FUNCTIONS.values():
        units[f"audio.{label}_ms"] = "ms/item"
    units.update({"audio.wav_files": "count/op", "audio.wav_bytes": "B/op",
                  "data.batches_ms": "ms/item", "cli.predict.self_ms": "ms/item"})
    for label in SETUP_FUNCTIONS.values():
        units[label] = "s"
    units.update({"trace.overhead_ratio": "ratio", "trace.layer_coverage": "ratio"})
    return units


def _has_ancestor(span: Span, name: str) -> bool:
    span = span.parent
    while span is not None:
        if span.name == name:
            return True
        span = span.parent
    return False


def layer_cpu_per_op(op_spans: list[Span]) -> list[float]:
    """Thread-CPU self seconds of the LAYER_MODULES spans in each traced op.

    Self times of nested spans add up to the outermost one's inclusive time,
    so this is the CPU time spent inside layer, optimizer and data calls, on
    whichever thread ran them.  Spans follow their operation's ``bench.op``.
    """
    _, cpu_self = self_times(op_spans)
    per_op = []
    for s in op_spans:
        if s.name == "bench.op":
            per_op.append(0.0)
        elif s.name.startswith(LAYER_MODULES):
            per_op[-1] += cpu_self[id(s)]
    return per_op


def compute(op_spans: list[Span], setup_spans: list[Span], *, items: int, ops: int,
            threads: int, work: dict, sgemm: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced operations.

    ``work`` is the workload model's :func:`workcount.layer_work` (empty
    when it runs no model); ``sgemm`` maps GEMM names to GFLOP/s.
    """
    wall_self, cpu_self = self_times(op_spans)
    metrics = dict.fromkeys(metric_units(), 0.0)
    per_item = 1e3 / items

    incl = defaultdict(float)      # span name -> inclusive wall seconds
    own = defaultdict(float)       # span name -> self wall seconds
    count = defaultdict(int)
    kind_time = defaultdict(float)  # (kind, phase) -> self seconds
    kind_flops = defaultdict(float)
    inst_time = defaultdict(float)  # (key, phase) -> self seconds
    busy = 0.0
    for s in op_spans:
        incl[s.name] += s.wall
        own[s.name] += wall_self[id(s)]
        count[s.name] += 1
        kind = s.attrs.get("kind")
        if kind is not None:
            phase = s.attrs["phase"]
            kind_time[kind, phase] += wall_self[id(s)]
            layer_work = work.get(s.attrs["key"])
            kind_flops[kind] += layer_work[f"{phase}_flops"] if layer_work else 0
            inst_time[s.attrs["key"], phase] += wall_self[id(s)]
        if (s.name in ("model.forward", "model.backward", "layers.softmax_xent")
                and (s.parent is None or s.parent.name == "train.train")):
            busy += s.wall

    for kind in CONV_KINDS + NON_CONV_KINDS:
        metrics[f"layers.{kind}.fwd_ms"] = kind_time[kind, "fwd"] * per_item
        metrics[f"layers.{kind}.bwd_ms"] = kind_time[kind, "bwd"] * per_item
    for kind in CONV_KINDS:
        seconds = kind_time[kind, "fwd"] + kind_time[kind, "bwd"]
        metrics[f"layers.{kind}.gflops"] = kind_flops[kind] / seconds / 1e9 if seconds else 0.0
    metrics["layers.inception_nucleus.self_ms"] = per_item * (
        kind_time["inception_nucleus", "fwd"] + kind_time["inception_nucleus", "bwd"])
    metrics["layers.class_head.ms"] = per_item * (
        kind_time["class_head", "fwd"] + kind_time["class_head", "bwd"])
    metrics["layers.softmax_xent_ms"] = own["layers.softmax_xent"] * per_item

    for key in conv2d_keys():
        layer_work = work.get(key)
        if layer_work is None or layer_work["kind"] != "conv2d":
            continue
        fwd, bwd = inst_time[key, "fwd"], inst_time[key, "bwd"]
        calls_fwd = count[f"layers.{key}.conv2d.fwd"]
        calls_bwd = count[f"layers.{key}.conv2d.bwd"]
        flops = calls_fwd * layer_work["fwd_flops"] + calls_bwd * layer_work["bwd_flops"]
        gflops = flops / (fwd + bwd) / 1e9 if fwd + bwd else 0.0
        name = f"layers.{key}.conv2d"
        metrics[f"{name}.fwd_ms"] = fwd * per_item
        metrics[f"{name}.bwd_ms"] = bwd * per_item
        metrics[f"{name}.gflops"] = gflops
        metrics[f"{name}.frac_of_sgemm"] = gflops / sgemm[gemm_name(layer_work["gemm"])]
    for name, value in sgemm.items():
        metrics[f"blas.sgemm_gflops.{name}"] = value

    forwards = [s for s in op_spans if s.name == "model.forward"]
    metrics["model.forward_cached_ms"] = per_item * sum(
        s.wall for s in forwards if s.attrs["cache"])
    metrics["model.forward_uncached_ms"] = per_item * sum(
        s.wall for s in forwards if not s.attrs["cache"])
    metrics["model.backward_ms"] = incl["model.backward"] * per_item
    metrics["model.load_weights_ms"] = incl["model.load_weights"] * per_item
    metrics["model.build_ms"] = incl["model.build_from_specs"] * per_item
    if incl["model.load_weights"]:
        discarded = sum(s.wall for s in op_spans if s.name == "model.build_from_specs"
                        and _has_ancestor(s, "model.load_weights"))
        metrics["model.load_weights.build_share"] = discarded / incl["model.load_weights"]

    steps = count["train.train"]
    if steps:
        metrics["optim.adam_step_ms"] = 1e3 * incl["optim.adam_step"] / steps
        metrics["optim.l2_penalty_ms"] = 1e3 * incl["optim.l2_penalty"] / steps
        metrics["train.step_ms"] = 1e3 * incl["train.train"] / steps
        metrics["train.reduce_self_ms"] = 1e3 * sum(
            cpu_self[id(s)] for s in op_spans if s.name == "train.train") / steps
        metrics["train.worker_busy_frac"] = busy / (threads * incl["train.train"])

    for fn, label in AUDIO_FUNCTIONS.items():
        metrics[f"audio.{label}_ms"] = incl[f"audio.{fn}"] * per_item
    metrics["audio.wav_files"] = count["audio.load_wav"] / ops
    metrics["audio.wav_bytes"] = sum(s.attrs.get("bytes", 0) for s in op_spans
                                     if s.name == "audio.load_wav") / ops
    metrics["data.batches_ms"] = incl["data.batches"] * per_item
    metrics["cli.predict.self_ms"] = own["cli.cmd_predict"] * per_item
    for fn, label in SETUP_FUNCTIONS.items():
        metrics[label] = sum((s.wall for s in setup_spans if s.name == fn), 0.0)
    return metrics
