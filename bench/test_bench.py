"""Tests of the benchmark's own code: work counts, tracing, metric names.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import perlayer  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from wavecnn import audio, cli, data, layers, model, optim, synth, train  # noqa: E402
from workcount import variant_work  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = {"layers": layers, "model": model, "optim": optim, "train": train,
           "audio": audio, "data": data, "cli": cli, "synth": synth}


def test_layer10_forward_flops_hand_count():
    work = variant_work(model.WITH_INCEPTION)["L10"]
    # 64 -> 64 channels, 3x3 kernel, 96 x 245 output positions
    assert work["fwd_flops"] == 2 * 64 * 64 * 3 * 3 * 96 * 245
    assert round(work["fwd_flops"] / 1e9, 3) == 1.734
    assert work["bwd_flops"] == 2 * work["fwd_flops"]
    assert work["gemm"] == (64, 64, 95 * 247 + 245, True)


def test_inception_sub_layers_keyed_by_branch_path():
    work = variant_work(model.WITH_INCEPTION)
    assert work["L02.b2.2"]["kind"] == "conv1d"
    assert work["L02.b2.3"]["kind"] == "relu"
    assert work["L02"]["fwd_flops"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == perlayer.metric_units()


def test_wrapping_catches_internal_calls_and_is_undone(tmp_path):
    original = model.load_weights
    model.save_weights(model.build_model(model.WITHOUT_INCEPTION, 3), tmp_path / "w.bin")
    manifest = synth.generate(synth.SynthSpec(num_classes=2, clips_per_class=1),
                              tmp_path / "corpus")
    tracer = Tracer(MODULES)
    tracer.install()
    try:
        net = model.load_weights(tmp_path / "w.bin")
        replica = net.replicate()
        replica.forward(np.zeros(8000, dtype=np.float32))
        cli.main(["prepare", "--manifest", str(manifest), "--out", str(tmp_path / "c")])
    finally:
        tracer.uninstall()
    assert model.load_weights is original and cli.load_weights is original
    names = [s.name for s in tracer.spans]
    parents = {s.name: s.parent.name for s in tracer.spans if s.parent is not None}
    assert parents["model.build_model"] == "model.load_weights"
    assert parents["audio.load_wav"] == "cli.cmd_prepare"
    # the replica's layers are keyed by index, not by their colliding names
    assert "layers.L08.conv2d.fwd" in names and "layers.L09.relu.fwd" in names
    assert not any("L??" in n for n in names)


def test_self_time_subtracts_children():
    tracer = Tracer(MODULES)
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    outer.start, outer.end, inner.start, inner.end = 0.0, 1.0, 0.25, 0.75
    wall, _ = self_times(tracer.spans)
    assert wall[id(outer)] == pytest.approx(0.5) and wall[id(inner)] == pytest.approx(0.5)


def test_layer_sum_leaves_out_the_training_loop():
    tracer = Tracer(MODULES)
    spans = [tracer.open(name) for name in ("bench.op", "train.train",
                                            "layers.L00.conv2d.fwd")]
    for span in reversed(spans):
        tracer.close(span)
    for span, (start, end) in zip(spans, ((0.0, 4.0), (0.5, 3.5), (1.0, 2.0))):
        span.cpu_start, span.cpu_end = start, end
    assert perlayer.layer_cpu_per_op(tracer.spans) == [pytest.approx(1.0)]


def test_oversubscription_is_refused():
    run.check_threads(2, 2)
    with pytest.raises(SystemExit, match="oversubscribe"):
        run.check_threads(2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "infer",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
