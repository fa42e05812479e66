"""Shared helpers: a cheap shallow architecture and in-memory tone corpora, so
trainer tests exercise the real loop without paying full-architecture compute."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import wavecnn
from wavecnn.audio import CLIP_SAMPLES, SAMPLE_RATE, standardize_samples
from wavecnn.data import AGES_MONTHS, Sample
from wavecnn.layers import LayerSpec
from wavecnn.model import build_from_specs


def wav_bytes(payload: bytes, audio_format=1, bits=16, rate=8000, channels=1):
    """A WAV whose data chunk is ``payload`` as given, whole samples or not."""
    width = channels * bits // 8
    return struct.pack("<4sI4s4sIHHIIHH4sI",
                       b"RIFF", 36 + len(payload), b"WAVE",
                       b"fmt ", 16, audio_format, channels, rate, rate * width, width, bits,
                       b"data", len(payload)) + payload


def float32_wav_bytes(values, rate=8000):
    """A mono IEEE-float WAV holding ``values``, NaN and inf included."""
    return wav_bytes(np.asarray(values, dtype="<f4").tobytes(), 3, 32, rate)


# Defines train_once(threads): one epoch of train() on four random clips and a
# without_inception model, batch 4, returning the number of samples trained.
# For scripts run with run_python, where process-wide state starts clean.
TRAIN_ONCE = """
import numpy as np
from wavecnn.data import AGES_MONTHS, Sample, Split, get_task
from wavecnn.model import build_model
from wavecnn.train import TrainConfig, train

_task = get_task("ids_vs_ads")
_rng = np.random.default_rng(0)
_samples = [Sample(f"c{i}.f32", ("ids", "ads")[i % 2], AGES_MONTHS[0], "F00")
            for i in range(4)]
_clips = {s.clip_path: _rng.standard_normal(8000).astype(np.float32) for s in _samples}
_model = build_model("without_inception", _task.num_classes, seed=0)

def train_once(threads):
    config = TrainConfig(task=_task.name, variant="without_inception",
                         batch_size=len(_samples), max_epochs=1, threads=threads)
    train(_model, Split(_samples, [], "holdout"), _task, config, _clips)
    return len(_samples)
"""


def run_python(script, *args, env=None):
    """Standard output of ``script`` run by a fresh interpreter on this
    package, with BLAS on one thread so that its bits are reproducible, and
    ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavecnn.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", **(env or {}),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout


def tiny_specs(num_classes):
    return [
        LayerSpec("conv1d", channels=8, kernel=(64,), stride=(16,), padding="same"),
        LayerSpec("relu"),
        LayerSpec("conv1d", channels=num_classes, kernel=(8,), stride=(8,), padding="same"),
        LayerSpec("class_head", channels=num_classes),
    ]


def tiny_model(num_classes, seed=0):
    return build_from_specs(tiny_specs(num_classes), seed=seed)


def tone_clip(freq_hz, rng, noise=0.05):
    t = np.arange(CLIP_SAMPLES) / SAMPLE_RATE
    phase = rng.uniform(0, 2 * np.pi)
    x = np.sin(2 * np.pi * freq_hz * t + phase) + noise * rng.standard_normal(CLIP_SAMPLES)
    return standardize_samples(x)


def tone_corpus(n_per_class, freqs_by_label, families=("F00",), seed=0,
                freq_override=None):
    """In-memory corpus: Sample list plus {clip_path: waveform} dict.

    freqs_by_label maps raw labels to tone frequencies; freq_override, when
    given, is called as (label, family) -> frequency to build family-dependent
    corpora.
    """
    rng = np.random.default_rng(seed)
    samples, clips = [], {}
    i = 0
    for label, freq in freqs_by_label.items():
        for _ in range(n_per_class):
            family = families[i % len(families)]
            hz = freq_override(label, family) if freq_override else freq
            path = f"mem://clip{i:04d}"
            samples.append(Sample(path, label,
                                  int(AGES_MONTHS[i % len(AGES_MONTHS)]), family))
            clips[path] = tone_clip(hz, rng)
            i += 1
    return samples, clips


@pytest.fixture
def two_tone_corpus():
    return tone_corpus(8, {"ids": 500.0, "ads": 2500.0})
