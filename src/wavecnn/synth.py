"""Synthetic labeled audio corpora with controllable class separability.

Each synthetic class is an amplitude-modulated tone: the carrier frequency
band separates classes spectrally, the AM rate adds temporal structure, and
white noise at a configurable floor sets the difficulty.  Families imprint a
first-order filter coloration so family leakage is detectable by splits that
should catch it.  Classes are assigned the five raw labels round-robin, so
generated manifests drop straight into the dataset tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import CLIP_SAMPLES, SAMPLE_RATE, write_wav
from .data import AGES_MONTHS, RAW_LABELS, write_manifest
from .tensor import ConfigError

FAMILY_COLORATION = 0.4  # first-order filter coefficients are drawn from +-this
PEAK = 0.9               # post-normalization waveform peak
MAX_CLIPS = 100_000      # clips, and families, per corpus: 1.6 GB of WAVs
MAX_NOISE_FLOOR = 1e300  # noise times a standard-normal draw stays finite


@dataclass
class SynthSpec:
    num_classes: int = 3
    clips_per_class: int = 50
    noise_floor: float = 0.1          # noise amplitude relative to the unit tone
    families: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 1 or self.clips_per_class < 1:
            raise ConfigError("num_classes and clips_per_class must be >= 1")
        if self.families < 1:
            raise ConfigError("families must be >= 1")
        if max(self.num_classes * self.clips_per_class, self.families) > MAX_CLIPS:
            raise ConfigError(f"a corpus holds at most {MAX_CLIPS} clips and as many "
                              f"families, got {self.num_classes} x {self.clips_per_class} "
                              f"clips and {self.families} families")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.noise_floor <= MAX_NOISE_FLOOR:  # NaN fails too
            raise ConfigError(f"noise_floor must be finite, >= 0 and <= {MAX_NOISE_FLOOR:g}, "
                              f"got {self.noise_floor}")

    @property
    def carrier_bands_hz(self) -> list[tuple[float, float]]:
        """Each class's 200 Hz carrier band, centred on an even 400-3200 Hz grid."""
        centers = np.linspace(400.0, 3200.0, self.num_classes)
        return [(c - 100.0, c + 100.0) for c in centers]


def synth_clip(spec: SynthSpec, cls: int, family_coeff: float,
               rng: np.random.Generator) -> np.ndarray:
    """One second of AM tone + noise for the given class, family-colored.

    The AM rate is drawn within 0.5 Hz of the class's point on a 2-12 Hz grid.
    """
    t = np.arange(CLIP_SAMPLES) / SAMPLE_RATE
    lo, hi = spec.carrier_bands_hz[cls]
    carrier_hz = rng.uniform(lo, hi)
    am_rate = np.linspace(2.0, 12.0, spec.num_classes)[cls]
    am_hz = rng.uniform(am_rate - 0.5, am_rate + 0.5)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    tone = np.sin(2.0 * np.pi * carrier_hz * t + phase)
    tone *= 0.6 + 0.4 * np.sin(2.0 * np.pi * am_hz * t + am_phase)
    x = tone + spec.noise_floor * rng.standard_normal(CLIP_SAMPLES)
    colored = x.copy()
    colored[1:] += family_coeff * x[:-1]
    return colored * (PEAK / np.max(np.abs(colored)))


def generate(spec: SynthSpec, out_dir) -> Path:
    """Write WAV clips plus a manifest.csv; returns the manifest path.

    Fully determined by the SynthSpec: the same settings and seed produce a
    bit-identical corpus.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    family_coeffs = rng.uniform(-FAMILY_COLORATION, FAMILY_COLORATION,
                                size=spec.families)
    rows = []
    for cls in range(spec.num_classes):
        label = RAW_LABELS[cls % len(RAW_LABELS)]
        for i in range(spec.clips_per_class):
            family = int(rng.integers(spec.families))
            age = int(AGES_MONTHS[rng.integers(len(AGES_MONTHS))])
            clip = synth_clip(spec, cls, family_coeffs[family], rng)
            name = f"class{cls}_{i:04d}.wav"
            write_wav(out_dir / name, clip, SAMPLE_RATE)
            rows.append((name, label, age, f"F{family:02d}"))
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, rows)
    return manifest
