#!/usr/bin/env python3
"""Generate a small synthetic corpus and inspect what makes it learnable.

Each class is an amplitude-modulated tone in its own frequency band plus
noise; families add a filter coloration.  The script prints the manifest
head and the measured spectral peak per class.
"""

import tempfile

import numpy as np

from wavecnn.audio import SAMPLE_RATE, load_wav
from wavecnn.data import parse_manifest
from wavecnn.synth import SynthSpec, generate

with tempfile.TemporaryDirectory(prefix="wavecnn_demo_") as out:
    spec = SynthSpec(num_classes=3, clips_per_class=12, families=2,
                     noise_floor=0.1, seed=0)
    manifest = generate(spec, out)
    print(f"corpus in {out}")
    bands = [f"{lo:.0f}-{hi:.0f} Hz" for lo, hi in spec.carrier_bands_hz]
    print(f"class carrier bands: {bands}")

    print("\nmanifest head:")
    for line in manifest.read_text().splitlines()[:5]:
        print(f"  {line}")

    samples = parse_manifest(manifest)
    print("\nmeasured spectral peaks (mean over clips):")
    for cls in range(3):
        clips = [s for s in samples if f"class{cls}_" in s.clip_path]
        magnitude = np.zeros(SAMPLE_RATE // 2 + 1)
        for s in clips:
            wave, _, _ = load_wav(s.clip_path)
            magnitude += np.abs(np.fft.rfft(wave))
        freqs = np.fft.rfftfreq(SAMPLE_RATE, d=1.0 / SAMPLE_RATE)
        print(f"  class {cls} ({clips[0].raw_label:>13s}): "
              f"{freqs[np.argmax(magnitude)]:6.0f} Hz over {len(clips)} clips")
