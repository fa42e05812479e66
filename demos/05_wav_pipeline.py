#!/usr/bin/env python3
"""Follow one recording through the ingestion pipeline.

Writes a 2.7-second 16 kHz WAV, then: decode -> anti-alias + resample to
8 kHz -> cut into standardized 1-second clips -> cache as raw float32.
"""

import tempfile
from pathlib import Path

import numpy as np

from wavecnn import audio

with tempfile.TemporaryDirectory(prefix="wavecnn_wav_") as tmp:
    work = Path(tmp)
    rate_in = 16000
    t = np.arange(int(2.7 * rate_in)) / rate_in
    signal = 0.6 * np.sin(2 * np.pi * 700 * t) * (1 + 0.3 * np.sin(2 * np.pi * 3 * t))
    source = work / "recording.wav"
    audio.write_wav(source, signal, rate_in)
    print(f"wrote {source} ({len(signal)} samples at {rate_in} Hz)")

    samples, rate, channels = audio.load_wav(source)
    print(f"decoded: {len(samples)} samples, {rate} Hz, {channels} channel(s), "
          f"peak {np.abs(samples).max():.3f}")

    resampled = audio.resample_to_8k(samples, rate)
    print(f"resampled: {len(resampled)} samples at 8000 Hz "
          f"(= round({len(samples)} * 8000 / {rate}))")

    clips = audio.wav_clips(samples, rate, source=str(source))
    print(f"clips: {len(clips)} x 8000 samples "
          f"(2.7 s -> two full seconds + 0.7 s remainder kept and zero-padded)")

    cache = work / "cache"
    cache.mkdir()
    for offset_s, clip in clips:
        cached = audio.write_clip_cache(cache, str(source), offset_s, clip)
        mean = clip.mean(dtype=np.float64)
        std = clip.std(dtype=np.float64)
        print(f"  offset {offset_s:3.1f} s: mean {mean:+.2e}, "
              f"std {std:.4f} -> {cached.name}")

    back = audio.read_clip_cache(sorted(cache.glob('*.f32'))[0])
    print(f"cache round-trip ok: {back.shape == (8000,)}")
