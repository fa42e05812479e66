import hashlib

import numpy as np
import pytest

from wavecnn.audio import CLIP_SAMPLES, SAMPLE_RATE, load_wav, standardize_samples
from wavecnn.data import parse_manifest
from wavecnn.synth import SynthSpec, generate, synth_clip


class TestSynthSpec:
    def test_default_bands_are_distinct_and_in_range(self):
        spec = SynthSpec(num_classes=4)
        assert len(spec.carrier_bands_hz) == 4
        centers = [(lo + hi) / 2 for lo, hi in spec.carrier_bands_hz]
        assert all(b - a >= 200 for a, b in zip(centers, centers[1:]))
        for lo, hi in spec.carrier_bands_hz:
            assert 0 < lo < hi < SAMPLE_RATE / 2

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -0.1])
    def test_noise_floor_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise_floor"):
            SynthSpec(noise_floor=noise)


class TestGenerate:
    def test_counts_and_manifest(self, tmp_path):
        spec = SynthSpec(num_classes=2, clips_per_class=50, seed=3)
        manifest = generate(spec, tmp_path)
        wavs = sorted(tmp_path.glob("*.wav"))
        assert len(wavs) == 100
        samples = parse_manifest(manifest)
        assert len(samples) == 100
        assert {s.raw_label for s in samples} == {"laugh_cry", "canonical"}

    def test_corpus_bytes_are_pinned(self, tmp_path):
        # sha256 over the sorted (file name, bytes) of the whole corpus, pinned
        # from the generator whose SynthSpec still carried its AM bands,
        # family coloration, ages and peak as fields
        generate(SynthSpec(num_classes=5, clips_per_class=3, families=3, seed=11),
                 tmp_path)
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == \
            "0bcddece720d5c3ac8ed9312375786d13e63b651369e35cee2b5642d8fc18a05"

    def test_same_seed_bit_identical_corpus(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        spec = SynthSpec(num_classes=2, clips_per_class=5, seed=9)
        generate(spec, a)
        generate(SynthSpec(num_classes=2, clips_per_class=5, seed=9), b)
        for left in sorted(a.iterdir()):
            right = b / left.name
            assert left.read_bytes() == right.read_bytes(), left.name

    def test_clips_pass_ingestion_validation(self, tmp_path):
        spec = SynthSpec(num_classes=3, clips_per_class=4, seed=5)
        manifest = generate(spec, tmp_path)
        for sample in parse_manifest(manifest):
            samples, rate, channels = load_wav(sample.clip_path)
            assert (rate, channels) == (SAMPLE_RATE, 1)
            assert len(samples) == CLIP_SAMPLES
            z = standardize_samples(samples)
            assert abs(z.mean(dtype=np.float64)) < 1e-5

    def test_round_robin_label_assignment(self, tmp_path):
        spec = SynthSpec(num_classes=5, clips_per_class=2, seed=7)
        samples = parse_manifest(generate(spec, tmp_path))
        by_label = {}
        for s in samples:
            cls = int(s.clip_path.split("class")[1].split("_")[0])
            by_label.setdefault(s.raw_label, set()).add(cls)
        assert by_label == {"laugh_cry": {0}, "canonical": {1}, "non_canonical": {2},
                            "ids": {3}, "ads": {4}}

    def test_families_cover_requested_count(self, tmp_path):
        spec = SynthSpec(num_classes=2, clips_per_class=40, families=3, seed=1)
        samples = parse_manifest(generate(spec, tmp_path))
        assert {s.family_id for s in samples} == {"F00", "F01", "F02"}


class TestSpectralSeparation:
    def test_class_spectra_peak_at_distinct_frequencies(self):
        spec = SynthSpec(num_classes=3, clips_per_class=1, noise_floor=0.05, seed=2)
        rng = np.random.default_rng(0)
        peaks = []
        for cls in range(3):
            mean_mag = np.zeros(CLIP_SAMPLES // 2 + 1)
            for _ in range(5):
                clip = synth_clip(spec, cls, family_coeff=0.0, rng=rng)
                mean_mag += np.abs(np.fft.rfft(clip))
            freqs = np.fft.rfftfreq(CLIP_SAMPLES, d=1.0 / SAMPLE_RATE)
            peaks.append(freqs[np.argmax(mean_mag)])
        assert all(b - a >= 200 for a, b in zip(peaks, peaks[1:]))
        for peak, (lo, hi) in zip(peaks, spec.carrier_bands_hz):
            assert lo - 50 <= peak <= hi + 50
