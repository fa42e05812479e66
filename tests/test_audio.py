import hashlib
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from conftest import float32_wav_bytes, wav_bytes
from wavecnn.audio import (CLIP_SAMPLES, SAMPLE_RATE, WavFormatError, clip_cache_name,
                           load_clip, load_wav, read_clip_cache, resample_to_8k,
                           standardize_samples, wav_clips, write_clip_cache, write_wav)


def pcm16_wav_bytes(values, rate=8000, channels=1):
    return wav_bytes(np.asarray(values, dtype="<i2").tobytes(), rate=rate, channels=channels)


# SHA-256 of load_wav's float64 output for a fixed payload per (format code,
# bits), mono and stereo; computed before 16- and 32-bit PCM shared one decode
# line and 24-bit samples were read as the high bytes of an int32
DECODE_DIGESTS = {
    (1, 8, 1): "38935c2790cb3be81d1b20b41f17f0674f86917ae8d0c180fea1aa447a3c6ffb",
    (1, 8, 2): "8e426fef9e033acfcc82f1f0a4791f316227b0b2cc1fb1267135654860901c47",
    (1, 16, 1): "650c6e8c8c3e62f609f1824cdc03cbcede94a57f65104bd3cc8b39070689b6f7",
    (1, 16, 2): "69a4ee98437bef0af45e5a2192b44d73391f90c5347457b29c088954734b693a",
    (1, 24, 1): "5bd1d6b6e708879d4c85d794aebadcfd651909b0d47afbdfabdc42673c9c7adc",
    (1, 24, 2): "d549ee5fd9a613e4f100430540547583ea90e0ba8b226876c22fea9e1fd5b87d",
    (3, 32, 1): "386cc0f605746394b9fca0dc39bbfb1aa290e1d3ee7ef471e3e933d1ac0a4e8c",
    (3, 32, 2): "ff397aafa2fb7dc1eb822fa26929731d9aa26b009b3460a7191f9bfc3a3fb07c",
}


class TestLoadWav:
    def test_16bit_scaling_convention(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(pcm16_wav_bytes([16384, -32768, 0]))
        samples, rate, channels = load_wav(path)
        npt.assert_allclose(samples, [0.5, -1.0, 0.0])
        assert (rate, channels) == (8000, 1)

    def test_stereo_averages_to_mono(self, tmp_path):
        left, right = round(0.2 * 32768), round(0.4 * 32768)
        path = tmp_path / "st.wav"
        path.write_bytes(pcm16_wav_bytes([left, right], channels=2))
        samples, _, channels = load_wav(path)
        assert channels == 2
        assert samples[0] == pytest.approx(0.3, abs=1e-4)

    def test_truncated_data_chunk(self, tmp_path):
        blob = pcm16_wav_bytes([1, 2, 3, 4])
        path = tmp_path / "trunc.wav"
        path.write_bytes(blob[:-4])
        with pytest.raises(WavFormatError, match="data chunk shorter than declared"):
            load_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "no.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError, match="RIFF"):
            load_wav(path)

    def test_unsupported_format_code_named(self, tmp_path):
        blob = bytearray(pcm16_wav_bytes([0]))
        blob[20:22] = struct.pack("<H", 7)  # mu-law
        path = tmp_path / "mulaw.wav"
        path.write_bytes(bytes(blob))
        with pytest.raises(WavFormatError, match="format code 7"):
            load_wav(path)

    def test_8bit_and_float32_payloads(self, tmp_path):
        (tmp_path / "u8.wav").write_bytes(wav_bytes(bytes([128, 255, 0]), bits=8))
        samples, _, _ = load_wav(tmp_path / "u8.wav")
        npt.assert_allclose(samples, [0.0, 127 / 128, -1.0])

        (tmp_path / "f32.wav").write_bytes(float32_wav_bytes([0.25, -0.5]))
        samples, _, _ = load_wav(tmp_path / "f32.wav")
        npt.assert_allclose(samples, [0.25, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_payload_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        path.write_bytes(float32_wav_bytes([0.25, bad, -0.5]))
        cause = f"^{re.escape(str(path))}: non-finite samples$"
        with pytest.raises(WavFormatError, match=cause):
            load_wav(path)

    def test_24bit_payload(self, tmp_path):
        value = -(1 << 22)  # -0.5 at 24-bit full scale
        raw = struct.pack("<i", value)[:3]
        (tmp_path / "p24.wav").write_bytes(wav_bytes(raw, bits=24))
        samples, _, _ = load_wav(tmp_path / "p24.wav")
        npt.assert_allclose(samples, [-0.5])

    def test_32bit_pcm_is_exact(self, tmp_path):
        values = np.array([-2**31, 2**30, 2**31 - 1], dtype="<i4")
        (tmp_path / "p32.wav").write_bytes(wav_bytes(values.tobytes(), bits=32))
        samples, _, _ = load_wav(tmp_path / "p32.wav")
        npt.assert_array_equal(samples, [-1.0, 0.5, (2**31 - 1) / 2**31])

    @pytest.mark.parametrize("audio_format, bits, channels", list(DECODE_DIGESTS),
                             ids=[f"{('pcm', 'float')[f == 3]}{b}-{('mono', 'stereo')[c - 1]}"
                                  for f, b, c in DECODE_DIGESTS])
    def test_decoded_bytes_are_pinned(self, tmp_path, audio_format, bits, channels):
        rng = np.random.default_rng(bits)
        if audio_format == 3:
            payload = rng.uniform(-1, 1, 600).astype("<f4").tobytes()
        else:
            payload = rng.integers(0, 256, 2400, dtype=np.uint8).tobytes()
        path = tmp_path / "pinned.wav"
        path.write_bytes(wav_bytes(payload, audio_format, bits, channels=channels))
        samples, _, _ = load_wav(path)
        assert samples.dtype == np.float64 and len(samples) == 2400 * 8 // bits // channels
        digest = hashlib.sha256(samples.tobytes()).hexdigest()
        assert digest == DECODE_DIGESTS[audio_format, bits, channels]

    def test_16bit_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        original = rng.integers(-32768, 32768, size=4000).astype("<i2")
        first = tmp_path / "one.wav"
        first.write_bytes(pcm16_wav_bytes(original))
        samples, rate, _ = load_wav(first)
        second = tmp_path / "two.wav"
        write_wav(second, samples, rate)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_write_refuses_non_finite_samples_before_any_file(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite samples")):
            write_wav(path, np.array([0.1, bad, -0.2]))
        assert not path.exists()


class TestResample:
    def test_rate_8k_is_identity(self):
        x = np.random.default_rng(1).standard_normal(800)
        npt.assert_array_equal(resample_to_8k(x, 8000), x)

    def test_length_arithmetic_44100(self):
        out = resample_to_8k(np.zeros(44100), 44100)
        assert len(out) == 8000

    @pytest.mark.parametrize("rate", [11025, 16000, 44100])
    def test_length_is_the_rounded_ratio_down_to_one_sample(self, rate):
        # inputs shorter than the anti-alias filter included
        for n in range(1, 131):
            out = resample_to_8k(np.ones(n), rate)
            assert len(out) == round(n * SAMPLE_RATE / rate), n

    def test_upsampling_rejected(self):
        with pytest.raises(WavFormatError, match="upsample"):
            resample_to_8k(np.zeros(100), 4000)

    def test_1khz_sine_survives_16k_to_8k(self):
        # analytic oracle: the output must still be the same 1 kHz sine
        t_in = np.arange(16000) / 16000.0
        out = resample_to_8k(np.sin(2 * np.pi * 1000 * t_in), 16000)
        t_out = np.arange(len(out)) / 8000.0
        expected = np.sin(2 * np.pi * 1000 * t_out)
        settle = 40  # skip FIR edge transients
        deviation = np.abs(out[settle:-settle] - expected[settle:-settle])
        assert deviation.max() < 0.01


class TestExtractClips:
    """wav_clips tiles a whole 8 kHz signal into (offset_s, clip) pairs."""

    def test_two_second_segment_yields_two_clips(self):
        clips = wav_clips(np.ones(2 * SAMPLE_RATE), SAMPLE_RATE, "x.wav")
        assert len(clips) == 2
        assert all(c.shape == (CLIP_SAMPLES,) and c.dtype == np.float32
                   for _, c in clips)

    def test_short_remainder_dropped(self):
        clips = wav_clips(np.ones(int(1.4 * SAMPLE_RATE)), SAMPLE_RATE, "x.wav")
        assert len(clips) == 1

    def test_long_remainder_zero_padded(self):
        x = np.random.default_rng(6).standard_normal(int(1.6 * SAMPLE_RATE))
        clips = wav_clips(x, SAMPLE_RATE, "x.wav")
        assert len(clips) == 2
        padded = np.zeros(CLIP_SAMPLES, dtype=np.float32)
        padded[:4800] = x[CLIP_SAMPLES:]
        npt.assert_array_equal(clips[1][1], standardize_samples(padded))

    def test_offsets_recorded(self):
        clips = wav_clips(np.ones(int(2.5 * SAMPLE_RATE)), SAMPLE_RATE, "x.wav")
        assert [offset for offset, _ in clips] == [0.0, 1.0, 2.0]

    def test_signal_under_half_a_second_rejected(self):
        with pytest.raises(WavFormatError, match=r"^x\.wav: 0\.49 s of audio is too short"):
            wav_clips(np.ones(3920), SAMPLE_RATE, "x.wav")


class TestStandardize:
    def test_toy_pair(self):
        npt.assert_allclose(standardize_samples(np.array([1.0, 3.0])), [-1.0, 1.0])

    def test_constant_clip_becomes_zeros(self):
        assert not standardize_samples(np.full(CLIP_SAMPLES, 0.7, np.float32)).any()

    def test_moments_after_standardization(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal(CLIP_SAMPLES).astype(np.float32) * 0.1 + 0.3
            z = standardize_samples(x)
            assert abs(z.mean(dtype=np.float64)) < 1e-5
            assert abs(z.std(dtype=np.float64) - 1.0) < 1e-3

    def test_idempotent(self):
        x = np.random.default_rng(3).standard_normal(CLIP_SAMPLES).astype(np.float32)
        once = standardize_samples(x)
        twice = standardize_samples(once)
        npt.assert_allclose(twice, once, atol=1e-5)

    def test_preserves_provenance(self):
        # each clip is standardized on its own and keeps its own offset
        x = np.random.default_rng(4).standard_normal(3 * CLIP_SAMPLES)
        x[CLIP_SAMPLES:] *= 5.0
        for i, (offset, clip) in enumerate(wav_clips(x, SAMPLE_RATE, "src.wav")):
            window = x[i * CLIP_SAMPLES:(i + 1) * CLIP_SAMPLES].astype(np.float32)
            assert offset == float(i)
            npt.assert_array_equal(clip, standardize_samples(window))


class TestClipCache:
    def test_write_read_round_trip(self, tmp_path):
        samples = np.random.default_rng(5).standard_normal(CLIP_SAMPLES).astype(np.float32)
        path = write_clip_cache(tmp_path, "rec.wav", 3.0, samples)
        assert path.name == clip_cache_name("rec.wav", 3.0)
        assert path.suffix == ".f32"
        npt.assert_array_equal(read_clip_cache(path), samples)

    def test_wrong_size_rejected(self, tmp_path):
        bad = tmp_path / "bad.f32"
        bad.write_bytes(b"\x00" * 100)
        with pytest.raises(WavFormatError, match="100 bytes"):
            read_clip_cache(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cache_file_rejected(self, tmp_path, bad):
        samples = np.zeros(CLIP_SAMPLES, dtype="<f4")
        samples[4321] = bad
        path = tmp_path / "bad.f32"
        path.write_bytes(samples.tobytes())
        cause = f"^{re.escape(str(path))}: non-finite samples$"
        for reader in (read_clip_cache, load_clip):
            with pytest.raises(WavFormatError, match=cause):
                reader(path)

    def test_load_clip_from_wav_is_standardized(self, tmp_path):
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        wav = tmp_path / "tone.wav"
        write_wav(wav, 0.5 * np.sin(2 * np.pi * 440 * t) + 0.1)
        clip = load_clip(wav)
        assert clip.shape == (CLIP_SAMPLES,)
        assert abs(clip.mean(dtype=np.float64)) < 1e-5
