"""WAV ingestion: decode, resample to 8 kHz, cut standardized 1-second clips.

Supported input: RIFF/WAVE containers with PCM 8/16/24/32-bit or IEEE float32
payloads, mono or stereo, whose data chunk holds whole frames (one sample per
channel); any other WAV raises WavFormatError and none is cut.  Everything
downstream of :func:`load_wav` works on float arrays scaled to [-1, 1]; stereo
is averaged to mono at load time.  A float payload or cache file holding NaN
or inf raises WavFormatError, as does a zero sample rate or an empty chunk.

A recording becomes a list of ``(offset_s, samples)`` pairs: each pair is
one standardized 1-second clip and its start in the 8 kHz signal.  The clip
cache stores one file per clip: 8000 raw little-endian float32 values, named
``<sha1 of "source@offset">.f32``.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .tensor import WavecnnError

SAMPLE_RATE = 8000
CLIP_SAMPLES = 8000
ANTI_ALIAS_CUTOFF_HZ = 3600.0
ANTI_ALIAS_TAPS = 65  # odd tap count gives an integer group delay
MIN_KEEP_SAMPLES = 4000  # a trailing remainder of >= 0.5 s is kept and zero-padded


class WavFormatError(WavecnnError, ValueError):
    """Malformed or unsupported WAV input."""


# -- RIFF/WAVE decode and encode ---------------------------------------------

_PCM = 1
_IEEE_FLOAT = 3


def load_wav(path) -> tuple[np.ndarray, int, int]:
    """Decode a WAV file to (mono float64 samples in [-1, 1], rate, channels)."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: fmt chunk truncated ({len(body)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavFormatError(f"{path}: data chunk shorter than declared "
                                     f"({len(body)} < {chunk_size} bytes)")
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")
    audio_format, channels, rate, _, block_align, bits = fmt
    if channels not in (1, 2):
        raise WavFormatError(f"{path}: {channels} channels unsupported (want 1 or 2)")
    if rate == 0:
        raise WavFormatError(f"{path}: sample rate 0 Hz")
    if (audio_format, bits) not in ((_PCM, 8), (_PCM, 16), (_PCM, 24), (_PCM, 32),
                                    (_IEEE_FLOAT, 32)):
        raise WavFormatError(f"{path}: unsupported format code {audio_format} "
                             f"at {bits} bits")
    frame = channels * bits // 8
    if not data:
        raise WavFormatError(f"{path}: data chunk holds no complete sample")
    if len(data) % frame:
        raise WavFormatError(f"{path}: {len(data)}-byte data chunk is not a whole "
                             f"number of {frame}-byte samples")
    if audio_format == _IEEE_FLOAT:
        with np.errstate(invalid="ignore"):  # a signalling NaN, refused just below
            samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if not np.isfinite(samples).all():
            raise WavFormatError(f"{path}: non-finite samples")
    elif bits == 8:
        samples = (np.frombuffer(data, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    elif bits == 24:  # the high three bytes of an int32, so the same scale as 32-bit
        wide = np.zeros((len(data) // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        samples = wide.view("<i4")[:, 0] / 2**31
    else:
        samples = np.frombuffer(data, dtype=f"<i{bits // 8}") / 2**(bits - 1)
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return samples, rate, channels


def write_wav(path, samples: np.ndarray, rate: int = SAMPLE_RATE) -> None:
    """Write mono 16-bit PCM; round-trips 16-bit content bit-exactly.  A
    non-finite sample raises ValueError naming ``path``; nothing is written."""
    samples = np.asarray(samples, dtype=np.float64)
    if not np.isfinite(samples).all():
        raise ValueError(f"{path}: non-finite samples; not written")
    quantized = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    payload = quantized.tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI",
                         b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, _PCM, 1, rate, rate * 2, 2, 16,
                         b"data", len(payload))
    Path(path).write_bytes(header + payload)


# -- resampling ----------------------------------------------------------------

def _anti_alias_taps(rate: int) -> np.ndarray:
    n = np.arange(ANTI_ALIAS_TAPS) - (ANTI_ALIAS_TAPS - 1) / 2
    taps = 2.0 * ANTI_ALIAS_CUTOFF_HZ / rate * np.sinc(2.0 * ANTI_ALIAS_CUTOFF_HZ / rate * n)
    taps *= np.hamming(ANTI_ALIAS_TAPS)
    return taps / taps.sum()


def resample_to_8k(samples: np.ndarray, rate: int, source="") -> np.ndarray:
    """Low-pass at 3.6 kHz then linearly interpolate down to 8 kHz.

    Output length is round(len * 8000 / rate).  Upsampling is out of scope:
    rates below 8 kHz are rejected, naming ``source`` when it is given.
    """
    if rate < SAMPLE_RATE:
        where = f"{source}: " if source else ""
        raise WavFormatError(f"{where}cannot upsample from {rate} Hz; "
                             f"need >= {SAMPLE_RATE}")
    samples = np.asarray(samples, dtype=np.float64)
    if rate == SAMPLE_RATE:
        return samples.copy()
    delay = (ANTI_ALIAS_TAPS - 1) // 2  # mode="same" gives max(N, taps) samples
    filtered = np.convolve(samples, _anti_alias_taps(rate))[delay:delay + len(samples)]
    out_len = int(round(len(samples) * SAMPLE_RATE / rate))
    positions = np.arange(out_len) * (rate / SAMPLE_RATE)
    return np.interp(positions, np.arange(len(samples)), filtered)


# -- standardization and clip cache -------------------------------------------

def standardize_samples(samples: np.ndarray) -> np.ndarray:
    """(x - mean) / max(std, 1e-8) with population std; float32 output.

    A constant signal comes back as all zeros via the epsilon floor.
    """
    x = np.asarray(samples)
    mean = x.mean(dtype=np.float64)
    std = x.std(dtype=np.float64)
    return ((x - mean) / max(std, 1e-8)).astype(np.float32)


def clip_cache_name(source_path: str, offset_s: float) -> str:
    key = f"{source_path}@{offset_s:.3f}".encode()
    return hashlib.sha1(key).hexdigest() + ".f32"


def write_clip_cache(cache_dir, source: str, offset_s: float, samples: np.ndarray) -> Path:
    """Write one clip into an existing cache directory; returns its path."""
    path = Path(cache_dir) / clip_cache_name(source, offset_s)
    path.write_bytes(samples.astype("<f4", copy=False).tobytes())
    return path


def read_clip_cache(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) != 4 * CLIP_SAMPLES:
        raise WavFormatError(f"{path}: cache file holds {len(blob)} bytes, "
                             f"expected {4 * CLIP_SAMPLES}")
    samples = np.frombuffer(blob, dtype="<f4").astype(np.float32)
    if not np.isfinite(samples).all():
        raise WavFormatError(f"{path}: non-finite samples")
    return samples


def wav_clips(samples: np.ndarray, rate: int, source) -> list[tuple[float, np.ndarray]]:
    """Resample a decoded WAV to 8 kHz and tile all of it into standardized
    1-second clips, as ``(offset_s, float32[8000])`` pairs.

    A trailing remainder of at least 0.5 s is zero-padded to a full second;
    a shorter one is dropped, and a signal under 0.5 s raises WavFormatError.
    """
    x = resample_to_8k(samples, rate, source=source)
    clips = []
    for pos in range(0, len(x) - MIN_KEEP_SAMPLES + 1, CLIP_SAMPLES):
        piece = x[pos:pos + CLIP_SAMPLES]
        window = np.zeros(CLIP_SAMPLES, dtype=np.float32)
        window[:len(piece)] = piece
        clips.append((pos / SAMPLE_RATE, standardize_samples(window)))
    if not clips:
        raise WavFormatError(f"{source}: {len(x) / SAMPLE_RATE:.2f} s of audio is "
                             f"too short for a 1-second clip")
    return clips


def load_clip(path) -> np.ndarray:
    """One standardized 8000-sample clip from a .f32 cache file (assumed
    standardized) or from a WAV: the first clip of :func:`wav_clips`."""
    path = Path(path)
    if path.suffix == ".f32":
        return read_clip_cache(path)
    samples, rate, _ = load_wav(path)
    return wav_clips(samples, rate, source=path)[0][1]
