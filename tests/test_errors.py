"""One error root, and the input readers' contract with it.

Every exception class the package defines derives from ``WavecnnError``
while keeping the builtin base callers expect.  Each reader of outside files
(WAV, clip cache, manifest, config) either returns a valid result or raises
that root; anything else would reach the command line as an internal error.
The property tests mutate and truncate valid files, as the weights-file
tests in test_model.py do; WAVs also come with drawn header fields.
"""

import importlib
import pkgutil
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wavecnn
from conftest import wav_bytes
from wavecnn.audio import CLIP_SAMPLES, WavFormatError, load_clip, load_wav, wav_clips
from wavecnn.cli import _CONFIG_KEYS, _SETTING_TYPES, read_config_file
from wavecnn.data import AGES_MONTHS, RAW_LABELS, parse_manifest
from wavecnn.tensor import WavecnnError

# every exception class the package defines, with the builtin base it keeps
BUILTIN_BASES = {
    "wavecnn.audio.WavFormatError": ValueError,
    "wavecnn.data.ExcludedSampleError": ValueError,
    "wavecnn.data.ManifestError": ValueError,
    "wavecnn.data.UnknownTaskError": KeyError,
    "wavecnn.model.WeightsFormatError": ValueError,
    "wavecnn.optim.NonFiniteGradient": FloatingPointError,
    "wavecnn.tensor.ConfigError": ValueError,
    "wavecnn.tensor.NonFiniteError": FloatingPointError,
    "wavecnn.tensor.ShapeError": ValueError,
    "wavecnn.tensor.WavecnnError": Exception,
    "wavecnn.train.TrainingError": RuntimeError,
}


def test_every_exception_class_derives_from_the_root():
    defined = {}
    for info in pkgutil.iter_modules(wavecnn.__path__):
        module = importlib.import_module(f"wavecnn.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                defined[f"{module.__name__}.{name}"] = obj
    assert sorted(defined) == sorted(BUILTIN_BASES)
    for name, cls in defined.items():
        assert issubclass(cls, WavecnnError), name
        assert issubclass(cls, BUILTIN_BASES[name]), name


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# bytes that a format gives meaning to: separators, sign and digits, a BOM,
# a byte that is not UTF-8, and small counts, tags and bit depths
SPECIAL = b",\n\r=# -.0123456789\xef\xbb\xbf\xff\x00\x01\x02\x03\x08\x10\x18\x20\x7f\x80"


@st.composite
def edits(draw, blob: bytes) -> bytes:
    """``blob`` after one to three edits: a byte set, a span deleted, bytes
    inserted, or a cut."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3), label="edits")):
        pos = draw(st.integers(0, max(len(out) - 1, 0)), label="pos")
        kind = draw(st.sampled_from(["set", "delete", "insert", "cut"]), label="kind")
        if kind == "set" and out:
            out[pos] = draw(st.one_of(st.sampled_from(SPECIAL), st.integers(0, 255)),
                            label="byte")
        elif kind == "delete":
            del out[pos:pos + draw(st.integers(1, 16), label="span")]
        elif kind == "insert":
            out[pos:pos] = draw(st.binary(min_size=1, max_size=8), label="bytes")
        else:
            del out[pos:]
    return bytes(out)


NOISE = np.random.default_rng(0).integers(0, 256, 64000, dtype=np.uint8).tobytes()


@st.composite
def wav_fields(draw) -> dict:
    """Drawn ``wav_bytes`` arguments: header fields over a prefix of NOISE."""
    return dict(payload=NOISE[:draw(st.integers(0, len(NOISE)), label="payload bytes")],
                audio_format=draw(st.sampled_from([1, 3, 0, 2, 0xFFFF]), label="format"),
                bits=draw(st.sampled_from([8, 16, 24, 32, 0, 12, 64]), label="bits"),
                rate=draw(st.one_of(st.sampled_from([8000, 11025, 44100, 0, 1, 7999]),
                                    st.integers(0, 2 ** 28)), label="rate"),
                channels=draw(st.sampled_from([1, 2, 0, 3]), label="channels"))


def drawn_wavs():
    """A WAV whose header fields are drawn, over a prefix of NOISE."""
    return wav_fields().map(lambda fields: wav_bytes(**fields))


def _pcm(x, bits):
    if bits == 8:
        return np.round(x * 127 + 128).astype(np.uint8).tobytes()
    if bits == 16:
        return np.round(x * 32767).astype("<i2").tobytes()
    return np.round(x * 8388607).astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


def _valid_wavs():
    x = 0.5 * np.sin(np.arange(12000) / 7.0)
    stereo = np.stack([x, -x], axis=1)
    with_list = wav_bytes(_pcm(x[:9000], 16))
    # an odd-sized LIST chunk (so a pad byte) before the data chunk
    with_list = with_list[:36] + struct.pack("<4sI", b"LIST", 3) + b"abc\0" + with_list[36:]
    return [
        wav_bytes(_pcm(x[:8800], 8), bits=8),
        with_list,
        wav_bytes(_pcm(x, 24), bits=24, rate=11025),
        wav_bytes(x[:9000].astype("<f4").tobytes(), 3, 32, rate=8000),
        wav_bytes(_pcm(stereo, 16), rate=11025, channels=2),
        wav_bytes(_pcm(np.sin(np.arange(48000) / 9.0), 16), rate=44100),
    ]


VALID_WAVS = _valid_wavs()


@PROPERTY
@given(data=st.data())
def test_edited_or_drawn_wavs_fail_typed_or_give_clips(tmp_path, data):
    path = tmp_path / "edited.wav"
    path.write_bytes(data.draw(st.one_of(st.sampled_from(VALID_WAVS).flatmap(edits),
                                         drawn_wavs()), label="wav"))
    try:
        samples, rate, channels = load_wav(path)
        clips = wav_clips(samples, rate, source=path)
    except WavecnnError:
        return
    assert rate > 0 and channels in (1, 2) and np.isfinite(samples).all()
    for _, clip in clips:
        assert clip.dtype == np.float32 and clip.shape == (CLIP_SAMPLES,)
        assert np.isfinite(clip).all()


@PROPERTY
@given(fields=wav_fields())
def test_drawn_wavs_decode_whole_frames_or_fail_typed(tmp_path, fields):
    path = tmp_path / "drawn.wav"
    path.write_bytes(wav_bytes(**fields))
    try:
        samples, _, channels = load_wav(path)
    except WavFormatError:
        return
    frame = fields["channels"] * fields["bits"] // 8
    assert channels == fields["channels"] and len(samples) * frame == len(fields["payload"])


@PROPERTY
@given(data=st.data())
def test_clip_cache_edits_fail_typed_or_give_a_clip(tmp_path, data):
    clip = np.sin(np.arange(CLIP_SAMPLES) / 3.0).astype("<f4").tobytes()
    path = tmp_path / "edited.f32"
    # an exponent byte of 0x7f or 0xff makes NaN or inf likely
    path.write_bytes(data.draw(edits(clip), label="edited"))
    try:
        loaded = load_clip(path)
    except WavecnnError:
        return
    assert loaded.dtype == np.float32 and loaded.shape == (CLIP_SAMPLES,)
    assert np.isfinite(loaded).all()


MANIFEST = (b"clip_path,raw_label,age_months,family_id\n"
            b"a.wav,laugh_cry,3,F00\n"
            b"sub/b.wav,canonical,6,F01\n"
            b"\n"
            b"/abs/c.f32,ids,18,F02\n"
            b"d.wav,ads,9,F00\n")


@PROPERTY
@given(data=st.data())
def test_manifest_edits_fail_typed_or_give_samples(tmp_path, data):
    path = tmp_path / "manifest.csv"
    path.write_bytes(data.draw(edits(MANIFEST), label="edited"))
    try:
        samples = parse_manifest(path)
    except WavecnnError:
        return
    assert len({s.clip_path for s in samples}) == len(samples)
    for s in samples:
        assert s.raw_label in RAW_LABELS and s.age_months in AGES_MONTHS
        assert s.family_id and s.clip_path


CONFIG = (b"# a run\n"
          b"task=ids_vs_ads\n"
          b"variant=without_inception\n"
          b"batch_size=4\n"
          b"lr=0.001\n"
          b"dense_head=true\n"
          b"split=lofo:F00\n"
          b"manifest=data/manifest.csv\n")


@PROPERTY
@given(data=st.data())
def test_config_edits_fail_typed_or_give_typed_settings(tmp_path, data):
    path = tmp_path / "run.cfg"
    path.write_bytes(data.draw(edits(CONFIG), label="edited"))
    try:
        values = read_config_file(path)
    except WavecnnError:
        return
    for key, value in values.items():
        assert key in _CONFIG_KEYS
        assert isinstance(value, _SETTING_TYPES.get(key, str)), key
