import argparse
import codecs
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import wavecnn
from conftest import float32_wav_bytes, wav_bytes
from wavecnn import audio, cli, layers
from wavecnn.audio import load_clip, read_clip_cache, write_clip_cache, write_wav
from wavecnn.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main,
                         read_config_file)
from wavecnn.data import parse_manifest, write_manifest
from wavecnn.model import build_model, load_weights, save_weights
from wavecnn.synth import MAX_NOISE_FLOOR, SynthSpec, generate
from wavecnn.tensor import ConfigError
from wavecnn.train import TrainConfig


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(num_classes=2, clips_per_class=10, families=2,
                     noise_floor=0.05, seed=4)
    manifest = generate(spec, root)
    return root, manifest


@pytest.fixture(scope="module")
def cache(corpus, tmp_path_factory):
    _, manifest = corpus
    out = tmp_path_factory.mktemp("cache")
    assert main(["prepare", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
    return out


def train_args(cache, out, extra=()):
    return ["train", "--manifest", str(cache / "manifest.csv"),
            "--task", "vocal_vs_nonvocal", "--variant", "without_inception",
            "--seed", "7", "--epochs", "2", "--batch", "4",
            "--out", str(out), *extra]


def subparsers():
    """The parser of each command, by name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# data chunks that end inside a frame (a 24-bit mono frame is one sample):
# refused whole, where a shorter decode would silently drop the partial frame
PARTIAL_FRAMES = {
    "partial_24bit": (b"\x00\x00\x40\x00", 1, 24, 8000, 1,
                      "4-byte data chunk is not a whole number of 3-byte samples"),
    "partial_16bit_stereo": (b"\x00" * 6, 1, 16, 8000, 2,
                             "6-byte data chunk is not a whole number of 4-byte samples"),
    "partial_8bit_stereo": (b"\xa4\xa4\x80", 1, 8, 8000, 2,
                            "3-byte data chunk is not a whole number of 2-byte samples"),
}


class TestPrepare:
    def test_valid_wavs_all_cached(self, corpus, cache):
        assert len(list(cache.glob("*.f32"))) == 20
        rows = parse_manifest(cache / "manifest.csv")
        assert len(rows) == 20
        assert all(s.clip_path.endswith(".f32") for s in rows)

    def test_corrupt_file_reports_partial_failure(self, corpus, tmp_path, capsys):
        root, manifest = corpus
        bad_dir = tmp_path / "bad_corpus"
        bad_dir.mkdir()
        rows = []
        for i, sample in enumerate(parse_manifest(manifest)):
            name = f"copy{i:02d}.wav"
            (bad_dir / name).write_bytes(open(sample.clip_path, "rb").read())
            rows.append((name, sample.raw_label, sample.age_months, sample.family_id))
        (bad_dir / "copy00.wav").write_bytes(b"not a wav at all")
        write_manifest(bad_dir / "manifest.csv", rows)
        out = tmp_path / "bad_cache"
        rc = main(["prepare", "--manifest", str(bad_dir / "manifest.csv"),
                   "--out", str(out)])
        assert rc == EXIT_PARTIAL
        assert len(list(out.glob("*.f32"))) == 19
        assert "copy00.wav" in capsys.readouterr().err

    def test_non_finite_float_wav_reports_partial_failure(self, corpus, tmp_path, capsys):
        root, manifest = corpus
        samples = parse_manifest(manifest)
        bad = tmp_path / "nan.wav"
        bad.write_bytes(float32_wav_bytes(np.full(8000, np.nan)))
        rows = [(s.clip_path, s.raw_label, s.age_months, s.family_id) for s in samples]
        rows.append((bad.name, samples[0].raw_label, samples[0].age_months,
                     samples[0].family_id))
        write_manifest(tmp_path / "manifest.csv", rows)
        out = tmp_path / "cache"
        rc = main(["prepare", "--manifest", str(tmp_path / "manifest.csv"),
                   "--out", str(out)])
        assert rc == EXIT_PARTIAL
        assert len(list(out.glob("*.f32"))) == 20
        assert f"error: {bad}: non-finite samples" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, audio_format, bits, rate, channels, cause", [
        (b"\x01\x02\x03", 1, 16, 8000, 1,
         "3-byte data chunk is not a whole number of 2-byte samples"),
        (b"\x00" * 6, 3, 32, 8000, 1,
         "6-byte data chunk is not a whole number of 4-byte samples"),
        (b"\x00" * 4, 1, 16, 0, 1, "sample rate 0 Hz"),
        (b"", 1, 16, 8000, 1, "data chunk holds no complete sample"),
        *PARTIAL_FRAMES.values(),
    ], ids=["odd_16bit", "ragged_float32", "zero_rate", "empty_data", *PARTIAL_FRAMES])
    def test_undecodable_wav_reports_partial_failure(self, tmp_path, capsys, payload,
                                                     audio_format, bits, rate, channels,
                                                     cause):
        write_wav(tmp_path / "good.wav", 0.5 * np.sin(np.arange(8000) / 8.0))
        bad = tmp_path / "bad.wav"
        bad.write_bytes(wav_bytes(payload, audio_format, bits, rate, channels))
        write_manifest(tmp_path / "manifest.csv", [("good.wav", "canonical", 6, "F00"),
                                                   ("bad.wav", "canonical", 6, "F00")])
        out = tmp_path / "cache"
        rc = main(["prepare", "--manifest", str(tmp_path / "manifest.csv"),
                   "--out", str(out)])
        assert rc == EXIT_PARTIAL
        assert len(list(out.glob("*.f32"))) == 1
        assert f"error: {bad}: {cause}" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, corpus, cache, tmp_path):
        _, manifest = corpus
        again = tmp_path / "again"
        assert main(["prepare", "--manifest", str(manifest), "--out", str(again)]) == EXIT_OK
        for path in sorted(cache.glob("*.f32")):
            assert (again / path.name).read_bytes() == path.read_bytes()
        assert (again / "manifest.csv").read_text() == (cache / "manifest.csv").read_text()

    def test_out_holding_the_input_manifest_exits_2_before_any_file(self, tmp_path, capsys):
        write_wav(tmp_path / "a.wav", 0.5 * np.sin(np.arange(8000) / 8.0))
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("a.wav", "canonical", 6, "F00")])
        before = manifest.read_bytes()
        rc = main(["prepare", "--manifest", str(manifest), "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert manifest.read_bytes() == before
        assert not list(tmp_path.glob("*.f32"))
        assert capsys.readouterr().err == f"error: --out {tmp_path} is not empty\n"

    def test_second_run_into_one_out_exits_2_and_changes_no_file(self, corpus, cache,
                                                                 capsys):
        _, manifest = corpus
        before = {path: path.read_bytes() for path in cache.iterdir()}
        rc = main(["prepare", "--manifest", str(manifest), "--out", str(cache)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --out {cache} is not empty\n"
        assert {path: path.read_bytes() for path in cache.iterdir()} == before

    def test_existing_empty_out_is_accepted(self, corpus, cache, tmp_path):
        _, manifest = corpus
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["prepare", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(p.name for p in cache.iterdir())

    def test_symbolic_link_loop_counts_as_failed(self, tmp_path, capsys):
        write_wav(tmp_path / "good.wav", 0.5 * np.sin(np.arange(8000) / 8.0))
        (tmp_path / "loop.wav").symlink_to("loop.wav")
        write_manifest(tmp_path / "manifest.csv", [("good.wav", "canonical", 6, "F00"),
                                                   ("loop.wav", "canonical", 6, "F00")])
        out = tmp_path / "cache"
        rc = main(["prepare", "--manifest", str(tmp_path / "manifest.csv"),
                   "--out", str(out)])
        assert rc == EXIT_PARTIAL
        assert str(tmp_path / "loop.wav") in capsys.readouterr().err
        [row] = parse_manifest(out / "manifest.csv")
        assert [p.name for p in out.glob("*.f32")] == [Path(row.clip_path).name]

    def test_file_that_fails_mid_way_adds_no_row(self, tmp_path, monkeypatch, capsys):
        write_wav(tmp_path / "one.wav", 0.5 * np.sin(np.arange(8000) / 8.0))
        write_wav(tmp_path / "three.wav", 0.5 * np.sin(np.arange(3 * 8000) / 8.0))
        write_manifest(tmp_path / "manifest.csv", [("one.wav", "canonical", 6, "F00"),
                                                   ("three.wav", "canonical", 6, "F00")])
        calls = []

        def third_write_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OSError("No space left on device")
            return write_clip_cache(*args)

        monkeypatch.setattr(audio, "write_clip_cache", third_write_fails)
        out = tmp_path / "cache"
        rc = main(["prepare", "--manifest", str(tmp_path / "manifest.csv"),
                   "--out", str(out)])
        assert rc == EXIT_PARTIAL
        assert capsys.readouterr().out.startswith("cached 1 clips from 1 files")
        [row] = parse_manifest(out / "manifest.csv")
        assert read_clip_cache(row.clip_path).tobytes() == \
            load_clip(tmp_path / "one.wav").tobytes()
        assert [p.name for p in out.glob("*.f32")] == [Path(row.clip_path).name]

    @pytest.mark.parametrize("failing_write", [2, 3, 4])
    def test_clip_write_that_fails_part_way_leaves_no_clip_of_its_file(
            self, tmp_path, monkeypatch, capsys, failing_write):
        write_wav(tmp_path / "one.wav", 0.5 * np.sin(np.arange(8000) / 8.0))
        write_wav(tmp_path / "three.wav", 0.5 * np.sin(np.arange(3 * 8000) / 8.0))
        write_manifest(tmp_path / "manifest.csv", [("one.wav", "canonical", 6, "F00"),
                                                   ("three.wav", "canonical", 6, "F00")])
        calls = []

        def write_half_then_fail(cache_dir, source, offset_s, samples):
            calls.append(offset_s)
            if len(calls) == failing_write:
                (cache_dir / audio.clip_cache_name(source, offset_s)).write_bytes(
                    samples.astype("<f4").tobytes()[:16000])
                raise OSError("No space left on device")
            return write_clip_cache(cache_dir, source, offset_s, samples)

        monkeypatch.setattr(audio, "write_clip_cache", write_half_then_fail)
        out = tmp_path / "cache"
        rc = main(["prepare", "--manifest", str(tmp_path / "manifest.csv"),
                   "--out", str(out)])
        assert rc == EXIT_PARTIAL
        assert capsys.readouterr().out.startswith("cached 1 clips from 1 files")
        [row] = parse_manifest(out / "manifest.csv")
        assert [p.name for p in out.glob("*.f32")] == [Path(row.clip_path).name]

    def test_bad_manifest_exits_2_before_creating_out(self, tmp_path, capsys):
        manifest = tmp_path / "bad.csv"
        manifest.write_text("path,label\n")
        out = tmp_path / "new" / "dir"
        rc = main(["prepare", "--manifest", str(manifest), "--out", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {manifest}:1: first line")
        assert not (tmp_path / "new").exists()

    def test_long_recording_becomes_multiple_clips(self, tmp_path):
        import numpy as np
        from wavecnn.audio import write_wav

        src = tmp_path / "long_corpus"
        src.mkdir()
        t = np.arange(int(2.5 * 8000)) / 8000
        write_wav(src / "long.wav", 0.5 * np.sin(2 * np.pi * 600 * t), 8000)
        write_manifest(src / "manifest.csv", [("long.wav", "canonical", 6, "F00")])
        out = tmp_path / "long_cache"
        assert main(["prepare", "--manifest", str(src / "manifest.csv"),
                     "--out", str(out)]) == EXIT_OK
        # 2.5 s -> two full seconds plus a 0.5 s remainder, kept and padded
        assert len(list(out.glob("*.f32"))) == 3
        rows = parse_manifest(out / "manifest.csv")
        assert len(rows) == 3
        assert {(s.raw_label, s.age_months, s.family_id) for s in rows} == \
            {("canonical", 6, "F00")}

    @pytest.mark.parametrize("rate,seconds", [(44100, 1.3), (16000, 0.7), (8000, 2.3),
                                              (22050, 0.62)])
    def test_load_clip_is_the_first_cached_clip(self, tmp_path, rate, seconds):
        t = np.arange(int(rate * seconds)) / rate
        wav = tmp_path / "tone.wav"
        write_wav(wav, 0.4 * np.sin(2 * np.pi * 700 * t) + 0.05 * np.cos(t * 90), rate)
        write_manifest(tmp_path / "manifest.csv", [(wav.name, "canonical", 6, "F00")])
        out = tmp_path / "cache"
        assert main(["prepare", "--manifest", str(tmp_path / "manifest.csv"),
                     "--out", str(out)]) == EXIT_OK
        first = parse_manifest(out / "manifest.csv")[0].clip_path
        assert load_clip(wav).tobytes() == read_clip_cache(first).tobytes()


    def test_mixed_rate_clips_are_pinned(self, tmp_path, monkeypatch):
        # sha256 over the sorted (name, bytes) of the .f32 files: mixed rates
        # and every remainder case, pinned from the clip cutter before wav_clips
        monkeypatch.chdir(tmp_path)  # relative clip paths keep the names fixed
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(12)
        rows = []
        for i, (rate, seconds) in enumerate([(44100, 3.55), (22050, 1.49), (16000, 2.51),
                                             (8000, 0.62), (8000, 2.0)]):
            n = int(rate * seconds)
            t = np.arange(n) / rate
            write_wav(corpus / f"rec{i}.wav",
                      0.3 * np.sin(2 * np.pi * (300 + 200 * i) * t)
                      + 0.05 * rng.standard_normal(n), rate)
            rows.append((f"rec{i}.wav", "canonical", 6, "F00"))
        write_manifest(corpus / "manifest.csv", rows)
        assert main(["prepare", "--manifest", "corpus/manifest.csv",
                     "--out", "cache"]) == EXIT_OK
        clips = sorted((tmp_path / "cache").glob("*.f32"))
        assert len(clips) == 4 + 1 + 3 + 1 + 2
        digest = hashlib.sha256()
        for path in clips:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == \
            "fcf8f3b2a15acd855b8369182a1a9f69f556f483e66fc1503fd94a022b1d866d"


class TestTrain:
    def test_artifacts_written(self, cache, tmp_path):
        run = tmp_path / "run"
        assert main(train_args(cache, run)) == EXIT_OK
        for name in ("weights.bin", "run_log.jsonl", "report.json", "report.csv",
                     "config.resolved"):
            assert (run / name).exists(), name
        log_lines = (run / "run_log.jsonl").read_text().splitlines()
        entry = json.loads(log_lines[0])
        assert set(entry) == {"epoch", "loss", "train_acc"}
        report = json.loads((run / "report.json").read_text())
        assert report["chance_percent"] == 50.0

    def test_aborted_run_keeps_the_epochs_it_finished(self, cache, tmp_path, capsys,
                                                      monkeypatch):
        from wavecnn.optim import Adam
        from wavecnn.tensor import NonFiniteError

        step = Adam.step

        def fail_in_epoch_1(self, grads, names=None):
            if self.t == 1:  # one batch per epoch, so this is epoch 1's step
                raise NonFiniteError("non-finite gradient in a parameter")
            step(self, grads, names)

        run = tmp_path / "run"
        assert main(train_args(cache, run)) == EXIT_OK  # a finished run, then a re-run
        monkeypatch.setattr(Adam, "step", fail_in_epoch_1)
        assert main(train_args(cache, run, ["--batch", "64"])) == EXIT_USAGE
        assert "at epoch 1 batch 0" in capsys.readouterr().err
        lines = (run / "run_log.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [0]
        assert "batch_size=64" in (run / "config.resolved").read_text()
        for name in ("weights.bin", "report.json", "report.csv"):
            assert not (run / name).exists(), name

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_clip_spoilt_after_loading_exits_2_keeping_the_epochs_it_finished(
            self, cache, tmp_path, capsys, monkeypatch, threads):
        shutil.copytree(cache, tmp_path / "cache")
        run_train = cli.train
        victims = []

        def spoil_after_epoch_0(model, split, task, config, clips, on_epoch):
            def log_then_spoil(epoch, stats):
                on_epoch(epoch, stats)
                victims.append(Path(split.train[0].clip_path))
                victims[0].write_bytes(victims[0].read_bytes()[:100])
            return run_train(model, split, task, config, clips, log_then_spoil)

        monkeypatch.setattr(cli, "train", spoil_after_epoch_0)
        run = tmp_path / "run"
        assert main(train_args(tmp_path / "cache", run, ["--threads", threads])) == EXIT_USAGE
        assert (f"error: {victims[0]}: cache file holds 100 bytes, expected 32000 "
                f"at epoch 1 batch ") in capsys.readouterr().err
        lines = (run / "run_log.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [0]
        for name in ("weights.bin", "report.json", "report.csv"):
            assert not (run / name).exists(), name

    def test_default_run_dir_of_an_earlier_run_exits_2_and_keeps_it(self, cache, tmp_path,
                                                                    capsys, monkeypatch):
        # two runs without --out that start in the same second share a name
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
        args = train_args(cache, None)[:-2]
        assert main(args) == EXIT_OK
        run = tmp_path / "runs" / "20260101-000000_vocal_vs_nonvocal_without_inception"
        kept = {path.name: path.read_bytes() for path in run.iterdir()}
        assert main([*args, "--seed", "2"]) == EXIT_USAGE
        assert "runs/20260101-000000_vocal_vs_nonvocal_without_inception" \
            in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in run.iterdir()} == kept

    def test_missing_manifest_exits_2_naming_path(self, tmp_path, capsys):
        rc = main(["train", "--manifest", str(tmp_path / "nowhere.csv"),
                   "--task", "vocal_vs_nonvocal", "--variant", "without_inception"])
        assert rc == EXIT_USAGE
        assert "nowhere.csv" in capsys.readouterr().err

    def test_same_seed_identical_outputs(self, cache, tmp_path):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(cache, run_a)) == EXIT_OK
        assert main(train_args(cache, run_b)) == EXIT_OK
        for name in ("report.json", "run_log.jsonl", "weights.bin"):
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

    def test_config_file_with_flag_override(self, cache, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("task=vocal_vs_nonvocal\nvariant=without_inception\n"
                          "batch_size=4\nmax_epochs=1\nseed=3\n")
        run = tmp_path / "cfg_run"
        rc = main(["train", "--config", str(config),
                   "--manifest", str(cache / "manifest.csv"),
                   "--epochs", "2", "--out", str(run)])
        assert rc == EXIT_OK
        resolved = (run / "config.resolved").read_text()
        assert "max_epochs=2" in resolved   # flag wins over file
        assert "seed=3" in resolved         # file value kept

    def test_config_resolved_reproduces_the_run(self, cache, tmp_path, monkeypatch):
        first, second = tmp_path / "first", tmp_path / "second"
        monkeypatch.chdir(cache)
        args = train_args(cache, first)
        args[2] = "manifest.csv"  # a path relative to this directory
        assert main(args) == EXIT_OK
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(first / "config.resolved"),
                     "--out", str(second)]) == EXIT_OK
        for name in ("run_log.jsonl", "weights.bin", "report.json", "config.resolved"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_config_resolved_reruns_from_a_path_holding_a_hash(self, cache, tmp_path):
        hashed = tmp_path / "a#b"
        shutil.copytree(cache, hashed)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(train_args(hashed, first)) == EXIT_OK
        assert main(["train", "--config", str(first / "config.resolved"),
                     "--out", str(second)]) == EXIT_OK
        for name in ("run_log.jsonl", "weights.bin", "report.json", "config.resolved"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_config_resolved_reruns_from_a_path_holding_a_line_separator(self, cache,
                                                                          tmp_path):
        # str.splitlines breaks at U+2028; a config line does not
        odd = tmp_path / "a\u2028b"
        shutil.copytree(cache, odd)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(train_args(odd, first)) == EXIT_OK
        resolved = read_config_file(first / "config.resolved")
        assert resolved["manifest"] == str((odd / "manifest.csv").resolve())
        assert main(["train", "--config", str(first / "config.resolved"),
                     "--out", str(second)]) == EXIT_OK
        for name in ("run_log.jsonl", "weights.bin", "report.json", "config.resolved"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_config_lines_end_at_cr_lf_or_crlf(self, tmp_path, end):
        config = tmp_path / "run.cfg"
        config.write_bytes(end.join([b"# a run", b"seed=3", b"", b"max_epochs=2", b""]))
        assert read_config_file(config) == {"seed": 3, "max_epochs": 2}
        config.write_bytes(end.join([b"# a run", b"seed=3", b"split=lofo:F\xff", b""]))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(config))}:3: not UTF-8"):
            read_config_file(config)

    def test_only_whole_lines_are_comments(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# a comment\n  # an indented one\nsplit=lofo:F#1\n")
        assert read_config_file(config) == {"split": "lofo:F#1"}

    def test_convergence_settings_from_config_file(self, cache, tmp_path, capsys):
        """The early-stopping rule is a pair of constants, not config keys."""
        config = tmp_path / "run.cfg"
        config.write_text("converge_rel=1\nconverge_patience=1\n")
        run = tmp_path / "run"
        assert main(train_args(cache, run, extra=["--config", str(config)])) == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: {config}:1: unknown config key 'converge_rel'\n"
        assert not run.exists()

    def test_convergence_stop_through_the_command_line(self, cache, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.setattr("wavecnn.train.CONVERGE_REL", 1)
        monkeypatch.setattr("wavecnn.train.CONVERGE_PATIENCE", 1)
        run = tmp_path / "run"
        assert main(train_args(cache, run, extra=["--epochs", "5"])) == EXIT_OK
        assert len((run / "run_log.jsonl").read_text().splitlines()) == 2
        assert "converged at epoch 1" in capsys.readouterr().out

    def test_bad_config_value_exits_2_naming_line(self, cache, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("seed=3\ndense_head=maybe\n")
        rc = main(train_args(cache, tmp_path / "run", extra=["--config", str(config)]))
        assert rc == EXIT_USAGE
        assert f"{config}:2: bad value for dense_head: 'maybe'" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_naming_line(self, cache, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"seed=3\nsplit=lofo:F\xff\n")
        rc = main(train_args(cache, tmp_path / "run", extra=["--config", str(config)]))
        assert rc == EXIT_USAGE
        assert f"error: {config}:2: not UTF-8" in capsys.readouterr().err

    def test_config_file_with_byte_order_mark(self, tmp_path):
        config = tmp_path / "bom.cfg"
        config.write_bytes(codecs.BOM_UTF8 + b"max_epochs=3\nseed=4\n")
        assert read_config_file(config) == {"max_epochs": 3, "seed": 4}

    def test_unknown_config_key_exits_2(self, cache, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("task=vocal_vs_nonvocal\nlearning_rate_typo=1\n")
        rc = main(["train", "--config", str(config),
                   "--manifest", str(cache / "manifest.csv")])
        assert rc == EXIT_USAGE
        assert "learning_rate_typo" in capsys.readouterr().err

    def test_lofo_split_flag(self, cache, tmp_path):
        run = tmp_path / "lofo_run"
        rc = main(train_args(cache, run, extra=["--split", "lofo:F00"]))
        assert rc == EXIT_OK
        report = json.loads((run / "report.json").read_text())
        rows = parse_manifest(cache / "manifest.csv")
        assert report["num_test"] == sum(s.family_id == "F00" for s in rows)


@pytest.fixture(scope="module")
def run_dir(cache, tmp_path_factory):
    run = tmp_path_factory.mktemp("trained")
    assert main(train_args(cache, run)) == EXIT_OK
    return run


class TestEvalPredictParams:

    def test_eval_prints_report(self, cache, run_dir, capsys):
        rc = main(["eval", "--weights", str(run_dir / "weights.bin"),
                   "--manifest", str(cache / "manifest.csv"),
                   "--task", "vocal_vs_nonvocal"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["num_test"] == 20

    def test_eval_rejects_training_flags(self, cache, run_dir, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "--weights", str(run_dir / "weights.bin"),
                  "--manifest", str(cache / "manifest.csv"),
                  "--task", "vocal_vs_nonvocal", "--epochs", "3"])
        assert exit_.value.code == EXIT_USAGE
        assert "--epochs" in capsys.readouterr().err

    def test_eval_records_the_weights_variant(self, cache, run_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--weights", str(run_dir / "weights.bin"),
                     "--manifest", str(cache / "manifest.csv"),
                     "--task", "vocal_vs_nonvocal", "--out", str(out)]) == EXIT_OK
        resolved = (out / "config.resolved").read_text().splitlines()
        assert "variant=without_inception" in resolved
        assert "dense_head=False" in resolved
        assert json.loads((out / "report.json").read_text())["variant"] == \
            "without_inception"

    def test_eval_class_count_mismatch(self, cache, run_dir, capsys):
        rc = main(["eval", "--weights", str(run_dir / "weights.bin"),
                   "--manifest", str(cache / "manifest.csv"),
                   "--task", "five_class"])
        assert rc == EXIT_USAGE

    def test_predict_class_count_mismatch(self, corpus, run_dir, capsys):
        wav = parse_manifest(corpus[1])[0].clip_path
        rc = main(["predict", "--weights", str(run_dir / "weights.bin"),
                   "--wav", wav, "--task", "five_class"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: weights were trained for 2 classes "
                                "but task five_class has 5\n")

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_unknown_task_message(self, corpus, cache, run_dir, tmp_path, capsys,
                                  command):
        weights = ["--weights", str(run_dir / "weights.bin")]
        args = {"train": train_args(cache, tmp_path / "run"),
                "eval": ["eval", *weights, "--manifest", str(cache / "manifest.csv")],
                "predict": ["predict", *weights,
                            "--wav", parse_manifest(corpus[1])[0].clip_path]}[command]
        assert main(args + ["--task", "bogus"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: unknown task 'bogus'; known tasks: infant_vs_adult, ")
        assert main(args + ["--task", ""]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown task ''; known tasks: ")

    def test_eval_ignores_training_settings_it_does_not_read(self, cache, run_dir,
                                                             tmp_path, capsys):
        config = tmp_path / "ev.cfg"
        config.write_text("max_epochs=0\nbatch_size=0\nlr=nan\ntest_fraction=2\n")
        rc = main(["eval", "--weights", str(run_dir / "weights.bin"),
                   "--manifest", str(cache / "manifest.csv"),
                   "--task", "vocal_vs_nonvocal", "--config", str(config)])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["num_test"] == 20

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_eval_threads_zero_exits_2(self, cache, run_dir, tmp_path, capsys, source):
        args = ["eval", "--weights", str(run_dir / "weights.bin"),
                "--manifest", str(cache / "manifest.csv"),
                "--task", "vocal_vs_nonvocal", "--out", str(tmp_path / "ev")]
        if source == "flag":
            args += ["--threads", "0"]
        else:
            (tmp_path / "run.cfg").write_text("threads=0\n")
            args += ["--config", str(tmp_path / "run.cfg")]
        assert main(args) == EXIT_USAGE
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_eval_config_resolved_reproduces_the_report(self, cache, run_dir, tmp_path):
        weights = ["--weights", str(run_dir / "weights.bin")]
        first, second = tmp_path / "ev1", tmp_path / "ev2"
        assert main(["eval", *weights, "--manifest", str(cache / "manifest.csv"),
                     "--task", "vocal_vs_nonvocal", "--out", str(first)]) == EXIT_OK
        resolved = (first / "config.resolved").read_text().splitlines()
        assert f"# weights={run_dir / 'weights.bin'}" in resolved
        assert main(["eval", *weights, "--config", str(first / "config.resolved"),
                     "--out", str(second)]) == EXIT_OK
        for name in ("report.json", "config.resolved"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_eval_records_relative_weights_by_absolute_path(self, cache, run_dir, tmp_path,
                                                             monkeypatch):
        monkeypatch.chdir(run_dir.parent)
        out = tmp_path / "ev"
        assert main(["eval", "--weights", f"{run_dir.name}/weights.bin",
                     "--manifest", str(cache / "manifest.csv"),
                     "--task", "vocal_vs_nonvocal", "--out", str(out)]) == EXIT_OK
        resolved = (out / "config.resolved").read_text().splitlines()
        assert f"# weights={(run_dir / 'weights.bin').resolve()}" in resolved

    def test_eval_into_a_training_run_exits_2_and_keeps_its_files(self, cache, run_dir,
                                                                   capsys):
        kept = {name: (run_dir / name).read_bytes()
                for name in ("config.resolved", "report.json", "report.csv")}
        rc = main(["eval", "--weights", str(run_dir / "weights.bin"),
                   "--manifest", str(cache / "manifest.csv"),
                   "--task", "vocal_vs_nonvocal", "--out", str(run_dir)])
        assert rc == EXIT_USAGE
        assert str(run_dir) in capsys.readouterr().err
        for name, data in kept.items():
            assert (run_dir / name).read_bytes() == data, name

    def test_predict_probabilities_sum_to_one(self, corpus, run_dir, capsys):
        root, manifest = corpus
        wav = parse_manifest(manifest)[0].clip_path
        rc = main(["predict", "--weights", str(run_dir / "weights.bin"),
                   "--wav", wav, "--task", "vocal_vs_nonvocal"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        probs = [float(line.split("\t")[1]) for line in lines if "\t" in line]
        assert len(probs) == 2
        assert abs(sum(probs) - 1.0) < 1e-6

    def test_predict_on_nan_clip_exits_2_without_probabilities(self, run_dir, tmp_path,
                                                               capsys):
        clip = tmp_path / "nan.f32"
        np.full(8000, np.nan, dtype="<f4").tofile(clip)
        rc = main(["predict", "--weights", str(run_dir / "weights.bin"),
                   "--wav", str(clip)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "\t" not in captured.out
        assert "error:" in captured.err and "non-finite" in captured.err

    def test_eval_on_nan_clip_exits_2_naming_it(self, run_dir, tmp_path, capsys):
        clip = tmp_path / "nan.f32"
        np.full(8000, np.nan, dtype="<f4").tofile(clip)
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [(clip.name, "canonical", 6, "F00")])
        rc = main(["eval", "--weights", str(run_dir / "weights.bin"),
                   "--manifest", str(manifest), "--task", "vocal_vs_nonvocal"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {clip}: non-finite samples" in captured.err

    @pytest.mark.parametrize("offset,patch,cause", [
        (16, None, "record header at byte 14 runs past the end"),
        (14, struct.pack("<I", 999), "record at byte 14 holds owner 999, role 0"),
        (18, b"\x07", "record at byte 14 holds owner 0, role 7"),
        (1322, b"\x00", "record at byte 1322 holds owner 0, role 0"),  # owner 1's weight
        (2150814, struct.pack("<f", np.inf), "owner 8 bias: non-finite values"),  # last value
    ], ids=["cut to 16 bytes", "owner index 999", "role 7", "duplicate owner", "inf value"])
    def test_malformed_weights_exit_2_naming_file(self, run_dir, tmp_path, capsys,
                                                  offset, patch, cause):
        blob = bytearray((run_dir / "weights.bin").read_bytes())
        if patch is None:
            del blob[offset:]
        else:
            blob[offset:offset + len(patch)] = patch
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        rc = main(["predict", "--weights", str(bad), "--wav", str(tmp_path / "x.wav")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and cause in err
        assert "Traceback" not in err

    def test_eval_on_non_finite_weights_exits_2_naming_them(self, cache, run_dir, tmp_path,
                                                            capsys):
        blob = bytearray((run_dir / "weights.bin").read_bytes())
        struct.pack_into("<f", blob, len(blob) - 4, np.nan)  # a bias of the final conv
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        rc = main(["eval", "--weights", str(bad), "--manifest", str(cache / "manifest.csv"),
                   "--task", "vocal_vs_nonvocal"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: owner 8 bias: non-finite values\n"

    def test_params_reports_exact_totals(self, capsys):
        assert main(["params", "--variant", "without_inception", "--classes", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "total parameters: 537720" in out
        assert main(["params", "--variant", "with_inception", "--classes", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "total parameters: 299690" in out

    # sha256 of `params --variant V` stdout from the build that drew weights
    @pytest.mark.parametrize("variant,digest", [
        ("with_inception",
         "6d0bc311b0fba7f7ac10bc7345413d110a6e20fbd9a8e68e7d29027f9297c067"),
        ("without_inception",
         "ec99e4b353b9e6f57512249d8081436803f0b71e0fa338fc90aa44d4aa28a3f0"),
    ], ids=["with_inception", "without_inception"])
    def test_params_draws_no_weights(self, monkeypatch, capsys, variant, digest):
        def no_draw(*args, **kwargs):
            raise AssertionError("glorot_init called")
        monkeypatch.setattr(layers, "glorot_init", no_draw)
        assert main(["params", "--variant", variant]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGradcheckAndSynth:
    def test_gradcheck_all_layers_pass(self, capsys):
        assert main(["gradcheck", "--layers", "all"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "end_to_end" in out

    def test_gradcheck_unknown_layer(self, capsys):
        assert main(["gradcheck", "--layers", "transformer"]) == EXIT_USAGE

    def test_gradcheck_negative_seed_names_the_setting(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == EXIT_USAGE
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_synth_command_counts(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        rc = main(["synth", "--out", str(out_dir), "--classes", "2",
                   "--clips-per-class", "3", "--seed", "5"])
        assert rc == EXIT_OK
        assert len(list(out_dir.glob("*.wav"))) == 6
        assert (out_dir / "manifest.csv").exists()

    def test_synth_negative_seed_exits_2_before_any_file(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        assert main(["synth", "--out", str(out_dir), "--seed", "-1"]) == EXIT_USAGE
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_synth_noise_at_its_bound_writes_a_corpus(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        assert main(["synth", "--out", str(out_dir), "--classes", "1", "--clips-per-class",
                     "2", "--noise", repr(MAX_NOISE_FLOOR)]) == EXIT_OK
        assert len(list(out_dir.glob("*.wav"))) == 2

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_synth_non_finite_noise_exits_2_before_any_file(self, tmp_path, capsys, noise):
        out_dir = tmp_path / "gen"
        assert main(["synth", "--out", str(out_dir), "--noise", noise]) == EXIT_USAGE
        assert "error: noise_floor must be finite" in capsys.readouterr().err
        assert not out_dir.exists()


def test_threads_come_from_no_environment_variable(cache, tmp_path, monkeypatch):
    monkeypatch.setenv("WAVENET_THREADS", "x")
    run = tmp_path / "run"
    assert main(train_args(cache, run)) == EXIT_OK
    assert "threads=1" in (run / "config.resolved").read_text().splitlines()


def test_every_train_config_field_is_one_train_flag():
    """Each setting has exactly one flag, so none is settable by a config file alone."""
    dests = [a.dest for a in subparsers()["train"]._actions if a.option_strings]
    assert {f.name: dests.count(f.name) for f in fields(TrainConfig)} == \
        {f.name: 1 for f in fields(TrainConfig)}


@pytest.mark.parametrize("case", list(PARTIAL_FRAMES))
def test_predict_refuses_a_partial_frame(case, run_dir, tmp_path, capsys):
    payload, audio_format, bits, rate, channels, cause = PARTIAL_FRAMES[case]
    bad = tmp_path / "bad.wav"
    bad.write_bytes(wav_bytes(payload, audio_format, bits, rate, channels))
    rc = main(["predict", "--weights", str(run_dir / "weights.bin"), "--wav", str(bad)])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {cause}\n"


class TestLowRateWav:
    """A WAV sampled below 8 kHz fails naming the file, on every command."""

    @pytest.fixture
    def low_rate_wav(self, tmp_path):
        wav = tmp_path / "slow.wav"
        write_wav(wav, 0.1 * np.sin(np.arange(8000) / 5.0), rate=4000)
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [(wav.name, "canonical", 6, "F00")])
        return wav, manifest

    def test_prepare_names_the_file(self, low_rate_wav, tmp_path, capsys):
        wav, manifest = low_rate_wav
        rc = main(["prepare", "--manifest", str(manifest), "--out", str(tmp_path / "c")])
        assert rc == EXIT_PARTIAL
        assert f"error: {wav}: cannot upsample from 4000 Hz" in capsys.readouterr().err

    def test_predict_names_the_file(self, low_rate_wav, run_dir, capsys):
        wav, _ = low_rate_wav
        rc = main(["predict", "--weights", str(run_dir / "weights.bin"), "--wav", str(wav)])
        assert rc == EXIT_USAGE
        assert f"error: {wav}: cannot upsample from 4000 Hz" in capsys.readouterr().err

    def test_eval_names_the_file(self, low_rate_wav, run_dir, capsys):
        wav, manifest = low_rate_wav
        rc = main(["eval", "--weights", str(run_dir / "weights.bin"),
                   "--manifest", str(manifest), "--task", "vocal_vs_nonvocal"])
        assert rc == EXIT_USAGE
        assert f"error: {wav}: cannot upsample from 4000 Hz" in capsys.readouterr().err


class TestShortWav:
    """A WAV shorter than the resampler's filter fails as too short, naming the file."""

    @pytest.fixture
    def short_wav(self, tmp_path):
        wav = tmp_path / "short.wav"
        write_wav(wav, 0.1 * np.sin(np.arange(40) / 5.0), rate=16000)
        return wav

    def test_prepare_counts_it_as_failed(self, short_wav, tmp_path, capsys):
        write_wav(tmp_path / "good.wav", 0.5 * np.sin(np.arange(8000) / 8.0))
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [("good.wav", "canonical", 6, "F00"),
                                  (short_wav.name, "canonical", 6, "F00")])
        out = tmp_path / "cache"
        rc = main(["prepare", "--manifest", str(manifest), "--out", str(out)])
        assert rc == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert f"error: {short_wav}: " in err
        assert "too short for a 1-second clip" in err
        assert len(list(out.glob("*.f32"))) == 1

    def test_predict_names_the_file(self, short_wav, run_dir, capsys):
        rc = main(["predict", "--weights", str(run_dir / "weights.bin"),
                   "--wav", str(short_wav)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {short_wav}: " in err
        assert "too short for a 1-second clip" in err


class TestTrainSettingsRejectedBeforeAnyFile:
    @pytest.mark.parametrize("flags,cause", [
        (["--epochs", "0"], "max_epochs must be >= 1"),
        (["--threads", "0"], "threads must be >= 1"),
        (["--batch", "0"], "batch_size must be >= 1"),
        (["--lr", "nan"], "lr must be finite and > 0"),
        (["--lambda", "-1"], "lam must be finite and >= 0"),
        (["--test-fraction", "1.5"], "test_fraction must be in (0, 1)"),
        (["--test-fraction", "0.99"], "leaves the training set empty"),
    ], ids=["epochs-0", "threads-0", "batch-0", "lr-nan", "lambda-negative",
            "test-fraction-1.5", "test-fraction-0.99"])
    def test_exit_2_naming_the_setting(self, cache, tmp_path, capsys, flags, cause):
        out = tmp_path / "run"
        rc = main(train_args(cache, out, extra=flags))
        assert rc == EXIT_USAGE
        assert cause in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_variant_in_config_file(self, cache, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("variant=bogus\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--task", "vocal_vs_nonvocal",
                     "--manifest", str(cache / "manifest.csv"),
                     "--out", str(out)]) == EXIT_USAGE
        assert "unknown variant 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_clip_in_manifest(self, cache, tmp_path, capsys):
        clip = tmp_path / "nan.f32"
        np.full(8000, np.nan, dtype="<f4").tofile(clip)
        rows = [(s.clip_path, s.raw_label, s.age_months, s.family_id)
                for s in parse_manifest(cache / "manifest.csv")]
        write_manifest(tmp_path / "manifest.csv", rows + [(clip.name, *rows[0][1:])])
        out = tmp_path / "run"
        args = train_args(cache, out)
        args[2] = str(tmp_path / "manifest.csv")
        assert main(args) == EXIT_USAGE
        assert f"error: {clip}: non-finite samples" in capsys.readouterr().err
        assert not out.exists()

    def test_training_error_exits_2(self, cache, tmp_path, capsys, monkeypatch):
        from wavecnn.train import TrainingError

        def abort(*args, **kwargs):
            raise TrainingError("non-finite loss at epoch 0 batch 0")

        monkeypatch.setattr(cli, "train", abort)
        rc = main(train_args(cache, tmp_path / "run"))
        assert rc == EXIT_USAGE
        assert "error: non-finite loss at epoch 0 batch 0" in capsys.readouterr().err

    def test_untyped_error_is_an_internal_error_with_its_traceback(self, cache, tmp_path,
                                                                    capsys, monkeypatch):
        def bug(*args, **kwargs):
            raise ValueError("gemm_acc: c overlaps an input")

        monkeypatch.setattr(cli, "train", bug)
        assert main(train_args(cache, tmp_path / "run")) == EXIT_INTERNAL == 3
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "ValueError: gemm_acc: c overlaps an input" in err
        assert "error: gemm_acc" not in err


@pytest.fixture(scope="module")
def overflowing_weights(tmp_path_factory):
    """A 2-class model whose finite weights overflow float32 in the forward pass."""
    model = build_model("without_inception", 2, seed=0)
    for p in model.parameter_arrays():
        p *= 1e30
    path = tmp_path_factory.mktemp("overflow") / "weights.bin"
    save_weights(model, path)
    return path


# Each of these raised a builtin ValueError, KeyError or FloatingPointError
# that the command line used to catch wholesale; each now raises a typed error
# and still exits 2 with the same message.  predict's message now also names
# the WAV and the weights.
TYPED_INPUT_ERRORS = {
    "train --seed -1": "seed must be non-negative, got -1",
    "train --split bogus": "unknown split policy 'bogus'; use 'holdout' or 'lofo:<family_id>'",
    "train --split lofo:F99": "family 'F99' not present; families: ['F00', 'F01']",
    "variant=foo": "unknown variant 'foo'; expected one of "
                   "('with_inception', 'without_inception')",
    "train --task bogus": "unknown task 'bogus'; known tasks: infant_vs_adult, ",
    "synth --classes 0": "num_classes and clips_per_class must be >= 1",
    "params --classes 1": "layer 22 (class_head, 1 channels) cannot end a model",
    "params --classes 2**63": "9223372036854775808 classes: a weights file holds at most "
                              "2**32 - 1",
    "synth --clips-per-class 2**63": "a corpus holds at most 100000 clips and as many "
                                     "families, got 3 x 9223372036854775808 clips",
    "synth --families 2**63": "and 9223372036854775808 families",
    "synth --noise 1.7976931348623157e308": "noise_floor must be finite, >= 0 and <= 1e+300, "
                                            "got 1.7976931348623157e+308",
    "eval overflowing weights": ".f32: non-finite logits [nan nan]",
    "predict overflowing weights": "{wav}: non-finite logits: [nan nan] under weights {weights}",
}


@pytest.mark.parametrize("case", list(TYPED_INPUT_ERRORS))
def test_typed_input_errors_exit_2_with_their_message(case, corpus, cache,
                                                      overflowing_weights, tmp_path, capsys):
    manifest, wav = str(cache / "manifest.csv"), parse_manifest(corpus[1])[0].clip_path
    config = tmp_path / "run.cfg"
    config.write_text("variant=foo\n")
    args = {
        "train --seed -1": train_args(cache, tmp_path / "run", ["--seed", "-1"]),
        "train --split bogus": train_args(cache, tmp_path / "run", ["--split", "bogus"]),
        "train --split lofo:F99": train_args(cache, tmp_path / "run", ["--split", "lofo:F99"]),
        "variant=foo": ["train", "--config", str(config), "--manifest", manifest,
                        "--task", "vocal_vs_nonvocal", "--out", str(tmp_path / "run")],
        "train --task bogus": train_args(cache, tmp_path / "run", ["--task", "bogus"]),
        "synth --classes 0": ["synth", "--out", str(tmp_path / "run"), "--classes", "0"],
        "params --classes 1": ["params", "--variant", "without_inception", "--classes", "1"],
        "params --classes 2**63": ["params", "--variant", "without_inception",
                                   "--classes", str(2**63)],
        "synth --clips-per-class 2**63": ["synth", "--out", str(tmp_path / "run"),
                                          "--clips-per-class", str(2**63)],
        "synth --families 2**63": ["synth", "--out", str(tmp_path / "run"),
                                   "--families", str(2**63)],
        "synth --noise 1.7976931348623157e308": ["synth", "--out", str(tmp_path / "run"),
                                                 "--noise", "1.7976931348623157e308"],
        "eval overflowing weights": ["eval", "--weights", str(overflowing_weights),
                                     "--manifest", manifest, "--task", "vocal_vs_nonvocal"],
        "predict overflowing weights": ["predict", "--weights", str(overflowing_weights),
                                        "--wav", wav],
    }[case]
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert TYPED_INPUT_ERRORS[case].format(wav=wav, weights=overflowing_weights) in captured.err
    assert not (tmp_path / "run").exists()


def test_out_of_memory_exits_2_with_one_error_line(monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 18.0 TiB for an array")

    monkeypatch.setattr(cli, "build_model", too_large)
    assert main(["params", "--variant", "with_inception"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: Unable to allocate 18.0 TiB for an array\n"


def run_cli(*args):
    """The command line run by a fresh interpreter, with Python's default
    warning filters, so that a numpy RuntimeWarning prints on stderr as it
    would for a user; returns the completed process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavecnn.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", "import sys; from wavecnn.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_commands_in_one_process_print_what_fresh_processes_print(capsys, monkeypatch):
    """main() reuses one parser per process: a flag of one call must not
    carry into the next, and a command rebound after the parser was built
    (as a tracer wraps it) must be the one that runs."""
    commands = [["params", "--variant", "without_inception", "--classes", "3", "--dense-head"],
                ["gradcheck", "--layers", "relu,maxpool1d"],
                ["params", "--variant", "with_inception", "--classes", "3"]]
    for args in commands:
        assert main(args) == EXIT_OK
        fresh = run_cli(*args)
        assert fresh.returncode == EXIT_OK
        assert capsys.readouterr().out == fresh.stdout
    assert cli.build_parser() is cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_params", lambda args: calls.append(args.variant) or EXIT_OK)
    assert main(["params", "--variant", "with_inception"]) == EXIT_OK
    assert calls == ["with_inception"]


# Each case overflows float32 on finite input, or casts a signalling NaN; the
# package refuses the non-finite result, and numpy's RuntimeWarnings must not
# print ahead of that refusal's one error line.  Case -> exit code.
REFUSED_NON_FINITE = {
    "train --lr 1e38": EXIT_USAGE,
    "train --lambda 1e38": EXIT_USAGE,
    "train --lambda 1e39": EXIT_USAGE,
    "eval --threads 2 overflowing weights": EXIT_USAGE,
    "predict overflowing weights": EXIT_USAGE,
    "prepare signalling NaN": EXIT_PARTIAL,
}


@pytest.mark.parametrize("case", list(REFUSED_NON_FINITE))
def test_refused_non_finite_value_prints_one_error_line(case, corpus, cache,
                                                        overflowing_weights, tmp_path):
    manifest, wav = str(cache / "manifest.csv"), parse_manifest(corpus[1])[0].clip_path
    signalling_nan = struct.pack("<I", 0x7F800001)
    payload = np.array([0.1, 0.2], dtype="<f4").tobytes() + signalling_nan
    (tmp_path / "snan.wav").write_bytes(wav_bytes(payload, audio_format=3, bits=32))
    write_manifest(tmp_path / "snan.csv", [("snan.wav", "canonical", 6, "F00")])
    args = {
        "train --lr 1e38": train_args(cache, tmp_path / "run", ["--lr", "1e38"]),
        "train --lambda 1e38": train_args(cache, tmp_path / "run", ["--lambda", "1e38"]),
        "train --lambda 1e39": train_args(cache, tmp_path / "run", ["--lambda", "1e39"]),
        "eval --threads 2 overflowing weights": [
            "eval", "--weights", str(overflowing_weights), "--manifest", manifest,
            "--task", "vocal_vs_nonvocal", "--threads", "2"],
        "predict overflowing weights": ["predict", "--weights", str(overflowing_weights),
                                        "--wav", wav],
        "prepare signalling NaN": ["prepare", "--manifest", str(tmp_path / "snan.csv"),
                                   "--out", str(tmp_path / "cache")],
    }[case]
    proc = run_cli(*args)
    assert proc.returncode == REFUSED_NON_FINITE[case]
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr



# -- every value the grammar accepts -------------------------------------------

# each flag type's edges; the path into a missing directory is relative, so
# it stays inside the working directory a run starts in
FLOAT_EDGES = ("0", "1e-45", "-1e-45", "1e38", "-1e38", "3.4e38", "1.7976931348623157e308",
               "-1.7976931348623157e308", "inf", "-inf", "nan", "0.5")
INT_EDGES = ("0", "-1", str(2**63), "1", "2")
STRING_EDGES = ("", "näme-☃", os.path.join("missing", "dir", "file"))
# flags whose larger values cost only time or threads are drawn up to these
INT_CAPS = {"max_epochs": 2, "batch_size": 8, "threads": 2}


def flag_tokens(action):
    """What follows one drawn flag: nothing for a switch, else one of its
    choices (without_inception the only architecture) or its type's edges."""
    if action.nargs == 0:
        return st.just([])
    if action.choices:
        values = [c for c in action.choices if c != "with_inception"] + list(STRING_EDGES)
    elif action.type is float:
        values = FLOAT_EDGES
    elif action.type is int:
        cap = INT_CAPS.get(action.dest)
        values = [v for v in INT_EDGES if cap is None or int(v) <= cap]
    else:
        values = STRING_EDGES
    return st.sampled_from(values).map(lambda value: [value])


@st.composite
def command_lines(draw, bases):
    """One of the parser's commands with its flags from ``bases``, then up
    to three of the command's flags each set to a drawn value or dropped,
    except a capped one, whose default may exceed its cap."""
    command = draw(st.sampled_from(sorted(subparsers())))
    flags = dict(bases[command])
    actions = [a for a in subparsers()[command]._actions
               if a.option_strings and a.dest != "help"]
    for action in draw(st.lists(st.sampled_from(actions), max_size=3, unique_by=id)):
        tokens = draw(flag_tokens(action) if action.dest in INT_CAPS
                      else st.none() | flag_tokens(action))
        if tokens is None:
            flags.pop(action.option_strings[-1], None)
        else:
            flags[action.option_strings[-1]] = tokens
    return [command] + [token for flag, tokens in flags.items() for token in [flag, *tokens]]


@pytest.fixture(scope="module")
def base_flags(tmp_path_factory):
    """Flags that make each command a short valid run on an 8-clip corpus;
    outputs are relative, inside the working directory of the run."""
    root = tmp_path_factory.mktemp("grammar")
    manifest = generate(SynthSpec(num_classes=2, clips_per_class=4, families=2,
                                  noise_floor=0.05, seed=4), root / "wavs")
    cache = root / "cache" / "manifest.csv"
    assert main(["prepare", "--manifest", str(manifest), "--out", str(cache.parent)]) == EXIT_OK
    run = {"--manifest": [str(cache)], "--task": ["vocal_vs_nonvocal"]}
    assert main(["train", "--manifest", str(cache), "--task", "vocal_vs_nonvocal",
                 "--variant", "without_inception", "--epochs", "1",
                 "--out", str(root / "run")]) == EXIT_OK
    weights = [str(root / "run" / "weights.bin")]
    return root, {
        "prepare": {"--manifest": [str(manifest)], "--out": ["prepared"]},
        "train": {**run, "--variant": ["without_inception"], "--epochs": ["1"],
                  "--batch": ["8"], "--out": ["run"]},
        "eval": {"--weights": weights, **run},
        "predict": {"--weights": weights, "--wav": [parse_manifest(manifest)[0].clip_path]},
        "params": {"--variant": ["without_inception"]},
        "gradcheck": {},
        "synth": {"--out": ["synth"], "--classes": ["2"], "--clips-per-class": ["1"],
                  "--families": ["1"]},
    }


def tree(root):
    """Every file under ``root`` with its size and modification time."""
    return {(path, path.stat().st_size, path.stat().st_mtime_ns)
            for path in Path(root).rglob("*") if path.is_file()}


def finite_json(text):
    def refuse(constant):
        raise AssertionError(f"non-finite {constant} in {text!r}")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_no_accepted_value_exits_3(base_flags, data):
    """Whatever values its grammar lets through, the command line exits 0, 1
    or 2 and writes only inside its working directory; a refusal prints one
    error line, a success leaves finite results."""
    inputs, bases = base_flags
    argv = data.draw(command_lines(bases), label="argv")
    here = os.getcwd()
    before = tree(inputs), set(os.listdir(here))
    with (tempfile.TemporaryDirectory() as work, warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO()) as err):
        warnings.simplefilter("always")
        os.chdir(work)
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse refusing a value
            code = exit_.code
        finally:
            os.chdir(here)
        event(f"{argv[0]} exit {code}")
        assert code in (EXIT_OK, EXIT_PARTIAL, EXIT_USAGE), err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        if code != EXIT_OK:
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, \
                err.getvalue()
        if code == EXIT_OK:
            for log in Path(work).rglob("run_log.jsonl"):
                assert [finite_json(line) for line in log.read_text().splitlines()]
            for report in Path(work).rglob("report.json"):
                finite_json(report.read_text())
            for weights in Path(work).rglob("weights.bin"):
                load_weights(weights)
    assert (tree(inputs), set(os.listdir(here))) == before
