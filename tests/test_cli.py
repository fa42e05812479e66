import json
import struct

import numpy as np
import pytest

from wavecnn.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from wavecnn.data import parse_manifest, write_manifest
from wavecnn.synth import SynthSpec, generate


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

    def test_rerun_is_byte_identical(self, corpus, cache, tmp_path):
        _, manifest = corpus
        again = tmp_path / "again"
        assert main(["prepare", "--manifest", str(manifest), "--out", str(again)]) == EXIT_OK
        for path in sorted(cache.glob("*.f32")):
            assert (again / path.name).read_bytes() == path.read_bytes()
        assert (again / "manifest.csv").read_text() == (cache / "manifest.csv").read_text()

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

    def test_eval_class_count_mismatch(self, cache, run_dir, capsys):
        rc = main(["eval", "--weights", str(run_dir / "weights.bin"),
                   "--manifest", str(cache / "manifest.csv"),
                   "--task", "five_class"])
        assert rc == EXIT_USAGE

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
        assert f"error: {clip}: non-finite logits" in captured.err

    @pytest.mark.parametrize("offset,patch,cause", [
        (16, None, "record header at byte 14 runs past the end"),
        (14, struct.pack("<I", 999), "owner index 999 out of range"),
        (18, b"\x07", "unknown role 7"),
        (1322, b"\x00", "owner 0 weight written twice"),  # owner 1's weight record
    ], ids=["cut to 16 bytes", "owner index 999", "role 7", "duplicate owner"])
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

    def test_params_reports_exact_totals(self, capsys):
        assert main(["params", "--variant", "without_inception", "--classes", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "total parameters: 537720" in out
        assert main(["params", "--variant", "with_inception", "--classes", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "total parameters: 299690" in out


class TestGradcheckAndSynth:
    def test_gradcheck_all_layers_pass(self, capsys):
        assert main(["gradcheck", "--layers", "all"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "end_to_end" in out

    def test_gradcheck_unknown_layer(self, capsys):
        assert main(["gradcheck", "--layers", "transformer"]) == EXIT_USAGE

    def test_synth_command_counts(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        rc = main(["synth", "--out", str(out_dir), "--classes", "2",
                   "--clips-per-class", "3", "--seed", "5"])
        assert rc == EXIT_OK
        assert len(list(out_dir.glob("*.wav"))) == 6
        assert (out_dir / "manifest.csv").exists()


class TestThreadsEnvFallback:
    def test_wavenet_threads_env(self, cache, tmp_path, monkeypatch):
        monkeypatch.setenv("WAVENET_THREADS", "2")
        run = tmp_path / "env_run"
        assert main(train_args(cache, run)) == EXIT_OK
        assert "threads=2" in (run / "config.resolved").read_text()

    def test_explicit_flag_beats_env(self, cache, tmp_path, monkeypatch):
        monkeypatch.setenv("WAVENET_THREADS", "4")
        run = tmp_path / "flag_run"
        assert main(train_args(cache, run, extra=["--threads", "1"])) == EXIT_OK
        assert "threads=1" in (run / "config.resolved").read_text()
