import math

import numpy as np
import pytest

from conftest import tiny_model, tone_corpus
from wavecnn.data import Split, get_task
from wavecnn.model import WITHOUT_INCEPTION, build_model
from wavecnn.train import (TrainConfig, TrainingError, evaluate, evaluate_by_age,
                           lofo_sweep, mean_loss, train)

IDS_VS_ADS = get_task("ids_vs_ads")


def quick_config(**overrides):
    base = dict(task="ids_vs_ads", variant="custom", batch_size=4, max_epochs=30,
                seed=0, lr=2e-3, lam=1e-4)
    base.update(overrides)
    return TrainConfig(**base)


def split_all_train(samples, test=None):
    return Split(train=list(samples), test=list(test or samples), policy="holdout")


class TestTrainLoop:
    def test_overfits_two_clip_toy_set(self):
        samples, clips = tone_corpus(1, {"ids": 500.0, "ads": 2500.0}, seed=1)
        model = tiny_model(2, seed=1)
        config = quick_config(batch_size=2, max_epochs=200, lam=0.0)
        done = lambda epoch, stats: stats["loss"] < 0.01
        history, reason = train(model, split_all_train(samples), IDS_VS_ADS,
                                config, clips, on_epoch=done)
        assert history[-1]["loss"] < 0.01
        assert len(history) <= 200

    def test_initial_loss_near_log_k(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        for k, task_name in ((2, "ids_vs_ads"), (5, "five_class")):
            task = get_task(task_name)
            relabeled = [s for s in samples]
            model = tiny_model(k, seed=3)
            loss = mean_loss(model, task.filter(relabeled), task, lam=0.0, clips=clips)
            assert loss == pytest.approx(math.log(k), abs=0.2)

    def test_identical_seeds_identical_history(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        runs = []
        for _ in range(2):
            model = tiny_model(2, seed=5)
            history, _ = train(model, split_all_train(samples), IDS_VS_ADS,
                               quick_config(max_epochs=5), clips)
            runs.append([(h["loss"], h["train_acc"]) for h in history])
        assert runs[0] == runs[1]  # bitwise-equal floats

    def test_threaded_reduction_matches_single_thread(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        histories = []
        for threads in (1, 3):
            model = tiny_model(2, seed=6)
            history, _ = train(model, split_all_train(samples), IDS_VS_ADS,
                               quick_config(max_epochs=4, threads=threads), clips)
            histories.append([h["loss"] for h in history])
        assert histories[0] == histories[1]

    def test_convergence_stop_after_patience(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=7)
        config = quick_config(lr=0.0, max_epochs=100)
        history, reason = train(model, split_all_train(samples), IDS_VS_ADS,
                                config, clips)
        assert "converged" in reason
        assert len(history) == 1 + config.converge_patience

    def test_non_finite_loss_reports_epoch_and_batch(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=8)
        final_conv = model.param_owners()[-1]
        final_conv.params["bias"][:] = [500.0, -500.0]  # drives p[true] to 0
        with pytest.raises(TrainingError, match=r"epoch 0 batch \d+"):
            train(model, split_all_train(samples), IDS_VS_ADS, quick_config(), clips)

    def test_empty_training_set_rejected(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        with pytest.raises(TrainingError, match="empty"):
            train(tiny_model(2), Split([], samples, "holdout"), IDS_VS_ADS,
                  quick_config(), clips)

    def test_epoch_zero_eval_near_chance_with_zero_head(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=9)
        head_conv = model.param_owners()[-1]
        head_conv.params["weight"][:] = 0.0
        head_conv.params["bias"][:] = 0.0
        report = evaluate(model, samples, IDS_VS_ADS, clips)
        assert abs(report.overall_accuracy - report.chance_percent) <= 10.0


def trained_two_tone(seed=11):
    samples, clips = tone_corpus(8, {"ids": 500.0, "ads": 2500.0}, seed=seed)
    model = tiny_model(2, seed=seed)
    stop = lambda epoch, stats: stats["train_acc"] == 100.0
    train(model, split_all_train(samples), IDS_VS_ADS,
          quick_config(max_epochs=60), clips, on_epoch=stop)
    return model, samples, clips


class TestEvaluate:
    def test_perfect_predictor_and_diagonal_confusion(self):
        model, samples, clips = trained_two_tone()
        report = evaluate(model, samples, IDS_VS_ADS, clips)
        assert report.overall_accuracy == 100.0
        confusion = np.array(report.confusion)
        assert confusion.trace() == len(samples)
        assert not confusion[~np.eye(2, dtype=bool)].any()

    def test_constant_predictor_scores_chance_on_balanced_set(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=12)
        head = model.param_owners()[-1]
        head.params["weight"][:] = 0.0
        head.params["bias"][:] = [1.0, 0.0]  # always class 0
        report = evaluate(model, samples, IDS_VS_ADS, clips)
        assert report.overall_accuracy == pytest.approx(50.0)
        assert report.chance_percent == pytest.approx(50.0)

    def test_confusion_row_sums_and_accuracy_identity(self):
        model, samples, clips = trained_two_tone(seed=13)
        report = evaluate(model, samples, IDS_VS_ADS, clips)
        confusion = np.array(report.confusion)
        for cls in range(2):
            expected = sum(IDS_VS_ADS.class_of(s) == cls for s in samples)
            assert confusion[cls].sum() == expected
        direct = 100.0 * confusion.trace() / len(samples)
        assert report.overall_accuracy == pytest.approx(direct)

    def test_evaluation_never_mutates_weights(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=14)
        before = model.state_bytes()
        evaluate(model, samples, IDS_VS_ADS, clips)
        assert model.state_bytes() == before

    def test_threaded_evaluation_matches_single_thread(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = build_model(WITHOUT_INCEPTION, 2, seed=3)
        one = evaluate(model, samples, IDS_VS_ADS, clips, threads=1)
        three = evaluate(model, samples, IDS_VS_ADS, clips, threads=3)
        assert three.to_json() == one.to_json()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_logits_raise_naming_the_clip(self, two_tone_corpus, threads):
        samples, clips = two_tone_corpus
        clips = dict(clips)
        clips[samples[3].clip_path] = np.full(8000, np.nan, dtype=np.float32)
        with pytest.raises(FloatingPointError, match=f"{samples[3].clip_path}: non-finite"):
            evaluate(tiny_model(2), samples, IDS_VS_ADS, clips, threads=threads)

    def test_empty_test_set_rejected(self, two_tone_corpus):
        _, clips = two_tone_corpus
        with pytest.raises(ValueError, match="empty"):
            evaluate(tiny_model(2), [], IDS_VS_ADS, clips)

    def test_report_serialization_shapes(self):
        model, samples, clips = trained_two_tone(seed=15)
        report = evaluate(model, samples, IDS_VS_ADS, clips)
        text = report.to_json()
        assert '"task": "ids_vs_ads"' in text
        assert '"chance_percent": 50.0' in text
        csv = report.to_csv()
        assert csv.splitlines()[0] == "task,variant,overall_acc,chance,age,n,acc"
        assert ",all," in csv.splitlines()[1]


class TestEvaluateByAge:
    def test_buckets_recompose_overall(self):
        model, samples, clips = trained_two_tone(seed=16)
        report = evaluate(model, samples, IDS_VS_ADS, clips)
        weighted = sum(b["n"] * b["accuracy"] for b in report.by_age.values())
        total = sum(b["n"] for b in report.by_age.values())
        assert total == report.num_test
        assert weighted / total == pytest.approx(report.overall_accuracy, abs=0.01)

    def test_single_age_single_bucket(self):
        samples, clips = tone_corpus(4, {"ids": 500.0, "ads": 2500.0}, seed=17)
        samples = [type(s)(s.clip_path, s.raw_label, 9, s.family_id) for s in samples]
        model = tiny_model(2, seed=17)
        buckets = evaluate_by_age(model, samples, IDS_VS_ADS, clips)
        assert list(buckets) == [9]
        assert buckets[9]["n"] == len(samples)

    def test_empty_buckets_omitted(self):
        model, samples, clips = trained_two_tone(seed=18)
        ages_present = {s.age_months for s in samples}
        buckets = evaluate_by_age(model, samples, IDS_VS_ADS, clips)
        assert set(buckets) == ages_present


class TestLofoSweep:
    def test_identical_families_near_zero_drop(self):
        samples, clips = tone_corpus(16, {"ids": 500.0, "ads": 2500.0},
                                     families=("F00", "F01"), seed=19)
        stop = lambda epoch, stats: stats["loss"] < 0.03
        result = lofo_sweep(samples, IDS_VS_ADS, quick_config(max_epochs=80), clips,
                            on_epoch=stop,
                            model_factory=lambda: tiny_model(2, seed=19))
        assert len(result.reports) == 2
        # identically distributed families: held-out-family accuracy should
        # sit at the holdout baseline, so the drop is near zero
        assert result.mean_accuracy >= 90.0
        assert abs(result.accuracy_drop) <= 10.0

    def test_one_report_per_family(self):
        samples, clips = tone_corpus(6, {"ids": 600.0, "ads": 2200.0},
                                     families=("F00", "F01", "F02"), seed=20)
        result = lofo_sweep(samples, IDS_VS_ADS, quick_config(max_epochs=25), clips,
                            model_factory=lambda: tiny_model(2, seed=20))
        assert sorted(result.reports) == ["F00", "F01", "F02"]
        for family, report in result.reports.items():
            assert report.num_test == sum(s.family_id == family for s in samples)

    def test_family_leakage_detected_as_accuracy_drop(self):
        # the tone-class assignment is swapped between the two families, so a
        # model generalizes within families but anti-generalizes across them
        def swapped(label, family):
            base = {"ids": 500.0, "ads": 2500.0}
            if family == "F01":
                return base["ads"] if label == "ids" else base["ids"]
            return base[label]

        samples, clips = tone_corpus(8, {"ids": 500.0, "ads": 2500.0},
                                     families=("F00", "F01"), seed=21,
                                     freq_override=swapped)
        result = lofo_sweep(samples, IDS_VS_ADS, quick_config(max_epochs=40), clips,
                            model_factory=lambda: tiny_model(2, seed=21))
        assert result.accuracy_drop > 20.0

    def test_single_family_rejected(self):
        samples, clips = tone_corpus(4, {"ids": 500.0, "ads": 2500.0}, seed=22)
        with pytest.raises(ValueError, match=">= 2 families"):
            lofo_sweep(samples, IDS_VS_ADS, quick_config(), clips,
                       model_factory=lambda: tiny_model(2))
