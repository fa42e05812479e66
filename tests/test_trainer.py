import math
import platform
import sys
import threading
import warnings

import numpy as np
import pytest

import wavecnn.train
from conftest import TRAIN_ONCE, run_python, tiny_model, tone_corpus
from wavecnn.data import ExcludedSampleError, Split, get_task
from wavecnn.layers import softmax_xent
from wavecnn.model import WITHOUT_INCEPTION, build_model
from wavecnn.train import TrainConfig, TrainingError, evaluate, lofo_sweep, train

IDS_VS_ADS = get_task("ids_vs_ads")


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    before = threading.active_count()
    yield
    assert threading.active_count() == before


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
            kept = task.filter(relabeled)
            loss = np.mean([softmax_xent(model.forward(clips[s.clip_path]),
                                         task.class_of(s))[0] for s in kept])
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
        histories, states = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside each step
        try:
            for threads in (1, 3):
                model = tiny_model(2, seed=6)
                history, _ = train(model, split_all_train(samples), IDS_VS_ADS,
                                   quick_config(max_epochs=4, threads=threads), clips)
                histories.append([h["loss"] for h in history])
                states.append(model.state_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert histories[0] == histories[1]
        assert states[0] == states[1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_pool_per_train_and_per_evaluate_call(self, two_tone_corpus, monkeypatch,
                                                      threads):
        opened = []
        pool_class = wavecnn.train.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            opened.append(kwargs["max_workers"])
            return pool_class(*args, **kwargs)

        monkeypatch.setattr(wavecnn.train, "ThreadPoolExecutor", counting_pool)
        samples, clips = two_tone_corpus
        model = tiny_model(2)
        train(model, split_all_train(samples), IDS_VS_ADS,
              quick_config(max_epochs=2, threads=threads), clips)  # 8 batches
        assert opened == [threads]
        evaluate(model, samples, IDS_VS_ADS, clips, threads=threads)
        assert opened == [threads, threads]

    def test_convergence_stop_after_patience(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=7)
        config = quick_config(lr=0.0, max_epochs=100)
        history, reason = train(model, split_all_train(samples), IDS_VS_ADS,
                                config, clips)
        assert "converged" in reason
        assert len(history) == 1 + wavecnn.train.CONVERGE_PATIENCE

    def test_non_finite_loss_reports_epoch_and_batch(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=8)
        final_conv = model.param_owners()[-1]
        final_conv.params["bias"][:] = [500.0, -500.0]  # drives p[true] to 0
        with pytest.raises(TrainingError, match=r"epoch 0 batch \d+"):
            train(model, split_all_train(samples), IDS_VS_ADS, quick_config(), clips)

    def test_non_finite_logits_report_epoch_and_batch(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=8)
        model.param_owners()[-1].params["bias"][:] = [np.inf, 0.0]
        with pytest.raises(TrainingError,
                           match=r"^non-finite logits: .* at epoch 0 batch 0$"):
            train(model, split_all_train(samples), IDS_VS_ADS, quick_config(), clips)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_logits_name_the_clip(self, two_tone_corpus, threads):
        samples, clips = two_tone_corpus
        clips = dict(clips)
        clips[samples[3].clip_path] = np.full(8000, np.nan, dtype=np.float32)
        with pytest.raises(TrainingError, match=rf"^non-finite logits: .* for clip "
                                                rf"{samples[3].clip_path} at epoch 0 batch \d+$"):
            train(tiny_model(2), split_all_train(samples), IDS_VS_ADS,
                  quick_config(threads=threads), clips)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflow_in_a_worker_prints_no_warning(self, two_tone_corpus, threads):
        samples, clips = two_tone_corpus
        model = tiny_model(2)
        for p in model.parameter_arrays():
            p *= 1e30
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingError, match=r"for clip .* at epoch 0 batch 0$"):
                train(model, split_all_train(samples), IDS_VS_ADS,
                      quick_config(threads=threads), clips)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_gradient_reports_parameter_epoch_and_batch(self, two_tone_corpus,
                                                                   monkeypatch):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=8)
        backward = model.backward

        def nan_grads(tape, upstream):
            return [np.full_like(g, np.nan) for g in backward(tape, upstream)]

        monkeypatch.setattr(model, "backward", nan_grads)
        first = model.parameter_names()[0]
        with pytest.raises(TrainingError, match=rf"^non-finite gradient in {first} "
                                                r"at epoch 0 batch 0$"):
            train(model, split_all_train(samples), IDS_VS_ADS, quick_config(), clips)

    def test_step_leaving_a_parameter_non_finite_reports_it(self, two_tone_corpus):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=8)
        first = model.parameter_names()[0]
        config = quick_config(lr=1e38, max_epochs=1, batch_size=len(samples))
        with pytest.raises(TrainingError, match=rf"^non-finite values in {first} after "
                                                r"the Adam step at epoch 0 batch 0$"):
            train(model, split_all_train(samples), IDS_VS_ADS, config, clips)

    # 2e38 * w fits float32 but its square, in Adam's second moment, does
    # not; 2e39 * w overflows in the L2 gradient itself
    @pytest.mark.parametrize("lam, cause", [(1e38, "non-finite Adam moments in"),
                                            (1e39, "non-finite gradient in")])
    def test_l2_term_that_overflows_is_refused(self, two_tone_corpus, lam, cause):
        samples, clips = two_tone_corpus
        model = tiny_model(2, seed=8)
        first = model.parameter_names()[0]
        with pytest.raises(TrainingError, match=rf"^{cause} {first} at epoch 0 batch 0$"):
            train(model, split_all_train(samples), IDS_VS_ADS, quick_config(lam=lam), clips)

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


# Minor page faults per sample a train() call may take once the process has
# trained before.  With glibc's default heap settings every call returned the
# freed working set to the kernel and faulted it in again: 336-986 per
# without_inception sample.  Under the heap policy train() sets, most calls
# take 1-8, but a call whose workers interleave into a new heap peak faults
# in the growth, up to 192 per sample in 150 runs.  The gate takes the
# fewest over three calls, since only growth varies and it does not recur.
MAX_FAULTS_PER_SAMPLE = 50


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's mallopt")
@pytest.mark.parametrize("threads", [1, 2])
def test_repeated_train_calls_keep_the_heap_resident(threads):
    script = TRAIN_ONCE + """
import resource, sys
threads = int(sys.argv[1])
train_once(threads)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    samples = train_once(threads)
    faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / samples)
print(min(faults))
"""
    assert float(run_python(script, str(threads))) < MAX_FAULTS_PER_SAMPLE


# After two threads=2 train() calls, glibc's own bookkeeping: the heaps
# malloc_info lists (one per arena; each worker thread would open its own
# without the arena cap) and the mmapped chunks mallinfo2 counts across a
# 24 MiB allocation (mmapped without the raised threshold).
HEAP_LAYOUT = """
import ctypes
import numpy as np

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.argtypes, libc.mallinfo2.restype = (), Mallinfo2
libc.open_memstream.argtypes = (ctypes.POINTER(ctypes.c_void_p),
                                ctypes.POINTER(ctypes.c_size_t))
libc.open_memstream.restype = ctypes.c_void_p
libc.malloc_info.argtypes, libc.malloc_info.restype = (ctypes.c_int, ctypes.c_void_p), ctypes.c_int
libc.fclose.argtypes, libc.fclose.restype = (ctypes.c_void_p,), ctypes.c_int
libc.free.argtypes, libc.free.restype = (ctypes.c_void_p,), None

def heap_count():
    buf, size = ctypes.c_void_p(), ctypes.c_size_t()
    stream = libc.open_memstream(ctypes.byref(buf), ctypes.byref(size))
    libc.malloc_info(0, stream)
    libc.fclose(stream)
    xml = ctypes.string_at(buf.value, size.value).decode()
    libc.free(buf)
    return xml.count("<heap nr=")

train_once(2)
train_once(2)
before = libc.mallinfo2().hblks
block = np.ones(3 << 20)  # 24 MiB of float64
print(heap_count(), libc.mallinfo2().hblks - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or tuple(map(int, platform.libc_ver()[1].split(".")[:2])) < (2, 33),
                    reason="the heap policy is glibc's mallopt; mallinfo2 needs glibc 2.33")
def test_trained_process_has_one_arena_and_mmaps_no_large_block():
    heaps, new_mmapped_chunks = map(int, run_python(TRAIN_ONCE + HEAP_LAYOUT).split())
    assert heaps == 1  # M_ARENA_MAX = 1
    assert new_mmapped_chunks == 0  # M_MMAP_THRESHOLD = 32 MiB


def excluded_clip_corpus():
    """ids_vs_ads samples plus one laugh_cry clip, a label the task leaves out."""
    samples, clips = tone_corpus(2, {"ids": 500.0, "ads": 2500.0, "laugh_cry": 1200.0})
    return samples[:5], clips, samples[4]


def test_train_names_a_sample_the_task_excludes():
    samples, clips, stray = excluded_clip_corpus()
    with pytest.raises(ExcludedSampleError, match=f"{stray.clip_path}: label 'laugh_cry' "
                       "is not part of task ids_vs_ads") as info:
        train(tiny_model(2, seed=0), split_all_train(samples), IDS_VS_ADS,
              quick_config(max_epochs=1), clips)
    assert isinstance(info.value, ValueError)


def test_evaluate_refuses_a_sample_the_task_excludes_before_any_forward():
    samples, clips, stray = excluded_clip_corpus()
    model = tiny_model(2, seed=0)
    forwards = []
    model.forward = lambda *args, **kwargs: forwards.append(args)
    with pytest.raises(ExcludedSampleError, match=stray.clip_path):
        evaluate(model, samples, IDS_VS_ADS, clips)
    assert forwards == []


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
        buckets = evaluate(model, samples, IDS_VS_ADS, clips).by_age
        assert list(buckets) == [9]
        assert buckets[9]["n"] == len(samples)

    def test_empty_buckets_omitted(self):
        model, samples, clips = trained_two_tone(seed=18)
        ages_present = {s.age_months for s in samples}
        buckets = evaluate(model, samples, IDS_VS_ADS, clips).by_age
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



@pytest.mark.parametrize("overrides", [
    {"max_epochs": 0}, {"batch_size": 0}, {"threads": -3}, {"lr": 0.0},
    {"lr": float("inf")}, {"lam": float("nan")}, {"lam": -1e-4}, {"test_fraction": 0.0},
    {"test_fraction": 1.0},
], ids=["epochs-0", "batch-0", "threads-neg", "lr-0", "lr-inf", "lam-nan", "lam-neg",
        "test-fraction-0", "test-fraction-1"])
def test_validate_names_the_setting_out_of_range(overrides):
    from wavecnn.train import ConfigError
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        TrainConfig(**overrides).validate()


def test_validate_accepts_the_defaults():
    TrainConfig().validate()
