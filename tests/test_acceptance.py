"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Criteria are checked at their stated tolerances; the
synthetic end-to-end run is the long pole (a few minutes on one CPU core)."""

import time

import numpy as np
import pytest

from test_model import analytic_shapes, symbolic_param_count, \
    with_inception_table, without_inception_table
from wavecnn.audio import standardize_samples
from wavecnn.cli import EXIT_OK, main
from wavecnn.data import (EXCLUDED, AGES_MONTHS, RAW_LABELS, Sample, TaskSpec,
                          batches, builtin_tasks, get_task, make_split,
                          parse_manifest)
from wavecnn.gradcheck import TOLERANCE, run_full_check
from wavecnn.layers import softmax_xent
from wavecnn.model import build_model
from wavecnn.optim import Adam
from wavecnn.synth import SynthSpec, generate
from wavecnn.train import TrainConfig, evaluate, load_clips, train


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    """20-clip prepared corpus shared by the cheap criteria."""
    corpus = tmp_path_factory.mktemp("accept_corpus")
    manifest = generate(SynthSpec(num_classes=2, clips_per_class=10, families=2,
                                  noise_floor=0.05, seed=8), corpus)
    cache = tmp_path_factory.mktemp("accept_cache")
    assert main(["prepare", "--manifest", str(manifest), "--out", str(cache)]) == EXIT_OK
    return cache


def test_parameter_count_fidelity():
    elapsed = 0.0
    for variant, table, target in [
            ("with_inception", with_inception_table, 302_000),
            ("without_inception", without_inception_table, 540_000)]:
        start = time.perf_counter()
        count = build_model(variant, 10).param_count()
        elapsed += time.perf_counter() - start
        oracle = symbolic_param_count(table(10))
        assert count == oracle, (count, oracle)
        assert abs(count - target) / target < 0.02
    report("parameter-count fidelity",
           elapsed < 1.0, f"exact 299690/537720, within 2% of 302K/540K, "
           f"{elapsed:.2f} s")


def test_gradient_correctness():
    start = time.perf_counter()
    results = run_full_check(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(results.values())
    assert "end_to_end" in results
    report("gradient correctness (central differences, 64-bit, step 1e-5)",
           worst < TOLERANCE and elapsed < 120.0,
           f"worst rel err {worst:.2e} across {len(results)} checks, {elapsed:.1f} s")


def test_shape_propagation_both_variants():
    for variant in ("with_inception", "without_inception"):
        model = build_model(variant, 10)
        expected = analytic_shapes(model.config.layers, (1, 8000))
        got = [shape for _, shape in model.trace_shapes()[1:]]
        assert got == expected, variant
        assert got[-1] == (10,)
    report("shape propagation matches the analytic formula on both variants", True)


def test_overfit_one_batch(tmp_path):
    manifest = generate(SynthSpec(num_classes=2, clips_per_class=1, families=1,
                                  noise_floor=0.05, seed=9), tmp_path)
    samples = parse_manifest(manifest)
    assert len(samples) == 2
    task = get_task("vocal_vs_nonvocal")  # the two generated labels hit distinct classes
    from wavecnn.data import Split
    split = Split(train=samples, test=samples, policy="holdout")
    model = build_model("without_inception", 2, seed=0)
    config = TrainConfig(task=task.name, variant="without_inception", batch_size=2,
                         max_epochs=200, seed=0, lam=0.0, lr=1e-3)
    history, _ = train(model, split, task, config, load_clips(samples),
                       on_epoch=lambda e, s: s["loss"] < 0.01)
    final = history[-1]["loss"]
    report("overfit-one-batch sanity", final < 0.01 and len(history) <= 200,
           f"loss {final:.5f} after {len(history)} epochs")


def test_determinism_bitwise(small_cache, tmp_path):
    outputs = []
    for run in ("a", "b"):
        run_dir = tmp_path / run
        rc = main(["train", "--manifest", str(small_cache / "manifest.csv"),
                   "--task", "vocal_vs_nonvocal", "--variant", "without_inception",
                   "--seed", "7", "--epochs", "2", "--batch", "4", "--threads", "1",
                   "--out", str(run_dir)])
        assert rc == EXIT_OK
        outputs.append({name: (run_dir / name).read_bytes()
                        for name in ("run_log.jsonl", "weights.bin", "report.json")})
    same = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    report("determinism: identical seed/config -> bitwise-identical logs and weights",
           same)


def test_split_hygiene_properties():
    rng = np.random.default_rng(0)
    task = get_task("five_class")
    for trial in range(60):
        families = [f"F{i:02d}" for i in range(int(rng.integers(2, 7)))]
        samples = [Sample(f"c{i}.f32", RAW_LABELS[int(rng.integers(5))],
                          int(AGES_MONTHS[int(rng.integers(4))]),
                          families[int(rng.integers(len(families)))])
                   for i in range(int(rng.integers(8, 90)))]
        present = sorted({s.family_id for s in samples})
        family = present[int(rng.integers(len(present)))]
        split = make_split(samples, task, policy=f"lofo:{family}",
                           seed=int(rng.integers(10_000)))
        assert not {s.family_id for s in split.train} & \
            {s.family_id for s in split.test}
        size = int(rng.integers(1, 30))
        flat = [s for b in batches(samples, size, seed=trial, epoch=trial) for s in b]
        assert sorted(s.clip_path for s in flat) == sorted(s.clip_path for s in samples)
    report("split hygiene: no family leakage; epoch batches are exact permutations",
           True, "60 randomized manifests")


def test_numeric_invariants(small_cache):
    rng = np.random.default_rng(1)
    for _ in range(100):
        logits = rng.standard_normal(int(rng.integers(2, 9))) * 20
        _, probs, _ = softmax_xent(logits, 0)
        assert abs(probs.sum() - 1.0) < 1e-6
        _, shifted, _ = softmax_xent(logits + 57.0, 0)
        assert np.abs(probs - shifted).max() < 1e-6

    for _ in range(20):
        clip = rng.standard_normal(8000).astype(np.float32) * 0.2 + 0.4
        assert abs(standardize_samples(clip).mean(dtype=np.float64)) < 1e-5

    param = rng.standard_normal(257).astype(np.float32)
    before = param.tobytes()
    opt = Adam([param])
    for _ in range(12):
        opt.step([np.zeros_like(param)])
    assert param.tobytes() == before

    samples = parse_manifest(small_cache / "manifest.csv")
    task = get_task("vocal_vs_nonvocal")
    model = build_model("without_inception", 2, seed=3)
    state = model.state_bytes()
    evaluate(model, samples, task, load_clips(samples))
    assert model.state_bytes() == state
    report("numeric invariants: softmax, standardization, Adam at rest, "
           "read-only evaluation", True)


def test_task_taxonomy():
    tasks = builtin_tasks()
    chances = [f"{t.chance_percent:.2f}" for t in tasks]
    ok = (len(tasks) == 7 and
          chances == ["50.00", "50.00", "50.00", "50.00", "33.33", "25.00", "20.00"])
    report("task taxonomy: seven comparisons with printed chance "
           "50.00/50.00/50.00/50.00/33.33/25.00/20.00", ok, ", ".join(chances))


@pytest.mark.slow
def test_synthetic_end_to_end(tmp_path):
    """600-clip 3-class corpus: >= 95% held-out accuracy within 50 epochs,
    under 10 minutes; a constant predictor stays at the 33.33% chance line."""
    corpus = tmp_path / "corpus"
    manifest = generate(SynthSpec(num_classes=3, clips_per_class=200, families=4,
                                  noise_floor=0.1, seed=11), corpus)
    samples = parse_manifest(manifest)
    assert len(samples) == 600
    task = TaskSpec("three_tone", ("laugh_cry", "canonical", "non_canonical"),
                    {"laugh_cry": 0, "canonical": 1, "non_canonical": 2,
                     "ids": EXCLUDED, "ads": EXCLUDED})
    assert f"{task.chance_percent:.2f}" == "33.33"
    split = make_split(samples, task, seed=0, test_fraction=0.2)

    start = time.perf_counter()
    clips = load_clips(samples)
    model = build_model("with_inception", task.num_classes, seed=0)

    constant = build_model("with_inception", task.num_classes, seed=0)
    head = constant.param_owners()[-1]
    head.params["weight"][:] = 0.0
    head.params["bias"][:] = 0.0
    baseline = evaluate(constant, split.test, task, clips)
    class0_share = 100.0 * sum(task.class_of(s) == 0 for s in split.test) / len(split.test)
    assert baseline.overall_accuracy == pytest.approx(class0_share)
    assert baseline.overall_accuracy == pytest.approx(33.33, abs=1.0)

    config = TrainConfig(task=task.name, variant="with_inception", batch_size=8,
                         max_epochs=50, seed=0, lr=2e-3, lam=1e-4)
    best = {"acc": 0.0}

    def on_epoch(epoch, stats):
        acc = evaluate(model, split.test, task, clips).overall_accuracy
        best["acc"] = max(best["acc"], acc)
        print(f"  epoch {epoch}: loss {stats['loss']:.4f} "
              f"test acc {acc:.2f}%", flush=True)
        return acc >= 95.0

    history, _ = train(model, split, task, config, clips, on_epoch)
    elapsed = time.perf_counter() - start
    report("synthetic end-to-end: with_inception >= 95% held-out within "
           "50 epochs, < 10 min",
           best["acc"] >= 95.0 and len(history) <= 50 and elapsed < 600.0,
           f"acc {best['acc']:.2f}% after {len(history)} epoch(s), {elapsed:.0f} s; "
           f"constant predictor {baseline.overall_accuracy:.2f}% = chance")
