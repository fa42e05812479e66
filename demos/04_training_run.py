#!/usr/bin/env python3
"""Train the plain architecture on a small synthetic task, end to end.

Generates 60 clips in two tone classes, ingests them through the WAV ->
resample -> standardize pipeline, trains for a few epochs, and prints the
evaluation report including the per-age breakdown and the leave-one-family-out
comparison against the random-holdout baseline.

Runtime: a couple of minutes on one CPU core.
"""

import tempfile

from wavecnn.data import get_task, make_split, parse_manifest
from wavecnn.model import build_model
from wavecnn.synth import SynthSpec, generate
from wavecnn.train import TrainConfig, evaluate, load_clips, lofo_sweep, train

# load_clips keeps no waveform: every use of a clip reads its file, so the
# corpus must outlive the training, evaluation and sweep below
with tempfile.TemporaryDirectory(prefix="wavecnn_train_") as out:
    manifest = generate(SynthSpec(num_classes=2, clips_per_class=30, families=3,
                                  noise_floor=0.08, seed=1), out)
    samples = parse_manifest(manifest)
    clips = load_clips(samples)

    task = get_task("vocal_vs_nonvocal")  # the two synthetic labels split across its classes
    split = make_split(samples, task, seed=0, test_fraction=0.2)
    print(f"{len(split.train)} train / {len(split.test)} test clips")

    config = TrainConfig(task=task.name, variant="without_inception", batch_size=8,
                         max_epochs=12, seed=0, lr=1e-3, lam=1e-4)
    model = build_model(config.variant, task.num_classes, seed=config.seed)
    history, reason = train(model, split, task, config, clips,
                            on_epoch=lambda e, s: print(
                                f"  epoch {e}: loss {s['loss']:.4f} "
                                f"train acc {s['train_acc']:.1f}%") or False)
    print(f"stopped: {reason}")

    report = evaluate(model, split.test, task, clips)
    print(f"\ntest accuracy: {report.overall_accuracy:.2f}% "
          f"(chance {report.chance_percent:.2f}%)")
    print(f"confusion: {report.confusion}")
    for age, bucket in sorted(report.by_age.items()):
        print(f"  {age:>2d} months: n={bucket['n']:<3d} acc={bucket['accuracy']:.2f}%")

    print("\nleave-one-family-out sweep (fresh model per held-out family):")
    result = lofo_sweep(samples, task,
                        TrainConfig(task=task.name, variant=config.variant,
                                    batch_size=8, max_epochs=8, seed=0, lr=1e-3),
                        clips)
    for family, rep in sorted(result.reports.items()):
        print(f"  held out {family}: acc {rep.overall_accuracy:.2f}% on {rep.num_test} clips")
    print(f"  holdout baseline {result.baseline.overall_accuracy:.2f}%, "
          f"mean drop {result.accuracy_drop:+.2f} points")
