"""Training orchestration and evaluation reporting.

One training step: shuffle into batches, run each sample forward, average
softmax cross-entropy gradients over the batch, add the L2 term, take an Adam
step.  Training stops at ``max_epochs`` or once the relative loss improvement
stays under ``converge_rel`` for ``converge_patience`` consecutive epochs.

``threads > 1`` fans per-sample forward/backward work across model replicas
that share parameter storage, because each layer caches its training forward
for its backward; gradients are still reduced in sample order, so results do
not depend on the worker count.  Evaluation needs no replicas: its threads
share the one model, since ``forward(cache=False)`` writes no layer state.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from queue import SimpleQueue

import numpy as np

from . import audio
from .data import HOLDOUT, Sample, Split, TaskSpec, batches, make_split
from .layers import softmax_xent
from .model import Model, build_model
from .optim import Adam, l2_penalty


class TrainingError(RuntimeError):
    """Training aborted; the message carries the epoch/batch position."""


@dataclass
class TrainConfig:
    task: str = "infant_vs_adult"
    variant: str = "with_inception"
    batch_size: int = 128
    max_epochs: int = 300
    seed: int = 0
    lam: float = 0.0001           # L2 coefficient
    lr: float = 0.001             # Adam step size
    split: str = HOLDOUT          # "holdout" or "lofo:<family_id>"
    test_fraction: float = 0.2
    threads: int = 1
    dense_head: bool = False
    converge_rel: float = 1e-4
    converge_patience: int = 10


@dataclass
class EvalReport:
    task: str
    variant: str
    overall_accuracy: float                  # percent
    chance_percent: float
    num_test: int
    class_names: tuple[str, ...]
    per_class_accuracy: list[float | None]   # None when a class has no test clips
    confusion: list[list[int]]               # rows: true class, cols: predicted
    by_age: dict[int, dict] = field(default_factory=dict)  # age -> {"n", "accuracy"}

    def to_json(self) -> str:
        payload = {
            "task": self.task,
            "variant": self.variant,
            "overall_accuracy": round(self.overall_accuracy, 4),
            "chance_percent": round(self.chance_percent, 2),
            "num_test": self.num_test,
            "class_names": list(self.class_names),
            "per_class_accuracy": [None if a is None else round(a, 4)
                                   for a in self.per_class_accuracy],
            "confusion": self.confusion,
            "by_age": {str(age): {"n": b["n"], "accuracy": round(b["accuracy"], 4)}
                       for age, b in sorted(self.by_age.items())},
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        lines = ["task,variant,overall_acc,chance,age,n,acc"]
        common = (f"{self.task},{self.variant},{self.overall_accuracy:.2f},"
                  f"{self.chance_percent:.2f}")
        lines.append(f"{common},all,{self.num_test},{self.overall_accuracy:.2f}")
        for age, bucket in sorted(self.by_age.items()):
            lines.append(f"{common},{age},{bucket['n']},{bucket['accuracy']:.2f}")
        return "\n".join(lines) + "\n"


def load_clips(samples: list[Sample]) -> dict[str, np.ndarray]:
    """Preload standardized waveforms for every referenced clip path."""
    return {s.clip_path: audio.load_clip(s.clip_path) for s in samples}


def _forward_losses(model: Model, jobs, threads: int):
    """Run (x, y) jobs forward+backward; yield (loss, hit, grads) in order."""
    def run_on(replica, job):
        x, y = job
        logits = replica.forward(x, cache=True)
        loss, probs, dlogits = softmax_xent(logits, y)
        grads = replica.backward(dlogits)
        return loss, int(np.argmax(probs) == y), grads

    if threads <= 1:
        yield from (run_on(model, job) for job in jobs)
        return
    # each task leases a replica for its duration; replica count == worker
    # count, so no task ever waits on the queue
    idle: SimpleQueue = SimpleQueue()
    idle.put(model)
    for _ in range(threads - 1):
        idle.put(model.replicate())

    def leased(job):
        replica = idle.get()
        try:
            return run_on(replica, job)
        finally:
            idle.put(replica)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        # executor.map keeps result order == submission order, so the
        # gradient reduction below is ordered no matter the worker count
        yield from pool.map(leased, jobs)


def train(model: Model, split: Split, task: TaskSpec, config: TrainConfig,
          clips: dict[str, np.ndarray] | None = None, on_epoch=None):
    """Train in place; returns (history, stop_reason).

    history holds one dict per epoch: {"epoch", "loss", "train_acc"}, where
    loss is the epoch mean of batch losses including the L2 term.  The
    optional ``on_epoch(epoch, stats)`` callback can return True to stop.
    """
    if not split.train:
        raise TrainingError("empty training set")
    if clips is None:
        clips = load_clips(split.train)
    params = model.parameter_arrays()
    names = model.parameter_names()
    weight_slots = [i for i, name in enumerate(names) if name.endswith(".weight")]
    optimizer = Adam(params, lr=config.lr)
    history = []
    stale_epochs = 0
    stop_reason = f"max_epochs {config.max_epochs}"
    prev_loss = None
    for epoch in range(config.max_epochs):
        epoch_loss = 0.0
        hits = 0
        epoch_batches = batches(split.train, config.batch_size, config.seed, epoch)
        for batch_idx, batch in enumerate(epoch_batches):
            acc = [np.zeros_like(p) for p in params]
            data_loss = 0.0
            jobs = [(clips[s.clip_path], task.class_of(s)) for s in batch]
            for loss, hit, grads in _forward_losses(model, jobs, config.threads):
                data_loss += loss
                hits += hit
                for a, g in zip(acc, grads):
                    a += g
            data_loss /= len(batch)
            for a in acc:
                a /= len(batch)
            l2_loss, l2_grads = l2_penalty([params[i] for i in weight_slots], config.lam)
            for slot, g in zip(weight_slots, l2_grads):
                acc[slot] += g
            batch_loss = data_loss + l2_loss
            if not np.isfinite(batch_loss):
                raise TrainingError(f"non-finite loss at epoch {epoch} "
                                    f"batch {batch_idx}")
            optimizer.step(acc, names)
            epoch_loss += batch_loss
        epoch_loss /= len(epoch_batches)
        train_acc = 100.0 * hits / len(split.train)
        stats = {"epoch": epoch, "loss": epoch_loss, "train_acc": train_acc}
        history.append(stats)
        if on_epoch is not None and on_epoch(epoch, stats):
            stop_reason = f"callback at epoch {epoch}"
            break
        if prev_loss is not None:
            improved = (prev_loss - epoch_loss) / max(abs(prev_loss), 1e-12)
            stale_epochs = stale_epochs + 1 if improved < config.converge_rel else 0
            if stale_epochs >= config.converge_patience:
                stop_reason = f"converged at epoch {epoch}"
                break
        prev_loss = epoch_loss
    return history, stop_reason


def mean_loss(model: Model, samples: list[Sample], task: TaskSpec, lam: float,
              clips: dict[str, np.ndarray] | None = None) -> float:
    """Mean data loss plus the L2 term, without touching any parameter."""
    if clips is None:
        clips = load_clips(samples)
    total = 0.0
    for s in samples:
        logits = model.forward(clips[s.clip_path])
        loss, _, _ = softmax_xent(logits, task.class_of(s))
        total += loss
    l2_loss, _ = l2_penalty(model.weight_arrays(), lam)
    return total / len(samples) + l2_loss


def predict_classes(model: Model, samples: list[Sample],
                    clips: dict[str, np.ndarray] | None = None,
                    threads: int = 1) -> np.ndarray:
    """Argmax class index per sample; never mutates the model.

    Raises FloatingPointError naming the clip when its logits are not finite.
    """
    if clips is None:
        clips = load_clips(samples)

    def predict(sample):
        logits = model.forward(clips[sample.clip_path])
        if not np.all(np.isfinite(logits)):
            raise FloatingPointError(f"{sample.clip_path}: non-finite logits {logits}")
        return int(np.argmax(logits))

    if threads <= 1:
        return np.array([predict(s) for s in samples], dtype=np.int64)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.array(list(pool.map(predict, samples)), dtype=np.int64)


def evaluate(model: Model, test: list[Sample], task: TaskSpec,
             clips: dict[str, np.ndarray] | None = None,
             threads: int = 1) -> EvalReport:
    """Accuracy, per-class accuracy, confusion matrix, and per-age breakdown."""
    if not test:
        raise ValueError("empty test set")
    preds = predict_classes(model, test, clips, threads)
    truth = np.array([task.class_of(s) for s in test], dtype=np.int64)
    k = task.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(truth, preds):
        confusion[t, p] += 1
    per_class = []
    for cls in range(k):
        n_cls = int(confusion[cls].sum())
        per_class.append(None if n_cls == 0
                         else 100.0 * confusion[cls, cls] / n_cls)
    overall = 100.0 * float(np.trace(confusion)) / len(test)
    by_age = {}
    for age in sorted({s.age_months for s in test}):
        idx = [i for i, s in enumerate(test) if s.age_months == age]
        acc = 100.0 * float(np.mean(preds[idx] == truth[idx]))
        by_age[age] = {"n": len(idx), "accuracy": acc}
    return EvalReport(task.name, model.config.variant, overall,
                      task.chance_percent, len(test), task.class_names,
                      per_class, confusion.tolist(), by_age)


def evaluate_by_age(model: Model, test: list[Sample], task: TaskSpec,
                    clips: dict[str, np.ndarray] | None = None) -> dict[int, dict]:
    """Age -> {"n", "accuracy"} over the test set; empty buckets omitted."""
    return evaluate(model, test, task, clips).by_age


@dataclass
class LofoResult:
    reports: dict[str, EvalReport]      # family id -> held-out-family report
    baseline: EvalReport                # random-holdout baseline
    mean_accuracy: float
    min_accuracy: float
    max_accuracy: float
    accuracy_drop: float                # baseline minus mean over families


def lofo_sweep(samples: list[Sample], task: TaskSpec, config: TrainConfig,
               clips: dict[str, np.ndarray] | None = None,
               on_epoch=None, model_factory=None) -> LofoResult:
    """Train once per held-out family plus one random-holdout baseline.

    ``model_factory()`` supplies fresh untrained models; by default the
    configured architecture variant is built with the configured seed.
    """
    kept = task.filter(samples)
    families = sorted({s.family_id for s in kept})
    if len(families) < 2:
        raise ValueError(f"leave-one-family-out needs >= 2 families, "
                         f"got {families}")
    if clips is None:
        clips = load_clips(kept)

    def fresh_model():
        if model_factory is not None:
            return model_factory()
        return build_model(config.variant, task.num_classes, seed=config.seed,
                           dense_head=config.dense_head)

    reports = {}
    for family in families:
        split = make_split(samples, task, policy=f"lofo:{family}",
                           seed=config.seed)
        model = fresh_model()
        train(model, split, task, config, clips, on_epoch)
        reports[family] = evaluate(model, split.test, task, clips,
                                   threads=config.threads)
    baseline_split = make_split(samples, task, policy=HOLDOUT, seed=config.seed,
                                test_fraction=config.test_fraction)
    baseline_model = fresh_model()
    train(baseline_model, baseline_split, task, config, clips, on_epoch)
    baseline = evaluate(baseline_model, baseline_split.test, task, clips,
                        threads=config.threads)
    accs = [r.overall_accuracy for r in reports.values()]
    return LofoResult(reports, baseline, float(np.mean(accs)), min(accs),
                      max(accs), baseline.overall_accuracy - float(np.mean(accs)))
