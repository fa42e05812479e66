"""Training orchestration and evaluation reporting.

One training step: shuffle into batches, run each sample forward, average
softmax cross-entropy gradients over the batch, add the L2 term, take an Adam
step.  Training stops at ``max_epochs`` or once the relative loss improvement
stays under ``converge_rel`` for ``converge_patience`` consecutive epochs.

Every thread count runs the same code: each :func:`train` or
:func:`evaluate` call maps every sample through one :func:`_runner`, which
owns the heap policy below, a pool of ``threads`` workers and each worker's
numpy error state.  The workers all run on the one model: a cached forward
returns its tape rather than storing it on the layers, and backward returns
the gradients.  The runner yields results in sample order, so gradients are
reduced in that order and results do not depend on the worker count.  No
command holds a runner across calls: a pool opens in under a millisecond.

Heap policy.  The first :func:`train` or :func:`evaluate` call in a process
sets glibc's allocator, through ``mallopt``, for the rest of that process:
blocks up to 32 MiB come from the heap rather than from ``mmap``
(``M_MMAP_THRESHOLD``), freed heap is never returned to the kernel
(``M_TRIM_THRESHOLD`` = -1), and every thread shares one arena
(``M_ARENA_MAX`` = 1).  Each sample frees the buffers of its forward and
backward pass.  With glibc's defaults that memory went back to the kernel
and the next sample faulted it in again, page by page, and each worker
thread kept its own copy of the working set in its own arena.  Under the
policy a process that has trained once takes almost no page faults per
sample and has a lower peak RSS.  The settings are process-wide in glibc, and
restoring the defaults after each call would bring the faults back, so they
stay.  Where ``mallopt`` is missing nothing is set.  Prediction never sets
them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import audio
from .data import HOLDOUT, Sample, Split, TaskSpec, batches, make_split
from .layers import param_slots, softmax_xent
from .model import Model, build_model
from .optim import Adam, l2_penalty
from .tensor import ConfigError, NonFiniteError, WavecnnError


@functools.cache
def _keep_heap_resident() -> None:
    """Set the heap policy of the module docstring, once per process."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # <malloc.h>: M_MMAP_THRESHOLD -3, M_TRIM_THRESHOLD -1, M_ARENA_MAX -8
    for param, value in ((-3, 32 << 20), (-1, -1), (-8, 1)):
        mallopt(param, value)


@contextlib.contextmanager
def _runner(threads: int):
    """Set the heap policy and yield ``each(fn, samples)``, which maps ``fn``
    over ``threads`` workers in sample order.  Overflow warnings are off in
    each call: errstate is per thread, and callers refuse non-finite results."""
    _keep_heap_resident()
    def quiet(fn, sample):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(sample)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield lambda fn, samples: pool.map(functools.partial(quiet, fn), samples)


class TrainingError(WavecnnError, RuntimeError):
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

    def validate(self) -> None:
        """Raise ConfigError naming the first setting out of its range.

        The command line runs this before it writes any file.  :func:`train`
        does not, so a library caller may still train with ``lr=0`` to hold
        the weights fixed.
        """
        for name in ("max_epochs", "batch_size", "threads", "converge_patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("lam", "converge_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.test_fraction < 1:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


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


def train(model: Model, split: Split, task: TaskSpec, config: TrainConfig,
          clips: Mapping[str, np.ndarray], on_epoch=None):
    """Train in place on the waveforms ``clips`` maps each clip path to, as
    :func:`load_clips` reads them; returns (history, stop_reason).

    history holds one dict per epoch: {"epoch", "loss", "train_acc"}, where
    loss is the epoch mean of batch losses including the L2 term.  The
    optional ``on_epoch(epoch, stats)`` callback can return True to stop.
    A non-finite loss, logit, gradient or updated parameter raises
    TrainingError naming the epoch and batch, and the clip or parameter at fault.
    """
    if not split.train:
        raise TrainingError("empty training set")
    params = model.parameter_arrays()
    names = model.parameter_names()
    weight_slots = [i for i, (_, role) in enumerate(param_slots(model.layers)) if role == "weight"]
    weights = [params[i] for i in weight_slots]
    optimizer = Adam(params, lr=config.lr)
    history = []
    stale_epochs = 0
    stop_reason = f"max_epochs {config.max_epochs}"
    prev_loss = None

    def run(sample):  # softmax_xent or Adam.step refuses an overflow
        y = task.class_of(sample)
        logits, tape = model.forward(clips[sample.clip_path], cache=True)
        try:
            loss, probs, dlogits = softmax_xent(logits, y)
        except NonFiniteError as err:
            raise NonFiniteError(f"{err} for clip {sample.clip_path}") from None
        return loss, int(np.argmax(probs) == y), model.backward(tape, dlogits)

    with _runner(config.threads) as each:
        for epoch in range(config.max_epochs):
            epoch_loss = 0.0
            hits = 0
            epoch_batches = batches(split.train, config.batch_size, config.seed, epoch)
            for batch_idx, batch in enumerate(epoch_batches):
                acc = [np.zeros_like(p) for p in params]
                data_loss = 0.0
                try:
                    for loss, hit, grads in each(run, batch):
                        data_loss += loss
                        hits += hit
                        for a, g in zip(acc, grads):
                            a += g
                    data_loss /= len(batch)
                    for a in acc:
                        a /= len(batch)
                    l2_loss, l2_grads = l2_penalty(weights, config.lam)
                    for slot, g in zip(weight_slots, l2_grads):
                        acc[slot] += g
                    batch_loss = data_loss + l2_loss
                    if not np.isfinite(batch_loss):
                        raise NonFiniteError("non-finite loss")
                    optimizer.step(acc, names)
                except NonFiniteError as err:
                    raise TrainingError(f"{err} at epoch {epoch} batch {batch_idx}") from err
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


def evaluate(model: Model, test: list[Sample], task: TaskSpec,
             clips: Mapping[str, np.ndarray], threads: int = 1) -> EvalReport:
    """Accuracy, per-class accuracy, confusion matrix, and per-age breakdown.

    Never mutates the model.  Raises NonFiniteError naming the clip when
    its logits are not finite.
    """
    if not test:
        raise ValueError("empty test set")

    def predict(sample):
        logits = model.forward(clips[sample.clip_path])
        if not np.all(np.isfinite(logits)):
            raise NonFiniteError(f"{sample.clip_path}: non-finite logits {logits}")
        return int(np.argmax(logits))

    with _runner(threads) as each:
        preds = np.array(list(each(predict, test)), dtype=np.int64)
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


@dataclass
class LofoResult:
    reports: dict[str, EvalReport]      # family id -> held-out-family report
    baseline: EvalReport                # random-holdout baseline
    mean_accuracy: float
    min_accuracy: float
    max_accuracy: float
    accuracy_drop: float                # baseline minus mean over families


def lofo_sweep(samples: list[Sample], task: TaskSpec, config: TrainConfig,
               clips: Mapping[str, np.ndarray], on_epoch=None,
               model_factory=None) -> LofoResult:
    """Train once per held-out family plus one random-holdout baseline.

    ``model_factory()`` supplies fresh untrained models; by default the
    configured architecture variant is built with the configured seed.
    """
    kept = task.filter(samples)
    families = sorted({s.family_id for s in kept})
    if len(families) < 2:
        raise ValueError(f"leave-one-family-out needs >= 2 families, "
                         f"got {families}")

    reports = {}
    for family in [*families, None]:  # None: the random-holdout baseline, run last
        split = make_split(samples, task, seed=config.seed,
                           policy=HOLDOUT if family is None else f"lofo:{family}",
                           test_fraction=config.test_fraction)
        model = (model_factory() if model_factory is not None else
                 build_model(config.variant, task.num_classes, seed=config.seed,
                             dense_head=config.dense_head))
        train(model, split, task, config, clips, on_epoch)
        reports[family] = evaluate(model, split.test, task, clips,
                                   threads=config.threads)
    baseline = reports.pop(None)
    accs = [r.overall_accuracy for r in reports.values()]
    return LofoResult(reports, baseline, float(np.mean(accs)), min(accs),
                      max(accs), baseline.overall_accuracy - float(np.mean(accs)))
