"""Manifests, classification tasks, splits, and deterministic batching.

A manifest is a UTF-8 CSV with the exact header
``clip_path,raw_label,age_months,family_id`` and one row per 1-second clip.
Fields are never quoted, so paths must not contain commas.  A clip path is
joined onto the manifest's directory (an absolute one replaces it), and that
join is the sample's path.  Two rows that reach one file, by whatever
spelling, ``..`` or symbolic link, are a duplicate.

The five raw labels describe who vocalized and how; a :class:`TaskSpec` maps
them onto task classes (or excludes them).  ``builtin_tasks`` provides the
seven standard comparisons, from the two-class infant-vs-adult contrast up
to the five-way full-label task.
"""

from __future__ import annotations

import codecs
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import ConfigError, WavecnnError

RAW_LABELS = ("laugh_cry", "canonical", "non_canonical", "ids", "ads")
AGES_MONTHS = (3, 6, 9, 18)

EXCLUDED = None  # mapping value for raw labels a task leaves out


class ManifestError(WavecnnError, ValueError):
    """Malformed manifest content, named as ``<file>:<line>: <cause>``."""


class UnknownTaskError(ConfigError, KeyError):
    """No builtin task has the requested name."""


class ExcludedSampleError(WavecnnError, ValueError):
    """A sample whose raw label the task leaves out was asked for its class."""


@dataclass(frozen=True)
class Sample:
    clip_path: str
    raw_label: str
    age_months: int
    family_id: str


@dataclass(frozen=True)
class TaskSpec:
    """One classification task: an ordered class list plus the label mapping."""

    name: str
    class_names: tuple[str, ...]
    mapping: dict  # raw_label -> class index, or EXCLUDED

    def __post_init__(self):
        if len(self.class_names) < 2:
            raise ValueError(f"task {self.name}: needs >= 2 classes")
        missing = set(RAW_LABELS) - set(self.mapping)
        if missing:
            raise ValueError(f"task {self.name}: unmapped raw labels {sorted(missing)}")
        used = {v for v in self.mapping.values() if v is not EXCLUDED}
        if not used <= set(range(len(self.class_names))):
            raise ValueError(f"task {self.name}: mapping indexes outside class list")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def chance_percent(self) -> float:
        return 100.0 / self.num_classes

    def class_of(self, sample: Sample) -> int:
        cls = self.mapping[sample.raw_label]
        if cls is EXCLUDED:
            raise ExcludedSampleError(f"clip {sample.clip_path}: label {sample.raw_label!r} "
                                      f"is not part of task {self.name}")
        return cls

    def filter(self, samples) -> list[Sample]:
        """Samples whose raw label participates in this task."""
        return [s for s in samples if self.mapping[s.raw_label] is not EXCLUDED]


def builtin_tasks() -> list[TaskSpec]:
    """The seven standard comparisons over the five raw labels."""
    infant = {"laugh_cry": 0, "canonical": 0, "non_canonical": 0}
    return [
        TaskSpec("infant_vs_adult", ("infant", "adult"),
                 {**infant, "ids": 1, "ads": 1}),
        TaskSpec("vocal_vs_nonvocal", ("vocalization", "non_vocalization"),
                 {"canonical": 0, "non_canonical": 0, "laugh_cry": 1,
                  "ids": EXCLUDED, "ads": EXCLUDED}),
        TaskSpec("canonical_vs_noncanonical", ("canonical", "non_canonical"),
                 {"canonical": 0, "non_canonical": 1, "laugh_cry": EXCLUDED,
                  "ids": EXCLUDED, "ads": EXCLUDED}),
        TaskSpec("ids_vs_ads", ("ids", "ads"),
                 {"ids": 0, "ads": 1, "laugh_cry": EXCLUDED,
                  "canonical": EXCLUDED, "non_canonical": EXCLUDED}),
        TaskSpec("three_class", ("laugh_cry", "babbling", "adult"),
                 {"laugh_cry": 0, "canonical": 1, "non_canonical": 1,
                  "ids": 2, "ads": 2}),
        TaskSpec("four_class", ("laugh_cry", "canonical", "non_canonical", "adult"),
                 {"laugh_cry": 0, "canonical": 1, "non_canonical": 2,
                  "ids": 3, "ads": 3}),
        TaskSpec("five_class", RAW_LABELS,
                 {label: i for i, label in enumerate(RAW_LABELS)}),
    ]


def get_task(name: str) -> TaskSpec:
    for task in builtin_tasks():
        if task.name == name:
            return task
    known = ", ".join(t.name for t in builtin_tasks())
    raise UnknownTaskError(f"unknown task {name!r}; known tasks: {known}")


MANIFEST_HEADER = "clip_path,raw_label,age_months,family_id"
_LINE_END = re.compile(r"\r\n|\r|\n")  # the one line rule: universal newlines


def read_utf8_lines(path, error=ManifestError) -> list[tuple[int, str]]:
    """``(line number, stripped text)`` of each non-blank line of a UTF-8 text
    file, less a leading byte-order mark; an undecodable byte raises ``error``
    as ``<file>:<line>: not UTF-8``.  Both follow the one line rule, ``_LINE_END``."""
    # the mark goes here, not through utf-8-sig, whose error offsets would not index raw
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = len(_LINE_END.split(raw[:err.start].decode("utf-8")))
        raise error(f"{path}:{lineno}: not UTF-8: {err}") from None
    numbered = enumerate(map(str.strip, _LINE_END.split(text)), start=1)
    return [(lineno, line) for lineno, line in numbered if line]


def parse_manifest(path) -> list[Sample]:
    """Read and validate a manifest; two rows that reach one file are rejected."""
    path = Path(path)
    lines = read_utf8_lines(path)
    if not lines or lines[0] != (1, MANIFEST_HEADER):
        raise ManifestError(f"{path}:1: first line must be '{MANIFEST_HEADER}'")
    samples = []
    seen = set()
    for lineno, line in lines[1:]:
        where = f"{path}:{lineno}"
        parts = line.split(",")
        if len(parts) != 4:
            raise ManifestError(f"{where}: expected 4 fields, got {len(parts)}")
        clip_path, raw_label, age_text, family_id = (p.strip() for p in parts)
        if raw_label not in RAW_LABELS:
            raise ManifestError(f"{where}: unknown raw_label {raw_label!r}")
        try:
            age = int(age_text)
        except ValueError:
            raise ManifestError(f"{where}: bad age_months {age_text!r}")
        if age not in AGES_MONTHS:
            raise ManifestError(f"{where}: unknown age_months {age}; "
                                f"expected one of {AGES_MONTHS}")
        if not family_id:
            raise ManifestError(f"{where}: empty family_id")
        if "\0" in clip_path:  # no system call takes such a path
            raise ManifestError(f"{where}: NUL byte in clip_path")
        joined = path.parent / clip_path  # its spelling names the clip's cache files
        target = os.path.realpath(joined)  # not Path.resolve, which raises on a link loop
        if target in seen:
            raise ManifestError(f"{where}: duplicate clip_path {clip_path!r}")
        seen.add(target)
        samples.append(Sample(str(joined), raw_label, age, family_id))
    return samples


def write_manifest(path, rows) -> None:
    """Write manifest rows of (clip_path, raw_label, age_months, family_id)."""
    lines = [MANIFEST_HEADER]
    lines += [f"{p},{label},{age},{family}" for p, label, age, family in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- splits --------------------------------------------------------------------

HOLDOUT = "holdout"
LOFO_PREFIX = "lofo:"


@dataclass(frozen=True)
class Split:
    train: list[Sample]
    test: list[Sample]
    policy: str


def make_split(samples, task: TaskSpec, policy: str = HOLDOUT, seed: int = 0,
               test_fraction: float = 0.2) -> Split:
    """Build a train/test split over the task's participating samples.

    ``holdout``: per-class shuffled split, stratified so every task class
    contributes ~test_fraction of its clips.  ``lofo:<family_id>``: the named
    family becomes the whole test set.
    """
    kept = task.filter(samples)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if policy == HOLDOUT:
        if not 0.0 < test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        train, test = [], []
        for cls in range(task.num_classes):
            members = [s for s in kept if task.class_of(s) == cls]
            order = rng.permutation(len(members))
            n_test = int(round(len(members) * test_fraction))
            chosen = set(order[:n_test].tolist())
            for i, s in enumerate(members):
                (test if i in chosen else train).append(s)
        return Split(train, test, policy)
    if policy.startswith(LOFO_PREFIX):
        family = policy[len(LOFO_PREFIX):]
        families = {s.family_id for s in kept}
        if family not in families:
            raise ConfigError(f"family {family!r} not present; families: "
                              f"{sorted(families)}")
        test = [s for s in kept if s.family_id == family]
        train = [s for s in kept if s.family_id != family]
        return Split(train, test, policy)
    raise ConfigError(f"unknown split policy {policy!r}; use '{HOLDOUT}' or "
                      f"'{LOFO_PREFIX}<family_id>'")


def batches(samples, batch_size: int, seed: int, epoch: int) -> list[list[Sample]]:
    """Shuffle deterministically from (seed, epoch) and chunk; the final
    partial batch is kept."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if seed < 0 or epoch < 0:
        raise ValueError(f"seed and epoch must be non-negative, got {seed}, {epoch}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch]))
    order = rng.permutation(len(samples))
    shuffled = [samples[i] for i in order]
    return [shuffled[i:i + batch_size] for i in range(0, len(shuffled), batch_size)]
