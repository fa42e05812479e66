"""Command-line entry point tying the pipeline into reproducible runs.

Commands: prepare, train, eval, predict, params, gradcheck, synth.

Runs are reproducible: training settings come from an optional key=value
config file overridden by flags, and every train/eval run writes its fully
resolved configuration next to its outputs.  Exit codes: 0 success, 1 partial
data failure, 2 usage, configuration or input error, 3 internal error.  Exit 2
covers exactly the package's typed errors (``tensor.WavecnnError``),
``OSError`` and ``MemoryError`` (a request larger than the machine), printed
as one ``error:`` line; any other exception is a bug, and its traceback is
printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import audio, synth
from .data import (TaskSpec, get_task, make_split, parse_manifest,
                   read_utf8_lines, write_manifest)
from .gradcheck import TOLERANCE, run_full_check
from .layers import softmax
from .model import VARIANTS, build_model, load_weights, save_weights
from .tensor import ConfigError, NonFiniteError, WavecnnError
from .train import TrainConfig, evaluate, load_clips, train

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_SETTING_TYPES = get_type_hints(TrainConfig)  # the one type table for settings
_CONFIG_KEYS = set(_SETTING_TYPES) | {"manifest", "out"}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _typed(key: str, text: str, where: str):
    """Convert a setting's text to its TrainConfig field type."""
    kind = _SETTING_TYPES.get(key, str)
    try:
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: bad value for {key}: {text!r}") from None


def read_config_file(path) -> dict:
    """Parse key=value lines into typed values; a line whose first non-blank
    character is '#' is a comment, so a value may hold '#'; unknown keys are
    errors."""
    values = {}
    for lineno, text in read_utf8_lines(path, ConfigError):
        if text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _typed(key, value, f"{path}:{lineno}")
    return values


def resolve_train_config(args) -> tuple[TrainConfig, dict]:
    """Merge the settings, later sources winning: TrainConfig's defaults,
    the --config file, the flags.  Returns the config, not yet validated,
    and the ``manifest``/``out`` paths."""
    values = read_config_file(args.config) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in _CONFIG_KEYS and value is not None)
    paths = {key: values.pop(key) for key in ("manifest", "out") if key in values}
    return TrainConfig(**values), paths


def _require_manifest(path) -> Path:
    if path is None:
        raise ConfigError("--manifest is required")
    manifest = Path(path)
    if not manifest.exists():
        raise ConfigError(f"manifest not found: {manifest}")
    return manifest


def _run_dir(out, config: TrainConfig) -> Path:
    """``out``, which a re-run may reuse, or a new timestamped directory under
    ``runs/``: one that exists holds an earlier run, so mkdir refuses it."""
    if out:
        run = Path(out)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run = Path("runs") / f"{stamp}_{config.task}_{config.variant}"
    run.mkdir(parents=True, exist_ok=bool(out))
    return run


def _write_resolved(run_dir: Path, config: TrainConfig, manifest: Path,
                    weights=None) -> None:
    """Write every setting and the manifest's absolute path as a file ``--config``
    reads back, and that of ``weights``, if given, as a '#' line it skips."""
    lines = [f"{f.name}={getattr(config, f.name)}" for f in fields(TrainConfig)]
    lines.append(f"manifest={manifest.resolve()}")
    lines += [f"# weights={Path(weights).resolve()}"] if weights else []
    (run_dir / "config.resolved").write_text("\n".join(lines) + "\n")


def _task_for(model, name: str) -> TaskSpec:
    """The named task, which must have as many classes as ``model``."""
    task = get_task(name)
    if task.num_classes != model.config.num_classes:
        raise ConfigError(f"weights were trained for {model.config.num_classes} "
                          f"classes but task {task.name} has {task.num_classes}")
    return task


# -- commands --------------------------------------------------------------------

def cmd_prepare(args) -> int:
    manifest = _require_manifest(args.manifest)
    out_dir = Path(args.out or "clip_cache")
    samples = parse_manifest(manifest)
    if out_dir.is_dir() and any(out_dir.iterdir()):  # so --out holds this run's files only
        raise ConfigError(f"--out {out_dir} is not empty")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    failures = []
    for sample in samples:
        cached = []  # named before its write, so a write that fails part way is removed too
        try:
            raw, rate, _ = audio.load_wav(sample.clip_path)
            for offset_s, clip in audio.wav_clips(raw, rate, source=sample.clip_path):
                cached.append(audio.clip_cache_name(sample.clip_path, offset_s))
                audio.write_clip_cache(out_dir, sample.clip_path, offset_s, clip)
            rows += [(name, sample.raw_label, sample.age_months, sample.family_id)
                     for name in cached]  # a recording enters --out whole or not at all
        except (WavecnnError, OSError) as err:
            for name in cached:
                (out_dir / name).unlink(missing_ok=True)
            failures.append(str(err))
            print(f"error: {err}", file=sys.stderr)
    write_manifest(out_dir / "manifest.csv", rows)
    print(f"cached {len(rows)} clips from {len(samples) - len(failures)} files "
          f"into {out_dir} ({len(failures)} failed)")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_train(args) -> int:
    config, paths = resolve_train_config(args)
    config.validate()
    manifest = _require_manifest(paths.get("manifest"))
    samples = parse_manifest(manifest)
    task = get_task(config.task)
    split = make_split(samples, task, policy=config.split, seed=config.seed,
                       test_fraction=config.test_fraction)
    for part, members in (("training", split.train), ("test", split.test)):
        if not members:
            raise ConfigError(f"the {config.split} split of task {task.name} leaves "
                              f"the {part} set empty")
    model = build_model(config.variant, task.num_classes, seed=config.seed,
                        dense_head=config.dense_head)
    clips = load_clips(task.filter(samples))
    run_dir = _run_dir(paths.get("out"), config)
    for stale in ("weights.bin", "report.json", "report.csv"):  # left by an earlier run
        (run_dir / stale).unlink(missing_ok=True)
    _write_resolved(run_dir, config, manifest)
    # one line per epoch as it ends, so an aborted run keeps the epochs it finished
    with open(run_dir / "run_log.jsonl", "w") as log:
        def log_epoch(epoch, stats):
            log.write(json.dumps({"epoch": stats["epoch"],
                                  "loss": stats["loss"],
                                  "train_acc": stats["train_acc"]}) + "\n")
            log.flush()

        history, stop_reason = train(model, split, task, config, clips, log_epoch)
    save_weights(model, run_dir / "weights.bin")
    report = evaluate(model, split.test, task, clips, threads=config.threads)
    (run_dir / "report.json").write_text(report.to_json() + "\n")
    (run_dir / "report.csv").write_text(report.to_csv())
    print(f"{stop_reason}; train acc {history[-1]['train_acc']:.2f}%, "
          f"test acc {report.overall_accuracy:.2f}% "
          f"(chance {report.chance_percent:.2f}%); outputs in {run_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config, paths = resolve_train_config(args)
    if config.threads < 1:  # the one setting eval reads besides the task
        raise ConfigError(f"threads must be >= 1, got {config.threads}")
    manifest = _require_manifest(paths.get("manifest"))
    if paths.get("out") and (Path(paths["out"]) / "run_log.jsonl").exists():
        # its config.resolved reproduces that training run: keep it
        raise ConfigError(f"--out {paths['out']} holds a training run")
    model = load_weights(args.weights)
    config.variant, config.dense_head = model.config.variant, model.config.dense_head
    task = _task_for(model, config.task)
    samples = task.filter(parse_manifest(manifest))
    if not samples:
        raise ConfigError(f"no samples participate in task {task.name}")
    report = evaluate(model, samples, task, load_clips(samples), threads=config.threads)
    if paths.get("out"):
        run_dir = _run_dir(paths["out"], config)
        _write_resolved(run_dir, config, manifest, args.weights)
        (run_dir / "report.json").write_text(report.to_json() + "\n")
        (run_dir / "report.csv").write_text(report.to_csv())
    print(report.to_json())
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_weights(args.weights)
    names = _task_for(model, args.task).class_names if args.task is not None else None
    clip = audio.load_clip(args.wav)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # softmax refuses the result
            probs = softmax(model.forward(clip))
    except NonFiniteError as err:
        raise NonFiniteError(f"{args.wav}: {err} under weights {args.weights}") from None
    for i, p in enumerate(probs):
        label = names[i] if names else f"class_{i}"
        print(f"{label}\t{p:.6f}")
    print(f"# sum={probs.sum():.6f}")
    return EXIT_OK


def cmd_params(args) -> int:
    model = build_model(args.variant, args.classes, seed=None, dense_head=args.dense_head)
    print(f"variant: {args.variant}  classes: {args.classes}  "
          f"head: {'dense' if args.dense_head else 'conv+gap'}")
    for owner in model.param_owners():
        w, b = owner.params["weight"], owner.params["bias"]
        print(f"  {owner.name:34s} weight{str(w.shape):>20s}  bias({b.size})  "
              f"{w.size + b.size:>8d}")
    print(f"total parameters: {model.param_count()}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    results = run_full_check(seed=args.seed)
    wanted = None if args.layers == "all" else set(args.layers.split(","))
    if wanted:
        unknown = wanted - set(results)
        if unknown:
            raise ConfigError(f"unknown layer kinds: {sorted(unknown)}; "
                              f"known: {sorted(results)}")
        results = {k: v for k, v in results.items() if k in wanted}
    worst = 0.0
    for kind, err in results.items():
        status = "OK" if err < TOLERANCE else "FAIL"
        print(f"{kind:28s} max rel err {err:.3e}  {status}")
        worst = max(worst, err)
    print(f"worst: {worst:.3e} (tolerance {TOLERANCE:g})")
    return EXIT_OK if worst < TOLERANCE else EXIT_PARTIAL


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(num_classes=args.classes,
                           clips_per_class=args.clips_per_class,
                           families=args.families,
                           noise_floor=args.noise,
                           seed=args.seed)
    manifest = synth.generate(spec, args.out)
    print(f"wrote {spec.num_classes * spec.clips_per_class} clips and {manifest}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs about ten times
    what parsing with it does.  It holds no handler; :func:`main` looks up
    ``cmd_<command>`` when it runs, so a later rebinding of one counts."""
    parser = argparse.ArgumentParser(
        prog="wavecnn",
        description="Raw-waveform CNN audio classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        """The flags `train` and `eval` share; each dest is a config key."""
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--manifest")
        p.add_argument("--task")
        p.add_argument("--threads", type=_SETTING_TYPES["threads"],
                       help="worker threads (default 1)")
        p.add_argument("--out", help="run output directory (default: timestamped)")

    p = sub.add_parser("prepare", help="ingest WAVs into the standardized clip cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="cache directory (default clip_cache)")

    p = sub.add_parser("train", help="train a model and write weights + reports")
    add_run_flags(p)
    p.add_argument("--variant", choices=list(VARIANTS))
    for flag, dest in (("--seed", "seed"), ("--epochs", "max_epochs"),
                       ("--batch", "batch_size"), ("--lr", "lr"), ("--lambda", "lam"),
                       ("--test-fraction", "test_fraction")):
        p.add_argument(flag, dest=dest, type=_SETTING_TYPES[dest])
    p.add_argument("--split", help="holdout or lofo:<family_id>")
    p.add_argument("--dense-head", action="store_true", default=None)

    p = sub.add_parser("eval", help="evaluate stored weights on a manifest")
    p.add_argument("--weights", required=True)
    add_run_flags(p)

    p = sub.add_parser("predict", help="class probabilities for one WAV file")
    p.add_argument("--weights", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--task", help="label the classes using this task's names")

    p = sub.add_parser("params", help="parameter count for an architecture")
    p.add_argument("--variant", choices=list(VARIANTS), required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dense-head", action="store_true")

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer kind")
    p.add_argument("--layers", default="all", help="comma list or 'all'")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--clips-per-class", type=int, default=50)
    p.add_argument("--families", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (WavecnnError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        print("internal error: please report it with the traceback above", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
