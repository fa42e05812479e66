"""Command-line entry point tying the pipeline into reproducible runs.

Commands: prepare, train, eval, predict, params, gradcheck, synth.

Runs are reproducible: training settings come from an optional key=value
config file overridden by flags, and every train/eval run writes its fully
resolved configuration next to its outputs.  Exit codes: 0 success, 1 partial
data failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import audio, synth
from .data import get_task, make_split, parse_manifest, write_manifest
from .gradcheck import TOLERANCE, run_full_check
from .layers import softmax
from .model import VARIANTS, build_model, load_weights, save_weights
from .train import TrainConfig, evaluate, load_clips, train

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2

_CONFIG_KEYS = {f.name for f in fields(TrainConfig)} | {"manifest", "out"}


class CliError(Exception):
    """Usage/config error; maps to exit code 2."""


def _threads_default() -> int:
    env = os.environ.get("WAVENET_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        raise CliError(f"WAVENET_THREADS must be an integer, got {env!r}")


def read_config_file(path) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment; unknown keys are errors."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise CliError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def resolve_train_config(args) -> tuple[TrainConfig, dict]:
    """Merge config-file values and flag overrides; flags win."""
    file_values = read_config_file(args.config) if args.config else {}
    merged = dict(file_values)
    flag_map = {
        "task": args.task, "variant": args.variant, "batch_size": args.batch,
        "max_epochs": args.epochs, "seed": args.seed, "lam": args.lam,
        "lr": args.lr, "split": args.split, "test_fraction": args.test_fraction,
        "threads": args.threads, "dense_head": args.dense_head or None,
        "manifest": args.manifest, "out": args.out,
    }
    for key, value in flag_map.items():
        if value is not None:
            merged[key] = value
    casts = {"batch_size": int, "max_epochs": int, "seed": int, "threads": int,
             "lam": float, "lr": float, "test_fraction": float,
             "dense_head": lambda v: str(v).lower() in ("1", "true", "yes")}
    config = TrainConfig()
    for key, value in merged.items():
        if key in ("manifest", "out"):
            continue
        try:
            setattr(config, key, casts.get(key, str)(value))
        except ValueError:
            raise CliError(f"bad value for {key}: {value!r}")
    if config.threads == 1 and "threads" not in merged:
        config.threads = _threads_default()
    return config, merged


def _require_manifest(path) -> Path:
    if path is None:
        raise CliError("--manifest is required")
    manifest = Path(path)
    if not manifest.exists():
        raise CliError(f"manifest not found: {manifest}")
    return manifest


def _run_dir(out, config: TrainConfig) -> Path:
    if out:
        run = Path(out)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run = Path("runs") / f"{stamp}_{config.task}_{config.variant}"
    run.mkdir(parents=True, exist_ok=True)
    return run


def _write_resolved(run_dir: Path, config: TrainConfig, extras: dict) -> None:
    lines = [f"{f.name}={getattr(config, f.name)}" for f in fields(TrainConfig)]
    lines += [f"{k}={v}" for k, v in sorted(extras.items())]
    (run_dir / "config.resolved").write_text("\n".join(lines) + "\n")


# -- commands --------------------------------------------------------------------

def cmd_prepare(args) -> int:
    manifest = _require_manifest(args.manifest)
    out_dir = Path(args.out or "clip_cache")
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = parse_manifest(manifest)
    rows = []
    failures = []
    for sample in samples:
        try:
            raw, rate, _ = audio.load_wav(sample.clip_path)
            signal = audio.resample_to_8k(raw, rate)
            clips = audio.extract_clips(signal, [(0.0, len(signal) / audio.SAMPLE_RATE)],
                                        source_path=sample.clip_path)
            if not clips:
                raise audio.WavFormatError(f"{sample.clip_path}: too short to "
                                           f"yield any 1-second clip")
            for clip in clips:
                cached = audio.write_clip_cache(out_dir, audio.standardize(clip))
                rows.append((cached.name, sample.raw_label, sample.age_months,
                             sample.family_id))
        except (audio.WavFormatError, OSError) as err:
            failures.append(str(err))
            print(f"error: {err}", file=sys.stderr)
    write_manifest(out_dir / "manifest.csv", rows)
    print(f"cached {len(rows)} clips from {len(samples) - len(failures)} files "
          f"into {out_dir} ({len(failures)} failed)")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_train(args) -> int:
    config, merged = resolve_train_config(args)
    manifest = _require_manifest(merged.get("manifest"))
    samples = parse_manifest(manifest)
    task = get_task(config.task)
    split = make_split(samples, task, policy=config.split, seed=config.seed,
                       test_fraction=config.test_fraction)
    run_dir = _run_dir(merged.get("out"), config)
    _write_resolved(run_dir, config, {"manifest": str(manifest)})
    model = build_model(config.variant, task.num_classes, seed=config.seed,
                        dense_head=config.dense_head)
    clips = load_clips(task.filter(samples))
    history, stop_reason = train(model, split, task, config, clips)
    with open(run_dir / "run_log.jsonl", "w") as log:
        for stats in history:
            log.write(json.dumps({"epoch": stats["epoch"],
                                  "loss": stats["loss"],
                                  "train_acc": stats["train_acc"]}) + "\n")
    save_weights(model, run_dir / "weights.bin")
    report = evaluate(model, split.test, task, clips, threads=config.threads)
    (run_dir / "report.json").write_text(report.to_json() + "\n")
    (run_dir / "report.csv").write_text(report.to_csv())
    print(f"{stop_reason}; train acc {history[-1]['train_acc']:.2f}%, "
          f"test acc {report.overall_accuracy:.2f}% "
          f"(chance {report.chance_percent:.2f}%); outputs in {run_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config, merged = resolve_train_config(args)
    manifest = _require_manifest(merged.get("manifest"))
    model = load_weights(args.weights)
    task = get_task(config.task)
    if task.num_classes != model.config.num_classes:
        raise CliError(f"weights were trained for {model.config.num_classes} "
                       f"classes but task {task.name} has {task.num_classes}")
    samples = task.filter(parse_manifest(manifest))
    if not samples:
        raise CliError(f"no samples participate in task {task.name}")
    report = evaluate(model, samples, task, threads=config.threads)
    out = merged.get("out")
    if out:
        run_dir = _run_dir(out, config)
        _write_resolved(run_dir, config, {"manifest": str(manifest),
                                          "weights": str(args.weights)})
        (run_dir / "report.json").write_text(report.to_json() + "\n")
        (run_dir / "report.csv").write_text(report.to_csv())
    print(report.to_json())
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_weights(args.weights)
    clip = audio.load_clip(args.wav)
    probs = softmax(model.forward(clip))
    names = None
    if args.task:
        task = get_task(args.task)
        if task.num_classes == model.config.num_classes:
            names = task.class_names
    for i, p in enumerate(probs):
        label = names[i] if names else f"class_{i}"
        print(f"{label}\t{p:.6f}")
    print(f"# sum={probs.sum():.6f}")
    return EXIT_OK


def cmd_params(args) -> int:
    variant = args.variant or "with_inception"
    model = build_model(variant, args.classes, dense_head=args.dense_head)
    print(f"variant: {variant}  classes: {args.classes}  "
          f"head: {'dense' if args.dense_head else 'conv+gap'}")
    for owner in model.param_owners():
        w, b = owner.params["weight"], owner.params["bias"]
        print(f"  {owner.name:34s} weight{str(w.shape):>20s}  bias({b.size})  "
              f"{w.size + b.size:>8d}")
    print(f"total parameters: {model.param_count()}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_full_check(seed=args.seed)
    wanted = None if args.layers in (None, "all") else set(args.layers.split(","))
    if wanted:
        unknown = wanted - set(results)
        if unknown:
            raise CliError(f"unknown layer kinds: {sorted(unknown)}; "
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
                           seed=args.seed if args.seed is not None else 0)
    manifest = synth.generate(spec, args.out)
    print(f"wrote {spec.num_classes * spec.clips_per_class} clips and {manifest}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavecnn",
        description="Raw-waveform CNN audio classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_flags(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--manifest")
        p.add_argument("--task")
        p.add_argument("--variant", choices=list(VARIANTS))
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--split", help="holdout or lofo:<family_id>")
        p.add_argument("--test-fraction", type=float)
        p.add_argument("--threads", type=int,
                       help="worker threads (default 1; env WAVENET_THREADS)")
        p.add_argument("--dense-head", action="store_true", default=None)
        p.add_argument("--out", help="run output directory (default: timestamped)")

    p = sub.add_parser("prepare", help="ingest WAVs into the standardized clip cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="cache directory (default clip_cache)")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train a model and write weights + reports")
    add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate stored weights on a manifest")
    p.add_argument("--weights", required=True)
    add_train_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="class probabilities for one WAV file")
    p.add_argument("--weights", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--task", help="label the classes using this task's names")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("params", help="parameter count for an architecture")
    p.add_argument("--variant", choices=list(VARIANTS), required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dense-head", action="store_true")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer kind")
    p.add_argument("--layers", default="all", help="comma list or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--clips-per-class", type=int, default=50)
    p.add_argument("--families", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
