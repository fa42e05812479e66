"""wavecnn benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 bench/run.py --workload train_inception --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced operations and prints the per-layer metrics.
``--workload all`` (or a comma list) runs each named workload in its own
process and prints a table of all of them.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Work files go under ``.bench_work/`` and are removed; the traced run writes
its spans to ``bench_out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
WORKLOAD_NAMES = ("train_inception", "train_plain", "infer")
# BLAS runs single-threaded in every workload; parallelism, where a workload
# has any, comes from wavecnn's own --threads
BLAS_THREADS = 1
SETUP_BEFORE = 3
SETUP_AFTER = 2
# fresh interpreters that time the imports beside this process's own, before
# and after the measurement; one import time alone spread 0.17-0.29 s on a
# 2-vCPU VM
IMPORT_REPEATS = 2
IMPORTS = ("import argparse, json, platform, resource, shutil, subprocess, traceback; "
           "import numpy, perlayer, spans, workcount, workloads; "
           "from wavecnn import audio, cli, data, layers, model, optim, synth, train")
WARMUP_SECONDS = 1.0
# share of a training step's CPU time its layer, optim and data spans must
# explain (measured: 0.991 with_inception at threads 1, 0.960 without at 2)
MIN_LAYER_COVERAGE = 0.95

# end-to-end metrics each workload reports, as the names a user of that
# workload would look for
ALIASES = {
    "train_inception": {"throughput_per_s": "train_samples_per_s"},
    "train_plain": {"throughput_per_s": "train_samples_per_s"},
    "infer": {"throughput_per_s": "infer_clips_per_s", "latency_ms_p50": "infer_ms_p50",
              "latency_ms_p90": "infer_ms_p90"},
}
END_TO_END_UNITS = {"throughput_per_s": "1/s", "latency_ms_p50": "ms",
                    "latency_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOAD_NAMES)}, a comma list, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {WORKLOAD_NAMES}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args, names


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Tally:
    """Counts operations attempted and failed; a failure is printed, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def call(fn, *args):
        """Call ``fn``; returns (ok, result), printing the traceback on failure."""
        try:
            return True, fn(*args)
        except Exception:  # an operation's failure is data for error_rate
            print(f"operation failed:\n{traceback.format_exc()}", file=sys.stderr)
            return False, None

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def run(self, fn, *args) -> None:
        """One checked operation that is not timed."""
        self.count(self.call(fn, *args)[0])


def measure(wl, state, tally: Tally, seconds: float, k: int, tracer=None):
    """Closed loop of operations until their wall time reaches ``seconds``.

    Returns (walls, cpus, items, traced, next k), one entry per operation,
    with ``items`` 0 for a failed one.  Each output is checked after its
    clock has stopped.  With a tracer, every other operation runs traced,
    so each traced operation has untraced neighbours from the same stretch
    of a host whose speed drifts.
    """
    walls, cpus, items, traced = [], [], [], []
    while len(walls) < (3 if tracer else 1) or sum(walls) < seconds:
        on = tracer is not None and len(walls) % 2 == 1
        if on:
            tracer.install(wl.models(state))
            span = tracer.open("bench.op")
        c0, t0 = time.process_time(), time.perf_counter()
        ok, out = tally.call(wl.op, state, k)  # never raises
        t1, c1 = time.perf_counter(), time.process_time()
        if on:
            tracer.close(span)
            tracer.uninstall()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        traced.append(on)
        if ok:
            ok = tally.call(wl.check, state, out[1])[0]
        tally.count(ok)
        items.append(out[0] if ok else 0)
        k += 1
    return walls, cpus, items, traced, k


def check_coverage(coverage: float) -> None:
    """Fail a traced training run whose layer spans leave its step unexplained.

    The rest of a step is ``train()``'s own loop and gradient reduction,
    model dispatch and the thread pool.
    """
    from workloads import CheckFailed
    if coverage < MIN_LAYER_COVERAGE:
        raise CheckFailed(f"layer, optim and data spans hold {coverage:.3f} of the "
                          f"traced step's CPU time, below {MIN_LAYER_COVERAGE}")


def check_threads(threads: int, nproc: int) -> None:
    """Refuse a configuration with more busy threads than usable cores.

    On a 2-core x86-64 VM, two workers with two BLAS threads each trained
    with_inception at 501 ms per sample, against 266 ms for one worker with
    two BLAS threads.
    """
    if threads * BLAS_THREADS > nproc:
        raise SystemExit(f"refusing --threads {threads} x BLAS threads {BLAS_THREADS} "
                         f"> nproc {nproc}: it would oversubscribe the cores")


def environment(threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "cpu_model": cpu_model,
            "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "threads": threads}


def fresh_imports() -> list[float]:
    """Import times of IMPORT_REPEATS fresh interpreters, one after another."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(BENCH)))}
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return times


def timed_setup(wl, root: Path, seed: int):
    start = time.perf_counter()
    state = wl.setup(root, seed)
    return state, time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import perlayer
    from spans import Tracer
    from wavecnn import audio, cli, data, layers, model, optim, synth, train
    from workcount import reference_gemms, sgemm_gflops, variant_work
    from workloads import WORKLOADS, TrainWorkload
    import_times = [time.perf_counter() - T_START, *fresh_imports()]

    wl = WORKLOADS[name]
    env = environment(wl.threads)
    print(f"env {json.dumps(env)}")
    check_threads(wl.threads, env["nproc"])
    work_root = REPO / ".bench_work" / f"{name}-{os.getpid()}"
    tally = Tally()
    try:
        setup_times = []
        for r in range(SETUP_BEFORE):
            shutil.rmtree(work_root / "setup", ignore_errors=True)
            state, took = timed_setup(wl, work_root / "setup", seed)
            setup_times.append(took)
        tally.run(wl.reference, state)
        k = measure(wl, state, tally, WARMUP_SECONDS, 0)[-1]
        tracer = None
        if trace:
            tracer = Tracer({"layers": layers, "model": model, "optim": optim,
                             "train": train, "audio": audio, "data": data, "cli": cli,
                             "synth": synth})
            tracer.install()
            try:
                wl.setup(work_root / "traced_setup", seed)
            finally:
                tracer.uninstall()
            setup_spans = list(tracer.spans)
        walls, cpus, items, traced, _ = measure(wl, state, tally, seconds, k, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally.run(wl.final_check, state)
        # set-up timed again after the measurement, so its median samples
        # two moments of a host whose speed drifts
        for r in range(SETUP_AFTER):
            setup_times.append(timed_setup(wl, work_root / f"after{r}", seed)[1])
        import_times += fresh_imports()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    print(f"workload {name}: seed {seed}, {len(walls)} ops in {sum(walls):.2f} s, "
          f"{sum(items)} items")
    if not trace:
        metrics = {
            "throughput_per_s": sum(items) / sum(walls),
            "latency_ms_p50": 1e3 * statistics.median(walls),
            "latency_ms_p90": 1e3 * quantile(walls, 90),
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        for metric, value in metrics.items():
            alias = ALIASES[name].get(metric, metric)
            print(f"{alias:22s} {value:12.4f} {units[metric]:5s}"
                  + (f" (= {metric})" if alias != metric else "")
                  + (f" over {len(walls)} ops" if metric.startswith("latency") else ""))
    else:
        rng = np.random.default_rng(seed)
        sgemm = {g: sgemm_gflops(shape, rng) for g, shape in reference_gemms().items()}
        work = variant_work(wl.variant) if wl.variant else {}
        op_spans = tracer.spans[len(setup_spans):]
        on = [i for i, t in enumerate(traced) if t]
        metrics = perlayer.compute(op_spans, setup_spans,
                                   items=max(sum(items[i] for i in on), 1), ops=len(on),
                                   threads=wl.threads, work=work, sgemm=sgemm)
        # the layer sum is thread-CPU seconds in layer spans, set against
        # process CPU seconds: the same sum whether one thread or several did
        # the work.  Coverage divides by the traced operation itself; the
        # untraced figure and the overhead divide by the mean of its untraced
        # neighbours, which cancels a steady drift of the host's speed
        layer_cpu = perlayer.layer_cpu_per_op(op_spans)
        pairs = [(j, i) for j, i in enumerate(on) if i + 1 < len(traced)]
        metrics["trace.overhead_ratio"] = statistics.median(
            walls[i] / ((walls[i - 1] + walls[i + 1]) / 2) for _, i in pairs)
        metrics["trace.layer_coverage"] = statistics.median(
            layer_cpu[j] / cpus[i] for j, i in enumerate(on))
        untraced_frac = statistics.median(
            layer_cpu[j] / ((cpus[i - 1] + cpus[i + 1]) / 2) for j, i in pairs)
        if isinstance(wl, TrainWorkload):
            tally.run(check_coverage, metrics["trace.layer_coverage"])
        units = perlayer.metric_units()
        for metric, value in metrics.items():
            if value:
                print(f"{metric:40s} {value:12.4f} {units[metric]}")
        print(f"layer sum: layer, optim and data self times hold "
              f"{metrics['trace.layer_coverage']:.3f} of the traced operation's CPU time "
              f"and {untraced_frac:.3f} of the untraced one's; tracing overhead "
              f"{metrics['trace.overhead_ratio'] - 1:+.1%} wall")
        write_trace(name, seed, env, work, metrics, setup_spans + op_spans)
    print(f"error_rate {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} operations failed)")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def write_trace(name, seed, env, work, metrics, spans) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    out = REPO / "bench_out"
    out.mkdir(exist_ok=True)
    payload = {
        "workload": name, "seed": seed, "env": env, "metrics": metrics,
        "work": work,
        "spans": [{"name": s.name, "start": s.start, "end": s.end,
                   "cpu_s": s.cpu, "parent": index.get(id(s.parent), -1),
                   "thread": s.thread, **s.attrs} for s in spans],
    }
    path = out / f"{name}-seed{seed}-trace.json"
    path.write_text(json.dumps(payload))
    print(f"spans written to {path.relative_to(REPO)}")


def run_all(names, args) -> dict:
    """Each workload in its own process; a table of every end-to-end metric."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(f"\n{'metric':28s} {'workload':16s} {'value':>12s} unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            alias = ALIASES[name].get(metric, metric)
            print(f"{alias:28s} {name:16s} {m['value']:12.4f} {m['unit']}")
        print(f"{'error_rate':28s} {name:16s} "
              f"{result['failed'] / result['attempted']:12.4f} failed/attempted")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()}}


def main(argv=None) -> int:
    args, names = parse_args(argv)
    if not (SRC / "wavecnn" / "__init__.py").is_file():
        print(f"error: no wavecnn sources under {SRC}; run from a repository "
              f"checkout", file=sys.stderr)
        return 2
    if len(names) > 1:
        result = run_all(names, args)
    else:
        # OpenBLAS reads its thread count once, when numpy loads it
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(BLAS_THREADS)
        sys.path[:0] = [str(SRC), str(BENCH)]
        result = run_workload(names[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
