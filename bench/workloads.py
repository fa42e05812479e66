"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``setup`` builds everything a user
would have before the first operation and is what ``setup_s`` times;
``reference`` computes the values the checks compare against and is not
timed.  ``op`` is the timed unit of work and returns the evidence that
``check`` inspects after the clock has stopped.

The references run the program's own code in float64 or at threads=1.  They
catch a float32-only path, state carried between calls, a reduction whose
order depends on the threads, non-finite values and failed exits; an error
shared by both dtypes is left to the gradient checks of the test suite.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from wavecnn import audio, cli, data, model, synth, train
from workcount import NUM_CLASSES

LR = 2e-3
LAM = 1e-4
# float32 training against a float64 copy of the same model: relative loss
# difference allowed after one Adam step (3.5e-6 is the largest seen)
TRAIN_LOSS_RTOL = 1e-4
# predict prints 6 decimals; float32 against float64 differs far less
PROB_ATOL = 1e-4
# a Glorot-initialised head gives probabilities within 1e-3 of uniform; a
# larger head weight spreads them so a wrong forward shows in the printout
HEAD_GAIN = 100.0

THREE_TONE = data.TaskSpec(
    "three_tone", ("laugh_cry", "canonical", "non_canonical"),
    {"laugh_cry": 0, "canonical": 1, "non_canonical": 2,
     "ids": data.EXCLUDED, "ads": data.EXCLUDED})


class CheckFailed(Exception):
    """A workload output did not match its reference."""


def _quiet(fn, *args):
    """Call ``fn`` with stdout captured; returns (result, printed text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _tone_wav(path: Path, seconds: float, rate: int, rng: np.random.Generator) -> None:
    """A noisy AM tone at ``rate``, as a 16-bit WAV."""
    t = np.arange(int(round(seconds * rate))) / rate
    carrier = rng.uniform(300.0, 3300.0)
    am = rng.uniform(2.0, 12.0)
    x = np.sin(2 * np.pi * carrier * t + rng.uniform(0, 2 * np.pi))
    x *= 0.6 + 0.4 * np.sin(2 * np.pi * am * t)
    x += 0.1 * rng.standard_normal(t.size)
    audio.write_wav(path, 0.9 * x / np.max(np.abs(x)), rate)


def _copy_model(variant: str, params, dtype) -> model.Model:
    fresh = model.build_model(variant, NUM_CLASSES, dtype=dtype)
    for dst, src in zip(fresh.parameter_arrays(), params):
        dst[...] = src
    return fresh


@dataclass
class Workload:
    name: str
    threads: int = 1
    variant: str | None = None     # architecture the operations run, if any

    def models(self, state) -> list:
        """Models built in set-up, so the tracer can key their layers."""
        return []

    def reference(self, state) -> None:
        """Values the checks compare against; not timed."""

    def check(self, state, evidence) -> None:
        """Inspect one operation's evidence; raises CheckFailed."""

    def final_check(self, state) -> None:
        """A check run once, after the measurement."""


@dataclass
class TrainWorkload(Workload):
    """``train()`` on a prepared synthetic corpus, one batch per operation.

    The corpus holds three batches; each operation trains one of them for
    one epoch on the same model, so the model keeps learning across
    operations.  ``train()`` raises on a non-finite batch loss, which fails
    the operation.  Once per run, float32 and float64 copies of the initial
    model train ``check_samples`` clips for two epochs and their losses must
    agree; with ``threads > 1`` a threads=1 float32 copy must end with
    bit-identical losses and weights.
    """

    batch: int = 8
    check_samples: int = 1

    def setup(self, root: Path, seed: int):
        spec = synth.SynthSpec(num_classes=NUM_CLASSES, clips_per_class=self.batch,
                               families=4, noise_floor=0.1, seed=seed)
        manifest = synth.generate(spec, root / "corpus")
        rc, _ = _quiet(cli.main, ["prepare", "--manifest", str(manifest),
                                  "--out", str(root / "cache")])
        if rc != cli.EXIT_OK:
            raise CheckFailed(f"prepare of the synthetic corpus exited {rc}")
        samples = data.parse_manifest(root / "cache" / "manifest.csv")
        clips = train.load_clips(samples)
        net = model.build_model(self.variant, NUM_CLASSES, seed=seed)
        order = np.random.default_rng(seed).permutation(len(samples))
        groups = [[samples[i] for i in order[k:k + self.batch]]
                  for k in range(0, len(samples), self.batch)]
        return {"samples": samples, "groups": groups, "clips": clips,
                "model": net, "init": [p.copy() for p in net.parameter_arrays()]}

    def models(self, state):
        return [state["model"]]

    def _config(self, batch: int, epochs: int, threads: int) -> train.TrainConfig:
        return train.TrainConfig(task=THREE_TONE.name, variant=self.variant,
                                 batch_size=batch, max_epochs=epochs, lr=LR,
                                 lam=LAM, threads=threads)

    def _train_copy(self, state, dtype, samples, epochs, threads):
        net = _copy_model(self.variant, state["init"], dtype)
        clips = {s.clip_path: state["clips"][s.clip_path].astype(dtype) for s in samples}
        history, _ = train.train(net, data.Split(samples, [], "holdout"), THREE_TONE,
                                 self._config(len(samples), epochs, threads), clips)
        return net, [h["loss"] for h in history]

    def op(self, state, k: int):
        batch = state["groups"][k % len(state["groups"])]
        train.train(state["model"], data.Split(batch, [], "holdout"), THREE_TONE,
                    self._config(self.batch, 1, self.threads), state["clips"])
        return len(batch), None

    def final_check(self, state) -> None:
        samples = state["samples"][:self.check_samples]
        _, ref = self._train_copy(state, np.float64, samples, 2, 1)
        net, got = self._train_copy(state, np.float32, samples, 2, self.threads)
        for epoch, (a, b) in enumerate(zip(got, ref)):
            if not abs(a - b) <= TRAIN_LOSS_RTOL * abs(b):
                raise CheckFailed(f"epoch {epoch} loss {a} vs float64 reference {b}")
        if self.threads > 1:
            one, loss_one = self._train_copy(state, np.float32, samples, 2, 1)
            if loss_one != got or one.state_bytes() != net.state_bytes():
                raise CheckFailed(f"threads={self.threads} differs from threads=1: "
                                  f"losses {got} vs {loss_one}")


@dataclass
class InferWorkload(Workload):
    """In-process ``wavecnn predict`` calls on 1-second 44.1 kHz WAVs.

    Each call loads the weights file and one WAV, as a user's call would.
    The printed probabilities must match a float64 forward of the same
    weights on the same clip.
    """

    pool: int = 8

    def setup(self, root: Path, seed: int):
        root.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        wavs = []
        for i in range(self.pool):
            wavs.append(root / f"call{i}.wav")
            _tone_wav(wavs[-1], 1.0, 44100, rng)
        net = model.build_model(self.variant, NUM_CLASSES, seed=seed)
        net.param_owners()[-1].params["weight"] *= HEAD_GAIN
        weights = root / "weights.bin"
        model.save_weights(net, weights)
        # the reference takes the parameters from here, not from
        # load_weights, so a weights-IO defect shows in the check
        return {"wavs": wavs, "weights": weights,
                "params": [p.copy() for p in net.parameter_arrays()]}

    def reference(self, state) -> None:
        net = _copy_model(self.variant, state["params"], np.float64)
        state["probs"] = []
        for wav in state["wavs"]:
            logits = net.forward(audio.load_clip(wav).astype(np.float64))
            e = np.exp(logits - logits.max())
            state["probs"].append(e / e.sum())

    def op(self, state, k: int):
        i = k % self.pool
        rc, out = _quiet(cli.main, ["predict", "--weights", str(state["weights"]),
                                    "--wav", str(state["wavs"][i])])
        return 1, (i, rc, out)

    def check(self, state, evidence) -> None:
        i, rc, out = evidence
        if rc != cli.EXIT_OK:
            raise CheckFailed(f"predict exited {rc}")
        probs = [float(line.split("\t")[1]) for line in out.splitlines()
                 if not line.startswith("#")]
        ref = state["probs"][i]
        if len(probs) != ref.size or np.max(np.abs(np.array(probs) - ref)) > PROB_ATOL:
            raise CheckFailed(f"probabilities {probs} vs float64 reference {ref}")


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    TrainWorkload("train_inception", variant=model.WITH_INCEPTION, batch=8,
                  threads=1, check_samples=1),
    TrainWorkload("train_plain", variant=model.WITHOUT_INCEPTION, batch=16,
                  threads=2, check_samples=4),
    InferWorkload("infer", variant=model.WITHOUT_INCEPTION),
)}
