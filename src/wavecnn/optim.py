"""Parameter initialization and updates: Glorot uniform, Adam, L2 penalty."""

from __future__ import annotations

import numpy as np

from .tensor import DTYPE, NonFiniteError

# Adam's decay rates and denominator floor: the published defaults of
# Kingma & Ba, "Adam: A Method for Stochastic Optimization" (ICLR 2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NonFiniteGradient(NonFiniteError):
    """A gradient contained NaN or inf; the batch must be aborted."""


def glorot_init(shape, fan_in: int, fan_out: int, rng: np.random.Generator,
                dtype=DTYPE) -> np.ndarray:
    """Uniform draw on (-L, L) with L = sqrt(6 / (fan_in + fan_out)).

    For a convolution, fan_in = in_ch * prod(kernel) and
    fan_out = out_ch * prod(kernel).  Biases are initialized to zero
    elsewhere; this function is for weights only.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got {fan_in}, {fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=tuple(shape)).astype(dtype)


class Adam:
    """Adam with bias correction; one shared step counter for all tensors.

    update: m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    param <- param - lr * m_hat / (sqrt(v_hat) + eps), updated in place,
    with b1, b2 and eps fixed at BETA1, BETA2 and EPS.
    """

    def __init__(self, params: list[np.ndarray], lr: float = 0.001):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray], names: list[str] | None = None) -> None:
        """Update every parameter in place, with overflow warnings off.  A
        non-finite gradient raises NonFiniteGradient before anything changes;
        moments that overflow, or a parameter the step leaves non-finite,
        raise NonFiniteError.  Each names the parameter (``names[i]``, or its index)."""
        if len(grads) != len(self.params):
            raise ValueError(f"got {len(grads)} gradients for {len(self.params)} parameters")
        names = names or [f"parameter {i}" for i in range(len(grads))]
        for name, g in zip(names, grads):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"non-finite gradient in {name}")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p, g, m, v in zip(names, self.params, grads, self.m, self.v):
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * np.square(g)
                if not (np.isfinite(m).all() and np.isfinite(v).all()):
                    raise NonFiniteError(f"non-finite Adam moments in {name}")
                p -= (self.lr / c1) * m / (np.sqrt(v / c2) + EPS)
                if not np.isfinite(p).all():
                    raise NonFiniteError(f"non-finite values in {name} after the Adam step")


def l2_penalty(weights: list[np.ndarray], lam: float):
    """Loss addend lam * sum(w^2) and gradient addends 2 * lam * w.

    Applies to weight tensors only; biases are excluded by the caller.
    The penalty uses the lam * sum(w^2) convention (no 1/2 factor).
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    loss = lam * float(sum(np.sum(np.square(w, dtype=np.float64)) for w in weights))
    return loss, [(2.0 * lam) * w for w in weights]
