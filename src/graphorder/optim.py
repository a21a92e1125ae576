"""Minimal per-array optimizers used by both network trainers."""
from __future__ import annotations

import numpy as np

__all__ = ["AdamState", "RmspropState"]

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
RMSPROP_DECAY, RMSPROP_EPS = 0.9, 1e-8


class AdamState:
    """Adam with the usual constants (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> None:
        """Descend each parameter array in place along its gradient.

        The update is ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, evaluated in
        that order through two scratch arrays per parameter.  They are not
        kept between steps: held, they would raise peak memory by two copies
        of every parameter."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p), np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            a, b = np.empty_like(p), np.empty_like(p)
            m *= b1
            m += np.multiply(1 - b1, g, out=a)
            v *= b2
            np.multiply(1 - b2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, 1 - b1 ** self.t, out=a)  # m_hat
            np.divide(v, 1 - b2 ** self.t, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a *= lr
            p -= np.divide(a, b, out=a)


class RmspropState:
    """RMSProp accumulator (decay 0.9, eps=1e-8) for gradient ascent."""

    def __init__(self):
        self.cache: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> None:
        """Ascend each parameter array in place along its gradient, through two
        scratch arrays per parameter as in Adam."""
        for name, p in params.items():
            g = grads[name]
            c = self.cache.setdefault(name, np.zeros_like(p))
            a, b = np.empty_like(p), np.empty_like(p)
            c *= RMSPROP_DECAY
            c += np.multiply(np.multiply(1 - RMSPROP_DECAY, g, out=a), g, out=a)
            np.sqrt(c, out=b)
            b += RMSPROP_EPS
            p += np.divide(np.multiply(lr, g, out=a), b, out=a)
