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
        """Descend each parameter array in place along its gradient."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class RmspropState:
    """RMSProp accumulator (decay 0.9, eps=1e-8); supports gradient ascent."""

    def __init__(self):
        self.cache: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float, maximize: bool = False) -> None:
        sign = 1.0 if maximize else -1.0
        for name, p in params.items():
            g = grads[name]
            c = self.cache.setdefault(name, np.zeros_like(p))
            c *= RMSPROP_DECAY
            c += (1 - RMSPROP_DECAY) * g * g
            p += sign * lr * g / (np.sqrt(c) + RMSPROP_EPS)
