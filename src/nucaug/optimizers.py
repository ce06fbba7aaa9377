"""Adaptive-gradient optimizers over flat parameter vectors.

Update rules (g = gradient, t = step counter after incrementing):

adam:     m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2
          theta -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
nadam:    same m, v; the momentum term is the Nesterov look-ahead
          theta -= lr * (b1*mhat + (1-b1)*g/(1-b1^t)) / (sqrt(vhat) + eps)
adamax:   m as above;  u = max(b2*u, |g|)
          theta -= lr / (1-b1^t) * m / (u + eps)
rmsprop:  v = decay*v + (1-decay)*g^2
          theta -= lr * g / (sqrt(v) + eps)

eps sits outside the square root everywhere, and adamax gains an eps in the
denominator so a zero-gradient start is well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

ALGORITHMS = ("adam", "nadam", "adamax", "rmsprop")


def check_algorithm(algorithm: str) -> None:
    """Raise ConfigurationError unless the algorithm is one of ALGORITHMS."""
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"optimizer must be one of {', '.join(ALGORITHMS)}, got {algorithm!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str = "adam"
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon: float = 1e-8
    rmsprop_decay: float = 0.9

    def __post_init__(self):
        check_algorithm(self.algorithm)
        for name in ("learning_rate", "epsilon"):
            val = getattr(self, name)
            if not 0.0 < val < math.inf:  # false for nan
                raise ConfigurationError(f"{name} must be a finite number > 0, got {val}")
        for name in ("beta1", "beta2", "rmsprop_decay"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {val}")


@dataclass
class OptimizerState:
    config: OptimizerConfig
    step: int
    m: np.ndarray | None  # first moment; None for rmsprop
    v: np.ndarray         # second moment / infinity norm (adamax)


def init_state(config: OptimizerConfig, n_params: int | tuple[int, ...]) -> OptimizerState:
    """Zero moments for n_params parameters, or for an array of that shape."""
    m = None if config.algorithm == "rmsprop" else np.zeros(n_params)
    return OptimizerState(config=config, step=0, m=m, v=np.zeros(n_params))


def optimizer_step(state: OptimizerState, params: np.ndarray, grad: np.ndarray) -> None:
    """Apply one update of state.config's rule to params, in place,
    elementwise over arrays of the shape the state was built for."""
    config = state.config
    lr, b1, b2, eps = (config.learning_rate, config.beta1,
                       config.beta2, config.epsilon)
    state.step += 1
    t = state.step
    m, v = state.m, state.v

    if config.algorithm == "rmsprop":
        rho = config.rmsprop_decay
        v *= rho
        v += (1.0 - rho) * grad * grad
        params -= lr * grad / (np.sqrt(v) + eps)
        return

    m *= b1
    m += (1.0 - b1) * grad
    bc1 = 1.0 - b1 ** t

    if config.algorithm == "adamax":
        np.maximum(b2 * v, np.abs(grad), out=v)
        params -= (lr / bc1) * m / (v + eps)
        return

    v *= b2
    v += (1.0 - b2) * grad * grad
    denom = np.sqrt(v / (1.0 - b2 ** t)) + eps
    if config.algorithm == "adam":
        params -= lr * (m / bc1) / denom
    else:  # nadam
        params -= lr * (b1 * (m / bc1) + (1.0 - b1) / bc1 * grad) / denom
