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
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be > 0")
        for name in ("beta1", "beta2", "rmsprop_decay"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {val}")
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be > 0")


@dataclass
class OptimizerState:
    algorithm: str
    step: int
    m: np.ndarray | None  # first moment; None for rmsprop
    v: np.ndarray         # second moment / infinity norm (adamax)


def init_state(config: OptimizerConfig, n_params: int) -> OptimizerState:
    m = None if config.algorithm == "rmsprop" else np.zeros(n_params)
    return OptimizerState(algorithm=config.algorithm, step=0, m=m,
                          v=np.zeros(n_params))


def optimizer_step(state: OptimizerState, config: OptimizerConfig,
                   params: np.ndarray, grad: np.ndarray):
    """Apply one update in place; returns the (mutated) state and params."""
    if state.algorithm != config.algorithm:
        raise ConfigurationError(
            f"state built for {state.algorithm!r}, config says {config.algorithm!r}")
    if state.v.shape != params.shape or grad.shape != params.shape:
        raise ConfigurationError("state/gradient shapes do not match params")

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
        return state, params

    m *= b1
    m += (1.0 - b1) * grad
    bc1 = 1.0 - b1 ** t

    if config.algorithm == "adamax":
        np.maximum(b2 * v, np.abs(grad), out=v)
        params -= (lr / bc1) * m / (v + eps)
        return state, params

    v *= b2
    v += (1.0 - b2) * grad * grad
    denom = np.sqrt(v / (1.0 - b2 ** t)) + eps
    if config.algorithm == "adam":
        params -= lr * (m / bc1) / denom
    else:  # nadam
        params -= lr * (b1 * (m / bc1) + (1.0 - b1) / bc1 * grad) / denom
    return state, params
