import math
import re

import numpy as np
import pytest

from nucaug.errors import ConfigurationError
from nucaug.optimizers import ALGORITHMS, OptimizerConfig, init_state, optimizer_step

LR, B1, B2, EPS = 0.001, 0.9, 0.99, 1e-8
RHO = 0.9


def one_step(algorithm, theta, grad, **kwargs):
    config = OptimizerConfig(algorithm=algorithm, learning_rate=LR,
                             beta1=B1, beta2=B2, epsilon=EPS,
                             rmsprop_decay=RHO, **kwargs)
    params = np.array([theta])
    state = init_state(config, 1)
    optimizer_step(state, params, np.array([grad]))
    return state, float(params[0])


class TestSingleStepOracles:
    """Each oracle is scalar arithmetic written out independently of the
    vectorized implementation."""

    THETA, G = 1.0, 0.5

    def test_adam(self):
        m = (1 - B1) * self.G
        v = (1 - B2) * self.G ** 2
        m_hat = m / (1 - B1)
        v_hat = v / (1 - B2)
        expected = self.THETA - LR * m_hat / (math.sqrt(v_hat) + EPS)
        _, got = one_step("adam", self.THETA, self.G)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_nadam(self):
        m = (1 - B1) * self.G
        v = (1 - B2) * self.G ** 2
        m_hat = m / (1 - B1)
        v_hat = v / (1 - B2)
        lookahead = B1 * m_hat + (1 - B1) * self.G / (1 - B1)
        expected = self.THETA - LR * lookahead / (math.sqrt(v_hat) + EPS)
        _, got = one_step("nadam", self.THETA, self.G)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_adamax(self):
        m = (1 - B1) * self.G
        u = max(B2 * 0.0, abs(self.G))
        expected = self.THETA - (LR / (1 - B1)) * m / (u + EPS)
        _, got = one_step("adamax", self.THETA, self.G)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_rmsprop(self):
        v = (1 - RHO) * self.G ** 2
        expected = self.THETA - LR * self.G / (math.sqrt(v) + EPS)
        _, got = one_step("rmsprop", self.THETA, self.G)
        assert got == pytest.approx(expected, abs=1e-12)


class TestTwoStepAdam:
    def test_bias_correction_uses_step_counter(self):
        config = OptimizerConfig()
        params = np.array([1.0])
        state = init_state(config, 1)
        g1, g2 = 0.5, -0.25
        optimizer_step(state, params, np.array([g1]))
        optimizer_step(state, params, np.array([g2]))
        assert state.step == 2
        m = (1 - B1) * g1
        v = (1 - B2) * g1 ** 2
        theta = 1.0 - LR * (m / (1 - B1)) / (math.sqrt(v / (1 - B2)) + EPS)
        m = B1 * m + (1 - B1) * g2
        v = B2 * v + (1 - B2) * g2 ** 2
        theta -= LR * (m / (1 - B1 ** 2)) / (math.sqrt(v / (1 - B2 ** 2)) + EPS)
        assert params[0] == pytest.approx(theta, abs=1e-12)


class TestBehaviour:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_zero_gradient_is_noop(self, algorithm):
        config = OptimizerConfig(algorithm=algorithm)
        params = np.array([0.3, -1.2])
        state = init_state(config, 2)
        before = params.copy()
        optimizer_step(state, params, np.zeros(2))
        np.testing.assert_array_equal(params, before)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_descends_a_quadratic(self, algorithm):
        config = OptimizerConfig(algorithm=algorithm, learning_rate=0.05)
        params = np.array([2.0])
        state = init_state(config, 1)
        for _ in range(500):
            optimizer_step(state, params, 2.0 * params)
        assert abs(params[0]) < 0.2

    @pytest.mark.parametrize("theta, grads", [
        ([1.0, 2.0, 3.0, 4.0], [0.5, -1.5, 0.0, 2.5]),
        (np.arange(1.0, 13.0).reshape(3, 4) - 6.0, [[0.5, -1.5, 0.0, 2.5],
                                                     [-0.25, 1e-3, 3.0, -2.0],
                                                     [1e-9, 0.75, -0.5, 0.0]]),
    ], ids=["vector", "stack"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_vector_step_matches_scalar_steps(self, algorithm, theta, grads):
        # the update is elementwise on whatever shape the state was built
        # for, so one step of a stack is, bit for bit, one scalar step each
        config = OptimizerConfig(algorithm=algorithm)
        params, grads = np.array(theta), np.array(grads)
        state = init_state(config, params.shape)
        assert optimizer_step(state, params, grads) is None
        expected = [one_step(algorithm, t, g)[1]
                    for t, g in zip(np.ravel(theta), grads.flat)]
        assert params.ravel().tolist() == expected


class TestValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(algorithm="sgd")

    def test_bad_hyperparameters(self):
        for field, value, message in [
            ("learning_rate", 0.0, "learning_rate must be a finite number > 0, got 0.0"),
            ("learning_rate", math.nan, "learning_rate must be a finite number > 0, got nan"),
            ("learning_rate", math.inf, "learning_rate must be a finite number > 0, got inf"),
            ("epsilon", 0.0, "epsilon must be a finite number > 0, got 0.0"),
            ("epsilon", math.nan, "epsilon must be a finite number > 0, got nan"),
            ("epsilon", math.inf, "epsilon must be a finite number > 0, got inf"),
            ("beta1", 1.0, "beta1 must be in [0, 1), got 1.0"),
        ]:
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                OptimizerConfig(**{field: value})
