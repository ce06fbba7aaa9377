import json
import math

import numpy as np
import pytest

from nucaug import network
from nucaug.ame import NuclideRecord
from nucaug.augment import gaussian_resample, identity_set
from nucaug.errors import ConfigurationError, DataIntegrityError
from nucaug.experiment import ARCH_SETTINGS
from nucaug.network import (NetworkParams, NetworkSpec, TrainConfig, backward,
                            forward, init_network, load_model, loss_mse,
                            param_count, save_model, train)
from nucaug.optimizers import OptimizerConfig

TABLE_PARAM_COUNTS = {
    (128,): 513,
    (32, 32): 1185,
    (64, 16): 1249,
    (32, 32, 8): 1425,
    (32, 16, 8): 769,
    (64, 16, 8): 1377,
    (32, 16, 8, 4): 801,
    (32, 16, 16, 8): 1041,
    (32, 32, 8, 8): 1497,
    (64, 16, 8, 4): 1409,
}


def records(n=40, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        z = 8 + i
        nn = z + int(rng.integers(0, 6))
        out.append(NuclideRecord(z=z, n=nn, a=z + nn,
                                 be_total=8.0 * (z + nn) + rng.normal(0, 2),
                                 be_err=0.05, estimated=False))
    return out


class TestSpecAndCounts:
    @pytest.mark.parametrize("widths,expected", sorted(TABLE_PARAM_COUNTS.items()))
    def test_param_count(self, widths, expected):
        assert param_count(NetworkSpec(widths)) == expected

    def test_arch_label(self):
        assert NetworkSpec((32, 16, 8)).arch_label == "32-16-8"

    def test_parse_arch_reads_every_label(self):
        for widths, _, _ in ARCH_SETTINGS:
            assert network.parse_arch(network.arch_label(widths)) == widths
            assert NetworkSpec(widths).arch_label == network.arch_label(widths)

    def test_parse_arch_reads_only_the_syntax(self):
        # whether the widths make a network is NetworkSpec's rule (TestTrialSettingRules)
        assert network.parse_arch("32-0-8") == (32, 0, 8)

    @pytest.mark.parametrize("text", ["32--8", "", "32-x", "-8", "32-"])
    def test_parse_arch_rejects(self, text):
        with pytest.raises(ValueError):
            network.parse_arch(text)

    def test_invalid_specs(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(())
        with pytest.raises(ConfigurationError):
            NetworkSpec((8, 0))
        with pytest.raises(ConfigurationError):
            NetworkSpec((8,), activation="softplus")


class TestInit:
    def test_deterministic(self):
        spec = NetworkSpec((32, 16))
        a = init_network(spec, 3)
        b = init_network(spec, 3)
        c = init_network(spec, 4)
        assert np.array_equal(a.flat, b.flat)
        assert not np.array_equal(a.flat, c.flat)

    def test_biases_zero(self):
        params = init_network(NetworkSpec((16, 8)), 0)
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_glorot_scale(self):
        # wide hidden->hidden layer so the empirical std is tight around
        # sqrt(2/(fi+fo))
        spec = NetworkSpec((300, 400))
        params = init_network(spec, 12)
        W = params.weights[1]
        expected = math.sqrt(2.0 / (300 + 400))
        assert W.std() == pytest.approx(expected, rel=0.02)
        assert abs(W.mean()) < 3 * expected / math.sqrt(W.size)

    def test_views_share_storage(self):
        params = init_network(NetworkSpec((4, 3)), 0)
        params.flat[:] = 7.0
        assert all(np.all(W == 7.0) for W in params.weights)
        assert all(np.all(b == 7.0) for b in params.biases)


class TestForward:
    def test_hand_computed_relu(self):
        spec = NetworkSpec((2,))
        params = NetworkParams(spec, np.zeros(param_count(spec)))
        params.weights[0][:] = [[1.0, -1.0], [0.5, 2.0]]
        params.biases[0][:] = [0.1, -0.2]
        params.weights[1][:] = [[1.0], [-1.0]]
        params.biases[1][:] = [0.3]
        # x = (1, 2): hidden pre-act (2.1, 2.8), relu passes both,
        # output 2.1 - 2.8 + 0.3 = -0.4
        assert forward(params, [[1.0, 2.0]])[0] == pytest.approx(-0.4, abs=1e-12)
        # x = (-1, -2): hidden pre-act (-1.9, -4.2) both clipped, output 0.3
        assert forward(params, [[-1.0, -2.0]])[0] == pytest.approx(0.3, abs=1e-12)

    def test_hand_computed_tanh_sigmoid(self):
        for act, fn in (("tanh", math.tanh),
                        ("sigmoid", lambda v: 1.0 / (1.0 + math.exp(-v)))):
            spec = NetworkSpec((1,), activation=act)
            params = NetworkParams(spec, np.zeros(param_count(spec)))
            params.weights[0][:] = [[0.7], [-0.3]]
            params.biases[0][:] = [0.2]
            params.weights[1][:] = [[2.0]]
            params.biases[1][:] = [-1.0]
            x = (0.5, 1.5)
            expected = 2.0 * fn(0.7 * x[0] - 0.3 * x[1] + 0.2) - 1.0
            assert forward(params, [list(x)])[0] == pytest.approx(expected, abs=1e-12)

    def test_wrong_input_dim(self):
        params = init_network(NetworkSpec((4,)), 0)
        with pytest.raises(ConfigurationError):
            forward(params, np.zeros((3, 5)))


class TestLoss:
    def test_value(self):
        assert loss_mse([1.0, 2.0, 3.0], [1.0, 0.0, 6.0]) == pytest.approx(13.0 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            loss_mse([1.0], [1.0, 2.0])


class TestGradients:
    def test_finite_difference_100_networks(self):
        # randomized parameters (biases included) keep ReLU pre-activations
        # off the kink, where the two-sided difference would be meaningless
        rng = np.random.default_rng(20230707)
        h = 1e-5
        worst = 0.0
        for trial in range(100):
            depth = int(rng.integers(1, 4))
            widths = tuple(int(rng.integers(2, 7)) for _ in range(depth))
            act = ("relu", "tanh", "sigmoid")[trial % 3]
            spec = NetworkSpec(widths, activation=act)
            params = NetworkParams(spec, rng.normal(0.0, 0.7,
                                                    size=param_count(spec)))
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            grad = backward(params, X, y)
            for j in range(grad.size):
                orig = params.flat[j]
                params.flat[j] = orig + h
                lp = loss_mse(forward(params, X), y)
                params.flat[j] = orig - h
                lm = loss_mse(forward(params, X), y)
                params.flat[j] = orig
                numeric = (lp - lm) / (2 * h)
                rel = abs(grad[j] - numeric) / max(abs(grad[j]),
                                                   abs(numeric), 1e-4)
                worst = max(worst, rel)
        assert worst < 1e-5, f"worst relative gradient error {worst:.3e}"

    def test_batch_mean_scaling(self):
        # duplicating every sample must leave the mean gradient unchanged
        rng = np.random.default_rng(5)
        spec = NetworkSpec((6, 4), activation="tanh")
        params = NetworkParams(spec, rng.normal(size=param_count(spec)))
        X = rng.normal(size=(7, 2))
        y = rng.normal(size=7)
        g1 = backward(params, X, y)
        g2 = backward(params, np.vstack([X, X]), np.concatenate([y, y]))
        np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-14)


class TestTraining:
    def small_set(self):
        return identity_set(records(40))

    def test_deterministic(self):
        spec = NetworkSpec((8, 8))
        cfg = TrainConfig(epochs=30, batch_size=16, init_seed=1, shuffle_seed=1)
        opt = OptimizerConfig()
        m1 = train(spec, self.small_set(), cfg, opt)
        m2 = train(spec, self.small_set(), cfg, opt)
        assert np.array_equal(m1.params.flat, m2.params.flat)
        assert m1.loss_history == m2.loss_history

    def test_seed_changes_outcome(self):
        spec = NetworkSpec((8, 8))
        opt = OptimizerConfig()
        m1 = train(spec, self.small_set(),
                   TrainConfig(epochs=10, batch_size=16, init_seed=1), opt)
        m2 = train(spec, self.small_set(),
                   TrainConfig(epochs=10, batch_size=16, init_seed=2), opt)
        assert not np.array_equal(m1.params.flat, m2.params.flat)

    def test_one_call_per_batch_through_module_attributes(self, monkeypatch):
        # the benchmark's traced run times these two calls by patching the
        # module attributes and checks one of each per batch; train must
        # look them up there and must not fuse or stack steps
        calls = {"fwd_bwd": 0, "step": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(network, "_forward_backward",
                            counted("fwd_bwd", network._forward_backward))
        monkeypatch.setattr(network, "optimizer_step",
                            counted("step", network.optimizer_step))
        rows, batch, epochs = 40, 16, 7     # last batch of each epoch has 8 rows
        train(NetworkSpec((8, 8)), identity_set(records(rows)),
              TrainConfig(epochs=epochs, batch_size=batch), OptimizerConfig())
        steps = epochs * math.ceil(rows / batch)
        assert calls == {"fwd_bwd": steps, "step": steps}

    def test_loss_decreases(self):
        spec = NetworkSpec((16, 8))
        model = train(spec, self.small_set(),
                      TrainConfig(epochs=300, batch_size=16), OptimizerConfig())
        assert model.loss_history[-1] < 0.05 * model.loss_history[0]

    def test_standardization_stats_from_originals_only(self):
        base = records(40)
        aug = gaussian_resample(base, 3, noise_seed=0)
        spec = NetworkSpec((4,))
        cfg = TrainConfig(epochs=1, batch_size=16)
        model = train(spec, aug, cfg, OptimizerConfig())
        X = np.array([[r.z, r.a] for r in base], dtype=float)
        np.testing.assert_allclose(model.input_mean, X.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(model.input_std, X.std(axis=0), rtol=1e-12)
        y = np.array([r.be_total for r in base])
        assert model.target_mean == pytest.approx(y.mean(), rel=1e-12)
        assert model.target_std == pytest.approx(y.std(), rel=1e-12)

    def test_loss_history_in_mev_units(self):
        # with one epoch of a tiny net, the reported loss must be close to
        # the raw-target variance, not the unit variance of z-scored targets
        spec = NetworkSpec((2,))
        model = train(spec, self.small_set(),
                      TrainConfig(epochs=1, batch_size=40), OptimizerConfig())
        y = self.small_set().rows["energy"]
        assert 0.3 * y.var() < model.loss_history[0] < 3.0 * y.var()

    def test_predict_shape_and_scale(self):
        model = train(NetworkSpec((16, 8)), self.small_set(),
                      TrainConfig(epochs=200, batch_size=16), OptimizerConfig())
        base = records(40)
        pred = model.predict([r.z for r in base], [r.a for r in base])
        truth = np.array([r.be_total for r in base])
        assert pred.shape == truth.shape
        assert np.sqrt(np.mean((pred - truth) ** 2)) < 0.1 * truth.std()

    def test_empty_training_set_rejected(self):
        from nucaug.augment import ROW_DTYPE, AugmentedTrainingSet
        empty = AugmentedTrainingSet(rows=np.empty(0, dtype=ROW_DTYPE), technique="none")
        with pytest.raises(ConfigurationError):
            train(NetworkSpec((4,)), empty,
                  TrainConfig(epochs=1, batch_size=4), OptimizerConfig())

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError, match="^epochs must be >= 1, got 0$"):
            TrainConfig(epochs=0, batch_size=4)
        with pytest.raises(ConfigurationError, match="^batch_size must be >= 1, got 0$"):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1$"):
            TrainConfig(epochs=1, batch_size=4, init_seed=-1)
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1$"):
            TrainConfig(epochs=1, batch_size=4, shuffle_seed=-1)


class TestModelIO:
    def test_round_trip_bit_exact(self, tmp_path):
        model = train(NetworkSpec((8, 4), activation="tanh"),
                      identity_set(records(30)),
                      TrainConfig(epochs=20, batch_size=8), OptimizerConfig())
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.params.flat, model.params.flat)
        assert back.params.spec == model.params.spec
        assert back.loss_history == model.loss_history
        assert back.target_mean == model.target_mean
        assert back.target_std == model.target_std
        z = [10, 20, 30]
        a = [22, 45, 64]
        assert np.array_equal(back.predict(z, a), model.predict(z, a))

    def test_version_guard(self, tmp_path):
        model = train(NetworkSpec((4,)), identity_set(records(10)),
                      TrainConfig(epochs=1, batch_size=4), OptimizerConfig())
        path = tmp_path / "model.npz"
        real = network.MODEL_FORMAT_VERSION
        try:
            network.MODEL_FORMAT_VERSION = real + 1
            save_model(model, path)
        finally:
            network.MODEL_FORMAT_VERSION = real
        with pytest.raises(DataIntegrityError) as exc:
            load_model(path)
        assert str(exc.value) == (
            f"{path} is not a model file: unsupported model format version {real + 1}")

    def test_file_keys_and_dims(self, tmp_path):
        model = train(NetworkSpec((4,)), identity_set(records(10)),
                      TrainConfig(epochs=1, batch_size=4), OptimizerConfig())
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as data:
            assert sorted(data.files) == ["flat", "input_mean", "input_std", "meta",
                                          "target_stats"]
            meta = json.loads(bytes(data["meta"]).decode())
        assert sorted(meta) == ["activation", "format_version", "hidden_widths",
                                "input_dim", "loss_history", "output_dim"]
        assert (meta["format_version"], meta["input_dim"], meta["output_dim"]) == (1, 2, 1)

    @pytest.mark.parametrize("dims", [{"input_dim": 3}, {"output_dim": 3},
                                      {"output_dim": 0}, {"input_dim": "2"}])
    def test_other_dims_rejected(self, tmp_path, edit_model_meta, dims):
        # every model maps (Z, A) to one energy
        model = train(NetworkSpec((4,)), identity_set(records(10)),
                      TrainConfig(epochs=1, batch_size=4), OptimizerConfig())
        path = tmp_path / "model.npz"
        save_model(model, path)
        edit_model_meta(path, **dims)
        meta = {"input_dim": 2, "output_dim": 1, **dims}
        with pytest.raises(DataIntegrityError) as exc:
            load_model(path)
        assert str(exc.value) == (
            f"{path} is not a model file: input_dim {meta['input_dim']!r} and "
            f"output_dim {meta['output_dim']!r}, expected 2 and 1")
