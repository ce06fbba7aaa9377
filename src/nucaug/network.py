"""Dense feedforward network built directly on numpy.

The whole parameter set lives in one flat float64 vector; per-layer weight
matrices and bias vectors are reshaped views into it. That keeps the
optimizers to a handful of whole-vector array operations per step, which is
what makes the full sweeps tractable on a single core.

Conventions, fixed for reproducibility:
* Glorot-normal weights, std sqrt(2 / (fan_in + fan_out)); biases start at 0.
* hidden activations: relu, tanh or sigmoid; the output layer is affine.
* ReLU derivative at exactly 0 is 0.
* gradients are batch means, so the learning rate is batch-size independent.
* the last incomplete batch of an epoch is trained, not dropped.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .augment import ORIGIN_ORIGINAL, AugmentedTrainingSet
from .errors import ConfigurationError, DataIntegrityError, TrainingDivergedError
from .optimizers import OptimizerConfig, init_state, optimizer_step

# name -> (activation of a pre-activation, its derivative from the activation's
# output); relu overwrites the pre-activation in place
_ACTIVATIONS = {
    "relu": (lambda a: np.maximum(a, 0.0, out=a), lambda h: h > 0.0),
    "tanh": (np.tanh, lambda h: 1.0 - h * h),
    "sigmoid": (lambda a: 1.0 / (1.0 + np.exp(-a)), lambda h: h * (1.0 - h)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)

MODEL_FORMAT_VERSION = 1


def arch_label(widths) -> str:
    """The label of a set of hidden widths, like "32-16-8"."""
    return "-".join(map(str, widths))


def parse_arch(text: str) -> tuple[int, ...]:
    """The hidden widths an arch label names; ValueError unless it is hyphenated integers."""
    return tuple(int(w) for w in text.split("-"))


# the most float64 values one numpy array can hold
_MAX_PARAMS = np.iinfo(np.intp).max // 8


def _layer_dims(hidden_widths: tuple[int, ...]) -> list[tuple[int, int]]:
    widths = (2, *hidden_widths, 1)  # (Z, A) -> one energy
    return list(zip(widths[:-1], widths[1:]))


def _param_count(hidden_widths: tuple[int, ...]) -> int:
    return sum((fi + 1) * fo for fi, fo in _layer_dims(hidden_widths))


def check_network(hidden_widths: tuple[int, ...], activation: str) -> None:
    """Raise ConfigurationError unless there is a hidden width and each is an
    int (not a bool) >= 1, numpy can size the parameter vector, and the
    activation is one of ACTIVATIONS."""
    if not hidden_widths or not all(type(w) is int and w >= 1 for w in hidden_widths):
        raise ConfigurationError(f"hidden widths must be integers >= 1, got {hidden_widths}")
    if _param_count(hidden_widths) > _MAX_PARAMS:
        raise ConfigurationError(
            f"hidden widths {arch_label(hidden_widths)} need more than {_MAX_PARAMS} "
            "parameters, the most a numpy array holds")
    if activation not in ACTIVATIONS:
        raise ConfigurationError(
            f"activation must be one of {', '.join(ACTIVATIONS)}, got {activation!r}")


@dataclass(frozen=True)
class NetworkSpec:
    hidden_widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        check_network(self.hidden_widths, self.activation)

    def layer_dims(self) -> list[tuple[int, int]]:
        return _layer_dims(self.hidden_widths)


def param_count(spec: NetworkSpec) -> int:
    """Total scalar parameters: sum over layers of (fan_in + 1) * fan_out."""
    return _param_count(spec.hidden_widths)


class NetworkParams:
    """Flat parameter vector plus per-layer weight/bias views into it."""

    def __init__(self, spec: NetworkSpec, flat: np.ndarray):
        if flat.shape != (param_count(spec),) or flat.dtype != np.float64:
            raise ConfigurationError(
                f"flat vector must be float64 of length {param_count(spec)}")
        self.spec = spec
        self.flat = flat
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        off = 0
        for fi, fo in spec.layer_dims():
            self.weights.append(flat[off:off + fi * fo].reshape(fi, fo))
            off += fi * fo
            self.biases.append(flat[off:off + fo])
            off += fo


def init_network(spec: NetworkSpec, seed: int) -> NetworkParams:
    """Glorot-normal weights, zero biases, deterministic under seed."""
    rng = np.random.default_rng(seed)
    params = NetworkParams(spec, np.zeros(param_count(spec)))
    for W in params.weights:
        fi, fo = W.shape
        W[...] = rng.normal(0.0, np.sqrt(2.0 / (fi + fo)), size=(fi, fo))
    return params


def _layer_outputs(params: NetworkParams, X: np.ndarray) -> list[np.ndarray]:
    """X, then each layer's output; the last is affine, one column wide."""
    activate = _ACTIVATIONS[params.spec.activation][0]
    last = len(params.weights) - 1
    h = X
    hs = [X]
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        h = np.dot(h, W)
        h += b
        if i < last:
            h = activate(h)
        hs.append(h)
    return hs


def _forward_backward(params: NetworkParams, grad: NetworkParams,
                      X: np.ndarray, y: np.ndarray) -> float:
    """Fill grad's views with the batch-mean MSE gradient; return the loss.

    This runs once per optimizer step, so it keeps numpy calls few and cheap:
    np.dot rather than the matmul gufunc (same bits, less dispatch; for the
    output layer's (B, 1) x (1, fan_in) product matmul has no BLAS path at
    all), and in-place bias adds, ReLU and derivative products.
    """
    hs = _layer_outputs(params, X)
    diff = hs[-1][:, 0] - y
    # np.dot, not the np.mean of experiment.score: np.mean sums pairwise, so its
    # last bit can differ, and the loss history keeps the dot's bits
    loss = float(np.dot(diff, diff)) / diff.size

    # delta holds dL/d(pre-activation of layer i) while walking backwards
    derivative = _ACTIVATIONS[params.spec.activation][1]
    delta = (2.0 / diff.size) * diff[:, None]
    for i in range(len(hs) - 2, -1, -1):
        np.dot(hs[i].T, delta, out=grad.weights[i])
        np.add.reduce(delta, axis=0, out=grad.biases[i])
        if i > 0:
            delta = np.dot(delta, params.weights[i].T)
            delta *= derivative(hs[i])
    return loss


def check_training(epochs: int, batch_size: int, seed: int) -> None:
    """Raise ConfigurationError unless epochs and batch_size are >= 1 and seed >= 0."""
    for name, value, low in (("epochs", epochs, 1), ("batch_size", batch_size, 1),
                             ("seed", seed, 0)):
        if value < low:
            raise ConfigurationError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    seed: int = 0  # of the initial weights and, from its own generator, the shuffle

    def __post_init__(self):
        check_training(self.epochs, self.batch_size, self.seed)


@dataclass
class TrainedModel:
    params: NetworkParams
    input_mean: np.ndarray   # per-input-feature, from the original training rows
    input_std: np.ndarray
    target_mean: float
    target_std: float
    loss_history: list[float]  # MeV^2 per epoch

    @np.errstate(over="ignore", invalid="ignore")
    def predict(self, z, a) -> np.ndarray:
        """Energies in MeV; inf or nan, without a numpy warning, on overflow."""
        X = np.column_stack([np.asarray(z, dtype=np.float64).ravel(),
                             np.asarray(a, dtype=np.float64).ravel()])
        raw = _layer_outputs(self.params, (X - self.input_mean) / self.input_std)[-1][:, 0]
        return raw * self.target_std + self.target_mean


@np.errstate(over="ignore", invalid="ignore")
def train(spec: NetworkSpec, train_set: AugmentedTrainingSet,
          config: TrainConfig, opt: OptimizerConfig) -> TrainedModel:
    """Mini-batch training; fully deterministic given data, seed and configs.

    Inputs (Z, A) and targets are z-scored with the mean/std of the
    ORIGINAL (pre-augmentation) rows only, and those statistics travel with
    the model; predictions and the loss history are always reported back in
    raw MeV.

    Energies too far apart to standardize, or a step that overflows, end in
    TrainingDivergedError rather than numpy warnings: a non-finite epoch loss
    or final parameter is the one report of it.
    """
    rows = train_set.rows
    if not len(rows):
        raise ConfigurationError("training set is empty")
    X = np.column_stack([rows["z"], rows["a"]]).astype(np.float64)
    y = rows["energy"]

    orig = rows["origin"] == ORIGIN_ORIGINAL
    if not orig.any():
        orig = np.ones(len(rows), dtype=bool)
    base = X[orig]
    mean = base.mean(axis=0)
    std = base.std(axis=0)
    std[std == 0.0] = 1.0
    Xs = (X - mean) / std
    t_mean = float(y[orig].mean())
    t_std = float(y[orig].std()) or 1.0
    ys_all = (y - t_mean) / t_std

    params = init_network(spec, config.seed)
    grad_flat = np.empty_like(params.flat)
    grad = NetworkParams(spec, grad_flat)
    state = init_state(opt, params.flat.size)
    shuffle_rng = np.random.default_rng(config.seed)

    n = len(rows)
    bs = config.batch_size
    history = []
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        Xe = Xs[perm]
        ye = ys_all[perm]
        total = 0.0
        for start in range(0, n, bs):
            xb = Xe[start:start + bs]
            yb = ye[start:start + bs]
            loss = _forward_backward(params, grad, xb, yb)
            total += loss * len(yb)
            optimizer_step(state, params.flat, grad_flat)
        epoch_loss = total / n * (t_std * t_std)  # back to MeV^2
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"non-finite training loss at epoch {epoch + 1}")
        history.append(epoch_loss)
    if not np.isfinite(params.flat).all():
        raise TrainingDivergedError(
            f"non-finite parameters after epoch {config.epochs}")
    return TrainedModel(params=params, input_mean=mean, input_std=std,
                        target_mean=t_mean, target_std=t_std,
                        loss_history=history)


def save_model(model: TrainedModel, path) -> None:
    """Self-describing flat file; loading reproduces predictions bit-exactly."""
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "hidden_widths": list(model.params.spec.hidden_widths),
        "activation": model.params.spec.activation,
        "input_dim": 2,
        "output_dim": 1,
        "loss_history": model.loss_history,
    }
    np.savez(path,
             meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             flat=model.params.flat,
             input_mean=model.input_mean,
             input_std=model.input_std,
             target_stats=np.array([model.target_mean, model.target_std]))


def load_model(path) -> TrainedModel:
    """Read a save_model file; a file that is not one is a DataIntegrityError."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta["format_version"] != MODEL_FORMAT_VERSION:
                raise ValueError(f"unsupported model format version {meta['format_version']}")
            if (meta["input_dim"], meta["output_dim"]) != (2, 1):  # (Z, A) -> one energy
                raise ValueError("input_dim {input_dim!r} and output_dim {output_dim!r}, "
                                 "expected 2 and 1".format(**meta))
            spec = NetworkSpec(hidden_widths=tuple(meta["hidden_widths"]),
                               activation=meta["activation"])
            params = NetworkParams(spec, data["flat"].copy())
            if not np.isfinite(params.flat).all():
                raise ValueError("flat vector must be finite")
            stats = [data[name] for name in ("input_mean", "input_std", "target_stats")]
            if not (all(x.dtype == np.float64 and x.shape == (2,) and np.isfinite(x).all()
                        for x in stats) and min(*stats[1], stats[2][1]) > 0):
                raise ValueError("input_mean, input_std and target_stats must each be 2 "
                                 "finite float64 numbers, with each std > 0")
            history = meta["loss_history"]
            if not (type(history) is list and history and all(
                    type(x) is float and 0 <= x < np.inf for x in history)):
                raise ValueError("loss_history must be a nonempty list of finite floats >= 0")
            return TrainedModel(params, *stats[:2], *stats[2].tolist(), loss_history=history)
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataIntegrityError(f"{path} is not a model file: {exc}") from None
