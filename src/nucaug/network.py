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

ACTIVATIONS = ("relu", "tanh", "sigmoid")

MODEL_FORMAT_VERSION = 1


def arch_label(widths) -> str:
    """The label of a set of hidden widths, like "32-16-8"."""
    return "-".join(map(str, widths))


def parse_arch(text: str) -> tuple[int, ...]:
    """The hidden widths an arch label names; ValueError unless it is hyphenated integers."""
    return tuple(int(w) for w in text.split("-"))


def check_network(hidden_widths: tuple[int, ...], activation: str) -> None:
    """Raise ConfigurationError unless there is a hidden width and each is >= 1,
    and the activation is one of ACTIVATIONS."""
    if not hidden_widths or min(hidden_widths) < 1:
        raise ConfigurationError(f"hidden widths must be >= 1, got {hidden_widths}")
    if activation not in ACTIVATIONS:
        raise ConfigurationError(
            f"activation must be one of {', '.join(ACTIVATIONS)}, got {activation!r}")


@dataclass(frozen=True)
class NetworkSpec:
    hidden_widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        check_network(self.hidden_widths, self.activation)

    def layer_dims(self) -> list[tuple[int, int]]:
        widths = (2, *self.hidden_widths, 1)  # (Z, A) -> one energy
        return list(zip(widths[:-1], widths[1:]))

    @property
    def arch_label(self) -> str:
        return arch_label(self.hidden_widths)


def param_count(spec: NetworkSpec) -> int:
    """Total scalar parameters: sum over layers of (fan_in + 1) * fan_out."""
    return sum((fi + 1) * fo for fi, fo in spec.layer_dims())


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


def init_network(spec: NetworkSpec, init_seed: int) -> NetworkParams:
    """Glorot-normal weights, zero biases, deterministic under init_seed."""
    rng = np.random.default_rng(init_seed)
    params = NetworkParams(spec, np.zeros(param_count(spec)))
    for W in params.weights:
        fi, fo = W.shape
        W[...] = rng.normal(0.0, np.sqrt(2.0 / (fi + fo)), size=(fi, fo))
    return params


def _activate(name: str, a: np.ndarray) -> np.ndarray:
    """Activation of the pre-activation a; relu overwrites a in place."""
    if name == "relu":
        return np.maximum(a, 0.0, out=a)
    if name == "tanh":
        return np.tanh(a)
    return 1.0 / (1.0 + np.exp(-a))  # sigmoid


def _scale_by_activation_grad(name: str, delta: np.ndarray, h: np.ndarray) -> None:
    """delta *= the activation's derivative, in place, from its output h."""
    # all three derivatives are expressible from the activation output
    if name == "relu":
        delta *= h > 0.0
    elif name == "tanh":
        delta *= 1.0 - h * h
    else:
        delta *= h * (1.0 - h)


def _layer_outputs(params: NetworkParams, X: np.ndarray) -> list[np.ndarray]:
    """X, then each layer's output; the last is affine, one column wide."""
    act = params.spec.activation
    last = len(params.weights) - 1
    h = X
    hs = [X]
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        h = np.dot(h, W)
        h += b
        if i < last:
            h = _activate(act, h)
        hs.append(h)
    return hs


def forward(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Predictions for a batch of (already standardized) inputs, shape (B, in)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != 2:
        raise ConfigurationError(f"input dim {X.shape[1]} != 2")
    return _layer_outputs(params, X)[-1][:, 0]


@np.errstate(over="ignore", invalid="ignore")
def loss_mse(predictions, targets) -> float:
    """mean((pred - target)^2); inf, without a numpy warning, on overflow."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ConfigurationError("loss_mse needs equal-length nonempty inputs")
    d = predictions - targets
    return float(np.mean(d * d))


def backward(params: NetworkParams, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact gradient of batch-mean MSE, as a flat vector matching params.flat."""
    grad = np.empty_like(params.flat)
    gview = NetworkParams(params.spec, grad)
    _forward_backward(params, gview, X, y)
    return grad


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
    # not loss_mse: np.mean sums pairwise, so its last bit can differ
    loss = float(np.dot(diff, diff)) / diff.size

    # delta holds dL/d(pre-activation of layer i) while walking backwards
    act = params.spec.activation
    delta = (2.0 / diff.size) * diff[:, None]
    for i in range(len(hs) - 2, -1, -1):
        np.dot(hs[i].T, delta, out=grad.weights[i])
        np.add.reduce(delta, axis=0, out=grad.biases[i])
        if i > 0:
            delta = np.dot(delta, params.weights[i].T)
            _scale_by_activation_grad(act, delta, hs[i])
    return loss


def check_training(epochs: int, batch_size: int, *seeds: int) -> None:
    """Raise ConfigurationError unless epochs and batch_size are >= 1 and each seed >= 0."""
    for name, value, low in (("epochs", epochs, 1), ("batch_size", batch_size, 1),
                             *(("seed", seed, 0) for seed in seeds)):
        if value < low:
            raise ConfigurationError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    init_seed: int = 0
    shuffle_seed: int = 0

    def __post_init__(self):
        check_training(self.epochs, self.batch_size, self.init_seed, self.shuffle_seed)


@dataclass
class TrainedModel:
    params: NetworkParams
    input_mean: np.ndarray   # per-input-feature, from the original training rows
    input_std: np.ndarray
    target_mean: float
    target_std: float
    loss_history: list[float]  # MeV^2 per epoch

    def predict(self, z, a) -> np.ndarray:
        X = np.column_stack([np.asarray(z, dtype=np.float64).ravel(),
                             np.asarray(a, dtype=np.float64).ravel()])
        raw = forward(self.params, (X - self.input_mean) / self.input_std)
        return raw * self.target_std + self.target_mean


@np.errstate(over="ignore", invalid="ignore")
def train(spec: NetworkSpec, train_set: AugmentedTrainingSet,
          config: TrainConfig, opt: OptimizerConfig) -> TrainedModel:
    """Mini-batch training; fully deterministic given data, seeds and configs.

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

    params = init_network(spec, config.init_seed)
    grad_flat = np.empty_like(params.flat)
    grad = NetworkParams(spec, grad_flat)
    state = init_state(opt, params.flat.size)
    shuffle_rng = np.random.default_rng(config.shuffle_seed)

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
            optimizer_step(state, opt, params.flat, grad_flat)
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
            return TrainedModel(params=NetworkParams(spec, data["flat"].copy()),
                                input_mean=data["input_mean"].copy(),
                                input_std=data["input_std"].copy(),
                                target_mean=float(data["target_stats"][0]),
                                target_std=float(data["target_stats"][1]),
                                loss_history=list(meta["loss_history"]))
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataIntegrityError(f"{path} is not a model file: {exc}") from None
