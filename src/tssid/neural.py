"""From-scratch neural predictors: feedforward and stacked LSTM.

Both families share conventions:

* parameters live in one flat float64 vector (layouts documented in
  :mod:`tssid.kernels`), which keeps optimizers and finite-difference
  checks trivial;
* training minimizes mean squared error with manual gradients
  (backpropagation for the MLP, full backpropagation-through-time for the
  LSTM), verified against central finite differences in the test suite;
* all randomness (weight init, batch shuffling) derives from the training
  seed.

The feedforward net maps one sample of scaled features to scaled torque.
The LSTM consumes lookback windows and emits a prediction at every step
of the window; training averages the loss over all steps, prediction uses
the last step of each sliding window (the first ``lookback - 1`` samples
of a series come from the first window's early steps).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .errors import (
    ComputationError,
    DimensionMismatch,
    EmptyDataset,
    IoError,
    LengthMismatch,
    SeriesTooShort,
    ShapeMismatch,
)
from .flightdata import (FlightRecord, ManeuverSegment, ScalerParams, atomic_open, scale_series,
                         unscale_series)
from .seeding import derive_seed

OPTIMIZERS = ("rmsprop", "adam")


@dataclass(frozen=True)
class MLPConfig:
    """Feedforward architecture: ReLU hidden layers, linear scalar head."""

    input_dim: int
    hidden_layers: tuple[int, ...] = (24, 24, 24, 24)
    output_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if self.input_dim < 1 or self.output_dim < 1:
            raise DimensionMismatch("input_dim and output_dim must be >= 1")
        if any(h < 1 for h in self.hidden_layers):
            raise DimensionMismatch("hidden layer widths must be >= 1")

    @property
    def sizes(self) -> np.ndarray:
        return np.array((self.input_dim,) + self.hidden_layers + (self.output_dim,),
                        dtype=np.int64)

    @property
    def n_params(self) -> int:
        s = self.sizes
        return int(sum(s[i] * s[i + 1] + s[i + 1] for i in range(len(s) - 1)))


@dataclass(frozen=True)
class LSTMConfig:
    """Stacked LSTM architecture with a per-step scalar linear head."""

    input_dim: int
    hidden_size: int = 6
    num_layers: int = 3
    lookback: int = 20

    def __post_init__(self):
        if min(self.input_dim, self.hidden_size, self.num_layers, self.lookback) < 1:
            raise DimensionMismatch("all LSTM dimensions must be >= 1")

    @property
    def n_params(self) -> int:
        h = self.hidden_size
        n = 0
        fin = self.input_dim
        for _ in range(self.num_layers):
            n += fin * 4 * h + h * 4 * h + 4 * h
            fin = h
        return n + h + 1


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Xavier-uniform matrix: U(-limit, limit), limit = sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def init_mlp_params(config: MLPConfig, seed: int) -> np.ndarray:
    """Xavier weights, zero biases, in flat layout."""
    rng = np.random.default_rng(seed)
    sizes = config.sizes
    parts = []
    for l in range(len(sizes) - 1):
        parts.append(_xavier(rng, int(sizes[l]), int(sizes[l + 1])).reshape(-1))
        parts.append(np.zeros(int(sizes[l + 1])))
    return np.concatenate(parts)


def init_lstm_params(config: LSTMConfig, seed: int) -> np.ndarray:
    """Per-gate Xavier weights, zero biases except forget-gate bias +1."""
    rng = np.random.default_rng(seed)
    h = config.hidden_size
    parts = []
    fin = config.input_dim
    for _ in range(config.num_layers):
        wx = np.hstack([_xavier(rng, fin, h) for _ in range(4)])
        wh = np.hstack([_xavier(rng, h, h) for _ in range(4)])
        b = np.zeros(4 * h)
        b[h:2 * h] = 1.0
        parts.extend([wx.reshape(-1), wh.reshape(-1), b])
        fin = h
    parts.append(_xavier(rng, h, 1).reshape(-1))
    parts.append(np.zeros(1))
    return np.concatenate(parts)


def _check_params(config, params: np.ndarray) -> np.ndarray:
    params = np.ascontiguousarray(params, dtype=np.float64)
    if params.ndim != 1 or params.shape[0] != config.n_params:
        raise ShapeMismatch(
            f"parameter vector has {params.shape}, expected ({config.n_params},)"
        )
    return params


def mlp_forward(config: MLPConfig, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batch forward pass; a 1-D input returns a 1-D output."""
    params = _check_params(config, params)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise DimensionMismatch(
            f"input has shape {x.shape}, expected (batch, {config.input_dim})"
        )
    out = kernels.mlp_forward(params, config.sizes, np.ascontiguousarray(x))
    return out[0] if single else out


def mlp_backward(config: MLPConfig, params: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> tuple[float, np.ndarray]:
    """MSE loss and gradient on one batch; targets shaped (batch, output_dim)."""
    params = _check_params(config, params)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise DimensionMismatch(f"input has shape {x.shape}")
    if y.shape != (x.shape[0], config.output_dim):
        raise LengthMismatch(
            f"targets have shape {y.shape}, expected ({x.shape[0]}, {config.output_dim})"
        )
    if x.shape[0] == 0:
        raise EmptyDataset("empty batch")
    loss, grad = kernels.mlp_value_and_grad(params, config.sizes, x, y)
    return float(loss), grad


def lstm_forward(config: LSTMConfig, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Forward pass over windows (batch, T, input_dim) -> (batch, T)."""
    params = _check_params(config, params)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[None, :, :]
    if x.ndim != 3 or x.shape[2] != config.input_dim:
        raise DimensionMismatch(
            f"input has shape {x.shape}, expected (batch, T, {config.input_dim})"
        )
    # the kernel makes each block of windows contiguous itself, so a
    # strided view of a series is never copied whole
    out = kernels.lstm_forward(params, config.input_dim, config.hidden_size,
                               config.num_layers, x)
    return out[0] if single else out


def lstm_backward(config: LSTMConfig, params: np.ndarray, x: np.ndarray,
                  y: np.ndarray) -> tuple[float, np.ndarray]:
    """MSE loss (mean over batch and steps) and BPTT gradient."""
    params = _check_params(config, params)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != config.input_dim:
        raise DimensionMismatch(f"windows have shape {x.shape}")
    if y.shape != x.shape[:2]:
        raise LengthMismatch(
            f"targets have shape {y.shape}, expected {x.shape[:2]}"
        )
    if x.shape[0] == 0:
        raise EmptyDataset("empty batch")
    loss, grad = kernels.lstm_value_and_grad(params, config.input_dim,
                                             config.hidden_size, config.num_layers,
                                             x, y)
    return float(loss), grad


# --- datasets -------------------------------------------------------------------

@dataclass(frozen=True)
class TabularData:
    """Per-sample features and targets for the feedforward net."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64).reshape(-1)
        if X.ndim != 2:
            raise DimensionMismatch("TabularData.X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise LengthMismatch(
                f"X has {X.shape[0]} rows, y has {y.shape[0]}"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.X.shape[0])


@dataclass(frozen=True)
class WindowedData:
    """Lookback windows and per-step targets for the LSTM."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.inputs, dtype=np.float64)
        y = np.ascontiguousarray(self.targets, dtype=np.float64)
        if X.ndim != 3 or y.ndim != 2 or y.shape != X.shape[:2]:
            raise DimensionMismatch(
                f"windows {X.shape} and targets {y.shape} are inconsistent"
            )
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


def make_windows(features: np.ndarray, target: np.ndarray, lookback: int,
                 stride: int = 1,
                 segments: Sequence[ManeuverSegment] | None = None) -> WindowedData:
    """Slice a series into lookback windows.

    Windows never cross segment boundaries and excluded segments yield
    none.  Each segment of length L contributes
    ``max(0, (L - lookback)//stride + 1)`` windows.  A series shorter
    than the lookback yields an empty dataset.
    """
    features = np.asarray(features, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if features.ndim == 1:
        features = features[:, None]
    if features.shape[0] != target.shape[0]:
        raise LengthMismatch(
            f"features have {features.shape[0]} rows, target has {target.shape[0]}"
        )
    if lookback < 1 or stride < 1:
        raise DimensionMismatch("lookback and stride must be >= 1")
    m = features.shape[0]
    if segments is None:
        segments = [ManeuverSegment("all", 0, m)] if m else []
    starts = [np.empty(0, dtype=np.intp)]
    for seg in segments:
        if seg.excluded:
            continue
        if seg.end_index > m:
            raise LengthMismatch(
                f"segment {seg.label!r} ends at {seg.end_index}, series has {m}"
            )
        starts.append(np.arange(seg.start_index, seg.end_index - lookback + 1, stride))
    rows = np.concatenate(starts)[:, None] + np.arange(lookback)
    return WindowedData(features[rows], target[rows])


# --- optimizers -----------------------------------------------------------------

@dataclass
class OptimizerState:
    """Accumulators for RMSprop (v) and Adam (m, v, t)."""

    kind: str
    v: np.ndarray
    m: np.ndarray | None = None
    t: int = 0


def init_optimizer(kind: str, n_params: int) -> OptimizerState:
    if kind not in OPTIMIZERS:
        raise LengthMismatch(f"optimizer must be one of {OPTIMIZERS}, got {kind!r}")
    m = np.zeros(n_params) if kind == "adam" else None
    return OptimizerState(kind, np.zeros(n_params), m, 0)


def step_rmsprop(params: np.ndarray, grads: np.ndarray, state: OptimizerState,
                 learning_rate: float, decay: float = 0.99,
                 eps: float = 1e-8) -> tuple[np.ndarray, OptimizerState]:
    """v <- decay*v + (1-decay)*g^2;  p <- p - lr * g / (sqrt(v) + eps)."""
    if params.shape != grads.shape or params.shape != state.v.shape:
        raise ShapeMismatch("params, grads and state must share one shape")
    v = decay * state.v + (1.0 - decay) * grads * grads
    new_params = params - learning_rate * grads / (np.sqrt(v) + eps)
    return new_params, OptimizerState("rmsprop", v, None, state.t + 1)


def step_adam(params: np.ndarray, grads: np.ndarray, state: OptimizerState,
              learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[np.ndarray, OptimizerState]:
    """Adam with bias correction."""
    if state.m is None:
        raise ShapeMismatch("Adam state needs the first-moment accumulator")
    if params.shape != grads.shape or params.shape != state.v.shape:
        raise ShapeMismatch("params, grads and state must share one shape")
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * grads * grads
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    new_params = params - learning_rate * mhat / (np.sqrt(vhat) + eps)
    return new_params, OptimizerState("adam", v, m, t)


# --- training ---------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "rmsprop"
    learning_rate: float = 1e-4
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise LengthMismatch(f"optimizer must be one of {OPTIMIZERS}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise LengthMismatch("learning_rate, batch_size and epochs must be positive")


@dataclass(frozen=True)
class TrainedNet:
    """A trained predictor plus everything needed to apply it."""

    kind: str  # "ffnn" | "lstm"
    model_config: MLPConfig | LSTMConfig
    train_config: TrainConfig
    params: np.ndarray
    train_mse: np.ndarray
    val_mse: np.ndarray
    feature_names: tuple[str, ...] = ()
    target_name: str = "TRQ"
    scaler_bounds: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    fingerprint: str = ""

    def __post_init__(self):
        p = np.array(self.params, dtype=np.float64, copy=True)
        p.setflags(write=False)
        object.__setattr__(self, "params", p)
        object.__setattr__(
            self, "scaler_bounds",
            {k: (float(v[0]), float(v[1])) for k, v in dict(self.scaler_bounds).items()},
        )

    @property
    def scaler(self) -> ScalerParams:
        return ScalerParams(self.scaler_bounds)


def _full_mse(kind: str, model_config, params, data) -> float:
    if len(data) == 0:
        return float("nan")
    if kind == "ffnn":
        pred = kernels.mlp_forward(params, model_config.sizes, data.X)
        d = pred[:, 0] - data.y
    else:
        pred = kernels.lstm_forward(params, model_config.input_dim,
                                    model_config.hidden_size,
                                    model_config.num_layers, data.inputs)
        d = (pred - data.targets).reshape(-1)
    return float(np.mean(d * d))


def train(model_config: MLPConfig | LSTMConfig, train_config: TrainConfig,
          train_data: TabularData | WindowedData,
          val_data: TabularData | WindowedData | None = None) -> TrainedNet:
    """Mini-batch training loop.

    Initialization and shuffling derive from ``train_config.seed``; the
    loop records full-dataset train and validation MSE after every epoch.
    """
    if isinstance(model_config, MLPConfig):
        kind = "ffnn"
        if not isinstance(train_data, TabularData):
            raise DimensionMismatch("MLP training needs TabularData")
        params = init_mlp_params(model_config, derive_seed(train_config.seed, "init"))
        step_batch = lambda p, xb, yb: kernels.mlp_value_and_grad(
            p, model_config.sizes, xb, yb)
    elif isinstance(model_config, LSTMConfig):
        kind = "lstm"
        if not isinstance(train_data, WindowedData):
            raise DimensionMismatch("LSTM training needs WindowedData")
        params = init_lstm_params(model_config, derive_seed(train_config.seed, "init"))
        step_batch = lambda p, xb, yb: kernels.lstm_value_and_grad(
            p, model_config.input_dim, model_config.hidden_size,
            model_config.num_layers, xb, yb)
    else:
        raise DimensionMismatch(f"unknown model config {type(model_config).__name__}")

    n = len(train_data)
    if n == 0:
        raise EmptyDataset("no training samples")

    opt = init_optimizer(train_config.optimizer, model_config.n_params)
    stepper = step_rmsprop if train_config.optimizer == "rmsprop" else step_adam
    rng = np.random.default_rng(derive_seed(train_config.seed, "shuffle"))

    train_hist = np.empty(train_config.epochs)
    val_hist = np.empty(train_config.epochs)
    bs = min(train_config.batch_size, n)
    # A diverging run overflows before its epoch check can stop it; the
    # check below reports it, so numpy's warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(train_config.epochs):
            order = rng.permutation(n) if train_config.shuffle else np.arange(n)
            for lo in range(0, n, bs):
                idx = order[lo:lo + bs]
                if kind == "ffnn":
                    xb = np.ascontiguousarray(train_data.X[idx])
                    yb = np.ascontiguousarray(train_data.y[idx][:, None])
                else:
                    xb = np.ascontiguousarray(train_data.inputs[idx])
                    yb = np.ascontiguousarray(train_data.targets[idx])
                _, grad = step_batch(params, xb, yb)
                params, opt = stepper(params, grad, opt, train_config.learning_rate)
            train_hist[epoch] = _full_mse(kind, model_config, params, train_data)
            if not np.isfinite(train_hist[epoch]):
                raise ComputationError(
                    f"{kind} training diverged at epoch {epoch + 1}: train MSE is "
                    f"{train_hist[epoch]}; no weights were saved")
            val_hist[epoch] = (_full_mse(kind, model_config, params, val_data)
                               if val_data is not None else float("nan"))
    return TrainedNet(kind, model_config, train_config, params, train_hist, val_hist)


def predict_series(net: TrainedNet, record: FlightRecord) -> np.ndarray:
    """Physical torque prediction for every sample of a flight.

    Features are scaled with the stored training bounds, the network runs
    in scaled space, and the output is mapped back through the target
    channel's bounds.  The LSTM slides a stride-1 window over the whole
    series; the first ``lookback - 1`` samples take the first window's
    early-step outputs.
    """
    if not net.feature_names:
        raise DimensionMismatch("net carries no feature names; cannot predict")
    scaler = net.scaler
    cols = [scale_series(scaler, nm, record.values(nm)) for nm in net.feature_names]
    X = np.column_stack(cols)
    if net.kind == "ffnn":
        out = mlp_forward(net.model_config, net.params, X)[:, 0]
        return unscale_series(scaler, net.target_name, out)
    lb = net.model_config.lookback
    m = X.shape[0]
    if m < lb:
        raise SeriesTooShort(
            f"flight {record.flight_id!r} has {m} samples, lookback is {lb}"
        )
    # stride-1 windows as a view; lstm_forward copies them block by block
    wins = sliding_window_view(X, (lb, X.shape[1]))[:, 0]
    y = lstm_forward(net.model_config, net.params, wins)
    pred = np.empty(m)
    pred[:lb - 1] = y[0, :lb - 1]
    pred[lb - 1:] = y[:, lb - 1]
    return unscale_series(scaler, net.target_name, pred)


# --- persistence -------------------------------------------------------------------

_NET_MAGIC = b"TSSIDNET v1\n"


def save_net(net: TrainedNet, path: str | Path) -> None:
    """Binary weights file: magic, JSON header, raw little-endian float64.

    The header is serialized with sorted keys and the params hold exact
    bit patterns, so identical nets produce identical bytes.
    """
    mc = net.model_config
    if net.kind == "ffnn":
        model = {"type": "mlp", "input_dim": mc.input_dim,
                 "hidden_layers": list(mc.hidden_layers), "output_dim": mc.output_dim}
    else:
        model = {"type": "lstm", "input_dim": mc.input_dim,
                 "hidden_size": mc.hidden_size, "num_layers": mc.num_layers,
                 "lookback": mc.lookback}
    tc = net.train_config
    header = {
        "kind": net.kind,
        "model": model,
        "train": {"optimizer": tc.optimizer, "learning_rate": tc.learning_rate,
                  "batch_size": tc.batch_size, "epochs": tc.epochs,
                  "seed": tc.seed, "shuffle": tc.shuffle},
        "feature_names": list(net.feature_names),
        "target_name": net.target_name,
        "scaler_bounds": {k: [v[0], v[1]] for k, v in net.scaler_bounds.items()},
        "n_params": int(net.params.shape[0]),
        "train_mse": [float(v) for v in net.train_mse],
        "val_mse": [None if np.isnan(v) else float(v) for v in net.val_mse],
        "fingerprint": net.fingerprint,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = net.params.astype("<f8").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(_NET_MAGIC)
        fh.write(struct.pack(">Q", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_net(path: str | Path) -> TrainedNet:
    """Read a weights file written by :func:`save_net` (exact round-trip)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read weights file {path}: {exc}") from exc
    if not raw.startswith(_NET_MAGIC):
        raise IoError(f"{path} is not a tssid weights file")
    off = len(_NET_MAGIC)
    if len(raw) < off + 8:
        raise IoError(f"{path}: truncated header")
    (hlen,) = struct.unpack(">Q", raw[off:off + 8])
    off += 8
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IoError(f"{path}: malformed header: {exc}") from exc
    off += hlen
    model = header.get("model", {})
    try:
        if model["type"] == "mlp":
            mc = MLPConfig(model["input_dim"], tuple(model["hidden_layers"]),
                           model["output_dim"])
        elif model["type"] == "lstm":
            mc = LSTMConfig(model["input_dim"], model["hidden_size"],
                            model["num_layers"], model["lookback"])
        else:
            raise IoError(f"{path}: unknown model type {model['type']!r}")
        t = header["train"]
        tc = TrainConfig(t["optimizer"], t["learning_rate"], t["batch_size"],
                         t["epochs"], t["seed"], t["shuffle"])
        n_params = int(header["n_params"])
    except (KeyError, TypeError) as exc:
        raise IoError(f"{path}: malformed header: {exc}") from exc
    if n_params != mc.n_params:
        raise IoError(
            f"{path}: header claims {n_params} params, architecture needs {mc.n_params}"
        )
    payload = raw[off:]
    if len(payload) != 8 * n_params:
        raise IoError(
            f"{path}: payload holds {len(payload)} bytes, expected {8 * n_params}"
        )
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    val = [float("nan") if v is None else float(v) for v in header.get("val_mse", [])]
    return TrainedNet(
        kind=header.get("kind", model["type"]),
        model_config=mc,
        train_config=tc,
        params=params,
        train_mse=np.array([float(v) for v in header.get("train_mse", [])]),
        val_mse=np.array(val),
        feature_names=tuple(header.get("feature_names", ())),
        target_name=header.get("target_name", "TRQ"),
        scaler_bounds={k: (v[0], v[1]) for k, v in header.get("scaler_bounds", {}).items()},
        fingerprint=header.get("fingerprint", ""),
    )
