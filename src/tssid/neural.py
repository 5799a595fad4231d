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
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

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
    TssidError,
)
from .flightdata import (FlightRecord, ManeuverSegment, ScalerParams, atomic_open, scale_series,
                         unscale_series)
from .seeding import derive_seed
from .settings import JSON, MAX_EPOCHS, MAX_LAYERS, MAX_LOOKBACK, MAX_WIDTH, check, read, setting

OPTIMIZERS = ("rmsprop", "adam")


@dataclass(frozen=True)
class MLPConfig:
    """Feedforward architecture: ReLU hidden layers, linear scalar head."""

    header_type: ClassVar[str] = "mlp"  # ``model.type`` in a weights header
    input_dim: int = setting(lo=1, hi=MAX_WIDTH)
    hidden_layers: tuple[int, ...] = setting((24, 24, 24, 24), lo=1, hi=MAX_WIDTH)
    output_dim: int = setting(1, lo=1, hi=MAX_WIDTH)

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        check(self, DimensionMismatch)

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

    header_type: ClassVar[str] = "lstm"
    input_dim: int = setting(lo=1, hi=MAX_WIDTH)
    hidden_size: int = setting(6, lo=1, hi=MAX_WIDTH)
    num_layers: int = setting(3, lo=1, hi=MAX_LAYERS)
    lookback: int = setting(20, lo=1, hi=MAX_LOOKBACK)

    def __post_init__(self):
        check(self, DimensionMismatch)

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

@dataclass(frozen=True, eq=False)
class NetData:
    """Net inputs and the targets they predict, ``targets.shape == inputs.shape[:-1]``.

    The feedforward net takes samples ``(n, d)`` with targets ``(n,)``; the
    LSTM takes lookback windows ``(n, T, d)`` with per-step targets ``(n, T)``.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.inputs, dtype=np.float64)
        y = np.ascontiguousarray(self.targets, dtype=np.float64)
        if X.ndim not in (2, 3):
            raise DimensionMismatch(f"inputs must be samples or windows, got shape {X.shape}")
        if y.shape != X.shape[:-1]:
            raise LengthMismatch(f"inputs {X.shape} and targets {y.shape} are inconsistent")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


def make_windows(features: np.ndarray, target: np.ndarray, lookback: int,
                 stride: int = 1,
                 segments: Sequence[ManeuverSegment] | None = None) -> NetData:
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
    return NetData(features[rows], target[rows])


# --- optimizers -----------------------------------------------------------------

@dataclass(eq=False)
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
    optimizer: str = setting("rmsprop", choices=OPTIMIZERS)
    learning_rate: float = setting(1e-4, above=0)
    batch_size: int = setting(64, lo=1)
    epochs: int = setting(100, lo=1, hi=MAX_EPOCHS)
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        check(self, LengthMismatch)


@dataclass(frozen=True, eq=False)
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


def _architecture(mc: MLPConfig | LSTMConfig) -> tuple:
    """``(kind, rank, init, forward, value_and_grad)`` of a net config.

    ``rank`` is its inputs' ndim and ``init(seed)`` gives params;
    ``forward(params, inputs)`` predicts in the targets' shape and
    ``value_and_grad(params, inputs, targets)`` gives the MSE and its gradient.
    """
    if isinstance(mc, MLPConfig):
        sizes = mc.sizes
        return ("ffnn", 2, partial(init_mlp_params, mc),
                lambda p, x: kernels.mlp_forward(p, sizes, x)[:, 0],
                lambda p, x, y: kernels.mlp_value_and_grad(p, sizes, x, y[:, None]))
    if isinstance(mc, LSTMConfig):
        dims = (mc.input_dim, mc.hidden_size, mc.num_layers)
        return ("lstm", 3, partial(init_lstm_params, mc),
                lambda p, x: kernels.lstm_forward(p, *dims, x),
                lambda p, x, y: kernels.lstm_value_and_grad(p, *dims, x, y))
    raise DimensionMismatch(f"unknown model config {type(mc).__name__}")


def _full_mse(forward, params, data: NetData) -> float:
    if len(data) == 0:
        return float("nan")
    d = (forward(params, data.inputs) - data.targets).reshape(-1)
    return float(np.mean(d * d))


def train(model_config: MLPConfig | LSTMConfig, train_config: TrainConfig,
          train_data: NetData, val_data: NetData | None = None) -> TrainedNet:
    """Mini-batch training loop, one for both architectures.

    Initialization and shuffling derive from ``train_config.seed``; the
    loop records full-dataset train and validation MSE after every epoch
    (NaN without validation data).  Datasets must hold samples for the MLP
    and windows for the LSTM, with ``input_dim`` features.
    """
    kind, rank, init, forward, value_and_grad = _architecture(model_config)
    for data in (train_data, val_data):
        if data is not None and (data.inputs.ndim, data.inputs.shape[-1]) != (
                rank, model_config.input_dim):
            raise DimensionMismatch(f"{kind} training needs {rank}-D inputs of "
                                    f"{model_config.input_dim} features, got {data.inputs.shape}")
    n = len(train_data)
    if n == 0:
        raise EmptyDataset("no training samples")

    params = init(derive_seed(train_config.seed, "init"))
    opt = init_optimizer(train_config.optimizer, model_config.n_params)
    stepper = step_rmsprop if train_config.optimizer == "rmsprop" else step_adam
    rng = np.random.default_rng(derive_seed(train_config.seed, "shuffle"))

    train_hist = np.empty(train_config.epochs)
    val_hist = np.full(train_config.epochs, np.nan)
    bs = min(train_config.batch_size, n)
    # A diverging run overflows before its epoch check can stop it; the
    # check below reports it, so numpy's warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(train_config.epochs):
            order = rng.permutation(n) if train_config.shuffle else np.arange(n)
            for lo in range(0, n, bs):
                idx = order[lo:lo + bs]
                _, grad = value_and_grad(params, train_data.inputs[idx],
                                         train_data.targets[idx])
                params, opt = stepper(params, grad, opt, train_config.learning_rate)
            train_hist[epoch] = _full_mse(forward, params, train_data)
            if not np.isfinite(train_hist[epoch]):
                raise ComputationError(
                    f"{kind} training diverged at epoch {epoch + 1}: train MSE is "
                    f"{train_hist[epoch]}; no weights were saved")
            if val_data is not None:
                val_hist[epoch] = _full_mse(forward, params, val_data)
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
_MODEL_TYPES = {cls.header_type: cls for cls in (MLPConfig, LSTMConfig)}


def save_net(net: TrainedNet, path: str | Path) -> None:
    """Binary weights file: magic, JSON header, raw little-endian float64.

    The header's ``model`` and ``train`` blocks are the config dataclasses'
    fields.  It is serialized with sorted keys and the params hold exact
    bit patterns, so identical nets produce identical bytes.
    """
    mc = net.model_config
    header = {
        "kind": net.kind,
        "model": {"type": mc.header_type, **asdict(mc)},
        "train": asdict(net.train_config),
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
    """Read a weights file written by :func:`save_net` (exact round-trip).

    A file that :func:`save_net` could not have written (bad magic, a
    header that is not JSON or describes no valid net, a payload of the
    wrong size) is an :class:`IoError` naming the file.
    """
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
        model = dict(header["model"])
        mc = read(_MODEL_TYPES[model.pop("type")], model, "model", JSON)
        kind = _architecture(mc)[0]
        if header.get("kind", kind) != kind:
            raise ValueError(f"kind {header['kind']!r} does not match the model type")
        n_params = int(header["n_params"])
        names, target = tuple(header.get("feature_names", ())), header.get("target_name", "TRQ")
        if (not all(isinstance(nm, str) for nm in (*names, target))
                or len(names) not in (0, mc.input_dim)):
            raise ValueError(f"feature_names {names} and target_name {target!r} do not "
                             f"name a model of {mc.input_dim} inputs")
        tc = read(TrainConfig, header["train"], "train", JSON)
        train_mse = np.array([float(v) for v in header.get("train_mse", [])])
        val_mse = np.array([float("nan") if v is None else float(v)
                            for v in header.get("val_mse", [])])
        if len(train_mse) != tc.epochs or len(val_mse) != tc.epochs:
            raise ValueError(f"train_mse and val_mse hold {len(train_mse)} and "
                             f"{len(val_mse)} entries, not train.epochs {tc.epochs}")
        described = dict(
            kind=kind,
            model_config=mc,
            train_config=tc,
            train_mse=train_mse,
            val_mse=val_mse,
            feature_names=names,
            target_name=target,
            scaler_bounds={k: (float(lo), float(hi)) for k, (lo, hi)
                           in header.get("scaler_bounds", {}).items()},
            fingerprint=header.get("fingerprint", ""),
        )
    except (LookupError, TypeError, ValueError, AttributeError, TssidError) as exc:
        raise IoError(f"{path}: malformed header: {exc!r}") from None
    off += hlen
    if n_params != mc.n_params:
        raise IoError(
            f"{path}: header claims {n_params} params, architecture needs {mc.n_params}"
        )
    payload = raw[off:]
    if len(payload) != 8 * n_params:
        raise IoError(
            f"{path}: payload holds {len(payload)} bytes, expected {8 * n_params}"
        )
    return TrainedNet(params=np.frombuffer(payload, dtype="<f8").astype(np.float64),
                      **described)
