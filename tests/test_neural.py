"""Networks: initialization, gradients, optimizers, training loop, windows, I/O."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tssid.errors import (
    DimensionMismatch,
    EmptyDataset,
    IoError,
    LengthMismatch,
    SeriesTooShort,
    ShapeMismatch,
)
import tracemalloc

import loop_kernels
from tssid import kernels
from tssid.flightdata import FlightRecord, ManeuverSegment, unscale_series
from tssid.neural import (
    LSTMConfig,
    MLPConfig,
    NetData,
    OptimizerState,
    TrainConfig,
    TrainedNet,
    init_lstm_params,
    init_mlp_params,
    init_optimizer,
    load_net,
    lstm_backward,
    lstm_forward,
    make_windows,
    mlp_backward,
    mlp_forward,
    predict_series,
    save_net,
    step_adam,
    step_rmsprop,
    train,
    _xavier,
)

from conftest import toy_record

# --- architecture bookkeeping ----------------------------------------------------


def test_mlp_n_params_formula():
    cfg = MLPConfig(input_dim=3, hidden_layers=(4, 5), output_dim=1)
    # (3*4 + 4) + (4*5 + 5) + (5*1 + 1)
    assert cfg.n_params == 16 + 25 + 6
    assert init_mlp_params(cfg, seed=0).shape == (cfg.n_params,)


def test_lstm_n_params_formula():
    cfg = LSTMConfig(input_dim=2, hidden_size=3, num_layers=2, lookback=4)
    # layer 1: 2*12 + 3*12 + 12; layer 2: 3*12 + 3*12 + 12; head: 3 + 1
    assert cfg.n_params == 72 + 84 + 4
    assert init_lstm_params(cfg, seed=0).shape == (cfg.n_params,)


def test_config_validation():
    with pytest.raises(DimensionMismatch):
        MLPConfig(input_dim=0)
    with pytest.raises(DimensionMismatch):
        MLPConfig(input_dim=2, hidden_layers=(0,))
    with pytest.raises(DimensionMismatch):
        LSTMConfig(input_dim=1, hidden_size=0)


def test_xavier_variance():
    # U(-limit, limit) with limit^2 = 6/(fi+fo) has variance 2/(fi+fo)
    fi, fo = 200, 300
    w = _xavier(np.random.default_rng(1), fi, fo)
    expected = 2.0 / (fi + fo)
    assert w.var() == pytest.approx(expected, rel=0.05)
    limit = np.sqrt(6.0 / (fi + fo))
    assert np.abs(w).max() <= limit


def test_mlp_init_biases_zero():
    cfg = MLPConfig(input_dim=3, hidden_layers=(4,), output_dim=1)
    p = init_mlp_params(cfg, seed=2)
    b1 = p[12:16]                    # after W1 (3*4)
    b2 = p[16 + 4:16 + 4 + 1]        # after W2 (4*1)
    np.testing.assert_array_equal(b1, np.zeros(4))
    np.testing.assert_array_equal(b2, np.zeros(1))


def test_lstm_forget_gate_bias_one():
    cfg = LSTMConfig(input_dim=2, hidden_size=3, num_layers=2, lookback=4)
    p = init_lstm_params(cfg, seed=3)
    h = cfg.hidden_size
    off = 0
    fin = cfg.input_dim
    for _ in range(cfg.num_layers):
        off += fin * 4 * h + h * 4 * h
        b = p[off:off + 4 * h]
        np.testing.assert_array_equal(b[:h], np.zeros(h))        # input gate
        np.testing.assert_array_equal(b[h:2 * h], np.ones(h))    # forget gate
        np.testing.assert_array_equal(b[2 * h:], np.zeros(2 * h))
        off += 4 * h
        fin = h
    assert p[-1] == 0.0  # head bias


# --- gradients through the public wrappers -----------------------------------------


def test_mlp_backward_matches_finite_differences():
    cfg = MLPConfig(input_dim=3, hidden_layers=(5,), output_dim=1)
    rng = np.random.default_rng(4)
    params = init_mlp_params(cfg, seed=4) + 0.01 * rng.normal(size=cfg.n_params)
    X = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 1))
    loss, grad = mlp_backward(cfg, params, X, y)
    pred = mlp_forward(cfg, params, X)
    assert loss == pytest.approx(float(np.mean((pred - y) ** 2)), rel=1e-12)
    h = 1e-6
    for j in rng.choice(cfg.n_params, size=10, replace=False):
        pp, pm = params.copy(), params.copy()
        pp[j] += h
        pm[j] -= h
        fd = (mlp_backward(cfg, pp, X, y)[0] - mlp_backward(cfg, pm, X, y)[0]) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_lstm_backward_matches_finite_differences():
    cfg = LSTMConfig(input_dim=2, hidden_size=3, num_layers=1, lookback=5)
    rng = np.random.default_rng(5)
    params = init_lstm_params(cfg, seed=5)
    X = rng.normal(size=(3, 5, 2))
    y = rng.normal(size=(3, 5))
    loss, grad = lstm_backward(cfg, params, X, y)
    pred = lstm_forward(cfg, params, X)
    assert loss == pytest.approx(float(np.mean((pred - y) ** 2)), rel=1e-12)
    h = 1e-6
    for j in rng.choice(cfg.n_params, size=10, replace=False):
        pp, pm = params.copy(), params.copy()
        pp[j] += h
        pm[j] -= h
        fd = (lstm_backward(cfg, pp, X, y)[0] - lstm_backward(cfg, pm, X, y)[0]) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_backward_shape_validation():
    cfg = MLPConfig(input_dim=2, hidden_layers=(3,))
    p = init_mlp_params(cfg, seed=0)
    with pytest.raises(LengthMismatch):
        mlp_backward(cfg, p, np.ones((4, 2)), np.ones((5, 1)))
    with pytest.raises(ShapeMismatch):
        mlp_backward(cfg, p[:-1], np.ones((4, 2)), np.ones((4, 1)))
    lcfg = LSTMConfig(input_dim=2, hidden_size=3, num_layers=1, lookback=4)
    lp = init_lstm_params(lcfg, seed=0)
    with pytest.raises(LengthMismatch):
        lstm_backward(lcfg, lp, np.ones((2, 4, 2)), np.ones((2, 3)))


# --- optimizers ----------------------------------------------------------------------


def test_rmsprop_single_step_exact():
    p = np.array([1.0, -2.0])
    g = np.array([0.5, 0.1])
    state = init_optimizer("rmsprop", 2)
    lr, decay, eps = 1e-3, 0.99, 1e-8
    new_p, new_state = step_rmsprop(p, g, state, lr, decay, eps)
    v = (1.0 - decay) * g * g
    np.testing.assert_array_equal(new_state.v, v)
    np.testing.assert_array_equal(new_p, p - lr * g / (np.sqrt(v) + eps))
    assert new_state.t == 1


def test_adam_single_step_exact():
    p = np.array([0.3, -0.7, 2.0])
    g = np.array([1.0, -4.0, 0.25])
    state = init_optimizer("adam", 3)
    lr, b1, b2, eps = 5e-4, 0.9, 0.999, 1e-8
    new_p, new_state = step_adam(p, g, state, lr, b1, b2, eps)
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    np.testing.assert_allclose(new_p, p - lr * mhat / (np.sqrt(vhat) + eps),
                               atol=1e-16)
    np.testing.assert_array_equal(new_state.m, m)
    np.testing.assert_array_equal(new_state.v, v)
    assert new_state.t == 1


def test_optimizers_zero_gradient_is_noop():
    p = np.array([1.0, 2.0])
    z = np.zeros(2)
    p1, _ = step_rmsprop(p, z, init_optimizer("rmsprop", 2), 1e-3)
    np.testing.assert_array_equal(p1, p)
    p2, _ = step_adam(p, z, init_optimizer("adam", 2), 1e-3)
    np.testing.assert_array_equal(p2, p)


def test_optimizer_validation():
    with pytest.raises(LengthMismatch):
        init_optimizer("sgd", 3)
    with pytest.raises(ShapeMismatch):
        step_rmsprop(np.ones(3), np.ones(4), init_optimizer("rmsprop", 3), 1e-3)
    with pytest.raises(ShapeMismatch):
        # RMSprop state lacks the first moment Adam needs
        step_adam(np.ones(3), np.ones(3),
                  OptimizerState("adam", np.zeros(3), None, 0), 1e-3)


# --- training loop --------------------------------------------------------------------


def _toy_tabular(n=240, seed=6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, 2))
    y = 0.3 * X[:, 0] - 0.2 * X[:, 1] + 0.05
    return NetData(X[: n - 40], y[: n - 40]), NetData(X[n - 40:], y[n - 40:])


def _toy_windows(seed=7):
    rng = np.random.default_rng(seed)
    t = np.arange(300) * 0.05
    x = 0.5 + 0.3 * np.sin(t) + 0.02 * rng.normal(size=t.shape[0])
    y = 0.4 + 0.2 * np.sin(t - 0.1)
    data = make_windows(x, y, lookback=6, stride=2)
    k = len(data) - 12
    return (NetData(data.inputs[:k], data.targets[:k]),
            NetData(data.inputs[k:], data.targets[k:]))


def test_train_mlp_loss_decreases_and_is_deterministic():
    tr, va = _toy_tabular()
    mc = MLPConfig(input_dim=2, hidden_layers=(8,))
    tc = TrainConfig(optimizer="rmsprop", learning_rate=1e-2, batch_size=32,
                     epochs=30, seed=8)
    net1 = train(mc, tc, tr, va)
    net2 = train(mc, tc, tr, va)
    assert net1.train_mse.shape == (30,)
    assert net1.train_mse[-1] < 0.2 * net1.train_mse[0]
    assert np.isfinite(net1.val_mse).all()
    np.testing.assert_array_equal(net1.params, net2.params)  # bitwise
    np.testing.assert_array_equal(net1.train_mse, net2.train_mse)
    np.testing.assert_array_equal(net1.val_mse, net2.val_mse)


def test_train_lstm_loss_decreases_and_is_deterministic():
    tr, va = _toy_windows()
    mc = LSTMConfig(input_dim=1, hidden_size=4, num_layers=1, lookback=6)
    tc = TrainConfig(optimizer="adam", learning_rate=1e-2, batch_size=16,
                     epochs=10, seed=9)
    net1 = train(mc, tc, tr, va)
    net2 = train(mc, tc, tr, va)
    assert net1.kind == "lstm"
    assert net1.train_mse[-1] < 0.5 * net1.train_mse[0]
    np.testing.assert_array_equal(net1.params, net2.params)
    np.testing.assert_array_equal(net1.val_mse, net2.val_mse)


def test_train_seed_changes_result():
    tr, va = _toy_tabular()
    mc = MLPConfig(input_dim=2, hidden_layers=(8,))
    tc = TrainConfig(learning_rate=1e-2, batch_size=32, epochs=3, seed=1)
    net_a = train(mc, tc, tr, va)
    net_b = train(mc, replace(tc, seed=2), tr, va)
    assert not np.array_equal(net_a.params, net_b.params)


def test_train_without_validation_records_nan():
    tr, _ = _toy_tabular()
    net = train(MLPConfig(input_dim=2, hidden_layers=(4,)),
                TrainConfig(epochs=2, seed=0), tr)
    assert np.isnan(net.val_mse).all()


def test_train_data_kind_enforced():
    tr, _ = _toy_tabular()
    wtr, _ = _toy_windows()
    with pytest.raises(DimensionMismatch):
        train(MLPConfig(input_dim=2), TrainConfig(epochs=1), wtr)
    with pytest.raises(DimensionMismatch):
        train(LSTMConfig(input_dim=1), TrainConfig(epochs=1), tr)
    # inputs of the right rank but the wrong width, for training or validation
    with pytest.raises(DimensionMismatch):
        train(MLPConfig(input_dim=3), TrainConfig(epochs=1), tr)
    with pytest.raises(DimensionMismatch):
        train(MLPConfig(input_dim=2), TrainConfig(epochs=1), tr,
              NetData(np.empty((0, 3)), np.empty(0)))


def test_train_rejects_empty_dataset():
    empty = NetData(np.empty((0, 2)), np.empty(0))
    with pytest.raises(EmptyDataset):
        train(MLPConfig(input_dim=2), TrainConfig(epochs=1), empty)


def test_net_data_targets_match_the_inputs_leading_axes():
    NetData(np.zeros((4, 3, 2)), np.zeros((4, 3)))
    with pytest.raises(LengthMismatch):
        NetData(np.zeros((4, 2)), np.zeros((4, 1)))
    with pytest.raises(LengthMismatch):
        NetData(np.zeros((4, 3, 2)), np.zeros(4))
    with pytest.raises(DimensionMismatch):
        NetData(np.zeros(4), np.zeros(()))


@pytest.mark.parametrize("val", ["none", "empty", "data"])
@pytest.mark.parametrize("shuffle", [True, False])
@pytest.mark.parametrize("optimizer", ["rmsprop", "adam"])
@pytest.mark.parametrize("kind", ["ffnn", "lstm"])
def test_train_is_bitwise_the_per_kind_loop(kind, optimizer, shuffle, val):
    """The one loop reproduces the loop that branched on the kind in every batch."""
    if kind == "ffnn":
        (tr, va), old_data = _toy_tabular(n=150), loop_kernels.TabularData
        mc = MLPConfig(input_dim=2, hidden_layers=(6, 5))
    else:
        (tr, va), old_data = _toy_windows(), loop_kernels.WindowedData
        mc = LSTMConfig(input_dim=1, hidden_size=3, num_layers=2, lookback=6)
    va = {"none": None, "empty": NetData(va.inputs[:0], va.targets[:0]), "data": va}[val]
    tc = TrainConfig(optimizer=optimizer, learning_rate=1e-2, batch_size=16, epochs=3,
                     seed=5, shuffle=shuffle)
    net = train(mc, tc, tr, va)
    ref = loop_kernels.train(mc, tc, old_data(tr.inputs, tr.targets),
                             None if va is None else old_data(va.inputs, va.targets))
    assert net.kind == ref.kind == kind
    np.testing.assert_array_equal(net.params, ref.params)
    np.testing.assert_array_equal(net.train_mse, ref.train_mse)
    np.testing.assert_array_equal(net.val_mse, ref.val_mse)
    assert np.isfinite(net.val_mse).all() == (val == "data")


# --- windowing -------------------------------------------------------------------------


def test_make_windows_count_formula():
    x = np.arange(20.0)
    w = make_windows(x, x, lookback=5, stride=2)
    assert len(w) == (20 - 5) // 2 + 1
    assert w.inputs.shape == (8, 5, 1)
    assert w.targets.shape == (8, 5)


def test_make_windows_contents_and_boundaries():
    x = np.arange(20.0)
    segs = [ManeuverSegment("a", 0, 10), ManeuverSegment("b", 10, 20)]
    w = make_windows(x, 2.0 * x, lookback=5, stride=1, segments=segs)
    assert len(w) == 6 + 6  # no window crosses the 10-sample boundary
    for i in range(len(w)):
        first = w.inputs[i, 0, 0]
        np.testing.assert_array_equal(w.inputs[i, :, 0], first + np.arange(5.0))
        np.testing.assert_array_equal(w.targets[i], 2.0 * w.inputs[i, :, 0])
        # window fits in exactly one segment
        assert (first % 10) + 5 <= 10


def test_make_windows_excluded_segments_yield_nothing():
    x = np.arange(30.0)
    segs = [ManeuverSegment("t", 0, 10, excluded=True), ManeuverSegment("c", 10, 30)]
    w = make_windows(x, x, lookback=4, stride=1, segments=segs)
    assert len(w) == 20 - 4 + 1
    assert w.inputs[:, :, 0].min() >= 10.0


def test_make_windows_short_series_empty():
    x = np.arange(3.0)
    w = make_windows(x, x, lookback=5)
    assert len(w) == 0


def test_make_windows_validation():
    x = np.arange(10.0)
    with pytest.raises(LengthMismatch):
        make_windows(x, x[:-1], lookback=3)
    with pytest.raises(DimensionMismatch):
        make_windows(x, x, lookback=0)
    with pytest.raises(LengthMismatch):
        make_windows(x, x, lookback=3,
                     segments=[ManeuverSegment("a", 0, 11)])


@settings(deadline=None, max_examples=60)
@given(length=st.integers(1, 200), lookback=st.integers(1, 30),
       stride=st.integers(1, 10))
def test_make_windows_count_property(length, lookback, stride):
    x = np.arange(float(length))
    w = make_windows(x, x, lookback=lookback, stride=stride)
    assert len(w) == max(0, (length - lookback) // stride + 1)


# --- prediction over flights ------------------------------------------------------------


def _stub_net(kind: str, lookback: int = 5) -> TrainedNet:
    """Zero-weight net: scaled-space output is 0, physical output is lo(TRQ)."""
    if kind == "ffnn":
        mc = MLPConfig(input_dim=2, hidden_layers=(3,))
    else:
        mc = LSTMConfig(input_dim=2, hidden_size=3, num_layers=1, lookback=lookback)
    return TrainedNet(
        kind=kind, model_config=mc, train_config=TrainConfig(epochs=1),
        params=np.zeros(mc.n_params), train_mse=np.zeros(1), val_mse=np.zeros(1),
        feature_names=("TRQ", "WF"), target_name="TRQ",
        scaler_bounds={"TRQ": (90.0, 110.0), "WF": (250.0, 350.0)},
    )


def test_predict_series_unscales_through_target_bounds(record):
    for kind in ("ffnn", "lstm"):
        pred = predict_series(_stub_net(kind), record)
        assert pred.shape == (record.n_samples,)
        # zero net output in scaled space maps back to the TRQ lower bound
        np.testing.assert_allclose(pred, 90.0, atol=1e-12)


# neural-miso sizes: 120 s at 20 Hz, five inputs, a 3x6 LSTM with lookback 20
_MISO_INPUTS = ("COL", "T1", "P0", "NR", "AIRSPEED")
_MISO_SEGMENTS = (ManeuverSegment("taxiing", 0, 100, excluded=True),
                  ManeuverSegment("climb", 100, 1013), ManeuverSegment("hover", 1013, 1030),
                  ManeuverSegment("cruise", 1030, 2400))


def _miso_flight(n=2400, seed=0):
    rng = np.random.default_rng(seed)
    names = _MISO_INPUTS + ("TRQ",)
    return FlightRecord("msn", 20.0, names, [rng.normal(size=n).cumsum() for _ in names],
                        _MISO_SEGMENTS)


def _miso_lstm():
    mc = LSTMConfig(input_dim=5, hidden_size=6, num_layers=3, lookback=20)
    bounds = {nm: (-40.0, 40.0) for nm in _MISO_INPUTS + ("TRQ",)}
    return TrainedNet(kind="lstm", model_config=mc, train_config=TrainConfig(epochs=1),
                      params=init_lstm_params(mc, 7), train_mse=np.zeros(1),
                      val_mse=np.zeros(1), feature_names=_MISO_INPUTS,
                      target_name="TRQ", scaler_bounds=bounds)


@pytest.mark.parametrize("lookback, stride", [(20, 10), (20, 1), (1, 1), (20, 37),
                                              (18, 10)])
def test_make_windows_matches_loop_reference(lookback, stride):
    rec = _miso_flight()
    X = np.column_stack([rec.values(nm) for nm in _MISO_INPUTS])
    y = rec.values("TRQ")
    win = make_windows(X, y, lookback, stride, rec.maneuvers)
    ref_X, ref_y = loop_kernels.make_windows(X, y, lookback, stride, rec.maneuvers)
    assert win.inputs.shape == ref_X.shape and win.targets.shape == ref_y.shape
    assert win.inputs.tobytes() == ref_X.tobytes()
    assert win.targets.tobytes() == ref_y.tobytes()


def _traced_peak(fn, *args):
    fn(*args)  # first call imports and caches outside the measurement
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_series_lstm_matches_loop_windows_without_copying_them():
    rec, net = _miso_flight(), _miso_lstm()
    X = np.column_stack([(rec.values(nm) + 40.0) / 80.0 for nm in _MISO_INPUTS])
    wins = loop_kernels.stride1_windows(X, 20)
    y = lstm_forward(net.model_config, net.params, wins)
    ref = unscale_series(net.scaler, "TRQ", np.concatenate([y[0, :19], y[:, 19]]))
    assert predict_series(net, rec).tobytes() == ref.tobytes()
    # twice the flight, twice the windows: a whole-flight window copy would
    # raise the peak by wins.nbytes, the per-sample arrays by a tenth of it
    growth = (_traced_peak(predict_series, net, _miso_flight(n=4800))
              - _traced_peak(predict_series, net, rec))
    assert growth < wins.nbytes / 2


def test_predict_series_requires_metadata(record):
    net = replace(_stub_net("ffnn"), feature_names=())
    with pytest.raises(DimensionMismatch):
        predict_series(net, record)


def test_predict_series_lookback_longer_than_flight(record):
    net = _stub_net("lstm", lookback=100)
    with pytest.raises(SeriesTooShort):
        predict_series(net, record)


# --- persistence -----------------------------------------------------------------------------


def test_save_load_round_trip_bitwise(tmp_path):
    tr, va = _toy_tabular()
    mc = MLPConfig(input_dim=2, hidden_layers=(6,))
    tc = TrainConfig(learning_rate=1e-2, batch_size=32, epochs=4, seed=10)
    net = replace(
        train(mc, tc, tr, va),
        feature_names=("COL", "NR"), target_name="TRQ",
        scaler_bounds={"COL": (0.0, 100.0), "NR": (90.0, 110.0),
                       "TRQ": (50.0, 400.0)},
        fingerprint="abc123",
    )
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_net(net, p1)
    save_net(net, p2)
    assert p1.read_bytes() == p2.read_bytes()  # identical nets, identical bytes
    back = load_net(p1)
    np.testing.assert_array_equal(back.params, net.params)
    np.testing.assert_array_equal(back.train_mse, net.train_mse)
    np.testing.assert_array_equal(back.val_mse, net.val_mse)
    assert back.kind == "ffnn"
    assert back.model_config == mc
    assert back.train_config == tc
    assert back.feature_names == net.feature_names
    assert back.scaler_bounds == net.scaler_bounds
    assert back.fingerprint == "abc123"


def test_save_load_lstm_round_trip(tmp_path):
    wtr, wva = _toy_windows()
    mc = LSTMConfig(input_dim=1, hidden_size=3, num_layers=1, lookback=6)
    tc = TrainConfig(optimizer="adam", learning_rate=1e-2, batch_size=8,
                     epochs=2, seed=11)
    net = train(mc, tc, wtr, wva)
    p = tmp_path / "l.bin"
    save_net(net, p)
    back = load_net(p)
    assert back.model_config == mc
    np.testing.assert_array_equal(back.params, net.params)


def test_load_net_rejects_bad_files(tmp_path):
    with pytest.raises(IoError):
        load_net(tmp_path / "missing.bin")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTANET")
    with pytest.raises(IoError):
        load_net(bad)


def test_load_net_rejects_truncated_payload(tmp_path):
    net = _stub_net("ffnn")
    p = tmp_path / "net.bin"
    save_net(net, p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])  # drop one float64 from the weights
    with pytest.raises(IoError, match="payload"):
        load_net(p)
