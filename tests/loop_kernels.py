"""Loop reference for the neural and sparse-RK4 kernels in :mod:`tssid.kernels`,
for the Savitzky-Golay smoother in :mod:`tssid.sindy` and for the LSTM
window builders in :mod:`tssid.neural`.

These are the scalar-loop implementations the array-style kernels
replaced, kept verbatim as an oracle: the loss, the bias sums and the LSTM
head are accumulated element by element, every LSTM step multiplies its
own inputs into the gates, ``rk4_sparse`` integrates one series,
evaluating every term variable by variable at every stage, and
``savgol_smooth`` takes one dot product per interior sample.
``tests/test_kernels.py`` and ``tests/test_sindy.py`` require the array
versions to agree with them to 1e-13 relative (neural) or 1e-12 relative
(sparse RK4, smoothing).  The window builders copy one window per
iteration; ``tests/test_neural.py`` requires bitwise-equal windows and
predictions from the index-array and sliding-view versions.  Parameter
layouts are those documented in :mod:`tssid.kernels`.

``fit_first_order``, ``augment_second_order`` and ``fit_second_order``
(with their ``_segment_arrays``) are the two hand-written sparse fits that
``tssid.sindy.fit_sparse`` replaced, kept verbatim; ``tests/test_sindy.py``
requires bitwise-equal models from the one order-generic fit.

``train`` and ``_full_mse`` (with ``TabularData`` and ``WindowedData``, the
two dataset classes they take) are the training loop that branched on the
net kind in every batch, kept verbatim; ``tests/test_neural.py`` requires
bitwise-equal params and loss histories from the one loop of
``tssid.neural.train``.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tssid import kernels
from tssid.errors import (ComputationError, DimensionMismatch, EmptyDataset, LengthMismatch,
                          NoActiveTerms, SeriesTooShort)
from tssid.flightdata import FlightRecord
from tssid.neural import (LSTMConfig, MLPConfig, TrainConfig, TrainedNet, init_lstm_params,
                          init_mlp_params, init_optimizer, step_adam, step_rmsprop)
from tssid.seeding import derive_seed
from tssid.sindy import SINDyConfig, SparseModel, build_library, differentiate, stlsq


def mlp_forward(flat, sizes, x):
    """Forward pass of the MLP.  x: (batch, sizes[0]) -> (batch, sizes[-1])."""
    n_layers = sizes.shape[0] - 1
    h = x
    off = 0
    for l in range(n_layers):
        fin = sizes[l]
        fout = sizes[l + 1]
        w = flat[off:off + fin * fout].reshape(fin, fout)
        off += fin * fout
        b = flat[off:off + fout]
        off += fout
        z = np.dot(h, w) + b
        if l < n_layers - 1:
            h = np.maximum(z, 0.0)
        else:
            h = z
    return h


def mlp_value_and_grad(flat, sizes, x, y):
    """MSE loss and gradient of the MLP on one batch.

    x: (batch, sizes[0]); y: (batch, sizes[-1]).
    Loss is mean over batch * output entries.  Returns (loss, grad) with
    grad laid out exactly like ``flat``.
    """
    n_layers = sizes.shape[0] - 1
    batch = x.shape[0]

    offs = np.empty(n_layers + 1, np.int64)
    offs[0] = 0
    for l in range(n_layers):
        offs[l + 1] = offs[l] + sizes[l] * sizes[l + 1] + sizes[l + 1]

    acts = [x]
    pre = []
    h = x
    for l in range(n_layers):
        fin = sizes[l]
        fout = sizes[l + 1]
        o = offs[l]
        w = flat[o:o + fin * fout].reshape(fin, fout)
        b = flat[o + fin * fout:o + fin * fout + fout]
        z = np.dot(h, w) + b
        pre.append(z)
        if l < n_layers - 1:
            h = np.maximum(z, 0.0)
        else:
            h = z
        acts.append(h)

    d = acts[n_layers] - y
    denom = float(batch * sizes[n_layers])
    acc = 0.0
    for i in range(batch):
        for j in range(sizes[n_layers]):
            acc += d[i, j] * d[i, j]
    loss = acc / denom

    grad = np.zeros_like(flat)
    delta = (2.0 / denom) * d
    for l in range(n_layers - 1, -1, -1):
        fin = sizes[l]
        fout = sizes[l + 1]
        o = offs[l]
        w = flat[o:o + fin * fout].reshape(fin, fout)
        gw = grad[o:o + fin * fout].reshape(fin, fout)
        gb = grad[o + fin * fout:o + fin * fout + fout]
        gw += np.dot(acts[l].T, delta)
        for j in range(fout):
            s = 0.0
            for i in range(batch):
                s += delta[i, j]
            gb[j] += s
        if l > 0:
            back = np.dot(delta, w.T)
            zprev = pre[l - 1]
            delta = back * np.where(zprev > 0.0, 1.0, 0.0)
    return loss, grad


def lstm_forward(flat, input_dim, hidden, n_layers, x):
    """Forward pass of the stacked LSTM.  x: (batch, T, input_dim) -> (batch, T)."""
    bsz = x.shape[0]
    T = x.shape[1]
    H = hidden
    off = 0
    cur = x
    for l in range(n_layers):
        fin = input_dim if l == 0 else H
        wx = flat[off:off + fin * 4 * H].reshape(fin, 4 * H)
        off += fin * 4 * H
        wh = flat[off:off + H * 4 * H].reshape(H, 4 * H)
        off += H * 4 * H
        b = flat[off:off + 4 * H]
        off += 4 * H
        hseq = np.empty((bsz, T, H))
        h = np.zeros((bsz, H))
        c = np.zeros((bsz, H))
        for t in range(T):
            xt = np.ascontiguousarray(cur[:, t, :])
            zg = np.dot(xt, wx) + np.dot(h, wh) + b
            gi = 1.0 / (1.0 + np.exp(-zg[:, 0:H]))
            gf = 1.0 / (1.0 + np.exp(-zg[:, H:2 * H]))
            gg = np.tanh(zg[:, 2 * H:3 * H])
            go = 1.0 / (1.0 + np.exp(-zg[:, 3 * H:4 * H]))
            c = gf * c + gi * gg
            h = go * np.tanh(c)
            hseq[:, t, :] = h
        cur = hseq
    wy = flat[off:off + H]
    by = flat[off + H]
    y = np.empty((bsz, T))
    for t in range(T):
        ht = cur[:, t, :]
        for i in range(bsz):
            s = 0.0
            for j in range(H):
                s += ht[i, j] * wy[j]
            y[i, t] = s + by
    return y


def lstm_value_and_grad(flat, input_dim, hidden, n_layers, x, y):
    """MSE loss and full-BPTT gradient of the stacked LSTM on one batch.

    x: (batch, T, input_dim); y: (batch, T) per-step targets.
    Loss is mean over batch * T.  Returns (loss, grad).
    """
    bsz = x.shape[0]
    T = x.shape[1]
    H = hidden
    L = n_layers

    offs = np.empty(L + 1, np.int64)
    offs[0] = 0
    for l in range(L):
        fin = input_dim if l == 0 else H
        offs[l + 1] = offs[l] + fin * 4 * H + H * 4 * H + 4 * H
    head = offs[L]

    # forward, storing gate activations, cell states and hidden states
    gi = np.empty((L, T, bsz, H))
    gf = np.empty((L, T, bsz, H))
    gg = np.empty((L, T, bsz, H))
    go = np.empty((L, T, bsz, H))
    cs = np.empty((L, T, bsz, H))
    tc = np.empty((L, T, bsz, H))
    hs = np.empty((L, T, bsz, H))

    for l in range(L):
        fin = input_dim if l == 0 else H
        o = offs[l]
        wx = flat[o:o + fin * 4 * H].reshape(fin, 4 * H)
        wh = flat[o + fin * 4 * H:o + fin * 4 * H + H * 4 * H].reshape(H, 4 * H)
        b = flat[o + fin * 4 * H + H * 4 * H:o + fin * 4 * H + H * 4 * H + 4 * H]
        h = np.zeros((bsz, H))
        c = np.zeros((bsz, H))
        for t in range(T):
            if l == 0:
                xt = np.ascontiguousarray(x[:, t, :])
            else:
                xt = np.ascontiguousarray(hs[l - 1, t])
            zg = np.dot(xt, wx) + np.dot(h, wh) + b
            i_t = 1.0 / (1.0 + np.exp(-zg[:, 0:H]))
            f_t = 1.0 / (1.0 + np.exp(-zg[:, H:2 * H]))
            g_t = np.tanh(zg[:, 2 * H:3 * H])
            o_t = 1.0 / (1.0 + np.exp(-zg[:, 3 * H:4 * H]))
            c = f_t * c + i_t * g_t
            tch = np.tanh(c)
            h = o_t * tch
            gi[l, t] = i_t
            gf[l, t] = f_t
            gg[l, t] = g_t
            go[l, t] = o_t
            cs[l, t] = c
            tc[l, t] = tch
            hs[l, t] = h

    wy = flat[head:head + H]
    by = flat[head + H]
    yhat = np.empty((bsz, T))
    for t in range(T):
        ht = hs[L - 1, t]
        for i in range(bsz):
            s = 0.0
            for j in range(H):
                s += ht[i, j] * wy[j]
            yhat[i, t] = s + by

    d = yhat - y
    denom = float(bsz * T)
    acc = 0.0
    for i in range(bsz):
        for t in range(T):
            acc += d[i, t] * d[i, t]
    loss = acc / denom
    dy = (2.0 / denom) * d

    grad = np.zeros_like(flat)
    gwy = grad[head:head + H]
    for t in range(T):
        ht = hs[L - 1, t]
        for j in range(H):
            s = 0.0
            for i in range(bsz):
                s += ht[i, j] * dy[i, t]
            gwy[j] += s
    sby = 0.0
    for t in range(T):
        for i in range(bsz):
            sby += dy[i, t]
    grad[head + H] += sby

    # backward through time, top layer down inside each step
    dh_next = np.zeros((L, bsz, H))
    dc_next = np.zeros((L, bsz, H))
    dfromup = np.zeros((bsz, H))
    zeros_bh = np.zeros((bsz, H))
    for t in range(T - 1, -1, -1):
        for l in range(L - 1, -1, -1):
            fin = input_dim if l == 0 else H
            o = offs[l]
            wx = flat[o:o + fin * 4 * H].reshape(fin, 4 * H)
            wh = flat[o + fin * 4 * H:o + fin * 4 * H + H * 4 * H].reshape(H, 4 * H)
            gwx = grad[o:o + fin * 4 * H].reshape(fin, 4 * H)
            gwh = grad[o + fin * 4 * H:o + fin * 4 * H + H * 4 * H].reshape(H, 4 * H)
            gb = grad[o + fin * 4 * H + H * 4 * H:o + fin * 4 * H + H * 4 * H + 4 * H]

            if l == L - 1:
                dh = np.empty((bsz, H))
                for i in range(bsz):
                    for j in range(H):
                        dh[i, j] = dy[i, t] * wy[j] + dh_next[l, i, j]
            else:
                dh = dfromup + dh_next[l]

            i_t = gi[l, t]
            f_t = gf[l, t]
            g_t = gg[l, t]
            o_t = go[l, t]
            tch = tc[l, t]
            c_prev = cs[l, t - 1] if t > 0 else zeros_bh

            dc = dh * o_t * (1.0 - tch * tch) + dc_next[l]
            dzi = (dc * g_t) * i_t * (1.0 - i_t)
            dzf = (dc * c_prev) * f_t * (1.0 - f_t)
            dzg = (dc * i_t) * (1.0 - g_t * g_t)
            dzo = (dh * tch) * o_t * (1.0 - o_t)

            dz = np.empty((bsz, 4 * H))
            dz[:, 0:H] = dzi
            dz[:, H:2 * H] = dzf
            dz[:, 2 * H:3 * H] = dzg
            dz[:, 3 * H:4 * H] = dzo

            if l == 0:
                xin = np.ascontiguousarray(x[:, t, :])
            else:
                xin = np.ascontiguousarray(hs[l - 1, t])
            h_prev = hs[l, t - 1] if t > 0 else zeros_bh

            gwx += np.dot(xin.T, dz)
            gwh += np.dot(h_prev.T, dz)
            for j in range(4 * H):
                s = 0.0
                for i in range(bsz):
                    s += dz[i, j]
                gb[j] += s

            dh_next[l] = np.dot(dz, wh.T)
            dc_next[l] = dc * f_t
            if l > 0:
                dfromup = np.dot(dz, wx.T)
    return loss, grad


def rk4_sparse(xi, expo, trig, u, dt, x_init):
    """Integrate a fitted sparse model dx_s/dt = sum_j xi[s, j] * theta_j(x, u).

    xi     : (n_state, n_terms) coefficient matrix, one row per state equation
    expo   : (n_terms, n_vars) int64 monomial exponent of each variable,
             variables ordered states-then-inputs
    trig   : (n_terms, n_vars) int64 trig factor code per variable:
             0 none, 1 sin(var), 2 cos(var)
    u      : (n_samples, n_inputs) control series
    x_init : (n_state,) initial state

    Returns (states, quad):
      states : (n_samples, n_state)
      quad   : (n_samples, n_state + n_inputs) running RK4 integrals of each
               state and each (interpolated) input, starting at zero.  The
               quadrature states are integrated inside the same RK4 stages,
               so any linear first integral of the model holds to rounding.
    """
    n = u.shape[0]
    n_in = u.shape[1]
    n_state = xi.shape[0]
    n_terms = xi.shape[1]
    n_vars = n_state + n_in

    states = np.empty((n, n_state))
    quad = np.zeros((n, n_state + n_in))

    x = x_init.copy()
    z = np.zeros(n_state + n_in)
    vars_val = np.empty(n_vars)
    ustage = np.empty(n_in)
    kx = np.empty((4, n_state))
    kz = np.empty((4, n_state + n_in))
    xs = np.empty(n_state)

    for s in range(n_state):
        states[0, s] = x[s]

    for k in range(n - 1):
        for stage in range(4):
            # state and input values at this stage
            if stage == 0:
                for j in range(n_in):
                    ustage[j] = u[k, j]
                for s in range(n_state):
                    xs[s] = x[s]
            else:
                if stage == 3:
                    for j in range(n_in):
                        ustage[j] = u[k + 1, j]
                else:
                    for j in range(n_in):
                        ustage[j] = 0.5 * (u[k, j] + u[k + 1, j])
                h = dt if stage == 3 else 0.5 * dt
                prev = stage - 1
                for s in range(n_state):
                    xs[s] = x[s] + h * kx[prev, s]

            for s in range(n_state):
                vars_val[s] = xs[s]
            for j in range(n_in):
                vars_val[n_state + j] = ustage[j]

            # rhs of the model equations
            for s in range(n_state):
                acc = 0.0
                for t in range(n_terms):
                    coef = xi[s, t]
                    if coef != 0.0:
                        v = 1.0
                        for w in range(n_vars):
                            e = expo[t, w]
                            for _ in range(e):
                                v *= vars_val[w]
                            tc = trig[t, w]
                            if tc == 1:
                                v *= np.sin(vars_val[w])
                            elif tc == 2:
                                v *= np.cos(vars_val[w])
                        acc += coef * v
                kx[stage, s] = acc
            # rhs of the quadrature states: the integrands themselves
            for s in range(n_state):
                kz[stage, s] = xs[s]
            for j in range(n_in):
                kz[stage, n_state + j] = ustage[j]

        for s in range(n_state):
            x[s] = x[s] + (dt / 6.0) * (
                kx[0, s] + 2.0 * kx[1, s] + 2.0 * kx[2, s] + kx[3, s]
            )
            states[k + 1, s] = x[s]
        for s in range(n_state + n_in):
            z[s] = z[s] + (dt / 6.0) * (
                kz[0, s] + 2.0 * kz[1, s] + 2.0 * kz[2, s] + kz[3, s]
            )
            quad[k + 1, s] = z[s]

    return states, quad


def savgol_smooth(y, window=7, polyorder=3):
    """Savitzky-Golay smoothing (least-squares local polynomial).

    Interior points use the centered projection row; each edge uses the
    fitted polynomial of its end window.  Series shorter than the window
    are returned unchanged.
    """
    n = y.shape[0]
    if n < window:
        return y.copy()
    half = window // 2
    k = np.arange(-half, half + 1, dtype=np.float64)
    A = np.vander(k, polyorder + 1, increasing=True)
    # projection onto the local polynomial space
    P = A @ np.linalg.pinv(A)
    out = np.empty(n)
    center = P[half]
    for i in range(half, n - half):
        out[i] = center @ y[i - half:i + half + 1]
    out[:half] = (P @ y[:window])[:half]
    out[n - half:] = (P @ y[n - window:])[window - half:]
    return out


def make_windows(features, target, lookback, stride, segments):
    """Lookback windows (X, y) of a (m, n_features) series, one copy each."""
    starts = []
    for seg in segments:
        if seg.excluded:
            continue
        for s in range(seg.start_index, seg.end_index - lookback + 1, stride):
            starts.append(s)
    nf = features.shape[1]
    X = np.empty((len(starts), lookback, nf))
    y = np.empty((len(starts), lookback))
    for i, s in enumerate(starts):
        X[i] = features[s:s + lookback]
        y[i] = target[s:s + lookback]
    return X, y


def stride1_windows(X, lookback):
    """Every stride-1 window of a (m, n_features) series, as predict_series built them."""
    n_win = X.shape[0] - lookback + 1
    wins = np.empty((n_win, lookback, X.shape[1]))
    for i in range(n_win):
        wins[i] = X[i:i + lookback]
    return wins


def _segment_arrays(flight: FlightRecord, state: str, control: str,
                    min_len: int) -> list[tuple[np.ndarray, np.ndarray, float]]:
    out = []
    dt = flight.dt
    for seg in flight.scoring_segments():
        if seg.n_samples < min_len:
            raise SeriesTooShort(
                f"flight {flight.flight_id!r}: segment {seg.label!r} has "
                f"{seg.n_samples} samples, need >= {min_len}"
            )
        x = flight.values(state)[seg.start_index:seg.end_index]
        u = flight.values(control)[seg.start_index:seg.end_index]
        out.append((x, u, dt))
    return out


def fit_first_order(flights: Sequence[FlightRecord], config: SINDyConfig = SINDyConfig(),
                    state: str = "TRQ", control: str = "WF") -> SparseModel:
    """Fit d(state)/dt = Xi . theta(state, control) over all non-excluded segments."""
    if not flights:
        raise EmptyDataset("fit_first_order needs at least one flight")
    xs, us, dxs = [], [], []
    for fl in flights:
        for x, u, dt in _segment_arrays(fl, state, control, 3):
            xs.append(x)
            us.append(u)
            dxs.append(differentiate(x, dt, config.derivative_method))
    x_all = np.concatenate(xs)
    u_all = np.concatenate(us)
    dx_all = np.concatenate(dxs)
    design = build_library(x_all, u_all, config.library, (state,), (control,))
    xi = stlsq(design.values, dx_all, config.threshold,
               config.max_iterations, config.ridge_lambda)
    resid = design.values @ xi[0] - dx_all
    rmse = float(np.sqrt(np.mean(resid * resid)))
    return SparseModel(
        order=1,
        state_names=(state,),
        input_names=(control,),
        xi=xi,
        labels=design.labels,
        expo=design.expo,
        trig=design.trig,
        config=config,
        residual_rmse=(rmse,),
    )


def augment_second_order(flights: Sequence[FlightRecord],
                         config: SINDyConfig = SINDyConfig(),
                         state: str = "TRQ", control: str = "WF"):
    """Per-segment derivative augmentation for the second-order fit.

    Returns (X, U, d2x): X = [state, state'], U = [control, control'],
    d2x the second derivative target.  Derivatives are computed inside
    each segment only; segments need at least 5 samples.
    """
    if not flights:
        raise EmptyDataset("augment_second_order needs at least one flight")
    xs, dxs, d2xs, us, dus = [], [], [], [], []
    for fl in flights:
        for x, u, dt in _segment_arrays(fl, state, control, 5):
            dx = differentiate(x, dt, config.derivative_method)
            d2x = differentiate(dx, dt, config.derivative_method)
            du = differentiate(u, dt, config.derivative_method)
            xs.append(x)
            dxs.append(dx)
            d2xs.append(d2x)
            us.append(u)
            dus.append(du)
    X = np.column_stack([np.concatenate(xs), np.concatenate(dxs)])
    U = np.column_stack([np.concatenate(us), np.concatenate(dus)])
    return X, U, np.concatenate(d2xs)


def fit_second_order(flights: Sequence[FlightRecord], config: SINDyConfig = SINDyConfig(),
                     state: str = "TRQ", control: str = "WF") -> SparseModel:
    """Fit state'' = Xi . theta(state, state', control, control').

    The returned model has two equations: the structural
    d(state)/dt = state' and the fitted second equation.
    """
    X, U, d2x = augment_second_order(flights, config, state, control)
    s_names = (state, f"{state}_dot")
    i_names = (control, f"{control}_dot")
    design = build_library(X, U, config.library, s_names, i_names)
    xi_row = stlsq(design.values, d2x, config.threshold,
                   config.max_iterations, config.ridge_lambda)[0]
    resid = design.values @ xi_row - d2x
    rmse = float(np.sqrt(np.mean(resid * resid)))
    try:
        dot_idx = design.labels.index(f"{state}_dot")
    except ValueError:  # pragma: no cover - degree >= 1 guarantees the term
        raise NoActiveTerms(f"library lacks the {state}_dot term") from None
    xi = np.zeros((2, len(design.labels)))
    xi[0, dot_idx] = 1.0
    xi[1] = xi_row
    return SparseModel(
        order=2,
        state_names=s_names,
        input_names=i_names,
        xi=xi,
        labels=design.labels,
        expo=design.expo,
        trig=design.trig,
        config=config,
        residual_rmse=(0.0, rmse),
    )


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
