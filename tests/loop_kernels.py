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
"""

import numpy as np


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
