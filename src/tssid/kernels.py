"""Numeric kernels: RK4 integrators and the neural forward and gradient passes.

Integration uses classical fixed-step RK4.  Control inputs are sampled
series; stage values use linear interpolation between samples (the value
at the half step is the midpoint average), so one RK4 step spans exactly
one sampling interval.

``rk4_first_order`` and ``rk4_cascade`` integrate one series of the two
ground-truth plants.  ``rk4_sparse`` integrates a batch of independent
runs of a fitted sparse model, with time as the leading axis:
    u (n_samples, batch, n_inputs), x_init (batch, n_state)
    -> states (n_samples, batch, n_state),
       quad (n_samples, batch, n_state + n_inputs)
Runs of different lengths share the time axis: each run stops at its own
length, and its outputs are NaN after it.  The library terms come from
``library_terms``, which also evaluates the design matrix of the fit, so
the term encoding has one decoder.

Neural parameter vectors are flat 1-D float64 arrays.  Layouts:

MLP, layer sizes ``d0, d1, ..., dL`` (ReLU on hidden layers, linear head):
    for each layer l in 1..L: W_l with shape (d_{l-1}, d_l), then b_l (d_l,)

LSTM, ``n_layers`` stacked cells of hidden width H over input width D,
followed by a scalar linear head read out at every time step:
    for each layer l: W_x (in_l, 4H), W_h (H, 4H), b (4H,)
        where in_l = D for the first layer and H above it,
        gate order along the 4H axis is [input, forget, cell, output]
    head: W_y (H,), b_y (one scalar)

The cell is the standard LSTM:
    i = sigmoid(x W_xi + h W_hi + b_i)        f = sigmoid(... + b_f)
    g = tanh(...)                             o = sigmoid(... + b_o)
    c' = f * c + i * g                        h' = o * tanh(c')
with h and c starting at zero for every window.  The training loss is the
mean squared error of the per-step head outputs over every (window, step).

The neural kernels and ``rk4_sparse`` work on whole arrays; only the
recurrences over time steps (LSTM steps, RK4 steps) are Python loops.  The
kernels never call one another (``library_terms`` is a helper, not a
kernel), so the per-kernel call counts and times of
``perfbench/tracer.py``, which wraps each kernel, stay separate.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "rk4_first_order",
    "rk4_cascade",
    "rk4_sparse",
    "library_terms",
    "mlp_forward",
    "mlp_value_and_grad",
    "lstm_forward",
    "lstm_value_and_grad",
]

#: the only implementation; reported next to benchmark results
BACKEND = "numpy"


def rk4_first_order(a, b, c, u, dt, x0):
    """Integrate dx/dt = -a - b*x + c*u(t) over the samples of ``u``.

    Returns the state series, same length as ``u``, with ``out[0] = x0``.
    """
    n = u.shape[0]
    out = np.empty(n)
    x = x0
    out[0] = x
    for k in range(n - 1):
        u0 = u[k]
        u1 = u[k + 1]
        um = 0.5 * (u0 + u1)
        k1 = -a - b * x + c * u0
        k2 = -a - b * (x + 0.5 * dt * k1) + c * um
        k3 = -a - b * (x + 0.5 * dt * k2) + c * um
        k4 = -a - b * (x + dt * k3) + c * u1
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = x
    return out


def rk4_cascade(mu, tau1, tau2, u, dt, x0, v0):
    """Integrate tau1*tau2*x'' + (tau1+tau2)*x' + x = mu*u(t).

    State is (x, v = dx/dt).  Returns (x_series, v_series).
    """
    n = u.shape[0]
    xs = np.empty(n)
    vs = np.empty(n)
    p = tau1 * tau2
    q = tau1 + tau2
    x = x0
    v = v0
    xs[0] = x
    vs[0] = v
    for k in range(n - 1):
        u0 = u[k]
        u1 = u[k + 1]
        um = 0.5 * (u0 + u1)

        k1x = v
        k1v = (mu * u0 - x - q * v) / p
        x2 = x + 0.5 * dt * k1x
        v2 = v + 0.5 * dt * k1v
        k2x = v2
        k2v = (mu * um - x2 - q * v2) / p
        x3 = x + 0.5 * dt * k2x
        v3 = v + 0.5 * dt * k2v
        k3x = v3
        k3v = (mu * um - x3 - q * v3) / p
        x4 = x + dt * k3x
        v4 = v + dt * k3v
        k4x = v4
        k4v = (mu * u1 - x4 - q * v4) / p

        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        xs[k + 1] = x
        vs[k + 1] = v
    return xs, vs


def library_terms(expo, trig):
    """Compile a term encoding into ``terms(values) -> term values``.

    expo, trig : (n_terms, n_vars) int64, as taken by :func:`rk4_sparse`
    ``terms`` maps values of shape (..., n_vars) to (..., n_terms).  Term j
    is the product over variables w, in order, of values[w] multiplied in
    expo[j, w] times, then sin(values[w]) or cos(values[w]) where trig[j, w]
    is 1 or 2.  This is the only decoder of the encoding.
    """
    n_terms, n_vars = expo.shape
    # The factor table has the columns 1, values, sin(values), cos(values).
    # Per variable w, term j takes expo[j, w] copies of column 1 + w, then
    # column 1 + c*n_vars + w once if its trig code c is not 0.
    w = np.arange(n_vars)
    column = np.stack(np.broadcast_arrays(1 + w, 1 + n_vars * trig + w), axis=-1)
    copies = np.stack([expo, trig != 0], axis=-1)
    counts = copies.sum(axis=(1, 2))
    # one row of factor columns per term, padded with the constant column
    factors = np.zeros((n_terms, max(counts.max(initial=0), 1)), dtype=np.int64)
    factors[np.arange(factors.shape[1]) < counts[:, None]] = np.repeat(column.ravel(),
                                                                       copies.ravel())
    factors = list(factors.T)
    n_cols = 1 + (3 if np.any(trig) else 1) * n_vars

    def terms(values):
        table = np.empty(values.shape[:-1] + (n_cols,))
        table[..., 0] = 1.0
        table[..., 1:1 + n_vars] = values
        if n_cols > 1 + n_vars:
            np.sin(values, out=table[..., 1 + n_vars:1 + 2 * n_vars])
            np.cos(values, out=table[..., 1 + 2 * n_vars:])
        out = table.take(factors[0], axis=-1)
        for slot in factors[1:]:  # one pass per factor, at most the library degree
            out *= table.take(slot, axis=-1)
        return out

    return terms


def rk4_sparse(xi, expo, trig, u, dt, x_init, lengths=None):
    """Integrate a batch of runs of a sparse model dx_s/dt = sum_j xi[s, j] * theta_j(x, u).

    xi      : (n_state, n_terms) coefficient matrix, one row per state equation
    expo    : (n_terms, n_vars) int64 monomial exponent of each variable,
              variables ordered states-then-inputs
    trig    : (n_terms, n_vars) int64 trig factor code per variable:
              0 none, 1 sin(var), 2 cos(var)
    u       : (n_samples, batch, n_inputs) control series, time leading
    x_init  : (batch, n_state) initial states
    lengths : (batch,) samples in each run, n_samples for all when None.
              Nothing is evaluated past a run's end, so a run's result is
              the one it gets alone; the rows of u past it are not used.

    Returns (states, quad), NaN past each run's end:
      states : (n_samples, batch, n_state)
      quad   : (n_samples, batch, n_state + n_inputs) running RK4 integrals
               of each state and each (interpolated) input, starting at zero.
               The quadrature states are integrated inside the same RK4
               stages, so any linear first integral of the model holds to
               rounding.
    """
    used = np.flatnonzero(np.any(xi != 0.0, axis=0))
    terms = library_terms(expo[used], trig[used])
    coef = xi[:, used]
    n, batch, n_in = u.shape
    n_state = xi.shape[0]
    lengths = np.full(batch, n) if lengths is None else np.asarray(lengths)
    # longest runs first, so that the runs still going at step k are the
    # first going[k]
    order = np.argsort(-lengths, kind="stable")
    going = (lengths[order][:, None] > np.arange(1, n)).sum(axis=0)
    u = u[:, order]
    u_mid = 0.5 * (u[:-1] + u[1:])
    # the inputs of the four stages of step k
    u_stage = np.stack([u[:-1], u_mid, u_mid, u[1:]], axis=1)
    # States and quadratures advance together: a row of traj is [states |
    # quadratures], a stage's slopes are [kx | v], where v = (stage states,
    # stage inputs) is both the quadratures' integrand and the terms' input.
    traj = np.full((n, batch, 2 * n_state + n_in), np.nan)
    traj[0, :, :n_state] = x_init[order]
    traj[0, :, n_state:] = 0.0
    slopes = np.empty((4, batch, 2 * n_state + n_in))
    h = (0.5 * dt, 0.5 * dt, dt)
    for k in range(n - 1):
        m = going[k]
        if k == 0 or m < going[k - 1]:  # views of each stage, for the runs going
            kx = [s[:m, :n_state] for s in slopes]
            v = [s[:m, n_state:] for s in slopes]
            xs = [s[:m, n_state:2 * n_state] for s in slopes]
        x = traj[k, :m, :n_state]
        slopes[:, :m, 2 * n_state:] = u_stage[k, :, :m]
        xs[0][...] = x
        np.einsum("bj,sj->bs", terms(v[0]), coef, out=kx[0])
        for i in range(1, 4):
            np.multiply(kx[i - 1], h[i - 1], out=xs[i])
            xs[i] += x
            np.einsum("bj,sj->bs", terms(v[i]), coef, out=kx[i])
        k1, k2, k3, k4 = slopes[:, :m]
        np.add(traj[k, :m], (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=traj[k + 1, :m])
    inverse = np.argsort(order)
    return traj[:, inverse, :n_state], traj[:, inverse, n_state:]


def _mlp_layers(flat, sizes):
    """(W, b) views of each layer of an MLP parameter (or gradient) vector."""
    layers = []
    off = 0
    for fin, fout in zip(sizes[:-1].tolist(), sizes[1:].tolist()):
        w = flat[off:off + fin * fout].reshape(fin, fout)
        off += fin * fout
        layers.append((w, flat[off:off + fout]))
        off += fout
    return layers


def mlp_forward(flat, sizes, x):
    """Forward pass of the MLP.  x: (batch, sizes[0]) -> (batch, sizes[-1])."""
    *hidden, (w, b) = _mlp_layers(flat, sizes)
    h = x
    for wl, bl in hidden:
        h = np.maximum(h @ wl + bl, 0.0)
    return h @ w + b


def mlp_value_and_grad(flat, sizes, x, y):
    """MSE loss and gradient of the MLP on one batch.

    x: (batch, sizes[0]); y: (batch, sizes[-1]).
    Loss is mean over batch * output entries.  Returns (loss, grad) with
    grad laid out exactly like ``flat``.
    """
    layers = _mlp_layers(flat, sizes)
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    w, b = layers[-1]
    d = acts[-1] @ w + b - y
    loss = np.sum(d * d) / d.size

    grad = np.empty_like(flat)
    glayers = _mlp_layers(grad, sizes)
    delta = (2.0 / d.size) * d
    for l in range(len(layers) - 1, -1, -1):
        gw, gb = glayers[l]
        gw[...] = acts[l].T @ delta
        gb[...] = delta.sum(axis=0)
        if l > 0:
            # ReLU passes the gradient where its output is positive
            delta = (delta @ layers[l][0].T) * (acts[l] > 0.0)
    return loss, grad


def _lstm_params(flat, input_dim, hidden, n_layers):
    """Views of an LSTM parameter (or gradient) vector:
    ([(W_x, W_h, b) per layer], W_y, b_y), with b_y of shape (1,)."""
    g = 4 * hidden
    layers = []
    off = 0
    fin = input_dim
    for _ in range(n_layers):
        wx = flat[off:off + fin * g].reshape(fin, g)
        off += fin * g
        wh = flat[off:off + hidden * g].reshape(hidden, g)
        off += hidden * g
        layers.append((wx, wh, flat[off:off + g]))
        off += g
        fin = hidden
    return layers, flat[off:off + hidden], flat[off + hidden:off + hidden + 1]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _lstm_layer(seq, wx, wh, b):
    """Run one LSTM layer over the time-major sequence ``seq`` (T, batch, fin).

    Returns (gates, cells, hidden): the gate activations (T, batch, 4H) in
    [i, f, g, o] order, and the cell and hidden states (T, batch, H).
    """
    T, bsz, fin = seq.shape
    H = wh.shape[0]
    # input-to-gate products of every step in one matmul; each step then
    # adds its recurrent term and squashes its slice in place
    gates = (seq.reshape(T * bsz, fin) @ wx + b).reshape(T, bsz, 4 * H)
    cells = np.empty((T, bsz, H))
    hidden = np.empty((T, bsz, H))
    h = np.zeros((bsz, H))
    c = np.zeros((bsz, H))
    for t in range(T):
        a = gates[t]
        a += h @ wh
        a[:, :2 * H] = _sigmoid(a[:, :2 * H])
        a[:, 2 * H:3 * H] = np.tanh(a[:, 2 * H:3 * H])
        a[:, 3 * H:] = _sigmoid(a[:, 3 * H:])
        c = a[:, H:2 * H] * c + a[:, :H] * a[:, 2 * H:3 * H]
        h = a[:, 3 * H:] * np.tanh(c)
        cells[t] = c
        hidden[t] = h
    return gates, cells, hidden


#: windows per block of ``lstm_forward``: the gate arrays of a block stay
#: near 2 MB where a whole flight's windows would take tens of MB
_FORWARD_BLOCK = 512


def lstm_forward(flat, input_dim, hidden, n_layers, x):
    """Forward pass of the stacked LSTM.  x: (batch, T, input_dim) -> (batch, T)."""
    layers, wy, by = _lstm_params(flat, input_dim, hidden, n_layers)
    out = np.empty(x.shape[:2])
    for lo in range(0, x.shape[0], _FORWARD_BLOCK):
        seq = np.ascontiguousarray(x[lo:lo + _FORWARD_BLOCK].transpose(1, 0, 2))
        for wx, wh, b in layers:
            seq = _lstm_layer(seq, wx, wh, b)[2]
        out[lo:lo + _FORWARD_BLOCK] = (seq @ wy + by).T
    return out


def lstm_value_and_grad(flat, input_dim, hidden, n_layers, x, y):
    """MSE loss and full-BPTT gradient of the stacked LSTM on one batch.

    x: (batch, T, input_dim); y: (batch, T) per-step targets.
    Loss is mean over batch * T.  Returns (loss, grad).
    """
    H = hidden
    layers, wy, by = _lstm_params(flat, input_dim, hidden, n_layers)
    seqs = [np.ascontiguousarray(x.transpose(1, 0, 2))]
    states = []
    for wx, wh, b in layers:
        states.append(_lstm_layer(seqs[-1], wx, wh, b))
        seqs.append(states[-1][2])

    top = seqs[-1]
    d = (top @ wy + by) - y.T
    loss = np.sum(d * d) / d.size
    dy = (2.0 / d.size) * d

    grad = np.empty_like(flat)
    glayers, gwy, gby = _lstm_params(grad, input_dim, hidden, n_layers)
    gwy[...] = np.tensordot(top, dy, axes=([0, 1], [0, 1]))
    gby[...] = dy.sum()

    # backward through time one layer at a time, top layer first; dh holds
    # the loss gradient reaching each hidden state from outside its layer
    dh = dy[:, :, None] * wy
    for l in range(n_layers - 1, -1, -1):
        wx, wh, _ = layers[l]
        gates, cells, hs = states[l]
        tch = np.tanh(cells)
        dz = np.empty_like(gates)
        dh_next = np.zeros_like(dh[0])
        dc_next = np.zeros_like(dh[0])
        for t in range(x.shape[1] - 1, -1, -1):
            a = gates[t]
            i_t = a[:, :H]
            f_t = a[:, H:2 * H]
            g_t = a[:, 2 * H:3 * H]
            o_t = a[:, 3 * H:]
            c_prev = cells[t - 1] if t > 0 else np.zeros_like(dc_next)
            dht = dh[t] + dh_next
            dc = dht * o_t * (1.0 - tch[t] * tch[t]) + dc_next
            dz[t, :, :H] = (dc * g_t) * i_t * (1.0 - i_t)
            dz[t, :, H:2 * H] = (dc * c_prev) * f_t * (1.0 - f_t)
            dz[t, :, 2 * H:3 * H] = (dc * i_t) * (1.0 - g_t * g_t)
            dz[t, :, 3 * H:] = (dht * tch[t]) * o_t * (1.0 - o_t)
            dh_next = dz[t] @ wh.T
            dc_next = dc * f_t
        gwx, gwh, gb = glayers[l]
        gwx[...] = np.tensordot(seqs[l], dz, axes=([0, 1], [0, 1]))
        gwh[...] = np.tensordot(hs[:-1], dz[1:], axes=([0, 1], [0, 1]))
        gb[...] = dz.sum(axis=(0, 1))
        if l > 0:
            dh = dz @ wx.T
    return loss, grad
