"""Numerical kernels against closed-form oracles and a loop reference.

The array-style kernels sum in a different order than the scalar loops in
``loop_kernels.py``, so they are required to agree with them to 1e-13
relative (neural kernels) or 1e-12 relative (sparse RK4) rather than
bitwise.
"""

import warnings

import loop_kernels
import numpy as np
import pytest

from conftest import toy_record
from tssid import kernels
from tssid.flightdata import ManeuverSegment
from tssid.sindy import (
    LibrarySpec,
    SINDyConfig,
    SparseModel,
    build_library,
    build_term_encoding,
    differentiate,
    simulate,
    simulate_flights,
)


def _step_input(n, level=1.0):
    return np.full(n, float(level))


# --- RK4 against analytic solutions -----------------------------------------

def test_rk4_first_order_matches_exponential_step():
    # dx/dt = -a - b x + c u with a=0, b=1, c=1, u=1, x0=0  ->  1 - e^{-t}
    dt, T = 0.01, 5.0
    n = int(round(T / dt)) + 1
    xs = kernels.rk4_first_order(0.0, 1.0, 1.0, _step_input(n), dt, 0.0)
    t = np.arange(n) * dt
    assert np.max(np.abs(xs - (1.0 - np.exp(-t)))) < 1e-9


def test_rk4_first_order_steady_state():
    # for constant input the integrator settles to (c u - a) / b
    n = 6000
    xs = kernels.rk4_first_order(10.0, 0.5, 0.2, _step_input(n, 400.0), 0.01, 0.0)
    assert xs[-1] == pytest.approx((0.2 * 400.0 - 10.0) / 0.5, rel=1e-9)


def test_rk4_cascade_matches_two_exponential_step():
    # tau1 tau2 x'' + (tau1+tau2) x' + x = mu u, step u from rest:
    # x(t) = mu u (1 - (tau1 e^{-t/tau1} - tau2 e^{-t/tau2}) / (tau1 - tau2))
    mu, tau1, tau2 = 0.4, 0.6, 0.15
    dt, T = 0.01, 6.0
    n = int(round(T / dt)) + 1
    u = _step_input(n, 500.0)
    xs, vs = kernels.rk4_cascade(mu, tau1, tau2, u, dt, 0.0, 0.0)
    t = np.arange(n) * dt
    exact = mu * 500.0 * (1.0 - (tau1 * np.exp(-t / tau1) - tau2 * np.exp(-t / tau2))
                          / (tau1 - tau2))
    # early transient carries the fast tau2 mode: O((dt/tau2)^4) truncation
    assert np.max(np.abs(xs - exact)) < 2e-5
    assert np.max(np.abs(xs[-100:] - exact[-100:])) < 1e-9
    # the velocity channel must track the analytic derivative
    exact_v = (mu * 500.0 / (tau1 - tau2)) * (np.exp(-t / tau1) - np.exp(-t / tau2))
    assert np.max(np.abs(vs - exact_v)) < 2e-4


def test_rk4_fourth_order_convergence():
    # halving dt must shrink the global error by about 2^4
    mu, tau1, tau2 = 0.4, 0.6, 0.15

    def err(dt):
        n = int(round(2.0 / dt)) + 1
        u = _step_input(n, 100.0)
        xs, _ = kernels.rk4_cascade(mu, tau1, tau2, u, dt, 0.0, 0.0)
        t = np.arange(n) * dt
        exact = mu * 100.0 * (1.0 - (tau1 * np.exp(-t / tau1)
                                     - tau2 * np.exp(-t / tau2)) / (tau1 - tau2))
        return np.max(np.abs(xs - exact))

    ratio = err(0.04) / err(0.02)
    assert 12.0 < ratio < 20.0


def test_rk4_sparse_reproduces_dense_first_order():
    # same plant expressed as a sparse model: dx/dt = -10 - 0.5 x + 0.2 u
    n = 800
    rng = np.random.default_rng(3)
    u = 300.0 + 50.0 * np.sin(np.linspace(0, 20, n)) + rng.normal(0, 1.0, n)
    dense = kernels.rk4_first_order(10.0, 0.5, 0.2, u, 0.02, 120.0)

    xi = np.array([[-10.0, -0.5, 0.2]])
    expo = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64)
    trig = np.zeros((3, 2), dtype=np.int64)
    states, quad = kernels.rk4_sparse(xi, expo, trig, u[:, None, None], 0.02,
                                      np.array([[120.0]]))
    assert states.shape == (n, 1, 1) and quad.shape == (n, 1, 2)
    assert np.array_equal(states[:, 0, 0], dense)


def test_rk4_sparse_quadrature_is_exact_integral():
    # quadrature columns integrate states and inputs inside the same RK4
    # stages; for dx/dt = -x the integral of x is x0 - x(t) exactly.
    n = 500
    u = np.zeros(n)
    xi = np.array([[-1.0, 0.0]])
    expo = np.array([[1, 0], [0, 1]], dtype=np.int64)
    trig = np.zeros((2, 2), dtype=np.int64)
    states, quad = kernels.rk4_sparse(xi, expo, trig, u[:, None, None], 0.05,
                                      np.array([[2.0]]))
    int_x = quad[:, 0, 0]
    assert np.max(np.abs(int_x - (2.0 - states[:, 0, 0]))) < 1e-12


def test_rk4_sparse_trig_terms():
    # dx/dt = sin(u) with constant u: x grows linearly at sin(u0)
    n = 100
    u = np.full(n, 0.7)
    xi = np.array([[1.0]])
    expo = np.array([[0, 0]], dtype=np.int64)   # pure trig factor: exponent 0
    trig = np.array([[0, 1]], dtype=np.int64)   # sin on the input
    states, _ = kernels.rk4_sparse(xi, expo, trig, u[:, None, None], 0.1,
                                   np.array([[0.0]]))
    t = np.arange(n) * 0.1
    assert np.max(np.abs(states[:, 0, 0] - np.sin(0.7) * t)) < 1e-12


def _sparse_case(order, trig, rng):
    """A fitted-looking sparse model: every library term active in its last equation."""
    if order == 1:
        names = (("TRQ",), ("WF",))
        spec = LibrarySpec(degree=2, trig=trig)
    else:
        names = (("TRQ", "TRQ_dot"), ("WF", "WF_dot"))
        spec = LibrarySpec(degree=2 if trig else 1, trig=trig)
    expo, trg, labels = build_term_encoding(*names, spec)
    xi = rng.normal(0.0, 1e-4, (order, len(labels)))
    if order == 1:
        xi[0, labels.index("TRQ")] = -0.5
        xi[0, labels.index("WF")] = 0.2
    else:
        xi[0] = 0.0
        xi[0, labels.index("TRQ_dot")] = 1.0
        xi[1, labels.index("TRQ")] = -11.1
        xi[1, labels.index("TRQ_dot")] = -8.3
        xi[1, labels.index("WF")] = 4.4
    return xi, expo, trg


def _control(n, n_in, rng):
    t = np.linspace(0.0, 6.0, n)
    u = 3.0 + np.sin(t * rng.uniform(0.5, 2.0)) + rng.normal(0.0, 0.05, n)
    return np.column_stack([u, np.gradient(u, 0.02)][:n_in])


@pytest.mark.parametrize("order,trig", [(1, False), (2, False), (1, True), (2, True)])
def test_rk4_sparse_matches_loop_reference(order, trig):
    # one batch of ragged runs: every run must match the loop integrating it
    # alone, and nothing past a run's end may reach its output or warn
    rng = np.random.default_rng(10 * order + trig)
    xi, expo, trg = _sparse_case(order, trig, rng)
    n_in = order
    lengths = [2, 3, 417, 250, 2]
    runs = [_control(n, n_in, rng) for n in lengths]
    x_init = np.column_stack([rng.uniform(1.0, 2.0, len(runs))]
                             + [rng.normal(0.0, 0.1, len(runs))] * (order - 1))
    u = np.zeros((max(lengths), len(runs), n_in))  # rows past a run's end are not used
    for b, run in enumerate(runs):
        u[:len(run), b] = run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, quad = kernels.rk4_sparse(xi, expo, trg, u, 0.02, x_init, lengths)
    assert states.shape == (max(lengths), len(runs), order)
    assert quad.shape == (max(lengths), len(runs), order + n_in)
    for b, run in enumerate(runs):
        n = len(run)
        ref_states, ref_quad = loop_kernels.rk4_sparse(xi, expo, trg, run, 0.02, x_init[b])
        assert _rel(states[:n, b], ref_states) < 1e-12
        assert _rel(quad[1:n, b], ref_quad[1:]) < 1e-12
        assert np.all(quad[0, b] == 0.0)
        assert np.all(np.isnan(states[n:, b])) and np.all(np.isnan(quad[n:, b]))
        alone_states, alone_quad = kernels.rk4_sparse(xi, expo, trg, run[:, None],
                                                      0.02, x_init[b:b + 1])
        assert np.array_equal(states[:n, b], alone_states[:, 0])
        assert np.array_equal(quad[:n, b], alone_quad[:, 0])


def test_library_terms_is_the_design_matrix_decoder():
    # build_library evaluates its columns through the same decoder, in the
    # loop's factor order: x^3 is ((x*x)*x), not pow(x, 3)
    rng = np.random.default_rng(4)
    X, U = rng.normal(size=(40, 2)), rng.normal(size=(40, 1))
    spec = LibrarySpec(degree=3, trig=True)
    design = build_library(X, U, spec, ("a", "b"), ("c",))
    V = np.hstack([X, U])
    assert np.array_equal(kernels.library_terms(design.expo, design.trig)(V), design.values)
    a, b, c = V.T
    for label, col in [("1", np.ones(40)), ("a^3", a * a * a), ("a*b*c", a * b * c),
                       ("b^2*c", b * b * c), ("cos(c)", np.cos(c))]:
        assert np.array_equal(design.values[:, design.labels.index(label)], col), label
    # leading axes pass through: a (time, batch, vars) block evaluates row by row
    terms = kernels.library_terms(design.expo, design.trig)
    assert np.array_equal(terms(V.reshape(8, 5, 3)).reshape(40, -1), design.values)


@pytest.mark.parametrize("order", [1, 2])
def test_simulate_record_is_one_call_equal_to_per_segment_simulate(order, monkeypatch):
    # simulate_flights integrates all scoring segments of all flights in one
    # kernel call, and each segment comes out as sindy.simulate gives it alone
    segments = (ManeuverSegment("a", 0, 5), ManeuverSegment("taxi", 5, 40, excluded=True),
                ManeuverSegment("b", 40, 46), ManeuverSegment("c", 46, 400))
    recs = [toy_record("fl01", n=400, fs=50.0, seed=order, segments=segments),
            toy_record("fl02", n=90, fs=50.0, seed=order + 10, segments=()),
            toy_record("fl03", n=250, fs=50.0, seed=order + 20,
                       segments=(ManeuverSegment("d", 0, 250),))]
    rng = np.random.default_rng(order)
    xi, expo, trg = _sparse_case(order, False, rng)
    if order == 1:
        names, spec = (("TRQ",), ("WF",)), LibrarySpec(degree=2)
    else:
        names, spec = (("TRQ", "TRQ_dot"), ("WF", "WF_dot")), LibrarySpec(degree=1)
    labels = build_term_encoding(*names, spec)[2]
    model = SparseModel(order, *names, xi, labels, expo, trg,
                        SINDyConfig(derivative_method="central", library=spec), (0.0,) * order)
    calls = []
    real = kernels.rk4_sparse
    monkeypatch.setattr(kernels, "rk4_sparse", lambda *a: calls.append(a) or real(*a))
    preds = simulate_flights(model, recs)
    assert len(calls) == 1
    assert calls[0][3].shape[1] == 5  # every scoring segment of the three flights
    assert list(preds) == ["fl01", "fl02", "fl03"]
    for rec in recs:
        dt, trq, wf = rec.dt, rec.values("TRQ"), rec.values("WF")
        expected = np.full(rec.n_samples, np.nan)
        for seg in rec.scoring_segments():
            s, e = seg.start_index, seg.end_index
            if order == 1:
                expected[s:e] = simulate(model, wf[s:e], dt, trq[s])
            else:
                expected[s:e] = simulate(model, wf[s:e], dt, trq[s],
                                         differentiate(trq[s:e], dt, "central")[0])
        assert np.array_equal(preds[rec.flight_id], expected, equal_nan=True), rec.flight_id
    pred = preds["fl01"]
    assert np.all(np.isnan(pred[5:40])) and not np.any(np.isnan(pred[40:]))
    assert not np.any(np.isnan(preds["fl02"])) and not np.any(np.isnan(preds["fl03"]))


# --- neural kernels -----------------------------------------------------------

def _mlp_fixture(seed=0):
    sizes = np.array([3, 8, 5, 1], dtype=np.int64)
    n_params = int(np.sum(sizes[:-1] * sizes[1:] + sizes[1:]))
    rng = np.random.default_rng(seed)
    flat = rng.normal(0.0, 0.4, n_params)
    X = rng.normal(0.0, 1.0, (16, 3))
    Y = rng.normal(0.0, 1.0, (16, 1))
    return flat, sizes, X, Y


def test_mlp_loss_is_mean_squared_error():
    flat, sizes, X, Y = _mlp_fixture()
    out = kernels.mlp_forward(flat, sizes, X)
    loss, _ = kernels.mlp_value_and_grad(flat, sizes, X, Y)
    assert loss == pytest.approx(np.mean((out - Y) ** 2), rel=1e-12)


def test_mlp_gradient_matches_finite_differences():
    flat, sizes, X, Y = _mlp_fixture(seed=5)
    _, grad = kernels.mlp_value_and_grad(flat, sizes, X, Y)
    rng_idx = np.random.default_rng(1).choice(flat.size, 25, replace=False)
    h = 1e-6
    for i in rng_idx:
        p1, p2 = flat.copy(), flat.copy()
        p1[i] += h
        p2[i] -= h
        fd = (kernels.mlp_value_and_grad(p1, sizes, X, Y)[0]
              - kernels.mlp_value_and_grad(p2, sizes, X, Y)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def _lstm_fixture(seed=0):
    in_dim, hidden, layers, lb, batch = 3, 4, 2, 6, 5
    n = 0
    d = in_dim
    for _ in range(layers):
        n += d * 4 * hidden + hidden * 4 * hidden + 4 * hidden
        d = hidden
    n += hidden + 1
    rng = np.random.default_rng(seed)
    flat = rng.normal(0.0, 0.3, n)
    X = rng.normal(0.0, 1.0, (batch, lb, in_dim))
    Y = rng.normal(0.0, 1.0, (batch, lb))
    return flat, in_dim, hidden, layers, X, Y


def test_lstm_loss_is_mean_squared_error():
    flat, ind, hid, lay, X, Y = _lstm_fixture()
    out = kernels.lstm_forward(flat, ind, hid, lay, X)
    loss, _ = kernels.lstm_value_and_grad(flat, ind, hid, lay, X, Y)
    assert loss == pytest.approx(np.mean((out - Y) ** 2), rel=1e-12)


def test_lstm_gradient_matches_finite_differences():
    flat, ind, hid, lay, X, Y = _lstm_fixture(seed=9)
    _, grad = kernels.lstm_value_and_grad(flat, ind, hid, lay, X, Y)
    rng_idx = np.random.default_rng(2).choice(flat.size, 25, replace=False)
    h = 1e-6
    for i in rng_idx:
        p1, p2 = flat.copy(), flat.copy()
        p1[i] += h
        p2[i] -= h
        fd = (kernels.lstm_value_and_grad(p1, ind, hid, lay, X, Y)[0]
              - kernels.lstm_value_and_grad(p2, ind, hid, lay, X, Y)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-4, abs=1e-8)


def test_lstm_forward_respects_lookback_causality():
    # outputs at step t must not depend on inputs after t
    flat, ind, hid, lay, X, Y = _lstm_fixture(seed=4)
    base = kernels.lstm_forward(flat, ind, hid, lay, X)
    X2 = X.copy()
    X2[:, -1, :] += 10.0  # change only the last step
    out2 = kernels.lstm_forward(flat, ind, hid, lay, X2)
    assert np.array_equal(base[:, :-1], out2[:, :-1])
    assert not np.allclose(base[:, -1], out2[:, -1])


# --- backend and loop reference --------------------------------------------------

def test_backend_reports_flag():
    assert kernels.BACKEND == "numpy"


def _rel(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


def test_mlp_matches_loop_reference():
    # batch 1 and a single layer are the shapes where broadcasting slips
    for seed, layer_sizes, batch in [(11, (3, 8, 5, 1), 16), (12, (5, 24, 24, 24, 24, 1), 64),
                                     (13, (4, 1), 9), (14, (2, 6, 3), 1)]:
        sizes = np.array(layer_sizes, dtype=np.int64)
        rng = np.random.default_rng(seed)
        flat = rng.normal(0.0, 0.4, int(np.sum(sizes[:-1] * sizes[1:] + sizes[1:])))
        X = rng.normal(0.0, 1.0, (batch, sizes[0]))
        Y = rng.normal(0.0, 1.0, (batch, sizes[-1]))
        loss, grad = kernels.mlp_value_and_grad(flat, sizes, X, Y)
        ref_loss, ref_grad = loop_kernels.mlp_value_and_grad(flat, sizes, X, Y)
        assert loss == pytest.approx(ref_loss, rel=1e-13)
        assert _rel(grad, ref_grad) < 1e-13
        assert _rel(kernels.mlp_forward(flat, sizes, X),
                    loop_kernels.mlp_forward(flat, sizes, X)) < 1e-13


def test_lstm_matches_loop_reference():
    # batch 600 spans two blocks of lstm_forward
    for seed, (ind, hid, lay, lb, batch) in [(13, (3, 4, 2, 6, 5)), (14, (5, 6, 3, 20, 64)),
                                             (15, (2, 3, 1, 7, 1)), (16, (1, 2, 1, 1, 3)),
                                             (17, (2, 2, 2, 3, 600))]:
        n, d = hid + 1, ind
        for _ in range(lay):
            n += d * 4 * hid + hid * 4 * hid + 4 * hid
            d = hid
        rng = np.random.default_rng(seed)
        flat = rng.normal(0.0, 0.3, n)
        X = rng.normal(0.0, 1.0, (batch, lb, ind))
        Y = rng.normal(0.0, 1.0, (batch, lb))
        loss, grad = kernels.lstm_value_and_grad(flat, ind, hid, lay, X, Y)
        ref_loss, ref_grad = loop_kernels.lstm_value_and_grad(flat, ind, hid, lay, X, Y)
        assert loss == pytest.approx(ref_loss, rel=1e-13)
        assert _rel(grad, ref_grad) < 1e-13
        assert _rel(kernels.lstm_forward(flat, ind, hid, lay, X),
                    loop_kernels.lstm_forward(flat, ind, hid, lay, X)) < 1e-13
