"""Sparse regression: library, derivatives, STLSQ, fits, simulation, I/O."""

from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import dataclass, fields, replace

import loop_kernels
import numpy as np
import pytest

from conftest import CONFIGS, toy_record
from tssid.config import load_config
from tssid.errors import (
    ComputationError,
    ConfigError,
    DegreeTooHigh,
    EmptyDataset,
    IoError,
    LengthMismatch,
    MissingInitialDerivative,
    NoActiveTerms,
    RankDeficient,
    SeriesTooShort,
)
from tssid import kernels
from tssid.flightdata import FlightRecord, ManeuverSegment, filter_maneuvers
from tssid.settings import TEXT, read, text_items
from tssid.sindy import (
    _savgol_smooth,
    LibrarySpec,
    SINDyConfig,
    SparseModel,
    build_library,
    build_term_encoding,
    differentiate,
    fit_sparse,
    format_equations,
    load_model,
    reduction_residual,
    save_model,
    simulate,
    simulate_flights,
    simulate_segments,
    stlsq,
)
from tssid.synthgen import (
    GroundTruthParams,
    ManeuverProfile,
    SyntheticFlightSpec,
    generate_flight,
)

# --- term encoding / library evaluation ------------------------------------------


def test_term_encoding_degree_two_labels():
    _, _, labels = build_term_encoding(("TRQ",), ("WF",), LibrarySpec(degree=2))
    assert labels == ("1", "TRQ", "WF", "TRQ^2", "TRQ*WF", "WF^2")


def test_term_encoding_no_cross_no_bias_with_trig():
    spec = LibrarySpec(degree=2, cross_terms=False, bias=False, trig=True)
    _, _, labels = build_term_encoding(("x",), ("u",), spec)
    assert labels == ("x", "u", "x^2", "u^2",
                      "sin(x)", "sin(u)", "cos(x)", "cos(u)")


def test_term_encoding_degree_bounds():
    with pytest.raises(DegreeTooHigh):
        LibrarySpec(degree=0)
    with pytest.raises(DegreeTooHigh):
        LibrarySpec(degree=6)


def test_build_library_values_match_manual_monomials():
    x = np.array([1.0, 2.0, 3.0])
    u = np.array([4.0, 5.0, 6.0])
    design = build_library(x, u, LibrarySpec(degree=2))
    cols = {lb: design.values[:, j] for j, lb in enumerate(design.labels)}
    np.testing.assert_array_equal(cols["1"], np.ones(3))
    np.testing.assert_array_equal(cols["TRQ"], x)
    np.testing.assert_array_equal(cols["WF"], u)
    np.testing.assert_array_equal(cols["TRQ^2"], x * x)
    np.testing.assert_array_equal(cols["TRQ*WF"], x * u)
    np.testing.assert_array_equal(cols["WF^2"], u * u)


def test_build_library_trig_columns():
    x = np.linspace(-1.0, 1.0, 7)
    u = np.linspace(0.0, 2.0, 7)
    design = build_library(x, u, LibrarySpec(degree=1, trig=True))
    cols = {lb: design.values[:, j] for j, lb in enumerate(design.labels)}
    np.testing.assert_allclose(cols["sin(TRQ)"], np.sin(x), atol=1e-15)
    np.testing.assert_allclose(cols["cos(WF)"], np.cos(u), atol=1e-15)


def test_build_library_shape_validation():
    with pytest.raises(LengthMismatch):
        build_library(np.ones((4, 2)), np.ones(4), LibrarySpec())
    with pytest.raises(LengthMismatch):
        build_library(np.ones(4), np.ones(5), LibrarySpec())


# --- differentiation ---------------------------------------------------------------


def test_differentiate_quadratic_exact():
    # all stencils are second order, so t^2 differentiates exactly
    dt = 0.1
    t = np.arange(50) * dt
    d = differentiate(t * t, dt, "central")
    np.testing.assert_allclose(d, 2.0 * t, atol=1e-10)


def test_differentiate_sin_interior_truncation():
    dt = 0.01
    t = np.arange(500) * dt
    d = differentiate(np.sin(t), dt, "central")
    interior = np.abs(d[1:-1] - np.cos(t)[1:-1])
    assert interior.max() <= 2e-5  # h^2/6 truncation at dt=0.01


def test_differentiate_validation():
    with pytest.raises(SeriesTooShort):
        differentiate(np.array([1.0, 2.0]), 0.1)
    with pytest.raises(LengthMismatch):
        differentiate(np.ones(10), 0.0)
    with pytest.raises(LengthMismatch):
        differentiate(np.ones(10), 0.1, "spectral")
    with pytest.raises(LengthMismatch):
        differentiate(np.ones((5, 2)), 0.1)


def test_smoothed_central_reproduces_cubics():
    # Savitzky-Golay with polyorder 3 projects cubics onto themselves,
    # so smoothing changes nothing and the stencils stay second order.
    dt = 0.05
    t = np.arange(40) * dt
    y = 2.0 - t + 0.5 * t**3
    sm = differentiate(y, dt, "smoothed_central")
    ce = differentiate(y, dt, "central")
    np.testing.assert_allclose(sm, ce, atol=1e-10)


def test_smoothed_central_short_series_passthrough():
    # below the smoothing window the series is used as-is
    dt = 0.1
    y = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
    np.testing.assert_allclose(
        differentiate(y, dt, "smoothed_central"),
        differentiate(y, dt, "central"), atol=1e-12,
    )


def test_smoothed_central_attenuates_noise():
    rng = np.random.default_rng(0)
    dt = 0.02
    t = np.arange(400) * dt
    y = np.sin(t) + rng.normal(0, 0.01, t.shape[0])
    err_plain = np.abs(differentiate(y, dt, "central") - np.cos(t))
    err_smooth = np.abs(differentiate(y, dt, "smoothed_central") - np.cos(t))
    assert err_smooth[3:-3].mean() < 0.5 * err_plain[3:-3].mean()



@pytest.mark.parametrize("n", [3, 6, 7, 8, 6000])
def test_savgol_smooth_matches_loop_reference(n):
    # the shifted multiply-adds sum each window in another order than the
    # loop's dot product, so agreement is to rounding, not bitwise
    rng = np.random.default_rng(n)
    for y in (300.0 + rng.normal(size=n).cumsum(), rng.normal(size=n)):
        got = _savgol_smooth(y)
        ref = loop_kernels.savgol_smooth(y)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(y).max())

# --- STLSQ --------------------------------------------------------------------------


def test_stlsq_recovers_sparse_coefficients():
    rng = np.random.default_rng(1)
    theta = rng.normal(size=(200, 6))
    w_true = np.array([0.0, 2.0, 0.0, -3.0, 0.0, 0.5])
    y = theta @ w_true
    xi = stlsq(theta, y, threshold=0.05)
    np.testing.assert_allclose(xi[0], w_true, atol=1e-10)


def test_stlsq_prunes_below_threshold():
    rng = np.random.default_rng(2)
    theta = rng.normal(size=(300, 3))
    y = theta @ np.array([1.0, 1e-4, 0.0])
    xi = stlsq(theta, y, threshold=0.01)
    assert xi[0, 1] == 0.0 and xi[0, 2] == 0.0
    assert xi[0, 0] == pytest.approx(1.0, rel=1e-3)


def test_stlsq_no_active_terms():
    rng = np.random.default_rng(3)
    theta = rng.normal(size=(50, 3))
    y = theta @ np.array([0.3, -0.2, 0.1])
    with pytest.raises(NoActiveTerms):
        stlsq(theta, y, threshold=1e6)


def test_stlsq_rank_deficient_without_ridge():
    rng = np.random.default_rng(4)
    col = rng.normal(size=100)
    theta = np.column_stack([col, col])  # exactly collinear
    with pytest.raises(RankDeficient):
        stlsq(theta, col, threshold=0.01, ridge_lambda=0.0)


def test_stlsq_ridge_tolerates_collinearity():
    rng = np.random.default_rng(5)
    col = rng.normal(size=100)
    theta = np.column_stack([col, col + rng.normal(0, 1e-9, 100)])
    xi = stlsq(theta, 2.0 * col, threshold=0.01, ridge_lambda=1e-6)
    assert xi.shape == (1, 2)
    pred = theta @ xi[0]
    assert np.max(np.abs(pred - 2.0 * col)) < 1e-3


def test_stlsq_zero_target_keeps_zero_row():
    rng = np.random.default_rng(6)
    theta = rng.normal(size=(50, 4))
    xi = stlsq(theta, np.zeros(50), threshold=0.05)
    np.testing.assert_array_equal(xi, np.zeros((1, 4)))


def test_stlsq_multi_equation_shapes():
    rng = np.random.default_rng(7)
    theta = rng.normal(size=(120, 4))
    W = np.array([[1.0, 0.0, -2.0, 0.0], [0.0, 3.0, 0.0, 0.0]])
    xi = stlsq(theta, theta @ W.T, threshold=0.05)
    np.testing.assert_allclose(xi, W, atol=1e-10)


def test_stlsq_validation():
    with pytest.raises(LengthMismatch):
        stlsq(np.ones(5), np.ones(5))
    with pytest.raises(LengthMismatch):
        stlsq(np.ones((5, 2)), np.ones(6))


# --- end-to-end fits over synthetic flights ----------------------------------------


def _first_order_flights():
    params = GroundTruthParams(order="first", a=10.0, b=0.5, c=0.2, seed=5)
    fs = 50.0
    profiles = (
        ManeuverProfile("ramp", 10.0, "climb", start=150.0, end=400.0),
        ManeuverProfile("chirp", 12.0, "sweep", center=300.0, amplitude=80.0,
                        f0_hz=0.05, f1_hz=0.3),
        ManeuverProfile("hold", 5.0, "cruise", level=300.0),
    )
    return [generate_flight(SyntheticFlightSpec("fa", fs, profiles, params)),
            generate_flight(SyntheticFlightSpec(
                "fb", fs,
                (ManeuverProfile("ramp", 8.0, "descent", start=420.0, end=180.0),
                 ManeuverProfile("chirp", 10.0, "sweep", center=280.0,
                                 amplitude=60.0, f0_hz=0.08, f1_hz=0.4)),
                params))]


def test_fit_first_order_recovers_plant():
    cfg = SINDyConfig(derivative_method="central")
    model = fit_sparse(_first_order_flights(), 1, cfg)
    active = model.active_terms(0)
    assert set(active) == {"1", "TRQ", "WF"}
    assert active["1"] == pytest.approx(-10.0, rel=1e-3)
    assert active["TRQ"] == pytest.approx(-0.5, rel=1e-3)
    assert active["WF"] == pytest.approx(0.2, rel=1e-3)
    assert model.order == 1 and len(model.residual_rmse) == 1


def _second_order_flights():
    # sampled fast (200 Hz) so the double-differencing truncation bias
    # stays far below the coefficient tolerance asserted here
    params = GroundTruthParams(order="second", mu=0.4, tau1=0.6, tau2=0.15, seed=6)
    fs = 200.0
    profiles = (
        ManeuverProfile("ramp", 10.0, "climb", start=180.0, end=480.0),
        ManeuverProfile("chirp", 14.0, "sweep", center=330.0, amplitude=120.0,
                        f0_hz=0.05, f1_hz=0.3),
    )
    return [generate_flight(SyntheticFlightSpec("sa", fs, profiles, params)),
            generate_flight(SyntheticFlightSpec(
                "sb", fs,
                (ManeuverProfile("chirp", 16.0, "sweep", center=300.0,
                                 amplitude=100.0, f0_hz=0.08, f1_hz=0.25),),
                params))]


def test_fit_second_order_structure_and_coefficients():
    # tau1*tau2*x'' + (tau1+tau2)*x' + x = mu*u  rewritten for x'':
    #   x'' = -(1/(t1 t2)) x - ((t1+t2)/(t1 t2)) x' + (mu/(t1 t2)) u
    cfg = SINDyConfig(threshold=1.0, derivative_method="central",
                      library=LibrarySpec(degree=1))
    model = fit_sparse(_second_order_flights(), 2, cfg)
    assert model.order == 2
    assert model.state_names == ("TRQ", "TRQ_dot")
    assert model.input_names == ("WF", "WF_dot")
    # structural first equation: d(TRQ)/dt = TRQ_dot, exactly
    assert model.active_terms(0) == {"TRQ_dot": 1.0}
    assert model.residual_rmse[0] == 0.0
    active = model.active_terms(1)
    assert set(active) == {"TRQ", "TRQ_dot", "WF"}
    t1, t2, mu = 0.6, 0.15, 0.4
    assert active["TRQ"] == pytest.approx(-1.0 / (t1 * t2), rel=5e-3)
    assert active["TRQ_dot"] == pytest.approx(-(t1 + t2) / (t1 * t2), rel=5e-3)
    assert active["WF"] == pytest.approx(mu / (t1 * t2), rel=5e-3)


def test_fit_second_order_beats_first_order_in_residual():
    flights = _second_order_flights()
    m1 = fit_sparse(flights, 1, SINDyConfig(derivative_method="central"))
    m2 = fit_sparse(flights, 2, SINDyConfig(threshold=1.0,
                                            derivative_method="central",
                                            library=LibrarySpec(degree=1)))
    # the cascade's second derivative is not explained by a first-order law
    sim1 = simulate(m1, flights[0].values("WF"), flights[0].dt,
                    float(flights[0].values("TRQ")[0]))
    x = flights[0].values("TRQ")
    dx0 = differentiate(x[:50], flights[0].dt, "central")[0]
    sim2 = simulate(m2, flights[0].values("WF"), flights[0].dt,
                    float(x[0]), xdot0=float(dx0))
    err1 = np.mean(np.abs(sim1 - x))
    err2 = np.mean(np.abs(sim2 - x))
    assert err2 < 0.5 * err1


def _smoke_train_flights():
    # the smoke preset's training flights, taxiing excluded as the CLI does
    cfg = load_config(CONFIGS / "smoke.yaml")
    specs = {spec.flight_id: spec for spec in cfg.corpus.build_specs()}
    return [filter_maneuvers(generate_flight(specs[fid]), cfg.maneuvers.exclude_labels)
            for fid in cfg.split.explicit["train"]]


def _bits(model: SparseModel) -> tuple:
    return (model.order, model.state_names, model.input_names, model.labels,
            model.xi.tobytes(), model.expo.tobytes(), model.trig.tobytes(),
            model.config, tuple(float(r).hex() for r in model.residual_rmse))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("method", ["central", "smoothed_central"])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("corpus", ["plant", "smoke"])
def test_fit_sparse_is_bitwise_the_per_order_fit(order, method, degree, corpus):
    # several flights, some segments excluded; on the smoke flights a strided
    # view of the target (instead of its own contiguous array) moves the
    # first-order residual in the last digit
    if corpus == "plant":
        fa, fb = _first_order_flights()
        segs = fa.maneuvers
        flights = [fa.with_maneuvers((segs[0], replace(segs[1], excluded=True), segs[2])), fb]
    else:
        flights = _smoke_train_flights()
    assert any(seg.excluded for fl in flights for seg in fl.maneuvers)
    cfg = SINDyConfig(threshold=2.0 if order == 2 else 0.05, derivative_method=method,
                      library=LibrarySpec(degree=degree))
    old = loop_kernels.fit_first_order if order == 1 else loop_kernels.fit_second_order
    assert _bits(fit_sparse(flights, order, cfg)) == _bits(old(flights, cfg))


def test_fit_sparse_segment_length_and_order_bounds():
    fl = toy_record(n=40, segments=(ManeuverSegment("a", 0, 4), ManeuverSegment("b", 4, 40)))
    cfg = SINDyConfig(derivative_method="central", library=LibrarySpec(degree=1))
    assert fit_sparse([fl], 1, cfg).order == 1  # 4 >= 2*1 + 1
    with pytest.raises(SeriesTooShort, match="'a' has 4 samples, need >= 5"):
        fit_sparse([fl], 2, cfg)
    with pytest.raises(ConfigError, match="order must be 1 or 2, got 3"):
        fit_sparse([fl], 3, cfg)
    with pytest.raises(EmptyDataset):
        fit_sparse([], 1, cfg)
    excluded = fl.with_maneuvers(replace(seg, excluded=True) for seg in fl.maneuvers)
    with pytest.raises(EmptyDataset, match="every maneuver is excluded"):
        fit_sparse([excluded], 1, cfg)


@pytest.mark.parametrize("m", [1, 1023, 1024, 1025, 2049])
def test_build_library_in_row_blocks_is_bitwise_one_evaluation(m):
    rng = np.random.default_rng(m)
    X, U = rng.normal(size=(m, 2)) * 3, rng.normal(size=(m, 2)) * 3
    spec = LibrarySpec(degree=3, trig=True)
    design = build_library(X, U, spec, ("a", "b"), ("c", "d"))
    whole = kernels.library_terms(design.expo, design.trig)(np.hstack([X, U]))
    assert design.values.tobytes() == whole.tobytes()


def test_fit_sparse_holds_at_most_two_design_matrices():
    # three flights of 20 000 samples: 60 000 rows of the 15-term order-2 library
    rng = np.random.default_rng(3)
    flights = []
    for i in range(3):
        wf = 200.0 + 30.0 * np.sin(0.006 * np.arange(20_000) + i) + rng.normal(size=20_000)
        trq = 300.0 + 0.1 * rng.normal(size=20_000).cumsum() + 0.5 * wf
        flights.append(FlightRecord(f"f{i}", 50.0, ("TRQ", "WF"), (trq, wf)))
    # a threshold that prunes 3 of the 15 terms, so that STLSQ also solves on a block
    cfg = SINDyConfig(threshold=20.0, library=LibrarySpec(degree=2))
    fit_sparse(flights[:1], 2, cfg)  # imports and caches outside the bound
    tracemalloc.start()
    try:
        model = fit_sparse(flights, 2, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, terms = 60_000, len(model.labels)
    assert terms == 15 and len(model.active_terms(1)) == 12
    design_bytes = rows * terms * 8
    sample_rows = rows * (2 * model.order + 1) * 8  # X, U and the target
    assert peak < 2 * design_bytes + sample_rows + 0.05 * design_bytes


def test_stlsq_leaves_its_argument_alone():
    rng = np.random.default_rng(0)
    theta = rng.normal(size=(200, 4))
    theta.setflags(write=False)
    before = theta.tobytes()
    stlsq(theta, theta @ np.array([1.0, 0.0, -2.0, 0.01]), threshold=0.1)
    assert theta.tobytes() == before


# --- simulation and the reduction identity -------------------------------------------


def _manual_first_order_model() -> SparseModel:
    spec = LibrarySpec(degree=1)
    expo, trig, labels = build_term_encoding(("TRQ",), ("WF",), spec)
    xi = np.array([[0.0, -1.0, 1.0]])  # dx/dt = -x + u
    return SparseModel(1, ("TRQ",), ("WF",), xi, labels, expo, trig,
                       SINDyConfig(library=spec), (0.0,))


def test_simulate_manual_model_against_closed_form():
    model = _manual_first_order_model()
    dt, n = 0.01, 501
    u = np.ones(n)
    x = simulate(model, u, dt, x0=0.0)
    t = np.arange(n) * dt
    assert np.max(np.abs(x - (1.0 - np.exp(-t)))) <= 1e-6


def test_simulate_segments_quadrature_is_running_integral():
    model = _manual_first_order_model()
    dt, n = 0.01, 301
    u = np.ones(n)
    (traj,) = simulate_segments(model, [u], dt, [0.0])
    # d(quad_u)/dt = u = 1  =>  quad_u = t exactly (linear in t)
    t = np.arange(n) * dt
    np.testing.assert_allclose(traj.quad[:, 1], t, atol=1e-12)


def _manual_second_order_model(coeffs: dict[str, float],
                               degree: int = 1) -> SparseModel:
    spec = LibrarySpec(degree=degree)
    s_names, i_names = ("TRQ", "TRQ_dot"), ("WF", "WF_dot")
    expo, trig, labels = build_term_encoding(s_names, i_names, spec)
    xi = np.zeros((2, len(labels)))
    xi[0, labels.index("TRQ_dot")] = 1.0
    for lb, c in coeffs.items():
        xi[1, labels.index(lb)] = c
    return SparseModel(2, s_names, i_names, xi, labels, expo, trig,
                       SINDyConfig(library=spec), (0.0, 0.0))


def test_reduction_residual_linear_model_machine_level():
    model = _manual_second_order_model(
        {"1": -0.8, "TRQ": -11.1, "TRQ_dot": -8.3, "WF": 4.4}
    )
    dt, n = 0.01, 800
    t = np.arange(n) * dt
    u = 0.5 + 0.2 * np.sin(2.0 * np.pi * 0.3 * t)
    res = reduction_residual(model, u, dt, x0=0.2, xdot0=0.0)
    assert np.max(np.abs(res)) <= 1e-11


def test_reduction_residual_rejects_nonlinear_equation():
    model = _manual_second_order_model({"TRQ": -1.0, "TRQ^2": 0.1}, degree=2)
    u = np.linspace(0.4, 0.6, 100)
    with pytest.raises(ComputationError, match="TRQ\\^2"):
        reduction_residual(model, u, 0.01, x0=0.0, xdot0=0.0)


def test_second_order_simulation_needs_initial_derivative():
    model = _manual_second_order_model({"TRQ": -1.0})
    with pytest.raises(MissingInitialDerivative):
        simulate(model, np.linspace(0.0, 1.0, 50), 0.01, x0=0.0)


def test_second_order_simulation_takes_the_models_derivative_method():
    # derivatives are taken as the fit took them: the control derivative in
    # simulate, and xdot0 and the control derivative in simulate_flights
    dt = 0.05
    t = np.arange(200) * dt
    rng = np.random.default_rng(3)
    u = 300.0 + 40.0 * np.sin(1.3 * t) + rng.normal(0.0, 0.5, t.shape)
    x = 75.0 + 5.0 * np.cos(0.7 * t) + rng.normal(0.0, 0.2, t.shape)
    rec = FlightRecord("fl01", 1.0 / dt, ("TRQ", "WF"), (x, u), (ManeuverSegment("m", 0, 200),))
    for method in ("central", "smoothed_central"):
        model = replace(_manual_second_order_model({"TRQ": -4.0, "TRQ_dot": -3.0,
                                                    "WF": 1.0, "WF_dot": 0.5}),
                        config=SINDyConfig(derivative_method=method,
                                           library=LibrarySpec(degree=1)))
        got = simulate(model, u, dt, x0=75.0, xdot0=0.0)
        observed = simulate_flights(model, [rec])["fl01"]
        for other in ("central", "smoothed_central"):
            inputs = np.column_stack([u, differentiate(u, dt, other)])[:, None, :]

            def given(x0, xdot0):
                states, _ = kernels.rk4_sparse(model.xi, model.expo, model.trig, inputs, dt,
                                               np.array([[x0, xdot0]]), [len(u)])
                return states[:, 0, 0]

            assert np.array_equal(got, given(75.0, 0.0)) == (other == method), (method, other)
            assert np.array_equal(observed, given(x[0], differentiate(x, dt, other)[0])) == (
                other == method), (method, other)


def test_simulate_validation():
    model = _manual_first_order_model()
    with pytest.raises(SeriesTooShort):
        simulate(model, np.array([1.0]), 0.01, 0.0)
    with pytest.raises(LengthMismatch):
        simulate(model, np.ones(10), -0.1, 0.0)
    with pytest.raises(LengthMismatch):
        simulate_segments(model, [np.ones(10), np.ones(5)], 0.01, [0.0])


def test_simulate_segments_never_integrates_past_a_segment_end():
    # dx/dt = 40 x grows 1.49-fold per step: the 2-sample segment started
    # near the float limit would overflow (and warn) if it were carried on
    # over the 400 samples of the other one
    spec = LibrarySpec(degree=1)
    expo, trig, labels = build_term_encoding(("TRQ",), ("WF",), spec)
    model = SparseModel(1, ("TRQ",), ("WF",), np.array([[0.0, 40.0, 0.0]]), labels,
                        expo, trig, SINDyConfig(library=spec), (0.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short, long = simulate_segments(model, [np.ones(2), np.ones(400)], 0.01,
                                        [1e300, 1e-300])
    assert short.states.shape == (2, 1) and long.states.shape == (400, 1)
    assert np.array_equal(short.states,
                          simulate_segments(model, [np.ones(2)], 0.01, [1e300])[0].states)
    assert np.all(np.isfinite(long.states))


# --- formatting and persistence -------------------------------------------------------


def test_format_equations_readable():
    model = _manual_first_order_model()
    assert format_equations(model) == "d(TRQ)/dt = -1*TRQ + 1*WF"
    model2 = _manual_second_order_model({"1": -10.0, "TRQ": -0.5, "WF": 0.2})
    lines = format_equations(model2).splitlines()
    assert lines[0] == "d(TRQ)/dt = 1*TRQ_dot"
    assert lines[1] == "d(TRQ_dot)/dt = -10 - 0.5*TRQ + 0.2*WF"


def test_save_load_round_trip_bitwise(tmp_path):
    cfg = SINDyConfig(derivative_method="central", threshold=0.07,
                      ridge_lambda=3e-11)
    model = replace(fit_sparse(_first_order_flights(), 1, cfg), fingerprint="ab12")
    p = tmp_path / "model.txt"
    save_model(model, p)
    back = load_model(p)
    assert back.fingerprint == "ab12"
    assert back.order == model.order
    assert back.state_names == model.state_names
    assert back.input_names == model.input_names
    assert back.labels == model.labels
    assert back.config == model.config
    assert back.residual_rmse == model.residual_rmse
    np.testing.assert_array_equal(back.xi, model.xi)  # repr round-trip is exact
    np.testing.assert_array_equal(back.expo, model.expo)
    np.testing.assert_array_equal(back.trig, model.trig)


def test_model_header_lists_every_fit_setting_in_field_order(tmp_path):
    # load_model needs every SINDyConfig field, so save_model must write each one
    p = tmp_path / "model.txt"
    save_model(_manual_first_order_model(), p)
    keys = [ln.partition(":")[0] for ln in p.read_text(encoding="utf-8").splitlines()]
    settings = keys[keys.index("inputs") + 1:keys.index("residual_rmse")]
    assert settings == [f.name for f in fields(SINDyConfig) if f.name != "library"] + [
        f"library_{f.name}" for f in fields(LibrarySpec)]



def test_text_items_are_read_back_by_text_mode():
    # the model header's writer is the inverse of read(..., TEXT), nested config included
    config = SINDyConfig(threshold=0.1 + 0.2, max_iterations=7, ridge_lambda=3e-9,
                         derivative_method="central",
                         library=LibrarySpec(degree=3, cross_terms=False, trig=True, bias=False))
    pairs = dict(text_items(config))
    raw = {k: v for k, v in pairs.items() if not k.startswith("library_")}
    raw["library"] = {k.removeprefix("library_"): v for k, v in pairs.items()
                      if k.startswith("library_")}
    assert all(isinstance(v, str) for v in pairs.values())
    assert read(SINDyConfig, raw, "header", TEXT) == config

    @dataclass
    class Window:
        lookback: int | None = None

    # TEXT reads no None back, so the writer refuses it rather than write "None"
    with pytest.raises(TypeError, match="lookback: None has no text form"):
        list(text_items(Window()))

def test_load_model_rejects_bad_files(tmp_path):
    missing = tmp_path / "nope.txt"
    with pytest.raises(IoError):
        load_model(missing)
    bad = tmp_path / "bad.txt"
    bad.write_text("not a model\norder: 1\n", encoding="utf-8")
    with pytest.raises(IoError, match="not a tssid sparse model"):
        load_model(bad)
    p = tmp_path / "model.txt"
    save_model(_manual_first_order_model(), p)
    mangled = p.read_text(encoding="utf-8").replace("threshold: 0.05",
                                                    "threshold: soup")
    p.write_text(mangled, encoding="utf-8")
    with pytest.raises(IoError, match="malformed"):
        load_model(p)


@pytest.mark.parametrize("line, bad", [
    ("threshold: 0.05", "threshold: nan"),
    ("max_iterations: 20", "max_iterations: 2.5"),
    ("library_bias: 1", "library_bias: 2"),
    ("library_degree: 1", "library_degree: 0"),
])
def test_load_model_refuses_fit_settings_no_config_accepts(tmp_path, line, bad):
    # the header is read by the same rules as a config's sindy section
    p = tmp_path / "model.txt"
    save_model(_manual_first_order_model(), p)
    text = p.read_text(encoding="utf-8")
    assert line in text
    p.write_text(text.replace(line, bad), encoding="utf-8")
    key = bad.split(":")[0].replace("library_", "library.")
    with pytest.raises(IoError, match=f"malformed model header: header.{key}: "):
        load_model(p)
