"""Synthetic flight generator: closed-form checks and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from tssid.errors import (
    InvalidFrequencyBand,
    LengthMismatch,
    SeriesTooShort,
    UnstableParameters,
)
from tssid.flightdata import CHANNEL_UNITS
from tssid.settings import MAX_FLIGHT_SAMPLES
from tssid.synthgen import (
    AUX_CHANNEL_MAPS,
    AffineMap,
    FlightTemplate,
    GroundTruthParams,
    ManeuverProfile,
    SyntheticFlightSpec,
    add_noise,
    expand_template,
    flight_segments,
    generate_flight,
    generate_wf_profile,
    profile_segments,
    simulate_engine,
)

# --- ground-truth parameters ----------------------------------------------------


def test_steady_state_first_order():
    p = GroundTruthParams(order="first", a=10.0, b=0.5, c=0.2)
    # 0 = -a - b*x + c*wf  =>  x = (c*wf - a) / b
    assert p.steady_state_trq(300.0) == pytest.approx((0.2 * 300.0 - 10.0) / 0.5)


def test_steady_state_second_order():
    p = GroundTruthParams(order="second", mu=0.4)
    assert p.steady_state_trq(250.0) == pytest.approx(0.4 * 250.0)


def test_unstable_parameters_rejected():
    with pytest.raises(UnstableParameters):
        GroundTruthParams(order="first", b=0.0)
    with pytest.raises(UnstableParameters):
        GroundTruthParams(order="second", tau2=-0.1)
    with pytest.raises(UnstableParameters):
        GroundTruthParams(order="third")
    with pytest.raises(UnstableParameters):
        GroundTruthParams(noise_sigma={"TRQ": -1.0})


# --- engine simulation -----------------------------------------------------------


def test_simulate_engine_holds_steady_state():
    p = GroundTruthParams(order="first", a=10.0, b=0.5, c=0.2)
    wf = np.full(500, 300.0)
    trq = simulate_engine(p, wf, dt=0.01)  # trq0 defaults to steady state
    ss = p.steady_state_trq(300.0)
    np.testing.assert_allclose(trq, ss, rtol=1e-12)


def test_simulate_engine_step_matches_closed_form():
    # start at the wf0 steady state, drive with constant wf1:
    #   x(t) = ss1 + (ss0 - ss1) * exp(-b t)
    p = GroundTruthParams(order="first", a=10.0, b=0.5, c=0.2)
    wf0, wf1, dt, n = 250.0, 320.0, 0.01, 1000
    ss0, ss1 = p.steady_state_trq(wf0), p.steady_state_trq(wf1)
    trq = simulate_engine(p, np.full(n, wf1), dt, trq0=ss0)
    t = np.arange(n) * dt
    exact = ss1 + (ss0 - ss1) * np.exp(-p.b * t)
    assert np.max(np.abs(trq - exact)) / np.max(np.abs(exact)) < 1e-9


def test_simulate_engine_second_order_settles_to_mu_wf():
    p = GroundTruthParams(order="second", mu=0.4, tau1=0.6, tau2=0.15)
    wf = np.full(6000, 400.0)
    trq = simulate_engine(p, wf, dt=0.01, trq0=0.0)
    assert trq[-1] == pytest.approx(0.4 * 400.0, rel=1e-9)


def test_simulate_engine_validates_input():
    p = GroundTruthParams()
    with pytest.raises(SeriesTooShort):
        simulate_engine(p, np.array([300.0]), dt=0.01)
    with pytest.raises(LengthMismatch):
        simulate_engine(p, np.full(10, 300.0), dt=0.0)


# --- noise ------------------------------------------------------------------------


def test_add_noise_zero_sigma_is_identity_copy():
    x = np.arange(5.0)
    y = add_noise(x, 0.0, seed=1)
    np.testing.assert_array_equal(x, y)
    assert y is not x  # a copy, so callers can't alias the clean series


def test_add_noise_seeded_and_scaled():
    x = np.zeros(4000)
    y1 = add_noise(x, 2.0, seed=7)
    y2 = add_noise(x, 2.0, seed=7)
    np.testing.assert_array_equal(y1, y2)
    y3 = add_noise(x, 2.0, seed=8)
    assert not np.array_equal(y1, y3)
    assert np.std(y1) == pytest.approx(2.0, rel=0.1)


def test_add_noise_rejects_negative_sigma():
    with pytest.raises(UnstableParameters):
        add_noise(np.zeros(3), -0.5, seed=0)


# --- WF profiles -------------------------------------------------------------------


def test_profile_primitives_exact_values():
    fs = 10.0
    hold = generate_wf_profile([ManeuverProfile("hold", 1.0, level=5.0)], fs)
    np.testing.assert_array_equal(hold, np.full(10, 5.0))

    ramp = generate_wf_profile([ManeuverProfile("ramp", 1.0, start=0.0, end=9.0)], fs)
    np.testing.assert_allclose(ramp, np.arange(10.0) * 0.9, atol=1e-12)

    step = generate_wf_profile([ManeuverProfile("step", 1.0, start=1.0, end=2.0)], fs)
    np.testing.assert_array_equal(step, np.array([1.0] * 5 + [2.0] * 5))


def test_chirp_band_validated_against_nyquist():
    fs = 10.0  # nyquist 5 Hz
    bad_hi = ManeuverProfile("chirp", 2.0, center=1.0, amplitude=0.5,
                             f0_hz=0.1, f1_hz=6.0)
    with pytest.raises(InvalidFrequencyBand):
        generate_wf_profile([bad_hi], fs)
    bad_lo = ManeuverProfile("chirp", 2.0, center=1.0, amplitude=0.5,
                             f0_hz=0.0, f1_hz=1.0)
    with pytest.raises(InvalidFrequencyBand):
        generate_wf_profile([bad_lo], fs)


def test_chirp_stays_in_amplitude_band():
    fs = 50.0
    prof = ManeuverProfile("chirp", 10.0, center=3.0, amplitude=0.5,
                           f0_hz=0.1, f1_hz=2.0)
    wf = generate_wf_profile([prof], fs)
    assert wf.min() >= 2.5 - 1e-12 and wf.max() <= 3.5 + 1e-12


def test_empty_or_degenerate_profiles_rejected():
    with pytest.raises(SeriesTooShort):
        generate_wf_profile([], 10.0)
    with pytest.raises(SeriesTooShort):
        generate_wf_profile([ManeuverProfile("hold", 0.01, level=1.0)], 10.0)
    with pytest.raises(SeriesTooShort, match="'blip' .* shorter than one sample at 10.0 Hz"):
        profile_segments([ManeuverProfile("hold", 0.01, "blip")], 10.0)
    with pytest.raises(LengthMismatch):
        ManeuverProfile("wiggle", 1.0)


def test_profile_segments_track_boundaries():
    fs = 10.0
    profiles = [
        ManeuverProfile("hold", 1.0, "taxiing", level=1.0),
        ManeuverProfile("ramp", 2.0, "climb", start=1.0, end=2.0),
        ManeuverProfile("hold", 0.5, level=2.0),  # label defaults to kind
    ]
    segs = profile_segments(profiles, fs)
    assert [(s.label, s.start_index, s.end_index) for s in segs] == [
        ("taxiing", 0, 10), ("climb", 10, 30), ("hold", 30, 35),
    ]
    wf = generate_wf_profile(profiles, fs)
    assert wf.shape[0] == segs[-1].end_index


# --- whole-flight generation -------------------------------------------------------


def _spec(noise=None, seed=11) -> SyntheticFlightSpec:
    params = GroundTruthParams(order="first", noise_sigma=noise or {}, seed=seed)
    profiles = (
        ManeuverProfile("hold", 2.0, "taxiing", level=150.0),
        ManeuverProfile("ramp", 3.0, "climb", start=150.0, end=320.0),
        ManeuverProfile("hold", 2.0, "cruise", level=320.0),
    )
    return SyntheticFlightSpec("fl01", 20.0, profiles, params,
                               excluded_labels=("taxiing",))


def test_generate_flight_full_channel_set():
    rec = generate_flight(_spec())
    assert set(rec.channel_names) == set(CHANNEL_UNITS)
    assert rec.n_samples == 140
    labels = [(s.label, s.excluded) for s in rec.maneuvers]
    assert labels == [("taxiing", True), ("climb", False), ("cruise", False)]


def test_generate_flight_deterministic():
    a = generate_flight(_spec(noise={"TRQ": 0.3, "WF": 0.5}))
    b = generate_flight(_spec(noise={"TRQ": 0.3, "WF": 0.5}))
    for name in a.channel_names:
        np.testing.assert_array_equal(a.values(name), b.values(name))


def test_generate_flight_noise_seeds_independent_per_channel():
    # adding noise to WF must not change the TRQ draw
    only_trq = generate_flight(_spec(noise={"TRQ": 0.3}))
    both = generate_flight(_spec(noise={"TRQ": 0.3, "WF": 0.5}))
    np.testing.assert_array_equal(only_trq.values("TRQ"), both.values("TRQ"))
    assert not np.array_equal(only_trq.values("WF"), both.values("WF"))


def test_generate_flight_clean_trq_is_plant_response():
    rec = generate_flight(_spec())
    wf = rec.values("WF")
    params = GroundTruthParams(order="first", seed=11)
    expected = simulate_engine(params, wf, rec.dt)
    np.testing.assert_array_equal(rec.values("TRQ"), expected)


def test_affine_map_clips():
    m = AffineMap(0.0, 1.0, lo=0.0, hi=10.0)
    np.testing.assert_array_equal(
        m.apply(np.array([-5.0, 5.0, 50.0])), np.array([0.0, 5.0, 10.0])
    )
    assert set(AUX_CHANNEL_MAPS) == set(CHANNEL_UNITS) - {"TRQ", "WF"}


# --- templates ----------------------------------------------------------------------


def _template() -> FlightTemplate:
    return FlightTemplate(
        count=3, id_prefix="tst", duration_s=60.0, wf_low=200.0, wf_high=500.0,
        taxi_s=4.0, chirp_s=8.0, seed_salt="unit",
    )


def test_expand_template_ids_and_determinism():
    params = GroundTruthParams(seed=99)
    specs1 = expand_template(_template(), params, 20.0, excluded_labels=("taxiing",))
    specs2 = expand_template(_template(), params, 20.0, excluded_labels=("taxiing",))
    assert [s.flight_id for s in specs1] == ["tst01", "tst02", "tst03"]
    assert specs1 == specs2
    # different flights get different bodies
    assert specs1[0].profiles != specs1[1].profiles


def test_expand_template_profile_structure():
    params = GroundTruthParams(seed=99)
    for spec in expand_template(_template(), params, 20.0,
                                excluded_labels=("taxiing",)):
        assert spec.profiles[0].label == "taxiing"
        assert spec.profiles[1].label == "hover"
        assert spec.profiles[-1].label == "collective_sweep"
        assert spec.excluded_labels == ("taxiing",)
        rec = generate_flight(spec)
        wf = rec.values("WF")
        # body stays inside the commanded band (taxi sits below it)
        taxi_n = spec.profiles[0].duration_s * 20.0
        assert wf[int(taxi_n):].min() >= 200.0 - 1e-9
        assert wf.max() <= 500.0 + 1e-9
        excluded = [s.label for s in rec.maneuvers if s.excluded]
        assert excluded == ["taxiing"]


def test_expand_template_seed_changes_bodies():
    specs_a = expand_template(_template(), GroundTruthParams(seed=1), 20.0)
    specs_b = expand_template(_template(), GroundTruthParams(seed=2), 20.0)
    assert specs_a[0].profiles != specs_b[0].profiles


def test_template_validation():
    with pytest.raises(LengthMismatch):
        FlightTemplate(count=0, id_prefix="x", duration_s=10.0,
                       wf_low=1.0, wf_high=2.0)
    with pytest.raises(LengthMismatch):
        FlightTemplate(count=1, id_prefix="x", duration_s=10.0,
                       wf_low=2.0, wf_high=1.0)
    # the duration budget is checked when the template is made, before any draw
    with pytest.raises(LengthMismatch, match="taxi/chirp budget"):
        FlightTemplate(count=1, id_prefix="x", duration_s=5.0,
                       wf_low=1.0, wf_high=2.0, taxi_s=3.0, chirp_s=2.0)


def test_a_flight_longer_than_the_sample_bound_is_refused_before_it_is_drawn():
    # each maneuver fits in a flight, the eleven of them do not
    hold = ManeuverProfile("hold", MAX_FLIGHT_SAMPLES / 10 / 20.0, level=300.0)
    spec = SyntheticFlightSpec("long01", 20.0, (hold,) * 11, GroundTruthParams())
    with pytest.raises(LengthMismatch, match="flight 'long01' holds 11000000 samples"):
        flight_segments(spec)
    with pytest.raises(LengthMismatch, match="flight 'long01'"):
        generate_flight(spec)
    assert flight_segments(SyntheticFlightSpec("long01", 20.0, (hold,) * 10,
                                               GroundTruthParams()))[-1].end_index \
        == MAX_FLIGHT_SAMPLES
