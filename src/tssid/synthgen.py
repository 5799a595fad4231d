"""Synthetic flight generator: the ground-truth oracle for the toolkit.

Flights are built in three steps:

1. a fuel-flow (WF) profile is assembled from maneuver primitives
   (hold / ramp / step / chirp),
2. torque is produced by integrating a known engine ODE driven by that
   profile (first-order affine or a second-order two-time-constant
   cascade), using the same RK4 stepper the identification code uses,
3. the remaining channels are affine functions of WF plus independent
   Gaussian noise.  Those affine maps are configuration, not physics:
   they exist so the corpus has a realistic channel set with plausible
   correlation structure.

Every random draw comes from a seed derived from (params.seed, flight id,
channel), so corpora are reproducible sample-for-sample and independent
of generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .errors import (
    InvalidFrequencyBand,
    LengthMismatch,
    SeriesTooShort,
    UnstableParameters,
)
from .flightdata import CHANNEL_ORDER, FlightRecord, ManeuverSegment
from .seeding import derive_seed
from .settings import MAX_FLIGHT_SAMPLES, MAX_FLIGHTS, check, setting

PROFILE_KINDS = ("hold", "ramp", "step", "chirp")
ODE_ORDERS = ("first", "second")


@dataclass(frozen=True)
class GroundTruthParams:
    """Parameters of the data-generating engine ODE.

    ``order`` selects the plant:

    * ``"first"``:  dTRQ/dt = -a - b*TRQ + c*WF        (requires b > 0)
    * ``"second"``: tau1*tau2*TRQ'' + (tau1+tau2)*TRQ' + TRQ = mu*WF
      (requires tau1, tau2, mu > 0)

    ``noise_sigma`` maps channel names to the standard deviation of the
    additive Gaussian noise applied after simulation; missing channels get
    zero noise.  ``seed`` is the root of all generator randomness.
    """

    order: str = setting("first", choices=ODE_ORDERS)
    a: float = 10.0
    b: float = 0.5
    c: float = 0.2
    mu: float = 0.4
    tau1: float = 0.6
    tau2: float = 0.15
    noise_sigma: Mapping[str, float] = setting(factory=dict, lo=0)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "noise_sigma",
                           {str(k): float(v) for k, v in dict(self.noise_sigma).items()})
        check(self, UnstableParameters)
        if self.order == "first" and self.b <= 0:
            raise UnstableParameters(f"b: first-order plant needs b > 0, got b={self.b}")
        bad = [name for name in ("mu", "tau1", "tau2") if getattr(self, name) <= 0]
        if self.order == "second" and bad:
            raise UnstableParameters(f"{bad[0]}: second-order plant needs mu, tau1, tau2 > 0, "
                                     f"got mu={self.mu}, tau1={self.tau1}, tau2={self.tau2}")

    def sigma(self, channel: str) -> float:
        return self.noise_sigma.get(channel, 0.0)

    def steady_state_trq(self, wf: float) -> float:
        if self.order == "first":
            return (self.c * wf - self.a) / self.b
        return self.mu * wf


@dataclass(frozen=True)
class ManeuverProfile:
    """One WF maneuver primitive.

    kind:
      hold  -- constant ``level``
      ramp  -- linear from ``start`` to ``end``
      step  -- ``start`` for the first half, ``end`` after
      chirp -- ``center + amplitude * sin(phase)`` with instantaneous
               frequency sweeping linearly from ``f0_hz`` to ``f1_hz``
    """

    kind: str = setting(choices=PROFILE_KINDS)
    duration_s: float = setting(above=0)
    label: str = ""
    level: float = 0.0
    start: float = 0.0
    end: float = 0.0
    center: float = 0.0
    amplitude: float = 0.0
    f0_hz: float = 0.0
    f1_hz: float = 0.0

    def __post_init__(self):
        check(self, LengthMismatch)
        if any(c in self.label for c in ',"\t\r\n'):
            # maneuvers.csv and the eval reports hold a label unquoted
            raise LengthMismatch(f"label: {self.label!r} holds a comma, quote, tab or line break")
        if not self.label:
            object.__setattr__(self, "label", self.kind)


def _sample_count(p: ManeuverProfile, fs: float) -> int:
    """The samples of maneuver ``p`` at ``fs`` Hz: at least one, at most a flight's bound."""
    if not p.duration_s * fs <= MAX_FLIGHT_SAMPLES:  # tested before rounding: inf has no int
        raise LengthMismatch(f"duration_s: maneuver {p.label!r} ({p.duration_s:g} s) holds more "
                             f"than {MAX_FLIGHT_SAMPLES} samples at {fs} Hz, the most a flight "
                             "may hold")
    n = int(round(p.duration_s * fs))
    if n < 1:
        raise SeriesTooShort(f"maneuver {p.label!r} ({p.duration_s:g} s) is shorter than "
                             f"one sample at {fs} Hz")
    return n


def _profile_samples(p: ManeuverProfile, fs: float) -> np.ndarray:
    n = _sample_count(p, fs)
    t = np.arange(n) / fs
    if p.kind == "hold":
        return np.full(n, float(p.level))
    if p.kind == "ramp":
        d = p.duration_s
        return p.start + (p.end - p.start) * (t / d)
    if p.kind == "step":
        out = np.full(n, float(p.start))
        out[n // 2:] = p.end
        return out
    # chirp
    nyq = 0.5 * fs
    if not (0.0 < p.f0_hz < nyq and 0.0 < p.f1_hz < nyq):
        raise InvalidFrequencyBand(
            f"chirp band ({p.f0_hz}, {p.f1_hz}) Hz must lie in (0, {nyq}) Hz"
        )
    d = p.duration_s
    phase = 2.0 * math.pi * (p.f0_hz * t + 0.5 * (p.f1_hz - p.f0_hz) * t * t / d)
    return p.center + p.amplitude * np.sin(phase)


def generate_wf_profile(profiles: Sequence[ManeuverProfile], sample_rate_hz: float) -> np.ndarray:
    """Concatenate maneuver primitives into one WF series."""
    if not profiles:
        raise SeriesTooShort("flight needs at least one maneuver")
    parts = [_profile_samples(p, sample_rate_hz) for p in profiles]
    return np.concatenate(parts)


def profile_segments(profiles: Sequence[ManeuverProfile],
                     sample_rate_hz: float) -> tuple[ManeuverSegment, ...]:
    """Maneuver annotations matching :func:`generate_wf_profile`."""
    segs = []
    pos = 0
    for p in profiles:
        n = _sample_count(p, sample_rate_hz)
        segs.append(ManeuverSegment(p.label, pos, pos + n))
        pos += n
    return tuple(segs)


def simulate_engine(params: GroundTruthParams, wf: np.ndarray, dt: float,
                    trq0: float | None = None) -> np.ndarray:
    """Integrate the ground-truth plant over a WF series with RK4.

    ``trq0`` defaults to the steady state for ``wf[0]``; the second-order
    plant starts with a zero derivative.
    """
    wf = np.ascontiguousarray(wf, dtype=np.float64)
    if wf.ndim != 1 or wf.shape[0] < 2:
        raise SeriesTooShort("simulate_engine needs a 1-D WF series of length >= 2")
    if dt <= 0:
        raise LengthMismatch(f"dt must be positive, got {dt}")
    if trq0 is None:
        trq0 = params.steady_state_trq(float(wf[0]))
    if params.order == "first":
        return kernels.rk4_first_order(params.a, params.b, params.c, wf, dt, float(trq0))
    x, _ = kernels.rk4_cascade(params.mu, params.tau1, params.tau2, wf, dt,
                               float(trq0), 0.0)
    return x


def add_noise(values: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Additive Gaussian noise; ``sigma=0`` returns an identical copy."""
    values = np.asarray(values, dtype=np.float64)
    if sigma < 0:
        raise UnstableParameters(f"noise sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return values.copy()
    rng = np.random.default_rng(seed)
    return values + rng.normal(0.0, sigma, values.shape[0])


@dataclass(frozen=True)
class AffineMap:
    """Auxiliary channel model: clip(intercept + slope * WF, lo, hi)."""

    intercept: float
    slope: float
    lo: float
    hi: float

    def apply(self, wf: np.ndarray) -> np.ndarray:
        return np.clip(self.intercept + self.slope * wf, self.lo, self.hi)


#: How each auxiliary channel tracks WF.  Tuned so the corpus shows strong
#: WF/TRQ correlation for COL and NR, moderate for T1/P0/AIRSPEED and the
#: temperatures, with plausible magnitudes for a light turboshaft.
AUX_CHANNEL_MAPS: dict[str, AffineMap] = {
    "COL": AffineMap(4.0, 0.155, 0.0, 100.0),
    "T1": AffineMap(12.0, 0.012, -40.0, 60.0),
    "T45": AffineMap(430.0, 0.85, 0.0, 1100.0),
    "TOil": AffineMap(68.0, 0.022, 20.0, 140.0),
    "POil": AffineMap(55.0, 0.018, 0.0, 120.0),
    "P0": AffineMap(14.1, 0.0016, 8.0, 16.0),
    "NR": AffineMap(96.5, 0.009, 85.0, 110.0),
    "TAT": AffineMap(14.0, 0.010, -40.0, 60.0),
    "NP": AffineMap(96.0, 0.010, 80.0, 110.0),
    "NG": AffineMap(72.0, 0.052, 50.0, 105.0),
    "NGR": AffineMap(71.0, 0.053, 50.0, 105.0),
    "AIRSPEED": AffineMap(-12.0, 0.28, 0.0, 170.0),
}


@dataclass(frozen=True)
class SyntheticFlightSpec:
    """Everything needed to generate one flight deterministically."""

    flight_id: str
    sample_rate_hz: float
    profiles: tuple[ManeuverProfile, ...]
    params: GroundTruthParams
    initial_trq: float | None = None
    excluded_labels: tuple[str, ...] = ()


def flight_segments(spec: SyntheticFlightSpec) -> tuple[ManeuverSegment, ...]:
    """The maneuver annotations of ``spec``'s flight, excluded labels marked.

    Draws nothing, so the annotations (and the flight's sample count, the
    last segment's end) are known without generating the flight.  A flight
    of more than ``MAX_FLIGHT_SAMPLES`` samples is refused.
    """
    segs = profile_segments(spec.profiles, spec.sample_rate_hz)
    if segs[-1].end_index > MAX_FLIGHT_SAMPLES:
        raise LengthMismatch(f"duration_s: flight {spec.flight_id!r} holds {segs[-1].end_index} "
                             f"samples at {spec.sample_rate_hz} Hz, more than the "
                             f"{MAX_FLIGHT_SAMPLES} a flight may hold")
    if not spec.excluded_labels:
        return segs
    ex = set(spec.excluded_labels)
    return tuple(ManeuverSegment(s.label, s.start_index, s.end_index, s.label in ex)
                 for s in segs)


def generate_flight(spec: SyntheticFlightSpec) -> FlightRecord:
    """Generate the full channel set for one flight."""
    fs, params = spec.sample_rate_hz, spec.params
    segments = flight_segments(spec)  # refuses a flight too long to allocate
    wf = generate_wf_profile(spec.profiles, fs)
    clean = {"WF": wf, "TRQ": simulate_engine(params, wf, 1.0 / fs, spec.initial_trq)}
    block = np.empty((len(CHANNEL_ORDER), wf.shape[0]))
    for name, row in zip(CHANNEL_ORDER, block):
        base = clean[name] if name in clean else AUX_CHANNEL_MAPS[name].apply(wf)
        seed = derive_seed(params.seed, "noise", spec.flight_id, name)
        row[:] = add_noise(base, params.sigma(name), seed)
    block.setflags(write=False)  # the record keeps this block without a copy
    return FlightRecord(spec.flight_id, fs, CHANNEL_ORDER, block, segments)


# --- corpus templates ---------------------------------------------------------

@dataclass(frozen=True)
class FlightTemplate:
    """Recipe for a batch of randomized-but-reproducible flights.

    Each flight gets a leading ``taxi_s`` hold labeled ``taxiing``, a hover
    hold, a randomized sequence of ramps and holds inside the WF band, and
    (when a chirp band is given) a closing collective frequency sweep.
    """

    count: int = setting(lo=1, hi=MAX_FLIGHTS)
    id_prefix: str
    duration_s: float
    wf_low: float
    wf_high: float
    taxi_s: float = setting(0.0, lo=0)
    taxi_level: float | None = None
    chirp_s: float = setting(0.0, lo=0)
    chirp_f0_hz: float = 0.08
    chirp_f1_hz: float = 0.4
    chirp_amplitude: float | None = None
    seed_salt: str = ""

    def __post_init__(self):
        check(self, LengthMismatch)
        if not (self.wf_low < self.wf_high):
            raise LengthMismatch(f"wf_high: template needs wf_low < wf_high, got "
                                 f"{self.wf_low} and {self.wf_high}")
        if self.duration_s - self.taxi_s - self.chirp_s <= 4.0:
            raise LengthMismatch(f"duration_s: {self.duration_s} s is too short for the "
                                 f"taxi/chirp budget of template {self.id_prefix!r}")

    @property
    def flight_ids(self) -> tuple[str, ...]:
        return tuple(f"{self.id_prefix}{i + 1:02d}" for i in range(self.count))


_BLOCK_LABELS = ("climb", "cruise", "descent", "turn", "level_accel")


def expand_template(tpl: FlightTemplate, params: GroundTruthParams,
                    sample_rate_hz: float,
                    excluded_labels: Sequence[str] = ()) -> list[SyntheticFlightSpec]:
    """Expand a template into concrete flight specs (deterministic)."""
    specs = []
    lo, hi = tpl.wf_low, tpl.wf_high
    span = hi - lo
    for fid in tpl.flight_ids:
        rng = np.random.default_rng(
            derive_seed(params.seed, "template", tpl.seed_salt, fid)
        )
        profiles: list[ManeuverProfile] = []
        body_s = tpl.duration_s - tpl.taxi_s - tpl.chirp_s
        if tpl.taxi_s > 0:
            level = tpl.taxi_level if tpl.taxi_level is not None else lo * 0.6
            profiles.append(ManeuverProfile("hold", tpl.taxi_s, "taxiing", level=level))

        hover_s = float(rng.uniform(0.18, 0.28)) * body_s
        hover_level = float(rng.uniform(lo + 0.15 * span, lo + 0.45 * span))
        profiles.append(ManeuverProfile("hold", hover_s, "hover", level=hover_level))

        n_blocks = int(rng.integers(3, 6))
        remaining = body_s - hover_s
        weights = rng.uniform(0.6, 1.4, n_blocks)
        weights /= weights.sum()
        current = hover_level
        for b in range(n_blocks):
            dur = float(weights[b] * remaining)
            label = _BLOCK_LABELS[int(rng.integers(0, len(_BLOCK_LABELS)))]
            if rng.uniform() < 0.62:
                target = float(rng.uniform(lo, hi))
                profiles.append(
                    ManeuverProfile("ramp", dur, label, start=current, end=target)
                )
                current = target
            else:
                profiles.append(ManeuverProfile("hold", dur, label, level=current))

        if tpl.chirp_s > 0:
            amp = tpl.chirp_amplitude
            if amp is None:
                amp = 0.25 * span
            center = float(
                np.clip(current, lo + amp, hi - amp)
            )
            profiles.append(
                ManeuverProfile(
                    "chirp", tpl.chirp_s, "collective_sweep",
                    center=center, amplitude=amp,
                    f0_hz=tpl.chirp_f0_hz, f1_hz=tpl.chirp_f1_hz,
                )
            )
        specs.append(
            SyntheticFlightSpec(
                flight_id=fid,
                sample_rate_hz=sample_rate_hz,
                profiles=tuple(profiles),
                params=params,
                excluded_labels=tuple(excluded_labels),
            )
        )
    return specs
