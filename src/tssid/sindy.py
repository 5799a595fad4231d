"""Sparse identification of engine dynamics from flight segments.

The model class is a sparse linear combination of library terms:

    dX_s/dt = sum_j  Xi[s, j] * theta_j(states, inputs)

First-order fits regress dTRQ/dt on a library over (TRQ, WF).  Second-
order fits first augment the data with TRQ', TRQ'' and WF' (computed per
maneuver segment, never across boundaries), then regress TRQ'' on a
library over (TRQ, TRQ', WF, WF'); the first state equation
d(TRQ)/dt = TRQ' is structural.

Coefficients come from sequentially thresholded least squares (STLSQ):
columns of the library matrix are RMS-normalized, a (optionally ridge-
regularized) least-squares solve is run on the active term set, terms
with normalized coefficient magnitude below the threshold are pruned, and
the solve repeats until the active set reaches a fixed point.  Final
coefficients are reported on physical scale.

Library terms are evaluated by ``tssid.kernels.library_terms``, both for
the design matrix and inside the integrator.  Fitted models are integrated
by fixed-step RK4 with linearly interpolated inputs
(``tssid.kernels.rk4_sparse``), all segments of a flight in one batched
pass; the integrator also carries running integrals of every state and
input so that linear first integrals of the model can be checked to
machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .errors import (
    ComputationError,
    DegreeTooHigh,
    EmptyDataset,
    IoError,
    LengthMismatch,
    MissingInitialDerivative,
    NoActiveTerms,
    RankDeficient,
    SeriesTooShort,
)
from .flightdata import FlightRecord

DERIVATIVE_METHODS = ("central", "smoothed_central")


@dataclass(frozen=True)
class LibrarySpec:
    """Candidate term library for the sparse regression.

    Terms, in order: a bias column (optional), all monomials over the
    variables up to ``degree`` (cross products only when
    ``cross_terms``), then sin/cos of each variable when ``trig``.
    """

    degree: int = 2
    cross_terms: bool = True
    trig: bool = False
    bias: bool = True

    def __post_init__(self):
        if not (1 <= self.degree <= 5):
            raise DegreeTooHigh(f"library degree must be in [1, 5], got {self.degree}")


@dataclass(frozen=True)
class SINDyConfig:
    """Knobs of the STLSQ fit."""

    threshold: float = 0.05
    max_iterations: int = 20
    ridge_lambda: float = 1e-12
    derivative_method: str = "smoothed_central"
    library: LibrarySpec = field(default_factory=LibrarySpec)

    def __post_init__(self):
        if self.threshold < 0:
            raise LengthMismatch(f"threshold must be >= 0, got {self.threshold}")
        if self.max_iterations < 1:
            raise LengthMismatch("max_iterations must be >= 1")
        if self.ridge_lambda < 0:
            raise LengthMismatch("ridge_lambda must be >= 0")
        if self.derivative_method not in DERIVATIVE_METHODS:
            raise LengthMismatch(
                f"derivative_method must be one of {DERIVATIVE_METHODS}, "
                f"got {self.derivative_method!r}"
            )


def build_term_encoding(state_names: Sequence[str], input_names: Sequence[str],
                        spec: LibrarySpec):
    """Exponent/trig tables and labels for every library term.

    Returns (expo, trig, labels): int64 arrays of shape (n_terms, n_vars)
    and a tuple of human-readable labels.  Variables are ordered states
    then inputs.
    """
    names = tuple(state_names) + tuple(input_names)
    nv = len(names)
    rows_e: list[np.ndarray] = []
    rows_t: list[np.ndarray] = []
    labels: list[str] = []

    def add(e, t, label):
        rows_e.append(e)
        rows_t.append(t)
        labels.append(label)

    zero = np.zeros(nv, dtype=np.int64)
    if spec.bias:
        add(zero.copy(), zero.copy(), "1")
    for d in range(1, spec.degree + 1):
        if spec.cross_terms:
            combos = combinations_with_replacement(range(nv), d)
        else:
            combos = ((i,) * d for i in range(nv))
        for combo in combos:
            e = zero.copy()
            for i in combo:
                e[i] += 1
            parts = []
            for i in range(nv):
                if e[i] == 1:
                    parts.append(names[i])
                elif e[i] > 1:
                    parts.append(f"{names[i]}^{e[i]}")
            add(e, zero.copy(), "*".join(parts))
    if spec.trig:
        for fn, code in (("sin", 1), ("cos", 2)):
            for i in range(nv):
                t = zero.copy()
                t[i] = code
                add(zero.copy(), t, f"{fn}({names[i]})")
    expo = np.vstack(rows_e).astype(np.int64)
    trg = np.vstack(rows_t).astype(np.int64)
    return expo, trg, tuple(labels)


@dataclass(frozen=True)
class DesignMatrix:
    """Evaluated candidate library: values (m, p) plus the term encoding."""

    values: np.ndarray
    labels: tuple[str, ...]
    expo: np.ndarray
    trig: np.ndarray
    state_names: tuple[str, ...]
    input_names: tuple[str, ...]


def build_library(X: np.ndarray, U: np.ndarray, spec: LibrarySpec,
                  state_names: Sequence[str] = ("TRQ",),
                  input_names: Sequence[str] = ("WF",)) -> DesignMatrix:
    """Evaluate every candidate term over sample arrays.

    ``X``/``U`` may be 1-D (one state / one input) or 2-D ``(m, k)``.
    """
    X = np.asarray(X, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if U.ndim == 1:
        U = U[:, None]
    if X.ndim != 2 or X.shape[1] != len(state_names):
        raise LengthMismatch(
            f"state array must be (m, {len(state_names)}), got {X.shape}"
        )
    if U.ndim != 2 or U.shape[1] != len(input_names):
        raise LengthMismatch(
            f"input array must be (m, {len(input_names)}), got {U.shape}"
        )
    if X.shape[0] != U.shape[0]:
        raise LengthMismatch(
            f"state rows ({X.shape[0]}) and input rows ({U.shape[0]}) differ"
        )
    expo, trg, labels = build_term_encoding(state_names, input_names, spec)
    values = kernels.library_terms(expo, trg)(np.hstack([X, U]))
    return DesignMatrix(values, labels, expo, trg, tuple(state_names), tuple(input_names))


# --- derivatives --------------------------------------------------------------

def _savgol_smooth(y: np.ndarray, window: int = 7, polyorder: int = 3) -> np.ndarray:
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
    out = np.zeros(n)
    interior = out[half:n - half]
    for j, w in enumerate(P[half]):
        interior += w * y[j:n - window + 1 + j]
    out[:half] = (P @ y[:window])[:half]
    out[n - half:] = (P @ y[n - window:])[window - half:]
    return out


def differentiate(series: np.ndarray, dt: float, method: str = "central") -> np.ndarray:
    """Time derivative of one segment.

    ``central``: second-order central differences inside, second-order
    one-sided stencils at both ends.  ``smoothed_central``: the same after
    Savitzky-Golay smoothing (window 7, order 3).  Segments must have at
    least 3 samples; derivatives are never taken across segment
    boundaries, so call this per segment.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1:
        raise LengthMismatch("differentiate expects a 1-D series")
    n = y.shape[0]
    if n < 3:
        raise SeriesTooShort(f"differentiate needs >= 3 samples, got {n}")
    if dt <= 0:
        raise LengthMismatch(f"dt must be positive, got {dt}")
    if method not in DERIVATIVE_METHODS:
        raise LengthMismatch(f"unknown derivative method {method!r}")
    if method == "smoothed_central":
        y = _savgol_smooth(y)
    out = np.empty(n)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return out


# --- STLSQ ----------------------------------------------------------------------

def _solve_ls(A: np.ndarray, b: np.ndarray, ridge: float) -> np.ndarray:
    if ridge > 0.0:
        ata = A.T @ A
        ata[np.diag_indices_from(ata)] += ridge
        return np.linalg.solve(ata, A.T @ b)
    w, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < A.shape[1]:
        raise RankDeficient(
            f"active library block has rank {rank} < {A.shape[1]} and no ridge"
        )
    return w


def stlsq(theta: np.ndarray, targets: np.ndarray, threshold: float = 0.05,
          max_iterations: int = 20, ridge_lambda: float = 1e-12) -> np.ndarray:
    """Sequentially thresholded least squares.

    ``theta``: (m, p) library matrix; ``targets``: (m,) or (m, k).
    Columns are RMS-normalized before solving; the threshold applies to
    normalized coefficient magnitudes; returned coefficients are physical.
    Returns Xi with shape (k, p).

    An equation whose very first solve is exactly zero (an all-zero
    target) yields a zero row; an active set that empties out from
    nonzero coefficients raises :class:`NoActiveTerms`.
    """
    theta = np.asarray(theta, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if theta.ndim != 2:
        raise LengthMismatch("theta must be 2-D")
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != theta.shape[0]:
        raise LengthMismatch(
            f"theta has {theta.shape[0]} rows, targets have {y.shape[0]}"
        )
    m, p = theta.shape
    if m == 0 or p == 0:
        raise EmptyDataset("stlsq needs a non-empty library matrix")

    rms = np.sqrt(np.mean(theta * theta, axis=0))
    safe = np.where(rms > 0.0, rms, 1.0)
    theta_n = theta / safe

    xi = np.zeros((y.shape[1], p))
    for eq in range(y.shape[1]):
        b = y[:, eq]
        active = np.arange(p)
        w = _solve_ls(theta_n, b, ridge_lambda)
        if not np.any(w):
            continue  # all-zero target: keep the zero row
        for _ in range(max_iterations):
            keep = np.abs(w) >= threshold
            if not np.any(keep):
                raise NoActiveTerms(
                    "thresholding removed every term; lower the threshold "
                    "or enrich the library"
                )
            if np.all(keep):
                break
            active = active[keep]
            w = _solve_ls(theta_n[:, active], b, ridge_lambda)
        xi[eq, active] = w / safe[active]
    return xi


@dataclass(frozen=True)
class SparseModel:
    """A fitted sparse ODE model plus everything needed to reuse it."""

    order: int
    state_names: tuple[str, ...]
    input_names: tuple[str, ...]
    xi: np.ndarray
    labels: tuple[str, ...]
    expo: np.ndarray
    trig: np.ndarray
    config: SINDyConfig
    residual_rmse: tuple[float, ...]
    fingerprint: str = ""

    def __post_init__(self):
        xi = np.array(self.xi, dtype=np.float64, copy=True)
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    def active_terms(self, equation: int) -> dict[str, float]:
        row = self.xi[equation]
        return {
            self.labels[j]: float(row[j])
            for j in range(len(self.labels)) if row[j] != 0.0
        }


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


# --- simulation -----------------------------------------------------------------

@dataclass(frozen=True)
class SimTrajectory:
    """States plus RK4 quadratures (integrals of states then inputs)."""

    states: np.ndarray
    quad: np.ndarray


def _input_matrix(model: SparseModel, u: np.ndarray, dt: float,
                  u_dot: np.ndarray | None) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise LengthMismatch("simulate expects a 1-D control series")
    if u.shape[0] < 2:
        raise SeriesTooShort("simulate needs at least 2 control samples")
    if model.order == 1:
        return u[:, None]
    if u_dot is None:
        u_dot = differentiate(u, dt, "central")
    u_dot = np.asarray(u_dot, dtype=np.float64)
    if u_dot.shape != u.shape:
        raise LengthMismatch("u_dot must match the control series length")
    return np.column_stack([u, u_dot])


def simulate_segments(model: SparseModel, us: Sequence[np.ndarray], dt: float,
                      x0s: Sequence[float], xdot0s: Sequence[float] | None = None,
                      u_dots: Sequence[np.ndarray] | None = None) -> list[SimTrajectory]:
    """Integrate the fitted model over several segments in one RK4 pass.

    ``us`` holds one control series per segment, of any lengths; ``x0s``
    (and, for second order, ``xdot0s``) the initial values, and ``u_dots``
    optional control derivatives.  Each segment's trajectory equals the
    one it gets integrated alone.
    """
    if dt <= 0:
        raise LengthMismatch(f"dt must be positive, got {dt}")
    if not us:
        return []
    if u_dots is None:
        u_dots = [None] * len(us)
    inputs = [_input_matrix(model, u, dt, u_dot) for u, u_dot in zip(us, u_dots)]
    if model.order == 1:
        x_init = np.array([[float(x0)] for x0 in x0s])
    elif xdot0s is None or any(v is None for v in xdot0s):
        raise MissingInitialDerivative(
            "second-order simulation needs the initial state derivative"
        )
    else:
        x_init = np.array([[float(x0), float(v0)] for x0, v0 in zip(x0s, xdot0s)])
    if len(x_init) != len(inputs):
        raise LengthMismatch(f"{len(inputs)} control series but {len(x_init)} initial states")
    lengths = [len(U) for U in inputs]
    batch = np.full((max(lengths), len(inputs), inputs[0].shape[1]), np.nan)
    for b, U in enumerate(inputs):
        batch[:len(U), b] = U
    states, quad = kernels.rk4_sparse(model.xi, model.expo, model.trig, batch,
                                      float(dt), x_init, lengths)
    return [SimTrajectory(states[:len(U), b], quad[:len(U), b])
            for b, U in enumerate(inputs)]


def simulate_full(model: SparseModel, u: np.ndarray, dt: float, x0: float,
                  xdot0: float | None = None,
                  u_dot: np.ndarray | None = None) -> SimTrajectory:
    """Integrate the fitted model over one segment; returns states and quadratures."""
    return simulate_segments(model, [u], dt, [x0], None if xdot0 is None else [xdot0],
                             [u_dot])[0]


def simulate(model: SparseModel, u: np.ndarray, dt: float, x0: float,
             xdot0: float | None = None,
             u_dot: np.ndarray | None = None) -> np.ndarray:
    """Predicted state series for one maneuver (first state variable)."""
    return simulate_full(model, u, dt, x0, xdot0, u_dot).states[:, 0]


def reduction_residual(model: SparseModel, u: np.ndarray, dt: float, x0: float,
                       xdot0: float, u_dot: np.ndarray | None = None) -> np.ndarray:
    """First-integral residual of a linear second-order model.

    For a fitted second equation  x2' = kappa + sum_v coef_v * v  with v
    ranging over degree-1 terms, integrating once gives

        x2(t) - x2(0) = kappa*t + sum_v coef_v * integral(v)

    The integrals come from quadrature states advanced inside the same
    RK4 stages, so the residual of this identity is at rounding level for
    the exact trajectory.  Returns the residual series.
    """
    if model.order != 2:
        raise LengthMismatch("reduction_residual applies to second-order models")
    traj = simulate_full(model, u, dt, x0, xdot0, u_dot)
    n = traj.states.shape[0]
    nv = model.expo.shape[1]
    row = model.xi[1]
    kappa = 0.0
    lin = np.zeros(nv)
    for j in range(row.shape[0]):
        c = row[j]
        if c == 0.0:
            continue
        e = model.expo[j]
        tg = model.trig[j]
        if not e.any() and not tg.any():
            kappa += c
            continue
        if tg.any() or e.sum() != 1:
            raise ComputationError(
                "reduction identity requires a linear second equation; "
                f"term {model.labels[j]!r} is nonlinear"
            )
        lin[int(np.argmax(e))] += c
    t = np.arange(n) * dt
    x2 = traj.states[:, 1]
    acc = x2 - x2[0] - kappa * t
    for v in range(nv):
        if lin[v] != 0.0:
            acc = acc - lin[v] * traj.quad[:, v]
    return acc


# --- reporting and persistence ----------------------------------------------------

def _fmt_coef(c: float) -> str:
    return f"{c:.6g}"


def format_equations(model: SparseModel) -> str:
    """Human-readable fitted equations, one line per state."""
    lines = []
    for s, sname in enumerate(model.state_names):
        row = model.xi[s]
        terms = []
        for j in range(row.shape[0]):
            if row[j] == 0.0:
                continue
            label = model.labels[j]
            mag = _fmt_coef(abs(row[j]))
            body = mag if label == "1" else f"{mag}*{label}"
            terms.append((row[j] < 0, body))
        if not terms:
            rhs = "0"
        else:
            first_neg, first_body = terms[0]
            rhs = ("-" if first_neg else "") + first_body
            for neg, body in terms[1:]:
                rhs += (" - " if neg else " + ") + body
        lines.append(f"d({sname})/dt = {rhs}")
    return "\n".join(lines)


_MAGIC = "tssid sparse model v1"


def save_model(model: SparseModel, path: str | Path) -> None:
    """Write the model as UTF-8 text; floats use exact repr round-trip."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lib = model.config.library
    lines = [
        _MAGIC,
        f"order: {model.order}",
        f"states: {','.join(model.state_names)}",
        f"inputs: {','.join(model.input_names)}",
        f"threshold: {repr(model.config.threshold)}",
        f"max_iterations: {model.config.max_iterations}",
        f"ridge_lambda: {repr(model.config.ridge_lambda)}",
        f"derivative_method: {model.config.derivative_method}",
        f"library_degree: {lib.degree}",
        f"library_cross_terms: {int(lib.cross_terms)}",
        f"library_trig: {int(lib.trig)}",
        f"library_bias: {int(lib.bias)}",
        "residual_rmse: " + ",".join(repr(float(r)) for r in model.residual_rmse),
        f"fingerprint: {model.fingerprint}",
    ]
    for s, sname in enumerate(model.state_names):
        lines.append(f"equation: {sname}")
        row = model.xi[s]
        for j in range(row.shape[0]):
            if row[j] != 0.0:
                lines.append(f"{model.labels[j]}\t{repr(float(row[j]))}")
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(path)


def load_model(path: str | Path) -> SparseModel:
    """Read a model written by :func:`save_model` (exact round-trip).

    A file that no fit could have written is an :class:`IoError`: a
    malformed header or fit settings no config accepts, an ``order`` other
    than the number of ``states``, an unknown equation or term, or a
    coefficient that is not finite.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise IoError(f"{path} is not a tssid sparse model file")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("equation:"):
        key, _, val = lines[i].partition(":")
        header[key.strip()] = val.strip()
        i += 1
    try:
        order = int(header["order"])
        state_names = tuple(header["states"].split(","))
        input_names = tuple(header["inputs"].split(","))
        config = SINDyConfig(
            threshold=float(header["threshold"]),
            max_iterations=int(header["max_iterations"]),
            ridge_lambda=float(header["ridge_lambda"]),
            derivative_method=header["derivative_method"],
            library=LibrarySpec(
                degree=int(header["library_degree"]),
                cross_terms=bool(int(header["library_cross_terms"])),
                trig=bool(int(header["library_trig"])),
                bias=bool(int(header["library_bias"])),
            ),
        )
        rmse = tuple(float(x) for x in header["residual_rmse"].split(","))
    except (KeyError, ValueError, LengthMismatch, DegreeTooHigh) as exc:
        raise IoError(f"{path}: malformed model header: {exc}") from exc
    if order not in (1, 2) or len(state_names) != order:
        raise IoError(f"{path}: order {order} does not match the states "
                      f"{','.join(state_names)}")
    expo, trg, labels = build_term_encoding(state_names, input_names, config.library)
    index = {lb: j for j, lb in enumerate(labels)}
    xi = np.zeros((len(state_names), len(labels)))
    eq = -1
    for ln in lines[i:]:
        if ln.startswith("equation:"):
            name = ln.partition(":")[2].strip()
            try:
                eq = state_names.index(name)
            except ValueError:
                raise IoError(f"{path}: unknown equation {name!r}") from None
            continue
        label, _, val = ln.partition("\t")
        if label not in index:
            raise IoError(f"{path}: unknown term label {label!r}")
        if eq < 0:
            raise IoError(f"{path}: coefficient before any equation header")
        try:
            coef = float(val)
        except ValueError as exc:
            raise IoError(f"{path}: bad coefficient for {label!r}: {exc}") from None
        if not math.isfinite(coef):
            raise IoError(f"{path}: coefficient for {label!r} is not finite: {coef!r}")
        xi[eq, index[label]] = coef
    return SparseModel(
        order=order,
        state_names=state_names,
        input_names=input_names,
        xi=xi,
        labels=labels,
        expo=expo,
        trig=trg,
        config=config,
        residual_rmse=rmse,
        fingerprint=header.get("fingerprint", ""),
    )
