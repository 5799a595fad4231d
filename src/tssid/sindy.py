"""Sparse identification of engine dynamics from flight segments.

The model class is a sparse linear combination of library terms:

    dX_s/dt = sum_j  Xi[s, j] * theta_j(states, inputs)

One fit, :func:`fit_sparse`, serves both orders.  For each scoring
segment it takes the derivative stack of the state (TRQ, TRQ', ... up to
the order's derivative) and of the control (WF, ... one derivative fewer),
inside the segment only, by ``SINDyConfig.derivative_method``.  The
stacks give the library's states (TRQ at order 1; TRQ, TRQ' at order 2),
the regression target (the state's last derivative) and the inputs (WF;
WF, WF').  The order sets only these counts, the names, and the
structural equations d(TRQ)/dt = TRQ_dot of a second-order model.

Coefficients come from sequentially thresholded least squares (STLSQ):
columns of the library matrix are RMS-normalized, a (optionally ridge-
regularized) least-squares solve is run on the active term set, terms
with normalized coefficient magnitude below the threshold are pruned, and
the solve repeats until the active set reaches a fixed point.  Final
coefficients are reported on physical scale.

Library terms are evaluated by ``tssid.kernels.library_terms``, both for
the design matrix and inside the integrator.  Fitted models are integrated
by fixed-step RK4 with linearly interpolated inputs
(``tssid.kernels.rk4_sparse``), any number of segments in one batched
pass; the integrator also carries running integrals of every state and
input so that linear first integrals of the model can be checked to
machine precision.  :func:`simulate_flights` integrates every scoring
segment of a set of flights in that pass, each from the derivative stacks
of its observed series by the model's own method, as its fit took them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .errors import (
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
    TssidError,
)
from .evaluation import check_finite_prediction
from .flightdata import FlightRecord, atomic_open
from .settings import TEXT, check, read, setting

DERIVATIVE_METHODS = ("central", "smoothed_central")

#: the state and control channels that :func:`fit_sparse` fits
SPARSE_CHANNELS = ("TRQ", "WF")


@dataclass(frozen=True)
class LibrarySpec:
    """Candidate term library for the sparse regression.

    Terms, in order: a bias column (optional), all monomials over the
    variables up to ``degree`` (cross products only when
    ``cross_terms``), then sin/cos of each variable when ``trig``.
    """

    degree: int = setting(2, lo=1, hi=5)
    cross_terms: bool = True
    trig: bool = False
    bias: bool = True

    def __post_init__(self):
        check(self, DegreeTooHigh)


@dataclass(frozen=True)
class SINDyConfig:
    """Knobs of the STLSQ fit."""

    threshold: float = setting(0.05, lo=0)
    max_iterations: int = setting(20, lo=1)
    ridge_lambda: float = setting(1e-12, lo=0)
    derivative_method: str = setting("smoothed_central", choices=DERIVATIVE_METHODS)
    library: LibrarySpec = field(default_factory=LibrarySpec)

    def __post_init__(self):
        check(self, LengthMismatch)


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


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Evaluated candidate library: values (m, p) plus the term encoding."""

    values: np.ndarray
    labels: tuple[str, ...]
    expo: np.ndarray
    trig: np.ndarray
    state_names: tuple[str, ...]
    input_names: tuple[str, ...]


#: rows of the design matrix evaluated per ``library_terms`` call
_LIBRARY_BLOCK_ROWS = 1024


def build_library(X: np.ndarray, U: np.ndarray, spec: LibrarySpec,
                  state_names: Sequence[str] = ("TRQ",),
                  input_names: Sequence[str] = ("WF",)) -> DesignMatrix:
    """Evaluate every candidate term over sample arrays.

    ``X``/``U`` may be 1-D (one state / one input) or 2-D ``(m, k)``.  The
    terms are evaluated ``_LIBRARY_BLOCK_ROWS`` rows at a time into one
    preallocated matrix, so no other array of its size is made; each term
    is an elementwise product, so the values do not depend on the blocks.
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
    terms = kernels.library_terms(expo, trg)
    values = np.empty((X.shape[0], len(labels)))
    for lo in range(0, X.shape[0], _LIBRARY_BLOCK_ROWS):
        hi = lo + _LIBRARY_BLOCK_ROWS
        values[lo:hi] = terms(np.hstack([X[lo:hi], U[lo:hi]]))
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

    ``theta`` is never modified.  Once its normalized copy exists, this
    function drops its own reference to it, so a caller that passes the
    only reference (as :func:`fit_sparse` does) frees it: with a ridge,
    the solves then hold at most two (m, p) matrices, the normalized one
    and an active block.  Without a ridge, ``lstsq`` makes a copy of
    each block of its own.
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
    del theta

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


@dataclass(frozen=True, eq=False)
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


def _derivative_stack(series: np.ndarray, dt: float, k: int, method: str) -> list[np.ndarray]:
    """``series`` and its first ``k`` derivatives, each taken from the one before."""
    stack = [series]
    for _ in range(k):
        stack.append(differentiate(stack[-1], dt, method))
    return stack


def _segment_rows(flights: Sequence[FlightRecord], order: int, method: str
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Library states, inputs and target, from each scoring segment's derivative stacks.

    Each segment's stacks are written straight into preallocated arrays.
    The target gets an array of its own: BLAS would sum a strided column
    of a wider array in another order.
    """
    min_len = 2 * order + 1
    segs = [(fl, seg) for fl in flights for seg in fl.scoring_segments()]
    if not segs:
        raise EmptyDataset("no flight has a scoring segment: every maneuver is excluded")
    m = sum(seg.n_samples for _, seg in segs)
    X, U, target = np.empty((m, order)), np.empty((m, order)), np.empty(m)
    lo = 0
    for fl, seg in segs:
        if seg.n_samples < min_len:
            raise SeriesTooShort(f"flight {fl.flight_id!r}: segment {seg.label!r} has "
                                 f"{seg.n_samples} samples, need >= {min_len}")
        x, u = (fl.values(nm)[seg.start_index:seg.end_index] for nm in SPARSE_CHANNELS)
        hi = lo + seg.n_samples
        xs = _derivative_stack(x, fl.dt, order, method)
        X[lo:hi].T[:], target[lo:hi] = xs[:order], xs[order]
        U[lo:hi].T[:] = _derivative_stack(u, fl.dt, order - 1, method)
        lo = hi
    return X, U, target


def fit_sparse(flights: Sequence[FlightRecord], order: int,
               config: SINDyConfig = SINDyConfig()) -> SparseModel:
    """Fit state^(order) = Xi . theta(state..state^(order-1), control..control^(order-1)),
    the state and control being :data:`SPARSE_CHANNELS`.

    Every scoring segment, of at least ``2*order + 1`` samples, contributes
    its samples.  A second-order model has two equations: the structural
    d(state)/dt = state_dot, and the fitted second one.

    Besides the sample rows, at most two (rows, terms) matrices are alive
    at a time (see :func:`build_library` and :func:`stlsq`): the library
    is built once for STLSQ and once more for the residual.
    """
    if order not in (1, 2):
        raise ConfigError(f"order must be 1 or 2, got {order}")
    if not flights:
        raise EmptyDataset("fit_sparse needs at least one flight")
    X, U, target = _segment_rows(flights, order, config.derivative_method)
    s_names, i_names = ((nm, f"{nm}_dot")[:order] for nm in SPARSE_CHANNELS)
    expo, trig, labels = build_term_encoding(s_names, i_names, config.library)
    xi = np.zeros((order, len(labels)))
    for s in range(order - 1):
        xi[s, labels.index(s_names[s + 1])] = 1.0
    # stlsq gets the only reference to the library and frees it once it holds
    # the normalized copy; the residual is taken from the library built again
    xi[-1] = stlsq(build_library(X, U, config.library, s_names, i_names).values, target,
                   config.threshold, config.max_iterations, config.ridge_lambda)[0]
    resid = build_library(X, U, config.library, s_names, i_names).values @ xi[-1] - target
    rmse = float(np.sqrt(np.mean(resid * resid)))
    return SparseModel(order, s_names, i_names, xi, labels, expo, trig,
                       config, residual_rmse=(0.0,) * (order - 1) + (rmse,))


# --- simulation -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SimTrajectory:
    """States plus RK4 quadratures (integrals of states then inputs)."""

    states: np.ndarray
    quad: np.ndarray


def _input_matrix(model: SparseModel, u: np.ndarray, dt: float) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise LengthMismatch("simulate expects a 1-D control series")
    if u.shape[0] < 2:
        raise SeriesTooShort("simulate needs at least 2 control samples")
    return np.column_stack(_derivative_stack(u, dt, model.order - 1,
                                             model.config.derivative_method))


def simulate_segments(model: SparseModel, us: Sequence[np.ndarray], dt: float,
                      x0s: Sequence[float],
                      xdot0s: Sequence[float] | None = None) -> list[SimTrajectory]:
    """Integrate the fitted model over several segments in one RK4 pass.

    ``us`` holds one control series per segment, of any lengths, and
    ``x0s`` (and, for second order, ``xdot0s``) the initial values.  The
    control derivative is taken by the model's derivative method.  Each
    segment's trajectory equals the one it gets integrated alone.
    """
    if dt <= 0:
        raise LengthMismatch(f"dt must be positive, got {dt}")
    if not us:
        return []
    inputs = [_input_matrix(model, u, dt) for u in us]
    if model.order == 2 and (xdot0s is None or any(v is None for v in xdot0s)):
        raise MissingInitialDerivative(
            "second-order simulation needs the initial state derivative"
        )
    starts = zip(x0s) if model.order == 1 else zip(x0s, xdot0s)
    x_init = np.array([[float(v) for v in start] for start in starts])
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


def simulate_flights(model: SparseModel,
                     flights: Sequence[FlightRecord]) -> dict[str, np.ndarray]:
    """Each flight's full-length prediction; NaN outside its scoring segments.

    The scoring segments of all flights are integrated in one RK4 pass; the
    flights share the corpus sample rate, so one step serves them all.  Each
    segment starts from the derivative stack of its observed state, taken by
    the method the model was fitted with, as the fit took it.  A prediction
    that is not finite inside a segment (a diverged model) is a
    ``ComputationError``, as it is when scored.
    """
    if not flights:
        return {}
    dt, k = flights[0].dt, model.order - 1
    segs = [(fl, seg) for fl in flights for seg in fl.scoring_segments()]
    xs, us = ([fl.values(nm)[s.start_index:s.end_index] for fl, s in segs]
              for nm in (model.state_names[0], model.input_names[0]))
    # a diverging model overflows; the check below reports it, so numpy's
    # warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        starts = [[s[0] for s in _derivative_stack(x, dt, k, model.config.derivative_method)]
                  for x in xs]
        trajs = simulate_segments(model, us, dt, [s[0] for s in starts],
                                  [s[1] for s in starts] if k else None)
    preds = {fl.flight_id: np.full(fl.n_samples, np.nan) for fl in flights}
    for (fl, seg), traj in zip(segs, trajs):
        check_finite_prediction(f"sindy{model.order}", fl.flight_id, seg, traj.states[:, 0])
        preds[fl.flight_id][seg.start_index:seg.end_index] = traj.states[:, 0]
    return preds


def simulate(model: SparseModel, u: np.ndarray, dt: float, x0: float,
             xdot0: float | None = None) -> np.ndarray:
    """Predicted state series for one maneuver (first state variable)."""
    return simulate_segments(model, [u], dt, [x0],
                             None if xdot0 is None else [xdot0])[0].states[:, 0]


def reduction_residual(model: SparseModel, u: np.ndarray, dt: float, x0: float,
                       xdot0: float) -> np.ndarray:
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
    traj = simulate_segments(model, [u], dt, [x0], [xdot0])[0]
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
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str | Path) -> SparseModel:
    """Read a model written by :func:`save_model` (exact round-trip).

    A file that no fit could have written is an :class:`IoError`: a
    malformed header or fit settings no config accepts, an ``order`` other
    than the number of ``states`` or of ``inputs``, an unknown equation or
    term, or a coefficient that is not finite.
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
        fit = {f.name: header[f.name] for f in fields(SINDyConfig) if f.name in header}
        fit["library"] = {k.removeprefix("library_"): v for k, v in header.items()
                          if k.startswith("library_")}
        config = read(SINDyConfig, fit, "header", TEXT)
        rmse = tuple(float(x) for x in header["residual_rmse"].split(","))
    except (KeyError, ValueError, TssidError) as exc:
        raise IoError(f"{path}: malformed model header: {exc}") from exc
    for kind, names in (("states", state_names), ("inputs", input_names)):
        if order not in (1, 2) or len(names) != order:
            raise IoError(f"{path}: order {order} does not match the {kind} "
                          f"{','.join(names)}")
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
