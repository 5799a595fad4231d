"""Hierarchical model scoring: maneuver -> flight -> overall.

The metric is relative mean absolute error.  For maneuver i of flight j:

    rMAE_ij = MAE(pred_i, actual_i) / mean_TRQ_j

where ``mean_TRQ_j`` is the mean of the actual torque over all
non-excluded samples of flight j, in physical units (never the scaled
values).  A flight's score is the unweighted mean of its maneuver scores;
the overall score is the unweighted mean of the flight scores.  Excluded
maneuvers never contribute, at any level.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ComputationError,
    EmptyDataset,
    EmptySeries,
    FlightSetMismatch,
    IoError,
    LengthMismatch,
    MissingPrediction,
    NonPositiveFlightMean,
)
from .flightdata import FlightRecord, atomic_open, write_float_csv


def mae(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean absolute error of two equal-length series."""
    p = np.asarray(predicted, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape:
        raise LengthMismatch(f"series shapes differ: {p.shape} vs {a.shape}")
    if p.size == 0:
        raise EmptySeries("mae of an empty series is undefined")
    return float(np.mean(np.abs(p - a)))


def flight_mean_trq(record: FlightRecord, target: str = "TRQ") -> float:
    """Mean physical torque over the flight's non-excluded samples."""
    vals = record.values(target)[record.included_mask()]
    if vals.size == 0:
        raise EmptySeries(
            f"flight {record.flight_id!r} has no non-excluded samples"
        )
    return float(np.mean(vals))


@dataclass(frozen=True)
class ManeuverScore:
    label: str
    start_index: int
    end_index: int
    mae: float
    rmae: float


@dataclass(frozen=True)
class FlightScore:
    flight_id: str
    mean_trq: float
    maneuvers: tuple[ManeuverScore, ...]

    @property
    def rmae(self) -> float:
        return float(np.mean([m.rmae for m in self.maneuvers]))


@dataclass(frozen=True)
class EvalReport:
    model_id: str
    flights: tuple[FlightScore, ...]
    fingerprint: str = ""

    @property
    def overall_rmae(self) -> float:
        return float(np.mean([f.rmae for f in self.flights]))

    def flight(self, flight_id: str) -> FlightScore:
        for f in self.flights:
            if f.flight_id == flight_id:
                return f
        raise MissingPrediction(f"report has no flight {flight_id!r}")


def score_model(model_id: str, predictions: Mapping[str, np.ndarray],
                records: Sequence[FlightRecord], target: str = "TRQ") -> EvalReport:
    """Score full-length prediction series against the actual target.

    ``predictions`` maps flight id to a series as long as the flight;
    every record must have one (:class:`MissingPrediction`).  Only
    non-excluded maneuvers are scored, and a prediction inside one that is
    not finite (a diverged simulation) is a :class:`ComputationError`;
    outside them NaN is allowed.  A flight whose mean target is not
    positive cannot normalize its errors (:class:`NonPositiveFlightMean`).
    """
    if not records:
        raise EmptyDataset("score_model needs at least one flight")
    flights = []
    for rec in records:
        if rec.flight_id not in predictions:
            raise MissingPrediction(f"no prediction series for flight {rec.flight_id!r}")
        pred = np.asarray(predictions[rec.flight_id], dtype=np.float64)
        actual = rec.values(target)
        if pred.shape != actual.shape:
            raise LengthMismatch(
                f"flight {rec.flight_id!r}: prediction has shape {pred.shape}, "
                f"actual has {actual.shape}"
            )
        mean_trq = flight_mean_trq(rec, target)
        if mean_trq <= 0.0:
            raise NonPositiveFlightMean(
                f"flight {rec.flight_id!r}: mean {target} must be positive to "
                f"normalize its errors, got {mean_trq}"
            )
        scores = []
        for seg in rec.scoring_segments():
            seg_pred = pred[seg.start_index:seg.end_index]
            if not np.isfinite(seg_pred).all():
                raise ComputationError(
                    f"model {model_id!r}: prediction for flight {rec.flight_id!r}, "
                    f"maneuver {seg.label!r} (samples {seg.start_index}-{seg.end_index}) "
                    "is not finite"
                )
            seg_mae = mae(seg_pred, actual[seg.start_index:seg.end_index])
            scores.append(ManeuverScore(seg.label, seg.start_index, seg.end_index,
                                        seg_mae, seg_mae / mean_trq))
        flights.append(FlightScore(rec.flight_id, mean_trq, tuple(scores)))
    return EvalReport(model_id, tuple(flights))


@dataclass(frozen=True)
class ComparisonTable:
    """Per-flight and overall rMAE for several models, aligned by flight."""

    model_ids: tuple[str, ...]
    flight_ids: tuple[str, ...]
    per_flight: np.ndarray  # (n_flights, n_models)
    overall: np.ndarray     # (n_models,)


def compare_models(reports: Sequence[EvalReport]) -> ComparisonTable:
    """Align several reports into one table.

    Every report must cover exactly the same flight set
    (:class:`FlightSetMismatch` otherwise).
    """
    if not reports:
        raise EmptyDataset("compare_models needs at least one report")
    base = tuple(f.flight_id for f in reports[0].flights)
    for rep in reports[1:]:
        ids = tuple(f.flight_id for f in rep.flights)
        if set(ids) != set(base):
            raise FlightSetMismatch(
                f"report {rep.model_id!r} covers {sorted(ids)}, "
                f"expected {sorted(base)}"
            )
    table = np.empty((len(base), len(reports)))
    for c, rep in enumerate(reports):
        for r, fid in enumerate(base):
            table[r, c] = rep.flight(fid).rmae
    overall = np.array([rep.overall_rmae for rep in reports])
    return ComparisonTable(
        tuple(rep.model_id for rep in reports), base, table, overall,
    )


# --- persistence ------------------------------------------------------------------

_REPORT_MAGIC = "tssid eval report v1"


def save_report(report: EvalReport, path: str | Path) -> None:
    """Plain-text report; floats use exact repr round-trip."""
    lines = [
        _REPORT_MAGIC,
        f"model: {report.model_id}",
        f"fingerprint: {report.fingerprint}",
        f"overall_rmae: {repr(report.overall_rmae)}",
    ]
    for fl in report.flights:
        lines.append(
            f"flight: {fl.flight_id}\tmean_trq={repr(fl.mean_trq)}"
            f"\trmae={repr(fl.rmae)}"
        )
        for m in fl.maneuvers:
            lines.append(
                f"  maneuver: {m.label}\t[{m.start_index},{m.end_index})"
                f"\tmae={repr(m.mae)}\trmae={repr(m.rmae)}"
            )
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_report(path: str | Path) -> EvalReport:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read report {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != _REPORT_MAGIC:
        raise IoError(f"{path} is not a tssid eval report")
    model_id = fingerprint = ""
    flights: list[FlightScore] = []
    cur_id = None
    cur_mean = 0.0
    cur_scores: list[ManeuverScore] = []

    def close_flight():
        nonlocal cur_id, cur_scores
        if cur_id is not None:
            flights.append(FlightScore(cur_id, cur_mean, tuple(cur_scores)))
        cur_id, cur_scores = None, []

    try:
        for ln in lines[1:]:
            if ln.startswith("model: "):
                model_id = ln[len("model: "):]
            elif ln.startswith("fingerprint: "):
                fingerprint = ln[len("fingerprint: "):]
            elif ln.startswith("flight: "):
                close_flight()
                fid, mean_part, _ = ln[len("flight: "):].split("\t")
                cur_id = fid
                cur_mean = float(mean_part.split("=", 1)[1])
            elif ln.strip().startswith("maneuver: "):
                body = ln.strip()[len("maneuver: "):]
                label, rng, mae_part, rmae_part = body.split("\t")
                s, e = rng.strip("[)").split(",")
                cur_scores.append(ManeuverScore(
                    label, int(s), int(e),
                    float(mae_part.split("=", 1)[1]),
                    float(rmae_part.split("=", 1)[1]),
                ))
        close_flight()
    except (ValueError, IndexError) as exc:
        raise IoError(f"{path}: malformed report line: {exc}") from exc
    return EvalReport(model_id, tuple(flights), fingerprint)


def write_comparison_csv(table: ComparisonTable, path: str | Path) -> None:
    """CSV with one row per flight plus an overall row."""
    rows = [["flight_id"] + list(table.model_ids)]
    for r, fid in enumerate(table.flight_ids):
        rows.append([fid] + [repr(float(v)) for v in table.per_flight[r]])
    rows.append(["overall"] + [repr(float(v)) for v in table.overall])
    with atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_overlay_csv(path: str | Path, time_s: np.ndarray, actual: np.ndarray,
                      predicted: np.ndarray) -> None:
    """Per-maneuver overlay series used for plotting actual vs predicted."""
    write_float_csv(path, ("time_s", "actual", "predicted"),
                    (time_s, actual, predicted))
