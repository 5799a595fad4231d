"""Checks of the pipeline's outputs, computed apart from the program.

Nothing here imports ``tssid``.  Flight CSVs, ``maneuvers.csv``, overlay
CSVs and model files are parsed with the standard library, and the
scores are recomputed with ``math.fsum`` from the definition in
``evaluation.py``:

    rMAE(maneuver i, flight j) = MAE_i / mean TRQ over flight j's
                                 non-excluded samples
    rMAE(flight j)             = mean over its non-excluded maneuvers
    rMAE(overall)              = mean over flights

Every check returns a list of error strings; an empty list means it held.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def read_columns(path: Path) -> dict[str, list[float]]:
    """CSV with a header row -> column name -> float values."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: list[list[float]] = [[] for _ in header]
        for row in reader:
            for j, cell in enumerate(row):
                cols[j].append(float(cell))
    return dict(zip(header, cols))


def read_maneuvers(path: Path, exclude_labels=()) -> dict[str, list[tuple]]:
    """flight id -> [(label, start, end, excluded)] in file order."""
    out: dict[str, list[tuple]] = {}
    labels = set(exclude_labels)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            excluded = row["excluded"] == "1" or row["label"] in labels
            out.setdefault(row["flight_id"], []).append(
                (row["label"], int(row["start_index"]), int(row["end_index"]), excluded))
    return out


def scoring_segments(segments: list[tuple]) -> list[tuple]:
    return [s for s in segments if not s[3]]


def included_mean(series: list[float], segments: list[tuple]) -> float:
    """Mean over the samples inside non-excluded segments."""
    return _mean(v for _, s, e, _ in scoring_segments(segments) for v in series[s:e])


def segment_csv_name(flight_id: str, index: int, label: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in label)
    return f"{flight_id}__{index:02d}_{safe}.csv"


def hierarchical_rmae(flights: dict[str, tuple[float, list[float]]]) -> dict:
    """flight id -> (mean TRQ, per-maneuver MAEs) -> every level of the score."""
    per_flight = {}
    for fid, (mean_trq, maes) in flights.items():
        per_flight[fid] = _mean(m / mean_trq for m in maes)
    return {"flights": per_flight, "overall": _mean(per_flight.values())}


def mae(pred: list[float], actual: list[float]) -> float:
    return _mean(abs(p - a) for p, a in zip(pred, actual))


# --- eval report -------------------------------------------------------------

def parse_eval_report(path: Path) -> dict:
    """``eval_<model>.txt`` -> overall, per flight and per maneuver rMAE."""
    rep = {"overall": None, "flights": {}}
    cur = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("overall_rmae: "):
            rep["overall"] = float(line.split(": ", 1)[1])
        elif line.startswith("flight: "):
            fid, mean_part, rmae_part = line[len("flight: "):].split("\t")
            cur = {"mean_trq": float(mean_part.split("=", 1)[1]),
                   "rmae": float(rmae_part.split("=", 1)[1]), "maneuvers": []}
            rep["flights"][fid] = cur
        elif line.strip().startswith("maneuver: "):
            label, rng, mae_part, rmae_part = line.strip()[len("maneuver: "):].split("\t")
            s, e = rng.strip("[)").split(",")
            cur["maneuvers"].append((label, int(s), int(e),
                                     float(mae_part.split("=", 1)[1]),
                                     float(rmae_part.split("=", 1)[1])))
    return rep


def recompute_scores(out_dir: Path, data_dir: Path, model_id: str,
                     test_ids, exclude_labels=()) -> tuple[dict, list[str]]:
    """Score one model from its overlay CSVs and the corpus files."""
    errors = []
    segs = read_maneuvers(data_dir / "maneuvers.csv", exclude_labels)
    flights = {}
    detail = {}
    for fid in test_ids:
        trq = read_columns(data_dir / "flights" / f"{fid}.csv")["TRQ"]
        scored = scoring_segments(segs[fid])
        maes = []
        for i, (label, s, e, _) in enumerate(scored):
            ov = read_columns(out_dir / "overlays" / model_id / segment_csv_name(fid, i, label))
            if ov["actual"] != trq[s:e]:
                errors.append(f"{model_id} overlay {fid}#{i}: actual column is not the "
                              f"flight's TRQ[{s}:{e}]")
            maes.append(mae(ov["predicted"], ov["actual"]))
        flights[fid] = (included_mean(trq, segs[fid]), maes)
        detail[fid] = [(label, s, e) for label, s, e, _ in scored]
    scores = hierarchical_rmae(flights)
    scores["maes"] = {fid: maes for fid, (_, maes) in flights.items()}
    scores["segments"] = detail
    scores["mean_trq"] = {fid: m for fid, (m, _) in flights.items()}
    return scores, errors


def check_eval_report(report: dict, scores: dict, model_id: str) -> list[str]:
    """Every number in an eval report against the recomputation."""
    errors = []
    if set(report["flights"]) != set(scores["flights"]):
        return [f"{model_id}: report covers {sorted(report['flights'])}, "
                f"test split is {sorted(scores['flights'])}"]
    if not _close(report["overall"], scores["overall"]):
        errors.append(f"{model_id}: overall rMAE {report['overall']!r} != "
                      f"recomputed {scores['overall']!r}")
    for fid, fl in report["flights"].items():
        if not _close(fl["mean_trq"], scores["mean_trq"][fid]):
            errors.append(f"{model_id} {fid}: mean TRQ {fl['mean_trq']!r} != "
                          f"{scores['mean_trq'][fid]!r}")
        if not _close(fl["rmae"], scores["flights"][fid]):
            errors.append(f"{model_id} {fid}: rMAE {fl['rmae']!r} != "
                          f"{scores['flights'][fid]!r}")
        bounds = [(m[0], m[1], m[2]) for m in fl["maneuvers"]]
        if bounds != scores["segments"][fid]:
            errors.append(f"{model_id} {fid}: scored maneuvers {bounds} != "
                          f"{scores['segments'][fid]}")
            continue
        for m, want_mae in zip(fl["maneuvers"], scores["maes"][fid]):
            want_rmae = want_mae / scores["mean_trq"][fid]
            if not (_close(m[3], want_mae) and _close(m[4], want_rmae)):
                errors.append(f"{model_id} {fid} {m[0]}: mae/rmae {m[3]!r}/{m[4]!r} != "
                              f"{want_mae!r}/{want_rmae!r}")
    return errors


def check_comparison(path: Path, scores_by_model: dict[str, dict]) -> list[str]:
    """``comparison.csv``: one row per flight plus ``overall``."""
    errors = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    models = rows[0][1:]
    if models != list(scores_by_model):
        return [f"comparison.csv models {models} != {list(scores_by_model)}"]
    for row in rows[1:]:
        for model, cell in zip(models, row[1:]):
            sc = scores_by_model[model]
            want = sc["overall"] if row[0] == "overall" else sc["flights"].get(row[0])
            if want is None or not _close(float(cell), want):
                errors.append(f"comparison.csv {row[0]}/{model}: {cell} != {want!r}")
    if len(rows) != len(next(iter(scores_by_model.values()))["flights"]) + 2:
        errors.append("comparison.csv has the wrong number of rows")
    return errors


def check_printed_percent(text: str, scores_by_model: dict[str, dict]) -> list[str]:
    """``model: overall rMAE x.xx%`` lines that ``tssid evaluate`` prints."""
    errors = []
    for model, sc in scores_by_model.items():
        want = f"{model}: overall rMAE {sc['overall'] * 100:.2f}%"
        if want not in text:
            errors.append(f"evaluate output lacks {want!r}")
    return errors


def check_report_table(text: str, scores_by_model: dict[str, dict]) -> list[str]:
    """``report.txt``: rMAE in percent with two decimals."""
    errors = []
    rows = {ln.split()[0]: ln.split()[1:] for ln in text.splitlines() if ln.strip()}
    models = rows.pop("flight", [])
    if models != list(scores_by_model):
        return [f"report.txt models {models} != {list(scores_by_model)}"]
    want_rows = {*next(iter(scores_by_model.values()))["flights"], "overall"}
    if set(rows) != want_rows:
        errors.append(f"report.txt rows {sorted(rows)} != {sorted(want_rows)}")
    for key, cells in rows.items():
        for model, cell in zip(models, cells):
            sc = scores_by_model[model]
            want = sc["overall"] if key == "overall" else sc["flights"].get(key)
            if want is None or cell != f"{want * 100:.2f}%":
                errors.append(f"report.txt {key}/{model}: {cell} != {want!r}")
    return errors


# --- models --------------------------------------------------------------------

def first_order_terms(a: float, b: float, c: float) -> dict[str, float]:
    """dTRQ/dt = -a - b*TRQ + c*WF."""
    return {"1": -a, "TRQ": -b, "WF": c}


def cascade_terms(mu: float, tau1: float, tau2: float) -> dict[str, float]:
    """tau1*tau2*TRQ'' + (tau1+tau2)*TRQ' + TRQ = mu*WF, solved for TRQ''."""
    p = tau1 * tau2
    return {"TRQ": -1.0 / p, "TRQ_dot": -(tau1 + tau2) / p, "WF": mu / p}


def parse_model(path: Path) -> dict[str, dict[str, float]]:
    """``sindy<k>_model.txt`` -> equation state -> active term -> coefficient."""
    eqs: dict[str, dict[str, float]] = {}
    cur = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("equation: "):
            cur = eqs.setdefault(line.split(": ", 1)[1], {})
        elif cur is not None and "\t" in line:
            label, value = line.split("\t")
            cur[label] = float(value)
    return eqs


def check_terms(fitted: dict[str, float], expected: dict[str, float],
                rel_tol: float, what: str) -> list[str]:
    """Exactly the expected active terms, each within ``rel_tol`` relative."""
    if set(fitted) != set(expected):
        return [f"{what}: active terms {sorted(fitted)} != {sorted(expected)}"]
    return [f"{what}: {term} = {fitted[term]!r}, expected {want!r} within {rel_tol}"
            for term, want in expected.items()
            if abs(fitted[term] - want) > rel_tol * abs(want)]


def check_loss_decreases(path: Path, kind: str) -> list[str]:
    loss = read_columns(path)["train_mse"]
    if not loss[-1] < loss[0]:
        return [f"{kind}: last-epoch train MSE {loss[-1]!r} is not below the "
                f"first {loss[0]!r}"]
    return []


def constant_predictor_rmae(data_dir: Path, train_ids, test_ids,
                            exclude_labels=()) -> float:
    """Overall rMAE of predicting the training flights' mean torque everywhere."""
    segs = read_maneuvers(data_dir / "maneuvers.csv", exclude_labels)
    trq = {fid: read_columns(data_dir / "flights" / f"{fid}.csv")["TRQ"]
           for fid in (*train_ids, *test_ids)}
    level = _mean(v for fid in train_ids
                  for _, s, e, _ in scoring_segments(segs[fid]) for v in trq[fid][s:e])
    flights = {}
    for fid in test_ids:
        maes = [_mean(abs(level - v) for v in trq[fid][s:e])
                for _, s, e, _ in scoring_segments(segs[fid])]
        flights[fid] = (included_mean(trq[fid], segs[fid]), maes)
    return hierarchical_rmae(flights)["overall"]


def check_sample_counts(summary: Path, data_dir: Path, flight_ids,
                        sample_rate_hz: float) -> list[str]:
    """Each flight ingests as many samples as its CSV has rows and its duration.

    The rows are counted here; the duration is the span the flight's
    ``time_s`` column and its maneuvers cover.
    """
    errors = []
    with open(summary, newline="", encoding="utf-8") as fh:
        rows = {r["flight_id"]: r for r in csv.DictReader(fh)}
    if set(rows) != set(flight_ids):
        return [f"ingest summary covers {sorted(rows)}, corpus is {sorted(flight_ids)}"]
    segs = read_maneuvers(data_dir / "maneuvers.csv")
    for fid in flight_ids:
        times = _first_column(data_dir / "flights" / f"{fid}.csv")
        n = len(times)
        got = int(rows[fid]["n_samples"])
        duration = float(rows[fid]["duration_s"])
        if times != [k / sample_rate_hz for k in range(n)]:
            errors.append(f"{fid}: time_s is not k / {sample_rate_hz} Hz")
        if got != n or not _close(duration * sample_rate_hz, n):
            errors.append(f"{fid}: ingested {got} samples over {duration} s, "
                          f"the CSV has {n} rows at {sample_rate_hz} Hz")
        if max(e for _, _, e, _ in segs[fid]) != n:
            errors.append(f"{fid}: maneuvers do not end at the last of {n} samples")
    return errors


def _first_column(path: Path) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [float(line.split(",", 1)[0]) for line in fh]


def check_sim_matches_overlays(out_dir: Path, order: int) -> list[str]:
    """Predictions in ``sim_sindy<k>/`` equal those in ``overlays/sindy<k>/``."""
    sim_dir = out_dir / f"sim_sindy{order}"
    ov_dir = out_dir / "overlays" / f"sindy{order}"
    sims = sorted(p.name for p in sim_dir.glob("*.csv"))
    if not sims or sims != sorted(p.name for p in ov_dir.glob("*.csv")):
        return [f"sindy{order}: simulate and overlay files differ"]
    errors = []
    for name in sims:
        sim = read_columns(sim_dir / name)
        ov = read_columns(ov_dir / name)
        if sim["TRQ_pred"] != ov["predicted"] or sim["TRQ_actual"] != ov["actual"]:
            errors.append(f"sindy{order} {name}: simulate CSV and overlay disagree")
    return errors
