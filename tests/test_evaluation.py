"""Hierarchical rMAE scoring and report/table persistence."""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np
import pytest

from conftest import toy_record
from tssid.errors import (
    ComputationError,
    EmptyDataset,
    EmptySeries,
    FlightSetMismatch,
    IoError,
    LengthMismatch,
    MissingPrediction,
    NonPositiveFlightMean,
)
from tssid.evaluation import (
    ComparisonTable,
    EvalReport,
    FlightScore,
    ManeuverScore,
    compare_models,
    flight_mean_trq,
    load_report,
    mae,
    save_report,
    score_model,
    write_comparison_csv,
    write_overlay_csv,
)
from tssid.flightdata import FlightRecord, ManeuverSegment, filter_maneuvers

# --- primitive metrics -----------------------------------------------------------


def test_mae_hand_values():
    assert mae(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 5.0])) == 1.0
    assert mae(np.array([-1.0, 1.0]), np.array([1.0, -1.0])) == 2.0


def test_mae_validation():
    with pytest.raises(LengthMismatch):
        mae(np.ones(3), np.ones(4))
    with pytest.raises(EmptySeries):
        mae(np.empty(0), np.empty(0))




def test_flight_mean_trq_respects_exclusions():
    n = 40
    trq = np.concatenate([np.full(20, 100.0), np.full(20, 200.0)])
    rec = FlightRecord(
        "f", 10.0, ("TRQ",), [trq],
        (ManeuverSegment("a", 0, 20, excluded=True), ManeuverSegment("b", 20, n)),
    )
    assert flight_mean_trq(rec) == 200.0  # only the non-excluded half counts
    all_excluded = rec.with_maneuvers(
        (ManeuverSegment("a", 0, n, excluded=True),))
    with pytest.raises(EmptySeries):
        flight_mean_trq(all_excluded)


# --- score_model -------------------------------------------------------------------


def _constant_offset_case():
    """Two flights with known means and a +delta prediction offset."""
    trq_a = np.concatenate([np.full(30, 100.0), np.full(30, 300.0)])
    rec_a = FlightRecord(
        "fa", 10.0, ("TRQ",), [trq_a],
        (ManeuverSegment("hover", 0, 30), ManeuverSegment("cruise", 30, 60)),
    )
    trq_b = np.full(50, 250.0)
    rec_b = FlightRecord(
        "fb", 10.0, ("TRQ",), [trq_b],
        (ManeuverSegment("taxiing", 0, 10, excluded=True),
         ManeuverSegment("cruise", 10, 50)),
    )
    preds = {"fa": trq_a + 4.0, "fb": trq_b + 10.0}
    return [rec_a, rec_b], preds


def test_score_model_hand_computed():
    records, preds = _constant_offset_case()
    report = score_model("m", preds, records)
    assert report.model_id == "m"
    fa = report.flight("fa")
    # mean over the whole flight: (100 + 300)/2 = 200; both maneuvers err 4.0
    assert fa.mean_trq == 200.0
    assert [m.mae for m in fa.maneuvers] == [4.0, 4.0]
    assert fa.rmae == pytest.approx(4.0 / 200.0)
    fb = report.flight("fb")
    # taxiing is excluded from the mean and from scoring
    assert fb.mean_trq == 250.0
    assert [m.label for m in fb.maneuvers] == ["cruise"]
    assert fb.rmae == pytest.approx(10.0 / 250.0)
    assert report.overall_rmae == pytest.approx(0.5 * (4.0 / 200.0 + 10.0 / 250.0))


def test_score_model_errors():
    records, preds = _constant_offset_case()
    with pytest.raises(MissingPrediction):
        score_model("m", {"fa": preds["fa"]}, records)
    bad = dict(preds)
    bad["fb"] = bad["fb"][:-1]
    with pytest.raises(LengthMismatch):
        score_model("m", bad, records)
    with pytest.raises(EmptyDataset):
        score_model("m", {}, [])
    report = score_model("m", preds, records)
    with pytest.raises(MissingPrediction):
        report.flight("nope")


def test_score_model_rejects_non_positive_flight_mean():
    # torque from -5 to -1 has mean -3: an error of 3 would score rMAE -1.0
    trq = np.linspace(-5.0, -1.0, 20)
    neg = FlightRecord("neg", 10.0, ("TRQ",), [trq])
    with pytest.raises(NonPositiveFlightMean) as info:
        score_model("m", {"neg": trq + 3.0}, [neg])
    assert info.value.exit_code == 2
    zero = FlightRecord("zero", 10.0, ("TRQ",), [np.zeros(4)])
    with pytest.raises(NonPositiveFlightMean):
        score_model("m", {"zero": np.ones(4)}, [zero])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_score_model_refuses_a_non_finite_prediction_inside_a_scored_maneuver(bad):
    segs = (ManeuverSegment("taxiing", 0, 20, excluded=True), ManeuverSegment("hover", 20, 60))
    rec = toy_record("fl07", segments=segs)
    pred = rec.values("TRQ") + 1.0
    pred[:20] = np.nan  # padding outside the scored maneuvers is allowed
    assert score_model("sindy2", {"fl07": pred}, [rec]).overall_rmae > 0
    pred[45] = bad
    with pytest.raises(ComputationError) as info:
        score_model("sindy2", {"fl07": pred}, [rec])
    assert info.value.exit_code == 4
    for name in ("'sindy2'", "'fl07'", "'hover'", "not finite"):
        assert name in str(info.value)


def test_score_model_homogeneity():
    # scaling every error by lambda scales every score by lambda
    records, preds = _constant_offset_case()
    lam = 2.5
    scaled = {
        fid: rec.values("TRQ") + lam * (preds[fid] - rec.values("TRQ"))
        for fid, rec in zip(("fa", "fb"), records)
    }
    base = score_model("m", preds, records)
    big = score_model("m", scaled, records)
    assert abs(big.overall_rmae - lam * base.overall_rmae) <= 1e-12
    for fid in ("fa", "fb"):
        assert abs(big.flight(fid).rmae - lam * base.flight(fid).rmae) <= 1e-12


def test_score_model_unannotated_flight_is_one_maneuver(record):
    rec = record.with_maneuvers(())
    pred = rec.values("TRQ") + 1.0
    report = score_model("m", {rec.flight_id: pred}, [rec])
    (fl,) = report.flights
    assert [m.label for m in fl.maneuvers] == ["flight"]
    assert fl.rmae == pytest.approx(1.0 / fl.mean_trq)


# --- compare_models -----------------------------------------------------------------


def test_compare_models_aligns_by_flight_id():
    records, preds = _constant_offset_case()
    rep1 = score_model("m1", preds, records)
    rep2 = score_model("m2", preds, list(reversed(records)))  # permuted flights
    table = compare_models([rep1, rep2])
    assert table.model_ids == ("m1", "m2")
    assert table.flight_ids == ("fa", "fb")
    assert table.per_flight.shape == (2, 2)
    # the permuted report aligns back by id, so columns agree exactly
    np.testing.assert_array_equal(table.per_flight[:, 0], table.per_flight[:, 1])
    assert table.overall[0] == rep1.overall_rmae
    assert table.overall[1] == rep2.overall_rmae


def test_compare_models_flight_set_mismatch():
    records, preds = _constant_offset_case()
    rep1 = score_model("m1", preds, records)
    rep2 = score_model("m2", {"fa": preds["fa"]}, records[:1])
    with pytest.raises(FlightSetMismatch):
        compare_models([rep1, rep2])
    with pytest.raises(EmptyDataset):
        compare_models([])


# --- persistence ----------------------------------------------------------------------


def test_report_save_load_round_trip(tmp_path):
    records, preds = _constant_offset_case()
    report = replace(score_model("sindy1", preds, records), fingerprint="ab12")
    p = tmp_path / "report.txt"
    save_report(report, p)
    back = load_report(p)
    assert back == report  # repr round-trip makes every float exact


def test_load_report_rejects_bad_files(tmp_path):
    with pytest.raises(IoError):
        load_report(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("hello\n", encoding="utf-8")
    with pytest.raises(IoError, match="not a tssid eval report"):
        load_report(bad)
    records, preds = _constant_offset_case()
    p = tmp_path / "report.txt"
    save_report(score_model("m", preds, records), p)
    mangled = p.read_text(encoding="utf-8").replace("mean_trq=200.0",
                                                    "mean_trq=soup")
    p.write_text(mangled, encoding="utf-8")
    with pytest.raises(IoError, match="malformed"):
        load_report(p)


def test_comparison_csv_parses_back(tmp_path):
    records, preds = _constant_offset_case()
    rep1 = score_model("m1", preds, records)
    rep2 = score_model("m2", preds, records)
    table = compare_models([rep1, rep2])
    p = tmp_path / "comparison.csv"
    write_comparison_csv(table, p)
    with open(p, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["flight_id", "m1", "m2"]
    assert [r[0] for r in rows[1:]] == ["fa", "fb", "overall"]
    for r, fid in enumerate(table.flight_ids):
        for c in range(2):
            assert float(rows[1 + r][1 + c]) == table.per_flight[r, c]
    assert [float(v) for v in rows[-1][1:]] == list(table.overall)


def test_overlay_csv(tmp_path):
    t = np.arange(4) * 0.5
    a = np.array([1.0, 2.0, 3.0, 4.0])
    pr = a + 0.25
    p = tmp_path / "overlay.csv"
    write_overlay_csv(p, t, a, pr)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "time_s,actual,predicted"
    assert len(lines) == 5
    cells = lines[2].split(",")
    assert [float(x) for x in cells] == [0.5, 2.0, 2.25]
    with pytest.raises(LengthMismatch):
        write_overlay_csv(p, t, a, pr[:-1])


# --- score dataclasses -----------------------------------------------------------------


def test_score_properties():
    m1 = ManeuverScore("hover", 0, 10, 2.0, 0.02)
    m2 = ManeuverScore("cruise", 10, 30, 4.0, 0.04)
    fl = FlightScore("f", 100.0, (m1, m2))
    assert fl.rmae == pytest.approx(0.03)
    rep = EvalReport("m", (fl,))
    assert rep.overall_rmae == pytest.approx(0.03)
