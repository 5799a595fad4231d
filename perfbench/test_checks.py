"""Hand-computed cases for the benchmark's own checkers and span arithmetic.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import checks
import run
import tracer


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _flight_csv(trq):
    lines = ["time_s,TRQ,WF"] + [f"{k / 10.0!r},{v!r},1.0" for k, v in enumerate(trq)]
    return "\n".join(lines) + "\n"


def _overlay_csv(actual, predicted):
    lines = ["time_s,actual,predicted"] + [
        f"{k * 0.1!r},{a!r},{p!r}" for k, (a, p) in enumerate(zip(actual, predicted))]
    return "\n".join(lines) + "\n"


@pytest.fixture
def run_dir(tmp_path):
    """Two flights; F1 opens with an excluded taxi segment.

    F1: TRQ 10 10 | 20 20 | 30 30, taxi excluded, mean TRQ = 100/4 = 25.
        hover predicted 22 18 -> MAE 2 -> rMAE 0.08
        climb predicted 30 36 -> MAE 3 -> rMAE 0.12;  flight rMAE 0.10
    F2: TRQ 40 40 40 40, one segment, mean 40.
        cruise predicted 44 36 44 36 -> MAE 4 -> rMAE 0.10
    Overall: (0.10 + 0.10) / 2 = 0.10.
    """
    data, out = tmp_path / "data", tmp_path / "out"
    _write(data / "flights" / "F1.csv", _flight_csv([10.0, 10.0, 20.0, 20.0, 30.0, 30.0]))
    _write(data / "flights" / "F2.csv", _flight_csv([40.0, 40.0, 40.0, 40.0]))
    _write(data / "maneuvers.csv",
           "flight_id,label,start_index,end_index,excluded\n"
           "F1,taxiing,0,2,1\nF1,hover,2,4,0\nF1,climb,4,6,0\nF2,cruise,0,4,0\n")
    ov = out / "overlays" / "m"
    _write(ov / "F1__00_hover.csv", _overlay_csv([20.0, 20.0], [22.0, 18.0]))
    _write(ov / "F1__01_climb.csv", _overlay_csv([30.0, 30.0], [30.0, 36.0]))
    _write(ov / "F2__00_cruise.csv", _overlay_csv([40.0] * 4, [44.0, 36.0, 44.0, 36.0]))
    return data, out


EVAL_REPORT = """tssid eval report v1
model: m
overall_rmae: 0.1
flight: F1\tmean_trq=25.0\trmae=0.1
  maneuver: hover\t[2,4)\tmae=2.0\trmae=0.08
  maneuver: climb\t[4,6)\tmae=3.0\trmae=0.12
flight: F2\tmean_trq=40.0\trmae=0.1
  maneuver: cruise\t[0,4)\tmae=4.0\trmae=0.1
"""


def test_recompute_scores_by_hand(run_dir):
    data, out = run_dir
    scores, errors = checks.recompute_scores(out, data, "m", ["F1", "F2"])
    assert errors == []
    assert scores["mean_trq"] == {"F1": 25.0, "F2": 40.0}
    assert scores["maes"] == {"F1": [2.0, 3.0], "F2": [4.0]}
    assert scores["flights"]["F1"] == pytest.approx(0.10, rel=1e-15)
    assert scores["flights"]["F2"] == pytest.approx(0.10, rel=1e-15)
    assert scores["overall"] == pytest.approx(0.10, rel=1e-15)


def test_eval_report_matches_and_mismatches(run_dir, tmp_path):
    data, out = run_dir
    scores, _ = checks.recompute_scores(out, data, "m", ["F1", "F2"])
    path = tmp_path / "eval_m.txt"
    path.write_text(EVAL_REPORT)
    assert checks.check_eval_report(checks.parse_eval_report(path), scores, "m") == []

    path.write_text(EVAL_REPORT.replace("rmae=0.12", "rmae=0.1201"))
    errs = checks.check_eval_report(checks.parse_eval_report(path), scores, "m")
    assert len(errs) == 1 and "climb" in errs[0]

    path.write_text(EVAL_REPORT.replace("overall_rmae: 0.1", "overall_rmae: 0.11"))
    assert checks.check_eval_report(checks.parse_eval_report(path), scores, "m")


def test_excluded_label_changes_the_score(run_dir):
    # excluding "climb" by label leaves only hover in F1: mean TRQ 20, rMAE 0.1
    data, out = run_dir
    scores, _ = checks.recompute_scores(out, data, "m", ["F1"], exclude_labels=["climb"])
    assert scores["mean_trq"]["F1"] == 20.0
    assert scores["flights"]["F1"] == pytest.approx(0.1, rel=1e-15)


def test_overlay_with_wrong_actual_is_flagged(run_dir):
    data, out = run_dir
    _write(out / "overlays" / "m" / "F2__00_cruise.csv",
           _overlay_csv([40.0, 40.0, 41.0, 40.0], [44.0, 36.0, 44.0, 36.0]))
    _, errors = checks.recompute_scores(out, data, "m", ["F1", "F2"])
    assert len(errors) == 1 and "F2" in errors[0]


def test_printed_and_tabulated_percentages(run_dir):
    data, out = run_dir
    scores = {"m": checks.recompute_scores(out, data, "m", ["F1", "F2"])[0]}
    assert checks.check_printed_percent("m: overall rMAE 10.00%\n", scores) == []
    assert checks.check_printed_percent("m: overall rMAE 10.01%\n", scores)
    table = "flight  m\nF1  10.00%\nF2  10.00%\noverall  10.00%\n"
    assert checks.check_report_table(table, scores) == []
    assert checks.check_report_table(table.replace("F2  10.00%", "F2  9.99%"), scores)
    assert checks.check_report_table(table.replace("F2  10.00%\n", ""), scores)


def test_constant_predictor_by_hand(run_dir):
    # train F2: level 40.  F1 vs 40: hover |20-40| = 20 -> 0.8, climb 10 -> 0.4
    data, _ = run_dir
    assert checks.constant_predictor_rmae(data, ["F2"], ["F1"]) == pytest.approx(0.6)


def test_plant_coefficients_closed_form():
    assert checks.first_order_terms(10.0, 0.5, 0.2) == {"1": -10.0, "TRQ": -0.5, "WF": 0.2}
    terms = checks.cascade_terms(0.4, 0.6, 0.15)
    assert terms["TRQ"] == pytest.approx(-1.0 / 0.09)
    assert terms["TRQ_dot"] == pytest.approx(-0.75 / 0.09)
    assert terms["WF"] == pytest.approx(0.4 / 0.09)
    assert round(terms["TRQ"], 3) == -11.111
    assert round(terms["TRQ_dot"], 3) == -8.333
    assert round(terms["WF"], 3) == 4.444


def test_check_terms_tolerance_and_term_set():
    want = checks.cascade_terms(0.4, 0.6, 0.15)
    # the fit quoted for the cascade preset: TRQ and WF are 0.12 % off,
    # TRQ_dot 0.064 %
    fit = {"TRQ": -11.098, "TRQ_dot": -8.328, "WF": 4.439}
    assert checks.check_terms(fit, want, 0.01, "eq") == []
    errs = checks.check_terms(fit, want, 1e-3, "eq")
    assert len(errs) == 2 and "TRQ_dot" not in " ".join(errs)
    assert checks.check_terms({**fit, "WF^2": 1e-6}, want, 0.01, "eq")
    assert checks.check_terms({"TRQ": -11.1, "WF": 4.44}, want, 0.01, "eq")


def test_parse_model(tmp_path):
    path = tmp_path / "sindy2_model.txt"
    path.write_text("tssid sparse model v1\norder: 2\nresidual_rmse: 0.0,0.1\n"
                    "equation: TRQ\nTRQ_dot\t1.0\n"
                    "equation: TRQ_dot\nTRQ\t-11.09\nTRQ_dot\t-8.32\nWF\t4.43\n")
    assert checks.parse_model(path) == {
        "TRQ": {"TRQ_dot": 1.0},
        "TRQ_dot": {"TRQ": -11.09, "TRQ_dot": -8.32, "WF": 4.43},
    }


def test_self_times_by_hand():
    spans = [
        ["root", 0.0, 10.0, -1, None, None],
        ["a", 1.0, 3.0, 0, None, None],   # covered 1-3
        ["b", 2.0, 5.0, 0, None, None],   # overlaps a: union 1-5
        ["c", 4.5, 4.75, 2, None, None],  # grandchild: not subtracted from root
        ["d", 9.0, 12.0, 0, None, None],  # clamped to the root's end: 9-10
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 0.25)
    assert selfs[3] == pytest.approx(0.25)
    assert selfs[4] == pytest.approx(3.0)


def test_layer_metrics_sums_ratios_and_self_time():
    stage1 = {"import_s": 0.2, "spans": [
        ["cli.cmd_ingest", 0.0, 1.0, -1, None, None],
        ["flightdata.ingest_csv", 0.1, 0.3, 0, 100, "F1.csv"],
        ["flightdata.ingest_csv", 0.3, 0.5, 0, 100, "F2.csv"],
    ]}
    stage2 = {"import_s": 0.4, "spans": [
        ["cli.cmd_train", 0.0, 5.0, -1, None, None],
        ["flightdata.ingest_csv", 0.0, 0.2, 0, 100, "F1.csv"],
        ["neural.train", 1.0, 4.0, 0, 10, "ffnn"],
        ["kernels.mlp_value_and_grad", 1.0, 2.0, 2, None, None],
        ["kernels.mlp_value_and_grad", 2.0, 3.5, 2, None, None],
    ]}
    m = tracer.layer_metrics([stage1, stage2])
    assert m["cli.import_s"] == pytest.approx(0.3)
    assert m["cli.ingest_s"] == pytest.approx(1.0)
    assert m["cli.train_s"] == pytest.approx(5.0)
    assert m["flightdata.ingest_calls"] == 3
    assert m["flightdata.ingest_calls_per_flight"] == pytest.approx(1.5)
    assert m["flightdata.ingest_rows_per_s"] == pytest.approx(300 / 0.6)
    assert m["neural.train_s"] == pytest.approx(3.0)
    assert m["neural.ffnn_epoch_s"] == pytest.approx(0.3)
    assert m["neural.lstm_epoch_s"] == 0.0
    assert m["neural.train_self_s"] == pytest.approx(0.5)
    assert m["kernels.mlp_value_and_grad_calls"] == 2
    assert m["kernels.mlp_value_and_grad_us"] == pytest.approx(1.25e6)
    assert m["sindy.simulate_calls_per_segment"] == 0.0
    assert all(math.isfinite(v) for v in m.values())


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        **run.LAYER_UNITS, "trace.overhead_s": "s"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
