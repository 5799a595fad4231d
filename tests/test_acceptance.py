"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Every criterion runs against artifacts produced by the real CLI over the
shipped presets (or against kernel-level oracles with closed-form answers)
and prints one line:

    [PASS] acceptance criterion N: <key numbers>

Tolerances are pinned in the assertions below; the printed numbers show the
margin actually achieved.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_run, run_cli
from tssid import cli as tssid_cli
from tssid import kernels
from tssid.config import load_config
from tssid.errors import TssidError
from tssid.evaluation import score_model
from tssid.flightdata import (
    FlightRecord,
    ManeuverSegment,
    apply_minmax,
    correlation_matrix,
    fit_minmax,
    invert_minmax,
)
from tssid.manifest import load_manifest
from tssid.neural import (
    LSTMConfig,
    MLPConfig,
    init_lstm_params,
    init_mlp_params,
    lstm_backward,
    lstm_forward,
    mlp_backward,
    mlp_forward,
)
from tssid.sindy import differentiate, load_model, reduction_residual
from tssid.synthgen import (
    GroundTruthParams,
    ManeuverProfile,
    SyntheticFlightSpec,
    generate_flight,
)

# --- reporting helper ---------------------------------------------------------------


def _announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _overall_row(comparison_csv: Path) -> dict[str, float]:
    with open(comparison_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    overall = next(r for r in rows if r[0] == "overall")
    return {header[i]: float(overall[i]) for i in range(1, len(header))}


# --- preset pipelines (module-scoped, each runs once) ----------------------------------


@pytest.fixture(scope="module")
def recovery_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("recovery")
    cfg = make_run(tmp, "recovery")
    t0 = time.perf_counter()
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("fit-sindy", "--config", cfg, "--order", 1) == 0
    return {"cfg": cfg, "out": tmp / "out", "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def cascade_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cascade")
    cfg = make_run(tmp, "cascade")
    t0 = time.perf_counter()
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("fit-sindy", "--config", cfg) == 0
    assert run_cli("evaluate", "--config", cfg,
                   "--model", "sindy1", "--model", "sindy2") == 0
    return {"cfg": cfg, "out": tmp / "out", "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def miso_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("miso")
    cfg = make_run(tmp, "miso")
    t0 = time.perf_counter()
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("train", "--config", cfg) == 0
    assert run_cli("evaluate", "--config", cfg,
                   "--model", "ffnn", "--model", "lstm") == 0
    return {"cfg": cfg, "out": tmp / "out", "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def shifted_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("shifted")
    cfg = make_run(tmp, "shifted")
    t0 = time.perf_counter()
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("retrain-experiment", "--config", cfg) == 0
    return {"cfg": cfg, "out": tmp / "out", "elapsed": time.perf_counter() - t0}


# --- criterion 1: first-order structure recovery ----------------------------------------


def test_criterion_1_first_order_recovery(recovery_run, capsys):
    """Noise-free first-order corpus: exact support {1, TRQ, WF} and
    coefficients within 1e-3 relative, in under 60 s."""
    model = load_model(recovery_run["out"] / "sindy1_model.txt")
    active = model.active_terms(0)
    truth = {"1": -10.0, "TRQ": -0.5, "WF": 0.2}
    support_ok = set(active) == set(truth)
    rels = {k: abs(active.get(k, 0.0) / v - 1.0) for k, v in truth.items()}
    worst = max(rels.values())
    elapsed = recovery_run["elapsed"]
    ok = support_ok and worst <= 1e-3 and elapsed < 60.0
    _announce(capsys, 1, ok,
              f"support {sorted(active)} (exact={support_ok}), "
              f"max coefficient rel err {worst:.2e} (tol 1e-3), "
              f"{elapsed:.1f} s (limit 60 s)")


# --- criterion 2: second order halves the error on cascade data --------------------------


def test_criterion_2_second_order_beats_first(cascade_run, capsys):
    """On two-time-constant cascade data, the second-order fit's overall
    test rMAE is at most half the first-order fit's, in under 5 min."""
    overall = _overall_row(cascade_run["out"] / "comparison.csv")
    r1, r2 = overall["sindy1"], overall["sindy2"]
    elapsed = cascade_run["elapsed"]
    ok = r2 <= 0.5 * r1 and elapsed < 300.0
    ratio = r2 / r1 if r1 > 0 else float("inf")
    _announce(capsys, 2, ok,
              f"test rMAE sindy2 {r2:.6f} vs sindy1 {r1:.6f} "
              f"(ratio {ratio:.4f}, need <= 0.5), {elapsed:.1f} s (limit 300 s)")


# --- criterion 3: reduction identity of the fitted second-order model --------------------


def test_criterion_3_reduction_identity(cascade_run, capsys):
    """Integrating the fitted linear second equation once must reproduce the
    simulated first derivative: first-integral residual <= 1e-6 on every
    test maneuver."""
    cfg = load_config(cascade_run["cfg"])
    model = load_model(cascade_run["out"] / "sindy2_model.txt")
    split = tssid_cli._split_of(cfg)
    records, _ = tssid_cli._load_records(cfg, split.test_ids)
    method = cfg.sindy_config(2).derivative_method
    worst = 0.0
    n_maneuvers = 0
    for rec in records:
        if rec.flight_id not in split.test_ids:
            continue
        dt = rec.dt
        for seg in rec.scoring_segments():
            x = rec.values("TRQ")[seg.start_index:seg.end_index]
            u = rec.values("WF")[seg.start_index:seg.end_index]
            xdot0 = differentiate(x, dt, method)[0]
            res = reduction_residual(model, u, dt, float(x[0]), float(xdot0))
            worst = max(worst, float(np.max(np.abs(res))))
            n_maneuvers += 1
    ok = n_maneuvers > 0 and worst <= 1e-6
    _announce(capsys, 3, ok,
              f"max |first-integral residual| {worst:.2e} over "
              f"{n_maneuvers} test maneuvers (tol 1e-6)")


# --- criterion 4: analytic gradients vs central finite differences -----------------------


def _mlp_forward_independent(config: MLPConfig, params: np.ndarray,
                             X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Straight-line reimplementation of the MLP from the parameter layout.

    Kept independent of the kernels so it doubles as a layout check; also
    returns every hidden pre-activation for the ReLU-kink guard.
    """
    sizes = [config.input_dim, *config.hidden_layers, config.output_dim]
    a = X
    o = 0
    preacts = []
    n_layers = len(sizes) - 1
    for l in range(n_layers):
        fi, fo = sizes[l], sizes[l + 1]
        W = params[o:o + fi * fo].reshape(fi, fo)
        o += fi * fo
        b = params[o:o + fo]
        o += fo
        z = a @ W + b
        if l < n_layers - 1:
            preacts.append(z)
            a = np.maximum(z, 0.0)
        else:
            a = z
    return a, preacts


def _max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(fd), 1e-6)
    return float(np.max(np.abs(analytic - fd) / denom))


def _fd_gradient(loss_fn, params: np.ndarray, h: float) -> np.ndarray:
    fd = np.empty_like(params)
    for j in range(params.shape[0]):
        pp = params.copy()
        pm = params.copy()
        pp[j] += h
        pm[j] -= h
        fd[j] = (loss_fn(pp) - loss_fn(pm)) / (2.0 * h)
    return fd


def test_criterion_4_gradient_check(capsys):
    """Analytic MLP and LSTM gradients match central finite differences at
    h = 1e-5 within 1e-5 max relative error, over at least 20 random
    instances each, in under 2 min.

    Targets sit 0.01 from the forward output so the loss is small and the
    finite-difference rounding floor stays far below the tolerance.  MLP
    instances whose hidden pre-activations come within 1e-3 of a ReLU kink
    are skipped (the loss is not differentiable there), deterministically
    moving to the next seed.
    """
    t0 = time.perf_counter()
    h = 1e-5
    n_wanted = 24

    # feedforward instances
    mlp_shapes = [(3, (6,), 1), (4, (8, 5), 1), (2, (5, 5, 4), 1)]
    mlp_errs = []
    layout_gap = 0.0
    attempt = 0
    while len(mlp_errs) < n_wanted and attempt < 200:
        ind, hidden, outd = mlp_shapes[attempt % 3]
        config = MLPConfig(ind, hidden, outd)
        rng = np.random.default_rng(9100 + attempt)
        params = init_mlp_params(config, seed=9200 + attempt)
        X = rng.normal(size=(8, ind))
        out_ind, preacts = _mlp_forward_independent(config, params, X)
        layout_gap = max(layout_gap, float(np.max(np.abs(
            out_ind - mlp_forward(config, params, X)))))
        attempt += 1
        if min(float(np.min(np.abs(z))) for z in preacts) < 1e-3:
            continue  # too near a ReLU kink for finite differences
        Y = out_ind + 0.01 * rng.normal(size=out_ind.shape)
        _, grad = mlp_backward(config, params, X, Y)
        fd = _fd_gradient(lambda p: mlp_backward(config, p, X, Y)[0], params, h)
        mlp_errs.append(_max_rel_err(grad, fd))

    # recurrent instances (smooth everywhere; every seed counts)
    lstm_shapes = [(2, 3, 1, 4, 2), (3, 4, 2, 5, 2), (2, 3, 2, 6, 3)]
    lstm_errs = []
    for i in range(n_wanted):
        ind, hid, layers, lookback, batch = lstm_shapes[i % 3]
        config = LSTMConfig(ind, hid, layers, lookback)
        rng = np.random.default_rng(9500 + i)
        params = init_lstm_params(config, seed=9600 + i)
        X = rng.normal(size=(batch, lookback, ind))
        Y = lstm_forward(config, params, X) + 0.01 * rng.normal(
            size=(batch, lookback))
        _, grad = lstm_backward(config, params, X, Y)
        fd = _fd_gradient(lambda p: lstm_backward(config, p, X, Y)[0], params, h)
        lstm_errs.append(_max_rel_err(grad, fd))

    elapsed = time.perf_counter() - t0
    worst_mlp = max(mlp_errs) if mlp_errs else float("inf")
    worst_lstm = max(lstm_errs) if lstm_errs else float("inf")
    ok = (len(mlp_errs) >= 20 and len(lstm_errs) >= 20
          and layout_gap <= 1e-12
          and worst_mlp <= 1e-5 and worst_lstm <= 1e-5
          and elapsed < 120.0)
    _announce(capsys, 4, ok,
              f"max rel err mlp {worst_mlp:.2e} ({len(mlp_errs)} instances), "
              f"lstm {worst_lstm:.2e} ({len(lstm_errs)} instances), "
              f"tol 1e-5 at h=1e-5, {elapsed:.1f} s (limit 120 s)")


# --- criterion 5: neural test error on the multi-input corpus ----------------------------


def test_criterion_5_neural_accuracy(miso_run, capsys):
    """Both trained networks reach <= 10% overall test rMAE and the
    recurrent model is at least as good as the feedforward one, under
    15 min end to end."""
    overall = _overall_row(miso_run["out"] / "comparison.csv")
    ffnn, lstm = overall["ffnn"], overall["lstm"]
    elapsed = miso_run["elapsed"]
    ok = ffnn <= 0.10 and lstm <= 0.10 and lstm <= ffnn and elapsed < 900.0
    _announce(capsys, 5, ok,
              f"test rMAE ffnn {ffnn * 100:.2f}%, lstm {lstm * 100:.2f}% "
              f"(both <= 10%, lstm <= ffnn), {elapsed:.1f} s (limit 900 s)")


# --- criterion 6: retraining after augmentation helps ------------------------------------


def test_criterion_6_retrain_improves(shifted_run, capsys):
    """After augmenting training data with two flights from the shifted
    regime, the retrained models score no worse than their baselines on
    the held-back shifted flights."""
    text = (shifted_run["out"] / "retrain" / "retrain_report.txt").read_text(
        encoding="utf-8")
    scores: dict[str, dict[str, float]] = {}
    current = None
    for ln in text.splitlines():
        if ln.startswith("model: "):
            current = ln.split(": ", 1)[1]
            scores[current] = {}
        elif ln.startswith("baseline_rmae: "):
            scores[current]["baseline"] = float(ln.split(": ", 1)[1])
        elif ln.startswith("retrained_rmae: "):
            scores[current]["retrained"] = float(ln.split(": ", 1)[1])
    ok = set(scores) == {"ffnn", "lstm"} and all(
        s["retrained"] <= s["baseline"] for s in scores.values())
    detail = ", ".join(
        f"{k} {v['baseline'] * 100:.2f}% -> {v['retrained'] * 100:.2f}%"
        for k, v in sorted(scores.items()))
    _announce(capsys, 6, ok, f"rMAE {detail} (retrained <= baseline)")


# --- criterion 7: kernel-level oracles ----------------------------------------------------


def test_criterion_7_kernel_oracles(capsys):
    """Closed-form oracles: RK4 on dx/dt = -x + u, the central-difference
    stencil on sin, the min-max scaler round trip, and Pearson correlation
    against a two-pass reference."""
    # RK4: dx/dt = -x + u with u = 1, x0 = 0  =>  x(t) = 1 - exp(-t)
    dt, n = 0.01, 501
    u = np.ones(n)
    x = kernels.rk4_first_order(0.0, 1.0, 1.0, u, dt, 0.0)
    t = np.arange(n) * dt
    rk4_err = float(np.max(np.abs(x - (1.0 - np.exp(-t)))))

    # central difference of sin over the interior of the stencil
    tt = np.arange(0.0, 5.0, 0.01)
    d = differentiate(np.sin(tt), 0.01, "central")
    diff_err = float(np.max(np.abs(d[1:-1] - np.cos(tt)[1:-1])))

    # min-max scaling round trip
    rng = np.random.default_rng(77)
    vals = rng.uniform(-50.0, 150.0, 400)
    rec = FlightRecord("f", 10.0, ("TRQ",), [vals])
    params = fit_minmax([rec])
    back = invert_minmax(params, apply_minmax(params, rec))
    scale_err = float(np.max(np.abs(back.values("TRQ") - vals)))

    # Pearson correlation vs an independent two-pass computation
    a = rng.normal(size=500)
    b = 0.6 * a + rng.normal(size=500)
    rec2 = FlightRecord("g", 10.0, ("TRQ", "WF"), (a, b))
    corr = correlation_matrix([rec2]).corr("TRQ", "WF")
    ma, mb = a.mean(), b.mean()
    two_pass = float(np.sum((a - ma) * (b - mb))
                     / np.sqrt(np.sum((a - ma) ** 2) * np.sum((b - mb) ** 2)))
    corr_err = abs(corr - two_pass)

    ok = (rk4_err <= 1e-6 and diff_err <= 2e-5
          and scale_err <= 1e-12 and corr_err <= 1e-12)
    _announce(capsys, 7, ok,
              f"rk4 {rk4_err:.2e} (tol 1e-6), central-diff {diff_err:.2e} "
              f"(tol 2e-5), scaler round-trip {scale_err:.2e} (tol 1e-12), "
              f"pearson {corr_err:.2e} (tol 1e-12)")


# --- criterion 8: hierarchical scoring equals the flat computation ------------------------


def test_criterion_8_hierarchical_vs_flat(capsys):
    """Over a 16-flight corpus the maneuver->flight->overall aggregation
    equals a flat brute-force double loop to 1e-12, and scaling every
    error by a random factor scales every score by that factor."""
    base = GroundTruthParams(order="first", a=10.0, b=0.5, c=0.2, seed=314)
    records = []
    preds = {}
    noise_rng = np.random.default_rng(2718)
    for k in range(16):
        profiles = (
            ManeuverProfile("hold", 4.0 + (k % 3), "hover", level=260.0 + 5 * k),
            ManeuverProfile("ramp", 6.0, "climb", start=260.0 + 5 * k,
                            end=380.0 - 3 * k),
            ManeuverProfile("hold", 3.0, "cruise", level=380.0 - 3 * k),
        )
        spec = SyntheticFlightSpec(f"fl{k:02d}", 20.0, profiles, base)
        rec = generate_flight(spec)
        if k % 4 == 0:  # some flights carry an excluded segment
            segs = list(rec.maneuvers)
            segs[0] = ManeuverSegment(segs[0].label, segs[0].start_index,
                                      segs[0].end_index, excluded=True)
            rec = rec.with_maneuvers(segs)
        records.append(rec)
        preds[rec.flight_id] = rec.values("TRQ") + noise_rng.normal(
            0.0, 2.0, rec.n_samples)

    report = score_model("m", preds, records)

    # flat brute force, plain Python, no shared code with the package
    flat_flights = []
    for rec in records:
        actual = rec.values("TRQ")
        included = [s for s in rec.maneuvers if not s.excluded]
        pooled = np.concatenate([actual[s.start_index:s.end_index]
                                 for s in included])
        mean_trq = pooled.sum() / pooled.size
        m_scores = []
        for s in included:
            diff = preds[rec.flight_id][s.start_index:s.end_index] \
                - actual[s.start_index:s.end_index]
            m_scores.append(float(np.abs(diff).mean()) / mean_trq)
        flat_flights.append(sum(m_scores) / len(m_scores))
    flat_overall = sum(flat_flights) / len(flat_flights)

    agree = abs(report.overall_rmae - flat_overall)
    per_flight = max(abs(report.flights[i].rmae - flat_flights[i])
                     for i in range(16))

    # homogeneity: errors scaled by lambda scale every score by lambda
    lam_rng = np.random.default_rng(1618)
    homo = 0.0
    for _ in range(100):
        lam = float(lam_rng.uniform(0.05, 20.0))
        scaled = {fid: rec.values("TRQ") + lam * (preds[fid] - rec.values("TRQ"))
                  for fid, rec in zip(preds, records)}
        rep = score_model("m", scaled, records)
        homo = max(homo, abs(rep.overall_rmae - lam * report.overall_rmae)
                   / (lam * report.overall_rmae))

    ok = agree <= 1e-12 and per_flight <= 1e-12 and homo <= 1e-12
    _announce(capsys, 8, ok,
              f"overall gap {agree:.2e}, per-flight gap {per_flight:.2e}, "
              f"homogeneity over 100 scalings {homo:.2e} (all tol 1e-12)")


# --- criterion 9: byte-identical re-runs ---------------------------------------------------


_PIPELINE = ("generate", "ingest", "correlate", "split", "fit-sindy", "train",
             "simulate", "evaluate", "retrain-experiment", "report")


def _tree_state(root: Path) -> dict[str, tuple[str, str]]:
    state = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        rel = p.relative_to(root).as_posix()
        if p.name.startswith("manifest_") and p.suffix == ".json":
            payload = load_manifest(p).stable_payload()
            state[rel] = ("manifest", json.dumps(payload, sort_keys=True))
        else:
            state[rel] = ("blob", hashlib.sha256(p.read_bytes()).hexdigest())
    return state


def test_criterion_9_determinism(tmp_path_factory, capsys):
    """Re-running every command with the same config and seed reproduces
    every output byte for byte (manifests compared minus wall-clock
    timings, which are measurements, not results)."""
    tmp = tmp_path_factory.mktemp("determinism")
    cfg = make_run(tmp, "smoke")
    for command in _PIPELINE:
        assert run_cli(command, "--config", cfg) == 0, f"{command} failed (run 1)"
    first = {**_tree_state(tmp / "data"), **_tree_state(tmp / "out")}
    for command in _PIPELINE:
        assert run_cli(command, "--config", cfg) == 0, f"{command} failed (run 2)"
    second = {**_tree_state(tmp / "data"), **_tree_state(tmp / "out")}

    missing = sorted(set(first) ^ set(second))
    changed = sorted(k for k in first if k in second and first[k] != second[k])
    ok = not missing and not changed
    n_files = len(first)
    detail = (f"{n_files} files identical across re-runs"
              if ok else f"differing files: {changed[:5]}, set diff: {missing[:5]}")
    _announce(capsys, 9, ok, detail)
