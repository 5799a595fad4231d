"""``tssid`` command line interface.

Pipeline commands, in the order they are normally run::

    generate            synthesize the flight corpus into data_dir
    ingest              read the corpus back and summarize it
    correlate           Pearson correlation matrix of the channels
    split               assign flights to train/val/test
    fit-sindy           fit sparse ODE models (--order 1|2, default both)
    train               train neural predictors (--model ffnn|lstm, default both)
    simulate            integrate fitted ODE models over the test flights
    evaluate            score models on the test flights (--model ..., repeatable)
    retrain-experiment  distribution-shift retraining study
    report              render a comparison table from saved evaluations

Every command takes ``--config <path>`` plus optional ``--seed N`` and
``--out <dir>`` overrides, writes its artifacts and a
``manifest_<command>.json`` receipt listing them, and exits 0.  Exit codes
are stable for scripting: 2 for configuration problems, 3 for I/O
problems, 4 for computation failures.  Identical config and seed produce
byte-identical artifacts on re-run (manifest timing entries aside).

Set ``TSSID_LOG=INFO`` (or ``DEBUG``) for progress logging; the variable
only changes verbosity, never results.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .config import MODEL_IDS, RunConfig, load_config
from .errors import (
    ConfigError,
    FingerprintMismatch,
    IoError,
    MissingArtifact,
    TssidError,
)
from .evaluation import (
    EvalReport,
    compare_models,
    load_report,
    save_report,
    score_model,
    write_comparison_csv,
    write_overlay_csv,
)
from .flightdata import (
    DEFAULT_FEATURES,
    DatasetSplit,
    FlightRecord,
    correlation_matrix,
    filter_maneuvers,
    fit_minmax,
    ingest_csv,
    load_maneuvers,
    emit_csv,
    save_maneuvers,
    scale_series,
    select_features,
    split_dataset,
    write_float_csv,
)
from .manifest import RunManifest, write_manifest
from .neural import (
    TabularData,
    TrainedNet,
    WindowedData,
    load_net,
    make_windows,
    predict_series,
    save_net,
    train,
)
from .seeding import derive_seed
from .sindy import (
    SparseModel,
    differentiate,
    fit_first_order,
    fit_second_order,
    format_equations,
    load_model,
    save_model,
    simulate_segments,
)
from .synthgen import generate_flight

log = logging.getLogger("tssid")

NET_KINDS = ("ffnn", "lstm")


# --- small helpers -----------------------------------------------------------

def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _relpaths(base: Path, paths: Sequence[Path]) -> tuple[str, ...]:
    return tuple(sorted(p.relative_to(base).as_posix() for p in paths))


def _finish(cfg: RunConfig, command: str, base_dir: Path, outputs: Sequence[Path],
            timings: dict[str, float], extra: dict | None = None) -> Path:
    manifest = RunManifest(
        command=command,
        config_fingerprint=cfg.fingerprint,
        seed=cfg.seed,
        outputs=_relpaths(base_dir, outputs),
        timings=timings,
        extra=extra or {},
    )
    return write_manifest(base_dir, manifest)


def _corpus_cfg(cfg: RunConfig):
    if cfg.corpus is None:
        raise ConfigError("this command needs a 'corpus' section in the config")
    return cfg.corpus


def _load_records(cfg: RunConfig, ids: Sequence[str]) -> list[FlightRecord]:
    """Ingest the listed corpus flights from data_dir, with maneuver annotations."""
    corpus = _corpus_cfg(cfg)
    flights_dir = cfg.data_dir / "flights"
    man_path = cfg.data_dir / "maneuvers.csv"
    if not flights_dir.is_dir():
        raise IoError(f"no corpus at {flights_dir}; run `tssid generate` first")
    segments = load_maneuvers(man_path) if man_path.exists() else {}
    records = []
    for fid in ids:
        path = flights_dir / f"{fid}.csv"
        if not path.exists():
            raise IoError(f"missing flight file {path}; run `tssid generate` first")
        rec = ingest_csv(path, corpus.sample_rate_hz, flight_id=fid)
        if fid in segments:
            rec = rec.with_maneuvers(segments[fid])
        rec = filter_maneuvers(rec, cfg.exclude_labels)
        records.append(rec)
    return records


def _split_of(cfg: RunConfig) -> DatasetSplit:
    """The train/val/test split of the corpus flight ids; reads no flight."""
    ids = list(_corpus_cfg(cfg).flight_ids)
    if cfg.split_explicit is not None:
        return split_dataset(ids, explicit=cfg.split_explicit)
    fractions = cfg.split_fractions or (0.8, 0.1, 0.1)
    return split_dataset(ids, fractions=fractions, seed=derive_seed(cfg.seed, "split"))


def _resolve_features(cfg: RunConfig, records: Sequence[FlightRecord]) -> tuple[str, ...]:
    feats = cfg.features
    if feats.inputs:
        return feats.inputs
    rules = feats.rules
    if rules.exclude or rules.min_abs_corr is not None or rules.max_abs_corr is not None:
        corr = correlation_matrix(records)
        return select_features(corr, feats.target, rules)
    return DEFAULT_FEATURES


def _tabular(records: Sequence[FlightRecord], inputs: Sequence[str], target: str,
             scaler) -> TabularData:
    xs, ys = [], []
    for rec in records:
        mask = rec.included_mask()
        cols = [scale_series(scaler, nm, rec.values(nm))[mask] for nm in inputs]
        xs.append(np.column_stack(cols))
        ys.append(scale_series(scaler, target, rec.values(target))[mask])
    return TabularData(np.concatenate(xs), np.concatenate(ys))


def _windows(records: Sequence[FlightRecord], inputs: Sequence[str], target: str,
             scaler, lookback: int, stride: int) -> WindowedData:
    xs, ys = [], []
    for rec in records:
        cols = [scale_series(scaler, nm, rec.values(nm)) for nm in inputs]
        X = np.column_stack(cols)
        y = scale_series(scaler, target, rec.values(target))
        segs = rec.maneuvers if rec.maneuvers else None
        win = make_windows(X, y, lookback, stride, segs)
        if len(win):
            xs.append(win.inputs)
            ys.append(win.targets)
    if not xs:
        return WindowedData(np.empty((0, lookback, len(inputs))), np.empty((0, lookback)))
    return WindowedData(np.concatenate(xs), np.concatenate(ys))


def _train_one(cfg: RunConfig, kind: str, train_recs: Sequence[FlightRecord],
               val_recs: Sequence[FlightRecord],
               inputs: Sequence[str]) -> TrainedNet:
    target = cfg.features.target
    scaler = fit_minmax(train_recs, tuple(inputs) + (target,))
    if kind == "ffnn":
        model_config = cfg.mlp_config(len(inputs))
        train_config = cfg.neural.ffnn_train
        train_data = _tabular(train_recs, inputs, target, scaler)
        val_data = _tabular(val_recs, inputs, target, scaler) if val_recs else None
    else:
        model_config = cfg.lstm_config(len(inputs))
        train_config = cfg.neural.lstm_train
        lb, stride = cfg.neural.lstm_lookback, cfg.neural.lstm_stride
        train_data = _windows(train_recs, inputs, target, scaler, lb, stride)
        val_data = (_windows(val_recs, inputs, target, scaler, lb, stride)
                    if val_recs else None)
        if val_data is not None and not len(val_data):
            val_data = None
    log.info("training %s on %d flights (%d samples/windows)",
             kind, len(train_recs), len(train_data))
    net = train(model_config, train_config, train_data, val_data)
    return dataclasses.replace(
        net,
        feature_names=tuple(inputs),
        target_name=target,
        scaler_bounds={nm: scaler.channel_bounds(nm) for nm in (*inputs, target)},
        fingerprint=cfg.fingerprint,
    )


def _loss_csv(net: TrainedNet) -> str:
    lines = ["epoch,train_mse,val_mse"]
    for i in range(len(net.train_mse)):
        lines.append(
            f"{i + 1},{float(net.train_mse[i])!r},{float(net.val_mse[i])!r}"
        )
    return "\n".join(lines) + "\n"


def _weights_path(cfg: RunConfig, kind: str) -> Path:
    return cfg.out_dir / f"{kind}_weights.bin"


def _model_path(cfg: RunConfig, order: int) -> Path:
    return cfg.out_dir / f"sindy{order}_model.txt"


def _load_sindy(cfg: RunConfig, order: int) -> SparseModel:
    path = _model_path(cfg, order)
    if not path.exists():
        raise MissingArtifact(f"no fitted model at {path}; run `tssid fit-sindy` first")
    return load_model(path)


def _load_trained(cfg: RunConfig, kind: str) -> TrainedNet:
    path = _weights_path(cfg, kind)
    if not path.exists():
        raise MissingArtifact(f"no weights at {path}; run `tssid train` first")
    net = load_net(path)
    if net.fingerprint and net.fingerprint != cfg.fingerprint:
        raise FingerprintMismatch(
            f"{path} was trained under fingerprint {net.fingerprint[:12]}..., "
            f"current configuration is {cfg.fingerprint[:12]}...; re-run `tssid train`"
        )
    return net


def _simulate_record(model: SparseModel, rec: FlightRecord,
                     derivative_method: str) -> np.ndarray:
    """Full-length prediction; NaN outside scoring segments.

    All scoring segments of the flight are integrated in one batched pass.
    """
    dt = rec.dt
    segs = rec.scoring_segments()
    trqs = [rec.values(model.state_names[0])[s.start_index:s.end_index] for s in segs]
    us = [rec.values(model.input_names[0])[s.start_index:s.end_index] for s in segs]
    x0s = [trq[0] for trq in trqs]
    if model.order == 1:
        trajs = simulate_segments(model, us, dt, x0s)
    else:
        xdot0s = [differentiate(trq, dt, derivative_method)[0] for trq in trqs]
        u_dots = [differentiate(u, dt, derivative_method) for u in us]
        trajs = simulate_segments(model, us, dt, x0s, xdot0s, u_dots)
    pred = np.full(rec.n_samples, np.nan)
    for seg, traj in zip(segs, trajs):
        pred[seg.start_index:seg.end_index] = traj.states[:, 0]
    return pred


def _predictions_for(cfg: RunConfig, model_id: str,
                     records: Sequence[FlightRecord]) -> dict[str, np.ndarray]:
    if model_id in ("sindy1", "sindy2"):
        order = 1 if model_id == "sindy1" else 2
        model = _load_sindy(cfg, order)
        method = cfg.sindy_config(order).derivative_method
        return {r.flight_id: _simulate_record(model, r, method) for r in records}
    if model_id in NET_KINDS:
        net = _load_trained(cfg, model_id)
        return {r.flight_id: predict_series(net, r) for r in records}
    raise ConfigError(f"unknown model id {model_id!r}")


def _segment_csv_name(rec: FlightRecord, index: int, label: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in label)
    return f"{rec.flight_id}__{index:02d}_{safe}.csv"


# --- commands ---------------------------------------------------------------

def cmd_generate(cfg: RunConfig) -> int:
    corpus = _corpus_cfg(cfg)
    t0 = time.perf_counter()
    specs = corpus.build_specs()
    flights_dir = cfg.data_dir / "flights"
    outputs = []
    records = []
    for spec in specs:
        rec = generate_flight(spec)
        path = flights_dir / f"{rec.flight_id}.csv"
        emit_csv(rec, path)
        outputs.append(path)
        records.append(rec)
        log.info("generated %s: %.1f s, %d samples", rec.flight_id,
                 rec.duration_s, rec.n_samples)
    man_path = cfg.data_dir / "maneuvers.csv"
    save_maneuvers(records, man_path)
    outputs.append(man_path)
    timings = {"total": time.perf_counter() - t0}
    manifest = _finish(cfg, "generate", cfg.data_dir, outputs, timings)
    print(f"generated {len(records)} flights in {cfg.data_dir} ({manifest.name})")
    return 0


def cmd_ingest(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    records = _load_records(cfg, _corpus_cfg(cfg).flight_ids)
    lines = ["flight_id,n_samples,duration_s,n_maneuvers,n_excluded"]
    for rec in records:
        n_exc = sum(1 for seg in rec.maneuvers if seg.excluded)
        lines.append(f"{rec.flight_id},{rec.n_samples},{rec.duration_s!r},"
                     f"{len(rec.maneuvers)},{n_exc}")
    out = cfg.out_dir / "ingest_summary.csv"
    _write_text(out, "\n".join(lines) + "\n")
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "ingest", cfg.out_dir, [out], timings)
    total = sum(r.n_samples for r in records)
    print(f"ingested {len(records)} flights, {total} samples -> {out}")
    return 0


def cmd_correlate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    records = _load_records(cfg, _corpus_cfg(cfg).flight_ids)
    corr = correlation_matrix(records)
    lines = ["channel," + ",".join(corr.names)]
    for i, nm in enumerate(corr.names):
        lines.append(nm + "," + ",".join(repr(float(v)) for v in corr.values[i]))
    out = cfg.out_dir / "correlation_matrix.csv"
    _write_text(out, "\n".join(lines) + "\n")
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "correlate", cfg.out_dir, [out], timings)
    target = cfg.features.target
    if target in corr.names:
        pairs = sorted(((abs(corr.corr(nm, target)), nm) for nm in corr.names
                        if nm != target), reverse=True)
        top = ", ".join(f"{nm} ({v:.3f})" for v, nm in pairs[:5])
        print(f"correlations with {target}: {top}")
    print(f"wrote {out}")
    return 0


def cmd_split(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    split = _split_of(cfg)
    payload = {"train": list(split.train_ids), "val": list(split.val_ids),
               "test": list(split.test_ids)}
    out = cfg.out_dir / "split.yaml"
    import yaml as _yaml
    _write_text(out, _yaml.safe_dump(payload, sort_keys=True))
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "split", cfg.out_dir, [out], timings)
    print(f"split {len(_corpus_cfg(cfg).flight_ids)} flights: {len(split.train_ids)} train / "
          f"{len(split.val_ids)} val / {len(split.test_ids)} test -> {out}")
    return 0


def cmd_fit_sindy(cfg: RunConfig, orders: Sequence[int]) -> int:
    t0 = time.perf_counter()
    train_recs = _load_records(cfg, _split_of(cfg).train_ids)
    outputs = []
    timings: dict[str, float] = {}
    for order in orders:
        t1 = time.perf_counter()
        scfg = cfg.sindy_config(order)
        if order == 1:
            model = fit_first_order(train_recs, scfg)
        else:
            model = fit_second_order(train_recs, scfg)
        mp = _model_path(cfg, order)
        save_model(model, mp)
        eq_text = format_equations(model)
        resid = ", ".join(f"{r:.6g}" for r in model.residual_rmse)
        ep = cfg.out_dir / f"sindy{order}_equations.txt"
        _write_text(ep, eq_text + f"\nresidual_rmse: {resid}\n")
        outputs.extend([mp, ep])
        timings[f"order{order}"] = time.perf_counter() - t1
        print(f"sindy order {order}:")
        print("  " + eq_text.replace("\n", "\n  "))
    timings["total"] = time.perf_counter() - t0
    _finish(cfg, "fit-sindy", cfg.out_dir, outputs, timings)
    return 0


def cmd_train(cfg: RunConfig, kinds: Sequence[str]) -> int:
    t0 = time.perf_counter()
    split = _split_of(cfg)
    train_recs = _load_records(cfg, split.train_ids)
    val_recs = _load_records(cfg, split.val_ids)
    inputs = _resolve_features(cfg, train_recs)
    outputs = []
    timings: dict[str, float] = {}
    for kind in kinds:
        t1 = time.perf_counter()
        net = _train_one(cfg, kind, train_recs, val_recs, inputs)
        wp = _weights_path(cfg, kind)
        wp.parent.mkdir(parents=True, exist_ok=True)
        save_net(net, wp)
        lp = cfg.out_dir / f"{kind}_loss.csv"
        _write_text(lp, _loss_csv(net))
        outputs.extend([wp, lp])
        timings[kind] = time.perf_counter() - t1
        final_val = net.val_mse[-1] if len(net.val_mse) else float("nan")
        print(f"trained {kind}: {len(net.train_mse)} epochs, "
              f"final train mse {net.train_mse[-1]:.3e}, val mse {final_val:.3e}")
    timings["total"] = time.perf_counter() - t0
    _finish(cfg, "train", cfg.out_dir, outputs, timings)
    return 0


def cmd_simulate(cfg: RunConfig, orders: Sequence[int]) -> int:
    t0 = time.perf_counter()
    test_recs = _load_records(cfg, _split_of(cfg).test_ids)
    outputs = []
    for order in orders:
        model = _load_sindy(cfg, order)
        method = cfg.sindy_config(order).derivative_method
        sim_dir = cfg.out_dir / f"sim_sindy{order}"
        for rec in test_recs:
            pred = _simulate_record(model, rec, method)
            t = np.arange(rec.n_samples) * rec.dt
            wf = rec.values(model.input_names[0])
            trq = rec.values(model.state_names[0])
            for i, seg in enumerate(rec.scoring_segments()):
                s, e = seg.start_index, seg.end_index
                path = sim_dir / _segment_csv_name(rec, i, seg.label)
                write_float_csv(path, ("time_s", "WF", "TRQ_actual", "TRQ_pred"),
                                (t[s:e], wf[s:e], trq[s:e], pred[s:e]))
                outputs.append(path)
        print(f"simulated sindy{order} over {len(test_recs)} test flights -> {sim_dir}")
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "simulate", cfg.out_dir, outputs, timings)
    return 0


def _evaluate_models(cfg: RunConfig, model_ids: Sequence[str],
                     test_recs: Sequence[FlightRecord],
                     out_dir: Path, write_overlays: bool) -> tuple[list[EvalReport], list[Path]]:
    reports = []
    outputs = []
    for model_id in model_ids:
        preds = _predictions_for(cfg, model_id, test_recs)
        report = score_model(model_id, preds, test_recs, cfg.features.target)
        rp = out_dir / f"eval_{model_id}.txt"
        save_report(report, rp)
        outputs.append(rp)
        reports.append(report)
        if write_overlays:
            for rec in test_recs:
                pred = preds[rec.flight_id]
                t = np.arange(rec.n_samples) * rec.dt
                actual = rec.values(cfg.features.target)
                for i, seg in enumerate(rec.scoring_segments()):
                    s, e = seg.start_index, seg.end_index
                    path = out_dir / "overlays" / model_id / _segment_csv_name(rec, i, seg.label)
                    write_overlay_csv(path, t[s:e], actual[s:e], pred[s:e])
                    outputs.append(path)
        print(f"{model_id}: overall rMAE {report.overall_rmae * 100:.2f}%")
    return reports, outputs


def cmd_evaluate(cfg: RunConfig, model_ids: Sequence[str]) -> int:
    t0 = time.perf_counter()
    test_recs = _load_records(cfg, _split_of(cfg).test_ids)
    reports, outputs = _evaluate_models(cfg, model_ids, test_recs,
                                        cfg.out_dir, write_overlays=True)
    table = compare_models(reports)
    cp = cfg.out_dir / "comparison.csv"
    write_comparison_csv(table, cp)
    outputs.append(cp)
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "evaluate", cfg.out_dir, outputs, timings)
    print(f"wrote {cp}")
    return 0


def _phase_fingerprint(cfg: RunConfig, train_ids: Sequence[str]) -> str:
    blob = json.dumps({"config": cfg.fingerprint, "train_flights": list(train_ids)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cmd_retrain_experiment(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    if not cfg.retrain_augment_ids:
        raise ConfigError("retrain-experiment needs retrain.augment_ids in the config")
    split = _split_of(cfg)
    missing = [i for i in cfg.retrain_augment_ids if i not in split.test_ids]
    if missing:
        raise ConfigError(
            f"retrain.augment_ids must be test flights; not in test set: {missing}"
        )
    eval_ids = [i for i in split.test_ids if i not in cfg.retrain_augment_ids]
    if not eval_ids:
        raise ConfigError("augmentation would consume the whole test set; "
                          "leave at least one flight for evaluation")
    # the split covers every flight, and the experiment uses all of them
    ids = _corpus_cfg(cfg).flight_ids
    by_id = dict(zip(ids, _load_records(cfg, ids)))
    eval_recs = [by_id[i] for i in eval_ids]
    val_recs = [by_id[i] for i in split.val_ids]
    inputs = _resolve_features(cfg, [by_id[i] for i in split.train_ids])

    rt_dir = cfg.out_dir / "retrain"
    outputs = []
    timings: dict[str, float] = {}
    phases = {
        "baseline": list(split.train_ids),
        "retrained": list(split.train_ids) + list(cfg.retrain_augment_ids),
    }
    scores: dict[str, dict[str, float]] = {k: {} for k in NET_KINDS}
    runs = []
    for phase, train_ids in phases.items():
        t1 = time.perf_counter()
        train_recs = [by_id[i] for i in train_ids]
        reports = []
        for kind in NET_KINDS:
            net = _train_one(cfg, kind, train_recs, val_recs, inputs)
            wp = rt_dir / f"{kind}_{phase}_weights.bin"
            wp.parent.mkdir(parents=True, exist_ok=True)
            save_net(net, wp)
            outputs.append(wp)
            preds = {r.flight_id: predict_series(net, r) for r in eval_recs}
            report = score_model(kind, preds, eval_recs, cfg.features.target)
            rp = rt_dir / f"eval_{phase}_{kind}.txt"
            save_report(report, rp)
            outputs.append(rp)
            scores[kind][phase] = report.overall_rmae
            reports.append(report)
            print(f"{phase} {kind}: overall rMAE {report.overall_rmae * 100:.2f}%")
        runs.append({
            "phase": phase,
            "fingerprint": _phase_fingerprint(cfg, train_ids),
            "train_flights": train_ids,
        })
        timings[phase] = time.perf_counter() - t1

    lines = ["tssid retrain report v1",
             "augment_flights: " + ",".join(cfg.retrain_augment_ids),
             "eval_flights: " + ",".join(eval_ids)]
    for kind in NET_KINDS:
        pre = scores[kind]["baseline"]
        post = scores[kind]["retrained"]
        improvement = 100.0 * (pre - post) / pre if pre > 0 else float("nan")
        lines += [f"model: {kind}",
                  f"baseline_rmae: {pre!r}",
                  f"retrained_rmae: {post!r}",
                  f"improvement_percent: {improvement:.2f}"]
    report_path = rt_dir / "retrain_report.txt"
    _write_text(report_path, "\n".join(lines) + "\n")
    outputs.append(report_path)
    timings["total"] = time.perf_counter() - t0
    _finish(cfg, "retrain-experiment", cfg.out_dir, outputs, timings,
            extra={"runs": runs})
    print(f"wrote {report_path}")
    return 0


def cmd_report(cfg: RunConfig, model_ids: Sequence[str]) -> int:
    t0 = time.perf_counter()
    reports = []
    for model_id in model_ids:
        path = cfg.out_dir / f"eval_{model_id}.txt"
        if not path.exists():
            raise MissingArtifact(f"no evaluation at {path}; run `tssid evaluate` first")
        reports.append(load_report(path))
    table = compare_models(reports)
    cp = cfg.out_dir / "comparison.csv"
    write_comparison_csv(table, cp)

    width = max(len(f) for f in table.flight_ids + ("overall",)) + 2
    header = "flight".ljust(width) + "".join(m.rjust(12) for m in table.model_ids)
    rows = [header]
    for r, fid in enumerate(table.flight_ids):
        cells = "".join(f"{v * 100:11.2f}%" for v in table.per_flight[r])
        rows.append(fid.ljust(width) + cells)
    rows.append("overall".ljust(width)
                + "".join(f"{v * 100:11.2f}%" for v in table.overall))
    text = "\n".join(rows) + "\n"
    rp = cfg.out_dir / "report.txt"
    _write_text(rp, text)
    print(text, end="")
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "report", cfg.out_dir, [cp, rp], timings)
    return 0


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tssid",
        description="System identification of turboshaft engine torque "
                    "from flight-log time series.",
    )
    parser.add_argument("--version", action="version", version=f"tssid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, order_flag=False, model_flag=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's global seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if order_flag:
            p.add_argument("--order", type=int, choices=(1, 2), default=None,
                           help="model order (default: both)")
        if model_flag:
            p.add_argument("--model", action="append", dest="models", default=None,
                           metavar="MODEL", help="model id (repeatable)")
        return p

    add("generate", "synthesize the flight corpus")
    add("ingest", "read the corpus and summarize it")
    add("correlate", "channel correlation matrix")
    add("split", "assign flights to train/val/test")
    add("fit-sindy", "fit sparse ODE models", order_flag=True)
    add("train", "train neural predictors", model_flag=True)
    add("simulate", "integrate fitted ODE models over test flights", order_flag=True)
    add("evaluate", "score models on the test flights", model_flag=True)
    add("retrain-experiment", "distribution-shift retraining study")
    add("report", "comparison table from saved evaluations", model_flag=True)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    command = args.command
    if command == "generate":
        return cmd_generate(cfg)
    if command == "ingest":
        return cmd_ingest(cfg)
    if command == "correlate":
        return cmd_correlate(cfg)
    if command == "split":
        return cmd_split(cfg)
    if command == "fit-sindy":
        orders = (args.order,) if args.order else (1, 2)
        return cmd_fit_sindy(cfg, orders)
    if command == "train":
        kinds = tuple(args.models) if args.models else NET_KINDS
        for kind in kinds:
            if kind not in NET_KINDS:
                raise ConfigError(f"train --model must be one of {NET_KINDS}, got {kind!r}")
        return cmd_train(cfg, kinds)
    if command == "simulate":
        orders = (args.order,) if args.order else (1, 2)
        return cmd_simulate(cfg, orders)
    if command == "evaluate":
        model_ids = tuple(args.models) if args.models else cfg.evaluate_models
        for m in model_ids:
            if m not in MODEL_IDS:
                raise ConfigError(f"evaluate --model must be one of {MODEL_IDS}, got {m!r}")
        return cmd_evaluate(cfg, model_ids)
    if command == "retrain-experiment":
        return cmd_retrain_experiment(cfg)
    if command == "report":
        model_ids = tuple(args.models) if args.models else cfg.evaluate_models
        return cmd_report(cfg, model_ids)
    raise ConfigError(f"unknown command {command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("TSSID_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except TssidError as exc:
        print(f"tssid: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"tssid: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
