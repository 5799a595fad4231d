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

Every artifact a later stage reads carries a fingerprint of what produced
it (see ``Artifact fingerprints`` below): the corpus in
``manifest_generate.json``, sparse models, weights files and eval reports
in their headers.  A stage refuses a stale or unstamped one with exit 4.
``simulate`` records the fingerprint of each model's simulation and the
sha256 of every sim CSV in ``manifest_simulate.json``; ``evaluate`` scores
those CSVs when both still hold, and integrates the model itself when not.

Set ``TSSID_LOG=INFO`` (or ``DEBUG``) for progress logging; the variable
only changes verbosity, never results.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import logging
import os
import sys
import time
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np
import yaml

from . import __version__
from .config import MODEL_IDS, RunConfig, load_config
from .errors import ConfigError, IoError, MissingArtifact, TssidError
from .evaluation import (
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
    atomic_open,
    correlation_matrix,
    filter_maneuvers,
    file_sha256,
    fit_minmax,
    ingest_cached,
    load_maneuvers,
    emit_csv,
    save_maneuvers,
    scale_series,
    select_features,
    split_dataset,
    write_float_csv,
)
from .manifest import (
    RunManifest,
    check_fingerprint,
    fingerprint,
    load_manifest,
    manifest_path,
    write_manifest,
)
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
    fit_sparse,
    format_equations,
    load_model,
    save_model,
    simulate_observed,
)
from .synthgen import SyntheticFlightSpec, flight_segments, generate_flight

log = logging.getLogger("tssid")

NET_KINDS = ("ffnn", "lstm")


# --- small helpers -----------------------------------------------------------

def _write_text(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _relpaths(base: Path, paths: Sequence[Path]) -> tuple[str, ...]:
    return tuple(sorted(p.relative_to(base).as_posix() for p in paths))


def _finish(cfg: RunConfig, command: str, base_dir: Path, outputs: Sequence[Path],
            timings: dict[str, float], extra: dict | None = None,
            inputs: dict[str, str] | None = None,
            fingerprints: dict[str, str] | None = None) -> Path:
    """Write the stage's manifest; ``fingerprints`` are those it wrote or checked."""
    manifest = RunManifest(
        command=command,
        seed=cfg.seed,
        outputs=_relpaths(base_dir, outputs),
        inputs=tuple({"path": p, "sha256": d} for p, d in sorted((inputs or {}).items())),
        fingerprints=fingerprints or {},
        timings=timings,
        extra=extra or {},
    )
    return write_manifest(base_dir, manifest)


def _corpus_cfg(cfg: RunConfig):
    if cfg.corpus is None:
        raise ConfigError("this command needs a 'corpus' section in the config")
    return cfg.corpus


# --- artifact fingerprints -----------------------------------------------------
#
# What each artifact's fingerprint covers, besides the tool version:
#   corpus (manifest_generate.json)  the resolved corpus section
#   sindy<k>_model.txt               corpus, train ids, cfg.sindy_config(k)
#   {ffnn,lstm}_weights.bin          corpus, train and val ids, features, that
#                                    net's resolved settings
#   eval_<model>.txt                 the scored model, test ids, target
#   sim_sindy<k>/ (in                the model's stamp and file sha256, test
#     manifest_simulate.json)        ids, sha256 of each test flight and
#                                    maneuvers.csv read
# All but the last are pure functions of the resolved configuration; the
# loaders below compare them with the recorded stamps through
# check_fingerprint.  A simulation that is not fresh is integrated again,
# never refused.

def _corpus_fingerprint(cfg: RunConfig) -> str:
    return fingerprint("corpus", _corpus_cfg(cfg))


def _net_settings(cfg: RunConfig, kind: str) -> tuple:
    n = cfg.neural
    if kind == "ffnn":
        return n.ffnn_hidden, n.ffnn_train
    return n.lstm_hidden_size, n.lstm_num_layers, n.lstm_lookback, n.lstm_stride, n.lstm_train


def _model_fingerprint(cfg: RunConfig, model_id: str, train_ids: Sequence[str],
                       val_ids: Sequence[str]) -> str:
    """A model fitted (SINDy, which reads no val flight) or trained on these flights."""
    corpus = _corpus_fingerprint(cfg)
    if model_id in NET_KINDS:
        return fingerprint(model_id, corpus, train_ids, val_ids, cfg.features,
                           _net_settings(cfg, model_id))
    order = int(model_id.removeprefix("sindy"))
    return fingerprint(model_id, corpus, train_ids, cfg.sindy_config(order))


def _eval_fingerprint(cfg: RunConfig, model_fp: str, test_ids: Sequence[str]) -> str:
    return fingerprint("eval", model_fp, test_ids, cfg.features.target)


def _sim_fingerprint(cfg: RunConfig, model_id: str, model: SparseModel,
                     test_ids: Sequence[str], corpus_files: dict[str, str]) -> str:
    """The simulation of this model file over these test flights' bytes."""
    model_sha = file_sha256(_model_path(cfg, model_id))
    return fingerprint("sim", model.fingerprint, model_sha, test_ids, corpus_files)


def _fresh_fingerprint(cfg: RunConfig, model_id: str) -> str:
    """The stamp of a model fitted or trained on the configured split."""
    split = _split_of(cfg)
    return _model_fingerprint(cfg, model_id, split.train_ids, split.val_ids)


def _load_records(cfg: RunConfig,
                  ids: Sequence[str]) -> tuple[list[FlightRecord], dict[str, str]]:
    """Ingest the listed corpus flights from data_dir, with maneuver annotations.

    The corpus must carry the current configuration's fingerprint in
    ``manifest_generate.json``.  Flights are parsed through the cache under
    ``<out_dir>/cache``.  Also returns the files read, as paths relative to
    data_dir with the sha256 of their bytes, for the stage's manifest.
    """
    corpus = _corpus_cfg(cfg)
    flights_dir = cfg.data_dir / "flights"
    man_path = cfg.data_dir / "maneuvers.csv"
    if not flights_dir.is_dir():
        raise IoError(f"no corpus at {flights_dir}; run `tssid generate` first")
    stamp_path = manifest_path(cfg.data_dir, "generate")
    recorded = (load_manifest(stamp_path).fingerprints.get("corpus", "")
                if stamp_path.exists() else "")
    check_fingerprint(stamp_path, recorded, _corpus_fingerprint(cfg), "generate")
    files = {}
    segments = {}
    if man_path.exists():
        segments = load_maneuvers(man_path, corpus.flight_ids)
        files[man_path.name] = file_sha256(man_path)
    records = []
    for fid in ids:
        path = flights_dir / f"{fid}.csv"
        if not path.exists():
            raise IoError(f"missing flight file {path}; run `tssid generate` first")
        rec, files[f"flights/{fid}.csv"] = ingest_cached(
            path, corpus.sample_rate_hz, fid, cfg.out_dir / "cache")
        if fid in segments:
            rec = rec.with_maneuvers(segments[fid])
        rec = filter_maneuvers(rec, cfg.exclude_labels)
        records.append(rec)
    return records, files


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
               val_recs: Sequence[FlightRecord], inputs: Sequence[str],
               fp: str) -> TrainedNet:
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
        fingerprint=fp,
    )


def _loss_csv(net: TrainedNet) -> str:
    lines = ["epoch,train_mse,val_mse"]
    for i in range(len(net.train_mse)):
        lines.append(
            f"{i + 1},{float(net.train_mse[i])!r},{float(net.val_mse[i])!r}"
        )
    return "\n".join(lines) + "\n"


def _model_path(cfg: RunConfig, model_id: str) -> Path:
    """``{ffnn,lstm}_weights.bin`` or ``sindy<k>_model.txt``."""
    suffix = "weights.bin" if model_id in NET_KINDS else "model.txt"
    return cfg.out_dir / f"{model_id}_{suffix}"


def _load_model(cfg: RunConfig, model_id: str) -> SparseModel | TrainedNet:
    """The fitted or trained model, refused unless its stamp is fresh."""
    path = _model_path(cfg, model_id)
    stage = "train" if model_id in NET_KINDS else "fit-sindy"
    if not path.exists():
        raise MissingArtifact(f"no {model_id} model at {path}; run `tssid {stage}` first")
    model = load_net(path) if model_id in NET_KINDS else load_model(path)
    check_fingerprint(path, model.fingerprint, _fresh_fingerprint(cfg, model_id), stage)
    return model


def _simulate_flights(model: SparseModel,
                      records: Sequence[FlightRecord]) -> dict[str, np.ndarray]:
    """Each flight's full-length prediction; NaN outside its scoring segments.

    The scoring segments of all flights are integrated in one batched pass.
    The flights share the corpus sample rate, so one step serves them all.
    """
    if not records:
        return {}
    dt = records[0].dt
    segs = [(rec, seg) for rec in records for seg in rec.scoring_segments()]
    xs, us = ([rec.values(nm)[s.start_index:s.end_index] for rec, s in segs]
              for nm in (model.state_names[0], model.input_names[0]))
    trajs = simulate_observed(model, xs, us, dt)
    preds = {rec.flight_id: np.full(rec.n_samples, np.nan) for rec in records}
    for (rec, seg), traj in zip(segs, trajs):
        preds[rec.flight_id][seg.start_index:seg.end_index] = traj.states[:, 0]
    return preds


def _read_simulation(cfg: RunConfig, model_id: str, records: Sequence[FlightRecord],
                     sim_fp: str) -> dict[str, np.ndarray] | None:
    """The predictions ``simulate`` wrote for this model, or None unless fresh.

    Fresh means ``manifest_simulate.json`` records ``sim_fp`` for the
    model's sim directory and every segment CSV still has the sha256 it
    recorded.  ``TRQ_pred``, the last column, was written with ``repr``, so
    the values read back are bitwise the ones integrated.
    """
    try:
        man = load_manifest(manifest_path(cfg.out_dir, "simulate"))
    except IoError:
        return None
    sim_dir = f"sim_{model_id}"
    digests = man.extra.get("output_sha256")
    if man.fingerprints.get(sim_dir) != sim_fp or not isinstance(digests, dict):
        return None
    preds = {}
    for rec in records:
        pred = np.full(rec.n_samples, np.nan)
        for i, seg in enumerate(rec.scoring_segments()):
            rel = f"{sim_dir}/{_segment_csv_name(rec, i, seg.label)}"
            try:
                blob = (cfg.out_dir / rel).read_bytes()
                if hashlib.sha256(blob).hexdigest() != digests.get(rel):
                    return None
                values = [float(row.rpartition(",")[2])
                          for row in blob.decode("utf-8").splitlines()[1:]]
            except (OSError, ValueError):
                return None
            pred[seg.start_index:seg.end_index] = values
        preds[rec.flight_id] = pred
    return preds


def _predictions_for(cfg: RunConfig, model_id: str, records: Sequence[FlightRecord],
                     test_ids: Sequence[str], corpus_files: dict[str, str]
                     ) -> tuple[dict[str, np.ndarray], str, str | None]:
    """Each record's prediction by the fresh model, the model's fingerprint,
    and the fingerprint of the simulation read in place of integrating, if any.
    """
    model = _load_model(cfg, model_id)
    if model_id in NET_KINDS:
        return {r.flight_id: predict_series(model, r) for r in records}, model.fingerprint, None
    sim_fp = _sim_fingerprint(cfg, model_id, model, test_ids, corpus_files)
    preds = _read_simulation(cfg, model_id, records, sim_fp)
    if preds is None:
        preds, sim_fp = _simulate_flights(model, records), None
    return preds, model.fingerprint, sim_fp


def _segment_csv_name(rec: FlightRecord, index: int, label: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in label)
    return f"{rec.flight_id}__{index:02d}_{safe}.csv"


# --- commands ---------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where fork or the mask is unavailable."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _start_on_cpu(k: int) -> None:
    """Move this process to the k-th CPU of its affinity mask, then allow the whole mask again.

    Linux may leave a forked child on its parent's CPU for all of a short
    life, with the other CPU idle: measured on a 2-CPU VM, two forked
    shares took as long as one process writing both.  Starting each
    process on a CPU of its own avoids that; the scheduler stays free to
    move it later.
    """
    mask = os.sched_getaffinity(0)
    with contextlib.suppress(OSError):  # a placement hint, never a failure
        os.sched_setaffinity(0, {sorted(mask)[k % len(mask)]})
        os.sched_setaffinity(0, mask)


def _balanced_shares(sizes: Sequence[int], n_shares: int) -> list[list[int]]:
    """Split the indices of ``sizes`` into ``n_shares`` shares of near-equal total size.

    Largest first, each to the lightest share so far; ties go to the lower
    index and the lower share, so the split depends on the sizes alone.
    Each share lists its indices in ascending order.
    """
    shares: list[list[int]] = [[] for _ in range(n_shares)]
    loads = [0] * n_shares
    for i in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += sizes[i]
    return [sorted(share) for share in shares]


def _write_flights(specs: Sequence[SyntheticFlightSpec], share: Sequence[int],
                   flights_dir: Path) -> tuple[int, Exception] | None:
    """Generate and write the flights of the spec indices in ``share``; the first failure, or None.

    A failure is the failing spec's index with the :class:`TssidError` or
    ``OSError`` it raised, and ends the share as it ends a serial run.
    """
    for i in share:
        try:
            rec = generate_flight(specs[i])
            emit_csv(rec, flights_dir / f"{rec.flight_id}.csv")
        except (TssidError, OSError) as exc:
            return i, exc
        log.info("generated %s: %.1f s, %d samples", rec.flight_id,
                 rec.duration_s, rec.n_samples)
    return None


def _run_child(k: int, specs: Sequence[SyntheticFlightSpec], share: Sequence[int],
               flights_dir: Path) -> NoReturn:
    """The whole life of forked child ``k``: write its share, exit 0 only if all of it was written.

    It leaves by ``os._exit``, so it prints nothing and runs no exit
    handler or buffer flush of the parent's.
    """
    code = 1
    try:
        _start_on_cpu(k)
        if _write_flights(specs, share, flights_dir) is None:
            code = 0
    finally:
        os._exit(code)


def _generate_flights(specs: Sequence[SyntheticFlightSpec], sizes: Sequence[int],
                      flights_dir: Path) -> None:
    """Write every spec's flight CSV, one share of flights per usable CPU.

    The shares balance ``sizes`` (sample counts).  The parent writes the
    first share and forks a child per other share, each process starting
    on a CPU of its own (:func:`_start_on_cpu`); each file is a pure
    function of its spec, so the files equal a serial run's.  Every child
    is reaped, on success and on error.  A child that exits non-zero, or
    cannot be forked, has its share written again here, so a failure
    raises what a serial run raises: the error of the first failing flight
    in spec order.  ``os.fork`` rather than a process pool: nothing is sent
    to a child, and the only other thread at this point is OpenBLAS's pool,
    which shuts itself down across a fork.
    """
    shares = _balanced_shares(sizes, max(1, min(_usable_cpus(), len(specs))))
    children: dict[int, list[int]] = {}
    redo: list[list[int]] = []
    try:
        if len(shares) > 1:
            _start_on_cpu(0)
        for k, share in enumerate(shares[1:], start=1):
            try:
                pid = os.fork()
            except OSError:
                redo.append(share)
                continue
            if pid == 0:
                _run_child(k, specs, share, flights_dir)
            children[pid] = share
        failures = [_write_flights(specs, shares[0], flights_dir)]
    finally:
        for pid, share in children.items():
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                redo.append(share)
    failures += [_write_flights(specs, share, flights_dir) for share in redo]
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def cmd_generate(cfg: RunConfig) -> int:
    """Synthesize the corpus: one CSV per flight, ``maneuvers.csv`` and the manifest.

    Flights are generated on every CPU in the process's affinity mask (see
    :func:`_generate_flights`).  The files are byte-identical to a serial
    run; only the order of ``TSSID_LOG=INFO`` lines may interleave.
    """
    corpus = _corpus_cfg(cfg)
    t0 = time.perf_counter()
    specs = corpus.build_specs()
    segments = {spec.flight_id: flight_segments(spec) for spec in specs}
    flights_dir = cfg.data_dir / "flights"
    _generate_flights(specs, [segs[-1].end_index for segs in segments.values()],
                      flights_dir)
    man_path = cfg.data_dir / "maneuvers.csv"
    save_maneuvers(segments, man_path)
    outputs = [flights_dir / f"{spec.flight_id}.csv" for spec in specs] + [man_path]
    timings = {"total": time.perf_counter() - t0}
    manifest = _finish(cfg, "generate", cfg.data_dir, outputs, timings,
                       fingerprints={"corpus": _corpus_fingerprint(cfg)})
    print(f"generated {len(specs)} flights in {cfg.data_dir} ({manifest.name})")
    return 0


def cmd_ingest(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    records, corpus_files = _load_records(cfg, _corpus_cfg(cfg).flight_ids)
    lines = ["flight_id,n_samples,duration_s,n_maneuvers,n_excluded"]
    for rec in records:
        n_exc = sum(1 for seg in rec.maneuvers if seg.excluded)
        lines.append(f"{rec.flight_id},{rec.n_samples},{rec.duration_s!r},"
                     f"{len(rec.maneuvers)},{n_exc}")
    out = cfg.out_dir / "ingest_summary.csv"
    _write_text(out, "\n".join(lines) + "\n")
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "ingest", cfg.out_dir, [out], timings, inputs=corpus_files,
            fingerprints={"corpus": _corpus_fingerprint(cfg)})
    total = sum(r.n_samples for r in records)
    print(f"ingested {len(records)} flights, {total} samples -> {out}")
    return 0


def cmd_correlate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    records, corpus_files = _load_records(cfg, _corpus_cfg(cfg).flight_ids)
    corr = correlation_matrix(records)
    lines = ["channel," + ",".join(corr.names)]
    for i, nm in enumerate(corr.names):
        lines.append(nm + "," + ",".join(repr(float(v)) for v in corr.values[i]))
    out = cfg.out_dir / "correlation_matrix.csv"
    _write_text(out, "\n".join(lines) + "\n")
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "correlate", cfg.out_dir, [out], timings, inputs=corpus_files,
            fingerprints={"corpus": _corpus_fingerprint(cfg)})
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
    _write_text(out, yaml.safe_dump(payload, sort_keys=True))
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "split", cfg.out_dir, [out], timings)
    print(f"split {len(_corpus_cfg(cfg).flight_ids)} flights: {len(split.train_ids)} train / "
          f"{len(split.val_ids)} val / {len(split.test_ids)} test -> {out}")
    return 0


def cmd_fit_sindy(cfg: RunConfig, orders: Sequence[int]) -> int:
    t0 = time.perf_counter()
    split = _split_of(cfg)
    train_recs, corpus_files = _load_records(cfg, split.train_ids)
    outputs = []
    timings: dict[str, float] = {}
    fps = {"corpus": _corpus_fingerprint(cfg)}
    for order in orders:
        t1 = time.perf_counter()
        model = fit_sparse(train_recs, order, cfg.sindy_config(order))
        mp = _model_path(cfg, f"sindy{order}")
        fps[mp.name] = _model_fingerprint(cfg, f"sindy{order}", split.train_ids,
                                          split.val_ids)
        save_model(dataclasses.replace(model, fingerprint=fps[mp.name]), mp)
        eq_text = format_equations(model)
        resid = ", ".join(f"{r:.6g}" for r in model.residual_rmse)
        ep = cfg.out_dir / f"sindy{order}_equations.txt"
        _write_text(ep, eq_text + f"\nresidual_rmse: {resid}\n")
        outputs.extend([mp, ep])
        timings[f"order{order}"] = time.perf_counter() - t1
        print(f"sindy order {order}:")
        print("  " + eq_text.replace("\n", "\n  "))
    timings["total"] = time.perf_counter() - t0
    _finish(cfg, "fit-sindy", cfg.out_dir, outputs, timings, inputs=corpus_files,
            fingerprints=fps)
    return 0


def cmd_train(cfg: RunConfig, kinds: Sequence[str]) -> int:
    t0 = time.perf_counter()
    split = _split_of(cfg)
    records, corpus_files = _load_records(cfg, split.train_ids + split.val_ids)
    train_recs = records[:len(split.train_ids)]
    val_recs = records[len(split.train_ids):]
    inputs = _resolve_features(cfg, train_recs)
    outputs = []
    timings: dict[str, float] = {}
    fps = {"corpus": _corpus_fingerprint(cfg)}
    for kind in kinds:
        t1 = time.perf_counter()
        wp = _model_path(cfg, kind)
        fps[wp.name] = _model_fingerprint(cfg, kind, split.train_ids, split.val_ids)
        net = _train_one(cfg, kind, train_recs, val_recs, inputs, fps[wp.name])
        save_net(net, wp)
        lp = cfg.out_dir / f"{kind}_loss.csv"
        _write_text(lp, _loss_csv(net))
        outputs.extend([wp, lp])
        timings[kind] = time.perf_counter() - t1
        final_val = net.val_mse[-1] if len(net.val_mse) else float("nan")
        print(f"trained {kind}: {len(net.train_mse)} epochs, "
              f"final train mse {net.train_mse[-1]:.3e}, val mse {final_val:.3e}")
    timings["total"] = time.perf_counter() - t0
    _finish(cfg, "train", cfg.out_dir, outputs, timings, inputs=corpus_files,
            fingerprints=fps)
    return 0


def cmd_simulate(cfg: RunConfig, orders: Sequence[int]) -> int:
    t0 = time.perf_counter()
    test_ids = _split_of(cfg).test_ids
    test_recs, corpus_files = _load_records(cfg, test_ids)
    outputs = []
    digests = {}
    fps = {"corpus": _corpus_fingerprint(cfg)}
    for order in orders:
        model_id = f"sindy{order}"
        model = _load_model(cfg, model_id)
        fps[_model_path(cfg, model_id).name] = model.fingerprint
        fps[f"sim_{model_id}"] = _sim_fingerprint(cfg, model_id, model, test_ids,
                                                  corpus_files)
        preds = _simulate_flights(model, test_recs)
        sim_dir = cfg.out_dir / f"sim_{model_id}"
        for rec in test_recs:
            pred = preds[rec.flight_id]
            t = np.arange(rec.n_samples) * rec.dt
            wf = rec.values(model.input_names[0])
            trq = rec.values(model.state_names[0])
            for i, seg in enumerate(rec.scoring_segments()):
                s, e = seg.start_index, seg.end_index
                path = sim_dir / _segment_csv_name(rec, i, seg.label)
                write_float_csv(path, ("time_s", "WF", "TRQ_actual", "TRQ_pred"),
                                (t[s:e], wf[s:e], trq[s:e], pred[s:e]))
                outputs.append(path)
                digests[path.relative_to(cfg.out_dir).as_posix()] = file_sha256(path)
        print(f"simulated {model_id} over {len(test_recs)} test flights -> {sim_dir}")
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "simulate", cfg.out_dir, outputs, timings,
            extra={"output_sha256": digests}, inputs=corpus_files, fingerprints=fps)
    return 0


def cmd_evaluate(cfg: RunConfig, model_ids: Sequence[str]) -> int:
    t0 = time.perf_counter()
    test_ids = _split_of(cfg).test_ids
    test_recs, corpus_files = _load_records(cfg, test_ids)
    target = cfg.features.target
    reports = []
    outputs = []
    fps = {"corpus": _corpus_fingerprint(cfg)}
    for model_id in model_ids:
        preds, model_fp, sim_fp = _predictions_for(cfg, model_id, test_recs, test_ids,
                                                   corpus_files)
        if sim_fp is not None:
            fps[f"sim_{model_id}"] = sim_fp
        report = dataclasses.replace(score_model(model_id, preds, test_recs, target),
                                     fingerprint=_eval_fingerprint(cfg, model_fp, test_ids))
        rp = cfg.out_dir / f"eval_{model_id}.txt"
        save_report(report, rp)
        outputs.append(rp)
        reports.append(report)
        fps[_model_path(cfg, model_id).name] = model_fp
        fps[rp.name] = report.fingerprint
        for rec in test_recs:
            pred = preds[rec.flight_id]
            t = np.arange(rec.n_samples) * rec.dt
            actual = rec.values(target)
            for i, seg in enumerate(rec.scoring_segments()):
                s, e = seg.start_index, seg.end_index
                path = cfg.out_dir / "overlays" / model_id / _segment_csv_name(rec, i, seg.label)
                write_overlay_csv(path, t[s:e], actual[s:e], pred[s:e])
                outputs.append(path)
        print(f"{model_id}: overall rMAE {report.overall_rmae * 100:.2f}%")
    table = compare_models(reports)
    cp = cfg.out_dir / "comparison.csv"
    write_comparison_csv(table, cp)
    outputs.append(cp)
    timings = {"total": time.perf_counter() - t0}
    _finish(cfg, "evaluate", cfg.out_dir, outputs, timings, inputs=corpus_files,
            fingerprints=fps)
    print(f"wrote {cp}")
    return 0


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
    records, corpus_files = _load_records(cfg, ids)
    by_id = dict(zip(ids, records))
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
    fps = {"corpus": _corpus_fingerprint(cfg)}
    runs = []
    for phase, train_ids in phases.items():
        t1 = time.perf_counter()
        train_recs = [by_id[i] for i in train_ids]
        for kind in NET_KINDS:
            net = _train_one(cfg, kind, train_recs, val_recs, inputs,
                             _model_fingerprint(cfg, kind, train_ids, split.val_ids))
            wp = rt_dir / f"{kind}_{phase}_weights.bin"
            save_net(net, wp)
            outputs.append(wp)
            preds = {r.flight_id: predict_series(net, r) for r in eval_recs}
            report = dataclasses.replace(
                score_model(kind, preds, eval_recs, cfg.features.target),
                fingerprint=_eval_fingerprint(cfg, net.fingerprint, eval_ids))
            rp = rt_dir / f"eval_{phase}_{kind}.txt"
            save_report(report, rp)
            outputs.append(rp)
            fps[wp.relative_to(cfg.out_dir).as_posix()] = net.fingerprint
            fps[rp.relative_to(cfg.out_dir).as_posix()] = report.fingerprint
            scores[kind][phase] = report.overall_rmae
            print(f"{phase} {kind}: overall rMAE {report.overall_rmae * 100:.2f}%")
        runs.append({"phase": phase, "train_flights": train_ids})
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
            extra={"runs": runs}, inputs=corpus_files, fingerprints=fps)
    print(f"wrote {report_path}")
    return 0


def cmd_report(cfg: RunConfig, model_ids: Sequence[str]) -> int:
    t0 = time.perf_counter()
    test_ids = _split_of(cfg).test_ids
    reports = []
    fps = {}
    for model_id in model_ids:
        path = cfg.out_dir / f"eval_{model_id}.txt"
        if not path.exists():
            raise MissingArtifact(f"no evaluation at {path}; run `tssid evaluate` first")
        report = load_report(path)
        expected = _eval_fingerprint(cfg, _fresh_fingerprint(cfg, model_id), test_ids)
        check_fingerprint(path, report.fingerprint, expected, "evaluate")
        fps[path.name] = report.fingerprint
        reports.append(report)
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
    _finish(cfg, "report", cfg.out_dir, [cp, rp], timings, fingerprints=fps)
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

    def add(name: str, help_text: str, order_flag=False, models: Sequence[str] = ()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's global seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if order_flag:
            p.add_argument("--order", type=int, choices=(1, 2), default=None,
                           help="model order (default: both)")
        if models:
            p.add_argument("--model", action="append", dest="models", default=None,
                           choices=models, metavar="MODEL",
                           help=f"one of {', '.join(models)} (repeatable)")
        return p

    add("generate", "synthesize the flight corpus")
    add("ingest", "read the corpus and summarize it")
    add("correlate", "channel correlation matrix")
    add("split", "assign flights to train/val/test")
    add("fit-sindy", "fit sparse ODE models", order_flag=True)
    add("train", "train neural predictors", models=NET_KINDS)
    add("simulate", "integrate fitted ODE models over test flights", order_flag=True)
    add("evaluate", "score models on the test flights", models=MODEL_IDS)
    add("retrain-experiment", "distribution-shift retraining study")
    add("report", "comparison table from saved evaluations", models=MODEL_IDS)
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
        return cmd_train(cfg, tuple(args.models) if args.models else NET_KINDS)
    if command == "simulate":
        orders = (args.order,) if args.order else (1, 2)
        return cmd_simulate(cfg, orders)
    if command == "evaluate":
        return cmd_evaluate(cfg, tuple(args.models) if args.models else cfg.evaluate_models)
    if command == "retrain-experiment":
        return cmd_retrain_experiment(cfg)
    if command == "report":
        return cmd_report(cfg, tuple(args.models) if args.models else cfg.evaluate_models)
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
