"""``tssid`` command line interface.

The pipeline's commands are the keys of ``COMMANDS``, in the order they
are normally run.  Every command takes ``--config <path>`` plus optional
``--seed N`` and ``--out <dir>`` overrides and writes its artifacts; once
it returns, the dispatcher writes the ``manifest_<command>.json`` receipt
listing them and exits 0.  Exit codes are stable for scripting: 2 for
configuration problems, 3 for I/O problems, 4 for computation failures.
Identical config and seed produce byte-identical artifacts on re-run
(manifest timing entries aside).

Every artifact a later stage reads carries a fingerprint of what produced
it (see ``Artifact fingerprints`` below): the corpus in
``manifest_generate.json``, sparse models, weights files and eval reports
in their headers.  A stage refuses a stale or unstamped one with exit 4.
``simulate`` records the fingerprint of each model's simulation and the
sha256 of every sim CSV in ``manifest_simulate.json``; ``evaluate`` scores
those CSVs when both still hold, and integrates the model itself when not.

``generate``, ``simulate``, ``evaluate`` and ``retrain-experiment`` run their
independent units (a flight, a sparse model, a test flight, one net of one
phase) as one serial loop, which ``taskset -c 0`` leaves alone.  On more
CPUs, one forked process per share of units fills in results ahead of the
loop, and the loop computes any unit whose result did not come back (see
``_fork_units``).  So their stdout, artifacts and manifests' stable
payloads, and on failure their exit code and message, are a serial run's.

Set ``TSSID_LOG=INFO`` (or ``DEBUG``) for progress logging; the variable
only changes verbosity, never results.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import hashlib
import logging
import os
import pickle
import sys
import time
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    FeatureRules,
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
    NetData,
    TrainedNet,
    load_net,
    make_windows,
    predict_series,
    save_net,
    train,
)
from .seeding import derive_seed
from .sindy import (
    SPARSE_CHANNELS,
    SparseModel,
    fit_sparse,
    format_equations,
    load_model,
    save_model,
    simulate_flights,
)
from .synthgen import SyntheticFlightSpec, flight_segments, generate_flight

log = logging.getLogger("tssid")

NET_KINDS = ("ffnn", "lstm")


# --- the stage receipt ---------------------------------------------------------

class _Stage:
    """One command's receipt: the files it read, wrote and checked, and its timings.

    :func:`_dispatch` creates it before the command runs and calls
    :meth:`finish`, the only writer of a manifest, once it returns; a
    command that fails leaves the previous manifest in place.  The command
    records each file it writes with :meth:`write_text` or :meth:`wrote`.
    ``fingerprints`` are keyed by paths relative to ``base_dir``.
    """

    def __init__(self, cfg: RunConfig, command: str, base_dir: Path):
        self.cfg, self.command, self.base_dir = cfg, command, base_dir
        self.inputs: dict[str, str] = {}
        self.fingerprints: dict[str, str] = {}
        self.outputs: list[Path] = []
        self.timings: dict[str, float] = {}
        self.extra: dict = {}
        self._t0 = time.perf_counter()

    def records(self, ids: Sequence[str],
                channels: Collection[str] | None = None) -> list[FlightRecord]:
        """The corpus flights ``ids`` (see :func:`_load_records`), recorded as read.

        ``channels`` names the only channels the stage reads (all when
        None); ``()`` gives each flight's sample count and maneuvers alone.
        """
        records, self.inputs = _load_records(self.cfg, ids, channels)
        self.fingerprints["corpus"] = _corpus_fingerprint(self.cfg)
        return records

    def flights(self, ids: Sequence[str]) -> Iterable[FlightRecord]:
        """The corpus flights ``ids`` with every channel, recorded as read, one at a time.

        Each CSV is hashed and ``maneuvers.csv`` read once, here.  Every
        iteration of the result then reads each flight again from the cache
        entry under the digest recorded here (see :func:`ingest_cached`), so
        it holds one flight at a time and every pass reads the same bytes.
        """
        heads = self.records(ids, channels=())
        corpus, digests = _corpus_cfg(self.cfg), dict(self.inputs)

        def read(head: FlightRecord) -> FlightRecord:
            rel = f"flights/{head.flight_id}.csv"
            rec, _ = ingest_cached(self.cfg.paths.data_dir / rel, corpus.sample_rate_hz,
                                   head.flight_id, self.cfg.paths.out_dir / "cache",
                                   digest=digests[rel])
            return rec.with_maneuvers(head.maneuvers)

        return _Reread(read, heads)

    def model(self, model_id: str) -> SparseModel | TrainedNet:
        """The fresh model (see :func:`_load_model`), recorded as checked."""
        model = _load_model(self.cfg, model_id)
        self.stamp(_model_path(self.cfg, model_id), model.fingerprint)
        return model

    def rel(self, path: Path) -> str:
        return path.relative_to(self.base_dir).as_posix()

    def stamp(self, path: Path, fp: str) -> None:
        """Record the fingerprint of the artifact written or checked at ``path``."""
        self.fingerprints[self.rel(path)] = fp

    def wrote(self, path: Path, fp: str | None = None) -> None:
        """Record ``path`` as an output, stamped with ``fp`` when it carries one."""
        self.outputs.append(path)
        if fp is not None:
            self.stamp(path, fp)

    def write_text(self, path: Path, text: str) -> None:
        """Replace ``path`` with ``text`` atomically and record it as an output."""
        with atomic_open(path) as fh:
            fh.write(text)
        self.wrote(path)

    @contextlib.contextmanager
    def timed(self, name: str):
        t0 = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - t0

    def finish(self) -> Path:
        """Write the manifest, with the command's total wall time."""
        self.timings["total"] = time.perf_counter() - self._t0
        outputs = tuple(sorted(self.rel(p) for p in self.outputs))
        inputs = tuple({"path": p, "sha256": d} for p, d in sorted(self.inputs.items()))
        return write_manifest(self.base_dir, RunManifest(
            command=self.command, seed=self.cfg.seed, outputs=outputs, inputs=inputs,
            fingerprints=self.fingerprints, timings=self.timings, extra=self.extra))


class _Reread:
    """An iterable of ``read(item)`` for each of ``items``, read anew on every pass."""

    def __init__(self, read: Callable, items: Sequence):
        self.read, self.items = read, items

    def __iter__(self) -> Iterator:
        return map(self.read, self.items)


def _load_model(cfg: RunConfig, model_id: str) -> SparseModel | TrainedNet:
    """The fitted or trained model, refused unless its stamp is fresh."""
    path = _model_path(cfg, model_id)
    producer = "train" if model_id in NET_KINDS else "fit-sindy"
    if not path.exists():
        raise MissingArtifact(f"no {model_id} model at {path}; run `tssid {producer}` first")
    model = load_net(path) if model_id in NET_KINDS else load_model(path)
    check_fingerprint(path, model.fingerprint, _fresh_fingerprint(cfg, model_id), producer)
    return model


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
# readers (_load_records, _Stage.model, cmd_report) compare them with the
# recorded stamps through check_fingerprint.  A simulation that is not
# fresh is integrated again, never refused.

def _corpus_fingerprint(cfg: RunConfig) -> str:
    return fingerprint("corpus", _corpus_cfg(cfg))


def _net_settings(cfg: RunConfig, kind: str) -> tuple:
    section = cfg.ffnn if kind == "ffnn" else cfg.lstm
    return tuple(getattr(section, f.name) for f in dataclasses.fields(section))


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


def _sim_fingerprint(stage: _Stage, model_id: str, model: SparseModel,
                     test_ids: Sequence[str]) -> str:
    """The simulation of this model file over the bytes of the test flights the stage read."""
    model_sha = file_sha256(_model_path(stage.cfg, model_id))
    return fingerprint("sim", model.fingerprint, model_sha, test_ids, stage.inputs)


def _fresh_fingerprint(cfg: RunConfig, model_id: str) -> str:
    """The stamp of a model fitted or trained on the configured split."""
    split = _split_of(cfg)
    return _model_fingerprint(cfg, model_id, split.train_ids, split.val_ids)


def _load_records(cfg: RunConfig, ids: Sequence[str], channels: Collection[str] | None = None
                  ) -> tuple[list[FlightRecord], dict[str, str]]:
    """Ingest the listed corpus flights from data_dir, with maneuver annotations.

    The corpus must carry the current configuration's fingerprint in
    ``manifest_generate.json``.  Flights are parsed through the cache under
    ``<out_dir>/cache`` and projected onto ``channels`` (see
    :func:`ingest_cached`).  Also returns the files read, as paths relative
    to data_dir with the sha256 of their bytes, for the stage's manifest.
    """
    corpus = _corpus_cfg(cfg)
    flights_dir = cfg.paths.data_dir / "flights"
    man_path = cfg.paths.data_dir / "maneuvers.csv"
    if not flights_dir.is_dir():
        raise IoError(f"no corpus at {flights_dir}; run `tssid generate` first")
    stamp_path = manifest_path(cfg.paths.data_dir, "generate")
    recorded = (load_manifest(stamp_path).fingerprints.get("corpus", "")
                if stamp_path.exists() else "")
    check_fingerprint(stamp_path, recorded, _corpus_fingerprint(cfg), "generate")
    files = {}
    records = []
    for fid in ids:
        path = flights_dir / f"{fid}.csv"
        if not path.exists():
            raise IoError(f"missing flight file {path}; run `tssid generate` first")
        rec, files[f"flights/{fid}.csv"] = ingest_cached(
            path, corpus.sample_rate_hz, fid, cfg.paths.out_dir / "cache", channels)
        records.append(rec)
    if man_path.exists():
        segments = load_maneuvers(man_path, corpus.flight_ids,
                                  {rec.flight_id: rec.n_samples for rec in records})
        files[man_path.name] = file_sha256(man_path)
        records = [rec.with_maneuvers(segments.get(rec.flight_id, ())) for rec in records]
    return [filter_maneuvers(rec, cfg.maneuvers.exclude_labels) for rec in records], files


def _split_of(cfg: RunConfig) -> DatasetSplit:
    """The train/val/test split of the corpus flight ids; reads no flight."""
    ids = list(_corpus_cfg(cfg).flight_ids)
    if cfg.split.explicit is not None:
        return split_dataset(ids, explicit=cfg.split.explicit)
    fractions = cfg.split.fractions or (0.8, 0.1, 0.1)
    return split_dataset(ids, fractions=fractions, seed=derive_seed(cfg.seed, "split"))


def _fixed_inputs(cfg: RunConfig) -> tuple[str, ...] | None:
    """The configured net inputs; None when correlation rules pick them."""
    feats = cfg.features
    if feats.inputs:
        return feats.inputs
    return None if feats.rules != FeatureRules() else DEFAULT_FEATURES


def _resolve_features(cfg: RunConfig, records: Sequence[FlightRecord]) -> tuple[str, ...]:
    inputs = _fixed_inputs(cfg)
    if inputs is None:
        feats = cfg.features
        return select_features(correlation_matrix(records), feats.target, feats.rules)
    return inputs


def _net_channels(cfg: RunConfig) -> tuple[str, ...] | None:
    """The channels a net reads: its inputs and the target, or every one under rules."""
    inputs = _fixed_inputs(cfg)
    return None if inputs is None else (*inputs, cfg.features.target)


def _model_channels(model: SparseModel | TrainedNet) -> tuple[str, ...]:
    """The channels a fitted model reads: its state and input, or its features and target."""
    if isinstance(model, SparseModel):
        return model.state_names[0], model.input_names[0]
    return (*model.feature_names, model.target_name)


def _net_data(records: Sequence[FlightRecord], inputs: Sequence[str], target: str,
              scaler, windows: tuple[int, int] | None) -> NetData:
    """Scaled net data of the records' included maneuvers.

    Without ``windows`` it holds one row per included sample; with
    ``(lookback, stride)`` it holds the lookback windows inside each
    included maneuver.  No record gives an empty dataset.
    """
    shape = (0,) if windows is None else (0, windows[0])
    xs, ys = [np.empty(shape + (len(inputs),))], [np.empty(shape)]
    for rec in records:
        X = np.column_stack([scale_series(scaler, nm, rec.values(nm)) for nm in inputs])
        y = scale_series(scaler, target, rec.values(target))
        if windows is None:
            mask = rec.included_mask()
            xs.append(X[mask])
            ys.append(y[mask])
        else:
            win = make_windows(X, y, *windows, rec.maneuvers or None)
            xs.append(win.inputs)
            ys.append(win.targets)
    return NetData(np.concatenate(xs), np.concatenate(ys))


def _train_one(cfg: RunConfig, kind: str, train_recs: Sequence[FlightRecord],
               val_recs: Sequence[FlightRecord], inputs: Sequence[str],
               fp: str) -> TrainedNet:
    target = cfg.features.target
    scaler = fit_minmax(train_recs, tuple(inputs) + (target,))
    if kind == "ffnn":
        model_config, train_config, windows = cfg.mlp_config(len(inputs)), cfg.ffnn.train, None
    else:
        model_config, train_config = cfg.lstm_config(len(inputs)), cfg.lstm.train
        windows = (cfg.lstm.lookback, cfg.lstm.stride)
    train_data, val_data = (_net_data(recs, inputs, target, scaler, windows)
                            for recs in (train_recs, val_recs))
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
    return cfg.paths.out_dir / f"{model_id}_{suffix}"


def _read_simulation(cfg: RunConfig, model_id: str, records: Sequence[FlightRecord],
                     sim_fp: str) -> dict[str, np.ndarray] | None:
    """The predictions ``simulate`` wrote for this model, or None unless fresh.

    Fresh means ``manifest_simulate.json`` records ``sim_fp`` for the
    model's sim directory and every segment CSV still has the sha256 it
    recorded.  ``TRQ_pred``, the last column, was written with ``repr``, so
    the values read back are bitwise the ones integrated.
    """
    try:
        man = load_manifest(manifest_path(cfg.paths.out_dir, "simulate"))
    except IoError:
        return None
    sim_dir = Path(f"sim_{model_id}")
    digests = man.extra.get("output_sha256")
    if man.fingerprints.get(sim_dir.name) != sim_fp or not isinstance(digests, dict):
        return None
    preds = {rec.flight_id: np.full(rec.n_samples, np.nan) for rec in records}
    for rec, seg, rel in _segment_files(records, sim_dir):
        try:
            blob = (cfg.paths.out_dir / rel).read_bytes()
            if hashlib.sha256(blob).hexdigest() != digests.get(rel.as_posix()):
                return None
            values = [float(row.rpartition(",")[2])
                      for row in blob.decode("utf-8").splitlines()[1:]]
        except (OSError, ValueError):
            return None
        preds[rec.flight_id][seg.start_index:seg.end_index] = values
    return preds


def _sparse_predictions(stage: _Stage, model_id: str, model: SparseModel,
                        records: Sequence[FlightRecord],
                        test_ids: Sequence[str]) -> dict[str, np.ndarray]:
    """Each record's prediction by the sparse model.

    They are read from a fresh simulation, whose stamp the stage then
    records, or else integrated.
    """
    sim_fp = _sim_fingerprint(stage, model_id, model, test_ids)
    preds = _read_simulation(stage.cfg, model_id, records, sim_fp)
    if preds is None:
        return simulate_flights(model, records)
    stage.stamp(stage.cfg.paths.out_dir / f"sim_{model_id}", sim_fp)
    return preds


def _staged(path: Path) -> Path:
    """Where a unit writes ``path`` before the parent lets it replace the old file."""
    return path.with_name(path.name + ".staged")


def _segment_files(records: Sequence[FlightRecord], directory: Path):
    """Each record's scoring segments, in order, each with its CSV path under ``directory``."""
    for rec in records:
        for i, seg in enumerate(rec.scoring_segments()):
            safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in seg.label)
            yield rec, seg, directory / f"{rec.flight_id}__{i:02d}_{safe}.csv"


# --- independent units of work on every CPU -------------------------------------

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


def _balanced_shares(sizes: Sequence[float], n_shares: int) -> list[list[int]]:
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


def _openblas_threads() -> tuple[Callable, Callable] | None:
    """The thread-count getter and setter of the OpenBLAS this process has loaded, or None.

    numpy offers no thread control, so the library is found among the
    process's mappings (Linux) and its ``openblas_{get,set}_num_threads``
    are called under the symbol prefix and suffix of the build.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block, and every process forked in it, with one OpenBLAS thread.

    Processes that share the CPUs lose to BLAS threads, which spin while
    they wait: on a 2-CPU VM the ``shifted`` preset's ``retrain-experiment``
    took 37.6 s forked with two OpenBLAS threads per process, 19.7 s with
    one, and 33.7 s serial.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _timed(fn: Callable, arg) -> tuple:
    """``fn(arg)`` and its wall time."""
    t0 = time.perf_counter()
    return fn(arg), time.perf_counter() - t0


def _fork_child(k: int, fn: Callable, args: Sequence, share: Sequence[int]) -> tuple[int, int]:
    """Fork child ``k`` to run ``share``: its pid and the read end of its pipe.

    The child sends its timed results down the pipe and exits 0, or exits 1
    if a unit raises or the results do not pickle.  It leaves by
    ``os._exit``, so it prints nothing and runs no exit handler or buffer
    flush of the parent's.  A pipe or fork that cannot be made raises its
    ``OSError`` with no descriptor left open.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        _start_on_cpu(k)
        done = {i: _timed(fn, args[i]) for i in share}
        with open(w, "wb") as pipe:
            pickle.dump(done, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _fork_units(fn: Callable, units: Mapping[str, object], costs: Sequence[float],
                timings: dict[str, float]) -> Iterator:
    """Yield ``fn(unit)`` for each of the named ``units``, in order, computed on every usable CPU.

    This is a serial loop over the units: each unit's result is yielded and
    its wall time goes into ``timings`` under its name.  With more than one
    usable CPU, a parallel attempt first fills in results ahead of the loop.
    The units are split into one share per CPU, balanced by ``costs``; the
    parent forks a child per share after the first (:func:`_fork_child`)
    and runs the first share itself, each process starting on a CPU of its
    own and using one BLAS thread.  A child's results come back pickled
    through a pipe, and every child is reaped.  Whatever goes wrong in the
    attempt (a pipe or fork that cannot be made, a child that fails, dies
    or cannot pickle its results, an exception in the parent's share) only
    leaves results missing, and the loop computes each missing unit in
    order, here.  So a forked run yields and raises what a serial run does;
    units after a failing one may have written their files.

    ``fn`` must leave the caller's state alone: what a unit adds to the
    stage travels in its result, which the caller merges as it iterates.
    A unit's files are a pure function of the unit, so they equal a serial
    run's.  ``os.fork`` rather than a process pool: nothing is sent to a
    child, and the only other thread is OpenBLAS's pool, which shuts itself
    down across a fork.
    """
    names, args = list(units), list(units.values())
    shares = _balanced_shares(costs, max(1, min(_usable_cpus(), len(args))))
    done: dict[int, tuple] = {}
    if len(shares) > 1:
        children: list[tuple[int, int]] = []
        with _one_blas_thread():
            try:
                with contextlib.suppress(Exception):  # what it leaves undone, the loop computes
                    _start_on_cpu(0)
                    for k, share in enumerate(shares[1:], start=1):
                        children.append(_fork_child(k, fn, args, share))
                    for i in shares[0]:
                        done[i] = _timed(fn, args[i])
            finally:
                for pid, fd in children:
                    with open(fd, "rb") as pipe:  # to the end first: a full pipe blocks the child
                        blob = pipe.read()
                    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0:
                        done.update(pickle.loads(blob))
    for i, name in enumerate(names):
        result, timings[name] = done[i] if i in done else _timed(fn, args[i])
        yield result


# --- commands ---------------------------------------------------------------

def cmd_generate(stage: _Stage) -> None:
    """Synthesize the corpus: one CSV per flight, ``maneuvers.csv`` and the manifest.

    Each flight is one unit of :func:`_fork_units`, costed by its sample
    count, so flights are generated on every CPU in the process's affinity
    mask.  Each file is a pure function of its spec, so the files are
    byte-identical to a serial run; only the order of ``TSSID_LOG=INFO``
    lines may interleave.
    """
    cfg = stage.cfg
    specs = _corpus_cfg(cfg).build_specs()
    segments = {spec.flight_id: flight_segments(spec) for spec in specs}
    flights_dir = cfg.paths.data_dir / "flights"

    def write_flight(spec: SyntheticFlightSpec) -> None:
        rec = generate_flight(spec)
        emit_csv(rec, flights_dir / f"{rec.flight_id}.csv")
        log.info("generated %s: %.1f s, %d samples", rec.flight_id,
                 rec.duration_s, rec.n_samples)

    for _ in _fork_units(write_flight, {spec.flight_id: spec for spec in specs},
                         [segs[-1].end_index for segs in segments.values()], stage.timings):
        pass
    man_path = cfg.paths.data_dir / "maneuvers.csv"
    save_maneuvers(segments, man_path)
    for spec in specs:
        stage.wrote(flights_dir / f"{spec.flight_id}.csv")
    stage.wrote(man_path)
    stage.fingerprints["corpus"] = _corpus_fingerprint(cfg)
    print(f"generated {len(specs)} flights in {cfg.paths.data_dir} "
          f"({manifest_path(stage.base_dir, stage.command).name})")


def cmd_ingest(stage: _Stage) -> None:
    records = stage.records(_corpus_cfg(stage.cfg).flight_ids, channels=())
    lines = ["flight_id,n_samples,duration_s,n_maneuvers,n_excluded"]
    for rec in records:
        n_exc = sum(1 for seg in rec.maneuvers if seg.excluded)
        lines.append(f"{rec.flight_id},{rec.n_samples},{rec.duration_s!r},"
                     f"{len(rec.maneuvers)},{n_exc}")
    out = stage.cfg.paths.out_dir / "ingest_summary.csv"
    stage.write_text(out, "\n".join(lines) + "\n")
    total = sum(r.n_samples for r in records)
    print(f"ingested {len(records)} flights, {total} samples -> {out}")


def cmd_correlate(stage: _Stage) -> None:
    cfg = stage.cfg
    corr = correlation_matrix(stage.flights(_corpus_cfg(cfg).flight_ids))
    lines = ["channel," + ",".join(corr.names)]
    for i, nm in enumerate(corr.names):
        lines.append(nm + "," + ",".join(repr(float(v)) for v in corr.values[i]))
    out = cfg.paths.out_dir / "correlation_matrix.csv"
    stage.write_text(out, "\n".join(lines) + "\n")
    target = cfg.features.target
    if target in corr.names:
        pairs = sorted(((abs(corr.corr(nm, target)), nm) for nm in corr.names
                        if nm != target), reverse=True)
        top = ", ".join(f"{nm} ({v:.3f})" for v, nm in pairs[:5])
        print(f"correlations with {target}: {top}")
    print(f"wrote {out}")


def cmd_split(stage: _Stage) -> None:
    cfg = stage.cfg
    split = _split_of(cfg)
    payload = {"train": list(split.train_ids), "val": list(split.val_ids),
               "test": list(split.test_ids)}
    out = cfg.paths.out_dir / "split.yaml"
    stage.write_text(out, yaml.safe_dump(payload, sort_keys=True))
    print(f"split {len(_corpus_cfg(cfg).flight_ids)} flights: {len(split.train_ids)} train / "
          f"{len(split.val_ids)} val / {len(split.test_ids)} test -> {out}")


def cmd_fit_sindy(stage: _Stage, orders: Sequence[int]) -> None:
    cfg = stage.cfg
    split = _split_of(cfg)
    train_recs = stage.records(split.train_ids, SPARSE_CHANNELS)
    for order in orders:
        with stage.timed(f"order{order}"):
            model = fit_sparse(train_recs, order, cfg.sindy_config(order))
            mp = _model_path(cfg, f"sindy{order}")
            fp = _fresh_fingerprint(cfg, f"sindy{order}")
            save_model(dataclasses.replace(model, fingerprint=fp), mp)
            stage.wrote(mp, fp)
            eq_text = format_equations(model)
            resid = ", ".join(f"{r:.6g}" for r in model.residual_rmse)
            stage.write_text(cfg.paths.out_dir / f"sindy{order}_equations.txt",
                             eq_text + f"\nresidual_rmse: {resid}\n")
            print(f"sindy order {order}:")
            print("  " + eq_text.replace("\n", "\n  "))


def cmd_train(stage: _Stage, kinds: Sequence[str]) -> None:
    cfg = stage.cfg
    split = _split_of(cfg)
    records = stage.records(split.train_ids + split.val_ids, _net_channels(cfg))
    train_recs = records[:len(split.train_ids)]
    val_recs = records[len(split.train_ids):]
    inputs = _resolve_features(cfg, train_recs)
    for kind in kinds:
        with stage.timed(kind):
            wp = _model_path(cfg, kind)
            fp = _fresh_fingerprint(cfg, kind)
            net = _train_one(cfg, kind, train_recs, val_recs, inputs, fp)
            save_net(net, wp)
            stage.wrote(wp, fp)
            stage.write_text(cfg.paths.out_dir / f"{kind}_loss.csv", _loss_csv(net))
        final_val = net.val_mse[-1] if len(net.val_mse) else float("nan")
        print(f"trained {kind}: {len(net.train_mse)} epochs, "
              f"final train mse {net.train_mse[-1]:.3e}, val mse {final_val:.3e}")


def cmd_simulate(stage: _Stage, orders: Sequence[int]) -> None:
    """Integrate each sparse model over the test flights and write one CSV per segment.

    Each model is one unit of :func:`_fork_units`, since ``rk4_sparse``
    batches a model's segments across flights.  Every model is loaded
    first, so that the flights are read with only the channels they use.
    """
    cfg = stage.cfg
    test_ids = _split_of(cfg).test_ids
    models = {f"sindy{order}": _load_model(cfg, f"sindy{order}") for order in orders}
    test_recs = stage.records(test_ids, [nm for m in models.values() for nm in _model_channels(m)])

    def simulate_model(model_id: str):
        model = models[model_id]
        sim_dir = cfg.paths.out_dir / f"sim_{model_id}"
        stamps = {_model_path(cfg, model_id): model.fingerprint,
                  sim_dir: _sim_fingerprint(stage, model_id, model, test_ids)}
        preds = simulate_flights(model, test_recs)
        outputs = []
        for rec, seg, path in _segment_files(test_recs, sim_dir):
            s, e = seg.start_index, seg.end_index
            write_float_csv(path, ("time_s", "WF", "TRQ_actual", "TRQ_pred"),
                            (np.arange(s, e) * rec.dt, rec.values(model.input_names[0])[s:e],
                             rec.values(model.state_names[0])[s:e], preds[rec.flight_id][s:e]))
            outputs.append((path, file_sha256(path)))
        return model_id, stamps, outputs

    digests = stage.extra["output_sha256"] = {}
    for model_id, stamps, outputs in _fork_units(simulate_model, {m: m for m in models},
                                                 [1] * len(models), stage.timings):
        for path, fp in stamps.items():
            stage.stamp(path, fp)
        for path, sha in outputs:
            stage.wrote(path)
            digests[stage.rel(path)] = sha
        print(f"simulated {model_id} over {len(test_recs)} test flights "
              f"-> {cfg.paths.out_dir / f'sim_{model_id}'}")


def cmd_evaluate(stage: _Stage, model_ids: Sequence[str]) -> None:
    """Score each model on the test flights and write its report and overlay CSVs.

    Each test flight is one unit of :func:`_fork_units`: it makes every
    net's prediction for the flight and writes the flight's overlays of
    every model as ``.staged`` files.  A model's overlays replace the old
    ones only once its report is written, so a model that fails to score
    leaves its old report and overlays in place.  Every model is loaded
    first, so that the flights are read with only the channels they use.
    """
    cfg = stage.cfg
    test_ids = _split_of(cfg).test_ids
    target = cfg.features.target
    models = {model_id: stage.model(model_id) for model_id in model_ids}
    test_recs = stage.records(test_ids, [target, *(nm for model in models.values()
                                                   for nm in _model_channels(model))])
    preds = {model_id: {} if model_id in NET_KINDS
             else _sparse_predictions(stage, model_id, model, test_recs, test_ids)
             for model_id, model in models.items()}
    overlay_dir = cfg.paths.out_dir / "overlays"
    overlays = {model_id: [path for *_, path in _segment_files(test_recs, overlay_dir / model_id)]
                for model_id in model_ids}

    def predict_flight(rec: FlightRecord):
        net_preds = {model_id: predict_series(net, rec) for model_id, net in models.items()
                     if model_id in NET_KINDS}
        for model_id in model_ids:
            pred = net_preds[model_id] if model_id in NET_KINDS else preds[model_id][rec.flight_id]
            for _, seg, path in _segment_files([rec], overlay_dir / model_id):
                s, e = seg.start_index, seg.end_index
                write_overlay_csv(_staged(path), np.arange(s, e) * rec.dt,
                                  rec.values(target)[s:e], pred[s:e])
        return rec.flight_id, net_preds

    reports = []
    try:
        for flight_id, net_preds in _fork_units(predict_flight,
                                                {rec.flight_id: rec for rec in test_recs},
                                                [rec.n_samples for rec in test_recs],
                                                stage.timings):
            for model_id, pred in net_preds.items():
                preds[model_id][flight_id] = pred
        for model_id, model in models.items():
            report = dataclasses.replace(
                score_model(model_id, preds[model_id], test_recs, target),
                fingerprint=_eval_fingerprint(cfg, model.fingerprint, test_ids))
            rp = cfg.paths.out_dir / f"eval_{model_id}.txt"
            save_report(report, rp)
            stage.wrote(rp, report.fingerprint)
            reports.append(report)
            for path in overlays[model_id]:
                _staged(path).replace(path)
                stage.wrote(path)
            print(f"{model_id}: overall rMAE {report.overall_rmae * 100:.2f}%")
    finally:
        for paths in overlays.values():
            for path in paths:
                _staged(path).unlink(missing_ok=True)
    cp = cfg.paths.out_dir / "comparison.csv"
    write_comparison_csv(compare_models(reports), cp)
    stage.wrote(cp)
    print(f"wrote {cp}")


def cmd_retrain_experiment(stage: _Stage) -> None:
    """Train and score each net without and with ``retrain.augment_ids`` among its flights.

    Each (phase, net) pair is one unit of :func:`_fork_units`.
    """
    cfg = stage.cfg
    if not cfg.retrain.augment_ids:
        raise ConfigError("retrain-experiment needs retrain.augment_ids in the config")
    split = _split_of(cfg)
    missing = [i for i in cfg.retrain.augment_ids if i not in split.test_ids]
    if missing:
        raise ConfigError(
            f"retrain.augment_ids must be test flights; not in test set: {missing}"
        )
    eval_ids = [i for i in split.test_ids if i not in cfg.retrain.augment_ids]
    if not eval_ids:
        raise ConfigError("augmentation would consume the whole test set; "
                          "leave at least one flight for evaluation")
    # the split covers every flight, and the experiment uses all of them
    ids = _corpus_cfg(cfg).flight_ids
    records = stage.records(ids, _net_channels(cfg))
    by_id = dict(zip(ids, records))
    eval_recs = [by_id[i] for i in eval_ids]
    val_recs = [by_id[i] for i in split.val_ids]
    inputs = _resolve_features(cfg, [by_id[i] for i in split.train_ids])

    rt_dir = cfg.paths.out_dir / "retrain"
    phases = {
        "baseline": list(split.train_ids),
        "retrained": list(split.train_ids) + list(cfg.retrain.augment_ids),
    }

    def train_and_score(unit: tuple[str, str]):
        phase, kind = unit
        net = _train_one(cfg, kind, [by_id[i] for i in phases[phase]], val_recs, inputs,
                         _model_fingerprint(cfg, kind, phases[phase], split.val_ids))
        wp = rt_dir / f"{kind}_{phase}_weights.bin"
        save_net(net, wp)
        preds = {r.flight_id: predict_series(net, r) for r in eval_recs}
        report = dataclasses.replace(
            score_model(kind, preds, eval_recs, cfg.features.target),
            fingerprint=_eval_fingerprint(cfg, net.fingerprint, eval_ids))
        rp = rt_dir / f"eval_{phase}_{kind}.txt"
        save_report(report, rp)
        return phase, kind, {wp: net.fingerprint, rp: report.fingerprint}, report.overall_rmae

    units = {f"{phase}_{kind}": (phase, kind) for phase in phases for kind in NET_KINDS}
    # a net's training work grows with its epochs and with its training samples
    epochs = {"ffnn": cfg.ffnn.train.epochs, "lstm": cfg.lstm.train.epochs}
    costs = [epochs[kind] * sum(by_id[i].n_samples for i in phases[phase])
             for phase, kind in units.values()]
    scores: dict[str, dict[str, float]] = {k: {} for k in NET_KINDS}
    for phase, kind, stamps, rmae in _fork_units(train_and_score, units, costs, stage.timings):
        for path, fp in stamps.items():
            stage.wrote(path, fp)
        scores[kind][phase] = rmae
        print(f"{phase} {kind}: overall rMAE {rmae * 100:.2f}%")
    stage.extra["runs"] = [{"phase": phase, "train_flights": train_ids}
                           for phase, train_ids in phases.items()]

    lines = ["tssid retrain report v1",
             "augment_flights: " + ",".join(cfg.retrain.augment_ids),
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
    stage.write_text(report_path, "\n".join(lines) + "\n")
    print(f"wrote {report_path}")


def cmd_report(stage: _Stage, model_ids: Sequence[str]) -> None:
    cfg = stage.cfg
    test_ids = _split_of(cfg).test_ids
    reports = []
    for model_id in model_ids:
        path = cfg.paths.out_dir / f"eval_{model_id}.txt"
        if not path.exists():
            raise MissingArtifact(f"no evaluation at {path}; run `tssid evaluate` first")
        report = load_report(path)
        if report.model_id != model_id:
            raise IoError(f"{path}: holds the report of model {report.model_id!r}, "
                          f"not {model_id!r}")
        expected = _eval_fingerprint(cfg, _fresh_fingerprint(cfg, model_id), test_ids)
        check_fingerprint(path, report.fingerprint, expected, "evaluate")
        stage.stamp(path, report.fingerprint)
        reports.append(report)
    table = compare_models(reports)
    cp = cfg.paths.out_dir / "comparison.csv"
    write_comparison_csv(table, cp)
    stage.wrote(cp)

    width = max(len(f) for f in table.flight_ids + ("overall",)) + 2
    header = "flight".ljust(width) + "".join(m.rjust(12) for m in table.model_ids)
    rows = [header]
    for r, fid in enumerate(table.flight_ids):
        cells = "".join(f"{v * 100:11.2f}%" for v in table.per_flight[r])
        rows.append(fid.ljust(width) + cells)
    rows.append("overall".ljust(width)
                + "".join(f"{v * 100:11.2f}%" for v in table.overall))
    text = "\n".join(rows) + "\n"
    stage.write_text(cfg.paths.out_dir / "report.txt", text)
    print(text, end="")


# --- the subcommands and their arguments ---------------------------------------

class _Pick(NamedTuple):
    """``flag`` names any of ``choices``, each once; else ``default(cfg)``."""

    flag: str
    choices: tuple
    default: Callable[[RunConfig], tuple]


_ORDERS = _Pick("--order", (1, 2), lambda cfg: (1, 2))
_NETS = _Pick("--model", NET_KINDS, lambda cfg: NET_KINDS)
_MODELS = _Pick("--model", MODEL_IDS, lambda cfg: cfg.evaluate.models)

#: Every subcommand, in pipeline order: its help text, its selection flag, and
#: the ``paths`` entry its receipt is based in.  ``x-y`` runs as ``cmd_x_y``.
COMMANDS: dict[str, tuple[str, _Pick | None, str]] = {
    "generate": ("synthesize the flight corpus", None, "data_dir"),
    "ingest": ("read the corpus and summarize it", None, "out_dir"),
    "correlate": ("channel correlation matrix", None, "out_dir"),
    "split": ("assign flights to train/val/test", None, "out_dir"),
    "fit-sindy": ("fit sparse ODE models", _ORDERS, "out_dir"),
    "train": ("train neural predictors", _NETS, "out_dir"),
    "simulate": ("integrate fitted ODE models over test flights", _ORDERS, "out_dir"),
    "evaluate": ("score models on the test flights", _MODELS, "out_dir"),
    "retrain-experiment": ("distribution-shift retraining study", None, "out_dir"),
    "report": ("comparison table from saved evaluations", _MODELS, "out_dir"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tssid",
        description="System identification of turboshaft engine torque "
                    "from flight-log time series.",
    )
    parser.add_argument("--version", action="version", version=f"tssid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, pick, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's global seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if pick is not None:
            p.add_argument(pick.flag, action="append", dest="picked", choices=pick.choices,
                           type=type(pick.choices[0]), metavar=pick.flag[2:].upper(),
                           help=f"one of {', '.join(map(str, pick.choices))} "
                                f"(repeatable, each once)")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the named command under a new stage receipt, then write the receipt's manifest.

    ``cmd_<name>`` is looked up by its module-global name on every call, so
    a wrapper that replaces it there (perfbench's tracer) is what runs.
    """
    _, pick, base = COMMANDS[args.command]
    picked = getattr(args, "picked", None)
    for i, choice in enumerate(picked or ()):
        if choice in picked[:i]:
            raise ConfigError(f"{pick.flag}: {choice!r} is listed twice")
    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    stage = _Stage(cfg, args.command, getattr(cfg.paths, base))
    run = globals()["cmd_" + args.command.replace("-", "_")]
    if pick is None:
        run(stage)
    else:
        run(stage, tuple(picked) if picked else pick.default(cfg))
    stage.finish()
    return 0


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
    # A stage process's import-time objects live until it exits: frozen, they
    # are walked by no later collection, nor by the final one at exit.
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)
