#!/usr/bin/env python3
"""Pipeline benchmark: the ``tssid`` CLI run stage by stage, as a user runs it.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sindy-cascade --seed 1 --seconds 42 --trace 0

One round generates a corpus from the workload's configuration and the
seed, then runs every later stage, each in a fresh ``python3 -m tssid.cli``
process, and checks the outputs (see ``checks.py``).  Rounds repeat until
``--seconds`` are used: a round starts only if it is expected to end
within them, and a run makes at least ``MIN_ROUNDS``.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (stage processes), and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (see
``end_to_end``).  With ``--trace 1`` every second round runs its stages under
``tracer.py`` and the metrics are the per-layer ones, medians over the
traced rounds, plus ``trace.overhead_s``: the traced minus the untraced
``pipeline_s``.  See ``README.md`` for the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
#: every run ends (and every stage is killed) within this many seconds
RUN_BUDGET_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

MISO_NOISE = {"TRQ": 0.3, "WF": 0.5, "COL": 0.25, "NR": 0.04, "T1": 0.08,
              "P0": 0.015, "AIRSPEED": 0.8, "T45": 0.8, "TOil": 0.2, "POil": 0.2,
              "TAT": 0.2, "NP": 0.05, "NG": 0.1, "NGR": 0.1}
CASCADE = {"mu": 0.4, "tau1": 0.6, "tau2": 0.15}
RECOVERY = {"a": 10.0, "b": 0.5, "c": 0.2}
#: relative tolerance on the fitted coefficients of the plant's terms
CASCADE_REL_TOL = 0.01
RECOVERY_REL_TOL = 1e-3


def _ids(prefix: str, lo: int, hi: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(lo, hi + 1)]


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[tuple[str, ...], ...]
    score_stages: tuple[str, ...]
    config: dict

    @property
    def split(self) -> dict:
        return self.config["split"]

    @property
    def models(self) -> list[str]:
        return self.config["evaluate"]["models"]

    @property
    def flight_ids(self) -> list[str]:
        return [fid for t in self.config["corpus"]["templates"]
                for fid in _ids(t["id_prefix"], 1, t["count"])]

    @property
    def exclude_labels(self) -> list[str]:
        return self.config.get("maneuvers", {}).get("exclude_labels", [])


def _template(count, prefix, duration_s, wf_low, wf_high, chirp_s, f0, f1, salt,
              taxi_s=0.0):
    return {"count": count, "id_prefix": prefix, "duration_s": duration_s,
            "wf_low": wf_low, "wf_high": wf_high, "taxi_s": taxi_s,
            "chirp_s": chirp_s, "chirp_f0_hz": f0, "chirp_f1_hz": f1,
            "seed_salt": salt}


def _sindy_section() -> dict:
    # the second-order fit uses the linear library: with the quadratic one,
    # STLSQ keeps 10-13 collinear terms on some corpora (see README)
    return {"threshold": 0.05, "max_iterations": 20,
            "derivative_method": "smoothed_central",
            "library": {"degree": 2, "cross_terms": True},
            "second": {"threshold": 2.0, "library": {"degree": 1}}}


def neural_miso() -> Workload:
    # the miso preset's corpus and nets, with fewer training flights and
    # epochs, so that a run holds several rounds, and long test flights, so
    # that scoring takes more than a second
    templates = [
        _template(4, "msn-a", 60.0, 220.0, 480.0, 12.0, 0.08, 0.5, "pool", taxi_s=5.0),
        _template(4, "msn-b", 120.0, 230.0, 470.0, 12.0, 0.08, 0.7, "test", taxi_s=5.0),
    ]
    train = {"optimizer": "rmsprop", "learning_rate": 1.0e-4, "batch_size": 64,
             "epochs": 12}
    config = {
        "corpus": {"sample_rate_hz": 20.0,
                   "ground_truth": {"order": "second", **CASCADE,
                                    "noise_sigma": MISO_NOISE},
                   "templates": templates},
        "maneuvers": {"exclude_labels": ["taxiing"]},
        "split": {"train": _ids("msn-a", 1, 3), "val": _ids("msn-a", 4, 4),
                  "test": _ids("msn-b", 1, 4)},
        "features": {"target": "TRQ", "inputs": ["COL", "T1", "P0", "NR", "AIRSPEED"]},
        "ffnn": {"hidden_layers": [24, 24, 24, 24], "train": train},
        "lstm": {"hidden_size": 6, "num_layers": 3, "lookback": 20, "stride": 10,
                 "train": {"optimizer": "adam", "learning_rate": 5.0e-4,
                           "batch_size": 64, "epochs": 4}},
        "evaluate": {"models": ["ffnn", "lstm"]},
    }
    return Workload("neural-miso",
                    (("generate",), ("ingest",), ("correlate",), ("split",),
                     ("train",), ("evaluate",), ("report",)),
                    ("evaluate", "report"), config)


def sindy_cascade() -> Workload:
    # the cascade preset's plant, corpus and fit, with two test flights
    templates = [_template(8, "casc", 55.0, 180.0, 520.0, 16.0, 0.05, 0.6, "cascade")]
    config = {
        "corpus": {"sample_rate_hz": 50.0,
                   "ground_truth": {"order": "second", **CASCADE},
                   "templates": templates},
        "split": {"train": _ids("casc", 1, 5), "val": _ids("casc", 6, 6),
                  "test": _ids("casc", 7, 8)},
        "sindy": _sindy_section(),
        "evaluate": {"models": ["sindy1", "sindy2"]},
    }
    return Workload("sindy-cascade",
                    (("generate",), ("ingest",), ("correlate",), ("split",),
                     ("fit-sindy",), ("simulate",), ("evaluate",), ("report",)),
                    ("simulate", "evaluate", "report"), config)


def corpus_io() -> Workload:
    # many long full-channel flights of the recovery plant: CSV reads and
    # writes dominate; the fit and the test split stay small
    templates = [_template(8, "rec", 120.0, 140.0, 560.0, 12.0, 0.05, 0.3, "recovery")]
    config = {
        "corpus": {"sample_rate_hz": 50.0,
                   "ground_truth": {"order": "first", **RECOVERY},
                   "templates": templates},
        "split": {"train": _ids("rec", 1, 6), "val": _ids("rec", 7, 7),
                  "test": _ids("rec", 8, 8)},
        "sindy": _sindy_section(),
        "evaluate": {"models": ["sindy1"]},
    }
    return Workload("corpus-io",
                    (("generate",), ("ingest",), ("correlate",), ("split",),
                     ("fit-sindy", "--order", "1"), ("simulate", "--order", "1"),
                     ("evaluate",), ("report",)),
                    ("simulate", "evaluate", "report"), config)


WORKLOADS = {w.name: w for w in (neural_miso(), sindy_cascade(), corpus_io())}


# --- checks ------------------------------------------------------------------------

def check_round(wl: Workload, rdir: Path) -> list[str]:
    data, out = rdir / "data", rdir / "out"
    errors = checks.check_sample_counts(out / "ingest_summary.csv", data, wl.flight_ids,
                                        wl.config["corpus"]["sample_rate_hz"])
    scores = {}
    for model in wl.models:
        sc, errs = checks.recompute_scores(out, data, model, wl.split["test"],
                                           wl.exclude_labels)
        errors += errs
        errors += checks.check_eval_report(
            checks.parse_eval_report(out / f"eval_{model}.txt"), sc, model)
        scores[model] = sc
    errors += checks.check_comparison(out / "comparison.csv", scores)
    errors += checks.check_printed_percent((rdir / "evaluate.out").read_text(), scores)
    errors += checks.check_report_table((out / "report.txt").read_text(), scores)

    if wl.name == "corpus-io":
        fitted = checks.parse_model(out / "sindy1_model.txt")["TRQ"]
        errors += checks.check_terms(fitted, checks.first_order_terms(**RECOVERY),
                                     RECOVERY_REL_TOL, "sindy1 dTRQ/dt")
        errors += checks.check_sim_matches_overlays(out, 1)
    elif wl.name == "sindy-cascade":
        fitted = checks.parse_model(out / "sindy2_model.txt")["TRQ_dot"]
        errors += checks.check_terms(fitted, checks.cascade_terms(**CASCADE),
                                     CASCADE_REL_TOL, "sindy2 dTRQ_dot/dt")
        if not scores["sindy2"]["overall"] < scores["sindy1"]["overall"]:
            errors.append(f"sindy2 rMAE {scores['sindy2']['overall']!r} is not below "
                          f"sindy1's {scores['sindy1']['overall']!r}")
        for order in (1, 2):
            errors += checks.check_sim_matches_overlays(out, order)
    elif wl.name == "neural-miso":
        for kind in ("ffnn", "lstm"):
            errors += checks.check_loss_decreases(out / f"{kind}_loss.csv", kind)
        const = checks.constant_predictor_rmae(data, wl.split["train"], wl.split["test"],
                                               wl.exclude_labels)
        if not scores["ffnn"]["overall"] < const:
            errors.append(f"ffnn rMAE {scores['ffnn']['overall']!r} is not below the "
                          f"constant predictor's {const!r}")
    return errors


# --- processes ---------------------------------------------------------------------

def pinned_env() -> dict[str, str]:
    """One BLAS/OpenMP thread, no TSSID_* variables, bytecode kept out of src/."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TSSID_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_process(cmd: list[str], env: dict, log: Path, deadline: float):
    """Run one process; return (wall seconds, exit code, peak RSS in MB)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        killer.start()
        try:
            # os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # keep the largest of every child waited for so far
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe(env: dict) -> dict:
    """Backend and library versions as the stage processes see them."""
    code = ("import json, os, platform, numpy, tssid.cli, tssid.kernels as k; "
            "print(json.dumps({'backend': k.BACKEND, 'numpy': numpy.__version__, "
            "'python': platform.python_version(), 'cpu_count': os.cpu_count(), "
            "'affinity': len(os.sched_getaffinity(0))}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import tssid: {proc.stderr.strip()}")
    facts = json.loads(proc.stdout)
    facts["threads"] = {var: env[var] for var in THREAD_VARS}
    return facts


def run_round(wl: Workload, seed: int, rdir: Path, env: dict, traced: bool,
              deadline: float) -> dict:
    rdir.mkdir(parents=True)
    cfg_path = rdir / "run.yaml"
    config = {"seed": seed,
              "paths": {"data_dir": str(rdir / "data"), "out_dir": str(rdir / "out")},
              **wl.config}
    cfg_path.write_text(json.dumps(config, indent=1))  # JSON is valid YAML
    walls, rss, failed, traces = {}, {}, 0, []
    for stage in wl.stages:
        name = stage[0]
        args = [*stage, "--config", str(cfg_path)]
        if traced:
            spans = rdir / f"{name}.spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                   str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "tssid.cli", *args]
        wall, code, peak = run_process(cmd, env, rdir / name, deadline)
        walls[name], rss[name] = wall, peak
        if code != 0:
            failed += 1
            print(f"{wl.name}: `tssid {' '.join(stage)}` exited {code}: "
                  f"{(rdir / f'{name}.err').read_text()[-400:]}", file=sys.stderr)
        elif traced:
            traces.append(json.loads(spans.read_text()))
    errors = []
    if failed == 0:
        try:
            errors = check_round(wl, rdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"outputs could not be read: {exc!r}"]
    for err in errors:
        print(f"{wl.name}: check failed: {err}", file=sys.stderr)
    shutil.rmtree(rdir)
    return {
        "traced": traced, "failed": failed, "errors": errors, "walls": walls,
        "rss_mb": rss,
        "layers": tracer.layer_metrics(traces) if traced and failed == 0 else None,
    }


# --- main --------------------------------------------------------------------------

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "score_s": "s", "peak_rss_mb": "MB"}


def end_to_end(wl: Workload, rounds: list[dict]) -> dict[str, float]:
    """``setup_s`` is the median ``generate`` time over the rounds;
    ``pipeline_s`` and ``score_s`` are the mean over the rounds of the
    round's summed stage times.

    The host's speed drifts by tens of percent over spells of 5-30 s, so
    most of the run-to-run spread is the mean speed during a run; the mean
    over all rounds averages it best, where a median of a few rounds snaps
    to the spell that holds most of them (README, "Reference figures").
    """
    def mean_sum(stages):
        return statistics.fmean(sum(r["walls"][name] for name in stages) for r in rounds)
    after_setup = [name for name in rounds[0]["walls"] if name != "generate"]
    return {"setup_s": statistics.median(r["walls"]["generate"] for r in rounds),
            "pipeline_s": mean_sum(after_setup),
            "score_s": mean_sum(wl.score_stages),
            "peak_rss_mb": max(max(r["rss_mb"].values()) for r in rounds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tssid" / "cli.py").is_file():
        print(f"perfbench: no tssid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = pinned_env()
    facts = probe(env)

    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(wl, args.seed, run_dir / f"round{len(rounds)}", env,
                                traced, deadline))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        # start another round only if it is expected to end within --seconds
        if elapsed + per_round > RUN_BUDGET_S:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round > args.seconds:
            break

    attempted = len(rounds) * len(wl.stages)
    failed = sum(r["failed"] for r in rounds)
    good = [r for r in rounds if r["failed"] == 0]
    plain = [r for r in good if not r["traced"]]
    correct = bool(good) and not any(r["errors"] for r in rounds)
    metrics = {}
    if args.trace:
        traced = [r for r in good if r["traced"]]
        if traced and plain:
            layers = [r["layers"] for r in traced]
            metrics = {name: {"value": statistics.median(l[name] for l in layers),
                              "unit": unit}
                       for name, unit in LAYER_UNITS.items() if name in layers[0]}
            overhead = (end_to_end(wl, traced)["pipeline_s"]
                        - end_to_end(wl, plain)["pipeline_s"])
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        else:
            correct = False
    elif plain:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(wl, plain).items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": facts,
         "rounds": rounds, **result}, indent=1))
    print(f"{wl.name} seed {args.seed}: {len(rounds)} rounds in "
          f"{time.perf_counter() - start:.1f} s; backend {facts['backend']}, "
          f"numpy {facts['numpy']}, python {facts['python']}, "
          f"{facts['affinity']}/{facts['cpu_count']} cores, 1 BLAS thread")
    print(json.dumps(result))
    return 0


def _layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.layer_metrics([{"import_s": 0.0, "spans": []}]):
        if name.endswith("_us_per_step") or name.endswith("_us"):
            units[name] = "us"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_rows_per_s"):
            units[name] = "rows/s"
        elif name.endswith("_per_flight"):
            units[name] = "calls/flight"
        elif name.endswith("_per_segment"):
            units[name] = "calls/segment"
        elif name.endswith("_s"):
            units[name] = "s"
        else:
            units[name] = "count"
    return units


LAYER_UNITS = _layer_units()

if __name__ == "__main__":
    sys.exit(main())
