"""Spans around calls into the ``tssid`` modules, and their per-layer sums.

Run as a script, this file is one traced stage process::

    python3 perfbench/tracer.py SPANS_JSON generate --config run.yaml

It imports ``tssid.cli``, wraps the public functions listed in ``WRAPPED``
so that each call records a span, runs the CLI with the remaining
arguments, and writes the spans to SPANS_JSON when the command returns.
Nothing under ``src/`` is changed: a wrapper replaces the function's name
in every ``tssid`` module that holds it, because the CLI imports names
directly (``from .sindy import simulate``) while the other modules reach
the kernels as attributes of ``tssid.kernels``.

Imported as a module, it turns the span files of one traced round into
the per-layer metrics (``layer_metrics``).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

#: module -> public functions whose calls become spans.
WRAPPED = {
    "cli": ("cmd_generate", "cmd_ingest", "cmd_correlate", "cmd_split",
            "cmd_fit_sindy", "cmd_train", "cmd_simulate", "cmd_evaluate",
            "cmd_report"),
    "config": ("load_config",),
    "flightdata": ("ingest_csv", "emit_csv", "correlation_matrix"),
    "synthgen": ("generate_flight",),
    "sindy": ("differentiate", "build_library", "stlsq", "simulate"),
    "neural": ("train", "make_windows", "predict_series"),
    "evaluation": ("score_model", "write_overlay_csv"),
    "kernels": ("rk4_first_order", "rk4_cascade", "rk4_sparse", "mlp_forward",
                "mlp_value_and_grad", "lstm_forward", "lstm_value_and_grad"),
}

CLI_STAGES = ("generate", "ingest", "correlate", "split", "fit_sindy", "train",
              "simulate", "evaluate", "report")


def _steps(args) -> int:
    # every RK4 kernel takes the control series as its fourth argument and
    # advances one step per pair of adjacent samples
    return int(args[3].shape[0]) - 1


def _simulate_key(args) -> str:
    model, u, _dt, x0 = args[:4]
    digest = hashlib.sha1(u.tobytes()).hexdigest()
    return f"{model.order}:{digest}:{float(x0)!r}"


#: span name -> function (args, result) -> (work units, key) recorded with it.
_DETAILS = {
    "flightdata.ingest_csv": lambda a, r: (r.n_samples, str(a[0])),
    "flightdata.emit_csv": lambda a, r: (a[0].n_samples, None),
    "evaluation.write_overlay_csv": lambda a, r: (len(a[1]), None),
    "kernels.rk4_first_order": lambda a, r: (_steps(a), None),
    "kernels.rk4_cascade": lambda a, r: (_steps(a), None),
    "kernels.rk4_sparse": lambda a, r: (_steps(a), None),
    "sindy.simulate": lambda a, r: (1, _simulate_key(a)),
    "neural.train": lambda a, r: (a[1].epochs, r.kind),
}


class Recorder:
    """Keeps spans in memory: [name, start, end, parent index, units, key]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        details = _DETAILS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, None, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if details is not None:
                span[4], span[5] = details(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(recorder: Recorder) -> None:
    """Replace every ``WRAPPED`` function wherever a tssid module holds it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n.startswith("tssid") and n != "tssid._kernels_src"]
    for mod_name, names in WRAPPED.items():
        home = sys.modules[f"tssid.{mod_name}"]
        for fname in names:
            original = getattr(home, fname)
            traced = recorder.wrap(f"{mod_name}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import tssid.cli
    import_s = time.perf_counter() - t0
    import tssid.kernels
    recorder = Recorder()
    install(recorder)
    try:
        code = tssid.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "backend": tssid.kernels.BACKEND,
                       "spans": recorder.spans}, fh)
    return code


# --- aggregation (parent side) --------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span[1]), min(hi, span[2])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span[2] - span[1]) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stage_traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round (one trace dict per stage process).

    Times are summed over the round's processes; a layer that does not run
    on the workload reads 0.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    units: dict[str, int] = {}
    keys: dict[str, list] = {}
    self_total: dict[str, float] = {}
    for trace in stage_traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        for span, self_s in zip(spans, selfs):
            dur = span[2] - span[1]
            names = {span[0]}
            if span[0] == "neural.train":
                names.add(f"neural.train.{span[5]}")  # per net kind, for epoch times
            for nm in names:
                total[nm] = total.get(nm, 0.0) + dur
                calls[nm] = calls.get(nm, 0) + 1
                units[nm] = units.get(nm, 0) + (span[4] or 0)
                self_total[nm] = self_total.get(nm, 0.0) + self_s
            if span[5] is not None:
                keys.setdefault(span[0], []).append(span[5])

    def t(name):
        return total.get(name, 0.0)

    def per_unit(name, scale):
        return scale * _ratio(t(name), units.get(name, 0))

    ingest_keys = keys.get("flightdata.ingest_csv", [])
    sim_keys = keys.get("sindy.simulate", [])
    m = {"cli.import_s": statistics.median(tr["import_s"] for tr in stage_traces)}
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = t(f"cli.cmd_{stage}")
    m.update({
        "config.load_config_s": t("config.load_config"),
        "flightdata.ingest_csv_s": t("flightdata.ingest_csv"),
        "flightdata.ingest_rows_per_s": _ratio(units.get("flightdata.ingest_csv", 0),
                                               t("flightdata.ingest_csv")),
        "flightdata.ingest_calls": calls.get("flightdata.ingest_csv", 0),
        "flightdata.ingest_calls_per_flight": _ratio(len(ingest_keys),
                                                     len(set(ingest_keys))),
        "flightdata.emit_csv_s": t("flightdata.emit_csv"),
        "flightdata.emit_rows_per_s": _ratio(units.get("flightdata.emit_csv", 0),
                                             t("flightdata.emit_csv")),
        "flightdata.correlation_matrix_s": t("flightdata.correlation_matrix"),
        "synthgen.generate_flight_s": self_total.get("synthgen.generate_flight", 0.0),
        "kernels.rk4_cascade_us_per_step": per_unit("kernels.rk4_cascade", 1e6),
        "kernels.rk4_first_order_us_per_step": per_unit("kernels.rk4_first_order", 1e6),
        "sindy.differentiate_s": t("sindy.differentiate"),
        "sindy.build_library_s": t("sindy.build_library"),
        "sindy.stlsq_s": t("sindy.stlsq"),
        "sindy.stlsq_calls": calls.get("sindy.stlsq", 0),
        "sindy.simulate_s": t("sindy.simulate"),
        "sindy.simulate_calls": calls.get("sindy.simulate", 0),
        "sindy.simulate_calls_per_segment": _ratio(len(sim_keys), len(set(sim_keys))),
        "kernels.rk4_sparse_us_per_step": per_unit("kernels.rk4_sparse", 1e6),
        "kernels.rk4_sparse_steps": units.get("kernels.rk4_sparse", 0),
        "kernels.mlp_value_and_grad_us": 1e6 * _ratio(t("kernels.mlp_value_and_grad"),
                                                      calls.get("kernels.mlp_value_and_grad", 0)),
        "kernels.lstm_value_and_grad_ms": 1e3 * _ratio(t("kernels.lstm_value_and_grad"),
                                                       calls.get("kernels.lstm_value_and_grad", 0)),
        "kernels.mlp_value_and_grad_calls": calls.get("kernels.mlp_value_and_grad", 0),
        "kernels.lstm_value_and_grad_calls": calls.get("kernels.lstm_value_and_grad", 0),
        "kernels.mlp_forward_s": t("kernels.mlp_forward"),
        "kernels.lstm_forward_s": t("kernels.lstm_forward"),
        "neural.train_s": t("neural.train"),
        "neural.ffnn_epoch_s": per_unit("neural.train.ffnn", 1.0),
        "neural.lstm_epoch_s": per_unit("neural.train.lstm", 1.0),
        "neural.train_self_s": self_total.get("neural.train", 0.0),
        "neural.make_windows_s": t("neural.make_windows"),
        "neural.predict_series_s": t("neural.predict_series"),
        "evaluation.score_model_s": t("evaluation.score_model"),
        "evaluation.write_overlay_csv_s": t("evaluation.write_overlay_csv"),
        "evaluation.overlay_rows_per_s": _ratio(units.get("evaluation.write_overlay_csv", 0),
                                                t("evaluation.write_overlay_csv")),
    })
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
