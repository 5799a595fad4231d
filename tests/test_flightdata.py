"""Flight-record ingestion, scaling, correlation, splits, feature rules."""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import importlib
import io
import os
import pkgutil
import tracemalloc

import numpy as np
import pytest
import reference_ingest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import toy_record
import tssid
from tssid.errors import (
    DegenerateChannel,
    EmptyDataset,
    IncompleteSplit,
    IoError,
    LengthMismatch,
    MalformedCsv,
    MissingChannel,
    NonNumericCell,
    OverlappingIds,
    TargetExcluded,
    UnknownChannel,
    ZeroVariance,
)
from tssid import flightdata
from tssid.flightdata import (
    CHANNEL_UNITS,
    CorrelationMatrix,
    DatasetSplit,
    FeatureRules,
    FlightRecord,
    ManeuverSegment,
    apply_minmax,
    atomic_open,
    correlation_matrix,
    emit_csv,
    filter_maneuvers,
    file_sha256,
    fit_minmax,
    ingest_cached,
    ingest_csv,
    invert_minmax,
    load_maneuvers,
    save_maneuvers,
    scale_series,
    select_features,
    split_dataset,
    unscale_series,
)

# --- record construction -------------------------------------------------------


def test_channel_samples_locked(record):
    with pytest.raises(ValueError):
        record.values("TRQ")[0] = 1.0


def test_channel_rejects_non_finite():
    with pytest.raises(NonNumericCell):
        FlightRecord("f", 10.0, ("TRQ",), [[1.0, np.nan, 3.0]])


def test_record_rejects_unequal_channel_lengths():
    with pytest.raises(LengthMismatch):
        FlightRecord("f", 10.0, ("A", "B"), [[1.0, 2.0], [1.0, 2.0, 3.0]])


def test_record_rejects_duplicate_channel_names():
    with pytest.raises(UnknownChannel):
        FlightRecord("f", 10.0, ("A", "A"), [[1.0], [2.0]])


def test_record_rejects_maneuver_past_end():
    with pytest.raises(LengthMismatch):
        toy_record(n=10, segments=(ManeuverSegment("x", 0, 11),))


def test_record_block_and_its_rows_are_read_only(record):
    assert record.samples.shape == (2, 60)
    assert record.samples.dtype == np.float64 and record.samples.flags.c_contiguous
    for name in record.channel_names:
        row = record.values(name)
        assert np.shares_memory(row, record.samples)
        with pytest.raises(ValueError):
            row += 1.0
    with pytest.raises(ValueError):
        record.samples[:, 0] = 0.0


def test_record_keeps_its_own_copy_of_a_writeable_input():
    trq = np.arange(5.0)
    block = np.stack([trq, trq + 10.0])
    from_rows = FlightRecord("f", 10.0, ("TRQ", "WF"), (trq, trq + 10.0))
    from_block = FlightRecord("g", 10.0, ("TRQ", "WF"), block)
    read_only_view = block.view()  # read-only, but its base can still be written
    read_only_view.setflags(write=False)
    from_view = FlightRecord("h", 10.0, ("TRQ", "WF"), read_only_view)
    trq[:] = -1.0
    block[:] = -1.0
    for rec in (from_rows, from_block, from_view):
        assert rec.values("TRQ").tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert rec.values("WF").tolist() == [10.0, 11.0, 12.0, 13.0, 14.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("locked", [False, True])
def test_record_non_finite_cell_names_its_channel_and_sample(bad, locked):
    samples = np.ones((3, 5))
    samples[1, 3] = samples[2, 0] = bad
    samples.setflags(write=not locked)
    with pytest.raises(NonNumericCell) as err:
        FlightRecord("f", 10.0, ("TRQ", "WF", "NG"), samples)
    assert (err.value.row, err.value.col) == (4, "WF")


def test_maneuver_rejects_empty_range():
    with pytest.raises(LengthMismatch):
        ManeuverSegment("x", 5, 5)


def test_record_properties(record):
    assert record.n_samples == 60
    assert record.dt == pytest.approx(0.1)
    assert record.duration_s == pytest.approx(6.0)
    assert record.channel_names == ("TRQ", "WF")
    with pytest.raises(MissingChannel):
        record.values("NG")


def test_array_holding_value_types_compare_and_hash_by_identity():
    # a generated __eq__ over an array field raises (the truth value of an
    # array is ambiguous), and its __hash__ raises on the unhashable array
    checked = []
    for info in pkgutil.iter_modules(tssid.__path__):
        module = importlib.import_module(f"tssid.{info.name}")
        for cls in vars(module).values():
            if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)
                    and cls.__module__ == module.__name__):
                continue
            fields = dataclasses.fields(cls)
            if not any("ndarray" in str(f.type) for f in fields):
                continue
            assert not cls.__dataclass_params__.eq, cls.__qualname__
            rec = object.__new__(cls)
            for f in fields:
                object.__setattr__(rec, f.name, np.zeros(2) if "ndarray" in str(f.type) else None)
            assert (rec in [copy.deepcopy(rec)]) is False, cls.__qualname__
            hash(rec)
            checked.append(cls.__qualname__)
    assert {"FlightRecord", "CorrelationMatrix", "SparseModel", "TrainedNet"} <= set(checked)


# --- CSV round trip ------------------------------------------------------------


def test_emit_ingest_round_trip_bit_exact(tmp_path, record):
    path = tmp_path / "fl01.csv"
    emit_csv(record, path)
    back = ingest_csv(path, record.sample_rate_hz)
    assert back.flight_id == "fl01"
    assert back.channel_names == record.channel_names
    for name in record.channel_names:
        # repr() rendering must reproduce every float64 exactly
        np.testing.assert_array_equal(back.values(name), record.values(name))


def test_ingest_ragged_row_raises(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time_s,TRQ\n0.0,1.0\n0.1,2.0,9.9\n", encoding="utf-8")
    with pytest.raises(LengthMismatch, match="row 2"):
        ingest_csv(p, 10.0)


def test_ingest_non_numeric_cell_reports_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time_s,TRQ,WF\n0.0,1.0,2.0\n0.1,oops,3.0\n", encoding="utf-8")
    with pytest.raises(NonNumericCell) as exc:
        ingest_csv(p, 10.0)
    assert "row=2" in str(exc.value)
    assert "TRQ" in str(exc.value)


def test_ingest_rejects_wrong_first_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,TRQ\n0.0,1.0\n", encoding="utf-8")
    with pytest.raises(MissingChannel):
        ingest_csv(p, 10.0)


def test_ingest_rejects_no_channels(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time_s\n0.0\n", encoding="utf-8")
    with pytest.raises(MissingChannel):
        ingest_csv(p, 10.0)


def test_ingest_rejects_no_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time_s,TRQ\n", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        ingest_csv(p, 10.0)


def test_ingest_rejects_nan_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time_s,TRQ\n0.0,nan\n", encoding="utf-8")
    with pytest.raises(NonNumericCell):
        ingest_csv(p, 10.0)


# --- ingest against the cell-by-cell reference ------------------------------------

_ODD_CELLS = ("nan", "-inf", "Infinity", "1e400", "1_000", "1__0",
              "\u0661\u0662\u0663", "\u0663.\u0665", " 1.5 ", "\t2", "2.5\x0c",
              "\u20033", '"3.5"', '"1,5"', '"7', "", "abc", "+.5", "-0", "0x10",
              "1.5j", "#1")


@st.composite
def _flight_csv_texts(draw):
    """Flight CSV files, mostly well formed, with the oddities a log may carry."""
    floats = st.floats(allow_nan=True, allow_infinity=True).map(repr)
    cell = st.one_of(floats, floats, floats, st.sampled_from(_ODD_CELLS),
                     st.text(alphabet='0123456789.e+-_ \t",x', max_size=5))
    header = [draw(st.sampled_from(["time_s", " time_s ", "t"]))]
    header += draw(st.lists(st.sampled_from(["TRQ", "WF", " NG", "X"]),
                            max_size=3, unique=True))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.one_of(st.just(len(header)), st.integers(0, len(header) + 1)))
        lines.append(",".join(draw(cell) for _ in range(width)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " "])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.integers(0, 9)) == 0 else "") + text


def _ingest_outcome(ingest, path):
    try:
        rec = ingest(path, 10.0)
    except Exception as exc:  # the reference's exception is the expectation
        return type(exc), str(exc)
    return [(nm, rec.values(nm).tobytes()) for nm in rec.channel_names]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_flight_csv_texts())
@example(text="time_s,TRQ,WF\n0.0,312.5,260.125\n0.02,1e-300,-2.5e+17\n")
@example(text="time_s,TRQ\n0.0,nan\n")
@example(text="time_s,TRQ\n0.0,inf\n")
@example(text="time_s,TRQ\n0.0,1_000\n")
@example(text="time_s,TRQ\n0.0,\u0661\u0662\u0663\n")
@example(text="time_s , TRQ\n 0.0 ,\t1.5 \n")
@example(text='time_s,TRQ\n0.0,"1.5"\n')
@example(text="time_s,TRQ\r\n0.0,1.5\r\n0.1,2.5\r\n")
@example(text="time_s,TRQ\n0.0,1.5\n\n0.1,2.5\n")
@example(text="time_s,TRQ\n0.0,1.5\n0.1,2.5\n\n")
@example(text="time_s,TRQ\n0.0,1.5\n0.1\n")
@example(text="time_s,TRQ\n0.0,1.5,2.5\n0.1,2.5,3.5\n")
@example(text="time_s,TRQ\n0.0,1.5")
@example(text="time_s,TRQ\n")
@example(text="\ufefftime_s,TRQ\n0.0,1.5\n")
@example(text="time_s,TRQ\n\n")
@example(text="time_s,TRQ\n0.0," + "0" * 131072 + "1\n")
@example(text="time_s," + "T" * 131073 + "\n0.0,1.5\n")
@pytest.mark.filterwarnings("error")
def test_ingest_matches_cell_reference(tmp_path, text):
    path = tmp_path / "fl.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _ingest_outcome(ingest_csv, path)
    want = _ingest_outcome(reference_ingest.ingest_csv, path)
    if want[0] in (csv.Error, UnicodeDecodeError):
        # the reference lets these raw errors out; ingest names the file
        assert got[0] is MalformedCsv and str(path) in got[1]
    else:
        assert got == want


def test_ingest_non_utf8_byte_is_malformed_csv_naming_the_offset(tmp_path):
    path = tmp_path / "fl.csv"
    path.write_bytes(b"time_s,TRQ\n0.0,1.5\xff\n")
    with pytest.raises(MalformedCsv, match=r"fl\.csv: byte 18 is not UTF-8") as err:
        ingest_csv(path, 10.0)
    assert err.value.exit_code == 2


def test_ingest_overlong_cell_is_malformed_csv_naming_the_line(tmp_path):
    path = tmp_path / "fl.csv"
    path.write_text("time_s,TRQ\n0.0,1.5\n0.1," + "1" * 131073 + "\n", encoding="utf-8")
    with pytest.raises(MalformedCsv, match=r"fl\.csv: line 3: field larger") as err:
        ingest_csv(path, 10.0)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("body, match", [
    (b"fl01,hover\xfe,0,5,0\n", r"byte 57 is not UTF-8"),
    (b"fl01,hover,0,5,0\nfl01," + b"x" * 131073 + b",5,9,0\n", r"line 3: field larger"),
])
def test_load_maneuvers_malformed_text_is_malformed_csv(tmp_path, body, match):
    path = tmp_path / "maneuvers.csv"
    path.write_bytes(b"flight_id,label,start_index,end_index,excluded\n" + body)
    with pytest.raises(MalformedCsv, match=r"maneuvers\.csv: " + match):
        load_maneuvers(path)


# --- the parsed-flight cache ------------------------------------------------------


def _cached_flight(tmp_path):
    path = tmp_path / "fl.csv"
    emit_csv(_corpus_io_flight(n=300), path)
    return path, tmp_path / "cache"


def _bits(rec):
    return [(nm, rec.values(nm).tobytes()) for nm in rec.channel_names]


def _entries(cache):
    return sorted(p.relative_to(cache).as_posix() for p in cache.rglob("*") if p.is_file())


def test_cache_hit_is_bitwise_a_fresh_parse(tmp_path, monkeypatch):
    path, cache = _cached_flight(tmp_path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    first, d1 = ingest_cached(path, 50.0, "fl", cache)
    assert _entries(cache) == [f"fl/{digest}.npy"]

    def refuse(*args):
        raise AssertionError("a hit parsed the CSV")

    monkeypatch.setattr("tssid.flightdata.ingest_csv", refuse)
    hit, d2 = ingest_cached(path, 50.0, "fl", cache)
    monkeypatch.undo()
    fresh = ingest_csv(path, 50.0, flight_id="fl")
    assert d1 == d2 == digest == file_sha256(path)
    assert _bits(hit) == _bits(first) == _bits(fresh)
    assert (hit.flight_id, hit.sample_rate_hz) == ("fl", 50.0)


def test_cache_one_byte_edit_of_the_same_size_and_mtime_is_a_miss(tmp_path):
    path, cache = _cached_flight(tmp_path)
    ingest_cached(path, 50.0, "fl", cache)
    stat = path.stat()
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[7].split(",")
    cells[1] = cells[1][:-1] + ("1" if cells[1][-1] != "1" else "2")
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert path.stat().st_mtime_ns == stat.st_mtime_ns
    rec, digest = ingest_cached(path, 50.0, "fl", cache)
    assert rec.values("TRQ")[6] == float(cells[1])
    assert _bits(rec) == _bits(ingest_csv(path, 50.0, flight_id="fl"))
    assert _entries(cache) == [f"fl/{digest}.npy"]


def _truncated(blob):
    return blob[:-8]


def _garbage(blob):
    return bytes(range(256)) * 4


def _narrower(blob):
    buf = io.BytesIO()
    np.save(buf, np.ones((3, 300)))
    return buf.getvalue()


def _non_finite(blob):
    return blob[:-8] + np.array([np.nan]).tobytes()


def _trailing(blob):
    return blob + b"\0" * 8


@pytest.mark.parametrize("damage", [_truncated, _garbage, _narrower, _non_finite,
                                    _trailing, lambda blob: b""])
def test_cache_unusable_entry_is_parsed_again_and_rewritten(tmp_path, damage):
    path, cache = _cached_flight(tmp_path)
    ingest_cached(path, 50.0, "fl", cache)
    (entry,) = cache.rglob("*.npy")
    good = entry.read_bytes()
    entry.write_bytes(damage(good))
    rec, _ = ingest_cached(path, 50.0, "fl", cache)
    assert _bits(rec) == _bits(ingest_csv(path, 50.0, flight_id="fl"))
    assert entry.read_bytes() == good
    assert _entries(cache) == [entry.relative_to(cache).as_posix()]


@pytest.mark.parametrize("text, error", [
    ("time_s,TRQ\n0.0,1.5\n0.1,abc\n", NonNumericCell),
    ("time_s,TRQ,TRQ\n0.0,1.5,2.5\n", UnknownChannel),  # parses, no record
])
def test_cache_failed_ingest_writes_no_entry_and_fails_alike(tmp_path, text, error):
    path = tmp_path / "fl.csv"
    path.write_text(text, encoding="utf-8")
    cache = tmp_path / "cache"
    messages = []
    for _ in range(2):
        with pytest.raises(error) as err:
            ingest_cached(path, 10.0, "fl", cache)
        messages.append(str(err.value))
    with pytest.raises(error) as err:
        ingest_csv(path, 10.0)
    assert messages == [str(err.value)] * 2
    assert not cache.exists() or _entries(cache) == []


def test_cache_csv_edited_during_the_parse_is_not_stored(tmp_path, monkeypatch):
    path, cache = _cached_flight(tmp_path)
    old_digest = file_sha256(path)
    parse = flightdata.ingest_csv

    def parse_then_edit(p, *args):
        rec = parse(p, *args)
        emit_csv(_corpus_io_flight(n=300, seed=5), p)
        return rec

    monkeypatch.setattr("tssid.flightdata.ingest_csv", parse_then_edit)
    with pytest.raises(IoError, match=r"fl\.csv changed while the stage was reading it"):
        ingest_cached(path, 50.0, "fl", cache)
    monkeypatch.undo()
    assert not (cache / "fl" / f"{old_digest}.npy").exists()
    rec, _ = ingest_cached(path, 50.0, "fl", cache)
    assert _bits(rec) == _bits(ingest_csv(path, 50.0, flight_id="fl"))


def test_cache_csv_replaced_between_the_hash_and_the_parse_is_refused(tmp_path, monkeypatch):
    """The record of the new bytes is never returned under the old bytes' digest."""
    path, cache = _cached_flight(tmp_path)
    parse = flightdata.ingest_csv

    def edit_then_parse(p, *args):
        emit_csv(_corpus_io_flight(n=300, seed=5), p)
        return parse(p, *args)

    monkeypatch.setattr("tssid.flightdata.ingest_csv", edit_then_parse)
    with pytest.raises(IoError, match=r"fl\.csv changed while the stage was reading it") as err:
        ingest_cached(path, 50.0, "fl", cache)
    assert err.value.exit_code == 3
    assert list(cache.rglob("*.npy")) == []


def test_cache_holds_one_entry_per_flight(tmp_path):
    cache = tmp_path / "cache"
    paths = {}
    for fid in ("fl", "fl.2"):
        paths[fid] = tmp_path / f"{fid}.csv"
        emit_csv(_corpus_io_flight(fid, n=300), paths[fid])
        ingest_cached(paths[fid], 50.0, fid, cache)
    for seed in (1, 2):
        emit_csv(_corpus_io_flight("fl", n=300, seed=seed), paths["fl"])
        ingest_cached(paths["fl"], 50.0, "fl", cache)
    assert _entries(cache) == sorted(f"{fid}/{file_sha256(p)}.npy"
                                     for fid, p in paths.items())


def test_cache_hit_keeps_the_entry_block_and_derived_records_share_it(tmp_path):
    path, cache = tmp_path / "fl.csv", tmp_path / "cache"
    emit_csv(_corpus_io_flight(), path)
    ingest_cached(path, 50.0, "fl", cache)  # a miss stores the entry
    segments = (ManeuverSegment("taxiing", 0, 250), ManeuverSegment("cruise", 250, 6000))

    def hit_and_derive():
        rec, _ = ingest_cached(path, 50.0, "fl", cache)
        annotated = rec.with_maneuvers(segments)
        return rec, annotated, filter_maneuvers(annotated, {"taxiing"})

    hit_and_derive()  # first call imports and caches outside the bound
    tracemalloc.start()
    try:
        rec, annotated, filtered = hit_and_derive()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rec.n_samples * len(rec.channel_names) * 8
    assert filtered.maneuvers[0].excluded and not annotated.maneuvers[0].excluded
    for derived in (annotated, filtered):
        for name in rec.channel_names:
            assert np.shares_memory(derived.values(name), rec.values(name))


@pytest.mark.parametrize("channels", [("WF", "TRQ"), ("AIRSPEED",), ()])
def test_cache_projection_is_the_rows_of_a_full_read(tmp_path, monkeypatch, channels):
    path, cache = _cached_flight(tmp_path)
    full = ingest_csv(path, 50.0, flight_id="fl")
    served = [nm for nm in full.channel_names if nm in channels]

    def check(rec):
        assert rec.channel_names == tuple(served)
        assert _bits(rec) == [(nm, full.values(nm).tobytes()) for nm in served]
        assert rec.samples.shape == (len(served), full.n_samples)
        assert rec.samples.flags.owndata and not rec.samples.flags.writeable

    miss, d1 = ingest_cached(path, 50.0, "fl", cache, channels)
    check(miss)
    (entry,) = cache.rglob("*.npy")
    assert np.array_equal(np.load(entry), full.samples)  # a miss stores the whole block
    monkeypatch.setattr("tssid.flightdata.ingest_csv", None)  # a hit parses nothing
    hit, d2 = ingest_cached(path, 50.0, "fl", cache, channels)
    check(hit)
    assert d1 == d2 == file_sha256(path)


def test_cache_projection_checks_only_the_rows_it_serves(tmp_path, monkeypatch):
    path, cache = _cached_flight(tmp_path)
    ingest_cached(path, 50.0, "fl", cache)
    (entry,) = cache.rglob("*.npy")
    good = entry.read_bytes()
    entry.write_bytes(_non_finite(good))  # the last cell of the last row, AIRSPEED
    full = ingest_csv(path, 50.0, flight_id="fl")
    with monkeypatch.context() as m:
        m.setattr("tssid.flightdata.ingest_csv", None)
        rec, _ = ingest_cached(path, 50.0, "fl", cache, ("TRQ", "WF"))
    assert _bits(rec) == [(nm, full.values(nm).tobytes()) for nm in ("TRQ", "WF")]
    assert entry.read_bytes() == _non_finite(good)
    rec, _ = ingest_cached(path, 50.0, "fl", cache)  # a full read is a miss
    assert _bits(rec) == _bits(full)
    assert entry.read_bytes() == good


@pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
def test_cache_projection_onto_a_channel_the_csv_lacks(tmp_path, cached):
    path, cache = _cached_flight(tmp_path)
    if cached:
        ingest_cached(path, 50.0, "fl", cache)
    with pytest.raises(MissingChannel) as err:
        ingest_cached(path, 50.0, "fl", cache, ("TRQ", "XYZ"))
    with pytest.raises(MissingChannel) as expected:
        ingest_csv(path, 50.0, flight_id="fl").values("XYZ")
    assert str(err.value) == str(expected.value) == "flight 'fl' has no channel 'XYZ'"
    assert err.value.exit_code == 2


def test_cache_read_under_a_recorded_digest_hashes_nothing_and_mixes_nothing(
        tmp_path, monkeypatch):
    path, cache = _cached_flight(tmp_path)
    first, digest = ingest_cached(path, 50.0, "fl", cache)
    emit_csv(_corpus_io_flight(n=300, seed=5), path)  # the CSV changes after the first read
    with monkeypatch.context() as m:
        m.setattr("tssid.flightdata.file_sha256", None)
        rec, d = ingest_cached(path, 50.0, "fl", cache, digest=digest)
    assert d == digest and _bits(rec) == _bits(first)  # the bytes the digest names
    for entry in cache.rglob("*.npy"):
        entry.unlink()
    with pytest.raises(IoError, match=r"fl\.csv changed while the stage was reading it"):
        ingest_cached(path, 50.0, "fl", cache, digest=digest)
    assert _entries(cache) == []


def _corpus_io_flight(flight_id="fl", n=6000, seed=0):
    """A flight of the size of the corpus-io workload: 6 000 rows, 14 channels."""
    rng = np.random.default_rng(seed)
    samples = [300.0 + rng.normal(size=n).cumsum() for _ in CHANNEL_UNITS]
    return FlightRecord(flight_id, 50.0, tuple(CHANNEL_UNITS), samples,
                        (ManeuverSegment("taxiing", 0, 250, excluded=True),
                         ManeuverSegment("cruise", 250, n)))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_peak_memory_is_a_few_times_the_float_block(tmp_path):
    rec = _corpus_io_flight()
    path = tmp_path / "fl.csv"
    emit_csv(rec, path)
    ingest_csv(path, 50.0)  # first call imports and caches outside the bound
    block_bytes = rec.n_samples * (1 + len(rec.channel_names)) * 8
    assert _traced_peak(ingest_csv, path, 50.0) <= 3 * block_bytes


def test_correlation_peak_memory_is_a_few_flight_blocks():
    recs = [_corpus_io_flight(f"fl{i}", seed=i) for i in range(8)]
    correlation_matrix(recs[:1])
    block_bytes = recs[0].n_samples * len(recs[0].channel_names) * 8
    assert _traced_peak(correlation_matrix, recs) <= 4 * block_bytes


def test_correlation_matches_corrcoef_on_the_pooled_corpus():
    recs = [_corpus_io_flight(f"fl{i}", n=700, seed=i) for i in range(3)]
    pooled = np.vstack([np.column_stack([r.values(nm)[r.included_mask()]
                                         for nm in r.channel_names]) for r in recs])
    np.testing.assert_allclose(correlation_matrix(recs).values,
                               np.corrcoef(pooled.T), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_emit_csv_rows_are_the_per_sample_repr_format(tmp_path, n):
    rec = toy_record(n=n, fs=3.0, segments=())
    path = tmp_path / "fl.csv"
    emit_csv(rec, path)
    cols = [rec.values(nm) for nm in rec.channel_names]
    lines = ["time_s,TRQ,WF"] + [
        ",".join([repr(i / 3.0)] + [repr(float(c[i])) for c in cols])
        for i in range(n)
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_atomic_open_replaces_the_file_only_when_the_write_completes(tmp_path):
    path = tmp_path / "new" / "a.txt"
    with atomic_open(path) as fh:
        fh.write("one\r\n")
    assert path.read_bytes() == b"one\r\n" and os.listdir(path.parent) == ["a.txt"]
    with pytest.raises(RuntimeError), atomic_open(path) as fh:
        fh.write("two\n")
        raise RuntimeError
    assert path.read_bytes() == b"one\r\n" and os.listdir(path.parent) == ["a.txt"]
    with atomic_open(path, "wb") as fh:
        fh.write(b"\x00three")
    assert path.read_bytes() == b"\x00three" and os.listdir(path.parent) == ["a.txt"]


# --- maneuver annotations ------------------------------------------------------


def test_maneuvers_save_load_round_trip(tmp_path):
    recs = [
        toy_record("a", segments=(ManeuverSegment("hover", 0, 30),
                                  ManeuverSegment("taxiing", 30, 60, excluded=True))),
        toy_record("b", segments=(ManeuverSegment("cruise", 0, 60),)),
    ]
    p = tmp_path / "maneuvers.csv"
    save_maneuvers({rec.flight_id: rec.maneuvers for rec in recs}, p)
    loaded = load_maneuvers(p)
    assert set(loaded) == {"a", "b"}
    assert loaded["a"] == recs[0].maneuvers
    assert loaded["b"] == recs[1].maneuvers


def test_filter_maneuvers_marks_and_is_idempotent(record):
    once = filter_maneuvers(record, ["hover"])
    assert [s.excluded for s in once.maneuvers] == [True, False]
    twice = filter_maneuvers(once, ["hover"])
    assert twice.maneuvers == once.maneuvers
    # exclusion only grows: filtering on nothing keeps prior exclusions
    kept = filter_maneuvers(once, [])
    assert kept.maneuvers == once.maneuvers


def test_included_mask_and_scoring_segments(record):
    rec = filter_maneuvers(record, ["hover"])
    mask = rec.included_mask()
    assert not mask[:30].any()
    assert mask[30:].all()
    segs = rec.scoring_segments()
    assert [s.label for s in segs] == ["cruise"]


def test_unannotated_record_is_one_segment():
    rec = toy_record(segments=())
    assert rec.included_mask().all()
    (seg,) = rec.scoring_segments()
    assert (seg.start_index, seg.end_index) == (0, rec.n_samples)


# --- correlation ----------------------------------------------------------------


def _pearson_two_pass(x: np.ndarray, y: np.ndarray) -> float:
    """Textbook two-pass Pearson correlation, kept independent on purpose."""
    mx, my = x.mean(), y.mean()
    num = float(np.sum((x - mx) * (y - my)))
    den = float(np.sqrt(np.sum((x - mx) ** 2) * np.sum((y - my) ** 2)))
    return num / den


def test_correlation_matches_two_pass_oracle():
    recs = [toy_record("a", seed=1), toy_record("b", seed=2)]
    corr = correlation_matrix(recs)
    pooled = {
        nm: np.concatenate([r.values(nm)[r.included_mask()] for r in recs])
        for nm in ("TRQ", "WF")
    }
    expected = _pearson_two_pass(pooled["TRQ"], pooled["WF"])
    assert abs(corr.corr("TRQ", "WF") - expected) <= 1e-12


def test_correlation_excludes_masked_samples():
    # poison the excluded half with a constant; correlation must ignore it
    n = 60
    rng = np.random.default_rng(3)
    base = rng.normal(size=n)
    trq = np.where(np.arange(n) < 30, 0.0, base)
    wf = np.where(np.arange(n) < 30, 0.0, 2.0 * base + rng.normal(size=n) * 0.1)
    rec = FlightRecord(
        "f", 10.0,
        ("TRQ", "WF"), (trq, wf),
        (ManeuverSegment("taxiing", 0, 30, excluded=True),
         ManeuverSegment("cruise", 30, 60)),
    )
    corr = correlation_matrix([rec])
    expected = _pearson_two_pass(trq[30:], wf[30:])
    assert abs(corr.corr("TRQ", "WF") - expected) <= 1e-12


def test_correlation_symmetric_unit_diagonal():
    recs = [toy_record("a", seed=4)]
    corr = correlation_matrix(recs)
    np.testing.assert_array_equal(corr.values, corr.values.T)
    np.testing.assert_array_equal(np.diag(corr.values), np.ones(2))
    assert np.all(np.abs(corr.values) <= 1.0)


def test_correlation_zero_variance():
    rec = FlightRecord("f", 10.0, ("TRQ", "WF"), (np.ones(10), np.arange(10.0)))
    with pytest.raises(ZeroVariance, match="TRQ"):
        correlation_matrix([rec])


def test_correlation_empty_corpus():
    with pytest.raises(EmptyDataset):
        correlation_matrix([])


@pytest.mark.parametrize("first, second", [("COL", None), (None, "TRQ")])
def test_correlation_refuses_flights_whose_channels_differ(first, second):
    recs = [_corpus_io_flight(f"fl{i}", n=300, seed=i) for i in range(3)]
    for i, drop in enumerate((first, second)):
        if drop is not None:
            keep = [nm for nm in recs[i].channel_names if nm != drop]
            recs[i] = FlightRecord(recs[i].flight_id, 50.0, keep,
                                   [recs[i].values(nm) for nm in keep], recs[i].maneuvers)
    lacking, having = ("fl0", "fl1") if first else ("fl1", "fl0")
    with pytest.raises(MissingChannel) as err:
        correlation_matrix(recs)
    assert str(err.value) == (f"flight {lacking!r} has no channel {first or second!r}, "
                              f"which flight {having!r} has")
    assert err.value.exit_code == 2


def test_correlation_of_flights_read_again_on_each_pass_is_bitwise_a_list():
    recs = [_corpus_io_flight(f"fl{i}", n=700, seed=i) for i in range(3)]
    reads = []

    class Reread:
        def __iter__(self):
            for rec in recs:
                reads.append(rec.flight_id)
                yield FlightRecord(rec.flight_id, 50.0, rec.channel_names,
                                   rec.samples.copy(), rec.maneuvers)

    assert correlation_matrix(Reread()).values.tobytes() == \
        correlation_matrix(recs).values.tobytes()
    assert reads == ["fl0", "fl1", "fl2"] * 2


def test_correlation_matrix_shape_validation():
    with pytest.raises(LengthMismatch):
        CorrelationMatrix(("A", "B"), np.ones((3, 3)))


# --- min-max scaling ------------------------------------------------------------


def test_minmax_round_trip(record):
    params = fit_minmax([record])
    fwd = apply_minmax(params, record)
    back = invert_minmax(params, fwd)
    for name in record.channel_names:
        lo, hi = params.channel_bounds(name)
        scaled = fwd.values(name)
        assert scaled.min() >= -1e-12 and scaled.max() <= 1.0 + 1e-12
        assert np.max(np.abs(back.values(name) - record.values(name))) <= 1e-12
        assert lo == record.values(name).min()
        assert hi == record.values(name).max()


def test_minmax_series_helpers(record):
    params = fit_minmax([record])
    x = record.values("WF")
    s = scale_series(params, "WF", x)
    np.testing.assert_allclose(unscale_series(params, "WF", s), x, atol=1e-12)


def test_minmax_unclamped_out_of_range(record):
    params = fit_minmax([record])
    lo, hi = params.channel_bounds("TRQ")
    s = scale_series(params, "TRQ", np.array([lo - (hi - lo)]))
    assert s[0] == pytest.approx(-1.0)


def test_minmax_pools_across_flights():
    a = toy_record("a", seed=5)
    b = toy_record("b", seed=6)
    params = fit_minmax([a, b])
    lo, hi = params.channel_bounds("TRQ")
    both = np.concatenate([a.values("TRQ"), b.values("TRQ")])
    assert lo == both.min() and hi == both.max()


def test_minmax_degenerate_channel():
    rec = FlightRecord("f", 10.0, ("TRQ",), [np.full(5, 3.0)])
    with pytest.raises(DegenerateChannel, match="TRQ"):
        fit_minmax([rec])


def test_minmax_unknown_channel(record):
    params = fit_minmax([record], names=["TRQ"])
    with pytest.raises(UnknownChannel):
        params.channel_bounds("WF")


@settings(deadline=None, max_examples=50)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=40,
    )
)
def test_minmax_round_trip_property(values):
    arr = np.asarray(values)
    if arr.max() == arr.min():
        arr = arr + np.linspace(0.0, 1.0, arr.size)  # avoid degenerate channel
    rec = FlightRecord("f", 10.0, ("TRQ",), [arr])
    params = fit_minmax([rec])
    back = invert_minmax(params, apply_minmax(params, rec))
    span = params.channel_bounds("TRQ")[1] - params.channel_bounds("TRQ")[0]
    tol = 1e-12 * max(1.0, span)
    assert np.max(np.abs(back.values("TRQ") - arr)) <= tol


# --- splits ---------------------------------------------------------------------


def test_split_fractions_cover_and_are_deterministic():
    ids = [f"f{i:02d}" for i in range(10)]
    s1 = split_dataset(ids, fractions=(0.6, 0.2, 0.2), seed=42)
    s2 = split_dataset(ids, fractions=(0.6, 0.2, 0.2), seed=42)
    assert s1 == s2
    assert sorted(s1.all_ids) == sorted(ids)
    assert (len(s1.train_ids), len(s1.val_ids), len(s1.test_ids)) == (6, 2, 2)
    s3 = split_dataset(ids, fractions=(0.6, 0.2, 0.2), seed=43)
    assert s3 != s1  # a different seed shuffles differently


def test_split_explicit():
    ids = ["a", "b", "c"]
    s = split_dataset(ids, explicit={"train": ["a"], "val": ["b"], "test": ["c"]})
    assert s.train_ids == ("a",) and s.val_ids == ("b",) and s.test_ids == ("c",)


def test_split_explicit_must_cover_exactly():
    with pytest.raises(IncompleteSplit, match="missing"):
        split_dataset(["a", "b"], explicit={"train": ["a"], "val": [], "test": []})
    with pytest.raises(IncompleteSplit, match="unknown"):
        split_dataset(["a"], explicit={"train": ["a"], "val": ["zz"], "test": []})


def test_split_rejects_overlap_and_duplicates():
    with pytest.raises(OverlappingIds):
        split_dataset(["a", "b"], explicit={"train": ["a", "b"], "val": ["a"], "test": []})
    with pytest.raises(OverlappingIds):
        split_dataset(["a", "a"], fractions=(1.0, 0.0, 0.0))
    with pytest.raises(OverlappingIds, match=r"\['a'\]"):
        DatasetSplit(("a", "b", "a"), (), ())


def test_split_rejects_bad_fractions():
    with pytest.raises(IncompleteSplit):
        split_dataset(["a", "b"], fractions=(0.5, 0.2, 0.2))
    with pytest.raises(IncompleteSplit):
        split_dataset(["a", "b"], fractions=(0.5, 0.5))
    with pytest.raises(IncompleteSplit):
        split_dataset(["a", "b"])


# --- feature selection ----------------------------------------------------------


def _toy_corr() -> CorrelationMatrix:
    names = ("TRQ", "COL", "NR", "WF")
    v = np.array([
        [1.00, 0.90, 0.05, 0.70],
        [0.90, 1.00, 0.10, 0.60],
        [0.05, 0.10, 1.00, 0.02],
        [0.70, 0.60, 0.02, 1.00],
    ])
    return CorrelationMatrix(names, v)


def test_select_features_threshold_and_exclude():
    corr = _toy_corr()
    assert select_features(corr, "TRQ") == ("COL", "NR", "WF")
    rules = FeatureRules(min_abs_corr=0.5)
    assert select_features(corr, "TRQ", rules) == ("COL", "WF")
    rules = FeatureRules(min_abs_corr=0.5, exclude=("WF",))
    assert select_features(corr, "TRQ", rules) == ("COL",)
    rules = FeatureRules(max_abs_corr=0.5)
    assert select_features(corr, "TRQ", rules) == ("NR",)


def test_select_features_target_guarded():
    corr = _toy_corr()
    with pytest.raises(TargetExcluded):
        select_features(corr, "TRQ", FeatureRules(exclude=("TRQ",)))
    with pytest.raises(MissingChannel):
        select_features(corr, "NG")
