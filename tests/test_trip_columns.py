"""The columnar trip reader and binner against the per-row reference.

Hypothesis writes trip CSVs whose rows mix the canonical form with forms the
per-row reference reads or refuses. Rows both accept must give the same
records in file order and count the same taps and drops; rows the reference
refuses must be refused at the same line; rows only the reference accepts
must be refused with a reason that names the field. Strict mode fails at the
first refused row's line, for the reason the lenient parse gives it.
"""

import csv
import io
import re
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trip_reference as reference
from mobagg.ingest import (
    TRIP_FIELDS,
    ParseFailure,
    RowError,
    TripRecord,
    Trips,
    parse_trips,
    station_series,
)
from mobagg.timeseries import EpochSpec

EPOCHS = EpochSpec(start=datetime(2016, 2, 1), n_epochs=48)
N_STATIONS = 5


def iso(ts: datetime, seconds: bool = False) -> str:
    text = f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}T{ts.hour:02d}:{ts.minute:02d}"
    return text + f":{ts.second:02d}" if seconds else text


# each writes a timestamp outside the canonical form, which the reference reads or refuses
ODD_FORMS = (
    lambda ts: iso(ts).replace("T", " "),
    lambda ts: f" {iso(ts)}\t",
    lambda ts: iso(ts, True) + ".25",
    lambda ts: iso(ts).replace("-", "").replace(":", ""),
    lambda ts: "{:04d}-W{:02d}-{}T{:02d}:{:02d}".format(*ts.isocalendar(), ts.hour, ts.minute),
    lambda ts: "+" + iso(ts),
    lambda ts: iso(ts) + "Z",
    lambda ts: iso(ts, True) + "+01:00",
    lambda ts: iso(ts) + "+01",
    lambda ts: iso(ts).lower(),
    lambda ts: iso(ts)[:-1],
    lambda ts: iso(ts) + "\x00",
    lambda ts: iso(ts)[:10],
    lambda ts: "0000" + iso(ts)[4:],
    lambda ts: iso(ts)[:5] + "13" + iso(ts)[7:],
    lambda ts: iso(ts)[:5] + "00" + iso(ts)[7:],
    lambda ts: iso(ts)[:8] + "31" + iso(ts)[10:],
    lambda ts: iso(ts)[:8] + "00" + iso(ts)[10:],
    lambda ts: iso(ts)[:5] + "02-29" + iso(ts)[10:],
    lambda ts: iso(ts)[:11] + "24" + iso(ts)[13:],
    lambda ts: iso(ts)[:14] + "60",
    lambda ts: iso(ts, True)[:17] + "60",
)
ODD_TIMES = (
    "2016-02-01T24:00", "2016-02-01T08:00:60", "2015-02-29T08:00", "2016-02-29T08:00",
    "2100-02-29T08:00", "2000-02-29T08:00:00", "2016-02-30T08:00", "2016-13-01T08:00",
    "2016-00-01T08:00", "2016-02-00T08:00", "0000-01-01T00:00", "0001-01-01T00:00",
    "9999-12-31T23:59:59", "2016-02-01T08:60", "-2016-02-01T08:00", "\uff12016-02-01T08:00",
    "", "  ", "later",
)
# rows are mostly canonical, so that most files mix accepted and refused rows
TIME_FORMS = st.one_of(
    *[st.sampled_from((iso, lambda ts: iso(ts, True)))] * 4,
    st.sampled_from(ODD_FORMS + tuple((lambda text: lambda ts: text)(t) for t in ODD_TIMES)),
)
STATIONS = (
    "+3", " 3", "3 ", "0003", "-4", "-0", "", "x", "3.0", "1_0", "\u0663",
    "999999999999999999", "1000000000000000000", "12345678901234567890",
    "99999999999999999999", "0000000000000000001",
)
CARDS = ("", " ", " c9 ", "c\n1", "c,1", 'c"1', "c\r\n2")
FIELDS = {
    "card_id": st.one_of(*[st.from_regex(r"c[0-9]{1,3}", fullmatch=True)] * 3, st.sampled_from(CARDS)),
    "start_station": st.one_of(*[st.integers(0, 2 * N_STATIONS).map(str)] * 3, st.sampled_from(STATIONS)),
    "mode": st.sampled_from(("bus", "Bus", " metro ", "", "tram", " BUS ")),
    "note": st.sampled_from(("", "x", "a,b", "line\nbreak")),
}
FIELDS["end_station"] = FIELDS["start_station"]
MOMENTS = st.one_of(
    st.datetimes(min_value=datetime(2016, 1, 31, 20), max_value=datetime(2016, 2, 3, 4)),
    st.datetimes(min_value=datetime(1, 1, 1, 3), max_value=datetime(9999, 12, 31, 20)),
)
ROW_SHAPES = ("whole",) * 8 + ("short", "long", "blank")


@st.composite
def trip_csv(draw):
    columns = list(TRIP_FIELDS)
    columns += [name for name in ("mode", "note") if draw(st.booleans())]
    columns = list(draw(st.permutations(columns)))
    if draw(st.booleans()):
        columns.append(draw(st.sampled_from(("card_id", "start_station"))))  # read from the last
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(("\n", "\r\n"))))
    writer.writerow(columns)
    for _ in range(draw(st.integers(0, 20))):
        start = draw(MOMENTS)
        times = {
            "start_time": draw(TIME_FORMS)(start),
            "end_time": draw(TIME_FORMS)(
                start + timedelta(minutes=draw(st.integers(-20, 150)), seconds=draw(st.integers(0, 59)))
            ),
        }
        row = [times[name] if name in times else draw(FIELDS[name]) for name in columns]
        shape = draw(st.sampled_from(ROW_SHAPES))
        if shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row += ["extra"] * draw(st.integers(1, 2))
        elif shape == "blank":
            buf.write("\n")
        writer.writerow(row)
    return buf.getvalue()


def outcome(parse, text, strict, exclude):
    try:
        result = parse(io.StringIO(text, newline=""), strict=strict, exclude_modes=exclude)
    except ParseFailure as exc:
        return ("failure", exc.line, exc.reason)
    return list(result.records), result.errors


def counts(series):
    return (series.tap_in.counts.tolist(), series.tap_out.counts.tolist(),
            series.tap_in.dropped, series.tap_out.dropped)


FIELD_COUNT = re.compile(r"row has \d+ fields, the header \d+")


def compare(text, exclude=()):
    """Hold ``parse_trips`` to the reference on one file; return the lines it refuses, with their reasons."""
    expected = list(reference.row_outcomes(io.StringIO(text, newline=""), exclude))
    result = parse_trips(io.StringIO(text, newline=""), exclude_modes=exclude)
    refused = {e.line: e.message for e in result.errors}
    assert sorted(refused) == [e.line for e in result.errors]
    assert set(refused) <= {line for line, _ in expected}
    for line, ref in expected:
        if isinstance(ref, str):  # the reference refuses it
            assert line in refused
        elif ref is None and line in refused:  # the reference skips its mode
            assert FIELD_COUNT.fullmatch(refused[line])
        elif line in refused:  # only the reference accepts it
            assert FIELD_COUNT.fullmatch(refused[line]) or refused[line].split(" ")[0] in TRIP_FIELDS
    both = [ref for line, ref in expected if isinstance(ref, TripRecord) and line not in refused]
    assert isinstance(result.records, Trips) and list(result.records) == both
    assert counts(station_series(result.records, EPOCHS, N_STATIONS)) == counts(
        reference.station_series(both, EPOCHS, N_STATIONS)
    )
    strict = outcome(parse_trips, text, True, exclude)
    if result.errors:
        first = result.errors[0]
        assert strict == ("failure", first.line, first.message)
    else:
        assert strict == (both, [])
    return refused


@settings(max_examples=200, deadline=None)
@given(text=trip_csv(), exclude=st.sampled_from(((), ("bus",), ("BUS", "tram"))))
def test_columns_match_the_per_row_reference(text, exclude):
    compare(text, exclude)


def test_every_odd_field_matches_the_per_row_reference():
    # the other endpoint is the earliest or latest canonical instant, so only
    # the odd field can make a row fail, and a refused row names it
    first, last = "0001-01-01T00:00", "9999-12-31T23:59:59"
    moments = (datetime(2015, 1, 31, 23, 30, 30), datetime(2016, 2, 28, 23, 59, 59),
               datetime(2100, 6, 30, 0, 0, 1), datetime(1, 1, 1, 0, 0, 0))
    times = [form(ts) for form in ODD_FORMS for ts in moments] + list(ODD_TIMES)
    rows = [(f"c,{t},1,{last},2", "start_time") for t in times]
    rows += [(f"c,{first},1,{t},2", "end_time") for t in times]
    rows += [(f"c,{first},{s},{last},2", "start_station") for s in STATIONS]
    rows += [(f"c,{first},1,{last},{s}", "end_station") for s in STATIONS]
    rows += [(f"{csv_field(c)},{first},1,{last},2", "card_id") for c in CARDS]
    header = ",".join(TRIP_FIELDS) + "\n"
    text = header + "\n".join(row for row, _ in rows) + "\n"
    compare(text)
    for row, name in rows:
        for reason in compare(header + row + "\n").values():
            assert reason.startswith(name + " ")


def csv_field(text):
    # the writer quotes a field that holds a character of its line terminator
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\r\n").writerow([text])
    return buf.getvalue()[:-2]


def test_rows_past_a_chunk_keep_their_lines_and_order():
    good = "c{0},2016-02-01T08:00,1,2016-02-01T09:30,2\n"
    rows = [good.format(i) for i in range(20000)]
    rows[3] = "c3,2016-02-01 08:00,1,2016-02-01T09:30,2\n"  # the reference reads it
    rows[9000] = "c9000,2016-02-01T08:00,x,2016-02-01T09:30,2\n"
    rows[17000] = "\n"
    text = ",".join(TRIP_FIELDS) + "\n" + "".join(rows)
    assert sorted(compare(text)) == [5, 9002]
    new = parse_trips(io.StringIO(text, newline=""))
    old = reference.parse_trips(io.StringIO(text, newline=""))
    assert [e.line for e in old.errors] == [9002]
    assert list(new.records) == old.records[:3] + old.records[4:]


def test_a_row_after_blank_lines_keeps_its_physical_line():
    # csv.DictReader skips blank rows and numbers the row that follows by its own line
    text = ",".join(TRIP_FIELDS) + "\n\n\nc1,later,1,2016-02-01T09:30,2\n"
    assert [e.line for e in parse_trips(io.StringIO(text, newline="")).errors] == [4]
    assert outcome(parse_trips, text, True, ())[:2] == ("failure", 4)
    assert list(compare(text)) == [4]


BAD_ROW = "c1,later,1,2016-02-01T09:30,2\n"
GOOD_ROW = "c{0},2016-02-01T08:00,1,2016-02-01T09:30,2\n"


def test_a_bad_row_fails_strict_mode_before_a_later_unreadable_field():
    oversize = "c2,2016-02-01T08:00,1,2016-02-01T09:30," + "9" * (csv.field_size_limit() + 1) + "\n"
    text = ",".join(TRIP_FIELDS) + "\n" + BAD_ROW + GOOD_ROW.format(3) + oversize
    for parse in (parse_trips, reference.parse_trips):
        assert outcome(parse, text, True, ())[:2] == ("failure", 2)
    for parse in (parse_trips, reference.parse_trips):
        with pytest.raises(csv.Error, match="field larger than field limit"):
            parse(io.StringIO(text, newline=""))


def test_a_bad_row_fails_strict_mode_before_a_later_undecodable_byte(tmp_path):
    # past the text layer's first 8 KiB decode, inside the first chunk of rows
    path = tmp_path / "trips.csv"
    rows = "".join(GOOD_ROW.format(i) for i in range(500))
    path.write_bytes((",".join(TRIP_FIELDS) + "\n" + BAD_ROW + rows).encode() + b"c\xff,x\n")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        with pytest.raises(ParseFailure) as expected:
            reference.parse_trips(fh, strict=True)
    with pytest.raises(ParseFailure) as failure:
        parse_trips(path, strict=True)
    assert failure.value.line == expected.value.line == 2
    assert failure.value.reason == "start_time is not a timestamp YYYY-MM-DDTHH:MM[:SS]: 'later'"
    with pytest.raises(UnicodeDecodeError):
        parse_trips(path)


# forms the reference reads that the grammar refuses, and one it accepts
FORMS = {
    "space separator": ("c1,2016-02-01 08:00,3,2016-02-01T08:25,7",
                        "start_time is not a timestamp YYYY-MM-DDTHH:MM[:SS]: '2016-02-01 08:00'"),
    "fractional seconds": ("c1,2016-02-01T08:00,3,2016-02-01T08:25:00.5,7",
                           "end_time is not a timestamp YYYY-MM-DDTHH:MM[:SS]: '2016-02-01T08:25:00.5'"),
    "week date": ("c1,2016-W05-1T08:00,3,2016-02-01T08:25,7",
                  "start_time is not a timestamp YYYY-MM-DDTHH:MM[:SS]: '2016-W05-1T08:00'"),
    "basic format": ("c1,20160201T0800,3,2016-02-01T08:25,7",
                     "start_time is not a timestamp YYYY-MM-DDTHH:MM[:SS]: '20160201T0800'"),
    "plus sign": ("c1,2016-02-01T08:00,+3,2016-02-01T08:25,7",
                  "start_station is not 1 to 18 ASCII digits: '+3'"),
    "leading space": ("c1,2016-02-01T08:00,3,2016-02-01T08:25, 3",
                      "end_station is not 1 to 18 ASCII digits: ' 3'"),
    "19 digits": ("c1,2016-02-01T08:00,1000000000000000000,2016-02-01T08:25,7",
                  "start_station is not 1 to 18 ASCII digits: '1000000000000000000'"),
    "long row": ("c1,2016-02-01T08:00,3,2016-02-01T08:25,7,extra", "row has 6 fields, the header 5"),
    "leading zeros": ("c2,2016-02-01T08:00,0003,2016-02-01T08:25,7", None),
}


@pytest.mark.parametrize("row, reason", FORMS.values(), ids=FORMS.keys())
def test_forms_the_reference_reads(row, reason):
    text = ",".join(TRIP_FIELDS) + "\n" + GOOD_ROW.format(1) + row + "\n"
    assert reference.parse_trips(io.StringIO(text, newline="")).ok
    result = parse_trips(io.StringIO(text, newline=""))
    if reason is None:
        assert result.ok and [r.start_station for r in result.records] == [1, 3]
        return
    assert [r.card_id for r in result.records] == ["c1"]
    assert result.errors == [RowError(3, reason)]
    assert outcome(parse_trips, text, True, ()) == ("failure", 3, reason)


@pytest.mark.parametrize("row, reason", [
    (" ,later,x,later,x", "card_id is empty"),
    ("c1,later,x,later,x", "start_time is not a timestamp YYYY-MM-DDTHH:MM[:SS]: 'later'"),
    ("c1,2016-02-01T09:00,x,later,x", "start_station is not 1 to 18 ASCII digits: 'x'"),
    ("c1,2016-02-01T09:00,1,later,x", "end_time is not a timestamp YYYY-MM-DDTHH:MM[:SS]: 'later'"),
    ("c1,2016-02-01T09:00,1,2016-02-01T08:00,x", "end_station is not 1 to 18 ASCII digits: 'x'"),
    ("c1,2016-02-01T09:00,1,2016-02-01T08:00,2", "trip ends before it starts"),
    (" ,later,x,later", "row has 4 fields, the header 5"),
    ("c,2016-02-01T08:00,3", "row has 3 fields, the header 5"),
], ids=["card_id", "start_time", "start_station", "end_time", "end_station", "order", "field-count",
        "short-row"])
def test_a_row_names_its_first_failing_check(row, reason):
    text = ",".join(TRIP_FIELDS) + "\n" + row + "\n"
    assert parse_trips(io.StringIO(text, newline="")).errors == [RowError(2, reason)]
