"""The columnar trip reader and binner against the per-row reference.

Hypothesis writes trip CSVs whose rows mix the canonical form with the forms
only the per-row path reads or refuses; both implementations must accept the
same records, report the same row errors, fail strict mode at the same line
for the same reason and count the same taps and drops.
"""

import csv
import io
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trip_reference as reference
from mobagg.ingest import TRIP_FIELDS, ParseFailure, Trips, parse_trips, station_series
from mobagg.timeseries import EpochSpec

EPOCHS = EpochSpec(start=datetime(2016, 2, 1), n_epochs=48)
N_STATIONS = 5


def iso(ts: datetime, seconds: bool = False) -> str:
    text = f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}T{ts.hour:02d}:{ts.minute:02d}"
    return text + f":{ts.second:02d}" if seconds else text


# each writes a timestamp in a form only the per-row path reads or refuses
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
# rows are mostly canonical, so that most files mix both paths
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


@settings(max_examples=200, deadline=None)
@given(text=trip_csv(), exclude=st.sampled_from(((), ("bus",), ("BUS", "tram"))))
def test_columns_match_the_per_row_reference(text, exclude):
    for strict in (False, True):
        assert outcome(parse_trips, text, strict, exclude) == outcome(
            reference.parse_trips, text, strict, exclude
        )
    table = parse_trips(io.StringIO(text, newline=""), exclude_modes=exclude).records
    records = reference.parse_trips(io.StringIO(text, newline=""), exclude_modes=exclude).records
    assert isinstance(table, Trips) and len(table) == len(records)
    expected = counts(reference.station_series(records, EPOCHS, N_STATIONS))
    assert counts(station_series(table, EPOCHS, N_STATIONS)) == expected
    assert counts(station_series(records, EPOCHS, N_STATIONS)) == expected


def test_every_odd_field_matches_the_per_row_reference():
    # the other endpoint is the earliest or latest canonical instant, so only
    # the odd field can keep a row off the canonical path
    first, last = "0001-01-01T00:00", "9999-12-31T23:59:59"
    moments = (datetime(2015, 1, 31, 23, 30, 30), datetime(2016, 2, 28, 23, 59, 59),
               datetime(2100, 6, 30, 0, 0, 1), datetime(1, 1, 1, 0, 0, 0))
    times = [form(ts) for form in ODD_FORMS for ts in moments] + list(ODD_TIMES)
    rows = [f"c,{t},1,{last},2" for t in times] + [f"c,{first},1,{t},2" for t in times]
    rows += [f"c,{first},{s},{last},2" for s in STATIONS] + [f"c,{first},1,{last},{s}" for s in STATIONS]
    rows += [f"{csv_field(c)},{first},1,{last},2" for c in CARDS]
    text = ",".join(TRIP_FIELDS) + "\n" + "\n".join(rows) + "\n"
    assert outcome(parse_trips, text, False, ()) == outcome(reference.parse_trips, text, False, ())
    for row in rows:
        one = ",".join(TRIP_FIELDS) + "\n" + row + "\n"
        assert outcome(parse_trips, one, True, ()) == outcome(reference.parse_trips, one, True, ())


def csv_field(text):
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


def test_rows_past_a_chunk_keep_their_lines_and_order():
    good = "c{0},2016-02-01T08:00,1,2016-02-01T09:30,2\n"
    rows = [good.format(i) for i in range(20000)]
    rows[3] = "c3,2016-02-01 08:00,1,2016-02-01T09:30,2\n"  # per-row path, accepted
    rows[9000] = "c9000,2016-02-01T08:00,x,2016-02-01T09:30,2\n"
    rows[17000] = "\n"
    text = ",".join(TRIP_FIELDS) + "\n" + "".join(rows)
    new = parse_trips(io.StringIO(text, newline=""))
    old = reference.parse_trips(io.StringIO(text, newline=""))
    assert list(new.records) == old.records
    assert new.errors == old.errors and [e.line for e in new.errors] == [9002]
    assert np.array_equal(
        station_series(new.records, EPOCHS, N_STATIONS).tap_out.counts,
        reference.station_series(old.records, EPOCHS, N_STATIONS).tap_out.counts,
    )


def test_a_row_after_blank_lines_keeps_its_physical_line():
    # csv.DictReader skips blank rows and numbers the row that follows by its own line
    text = ",".join(TRIP_FIELDS) + "\n\n\nc1,later,1,2016-02-01T09:30,2\n"
    assert [e.line for e in parse_trips(io.StringIO(text, newline="")).errors] == [4]
    assert outcome(parse_trips, text, True, ())[:2] == ("failure", 4)
    for strict in (False, True):
        assert outcome(parse_trips, text, strict, ()) == outcome(reference.parse_trips, text, strict, ())


BAD_ROW = "c1,later,1,2016-02-01T09:30,2\n"
GOOD_ROW = "c{0},2016-02-01T08:00,1,2016-02-01T09:30,2\n"


def test_a_bad_row_fails_strict_mode_before_a_later_unreadable_field():
    oversize = "c2,2016-02-01T08:00,1,2016-02-01T09:30," + "9" * (csv.field_size_limit() + 1) + "\n"
    text = ",".join(TRIP_FIELDS) + "\n" + BAD_ROW + GOOD_ROW.format(3) + oversize
    expected = outcome(reference.parse_trips, text, True, ())
    assert expected[:2] == ("failure", 2)
    assert outcome(parse_trips, text, True, ()) == expected
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
    assert (failure.value.line, failure.value.reason) == (expected.value.line, expected.value.reason) == (
        2, "start_time is not an ISO-8601 timestamp: 'later'"
    )
    with pytest.raises(UnicodeDecodeError):
        parse_trips(path)
