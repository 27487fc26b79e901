import csv
import io
import itertools
import random
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoloc import ingest
from geoloc.errors import DomainError, ManifestError
from geoloc.geodesy import latlon_to_utm_arrays
from geoloc.ingest import (
    ImageRecord,
    ManifestColumns,
    load_manifest_columns,
    parse_manifest,
    parse_manifest_columns,
    serialize_manifest,
    split_validation,
)
from geoloc.partition import GeoPose
from columns import columns_of
from oracles import parse_manifest_whole


def parse(text):
    return parse_manifest(io.StringIO(text))


def test_parse_basic_row():
    records = parse("id,east,north,heading\na,553201.3,4183422.7,47\n")
    assert len(records) == 1
    r = records[0]
    assert r.id == "a"
    assert r.pose == GeoPose(553201.3, 4183422.7, 47.0)
    assert r.zone_number == 10 and r.hemisphere == "north"  # default zone


def test_duplicate_id_names_both_lines():
    with pytest.raises(ManifestError, match=r"lines 2 and 4"):
        parse("id,east,north,heading\na,1,2,3\nb,1,2,3\na,4,5,6\n")


@pytest.mark.parametrize("cell", ["", "  "], ids=["empty", "blank"])
def test_empty_id_names_its_line(cell):
    with pytest.raises(ManifestError) as exc:
        parse(f"id,east,north,heading\na,1,2,3\n{cell},1,2,3\n")
    assert str(exc.value) == "line 3: empty id"


def test_heading_normalization():
    records = parse("id,east,north,heading\na,1,2,361.0\n")
    assert records[0].pose.heading == 1.0


def test_heading_out_of_prenormalization_range_rejected():
    with pytest.raises(ManifestError, match="720"):
        parse("id,east,north,heading\na,1,2,720.0\n")
    with pytest.raises(ManifestError, match="720"):
        parse("id,east,north,heading\na,1,2,-1.0\n")


def test_unparseable_row_reports_line_number():
    with pytest.raises(ManifestError, match="line 3"):
        parse("id,east,north,heading\na,1,2,3\nb,xx,2,3\n")


def test_unknown_column_rejected():
    with pytest.raises(ManifestError, match="unknown"):
        parse("id,east,north,heading,foo\na,1,2,3,4\n")


def test_latlon_conversion_fills_position_and_zone():
    records = parse("id,lat,lon,heading\na,37.7749,-122.4194,10\n")
    r = records[0]
    assert r.zone_number == 10 and r.hemisphere == "north"
    assert abs(r.pose.east - 551130.77) < 1.0
    assert abs(r.pose.north - 4180998.88) < 1.0
    assert r.lat == 37.7749 and r.lon == -122.4194


def test_mixed_zones_rejected():
    text = "id,lat,lon,heading\na,37.77,-122.42,10\nb,35.68,139.69,10\n"
    with pytest.raises(ManifestError, match="mixes zones"):
        parse(text)


def test_explicit_zone_columns():
    records = parse("id,east,north,heading,zone,hemisphere\na,1,2,3,33,south\n")
    assert records[0].zone_number == 33
    assert records[0].hemisphere == "south"
    with pytest.raises(ManifestError, match="hemisphere"):
        parse("id,east,north,heading,zone,hemisphere\na,1,2,3,33,up\n")


def test_parse_serialize_parse_is_identity():
    text = (
        "id,east,north,heading,lat,lon,uri\n"
        "a,,,47,37.7749,-122.4194,http://x/a.jpg\n"
        "b,,,90.5,37.7751,-122.4195,\n"
    )
    records = parse(text)
    buf = io.StringIO()
    serialize_manifest(records, buf)
    again = parse_manifest(io.StringIO(buf.getvalue()))
    assert again == records

    # Serialization is a fixed point: re-serializing parses to the same bytes.
    buf2 = io.StringIO()
    serialize_manifest(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


def make_rows(n):
    return columns_of([ImageRecord(id=f"r{i}", pose=GeoPose(float(i), 0.0, 0.0)) for i in range(n)])


def same_rows(a, b):
    """ManifestColumns has no ``==``: equal ids, zone and uris, and bitwise equal arrays."""
    arrays = ("east", "north", "heading", "lat", "lon")
    return (a.ids, a.zone_number, a.hemisphere, a.uris) == (b.ids, b.zone_number, b.hemisphere, b.uris) and all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True) for name in arrays
    )


def test_split_sizes_and_determinism():
    records = make_rows(1000)
    train, db, queries = split_validation(records, 0.1, seed=7)
    assert (len(train), len(db), len(queries)) == (800, 100, 100)
    train2, db2, queries2 = split_validation(records, 0.1, seed=7)
    assert same_rows(train, train2) and same_rows(db, db2) and same_rows(queries, queries2)
    # A different seed moves records around.
    train3, _, _ = split_validation(records, 0.1, seed=8)
    assert not same_rows(train, train3)


def test_split_partitions_the_input():
    records = make_rows(97)
    train, db, queries = split_validation(records, 0.25, seed=3)
    ids = train.ids + db.ids + queries.ids
    assert sorted(ids) == sorted(records.ids)
    assert len(set(ids)) == len(records)


def test_split_parts_keep_the_input_order_and_each_row_s_values():
    records = columns_of([
        ImageRecord(id=f"r{i}", pose=GeoPose(float(i), 2.0 * i, float(i % 360)), lat=float(i % 80), lon=i / 7.0,
                    source_uri=f"u{i}" if i % 3 else None)
        for i in range(50)
    ])
    # The queries take the first tenth of a random.Random(seed) shuffle of the rows, the database the second.
    order = list(range(50))
    random.Random(4).shuffle(order)
    want = (order[20:], order[10:20], order[:10])
    for part, picks in zip(split_validation(records, 0.2, seed=4), want):
        rows = [records.ids.index(rid) for rid in part.ids]
        assert rows == sorted(picks)
        assert same_rows(part, columns_of([records.records()[i] for i in rows]))


def test_split_fraction_bounds():
    records = make_rows(100)
    with pytest.raises(DomainError):
        split_validation(records, 0.6, seed=0)
    with pytest.raises(DomainError):
        split_validation(records, 0.0, seed=0)
    with pytest.raises(DomainError):
        split_validation(make_rows(2), 0.5, seed=0)  # no training record left


def test_latlon_manifest_and_its_east_north_round_trip_parse_equal():
    latlon = parse("id,lat,lon,heading,uri\na,37.7749,-122.4194,10,s3://a\nb,37.7751,-122.4192,370,\n")
    stream = io.StringIO()
    serialize_manifest(latlon, stream)
    assert "east" in stream.getvalue().splitlines()[0]
    assert parse(stream.getvalue()) == latlon
    assert {(r.zone_number, r.hemisphere) for r in latlon} == {(10, "north")}


@pytest.mark.parametrize(
    "row, problem",
    [
        ("b,1,2,3,0,north,,", "zone"),
        ("b,1,2,3,99,north,,", "zone"),
        ("b,1,2,3,33.7,north,,", "zone"),
        ("b,1,2,3,10,north,95,10", "latitude"),  # not projected, still checked
        ("b,,,3,,,-95,10", "latitude"),
    ],
)
def test_out_of_range_zone_or_latitude_rejected(row, problem):
    with pytest.raises(ManifestError, match=rf"^line 3: {problem}"):
        parse(f"id,east,north,heading,zone,hemisphere,lat,lon\na,1,2,3,10,north,,\n{row}\n")


def test_integral_zone_text_accepted():
    assert parse("id,east,north,heading,zone,hemisphere\na,1,2,3,33.0,south\n")[0].zone_number == 33


def _latlon_manifest(lats, lons, headings=None):
    headings = headings or [10.0] * len(lats)
    rows = [f"r{i},{lat!r},{lon!r},{h!r}" for i, (lat, lon, h) in enumerate(zip(lats, lons, headings))]
    return "id,lat,lon,heading\n" + "\n".join(rows) + "\n"


def test_latitude_outside_the_utm_band_names_its_late_line():
    lats = [37.7 + 1e-5 * i for i in range(500)]
    lats[470] = 84.5
    headings = [10.0] * 500
    headings[490] = 800.0  # a later bad row must not be the one reported
    with pytest.raises(ManifestError, match=r"^line 472: latitude 84\.5 outside the \+/-84"):
        parse(_latlon_manifest(lats, [-122.4] * 500, headings))
    lats[470] = 37.7
    with pytest.raises(ManifestError, match=r"^line 492: heading 800\.0"):
        parse(_latlon_manifest(lats, [-122.4] * 500, headings))


def test_latlon_manifest_spanning_two_zones_rejected():
    lons = [-120.5 + 0.002 * i for i in range(500)]  # crosses the zone 10/11 edge at -120
    with pytest.raises(ManifestError, match=r"mixes zones/hemispheres: \[\(10, 'north'\), \(11, 'north'\)\]"):
        parse(_latlon_manifest([37.7] * 500, lons))
    with pytest.raises(ManifestError, match="mixes zones"):
        parse(_latlon_manifest([0.5 - 0.002 * i for i in range(500)], [-122.4] * 500))


@st.composite
def _manifest_rows(draw):
    """A manifest text and, per row, the fields its record must carry.

    Rows give east/north, lat/lon only, or both; every row lies in one zone,
    named by zone columns or, without them, the default zone 10 north.
    """
    zoned = draw(st.booleans())
    zone, south = (draw(st.integers(1, 60)), draw(st.booleans())) if zoned else (10, False)
    west = (zone - 1) * 6.0 - 180.0
    lats = st.floats(-84.0, -1e-6) if south else st.floats(0.0, 84.0)
    ids = st.text("abz09_-., \"", min_size=1, max_size=6).map(str.strip).filter(bool)
    columns = ["id", "heading", "east", "north", "lat", "lon", "uri"] + (["zone", "hemisphere"] if zoned else [])
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    expected = []
    for rid in draw(st.lists(ids, min_size=1, max_size=8, unique=True)):
        kind = draw(st.sampled_from(["utm", "latlon", "both"]))
        heading = draw(st.floats(0.0, 720.0, exclude_max=True) | st.just(-0.0))
        east, north = draw(st.floats(1e5, 9e5)), draw(st.floats(0.0, 9e6))
        lat, lon = draw(lats), draw(st.floats(west + 1e-6, west + 6.0 - 1e-6))
        uri = draw(st.sampled_from(["", "s3://b/x.jpg", " http://h/y "]))
        cells = {"id": rid, "heading": repr(heading), "uri": uri}
        if kind != "latlon":
            cells.update(east=repr(east), north=repr(north))
        if kind != "utm":
            cells.update(lat=repr(lat), lon=repr(lon))
        if zoned and kind != "latlon":
            cells.update(zone=str(zone), hemisphere="south" if south else "north")
        writer.writerow([cells.get(c, "") for c in columns])
        position = (east, north) if kind != "latlon" else None
        latlon = (lat, lon) if kind != "utm" else (None, None)
        expected.append((rid, repr(heading % 360.0), position, latlon, uri.strip() or None))
    return text.getvalue(), expected, (zone, "south" if south else "north")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_manifest_rows())
def test_parsed_rows_survive_serialize_and_parse(manifest):
    text, expected, zone = manifest
    records = parse(text)
    for r, (rid, heading, position, latlon, uri) in zip(records, expected, strict=True):
        assert (r.id, repr(r.pose.heading), (r.lat, r.lon), r.source_uri) == (rid, heading, latlon, uri)
        assert position is None or (r.pose.east, r.pose.north) == position
        assert (r.zone_number, r.hemisphere) == zone
    buf = io.StringIO()
    serialize_manifest(records, buf)
    assert parse(buf.getvalue()) == records


_HEADER = "id,east,north,heading,zone,hemisphere,lat,lon\n"
# One faulty row per kind (its id is filled in) and the fault it is reported with.
_FAULTS = {
    "not-a-number": ("{},1,zz,3,10,north,,", "column 'north' is not a number: 'zz'"),
    "heading": ("{},1,2,720,10,north,,", "heading 720.0 outside [0, 720)"),
    "zone": ("{},1,2,3,61,north,,", "zone must be an integer in [1, 60], got '61'"),
    "hemisphere": ("{},1,2,3,10,up,,", "hemisphere must be one of ('north', 'south'), got 'up'"),
    "no-position": ("{},,,3,10,north,,", "neither east/north nor lat/lon present"),
    "utm-band": ("{},,,3,,,85,10", "latitude 85.0 outside the +/-84.0 degree UTM band"),
}


@pytest.mark.parametrize("first, second", itertools.product(_FAULTS, repeat=2))
def test_the_earlier_of_two_faulty_rows_is_reported(first, second):
    rows = ["a,1,2,3,10,north,,", _FAULTS[first][0].format("b"), "c,1,2,3,10,north,,", _FAULTS[second][0].format("d")]
    with pytest.raises(ManifestError) as exc:
        parse(_HEADER + "\n".join(rows) + "\n")
    assert str(exc.value) == f"line 3: {_FAULTS[first][1]}"


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,zz,2,800,99,up,95,10", "heading 800.0 outside [0, 720)"),
        ("a,zz,2,3,99,up,,", "zone must be an integer in [1, 60], got '99'"),
        ("a,zz,2,3,10,up,,", "hemisphere must be one of ('north', 'south'), got 'up'"),
        ("a,zz,,3,10,north,,", "neither east/north nor lat/lon present"),
        ("a,zz,2,3,,,85,10", "latitude 85.0 outside the +/-84.0 degree UTM band"),
        ("a,1,2,3,10,north,95,zz", "column 'lon' is not a number: 'zz'"),
        ("a,1,2,nan,10,north,95,zz", "column 'heading' must be finite, got 'nan'"),
    ],
)
def test_a_row_with_several_faults_reports_its_first_check(row, message):
    with pytest.raises(ManifestError) as exc:
        parse(_HEADER + row + "\n")
    assert str(exc.value) == f"line 2: {message}"


def test_a_quoted_multiline_cell_keeps_physical_line_numbers():
    text = 'id,east,north,heading,uri\na,1,2,3,"line\nbreak"\nb,1,2,4,\n'
    assert [r.source_uri for r in parse(text)] == ["line\nbreak", None]
    with pytest.raises(ManifestError) as exc:
        parse(text.replace("b,1,2,4", "b,1,2,xx"))
    assert str(exc.value) == "line 4: column 'heading' is not a number: 'xx'"


def test_blank_lines_are_skipped():
    text = "id,east,north,heading\n\na,1,2,3\n\n\nb,1,2,4\n\n"
    assert [r.id for r in parse(text)] == ["a", "b"]
    with pytest.raises(ManifestError) as exc:
        parse(text.replace("b,1,2,4", "b,1,2,zz"))
    assert str(exc.value) == "line 6: column 'heading' is not a number: 'zz'"


def test_columns_hold_what_the_records_hold():
    text = (
        "id,east,north,heading,lat,lon,uri\n"
        "a,,,47,37.7749,-122.4194,http://x/a.jpg\n"
        "\n"
        "b,553201.3,4183422.7,400.5,,,\n"
    )
    columns = parse_manifest_columns(io.StringIO(text))
    records = parse(text)
    assert columns.ids == [r.id for r in records] and len(columns) == 2
    assert columns.positions().tolist() == [[r.pose.east, r.pose.north] for r in records]
    assert columns.heading.tolist() == [r.pose.heading for r in records] == [47.0, 40.5]
    assert (columns.zone_number, columns.hemisphere) == (records[0].zone_number, records[0].hemisphere)
    assert columns.uris == ["http://x/a.jpg", None]
    assert columns.records() == records


def test_a_structural_fault_is_reported_before_a_later_unreadable_row():
    # A row-by-row parse meets the duplicate id on line 3 before the over-long cell on line 4.
    text = f"id,east,north,heading\na,1,2,3\na,1,2,3\n{'b' * 140_000},1,2,3\n"
    with pytest.raises(ManifestError, match="^duplicate id 'a' on lines 2 and 3$"):
        parse(text)
    with pytest.raises(csv.Error, match="field limit"):
        parse(f"id,east,north,heading\na,1,2,3\n{'b' * 140_000},1,2,3\na,1,2,3\n")


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,1_000.5,2,3", "column 'east' is not a number: '1_000.5'"),  # float() reads 1000.5
        ("a,1,2,\u0661", "column 'heading' is not a number: '\u0661'"),  # an Arabic-Indic one: float() reads 1.0
        ("a,1,\uff12,3", "column 'north' is not a number: '\uff12'"),  # a fullwidth two
        ("a,1,2,\u00a05", "column 'heading' is not a number: '\\xa05'"),  # float() strips the no-break space
        ("a,zz,2,\u0661", "column 'heading' is not a number: '\u0661'"),  # heading is checked before east
        ("a,1_0,2,800", "heading 800.0 outside [0, 720)"),  # and so is its range
    ],
)
def test_numbers_must_be_ascii_without_underscores(row, message):
    with pytest.raises(ManifestError) as exc:
        parse(f"id,east,north,heading\nb,1,2,3\n{row}\n")
    assert str(exc.value) == f"line 3: {message}"
    assert parse("id,east,north,heading\na, 1.5e3 ,-2,+3\n")[0].pose == GeoPose(1500.0, -2.0, 3.0)


_PARITY_HEADER = _HEADER.strip() + ",uri"
# Rows of a parity manifest by kind: each is formatted with a fresh id, except "duplicate", which
# repeats the id of the row before it. Some hold more than one line ("multiline") or none ("blank").
_PARITY_ROWS = {
    "utm": "{},553201.25,4183422.5,47,10,north,,,",
    "latlon": "{},,,359.5,,,37.77,-122.41,s3://b/x.jpg",
    "both": "{},553201.25,4183422.5,700,10,north,37.77,-122.41, http://h/y ",
    "nan": "{},1,2,nan,10,north,,,",
    "zone-11": "{},,,3,,,37.77,-118.0,",
    "multiline": '{},1,2,3,10,north,,,"line\nbreak"',
    "blank": "",
    "duplicate": "{},1,2,3,10,north,,,",
    "fewer": "{},1,2",
    "more": "{},1,2,3,10,north,,,,extra",
    "empty-id": " ,1,2,3,10,north,,,",
    "overlong": "{},1,2,3,10,north,,,%s" % ("u" * 140_000),
    **{kind: row + "," for kind, (row, _) in _FAULTS.items()},
}


def _parity_manifest(kinds, bom):
    lines, rid = [_PARITY_HEADER], "r0"
    for i, kind in enumerate(kinds):
        rid = rid if kind == "duplicate" else f"r{i}"
        lines.append(_PARITY_ROWS[kind].format(rid))
    return ("\ufeff" if bom else "") + "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kinds=st.lists(st.sampled_from(sorted(_PARITY_ROWS)), max_size=14)
    | st.lists(st.sampled_from(["utm", "latlon", "both", "blank", "multiline", "duplicate"]), max_size=14),
    bom=st.booleans(),
)
# Chunks of 3 rows: a duplicate id across a chunk boundary, a structural fault a chunk after a value
# fault, and an unreadable row before and after a structural fault.
@example(kinds=["utm", "utm", "latlon", "duplicate", "utm"], bom=False)
@example(kinds=["utm", "heading", "utm", "utm", "blank", "fewer", "latlon"], bom=True)
@example(kinds=["utm", "not-a-number", "zone", "utm", "utm", "duplicate"], bom=False)
@example(kinds=["utm", "utm", "overlong", "utm", "more"], bom=False)
@example(kinds=["utm", "empty-id", "utm", "overlong", "utm"], bom=False)
@example(kinds=["utm", "multiline", "utm", "blank", "latlon", "both", "multiline"], bom=True)
def test_chunked_parse_returns_what_the_whole_file_parse_returns(tmp_path_factory, kinds, bom):
    path = tmp_path_factory.mktemp("parity") / "manifest.csv"
    path.write_bytes(_parity_manifest(kinds, bom).encode("utf-8"))

    def outcome(read):
        try:
            return read()
        except Exception as exc:
            return type(exc), str(exc)

    whole = partial(parse_manifest_whole, latlon_to_utm_arrays=latlon_to_utm_arrays)
    want = outcome(lambda: ingest._read_manifest(path, whole))
    with mock.patch.object(ingest, "MANIFEST_CHUNK_ROWS", 3):
        got = outcome(lambda: load_manifest_columns(path))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    ids, east, north, heading, zone_number, hemisphere, lat, lon, uris = want
    assert isinstance(got, ManifestColumns), got
    assert (got.ids, got.zone_number, got.hemisphere, got.uris) == (ids, zone_number, hemisphere, uris)
    for name, array in (("east", east), ("north", north), ("heading", heading), ("lat", lat), ("lon", lon)):
        mine = getattr(got, name)
        assert (mine.dtype, mine.shape, mine.tobytes()) == (array.dtype, array.shape, array.tobytes()), name


def test_parse_memory_grows_by_little_more_than_the_kept_columns_per_row(tmp_path, traced_peak):
    # A parse keeps ~110 B per lat/lon row (its id and five float64 columns). Reading the whole file
    # before checking it held every row's cells at once, ~490 B per row; chunks of rows hold one
    # chunk's cells. The bound, 256 B per row, is fixed in advance, not fitted to a reading.
    rng = np.random.default_rng(34)
    peaks = {}
    for n in (100, 4_000, 12_000):  # the first parse of a process also makes one-off allocations
        lats, lons, headings = (rng.uniform(lo, hi, n).tolist() for lo, hi in ((37.7, 37.8), (-122.5, -122.4), (0, 360)))
        rows = (f"db_{i:06d},{lat!r},{lon!r},{h!r}" for i, (lat, lon, h) in enumerate(zip(lats, lons, headings)))
        path = tmp_path / f"db{n}.csv"
        path.write_text("id,lat,lon,heading\n" + "\n".join(rows) + "\n", encoding="utf-8")
        columns, peaks[n] = traced_peak(lambda: load_manifest_columns(path))
        assert len(columns) == n
    per_row = (peaks[12_000] - peaks[4_000]) / 8_000
    assert per_row <= 256, f"{per_row:.0f} B per row"
