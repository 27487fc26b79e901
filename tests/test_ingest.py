import io

import pytest

from geoloc.errors import DomainError, ManifestError
from geoloc.ingest import (
    ImageRecord,
    parse_manifest,
    serialize_manifest,
    split_validation,
)
from geoloc.partition import GeoPose


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


def make_records(n):
    return [ImageRecord(id=f"r{i}", pose=GeoPose(float(i), 0.0, 0.0)) for i in range(n)]


def test_split_sizes_and_determinism():
    records = make_records(1000)
    train, db, queries = split_validation(records, 0.1, seed=7)
    assert (len(train), len(db), len(queries)) == (800, 100, 100)
    train2, db2, queries2 = split_validation(records, 0.1, seed=7)
    assert train == train2 and db == db2 and queries == queries2
    # A different seed moves records around.
    train3, _, _ = split_validation(records, 0.1, seed=8)
    assert train != train3


def test_split_partitions_the_input():
    records = make_records(97)
    train, db, queries = split_validation(records, 0.25, seed=3)
    ids = [r.id for r in train + db + queries]
    assert sorted(ids) == sorted(r.id for r in records)
    assert len(set(ids)) == len(records)


def test_split_fraction_bounds():
    records = make_records(100)
    with pytest.raises(DomainError):
        split_validation(records, 0.6, seed=0)
    with pytest.raises(DomainError):
        split_validation(records, 0.0, seed=0)
    with pytest.raises(DomainError):
        split_validation(make_records(2), 0.5, seed=0)  # no training record left
