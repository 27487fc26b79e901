import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloc.errors import DomainError
from geoloc.geodesy import (
    LatLon,
    UtmCoord,
    latlon_to_utm,
    latlon_to_utm_arrays,
    normalize_longitude,
    utm_to_latlon,
    zone_number_for_longitude,
)

# Frozen from two independently published converters (Hoffmann-Wellenhof
# series and the Snyder formulas) plus a high-precision series in mpmath;
# all three agree below a millimeter.
SF_LATLON = (37.7749, -122.4194)
SF_UTM = (551130.768, 4180998.881, 10, "north")


def test_central_meridian_maps_to_false_easting():
    c = latlon_to_utm(LatLon(0.0, 3.0))
    assert c.east == pytest.approx(500000.0, abs=1e-6)
    assert c.north == pytest.approx(0.0, abs=1e-6)
    assert c.zone_number == 31
    assert c.hemisphere == "north"


def test_east_of_central_meridian_increases_easting():
    c = latlon_to_utm(LatLon(0.0, 3.0 + 1e-9))
    assert c.east > 500000.0


def test_san_francisco_reference_within_one_meter():
    c = latlon_to_utm(LatLon(*SF_LATLON))
    assert c.zone_number == SF_UTM[2]
    assert c.hemisphere == SF_UTM[3]
    assert math.hypot(c.east - SF_UTM[0], c.north - SF_UTM[1]) < 1.0


def test_inverse_of_central_meridian_case():
    p = utm_to_latlon(UtmCoord(500000.0, 0.0, 31, "north"))
    assert p.latitude == pytest.approx(0.0, abs=1e-9)
    assert p.longitude == pytest.approx(3.0, abs=1e-9)


def test_inverse_of_san_francisco_reference():
    p = utm_to_latlon(UtmCoord(SF_UTM[0], SF_UTM[1], SF_UTM[2], SF_UTM[3]))
    assert p.latitude == pytest.approx(SF_LATLON[0], abs=2e-5)  # 1 m is about 1e-5 deg
    assert p.longitude == pytest.approx(SF_LATLON[1], abs=2e-5)


def test_round_trip_san_francisco():
    p = utm_to_latlon(latlon_to_utm(LatLon(*SF_LATLON)))
    assert p.latitude == pytest.approx(SF_LATLON[0], abs=1e-6)
    assert p.longitude == pytest.approx(SF_LATLON[1], abs=1e-6)


def test_out_of_band_latitude_rejected():
    with pytest.raises(DomainError, match="84"):
        latlon_to_utm(LatLon(86.0, 10.0))
    with pytest.raises(DomainError, match="84"):
        latlon_to_utm(LatLon(-84.5, 10.0))


def test_southern_hemisphere_false_northing():
    c = latlon_to_utm(LatLon(-33.8688, 151.2093))  # Sydney
    assert c.hemisphere == "south"
    assert 0.0 < c.north < 10_000_000.0
    p = utm_to_latlon(c)
    assert p.latitude == pytest.approx(-33.8688, abs=1e-6)
    assert p.longitude == pytest.approx(151.2093, abs=1e-6)


def test_invalid_zone_rejected():
    with pytest.raises(DomainError, match="zone"):
        UtmCoord(500000.0, 0.0, 61, "north")
    with pytest.raises(DomainError, match="zone"):
        UtmCoord(500000.0, 0.0, 0, "north")


def test_zone_rule():
    assert zone_number_for_longitude(-180.0) == 1
    assert zone_number_for_longitude(-122.4194) == 10
    assert zone_number_for_longitude(0.0) == 31
    assert zone_number_for_longitude(179.999) == 60
    assert zone_number_for_longitude(180.0) == 1  # wraps to -180


def test_longitudes_a_few_ulps_past_the_antimeridian_wrap_into_range():
    # (x + 180) % 360 rounds up to 360 just below -180, which would give 180 and zone 61.
    near = []
    for edge in (-180.0, 180.0, -540.0, 540.0):
        x = edge
        for _ in range(4):
            x = math.nextafter(x, -math.inf)
            near.append(x)
        x = edge
        for _ in range(4):
            x = math.nextafter(x, math.inf)
            near.append(x)
    for lon in near:
        wrapped = normalize_longitude(lon)
        assert -180.0 <= wrapped < 180.0, lon
        assert -180.0 <= LatLon(10.0, lon).longitude < 180.0, lon
        assert 1 <= zone_number_for_longitude(lon) <= 60, lon
    wrapped = normalize_longitude(np.array(near))
    assert ((wrapped >= -180.0) & (wrapped < 180.0)).all()
    zones = zone_number_for_longitude(np.array(near))
    assert ((zones >= 1) & (zones <= 60)).all()
    assert latlon_to_utm(LatLon(10.0, -180.00000000000003)).zone_number == 1


def test_one_longitude_degree_at_equator():
    # Near the central meridian of zone 31: 1 degree of longitude should span
    # about 111 320 m (within 0.5%, the UTM scale factor included).
    a = latlon_to_utm(LatLon(0.0, 2.5))
    b = latlon_to_utm(LatLon(0.0, 3.5))
    assert math.hypot(b.east - a.east, b.north - a.north) == pytest.approx(111_320.0, rel=5e-3)


@given(
    lat=st.floats(-70.0, 70.0),
    lon=st.floats(-180.0, 179.999999),
)
@settings(max_examples=300, deadline=None)
def test_round_trip_property(lat, lon):
    p = utm_to_latlon(latlon_to_utm(LatLon(lat, lon)))
    assert abs(p.latitude - lat) < 1e-6
    # Longitude wraps; compare circularly.
    dlon = abs(p.longitude - lon) % 360.0
    assert min(dlon, 360.0 - dlon) < 1e-6


def test_latlon_invariants():
    with pytest.raises(DomainError):
        LatLon(91.0, 0.0)
    assert LatLon(0.0, 181.0).longitude == -179.0
    assert LatLon(0.0, -180.0).longitude == -180.0
    assert LatLon(0.0, 180.0).longitude == -180.0


def test_utm_in_zone_easting_range():
    # Spot-check the in-zone easting convention on a spread of points.
    for lat in (-80.0, -30.0, 0.0, 30.0, 80.0):
        for lon in (-177.0, -10.2, 0.1, 44.4, 179.0):
            c = latlon_to_utm(LatLon(lat, lon))
            assert 100000.0 < c.east < 900000.0


def _reference_utm(lat: float, lon: float) -> tuple[float, float, int, bool]:
    """The order-6 Krueger series point by point with ``math``: (east, north, zone, south)."""
    from geoloc import geodesy as g

    zone = int((lon + 180.0) // 6.0) + 1
    phi = math.radians(lat)
    lam = math.radians(lon) - math.radians((zone - 1) * 6.0 - 177.0)
    s = math.sin(phi)
    t = math.sinh(math.atanh(s) - g._E * math.atanh(g._E * s))
    xi_p = math.atan2(t, math.cos(lam))
    eta_p = math.asinh(math.sin(lam) / math.hypot(t, math.cos(lam)))
    xi, eta = xi_p, eta_p
    for j, a in enumerate(g._ALPHA, start=1):
        xi += a * math.sin(2 * j * xi_p) * math.cosh(2 * j * eta_p)
        eta += a * math.cos(2 * j * xi_p) * math.sinh(2 * j * eta_p)
    scale = g.UTM_SCALE * g._RECTIFYING_RADIUS
    north = scale * xi + (g.FALSE_NORTHING_SOUTH if lat < 0.0 else 0.0)
    return g.FALSE_EASTING + scale * eta, north, zone, lat < 0.0


def test_array_projection_matches_the_scalar_one():
    # Criterion 10's points, southern ones included.
    rng = np.random.default_rng(100)
    lats = rng.uniform(-70.0, 70.0, size=10_000)
    lons = rng.uniform(-180.0, 180.0, size=10_000)
    east, north, zone, south = latlon_to_utm_arrays(lats, lons)
    assert south.any() and not south.all()
    for i, (lat, lon) in enumerate(zip(lats, lons)):
        c = latlon_to_utm(LatLon(float(lat), float(lon)))
        ref_east, ref_north, ref_zone, ref_south = _reference_utm(float(lat), float(lon))
        for value in (east[i], c.east):
            assert abs(value - ref_east) < 1e-8
        for value in (north[i], c.north):
            assert abs(value - ref_north) < 1e-8
        assert c.zone_number == zone[i] == ref_zone
        assert c.hemisphere == ("south" if south[i] else "north") == ("south" if ref_south else "north")


def test_array_projection_names_the_first_latitude_outside_the_band():
    with pytest.raises(DomainError, match=r"latitude -85\.0 outside"):
        latlon_to_utm_arrays(np.array([10.0, -85.0, 86.0]), np.array([0.0, 0.0, 0.0]))
    with pytest.raises(DomainError, match="latitude nan outside"):
        latlon_to_utm_arrays(np.array([float("nan")]), np.array([0.0]))
