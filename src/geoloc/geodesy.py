"""WGS-84 latitude/longitude <-> UTM conversion.

The projection uses the Krueger series in the third flattening carried to
order n^6, which is accurate to well under a millimeter anywhere inside a
UTM zone. The inverse goes back through the conformal latitude with a
Newton iteration, so round trips are limited only by the series itself.

Conventions: eastings carry the 500 km false easting, northings in the
southern hemisphere carry the 10 000 km false northing, and one unit is
one meter. Zones follow the plain 6 degree rule with no Norway/Svalbard
exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# WGS-84 ellipsoid
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563

UTM_SCALE = 0.9996
FALSE_EASTING = 500_000.0
FALSE_NORTHING_SOUTH = 10_000_000.0

# Transverse Mercator is reliable only inside this latitude band.
MAX_UTM_LATITUDE = 84.0

NORTH = "north"
SOUTH = "south"
HEMISPHERES = (NORTH, SOUTH)

_E2 = WGS84_F * (2.0 - WGS84_F)
_E = math.sqrt(_E2)

# Third flattening and the rectifying radius.
_N = WGS84_F / (2.0 - WGS84_F)
_RECTIFYING_RADIUS = WGS84_A / (1.0 + _N) * (1.0 + _N**2 / 4.0 + _N**4 / 64.0 + _N**6 / 256.0)

# Krueger series coefficients, order n^6 (Karney 2011, eqs. 35-36).
_ALPHA = (
    _N / 2.0 - 2.0 * _N**2 / 3.0 + 5.0 * _N**3 / 16.0 + 41.0 * _N**4 / 180.0
    - 127.0 * _N**5 / 288.0 + 7891.0 * _N**6 / 37800.0,
    13.0 * _N**2 / 48.0 - 3.0 * _N**3 / 5.0 + 557.0 * _N**4 / 1440.0
    + 281.0 * _N**5 / 630.0 - 1983433.0 * _N**6 / 1935360.0,
    61.0 * _N**3 / 240.0 - 103.0 * _N**4 / 140.0 + 15061.0 * _N**5 / 26880.0
    + 167603.0 * _N**6 / 181440.0,
    49561.0 * _N**4 / 161280.0 - 179.0 * _N**5 / 168.0 + 6601661.0 * _N**6 / 7257600.0,
    34729.0 * _N**5 / 80640.0 - 3418889.0 * _N**6 / 1995840.0,
    212378941.0 * _N**6 / 319334400.0,
)
_BETA = (
    _N / 2.0 - 2.0 * _N**2 / 3.0 + 37.0 * _N**3 / 96.0 - 1.0 * _N**4 / 360.0
    - 81.0 * _N**5 / 512.0 + 96199.0 * _N**6 / 604800.0,
    1.0 * _N**2 / 48.0 + 1.0 * _N**3 / 15.0 - 437.0 * _N**4 / 1440.0
    + 46.0 * _N**5 / 105.0 - 1118711.0 * _N**6 / 3870720.0,
    17.0 * _N**3 / 480.0 - 37.0 * _N**4 / 840.0 - 209.0 * _N**5 / 4480.0
    + 5569.0 * _N**6 / 90720.0,
    4397.0 * _N**4 / 161280.0 - 11.0 * _N**5 / 504.0 - 830251.0 * _N**6 / 7257600.0,
    4583.0 * _N**5 / 161280.0 - 108847.0 * _N**6 / 3991680.0,
    20648693.0 * _N**6 / 638668800.0,
)


def normalize_longitude(longitude: float | np.ndarray) -> float | np.ndarray:
    """Wrap a longitude in degrees into [-180, 180), elementwise on an array."""
    lon = (longitude + 180.0) % 360.0 - 180.0
    # The remainder rounds up to 360 for inputs a few ulps below -180.
    return lon - 360.0 * (lon >= 180.0)


@dataclass(frozen=True)
class LatLon:
    """Geodetic coordinates in degrees; longitude normalized to [-180, 180)."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.latitude) and math.isfinite(self.longitude)):
            raise DomainError("latitude/longitude must be finite")
        if not -90.0 <= self.latitude <= 90.0:
            raise DomainError(f"latitude {self.latitude} outside [-90, 90]")
        object.__setattr__(self, "longitude", normalize_longitude(self.longitude))


@dataclass(frozen=True)
class UtmCoord:
    """UTM easting/northing in meters within one zone and hemisphere.

    Valid in-zone eastings fall in (100 000, 900 000); that is a property of
    the projection, not a constructor check, so slightly out-of-zone points
    from synthetic data remain representable.
    """

    east: float
    north: float
    zone_number: int
    hemisphere: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.east) and math.isfinite(self.north)):
            raise DomainError("east/north must be finite")
        if not 1 <= self.zone_number <= 60:
            raise DomainError(f"zone number {self.zone_number} outside [1, 60]")
        if self.hemisphere not in HEMISPHERES:
            raise DomainError(f"hemisphere must be one of {HEMISPHERES}, got {self.hemisphere!r}")
        if self.north < 0.0:
            raise DomainError(f"northing {self.north} is negative (false-northing convention)")


def zone_number_for_longitude(longitude: float | np.ndarray) -> np.int64 | np.ndarray:
    """UTM zone from the standard 6 degree rule, elementwise on an array."""
    lon = normalize_longitude(longitude)
    return np.floor_divide(lon + 180.0, 6.0).astype(np.int64) + 1


def central_meridian_deg(zone_number: int | np.ndarray) -> float | np.ndarray:
    """Longitude of the central meridian of a UTM zone in [1, 60], in degrees, elementwise on an array."""
    return (zone_number - 1) * 6.0 - 180.0 + 3.0


def latlon_to_utm_arrays(
    latitude: np.ndarray, longitude: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Project WGS-84 points to UTM, each in the zone of its own longitude.

    Takes latitudes and longitudes in degrees (longitudes in any range) as
    arrays of one shape and returns ``(east, north, zone_number, south)``
    of that shape: meters, the zone as an integer and the southern
    hemisphere as a boolean. Raises DomainError naming the first latitude
    outside the +/-84 degree transverse Mercator validity band (NaN
    included). A one-point call on 0-d inputs returns numpy scalars.
    """
    latitude = np.asarray(latitude, dtype=np.float64)
    longitude = normalize_longitude(np.asarray(longitude, dtype=np.float64))
    outside = ~(np.abs(latitude) <= MAX_UTM_LATITUDE)  # NaN is outside too
    if outside.any():
        raise DomainError(
            f"latitude {latitude[outside].flat[0]} outside the +/-{MAX_UTM_LATITUDE} degree UTM band"
        )
    zone = zone_number_for_longitude(longitude)
    phi = np.radians(latitude)
    lam = np.radians(longitude) - np.radians(central_meridian_deg(zone))

    # Gauss-Schreiber coordinates on the conformal sphere.
    s = np.sin(phi)
    t = np.sinh(np.arctanh(s) - _E * np.arctanh(_E * s))
    xi_p = np.arctan2(t, np.cos(lam))
    eta_p = np.arcsinh(np.sin(lam) / np.hypot(t, np.cos(lam)))

    xi = xi_p
    eta = eta_p
    for j, a in enumerate(_ALPHA, start=1):
        xi = xi + a * np.sin(2 * j * xi_p) * np.cosh(2 * j * eta_p)
        eta = eta + a * np.cos(2 * j * xi_p) * np.sinh(2 * j * eta_p)

    east = FALSE_EASTING + UTM_SCALE * _RECTIFYING_RADIUS * eta
    south = latitude < 0.0
    north = UTM_SCALE * _RECTIFYING_RADIUS * xi + np.where(south, FALSE_NORTHING_SOUTH, 0.0)
    return east, north, zone, south


def latlon_to_utm(p: LatLon) -> UtmCoord:
    """Project WGS-84 geodetic coordinates to UTM (``latlon_to_utm_arrays`` on one point).

    Raises DomainError when |latitude| exceeds the 84 degree transverse
    Mercator validity band.
    """
    east, north, zone, south = latlon_to_utm_arrays(p.latitude, p.longitude)
    hemisphere = SOUTH if south else NORTH
    return UtmCoord(east=float(east), north=float(north), zone_number=int(zone), hemisphere=hemisphere)


def _tau_from_tau_prime(tau_p: float) -> float:
    # Newton inversion of tau' = tau*sqrt(1+sigma^2) - sigma*sqrt(1+tau^2).
    tau = tau_p / math.sqrt(1.0 - _E2)
    stol = 1e-13 * max(1.0, abs(tau_p))
    for _ in range(8):
        sigma = math.sinh(_E * math.atanh(_E * tau / math.hypot(1.0, tau)))
        tau_p_cur = tau * math.hypot(1.0, sigma) - sigma * math.hypot(1.0, tau)
        d_tau = (
            (tau_p - tau_p_cur)
            * (1.0 + (1.0 - _E2) * tau * tau)
            / ((1.0 - _E2) * math.hypot(1.0, tau_p_cur) * math.hypot(1.0, tau))
        )
        tau += d_tau
        if abs(d_tau) < stol:
            break
    return tau


def utm_to_latlon(c: UtmCoord) -> LatLon:
    """Inverse UTM projection back to WGS-84 geodetic coordinates."""
    north = c.north
    if c.hemisphere == SOUTH:
        north -= FALSE_NORTHING_SOUTH
    xi = north / (UTM_SCALE * _RECTIFYING_RADIUS)
    eta = (c.east - FALSE_EASTING) / (UTM_SCALE * _RECTIFYING_RADIUS)

    xi_p = xi
    eta_p = eta
    for j, b in enumerate(_BETA, start=1):
        xi_p -= b * math.sin(2 * j * xi) * math.cosh(2 * j * eta)
        eta_p -= b * math.cos(2 * j * xi) * math.sinh(2 * j * eta)

    tau_p = math.sin(xi_p) / math.hypot(math.sinh(eta_p), math.cos(xi_p))
    phi = math.atan(_tau_from_tau_prime(tau_p))
    lam = math.atan2(math.sinh(eta_p), math.cos(xi_p))

    longitude = central_meridian_deg(c.zone_number) + math.degrees(lam)
    return LatLon(latitude=math.degrees(phi), longitude=longitude)

