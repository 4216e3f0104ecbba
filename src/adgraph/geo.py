"""Great-circle distance and city-name coordinate lookup."""

from __future__ import annotations

import csv
import math
from importlib import resources
from pathlib import Path

from .errors import ConfigError

EARTH_RADIUS_MILES = 3958.7613


def haversine_miles(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in miles between two lat/lon points (degrees)."""
    for lat in (lat1, lat2):
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude out of range: {lat}")
    for lon in (lon1, lon2):
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"longitude out of range: {lon}")
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return EARTH_RADIUS_MILES * 2 * math.asin(min(1.0, math.sqrt(a)))


class Gazetteer:
    """City name -> (lat, lon), with trimmed casefolded lookup."""

    def __init__(self, coords: dict[str, tuple[float, float]]):
        self._coords = coords

    @classmethod
    def load(cls, path: str | Path) -> "Gazetteer":
        """Read a name,lat,lon CSV; bad rows, and a file that cannot be
        read as UTF-8 text, are a configuration error."""
        coords: dict[str, tuple[float, float]] = {}
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or set(reader.fieldnames) != {"name", "lat", "lon"}:
                    raise ConfigError(f"{path}: gazetteer header must be name,lat,lon")
                for row in reader:
                    name = (row["name"] or "").strip().casefold()
                    if not name:
                        raise ConfigError(f"{path}: empty city name on line {reader.line_num}")
                    try:
                        lat, lon = float(row["lat"]), float(row["lon"])
                    except (TypeError, ValueError):
                        raise ConfigError(f"{path}: bad coordinates on line {reader.line_num}") from None
                    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                        raise ConfigError(
                            f"{path}: coordinates out of range on line {reader.line_num}"
                        )
                    coords[name] = (lat, lon)
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: cannot read gazetteer ({e})") from None
        if not coords:
            raise ConfigError(f"{path}: gazetteer has no rows")
        return cls(coords)

    @classmethod
    def bundled(cls) -> "Gazetteer":
        """The packaged city list."""
        with resources.as_file(resources.files("adgraph.data").joinpath("gazetteer.csv")) as p:
            return cls.load(p)

    def resolve(self, name: str) -> tuple[float, float] | None:
        return self._coords.get(name.strip().casefold())

    def names(self) -> list[str]:
        return sorted(self._coords)

    def __len__(self) -> int:
        return len(self._coords)
