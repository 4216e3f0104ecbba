import math
import random

import pytest

from adgraph import geo
from adgraph.errors import ConfigError

from oracles import haversine_ref

# frozen reference value, computed with the independent atan2 form
NYC_BOSTON_MILES = 190.2073


class TestHaversine:
    def test_identical_points_zero(self):
        assert geo.haversine_miles(40.7128, -74.0060, 40.7128, -74.0060) == 0.0

    def test_antipodal_half_circumference(self):
        want = math.pi * geo.EARTH_RADIUS_MILES
        assert geo.haversine_miles(0.0, 0.0, 0.0, 180.0) == pytest.approx(want, rel=1e-9)

    def test_nyc_boston(self):
        got = geo.haversine_miles(40.7128, -74.0060, 42.3601, -71.0589)
        assert got == pytest.approx(NYC_BOSTON_MILES, abs=0.001)
        assert 189.0 <= got <= 191.0

    def test_symmetric(self):
        a = geo.haversine_miles(33.0, -97.0, 41.0, -87.0)
        b = geo.haversine_miles(41.0, -87.0, 33.0, -97.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_tiny_distance_stable(self):
        got = geo.haversine_miles(40.0, -74.0, 40.0001, -74.0001)
        ref = haversine_ref(40.0, -74.0, 40.0001, -74.0001)
        assert got == pytest.approx(ref, rel=1e-6)
        assert got > 0

    def test_random_pairs_match_reference(self):
        rng = random.Random(3)
        for _ in range(300):
            lat1, lat2 = rng.uniform(-89, 89), rng.uniform(-89, 89)
            lon1, lon2 = rng.uniform(-179, 179), rng.uniform(-179, 179)
            got = geo.haversine_miles(lat1, lon1, lat2, lon2)
            ref = haversine_ref(lat1, lon1, lat2, lon2)
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-6)

    def test_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(1000):
            pts = [
                (rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)
            ]
            (a, b, c) = pts
            ab = geo.haversine_miles(a[0], a[1], b[0], b[1])
            bc = geo.haversine_miles(b[0], b[1], c[0], c[1])
            ac = geo.haversine_miles(a[0], a[1], c[0], c[1])
            assert ac <= ab + bc + 1e-9

    @pytest.mark.parametrize(
        "lat1,lon1,lat2,lon2",
        [(91.0, 0.0, 0.0, 0.0), (0.0, 181.0, 0.0, 0.0), (0.0, 0.0, -90.5, 0.0),
         (0.0, 0.0, 0.0, -180.5)],
    )
    def test_out_of_range_rejected(self, lat1, lon1, lat2, lon2):
        with pytest.raises(ValueError):
            geo.haversine_miles(lat1, lon1, lat2, lon2)


class TestGazetteer:
    def test_bundled_loads(self):
        gaz = geo.Gazetteer.bundled()
        assert len(gaz) >= 30
        assert gaz.resolve("new york") is not None

    def test_resolve_trims_and_casefolds(self):
        gaz = geo.Gazetteer.bundled()
        assert gaz.resolve("  New YORK ") == gaz.resolve("new york")
        assert gaz.resolve("new york") is not None

    def test_resolve_unknown_none(self):
        assert geo.Gazetteer.bundled().resolve("atlantis") is None

    def test_names_sorted(self):
        names = geo.Gazetteer.bundled().names()
        assert names == sorted(names)

    def test_load_custom(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("name,lat,lon\nSpringfield,39.78,-89.65\n")
        gaz = geo.Gazetteer.load(p)
        assert gaz.resolve("springfield") == (39.78, -89.65)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("city,latitude,longitude\nx,1,2\n")
        with pytest.raises(ConfigError):
            geo.Gazetteer.load(p)

    def test_bad_coordinates(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("name,lat,lon\nx,abc,2\n")
        with pytest.raises(ConfigError):
            geo.Gazetteer.load(p)

    def test_out_of_range_coordinates(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("name,lat,lon\nx,95.0,2.0\n")
        with pytest.raises(ConfigError):
            geo.Gazetteer.load(p)

    def test_empty_name(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("name,lat,lon\n  ,1.0,2.0\n")
        with pytest.raises(ConfigError):
            geo.Gazetteer.load(p)

    def test_no_rows(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("name,lat,lon\n")
        with pytest.raises(ConfigError):
            geo.Gazetteer.load(p)
