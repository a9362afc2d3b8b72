import math
import xml.etree.ElementTree as ET

import pytest

from prorl.svgplot import fit_loglog, line_plot


class TestFitLoglog:
    def test_recovers_exact_power_law(self):
        xs = [10.0, 100.0, 1000.0, 10000.0]
        ys = [3.0 * x ** -0.5 for x in xs]
        fit = fit_loglog(xs, ys)
        assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["intercept"] == pytest.approx(math.log10(3.0), abs=1e-12)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-12)
        lo, hi = fit["slope_ci"]
        assert lo == pytest.approx(hi, abs=1e-9)

    def test_interval_widens_with_noise(self):
        xs = [10.0, 100.0, 1000.0, 10000.0]
        clean = fit_loglog(xs, [x ** -0.5 for x in xs])
        noisy = fit_loglog(xs, [x ** -0.5 * f for x, f in zip(xs, (1.0, 1.4, 0.7, 1.2))])
        assert noisy["slope_ci"][1] - noisy["slope_ci"][0] > clean["slope_ci"][1] - clean["slope_ci"][0]
        assert noisy["r2"] < 1.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            fit_loglog([1.0], [1.0])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog([1.0, 2.0], [1.0, 0.0])

    def test_rejects_constant_x(self):
        with pytest.raises(ValueError, match="equal"):
            fit_loglog([5.0, 5.0], [1.0, 2.0])


class TestLinePlot:
    def series(self):
        return [
            {"label": "a", "xs": [1, 10, 100], "ys": [0.3, 0.1, 0.03]},
            {"label": "b", "xs": [1, 10, 100], "ys": [0.2, 0.07, 0.02]},
        ]

    def test_writes_well_formed_svg(self, tmp_path):
        path = tmp_path / "p.svg"
        line_plot(str(path), self.series(), "t", "x", "y", annotation="note")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        text = path.read_text()
        for needle in ("t", "x", "y", "note", ">a<", ">b<"):
            assert needle in text

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "1.svg", tmp_path / "2.svg"
        line_plot(str(p1), self.series(), "t", "x", "y")
        line_plot(str(p2), self.series(), "t", "x", "y")
        assert p1.read_bytes() == p2.read_bytes()

    def test_drops_nonpositive_points_on_log_axes(self, tmp_path):
        path = tmp_path / "p.svg"
        series = [{"label": "a", "xs": [1, 10, 100], "ys": [0.0, 0.1, 0.03]}]
        line_plot(str(path), series, "t", "x", "y", loglog=True)
        assert ET.parse(path).getroot() is not None

    def test_linear_axes_allow_negatives(self, tmp_path):
        path = tmp_path / "p.svg"
        series = [{"label": "a", "xs": [0.0, 0.5, 1.0], "ys": [-1.0, 0.0, 1.0]}]
        line_plot(str(path), series, "t", "x", "y", loglog=False)
        assert path.exists()

    def test_all_points_dropped_is_an_error(self, tmp_path):
        series = [{"label": "a", "xs": [1, 2], "ys": [0.0, -1.0]}]
        with pytest.raises(ValueError, match="nothing to plot"):
            line_plot(str(tmp_path / "p.svg"), series, "t", "x", "y", loglog=True)

    @pytest.mark.parametrize("key", ["color", "points_only", "marker"])
    def test_rejects_series_keys_it_does_not_draw(self, tmp_path, key):
        series = self.series()
        series[1][key] = True
        with pytest.raises(ValueError, match=rf"label, xs and ys only, not \['{key}'\]"):
            line_plot(str(tmp_path / "p.svg"), series, "t", "x", "y")
        assert not (tmp_path / "p.svg").exists()
