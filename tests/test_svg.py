"""SVG emitter: determinism and basic structure."""

import math
import re
import warnings

import numpy as np
import pytest

from cutoff_lab.svg import line_plot


SERIES = [("tv", [0.0, 1.0, 2.0, 3.0], [0.9, 0.5, 0.2, 0.05]),
          ("kl", [0.0, 1.0, 2.0, 3.0], [2.0, 0.8, 0.3, 0.1])]


def test_byte_reproducible(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        line_plot(path, SERIES, title="profile", xlabel="t", ylabel="d",
                  vlines=[("tmix", 1.5)])
    assert a.read_bytes() == b.read_bytes()


def test_structure(tmp_path):
    path = tmp_path / "p.svg"
    line_plot(path, SERIES, title="profile", xlabel="t", ylabel="d")
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert "profile" in text and ">t<" in text


def test_non_finite_points_dropped(tmp_path):
    path = tmp_path / "p.svg"
    line_plot(path, [("a", [0.0, 1.0, 2.0], [1.0, math.inf, 2.0])])
    assert "inf" not in path.read_text().split("<polyline")[1]


def test_empty_input_rejected(tmp_path):
    with pytest.raises(ValueError):
        line_plot(tmp_path / "p.svg", [("a", [], [])])


def test_constant_series_ok(tmp_path):
    path = tmp_path / "p.svg"
    line_plot(path, [("a", [0.0, 1.0], [3.0, 3.0])])
    assert "<polyline" in path.read_text()


@pytest.mark.parametrize("lo,hi", [(1e16, 1e16), (0.0, 5e-324),
                                   (0.0, 1.7e308), (2e-308, 3e-308)],
                         ids=["past-2^53", "subnormal", "overflow", "tiny"])
def test_degenerate_x_range(tmp_path, lo, hi):
    # A span lost in rounding, one that underflows and one that overflows
    # all give an axis with finite coordinates, and no warning: the
    # profile of analyze --tgrid lo:hi:2, with a tmix marker off the axis.
    path = tmp_path / "p.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line_plot(path, [("tv", list(np.linspace(lo, hi, 2)), [0.9, 0.1])],
                  vlines=[("tmix", 2.5)])
    text = path.read_text()
    coords = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', text)
    points = re.search(r'points="([^"]*)"', text).group(1)
    coords += re.split(r"[ ,]", points)
    assert len(coords) > 20
    assert all(math.isfinite(float(c)) for c in coords)


@pytest.mark.parametrize("kind", [list, np.array])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_range_past_the_largest_double(tmp_path, kind, axis):
    # Mixed-sign values whose range exceeds the largest double: every
    # coordinate is finite and on the canvas, the values' extremes on the
    # axis ends, and no warning is raised, for list and numpy input.
    big = kind([-1.79e308, 1.79e308])
    xs, ys = (big, kind([0.9, 0.1])) if axis == "x" else (kind([0.0, 1.0]),
                                                          big)
    path = tmp_path / "p.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line_plot(path, [("tv", xs, ys)], vlines=[("tmix", 0.0)])
    text = path.read_text()
    assert "inf" not in text and "nan" not in text
    coords = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', text)
    points = re.search(r'points="([^"]*)"', text).group(1).split()
    assert len(coords) > 20
    assert all(math.isfinite(float(c)) for c in coords)
    ends = [float(p.split(",")[axis == "y"]) for p in points]
    assert ends == ([70.0, 780.0] if axis == "x" else [450.0, 40.0])
