"""The SVG line-plot writer."""

import numpy as np
import pytest

from lapsig.svgplot import line_plot_svg


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_series_is_refused(tmp_path, bad):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match="'difference'"):
        line_plot_svg(path, [("atom", [0.0, 1.0, 2.0]), ("difference", [0.0, bad, 1.0])])
    assert not path.exists()


@pytest.mark.parametrize(
    "values", [[-1e307, 1e307, 0.0], [-1.7e308, 1.7e308], [0.0, 1e308], [1e17, 1e17]]
)
def test_a_range_without_a_finite_scale_is_refused(tmp_path, values):
    # plot_h (hi - lo) would overflow, or a constant's +-1 pad vanish, and
    # the coordinates be inf or nan
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match=r"^series range \[.*\] cannot be scaled to the plot$"):
        line_plot_svg(path, [("wide", values)])
    assert not path.exists()


def test_a_wide_finite_range_is_drawn(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot_svg(path, [("wide", [-1e305, 1e305, 0.0])])
    assert "inf" not in path.read_text() and "nan" not in path.read_text()
