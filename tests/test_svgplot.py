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
