import re

import numpy as np

from sfwmlab.svgplot import _column_extremes, write_svg


def _vertices(svg: str) -> np.ndarray:
    path = re.search(r'<path d="([^"]*)"', svg).group(1)
    return np.array([[float(v) for v in p[1:].split(",")] for p in path.split()])


def test_long_step_plot_is_drawn_per_pixel_column(tmp_path):
    # A million-bin histogram: the file stays small, and its path still
    # reaches the lowest and the highest count.
    rng = np.random.default_rng(5)
    x = (np.arange(1_000_000) + 0.5) * 0.01
    y = rng.poisson(3.0, x.size).astype(float)
    y[123_456], y[654_321] = 50.0, -4.0
    path = tmp_path / "long.svg"
    write_svg(path, x, y, step=True)
    assert path.stat().st_size < 1_000_000
    vertices = _vertices(path.read_text())
    assert len(vertices) <= 4 * 630
    # y = 50 and y = -4 are the padded range's ends, 5 % of the span inside
    # the plot's top (40 px) and bottom (425 px).
    pad = 0.05 * 385 / 1.1
    assert np.isclose(vertices[:, 1].min(), 40 + pad, atol=0.01)
    assert np.isclose(vertices[:, 1].max(), 425 - pad, atol=0.01)


def test_column_extremes_keep_each_columns_lowest_and_highest_point():
    rng = np.random.default_rng(11)
    x = rng.uniform(-3.0, 7.0, 5000)
    y = rng.integers(0, 20, x.size).astype(float)  # many ties
    kx, ky = _column_extremes(x, y, 37)
    keep = np.flatnonzero(np.isin(x, kx))
    np.testing.assert_array_equal(x[keep], kx)  # in series order
    np.testing.assert_array_equal(y[keep], ky)
    column = np.minimum((x - x.min()) / (x.max() - x.min()) * 37, 36).astype(int)
    kept_column = column[keep]
    for c in range(37):
        in_c = column == c
        assert 1 <= np.count_nonzero(kept_column == c) <= 2
        assert ky[kept_column == c].min() == y[in_c].min()
        assert ky[kept_column == c].max() == y[in_c].max()
