"""The CLI's text writers produce exactly the bytes of the straightforward
Python formatting they replace: ``json.dumps(indent=2, sort_keys=True)``,
``"{:.2f}"`` per SVG coordinate and one ``b"%d,%s\\n"`` per CSV line."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsig import cli
from lapsig.graphs import Cosupport, _whole
from lapsig.linalg import _csv_blocks
from lapsig.svgplot import _fixed2, _points, line_plot_svg

# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)


def _containers(children):
    return (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.lists(st.integers(-(10**6), 10**6), max_size=30)
        | st.dictionaries(st.text(max_size=8), children, max_size=6)
        | st.dictionaries(st.integers(), children, max_size=6)
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_scalars, _containers, max_leaves=40))
def test_json_text_is_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[], {}, ()],
        {"é": "ü\n\"\\", " ": ["\x00", "😀"]},
        {3: [1, 2], 1: {"b": 1.5, "a": float("nan")}, 2: (float("inf"), -float("inf"))},
        {True: None, False: [True, False, 0, -0.0]},
        {1.5: 2, 0.25: 1e300},
        list(range(-5, 2048)),
        [1, True, 2],
    ],
    ids=lambda obj: type(obj).__name__,
)
def test_json_text_edge_shapes(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [{(1, 2): 3}, {1: 2, "a": 3}, [object()], {"a": {1j}}])
def test_json_text_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        cli._json_text(obj)
    assert str(got.value) == str(want.value)


def test_write_json_appends_a_newline(tmp_path):
    obj = {"n": 4, "cosupport": [0, 2], "residual": 1.25e-16}
    cli._write_json(tmp_path / "r.json", obj)
    assert (tmp_path / "r.json").read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# SVG
# ----------------------------------------------------------------------


def _reference_points(series):
    """The per-point formatter ``line_plot_svg`` used before it wrote whole
    curves at once: each curve's polyline points and circle coordinates."""
    ys = [np.asarray(vals, dtype=float) for _, vals in series]
    npts = ys[0].size
    lo = min(float(y.min()) for y in ys)
    hi = max(float(y.max()) for y in ys)
    if hi - lo <= 0.0:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(x: float) -> float:
        return 70 + 672 * x / (npts - 1)

    def sy(y: float) -> float:
        return 40 + 368 * (hi - y) / (hi - lo)

    polylines, circles = [], []
    for y in ys:
        polylines.append(" ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(y)))
        if npts <= 96:
            circles.extend(f'cx="{sx(i):.2f}" cy="{sy(v):.2f}"' for i, v in enumerate(y))
    return polylines, circles


def _assert_points_match(path, series):
    text = path.read_text()
    polylines, circles = _reference_points(series)
    assert re.findall(r'<polyline points="([^"]*)"', text) == polylines
    assert re.findall(r'<circle (cx="[^"]*" cy="[^"]*")', text) == circles


_values = st.floats(-1e6, 1e6, allow_nan=False) | st.floats(-1e-6, 1e-6, allow_nan=False)


@st.composite
def _series(draw):
    # 257 points put x on .xx5 ties: 672 / 256 = 2.625
    npts = draw(st.sampled_from([2, 3, 17, 95, 96, 97, 257]) | st.integers(2, 400))
    curves = draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = st.just(draw(_values))  # a constant plot
    else:
        values = _values
    return [
        (f"curve {k}", draw(st.lists(values, min_size=npts, max_size=npts)))
        for k in range(curves)
    ]


@settings(max_examples=60, deadline=None)
@given(_series())
def test_svg_points_match_per_point_format(tmp_path_factory, series):
    path = tmp_path_factory.mktemp("svg") / "plot.svg"
    line_plot_svg(path, series, title="t")
    _assert_points_match(path, series)


@pytest.mark.parametrize(
    "series",
    [
        [("two", [0.0, 1.0])],
        [("constant", [3.25] * 50)],
        [("negative", [-1e-300, -5e5, 2.0])],
        [("wide", [-1e300, 1e300, 0.0])],
        [("a", list(np.sin(np.arange(300)))), ("b", list(np.cos(np.arange(300))))],
    ],
    ids=["two", "constant", "negative", "wide", "two_curves"],
)
def test_svg_points_edge_series(tmp_path, series):
    line_plot_svg(tmp_path / "plot.svg", series)
    _assert_points_match(tmp_path / "plot.svg", series)


def _fixed2_text(values: np.ndarray) -> list[str]:
    return [bytes(row[row != 0]).decode() for row in _fixed2(values)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-(2.0**33), 2.0**33, exclude_max=True, exclude_min=True), min_size=1))
def test_fixed2_is_format(values):
    vals = np.array(values)
    assert _fixed2_text(vals) == [f"{v:.2f}" for v in values]


@pytest.mark.parametrize("step", [8.0, 200.0, 1000.0])
def test_fixed2_on_and_next_to_ties(step):
    # k / 8 holds the exact ties (x.125 rounds to even); k / 200 the inexact ones
    exact = np.arange(-40000, 40000) / step
    for vals in (exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)):
        assert _fixed2_text(vals) == [f"{v:.2f}" for v in vals.tolist()]


def test_fixed2_leaves_what_it_cannot_cover_to_python():
    assert _fixed2(np.array([1.0, np.nan])) is None
    assert _fixed2(np.array([-(2.0**33)])) is None
    xs, ys = np.array([70.0, 742.0]), np.array([np.nan, 2.0**40])
    assert _points(xs, _fixed2(xs), ys) == "70.00,nan 742.00,1099511627776.00"
    assert _fixed2_text(np.array([0.0, -0.0, -0.004, 2.0**33 - 1])) == [
        "0.00", "-0.00", "-0.00", f"{2.0**33 - 1:.2f}"
    ]


# ----------------------------------------------------------------------
# Row-numbered CSV
# ----------------------------------------------------------------------


def _reference_indexed_csv(*columns) -> bytes:
    """The line-by-line writer ``_write_indexed_csv`` replaced."""
    lines = b"".join(_csv_blocks(np.column_stack(columns))).split(b"\n")[:-1]
    return b"".join(b"%d,%s\n" % (i, line) for i, line in enumerate(lines))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 300).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    )
)
def test_indexed_csv_matches_line_writer(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "signal.csv"
    arrays = [np.array(c) for c in columns]
    cli._write_indexed_csv(path, *arrays)
    assert path.read_bytes() == _reference_indexed_csv(*arrays)


# ----------------------------------------------------------------------
# Cosupport refusals
# ----------------------------------------------------------------------


def _reference_members(n: int, members) -> tuple[int, ...]:
    """The member checks of ``Cosupport`` before its plain-int fast path."""
    mem = tuple(sorted(_whole(i, "index") for i in members))
    for i in mem:
        if i < 0 or i >= n:
            raise ValueError(f"index {i} out of range for n={n}")
    for a, b in zip(mem, mem[1:]):
        if a == b:
            raise ValueError(f"duplicate index {a}")
    return mem


_members = st.lists(
    st.integers(-3, 12)
    | st.integers(-3, 12).map(float)
    | st.integers(-3, 12).map(np.int64)
    | st.booleans()
    | st.sampled_from([2.5, -0.5, float("inf"), float("-inf"), float("nan")]),
    max_size=10,
)


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10), _members)
def test_cosupport_refuses_as_before(n, members):
    got = _outcome(lambda: Cosupport(n, members).members)
    assert got == _outcome(lambda: _reference_members(n, members))


@pytest.mark.parametrize(
    "members, message",
    [
        ((1, 2.5, 7.5), "index must be a whole number, got 2.5"),
        ((1, float("inf")), "index must be a whole number, got inf"),
        ((1, float("nan")), "index must be a whole number, got nan"),
        ((3, -2, 9, -1), "index -2 out of range for n=8"),
        ((3, 11, 9), "index 9 out of range for n=8"),
        ((5, 2, 5, 2), "duplicate index 2"),
        ((5, 2.0, np.int64(5)), "duplicate index 5"),
    ],
    ids=["fraction", "inf", "nan", "negative", "too_large", "duplicate", "duplicate_mixed"],
)
def test_cosupport_refusal_messages(members, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Cosupport(8, members)
