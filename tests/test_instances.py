import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecut.instances import (
    ParseError,
    RawMaxCutInstance,
    ResultReport,
    parse_maxcut,
    parse_qubo,
    read_report_json,
    write_maxcut,
    write_qubo,
    write_report,
)

MC_BASIC = """\
# a comment
3 3
1 2 1
1 3 2.5
2 3 -1
"""


def test_parse_maxcut_basic():
    raw = parse_maxcut(MC_BASIC)
    assert raw.num_vertices == 3
    assert raw.edges == [(1, 2, 1.0), (1, 3, 2.5), (2, 3, -1.0)]
    assert not raw.all_integral


def test_parse_maxcut_merges_duplicates():
    raw = parse_maxcut("2 2\n1 2 3\n2 1 4\n")
    assert raw.edges == [(1, 2, 7.0)]
    assert raw.all_integral


def test_parse_maxcut_percent_comments_and_blank_lines():
    raw = parse_maxcut("% header\n\n2 1\n\n1 2 -2\n")
    assert raw.edges == [(1, 2, -2.0)]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2 1\n1 1 3\n", "self-loop"),
        ("2 1\n1 3 1\n", "range"),
        ("2 2\n1 2 1\n", "announced 2 edges"),
        ("2 1\n1 2\n", "line 2"),
        ("x 1\n1 2 1\n", "line 1"),
        ("2 1\n1 2 nan\n", "line 2: edge (1, 2) weight is not finite"),
        ("2 1\n1 2 inf\n", "line 2: edge (1, 2) weight is not finite"),
        ("2 1\n1 2 1e309\n", "line 2: edge (1, 2) weight is not finite"),
        ("2 2\n1 2 1e308\n2 1 1e308\n", "line 3: edge (2, 1) weight is not finite"),
        ("3 3\n1 2 1e308\n1 3 1e308\n2 3 1e308\n", "total |weight| of the edges exceeds 1e+300"),
    ],
)
def test_parse_maxcut_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_maxcut(text)
    assert fragment in str(err.value)


def test_parse_qubo_rejects_a_weight_that_is_not_finite():
    with pytest.raises(ParseError) as err:
        parse_qubo("2 2\n1 2 1\n1 1 1e309\n")
    assert "line 3: entry (1, 1) weight is not finite" in str(err.value)


def test_parse_qubo_rejects_a_total_weight_that_overflows():
    with pytest.raises(ParseError) as err:
        parse_qubo("2 3\n1 1 -1e308\n2 2 -1e308\n1 2 -1e308\n")
    assert "total |weight| of the entries exceeds 1e+300" in str(err.value)
    # the bound is on the total, inclusive
    assert parse_qubo("2 2\n1 1 -5e299\n2 2 5e299\n").entries == [(1, 1, -5e299), (2, 2, 5e299)]


def test_parse_qubo_basic():
    raw = parse_qubo("2 3\n1 1 -1\n1 2 2\n2 2 -1\n")
    assert raw.dimension == 2
    assert raw.objective({1: 1, 2: 0}) == -1.0
    assert raw.objective({1: 1, 2: 1}) == 0.0


def test_parse_qubo_rejects_out_of_range_index():
    with pytest.raises(ParseError):
        parse_qubo("2 1\n1 3 1\n")


def test_maxcut_roundtrip_write_parse():
    raw = parse_maxcut(MC_BASIC)
    again = parse_maxcut(write_maxcut(raw))
    assert again.num_vertices == raw.num_vertices
    assert again.edges == raw.edges


def test_qubo_roundtrip_write_parse():
    raw = parse_qubo("3 2\n1 2 -4\n3 3 2\n")
    again = parse_qubo(write_qubo(raw))
    assert again.dimension == raw.dimension
    assert sorted(again.entries) == sorted(raw.entries)


@st.composite
def maxcut_instances(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda p: p[0] < p[1]
    )
    weights = st.one_of(
        st.integers(-9, 9).filter(bool).map(float),
        st.floats(-5, 5, allow_nan=False).filter(lambda w: abs(w) > 1e-6),
    )
    chosen = draw(st.dictionaries(pairs, weights, max_size=12))
    edges = [(u, v, w) for (u, v), w in sorted(chosen.items())]
    return RawMaxCutInstance(n, edges,
                             all(float(w).is_integer() for _, _, w in edges))


@settings(max_examples=60, deadline=None)
@given(maxcut_instances())
def test_maxcut_write_parse_is_identity(raw):
    again = parse_maxcut(write_maxcut(raw))
    assert again.num_vertices == raw.num_vertices
    assert again.edges == raw.edges
    assert again.all_integral == raw.all_integral


def test_cut_value_counts_crossing_edges_only():
    raw = RawMaxCutInstance(3, [(1, 2, 1.0), (1, 3, 2.0), (2, 3, 4.0)])
    # isolate vertex 3: edges (1,3) and (2,3) cross
    assert raw.cut_value({1: 0, 2: 0, 3: 1}) == 6.0


def test_report_json_roundtrip_and_key_order():
    report = ResultReport(
        best_value=7.0,
        primal_dual_gap_percent=0.0,
        bnb_nodes=3,
        wall_time_s=0.25,
        partition={1: 0, 2: 1},
        status="optimal",
    )
    text = write_report(report, format="json")
    payload = json.loads(text)
    assert list(payload) == [
        "status",
        "best_value",
        "primal_dual_gap_percent",
        "bnb_nodes",
        "wall_time_s",
        "partition",
    ]
    back = read_report_json(text)
    assert back == report


def test_json_report_rejects_non_finite_numbers():
    report = ResultReport(5.0, math.inf, 0, 0.1, {}, "time_limit")
    with pytest.raises(ValueError):
        write_report(report, format="json")


def test_report_text_format():
    report = ResultReport(5.0, 0.0, 0, 0.1, {}, "optimal")
    text = write_report(report, format="text")
    assert text.startswith("status: optimal\nbest_value: 5\n")
