"""Diagram parsing, Wirtinger generation, and the edge surgeries.

The structural results exercised here: deleting an edge labeled 1 drops
exactly that edge's component; subdividing an edge adds an isomorphic
copy of its component; and refining labels (componentwise divisors) can
only shrink the quandle.
"""

import pytest

from quandleforge import (
    EnumerationLimits,
    ParseError,
    components,
    delete_edge,
    enumerate_quandle,
    expand_relations,
    parse_diagram,
    subdivide_edge,
    wirtinger,
)
from quandleforge.families import load_diagram_text

UNKNOT = "arcs: 1\nedge: 1:1\nlabels: 4\n"

ONE_CROSSING = """
arcs: 3
edge: 1:1 2:1 3:2
labels: 2 2
xing + : over=3 in=1 out=2
vertex: 1- 3-
vertex: 2+ 3+
"""


def enum_size(spec, limit=300000):
    pres = expand_relations(wirtinger(spec))
    res = enumerate_quandle(pres, EnumerationLimits(limit, 10**9))
    return res.stats.live if res.completed else None


def edge_component_sizes(spec, limit=300000):
    pres = expand_relations(wirtinger(spec))
    res = enumerate_quandle(pres, EnumerationLimits(limit, 10**9))
    assert res.completed
    orbits, edge_sizes = components(res.graph)
    return res.stats.live, len(orbits), edge_sizes


def test_parse_unknot():
    spec = parse_diagram(UNKNOT)
    assert spec.arc_count == 1
    assert spec.crossings == ()
    assert spec.vertices == ()


def test_parse_theta():
    spec = parse_diagram(load_diagram_text("theta3"))
    assert spec.arc_count == 3
    assert len(spec.vertices) == 2
    assert spec.crossings == ()


def test_parse_rejects_under_arcs_on_different_edges():
    text = """
arcs: 3
edge: 1:1 2:2 3:2
labels: 2 2
xing + : over=3 in=1 out=2
"""
    with pytest.raises(ParseError, match="different edges"):
        parse_diagram(text)


def test_parse_rejects_unknown_arc():
    with pytest.raises(ParseError, match="dangling arc"):
        parse_diagram("arcs: 1\nedge: 1:1\nlabels: 2\nvertex: 2+ 1-\n")


def test_parse_rejects_overused_end():
    text = "arcs: 1\nedge: 1:1\nlabels: 2\nvertex: 1+ 1+\n"
    with pytest.raises(ParseError, match="more than once"):
        parse_diagram(text)


def test_parse_rejects_bad_label():
    with pytest.raises(ParseError):
        parse_diagram("arcs: 1\nedge: 1:1\nlabels: 0\n")


def test_parse_rejects_comma_labels():
    with pytest.raises(ParseError, match="bad label list '3,3,2'"):
        parse_diagram("arcs: 3\nedge: 1:1 2:2 3:3\nlabels: 3,3,2\nvertex: 1+ 2+ 3+\nvertex: 2- 1- 3-\n")


def test_wirtinger_unknot():
    pres = wirtinger(parse_diagram(UNKNOT))
    assert len(pres.generators) == 1
    assert pres.primaries == () and pres.universals == ()
    assert pres.edge_of[pres.generators[0]] == 1


def test_wirtinger_crossing_relation():
    pres = wirtinger(parse_diagram(ONE_CROSSING))
    rel = pres.primaries[0]
    assert rel.lhs_base.name == "x1"
    assert rel.rhs.name == "x2"
    assert [(l.gen.name, l.sign) for l in rel.word] == [("x3", 1)]


def test_wirtinger_vertex_word():
    text = """
arcs: 3
edge: 1:1 2:2 3:3
labels: 2 2 2
vertex: 1+ 2+ 3+
vertex: 1- 2- 3-
"""
    pres = wirtinger(parse_diagram(text))
    assert [(l.gen.name, l.sign) for l in pres.universals[0].word] == [
        ("x1", 1), ("x2", 1), ("x3", 1),
    ]


def test_subdivide_unknot():
    spec, report = subdivide_edge(parse_diagram(UNKNOT), 1)
    assert spec.arc_count == 2
    assert len(spec.vertices) == 1
    assert spec.labels == (4, 4)
    assert report.duplicated_component == 1
    assert report.removed_component is None


def test_subdivide_theta_reindexes_labels():
    out, _ = subdivide_edge(parse_diagram(load_diagram_text("theta3")), 1)
    assert out.labels == (3, 3, 3, 2)
    assert out.arc_count == 4


def test_subdivide_missing_edge():
    with pytest.raises(ValueError):
        subdivide_edge(parse_diagram(UNKNOT), 9)


def test_subdivide_rejects_closed_knot_component():
    trefoil = parse_diagram("""
arcs: 3
edge: 1:1 2:1 3:1
labels: 3
xing + : over=2 in=3 out=1
xing + : over=1 in=2 out=3
xing + : over=3 in=1 out=2
""")
    with pytest.raises(ValueError, match="closed component"):
        subdivide_edge(trefoil, 1)


def test_delete_only_edge_of_unknot():
    out, report = delete_edge(parse_diagram(UNKNOT), 1)
    assert out.arc_count == 0
    assert out.labels == ()
    assert report.removed_component == 1
    assert enum_size(out) == 0


def test_delete_missing_edge():
    with pytest.raises(ValueError):
        delete_edge(parse_diagram(UNKNOT), 2)


TWO_LINKED = """
arcs: 4
edge: 1:1 2:1 3:2 4:2
labels: 2 2
xing + : over=4 in=2 out=1
xing + : over=1 in=4 out=3
xing + : over=3 in=1 out=2
xing + : over=2 in=3 out=4
"""


def test_delete_over_strand_merges_under_arcs():
    # deleting one component of the doubly linked pair splices the other
    # component's two arcs back into a crossingless unknot
    spec = parse_diagram(TWO_LINKED)
    out, report = delete_edge(spec, 2)
    assert report.removed_component == 2
    assert out.arc_count == 1
    assert out.crossings == ()
    assert out.labels == (2,)
    assert enum_size(out) == 1


def test_delete_hopf_component():
    spec = parse_diagram(load_diagram_text("hopf"))
    out, report = delete_edge(spec, 2)
    assert report.removed_component == 2
    assert (out.arc_count, out.crossings, out.labels) == (1, (), (2,))
    assert enum_size(out) == 1


def test_components_match_edges_on_battery():
    for name in ("theta3", "h1", "kt", "hopf", "k4planar", "dh"):
        spec = parse_diagram(load_diagram_text(name))
        size, orbit_count, edge_sizes = edge_component_sizes(spec)
        assert orbit_count == spec.edge_count()
        assert sum(edge_sizes.values()) == size


def battery_subdivision_cases():
    yield parse_diagram(UNKNOT), 1
    yield parse_diagram(load_diagram_text("theta3")), 1
    yield parse_diagram(load_diagram_text("theta3")), 3
    yield parse_diagram(load_diagram_text("h1")), 1
    yield parse_diagram(load_diagram_text("h1")), 2
    yield parse_diagram(load_diagram_text("kt")), 3


@pytest.mark.parametrize("case", range(6))
def test_subdivision_size_identity(case):
    """Subdividing edge e adds exactly one isomorphic copy of e's component."""
    spec, edge = list(battery_subdivision_cases())[case]
    before, _, edge_sizes = edge_component_sizes(spec)
    out, report = subdivide_edge(spec, edge)
    assert report.duplicated_component == edge
    after = enum_size(out)
    assert after == before + edge_sizes[edge]


def test_delete_equality_with_unit_label():
    """With n_e = 1 deletion removes exactly e's component: theta to digon."""
    labeled = parse_diagram(load_diagram_text("theta3")).with_labels((3, 3, 1))
    before, _, edge_sizes = edge_component_sizes(labeled)
    out, report = delete_edge(labeled, 3)
    assert report.removed_component == 3
    assert enum_size(out) == before - edge_sizes[3]


def test_delete_equality_hopf():
    labeled = parse_diagram(load_diagram_text("hopf")).with_labels((2, 1))
    before, _, edge_sizes = edge_component_sizes(labeled)
    out, _ = delete_edge(labeled, 2)
    assert enum_size(out) == before - edge_sizes[2]


def test_divisor_labels_never_grow():
    """If M divides N componentwise then the M-quandle is no larger."""
    pairs = [
        ("hopf", (2, 2), (2, 4)),
        ("theta3", (3, 3, 1), (3, 3, 2)),
        ("k4planar", (3, 3, 2, 2, 2, 2), (3, 3, 2, 2, 2, 4)),
        ("dh", (2, 2, 2, 3, 2, 2), (2, 2, 2, 3, 2, 4)),
    ]
    for name, small, big in pairs:
        spec = parse_diagram(load_diagram_text(name))
        assert all(x % y == 0 for x, y in zip(big, small))
        assert enum_size(spec.with_labels(small), 200000) <= enum_size(spec.with_labels(big), 200000)
