"""Diagram parsing, Wirtinger generation, and the edge surgeries.

The structural results exercised here: deleting an edge labeled 1 drops
exactly that edge's component; subdividing an edge adds an isomorphic
copy of its component; refining labels (componentwise divisors) can
only shrink the quandle; and the Reidemeister moves R1 and R2 leave it
as it is.
"""

import random
from dataclasses import replace

import pytest

from quandleforge import (
    Crossing,
    DiagramSpec,
    EnumerationLimits,
    ParseError,
    components,
    delete_edge,
    enumerate_quandle,
    expand_relations,
    parse_diagram,
    parse_presentation,
    quandle_table,
    render_presentation,
    subdivide_edge,
    verify,
    wirtinger,
)
from quandleforge.diagram import parse_input
from quandleforge.families import load_diagram_text
from quandleforge.words import FieldError

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


@pytest.mark.parametrize(
    "text, where",
    [
        (load_diagram_text("theta3").replace("labels: 3 3 2", "labels: 3 3 2 7"),
         "line 4, col 1: edge 4 has no arcs"),
        ("arcs: 2\n\nedge: 1:1\nlabels: 2\n", "line 3, col 1: arc 2 missing from the edge map"),
        ("labels: 2\narcs: 1\n", "line 2, col 1: arc 1 missing from the edge map"),
        ("arcs: 3\nedge: 1:1 2:2 3:2\nlabels: 2 2\nxing + : over=1 in=2 out=3\n"
         "xing - : over=3 in=1 out=2\n", "line 5, col 1: under arcs 1 and 2 lie on different edges"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nvertex: 1+ 1-\nvertex: 2+\n",
         "line 5, col 1: dangling arc 2 in vertex"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nvertex: 1+\nvertex: 1+\n",
         "line 5, col 1: dangling arc 1: an end is used more than once"),
        ("# arcs\narcs: x\n", "line 2, col 1: bad arc count 'x'"),
        ("# arcs\narcs: -1\nlabels:\n", "line 2, col 1: arc count must be >= 0"),
        ("arcs: 1\nedge: 1:a\n", "line 2, col 1: bad edge assignment '1:a'"),
        ("arcs: 1\nedge: 1\n", "line 2, col 1: bad edge assignment '1'"),
        ("arcs: 1\nedge: 1:2\nlabels: 2\n", "line 2, col 1: arc 1 assigned to edge 2, but only 1 labels given"),
        ("arcs: 1\nedge: 1:1 2:1\nlabels: 2\n", "line 2, col 1: dangling arc 2 in edge map"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nxing : over=1 in=1 out=1\n",
         "line 4, col 1: crossing needs a sign, got 'xing'"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nxing + : over=1 in=1 up=1\n",
         "line 4, col 1: bad crossing field 'up=1'"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nxing + : over in=1 out=1\n",
         "line 4, col 1: bad crossing field 'over'"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nxing + : over=x in=1 out=1\n",
         "line 4, col 1: bad crossing field 'over=x'"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nxing + : over=1 in=1\n",
         "line 4, col 1: crossing needs over=, in= and out="),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nxing - : over=1 in=1 out=1\nxing + : over=5 in=1 out=1\n",
         "line 5, col 1: dangling arc 5 in crossing"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nvertex: 1\n", "line 4, col 1: vertex arc '1' needs a +/- direction"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nvertex: x+\n", "line 4, col 1: bad vertex arc 'x+'"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nvertex: 1+\nvertex:\n", "line 5, col 1: vertex with no incident arcs"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nvertices: 1+\n", "line 4, col 1: unknown key 'vertices'"),
        ("edge: 1:1\nlabels: 2\n", "line 1, col 1: missing 'arcs:' line"),
        ("arcs: 1\nedge: 1:1\n", "line 1, col 1: missing 'labels:' line"),
        ("arcs: 3\narcs: 2\nedge: 1:1 2:1\nlabels: 2\n", "line 2, col 1: duplicate 'arcs:' line"),
        ("arcs: 1\nedge: 1:1\nlabels: 2\nlabels: 3\n", "line 4, col 1: duplicate 'labels:' line"),
    ],
    ids=[
        "stray-label", "arc-without-edge", "no-edge-line", "crossing", "vertex", "end-used-twice",
        "bad-arc-count", "negative-arc-count", "bad-edge-index", "edge-without-colon",
        "edge-beyond-labels", "edge-map-dangling-arc", "unsigned-crossing", "unknown-crossing-field",
        "crossing-field-without-value", "bad-crossing-value", "missing-crossing-field",
        "crossing-dangling-arc", "vertex-arc-without-direction", "bad-vertex-arc", "empty-vertex",
        "unknown-key", "missing-arcs", "missing-labels", "duplicate-arcs", "duplicate-labels",
    ],
)
def test_parse_errors_point_at_their_line(text, where):
    """Errors found once the whole file is read point at the line that
    holds the fault, not at line 1."""
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert str(err.value) == where


@pytest.mark.parametrize("crossings, vertices, message, key", [
    ([Crossing(0, 1, 1, 1)], [], "crossing sign must be +1 or -1, got 0", "xing"),
    ([], [((1, 0),)], "vertex direction must be +1 or -1, got 0", "vertex"),
])
def test_spec_rejects_bad_signs(crossings, vertices, message, key):
    """The parser reads only + and -, so these faults reach only a spec
    built directly."""
    with pytest.raises(FieldError) as err:
        DiagramSpec(1, {1: 1}, (2,), crossings, vertices)
    assert (str(err.value), err.value.key, err.value.index) == (message, key, 0)


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


def test_parse_input_reads_either_format():
    """A text with an ``arcs:`` line is a diagram, whatever line it is on;
    any other text is a presentation, and each keeps its own errors."""
    for text in (ONE_CROSSING, "# comment\n" + UNKNOT[UNKNOT.index("\n") + 1:] + "arcs: 1\n"):
        assert render_presentation(parse_input(text)) == render_presentation(wirtinger(parse_diagram(text)))
    text = "gens: a b\nedges: a:1 b:2\nlabels: 2 3\nrel a : b = a\n"
    assert render_presentation(parse_input(text)) == render_presentation(parse_presentation(text))
    with pytest.raises(ParseError, match="line 2, col 1: bad arc count 'x'"):
        parse_input("labels: 1\narcs: x\n")
    with pytest.raises(ParseError, match="line 1, col 1: unknown key 'edge'"):
        parse_input("edge: 1:1\ngens: a\n")


def test_subdivide_unknot():
    spec = subdivide_edge(parse_diagram(UNKNOT), 1)
    assert spec.arc_count == 2
    assert len(spec.vertices) == 1
    assert spec.labels == (4, 4)


def test_subdivide_theta_reindexes_labels():
    out = subdivide_edge(parse_diagram(load_diagram_text("theta3")), 1)
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
    out = delete_edge(parse_diagram(UNKNOT), 1)
    assert out.arc_count == 0
    assert out.labels == ()
    assert enum_size(out) == 0
    pres = expand_relations(wirtinger(out))
    quandle = enumerate_quandle(pres).graph
    assert components(quandle) == ([], {})
    assert verify(quandle, pres) == []
    assert quandle_table(quandle).shape == (0, 0)


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
    out = delete_edge(spec, 2)
    assert out.arc_count == 1
    assert out.crossings == ()
    assert out.labels == (2,)
    assert enum_size(out) == 1


def test_delete_hopf_component():
    spec = parse_diagram(load_diagram_text("hopf"))
    out = delete_edge(spec, 2)
    assert (out.arc_count, out.crossings, out.labels) == (1, (), (2,))
    assert enum_size(out) == 1


def test_components_match_edges_on_battery():
    for name in ("theta3", "h1", "kt", "hopf", "k4planar", "dh"):
        spec = parse_diagram(load_diagram_text(name))
        size, orbit_count, edge_sizes = edge_component_sizes(spec)
        assert orbit_count == len(spec.labels)
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
    out = subdivide_edge(spec, edge)
    after = enum_size(out)
    assert after == before + edge_sizes[edge]


def _move_terminal_end(spec, arc, new_arc):
    """The crossings and vertices of ``spec`` with the terminal end of
    ``arc`` (an under strand's in arc, or a vertex's ``+`` end) handed to
    ``new_arc``."""
    crossings = [replace(x, under_in=new_arc) if x.under_in == arc else x for x in spec.crossings]
    vertices = [tuple((new_arc, 1) if end == (arc, 1) else end for end in v) for v in spec.vertices]
    return crossings, vertices


def r1_kink(spec, arc, over_new, sign):
    """Reidemeister I: a kink splits ``arc`` into arc and a new arc arc',
    which takes arc's terminal end, at a crossing over arc' (``over_new``)
    or over arc.  Either relation gives x_arc' = x_arc."""
    new = spec.arc_count + 1
    crossings, vertices = _move_terminal_end(spec, arc, new)
    crossings.append(Crossing(sign, new if over_new else arc, arc, new))
    return DiagramSpec(new, {**spec.arc_edge, new: spec.arc_edge[arc]}, spec.labels, crossings, vertices)


def r2_poke(spec, arc, over, sign):
    """Reidemeister II: ``arc`` pokes under arc ``over`` and back, splitting
    into arc, arc' and arc'', which takes arc's terminal end.  The two
    crossings give x_arc' = x_arc acted on by x_over^sign and
    x_arc'' = x_arc."""
    mid, end = spec.arc_count + 1, spec.arc_count + 2
    crossings, vertices = _move_terminal_end(spec, arc, end)
    crossings += [Crossing(sign, over, arc, mid), Crossing(-sign, over, mid, end)]
    edge = spec.arc_edge[arc]
    return DiagramSpec(end, {**spec.arc_edge, mid: edge, end: edge}, spec.labels, crossings, vertices)


BATTERY = ("theta3", "h1", "kt", "hopf", "k4planar", "dh")


@pytest.mark.parametrize("name", BATTERY)
def test_reidemeister_moves_keep_the_quandle_on_the_battery(name):
    """As presentations both moves add generators that the old ones give
    (Tietze moves), so the size and every edge's component size stay, and
    verify passes: its A3 check set leaves out generators that such
    relations give."""
    spec = parse_diagram(load_diagram_text(name))
    want = edge_component_sizes(spec)
    rng = random.Random(name)
    arc = rng.randint(1, spec.arc_count)
    over = rng.choice([a for a in range(1, spec.arc_count + 1) if a != arc])
    moved = [r1_kink(spec, arc, True, rng.choice((1, -1))),
             r1_kink(spec, arc, False, rng.choice((1, -1))),
             r2_poke(spec, arc, over, rng.choice((1, -1)))]
    for out in moved:
        assert edge_component_sizes(out) == want, out
        pres = expand_relations(wirtinger(out))
        res = enumerate_quandle(pres, EnumerationLimits(300000, 10**9))
        assert verify(res.graph, pres) == [], out


def test_delete_equality_with_unit_label():
    """With n_e = 1 deletion removes exactly e's component: theta to digon."""
    labeled = parse_diagram(load_diagram_text("theta3")).with_labels((3, 3, 1))
    before, _, edge_sizes = edge_component_sizes(labeled)
    out = delete_edge(labeled, 3)
    assert enum_size(out) == before - edge_sizes[3]


def test_delete_equality_hopf():
    labeled = parse_diagram(load_diagram_text("hopf")).with_labels((2, 1))
    before, _, edge_sizes = edge_component_sizes(labeled)
    out = delete_edge(labeled, 2)
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
