"""Spatial-graph diagrams and Wirtinger-style presentation generation.

A diagram is a combinatorial record of arcs (1-based), crossings and
graph vertices.  Each crossing names its over arc and the incoming and
outgoing arcs of the under strand, which must lie on the same graph
edge; the sign selects the relation's chirality.  Each vertex lists its
incident arc ends in cyclic order, ``+`` for an arc directed into the
vertex and ``-`` for one directed out.  Arc ends not consumed by a
crossing or vertex close up onto the rest of their component (as in a
crossingless unknot).

Text format (line oriented, ``#`` comments, the reader and label list
shared with presentations)::

    arcs: 3
    edge: 1:1 2:2 3:3            # arc:edge, both 1-based
    labels: 3 3 2
    xing + : over=2 in=1 out=3   # out = in acted by over (- for inverse)
    vertex: 1+ 2- 3+

``arcs:`` and ``labels:`` appear once each; the other keys may repeat.

:func:`wirtinger` emits one generator per arc (named x1, x2, ...), a
primary relation per crossing, and a universal relation per vertex whose
word is the signed product of the incident arcs in listed order.

The surgeries implement edge deletion (crossings over the deleted edge
splice their under strands back together) and edge subdivision (a degree
two vertex is inserted near the terminal end of one arc, and the stub on
the far side becomes a new edge inserted directly after its parent in
the labeling order).
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import Presentation, PrimaryRelation, UniversalRelation
from .words import (
    FieldError,
    GeneratorSymbol,
    GroupWord,
    Letter,
    ParseError,
    check_labels,
    parse_labels,
    read_key_lines,
)


@dataclass(frozen=True)
class Crossing:
    """One crossing: out = in acted by over, inverted when sign is -1."""

    sign: int
    over: int
    under_in: int
    under_out: int


class DiagramSpec:
    """A validated diagram: arcs, their edges, edge labels, crossings and vertices."""

    def __init__(self, arc_count, arc_edge, labels, crossings=(), vertices=()):
        self.arc_count = arc_count
        self.arc_edge = dict(arc_edge)
        self.labels: tuple[int, ...] = tuple(labels)
        self.crossings: tuple[Crossing, ...] = tuple(crossings)
        self.vertices: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(v) for v in vertices
        )
        self._validate()

    def arcs_of_edge(self, edge: int) -> list[int]:
        return [a for a in range(1, self.arc_count + 1) if self.arc_edge[a] == edge]

    def with_labels(self, labels) -> "DiagramSpec":
        """The same diagram under a different edge labeling."""
        return DiagramSpec(self.arc_count, self.arc_edge, labels, self.crossings, self.vertices)

    def _check_arc(self, arc: int, where: str, key: str, index: int = -1):
        if not 1 <= arc <= self.arc_count:
            raise FieldError(f"dangling arc {arc} in {where}", key, index)

    def _validate(self):
        """Raise :class:`FieldError` naming the field (``arcs``, ``edge``,
        ``labels``, the i-th ``xing`` or ``vertex``) that holds the first
        fault found."""
        check_labels(self.labels)
        if self.arc_count < 0:
            raise FieldError("arc count must be >= 0", "arcs")
        k = len(self.labels)
        for arc in range(1, self.arc_count + 1):
            edge = self.arc_edge.get(arc)
            if edge is None:
                raise FieldError(f"arc {arc} missing from the edge map", "edge")
            if not 1 <= edge <= k:
                raise FieldError(f"arc {arc} assigned to edge {edge}, but only {k} labels given", "edge")
        for arc in self.arc_edge:
            self._check_arc(arc, "edge map", "edge")
        used_edges = set(self.arc_edge.values())
        for edge in range(1, k + 1):
            if edge not in used_edges:
                raise FieldError(f"edge {edge} has no arcs", "labels")
        head_used = [0] * (self.arc_count + 1)
        tail_used = [0] * (self.arc_count + 1)

        def use(ends, arc, key, index):
            ends[arc] += 1
            if ends[arc] > 1:
                raise FieldError(f"dangling arc {arc}: an end is used more than once", key, index)

        for i, x in enumerate(self.crossings):
            if x.sign not in (1, -1):
                raise FieldError(f"crossing sign must be +1 or -1, got {x.sign}", "xing", i)
            for arc in (x.over, x.under_in, x.under_out):
                self._check_arc(arc, "crossing", "xing", i)
            if self.arc_edge[x.under_in] != self.arc_edge[x.under_out]:
                raise FieldError(
                    f"under arcs {x.under_in} and {x.under_out} lie on different edges", "xing", i
                )
            use(tail_used, x.under_in, "xing", i)
            use(head_used, x.under_out, "xing", i)
        for i, incidences in enumerate(self.vertices):
            if not incidences:
                raise FieldError("vertex with no incident arcs", "vertex", i)
            for arc, direction in incidences:
                self._check_arc(arc, "vertex", "vertex", i)
                if direction not in (1, -1):
                    raise FieldError(f"vertex direction must be +1 or -1, got {direction}", "vertex", i)
                use(tail_used if direction > 0 else head_used, arc, "vertex", i)

    def __repr__(self) -> str:
        return (
            f"DiagramSpec({self.arc_count} arcs, {len(self.labels)} edges, "
            f"{len(self.crossings)} crossings, {len(self.vertices)} vertices)"
        )


def parse_diagram(text: str) -> DiagramSpec:
    """Parse the diagram file format; see the module docstring."""
    arc_count = None
    arc_edge: dict[int, int] = {}
    labels = None
    crossings: list[Crossing] = []
    vertices: list[tuple[tuple[int, int], ...]] = []
    lines: dict[str, list[int]] = {}  # the lines of each key, crossings under "xing"

    for lineno, key, rest, _ in read_key_lines(text):
        if key in {"arcs", "labels"} and key in lines:  # the single-valued keys
            raise ParseError(f"duplicate '{key}:' line", lineno, 1)
        lines.setdefault("xing" if key.startswith("xing") else key, []).append(lineno)
        if key == "arcs":
            try:
                arc_count = int(rest)
            except ValueError:
                raise ParseError(f"bad arc count {rest!r}", lineno, 1) from None
        elif key == "edge":
            for item in rest.split():
                arc_str, _, edge_str = item.partition(":")  # no ':' leaves edge_str empty
                try:
                    arc_edge[int(arc_str)] = int(edge_str)
                except ValueError:
                    raise ParseError(f"bad edge assignment {item!r}", lineno, 1) from None
        elif key == "labels":
            labels = parse_labels(rest, lineno)
        elif key.startswith("xing"):
            sign_str = key[4:].strip()
            if sign_str == "+":
                sign = 1
            elif sign_str == "-":
                sign = -1
            else:
                raise ParseError(f"crossing needs a sign, got {key!r}", lineno, 1)
            fields = {}
            for item in rest.split():
                name, sep2, value = item.partition("=")
                if not sep2 or name not in ("over", "in", "out"):
                    raise ParseError(f"bad crossing field {item!r}", lineno, 1)
                try:
                    fields[name] = int(value)
                except ValueError:
                    raise ParseError(f"bad crossing field {item!r}", lineno, 1) from None
            if set(fields) != {"over", "in", "out"}:
                raise ParseError("crossing needs over=, in= and out=", lineno, 1)
            crossings.append(Crossing(sign, fields["over"], fields["in"], fields["out"]))
        elif key == "vertex":
            incidences = []
            for item in rest.split():
                if item.endswith("+"):
                    direction = 1
                elif item.endswith("-"):
                    direction = -1
                else:
                    raise ParseError(f"vertex arc {item!r} needs a +/- direction", lineno, 1)
                try:
                    incidences.append((int(item[:-1]), direction))
                except ValueError:
                    raise ParseError(f"bad vertex arc {item!r}", lineno, 1) from None
            vertices.append(tuple(incidences))
        else:
            raise ParseError(f"unknown key {key!r}", lineno, 1)

    if arc_count is None:
        raise ParseError("missing 'arcs:' line")
    if labels is None:
        raise ParseError("missing 'labels:' line")
    try:
        return DiagramSpec(arc_count, arc_edge, labels, crossings, vertices)
    except FieldError as exc:
        # with no edge line at all, a missing arc is blamed on the arcs line
        line = lines.get(exc.key, lines["arcs"])[exc.index]
        raise ParseError(str(exc), line, 1) from None


def wirtinger(spec: DiagramSpec) -> Presentation:
    """The Wirtinger-style presentation of a diagram.

    One generator per arc; per crossing the primary relation
    under_in^(over^sign) = under_out; per vertex the universal relation
    whose word multiplies the incident arcs in listed order with their
    direction signs.  The generator of arc i lies on edge arc_edge[i].
    """
    gens = [GeneratorSymbol(i, f"x{i + 1}") for i in range(spec.arc_count)]

    def gen(arc: int) -> GeneratorSymbol:
        return gens[arc - 1]

    primaries = [
        PrimaryRelation(gen(x.under_in), GroupWord([Letter(gen(x.over), x.sign)]), gen(x.under_out))
        for x in spec.crossings
    ]
    universals = []
    for incidences in spec.vertices:
        word = GroupWord(Letter(gen(arc), direction) for arc, direction in incidences)
        if word:
            universals.append(UniversalRelation(word))
    edge_of = {gen(arc): spec.arc_edge[arc] for arc in range(1, spec.arc_count + 1)}
    return Presentation(gens, edge_of, spec.labels, primaries, universals)


def _chain_terminal_arc(spec: DiagramSpec, edge: int) -> int:
    """The arc of an edge whose terminal end is not an internal chain link.

    Arcs of one edge chain together at the crossings that cut the edge;
    the terminal arc's tail is consumed by a vertex or closes up freely.
    A closed knot component cut only by crossings has no terminal arc: a
    single degree-2 vertex cannot split it into two edges without placing
    an edge boundary inside a crossing, so subdivision rejects it.
    """
    arcs = spec.arcs_of_edge(edge)
    internal_tails = {
        x.under_in for x in spec.crossings if spec.arc_edge[x.under_in] == edge
    }
    terminal = [a for a in arcs if a not in internal_tails]
    if not terminal:
        raise ValueError(
            f"edge {edge} is a closed component threaded through crossings; "
            "it cannot be subdivided by a single vertex"
        )
    return min(terminal)


def subdivide_edge(spec: DiagramSpec, edge: int) -> DiagramSpec:
    """Insert a degree-2 vertex on an edge, splitting it in two.

    Both halves keep the edge's label; the new half is a short stub at
    the split arc's terminal end and gets the edge index directly after
    its parent (later edges shift up by one).
    """
    if not 1 <= edge <= len(spec.labels):
        raise ValueError(f"no edge {edge} to subdivide")
    split_arc = _chain_terminal_arc(spec, edge)
    new_arc = spec.arc_count + 1

    arc_edge = {
        arc: (e + 1 if e > edge else e) for arc, e in spec.arc_edge.items()
    }
    arc_edge[new_arc] = edge + 1
    labels = spec.labels[:edge] + (spec.labels[edge - 1],) + spec.labels[edge:]

    vertices = []
    moved = False
    for incidences in spec.vertices:
        fixed = []
        for arc, direction in incidences:
            if arc == split_arc and direction > 0 and not moved:
                fixed.append((new_arc, direction))
                moved = True
            else:
                fixed.append((arc, direction))
        vertices.append(tuple(fixed))
    vertices.append(((split_arc, 1), (new_arc, -1)))

    # no crossing takes split_arc as its under_in, so the crossings stand
    return DiagramSpec(new_arc, arc_edge, labels, spec.crossings, vertices)


def delete_edge(spec: DiagramSpec, edge: int) -> DiagramSpec:
    """Remove an edge from the diagram.

    Crossings whose over arc lies on the edge are resolved by splicing
    their under arcs back into one; crossings whose under strand lies on
    the edge disappear with the edge's arcs.  Vertices lose the deleted
    incidences (and vanish if nothing remains); the labeling shrinks and
    later edges shift down by one.
    """
    if not 1 <= edge <= len(spec.labels):
        raise ValueError(f"no edge {edge} to delete")
    dead_arcs = set(spec.arcs_of_edge(edge))

    replace: dict[int, int] = {}

    def resolve(arc: int) -> int:
        while arc in replace:
            arc = replace[arc]
        return arc

    crossings = []
    for x in spec.crossings:
        if x.over in dead_arcs:
            if x.under_in not in dead_arcs:
                # splice the under strand; resolving both first keeps the
                # replacement map acyclic when a component closes up on itself
                target = resolve(x.under_in)
                gone = resolve(x.under_out)
                if target != gone:
                    replace[gone] = target
            continue
        if x.under_in in dead_arcs:
            continue
        crossings.append(x)

    survivors = [
        arc
        for arc in range(1, spec.arc_count + 1)
        if arc not in dead_arcs and arc not in replace
    ]
    renumber = {arc: i + 1 for i, arc in enumerate(survivors)}

    def final(arc: int) -> int:
        return renumber[resolve(arc)]

    new_crossings = [
        Crossing(x.sign, final(x.over), final(x.under_in), final(x.under_out))
        for x in crossings
    ]
    new_vertices = []
    for incidences in spec.vertices:
        kept = tuple(
            (final(arc), direction)
            for arc, direction in incidences
            if arc not in dead_arcs
        )
        if kept:
            new_vertices.append(kept)

    arc_edge = {}
    for arc in survivors:
        e = spec.arc_edge[arc]
        arc_edge[renumber[arc]] = e - 1 if e > edge else e
    labels = spec.labels[: edge - 1] + spec.labels[edge:]

    return DiagramSpec(len(survivors), arc_edge, labels, new_crossings, new_vertices)
