"""Quandle presentations with edge labelings.

A presentation has one generator per diagram arc (or per graph edge, for
hand-reduced inputs), a map from generators to graph edges, a positive
integer label per edge, and two kinds of relations:

* primary relations  x_j^w = x_k   (crossing relations), and
* universal relations x^w = x      (vertex relations, power relations,
  and the conjugates of primaries), imposed on every element.

:func:`expand_relations` turns a parsed presentation into the fully
expanded form the enumeration engine consumes: each primary contributes
the universal relation w' x_j w x_k', and each generator g on edge i
contributes the power relation g^(n_i).  Labels equal to 1 are expanded
like any other and simply force x^g = x.

Text format (line oriented, ``#`` starts a comment)::

    gens: a b c
    edges: a:1 b:2 c:3          # 1-based edge indices
    labels: 3 3 2
    rel a : b b' = c            # primary, a^(b b') = c
    rel * : a b c               # universal, x^(a b c) = x

Every edge 1..k of the labeling must carry at least one generator.  The
word syntax, the line reader and the label list are the shared ones from
:mod:`quandleforge.words`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    GeneratorSymbol,
    GroupWord,
    Letter,
    ParseError,
    invert,
    parse_labels,
    parse_word,
    power_word,
    read_key_lines,
)


@dataclass(frozen=True)
class EdgeLabeling:
    """Positive integer labels n_1..n_k indexed by graph edge (1-based)."""

    labels: tuple[int, ...]

    def __post_init__(self):
        for i, n in enumerate(self.labels):
            if n < 1:
                raise ValueError(f"edge label n_{i + 1} must be >= 1, got {n}")

    def __len__(self) -> int:
        return len(self.labels)

    def of_edge(self, edge: int) -> int:
        return self.labels[edge - 1]


@dataclass(frozen=True)
class PrimaryRelation:
    """An element-level relation lhs_base^word = rhs."""

    lhs_base: GeneratorSymbol
    word: GroupWord
    rhs: GeneratorSymbol

    def __str__(self) -> str:
        return f"{self.lhs_base.name}^[{self.word}] = {self.rhs.name}"


@dataclass(frozen=True)
class UniversalRelation:
    """A relation x^word = x imposed on every element; word is nonempty."""

    word: GroupWord

    def __post_init__(self):
        if not self.word:
            raise ValueError("universal relation word must be nonempty")

    def __str__(self) -> str:
        return f"x^[{self.word}] = x"


class Presentation:
    """A validated quandle presentation with an edge labeling."""

    def __init__(
        self,
        generators,
        edge_of: dict[GeneratorSymbol, int],
        labeling: EdgeLabeling,
        primaries=(),
        universals=(),
    ):
        self.generators: tuple[GeneratorSymbol, ...] = tuple(generators)
        self.edge_of = dict(edge_of)
        self.labeling = labeling
        self.primaries: tuple[PrimaryRelation, ...] = tuple(primaries)
        self.universals: tuple[UniversalRelation, ...] = tuple(universals)
        self._validate()

    def _validate(self):
        names = set()
        for i, gen in enumerate(self.generators):
            if gen.id != i:
                raise ValueError(f"generator ids must be dense 0..g-1; {gen} has id {gen.id} at {i}")
            if gen.name in names:
                raise ValueError(f"duplicate generator name {gen.name!r}")
            names.add(gen.name)
        known = set(self.generators)
        for gen in self.generators:
            edge = self.edge_of.get(gen)
            if edge is None:
                raise ValueError(f"generator {gen.name!r} has no edge assignment")
            if not 1 <= edge <= len(self.labeling):
                raise ValueError(f"generator {gen.name!r} mapped to edge {edge}, but only {len(self.labeling)} labels given")
        used_edges = {self.edge_of[gen] for gen in self.generators}
        for edge in range(1, len(self.labeling) + 1):
            if edge not in used_edges:
                raise ValueError(f"edge {edge} has no generator")
        for rel in self.primaries:
            if rel.lhs_base not in known or rel.rhs not in known:
                raise ValueError(f"primary relation {rel} uses unknown generator")
            for letter in rel.word:
                if letter.gen not in known:
                    raise ValueError(f"primary relation {rel} uses unknown generator {letter.gen.name!r}")
        for rel in self.universals:
            for letter in rel.word:
                if letter.gen not in known:
                    raise ValueError(f"universal relation {rel} uses unknown generator {letter.gen.name!r}")

    @property
    def labels(self) -> tuple[int, ...]:
        return self.labeling.labels

    def label_of(self, gen: GeneratorSymbol) -> int:
        return self.labeling.of_edge(self.edge_of[gen])

    def with_labels(self, labels) -> "Presentation":
        """The same presentation under a different edge labeling."""
        return Presentation(
            self.generators,
            self.edge_of,
            EdgeLabeling(tuple(labels)),
            self.primaries,
            self.universals,
        )

    def __repr__(self) -> str:
        return (
            f"Presentation({len(self.generators)} gens, {len(self.labeling)} edges, "
            f"{len(self.primaries)} primary, {len(self.universals)} universal)"
        )


def secondary_of(rel: PrimaryRelation) -> UniversalRelation | None:
    """The universal relation y^(w' x_j w x_k') = y induced by a primary.

    Returns None when the word reduces to nothing (a vacuous relation,
    e.g. a^[a] = a); such relations are dropped by expansion.
    """
    word = (
        invert(rel.word)
        * GroupWord([Letter(rel.lhs_base, 1)])
        * rel.word
        * GroupWord([Letter(rel.rhs, -1)])
    )
    if not word:
        return None
    return UniversalRelation(word)


def power_relations(pres: Presentation) -> list[UniversalRelation]:
    """One relation x^(g^n) = x per generator g, n the label of g's edge."""
    return [
        UniversalRelation(power_word(gen, pres.label_of(gen)))
        for gen in pres.generators
    ]


def expand_relations(pres: Presentation) -> Presentation:
    """Close the universal-relation list for enumeration.

    Adds the secondary relation of each primary and the power relation of
    each generator, drops vacuous relations, and deduplicates by exact
    word equality.  Primaries are retained so the engine can trace them.
    Idempotent.
    """
    seen: set[GroupWord] = set()
    universals: list[UniversalRelation] = []

    def add(rel: UniversalRelation | None):
        if rel is not None and rel.word not in seen:
            seen.add(rel.word)
            universals.append(rel)

    for rel in pres.universals:
        add(rel)
    for primary in pres.primaries:
        add(secondary_of(primary))
    for rel in power_relations(pres):
        add(rel)
    return Presentation(pres.generators, pres.edge_of, pres.labeling, pres.primaries, universals)


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format; see the module docstring."""
    gens: list[GeneratorSymbol] = []
    symbols: dict[str, GeneratorSymbol] = {}
    edge_of: dict[GeneratorSymbol, int] = {}
    labels: tuple[int, ...] | None = None
    primaries: list[PrimaryRelation] = []
    universals: list[UniversalRelation] = []
    seen_keys: set[str] = set()

    for lineno, key, rest, col0 in read_key_lines(text):
        if key == "gens":
            if "gens" in seen_keys:
                raise ParseError("duplicate 'gens:' line", lineno, 1)
            seen_keys.add("gens")
            for name in rest.split():
                if name in symbols:
                    raise ParseError(f"duplicate generator {name!r}", lineno, col0 + 1)
                gen = GeneratorSymbol(len(gens), name)
                gens.append(gen)
                symbols[name] = gen
            if not gens:
                raise ParseError("empty generator list", lineno, col0 + 1)
        elif key == "edges":
            for item in rest.split():
                name, sep2, idx = item.partition(":")
                if not sep2 or name not in symbols:
                    raise ParseError(f"bad edge assignment {item!r}", lineno, col0 + 1)
                try:
                    edge = int(idx)
                except ValueError:
                    raise ParseError(f"bad edge index in {item!r}", lineno, col0 + 1) from None
                edge_of[symbols[name]] = edge
        elif key == "labels":
            labels = parse_labels(rest, lineno, col0 + 1)
        elif key.startswith("rel"):
            head = key[3:].strip()
            if head == "*":
                word = parse_word(rest, symbols, lineno, col0)
                if word:
                    universals.append(UniversalRelation(word))
            else:
                if head not in symbols:
                    raise ParseError(f"unknown generator {head!r} in relation", lineno, 4)
                body, sep2, rhs_name = rest.partition("=")
                if not sep2:
                    raise ParseError("primary relation needs '= <gen>'", lineno, col0 + 1)
                rhs_name = rhs_name.strip()
                if rhs_name not in symbols:
                    raise ParseError(f"unknown generator {rhs_name!r} in relation", lineno, col0 + 1)
                word = parse_word(body, symbols, lineno, col0)
                primaries.append(PrimaryRelation(symbols[head], word, symbols[rhs_name]))
        else:
            raise ParseError(f"unknown key {key!r}", lineno, 1)

    if not gens:
        raise ParseError("missing 'gens:' line", 1, 1)
    if labels is None:
        raise ParseError("missing 'labels:' line", 1, 1)
    for gen in gens:
        if gen not in edge_of:
            raise ParseError(f"generator {gen.name!r} missing from 'edges:' map", 1, 1)
    try:
        return Presentation(gens, edge_of, EdgeLabeling(labels), primaries, universals)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None


def render_presentation(pres: Presentation) -> str:
    """Render a presentation back into the text format (stable order)."""
    lines = [
        "gens: " + " ".join(g.name for g in pres.generators),
        "edges: " + " ".join(f"{g.name}:{pres.edge_of[g]}" for g in pres.generators),
        "labels: " + " ".join(str(n) for n in pres.labels),
    ]
    for rel in pres.primaries:
        # an empty word renders as nothing, not as GroupWord's "1"
        lines.append(" ".join(["rel", rel.lhs_base.name, ":", *map(str, rel.word), "=", rel.rhs.name]))
    for rel in pres.universals:
        lines.append(f"rel * : {rel.word}")
    return "\n".join(lines) + "\n"
