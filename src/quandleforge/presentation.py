"""Quandle presentations with edge labels.

A presentation has one generator per diagram arc (or per graph edge, for
hand-reduced inputs), a map from generators to graph edges, a tuple of
positive integer labels n_1..n_k indexed by edge, and two kinds of
relations:

* primary relations  x_j^w = x_k   (crossing relations), and
* universal relations x^w = x      (vertex relations, power relations,
  and the conjugates of primaries), imposed on every element and stored
  as their nonempty words w.

:func:`loop_words` is where the secondary and power relations are
defined: it lists the loop words that the enumeration engine closes and
the verifier checks at every element, derived from the labels a
presentation carries now.  :func:`expand_relations` adds the label-free
part of them, the secondaries, to a presentation's universals.

Text format (line oriented, ``#`` starts a comment)::

    gens: a b c d
    edges: a:1 b:2 c:3 d:1      # 1-based edge indices
    labels: 3 3 2
    rel a : b = d               # primary, a^b = d
    rel * : d b c               # universal, x^(d b c) = x
    rel * : a' b' c'            # a' is the inverse of a

``gens:`` and ``labels:`` appear once each; the other keys may repeat.
Generator names are identifiers, so ``b'`` in a word is always b⁻¹.
Each generator is given one edge, and every edge 1..k of the labeling
must carry at least one generator.  The word syntax, the line reader,
the edge map and the label list are the shared ones from
:mod:`quandleforge.words`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    FieldError,
    GeneratorSymbol,
    GroupWord,
    Letter,
    ParseError,
    check_edge_map,
    check_labels,
    check_name,
    invert,
    parse_labels,
    parse_word,
    read_edge_map,
    read_key_lines,
)


@dataclass(frozen=True)
class PrimaryRelation:
    """An element-level relation lhs_base^word = rhs."""

    lhs_base: GeneratorSymbol
    word: GroupWord
    rhs: GeneratorSymbol

    def __str__(self) -> str:
        return f"{self.lhs_base.name}^[{self.word}] = {self.rhs.name}"


class Presentation:
    """A validated quandle presentation; ``labels[i - 1]`` is the label of edge i."""

    def __init__(
        self,
        generators,
        edge_of: dict[GeneratorSymbol, int],
        labels,
        primaries=(),
        universals=(),
    ):
        self.generators: tuple[GeneratorSymbol, ...] = tuple(generators)
        self.edge_of = dict(edge_of)
        self.labels: tuple[int, ...] = tuple(labels)
        self.primaries: tuple[PrimaryRelation, ...] = tuple(primaries)
        self.universals: tuple[GroupWord, ...] = tuple(universals)
        self._validate()

    def _validate(self):
        check_labels(self.labels)
        names = set()
        for i, gen in enumerate(self.generators):
            if gen.id != i:
                raise ValueError(f"generator ids must be dense 0..g-1; {gen} has id {gen.id} at {i}")
            check_name(gen.name)
            if gen.name in names:
                raise FieldError(f"duplicate generator name {gen.name!r}", "gens")
            names.add(gen.name)
        known = set(self.generators)
        for gen in self.edge_of:
            if gen not in known:
                raise FieldError(f"unknown generator {gen.name!r} in edge map", "edges")
        pairs = ((repr(gen.name), self.edge_of.get(gen)) for gen in self.generators)
        check_edge_map("generator", "edges", pairs, len(self.labels))
        for rel in self.primaries:
            if rel.lhs_base not in known or rel.rhs not in known:
                raise ValueError(f"primary relation {rel} uses unknown generator")
            for letter in rel.word:
                if letter.gen not in known:
                    raise ValueError(f"primary relation {rel} uses unknown generator {letter.gen.name!r}")
        for word in self.universals:
            if not word:
                raise ValueError("universal relation word must be nonempty")
            for letter in word:
                if letter.gen not in known:
                    raise ValueError(f"universal relation x^[{word}] = x uses unknown generator {letter.gen.name!r}")

    def label_of(self, gen: GeneratorSymbol) -> int:
        return self.labels[self.edge_of[gen] - 1]

    def with_labels(self, labels) -> "Presentation":
        """The same presentation under a different edge labeling."""
        return Presentation(self.generators, self.edge_of, labels, self.primaries, self.universals)

    def __repr__(self) -> str:
        return (
            f"Presentation({len(self.generators)} gens, {len(self.labels)} edges, "
            f"{len(self.primaries)} primary, {len(self.universals)} universal)"
        )


def _label_free_loops(pres: Presentation) -> tuple[GroupWord, ...]:
    """The given universal words, then the secondary w' x_j w x_k' of each
    primary x_j^w = x_k, less vacuous and repeated words."""
    secondaries = (
        GroupWord([*invert(rel.word), Letter(rel.lhs_base, 1), *rel.word, Letter(rel.rhs, -1)])
        for rel in pres.primaries
    )
    return tuple(word for word in dict.fromkeys([*pres.universals, *secondaries]) if word)


def loop_words(pres: Presentation) -> tuple[GroupWord, ...]:
    """The words of the loops closed at every element of the N-quandle:
    the universals of :func:`expand_relations`, then the power word g^n of
    each generator g, n the label g's edge carries now (a label of 1
    forces x^g = x), less repeated words."""
    powers = [GroupWord([Letter(gen, 1)] * pres.label_of(gen)) for gen in pres.generators]
    return tuple(dict.fromkeys([*_label_free_loops(pres), *powers]))


def expand_relations(pres: Presentation) -> Presentation:
    """The presentation with its label-free loops as its universals.

    The universals given come first, in their order, then the secondary
    relation y^(w' x_j w x_k') = y of each primary x_j^w = x_k, in primary
    order; a word that reduces to nothing (a vacuous one, e.g. from
    a^[a] = a) is dropped, and a word already listed is not listed again.
    No power relation is stored, so relabeling before or after expanding
    gives the same quandle.  Primaries are retained.  Idempotent.
    """
    return Presentation(pres.generators, pres.edge_of, pres.labels, pres.primaries, _label_free_loops(pres))


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format; see the module docstring."""
    gens: list[GeneratorSymbol] = []
    symbols: dict[str, GeneratorSymbol] = {}
    edge_of: dict[GeneratorSymbol, int] = {}
    labels: tuple[int, ...] | None = None
    primaries: list[PrimaryRelation] = []
    universals: list[GroupWord] = []
    line_of: dict[str, int] = {}  # the last line of each key

    for lineno, key, rest, col0 in read_key_lines(text):
        if key in {"gens", "labels"} and key in line_of:  # the single-valued keys
            raise ParseError(f"duplicate '{key}:' line", lineno, 1)
        line_of[key] = lineno
        if key == "gens":
            for name in rest.split():
                gen = GeneratorSymbol(len(gens), name)
                gens.append(gen)
                symbols[name] = gen
            if not gens:
                raise ParseError("empty generator list", lineno, col0 + 1)
        elif key == "edges":
            read_edge_map(rest, symbols.__getitem__, edge_of, lineno, col0 + 1)
        elif key == "labels":
            labels = parse_labels(rest, lineno, col0 + 1)
        elif key.startswith("rel"):
            head = key[3:].strip()
            if head == "*":
                word = parse_word(rest, symbols, lineno, col0)
                if word:
                    universals.append(word)
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
    try:
        return Presentation(gens, edge_of, labels, primaries, universals)
    except FieldError as exc:
        # with no edges line at all, a missing edge is blamed on the gens line
        raise ParseError(str(exc), line_of.get(exc.key, line_of["gens"]), 1) from None


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
    for word in pres.universals:
        lines.append(f"rel * : {word}")
    return "\n".join(lines) + "\n"
