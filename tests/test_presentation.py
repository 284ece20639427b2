"""Presentation parsing, secondary/power relation derivation, expansion."""

import numpy as np
import pytest

from quandleforge import (
    DiagramSpec,
    EnumerationLimits,
    FamilyParams,
    GeneratorSymbol,
    GroupWord,
    Letter,
    ParseError,
    Presentation,
    PrimaryRelation,
    enumerate_quandle,
    expand_relations,
    family_presentation,
    loop_words,
    parse_presentation,
    parse_word,
    render_presentation,
)
from quandleforge.families import _DATA_FILES, _read_data_text, table1_rows
from quandleforge.words import FieldError


def test_parse_basic():
    pres = parse_presentation(
        "gens: a b c\nedges: a:1 b:2 c:3\nlabels: 3 3 2\nrel * : a b c'\n"
    )
    assert [g.name for g in pres.generators] == ["a", "b", "c"]
    assert len(pres.universals) == 1
    assert len(pres.primaries) == 0
    assert pres.labels == (3, 3, 2)


def test_parse_free_presentation():
    pres = parse_presentation("gens: a\nedges: a:1\nlabels: 5\n")
    assert len(pres.generators) == 1
    assert pres.universals == ()


def test_parse_label_below_one():
    with pytest.raises(ParseError):
        parse_presentation("gens: a b\nedges: a:1 b:2\nlabels: 0 2\n")


def test_parse_primary_relation():
    pres = parse_presentation(
        "gens: a b c\nedges: a:1 b:2 c:3\nlabels: 2 2 2\nrel a : b b' (ab)^2 = c\n"
    )
    rel = pres.primaries[0]
    assert rel.lhs_base.name == "a"
    assert rel.rhs.name == "c"
    syms = {g.name: g for g in pres.generators}
    assert rel.word == parse_word("a b a b", syms)


@pytest.mark.parametrize(
    "text, message",
    [
        ("gens: a\nedges: a:1\nlabels: 1\nrel * : z\n", "unknown generator"),
        ("gens: a b\nedges: a:1\nlabels: 1 1\n", "missing from"),
        ("gens: a\nedges: a:3\nlabels: 1\n", "labels"),
        ("gens: a\nlabels: 1\nbogus: x\nedges: a:1\n", "unknown key"),
        ("gens: a\nedges: a:1\nlabels: 1\nrel a : a\n", "="),
        ("gens: a b c\nedges: a:1 b:2 c:3\nlabels: 3 3 2 7\n", "edge 4 has no generator"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "text, where",
    [
        (_read_data_text("presentations/theta3.txt").replace("labels: 3 3 2", "labels: 3 3 2 7"),
         "line 6, col 1: edge 4 has no generator"),
        ("gens: a b\n# comment\nedges: a:1 b:3\nlabels: 1 1\n",
         "line 3, col 1: generator 'b' mapped to edge 3, but only 2 labels given"),
        ("gens: a b\nlabels: 1 1\nedges: a:1\n",
         "line 3, col 1: generator 'b' missing from the edge map"),
        ("# no edges line\ngens: a\nlabels: 1\n",
         "line 2, col 1: generator 'a' missing from the edge map"),
        ("gens: a b c\nedges: a:1 b:2 c:3\nlabels: 3 3 2\nlabels: 5 5 5\n",
         "line 4, col 1: duplicate 'labels:' line"),
        ("gens: a\nedges: a:1\ngens: b\nlabels: 1\n", "line 3, col 1: duplicate 'gens:' line"),
        ("# one name twice\ngens: a b a\nedges: a:1 b:1\nlabels: 2\n",
         "line 2, col 1: duplicate generator name 'a'"),
        # b' would read as a generator, not as the inverse of b
        ("# primes invert\ngens: b b'\nedges: b:1 b':2\nlabels: 2 2\nrel * : b'\n",
         "line 2, col 1: generator name \"b'\" is not an identifier"),
        ("gens: a a^2\nedges: a:1 a^2:1\nlabels: 3\nrel * : a^2\n",
         "line 1, col 1: generator name 'a^2' is not an identifier"),
        ("labels: 1\ngens: (a\nedges: (a:1\n", "line 2, col 1: generator name '(a' is not an identifier"),
        ("# no names\ngens:\nlabels: 1\n", "line 2, col 6: empty generator list"),
        ("gens: a b\nedges: a:1 b:2\nlabels: 2 2\nrel z : a = b\n",
         "line 4, col 4: unknown generator 'z' in relation"),
        ("gens: a b\nedges: a:1 b:2\nlabels: 2 2\nrel a : b = z\n",
         "line 4, col 8: unknown generator 'z' in relation"),
        ("labels: 1\n", "line 1, col 1: missing 'gens:' line"),
        ("gens: a\nedges: a:1\n", "line 1, col 1: missing 'labels:' line"),
    ],
    ids=["stray-label", "edge-beyond-labels", "generator-without-edge", "no-edges-line",
         "duplicate-labels", "duplicate-gens", "duplicate-generator", "prime-in-name", "power-in-name",
         "paren-in-name", "empty-gens", "unknown-head", "unknown-right-side", "no-gens-line",
         "no-labels-line"],
)
def test_parse_errors_point_at_their_line(text, where):
    """Errors found once the whole file is read point at the line that
    holds the fault, not at line 1."""
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == where


def _fields(pres):
    return (pres.generators, pres.edge_of, pres.labels, pres.primaries, pres.universals)


@pytest.mark.parametrize("text", [
    *(pytest.param(render_presentation(family_presentation(FamilyParams(family))), id=family)
      for family in _DATA_FILES),
    pytest.param("gens: a b\nedges: a:1 b:2\nlabels: 2 3\nrel a : = b\nrel b : a' = a\n",
                 id="empty-primary-word"),
])
def test_render_round_trip(text):
    pres = parse_presentation(text)
    rendered = render_presentation(pres)
    again = parse_presentation(rendered)
    assert _fields(again) == _fields(pres)
    assert render_presentation(again) == rendered


def _simple(labels=(2, 2)):
    a = GeneratorSymbol(0, "a")
    b = GeneratorSymbol(1, "b")
    syms = {"a": a, "b": b}
    return a, b, syms


def test_secondary_of_examples():
    a, b, syms = _simple()
    c = GeneratorSymbol(2, "c")
    syms["c"] = c

    def secondaries(rel):
        pres = Presentation([a, b, c], {a: 1, b: 2, c: 3}, (2, 2, 2), [rel])
        return [str(word) for word in expand_relations(pres).universals]

    assert secondaries(PrimaryRelation(a, parse_word("b", syms), c)) == ["b' a b c'"]
    assert secondaries(PrimaryRelation(a, GroupWord(), b)) == ["a b'"]
    # a^[a] = a reduces to nothing and is dropped as vacuous
    assert secondaries(PrimaryRelation(a, parse_word("a", syms), a)) == []


def test_power_relations_theta():
    pres = parse_presentation("gens: a b c\nedges: a:1 b:2 c:3\nlabels: 3 3 2\n")
    words = [str(word) for word in loop_words(pres)]
    assert words == ["a a a", "b b b", "c c"]


def test_power_relations_label_one():
    pres = parse_presentation("gens: a\nedges: a:1\nlabels: 1\n")
    assert [str(word) for word in loop_words(pres)] == ["a"]


def test_power_relations_gkmn():
    pres = parse_presentation(
        "gens: a b c d e f\nedges: a:1 b:2 c:3 d:4 e:5 f:6\nlabels: 2 2 3 4 2 2\n"
    )
    words = [str(word) for word in loop_words(pres)]
    assert words == ["a a", "b b", "c c c", "d d d d", "e e", "f f"]


def test_expand_relations_counts():
    # one primary, no universals, two generators labeled (2,2):
    # the loops are the primary's conjugate and two power relations
    pres = parse_presentation(
        "gens: a b\nedges: a:1 b:2\nlabels: 2 2\nrel a : b = b\n"
    )
    assert len(loop_words(pres)) == 3
    assert len(expand_relations(pres).primaries) == 1

    free = parse_presentation("gens: a\nedges: a:1\nlabels: 4\n")
    assert len(loop_words(free)) == 1


def test_relabeling_before_or_after_expanding_gives_the_table1_quandle():
    """The power loops come from the labels a presentation carries when it
    is enumerated, so a graph expanded at its file labels and relabeled to
    a size-table row gives that row's quandle, numbered alike."""
    rows = [row for row in table1_rows() if row["expected"] < 10_000]
    assert len(rows) == 20
    limits = EnumerationLimits(10**6, 10**9)
    for row in rows:
        labels = tuple(row["labels"])
        base = family_presentation(FamilyParams(row["family"]))
        want = enumerate_quandle(family_presentation(FamilyParams(row["family"], labels=labels)), limits).graph
        for pres in (expand_relations(base).with_labels(labels), expand_relations(base.with_labels(labels))):
            res = enumerate_quandle(pres, limits)
            assert res.completed and res.stats.live == row["expected"], row
            assert np.array_equal(res.graph.actions, want.actions), row
            assert np.array_equal(res.graph.basepoint, want.basepoint), row


def test_expand_relations_idempotent():
    pres = parse_presentation(
        "gens: a b c\nedges: a:1 b:2 c:3\nlabels: 3 3 2\nrel * : a b c\nrel a : b = c\n"
    )
    once = expand_relations(pres)
    twice = expand_relations(once)
    assert once.universals == twice.universals
    assert once.primaries == twice.primaries


def test_expand_deduplicates():
    pres = parse_presentation(
        "gens: a b\nedges: a:1 b:2\nlabels: 2 2\nrel * : a a\nrel * : a a\nrel * : b b\n"
    )
    out = expand_relations(pres)
    assert len(out.universals) == 2


def test_universal_relation_rejects_empty():
    a = GeneratorSymbol(0, "a")
    with pytest.raises(ValueError, match="universal relation word must be nonempty"):
        Presentation([a], {a: 1}, (2,), universals=[GroupWord()])


def test_labeling_validation():
    a = GeneratorSymbol(0, "a")
    for build in (lambda: Presentation([a], {a: 1}, (0,)), lambda: DiagramSpec(1, {1: 1}, (0,))):
        with pytest.raises(FieldError, match="edge label must be >= 1, got 0") as err:
            build()
        assert err.value.key == "labels"
    with pytest.raises(ValueError):
        Presentation([a], {a: 2}, (2,))


def test_built_presentation_names_are_identifiers():
    a = GeneratorSymbol(0, "a'")
    with pytest.raises(FieldError, match="generator name \"a'\" is not an identifier") as err:
        Presentation([a], {a: 1}, (2,))
    assert err.value.key == "gens"


A, Z = GeneratorSymbol(0, "a"), GeneratorSymbol(1, "z")


@pytest.mark.parametrize("fields, message", [
    (dict(generators=[Z], edge_of={Z: 1}), "generator ids must be dense 0..g-1; z has id 1 at 0"),
    (dict(primaries=[PrimaryRelation(A, GroupWord(), Z)]), "primary relation a^[1] = z uses unknown generator"),
    (dict(primaries=[PrimaryRelation(A, GroupWord([Letter(Z, 1)]), A)]),
     "primary relation a^[z] = a uses unknown generator 'z'"),
    (dict(universals=[GroupWord([Letter(Z, -1)])]), "universal relation x^[z'] = x uses unknown generator 'z'"),
], ids=["sparse-ids", "unknown-end", "unknown-letter", "unknown-universal-letter"])
def test_built_presentation_faults(fields, message):
    """A presentation built in code is checked as a parsed one is."""
    fields = dict(dict(generators=[A], edge_of={A: 1}, labels=(2,)), **fields)
    with pytest.raises(ValueError) as err:
        Presentation(**fields)
    assert str(err.value) == message


def test_edge_map_rejects_an_unknown_generator():
    """As a diagram's edge map rejects an arc beyond ``arcs:``."""
    a, b = GeneratorSymbol(0, "a"), GeneratorSymbol(1, "b")
    with pytest.raises(FieldError, match="unknown generator 'b' in edge map") as err:
        Presentation([a], {a: 1, b: 5}, (2,))
    assert err.value.key == "edges"


THETA = "gens: a b c\nedges: a:1 b:2 c:3\nlabels: 3 3 2\nrel * : a b c\n"


def _size(pres, limit=30000):
    res = enumerate_quandle(expand_relations(pres), EnumerationLimits(limit, 10**8))
    return res.stats.live if res.completed else None


def test_secondary_loops_close_on_enumerated_quandle():
    pres = parse_presentation(
        "gens: a b c\nedges: a:1 b:2 c:3\nlabels: 3 3 2\nrel a : b = c\nrel * : a b c\n"
    )
    expanded = expand_relations(pres)
    quandle = enumerate_quandle(expanded, EnumerationLimits(10000, 10**8)).graph
    sec = expanded.universals[len(pres.universals)]  # the primary's secondary
    for x in range(quandle.actions.shape[1]):
        assert quandle.follow(sec, x) == x


def test_quotient_monotonicity():
    """Adding a universal relation never increases the enumerated size,
    and dropping a redundant relation leaves it unchanged."""
    base = parse_presentation(THETA)
    assert _size(base) == 14
    strengthened = Presentation(
        base.generators,
        base.edge_of,
        base.labels,
        base.primaries,
        base.universals + (parse_word("a", {g.name: g for g in base.generators}),),
    )
    assert _size(strengthened) <= 14

    # the second theta vertex relation is the inverse of the first; adding
    # it changes nothing
    syms = {g.name: g for g in base.generators}
    redundant = Presentation(
        base.generators,
        base.edge_of,
        base.labels,
        base.primaries,
        base.universals + (parse_word("c' b' a'", syms),),
    )
    assert _size(redundant) == 14
