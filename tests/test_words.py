"""Word-core tests: free reduction, inversion, the re-association rule."""

import random
from dataclasses import dataclass

import pytest

from quandleforge import (
    EnumerationLimits,
    GeneratorSymbol,
    GroupWord,
    Letter,
    ParseError,
    enumerate_quandle,
    expand_relations,
    invert,
    parse_presentation,
    parse_word,
    quandle_table,
)
from quandleforge.words import parse_labels, read_key_lines

A, B, C, D = (GeneratorSymbol(i, n) for i, n in enumerate("abcd"))
SYMS = {"a": A, "b": B, "c": C, "d": D}


def w(text):
    return parse_word(text, SYMS)


def concat(*words):
    """The reduced product of words."""
    return GroupWord(letter for word in words for letter in word)


@dataclass(frozen=True)
class QuandleExpr:
    """An element written as base^exponent with the exponent reduced."""

    base: GeneratorSymbol
    exponent: GroupWord


def act(x, y, sign=1):
    """Act on a^u by b^v, re-associating to normal form: acting positively
    sends a^u to a^(u v' b v), and negatively (the inverse operation) to
    a^(u v' b' v).  An independent reference for the Cayley graph's
    actions, which trace words letter by letter."""
    u, v = x.exponent, y.exponent
    return QuandleExpr(x.base, concat(u, invert(v), GroupWord([Letter(y.base, sign)]), v))


def test_free_reduce_examples():
    assert GroupWord([Letter(A, 1), Letter(A, -1), Letter(B, 1)]) == w("b")
    assert GroupWord([]) == GroupWord()
    assert GroupWord([Letter(A, 1), Letter(B, 1), Letter(B, -1), Letter(A, -1)]) == GroupWord()


def test_free_reduce_idempotent_random():
    rng = random.Random(20240511)
    gens = [A, B, C, D]
    for _ in range(300):
        letters = [Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 64))]
        once = GroupWord(letters)
        assert GroupWord(once.letters) == once


def test_invert_examples():
    assert invert(w("a b'")) == w("b a'")
    assert invert(GroupWord()) == GroupWord()
    assert invert(w("c c c")) == w("c' c' c'")


def test_invert_involution_and_antihomomorphism():
    rng = random.Random(998)
    gens = [A, B, C]
    for _ in range(200):
        u = GroupWord(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 20)))
        v = GroupWord(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 20)))
        assert invert(invert(u)) == u
        assert invert(concat(u, v)) == concat(invert(v), invert(u))


def test_act_examples():
    ae = QuandleExpr(A, GroupWord())
    be = QuandleExpr(B, GroupWord())
    assert act(ae, be, 1) == QuandleExpr(A, w("b"))
    x = QuandleExpr(A, w("c"))
    y = QuandleExpr(B, w("d"))
    assert act(x, y, 1) == QuandleExpr(A, w("c d' b d"))
    assert act(x, y, -1) == QuandleExpr(A, w("c d' b' d"))


def test_act_inverse_cancels():
    x = QuandleExpr(A, w("c b"))
    y = QuandleExpr(B, w("d c"))
    assert act(act(x, y, 1), y, -1) == x
    assert act(act(x, y, -1), y, 1) == x


THETA = """
gens: a b c
edges: a:1 b:2 c:3
labels: 3 3 2
rel * : a b c
"""


@pytest.mark.parametrize("labels", [(2, 2, 2), (3, 3, 2)])
def test_act_agrees_with_cayley_graph(labels):
    """Evaluating expressions letter-by-letter on the Cayley graph matches
    evaluating act-normalized expressions, exhaustively over elements of
    quandles with at most 64 elements."""
    pres = expand_relations(parse_presentation(THETA).with_labels(labels))
    quandle = enumerate_quandle(pres, EnumerationLimits(10000, 10**8)).graph
    table = quandle_table(quandle)
    n = quandle.actions.shape[1]
    assert n <= 64

    def evaluate(expr):
        return int(quandle.follow(expr.exponent, quandle.basepoint[expr.base.id]))

    # one expression per element, found by breadth-first search
    exprs = {}
    queue = []
    for gen in pres.generators:
        v = int(quandle.basepoint[gen.id])
        if v not in exprs:
            exprs[v] = QuandleExpr(gen, GroupWord())
            queue.append(v)
    while queue:
        v = queue.pop(0)
        for gen in pres.generators:
            for sign in (1, -1):
                nxt = int(quandle.follow([Letter(gen, sign)], v))
                if nxt not in exprs:
                    exprs[nxt] = QuandleExpr(exprs[v].base, concat(exprs[v].exponent, GroupWord([Letter(gen, sign)])))
                    queue.append(nxt)
    assert len(exprs) == n

    for xv, xe in exprs.items():
        for yv, ye in exprs.items():
            for sign in (1, -1):
                via_act = evaluate(act(xe, ye, sign))
                if sign > 0:
                    via_table = table[xv, yv]
                else:
                    col = table[:, yv]
                    via_table = int((col == xv).nonzero()[0][0])
                assert via_act == via_table


def test_parse_word_syntax():
    assert parse_word("(ab)^3", SYMS) == w("a b a b a b")
    assert parse_word("c^2", SYMS) == w("c c")
    assert parse_word("(ab)^-1", SYMS) == w("b' a'")
    assert parse_word("a'", SYMS) == GroupWord([Letter(A, -1)])
    assert parse_word("  a  b'c ", SYMS) == w("a b' c")
    assert parse_word("(a b)^0", SYMS) == GroupWord()
    assert parse_word("a''", SYMS) == w("a")


@pytest.mark.parametrize("bad", ["(ab", "ab)", "x", "a^", "a^-", "(a)^x"])
def test_parse_word_errors(bad):
    with pytest.raises(ParseError):
        parse_word(bad, SYMS)


@pytest.mark.parametrize("text, col", [("(ab", 4), ("(a(b)", 6), ("((a)", 5)])
def test_unclosed_group_names_where_the_text_ends(text, col):
    with pytest.raises(ParseError) as err:
        parse_word(text, SYMS)
    assert str(err.value) == f"line 1, col {col}: missing ')'"


def test_read_key_lines():
    text = "# header\n\n gens : a b  # trailing\nrel * : a\n"
    assert list(read_key_lines(text)) == [(3, "gens", "a b", 7), (4, "rel *", "a", 7)]
    with pytest.raises(ParseError, match="line 2, col 1: expected 'key: value'"):
        list(read_key_lines("gens: a\nnonsense\n"))


def test_parse_labels():
    assert parse_labels(" 3 3\t2 ") == (3, 3, 2)
    with pytest.raises(ParseError, match="bad label list '3,3'"):
        parse_labels("3,3")
    with pytest.raises(ParseError, match="line 4, col 9: edge label must be >= 1, got 0"):
        parse_labels("2 0", 4, 9)
