"""Free-group words over quandle generators.

Quandle elements are written in exponential notation: an expression a^w
means the generator a acted on, letter by letter, by the word w.  A word
is a sequence of generators and formal inverses; the inverse of x is
written x' in text form.  Words are kept freely reduced at all times, so
equality of words (and of expressions) is plain structural equality.

The text syntax accepted by :func:`parse_word` is shared by every parser
in the package: generators are identifiers, a trailing apostrophe inverts,
juxtaposition concatenates, and parenthesized groups may carry integer
exponents, e.g. ``(ab)^3``, ``c^2``, ``(ab)^-1``.  Whitespace is ignored.
The file formats also share their line reader (:func:`read_key_lines`)
and their edge-label list (:func:`parse_labels`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class ParseError(ValueError):
    """Syntax or validation error in any of the text formats.

    Carries a 1-based line and column so callers can point at the input.
    """

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def read_key_lines(text: str) -> Iterator[tuple[int, str, str, int]]:
    """The ``key: value`` lines of a line-oriented file format.

    ``#`` starts a comment and blank lines are skipped; any other line
    without a colon is an error.  Yields (line number, key, value, col0)
    with key and value stripped; col0 is the 0-based column just past the
    colon, so word parsers can report real positions.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value', got {line!r}", lineno, 1)
        yield lineno, key.strip(), value.strip(), raw.index(":") + 1


def parse_labels(text: str, line: int = 1, col: int = 1) -> tuple[int, ...]:
    """A whitespace-separated list of edge labels n_1 n_2 ..., each >= 1."""
    try:
        labels = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ParseError(f"bad label list {text!r}", line, col) from None
    for n in labels:
        if n < 1:
            raise ParseError(f"edge label must be >= 1, got {n}", line, col)
    return labels


@dataclass(frozen=True, order=True)
class GeneratorSymbol:
    """A quandle generator: dense integer id plus a display name."""

    id: int
    name: str

    def __str__(self) -> str:
        return self.name


class Letter(NamedTuple):
    """One letter of a word: a generator or its formal inverse."""

    gen: GeneratorSymbol
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    def __str__(self) -> str:
        return self.gen.name + ("'" if self.sign < 0 else "")


class GroupWord:
    """A freely reduced word in generators and formal inverses.

    Construction reduces eagerly (adjacent x x' pairs cancel until none
    remain), so two words are equal iff their letter tuples are equal.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        reduced: list[Letter] = []
        for letter in letters:
            if letter.sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {letter.sign}")
            if reduced and reduced[-1].gen == letter.gen and reduced[-1].sign == -letter.sign:
                reduced.pop()
            else:
                reduced.append(letter)
        self.letters: tuple[Letter, ...] = tuple(reduced)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def __str__(self) -> str:
        return " ".join(str(letter) for letter in self.letters) if self.letters else "1"

    def __repr__(self) -> str:
        return f"GroupWord({self})"


def invert(word: GroupWord) -> GroupWord:
    """Reverse the word and flip every sign; an involution."""
    return GroupWord(letter.inverse() for letter in reversed(word.letters))


def power_word(gen: GeneratorSymbol, n: int) -> GroupWord:
    """The word g g ... g with n >= 1 copies of the generator."""
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    return GroupWord(Letter(gen, 1) for _ in range(n))


@dataclass(frozen=True)
class QuandleExpr:
    """An element written as base^exponent with the exponent reduced."""

    base: GeneratorSymbol
    exponent: GroupWord

    def __str__(self) -> str:
        return f"{self.base.name}^[{self.exponent}]"


def act(x: QuandleExpr, y: QuandleExpr, sign: int = 1) -> QuandleExpr:
    """Act on a^u by b^v, re-associating to normal form.

    With y = b^v, acting positively sends a^u to a^(u v' b v) and acting
    negatively (the inverse operation) sends it to a^(u v' b' v).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    u, v = x.exponent, y.exponent
    middle = GroupWord([Letter(y.base, sign)])
    return QuandleExpr(x.base, u * invert(v) * middle * v)


def _match_generator(text: str, pos: int, symbols: dict[str, GeneratorSymbol]):
    """Longest-match lookup of a generator name at the given position."""
    best = None
    for name in symbols:
        if text.startswith(name, pos) and (best is None or len(name) > len(best)):
            best = name
    return best


def parse_word(text: str, symbols: dict[str, GeneratorSymbol], line: int = 1, col0: int = 0) -> GroupWord:
    """Parse the shared word syntax against a set of known generators.

    ``line`` and ``col0`` locate the text inside a larger file so errors
    report real positions.
    """
    letters, pos = _parse_sequence(text, 0, symbols, line, col0, toplevel=True)
    return GroupWord(letters)


def _parse_sequence(text, pos, symbols, line, col0, toplevel):
    letters: list[Letter] = []
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == ")":
            if toplevel:
                raise ParseError("unbalanced ')'", line, col0 + pos + 1)
            return letters, pos
        if ch == "(":
            inner, pos = _parse_sequence(text, pos + 1, symbols, line, col0, toplevel=False)
            if pos >= n or text[pos] != ")":
                raise ParseError("missing ')'", line, col0 + pos + 1)
            pos += 1
        else:
            name = _match_generator(text, pos, symbols)
            if name is None:
                raise ParseError(f"unknown generator at {text[pos:pos + 8]!r}", line, col0 + pos + 1)
            inner = [Letter(symbols[name], 1)]
            pos += len(name)
        while pos < n and text[pos] == "'":
            inner = [letter.inverse() for letter in reversed(inner)]
            pos += 1
        if pos < n and text[pos] == "^":
            pos += 1
            start = pos
            if pos < n and text[pos] == "-":
                pos += 1
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == start or text[start:pos] == "-":
                raise ParseError("expected integer exponent after '^'", line, col0 + pos + 1)
            exponent = int(text[start:pos])
            if exponent < 0:
                inner = [letter.inverse() for letter in reversed(inner)]
                exponent = -exponent
            inner = inner * exponent
        letters.extend(inner)
    if not toplevel:
        raise ParseError("missing ')'", line, col0 + pos + 1)
    return letters, pos
