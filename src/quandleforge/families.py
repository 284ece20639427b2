"""Built-in graph families and closed-form component oracles.

Two kinds of families live here.  The twist families Gkmn and Gkm are
generated from parameters: G(k,m,n) is the graph with a block of k
half-twists between two strands, closed off by a strut on each side, the
left strut labeled m and the right one labeled n (negative k means
left-handed twists); G(k,m) is the one-strut reduction.  The exceptional
graphs (theta graph, knotted theta, the handcuff variants, planar and
knotted K4) ship as reviewed presentation files under ``data/``, guarded
by checksums, and validated by reproducing the known quandle sizes.

For G(k,m,n) this module also builds explicit models of the components
containing the a and d generators, straight from the index formulas: the
a-component is a k x m x n grid with wrap rules at the p boundary, the
d-component a 2k x m grid.  These are independent of the enumeration
engine and serve as its correctness oracle via canonical codes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .engine import canonical_code_of_actions
from .presentation import Presentation, UniversalRelation, parse_presentation
from .words import GeneratorSymbol, ParseError, parse_word

_DATA_FILES = {
    "theta3": "presentations/theta3.txt",
    "KT": "presentations/kt.txt",
    "H1": "presentations/h1.txt",
    "H2": "presentations/h2.txt",
    "DH": "presentations/dh.txt",
    "K4planar": "presentations/k4planar.txt",
    "K4knot": "presentations/k4knot.txt",
}

# the parameters each twist family reads; the other families read none
_TWIST_PARAMS = {"Gkmn": "kmn", "Gkm": "km"}

FAMILY_NAMES = (*_DATA_FILES, *_TWIST_PARAMS)

GENERATOR_ORDER = "abcdef"


@dataclass(frozen=True)
class FamilyParams:
    """Selector for one of the built-in families.

    k is the twist count (Gkmn/Gkm only; nonzero, negative for
    left-handed twists), m and n the strut labels.  ``labels`` overrides
    the edge labeling; for Gkmn it must be (2, 2, m, n, 2, 2) and for Gkm
    (2, 2, m), which are therefore usually left implicit.
    """

    family: str
    k: int | None = None
    m: int | None = None
    n: int | None = None
    labels: tuple[int, ...] | None = None


def gkmn_size(k: int, m: int, n: int) -> int:
    """Size of the N-quandle of G(k,m,n) with N = (2,2,m,n,2,2)."""
    if k < 1 or m < 1 or n < 1:
        raise ValueError("gkmn_size requires k, m, n >= 1")
    return 4 * k * m * n + 2 * k * m + 2 * k * n


def gkm_size(k: int, m: int) -> int:
    """Size of the N-quandle of G(k,m) with N = (2,2,m)."""
    if k < 1 or m < 1:
        raise ValueError("gkm_size requires k, m >= 1")
    return 2 * k * m + 2 * k


def _read_data_text(filename: str) -> str:
    node = resources.files("quandleforge").joinpath("data")
    for part in filename.split("/"):
        node = node.joinpath(part)
    return node.read_text(encoding="utf-8")


def _checksums() -> dict[str, str]:
    return json.loads(_read_data_text("checksums.json"))


def _load_checked(filename: str) -> str:
    text = _read_data_text(filename)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    expected = _checksums().get(filename)
    if digest != expected:
        raise ValueError(f"data file {filename} checksum mismatch: {digest} != {expected}")
    return text


def load_family_text(family: str) -> str:
    """Raw text of a shipped exceptional-family presentation file."""
    return _load_checked(_DATA_FILES[family])


def load_diagram_text(name: str) -> str:
    """Raw text of a shipped diagram file (theta3, kt, h1, h2, dh,
    k4planar, k4knot, unknot, hopf)."""
    return _load_checked(f"diagrams/{name}.txt")


def table1_rows() -> list[dict]:
    """The regression manifest: family, labels and expected size of each row."""
    return json.loads(_load_checked("table1.json"))["rows"]


def _twist_presentation(params: FamilyParams) -> Presentation:
    """The Gkmn or Gkm presentation, one generator per edge.

    Gkm is Gkmn with n = 1 and the d, e, f components deleted: deleting
    the strut labeled 1 makes d act trivially and folds e onto a and f
    onto b, leaving the two left-vertex relations on a, b, c.
    """
    family, k, m, n = params.family, params.k, params.m, params.n
    if family == "Gkmn":
        if k is None or m is None or n is None:
            raise ValueError("Gkmn requires --k, --m and --n")
        names, shape, labels = GENERATOR_ORDER, "(2,2,m,n,2,2)", (2, 2, m, n, 2, 2)
        words = ["d e a", "b d f", f"c (a b)^{k} a e", f"f c (a b)^{k - 1} a"]
    else:
        if k is None or m is None:
            raise ValueError("Gkm requires --k and --m")
        names, shape, labels = "abc", "(2,2,m)", (2, 2, m)
        words = [f"c (a b)^{k}", f"b c (a b)^{k - 1} a"]
    if k == 0:
        raise ValueError(f"{family} requires a nonzero twist count k")
    if params.labels is not None and tuple(params.labels) != labels:
        raise ValueError(f"{family} labels are fixed to {shape} = {labels}")
    gens = [GeneratorSymbol(i, name) for i, name in enumerate(names)]
    symbols = {g.name: g for g in gens}
    universals = [UniversalRelation(parse_word(text, symbols)) for text in words]
    return Presentation(gens, {g: i + 1 for i, g in enumerate(gens)}, labels, universals=universals)


def family_presentation(params: FamilyParams) -> Presentation:
    """Presentation of any built-in family, labels applied if overridden."""
    family = params.family
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}; choose one of {', '.join(FAMILY_NAMES)}")
    for name in "kmn":
        if getattr(params, name) is not None and name not in _TWIST_PARAMS.get(family, ""):
            raise ValueError(f"{family} takes no --{name}")
    if family in _TWIST_PARAMS:
        return _twist_presentation(params)
    try:
        pres = parse_presentation(load_family_text(family))
    except ParseError as exc:
        raise ValueError(f"shipped presentation for {family} failed to parse: {exc}") from exc
    return pres if params.labels is None else pres.with_labels(params.labels)


@dataclass
class ExplicitComponent:
    """A component model given by index tuples and explicit permutations."""

    kind: str
    elements: tuple
    actions: dict[str, np.ndarray]
    base: int

    @property
    def size(self) -> int:
        return len(self.elements)

    def canonical_code(self) -> str:
        ordered = [self.actions[name] for name in GENERATOR_ORDER]
        return canonical_code_of_actions(ordered, self.base, list(GENERATOR_ORDER))


def build_explicit_Qa(k: int, m: int, n: int) -> ExplicitComponent:
    """The a-component of G(k,m,n): elements x_(p,q,r) on a k x m x n grid.

    c and d step the q and r coordinates; a, b, e, f move between layers,
    negating q and r, with e and f additionally stepping r.  Layer
    overflow resolves by the boundary identifications: p = -1 folds onto
    p = 0, and p = k folds onto p = k-1 with (q,r) shifted by +1 for even
    k and -1 for odd k.
    """
    if k < 1 or m < 1 or n < 1:
        raise ValueError("build_explicit_Qa requires k, m, n >= 1")
    elements = [(p, q, r) for p in range(k) for q in range(m) for r in range(n)]
    index = {x: i for i, x in enumerate(elements)}

    def norm(p, q, r):
        if p == -1:
            p = 0
        elif p == k:
            if k % 2 == 0:
                p, q, r = k - 1, q + 1, r + 1
            else:
                p, q, r = k - 1, q - 1, r - 1
        return (p, q % m, r % n)

    def act_a(p, q, r):
        return norm(p - 1 if p % 2 == 0 else p + 1, -q, -r)

    def act_b(p, q, r):
        return norm(p + 1 if p % 2 == 0 else p - 1, -q, -r)

    def act_c(p, q, r):
        return norm(p, q + 1, r)

    def act_d(p, q, r):
        return norm(p, q, r + 1)

    def act_e(p, q, r):
        return act_d(*act_a(p, q, r))

    def act_f(p, q, r):
        return act_d(*act_b(p, q, r))

    raw = {"a": act_a, "b": act_b, "c": act_c, "d": act_d, "e": act_e, "f": act_f}
    actions = {
        name: np.array([index[fn(*x)] for x in elements], dtype=np.int64)
        for name, fn in raw.items()
    }
    return ExplicitComponent("Qa", tuple(elements), actions, index[(0, 0, 0)])


def build_explicit_Qd(k: int, m: int) -> ExplicitComponent:
    """The d-component of G(k,m,n): elements y_(p,q) on a 2k x m grid.

    d fixes every element, c steps q, and a, b (with e = a, f = b) step p
    by one while negating q.  p wraps modulo 2k with a q shift given by
    the displayed wrap rule: landing on p = 2k folds to (0, q-1), landing
    on p = -1 folds to (2k-1, q-1).
    """
    if k < 1 or m < 1:
        raise ValueError("build_explicit_Qd requires k, m >= 1")
    elements = [(p, q) for p in range(2 * k) for q in range(m)]
    index = {x: i for i, x in enumerate(elements)}

    def norm(p, q):
        if p == 2 * k:
            p, q = 0, q - 1
        elif p == -1:
            p, q = 2 * k - 1, q - 1
        return (p, q % m)

    def act_a(p, q):
        return norm(p + 1 if p % 2 == 0 else p - 1, -q)

    def act_b(p, q):
        return norm(p - 1 if p % 2 == 0 else p + 1, -q)

    def act_c(p, q):
        return norm(p, q + 1)

    def act_d(p, q):
        return (p, q)

    raw = {"a": act_a, "b": act_b, "c": act_c, "d": act_d, "e": act_a, "f": act_b}
    actions = {
        name: np.array([index[fn(*x)] for x in elements], dtype=np.int64)
        for name, fn in raw.items()
    }
    return ExplicitComponent("Qd", tuple(elements), actions, index[(0, 0)])
