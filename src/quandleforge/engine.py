"""Trace-and-collapse enumeration of N-quandle Cayley graphs.

Given an expanded presentation, the engine builds the Cayley graph of the
quandle: one vertex per element, and for each generator g a bijection
sending x to x acted on by g.  The construction follows Winker's method:

1. start with one vertex per generator,
2. add a g-labeled loop at the vertex of g (idempotence),
3. trace each primary relation x_j^w = x_k as a path from the vertex of
   x_j forced to end at the vertex of x_k, collapsing fully after each
   relation.  Tracing is an HLT scan: it follows defined edges forward
   from the start and backward from the end, creates vertices only for
   the undefined gap between the two scans, and closes the gap's last
   letter onto the backward end with a new edge or a coincidence,
4. collapsing identifies same-labeled edges into or out of a shared
   vertex, cascading until every action is single-valued,
5. sweep the vertices once in creation order, tracing every universal
   relation by the same scan as a closed loop at each live vertex
   (collapsing after each trace).

One pass suffices.  A universal loop closed at a vertex stays closed in
every quotient, since merging maps paths to paths, so re-tracing a
vertex after later edges or merges can never change anything.  And
liveness only goes from live to dead, so every vertex still live at the
end was live when the sweep pointer passed it, and had every universal
loop closed at it then.  Enumeration finishes when the sweep pointer
passes the last vertex; it aborts with a limit-exceeded report when the
vertex or step budget runs out, which is the only possible outcome for
an infinite quandle.

A completed graph is finalized once into a read-only :class:`Quandle`
(dense arrays over elements), which every analysis function here takes.

Everything is deterministic: identical inputs give identical numberings.
Coincidence processing keeps the lower-numbered vertex as representative.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .presentation import Presentation
from .words import GroupWord


DEFAULT_MAX_VERTICES = 1_000_000
DEFAULT_MAX_STEPS = 1_000_000_000
INT32_MAX = 2**31 - 1  # the largest vertex budget: vertex ids are stored as int32


@dataclass(frozen=True)
class EnumerationLimits:
    """Budget for a single enumeration; both counts must be positive.

    Vertex ids are stored as int32, so ``max_vertices`` is at most
    2**31 - 1.
    """

    max_vertices: int = DEFAULT_MAX_VERTICES
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.max_vertices < 1 or self.max_steps < 1:
            raise ValueError("enumeration limits must be positive")
        if self.max_vertices > INT32_MAX:
            raise ValueError(
                f"max_vertices {self.max_vertices} exceeds the int32 vertex id limit {INT32_MAX}"
            )


@dataclass
class EnumerationStats:
    vertices_created: int = 0
    merges: int = 0
    relations_traced: int = 0
    steps: int = 0
    live: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class EnumerationResult:
    """Outcome of an enumeration: 'completed' with the finished quandle in
    ``graph``, or 'limit-exceeded' with ``graph`` None."""

    outcome: str
    graph: "Quandle | None"
    stats: EnumerationStats

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"


class _LimitHit(Exception):
    pass


class Quandle(NamedTuple):
    """A finished N-quandle: the live part of a completed Cayley graph as
    read-only dense arrays.

    Elements are numbered 0..n-1 in the creation order of their vertices;
    vertex ids never leave the enumerator.  Row g of ``actions`` /
    ``inverses`` is generator g's forward / backward action on elements,
    -1 where undefined (never, once enumeration completed);
    ``basepoint[g]`` is the element of generator g.  All three are int64
    arrays marked read-only.
    """

    pres: Presentation
    actions: np.ndarray
    inverses: np.ndarray
    basepoint: np.ndarray

    @property
    def gens(self):
        return self.pres.generators

    def follow(self, word, start):
        """The element(s) reached from ``start`` (an element or an array of
        elements) along a word of generator letters."""
        cur = start
        for letter in word:
            cur = (self.actions if letter.sign > 0 else self.inverses)[letter.gen.id][cur]
        return cur


class CayleyGraph:
    """The mutable, possibly partial Cayley graph that enumeration grows.

    :meth:`trace` scans a word (given as :meth:`letters`) from a vertex
    to a goal, forward and backward, creating vertices and edges only for
    the undefined gap between the scans and returning coincidences;
    :meth:`collapse` merges them; :meth:`run` applies both to the
    presentation's relations until the graph is complete or a limit is
    hit, and :meth:`finalize` then turns it into a read-only
    :class:`Quandle`, on which all analysis runs.

    Per generator, ``fwd`` and ``bwd`` hold a partial bijection on
    vertices and its inverse, kept mutually consistent; -1 marks an
    undefined image.  ``parent`` is the union-find structure and the only
    record of liveness: a vertex v is live while ``parent[v] == v``, and a
    merged vertex stays in the tables, pointing towards its
    representative, so stored vertex ids must be resolved through
    :meth:`find` when read.  Each merge kills exactly one vertex, so
    ``size - stats.merges`` vertices are live.  ``basepoint[g]`` is the
    vertex created for generator g.  In a completed graph every action
    is total on live vertices and the vertex of each generator carries a
    loop under that generator.

    Storage is indexed by vertex id: ``fwd[g]`` and ``bwd[g]`` are
    ``array("i")`` int32 tables and ``parent`` is a list.  They are
    grown in place together, by an eighth of their capacity and at least
    1024 slots, when a vertex is created at capacity, so each stays the
    same object for the graph's whole life; slots past ``size`` (the
    number of vertices created) hold -1.  A created vertex costs about
    8 g + 38 bytes for g generators whether or not it is still live, and
    ``limits.max_vertices`` bounds created vertices, not live ones.
    """

    def __init__(self, pres: Presentation, limits: EnumerationLimits):
        self.pres = pres
        self.limits = limits
        ngens = len(pres.generators)
        self.fwd: list[array] = [array("i") for _ in range(ngens)]
        self.bwd: list[array] = [array("i") for _ in range(ngens)]
        self.tables = self.fwd + self.bwd
        self.parent: list[int] = []
        self.size = 0
        self.stats = EnumerationStats()
        self.basepoint: list[int] = [self.add_vertex() for _ in range(ngens)]
        for g in range(ngens):
            v = self.basepoint[g]
            self.fwd[g][v] = v
            self.bwd[g][v] = v

    # -- vertex bookkeeping -------------------------------------------------

    def _grow(self) -> None:
        chunk = max(len(self.parent) // 8, 1024)
        undefined = array("i", [-1]) * chunk
        for table in self.tables:
            table.extend(undefined)
        self.parent.extend(repeat(-1, chunk))

    def add_vertex(self) -> int:
        v = self.size
        if v >= self.limits.max_vertices:
            raise _LimitHit
        if v == len(self.parent):
            self._grow()
        self.parent[v] = v
        self.size = v + 1
        self.stats.vertices_created += 1
        return v

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    # -- tracing and collapsing ---------------------------------------------

    def letters(self, word: GroupWord) -> list[tuple[array, array]]:
        """The (out table, in table) pair of each letter, as :meth:`trace` takes them."""
        return [
            (self.fwd[letter.gen.id], self.bwd[letter.gen.id]) if letter.sign > 0
            else (self.bwd[letter.gen.id], self.fwd[letter.gen.id])
            for letter in word
        ]

    def trace(self, start: int, letters, target: int | None = None) -> list[tuple[int, int]]:
        """Scan a word from ``start`` to ``target``, filling in the gap.

        ``letters`` holds one (out table, in table) pair per letter of a
        freely reduced word: ``(fwd[g], bwd[g])`` for a generator g and
        ``(bwd[g], fwd[g])`` for its inverse.  The path must end at
        ``target`` (``start`` itself when ``target`` is None, i.e. a
        universal relation traced as a closed loop).  The scan follows
        defined edges forward from ``start`` and then backward from the
        goal, stopping one letter after the forward position at most; new
        vertices are created only for the letters strictly inside the
        gap between the two, and the last gap letter is closed onto the
        backward end by a new edge or a coincidence.  Returns the
        coincidences discovered; no merging happens here.

        Each letter costs one step.  A trace that would take the step
        count past ``limits.max_steps`` is not started: the count is set
        to ``max_steps + 1`` and the limit is hit.
        """
        parent = self.parent
        find = self.find
        stats = self.stats
        steps = stats.steps + len(letters)
        if steps > self.limits.max_steps:
            stats.steps = self.limits.max_steps + 1
            raise _LimitHit
        stats.steps = steps
        cur = start if parent[start] == start else find(start)
        if target is None:
            goal = cur
        else:
            goal = target if parent[target] == target else find(target)
        for i, (out_table, _) in enumerate(letters):
            nxt = out_table[cur]
            if nxt < 0:
                break
            cur = nxt if parent[nxt] == nxt else find(nxt)
        else:
            return [] if cur == goal else [(cur, goal)]
        # letters[i] is undefined at cur; scan back from the goal down to
        # letters[i + 1] at most, leaving end where letters[last] must land
        last = len(letters) - 1
        end = goal
        while last > i:
            prev = letters[last][1][end]
            if prev < 0:
                break
            end = prev if parent[prev] == prev else find(prev)
            last -= 1
        for out_table, in_table in letters[i:last]:
            new = self.add_vertex()
            out_table[cur] = new
            in_table[new] = cur
            cur = new
        out_table, in_table = letters[last]
        back = in_table[end]
        if back >= 0:
            # out_table[cur] is undefined, so back is another vertex
            return [(back, cur)]
        out_table[cur] = end
        in_table[end] = cur
        return []

    def collapse(self, queue: list[tuple[int, int]]) -> None:
        """Process coincidences to exhaustion, consuming ``queue``.

        Merging keeps the lower-numbered representative and reconciles
        each generator's in/out edges, queueing new coincidences whenever
        both vertices carried distinct images.  Afterwards no live vertex
        has two same-labeled edges in or out.
        """
        parent = self.parent
        find = self.find
        tables = self.tables
        max_steps = self.limits.max_steps
        steps, merges = self.stats.steps, self.stats.merges
        try:
            while queue:
                u, v = queue.pop()
                ru = u if parent[u] == u else find(u)
                rv = v if parent[v] == v else find(v)
                if ru == rv:
                    continue
                if rv < ru:
                    ru, rv = rv, ru
                steps += 1
                if steps > max_steps:
                    raise _LimitHit
                parent[rv] = ru
                merges += 1
                for table in tables:
                    tv = table[rv]
                    if tv < 0:
                        continue
                    tu = table[ru]
                    if tu < 0:
                        table[ru] = tv
                    elif (tu if parent[tu] == tu else find(tu)) != (
                        tv if parent[tv] == tv else find(tv)
                    ):
                        queue.append((tu, tv))
        finally:
            self.stats.steps, self.stats.merges = steps, merges

    # -- the enumeration and its result -------------------------------------

    def run(self) -> bool:
        """Run Winker's method on the presentation; True once the graph is
        complete, False when a limit was hit.  Either way ``stats.live``
        is set to the number of live vertices."""
        pres, stats = self.pres, self.stats
        universals = [self.letters(rel.word) for rel in pres.universals]
        try:
            for rel in pres.primaries:
                start = self.basepoint[rel.lhs_base.id]
                target = self.basepoint[rel.rhs.id]
                pending = self.trace(start, self.letters(rel.word), target)
                if pending:
                    self.collapse(pending)
                stats.relations_traced += 1

            parent = self.parent
            v = 0
            while v < self.size:  # the sweep creates vertices as it goes
                if parent[v] == v:
                    cur = v
                    for letters in universals:
                        pending = self.trace(cur, letters)
                        if pending:
                            self.collapse(pending)
                            cur = self.find(cur)
                        stats.relations_traced += 1
                v += 1
        except _LimitHit:
            return False
        finally:
            stats.live = self.size - stats.merges
        return True

    def finalize(self) -> Quandle:
        """The live part of the graph as a read-only :class:`Quandle`.

        Only the live rows of the action tables are read.  Their vertex
        ids are resolved to representatives all at once, by following
        ``parent`` as one int32 array, so the cost is O(g n) plus one copy
        of ``parent``.  Live vertices are numbered in creation order;
        undefined images stay -1.
        """
        parent = np.fromiter(self.parent, dtype=np.int32, count=self.size)
        order = np.flatnonzero(parent == np.arange(self.size, dtype=np.int32))

        def element(ids):
            while True:
                up = parent[ids]
                if np.array_equal(up, ids):
                    return np.searchsorted(order, ids)
                ids = up

        def resolve(tables):
            raw = np.empty((len(tables), len(order)), dtype=np.int32)
            for table, row in zip(tables, raw):
                np.take(np.frombuffer(table, dtype=np.int32), order, out=row)
            return np.where(raw >= 0, element(raw), -1)

        arrays = (
            resolve(self.fwd), resolve(self.bwd),
            element(np.asarray(self.basepoint, dtype=np.int64)),
        )
        for a in arrays:
            a.flags.writeable = False
        return Quandle(self.pres, *arrays)


def enumerate_quandle(pres: Presentation, limits: EnumerationLimits | None = None) -> EnumerationResult:
    """Run Winker's method on an expanded presentation.

    The presentation must already carry its secondary and power relations
    (see :func:`quandleforge.presentation.expand_relations`).  Returns the
    finished :class:`Quandle`, or a limit-exceeded report with partial
    statistics; hitting a limit is a report, not an error.
    """
    graph = CayleyGraph(pres, limits or EnumerationLimits())
    if not graph.run():
        return EnumerationResult("limit-exceeded", None, graph.stats)
    quandle = graph.finalize()
    if (quandle.actions < 0).any() or (quandle.inverses < 0).any():
        raise ValueError(
            "completed enumeration left a partial action: the presentation lacks "
            "power relations; pass it through expand_relations first"
        )
    # cheap end-to-end re-check of the primaries, catching trace bugs early
    bases = quandle.basepoint
    for rel in pres.primaries:
        if quandle.follow(rel.word, bases[rel.lhs_base.id]) != bases[rel.rhs.id]:
            raise RuntimeError(f"primary relation {rel} broken")
    return EnumerationResult("completed", quandle, graph.stats)


def _flatten(parent: np.ndarray) -> np.ndarray:
    """Resolve an array forest to its roots by pointer jumping."""
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            return parent
        parent = jumped


def _orbit_roots(actions: np.ndarray) -> np.ndarray:
    """The orbit of every element under the actions, named by its smallest element.

    Each round hooks the larger root of every edge that joins two trees
    onto the smaller one, then flattens the trees; every pointer goes to
    a smaller element, so a tree's root is its smallest member.
    """
    n = actions.shape[1]
    defined = actions >= 0
    src = np.broadcast_to(np.arange(n), actions.shape)[defined]
    dst = actions[defined]
    root = np.arange(n)
    while True:
        a, b = root[src], root[dst]
        split = a != b
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        root = _flatten(root)


def _orbits(quandle: Quandle) -> tuple[np.ndarray, dict[int, int]]:
    """Orbit roots per element, and the component size of each graph edge."""
    root = _orbit_roots(quandle.actions)
    sizes = np.bincount(root, minlength=len(root))
    edge_sizes: dict[int, int] = {}
    for gen in quandle.gens:
        edge = quandle.pres.edge_of[gen]
        size = int(sizes[root[quandle.basepoint[gen.id]]])
        if edge in edge_sizes and edge_sizes[edge] != size:
            raise ValueError(f"edge {edge} maps to components of different sizes")
        edge_sizes[edge] = size
    return root, edge_sizes


def components(quandle: Quandle):
    """Orbits of the elements under all generator actions.

    Returns ``(orbits, edge_sizes)`` where orbits is a list of lists of
    element indices (each sorted, ordered by smallest member) and
    edge_sizes maps each graph edge index to the size of the component
    containing that edge's generators.
    """
    root, edge_sizes = _orbits(quandle)
    by_orbit = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[by_orbit])) + 1
    orbits = [part.tolist() for part in np.split(by_orbit, cuts)]
    return orbits, edge_sizes


def _symmetry_rows(quandle: Quandle) -> np.ndarray:
    """Row x holds the point symmetry of element x, as a permutation.

    Element x reached as basepoint(b) acted by w has the point symmetry
    conjugate to that of b; rows are filled along a breadth-first search
    seeded at the basepoints in generator order.  The n x n array is
    allocated before any row is filled.
    """
    n = quandle.actions.shape[1]
    rows = np.empty((n, n), dtype=np.int64)
    filled = [False] * n
    queue: list[int] = []
    for g, b in enumerate(quandle.basepoint.tolist()):
        if not filled[b]:
            rows[b] = quandle.actions[g]
            filled[b] = True
            queue.append(b)
    steps = [
        (fwd, bwd, fwd.tolist(), bwd.tolist())
        for fwd, bwd in zip(quandle.actions, quandle.inverses)
    ]
    for p in queue:  # the queue grows while it is read
        for fwd, bwd, fwd_list, bwd_list in steps:
            # S_(p acted by g) = A_g o S_p o A_g^(-1), and likewise for g^(-1)
            for child, outer, inner in ((fwd_list[p], fwd, bwd), (bwd_list[p], bwd, fwd)):
                if not filled[child]:
                    np.take(outer, rows[p][inner], out=rows[child])
                    filled[child] = True
                    queue.append(child)
    if not all(filled):
        raise ValueError("graph has elements unreachable from every basepoint")
    return rows


def quandle_table(quandle: Quandle) -> np.ndarray:
    """The full binary operation table T[y][x] = y acted on by x.

    Rows and columns are indexed by dense element index (live vertices in
    creation order).  The column of element x is its point symmetry; the
    result is the transposed view of an array holding those symmetries as
    contiguous rows.
    """
    return _symmetry_rows(quandle).T


# Entries per row block in the n x n table checks; this bounds each
# temporary they make, whatever n is.
_BLOCK_ENTRIES = 1 << 20
# Up to this many elements, verify also checks the axioms on all pairs and
# triples of the operation table directly.
_FULL_AXIOM_LIMIT = 400


def _row_blocks(n: int):
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _rows_are_permutations(rows: np.ndarray) -> bool:
    """Whether every row of a square array is a permutation of 0..n-1."""
    identity = np.arange(rows.shape[1])
    return all(
        (np.sort(rows[block], axis=1) == identity).all() for block in _row_blocks(len(rows))
    )


def _preserves_table(rows: np.ndarray, u: np.ndarray) -> bool:
    """Whether the permutation ``u`` is an automorphism of the operation
    whose point symmetries are ``rows``: u(S_x(y)) = S_u(x)(u(y)) for all x, y."""
    for block in _row_blocks(len(rows)):
        image = rows[u[block]]
        # row by row: numpy gathers within a 1-D row several times faster
        # than along the last axis of a 2-D block
        for row in image:
            row[:] = row[u]
        if not np.array_equal(np.take(u, rows[block]), image):
            return False
    return True


def verify(quandle: Quandle, pres: Presentation) -> list[str]:
    """Check a finished quandle against the quandle axioms and relations.

    Always verified: actions are total mutually inverse bijections, the
    three axioms (self-distributivity via the point symmetries of the
    generators, which conjugate to those of all elements), every primary
    relation path, every universal relation loop at every element, and
    the order of the point symmetry of every element of each component.
    Up to ``_FULL_AXIOM_LIMIT`` (400) elements, the axioms are additionally
    checked on all pairs/triples of the operation table directly.
    Returns a list of violations; empty means verified.

    Memory: the axiom checks hold one n x n int64 operation table, 8 n^2
    bytes (71 MB at 2976 elements, 2.16 GiB at 17040), and check it in
    row blocks of about 2^20 entries; everything else is O(g n) for g
    generators.  A table that cannot be allocated raises MemoryError.
    """
    violations: list[str] = []
    actions, inverses = quandle.actions, quandle.inverses
    bases, gens = quandle.basepoint, quandle.gens
    n = actions.shape[1]
    identity = np.arange(n)

    for g, gen in enumerate(gens):
        partial = (actions[g] < 0) | (inverses[g] < 0)
        back = inverses[g][np.where(partial, 0, actions[g])]
        for i in np.flatnonzero(partial | (back != identity)).tolist():
            if partial[i]:
                violations.append(f"action of {gen.name} partial at element {i}")
            else:
                violations.append(f"fwd/bwd inconsistent for {gen.name} at element {i}")
    if violations:
        return violations

    for g, gen in enumerate(gens):
        if not np.array_equal(np.sort(actions[g]), identity):
            violations.append(f"action of {gen.name} is not a bijection")
        b = bases[g]
        if actions[g][b] != b:
            violations.append(f"axiom A1 fails: no loop at the vertex of {gen.name}")

    for rel in pres.primaries:
        if quandle.follow(rel.word, bases[rel.lhs_base.id]) != bases[rel.rhs.id]:
            violations.append(f"primary relation {rel} does not hold")

    for rel in pres.universals:
        open_at = np.flatnonzero(quandle.follow(rel.word, identity) != identity)
        if open_at.size:
            violations.append(f"universal relation {rel} open at element {open_at[0]}")

    root, _ = _orbits(quandle)
    orbit_label: dict[int, int] = {}
    for g, gen in enumerate(gens):
        want = pres.label_of(gen)
        if orbit_label.setdefault(int(root[bases[g]]), want) != want:
            violations.append(f"component of {gen.name} carries conflicting labels")

    for g, gen in enumerate(gens):
        power = identity
        for _ in range(pres.label_of(gen)):
            power = actions[g][power]
        if not np.array_equal(power, identity):
            violations.append(
                f"point symmetry of {gen.name} does not have order dividing {pres.label_of(gen)}"
            )

    rows = _symmetry_rows(quandle)  # rows[x] is column x of the table
    for g, gen in enumerate(gens):
        if not np.array_equal(rows[bases[g]], actions[g]):
            violations.append(f"table column of {gen.name} differs from its stored action")

    if not np.array_equal(np.diagonal(rows), identity):
        violations.append("axiom A1 fails on the operation table")
    if not _rows_are_permutations(rows):
        violations.append("axiom A2 fails: some column is not a bijection")

    # A3 for all triples reduces to every generator's point symmetry being
    # a homomorphism: every element's symmetry is a conjugate of one of
    # these, and conjugates/composites of automorphisms are automorphisms.
    for g, gen in enumerate(gens):
        if not _preserves_table(rows, actions[g]):
            violations.append(f"axiom A3 fails under the point symmetry of {gen.name}")

    if n <= _FULL_AXIOM_LIMIT:
        for z in range(n):
            if not _preserves_table(rows, rows[z]):
                violations.append(f"axiom A3 fails at element {z}")
                break
        label_of_orbit = {}
        for g, gen in enumerate(gens):
            label_of_orbit[int(root[bases[g]])] = pres.label_of(gen)
        for i in range(n):
            label = label_of_orbit.get(int(root[i]))
            if label is None:
                continue
            power = identity
            for _ in range(label):
                power = rows[i][power]
            if not np.array_equal(power, identity):
                violations.append(f"element {i} violates the order of its component label")
                break

    return violations


def canonical_code_of_actions(actions, base: int, names=None) -> str:
    """Canonical string of a based graph with total generator actions.

    Breadth-first relabeling from ``base``, following generators in a
    fixed order (each forward then backward), restricted to the reachable
    part.  Two based, generator-labeled graphs are isomorphic iff their
    codes are equal.
    """
    arrays = [np.asarray(a) for a in actions]
    inverses = [np.argsort(a) for a in arrays]
    relabel = {base: 0}
    order = [base]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for g in range(len(arrays)):
            for table in (arrays[g], inverses[g]):
                w = int(table[v])
                if w not in relabel:
                    relabel[w] = len(order)
                    order.append(w)
    parts = []
    for g in range(len(arrays)):
        name = names[g] if names else str(g)
        imgs = ",".join(str(relabel[int(arrays[g][v])]) for v in order)
        parts.append(f"{name}:{imgs}")
    return f"n={len(order)};" + ";".join(parts)


def canonical_code(quandle: Quandle, element: int) -> str:
    """Canonical code of the component of an element (a dense index, such
    as ``quandle.basepoint[g]``) of a finished quandle."""
    return canonical_code_of_actions(
        quandle.actions, int(element), [gen.name for gen in quandle.gens]
    )
