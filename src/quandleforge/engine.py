"""Trace-and-collapse enumeration of N-quandle Cayley graphs.

Given a presentation, the engine builds the Cayley graph of the quandle:
one vertex per element, and for each generator g a bijection sending x
to x acted on by g.  A generator labeled 1 or 2 acts as an involution,
so one table serves as both its action and its inverse, and words are
traced reduced in the free product, where such a g is its own inverse.
The construction follows Winker's method:

1. start with one vertex per generator,
2. add a g-labeled loop at the vertex of g (idempotence),
3. trace each primary relation x_j^w = x_k as a path from the vertex of
   x_j forced to end at the vertex of x_k, collapsing fully after each
   relation; a word that reduces to nothing is a coincidence of the two
   vertices.  Tracing is an HLT scan: it follows defined edges forward
   from the start and backward from the end, creates vertices only for
   the undefined gap between the two scans, all of them in one block,
   and closes the gap's last letter onto the backward end with a new
   edge or a coincidence,
4. collapsing identifies same-labeled edges into or out of a shared
   vertex, cascading until every action is single-valued; a merged
   vertex's edges move onto its representative as it dies, so the rows
   of live vertices never name a dead one,
5. sweep the vertices once in creation order, tracing every universal
   relation of ``loop_words(pres)`` (the presentation's own, the
   conjugate of each primary and the power relation g^n of each
   generator at its current label) by the same scan as a closed loop at
   each live vertex (collapsing after each trace).  The power loop g g
   of an involutory g, whose letters reduce to nothing, is the sweep's
   own, since it defines g's one table T: it costs two steps and one
   relation traced at every vertex, closed or not, and T is an
   involution on live rows, so where T[v] < 0 it is open at v and one
   new vertex u closes it, with T[v] = u and T[u] = v.  Any other
   universal that reduces to nothing traces as the empty loop.

One pass suffices.  A universal loop closed at a vertex stays closed in
every quotient, since merging maps paths to paths, so re-tracing a
vertex after later edges or merges can never change anything.  And
liveness only goes from live to dead, so every vertex still live at the
end was live when the sweep pointer passed it, and had every universal
loop closed at it then.  Enumeration finishes when the sweep pointer
passes the last vertex; it stops with a limit-exceeded report when a
budget runs out, which is the only possible outcome for an infinite
quandle.

The enumerator holds rows in proportion to its live vertices: whenever
dead rows outnumber live ones at a sweep boundary, it compacts, renumbering
the live vertices in creation order.  Finalizing a completed graph is the
last compaction, after which vertex ids are element indices; it copies the
tables once into a read-only :class:`Quandle` (dense arrays over
elements), which every analysis function here takes.

The stop rule.  The run does its work in units: the basepoints of step
1, each primary relation with its collapse, and each live sweep vertex's
loops with their collapses.  After each unit, and only there, it checks
``steps > max_steps or vertices_created > max_vertices``, and it stops at
the first check that holds.  A stopped run reports its true counts, which
pass a budget by at most the work of that one unit; a budget equal to a
count does not stop the run.

Everything is deterministic: identical inputs give identical numberings.
Coincidence processing keeps the lower-numbered vertex as representative.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .presentation import Presentation, loop_words
from .words import GroupWord


DEFAULT_MAX_VERTICES = 1_000_000
DEFAULT_MAX_STEPS = 1_000_000_000
INT32_MAX = 2**31 - 1  # the largest vertex budget: vertex ids are stored as int32
# The fewest rows the tables grow by, and the fewest dead rows worth compacting.
_CHUNK = 1024


@dataclass(frozen=True)
class EnumerationLimits:
    """Budget for a single enumeration; both counts must be positive.

    ``max_vertices`` counts created vertices, including those later
    merged away, although compaction drops the rows of dead ones: it
    bounds the work, not the rows held.  Vertex ids are stored as int32,
    so it is at most 2**31 - 1.  Both are checked between units of work,
    by the stop rule of the module docstring.
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
    presentation's relations until the graph is complete or a budget has
    run out, and :meth:`finalize` then turns it into a read-only
    :class:`Quandle`, on which all analysis runs.  Only :meth:`run` reads
    the budgets; everything else just counts, so constructing a graph
    never stops at one.

    Per generator, ``fwd`` and ``bwd`` hold a partial bijection on
    vertices and its inverse; -1 marks an undefined image.  A generator
    labeled 1 or 2 is an involution, and ``fwd[g] is bwd[g]``: one table
    T, in which each write ``T[u] = v`` is also the write ``T[v] = u``.
    ``pairs`` holds ``(fwd[g], bwd[g])`` at g and ``(bwd[g], fwd[g])``
    at ngens + g, and ``distinct`` holds each distinct (table, inverse)
    pair once.  ``parent`` is the union-find structure and the only
    record of liveness: v is live while ``parent[v] == v``.  Outside
    :meth:`collapse`, every entry of a live row is -1 or a live vertex,
    and the two tables of a generator are mutually inverse on live rows,
    so only ids held elsewhere (the basepoints, the sweep's vertex) are
    resolved through :meth:`find`.
    Each merge kills exactly one vertex, so ``stats.vertices_created -
    stats.merges`` vertices are live.  ``basepoint[g]`` is the vertex of
    generator g.  In a completed graph every action is total on live
    vertices and the vertex of each generator carries a loop under it.

    Storage is indexed by vertex id: the tables and ``parent`` are
    ``array("i")`` int32 tables.  They are grown in place together, by an
    eighth of their capacity and at least ``_CHUNK`` (1024) slots, when a
    vertex is created at capacity, and compacted in place, so each stays
    the same object for the graph's whole life.  ``size`` rows are in
    use, live or dead; slots past it hold -1.  A row costs 4 (2 g - i) + 4
    bytes for g generators, i of them labeled 1 or 2, and :meth:`run`
    compacts whenever dead rows outnumber live ones, so the rows held stay
    within about twice the peak live count.  ``limits.max_vertices`` bounds
    created vertices, not live ones or rows held.

    :meth:`run` alone closes an involution's power loop ``g g``, which
    :meth:`letters` reduces to nothing.
    """

    def __init__(self, pres: Presentation, limits: EnumerationLimits):
        self.pres = pres
        self.limits = limits
        ngens = len(pres.generators)
        self.fwd: list[array] = [array("i") for _ in range(ngens)]
        # an involution is its own inverse, so one table serves as both
        self.bwd: list[array] = [
            table if pres.label_of(gen) <= 2 else array("i") for table, gen in zip(self.fwd, pres.generators)
        ]
        self.pairs = list(zip(self.fwd + self.bwd, self.bwd + self.fwd))
        self.distinct = self.pairs[:ngens] + [(b, f) for f, b in zip(self.fwd, self.bwd) if b is not f]
        self.parent = array("i")
        self.size = 0
        self.stats = EnumerationStats()
        self.basepoint: list[int] = [self.add_vertex() for _ in range(ngens)]
        for g in range(ngens):
            v = self.basepoint[g]
            self.fwd[g][v] = v
            self.bwd[g][v] = v

    # -- vertex bookkeeping -------------------------------------------------

    def _grow(self) -> None:
        undefined = array("i", [-1]) * max(len(self.parent) // 8, _CHUNK)
        for table, _ in self.distinct:
            table.extend(undefined)
        self.parent.extend(undefined)

    def add_vertex(self) -> int:
        v = self.size
        if v == len(self.parent):
            self._grow()
        self.parent[v] = v
        self.size = v + 1
        self.stats.vertices_created += 1
        return v

    def find(self, v: int) -> int:
        # each int32 read makes a new int, so each path entry is read once going up
        parent = self.parent
        first = root = parent[v]
        up = parent[root]
        while up != root:
            root, up = up, parent[up]
        if first != root:  # compress the path from v
            while v != root:
                parent[v], v = root, parent[v]
        return root

    def compact(self, position: int) -> int:
        """Drop the rows of dead vertices, renumbering the live ones.

        The k live vertices are renumbered 0..k-1 in creation order.  Live
        rows name only live vertices, so each entry maps straight to its
        new id; only the basepoints are resolved through :meth:`find`.
        ``parent`` becomes the identity on 0..k-1 and the freed slots hold
        -1.  Renumbering keeps the order of live ids, so every later merge
        keeps the same representative as it would have without
        compaction.  Returns the number of live vertices below
        ``position``: the new position of a sweep that was at it.

        Each table is remapped in place through a view that is released
        on return, since an exported buffer keeps an array from growing.
        """
        size = self.size
        parent = np.frombuffer(self.parent, dtype=np.int32, count=size)
        live = np.flatnonzero(parent == np.arange(size, dtype=np.int32))
        k = len(live)
        # new_id[-1] stays -1, so undefined images map to themselves
        new_id = np.full(size + 1, -1, dtype=np.int32)
        new_id[live] = np.arange(k, dtype=np.int32)
        self.basepoint[:] = new_id[[self.find(b) for b in self.basepoint]].tolist()
        for table, _ in self.distinct:
            rows = np.frombuffer(table, dtype=np.int32, count=size)
            rows[:k] = new_id[rows[live]]
            rows[k:] = -1
        parent[:k] = np.arange(k, dtype=np.int32)
        parent[k:] = -1
        self.size = k
        return int(np.searchsorted(live, position))

    # -- tracing and collapsing ---------------------------------------------

    def letters(self, word: GroupWord) -> list[tuple[array, array]]:
        """The (out table, in table) pair of each letter, as :meth:`trace`
        takes them, for the word reduced in the free product.

        Two adjacent letters cancel when the second one's out table is the
        first one's in table.  A ``GroupWord`` is already freely reduced,
        so this cancels ``g g``, ``g g'`` and ``g' g`` for an involutory g
        (label 1 or 2), whose one table is both, and then any pair such a
        cancellation brings together: tracing ``g g`` would overwrite the
        entry its first letter just wrote.  A word that reduces to nothing
        is traced as the empty word.
        """
        ngens = len(self.fwd)
        reduced: list[tuple[array, array]] = []
        for letter in word:
            pair = self.pairs[letter.gen.id if letter.sign > 0 else ngens + letter.gen.id]
            if reduced and reduced[-1][1] is pair[0]:
                reduced.pop()
            else:
                reduced.append(pair)
        return reduced

    def trace(self, start: int, letters, target: int | None = None) -> list[tuple[int, int]]:
        """Scan a word from ``start`` to ``target``, filling in the gap.

        ``letters`` holds one (out table, in table) pair per letter of a
        word reduced in the free product, as :meth:`letters` gives it:
        ``(fwd[g], bwd[g])`` for a generator g and ``(bwd[g], fwd[g])``
        for its inverse, so no letter's out table is the in table of the
        letter before.  The path must end at ``target`` (``start`` itself
        when ``target`` is None, i.e. a universal relation traced as a
        closed loop).  Both must be live: table entries are read without
        :meth:`find`.  The scan follows defined edges forward from
        ``start`` and then backward from the goal, stopping one letter
        after the forward position at most; new vertices are created only
        for the letters strictly inside the gap between the two, and the
        last gap letter is closed onto the backward end by a new edge or a
        coincidence.  Returns the coincidences discovered; no merging
        happens here.

        Each letter costs one step.  The gap's vertices are made in one
        block, in the order and with the ids that making them one by one
        would give them, and each is counted in ``stats.vertices_created``.
        """
        stats = self.stats
        stats.steps += len(letters)
        cur, goal = start, start if target is None else target
        for i, (out_table, _) in enumerate(letters):
            nxt = out_table[cur]
            if nxt < 0:
                break
            cur = nxt
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
            end = prev
            last -= 1
        if last > i:  # create the gap's vertices in one block
            stats.vertices_created += last - i
            parent, size = self.parent, self.size
            self.size = size + last - i
            while self.size > len(parent):
                self._grow()
            for new, (out_table, in_table) in enumerate(letters[i:last], size):
                parent[new] = new
                out_table[cur] = new
                in_table[new] = cur
                cur = new
        out_table, in_table = letters[last]
        back = in_table[end]
        if back >= 0:  # out_table[cur] was undefined, so back is another vertex
            return [(back, cur)]
        out_table[cur] = end
        in_table[end] = cur
        return []

    def collapse(self, queue: list[tuple[int, int]]) -> None:
        """Process coincidences to exhaustion, consuming ``queue``.

        Merging keeps the lower-numbered representative ru and moves each
        edge of the merged vertex rv onto ru, rewriting the one entry that
        points back at rv; where ru already has that edge, or its end has
        that in-edge, the two are queued as a coincidence instead.  Only
        queued ids can be dead, so only they are resolved through
        :meth:`find`.  Afterwards every live row names only live vertices,
        and no live vertex has two same-labeled edges in or out.  Each
        merge costs one step.
        """
        parent = self.parent
        find = self.find
        pairs = self.distinct
        merges = 0
        while queue:
            u, v = queue.pop()
            ru = u if parent[u] == u else find(u)
            rv = v if parent[v] == v else find(v)
            if ru == rv:
                continue
            if rv < ru:
                ru, rv = rv, ru
            parent[rv] = ru
            merges += 1
            for table, inverse in pairs:
                tv = table[rv]
                if tv < 0:
                    continue
                inverse[tv] = -1  # was rv
                if tv == rv:
                    tv = ru
                tu = table[ru]
                if tu >= 0:
                    if tu != tv:
                        queue.append((tu, tv))
                elif inverse[tv] >= 0:
                    queue.append((inverse[tv], ru))
                else:
                    table[ru] = tv
                    inverse[tv] = ru
        self.stats.steps += merges
        self.stats.merges += merges

    # -- the enumeration and its result -------------------------------------

    def run(self) -> bool:
        """Run Winker's method on the presentation; True once the graph is
        complete, False when a budget has run out.  Either way
        ``stats.live`` is set to the number of live vertices.

        This is the one place that reads ``limits``: between the units of
        work of :meth:`_units`, it stops at the first check where a count
        is over its budget (the stop rule of the module docstring)."""
        stats = self.stats
        max_steps, max_vertices = self.limits.max_steps, self.limits.max_vertices
        # any() stops drawing units at the first check that finds a count over
        stopped = any(stats.steps > max_steps or stats.vertices_created > max_vertices for _ in self._units())
        stats.live = stats.vertices_created - stats.merges
        return not stopped

    def _units(self):
        """Winker's method, yielding after each unit of work: the
        basepoints, each primary relation and its collapse, and each live
        sweep vertex's universal relations and their collapses.

        Once a vertex's universal relations are traced, and the run goes
        on, the graph is compacted if at least ``_CHUNK`` rows are dead
        and dead rows outnumber live ones."""
        pres, stats = self.pres, self.stats
        trace, collapse, find = self.trace, self.collapse, self.find
        # each loop's letters, and g's one table T for the power loop g g of an involutory g
        universals = []
        for word in loop_words(pres):
            g = word.letters[0].gen.id
            power = len(word) == 2 and word.letters[0] == word.letters[1] and self.fwd[g] is self.bwd[g]
            universals.append((self.letters(word), self.fwd[g] if power else None))
        yield  # the basepoints, made by the constructor
        for rel in pres.primaries:
            start = find(self.basepoint[rel.lhs_base.id])
            target = find(self.basepoint[rel.rhs.id])
            pending = trace(start, self.letters(rel.word), target)
            if pending:
                collapse(pending)
            stats.relations_traced += 1
            yield

        parent = self.parent
        v = 0
        while v < self.size:  # the sweep creates vertices as it goes
            if parent[v] == v:
                cur = v
                for letters, table in universals:
                    if table is None:
                        pending = trace(cur, letters)
                        if pending:
                            collapse(pending)
                            if parent[cur] != cur:
                                cur = find(cur)
                    else:
                        # the power loop g g: T is an involution on live
                        # rows, so the loop is open at cur where T[cur] < 0
                        stats.steps += 2
                        if table[cur] < 0:
                            table[cur] = u = self.add_vertex()
                            table[u] = cur
                    stats.relations_traced += 1
                yield
                dead = self.size - (stats.vertices_created - stats.merges)
                if dead >= _CHUNK and 2 * dead > self.size:
                    v = self.compact(v + 1)
                    continue
            v += 1

    def finalize(self) -> Quandle:
        """The live part of the graph as a read-only :class:`Quandle`.

        Finalizing is the last :meth:`compact`: afterwards the live
        vertices are numbered 0..n-1 in creation order and vertex ids are
        element indices, so the first n entries of each distinct table are
        copied once as they stand, and a shared table's copy gives both
        its generator's ``actions`` and ``inverses`` rows.  Undefined
        images stay -1.
        """
        n = self.compact(self.size)
        actions = np.empty((len(self.fwd), n), dtype=np.int64)
        inverses = np.empty_like(actions)
        for g, (table, inverse) in enumerate(zip(self.fwd, self.bwd)):
            actions[g] = np.frombuffer(table, dtype=np.int32, count=n)
            inverses[g] = actions[g] if inverse is table else np.frombuffer(inverse, dtype=np.int32, count=n)
        arrays = (actions, inverses, np.array(self.basepoint, dtype=np.int64))
        for a in arrays:
            a.flags.writeable = False
        return Quandle(self.pres, *arrays)


def enumerate_quandle(pres: Presentation, limits: EnumerationLimits | None = None) -> EnumerationResult:
    """Run Winker's method on a presentation as given.

    The sweep traces the loops of ``loop_words(pres)``, derived from the
    labels ``pres`` carries, so the caller need not expand the
    presentation.  Returns the finished :class:`Quandle`, or a
    limit-exceeded report with the counts at the check that stopped the
    run; running out of a budget is a report, not an error.
    """
    graph = CayleyGraph(pres, limits or EnumerationLimits())
    if not graph.run():
        return EnumerationResult("limit-exceeded", None, graph.stats)
    quandle = graph.finalize()
    # the power loop g^n closes at every live vertex, so a completed run is total
    if (quandle.actions < 0).any() or (quandle.inverses < 0).any():
        raise RuntimeError("completed enumeration left a partial action")
    # cheap end-to-end re-check of the primaries, catching trace bugs early
    bases = quandle.basepoint
    for rel in pres.primaries:
        if quandle.follow(rel.word, bases[rel.lhs_base.id]) != bases[rel.rhs.id]:
            raise RuntimeError(f"primary relation {rel} broken")
    return EnumerationResult("completed", quandle, graph.stats)


def _orbits(quandle: Quandle) -> np.ndarray:
    """The orbit of every element under the actions, named by its smallest
    element.

    Each round hooks the larger root of every edge that joins two trees
    onto the smaller one, then flattens the trees by pointer jumping;
    every pointer goes to a smaller element, so a tree's root is its
    smallest member.
    """
    actions = quandle.actions
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
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def components(quandle: Quandle):
    """Orbits of the elements under all generator actions.

    Returns ``(orbits, edge_sizes)`` where orbits is a list of lists of
    element indices (each sorted, ordered by smallest member) and
    edge_sizes maps each graph edge index to the size of the component
    containing that edge's generators.  Raises ValueError when the
    generators of one edge lie in more than one component.
    """
    root = _orbits(quandle)
    sizes = np.bincount(root, minlength=len(root))
    edge_roots: dict[int, int] = {}
    for gen in quandle.pres.generators:
        edge = quandle.pres.edge_of[gen]
        r = int(root[quandle.basepoint[gen.id]])
        if edge_roots.setdefault(edge, r) != r:
            raise ValueError(f"edge {edge} maps to more than one component")
    edge_sizes = {edge: int(sizes[r]) for edge, r in edge_roots.items()}
    by_orbit = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[by_orbit])) + 1
    # an empty quandle splits into one empty part, which is no orbit
    orbits = [part.tolist() for part in np.split(by_orbit, cuts) if part.size]
    return orbits, edge_sizes


def _breadth_first(actions: np.ndarray, inverses: np.ndarray, roots: np.ndarray):
    """Breadth-first search of the graph of generator actions from ``roots``.

    From each element in turn, every generator's forward and then
    backward image is reached: move ``2 g`` follows ``actions[g]`` and
    ``2 g + 1`` follows ``inverses[g]``.  The search runs one level at a
    time; the new elements of a level are the unreached images of the
    level before, in the order of their first appearance, so elements are
    reached in the order a queue would reach them.  Returns ``(order,
    parent, move)``: the elements reached, in that order, and for each
    element x its tree parent p (-1 at a root, -2 if x is not reached)
    and the move from p to x (0 where there is none).
    """
    ngens, n = actions.shape
    moves = np.stack([actions, inverses], axis=1).reshape(2 * ngens, n)
    parent = np.full(n, -2)  # -2: not reached yet
    move = np.zeros(n, dtype=np.int64)
    parent[roots] = -1
    level = roots
    order = [level]
    while level.size:
        images = moves[:, level].T.ravel()  # parent-major, move-minor
        _, at = np.unique(images, return_index=True)
        at = np.sort(at[parent[images[at]] == -2])
        parent[images[at]], move[images[at]] = level[at // len(moves)], at % len(moves)
        level = images[at]
        order.append(level)
    return np.concatenate(order), parent, move


def _schreier_tree(quandle: Quandle) -> tuple[np.ndarray, np.ndarray]:
    """The breadth-first spanning forest of the action graph, from the basepoints.

    The roots are the basepoints in generator order, and the tree is
    :func:`_breadth_first`'s.  Returns ``(parent, move)``: for each
    element x its tree parent p (-1 at a root) and the move from p, ``2 g``
    where x is p acted by g and ``2 g + 1`` where it is p acted by
    g^(-1); at a root, the first generator whose basepoint x is.  Raises
    ValueError unless every element is reached.
    """
    bases, first = np.unique(quandle.basepoint, return_index=True)
    roots = bases[np.argsort(first)]
    order, parent, move = _breadth_first(quandle.actions, quandle.inverses, roots)
    if len(order) < len(parent):
        raise ValueError("graph has elements unreachable from every basepoint")
    move[roots] = np.sort(first)
    return parent, move


def _symmetry_rows(quandle: Quandle, targets: np.ndarray) -> np.ndarray:
    """Row i holds the point symmetry of element ``targets[i]``, as a
    permutation in the narrowest unsigned dtype that holds n - 1.

    Element x reached from p by g has the point symmetry
    S_x = A_g o S_p o A_g^(-1) (likewise for g^(-1)), and a root has its
    generator's action, so each row is built from its parent's along
    :func:`_schreier_tree`.  Only the tree paths to the targets are built,
    each element once and depth first; a row that is not a target is
    dropped when its last child is built, so besides the result at most
    one row per tree level is held.  The result is allocated before any
    row is built.
    """
    parent, move = (a.tolist() for a in _schreier_tree(quandle))
    n = quandle.actions.shape[1]
    dtype = np.min_scalar_type(n - 1)
    # S_x(y) = values[S_p(index[y])] for each move from p to x
    steps = [
        (values.astype(dtype), index)
        for fwd, bwd in zip(quandle.actions, quandle.inverses)
        for values, index in ((fwd, bwd), (bwd, fwd))
    ]
    rows = np.empty((len(targets), n), dtype=dtype)
    slot = {x: i for i, x in enumerate(targets.tolist())}
    children: dict[int, list[int]] = {}  # the targets and their ancestors
    for x in slot:
        while x >= 0 and x not in children:
            children[x] = []
            x = parent[x]
    roots = []
    for x in children:
        (roots if parent[x] < 0 else children[parent[x]]).append(x)
    held: dict[int, np.ndarray] = {}
    stack = roots
    while stack:
        x = stack.pop()
        i = slot.get(x)
        row = np.empty(n, dtype=dtype) if i is None else rows[i]
        p = parent[x]
        if p < 0:
            row[:] = quandle.actions[move[x]]
        else:
            values, index = steps[move[x]]
            # the indices are row entries, so in range; unlike the default
            # "raise", "clip" writes to out without a buffered copy
            values.take(held[p][index], out=row, mode="clip")
            if x == children[p][0]:  # the last child of p to be built
                del held[p]
        if children[x]:
            held[x] = row
            stack += children[x]
    return rows


def quandle_table(quandle: Quandle) -> np.ndarray:
    """The full binary operation table T[y][x] = y acted on by x.

    Rows and columns are indexed by dense element index (live vertices in
    creation order), in the narrowest unsigned dtype that holds n - 1.
    The column of element x is its point symmetry; the result is the
    transposed view of an array holding those symmetries as contiguous
    rows.
    """
    return _symmetry_rows(quandle, np.arange(quandle.actions.shape[1])).T


# Entries per row block in the table checks; this bounds each temporary
# they make, whatever n is.
_BLOCK_ENTRIES = 1 << 16
# verify builds the whole n x n table only while it takes at most this many
# bytes: up to 5792 elements in uint16.  Above, it cross-checks the point
# symmetries of _SAMPLE_SIZE seeded elements instead.
_TABLE_BUDGET = 64 << 20
_SAMPLE_SIZE = 64


def _table_fits(n: int) -> bool:
    return n * n * np.min_scalar_type(n - 1).itemsize <= _TABLE_BUDGET


def table_check(n: int) -> str:
    """Which operation-table check :func:`verify` runs on n elements:
    ``full`` or ``sampled at k elements``."""
    return "full" if _table_fits(n) else f"sampled at {min(n, _SAMPLE_SIZE)} elements"


def _row_blocks(count: int, length: int):
    step = max(1, _BLOCK_ENTRIES // max(1, length))  # length is 0 in the empty quandle
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _preserves_table(rows: np.ndarray, row_of: np.ndarray, u: np.ndarray, xs: np.ndarray) -> bool:
    """Whether the permutation ``u`` respects the operation at the elements
    ``xs``: u(S_x(y)) = S_u(x)(u(y)) for every x in xs and every y, where
    S_x is row ``row_of[x]`` of ``rows``.  Over all x this says u is an
    automorphism of the operation."""
    index = u.astype(np.intp, copy=False)
    values = u.astype(rows.dtype, copy=False)
    for block in _row_blocks(len(xs), rows.shape[1]):
        x = xs[block]
        image = np.take(np.take(rows, row_of[index[x]], axis=0), index, axis=1)
        if not np.array_equal(np.take(values, np.take(rows, row_of[x], axis=0)), image):
            return False
    return True


def _generating_set(ngens: int, closed: list[GroupWord]) -> list[int]:
    """A small set of generator ids from which every other generator follows.

    Generator g follows when some word in ``closed`` holds it exactly once
    and every other letter of that word follows.  Each round adds the
    generator, among those that do not yet follow, that makes the most
    generators follow; ties go to the lowest id.
    """
    rules = []  # (g, the other generators of a word that holds g once)
    for word in closed:
        ids = [letter.gen.id for letter in word]
        rules += [(g, set(ids) - {g}) for g in set(ids) if ids.count(g) == 1]

    def closure(known: set[int]) -> set[int]:
        known = set(known)
        while new := {g for g, others in rules if g not in known and others <= known}:
            known |= new
        return known

    chosen: list[int] = []
    known = closure(set())
    while len(known) < ngens:
        best = max(
            (g for g in range(ngens) if g not in known),
            key=lambda g: (len(closure(known | {g})), -g),
        )
        chosen.append(best)
        known = closure(known | {best})
    return sorted(chosen)


def verify(quandle: Quandle, pres: Presentation) -> list[str]:
    """Check a finished quandle against the quandle axioms and relations.

    Always verified, in O(g n) memory for g generators: actions are total
    mutually inverse maps (so bijections), A1 at the basepoints, every
    primary relation path, every universal relation loop at every
    element, and one label per component.  The loops are those of
    ``loop_words(pres)``, so they include the power relation
    x^(g^n) = x of every generator g, n the label of g in ``pres``: the
    order of its point symmetry divides n.  These are the closure conditions of
    Winker's method.

    The operation table then cross-checks them; :func:`table_check` names
    how.  Its column x is the point symmetry S_x, built along one Schreier
    tree from the basepoints (see :func:`_symmetry_rows`) in the narrowest
    unsigned dtype that holds n - 1.  It is checked for the generator
    columns S_(b_g) = A_g at each basepoint b_g, which alone compares two
    generators that share a basepoint, and for A3 under generators A_g:
    the conjugation consistency S_(A_g z) = A_g S_z A_g^(-1) at each
    checked element z, which at every z says A_g is an automorphism.

    - While the n x n table takes at most ``_TABLE_BUDGET`` bytes (64 MiB:
      up to 5792 elements in uint16), it is built whole, and A3 runs in
      row blocks of ``_BLOCK_ENTRIES`` (2^16) entries under the generators
      of :func:`_generating_set` only, each at every element, or, where
      the power loop g g is closed, at the elements z with A_g z >= z.
    - Above the budget, the same checks run at ``_SAMPLE_SIZE`` (64)
      elements z drawn with a fixed seed: only the symmetries of z, of
      every A_g z and of the basepoints are built.  A3 runs there under
      every generator at every sampled z, as the arguments below need
      every element.

    The whole-table A3 check leaves nothing out.  Write P(u) for
    S_(u z) = u S_z u^(-1) at every z.  The permutations u with P(u) form
    a group: P(u) and P(v) give S_(u v z) = u v S_z v^(-1) u^(-1), and
    P(u) at u^(-1) z gives P(u^(-1)).  A universal loop found closed at
    every element says a product of generator actions and their inverses
    (the inverses passed the check above) is the identity, so a generator
    written once in it has an action that is a product of the others'.
    If every other letter's action has P, so has its action:
    :func:`_generating_set` picks generators from which every other
    follows this way, through closed loops only, so P under each of them
    gives P under all.  And where g g is closed, A_g is an involution, so
    P(A_g) at A_g z is P(A_g) at z conjugated by A_g: one condition per
    orbit {z, A_g z} suffices.  So A3 fails under some generator exactly
    when it fails under a checked one, though a report may name fewer
    generators than checking them all would.

    A1 and A2 hold on the table by its construction, so neither is checked
    on it.  A root's row is its generator's action A_g, and every other row
    is A_g S_p A_g^(-1) (or the same with g^(-1)) for its tree parent p:
    a conjugate of a permutation, since the actions passed the bijection
    check, so every column is a bijection (A2).  Along a move from p to
    x = A_g(p), S_x(x) = A_g(S_p(p)), which is A_g(p) = x whenever
    S_p(p) = p, and a root b_g has S_(b_g)(b_g) = A_g(b_g).  So the diagonal
    (A1) fails only where A1 fails at a basepoint, which is reported.

    On the whole table these checks imply A3 on all triples and the order
    of every element's point symmetry, so neither is checked apart.  The
    Schreier tree reaches every element z from some basepoint b_g along
    generator moves (it raises otherwise).  Along each move the
    conjugation consistency holds, and S_(b_g) = A_g, so S_z = W A_g W^(-1)
    for a product W of generator actions.  Every A_h is an automorphism,
    so S_z is one too: that is A3 for all triples with z last.  And S_z
    has the order of A_g, which divides the label of g; z lies in the
    component of b_g, which carries that one label.

    Returns a list of violations; empty means verified.

    Memory: the whole table takes n^2 bytes of its dtype (2 n^2 in uint16,
    18 MB at 2976 elements) and its checks add a few int64 row blocks.  The
    sampled check holds one row per symmetry it built and at most one more
    per tree level: about 20 MB in all at 17040 elements.
    """
    violations: list[str] = []
    actions, inverses = quandle.actions, quandle.inverses
    bases, gens = quandle.basepoint, quandle.pres.generators
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
        b = bases[g]
        if actions[g][b] != b:
            violations.append(f"axiom A1 fails: no loop at the vertex of {gen.name}")

    for rel in pres.primaries:
        if quandle.follow(rel.word, bases[rel.lhs_base.id]) != bases[rel.rhs.id]:
            violations.append(f"primary relation {rel} does not hold")

    closed: list[GroupWord] = []
    for word in loop_words(pres):
        open_at = np.flatnonzero(quandle.follow(word, identity) != identity)
        if open_at.size:
            violations.append(f"universal relation x^[{word}] = x open at element {open_at[0]}")
        else:
            closed.append(word)

    root = _orbits(quandle)
    orbit_label: dict[int, int] = {}
    for g, gen in enumerate(gens):
        want = pres.label_of(gen)
        if orbit_label.setdefault(int(root[bases[g]]), want) != want:
            violations.append(f"component of {gen.name} carries conflicting labels")

    if _table_fits(n):
        sample = identity
        # where g g is closed, A_g is an involution: A3 at z and at A_g z is one condition
        involutions = {w.letters[0].gen.id for w in closed if len(w) == 2 and w.letters[0] == w.letters[1]}
        checks = [
            (g, np.flatnonzero(actions[g] >= identity) if g in involutions else identity)
            for g in _generating_set(len(gens), closed)
        ]
    else:  # a fixed seed: the same elements on every run
        sample = np.sort(np.random.default_rng(0).choice(n, min(n, _SAMPLE_SIZE), replace=False))
        checks = [(g, sample) for g in range(len(gens))]  # the group argument needs every element
    targets = np.unique(np.concatenate([sample, actions[:, sample].ravel(), bases]))
    rows = _symmetry_rows(quandle, targets)  # row_of[x]: the row of S_x, column x of the table
    row_of = np.full(n, -1)
    row_of[targets] = np.arange(len(targets))
    for g, gen in enumerate(gens):
        if not np.array_equal(rows[row_of[bases[g]]], actions[g]):
            violations.append(f"table column of {gen.name} differs from its stored action")

    for g, xs in checks:
        if not _preserves_table(rows, row_of, actions[g], xs):
            violations.append(f"axiom A3 fails under the point symmetry of {gens[g].name}")

    return violations


def canonical_code_of_actions(actions, base: int, names) -> str:
    """Canonical string of a based graph with total generator actions.

    Breadth-first relabeling from ``base``, following generators in a
    fixed order (each forward then backward), restricted to the reachable
    part; ``names[g]`` names the actions of generator g.  Two based,
    generator-labeled graphs are isomorphic iff their codes are equal.
    """
    arrays = np.asarray(actions)
    order, _, _ = _breadth_first(arrays, np.argsort(arrays, axis=1), np.array([base]))
    relabel = np.empty(arrays.shape[1], dtype=np.int64)
    relabel[order] = np.arange(len(order))
    parts = []
    for name, row in zip(names, arrays, strict=True):
        imgs = ",".join(map(str, relabel[row[order]].tolist()))
        parts.append(f"{name}:{imgs}")
    return f"n={len(order)};" + ";".join(parts)


def canonical_code(quandle: Quandle, element: int) -> str:
    """Canonical code of the component of an element (a dense index, such
    as ``quandle.basepoint[g]``) of a finished quandle."""
    return canonical_code_of_actions(
        quandle.actions, int(element), [gen.name for gen in quandle.pres.generators]
    )
