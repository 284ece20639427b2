"""A reference enumerator that the engine's outputs are compared against.

It is written from the module docstring of ``quandleforge.engine`` alone
and shares none of its code: Winker's method, primaries first and then
one sweep tracing every loop of ``loop_words(pres)`` at each live
vertex, collapsing after each trace, by the plainest means:

- a forward-only trace, one letter at a time: a defined edge is
  followed, an undefined one gets a new vertex, and the last letter is
  closed onto the goal by a new edge or a coincidence;
- two tables per generator, whatever its label: a forward and a
  backward column of one coset table; words are traced as written, and
  the power relation g^2 of an involution makes its two columns agree;
- union-find collapse with lazy lookups: a table entry may name a dead
  vertex, and is resolved to its representative when read;
- no compaction and no block creation.

Its vertices are numbered apart from the engine's, so its arrays are
given in the standard numbering of :func:`standardize`, in which every
correct enumeration of a presentation gives the same arrays.
"""

from typing import NamedTuple

import numpy as np

from quandleforge.presentation import loop_words


def standardize(actions, inverses, basepoint):
    """The action arrays and basepoints renumbered in the standard order
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
    2005, pp. 167-168): a breadth-first search from the distinct
    basepoints in generator order numbers each element when it is first
    met, taking from each element every generator's forward move and then
    its backward move."""
    moves = [row for pair in zip(actions.tolist(), inverses.tolist()) for row in pair]
    order = list(dict.fromkeys(basepoint.tolist()))
    number = {x: i for i, x in enumerate(order)}
    for x in order:  # the queue: order grows while it is read
        for row in moves:
            if row[x] not in number:
                number[row[x]] = len(order)
                order.append(row[x])
    assert len(order) == actions.shape[1], "an element that no basepoint reaches"
    new = np.empty(len(order), dtype=np.int64)
    new[order] = np.arange(len(order))
    return new[actions[:, order]], new[inverses[:, order]], new[basepoint]


class Enumerated(NamedTuple):
    """A completed reference enumeration: standardized arrays, and the
    vertices it created and merged."""

    actions: np.ndarray
    inverses: np.ndarray
    basepoint: np.ndarray
    created: int
    merges: int


class _OutOfVertices(Exception):
    pass


class ReferenceGraph:
    """The growing graph, as a coset table: row v holds the image of
    vertex v under generator g in column g and under its inverse in
    column ngens + g, -1 where undefined.  ``parent`` is the union-find
    forest; v is live while ``parent[v] == v``.  Vertex ids are creation
    order."""

    def __init__(self, pres, max_vertices):
        self.pres, self.max_vertices = pres, max_vertices
        self.ngens = ngens = len(pres.generators)
        self.rows = []
        self.parent = []
        self.merges = 0
        self.basepoint = [self.add_vertex() for _ in range(ngens)]
        for g, v in enumerate(self.basepoint):  # idempotence: a g-loop at the vertex of g
            self.rows[v][g] = self.rows[v][ngens + g] = v

    def add_vertex(self):
        if len(self.parent) == self.max_vertices:
            raise _OutOfVertices
        v = len(self.parent)
        self.parent.append(v)
        self.rows.append([-1] * (2 * self.ngens))
        return v

    def find(self, v):
        parent = self.parent
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    def letters(self, word):
        """The (out column, in column) of each letter of ``word``."""
        columns = []
        for letter in word:
            g, h = letter.gen.id, self.ngens + letter.gen.id
            columns.append((g, h) if letter.sign > 0 else (h, g))
        return columns

    def trace(self, start, letters, goal):
        """Walk ``letters`` from ``start`` and close the path onto ``goal``;
        returns the coincidences found."""
        rows, find = self.rows, self.find
        cur, goal = find(start), find(goal)
        if not letters:
            return [(cur, goal)]
        for out, into in letters[:-1]:
            if rows[cur][out] < 0:
                rows[cur][out] = new = self.add_vertex()
                rows[new][into] = cur
            cur = find(rows[cur][out])
        out, into = letters[-1]
        if rows[cur][out] >= 0:
            return [(rows[cur][out], goal)]
        if rows[goal][into] >= 0:
            return [(rows[goal][into], cur)]
        rows[cur][out], rows[goal][into] = goal, cur
        return []

    def collapse(self, queue):
        """Merge each coincidence into the lower-numbered representative,
        moving the merged vertex's edges onto it, to exhaustion."""
        find, parent = self.find, self.parent
        while queue:
            u, v = queue.pop()
            u = u if parent[u] == u else find(u)
            v = v if parent[v] == v else find(v)
            if u == v:
                continue
            if v < u:
                u, v = v, u
            parent[v] = u
            self.merges += 1
            keep = self.rows[u]
            for column, image in enumerate(self.rows[v]):
                if image >= 0:
                    if keep[column] >= 0:
                        queue.append((keep[column], image))
                    else:
                        keep[column] = image

    def run(self):
        """The completed enumeration, or None once it would create more
        than ``max_vertices`` vertices."""
        pres = self.pres
        try:
            for rel in pres.primaries:
                start, goal = self.basepoint[rel.lhs_base.id], self.basepoint[rel.rhs.id]
                self.collapse(self.trace(start, self.letters(rel.word), goal))
            loops = [self.letters(word) for word in loop_words(pres)]
            v = 0
            while v < len(self.parent):  # the sweep creates vertices as it goes
                if self.parent[v] == v:
                    for letters in loops:
                        here = self.find(v)
                        self.collapse(self.trace(here, letters, here))
                v += 1
        except _OutOfVertices:
            return None
        live = [v for v, up in enumerate(self.parent) if up == v]
        element = {v: i for i, v in enumerate(live)}

        def elements(vertices):
            return [element[self.find(v)] for v in vertices]

        columns = np.array([elements([self.rows[v][c] for v in live]) for c in range(2 * self.ngens)], dtype=np.int64)
        columns = columns.reshape(2, self.ngens, len(live))
        basepoint = np.array(elements(self.basepoint), dtype=np.int64)
        return Enumerated(*standardize(columns[0], columns[1], basepoint), len(self.parent), self.merges)
