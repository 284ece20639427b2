"""Enumeration engine: tracing, collapsing, completion, verification.

Each comparison of the engine names its reference:

- ``ReferenceGraph`` (``tests/reference.py``), an enumerator that
  shares no code with the engine, for the finished quandle: both arrays
  are compared in the standard numbering of ``standardize``, on the
  comparison inputs (``EQUIVALENCE_INPUTS`` and Gkmn(16,8,8)), where the
  engine must also create and merge no more vertices, and on random
  presentations;
- ``PlainSweepGraph``, the enumerator before its sweep was streamlined,
  for the exact counters, stop points and raw arrays;
- ``UncompactedGraph``, the enumerator with compaction off, for the raw
  arrays and counters that compaction must not change;
- ``brute_force_violations`` (``conftest.py``) and
  ``reference_a3_failures``, the axiom checks ``verify`` is compared with.

``InvariantCheckingGraph``, ``PeakLiveGraph`` and ``CheckRecorder``
are instruments: they record or check the engine's own run.
"""

import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from quandleforge import (
    EnumerationLimits,
    FamilyParams,
    Presentation,
    PrimaryRelation,
    canonical_code,
    canonical_code_of_actions,
    components,
    enumerate_quandle,
    expand_relations,
    family_presentation,
    loop_words,
    parse_diagram,
    parse_presentation,
    parse_word,
    quandle_table,
    verify,
    wirtinger,
)
from quandleforge import engine
from quandleforge.cli import export_json
from quandleforge.engine import CayleyGraph
from quandleforge.families import load_diagram_text, table1_rows
from quandleforge.words import GeneratorSymbol, GroupWord, Letter, invert
from reference import ReferenceGraph, standardize

GKMN_16_8_8 = FamilyParams("Gkmn", k=16, m=8, n=8)
THETA = "gens: a b c\nedges: a:1 b:2 c:3\nlabels: 3 3 2\nrel * : a b c\n"

# every table1 row but the 17040-element one, for the tests that run a
# reference enumerator or several passes per row
TABLE1_BELOW_10K = [row for row in table1_rows() if row["expected"] < 10_000]


def theta(labels=(3, 3, 2)):
    return expand_relations(parse_presentation(THETA).with_labels(labels))


def diagram_presentation(name):
    return wirtinger(parse_diagram(load_diagram_text(name)))


def enumerate_ok(pres, limit=100000):
    res = enumerate_quandle(pres, EnumerationLimits(limit, 10**9))
    assert res.completed
    return res


def run_graph(pres, limits):
    """A completed CayleyGraph, for tests that read its union-find state."""
    graph = CayleyGraph(pres, limits)
    assert graph.run()
    return graph


class UncompactedGraph(CayleyGraph):
    """The enumerator with compaction off during :meth:`run`, kept as a
    reference: it holds a row for every vertex it creates, and compacts
    once, in :meth:`finalize`."""

    def run(self):
        self.compact = lambda position: position
        try:
            return super().run()
        finally:
            del self.compact


class InvariantCheckingGraph(CayleyGraph):
    """The enumerator, checking after each collapse that every entry of a
    live row is -1 or a live vertex, that ``fwd[g]`` and ``bwd[g]`` are
    mutually inverse on the live rows, and that the one table of each
    involutory generator is an involution there."""

    checked = 0

    def collapse(self, queue):
        super().collapse(queue)
        size = self.size
        live = np.flatnonzero(np.frombuffer(self.parent, dtype=np.int32, count=size) == np.arange(size))
        is_live = np.zeros(size + 1, dtype=bool)  # is_live[-1], for undefined entries, stays False
        is_live[live] = True
        for table, inverse in zip(self.fwd + self.bwd, self.bwd + self.fwd):
            rows = np.frombuffer(table, dtype=np.int32, count=size)[live]
            assert ((rows == -1) | is_live[rows]).all(), "a live row names a dead vertex"
            defined = rows >= 0
            back = np.frombuffer(inverse, dtype=np.int32, count=size)[rows[defined]]
            assert np.array_equal(back, live[defined]), "fwd and bwd disagree on live rows"
        for gen, table, inverse in zip(self.pres.generators, self.fwd, self.bwd):
            assert (table is inverse) == (self.pres.label_of(gen) <= 2)
            if table is inverse:
                rows = np.frombuffer(table, dtype=np.int32, count=size)
                defined = live[rows[live] >= 0]
                assert np.array_equal(rows[rows[defined]], defined), "a shared table is no involution"
        self.checked += 1


class PeakLiveGraph(CayleyGraph):
    """The enumerator, recording the most vertices live at once."""

    peak_live = 0

    def _record(self):
        self.peak_live = max(self.peak_live, self.stats.vertices_created - self.stats.merges)

    # only a collapse kills vertices, so the live count peaks just before
    # one starts or when the run ends
    def collapse(self, queue):
        self._record()
        super().collapse(queue)

    def run(self):
        try:
            return super().run()
        finally:
            self._record()


class PlainSweepGraph(CayleyGraph):
    """The enumerator as it was before its sweep was streamlined, kept as a
    reference: ``trace`` creates each gap vertex through ``add_vertex``,
    and ``run`` traces every universal loop, the power loops of the
    involutory generators included, which ``letters`` keeps unreduced
    when ``loop`` is true.  ``run`` checks the budgets where the stop rule
    says, after the basepoints, each primary and each live vertex's loops."""

    def letters(self, word, loop=False):
        ngens = len(self.fwd)
        pairs = [self.pairs[letter.gen.id if letter.sign > 0 else ngens + letter.gen.id] for letter in word]
        if loop and len(pairs) == 2 and word.letters[0] == word.letters[1] and pairs[0][0] is pairs[0][1]:
            return pairs
        reduced = []
        for pair in pairs:
            if reduced and reduced[-1][1] is pair[0]:
                reduced.pop()
            else:
                reduced.append(pair)
        return reduced

    def over_budget(self):
        stats, limits = self.stats, self.limits
        return stats.steps > limits.max_steps or stats.vertices_created > limits.max_vertices

    def trace(self, start, letters, target=None):
        self.stats.steps += len(letters)
        cur, goal = start, start if target is None else target
        for i, (out_table, _) in enumerate(letters):
            nxt = out_table[cur]
            if nxt < 0:
                break
            cur = nxt
        else:
            return [] if cur == goal else [(cur, goal)]
        last = len(letters) - 1
        end = goal
        while last > i:
            prev = letters[last][1][end]
            if prev < 0:
                break
            end = prev
            last -= 1
        for out_table, in_table in letters[i:last]:
            new = self.add_vertex()
            out_table[cur] = new
            in_table[new] = cur
            cur = new
        out_table, in_table = letters[last]
        back = in_table[end]
        if back >= 0:
            return [(back, cur)] if back != cur else []
        out_table[cur] = end
        in_table[end] = cur
        return []

    def run(self):
        pres, stats = self.pres, self.stats
        universals = [self.letters(word, loop=True) for word in loop_words(pres)]
        done = not self.over_budget()  # the basepoints
        for rel in pres.primaries:
            if not done:
                break
            start = self.find(self.basepoint[rel.lhs_base.id])
            target = self.find(self.basepoint[rel.rhs.id])
            pending = self.trace(start, self.letters(rel.word), target)
            if pending:
                self.collapse(pending)
            stats.relations_traced += 1
            done = not self.over_budget()
        parent = self.parent
        v = 0
        while done and v < self.size:
            if parent[v] == v:
                cur = v
                for letters in universals:
                    pending = self.trace(cur, letters)
                    if pending:
                        self.collapse(pending)
                        cur = self.find(cur)
                    stats.relations_traced += 1
                done = not self.over_budget()
                dead = self.size - (stats.vertices_created - stats.merges)
                if done and dead >= engine._CHUNK and 2 * dead > self.size:
                    v = self.compact(v + 1)
                    continue
            v += 1
        stats.live = stats.vertices_created - stats.merges
        return done


def test_single_generator_free_quandle():
    pres = expand_relations(parse_presentation("gens: a\nedges: a:1\nlabels: 5\n"))
    res = enumerate_ok(pres)
    assert res.stats.live == 1


def test_theta_332():
    res = enumerate_ok(theta())
    assert res.stats.live == 14
    orbits, edge_sizes = components(res.graph)
    assert len(orbits) == 3
    assert edge_sizes == {1: 4, 2: 4, 3: 6}


def test_gkmn_433():
    pres = expand_relations(family_presentation(FamilyParams("Gkmn", k=4, m=3, n=3)))
    res = enumerate_ok(pres)
    assert res.stats.live == 192
    _, edge_sizes = components(res.graph)
    assert [edge_sizes[e] for e in range(1, 7)] == [36, 36, 24, 24, 36, 36]


def test_limit_exceeded_is_report_not_error():
    pres = expand_relations(family_presentation(FamilyParams("K4knot")))
    res = enumerate_quandle(pres, EnumerationLimits(10000, 10**9))
    assert res.outcome == "limit-exceeded"
    assert res.graph is None
    assert res.stats.as_dict() == dict(
        vertices_created=10003, merges=3940, relations_traced=22483, steps=69978, live=6063
    )
    # a budget below the generator count: the check after the basepoints
    # stops the run before any relation is traced, with every basepoint counted
    res = enumerate_quandle(theta(), EnumerationLimits(2, 10**9))
    assert (res.outcome, res.graph) == ("limit-exceeded", None)
    assert res.stats.as_dict() == dict(vertices_created=3, merges=0, relations_traced=0, steps=0, live=3)


def test_step_limit_hit_inside_collapse():
    """Empty-word primaries trace for free, so the second one's merge is the
    step past a budget of 1.  Collapse makes it, and the check after that
    primary stops the run.  A budget of 2 equals the count there and does
    not stop it: the next check, after the first sweep vertex's loops, does."""
    pres = parse_presentation("gens: a b c\nedges: a:1 b:2 c:3\nlabels: 2 2 2\nrel a : = b\nrel a : = c\n")
    res = enumerate_quandle(pres, EnumerationLimits(100, 1))
    assert res.outcome == "limit-exceeded"
    assert res.stats.as_dict() == dict(
        vertices_created=3, merges=2, relations_traced=2, steps=2, live=1
    )
    res = enumerate_quandle(pres, EnumerationLimits(100, 2))
    assert res.outcome == "limit-exceeded"
    assert res.stats.as_dict() == dict(
        vertices_created=3, merges=2, relations_traced=7, steps=12, live=1
    )


def _fresh_graph(labels=(2, 2, 2)):
    # enumeration state right after the basepoint loops, no relations traced
    pres = theta(labels)
    return pres, CayleyGraph(pres, EnumerationLimits(1000, 10**6))


def test_trace_existing_loop_is_noop():
    pres, graph = _fresh_graph()
    a = pres.generators[0]
    va = graph.basepoint[a.id]
    pending = graph.trace(va, graph.letters(parse_word("a", {"a": a})), va)
    assert pending == []
    assert graph.stats.vertices_created == 3


def test_trace_closed_loop_creates_intermediate_vertices():
    pres, graph = _fresh_graph()
    syms = {g.name: g for g in pres.generators}
    v = graph.add_vertex()
    pending = graph.trace(v, graph.letters(parse_word("b c", syms)))
    assert pending == []
    assert graph.stats.vertices_created == 5  # basepoints + v + one new
    w = graph.find(graph.fwd[syms["b"].id][v])
    assert graph.find(graph.fwd[syms["c"].id][w]) == v


def test_trace_conflicting_edge_queues_coincidence():
    pres, graph = _fresh_graph()
    syms = {g.name: g for g in pres.generators}
    a, b = syms["a"], syms["b"]
    va, vb, vc = (graph.basepoint[g.id] for g in (a, b, syms["c"]))
    # tracing [a] as a closed loop at vb forces the edge vb --a--> vb ...
    pending = graph.trace(vb, graph.letters(parse_word("a", syms)))
    assert pending == []
    # ... so forcing vb --a--> vc afterwards is a coincidence (vb, vc)
    pending = graph.trace(vb, graph.letters(parse_word("a", syms)), vc)
    assert pending == [(vb, vc)]


def test_trace_creates_only_the_gap_vertices():
    pres, graph = _fresh_graph()
    syms = {g.name: g for g in pres.generators}
    word = parse_word("b c b a", syms)
    b, c = syms["b"].id, syms["c"].id
    va = graph.basepoint[syms["a"].id]
    v = graph.add_vertex()
    # b c b is undefined from v and the last letter, a, is the loop at
    # va: the backward scan covers a, leaving a gap of three letters
    assert graph.trace(v, graph.letters(word), va) == []
    assert graph.stats.vertices_created == 4 + 2
    assert graph.stats.steps == 4
    assert graph.fwd[b][graph.fwd[c][graph.fwd[b][v]]] == va


def test_trace_gap_of_one_closes_by_deduction():
    pres, graph = _fresh_graph()
    syms = {g.name: g for g in pres.generators}
    va, vb = graph.basepoint[syms["a"].id], graph.basepoint[syms["b"].id]
    c = syms["c"].id
    assert graph.trace(vb, graph.letters(parse_word("c a", syms)), va) == []
    assert graph.stats.vertices_created == 3
    assert graph.fwd[c][vb] == va and graph.bwd[c][va] == vb


def test_trace_scans_meeting_at_different_vertices_return_one_pair():
    pres, graph = _fresh_graph()
    syms = {g.name: g for g in pres.generators}
    va, vb = graph.basepoint[syms["a"].id], graph.basepoint[syms["b"].id]
    u = graph.add_vertex()
    assert graph.trace(u, graph.letters(parse_word("c", syms)), va) == []  # u --c--> va
    # forward stops at vb and backward at va, one letter apart, but the
    # c-edge into va comes from u
    assert graph.trace(vb, graph.letters(parse_word("c a", syms)), va) == [(u, vb)]
    assert graph.stats.vertices_created == 4


def test_run_closes_each_open_power_loop_with_one_vertex():
    """With only the power loops a a and b b of two involutions, the sweep
    charges each two steps and one relation traced, and where one is open
    at v, makes one vertex u with T[v] = u and T[u] = v.  The vertex budget
    of 5 stops it after the loops of vertex 3, which make the sixth vertex."""
    pres = parse_presentation("gens: a b\nedges: a:1 b:2\nlabels: 2 2\n")
    graph = CayleyGraph(pres, EnumerationLimits(5, 10**6))
    assert not graph.run()
    ta, tb = graph.fwd
    assert (list(ta[:6]), list(tb[:6])) == ([0, 3, 4, 1, 2, -1], [2, 1, 0, 5, -1, 3])
    assert graph.stats.as_dict() == dict(vertices_created=6, merges=0, relations_traced=8, steps=16, live=6)


def test_trace_complete_forward_scan_returns_endpoints():
    # b labeled 3, since b b of an involutory b reduces to the empty word
    pres, graph = _fresh_graph(labels=(2, 3, 2))
    syms = {g.name: g for g in pres.generators}
    vb, vc = graph.basepoint[syms["b"].id], graph.basepoint[syms["c"].id]
    assert graph.trace(vb, graph.letters(parse_word("b b", syms)), vc) == [(vb, vc)]
    assert graph.stats.vertices_created == 3


def test_collapse_empty_queue():
    pres, graph = _fresh_graph()
    before = [list(t) for t in graph.fwd]
    graph.collapse([])
    assert [list(t) for t in graph.fwd] == before


def test_collapse_merges_disjoint_edges():
    pres, graph = _fresh_graph()
    syms = {g.name: g for g in pres.generators}
    u = graph.add_vertex()
    v = graph.add_vertex()
    w = graph.add_vertex()
    graph.fwd[syms["b"].id][u] = w
    graph.bwd[syms["b"].id][w] = u
    graph.fwd[syms["c"].id][v] = w
    graph.bwd[syms["c"].id][w] = v
    graph.collapse([(u, v)])
    assert graph.find(v) == u
    assert graph.find(graph.fwd[syms["b"].id][u]) == graph.find(w)
    assert graph.find(graph.fwd[syms["c"].id][u]) == graph.find(w)
    assert graph.stats.merges == 1


def test_collapse_cascades():
    pres, graph = _fresh_graph(labels=(3, 2, 2))
    a = pres.generators[0].id
    assert graph.fwd[a] is not graph.bwd[a]  # label 3: two tables, written apart
    vs = [graph.add_vertex() for _ in range(6)]
    for i in range(2, 6):
        graph.fwd[a][vs[i - 2]] = vs[i]
        graph.bwd[a][vs[i]] = vs[i - 2]
    graph.collapse([(vs[0], vs[1])])
    # chain v0=v1 forces v2=v3 forces v4=v5
    assert graph.find(vs[1]) == vs[0]
    assert graph.find(vs[3]) == vs[2]
    assert graph.find(vs[5]) == vs[4]
    assert graph.stats.merges == 3


def test_collapse_cascades_through_shared_tables():
    """The same cascade along involutions: a and b are labeled 2, so each
    has one table, in which the write T[u] = v goes with T[v] = u."""
    pres, graph = _fresh_graph()
    ta, tb = (graph.fwd[gen.id] for gen in pres.generators[:2])
    assert ta is graph.bwd[pres.generators[0].id]
    vs = [graph.add_vertex() for _ in range(6)]
    for table, u, v in ((ta, 0, 2), (ta, 1, 3), (tb, 2, 4), (tb, 3, 5)):
        table[vs[u]], table[vs[v]] = vs[v], vs[u]
    graph.collapse([(vs[0], vs[1])])
    # v0=v1 forces v2=v3 along a, which forces v4=v5 along b
    assert [graph.find(v) for v in vs] == [vs[0], vs[0], vs[2], vs[2], vs[4], vs[4]]
    assert graph.stats.merges == 3
    assert (ta[vs[0]], ta[vs[2]], tb[vs[2]], tb[vs[4]]) == (vs[2], vs[0], vs[4], vs[2])


def test_letters_reduce_in_the_free_product():
    pres = theta((2, 2, 3))  # a and b involutory, c not
    graph = CayleyGraph(pres, EnumerationLimits(1000, 10**6))
    syms = {g.name: g for g in pres.generators}
    ta, tc = graph.fwd[syms["a"].id], graph.fwd[syms["c"].id]

    def letters(text):
        return graph.letters(parse_word(text, syms))

    for word in ("a a", "a a'", "a' a", "a' a'", "a b b a'"):
        assert letters(word) == [], word
    assert letters("c c") == [(tc, graph.bwd[syms["c"].id])] * 2
    assert letters("a b a a b c") == [(ta, ta), letters("c")[0]]


@pytest.mark.parametrize("text, size", [
    # the smallest input on which sharing the tables without the reduction
    # left a partial action
    ("gens: a b\nedges: a:1 b:2\nlabels: 2 2\nrel * : b' b' b' a\n", 2),
    # a primary whose word is the power word of an involutory generator,
    # which reduces to nothing there, unlike the sweep's own power loop
    ("gens: a b c\nedges: a:1 b:2 c:3\nlabels: 2 2 2\nrel a : b b = c\nrel * : a b c\n", 3),
])
def test_shared_tables_close_every_action(text, size):
    pres = expand_relations(parse_presentation(text))
    quandle = enumerate_ok(pres).graph
    assert quandle.actions.shape[1] == size
    assert (quandle.actions >= 0).all() and (quandle.inverses >= 0).all()
    assert verify(quandle, pres) == []


@pytest.mark.parametrize(
    "row", [row for row in table1_rows() if row["expected"] <= 400],
    ids=lambda row: f"{row['family']}-{'_'.join(map(str, row['labels']))}",
)
def test_live_rows_name_only_live_vertices(row):
    pres = family_presentation(FamilyParams(row["family"], labels=tuple(row["labels"])))
    graph = InvariantCheckingGraph(pres, EnumerationLimits())
    assert graph.run()
    assert graph.stats.live == row["expected"]
    assert graph.checked > 0


def test_determinism():
    limits = EnumerationLimits(100000, 10**9)
    a = run_graph(theta(), limits)
    b = run_graph(theta(), limits)
    assert a.stats.as_dict() == b.stats.as_dict()
    assert [list(t) for t in a.fwd] == [list(t) for t in b.fwd]
    assert np.array_equal(a.finalize().actions, enumerate_ok(theta()).graph.actions)


def test_relation_order_invariance():
    pres = theta()
    base = enumerate_ok(pres).stats.live
    rng = random.Random(7)
    universals = list(pres.universals)
    for _ in range(4):
        rng.shuffle(universals)
        shuffled = Presentation(
            pres.generators, pres.edge_of, pres.labels, pres.primaries, universals
        )
        assert enumerate_ok(shuffled).stats.live == base


def test_monotone_limits():
    pres = theta()
    small = run_graph(pres, EnumerationLimits(36, 10**9))
    for extra in (50, 1000, 100000):
        again = run_graph(pres, EnumerationLimits(extra, 10**9))
        assert again.stats.live == small.stats.live
        assert [list(t) for t in again.fwd] == [list(t) for t in small.fwd]


def test_quandle_table_single_element():
    pres = expand_relations(parse_presentation("gens: a\nedges: a:1\nlabels: 3\n"))
    table = quandle_table(enumerate_ok(pres).graph)
    assert table.tolist() == [[0]]


def test_quandle_table_axioms_exhaustive():
    graph = enumerate_ok(theta()).graph
    table = quandle_table(graph)
    n = table.shape[0]
    assert n == 14
    ident = np.arange(n)
    assert np.array_equal(np.diagonal(table), ident)          # A1
    for x in range(n):
        assert sorted(table[:, x].tolist()) == list(range(n))  # A2
    for z in range(n):                                         # A3
        u = table[:, z]
        assert np.array_equal(u[table], table[np.ix_(u, u)])


def test_generator_columns_match_actions():
    graph = enumerate_ok(theta()).graph
    table = quandle_table(graph)
    for g, gen in enumerate(graph.pres.generators):
        b = graph.basepoint[gen.id]
        assert np.array_equal(table[:, b], graph.actions[g])


def test_verify_passes_on_h1():
    pres = expand_relations(family_presentation(FamilyParams("H1")))
    res = enumerate_ok(pres)
    assert res.stats.live == 32
    assert verify(res.graph, pres) == []


def test_verify_names_a_partial_action():
    """An undefined image is reported alone: no later check reads a
    partial action."""
    quandle = enumerate_ok(theta()).graph
    actions = quandle.actions.copy()
    actions[1, 5] = -1
    broken = quandle._replace(actions=actions)
    assert verify(broken, broken.pres) == ["action of b partial at element 5"]


def test_verify_reports_on_an_edge_split_across_components():
    """Generators of one edge may lie in two components, of different or
    of equal sizes: verify still returns its report, and only components,
    which sizes each edge, refuses."""
    pres = parse_presentation("gens: a b\nedges: a:1 b:1\nlabels: 2\nrel a : b = a\n")
    res = enumerate_ok(pres)
    assert res.stats.live == 3
    assert verify(res.graph, pres) == []
    with pytest.raises(ValueError, match="edge 1 maps to more than one component"):
        components(res.graph)
    pres = parse_presentation("gens: a b\nedges: a:1 b:1\nlabels: 1\n")
    res = enumerate_ok(pres)
    assert res.stats.live == 2
    assert verify(res.graph, pres) == []
    with pytest.raises(ValueError, match="edge 1 maps to more than one component"):
        components(res.graph)


def _swapped_entries_fault():
    """theta3(3,3,2) with two targets of generator a swapped, the inverse
    action kept consistent with them."""
    pres = theta()
    graph = run_graph(pres, EnumerationLimits(100000, 10**9))
    # corrupt one edge: swap two targets of generator a
    a = pres.generators[0].id
    live = [v for v in range(graph.size) if graph.parent[v] == v]
    v1, v2 = live[1], live[3]
    t1, t2 = graph.fwd[a][v1], graph.fwd[a][v2]
    graph.fwd[a][v1], graph.fwd[a][v2] = t2, t1
    graph.bwd[a][graph.find(t2)] = v1
    graph.bwd[a][graph.find(t1)] = v2
    return graph.finalize(), pres


FAULT_INJECTION_REPORT = [
    "universal relation x^[a b c] = x open at element 1",
    "universal relation x^[a a a] = x open at element 1",
    "axiom A3 fails under the point symmetry of a",
    "axiom A3 fails under the point symmetry of b",
    "axiom A3 fails under the point symmetry of c",
]


@pytest.mark.parametrize(
    "budget, mode, expanded",
    [
        (engine._TABLE_BUDGET, "full", True),
        (0, "sampled at 14 elements", True),
        (engine._TABLE_BUDGET, "full", False),
        (0, "sampled at 14 elements", False),
    ],
    ids=["full", "sampled", "full-unexpanded", "sampled-unexpanded"],
)
def test_verify_reports_fault_injection(monkeypatch, budget, mode, expanded):
    """The same fault gives the same report on the whole table and above
    the byte budget, and whether or not the presentation given to verify
    was expanded: verify checks the power relations either way."""
    monkeypatch.setattr(engine, "_TABLE_BUDGET", budget)
    quandle, pres = _swapped_entries_fault()
    if not expanded:
        pres = parse_presentation(THETA).with_labels((3, 3, 2))
    assert engine.table_check(quandle.actions.shape[1]) == mode
    assert verify(quandle, pres) == FAULT_INJECTION_REPORT


TABLE_CHECKS = ("table column", "axiom A3")


@pytest.mark.parametrize("budget", [engine._TABLE_BUDGET, 0], ids=["full", "sampled"])
def test_verify_reports_every_corrupted_action_entry(monkeypatch, budget):
    """Every wrong value in any one action entry of theta3(3,3,2) is
    reported.  So is every swap of two targets of one generator with the
    inverse kept consistent, which leaves total bijections; that one is
    reported by the table checks themselves, on both paths."""
    monkeypatch.setattr(engine, "_TABLE_BUDGET", budget)
    pres = theta()
    quandle = enumerate_ok(pres).graph
    ngens, n = quandle.actions.shape
    assert verify(quandle, pres) == []
    for g in range(ngens):
        for x in range(n):
            for y in range(n):
                if y != quandle.actions[g, x]:
                    actions = quandle.actions.copy()
                    actions[g, x] = y
                    assert verify(quandle._replace(actions=actions), pres), (g, x, y)
            for x2 in range(x + 1, n):
                actions, inverses = quandle.actions.copy(), quandle.inverses.copy()
                actions[g, [x, x2]] = actions[g, [x2, x]]
                inverses[g, actions[g, [x, x2]]] = [x, x2]
                report = verify(quandle._replace(actions=actions, inverses=inverses), pres)
                assert any(m.startswith(TABLE_CHECKS) for m in report), (g, x, x2, report)


def _random_swaps(quandle, rng):
    """The quandle with 1-3 random swaps of two targets of one generator,
    the inverse actions kept consistent with them."""
    actions, inverses = quandle.actions.copy(), quandle.inverses.copy()
    ngens, n = actions.shape
    for _ in range(rng.integers(1, 4)):
        g = rng.integers(ngens)
        x = rng.choice(n, 2, replace=False)
        actions[g, x] = actions[g, x[::-1]]
        inverses[g, actions[g, x]] = x
    return quandle._replace(actions=actions, inverses=inverses)


@pytest.mark.parametrize(
    "family, labels", [("H1", (3, 3, 2)), ("DH", (2, 2, 3, 3, 2, 2))], ids=["H1", "DH"]
)
def test_verify_reports_what_brute_force_finds(monkeypatch, brute_force, family, labels):
    """Whenever the brute-force axiom check finds a violation in a
    randomly swapped quandle, verify reports one too, on the whole table
    and on the sampled path.  The table A1 and A2 checks verify leaves
    out hold here too: brute force never finds A2, and finds A1 only
    where verify reports A1 at a basepoint."""
    pres = expand_relations(family_presentation(FamilyParams(family, labels=labels)))
    quandle = enumerate_ok(pres).graph
    assert brute_force(quandle, pres) == []
    rng = np.random.default_rng(11)
    found = 0
    for trial in range(20):
        swapped = _random_swaps(quandle, rng)
        violations = brute_force(swapped, pres)
        if not violations:
            continue
        found += 1
        assert "A2" not in violations, trial
        for budget in (engine._TABLE_BUDGET, 0):
            monkeypatch.setattr(engine, "_TABLE_BUDGET", budget)
            report = verify(swapped, pres)
            assert report, (trial, budget)
            if "A1" in violations:
                assert any(m.startswith("axiom A1 fails: no loop at") for m in report), report
    assert found >= 10  # most swaps break an axiom


def test_blockwise_table_checks_match_whole_table():
    """The row-block A3 check agrees with the same check written on the
    whole table, including a fault in the last, partial block, in
    int64 and in the narrow dtype verify uses; and A3 at a subset of the
    elements, with their rows taken apart as the sampled check does,
    agrees with the whole table at those elements."""
    n = 1100
    step = engine._BLOCK_ENTRIES // n
    assert 1 < step < n and n % step
    rng = np.random.default_rng(7)
    identity = np.arange(n)
    dihedral = (2 * identity[:, None] - identity[None, :]) % n  # rows[x][y] = 2x - y
    broken = dihedral.copy()
    broken[n - 1, 7] = broken[n - 1, 8]
    shuffled = rng.permuted(np.tile(identity, (n, 1)), axis=1)
    arbitrary = rng.integers(0, n, size=(n, n))
    perms = (dihedral[3], dihedral[n - 1], rng.permutation(n))
    subset = np.array([0, 5, n - 2, n - 1])
    for rows in (dihedral, broken, shuffled, arbitrary):
        table = rows.T
        for dtype in (np.int64, np.min_scalar_type(n - 1)):
            typed = rows.astype(dtype)
            for u in perms:
                whole_a3 = np.array_equal(u[table], table[np.ix_(u, u)])
                assert engine._preserves_table(typed, identity, u, identity) == whole_a3
                # only the rows of the subset and of its images, renumbered
                targets = np.unique(np.concatenate([subset, u[subset]]))
                row_of = np.full(n, -1)
                row_of[targets] = np.arange(len(targets))
                at_subset = np.array_equal(u[table[:, subset]], table[np.ix_(u, u[subset])])
                assert engine._preserves_table(typed[targets], row_of, u, subset) == at_subset
    assert engine._preserves_table(dihedral, identity, dihedral[3], identity)
    assert not engine._preserves_table(broken, identity, dihedral[3], identity)


def test_verify_memory_is_one_table():
    """verify holds one n x n table in the narrow dtype, plus about one
    row block of int64 temporaries and O(g n) besides."""
    pres = expand_relations(family_presentation(FamilyParams("DH", labels=(2, 2, 2, 3, 2, 4))))
    graph = enumerate_ok(pres, limit=10**6).graph
    n = graph.actions.shape[1]
    assert n == 2976
    assert engine.table_check(n) == "full"
    itemsize = np.min_scalar_type(n - 1).itemsize
    assert itemsize == 2
    tracemalloc.start()
    try:
        assert verify(graph, pres) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * itemsize * n * n + 8 * engine._BLOCK_ENTRIES


def test_table_check_modes():
    assert engine.table_check(1) == "full"
    assert engine.table_check(400) == "full"
    assert engine.table_check(401) == "full"
    # uint16 up to 65536 elements: 2 n^2 bytes fit 64 MiB up to 5792
    assert engine.table_check(5792) == "full"
    assert engine.table_check(5793) == "sampled at 64 elements"
    assert engine.table_check(17040) == "sampled at 64 elements"


def test_sampled_check_passes_on_table1(monkeypatch):
    """With no byte budget every table1 row takes the sampled path, and
    every row below 10,000 elements still verifies."""
    monkeypatch.setattr(engine, "_TABLE_BUDGET", 0)
    assert len(TABLE1_BELOW_10K) == 20
    for row in TABLE1_BELOW_10K:
        pres = expand_relations(family_presentation(FamilyParams(row["family"], labels=tuple(row["labels"]))))
        quandle = enumerate_ok(pres, limit=10**6).graph
        n = quandle.actions.shape[1]
        assert engine.table_check(n) == f"sampled at {min(n, 64)} elements"
        assert verify(quandle, pres) == [], row


def reference_a3_failures(quandle):
    """The generators under which A3 fails on the whole table, checked
    under every generator at every element: the check verify makes on a
    smaller set of generators and elements."""
    actions = quandle.actions
    identity = np.arange(actions.shape[1])
    rows = engine._symmetry_rows(quandle, identity)
    return [g for g in range(len(actions)) if not engine._preserves_table(rows, identity, actions[g], identity)]


A3_LINE = "axiom A3 fails under the point symmetry of "


def assert_verify_matches_reference(quandle, pres):
    """verify reports a violation exactly when the check under every
    generator does, and an A3 line exactly when some generator fails it,
    naming only generators that fail it."""
    try:
        failing = {quandle.pres.generators[g].name for g in reference_a3_failures(quandle)}
    except ValueError:  # a swap can cut elements off the basepoints: no table, either way
        with pytest.raises(ValueError, match="unreachable"):
            verify(quandle, pres)
        return None
    report = verify(quandle, pres)
    named = {m.removeprefix(A3_LINE) for m in report if m.startswith(A3_LINE)}
    others = [m for m in report if not m.startswith(A3_LINE)]
    assert (report == []) == (others == [] and not failing), report
    assert bool(named) == bool(failing), (report, failing)
    assert named <= failing, (report, failing)
    return report


def family_quandle(family, labels):
    pres = expand_relations(family_presentation(FamilyParams(family, labels=tuple(labels))))
    return enumerate_ok(pres, limit=10**6).graph, pres


def test_verify_matches_the_every_generator_check_on_table1():
    for row in TABLE1_BELOW_10K:
        quandle, pres = family_quandle(row["family"], row["labels"])
        assert assert_verify_matches_reference(quandle, pres) == [], row


# (family, labels, seeded swap trials); the rows are small, since the
# reference builds the whole table for each trial
SWAP_ROWS = [
    ("theta3", (5, 3, 2), 150),
    ("H1", (3, 2, 2), 150),
    ("DH", (2, 2, 2, 3, 2, 2), 150),
    ("K4planar", (3, 3, 2, 2, 2, 2), 150),
    ("H2", (3, 2, 2), 40),
]


@pytest.mark.parametrize("family, labels, trials", SWAP_ROWS, ids=[f for f, _, _ in SWAP_ROWS])
def test_verify_matches_the_every_generator_check_on_random_swaps(family, labels, trials):
    """Swaps keep the actions bijective but may open relations, the power
    loops g g among them, and so change which generators follow and which
    checks verify halves."""
    quandle, pres = family_quandle(family, labels)
    rng = np.random.default_rng(20)
    a3 = 0
    for trial in range(trials):
        report = assert_verify_matches_reference(_random_swaps(quandle, rng), pres)
        a3 += any(m.startswith(A3_LINE) for m in report)
    assert a3 >= trials / 2  # most swaps break A3


def _recording_preserves_table(monkeypatch):
    """Record each A3 check verify makes as (u, xs)."""
    calls = []
    check = engine._preserves_table

    def recording(rows, row_of, u, xs):
        calls.append((u, xs))
        return check(rows, row_of, u, xs)

    monkeypatch.setattr(engine, "_preserves_table", recording)
    return calls


def test_whole_table_a3_runs_under_the_check_set(monkeypatch):
    """On DH(2,2,2,3,2,4) A3 runs under 3 of the 8 generators, and under an
    involution only at its fixed points and one element of each 2-cycle."""
    quandle, pres = family_quandle("DH", (2, 2, 2, 3, 2, 4))
    n = quandle.actions.shape[1]
    identity = np.arange(n)
    calls = _recording_preserves_table(monkeypatch)
    assert engine.table_check(n) == "full"
    assert verify(quandle, pres) == []
    assert [u.tolist() for u, _ in calls] == [quandle.actions[g].tolist() for g in (0, 2, 4)]
    for u, xs in calls:
        if np.array_equal(u[u], identity):
            fixed = np.flatnonzero(u == identity)
            assert len(xs) == (n + len(fixed)) // 2 < n
            assert np.array_equal(np.union1d(xs, u[xs]), identity)
            assert np.array_equal(np.intersect1d(xs, u[xs]), fixed)
        else:
            assert np.array_equal(xs, identity)
    assert sum(np.array_equal(u[u], identity) for u, _ in calls) >= 2


def test_sampled_a3_runs_under_every_generator(monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_BUDGET", 0)
    quandle, pres = family_quandle("DH", (2, 2, 2, 3, 2, 4))
    calls = _recording_preserves_table(monkeypatch)
    assert verify(quandle, pres) == []
    assert [u.tolist() for u, _ in calls] == quandle.actions.tolist()
    sample = calls[0][1]
    assert len(sample) == 64
    assert all(np.array_equal(xs, sample) for _, xs in calls)


def test_a3_under_an_open_power_loop_runs_at_every_element():
    """A swap that opens b b leaves A_b a 3-cycle, no involution, and A3
    under it fails only at elements z with A_b z < z, so only the check at
    every element reports it.  ``rel * : a`` makes a follow from nothing."""
    pres = parse_presentation("gens: a b\nedges: a:1 b:2\nlabels: 2 2\nrel * : a\n")
    quandle = enumerate_ok(pres).graph
    assert quandle.actions.tolist() == [[0, 1, 2], [2, 1, 0]]
    actions, inverses = quandle.actions.copy(), quandle.inverses.copy()
    actions[1] = [2, 0, 1]
    inverses[1] = [1, 2, 0]
    report = assert_verify_matches_reference(quandle._replace(actions=actions, inverses=inverses), pres)
    assert report == [
        "axiom A1 fails: no loop at the vertex of b",
        "universal relation x^[b b] = x open at element 0",
        A3_LINE + "b",
    ]


def test_generating_set_of_each_table1_family():
    """Greedy picks: the generators named, out of all the family has."""
    want = {"theta3": ["a", "b"], "KT": ["x1", "x3"], "H1": ["x1", "x3"], "H2": ["x1", "x4"],
            "DH": ["x1", "x3", "x5"], "K4planar": ["a", "b", "c"]}
    for row in table1_rows():
        pres = expand_relations(family_presentation(FamilyParams(row["family"], labels=tuple(row["labels"]))))
        gens = pres.generators
        chosen = engine._generating_set(len(gens), list(loop_words(pres)))
        assert [gens[g].name for g in chosen] == want[row["family"]], row


def test_symmetry_rows_of_a_sample_match_the_whole_table():
    """Rows built for a few targets along the Schreier tree equal the same
    rows of the whole table."""
    pres = expand_relations(family_presentation(FamilyParams("K4planar", labels=(3, 3, 2, 2, 2, 4))))
    quandle = enumerate_ok(pres).graph
    n = quandle.actions.shape[1]
    whole = quandle_table(quandle).T
    assert whole.dtype == np.uint16
    targets = np.array([0, 1, 17, n // 2, n - 1])
    assert np.array_equal(engine._symmetry_rows(quandle, targets), whole[targets])


def test_canonical_code_invariance_under_relabeling():
    graph = enumerate_ok(theta()).graph
    base = graph.basepoint[0]
    code = canonical_code(graph, base)
    assert code == canonical_code(graph, base)

    # relabel the vertex set by a random permutation and recompute
    actions = graph.actions
    rng = random.Random(13)
    perm = list(range(graph.actions.shape[1]))
    rng.shuffle(perm)
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    relabeled = [np.array([perm[a[inv[i]]] for i in range(len(perm))]) for a in actions]
    names = [g.name for g in graph.pres.generators]
    assert canonical_code_of_actions(relabeled, perm[base], names) == code


def test_canonical_code_distinguishes_components():
    graph = enumerate_ok(theta()).graph
    code_a = canonical_code(graph, graph.basepoint[0])
    code_c = canonical_code(graph, graph.basepoint[2])
    assert code_a != code_c  # sizes 4 and 6


def _queue_code(actions, base, names):
    """The canonical code by a first-in first-out queue, one element at a
    time: the reference the level-at-a-time search must match byte for byte."""
    inverses = [np.argsort(a) for a in actions]
    relabel = {base: 0}
    order = [base]
    for v in order:  # order grows while it is read
        for g in range(len(actions)):
            for table in (actions[g], inverses[g]):
                w = int(table[v])
                if w not in relabel:
                    relabel[w] = len(order)
                    order.append(w)
    parts = [
        f"{name}:" + ",".join(str(relabel[int(a[v])]) for v in order)
        for name, a in zip(names, actions)
    ]
    return f"n={len(order)};" + ";".join(parts)


def test_canonical_code_matches_the_queue_order():
    """On quandles and on random permutations with unreachable parts, the
    code equals the one a queue-ordered search gives."""
    rng = np.random.default_rng(5)
    cases = [(rng.permuted(np.tile(np.arange(40), (k, 1)), axis=1), rng.integers(40))
             for k in (1, 2, 3) for _ in range(5)]
    for labels in ((3, 3, 2), (5, 3, 2)):
        quandle = enumerate_ok(theta(labels)).graph
        cases += [(quandle.actions, b) for b in quandle.basepoint]
    for actions, base in cases:
        names = [f"g{g}" for g in range(len(actions))]
        want = _queue_code(list(actions), int(base), names)
        assert canonical_code_of_actions(actions, int(base), names) == want
        assert canonical_code_of_actions(list(actions), int(base), names) == want


def test_vacuous_universal_dropped_and_empty_primary_merges():
    pres = parse_presentation(
        "gens: a b\nedges: a:1 b:2\nlabels: 2 2\nrel a :  = b\n"
    )
    res = enumerate_ok(expand_relations(pres))
    # a = b identifies the two basepoints immediately
    assert res.graph.basepoint[0] == res.graph.basepoint[1]
    assert res.stats.live == 1


def raw_presentations():
    for row in TABLE1_BELOW_10K:
        yield family_presentation(FamilyParams(row["family"], labels=tuple(row["labels"])))
    for name in ("theta3", "h1", "kt", "hopf", "k4planar", "dh"):
        yield diagram_presentation(name)


def test_raw_and_expanded_presentations_enumerate_alike():
    """The engine derives its loops itself, and a presentation and its
    expansion have the same loop words in the same order, so they give
    the same numbering, counters and export."""
    cases = list(raw_presentations())
    assert len(cases) == 26
    for raw in cases:
        expanded = expand_relations(raw)
        assert len(loop_words(raw)) > len(raw.universals)
        assert loop_words(expanded) == loop_words(raw)
        got, want = enumerate_ok(raw, 10**6), enumerate_ok(expanded, 10**6)
        for field in ("actions", "inverses", "basepoint"):
            assert np.array_equal(getattr(got.graph, field), getattr(want.graph, field)), raw
        assert got.stats == want.stats
        assert export_json(got.graph, raw, got.stats) == export_json(want.graph, expanded, want.stats)
        assert got.graph.pres is raw


@pytest.mark.parametrize("max_vertices, max_steps", [(0, 10), (10, 0), (-1, -1)])
def test_limits_must_be_positive(max_vertices, max_steps):
    with pytest.raises(ValueError) as err:
        EnumerationLimits(max_vertices, max_steps)
    assert str(err.value) == "enumeration limits must be positive"


def test_limits_reject_vertex_ids_beyond_int32():
    assert EnumerationLimits(max_vertices=2**31 - 1).max_vertices == 2**31 - 1
    with pytest.raises(ValueError, match="int32"):
        EnumerationLimits(max_vertices=2**31)


# engine counters of the gap-only scan on shared involution tables; any
# change to the algorithm, its order or its numbering shows here.  On
# every comparison input the engine creates and merges no more vertices
# than the reference enumerator (test_gap_scan_matches_forward_only_walk),
# and PlainSweepGraph's counters, steps included, equal the engine's on
# every input and budget it is run at (test_sweep_matches_the_plain_sweep*)
@pytest.mark.parametrize("params, limits, counters", [
    (FamilyParams("K4knot"), EnumerationLimits(2_000_000, 20_000), (3275, 962, 6499, 20047, 2313)),
    (FamilyParams("K4knot"), EnumerationLimits(5000, 10**9), (5003, 1476, 9923, 30619, 3527)),
    (FamilyParams("K4knot"), EnumerationLimits(2_000_000, 200_000), (25950, 12147, 63955, 200009, 13803)),
    (FamilyParams("K4knot"), EnumerationLimits(40_000, 10**9), (40001, 19983, 102675, 321585, 20018)),
    (FamilyParams("Gkmn", k=2, m=3, n=5), EnumerationLimits(), (557, 405, 1540, 5641, 152)),
    (FamilyParams("DH", labels=(2, 2, 2, 3, 2, 2)), EnumerationLimits(), (202, 100, 1430, 3876, 102)),
    (FamilyParams("theta3", labels=(3, 3, 2)), EnumerationLimits(), (18, 4, 56, 158, 14)),
    (GKMN_16_8_8, EnumerationLimits(), (115273, 110665, 59070, 689551, 4608)),
    (FamilyParams("K4planar", labels=(3, 3, 2, 2, 2, 5)), EnumerationLimits(), (44503, 27463, 170400, 521623, 17040)),
])
def test_engine_counters_pinned(params, limits, counters):
    stats = enumerate_quandle(expand_relations(family_presentation(params)), limits).stats
    keys = ("vertices_created", "merges", "relations_traced", "steps", "live")
    assert stats.as_dict() == dict(zip(keys, counters))


def test_memory_per_created_vertex():
    """int32 tables, one per involutory generator and two per other one,
    and one parent entry per vertex id: about 4 (2 g - i) + 10 bytes per
    created vertex, live or dead, for i of the g generators involutory
    (66 bytes here, with g = 9 and i = 4)."""
    pres = expand_relations(family_presentation(FamilyParams("K4knot")))
    g = len(pres.generators)
    i = sum(pres.label_of(gen) <= 2 for gen in pres.generators)
    assert (g, i) == (9, 4)
    tracemalloc.start()
    try:
        res = enumerate_quandle(pres, EnumerationLimits(2_000_000, 200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.outcome == "limit-exceeded"
    assert res.stats.vertices_created == 25950
    assert peak / res.stats.vertices_created <= 4 * (2 * g - i) + 64


EQUIVALENCE_INPUTS = (
    [
        (f"table1-{row['family']}-{'_'.join(map(str, row['labels']))}",
         FamilyParams(row["family"], labels=tuple(row["labels"])))
        for row in TABLE1_BELOW_10K
    ]
    + [(f"Gkm-{k}_{m}", FamilyParams("Gkm", k=k, m=m)) for k in range(1, 5) for m in range(1, 5)]
    + [
        (f"Gkmn-{k}_{m}_{n}", FamilyParams("Gkmn", k=k, m=m, n=n))
        for k in range(1, 5) for m in range(1, 5) for n in range(1, 5)
    ]
    + [("diagram-kt", "kt")]
)
COMPARISON_INPUTS = EQUIVALENCE_INPUTS + [("Gkmn-16_8_8", GKMN_16_8_8)]


def comparison_presentation(source):
    """The expanded presentation of a comparison input: family parameters,
    or the name of a shipped diagram."""
    return expand_relations(diagram_presentation(source) if isinstance(source, str) else family_presentation(source))


def over(inputs):
    """Parametrize a test over comparison inputs, by their names."""
    return pytest.mark.parametrize("source", [source for _, source in inputs], ids=[name for name, _ in inputs])


def assert_matches_the_reference(quandle, reference):
    """The same arrays as the reference's, in the standard numbering."""
    got = standardize(quandle.actions, quandle.inverses, quandle.basepoint)
    for name, ours, theirs in zip(("actions", "inverses", "basepoint"), got, reference):
        assert np.array_equal(ours, theirs), name


@functools.cache
def engine_and_reference(source):
    """The engine's and the reference's enumerations of a comparison
    input, each run once for the two tests that read them."""
    pres = comparison_presentation(source)
    return enumerate_quandle(pres, EnumerationLimits(2_000_000, 10**9)), ReferenceGraph(pres, 2_000_000).run()


@over(COMPARISON_INPUTS)
def test_shared_tables_match_two_tables(source):
    """Sharing the involutions' tables and reducing words in the free
    product, the engine ends with the quandle of the reference, which
    keeps two tables per generator and traces words as written."""
    res, reference = engine_and_reference(source)
    assert res.completed and reference is not None
    assert_matches_the_reference(res.graph, reference)


@over(COMPARISON_INPUTS)
def test_gap_scan_matches_forward_only_walk(source):
    """The gap-only scan ends with as many elements as the reference's
    forward-only walk, after no more created vertices and merges."""
    res, reference = engine_and_reference(source)
    assert res.completed and reference is not None
    assert res.stats.live == len(reference.actions[0])
    assert res.stats.vertices_created <= reference.created
    assert res.stats.merges <= reference.merges


# The settings of every property test here: derandomized, so that a failure
# reproduces from the test alone, with no example database and no deadline.
# Shrinking is off, since on a faulty engine it can take minutes (Hypothesis
# caps it only at 300 s): a failure reports the first example found.
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    phases=[phase for phase in Phase if phase is not Phase.shrink])


@st.composite
def small_presentations(draw, max_primaries=1):
    """2-3 generators on edges of their own, labels 2-3, one or two
    universal words and at most ``max_primaries`` primary relations, of
    1-6 letters."""
    ngens = draw(st.integers(2, 3))
    gens = [GeneratorSymbol(i, "abc"[i]) for i in range(ngens)]
    labels = draw(st.lists(st.integers(2, 3), min_size=ngens, max_size=ngens))
    letter = st.builds(Letter, st.sampled_from(gens), st.sampled_from((1, -1)))
    word = st.lists(letter, min_size=1, max_size=6).map(GroupWord).filter(len)
    universals = draw(st.lists(word, min_size=1, max_size=2))
    primaries = [
        PrimaryRelation(draw(st.sampled_from(gens)), w, draw(st.sampled_from(gens)))
        for w in draw(st.lists(word, max_size=max_primaries))
    ]
    edge_of = {gen: gen.id + 1 for gen in gens}
    pres = Presentation(gens, edge_of, labels, primaries, universals)
    return expand_relations(pres)


@settings(PROPERTY, max_examples=120)
@given(small_presentations())
def test_gap_scan_matches_forward_only_walk_on_random_presentations(brute_force, pres):
    res = enumerate_quandle(pres, EnumerationLimits(3000, 10**6))
    reference = ReferenceGraph(pres, 3000).run()
    if reference is not None:
        assert res.completed
        assert_matches_the_reference(res.graph, reference)
    if res.completed:
        assert not [v for v in brute_force(res.graph, pres) if v.startswith("A3")]
    # the one-pass sweep leaves no universal loop open; verify rejects a
    # primary joining generators of unequal labels whatever the engine does
    if res.completed and all(pres.label_of(r.lhs_base) == pres.label_of(r.rhs) for r in pres.primaries):
        assert verify(res.graph, pres) == []


@settings(PROPERTY, max_examples=150)
@given(small_presentations(max_primaries=2), st.integers(0, 2**32 - 1))
def test_verify_matches_the_every_generator_check_on_random_presentations(pres, seed):
    """On each completed example and on a randomly swapped copy of it."""
    res = enumerate_quandle(pres, EnumerationLimits(3000, 10**6))
    if res.completed:
        assert_verify_matches_reference(res.graph, pres)
        if res.graph.actions.shape[1] >= 2:
            assert_verify_matches_reference(_random_swaps(res.graph, np.random.default_rng(seed)), pres)


def test_shared_tables_match_two_tables_on_random_presentations():
    """The same quandle as the two-table reference's, in the standard
    numbering, wherever the reference completes.  Over 3,000 such
    examples, 2,564 completed on both sides and none on one alone."""
    completed = []

    @settings(PROPERTY, max_examples=150)
    @given(small_presentations(max_primaries=2))
    def check(pres):
        res = enumerate_quandle(pres, EnumerationLimits(3000, 10**6))
        reference = ReferenceGraph(pres, 3000).run()
        completed.append(reference is not None)
        if completed[-1]:
            assert res.completed
            assert_matches_the_reference(res.graph, reference)

    check()
    assert sum(completed) >= len(completed) / 2


def test_universal_rewrites_keep_sizes_on_random_presentations():
    """Rotating a universal word by one letter (a conjugate), inverting
    one, and reversing their order impose the same relations, so they
    leave the size and the component sizes unchanged."""
    completed = []

    @settings(PROPERTY, max_examples=100)
    @given(small_presentations())
    def check(pres):
        first, second, *rest = loop_words(pres)
        rotated = GroupWord(first.letters[1:] + first.letters[:1])
        universals = [rotated, invert(second), *rest][::-1]
        rewritten = Presentation(pres.generators, pres.edge_of, pres.labels, pres.primaries, universals)
        limits = EnumerationLimits(3000, 10**6)
        a, b = enumerate_quandle(pres, limits), enumerate_quandle(rewritten, limits)
        completed.append(a.completed and b.completed)
        if completed[-1]:
            assert b.stats.live == a.stats.live
            assert components(b.graph)[1] == components(a.graph)[1]

    check()
    assert sum(completed) >= len(completed) / 2


@settings(PROPERTY, max_examples=100)
@given(small_presentations())
def test_live_rows_name_only_live_vertices_on_random_presentations(pres):
    InvariantCheckingGraph(pres, EnumerationLimits(3000, 10**6)).run()


def test_primary_order_keeps_sizes_on_random_presentations():
    """Reversing the primaries, and so the order of their secondary
    relations, imposes the same relations, so it leaves the size and the
    sorted component sizes unchanged."""
    completed = []

    @settings(PROPERTY, max_examples=60)
    @given(small_presentations(max_primaries=2))
    def check(pres):
        derived = set(expand_relations(
            Presentation(pres.generators, pres.edge_of, pres.labels, pres.primaries)
        ).universals)
        given_universals = [word for word in pres.universals if word not in derived]
        reversed_ = Presentation(pres.generators, pres.edge_of, pres.labels, pres.primaries[::-1],
                                 given_universals)
        limits = EnumerationLimits(3000, 10**6)
        a, b = enumerate_quandle(pres, limits), enumerate_quandle(reversed_, limits)
        completed.append(a.completed and b.completed)
        if completed[-1]:
            assert b.stats.live == a.stats.live
            assert sorted(map(len, components(b.graph)[0])) == sorted(map(len, components(a.graph)[0]))

    check()
    assert sum(completed) >= len(completed) / 2


def _renamed(pres, order):
    """The presentation with generator ``order[i]`` renamed ``g<i>`` and
    given dense id i; edges, labels and relations carry over."""
    new = {pres.generators[old]: GeneratorSymbol(i, f"g{i}") for i, old in enumerate(order)}

    def word(w):
        return GroupWord([Letter(new[letter.gen], letter.sign) for letter in w])

    return Presentation(
        sorted(new.values()),
        {new[gen]: edge for gen, edge in pres.edge_of.items()},
        pres.labels,
        [PrimaryRelation(new[r.lhs_base], word(r.word), new[r.rhs]) for r in pres.primaries],
        [word(w) for w in pres.universals],
    )


def test_generator_renaming_keeps_the_quandle_on_random_presentations():
    """Renaming and reordering the generators changes neither the size,
    nor the sorted component sizes, nor the canonical code of any
    generator's component once its actions are read in the old order."""
    completed = []

    @settings(PROPERTY, max_examples=100)
    @given(small_presentations(), st.randoms(use_true_random=False))
    def check(pres, rng):
        order = list(range(len(pres.generators)))
        rng.shuffle(order)
        limits = EnumerationLimits(3000, 10**6)
        a, b = enumerate_quandle(pres, limits), enumerate_quandle(_renamed(pres, order), limits)
        completed.append(a.completed and b.completed)
        if not completed[-1]:
            return
        assert b.stats.live == a.stats.live
        assert sorted(map(len, components(b.graph)[0])) == sorted(map(len, components(a.graph)[0]))
        new_id = np.argsort(order)  # new_id[g]: the id generator g was given
        names = [gen.name for gen in pres.generators]
        for gen in pres.generators:
            code = canonical_code_of_actions(
                b.graph.actions[new_id], int(b.graph.basepoint[new_id[gen.id]]), names
            )
            assert code == canonical_code(a.graph, a.graph.basepoint[gen.id])

    check()
    assert sum(completed) >= len(completed) / 2


def _with_derived_generator(pres, base, word):
    """The presentation with a generator h added on ``base``'s edge by the
    primary relation base^word = h.  This is a Tietze move (Fenn and
    Rourke, 1992): h names an element the old generators already give,
    and S_h, a conjugate of S_base, already meets the power relation of
    their edge, so the N-quandle is the same."""
    h = GeneratorSymbol(len(pres.generators), "h")
    return Presentation([*pres.generators, h], {**pres.edge_of, h: pres.edge_of[base]}, pres.labels,
                        [*pres.primaries, PrimaryRelation(base, word, h)], pres.universals)


def assert_same_quandle_on_the_old_generators(old, new):
    """``new`` enumerates a presentation that extends ``old``'s generators:
    the same size, sorted component sizes, and canonical code of each old
    generator's component, read on the old generators' rows."""
    assert new.stats.live == old.stats.live
    assert sorted(map(len, components(new.graph)[0])) == sorted(map(len, components(old.graph)[0]))
    gens = old.graph.pres.generators
    names = [gen.name for gen in gens]
    for gen in gens:
        code = canonical_code_of_actions(new.graph.actions[:len(gens)], int(new.graph.basepoint[gen.id]), names)
        assert code == canonical_code(old.graph, old.graph.basepoint[gen.id])


def test_derived_generator_keeps_the_quandle_on_random_presentations():
    """Unlike the rewrites above, this move changes the generating set and
    adds a relation, so an engine fault that depends on the words traced
    rather than on the quandle presented shows as a changed size or code."""
    completed = []

    @settings(PROPERTY, max_examples=100)
    @given(small_presentations(max_primaries=2), st.data())
    def check(pres, data):
        letter = st.builds(Letter, st.sampled_from(pres.generators), st.sampled_from((1, -1)))
        base = data.draw(st.sampled_from(pres.generators))
        word = GroupWord(data.draw(st.lists(letter, max_size=4)))
        limits = EnumerationLimits(3000, 10**6)
        a = enumerate_quandle(pres, limits)
        b = enumerate_quandle(_with_derived_generator(pres, base, word), limits)
        completed.append(a.completed and b.completed)
        if completed[-1]:
            assert_same_quandle_on_the_old_generators(a, b)

    check()
    assert sum(completed) >= len(completed) / 2


def test_derived_generator_keeps_the_quandle_on_the_battery():
    """Two derived generators, each on its own, on each finite diagram."""
    rng = random.Random(16)
    for name in ("theta3", "h1", "kt", "hopf", "k4planar", "dh"):
        pres = diagram_presentation(name)
        before = enumerate_ok(pres, 10**6)
        for _ in range(2):
            base = rng.choice(pres.generators)
            word = GroupWord(Letter(rng.choice(pres.generators), rng.choice((1, -1)))
                             for _ in range(rng.randint(1, 4)))
            after = enumerate_ok(_with_derived_generator(pres, base, word), 10**6)
            assert_same_quandle_on_the_old_generators(before, after)


@settings(PROPERTY, max_examples=100)
@given(small_presentations())
def test_two_runs_agree_on_random_presentations(pres):
    limits = EnumerationLimits(3000, 10**6)
    a, b = enumerate_quandle(pres, limits), enumerate_quandle(pres, limits)
    assert (a.outcome, a.stats) == (b.outcome, b.stats)
    if a.completed:
        for name in ("actions", "inverses", "basepoint"):
            assert np.array_equal(getattr(a.graph, name), getattr(b.graph, name)), name


@over(COMPARISON_INPUTS)
def test_compaction_changes_no_output(source):
    """Compacting the rows of dead vertices changes neither the finished
    quandle, numbered as it stands, nor a counter."""
    pres = comparison_presentation(source)
    limits = EnumerationLimits(2_000_000, 10**9)
    reference, graph = UncompactedGraph(pres, limits), CayleyGraph(pres, limits)
    assert reference.run() and graph.run()
    assert reference.size == reference.stats.vertices_created
    assert graph.stats == reference.stats
    a, b = reference.finalize(), graph.finalize()
    for name in ("actions", "inverses", "basepoint"):
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    if source == GKMN_16_8_8:
        assert len(graph.parent) < graph.stats.vertices_created


# budgets at which dead rows have come to outnumber live ones, so the run compacts
@pytest.mark.parametrize("limits", [
    EnumerationLimits(2_000_000, 400_000), EnumerationLimits(60_000, 10**9),
])
def test_compaction_changes_no_counter_of_a_limited_run(limits):
    pres = expand_relations(family_presentation(FamilyParams("K4knot")))
    reference, graph = UncompactedGraph(pres, limits), CayleyGraph(pres, limits)
    assert not reference.run() and not graph.run()
    assert graph.stats == reference.stats
    assert len(graph.parent) < graph.stats.vertices_created


def test_rows_held_follow_the_live_count():
    """Gkmn(16,8,8) creates 115,273 vertices, at most 34,555 of them live
    at once; compaction keeps the rows held within twice that peak plus
    one growth chunk."""
    graph = PeakLiveGraph(expand_relations(family_presentation(GKMN_16_8_8)), EnumerationLimits())
    assert graph.run()
    assert graph.stats.vertices_created == 115_273
    assert graph.peak_live == 34_555
    assert all(len(table) == len(graph.parent) for table, _ in graph.pairs)
    assert len(graph.parent) <= 2 * graph.peak_live + engine._CHUNK


def assert_sweeps_agree(pres, limits):
    """The enumerator ends where :class:`PlainSweepGraph` does, with the same
    counters, rows and arrays.  Returns the two graphs, finalized."""
    plain, graph = PlainSweepGraph(pres, limits), CayleyGraph(pres, limits)
    done = plain.run()
    assert graph.run() == done
    assert graph.stats == plain.stats
    assert graph.size == plain.size
    a, b = plain.finalize(), graph.finalize()
    for name in ("actions", "inverses", "basepoint"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    return plain, graph


@over(EQUIVALENCE_INPUTS)
def test_sweep_matches_the_plain_sweep(source):
    assert_sweeps_agree(comparison_presentation(source), EnumerationLimits(2_000_000, 10**9))


@pytest.mark.parametrize("max_vertices, created", [(5000, 5003), (40_000, 40_001)])
def test_sweep_matches_the_plain_sweep_at_a_vertex_budget(max_vertices, created):
    limits = EnumerationLimits(max_vertices, 10**9)
    _, graph = assert_sweeps_agree(expand_relations(family_presentation(FamilyParams("K4knot"))), limits)
    assert graph.stats.vertices_created == created


@pytest.mark.parametrize("max_steps", [20_000, 200_000])
def test_sweep_matches_the_plain_sweep_at_a_step_budget(max_steps):
    limits = EnumerationLimits(2_000_000, max_steps)
    _, graph = assert_sweeps_agree(expand_relations(family_presentation(FamilyParams("K4knot"))), limits)
    assert graph.stats.steps == {20_000: 20_047, 200_000: 200_009}[max_steps]


class CheckRecorder(PlainSweepGraph):
    """The plain sweep, recording its counters at each budget check."""

    def __init__(self, pres, limits):
        self.checks = []
        super().__init__(pres, limits)

    def over_budget(self):
        stats = self.stats
        self.checks.append(dict(stats.as_dict(), live=stats.vertices_created - stats.merges))
        return super().over_budget()


def test_run_stops_at_the_first_check_past_a_budget():
    """Under each budget, the run stops with the counters of the first
    check at which a count is over it: one less than the count at a check
    stops the run there, and the count itself lets it go on.  The checks
    are those after the basepoints, after each of the 3 primaries and
    after each live sweep vertex's loops."""
    pres = expand_relations(family_presentation(FamilyParams("K4knot")))
    recorder = CheckRecorder(pres, EnumerationLimits(2_000_000, 20_000))
    assert not recorder.run()
    checks = recorder.checks
    assert len(pres.primaries) == 3 and len(checks) > 100
    assert checks[0] == dict(vertices_created=9, merges=0, relations_traced=0, steps=0, live=9)
    for k in (0, 1, 2, 3, 4, 5, 50, 100):
        for key, budget_of in (("steps", lambda b: EnumerationLimits(2_000_000, b)),
                               ("vertices_created", lambda b: EnumerationLimits(b, 10**9))):
            for budget in (checks[k][key] - 1, checks[k][key]):
                if budget < 1:
                    continue
                _, graph = assert_sweeps_agree(pres, budget_of(budget))
                stop = next(check for check in checks if check[key] > budget)
                assert graph.stats.as_dict() == stop, (key, budget)


def test_the_check_after_the_last_vertex_stops_a_run():
    """The last check comes after the last sweep vertex's loops, which
    take steps at every vertex: one step less than a completed run takes
    stops it there, with every count of the completed run, and the same
    number of steps lets it complete."""
    pres = theta()
    completed = enumerate_ok(pres).stats
    assert completed.steps == 158
    for budget, done in ((157, False), (158, True)):
        graph = CayleyGraph(pres, EnumerationLimits(1000, budget))
        assert graph.run() == done
        assert graph.stats == completed


@settings(PROPERTY, max_examples=100)
@given(small_presentations(max_primaries=2), st.integers(3, 3000), st.integers(1, 10**5))
def test_sweep_matches_the_plain_sweep_on_random_presentations(pres, max_vertices, max_steps):
    assert_sweeps_agree(pres, EnumerationLimits(max_vertices, max_steps))
