"""Enumeration engine: tracing, collapsing, completion, verification."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quandleforge import (
    EdgeLabeling,
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
    parse_diagram,
    parse_presentation,
    parse_word,
    quandle_table,
    verify,
    wirtinger,
)
from quandleforge import engine
from quandleforge.engine import CayleyGraph, _LimitHit
from quandleforge.families import load_diagram_text, table1_rows
from quandleforge.presentation import UniversalRelation
from quandleforge.words import GeneratorSymbol, GroupWord, Letter

THETA = "gens: a b c\nedges: a:1 b:2 c:3\nlabels: 3 3 2\nrel * : a b c\n"


def theta(labels=(3, 3, 2)):
    return expand_relations(parse_presentation(THETA).with_labels(labels))


def enumerate_ok(pres, limit=100000):
    res = enumerate_quandle(pres, EnumerationLimits(limit, 10**9))
    assert res.completed
    return res


def run_graph(pres, limits):
    """A completed CayleyGraph, for tests that read its union-find state."""
    graph = CayleyGraph(pres, limits)
    assert graph.run()
    return graph


class ForwardOnlyGraph(CayleyGraph):
    """The enumerator with the forward-only walk that ``trace`` replaced,
    kept as an oracle: it creates a vertex for every undefined letter but
    the last, then closes the last letter onto the goal."""

    def trace(self, start, letters, target=None):
        parent = self.parent
        find = self.find
        cur = start if parent[start] == start else find(start)
        if target is None:
            goal = cur
        else:
            goal = target if parent[target] == target else find(target)
        if not letters:
            return [] if goal == cur else [(cur, goal)]
        pending = []
        max_steps = self.limits.max_steps
        steps = self.stats.steps
        last = len(letters) - 1
        try:
            for i, (out_table, in_table) in enumerate(letters):
                steps += 1
                if steps > max_steps:
                    raise _LimitHit
                nxt = out_table[cur]
                if nxt >= 0:
                    if parent[nxt] != nxt:
                        nxt = find(nxt)
                    if i == last and nxt != goal:
                        pending.append((nxt, goal))
                    cur = nxt
                elif i < last:
                    new = self.add_vertex()
                    out_table[cur] = new
                    in_table[new] = cur
                    cur = new
                else:
                    back = in_table[goal]
                    if back >= 0:
                        if parent[back] != back:
                            back = find(back)
                        if back != cur:
                            pending.append((back, cur))
                    else:
                        out_table[cur] = goal
                        in_table[goal] = cur
        finally:
            self.stats.steps = steps
        return pending


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
    assert res.stats.vertices_created >= 10000
    assert res.stats.live > 0


def _fresh_graph(cls=CayleyGraph):
    # enumeration state right after the basepoint loops, no relations traced
    pres = theta((2, 2, 2))
    return pres, cls(pres, EnumerationLimits(1000, 10**6))


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
    # the forward-only walk also creates a vertex for the defined suffix,
    # to be merged into va
    oracle = _fresh_graph(ForwardOnlyGraph)[1]
    v = oracle.add_vertex()
    assert oracle.trace(v, oracle.letters(word), va) == [(va, v + 3)]
    assert oracle.stats.vertices_created == 4 + 3
    assert oracle.stats.steps == 4


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


def test_trace_complete_forward_scan_returns_endpoints():
    pres, graph = _fresh_graph()
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
    pres, graph = _fresh_graph()
    a = pres.generators[0].id
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
            pres.generators, pres.edge_of, pres.labeling, pres.primaries, universals
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
    for g, gen in enumerate(graph.gens):
        b = graph.basepoint[gen.id]
        assert np.array_equal(table[:, b], graph.actions[g])


def test_verify_passes_on_h1():
    from quandleforge.families import load_family_text

    pres = expand_relations(parse_presentation(load_family_text("H1")))
    res = enumerate_ok(pres)
    assert res.stats.live == 32
    assert verify(res.graph, pres) == []


def test_verify_reports_fault_injection():
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
    violations = verify(graph.finalize(), pres)
    assert violations == [
        "universal relation x^[a b c] = x open at element 1",
        "universal relation x^[a a a] = x open at element 1",
        "point symmetry of a does not have order dividing 3",
        "axiom A3 fails under the point symmetry of a",
        "axiom A3 fails under the point symmetry of b",
        "axiom A3 fails under the point symmetry of c",
        "axiom A3 fails at element 0",
        "element 0 violates the order of its component label",
    ]


def test_blockwise_table_checks_match_whole_table():
    """The row-block A2/A3 checks agree with the same checks written on
    the whole table, including a fault in the last, partial block."""
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
    cases = [(dihedral, True), (broken, False), (shuffled, True), (arbitrary, False)]
    for rows, permutations in cases:
        table = rows.T
        whole_a2 = np.array_equal(np.sort(table, axis=0), np.tile(identity[:, None], (1, n)))
        assert whole_a2 == permutations
        assert engine._rows_are_permutations(rows) == whole_a2
        for u in (dihedral[3], dihedral[n - 1], rng.permutation(n)):
            whole_a3 = np.array_equal(u[table], table[np.ix_(u, u)])
            assert engine._preserves_table(rows, u) == whole_a3
    assert engine._preserves_table(dihedral, dihedral[3])
    assert not engine._preserves_table(broken, dihedral[3])


def test_verify_memory_is_one_table():
    """verify holds one n x n int64 table and O(g n) besides."""
    pres = expand_relations(family_presentation(FamilyParams("DH", labels=(2, 2, 2, 3, 2, 4))))
    graph = enumerate_ok(pres, limit=10**6).graph
    n = graph.actions.shape[1]
    assert n == 2976
    tracemalloc.start()
    try:
        assert verify(graph, pres) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n


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
    names = [g.name for g in graph.gens]
    assert canonical_code_of_actions(relabeled, perm[base], names) == code


def test_canonical_code_distinguishes_components():
    graph = enumerate_ok(theta()).graph
    code_a = canonical_code(graph, graph.basepoint[0])
    code_c = canonical_code(graph, graph.basepoint[2])
    assert code_a != code_c  # sizes 4 and 6


def test_vacuous_universal_dropped_and_empty_primary_merges():
    pres = parse_presentation(
        "gens: a b\nedges: a:1 b:2\nlabels: 2 2\nrel a :  = b\n"
    )
    res = enumerate_ok(expand_relations(pres))
    # a = b identifies the two basepoints immediately
    assert res.graph.basepoint[0] == res.graph.basepoint[1]
    assert res.stats.live == 1


def test_unexpanded_presentation_names_expand_relations():
    # no power relations for b and c, so their actions stay partial
    pres = parse_presentation("gens: a b c\nedges: a:1 b:2 c:3\nlabels: 2 2 2\nrel * : a a\n")
    with pytest.raises(ValueError, match="expand_relations"):
        enumerate_quandle(pres, EnumerationLimits(1000, 10**6))


def test_limits_reject_vertex_ids_beyond_int32():
    assert EnumerationLimits(max_vertices=2**31 - 1).max_vertices == 2**31 - 1
    with pytest.raises(ValueError, match="int32"):
        EnumerationLimits(max_vertices=2**31)


# engine counters of the gap-only scan; any change to the algorithm, its
# order or its numbering shows here.  Against the forward-only walk
# (ForwardOnlyGraph), created, merges and steps fell; live and relations
# traced of the completed runs are unchanged
@pytest.mark.parametrize("params, limits, counters", [
    (FamilyParams("K4knot"), EnumerationLimits(2_000_000, 20_000), (3526, 1236, 6389, 20001, 2290)),
    (FamilyParams("K4knot"), EnumerationLimits(5000, 10**9), (5000, 1701, 9001, 28142, 3299)),
    (FamilyParams("Gkmn", k=2, m=3, n=5), EnumerationLimits(), (772, 620, 1540, 5856, 152)),
    (FamilyParams("DH", labels=(2, 2, 2, 3, 2, 2)), EnumerationLimits(), (353, 251, 1430, 4027, 102)),
    (FamilyParams("theta3", labels=(3, 3, 2)), EnumerationLimits(), (18, 4, 56, 158, 14)),
])
def test_engine_counters_pinned(params, limits, counters):
    stats = enumerate_quandle(expand_relations(family_presentation(params)), limits).stats
    keys = ("vertices_created", "merges", "relations_traced", "steps", "live")
    assert stats.as_dict() == dict(zip(keys, counters))


def test_memory_per_created_vertex():
    """int32 tables and one parent entry per vertex id: about 8 g + 38
    bytes per created vertex, live or dead."""
    pres = expand_relations(family_presentation(FamilyParams("K4knot")))
    g = len(pres.generators)
    assert g == 9
    tracemalloc.start()
    try:
        res = enumerate_quandle(pres, EnumerationLimits(2_000_000, 200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.outcome == "limit-exceeded"
    assert res.stats.vertices_created == 28423
    assert peak / res.stats.vertices_created <= 8 * g + 64


def _run_both(pres, limits):
    """The forward-only oracle and the enumerator, each run to its end."""
    oracle, graph = ForwardOnlyGraph(pres, limits), CayleyGraph(pres, limits)
    return oracle, oracle.run(), graph, graph.run()


def assert_same_quandle_with_less_work(oracle, graph):
    a, b = oracle.finalize(), graph.finalize()
    assert a.actions.shape == b.actions.shape
    for name in ("actions", "inverses", "basepoint"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    ref, new = oracle.stats, graph.stats
    assert (new.live, new.relations_traced) == (ref.live, ref.relations_traced)
    assert new.vertices_created <= ref.vertices_created
    assert new.merges <= ref.merges
    # both charge one step per letter traced, so only merges are saved
    assert ref.steps - new.steps == ref.merges - new.merges
    assert new.vertices_created - new.merges == new.live


EQUIVALENCE_INPUTS = (
    [
        (f"table1-{row['family']}-{'_'.join(map(str, row['labels']))}",
         FamilyParams(row["family"], labels=tuple(row["labels"])))
        for row in table1_rows() if not row.get("slow")
    ]
    + [(f"Gkm-{k}_{m}", FamilyParams("Gkm", k=k, m=m)) for k in range(1, 5) for m in range(1, 5)]
    + [
        (f"Gkmn-{k}_{m}_{n}", FamilyParams("Gkmn", k=k, m=m, n=n))
        for k in range(1, 5) for m in range(1, 5) for n in range(1, 5)
    ]
    + [("diagram-kt", None)]
)


@pytest.mark.parametrize(
    "params", [p for _, p in EQUIVALENCE_INPUTS], ids=[name for name, _ in EQUIVALENCE_INPUTS]
)
def test_gap_scan_matches_forward_only_walk(params):
    """The gap-only scan ends with the quandle of the forward-only walk,
    numbered the same, after fewer created vertices and merges."""
    if params is None:
        pres = expand_relations(wirtinger(parse_diagram(load_diagram_text("kt"))))
    else:
        pres = expand_relations(family_presentation(params))
    oracle, oracle_done, graph, done = _run_both(pres, EnumerationLimits(2_000_000, 10**9))
    assert oracle_done and done
    assert_same_quandle_with_less_work(oracle, graph)


@st.composite
def small_presentations(draw):
    """2-3 generators on edges of their own, labels 2-3, one or two
    universal words and at most one primary relation, of 1-6 letters."""
    ngens = draw(st.integers(2, 3))
    gens = [GeneratorSymbol(i, "abc"[i]) for i in range(ngens)]
    labels = draw(st.lists(st.integers(2, 3), min_size=ngens, max_size=ngens))
    letter = st.builds(Letter, st.sampled_from(gens), st.sampled_from((1, -1)))
    word = st.lists(letter, min_size=1, max_size=6).map(GroupWord).filter(len)
    universals = [UniversalRelation(w) for w in draw(st.lists(word, min_size=1, max_size=2))]
    primaries = [
        PrimaryRelation(draw(st.sampled_from(gens)), w, draw(st.sampled_from(gens)))
        for w in draw(st.lists(word, max_size=1))
    ]
    edge_of = {gen: gen.id + 1 for gen in gens}
    pres = Presentation(gens, edge_of, EdgeLabeling(tuple(labels)), primaries, universals)
    return expand_relations(pres)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(small_presentations())
def test_gap_scan_matches_forward_only_walk_on_random_presentations(pres):
    oracle, oracle_done, graph, done = _run_both(pres, EnumerationLimits(3000, 10**6))
    if oracle_done:
        assert done
        assert_same_quandle_with_less_work(oracle, graph)
    # the one-pass sweep leaves no universal loop open; verify rejects a
    # primary joining generators of unequal labels whatever the engine does
    if done and all(pres.label_of(r.lhs_base) == pres.label_of(r.rhs) for r in pres.primaries):
        assert verify(graph.finalize(), pres) == []
