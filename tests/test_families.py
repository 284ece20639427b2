"""Family constructors, closed-form sizes, and the explicit component models."""

import numpy as np
import pytest

from quandleforge import (
    EnumerationLimits,
    FamilyParams,
    build_explicit_Qa,
    build_explicit_Qd,
    canonical_code,
    components,
    enumerate_quandle,
    expand_relations,
    family_presentation,
    gkm_size,
    gkmn_size,
)
from quandleforge.families import GENERATOR_ORDER, load_family_text, table1_rows


def enum(pres, limit=200000):
    res = enumerate_quandle(expand_relations(pres), EnumerationLimits(limit, 10**9))
    assert res.completed
    return res


def test_gkmn_presentation_shape():
    pres = family_presentation(FamilyParams("Gkmn", k=4, m=3, n=3))
    assert [g.name for g in pres.generators] == list("abcdef")
    assert pres.labels == (2, 2, 3, 3, 2, 2)
    assert len(pres.universals) == 4
    assert len(expand_relations(pres).universals) == 10


def test_gkmn_size_examples():
    assert gkmn_size(4, 3, 3) == 192
    assert gkmn_size(1, 1, 1) == 8
    assert gkmn_size(2, 3, 5) == 152
    with pytest.raises(ValueError):
        gkmn_size(0, 1, 1)


def test_gkm_size_examples():
    assert gkm_size(3, 2) == 18
    assert gkm_size(1, 1) == 4
    assert gkm_size(4, 3) == 32
    with pytest.raises(ValueError):
        gkm_size(1, 0)


def test_gkmn_small_enumerations():
    assert enum(family_presentation(FamilyParams("Gkmn", k=1, m=1, n=1))).stats.live == 8
    assert enum(family_presentation(FamilyParams("Gkmn", k=2, m=3, n=5))).stats.live == 152
    assert enum(family_presentation(FamilyParams("Gkm", k=3, m=2))).stats.live == 18


def test_gkmn_labels_are_fixed():
    with pytest.raises(ValueError):
        family_presentation(FamilyParams("Gkmn", k=2, m=2, n=2, labels=(2, 2, 2, 2, 2, 3)))
    with pytest.raises(ValueError):
        family_presentation(FamilyParams("Gkmn", k=0, m=2, n=2))
    with pytest.raises(ValueError):
        family_presentation(FamilyParams("Gkmn", k=2, m=2))


@pytest.mark.parametrize("params, message", [
    (FamilyParams("Gkm", k=1, m=2, n=5), "Gkm takes no --n"),
    (FamilyParams("theta3", k=3), "theta3 takes no --k"),
    (FamilyParams("K4knot", m=2), "K4knot takes no --m"),
])
def test_unread_parameters_are_rejected(params, message):
    with pytest.raises(ValueError, match=message):
        family_presentation(params)


def test_unknown_family():
    with pytest.raises(ValueError):
        family_presentation(FamilyParams("nosuch"))


def test_negative_twists_mirror_size():
    for k, m, n in [(1, 2, 2), (2, 2, 3), (3, 2, 2)]:
        mirror = enum(family_presentation(FamilyParams("Gkmn", k=-k, m=m, n=n)))
        assert mirror.stats.live == gkmn_size(k, m, n)
    assert enum(family_presentation(FamilyParams("Gkm", k=-2, m=3))).stats.live == gkm_size(2, 3)


def test_theta3_loads_and_enumerates():
    pres = family_presentation(FamilyParams("theta3", labels=(2, 2, 2)))
    assert enum(pres).stats.live == 6


def test_family_label_length_checked():
    with pytest.raises(ValueError):
        family_presentation(FamilyParams("theta3", labels=(2, 2)))


def test_checksum_guard(monkeypatch):
    import quandleforge.families as fam

    real = fam._read_data_text

    def tampered(name):
        text = real(name)
        return text + "# tampered\n" if name.endswith("theta3.txt") else text

    monkeypatch.setattr(fam, "_read_data_text", tampered)
    with pytest.raises(ValueError, match="checksum"):
        fam.load_family_text("theta3")


def test_table1_checksum_guard(monkeypatch):
    import quandleforge.families as fam

    real = fam._read_data_text

    def tampered(name):
        text = real(name)
        return text.replace('"expected": 14', '"expected": 15') if name == "table1.json" else text

    assert real("table1.json") != tampered("table1.json")
    monkeypatch.setattr(fam, "_read_data_text", tampered)
    with pytest.raises(ValueError, match="checksum"):
        fam.table1_rows()


@pytest.mark.parametrize("params, fixed", [
    (FamilyParams("Gkmn", k=-2, m=3, n=4), (2, 2, 3, 4, 2, 2)),
    (FamilyParams("Gkm", k=2, m=3), (2, 2, 3)),
])
def test_twist_family_labels_are_fixed(params, fixed):
    assert family_presentation(params).labels == fixed
    same = FamilyParams(params.family, params.k, params.m, params.n, labels=fixed)
    assert family_presentation(same).labels == fixed
    other = FamilyParams(params.family, params.k, params.m, params.n, labels=fixed[:2] + (5,) + fixed[3:])
    with pytest.raises(ValueError, match=f"{params.family} labels are fixed to"):
        family_presentation(other)


def test_checksums_cover_all_data_files():
    import quandleforge.families as fam

    sums = fam._checksums()
    for family in fam._DATA_FILES.values():
        assert family in sums
    for name in ("unknot", "hopf", "theta3", "kt", "h1", "h2", "dh", "k4planar", "k4knot"):
        assert f"diagrams/{name}.txt" in sums


def test_table1_manifest_shape():
    rows = table1_rows()
    assert len(rows) == 21
    for row in rows:
        assert set(row) == {"family", "labels", "expected"}
        assert row["family"] in ("theta3", "KT", "H1", "H2", "DH", "K4planar")


# -- explicit component models -------------------------------------------


def test_qa_model_actions_match_stated_examples():
    qa = build_explicit_Qa(4, 3, 3)
    idx = {x: i for i, x in enumerate(qa.elements)}
    # d steps the last coordinate
    assert qa.actions["d"][idx[(0, 0, 0)]] == idx[(0, 0, 1)]
    # a at the lower boundary folds onto itself
    assert qa.actions["a"][idx[(0, 0, 0)]] == idx[(0, 0, 0)]
    # even k: crossing the top boundary (p = 3 odd steps up under a)
    # folds onto layer k-1 with both coordinates shifted up
    for q in range(3):
        for r in range(3):
            assert qa.actions["a"][idx[(3, q, r)]] == idx[(3, (-q + 1) % 3, (-r + 1) % 3)]


def test_qd_model_actions_match_stated_examples():
    qd = build_explicit_Qd(4, 3)
    idx = {x: i for i, x in enumerate(qd.elements)}
    assert qd.actions["d"][idx[(0, 0)]] == idx[(0, 0)]
    assert qd.actions["c"][idx[(0, 0)]] == idx[(0, 1)]
    # (ab)^k acts like stepping q down
    perm = np.arange(len(qd.elements))
    for _ in range(4):
        perm = qd.actions["b"][qd.actions["a"][perm]]
    for q in range(3):
        assert perm[idx[(0, q)]] == idx[(0, (q - 1) % 3)]


def test_models_are_permutations_with_right_orders():
    for k, m, n in [(1, 1, 1), (2, 3, 2), (3, 2, 4), (4, 4, 4)]:
        qa = build_explicit_Qa(k, m, n)
        assert qa.size == k * m * n
        qd = build_explicit_Qd(k, m)
        assert qd.size == 2 * k * m
        for comp, orders in ((qa, dict(a=2, b=2, e=2, f=2, c=m, d=n)),
                             (qd, dict(a=2, b=2, e=2, f=2, c=m, d=n))):
            size = comp.size
            for name, action in comp.actions.items():
                assert sorted(action.tolist()) == list(range(size))
                power = np.arange(size)
                for _ in range(orders[name]):
                    power = action[power]
                assert np.array_equal(power, np.arange(size)), (comp.kind, name)


def test_model_relation_identities():
    """The relation lemmas hold pointwise in the explicit models: d a d,
    d e and e d' all act like a; ab acts like ef; (ab)^k like c' d';
    c and d commute."""
    for k, m, n in [(1, 1, 1), (2, 2, 3), (3, 3, 2), (4, 3, 3)]:
        for comp in (build_explicit_Qa(k, m, n), build_explicit_Qd(k, m)):
            act = comp.actions
            n_el = comp.size
            ident = np.arange(n_el)
            inv = {name: np.argsort(a) for name, a in act.items()}

            def word(*names):
                out = ident
                for name in names:
                    table = inv[name[:-1]] if name.endswith("'") else act[name]
                    out = table[out]
                return out

            assert np.array_equal(word("d", "a", "d"), act["a"])
            assert np.array_equal(word("d", "e"), act["a"])
            assert np.array_equal(word("e", "d'"), act["a"])
            assert np.array_equal(word("d", "b", "d"), act["b"])
            assert np.array_equal(word("d", "f"), act["b"])
            assert np.array_equal(word("a", "b"), word("e", "f"))
            ab_k = ident
            for _ in range(k):
                ab_k = word("a", "b")[ab_k]
            assert np.array_equal(ab_k, word("c'", "d'"))
            assert np.array_equal(word("c", "d"), word("d", "c"))


def test_oracle_equivalence_small():
    for k, m, n in [(1, 1, 1), (2, 2, 2), (3, 2, 3)]:
        pres = expand_relations(family_presentation(FamilyParams("Gkmn", k=k, m=m, n=n)))
        graph = enumerate_quandle(pres, EnumerationLimits(100000, 10**9)).graph
        assert canonical_code(graph, graph.basepoint[0]) == build_explicit_Qa(k, m, n).canonical_code()
        assert canonical_code(graph, graph.basepoint[3]) == build_explicit_Qd(k, m).canonical_code()


def _labeled_graph_iso_exists(actions, inverses, members_a, members_b, perm, flip):
    """Propagate a vertex map from one anchor; the components are
    connected, so a consistent completion is exactly an isomorphism
    carrying g-edges to perm[g]-edges (reversed for generators in flip)."""
    def image_tables(g):
        table = inverses[perm[g]] if perm[g] in flip else actions[perm[g]]
        co = actions[perm[g]] if perm[g] in flip else inverses[perm[g]]
        return table, co

    start = members_a[0]
    for anchor in members_b:
        phi = {start: anchor}
        stack = [start]
        ok = True
        while stack and ok:
            x = stack.pop()
            for g in range(len(actions)):
                fwd_img, bwd_img = image_tables(g)
                for table, img in ((actions[g], fwd_img), (inverses[g], bwd_img)):
                    xx = int(table[x])
                    yy = int(img[phi[x]])
                    if xx in phi:
                        if phi[xx] != yy:
                            ok = False
                            break
                    else:
                        phi[xx] = yy
                        stack.append(xx)
                if not ok:
                    break
        if ok and len(phi) == len(members_a):
            return True
    return False


def test_component_isomorphisms_across_flype_and_slide():
    """The components of a, b, e, f are pairwise isomorphic as labeled
    graphs after relabeling generators by the group generated by the
    flype (a<->b, e<->f) and slide (a<->e, b<->f) symmetries, allowing
    the c and d edge reversals those isotopies introduce; the c component
    has 2kn elements."""
    flype_slide_group = [
        {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
        {0: 1, 1: 0, 2: 2, 3: 3, 4: 5, 5: 4},   # flype
        {0: 4, 1: 5, 2: 2, 3: 3, 4: 0, 5: 1},   # slide
        {0: 5, 1: 4, 2: 2, 3: 3, 4: 1, 5: 0},   # flype then slide
    ]
    for k, m, n in [(2, 2, 3), (3, 3, 2)]:
        pres = expand_relations(family_presentation(FamilyParams("Gkmn", k=k, m=m, n=n)))
        graph = enumerate_quandle(pres, EnumerationLimits(100000, 10**9)).graph
        actions = graph.actions
        inverses = [np.argsort(a) for a in actions]
        orbits, edge_sizes = components(graph)
        orbit_of = {}
        for i, orbit in enumerate(orbits):
            for x in orbit:
                orbit_of[x] = i

        def component_members(gen_idx):
            return orbits[orbit_of[int(graph.basepoint[gen_idx])]]

        def isomorphic(gen_i, gen_j):
            members_a = component_members(gen_i)
            members_b = component_members(gen_j)
            if len(members_a) != len(members_b):
                return False
            return any(
                _labeled_graph_iso_exists(actions, inverses, members_a, members_b, perm, flip)
                for perm in flype_slide_group
                for flip in (set(), {2}, {3}, {2, 3})
            )

        for gen_i in (0, 1, 4, 5):
            for gen_j in (0, 1, 4, 5):
                assert isomorphic(gen_i, gen_j), (k, m, n, gen_i, gen_j)
        assert edge_sizes[3] == 2 * k * n
