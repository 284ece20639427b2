"""Acceptance suite: the known quandle sizes, the closed-form family
results, the structural results about deletion/subdivision/divisor
labelings, and graceful behavior on the one case known to resist
enumeration.  All comparisons are exact; each criterion prints a
PASS/FAIL line (run pytest with -s to see them).
"""

import time

import numpy as np
import pytest

from quandleforge import (
    EnumerationLimits,
    FamilyParams,
    build_explicit_Qa,
    build_explicit_Qd,
    canonical_code,
    components,
    delete_edge,
    enumerate_quandle,
    expand_relations,
    family_presentation,
    gkm_size,
    gkmn_size,
    parse_diagram,
    parse_word,
    subdivide_edge,
    verify,
    wirtinger,
)
from quandleforge.cli import run as cli_run
from quandleforge.families import load_diagram_text, table1_rows

LIMITS = EnumerationLimits(max_vertices=2_000_000, max_steps=10**9)


def enum(pres, limits=LIMITS):
    return enumerate_quandle(expand_relations(pres), limits)


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: exact reproduction of every computed size ---------------

FAST_ROWS = [row for row in table1_rows() if not row.get("slow")]
SLOW_ROWS = [row for row in table1_rows() if row.get("slow")]


@pytest.mark.parametrize(
    "row", FAST_ROWS, ids=[f"{r['family']}-{'_'.join(map(str, r['labels']))}" for r in FAST_ROWS]
)
def test_criterion_1_size_table(row):
    res = enum(family_presentation(FamilyParams(row["family"], labels=tuple(row["labels"]))))
    got = res.stats.live if res.completed else None
    report(
        f"1 [{row['family']} {tuple(row['labels'])}]",
        got == row["expected"],
        f"got {got}, expected {row['expected']}",
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "row", SLOW_ROWS, ids=[f"{r['family']}-{'_'.join(map(str, r['labels']))}" for r in SLOW_ROWS]
)
def test_criterion_1_size_table_slow(row):
    start = time.time()
    res = enum(family_presentation(FamilyParams(row["family"], labels=tuple(row["labels"]))))
    got = res.stats.live if res.completed else None
    elapsed = time.time() - start
    report(
        f"1 [{row['family']} {tuple(row['labels'])}, slow]",
        got == row["expected"] and elapsed < 600,
        f"got {got}, expected {row['expected']} in {elapsed:.1f}s",
    )


# -- criteria 2 and 3: the twist-family size formulas ----------------------

def test_criterion_2_gkmn_sweep():
    bad = []
    for k in range(1, 5):
        for m in range(1, 5):
            for n in range(1, 5):
                res = enum(family_presentation(FamilyParams("Gkmn", k=k, m=m, n=n)))
                want_components = {1: k * m * n, 2: k * m * n, 3: 2 * k * n,
                                   4: 2 * k * m, 5: k * m * n, 6: k * m * n}
                if not res.completed or res.stats.live != gkmn_size(k, m, n):
                    bad.append((k, m, n, "size"))
                    continue
                _, edge_sizes = components(res.graph)
                if edge_sizes != want_components:
                    bad.append((k, m, n, "components"))
    report("2 [G(k,m,n) sweep 1..4]", not bad, f"failures: {bad}")


def test_criterion_3_gkm_sweep():
    bad = []
    for k in range(1, 5):
        for m in range(1, 5):
            res = enum(family_presentation(FamilyParams("Gkm", k=k, m=m)))
            if not res.completed or res.stats.live != gkm_size(k, m):
                bad.append((k, m))
    report("3 [G(k,m) sweep 1..4]", not bad, f"failures: {bad}")


# -- criterion 4: oracle isomorphism ---------------------------------------

def test_criterion_4_oracle_isomorphism():
    bad = []
    for k in range(1, 5):
        for m in range(1, 5):
            for n in range(1, 5):
                res = enum(family_presentation(FamilyParams("Gkmn", k=k, m=m, n=n)))
                graph = res.graph
                if canonical_code(graph, graph.basepoint[0]) != build_explicit_Qa(k, m, n).canonical_code():
                    bad.append((k, m, n, "Qa"))
                if canonical_code(graph, graph.basepoint[3]) != build_explicit_Qd(k, m).canonical_code():
                    bad.append((k, m, n, "Qd"))
    report("4 [oracle canonical codes]", not bad, f"failures: {bad}")


# -- criterion 5: exhaustive axiom suite on small quandles ------------------

def test_criterion_5_axiom_suite():
    bad = []
    checked = 0
    for row in FAST_ROWS:
        if row["expected"] > 400:
            continue
        pres = expand_relations(
            family_presentation(FamilyParams(row["family"], labels=tuple(row["labels"])))
        )
        res = enumerate_quandle(pres, LIMITS)
        violations = verify(res.graph, pres)
        checked += 1
        if violations:
            bad.append((row["family"], tuple(row["labels"]), violations[:3]))
    report("5 [axioms + order checks, size <= 400]", not bad and checked >= 12,
           f"{checked} quandles checked exhaustively; failures: {bad}")


# -- criterion 6: deletion, subdivision and divisor-label properties --------

def _diagram_quandle(spec):
    res = enum(wirtinger(spec))
    assert res.completed
    orbits, edge_sizes = components(res.graph)
    return res.stats.live, edge_sizes


def test_criterion_6_structural_lemmas():
    failures = []

    # subdivision: size grows by exactly the subdivided edge's component
    subdivision_battery = [
        (parse_diagram("arcs: 1\nedge: 1:1\nlabels: 3\n"), 1),
        (parse_diagram(load_diagram_text("theta3")), 1),
        (parse_diagram(load_diagram_text("theta3")), 3),
        (parse_diagram(load_diagram_text("h1")), 1),
        (parse_diagram(load_diagram_text("h1")), 3),
        (parse_diagram(load_diagram_text("kt")), 2),
    ]
    for spec, edge in subdivision_battery:
        before, edge_sizes = _diagram_quandle(spec)
        out, rep = subdivide_edge(spec, edge)
        after, _ = _diagram_quandle(out)
        if after != before + edge_sizes[edge] or rep.duplicated_component != edge:
            failures.append(("subdivide", spec, edge, before, after))

    # deletion with a unit label: size drops by exactly that component
    deletion_battery = [
        (parse_diagram(load_diagram_text("theta3")).with_labels((3, 3, 1)), 3),
        (parse_diagram(load_diagram_text("h1")).with_labels((3, 2, 1)), 3),
        (parse_diagram(load_diagram_text("hopf")).with_labels((2, 1)), 2),
        (parse_diagram(load_diagram_text("dh")).with_labels((2, 2, 2, 2, 2, 1)), 6),
        (parse_diagram(load_diagram_text("k4planar")).with_labels((3, 2, 2, 2, 2, 1)), 6),
    ]
    for spec, edge in deletion_battery:
        before, edge_sizes = _diagram_quandle(spec)
        out, rep = delete_edge(spec, edge)
        after, _ = _diagram_quandle(out)
        if after != before - edge_sizes[edge] or rep.removed_component != edge:
            failures.append(("delete", edge, before, after))

    # divisor labelings never grow the quandle
    divisor_battery = [
        ("theta3", (3, 3, 1), (3, 3, 2)),
        ("hopf", (2, 2), (2, 4)),
        ("k4planar", (3, 3, 2, 2, 2, 2), (3, 3, 2, 2, 2, 4)),
        ("dh", (2, 2, 2, 3, 2, 2), (2, 2, 2, 3, 2, 4)),
        ("h1", (3, 1, 2), (3, 2, 2)),
    ]
    for name, small, big in divisor_battery:
        spec = parse_diagram(load_diagram_text(name))
        assert all(x % y == 0 for x, y in zip(big, small))
        small_size, _ = _diagram_quandle(spec.with_labels(small))
        big_size, _ = _diagram_quandle(spec.with_labels(big))
        if small_size > big_size:
            failures.append(("divisor", name, small_size, big_size))

    report("6 [structural lemmas, 3 batteries]", not failures, f"failures: {failures}")


# -- criterion 7: relation lemmas as permutation identities ------------------

def _word_permutation(graph, text, pres):
    symbols = {g.name: g for g in pres.generators}
    actions = graph.actions
    inverses = [np.argsort(a) for a in actions]
    perm = np.arange(len(actions[0]))
    for letter in parse_word(text, symbols):
        table = actions[letter.gen.id] if letter.sign > 0 else inverses[letter.gen.id]
        perm = table[perm]
    return perm


def test_criterion_7_relation_lemmas():
    bad = []
    for k in range(1, 5):
        for m in range(1, 5):
            for n in range(1, 5):
                pres = expand_relations(family_presentation(FamilyParams("Gkmn", k=k, m=m, n=n)))
                graph = enumerate_quandle(pres, LIMITS).graph
                word = lambda text: _word_permutation(graph, text, pres)
                identity = np.arange(graph.actions.shape[1])
                checks = [
                    (word("d a d"), word("a")),
                    (word("d' a d'"), word("a")),
                    (word("d e"), word("a")),
                    (word("e d'"), word("a")),
                    (word("d b d"), word("b")),
                    (word("d' b d'"), word("b")),
                    (word("d f"), word("b")),
                    (word("f d'"), word("b")),
                    (word("a b"), word("e f")),
                    (word(f"(a b)^{k}"), word("c' d'")),
                    (word(f"(e f)^{k}"), word("c' d'")),
                    (word("c d c' d'"), identity),
                ]
                for i, (lhs, rhs) in enumerate(checks):
                    if not np.array_equal(lhs, rhs):
                        bad.append((k, m, n, i))
    report("7 [relation lemmas on the sweep]", not bad, f"failures: {bad}")


# -- criterion 8: graceful non-termination -----------------------------------

def test_criterion_8_knotted_k4_limit(capsys):
    start = time.time()
    code = cli_run([
        "enumerate", "--family", "K4knot", "--labels", "3,3,2,2,2,2",
        "--max-vertices", "100000",
    ])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    with capsys.disabled():
        report(
            "8 [knotted K4 limit report]",
            code == 2 and "outcome=limit-exceeded" in out and elapsed < 120,
            f"exit {code} in {elapsed:.1f}s",
        )
