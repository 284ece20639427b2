"""Command-line interface: exit codes, formats, determinism, round trips."""

import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quandleforge import (
    EnumerationLimits, FamilyParams, GeneratorSymbol, Presentation, components, enumerate_quandle,
    expand_relations, family_presentation, quandle_table,
)
from quandleforge import cli
from quandleforge.cli import DOT_COLORS, build_parser, export_dot, export_json, format_table, run
from quandleforge.engine import canonical_code_of_actions
from quandleforge.families import _read_data_text, load_diagram_text, table1_rows


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_theta_stats(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--family", "theta3", "--labels", "3,3,2",
                          "--format", "stats")
    assert code == 0
    assert "final_size=14" in out
    assert "components=3" in out
    assert "outcome=completed" in out


def test_enumerate_gkmn_json(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, _, _ = invoke(capsys, "enumerate", "--family", "Gkmn", "--k", "4", "--m", "3",
                        "--n", "3", "--format", "json", "-o", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["size"] == 192
    assert [c["size"] for c in doc["components"]] == [36, 36, 24, 24, 36, 36]
    assert doc["edge_labels"] == [2, 2, 3, 3, 2, 2]
    for name, targets in doc["actions"].items():
        assert sorted(targets) == list(range(192))


def test_knotted_k4_limit_exit_code(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--family", "K4knot",
                          "--labels", "3,3,2,2,2,2", "--max-vertices", "100000")
    assert code == 2
    assert "outcome=limit-exceeded" in out


def test_dot_deterministic_and_counts(capsys, tmp_path):
    args = ("enumerate", "--family", "theta3", "--labels", "2,2,2", "--format", "dot")
    code, out1, _ = invoke(capsys, *args)
    assert code == 0
    code, out2, _ = invoke(capsys, *args)
    assert out1 == out2
    nodes = [line for line in out1.splitlines() if "label=" in line and "->" not in line]
    edges = [line for line in out1.splitlines() if "->" in line]
    assert len(nodes) == 6
    assert len(edges) == 18


def test_dot_no_loops(capsys, tmp_path):
    pres = tmp_path / "free.txt"
    pres.write_text("gens: a\nedges: a:1\nlabels: 3\n")
    code, out, _ = invoke(capsys, "enumerate", "--input", str(pres), "--format", "dot")
    assert code == 0
    assert "->" in out
    code, out, _ = invoke(capsys, "enumerate", "--input", str(pres), "--format", "dot",
                          "--no-loops")
    assert code == 0
    assert "->" not in out


def test_json_round_trip_reproduces_canonical_code(capsys, tmp_path):
    out_path = tmp_path / "theta.json"
    code, _, _ = invoke(capsys, "enumerate", "--family", "theta3", "--labels", "3,3,2",
                        "--format", "json", "-o", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    actions = [np.array(doc["actions"][name]) for name in sorted(doc["actions"])]

    from quandleforge import (
        EnumerationLimits, FamilyParams, canonical_code, enumerate_quandle,
        expand_relations, family_presentation,
    )
    pres = expand_relations(family_presentation(FamilyParams("theta3", labels=(3, 3, 2))))
    quandle = enumerate_quandle(pres, EnumerationLimits(10000, 10**8)).graph
    names = [g.name for g in quandle.pres.generators]
    for gen in quandle.pres.generators:
        base = int(quandle.basepoint[gen.id])
        assert canonical_code_of_actions(actions, base, names) == canonical_code(quandle, base)


def test_table_format(capsys, tmp_path):
    pres = tmp_path / "one.txt"
    pres.write_text("gens: a\nedges: a:1\nlabels: 5\n")
    code, out, _ = invoke(capsys, "enumerate", "--input", str(pres), "--format", "table")
    assert code == 0
    assert out.strip() == "0"


def test_empty_diagram_enumerates_to_the_empty_quandle(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("arcs: 0\nlabels:\n")
    code, out, _ = invoke(capsys, "enumerate", "--input", str(empty), "--format", "stats")
    assert code == 0
    assert "final_size=0\n" in out
    assert "components=0\n" in out
    code, out, _ = invoke(capsys, "enumerate", "--input", str(empty), "--format", "table")
    assert code == 0
    assert out == ""


def test_verify_subcommand(capsys):
    code, out, _ = invoke(capsys, "verify", "--family", "H1", "--labels", "3,2,2")
    assert code == 0
    assert "verify: ok" in out
    assert "32" in out


def test_verify_names_the_full_table_check(capsys):
    code, out, _ = invoke(capsys, "verify", "--family", "H1", "--labels", "3,3,2")
    assert code == 0
    assert out == "verify: ok (size 336; table: full)\n"
    code, out, _ = invoke(capsys, "verify", "--family", "K4planar", "--labels", "3,3,2,2,2,4")
    assert code == 0
    assert out == "verify: ok (size 464; table: full)\n"


def test_verify_names_the_sampled_table_check(capsys, monkeypatch):
    monkeypatch.setattr("quandleforge.engine._TABLE_BUDGET", 0)
    code, out, _ = invoke(capsys, "verify", "--family", "H1", "--labels", "3,3,2")
    assert code == 0
    assert out == "verify: ok (size 336; table: sampled at 64 elements)\n"


def test_verify_diagram_input(capsys, tmp_path):
    diag = tmp_path / "theta.txt"
    diag.write_text(load_diagram_text("theta3"))
    code, out, _ = invoke(capsys, "verify", "--input", str(diag))
    assert code == 0
    assert "verify: ok" in out


def test_regress(capsys):
    code, out, _ = invoke(capsys, "regress")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 21
    assert all(line.startswith("PASS") for line in lines)


def test_oracle_check_single(capsys):
    code, out, _ = invoke(capsys, "oracle-check", "--k", "2", "--m", "2", "--n", "3")
    assert code == 0
    assert "PASS  G(2,2,3)" in out


def test_limits_exit_two_and_failures_one(capsys, monkeypatch):
    """A batch whose instances only hit limits exits 2; any failure makes it 1."""
    code, out, _ = invoke(capsys, "oracle-check", "--k", "200", "--m", "1", "--n", "1",
                          "--max-vertices", "100")
    assert (code, out) == (2, "LIMIT G(200,1,1): enumeration hit limits\n")
    # a vertex budget below the generator count is a limit too
    code, out, _ = invoke(capsys, "oracle-check", "--k", "1", "--m", "1", "--n", "1",
                          "--max-vertices", "3")
    assert (code, out) == (2, "LIMIT G(1,1,1): enumeration hit limits\n")
    code, out, _ = invoke(capsys, "regress", "--max-vertices", "50")
    assert code == 2
    assert {line.split()[0] for line in out.splitlines()} == {"PASS", "LIMIT"}
    code, out, _ = invoke(capsys, "regress", "--max-vertices", "2")
    assert code == 2
    assert {line.split()[0] for line in out.splitlines()} == {"LIMIT"}
    rows = [{"family": "theta3", "labels": [3, 3, 2], "expected": 15},
            {"family": "KT", "labels": [3, 3, 2], "expected": 1680}]
    monkeypatch.setattr(cli, "table1_rows", lambda: rows)
    code, out, _ = invoke(capsys, "regress", "--max-vertices", "50")
    assert (code, out) == (1, "FAIL  theta3 (3, 3, 2): got 14, expected 15\n"
                              "LIMIT KT (3, 3, 2): enumeration hit limits, expected 1680\n")


def test_oracle_check_zero_is_not_absent(capsys):
    code, out, err = invoke(capsys, "oracle-check", "--k", "0", "--m", "1", "--n", "1")
    assert code == 1
    assert out == ""
    assert err == "error: Gkmn requires a nonzero twist count k\n"


@pytest.mark.parametrize("argv, message", [
    (("--k", "-1", "--m", "1", "--n", "1"), "oracle-check requires --k >= 1, got -1"),
    (("--k", "-2"), "oracle-check requires --k >= 1, got -2"),
    (("--m", "0"), "edge label must be >= 1, got 0"),
])
def test_oracle_check_rejects_parameters_before_enumerating(capsys, argv, message):
    code, out, err = invoke(capsys, "oracle-check", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("--family", "Gkm", "--k", "1", "--m", "2", "--n", "5"), "Gkm takes no --n"),
    (("--family", "theta3", "--k", "3"), "theta3 takes no --k"),
    (("--family", "H1", "--m", "3"), "H1 takes no --m"),
    (("--input", "THETA", "--k", "3"), "--input takes no --k"),
])
def test_unread_family_parameters_exit_one(capsys, tmp_path, argv, message):
    path = tmp_path / "theta.txt"
    path.write_text(load_diagram_text("theta3"))
    argv = [str(path) if arg == "THETA" else arg for arg in argv]
    code, out, err = invoke(capsys, "enumerate", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_input_errors_exit_one(capsys, tmp_path):
    code, _, err = invoke(capsys, "enumerate", "--family", "theta3", "--input", "x.txt")
    assert code == 1
    code, _, err = invoke(capsys, "enumerate", "--family", "theta3", "--labels", "0,1,2")
    assert code == 1
    code, _, err = invoke(capsys, "enumerate", "--input", str(tmp_path / "missing.txt"))
    assert code == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("gens: a\nedges: a:1\nlabels: 1\nrel * : zz\n")
    code, _, err = invoke(capsys, "enumerate", "--input", str(bad))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv, err", [
    ((), "error: exactly one of --family and --input is required\n"),
    (("--family", "theta3", "--labels", "3,x"), "error: --labels: bad label list '3,x'\n"),
    (("--family", "theta3", "--labels", "3,0"), "error: --labels: edge label must be >= 1, got 0\n"),
    (("--family", "theta3", "--labels", "3,,3,2"), "error: --labels: bad label list '3,,3,2'\n"),
    (("--family", "theta3", "--labels", ",3,3,2"), "error: --labels: bad label list ',3,3,2'\n"),
    (("--family", "theta3", "--labels", "3,3,2,"), "error: --labels: bad label list '3,3,2,'\n"),
])
def test_command_line_faults_name_the_option(capsys, argv, err):
    """A fault in the command line has no file position to point at."""
    assert invoke(capsys, "enumerate", *argv) == (1, "", err)


@pytest.mark.parametrize("name", ["presentations/theta3.txt", "diagrams/theta3.txt"])
def test_input_labels_need_one_label_per_edge(capsys, tmp_path, name):
    path = tmp_path / "theta.txt"
    path.write_text(_read_data_text(name))
    code, _, _ = invoke(capsys, "enumerate", "--input", str(path), "--labels", "3 3 2")
    assert code == 0
    code, out, err = invoke(capsys, "enumerate", "--input", str(path), "--labels", "3,3,2,7",
                            "--format", "json")
    assert code == 1
    assert out == ""
    assert err == "error: edge 4 has no generator\n"


def test_bad_usage_exits_nonzero(capsys):
    assert run(["enumerate", "--family", "nosuch"]) == 1
    assert run([]) == 1
    # export was enumerate with another default --format, and is gone
    code, out, err = invoke(capsys, "export", "--family", "theta3")
    assert (code, out) == (1, "")
    assert err.startswith("usage: quandleforge")


def test_docstring_lists_the_registered_subcommands():
    registered = re.search(r"\{([\w,-]+)\}", build_parser().format_usage()).group(1).split(",")
    listed = re.search(r"Subcommands: ([\w |-]+)\.", cli.__doc__).group(1).split(" | ")
    assert listed == registered == ["enumerate", "verify", "regress", "oracle-check"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_prints_its_comments(capsys):
    """The README's ``python`` block runs, and each ``print`` line prints
    the value its ``# …`` comment shows."""
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    shown = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(shown) == 3
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown


def test_readme_command_lines_parse():
    """Every ``quandleforge`` line of the README's command-line block names
    only subcommands and options the parser has."""
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(argv[0] == "quandleforge" for argv in lines)
    for argv in lines:
        build_parser().parse_args(argv[1:])


def test_out_of_memory_exits_one(capsys, monkeypatch):
    """numpy names the allocation that failed; Python's own allocator
    raises a bare MemoryError, so the message names the subcommand."""
    for error, message in (
        (MemoryError("Unable to allocate 2.16 GiB"), "error: out of memory: Unable to allocate 2.16 GiB\n"),
        (MemoryError(), "error: out of memory during enumerate\n"),
    ):
        def exhausted(graph, pres):
            raise error

        monkeypatch.setattr("quandleforge.cli.verify", exhausted)
        code, _, err = invoke(capsys, "enumerate", "--family", "theta3", "--labels", "3,3,2")
        assert code == 1
        assert err == message


def test_enumerate_emits_then_exits_one_on_a_violation(capsys, monkeypatch):
    monkeypatch.setattr("quandleforge.cli.verify", lambda graph, pres: ["a", "b"])
    code, out, err = invoke(capsys, "enumerate", "--family", "theta3", "--labels", "3,3,2")
    assert code == 1
    assert "final_size=14\n" in out
    assert err == "verify: a\nverify: b\n"


def test_verify_prints_each_violation_then_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("quandleforge.cli.verify", lambda graph, pres: ["a", "b"])
    assert invoke(capsys, "verify", "--family", "theta3", "--labels", "3,3,2") == (
        1, "a\nb\nverify: 2 violations (size 14; table: full)\n", ""
    )


def test_oracle_check_prints_a_fail_line(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gkmn_size", lambda k, m, n: 0)
    assert invoke(capsys, "oracle-check", "--k", "2", "--m", "2", "--n", "3") == (
        1, "FAIL  G(2,2,3): size_ok=False Qa_ok=True Qd_ok=True\n", ""
    )


def test_verify_on_a_limit_exits_two_with_stats(capsys):
    # the last two budgets are below the generator count, which is created
    for argv, budget, created in [
        (("verify", "--family", "K4knot"), "5000", 5003),
        (("verify", "--family", "Gkm", "--k", "1", "--m", "2"), "1", 3),
        (("enumerate", "--family", "theta3", "--labels", "3,3,2", "--format", "stats"), "2", 3),
    ]:
        code, out, err = invoke(capsys, *argv, "--max-vertices", budget)
        assert code == 2
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "outcome=limit-exceeded"
        assert f"vertices_created={created}" in lines
        assert [line.split("=")[0] for line in lines[1:]] == [
            "vertices_created", "merges", "relations_traced", "steps", "live",
        ]


def test_python_dash_m():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quandleforge", "enumerate", "--family", "theta3", "--labels", "3,3,2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "final_size=14" in proc.stdout


def test_closed_stdout_ends_quietly():
    """A reader that stops early (as ``| head`` does) ends the command with
    exit 1 and nothing on stderr.  The table, about 450 kB, outgrows the
    pipe buffer, so the command is still writing when the pipe closes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "quandleforge", "enumerate", "--family", "H1", "--labels", "3,3,2",
         "--format", "table"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, b"")


def test_int32_vertex_limit_exits_one(capsys):
    code, out, err = invoke(capsys, "enumerate", "--family", "theta3", "--labels", "3,3,2",
                            "--max-vertices", "3000000000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: max_vertices 3000000000 exceeds the int32 vertex id limit")


# The exports as first written, one entry at a time from the finished
# Quandle's arrays; the exports must produce the same bytes.

def reference_export_dot(quandle, no_loops=False):
    n = quandle.actions.shape[1]
    lines = ["digraph quandle {"]
    for i in range(n):
        lines.append(f'  n{i} [label="{i}"];')
    for g, gen in enumerate(quandle.pres.generators):
        color = DOT_COLORS[g % len(DOT_COLORS)]
        for i in range(n):
            j = int(quandle.actions[g, i])
            if no_loops and j == i:
                continue
            lines.append(f'  n{i} -> n{j} [label="{gen.name}" color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_export_json(quandle, pres, stats):
    n = quandle.actions.shape[1]
    orbits, edge_sizes = components(quandle)
    orbit_of = {}
    for i, orbit in enumerate(orbits):
        for x in orbit:
            orbit_of[x] = i
    edge_orbit = {pres.edge_of[gen]: orbit_of[int(quandle.basepoint[gen.id])] for gen in pres.generators}
    doc = {
        "size": n,
        "edge_labels": list(pres.labels),
        "components": [
            {
                "edge": edge,
                "size": edge_sizes[edge],
                "members": orbits[edge_orbit[edge]],
            }
            for edge in sorted(edge_sizes)
        ],
        "actions": {
            gen.name: [int(quandle.actions[g, i]) for i in range(n)]
            for g, gen in enumerate(pres.generators)
        },
        "stats": stats.as_dict(),
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_format_table(quandle):
    table = quandle_table(quandle)
    n = table.shape[0]
    width = len(str(n - 1))
    rows = [" ".join(f"{int(table[y, x]):{width}d}" for x in range(n)) for y in range(n)]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("family, labels", [
    ("theta3", (3, 3, 2)), ("H1", (3, 2, 2)), ("DH", (2, 2, 2, 3, 2, 2)),
])
def test_exports_match_per_entry_reference(family, labels):
    pres = expand_relations(family_presentation(FamilyParams(family, labels=labels)))
    quandle = assert_exports_match_the_references(pres)
    assert "".join(format_table(quandle)) == reference_format_table(quandle)


def assert_exports_match_the_references(pres):
    """Returns the quandle whose exports were compared."""
    res = enumerate_quandle(pres, EnumerationLimits())
    assert res.completed
    quandle = res.graph
    assert export_json(quandle, pres, res.stats) == reference_export_json(quandle, pres, res.stats)
    for no_loops in (False, True):
        assert export_dot(quandle, no_loops) == reference_export_dot(quandle, no_loops)
    return quandle


@pytest.mark.parametrize("row", table1_rows(), ids=lambda row: f"{row['family']}-{row['labels']}")
def test_exports_match_the_references_on_table1(row):
    assert_exports_match_the_references(
        family_presentation(FamilyParams(row["family"], labels=tuple(row["labels"])))
    )


def test_exports_match_the_references_on_the_gkmn_box():
    params = [FamilyParams("Gkm", k=k, m=m) for k in range(1, 5) for m in range(1, 5)]
    params += [FamilyParams("Gkmn", k=k, m=m, n=n) for k in range(1, 5) for m in range(1, 5) for n in range(1, 5)]
    assert len(params) == 80
    for p in params:
        assert_exports_match_the_references(family_presentation(p))


def test_exports_match_the_references_on_edge_cases():
    empty = Presentation([], {}, ())
    assert enumerate_quandle(empty).stats.live == 0  # no orbits, no labels, no actions
    alpha = GeneratorSymbol(0, "α")
    for pres in (empty, Presentation([alpha], {alpha: 1}, (2,))):
        assert_exports_match_the_references(pres)
    res = enumerate_quandle(Presentation([alpha], {alpha: 1}, (2,)))
    assert '"\\u03b1": [' in export_json(res.graph, res.graph.pres, res.stats)


def test_table_export_holds_the_table_and_one_row():
    """Writing the table holds its 2n^2 bytes and one row of text at a time,
    not the whole text of the table."""
    pres = family_presentation(FamilyParams("K4planar", labels=(3, 3, 2, 2, 2, 4)))
    quandle = enumerate_quandle(pres, EnumerationLimits()).graph
    n = quandle.actions.shape[1]
    assert n == 464
    tracemalloc.start()
    try:
        cli._emit(format_table(quandle), os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (2 * n * n), f"peak {peak} bytes"
