"""Command-line interface.

Subcommands: enumerate | verify | regress | oracle-check.
Input is either a built-in family (--family, with --labels, and --k/--m/--n
for Gkmn and Gkm) or a file (--input) holding a presentation or a
diagram, read as the shipped data files are, by
:func:`~quandleforge.diagram.parse_input`.  Every subcommand takes
--max-vertices and --max-steps.  Exit codes: 0 success, 1 input or
verification error or out of memory, 2 enumeration limit exceeded (so
batch drivers can raise limits for just those cases).  ``regress`` and
``oracle-check`` print one PASS, FAIL or LIMIT line per instance and
exit 1 if any failed, else 2 if any hit a limit.  Run as
``quandleforge`` or ``python -m quandleforge``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diagram import parse_input
from .engine import (
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_VERTICES,
    EnumerationLimits,
    Quandle,
    canonical_code,
    components,
    enumerate_quandle,
    quandle_table,
    table_check,
    verify,
)
from .families import (
    FAMILY_NAMES,
    FamilyParams,
    build_explicit_Qa,
    build_explicit_Qd,
    family_presentation,
    gkmn_size,
    table1_rows,
)
from .presentation import Presentation
from .words import FieldError, ParseError, check_labels

DOT_COLORS = ("black", "red", "blue", "forestgreen", "darkorange", "purple", "brown", "cadetblue")


def _add_limit_options(sub: argparse.ArgumentParser):
    sub.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    sub.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)


def _add_input_options(sub: argparse.ArgumentParser):
    sub.add_argument("--family", choices=FAMILY_NAMES, help="built-in family selector")
    sub.add_argument("--input", metavar="FILE", help="presentation or diagram file")
    sub.add_argument("--k", type=int, help="twist count for Gkmn/Gkm (nonzero)")
    sub.add_argument("--m", type=int, help="first strut label for Gkmn/Gkm")
    sub.add_argument("--n", type=int, help="second strut label for Gkmn")
    sub.add_argument("--labels", help="edge labels n1,n2,... (commas or spaces), one per edge, overriding the input's")
    _add_limit_options(sub)


def _label_option(text: str) -> tuple[int, ...]:
    """The --labels value, a list separated by commas or spaces."""
    try:
        labels = tuple(int(tok) for tok in text.replace(",", " ").split())
        check_labels(labels)
    except FieldError as exc:
        raise ValueError(f"--labels: {exc}") from None
    except ValueError:
        raise ValueError(f"--labels: bad label list {text!r}") from None
    return labels


def _load_presentation(args) -> Presentation:
    if (args.family is None) == (args.input is None):
        raise ValueError("exactly one of --family and --input is required")
    labels = None if args.labels is None else _label_option(args.labels)
    if args.family:
        return family_presentation(
            FamilyParams(args.family, k=args.k, m=args.m, n=args.n, labels=labels)
        )
    for name in "kmn":
        if getattr(args, name) is not None:
            raise ValueError(f"--input takes no --{name}")
    with open(args.input, encoding="utf-8") as handle:
        pres = parse_input(handle.read())
    return pres if labels is None else pres.with_labels(labels)


def _limits(args) -> EnumerationLimits:
    return EnumerationLimits(max_vertices=args.max_vertices, max_steps=args.max_steps)


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def format_stats(result) -> str:
    lines = [f"outcome={result.outcome}"]
    if result.completed:
        orbits, edge_sizes = components(result.graph)
        lines.append(f"final_size={result.stats.live}")
        lines.append(f"components={len(orbits)}")
        lines.append(
            "component_sizes=" + ",".join(str(edge_sizes[e]) for e in sorted(edge_sizes))
        )
    for key, value in result.stats.as_dict().items():
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def export_dot(quandle: Quandle, no_loops: bool = False) -> str:
    """Deterministic DOT rendering: one node per element, one directed
    edge per (element, generator), colored by generator."""
    lines = ["digraph quandle {"]
    lines += [f'  n{i} [label="{i}"];' for i in range(quandle.actions.shape[1])]
    for g, (gen, row) in enumerate(zip(quandle.pres.generators, quandle.actions.tolist())):
        attrs = f'[label="{gen.name}" color="{DOT_COLORS[g % len(DOT_COLORS)]}"];'
        lines += [f"  n{i} -> n{j} {attrs}" for i, j in enumerate(row) if not (no_loops and i == j)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(quandle: Quandle, pres: Presentation, stats) -> str:
    """Stable JSON export: size, labels, components and generator actions."""
    orbits, edge_sizes = components(quandle)
    orbit_of = {x: orbit for orbit in orbits for x in orbit}
    members = {pres.edge_of[gen]: orbit_of[int(quandle.basepoint[gen.id])] for gen in quandle.pres.generators}
    doc = {
        "size": quandle.actions.shape[1],
        "edge_labels": list(pres.labels),
        "components": [
            {
                "edge": edge,
                "size": edge_sizes[edge],
                "members": members[edge],
            }
            for edge in sorted(edge_sizes)
        ],
        "actions": {gen.name: row for gen, row in zip(quandle.pres.generators, quandle.actions.tolist())},
        "stats": stats.as_dict(),
    }
    return json.dumps(doc, indent=2) + "\n"


def format_table(quandle: Quandle) -> str:
    table = quandle_table(quandle)
    n = table.shape[0]
    # one row at a time, so that no n^2 list of Python ints is ever held
    row_format = " ".join([f"%{len(str(n - 1))}d"] * n)
    return "".join(row_format % tuple(row.tolist()) + "\n" for row in table)


def cmd_enumerate(args) -> int:
    pres = _load_presentation(args)
    result = enumerate_quandle(pres, _limits(args))
    if not result.completed:
        _emit(format_stats(result), args.output)
        return 2
    quandle = result.graph
    violations = verify(quandle, pres)
    if args.format == "stats":
        _emit(format_stats(result), args.output)
    elif args.format == "dot":
        _emit(export_dot(quandle, no_loops=args.no_loops), args.output)
    elif args.format == "json":
        _emit(export_json(quandle, pres, result.stats), args.output)
    elif args.format == "table":
        _emit(format_table(quandle), args.output)
    if violations:
        for violation in violations:
            print(f"verify: {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    pres = _load_presentation(args)
    result = enumerate_quandle(pres, _limits(args))
    if not result.completed:
        print(format_stats(result), end="")
        return 2
    violations = verify(result.graph, pres)
    for violation in violations:
        print(violation)
    print(f"verify: {'ok' if not violations else f'{len(violations)} violations'} "
          f"(size {result.stats.live}; table: {table_check(result.stats.live)})")
    return 0 if not violations else 1


def _batch_exit(statuses: list[str]) -> int:
    """Exit code of a batch: 1 if any instance failed, else 2 if any hit a limit."""
    return 1 if "FAIL" in statuses else 2 if "LIMIT" in statuses else 0


def cmd_regress(args) -> int:
    limits = _limits(args)
    statuses = []
    for row in table1_rows():
        pres = family_presentation(FamilyParams(row["family"], labels=tuple(row["labels"])))
        result = enumerate_quandle(pres, limits)
        name, expected = f"{row['family']} {tuple(row['labels'])}", row["expected"]
        if not result.completed:
            statuses.append("LIMIT")
            print(f"LIMIT {name}: enumeration hit limits, expected {expected}")
            continue
        statuses.append("PASS" if result.stats.live == expected else "FAIL")
        print(f"{statuses[-1]}  {name}: got {result.stats.live}, expected {expected}")
    return _batch_exit(statuses)


def cmd_oracle_check(args) -> int:
    ks = [args.k] if args.k is not None else list(range(1, 5))
    ms = [args.m] if args.m is not None else list(range(1, 5))
    ns = [args.n] if args.n is not None else list(range(1, 5))
    # k = 0 and m, n < 1 fail in family_presentation, before the first enumeration
    if min(ks) < 0:
        raise ValueError(f"oracle-check requires --k >= 1, got {min(ks)}")
    statuses = []
    for k in ks:
        for m in ms:
            for n in ns:
                pres = family_presentation(FamilyParams("Gkmn", k=k, m=m, n=n))
                result = enumerate_quandle(pres, _limits(args))
                if not result.completed:
                    statuses.append("LIMIT")
                    print(f"LIMIT G({k},{m},{n}): enumeration hit limits")
                    continue
                quandle = result.graph
                ok_a = canonical_code(quandle, quandle.basepoint[0]) == build_explicit_Qa(k, m, n).canonical_code()
                ok_d = canonical_code(quandle, quandle.basepoint[3]) == build_explicit_Qd(k, m).canonical_code()
                ok_size = result.stats.live == gkmn_size(k, m, n)
                if ok_a and ok_d and ok_size:
                    statuses.append("PASS")
                    print(f"PASS  G({k},{m},{n}): size {result.stats.live}, Qa and Qd match the models")
                else:
                    statuses.append("FAIL")
                    print(f"FAIL  G({k},{m},{n}): size_ok={ok_size} Qa_ok={ok_a} Qd_ok={ok_d}")
    return _batch_exit(statuses)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandleforge",
        description="Enumerate fundamental N-quandles of spatial graphs and links.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    enum = subs.add_parser("enumerate", help="enumerate a quandle and print or export it")
    _add_input_options(enum)
    enum.add_argument("--format", choices=("stats", "dot", "json", "table"), default="stats")
    enum.add_argument("--output", "-o", metavar="FILE")
    enum.add_argument("--no-loops", action="store_true", help="suppress self-loop edges in DOT")
    enum.set_defaults(func=cmd_enumerate)

    ver = subs.add_parser("verify", help="enumerate and check axioms and relations")
    _add_input_options(ver)
    ver.set_defaults(func=cmd_verify)

    reg = subs.add_parser("regress", help="run the shipped size-regression manifest")
    _add_limit_options(reg)
    reg.set_defaults(func=cmd_regress)

    orc = subs.add_parser("oracle-check", help="compare enumerated components to the closed-form models")
    orc.add_argument("--k", type=int)
    orc.add_argument("--m", type=int)
    orc.add_argument("--n", type=int)
    _add_limit_options(orc)
    orc.set_defaults(func=cmd_oracle_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter shutdown
        return code
    except BrokenPipeError:
        # the reader went away: send what is left to devnull so that shutdown
        # prints nothing, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())
