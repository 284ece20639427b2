"""One benchmark workload, run in a fresh process by ``bench/run.py``.

The process caps its own address space (``RLIMIT_AS``) before importing
numpy or quandleforge, builds the workload's inputs from the seed, and
then runs passes over them; it starts no pass that would end after the
time window closes, judged by the length of the pass before.  It judges
nothing: each pass yields a raw record (timings, engine counters, export
texts' digests, failed operations) and the last line of standard output
is one JSON object holding them all.  ``run.py`` turns the records into
metrics and decides correctness.

A ``verify`` listed as a known failure in ``bench/config.json`` runs in
a forked child (see ``run_isolated``), so that the memory it takes before
failing does not set the worker's own ``ru_maxrss``.

Pass kinds:

* ``plain``  -- no instrumentation beyond one clock read per operation;
  the end-to-end metrics come from these passes only.
* ``spans``  -- a span around every call into a quandleforge layer
  (name, start, end, parent span, instance id), kept in memory.
* ``memory`` -- spans plus tracemalloc, giving each layer call's peak
  allocation; its timings are distorted by tracemalloc and not reported.

Usage (normally via run.py):
    python3 bench/worker.py --workload gkmn --seed 1 --seconds 20 --trace 0
    python3 bench/worker.py --workload gkmn --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("table1", "gkmn", "k4knot-probe")

clock = time.perf_counter
PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


class Tracer:
    """Spans at the boundary between the benchmark and the program.

    ``mode`` is None (record nothing), "spans" or "memory".  Spans of a
    pass nest as pass > instance > layer call; only layer calls are
    leaves, so a layer's self time is its span's duration.
    """

    def __init__(self):
        self.mode: str | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, instance: str | None = None):
        if self.mode is None:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "instance": instance,
            "start": clock(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = clock()
            self._stack.pop()

    def layer(self, name: str, instance: str, fn, *args, **kwargs):
        """Call ``fn`` inside a leaf span named after its layer."""
        if self.mode is None:
            return fn(*args, **kwargs)
        memory = self.mode == "memory"
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        with self.span(name, instance):
            rec = self.spans[self._stack[-1]]
            try:
                return fn(*args, **kwargs)
            except MemoryError:
                rec["failed"] = True
                raise
            finally:
                if memory:
                    rec["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20


@dataclass
class Instance:
    id: str
    pres: object
    limits: object
    expected: dict
    isolated_ops: frozenset = frozenset()


@dataclass
class PassRecord:
    kind: str
    pass_s: float = 0.0
    solve_s: float = 0.0
    solve_samples: list = field(default_factory=list)
    live: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    export_bytes: int = 0
    layers: dict = field(default_factory=dict)
    isolated: list = field(default_factory=list)
    digest_s: float = 0.0

    def attempt(self, instance: str, op: str, fn, isolate_with: Tracer | None = None):
        """Run one operation; a MemoryError is recorded, not raised.

        With ``isolate_with`` (the pass's tracer) the operation runs in a
        forked child, whose peak RSS is recorded in ``isolated``.
        """
        self.attempted += 1
        if isolate_with is not None:
            out = run_isolated(fn, isolate_with)
            self.isolated.append({"instance": instance, "op": op, "peak_rss_mb": out["peak_rss_mb"],
                                  "completed": "value" in out})
            if "value" in out:
                return out["value"]
            self.fail(instance, op, out["reason"], out["detail"])
            return None
        try:
            return fn()
        except MemoryError as exc:
            self.fail(instance, op, "MemoryError", f"{type(exc).__name__}: {exc}"[:200])
            return None

    def digest(self, instance: str, op: str, text: str):
        """Record an export's size and digest.  This is the benchmark's own
        work: its time is taken out of pass_s, and the text is not kept,
        so the peak memory of a pass does not depend on the row order."""
        t0 = clock()
        self.export_bytes += len(text.encode("utf-8"))
        self.digests[f"{instance}:{op}"] = json_digest(text) if op == "export_json" else sha256(text)
        self.digest_s += clock() - t0

    def fail(self, instance: str, op: str, reason: str, detail: str = ""):
        self.failures.append({"instance": instance, "op": op, "reason": reason, "detail": detail})


def cap_address_space(mb: int) -> None:
    limit = mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_isolated(fn, tracer: Tracer) -> dict:
    """Run ``fn`` in a forked child under the same address-space cap.

    The 17040-row ``verify`` fills the address space up to the cap before
    it raises MemoryError; run in the worker itself, it would set the
    worker's ``ru_maxrss`` to about the cap on every run, hiding any other
    memory change.  The child sends back the value (or the failure), its
    own peak RSS and the spans it recorded, which join the tracer's.  The
    worker is single-threaded, so forking it is safe.

    Returns ``{"value": ...}`` or ``{"reason": ..., "detail": ...}``, plus
    ``"peak_rss_mb"``.
    """
    first = len(tracer.spans)
    worker = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            # die with the worker if it is killed while the child runs
            ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != worker:  # the worker died before prctl took effect
                os._exit(1)
            os.close(read_fd)
            try:
                out = {"value": fn()}
            except MemoryError as exc:
                out = {"reason": "MemoryError", "detail": f"{type(exc).__name__}: {exc}"[:200]}
            out["peak_rss_mb"] = rss_peak_mb()
            out["spans"] = tracer.spans[first:]
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                pipe.write(json.dumps(out))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"reason": "crashed", "detail": f"forked child wait status {status}", "peak_rss_mb": 0.0}
    out = json.loads(data)
    tracer.spans += out.pop("spans")
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def json_digest(text: str) -> str:
    """Digest of an export_json text without its ``stats`` key.

    The text must be exactly ``json.dumps(doc, indent=2) + "\\n"`` so
    that the stats-free re-serialisation still pins every other byte.
    """
    doc = json.loads(text)
    if json.dumps(doc, indent=2) + "\n" != text:
        return "not-canonical:" + sha256(text)
    doc.pop("stats", None)
    return sha256(json.dumps(doc, indent=2) + "\n")


# -- inputs -----------------------------------------------------------------


def build_instances(workload: str, seed: int, config: dict, tracer: Tracer) -> list[Instance]:
    """Load, parse and expand every input; the seed sets order only,
    so the amount of work is the same for every seed."""
    from quandleforge import engine, families, presentation

    def load(params, instance_id):
        return tracer.layer("families.load", instance_id, families.family_presentation, params)

    def expand(pres, instance_id):
        return tracer.layer("presentation.expand", instance_id, presentation.expand_relations, pres)

    rng = random.Random(seed)
    default = engine.EnumerationLimits()
    known: dict = {}
    for f in config["known_failures"]:
        known.setdefault(f["instance"], set()).add(f["op"])
    out = []
    if workload == "table1":
        rows = tracer.layer("families.load", "table1", families.table1_rows)
        rng.shuffle(rows)
        for row in rows:
            labels = tuple(row["labels"])
            iid = f"table1/{row['family']}({','.join(map(str, labels))})"
            pres = load(families.FamilyParams(row["family"], labels=labels), iid)
            out.append(Instance(iid, expand(pres, iid), default, {"size": row["expected"]},
                                frozenset(known.get(iid, ()))))
    elif workload == "gkmn":
        box = config["gkmn"]
        params = [tuple(box["anchor"])]
        kb, mb, nb = (range(lo, hi + 1) for lo, hi in box["gkmn_box"])
        params += [(k, m, n) for k in kb for m in mb for n in nb]
        kb, mb = (range(lo, hi + 1) for lo, hi in box["gkm_box"])
        params += [(k, m) for k in kb for m in mb]
        rng.shuffle(params)
        for p in params:
            if len(p) == 3:
                iid = f"gkmn/Gkmn({p[0]},{p[1]},{p[2]})"
                fp = families.FamilyParams("Gkmn", k=p[0], m=p[1], n=p[2])
                expected = {"size": families.gkmn_size(*p), "kmn": p}
            else:
                iid = f"gkmn/Gkm({p[0]},{p[1]})"
                fp = families.FamilyParams("Gkm", k=p[0], m=p[1])
                expected = {"size": families.gkm_size(*p)}
            out.append(Instance(iid, expand(load(fp, iid), iid), default, expected))
    else:
        probe = config["probe"]
        # the budget is part of the id, so that counters recorded under
        # another budget are never compared with these
        iid = f"k4knot-probe/{probe['family']}[max_steps={probe['max_steps']},max_vertices={probe['max_vertices']}]"
        pres = load(families.FamilyParams(probe["family"]), iid)
        limits = engine.EnumerationLimits(max_vertices=probe["max_vertices"], max_steps=probe["max_steps"])
        out.append(Instance(iid, expand(pres, iid), limits, {"outcome": "limit-exceeded"}))
    return out


# -- passes -----------------------------------------------------------------


def solve(rec: PassRecord, inst: Instance, tracer: Tracer):
    """The regress path: enumerate, then check the size or the outcome.

    Returns the enumeration result, or None when the operation failed.
    """
    from quandleforge import engine

    t0 = clock()
    result = rec.attempt(inst.id, "enumerate", lambda: tracer.layer(
        "engine.enumerate_quandle", inst.id, engine.enumerate_quandle, inst.pres, inst.limits))
    if result is not None:
        want = inst.expected.get("outcome", "completed")
        problem = None
        if result.outcome != want:
            problem = (result.outcome, f"expected outcome {want}")
        elif "size" in inst.expected and result.stats.live != inst.expected["size"]:
            problem = ("mismatch", f"size {result.stats.live}, expected {inst.expected['size']}")
        elif result.stats.vertices_created >= inst.limits.max_vertices:
            problem = ("mismatch", "the vertex budget bound before the step budget")
        if problem:
            rec.fail(inst.id, "enumerate", *problem)
            result = None
    elapsed = clock() - t0
    rec.solve_s += elapsed
    rec.solve_samples.append(elapsed)
    if result is not None:
        rec.counters[inst.id] = result.stats.as_dict()
        rec.live += result.stats.live
    return result


def table1_instance(rec: PassRecord, inst: Instance, tracer: Tracer):
    """What ``quandleforge enumerate --format json`` does for one row,
    plus the components, verify and DOT calls of the other formats."""
    from quandleforge import cli, engine

    result = solve(rec, inst, tracer)
    if result is None:
        return
    graph, pres, iid = result.graph, inst.pres, inst.id
    comps = rec.attempt(iid, "components", lambda: tracer.layer(
        "engine.components", iid, engine.components, graph))
    if comps is not None and sum(len(orbit) for orbit in comps[0]) != result.stats.live:
        rec.fail(iid, "components", "mismatch", "orbits do not partition the elements")
    violations = rec.attempt(iid, "verify", lambda: tracer.layer(
        "engine.verify", iid, engine.verify, graph, pres),
        isolate_with=tracer if "verify" in inst.isolated_ops else None)
    if violations:
        rec.fail(iid, "verify", "mismatch", "; ".join(violations)[:200])
    for op, call in (
        ("export_json", lambda: cli.export_json(graph, pres, result.stats)),
        ("export_dot", lambda: cli.export_dot(graph)),
    ):
        text = rec.attempt(iid, op, lambda: tracer.layer(f"cli.{op}", iid, call))
        if text is not None:
            rec.digest(iid, op, text)


def gkmn_instance(rec: PassRecord, inst: Instance, tracer: Tracer):
    """Size against the closed form; for Gkmn also the Qa and Qd
    components against the explicit models, by canonical code."""
    from quandleforge import engine, families

    result = solve(rec, inst, tracer)
    if result is None or "kmn" not in inst.expected:
        return
    k, m, n = inst.expected["kmn"]
    graph, iid = result.graph, inst.id

    def check():
        got = [tracer.layer("engine.canonical_code", iid, engine.canonical_code,
                            graph, graph.basepoint[gen]) for gen in (0, 3)]
        want = tracer.layer("families.oracle", iid, lambda: [
            families.build_explicit_Qa(k, m, n).canonical_code(),
            families.build_explicit_Qd(k, m).canonical_code(),
        ])
        return [g == w for g, w in zip(got, want)]

    oks = rec.attempt(iid, "oracle", check)
    if oks is not None and not all(oks):
        rec.fail(iid, "oracle", "mismatch", f"Qa match {oks[0]}, Qd match {oks[1]}")


def run_pass(kind: str, workload: str, instances: list[Instance], tracer: Tracer) -> PassRecord:
    rec = PassRecord(kind)
    tracer.mode = None if kind == "plain" else kind
    if kind == "memory":
        tracemalloc.start()
    first_span = len(tracer.spans)
    gc.collect()  # every pass starts from the same heap, whatever the last one left
    t0 = clock()
    with tracer.span("pass"):
        for inst in instances:
            with tracer.span("instance", inst.id):
                if workload == "table1":
                    table1_instance(rec, inst, tracer)
                elif workload == "gkmn":
                    gkmn_instance(rec, inst, tracer)
                else:
                    solve(rec, inst, tracer)
    rec.pass_s = clock() - t0 - rec.digest_s
    if kind == "memory":
        tracemalloc.stop()
    tracer.mode = None
    rec.layers = layer_totals(tracer.spans[first_span:])
    return rec


def layer_totals(spans: list[dict]) -> dict:
    """Self time, call count and largest peak per layer.  Layer calls are
    the leaves of the span tree, so self time is their duration.  The peak
    is taken over calls that completed: one that ran out of memory under
    the cap would only show the cap."""
    layers: dict = {}
    for span in spans:
        if span["name"] in ("setup", "pass", "instance"):
            continue
        layer = layers.setdefault(span["name"], {"self_s": 0.0, "calls": 0, "peak_mb": 0.0})
        layer["self_s"] += span["end"] - span["start"]
        layer["calls"] += 1
        if not span.get("failed"):
            layer["peak_mb"] = max(layer["peak_mb"], span.get("peak_mb", 0.0))
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="file for the spans of a traced run")
    args = parser.parse_args(argv)

    config = json.loads((BENCH_DIR / "config.json").read_text(encoding="utf-8"))
    cap_address_space(config["address_space_cap_mb"])
    tracer = Tracer()
    tracer.mode = "spans" if args.trace else None

    t0 = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import quandleforge  # noqa: F401
    import quandleforge.cli  # noqa: F401

    with tracer.span("setup"):
        instances = build_instances(args.workload, args.seed, config, tracer)
    setup_s = clock() - t0
    out: dict = {"setup_s": setup_s}
    if not args.setup_only:
        setup_layers = layer_totals(tracer.spans)
        records = []
        deadline = clock() + args.seconds
        while True:
            start = clock()
            records.append(run_pass("plain", args.workload, instances, tracer))
            if args.trace:
                records.append(run_pass("spans", args.workload, instances, tracer))
            # start no round that would end after the window closes
            now = clock()
            if now + (now - start) > deadline:
                break
        if args.trace:
            records.append(run_pass("memory", args.workload, instances, tracer))
        out["setup_layers"] = setup_layers
        out["passes"] = [vars(r) for r in records]
        out["peak_rss_mb"] = rss_peak_mb()
        if args.trace and args.spans_out:
            path = Path(args.spans_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
