"""quandleforge benchmark: table1, gkmn and k4knot-probe workloads.

Each workload runs in one fresh single-threaded worker process
(``bench/worker.py``) under the address-space cap in ``bench/config.json``.
This script starts the workers, checks every output they report, turns
their per-pass records into metrics, prints a readable report and, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured on
uninstrumented passes; with ``--trace 1`` they are the per-layer ones,
from passes with spans (and one pass with tracemalloc) interleaved with
uninstrumented passes, whose difference is the tracing overhead.

Exit status: 0 when every output is correct, 1 on any mismatch, drift or
unexpected failure, 2 when the benchmark cannot run (no source tree, a
worker crashed or timed out).  See bench/NOTES.md for the workloads.

    python3 bench/run.py                                 # all three, untraced
    python3 bench/run.py --workload table1 --seed 3 --seconds 36 --trace 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("table1", "gkmn", "k4knot-probe")
COUNTERS = ("vertices_created", "live", "merges", "steps", "relations_traced")
# per-layer self seconds reported besides engine.enumerate_s; a layer that a
# workload never calls reads 0 there
SECONDS_LAYERS = (
    "engine.components",
    "engine.verify",
    "engine.canonical_code",
    "families.oracle",
    "cli.export_json",
    "cli.export_dot",
)
# fresh processes per run whose median set-up time is setup_s
SETUP_SAMPLES = 7


class BenchError(Exception):
    """The benchmark itself could not run."""


def median(values):
    return statistics.median(values) if values else 0.0


def tail(samples):
    """The highest usual percentile with at least ten samples beyond it,
    as (percentile, value), or None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
    return None


def describe(samples, unit: str, what: str) -> str:
    text = f"median {median(samples):.6g} {unit} of {len(samples)} {what}"
    pct = tail(samples)
    if pct is None:
        return text + "; no percentile has 10 samples beyond it"
    return text + f"; p{pct[0]:g} {pct[1]:.6g} {unit}"


def source_hash() -> str:
    digest = hashlib.sha256()
    package = ROOT / "src" / "quandleforge"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    ram_mb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20
    return {
        "nproc": os.cpu_count(),
        "ram_mb": ram_mb,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker to completion, killing it at ``deadline``
    (a ``time.monotonic`` value), and return its JSON line."""
    timeout = max(1.0, deadline - time.monotonic())
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- checks -----------------------------------------------------------------


def check(passes: list[dict], config: dict) -> tuple[list[dict], list[str]]:
    """All failures of the run, each marked known or not, and notes on
    the determinism checks.  A drift is a failure, never averaged away."""
    known = {(f["instance"], f["op"], f["reason"]) for f in config["known_failures"]}
    failures = []
    for rec in passes:
        failures += rec["failures"]
        for key, got in rec["digests"].items():
            want = config["export_digests"].get(key)
            if got != want:
                failures.append({"instance": key.rsplit(":", 1)[0], "op": key.rsplit(":", 1)[1],
                                 "reason": "mismatch", "detail": f"export digest {got} != {want}"})
    first = passes[0]["counters"]
    for i, rec in enumerate(passes[1:], 2):
        if rec["counters"] != first:
            drifted = sorted(k for k in first.keys() | rec["counters"].keys()
                             if first.get(k) != rec["counters"].get(k))
            failures.append({"instance": ",".join(drifted)[:200], "op": "determinism",
                             "reason": "drift", "detail": f"engine counters of pass {i} differ from pass 1"})
    notes = [f"engine counters of {len(first)} instances repeat across {len(passes)} passes"
             if all(r["counters"] == first for r in passes) else "engine counters drift between passes"]

    # across runs of the same source tree, in any order of workloads and seeds
    state_path = OUT_DIR / "counters.json"
    state = json.loads(state_path.read_text(encoding="utf-8")) if state_path.exists() else {}
    seen = state.setdefault(source_hash(), {})
    earlier = {k: v for k, v in first.items() if k in seen}
    drifted = sorted(k for k, v in earlier.items() if seen[k] != v)
    for key in drifted:
        failures.append({"instance": key, "op": "determinism", "reason": "drift",
                         "detail": f"engine counters {first[key]} != {seen[key]} of an earlier run"})
    if earlier:
        notes.append(f"{len(earlier) - len(drifted)} of {len(earlier)} instances seen in earlier runs "
                     "of this source tree have identical counters")
    else:
        notes.append(f"no earlier run of this source tree in {state_path.relative_to(ROOT)}: "
                     "counters not compared across runs, recorded as the reference")
    seen.update({k: v for k, v in first.items() if k not in seen})
    OUT_DIR.mkdir(exist_ok=True)
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, state_path)

    digests = len(passes[0]["digests"])
    if digests:
        notes.append(f"{digests} export digests per pass compared with bench/config.json")
    for f in failures:
        f["known"] = (f["instance"], f["op"], f["reason"]) in known
    return failures, notes


# -- metrics ----------------------------------------------------------------


def end_to_end(plain: list[dict], setup: list[float], worker_rss_mb: float, attempted: int, failed: int):
    pass_s = [p["pass_s"] for p in plain]
    solve_s = [p["solve_s"] for p in plain]
    rates = [p["live"] / p["solve_s"] for p in plain]
    # known-failing operations ran in forked children: one that completed
    # counts towards the peak, one that hit the cap is reported apart
    completed, failed_apart = [], {}
    for rec in (i for p in plain for i in p["isolated"]):
        if rec["completed"]:
            completed.append(rec["peak_rss_mb"])
        else:
            failed_apart.setdefault(f"{rec['instance']} {rec['op']}", []).append(rec["peak_rss_mb"])
    peak_rss_mb = max([worker_rss_mb] + completed)
    metrics = {
        "setup_s": (median(setup), "s"),
        "pass_s": (median(pass_s), "s"),
        "solve_s": (median(solve_s), "s"),
        "elements_per_s": (median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    lines = [
        f"setup_s         {describe(setup, 's', 'set-ups in fresh processes')}",
        f"pass_s          {describe(pass_s, 's', 'passes')}",
        f"solve_s         {describe(solve_s, 's', 'passes')}",
        f"  per instance  {describe([t for p in plain for t in p['solve_samples']], 's', 'enumerations')}",
        f"elements_per_s  {describe(rates, '1/s', 'passes')}",
        f"peak_rss_mb     {peak_rss_mb:.1f} MB (worker ru_maxrss {worker_rss_mb:.1f} MB"
        + (f"; completed operations in forked children up to {max(completed):.1f} MB)" if completed else ")"),
        *(f"  apart: {op} failed in a forked child at peak RSS {describe(peaks, 'MB', 'passes')}"
          for op, peaks in failed_apart.items()),
        f"fail_ratio      {failed}/{attempted} = {failed / attempted:.6g} (failed/attempted); "
        f"ok_ratio {metrics['ok_ratio'][0]:.6g}",
    ]
    return metrics, lines


def per_layer(worker: dict):
    passes = worker["passes"]
    plain = [p for p in passes if p["kind"] == "plain"]
    spans = [p for p in passes if p["kind"] == "spans"]
    memory = [p for p in passes if p["kind"] == "memory"][0]

    def self_s(rec, layer):
        return rec["layers"].get(layer, {}).get("self_s", 0.0)

    def total(rec, counter):
        return sum(c[counter] for c in rec["counters"].values())

    ref = spans[0]
    created, live = total(ref, "vertices_created"), total(ref, "live")
    traced_s, untraced_s = [p["pass_s"] for p in spans], [p["pass_s"] for p in plain]
    overhead = median(traced_s) - median(untraced_s)
    setup = worker["setup_layers"]
    metrics = {
        "families.load_s": (setup["families.load"]["self_s"], "s"),
        "presentation.expand_s": (setup["presentation.expand"]["self_s"], "s"),
        "engine.enumerate_s": (median([self_s(p, "engine.enumerate_quandle") for p in spans]), "s"),
        "engine.steps_per_s": (median([total(p, "steps") / self_s(p, "engine.enumerate_quandle")
                                       for p in spans]), "1/s"),
        **{f"engine.{c}": (total(ref, c), "count") for c in COUNTERS},
        "engine.live_per_created": (live / created if created else 0.0, "ratio"),
        "engine.enumerate_peak_mb": (memory["layers"]["engine.enumerate_quandle"]["peak_mb"], "MB"),
        "engine.verify_peak_mb": (memory["layers"].get("engine.verify", {}).get("peak_mb", 0.0), "MB"),
        "engine.verify_failed": (median([sum(f["op"] == "verify" for f in p["failures"])
                                         for p in spans]), "count"),
        "cli.export_bytes": (ref["export_bytes"], "bytes"),
        **{f"{layer}_s": (median([self_s(p, layer) for p in spans]), "s") for layer in SECONDS_LAYERS},
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_pct": (100 * overhead / median(untraced_s), "%"),
    }
    lines = [f"{'layer':24} {'self s/pass':>12} {'calls':>6} {'share':>7} {'peak MB':>9}"]
    for layer in sorted({name for p in spans for name in p["layers"]}):
        secs = [self_s(p, layer) for p in spans]
        share = median([100 * self_s(p, layer) / p["pass_s"] for p in spans])
        peak = memory["layers"].get(layer, {}).get("peak_mb", 0.0)
        lines.append(f"{layer:24} {median(secs):12.6f} {ref['layers'][layer]['calls']:6d} "
                     f"{share:6.2f}% {peak:9.2f}")
    for layer, rec in setup.items():
        lines.append(f"{layer:24} {rec['self_s']:12.6f} {rec['calls']:6d}   (set-up)")
    lines += [
        "engine counters per pass: " + ", ".join(f"{c}={total(ref, c)}" for c in COUNTERS),
        f"tracing overhead {overhead:+.4f} s: traced pass_s {describe(traced_s, 's', 'passes')}",
        f"  untraced pass_s {describe(untraced_s, 's', 'passes')}",
        f"tracemalloc pass (peaks only, timing not used): {memory['pass_s']:.3f} s",
    ]
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: int, config: dict):
    # the worker stops starting passes when the window closes; a traced run
    # adds one tracemalloc pass, several times slower than a plain one
    deadline = time.monotonic() + 2 * seconds + 60
    base = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        setup = [spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    spans_out = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    worker = spawn(base + ["--seconds", str(seconds), "--trace", str(trace),
                           "--spans-out", str(spans_out)], deadline)
    passes = worker["passes"]
    failures, notes = check(passes, config)
    attempted = sum(p["attempted"] for p in passes)
    unexpected = [f for f in failures if not f["known"]]

    env = environment()
    lines = [f"== {workload}  seed {seed}  window {seconds:g} s  cap {config['address_space_cap_mb']} MiB  "
             + "  ".join(f"{k} {v}" for k, v in env.items())
             + ("" if env == config["baseline_environment"] else "  (baseline measured on "
                + ", ".join(f"{k} {v}" for k, v in config["baseline_environment"].items()) + ")")]
    if trace:
        metrics, more = per_layer(worker)
        lines += more + [f"spans written to {spans_out.relative_to(ROOT)}"]
    else:
        plain = [p for p in passes if p["kind"] == "plain"]
        metrics, more = end_to_end(plain, setup, worker["peak_rss_mb"], attempted, len(failures))
        lines += more
    lines += notes
    grouped: dict = {}
    for f in failures:
        key = ("known" if f["known"] else "UNEXPECTED", f["instance"], f["op"], f["reason"], f["detail"])
        grouped[key] = grouped.get(key, 0) + 1
    for (tag, *what), count in grouped.items():
        lines.append(f"failure ({tag}) x{count}: " + " ".join(what))
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quandleforge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "quandleforge" / "__init__.py").is_file():
        print(f"error: no quandleforge source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((BENCH_DIR / "config.json").read_text(encoding="utf-8"))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result, lines = run_workload(workload, args.seed, args.seconds, args.trace, config)
            print("\n".join(lines), flush=True)
            results[workload] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
