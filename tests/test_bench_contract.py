"""The benchmark's calling convention: ``bench/worker.py`` drives the
library through ``result.graph``, ``graph.basepoint[g]``, ``components``,
``verify``, ``canonical_code`` and the CLI exports.  These tests load the
worker by path and run every table1 row and one instance of each other
workload, so a change that breaks that convention, or the pinned export
digests, fails here, not only in the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

from quandleforge.families import table1_rows

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = worker  # its dataclasses look their module up there
    spec.loader.exec_module(worker)
    return worker


# the worker function that runs one instance of each workload
RUNS = {"table1": "table1_instance", "gkmn": "gkmn_instance", "k4knot-probe": "solve"}


def run_instances(workload, instance_id=None):
    """Run a workload's instances untraced into one pass record: the one
    with the given id, or all of them; returns the pass record, the
    config, the instances run and what the last run returned."""
    worker = load_worker()
    config = json.loads((BENCH / "config.json").read_text(encoding="utf-8"))
    tracer = worker.Tracer()  # mode None: untraced
    instances = [
        inst for inst in worker.build_instances(workload, 0, config, tracer) if instance_id in (None, inst.id)
    ]
    rec = worker.PassRecord("plain")
    for inst in instances:
        out = getattr(worker, RUNS[workload])(rec, inst, tracer)
    return rec, config, instances, out


def test_table1_instance_contract():
    """Every table1 row runs clean, and its JSON and DOT exports match the
    digests pinned in ``bench/config.json``: all 42 of them, so a change
    of element numbering fails here."""
    rec, config, instances, _ = run_instances("table1")
    assert rec.failures == []
    assert len(instances) == 21
    assert rec.attempted == 5 * 21  # enumerate, components, verify, export_json, export_dot
    assert rec.live == sum(row["expected"] for row in table1_rows())
    assert rec.digests == config["export_digests"]


def test_gkmn_instance_contract():
    rec, _, _, _ = run_instances("gkmn", "gkmn/Gkmn(2,2,2)")
    assert rec.failures == []
    assert rec.attempted == 2  # enumerate, oracle
    assert rec.live == 48  # 4kmn + 2km + 2kn


def test_k4knot_probe_contract():
    """The probe hits its step budget at the benchmark's own limits."""
    rec, _, _, result = run_instances("k4knot-probe")
    assert rec.failures == []
    assert rec.attempted == 1  # enumerate
    assert result.outcome == "limit-exceeded"
    keys = ("vertices_created", "merges", "relations_traced", "steps", "live")
    (counters,) = rec.counters.values()  # what the benchmark compares across trees
    assert counters == dict(zip(keys, (112544, 63313, 318883, 1000026, 49231)))
