"""The benchmark's calling convention: ``bench/worker.py`` drives the
library through ``result.graph``, ``graph.basepoint[g]``, ``components``,
``verify``, ``canonical_code`` and the CLI exports.  These tests load the
worker by path and run one instance of each workload, so a change that
breaks that convention fails here, not only in the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = worker  # its dataclasses look their module up there
    spec.loader.exec_module(worker)
    return worker


# the worker function that runs one instance of each workload
RUNS = {"table1": "table1_instance", "gkmn": "gkmn_instance", "k4knot-probe": "solve"}


def run_instance(workload, instance_id=None):
    """Run one instance untraced, the workload's first when no id is
    given; returns the pass record, the config and what the run returned."""
    worker = load_worker()
    config = json.loads((BENCH / "config.json").read_text(encoding="utf-8"))
    tracer = worker.Tracer()  # mode None: untraced
    instances = worker.build_instances(workload, 0, config, tracer)
    inst = next(i for i in instances if instance_id in (None, i.id))
    rec = worker.PassRecord("plain")
    out = getattr(worker, RUNS[workload])(rec, inst, tracer)
    return rec, config, out


def test_table1_instance_contract():
    iid = "table1/theta3(3,3,2)"
    rec, config, _ = run_instance("table1", iid)
    assert rec.failures == []
    assert rec.attempted == 5  # enumerate, components, verify, export_json, export_dot
    assert rec.live == 14
    for op in ("export_json", "export_dot"):
        assert rec.digests[f"{iid}:{op}"] == config["export_digests"][f"{iid}:{op}"]


def test_gkmn_instance_contract():
    iid = "gkmn/Gkmn(2,2,2)"
    rec, _, _ = run_instance("gkmn", iid)
    assert rec.failures == []
    assert rec.attempted == 2  # enumerate, oracle
    assert rec.live == 48  # 4kmn + 2km + 2kn


def test_k4knot_probe_contract():
    """The probe hits its step budget at the benchmark's own limits."""
    rec, _, result = run_instance("k4knot-probe")
    assert rec.failures == []
    assert rec.attempted == 1  # enumerate
    assert result.outcome == "limit-exceeded"
    keys = ("vertices_created", "merges", "relations_traced", "steps", "live")
    (counters,) = rec.counters.values()  # what the benchmark compares across trees
    assert counters == dict(zip(keys, (112540, 63313, 318873, 1000001, 49227)))
