"""The benchmark's calling convention: ``bench/worker.py`` drives the
library through ``result.graph``, ``graph.basepoint[g]``, ``components``,
``verify``, ``canonical_code`` and the CLI exports.  These tests load the
worker by path and run one instance of each enumerating workload, so a
change that breaks that convention fails here, not only in the benchmark."""

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


def run_instance(workload, instance_id):
    worker = load_worker()
    config = json.loads((BENCH / "config.json").read_text(encoding="utf-8"))
    tracer = worker.Tracer()  # mode None: untraced
    instances = worker.build_instances(workload, 0, config, tracer)
    inst = next(i for i in instances if i.id == instance_id)
    rec = worker.PassRecord("plain")
    run = worker.table1_instance if workload == "table1" else worker.gkmn_instance
    run(rec, inst, tracer)
    return rec, config


def test_table1_instance_contract():
    iid = "table1/theta3(3,3,2)"
    rec, config = run_instance("table1", iid)
    assert rec.failures == []
    assert rec.attempted == 5  # enumerate, components, verify, export_json, export_dot
    assert rec.live == 14
    for op in ("export_json", "export_dot"):
        assert rec.digests[f"{iid}:{op}"] == config["export_digests"][f"{iid}:{op}"]


def test_gkmn_instance_contract():
    iid = "gkmn/Gkmn(2,2,2)"
    rec, _ = run_instance("gkmn", iid)
    assert rec.failures == []
    assert rec.attempted == 2  # enumerate, oracle
    assert rec.live == 48  # 4kmn + 2km + 2kn
