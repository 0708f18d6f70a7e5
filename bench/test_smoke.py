"""Smoke test of the benchmark itself, at tiny replication counts.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit, and
that a different seed changes the table without changing any gate's outcome.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# Replicates per mc call: enough that every gate's outcome is far from its edge.
TINY = {"ar_null": 200, "battery": 48, "ar_arch": 16}


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def _emitted(record) -> dict:
    return {name: m["unit"] for name, m in record["result"]["metrics"].items()}


def test_workloads_match_spec():
    assert sorted(bench.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_end_to_end_metrics_and_gates_across_seeds(name):
    w = bench.WORKLOADS[name]
    records = [
        bench.run_workload(w, seed, seconds=0, trace=False, replications=TINY[name], setup_runs=1) for seed in (1, 2)
    ]
    for record in records:
        assert _emitted(record) == _units(SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in record["result"]["metrics"].values())
        assert record["result"]["correct"], record["gates"]
        assert record["result"]["attempted"] == TINY[name] * len(w.config["n"])
    assert [g["name"] for g in records[0]["gates"]] == [g["name"] for g in records[1]["gates"]]
    assert records[0]["gates"], "every workload has at least one gate"
    assert records[0]["cells"] != records[1]["cells"]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    record = bench.run_workload(bench.WORKLOADS[name], 1, seconds=0, trace=True, replications=TINY[name])
    assert _emitted(record) == _units(SPEC["per_layer"])
    metrics = record["result"]["metrics"]
    assert metrics["trace.replay_mismatch_cells"]["value"] == 0
    assert metrics["montecarlo.replicate_ms.n"]["value"] == TINY[name]
    assert record["result"]["correct"], record["gates"]
