"""Tests of the wall-clock benchmark itself, on a tiny FIB."""

import json
import time
from array import array
from pathlib import Path

import pytest

import run
import workloads as wl
from spans import LAYER_SPANS
from repro.pipeline.flat import FlatProgram
from repro.serve.autoscale import MISS, FlowCache

MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in MANIFEST["workloads"]]
TINY_SCALE = 0.005


def run_tiny(capsys, workload, trace=0, seed=3, seconds=0.3):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        scale=TINY_SCALE,
        setups=1,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_manifest_names_what_the_program_prints():
    assert {w["name"] for w in MANIFEST["workloads"]} <= set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(capsys, workload):
    code, lines, result = run_tiny(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name, unit in run.END_TO_END_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[0] == name and line.split()[-1] == unit for line in lines)


def test_a_corrupted_answer_fails_the_run(capsys, monkeypatch):
    original = FlatProgram.lookup_batch_packed

    def corrupted(self, addresses):
        labels = array("q")
        labels.frombytes(original(self, addresses))
        labels[-1] += 1
        return labels.tobytes()

    monkeypatch.setattr(FlatProgram, "lookup_batch_packed", corrupted)
    code, lines, result = run_tiny(capsys, "fwd-uniform")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    summary = next(line for line in lines if line.startswith("# samples"))
    assert not summary.endswith("error_rate 0")


def test_a_wrong_flow_cache_hit_fails_shard_zipf(capsys, monkeypatch):
    # An update empties the flow cache, so the sampled check has to land on
    # batches the warm cache serves, not only on the one after an update.
    original = FlowCache.get

    def corrupted(self, address):
        label = original(self, address)
        return label if label is MISS else (label or 0) + 1

    monkeypatch.setattr(FlowCache, "get", corrupted)
    code, _, result = run_tiny(capsys, "shard-zipf")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_a_slower_walk_lowers_lookup_vs_ref(capsys, monkeypatch):
    # The reference walk is the benchmark's own code: slowing the plane's
    # walk must not slow it too, or the ratio would hide the regression.
    _, _, plain = run_tiny(capsys, "fwd-uniform")
    original = FlatProgram.lookup_batch_packed

    def slowed(self, addresses):
        time.sleep(0.005)
        return original(self, addresses)

    monkeypatch.setattr(FlatProgram, "lookup_batch_packed", slowed)
    code, _, slow = run_tiny(capsys, "fwd-uniform")
    assert code == 0
    assert slow["metrics"]["lookup_vs_ref"]["value"] < plain["metrics"]["lookup_vs_ref"]["value"] / 2


def test_the_inputs_digest_follows_the_seed():
    workload = wl.WORKLOADS["churn-bgp"]
    first = wl.make_inputs(workload, 5, TINY_SCALE).digest
    assert wl.make_inputs(workload, 5, TINY_SCALE).digest == first
    assert wl.make_inputs(workload, 6, TINY_SCALE).digest != first


def test_listed_workloads_trace_every_layer_span(capsys):
    seen = set()
    for workload in LISTED:
        # Updates need a few seconds to bloat a tiny shard into a recompile.
        seconds = 3.0 if wl.WORKLOADS[workload].update_every else 0.3
        code, _, result = run_tiny(capsys, workload, trace=1, seconds=seconds)
        assert code == 0 and result["correct"]
        metrics = result["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == run.LAYER_UNITS
        seen |= {span for span in LAYER_SPANS if metrics[f"{span}.calls"]["value"] > 0}
        assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    assert seen == set(LAYER_SPANS)
