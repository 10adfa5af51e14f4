"""The committed benchmark records (BENCH_*.json, written by
tools/bench_record.py) and the recorder's arithmetic."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_records_name_their_commits_and_hold_every_workload(path):
    doc = json.loads(path.read_text())
    assert path.name == f"BENCH_{doc['label']}.json"
    for tree in ("base", "head"):
        assert re.fullmatch(r"[0-9a-f]{40}", doc["trees"][tree]["commit"])
        assert re.fullmatch(r"[0-9a-f]{64}", doc["trees"][tree]["src_sha256"])
    assert doc["environment"]["exp_class"]
    assert set(doc["workloads"]) == {w["name"] for w in DECLARED["workloads"]}
    for metrics in doc["workloads"].values():
        assert set(metrics) == {m["name"] for m in DECLARED["end_to_end"]}
        for entry in metrics.values():
            assert entry["pairs"] >= 1
            assert entry["base"]["wins"] + entry["head"]["wins"] <= entry["pairs"]
            for tree in ("base", "head"):
                assert entry[tree]["q1"] <= entry[tree]["median"] <= entry[tree]["q3"]


def test_a_record_exists():
    assert list(ROOT.glob("BENCH_*.json"))


def test_pairs_are_won_by_the_strictly_better_value():
    def rep(run_s, pass_frac):
        return {"result": {"metrics": {"run_s": {"value": run_s}, "pass_frac": {"value": pass_frac}}}}

    runs = {"w": {"base": [rep(2.0, 1.0), rep(1.0, 0.5), rep(3.0, 1.0)],
                  "head": [rep(1.0, 1.0), rep(1.0, 1.0), rep(2.0, 0.5)]}}
    metrics = [{"name": "run_s", "better": "lower"}, {"name": "pass_frac", "better": "higher"}]
    got = recorder().record(runs, metrics)["w"]
    assert (got["run_s"]["base"]["wins"], got["run_s"]["head"]["wins"], got["run_s"]["pairs"]) == (0, 2, 3)
    assert (got["pass_frac"]["base"]["wins"], got["pass_frac"]["head"]["wins"]) == (1, 1)
    assert got["run_s"]["base"] == {"median": 2.0, "q1": 1.5, "q3": 2.5, "iqr": 1.0, "wins": 0}
