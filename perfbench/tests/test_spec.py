"""BENCHMARK.json is the rendering of spec.py and stays within its format limits;
no metric on the result line is 0 in the baseline."""

import json
import os
import re

import spec
from conftest import BENCH, ROOT
from layers import unit

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_rendered_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert fh.read() == spec.benchmark_json()


def test_spec_limits():
    doc = json.loads(spec.benchmark_json())
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in doc["end_to_end"])
    assert max(m["bound"] for m in doc["end_to_end"]) <= 0.25
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert 1 <= len(doc["per_layer"]) <= 128


def test_listed_units_are_the_units_the_runner_prints():
    doc = json.loads(spec.benchmark_json())
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert unit(m["name"]) == m["unit"], m["name"]


def test_result_line_metrics_are_never_zero_in_the_baseline():
    with open(os.path.join(BENCH, "BASELINE.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    assert set(baseline["workloads"]) == set(spec.workload_names())
    for workload, figures in baseline["workloads"].items():
        for m in spec.END_TO_END:
            assert figures["end_to_end"][m["name"]]["median"] > 0, (workload, m["name"])
        for name, _, _ in spec.PER_LAYER:
            assert figures["per_layer"].get(name), (workload, name)
