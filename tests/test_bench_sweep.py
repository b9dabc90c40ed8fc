"""The jmax sweep script writes a complete BENCH file of finite numbers."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POINT_KEYS = {"n", "edges", "blocks", "largest_block", "kernel_calls", "run_scenario_s",
              "write_outputs_s", "ru_maxrss_mb", "layers_s", "absent",
              "max_trace_difference_from_reference"}


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def test_the_sweep_on_fig7_writes_every_key_and_only_finite_numbers(tmp_path):
    # fig7 at jmax 2 and 3, one process each, and the non-closing case, short
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_sweep.py"), "--out", str(out),
                    "--tree", str(ROOT), "--rev", "test", "--scenario", "fig7-1mK-xxz",
                    "--jmax", "2,3", "--repeats", "1", "--nonclosing-t-end", "0.05",
                    "--work-dir", str(tmp_path)],
                   check=True, env=dict(os.environ, PYTHONPATH=""))
    doc = json.loads(out.read_text())
    assert set(doc) == {"host", "scenario", "jmax", "repeats", "convergence_reference_jmax",
                        "trees"}
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu"} <= set(doc["host"])
    (tree,) = doc["trees"]
    assert tree["rev"] == "test" and set(tree["points"]) == {"2", "3"}
    for point in tree["points"].values():
        assert set(point) == POINT_KEYS
        assert point["absent"] == []
        assert point["run_scenario_s"]["runs"] == 1
        assert set(point["layers_s"]) >= {"assemble", "transform_residual", "loop_census",
                                          "prepare_initial", "ensemble_potential_trace",
                                          "_eigenframe"}
    assert tree["points"]["3"]["max_trace_difference_from_reference"] == 0.0
    assert 0 < tree["points"]["2"]["max_trace_difference_from_reference"] < 1e-5
    assert tree["nonclosing_fig7"]["runs"] == 1
    assert tree["nonclosing_fig7"]["layers_s"]["_block_midpoint"] > 0
    numbers = list(_numbers(doc))
    assert numbers and all(math.isfinite(x) for x in numbers)
