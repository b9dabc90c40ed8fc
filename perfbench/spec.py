"""Single source of the benchmark's workloads, metrics and settings.

`python3 perfbench/run.py --write-spec` renders this module into the
repository's BENCHMARK.json; the runner reads it to know which metrics to
print on the result line.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 50

#: BLAS/OpenMP threads in every workload process.  One thread keeps the
#: runs on a shared 2-core host steady and makes cpu_s about equal to job_s.
BLAS_THREADS = 1

#: fresh set-up-only processes per untraced run (set-up is the median)
SETUP_PROBES = 3

#: hard wall limit of one benchmark invocation, below the 180 s contract
WALL_LIMIT_S = 170.0

WORKLOADS = [
    {"name": "fig5-j8",
     "why": "ROADMAP reference: fig5 at jmax 8 (n 2907, 34 blocks), L+R run and write;"
            " trace, loop census and isospectrality dominate"},
    {"name": "small-batch",
     "why": "every CLI subcommand on small inputs with a cold 3j cache, plus a short run on"
            " the non-closing mismatch-j1 config, whose members all take the midpoint stepper"},
]

END_TO_END = [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

#: Per-layer metrics on the result line of a traced run.  A metric on the
#: result line is never 0, on any workload (tests/test_spec.py checks this
#: against BASELINE.json).  So the metrics of layers that run on one
#: workload only (propagate.propagate, propagate.steps and
#: propagate.fallback_ratio, the flip-sensitivity and loop-phase calls,
#: dressed.*, cli.<subcommand>.*), and ru_maxrss deltas that are 0 whenever an
#: earlier stage already set the peak (scenarios.loop_census.rss_growth_mb),
#: are printed in the traced run's table and kept in its result file only.
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("setup.config_s", "s", "lower"),
    ("setup.modules", "count", "lower"),
    ("scenarios.parse_config.s", "s", "lower"),
    ("scenarios.run_scenario.s", "s", "lower"),
    ("scenarios.write_outputs.s", "s", "lower"),
    ("scenarios.write_outputs.bytes", "bytes", "lower"),
    ("rotbasis.thermal_rot_state.s", "s", "lower"),
    ("rotbasis.members", "count", "lower"),
    ("rotbasis.edge_mass", "prob", "lower"),
    ("wigner.three_j.misses", "count", "lower"),
    ("wigner.three_j.hit_ratio", "ratio", "higher"),
    ("coupling.rabi_frequency.s", "s", "lower"),
    ("coupling.rabi_frequency.calls", "count", "lower"),
    ("hamiltonian.assemble.s", "s", "lower"),
    ("hamiltonian.assemble.calls", "count", "lower"),
    ("hamiltonian.levels", "count", "lower"),
    ("hamiltonian.edges", "count", "lower"),
    ("hamiltonian.evaluate.s", "s", "lower"),
    ("hamiltonian.evaluate.calls", "count", "lower"),
    ("hamiltonian.evaluate.bytes", "bytes", "lower"),
    ("isospectrality.s", "s", "lower"),
    ("propagate.ensemble_potential_trace.s", "s", "lower"),
    ("propagate.ensemble_potential_trace.calls", "count", "lower"),
    ("propagate.blocks", "count", "lower"),
    ("propagate.largest_block", "count", "lower"),
    ("propagate.prepare_initial.s", "s", "lower"),
    ("looptopology.find_loops.s", "s", "lower"),
    ("looptopology.find_loops.calls", "count", "lower"),
    ("looptopology.cycles", "count", "lower"),
    ("hamiltonian.assemble.rss_growth_mb", "MB", "lower"),
    ("propagate.ensemble_potential_trace.rss_growth_mb", "MB", "lower"),
    ("isospectrality.rss_growth_mb", "MB", "lower"),
    ("tracing.overhead_ratio", "ratio", "lower"),
]


def workload_names():
    return [w["name"] for w in WORKLOADS]


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
