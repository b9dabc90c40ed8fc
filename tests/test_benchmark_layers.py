"""The benchmark's traced run reports every per-layer metric it declares.

A metric that `perfbench/spec.py` declares but the traced run leaves out
makes the runner refuse the whole result line.  A metric goes missing when
a function perfbench wraps (`layers.TARGETS`) is renamed or removed, or
when `wigner.three_j_exact` loses its `cache_info`.  The flip-sensitivity
spans are checked on their own, since no run_scenario call makes them.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
from layers import TARGETS, derive  # noqa: E402
from tracer import Tracer  # noqa: E402

from chiralsep import cli, scenarios, wigner  # noqa: E402

#: metrics the runner measures around the job, not from its spans
OUTSIDE_THE_JOB = ("setup.", "tracing.overhead_ratio")


@pytest.fixture(scope="module")
def traced_fig7():
    """(tracer, result, 3j cache info) of one traced fig7 run."""
    three_j = wigner.three_j_exact
    if hasattr(three_j, "cache_clear"):
        three_j.cache_clear()  # a cold cache, as in a fresh benchmark process
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        result = scenarios.run_scenario(scenarios.builtin_config("fig7-1mK-xxz"))
    finally:
        tracer.uninstall()
    # the cache statistics are read as the benchmark's worker reads them
    return tracer, result, three_j.cache_info() if hasattr(three_j, "cache_info") else None


def test_a_traced_run_derives_every_declared_per_layer_metric(traced_fig7):
    tracer, _, info = traced_fig7
    derived = derive(tracer.spans, tracer.missing, info)
    declared = [name for name, _, _ in spec.PER_LAYER if not name.startswith(OUTSIDE_THE_JOB)]
    assert [name for name in declared if name not in derived] == []
    assert tracer.missing == []


def test_each_enantiomer_is_one_traced_assemble_that_evaluates_its_couplings(traced_fig7):
    # the measure hook reads (n, edges) from every return, and each Rabi
    # frequency call is made inside an assemble, also when R is built on L's table
    tracer, result, _ = traced_fig7
    spans = tracer.spans
    assert [sp.measure for sp in spans if sp.name == "hamiltonian.assemble"] == [
        (result.couplings[tag].n, len(result.couplings[tag].fin)) for tag in ("L", "R")]
    rabi = [sp for sp in spans if sp.name == "coupling.rabi_frequency"]
    assert rabi
    assert {spans[sp.parent].name for sp in rabi} == {"hamiltonian.assemble"}


def test_a_traced_flip_sensitivity_run_records_its_layer_spans():
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["flip-sensitivity", "--sizes", "3", "--draws", "2"]) == 0
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"looptopology.flip_sensitivity", "looptopology.loop_phases"} <= names
    assert tracer.missing == []
