"""Self-test of the benchmark's tracing on the restricted-loop scenario.

    python3 -m pytest perfbench/tests -q
"""

import sys

import pytest

import chiralsep.cli  # noqa: F401  (loads every chiralsep module)
from chiralsep.hamiltonian import CouplingMatrix
from chiralsep import scenarios
from layers import TARGETS, derive
from tracer import Span, Target, Tracer, self_times, summarize


def _bindings():
    """Every module attribute of chiralsep, and CouplingMatrix's methods, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "chiralsep" or name.startswith("chiralsep."):
            for key, val in vars(mod).items():
                out[(name, key)] = val
    for key, val in vars(CouplingMatrix).items():
        out[("CouplingMatrix", key)] = val
    return out


@pytest.fixture(scope="module")
def traced():
    before = _bindings()
    tracer = Tracer()
    tracer.install(TARGETS)
    during = _bindings()
    try:
        # looked up through the module, as the package's own callers do
        result = scenarios.run_scenario(scenarios.builtin_config("restricted-loop"))
    finally:
        tracer.uninstall()
    return tracer, result, before, during


def test_every_binding_is_the_original_after_tracing(traced):
    tracer, _, before, during = traced
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # while installed, a function is wrapped at every name callers use
    assert during[("chiralsep.scenarios", "ensemble_potential_trace")] is not \
        before[("chiralsep.scenarios", "ensemble_potential_trace")]
    assert during[("chiralsep.propagate", "ensemble_potential_trace")] is \
        during[("chiralsep.scenarios", "ensemble_potential_trace")]
    assert during[("CouplingMatrix", "evaluate")] is not before[("CouplingMatrix", "evaluate")]
    assert tracer.missing == []


def test_spans_nest_inside_their_parents(traced):
    tracer, _, _, _ = traced
    spans = tracer.spans
    names = {sp.name for sp in spans}
    assert {"scenarios.run_scenario", "hamiltonian.assemble", "coupling.rabi_frequency",
            "propagate.ensemble_potential_trace", "looptopology.find_loops"} <= names
    roots = [sp for sp in spans if sp.parent < 0]
    assert [sp.name for sp in roots] == ["scenarios.parse_config", "scenarios.run_scenario"]
    for k, sp in enumerate(spans):
        assert sp.start <= sp.end
        if sp.parent >= 0:
            parent = spans[sp.parent]
            assert sp.parent < k
            assert parent.start <= sp.start and sp.end <= parent.end
    by_name = {sp.name: sp for sp in spans}
    assert spans[by_name["coupling.rabi_frequency"].parent].name == "hamiltonian.assemble"
    assert spans[by_name["looptopology.find_loops"].parent].name == "scenarios.loop_census"


def test_self_times_add_up_to_the_roots(traced):
    tracer, _, _, _ = traced
    spans = tracer.spans
    selfs = self_times(spans)
    assert all(s >= 0 for s in selfs)
    roots = sum(sp.end - sp.start for sp in spans if sp.parent < 0)
    assert sum(selfs) == pytest.approx(roots, rel=1e-9)


def test_self_time_arithmetic_on_known_spans():
    spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 4.0, parent=0),
             Span("c", 2.0, 3.0, parent=1), Span("b", 5.0, 9.0, parent=0),
             Span("b", 6.0, 7.0, parent=3)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]
    rows = summarize(spans)
    assert rows["a"]["s"] == 10.0
    assert rows["b"]["calls"] == 3
    assert rows["b"]["s"] == 7.0          # the nested b is inside an outer b
    assert rows["b"]["self_s"] == 6.0


def test_layer_metrics_of_the_restricted_loop(traced):
    tracer, result, _, _ = traced
    m = derive(tracer.spans, tracer.missing)
    assert m["hamiltonian.levels"] == 3 == result.couplings["L"].n
    assert m["hamiltonian.edges"] == 3
    assert m["looptopology.cycles"] == len(result.loops) == 1
    assert m["hamiltonian.assemble.calls"] == 2
    assert m["propagate.propagate.calls"] == 0
    assert m["propagate.fallback_ratio"] == 0.0
    assert m["rotbasis.members"] == 1
    assert m["cli.run.calls"] == 0 and m["cli.run.s"] == 0.0


def test_a_missing_layer_is_absent_not_zero():
    tracer = Tracer()
    gone = Target("chiralsep.propagate:no_such_function", "propagate.propagate")
    tracer.install([gone])
    tracer.uninstall()
    assert tracer.missing == [gone.path]
    m = derive([], [t.path for t in TARGETS if t.name == "propagate.propagate"])
    assert "propagate.propagate.s" not in m
    assert "propagate.steps" not in m and "propagate.fallback_ratio" not in m
    assert m["hamiltonian.evaluate.calls"] == 0


def test_isospectrality_spans_the_transform_to_the_last_product():
    spans = [Span("scenarios.run_scenario", 0.0, 10.0),
             Span("hamiltonian.evaluate", 0.5, 1.0, parent=0),   # branch set-up, not the check
             Span("hamiltonian.chirality_transform", 2.0, 3.0, parent=0),
             Span("hamiltonian.evaluate", 3.5, 4.0, parent=0),
             Span("hamiltonian.evaluate", 6.0, 7.0, parent=0)]
    assert derive(spans, [])["isospectrality.s"] == 5.0
