"""Which chiralsep functions the traced run wraps, and the layer metrics.

Span names are ``<module>.<function>``.  A metric whose function no longer
exists is absent from the result, never 0; a function that exists but did
not run in the workload reports 0 calls and 0 s.
"""

from __future__ import annotations

import os

from tracer import Target, has_ancestor, summarize


def _bytes_written(args, kwargs, paths):
    return sum(os.path.getsize(p) for p in paths)


def _thermal(args, kwargs, probs):
    """(members with w > 0, population at the J cutoff)."""
    jmax = max(s.J for s in probs)
    return (sum(1 for w in probs.values() if w > 0),
            sum(w for s, w in probs.items() if s.J == jmax))


TARGETS = [
    Target("chiralsep.scenarios:parse_config", "scenarios.parse_config"),
    Target("chiralsep.scenarios:run_scenario", "scenarios.run_scenario"),
    Target("chiralsep.scenarios:write_outputs", "scenarios.write_outputs", _bytes_written),
    Target("chiralsep.scenarios:loop_census", "scenarios.loop_census"),
    Target("chiralsep.rotbasis:thermal_rot_state", "rotbasis.thermal_rot_state", _thermal),
    Target("chiralsep.coupling:rabi_frequency", "coupling.rabi_frequency"),
    Target("chiralsep.hamiltonian:assemble", "hamiltonian.assemble",
           lambda a, k, h: (h.n, len(h.fin))),
    Target("chiralsep.hamiltonian:CouplingMatrix.evaluate", "hamiltonian.evaluate",
           lambda a, k, m: m.nbytes),
    Target("chiralsep.hamiltonian:chirality_transform", "hamiltonian.chirality_transform"),
    Target("chiralsep.propagate:ensemble_potential_trace", "propagate.ensemble_potential_trace"),
    Target("chiralsep.propagate:components", "propagate.components",
           lambda a, k, comps: (len(comps), max((len(c) for c in comps), default=0))),
    Target("chiralsep.propagate:prepare_initial", "propagate.prepare_initial"),
    Target("chiralsep.propagate:propagate", "propagate.propagate"),
    Target("chiralsep.propagate:potential_trace", "propagate.potential_trace"),
    Target("chiralsep.propagate:ensemble_average", "propagate.ensemble_average"),
    Target("chiralsep.looptopology:find_loops", "looptopology.find_loops",
           lambda a, k, loops: len(loops)),
    Target("chiralsep.looptopology:flip_sensitivity", "looptopology.flip_sensitivity"),
    Target("chiralsep.looptopology:loop_phases", "looptopology.loop_phases"),
    Target("chiralsep.dressed:dress_field", "dressed.dress_field"),
    Target("chiralsep.dressed:vector_potential", "dressed.vector_potential"),
]

#: spans the benchmark records around its own calls (small-batch)
CLI_SUBCOMMANDS = ("run", "loops", "flip-sensitivity", "dressed-potentials",
                   "timescales", "dump-couplings")

ISOSPECTRALITY = "isospectrality"
RSS_LAYERS = ("hamiltonian.assemble", "propagate.ensemble_potential_trace",
              "scenarios.loop_census")


def _measures(spans, name):
    return [sp.measure for sp in spans if sp.name == name and sp.measure is not None]


def _isospectrality_intervals(spans):
    """(first, last) span of the residual check inside each run_scenario.

    The check is run_scenario's own code: chirality_transform, then dense
    products around the evaluate calls run_scenario makes after it.  The
    interval from the transform's start to the last such evaluate's end
    covers the products, which no wrapper sees.
    """
    children: dict = {}
    for sp in spans:
        if sp.parent >= 0 and spans[sp.parent].name == "scenarios.run_scenario":
            children.setdefault(sp.parent, []).append(sp)
    for kids in children.values():
        start = next((sp for sp in kids if sp.name == "hamiltonian.chirality_transform"), None)
        if start is None:
            continue
        after = [sp for sp in kids
                 if sp.name == "hamiltonian.evaluate" and sp.start >= start.end]
        yield start, max(after, key=lambda sp: sp.end, default=start)


def derive(spans, missing, cache_info=None) -> dict:
    """Layer metrics from the spans of one traced job."""
    rows = summarize(spans)
    gone = {t.name for t in TARGETS if t.path in missing}
    present = [t.name for t in TARGETS if t.name not in gone]
    present += [f"cli.{c}" for c in CLI_SUBCOMMANDS]
    m: dict = {}
    for name in present:
        row = rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rss_growth_mb": 0.0})
        m[f"{name}.s"] = row["s"]
        m[f"{name}.self_s"] = row["self_s"]
        m[f"{name}.calls"] = row["calls"]
        if name in RSS_LAYERS:
            m[f"{name}.rss_growth_mb"] = row["rss_growth_mb"]

    def have(*names):
        return all(n in present for n in names)

    if have("scenarios.write_outputs"):
        m["scenarios.write_outputs.bytes"] = sum(_measures(spans, "scenarios.write_outputs"))
    if have("rotbasis.thermal_rot_state"):
        th = _measures(spans, "rotbasis.thermal_rot_state")
        m["rotbasis.members"] = sum(t[0] for t in th)
        m["rotbasis.edge_mass"] = max((t[1] for t in th), default=0.0)
    if have("hamiltonian.assemble"):
        sizes = _measures(spans, "hamiltonian.assemble")
        m["hamiltonian.levels"] = max((s[0] for s in sizes), default=0)
        m["hamiltonian.edges"] = max((s[1] for s in sizes), default=0)
    if have("hamiltonian.evaluate"):
        m["hamiltonian.evaluate.bytes"] = sum(_measures(spans, "hamiltonian.evaluate"))
    if have("propagate.components"):
        comps = _measures(spans, "propagate.components")
        m["propagate.blocks"] = max((c[0] for c in comps), default=0)
        m["propagate.largest_block"] = max((c[1] for c in comps), default=0)
    if have("looptopology.find_loops"):
        m["looptopology.cycles"] = sum(_measures(spans, "looptopology.find_loops"))

    if have("hamiltonian.chirality_transform", "hamiltonian.evaluate", "scenarios.run_scenario"):
        m[f"{ISOSPECTRALITY}.s"] = m[f"{ISOSPECTRALITY}.rss_growth_mb"] = 0.0
        for first, last in _isospectrality_intervals(spans):
            m[f"{ISOSPECTRALITY}.s"] += last.end - first.start
            m[f"{ISOSPECTRALITY}.rss_growth_mb"] += (
                last.rss_after_kb - first.rss_before_kb) / 1024.0

    if have("propagate.propagate", "hamiltonian.evaluate"):
        m["propagate.steps"] = sum(
            1 for k, sp in enumerate(spans)
            if sp.name == "hamiltonian.evaluate" and has_ancestor(spans, k, "propagate.propagate"))
    if have("propagate.propagate", "propagate.ensemble_potential_trace"):
        traces = m["propagate.ensemble_potential_trace.calls"]
        fallback = set()
        for k, sp in enumerate(spans):
            if sp.name == "propagate.propagate":
                p = sp.parent
                while p >= 0 and spans[p].name != "propagate.ensemble_potential_trace":
                    p = spans[p].parent
                if p >= 0:
                    fallback.add(p)
        if traces:
            m["propagate.fallback_ratio"] = len(fallback) / traces

    if cache_info is not None:
        m["wigner.three_j.misses"] = cache_info.misses
        lookups = cache_info.hits + cache_info.misses
        if lookups:
            m["wigner.three_j.hit_ratio"] = cache_info.hits / lookups
    return m


def unit(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("edge_mass"):
        return "prob"
    return "count"
