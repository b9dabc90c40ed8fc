"""Sweep a scenario over jmax, one fresh process a run, and write a BENCH JSON file.

    python tools/bench_sweep.py --out BENCH_31.json [--tree DIR ...] [--rev REV ...]
        [--scenario fig5-T0.5K-xxz-groundres] [--jmax 8,12,20,24,30] [--repeats 3]
        [--nonclosing-t-end 40]

Each `--tree` is a chiralsep checkout (default: the one holding this script);
a child process imports its `src` with BLAS on one thread and runs one
`run_scenario` + `write_outputs` at one jmax.  The runs are interleaved: for
each repeat, every jmax, and at each jmax every tree in turn (the order of
the trees alternates between repeats), so that a drift of the host's speed
touches all trees alike.  Trees whose absolute paths differ in length are
refused: the peak RSS moves with the length of the path.

Per tree and jmax the file holds n, the edges, the blocks and the largest
block, the kernel calls, `run_scenario` and `write_outputs` seconds (median,
min, max over the runs), `ru_maxrss` at exit, the inclusive seconds of the
functions named in LAYERS (a name the tree lacks is listed as absent), and
the largest |trace(jmax) - trace(reference jmax)| over every branch and
enantiomer, the reference being the largest jmax of the sweep, and the
largest |trace - trace of the first tree| at the same jmax, which is 0.0
where the trees' traces are bit-identical.  With
`--nonclosing-t-end T`, the non-closing fig7 case (`[laser13] rot_offset_GHz
= 0.01`, L only, t_end = T / Omega12) runs once per tree, marked as one run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: functions timed in the child, by module: inclusive seconds, summed over calls
LAYERS = {
    "hamiltonian": ("assemble", "transform_residual"),
    "rotbasis": ("thermal_rot_state",),
    "wigner": ("rot_integrals",),
    "scenarios": ("loop_census", "write_outputs"),
    "propagate": ("prepare_initial", "ensemble_potential_trace", "_eigenframe",
                  "_block_expectations", "_block_midpoint"),
}
KERNELS = ("_block_expectations", "_block_midpoint")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _wrap_layers():
    """Put a perf_counter wrapper on every LAYERS function, at each name it
    is bound to in the loaded chiralsep modules; returns (totals, absent)."""
    import importlib

    totals, absent = {}, []
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("chiralsep")]
    for module, names in LAYERS.items():
        owner = importlib.import_module(f"chiralsep.{module}")
        for name in names:
            original = getattr(owner, name, None)
            if original is None:
                absent.append(name)
                continue
            totals[name] = [0.0, 0]

            def timed(*args, _f=original, _row=totals[name], **kwargs):
                start = time.perf_counter()
                try:
                    return _f(*args, **kwargs)
                finally:
                    _row[0] += time.perf_counter() - start
                    _row[1] += 1

            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, timed)
    return totals, absent


def child(scenario, jmax, nonclosing_t_end, work_dir):
    """One run in this process; prints its JSON line."""
    import resource
    from dataclasses import replace

    from chiralsep import propagate, scenarios

    totals, absent = _wrap_layers()
    config = scenarios.with_jmax(scenarios.builtin_config(scenario), jmax)
    tags = ("L", "R")
    if nonclosing_t_end is not None:
        l12, l23, l13 = config.lasers
        config = replace(config, lasers=(l12, l23, replace(l13, rot_offset=0.01)),
                         t_end=nonclosing_t_end / config.omega12_max)
        tags = ("L",)
    start = time.perf_counter()
    result = scenarios.run_scenario(config, enantiomers=tags)
    run_s = time.perf_counter() - start
    out = {"run_scenario_s": run_s}
    if nonclosing_t_end is None:
        start = time.perf_counter()
        scenarios.write_outputs(result, work_dir)
        out["write_outputs_s"] = time.perf_counter() - start
    out["ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    h = result.couplings["L"]
    blocks = propagate.components(h)
    out.update(n=h.n, edges=len(h.fin), blocks=len(blocks),
               largest_block=max(len(b) for b in blocks),
               kernel_calls=sum(totals[k][1] for k in KERNELS if k in totals),
               layers_s={name: row[0] for name, row in totals.items()}, absent=absent)
    if nonclosing_t_end is None:
        out["traces"] = {f"{branch}/{tag}": tr.values.tolist()
                         for branch, per in result.traces.items() for tag, tr in per.items()}
    print(json.dumps(out))


def _run_child(tree, scenario, jmax, nonclosing_t_end, work_dir):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0",
               **{key: "1" for key in BLAS_ENV})
    argv = [sys.executable, os.path.abspath(__file__), "--child", scenario, str(jmax),
            "" if nonclosing_t_end is None else repr(nonclosing_t_end), work_dir]
    done = subprocess.run(argv, env=env, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{tree}: {scenario} at jmax {jmax} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "runs": len(values)}


def _host():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": 1, "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def _rev(tree):
    try:
        return subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _largest_difference(traces, reference):
    """max |a - b| over every branch and enantiomer of two runs' traces."""
    return max(max(abs(a - b) for a, b in zip(values, reference[key]))
               for key, values in traces.items())


def sweep(trees, revs, scenario, jmaxes, repeats, nonclosing_t_end, work_dir):
    """The BENCH document of the trees (see the module docstring)."""
    runs = {(t, j): [] for t in range(len(trees)) for j in jmaxes}
    for r in range(repeats):
        order = list(range(len(trees)))[::-1 if r % 2 else 1]
        for jmax in jmaxes:
            for t in order:
                runs[t, jmax].append(_run_child(trees[t], scenario, jmax, None, work_dir))
    ref = max(jmaxes)
    doc = {"host": _host(), "scenario": scenario, "jmax": list(jmaxes), "repeats": repeats,
           "convergence_reference_jmax": ref, "trees": []}
    for t, tree in enumerate(trees):
        reference = runs[t, ref][0]["traces"]
        points = {}
        for jmax in jmaxes:
            rs, first = runs[t, jmax], runs[t, jmax][0]
            points[str(jmax)] = {
                **{key: first[key] for key in ("n", "edges", "blocks", "largest_block",
                                               "kernel_calls")},
                **{key: _spread([r[key] for r in rs])
                   for key in ("run_scenario_s", "write_outputs_s", "ru_maxrss_mb")},
                "layers_s": {name: statistics.median(r["layers_s"][name] for r in rs)
                             for name in first["layers_s"]},
                "absent": first["absent"],
                "max_trace_difference_from_reference": _largest_difference(first["traces"],
                                                                           reference),
                "max_trace_difference_from_first_tree": _largest_difference(
                    first["traces"], runs[0, jmax][0]["traces"]),
            }
        entry = {"rev": revs[t], "tree": os.path.basename(os.path.abspath(tree)),
                 "points": points}
        if nonclosing_t_end is not None:
            one = _run_child(tree, "fig7-1mK-xxz", 3, nonclosing_t_end, work_dir)
            entry["nonclosing_fig7"] = {
                "t_end_over_omega12": nonclosing_t_end, "runs": 1,
                **{key: one[key] for key in ("run_scenario_s", "ru_maxrss_mb", "n", "edges",
                                             "kernel_calls", "layers_s", "absent")}}
        doc["trees"].append(entry)
    return doc


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        scenario, jmax, t_end, work_dir = argv[1:]
        return child(scenario, int(jmax), float(t_end) if t_end else None, work_dir)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--tree", action="append", help="a chiralsep checkout (repeatable)")
    p.add_argument("--rev", action="append", help="the rev of each tree, in order")
    p.add_argument("--scenario", default="fig5-T0.5K-xxz-groundres")
    p.add_argument("--jmax", default="8,12,20,24,30", help="comma-separated jmax values")
    p.add_argument("--repeats", type=int, default=3, help="fresh processes per point")
    p.add_argument("--nonclosing-t-end", type=float, default=None,
                   help="also run the non-closing fig7 case to this t_end, in 1/Omega12")
    p.add_argument("--work-dir", default=None, help="where the runs write their outputs")
    args = p.parse_args(argv)
    trees = args.tree or [os.path.dirname(HERE)]
    revs = args.rev or [_rev(tree) for tree in trees]
    if len(revs) != len(trees):
        p.error("give one --rev per --tree")
    if len({len(os.path.abspath(tree)) for tree in trees}) > 1:
        p.error("the --tree paths differ in absolute length, which moves the peak RSS: "
                f"{[os.path.abspath(tree) for tree in trees]}")
    jmaxes = [int(j) for j in args.jmax.split(",")]
    if args.repeats < 1 or not jmaxes:
        p.error("need at least one repeat and one jmax")
    import tempfile

    with tempfile.TemporaryDirectory(dir=args.work_dir) as work_dir:
        doc = sweep([os.path.abspath(t) for t in trees], revs, args.scenario, jmaxes,
                    args.repeats, args.nonclosing_t_end, work_dir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
