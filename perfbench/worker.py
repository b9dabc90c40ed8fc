"""One fresh workload process; prints one JSON line and exits.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --spawned T [--setup-only] [--trace SPANS_PATH] [--work-dir DIR]

`--spawned` is the parent's time.time() just before it started this
process, so set-up is measured from interpreter start.  Set-up ends when
`chiralsep.cli` is imported and the workload's config is built; the job
runs from there until its outputs are written.  Output checks come after
the job and are not timed.  With `--trace` the layer spans are recorded
(see layers.py) and written to SPANS_PATH; the time to install the tracer
is reported as setup.trace_install_s and left out of setup.config_s.
"""

import time  # noqa: I001  (first: nothing may run before set-up starts)
import argparse
import contextlib
import json
import os
import resource
import sys


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment():
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0))}


def _write_spans(path, spans):
    names = sorted({sp.name for sp in spans})
    ids = {n: k for k, n in enumerate(names)}
    doc = {"names": names, "columns": ["name", "start", "end", "parent"],
           "spans": [[ids[sp.name], sp.start, sp.end, sp.parent] for sp in spans]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None, metavar="SPANS_PATH")
    p.add_argument("--work-dir", default=None)
    p.add_argument("--fingerprints", default=None, metavar="PATH",
                   help="write the outputs' fingerprints to PATH instead of checking them")
    args = p.parse_args(argv)

    # the benchmark's own modules load before set-up's parts are timed
    from checks import load_reference
    from layers import TARGETS, derive
    from tracer import Tracer
    from workloads import WORKLOADS, evaluate

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    t_import = time.time()
    import chiralsep.cli  # noqa: F401  (the import being timed)
    t_imported = time.time()
    if not os.path.abspath(chiralsep.__file__).startswith(src + os.sep):
        raise SystemExit(f"chiralsep imported from {chiralsep.__file__}, not {src}")

    wl = WORKLOADS[args.workload]
    tracer, install_s = None, 0.0
    if args.trace:
        t_install = time.time()
        tracer = Tracer()
        tracer.install(TARGETS)
        install_s = time.time() - t_install
    inputs = wl.build(args.seed)
    t_built = time.time()
    out = {"setup": {"setup_s": t_built - args.spawned,
                     "import_s": t_imported - t_import,
                     "config_s": t_built - t_imported - install_s,
                     "modules": len(sys.modules)}}
    if tracer:
        out["setup"]["trace_install_s"] = install_s
    out["env"] = _environment()
    if args.setup_only:
        print(json.dumps(out))
        return 0

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        state, error = wl.run(inputs, args.work_dir, span), None
    except Exception as exc:   # the job failed: every op of this process fails
        state, error = None, f"{type(exc).__name__}: {exc}"
    out["job_s"] = time.perf_counter() - t0
    out["cpu_s"] = _cpu_s() - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        info = getattr(getattr(chiralsep, "wigner", None), "three_j_exact", None)
        info = info.cache_info() if hasattr(info, "cache_info") else None
        out["layers"] = derive(tracer.spans, tracer.missing, info)
        out["missing"] = tracer.missing
        _write_spans(args.trace, tracer.spans)

    observations = wl.observe(inputs, state, args.work_dir, args.seed)
    if error is None:
        reference = None if args.fingerprints else load_reference()
        fingerprints, failures = evaluate(observations, args.workload, args.seed, reference)
        if args.fingerprints:
            with open(args.fingerprints, "w", encoding="utf-8") as fh:
                json.dump(fingerprints, fh, indent=1, sort_keys=True)
    else:
        failures = {op: error for op, _, _ in observations}
    out["attempted"] = len(observations)
    out["failures"] = failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
