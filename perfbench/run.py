"""chiralsep benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec         # (re)write BENCHMARK.json
    python3 perfbench/run.py --write-reference    # (re)write reference.json

Run it from the root of a chiralsep checkout; it uses the code in ./src.
Every operation runs in a fresh worker process (worker.py), started only
after the previous one has ended: one sequential caller in a closed loop.
Untraced (--trace 0): SETUP_PROBES set-up-only processes, then workload
processes for S seconds (at least one; another starts only if it is
expected to end within S); the end-to-end metrics are medians over them.
Traced (--trace 1): untraced and traced processes alternate; layer metrics
are medians over the traced ones, set-up and end-to-end figures come from
the untraced ones only, and tracing.overhead_ratio is traced over untraced
median job time.
The last stdout line is the JSON result; the full result set, with the
environment and every sample, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import layers
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"


class WorkerFailed(Exception):
    pass


def git_rev(root):
    """HEAD commit of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, root, workload, seed, deadline):
        self.root, self.workload, self.seed, self.deadline = root, workload, seed, deadline
        self.env = dict(os.environ)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[key] = str(spec.BLAS_THREADS)
        self.count = 0

    def worker(self, *extra, work=True):
        """Run one worker process to completion; returns its JSON result."""
        self.count += 1
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", self.root,
               "--workload", self.workload, "--seed", str(self.seed)]
        work_dir = os.path.join(self.root, OUT_DIR, "work", f"{self.workload}-{self.count}")
        if work:
            cmd += ["--work-dir", work_dir]
        cmd += list(extra)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("no time left before the wall limit")
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(time.time())], env=self.env,
                                  cwd=self.root, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker exceeded the wall limit ({timeout:.0f} s)") from None
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode == 0 and lines:
                return json.loads(lines[-1])
        except ValueError:
            pass
        raise WorkerFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def median(values):
    """Median; for counts the lower median, so a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run_workload(args, root):
    start = time.monotonic()
    runner = Runner(root, args.workload, args.seed, start + spec.WALL_LIMIT_S)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(root, OUT_DIR, f"spans-{tag}.json")
    setups, plain, traced, errors = [], [], [], []
    attempted = failed = 0

    def op(*extra):
        nonlocal attempted, failed
        try:
            res = runner.worker(*extra)
        except WorkerFailed as exc:
            attempted, failed = attempted + 1, failed + 1
            errors.append(str(exc))
            return None
        attempted += res["attempted"]
        failed += len(res["failures"])
        errors.extend(f"{name}: {msg}" for name, msg in sorted(res["failures"].items()))
        return res

    if not args.trace:
        for _ in range(spec.SETUP_PROBES):
            try:
                res = runner.worker("--setup-only", work=False)
            except WorkerFailed as exc:
                errors.append(str(exc))
                break
            setups.append(res["setup"])
    # closed loop: the next round starts only if it is expected to end
    # within --seconds (the first always runs) and well before the wall limit
    measure_start, longest = time.monotonic(), 0.0
    while True:
        round_start = time.monotonic()
        for extra in ([], ["--trace", spans_path]) if args.trace else ([],):
            res = op(*extra)
            if res is not None:
                (traced if extra else plain).append(res)
                if not extra:
                    setups.append(res["setup"])
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if (failed or now + longest - measure_start > args.seconds
                or runner.deadline - now < 1.5 * longest):
            break

    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    full = {}
    if plain:
        full["setup_s"] = median([s["setup_s"] for s in setups])
        for key in ("job_s", "cpu_s", "peak_rss_mb"):
            full[key] = median([r[key] for r in plain])
    if traced:
        for key in ("import_s", "config_s", "trace_install_s", "modules"):
            full[f"setup.{key}"] = median([r["setup"][key] for r in traced])
        names = sorted(set().union(*(r["layers"] for r in traced)))
        for name in names:
            full[name] = median([r["layers"][name] for r in traced if name in r["layers"]])
        full["tracing.overhead_ratio"] = (median([r["job_s"] for r in traced])
                                          / median([r["job_s"] for r in plain]))
    wanted = ([n for n, _, _ in spec.PER_LAYER] if args.trace
              else [m["name"] for m in spec.END_TO_END])
    metrics = {n: {"value": full[n], "unit": layers.unit(n)} for n in wanted if n in full}

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced workload processes, "
          f"BLAS threads {spec.BLAS_THREADS}")
    for name, val in full.items():
        print(f"{name} = {val!r} {layers.unit(name)}")
    print(f"error_rate = {failed / attempted!r} "
          f"({failed} failed / {attempted} attempted)")
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    if traced and traced[-1].get("missing"):
        print(f"# absent layers (function gone): {traced[-1]['missing']}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "git_rev": git_rev(root),
              "env": (traced or plain or [{}])[0].get("env"),
              "blas_threads": spec.BLAS_THREADS, "result": result, "all_metrics": full,
              "errors": errors, "samples": {"setup": setups, "untraced": plain,
                                             "traced": traced}}
    with open(os.path.join(root, OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"# env {json.dumps({'git_rev': record['git_rev'], **(record['env'] or {})})}")
    print(json.dumps(result))
    return 0


def write_reference(root):
    """Fingerprints of every workload at seed 0, from the code in ./src."""
    reference = {}
    for name in spec.workload_names():
        runner = Runner(root, name, 0, time.monotonic() + 600)
        path = os.path.join(root, OUT_DIR, f"fingerprints-{name}.json")
        res = runner.worker("--fingerprints", path)
        if res["failures"]:
            raise SystemExit(f"{name}: {res['failures']}")
        with open(path, encoding="utf-8") as fh:
            reference[name] = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=spec.workload_names())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()
    if args.write_spec:
        with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            fh.write(spec.benchmark_json())
        return 0
    if not os.path.isfile(os.path.join(root, "src", "chiralsep", "__init__.py")):
        print(f"error: no chiralsep sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    if args.write_reference:
        return write_reference(root)
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
