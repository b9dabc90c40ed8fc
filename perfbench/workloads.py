"""The workloads: inputs from a seed, the timed job, the output checks.

Every workload has
  build(seed)                  -> inputs (configs built here count as set-up)
  run(inputs, work_dir, span)  -> state   (the timed job; writes outputs)
  observe(inputs, state, work_dir, seed) -> [(op, seeded, thunk)]
where each thunk reads one operation's outputs back, raises CheckFailed
on a broken invariant and returns the operation's fingerprint.  `seeded`
says whether the operation's input depends on the seed; fingerprints of
unseeded operations, and all of them at seed 0, must match reference.json.

chiralsep is imported inside the functions: the worker times that import.
"""

from __future__ import annotations

import contextlib
import glob
import io
import os
import random

from checks import (NORM_TOL, CheckFailed, check_flip_rows, check_summary, compare,
                    csv_fingerprint, parse_keyvalues, read_keyvalues, require)

HERE = os.path.dirname(os.path.abspath(__file__))
FIG5 = "fig5-T0.5K-xxz-groundres"
FIG7 = "fig7-1mK-xxz"


def _observe_scenario(out_dir):
    """Summary values (finite, isospectral) and finite trace CSVs."""
    values = read_keyvalues(os.path.join(out_dir, "summary.txt"))
    check_summary(values, "summary.txt")
    traces = sorted(glob.glob(os.path.join(out_dir, "trace_branch*.csv")))
    require(traces, "no trace_branch*.csv written")
    for path in traces:
        csv_fingerprint(path)
    return values


class Fig5J8:
    name = "fig5-j8"

    def build(self, seed):
        from dataclasses import replace

        from chiralsep.scenarios import builtin_config

        cfg = builtin_config(FIG5)
        if seed:
            cfg = replace(cfg, evaluation_x=random.Random(seed).uniform(-0.25, 0.25))
        return cfg

    def run(self, cfg, work_dir, span):
        from chiralsep.scenarios import run_scenario, write_outputs

        write_outputs(run_scenario(cfg), work_dir)

    def observe(self, cfg, state, work_dir, seed):
        return [("run", True, lambda: _observe_scenario(work_dir))]


def mismatch_text(seed):
    """configs/mismatch-j1.cfg with its laser13 offset drawn from the seed."""
    offset = 0.01 if seed == 0 else random.Random(seed).uniform(0.005, 0.02)
    with open(os.path.join(HERE, "configs", "mismatch-j1.cfg"), encoding="utf-8") as fh:
        return fh.read().replace("{rot_offset_13}", repr(offset))


def check_propagate_norm(cfg):
    """One bare state through `propagate` keeps norm 1 at every output time.

    The mismatch config admits no node potential, so this is the midpoint
    stepper every thermal member of that scenario takes.
    """
    import numpy as np

    from chiralsep.coupling import Enantiomer
    from chiralsep.hamiltonian import LevelIndex, assemble
    from chiralsep.propagate import propagate
    from chiralsep.rotbasis import RotState

    h = assemble(cfg.lasers, cfg.dipole, Enantiomer.L, cfg.constants, cfg.trunc,
                 x=cfg.evaluation_x)
    psi0 = np.zeros(h.n, dtype=complex)
    psi0[h.index(LevelIndex(1, RotState(0, 0, 0)))] = 1.0
    _, traj = propagate(h, psi0, cfg.t_end, n_out=cfg.n_times)
    dev = float(np.max(np.abs(np.linalg.norm(traj, axis=1) - 1.0)))
    require(dev <= NORM_TOL, f"propagate: norm deviates from 1 by {dev:.3e}")
    return {"outputs": len(traj)}


class SmallBatch:
    name = "small-batch"
    FLIP_SIZES = (3, 4, 5, 6)
    FLIP_DRAWS = 50
    MISMATCH_CFG = "mismatch-j1.cfg"      # written into the work dir by run()

    def build(self, seed):
        from chiralsep.scenarios import builtin_config, parse_config

        for name in (FIG7, "restricted-loop", FIG5):
            builtin_config(name)
        text = mismatch_text(seed)
        sizes = ",".join(map(str, self.FLIP_SIZES))
        calls = [
            ("run-fig7", False, ["run", "--scenario", FIG7]),
            ("run-restricted", False, ["run", "--scenario", "restricted-loop"]),
            ("run-mismatch", True, ["run", "--config", self.MISMATCH_CFG]),
            ("loops", False, ["loops", "--scenario", FIG7, "--max-len", "6"]),
            ("flip-sensitivity", True, ["flip-sensitivity", "--sizes", sizes,
                                        "--draws", str(self.FLIP_DRAWS), "--seed", str(seed)]),
            ("dressed-potentials", False, ["dressed-potentials", "--scenario", FIG7]),
            ("timescales", False, ["timescales", "--scenario", FIG5]),
            ("dump-couplings", False, ["dump-couplings", "--scenario", FIG7,
                                       "--enantiomer", "R"]),
        ]
        return calls, text, parse_config(text)

    def run(self, inputs, work_dir, span):
        from chiralsep import cli

        calls, text, _ = inputs
        os.makedirs(work_dir, exist_ok=True)
        config_path = os.path.join(work_dir, self.MISMATCH_CFG)
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        state = {}
        for op, _, argv in calls:
            argv = [config_path if a == self.MISMATCH_CFG else a for a in argv]
            if argv[0] != "timescales":
                argv = argv + ["--out", os.path.join(work_dir, op)]
            out, err = io.StringIO(), io.StringIO()
            with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except Exception as exc:   # keep going: one failed call is one failed op
                    rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
            state[op] = (rc, out.getvalue(), err.getvalue())
        return state

    def observe(self, inputs, state, work_dir, seed):
        calls, _, mismatch_cfg = inputs

        def checked(op, body):
            def thunk():
                rc, out, err = state[op]
                require(rc == 0, f"exit {rc}: {err.strip()}")
                return body(os.path.join(work_dir, op), out)
            return thunk

        bodies = {
            "run-fig7": lambda d, out: _observe_scenario(d),
            "run-restricted": lambda d, out: _observe_scenario(d),
            "run-mismatch": lambda d, out: _observe_scenario(d),
            "loops": lambda d, out: csv_fingerprint(os.path.join(d, "loops.csv")),
            "flip-sensitivity": lambda d, out: check_flip_rows(
                os.path.join(d, "flip_sensitivity.csv"), self.FLIP_SIZES, self.FLIP_DRAWS),
            "dressed-potentials": lambda d, out: {
                f"{tag}.{k}": v for tag in ("L", "R")
                for k, v in csv_fingerprint(os.path.join(d, f"dressed_{tag}.csv")).items()},
            "timescales": lambda d, out: self._timescales(out),
            "dump-couplings": lambda d, out: csv_fingerprint(
                os.path.join(d, "couplings_R.csv")),
        }
        return [(op, seeded, checked(op, bodies[op])) for op, seeded, _ in calls] + [
            ("propagate-norm", True, lambda: check_propagate_norm(mismatch_cfg))]

    @staticmethod
    def _timescales(out):
        values = parse_keyvalues(out)
        require(values, "timescales printed nothing")
        check_summary(values, "timescales")
        return values


WORKLOADS = {w.name: w for w in (Fig5J8(), SmallBatch())}


def evaluate(observations, workload, seed, reference):
    """Run every check; returns (fingerprints, failures) keyed by op."""
    fingerprints, failures = {}, {}
    ref = reference.get(workload, {}) if reference is not None else None
    for op, seeded, thunk in observations:
        try:
            fp = thunk()
            fingerprints[op] = fp
            if ref is not None and (seed == 0 or not seeded):
                require(op in ref, f"no reference for {op}")
                compare(fp, ref[op], "reference")
        except CheckFailed as exc:
            failures[op] = str(exc)
        except Exception as exc:   # an output that cannot even be read fails its op
            failures[op] = f"{type(exc).__name__}: {exc}"
    return fingerprints, failures
