"""Write the outputs of a fixed set of chiralsep calls, to compare two trees byte for byte.

    python tools/cli_outputs.py OUT [--case NAME ...]
    diff -r OUT_OF_ONE_TREE OUT_OF_THE_OTHER

chiralsep is imported from the `src` of the checkout holding this script,
and every case runs in this process with OUT as the working directory, so
the paths a call prints read the same in every tree.  Case NAME writes
NAME.txt (its exit code, stdout and stderr) and, for a call that takes
--out, its files in the directory NAME.  The cases (`--case` picks some):

- `run` on the four builtins, on fig5 at jmax 12 and 20, and on fig7 with R
  alone;
- small-batch's seeded calls (perfbench/workloads.py) at seeds 0-2: `run`
  on configs/mismatch-j1.cfg with the laser13 offset `mismatch_text`
  draws, and `flip-sensitivity --sizes 3,4,5,6 --draws 50 --seed S`;
- `loops --max-len 6`, `dressed-potentials` and `dump-couplings` L and R
  on fig7, and `timescales` on the four builtins;
- the stdout of the four demos;
- `run` and `dump-couplings` R on two configs with complex helicity
  components: y polarization with a complex mu (one part -0.0), and
  sigma- with another complex mu.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIG5 = "fig5-T0.5K-xxz-groundres"
FIG7 = "fig7-1mK-xxz"
BUILTINS = (FIG5, "fig5-T0.5K-xxz-retuned", FIG7, "restricted-loop")
SEEDS = (0, 1, 2)

#: configs with complex helicity components, {name: (laser12 polarization, mu)}
COMPLEX = {"complex-y": ("y", "0.25,-0.0 1.0,0.5 -0.25,0.1"),
           "complex-sigma": ("sigma-", "0.5,0.5 1.0,0.0 0.0,0.3")}
COMPLEX_TEXT = """\
# chiralsep config v1
[scenario]
name = {name}
temperature_K = 0.001
preparation = partially-dressed
jmax = 2
t_end_over_omega12 = 5
n_times = 200

[molecule]
A_GHz = 76.15
B_GHz = 6.401
C_GHz = 6.399
mu = {mu}

[laser12]
polarization = {polarization}

[laser23]
polarization = x

[laser13]
polarization = z
"""


def cases():
    """{name: argv of `chiralsep.cli.main`, or the path of a demo}, in run order."""
    out = {f"run-{name}": ["run", "--scenario", name] for name in BUILTINS}
    out |= {f"run-fig5-j{j}": ["run", "--scenario", FIG5, "--jmax", str(j)] for j in (12, 20)}
    out["run-fig7-R"] = ["run", "--scenario", FIG7, "--enantiomer", "R"]
    for seed in SEEDS:
        out[f"run-mismatch-seed{seed}"] = ["run", "--config", f"configs/mismatch-seed{seed}.cfg"]
        out[f"flip-sensitivity-seed{seed}"] = ["flip-sensitivity", "--sizes", "3,4,5,6",
                                              "--draws", "50", "--seed", str(seed)]
    out["loops"] = ["loops", "--scenario", FIG7, "--max-len", "6"]
    out["dressed-potentials"] = ["dressed-potentials", "--scenario", FIG7]
    out |= {f"dump-couplings-{tag}": ["dump-couplings", "--scenario", FIG7, "--enantiomer", tag]
            for tag in "LR"}
    out |= {f"timescales-{name}": ["timescales", "--scenario", name] for name in BUILTINS}
    for name in COMPLEX:
        out[f"run-{name}"] = ["run", "--config", f"configs/{name}.cfg"]
        out[f"dump-couplings-{name}-R"] = ["dump-couplings", "--config", f"configs/{name}.cfg",
                                           "--enantiomer", "R"]
    demos = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))
    out |= {f"demo-{f[:-3]}": os.path.join(ROOT, "demos", f) for f in demos}
    return out


def _write_configs():
    """configs/ in the working directory: the mismatch config of each seed
    and the complex-helicity configs."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import mismatch_text

    os.makedirs("configs", exist_ok=True)
    texts = {f"mismatch-seed{seed}": mismatch_text(seed) for seed in SEEDS}
    texts |= {name: COMPLEX_TEXT.format(name=name, polarization=pol, mu=mu)
              for name, (pol, mu) in COMPLEX.items()}
    for name, text in texts.items():
        with open(os.path.join("configs", f"{name}.cfg"), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_case(name, what):
    """Run one case in the working directory; writes name.txt."""
    from chiralsep import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if isinstance(what, str):
            runpy.run_path(what, run_name="__main__")
            rc = 0
        else:
            rc = cli.main(what + ([] if what[0] == "timescales" else ["--out", name]))
    with open(f"{name}.txt", "w", encoding="utf-8") as fh:
        fh.write(f"exit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="output directory, created if missing")
    parser.add_argument("--case", action="append", default=None, metavar="NAME",
                        help="run only this case (repeatable)")
    args = parser.parse_args(argv)
    todo = cases()
    unknown = set(args.case or ()) - set(todo)
    if unknown:
        parser.error(f"unknown case(s) {sorted(unknown)}; known: {list(todo)}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)
    _write_configs()
    for name, what in todo.items():
        if args.case is None or name in args.case:
            run_case(name, what)


if __name__ == "__main__":
    main()
