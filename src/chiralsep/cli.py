"""Command-line interface.

Subcommands: run, loops, flip-sensitivity, dressed-potentials, timescales,
dump-couplings.  All outputs are CSV or flat key = value text, formatted by
`scenarios.csv_lines` and `scenarios.keyvalue_lines` and written to stdout,
or with ``--out`` to a file through `scenarios.write_text`; exit code 0 on
success, 2 with a machine-readable ``error: ...`` line on validation failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace

import numpy as np

from . import dressed as dressedmod
from . import looptopology
from .coupling import Enantiomer, GaussianBeam
from .looptopology import edges, flip_sensitivity, random_loop_hamiltonian
from .scenarios import (
    ConfigError,
    builtin_config,
    builtin_names,
    couplings_csv,
    csv_lines,
    keyvalue_lines,
    load_config,
    loops_csv,
    run_scenario,
    loop_census,
    timescale_report,
    with_jmax,
    write_outputs,
    write_text,
    _assemble,
)


def _add_config_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="scenario config file")
    group.add_argument("--scenario", metavar="NAME",
                       help=f"builtin scenario, one of {builtin_names()}")
    p.add_argument("--jmax", type=int, default=None, help="override basis truncation")


def _load(args):
    cfg = load_config(args.config) if args.config else builtin_config(args.scenario)
    if args.jmax is None:
        return cfg
    try:
        return replace(with_jmax(cfg, args.jmax), jmax_key="--jmax")
    except ValueError as exc:
        raise ConfigError(f"--jmax: {exc}") from None


def _cmd_run(args):
    cfg = _load(args)
    tags = ("L", "R") if args.enantiomer == "both" else (args.enantiomer,)
    result = run_scenario(cfg, enantiomers=tags)
    print(*write_outputs(result, args.out), sep="\n")


def _cmd_loops(args):
    if args.max_len < 3:
        raise ConfigError(f"--max-len: a loop has 3 or more levels, got {args.max_len}")
    h = _assemble(_load(args), Enantiomer.L)
    try:
        loops = loop_census(h, max_len=args.max_len)
    except ValueError as exc:  # more than MAX_LOOPS loops
        raise ConfigError(f"--max-len: {exc}") from None
    _emit(loops_csv(h, loops), args.out, "loops.csv")


#: most sign patterns (2^n - 1 for an n-ring) one flip-sensitivity draw may
#: classify: n = 16 takes seconds a draw, and each edge more doubles it
MAX_FLIP_PATTERNS = 2**16 - 1
#: most table rows (draws x the sum of 2^n - 1) one flip-sensitivity run
#: writes; it bounds run time and file size, not memory, as each stack's rows
#: are written once classified: --sizes 16 --draws 16, 1,048,560 rows, took
#: 31 s (one run, one BLAS thread)
MAX_FLIP_ROWS = 2**20
#: most dressed-potentials grid points: 10^6 points took 16 s and 836 MB
MAX_POINTS = 10**6


def _flip_sizes(text):
    """The ring sizes of --sizes, each checked."""
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"--sizes: expected comma-separated integers, got {text!r}") from None
    for n in sizes:
        if n < 3:
            raise ConfigError(f"--sizes: a ring needs at least 3 levels to close a loop, got {n}")
        if n >= (MAX_FLIP_PATTERNS + 1).bit_length():  # 2^n - 1 > MAX_FLIP_PATTERNS
            raise ConfigError(f"--sizes: {n} gives 2^{n} - 1 sign patterns a draw, more than "
                              f"{MAX_FLIP_PATTERNS}")
    return sizes


def _cmd_flip_sensitivity(args):
    sizes = _flip_sizes(args.sizes)
    if args.draws < 0:
        raise ConfigError(f"--draws: must be non-negative, got {args.draws}")
    if args.seed < 0:
        raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
    rows = args.draws * sum(2**n - 1 for n in sizes)
    if rows > MAX_FLIP_ROWS:
        raise ConfigError(f"--draws: {args.draws} draws of sizes {args.sizes} give {rows} "
                          f"table rows, more than {MAX_FLIP_ROWS}")
    _emit(_flip_table(sizes, args.draws, args.seed), args.out, "flip_sensitivity.csv")


def _flip_table(sizes, draws, seed):
    """The flip-sensitivity CSV chunks: the header, then the rows of each stack
    of draws (of 2^n - 1 sign patterns an n-ring) that fits FLIP_BATCH rows,
    at least one, as soon as they are classified."""
    yield "n,draw,flips,classification\n"
    for n in sizes:
        rng = np.random.default_rng(seed + n)
        per = max(1, looptopology.FLIP_BATCH // (2**n - 1))
        for start in range(0, draws, per):
            rings = random_loop_hamiltonian(n, rng, size=min(per, draws - start))
            if start == 0:  # every ring of n levels has the same edges
                names = ["-".join(map(str, e)) for e in edges(rings[0])]
                subsets = [np.array(list(itertools.combinations(range(len(names)), r)))
                           for r in range(1, len(names) + 1)]
                # row p of flips marks the edges of the p-th subset
                flips = np.concatenate([np.eye(len(names), dtype=bool)[s].any(axis=1)
                                        for s in subsets])
                labels = [";".join(names[k] for k in pat) for s in subsets for pat in s.tolist()]
            rows = len(rings) * len(flips)
            yield from csv_lines(None, [[n] * rows, np.arange(start, start + len(rings)).repeat(
                len(flips)), labels * len(rings), flip_sensitivity(rings, flips)])


def _cmd_dressed_potentials(args):
    if args.points < 3:
        raise ConfigError(f"--points: central differences need 3 or more, got {args.points}")
    if args.points > MAX_POINTS:
        raise ConfigError(f"--points: {args.points} grid points, more than {MAX_POINTS}")
    if not 0 < 2 * args.span < np.inf:
        raise ConfigError(f"--span: 2 * span must be positive and finite, got {args.span}")
    try:
        offsets = [float(s) for s in args.offsets.split(",")]
        if len(offsets) != 3 or not np.all(np.isfinite(offsets)):
            raise ValueError
    except ValueError:
        raise ConfigError("--offsets: expected three finite comma-separated numbers, "
                          f"got {args.offsets!r}") from None
    cfg = _load(args)
    grid = np.linspace(-args.span, args.span, args.points)
    lasers = [
        replace(l, beam=GaussianBeam(waist=l.beam.waist, center=off))
        for l, off in zip(cfg.lasers, offsets)
    ]
    for tag in ("L", "R"):
        frame = dressedmod.dress_field(dressedmod.FieldConfiguration.from_lasers(
            lasers, grid, who=Enantiomer(tag), dipole=cfg.dipole))
        vs = [dressedmod.scalar_potential(frame, n) / cfg.omega12_max for n in range(3)]
        try:
            with np.errstate(divide="ignore", invalid="ignore"):  # non-finite: refused below
                avs = [dressedmod.vector_potential(frame, n) for n in range(3)]
        except dressedmod.DiscontinuousFrameError as exc:
            raise ConfigError(f"--points: {exc}; the grid is too coarse for the beams: "
                              "raise --points or lower --span") from None
        if not np.all(np.isfinite([*vs, *avs])):
            raise ConfigError(f"--span: {args.span} gives non-finite finite differences; raise it")
        _emit(csv_lines(["x", "V_1", "V_2", "V_3", "A_1", "A_2", "A_3"], [grid, *vs, *avs]),
              args.out, f"dressed_{tag}.csv")


def _cmd_timescales(args):
    sys.stdout.writelines(keyvalue_lines(timescale_report(_load(args)).items()))


def _cmd_dump_couplings(args):
    cfg = _load(args)
    h = _assemble(cfg, Enantiomer(args.enantiomer))
    _emit(couplings_csv(h), args.out, f"couplings_{args.enantiomer}.csv")


def _emit(chunks, out_dir, name):
    """The text chunks to stdout, or to out_dir/name with its path on stdout."""
    if out_dir is None:
        sys.stdout.writelines(chunks)
    else:
        print(write_text(out_dir, name, chunks))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chiralsep",
        description="Rotational effects on laser-based enantioseparation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="propagate a scenario and write traces")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--enantiomer", choices=("L", "R", "both"), default="both")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("loops", help="enumerate closed loops of the coupling graph")
    _add_config_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(func=_cmd_loops)

    p = sub.add_parser("flip-sensitivity",
                       help="spectral sensitivity of n-loops to Rabi sign flips")
    p.add_argument("--sizes", default="3,4,5,6", help="comma-separated loop sizes")
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_flip_sensitivity)

    p = sub.add_parser("dressed-potentials",
                       help="rotationless dressed potentials on a transverse grid")
    _add_config_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--span", type=float, default=2.0, help="half-width of the x grid")
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--offsets", default="-0.5,0.5,0.0",
                   help="beam centers for the 1-2, 2-3, 1-3 lasers")
    p.set_defaults(func=_cmd_dressed_potentials)

    p = sub.add_parser("timescales", help="characteristic timescale table")
    _add_config_args(p)
    p.set_defaults(func=_cmd_timescales)

    p = sub.add_parser("dump-couplings", help="coupling table (A, B, Omega, Delta)")
    _add_config_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--enantiomer", choices=("L", "R"), default="L")
    p.set_defaults(func=_cmd_dump_couplings)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
