"""Named experiments, config-file parsing and output.

Config format (versioned, line-oriented key = value with sections; parsed
with configparser).  The first non-blank line must be the header comment
``# chiralsep config v1``.  Sections and keys:

    [scenario]
    name = fig5-T0.5K-xxz-groundres
    temperature_K = 0.5
    preparation = partially-dressed      ; adiabatic | diabatic | partially-dressed
    jmax = 8
    t_end_over_omega12 = 40              ; or t_end_ns = ...
    n_times = 2000
    evaluation_x = 0.0
    restricted_loop = false
    loop_rot_state = 1 1 1               ; used when restricted_loop = true
    truncation_mass = 1e-6

    [molecule]
    A_GHz = 76.15
    B_GHz = 6.401
    C_GHz = 6.399
    dipole_axis = z                      ; or mu = re,im re,im re,im
    chiral_sign_flip = true

    [laser12]                            ; likewise [laser23], [laser13]
    polarization = x                     ; x | y | z | sigma+ | sigma-
    peak_rabi_over_omega12 = 1.0         ; or peak_rabi_GHz = ...
    waist = 1.0
    center_x = 0.0
    rot_offset_GHz = 0.0

All three lasers are required; they drive the 1-2, 2-3 and 1-3 vibrational
pairs, forming the closed loop.  Keys are case-insensitive.  A section or key
not listed above (a ``[DEFAULT]`` entry counts as a key of every section) is
rejected, never ignored.  Values are taken literally (no interpolation).
Scenario runs are deterministic: identical configs produce bit-identical CSV
output.  Tables are formatted by `csv_lines`, which formats each distinct
float of a column once, ``key = value`` text by `keyvalue_lines`, and every
file is written by `write_texts`, a run's trace files in lockstep so that a
column they share is formatted once.  A full basis at jmax 0 couples nothing
(no laser couples J = 0 to J = 0): building it is reported against
``scenario.jmax``, or against the flag a command-line override names; a
restricted loop that couples nothing, against ``scenario.loop_rot_state``.
"""

from __future__ import annotations

import configparser
import contextlib
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import dressed as dressedmod
from .coupling import DipoleModel, DipoleTransition, Enantiomer, GaussianBeam, LaserSpec
from .hamiltonian import (
    BasisNotClosedError,
    CouplingMatrix,
    EmptyCouplingError,
    LevelIndex,
    UnsupportedSetupError,
    assemble,
    chirality_permutation,
    is_symmetry,
    transform_residual,
)
from .looptopology import find_loops
from .propagate import (
    Ensemble,
    PotentialTrace,
    TraceTooLargeError,
    _block_matrix,
    _blocks,
    ensemble_potential_trace,
    prepare_initial,
)
from .rotbasis import (D2S2, BasisTruncation, RotorConstants, RotState, TruncationError,
                       rot_energy, thermal_rot_state)
from .units import OMEGA12_MAX_GHZ

CONFIG_HEADER = "# chiralsep config v1"

#: experiment-scale and tunneling times echoed in timescale reports (ref values)
TAU_EXP_US = (10.0, 40.0)
TAU_LR_MS = 33.0

PREPARATIONS = ("adiabatic", "diabatic", "partially-dressed")
LASER_SECTIONS = {"laser12": (1, 2), "laser23": (2, 3), "laser13": (1, 3)}


class ConfigError(ValueError):
    """Config validation failure with a field-level message."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    constants: RotorConstants
    lasers: tuple[LaserSpec, LaserSpec, LaserSpec]   # pairs (1,2), (2,3), (1,3)
    dipole: DipoleModel
    temperature: float
    preparation: str
    trunc: BasisTruncation
    t_end: float
    n_times: int = 2000
    evaluation_x: float = 0.0
    restricted_loop: bool = False
    loop_rot: RotState | None = None
    truncation_mass: float = 1e-6
    t_end_key: str = "t_end_ns"      # the config key t_end came from, for errors
    jmax_key: str = "scenario.jmax"  # the key or flag jmax came from, for errors

    def __post_init__(self):
        if self.preparation not in PREPARATIONS:
            raise ConfigError(f"scenario.preparation: unknown mode {self.preparation!r}")
        pairs = [tuple(l.drives) for l in self.lasers]
        if pairs != [(1, 2), (2, 3), (1, 3)]:
            raise ConfigError("exactly three lasers driving the 1-2, 2-3, 1-3 loop required")
        if self.restricted_loop and self.loop_rot is None:
            raise ConfigError("scenario.loop_rot_state: required when restricted_loop = true")
        if self.t_end <= 0:
            raise ConfigError(f"scenario.{self.t_end_key}: must be positive")
        if self.n_times < 2:
            raise ConfigError(f"scenario.n_times: must be at least 2, got {self.n_times!r}")
        for key, value in (("temperature_K", self.temperature), (self.t_end_key, self.t_end),
                           ("evaluation_x", self.evaluation_x),
                           ("truncation_mass", self.truncation_mass)):
            if not math.isfinite(value):
                raise ConfigError(f"scenario.{key}: must be finite, got {value!r}")
            if value < 0 and key in ("temperature_K", "truncation_mass"):
                raise ConfigError(f"scenario.{key}: must be non-negative, got {value!r}")
        if not self.omega12_max > 0:
            raise ConfigError(f"laser12.peak_rabi: must be positive, got {self.omega12_max!r}")

    @property
    def omega12_max(self) -> float:
        """Peak Rabi of the 1-2 laser, the reference scale of all outputs."""
        return self.lasers[0].peak_rabi

    @property
    def polarizations(self):
        return tuple(l.polarization for l in self.lasers)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    times: np.ndarray
    #: traces[branch][enantiomer "L"/"R"] -> PotentialTrace (units of omega12_max)
    traces: dict
    couplings: dict                  # enantiomer -> CouplingMatrix
    loops: np.ndarray                # canonical 3-cycles: rows of basis positions
    isospectrality_residual: float | None
    timescales: dict


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_scalar(section, key, raw, conv=_finite, what="a finite number"):
    try:
        return conv(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {what}") from None


def _checked(prefix, build, *args, **kwargs):
    """build(*args, **kwargs), a ValueError it raises reported as a ConfigError
    whose message is prefix + the error's own."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _parse_bool(section, key, raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{section}.{key}: expected a boolean, got {raw!r}")


#: every section and key a config may hold, with the text an absent key
#: takes; None marks a key with no default: the rotational constants are
#: required, the others stand in for a neighbouring key when given
CONFIG_KEYS = {
    "scenario": {"name": "unnamed", "temperature_K": "0",
                 "preparation": "partially-dressed", "jmax": "3", "t_end_ns": None,
                 "t_end_over_omega12": "40", "n_times": "2000", "evaluation_x": "0.0",
                 "restricted_loop": "false", "loop_rot_state": None,
                 "truncation_mass": "1e-6"},
    "molecule": {"A_GHz": None, "B_GHz": None, "C_GHz": None, "dipole_axis": "z",
                 "mu": None, "chiral_sign_flip": "true"},
    **dict.fromkeys(LASER_SECTIONS, {
        "polarization": "z", "peak_rabi_GHz": None, "peak_rabi_over_omega12": "1.0",
        "waist": "1.0", "center_x": "0.0", "rot_offset_GHz": "0.0"}),
}


def _read_sections(text: str) -> configparser.ConfigParser:
    """The config's sections, checked against CONFIG_KEYS."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0].strip() != CONFIG_HEADER:
        raise ConfigError(f"first line must be the header {CONFIG_HEADER!r}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    for sec in cp.sections():
        known = {key.lower() for key in CONFIG_KEYS.get(sec, ())}
        for key in cp[sec]:  # holds the [DEFAULT] entries too
            if key not in known:
                raise ConfigError(f"{sec}.{key}: unknown key")
        if sec not in CONFIG_KEYS:
            raise ConfigError(f"{sec}: unknown section")
    for sec in CONFIG_KEYS:
        if sec not in cp:
            raise ConfigError(f"missing section [{sec}]")
    return cp


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config; raises ConfigError on failure."""
    cp = _read_sections(text)

    def raw(sec, key):
        value = cp[sec].get(key, CONFIG_KEYS[sec][key])
        if value is None:
            raise ConfigError(f"{sec}.{key}: required")
        return value

    def num(sec, key, conv=_finite, what="a finite number"):
        return _parse_scalar(sec, key, raw(sec, key), conv, what)

    def chosen(sec, key, fallback):  # key when the config gives it, else fallback
        return key if key in cp[sec] else fallback

    abc = [num("molecule", key) for key in ("A_GHz", "B_GHz", "C_GHz")]
    constants = _checked("molecule: ", RotorConstants, *abc)

    flip = _parse_bool("molecule", "chiral_sign_flip", raw("molecule", "chiral_sign_flip"))
    if "mu" in cp["molecule"]:
        parts = [p.split(",") for p in raw("molecule", "mu").split()]
        if len(parts) != 3 or any(len(p) > 2 for p in parts):
            raise ConfigError("molecule.mu: expected three components 're,im re,im re,im'")
        mu = tuple(complex(*(_parse_scalar("molecule", "mu", c) for c in p)) for p in parts)
    elif raw("molecule", "dipole_axis").strip() == "z":
        mu = (0.0, 1.0, 0.0)
    else:
        raise ConfigError("molecule.dipole_axis: only 'z' is supported (or give mu)")
    transition = _checked("molecule.mu: ", DipoleTransition, mu=mu, chiral_sign_flip=flip)
    dipole = DipoleModel(dict.fromkeys(LASER_SECTIONS.values(), transition))

    evaluation_x = num("scenario", "evaluation_x")
    lasers = []
    for sec, pair in LASER_SECTIONS.items():
        peak_key = chosen(sec, "peak_rabi_GHz", "peak_rabi_over_omega12")
        peak = num(sec, peak_key)
        if sec == "laser12" and not peak > 0:  # the reference scale of all outputs
            raise ConfigError(f"{sec}.{peak_key}: must be positive, got {peak!r}")
        if peak_key == "peak_rabi_over_omega12":
            peak *= OMEGA12_MAX_GHZ
        if peak == 0:  # a dark laser couples nothing; also a ratio that underflows
            raise ConfigError(f"{sec}.{peak_key}: must be nonzero")
        # GaussianBeam's errors start "waist: "
        beam = _checked(f"{sec}.", GaussianBeam, num(sec, "waist"), num(sec, "center_x"))
        lasers.append(_checked(f"{sec}: ", LaserSpec, pair, raw(sec, "polarization").strip(),
                               peak, beam, num(sec, "rot_offset_GHz")))
        if peak * beam(evaluation_x) == 0:  # the laser would couple nothing
            raise ConfigError(f"{sec}.center_x: the beam's Rabi frequency at evaluation_x = "
                              f"{evaluation_x!r} underflows to 0")

    t_end_key = chosen("scenario", "t_end_ns", "t_end_over_omega12")
    t_end = num("scenario", t_end_key)
    if t_end_key == "t_end_over_omega12":
        t_end = t_end / lasers[0].peak_rabi
        if not math.isfinite(t_end):  # a denormal laser12 peak overflows the division
            raise ConfigError(f"scenario.{t_end_key}: {raw('scenario', t_end_key).strip()}"
                              " / Omega12 is not finite")

    loop_rot = None
    if "loop_rot_state" in cp["scenario"]:
        parts = raw("scenario", "loop_rot_state").split()
        if len(parts) != 3:
            raise ConfigError("scenario.loop_rot_state: expected 'J K M'")
        loop_rot = _checked("scenario.loop_rot_state: ",
                            lambda: RotState(*(int(p) for p in parts)))
    trunc = _checked("scenario.jmax: ", BasisTruncation, num("scenario", "jmax", int, "an integer"))

    return ScenarioConfig(
        name=raw("scenario", "name"),
        constants=constants,
        lasers=tuple(lasers),
        dipole=dipole,
        temperature=num("scenario", "temperature_K"),
        preparation=raw("scenario", "preparation").strip(),
        trunc=trunc,
        t_end=t_end,
        n_times=num("scenario", "n_times", int, "an integer"),
        evaluation_x=evaluation_x,
        restricted_loop=_parse_bool("scenario", "restricted_loop",
                                    raw("scenario", "restricted_loop")),
        loop_rot=loop_rot,
        truncation_mass=num("scenario", "truncation_mass"),
        t_end_key=t_end_key,
    )


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


_FIG5_TEXT = f"""\
{CONFIG_HEADER}
[scenario]
name = fig5-T0.5K-xxz-groundres
temperature_K = 0.5
preparation = partially-dressed
jmax = 8
t_end_over_omega12 = 40
n_times = 2000

[molecule]
A_GHz = 76.15
B_GHz = 6.401
C_GHz = 6.399
dipole_axis = z

[laser12]
polarization = x

[laser23]
polarization = x

[laser13]
polarization = z
"""


def _retuned(cfg):
    """Fig 5 (lower panel): lasers retuned so the 1-2 and 2-3 transitions are
    resonant for |1>|J K M> <-> |2>|J+1 K M> <-> |3>|J K M> with (J, K) = (1, 1)."""
    d = rot_energy(RotState(2, 1, 1), D2S2) - rot_energy(RotState(1, 1, 1), D2S2)
    l12, l23, l13 = cfg.lasers
    return replace(cfg, lasers=(replace(l12, rot_offset=d), replace(l23, rot_offset=-d), l13))


#: every builtin scenario as its changes to the fig5 config; the paper's
#: comparisons share one molecule and, but for the restricted loop, one laser setup
_BUILTINS = {
    "fig5-T0.5K-xxz-groundres": lambda cfg: cfg,
    "fig5-T0.5K-xxz-retuned": _retuned,
    "fig7-1mK-xxz": lambda cfg: replace(cfg, temperature=0.001, trunc=BasisTruncation(3)),
    "restricted-loop": lambda cfg: replace(
        cfg, temperature=0.0, preparation="adiabatic", trunc=BasisTruncation(1),
        restricted_loop=True, loop_rot=RotState(1, 1, 1),
        lasers=tuple(replace(l, polarization="z") for l in cfg.lasers)),
}


def builtin_names():
    return sorted(_BUILTINS)


def builtin_config(name: str, jmax: int | None = None) -> ScenarioConfig:
    if name not in _BUILTINS:
        raise ConfigError(f"unknown builtin scenario {name!r}; known: {builtin_names()}")
    cfg = replace(_BUILTINS[name](parse_config(_FIG5_TEXT)), name=name)
    return with_jmax(cfg, jmax)


def with_jmax(cfg: ScenarioConfig, jmax: int | None) -> ScenarioConfig:
    """cfg with its basis truncated at jmax instead; None keeps cfg."""
    return cfg if jmax is None else replace(cfg, trunc=BasisTruncation(jmax))


def _assemble(config: ScenarioConfig, who: Enantiomer, like=None) -> CouplingMatrix:
    basis = [LevelIndex(v, config.loop_rot) for v in (1, 2, 3)] if config.restricted_loop else None
    try:
        return assemble(config.lasers, config.dipole, who, config.constants,
                        config.trunc, x=config.evaluation_x, basis=basis, like=like)
    except EmptyCouplingError as exc:
        if config.restricted_loop:  # its three levels all share loop_rot
            raise ConfigError(f"scenario.loop_rot_state: {exc}") from None
        # J = 0 couples only to J = 1, so a full basis fails at jmax 0 alone
        raise ConfigError(f"{config.jmax_key}: {exc}; increase jmax") from None


def _branch_members(config, who, h, thermal):
    """Mapping branch label -> Ensemble."""
    if config.restricted_loop:
        # eigenstates of the static restricted loop, one branch each, in
        # ascending order of their eigenvalues over all blocks
        blocks, _, _, edges, _ = _blocks(h)
        eig = [np.linalg.eigh(_block_matrix(*edges(c), 0.0)) for c in range(len(blocks))]
        states = [(val, idx, vec) for idx, (vals, vecs) in zip(blocks, eig)
                  for val, vec in zip(vals, vecs.T)]
        states.sort(key=lambda s: s[0])
        return {n + 1: Ensemble.from_triplets(h.n, [1.0], np.zeros(len(idx), dtype=int), idx, vec)
                for n, (_, idx, vec) in enumerate(states)}
    if config.preparation == "partially-dressed":
        peaks = [config.dipole.sign(l.drives, who) * (l.peak_rabi * l.beam(config.evaluation_x))
                 for l in config.lasers]
        with warnings.catch_warnings():
            # equal-amplitude beams have a degenerate dressed pair by design
            warnings.simplefilter("ignore", dressedmod.DegenerateFrameWarning)
            _, vecs = dressedmod.dress(peaks)
        return {
            n + 1: prepare_initial("partially-dressed", h, thermal,
                                   vib_amplitudes=vecs[:, n])
            for n in range(3)
        }
    return {"thermal": prepare_initial(config.preparation, h, thermal)}


def run_scenario(config: ScenarioConfig, enantiomers=("L", "R")) -> ScenarioResult:
    """Propagate every branch for the requested enantiomers.

    The first enantiomer's Hamiltonian is assembled, and the other's on its
    edges and detunings, which both share (`assemble(..., like=)`).  When
    the chirality permutation T exists and maps H_L onto H_R row for row
    (`is_symmetry(H_L, *T, H_R)`), R's ensembles are moved onto
    H_L as T rho_R T^dag, and every branch of both enantiomers goes through
    one `ensemble_potential_trace` call on H_L, where branches with equal
    block rho share their kernel work.  Otherwise (a single enantiomer, a
    restricted basis, an uncatalogued polarization mix or a table T does
    not map) each enantiomer is traced on its own Hamiltonian.
    """
    try:
        thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                    cutoff_mass=config.truncation_mass)
    except TruncationError as exc:
        raise ConfigError(f"{config.jmax_key}: {exc}; increase jmax, or raise "
                          "scenario.truncation_mass") from None
    href = _assemble(config, Enantiomer(enantiomers[0]))
    couplings = {enantiomers[0]: href} | {
        tag: _assemble(config, Enantiomer(tag), href) for tag in enantiomers[1:]}
    transform = _transform_or_none(config, href) if set(enantiomers) == {"L", "R"} else None
    residual = None if transform is None else transform_residual(
        couplings["L"], couplings["R"], *transform, 0.0, 0.37, 1.9)
    # the loop census is built before the trace: memory the trace frees stays
    # resident, so a census built after it would add to the process peak
    try:
        loops = loop_census(href)
    except ValueError as exc:  # more than MAX_LOOPS loops
        raise ConfigError(f"{config.jmax_key}: {exc}; lower jmax") from None
    ensembles = {(branch, tag): ens for tag in enantiomers for branch, ens in
                 _branch_members(config, Enantiomer(tag), couplings[tag], thermal).items()}
    if transform is not None and is_symmetry(couplings["L"], *transform, couplings["R"]):
        perm, sign = transform
        calls = [(couplings["L"], {
            (branch, tag): ens if tag == "L" else
            replace(ens, level=perm[ens.level], amp=ens.amp * sign[ens.level])
            for (branch, tag), ens in ensembles.items()})]
    else:
        calls = [(couplings[tag], {key: ens for key, ens in ensembles.items() if key[1] == tag})
                 for tag in enantiomers]
    traces: dict = {}
    for h, group in calls:
        try:
            per = ensemble_potential_trace(h, group, config.t_end, config.n_times,
                                           omega_ref=config.omega12_max)
        except TraceTooLargeError as exc:
            key = "n_times" if exc.by_grid else config.t_end_key
            raise ConfigError(f"scenario.{key}: {exc}") from None
        for (branch, tag), tr in per.items():
            traces.setdefault(branch, {})[tag] = tr

    return ScenarioResult(
        config=config,
        times=next(iter(per.values())).times,
        traces=traces,
        couplings=couplings,
        loops=loops,
        isospectrality_residual=residual,
        timescales=timescale_report(config, href),
    )


def _transform_or_none(config, h):
    """(perm, sign) of the chirality transformation over h's basis, or None.

    With no laser pair flagged `chiral_sign_flip`, H_R is H_L and T is the
    identity.  None when only some pairs are flagged, for an uncatalogued
    polarization mix, or for a basis that is not closed under M reversal (a
    restricted basis need not be).
    """
    signs = {config.dipole.sign(l.drives, Enantiomer.R) for l in config.lasers}
    if signs == {1.0}:
        return np.arange(h.n), np.ones(h.n)
    if signs != {-1.0}:
        return None
    try:
        return chirality_permutation(config.polarizations, h.levels)
    except (UnsupportedSetupError, BasisNotClosedError):
        return None


def loop_census(h: CouplingMatrix, max_len: int = 3) -> np.ndarray:
    """Simple cycles (default: 3-cycles) of the coupling graph, as the
    `find_loops` rows of basis positions."""
    return find_loops(np.stack((h.fin, h.ini), axis=1), max_len=max_len)


def timescale_report(config: ScenarioConfig, h: CouplingMatrix | None = None) -> dict:
    """Characteristic times in ns plus basis bookkeeping."""
    c = config.constants
    omega12 = config.omega12_max
    if h is None:
        h = _assemble(config, Enantiomer.L)
    tau_delta = 1.0 / c.b
    tau_omega = 1.0 / omega12
    return {
        "inv_A_ns": 1.0 / c.a,
        "inv_B_ns": tau_delta,
        "inv_C_ns": 1.0 / c.c,
        "tau_Omega_ns": tau_omega,
        "tau_exp_us_min": TAU_EXP_US[0],
        "tau_exp_us_max": TAU_EXP_US[1],
        "tau_LR_ms": TAU_LR_MS,
        "basis_size": h.n,
        "coupling_count": len(h.fin),
        "max_detuning_GHz": float(np.max(np.abs(h.delta), initial=0.0)),
        "separation_ok": tau_delta < tau_omega,
    }


# ---------------------------------------------------------------------------
# CSV / summary emission


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)


#: CSV rows formatted per chunk: the Python objects of whole columns would
#: take ~32 bytes a value, and a chunk's row strings ~100 bytes a row
CSV_CHUNK_ROWS = 1024


def csv_lines(header, columns):
    """The header line (none for None), then the rows in chunks of CSV_CHUNK_ROWS.
    A column is an array or a sequence; a value prints as its str, the repr of
    a float.  An array of dtype object holds its cells' text already."""
    if header is not None:
        yield ",".join(header) + "\n"
    yield from map(_rows, zip(*(_cells(c, CSV_CHUNK_ROWS) for c in columns)))


def _rows(cells) -> str:
    """The CSV lines of one chunk's cells, a list of str per column."""
    # a row tuple joined at once is reused by zip: no tuple per row for the GC
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _cells(column, size):
    """The str cells of the column, size rows at a time."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return _float_cells(column, size)
    parts = (column[start:start + size] for start in range(0, len(column), size))
    if isinstance(column, np.ndarray):
        return (p.tolist() if column.dtype == object else list(map(str, p.tolist())) for p in parts)
    return (list(map(str, p)) for p in parts)


def _float_cells(values: np.ndarray, size: int):
    """str of each float, chunk by chunk, formatted once per distinct bit
    pattern of the whole column (0.0 and -0.0 apart), at its first chunk and
    dropped after its last: past ~18 bytes a value of index, a column of
    distinct values holds one chunk's str."""
    bits = values.view(np.int64)
    order = np.argsort(bits, kind="stable")  # equal bits stay in column order
    new = np.ones(len(bits) + 1, dtype=bool)  # where each run of equal bits starts, and the end
    new[1:-1] = np.diff(bits[order]) != 0
    first, last = np.zeros((2, len(bits)), dtype=bool)
    first[order[new[:-1]]] = last[order[new[1:]]] = True
    new[0] = False  # so that the cumsum numbers the runs from 0
    group = np.empty(len(bits), dtype=np.intp)  # the run of each value
    group[order] = np.cumsum(new[:-1])
    del order
    strs = np.empty(np.count_nonzero(new), dtype=object)
    for start in range(0, len(values), size):
        at = slice(start, start + size)
        g = group[at]
        strs[g[first[at]]] = list(map(str, values[at][first[at]].tolist()))
        yield strs[g].tolist()
        strs[g[last[at]]] = None


def keyvalue_lines(items):
    """One `key = value` line per (key, value) pair."""
    return (f"{key} = {_fmt(val)}\n" for key, val in items)


def write_text(out_dir, name, chunks) -> str:
    """Write the text chunks to out_dir/name, creating out_dir; returns the path."""
    return write_texts(out_dir, [name], zip(chunks))[0]


def write_texts(out_dir, names, parts) -> list[str]:
    """Write files in lockstep: each item of parts holds one text chunk per
    name, appended to out_dir/name.  Creates out_dir; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in names]
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                 for path in paths]
        for chunks in parts:
            for fh, chunk in zip(files, chunks):
                fh.write(chunk)
    return paths


def trace_csv(result: ScenarioResult, branch):
    """One row per time: time_ns, time_in_inverse_Omega12, value_<tag>..."""
    return (text for chunks in trace_csvs(result, [branch]) for text in chunks)


def trace_csvs(result: ScenarioResult, branches):
    """The `trace_csv` chunks of the branches in lockstep, one per branch an
    item.  Each distinct column is formatted once for all files: the times, and
    values that R's branch n shares with L's branch 4 - n on the mirror builtins."""
    pers = [result.traces[b] for b in branches]
    yield [",".join(["time_ns", "time_in_inverse_Omega12"] + [f"value_{t}" for t in per]) + "\n"
           for per in pers]
    columns, picks = [result.times, result.times * result.config.omega12_max], []
    for per in pers:
        picks.append([0, 1])  # the file's columns
        for tr in per.values():
            bits = tr.values.view(np.int64)
            same = [k for k, c in enumerate(columns) if np.array_equal(c.view(np.int64), bits)]
            picks[-1].append(same[0] if same else len(columns))
            columns += [] if same else [tr.values]
    # map lets go of a chunk's cells before the next chunk's are made
    yield from map(lambda cells: (_rows([cells[k] for k in pick]) for pick in picks),
                   zip(*(_cells(c, CSV_CHUNK_ROWS) for c in columns)))


def couplings_csv(h: CouplingMatrix):
    """One row per coupling: the final and initial level, Omega and Delta."""
    names = h.levels.names
    return csv_lines(["final", "initial", "omega_re_GHz", "omega_im_GHz", "delta_GHz"],
                     [names[h.fin], names[h.ini], h.omega.real, h.omega.imag, h.delta])


def loops_csv(h: CouplingMatrix, loops: np.ndarray):
    """One row per loop of `loop_census(h)`: its length, its levels, whether
    they share one |J K M>.  Each row is the tokens `length,`, the levels'
    names and `,true` or `,false`, joined CSV_CHUNK_ROWS loops at a time."""
    names = h.levels.names
    # a loop's first level prints as its name, a later one as " -> " + name
    # (at n + 1 + level), and the padding -1 after its last as the "" at n
    tokens = np.concatenate([names, [""], " -> " + names])
    shift = (len(names) + 1) * (np.arange(loops.shape[1]) > 0)
    lengths = np.array([f"{k}," for k in range(loops.shape[1] + 1)], dtype=object)
    ends = np.array([",false\n", ",true\n"], dtype=object)
    jkm = h.levels.qn[1:]
    yield "length,states,same_rotational_label\n"
    for start in range(0, len(loops), CSV_CHUNK_ROWS):
        part = loops[start:start + CSV_CHUNK_ROWS]
        same = np.all(np.all(jkm[:, part] == jkm[:, part[:, :1]], axis=0) | (part < 0), axis=1)
        row = np.column_stack([lengths[(part >= 0).sum(axis=1)], tokens[part + shift],
                               ends[same.astype(int)]])
        yield "".join(row.ravel().tolist())


def summary_text(result: ScenarioResult) -> str:
    """Flat key = value summary (time averages, residuals, timescales)."""
    items = [("scenario", result.config.name)]
    for branch, per in result.traces.items():
        items += [(f"time_average_branch{branch}_{tag}", tr.time_average)
                  for tag, tr in per.items()]
        if {"L", "R"} <= set(per):
            items.append((f"max_LR_difference_branch{branch}",
                          float(np.max(np.abs(per["L"].values - per["R"].values)))))
    items.append(("loop_count", len(result.loops)))
    if result.isospectrality_residual is not None:
        items.append(("isospectrality_residual", result.isospectrality_residual))
    return "".join(keyvalue_lines(items + list(result.timescales.items())))


def write_outputs(result: ScenarioResult, out_dir) -> list[str]:
    """Write all CSVs and the summary into out_dir; returns the paths.  The
    trace files are written in lockstep."""
    paths = write_texts(out_dir, [f"trace_branch{b}.csv" for b in result.traces],
                        trace_csvs(result, list(result.traces)))
    files = [(f"couplings_{tag}.csv", couplings_csv(h)) for tag, h in result.couplings.items()]
    h = next(iter(result.couplings.values()))  # the census's: L and R share one basis
    files += [("loops.csv", loops_csv(h, result.loops)), ("summary.txt", [summary_text(result)])]
    return paths + [write_text(out_dir, name, chunks) for name, chunks in files]
