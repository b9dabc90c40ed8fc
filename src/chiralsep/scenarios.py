"""Named experiments, config-file parsing and CSV output.

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
pairs, forming the closed loop.  Scenario runs are deterministic: identical
configs produce bit-identical CSV output.
"""

from __future__ import annotations

import configparser
import io
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import dressed as dressedmod
from .coupling import DipoleModel, DipoleTransition, Enantiomer, GaussianBeam, LaserSpec
from .hamiltonian import (
    BasisNotClosedError,
    CouplingMatrix,
    LevelIndex,
    UnsupportedSetupError,
    assemble,
    chirality_permutation,
    product_basis,
    transform_residual,
)
from .looptopology import find_loops
from .propagate import (
    Ensemble,
    PotentialTrace,
    ensemble_potential_trace,
    prepare_initial,
)
from .rotbasis import BasisTruncation, RotorConstants, RotState, thermal_rot_state
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

    def __post_init__(self):
        if self.preparation not in PREPARATIONS:
            raise ConfigError(f"scenario.preparation: unknown mode {self.preparation!r}")
        pairs = [tuple(l.drives) for l in self.lasers]
        if pairs != [(1, 2), (2, 3), (1, 3)]:
            raise ConfigError("exactly three lasers driving the 1-2, 2-3, 1-3 loop required")
        if self.restricted_loop and self.loop_rot is None:
            raise ConfigError("scenario.loop_rot_state required when restricted_loop = true")
        if self.t_end <= 0 or self.n_times < 2:
            raise ConfigError("scenario: t_end must be positive, n_times >= 2")
        for key, value in (("temperature_K", self.temperature), ("t_end_ns", self.t_end),
                           ("evaluation_x", self.evaluation_x),
                           ("truncation_mass", self.truncation_mass)):
            if not math.isfinite(value):
                raise ConfigError(f"scenario.{key}: must be finite, got {value!r}")
        if self.temperature < 0:
            raise ConfigError(
                f"scenario.temperature_K: must be non-negative, got {self.temperature!r}")

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
    loops: list                      # canonical 3+ cycles as LevelIndex lists
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


def _parse_bool(section, key, raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{section}.{key}: expected a boolean, got {raw!r}")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config; raises ConfigError on failure."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0].strip() != CONFIG_HEADER:
        raise ConfigError(f"first line must be the header {CONFIG_HEADER!r}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    for sec in ("scenario", "molecule", *LASER_SECTIONS):
        if sec not in cp:
            raise ConfigError(f"missing section [{sec}]")

    mol = cp["molecule"]
    for key in ("A_GHz", "B_GHz", "C_GHz"):
        if key not in mol:
            raise ConfigError(f"molecule.{key}: required")
    try:
        constants = RotorConstants(
            a=_parse_scalar("molecule", "A_GHz", mol["A_GHz"]),
            b=_parse_scalar("molecule", "B_GHz", mol["B_GHz"]),
            c=_parse_scalar("molecule", "C_GHz", mol["C_GHz"]),
        )
    except ValueError as exc:
        raise ConfigError(f"molecule: {exc}") from None

    flip = _parse_bool("molecule", "chiral_sign_flip", mol.get("chiral_sign_flip", "true"))
    if "mu" in mol:
        parts = [p.split(",") for p in mol["mu"].split()]
        if len(parts) != 3 or any(len(p) > 2 for p in parts):
            raise ConfigError("molecule.mu: expected three components 're,im re,im re,im'")
        mu = tuple(complex(*(_parse_scalar("molecule", "mu", c) for c in p)) for p in parts)
    elif mol.get("dipole_axis", "z").strip() == "z":
        mu = (0.0, 1.0, 0.0)
    else:
        raise ConfigError("molecule.dipole_axis: only 'z' is supported (or give mu)")
    try:
        dipole = DipoleModel({
            pair: DipoleTransition(mu=mu, chiral_sign_flip=flip)
            for pair in LASER_SECTIONS.values()
        })
    except ValueError as exc:
        raise ConfigError(f"molecule.mu: {exc}") from None

    sc = cp["scenario"]
    omega12 = None
    lasers = []
    for sec_name, pair in LASER_SECTIONS.items():
        sec = cp[sec_name]
        pol = sec.get("polarization", "z").strip()
        if "peak_rabi_GHz" in sec:
            peak = _parse_scalar(sec_name, "peak_rabi_GHz", sec["peak_rabi_GHz"])
        else:
            ratio = _parse_scalar(
                sec_name, "peak_rabi_over_omega12",
                sec.get("peak_rabi_over_omega12", "1.0"))
            peak = ratio * OMEGA12_MAX_GHZ
        beam = GaussianBeam(
            waist=_parse_scalar(sec_name, "waist", sec.get("waist", "1.0")),
            center=_parse_scalar(sec_name, "center_x", sec.get("center_x", "0.0")),
        )
        offset = _parse_scalar(
            sec_name, "rot_offset_GHz", sec.get("rot_offset_GHz", "0.0"))
        try:
            lasers.append(LaserSpec(drives=pair, polarization=pol, peak_rabi=peak,
                                    beam=beam, rot_offset=offset))
        except ValueError as exc:
            raise ConfigError(f"{sec_name}: {exc}") from None
        if sec_name == "laser12":
            omega12 = peak

    t_end_key = "t_end_ns" if "t_end_ns" in sc else "t_end_over_omega12"
    raw = sc.get(t_end_key, "40")
    t_end = _parse_scalar("scenario", t_end_key, raw)
    if t_end_key == "t_end_over_omega12":
        t_end = t_end / omega12

    loop_rot = None
    if "loop_rot_state" in sc:
        parts = sc["loop_rot_state"].split()
        if len(parts) != 3:
            raise ConfigError("scenario.loop_rot_state: expected 'J K M'")
        try:
            loop_rot = RotState(*(int(p) for p in parts))
        except ValueError as exc:
            raise ConfigError(f"scenario.loop_rot_state: {exc}") from None

    return ScenarioConfig(
        name=sc.get("name", "unnamed"),
        constants=constants,
        lasers=tuple(lasers),
        dipole=dipole,
        temperature=_parse_scalar("scenario", "temperature_K",
                                  sc.get("temperature_K", "0")),
        preparation=sc.get("preparation", "partially-dressed").strip(),
        trunc=BasisTruncation(
            _parse_scalar("scenario", "jmax", sc.get("jmax", "3"), int, "an integer")),
        t_end=t_end,
        n_times=_parse_scalar("scenario", "n_times", sc.get("n_times", "2000"), int, "an integer"),
        evaluation_x=_parse_scalar("scenario", "evaluation_x",
                                   sc.get("evaluation_x", "0.0")),
        restricted_loop=_parse_bool("scenario", "restricted_loop",
                                    sc.get("restricted_loop", "false")),
        loop_rot=loop_rot,
        truncation_mass=_parse_scalar("scenario", "truncation_mass",
                                      sc.get("truncation_mass", "1e-6")),
    )


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


_BUILTIN_TEXT = {
    "fig5-T0.5K-xxz-groundres": f"""\
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
""",
    "fig7-1mK-xxz": f"""\
{CONFIG_HEADER}
[scenario]
name = fig7-1mK-xxz
temperature_K = 0.001
preparation = partially-dressed
jmax = 3
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
""",
    "restricted-loop": f"""\
{CONFIG_HEADER}
[scenario]
name = restricted-loop
temperature_K = 0
preparation = adiabatic
jmax = 1
t_end_over_omega12 = 40
n_times = 2000
restricted_loop = true
loop_rot_state = 1 1 1

[molecule]
A_GHz = 76.15
B_GHz = 6.401
C_GHz = 6.399
dipole_axis = z

[laser12]
polarization = z

[laser23]
polarization = z

[laser13]
polarization = z
""",
}

# Fig 5 (lower panel): lasers retuned so the 1-2 and 2-3 transitions are
# resonant for |1>|J K M> <-> |2>|J+1 K M> <-> |3>|J K M> with (J, K) = (1, 1).
def _retuned_text():
    from .rotbasis import D2S2, rot_energy

    d = rot_energy(RotState(2, 1, 1), D2S2) - rot_energy(RotState(1, 1, 1), D2S2)
    base = _BUILTIN_TEXT["fig5-T0.5K-xxz-groundres"]
    base = base.replace("name = fig5-T0.5K-xxz-groundres", "name = fig5-T0.5K-xxz-retuned")
    base = base.replace("[laser12]\npolarization = x",
                        f"[laser12]\npolarization = x\nrot_offset_GHz = {d!r}")
    base = base.replace("[laser23]\npolarization = x",
                        f"[laser23]\npolarization = x\nrot_offset_GHz = {-d!r}")
    return base


def builtin_names():
    return sorted(list(_BUILTIN_TEXT) + ["fig5-T0.5K-xxz-retuned"])


def builtin_config(name: str, jmax: int | None = None) -> ScenarioConfig:
    if name == "fig5-T0.5K-xxz-retuned":
        cfg = parse_config(_retuned_text())
    elif name in _BUILTIN_TEXT:
        cfg = parse_config(_BUILTIN_TEXT[name])
    else:
        raise ConfigError(f"unknown builtin scenario {name!r}; known: {builtin_names()}")
    if jmax is not None:
        cfg = replace(cfg, trunc=BasisTruncation(jmax))
    return cfg


def _restricted_basis(config: ScenarioConfig):
    return [LevelIndex(v, config.loop_rot) for v in (1, 2, 3)]


def _assemble(config: ScenarioConfig, who: Enantiomer) -> CouplingMatrix:
    basis = _restricted_basis(config) if config.restricted_loop else None
    return assemble(config.lasers, config.dipole, who, config.constants,
                    config.trunc, x=config.evaluation_x, basis=basis)


def _branch_members(config, who, h, thermal):
    """Mapping branch label -> Ensemble."""
    if config.restricted_loop:
        # eigenstates of the static restricted loop, one branch each
        vals, vecs = np.linalg.eigh(h.evaluate(0.0))
        return {n + 1: Ensemble.from_members(h.n, [(1.0, vecs[:, n])])
                for n in range(len(vals))}
    if config.preparation == "partially-dressed":
        sgn = -1.0 if who is Enantiomer.R else 1.0
        peaks = [l.peak_rabi * l.beam(config.evaluation_x) for l in config.lasers]
        with warnings.catch_warnings():
            # equal-amplitude beams have a degenerate dressed pair by design
            warnings.simplefilter("ignore", dressedmod.DegenerateFrameWarning)
            _, vecs = dressedmod.dress((sgn * peaks[0], sgn * peaks[1], sgn * peaks[2]))
        return {
            n + 1: prepare_initial("partially-dressed", h, thermal,
                                   vib_amplitudes=vecs[:, n])
            for n in range(3)
        }
    return {"thermal": prepare_initial(config.preparation, h, thermal)}


def run_scenario(config: ScenarioConfig, enantiomers=("L", "R")) -> ScenarioResult:
    """Propagate every branch for the requested enantiomers."""
    times = np.linspace(0.0, config.t_end, config.n_times)
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    omega_ref = config.omega12_max
    couplings = {}
    traces: dict = {}
    for tag in enantiomers:
        who = Enantiomer(tag)
        h = _assemble(config, who)
        couplings[tag] = h
        ensembles = _branch_members(config, who, h, thermal)
        for branch, tr in ensemble_potential_trace(h, ensembles, times,
                                                   omega_ref=omega_ref).items():
            traces.setdefault(branch, {})[tag] = tr

    href = couplings[enantiomers[0]]
    loops = loop_census(href)

    residual = None
    if set(enantiomers) == {"L", "R"}:
        try:
            transform = _transform_or_none(config, href)
            residual = max(
                transform_residual(couplings["L"], couplings["R"], *transform, t)
                for t in (0.0, 0.37, 1.9)
            ) if transform is not None else None
        except UnsupportedSetupError:
            residual = None

    return ScenarioResult(
        config=config,
        times=times,
        traces=traces,
        couplings=couplings,
        loops=loops,
        isospectrality_residual=residual,
        timescales=timescale_report(config, href),
    )


def _transform_or_none(config, h):
    try:
        return chirality_permutation(config.polarizations, h.basis)
    except BasisNotClosedError:
        return None  # restricted bases need not support the M-reversing T


def loop_census(h: CouplingMatrix, max_len: int = 3) -> list[list[LevelIndex]]:
    """Simple cycles (default: 3-cycles) of the coupling graph."""
    edges = [(int(a), int(b)) for a, b in zip(h.fin, h.ini)]
    return [[h.basis[k] for k in cyc] for cyc in find_loops(edges, max_len=max_len)]


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
    if isinstance(x, float):
        return repr(x)
    return str(x)


def trace_csv(result: ScenarioResult, branch) -> str:
    """CSV with columns time_ns, time_in_inverse_Omega12, value_L, value_R."""
    omega12 = result.config.omega12_max
    per = result.traces[branch]
    cols = ["time_ns", "time_in_inverse_Omega12"] + [f"value_{t}" for t in per]
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for k, t in enumerate(result.times):
        row = [repr(float(t)), repr(float(t * omega12))]
        row += [repr(float(per[tag].values[k])) for tag in per]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def couplings_csv(h: CouplingMatrix) -> str:
    buf = io.StringIO()
    buf.write("final,initial,omega_re_GHz,omega_im_GHz,delta_GHz\n")
    for f, i, w, d in h.rows():
        buf.write(f"{f},{i},{w.real!r},{w.imag!r},{d!r}\n")
    return buf.getvalue()


def loops_csv(loops) -> str:
    buf = io.StringIO()
    buf.write("length,states,same_rotational_label\n")
    for cyc in loops:
        same = len({lvl.rot for lvl in cyc}) == 1
        states = " -> ".join(str(lvl) for lvl in cyc)
        buf.write(f"{len(cyc)},{states},{_fmt(same)}\n")
    return buf.getvalue()


def summary_text(result: ScenarioResult) -> str:
    """Flat key = value summary (time averages, residuals, timescales)."""
    lines = [f"scenario = {result.config.name}"]
    for branch, per in result.traces.items():
        for tag, tr in per.items():
            lines.append(f"time_average_branch{branch}_{tag} = {tr.time_average!r}")
        if {"L", "R"} <= set(per):
            diff = float(np.max(np.abs(per["L"].values - per["R"].values)))
            lines.append(f"max_LR_difference_branch{branch} = {diff!r}")
    lines.append(f"loop_count = {len(result.loops)}")
    if result.isospectrality_residual is not None:
        lines.append(f"isospectrality_residual = {result.isospectrality_residual!r}")
    for key, val in result.timescales.items():
        lines.append(f"{key} = {_fmt(val)}")
    return "\n".join(lines) + "\n"


def write_outputs(result: ScenarioResult, out_dir) -> list[str]:
    """Write all CSVs and the summary into out_dir; returns the paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []

    def put(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        written.append(path)

    for branch in result.traces:
        put(f"trace_branch{branch}.csv", trace_csv(result, branch))
    for tag, h in result.couplings.items():
        put(f"couplings_{tag}.csv", couplings_csv(h))
    put("loops.csv", loops_csv(result.loops))
    put("summary.txt", summary_text(result))
    return written
