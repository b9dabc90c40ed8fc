"""Config parsing, builtin scenarios and deterministic output."""

import functools
import itertools
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import oracle
from chiralsep import dressed as dressedmod
from chiralsep import hamiltonian, scenarios
from chiralsep.cli import main
from chiralsep.coupling import (POLARIZATION_TRIPLES, DipoleModel, DipoleTransition, Enantiomer,
                                GaussianBeam)
from chiralsep.hamiltonian import (LevelIndex, chirality_permutation, chirality_transform,
                                   transform_residual)
from chiralsep.propagate import (DegenerateEigenstateWarning, PotentialTrace,
                                 ensemble_potential_trace)
from chiralsep.rotbasis import BasisTruncation, RotState, TruncationError, thermal_rot_state
from chiralsep.scenarios import (
    CONFIG_HEADER,
    PREPARATIONS,
    ConfigError,
    ScenarioConfig,
    _assemble,
    _branch_members,
    builtin_config,
    builtin_names,
    couplings_csv,
    csv_lines,
    loop_census,
    loops_csv,
    parse_config,
    run_scenario,
    summary_text,
    timescale_report,
    trace_csv,
    write_outputs,
)

MISMATCH_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "mismatch-j1.cfg"

MINIMAL = f"""\
{CONFIG_HEADER}
[scenario]
name = tiny
temperature_K = 0
preparation = diabatic
jmax = 1
t_end_over_omega12 = 2
n_times = 41

[molecule]
A_GHz = 76.15
B_GHz = 6.401
C_GHz = 6.399

[laser12]
polarization = x

[laser23]
polarization = x

[laser13]
polarization = z
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.name == "tiny"
    assert cfg.polarizations == ("x", "x", "z")
    assert cfg.trunc.jmax == 1
    assert cfg.t_end == pytest.approx(2 / cfg.omega12_max)


def test_header_is_mandatory():
    with pytest.raises(ConfigError, match="header"):
        parse_config(MINIMAL.replace(CONFIG_HEADER, "# some file"))


def test_missing_section_reported():
    bad = MINIMAL.replace("[laser13]\npolarization = z\n", "")
    with pytest.raises(ConfigError, match=r"laser13"):
        parse_config(bad)


def test_bad_field_values_reported_with_field_names():
    with pytest.raises(ConfigError, match="temperature_K"):
        parse_config(MINIMAL.replace("temperature_K = 0", "temperature_K = cold"))
    with pytest.raises(ConfigError, match="polarization"):
        parse_config(MINIMAL.replace("polarization = z", "polarization = q"))
    with pytest.raises(ConfigError, match="preparation"):
        parse_config(MINIMAL.replace("preparation = diabatic", "preparation = sudden"))


def test_restricted_loop_needs_rot_state():
    bad = MINIMAL.replace("jmax = 1", "jmax = 1\nrestricted_loop = true")
    with pytest.raises(ConfigError, match="loop_rot_state"):
        parse_config(bad)


def test_dataclasses_reject_zero_reference_scale_and_waist():
    cfg = parse_config(MINIMAL)
    off = replace(cfg.lasers[0], peak_rabi=0.0)
    with pytest.raises(ConfigError, match="laser12.peak_rabi"):
        replace(cfg, lasers=(off, *cfg.lasers[1:]))
    for waist in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive"):
            GaussianBeam(waist=waist)


def test_builtin_names_and_configs():
    names = builtin_names()
    assert "restricted-loop" in names
    for name in names:
        cfg = builtin_config(name)
        assert isinstance(cfg, ScenarioConfig)
    with pytest.raises(ConfigError):
        builtin_config("no-such-scenario")


def test_builtin_jmax_override():
    cfg = builtin_config("fig7-1mK-xxz", jmax=2)
    assert cfg.trunc.jmax == 2


def test_run_scenario_deterministic_output():
    cfg = parse_config(MINIMAL)
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    for branch in r1.traces:
        assert "".join(trace_csv(r1, branch)) == "".join(trace_csv(r2, branch))
    assert summary_text(r1) == summary_text(r2)
    assert "".join(couplings_csv(r1.couplings["L"])) == "".join(couplings_csv(r2.couplings["L"]))


def test_run_scenario_trace_units_and_shape():
    cfg = parse_config(MINIMAL)
    res = run_scenario(cfg)
    assert len(res.times) == 41
    tr = res.traces["thermal"]["L"]
    assert len(tr.values) == 41
    # traces are reported in units of the 1-2 peak Rabi frequency
    assert np.max(np.abs(tr.values)) < 10.0
    assert res.isospectrality_residual is not None
    assert res.isospectrality_residual < 1e-12


def test_trace_csv_header():
    cfg = parse_config(MINIMAL)
    res = run_scenario(cfg)
    lines = "".join(trace_csv(res, "thermal")).splitlines()
    assert lines[0] == "time_ns,time_in_inverse_Omega12,value_L,value_R"
    assert len(lines) == 42


@pytest.mark.parametrize("enantiomers", [("L", "R"), ("L",), ("R",)])
def test_csv_columns_match_the_per_row_formatter(monkeypatch, enantiomers):
    res = run_scenario(builtin_config("fig7-1mK-xxz"), enantiomers=enantiomers)
    for branch in res.traces:
        assert "".join(trace_csv(res, branch)) == oracle.trace_csv(res, branch)
        with monkeypatch.context() as m:
            m.setattr(scenarios, "CSV_CHUNK_ROWS", 7)  # 2000 rows: the last chunk is partial
            assert "".join(trace_csv(res, branch)) == oracle.trace_csv(res, branch)
    for h in res.couplings.values():
        assert "".join(couplings_csv(h)) == oracle.couplings_csv(h)
    assert summary_text(res) == oracle.summary_text(res)


@pytest.mark.parametrize("name", ["restricted-loop", "fig7-1mK-xxz"])
def test_written_files_match_the_per_row_formatters(monkeypatch, tmp_path, name):
    # the three trace files are written in lockstep, chunk by chunk (on fig7
    # R's branch n and L's branch 4 - n share a column); signed zeros and
    # NaNs of two payloads sit on both sides of chunk edges (7 rows)
    res = run_scenario(builtin_config(name))
    specials = [0.0, -0.0, np.nan, _float_bits(0x7FF8000000000001), -0.0, 0.0, np.nan]
    res.times = res.times.copy()
    res.times[4:11] = specials
    for per in res.traces.values():
        for tag, tr in per.items():
            values = tr.values.copy()
            values[5:12], values[12:19] = specials[::-1], specials
            per[tag] = PotentialTrace.from_values(res.times, values)
    monkeypatch.setattr(scenarios, "CSV_CHUNK_ROWS", 7)
    paths = write_outputs(res, tmp_path)
    assert [os.path.basename(p) for p in paths] == [
        "trace_branch1.csv", "trace_branch2.csv", "trace_branch3.csv", "couplings_L.csv",
        "couplings_R.csv", "loops.csv", "summary.txt"]
    written = {os.path.basename(p): Path(p).read_text() for p in paths}
    for branch in res.traces:
        assert written[f"trace_branch{branch}.csv"] == oracle.trace_csv(res, branch)
    for tag, h in res.couplings.items():
        assert written[f"couplings_{tag}.csv"] == oracle.couplings_csv(h)
    h = res.couplings["L"]
    assert written["loops.csv"] == oracle.loops_csv(_levels(h, res.loops))
    assert written["summary.txt"] == oracle.summary_text(res)


def test_csv_lines_holds_a_few_chunks_of_strings_of_a_long_column():
    # a million distinct floats: their str take ~67 bytes each, ~70 MB at
    # once, but each is dropped after its chunk; what stays is the index
    column = np.random.default_rng(0).random(10**6)
    tracemalloc.start()
    try:
        lines = csv_lines(None, [column])
        next(lines)
        held, setup_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in lines:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = scenarios.CSV_CHUNK_ROWS * 100  # a chunk's str, their list and its row text
    assert peak - held < 4 * chunk
    assert max(setup_peak, peak) < 40 * len(column)


def _levels(h, loops):
    """The loops of a `loop_census` array as lists of h's levels."""
    return [[h.basis[i] for i in row if i >= 0] for row in loops.tolist()]


def _loops_table(name, max_len):
    h = _assemble(builtin_config(name), Enantiomer.L)
    loops = loop_census(h, max_len=max_len)
    return [("".join(loops_csv(h, loops)), oracle.loops_csv(_levels(h, loops)))]


def _dressed_tables(capsys):
    cfg = builtin_config("fig7-1mK-xxz")
    assert main(["dressed-potentials", "--scenario", "fig7-1mK-xxz", "--points", "51"]) == 0
    out = capsys.readouterr().out
    grid = np.linspace(-2.0, 2.0, 51)
    lasers = [replace(l, beam=GaussianBeam(waist=l.beam.waist, center=off))
              for l, off in zip(cfg.lasers, (-0.5, 0.5, 0.0))]
    expected = "".join(
        oracle.dressed_csv(dressedmod.dress_field(dressedmod.FieldConfiguration.from_lasers(
            lasers, grid, who=Enantiomer(tag), dipole=cfg.dipole)), grid, cfg.omega12_max)
        for tag in "LR")
    return [(out, expected)]


def _empty_tables(capsys):
    assert main(["flip-sensitivity", "--draws", "0"]) == 0
    h = _assemble(builtin_config("restricted-loop"), Enantiomer.L)
    return [("".join(loops_csv(h, np.empty((0, 3), dtype=int))), oracle.loops_csv([])),
            (capsys.readouterr().out, "n,draw,flips,classification\n"),
            ("".join(csv_lines(["a", "b"], [[], np.empty(0)])), "a,b\n")]


def _timescales_lines(capsys):
    assert main(["timescales", "--scenario", "fig7-1mK-xxz"]) == 0
    report = timescale_report(builtin_config("fig7-1mK-xxz"))
    return [(capsys.readouterr().out, oracle.timescales_text(report))]


def _equal_labels_table(capsys):
    # equal |J K M> labels held by distinct RotState objects, and one that
    # differs, in loops of 3 and 4 levels
    basis = (*[LevelIndex(v, RotState(1, 1, 1)) for v in (1, 2, 3)],
             LevelIndex(2, RotState(1, 1, 0)))
    none = np.empty(0, dtype=int)
    h = hamiltonian.CouplingMatrix(hamiltonian.LevelTable.of(basis), none, none,
                                   none.astype(complex), none.astype(float))
    loops = np.array([[0, 1, 2, -1], [0, 3, 2, -1], [0, 1, 2, 3], [2, 1, 0, -1]])
    return [("".join(loops_csv(h, loops)), oracle.loops_csv(_levels(h, loops)))]


#: each case: (text written, text of the per-row or per-key oracle) pairs
TABLES = {
    "equal-labels": _equal_labels_table,
    "fig7-loops-6": lambda capsys: _loops_table("fig7-1mK-xxz", 6),
    "restricted-loop": lambda capsys: _loops_table("restricted-loop", 3),
    "dressed-L-R": _dressed_tables,
    "empty": _empty_tables,
    "timescales": _timescales_lines,
}


@pytest.mark.parametrize("table", TABLES)
def test_table_columns_match_the_per_row_formatter(monkeypatch, capsys, table):
    for got, expected in TABLES[table](capsys):
        assert got == expected
    with monkeypatch.context() as m:
        m.setattr(scenarios, "CSV_CHUNK_ROWS", 7)
        for got, expected in TABLES[table](capsys):
            assert got == expected


#: dipole components of a laser's transition, not all zero
MU = st.sampled_from([mu for mu in itertools.product([0.0, 1.0, -0.5j], repeat=3) if any(mu)])


@settings(max_examples=40, deadline=None)
@given(jmax=st.integers(1, 2),
       pols=st.tuples(*[st.sampled_from(sorted(POLARIZATION_TRIPLES))] * 3),
       mus=st.tuples(MU, MU, MU), max_len=st.integers(3, 6), chunk=st.integers(1, 9))
def test_loop_table_matches_the_per_loop_formatter(jmax, pols, mus, max_len, chunk):
    cfg = builtin_config("fig7-1mK-xxz", jmax=jmax)
    lasers = [replace(l, polarization=p) for l, p in zip(cfg.lasers, pols)]
    dipole = DipoleModel({l.drives: DipoleTransition(mu=mu) for l, mu in zip(lasers, mus)})
    try:
        h = hamiltonian.assemble(lasers, dipole, Enantiomer.L, cfg.constants, cfg.trunc)
    except hamiltonian.EmptyCouplingError:
        event("no coupling")
        return
    loops = loop_census(h, max_len=max_len)
    event("loops" if len(loops) else "no loop")
    expected = oracle.loops_csv(_levels(h, loops))
    old = scenarios.CSV_CHUNK_ROWS
    scenarios.CSV_CHUNK_ROWS = chunk
    try:
        assert "".join(loops_csv(h, loops)) == expected
    finally:
        scenarios.CSV_CHUNK_ROWS = old


def _float_bits(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


#: floats whose str must not be shared with a neighbour of equal value or
#: equal str: signed zeros, infinities, NaNs of several payloads and signs,
#: subnormals and the smallest normal
SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.225073858507201e-308,
                  2.2250738585072014e-308, _float_bits(0x7FF8000000000001),
                  _float_bits(0xFFF8000000000000), _float_bits(0x7FF0000000000001)]


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), max_size=40),
       repeat=st.integers(1, 3), chunk=st.integers(1, 9))
def test_csv_lines_prints_each_float_as_its_str(values, repeat, chunk):
    column = np.array(values * repeat, dtype=np.float64)  # repeats across chunk boundaries
    strided = np.zeros(len(column), dtype=complex)
    strided.imag = column  # a float column that is a view with a stride, as omega.imag
    expected = "a,b,c\n" + "".join(f"{v!r},{k},{v!r}\n" for k, v in enumerate(column.tolist()))
    old = scenarios.CSV_CHUNK_ROWS
    scenarios.CSV_CHUNK_ROWS = chunk
    try:
        got = "".join(csv_lines(["a", "b", "c"], [column, list(range(len(column))),
                                                   strided.imag]))
    finally:
        scenarios.CSV_CHUNK_ROWS = old
    assert got == expected


def test_a_run_builds_one_code_table_per_coupling_matrix(monkeypatch):
    calls = []
    build = hamiltonian.LevelTable._search.func
    search = functools.cached_property(lambda table: calls.append(1) or build(table))
    search.__set_name__(hamiltonian.LevelTable, "_search")
    monkeypatch.setattr(hamiltonian.LevelTable, "_search", search)
    run_scenario(builtin_config("fig7-1mK-xxz"))
    assert len(calls) == 1  # in `assemble` for L; R is built on L's table



@pytest.mark.parametrize("name, jmax", [("fig7-1mK-xxz", None), ("fig5-T0.5K-xxz-groundres", 5)])
def test_a_full_basis_run_and_write_build_no_level_object(name, jmax, tmp_path, monkeypatch):
    # the basis is its quantum-number table: names, lookups and CSVs never
    # ask for a LevelIndex (fig5 at its smallest jmax the thermal gate accepts)
    made = []
    init = LevelIndex.__init__
    monkeypatch.setattr(LevelIndex, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    result = run_scenario(scenarios.with_jmax(builtin_config(name), jmax))
    write_outputs(result, tmp_path)
    assert made == []
    h = result.couplings["L"]
    assert h.levels is result.couplings["R"].levels  # one name table for both files
    assert (tmp_path / "couplings_L.csv").read_text().splitlines()[1].split(",")[:2] == [
        str(h.basis[h.fin[0]]), str(h.basis[h.ini[0]])]

def test_a_run_result_pickles():
    res = run_scenario(builtin_config("fig7-1mK-xxz"))
    copy = pickle.loads(pickle.dumps(res))
    assert summary_text(copy) == summary_text(res)
    h, qn = copy.couplings["L"], res.couplings["L"].levels.qn
    assert np.array_equal(h.levels.qn, qn)
    assert np.array_equal(h.levels.find(*qn), np.arange(qn.shape[1]))


def test_a_fig5_run_does_not_import_numpy_ma(tmp_path):
    # np.unique's hash path imports numpy.ma (~17 ms cold, ~1 MB); the run's
    # distinct-value steps sort and compare neighbours instead
    code = ("import sys; from chiralsep.scenarios import builtin_config, run_scenario, "
            "write_outputs; write_outputs(run_scenario(builtin_config("
            "'fig5-T0.5K-xxz-groundres')), sys.argv[1]); print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_restricted_loop_branches():
    res = run_scenario(builtin_config("restricted-loop"))
    assert set(res.traces) == {1, 2, 3}
    for branch in (1, 2, 3):
        tr = res.traces[branch]["L"]
        assert np.max(np.abs(tr.values - tr.values[0])) < 1e-10  # constant
    # chirality negates the branch spectrum (branch labels sort per enantiomer)
    avg_l = sorted(res.traces[b]["L"].time_average for b in (1, 2, 3))
    avg_r = sorted(-res.traces[b]["R"].time_average for b in (1, 2, 3))
    assert np.allclose(avg_l, avg_r, atol=1e-12)


def test_loop_census_contains_vibrational_triangle():
    cfg = builtin_config("restricted-loop")
    h = _assemble(cfg, Enantiomer.L)
    loops = loop_census(h)
    assert len(loops) == 1
    assert {h.basis[i].vib for i in loops[0]} == {1, 2, 3}
    assert {h.basis[i].rot for i in loops[0]} == {RotState(1, 1, 1)}
    text = "".join(loops_csv(h, loops))
    assert text.splitlines()[1].endswith("true")  # same rotational label


def test_retuned_scenario_designated_resonances_are_exact():
    cfg = builtin_config("fig5-T0.5K-xxz-retuned", jmax=2)
    h = _assemble(cfg, Enantiomer.L)
    # |1>|1 1 M> <-> |2>|2 1 M> and |2>|2 1 M> <-> |3>|1 1 M> sit at zero
    # detuning exactly (offsets are stored, not recomputed through the gap)
    hits = 0
    for f, i, d in zip(h.fin, h.ini, h.delta):
        f, i = h.basis[f], h.basis[i]
        if (i.vib, f.vib) == (1, 2) and (i.rot.J, i.rot.K) == (1, 1) \
                and (f.rot.J, f.rot.K) == (2, 1):
            assert d == 0.0
            hits += 1
        if (i.vib, f.vib) == (2, 3) and (i.rot.J, i.rot.K) == (2, 1) \
                and (f.rot.J, f.rot.K) == (1, 1):
            assert d == 0.0
            hits += 1
    assert hits > 0


def test_timescale_report_separation():
    cfg = parse_config(MINIMAL)
    rep = timescale_report(cfg)
    assert rep["separation_ok"] is True
    assert rep["tau_Omega_ns"] == pytest.approx(1 / cfg.omega12_max)
    assert rep["inv_B_ns"] < rep["tau_Omega_ns"]
    assert rep["basis_size"] == 30


def test_edge_isospectrality_residual_matches_dense():
    config = builtin_config("fig7-1mK-xxz")
    hl, hr = _assemble(config, Enantiomer.L), _assemble(config, Enantiomer.R)
    perm, sign = chirality_permutation(config.polarizations, hl.levels)
    t_mat = chirality_transform(config.polarizations, hl.basis)
    omega = hr.omega.copy()
    omega[len(omega) // 2] *= 1.001
    bumped = replace(hr, omega=omega)
    # an L edge with no R partner counts in full
    dropped = replace(hr, fin=hr.fin[1:], ini=hr.ini[1:], omega=hr.omega[1:], delta=hr.delta[1:])
    for t in (0.0, 0.37, 1.9):
        for r in (hr, bumped, dropped):
            dense = np.linalg.norm(t_mat.T @ hl.evaluate(t) @ t_mat - r.evaluate(t))
            edge = transform_residual(hl, r, perm, sign, t)
            assert edge == pytest.approx(dense, rel=1e-12, abs=1e-15)
        assert transform_residual(hl, hr, perm, sign, t) == 0.0
        assert transform_residual(hl, bumped, perm, sign, t) > 1e-6
    times = (0.0, 0.37, 1.9)
    for r in (hr, bumped, dropped):  # one alignment for all times, to the bit
        assert transform_residual(hl, r, perm, sign, *times) == max(
            transform_residual(hl, r, perm, sign, t) for t in times)


def _mismatch_config():
    return parse_config(MISMATCH_CONFIG.read_text().replace("{rot_offset_13}", "0.01"))


@pytest.mark.parametrize("config, enantiomers, calls", [
    (lambda: builtin_config("fig7-1mK-xxz"), ("L", "R"), 1),
    (_mismatch_config, ("L", "R"), 1),
    (lambda: builtin_config("restricted-loop"), ("L", "R"), 2),  # no M-reversed partners
    (lambda: builtin_config("fig7-1mK-xxz"), ("R",), 1),
])
def test_r_is_traced_on_h_l_when_t_maps_h_l_onto_h_r(monkeypatch, config, enantiomers, calls):
    traced = []
    trace = scenarios.ensemble_potential_trace

    def spy(h, *args, **kwargs):
        traced.append(h)
        return trace(h, *args, **kwargs)

    monkeypatch.setattr(scenarios, "ensemble_potential_trace", spy)
    res = run_scenario(config(), enantiomers)
    assert len(traced) == calls
    assert all(h is res.couplings[tag] for h, tag in zip(traced, enantiomers))
    assert (res.isospectrality_residual == 0.0) == (calls == 1 and len(enantiomers) == 2)


def test_enantiomer_order_sets_the_column_order():
    cfg = builtin_config("fig7-1mK-xxz")
    lr, rl = run_scenario(cfg), run_scenario(cfg, ("R", "L"))
    assert list(rl.traces) == list(lr.traces)
    for branch, per in rl.traces.items():
        assert list(per) == ["R", "L"]
        for tag in "LR":
            assert np.max(np.abs(per[tag].values - lr.traces[branch][tag].values)) <= 1e-14
    header = next(trace_csv(rl, 1))
    assert header == "time_ns,time_in_inverse_Omega12,value_R,value_L\n"


def _random_config(pols, peaks, offsets, **fields):
    """MINIMAL with the lasers' polarizations, peaks scaled by `peaks` and
    rotational offsets (o12, o23, o12 + o23), which close the loop, and the
    other fields replaced."""
    cfg = parse_config(MINIMAL)
    rot_offsets = (offsets[0], offsets[1], offsets[0] + offsets[1])
    lasers = tuple(replace(laser, polarization=p, peak_rabi=laser.peak_rabi * w, rot_offset=o)
                   for laser, p, w, o in zip(cfg.lasers, pols, peaks, rot_offsets))
    return replace(cfg, lasers=lasers, **fields)


ANY_POLARIZATIONS = st.tuples(*[st.sampled_from(sorted(POLARIZATION_TRIPLES))] * 3)
#: truncation at the default mass keeps jmax 1 to ~0.04 K and jmax 2 to ~0.11 K
LOW_TEMPERATURES = st.one_of(st.just(0.0), st.floats(0.0, 0.2))
CATALOGUED = st.one_of(st.tuples(*[st.sampled_from(["x", "y", "sigma+", "sigma-"])] * 3),
                       st.tuples(*[st.sampled_from(["z", "y"])] * 3),
                       st.tuples(*[st.sampled_from(["z", "x"])] * 3))


@settings(max_examples=40, deadline=None)
@given(pols=CATALOGUED, preparation=st.sampled_from(PREPARATIONS),
       temperature=st.sampled_from([0.0, 0.05, 0.5]), jmax=st.integers(1, 2),
       peaks=st.tuples(*[st.floats(0.1, 2.0)] * 3), offsets=st.tuples(*[st.floats(-3, 3)] * 2))
# two inputs where eigh's rounding at the size of the detunings, carried
# forward in time, once put the two paths more than 1e-12 apart
@example(pols=("x", "sigma+", "x"), preparation="adiabatic", temperature=0.5, jmax=2,
         peaks=(0.4441598765280741, 0.440738463228601, 0.99999), offsets=(0.0, 0.0))
@example(pols=("z", "y", "y"), preparation="adiabatic", temperature=0.0, jmax=2,
         peaks=(0.1, 0.2731019073663254, 0.6875), offsets=(0.0, 1.953125))
# a block rho whose screen keeps no component, which adds 0 and builds no phases
@example(pols=("z", "z", "y"), preparation="adiabatic", temperature=0.05, jmax=1,
         peaks=(1.0, 1.0, 1.0), offsets=(0.0, 0.0))
def test_r_traced_on_h_l_matches_r_traced_on_h_r(pols, preparation, temperature, jmax, peaks,
                                                offsets):
    cfg = _random_config(pols, peaks, offsets, preparation=preparation, temperature=temperature,
                         trunc=BasisTruncation(jmax), truncation_mass=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateEigenstateWarning)
        res = run_scenario(cfg)
        h_r = _assemble(cfg, Enantiomer.R)
        thermal = thermal_rot_state(temperature, cfg.constants, cfg.trunc, cutoff_mass=1.0)
        direct = ensemble_potential_trace(h_r, _branch_members(cfg, Enantiomer.R, h_r, thermal),
                                          cfg.t_end, cfg.n_times, omega_ref=cfg.omega12_max)
    event("R traced on H_L" if res.isospectrality_residual == 0.0 else "R traced on H_R")
    # 1e-12 of the trace's scale: the two eigendecompositions' rounding grows
    # with the values, which reach several Omega12 at the larger peaks
    for branch, tr in direct.items():
        scale = max(1.0, np.max(np.abs(tr.values)))
        assert np.max(np.abs(res.traces[branch]["R"].values - tr.values)) <= 1e-12 * scale


def _thermal_or_none(cfg):
    """The config's thermal state, or None when truncation refuses it."""
    try:
        return thermal_rot_state(cfg.temperature, cfg.constants, cfg.trunc,
                                 cutoff_mass=cfg.truncation_mass)
    except TruncationError:
        return None


@settings(max_examples=40, deadline=None)
@given(pols=ANY_POLARIZATIONS, preparation=st.sampled_from(PREPARATIONS),
       temperature=LOW_TEMPERATURES, jmax=st.integers(1, 2),
       peaks=st.tuples(*[st.floats(0.1, 2.0)] * 3), offsets=st.tuples(*[st.floats(-3, 3)] * 2))
def test_every_ensemble_is_normalised_and_every_trace_finite(pols, preparation, temperature,
                                                             jmax, peaks, offsets):
    cfg = _random_config(pols, peaks, offsets, preparation=preparation, temperature=temperature,
                         trunc=BasisTruncation(jmax))
    thermal = _thermal_or_none(cfg)
    assume(thermal is not None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateEigenstateWarning)
        for who in Enantiomer:
            h = _assemble(cfg, who)
            for branch, ens in _branch_members(cfg, who, h, thermal).items():
                # tr rho = sum_m w_m ||psi_m||^2
                norm = np.sum(ens.weights[ens.member] * np.abs(ens.amp) ** 2)
                assert abs(norm - 1.0) <= 1e-12, (who, branch, norm)
        res = run_scenario(cfg)
    for per in res.traces.values():
        for tr in per.values():
            assert np.all(np.isfinite(tr.values))


@settings(max_examples=40, deadline=None)
@given(pols=ANY_POLARIZATIONS, temperature=LOW_TEMPERATURES, jmax=st.integers(1, 2),
       peaks=st.tuples(*[st.floats(0.1, 2.0)] * 3), offsets=st.tuples(*[st.floats(-3, 3)] * 2))
def test_a_diabatic_preparation_is_chirality_blind(pols, temperature, jmax, peaks, offsets):
    # L and R each traced on its own Hamiltonian, so no mapping by T is used
    cfg = _random_config(pols, peaks, offsets, preparation="diabatic", temperature=temperature,
                         trunc=BasisTruncation(jmax))
    assume(_thermal_or_none(cfg) is not None)
    left = run_scenario(cfg, enantiomers=("L",)).traces["thermal"]["L"].values
    right = run_scenario(cfg, enantiomers=("R",)).traces["thermal"]["R"].values
    scale = max(1.0, np.max(np.abs(left)))
    assert np.max(np.abs(left - right)) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(pols=CATALOGUED, mu=st.tuples(*[st.complex_numbers(max_magnitude=2.0)] * 3).filter(any),
       jmax=st.integers(1, 2), peaks=st.tuples(*[st.floats(0.1, 2.0)] * 3),
       offsets=st.tuples(*[st.floats(-3, 3)] * 2), x=st.floats(-1.5, 1.5))
def test_isospectrality_residual_is_exactly_zero_on_catalogued_setups(pols, mu, jmax, peaks,
                                                                      offsets, x):
    flipped = DipoleTransition(mu=mu, chiral_sign_flip=True)
    dipole = DipoleModel(dict.fromkeys(scenarios.LASER_SECTIONS.values(), flipped))
    cfg = _random_config(pols, peaks, offsets, dipole=dipole, trunc=BasisTruncation(jmax),
                         evaluation_x=x, n_times=5)
    res = run_scenario(cfg)
    assert res.isospectrality_residual == 0.0


@settings(max_examples=10, deadline=None)
@given(pols=CATALOGUED, preparation=st.sampled_from(PREPARATIONS),
       temperature=st.sampled_from([0.0, 0.05, 0.5]), jmax=st.integers(1, 2),
       peaks=st.tuples(*[st.floats(0.1, 2.0)] * 3), offsets=st.tuples(*[st.floats(-3, 3)] * 2))
def test_a_rerun_writes_the_same_bytes(pols, preparation, temperature, jmax, peaks, offsets):
    cfg = _random_config(pols, peaks, offsets, preparation=preparation, temperature=temperature,
                         trunc=BasisTruncation(jmax), truncation_mass=1.0)
    written = []
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateEigenstateWarning)
        for run in ("first", "second"):
            paths = scenarios.write_outputs(run_scenario(cfg), os.path.join(tmp, run))
            written.append({os.path.basename(p): Path(p).read_bytes() for p in paths})
    assert written[0] == written[1]


def test_dipole_sign_flips_only_r_on_flagged_pairs():
    dipole = DipoleModel({(1, 2): DipoleTransition(chiral_sign_flip=False),
                          (2, 3): DipoleTransition(), (1, 3): DipoleTransition()})
    assert [dipole.sign(p, Enantiomer.L) for p in ((1, 2), (2, 3))] == [1.0, 1.0]
    assert [dipole.sign(p, Enantiomer.R) for p in ((1, 2), (2, 3))] == [1.0, -1.0]
    # only some pairs flip: no chirality transformation, R is traced on H_R
    cfg = replace(parse_config(MINIMAL), dipole=dipole)
    assert scenarios._transform_or_none(cfg, _assemble(cfg, Enantiomer.L)) is None
    assert run_scenario(cfg).isospectrality_residual is None


def test_no_chiral_sign_flip_makes_l_and_r_identical(tmp_path):
    # no pair flips: H_R is H_L, T is the identity, and the dressed
    # preparation and the rotationless potentials take L's signs for R too
    flat = DipoleModel.z_aligned(chiral_sign_flip=False)
    res = run_scenario(replace(builtin_config("fig7-1mK-xxz"), dipole=flat))
    assert res.isospectrality_residual == 0.0
    for per in res.traces.values():
        assert np.array_equal(per["L"].values, per["R"].values)
    assert "max_LR_difference_branch1 = 0.0\n" in summary_text(res)
    path = tmp_path / "flat.cfg"
    path.write_text(scenarios._FIG5_TEXT.replace("dipole_axis = z",
                                                 "dipole_axis = z\nchiral_sign_flip = false"))
    out = tmp_path / "o"
    assert main(["dressed-potentials", "--config", str(path), "--jmax", "3", "--out", str(out)]) == 0
    assert (out / "dressed_R.csv").read_bytes() == (out / "dressed_L.csv").read_bytes()
