"""Command-line entry points (in-process)."""

import os
import tracemalloc
import warnings

import pytest

from chiralsep.cli import main
from chiralsep.scenarios import CONFIG_HEADER


TINY = f"""\
{CONFIG_HEADER}
[scenario]
name = tiny
temperature_K = 0
preparation = diabatic
jmax = 1
t_end_over_omega12 = 2
n_times = 21

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


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_run_writes_outputs(tiny_config, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", tiny_config, "--out", str(out)])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "summary.txt" in names
    assert "loops.csv" in names
    assert any(n.startswith("trace_branch") for n in names)
    assert "couplings_L.csv" in names and "couplings_R.csv" in names
    summary = (out / "summary.txt").read_text()
    assert "scenario = tiny" in summary
    assert "isospectrality_residual" in summary


def test_run_single_enantiomer(tiny_config, tmp_path):
    out = tmp_path / "only_l"
    rc = main(["run", "--config", tiny_config, "--out", str(out), "--enantiomer", "L"])
    assert rc == 0
    names = os.listdir(out)
    assert "couplings_L.csv" in names and "couplings_R.csv" not in names


def test_run_is_bit_deterministic(tiny_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", tiny_config, "--out", str(out1)]) == 0
    assert main(["run", "--config", tiny_config, "--out", str(out2)]) == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY.replace(CONFIG_HEADER, "# wrong header"))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_loops_subcommand(tiny_config, capsys):
    rc = main(["loops", "--config", tiny_config])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "length,states,same_rotational_label"


def test_flip_sensitivity_subcommand(capsys):
    rc = main(["flip-sensitivity", "--sizes", "3", "--draws", "2", "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,draw,flips,classification"
    assert len(lines) == 1 + 2 * 7  # 2 draws x (2^3 - 1) patterns
    assert all(l.endswith(("spectrum-changed", "spectrum-unchanged")) for l in lines[1:])


def test_dressed_potentials_subcommand(capsys):
    rc = main(["dressed-potentials", "--scenario", "fig7-1mK-xxz", "--points", "51"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # two tables (L then R), each with its own header
    assert lines[0] == "x,V_1,V_2,V_3,A_1,A_2,A_3"
    assert lines.count("x,V_1,V_2,V_3,A_1,A_2,A_3") == 2
    assert len(lines) == 2 * 52


def test_a_beam_centred_past_the_float_range_is_dark_without_warnings(capsys):
    # (x - 1e308)**2 overflows: the beam squares the ratio instead, and does so
    # for the grid's numpy floats too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["dressed-potentials", "--scenario", "fig7-1mK-xxz", "--points", "51",
                   "--offsets", "1e308,0,0"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "nan" not in captured.out and len(captured.out.splitlines()) == 2 * 52


def test_timescales_subcommand(tiny_config, capsys):
    rc = main(["timescales", "--config", tiny_config])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tau_Omega_ns = " in out
    assert "separation_ok = true" in out


def test_dump_couplings_subcommand(tiny_config, capsys):
    rc = main(["dump-couplings", "--config", tiny_config, "--enantiomer", "R"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "final,initial,omega_re_GHz,omega_im_GHz,delta_GHz"
    assert len(lines) > 1


def test_builtin_scenario_with_jmax_override(capsys):
    rc = main(["timescales", "--scenario", "fig7-1mK-xxz", "--jmax", "2"])
    assert rc == 0
    assert "basis_size = 105" in capsys.readouterr().out


def test_negative_jmax_override_names_the_flag(capsys):
    rc = main(["timescales", "--scenario", "fig7-1mK-xxz", "--jmax", "-1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --jmax: ")


@pytest.mark.parametrize("old, new, key", [
    ("t_end_over_omega12 = 2", "t_end_over_omega12 = 1e6", "scenario.t_end_over_omega12"),
    ("t_end_over_omega12 = 2", "t_end_ns = 1e7", "scenario.t_end_ns"),
    ("n_times = 21", "n_times = 2000000", "scenario.n_times"),  # one step per output time
    # the fastest detuning sets dt: 20 x 1e200 GHz gives 1e201 steps, and 20 x
    # 1e308 GHz overflows, which leaves dt 0 and the step count infinite
    ("rot_offset_GHz = 0.01", "rot_offset_GHz = 1e200", "scenario.t_end_over_omega12"),
    ("rot_offset_GHz = 0.01", "rot_offset_GHz = 1e308", "scenario.t_end_over_omega12"),
])
def test_midpoint_step_ceiling_names_its_field(tmp_path, capsys, old, new, key):
    # a laser13 offset keeps the laser loop from closing: the midpoint stepper
    text = (TINY + "rot_offset_GHz = 0.01\n").replace(old, new)
    path = tmp_path / "long.cfg"
    path.write_text(text)
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "steps" in err
    assert len(err) < 120  # the step count in a few digits


def test_static_ceiling_exits_before_the_output_grid(tmp_path, capsys):
    # 10**8 output times: the grid alone would take 800 MB
    path = tmp_path / "long.cfg"
    path.write_text(TINY.replace("n_times = 21", "n_times = 100000000"))
    tracemalloc.start()
    try:
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: scenario.n_times: ")
    assert peak < 50 * 2**20


@pytest.mark.parametrize("slack, rc", [(0, 0), (-1, 2)], ids=["at", "below"])
def test_static_ceiling_is_the_grid_and_three_rows_per_branch(monkeypatch, tmp_path, capsys,
                                                              slack, rc):
    # fig7 traces R on H_L: one call of six branches.  It holds the grid, a row
    # of totals per branch (the returned values are those rows) and one
    # block's values, at most two columns per branch: 8 * 2000 * (1 + 3 * 6) bytes
    from chiralsep import propagate

    monkeypatch.setattr(propagate, "MAX_TRACE_BYTES", 8 * 2000 * 19 + slack)
    assert main(["run", "--scenario", "fig7-1mK-xxz", "--out", str(tmp_path / "o")]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err == ("error: scenario.n_times: the static trace needs 304000 bytes of "
                       "n-row arrays, more than 303999 bytes\n")
        assert not (tmp_path / "o").exists()
    else:
        assert err == ""
        assert (tmp_path / "o" / "summary.txt").exists()


@pytest.mark.parametrize("name", ["fig7-1mK-xxz", "fig5-T0.5K-xxz-groundres"])
def test_static_ceiling_does_not_count_the_block_size(monkeypatch, tmp_path, capsys, name):
    # the kernel walks the grid in chunks, so the largest kept block (24
    # levels on fig7, 122 on fig5) adds nothing of n rows: both runs fit the
    # ceiling of six branches
    from chiralsep import propagate

    monkeypatch.setattr(propagate, "MAX_TRACE_BYTES", 8 * 2000 * 19)
    assert main(["run", "--scenario", name, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("old, new, key", [
    # 0.5 K puts ~47 % of the population at J = 1
    ("temperature_K = 0", "temperature_K = 0.5", "scenario.jmax"),
    # exp(-100**2) underflows to 0, so laser13 would couple nothing
    ("[laser13]\n", "[laser13]\ncenter_x = 100\n", "laser13.center_x"),
    ("[laser23]\n", "[laser23]\ncenter_x = 1e200\n", "laser23.center_x"),
    # 1e-320 squared underflows, and the beam would divide by it
    ("[laser12]\n", "[laser12]\nwaist = 1e-320\n", "laser12.waist"),
])
def test_unsatisfiable_input_names_its_key(tmp_path, capsys, old, new, key):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY.replace(old, new))
    out = tmp_path / "o"
    rc = main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    assert key != "scenario.jmax" or "scenario.truncation_mass" in err
    assert not out.exists()


def test_unknown_builtin_exits_2(capsys):
    rc = main(["timescales", "--scenario", "nope"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("temperature_K = 0", "temperature_K = nan", "scenario.temperature_K"),
    ("t_end_over_omega12 = 2", "t_end_over_omega12 = inf", "scenario.t_end_over_omega12"),
    ("C_GHz = 6.399", "C_GHz = 6.399\nmu = 1,x 0 0", "molecule.mu"),
    ("[laser12]\n", "[laser12]\npeak_rabi_over_omega12 = 0\n", "laser12.peak_rabi_over_omega12"),
    ("[laser12]\n", "[laser12]\npeak_rabi_GHz = 0\n", "laser12.peak_rabi_GHz"),
    ("[laser12]\n", "[laser12]\nwaist = 0\n", "laser12.waist"),
    ("[laser23]\n", "[laser23]\nwaist = 0\n", "laser23.waist"),
    ("jmax = 1", "jmax = -1", "scenario.jmax"),
    ("[laser23]\n", "[laser23]\npeak_rabi_GHz = 0\n", "laser23.peak_rabi_GHz"),
    ("[laser13]\n", "[laser13]\npeak_rabi_over_omega12 = 0\n", "laser13.peak_rabi_over_omega12"),
    ("[laser12]\n", "[laser12]\npeak_rabi_GHz = 1e-320\n", "scenario.t_end_over_omega12"),
    ("[laser12]\n", "[laser12]\npeak_rabi_over_omega12 = 1e-323\n",
     "laser12.peak_rabi_over_omega12"),
    # the static trace of L and R's one branch each would hold 2.6 GiB of n-row
    # arrays: 5e7 times x (the grid + 3 rows per branch)
    ("jmax = 1\nt_end_over_omega12 = 2\nn_times = 21",
     "jmax = 3\nt_end_over_omega12 = 2\nn_times = 50000000", "scenario.n_times"),
    ("t_end_over_omega12 = 2", "t_end_over_omega12 = -1", "scenario.t_end_over_omega12"),
    ("t_end_over_omega12 = 2", "t_end_ns = 0", "scenario.t_end_ns"),
    ("n_times = 21", "n_times = 1", "scenario.n_times"),
    ("jmax = 1", "jmax = 1\ntruncation_mass = -1", "scenario.truncation_mass"),
    ("jmax = 1", "jmax = 1\nrestricted_loop = true", "scenario.loop_rot_state"),
])
def test_non_finite_or_unparsable_input_names_its_field(tmp_path, capsys, old, new, key):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY.replace(old, new))
    out = tmp_path / "o"
    rc = main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("run", "scenario.jmax"), ("timescales", "--jmax")])
def test_an_absurd_jmax_exits_before_any_basis_is_built(tmp_path, capsys, command, key):
    # jmax 10**5 would list 4e15 levels; the ceiling refuses it before the first
    path = tmp_path / "big.cfg"
    if command == "run":
        path.write_text(TINY.replace("jmax = 1", "jmax = 100000"))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "o")]
    else:
        path.write_text(TINY)
        argv = ["timescales", "--config", str(path), "--jmax", "100000"]
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert peak < 50e6


@pytest.mark.parametrize("args, flag", [
    (["--sizes", "0"], "--sizes"),
    (["--sizes", "1"], "--sizes"),
    (["--sizes", "x"], "--sizes"),
    (["--sizes", "-1"], "--sizes"),
    (["--sizes", "3,,4"], "--sizes"),
    (["--sizes", "2"], "--sizes"),     # one edge: no loop to flip
    (["--sizes", "3,40"], "--sizes"),  # 2^40 - 1 patterns a draw
    (["--draws", "-1"], "--draws"),
    (["--sizes", "16", "--draws", "17"], "--draws"),  # 17 x 65,535 rows
    (["--draws", "9040"], "--draws"),                 # 9,040 x 116 rows
    (["--seed", "-1"], "--seed"),    # seed + n would still be >= 0
    (["--seed", "-10"], "--seed"),
])
def test_flip_sensitivity_argument_errors_name_their_flag(capsys, args, flag):
    assert main(["flip-sensitivity", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: ")
    assert captured.out == ""


@pytest.mark.parametrize("args, flag", [
    (["loops", "--max-len", "2"], "--max-len"),
    (["loops", "--max-len", "0"], "--max-len"),
    (["loops", "--max-len", "-1"], "--max-len"),
    (["dressed-potentials", "--points", "0"], "--points"),
    (["dressed-potentials", "--points", "1"], "--points"),
    (["dressed-potentials", "--points", "2"], "--points"),
    (["dressed-potentials", "--span", "nan"], "--span"),
    (["dressed-potentials", "--span", "-1"], "--span"),
    (["dressed-potentials", "--span", "0"], "--span"),
    (["dressed-potentials", "--span", "inf"], "--span"),
    (["dressed-potentials", "--span", "1e308"], "--span"),  # 2 span overflows
    (["dressed-potentials", "--points", "3"], "--points"),  # too coarse for the beams
    (["dressed-potentials", "--points", "1000001"], "--points"),
    (["dressed-potentials", "--offsets", "nan,0,0"], "--offsets"),
    (["dressed-potentials", "--offsets", "inf,0,0"], "--offsets"),  # the 1-2 beam dark
    (["dressed-potentials", "--offsets", "0,0"], "--offsets"),
    (["dressed-potentials", "--offsets", "a,0,0"], "--offsets"),
    (["loops", "--max-len", "13"], "--max-len"),
    (["loops", "--max-len", "100"], "--max-len"),  # 1.6 GB of padded paths without the ceiling
    # the squared spacing underflows in np.gradient's coefficients: NaN potentials
    (["dressed-potentials", "--span", "1e-200"], "--span"),
    (["dressed-potentials", "--span", "1e-300"], "--span"),
])
def test_grid_and_loop_length_errors_name_their_flag(capsys, args, flag):
    assert main([*args, "--scenario", "fig7-1mK-xxz"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: ")
    assert captured.out == ""


def test_a_loop_count_over_the_ceiling_names_the_max_len_flag(monkeypatch, capsys):
    from chiralsep import looptopology

    monkeypatch.setattr(looptopology, "MAX_LOOPS", 351)  # fig7 has 352 triangles
    assert main(["loops", "--scenario", "fig7-1mK-xxz"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --max-len: more than 351 loops of up to 3 nodes\n"
    assert captured.out == ""
    monkeypatch.setattr(looptopology, "MAX_LOOPS", 352)
    assert main(["loops", "--scenario", "fig7-1mK-xxz"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 352


@pytest.mark.parametrize("jmax, key", [([], "scenario.jmax"), (["--jmax", "4"], "--jmax")])
def test_a_run_census_over_the_ceiling_names_the_jmax_key(monkeypatch, tmp_path, capsys,
                                                           jmax, key):
    from chiralsep import looptopology

    monkeypatch.setattr(looptopology, "MAX_LOOPS", 100)
    assert main(["run", "--scenario", "fig7-1mK-xxz", *jmax, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {key}: more than 100 loops of up to 3 nodes; lower jmax\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_flip_sensitivity_largest_size_is_accepted(capsys):
    from chiralsep.cli import MAX_FLIP_PATTERNS

    n = MAX_FLIP_PATTERNS.bit_length()
    assert 2**n - 1 == MAX_FLIP_PATTERNS
    assert main(["flip-sensitivity", "--sizes", str(n), "--draws", "0"]) == 0
    assert capsys.readouterr().out == "n,draw,flips,classification\n"
    assert main(["flip-sensitivity", "--sizes", str(n + 1), "--draws", "0"]) == 2


def test_flip_sensitivity_row_ceiling_is_checked_before_any_draw(monkeypatch, capsys):
    from chiralsep import cli

    # the default sizes 3, 4, 5 and 6 give 7 + 15 + 31 + 63 = 116 rows a draw
    monkeypatch.setattr(cli, "MAX_FLIP_ROWS", 2 * 116)
    assert main(["flip-sensitivity", "--draws", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 116
    monkeypatch.setattr(cli, "random_loop_hamiltonian", None)  # no draw is made
    assert main(["flip-sensitivity", "--draws", "3"]) == 2
    assert capsys.readouterr().err == ("error: --draws: 3 draws of sizes 3,4,5,6 give 348 "
                                       "table rows, more than 232\n")


def test_flip_sensitivity_writes_each_draw_once_classified(monkeypatch, capsys):
    # the second draw fails: the header and the first draw's 7 rows are out
    from chiralsep import cli, looptopology

    monkeypatch.setattr(looptopology, "FLIP_BATCH", 7)  # a stack is one 3-ring
    first = cli.random_loop_hamiltonian

    def draw(n, rng, size=None):
        monkeypatch.setattr(cli, "random_loop_hamiltonian", None)
        return first(n, rng, size=size)

    monkeypatch.setattr(cli, "random_loop_hamiltonian", draw)
    with pytest.raises(TypeError):
        main(["flip-sensitivity", "--sizes", "3", "--draws", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,draw,flips,classification"
    assert [line[:4] for line in lines[1:]] == ["3,0,"] * 7


def test_flip_sensitivity_holds_no_object_per_sign_pattern(capsys):
    # the 16,383 sign patterns of a 14-ring as rows of one bool mask: a
    # frozenset of edge tuples per pattern took the peak to ~21 MB
    tracemalloc.start()
    try:
        assert main(["flip-sensitivity", "--sizes", "14", "--draws", "1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2**14 - 1
    assert peak < 12e6


@pytest.mark.parametrize("argv, key", [
    (["loops", "--scenario", "fig5-T0.5K-xxz-groundres", "--jmax", "0"], "--jmax"),
    (["timescales", "--scenario", "fig7-1mK-xxz", "--jmax", "0"], "--jmax"),
    (["dump-couplings", "--config", "{cfg}"], "scenario.jmax"),
    (["timescales", "--config", "{cfg}"], "scenario.jmax"),
])
def test_jmax_zero_names_its_key(tmp_path, capsys, argv, key):
    # at jmax 0 every level has J = 0, and no laser couples J = 0 to J = 0
    path = tmp_path / "j0.cfg"
    path.write_text(TINY.replace("jmax = 1", "jmax = 0"))
    assert main([a.format(cfg=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: laser driving (1, 2) couples nothing")


def test_a_truncated_thermal_state_names_the_jmax_flag(tmp_path, capsys):
    # 0.5 K puts ~47 % of the population at J = 1
    path = tmp_path / "warm.cfg"
    path.write_text(TINY.replace("temperature_K = 0", "temperature_K = 0.5").replace(
        "jmax = 1", "jmax = 8"))
    assert main(["run", "--config", str(path), "--jmax", "1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --jmax: population ") and "scenario.truncation_mass" in err


def test_a_restricted_loop_that_couples_nothing_is_not_blamed_on_jmax(tmp_path, capsys):
    # x light changes M by one, so it couples nothing within |1 1 1>
    path = tmp_path / "restricted.cfg"
    path.write_text(TINY.replace("jmax = 1", "jmax = 1\nrestricted_loop = true\n"
                                 "loop_rot_state = 1 1 1"))
    assert main(["timescales", "--config", str(path)]) == 2
    assert capsys.readouterr().err == ("error: scenario.loop_rot_state: laser driving (1, 2) "
                                       "couples nothing in the truncated basis\n")


def test_a_restricted_loop_in_a_state_no_laser_couples_names_its_key(tmp_path, capsys):
    # z light keeps M, but no laser couples J = 0 to J = 0
    path = tmp_path / "restricted.cfg"
    path.write_text(TINY.replace("polarization = x", "polarization = z")
                    .replace("jmax = 1", "jmax = 1\nrestricted_loop = true\n"
                             "loop_rot_state = 0 0 0"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: scenario.loop_rot_state: laser driving (1, 2) "
                                       "couples nothing in the truncated basis\n")
    assert not (tmp_path / "o").exists()


def test_jmax_zero_keeps_the_restricted_loop(capsys):
    # the restricted loop's basis is its own three levels, whatever jmax is
    assert main(["timescales", "--scenario", "restricted-loop", "--jmax", "0"]) == 0
    assert "basis_size = 3" in capsys.readouterr().out
