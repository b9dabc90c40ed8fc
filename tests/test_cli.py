"""Command-line entry points (in-process)."""

import os

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


def test_unknown_builtin_exits_2(capsys):
    rc = main(["timescales", "--scenario", "nope"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("temperature_K = 0", "temperature_K = nan", "scenario.temperature_K"),
    ("t_end_over_omega12 = 2", "t_end_over_omega12 = inf", "scenario.t_end_over_omega12"),
    ("C_GHz = 6.399", "C_GHz = 6.399\nmu = 1,x 0 0", "molecule.mu"),
])
def test_non_finite_or_unparsable_input_names_its_field(tmp_path, capsys, old, new, key):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY.replace(old, new))
    out = tmp_path / "o"
    rc = main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()
