"""The config layer: one key table, unknown keys rejected, builtins as fig5
overrides, a parse_config fuzz, and the documented examples."""

import math
import re
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chiralsep import scenarios
from chiralsep.cli import main
from chiralsep.rotbasis import BasisTruncation, RotState
from chiralsep.scenarios import (
    CONFIG_HEADER,
    CONFIG_KEYS,
    PREPARATIONS,
    ConfigError,
    ScenarioConfig,
    builtin_config,
    builtin_names,
    parse_config,
)

ROOT = Path(__file__).resolve().parents[1]
FIG5 = scenarios._FIG5_TEXT
MISMATCH = (ROOT / "perfbench" / "configs" / "mismatch-j1.cfg").read_text().replace(
    "{rot_offset_13}", "0.01")


def readme_example() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Config files", 1)[1]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def docstring_grammar() -> str:
    """The module docstring's grammar as a config, [laser12]'s keys written
    out for the two sections it says are alike."""
    doc = scenarios.__doc__
    body = textwrap.dedent(doc.split("Sections and keys:", 1)[1].split("All three lasers")[0])
    laser = body[body.index("[laser12]"):]
    return "\n".join([CONFIG_HEADER, body, laser.replace("[laser12]", "[laser23]"),
                      laser.replace("[laser12]", "[laser13]")])


def test_documented_configs_parse_under_the_key_table():
    example = parse_config(readme_example())
    assert example.name == "example"
    # the README example is fig7 under another name
    assert replace(example, name="fig7-1mK-xxz") == builtin_config("fig7-1mK-xxz")
    grammar = parse_config(docstring_grammar())
    assert grammar.name == "fig5-T0.5K-xxz-groundres"
    assert grammar.polarizations == ("x", "x", "x")


def test_docstring_lists_every_key_of_the_table():
    doc = scenarios.__doc__.split("Sections and keys:", 1)[1].split("All three lasers")[0]
    documented = set(re.findall(r"(\w+) =", doc))
    assert documented == {key for keys in CONFIG_KEYS.values() for key in keys}
    assert set(re.findall(r"\[(\w+)\]", doc)) == set(CONFIG_KEYS)


def test_builtins_are_fig5_overrides():
    fig5 = parse_config(FIG5)
    assert builtin_config("fig5-T0.5K-xxz-groundres") == fig5
    fig7 = builtin_config("fig7-1mK-xxz")
    assert fig7 == replace(fig5, name="fig7-1mK-xxz", temperature=0.001,
                           trunc=BasisTruncation(3))
    # restricted-loop as a user would write it
    text = (FIG5.replace("fig5-T0.5K-xxz-groundres", "restricted-loop")
            .replace("temperature_K = 0.5", "temperature_K = 0")
            .replace("preparation = partially-dressed", "preparation = adiabatic")
            .replace("jmax = 8", "jmax = 1\nrestricted_loop = true\nloop_rot_state = 1 1 1")
            .replace("polarization = x", "polarization = z"))
    assert builtin_config("restricted-loop") == parse_config(text)
    assert builtin_config("restricted-loop").loop_rot == RotState(1, 1, 1)
    assert len(builtin_names()) == 4


@pytest.mark.parametrize("old, new, key", [
    ("temperature_K = 0.5", "temprature_K = 0.5", "scenario.temprature_k"),
    ("[laser13]\npolarization = z", "[laser13]\npolarisation = y", "laser13.polarisation"),
    ("preparation = partially-dressed", "preperation = adiabatic", "scenario.preperation"),
    ("[laser13]", "[laser14]\npolarization = x\n\n[laser13]", "laser14.polarization"),
    ("[laser13]", "[laser14]", "laser14.polarization"),
    ("[scenario]", "[DEFAULT]\nwaist = 2\n\n[scenario]", "scenario.waist"),
    ("[scenario]", "[scenario]\njmax_ = 2", "scenario.jmax_"),
])
def test_unknown_section_or_key_exits_2_naming_it(tmp_path, capsys, old, new, key):
    path = tmp_path / "typo.cfg"
    path.write_text(FIG5.replace(old, new, 1))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {key}: unknown key\n"
    assert not out.exists()


def test_empty_unknown_section_is_named():
    with pytest.raises(ConfigError, match=r"^laser14: unknown section$"):
        parse_config(FIG5 + "\n[laser14]\n")


def test_keys_are_case_insensitive_and_values_literal():
    text = FIG5.replace("A_GHz", "a_ghz").replace("temperature_K", "TEMPERATURE_K")
    assert parse_config(text) == parse_config(FIG5)
    assert parse_config(FIG5.replace("name = fig5", "name = 100%fig5")).name.startswith("100%")


# ---------------------------------------------------------------------------
# parse_config fuzz

BASES = [FIG5, MISMATCH, readme_example(), docstring_grammar()]
ALL_KEYS = sorted({key for keys in CONFIG_KEYS.values() for key in keys})
VALUES = st.one_of(
    st.sampled_from(["", "0", "-1", "1e-320", "1e400", "nan", "-inf", "x", "true", "maybe",
                     "1 1 1", "2 1", "1,2 0 0", "0 0 0", "1,x 0 0", "%(waist)s", "sigma+",
                     "adiabatic", "3.5", "99999999999999999999", "-0.0"]),
    st.text(max_size=12),
)


def _misspell(draw, word):
    k = draw(st.integers(0, len(word)))
    return draw(st.sampled_from([word[:k] + word[k + 1:], word[:k] + "x" + word[k:],
                                 word.upper(), word + "_"]))


@st.composite
def mutated_configs(draw):
    lines = draw(st.sampled_from(BASES)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        op = draw(st.sampled_from(["drop", "duplicate", "misspell", "garble", "add"]))
        if op == "drop":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, line)
        elif op == "add":
            lines.insert(k + 1, f"{draw(st.sampled_from(ALL_KEYS))} = {draw(VALUES)}")
        elif "=" in line:
            key, value = line.split("=", 1)
            if op == "misspell":
                lines[k] = f"{_misspell(draw, key.strip())} ={value}"
            else:
                lines[k] = f"{key}= {draw(VALUES)}"
        elif op == "misspell" and (header := re.match(r"\[(\w+)\]", line)):
            lines[k] = f"[{_misspell(draw, header.group(1))}]"
        if not lines:
            break
    return "\n".join(lines) + "\n"


def assert_valid(cfg: ScenarioConfig):
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.preparation in PREPARATIONS
    for value in (cfg.temperature, cfg.t_end, cfg.evaluation_x, cfg.truncation_mass,
                  cfg.constants.a, cfg.constants.b, cfg.constants.c):
        assert math.isfinite(value)
    assert cfg.temperature >= 0 and cfg.t_end > 0 and cfg.n_times >= 2
    assert cfg.trunc.jmax >= 0 and cfg.omega12_max > 0
    assert cfg.constants.a >= cfg.constants.b >= cfg.constants.c > 0
    assert [l.drives for l in cfg.lasers] == [(1, 2), (2, 3), (1, 3)]
    for laser in cfg.lasers:
        assert math.isfinite(laser.peak_rabi) and laser.peak_rabi != 0
        assert math.isfinite(laser.rot_offset) and laser.beam.waist > 0
        assert laser.peak_rabi * laser.beam(cfg.evaluation_x) != 0
        laser.helicity_triple()
    assert not cfg.restricted_loop or cfg.loop_rot is not None


def assert_names_its_place(msg: str, text: str):
    """The message starts with the header, the syntax, a missing section, or
    a section (and key) of the table or of the text."""
    if msg.startswith(("first line must be the header", "config syntax: ", "missing section [")):
        return
    head = re.match(r"([^\s.:]+)(?:\.([^\s:]+))?(?::| required)", msg)
    assert head, msg
    sec, key = head.groups()
    assert sec in CONFIG_KEYS or f"[{sec}]" in text, msg
    if key is not None:
        known = {k.lower() for k in CONFIG_KEYS.get(sec, ())}
        assert key.lower() in known or key in text.lower(), msg


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_configs())
def test_parse_config_fuzz(text):
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert_names_its_place(str(exc), text)
    else:
        assert_valid(cfg)
