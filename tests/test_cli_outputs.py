"""The output-set script writes each case's record and files."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_two_cases_write_their_records_and_files(tmp_path):
    out = tmp_path / "out"
    subprocess.run([sys.executable, str(ROOT / "tools" / "cli_outputs.py"), str(out),
                    "--case", "timescales-fig7-1mK-xxz", "--case", "dump-couplings-R"],
                   check=True, env=dict(os.environ, PYTHONPATH=""))
    assert sorted(os.listdir(out)) == ["configs", "dump-couplings-R", "dump-couplings-R.txt",
                                       "timescales-fig7-1mK-xxz.txt"]
    assert sorted(os.listdir(out / "configs")) == [
        "complex-sigma.cfg", "complex-y.cfg", "mismatch-seed0.cfg", "mismatch-seed1.cfg",
        "mismatch-seed2.cfg"]
    assert os.listdir(out / "dump-couplings-R") == ["couplings_R.csv"]
    assert (out / "dump-couplings-R.txt").read_text() == (
        "exit 0\n--- stdout\ndump-couplings-R/couplings_R.csv\n--- stderr\n")
    assert (out / "timescales-fig7-1mK-xxz.txt").read_text().startswith(
        "exit 0\n--- stdout\ninv_A_ns = ")
