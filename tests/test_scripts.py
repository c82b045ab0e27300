"""The study scripts at their default arguments: they print the shipped
figures from the probe pipeline and write nothing to the working
directory."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, tmp_path, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert list(tmp_path.iterdir()) == []
    return capsys.readouterr().out


def test_rate_study_figures(monkeypatch, tmp_path, capsys):
    out = run_script("rate_study.py", monkeypatch, tmp_path, capsys)
    for line in (
            "  level_subdiff  exponent   1.065",
            "  level_bregman  exponent   1.000",
            "  kl             exponent   0.544",
            "  sharpness      exponent   0.497",
            "  gap_condition  exponent   1.008",
            "value-gap contraction: observed 0.2501 over tail window "
            "(15, 24), certified bound 0.9867",
            "level-set contraction: 0.5000; refit strong-EB constant 1.0000 "
            "against the implied cap 1.0000"):
        assert line in out


def test_counterexample_probe_figures(monkeypatch, tmp_path, capsys):
    out = run_script("counterexample_probe.py", monkeypatch, tmp_path, capsys)
    assert ("level-set subdifferential EB: exponent 1.000000, "
            "constant 1.000000") in out
    sweep = [line for line in out.splitlines() if "alpha =" in line]
    assert len(sweep) == 19
    assert all(line.endswith("violated 100.0%") for line in sweep)
