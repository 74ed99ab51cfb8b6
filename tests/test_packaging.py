"""Packaging and project settings: an installed package carries every file it
reads at run time, and the test settings in pyproject.toml take effect."""

import fnmatch
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_non_python_sources_are_package_data():
    # bp.py compiles min_sum.c on first use, so the source must ship
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["qldpc_dc"]
    files = [p.name for p in (ROOT / "src" / "qldpc_dc").iterdir()
             if p.is_file() and p.suffix != ".py"]
    assert "min_sum.c" in files
    for name in files:
        assert any(fnmatch.fnmatch(name, g) for g in globs), name


def test_unregistered_marker_is_an_error():
    # a misspelled @pytest.mark.slow must not quietly join the quick test loop
    with pytest.raises(pytest.fail.Exception, match="slwo"):
        pytest.mark.slwo
