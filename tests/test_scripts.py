"""Smoke tests for the experiment scripts under ``scripts/``.

Each script runs at a small ``--trials`` count with its default seed.  The
pins are SHA-256 digests of every CSV it writes and of its per-point
progress lines, so any change to the rows, their order or the progress
output shows up here.
"""

import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "run_code_capacity.py": (
        20,
        {
            "bb_6x6.csv": "54e7bd6a96535b07d142af7f3522ac67d83d66930715f798244724ecaa56aece",
            "surface_d3.csv": "7f8ac0fe670aee6fb478f9ab3e1c1397b1557512d92d8ec8e7071c9698aac2a9",
            "surface_d5.csv": "2943b0198e529e9a590b0b457e93937f00f4f07b31c5f27050cc0d5f95387c5f",
        },
        "0d9130ef37c8227bc727736a05b2aef18dd76ade80ad1c0c9cded8626f1e2ca2",
    ),
    "run_measurement_noise.py": (
        12,
        {
            "circuit_bb_6x6.csv": "9e1e37e9a3ae4180d14c33585d3072fc886fc68bcc56e214d24689c6284a1028",
            "pheno_bb_6x6.csv": "59bf64a635029d986e310894d3c1f5ee1acd21cbfdcffaef28d71ea64c8eb544",
            "pheno_surface_d3.csv": "9d3515067bec959c50f8466396d824464229dc2bdd84ce4f369aaea39fdd5a01",
        },
        "6fb14edcb3fc9af357726ee47958fbeeed4c92caa907c7c1baa9e4aadc0686f1",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_outputs_match_pins(script, tmp_path):
    trials, csv_pins, progress_pin = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--trials", str(trials),
         "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert sorted(p.name for p in out.iterdir()) == sorted(csv_pins)
    for name, pin in csv_pins.items():
        text = (out / name).read_text()
        fails = sum(int(row["fail_logical"]) + int(row["fail_nonconv"])
                    for row in csv.DictReader(io.StringIO(text)))
        assert fails > 0, f"{name} has no failures to pin"
        assert sha256(text.encode()) == pin, name
    *progress, last = proc.stdout.splitlines(keepends=True)
    assert last == f"results under {out}/\n"
    assert sha256("".join(progress).encode()) == progress_pin
