"""The bit pins hold on both numpy CPU dispatch paths they were taken on:
the five pin tests, run again in a subprocess on the X86_V3 (AVX2) path
that NPY_DISABLE_CPU_FEATURES selects on an AVX-512 CPU."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PIN_TESTS = [
    "tests/test_specfun.py::test_j0_y0_digest",
    "tests/test_segment_sim.py::test_walk_pin_on_the_previous_release_points",
    "tests/test_segment_sim.py::test_release_and_sample_pin",
    "tests/test_disk_oracle.py::test_p_disk_bit_identical_pins",
    "tests/test_disk_oracle.py::test_p_disk_whole_grid_digest",
]


def test_pins_hold_on_the_avx2_dispatch():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *PIN_TESTS]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    # conftest's report header names the dispatch the pins were checked on
    [header] = [line for line in done.stdout.splitlines() if line.startswith("numpy float64 dispatch")]
    assert "X86_V4" not in header, header
    assert done.returncode == 0 and "5 passed" in done.stdout, done.stdout + done.stderr
