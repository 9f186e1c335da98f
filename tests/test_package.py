"""The package's public names: ``trapprob.__all__`` and the imports of its
``__init__`` name the same set, and every name resolves; importing the
package loads no test-only dependency; and the public entry points refuse
an argument that is not a finite real number, and a trap that is not a
segment trap record, with a DomainError."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trapprob
from trapprob import (
    DomainError,
    PlanePoint,
    bessel_j0_y0,
    check_theorem1,
    check_theorem2,
    conjecture_probe,
    f_disk,
    figure_series,
    green_segment,
    hunt_approx,
    make_segment_trap,
    p_disk,
    phi_segment,
    r_z,
    release_circle,
    sample_batch,
)
from trapprob.verify import release_and_sample

SRC = Path(__file__).resolve().parent.parent / "src"


def test_all_names_resolve():
    assert len(set(trapprob.__all__)) == len(trapprob.__all__)
    assert [name for name in trapprob.__all__ if not hasattr(trapprob, name)] == []


def test_every_public_import_is_listed():
    tree = ast.parse(inspect.getsource(trapprob))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(trapprob.__all__)


def test_importing_the_cli_loads_neither_scipy_nor_mpmath():
    # numpy is the only runtime dependency, the J0/Y0 table built at import
    # included; scipy and mpmath give reference values in the tests only
    code = "import sys, trapprob.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


SEGMENT = make_segment_trap(-1.0, 1.0)


NOT_REAL_CALLS = {
    "p_disk r='1'": lambda: p_disk("1", 0.5, 1.0),
    "p_disk t=1j": lambda: p_disk(5.0, 0.5, 1j),
    "p_disk r=10**400": lambda: p_disk(10**400, 0.5, 1.0),
    "f_disk r=[1.0]": lambda: f_disk([1.0], 0.5, 1.0),
    "hunt_approx r=[1.0]": lambda: hunt_approx([1.0], 0.5, 2.0),
    "check_theorem1 r=array": lambda: check_theorem1(SEGMENT, np.array([5.0, 6.0]), 120.0, 10, 0),
    "check_theorem1 r=[5.0]": lambda: check_theorem1(SEGMENT, [5.0], 120.0, 10, 0),
    "check_theorem1 tau='120'": lambda: check_theorem1(SEGMENT, 5.0, "120", 10, 0),
    "make_segment_trap a='a'": lambda: make_segment_trap("a", 1),
    "make_segment_trap b=10**400": lambda: make_segment_trap(-1.0, 10**400),
    "figure_series radii=['a']": lambda: figure_series(["a"]),
    "figure_series radii=5.0": lambda: figure_series(5.0),
    "bessel_j0_y0 x=['a']": lambda: bessel_j0_y0(["a"]),
    "bessel_j0_y0 x=1j": lambda: bessel_j0_y0(1j),
    "bessel_j0_y0 x=array([1+2j])": lambda: bessel_j0_y0(np.array([1 + 2j])),
    "figure_series radii='15'": lambda: figure_series("15", t_grid=[1.0, 2.0], n=10),
    "figure_series radii=b'15'": lambda: figure_series(b"15", t_grid=[1.0, 2.0], n=10),
    "release_circle r='5'": lambda: release_circle("5", 10, 0),
    "release_and_sample r='5'": lambda: release_and_sample(SEGMENT, "5", 10, 1.0, 0),
    "release_and_sample t_max='1.0'": lambda: release_and_sample(SEGMENT, 5.0, 10, "1.0", 0),
    "sample_batch t_max='1'": lambda: sample_batch(SEGMENT, [PlanePoint(5.0, 0.0)], "1", 0),
    "PlanePoint x='a'": lambda: PlanePoint("a", 0),
    "PlanePoint y=10**400": lambda: PlanePoint(0.0, 10**400),
}


@pytest.mark.parametrize("call", NOT_REAL_CALLS.values(), ids=NOT_REAL_CALLS.keys())
def test_an_argument_that_is_not_a_finite_real_raises_domain_error(call):
    # not the bare TypeError, ValueError or OverflowError of the arithmetic
    # or float conversion that meets it first
    with pytest.raises(DomainError):
        call()


NOT_A_TRAP_CALLS = {
    "check_theorem1 trap=None": lambda: check_theorem1(None, 5.0, 120.0, 10, 0),
    "check_theorem2 trap=(-1, 1)": lambda: check_theorem2((-1, 1), PlanePoint(5.0, 0.0), 120.0, 10, 0),
    "release_and_sample trap='seg'": lambda: release_and_sample("seg", 5.0, 10, 1.0, 0),
    "conjecture_probe trap=None": lambda: conjecture_probe(None, [5.0], [1.0], 10, 0),
    "r_z trap=None": lambda: r_z(None, PlanePoint(5.0, 0.0)),
    # an old-style call (starts, t_max, seed, first_index): the start list
    # lands where the trap goes
    "sample_batch trap=[PlanePoint]": lambda: sample_batch([PlanePoint(5.0, 0.0)], 1.0, 0, 0),
}


@pytest.mark.parametrize("call", NOT_A_TRAP_CALLS.values(), ids=NOT_A_TRAP_CALLS.keys())
def test_a_trap_that_is_not_a_trap_record_raises_domain_error(call):
    # not the bare AttributeError of the first trap field read
    with pytest.raises(DomainError, match="trap must be a TrapGeometry"):
        call()


NOT_A_POINT_CALLS = {
    "r_z z=(5, 0)": lambda: r_z(SEGMENT, (5, 0)),
    "check_theorem2 z=(5.0, 0.0)": lambda: check_theorem2(SEGMENT, (5.0, 0.0), 100.0, 10, 0),
    "green_segment z=(5, 0)": lambda: green_segment((5, 0)),
    "phi_segment z=(5, 0)": lambda: phi_segment((5, 0)),
    "sample_batch starts=[(5.0, 0.0)]": lambda: sample_batch(SEGMENT, [(5.0, 0.0)], 1.0, 0),
}


@pytest.mark.parametrize("call", NOT_A_POINT_CALLS.values(), ids=NOT_A_POINT_CALLS.keys())
def test_a_point_that_is_not_a_plane_point_raises_domain_error(call):
    # not the bare AttributeError of the first coordinate read
    with pytest.raises(DomainError, match="PlanePoint"):
        call()
