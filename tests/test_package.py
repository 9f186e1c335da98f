"""The package's public names: ``trapprob.__all__`` and the imports of its
``__init__`` name the same set, and every name resolves; and importing the
package loads no test-only dependency."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import trapprob

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
