"""The package's public names: ``trapprob.__all__`` and the imports of its
``__init__`` name the same set, and every name resolves."""

import ast
import inspect

import trapprob


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
