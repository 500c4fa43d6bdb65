"""The reference constructions in oracles.py stay independent of the package.

oracles.py promises that no computation is shared with the code under test;
an import of ecsim there would let a defect in the package reach both sides
of a comparison.
"""

import ast

import oracles


def test_oracles_import_nothing_from_ecsim():
    with open(oracles.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported
    assert [name for name in imported if name.split(".")[0] == "ecsim"] == []
