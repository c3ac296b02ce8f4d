"""The package's import surface and the names the benchmark harness reads.

Deleting a function can leave an import or an export behind, or break
``benchmarks/`` (which wraps and calls library names from outside); these
checks catch both without running a benchmark pass.
"""

import ast
import importlib
from pathlib import Path

import pytest

import superschur

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superschur"


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's own import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def test_every_import_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        left = imported_names(tree) - used
        if left:
            unused[path.name] = sorted(left)
    assert unused == {}


def test_all_lists_exactly_the_imported_names():
    # each exported name is the object its submodule defines, whether or not
    # it has been read before
    names = [name for name in superschur.__all__ if name != "__version__"]
    assert len(superschur.__all__) == len(set(superschur.__all__))
    assert names == list(superschur._SOURCES)
    for name in names:
        module = importlib.import_module(f"superschur.{superschur._SOURCES[name]}")
        assert getattr(superschur, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        superschur.no_such_name
    from superschur import tensor

    assert tensor is importlib.import_module("superschur.tensor")


def test_names_the_benchmark_reads_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import tracing

    missing = []
    for name, owner, attr, _, _ in tracing.LAYERS:
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(name)
    # benchmarks/workloads.py builds signed place permutations from these
    from superschur import tensor

    for attr in ("basis_words", "permutation_operator"):
        if not callable(getattr(tensor, attr, None)):
            missing.append(f"tensor.{attr}")
    if not isinstance(tensor.TensorOperator.__dict__.get("matrix"), property):
        missing.append("tensor.TensorOperator.matrix")
    assert missing == []
