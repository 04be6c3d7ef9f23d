"""The engine modules (`exactmath`, `core`, `derivations`) name no catalog
family and import nothing from the catalog, the claims or the CLI; only
`exactmath` builds dense matrices."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from superalg import FAMILY_IDS

SRC = Path(__file__).resolve().parent.parent / "src" / "superalg"
ENGINE = ("exactmath.py", "core.py", "derivations.py")
OUTER = {"families", "verify", "cli"}


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def imports(tree: ast.Module):
    """Every import in the tree, at any depth, as (enclosing function or
    None, the dotted names it mentions)."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.append((function, [a.name for a in child.names]))
            elif isinstance(child, ast.ImportFrom):
                found.append((function, [child.module or ""]
                              + [a.name for a in child.names]))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("name", ENGINE)
def test_engine_imports_no_catalog_claim_or_cli_module(name):
    for function, names in imports(parse(name)):
        parts = {part for dotted in names for part in dotted.split(".")}
        assert not parts & OUTER, (name, function, names)


def test_the_one_function_local_import_is_fingerprints_derivations():
    local = [(name, function, names) for name in ENGINE
             for function, names in imports(parse(name)) if function is not None]
    assert local == [("core.py", "fingerprint", ["derivations", "derivation_space"])]


@pytest.mark.parametrize("name", ENGINE)
def test_engine_names_no_family(name):
    strings = {node.value for node in ast.walk(parse(name))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & set(FAMILY_IDS), name


def test_only_exactmath_builds_a_dense_matrix():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exactmath.py":
            continue
        for node in ast.walk(parse(path.name)):
            if isinstance(node, ast.Call):
                called = ast.unparse(node.func)
                assert called not in ("RatMatrix", "RatMatrix.from_cells"), path.name
