"""Modules of the package use each other's public names only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fracheat"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "fracheat"
        if internal:
            found.extend(
                f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
                for alias in node.names
                if alias.name.startswith("_")
            )
    return found


def test_no_private_imports_between_modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    assert [hit for path in paths for hit in _private_imports(path)] == []


def _top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_names_are_imported_from_their_defining_module():
    defined = {path.stem: _top_level_names(path) for path in SRC.glob("*.py")}
    relayed = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            parts = node.module.split(".")
            if node.level == 0 and parts[0] != "fracheat":
                continue
            source = parts[-1]
            relayed.extend(
                f"{path.name}:{node.lineno} imports {alias.name} from {source}"
                for alias in node.names
                if source in defined and alias.name not in defined[source]
            )
    assert relayed == []


def test_only_the_far_band_lays_far_tails():
    # families.FarBand is the one far tail of the operator, the solver and
    # the residual: no other module lays half-period or geometric tail
    # panels or averages partial sums itself
    tail_names = {"half_period_rule", "averaged_limit", "geometric_tail"}
    found = sorted(
        f"{path.name} imports {alias.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in tail_names
    )
    assert found == [f"families.py imports {name}" for name in sorted(tail_names)]
