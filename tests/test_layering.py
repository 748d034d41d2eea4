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
