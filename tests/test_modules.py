"""Module boundaries inside the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aipoints"

# bench/tracing.py wraps these haar samplers on the estimator module by name
ALLOWED = {("estimator", "_decode_cartan"), ("estimator", "_sample_cartan")}


def test_no_private_imports_between_modules():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("aipoints")):
                continue
            for alias in node.names:
                name = alias.name
                private = name.startswith("_") and not name.endswith("__")
                if private and (path.stem, name) not in ALLOWED:
                    found.append(f"{path.name}:{node.lineno} imports {name}")
    assert not found, found
