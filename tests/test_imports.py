"""Every name that a module of `src/postman` (but `__init__.py`, whose imports
are the package's exports) or a file in `scripts/` imports is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "postman").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_an_unused_import_is_found():
    assert unused_imports("import json\nimport os.path\nfrom a import b as c, d\nos.sep\nd()\n") == ["c", "json"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
