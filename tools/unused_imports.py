"""List the imported names that a module never uses.

    python3 tools/unused_imports.py PATH [PATH ...]

Walks the ``.py`` files under each PATH and prints ``file:line: name`` for
every name an import binds that no other name in the file refers to.
``__init__.py`` files (their imports are re-exports) and ``__future__``
imports are skipped. Exits 1 if it printed anything.
"""

import ast
import sys
from pathlib import Path


def unused(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used:
                    yield node.lineno, name


hits = [f"{path}:{line}: {name}"
        for root in map(Path, sys.argv[1:])
        for path in sorted(root.rglob("*.py") if root.is_dir() else [root])
        if path.name != "__init__.py"
        for line, name in unused(path)]
for hit in hits:
    print(hit)
sys.exit(1 if hits else 0)
