"""Exit 1, listing each imported name that is never read, in src/dfrep
(``__init__.py`` re-exports, so it is skipped), tests/ and .github/*.py.

Usage: python .github/unused_imports.py   (from the repository root)
"""

import ast
import sys
from pathlib import Path

files = [p for p in sorted(Path("src/dfrep").glob("*.py")) if p.name != "__init__.py"]
files += sorted(Path("tests").glob("*.py")) + sorted(Path(".github").glob("*.py"))
unused = []
for path in files:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path}:{node.lineno}: {name}")
for line in unused:
    print(line)
sys.exit(1 if unused else 0)
